"""Transition-based omega-automata with Emerson-Lei acceptance.

The package keeps automata in a compact edge-list representation
(``graph``), guards over atomic propositions as interned minterm sets
(``guards``), and acceptance conditions as positive Boolean formulas
over Fin/Inf atoms (``acceptance``).  On top of that sit HOA and DOT
input/output (``hoa``), the core algorithms (``algorithms``), and game
solving plus circuit extraction (``synthesis``).
"""

from .acceptance import (AccClass, AccFalse, AccTrue, AcceptanceParseError,
                         And, FALSE, Fin, Inf, Or, TRUE, acc_name,
                         change_parity, class_colors, dnf_disjuncts, dual,
                         eval_acceptance, f_and, f_or, generalized_buchi,
                         generalized_co_buchi, generalized_rabin, is_finless,
                         make_class, parity, parity_of, parity_readings,
                         parse_acceptance, print_acceptance, rabin, recognize,
                         shift_colors, streett, subst, to_dnf, used_colors)
from .guards import (Cube, FALSE_GUARD, GuardStore, LabelParseError,
                     TRUE_GUARD)
from .graph import (Automaton, FLAG_NAMES, MAYBE, NO, Trivalent, YES,
                    trim)
from .hoa import HoaParseError, parse_hoa, parse_hoa_stream, print_dot, \
    print_hoa, stats
from .algorithms import (Lasso, SccInfo, accepting_run, check_run,
                         get_or_compute_flag, is_complete, is_empty, is_inherently_weak,
                         is_terminal, is_universal, is_very_weak, is_weak,
                         product, product_accepting_run, product_is_empty,
                         random_automaton, reachable_states,
                         remove_alternation, remove_fin, scc_info)
from .synthesis import (MealyMachine, Solution, automaton_to_mealy,
                        colorize_parity, make_game, mealy_to_aiger,
                        mealy_to_automaton, print_aiger, simulate_aig,
                        simulate_mealy, solve_game, solve_parity_max_odd,
                        solve_safety, state_players, strategy_to_mealy,
                        validate_mealy)

__version__ = "0.1.0"

__all__ = [
    "AccClass", "AccFalse", "AccTrue", "AcceptanceParseError", "And",
    "Automaton", "Cube", "FALSE", "FALSE_GUARD", "FLAG_NAMES",
    "Fin", "GuardStore", "HoaParseError", "Inf", "LabelParseError", "Lasso",
    "MAYBE", "MealyMachine", "NO", "Or", "SccInfo", "Solution", "TRUE",
    "TRUE_GUARD", "Trivalent", "YES", "acc_name", "accepting_run",
    "automaton_to_mealy", "change_parity", "check_run", "class_colors",
    "colorize_parity", "dnf_disjuncts", "dual", "eval_acceptance", "f_and",
    "f_or", "generalized_buchi", "generalized_co_buchi", "generalized_rabin",
    "get_or_compute_flag", "is_complete", "is_empty", "is_finless",
    "is_inherently_weak", "is_terminal", "is_universal", "is_very_weak",
    "is_weak", "make_class",
    "make_game", "mealy_to_aiger", "mealy_to_automaton", "parity",
    "parity_of", "parity_readings", "parse_acceptance", "parse_hoa",
    "parse_hoa_stream", "print_acceptance", "print_aiger", "print_dot",
    "print_hoa", "product", "product_accepting_run", "product_is_empty",
    "rabin", "random_automaton",
    "reachable_states", "recognize", "remove_alternation", "remove_fin",
    "scc_info", "shift_colors", "simulate_aig", "simulate_mealy", "solve_game",
    "solve_parity_max_odd", "solve_safety", "state_players", "stats",
    "streett", "strategy_to_mealy", "subst", "to_dnf", "trim",
    "used_colors", "validate_mealy",
]
