"""Deep acceptance conditions and their limits: formulas nested far past
Python's recursion limit, 1,024-color parity automata and games, all at
the default recursion limit."""

import random
import sys

import pytest

from elaut import algorithms, synthesis
from elaut.acceptance import (FALSE, TRUE, And, Fin, Inf, Or, acc_name,
                              change_parity, colors_of, dnf_disjuncts, dual,
                              eval_acceptance, f_and, f_or, is_finless,
                              make_class, parity, parity_of, parity_readings,
                              parse_acceptance, print_acceptance, recognize,
                              shift_colors, subst, to_dnf, used_colors)
from elaut.algorithms import (accepting_run, check_run, is_empty,
                              random_automaton, remove_fin)
from elaut.cli import main
from elaut.graph import Automaton, trim
from elaut.hoa import parse_hoa, print_hoa
from elaut.synthesis import make_game, solve_game

from oracle_helpers import trim_by_rebuild


@pytest.fixture(autouse=True)
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def chain_text(levels, colors=3):
    """Inf(a)&(Fin(b)|Inf(c)&(Fin(d)|...)), an And and an Or per level,
    so nested 2*levels deep; colors cycle below `colors`."""
    head = "".join("Inf(%d)&(Fin(%d)|" % (2 * i % colors, (2 * i + 1) % colors)
                   for i in range(levels))
    return head + "Inf(0)" + ")" * levels


def chain(levels, colors=3):
    """The formula of chain_text, built with f_and/f_or."""
    f = Inf(0)
    for i in reversed(range(levels)):
        f = f_and([Inf(2 * i % colors),
                   f_or([Fin((2 * i + 1) % colors), f])])
    return f


def test_every_formula_function_on_100k_nodes():
    f = parse_acceptance(chain_text(25000))
    assert len(f.code) == 100001
    text = str(f)
    assert print_acceptance(f) == text == chain_text(25000)
    assert parse_acceptance(text) == f
    assert hash(parse_acceptance(text)) == hash(f)
    assert isinstance(f, And) and len(f.children) == 2
    assert f.children[0].color == 0 and isinstance(f.children[1], Or)
    assert "parse_acceptance(" in repr(f)
    # Inf(0), then Fin(1) or else Inf(2), and so on down the chain
    for colors, want in (([0, 2], True), ([0, 1], False), ([1], False),
                         ([0, 1, 2], True)):
        assert eval_acceptance(f, sum(1 << c for c in colors)) is want
    assert colors_of(used_colors(f)) == [0, 1, 2]
    assert not is_finless(f)
    # with every Fin false the chain folds into one And of 25,001 Infs
    g = subst(f, {0: False, 1: False, 2: False}, {})
    assert is_finless(g) and isinstance(g, And) and len(g.children) == 25001
    assert subst(f, {}, {0: False}) is FALSE
    assert dual(dual(f)) == f
    assert eval_acceptance(dual(f), 0b10) is True
    assert colors_of(used_colors(shift_colors(f, 5))) == [5, 6, 7]
    d = to_dnf(f)
    assert dnf_disjuncts(d) == dnf_disjuncts(f)
    for bits in range(8):
        assert eval_acceptance(d, bits) == eval_acceptance(f, bits)
    assert recognize(f) is None
    assert acc_name(f, 3) is None
    assert parity_readings(f) == []
    assert f_and([f, Inf(1)]).children[-1] == Inf(1)
    assert f_or([f, TRUE]) is TRUE
    assert And((f, f)) != f and Or((f,)).children == (f,)


def test_equality_and_hash_10k_deep():
    a, b = (parse_acceptance(chain_text(5000)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_acceptance(chain_text(5000, colors=4))
    assert len({a, b, dual(a)}) == 2


def test_to_dnf_3000_levels():
    f = chain(1500, colors=64)
    d = to_dnf(f)
    rng = random.Random(3)
    for _ in range(50):
        colors = rng.getrandbits(64)
        assert eval_acceptance(d, colors) == eval_acceptance(f, colors)


def test_deep_acceptance_header_exits_with_a_verdict(tmp_path, capsys):
    path = tmp_path / "deep.hoa"
    path.write_text("HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
                    "Acceptance: 3 %s\n--BODY--\nState: 0\n"
                    "[0] 0 {0 2}\n--END--\n" % chain_text(5000))
    assert main(["aut", str(path), "--is-empty"]) == 1
    assert capsys.readouterr().err == ""


def test_1024_color_parity_pipeline():
    n = 1024
    aut = random_automaton(8, 2, density=0.5, colors=n, color_density=0.2,
                           acceptance=parity("max", "odd", n), seed=3)
    aut = parse_hoa(print_hoa(aut))
    # 32 color words per packed edge
    assert len(aut.pack_edges()) == aut.num_edges * 4 * (4 + 32)
    run = accepting_run(aut)
    assert is_empty(aut) == (run is None)
    assert run is None or check_run(aut, run)
    fin_free = remove_fin(aut)
    assert is_finless(fin_free.acceptance)
    assert is_empty(fin_free) == is_empty(aut)
    # trim shares the input's color ints instead of rebuilding them
    trimmed = trim(aut)
    assert trimmed.check()
    assert trimmed.pack_edges() == trim_by_rebuild(aut).pack_edges()
    assert {id(acc) for acc in trimmed.edge_acc[1:]} <= {
        id(acc) for acc in aut.edge_acc[1:]}
    assert is_empty(trimmed) == is_empty(aut)
    out = change_parity(aut, "min even")
    assert ("min", "even") in [r[:2] for r in parity_readings(out.acceptance)]
    text = print_hoa(out)
    assert print_hoa(parse_hoa(text)) == text
    assert parity_of(recognize(out.acceptance))[:2] == ("min", "even")


def test_1024_fin_units_cut_at_once(monkeypatch):
    # one state, loop i colored i, under Fin(0)&...&Fin(1023): every Fin
    # is a unit of the conjunction, so one cut removes all the loops
    # where one split per Fin would rebuild the SCCs 1,024 times
    n = 1024
    aut = Automaton(aps=["a"])
    aut.new_states(1)
    aut.set_init(0)
    aut.new_edges([(0, 0, 1, 1 << i) for i in range(n)])
    aut.set_acceptance(n, f_and([Fin(c) for c in range(n)]))
    calls = []
    real = algorithms._subgraph_sccs

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(algorithms, "_subgraph_sccs", spy)
    assert is_empty(aut)
    assert accepting_run(aut) is None
    assert len(calls) <= 2


def test_zielonka_on_1024_nested_attractors(monkeypatch):
    # state i has one self-loop, colored i: solved as one game, every
    # attractor takes one state and the recursion nests once per color,
    # O(n**2) calls; solved one SCC at a time, two calls per state
    n = 1024
    game = Automaton(aps=["a"])
    game.new_states(n)
    game.set_init(0)
    for i in range(n):
        game.new_edge(i, i, 1, [i])
    game.set_acceptance(n, make_class(parity("max", "odd", n)))
    make_game(game, [i % 2 for i in range(n)])
    calls = []
    zielonka_call = synthesis._zielonka_call
    monkeypatch.setattr(synthesis, "_zielonka_call",
                        lambda *args: calls.append(1) or zielonka_call(*args))
    sol = solve_game(game)
    assert sol.winners == [i % 2 for i in range(n)]
    assert sol.strategy == list(range(1, n + 1))
    assert len(calls) <= 2 * n


def test_100000_state_cycle():
    # one SCC of 100,000 states, deeper than any recursion: every SCC
    # consumer works on explicit stacks
    n = 100_000
    aut = Automaton(aps=["a"])
    aut.new_states(n)
    aut.set_init(0)
    aut.new_edges([(i, (i + 1) % n, 1, 1 if i == n - 1 else 0)
                   for i in range(n)])
    aut.set_acceptance(1, Inf(0))
    info = algorithms.scc_info(aut)
    assert len(info.members) == 1 and len(info.internal[0]) == n
    assert info.colors == [1]
    assert not is_empty(aut)
    run = accepting_run(aut)
    assert run.prefix == [] and len(run.cycle) == n and check_run(aut, run)
    # as a game, the one cycle's highest color is odd: player 1 wins
    game = aut.clone()
    game.map_colors(lambda bits: 2 if bits else 1)
    game.set_acceptance(2, make_class(parity("max", "odd", 2)))
    make_game(game, [s % 2 for s in range(n)])
    assert solve_game(game).winners == [1] * n
