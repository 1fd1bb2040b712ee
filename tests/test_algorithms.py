"""Graph algorithms: SCCs, structural flags, emptiness, runs, Fin
removal, products, alternation removal, random generation.

Randomized sections compare against the brute-force reference code in
oracle_helpers, which shares nothing with the implementations under
test.
"""

import gc
import hashlib
import itertools
import json
import os
import random

import pytest

from elaut import (
    MAYBE, YES, Automaton, Fin, Inf, Lasso, accepting_run, check_run,
    class_colors, eval_acceptance, f_and, f_or, generalized_buchi,
    generalized_co_buchi, is_complete, is_empty, is_inherently_weak,
    is_terminal, is_universal, is_very_weak, is_weak, make_game,
    parse_acceptance, parse_hoa, print_hoa, product,
    product_accepting_run, product_is_empty,
    rabin, random_automaton, reachable_states, remove_alternation,
    remove_fin, scc_info, solve_game, streett, used_colors,
)
from elaut import algorithms, synthesis
from elaut.acceptance import (TRUE, AccClass, AccTrue, And, Or,
                              change_parity, colors_of, make_class, parity,
                              recognize)
from oracle_helpers import (
    _strongly_connected as strongly_connected, alt_buchi_word_in, build,
    empty_by_edge_subsets, product_by_pairs, random_alt_buchi,
    random_parity_game, random_words, sccs_by_reachability, up_word_in,
    word_in_gen_buchi,
)

INF0 = parse_acceptance("Inf(0)")


def small_corpus(count, seed_base=0, max_states=7, max_colors=4):
    out = []
    for k in range(count):
        rng = random.Random(seed_base + k)
        out.append(random_automaton(
            states=rng.randint(1, max_states),
            aps=rng.randint(0, 2),
            density=rng.uniform(0.1, 0.35),
            colors=rng.randint(0, max_colors),
            color_density=0.3,
            acceptance=None,
            seed=seed_base + k))
    return out


# ---------------------------------------------------------------- SCCs

def test_scc_partition_and_order():
    # 0 -> {1,2} cycle -> 3 self-loop; 4 unreachable
    aut = build(["a"], 1, INF0,
                [(0, "t", 1, []),
                 (1, "0", 2, []), (2, "t", 1, [0]),
                 (2, "!0", 3, []),
                 (3, "t", 3, [0]),
                 (4, "t", 4, [0])])
    info = scc_info(aut)
    assert info.scc_of[4] == -1
    cid0, cid1, cid3 = info.scc_of[0], info.scc_of[1], info.scc_of[3]
    assert info.scc_of[2] == cid1
    assert info.members[cid1] == [2, 1]     # last visited first
    # edges cross components from higher id to lower id only
    assert cid0 > cid1 > cid3
    assert not info.internal[cid0]
    assert info.internal[cid1] and info.internal[cid3]
    assert info.colors[cid1] == 1


def test_scc_internal_uses_any_group_member():
    # the group edge from 1 keeps one foot in the {0,1} component, so it
    # counts as internal even though 2 lies outside
    aut = build(["a"], 1, INF0,
                [(0, "t", 1, []),
                 (1, "t", (2, 0), [0]),
                 (2, "t", 2, [])])
    info = scc_info(aut)
    cid = info.scc_of[0]
    assert info.scc_of[1] == cid
    assert info.scc_of[2] != cid
    group_edges = [i for i in range(1, len(aut.edges))
                   if aut.edges[i].dst < 0]
    assert group_edges and group_edges[0] in info.internal[cid]
    assert info.colors[cid] == 1


def _random_rows(rng):
    """Rows of a random graph of 1-12 states, as _explore reads them:
    (destination, colors, edge number) per out-edge."""
    n = rng.randint(1, 12)
    number = itertools.count()
    return [[(rng.randrange(n), rng.choice([0, 0, 1, 2, 3, 4, 6]),
              next(number)) for _ in range(rng.randint(0, 3))]
            for _ in range(n)]


def test_explore_matches_mutual_reachability():
    # partition, reverse topological order, internal edges and their
    # colors against the brute-force oracle, with DFS numbers in a list
    # (rows as a list) and in a dict (rows as a function)
    rng = random.Random(5151)
    for _ in range(400):
        rows = _random_rows(rng)
        roots = rng.sample(range(len(rows)), rng.randint(1, min(3, len(rows))))
        edges = [(s,) + e for s, row in enumerate(rows) for e in row]
        oracle = sccs_by_reachability(edges, roots)
        got = list(algorithms._explore(roots[:], rows, edges=True))
        assert list(algorithms._explore(roots[:], rows.__getitem__,
                                        edges=True)) == got
        comp_of = {}
        for k, (members, colors, internal) in enumerate(got):
            assert oracle[members[0]] == set(members)
            assert len(members) == len(set(members))
            comp_of.update(dict.fromkeys(members, k))
            inside = [e for e in edges
                      if e[0] in members and e[1] in members]
            assert sorted(internal, key=lambda e: e[3]) == inside
            bits = 0
            for e in inside:
                bits |= e[2]
            assert colors == bits
        assert comp_of.keys() == oracle.keys()
        for src, dst, _, _ in edges:
            if src in comp_of:
                assert comp_of[src] >= comp_of[dst]


def test_explore_stops_at_an_accepting_merge():
    # with an Inf-only acceptance, a merge accepts iff some SCC's edges
    # carry all of its colors, and the edges read inside the merged part
    # are strongly connected and show exactly the merge's colors
    acc = parse_acceptance("Inf(0)&Inf(1)")
    rng = random.Random(5252)
    stops = 0
    for _ in range(400):
        rows = _random_rows(rng)
        sccs = list(algorithms._explore([0], rows, edges=True))
        found = [got for got in algorithms._explore([0], rows, acc, True)
                 if got[0] is None]
        assert bool(found) == any(internal and eval_acceptance(acc, colors)
                                  for _, colors, internal in sccs)
        if not found:
            continue
        stops += 1
        _, c, witness = found[0]
        bits = 0
        for e in witness:
            bits |= e[2]
        assert bits == c and eval_acceptance(acc, c)
        assert strongly_connected([(e[3], e[0], e[1], None)
                                   for e in witness])
    assert 50 <= stops <= 350


def test_every_scc_consumer_runs_explore(monkeypatch):
    # one SCC routine: a consumer that found components some other way
    # would not reach the spy
    calls = _spy(monkeypatch, algorithms, "_explore")
    monkeypatch.setattr(synthesis, "_explore", algorithms._explore)
    aut = build(["a"], 1, INF0, [(0, "t", 1, []), (1, "0", 0, [0])])
    game = make_game(build([], 2, make_class(parity("max", "odd", 2)),
                           [(0, "t", 1, [0]), (1, "t", 0, [1])]), [0, 1])
    consumers = {
        "SccInfo": lambda: algorithms.SccInfo(aut),
        "_subgraph_sccs": lambda: algorithms._subgraph_sccs(
            {1: (0, 0, 1)}, [1]),
        "is_empty": lambda: is_empty(aut),
        "accepting_run": lambda: accepting_run(aut),
        "product_is_empty": lambda: product_is_empty(aut, aut),
        "product_accepting_run": lambda: product_accepting_run(aut, aut),
        "solve_parity_max_odd": lambda: synthesis.solve_parity_max_odd(
            game),
    }
    for name, run in consumers.items():
        del calls[:]
        run()
        assert calls, name


def test_reachable_states_discovery_order():
    aut = build(["a"], 1, INF0,
                [(0, "t", 2, []), (0, "t", 1, []),
                 (2, "t", 3, []), (4, "t", 4, [])])
    assert reachable_states(aut) == [0, 2, 1, 3]
    aut2 = build(["a"], 1, INF0,
                 [(0, "t", 0, []), (1, "t", 2, []), (2, "t", 1, [])],
                 init=(1, 2))
    assert reachable_states(aut2) == [1, 2]


# --------------------------------------------------------------- flags

def test_universal_flag():
    det = build(["a"], 1, INF0, [(0, "0", 0, [0]), (0, "!0", 0, [])])
    assert is_universal(det)
    overlap = build(["a"], 1, INF0, [(0, "0", 0, [0]), (0, "t", 0, [])])
    assert not is_universal(overlap)
    grouped = build(["a"], 1, INF0, [(0, "t", (0, 1), []),
                                     (1, "t", 1, [0])])
    assert not is_universal(grouped)


def test_flag_dispatch(monkeypatch):
    from elaut import NO, YES, get_or_compute_flag
    aut = build([], 1, INF0, [(0, "t", 0, [0])])
    # every checked flag is computed once, then read back from the flag
    for name in ("universal", "complete", "weak", "very_weak",
                 "inherently_weak", "terminal"):
        assert get_or_compute_flag(aut, name) is True
        assert aut.get_flag(name) is YES
    aut.set_flag("weak", NO)
    assert get_or_compute_flag(aut, "weak") is False
    with pytest.raises(ValueError) as exc:
        get_or_compute_flag(aut, "stutter_invariant")
    assert str(exc.value) == \
        "no checker registered for flag 'stutter_invariant'"
    with pytest.raises(ValueError) as exc:
        get_or_compute_flag(aut, "shiny")
    assert str(exc.value) == "unknown flag 'shiny'"


def test_complete_flag():
    comp = build(["a"], 1, INF0, [(0, "0", 0, [0]), (0, "!0", 0, [])])
    assert is_complete(comp)
    gap = build(["a"], 1, INF0, [(0, "0", 0, [0])])
    assert not is_complete(gap)
    assert not is_complete(Automaton(["a"]))


def test_weak_flags():
    # {0,1} cycle mixes colors 0 and nothing: not weak
    mixed = build([], 2, parse_acceptance("Inf(0)&Inf(1)"),
                  [(0, "t", 1, [0]), (1, "t", 0, [])])
    assert not is_weak(mixed)
    uniform = build([], 1, INF0,
                    [(0, "t", 1, [0]), (1, "t", 0, [0]),
                     (1, "t", 2, []), (2, "t", 2, [])])
    assert is_weak(uniform)
    assert not is_very_weak(uniform)      # {0,1} is not a singleton
    vw = build([], 1, INF0, [(0, "t", 0, [0]), (0, "t", 1, []),
                             (1, "t", 1, [])])
    assert is_very_weak(vw)


def test_very_weak_and_terminal_share_one_decomposition(monkeypatch):
    # each builds one SccInfo, hands it to the weak check, and caches
    # the weak flag that check computes
    calls = _spy(monkeypatch, algorithms, "SccInfo")
    for check in (is_very_weak, is_terminal):
        aut = build([], 1, INF0, [(0, "t", 1, []), (1, "t", 1, [0])])
        del calls[:]
        assert check(aut)
        assert len(calls) == 1
        assert aut.get_flag("weak") is YES


def test_inherently_weak_flag():
    # one SCC holding both an accepting and a rejecting cycle
    both = build([], 1, INF0,
                 [(0, "t", 0, [0]), (0, "t", 1, []), (1, "t", 0, [])])
    assert not is_inherently_weak(both)
    # accepting and rejecting cycles in different SCCs is fine
    split = build([], 1, INF0,
                  [(0, "t", 0, []), (0, "t", 1, []), (1, "t", 1, [0])])
    assert is_inherently_weak(split)
    assert not is_weak(split) or True     # weak is irrelevant here
    alt = build([], 1, INF0, [(0, "t", (0, 1), []), (1, "t", 1, [])])
    with pytest.raises(ValueError):
        is_inherently_weak(alt)


def test_terminal_flag():
    term = build(["a"], 1, INF0,
                 [(0, "0", 1, []), (0, "!0", 0, []),
                  (1, "t", 1, [0])])
    assert is_terminal(term)
    # accepting component that can be left again is not terminal
    leaky = build(["a"], 1, INF0,
                  [(0, "t", 1, []), (1, "t", 1, [0]), (1, "0", 0, [])])
    assert not is_terminal(leaky)
    # incomplete accepting sink is not terminal either
    partial = build(["a"], 1, INF0,
                    [(0, "t", 1, []), (1, "0", 1, [0])])
    assert not is_terminal(partial)


def test_flags_from_hoa_properties():
    aut = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
properties: deterministic complete
--BODY--
State: 0
[0] 0 {0}
[!0] 0
--END--""")
    # the header claims are stored; the checkers would agree anyway
    assert is_universal(aut)
    assert is_complete(aut)


# ----------------------------------------------------------- emptiness

def test_emptiness_matches_edge_subset_enumeration():
    corpus = small_corpus(300)
    for aut in corpus:
        assert is_empty(aut) == empty_by_edge_subsets(aut)


def test_emptiness_edge_cases():
    assert is_empty(Automaton())
    dead = build([], 1, parse_acceptance("Fin(0)"),
                 [(0, "t", 0, [0])])
    assert is_empty(dead)
    free = build([], 1, parse_acceptance("Fin(0)"),
                 [(0, "t", 0, [0]), (0, "t", 0, [])])
    assert not is_empty(free)
    # t acceptance needs any cycle at all
    assert not is_empty(build([], 0, parse_acceptance("t"),
                              [(0, "t", 0, [])]))
    assert is_empty(build([], 0, parse_acceptance("t"),
                          [(0, "t", 1, [])]))


@pytest.fixture
def witnesses(monkeypatch):
    """The witness edge set of every explicit search for a run, as edge
    indices, in call order."""
    seen = []
    real = algorithms._witness

    def spy(aut, rows, run):
        got = real(aut, rows, run)
        if run and got is not None:
            table, ids = got
            seen.append([table[i][3] for i in ids])
        return got

    monkeypatch.setattr(algorithms, "_witness", spy)
    return seen


def _check_short_lasso(aut, run, witness):
    # the prefix is a shortest path, and the cycle stays in the witness
    # with at most (k + 1) * |witness states| edges for its k colors
    states = {aut.edges[i].src for i in witness}
    colors = set()
    for i in witness:
        colors.update(colors_of(aut.edges[i].acc))
    assert check_run(aut, run)
    assert len(run.prefix) < aut.num_states
    assert set(run.cycle) <= set(witness)
    assert len(run.cycle) <= (len(colors) + 1) * len(states)


def test_accepting_run_is_always_valid(witnesses):
    corpus = small_corpus(150, seed_base=5000)
    nonempty = 0
    for aut in corpus:
        run = accepting_run(aut)
        if run is None:
            assert is_empty(aut)
            continue
        nonempty += 1
        assert run.cycle
        _check_short_lasso(aut, run, witnesses[-1])
    assert nonempty > 30


def test_accepting_run_is_short_on_a_large_automaton(witnesses):
    aut = random_automaton(2000, 3, density=0.3, colors=4,
                           acceptance=parity("max", "odd", 4), seed=1)
    assert aut.num_edges == 6773
    run = accepting_run(aut)
    _check_short_lasso(aut, run, witnesses[-1])
    assert len(run.cycle) < aut.num_edges


def test_accepting_run_lassos_are_stable(witnesses):
    # sha256 prefix of the lassos over Rabin, Streett and parity automata
    # whose emptiness search splits on Fin colors; recorded when the
    # search began to stop at the first accepting merge
    h = hashlib.sha256()
    rng = random.Random(31337)
    for k in range(200):
        cls = [rabin(2), streett(2), parity("max", "odd", 4),
               parity("min", "even", 5)][k % 4]
        aut = random_automaton(states=rng.randint(20, 80), aps=2,
                               density=rng.uniform(0.2, 0.5), colors=5,
                               color_density=rng.uniform(0.2, 0.6),
                               acceptance=cls, seed=k)
        run = accepting_run(aut)
        if run is not None:
            _check_short_lasso(aut, run, witnesses[-1])
        h.update(repr(None if run is None
                      else (run.prefix, run.cycle)).encode())
    assert h.hexdigest()[:16] == "9e73ce397d1b4725"


def test_check_run_rejects_bad_lassos():
    aut = build([], 1, INF0,
                [(0, "t", 1, []), (1, "t", 0, [0]), (1, "t", 1, [])])
    run = accepting_run(aut)
    assert run is not None and check_run(aut, run)
    assert not check_run(aut, Lasso(run.prefix, []))
    # a cycle that never sees color 0 evaluates to rejecting
    assert not check_run(aut, Lasso([3], [3]))
    # disconnected prefix/cycle chains fail
    assert not check_run(aut, Lasso([2], [2]))


def test_accepting_run_self_check_survives_optimize(monkeypatch):
    # the final self-check is an explicit error, not an assert that -O drops
    aut = build([], 1, INF0, [(0, "t", 0, [0])])
    monkeypatch.setattr(algorithms, "check_run", lambda aut, run: False)
    with pytest.raises(RuntimeError):
        accepting_run(aut)


# --------------------------------------------------------- Fin removal

def _has_fin(formula):
    if isinstance(formula, Fin):
        return True
    kids = getattr(formula, "children", ())
    return any(_has_fin(k) for k in kids)


def test_remove_fin_output_shape_and_language():
    corpus = small_corpus(120, seed_base=9000)
    for k, aut in enumerate(corpus):
        out = remove_fin(aut)
        assert not _has_fin(out.acceptance)
        assert not out.has_universal_branches()
        assert empty_by_edge_subsets(out) == empty_by_edge_subsets(aut)
        if k < 30 and aut.aps:
            rng = random.Random(100 + k)
            for pre, cyc in random_words(rng, len(aut.aps), count=4):
                assert up_word_in(out, pre, cyc) == up_word_in(aut, pre, cyc)


def test_remove_fin_finless_input_is_copied():
    aut = build([], 2, parse_acceptance("Inf(0)&Inf(1)"),
                [(0, "t", 0, [0, 1])])
    out = remove_fin(aut)
    assert out is not aut
    assert print_hoa(out) == print_hoa(aut)


def test_remove_fin_unfolded_t_disjunct():
    # Or([Fin(0), AccTrue()]) keeps its Fin atom unfolded, yet accepts
    # every run: the output needs one copy without Fin or Inf colors
    aut = build(["a"], 1, Or([Fin(0), AccTrue()]),
                [(0, "0", 1, [0]), (1, "t", 0, []), (1, "!0", 1, [0])])
    out = remove_fin(aut)
    assert not _has_fin(out.acceptance)
    assert out.num_states == 4 and not is_empty(out)
    rng = random.Random(7)
    for pre, cyc in random_words(rng, 1, count=8):
        assert up_word_in(out, pre, cyc) == up_word_in(aut, pre, cyc)


def test_remove_fin_rejects_alternation():
    alt = build([], 1, parse_acceptance("Fin(0)"),
                [(0, "t", (0, 1), []), (1, "t", 1, [0])])
    with pytest.raises(ValueError):
        remove_fin(alt)


# ------------------------------------------------------------ products

def test_product_language_is_intersection():
    rng = random.Random(777)
    for k in range(40):
        a = random_automaton(states=rng.randint(1, 4), aps=["p0", "p1"],
                             density=0.4, colors=rng.randint(0, 2),
                             color_density=0.4, seed=7000 + k)
        b = random_automaton(states=rng.randint(1, 4), aps=["p0", "p1"],
                             density=0.4, colors=rng.randint(0, 2),
                             color_density=0.4, seed=8000 + k)
        prod = product(a, b)
        assert prod.aps == ["p0", "p1"]
        for pre, cyc in random_words(rng, 2, count=5):
            expect = up_word_in(a, pre, cyc) and up_word_in(b, pre, cyc)
            assert up_word_in(prod, pre, cyc) == expect
        assert is_empty(prod) == empty_by_edge_subsets(prod)


def _weak_by_scc(aut, seed):
    """The automaton with one color set per SCC (color 0 or none), known
    weak."""
    rng = random.Random(seed)
    info = scc_info(aut)
    marked = [rng.random() < 0.5 for _ in range(len(info.members))]
    for e in aut.edge_records():
        cid = info.scc_of[e.src]
        e.acc = 1 if cid >= 0 and marked[cid] else 0
    assert is_weak(aut)
    return aut


def test_product_matches_pairwise_construction():
    rng = random.Random(4242)
    gated = 0
    for k in range(60):
        a = random_automaton(states=rng.randint(1, 8),
                             aps=["p0", "p1", "p2"][:rng.randint(0, 3)],
                             density=rng.uniform(0.1, 0.5),
                             colors=rng.randint(1, 3), color_density=0.4,
                             seed=11000 + k)
        b = random_automaton(states=rng.randint(1, 5),
                             aps=["p1", "p3"][:rng.randint(0, 2)],
                             density=rng.uniform(0.2, 0.9),
                             colors=rng.randint(1, 3), color_density=0.4,
                             seed=12000 + k)
        if k % 3 == 0:
            # a weak operand against a Buchi one takes the gated path
            a = _weak_by_scc(a, k)
            b.set_acceptance(b.num_sets, INF0)
        if k % 2 == 0:
            a, b = b, a
        gated += algorithms._weak_product_side(a, b) \
            or algorithms._weak_product_side(b, a)
        assert print_hoa(product(a, b)) == print_hoa(product_by_pairs(a, b))
    assert gated == 20


def test_product_merges_ap_lists():
    a = build(["a"], 1, INF0, [(0, "0", 0, [0])])
    b = build(["b"], 1, INF0, [(0, "0", 0, [0])])
    prod = product(a, b)
    assert prod.aps == ["a", "b"]
    # only the a & b letter keeps both operands alive
    assert up_word_in(prod, [], [3])
    assert not up_word_in(prod, [], [1])
    assert not up_word_in(prod, [], [2])


def test_product_rejects_alternation():
    alt = build([], 1, INF0, [(0, "t", (0, 1), []), (1, "t", 1, [0])])
    plain = build([], 1, INF0, [(0, "t", 0, [0])])
    for run in (product, product_is_empty):
        for a, b in ((alt, plain), (plain, alt)):
            with pytest.raises(ValueError) as err:
                run(a, b)
            assert str(err.value) == "product needs nonalternating automata"


def test_every_construction_numbers_states_with_bfs_build(monkeypatch):
    # one numbering loop: a construction that numbered its states some
    # other way would not reach the spy
    calls = _spy(monkeypatch, algorithms, "_bfs_build")
    monkeypatch.setattr(synthesis, "_bfs_build", algorithms._bfs_build)
    aut = build(["a"], 1, INF0, [(0, "t", 1, []), (1, "0", 0, [0])])
    alt = build([], 1, INF0, [(0, "t", (0, 1), [0]), (1, "t", 1, [0])])
    game = build(["i", "o"], 0, parse_acceptance("t"),
                 [(0, "t", 1, []), (1, "1", 0, [])], players=[0, 1])
    game.set_named_prop("synthesis-outputs", [1])
    solve_game(game)
    constructions = {
        "product": lambda: product(aut, aut),
        "_dealternate_buchi": lambda: algorithms._dealternate_buchi(alt),
        "_dealternate_weak": lambda: algorithms._dealternate_weak(alt),
        "strategy_to_mealy": lambda: synthesis.strategy_to_mealy(game),
    }
    for name, run in constructions.items():
        del calls[:]
        run()
        assert calls, name


def test_product_is_bfs_build_over_the_searched_rows(monkeypatch):
    # one pair loop: product's edges are _bfs_build over the very row
    # function product_is_empty searches
    searched = _spy(monkeypatch, algorithms, "_accepting_cycle")
    rng = random.Random(5151)
    gated = 0
    for k in range(30):
        a = random_automaton(states=rng.randint(1, 6), aps=["p0", "p1"],
                             density=0.5, colors=rng.randint(0, 2),
                             seed=51000 + k)
        b = random_automaton(states=rng.randint(1, 4), aps=["p1", "p2"],
                             density=0.7, colors=rng.randint(1, 2),
                             seed=52000 + k)
        if k % 3 == 0:
            a = _weak_by_scc(a, k)
            b.set_acceptance(b.num_sets, INF0)
        gated += algorithms._weak_product_side(a, b)
        del searched[:]
        product_is_empty(a, b)
        row = searched[0][1]
        nb = b.num_states
        keys, edges = algorithms._bfs_build(a.init * nb + b.init, row)
        prod = product(a, b)
        assert prod.get_named_prop("product-states", list) == \
            [divmod(key, nb) for key in keys]
        assert list(zip(prod.edge_src[1:], prod.edge_dst[1:],
                        map(prod.store.bits_of, prod.edge_cond[1:]),
                        prod.edge_acc[1:])) == \
            [(src, dst, g, c) for src, dst, c, g in edges]
    assert gated == 10
    assert algorithms._bfs_build(None, row) == ([], [])


# ------------------------------------------- on-the-fly product emptiness

def _fin_heavy(colors, rng):
    """A random formula using each color once, four atoms in five Fin."""
    atoms = [Fin(c) if rng.random() < 0.8 else Inf(c) for c in range(colors)]
    while len(atoms) > 1:
        i = rng.randrange(len(atoms) - 1)
        pair = [atoms.pop(i), atoms.pop(i)]
        atoms.insert(i, f_and(pair) if rng.random() < 0.5 else f_or(pair))
    return atoms[0]


# acceptance kind -> a class or a formula over 1-4 colors, from an rng
ACCEPTANCE_KINDS = {
    "Buchi": lambda rng: AccClass("Buchi"),
    "generalized-Buchi": lambda rng: generalized_buchi(rng.randint(2, 3)),
    "co-Buchi": lambda rng: AccClass("co-Buchi"),
    "Rabin": lambda rng: rabin(rng.randint(1, 2)),
    "Streett": lambda rng: streett(rng.randint(1, 2)),
    "parity": lambda rng: parity(rng.choice(["min", "max"]),
                                 rng.choice(["even", "odd"]),
                                 rng.randint(1, 4)),
    "random": lambda rng: algorithms.random_acceptance(rng.randint(1, 4),
                                                       rng),
    "Fin-heavy": lambda rng: _fin_heavy(rng.randint(1, 4), rng),
}


def _operand(rng, kind, aps, seed):
    """A random automaton of 1-7 states whose acceptance is of the named
    kind, or is `kind` itself when that is a class or formula."""
    acc = ACCEPTANCE_KINDS[kind](rng) if isinstance(kind, str) else kind
    colors = class_colors(acc) if isinstance(acc, AccClass) \
        else used_colors(acc).bit_length()
    return random_automaton(states=rng.randint(1, 7), aps=aps,
                            density=rng.uniform(0.3, 0.9), colors=colors,
                            color_density=rng.uniform(0.1, 0.5),
                            acceptance=acc, seed=seed)


@pytest.mark.parametrize("kind", sorted(ACCEPTANCE_KINDS))
def test_product_is_empty_matches_explicit_product(kind):
    rng = random.Random(kind)
    verdicts = []
    for k in range(80):
        a = _operand(rng, kind, ["p0", "p1"], rng.randrange(1 << 30))
        b = _operand(rng, rng.choice(sorted(ACCEPTANCE_KINDS)),
                     ["p1", "p2"][:rng.randint(0, 2)], rng.randrange(1 << 30))
        if k % 2:
            a, b = b, a
        empty = is_empty(product(a, b))
        assert product_is_empty(a, b) == empty
        verdicts.append(empty)
    assert 20 <= sum(verdicts) <= 60


def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_product_is_empty_splits_closed_sccs(monkeypatch):
    # with Fin atoms, some products are found nonempty only by the Fin
    # split of a closed SCC.  A top-level Fin unit is cut during the
    # search and answers most Fin-heavy pairs at a merge, so the splits
    # are counted over generalized co-Buchi operands, which have none.
    found = []
    real = algorithms._search_scc

    def spy(*args):
        got = real(*args)
        found.append(got is not None)
        return got

    monkeypatch.setattr(algorithms, "_search_scc", spy)
    rng = random.Random(4141)
    for k in range(80):
        a = _operand(rng, "Fin-heavy", ["p0", "p1"], 25000 + k)
        b = _operand(rng, "Fin-heavy", ["p0", "p1"], 26000 + k)
        assert product_is_empty(a, b) == is_empty(product(a, b))
    split_only = 0
    for k in range(80):
        a = _operand(rng, generalized_co_buchi(rng.randint(2, 3)),
                     ["p0", "p1"], 27000 + k)
        b = _operand(rng, generalized_co_buchi(rng.randint(2, 3)),
                     ["p0", "p1"], 28000 + k)
        del found[:]
        nonempty = not product_is_empty(a, b)
        split_only += nonempty and any(found)
        assert nonempty == (not is_empty(product(a, b)))
    assert split_only >= 5


def test_product_is_empty_colorless_buchi_explores_nothing(monkeypatch):
    # Inf of a color no edge carries is false, and so is the product's
    # acceptance: "empty" before any operand state is flattened
    built = _spy(monkeypatch, algorithms._FlatRows, "__missing__")
    rng = random.Random(4545)
    kinds = sorted(ACCEPTANCE_KINDS)
    gated = 0
    for k in range(40):
        system = _operand(rng, kinds[k % len(kinds)], ["p0", "p1"],
                          29000 + k)
        if k % 4 == 0:
            system = _weak_by_scc(system, k)
        prop = random_automaton(states=rng.randint(1, 7), aps=["p1", "p2"],
                                density=1.0, colors=1, color_density=0.0,
                                acceptance=AccClass("Buchi"), seed=30000 + k)
        a, b = (prop, system) if k % 2 else (system, prop)
        gated += algorithms._weak_product_side(system, prop)
        assert product_is_empty(a, b)
        assert not built
        assert is_empty(product(a, b))
        del built[:]
    assert gated == 10


def test_product_is_empty_cuts_fin_units(monkeypatch):
    # co-Buchi and one-pair Rabin have Fin only as top-level units, so
    # with a Fin-free partner, or one of those two, the cut leaves no Fin
    # to split on
    calls = _spy(monkeypatch, algorithms, "_search_scc")
    rng = random.Random(4646)
    partners = ["Buchi", "generalized-Buchi", "co-Buchi", rabin(1)]
    nonempty = 0
    for k in range(80):
        a = _operand(rng, [AccClass("co-Buchi"), rabin(1)][k % 2],
                     ["p0", "p1"], 31000 + k)
        b = _operand(rng, partners[k // 2 % len(partners)], ["p1", "p2"],
                     32000 + k)
        if k % 3 == 0:
            a, b = b, a
        empty = product_is_empty(a, b)
        assert not calls
        assert empty == is_empty(product(a, b))
        del calls[:]
        nonempty += not empty
    assert 20 <= nonempty <= 70


def test_product_is_empty_with_a_weak_operand():
    # a weak operand against a Buchi one takes the gated path, on either
    # side
    rng = random.Random(4343)
    gated = nonempty = 0
    for k in range(60):
        a = _weak_by_scc(random_automaton(
            states=rng.randint(1, 8), aps=["p0", "p1"],
            density=rng.uniform(0.1, 0.5), colors=1, color_density=0.4,
            seed=21000 + k), k)
        b = _operand(rng, rng.choice(["Buchi", "generalized-Buchi"]),
                     ["p1"], 22000 + k)
        if k % 2:
            a, b = b, a
        gated += algorithms._weak_product_side(a, b) \
            or algorithms._weak_product_side(b, a)
        empty = is_empty(product(a, b))
        assert product_is_empty(a, b) == empty
        nonempty += not empty
    assert gated == 60 and 10 <= nonempty <= 50


def test_product_is_empty_edge_cases():
    rng = random.Random(99)
    none = Automaton(["p0"])
    for k in range(20):
        a = _operand(rng, "random", ["a"], 23000 + k)
        assert product_is_empty(a, none) and product_is_empty(none, a)
        assert is_empty(product(a, none))
        # disjoint AP lists: every pair of letters meets
        b = _operand(rng, "random", ["b", "c"], 24000 + k)
        assert product_is_empty(a, b) == is_empty(product(a, b))
    # t acceptance needs any cycle, which a self-loop is
    loop = build(["a"], 0, parse_acceptance("t"), [(0, "0", 0, [])])
    assert not product_is_empty(loop, loop)
    assert product_is_empty(loop, build(["a"], 0, parse_acceptance("t"),
                                        [(0, "!0", 0, [])]))


def test_product_is_empty_answers_the_bench_check_jobs(check_jobs):
    answers = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "answers", "check.json")
    with open(answers, encoding="utf-8") as fh:
        expected = json.load(fh)
    jobs = check_jobs(1)
    assert len(jobs) == len(expected) == 216
    for job in jobs:
        with open(job.meta["sys"], encoding="utf-8") as fh:
            a = parse_hoa(fh.read())
        with open(job.meta["prop"], encoding="utf-8") as fh:
            b = parse_hoa(fh.read())
        verdict = "empty" if product_is_empty(a, b) else "nonempty"
        assert verdict == expected[job.id], job.id


def test_product_is_empty_splits_no_bench_check_scc(check_jobs, monkeypatch):
    # every property of the check bench has a top-level Fin unit or no
    # Fin: its nonempty parity, co-Buchi and Rabin products are found at
    # a merge, and no closed SCC needs a Fin split
    calls = _spy(monkeypatch, algorithms, "_search_scc")
    found = {}
    for job in check_jobs(1):
        with open(job.meta["sys"], encoding="utf-8") as fh:
            a = parse_hoa(fh.read())
        with open(job.meta["prop"], encoding="utf-8") as fh:
            b = parse_hoa(fh.read())
        kind = str(b.acceptance)
        found[kind] = found.get(kind, 0) + (not product_is_empty(a, b))
    assert not calls
    assert found["Fin(0)"] and found["Fin(0)&Inf(1)"] \
        and found["(Fin(0)|Inf(1))&Fin(2)"]


# products of small operands against the brute-force oracle: operand
# kind -> (rng, seed) -> an automaton of 1-3 states over one AP
def _small(rng, seed, acc, colors):
    return random_automaton(states=rng.randint(1, 3), aps=["p0"],
                            density=0.6, colors=colors, color_density=0.4,
                            acceptance=acc, seed=seed)


def _absent_colors(rng, seed):
    # edges carry color 0 only; the acceptance names 0-2
    aut = _small(rng, seed, None, 1)
    aut.set_acceptance(3, _fin_heavy(3, rng))
    return aut


ORACLE_OPERANDS = {
    "colorless": lambda rng, seed: _small(rng, seed, TRUE, 0),
    "colorless Buchi": lambda rng, seed: random_automaton(
        states=rng.randint(1, 3), aps=["p0"], density=0.6, colors=1,
        color_density=0.0, acceptance=AccClass("Buchi"), seed=seed),
    "absent colors": _absent_colors,
    "Fin units": lambda rng, seed: _small(
        rng, seed, parse_acceptance("Fin(0)&Fin(1)&Inf(2)"), 3),
    "co-Buchi": lambda rng, seed: _small(rng, seed, AccClass("co-Buchi"), 1),
    "Rabin": lambda rng, seed: _small(rng, seed, rabin(1), 2),
    "parity": lambda rng, seed: _small(
        rng, seed, parity(rng.choice(["min", "max"]), "odd", 3), 3),
    "Buchi": lambda rng, seed: _small(rng, seed, AccClass("Buchi"), 1),
    "weak": lambda rng, seed: _weak_by_scc(
        _small(rng, seed, AccClass("Buchi"), 1), seed),
}


def test_product_emptiness_matches_edge_subset_enumeration():
    rng = random.Random(4747)
    kinds = sorted(ORACLE_OPERANDS)
    verdicts = []
    gated = 0
    for k, (ka, kb) in enumerate(itertools.product(kinds, repeat=2)):
        for rep in range(2):
            a = ORACLE_OPERANDS[ka](rng, 33000 + 2 * k + rep)
            b = ORACLE_OPERANDS[kb](rng, 34000 + 2 * k + rep)
            empty = empty_by_edge_subsets(product_by_pairs(a, b))
            assert product_is_empty(a, b) == empty, (ka, kb, rep)
            assert is_empty(product(a, b)) == empty, (ka, kb, rep)
            verdicts.append(empty)
            gated += algorithms._weak_product_side(a, b) \
                or algorithms._weak_product_side(b, a)
    assert 20 <= sum(verdicts) <= len(verdicts) - 20
    assert gated >= 4


# ---------------------------------------------- on-the-fly product runs

# operand kind -> rng -> its acceptance; _run_operand gives it to an
# automaton of 1-5 states over one or two APs
RUN_OPERANDS = {
    "Rabin": lambda rng: rabin(rng.randint(1, 2)),
    "Streett": lambda rng: streett(rng.randint(1, 2)),
    "parity": lambda rng: parity(rng.choice(["min", "max"]),
                                 rng.choice(["even", "odd"]),
                                 rng.randint(2, 4)),
    "co-Buchi": lambda rng: AccClass("co-Buchi"),
    "colorless": lambda rng: TRUE,
    "weak": lambda rng: AccClass("Buchi"),
    "Buchi": lambda rng: AccClass("Buchi"),
}


def _run_operand(rng, kind, seed):
    acc = RUN_OPERANDS[kind](rng)
    aut = random_automaton(
        states=rng.randint(1, 5), aps=rng.choice([["p0"], ["p0", "p1"],
                                                   ["p1"]]),
        density=rng.uniform(0.3, 0.7),
        colors=class_colors(acc) if isinstance(acc, AccClass) else 0,
        color_density=rng.uniform(0.2, 0.5), acceptance=acc, seed=seed)
    return _weak_by_scc(aut, seed) if kind == "weak" else aut


def _check_product_lasso(a, b, lasso, run):
    """Judge a lasso of product(a, b) against product_by_pairs alone:
    each step is an edge of the oracle product between the same pairs,
    with the same guard and colors, from the initial pair; the chain
    closes; the cycle's colors satisfy the product's acceptance."""
    oracle = product_by_pairs(a, b)
    assert lasso.aps == oracle.aps
    pairs = lasso.get_named_prop("product-states", list)
    index = {pair: k for k, pair in enumerate(
        oracle.get_named_prop("product-states", list))}
    steps = set()
    for e in oracle.edge_records():
        steps.add((e.src, e.dst, oracle.store.bits_of(e.cond), e.acc))
    at = 0
    assert pairs[0] == (a.init, b.init)
    for i in run.prefix + run.cycle:
        e = lasso.edges[i]
        assert e.src == at
        assert (index[pairs[e.src]], index[pairs[e.dst]],
                lasso.store.bits_of(e.cond), e.acc) in steps
        at = e.dst
    assert at == lasso.edges[run.cycle[0]].src
    seen = 0
    for i in run.cycle:
        seen |= lasso.edges[i].acc
    assert eval_acceptance(oracle.acceptance, seen)
    # the lasso numbers its states in the order it first visits them
    order = [0] + [lasso.edges[i].dst for i in run.prefix + run.cycle]
    assert list(dict.fromkeys(order)) == list(range(lasso.num_states))
    assert len(pairs) == lasso.num_states


def test_product_accepting_run_matches_explicit_product():
    rng = random.Random(4848)
    kinds = sorted(RUN_OPERANDS)
    runs = gated = 0
    for k, (ka, kb) in enumerate(itertools.product(kinds, repeat=2)):
        for rep in range(4):
            a = _run_operand(rng, ka, 35000 + 4 * k + rep)
            b = _run_operand(rng, kb, 36000 + 4 * k + rep)
            got = product_accepting_run(a, b)
            assert (got is None) == is_empty(product(a, b)), (ka, kb, rep)
            if got is not None:
                _check_product_lasso(a, b, *got)
                runs += 1
            gated += algorithms._weak_product_side(a, b) \
                or algorithms._weak_product_side(b, a)
    assert len(kinds) ** 2 * 4 >= 150
    assert 40 <= runs <= len(kinds) ** 2 * 4 - 40
    assert gated >= 8


def test_product_accepting_run_on_a_fin_split(monkeypatch):
    # generalized co-Buchi products have no Fin unit: some witnesses
    # come from the Fin split of a closed SCC.  Only the splits made
    # inside product_accepting_run count, not those of the explicit
    # check after it.
    calls = []
    real = algorithms._search_scc

    def spy(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(algorithms, "_search_scc", spy)
    rng = random.Random(4949)
    split = 0
    for k in range(100):
        a = _operand(rng, generalized_co_buchi(rng.randint(2, 3)),
                     ["p0", "p1"], 37000 + k)
        b = _operand(rng, generalized_co_buchi(rng.randint(2, 3)),
                     ["p0", "p1"], 38000 + k)
        del calls[:]
        got = product_accepting_run(a, b)
        found = any(c is not None for c in calls)
        assert (got is None) == is_empty(product(a, b))
        if got is not None:
            _check_product_lasso(a, b, *got)
            split += found
    assert split >= 5


def test_product_accepting_run_flattens_few_system_states(monkeypatch):
    system = random_automaton(2000, ["a", "b"], density=0.3, seed=3)
    prop = random_automaton(4, ["b", "c"], density=1.0, colors=1,
                            color_density=0.3, acceptance=AccClass("Buchi"),
                            seed=4)
    size = product(system, prop).num_states
    built = _spy(monkeypatch, algorithms._FlatRows, "__missing__")
    lasso, run = product_accepting_run(system, prop)
    assert check_run(lasso, run)
    flattened = sum(rows.aut is system for rows, _ in built)
    assert 0 < flattened < system.num_states < size


def test_product_accepting_run_edge_cases(monkeypatch):
    none = Automaton(["p0"])
    loop = build(["a"], 0, parse_acceptance("t"), [(0, "0", 0, [])])
    assert product_accepting_run(loop, none) is None
    assert product_accepting_run(none, loop) is None
    lasso, run = product_accepting_run(loop, loop)
    assert (run.prefix, run.cycle) == ([], [1])
    assert lasso.get_named_prop("product-states", list) == [(0, 0)]
    assert lasso.store.bits_of(lasso.edges[1].cond) == 0b10
    # parallel loops: the lasso's edge takes the guard of the colored one
    buchi = build(["a"], 1, INF0, [(0, "!0", 0, []), (0, "0", 0, [0])])
    anything = build([], 0, TRUE, [(0, "t", 0, [])])
    lasso, run = product_accepting_run(buchi, anything)
    _check_product_lasso(buchi, anything, lasso, run)
    alt = build(["a"], 1, INF0, [(0, "t", (0, 1), [0]), (1, "t", 1, [0])])
    with pytest.raises(ValueError):
        product_accepting_run(loop, alt)
    # the lasso is checked before it is returned
    monkeypatch.setattr(algorithms, "check_run", lambda aut, run: False)
    with pytest.raises(RuntimeError):
        product_accepting_run(loop, loop)


def test_repeated_fin_units_are_cut_once():
    # Fin(0) twice in the top conjunction is one unit: the accepting
    # loop avoids color 0 and sees color 1
    aut = build([], 2, parse_acceptance("Fin(0)&Fin(0)&Inf(1)"),
                [(0, "t", 0, [1]), (0, "t", 0, [0])])
    assert not is_empty(aut)
    assert check_run(aut, accepting_run(aut))
    assert algorithms._restrict(aut.acceptance, 0b11) == (Inf(1), 0b01)


# -------------------------------------------------- alternation removal

def test_dealternation_bound_and_membership():
    mismatches = 0
    checked = 0
    for seed in range(80):
        aut = random_alt_buchi(seed)
        n = aut.num_states
        out = remove_alternation(aut)
        assert not out.has_universal_branches()
        assert out.num_states <= 3 ** n
        rng = random.Random(10_000 + seed)
        for pre, cyc in random_words(rng, len(aut.aps), count=5):
            checked += 1
            if alt_buchi_word_in(aut, pre, cyc) != \
                    word_in_gen_buchi(out, pre, cyc):
                mismatches += 1
    assert checked >= 400
    assert mismatches == 0


def test_membership_oracles_agree_on_plain_buchi():
    # the subset-enumeration route and the counter-unroll route are
    # independent; they must say the same thing on small automata
    rng = random.Random(424242)
    for k in range(60):
        aut = random_automaton(states=rng.randint(1, 5), aps=1,
                               density=0.4, colors=1,
                               acceptance=INF0, seed=60_000 + k)
        for pre, cyc in random_words(rng, 1, count=4):
            assert up_word_in(aut, pre, cyc) == \
                word_in_gen_buchi(aut, pre, cyc)


def test_dealternation_macro_names():
    alt = build(["a"], 1, INF0,
                [(0, "t", (1, 2), []),
                 (1, "0", 1, [0]), (1, "!0", 1, []),
                 (2, "0", 2, [0]), (2, "!0", 2, [])])
    out = remove_alternation(alt)
    names = out.get_named_prop("state-names", list)
    assert names[0].startswith("{0}|")
    assert "{1,2}|{1,2}" in names


def test_weak_dealternation_subsets():
    # forward-or-self edges keep every component a singleton; per-state
    # uniform colors make the automaton weak
    mismatches = 0
    for seed in range(40):
        rng = random.Random(20_000 + seed)
        n = rng.randint(2, 5)
        aut = Automaton(["p0"])
        aut.new_states(n)
        acc_of = [rng.random() < 0.5 for _ in range(n)]
        has_group = False
        for s in range(n):
            for _ in range(rng.randint(1, 2)):
                bits = rng.randrange(1, 4)
                cols = [0] if acc_of[s] else []
                if rng.random() < 0.4 and s + 1 < n:
                    members = sorted(rng.sample(range(s, n),
                                                rng.randint(2, min(3, n - s))))
                    aut.new_edge(s, aut.new_univ_dest_group(members),
                                 aut.store.intern(bits), cols)
                    has_group = True
                else:
                    aut.new_edge(s, rng.randrange(s, n),
                                 aut.store.intern(bits), cols)
        aut.set_acceptance(1, INF0)
        aut.set_init(0)
        if not has_group:
            continue
        assert is_weak(aut)
        out = remove_alternation(aut)
        assert not out.has_universal_branches()
        assert out.num_states <= 2 ** n
        names = out.get_named_prop("state-names", list)
        assert all("|" not in nm for nm in names)
        for pre, cyc in random_words(rng, 1, count=5):
            if alt_buchi_word_in(aut, pre, cyc) != \
                    word_in_gen_buchi(out, pre, cyc):
                mismatches += 1
    assert mismatches == 0


def test_weak_dealternation_generalized_buchi():
    # one branch checks that p0 holds forever, the other that p1 does;
    # all self-loop edges of a state carry the same colors, so every
    # component is uniform and the automaton is weak without having
    # plain Inf(0) acceptance
    alt = build(["p0", "p1"], 2, parse_acceptance("Inf(0)&Inf(1)"),
                [(0, "t", (1, 2), []),
                 (1, "0", 1, [0, 1]),
                 (2, "1", 2, [0, 1])])
    assert is_weak(alt)
    out = remove_alternation(alt)
    assert not out.has_universal_branches()
    assert recognize(out.acceptance) is not None
    assert not is_empty(out)
    # after the free first letter, both p0 and p1 must hold at every step
    assert word_in_gen_buchi(out, [0], [3])
    assert word_in_gen_buchi(out, [], [3])
    assert not word_in_gen_buchi(out, [3], [1])
    assert not word_in_gen_buchi(out, [0], [2])


def test_dealternation_dispatch():
    plain = build([], 1, INF0, [(0, "t", 0, [0])])
    copy = remove_alternation(plain)
    assert copy is not plain
    assert print_hoa(copy) == print_hoa(plain)

    unsupported = build([], 2, parse_acceptance("Fin(0)&Inf(1)"),
                        [(0, "t", (0, 1), [1]), (1, "t", 0, [0, 1]),
                         (1, "t", 1, [0])])
    with pytest.raises(ValueError):
        remove_alternation(unsupported)

    lying = build([], 2, parse_acceptance("Inf(0)&Inf(1)"),
                  [(0, "t", (0, 1), [0]), (1, "t", 0, [1]),
                   (1, "t", 1, [])])
    lying.set_flag("weak", True)
    with pytest.raises(ValueError, match="SCC-uniform"):
        remove_alternation(lying)


def test_dealternation_detects_weakness_past_inf0():
    # weak, not yet known to be, and under Fin(0): the weakness check
    # picks the subset construction
    alt = parse_hoa('HOA: v1\nStates: 3\nStart: 0\nAP: 1 "a"\n'
                    'Acceptance: 1 Fin(0)\n--BODY--\nState: 0\n[0] 1&2\n'
                    '[!0] 0 {0}\nState: 1\n[t] 1\nState: 2\n[0] 2 {0}\n'
                    '[!0] 2 {0}\n--END--\n')
    assert alt.get_flag("weak") is MAYBE
    assert print_hoa(remove_alternation(alt)) == (
        'HOA: v1\nStates: 2\nStart: 0\nAP: 1 "a"\n'
        'acc-name: generalized-Buchi 2\nAcceptance: 2 Inf(0)&Inf(1)\n'
        'properties: trans-labels explicit-labels\n--BODY--\n'
        'State: 0 "{0}"\n[0] 1 {0 1}\n[!0] 0 {1}\n'
        'State: 1 "{1,2}"\n[t] 1 {0}\n--END--\n')
    assert alt.get_flag("weak") is YES


def _random_alt(seed, weak):
    """A small alternating automaton under Inf(0) with states that have
    no out-edges, false-guard edges and sometimes a universal start.
    Weak ones only branch forward of their block of states and color a
    block's edges alike, so components may hold several states."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    aut = Automaton(["p0", "p1"])
    aut.new_states(n)
    block = [0] * n
    for s in range(1, n):
        block[s] = block[s - 1] if rng.random() < 0.5 else s
    accepting = {b for b in block if rng.random() < 0.5}
    for s in range(n):
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            lo = block[s] if weak else 0
            members = [rng.randrange(lo, n) for _ in range(rng.randint(1, 3))]
            if weak:
                colors = [0] if block[s] in accepting else []
            else:
                colors = [0] if rng.random() < 0.4 else []
            cond = aut.store.intern(rng.randrange(16) if rng.random() < 0.2
                                    else rng.randrange(1, 16))
            aut.new_edge(s, aut.new_univ_dest_group(members), cond, colors)
    aut.set_acceptance(1, INF0)
    aut.set_init(aut.new_univ_dest_group(rng.sample(range(n), 2))
                 if rng.random() < 0.3 else 0)
    return aut


def _wide_alt():
    """A weak alternating automaton of 70 states whose macro states hold
    states 64 and up: pairs {4k, 4k+1} are components, the other states
    components of their own, and every third block of four accepts."""
    n = 70
    aut = Automaton(["p0", "p1"])
    aut.new_states(n)
    p0, not_p0, p1 = (aut.store.lit(0), aut.store.lit(0, False),
                      aut.store.lit(1))
    for s in range(n):
        colors = [0] if s // 4 % 3 == 0 else []
        nxt = [min(s + 1, n - 1)] + ([66] if s % 7 == 3 else [])
        aut.new_edge(s, aut.new_univ_dest_group(nxt), p0, colors)
        aut.new_edge(s, min(s + 2, n - 1), not_p0, colors)
        if s % 4 == 1:
            aut.new_edge(s, s - 1, p1, colors)
    aut.set_acceptance(1, INF0)
    aut.set_init(aut.new_univ_dest_group([0, 64]))
    return aut


def _reference_steps(aut, weak):
    """The start, step and name of the breakpoint construction (weak
    False) or the weak one, over sorted state tuples, as the docstrings
    of _dealternate_buchi and _dealternate_weak describe them.

    step(S, O, combo) gives the successor's S and O and the macro edge's
    colors; a combo holds, per state of S, its chosen edge as (guard
    bits, destination states, color bits)."""
    s0 = tuple(sorted(set(aut.univ_dests(aut.init))))
    if not weak:
        def step(S, O, combo):
            succ, owing = set(), set()
            for s, (_, dests, colors) in zip(S, combo):
                succ.update(dests)
                if s in O and not colors & 1:     # s still owes a visit
                    owing.update(dests)
            s_next = tuple(sorted(succ))
            if owing:
                return s_next, tuple(sorted(owing)), 0
            return s_next, s_next, 1              # breakpoint
        return (s0, s0), step, lambda S, O: "{%s}|{%s}" % (
            ",".join(map(str, S)), ",".join(map(str, O)))

    # components by mutual reachability; under Inf(0) with colors uniform
    # on components, one is rejecting iff it has an inner edge and its
    # inner edges lack color 0
    inner = [(s, d, e.acc) for s in range(aut.num_states)
             for e in aut.out(s) for d in aut.univ_dests(e.dst)]
    comp = sccs_by_reachability(inner, list(aut.univ_dests(aut.init)))
    colors_in = {}
    for s, d, acc in inner:
        if s in comp and d in comp[s]:
            colors_in[comp[s]] = colors_in.get(comp[s], 0) | acc
    rejecting = {c for c, acc in colors_in.items() if not acc & 1}
    multi = {s for s, c in comp.items() if c in rejecting and len(c) > 1}
    singles = sorted(s for s, c in comp.items()
                     if c in rejecting and len(c) == 1)
    first = 1 if multi else 0

    def step(S, O, combo):
        chosen = {s: dests for s, (_, dests, _) in zip(S, combo)}
        succ = {d for dests in chosen.values() for d in dests}
        owing = {d for s in S if s in O for d in chosen[s]
                 if comp[d] == comp[s]}
        s_next = tuple(sorted(succ))
        colors = 0
        if not multi:
            o_next = ()
        elif owing:
            o_next = tuple(sorted(owing))
        else:                                     # breakpoint
            colors = 1
            o_next = tuple(s for s in s_next if s in multi)
        for k, q in enumerate(singles):           # q absent or leaving
            if q not in chosen.get(q, ()):
                colors |= 1 << (first + k)
        return s_next, o_next, colors

    def name(S, O):
        members = ",".join(map(str, S))
        return "{%s}|{%s}" % (members, ",".join(map(str, O))) if multi \
            else "{%s}" % members
    return (s0, tuple(s for s in s0 if s in multi)), step, name


def _reference_macro(aut, start, step, stats):
    """Per macro state, its ordered merged map as (successor, guard
    bits, colors) rows, by brute force over itertools.product, and the
    macro states in the order they were numbered."""
    store = aut.store
    rows = [[(store.bits_of(e.cond), tuple(aut.univ_dests(e.dst)),
              e.acc) for e in aut.out(s)]
            for s in range(aut.num_states)]
    index = {start: 0}
    keys = [start]
    table = []
    for S, O in keys:
        merged = {}
        for combo in itertools.product(*[rows[s] for s in S]):
            meets = [store.full]
            for entry in combo:
                meets.append(meets[-1] & entry[0])
            if not meets[-1]:
                stats["empty prefix"] += 0 in meets[:-1]
                continue
            key = step(S, O, combo)
            merged[key] = merged.get(key, 0) | meets[-1]
        table.append([])
        for (s_next, o_next, colors), g in merged.items():
            key = (s_next, o_next)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            table[-1].append((index[key], g, colors))
    return table, keys


def test_pruned_macro_product_matches_brute_force(monkeypatch):
    # both constructions against reference steps over sorted tuples and
    # itertools.product: edges, guards, colors and state names
    calls = []
    explore = algorithms._explore_macro

    def record(aut, start, *rest):
        calls.append(rest)
        return explore(aut, start, *rest)
    monkeypatch.setattr(algorithms, "_explore_macro", record)

    def table_of(out):
        store = out.store
        return [[(e.dst, store.bits_of(e.cond), e.acc)
                 for e in out.out(s)] for s in range(out.num_states)]

    def check(aut, weak_macro):
        del calls[:]
        out = (algorithms._dealternate_weak if weak_macro
               else algorithms._dealternate_buchi)(aut)
        start, step, name = _reference_steps(aut, weak_macro)
        table, keys = _reference_macro(aut, start, step, stats)
        assert table_of(out) == table
        names = out.get_named_prop("state-names", list)
        assert names == [name(S, O) for S, O in keys]
        stats["weak breakpoints"] += weak_macro and "|" in names[0]
        rest, = calls
        return step, rest

    stats = {"empty prefix": 0, "runs": 0, "no edges": 0,
             "weak breakpoints": 0}
    for seed in range(60):
        weak = seed % 2 == 0
        aut = _random_alt(30_000 + seed, weak)
        stats["no edges"] += any(not list(aut.out(s))
                                 for s in range(aut.num_states))
        for weak_macro in ((False, True) if weak else (False,)):
            step, rest = check(aut, weak_macro)
            # a start with S empty: one choice, of no edges, under t
            empty = explore(aut, (0, 0), *rest)
            assert table_of(empty) == _reference_macro(aut, ((), ()), step,
                                                       stats)[0]
            assert [g for _, g, _ in table_of(empty)[0]] == [aut.store.full]
            stats["runs"] += 1
    assert stats["runs"] == 90
    assert stats["empty prefix"] > 0 and stats["no edges"] > 0
    assert stats["weak breakpoints"] > 0
    # masks wider than a machine word
    check(_wide_alt(), False)
    check(_wide_alt(), True)


def test_dealternation_outputs_are_stable():
    # sha256 prefixes of the printed macro automata, recorded before the
    # macro states became bitmasks; the wide automaton's masks are wider
    # than a machine word
    digests = {}
    for label, construct in (("buchi", algorithms._dealternate_buchi),
                             ("weak", algorithms._dealternate_weak)):
        h = hashlib.sha256()
        for seed in range(200):
            weak = seed % 2 == 0
            if weak or label == "buchi":
                h.update(print_hoa(construct(_random_alt(40_000 + seed,
                                                         weak))).encode())
        digests[label] = h.hexdigest()[:16]
        wide = construct(_wide_alt())
        assert wide.num_states > 2000
        assert wide.get_named_prop("state-names", list)[0].startswith(
            "{0,64}|")
        digests["wide " + label] = hashlib.sha256(
            print_hoa(wide).encode()).hexdigest()[:16]
    assert digests == {"buchi": "e6d03ad07e828f78",
                       "weak": "af99a05e4fe00b95",
                       "wide buchi": "e79b75674f8b5426",
                       "wide weak": "c8782fb741d1fef5"}


# ----------------------------------------------------- random automata

def test_random_automaton_is_reproducible():
    a = random_automaton(5, 2, density=0.4, colors=3, seed=11)
    b = random_automaton(5, 2, density=0.4, colors=3, seed=11)
    c = random_automaton(5, 2, density=0.4, colors=3, seed=12)
    assert print_hoa(a) == print_hoa(b)
    assert print_hoa(a) != print_hoa(c)


def test_random_automaton_shape():
    aut = random_automaton(6, 2, density=1.0, colors=2, seed=3)
    assert is_complete(aut)
    assert len(reachable_states(aut)) == 6
    assert aut.num_sets == 2
    for e in aut.edge_records():
        assert e.acc < 4
    sparse = random_automaton(6, 1, density=0.0, colors=0, seed=4)
    # spanning edges keep everything reachable even at density zero
    assert len(reachable_states(sparse)) == 6


def test_random_automaton_explicit_acceptance():
    aut = random_automaton(3, 1, colors=2,
                           acceptance=parse_acceptance("Fin(0)|Inf(1)"),
                           seed=9)
    assert str(aut.acceptance) == "Fin(0)|Inf(1)"
    cls = random_automaton(3, 1, colors=1, acceptance=AccClass("Buchi"),
                           seed=9)
    assert str(cls.acceptance) == "Inf(0)"
    with pytest.raises(ValueError):
        random_automaton(0, 1)


@pytest.mark.parametrize("colors, aps", [(-1, 2), (0, -3)])
def test_random_automaton_rejects_negative_counts(colors, aps):
    with pytest.raises(ValueError, match="nonnegative"):
        random_automaton(2, aps, colors=colors)


@pytest.mark.parametrize("bad", [float("nan"), 2, -1, -0.001, 1.5])
def test_random_automaton_rejects_densities_outside_0_1(bad):
    with pytest.raises(ValueError, match="density"):
        random_automaton(2, 1, density=bad)
    with pytest.raises(ValueError, match="color density"):
        random_automaton(2, 1, colors=1, color_density=bad)


def test_acceptance_must_be_a_formula():
    # refused when set, not later when accepting_run evaluates it
    with pytest.raises(TypeError):
        random_automaton(50, 2, colors=4, acceptance="parity max odd 4",
                         seed=1)
    aut = Automaton()
    for bad in ("Inf(0)", None, 0, [Fin(0)]):
        with pytest.raises(TypeError):
            aut.set_acceptance(1, bad)
    with pytest.raises(TypeError):
        aut.set_acceptance(1, And((Fin(0), "Inf(0)")))
    assert aut.acceptance == parse_acceptance("t")


# ------------------------------------------------------ cyclic garbage

def test_pipelines_leave_no_cyclic_garbage():
    # reference cycles (say, a recursive closure over an algorithm's
    # tables) keep memory alive until the cycle collector happens to run
    game = random_parity_game(10, max_states=12, ncolors=4)[0]
    a = random_automaton(8, 2, density=0.5, colors=2,
                         acceptance=AccClass("Buchi"), seed=4)
    b = random_automaton(6, 2, density=0.5, colors=2,
                         acceptance=parity("max", "odd", 2), seed=5)
    c = random_automaton(6, 1, density=0.5, colors=1,
                         acceptance=AccClass("co-Buchi"), seed=6)
    pipelines = [
        lambda: solve_game(game),
        lambda: (is_empty(product(a, b)), accepting_run(product(a, b))),
        lambda: (product_is_empty(a, b), product_accepting_run(a, b)),
        lambda: change_parity(remove_fin(c), "max odd"),
    ]
    gc.collect()
    gc.disable()
    try:
        for run in pipelines:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()
