"""Automaton storage: edge lists, destination groups, flags, properties."""

import ast
import hashlib
import pathlib
import random

import pytest

from elaut import graph
from elaut.acceptance import (Inf, TRUE, change_parity, colors_of,
                              make_class, parity)
from elaut.algorithms import (get_or_compute_flag, is_empty, is_weak,
                              product, product_accepting_run,
                              random_acceptance, random_automaton,
                              remove_alternation, remove_fin)
from elaut.graph import (Automaton, EDGE_COLUMNS, FLAG_NAMES, MAYBE, NO,
                         Trivalent, YES, trim)
from elaut.guards import FALSE_GUARD, GuardStore, TRUE_GUARD
from elaut.hoa import parse_hoa, print_dot, print_hoa
from elaut.synthesis import (MealyMachine, colorize_parity, make_game,
                             mealy_to_automaton)

from oracle_helpers import (random_alt_buchi, reorder_out_lists,
                            trim_by_rebuild)


def fresh(nstates=0, naps=1):
    aut = Automaton(["p%d" % i for i in range(naps)])
    for _ in range(nstates):
        aut.new_state()
    return aut


def test_edge_zero_reserved():
    aut = fresh(2)
    assert aut.edges[0] is None
    i = aut.new_edge(0, 1, TRUE_GUARD)
    assert i == 1


def test_out_edges_keep_insertion_order():
    aut = fresh(3)
    made = [aut.new_edge(0, d, TRUE_GUARD) for d in (1, 2, 0, 2)]
    assert list(aut.out_indices(0)) == made
    assert [e.dst for e in aut.out(0)] == [1, 2, 0, 2]
    assert list(aut.out_indices(1)) == []
    # interleaved sources must not disturb each other's lists
    aut2 = fresh(3)
    a1 = aut2.new_edge(0, 1, TRUE_GUARD)
    b1 = aut2.new_edge(1, 2, TRUE_GUARD)
    a2 = aut2.new_edge(0, 2, TRUE_GUARD)
    b2 = aut2.new_edge(1, 0, TRUE_GUARD)
    assert list(aut2.out_indices(0)) == [a1, a2]
    assert list(aut2.out_indices(1)) == [b1, b2]


def test_random_edge_insertion_order():
    rng = random.Random(31337)
    for _ in range(30):
        n = rng.randrange(1, 8)
        aut = fresh(n)
        per_state = {s: [] for s in range(n)}
        for _ in range(rng.randrange(1, 40)):
            s = rng.randrange(n)
            d = rng.randrange(n)
            per_state[s].append(aut.new_edge(s, d, TRUE_GUARD))
        for s in range(n):
            assert list(aut.out_indices(s)) == per_state[s]
        aut.check()


def test_new_state_count():
    aut = fresh()
    assert aut.num_states == 0
    s0 = aut.new_state()
    s1 = aut.new_state()
    assert (s0, s1) == (0, 1)
    assert aut.num_states == 2


def test_universal_groups():
    aut = fresh(4)
    g = aut.new_univ_dest_group([1, 2, 3])
    assert g < 0
    i = aut.new_edge(0, g, TRUE_GUARD)
    e = aut.edges[i]
    assert e.dst == g
    assert list(aut.group_members(g)) == [1, 2, 3]
    assert list(aut.univ_dests(g)) == [1, 2, 3]
    # plain destinations iterate as themselves
    assert list(aut.univ_dests(2)) == [2]
    # duplicate members drop, first occurrence wins
    g2 = aut.new_univ_dest_group([2, 1, 2])
    assert list(aut.group_members(g2)) == [2, 1]
    # each call appends: offset advances by 1 + previous member count
    assert g2 == ~4
    # an equal ordered member list names the group already interned
    assert aut.new_univ_dest_group([2, 1]) == g2
    assert aut.new_univ_dest_group([1, 2, 3, 1]) == g
    assert aut.new_univ_dest_group([1, 2]) == ~7
    assert len(aut.dests) == 10
    # singleton groups collapse to the plain state
    assert aut.new_univ_dest_group([2]) == 2
    with pytest.raises(ValueError):
        aut.new_univ_dest_group([])


def test_universal_init():
    aut = fresh(3)
    g = aut.new_univ_dest_group([0, 2])
    aut.set_init(g)
    assert aut.init == g
    assert list(aut.univ_dests(aut.init)) == [0, 2]
    assert aut.has_universal_branches()


def test_edge_colors_width():
    # colors have no width: any color fits, as a list or as bits
    aut = fresh(2)
    made = [aut.new_edge(0, 1, TRUE_GUARD, [c]) for c in (31, 32, 63, 1023)]
    assert [aut.edges[i].acc for i in made] == [
        1 << 31, 1 << 32, 1 << 63, 1 << 1023]
    j = aut.new_edge(1, 0, TRUE_GUARD, 1 << 64 | 1)
    assert colors_of(aut.edges[j].acc) == [0, 64]
    assert aut.check()


def test_acceptance_attachment():
    aut = fresh(1)
    aut.set_acceptance(1, Inf(0))
    assert aut.num_sets == 1
    assert aut.acceptance == Inf(0)
    with pytest.raises(ValueError):
        aut.set_acceptance(1, Inf(5))  # color out of declared range


def test_named_props_typed():
    aut = fresh(2)
    aut.set_named_prop("state-player", [0, 1])
    assert aut.get_named_prop("state-player", list) == [0, 1]
    assert aut.get_named_prop("missing", list) is None
    with pytest.raises(TypeError):
        aut.get_named_prop("state-player", dict)


def test_flags_trivalent_and_reset_on_mutation():
    aut = fresh(2)
    for name in FLAG_NAMES:
        assert aut.get_flag(name) is MAYBE
    aut.set_flag("weak", YES)
    aut.set_flag("complete", NO)
    assert aut.get_flag("weak") is YES
    assert aut.get_flag("complete") is NO
    aut.new_edge(0, 1, TRUE_GUARD)
    # any structural change drops every cached answer
    assert aut.get_flag("weak") is MAYBE
    assert aut.get_flag("complete") is MAYBE
    aut.set_flag("weak", YES)
    aut.new_state()
    assert aut.get_flag("weak") is MAYBE


def test_trivalent_of():
    assert Trivalent.of(True) is YES
    assert Trivalent.of(False) is NO
    assert Trivalent.of(MAYBE) is MAYBE
    assert Trivalent.of(YES) is YES


def test_unknown_flag_rejected():
    aut = fresh(1)
    with pytest.raises(ValueError):
        aut.set_flag("shiny", YES)


def test_clone_shares_store():
    aut = fresh(2)
    aut.new_edge(0, 1, aut.store.lit(0))
    aut.set_acceptance(1, Inf(0))
    aut.set_init(0)
    copy = aut.clone()
    assert copy.store is aut.store
    assert copy.num_states == aut.num_states
    assert copy.init == aut.init
    assert copy.acceptance == aut.acceptance
    copy.new_edge(1, 0, TRUE_GUARD)
    assert len(aut.edges) == 2 and len(copy.edges) == 3


def test_pack_edges_layout():
    # one edge is five 32-bit fields while colors fit one word; the
    # words cover the declared count and the highest edge color
    aut = fresh(2)
    aut.new_edge(0, 1, TRUE_GUARD, [3])
    aut.new_edge(1, 0, TRUE_GUARD)
    blob = aut.pack_edges()
    assert len(blob) == 2 * 20
    wide = fresh(2)
    wide.new_edge(0, 1, TRUE_GUARD, [40])
    assert len(wide.pack_edges()) == 24
    declared = fresh(2)
    declared.new_edge(0, 1, TRUE_GUARD, [3])
    declared.set_acceptance(65, Inf(64))
    assert len(declared.pack_edges()) == 28


def test_check_invariants():
    aut = fresh(2)
    aut.new_edge(0, 1, TRUE_GUARD)
    aut.set_init(0)
    aut.check()
    with pytest.raises(ValueError):
        aut.new_edge(0, 7, TRUE_GUARD)  # no such state
    with pytest.raises(ValueError):
        aut.set_init(9)


def test_trim_drops_unreachable():
    aut = fresh(4)
    aut.new_edge(0, 1, TRUE_GUARD)
    aut.new_edge(1, 0, TRUE_GUARD)
    aut.new_edge(2, 3, TRUE_GUARD)  # island
    aut.new_edge(3, 2, TRUE_GUARD)
    aut.set_init(0)
    out = trim(aut)
    mapping = out.get_named_prop("trim-map", list)
    assert out.num_states == 2
    assert mapping[0] == 0 and mapping[1] == 1
    assert mapping[2] is None and mapping[3] is None
    assert out.init == 0
    assert [e.dst for e in out.out(0)] == [1]


def test_trim_rewrites_state_props():
    aut = fresh(3)
    aut.new_edge(0, 2, TRUE_GUARD)
    aut.set_init(0)
    aut.set_named_prop("state-player", [0, 1, 1])
    out = trim(aut)
    mapping = out.get_named_prop("trim-map", list)
    assert out.num_states == 2
    assert out.get_named_prop("state-player", list) == [0, 1]
    assert mapping[2] == 1


def test_trim_keeps_group_reachable_members():
    aut = fresh(4)
    g = aut.new_univ_dest_group([1, 2])
    aut.new_edge(0, g, TRUE_GUARD)
    aut.set_init(0)
    out = trim(aut)
    mapping = out.get_named_prop("trim-map", list)
    # both group members survive, state 3 does not
    assert out.num_states == 3
    assert mapping[3] is None
    e = next(iter(out.out(0)))
    assert sorted(out.univ_dests(e.dst)) == [mapping[1], mapping[2]]


def test_trim_remaps_edges_in_one_batch():
    # edges made out of state order, a false-guard edge into a state
    # nothing else reaches, a state without edges and an unreachable one
    aut = fresh(6)
    lit = aut.store.lit(0)
    i1 = aut.new_edge(2, 2, aut.store.lit(0, False))
    i2 = aut.new_edge(0, 1, lit, [0])
    i3 = aut.new_edge(3, 1, TRUE_GUARD)
    i4 = aut.new_edge(0, aut.new_univ_dest_group([2, 1]), TRUE_GUARD)
    i5 = aut.new_edge(0, 4, FALSE_GUARD)
    i6 = aut.new_edge(1, 0, TRUE_GUARD)
    i7 = aut.new_edge(4, 4, TRUE_GUARD)
    i8 = aut.new_edge(0, 0, TRUE_GUARD, [1])
    aut.set_init(0)
    aut.set_named_prop("highlight-edges", {i1: 3, i3: 1, i5: 2, i8: 4})
    aut.set_named_prop("strategy", [i8, i6, i1, i3, i7, 0])
    out = trim(aut)
    assert out.check()
    assert out.get_named_prop("trim-map", list) == [0, 1, 2, None, None,
                                                    None]
    # kept edges keep their storage order: i1, i2, i4, i6, i8
    assert [(e.src, e.cond, e.acc) for e in out.edge_records()] == [
        (2, aut.edges[i1].cond, 0), (0, lit, 1), (0, TRUE_GUARD, 0),
        (1, TRUE_GUARD, 0), (0, TRUE_GUARD, 2)]
    assert [e.dst for e in out.edge_records()] == [2, 1, -1, 0, 0]
    assert out.group_members(-1) == [2, 1]
    assert out.get_named_prop("highlight-edges", dict) == {1: 3, 5: 4}
    assert out.get_named_prop("strategy", list) == [5, 4, 1]
    assert [list(out.out_indices(s)) for s in range(3)] == [[2, 3, 5], [4],
                                                            [1]]


def _random_trim_input(seed):
    """A small automaton with unreachable states, false guards, universal
    groups (sometimes as the initial designator), states without edges
    and every named property trim rewrites; colors reach past 32."""
    rng = random.Random(seed)
    n = rng.randrange(10)
    aut = fresh(n, naps=rng.randrange(3))
    store = aut.store
    guards = [FALSE_GUARD, TRUE_GUARD] + [
        store.lit(i, pos) for i in range(len(aut.aps)) for pos in (0, 1)]

    def word():
        if n >= 2 and rng.random() < 0.2:
            return aut.new_univ_dest_group(
                rng.sample(range(n), rng.randrange(2, min(n, 3) + 1)))
        return rng.randrange(n)

    m = rng.randrange(3 * n + 1) if n else 0
    for _ in range(m):
        bits = rng.getrandbits(3) << (29 * rng.randrange(2))
        aut.new_edge(rng.randrange(n), word(), rng.choice(guards), bits)
    aut.set_acceptance(3, Inf(1))
    if n:
        aut.set_init(word())
    for name in ("state-names", "state-player", "state-winner",
                 "product-states", "strategy"):
        if rng.random() < 0.7:
            size = n if rng.random() < 0.9 else n + 1    # else kept as is
            aut.set_named_prop(name, [
                "s%d" % rng.randrange(5) if name == "state-names"
                else (rng.randrange(n + 1), 0) if name == "product-states"
                else rng.randrange(m + 1) if name == "strategy"
                else rng.randrange(2) for _ in range(size)])
    if rng.random() < 0.7:
        aut.set_named_prop("highlight-states", {
            rng.randrange(n + 2): rng.randrange(4) for _ in range(3)})
    if rng.random() < 0.7:
        aut.set_named_prop("highlight-edges", {
            rng.randrange(m + 2): rng.randrange(4) for _ in range(4)})
    aut.set_named_prop("automaton-name", "trim %d" % seed)
    return aut


def test_trim_matches_a_rebuild():
    seen = dict.fromkeys(("unreachable", "false guard", "group edge",
                          "group init", "no edges"), 0)
    for seed in range(240):
        aut = _random_trim_input(seed)
        got, want = trim(aut), trim_by_rebuild(aut)
        assert got.check()
        assert got.pack_edges() == want.pack_edges()
        assert print_hoa(got) == print_hoa(want)
        assert got.dests == want.dests
        assert got.named_props == want.named_props
        assert (got.init, got.num_states) == (want.init, want.num_states)
        accs = got.edge_acc[1:]
        assert all(acc.__class__ is int and acc >= 0 for acc in accs)
        assert len({id(acc) for acc in accs}) == len(set(accs))
        seen["unreachable"] += got.num_states < aut.num_states
        seen["false guard"] += FALSE_GUARD in aut.edge_cond[1:]
        seen["group edge"] += min(got.edge_dst, default=0) < 0
        seen["group init"] += got.num_states > 0 and got.init < 0
        seen["no edges"] += got.num_states > len(set(got.edge_src[1:]))
    assert min(seen.values()) >= 20, seen


def test_trim_copies_when_nothing_drops():
    aut = random_automaton(6, 2, density=0.6, colors=3, seed=5)
    aut.new_edge(0, aut.new_univ_dest_group([1, 2]), TRUE_GUARD, [2])
    aut.new_univ_dest_group([3, 2])       # unused: the copy keeps it
    aut.set_flag("weak", True)
    aut.set_named_prop("state-names", ["s%d" % s for s in range(6)])
    aut.set_named_prop("highlight-states", {0: 1, 4: 2})
    aut.set_named_prop("highlight-edges", {1: 3, aut.num_edges: 4})
    aut.set_named_prop("strategy", list(aut.first_edges))
    props = {name: type(v)(v) for name, v in aut.named_props.items()}
    out = trim(aut)
    assert out.check()
    assert out.pack_edges() == aut.pack_edges()
    assert out.dests == aut.dests
    assert out.get_named_prop("trim-map", list) == list(range(6))
    assert all(out.get_flag(f) is MAYBE for f in FLAG_NAMES)
    assert aut.get_flag("weak") is YES
    for name, value in props.items():
        got = out.named_props[name]
        assert got == value and got is not aut.named_props[name]
        got.clear()                       # the input keeps its own
    assert aut.named_props == props
    assert print_hoa(trim(aut)) == print_hoa(trim_by_rebuild(aut))


def test_trim_keeps_reordered_out_lists_on_both_paths():
    # next_succ writes put out-lists out of index order; the copy (nothing
    # drops) and the relinking path (a state and a false edge drop) keep
    # that order and give the same edge table
    for seed in range(4):
        aut = random_automaton(7, 2, density=0.8, colors=2, seed=seed)
        reorder_out_lists(aut)
        lists = [list(aut.out_indices(s)) for s in range(aut.num_states)]
        assert lists != [sorted(idx) for idx in lists]
        grown = aut.clone()
        extra = grown.new_state()
        grown.new_edge(extra, 0, TRUE_GUARD)
        grown.new_edge(0, extra, FALSE_GUARD)
        copied, relinked = trim(aut), trim(grown)
        assert relinked.num_edges == copied.num_edges == aut.num_edges
        assert relinked.pack_edges() == copied.pack_edges() \
            == aut.pack_edges()
        assert print_hoa(relinked) == print_hoa(copied) == print_hoa(aut)
        assert relinked.get_named_prop("trim-map", list) == \
            copied.get_named_prop("trim-map", list) + [None]


def _one_shared_group():
    aut = fresh(3)
    for _ in range(6):
        aut.new_edge(0, aut.new_univ_dest_group([1, 2]), TRUE_GUARD)
    aut.new_edge(1, 0, TRUE_GUARD)
    aut.new_edge(2, 0, TRUE_GUARD)
    aut.set_init(0)
    return aut


def test_equal_groups_stay_one_group():
    aut = _one_shared_group()
    for copy in (aut, aut.clone(), trim(aut), parse_hoa(print_hoa(aut)),
                 trim(parse_hoa(print_hoa(trim(aut))))):
        assert copy.dests == [2, 1, 2]
        assert {e.dst for e in copy.out(0)} == {-1}
        assert copy.new_univ_dest_group([1, 2]) == -1
        assert print_dot(copy).count("[shape=point]") == 1


# ---------------------------------------------------------------- errors

def _err_fixture():
    aut = fresh(3)
    aut.new_univ_dest_group([1, 2])       # word ~0
    return aut


# one row per check in new_edge / new_univ_dest_group / set_init, each
# with its exact message; a failed call must leave the automaton as it was
ERROR_ROWS = [
    ("bad source", lambda a: a.new_edge(3, 0), "source 3 is not a state"),
    ("negative source", lambda a: a.new_edge(-1, 0),
     "source -1 is not a state"),
    ("source checked first", lambda a: a.new_edge(5, 9, 999, [99]),
     "source 5 is not a state"),
    ("destination out of range", lambda a: a.new_edge(0, 3),
     "destination 3 is not a state"),
    ("unknown group word", lambda a: a.new_edge(0, -2),
     "destination word -2 names no group"),
    ("destination before guard", lambda a: a.new_edge(0, 7, 999),
     "destination 7 is not a state"),
    ("guard id out of range", lambda a: a.new_edge(0, 1, 999),
     "unknown guard id 999"),
    ("negative guard id", lambda a: a.new_edge(0, 1, -1),
     "unknown guard id -1"),
    ("guard before colors", lambda a: a.new_edge(0, 1, 999, [32]),
     "unknown guard id 999"),
    ("negative color", lambda a: a.new_edge(0, 1, TRUE_GUARD, [2, -1]),
     "bad color -1"),
    ("group member not a state", lambda a: a.new_univ_dest_group([0, 3]),
     "group member 3 is not a state"),
    ("empty group", lambda a: a.new_univ_dest_group([]),
     "empty destination group"),
    ("initial state out of range", lambda a: a.set_init(3),
     "destination 3 is not a state"),
    ("initial group word unknown", lambda a: a.set_init(-5),
     "destination word -5 names no group"),
]


@pytest.mark.parametrize("call,message", [r[1:] for r in ERROR_ROWS],
                         ids=[r[0] for r in ERROR_ROWS])
def test_construction_error_table(call, message):
    aut = _err_fixture()
    before = (aut.num_states, aut.num_edges, list(aut.dests), aut.init)
    with pytest.raises(ValueError) as exc:
        call(aut)
    assert str(exc.value) == message
    assert (aut.num_states, aut.num_edges, list(aut.dests), aut.init) \
        == before
    aut.check()


# new_edges runs new_edge's checks on each edge, in the same order
BATCH_ERROR_ROWS = [
    ((3, 0, TRUE_GUARD, 0), "source 3 is not a state"),
    ((-1, 0, TRUE_GUARD, 0), "source -1 is not a state"),
    ((5, 9, 999, 1 << 40), "source 5 is not a state"),
    ((0, 3, TRUE_GUARD, 0), "destination 3 is not a state"),
    ((0, -2, TRUE_GUARD, 0), "destination word -2 names no group"),
    ((0, 7, 999, 0), "destination 7 is not a state"),
    ((0, 1, 999, 0), "unknown guard id 999"),
    ((0, 1, -1, 0), "unknown guard id -1"),
    ((0, 1, 999, 1 << 32), "unknown guard id 999"),
    ((0, 1, TRUE_GUARD, -1), "negative color bits -1"),
    ((0, 1, TRUE_GUARD, 1.5), "colors must be an int of bits or an "
                              "iterable of colors, not 1.5"),
]


@pytest.mark.parametrize("edge,message", BATCH_ERROR_ROWS)
def test_new_edges_checks_like_new_edge(edge, message):
    for add in (lambda a: a.new_edge(*edge),
                lambda a: a.new_edges([(0, ~0, TRUE_GUARD, 1), edge])):
        aut = _err_fixture()
        with pytest.raises(ValueError) as exc:
            add(aut)
        assert str(exc.value) == message
        assert aut.num_edges <= 1
        aut.check()


def test_failed_new_edges_batch_leaves_no_stale_flag():
    # the first edge goes in before the second is rejected, and makes
    # the automaton complete, so a flag cached before the batch is stale
    aut = Automaton(["a"])
    aut.new_states(2)
    aut.new_edge(0, 1)
    assert get_or_compute_flag(aut, "complete") is False
    assert aut.get_flag("complete") is NO
    with pytest.raises(ValueError, match="source 5 is not a state"):
        aut.new_edges([(1, 0, TRUE_GUARD, 0), (5, 0, TRUE_GUARD, 0)])
    assert aut.num_edges == 2
    assert aut.get_flag("complete") is MAYBE
    assert get_or_compute_flag(aut, "complete") is True
    assert get_or_compute_flag(aut.clone(), "complete") is True


def _weak_buchi_loop():
    return parse_hoa("HOA: v1\nStates: 2\nStart: 0\nAP: 1 \"a\"\n"
                     "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n"
                     "[t] 1 {0}\nState: 1\n[t] 0 {0}\n--END--\n")


@pytest.mark.parametrize("column", ["src", "dst", "cond", "acc",
                                    "next_succ"])
def test_edge_view_writes_clear_the_flags(column):
    aut = _weak_buchi_loop()
    assert is_weak(aut) and get_or_compute_flag(aut, "complete")
    e = aut.edges[1]
    setattr(e, column, getattr(e, column))
    assert all(aut.get_flag(name) is MAYBE for name in FLAG_NAMES)


def test_edge_edits_are_seen_by_the_flags():
    aut = _weak_buchi_loop()
    assert is_weak(aut)
    aut.edges[1].acc = 0
    assert is_weak(aut) is False
    assert is_weak(aut.clone()) is False
    aut = _weak_buchi_loop()
    assert get_or_compute_flag(aut, "complete") and is_weak(aut)
    assert "complete weak" in print_hoa(aut)
    aut.edges[2].cond = FALSE_GUARD
    assert "complete" not in print_hoa(aut)
    assert get_or_compute_flag(aut, "complete") is False


def test_map_colors_clears_the_flags():
    aut = _weak_buchi_loop()
    assert is_weak(aut)
    aut.map_colors(lambda bits: 0 if bits else 1)
    assert aut.get_flag("weak") is MAYBE
    assert is_weak(aut) is True


def test_new_edges_builds_what_new_edge_builds():
    src = random_automaton(12, 2, density=0.4, colors=3, color_density=0.3,
                           seed=5)
    one, batch = (Automaton(src.aps, src.store) for _ in range(2))
    for aut in (one, batch):
        aut.new_states(src.num_states)
    rows = [(e.src, e.dst, e.cond, e.acc)
            for s in range(src.num_states) for e in src.out(s)]
    random.Random(1).shuffle(rows)
    for row in rows:
        one.new_edge(*row)
    batch.new_edges(rows)
    assert batch.pack_edges() == one.pack_edges()
    assert batch.check()


def _tails(aut):
    return [list(aut.out_indices(s))[-1:] for s in range(aut.num_states)]


@pytest.mark.parametrize("seed", range(6))
def test_extend_edges_builds_what_new_edges_builds(seed):
    # seeded rows in chunks, onto states that already have edges, with
    # group destinations and colors past bit 32
    rng = random.Random(seed)
    src = random_automaton(9, 2, density=0.5, colors=3, color_density=0.4,
                           seed=seed)
    checked, trusted = (Automaton(src.aps, src.store) for _ in range(2))
    rows = [(e.src, e.dst, e.cond, e.acc)
            for s in range(src.num_states) for e in src.out(s)]
    members = [rng.sample(range(9), 3) for _ in range(3)]
    for aut in (checked, trusted):
        aut.new_states(src.num_states)
        aut.new_edges(rows[:5])
        groups = list(map(aut.new_univ_dest_group, members))
        aut.set_acceptance(40, Inf(39))
        aut.set_init(groups[0])
    wide = [(rng.randrange(9), rng.choice(groups + [rng.randrange(9)]),
             rng.choice([TRUE_GUARD, FALSE_GUARD]),
             sum(1 << c for c in rng.choice([(), (33,), (39, 34), (0, 2)])))
            for _ in range(40)]           # a new int object per row
    rows = rows[5:] + wide
    rng.shuffle(rows)
    cut = sorted(rng.sample(range(1, len(rows)), 3))
    for chunk in map(rows.__getitem__, map(slice, [0] + cut, cut + [None])):
        checked.new_edges(chunk)
        srcs, dsts, conds, accs = zip(*chunk)
        trusted.extend_edges(list(srcs), list(dsts), list(conds),
                             [trusted.shared_colors(a) for a in accs])
    assert trusted.check()
    for aut in (checked, trusted):    # a new edge lands after each tail
        aut.new_edges([(s, s, TRUE_GUARD, 1 << 39) for s in range(9)])
    assert trusted.check()
    assert trusted.pack_edges() == checked.pack_edges()
    assert trusted.first_edges == checked.first_edges
    assert _tails(trusted) == _tails(checked)
    assert print_hoa(trusted) == print_hoa(checked)
    accs = trusted.edge_acc[1:]
    assert len({id(c) for c in accs}) == len(set(accs))
    assert {1 << 33, 1 << 39 | 1 << 34, 1 << 39} <= set(accs)


# ------------------------------------------------------ universal branches

def test_universal_branches_group_interned_but_unused():
    aut = fresh(3)
    aut.new_univ_dest_group([1, 2])
    aut.new_edge(0, 1, TRUE_GUARD)
    aut.set_init(0)
    assert not aut.has_universal_branches()


def test_universal_branches_group_only_initial():
    aut = fresh(3)
    aut.new_edge(0, 1, TRUE_GUARD)
    aut.set_init(aut.new_univ_dest_group([0, 2]))
    assert aut.has_universal_branches()


def test_universal_branches_group_on_one_edge():
    aut = fresh(3)
    aut.new_edge(0, 1, TRUE_GUARD)
    aut.new_edge(1, aut.new_univ_dest_group([1, 2]), TRUE_GUARD)
    aut.new_edge(2, 0, TRUE_GUARD)
    aut.set_init(0)
    assert aut.has_universal_branches()


# ------------------------------------------------- storage stays identical

def _digest(aut):
    h = hashlib.sha256(aut.pack_edges())
    h.update(print_hoa(aut).encode())
    return h.hexdigest()[:16]


# sha256 prefixes of pack_edges() + print_hoa() for seeded automata;
# both encodings are part of the storage contract and may not drift.
# The trim column was re-recorded when trim came to keep edges in
# storage order; its printed HOA is unchanged, only the packed edge
# order moved.
RANDOM_DIGESTS = {
    (3, 0): "16d0567a0dedd8e8", (3, 1): "157ed6d8d9dc3e82",
    (3, 2): "890ca496b72b67d8", (3, 3): "f711d673afbbd5fc",
    (40, 0): "bd0317369a7536ad", (40, 1): "cce77da9b5f886b1",
    (40, 2): "7c2f663b153275fd", (40, 3): "98b002de8944daa1",
}
DERIVED_DIGESTS = [
    ("cd30e8d7ea9d1cb1", "fa73973ba544ade7", "3d98fa9bf89991a9"),
    ("f442d9bbc998828a", "62f211ac4c33f81c", "446628604ff3773d"),
    ("e00da5e5079e3f42", "0e6a12c72658eb84", "3cfdf59b024a964b"),
    ("3a76480faa67cc11", "a5736fd7ae22e782", "5f5b98c583223682"),
]


@pytest.mark.parametrize("colors,seed", sorted(RANDOM_DIGESTS))
def test_random_automaton_encodings_are_stable(colors, seed):
    aut = random_automaton(5 + 4 * seed, 2, density=0.4, colors=colors,
                           color_density=0.3, seed=seed)
    assert len(aut.pack_edges()) == aut.num_edges * (20 if colors <= 32
                                                     else 24)
    assert _digest(aut) == RANDOM_DIGESTS[colors, seed]


@pytest.mark.parametrize("seed", range(len(DERIVED_DIGESTS)))
def test_derived_automaton_encodings_are_stable(seed):
    a = random_automaton(6, 2, density=0.5, colors=3, seed=100 + seed)
    b = random_automaton(5, ["p1", "q"], density=0.5, colors=2,
                         seed=200 + seed)
    got = (_digest(product(a, b)), _digest(remove_fin(a)),
           _digest(trim(remove_fin(b))))
    assert got == DERIVED_DIGESTS[seed]


# ------------------------------------------------------------ check()

def _checked_fixture():
    aut = fresh(3)
    aut.new_edge(0, 1, TRUE_GUARD)
    aut.new_edge(0, 2, TRUE_GUARD)
    aut.new_edge(1, 0, TRUE_GUARD)
    aut.new_univ_dest_group([1, 2])       # word ~0, unused
    aut.set_init(0)
    assert aut.check()
    return aut


@pytest.mark.parametrize("corrupt,message", [
    (lambda a: setattr(a.edges[1], "next_succ", 1), "edge 1 linked twice"),
    (lambda a: setattr(a.edges[1], "next_succ", 3),
     "edge 3 strays from state 0"),
    (lambda a: setattr(a.edges[2], "next_succ", 9), "edge 9 does not exist"),
    (lambda a: setattr(a.edges[1], "next_succ", 0), "bad tail for state 0"),
    (lambda a: a._tail.__setitem__(1, 0), "bad tail for state 1"),
    (lambda a: a._tail.__setitem__(2, 3), "bad tail for state 2"),
    (lambda a: a._tail.pop(), "state columns differ"),
    (lambda a: (a._succ.__setitem__(1, 0), a._tail.__setitem__(1, 0)),
     "orphaned edges"),
    (lambda a: setattr(a.edges[3], "cond", 999), "unknown guard id 999"),
    (lambda a: a.edge_acc.__setitem__(3, None),
     "edge 3 has colors None, not an int of bits"),
    (lambda a: a.edge_acc.__setitem__(3, -2),
     "edge 3 has colors -2, not an int of bits"),
    (lambda a: setattr(a.edges[3], "dst", 5), "destination 5 is not a state"),
    (lambda a: setattr(a, "acceptance", Inf(0)),
     "acceptance mentions a color >= num_sets"),
    (lambda a: a.dests.__setitem__(2, 7), "group member 7 is not a state"),
    (lambda a: a.dests.__setitem__(0, 5), "bad group -1"),
] + [(lambda a, name=name: getattr(a, name).pop(), "edge columns differ")
     for name in EDGE_COLUMNS])
def test_check_raises_value_error(corrupt, message):
    # explicit errors, so the checks survive python -O
    aut = _checked_fixture()
    corrupt(aut)
    with pytest.raises(ValueError) as exc:
        aut.check()
    assert str(exc.value) == message


# -------------------------------------------------------- shared colors

def test_equal_colors_share_one_color_set():
    aut = fresh(2)
    big = 1 << 3 | 1 << 40
    made = [aut.new_edge(0, 1, TRUE_GUARD, [3, 40]),
            aut.new_edge(1, 0, TRUE_GUARD, [40, 3]),
            aut.new_edge(1, 1, TRUE_GUARD, 1 << 40 | 1 << 3)]
    aut.new_edges([(0, 0, TRUE_GUARD, (1 << 41) >> 1 | 8)])
    made.append(aut.num_edges)
    plain = [aut.new_edge(0, 0, TRUE_GUARD),
             aut.new_edge(1, 1, TRUE_GUARD, []),
             aut.new_edge(0, 1, TRUE_GUARD, 0)]
    assert len({id(aut.edges[i].acc) for i in made}) == 1
    assert {aut.edges[i].acc for i in made} == {big}
    assert {aut.edges[i].acc for i in plain} == {0}
    aut.edges[plain[0]].acc = [40, 3]
    assert aut.edge_acc[plain[0]] is aut.edge_acc[made[0]]
    aut.map_colors(lambda bits: bits | 1 << 50)
    assert len({id(acc) for acc in aut.edge_acc[1:]}) == 2
    # a derived automaton shares within itself too
    for out in (trim(aut), aut.clone()):
        out.new_edge(0, 0, TRUE_GUARD, [50])
        assert len({id(acc) for acc in out.edge_acc[1:]}) == 2


def _int_column_automata(seed, stray=False):
    """(name, automaton) for each way of making an automaton, from
    seeded inputs with up to 24 colors.  With stray, the inputs declare
    6 colors but their edges carry up to 12."""
    a = random_automaton(6, 2, density=0.6, colors=12, color_density=0.4,
                         seed=seed)
    b = random_automaton(5, ["p1", "q"], density=0.6, colors=12,
                         color_density=0.4, acceptance=Inf(11),
                         seed=seed + 1)
    if stray:
        a.set_acceptance(6, random_acceptance(6, random.Random(seed)))
        b.set_acceptance(6, Inf(5))
    yield "parse_hoa", parse_hoa(print_hoa(a))
    yield "random_automaton", a
    yield "product", product(a, b)
    got = product_accepting_run(b, b)
    if got is not None:
        yield "lasso", got[0]
    yield "remove_fin", remove_fin(a)
    yield "trim", trim(remove_fin(b))
    yield "clone", a.clone()
    par = random_automaton(6, 2, density=0.6, colors=12, color_density=0.4,
                           acceptance=parity("max", "odd", 12), seed=seed)
    if stray:
        par.set_acceptance(6, make_class(parity("max", "odd", 6)))
    yield "change_parity", change_parity(par, "min even")
    yield "colorize_parity", colorize_parity(par)
    yield "remove_alternation", remove_alternation(random_alt_buchi(seed))
    store = GuardStore(2)
    i, o = store.lit(0), store.lit(1)
    yield "mealy_to_automaton", mealy_to_automaton(MealyMachine(
        ["i", "o"], [0], [1], store, 2, 0,
        [[(i, o, 1), (store.g_not(i), store.g_not(o), 0)],
         [(TRUE_GUARD, o, 0)]]))


def test_edge_colors_are_shared_ints_everywhere():
    big = {}                          # per maker, its distinct values > 256
    for seed in range(12):
        for name, aut in _int_column_automata(seed):
            accs = aut.edge_acc[1:]
            assert all(acc.__class__ is int and acc >= 0 for acc in accs), \
                name
            # equal values past CPython's small-int cache are one object
            assert len({id(acc) for acc in accs}) == len(set(accs)), name
            big[name] = big.get(name, 0) + sum(acc > 256 for acc in set(accs))
            assert aut.check()
    # every maker ran, and all but dealternation and Mealy machines,
    # whose colors stay small, made large values
    assert len(big) == 11
    assert all(big[name] for name in big
               if name not in ("remove_alternation", "mealy_to_automaton")), \
        big


def test_every_maker_prints_what_reparses_to_the_same_text():
    # colors at or above the declared count are inert: print_hoa leaves
    # them out, so what it prints parses back, and prints the same again
    for seed in range(12):
        for stray in (False, True):
            made = list(_int_column_automata(seed, stray))
            game = made[1][1].clone()
            made.append(("make_game", make_game(
                game, [s % 2 for s in range(game.num_states)])))
            for name, aut in made:
                text = print_hoa(aut)
                assert print_hoa(parse_hoa(text)) == text, (seed, name)
                if not stray:
                    # no maker makes a stray color of its own
                    assert all(acc >> aut.num_sets == 0
                               for acc in aut.edge_acc[1:]), (seed, name)


@pytest.mark.parametrize("how", ["int", "list", "map_colors"])
def test_equal_colors_made_apart_are_equal(how):
    # {0} given as `how` equals {0} given as a list or an int: the cycle
    # is weak and state 0's two edges print as one state-acc set
    aut = fresh(2)
    aut.new_edge(0, 1, TRUE_GUARD, [0])
    aut.new_edge(0, 0, TRUE_GUARD, {"int": 1, "list": [0],
                                    "map_colors": [1]}[how])
    aut.new_edge(1, 0, TRUE_GUARD, 1)
    if how == "map_colors":
        aut.map_colors(lambda bits: 1)
    aut.set_acceptance(1, Inf(0))
    aut.set_init(0)
    assert is_weak(aut)
    aut.set_flag("state_acc", True)
    text = print_hoa(aut)
    assert "State: 0 {0}\n" in text and "State: 1 {0}\n" in text
    assert print_hoa(parse_hoa(text)) == text


def test_new_edge_takes_color_bits():
    aut = fresh(2)
    i = aut.new_edge(0, 1, TRUE_GUARD, 0b1010)
    assert aut.edges[i].acc == 0b1010
    assert colors_of(aut.edges[i].acc) == [1, 3]
    for bad, message in ((-1, "negative color bits -1"),
                         ([0, -3], "bad color -3"),
                         ([1.0], "bad color 1.0"),
                         (2.5, "colors must be an int of bits or an "
                               "iterable of colors, not 2.5")):
        with pytest.raises(ValueError) as exc:
            aut.new_edge(0, 1, TRUE_GUARD, bad)
        assert str(exc.value) == message
    assert aut.num_edges == 1
    aut.check()


ACC_WRITES = [
    ("int", 5, 5), ("list", [1], 2), ("tuple", (0, 2), 5),
    ("range", range(3), 7), ("wide int", 1 << 300, 1 << 300),
    ("negative int", -1, None), ("None", None, None),
    ("negative color", [-1], None), ("string", "1", None),
    ("float", 1.0, None)]


@pytest.mark.parametrize("value, stored", [r[1:] for r in ACC_WRITES],
                         ids=[r[0] for r in ACC_WRITES])
def test_acc_writes_are_checked(value, stored):
    # a valid write stores the shared int; anything else raises and
    # leaves the edge as it was
    aut = fresh(2)
    aut.new_edge(0, 1, TRUE_GUARD, [0])
    aut.set_acceptance(1, Inf(0))
    aut.set_init(0)
    e = aut.edges[1]
    if stored is None:
        with pytest.raises(ValueError):
            e.acc = value
        stored = 1
    else:
        e.acc = value
    assert aut.edge_acc[1] == stored and aut.edge_acc[1].__class__ is int
    assert aut.check()
    print_hoa(aut)
    assert is_empty(aut)


def test_reassigning_one_edge_leaves_sharers_alone():
    aut = fresh(2)
    i = aut.new_edge(0, 1, TRUE_GUARD, [1])
    j = aut.new_edge(1, 0, TRUE_GUARD, [1])
    shared = aut.edges[i].acc
    aut.edges[i].acc = 0b101
    assert aut.edges[j].acc is shared
    assert colors_of(aut.edges[j].acc) == [1]
    assert colors_of(aut.edges[i].acc) == [0, 2]


def test_clone_edges_are_independent():
    aut = fresh(2)
    aut.new_edge(0, 1, TRUE_GUARD, [1])
    aut.new_edge(1, 0, TRUE_GUARD, [1])
    aut.set_init(0)
    blob, text = aut.pack_edges(), print_hoa(aut)
    copy = aut.clone()
    for name in EDGE_COLUMNS:         # equal, and not shared
        assert getattr(copy, name) == getattr(aut, name)
        assert getattr(copy, name) is not getattr(aut, name)
    copy.edges[1].acc = 0b11
    copy.edges[2].dst = 1
    copy.edges[1].cond = copy.store.lit(0)
    copy.new_edge(0, 0, TRUE_GUARD, [0])
    copy.new_state()
    assert aut.pack_edges() == blob and print_hoa(aut) == text
    assert aut.num_states == 2 and list(aut.out_indices(0)) == [1]
    assert copy.edges[1].acc == 0b11
    aut.check()
    copy.check()


@pytest.mark.parametrize("via", ["edges", "out"])
def test_edge_views_write_through(via):
    aut = fresh(3, naps=2)
    aut.new_edge(0, 1, TRUE_GUARD, [0])
    aut.new_edge(0, 2, aut.store.lit(0))
    aut.set_init(0)
    group = aut.new_univ_dest_group([1, 2])
    lit = aut.store.lit(1)
    e = aut.edges[1] if via == "edges" else next(aut.out(0))
    assert (e.index, e.src, e.dst, e.cond, e.next_succ) == (1, 0, 1,
                                                            TRUE_GUARD, 2)
    e.dst = group
    e.cond = lit
    e.acc = [1, 2]
    assert (aut.edge_dst[1], aut.edge_cond[1]) == (group, lit)
    assert aut.edge_acc[1] == 0b110
    assert [(f.dst, f.cond) for f in aut.out(0)] == [
        (group, lit), (2, aut.store.lit(0))]
    e.next_succ = 0                   # unlink edge 2, then relink it
    assert aut.edge_next[1] == 0 and list(aut.out_indices(0)) == [1]
    e.next_succ = 2
    e.src = 1
    assert aut.edge_src[1] == 1
    with pytest.raises(ValueError) as exc:
        aut.check()
    assert str(exc.value) == "edge 1 strays from state 0"
    e.src = 0
    assert aut.check()
    assert aut.edges[2].acc == 0 and aut.edges[0] is None
    assert len(aut.edges) == 3 and aut.edges[-1].index == 2
    with pytest.raises(IndexError):
        aut.edges[3]
    with pytest.raises(TypeError):
        aut.edges[1:]


# the fields and helpers of Automaton that only graph.py may name
AUTOMATON_PRIVATE = {"_succ", "_tail", "_colors", "_group_offsets",
                     "_group_words", "_nguards", "_check_word"}


def test_only_graph_names_automaton_private_fields():
    # as an attribute (x._succ) or as a string (getattr(x, "_succ"))
    src = pathlib.Path(graph.__file__).parent
    named = []
    for path in sorted(src.glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if isinstance(name, str) and name in AUTOMATON_PRIVATE:
                named.append("%s:%d %s" % (path.name, node.lineno, name))
    assert named == []


# an automaton's edge columns and state links, readable by every module
STORAGE_LISTS = set(EDGE_COLUMNS) | {"first_edges"}
LIST_WRITES = {"append", "extend", "insert", "pop", "remove", "clear",
               "sort", "reverse"}


def _storage_read(node):
    """Whether node reads an edge column or the state links: x.edge_src
    and the like, or getattr(x, name) with a name that may be one."""
    if isinstance(node, ast.Attribute):
        return node.attr in STORAGE_LISTS
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "getattr" and len(node.args) >= 2:
        name = node.args[1]
        return not isinstance(name, ast.Constant) \
            or name.value in STORAGE_LISTS
    return False


def _storage_writes(tree):
    """The line numbers in tree that write an edge column or a state
    link, directly or through a local name bound to one in the same
    top-level function."""
    lines = []
    for top in tree.body:
        aliases = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) \
                            and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    aliases.update(t.id for t, v in pairs
                                   if isinstance(t, ast.Name)
                                   and _storage_read(v))

        def storage(node):
            return _storage_read(node) or (isinstance(node, ast.Name)
                                           and node.id in aliases)

        def written(target):
            if isinstance(target, (ast.Tuple, ast.List)):
                return any(map(written, target.elts))
            if isinstance(target, ast.Starred):
                return written(target.value)
            if isinstance(target, ast.Attribute):
                return target.attr in STORAGE_LISTS
            return isinstance(target, ast.Subscript) and storage(target.value)

        for node in ast.walk(top):
            if isinstance(node, (ast.Assign, ast.Delete)):
                hit = any(map(written, node.targets))
            elif isinstance(node, ast.AugAssign):
                hit = written(node.target) or storage(node.target)
            elif isinstance(node, ast.Attribute):
                hit = node.attr in LIST_WRITES and storage(node.value)
            else:
                continue
            if hit:
                lines.append(node.lineno)
    return sorted(set(lines))


def test_only_graph_writes_edge_columns_and_state_links():
    # reading them is fine; assigning, augmenting, deleting or calling a
    # list method that changes them is graph.py's alone
    src = pathlib.Path(graph.__file__).parent
    written = []
    for path in sorted(src.glob("*.py")):
        if path.name != "graph.py":
            tree = ast.parse(path.read_text(), str(path))
            written += ["%s:%d" % (path.name, line)
                        for line in _storage_writes(tree)]
    assert written == []


def test_storage_write_lint_sees_each_form():
    code = """
def f(aut, out, name):
    out.edge_src += [1]
    out.edge_dst = []
    out.edge_cond[3] = 0
    out.first_edges[0] = 1
    out.edge_acc.append(0)
    add = getattr(out, name).extend
    nxt = out.edge_next
    nxt[2] = 1
    a, b = aut.edge_dst, out.edge_acc
    b.pop()
    del a[0]
    x = aut.edge_next[1]
    y = [getattr(aut, name)[1:] for name in EDGE_COLUMNS]
    y[0].append(x)
    z = list(aut.edge_src)
    z.append(0)
"""
    assert _storage_writes(ast.parse(code)) == [3, 4, 5, 6, 7, 8, 10, 12, 13]
