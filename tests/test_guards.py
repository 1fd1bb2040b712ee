"""Guard store: interning, Boolean algebra, cubes, label syntax."""

import functools
import random

import pytest

from elaut import (guards, is_complete, is_terminal, is_universal, parse_hoa,
                   print_dot)
from elaut.guards import (Cube, FALSE_GUARD, GuardStore, LabelParseError,
                          MAX_APS, TRUE_GUARD)


def minterms_of(store, gid, naps):
    """Reference view of a guard as the set of satisfied minterms."""
    return frozenset(m for m in range(1 << naps) if store.holds(gid, m))


def intern_set(store, mset):
    return store.intern(sum(1 << m for m in mset))


def test_constants_reserved():
    st = GuardStore(3)
    assert FALSE_GUARD == 0 and TRUE_GUARD == 1
    assert minterms_of(st, FALSE_GUARD, 3) == frozenset()
    assert minterms_of(st, TRUE_GUARD, 3) == frozenset(range(8))
    assert not st.is_sat(FALSE_GUARD)
    assert st.is_sat(TRUE_GUARD)


def test_intern_is_canonical():
    st = GuardStore(2)
    a = st.lit(0)
    also_a = st.g_or(st.g_and(a, st.lit(1)), st.g_and(a, st.g_not(st.lit(1))))
    # a&b | a&!b simplifies to a; the ids must coincide, not just the
    # functions
    assert a == also_a
    assert st.g_not(st.g_not(a)) == a
    assert st.g_and(a, a) == a
    assert st.g_or(a, FALSE_GUARD) == a
    assert st.g_and(a, TRUE_GUARD) == a
    assert st.g_and(a, st.g_not(a)) == FALSE_GUARD
    assert st.g_or(a, st.g_not(a)) == TRUE_GUARD


def test_exhaustive_two_ap_algebra():
    # all 16 Boolean functions on 2 APs, every pair, every operator
    st = GuardStore(2)
    by_fn = {}
    for bits in range(16):
        mset = frozenset(m for m in range(4) if bits >> m & 1)
        gid = intern_set(st, mset)
        assert minterms_of(st, gid, 2) == mset
        assert by_fn.setdefault(mset, gid) == gid
    fns = sorted(by_fn)
    for x in fns:
        gx = by_fn[x]
        assert minterms_of(st, st.g_not(gx), 2) == frozenset(range(4)) - x
        assert st.is_sat(gx) == bool(x)
        for y in fns:
            gy = by_fn[y]
            assert minterms_of(st, st.g_and(gx, gy), 2) == x & y
            assert minterms_of(st, st.g_or(gx, gy), 2) == x | y
            # interning makes equality decide function equality
            assert (gx == gy) == (x == y)
    assert len(by_fn) == 16


def test_random_de_morgan_and_double_negation():
    st = GuardStore(4)
    rng = random.Random(1234)
    guards = []
    for _ in range(300):
        mset = frozenset(m for m in range(16) if rng.random() < 0.5)
        guards.append(intern_set(st, mset))
    for _ in range(1000):
        x = rng.choice(guards)
        y = rng.choice(guards)
        assert st.g_not(st.g_not(x)) == x
        assert st.g_not(st.g_and(x, y)) == st.g_or(st.g_not(x), st.g_not(y))
        assert st.g_not(st.g_or(x, y)) == st.g_and(st.g_not(x), st.g_not(y))


def test_restrict_and_exists():
    st = GuardStore(3)
    a, b, c = st.lit(0), st.lit(1), st.lit(2)
    f = st.g_or(st.g_and(a, b), c)
    # cofactor by a=1: b | c
    assert st.restrict(f, 0, True) == st.g_or(b, c)
    assert st.restrict(f, 0, False) == c
    # quantify b away: a | c
    assert st.exists(f, [1]) == st.g_or(a, c)
    assert st.exists(f, [0, 1, 2]) == TRUE_GUARD
    assert st.exists(FALSE_GUARD, [0]) == FALSE_GUARD


def test_support():
    st = GuardStore(3)
    a, c = st.lit(0), st.lit(2)
    assert st.support(st.g_and(a, c)) == [0, 2]
    assert st.support(TRUE_GUARD) == []
    assert st.support(FALSE_GUARD) == []
    # a&c | !a&c depends only on c
    f = st.g_or(st.g_and(a, c), st.g_and(st.g_not(a), c))
    assert st.support(f) == [2]


def test_support_keeps_cofactors_out_of_the_store():
    st = GuardStore(16)
    g = st.intern(random.Random(5).getrandbits(1 << 16))
    size = len(st)
    assert st.support(g) == list(range(16))
    assert st.support(g) == list(range(16))
    assert len(st) == size


def test_cubes_partition_and_reconstruct():
    st = GuardStore(4)
    rng = random.Random(99)
    for _ in range(200):
        mset = frozenset(m for m in range(16) if rng.random() < 0.4)
        gid = intern_set(st, mset)
        cubes = st.to_cubes(gid)
        seen = set()
        for cube in cubes:
            assert isinstance(cube, Cube)
            assert not (cube.positive & cube.negative)
            members = set()
            for m in range(16):
                ok = all(m >> i & 1 for i in cube.positive) and \
                    not any(m >> i & 1 for i in cube.negative)
                if ok:
                    members.add(m)
            # cubes are disjoint and cover exactly the guard
            assert not (members & seen)
            seen |= members
        assert seen == set(mset)


def test_cubes_of_constants():
    st = GuardStore(2)
    assert st.to_cubes(FALSE_GUARD) == []
    cubes = st.to_cubes(TRUE_GUARD)
    assert len(cubes) == 1
    assert cubes[0].positive == frozenset() and cubes[0].negative == frozenset()


def test_cubes_deterministic():
    st = GuardStore(3)
    rng = random.Random(5)
    for _ in range(50):
        mset = frozenset(m for m in range(8) if rng.random() < 0.5)
        gid = intern_set(st, mset)
        assert st.to_cubes(gid) == st.to_cubes(gid)


def test_print_label():
    st = GuardStore(3)
    a, b = st.lit(0), st.lit(1)
    assert st.print_label(TRUE_GUARD) == "t"
    assert st.print_label(FALSE_GUARD) == "f"
    assert st.print_label(a) == "0"
    assert st.print_label(st.g_not(a)) == "!0"
    txt = st.print_label(st.g_and(a, st.g_not(b)))
    assert txt == "0&!1"


def _label_from_cubes(store, gid):
    """The label text rendered cube by cube from to_cubes."""
    parts = []
    for cube in store.to_cubes(gid):
        lits = [("%d" if ap in cube.positive else "!%d") % ap
                for ap in sorted(cube.positive | cube.negative)]
        parts.append("&".join(lits) or "t")
    return " | ".join(parts) or "f"


def test_print_label_matches_the_cubes():
    st = GuardStore(3)
    for bits in range(1 << 8):
        gid = st.intern(bits)
        assert st.print_label(gid) == _label_from_cubes(st, gid)
    rng = random.Random(73)
    for naps in range(17):
        st = GuardStore(naps)
        for _ in range(20):
            gid = (random_guard(st, rng) if naps < 8
                   else cube_guard(st, rng, rng.randint(1, 4)))
            assert st.print_label(gid) == _label_from_cubes(st, gid)


def test_parse_label_round_trip():
    st = GuardStore(4)
    rng = random.Random(7)
    for _ in range(200):
        mset = frozenset(m for m in range(16) if rng.random() < 0.5)
        gid = intern_set(st, mset)
        assert st.parse_label(st.print_label(gid)) == gid
    # a few concrete syntaxes
    a, b = st.lit(0), st.lit(1)
    assert st.parse_label("t") == TRUE_GUARD
    assert st.parse_label("f") == FALSE_GUARD
    assert st.parse_label("0 & 1 | !0") == st.g_or(st.g_and(a, b),
                                                   st.g_not(a))
    assert st.parse_label("(0 | 1) & !1") == st.g_and(st.g_or(a, b),
                                                      st.g_not(b))


def test_parse_label_errors():
    st = GuardStore(2)
    for bad in ["", "0 &", "(0", "2", "0 1", "&1", "!"]:
        with pytest.raises(LabelParseError):
            st.parse_label(bad)


def test_translate_between_stores():
    src = GuardStore(2)
    dst = GuardStore(3)
    f = src.g_or(src.g_and(src.lit(0), src.lit(1)), src.g_not(src.lit(0)))
    # map src AP 0 -> dst AP 2, src AP 1 -> dst AP 0
    g = dst.translate_from(src, f, {0: 2, 1: 0})
    expect = dst.g_or(dst.g_and(dst.lit(2), dst.lit(0)),
                      dst.g_not(dst.lit(2)))
    assert g == expect


def test_width_limit():
    with pytest.raises(ValueError):
        GuardStore(17)
    st = GuardStore(16)
    assert st.is_sat(st.lit(15))
    with pytest.raises(ValueError):
        st.lit(16)


# ------------------------------------------- brute-force reference
#
# The store works on whole minterm vectors.  These definitions go minterm
# by minterm over a list of truth values, and the tests below require the
# store to give identical results.

def truth(store, gid):
    n = 1 << store.ap_count
    return [c == "1" for c in bin(store.bits_of(gid))[2:].zfill(n)[::-1]]


def ref_lit(naps, ap, positive):
    return [((m >> ap) & 1) == positive for m in range(1 << naps)]


def ref_restrict(f, ap, value):
    bit = 1 << ap
    return [f[m | bit] if value else f[m & ~bit] for m in range(len(f))]


def ref_exists(f, aps):
    for ap in aps:
        f = [a or b for a, b in zip(ref_restrict(f, ap, False),
                                    ref_restrict(f, ap, True))]
    return f


def ref_support(f, naps):
    return [ap for ap in range(naps)
            if ref_restrict(f, ap, False) != ref_restrict(f, ap, True)]


def ref_cube_members(naps, cube):
    return {m for m in range(1 << naps)
            if all(m >> ap & 1 for ap in cube.positive)
            and not any(m >> ap & 1 for ap in cube.negative)}


def ref_to_cubes(f, naps):
    remaining = {m for m, v in enumerate(f) if v}
    out = []
    while remaining:
        m = min(remaining)
        cube = Cube(frozenset(ap for ap in range(naps) if m >> ap & 1),
                    frozenset(ap for ap in range(naps) if not m >> ap & 1))
        for ap in range(naps):
            widened = Cube(cube.positive - {ap}, cube.negative - {ap})
            if ref_cube_members(naps, widened) <= remaining:
                cube = widened
        out.append(cube)
        remaining -= ref_cube_members(naps, cube)
    return out


def ref_translate(f, src_naps, naps, ap_map):
    return [f[sum(((m >> ap_map[i]) & 1) << i for i in range(src_naps))]
            for m in range(1 << naps)]


def random_guard(store, rng):
    return store.intern(rng.getrandbits(1 << store.ap_count))


def cube_guard(store, rng, ncubes):
    """An OR of a few random cubes: few cubes to cover at any width."""
    g = FALSE_GUARD
    for _ in range(ncubes):
        c = TRUE_GUARD
        for ap in rng.sample(range(store.ap_count), 3):
            c = store.g_and(c, store.lit(ap, rng.random() < 0.5))
        g = store.g_or(g, c)
    return g


def check_against_reference(store, gid, rng, cubes=True):
    n = store.ap_count
    f = truth(store, gid)
    for ap in range(n):
        assert truth(store, store.lit(ap, ap % 2 == 0)) == \
            ref_lit(n, ap, ap % 2 == 0)
        for value in (False, True):
            assert truth(store, store.restrict(gid, ap, value)) == \
                ref_restrict(f, ap, value)
    aps = rng.sample(range(n), rng.randint(0, n))
    assert truth(store, store.exists(gid, aps)) == ref_exists(f, aps)
    assert store.support(gid) == ref_support(f, n)
    assert store.support(gid, aps) == [a for a in aps
                                       if a in ref_support(f, n)]
    if cubes:
        assert store.to_cubes(gid) == ref_to_cubes(f, n)
    # into a store with the same or more APs, in a shuffled order
    wide = GuardStore(rng.randint(n, min(n + 3, 16)))
    ap_map = rng.sample(range(wide.ap_count), n)
    assert truth(wide, wide.translate_from(store, gid, ap_map)) == \
        ref_translate(f, n, wide.ap_count, ap_map)


def test_matches_reference_up_to_8_aps():
    rng = random.Random(2024)
    for naps in range(9):
        st = GuardStore(naps)
        for _ in range(12 if naps < 7 else 3):
            check_against_reference(st, random_guard(st, rng), rng)


def test_matches_reference_at_16_aps():
    rng = random.Random(16)
    st = GuardStore(16)
    for ncubes in (1, 3):
        check_against_reference(st, cube_guard(st, rng, ncubes), rng,
                                cubes=False)
    g = cube_guard(st, rng, 3)
    cubes = st.to_cubes(g)
    covered = 0
    for cube in cubes:
        lits = [st.lit(ap) for ap in cube.positive]
        lits += [st.lit(ap, False) for ap in cube.negative]
        bits = st.bits_of(functools.reduce(st.g_and, lits, TRUE_GUARD))
        assert covered & bits == 0
        covered |= bits
    assert covered == st.bits_of(g)
    assert st.parse_label(st.print_label(g)) == g


def greedy_cover(store, gid):
    """cover as it was before it read a cube's positive APs off its
    lowest minterm: every AP is tried on every cube.  The oracle for
    cover; yields each cube's AP masks and its minterms."""
    remaining = store.bits_of(gid)
    while remaining:
        low = remaining & -remaining
        m = low.bit_length() - 1
        bits, pos, neg = low, 0, 0
        for ap in range(store.ap_count):
            up = (m >> ap) & 1
            shift = 1 << ap
            widened = bits | (bits >> shift if up else bits << shift)
            if widened & ~remaining == 0:
                bits = widened
            elif up:
                pos |= shift
            else:
                neg |= shift
        yield pos, neg, bits
        remaining &= ~bits


def cover_cases(store, rng):
    """Constants, random guards, a few scattered minterms and ORs of
    random cubes over the store's APs."""
    n = store.ap_count
    yield from (FALSE_GUARD, TRUE_GUARD)
    for k in range(3):
        if k == 0 or n < 12:          # a dense 16-AP guard has ~10^4 cubes
            yield random_guard(store, rng)
        bits = 0
        for _ in range(rng.randint(1, 6)):
            bits |= 1 << rng.randrange(store.nminterms)
        yield store.intern(bits)
    for ncubes in (1, 2, 5, 12):
        g = FALSE_GUARD
        for _ in range(ncubes):
            c = TRUE_GUARD
            for ap in rng.sample(range(n), rng.randint(0, n)):
                c = store.g_and(c, store.lit(ap, rng.random() < 0.5))
            g = store.g_or(g, c)
        yield g


@pytest.mark.parametrize("n", range(MAX_APS + 1))
def test_cover_matches_the_greedy_loop(n):
    rng = random.Random(4_100 + n)
    warm = GuardStore(n)
    for g in cover_cases(warm, rng):
        want = list(greedy_cover(warm, g))
        got = list(warm.cover(g))
        assert got == [(pos, neg) for pos, neg, _ in want]
        assert warm.to_cubes(g) == [
            Cube(frozenset(ap for ap in range(n) if pos >> ap & 1),
                 frozenset(ap for ap in range(n) if neg >> ap & 1))
            for pos, neg in got]
        # each cube's positive mask is the lowest minterm left to cover
        remaining = warm.bits_of(g)
        for pos, _, cube in want:
            assert pos == (remaining & -remaining).bit_length() - 1
            remaining &= ~cube
        # warm has printed every earlier case; a cold store prints alike
        cold = GuardStore(n)
        text = warm.print_label(g)
        assert cold.print_label(cold.intern(warm.bits_of(g))) == text
        assert cold.parse_label(text) == cold.intern(warm.bits_of(g))


def test_translate_rejects_maps_that_merge_aps():
    src, dst = GuardStore(2), GuardStore(3)
    with pytest.raises(ValueError):
        dst.translate_from(src, src.lit(0), [1, 1])
    with pytest.raises(ValueError):
        dst.translate_from(src, src.lit(0), [0, 3])


def _literal_atoms(k):
    """The literal texts of k APs and their minterms, made by hand."""
    full = (1 << (1 << k)) - 1
    atoms = {"t": full, "f": 0, "!t": 0, "!f": full}
    for ap in range(k):
        # bit m of pos is bit ap of m; the string lists the highest m first
        pos = int("".join("01"[m >> ap & 1]
                          for m in reversed(range(1 << k))), 2)
        atoms[str(ap)], atoms["!%d" % ap] = pos, pos ^ full
    return atoms


@pytest.mark.parametrize("k", range(MAX_APS + 1))
def test_stores_over_one_ap_count_share_no_mutable_state(k):
    used = GuardStore(k)
    top = max(k - 1, 0)
    texts = ["t", "f", "!t"] + (["0", "!%d" % top, "0 & !%d" % top,
                                 "!0&%d | %d & 0" % (top, top), "(0 | !0)"]
                                if k else [])
    for text in texts:
        used.print_label(used.parse_label(text))
        used.to_cubes(used.parse_label(text))
    assert k == 0 or any("&" in t for t in used._atoms)   # a cube text
    fresh = GuardStore(k)
    assert len(fresh) == 2
    assert fresh._atoms == _literal_atoms(k)
    # what stores share per AP count is what a first store makes
    assert guards._ap_tables(k) == guards._ap_tables.__wrapped__(k)
    assert fresh._lits == tuple((str(ap), "!%d" % ap) for ap in range(k))
    assert [fresh._atoms[str(ap)] for ap in range(k)] == list(fresh._pos)
    assert [fresh._atoms["!%d" % ap] for ap in range(k)] == list(fresh._neg)


@pytest.mark.parametrize("k", range(MAX_APS + 1))
def test_shared_translator_plans_move_as_fresh_ones(k):
    rng = random.Random(k)
    src = GuardStore(k)
    for n in sorted({k, min(k + 1, MAX_APS), MAX_APS}):
        dst = GuardStore(n)
        ap_map = rng.sample(range(n), k)
        move = dst.translator(src, ap_map)
        assert move is dst.translator(src, list(ap_map))   # planned once
        fresh = guards._mover.__wrapped__(n, tuple(ap_map))
        for bits in [0, src.full, rng.getrandbits(src.nminterms)] \
                + list(src._pos):
            assert move(bits) == fresh(bits)


# ------------------------------------------------------------ memos

def test_to_cubes_returns_a_fresh_list():
    st = GuardStore(3)
    g = st.parse_label("0&1 | !2")
    first = st.to_cubes(g)
    expect = list(first)
    first.append(Cube(frozenset(), frozenset()))
    second = st.to_cubes(g)
    assert second == expect and second is not first
    second.clear()
    assert st.to_cubes(g) == expect


def test_read_only_queries_intern_only_what_they_return():
    # the state's guards are on edges; their union 0&1 | !0&!1 is not
    aut = parse_hoa("HOA: v1\nStates: 1\nStart: 0\nAP: 2 \"a\" \"b\"\n"
                    "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n"
                    "[0&1] 0 {0}\n[!0&!1] 0 {0}\n--END--\n")
    size = len(aut.store)
    assert is_universal(aut) is True
    assert is_complete(aut) is False
    assert is_terminal(aut) is False
    assert "0 -> 0" in print_dot(aut, hide_sinks=True)
    assert [aut.store.print_label(c) for c in aut.edge_cond[1:]] == [
        "0&1", "!0&!1"]
    assert len(aut.store) == size
    # an existential projection interns its result and nothing else
    st = GuardStore(3)
    g = st.parse_label("0&1&2")
    size = len(st)
    got = st.exists(g, [0, 1])
    assert len(st) == size + 1
    assert st.bits_of(got) == st.bits_of(st.lit(2))
    assert st.exists(g, []) == g and len(st) == size + 1


def test_failed_parse_raises_again():
    st = GuardStore(2)
    for bad in ["(0", "2", "0 1"]:
        for _ in range(2):
            with pytest.raises(LabelParseError):
                st.parse_label(bad)


def test_memo_hits_match_a_cold_store():
    rng = random.Random(41)
    warm = GuardStore(4)
    for _ in range(100):
        bits = rng.getrandbits(16)
        g = warm.intern(bits)
        text = warm.print_label(g)
        assert warm.print_label(g) == text
        assert warm.parse_label(text) == g == warm.parse_label(text)
        cold = GuardStore(4)
        assert cold.print_label(cold.intern(bits)) == text
        cold = GuardStore(4)
        assert cold.bits_of(cold.parse_label(text)) == bits


def test_label_error_positions():
    st = GuardStore(2)
    for bad, message, pos in [
            ("", "unexpected 'end' in label", 0),
            ("0 &", "unexpected 'end' in label", 3),
            ("(0", "expected ')'", 2),
            ("(0 1)", "expected ')'", 3),
            (" 2", "AP index 2 out of range", 1),
            ("0 1", "trailing input in label", 2),
            ("0)", "trailing input in label", 1),
            ("&1", "unexpected '&' in label", 0),
            ("!", "unexpected 'end' in label", 1),
            ("9" * 5000, "AP index of 5000 digits out of range", 0),
            ("0 & " + "9" * 5000, "AP index of 5000 digits out of range", 4)]:
        with pytest.raises(LabelParseError) as err:
            st.parse_label(bad)
        assert err.value.pos == pos
        assert str(err.value) == "%s at position %d" % (message, pos)


def test_deep_labels_parse_without_recursion():
    st = GuardStore(2)
    depth = 3000
    assert st.parse_label("(" * depth + "0" + ")" * depth) == st.lit(0)
    assert st.parse_label("!" * (depth + 1) + "1") == st.lit(1, False)
    with pytest.raises(LabelParseError) as err:
        st.parse_label("(" * depth + "0")
    assert err.value.pos == depth + 1



def test_cube_labels_skip_the_operator_parser(monkeypatch):
    # a disjunction of conjunctions of literals, spaced any way, is read
    # cube by cube; any other label goes to the operator-precedence
    # parser; both give what that parser gives, guard or error
    rng = random.Random(67)
    ops = guards._parse_label_ops
    calls = []
    monkeypatch.setattr(guards, "_parse_label_ops",
                        lambda *args: calls.append(1) or ops(*args))

    def outcome(parse, store, text):
        try:
            return store.bits_of(parse(text)), len(store)
        except LabelParseError as err:
            return str(err), err.pos, len(store)

    plain = ["0", "1", "2", "t", "f", "!0", "!1", "!2", "!t", "!f"]
    odd = ["!!0", "! 1", "00", "(2)", "3", "", "0 1", "x"]
    for k in range(4000):
        cubes = [[rng.choice(plain + odd if k % 2 else plain)
                  for _ in range(rng.randint(1, 3))]
                 for _ in range(rng.randint(1, 3))]
        text = rng.choice(["|", " | ", "| "]).join(
            rng.choice(["&", " & ", " &"]).join(cube) for cube in cubes)
        ref = GuardStore(3)
        guards._parse_label(ref, "t")         # builds ref._atoms
        want = outcome(lambda t: ops(ref, t, ref._atoms), ref, text)
        st = GuardStore(3)
        del calls[:]
        assert outcome(st.parse_label, st, text) == want
        assert bool(calls) != all(lit in plain for c in cubes for lit in c)


def test_cube_texts_kept_by_one_store_parse_as_in_a_cold_one():
    # a cube text is kept once all its literals are found; labels that
    # reuse it, and malformed ones next to it, read as in a fresh store
    rng = random.Random(79)
    warm = GuardStore(3)
    plain = ["0", "1", "2", "t", "!0", "!2", "!f"]
    odd = ["!!0", "00", "3", "", "x"]
    for k in range(3000):
        cubes = [" & ".join(rng.choice(plain + odd if k % 3 == 0 else plain)
                            for _ in range(rng.randint(1, 2)))
                 for _ in range(rng.randint(1, 3))]
        text = " | ".join(cubes)
        results = []
        for st in (warm, GuardStore(3)):
            try:
                results.append(st.bits_of(guards._parse_label(st, text)))
            except LabelParseError as err:
                results.append((str(err), err.pos))
        assert results[0] == results[1]
    kept = [t for t in warm._atoms if "&" in t]
    for text in kept:
        cold = GuardStore(3)
        assert warm._atoms[text] == cold.bits_of(cold.parse_label(text))
    assert len(kept) > 20
