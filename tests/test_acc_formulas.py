"""Acceptance formulas: parsing, evaluation, classes, parity conversion."""

import hashlib
import random
import sys

import pytest

from elaut.acceptance import (AccClass, AcceptanceParseError, And, FALSE,
                              Fin, Inf, Or, TRUE, acc_name, change_parity,
                              class_colors, colors_of, dnf_disjuncts,
                              dual, eval_acceptance, f_and, f_or,
                              generalized_buchi, generalized_co_buchi,
                              generalized_rabin, is_finless, make_class,
                              parity, parity_of, parity_readings,
                              parse_acceptance, print_acceptance, rabin,
                              recognize, shift_colors, streett, subst,
                              to_dnf, used_colors)
from elaut.hoa import parse_hoa, print_hoa


def cs(colors):
    return sum(1 << c for c in set(colors))


def ev(formula, colors):
    return eval_acceptance(formula, cs(colors))


# --------------------------------------------------------------- color sets

def test_colorset_basics():
    # a color set is an int whose bit i is color i
    a = cs([0, 3, 31])
    assert a == 1 | 1 << 3 | 1 << 31
    assert colors_of(a) == [0, 3, 31]
    assert colors_of(a | cs([3, 4])) == [0, 3, 4, 31]
    assert colors_of(a & cs([3, 4])) == [3]
    assert colors_of(0) == []
    assert ev(Inf(31), [0, 3, 31]) and not ev(Inf(1), [0, 3, 31])


def test_colorset_width():
    # color sets have no width: colors past 32 read like any other
    wide = cs([1, 64, 1023])
    assert colors_of(wide) == [1, 64, 1023]
    assert eval_acceptance(f_and([Inf(64), Fin(63)]), wide)
    assert not eval_acceptance(Inf(1024), wide)
    assert used_colors(Inf(1023)) == 1 << 1023


# ------------------------------------------------------------- construction

def test_builders_flatten_and_fold():
    f = f_and([Inf(0), f_and([Inf(1), Inf(2)])])
    assert isinstance(f, And) and len(f.children) == 3
    g = f_or([Fin(0), f_or([Fin(1)]), FALSE])
    assert isinstance(g, Or) and len(g.children) == 2
    assert f_and([]) is TRUE
    assert f_or([]) is FALSE
    assert f_and([Inf(3)]) == Inf(3)
    assert f_and([TRUE, Inf(1)]) == Inf(1)
    assert f_or([TRUE, Inf(1)]) is TRUE
    assert f_and([FALSE, Inf(1)]) is FALSE


# ---------------------------------------------------------------- parsing

def test_parse_examples():
    assert parse_acceptance("Inf(0)") == Inf(0)
    assert parse_acceptance("t") is TRUE
    assert parse_acceptance("f") is FALSE
    f = parse_acceptance("Fin(0) & Inf(1) | Fin(2) & Inf(3)")
    assert f == Or((And((Fin(0), Inf(1))), And((Fin(2), Inf(3)))))


def test_parse_precedence_and_parens():
    # & binds tighter than |
    f = parse_acceptance("Inf(0) | Inf(1) & Fin(2)")
    assert isinstance(f, Or)
    g = parse_acceptance("(Inf(0) | Inf(1)) & Fin(2)")
    assert isinstance(g, And)


def test_parse_errors_have_positions():
    for text in ["Inf", "Inf(", "Inf(x)", "Inf(0) &", "Fin(0) Inf(1)",
                 "", "Inf(0))", "Inf(-1)", "Inff(0)"]:
        with pytest.raises(AcceptanceParseError) as err:
            parse_acceptance(text)
        assert err.value.pos >= 0


def test_parse_color_width_limit():
    assert parse_acceptance("Inf(31)") == Inf(31)
    with pytest.raises(AcceptanceParseError):
        parse_acceptance("Inf(32)", max_colors=32)
    assert parse_acceptance("Inf(32)", max_colors=64) == Inf(32)


def test_oversized_color_index_is_a_parse_error():
    # one digit past what int() converts by default
    digits = sys.get_int_max_str_digits() + 1
    for text, pos in [("Inf(%s)" % ("9" * digits), 4),
                      ("Fin(0) | Inf( %s)" % ("9" * digits), 14)]:
        with pytest.raises(AcceptanceParseError) as err:
            parse_acceptance(text)
        assert err.value.pos == pos
        assert str(err.value) == ("color index of %d digits out of range "
                                  "at position %d" % (digits, pos))


def _every_class_kind():
    rows = [AccClass("Buchi"), AccClass("co-Buchi"), AccClass("Fin-less")]
    for k in (1, 2, 3):
        rows += [generalized_buchi(k), generalized_co_buchi(k), rabin(k),
                 streett(k), generalized_rabin(tuple(range(1, k + 1)))]
    rows += [parity(mm, eo, n) for mm in ("min", "max")
             for eo in ("even", "odd") for n in (1, 2, 5)]
    return rows


def test_class_names_parse_back():
    rows = _every_class_kind()
    assert len({cls.kind for cls in rows}) == 12
    for cls in rows:
        assert AccClass.parse(cls.name()) == cls
        assert AccClass.parse("  %s \t" % cls.name().replace(" ", "   ")) \
            == cls


@pytest.mark.parametrize("text", [
    "", "buchi", "Buchi 1", "Fin-less 2", "Rabin", "Rabin 1 2",
    "generalized-Rabin", "parity min even", "parity min even 3 4",
    "Inf(0)", "Fin(0)|Inf(1)", "random"])
def test_other_texts_name_no_class(text):
    assert AccClass.parse(text) is None


@pytest.mark.parametrize("text, reason", [
    ("generalized-Buchi x", "invalid literal for int()"),
    ("Streett 1.5", "invalid literal for int()"),
    ("generalized-Rabin 2 1", "generalized-Rabin wants 2 sizes"),
    ("generalized-Rabin x 1", "invalid literal for int()"),
    ("parity sideways odd 3", "bad parity kind 'parity sideways odd'"),
    ("parity min even three", "invalid literal for int()")])
def test_bad_class_numbers_are_errors(text, reason):
    with pytest.raises(ValueError) as err:
        AccClass.parse(text)
    assert str(err.value).startswith("bad acceptance class %r: %s"
                                     % (text, reason))


def test_print_parse_fixpoint_random():
    rng = random.Random(42)

    def rand_formula(depth):
        pick = rng.random()
        if depth == 0 or pick < 0.35:
            c = rng.randrange(6)
            return Fin(c) if rng.random() < 0.5 else Inf(c)
        kids = [rand_formula(depth - 1) for _ in range(rng.randrange(2, 4))]
        return f_and(kids) if pick < 0.7 else f_or(kids)

    for _ in range(300):
        f = rand_formula(3)
        text = print_acceptance(f)
        again = parse_acceptance(text)
        assert again == f
        assert print_acceptance(again) == text


# -------------------------------------------------------------- evaluation

def test_eval_basics():
    assert ev(TRUE, [])
    assert not ev(FALSE, [0, 1])
    assert ev(Inf(2), [2])
    assert not ev(Inf(2), [1])
    assert ev(Fin(2), [1])
    assert not ev(Fin(2), [2])


def test_eval_min_even_four_example():
    # minimum recurring color of {1, 2} is 1, which is odd
    f = make_class(parity("min", "even", 4))
    assert ev(f, [1, 2]) is False
    assert ev(f, [2]) is True
    assert ev(f, [0, 1, 2, 3]) is True
    assert ev(f, [3]) is False


def reference_parity_accepts(mm, eo, n, colors):
    """Extremum semantics, written independently of the formula builder:
    missing colors behave like n for min kinds and like -1 for max
    kinds."""
    relevant = [c for c in colors if c < n]
    if mm == "min":
        ext = min(relevant) if relevant else n
    else:
        ext = max(relevant) if relevant else -1
    return ext % 2 == (0 if eo == "even" else 1)


def test_parity_formulas_match_reference_semantics():
    for mm in ("min", "max"):
        for eo in ("even", "odd"):
            for n in range(1, 6):
                f = make_class(parity(mm, eo, n))
                for bits in range(1 << n):
                    colors = [c for c in range(n) if bits >> c & 1]
                    assert ev(f, colors) == \
                        reference_parity_accepts(mm, eo, n, colors), \
                        (mm, eo, n, colors)


def test_dual_negates_eval():
    rng = random.Random(88)

    def rand_formula(depth):
        pick = rng.random()
        if depth == 0 or pick < 0.4:
            c = rng.randrange(5)
            return Fin(c) if rng.random() < 0.5 else Inf(c)
        kids = [rand_formula(depth - 1) for _ in range(2)]
        return f_and(kids) if pick < 0.7 else f_or(kids)

    for _ in range(200):
        f = rand_formula(3)
        g = dual(f)
        for bits in range(32):
            colors = [c for c in range(5) if bits >> c & 1]
            assert ev(g, colors) == (not ev(f, colors))


def test_subst_and_shift():
    f = And((Fin(0), Inf(1)))
    assert subst(f, {0: True}, {}) == Inf(1)
    assert subst(f, {0: False}, {}) is FALSE
    assert subst(f, {}, {1: True}) == Fin(0)
    assert shift_colors(f, 2) == And((Fin(2), Inf(3)))
    assert used_colors(shift_colors(f, 2)) == 0b1100


# ------------------------------------------------------------ normal forms

def test_dnf():
    f = And((Or((Fin(0), Inf(1))), Inf(2)))
    d = to_dnf(f)
    assert dnf_disjuncts(d) == [(frozenset([0]), frozenset([2])),
                                (frozenset(), frozenset([1, 2]))] or \
        dnf_disjuncts(d) == [(frozenset(), frozenset([1, 2])),
                             (frozenset([0]), frozenset([2]))]
    # contradictory Fin(i) & Inf(i) branches drop out
    g = And((Fin(0), Inf(0)))
    assert to_dnf(g) is FALSE
    assert dnf_disjuncts(TRUE) is None
    assert dnf_disjuncts(FALSE) == []


def test_dnf_preserves_semantics():
    rng = random.Random(4711)

    def rand_formula(depth):
        pick = rng.random()
        if depth == 0 or pick < 0.4:
            c = rng.randrange(4)
            return Fin(c) if rng.random() < 0.5 else Inf(c)
        kids = [rand_formula(depth - 1) for _ in range(2)]
        return f_and(kids) if pick < 0.7 else f_or(kids)

    for _ in range(200):
        f = rand_formula(3)
        d = to_dnf(f)
        for bits in range(16):
            colors = [c for c in range(4) if bits >> c & 1]
            assert ev(f, colors) == ev(d, colors)


# ----------------------------------------------------------------- classes

def test_class_colors():
    assert class_colors(AccClass("Buchi")) == 1
    assert class_colors(generalized_buchi(3)) == 3
    assert class_colors(rabin(2)) == 4
    assert class_colors(streett(3)) == 6
    assert class_colors(generalized_rabin([2, 0, 1])) == 6
    assert class_colors(parity("max", "odd", 5)) == 5
    assert class_colors(AccClass("Fin-less")) == 2


def test_make_class_shapes():
    assert make_class(AccClass("Buchi")) == Inf(0)
    assert make_class(AccClass("co-Buchi")) == Fin(0)
    assert make_class(generalized_buchi(2)) == And((Inf(0), Inf(1)))
    assert make_class(generalized_co_buchi(2)) == Or((Fin(0), Fin(1)))
    assert make_class(rabin(2)) == \
        Or((And((Fin(0), Inf(1))), And((Fin(2), Inf(3)))))
    assert make_class(streett(2)) == \
        And((Or((Inf(0), Fin(1))), Or((Inf(2), Fin(3)))))
    # Fin block first, then the Inf blocks
    assert make_class(generalized_rabin([2, 1])) == \
        Or((And((Fin(0), Inf(2), Inf(3))), And((Fin(1), Inf(4)))))
    # the Fin-less class has no single shape; its representative must
    # recognize back as Fin-less
    rep = make_class(AccClass("Fin-less"))
    assert is_finless(rep)
    assert recognize(rep) == AccClass("Fin-less")


def test_recognize_identity_nondegenerate():
    classes = [AccClass("Buchi"), AccClass("co-Buchi"),
               generalized_buchi(2), generalized_buchi(3),
               generalized_co_buchi(2), generalized_co_buchi(3),
               rabin(1), rabin(2), rabin(3),
               streett(1), streett(2), streett(3),
               generalized_rabin([2]), generalized_rabin([0, 1]),
               generalized_rabin([1, 1]), generalized_rabin([2, 0, 1])]
    for mm in ("min", "max"):
        for eo in ("even", "odd"):
            classes.append(parity(mm, eo, 3))
            classes.append(parity(mm, eo, 4))
    classes.append(parity("max", "even", 2))
    classes.append(parity("max", "odd", 2))
    for cls in classes:
        assert recognize(make_class(cls)) == cls, cls


def test_recognize_degenerate_collapse():
    # several classes share a formula; recognition returns the most
    # specific name
    collapse = [
        (generalized_buchi(1), AccClass("Buchi")),
        (generalized_co_buchi(1), AccClass("co-Buchi")),
        (parity("min", "even", 1), AccClass("Buchi")),
        (parity("max", "even", 1), AccClass("Buchi")),
        (parity("min", "odd", 1), AccClass("co-Buchi")),
        (parity("max", "odd", 1), AccClass("co-Buchi")),
        (parity("min", "even", 2), streett(1)),
        (parity("min", "odd", 2), rabin(1)),
        (generalized_rabin([1]), rabin(1)),
        (generalized_rabin([0]), AccClass("co-Buchi")),
        (generalized_rabin([0, 0]), generalized_co_buchi(2)),
    ]
    for cls, expect in collapse:
        assert recognize(make_class(cls)) == expect, cls


def test_recognize_rejects_near_misses():
    assert recognize(Inf(1)) == AccClass("Fin-less")
    assert recognize(And((Inf(0), Inf(2)))) == AccClass("Fin-less")
    assert recognize(Or((Fin(1), Fin(2)))) is None
    # matching ignores child order, so And(Inf(1), Fin(0)) is still the
    # Rabin pair; shifted colors are not
    assert recognize(And((Inf(1), Fin(0)))) == rabin(1)
    assert recognize(And((Fin(1), Inf(2)))) is None
    # the constants use no Fin atom, so they sit in the Fin-less class
    assert recognize(TRUE) == AccClass("Fin-less")
    assert recognize(FALSE) == AccClass("Fin-less")


def test_parity_readings():
    assert set(parity_readings(Inf(0))) == {("min", "even", 1),
                                            ("max", "even", 1)}
    assert set(parity_readings(Fin(0))) == {("min", "odd", 1),
                                            ("max", "odd", 1)}
    assert parity_readings(make_class(parity("min", "even", 4))) == \
        [("min", "even", 4)]
    assert parity_readings(Inf(1)) == []
    assert parity_readings(TRUE) == []
    assert parity_of(parity("max", "odd", 3)) == ("max", "odd", 3)
    assert parity_of(AccClass("Buchi")) is None


def _formula_of(code):
    """The formula of a postfix code, built as given, without folding."""
    stack = []
    for x in code:
        if x & 2:
            n = len(stack) - (x >> 2)
            node = (And if x & 3 == 2 else Or)(tuple(stack[n:]))
            del stack[n:]
        else:
            node = (Inf if x & 1 else Fin)(x >> 2)
        stack.append(node)
    return stack[0]


def _unordered(formula):
    """The formula's tree as nested tuples, And/Or operands sorted."""
    stack = []
    for x in formula.code:
        n = len(stack) - (x >> 2) if x & 2 else len(stack)
        node = (x, *sorted(stack[n:]))
        del stack[n:]
        stack.append(node)
    return stack[0]


def test_parity_readings_are_the_matching_canonical_shapes():
    # each canonical parity formula and each edit of one of its items (an
    # operator's kind, an atom's kind or color), as built, folded and
    # commuted: the readings are the shapes equal to it up to operand order
    rng = random.Random(31)
    kinds = [(mm, eo) for mm in ("min", "max") for eo in ("even", "odd")]
    matched = missed = 0
    for n in range(1, 9):
        for kind in kinds:
            code = make_class(parity(*kind, n)).code
            edits = [code] + [
                code[:i] + (y,) + code[i + 1:] for i, x in enumerate(code)
                for y in ((x ^ 1,) if x & 2 else (x ^ 1, x + 4, x - 4))
                if y >= 0]
            for edit in edits:
                f = _formula_of(edit)
                for g in (f, parse_acceptance(str(f)), _commuted(f, rng)):
                    atoms = sum(not x & 2 for x in g.code)
                    want = [(mm, eo, atoms) for mm, eo in kinds
                            if _unordered(g) == _unordered(
                                make_class(parity(mm, eo, atoms)))]
                    assert parity_readings(g) == want, str(g)
                    matched += bool(want)
                    missed += not want
    assert matched > 100 and missed > 1000


def test_acc_name():
    assert acc_name(TRUE, 0) == "all"
    assert acc_name(FALSE, 0) == "none"
    assert acc_name(Inf(0), 1) == "Buchi"
    assert acc_name(make_class(streett(2)), 4) == "Streett 2"
    assert acc_name(make_class(parity("min", "odd", 3)), 3) == \
        "parity min odd 3"
    assert acc_name(make_class(generalized_rabin([1, 2])), 5) is None
    assert acc_name(Inf(1), 2) is None
    # a class is named only at its own color count, as Spot's is_buchi()
    assert acc_name(Inf(0), 3) is None
    assert acc_name(make_class(streett(2)), 5) is None
    assert acc_name(make_class(parity("max", "even", 3)), 4) is None


# ------------------------------------------------------- parity conversion

def edge_subset_statuses(aut, formula):
    """Acceptance status of every strongly-connected edge subset.

    Two same-graph automata have the same language iff these agree."""
    from elaut.algorithms import scc_info
    idxs = [i for i in range(1, len(aut.edges)) if aut.edges[i] is not None]
    statuses = {}
    for bits in range(1, 1 << len(idxs)):
        chosen = [idxs[k] for k in range(len(idxs)) if bits >> k & 1]
        nodes = set()
        for i in chosen:
            e = aut.edges[i]
            nodes.add(e.src)
            nodes.add(e.dst)
        # strong connectivity of the chosen edge subgraph
        adj = {v: [] for v in nodes}
        for i in chosen:
            adj[aut.edges[i].src].append(aut.edges[i].dst)
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != nodes:
            continue
        radj = {v: [] for v in nodes}
        for i in chosen:
            radj[aut.edges[i].dst].append(aut.edges[i].src)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in radj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != nodes:
            continue
        colors = set()
        for i in chosen:
            colors.update(colors_of(aut.edges[i].acc))
        statuses[bits] = eval_acceptance(formula, cs(colors))
    return statuses


def test_change_parity_identity():
    from elaut.algorithms import random_automaton
    aut = random_automaton(4, 1, density=0.6, colors=3, color_density=0.5,
                           acceptance=parity("min", "even", 3), seed=11)
    same = change_parity(aut, "min even")
    assert print_hoa(same) == print_hoa(aut)


def test_change_parity_all_pairs_preserve_language():
    from elaut.algorithms import random_automaton
    rng = random.Random(2024)
    kinds = [("min", "even"), ("min", "odd"), ("max", "even"), ("max", "odd")]
    for trial in range(40):
        n = rng.randrange(1, 5)
        src_mm, src_eo = kinds[trial % 4]
        aut = random_automaton(rng.randrange(2, 5), 1,
                               density=rng.uniform(0.3, 0.8), colors=n,
                               color_density=rng.uniform(0.2, 0.7),
                               acceptance=parity(src_mm, src_eo, n),
                               seed=rng.randrange(10 ** 6))
        before = edge_subset_statuses(aut, aut.acceptance)
        for tgt_mm, tgt_eo in kinds:
            out = change_parity(aut, "%s %s" % (tgt_mm, tgt_eo))
            got = parity_of(recognize(out.acceptance))
            if got is not None and (got[0], got[1]) != (tgt_mm, tgt_eo):
                # degenerate readings may recognize under another name,
                # but the requested reading must be available
                assert (tgt_mm, tgt_eo) in \
                    [(mm, eo) for (mm, eo, _) in
                     parity_readings(out.acceptance)]
            after = edge_subset_statuses(out, out.acceptance)
            assert after == before, (trial, tgt_mm, tgt_eo)


def test_change_parity_rejects_non_parity():
    from elaut.algorithms import random_automaton
    aut = random_automaton(3, 1, density=0.5, colors=4, color_density=0.3,
                           acceptance=rabin(2), seed=5)
    with pytest.raises(ValueError):
        change_parity(aut, "min even")


def test_change_parity_bad_target():
    from elaut.algorithms import random_automaton
    aut = random_automaton(2, 1, density=0.5, colors=1, color_density=0.5,
                           acceptance=AccClass("Buchi"), seed=5)
    with pytest.raises(ValueError):
        change_parity(aut, "sideways even")


# sha256 prefixes of print_hoa(change_parity(...)) per (source, target)
# shape, over seeded automata that have uncolored edges and colors >= n;
# recorded before the recoloring was shared with colorize_parity.  The
# eight same-parity targets (even to even, odd to odd) were re-recorded
# when acc-name came to be printed only for a class of exactly the
# declared color count: those outputs keep the input's n + 2 colors, so
# they lost their acc-name line and nothing else.
PARITY_KINDS = [("min", "even"), ("min", "odd"), ("max", "even"),
                ("max", "odd")]
PARITY_SIZES = (1, 2, 3, 4, 5, 31, 33)


def parity_inputs(mm, eo):
    from elaut.algorithms import random_automaton
    for k, n in enumerate(PARITY_SIZES):
        yield random_automaton(3 + k % 3, 2, density=0.5, colors=n + 2,
                               color_density=0.3 if n < 8 else 0.03,
                               acceptance=parity(mm, eo, n), seed=k)


CHANGE_PARITY_DIGESTS = {
    ("min", "even", "min", "even"): "356eaba71bff607c",
    ("min", "even", "min", "odd"): "33cfaee2467d67b8",
    ("min", "even", "max", "even"): "0c9277f2adbe8d06",
    ("min", "even", "max", "odd"): "0cac55963629de31",
    ("min", "odd", "min", "even"): "7350c5847c6fbcf8",
    ("min", "odd", "min", "odd"): "eeb8b19ca9f23a38",
    ("min", "odd", "max", "even"): "f684d3d7033f6aa9",
    ("min", "odd", "max", "odd"): "a63544bbd2fc24a1",
    ("max", "even", "min", "even"): "7c962f0f8b3326c7",
    ("max", "even", "min", "odd"): "5d153741009558e8",
    ("max", "even", "max", "even"): "ea3f553e28475624",
    ("max", "even", "max", "odd"): "b9c83b706f00d043",
    ("max", "odd", "min", "even"): "48ec5ae17e280f2c",
    ("max", "odd", "min", "odd"): "e26500d56d89227c",
    ("max", "odd", "max", "even"): "59b490cbac6e063e",
    ("max", "odd", "max", "odd"): "86f5bc43396b3d47",
}


def test_parity_inputs_cover_inert_and_uncolored_edges():
    for mm, eo in PARITY_KINDS:
        uncolored = inert = 0
        for aut in parity_inputs(mm, eo):
            n = aut.num_sets - 2
            for e in aut.edge_records():
                uncolored += not e.acc & ((1 << n) - 1)
                inert += e.acc >> n != 0
        assert uncolored and inert


@pytest.mark.parametrize("src", PARITY_KINDS)
@pytest.mark.parametrize("tgt", PARITY_KINDS)
def test_change_parity_outputs_are_stable(src, tgt):
    h = hashlib.sha256()
    for aut in parity_inputs(*src):
        h.update(print_hoa(change_parity(aut, "%s %s" % tgt)).encode())
    assert h.hexdigest()[:16] == CHANGE_PARITY_DIGESTS[src + tgt]


# ------------------------------------------------------- formula corpus pin

def _commuted(f, rng):
    """f with the children of every And/Or node shuffled."""
    if isinstance(f, (And, Or)):
        kids = [_commuted(c, rng) for c in f.children]
        rng.shuffle(kids)
        return type(f)(tuple(kids))
    return f


def formula_corpus():
    """Seeded formulas: random ones with folded constants, every class
    shape with its children commuted, t/f, deep parity conditions and
    generalized-Rabin shapes, plus parsed texts."""
    rng = random.Random(1313)

    def rand_formula(depth):
        pick = rng.random()
        if depth == 0 or pick < 0.3:
            c = rng.randrange(6)
            return rng.choice([Fin(c), Inf(c), Fin(c), Inf(c), TRUE, FALSE])
        kids = [rand_formula(depth - 1) for _ in range(rng.randrange(1, 4))]
        return f_and(kids) if pick < 0.65 else f_or(kids)

    out = [TRUE, FALSE, Fin(0), Inf(0), Fin(7), Inf(40)]
    out += [rand_formula(4) for _ in range(150)]
    shapes = [AccClass("Buchi"), AccClass("co-Buchi"), AccClass("Fin-less")]
    shapes += [generalized_buchi(k) for k in (1, 2, 5)]
    shapes += [generalized_co_buchi(k) for k in (1, 2, 5)]
    shapes += [rabin(k) for k in (1, 2, 3, 6)]
    shapes += [streett(k) for k in (1, 2, 3, 6)]
    shapes += [generalized_rabin(s) for s in
               ([0], [1], [2], [0, 0], [2, 1], [1, 1], [2, 0, 1], [3, 1, 2])]
    shapes += [parity(mm, eo, n) for mm in ("min", "max")
               for eo in ("even", "odd") for n in (1, 2, 3, 4, 5, 31, 33)]
    for cls in shapes:
        f = make_class(cls)
        out += [f, _commuted(f, rng), _commuted(f, rng)]
    out += [make_class(parity(mm, eo, 200)) for mm in ("min", "max")
            for eo in ("even", "odd")]
    out += [parse_acceptance(t) for t in (
        "Fin(0)&Inf(1)|Fin(2)&Inf(3)", " ( Inf(0) | t ) & Fin( 1 ) ",
        "((Inf(0)))&(Inf(1)&Inf(2))", "Inf(0)|(Inf(1)|Inf(2))&Fin(3)",
        "f|Fin(0)", "t&Inf(1)", "(f)&Inf(0)", "Inf(2)&Inf(2)|Fin(2)")]
    return out


def formula_digest_lines(f, rng):
    """What the formula functions make of f, one text line each."""
    cols = colors_of(used_colors(f))
    fin_map = {c: rng.random() < 0.5 for c in cols if rng.random() < 0.4}
    inf_map = {c: rng.random() < 0.5 for c in cols if rng.random() < 0.4}
    dis = dnf_disjuncts(f)
    yield str(f)
    yield str(to_dnf(f))
    yield repr(None if dis is None else
               [(sorted(a), sorted(b)) for a, b in dis])
    yield str(dual(f))
    yield str(subst(f, fin_map, inf_map))
    yield str(recognize(f))
    yield str(acc_name(f, len(cols)))
    yield repr(parity_readings(f))
    again = parse_acceptance(str(f))
    yield repr((is_finless(f), cols, again == f, hash(again) == hash(f)))


def mutated_texts(texts, rng):
    """Formula texts with one to three random edits each."""
    chars = "()&|tfFinI 0123456789x-"
    for text in texts:
        for _ in range(4):
            t = list(text)
            for _ in range(rng.randrange(1, 4)):
                op = rng.randrange(4)
                i = rng.randrange(len(t) + 1)
                if op == 0 and i < len(t):
                    del t[i]
                elif op == 1:
                    t.insert(i, rng.choice(chars))
                elif op == 2 and i + 1 < len(t):
                    t[i], t[i + 1] = t[i + 1], t[i]
                elif i < len(t):
                    t[i:i] = t[i:i + 3]
            yield "".join(t)


# sha256 prefix of formula_digest_lines over formula_corpus, then of the
# parse result or AcceptanceParseError message and pos of mutated texts;
# recorded on the recursive formula trees before the flat code replaced
# them
FORMULA_CORPUS_DIGEST = "31e23e641cc28f2e"
PARSE_ERROR_DIGEST = "df223d6ee50aaf0b"


def test_formula_corpus_outputs_are_stable():
    rng = random.Random(77)
    h = hashlib.sha256()
    for f in formula_corpus():
        for line in formula_digest_lines(f, rng):
            h.update(line.encode() + b"\n")
    assert h.hexdigest()[:16] == FORMULA_CORPUS_DIGEST


def test_formula_parse_errors_are_stable():
    rng = random.Random(78)
    texts = [str(f) for f in formula_corpus()[:180]]
    h = hashlib.sha256()
    for text in mutated_texts(texts, rng):
        for limit in (None, 4):
            try:
                got = "ok %s" % parse_acceptance(text, max_colors=limit)
            except AcceptanceParseError as exc:
                got = "error %s %d" % (exc, exc.pos)
            h.update(("%r %s\n" % (text, got)).encode())
    assert h.hexdigest()[:16] == PARSE_ERROR_DIGEST



def test_fold_unwraps_operators_of_one_operand():
    # the classes build an And or Or of one operand as given; f_and and
    # f_or merge such an operand of their own kind like any other
    assert f_and([And([Inf(0)])]) == Inf(0)
    assert f_or([Or([Inf(0)])]) == Inf(0)
    assert f_and([TRUE, And([Fin(1)]), Inf(0)]) == f_and([Fin(1), Inf(0)])
    sets = range(16)
    for inner in (Inf(0), Fin(1), f_or([Inf(0), Fin(1)]),
                  f_and([Inf(2), Fin(0)])):
        for wrap, fold in ((And, f_and), (Or, f_or)):
            for rest in ([], [Inf(3)], [TRUE], [FALSE, Fin(3)]):
                want = fold([inner] + rest)
                for args in ([wrap([inner])] + rest, rest + [wrap([inner])]):
                    got = fold(args)
                    assert [eval_acceptance(got, s) for s in sets] == \
                        [eval_acceptance(want, s) for s in sets]
