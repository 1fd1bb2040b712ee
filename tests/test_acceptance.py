"""End-to-end acceptance suite.

Each test certifies one headline guarantee of the package against an
independent oracle or a hand-derived reference, and pins a wall-clock
budget.  Run with -s to see one PASS line per guarantee; without -s the
per-test PASSED/FAILED report serves the same purpose.
"""

import os
import random
import struct
import time

from elaut import (
    Automaton, GuardStore, MealyMachine, eval_acceptance,
    is_empty, make_class, mealy_to_aiger, parity, parse_acceptance,
    parse_hoa, print_hoa, product, random_automaton, remove_alternation,
    remove_fin, simulate_aig, simulate_mealy, solve_parity_max_odd,
)
from elaut.acceptance import (
    BUCHI, CO_BUCHI, FIN_LESS, Fin, class_colors, generalized_buchi,
    generalized_co_buchi, generalized_rabin, rabin, recognize, streett,
)

from oracle_helpers import (
    alt_buchi_word_in, check_parity_strategy, empty_by_edge_subsets,
    parity_winners_by_enumeration, random_alt_buchi, random_parity_game,
    random_words, word_in_gen_buchi,
)
from test_hoa import same_tables

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")


def report(label, t0, budget=None):
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, "%s took %.2fs, budget %ss" % (label, dt, budget)
        print("PASS  %s  (%.2fs, budget %ss)" % (label, dt, budget))
    else:
        print("PASS  %s  (%.2fs)" % (label, dt))


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


# ---------------------------------------------- 1. named acceptance classes

def class_catalog():
    rows = [BUCHI, CO_BUCHI, FIN_LESS]
    for k in (1, 2, 3):
        rows += [generalized_buchi(k), generalized_co_buchi(k),
                 rabin(k), streett(k)]
    rows += [generalized_rabin((1,)), generalized_rabin((2, 1)),
             generalized_rabin((1, 2, 3))]
    for mm in ("min", "max"):
        for eo in ("even", "odd"):
            for n in (1, 2, 3):
                rows.append(parity(mm, eo, n))
    return rows


# small instances whose canonical formula coincides with a narrower class
COLLAPSED = {
    "generalized-Buchi 1": BUCHI,
    "generalized-co-Buchi 1": CO_BUCHI,
    "generalized-Rabin 1 1": rabin(1),
    "parity min even 1": BUCHI,
    "parity min even 2": streett(1),
    "parity min odd 1": CO_BUCHI,
    "parity min odd 2": rabin(1),
    "parity max even 1": BUCHI,
    "parity max odd 1": CO_BUCHI,
}

# nesting written out by hand from the min/max color-rank reading
PARITY_NESTINGS_4 = {
    ("min", "even"): "Inf(0) | (Fin(1) & (Inf(2) | Fin(3)))",
    ("min", "odd"): "Fin(0) & (Inf(1) | (Fin(2) & Inf(3)))",
    ("max", "even"): "Fin(3) & (Inf(2) | (Fin(1) & Inf(0)))",
    ("max", "odd"): "Inf(3) | (Fin(2) & (Inf(1) | Fin(0)))",
}


def rank_parity_accepts(min_max, even_odd, n, colors):
    # extremal seen color, with the out-of-range default for no colors
    if min_max == "min":
        ext = min(colors | {n})
    else:
        ext = max(colors | {-1})
    return ext % 2 == (0 if even_odd == "even" else 1)


def test_named_class_catalog_and_parity_nestings():
    t0 = time.perf_counter()
    rows = class_catalog()
    assert len({c.kind for c in rows}) == 12
    for cls in rows:
        f = make_class(cls)
        assert parse_acceptance(str(f)) == f
        rec = recognize(f)
        if cls.name() in COLLAPSED:
            assert rec == COLLAPSED[cls.name()]
            # a collapse is only legal when the formulas coincide
            assert make_class(rec) == f
        else:
            assert rec == cls

    for (mm, eo), text in PARITY_NESTINGS_4.items():
        lib = make_class(parity(mm, eo, 4))
        hand = parse_acceptance(text)
        for bits in range(16):
            seen = {c for c in range(4) if bits >> c & 1}
            want = rank_parity_accepts(mm, eo, 4, seen)
            assert eval_acceptance(hand, bits) == want, (mm, eo, bits)
            assert eval_acceptance(lib, bits) == want, (mm, eo, bits)
    report("named classes round-trip; parity formulas match hand nesting",
           t0, 1)


# ------------------------------------------------- 2. emptiness decision

def test_emptiness_agrees_with_edge_subset_oracle():
    t0 = time.perf_counter()
    corpus = small_corpus(1000)
    nonempty = 0
    for aut in corpus:
        lib = is_empty(aut)
        assert lib == empty_by_edge_subsets(aut)
        nonempty += 0 if lib else 1
    assert 0 < nonempty < len(corpus)  # both outcomes exercised
    report("emptiness agrees with subset-enumeration oracle on 1000 automata",
           t0, 60)


# ------------------------------------------------------- 3. Fin removal

def has_fin_atom(formula):
    if isinstance(formula, Fin):
        return True
    return any(has_fin_atom(c) for c in getattr(formula, "children", ()))


def test_fin_removal_preserves_language_emptiness():
    t0 = time.perf_counter()
    corpus = small_corpus(1000)
    buchis = []
    for k in range(100):
        rng = random.Random(50_000 + k)
        buchis.append(random_automaton(
            states=rng.randint(1, 5),
            aps=2,
            density=rng.uniform(0.2, 0.5),
            colors=1,
            color_density=0.5,
            acceptance=BUCHI,
            seed=50_000 + k))
    for i, aut in enumerate(corpus):
        finless = remove_fin(aut)
        assert not has_fin_atom(finless.acceptance)
        assert is_empty(finless) == is_empty(aut)
        b = buchis[i % 100]
        assert is_empty(product(finless, b)) == is_empty(product(aut, b))
    report("remove_fin keeps emptiness, alone and under 1000 products",
           t0, 120)


# ------------------------------------------- 4. alternation elimination

def test_alternation_removal_preserves_word_membership():
    t0 = time.perf_counter()
    checks = accepted = 0
    for seed in range(200):
        aut = random_alt_buchi(seed)
        out = remove_alternation(aut)
        assert not out.has_universal_branches()
        assert out.num_states <= 3 ** aut.num_states
        rng = random.Random(10_000 + seed)
        for prefix, cycle in random_words(rng, len(aut.aps), count=6):
            want = alt_buchi_word_in(aut, prefix, cycle)
            assert word_in_gen_buchi(out, prefix, cycle) == want
            checks += 1
            accepted += 1 if want else 0
    assert checks >= 1000
    assert 0 < accepted < checks
    report("alternation removal matches run-tree membership on %d words"
           % checks, t0, 120)


# ------------------------------------------------------ 5. parity games

def test_parity_solver_agrees_with_strategy_enumeration():
    t0 = time.perf_counter()
    mixed = 0
    for seed in range(500):
        game, players = random_parity_game(seed)
        n = game.num_states
        w0, w1 = parity_winners_by_enumeration(game, players)
        assert w0 | w1 == set(range(n)) and not (w0 & w1)  # determinacy
        sol = solve_parity_max_odd(game)
        assert {s for s in range(n) if sol.winners[s] == 1} == w1
        check_parity_strategy(game, players, sol.winners, sol.strategy)
        if w0 and w1:
            mixed += 1
    assert mixed > 0
    report("parity solver matches strategy enumeration on 500 games",
           t0, 120)


# --------------------------------------------- 6. circuit co-simulation

def previous_and_present_machine():
    # output = input held both now and in the previous step
    store = GuardStore(2)
    a, na = store.parse_label("0"), store.parse_label("!0")
    b, nb = store.parse_label("1"), store.parse_label("!1")
    edges = [
        [(a, nb, 1), (na, nb, 0)],
        [(a, b, 1), (na, nb, 0)],
    ]
    return MealyMachine(["a", "b"], [0], [1], store, 2, 0, edges)


def test_memory_machine_circuit_cosimulation():
    t0 = time.perf_counter()
    m = previous_and_present_machine()
    aig = mealy_to_aiger(m)
    assert aig.num_latches == 1
    rng = random.Random(77)
    for _ in range(1000):
        steps = [rng.choice("01") for _ in range(20)]
        assert simulate_aig(aig, steps) == simulate_mealy(m, steps)
    report("two-state machine maps to a 1-latch circuit; 1000 co-simulations",
           t0, 10)


# ------------------------------------------------------ 7. edge storage

def test_edge_storage_layout_and_color_capacity():
    t0 = time.perf_counter()

    aut = Automaton(aps=["a"])
    aut.new_states(2)
    t = aut.store.parse_label("t")
    pos = aut.store.parse_label("0")
    aut.set_acceptance(2, parse_acceptance("Inf(0)&Inf(1)"))
    aut.new_edge(0, 1, pos, [0])
    aut.new_edge(1, 0, t, [0, 1])
    packed = aut.pack_edges()
    assert len(packed) == 2 * 20
    # five little-endian 32-bit fields: src, dst, cond, acc, next
    src, dst, cond, acc, nxt = struct.unpack_from("<5I", packed, 0)
    assert (src, dst, cond, acc) == (0, 1, pos, 0b01)
    src, dst, cond, acc, nxt = struct.unpack_from("<5I", packed, 20)
    assert (src, dst, cond, acc, nxt) == (1, 0, t, 0b11, 0)

    wide = Automaton()
    wide.new_state()
    wide.set_acceptance(64, parse_acceptance("Inf(63)"))
    wide.new_edge(0, 0, 1, [63])
    # one more 32-bit color word: 24 bytes
    assert len(wide.pack_edges()) == 24
    # colors have no width: a higher edge color widens the packed words
    wide.new_edge(0, 0, 1, [64])
    packed = wide.pack_edges()
    assert len(packed) == 2 * 28
    assert struct.unpack_from("<7I", packed, 28)[3:6] == (0, 0, 1)
    for bad in (-1, [-1], None):
        try:
            wide.new_edges([(0, 0, 1, bad)])
            assert False, "%r must not be colors" % (bad,)
        except ValueError:
            pass
    report("edge records pack to 4+words 32-bit fields; colors are "
           "non-negative ints", t0)


# ------------------------------------------------------ 8. HOA identity

def hoa_corpus():
    texts = []
    for name in sorted(os.listdir(GOLDEN)):
        if name.endswith(".in.hoa"):
            with open(os.path.join(GOLDEN, name)) as fh:
                texts.append(fh.read())
    for i, cls in enumerate(class_catalog()):
        texts.append(print_hoa(random_automaton(
            states=3 + i % 4, aps=i % 3, density=0.4,
            colors=class_colors(cls), color_density=0.5,
            acceptance=cls, seed=300 + i)))
    for seed in range(6):
        texts.append(print_hoa(random_alt_buchi(seed)))
    for seed in range(5):
        game, _ = random_parity_game(seed)
        texts.append(print_hoa(game))
    texts.append("""HOA: v1
States: 2
Start: 0
AP: 1 "p"
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[0] 1
State: 1
[t] 0
--END--
""")
    texts.append("""HOA: v1
States: 2
Start: 0
AP: 0
Acceptance: 2 Fin(0) | Fin(1)
--BODY--
State: 0 {0 1}
[t] 1
State: 1 {1}
[t] 0
--END--
""")
    return texts


def test_hoa_print_parse_fixpoint_corpus():
    t0 = time.perf_counter()
    texts = hoa_corpus()
    assert len(texts) >= 50
    saw_alt = saw_game = False
    for text in texts:
        first = parse_hoa(text)
        printed = print_hoa(first)
        second = parse_hoa(printed)
        assert print_hoa(second) == printed
        assert same_tables(first, second)
        saw_alt = saw_alt or first.has_universal_branches()
        saw_game = saw_game or (
            first.get_named_prop("state-player", list) is not None)
    assert saw_alt and saw_game

    for name in sorted(os.listdir(GOLDEN)):
        if not name.endswith(".in.hoa"):
            continue
        stem = name[:-len(".in.hoa")]
        with open(os.path.join(GOLDEN, name)) as fh:
            src = fh.read()
        with open(os.path.join(GOLDEN, stem + ".out.hoa")) as fh:
            frozen = fh.read()
        assert print_hoa(parse_hoa(src)) == frozen
    report("print/parse reaches a fixpoint on %d automata; goldens stable"
           % len(texts), t0)


# ------------------------------------------------------ 9. guard algebra

def test_guard_algebra_laws():
    t0 = time.perf_counter()
    store = GuardStore(2)
    true_g = store.parse_label("t")
    false_g = store.parse_label("f")
    funcs = []
    for bits in range(16):
        gid = store.intern(bits)
        assert store.bits_of(gid) == bits
        # a second route: disjunction of minterm cubes
        byhand = false_g
        for m in range(4):
            if bits >> m & 1:
                cube = store.g_and(store.lit(0, m & 1 == 1),
                                   store.lit(1, m >> 1 & 1 == 1))
                byhand = store.g_or(byhand, cube)
        assert byhand == gid
        assert store.parse_label(store.print_label(gid)) == gid
        funcs.append(gid)

    for a in funcs:
        assert store.g_not(store.g_not(a)) == a
        assert store.g_and(a, true_g) == a
        assert store.g_or(a, false_g) == a
        assert store.g_and(a, store.g_not(a)) == false_g
        assert store.g_or(a, store.g_not(a)) == true_g
        for b in funcs:
            assert store.g_and(a, b) == store.g_and(b, a)
            assert store.g_or(a, b) == store.g_or(b, a)
            na, nb = store.g_not(a), store.g_not(b)
            assert store.g_not(store.g_and(a, b)) == store.g_or(na, nb)
            assert store.g_not(store.g_or(a, b)) == store.g_and(na, nb)
            assert store.g_or(a, store.g_and(a, b)) == a
            for c in funcs:
                ab_c = store.g_and(store.g_and(a, b), c)
                assert ab_c == store.g_and(a, store.g_and(b, c))
                assert (store.g_and(a, store.g_or(b, c))
                        == store.g_or(store.g_and(a, b),
                                      store.g_and(a, c)))

    wide = GuardStore(4)
    rng = random.Random(31337)
    for _ in range(1000):
        a = wide.intern(rng.getrandbits(16))
        b = wide.intern(rng.getrandbits(16))
        na, nb = wide.g_not(a), wide.g_not(b)
        assert wide.g_not(na) == a
        assert wide.g_not(wide.g_and(a, b)) == wide.g_or(na, nb)
        assert wide.g_not(wide.g_or(a, b)) == wide.g_and(na, nb)
        assert wide.parse_label(wide.print_label(a)) == a
    report("guard interning is canonical; Boolean laws hold", t0, 5)
