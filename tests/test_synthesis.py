"""Games, strategies, Mealy machines, and AIGER extraction.

Game solvers are checked against brute-force strategy enumeration from
oracle_helpers; circuits are co-simulated against the machines they
were built from.
"""

import hashlib
import random

import pytest

from elaut import (
    FALSE_GUARD, TRUE_GUARD, Automaton, GuardStore, MealyMachine, Solution,
    automaton_to_mealy, change_parity, colorize_parity, make_class, make_game,
    mealy_to_aiger, mealy_to_automaton, parity, parse_acceptance, parse_hoa,
    print_aiger, print_hoa, simulate_aig, simulate_mealy, solve_game,
    solve_parity_max_odd, solve_safety, state_players, strategy_to_mealy,
    validate_mealy,
)
from elaut.cli import main
from elaut.synthesis import _output_choice
from oracle_helpers import (
    _sccs_of_rows, build, check_parity_strategy, midpoint_zielonka,
    parity_winners_by_enumeration, random_parity_game,
    safety_winners_by_enumeration,
)
from test_acc_formulas import parity_inputs

MAX_ODD_4 = make_class(parity("max", "odd", 4))


def safety_game(edges, players, aps=()):
    return build(list(aps), 0, parse_acceptance("t"), edges,
                 players=players)


# ------------------------------------------------------------ ownership

def test_make_game_validation():
    aut = build([], 1, parse_acceptance("Inf(0)"), [(0, "t", 1, [0]),
                                                    (1, "t", 0, [])])
    with pytest.raises(ValueError):
        make_game(aut, [0])
    with pytest.raises(ValueError):
        make_game(aut, [0, 2])
    make_game(aut, [0, 1])
    assert state_players(aut) == [0, 1]
    plain = build([], 1, parse_acceptance("Inf(0)"), [(0, "t", 0, [0])])
    with pytest.raises(ValueError):
        state_players(plain)


# --------------------------------------------------------- safety games

def test_solve_safety_hand_games():
    # player 0 pushes the play into the player-1 deadlock at state 1
    g = safety_game([(0, "t", 1, []), (0, "t", 2, []), (2, "t", 0, [])],
                    [0, 1, 1])
    sol = solve_safety(g)
    assert sol.winners == [0, 0, 0]
    assert g.edges[sol.strategy[0]].dst == 1
    assert g.get_named_prop("state-winner", list) == sol.winners
    assert g.get_named_prop("strategy", list) == sol.strategy

    # with the deadlock unreachable player 1 just keeps the loop going
    g2 = safety_game([(0, "t", 2, []), (2, "t", 0, [])], [0, 1, 1])
    sol2 = solve_safety(g2)
    assert sol2.winners == [1, 0, 1]

    boring = build([], 1, parse_acceptance("Inf(0)"),
                   [(0, "t", 0, [0])], players=[0])
    with pytest.raises(ValueError):
        solve_safety(boring)


def test_solve_safety_matches_enumeration():
    for seed in range(150):
        rng = random.Random(41_000 + seed)
        n = rng.randint(1, 7)
        aut = Automaton(())
        aut.new_states(n)
        for s in range(n):
            for _ in range(rng.randint(0, 2)):
                aut.new_edge(s, rng.randrange(n), 1, None)
        aut.set_acceptance(0, parse_acceptance("t"))
        aut.set_init(0)
        players = [rng.randint(0, 1) for _ in range(n)]
        make_game(aut, players)
        w0, w1 = safety_winners_by_enumeration(aut, players)
        sol = solve_safety(aut)
        assert {s for s in range(n) if sol.winners[s] == 0} == w0
        assert {s for s in range(n) if sol.winners[s] == 1} == w1


# --------------------------------------------------------- parity games

def test_solve_parity_hand_game():
    # player 0 owns state 0 and picks the even color to spoil the loop
    g = build([], 4, MAX_ODD_4,
              [(0, "t", 1, [1]), (0, "t", 1, [2]), (1, "t", 0, [0])],
              players=[0, 1])
    sol = solve_parity_max_odd(g)
    assert sol.winners == [0, 0]
    assert g.edges[sol.strategy[0]].acc == 1 << 2
    flipped = build([], 4, MAX_ODD_4,
                    [(0, "t", 1, [1]), (0, "t", 1, [2]),
                     (1, "t", 0, [0])],
                    players=[1, 0])
    assert solve_parity_max_odd(flipped).winners == [1, 1]


def test_solve_parity_matches_enumeration():
    for seed in range(250):
        g, players = random_parity_game(seed)
        n = g.num_states
        w0, w1 = parity_winners_by_enumeration(g, players)
        assert w0 | w1 == set(range(n)) and not (w0 & w1)
        sol = solve_parity_max_odd(g)
        assert {s for s in range(n) if sol.winners[s] == 1} == w1
        check_parity_strategy(g, players, sol.winners, sol.strategy)


def layered_parity_game(seed, ncolors=6):
    """A random max-odd parity game in blocks of states, each edge going
    within its block or down to an earlier one, so most games have
    several SCCs.  Some edges are false, some states get a parallel
    edge of another color, some only a self-loop, some none at all."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    g = Automaton(["a"])
    g.new_states(sum(sizes))
    guards = [1, 1, 1, 0, g.store.parse_label("0")]
    start = 0
    for size in sizes:
        for s in range(start, start + size):
            if rng.random() < 0.1:
                g.new_edge(s, s, 1, [rng.randrange(ncolors)])
                continue
            for _ in range(rng.randint(0, 3)):
                d = (rng.randrange(start) if start and rng.random() < 0.3
                     else rng.randrange(start, start + size))
                c = rng.randrange(ncolors)
                g.new_edge(s, d, rng.choice(guards), [c])
                if rng.random() < 0.15:
                    g.new_edge(s, d, 1, [(c + rng.randrange(1, ncolors))
                                         % ncolors])
        start += size
    g.set_acceptance(ncolors, make_class(parity("max", "odd", ncolors)))
    g.set_init(0)
    players = [rng.randint(0, 1) for _ in range(g.num_states)]
    return make_game(g, players), players


def test_solve_parity_matches_midpoint_reference():
    seen = dict.fromkeys(("deadlock", "parallel", "false", "sccs", "loop"),
                         0)
    for seed in range(400):
        g, players = layered_parity_game(59_000 + seed)
        winners, _ = midpoint_zielonka(g, players)
        sol = solve_parity_max_odd(g)
        assert sol.winners == winners, seed
        check_parity_strategy(g, players, sol.winners, sol.strategy)

        rows = [(i, e.src, e.dst, e.acc) for i, e in
                enumerate(g.edge_records(), 1) if e.cond != 0]
        outs = [[r for r in rows if r[1] == s] for s in range(g.num_states)]
        seen["deadlock"] += any(not o for o in outs)
        seen["parallel"] += len({r[1:] for r in rows}) > len(
            {r[1:3] for r in rows})
        seen["false"] += len(rows) < g.num_edges
        seen["sccs"] += len([c for c in _sccs_of_rows(rows)
                             if len(c) > 1 or any(r[1] == r[2] for r in rows
                                                  if r[1] in c)]) > 1
        seen["loop"] += any(len(o) == 1 and o[0][1] == o[0][2]
                            for o in outs)
    assert min(seen.values()) >= 250, seen


def test_solve_parity_rejects_unprepared_input():
    multi = build([], 4, MAX_ODD_4,
                  [(0, "t", 0, [0, 3])], players=[0])
    with pytest.raises(ValueError, match="colorize"):
        solve_parity_max_odd(multi)
    nonparity = build([], 2, parse_acceptance("Inf(0)&Inf(1)"),
                      [(0, "t", 0, [0])], players=[0])
    with pytest.raises(ValueError, match="parity"):
        solve_parity_max_odd(nonparity)


def test_colorize_parity():
    g = build([], 4, MAX_ODD_4,
              [(0, "t", 1, [1, 2]), (1, "t", 0, [])], players=[0, 1])
    c = colorize_parity(g)
    # colors shift by two, the larger one wins the edge; uncolored
    # edges take the neutral odd bottom color
    recs = list(c.edge_records())
    assert recs[0].acc == 1 << 4
    assert recs[1].acc == 1 << 1
    assert str(c.acceptance) == str(make_class(parity("max", "odd", 6)))
    with pytest.raises(ValueError):
        colorize_parity(build([], 2, parse_acceptance("Inf(0)&Inf(1)"),
                              [(0, "t", 0, [0])]))


def test_solve_game_dispatch():
    g = safety_game([(0, "t", 1, []), (1, "t", 0, [])], [0, 1])
    assert solve_game(g).winners == [1, 1]

    for seed in range(60):
        rng = random.Random(47_000 + seed)
        g, players = random_parity_game(seed)
        # blur some edges so the dispatch has to recolor
        blurred = False
        for e in g.edge_records():
            r = rng.random()
            if r < 0.25:
                e.acc = []
                blurred = True
            elif r < 0.4:
                e.acc |= 1 << rng.randrange(4)
        sol = solve_game(g)
        w0, w1 = parity_winners_by_enumeration(colorize_parity(g), players)
        assert {s for s in range(g.num_states) if sol.winners[s] == 1} == w1
        if blurred:
            assert g.get_named_prop("state-winner", list) == sol.winners

    bad = build([], 2, parse_acceptance("Inf(0)&Inf(1)"),
                [(0, "t", 0, [0])], players=[0])
    with pytest.raises(ValueError):
        solve_game(bad)


# ------------------------------------------------------- Mealy machines

def grant_game():
    # player 0 reads the request AP, player 1 answers with the grant AP
    g = build(["req", "grant"], 0, parse_acceptance("t"),
              [(0, "0", 1, []), (0, "!0", 2, []),
               (1, "1", 0, []),
               (2, "!1", 0, []), (2, "1", 0, [])],
              players=[0, 1, 1])
    g.set_named_prop("synthesis-outputs", [1])
    return g


def test_strategy_to_mealy_roundtrip():
    g = grant_game()
    sol = solve_safety(g)
    assert sol.winners == [1, 1, 1]
    m = strategy_to_mealy(g, sol)
    assert m.inputs == [0] and m.outputs == [1]
    assert m.num_states == 1 and m.origin == [0]
    validate_mealy(m)
    assert simulate_mealy(m, ["1", "0", "1", "1"]) == ["1", "0", "1", "1"]

    # the stored solution props work as well
    m2 = strategy_to_mealy(g)
    assert simulate_mealy(m2, ["1", "0"]) == ["1", "0"]


def test_strategy_to_mealy_rejects_bad_games():
    unsolved = grant_game()
    with pytest.raises(ValueError, match="not solved"):
        strategy_to_mealy(unsolved)

    lost = build(["req", "grant"], 0, parse_acceptance("t"),
                 [(0, "t", 1, [])], players=[0, 1])
    solve_safety(lost)
    with pytest.raises(ValueError, match="does not win"):
        strategy_to_mealy(lost)

    nonbip = build(["req", "grant"], 0, parse_acceptance("t"),
                   [(0, "t", 1, []), (1, "t", 1, [])], players=[0, 1])
    sol = Solution([1, 1], [0, 2])
    with pytest.raises(ValueError, match="bipartite"):
        strategy_to_mealy(nonbip, sol)

    flipped = grant_game()
    flipped.set_named_prop("state-player", [1, 0, 0])
    with pytest.raises(ValueError, match="initial state"):
        strategy_to_mealy(flipped, Solution([1, 1, 1], [1, 0, 0]))

    empty = make_game(Automaton(), [])
    with pytest.raises(ValueError, match="no states"):
        strategy_to_mealy(empty, solve_game(empty))


def two_state_memory_machine():
    # output = input held both now and in the previous step
    store = GuardStore(2)
    a, na = store.parse_label("0"), store.parse_label("!0")
    b, nb = store.parse_label("1"), store.parse_label("!1")
    edges = [
        [(a, nb, 1), (na, nb, 0)],      # nothing owed yet
        [(a, b, 1), (na, nb, 0)],       # saw the input last step
    ]
    return MealyMachine(["a", "b"], [0], [1], store, 2, 0, edges)


def test_memory_machine_behaviour():
    m = two_state_memory_machine()
    validate_mealy(m)
    assert simulate_mealy(m, ["1", "1", "0"]) == ["0", "1", "0"]
    assert simulate_mealy(m, ["1", "1", "1", "1"]) == ["0", "1", "1", "1"]
    assert simulate_mealy(m, ["0", "1", "0", "1"]) == ["0", "0", "0", "0"]


def test_memory_machine_single_latch_circuit():
    m = two_state_memory_machine()
    aig = mealy_to_aiger(m)
    assert aig.num_latches == 1
    assert aig.num_inputs == 1
    assert len(aig.outputs) == 1
    header = print_aiger(aig).splitlines()[0].split()
    assert header[0] == "aag"
    assert header[2:5] == ["1", "1", "1"]
    rng = random.Random(99)
    for _ in range(200):
        steps = ["".join(rng.choice("01")) for _ in range(20)]
        assert simulate_aig(aig, steps) == simulate_mealy(m, steps)


def test_validate_mealy_rejects_bad_machines():
    store = GuardStore(2)
    a, na = store.parse_label("0"), store.parse_label("!0")
    b = store.parse_label("1")

    cross = MealyMachine(["a", "b"], [0], [1], store, 1, 0,
                         [[(b, b, 0), (na, b, 0)]])
    with pytest.raises(ValueError, match="reads an output"):
        validate_mealy(cross)

    drives = MealyMachine(["a", "b"], [0], [1], store, 1, 0,
                          [[(a, a, 0), (na, b, 0)]])
    with pytest.raises(ValueError, match="drives an input"):
        validate_mealy(drives)

    empty = MealyMachine(["a", "b"], [0], [1], store, 1, 0,
                         [[(a, store.parse_label("f"), 0), (na, b, 0)]])
    with pytest.raises(ValueError, match="empty output"):
        validate_mealy(empty)

    overlap = MealyMachine(["a", "b"], [0], [1], store, 1, 0,
                           [[(a, b, 0), (store.parse_label("t"), b, 0)]])
    with pytest.raises(ValueError, match="overlapping"):
        validate_mealy(overlap)

    gap = MealyMachine(["a", "b"], [0], [1], store, 1, 0, [[(a, b, 0)]])
    with pytest.raises(ValueError, match="input-enabled"):
        validate_mealy(gap)


def reference_validate_mealy(m):
    """validate_mealy written with interned g_and and g_or: the
    reference for the checks on minterm bits."""
    inputs = set(m.inputs)
    outputs = set(m.outputs)
    for s in range(m.num_states):
        union = FALSE_GUARD
        for (gin, gout, dst) in m.edges[s]:
            if not set(m.store.support(gin)) <= inputs:
                raise ValueError(
                    "state %d: input guard reads an output AP" % s)
            if not set(m.store.support(gout)) <= outputs:
                raise ValueError(
                    "state %d: output guard drives an input AP" % s)
            if not m.store.is_sat(gout):
                raise ValueError("state %d: empty output choice" % s)
            if m.store.g_and(union, gin) != FALSE_GUARD:
                raise ValueError(
                    "state %d: overlapping input guards" % s)
            union = m.store.g_or(union, gin)
        if union != TRUE_GUARD:
            raise ValueError("state %d: not input-enabled" % s)
    return True


def seeded_machine(rng):
    """A valid machine whose input guards partition the input valuations
    in blocks of several cubes, with output guards that leave a choice,
    and at times an AP that is neither input nor output."""
    ni, no, nfree = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 1)
    roles = list(range(ni + no + nfree))
    rng.shuffle(roles)
    inputs, outputs = sorted(roles[:ni]), sorted(roles[ni:ni + no])
    store = GuardStore(len(roles))

    def over(aps, vals):
        # the minterms whose valuation of aps is one of vals
        return store.intern(sum(
            1 << m for m in range(store.nminterms)
            if sum((m >> a & 1) << k for k, a in enumerate(aps)) in vals))

    n = rng.randint(1, 4)
    edges = []
    for _ in range(n):
        vals = list(range(1 << ni))
        rng.shuffle(vals)
        cuts = sorted(rng.sample(range(1, len(vals)),
                                 rng.randint(0, min(3, len(vals) - 1))))
        row = []
        for lo, hi in zip([0] + cuts, cuts + [len(vals)]):
            gout = over(outputs, rng.sample(range(1 << no),
                                            rng.randint(1, 1 << no)))
            row.append((over(inputs, vals[lo:hi]), gout, rng.randrange(n)))
        edges.append(row)
    return MealyMachine(["p%d" % a for a in roles], inputs, outputs, store,
                        n, rng.randrange(n), edges)


def test_validate_mealy_matches_reference():
    seen = set()
    for seed in range(400):
        rng = random.Random(71_000 + seed)
        m = seeded_machine(rng)
        store = m.store
        row = m.edges[rng.randrange(m.num_states)]
        k = rng.randrange(len(row))
        gin, gout, dst = row[k]
        free = [a for a in range(len(m.aps))
                if a not in m.inputs and a not in m.outputs]
        fault = seed % 6                  # 0: none, then one per message
        if fault == 1:                    # an input guard reads a non-input
            ap = rng.choice(free + m.outputs)
            row[k] = (store.g_and(gin, store.lit(ap, rng.random() < 0.5)),
                      gout, dst)
        elif fault == 2:                  # an output guard reads a non-output
            ap = rng.choice(free + m.inputs)
            row[k] = (gin, store.g_or(gout, store.lit(ap)), dst)
        elif fault == 3:
            row[k] = (gin, FALSE_GUARD, dst)
        elif fault == 4:
            row.insert(k, (TRUE_GUARD, gout, dst))
        elif fault == 5:
            del row[k]
        size = len(store)
        try:
            got = validate_mealy(m)
        except ValueError as e:
            got = str(e)
        assert len(store) == size
        try:
            want = reference_validate_mealy(m)
        except ValueError as e:
            want = str(e)
        assert got == want
        seen.add(want if want is True else want.split(": ")[1])
        if fault in (1, 2) and ap in free and want is not True:
            seen.add("free AP")
    assert seen == {True, "input guard reads an output AP",
                    "output guard drives an input AP", "empty output choice",
                    "overlapping input guards", "not input-enabled",
                    "free AP"}


def test_simulate_mealy_errors():
    m = two_state_memory_machine()
    for row in ("10", "", "2", "9", "x", " 1", "-1"):
        with pytest.raises(ValueError, match="expected 1 input bits"):
            simulate_mealy(m, ["0", row])
    store = GuardStore(2)
    t = store.parse_label("t")
    b = store.parse_label("1")
    fuzzy = MealyMachine(["a", "b"], [0], [1], store, 1, 0,
                         [[(t, b, 0), (t, b, 0)]])
    with pytest.raises(ValueError, match="resolves"):
        simulate_mealy(fuzzy, ["1"])
    mute = MealyMachine(["a", "b"], [0], [1], store, 1, 0,
                        [[(t, FALSE_GUARD, 0)]])
    with pytest.raises(ValueError, match="empty output choice"):
        simulate_mealy(mute, ["1"])
    with pytest.raises(ValueError, match="empty output choice"):
        mealy_to_aiger(mute)


def random_mealy(seed):
    rng = random.Random(seed)
    ni = rng.randint(1, 2)
    no = rng.randint(1, 2)
    n = rng.randint(1, 4)
    aps = ["i%d" % k for k in range(ni)] + ["o%d" % k for k in range(no)]
    store = GuardStore(len(aps))
    edges = []
    for s in range(n):
        row = []
        for m in range(1 << ni):
            gin = store.intern(sum(1 << (m | (h << ni))
                                   for h in range(1 << no)))
            v = rng.randrange(1 << no)
            gout = store.intern(sum(1 << (l | (v << ni))
                                    for l in range(1 << ni)))
            row.append((gin, gout, rng.randrange(n)))
        edges.append(row)
    return MealyMachine(aps, list(range(ni)), list(range(ni, ni + no)),
                        store, n, rng.randrange(n), edges)


def test_random_machine_cosimulation():
    for seed in range(100):
        m = random_mealy(seed)
        validate_mealy(m)
        aig = mealy_to_aiger(m)
        assert aig.num_latches == (m.num_states - 1).bit_length()
        rng = random.Random(1000 + seed)
        steps = ["".join(rng.choice("01") for _ in range(len(m.inputs)))
                 for _ in range(20)]
        assert simulate_aig(aig, steps) == simulate_mealy(m, steps)


def test_mealy_automaton_roundtrip():
    m = two_state_memory_machine()
    aut = mealy_to_automaton(m)
    assert aut.get_named_prop("synthesis-outputs", list) == [1]
    back = automaton_to_mealy(aut)
    validate_mealy(back)
    rng = random.Random(5)
    steps = ["".join(rng.choice("01")) for _ in range(30)]
    assert simulate_mealy(back, steps) == simulate_mealy(m, steps)

    tangled = Automaton(["a", "b"])
    tangled.new_state()
    tangled.new_edge(0, 0, tangled.store.parse_label("(0&1)|(!0&!1)"))
    tangled.set_acceptance(0, parse_acceptance("t"))
    tangled.set_init(0)
    tangled.set_named_prop("synthesis-outputs", [1])
    with pytest.raises(ValueError, match="separable"):
        automaton_to_mealy(tangled)


def exists_split_mealy(aut):
    """automaton_to_mealy as it was when it split each label with two
    exists calls: the reference for the split at the lowest minterm."""
    outputs = aut.get_named_prop("synthesis-outputs", list)
    if outputs is None:
        raise ValueError("automaton declares no outputs")
    outputs = sorted(int(o) for o in outputs)
    inputs = [i for i in range(len(aut.aps)) if i not in outputs]
    store = aut.store
    edges = []
    for s in range(aut.num_states):
        row = []
        for i in aut.out_indices(s):
            cond, dst = aut.edge_cond[i], aut.edge_dst[i]
            if dst < 0:
                raise ValueError("machines have no universal branching")
            gin = store.exists(cond, outputs)
            gout = store.exists(cond, inputs)
            if store.bits_of(gin) & store.bits_of(gout) != store.bits_of(cond):
                raise ValueError(
                    "label at state %d is not input-output separable" % s)
            row.append((gin, gout, dst))
        edges.append(row)
    if aut.init < 0:
        raise ValueError("machines have no universal branching")
    return MealyMachine(list(aut.aps), inputs, outputs, aut.store,
                        aut.num_states, aut.init, edges, None)


def _mealy_outcome(read, aut):
    """What `read` makes of aut: the machine with its guards as minterm
    bits, or the error message."""
    try:
        m = read(aut)
    except ValueError as err:
        return str(err)
    bits = m.store.bits_of
    return (m.inputs, m.outputs, m.num_states, m.init,
            [[(bits(gin), bits(gout), dst) for gin, gout, dst in row]
             for row in m.edges])


def split_cases():
    """Automaton forms of seeded machines, some with a label that is not
    separable or false, or with no inputs, no outputs or an output AP
    out of range; each with the fault it carries."""
    for seed in range(300):
        rng = random.Random(29_000 + seed)
        aut = mealy_to_automaton(seeded_machine(rng))
        store, n = aut.store, len(aut.aps)
        edges = list(aut.edge_records())
        fault = seed % 7
        if fault == 1:                # a label over all APs, seldom separable
            rng.choice(edges).cond = store.intern(
                rng.getrandbits(store.nminterms))
        elif fault == 2:              # an input AP xor an output AP
            outs = aut.get_named_prop("synthesis-outputs", list)
            i = rng.choice([a for a in range(n) if a not in outs])
            o = rng.choice(outs)
            rng.choice(edges).cond = store.g_or(
                store.g_and(store.lit(i), store.lit(o, False)),
                store.g_and(store.lit(i, False), store.lit(o)))
        elif fault == 3:
            for e in rng.sample(edges, rng.randint(1, len(edges))):
                e.cond = FALSE_GUARD
        elif fault == 4:              # every AP an output: no inputs
            aut.set_named_prop("synthesis-outputs", list(range(n)))
        elif fault == 5:              # no outputs
            aut.set_named_prop("synthesis-outputs", [])
        elif fault == 6:
            aut.set_named_prop("synthesis-outputs",
                               [rng.choice([n, n + 3, -1])] + list(range(n)))
        yield fault, aut


def test_mealy_split_matches_the_exists_split():
    seen = set()
    for fault, aut in split_cases():
        want = _mealy_outcome(exists_split_mealy, aut)
        assert _mealy_outcome(automaton_to_mealy, aut) == want
        if not isinstance(want, str):
            want = "machine"
        elif want.startswith("AP index"):
            want = "negative AP" if "-" in want else "AP out of range"
        seen.add((fault, want.split(" at state")[0]))
    assert seen == {(0, "machine"), (1, "machine"), (1, "label"),
                    (2, "label"), (3, "machine"), (4, "machine"),
                    (5, "machine"), (6, "AP out of range"),
                    (6, "negative AP")}


def cover_output_choice(store, gout, outputs, ap_count):
    """_output_choice as it was when it built a cover: the positive AP
    mask of the first cube of the projection onto the outputs."""
    others = [a for a in range(ap_count) if a not in outputs]
    for pos, _ in store.cover(store.exists(gout, others)):
        return pos
    raise ValueError("empty output choice")


def test_output_choice_matches_the_cover_choice():
    def choice(pick, store, gout, outputs):
        try:
            return pick(store, gout, outputs, store.ap_count)
        except ValueError as err:
            return str(err)

    seen = set()
    for seed in range(200):
        rng = random.Random(37_000 + seed)
        m = seeded_machine(rng)
        store = m.store
        gouts = [gout for row in m.edges for _, gout, _ in row]
        # unchecked machines: output guards that read other APs, or none
        gouts += [store.intern(rng.getrandbits(store.nminterms)),
                  store.g_and(rng.choice(gouts),
                              store.lit(rng.randrange(store.ap_count))),
                  FALSE_GUARD]
        for gout in gouts:
            want = choice(cover_output_choice, store, gout, m.outputs)
            assert choice(_output_choice, store, gout, m.outputs) == want
            seen.add(want if isinstance(want, str)
                     else bool(store.support(gout, m.inputs)))
    assert seen == {"empty output choice", False, True}


def test_mealy_split_interns_one_guard_per_ap_and_edge(monkeypatch):
    # the split fixes each AP once per edge; splitting by exists would
    # intern two cofactors and an OR per AP
    aut = parse_hoa(print_hoa(mealy_to_automaton(sixteen_ap_machine())))
    store = aut.store
    interned = []
    intern = store.intern
    monkeypatch.setattr(store, "intern",
                        lambda bits: interned.append(bits) or intern(bits))
    size = len(store)
    m = automaton_to_mealy(aut)
    budget = sum(len(row) for row in m.edges) * (len(m.inputs)
                                                  + len(m.outputs))
    assert 0 < len(interned) <= budget
    assert len(store) - size <= budget
    validate_mealy(m)


def test_simulate_aig_input_width():
    aig = mealy_to_aiger(two_state_memory_machine())
    for row in ("11", "", "2", "9", "x", " 1", "-1"):
        with pytest.raises(ValueError, match="expected 1 input bits"):
            simulate_aig(aig, ["0", row])


def sixteen_ap_machine():
    # 8 inputs and 8 outputs fill the 16-AP limit of a guard store
    aps = ["i%d" % k for k in range(8)] + ["o%d" % k for k in range(8)]
    store = GuardStore(16)

    def outs(bits):
        return store.parse_label("&".join(
            ("%d" if bits >> k & 1 else "!%d") % (8 + k) for k in range(8)))

    label = store.parse_label
    edges = [
        [(label("0"), outs(0b01010101), 1), (label("!0"), outs(0), 0)],
        [(label("0 & (1 | 7)"), outs(0b11111111), 1),
         (label("0 & !1 & !7"), outs(0b10000001), 1),
         (label("!0"), outs(0b00001111), 0)],
    ]
    return MealyMachine(aps, list(range(8)), list(range(8, 16)), store, 2, 0,
                        edges)


def test_sixteen_ap_machine_end_to_end(tmp_path, capsys):
    m = sixteen_ap_machine()
    validate_mealy(m)
    aig = mealy_to_aiger(m)
    assert (aig.num_inputs, aig.num_latches, len(aig.outputs)) == (8, 1, 8)
    rng = random.Random(16)
    steps = ["".join(rng.choice("01") for _ in range(8)) for _ in range(50)]
    assert simulate_aig(aig, steps) == simulate_mealy(m, steps)

    f = tmp_path / "m16.hoa"
    f.write_text(print_hoa(mealy_to_automaton(m)))
    assert main(["mealy", str(f), "--to-aiger"]) == 0
    assert capsys.readouterr().out == print_aiger(aig)


# ------------------------------------------------------- stable outputs

def _blur(g, rng):
    # uncolored and multi-colored edges send solve_game through colorizing
    for e in g.edge_records():
        r = rng.random()
        if r < 0.25:
            e.acc = 0
        elif r < 0.4:
            e.acc |= 1 << rng.randrange(8)
    return g


def seeded_games(kind):
    for seed in range(40):
        rng = random.Random(53_000 + seed)
        if kind == "safety":
            n = rng.randint(1, 30)
            g = Automaton(())
            g.new_states(n)
            for s in range(n):
                for _ in range(rng.randint(0, 3)):
                    g.new_edge(s, rng.randrange(n), 1, None)
            g.set_acceptance(0, parse_acceptance("t"))
            g.set_init(0)
            yield make_game(g, [rng.randint(0, 1) for _ in range(n)])
        else:
            g = random_parity_game(seed, max_states=30, ncolors=6)[0]
            yield _blur(g, rng) if kind == "blurred" else g


# sha256 prefixes of the solve_game winners and strategies, and of
# print_hoa(colorize_parity(...)) per source parity shape over the
# change_parity inputs of test_acc_formulas; recorded before the
# attractor and the recoloring were shared, except parity and blurred,
# recorded when parity games came to be solved one SCC at a time (same
# winners, other strategy edges at some states)
SOLVE_GAME_DIGESTS = {
    "safety": "79108c472138a246",
    "parity": "d69b5028021bb808",
    "blurred": "c39dd0fa58195835",
}
COLORIZE_DIGESTS = {
    ("min", "even"): "0551fa162a808722",
    ("min", "odd"): "a62b5be3deadfc3a",
    ("max", "even"): "ffad676f18e4c3a4",
    ("max", "odd"): "ed4a2c1b15b9ad37",
}


@pytest.mark.parametrize("kind", sorted(SOLVE_GAME_DIGESTS))
def test_solve_game_outputs_are_stable(kind):
    h = hashlib.sha256()
    for g in seeded_games(kind):
        sol = solve_game(g)
        h.update(repr((sol.winners, sol.strategy)).encode())
    assert h.hexdigest()[:16] == SOLVE_GAME_DIGESTS[kind]


@pytest.mark.parametrize("src", sorted(COLORIZE_DIGESTS))
def test_colorize_parity_outputs_are_stable(src):
    h = hashlib.sha256()
    for aut in parity_inputs(*src):
        h.update(print_hoa(colorize_parity(
            change_parity(aut, "max odd"))).encode())
    assert h.hexdigest()[:16] == COLORIZE_DIGESTS[src]


def one_state_machine():
    # no latches; input guards of several cubes, and output guards that
    # leave a choice of valuations (or of none, driven false)
    store = GuardStore(5)
    label = store.parse_label
    edges = [[(label("0&1 | !0&2"), label("3 | 4"), 0),
              (label("0&!1"), label("t"), 0),
              (label("!0&!2"), label("!3&4 | 3&!4"), 0)]]
    return MealyMachine(["a", "b", "c", "x", "y"], [0, 1, 2], [3, 4], store,
                        1, 0, edges)


# sha256 prefix of print_aiger(mealy_to_aiger(m)) over the cosimulation
# machines, one_state_machine and sixteen_ap_machine, none of which the
# benchmark builds; recorded before circuits were built from cover masks
AIGER_DIGEST = "41ad27e28a7fe57f"


def test_aiger_outputs_are_stable():
    machines = [random_mealy(seed) for seed in range(100)]
    machines += [one_state_machine(), sixteen_ap_machine()]
    h = hashlib.sha256()
    for m in machines:
        validate_mealy(m)
        h.update(print_aiger(mealy_to_aiger(m)).encode())
    assert h.hexdigest()[:16] == AIGER_DIGEST
