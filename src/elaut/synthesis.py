"""Two-player games on automata, winning strategies, and circuits.

A game is an automaton with a "state-player" named property: 0 marks
states where player 0 (the environment, picking inputs) moves, 1 marks
player 1 (the controller, picking outputs).  A play follows edges
forever; player 1 wins the plays satisfying the acceptance condition.  A
player who cannot move loses immediately.

Solving attaches "state-winner" and "strategy" properties and returns
them as a Solution.  Both solvers work on the game's own states and
edges, with one attractor: a safety game is one attractor, and a parity
game is solved one strongly connected component at a time, bottom up,
by Zielonka's recursion with each edge's one color as its priority.

For synthesis games with bipartite input/output structure, a winning
player-1 strategy turns into a Mealy machine and then into an
and-inverter circuit in the AIGER ascii format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .acceptance import (TRUE, AccTrue, make_class, parity, parity_readings,
                         recolor_parity)
from .algorithms import _bfs_build, _explore
from .graph import Automaton
from .guards import FALSE_GUARD


def make_game(aut, players):
    """Mark the automaton as a game owned per-state by the given players."""
    players = [int(p) for p in players]
    if len(players) != aut.num_states:
        raise ValueError("ownership vector has %d entries for %d states"
                         % (len(players), aut.num_states))
    if any(p not in (0, 1) for p in players):
        raise ValueError("players must be 0 or 1")
    aut.set_named_prop("state-player", players)
    return aut


def state_players(aut):
    players = aut.get_named_prop("state-player", list)
    if players is None:
        raise ValueError("automaton carries no state-player property")
    if len(players) != aut.num_states:
        raise ValueError("ownership vector has %d entries for %d states"
                         % (len(players), aut.num_states))
    if any(p not in (0, 1) for p in players):
        raise ValueError("players must be 0 or 1")
    return list(players)


@dataclass
class Solution:
    """Per-state winners and a memoryless strategy.

    strategy[s] is the winning edge choice at s for the player owning s,
    and 0 where the owner loses at s (or no move is needed)."""
    winners: list
    strategy: list


def _moves(game, n_parity=None):
    """The moves of a game: per state, its playable out-edges as
    (destination, priority, edge index) and its playable in-edges as
    (source, priority, edge index), both in out-list order by source.

    With n_parity, an edge's priority is its one color, which must lie
    below n_parity; without it every priority is 0."""
    n = game.num_states
    out = [[] for _ in range(n)]
    into = [[] for _ in range(n)]
    first, nxt = game.first_edges, game.edge_next
    conds, dsts, accs = game.edge_cond, game.edge_dst, game.edge_acc
    c = 0
    for s in range(n):
        row = out[s]
        i = first[s]
        while i:
            if conds[i] != FALSE_GUARD:
                t = dsts[i]
                if t < 0:
                    raise ValueError("games need nonalternating automata")
                if n_parity is not None:
                    b = accs[i]
                    # exactly one color, and below n_parity
                    if not (b and not b & (b - 1) and b >> n_parity == 0):
                        raise ValueError("every edge needs exactly one "
                                         "color; colorize first")
                    c = b.bit_length() - 1
                row.append((t, c, i))
                into[t].append((s, c, i))
            i = nxt[i]
    return out, into


def _attract(p, target, seeds, region, bound, lim, owner, out, into):
    """The player-p attractor, within region, of the states of target
    and of the moves of seeds, given as (source, priority, edge index).

    The moves in play are the edges inside region of priority at most
    bound.  A state of p joins when p can move into the attractor, any
    other state when all its moves lead there.  The seeds count as such
    moves, and the search back from the attractor follows only in-edges
    of priority at most lim, so that no seed counts twice.  Works
    breadth first, seeds and target in their given order, and returns
    the attractor and the edge p takes into it at each state of p that
    the search added.
    """
    attr = set(target)
    queue = list(target)
    strat = {}
    cnt = {}
    moves, top = seeds, bound
    k = 0
    while True:
        for u, c, e in moves:
            if c > top or u in attr or u not in region:
                continue
            if owner[u] == p:
                attr.add(u)
                strat[u] = e
                queue.append(u)
                continue
            left = cnt.get(u)
            if left is None:
                left = 0
                for t, pri, _ in out[u]:
                    if pri <= bound and t in region:
                        left += 1
            cnt[u] = left = left - 1
            if not left:
                attr.add(u)
                queue.append(u)
        if k == len(queue):
            return attr, strat
        moves, top = into[queue[k]], lim
        k += 1


def solve_safety(game):
    """Solve a game whose acceptance is t.

    Every infinite play is won by player 1, so player 0 wins exactly by
    forcing the play into a state where player 1 is stuck: the player-0
    attractor of player-1 deadlocks.
    """
    if not isinstance(game.acceptance, AccTrue):
        raise ValueError("safety solving needs acceptance t")
    players = state_players(game)
    out, into = _moves(game)
    n = game.num_states
    stuck = {s for s in range(n) if players[s] == 1 and not out[s]}
    attr, strat0 = _attract(0, stuck, (), range(n), 0, 0, players, out,
                            into)

    winners = [0 if s in attr else 1 for s in range(n)]
    strategy = [0] * n
    for s in range(n):
        if winners[s] == 0 and players[s] == 0:
            strategy[s] = strat0.get(s, 0)
        elif winners[s] == 1 and players[s] == 1:
            for (d, _, i) in out[s]:
                if d not in attr:
                    strategy[s] = i
                    break
    game.set_named_prop("state-winner", winners)
    game.set_named_prop("strategy", strategy)
    return Solution(winners, strategy)


def _max_odd_reading(formula):
    for mm, eo, count in parity_readings(formula):
        if mm == "max" and eo == "odd":
            return count
    return None


def colorize_parity(aut):
    """Give every edge exactly one color, keeping a max-odd acceptance.

    All colors shift up by two, which preserves both their order and
    their parity; uncolored edges take color 1, odd but lower than any
    original color, so it never changes the maximum of a mixed cycle and
    keeps all-uncolored cycles accepting, matching the empty-set reading
    of a max-odd condition.  Of several colors on an edge only the
    largest can be the maximum of a cycle, so it alone is kept.
    """
    n = _max_odd_reading(aut.acceptance)
    if n is None:
        raise ValueError("acceptance %s has no max-odd parity reading"
                         % aut.acceptance)
    return _colorize(aut, n)


def _colorize(aut, n):
    """colorize_parity of an automaton whose acceptance reads as max-odd
    parity over n colors."""
    total = n + 2
    out = aut.clone()
    recolor_parity(out, n, "max", 1, 2)
    out.set_acceptance(total, make_class(parity("max", "odd", total)))
    return out


def _zielonka(region, bound, owner, out, into):
    """Zielonka's recursion on the states of region, with the edges
    inside it of priority at most bound in play; returns the player-0
    and player-1 winning sets and a strategy of edge indices.

    Each call is a generator that yields the (region, bound) it needs
    solved and is sent the answer, so the recursion lives on an explicit
    stack and its depth is not bounded by Python's."""
    calls = [_zielonka_call(region, bound, owner, out, into)]
    got = None
    while calls:
        try:
            sub = calls[-1].send(got)
        except StopIteration as done:
            calls.pop()
            got = done.value
        else:
            calls.append(_zielonka_call(*sub, owner, out, into))
            got = None
    return got


def _zielonka_call(region, bound, owner, out, into):
    if not region:
        return set(), set(), {}
    d = -1
    for s in region:
        for t, c, e in out[s]:
            if d <= c <= bound and t in region:
                if c > d:
                    d = c
                    seeds = []
                seeds.append((s, c, e))
    p = d & 1
    area, strat_a = _attract(p, (), seeds, region, bound, d - 1, owner, out,
                             into)
    # region - area is solved below priority d, without the opponent's
    # priority-d edges left there.  They only help p, each use showing
    # d: the opponent's states won without them are still won, and if
    # the opponent wins none, p wins all of region.
    w0a, w1a, strat = yield region - area, d - 1
    wopp = w0a if p == 1 else w1a
    if not wopp:
        strat.update(strat_a)
        return (set(), region, strat) if p == 1 else (region, set(), strat)
    opp = 1 - p
    barrier, strat_b = _attract(opp, wopp, (), region, bound, bound, owner,
                                out, into)
    w0b, w1b, strat2 = yield region - barrier, bound
    strat2.update(strat_b)
    for v in wopp:
        if v in strat:
            strat2[v] = strat[v]
    if opp == 1:
        return w0b, w1b | barrier, strat2
    return w0b | barrier, w1b, strat2


def solve_parity_max_odd(game, n_parity=None):
    """Zielonka's algorithm for max-odd parity games, on the game's
    states, with each edge's one color as its priority, one strongly
    connected component at a time.

    Every edge must carry exactly one color below the parity index count
    (colorize_parity arranges that).  `n_parity` is that count when the
    caller has already read it off the acceptance.

    A deadlocked state is lost by its owner.  The components are taken
    in reverse topological order: the states already solved are
    attracted into the rest, each player's won states to that player,
    and Zielonka's recursion runs only on what is left of the component,
    with the edges that stay inside it.  An edge leaving it leads to a
    state its owner loses, so it is no use to the owner.
    """
    players = state_players(game)
    if n_parity is None:
        n_parity = _max_odd_reading(game.acceptance)
    if n_parity is None:
        raise ValueError("acceptance %s has no max-odd parity reading"
                         % game.acceptance)
    out, into = _moves(game, n_parity)
    n = game.num_states
    winners = [0] * n
    strat = {}
    rest = set(range(n))
    won = ([s for s in range(n) if not out[s] and players[s] == 1],
           [s for s in range(n) if not out[s] and players[s] == 0])
    for comp, _, _ in _explore(list(range(n - 1, -1, -1)), out):
        for q in (0, 1):
            if won[q]:
                attr, strat_q = _attract(q, won[q], (), rest, n_parity,
                                         n_parity, players, out, into)
                rest -= attr
                strat.update(strat_q)
                for s in attr:
                    winners[s] = q
        region = rest.intersection(comp)
        won = (_zielonka(region, n_parity, players, out, into) if region
               else ((), (), {}))
        strat.update(won[2])
        for s in won[1]:
            winners[s] = 1
    strategy = [strat.get(s, 0) if winners[s] == players[s] else 0
                for s in range(n)]
    game.set_named_prop("state-winner", winners)
    game.set_named_prop("strategy", strategy)
    return Solution(winners, strategy)


def solve_game(game):
    """Dispatch on the objective: t means safety, otherwise the
    acceptance must read as max-odd parity (recoloring edges first when
    they do not carry exactly one color each)."""
    if isinstance(game.acceptance, AccTrue):
        return solve_safety(game)
    n_parity = _max_odd_reading(game.acceptance)
    if n_parity is None:
        raise ValueError("unsupported game objective: %s" % game.acceptance)
    # exactly one color on every edge, and below n_parity
    if all(b and not b & (b - 1) and b >> n_parity == 0
           for b in set(game.edge_acc[1:])):
        return solve_parity_max_odd(game, n_parity)
    sol = solve_parity_max_odd(_colorize(game, n_parity), n_parity + 2)
    # the recolored clone shares state and edge numbering
    game.set_named_prop("state-winner", sol.winners)
    game.set_named_prop("strategy", sol.strategy)
    return sol


# ---------------------------------------------------------------------------
# Mealy machines.

@dataclass
class MealyMachine:
    """A reactive machine: reads the input APs, drives the output APs.

    edges[s] lists (input_guard, output_guard, destination); the input
    guards of a state should partition the input valuations.  Guards are
    ids into the shared store over the full AP list.
    """
    aps: list
    inputs: list
    outputs: list
    store: object
    num_states: int
    init: int
    edges: list
    origin: list = field(default=None)


def _infer_outputs(game, players):
    outs = set()
    for s in range(game.num_states):
        if players[s] != 1:
            continue
        for i in game.out_indices(s):
            if game.edge_cond[i] != FALSE_GUARD:
                outs.update(game.store.support(game.edge_cond[i]))
    return sorted(outs)


def strategy_to_mealy(game, solution=None):
    """Compose a winning player-1 strategy into a Mealy machine.

    The game must be bipartite: player-0 states move on inputs into
    player-1 states, whose strategy edge answers with outputs.  Machine
    states are the reachable winning player-0 states.
    """
    players = state_players(game)
    if solution is None:
        winners = game.get_named_prop("state-winner", list)
        strategy = game.get_named_prop("strategy", list)
        if winners is None or strategy is None:
            raise ValueError("game is not solved; run solve_game first")
        solution = Solution(winners, strategy)
    winners = solution.winners
    strategy = solution.strategy

    if game.init < 0:
        raise ValueError("games need nonalternating automata")
    init = game.init
    if not game.num_states:
        raise ValueError("player 1 does not win a game with no states")
    if players[init] != 0:
        raise ValueError("the initial state must belong to player 0")
    if winners[init] != 1:
        raise ValueError("player 1 does not win from the initial state")

    outputs = game.get_named_prop("synthesis-outputs", list)
    if outputs is None:
        outputs = _infer_outputs(game, players)
    outputs = sorted(int(o) for o in outputs)
    inputs = [i for i in range(len(game.aps)) if i not in outputs]

    conds, dsts = game.edge_cond, game.edge_dst

    def succ(s):
        for i in game.out_indices(s):
            if conds[i] == FALSE_GUARD:
                continue
            mid = dsts[i]
            if mid < 0:
                raise ValueError("games need nonalternating automata")
            if players[mid] != 1:
                raise ValueError("game is not bipartite at state %d" % s)
            out_idx = strategy[mid]
            if out_idx == 0:
                raise ValueError("no strategy at state %d" % mid)
            dst = dsts[out_idx]
            if players[dst] != 0:
                raise ValueError("game is not bipartite at state %d" % mid)
            yield dst, conds[i], conds[out_idx]

    origin, found = _bfs_build(init, succ)
    edges = [[] for _ in origin]
    for src, dst, gin, gout in found:
        edges[src].append((gin, gout, dst))
    return MealyMachine(list(game.aps), inputs, outputs, game.store,
                        len(origin), 0, edges, origin)


def validate_mealy(m):
    """Check input-enabledness and determinism; raises ValueError."""
    if not m.num_states:
        raise ValueError("machine has no states")
    not_in = [a for a in range(m.store.ap_count) if a not in m.inputs]
    not_out = [a for a in range(m.store.ap_count) if a not in m.outputs]
    for s in range(m.num_states):
        union = 0
        for (gin, gout, dst) in m.edges[s]:
            if m.store.support(gin, not_in):
                raise ValueError(
                    "state %d: input guard reads an output AP" % s)
            if m.store.support(gout, not_out):
                raise ValueError(
                    "state %d: output guard drives an input AP" % s)
            if not m.store.bits_of(gout):
                raise ValueError("state %d: empty output choice" % s)
            bits = m.store.bits_of(gin)
            if union & bits:
                raise ValueError(
                    "state %d: overlapping input guards" % s)
            union |= bits
        if union != m.store.full:
            raise ValueError("state %d: not input-enabled" % s)
    return True


def _output_choice(store, gout, outputs, ap_count):
    """The mask of the outputs an output guard drives true: the lowest
    minterm of its projection onto the outputs, which is the positive AP
    mask of that projection's first cover cube.  Only a guard that reads
    another AP is projected."""
    others = [a for a in range(ap_count) if a not in outputs]
    if store.support(gout, others):
        gout = store.exists(gout, others)
    bits = store.bits_of(gout)
    if not bits:
        raise ValueError("empty output choice")
    return (bits & -bits).bit_length() - 1


def _input_row(step, width):
    """The bits of `step`, a row of `width` "0"s and "1"s."""
    if len(step) != width or step.strip("01"):
        raise ValueError("expected %d input bits, got %r" % (width, step))
    return [c == "1" for c in step]


def simulate_mealy(m, steps):
    """Run input rows ("10" per step, one bit per input AP in order)
    through the machine; returns the output rows."""
    s = m.init
    rows = []
    for step in steps:
        minterm = 0
        for ap, v in zip(m.inputs, _input_row(step, len(m.inputs))):
            if v:
                minterm |= 1 << ap
        hits = [t for t in m.edges[s] if m.store.holds(t[0], minterm)]
        if len(hits) != 1:
            raise ValueError("state %d resolves input %r to %d edges"
                             % (s, step, len(hits)))
        _, gout, s = hits[0]
        choice = _output_choice(m.store, gout, m.outputs, len(m.aps))
        rows.append("".join("01"[choice >> o & 1] for o in m.outputs))
    return rows


def mealy_to_automaton(m):
    """The machine as an automaton: labels combine input and output
    guards, the controllable APs are recorded for serialization."""
    out = Automaton(m.aps, m.store)
    out.new_states(m.num_states)
    out.new_edges((s, dst, m.store.g_and(gin, gout), 0)
                  for s in range(m.num_states)
                  for gin, gout, dst in m.edges[s])
    out.set_acceptance(0, TRUE)
    if m.num_states:
        out.set_init(m.init)
    out.set_named_prop("synthesis-outputs", list(m.outputs))
    return out


def automaton_to_mealy(aut):
    """Read a machine back from its automaton form.

    Requires the synthesis-outputs property; every label must split into
    an input part and an output part.  The parts are the label with its
    output APs, then its input APs, fixed as in its lowest minterm: for
    a label that splits, these are its two parts, and for one that does
    not, their AND is not the label.  False splits into false, false."""
    outputs = aut.get_named_prop("synthesis-outputs", list)
    if outputs is None:
        raise ValueError("automaton declares no outputs")
    outputs = sorted(int(o) for o in outputs)
    inputs = [i for i in range(len(aut.aps)) if i not in outputs]
    store, conds, dsts = aut.store, aut.edge_cond, aut.edge_dst
    edges = []
    for s in range(aut.num_states):
        row = []
        for i in aut.out_indices(s):
            cond, dst = conds[i], dsts[i]
            if dst < 0:
                raise ValueError("machines have no universal branching")
            bits = store.bits_of(cond)
            m = (bits & -bits).bit_length() - 1     # -1 for false
            gin = gout = cond
            for ap in outputs:
                # restrict rejects an AP out of range, negative ones too
                gin = store.restrict(gin, ap, ap >= 0 and m >> ap & 1)
            for ap in inputs:
                gout = store.restrict(gout, ap, m >> ap & 1)
            if store.bits_of(gin) & store.bits_of(gout) != bits:
                raise ValueError(
                    "label at state %d is not input-output separable" % s)
            row.append((gin, gout, dst))
        edges.append(row)
    init = aut.init
    if init < 0:
        raise ValueError("machines have no universal branching")
    return MealyMachine(list(aut.aps), inputs, outputs, aut.store,
                        aut.num_states, init, edges, None)


# ---------------------------------------------------------------------------
# AIGER circuits.

class Aig:
    """An and-inverter graph in AIGER ascii conventions.

    Literals are 2*var (positive) or 2*var+1 (negated); variable 0 is
    the constant false, then inputs, then latches, then and-gates.
    Structural hashing folds constants and repeated gates.
    """

    def __init__(self, num_inputs, num_latches):
        self.num_inputs = num_inputs
        self.num_latches = num_latches
        self.latch_next = [0] * num_latches
        self.outputs = []
        self.gates = []
        self.input_names = ["i%d" % i for i in range(num_inputs)]
        self.latch_names = ["l%d" % j for j in range(num_latches)]
        self.output_names = []
        self._cache = {}

    @property
    def maxvar(self):
        return self.num_inputs + self.num_latches + len(self.gates)

    def input_lit(self, i):
        return 2 * (1 + i)

    def latch_lit(self, j):
        return 2 * (1 + self.num_inputs + j)

    def lit_and(self, a, b):
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a == b:
            return a
        if a ^ b == 1:
            return 0
        if a > b:
            a, b = b, a
        lhs = self._cache.get((a, b))
        if lhs is None:
            lhs = self._cache[a, b] = 2 * (
                1 + self.num_inputs + self.num_latches + len(self.gates))
            self.gates.append((lhs, b, a))
        return lhs

    def lit_or(self, a, b):
        return self.lit_and(a ^ 1, b ^ 1) ^ 1


def _guard_circuit(aig, store, gid, lit_of_ap):
    acc = 0
    for pos, neg in store.cover(gid):
        lit = 1
        for mask, flip in ((pos, 0), (neg, 1)):
            for ap in range(mask.bit_length()):
                if mask >> ap & 1:
                    lit = aig.lit_and(lit, lit_of_ap[ap] ^ flip)
        acc = aig.lit_or(acc, lit)
    return acc


def mealy_to_aiger(m):
    """Encode the machine as a sequential circuit.

    State codes use the minimal latch count, code 0 for the initial
    state to match the all-zero reset.  Guards are ORs of their cover
    cubes' AP masks; outputs follow each edge's pinned output choice.
    """
    num_inputs = len(m.inputs)
    nlatches = (m.num_states - 1).bit_length() if m.num_states > 1 else 0
    aig = Aig(num_inputs, nlatches)
    aig.input_names = [m.aps[a] for a in m.inputs]
    aig.latch_names = ["state%d" % j for j in range(nlatches)]
    aig.output_names = [m.aps[a] for a in m.outputs]

    order = [m.init] + [s for s in range(m.num_states) if s != m.init]
    code = {s: k for k, s in enumerate(order)}
    lit_of_ap = {ap: aig.input_lit(k) for k, ap in enumerate(m.inputs)}

    indicator = []
    for s in range(m.num_states):
        lit = 1
        for j in range(nlatches):
            bit = aig.latch_lit(j)
            if not (code[s] >> j) & 1:
                bit ^= 1
            lit = aig.lit_and(lit, bit)
        indicator.append(lit)

    out_fn = {o: 0 for o in m.outputs}
    next_fn = [0] * nlatches
    circuits = {}                     # input guard -> _guard_circuit
    choices = {}                      # output guard -> _output_choice
    for s in range(m.num_states):
        for (gin, gout, dst) in m.edges[s]:
            guard = circuits.get(gin)
            if guard is None:
                guard = circuits[gin] = _guard_circuit(aig, m.store, gin,
                                                       lit_of_ap)
            cond = aig.lit_and(indicator[s], guard)
            if cond == 0:
                continue
            choice = choices.get(gout)
            if choice is None:
                choice = choices[gout] = _output_choice(
                    m.store, gout, m.outputs, len(m.aps))
            for o in m.outputs:
                if choice >> o & 1:
                    out_fn[o] = aig.lit_or(out_fn[o], cond)
            for j in range(nlatches):
                if (code[dst] >> j) & 1:
                    next_fn[j] = aig.lit_or(next_fn[j], cond)
    aig.latch_next = next_fn
    aig.outputs = [out_fn[o] for o in m.outputs]
    return aig


def print_aiger(aig):
    lines = ["aag %d %d %d %d %d"
             % (aig.maxvar, aig.num_inputs, aig.num_latches,
                len(aig.outputs), len(aig.gates))]
    for i in range(aig.num_inputs):
        lines.append(str(aig.input_lit(i)))
    for j in range(aig.num_latches):
        lines.append("%d %d" % (aig.latch_lit(j), aig.latch_next[j]))
    for lit in aig.outputs:
        lines.append(str(lit))
    for (lhs, r0, r1) in aig.gates:
        lines.append("%d %d %d" % (lhs, r0, r1))
    for i, name in enumerate(aig.input_names):
        lines.append("i%d %s" % (i, name))
    for j, name in enumerate(aig.latch_names):
        lines.append("l%d %s" % (j, name))
    for k, name in enumerate(aig.output_names):
        lines.append("o%d %s" % (k, name))
    return "\n".join(lines) + "\n"


def simulate_aig(aig, steps):
    """Drive input rows through the circuit; latches reset to 0.
    Returns the output rows, bits in declaration order."""
    table = [False] * (1 + aig.maxvar)
    latch_vals = [False] * aig.num_latches

    def value(lit):
        return table[lit >> 1] ^ bool(lit & 1)

    rows = []
    for step in steps:
        for i, v in enumerate(_input_row(step, aig.num_inputs)):
            table[1 + i] = v
        for j, v in enumerate(latch_vals):
            table[1 + aig.num_inputs + j] = v
        for (lhs, r0, r1) in aig.gates:
            table[lhs >> 1] = value(r0) and value(r1)
        rows.append("".join("1" if value(lit) else "0"
                            for lit in aig.outputs))
        latch_vals = [value(nl) for nl in aig.latch_next]
    return rows
