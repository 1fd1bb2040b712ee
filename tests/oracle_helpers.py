"""Reference implementations the tests check the library against.

Everything here recomputes answers from first principles using only the
data model (edge tables, guard membership, formula evaluation), never
the library's own graph algorithms, so a shared bug cannot hide.
"""

import random
from itertools import product as iproduct

from elaut.acceptance import AccTrue, And, Fin, Inf, \
    eval_acceptance, f_and, make_class, parity, parse_acceptance, \
    shift_colors
from elaut.graph import YES, Automaton
from elaut.guards import FALSE_GUARD


def bit_colors(bits):
    """The colors of an int of color bits, in increasing order."""
    return [c for c in range(bits.bit_length()) if bits >> c & 1]


def color_bits(colors):
    """The int of color bits of an iterable of colors."""
    return sum(1 << c for c in set(colors))


def build(aps, num_sets, acceptance, edges, init=0, players=None):
    """Compact automaton builder for hand-written test cases.

    edges rows are (src, label_text, dst, colors) where dst is an int or
    a tuple for a universal group.
    """
    aut = Automaton(aps)
    top = init if isinstance(init, int) else max(init)
    for (s, _, d, _) in edges:
        ds = d if isinstance(d, tuple) else (d,)
        top = max(top, s, *ds)
    for _ in range(top + 1):
        aut.new_state()
    for (s, label, d, colors) in edges:
        dst = aut.new_univ_dest_group(d) if isinstance(d, tuple) else d
        aut.new_edge(s, dst, aut.store.parse_label(label), colors)
    aut.set_acceptance(num_sets, acceptance)
    aut.set_init(aut.new_univ_dest_group(init)
                 if isinstance(init, tuple) else init)
    if players is not None:
        aut.set_named_prop("state-player", list(players))
    return aut


# ------------------------------------------------------ plain edge graphs

def graph_of(aut):
    """(edges, reachable) view of a nonalternating automaton: rows are
    (edge_index, src, dst, frozenset of colors), unsatisfiable guards
    dropped."""
    rows = []
    adj = {}
    for i in range(1, len(aut.edges)):
        e = aut.edges[i]
        if e is None or e.cond == FALSE_GUARD:
            continue
        if e.dst < 0:
            raise ValueError("alternating automaton has no plain graph")
        rows.append((i, e.src, e.dst, frozenset(bit_colors(e.acc))))
        adj.setdefault(e.src, []).append(e.dst)
    reach = set()
    if aut.num_states:
        stack = [aut.init]
        reach.add(aut.init)
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
    return rows, reach


def _strongly_connected(rows):
    """Whether the edge rows form one strongly connected subgraph
    covering all their endpoints."""
    nodes = set()
    fwd = {}
    bwd = {}
    for (_, s, d, _) in rows:
        nodes.add(s)
        nodes.add(d)
        fwd.setdefault(s, []).append(d)
        bwd.setdefault(d, []).append(s)
    start = next(iter(nodes))
    for adj in (fwd, bwd):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != nodes:
            return False
    return True


def _sccs_of_rows(rows):
    """Tarjan over explicit rows; yields sets of nodes."""
    adj = {}
    nodes = set()
    for (_, s, d, _) in rows:
        nodes.add(s)
        nodes.add(d)
        adj.setdefault(s, []).append(d)
    index = {}
    low = {}
    on = set()
    stack = []
    out = []
    counter = [0]

    def strong(v):
        work = [(v, iter(adj.get(v, ())))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on.add(v)
        while work:
            x, it = work[-1]
            nxt = next(it, None)
            if nxt is None:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[x])
                if low[x] == index[x]:
                    comp = set()
                    while True:
                        y = stack.pop()
                        on.discard(y)
                        comp.add(y)
                        if y == x:
                            break
                    out.append(comp)
            elif nxt not in index:
                index[nxt] = low[nxt] = counter[0]
                counter[0] += 1
                stack.append(nxt)
                on.add(nxt)
                work.append((nxt, iter(adj.get(nxt, ()))))
            elif nxt in on:
                low[x] = min(low[x], index[nxt])
    for v in nodes:
        if v not in index:
            strong(v)
    return out


def sccs_by_reachability(edges, roots):
    """The SCCs of the states reachable from roots, by mutual
    reachability: state -> frozenset of the states of its SCC.  edges
    are tuples (src, dst, ...)."""
    adj = {}
    for e in edges:
        adj.setdefault(e[0], []).append(e[1])

    def reach(v):
        seen = {v}
        stack = [v]
        while stack:
            for w in adj.get(stack.pop(), ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    fwd = {}
    for r in roots:
        for v in reach(r):
            if v not in fwd:
                fwd[v] = reach(v)
    return {v: frozenset(u for u in fwd if u in fwd[v] and v in fwd[u])
            for v in fwd}


def rows_nonempty(rows, reach, acceptance):
    """Brute force: does a reachable strongly connected edge subset exist
    whose combined colors satisfy the formula?

    Enumerates every subset of each component's internal edges; a
    witness never spans components.
    """
    rows = [r for r in rows if r[1] in reach]
    for comp in _sccs_of_rows(rows):
        internal = [r for r in rows if r[1] in comp and r[2] in comp]
        k = len(internal)
        for bits in range(1, 1 << k):
            chosen = [internal[i] for i in range(k) if bits >> i & 1]
            if not _strongly_connected(chosen):
                continue
            colors = set()
            for (_, _, _, cols) in chosen:
                colors |= cols
            if eval_acceptance(acceptance, color_bits(colors)):
                return True
    return False


def empty_by_edge_subsets(aut):
    """Emptiness by literal enumeration of candidate witness edge sets."""
    rows, reach = graph_of(aut)
    return not rows_nonempty(rows, reach, aut.acceptance)


def reorder_out_lists(aut):
    """Reverse the middle of every out-list of four or more edges through
    next_succ writes, so out-list order is no longer index order."""
    for s in range(aut.num_states):
        idx = list(aut.out_indices(s))
        if len(idx) >= 4:
            order = [idx[0]] + idx[-2:0:-1] + [idx[-1]]
            for a, b in zip(order, order[1:]):
                aut.edges[a].next_succ = b
    aut.check()


# ---------------------------------------------------------------- trim

_TRIM_STATE_LISTS = ("state-names", "state-player", "state-winner",
                     "product-states")


def trim_by_rebuild(aut):
    """trim() as a rebuild: the states a plain search reaches, in index
    order, and every edge of theirs without a false guard re-added
    through new_edges in index order; groups are re-interned in
    first-use order, the initial designator's last.  Each kept state's
    out-list is then put back in the input's order by next_succ writes."""
    reach = set()
    if aut.num_states:
        todo = list(aut.univ_dests(aut.init))
        reach.update(todo)
        while todo:
            for e in aut.out(todo.pop()):
                if e.cond != FALSE_GUARD:
                    for d in aut.univ_dests(e.dst):
                        if d not in reach:
                            reach.add(d)
                            todo.append(d)
    order = sorted(reach)
    state_map = {old: new for new, old in enumerate(order)}
    out = Automaton(aut.aps, store=aut.store)
    out.new_states(len(order))

    def word(w):
        if w >= 0:
            return state_map[w]
        return out.new_univ_dest_group(
            [state_map[m] for m in aut.group_members(w)])

    rows = []
    edge_map = {0: 0}
    for e in aut.edge_records():
        if e.src in reach and e.cond != FALSE_GUARD:
            rows.append((state_map[e.src], word(e.dst), e.cond, e.acc))
            edge_map[e.index] = len(rows)
    out.new_edges(rows)
    for new, old in enumerate(order):
        kept = [edge_map[i] for i in aut.out_indices(old) if i in edge_map]
        if kept:
            out.first_edges[new], out._tail[new] = kept[0], kept[-1]
            for a, b in zip(kept, kept[1:] + [0]):
                out.edges[a].next_succ = b
    if aut.num_states:
        out.init = word(aut.init)
    out.num_sets = aut.num_sets
    out.acceptance = aut.acceptance
    for name, value in aut.named_props.items():
        if name in _TRIM_STATE_LISTS and isinstance(value, list) \
                and len(value) == aut.num_states:
            value = [value[old] for old in order]
        elif name == "highlight-states" and isinstance(value, dict):
            value = {state_map[s]: v for s, v in value.items()
                     if s in state_map}
        elif name == "highlight-edges" and isinstance(value, dict):
            value = {edge_map[i]: v for i, v in value.items()
                     if i in edge_map}
        elif name == "strategy" and isinstance(value, list) \
                and len(value) == aut.num_states:
            value = [edge_map.get(value[old], 0) for old in order]
        out.named_props[name] = value
    out.named_props["trim-map"] = [state_map.get(s)
                                   for s in range(aut.num_states)]
    return out


# ------------------------------------------------------------ products

def _has_fin(formula):
    return isinstance(formula, Fin) or any(
        _has_fin(c) for c in getattr(formula, "children", ()))


def _accepting_scc_states(aut):
    """States of the reachable SCCs whose internal edges carry an
    accepting set of colors."""
    rows, reach = graph_of(aut)
    rows = [r for r in rows if r[1] in reach]
    out = set()
    for comp in _sccs_of_rows(rows):
        colors = set()
        internal = False
        for (_, s, d, cols) in rows:
            if s in comp and d in comp:
                internal = True
                colors |= cols
        if internal and eval_acceptance(aut.acceptance, color_bits(colors)):
            out |= comp
    return out


def product_by_pairs(a, b):
    """The intersection product as product() defines it, built pair by
    pair with guards conjoined minterm by minterm.

    States are numbered in breadth-first discovery order from the initial
    pair; a state's edges pair each edge of a (in order) with each edge
    of b.  Colors are a's then b's shifted by a's count, except that an
    operand flagged weak contributes none, and lets b's (a's) through
    only from its accepting SCCs, when the partner's acceptance has no
    Fin and rejects colorless cycles.
    """
    aps = list(a.aps) + [p for p in b.aps if p not in a.aps]

    def weak_side(x, y):
        return (x.get_flag("weak") is YES
                and not _has_fin(y.acceptance)
                and not eval_acceptance(y.acceptance, 0))

    weak_a = weak_side(a, b)
    weak_b = not weak_a and weak_side(b, a)
    if weak_a:
        num_sets, acceptance = b.num_sets, b.acceptance
        gate = _accepting_scc_states(a)
    elif weak_b:
        num_sets, acceptance = a.num_sets, a.acceptance
        gate = _accepting_scc_states(b)
    else:
        num_sets = a.num_sets + b.num_sets
        acceptance = f_and([a.acceptance,
                            shift_colors(b.acceptance, a.num_sets)])
    out = Automaton(aps)

    def letter(aut, m):
        # assignment m over `aps`, seen over aut's own AP list
        return sum(((m >> aps.index(p)) & 1) << j
                   for j, p in enumerate(aut.aps))

    def out_edges(aut, s):
        return [aut.edges[i] for i in range(1, len(aut.edges))
                if aut.edges[i].src == s]

    pairs = []
    if a.num_states and b.num_states:
        pairs.append((a.init, b.init))
        out.new_state()
    k = 0
    while k < len(pairs):
        s, t = pairs[k]
        for ea in out_edges(a, s):
            for eb in out_edges(b, t):
                bits = sum(1 << m for m in range(1 << len(aps))
                           if a.store.holds(ea.cond, letter(a, m))
                           and b.store.holds(eb.cond, letter(b, m)))
                if not bits:
                    continue
                if (ea.dst, eb.dst) not in pairs:
                    pairs.append((ea.dst, eb.dst))
                    out.new_state()
                ca = [c for c in bit_colors(ea.acc) if c < a.num_sets]
                cb = [c for c in bit_colors(eb.acc) if c < b.num_sets]
                if weak_a:
                    colors = cb if s in gate else []
                elif weak_b:
                    colors = ca if t in gate else []
                else:
                    colors = ca + [a.num_sets + c for c in cb]
                out.new_edge(k, pairs.index((ea.dst, eb.dst)),
                             out.store.intern(bits), colors)
        k += 1
    out.set_acceptance(num_sets, acceptance)
    if pairs:
        out.set_init(0)
    out.set_named_prop("product-states", pairs)
    return out


# --------------------------------------------- ultimately periodic words

def up_word_graph(aut, letters_prefix, letters_cycle):
    """Unroll a nonalternating automaton against the word u v^omega.

    Nodes are (state, position); returns rows in graph_of shape plus the
    reachable set from the initial configurations.
    """
    total = len(letters_prefix) + len(letters_cycle)
    assert len(letters_cycle) >= 1
    word = list(letters_prefix) + list(letters_cycle)

    def nxt(pos):
        return pos + 1 if pos + 1 < total else len(letters_prefix)

    rows = []
    for i in range(1, len(aut.edges)):
        e = aut.edges[i]
        if e is None or e.cond == FALSE_GUARD:
            continue
        if e.dst < 0:
            raise ValueError("alternating automaton has no plain graph")
        for pos in range(total):
            if aut.store.holds(e.cond, word[pos]):
                rows.append((i, (e.src, pos), (e.dst, nxt(pos)),
                             frozenset(bit_colors(e.acc))))
    adj = {}
    for (_, s, d, _) in rows:
        adj.setdefault(s, []).append(d)
    reach = set()
    stack = []
    for q in aut.univ_dests(aut.init):
        cfg = (q, 0)
        if cfg not in reach:
            reach.add(cfg)
            stack.append(cfg)
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return rows, reach


def up_word_in(aut, letters_prefix, letters_cycle):
    """Membership of the ultimately periodic word in a nonalternating
    automaton, by brute force over the unrolled graph."""
    rows, reach = up_word_graph(aut, letters_prefix, letters_cycle)
    return rows_nonempty(rows, reach, aut.acceptance)


def _inf_conjunction_colors(formula):
    """The colors of a pure conjunction of Inf atoms, or None."""
    if isinstance(formula, AccTrue):
        return []
    if isinstance(formula, Inf):
        return [formula.color]
    if isinstance(formula, And):
        out = []
        for child in formula.children:
            sub = _inf_conjunction_colors(child)
            if sub is None:
                return None
            out.extend(sub)
        return out
    return None


def word_in_gen_buchi(aut, letters_prefix, letters_cycle):
    """Membership for nonalternating automata whose acceptance is a
    conjunction of Inf atoms (or t).

    Unrolls against the word with an awaited-color counter, so the
    check is one SCC pass instead of a subset enumeration; usable on
    the large outputs of the alternation removals.
    """
    cols = _inf_conjunction_colors(aut.acceptance)
    assert cols is not None, "needs a conjunction of Inf atoms"
    cols = sorted(set(cols))
    k = len(cols)
    total = len(letters_prefix) + len(letters_cycle)
    word = list(letters_prefix) + list(letters_cycle)

    def nxt(pos):
        return pos + 1 if pos + 1 < total else len(letters_prefix)

    outs = []
    for q in range(aut.num_states):
        rows = []
        for e in aut.out(q):
            if e.cond == FALSE_GUARD:
                continue
            assert e.dst >= 0
            rows.append((e.cond, e.dst, set(bit_colors(e.acc))))
        outs.append(rows)

    hot = frozenset([0])
    cold = frozenset()
    rows = []
    idx = 0
    for q in range(aut.num_states):
        for pos in range(total):
            letter = word[pos]
            for (g, d, cs) in outs[q]:
                if not aut.store.holds(g, letter):
                    continue
                for i in range(max(k, 1)):
                    idx += 1
                    if k == 0:
                        rows.append((idx, (q, pos, 0), (d, nxt(pos), 0),
                                     hot))
                    elif cols[i] in cs:
                        wrap = i + 1 == k
                        rows.append((idx, (q, pos, i),
                                     (d, nxt(pos), 0 if wrap else i + 1),
                                     hot if wrap else cold))
                    else:
                        rows.append((idx, (q, pos, i), (d, nxt(pos), i),
                                     cold))
    assert aut.init >= 0
    start = (aut.init, 0, 0)
    adj = {}
    for (_, s, d, _) in rows:
        adj.setdefault(s, []).append(d)
    reach = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in reach:
                reach.add(w)
                stack.append(w)
    live = [r for r in rows if r[1] in reach]
    for comp in _sccs_of_rows(live):
        for (_, s, d, tag) in live:
            if tag and s in comp and d in comp:
                return True
    return False


def alt_buchi_word_in(aut, letters_prefix, letters_cycle):
    """Membership for alternating automata with Inf(0) acceptance.

    Solves the word-vs-automaton game on (state, position)
    configurations: the automaton player picks an edge whose guard holds,
    the adversary picks a member of its destination group, and the
    automaton player must hit color 0 infinitely often on every branch.
    Computed as the standard nested fixpoint: nu Z. mu Y. (a move with
    color 0 into Z) or (a move into Y).
    """
    total = len(letters_prefix) + len(letters_cycle)
    word = list(letters_prefix) + list(letters_cycle)

    def nxt(pos):
        return pos + 1 if pos + 1 < total else len(letters_prefix)

    configs = [(q, p) for q in range(aut.num_states) for p in range(total)]
    moves = {}
    for (q, p) in configs:
        opts = []
        for e in aut.out(q):
            if e.cond == FALSE_GUARD or not aut.store.holds(e.cond, word[p]):
                continue
            succs = [(d, nxt(p)) for d in aut.univ_dests(e)]
            opts.append((bool(e.acc & 1), succs))
        moves[(q, p)] = opts

    def step(z, y):
        got = set()
        for cfg in configs:
            for (hot, succs) in moves[cfg]:
                if hot and all(s in z for s in succs):
                    got.add(cfg)
                    break
                if all(s in y for s in succs):
                    got.add(cfg)
                    break
        return got

    z = set(configs)
    while True:
        y = set()
        while True:
            y2 = step(z, y)
            if y2 == y:
                break
            y = y2
        if y == z:
            break
        z = y
    return all((q, 0) in z for q in aut.univ_dests(aut.init))


# ----------------------------------------------------------- parity games

def game_view(aut, players):
    """(playable edge rows per state, color per edge) for a game whose
    edges each carry exactly one color."""
    per_state = [[] for _ in range(aut.num_states)]
    color = {}
    for i in range(1, len(aut.edges)):
        e = aut.edges[i]
        if e is None or e.cond == FALSE_GUARD:
            continue
        assert e.dst >= 0
        cols = bit_colors(e.acc)
        assert len(cols) == 1, "oracle wants one color per edge"
        per_state[e.src].append((i, e.dst))
        color[i] = cols[0]
    return per_state, color


def _bad_cycle_nodes(edges, color, parity_bad):
    """Nodes from which a cycle whose maximal color has the given parity
    can be reached without leaving that cycle's component.

    edges: list of (idx, src, dst).  A cycle with maximum exactly c
    exists iff some color-c edge is internal to a strongly connected
    part of the subgraph restricted to colors <= c; every node of that
    part can steer onto the cycle.
    """
    out = set()
    for c in sorted({color[i] for (i, _, _) in edges}):
        if c % 2 != parity_bad:
            continue
        sub = [(i, s, d, None) for (i, s, d) in edges if color[i] <= c]
        for comp in _sccs_of_rows(sub):
            internal = [(i, s, d) for (i, s, d, _) in sub
                        if s in comp and d in comp]
            nontrivial = len(comp) > 1 or any(s == d
                                              for (_, s, d) in internal)
            if nontrivial and any(color[i] == c for (i, _, _) in internal):
                out |= comp
    return out


def parity_winners_by_enumeration(aut, players):
    """Max-odd parity winners by enumerating memoryless strategies.

    For each player in turn, fix that player's choices every possible
    way; the opponent then controls all remaining branching, so plain
    reachability decides each outcome.  Returns (win0, win1) as sets;
    the two are computed independently, letting the caller check
    determinacy.
    """
    per_state, color = game_view(aut, players)
    n = aut.num_states

    def wins_for(p):
        """States from which player p has a strategy beating every
        opponent behavior: nothing bad (a p deadlock, or a cycle whose
        maximum has the losing parity) may stay reachable."""
        own = [s for s in range(n) if players[s] == p and per_state[s]]
        won = set()
        for combo in iproduct(*[per_state[s] for s in own]):
            pick = dict(zip(own, combo))
            edges = []
            radj = {}
            for s in range(n):
                if players[s] == p:
                    rows = [pick[s]] if s in pick else []
                else:
                    rows = per_state[s]
                for (i, d) in rows:
                    edges.append((i, s, d))
                    radj.setdefault(d, []).append(s)
            bad = {s for s in range(n)
                   if players[s] == p and not per_state[s]}
            bad |= _bad_cycle_nodes(edges, color, 0 if p == 1 else 1)
            lose = set(bad)
            stack = list(bad)
            while stack:
                v = stack.pop()
                for w in radj.get(v, ()):
                    if w not in lose:
                        lose.add(w)
                        stack.append(w)
            won |= set(range(n)) - lose
            if len(won) == n:
                break
        return won

    return wins_for(0), wins_for(1)


def safety_winners_by_enumeration(aut, players):
    """Winners of a game whose every infinite play goes to player 1.

    Encoded as max-odd parity with every edge colored 1: any cycle then
    has an odd maximum, and deadlock handling is shared."""
    c = aut.clone()
    for e in c.edge_records():
        e.acc = [1]
    return parity_winners_by_enumeration(c, players)


def check_parity_strategy(aut, players, winners, strategy):
    """Soundness of a solved max-odd parity game, from first principles.

    Within each player's winning region the owner follows the strategy
    and the opponent moves freely; no opponent edge may leave the
    region, winning owners must have a playable strategy edge staying
    inside, and no cycle of the restricted graph may have a maximal
    color of the losing parity.  Raises AssertionError on violations.
    """
    per_state, color = game_view(aut, players)
    n = aut.num_states
    for p in (0, 1):
        region = {s for s in range(n) if winners[s] == p}
        edges = []
        for s in region:
            pairs = dict(per_state[s])
            if players[s] == p:
                assert pairs, "winning owner is deadlocked at %d" % s
                i = strategy[s]
                assert i in pairs, "strategy at %d is not playable" % s
                assert pairs[i] in region, \
                    "strategy at %d leaves the region" % s
                edges.append((i, s, pairs[i]))
            else:
                for (i, d) in pairs.items():
                    assert d in region, \
                        "opponent can escape the region at %d" % s
                    edges.append((i, s, d))
        bad = _bad_cycle_nodes(edges, color, 0 if p == 1 else 1)
        assert not bad, "losing-parity cycle inside region of %d" % p
    return True


def midpoint_zielonka(aut, players):
    """Max-odd parity winners and strategy by the solver elaut had before
    it worked on states: every edge split through a midpoint vertex of
    player 0 that carries the edge's color, states colored 0, each
    deadlock given a virtual loop through a midpoint whose color makes
    the stuck player lose, and Zielonka's recursion over all vertices.

    Returns (winners, strategy) as lists, strategy[s] being the chosen
    edge at each state its owner wins (0 for a virtual loop) and 0
    elsewhere."""
    per_state, color = game_view(aut, players)
    n = aut.num_states
    owner, col = list(players), [0] * n
    succ = [[] for _ in range(n)]       # (vertex, edge index or None)
    for s in range(n):
        for i, d in per_state[s]:
            succ[s].append((len(owner), i))
            owner.append(0)
            col.append(color[i])
            succ.append([(d, None)])
    for s in range(n):
        if not per_state[s]:
            succ[s].append((len(owner), None))
            owner.append(0)
            col.append(1 if players[s] == 0 else 0)
            succ.append([(s, None)])
    rev = [[] for _ in succ]
    for u, moves in enumerate(succ):
        for v, tag in moves:
            rev[v].append((u, tag))

    def attract(p, target, region):
        attr, strat, cnt = set(target), {}, {}
        queue = list(target)
        for v in queue:
            for u, tag in rev[v]:
                if u not in region or u in attr:
                    continue
                if owner[u] == p:
                    attr.add(u)
                    strat[u] = tag
                    queue.append(u)
                    continue
                if u not in cnt:
                    cnt[u] = sum(1 for t, _ in succ[u] if t in region)
                cnt[u] -= 1
                if cnt[u] == 0:
                    attr.add(u)
                    queue.append(u)
        return attr, strat

    def solve(region):
        if not region:
            return set(), set(), {}
        d = max(col[v] for v in region)
        p = d & 1
        target = [v for v in region if col[v] == d]
        area, strat_a = attract(p, target, region)
        w0a, w1a, strata = solve(region - area)
        wopp = w0a if p == 1 else w1a
        if not wopp:
            strat = dict(strata)
            strat.update(strat_a)
            for v in target:
                if owner[v] == p and v not in strat:
                    strat[v] = next(tag for t, tag in succ[v] if t in region)
            return ((set(), set(region), strat) if p == 1
                    else (set(region), set(), strat))
        barrier, strat_b = attract(1 - p, wopp, region)
        w0b, w1b, strat = solve(region - barrier)
        strat.update(strat_b)
        strat.update((v, strata[v]) for v in wopp if v in strata)
        if p == 0:
            return w0b, w1b | barrier, strat
        return w0b | barrier, w1b, strat

    _, w1, strat = solve(set(range(len(owner))))
    winners = [1 if s in w1 else 0 for s in range(n)]
    strategy = [(strat.get(s) or 0) if winners[s] == players[s] else 0
                for s in range(n)]
    return winners, strategy


# ------------------------------------------------------ corpus generators

def random_alt_buchi(seed, max_states=5, max_aps=2):
    """A reproducible random alternating automaton with Inf(0)
    acceptance, universal groups on some edges, sometimes a universal
    initial group."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    naps = rng.randint(1, max_aps)
    aut = Automaton(["p%d" % i for i in range(naps)])
    aut.new_states(n)
    nmin = 1 << naps
    for s in range(n):
        for _ in range(rng.randint(1, 3)):
            bits = rng.randrange(1, 1 << nmin)
            if rng.random() < 0.3 and n >= 2:
                k = rng.randint(2, min(3, n))
                dst = aut.new_univ_dest_group(rng.sample(range(n), k))
            else:
                dst = rng.randrange(n)
            acc = [0] if rng.random() < 0.45 else []
            aut.new_edge(s, dst, aut.store.intern(bits), acc)
    aut.set_acceptance(1, parse_acceptance("Inf(0)"))
    if rng.random() < 0.2 and n >= 2:
        aut.set_init(aut.new_univ_dest_group(rng.sample(range(n), 2)))
    else:
        aut.set_init(0)
    return aut


def random_parity_game(seed, max_states=8, ncolors=4):
    """A reproducible random max-odd parity game: trivial guards, one
    color per edge, random ownership."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    aut = Automaton(())
    aut.new_states(n)
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            aut.new_edge(s, rng.randrange(n), 1, [rng.randrange(ncolors)])
    aut.set_acceptance(ncolors, make_class(parity("max", "odd", ncolors)))
    aut.set_init(0)
    players = [rng.randint(0, 1) for _ in range(n)]
    aut.set_named_prop("state-player", players)
    return aut, players


def random_words(rng, naps, count=6, max_len=4):
    """(prefix, cycle) letter lists over the minterm alphabet."""
    out = []
    for _ in range(count):
        total = rng.randint(1, max_len)
        cut = rng.randint(0, total - 1)
        letters = [rng.randrange(1 << naps) for _ in range(total)]
        out.append((letters[:cut], letters[cut:]))
    return out
