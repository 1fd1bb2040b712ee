"""Graph algorithms: SCCs, structural flags, emptiness, products,
Fin-removal and alternation removal.

Edges whose guard is the false label are never traversable, so every
algorithm here skips them.  Universal destination groups count each
member as a successor; algorithms that need a plain (nonalternating)
transition structure say so and reject inputs with universal branching.
Every SCC consumer runs one iterative Couvreur search, _explore, over
per-state rows of out-edges.  The emptiness check is that search with
the acceptance: it stops at the first merge of partial SCCs whose colors
satisfy it, and splits on Fin only in closed SCCs that still need it.
is_empty and accepting_run run it over an automaton's edges;
product_is_empty and product_accepting_run over the rows of a product's
pairs, without building the product.  Products read one pair-row
function, made by _product_operands.  The constructions that number the
states they reach (product, dealternation, synthesis.strategy_to_mealy)
number them breadth first through _bfs_build; a product run's lasso
numbers its states in the order it visits them.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import chain
from operator import length_hint

from .acceptance import (AND, BUCHI, FALSE, OR, TRUE, AccClass, AccFalse,
                         Inf, _first_fin, _fold, colors_of, dnf_disjuncts,
                         dual, eval_acceptance, f_and, f_or, is_finless,
                         make_class, recognize, shift_colors, subst)
from .graph import (EDGE_COLUMNS, MAYBE, YES, Automaton,
                    reachable_states)  # re-exported
from .guards import FALSE_GUARD, GuardStore


# ---------------------------------------------------------------------------
# Strongly connected components.
#
# One routine, _explore, finds the components of a graph given by rows
# of out-edges (destination, colors, x).  SccInfo runs it on a whole
# automaton, the emptiness search on automata, on products explored on
# the fly and on the edge subsets of its Fin splits, and the game solver
# on its moves.

def _explore(roots, rows, acceptance=None, edges=False):
    """Couvreur's SCC search (FM 1999), iterative, over the states
    reachable from `roots`.

    rows gives each state's out-edges as triples (destination, colors,
    x), x being the caller's own, such as an edge index: a list over the
    states 0..n-1, or a function of the state for a graph explored
    lazily.  roots is a stack: each DFS tree starts at the state taken
    from its end, and a row function may push more roots onto it.

    Yields each SCC as it closes, in reverse topological order, as
    (members, colors, internal): its states, last visited first; the
    union of the colors of the edges inside it; and, when `edges` is
    set, those edges as (source,) + row entry, by source in visit order,
    else None.

    Each partial SCC on the root stack carries the colors of the edges
    read inside it.  Those edges are strongly connected, and a closed
    walk through all of them sees exactly those colors.  Given an
    acceptance formula, the search therefore stops at the first merge
    whose colors c satisfy it, and yields (None, c, internal) with the
    edges read so far inside the merged partial SCC.
    """
    # state -> DFS number, -1 once closed, None before it is reached
    if isinstance(rows, list):
        order = [None] * len(rows)
        rows = rows.__getitem__
    else:
        order = defaultdict(lambda: None)
    accepts = {}                # color bits -> eval_acceptance on them
    kept = []                   # DFS number -> its row
    live = []                   # the states not closed yet, in DFS order
    stack = []                  # per partial SCC: DFS number of its root,
    colors = []                 # the colors of the edges inside it,
    arcs = []                   # and of the tree edge into its root
    work = []                   # DFS stack: (DFS number, row iterator,
                                # live size)

    v = None
    while True:
        if v is None:
            if not roots:
                return
            v = roots.pop()
            if order[v] is not None:
                v = None
                continue
            arc = 0
        # v is new: number it, and read its row from the top of work
        row = rows(v)
        x = order[v] = len(kept)
        kept.append(row)
        work.append((x, iter(row), len(live)))
        live.append(v)
        stack.append(x)
        colors.append(0)
        arcs.append(arc)
        v = None
        while work:
            x, it, base = work[-1]
            for d, c, _ in it:
                w = order[d]
                if w is None:
                    v, arc = d, c
                    break
                if w < 0:
                    continue
                # a cycle back to w: merge every partial SCC above w's
                while stack[-1] > w:
                    stack.pop()
                    c |= colors.pop() | arcs.pop()
                colors[-1] = c = c | colors[-1]
                if acceptance is None:
                    continue
                ok = accepts.get(c)
                if ok is None:
                    ok = accepts[c] = eval_acceptance(acceptance, c)
                if not ok:
                    continue
                # the partial SCC's root is on the DFS stack, and its
                # states are the live ones from the root's on
                root = stack[-1]
                k = len(work) - 1
                while work[k][0] > root:
                    k -= 1
                read = {y: len(kept[y]) - length_hint(rest)
                        for y, rest, _ in work[k:]}
                yield None, c, [
                    (m,) + e for m in live[work[k][2]:]
                    for e in kept[order[m]][:read.get(order[m])]
                    if order[e[0]] >= root] if edges else None
                return
            else:
                work.pop()
                if stack[-1] != x:
                    continue
                # x closes its SCC: the states on live from x's on
                stack.pop()
                arcs.pop()
                if len(live) == base + 1:        # x alone
                    m = live.pop()
                    internal = [(m,) + e for e in kept[x]
                                if order[e[0]] >= x] if edges else None
                    order[m] = -1
                    yield [m], colors.pop(), internal
                    continue
                members = live[base:]
                del live[base:]
                internal = [(m,) + e for m in members
                            for e in kept[order[m]]
                            if order[e[0]] >= x] if edges else None
                for m in members:
                    order[m] = -1
                members.reverse()
                yield members, colors.pop(), internal
                continue
            break


def _successors(aut):
    """Per state s, the non-false out-edges of s in order, as
    (destination, colors, edge index), one per destination member."""
    rows = [[] for _ in range(aut.num_states)]
    for i, src, dst, cond, acc in zip(range(1, aut.num_edges + 1),
                                      aut.edge_src[1:], aut.edge_dst[1:],
                                      aut.edge_cond[1:], aut.edge_acc[1:]):
        if cond == FALSE_GUARD:
            continue
        if dst >= 0:
            rows[src].append((dst, acc, i))
        else:
            rows[src].extend([(d, acc, i) for d in aut.group_members(dst)])
    return rows


class SccInfo:
    """SCC decomposition of the part reachable from the initial designator.

    scc_of[s] is the component id of state s, or -1 when s is
    unreachable.  Components are numbered in reverse topological order:
    every edge between different components goes from a higher id to a
    lower one.  internal[i] lists the edge indices with source in
    component i and at least one destination member back in i; colors[i]
    is the union of their colors, an int of color bits.
    """

    def __init__(self, aut):
        self.aut = aut
        rows = _successors(aut)
        roots = list(aut.univ_dests(aut.init))[::-1] if aut.num_states \
            else []
        self.members, self.colors = [], []
        self.scc_of = scc_of = [-1] * aut.num_states
        for cid, (members, colors, _) in enumerate(_explore(roots, rows)):
            for s in members:
                scc_of[s] = cid
            self.members.append(members)
            self.colors.append(colors)
        self.internal = [[] for _ in self.members]
        for v, cid in enumerate(scc_of):
            if cid < 0:
                continue
            last = 0             # a group edge counts once
            for d, _, i in rows[v]:
                if i != last and scc_of[d] == cid:
                    self.internal[cid].append(i)
                    last = i


def scc_info(aut):
    return SccInfo(aut)


def _bfs_build(start, succ):
    """Number the states reachable from the state keyed `start`, breadth
    first, or none when start is None.  succ(key) lists a state's edges
    as (destination key, x, y).

    Returns (keys, edges): keys[n] is the key of state n, and edges are
    (source, destination, x, y) by source, then in succ order.
    """
    keys = [] if start is None else [start]
    index = {start: 0}
    edges = []
    for src, key in enumerate(keys):      # breadth first: keys grow behind
        for dst, x, y in succ(key):
            n = index.get(dst)
            if n is None:
                n = index[dst] = len(keys)
                keys.append(dst)
            edges.append((src, n, x, y))
    return keys, edges


# ---------------------------------------------------------------------------
# Structural flag checkers.

def _check_universal(aut):
    # no universal branching and, per state, pairwise disjoint guards
    if aut.has_universal_branches():
        return False
    bits_of, conds = aut.store.bits_of, aut.edge_cond
    for s in range(aut.num_states):
        union = 0
        for i in aut.out_indices(s):
            bits = bits_of(conds[i])
            if union & bits:
                return False
            union |= bits
    return True


def _check_complete(aut):
    if aut.num_states == 0:
        return False
    bits_of, conds, full = aut.store.bits_of, aut.edge_cond, aut.store.full
    for s in range(aut.num_states):
        union = 0
        for i in aut.out_indices(s):
            union |= bits_of(conds[i])
        if union != full:
            return False
    return True


def _check_weak(aut, info=None):
    # in each SCC, every internal edge carries the same colors, so all of
    # the component's cycles agree on acceptance
    accs = aut.edge_acc
    return all(len({accs[i] for i in edges}) <= 1
               for edges in (info or scc_info(aut)).internal)


def _check_very_weak(aut):
    info = scc_info(aut)
    if any(len(m) > 1 for m in info.members):
        return False
    return _flag(aut, "weak", _check_weak, info)


def _check_inherently_weak(aut):
    # no component may contain an accepting cycle and a rejecting cycle
    if aut.has_universal_branches():
        raise ValueError("inherently_weak needs a nonalternating automaton")
    rejecting = dual(aut.acceptance)
    roots = [aut.init] if aut.num_states else []
    for _, colors, table in _explore(roots, _successors(aut), edges=True):
        ids = range(len(table))
        if table and (
                _search_scc(table, ids, colors, aut.acceptance) is not None
                and _search_scc(table, ids, colors, rejecting) is not None):
            return False
    return True


def _check_terminal(aut):
    # weak, and every accepting component is a complete sink
    info = scc_info(aut)
    if not _flag(aut, "weak", _check_weak, info):
        return False
    for cid, members in enumerate(info.members):
        if not info.internal[cid]:
            continue
        if not eval_acceptance(aut.acceptance, info.colors[cid]):
            continue
        for s in members:
            union = 0
            for i in aut.out_indices(s):
                cond = aut.edge_cond[i]
                if cond == FALSE_GUARD:
                    continue
                if any(info.scc_of[d] != cid
                       for d in aut.univ_dests(aut.edge_dst[i])):
                    return False
                union |= aut.store.bits_of(cond)
            if union != aut.store.full:
                return False
    return True


def _flag(aut, name, checker, *args):
    """The flag's value, from checker(aut, *args) the first time."""
    val = aut.get_flag(name)
    if val is not MAYBE:
        return val is YES
    if checker is None:
        raise ValueError("no checker registered for flag %r" % name)
    result = bool(checker(aut, *args))
    aut.set_flag(name, result)
    return result


def get_or_compute_flag(aut, name):
    """Cached trivalent read: compute once, then answer from the flag."""
    return _flag(aut, name, {
        "universal": _check_universal, "complete": _check_complete,
        "weak": _check_weak, "very_weak": _check_very_weak,
        "inherently_weak": _check_inherently_weak,
        "terminal": _check_terminal}.get(name))


def is_universal(aut):
    return get_or_compute_flag(aut, "universal")


def is_complete(aut):
    return get_or_compute_flag(aut, "complete")


def is_weak(aut):
    return get_or_compute_flag(aut, "weak")


def is_very_weak(aut):
    return get_or_compute_flag(aut, "very_weak")


def is_inherently_weak(aut):
    return get_or_compute_flag(aut, "inherently_weak")


def is_terminal(aut):
    return get_or_compute_flag(aut, "terminal")


# ---------------------------------------------------------------------------
# Emptiness for arbitrary acceptance conditions.
#
# The search decomposes the graph into SCCs with _explore, which ends it
# at the first partial SCC whose colors satisfy the acceptance.  When Fin
# atoms remain, each closed SCC is searched further.  Colors absent from a
# component can only be seen finitely often there, which substitutes
# their atoms by constants, and the edges of a top-level Fin unit go at
# once (_restrict).  A Fin-free residual formula is satisfied by a
# closed walk covering all of the component's edges.  Otherwise some
# Fin(c) with c present is picked and both ways of satisfying it are
# tried: delete the c-colored edges, or give up on it (Fin(c) := false,
# sound because the formula is monotone in its atoms).

def _restrict(f, present):
    """(g, units): f with the atoms of colors absent from the int `present`
    made constant, then its top-level Fin units made true, and their bits.
    g is f itself when neither changes anything."""
    absent = fins = 0
    for x in f.code:
        if not x & 2:                   # an atom
            bit = 1 << (x >> 2)
            if not present & bit:
                absent |= bit
            elif not x & 1:
                fins |= bit
    if absent:
        gone = colors_of(absent)
        f = subst(f, dict.fromkeys(gone, True), dict.fromkeys(gone, False))
    if not fins:
        return f, 0
    code = f.code
    if code[-1] > 3 and code[-1] & 3 == 2:
        # the top And's operands: what stays on a stack of operand tops
        tops = []
        for x in code[:-1]:
            if x > 3 and x & 2:         # an operator takes x >> 2 operands
                del tops[len(tops) - (x >> 2):]
            tops.append(x)
    else:
        tops = code[-1:]
    units = 0
    for x in tops:
        if not x & 3:                   # a Fin atom
            units |= 1 << (x >> 2)
    if units:
        f = subst(f, dict.fromkeys(colors_of(units), True), {})
    return f, units


def _subgraph_sccs(table, ids):
    """(internal edge ids in increasing order, their colors as an int) of
    each nontrivial SCC of the subgraph made of the edges `ids` of
    `table` (edge id -> (src, dst, color bits, ...)), in reverse
    topological order.  Its DFS trees start at the sources in order."""
    rows = {}
    for i in ids:
        e = table[i]
        rows.setdefault(e[0], []).append((e[1], e[2], i))
    return [(sorted(e[3] for e in edges), colors)
            for _, colors, edges in _explore(
                list(rows)[::-1], lambda v: rows.get(v, ()), edges=True)
            if edges]


def _search_scc(table, internal, present, formula):
    """A strongly connected edge set inside the component made of the
    `internal` edges of `table` (see _subgraph_sccs), whose colors are
    the int `present`, such that a closed walk over all of it satisfies
    the formula; or None.

    The search is depth-first over an explicit stack, one level per Fin
    split, so as many splits as colors do not exhaust Python's stack."""
    todo = [(internal, present, formula)]
    while todo:
        internal, present, formula = todo.pop()
        g, cut = _restrict(formula, present)
        if isinstance(g, AccFalse):
            continue
        if not cut:
            if is_finless(g):
                # a walk over all internal edges sees every present color
                return internal
            # each part without c first, in order, then giving up on Fin(c)
            c = _first_fin(g)
            cut = 1 << c
            todo.append((internal, present, subst(g, {c: False}, {})))
        sub = [i for i in internal if not table[i][2] & cut]
        todo += reversed([(part, colors, g)
                          for part, colors in _subgraph_sccs(table, sub)])
    return None


def _accepting_cycle(roots, rows, acceptance, present, run):
    """Couvreur's search (_explore from `roots` over `rows`) for an
    accepting cycle of a graph whose edges carry only the colors of the
    int `present`.  None when there is none.  Otherwise, when `run` is
    set, an accepting strongly connected edge set as (table, ids): table
    lists edges as (source,) + row entry, ids the set's positions in
    it; True when `run` is not set.

    The acceptance is restricted to the present colors (_restrict), and
    an edge of a top-level Fin unit only roots a later DFS tree.  The
    search stops at the first merge of partial SCCs whose colors satisfy
    the acceptance, for any Emerson-Lei condition.  When Fin atoms
    remain, a closed SCC may hold an accepting cycle avoiding some
    colors, which _search_scc looks for in its internal edges.
    """
    acceptance, units = _restrict(acceptance, present)
    if acceptance is FALSE:
        return None
    if units:
        row = rows.__getitem__ if isinstance(rows, list) else rows

        def cut(v):
            got = row(v)
            roots.extend([e[0] for e in got if e[1] & units])
            return [e for e in got if not e[1] & units]
        rows = cut
    split = not is_finless(acceptance)
    for members, colors, table in _explore(roots, rows, acceptance,
                                           split or run):
        if members is None:
            return (table, range(len(table))) if run else True
        # without colors, each of its cycles sees the empty set, which
        # a merge already found rejecting
        if split and colors:
            got = _search_scc(table, range(len(table)), colors, acceptance)
            if got is not None:
                return (table, got) if run else True
    return None


def _witness(aut, rows, run):
    """_accepting_cycle on a nonalternating automaton whose _successors
    are rows."""
    if aut.has_universal_branches():
        raise ValueError("emptiness needs a nonalternating automaton")
    present = 0
    for bits in set(aut.edge_acc[1:]):
        present |= bits
    return _accepting_cycle([aut.init] if aut.num_states else [], rows,
                            aut.acceptance, present, run)


def is_empty(aut):
    """True iff the automaton accepts no word."""
    return _witness(aut, _successors(aut), False) is None


@dataclass
class Lasso:
    """An accepting run: a finite prefix into a repeated cycle.

    Both parts are lists of edge indices; the cycle is nonempty and
    returns to its starting state.
    """
    prefix: list = field(default_factory=list)
    cycle: list = field(default_factory=list)


def check_run(aut, run):
    """Validate that a Lasso really is an accepting run."""
    if not run.cycle:
        return False
    at = aut.init
    if at < 0:
        return False
    src, dst, cond, acc = (aut.edge_src, aut.edge_dst, aut.edge_cond,
                           aut.edge_acc)
    for i in run.prefix + [run.cycle[0]]:
        if src[i] != at or dst[i] < 0 or cond[i] == FALSE_GUARD:
            return False
        at = dst[i]
    start = src[run.cycle[0]]
    at = start
    seen = 0
    for i in run.cycle:
        if src[i] != at or dst[i] < 0 or cond[i] == FALSE_GUARD:
            return False
        at = dst[i]
        seen |= acc[i]
    if at != start:
        return False
    return eval_acceptance(aut.acceptance, seen)


def _bfs_path(succ, sources, goal):
    """Shortest edge path from a source state whose last edge is the
    first one for which goal(edge, dst) holds, or None.

    succ(v) gives the (destination, edge) pairs of state v; it must
    answer for every state the search reaches.
    """
    prev = dict.fromkeys(sources)     # state -> (edge, state) entering it
    queue = deque(prev)
    while queue:
        v = queue.popleft()
        for d, i in succ(v):
            if goal(i, d):
                path = [i]
                while prev[v] is not None:
                    i, v = prev[v]
                    path.append(i)
                path.reverse()
                return path
            if d not in prev:
                prev[d] = (i, v)
                queue.append(d)
    return None


def _lasso_cycle(table, witness, first):
    """A closed walk that starts with the edge `first` of the strongly
    connected edge set `witness`, stays inside it and sees each of its k
    colors.  table maps an edge to its (src, dst, color bits, ...).

    After `first`, the walk repeatedly takes a shortest path through the
    witness to the nearest edge bearing a color not seen yet, then a
    shortest path back to its start, so it has at most (k + 1) *
    |states of the witness| edges.  It sees exactly the colors of a walk
    covering the witness, so it is accepting when the witness is.
    """
    out = {}
    missing = 0
    for i in witness:
        e = table[i]
        out.setdefault(e[0], []).append((e[1], i))
        missing |= e[2]
    start = table[first][0]

    def new_color(i, d):
        return table[i][2] & missing

    def home(i, d):
        return d == start

    cycle = []
    path = [first]
    while True:
        cycle.extend(path)
        for i in path:
            missing &= ~table[i][2]
        at = table[path[-1]][1]
        if not missing and at == start:
            return cycle
        path = _bfs_path(out.__getitem__, [at],
                         new_color if missing else home)
        if path is None:
            raise RuntimeError("accepting_run: witness not strongly "
                               "connected")


def _lasso_steps(table, ids, init, row):
    """The prefix and the cycle of a lasso through the accepting strongly
    connected edge set (table, ids) that _accepting_cycle found, as lists
    of edges (source,) + row entry.

    row(v) gives the out-edges of state v as _explore reads them.  The
    prefix is a shortest path from init to a state of the set, so it is
    shorter than the number of states; the cycle is _lasso_cycle from
    the set's first edge out of that state.
    """
    starts = {table[i][0] for i in ids}
    prefix = [] if init in starts else _bfs_path(
        lambda v: [(e[0], (v,) + e) for e in row(v)], [init],
        lambda edge, d: d in starts)
    if prefix is None:
        raise RuntimeError("accepting_run: witness not reachable")
    at = prefix[-1][1] if prefix else init
    first = next(i for i in ids if table[i][0] == at)
    return prefix, [table[i] for i in _lasso_cycle(table, ids, first)]


def accepting_run(aut):
    """An accepting Lasso, or None when the language is empty: the
    _lasso_steps through the witness of the emptiness search."""
    rows = _successors(aut)
    witness = _witness(aut, rows, True)
    if witness is None:
        return None
    prefix, cycle = _lasso_steps(*witness, aut.init, rows.__getitem__)
    run = Lasso([e[3] for e in prefix], [e[3] for e in cycle])
    if not check_run(aut, run):
        raise RuntimeError("accepting_run: the lasso is not accepting")
    return run


# ---------------------------------------------------------------------------
# Fin removal.

def remove_fin(aut):
    """An equivalent automaton whose acceptance has no Fin atom.

    Works disjunct by disjunct on the DNF.  For each disjunct a copy of
    the automaton is kept whose edges avoid that disjunct's Fin colors
    and stay inside one original SCC; the run may jump from the original
    part into any copy at any moment.  Every copy edge carries a fresh
    marker color, so staying in a copy forever is observable even for
    disjuncts with no Inf atoms.

    The output's states are the original n, then n per copy.  Its edges
    are, in index order: the m original edges; then each edge's jump
    into every copy, edge-major; then each copy's kept edges.  They are
    written as columns through `Automaton.extend_edges`, the first two
    parts in one call and each copy in one more, so every out-list is in
    index order, whatever the order of the input's, and a state's
    originals come before its jumps.
    """
    if aut.has_universal_branches():
        raise ValueError("Fin removal needs a nonalternating automaton")
    if is_finless(aut.acceptance):
        return aut.clone(keep_flags=True)
    disjuncts = dnf_disjuncts(aut.acceptance)
    if disjuncts is None:
        # an unfolded t disjunct, as in Or([Fin(0), AccTrue()]), accepts
        # every run, and so does one copy without Fin or Inf colors
        disjuncts = [(frozenset(), frozenset())]
    scc_of = scc_info(aut).scc_of
    n = aut.num_states
    bases = [n * (d + 1) for d in range(len(disjuncts))]
    jumps = len(bases)
    srcs, dsts, conds, accs = [getattr(aut, name)[1:]
                               for name in EDGE_COLUMNS[:4]]
    out = Automaton(aut.aps, aut.store)
    out.new_states(n * (1 + jumps))
    out.extend_edges(
        srcs + list(chain.from_iterable(zip(*[srcs] * jumps))),
        dsts + [base + d for d in dsts for base in bases],
        conds + list(chain.from_iterable(zip(*[conds] * jumps))),
        [out.shared_colors(0)] * (len(srcs) * (1 + jumps)))

    # each copy keeps the edges inside an original SCC that avoid its Fin
    # colors
    internal = [(s, d, c, b) for s, d, c, b in zip(srcs, dsts, conds, accs)
                if scc_of[s] >= 0 and scc_of[d] == scc_of[s]]
    terms = []
    total = 0
    for base, (fins, infs) in zip(bases, disjuncts):
        # the copy's marker color is `total`, its Inf colors follow it
        infs = sorted(infs)
        terms.append(f_and([Inf(c) for c in range(total,
                                                  total + 1 + len(infs))]))
        fin_bits = sum(1 << c for c in fins)
        kept = [e for e in internal if not e[3] & fin_bits]
        copy_bits = {bits: out.shared_colors(
            1 << total | sum(1 << (total + 1 + k)
                             for k, c in enumerate(infs) if bits >> c & 1))
            for bits in {e[3] for e in kept}}
        out.extend_edges([e[0] + base for e in kept],
                         [e[1] + base for e in kept],
                         [e[2] for e in kept],
                         [copy_bits[e[3]] for e in kept])
        total += 1 + len(infs)
    out.set_acceptance(total, f_or(terms))
    if n:
        out.set_init(aut.init)
    return out


# ---------------------------------------------------------------------------
# Products.

def _weak_product_side(weak, other):
    # the optimization drops the weak side's colors entirely; it needs
    # the other acceptance to be Fin-free and to reject colorless cycles
    return (weak.get_flag("weak") is YES
            and is_finless(other.acceptance)
            and not eval_acceptance(other.acceptance, 0))


def _accepting_scc_mask(aut):
    """Per state, -1 (all colors) in an accepting SCC, else 0."""
    info = scc_info(aut)
    ok = [bool(internal) and eval_acceptance(aut.acceptance, colors)
          for internal, colors in zip(info.internal, info.colors)]
    return [-1 if cid >= 0 and ok[cid] else 0 for cid in info.scc_of]


class _FlatRows(dict):
    """rows[s] = [(guard bits, dst, colors), ...] over the edges of state
    s in order, with guards moved into `store` and false ones dropped.
    A state's row is built the first time it is looked up, from the edge
    columns of an Automaton, or from the edges a hoa.LazyAutomaton parses
    for that state alone.

    Colors beyond the declared count are inert and masked off; the rest
    are shifted left by `shift`, or all dropped when `keep` is false.
    """

    def __init__(self, aut, store, ap_map, shift, keep):
        super().__init__()
        self.aut = aut
        self.store = store
        self.move = store.translator(aut.store, ap_map)
        self.shift = shift
        self.mask = ((1 << aut.num_sets) - 1) if keep else 0
        self.bits = {}                # guard id in aut -> bits in store
        if isinstance(aut, Automaton):
            conds, dsts, accs = aut.edge_cond, aut.edge_dst, aut.edge_acc
            self.edges = lambda s: [(s, dsts[i], conds[i], accs[i])
                                    for i in aut.out_indices(s)]
            bits = 0
            for acc in accs[1:] if self.mask else ():
                bits |= acc
        else:
            self.edges, bits = aut.edges_of, aut.colors
        self.colors = (bits & self.mask) << shift   # union over all rows

    def _bits(self, cond):
        g = self.bits[cond] = self.move(self.aut.store.bits_of(cond))
        return g

    def intern_all(self):
        """Intern every guard in the store, in edge order, before any row
        is built: the store then numbers them as translate_from would."""
        for cond in self.aut.edge_cond[1:]:
            if cond not in self.bits:
                self.store.intern(self._bits(cond))

    def __missing__(self, s):
        bits, mask, shift = self.bits, self.mask, self.shift
        row = self[s] = []
        for _, dst, cond, acc in self.edges(s):
            g = bits.get(cond)
            if g is None:
                g = self._bits(cond)
            if g:
                row.append((g, dst, (acc & mask) << shift))
        return row


def _product_operands(a, b):
    """(row, init, present, acceptance, build, flat) of product(a, b).

    row(key) lists the edges of the pair keyed s * |b| + t as (pair,
    colors, guard bits), in a's edge order, then b's, from operand rows
    flattened when first reached (flat holds the two _FlatRows).  init
    is the initial pair, None when an operand has no state; present is
    the union of the colors a pair can carry.  build(keys, edges) makes
    the automaton of pairs numbered as _bfs_build numbers them over row.

    When one operand is known weak and the other side's acceptance is
    Fin-free and rejects colorless cycles, the weak side contributes no
    colors: its accepting SCCs simply let the partner's colors through.
    """
    if a.has_universal_branches() or b.has_universal_branches():
        raise ValueError("product needs nonalternating automata")
    aps = list(a.aps)
    for p in b.aps:
        if p not in aps:
            aps.append(p)

    weak_a = _weak_product_side(a, b)
    weak_b = not weak_a and _weak_product_side(b, a)
    if weak_a:
        num_sets = b.num_sets
        acceptance = b.acceptance
    elif weak_b:
        num_sets = a.num_sets
        acceptance = a.acceptance
    else:
        num_sets = a.num_sets + b.num_sets
        acceptance = shift_colors(b.acceptance, a.num_sets)
        if a.acceptance is not TRUE:      # t & x folds to x
            acceptance = f_and([a.acceptance, acceptance])
    store = GuardStore(len(aps))
    # the partner's colors pass only where the weak side sits in an
    # accepting SCC
    gate_a = _accepting_scc_mask(a) if weak_a else [-1] * a.num_states
    gate_b = _accepting_scc_mask(b) if weak_b else [-1] * b.num_states
    succ_a = _FlatRows(a, store, [aps.index(p) for p in a.aps], 0,
                       not weak_a)
    succ_b = _FlatRows(b, store, [aps.index(p) for p in b.aps],
                       0 if weak_a or weak_b else a.num_sets, not weak_b)
    nb = b.num_states

    def row(key):
        s, t = divmod(key, nb)
        keep = gate_a[s] & gate_b[t]
        row_b = succ_b[t]
        return [(da * nb + db, (ca | cb) & keep, g)
                for ga, da, ca in succ_a[s]
                for gb, db, cb in row_b if (g := ga & gb)]

    def build(keys, edges):
        out = Automaton(aps, store)
        out.new_states(len(keys))
        intern = store.intern
        out.new_edges([(src, dst, intern(g), c) for src, dst, c, g in edges])
        out.set_acceptance(num_sets, acceptance)
        if keys:
            out.set_init(0)
        out.set_named_prop("product-states", [divmod(k, nb) for k in keys])
        return out

    init = a.init * nb + b.init if a.num_states and nb else None
    present = succ_a.colors | succ_b.colors \
        if any(gate_a) and any(gate_b) else 0
    return row, init, present, acceptance, build, (succ_a, succ_b)


def product(a, b):
    """Intersection product over the union of the AP lists.

    Runs are paired, so neither operand may use universal branching;
    see _product_operands for the pairs' edges and the colors of a weak
    operand.  States are the pairs reached from the initial one,
    numbered breadth first (_bfs_build), and only nonempty conjunctions
    are interned.
    """
    row, init, _, _, build, flat = _product_operands(a, b)
    for rows in flat:     # the operands' guards take the store's first ids
        rows.intern_all()
    return build(*_bfs_build(init, row))


def product_is_empty(a, b):
    """is_empty(product(a, b)), decided on the fly by _accepting_cycle
    over the pairs' rows, without building the product: no guard is
    interned."""
    row, init, present, acceptance = _product_operands(a, b)[:4]
    return _accepting_cycle([] if init is None else [init], row,
                            acceptance, present, False) is None


def product_accepting_run(a, b):
    """accepting_run(product(a, b)), found on the fly: None when the
    product is empty, else (lasso, run).

    The lasso is an automaton of just the run's states, numbered in the
    order the run first visits them from the initial pair, 0, and built
    by product's assembler.  run is a Lasso over the lasso's edges, the
    _lasso_steps through the witness of the search product_is_empty runs.
    """
    row, init, present, acceptance, build, _ = _product_operands(a, b)
    witness = _accepting_cycle([] if init is None else [init], row,
                               acceptance, present, True)
    if witness is None:
        return None
    prefix, cycle = _lasso_steps(*witness, init, row)
    number = {init: 0}
    edges = []
    for src, dst, c, g in prefix + cycle:
        number.setdefault(dst, len(number))
        edges.append((number[src], number[dst], c, g))
    lasso = build(list(number), edges)
    run = Lasso(list(range(1, len(prefix) + 1)),
                list(range(len(prefix) + 1, len(edges) + 1)))
    if not check_run(lasso, run):
        raise RuntimeError("accepting_run: the lasso is not accepting")
    return lasso, run


# ---------------------------------------------------------------------------
# Alternation removal.

def _members(mask):
    """The states of a bitmask of states, in increasing order."""
    states = []
    while mask:
        states.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return states


def _dest_mask(aut, word):
    """A word's destination states, which are distinct, as a bitmask."""
    return sum(1 << q for q in aut.univ_dests(word))


def _explore_macro(aut, start, edge, reset, brk, policed):
    """The automaton of the macro states (S, O) reachable from `start`,
    numbered breadth first (_bfs_build), which accepts when each of the
    colors brk | policed shows infinitely often.

    S and O are bitmasks of states: the active ones and those owing a
    visit.  Each out-edge of a state q is read once into (guard bits,
    destination mask D) + edge(q, D, colors), the latter two masks being
    the destinations that take over q's debt while q is in O, and the
    progress colors the edge keeps from showing.  The choices of one
    out-edge per state of S whose guards meet are walked depth first, in
    itertools.product order.  A choice whose ORs of destinations, debts
    and kept colors are S', O' and K steps to (S', O') under colors
    policed & ~K, or, when O' is empty, breaks to (S', S' & reset) under
    brk | policed & ~K.  Choices with the same step share one edge under
    the union of their guards.  Macro states are named "{S}|{O}", or
    "{S}" when brk is 0.
    """
    store = aut.store
    full = store.full
    out = Automaton(aut.aps, store)
    total = (brk | policed).bit_length()
    out.set_acceptance(total, f_and([Inf(c) for c in range(total)]))
    conds, dsts, accs = aut.edge_cond, aut.edge_dst, aut.edge_acc
    owing, free = [], []       # each state's rows while in O and not
    for q in range(aut.num_states):
        row = []
        for i in aut.out_indices(q):
            d = _dest_mask(aut, dsts[i])
            row.append((store.bits_of(conds[i]), d) + edge(q, d, accs[i]))
        owing.append(row)
        free.append([(b, d, 0, k) for b, d, _, k in row])

    def succ(key):
        S, O = key
        # the last row's entries end leaves, so they are not pushed; no
        # state at all leaves the one choice of no edges, under t
        rows = [(owing if O >> q & 1 else free)[q] for q in _members(S)]
        last = rows.pop() if rows else [(full, 0, 0, 0)]
        merged = {}
        stack = [(0, full, 0, 0, 0)]
        while stack:
            depth, g, s, o, k = stack.pop()
            if depth < len(rows):
                for b, d, od, kd in reversed(rows[depth]):   # popped in order
                    if g & b:
                        stack.append((depth + 1, g & b, s | d, o | od, k | kd))
                continue
            for b, d, od, kd in last:
                meet = g & b
                if meet:
                    s_next, o_next = s | d, o | od
                    if o_next:
                        nxt = s_next, o_next, policed & ~(k | kd)
                    else:
                        nxt = s_next, s_next & reset, brk | policed & ~(k | kd)
                    merged[nxt] = merged.get(nxt, 0) | meet
        return [((s_next, o_next), store.intern(g), colors)
                for (s_next, o_next, colors), g in merged.items()]

    keys, edges = _bfs_build(start, succ)
    out.new_states(len(keys))
    out.new_edges(edges)
    out.set_init(0)
    out.set_named_prop("state-names", [
        "|".join("{%s}" % ",".join(map(str, _members(mask)))
                 for mask in (key if brk else key[:1])) for key in keys])
    return out


def _dealternate_buchi(aut):
    """Breakpoint construction (Miyano and Hayashi) for alternating
    automata with Inf(0).

    Macro states are pairs (S, O): the set of active states and the
    subset still owing a visit to color 0 since the last breakpoint.
    When every owed state delivers, the macro edge shows color 0 and the
    obligation restarts from the full successor set.  At most 3^n macro
    states.
    """
    s0 = _dest_mask(aut, aut.init)
    return _explore_macro(aut, (s0, s0), lambda q, d, colors:
                          (0 if colors & 1 else d, 0), -1, 1, 0)


def _dealternate_weak(aut):
    """Subset construction for weak alternating automata.

    A branch of the run tree settles into one SCC; the word is accepted
    iff no branch settles into a rejecting one.  Rejecting singleton
    components are policed by one progress color each, marked whenever
    the state is absent or its chosen edge leaves it.  All multi-state
    rejecting components share a single breakpoint obligation set like
    the Buchi construction, with same-component successors inheriting
    the debt.  Very weak automata have no multi-state components, so
    their macro states are plain subsets (at most 2^n).
    """
    info = scc_info(aut)
    if not _check_weak(aut, info):
        raise ValueError("weak dealternation needs SCC-uniform colors")

    multi = 0             # states of multi-state rejecting components
    comp = {}             # each such state's component
    singles = []          # states that are a rejecting component alone
    for cid, members in enumerate(info.members):
        if info.internal[cid] and not eval_acceptance(aut.acceptance,
                                                      info.colors[cid]):
            if len(members) > 1:
                mask = sum(1 << q for q in members)
                multi |= mask
                comp.update(dict.fromkeys(members, mask))
            else:
                singles.append(members[0])
    first = 1 if multi else 0     # color 0 marks breakpoints
    progress = {q: 1 << (first + k) for k, q in enumerate(sorted(singles))}

    def edge(q, d, colors):
        # a single's progress is kept while its chosen edge loops on it
        return d & comp.get(q, 0), progress.get(q, 0) if d >> q & 1 else 0

    s0 = _dest_mask(aut, aut.init)
    return _explore_macro(aut, (s0, s0 & multi), edge, multi, first,
                          ((1 << len(singles)) - 1) << first)


def remove_alternation(aut):
    """An equivalent automaton without universal branching.

    Nonalternating inputs are copied.  A weak automaton (known or
    detected) goes through the subset construction with per-component
    policing; otherwise the acceptance must be Inf(0) and the breakpoint
    construction runs.  Anything else is rejected.
    """
    if not aut.has_universal_branches():
        return aut.clone(keep_flags=True)
    if aut.get_flag("weak") is YES:
        return _dealternate_weak(aut)
    if recognize(aut.acceptance) == BUCHI:
        return _dealternate_buchi(aut)
    if get_or_compute_flag(aut, "weak"):
        return _dealternate_weak(aut)
    raise ValueError(
        "alternation removal covers weak automata and Inf(0) acceptance")


# ---------------------------------------------------------------------------
# Random generation.

def random_acceptance(colors, rng):
    """A random positive formula using each of the colors exactly once.

    The shuffled atoms stand in a row, and a random pair of neighbours
    is replaced by its And or Or until one formula is left.  A Fenwick
    tree over the row's slots finds the pair, and the merges are kept as
    tree nodes and folded as one postfix code at the end, so n colors
    take O(n log n) steps."""
    if colors == 0:
        return TRUE
    atoms = [4 * c + (rng.random() >= 0.5) for c in range(colors)]
    rng.shuffle(atoms)
    live = [k & -k for k in range(colors + 1)]    # Fenwick tree of 0/1
    node = list(range(colors))    # per slot: the atom or merge it holds
    merges = []                   # merge k is node colors + k
    high = 1 << colors.bit_length()

    def slot(rank):               # the slot of the rank-th live slot
        at, step = 0, high
        while step:
            if at + step <= colors and live[at + step] <= rank:
                at += step
                rank -= live[at]
            step >>= 1
        return at

    for count in range(colors, 1, -1):
        i = rng.randrange(count - 1)
        a, b = slot(i), slot(i + 1)
        merges.append((node[a], node[b],
                       4 * 2 + (AND if rng.random() < 0.5 else OR)))
        node[a] = colors + len(merges) - 1
        b += 1
        while b <= colors:
            live[b] -= 1
            b += b & -b
    raw = []                      # the postfix code, read backwards
    todo = [node[0]]              # slot 0 is never merged away
    while todo:
        k = todo.pop()
        if k < colors:
            raw.append(atoms[k])
        else:
            left, right, op = merges[k - colors]
            raw.append(op)
            todo += (left, right)
    raw.reverse()
    return _fold(raw)


def random_automaton(states, aps, density=0.5, colors=0, color_density=0.2,
                     acceptance=None, seed=None):
    """A reproducible random automaton.

    For every state and every letter (minterm), an edge toward a uniform
    random target exists with the given density, so density 1 yields a
    complete automaton.  A spanning edge into each state keeps everything
    reachable from state 0.  Each edge then picks up each color with
    probability color_density.

    acceptance may be None (a random formula over the colors), a formula
    node, or an AccClass whose canonical formula is taken.
    """
    if states < 1:
        raise ValueError("need at least one state")
    if colors < 0 or isinstance(aps, int) and aps < 0:
        raise ValueError("need nonnegative color and AP counts")
    for name, p in ("density", density), ("color density", color_density):
        if not 0 <= p <= 1:           # also false for nan
            raise ValueError("%s %r is not in [0, 1]" % (name, p))
    rng = random.Random(seed)
    names = ["p%d" % i for i in range(aps)] if isinstance(aps, int) \
        else list(aps)
    nminterms = 1 << len(names)
    aut = Automaton(names)
    aut.new_states(states)
    rows = []
    for s in range(states):
        targets = {}
        for m in range(nminterms):
            if rng.random() < density:
                t = rng.randrange(states)
                targets[t] = targets.get(t, 0) | (1 << m)
        for t in sorted(targets):
            rows.append((s, t, aut.store.intern(targets[t]), 0))
    for s in range(1, states):
        parent = rng.randrange(s)
        m = rng.randrange(nminterms)
        rows.append((parent, s, aut.store.intern(1 << m), 0))
    if colors:
        # each edge's colors are drawn after every edge is chosen, in order
        rows = [(s, t, g, sum(1 << c for c in range(colors)
                              if rng.random() < color_density))
                for s, t, g, _ in rows]
    aut.new_edges(rows)
    if acceptance is None:
        formula = random_acceptance(colors, rng)
    elif isinstance(acceptance, AccClass):
        formula = make_class(acceptance)
    else:
        formula = acceptance
    aut.set_acceptance(colors, formula)
    aut.set_init(0)
    return aut
