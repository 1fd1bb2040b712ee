"""Automaton storage.

States and edges live in flat tables.  States are two int columns,
`_succ` and `_tail`, holding each state's first and last out-edge (0 for
none).  Edges are five parallel list columns (`EDGE_COLUMNS`), read-only
outside this module; `edge_next[i]` names the next edge of edge i's
source, so a state's out-edges form a singly linked list in insertion
order, and slot 0 of each column is the reserved terminator.  A new
state is one append per column, a new edge a few comparisons, one append
per column and one link.  `aut.edges[i]`, `out()` and `edge_records()`
give EdgeRecord views, whose attribute writes go to the columns; a hot
loop walks an out-list itself, from `first_edges[s]` along `edge_next`.
The columns are lists, not `array('i')`: in CPython an array read boxes
a new int, and both its reads and appends cost more than a list's.

`extend_edges` is the one method that appends edges: it takes four
columns, appends them and links each edge after its source's last
out-edge, checking nothing.  `new_edges` is the checks in front of it,
one (src, dst, cond, colors) tuple at a time; `algorithms.remove_fin`
and the HOA reader, for a body in print_hoa's form whose lines it has
checked, call `extend_edges` directly.  `clone` copies the columns and
state links.  `trim` leaves the edges it keeps in storage order: when
nothing drops it is a `clone`, else it compresses each column through
the kept-edge numbers and renumbers the links as columns, walking only
the out-lists of states with a false-guard edge.  `remove_fin`, `clone`
and `trim` write edges made from an input's edges (a state shifted or
renumbered, a color set remapped and shared), which were checked when
they were added, so they are not checked again; `check()` validates
the result.

A destination word is either a plain state index (>= 0) or, for universal
branching, the bitwise complement ~offset of an offset into the `dests`
table (so it is negative).  At that offset the table holds the group size
n followed by the n member states; each ordered member list is stored
once.  The initial designator is a single
destination word, so it too may name a universal group.

An edge's colors are a non-negative int whose bit i is color i, as
Spot's acc_cond::mark_t; it has no width.  Equal values are one object:
an automaton keeps one int per value, so that sets above 256, which
CPython does not cache, are not stored once per edge.  `new_edges`, the
`e.acc` setter and `map_colors` all go through that table, and
`extend_edges` takes ints that `shared_colors` handed out.

Packed (`pack_edges`), an edge is five 32-bit fields with one color
word: src, dst, cond, acc, next -- 20 bytes, plus 4 per extra word,
sized by the declared color count or the highest edge color.  That is
the binary layout only: live, a built 250x250-state product retains
about 154 bytes per edge in all (tracemalloc, Python 3.11), against 192
when each edge was one record object.
"""

from __future__ import annotations

import enum
import operator
import struct
import types
from itertools import compress, count, islice

from .acceptance import COLORS_PER_WORD, TRUE, used_colors, words_for
from .guards import FALSE_GUARD, GuardStore


class Trivalent(enum.Enum):
    MAYBE = "maybe"
    YES = "yes"
    NO = "no"

    @staticmethod
    def of(value):
        if isinstance(value, Trivalent):
            return value
        return Trivalent.YES if value else Trivalent.NO


MAYBE = Trivalent.MAYBE
YES = Trivalent.YES
NO = Trivalent.NO

FLAG_NAMES = (
    "state_acc",
    "universal",
    "complete",
    "weak",
    "very_weak",
    "inherently_weak",
    "terminal",
    "unambiguous",
    "semi_deterministic",
    "stutter_invariant",
)
# shared and read-only: set_flag gives an automaton its own copy first
_ALL_MAYBE = types.MappingProxyType(dict.fromkeys(FLAG_NAMES, MAYBE))


EDGE_COLUMNS = ("edge_src", "edge_dst", "edge_cond", "edge_acc", "edge_next")


def _column(name):
    """The property that reads and writes a view's entry of one column."""
    def get(edge):
        return getattr(edge.automaton, name)[edge.index]

    def put(edge, value):
        getattr(edge.automaton, name)[edge.index] = value
        edge.automaton.reset_flags()
    return property(get, put)


class EdgeRecord:
    """A view of edge `index` of `automaton`: src, dst (a destination
    word, negative for a group), cond (a guard id), acc (an int of color
    bits; a write takes what new_edges takes) and next_succ (the next
    out-edge of src, 0 at the end) read and write that entry of the
    automaton's edge columns.  A write clears the cached flags, as
    adding an edge does."""

    __slots__ = ("automaton", "index")

    def __init__(self, automaton, index):
        self.automaton, self.index = automaton, index

    src, dst, cond, acc, next_succ = map(_column, EDGE_COLUMNS)

    @acc.setter
    def acc(self, value):
        aut = self.automaton
        aut.edge_acc[self.index] = aut.shared_colors(value)
        aut.reset_flags()


class _EdgeTable:
    """`aut.edges`: the EdgeRecord of each edge index, None at the
    reserved index 0, which the length counts."""

    __slots__ = ("automaton",)

    def __init__(self, automaton):
        self.automaton = automaton

    def __len__(self):
        return len(self.automaton.edge_src)

    def __getitem__(self, i):
        # an int index, with a list's negatives and IndexError
        i = range(len(self))[operator.index(i)]
        return EdgeRecord(self.automaton, i) if i else None


class Automaton:
    """A transition-based automaton with Emerson-Lei acceptance."""

    def __init__(self, aps=(), store=None):
        self.aps = list(aps)
        if store is None:
            store = GuardStore(len(self.aps))
        elif store.ap_count != len(self.aps):
            raise ValueError("guard store has %d APs, automaton has %d"
                             % (store.ap_count, len(self.aps)))
        self.store = store
        self._succ = []               # per state: first out-edge, 0 if none
        self._tail = []               # per state: last out-edge, 0 if none
        self._nguards = 0             # guard ids below this are known valid
        self.edge_src, self.edge_dst, self.edge_cond, self.edge_next = (
            [0], [0], [0], [0])       # slot 0 is the reserved terminator
        self.edge_acc = [None]
        self._colors = {}             # color bits -> their shared int
        self.dests = []
        self._group_offsets = set()
        self._group_words = {}        # ordered member tuple -> group word
        self.init = 0
        self.num_sets = 0
        self.acceptance = TRUE
        self.flags = _ALL_MAYBE
        self.named_props = {}

    # -- basic shape --------------------------------------------------

    @property
    def num_states(self):
        return len(self._succ)

    @property
    def num_edges(self):
        return len(self.edge_src) - 1

    @property
    def edges(self):
        return _EdgeTable(self)

    @property
    def first_edges(self):
        """Per state, its first out-edge (0 for none); read-only, like
        the edge columns."""
        return self._succ

    # -- construction -------------------------------------------------

    def new_state(self):
        return self.new_states(1)

    def new_states(self, n):
        first = len(self._succ)
        self._succ.extend([0] * n)
        self._tail.extend([0] * n)
        self.reset_flags()
        return first

    def _check_word(self, word):
        if word >= 0:
            if word >= len(self._succ):
                raise ValueError("destination %d is not a state" % word)
        elif ~word not in self._group_offsets:
            raise ValueError("destination word %d names no group" % word)
        return word

    def shared_colors(self, acc):
        """The automaton's one int of the colors `acc`: a non-negative int
        of color bits or an iterable of non-negative color numbers;
        ValueError for anything else."""
        if isinstance(acc, int):
            bits = int(acc)
            if bits < 0:
                raise ValueError("negative color bits %d" % bits)
        else:
            bits = 0
            try:
                for c in acc:
                    if not isinstance(c, int) or c < 0:
                        raise ValueError("bad color %r" % (c,))
                    bits |= 1 << c
            except TypeError:
                raise ValueError("colors must be an int of bits or an "
                                 "iterable of colors, not %r" % (acc,)) \
                    from None
        return self._colors.setdefault(bits, bits)

    def map_colors(self, fn):
        """Give every edge the colors fn(bits), where bits are its current
        colors; fn runs once per distinct value.  Clears the cached
        flags."""
        accs = self.edge_acc[1:]
        new = {b: self.shared_colors(fn(b)) for b in set(accs)}
        self.edge_acc[1:] = map(new.__getitem__, accs)
        self.reset_flags()

    def new_edge(self, src, dst, cond=1, acc=None):
        """Append an edge and link it after src's current out-edges; `acc`
        is what new_edges takes, or None for no colors."""
        self.new_edges(((src, dst, cond, acc or 0),))
        return len(self.edge_src) - 1

    def new_edges(self, edges):
        """Append edges given as (src, dst, cond, colors), in order; colors
        is an int of color bits or an iterable of colors (see
        shared_colors).  Each edge is checked (states, group word, guard
        id, colors) as it is read, and the edges read are then appended
        and linked by extend_edges, also when the batch stops at a bad
        edge or its iterator raises: the edges before that point go in,
        and the cached flags are cleared."""
        n = len(self._succ)
        groups = self._group_offsets
        colors = self._colors
        nguards = self._nguards
        srcs, dsts, conds, accs = [], [], [], []
        try:
            for src, dst, cond, bits in edges:
                if not 0 <= src < n:
                    raise ValueError("source %d is not a state" % src)
                if dst >= n:
                    raise ValueError("destination %d is not a state" % dst)
                if dst < 0 and ~dst not in groups:
                    raise ValueError("destination word %d names no group"
                                     % dst)
                if not 0 <= cond < nguards:
                    # the store only grows: re-read its size for a larger id
                    nguards = self._nguards = len(self.store)
                    if not 0 <= cond < nguards:
                        raise ValueError("unknown guard id %d" % cond)
                try:
                    acc = colors[bits]
                except (KeyError, TypeError):   # new bits, or a list of colors
                    acc = self.shared_colors(bits)
                srcs.append(src)
                dsts.append(dst)
                conds.append(cond)
                accs.append(acc)
        finally:
            self.extend_edges(srcs, dsts, conds, accs)

    def extend_edges(self, src, dst, cond, acc):
        """Append edges given as four equal-length column lists, and link
        each after its source's current out-edges; the one writer of new
        edges.  Nothing is checked: each edge must be one new_edges would
        take, with colors as shared_colors returns them (see the module
        docstring).  Clears the cached flags."""
        self.flags = _ALL_MAYBE
        nxt = self.edge_next
        start = len(nxt)
        self.edge_src.extend(src)
        self.edge_dst.extend(dst)
        self.edge_cond.extend(cond)
        self.edge_acc.extend(acc)
        nxt.extend([0] * len(src))
        succ, tail = self._succ, self._tail
        for idx, s in enumerate(src, start):
            last = tail[s]
            if last:
                nxt[last] = idx
            else:
                succ[s] = idx
            tail[s] = idx

    def new_univ_dest_group(self, members):
        """Intern a universal destination group; returns its word.

        Duplicates are dropped (first occurrence wins) and a singleton
        collapses to the plain state index.  An equal ordered member
        list returns the word already interned for it.
        """
        seen = []
        for s in members:
            if not 0 <= s < len(self._succ):
                raise ValueError("group member %d is not a state" % s)
            if s not in seen:
                seen.append(s)
        if not seen:
            raise ValueError("empty destination group")
        if len(seen) == 1:
            return seen[0]
        key = tuple(seen)
        word = self._group_words.get(key)
        if word is None:
            offset = len(self.dests)
            self.dests.append(len(seen))
            self.dests.extend(seen)
            self._group_offsets.add(offset)
            word = self._group_words[key] = ~offset
            self.reset_flags()
        return word

    def set_init(self, word):
        self.init = self._check_word(word)
        self.reset_flags()

    def set_acceptance(self, num_sets, formula):
        """Set the acceptance; TypeError unless `formula` is a formula
        (see used_colors)."""
        if num_sets < 0:
            raise ValueError("num_sets %d is negative" % num_sets)
        top = used_colors(formula).bit_length()
        if top > num_sets:
            raise ValueError("acceptance mentions color %d >= num_sets %d"
                             % (top - 1, num_sets))
        self.num_sets = num_sets
        self.acceptance = formula
        self.reset_flags()

    # -- traversal ----------------------------------------------------

    def out_indices(self, state):
        nxt = self.edge_next
        idx = self._succ[state]
        while idx:
            yield idx
            idx = nxt[idx]

    def out(self, state):
        for idx in self.out_indices(state):
            yield EdgeRecord(self, idx)

    def edge_records(self):
        for i in range(1, len(self.edge_src)):
            yield EdgeRecord(self, i)

    def group_members(self, word):
        offset = ~word
        n = self.dests[offset]
        return self.dests[offset + 1:offset + 1 + n]

    def univ_dests(self, word_or_edge):
        """The destination states of a word or an edge, as a sequence:
        a plain destination alone, a group word's members in stored
        order."""
        word = word_or_edge if isinstance(word_or_edge, int) \
            else word_or_edge.dst
        return (word,) if word >= 0 else self.group_members(word)

    def has_universal_branches(self):
        # O(1) when no group was ever interned, so nothing can name one
        return bool(self._group_offsets) and (
            self.init < 0 or min(self.edge_dst) < 0)

    # -- flags --------------------------------------------------------

    def reset_flags(self):
        self.flags = _ALL_MAYBE

    def set_flag(self, name, value):
        if name not in self.flags:
            raise ValueError("unknown flag %r" % name)
        if self.flags is _ALL_MAYBE:
            self.flags = dict(_ALL_MAYBE)
        self.flags[name] = Trivalent.of(value)

    def get_flag(self, name):
        if name not in self.flags:
            raise ValueError("unknown flag %r" % name)
        return self.flags[name]

    # -- named properties ---------------------------------------------

    def set_named_prop(self, name, value):
        if value is None:
            self.named_props.pop(name, None)
        else:
            self.named_props[name] = value

    def get_named_prop(self, name, expected_type):
        """Typed lookup: None when absent, TypeError on a tag mismatch."""
        if name not in self.named_props:
            return None
        value = self.named_props[name]
        if not isinstance(value, expected_type):
            raise TypeError("named property %r holds a %s, not a %s"
                            % (name, type(value).__name__,
                               expected_type.__name__))
        return value

    # -- copying ------------------------------------------------------

    def clone(self, keep_flags=False):
        out = Automaton(self.aps, self.store)
        out._succ = list(self._succ)
        out._tail = list(self._tail)
        out._colors = dict(self._colors)
        for name in EDGE_COLUMNS:
            setattr(out, name, list(getattr(self, name)))
        out.dests = list(self.dests)
        out._group_offsets = set(self._group_offsets)
        out._group_words = dict(self._group_words)
        out.init = self.init
        out.num_sets = self.num_sets
        out.acceptance = self.acceptance
        out.named_props = dict(self.named_props)
        if keep_flags:
            out.flags = dict(self.flags)
        return out

    # -- packing (storage accounting) ---------------------------------

    def pack_edges(self):
        """Pack the edge table into its fixed-width binary form.

        Each record is src, dst, cond, the acc words, then next, all as
        32-bit little-endian words; dst is two's complement so group words
        keep their sign bit.  The acc words are words_for(n) of them, n
        being the declared color count or, if an edge has a higher color,
        that color plus one.
        """
        out = bytearray()
        mask = 0xFFFFFFFF
        top = max(self.edge_acc[1:], default=0).bit_length()
        words = range(0, COLORS_PER_WORD * words_for(max(self.num_sets, top)),
                      COLORS_PER_WORD)
        record = struct.Struct("<%dI" % (4 + len(words))).pack
        for src, dst, cond, acc, nxt in zip(
                *[getattr(self, name)[1:] for name in EDGE_COLUMNS]):
            out += record(src, dst & mask, cond,
                          *[acc >> w & mask for w in words], nxt)
        return bytes(out)

    # -- integrity ----------------------------------------------------

    def check(self):
        """Validate the storage invariants; raises ValueError."""
        def need(ok, message, *args):
            if not ok:
                raise ValueError(message % args)

        src, dst, cond, acc, nxt = [getattr(self, name)
                                    for name in EDGE_COLUMNS]
        need(len(src) == len(dst) == len(cond) == len(acc) == len(nxt),
             "edge columns differ")
        need(acc[0] is None, "edge 0 is not the terminator")
        need(len(self._succ) == len(self._tail), "state columns differ")
        seen = set()
        for s, idx in enumerate(self._succ):
            last = 0
            while idx:
                need(0 < idx < len(src), "edge %d does not exist", idx)
                need(idx not in seen, "edge %d linked twice", idx)
                seen.add(idx)
                need(src[idx] == s, "edge %d strays from state %d", idx, s)
                self._check_word(dst[idx])
                need(0 <= cond[idx] < len(self.store), "unknown guard id %d",
                     cond[idx])
                need(acc[idx].__class__ is int and acc[idx] >= 0,
                     "edge %d has colors %r, not an int of bits", idx,
                     acc[idx])
                last = idx
                idx = nxt[idx]
            need(self._tail[s] == last, "bad tail for state %d", s)
        need(len(seen) == self.num_edges, "orphaned edges")
        for off in self._group_offsets:
            n = self.dests[off]
            need(n >= 1 and off + n < len(self.dests), "bad group %d", ~off)
            for m in self.dests[off + 1:off + 1 + n]:
                need(0 <= m < len(self._succ), "group member %d is not a state",
                     m)
        need(used_colors(self.acceptance).bit_length() <= self.num_sets,
             "acceptance mentions a color >= num_sets")
        if self._succ:
            self._check_word(self.init)
        return True


def reachable_states(aut):
    """States reachable from the initial designator, in discovery order."""
    if aut.num_states == 0:
        return []
    order = list(dict.fromkeys(aut.univ_dests(aut.init)))
    seen = bytearray(aut.num_states)
    for s in order:
        seen[s] = 1
    succ, nxt = aut._succ, aut.edge_next
    dsts, conds = aut.edge_dst, aut.edge_cond
    for s in order:                   # breadth first: order grows behind s
        idx = succ[s]
        while idx:
            if conds[idx] != FALSE_GUARD:
                dst = dsts[idx]
                if dst >= 0:
                    if not seen[dst]:
                        seen[dst] = 1
                        order.append(dst)
                else:
                    for d in aut.group_members(dst):
                        if not seen[d]:
                            seen[d] = 1
                            order.append(d)
            idx = nxt[idx]
    return order


# per-state / per-edge named properties that trim() rewrites
_STATE_LIST_PROPS = ("state-names", "state-player", "state-winner",
                     "product-states")


def trim(aut):
    """Drop unreachable states and false-guard edges.

    Returns a new automaton; a "trim-map" named property on it maps old
    state indices to new ones (None for removed states).  Per-state list
    properties and highlight/strategy annotations are rewritten to match.

    Kept states and kept edges keep their storage order, and each kept
    state's out-list keeps its order, so when nothing drops the result is
    a `clone` with an identity trim-map, and when only states without
    edges drop, the edge columns are copies with states renumbered.
    Otherwise a running count numbers the kept edges, and each column is
    compressed through it.  A kept edge's next edge is then kept too, or
    0, so the links are renumbered as columns, except in the states with
    a false-guard edge: only their out-lists are walked and relinked.
    Edges are not checked again (see the module docstring).  Colors stay
    shared with the input, as `clone` shares them.
    """
    n = aut.num_states
    order = reachable_states(aut)
    srcs, dsts, conds = aut.edge_src, aut.edge_dst, aut.edge_cond
    falses = conds.count(FALSE_GUARD) > 1     # slot 0 holds one
    if len(order) == n and not falses:
        out = aut.clone()
        order = range(n)
        state_map = list(order)
        edge_map = range(len(conds))
    else:
        order.sort()
        state_map = [None] * n
        for new, old in enumerate(order):
            state_map[old] = new
        succ, tail, nxt = aut._succ, aut._tail, aut.edge_next
        if falses or any(map(succ.__getitem__,
                             set(range(n)).difference(order))):
            # per old edge, its new index, 0 if it drops (the
            # terminator's guard is false)
            new_index = count(1)
            edge_map = [next(new_index) if c != FALSE_GUARD and
                        state_map[s] is not None else 0
                        for s, c in zip(srcs, conds)]

            def kept(column):
                return compress(column, edge_map)

            def renumber(edges):
                return map(edge_map.__getitem__, edges)
        else:                         # only states without edges drop
            edge_map = range(len(conds))

            def kept(column):
                return islice(column, 1, None)

            def renumber(edges):
                return edges
        out = Automaton(aut.aps, aut.store)
        out._colors = dict(aut._colors)
        first = out._succ = list(renumber(map(succ.__getitem__, order)))
        last = out._tail = list(renumber(map(tail.__getitem__, order)))

        def group(word):
            return out.new_univ_dest_group(
                [state_map[m] for m in aut.group_members(word)])

        out.edge_src += map(state_map.__getitem__, kept(srcs))
        out.edge_dst += [state_map[d] if d >= 0 else group(d)
                         for d in kept(dsts)]
        out.edge_cond += kept(conds)
        out.edge_acc += kept(aut.edge_acc)
        out_next = out.edge_next
        out_next += renumber(kept(nxt))
        # the states with a false-guard edge, and the terminator's 0
        walk = set(compress(srcs, map(FALSE_GUARD.__eq__, conds))) \
            if falses else ()
        for old in walk:
            new = state_map[old]
            if new is None:
                continue
            prev = out_next[0] = 0        # slot 0 takes the first link
            idx = succ[old]
            while idx:
                e = edge_map[idx]
                if e:
                    out_next[prev] = e
                    prev = e
                idx = nxt[idx]
            first[new], last[new] = out_next[0], prev
        out_next[0] = 0
        out.init = state_map[aut.init] if aut.init >= 0 else group(aut.init)
        out.num_sets = aut.num_sets
        out.acceptance = aut.acceptance

    edges = range(len(edge_map))
    for name, value in aut.named_props.items():
        if name in _STATE_LIST_PROPS and isinstance(value, list) \
                and len(value) == n:
            out.named_props[name] = [value[old] for old in order]
        elif name == "highlight-states" and isinstance(value, dict):
            new_of = {old: new for new, old in enumerate(order)}
            out.named_props[name] = {
                new_of[s]: v for s, v in value.items() if s in new_of}
        elif name == "highlight-edges" and isinstance(value, dict):
            # a key of 0 names no edge and is kept as 0
            out.named_props[name] = {
                edge_map[i]: v for i, v in value.items()
                if i in edges and (edge_map[i] or not i)}
        elif name == "strategy" and isinstance(value, list) \
                and len(value) == n:
            out.named_props[name] = [
                edge_map[value[old]] if value[old] in edges else 0
                for old in order]
        else:
            out.named_props[name] = value
    out.named_props["trim-map"] = state_map
    return out
