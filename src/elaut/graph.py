"""Automaton storage.

States and edges live in two flat tables.  A state records the indices of
its first and last outgoing edges; each edge records the next edge of the
same source, so the out-edges of a state form a singly linked list in
insertion order.  Edge index 0 is reserved as the list terminator and
never denotes a real edge.

A destination word is either a plain state index (>= 0) or, for universal
branching, the bitwise complement ~offset of an offset into the `dests`
table (so it is negative).  At that offset the table holds the group size
n followed by the n member states.  The initial designator is a single
destination word, so it too may name a universal group.

With one 32-bit color word an edge record packs into five 32-bit fields:
src, dst, cond, acc, next -- 20 bytes; each extra color word adds 4.
"""

from __future__ import annotations

import enum
import struct
import types
from dataclasses import dataclass

from .acceptance import COLORS_PER_WORD, TRUE, ColorSet, used_colors
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

# checkers are registered by the algorithms module at import time
flag_checkers = {}


@dataclass(slots=True)
class StateRecord:
    succ: int = 0       # first outgoing edge, 0 if none
    succ_tail: int = 0  # last outgoing edge, 0 if none


@dataclass(slots=True)
class EdgeRecord:
    src: int
    dst: int            # destination word (negative = universal group)
    cond: int           # guard id
    acc: ColorSet
    next_succ: int      # next out-edge of src, 0 terminates


def edge_record_size(nwords=1):
    """Packed byte size of one edge record."""
    return 4 * 4 + 4 * nwords


class Automaton:
    """A transition-based automaton with Emerson-Lei acceptance."""

    def __init__(self, aps=(), nwords=1, store=None):
        if nwords < 1:
            raise ValueError("nwords must be >= 1")
        self.aps = list(aps)
        if store is None:
            store = GuardStore(len(self.aps))
        elif store.ap_count != len(self.aps):
            raise ValueError("guard store has %d APs, automaton has %d"
                             % (store.ap_count, len(self.aps)))
        self.store = store
        self._nwords = nwords
        self.states = []
        self.edges = [None]           # index 0 reserved
        self.dests = []
        self._group_offsets = set()
        self.init = 0
        self.num_sets = 0
        self.acceptance = TRUE
        self.flags = _ALL_MAYBE
        self.named_props = {}

    # -- basic shape --------------------------------------------------

    @property
    def nwords(self):
        return self._nwords

    @property
    def num_states(self):
        return len(self.states)

    @property
    def num_edges(self):
        return len(self.edges) - 1

    def max_color(self):
        return COLORS_PER_WORD * self._nwords - 1

    # -- construction -------------------------------------------------

    def new_state(self):
        self.states.append(StateRecord())
        self.reset_flags()
        return len(self.states) - 1

    def new_states(self, n):
        first = len(self.states)
        for _ in range(n):
            self.states.append(StateRecord())
        self.reset_flags()
        return first

    def _check_word(self, word):
        if word >= 0:
            if word >= len(self.states):
                raise ValueError("destination %d is not a state" % word)
        else:
            if ~word not in self._group_offsets:
                raise ValueError("destination word %d names no group" % word)
        return word

    def _make_acc(self, acc):
        if acc is None:
            return ColorSet(0, self._nwords)
        if isinstance(acc, ColorSet):
            if acc.nwords != self._nwords:
                raise ValueError("color set width mismatch")
            return acc
        return ColorSet.of(acc, self._nwords)

    def new_edge(self, src, dst, cond=1, acc=None):
        """Append an edge and link it after src's current out-edges."""
        if not 0 <= src < len(self.states):
            raise ValueError("source %d is not a state" % src)
        self._check_word(dst)
        if not 0 <= cond < len(self.store):
            raise ValueError("unknown guard id %d" % cond)
        rec = EdgeRecord(src, dst, cond, self._make_acc(acc), 0)
        self.edges.append(rec)
        idx = len(self.edges) - 1
        st = self.states[src]
        if st.succ == 0:
            st.succ = idx
        else:
            self.edges[st.succ_tail].next_succ = idx
        st.succ_tail = idx
        self.reset_flags()
        return idx

    def new_univ_dest_group(self, members):
        """Intern a universal destination group; returns its word.

        Duplicates are dropped (first occurrence wins) and a singleton
        collapses to the plain state index.
        """
        seen = []
        for s in members:
            if not 0 <= s < len(self.states):
                raise ValueError("group member %d is not a state" % s)
            if s not in seen:
                seen.append(s)
        if not seen:
            raise ValueError("empty destination group")
        if len(seen) == 1:
            return seen[0]
        offset = len(self.dests)
        self.dests.append(len(seen))
        self.dests.extend(seen)
        self._group_offsets.add(offset)
        self.reset_flags()
        return ~offset

    def set_init(self, word):
        self.init = self._check_word(word)
        self.reset_flags()

    def set_acceptance(self, num_sets, formula):
        """Set the acceptance; TypeError unless `formula` is a formula
        tree (see used_colors)."""
        if num_sets < 0 or num_sets > COLORS_PER_WORD * self._nwords:
            raise ValueError("num_sets %d does not fit %d color words"
                             % (num_sets, self._nwords))
        uc = used_colors(formula)
        if uc and uc.max_color() >= num_sets:
            raise ValueError("acceptance mentions color %d >= num_sets %d"
                             % (uc.max_color(), num_sets))
        self.num_sets = num_sets
        self.acceptance = formula
        self.reset_flags()

    # -- traversal ----------------------------------------------------

    def out_indices(self, state):
        idx = self.states[state].succ
        while idx:
            yield idx
            idx = self.edges[idx].next_succ

    def out(self, state):
        for idx in self.out_indices(state):
            yield self.edges[idx]

    def edge_records(self):
        for i in range(1, len(self.edges)):
            yield self.edges[i]

    def is_group(self, word):
        return word < 0

    def group_members(self, word):
        offset = ~word
        n = self.dests[offset]
        return self.dests[offset + 1:offset + 1 + n]

    def univ_dests(self, word_or_edge):
        """Iterate the destination states of a word or an edge.

        A plain destination yields itself; a group word yields each
        member, in stored order.
        """
        word = word_or_edge.dst if isinstance(word_or_edge, EdgeRecord) \
            else word_or_edge
        if word >= 0:
            yield word
        else:
            yield from self.group_members(word)

    def has_universal_branches(self):
        if self.is_group(self.init):
            return True
        return any(e.dst < 0 for e in self.edge_records())

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
        out = Automaton(self.aps, self._nwords, self.store)
        out.states = [StateRecord(s.succ, s.succ_tail) for s in self.states]
        out.edges = [None] + [
            EdgeRecord(e.src, e.dst, e.cond, e.acc, e.next_succ)
            for e in self.edge_records()]
        out.dests = list(self.dests)
        out._group_offsets = set(self._group_offsets)
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
        keep their sign bit.
        """
        out = bytearray()
        mask = 0xFFFFFFFF
        for e in self.edge_records():
            out += struct.pack("<III", e.src, e.dst & mask, e.cond)
            for w in range(self._nwords):
                out += struct.pack(
                    "<I", (e.acc.bits >> (COLORS_PER_WORD * w)) & mask)
            out += struct.pack("<I", e.next_succ)
        return bytes(out)

    # -- integrity ----------------------------------------------------

    def check(self):
        """Validate the storage invariants; raises AssertionError."""
        assert self.edges[0] is None
        seen = set()
        for s, st in enumerate(self.states):
            idx = st.succ
            last = 0
            while idx:
                assert idx not in seen, "edge %d linked twice" % idx
                seen.add(idx)
                e = self.edges[idx]
                assert e.src == s, "edge %d strays from state %d" % (idx, s)
                self._check_word(e.dst)
                assert 0 <= e.cond < len(self.store)
                assert e.acc.nwords == self._nwords
                last = idx
                idx = e.next_succ
            assert st.succ_tail == last, "bad tail for state %d" % s
        assert len(seen) == self.num_edges, "orphaned edges"
        for off in self._group_offsets:
            n = self.dests[off]
            assert n >= 1 and off + n < len(self.dests)
            for m in self.dests[off + 1:off + 1 + n]:
                assert 0 <= m < len(self.states)
        assert self.num_sets <= COLORS_PER_WORD * self._nwords
        uc = used_colors(self.acceptance)
        assert not uc or uc.max_color() < self.num_sets
        if self.states:
            self._check_word(self.init)
        return True


def get_or_compute_flag(aut, name):
    """Cached trivalent read: compute once, then answer from the flag."""
    val = aut.get_flag(name)
    if val is not MAYBE:
        return val is YES
    checker = flag_checkers.get(name)
    if checker is None:
        raise ValueError("no checker registered for flag %r" % name)
    result = bool(checker(aut))
    aut.set_flag(name, result)
    return result


# per-state / per-edge named properties that trim() rewrites
_STATE_LIST_PROPS = ("state-names", "state-player", "state-winner",
                     "product-states")


def trim(aut):
    """Drop unreachable states and false-guard edges.

    Returns a new automaton; a "trim-map" named property on it maps old
    state indices to new ones (None for removed states).  Per-state list
    properties and highlight/strategy annotations are rewritten to match.
    """
    reach = set()
    if aut.num_states:
        stack = list(aut.univ_dests(aut.init))
        reach.update(stack)
        while stack:
            s = stack.pop()
            for e in aut.out(s):
                if e.cond == FALSE_GUARD:
                    continue
                for d in aut.univ_dests(e):
                    if d not in reach:
                        reach.add(d)
                        stack.append(d)

    state_map = {}
    order = [s for s in range(aut.num_states) if s in reach]
    for new, old in enumerate(order):
        state_map[old] = new

    out = Automaton(aut.aps, aut.nwords, aut.store)
    out.new_states(len(order))
    edge_map = {0: 0}
    for old in order:
        for idx in aut.out_indices(old):
            e = aut.edges[idx]
            if e.cond == FALSE_GUARD:
                continue
            if e.dst >= 0:
                dst = state_map[e.dst]
            else:
                dst = out.new_univ_dest_group(
                    [state_map[m] for m in aut.group_members(e.dst)])
            edge_map[idx] = out.new_edge(state_map[old], dst, e.cond, e.acc)
    if aut.num_states:
        if aut.init >= 0:
            out.init = state_map[aut.init]
        else:
            out.init = out.new_univ_dest_group(
                [state_map[m] for m in aut.group_members(aut.init)])
    out.num_sets = aut.num_sets
    out.acceptance = aut.acceptance

    for name, value in aut.named_props.items():
        if name in _STATE_LIST_PROPS and isinstance(value, list) \
                and len(value) == aut.num_states:
            out.named_props[name] = [value[old] for old in order]
        elif name == "highlight-states" and isinstance(value, dict):
            out.named_props[name] = {
                state_map[s]: v for s, v in value.items() if s in state_map}
        elif name == "highlight-edges" and isinstance(value, dict):
            out.named_props[name] = {
                edge_map[i]: v for i, v in value.items() if i in edge_map}
        elif name == "strategy" and isinstance(value, list) \
                and len(value) == aut.num_states:
            out.named_props[name] = [
                edge_map.get(value[old], 0) for old in order]
        else:
            out.named_props[name] = value
    out.named_props["trim-map"] = [state_map.get(s) for s
                                   in range(aut.num_states)]
    out.reset_flags()
    return out
