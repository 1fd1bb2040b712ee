"""Edge guards: Boolean functions over atomic propositions.

A guard is stored canonically as the bit vector of its minterms: bit i of
the vector is set iff the guard holds under assignment i, where bit 0 of
the assignment index is AP 0's truth value.  Guards are interned per
store, so two guard ids are equal exactly when the functions are equal.
Id 0 is always the constant false and id 1 the constant true.

Every operation works on whole vectors.  A store keeps, per AP, the mask
of the minterms where that AP is true (and its complement), so a literal
is a mask, a cube is an AND of masks and the cofactor of g by AP i=1 is
`h | (h >> 2**i)` with `h = g & mask_i`.  Moving a guard to another AP
order permutes variables with delta swaps (Knuth, TAOCP 4A, 7.1.3).
`cover` yields a guard's disjoint cubes as pairs of AP masks (bit i for
AP i): the APs a cube needs true, and those it needs false.  Each cube
grows from the lowest minterm not yet covered, and that minterm is its
positive mask, so only the APs the minterm leaves clear are tried.

Inside an operation a guard is its minterm bits: a store interns only
the guard an operation returns, never a partial result.  Its one memo
is the minterms of each cube text parse_label has read (`_atoms`);
covers, printed labels and parsed labels are made on every call.

What depends only on the AP count is made once per count, on first use,
and shared by every store over that many APs (`_ap_tables`): the AP
masks, the literal texts print_label writes and the literal atoms that
each store copies into its own cube memo.  So is the plan of each AP map
that `translator` moves guards by (`_mover`, the last 256 maps).  No
shared table depends on a label, a guard or a text that was read.
"""

from __future__ import annotations

import functools
import re
import types
from dataclasses import dataclass

FALSE_GUARD = 0
TRUE_GUARD = 1

MAX_APS = 16


class GuardStore:
    """Interning table for guards over a fixed list of APs."""

    def __init__(self, ap_count):
        if ap_count < 0 or ap_count > MAX_APS:
            raise ValueError("ap_count %d outside [0, %d]"
                             % (ap_count, MAX_APS))
        self.ap_count = ap_count
        self.nminterms = 1 << ap_count
        # _pos[i]: minterms where AP i holds, _neg[i]: where it does not;
        # _lits[i]: print_label's texts of AP i, positive and negated
        full, self._pos, self._neg, self._lits, atoms = _ap_tables(ap_count)
        self.full = full
        self._table = [0, full]   # id -> minterm bits: false, then true
        self._ids = {0: 0, full: 1}                 # minterm bits -> id
        self._atoms = atoms.copy()  # literal or cube text -> minterms

    def __len__(self):
        return len(self._table)

    def intern(self, bits):
        got = self._ids.get(bits)
        if got is not None:
            return got
        if bits < 0 or bits > self.full:
            raise ValueError("not a valid minterm vector")
        gid = len(self._table)
        self._table.append(bits)
        self._ids[bits] = gid
        return gid

    def bits_of(self, gid):
        return self._table[gid]

    def _check(self, gid):
        if not 0 <= gid < len(self._table):
            raise ValueError("unknown guard id %d" % gid)
        return gid

    def _check_ap(self, ap):
        if not 0 <= ap < self.ap_count:
            raise ValueError("AP index %d out of range" % ap)
        return ap

    def lit(self, ap, positive=True):
        """Guard for a single AP literal."""
        ap = self._check_ap(ap)
        return self.intern(self._pos[ap] if positive else self._neg[ap])

    def g_and(self, a, b):
        return self.intern(self._table[self._check(a)]
                           & self._table[self._check(b)])

    def g_or(self, a, b):
        return self.intern(self._table[self._check(a)]
                           | self._table[self._check(b)])

    def g_not(self, a):
        return self.intern(self._table[self._check(a)] ^ self.full)

    def is_sat(self, a):
        return self._table[self._check(a)] != 0

    def holds(self, gid, minterm):
        """Does the guard accept assignment index `minterm`?"""
        return (self._table[self._check(gid)] >> minterm) & 1 == 1

    def restrict(self, gid, ap, value):
        """The guard with AP `ap` fixed to `value` (a cofactor)."""
        bits = self._table[self._check(gid)]
        shift = 1 << self._check_ap(ap)
        if value:
            half = bits & self._pos[ap]
            return self.intern(half | (half >> shift))
        half = bits & self._neg[ap]
        return self.intern(half | (half << shift))

    def exists(self, gid, aps):
        """Existentially quantify the given AP indices away: copy the
        minterms on each side of each AP onto their partners."""
        bits = self._table[self._check(gid)]
        for ap in aps:
            shift = 1 << self._check_ap(ap)
            hi, lo = bits & self._pos[ap], bits & self._neg[ap]
            bits = hi | hi >> shift | lo | lo << shift
        return self.intern(bits)

    def support(self, gid, aps=None):
        """APs the guard actually depends on, of `aps` (default: all)."""
        bits = self._table[self._check(gid)]
        # it depends on AP i iff its minterms with i set, moved onto their
        # partners with i clear, differ from its minterms with i clear
        return [ap for ap in (range(self.ap_count) if aps is None else aps)
                if (bits & self._pos[ap]) >> (1 << ap) != bits & self._neg[ap]]

    # -- cube extraction ----------------------------------------------

    def to_cubes(self, gid):
        """A pairwise-disjoint cover of the guard by cubes.

        Greedy: take the lowest uncovered minterm, widen it into a cube by
        freeing APs, lowest first, while the cube stays inside the
        uncovered part, emit, subtract, repeat.  A cube's positive APs
        are those its first minterm sets.  Deterministic; true gives one
        empty cube, false gives no cubes, and OR-ing the cubes back
        reconstructs the guard.  Built from `cover` on every call.
        """
        aps = range(self.ap_count)
        return [Cube(*[frozenset(ap for ap in aps if m >> ap & 1) for m in c])
                for c in self.cover(gid)]

    def cover(self, gid):
        """to_cubes's cubes, as (positive AP mask, negative AP mask).

        Every minterm below the lowest uncovered one, m, is covered, so
        freeing an AP that m sets would take in one of them: a cube's
        positive mask is m itself, and only the APs m leaves clear are
        tried, in increasing order.
        """
        remaining = self._table[self._check(gid)]
        outside = ~remaining
        aps = (1 << self.ap_count) - 1
        while remaining:
            cube = remaining & -remaining
            m = cube.bit_length() - 1
            free, neg = aps & ~m, 0
            while free:
                shift = free & -free
                free ^= shift
                # freeing AP log2(shift) adds the cube's mirror images
                if (cube << shift) & outside:
                    neg |= shift
                else:
                    cube |= cube << shift
            yield m, neg
            remaining ^= cube
            outside |= cube

    # -- text form ----------------------------------------------------

    def print_label(self, gid):
        """to_cubes's cubes, "&"s of literals, joined by " | "; or "f"."""
        lits = self._lits
        return " | ".join([
            "&".join([lits[ap][neg >> ap & 1]
                      for ap in range((pos | neg).bit_length())
                      if (pos | neg) >> ap & 1]) or "t"
            for pos, neg in self.cover(gid)]) or "f"

    def parse_label(self, text):
        """Parse "0&!1 | 2" style Boolean expressions over AP indices."""
        return _parse_label(self, text)

    def translate_from(self, other, gid, ap_map):
        """Re-express a guard from another store in this one.

        ap_map[i] is the index, in this store's AP order, of the other
        store's AP i; the map must be one-to-one.  The result is the same
        Boolean function over the shared APs.
        """
        return self.intern(self.translator(other, ap_map)(other.bits_of(gid)))

    def translator(self, other, ap_map):
        """The function that moves a minterm vector of `other` into this
        store (see translate_from), planned once per AP map."""
        return _mover(self.ap_count,
                      tuple([ap_map[i] for i in range(other.ap_count)]))


@functools.cache
def _ap_tables(ap_count):
    """What every store over `ap_count` APs starts from: (full, pos,
    neg, lits, atoms), made on first use.  full is the true guard's
    minterms; pos[i] and neg[i] the minterms where AP i holds and where
    it does not; lits[i] print_label's texts of AP i, positive and
    negated; atoms the literal texts parse_label reads, with their
    minterms, read-only: each store copies them."""
    nminterms = 1 << ap_count
    full = (1 << nminterms) - 1
    pos, neg = [], []
    atoms = {"t": full, "f": 0, "!t": 0, "!f": full}
    for ap in range(ap_count):
        # blocks of 2**ap zeros then 2**ap ones, doubled up to the width
        shift = 1 << ap
        mask, width = ((1 << shift) - 1) << shift, 2 * shift
        while width < nminterms:
            mask |= mask << width
            width *= 2
        pos.append(mask)
        neg.append(mask >> shift)
        atoms[str(ap)], atoms["!%d" % ap] = pos[ap], neg[ap]
    lits = tuple(("%d" % ap, "!%d" % ap) for ap in range(ap_count))
    return (full, tuple(pos), tuple(neg), lits,
            types.MappingProxyType(atoms))


@functools.lru_cache(maxsize=256)
def _mover(n, dest):
    """translator's function for the AP map `dest`, a tuple, into a store
    of n APs."""
    k = len(dest)
    if len(set(dest)) != k or not all(0 <= d < n for d in dest):
        raise ValueError("AP map %r is not one-to-one into %d APs"
                         % (list(dest), n))
    exchange = _exchanges(n)
    # APs k..n-1 are new: the guard does not depend on them
    widen = [1 << ap for ap in range(k, n)]
    # target[p]: the position the variable now at p must move to; the
    # new APs take the positions no mapped AP takes, in order.  Bubble
    # sort it, O(n**2) exchanges of neighbouring variables p, p+1, each
    # a delta swap of the minterms with p set and p+1 clear with their
    # partners that have p+1 set and p clear.
    target = list(dest) + [p for p in range(n) if p not in dest]
    swaps = []
    for done in range(n):
        for p in range(n - 1 - done):
            if target[p] > target[p + 1]:
                swaps.append(exchange[p])
                target[p], target[p + 1] = target[p + 1], target[p]

    def move(bits):
        for w in widen:
            bits |= bits << w
        for shift, mask in swaps:
            t = ((bits >> shift) ^ bits) & mask
            bits ^= t | (t << shift)
        return bits
    return move


@functools.cache
def _exchanges(n):
    """Per p below n - 1, the delta swap that exchanges the variables p
    and p + 1 of a vector over n APs, as (shift, mask), shared by the
    plans of _mover so that a plan holds no mask of its own."""
    _, pos, neg = _ap_tables(n)[:3]
    return tuple((1 << p, pos[p] & neg[p + 1]) for p in range(n - 1))


@dataclass(frozen=True)
class Cube:
    """A conjunction of literals: positive APs and negated APs."""
    positive: frozenset
    negative: frozenset


class LabelParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


# one label token: an AP index or any other nonblank character
_TOKEN = re.compile(r"[0-9]+|\S")


def _parse_label(store, text):
    """The guard of a label text; only the whole label's guard is interned.

    A label that is a disjunction of conjunctions of literals (an AP
    index without leading zeros, `t` or `f`, each maybe after one `!`) is
    read cube by cube, each literal looked up in `store._atoms`, where a
    cube's text is kept once all its literals are found.  The cubes are
    split first at print_label's " | ", then, if one is not found, at
    every "|".  Any other label, and every malformed one, goes to the
    operator-precedence parser below, the only code that raises.
    """
    atoms = store._atoms
    for sep in (" | ", "|"):
        disj = 0
        for cube in text.split(sep):
            conj = atoms.get(cube)
            if conj is None:
                conj = _cube_bits(atoms, cube)
                if conj is None:
                    break
            disj |= conj
        else:
            return store.intern(disj)
    return _parse_label_ops(store, text, atoms)


def _cube_bits(atoms, cube):
    """The minterms of a cube text whose "&"-separated literals, maybe
    blank-padded, are all in `atoms`, which then keeps the text; None if
    one is not there.  No key of `atoms` holds a "|", so neither can a
    cube that is found."""
    conj = -1
    for lit in cube.split("&"):
        value = atoms.get(lit)
        if value is None:
            value = atoms.get(lit.strip())
            if value is None:
                return None
        conj &= value
    atoms[cube] = conj
    return conj


def _parse_label_ops(store, text, atoms):
    """Operator-precedence parse on minterm vectors, with an explicit stack
    of open parentheses, so nesting depth is bounded by memory, not by the
    interpreter's recursion limit.

    `&` binds tighter than `|` and `!` tightest.  Each nesting level keeps
    the OR of its finished conjunctions (`disj`), the conjunction being
    built (`conj`) and whether a `!` waits for the next operand; only the
    guard of the whole label is interned.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")                 # the end
    full = store.full
    saved = []                        # the levels outside each open "("
    disj, conj, negate = 0, full, False
    i = 0
    while True:
        # an operand: prefix "!" and "(", then an atom
        tok = tokens[i]
        i += 1
        value = atoms.get(tok)
        if value is None:
            if tok == "!":
                negate = not negate
                continue
            if tok == "(":
                saved.append((disj, conj, negate))
                disj, conj, negate = 0, full, False
                continue
            if not "0" <= tok[:1] <= "9":
                raise _label_error(text, i - 1, "unexpected %r in label"
                                   % (tok or "end"))
            # an AP index not in plain form: leading zeros or out of range
            try:
                ap = int(tok)
            except ValueError:        # more digits than int() converts
                raise _label_error(text, i - 1, "AP index of %d digits out "
                                   "of range" % len(tok)) from None
            if ap >= store.ap_count:
                raise _label_error(text, i - 1,
                                   "AP index %d out of range" % ap)
            value = store._pos[ap]
        # then closing parentheses, each ending a level whose value is the
        # next operand one level out, and a binary operator or the end
        while True:
            conj &= value ^ full if negate else value
            tok = tokens[i]
            i += 1
            if tok != ")" or not saved:
                break
            value = disj | conj
            disj, conj, negate = saved.pop()
        negate = False
        if tok == "|":
            disj |= conj
            conj = full
        elif tok == "&":
            pass
        elif saved:
            raise _label_error(text, i - 1, "expected ')'")
        elif tok:
            raise _label_error(text, i - 1, "trailing input in label")
        else:
            return store.intern(disj | conj)


def _label_error(text, k, message):
    """The error for token k, positioned at its first character."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return LabelParseError(message, starts[k] if k < len(starts)
                           else len(text))
