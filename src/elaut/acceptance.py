"""Emerson-Lei acceptance conditions.

An acceptance condition is a positive Boolean formula over atoms Fin(i)
and Inf(i), where i names a color (an acceptance set).  A run is accepting
iff the formula evaluates to true when Inf(i) is read as "color i occurs
infinitely often on the run" and Fin(i) as "color i occurs finitely often".

Colors are stored in fixed-width bit vectors (ColorSet) whose width is a
multiple of 32, so an edge's color set packs into whole 32-bit words.
"""

from __future__ import annotations

from dataclasses import dataclass


COLORS_PER_WORD = 32


def words_for(ncolors):
    """The number of color words that hold colors 0 .. ncolors-1 (at
    least one)."""
    return max(1, (ncolors + COLORS_PER_WORD - 1) // COLORS_PER_WORD)


class ColorSet:
    """Fixed-width set of colors, 32*nwords bits wide.

    Instances are treated as immutable: every operation returns a new
    set, so automata share one instance among all edges of equal colors.
    """

    __slots__ = ("bits", "nwords")

    def __init__(self, bits=0, nwords=1):
        if nwords < 1:
            raise ValueError("nwords must be >= 1")
        if bits < 0 or bits >> (COLORS_PER_WORD * nwords):
            raise ValueError("color set does not fit in %d bits"
                             % (COLORS_PER_WORD * nwords))
        self.bits = bits
        self.nwords = nwords

    @classmethod
    def of(cls, colors, nwords=1):
        bits = 0
        width = COLORS_PER_WORD * nwords
        for c in colors:
            if not 0 <= c < width:
                raise ValueError("color %d out of range for %d-bit set"
                                 % (c, width))
            bits |= 1 << c
        return cls(bits, nwords)

    def width(self):
        return COLORS_PER_WORD * self.nwords

    def has(self, color):
        return 0 <= color < self.width() and (self.bits >> color) & 1 == 1

    def count(self):
        return self.bits.bit_count()

    def colors(self):
        """Iterate set colors in increasing order."""
        bits = self.bits
        c = 0
        while bits:
            if bits & 1:
                yield c
            bits >>= 1
            c += 1

    def max_color(self):
        if not self.bits:
            raise ValueError("empty color set has no maximum")
        return self.bits.bit_length() - 1

    def widened(self, nwords):
        if nwords < self.nwords:
            raise ValueError("cannot shrink a color set")
        return ColorSet(self.bits, nwords)

    def shifted(self, by, nwords=None):
        """All colors moved up by `by`; width may grow to `nwords`."""
        nw = nwords if nwords is not None else self.nwords
        return ColorSet(self.bits << by, nw)

    def _check(self, other):
        if not isinstance(other, ColorSet):
            raise TypeError("expected a ColorSet")
        if other.nwords != self.nwords:
            raise ValueError("color sets have different widths")

    def __or__(self, other):
        self._check(other)
        return ColorSet(self.bits | other.bits, self.nwords)

    def __and__(self, other):
        self._check(other)
        return ColorSet(self.bits & other.bits, self.nwords)

    def __sub__(self, other):
        self._check(other)
        return ColorSet(self.bits & ~other.bits, self.nwords)

    def __invert__(self):
        mask = (1 << self.width()) - 1
        return ColorSet(self.bits ^ mask, self.nwords)

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return (isinstance(other, ColorSet)
                and other.bits == self.bits and other.nwords == self.nwords)

    def __hash__(self):
        return hash((self.bits, self.nwords))

    def __repr__(self):
        return "ColorSet({%s})" % ",".join(str(c) for c in self.colors())


# ---------------------------------------------------------------------------
# Formula trees.
#
# Nodes are immutable.  And/Or children are flattened (never nested same-kind)
# and never number fewer than two; the f_and/f_or constructors enforce this,
# so a printed formula reparses to an identical tree.

@dataclass(frozen=True)
class AccTrue:
    def __str__(self):
        return "t"


@dataclass(frozen=True)
class AccFalse:
    def __str__(self):
        return "f"


@dataclass(frozen=True)
class Fin:
    color: int

    def __str__(self):
        return "Fin(%d)" % self.color


@dataclass(frozen=True)
class Inf:
    color: int

    def __str__(self):
        return "Inf(%d)" % self.color


@dataclass(frozen=True)
class And:
    children: tuple

    def __str__(self):
        parts = []
        for c in self.children:
            # | binds looser than &, so Or children need parentheses
            if isinstance(c, Or):
                parts.append("(%s)" % c)
            else:
                parts.append(str(c))
        return "&".join(parts)


@dataclass(frozen=True)
class Or:
    children: tuple

    def __str__(self):
        return "|".join(str(c) for c in self.children)


TRUE = AccTrue()
FALSE = AccFalse()


def f_and(children):
    """Conjunction with flattening and constant folding."""
    flat = []
    for c in children:
        if isinstance(c, AccFalse):
            return FALSE
        if isinstance(c, AccTrue):
            continue
        if isinstance(c, And):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def f_or(children):
    flat = []
    for c in children:
        if isinstance(c, AccTrue):
            return TRUE
        if isinstance(c, AccFalse):
            continue
        if isinstance(c, Or):
            flat.extend(c.children)
        else:
            flat.append(c)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def eval_acceptance(formula, colors):
    """Evaluate against the set of colors occurring infinitely often.

    `colors` is a ColorSet or any object with a has() method.
    """
    if isinstance(formula, AccTrue):
        return True
    if isinstance(formula, AccFalse):
        return False
    if isinstance(formula, Inf):
        return colors.has(formula.color)
    if isinstance(formula, Fin):
        return not colors.has(formula.color)
    if isinstance(formula, And):
        return all(eval_acceptance(c, colors) for c in formula.children)
    if isinstance(formula, Or):
        return any(eval_acceptance(c, colors) for c in formula.children)
    raise TypeError("not an acceptance formula: %r" % (formula,))


def used_colors(formula, nwords=None):
    """ColorSet of every color mentioned by the formula.

    Raises TypeError when the formula holds anything but formula nodes."""
    acc = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (Fin, Inf)):
            acc.add(f.color)
        elif isinstance(f, (And, Or)):
            stack.extend(reversed(f.children))     # children in order
        elif not isinstance(f, (AccTrue, AccFalse)):
            raise TypeError("not an acceptance formula: %r" % (f,))
    if nwords is None:
        top = max(acc) if acc else 0
        nwords = words_for(top + 1)
    return ColorSet.of(acc, nwords)


def is_finless(formula):
    """True iff no Fin atom occurs anywhere in the formula."""
    if isinstance(formula, Fin):
        return False
    if isinstance(formula, (And, Or)):
        return all(is_finless(c) for c in formula.children)
    return True


def subst(formula, fin_map, inf_map):
    """Replace Fin/Inf atoms by constants per the given {color: bool} maps."""
    if isinstance(formula, Fin):
        if formula.color in fin_map:
            return TRUE if fin_map[formula.color] else FALSE
        return formula
    if isinstance(formula, Inf):
        if formula.color in inf_map:
            return TRUE if inf_map[formula.color] else FALSE
        return formula
    if isinstance(formula, And):
        return f_and([subst(c, fin_map, inf_map) for c in formula.children])
    if isinstance(formula, Or):
        return f_or([subst(c, fin_map, inf_map) for c in formula.children])
    return formula


def dual(formula):
    """The De Morgan dual: swaps And/Or, Fin/Inf, t/f.

    For every color set C, eval(dual(f), C) == not eval(f, C), and the
    dual is again a positive formula.
    """
    if isinstance(formula, AccTrue):
        return FALSE
    if isinstance(formula, AccFalse):
        return TRUE
    if isinstance(formula, Fin):
        return Inf(formula.color)
    if isinstance(formula, Inf):
        return Fin(formula.color)
    if isinstance(formula, And):
        return f_or([dual(c) for c in formula.children])
    if isinstance(formula, Or):
        return f_and([dual(c) for c in formula.children])
    raise TypeError("not an acceptance formula: %r" % (formula,))


def shift_colors(formula, by):
    if isinstance(formula, Fin):
        return Fin(formula.color + by)
    if isinstance(formula, Inf):
        return Inf(formula.color + by)
    if isinstance(formula, And):
        return And(tuple(shift_colors(c, by) for c in formula.children))
    if isinstance(formula, Or):
        return Or(tuple(shift_colors(c, by) for c in formula.children))
    return formula


def _dnf_terms(f):
    # each result is a list of (fins, infs) frozenset pairs, or True
    if isinstance(f, AccTrue):
        return True
    if isinstance(f, AccFalse):
        return []
    if isinstance(f, Fin):
        return [(frozenset([f.color]), frozenset())]
    if isinstance(f, Inf):
        return [(frozenset(), frozenset([f.color]))]
    if isinstance(f, Or):
        out = []
        for c in f.children:
            got = _dnf_terms(c)
            if got is True:
                return True
            out.extend(got)
        return out
    # And
    acc = [(frozenset(), frozenset())]
    for c in f.children:
        got = _dnf_terms(c)
        if got is True:
            continue
        if not got:
            return []
        acc = [(fa | fb, ia | ib)
               for (fa, ia) in acc for (fb, ib) in got]
    return acc


def to_dnf(formula):
    """Disjunctive normal form, eval-equivalent to the input.

    Returns TRUE, FALSE, or an Or/And/atom tree where every disjunct is a
    conjunction of atoms.  Disjuncts mixing Fin(c) with Inf(c) are
    contradictions and get dropped; duplicates are removed, first
    occurrence wins.
    """
    got = _dnf_terms(formula)
    if got is True:
        return TRUE
    disjuncts = []
    seen = set()
    for fins, infs in got:
        if fins & infs:
            continue  # Fin(c) & Inf(c) can never hold
        key = (fins, infs)
        if key in seen:
            continue
        seen.add(key)
        disjuncts.append(key)
    if not disjuncts:
        return FALSE
    terms = []
    for fins, infs in disjuncts:
        atoms = [Fin(c) for c in sorted(fins)] + [Inf(c) for c in sorted(infs)]
        terms.append(f_and(atoms))
    return f_or(terms)


def dnf_disjuncts(formula):
    """DNF as a list of (fin_colors, inf_colors) pairs.

    Returns None for TRUE (accepts everything) and [] for FALSE.
    """
    f = to_dnf(formula)
    if isinstance(f, AccTrue):
        return None
    if isinstance(f, AccFalse):
        return []
    out = []
    disjuncts = f.children if isinstance(f, Or) else (f,)
    for d in disjuncts:
        atoms = d.children if isinstance(d, And) else (d,)
        fins = set()
        infs = set()
        for a in atoms:
            if isinstance(a, Fin):
                fins.add(a.color)
            else:
                infs.add(a.color)
        out.append((frozenset(fins), frozenset(infs)))
    return out


# ---------------------------------------------------------------------------
# Parsing.

class AcceptanceParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


class _AccParser:
    def __init__(self, text, max_colors=None):
        self.text = text
        self.pos = 0
        self.max_colors = max_colors

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise AcceptanceParseError("expected '%s'" % ch, self.pos)
        self.pos += 1

    def parse(self):
        f = self.disjunction()
        self.skip_ws()
        if self.pos != len(self.text):
            raise AcceptanceParseError("trailing input", self.pos)
        return f

    def disjunction(self):
        terms = [self.conjunction()]
        while self.peek() == "|":
            self.pos += 1
            terms.append(self.conjunction())
        return f_or(terms)

    def conjunction(self):
        terms = [self.primary()]
        while self.peek() == "&":
            self.pos += 1
            terms.append(self.primary())
        return f_and(terms)

    def primary(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            f = self.disjunction()
            self.expect(")")
            return f
        start = self.pos
        while (self.pos < len(self.text)
               and self.text[self.pos].isalpha()):
            self.pos += 1
        word = self.text[start:self.pos]
        if word == "t":
            return TRUE
        if word == "f":
            return FALSE
        if word in ("Fin", "Inf"):
            self.expect("(")
            color = self.integer()
            self.expect(")")
            if self.max_colors is not None and color >= self.max_colors:
                raise AcceptanceParseError(
                    "color %d exceeds the declared count of %d"
                    % (color, self.max_colors), start)
            return Fin(color) if word == "Fin" else Inf(color)
        raise AcceptanceParseError("expected t, f, Fin or Inf", start)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise AcceptanceParseError("expected a number", start)
        return int(self.text[start:self.pos])


def parse_acceptance(text, max_colors=None):
    """Parse the textual form, e.g. "Fin(0)&(Inf(1)|Inf(2))".

    `max_colors`, when given, rejects any color index >= that bound.
    """
    return _AccParser(text, max_colors).parse()


def print_acceptance(formula):
    return str(formula)


# ---------------------------------------------------------------------------
# Classical acceptance classes.

@dataclass(frozen=True)
class AccClass:
    """A named classical shape: kind plus size parameters.

    kind is one of: 'Buchi', 'co-Buchi', 'generalized-Buchi',
    'generalized-co-Buchi', 'Rabin', 'Streett', 'generalized-Rabin',
    'Fin-less', 'parity min even', 'parity min odd', 'parity max even',
    'parity max odd'.  count holds k (pair/color count) where meaningful;
    sizes holds the per-pair Inf-set sizes of generalized-Rabin.
    """
    kind: str
    count: int = 0
    sizes: tuple = ()

    def name(self):
        if self.kind == "generalized-Rabin":
            return " ".join(["generalized-Rabin", str(len(self.sizes))]
                            + [str(s) for s in self.sizes])
        if self.kind in ("Buchi", "co-Buchi", "Fin-less"):
            return self.kind
        return "%s %d" % (self.kind, self.count)

    def __str__(self):
        return self.name()


BUCHI = AccClass("Buchi")
CO_BUCHI = AccClass("co-Buchi")
FIN_LESS = AccClass("Fin-less")

PARITY_KINDS = ("parity min even", "parity min odd",
                "parity max even", "parity max odd")


def generalized_buchi(k):
    return AccClass("generalized-Buchi", k)


def generalized_co_buchi(k):
    return AccClass("generalized-co-Buchi", k)


def rabin(k):
    return AccClass("Rabin", k)


def streett(k):
    return AccClass("Streett", k)


def generalized_rabin(sizes):
    return AccClass("generalized-Rabin", len(sizes), tuple(sizes))


def parity(min_max, even_odd, n):
    kind = "parity %s %s" % (min_max, even_odd)
    if kind not in PARITY_KINDS:
        raise ValueError("bad parity kind %r" % kind)
    return AccClass(kind, n)


def class_colors(cls):
    """Number of colors a class instance uses."""
    k = cls.kind
    if k == "Buchi" or k == "co-Buchi":
        return 1
    if k in ("generalized-Buchi", "generalized-co-Buchi"):
        return cls.count
    if k in ("Rabin", "Streett"):
        return 2 * cls.count
    if k == "generalized-Rabin":
        return len(cls.sizes) + sum(cls.sizes)
    if k.startswith("parity"):
        return cls.count
    if k == "Fin-less":
        return 2  # colors of the canonical representative
    raise ValueError("unknown class kind %r" % k)


def _parity_atom(kind, color):
    # which colors map to Inf atoms, per kind
    if kind == "parity min even" or kind == "parity max even":
        inf = color % 2 == 0
    else:
        inf = color % 2 == 1
    return Inf(color) if inf else Fin(color)


def make_class(cls):
    """Build the canonical formula for a classical acceptance class."""
    k = cls.kind
    if k == "Buchi":
        return Inf(0)
    if k == "co-Buchi":
        return Fin(0)
    if k == "generalized-Buchi":
        if cls.count < 1:
            raise ValueError("generalized-Buchi needs k >= 1")
        return f_and([Inf(i) for i in range(cls.count)])
    if k == "generalized-co-Buchi":
        if cls.count < 1:
            raise ValueError("generalized-co-Buchi needs k >= 1")
        return f_or([Fin(i) for i in range(cls.count)])
    if k == "Rabin":
        if cls.count < 1:
            raise ValueError("Rabin needs k >= 1")
        return f_or([f_and([Fin(2 * i), Inf(2 * i + 1)])
                     for i in range(cls.count)])
    if k == "Streett":
        if cls.count < 1:
            raise ValueError("Streett needs k >= 1")
        return f_and([f_or([Inf(2 * i), Fin(2 * i + 1)])
                      for i in range(cls.count)])
    if k == "generalized-Rabin":
        if len(cls.sizes) < 1:
            raise ValueError("generalized-Rabin needs at least one pair")
        npairs = len(cls.sizes)
        terms = []
        base = npairs
        for i, sz in enumerate(cls.sizes):
            infs = [Inf(base + j) for j in range(sz)]
            base += sz
            terms.append(f_and([Fin(i)] + infs))
        return f_or(terms)
    if k == "Fin-less":
        return f_or([Inf(0), Inf(1)])
    if k in PARITY_KINDS:
        n = cls.count
        if n < 1:
            raise ValueError("parity needs n >= 1")
        _, mm, eo = k.split()
        if mm == "min":
            # innermost atom is the highest color; wrap downward
            f = _parity_atom(k, n - 1)
            for c in range(n - 2, -1, -1):
                atom = _parity_atom(k, c)
                if isinstance(atom, Inf):
                    f = f_or([atom, f])
                else:
                    f = f_and([atom, f])
            return f
        # max: build upward from color 0
        f = _parity_atom(k, 0)
        for c in range(1, n):
            atom = _parity_atom(k, c)
            if isinstance(atom, Inf):
                f = f_or([f, atom])
            else:
                f = f_and([f, atom])
        return f
    raise ValueError("unknown class kind %r" % k)


def _norm_key(f):
    # canonical sort key: commutativity-insensitive comparison helper
    if isinstance(f, Fin):
        return (0, f.color, ())
    if isinstance(f, Inf):
        return (1, f.color, ())
    if isinstance(f, And):
        return (2, 0, tuple(sorted(_norm_key(c) for c in f.children)))
    if isinstance(f, Or):
        return (3, 0, tuple(sorted(_norm_key(c) for c in f.children)))
    if isinstance(f, AccTrue):
        return (4, 0, ())
    return (5, 0, ())


def _same_formula(a, b):
    return _norm_key(a) == _norm_key(b)


def recognize(formula, num_sets=None):
    """Name the classical class a formula belongs to, or None.

    Matching is structural, up to And/Or child order.  The most specific
    class wins; a Fin-free formula that fits no narrower shape reports as
    Fin-less; anything else reports as None.
    """
    # atoms and their color spread
    cols = sorted(used_colors(formula).colors())

    if isinstance(formula, Inf):
        if formula.color == 0:
            return BUCHI
    if isinstance(formula, Fin):
        if formula.color == 0:
            return CO_BUCHI

    if isinstance(formula, And):
        ch = formula.children
        if all(isinstance(c, Inf) for c in ch):
            if sorted(c.color for c in ch) == list(range(len(ch))):
                return generalized_buchi(len(ch))
    if isinstance(formula, Or):
        ch = formula.children
        if all(isinstance(c, Fin) for c in ch):
            if sorted(c.color for c in ch) == list(range(len(ch))):
                return generalized_co_buchi(len(ch))

    for k in _plausible_pair_counts(formula):
        if _same_formula(formula, make_class(rabin(k))):
            return rabin(k)
        if _same_formula(formula, make_class(streett(k))):
            return streett(k)

    gr = _match_generalized_rabin(formula)
    if gr is not None:
        return gr

    if cols and cols == list(range(len(cols))):
        n = len(cols)
        for kind in PARITY_KINDS:
            if _same_formula(formula, make_class(AccClass(kind, n))):
                return AccClass(kind, n)

    if is_finless(formula):
        return FIN_LESS
    return None


def _plausible_pair_counts(formula):
    # Rabin k / Streett k use 2k colors in k two-atom groups
    if isinstance(formula, (And, Or)):
        n = len(formula.children)
        yield 1
        if n > 1:
            yield n
    else:
        yield 1


def _match_generalized_rabin(formula):
    disjuncts = formula.children if isinstance(formula, Or) else (formula,)
    pairs = []
    for d in disjuncts:
        atoms = d.children if isinstance(d, And) else (d,)
        fins = [a for a in atoms if isinstance(a, Fin)]
        infs = [a for a in atoms if isinstance(a, Inf)]
        if len(fins) != 1 or len(fins) + len(infs) != len(atoms):
            return None
        pairs.append((fins[0].color, sorted(i.color for i in infs)))
    pairs.sort()
    npairs = len(pairs)
    if [p[0] for p in pairs] != list(range(npairs)):
        return None
    base = npairs
    sizes = []
    for _, infs in pairs:
        if infs != list(range(base, base + len(infs))):
            return None
        base += len(infs)
        sizes.append(len(infs))
    return generalized_rabin(sizes)


def parity_of(cls):
    """('min'|'max', 'even'|'odd', n) for a parity class, else None."""
    if cls is None or not cls.kind.startswith("parity"):
        return None
    _, mm, eo = cls.kind.split()
    return (mm, eo, cls.count)


def parity_readings(formula):
    """Every (min_max, even_odd, n) whose canonical formula matches.

    Small instances are ambiguous: Inf(0) is both parity min even 1 and
    parity max even 1, and recognize() names it Buchi.  Conversions pick
    whichever reading suits them, so all of them are listed here.
    """
    cols = sorted(used_colors(formula).colors())
    out = []
    if cols and cols == list(range(len(cols))):
        n = len(cols)
        for kind in PARITY_KINDS:
            if _same_formula(formula, make_class(AccClass(kind, n))):
                _, mm, eo = kind.split()
                out.append((mm, eo, n))
    return out


def acc_name(formula, num_sets):
    """The advisory acc-name string for a formula, or None.

    Only names whose conventional shape matches our canonical one are
    produced, so a foreign reader never sees a name contradicting the
    formula.
    """
    if isinstance(formula, AccTrue):
        return "all"
    if isinstance(formula, AccFalse):
        return "none"
    cls = recognize(formula, num_sets)
    if cls is None or cls.kind in ("Fin-less", "generalized-Rabin"):
        return None
    return cls.name()


# ---------------------------------------------------------------------------
# Parity shape conversion.

def _parse_parity_target(target):
    t = target.replace("-", " ").strip()
    if t.startswith("parity "):
        t = t[len("parity "):]
    parts = t.split()
    if len(parts) != 2 or parts[0] not in ("min", "max") \
            or parts[1] not in ("even", "odd"):
        raise ValueError("bad parity target %r" % (target,))
    return parts[0], parts[1]


def recolor_parity(aut, n, min_max, scale, offset):
    """Give every edge of `aut` one color, scale * c + offset, in place.

    c is the edge's relevant color under a min_max ("min" or "max")
    parity reading with n colors: only the smallest color on an edge can
    ever be the minimum of a cycle, so the rest are inert (dually for
    max), and colors from n up are inert too.  An edge with no color
    below n reads as c = n under min and c = -1 under max, just outside
    the range on the side that never decides a mixed cycle.
    """
    mask = (1 << n) - 1
    color_set = aut.color_set
    for e in aut.edge_records():
        bits = e.acc.bits & mask
        if min_max == "min":
            bits |= 1 << n
            c = (bits & -bits).bit_length() - 1
        else:
            c = bits.bit_length() - 1
        e.acc = color_set(1 << (scale * c + offset))


def change_parity(aut, target):
    """Convert between the four parity shapes by recoloring edges only.

    The automaton's acceptance must recognize as one of the parity
    classes and every edge may carry at most one relevant color.  Returns
    a new automaton over the same guard store; states and edge order are
    preserved, only colors and the acceptance formula change.
    """
    tgt_mm, tgt_eo = _parse_parity_target(target)
    readings = parity_readings(aut.acceptance)
    if not readings:
        raise ValueError("acceptance %s is not a parity condition"
                         % aut.acceptance)
    # prefer the reading that needs the least conversion work
    readings.sort(key=lambda r: (r[0] != tgt_mm, r[1] != tgt_eo))
    cur_mm, cur_eo, n = readings[0]

    out = aut.clone(keep_flags=(cur_mm, cur_eo) == (tgt_mm, tgt_eo))
    if (cur_mm, cur_eo) == (tgt_mm, tgt_eo):
        return out

    # The conversion is a pipeline of arithmetic steps on colors:
    #  1. if uncolored edges exist, give them an explicit neutral color --
    #     an all-uncolored cycle's status differs between the four shapes,
    #     so a bare shift would not preserve the language.  Min kinds take
    #     a fresh highest color n; max kinds shift everything up by two
    #     and use color 1 (lowest, odd, never the maximum of a mixed
    #     cycle).  recolor_parity reads an uncolored edge as color n under
    #     min and -1 under max, so the steps below put it there.
    #  2. min<->max is a reversal of the color order; the even/odd style
    #     flips alongside exactly when n-1 is odd.
    #  3. a remaining style mismatch is a shift by one.
    relevant = n
    mask = (1 << n) - 1
    pre_shift = 0
    if any(not e.acc.bits & mask for e in out.edge_records()):
        if cur_mm == "min":
            n += 1
        else:
            pre_shift = 2
            n += 2
    style = cur_eo
    reverse = cur_mm != tgt_mm
    if reverse and (n - 1) % 2 == 1:
        style = "odd" if style == "even" else "even"
    post_shift = 1 if style != tgt_eo else 0
    total = n + post_shift

    out.nwords = words_for(total)
    offset = (n - 1 - pre_shift if reverse else pre_shift) + post_shift
    recolor_parity(out, relevant, cur_mm, -1 if reverse else 1, offset)
    out.set_acceptance(total, make_class(parity(tgt_mm, tgt_eo, total)))
    return out
