"""Emerson-Lei acceptance conditions.

An acceptance condition is a positive Boolean formula over atoms Fin(i)
and Inf(i), where i names a color (an acceptance set).  A run is accepting
iff the formula evaluates to true when Inf(i) is read as "color i occurs
infinitely often on the run" and Fin(i) as "color i occurs finitely often".

A formula is one flat code, a tuple of ints in postfix order, as Spot's
acc_code.  Item 4*a + k is Fin(a) for k = 0, Inf(a) for k = 1, and the
And (k = 2) or Or (k = 3) of the a operands before it; t is the And of
none and f the Or of none.  The classes Fin, Inf, And, Or, AccTrue and
AccFalse are views of a code, chosen by its top item.  Every function
here walks the code in a loop with an explicit stack, so how deep a
formula nests is bounded by memory, not by Python's recursion limit.

A set of colors is a non-negative int whose bit i is color i, as
Spot's acc_cond::mark_t; COLORS_PER_WORD and words_for size the 32-bit
words that Automaton.pack_edges writes such a set in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain


COLORS_PER_WORD = 32


def words_for(ncolors):
    """The number of color words that hold colors 0 .. ncolors-1 (at
    least one)."""
    return max(1, (ncolors + COLORS_PER_WORD - 1) // COLORS_PER_WORD)


def colors_of(bits):
    """The colors of the int `bits`, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


# ---------------------------------------------------------------------------
# Formulas.
#
# Built formulas are normal: an operator has at least two operands, none
# a constant or of its own kind (f_and/f_or see to it), so a printed
# formula reparses to an identical code.

FIN, INF, AND, OR = range(4)


class _Formula:
    __slots__ = ("_code",)

    @property
    def code(self):
        """The formula's postfix code, a tuple of ints."""
        return self._code

    def __eq__(self, other):
        if isinstance(other, _Formula):
            return self._code == other._code
        return NotImplemented

    def __hash__(self):
        return hash(self._code)

    def __repr__(self):
        return "parse_acceptance(%r)" % str(self)

    def __str__(self):
        # The code read backwards is the tree in prefix order, right to
        # left: tokens are collected in that order and reversed at the end.
        out = []
        todo = []       # open operators: [operands left, kind, in parens]
        for x in reversed(self._code):
            kind = x & 3
            # | binds looser than &, so Or operands of an And need parens
            paren = x > 3 and kind == OR and todo and todo[-1][1] == AND
            if paren:
                out.append(")")
            if kind < 2:
                out.append("%s(%d)" % ("Inf" if kind else "Fin", x >> 2))
            elif x > 3:
                todo.append([x >> 2, kind, paren])
                continue
            else:
                out.append("t" if x == AND else "f")
            while todo:                 # an operand is complete
                top = todo[-1]
                top[0] -= 1
                if top[0]:
                    out.append("&" if top[1] == AND else "|")
                    break
                todo.pop()
                if top[2]:
                    out.append("(")
        return "".join(reversed(out))


def _view(code):
    """The formula of a code, of the class of its top item."""
    top = code[-1]
    if top == AND or top == OR:
        return TRUE if top == AND else FALSE
    f = object.__new__(_CLASSES[top & 3])
    f._code = code
    return f


def _code_of(formula):
    if not isinstance(formula, _Formula):
        raise TypeError("not an acceptance formula: %r" % (formula,))
    return formula._code


class AccTrue(_Formula):
    __slots__ = ()

    def __new__(cls):
        return TRUE


class AccFalse(_Formula):
    __slots__ = ()

    def __new__(cls):
        return FALSE


class _Atom(_Formula):
    __slots__ = ()

    def __new__(cls, color):
        return _view((4 * color + cls._kind,))

    @property
    def color(self):
        return self._code[0] >> 2


class _Operator(_Formula):
    """The And or Or of the given operands, as given: f_and and f_or
    normalize."""
    __slots__ = ()

    def __new__(cls, children):
        codes = [_code_of(c) for c in children]
        return _view(tuple(chain(*codes, (4 * len(codes) + cls._kind,))))

    @property
    def children(self):
        code = self._code
        starts = []         # of the operands so far
        for i, x in enumerate(code[:-1]):
            if x < 4 or not x & 2:      # an atom or a constant
                starts.append(i)
            elif x > 7:     # x joins x >> 2 operands: keep the first's start
                del starts[1 - (x >> 2):]
        starts.append(len(code) - 1)
        return tuple([_view(code[s:e]) for s, e in zip(starts, starts[1:])])


class Fin(_Atom):
    __slots__ = ()
    _kind = FIN


class Inf(_Atom):
    __slots__ = ()
    _kind = INF


class And(_Operator):
    __slots__ = ()
    _kind = AND


class Or(_Operator):
    __slots__ = ()
    _kind = OR


TRUE, FALSE = object.__new__(AccTrue), object.__new__(AccFalse)
TRUE._code, FALSE._code = (AND,), (OR,)
_CLASSES = (Fin, Inf, And, Or)


def _fold(raw):
    """The formula of raw, a postfix code whose operators may take
    constants, single operands or operands of their own kind: f_and and
    f_or applied bottom-up, in one pass.  An item of raw may also be a
    whole normal code, which is one operand."""
    out = []
    tops = []           # per operand: (its start in out, its top's index)
    for x in raw:
        if type(x) is tuple:
            tops.append((len(out), len(out) + len(x) - 1))
            out += x
        elif x < 4 or not x & 2:        # an atom or a constant
            tops.append((len(out), len(out)))
            out.append(x)
        else:
            kind = x & 3
            n = len(tops) - (x >> 2)
            args = tops[n:]
            del tops[n:]
            start = args[0][0]
            count = gone = 0    # operands once merged; -1 when absorbed
            for _, at in args:
                at -= gone
                y = out[at]
                if y == kind ^ 1:       # f under And, t under Or
                    count = -1
                    break
                if y & 3 == kind:       # t under And, or an And in one
                    del out[at]
                    gone += 1
                    count += y >> 2
                    if y > 3:           # its last operand ends just before
                        last = at - 1
                else:
                    count += 1
                    last = at
            if count == 1:
                tops.append((start, last))
            elif count > 1:
                tops.append((start, len(out)))
                out.append(4 * count + kind)
            else:
                del out[start:]
                tops.append((start, start))
                out.append(kind ^ 1 if count else kind)
    return _view(tuple(out))


def f_and(children):
    """Conjunction with flattening and constant folding."""
    codes = [_code_of(c) for c in children]
    return _fold(codes + [4 * len(codes) + AND])


def f_or(children):
    codes = [_code_of(c) for c in children]
    return _fold(codes + [4 * len(codes) + OR])


def eval_acceptance(formula, bits):
    """Evaluate against the set of colors occurring infinitely often,
    given as an int of color bits."""
    stack = []
    for x in formula._code:
        kind = x & 3
        if kind < 2:
            stack.append(bits >> (x >> 2) & 1 == kind)
        else:                   # all([]) and any([]) read t and f
            n = len(stack) - (x >> 2)
            args = stack[n:]
            del stack[n:]
            stack.append(all(args) if kind == AND else any(args))
    return stack[0]


def used_colors(formula):
    """The bits of every color mentioned by the formula, as an int.

    Raises TypeError when the formula is not a formula."""
    bits = 0
    for x in _code_of(formula):
        if not x & 2:
            bits |= 1 << (x >> 2)
    return bits


def is_finless(formula):
    """True iff no Fin atom occurs anywhere in the formula."""
    return all(x & 3 for x in formula._code)


def _first_fin(formula):
    """The color of the formula's leftmost Fin atom, or None."""
    return next((x >> 2 for x in formula._code if not x & 3), None)


def subst(formula, fin_map, inf_map):
    """Replace Fin/Inf atoms by constants per the given {color: bool} maps."""
    maps = (fin_map, inf_map)
    raw = []
    for x in formula._code:
        if not x & 2 and x >> 2 in maps[x & 1]:
            x = AND if maps[x & 1][x >> 2] else OR
        raw.append(x)
    return _fold(raw)


def dual(formula):
    """The De Morgan dual: swaps And/Or, Fin/Inf, t/f.

    For every color set C, eval(dual(f), C) == not eval(f, C), and the
    dual is again a positive formula.
    """
    return _view(tuple(x ^ 1 for x in formula._code))


def shift_colors(formula, by):
    return _view(tuple(x if x & 2 else x + 4 * by for x in formula._code))


def to_dnf(formula):
    """Disjunctive normal form, eval-equivalent to the input.

    Returns TRUE, FALSE, or an Or/And/atom tree where every disjunct is a
    conjunction of atoms.  Disjuncts mixing Fin(c) with Inf(c) are
    contradictions and get dropped; duplicates are removed, first
    occurrence wins.
    """
    got = dnf_disjuncts(formula)
    if got is None:
        return TRUE
    return f_or([f_and([Fin(c) for c in sorted(fins)]
                       + [Inf(c) for c in sorted(infs)])
                 for fins, infs in got])


def dnf_disjuncts(formula):
    """DNF as a list of (fin_colors, inf_colors) pairs.

    Returns None for TRUE (accepts everything) and [] for FALSE.
    """
    # per operand: its disjuncts as distinct (fin bits, inf bits) pairs
    # without a color in both, first occurrence first; t is [(0, 0)]
    stack = []
    for x in formula._code:
        kind = x & 3
        if kind < 2:
            stack.append([(0, 1 << (x >> 2)) if kind else (1 << (x >> 2), 0)])
            continue
        n = len(stack) - (x >> 2)
        args = stack[n:]
        del stack[n:]
        if kind == OR:
            terms = [t for a in args for t in a]
        else:
            terms = [(0, 0)]
            for a in args:
                terms = [(fa | fb, ia | ib)
                         for fa, ia in terms for fb, ib in a]
        stack.append([t for t in dict.fromkeys(terms) if not t[0] & t[1]])
    if (0, 0) in stack[0]:
        return None
    return [(frozenset(colors_of(fins)), frozenset(colors_of(infs)))
            for fins, infs in stack[0]]


# ---------------------------------------------------------------------------
# Parsing.

class AcceptanceParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s at position %d" % (message, pos))
        self.pos = pos


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text, pos, ch):
    """The offset past ch, expected at pos after blanks."""
    pos = _skip_ws(text, pos)
    if text[pos:pos + 1] != ch:
        raise AcceptanceParseError("expected '%s'" % ch, pos)
    return pos + 1


def parse_acceptance(text, max_colors=None):
    """Parse the textual form, e.g. "Fin(0)&(Inf(1)|Inf(2))".

    `max_colors`, when given, rejects any color index >= that bound.
    """
    # The raw code takes every & and | chain as written; _fold normalizes.
    raw = []
    groups = [[0, 0]]       # per open parenthesis, the whole text first:
    pos = 0                 # [disjuncts done, conjuncts in the current one]
    while True:
        pos = _skip_ws(text, pos)
        if text[pos:pos + 1] == "(":
            pos += 1
            groups.append([0, 0])
            continue
        start = pos
        while pos < len(text) and text[pos].isalpha():
            pos += 1
        word = text[start:pos]
        if word == "t" or word == "f":
            raw.append(AND if word == "t" else OR)
        elif word == "Fin" or word == "Inf":
            pos = _skip_ws(text, _expect(text, pos, "("))
            digits = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == digits:
                raise AcceptanceParseError("expected a number", digits)
            try:
                color = int(text[digits:pos])
            except ValueError:            # more digits than int() converts
                raise AcceptanceParseError(
                    "color index of %d digits out of range" % (pos - digits),
                    digits) from None
            pos = _expect(text, pos, ")")
            if max_colors is not None and color >= max_colors:
                raise AcceptanceParseError(
                    "color %d exceeds the declared count of %d"
                    % (color, max_colors), start)
            raw.append(4 * color + (FIN if word == "Fin" else INF))
        else:
            raise AcceptanceParseError("expected t, f, Fin or Inf", start)
        groups[-1][1] += 1
        while True:                     # after an operand
            pos = _skip_ws(text, pos)
            ch = text[pos:pos + 1]
            if ch == "&":
                break
            group = groups[-1]
            raw.append(4 * group[1] + AND)
            group[0] += 1
            group[1] = 0
            if ch == "|":
                break
            raw.append(4 * group[0] + OR)
            groups.pop()
            if not groups:
                if pos != len(text):
                    raise AcceptanceParseError("trailing input", pos)
                return _fold(raw)
            if ch != ")":
                raise AcceptanceParseError("expected ')'", pos)
            pos += 1
            groups[-1][1] += 1
        pos += 1


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

    @staticmethod
    def parse(text):
        """The class whose name() is `text`, up to blanks; None if `text`
        names no class, ValueError if a class name has bad numbers."""
        toks = text.split()
        if len(toks) == 1 and toks[0] in ("Buchi", "co-Buchi", "Fin-less"):
            return AccClass(toks[0])
        try:
            if len(toks) == 2 and toks[0] in (
                    "generalized-Buchi", "generalized-co-Buchi", "Rabin",
                    "Streett"):
                return AccClass(toks[0], int(toks[1]))
            if len(toks) >= 2 and toks[0] == "generalized-Rabin":
                sizes = [int(t) for t in toks[2:]]
                if len(sizes) != int(toks[1]):
                    raise ValueError("generalized-Rabin wants %s sizes"
                                     % toks[1])
                return generalized_rabin(sizes)
            if len(toks) == 4 and toks[0] == "parity":
                return parity(toks[1], toks[2], int(toks[3]))
        except ValueError as exc:
            raise ValueError("bad acceptance class %r: %s" % (text, exc))
        return None

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
        # Inf for the colors of the kind's parity, Fin for the others;
        # an Inf joins the rest by Or, a Fin by And
        atoms = [4 * c + (INF if c % 2 == (eo == "odd") else FIN)
                 for c in range(n)]
        joins = [4 * 2 + (OR if a & 3 == INF else AND) for a in atoms]
        if mm == "min":
            # innermost atom is the highest color; wrap downward
            raw = atoms + joins[-2::-1]
        else:
            # build upward from color 0
            raw = atoms[:1]
            for a, join in zip(atoms[1:], joins[1:]):
                raw += [a, join]
        return _fold(raw)
    raise ValueError("unknown class kind %r" % k)


def _shape(code, ids):
    """The number in ids of the formula of code up to the order of And/Or
    operands: two codes numbered in one ids get equal numbers iff their
    formulas are equal up to that order."""
    stack = []
    for x in code:
        n = len(stack) - (x >> 2) if x & 2 else len(stack)
        key = (x, *sorted(stack[n:]))
        del stack[n:]
        stack.append(ids.setdefault(key, len(ids)))
    return stack[0]


def _same_formula(a, b):
    if a._code == b._code:
        return True
    ids = {}
    return (len(a._code) == len(b._code)
            and _shape(a._code, ids) == _shape(b._code, ids))


def recognize(formula):
    """Name the classical class a formula belongs to, or None.

    Matching is structural, up to And/Or child order.  The most specific
    class wins; a Fin-free formula that fits no narrower shape reports as
    Fin-less; anything else reports as None.
    """
    code = formula._code
    if code == (INF,):
        return BUCHI
    if code == (FIN,):
        return CO_BUCHI

    top = code[-1]
    n = top >> 2 if top & 2 else 0
    if n:
        # Inf(0) .. Inf(n-1) under And, or Fin under Or
        shape = generalized_buchi if top & 3 == AND else generalized_co_buchi
        if _same_formula(formula, make_class(shape(n))):
            return shape(n)

    # Rabin k / Streett k use 2k colors in k two-atom groups
    for k in (1, n) if n > 1 else (1,):
        if _same_formula(formula, make_class(rabin(k))):
            return rabin(k)
        if _same_formula(formula, make_class(streett(k))):
            return streett(k)

    gr = _match_generalized_rabin(formula)
    if gr is not None:
        return gr

    readings = parity_readings(formula)
    if readings:
        return parity(*readings[0])

    if is_finless(formula):
        return FIN_LESS
    return None


def _match_generalized_rabin(formula):
    # one Fin(i) per disjunct, i = 0 .. n-1, and its Infs; the shape is
    # then checked against the canonical formula of those sizes
    disjuncts = formula.children if isinstance(formula, Or) else (formula,)
    sizes = {}
    for d in disjuncts:
        fins = [x >> 2 for x in d._code if x & 3 == FIN]
        if len(fins) != 1:
            return None
        sizes[fins[0]] = max(len(d._code) - 2, 0)
    if sorted(sizes) != list(range(len(sizes))):
        return None
    cls = generalized_rabin([sizes[i] for i in range(len(sizes))])
    return cls if _same_formula(formula, make_class(cls)) else None


def parity_of(cls):
    """('min'|'max', 'even'|'odd', n) for a parity class, else None."""
    if cls is None or not cls.kind.startswith("parity"):
        return None
    _, mm, eo = cls.kind.split()
    return (mm, eo, cls.count)


def parity_readings(formula):
    """Every (min_max, even_odd, n) whose canonical formula matches, up
    to the order of And/Or operands.

    Small instances are ambiguous: Inf(0) is both parity min even 1 and
    parity max even 1, and recognize() names it Buchi.  Conversions pick
    whichever reading suits them, so all of them are listed here.

    A canonical parity formula over n >= 2 colors is a chain: each
    operator is binary and joins one atom to the chain below it, the
    lowest joins two.  The lowest holds colors n-2 and n-1 under min
    (colors fall going up), 0 and 1 under max (they rise); color c is
    Inf(c) when c has the accepting parity, else Fin(c), and the
    operator that adds it is | for an Inf, & for a Fin.  So one scan of
    the code reads the chain and names the one reading it can match.
    """
    code = formula._code
    if len(code) == 1:
        if code[0] > INF:               # t, f or a color above 0
            return []
        eo = "even" if code[0] == INF else "odd"
        return [("min", eo, 1), ("max", eo, 1)]

    def atom(c):                        # Fin(c) or Inf(c) under `odd`
        return 4 * c + ((c ^ odd ^ 1) & 1)

    n = (len(code) + 1) // 2
    stack = []          # per operand: an atom, or -1 for the chain
    step = 0            # the color step up the chain: -1 (min), +1 (max)
    for x in code:
        if not x & 2:
            stack.append(x)
            continue
        if x >> 2 != 2:
            return []
        b, a = stack.pop(), stack.pop()
        if step:
            if (a < 0) == (b < 0):      # two atoms, or two chains
                return []
            item = max(a, b)
            color += step
        else:                           # the lowest operator
            low, high = min(a, b), max(a, b)
            odd = (low ^ low >> 2 ^ 1) & 1      # Inf on odd colors
            if low >> 2 == n - 2 and x == 10 + (low & 1):
                step, color, item, base = -1, n - 2, low, high
            elif low >> 2 == 0:
                step, color, item, base = 1, 1, high, low
            else:
                return []
            if base != atom(color - step):
                return []
        if item != atom(color) or x != 10 + (item & 1):    # & or | joins it
            return []
        stack.append(-1)
    return [("min" if step < 0 else "max", "odd" if odd else "even", n)]


def acc_name(formula, num_sets):
    """The advisory acc-name string for a formula, or None.

    Only names whose conventional shape matches our canonical one and
    whose color count is the declared `num_sets` are produced, so a
    foreign reader never sees a name contradicting the formula: with
    `Acceptance: 3 Inf(0)` nothing is named, as Spot's is_buchi() wants
    exactly one set.
    """
    if isinstance(formula, AccTrue):
        return "all"
    if isinstance(formula, AccFalse):
        return "none"
    cls = recognize(formula)
    if cls is None or cls.kind in ("Fin-less", "generalized-Rabin") \
            or class_colors(cls) != num_sets:
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
    the range on the side that never decides a mixed cycle.  The new
    color is computed once per distinct color set.
    """
    mask = (1 << n) - 1

    def recolor(bits):
        bits &= mask
        if min_max == "min":
            bits |= 1 << n
            c = (bits & -bits).bit_length() - 1
        else:
            c = bits.bit_length() - 1
        return 1 << (scale * c + offset)
    aut.map_colors(recolor)


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
    if any(not bits & mask for bits in out.edge_acc[1:]):
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

    offset = (n - 1 - pre_shift if reverse else pre_shift) + post_shift
    recolor_parity(out, relevant, cur_mm, -1 if reverse else 1, offset)
    out.set_acceptance(total, make_class(parity(tgt_mm, tgt_eo, total)))
    return out
