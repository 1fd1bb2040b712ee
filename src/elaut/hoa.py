"""Reading and writing the Hanoi Omega-Automata (HOA) v1 text format.

Only explicitly-labeled bodies are supported: every edge either carries
its own [label] or inherits the label of a labeled State: line.  Headers
that start with an uppercase letter must be understood, so an unknown one
is an error; unknown lowercase headers are skipped.

Two extension headers are used: `spot-state-player:` carries the per-state
ownership vector of games, and `controllable-AP:` the output-AP indices of
synthesized machines.  Both are lowercase, so other tools can ignore
them.

Reading has three parts.  First, where the text holds "/*", each of its
comments is made blanks (`_blank_comments`), all but its line breaks,
so no offset, line or column moves and the rest never sees a comment.
The header is lexed by one compiled regular expression (`_TOKEN_RE`, in
`_lex`) into a list of tokens up to --BODY--, each with the character
offset where it starts; a whole [label] is one token, and `_Parser`
walks that list.  A body as print_hoa writes it (one State: line or
edge a line, under a States: header and no state-acc) is read by
`_Parser._plain_read`: `_LINE_RE`'s findall makes each line of a chunk
one tuple at C speed, a new label text goes through
`GuardStore.parse_label` once per body, and the edges go in as columns
(`Automaton.extend_edges`).  At a line it does not take, it starts the
automaton again and the item walker (`_Parser._walk_items`) reads the
body: each match of `_ITEM_RE` is a whole edge (label, destination or
`&` group, colors), a whole State: line or an end marker, and the edges
go in, checked, in batches (`Automaton.new_edges`).  Only the walker
raises: where no whole item matches, the token at that offset, read
with `_TOKEN_RE`, names the error.  Only a HoaParseError turns an
offset into line:col.

`parse_hoa_stream_lazy`, the reader of product queries, defers a body
that is plain (`_Parser._plain_body`: as print_hoa writes it under a
States: header, with no comment, state name or colors, `&` group or weak
property).  A few passes at C speed check the whole body first, and
the line loop (`_Parser._walk`) reads the edges of a state, from its
part of the body, when the search first asks for them
(`LazyAutomaton`).  Every other body, malformed ones included, is read
in full, so each error is raised at the same line:col.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys

from .acceptance import (FALSE, TRUE, acc_name, colors_of, eval_acceptance,
                         parse_acceptance, AcceptanceParseError)
from .graph import MAYBE, NO, YES, Automaton, FLAG_NAMES
from .guards import LabelParseError


# properties: tokens for the trivalent flags (state_acc is special-cased)
_FLAG_TOKENS = (
    ("universal", "deterministic"),
    ("complete", "complete"),
    ("weak", "weak"),
    ("very_weak", "very-weak"),
    ("inherently_weak", "inherently-weak"),
    ("terminal", "terminal"),
    ("unambiguous", "unambiguous"),
    ("semi_deterministic", "semi-deterministic"),
    ("stutter_invariant", "stutter-invariant"),
)
_TOKEN_TO_FLAG = {tok: flag for flag, tok in _FLAG_TOKENS}


# The most states one automaton may have.  The parser creates every
# declared state (or each one up to the largest index named) before any
# edge, at 16 bytes each, so a short header must not ask for gigabytes.
MAX_STATES = 1 << 20

# The most colors an `Acceptance:` header may declare: a color set is an
# int of up to that many bits, and operations on it cost time and memory
# in proportion.
MAX_COLORS = 1 << 20


class HoaParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


# One token after optional blanks.  The number of the last group that
# matched (`lastindex`) is the token's kind, as _lex reads it; None is the
# end of the text.
_TOKEN_RE = re.compile(r"""\s*(?:
    ([0-9]+)                            # 1 integer
  | \[([^\]]*)\]                        # 2 label text
  | ([{}()&|!\]])                       # 3 punctuation
  | ([a-zA-Z_][0-9a-zA-Z_-]*)(:?)       # 4 identifier, 5 header colon
  | "([^"\\]*(?:\\.[^"\\]*)*)"          # 6 string body
  | --(BODY|END|ABORT)--                # 7 section marker
  | (/\*)                               # 8 a comment never closed
  | (\S)                                # 9 where no token starts
  | \Z
)""", re.VERBOSE | re.DOTALL)
_COMMENT_RE = re.compile(r"/\*|\*/")
# Text up to where the next comment opens, or up to a string or [label]
# that is not closed: a closed one, read as _TOKEN_RE reads it, may hold
# "/*".  A match reads at most 1024 parts, as the re module keeps a frame
# of some 300 bytes for each repetition of a group until the match ends.
_NOT_COMMENT_RE = re.compile(
    r'(?:[^"\[/]+|"[^"\\]*(?:\\.[^"\\]*)*"|\[[^\]]*\]|/(?!\*)){0,1024}',
    re.DOTALL)
_NOT_NEWLINE_RE = re.compile(r"[^\n]")
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

# One item of the body, from where its first token starts, and the blanks
# after it.  Its tokens are the ones _TOKEN_RE reads.  Every part after
# an item's first token is optional, so an item cut short by input that
# is not HOA still matches up to the cut; _walk_body reads the cut.
# Where no item starts, the match is empty.  (An optional part is written
# "(?:...|)", which the re module runs faster than "?".)
_ITEM_RE = re.compile(r"""(?:
    (?:\[([^\]]*)\]\s*|(?=[0-9]))           # 1 edge label, or none
    (?:([0-9]+)\s*                          # 2 destination
       ((?:&\s*[0-9]+\s*)+|)                # 3 more group members
       (?:(&)\s*                            # 4 an "&" without a member
        |\{([0-9\s]*)(\}?)\s*               # 5 colors, 6 "}" if closed
        |)
    |)
  | State:\s*(?:\[([^\]]*)\]\s*|)           # 7 state label
    (?:([0-9]+)\s*                          # 8 state index
       (?:"([^"\\]*(?:\\.[^"\\]*)*)"\s*|)   # 9 state name
       (?:\{([0-9\s]*)(\}?)\s*|)            # 10 colors, 11 "}" if closed
    |)
  | (--(?:END|ABORT)--)                     # 12 end marker
  |                                         # no item starts here
)""", re.VERBOSE | re.DOTALL)
_BLANKS_RE = re.compile(r"\s*")
# One line of a body as print_hoa writes it: an edge (1 label, 2
# destination, 3 colors) or a State: line (4 its index).  Elsewhere 5
# takes the rest of the text, so findall's last tuple tells whether it
# took every line.  A chunk for findall ends at the first line break
# past _CHUNK characters.
_LINE_RE = re.compile(r"\[([^\]\n]*)\] ([0-9]+)(?: \{([0-9 ]*)\})?\n"
                      r"|State: ([0-9]+)\n|(.+)", re.DOTALL)
_CHUNK = 1 << 15
# Edges read but not yet in the automaton, at most: past this count they
# go in at the next State: line, so the pending tuples stay small.
_EDGE_BATCH = 1024
_INT_RE = re.compile(r"[0-9]+")

# the parts of a plain body (see _Parser._plain_body) read after its
# lines are checked: the State: lines, which split it, and the colors
_STATE_LINE_RE = re.compile(r"State: ([0-9]+)\n")
_COLORS_RE = re.compile(r"\{([0-9 ]*)\}")


@functools.cache
def _not_plain_re(num_aps, digits):
    """Where a line of a body over `num_aps` APs is not plain: its line
    break, when the line after it is neither an edge nor a State: line
    (see _Parser._plain_body) with numbers of at most `digits` digits."""
    ap = ("[0-%d]" % (num_aps - 1) if num_aps <= 10 else
          "(?:1[0-%d]|[0-9])" % (num_aps - 11)) if num_aps else "(?!)"
    return re.compile(r"\n(?!\[(?:t|f|!?{0}(?:(?:&| \| )!?{0})*)\] {1}"
                      r"(?: \{{{2}(?: {2})*\}})?\n|State: {1}\n|\Z)".format(
                          ap, "[0-9]{1,%d}" % digits, "[0-9]{1,7}"))


def _blank_comments(text):
    """`text` with every character of each comment but its line breaks
    made a blank, so that no offset, line or column moves.  It stops at
    a string, [label] or comment that is not closed, where lexing stops
    with an error."""
    parts = []
    pos = 0
    while text.find("/*", pos) >= 0:
        start = pos
        while True:                   # until a match reads nothing
            end = _NOT_COMMENT_RE.match(text, start).end()
            if end == start:
                break
            start = end
        if not text.startswith("/*", start):
            break
        depth = 0
        for c in _COMMENT_RE.finditer(text, start):     # nested comments
            depth += 1 if c.group() == "/*" else -1
            if not depth:
                break
        else:                                           # never closed
            break
        parts += (text[pos:start],
                  _NOT_NEWLINE_RE.sub(" ", text[start:c.end()]))
        pos = c.end()
    return "".join(parts) + text[pos:]


def _lex(text, pos, endpos=sys.maxsize):
    """The header tokens of the automaton that starts at offset `pos`,
    and the offset where they end; tokens end at `endpos` at the latest.

    A token is (kind, value, offset of its first character).  Integers,
    labels (the text between the brackets), strings (unescaped),
    identifiers and headers (the name before the colon) have the kinds
    "int", "label", "string", "ident" and "header"; a punctuation
    character is its own kind and value.  Blanks are skipped; comments
    are blanks already (see _blank_comments), so one left is not closed.
    Lexing stops after --BODY--, --END-- or --ABORT--, at the end of the
    text with an "eof" token, and where no token can start with an
    "error" token that holds the message.  The parser raises that error
    only when it reaches the token, so the error reported is the first
    one in the text.
    """
    toks = []
    append = toks.append
    for m in _TOKEN_RE.finditer(text, pos, endpos):
        k = m.lastindex
        if k == 5:
            append(("header" if m.group(5) else "ident", m.group(4),
                    m.start(4)))
        elif k == 1:
            try:
                append(("int", int(m.group(1)), m.start(1)))
            except ValueError:        # more digits than int() converts
                append(("error", "integer of %d digits too large"
                        % len(m.group(1)), m.start(1)))
                return toks, m.end()
        elif k == 6:
            value = m.group(6)
            if "\\" in value:
                value = _ESCAPE_RE.sub(r"\1", value)
            append(("string", value, m.start(6) - 1))
        elif k == 3:
            ch = m.group(3)
            append((ch, ch, m.start(3)))
        elif k == 2:
            append(("label", m.group(2), m.start(2) - 1))
        elif k == 7:
            append((m.group(7).lower(), None, m.start(7) - 2))
            return toks, m.end()
        elif k == 8:
            append(("error", "unterminated comment", m.start(8)))
            return toks, len(text)
        elif k is None:
            append(("eof", None, len(text)))
            return toks, len(text)
        else:
            start = m.start(9)
            ch = text[start]
            if ch == '"':
                message = "unterminated string"
            elif ch == "[":
                message, start = "missing ']'", start + 1
            elif text.startswith("--", start):
                message = "stray '--'"
            else:
                message = "unexpected character %r" % ch
            append(("error", message, start))
            return toks, m.end()


def _token(text, pos):
    """The first token at or after `pos`, as _lex reads it: _lex stops
    where that token's match ends, so it reads no further token."""
    return _lex(text, pos, _TOKEN_RE.match(text, pos).end())[0][0]


# what an unknown header's values and an acceptance formula are made of
_VALUE_KINDS = frozenset(("ident", "int", "string", "label", "{", "}", "(",
                          ")", "&", "|", "!", "]"))
_FORMULA_KINDS = frozenset(("ident", "int", "(", ")", "&", "|"))


class _Parser:
    """One automaton: the grammar walk over its header tokens (see _lex),
    then the item walk over its body, from offset `end` on."""

    def __init__(self, text, toks, end):
        self.text = text
        self.toks = toks
        self.i = 0
        self.end = end

    def error(self, message, offset):
        """The HoaParseError at a character offset into the text."""
        text = self.text
        return HoaParseError(message, text.count("\n", 0, offset) + 1,
                             offset - text.rfind("\n", 0, offset))

    def fail(self, tok, message):
        """Raise `message` at an unexpected token, or the lexing error
        that the token stands for."""
        kind, val, offset = tok
        raise self.error(val if kind == "error" else message, offset)

    def integer(self, digits, offset):
        try:
            return int(digits)
        except ValueError:            # more digits than int() converts
            raise self.error("integer of %d digits too large" % len(digits),
                             offset) from None

    def expect(self, kind, what):
        tok = self.toks[self.i]
        self.i += 1
        if tok[0] != kind:
            self.fail(tok, "expected " + what)
        return tok[1]

    def run(self, kinds):
        """The values of the tokens from here on whose kinds are in
        `kinds`, up to the first that is not, which is read next."""
        toks = self.toks
        i = j = self.i
        while toks[j][0] in kinds:
            j += 1
        self.i = j
        return [tok[1] for tok in toks[i:j]]

    def parse_automaton(self, lazy=False):
        """The automaton, and the offset after its --END--; with `lazy`,
        a LazyAutomaton when its body is plain (see _plain_body)."""
        toks = self.toks
        if toks[0][:2] != ("header", "HOA"):
            self.fail(toks[0], "expected HOA: header")
        if toks[1][:2] != ("ident", "v1"):
            self.fail(toks[1], "unsupported format version")
        self.i = 2

        h = {
            "states": None, "start": None, "aps": None,
            "num_sets": None, "acceptance": None, "name": None,
            "properties": [], "players": None, "controllable": None,
        }
        at = {}   # header name -> offset of its last occurrence

        while True:
            kind, val, off = tok = toks[self.i]
            self.i += 1
            if kind != "header":
                if kind == "body":
                    break
                if kind == "eof":
                    raise self.error("missing --BODY--", off)
                self.fail(tok, "expected a header")
            if val in at and val in ("States", "Start", "AP", "Acceptance",
                                     "name", "acc-name", "tool"):
                raise self.error("duplicate %s: header" % val, off)
            at[val] = off
            if val == "States":
                n = h["states"] = self.expect("int", "state count")
                if n > MAX_STATES:
                    raise self.error("%d states exceed the limit of %d"
                                     % (n, MAX_STATES), toks[self.i - 1][2])
            elif val == "Start":
                h["start"] = [self.expect("int", "initial state")]
                while toks[self.i][0] == "&":
                    self.i += 1
                    h["start"].append(self.expect("int", "initial state"))
            elif val == "AP":
                n = self.expect("int", "AP count")
                h["aps"] = [self.expect("string", "AP name")
                            for _ in range(n)]
            elif val == "Acceptance":
                n = h["num_sets"] = self.expect("int", "acceptance set count")
                if n > MAX_COLORS:
                    raise self.error("%d colors exceed the limit of %d"
                                     % (n, MAX_COLORS), toks[self.i - 1][2])
                h["acceptance"] = self._acceptance_formula(n, off)
            elif val == "name":
                h["name"] = self.expect("string", "automaton name")
            elif val == "acc-name":
                self.run(("ident", "int"))
            elif val == "tool":
                self.run(("string",))
            elif val == "properties":
                while toks[self.i][0] in ("ident", "!"):
                    kind, prop, _ = toks[self.i]
                    self.i += 1
                    if kind == "!":
                        prop = "!" + self.expect("ident", "a property token")
                    h["properties"].append(prop)
            elif val == "spot-state-player":
                h["players"] = self.run(("int",))
            elif val == "controllable-AP":
                h["controllable"] = self.run(("int",))
            elif val[0].isupper():
                raise self.error("unknown header %s: requires support" % val,
                                 off)
            else:
                self.run(_VALUE_KINDS)    # an unknown lowercase header
        return self._parse_body(h, at, off, lazy)

    def _acceptance_formula(self, num_sets, off):
        parts = self.run(_FORMULA_KINDS)
        tok = self.toks[self.i]
        if tok[0] == "error":             # it comes first in the text
            self.fail(tok, "")
        try:
            return parse_acceptance(" ".join(map(str, parts)),
                                    max_colors=num_sets)
        except AcceptanceParseError as exc:
            raise self.error("bad acceptance condition: %s" % exc,
                             off) from exc

    def _label(self, text, offset):
        try:
            return self.aut.store.parse_label(text)
        except LabelParseError as exc:
            raise self.error("bad label: %s" % exc, offset) from exc

    def _new_states(self, idx, offset):
        """Make the states up to `idx`, which is not below the count so
        far, and return the new count."""
        if self.declared is not None:
            raise self.error("state %d not below the declared count %d"
                             % (idx, self.declared), offset)
        if idx >= MAX_STATES:
            raise self.error("state %d not below the limit of %d states"
                             % (idx, MAX_STATES), offset)
        self.aut.new_states(idx + 1 - self.count)
        self.count = idx + 1
        return self.count

    def _color_bits(self, digits, offset):
        """The bits of the colors written `digits` at `offset`."""
        bits = 0
        for d in _INT_RE.finditer(digits):
            c = self.integer(d.group(), offset + d.start())
            if c >= self.num_sets:
                raise self.error("color %d not below the declared count %d"
                                 % (c, self.num_sets), offset + d.start())
            bits |= 1 << c
        return bits

    def _walk_items(self, items, edges):
        """Read the items that `items`, an iterator of _ITEM_RE matches,
        yields, and append each edge to `edges` as (src, destination,
        guard, color bits): src is the state of the last State: line
        (None, no state yet).  Returns (match, groups, src) at the first
        item that is neither a whole edge nor a whole State: line."""
        labels, color_bits, count = self.labels, self.color_bits, self.count
        names, state_bits = self.names, self.state_bits
        add = edges.append
        src = None
        label, bits = None, 0         # what the State: line gives its edges
        for m in items:
            g = m.groups()
            (elabel, dst, more, amp, colors, closed, slabel, sidx, name,
             scolors, sclosed, _) = g
            if dst is None:
                if sidx is None:
                    return m, g, src
                if len(edges) >= _EDGE_BATCH:         # a State: line
                    self.aut.new_edges(edges)
                    edges.clear()
                label = None
                if slabel is not None:
                    label = self._label(slabel, m.start(7))
                try:
                    src = int(sidx)
                except ValueError:
                    src = self.integer(sidx, m.start(8))
                if src >= count:
                    count = self._new_states(src, m.start())
                if src in names:
                    raise self.error("duplicate State: %d" % src, m.start())
                names[src] = name
                bits = 0
                if scolors is not None:
                    bits = state_bits.get(scolors)
                    if bits is None:
                        bits = state_bits[scolors] = self._color_bits(
                            scolors, m.start(10))
                    if not sclosed:
                        self.fail(_token(m.string, m.end(10)),
                                  "expected a color index")
                continue
            guard = labels.get(elabel)
            if guard is None:                  # not a label read before
                if src is None:
                    if elabel is None:
                        self.integer(dst, m.start(2))  # a lexing error first
                    raise self.error("edge before any State:", m.start())
                if elabel is not None:
                    guard = labels[elabel] = self._label(elabel, m.start(1))
                elif label is None:
                    self.integer(dst, m.start(2))
                    raise self.error("implicit labels are not supported",
                                     m.start())
                else:
                    guard = label
            try:
                d = int(dst)
            except ValueError:
                d = self.integer(dst, m.start(2))
            if d >= count:
                count = self._new_states(d, m.start())
            if more or amp is not None:
                if more:
                    members = [d]
                    at_more = m.start(3)
                    for x in _INT_RE.finditer(more):
                        d = self.integer(x.group(), at_more + x.start())
                        if d >= count:
                            count = self._new_states(d, m.start())
                        members.append(d)
                    d = self.aut.new_univ_dest_group(members)
                if amp is not None:
                    self.fail(_token(m.string, m.end(4)),
                              "expected a destination state")
            if colors is None:
                add((src, d, guard, bits))
                continue
            c = color_bits.get(colors)
            if c is None:             # the first edge with these colors
                if self.state_acc:
                    raise self.error("edge colors under state-acc",
                                     m.start(5) - 1)
                c = color_bits[colors] = self._color_bits(colors, m.start(5))
            if not closed:
                self.fail(_token(m.string, m.end(5)),
                          "expected a color index")
            add((src, d, guard, c | bits))

    def _walk(self, found, src, cols):
        """Append the edges of `found`, _LINE_RE's tuples of whole lines,
        to `cols`, the columns extend_edges takes, each from the last
        State: line's state or `src`; returns that state.  ValueError at
        a line the walker reads otherwise or rejects: a bad label, color
        or number, a state not below the declared count, a State: line
        repeated."""
        labels, color_bits, names = self.labels, self.color_bits, self.names
        declared, aut = self.declared, self.aut
        parse, shared = aut.store.parse_label, aut.shared_colors
        add_src, add_dst, add_cond, add_acc = [col.append for col in cols]
        for label, dst, colors, state, _ in found:
            if not dst:                               # a State: line
                src = int(state)
                if src >= declared or src in names:
                    raise ValueError(state)
                names[src] = None
                continue
            guard = labels.get(label)
            if guard is None:
                guard = labels[label] = parse(label)
            d = int(dst)
            if d >= declared:
                raise ValueError(dst)
            acc = 0
            if colors:
                acc = color_bits.get(colors)
                if acc is None:
                    acc = color_bits[colors] = shared(
                        self._color_bits(colors, 0))
            add_src(src)
            add_dst(d)
            add_cond(guard)
            add_acc(acc)
        return src

    def _plain_read(self):
        """Read a body as print_hoa writes it into self.aut, a chunk of
        lines at a time, and return the offset after --END--.  None where
        a line is not one _walk takes, or the first line is an edge:
        self.aut is then a new automaton with the declared states and no
        edge, for the walker to read the body from its start, and the
        guards interned so far are those it interns first, in order."""
        text, pos = self.text, self.end
        stop = text.find("--END--", pos)
        if self.declared is None or self.state_acc or stop < 0 or \
                not text.startswith("\n", pos):
            return None
        aut = self.aut
        src = None                    # no State: line yet
        start = pos + 1
        try:
            while start < stop:
                end = text.find("\n", start + _CHUNK, stop) + 1 or stop
                found = _LINE_RE.findall(text, start, end)
                if found[-1][4] or src is None and found[0][1]:
                    raise ValueError(start)
                cols = [], [], [], []
                src = self._walk(found, src, cols)
                aut.extend_edges(*cols)
                start = end
        except ValueError:
            self.names.clear()
            self.color_bits.clear()
            self.aut = Automaton(aut.aps, aut.store)
            self.aut.new_states(self.declared)
            return None
        return stop + len("--END--")

    def _plain_body(self, h):
        """The offset after --END-- when the body is plain, else None:
        as print_hoa writes it, one item a line: State: lines, a first
        one first and each index once, and edges with a label in
        print_label's form over the APs, a destination below the declared
        count and colors below theirs.  self.spans keeps each state's
        edges as text, which _walk reads without an error."""
        declared = self.declared
        if not declared or self.state_acc or "weak" in h["properties"]:
            return None
        top = str(declared - 1)       # the highest state index
        text, pos = self.text, self.end
        stop = text.find("--END--", pos)
        if stop < 0 or not text.startswith("\nState: ", pos) or \
                _not_plain_re(len(self.aut.aps), len(top)).search(
                    text, pos, stop):
            return None
        # each state's edges, by its index; no number in a plain line has
        # more digits than top, so of the destinations, only those that
        # may still be above it are read
        parts = _STATE_LINE_RE.split(text[pos:stop])
        spans = dict(zip(map(int, parts[1::2]), parts[2::2]))
        high = re.compile(r"\] ([%s-9][0-9]{%d})" % (top[0], len(top) - 1)) \
            .findall(text, pos, stop)
        if len(spans) != len(parts) // 2 or max(spans) >= declared \
                or max(map(int, high), default=0) >= declared:
            return None
        try:
            colors = {c: self._color_bits(c, 0)
                      for c in set(_COLORS_RE.findall(text, pos, stop))}
        except HoaParseError:
            return None
        self.spans, self.color_bits = spans, colors
        return stop + len("--END--")

    def _walk_body(self):
        """Read the body into self.aut and return the offset after
        --END--, or raise the error where _walk_items stopped."""
        text = self.text
        edges = []                    # (src, dst, guard, color bits)
        m, g, src = self._walk_items(_ITEM_RE.finditer(
            text, _BLANKS_RE.match(text, self.end).end()), edges)
        label, slabel, marker = g[0], g[6], g[11]
        if marker == "--END--":
            self.aut.new_edges(edges)
            return m.end(12)
        if marker is not None:
            raise self.error("aborted automaton", m.start())
        if label is not None:                  # no destination
            if src is None:
                raise self.error("edge before any State:", m.start())
            self._label(label, m.start(1))
            self.fail(_token(text, m.end(1) + 1),
                      "expected a destination state")
        if text.startswith("State:", m.start()):  # no index
            after = m.start() + 6
            if slabel is not None:
                self._label(slabel, m.start(7))
                after = m.end(7) + 1
            self.fail(_token(text, after), "expected a state index")
        tok = _token(text, m.start())          # no item
        if tok[0] == "eof":
            raise self.error("missing --END--", tok[2])
        if src is None and tok[0] != "error":
            raise self.error("edge before any State:", tok[2])
        self.fail(tok, "expected an edge or --END--")

    def _parse_body(self, h, at, body_at, lazy):
        """Read the body: with `lazy` a plain one is deferred (see
        _plain_body), else _plain_read reads print_hoa's form and
        _walk_body any other, or one _plain_read gives up on."""
        num_sets = self.num_sets = h["num_sets"]
        if num_sets is None:
            raise self.error("missing Acceptance: header", body_at)
        aut = self.aut = Automaton(h["aps"] if h["aps"] is not None else [])
        self.labels = {}              # edge labels as written -> guards
        declared = self.declared = h["states"]
        if declared is not None:
            aut.new_states(declared)
        self.count = aut.num_states
        self.color_bits = {}          # edge colors as written -> their bits
        self.state_bits = {}          # State: colors as written -> their bits
        self.names = {}               # each State: index -> its name or None
        # print_hoa writes the colors of a state-acc automaton on its
        # states, so its edges may not carry colors of their own
        self.state_acc = "state-acc" in h["properties"]
        end = self._plain_body(h) if lazy else None
        plain = end is not None
        if not plain:
            end = self._plain_read() or self._walk_body()
            aut = self.aut

        # initial designator
        if h["start"] is not None:
            for s in h["start"]:
                if s >= self.count:
                    self._new_states(s, at["Start"])
            if len(h["start"]) == 1:
                aut.set_init(h["start"][0])
            else:
                aut.set_init(aut.new_univ_dest_group(h["start"]))

        if h["players"] is not None and len(h["players"]) != aut.num_states:
            raise self.error(
                "spot-state-player lists %d entries for %d states"
                % (len(h["players"]), aut.num_states),
                at["spot-state-player"])
        if h["controllable"] is not None:
            for ap in h["controllable"]:
                if ap >= len(aut.aps):
                    raise self.error(
                        "controllable-AP index %d out of range" % ap,
                        at["controllable-AP"])

        aut.num_sets = h["num_sets"]
        aut.acceptance = h["acceptance"]
        if h["name"] is not None:
            aut.set_named_prop("automaton-name", h["name"])
        names = {s: _ESCAPE_RE.sub(r"\1", name) if "\\" in name else name
                 for s, name in self.names.items() if name is not None}
        if names:
            aut.set_named_prop(
                "state-names",
                [names.get(s, "") for s in range(aut.num_states)])
        if h["players"] is not None:
            aut.set_named_prop("state-player", list(h["players"]))
        if h["controllable"] is not None:
            aut.set_named_prop("synthesis-outputs", list(h["controllable"]))

        aut.reset_flags()
        toks = h["properties"]
        if "state-acc" in toks:
            aut.set_flag("state_acc", YES)
        elif "trans-acc" in toks or "!state-acc" in toks:
            aut.set_flag("state_acc", NO)
        elif self.state_bits and not self.color_bits:
            aut.set_flag("state_acc", YES)
        for tok in toks:
            neg = tok.startswith("!")
            flag = _TOKEN_TO_FLAG.get(tok[1:] if neg else tok)
            if flag is not None:
                aut.set_flag(flag, NO if neg else YES)
        return LazyAutomaton(aut, self) if plain else aut, end


def parse_hoa(text):
    """Parse one HOA automaton; trailing input is an error."""
    text = _blank_comments(text)
    toks, end = _lex(text, 0)
    p = _Parser(text, toks, end)
    aut, end = p.parse_automaton()
    tok = _token(text, end)
    if tok[0] != "eof":
        p.fail(tok, "trailing input after --END--")
    return aut


def _parse_stream(text, lazy):
    out = []
    pos = 0
    text = _blank_comments(text)
    while _BLANKS_RE.match(text, pos).end() < len(text):
        toks, pos = _lex(text, pos)
        aut, pos = _Parser(text, toks, pos).parse_automaton(lazy)
        out.append(aut)
    return out


def parse_hoa_stream(text):
    """Parse a stream of back-to-back HOA automata."""
    return _parse_stream(text, False)


def parse_hoa_stream_lazy(text):
    """parse_hoa_stream, for a product query: each automaton with a
    plain body (see _Parser._plain_body) comes back as a LazyAutomaton,
    whose edges are parsed per state when the search reaches it.  The
    outcome, errors included, is parse_hoa_stream's."""
    return _parse_stream(text, True)


class LazyAutomaton:
    """An automaton read from a plain HOA body whose edges are parsed
    one state at a time, on demand.

    It shows what a product reads of an Automaton: aps, store,
    num_states, init, num_sets, acceptance, flags, get_flag and
    has_universal_branches.  edges_of(s) parses state s's edges as
    (s, destination, guard, color bits), in order, and colors is the
    union of every edge's colors, taken from the distinct color texts.
    """

    def __init__(self, shell, parser):
        # shell: the automaton with the header's states and no edge
        self.aps, self.store = shell.aps, shell.store
        self.num_states, self.init = shell.num_states, shell.init
        self.num_sets, self.acceptance = shell.num_sets, shell.acceptance
        self.flags, self.get_flag = shell.flags, shell.get_flag
        self.has_universal_branches = shell.has_universal_branches
        self.colors = functools.reduce(int.__or__,
                                       parser.color_bits.values(), 0)
        self._parser = parser

    def edges_of(self, s):
        span = self._parser.spans.get(s)
        if span is None:
            return []
        cols = [], [], [], []
        self._parser._walk(_LINE_RE.findall(span), s, cols)
        return list(zip(*cols))


# ---------------------------------------------------------------------------
# Printing.

def _quote(s, tail=""):
    """`s` as an HOA or DOT string, with `tail` added unescaped."""
    return '"%s%s"' % (s.replace("\\", "\\\\").replace('"', '\\"'), tail)


def _word_str(aut, word):
    if word >= 0:
        return str(word)
    return "&".join(str(m) for m in aut.group_members(word))


def _colors_str(bits):
    return "{%s}" % " ".join(map(str, colors_of(bits)))


def _state_acc_of(aut, state, mask):
    """The colors all of a state's out-edges share, for state-based
    output, within `mask`: the colors below the declared count, as the
    ones above it are inert."""
    acc = None
    for i in aut.out_indices(state):
        bits = aut.edge_acc[i] & mask
        if acc is None:
            acc = bits
        elif bits != acc:
            raise ValueError(
                "state_acc is set but state %d has differing edge colors"
                % state)
    return acc


def print_hoa(aut):
    """Serialize to HOA v1 text; output is deterministic byte-for-byte."""
    lines = ["HOA: v1"]
    name = aut.get_named_prop("automaton-name", str)
    if name is not None:
        lines.append("name: " + _quote(name))
    lines.append("States: %d" % aut.num_states)
    if aut.num_states:
        lines.append("Start: " + _word_str(aut, aut.init))
    lines.append("AP: %d%s" % (len(aut.aps),
                               "".join(" " + _quote(a) for a in aut.aps)))
    an = acc_name(aut.acceptance, aut.num_sets)
    if an is not None:
        lines.append("acc-name: " + an)
    lines.append("Acceptance: %d %s" % (aut.num_sets, aut.acceptance))
    props = ["trans-labels", "explicit-labels"]
    sa = aut.get_flag("state_acc")
    if sa is YES:
        props.append("state-acc")
    elif sa is NO:
        props.append("trans-acc")
    if aut.has_universal_branches():
        props.append("univ-branch")
    for flag, token in _FLAG_TOKENS:
        v = aut.get_flag(flag)
        if v is YES:
            props.append(token)
        elif v is NO:
            props.append("!" + token)
    lines.append("properties: " + " ".join(props))
    players = aut.get_named_prop("state-player", list)
    if players is not None:
        lines.append("spot-state-player: "
                     + " ".join(str(int(p)) for p in players))
    outputs = aut.get_named_prop("synthesis-outputs", list)
    if outputs is not None:
        lines.append("controllable-AP: " + " ".join(str(i) for i in outputs))
    lines.append("--BODY--")
    names = aut.get_named_prop("state-names", list)
    state_based = sa is YES
    print_label = aut.store.print_label
    first, nxt = aut.first_edges, aut.edge_next
    dsts, conds, accs = aut.edge_dst, aut.edge_cond, aut.edge_acc
    labels = {}                       # guard id -> "[label] "
    groups = {}                       # group word -> its text
    colors = {}                       # color bits -> " {...}", or ""
    mask = (1 << aut.num_sets) - 1    # colors above it are inert
    for s in range(aut.num_states):
        head = "State: %d" % s
        if names is not None and s < len(names) and names[s]:
            head += " " + _quote(names[s])
        if state_based:
            acc = _state_acc_of(aut, s, mask)
            if acc:
                head += " " + _colors_str(acc)
        lines.append(head)
        i = first[s]
        while i:
            dst = dsts[i]
            if dst < 0:
                text = groups.get(dst)
                if text is None:
                    text = groups[dst] = _word_str(aut, dst)
                dst = text
            cond = conds[i]
            part = labels.get(cond)
            if part is None:
                part = labels[cond] = "[%s] " % print_label(cond)
            part += str(dst)
            bits = accs[i]
            if bits and not state_based:
                text = colors.get(bits)
                if text is None:
                    text = colors[bits] = (" " + _colors_str(bits & mask)
                                           if bits & mask else "")
                part += text
            lines.append(part)
            i = nxt[i]
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graphviz output.

_PALETTE = ("red", "green", "blue", "orange", "purple",
            "brown", "cyan", "magenta")


def _accepting_sink(aut, state):
    edges = list(aut.out_indices(state))
    if not edges:
        return False
    union = 0
    acc = aut.edge_acc[edges[0]]
    for i in edges:
        if aut.edge_dst[i] != state or aut.edge_acc[i] != acc:
            return False
        union |= aut.store.bits_of(aut.edge_cond[i])
    return union == aut.store.full and eval_acceptance(aut.acceptance, acc)


def print_dot(aut, hide_sinks=False):
    """Graphviz rendering.

    Understands the usual annotations: state-names, state-player (player 1
    drawn as diamonds), state-winner (green/red borders), strategy (bold
    green edges), highlight-states and highlight-edges (palette colors).
    With hide_sinks, a state whose true-labeled self-loops accept
    unconditionally is dropped and edges into it end in arrows to nowhere.
    """
    names = aut.get_named_prop("state-names", list) or ()
    players = aut.get_named_prop("state-player", list) or ()
    winners = aut.get_named_prop("state-winner", list) or ()
    strategy = aut.get_named_prop("strategy", list) or ()
    hi_states = aut.get_named_prop("highlight-states", dict) or {}
    hi_edges = aut.get_named_prop("highlight-edges", dict) or {}
    title = aut.get_named_prop("automaton-name", str)
    state_based = aut.get_flag("state_acc") is YES
    mask = (1 << aut.num_sets) - 1    # colors above it are inert

    hidden = set()
    if hide_sinks and aut.num_states:
        hidden = {s for s in range(aut.num_states)
                  if _accepting_sink(aut, s)} - set(aut.univ_dests(aut.init))

    out = ["digraph automaton {", "  rankdir=LR"]
    if title:
        out.append("  label=" + _quote(title))
        out.append("  labelloc=t")
    out.append('  I [label="", style=invis, width=0]')

    def attrs(label, acc, color, *more):
        # acc: the color bits shown under the label, or false for none
        shown = "\\n" + _colors_str(acc) if acc else ""
        return ", ".join(["label=" + _quote(label, shown), *more]
                         + (["color=" + color, "penwidth=3"] if color else []))

    groups_used = set()
    holes = itertools.count()
    extra = []                        # group and hole nodes met since flushed

    def dest_ref(word):
        # returns the dot node to point at, materializing group nodes
        if word >= 0:
            if word in hidden:
                h = "h%d" % next(holes)
                extra.append('  %s [label="", style=invis, width=0]' % h)
                return h
            return str(word)
        off = ~word
        gname = "u%d" % off
        if off not in groups_used:
            groups_used.add(off)
            extra.append("  %s [shape=point]" % gname)
            for m in aut.group_members(word):
                extra.append("  %s -> %s" % (gname, dest_ref(m)))
        return gname

    init_ref = dest_ref(aut.init) if aut.num_states else None

    for s in range(aut.num_states):
        if s in hidden:
            continue
        label = names[s] if s < len(names) and names[s] else str(s)
        acc = state_based and _state_acc_of(aut, s, mask)
        color = None
        if s in hi_states:
            color = _PALETTE[hi_states[s] % len(_PALETTE)]
        elif s < len(winners):
            color = "green" if winners[s] else "red"
        shape = "diamond" if s < len(players) and players[s] else "circle"
        out.append("  %d [%s]" % (s, attrs(label, acc, color,
                                           "shape=" + shape)))

    out += extra
    extra.clear()
    if init_ref is not None:
        out.append("  I -> %s" % init_ref)

    for s in range(aut.num_states):
        if s in hidden:
            continue
        for idx in aut.out_indices(s):
            color = None
            if idx in hi_edges:
                color = _PALETTE[hi_edges[idx] % len(_PALETTE)]
            elif s < len(strategy) and strategy[s] == idx:
                color = "green"
            out.append("  %d -> %s [%s]" % (
                s, dest_ref(aut.edge_dst[idx]),
                attrs(aut.store.print_label(aut.edge_cond[idx]),
                      not state_based and aut.edge_acc[idx] & mask, color)))
            out += extra
            extra.clear()
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Statistics.

def stats(aut, include_sccs=False):
    """Shape summary as a plain dict."""
    out = {
        "states": aut.num_states,
        "edges": aut.num_edges,
        "aps": len(aut.aps),
        "colors": aut.num_sets,
        "acceptance": str(aut.acceptance),
    }
    an = acc_name(aut.acceptance, aut.num_sets)
    if an is not None:
        out["acc-name"] = an
    flags = {name: aut.flags[name].value for name in FLAG_NAMES
             if aut.flags[name] is not MAYBE}
    if flags:
        out["flags"] = flags
    if include_sccs:
        from . import algorithms
        out["sccs"] = len(algorithms.scc_info(aut).members)
    return out
