"""HOA parsing and printing, DOT output, stats."""

import hashlib
import os
import random
import tracemalloc

import pytest

from elaut import hoa
from elaut.acceptance import Inf, TRUE
from elaut.algorithms import is_complete, is_weak, random_automaton
from elaut.graph import MAYBE, NO, YES, Automaton
from elaut.hoa import (_COMMENT_RE, _TOKEN_RE, MAX_COLORS, MAX_STATES,
                       HoaParseError, _blank_comments, parse_hoa,
                       parse_hoa_stream, print_dot, print_hoa, stats)
from elaut.guards import FALSE_GUARD

import reader_check
from oracle_helpers import reorder_out_lists

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_names():
    return sorted(f[:-len(".in.hoa")] for f in os.listdir(GOLDEN)
                  if f.endswith(".in.hoa"))


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def same_tables(a, b):
    """Structural isomorphism under identical state numbering."""
    if a.num_states != b.num_states or a.aps != b.aps:
        return False
    if a.num_sets != b.num_sets or a.acceptance != b.acceptance:
        return False
    if list(a.univ_dests(a.init)) != list(b.univ_dests(b.init)):
        return False
    for s in range(a.num_states):
        ea = [(a.store.bits_of(e.cond), sorted(a.univ_dests(e.dst)),
               e.acc) for e in a.out(s)]
        eb = [(b.store.bits_of(e.cond), sorted(b.univ_dests(e.dst)),
               e.acc) for e in b.out(s)]
        if ea != eb:
            return False
    return True


@pytest.mark.parametrize("name", golden_names())
def test_golden_print_bytes(name):
    src = read(os.path.join(GOLDEN, name + ".in.hoa"))
    expect = read(os.path.join(GOLDEN, name + ".out.hoa"))
    assert print_hoa(parse_hoa(src)) == expect


@pytest.mark.parametrize("name", golden_names())
def test_golden_fixpoint(name):
    src = read(os.path.join(GOLDEN, name + ".in.hoa"))
    once = parse_hoa(src)
    text1 = print_hoa(once)
    twice = parse_hoa(text1)
    assert print_hoa(twice) == text1
    assert same_tables(once, twice)


def test_parse_basic_shape():
    aut = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 1 {0}
State: 1
[!0] 0
--END--
""")
    assert aut.num_states == 2
    assert aut.init == 0
    assert aut.aps == ["a"]
    assert aut.num_sets == 1
    assert aut.acceptance == Inf(0)
    e = next(iter(aut.out(0)))
    assert e.dst == 1 and e.acc == 1


def test_parse_universal_start_and_edges():
    aut = parse_hoa("""HOA: v1
States: 3
Start: 0&2
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 1&2
State: 1
[t] 1
State: 2
[t] 2 {0}
--END--
""")
    assert sorted(aut.univ_dests(aut.init)) == [0, 2]
    e = next(iter(aut.out(0)))
    assert e.dst < 0
    assert sorted(aut.univ_dests(e.dst)) == [1, 2]
    assert aut.has_universal_branches()


def test_state_label_inherited_by_edges():
    aut = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 1 "a"
Acceptance: 0 t
--BODY--
State: [0] 0
1
1
State: [t] 1
0
--END--
""")
    edges = list(aut.out(0))
    assert len(edges) == 2
    assert all(aut.store.print_label(e.cond) == "0" for e in edges)


def test_state_braces_copy_to_edges():
    aut = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[0] 0
[!0] 0
--END--
""")
    assert all(e.acc == 1 for e in aut.out(0))
    assert aut.get_flag("state_acc") is YES


def test_lazy_state_count():
    # no States: header; size comes from the body
    aut = parse_hoa("""HOA: v1
Start: 0
AP: 0
Acceptance: 0 t
--BODY--
State: 0
[t] 1
State: 1
[t] 0
--END--
""")
    assert aut.num_states == 2


def test_parse_stream():
    text = """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 0 t
--BODY--
State: 0
[t] 0
--END--
"""
    auts = parse_hoa_stream(text * 3)
    assert len(auts) == 3
    assert parse_hoa_stream("  \n") == []
    # comments between automata and in a later header change nothing
    commented = parse_hoa_stream(
        "/* a */" + text + "/* b\n */\n" + text.replace(
            "AP: 0", "AP: /* c */ 0 /* d */") + "/* e */" + text)
    assert [print_hoa(a) for a in commented] == [print_hoa(a) for a in auts]


def test_comments_and_strings():
    aut = parse_hoa("""HOA: v1 /* a comment /* nested */ still comment */
name: "with \\"escape\\" and backslash \\\\"
States: 1
Start: 0
AP: 1 "a b"
Acceptance: 0 t
--BODY--
State: 0 /* mid-body */
[t] 0
--END--
""")
    assert aut.get_named_prop("automaton-name", str) == \
        'with "escape" and backslash \\'
    assert aut.aps == ["a b"]


def test_properties_tokens_set_flags():
    aut = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 0 t
properties: deterministic !complete weak
--BODY--
State: 0
[t] 0
--END--
""")
    assert aut.get_flag("universal") is YES
    assert aut.get_flag("complete") is NO
    assert aut.get_flag("weak") is YES
    assert aut.get_flag("terminal") is MAYBE


def test_game_headers():
    aut = parse_hoa("""HOA: v1
States: 2
Start: 0
AP: 2 "i" "o"
Acceptance: 0 t
spot-state-player: 0 1
controllable-AP: 1
--BODY--
State: 0
[0] 1
[!0] 1
State: 1
[1] 0
--END--
""")
    assert aut.get_named_prop("state-player", list) == [0, 1]
    assert aut.get_named_prop("synthesis-outputs", list) == [1]


def parse_err(text):
    with pytest.raises(HoaParseError) as err:
        parse_hoa(text)
    return err.value


def test_error_positions():
    e = parse_err("HOA: v2\n")
    assert e.line == 1
    e = parse_err("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 1 Inf(1)
--BODY--
State: 0
--END--
""")
    assert e.line == 5  # color 1 out of range for 1 set

    e = parse_err("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 0 t
--BODY--
State: 0
[t] 4
--END--
""")
    assert e.line == 8  # destination out of range


@pytest.mark.parametrize("text, message, line, col", [
    ("HOA: v1\nStates: 300000000\n",
     "300000000 states exceed the limit of 1048576", 2, 9),
    ("HOA: v1\nStates: 1048577\n",
     "1048577 states exceed the limit of 1048576", 2, 9),
    ("HOA: v1\nAcceptance: 0 t\n--BODY--\nState: 300000000\n--END--\n",
     "state 300000000 not below the limit of 1048576 states", 4, 1),
    ("HOA: v1\nAcceptance: 0 t\n--BODY--\nState: 0\n[t] 1048576\n",
     "state 1048576 not below the limit of 1048576 states", 5, 1),
    ("HOA: v1\nStart: 1048576\nAcceptance: 0 t\n--BODY--\n--END--\n",
     "state 1048576 not below the limit of 1048576 states", 2, 1),
])
def test_state_count_limit_allocates_nothing(text, message, line, col):
    assert MAX_STATES == 1 << 20
    tracemalloc.start()
    try:
        e = parse_err(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e) == "%d:%d: %s" % (line, col, message)
    assert peak < 1 << 20


def test_state_count_limit_is_reachable():
    aut = parse_hoa("HOA: v1\nStates: %d\nStart: %d\nAcceptance: 0 t\n"
                    "--BODY--\n--END--\n" % (MAX_STATES, MAX_STATES - 1))
    assert aut.num_states == MAX_STATES
    assert aut.init == MAX_STATES - 1


@pytest.mark.parametrize("text, message, line, col", [
    ("HOA: v1\nAcceptance: 100000000 Inf(0)\n",
     "100000000 colors exceed the limit of 1048576", 2, 13),
    ("HOA: v1\nStates: 1\nAcceptance:   1048577 t\n",
     "1048577 colors exceed the limit of 1048576", 3, 15),
])
def test_color_count_limit_allocates_nothing(text, message, line, col):
    assert MAX_COLORS == 1 << 20
    tracemalloc.start()
    try:
        e = parse_err(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e) == "%d:%d: %s" % (line, col, message)
    assert peak < 1 << 20


def test_color_count_limit_is_reachable():
    top = MAX_COLORS - 1
    text = ("HOA: v1\nStates: 1\nStart: 0\nAP: 0\nAcceptance: %d Inf(%d)\n"
            "--BODY--\nState: 0\n[t] 0 {%d}\n--END--\n"
            % (MAX_COLORS, top, top))
    aut = parse_hoa(text)
    assert aut.num_sets == MAX_COLORS and aut.edge_acc[1] == 1 << top
    assert print_hoa(aut).endswith("[t] 0 {%d}\n--END--\n" % top)


def test_reject_unknown_uppercase_header():
    e = parse_err("""HOA: v1
States: 1
Start: 0
Weird: 12
AP: 0
Acceptance: 0 t
--BODY--
State: 0
--END--
""")
    assert "Weird" in str(e)


def test_tolerate_unknown_lowercase_header():
    aut = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
whatever: "junk" 3 4
Acceptance: 0 t
--BODY--
State: 0
[t] 0
--END--
""")
    assert aut.num_states == 1


def test_reject_second_start():
    e = parse_err("""HOA: v1
States: 2
Start: 0
Start: 1
AP: 0
Acceptance: 0 t
--BODY--
State: 0
State: 1
--END--
""")
    assert "Start" in str(e)


def test_reject_duplicate_ap():
    e = parse_err("""HOA: v1
States: 1
Start: 0
AP: 1 "a"
AP: 1 "b"
Acceptance: 0 t
--BODY--
State: 0
--END--
""")
    assert "AP" in str(e)


def test_reject_missing_acceptance():
    parse_err("""HOA: v1
States: 1
Start: 0
AP: 0
--BODY--
State: 0
--END--
""")


def test_reject_unlabeled_edge():
    parse_err("""HOA: v1
States: 2
Start: 0
AP: 1 "a"
Acceptance: 0 t
--BODY--
State: 0
1
--END--
""")


def test_reject_bad_state_player_length():
    parse_err("""HOA: v1
States: 2
Start: 0
AP: 0
Acceptance: 0 t
spot-state-player: 0
--BODY--
State: 0
State: 1
--END--
""")


def test_reject_controllable_out_of_range():
    parse_err("""HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 0 t
controllable-AP: 3
--BODY--
State: 0
--END--
""")


def test_abort_token():
    with pytest.raises(HoaParseError):
        parse_hoa("""HOA: v1
States: 1
--ABORT--
""")


def test_trailing_garbage():
    with pytest.raises(HoaParseError):
        parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 0 t
--BODY--
State: 0
[t] 0
--END--
leftover
""")


def test_state_acc_uniformity_enforced_on_print():
    aut = parse_hoa("""HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 0 {0}
[!0] 0
--END--
""")
    aut.set_flag("state_acc", YES)
    with pytest.raises(ValueError):
        print_hoa(aut)


def test_colors_above_the_declared_count_are_left_out_on_print():
    # they are inert, as eval_acceptance has them, and the parser
    # rejects them, so the printer leaves them out
    aut = Automaton(["a"])
    aut.new_states(1)
    aut.set_acceptance(1, Inf(0))
    aut.new_edge(0, 0, 1, [0, 2])
    aut.new_edge(0, 0, 1, [2])
    text = print_hoa(aut)
    assert text.endswith("State: 0\n[t] 0 {0}\n[t] 0\n--END--\n")
    assert print_hoa(parse_hoa(text)) == text
    # state-based: the states' shared colors are compared without them
    aut = Automaton(["a"])
    aut.new_states(1)
    aut.set_acceptance(1, Inf(0))
    aut.new_edge(0, 0, 1, [0, 2])
    aut.new_edge(0, 0, 1, [0, 3])
    aut.set_flag("state_acc", YES)
    text = print_hoa(aut)
    assert text.endswith("State: 0 {0}\n[t] 0\n[t] 0\n--END--\n")
    assert print_hoa(parse_hoa(text)) == text
    assert "{0 2}" not in print_dot(aut)


def test_dot_output():
    aut = parse_hoa(read(os.path.join(GOLDEN, "game_safety.in.hoa")))
    dot = print_dot(aut)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    assert "shape=diamond" in dot  # player-1 states
    assert "->" in dot
    # names are escaped, backslash first, before DOT's own "\n" and colors
    aut = parse_hoa('HOA: v1\nname: "t\\\\"\nStates: 2\nStart: 0\nAP: 0\n'
                    'Acceptance: 1 Inf(0)\nproperties: state-acc\n--BODY--\n'
                    'State: 0 "a\\\\" {0}\n[t] 1\nState: 1 "q\\""\n[t] 1\n'
                    '--END--\n')
    dot = print_dot(aut)
    assert '  label="t\\\\"\n' in dot
    assert '  0 [label="a\\\\\\n{0}", shape=circle]\n' in dot
    assert '  1 [label="q\\"", shape=circle]\n' in dot


def test_dot_universal_groups():
    aut = parse_hoa(read(os.path.join(GOLDEN, "alternating.in.hoa")))
    dot = print_dot(aut)
    assert "point" in dot


def test_stats():
    aut = parse_hoa(read(os.path.join(GOLDEN, "buchi_basic.in.hoa")))
    blob = stats(aut, include_sccs=True)
    assert blob["states"] == 2
    assert blob["edges"] == 4
    assert blob["aps"] == 2
    assert blob["colors"] == 1
    assert blob["acceptance"] == "Inf(0)"
    assert blob["acc-name"] == "Buchi"
    assert blob["sccs"] == 1


# state 1 is an accepting sink; state 2 loops accepting, but not on !a
_SINK_HOA = ('HOA: v1\nStates: 3\nStart: 0\nAP: 1 "a"\n'
             'Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[0] 1\n[!0] 2\n'
             'State: 1\n[t] 1 {0}\nState: 2\n[0] 2 {0}\n[!0] 0\n--END--\n')


def test_dot_hides_an_accepting_sink():
    assert print_dot(parse_hoa(_SINK_HOA), hide_sinks=True) == (
        'digraph automaton {\n  rankdir=LR\n'
        '  I [label="", style=invis, width=0]\n'
        '  0 [label="0", shape=circle]\n  2 [label="2", shape=circle]\n'
        '  I -> 0\n  0 -> h0 [label="0"]\n'
        '  h0 [label="", style=invis, width=0]\n  0 -> 2 [label="!0"]\n'
        '  2 -> 2 [label="0\\n{0}"]\n  2 -> 0 [label="!0"]\n}\n')


def test_dot_highlight_palettes_wrap():
    aut = parse_hoa(_SINK_HOA)
    aut.set_named_prop("highlight-states", {0: 1, 2: 9})
    aut.set_named_prop("highlight-edges", {1: 4, 4: 10})
    assert print_dot(aut) == (
        'digraph automaton {\n  rankdir=LR\n'
        '  I [label="", style=invis, width=0]\n'
        '  0 [label="0", shape=circle, color=green, penwidth=3]\n'
        '  1 [label="1", shape=circle]\n'
        '  2 [label="2", shape=circle, color=green, penwidth=3]\n'
        '  I -> 0\n  0 -> 1 [label="0", color=purple, penwidth=3]\n'
        '  0 -> 2 [label="!0"]\n  1 -> 1 [label="t\\n{0}"]\n'
        '  2 -> 2 [label="0\\n{0}", color=blue, penwidth=3]\n'
        '  2 -> 0 [label="!0"]\n}\n')


def test_trans_acc_negated_properties_and_tool_round_trip():
    aut = parse_hoa('HOA: v1\ntool: "elaut" "0.1"\nStates: 1\nStart: 0\n'
                    'AP: 1 "a"\nAcceptance: 1 Inf(0)\nproperties: '
                    'trans-labels explicit-labels trans-acc !complete !weak\n'
                    '--BODY--\nState: 0\n[0] 0 {0}\n--END--\n')
    text = ('HOA: v1\nStates: 1\nStart: 0\nAP: 1 "a"\nacc-name: Buchi\n'
            'Acceptance: 1 Inf(0)\nproperties: trans-labels explicit-labels '
            'trans-acc !complete !weak\n--BODY--\nState: 0\n[0] 0 {0}\n'
            '--END--\n')
    assert print_hoa(aut) == text
    assert print_hoa(parse_hoa(text)) == text
    assert stats(aut) == {
        "states": 1, "edges": 1, "aps": 1, "colors": 1,
        "acceptance": "Inf(0)", "acc-name": "Buchi",
        "flags": {"state_acc": "no", "complete": "no", "weak": "no"}}


def test_stats_lists_the_flags_computed():
    aut = parse_hoa(_SINK_HOA)
    assert "flags" not in stats(aut)
    assert is_complete(aut) and not is_weak(aut)
    assert stats(aut) == {
        "states": 3, "edges": 5, "aps": 1, "colors": 1,
        "acceptance": "Inf(0)", "acc-name": "Buchi",
        "flags": {"complete": "yes", "weak": "no"}}


_BODY_HEAD = ('HOA: v1\nStates: 2\nStart: 0\nAP: 2 "a" "b"\n'
              'Acceptance: 1 Inf(0)\n--BODY--\n')


@pytest.mark.parametrize("text,message,line,col", [
    ('HOA: v1\nname: "abc', "unterminated string", 2, 7),
    ('HOA: v1\nname: "abc\\', "unterminated string", 2, 7),
    ("HOA: v1\nStates: 1 /* never\nclosed", "unterminated comment", 2, 11),
    (_BODY_HEAD + "State: 0\n[0 & 1", "missing ']'", 8, 2),
    ("HOA: v1 /* a\n /* b */ c\n */ States: 1 @",
     "unexpected character '@'", 3, 15),
    ("HOA: v1\nStates: 1\n--BOD--", "stray '--'", 3, 1),
    ("HOA: v1\n\tStates:\t1\t$", "unexpected character '$'", 2, 12),
    ("HOA: v1\r\nStates: 2\r\nStart: 0\r\n  %",
     "unexpected character '%'", 4, 3),
    (_BODY_HEAD.replace("\n", "\r\n") + "State: 0\r\n[0] 3\r\n--END--\r\n",
     "state 3 not below the declared count 2", 8, 1),
    ('HOA: v1\nname: "a\\"b\nc" ~', "unexpected character '~'", 3, 4),
    (_BODY_HEAD + "State: 0\n[0] 1\n[0 & & 1] 0\nState: 1\n[t] 1\n--END--\n",
     "bad label: unexpected '&' in label at position 4", 9, 2),
    (_BODY_HEAD + "State: 0\n[0]  1\n  [!2] 0\n--END--\n",
     "bad label: AP index 2 out of range at position 1", 9, 4),
    (_BODY_HEAD + "State: 0\n[0] 1\n  ", "missing --END--", 9, 3),
    ("HOA: v1\nStates: 1\n  7", "expected a header", 3, 3),
    (_BODY_HEAD + "[0] 1\n--END--\n", "edge before any State:", 7, 1),
    (_BODY_HEAD + "State: 0\n[t] 0\n--END--\n\n  x",
     "trailing input after --END--", 11, 3),
    (_BODY_HEAD + "State: 0\n[t] 0 {0 1}\n--END--\n",
     "color 1 not below the declared count 1", 8, 10),
    ("HOA: v1\nStates: " + "9" * 5000, "integer of 5000 digits too large",
     2, 9),
    (_BODY_HEAD + "State: 0\n[0 | %s] 0\n--END--\n" % ("7" * 5000),
     "bad label: AP index of 5000 digits out of range at position 4", 8, 2),
])
def test_error_line_and_column(text, message, line, col):
    e = parse_err(text)
    assert (str(e), e.line, e.col) == ("%d:%d: %s" % (line, col, message),
                                       line, col)


@pytest.mark.parametrize("text,message,line,col", [
    # what is checked after the body points at the header it concerns
    ("HOA: v1\nStates: 1\nStart: 3\nAP: 0\nAcceptance: 0 t\n--BODY--\n"
     "State: 0\n--END--\n", "state 3 not below the declared count 1", 3, 1),
    ("HOA: v1\nStates: 2\nAP: 0\nAcceptance: 0 t\nspot-state-player: 0\n"
     "--BODY--\nState: 0\nState: 1\n--END--\n",
     "spot-state-player lists 1 entries for 2 states", 5, 1),
    ('HOA: v1\nStates: 1\nAP: 1 "a"\nAcceptance: 0 t\n  controllable-AP: 3\n'
     "--BODY--\nState: 0\n--END--\n",
     "controllable-AP index 3 out of range", 5, 3),
    ("HOA: v1\nStates: 1\nAP: 0\n--BODY--\nState: 0\n--END--\n",
     "missing Acceptance: header", 4, 1),
    # parses that print_hoa could not print
    (_BODY_HEAD + "State: 0 {0}\n[0] 0\n  State: 0\n[!0] 0\n--END--\n",
     "duplicate State: 0", 9, 3),
    (_BODY_HEAD.replace("--BODY--", "properties: state-acc\n--BODY--")
     + "State: 0\n[0] 0 {0}\n[!0] 0\n--END--\n",
     "edge colors under state-acc", 9, 7),
])
def test_semantic_error_line_and_column(text, message, line, col):
    e = parse_err(text)
    assert (str(e), e.line, e.col) == ("%d:%d: %s" % (line, col, message),
                                       line, col)


_MUTATION_PIECES = ("State: 0", "State: 1", "--END--", "--BODY--", "/*", "*/",
                    "{0}", "[t]", "&", "!", '"', "\\", "\r\n", "Inf(0)",
                    "properties: state-acc")
_MUTATION_CHARS = '0123456789 \n\t[]{}()&|!"/*-:\\tfAPS'


def _mutate(rng, text):
    """One to three random edits: delete a span, insert a character or a
    piece of HOA, overwrite a character, or duplicate or swap lines."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        p = rng.randrange(len(text) + 1)
        if kind == 0:
            text = text[:p] + text[p + rng.randint(1, 8):]
        elif kind == 1:
            text = text[:p] + rng.choice(_MUTATION_CHARS) + text[p:]
        elif kind == 2:
            text = text[:p] + rng.choice(_MUTATION_PIECES) + text[p:]
        elif kind == 3:
            text = text[:p] + rng.choice(_MUTATION_CHARS) + text[p + 1:]
        else:
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if kind == 4:
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def _mutant_texts():
    """10,000 mutants of the goldens, from seed 2015."""
    rng = random.Random(2015)
    sources = [read(os.path.join(GOLDEN, name + ".in.hoa"))
               for name in golden_names()]
    return [_mutate(rng, rng.choice(sources)) for _ in range(10000)]


def test_mutated_goldens_are_rejected_in_place_or_round_trip():
    parsed = 0
    h = hashlib.sha256()
    for text in _mutant_texts():
        try:
            aut = parse_hoa(text)
        except HoaParseError as e:
            lines = text.split("\n")
            assert 1 <= e.line <= len(lines), text
            assert 1 <= e.col <= len(lines[e.line - 1]) + 1, text
            h.update(repr((str(e), e.line, e.col)).encode())
            continue
        parsed += 1
        once = print_hoa(aut)
        h.update(once.encode())
        assert print_hoa(parse_hoa(once)) == once, text
    assert parsed > 500
    # every mutant's error (message, line, col) or reprint, in order
    assert h.hexdigest()[:16] == MUTANT_DIGEST


# re-recorded when acc-name came to be printed only for a class of
# exactly the declared color count: 4 of the 10,000 mutants declare
# another count, and their reprints lost the acc-name line, nothing else
MUTANT_DIGEST = "46ce2bf82406c07f"


def _comment_spans(text):
    """The comments of `text` as (start, end) offsets, found by a token
    walk with _TOKEN_RE from its start: each comment is skipped to where
    it closes, nested ones counted, and a stray character is stepped
    over.  The walk stops where lexing cannot go on: at a string, [label]
    or comment that is never closed."""
    spans = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        k = m.lastindex
        if k == 8:
            depth = 0
            for c in _COMMENT_RE.finditer(text, m.start(8)):
                depth += 1 if c.group() == "/*" else -1
                if not depth:
                    break
            else:
                return spans
            spans.append((m.start(8), c.end()))
            pos = c.end()
        elif k is None or k == 9 and text[m.start(9)] in '"[':
            return spans
        else:
            pos = m.end()


def _blanked(text, spans):
    """`text` with each span's characters but line breaks made blanks."""
    for start, end in spans:
        text = text[:start] + "".join(
            c if c == "\n" else " " for c in text[start:end]) + text[end:]
    return text


_COMMENTS = ("/**/", "/* x */", "/*\n*/", "/* a /* b\n */ c */",
             '/* " [ ] State: 9 --END-- */', "/* {0} & [t] 1 */")
# strings and labels that hold "/*" but open no comment
_DECOYS = ('"/*"', '"a\\"/* "', "[/* 0]", "[0 | /*]")


def _inserted(rng, text, pieces):
    """`text` with one to four of `pieces` put where tokens start or
    end."""
    bounds = [pos for m in _TOKEN_RE.finditer(text) if m.lastindex
              for pos in (m.end() - len(m.group().lstrip()), m.end())]
    for pos in sorted(rng.sample(bounds, rng.randint(1, 4)), reverse=True):
        text = text[:pos] + rng.choice(pieces) + text[pos:]
    return text


def test_comments_are_blanked_as_the_token_walk_finds_them():
    rng = random.Random(2015)
    sources = [read(os.path.join(GOLDEN, name + ".in.hoa"))
               for name in golden_names()]
    texts = _mutant_texts()
    for _ in range(2000):
        source = rng.choice(sources)
        text = _inserted(rng, source, _COMMENTS)
        # comments between tokens are blanks, which change no reading
        assert _outcome(text) == _outcome(source), text
        decoyed = _inserted(rng, text, _COMMENTS + _DECOYS)
        texts += [text, decoyed, _mutate(rng, decoyed)]
    for text in texts:
        assert _blank_comments(text) == \
            _blanked(text, _comment_spans(text)), text


def _outcome(text):
    """A parse's error text, or a digest of pack_edges() + print_hoa()."""
    try:
        aut = parse_hoa(text)
    except HoaParseError as e:
        return str(e)
    h = hashlib.sha256(aut.pack_edges())
    h.update(print_hoa(aut).encode())
    return h.hexdigest()[:16]


_HEAD = ('HOA: v1\nStates: 3\nStart: 0\nAP: 2 "a" "b"\n'
         'Acceptance: 2 Inf(0)&Inf(1)\n--BODY--\n')

# body forms the reader must accept or reject at the same place
BODY_FORMS = {
    "comment inside an edge":
        "State: 0\n[0] /* x */ 1 /* y */ {0} /* z */\n--END--\n",
    "comment inside a destination group":
        "State: 0\n[0] 1 /* x */ & /* y */ 2\n--END--\n",
    "comment inside colors": "State: 0\n[0] 1 {0 /* x */ 1}\n--END--\n",
    "comment inside a state line":
        'State: /* x */ [0] /* y */ 0 /* z */ "s" /* w */ {1}\n1\n--END--\n',
    "nested comment": "State: 0\n/* a /* b */ c */ [0] 1\n--END--\n",
    "multi-line comment before an error":
        "State: 0\n[0] 1 /* a\nb\n */ [1] 2\n[1] @\n--END--\n",
    "comment holding tokens":
        'State: 0\n[0] 1 /* " [ ] State: 9 --END-- */\n[1] 2\n--END--\n',
    "comment opener in a state name": 'State: 0 "a/*b"\n[0] 1\n--END--\n',
    "comment opener in a label": "State: 0\n[0 /* x */] 1\n--END--\n",
    "joined: comment right after --BODY--":
        "/* x */State: 0\n[0] 1\n--END--\n",
    "unterminated comment": "State: 0\n[0] 1 /* a /* b */\n--END--\n",
    "comment at the end": "State: 0\n[0] 1\n--END-- /* x */\n",
    "blanks around &": "State: 0\n[t] 0 & 1  &\t2\n[0] 0&1\n--END--\n",
    "newline in a group": "State: 0\n[t] 0 &\n1\n&2 {0}\n--END--\n",
    "repeated group member": "State: 0\n[t] 1 & 1 & 2 & 1\n--END--\n",
    "group of one": "State: 0\n[t] 1 & 1\n--END--\n",
    "group missing a member": "State: 0\n[t] 1 & {0}\n--END--\n",
    "group ending the body": "State: 0\n[t] 1 &",
    "implicit labels": "State: 0\n1\n--END--\n",
    "implicit label after a state label":
        "State: [0] 0\n1\n2 {0}\n1&2\nState: 1\n[!0] 0\n--END--\n",
    "unlabeled edge after a labeled one":
        "State: [0] 0\n[1] 1\n2\n--END--\n",
    "state names": 'State: 0 "zero"\n[0] 1\nState: 1 "o\\"ne" {0 1}\n'
                   '[t] 1\n--END--\n',
    "state name without index": 'State: "zero"\n[0] 1\n--END--\n',
    "state label without index": "State: [0]\n[0] 1\n--END--\n",
    "state index missing": "State:\n--END--\n",
    "CRLF and tabs":
        "State:\t0\r\n[0]\t1\t{0}\r\n\t[!0] 2 {1}\r\n--END--\r\n",
    "abort in the body": "State: 0\n[0] 1\n--ABORT--\n",
    "abort in an edge": "State: 0\n[0] --ABORT--\n",
    "missing end": "State: 0\n[0] 1\n",
    "missing end after colors": "State: 0\n[0] 1 {0}",
    "edge before State:": "[0] 1\nState: 0\n--END--\n",
    "unlabeled edge before State:": "1\nState: 0\n--END--\n",
    "identifier in the body": "State: 0\nfoo\n--END--\n",
    "header in the body": "State: 0\nStart: 1\n--END--\n",
    "state name on its own line": 'State: 0\n"x"\n--END--\n',
    "string after an edge": 'State: 0\n[0] 1\n"x"\n--END--\n',
    "stray brace": "State: 0\n}\n--END--\n",
    "stray character": "State: 0\n[0] 1 @\n--END--\n",
    "stray dashes": "State: 0\n[0] 1\n--EN--\n",
    "second body marker": "State: 0\n--BODY--\n--END--\n",
    "missing destination": "State: 0\n[0] {0}\n--END--\n",
    "label without destination": "State: 0\n[0]\n--END--\n",
    "two labels": "State: 0\n[0] [1] 1\n--END--\n",
    "bad color": "State: 0\n[0] 1 {x}\n--END--\n",
    "color out of range": "State: 0\n[0] 1 {2}\n--END--\n",
    "unterminated colors": "State: 0\n[0] 1 {0\n--END--\n",
    "repeated colors": "State: 0\n[0] 1 {1 1 0}\n--END--\n",
    "empty colors": "State: 0 {}\n[0] 1 {}\n--END--\n",
    "state and edge colors": "State: 0 {0}\n[0] 1 {1}\n--END--\n",
    "destination out of range": "State: 0\n[0] 3\n--END--\n",
    "group member out of range": "State: 0\n[0] 1&3\n--END--\n",
    "state out of range": "State: 3\n--END--\n",
    "duplicate state": "State: 0\nState: 1\nState: 0\n--END--\n",
    "huge destination": "State: 0\n[0] %s\n--END--\n" % ("9" * 5000),
    "huge unlabeled destination": "State: 0\n%s\n--END--\n" % ("9" * 5000),
    "huge unlabeled destination under a state label":
        "State: [0] 0\n%s\n--END--\n" % ("9" * 5000),
    "huge destination before State:": "%s\nState: 0\n--END--\n" % ("9" * 5000),
    "huge group member": "State: 0\n[0] 1&%s\n--END--\n" % ("9" * 5000),
    "huge state index": "State: %s\n--END--\n" % ("9" * 5000),
    "huge color": "State: 0\n[0] 1 {%s}\n--END--\n" % ("9" * 5000),
    "bad label": "State: 0\n[0 & ] 1\n--END--\n",
    "unterminated label": "State: 0\n[0 1\n--END--\n",
    "label with newline": "State: 0\n[0\n&\n1] 1\n--END--\n",
    "leading zeros": "State: 00\n[0] 01 {01}\n--END--\n",
    "no blanks": "State:0[0]1{0}[1]2&1{1}State:1[t]1--END--",
    "empty body": "--END--\n",
    # without States:, the body's largest index sets the count
    "undeclared: states from edges": "State: 0\n[0] 4&2\n--END--\n",
    "undeclared: states from State:": "State: 5\n[0] 1\n--END--\n",
    "undeclared: start beyond the body": "State: 0\n[0] 1\n--END--\n",
    # print_hoa puts a state-acc automaton's colors on its states
    "state-acc: edge colors": "State: 0\n[0] 1 {0}\n--END--\n",
    "state-acc: state colors": "State: 0 {0}\n[0] 1\n--END--\n",
}


def _form_text(form):
    head = _HEAD
    if form.startswith("undeclared:"):
        head = head.replace("States: 3\n", "").replace("Start: 0", "Start: 6")
    elif form.startswith("state-acc:"):
        head = head.replace("--BODY--", "properties: state-acc\n--BODY--")
    elif form.startswith("joined:"):   # no line break after --BODY--
        head = head[:-1]
    return head + BODY_FORMS[form]


@pytest.mark.parametrize("form", sorted(BODY_FORMS))
def test_body_forms(form):
    assert _outcome(_form_text(form)) == BODY_OUTCOMES[form]


# sha256 prefixes of pack_edges() + print_hoa() of every input file of the
# bench's jobs, in file-name order
INPUT_DIGESTS = {
    ("check", 1): "a1fd2c1403924220", ("check", 7): "5a4e8362b02b2a90",
    ("synth", 1): "c942f6217d635e66", ("synth", 7): "f9c74c43d5fc1a6e",
    ("transform", 1): "03c2ff501e784c2b", ("transform", 7): "977157ce0fc87dca",
}


@pytest.mark.parametrize("workload,seed", sorted(INPUT_DIGESTS))
def test_bench_inputs_parse_stably(workload, seed, bench_jobs):
    files = bench_jobs(workload, seed)[1]
    h = hashlib.sha256()
    for path in sorted(files, key=os.path.basename):
        for aut in parse_hoa_stream(files[path]):
            h.update(aut.pack_edges())
            h.update(print_hoa(aut).encode())
    assert h.hexdigest()[:16] == INPUT_DIGESTS[workload, seed]


BODY_OUTCOMES = {
    'CRLF and tabs': '4db4583dcbae29e6',
    'abort in an edge': '8:5: expected a destination state',
    'abort in the body': '9:1: aborted automaton',
    'bad color': '8:8: expected a color index',
    'bad label': "8:2: bad label: unexpected 'end' in label at position 4",
    'blanks around &': '899e4f9c30eab3d2',
    'color out of range': '8:8: color 2 not below the declared count 2',
    'comment at the end': 'e6654729f834873d',
    'comment holding tokens': '6a85ea1c2e7f531d',
    'comment inside a destination group': '1d5373242bbc109c',
    'comment inside a state line': '0c36573371e237a8',
    'comment inside an edge': '4498920240efafde',
    'comment inside colors': '49d281f118eede81',
    'comment opener in a label':
        '8:2: bad label: trailing input in label at position 2',
    'comment opener in a state name': '5222cd9c28c759e3',
    'destination out of range': '8:1: state 3 not below the declared count 3',
    'duplicate state': '9:1: duplicate State: 0',
    'edge before State:': '7:1: edge before any State:',
    'empty body': '29154040141cdbb7',
    'empty colors': 'e6654729f834873d',
    'group ending the body': '8:8: expected a destination state',
    'group member out of range': '8:1: state 3 not below the declared count 3',
    'group missing a member': '8:9: expected a destination state',
    'group of one': '09d7e433f9af5443',
    'header in the body': '8:1: expected an edge or --END--',
    'huge color': '8:8: integer of 5000 digits too large',
    'huge destination': '8:5: integer of 5000 digits too large',
    'huge destination before State:': '7:1: integer of 5000 digits too large',
    'huge group member': '8:7: integer of 5000 digits too large',
    'huge state index': '7:8: integer of 5000 digits too large',
    'huge unlabeled destination': '8:1: integer of 5000 digits too large',
    'huge unlabeled destination under a state label':
        '8:1: integer of 5000 digits too large',
    'identifier in the body': '8:1: expected an edge or --END--',
    'implicit label after a state label': 'aedfd0f907c3578b',
    'implicit labels': '8:1: implicit labels are not supported',
    'joined: comment right after --BODY--': 'e6654729f834873d',
    'label with newline': '2e0b1ff76ff80c19',
    'label without destination': '9:1: expected a destination state',
    'leading zeros': '2a78c5f66394fdc1',
    'missing destination': '8:5: expected a destination state',
    'missing end': '9:1: missing --END--',
    'missing end after colors': '8:10: missing --END--',
    'multi-line comment before an error': "11:5: unexpected character '@'",
    'nested comment': 'e6654729f834873d',
    'newline in a group': '7fb6c3feb6395e52',
    'no blanks': 'ee6d042fd48460ad',
    'repeated colors': '49d281f118eede81',
    'repeated group member': 'ce7b5d0f55905a66',
    'second body marker': '8:1: expected an edge or --END--',
    'state and edge colors': '49d281f118eede81',
    'state index missing': '8:1: expected a state index',
    'state label without index': '8:1: expected a state index',
    'state name on its own line': 'a587f9a6fb959b9a',
    'state name without index': '7:8: expected a state index',
    'state names': 'dfff0479c2422d56',
    'state out of range': '7:1: state 3 not below the declared count 3',
    'state-acc: edge colors': '9:7: edge colors under state-acc',
    'state-acc: state colors': '5ba97056648cae1d',
    'stray brace': '8:1: expected an edge or --END--',
    'stray character': "8:7: unexpected character '@'",
    'stray dashes': "9:1: stray '--'",
    'string after an edge': '9:1: expected an edge or --END--',
    'two labels': '8:5: expected a destination state',
    'undeclared: start beyond the body': '8e66354c10695268',
    'undeclared: states from State:': 'b6154ccdba361e14',
    'undeclared: states from edges': '614e3fcc47f3863f',
    'unlabeled edge after a labeled one': '89a53a837592aa9b',
    'unlabeled edge before State:': '7:1: edge before any State:',
    'unterminated colors': '9:1: expected a color index',
    'unterminated comment': '8:7: unterminated comment',
    'unterminated label': "8:2: missing ']'",
}


class _CountingPattern:
    """A stand-in for a compiled pattern that counts the matches its
    match and finditer return."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.matches = 0

    def match(self, *args):
        self.matches += 1
        return self.pattern.match(*args)

    def finditer(self, *args):
        for m in self.pattern.finditer(*args):
            self.matches += 1
            yield m


@pytest.mark.parametrize("line,message", [
    ("[0] 1 & {0}", "24:9: expected a destination state"),
    ("[0] }", "24:5: expected a destination state"),
    ("foo", "24:1: expected an edge or --END--"),
])
def test_body_error_token_is_read_alone(line, message, monkeypatch):
    # the token that names a body error is lexed by itself, not with
    # every token after it; the messages are those of a full lex
    lines = print_hoa(random_automaton(2000, ["a", "b"], density=0.1,
                                       seed=3)).split("\n")
    lines[23] = line
    text = "\n".join(lines)
    header = len(hoa._lex(text, 0)[0])      # one match per header token
    spy = _CountingPattern(_TOKEN_RE)
    monkeypatch.setattr(hoa, "_TOKEN_RE", spy)
    with pytest.raises(HoaParseError) as exc:
        parse_hoa(text)
    assert str(exc.value) == message
    assert header < spy.matches <= header + 3


# ---------------------------------------------------------------------------
# The two body readers: the line reader takes print_hoa's form, the item
# walker everything else.

def _irregular(text):
    """`text` with one line that the line reader refuses and the walker
    reads as before: two blanks after the label of its first edge or,
    with no edge, a blank line after --BODY--."""
    at = text.find("] ", text.index("--BODY--"))
    if at < 0:
        return text.replace("--BODY--\n", "--BODY--\n\n", 1)
    return text[:at] + "]  " + text[at + 2:]


def _line_reader_inputs():
    """print_hoa texts of seeded automata with colors, false guards,
    unreachable states, out-lists reordered by next_succ and states
    without edges, and of one automaton without states."""
    texts = []
    for seed in range(12):
        rng = random.Random(seed)
        aut = random_automaton(1 + seed * 4, seed % 4, density=0.5,
                               colors=seed % 3 * 2, color_density=0.4,
                               seed=seed)
        n = aut.num_states
        extra = aut.new_states(3)     # unreachable; the last has no edge
        for s in range(extra, extra + 2):
            aut.new_edge(s, rng.randrange(n), 1, rng.getrandbits(2))
        for _ in range(seed % 4):
            aut.new_edge(rng.randrange(n), rng.randrange(n), FALSE_GUARD)
        reorder_out_lists(aut)
        texts.append(print_hoa(aut))
    none = Automaton(["a"])
    none.set_acceptance(1, Inf(0))
    texts.append(print_hoa(none))
    return texts


def test_both_body_readers_build_the_same_automata():
    for text in _line_reader_inputs():
        # one automaton, its canonical body read by the line reader
        assert reader_check.check_text(text, _irregular(text)) == (1, 1)


def test_canonical_bodies_never_reach_the_walker():
    texts = _line_reader_inputs()
    with reader_check.counting_walks() as walks:
        for text in texts:
            parse_hoa(text)
        assert walks == []
        for text in texts:
            parse_hoa(_irregular(text))
        assert len(walks) == len(texts)


# a last edge line; the error it raises, if any; whether _walk is what
# refuses it, and not _LINE_RE's catch-all
@pytest.mark.parametrize("line,error,by_walk", [
    ("[0]  1", None, False),
    ("[0] x", "expected a destination state", False),
    ("[0] 3000", "state 3000 not below the declared count 3000", True),
    ("[0&&1] 1", "bad label", True),
])
def test_a_line_refused_in_the_last_chunk(line, error, by_walk,
                                          monkeypatch):
    text = print_hoa(random_automaton(3000, 2, density=0.5, colors=2,
                                      color_density=0.3, seed=3))
    chunks = _spy_chunks(monkeypatch)
    parse_hoa(text)
    whole = chunks[:]                 # the lines of each chunk
    assert len(whole) >= 3
    del chunks[:]
    at = text.rindex("\n[") + 1       # the last edge line
    text = text[:at] + line + text[text.index("\n", at):]
    if error is None:
        assert reader_check.check_text(text) == (1, 0)
    else:
        with pytest.raises(HoaParseError) as plain:
            parse_hoa(text)
        with reader_check.walker_only():
            with pytest.raises(HoaParseError) as walked:
                parse_hoa(text)
        assert str(plain.value) == str(walked.value)
        assert error in str(plain.value)
    # every chunk before the last went through _walk, and the last one
    # too where _walk refuses the line
    assert chunks == (whole if by_walk else whole[:-1])


def _spy_chunks(monkeypatch):
    """The number of lines of each chunk _walk is given."""
    chunks = []
    real = hoa._Parser._walk

    def walk(self, found, src, cols):
        chunks.append(len(found))
        return real(self, found, src, cols)
    monkeypatch.setattr(hoa._Parser, "_walk", walk)
    return chunks


def test_line_reader_memory_stays_bounded():
    # the line reader holds one chunk's lines and edges at a time
    text = print_hoa(random_automaton(20000, 1, density=0.5, colors=2,
                                      color_density=0.3, seed=5))

    def peak(text):
        tracemalloc.start()
        try:
            parse_hoa(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    plain = peak(text)
    walked = peak(text.replace("--BODY--\n", "--BODY--\n\n", 1))
    assert plain <= 1.1 * walked


@pytest.mark.parametrize("workload", reader_check.WORKLOADS)
def test_bench_inputs_read_alike_both_ways(workload, bench_jobs):
    automata, taken = reader_check.check_texts(
        bench_jobs(workload, 1)[1].values())
    assert taken >= automata * 2 // 3
