"""Command line behavior: parsing, transforms, queries, games,
machines, exit codes."""

import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from elaut import (Automaton, algorithms, graph, guards, hoa, is_empty,
                   parity, parse_acceptance, parse_hoa, parse_hoa_stream,
                   print_hoa, random_automaton)
from elaut import cli
from elaut.cli import main

import argv_check

BUCHI_AB = """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 0 {0}
[!0] 0
--END--
"""

EMPTY_LANG = """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 1 Inf(0)
--BODY--
State: 0
[t] 0
--END--
"""

RABIN_ONE = """HOA: v1
States: 2
Start: 0
AP: 1 "a"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[0] 0 {1}
[!0] 1 {0}
State: 1
[t] 0
--END--
"""

ALTERNATING = """HOA: v1
States: 3
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[t] 1&2
State: 1
[0] 1 {0}
State: 2
[t] 2 {0}
--END--
"""

GRANT_GAME = """HOA: v1
States: 3
Start: 0
AP: 2 "req" "grant"
Acceptance: 0 t
spot-state-player: 0 1 1
controllable-AP: 1
--BODY--
State: 0
[0] 1
[!0] 2
State: 1
[1] 0
State: 2
[!1] 0
[1] 0
--END--
"""

LOST_GAME = """HOA: v1
States: 2
Start: 0
AP: 2 "req" "grant"
Acceptance: 0 t
spot-state-player: 0 1
controllable-AP: 1
--BODY--
State: 0
[t] 1
State: 1
--END--
"""

MEMORY_MACHINE = """HOA: v1
States: 2
Start: 0
AP: 2 "a" "b"
Acceptance: 0 t
controllable-AP: 1
--BODY--
State: 0
[0 & !1] 1
[!0 & !1] 0
State: 1
[0 & 1] 1
[!0 & !1] 0
--END--
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------- randaut

def test_randaut_roundtrip_and_determinism(capsys):
    assert main(["randaut", "--states", "4", "--ap", "1",
                 "--colors", "2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    aut = parse_hoa(first)
    assert aut.num_states == 4
    main(["randaut", "--states", "4", "--ap", "1", "--colors", "2",
          "--seed", "5"])
    assert capsys.readouterr().out == first
    main(["randaut", "--states", "4", "--ap", "1", "--colors", "2",
          "--seed", "6"])
    assert capsys.readouterr().out != first


def test_randaut_acceptance_forms(capsys):
    assert main(["randaut", "--states", "3", "--seed", "1",
                 "--acceptance", "parity min even 3"]) == 0
    aut = parse_hoa(capsys.readouterr().out)
    assert aut.num_sets == 3
    assert main(["randaut", "--states", "3", "--seed", "1",
                 "--acceptance", "Fin(0)|Inf(1)"]) == 0
    aut = parse_hoa(capsys.readouterr().out)
    assert str(aut.acceptance) == "Fin(0)|Inf(1)"
    assert main(["randaut", "--states", "3", "--seed", "1",
                 "--acceptance", "random", "--colors", "3"]) == 0
    parse_hoa(capsys.readouterr().out)
    assert main(["randaut", "--acceptance", "parity sideways odd 3"]) == 2


@pytest.mark.parametrize("flag", ["--colors", "--ap"])
def test_randaut_rejects_negative_counts(flag, capsys):
    assert main(["randaut", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("elaut: error:")


@pytest.mark.parametrize("flag, name", [("--density", "density"),
                                        ("--color-density", "color density")])
@pytest.mark.parametrize("value", ["nan", "2", "-1", "inf", "1.0000001"])
def test_randaut_rejects_densities_outside_0_1(flag, name, value, capsys):
    assert main(["randaut", "--colors", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "elaut: error: %s %r is not in [0, 1]\n" % (
        name, float(value))


@pytest.mark.parametrize("args, message", [
    (["--states", str(hoa.MAX_STATES + 1)],
     "--states %d exceeds the limit of %d"
     % (hoa.MAX_STATES + 1, hoa.MAX_STATES)),
    (["--colors", str(hoa.MAX_COLORS + 1)],
     "%d colors exceed the limit of %d"
     % (hoa.MAX_COLORS + 1, hoa.MAX_COLORS)),
    (["--acceptance", "Inf(%d)" % hoa.MAX_COLORS],
     "bad --acceptance: color %d exceeds the declared count of %d at "
     "position 0" % (hoa.MAX_COLORS, hoa.MAX_COLORS)),
    (["--acceptance", "Inf(%s)" % ("9" * (sys.get_int_max_str_digits()
                                          + 1))],
     "bad --acceptance: color index of %d digits out of range at "
     "position 4" % (sys.get_int_max_str_digits() + 1)),
    (["--acceptance", "parity max odd %d" % (hoa.MAX_COLORS + 1)],
     "%d colors exceed the limit of %d"
     % (hoa.MAX_COLORS + 1, hoa.MAX_COLORS)),
    (["--acceptance", "Rabin %d" % (hoa.MAX_COLORS // 2 + 1)],
     "%d colors exceed the limit of %d"
     % (hoa.MAX_COLORS + 2, hoa.MAX_COLORS)),
    (["--acceptance", "generalized-Rabin 1 %d" % hoa.MAX_COLORS],
     "%d colors exceed the limit of %d"
     % (hoa.MAX_COLORS + 1, hoa.MAX_COLORS))])
def test_randaut_writes_only_what_the_reader_takes(args, message, capsys,
                                                   monkeypatch):
    # each is rejected before an automaton is built
    def unreachable(*args, **kwargs):
        raise AssertionError("built past a limit")
    monkeypatch.setattr(algorithms, "random_automaton", unreachable)
    assert main(["randaut"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "elaut: error: %s\n" % message


def test_randaut_at_the_limits_reads_back(capsys):
    # the largest color index parse_hoa takes is written and read back
    assert main(["randaut", "--states", "1", "--ap", "0", "--seed", "2",
                 "--acceptance", "Inf(%d)" % (hoa.MAX_COLORS - 1),
                 "--color-density", "0"]) == 0
    aut = parse_hoa(capsys.readouterr().out)
    assert aut.num_sets == hoa.MAX_COLORS


# ----------------------------------------------------------------- aut

def test_aut_default_prints_hoa(tmp_path, capsys):
    f = write(tmp_path, "a.hoa", BUCHI_AB)
    assert main(["aut", f]) == 0
    out = capsys.readouterr().out
    assert out.startswith("HOA: v1\n")
    assert "acc-name: Buchi" in out
    assert "[0] 0 {0}" in out
    again = parse_hoa(out)
    assert again.num_states == 1
    # printing the printed form changes nothing
    f2 = write(tmp_path, "b.hoa", out)
    assert main(["aut", f2]) == 0
    assert capsys.readouterr().out == out


def test_aut_stats_text_and_json(tmp_path, capsys):
    f = write(tmp_path, "a.hoa", BUCHI_AB)
    assert main(["aut", f, "--stats"]) == 0
    text = capsys.readouterr().out
    assert "states: 1" in text
    assert "acc-name: Buchi" in text

    assert main(["aut", f, f, "--stats", "--json"]) == 0
    blobs = json.loads(capsys.readouterr().out)
    assert isinstance(blobs, list) and len(blobs) == 2
    assert blobs[0]["states"] == 1
    assert blobs[0]["edges"] == 2


def test_aut_is_empty_exit_codes(tmp_path, capsys):
    empty = write(tmp_path, "empty.hoa", EMPTY_LANG)
    full = write(tmp_path, "full.hoa", BUCHI_AB)
    assert main(["aut", empty, "--is-empty"]) == 0
    assert capsys.readouterr().out == "empty\n"
    assert main(["aut", full, "--is-empty"]) == 1
    assert capsys.readouterr().out == "nonempty\n"
    assert main(["aut", empty, full, "--is-empty"]) == 1
    assert capsys.readouterr().out == "empty\nnonempty\n"


def test_aut_accepting_run(tmp_path, capsys):
    full = write(tmp_path, "full.hoa", BUCHI_AB)
    assert main(["aut", full, "--accepting-run"]) == 0
    out = capsys.readouterr().out
    assert "prefix:" in out and "cycle:" in out and "--[0]-->" in out
    empty = write(tmp_path, "empty.hoa", EMPTY_LANG)
    assert main(["aut", empty, "--accepting-run"]) == 1
    assert capsys.readouterr().out == "no accepting run\n"


def test_internal_errors_exit_2(tmp_path, capsys, monkeypatch):
    # 1 means "nonempty" to --is-empty and "no run" to --accepting-run,
    # so a crash must not exit 1
    def crash(aut):
        raise RuntimeError("accepting_run: the lasso is not accepting")

    monkeypatch.setattr(algorithms, "accepting_run", crash)
    full = write(tmp_path, "full.hoa", BUCHI_AB)
    assert main(["aut", full, "--accepting-run"]) == 2
    err = capsys.readouterr().err
    assert err.endswith("elaut: internal error: RuntimeError: "
                        "accepting_run: the lasso is not accepting\n")
    assert "Traceback" in err


def test_aut_check_flag(tmp_path, capsys):
    f = write(tmp_path, "a.hoa", BUCHI_AB)
    assert main(["aut", f, "--check", "universal"]) == 0
    assert capsys.readouterr().out == "yes\n"
    # mixed color sets inside the loop, so not weak
    assert main(["aut", f, "--check", "very-weak"]) == 1
    assert capsys.readouterr().out == "no\n"
    vw = write(tmp_path, "vw.hoa", EMPTY_LANG)
    assert main(["aut", vw, "--check", "very-weak"]) == 0
    assert capsys.readouterr().out == "yes\n"
    alt = write(tmp_path, "alt.hoa", ALTERNATING)
    assert main(["aut", alt, "--check", "universal"]) == 1
    assert capsys.readouterr().out == "no\n"
    assert main(["aut", f, "--check", "bogus"]) == 2


def test_aut_acceptance_name(tmp_path, capsys):
    f = write(tmp_path, "a.hoa", RABIN_ONE)
    assert main(["aut", f, "--acceptance-name"]) == 0
    assert capsys.readouterr().out == "Rabin 1\n"


def test_aut_remove_fin(tmp_path, capsys):
    f = write(tmp_path, "a.hoa", RABIN_ONE)
    assert main(["aut", f, "--remove-fin"]) == 0
    out = parse_hoa(capsys.readouterr().out)
    assert "Fin" not in str(out.acceptance)
    assert is_empty(out) == is_empty(parse_hoa(RABIN_ONE))


def test_aut_remove_alternation(tmp_path, capsys):
    f = write(tmp_path, "alt.hoa", ALTERNATING)
    assert main(["aut", f, "--remove-alternation"]) == 0
    out = parse_hoa(capsys.readouterr().out)
    assert not out.has_universal_branches()


def test_aut_product_chains_into_queries(tmp_path, capsys):
    only_a = write(tmp_path, "a.hoa", """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 0 {0}
--END--
""")
    only_not_a = write(tmp_path, "na.hoa", """HOA: v1
States: 1
Start: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
State: 0
[!0] 0 {0}
--END--
""")
    assert main(["aut", only_a, "--product", only_not_a,
                 "--is-empty"]) == 0
    assert capsys.readouterr().out == "empty\n"
    assert main(["aut", only_a, "--product", only_a, "--is-empty"]) == 1


NO_STATES = """HOA: v1
States: 0
AP: 1 "a"
Acceptance: 1 Inf(0)
--BODY--
--END--
"""


@pytest.fixture
def product_calls(monkeypatch):
    """The number of algorithms.product calls so far, in a one-item list."""
    calls = [0]
    real = algorithms.product

    def spy(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(algorithms, "product", spy)
    return calls


def test_product_is_empty_matches_the_explicit_pipeline(tmp_path, capsys,
                                                        product_calls):
    rng = random.Random(5)
    auts = {write(tmp_path, "none.hoa", NO_STATES): parse_hoa(NO_STATES)}
    for k in range(6):
        aut = random_automaton(rng.randint(2, 12), ["a", "b"], density=0.4,
                               colors=2, color_density=0.3, seed=k)
        auts[write(tmp_path, "a%d.hoa" % k, print_hoa(aut))] = aut
    paths = sorted(auts)
    verdicts = set()
    for k, acc in enumerate(("Inf(0)", "Fin(0)", "Fin(0) & Inf(1)", "t")):
        prop = random_automaton(3, ["b", "c"], density=0.8, colors=2,
                                color_density=0.4,
                                acceptance=parse_acceptance(acc), seed=k)
        prop_path = write(tmp_path, "p%d.hoa" % k, print_hoa(prop))
        for files in (paths, paths[::-1], paths[:1], paths[-1:]):
            argv = ["aut"] + files + ["--product", prop_path, "--is-empty"]
            calls = product_calls[0]
            code = main(argv)
            out, err = capsys.readouterr()
            assert product_calls[0] == calls      # decided on the fly
            # --trim keeps the language and builds each product
            assert main(argv + ["--trim"]) == code
            assert capsys.readouterr() == (out, err)
            assert product_calls[0] == calls + len(files)
            expected = [is_empty(algorithms.product(auts[f], prop))
                         for f in files]
            assert out == "".join("empty\n" if e else "nonempty\n"
                                  for e in expected)
            assert code == (0 if all(expected) else 1) and err == ""
            verdicts.update(expected)
    assert verdicts == {True, False}


def test_product_with_transformations_is_explicit(tmp_path, capsys,
                                                  product_calls):
    sys_path = write(tmp_path, "sys.hoa", print_hoa(random_automaton(
        6, ["a"], density=0.6, seed=1)))
    prop = write(tmp_path, "parity.hoa", print_hoa(random_automaton(
        3, ["a"], density=1.0, colors=3, color_density=0.5,
        acceptance=parity("max", "odd", 3), seed=2)))
    for flags in (["--remove-fin"], ["--trim"], ["--remove-alternation"],
                  ["--change-parity", "min even"], []):
        calls = product_calls[0]
        assert main(["aut", sys_path, sys_path, "--product", prop,
                     "--is-empty"] + flags) == 1
        assert capsys.readouterr() == ("nonempty\nnonempty\n", "")
        assert product_calls[0] == calls + (2 if flags else 0)


def test_product_accepting_run_builds_no_product(tmp_path, capsys,
                                                 product_calls):
    sys_path = write(tmp_path, "sys.hoa", print_hoa(random_automaton(
        6, ["a"], density=0.6, seed=1)))
    prop = write(tmp_path, "parity.hoa", print_hoa(random_automaton(
        3, ["a"], density=1.0, colors=3, color_density=0.5,
        acceptance=parity("max", "odd", 3), seed=2)))
    empty = write(tmp_path, "empty.hoa", EMPTY_LANG)
    assert main(["aut", sys_path, empty, sys_path, "--product", prop,
                 "--accepting-run"]) == 1
    out, err = capsys.readouterr()
    assert product_calls == [0] and err == ""
    runs = out.split("no accepting run\n")
    assert len(runs) == 2 and runs[0] == runs[1]
    # the lasso's states are numbered in visit order from 0
    steps = [line.split() for line in runs[0].splitlines()
             if line.startswith("  ")]
    visited = [int(steps[0][0])] + [int(step[-1]) for step in steps]
    assert list(dict.fromkeys(visited)) == list(range(max(visited) + 1))
    assert main(["aut", sys_path, "--product", prop, "--accepting-run"]) == 0
    assert capsys.readouterr() == (runs[0], "")
    # a transformation flag builds the product, whose states it names
    assert main(["aut", sys_path, "--product", prop, "--accepting-run",
                 "--trim"]) == 0
    assert "cycle:" in capsys.readouterr().out
    assert product_calls == [1]


def test_product_is_empty_errors(tmp_path, capsys):
    plain = write(tmp_path, "plain.hoa", BUCHI_AB)
    alt = write(tmp_path, "alt.hoa", ALTERNATING)
    none = write(tmp_path, "none.hoa", NO_STATES)
    for files, prop in (([plain, alt], plain), ([alt], plain),
                        ([plain], alt)):
        for flags in ([], ["--trim"]):
            assert main(["aut"] + files + ["--product", prop,
                                           "--is-empty"] + flags) == 2
            assert capsys.readouterr() == (
                "", "elaut: error: product needs nonalternating automata\n")
    assert main(["aut", none, plain, "--product", none, "--is-empty"]) == 0
    assert capsys.readouterr().out == "empty\nempty\n"


def test_aut_change_parity(tmp_path, capsys):
    src = write(tmp_path, "p.hoa", """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 2 Inf(0) | Fin(1)
acc-name: parity min even 2
--BODY--
State: 0
[t] 0 {0}
--END--
""")
    assert main(["aut", src, "--change-parity", "max-odd"]) == 0
    out = capsys.readouterr().out
    assert "acc-name: parity max odd" in out
    before = parse_hoa_stream(open(src).read())[0]
    after = parse_hoa(out)
    assert is_empty(before) == is_empty(after)
    assert main(["aut", src, "--change-parity", "sideways"]) == 2


def test_aut_trim(tmp_path, capsys):
    src = write(tmp_path, "t.hoa", """HOA: v1
States: 3
Start: 0
AP: 0
Acceptance: 1 Inf(0)
--BODY--
State: 0
[t] 0 {0}
State: 1
[t] 2
State: 2
--END--
""")
    assert main(["aut", src, "--trim"]) == 0
    assert parse_hoa(capsys.readouterr().out).num_states == 1


def test_aut_dot_output(tmp_path, capsys):
    f = write(tmp_path, "a.hoa", BUCHI_AB)
    assert main(["aut", f, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert main(["aut", f, "--dot", "--hide-sinks"]) == 0
    capsys.readouterr()


def test_aut_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(BUCHI_AB))
    assert main(["aut", "--stats"]) == 0
    assert "states: 1" in capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(BUCHI_AB))
    assert main(["aut", "-", "--is-empty"]) == 1
    capsys.readouterr()


def test_aut_error_paths(tmp_path, capsys):
    assert main(["aut", str(tmp_path / "missing.hoa")]) == 2
    assert "elaut: error:" in capsys.readouterr().err
    bad = write(tmp_path, "bad.hoa", "HOA: v1\nStates: zero\n")
    assert main(["aut", bad]) == 2
    blank = write(tmp_path, "blank.hoa", "\n")
    assert main(["aut", blank]) == 2
    assert "no automata" in capsys.readouterr().err


def test_deeply_nested_labels(monkeypatch, capsys):
    # deep nesting must not crash: an uncaught exception exits 1, which
    # --is-empty reads as "nonempty"
    nested = "[%s0%s] 0 {0}" % ("(" * 3000, ")" * 3000)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(BUCHI_AB.replace("[0] 0 {0}", nested)))
    assert main(["aut", "-", "--is-empty"]) == 1
    unclosed = "[%s0] 0 {0}" % ("(" * 3000)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(BUCHI_AB.replace("[0] 0 {0}", unclosed)))
    assert main(["aut", "-", "--is-empty"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("elaut: error: 8:2: bad label: expected ')'")


def test_color_words_env(tmp_path, capsys):
    wide = write(tmp_path, "wide.hoa", """HOA: v1
States: 1
Start: 0
AP: 0
Acceptance: 40 Inf(39)
--BODY--
State: 0
[t] 0 {39}
--END--
""")
    # colors past 32 need no setting: a color set is an int of any width
    assert main(["aut", wide, "--is-empty"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------- game

def test_game_solve_output(tmp_path, capsys):
    f = write(tmp_path, "g.hoa", GRANT_GAME)
    assert main(["game", f]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "winners: 1 1 1"
    assert lines[1].startswith("strategy: ")
    assert main(["game", f, "--print-winners"]) == 0
    assert capsys.readouterr().out == "winners: 1 1 1\n"
    assert main(["game", f, "--print-strategy-dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_game_to_mealy(tmp_path, capsys):
    f = write(tmp_path, "g.hoa", GRANT_GAME)
    assert main(["game", f, "--to-mealy"]) == 0
    out = capsys.readouterr().out
    machine_aut = parse_hoa(out)
    assert machine_aut.get_named_prop("synthesis-outputs", list) == [1]
    assert "controllable-AP: 1" in out


def test_game_unrealizable(tmp_path, capsys):
    f = write(tmp_path, "g.hoa", LOST_GAME)
    assert main(["game", f]) == 1
    capsys.readouterr()
    assert main(["game", f, "--to-mealy"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not won" in captured.err


def test_game_with_no_states_is_not_won(tmp_path, capsys):
    f = write(tmp_path, "g.hoa", "HOA: v1\nStates: 0\nAP: 0\n"
              "Acceptance: 0 t\nspot-state-player:\n--BODY--\n--END--\n")
    for flags in ([], ["--to-mealy"], ["--print-strategy-dot"]):
        assert main(["game", f] + flags) == 1
    assert "not won" in capsys.readouterr().err


# --------------------------------------------------------------- mealy

def test_mealy_simulate(tmp_path, capsys):
    f = write(tmp_path, "m.hoa", MEMORY_MACHINE)
    assert main(["mealy", f, "--simulate", "1,1,0"]) == 0
    assert capsys.readouterr().out == "0\n1\n0\n"
    # only "0" and "1" are input bits
    assert main(["mealy", f, "--simulate", "2"]) == 2
    assert capsys.readouterr() == (
        "", "elaut: error: expected 1 input bits, got '2'\n")


def test_mealy_to_aiger(tmp_path, capsys):
    f = write(tmp_path, "m.hoa", MEMORY_MACHINE)
    assert main(["mealy", f, "--to-aiger"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert header[0] == "aag"
    assert header[2:5] == ["1", "1", "1"]


def test_mealy_default_echoes_hoa(tmp_path, capsys):
    f = write(tmp_path, "m.hoa", MEMORY_MACHINE)
    assert main(["mealy", f]) == 0
    echoed = parse_hoa(capsys.readouterr().out)
    assert echoed.num_states == 2


def test_mealy_rejects_bad_machine(tmp_path, capsys):
    partial = write(tmp_path, "p.hoa", """HOA: v1
States: 1
Start: 0
AP: 2 "a" "b"
Acceptance: 0 t
controllable-AP: 1
--BODY--
State: 0
[0 & 1] 0
--END--
""")
    assert main(["mealy", partial, "--simulate", "1"]) == 2
    assert "input-enabled" in capsys.readouterr().err


def test_mealy_with_no_states_is_rejected(tmp_path, capsys):
    f = write(tmp_path, "m.hoa", "HOA: v1\nStates: 0\nAP: 2 \"a\" \"b\"\n"
              "Acceptance: 0 t\ncontrollable-AP: 1\n--BODY--\n--END--\n")
    for flags in (["--simulate", "1"], ["--to-aiger"], []):
        assert main(["mealy", f] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "elaut: error: machine has no states\n"


# ------------------------------------------------------------ argv

USAGE = "usage: elaut [-h] {aut,randaut,game,mealy} ...\n"
EMPTY = "e3b0c44298fc1c14"            # sha256 prefix of no output

# (argv, exit code or SystemExit code, sha256 prefix of stdout, stderr)
# of main(argv) with COLUMNS=80, recorded on Python 3.11 when the
# top-level parser read every argv; {tmp} is a directory that holds
# BUCHI_AB, GRANT_GAME and MEMORY_MACHINE as aut.hoa, game.hoa and
# mealy.hoa
ARGV_OUTCOMES = [
    ([], 2, EMPTY,
     USAGE + "elaut: error: the following arguments are required: cmd\n"),
    (["-h"], 0, "ade1ae43f2c42b9e", ""),
    (["nope"], 2, EMPTY,
     USAGE + "elaut: error: argument cmd: invalid choice: 'nope' (choose "
     "from 'aut', 'randaut', 'game', 'mealy')\n"),
    (["aut", "-h"], 0, "e8f814692b50420f", ""),
    (["aut", "--bogus"], 2, EMPTY,
     USAGE + "elaut: error: unrecognized arguments: --bogus\n"),
    (["aut", "x.hoa", "--bogus"], 2, EMPTY,
     USAGE + "elaut: error: unrecognized arguments: --bogus\n"),
    (["randaut", "--states", "x"], 2, EMPTY,
     "usage: elaut randaut [-h] [--states STATES] [--ap AP] "
     "[--density DENSITY]\n"
     "                     [--colors COLORS] [--color-density "
     "COLOR_DENSITY]\n"
     "                     [--seed SEED] [--acceptance NAME]\n"
     "elaut randaut: error: argument --states: invalid int value: 'x'\n"),
    (["game", "--to-mealy", "--nope"], 2, EMPTY,
     USAGE + "elaut: error: unrecognized arguments: --nope\n"),
    (["aut", "{tmp}/aut.hoa", "--stats"], 0, "98eaa4dabf0b1e96", ""),
    (["randaut", "--states", "2", "--seed", "0"], 0, "76518130a729f1c8", ""),
    (["game", "{tmp}/game.hoa", "--print-winners"], 0, "64520386f36600cf",
     ""),
    (["mealy", "{tmp}/mealy.hoa", "--simulate", "1,0,1"], 0,
     "f456c1ffc6a33cd5", ""),
]


@pytest.mark.parametrize("argv,code,out,err", ARGV_OUTCOMES)
def test_argv_outcomes_are_stable(argv, code, out, err, tmp_path, capsys,
                                  monkeypatch):
    # main reads the plain ones itself and gives the rest to argparse,
    # with the outcomes of a parse from the top
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in (("aut.hoa", BUCHI_AB), ("game.hoa", GRANT_GAME),
                       ("mealy.hoa", MEMORY_MACHINE)):
        write(tmp_path, name, text)
    try:
        got = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, hashlib.sha256(captured.out.encode()).hexdigest()[:16],
            captured.err) == (code, out, err)


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_plain_reader_agrees_with_argparse(name):
    argv_check.check_short_argvs(name)


@pytest.mark.parametrize("workload", argv_check.WORKLOADS)
def test_plain_reader_takes_every_bench_stage(workload, bench_jobs):
    argv_check.check_stages(bench_jobs(workload, 1)[0])


# ------------------------------------------------------ pinned outputs

# sha256 prefixes of (job id, exit code, stdout, stderr) over the stages
# of the bench's jobs, in run order; a stage reads the previous one's
# stdout and runs only after an exit 0.  The --accepting-run jobs print
# lassos.  The transform digests were recorded before the HOA body was
# read an item at a time, the transform seeds 11 and 23 before Fin
# removal, trim and dealternation built their edges in bulk, and
# transform seed 29 before edges were stored as columns.  The synth
# digests were recorded when parity games came to be solved one SCC at
# a time, which picks other winning strategy edges at some states and
# so other Mealy machines and circuits; the winners are unchanged.  The
# check digests were recorded when `--product P --accepting-run` came
# to find its lasso on the fly, which numbers the lasso's states in
# visit order; their --is-empty outputs are unchanged since before
# `--product P --is-empty` was decided on the fly.
CHECK_JOB_DIGESTS = {1: "53c7c235e0f6fbc0", 7: "906c13529a2cb2e2",
                     11: "bb5e7bca4c343b9b", 23: "f703b37e95dcd04a",
                     29: "ee0e4f5145a86815"}
JOB_DIGESTS = {
    ("synth", 1): "0b628b433d933eca", ("synth", 7): "f900f93172690de1",
    ("synth", 13): "1c424ebc4472b17d",
    ("transform", 1): "2140ea511b6db7e2", ("transform", 7): "8d949e9cf1f28220",
    ("transform", 11): "52defb7b4b8df310",
    ("transform", 23): "dcdcacccb634a5fb",
    ("transform", 29): "3497575388ecac68",
}


def job_digest(jobs, capsys, monkeypatch):
    h = hashlib.sha256()
    for job in jobs:
        stdin = ""
        for argv in job.stages:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            code = main(argv)
            stdin, err = capsys.readouterr()
            h.update(repr((job.id, code, stdin, err)).encode())
            if code != 0:
                break
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(CHECK_JOB_DIGESTS))
def test_check_job_outputs_are_stable(seed, check_jobs, capsys, monkeypatch):
    assert job_digest(check_jobs(seed), capsys, monkeypatch) \
        == CHECK_JOB_DIGESTS[seed]


@pytest.mark.parametrize("workload,seed", sorted(JOB_DIGESTS))
def test_bench_job_outputs_are_stable(workload, seed, bench_jobs, capsys,
                                      monkeypatch):
    jobs = bench_jobs(workload, seed)[0]
    assert job_digest(jobs, capsys, monkeypatch) \
        == JOB_DIGESTS[workload, seed]


# the hot paths read the edge columns and build no EdgeRecord view
VIEW_FREE_JOBS = [("transform", "remove-fin"), ("transform", "change-parity"),
                  ("transform", "remove-alternation"), ("check", "is-empty"),
                  ("check", "accepting-run"), ("synth", "synth")]


@pytest.mark.parametrize("workload,kind", VIEW_FREE_JOBS)
def test_pipelines_build_no_edge_views(workload, kind, bench_jobs, capsys,
                                       monkeypatch):
    built = []

    class CountingEdgeRecord(graph.EdgeRecord):
        __slots__ = ()

        def __init__(self, automaton, index):
            built.append(index)
            super().__init__(automaton, index)

    jobs = [job for job in bench_jobs(workload, 1)[0] if job.kind == kind]
    monkeypatch.setattr(graph, "EdgeRecord", CountingEdgeRecord)
    aut = Automaton(["a"])
    aut.new_states(1)
    aut.new_edge(0, 0)
    assert aut.edges[1].dst == 0 and built == [1]   # the patch is seen
    built.clear()
    # the first two jobs that reach their last stage (for remove-alternation
    # a weak and a Buchi input); exit 1 is a nonempty or unrealizable answer
    done = 0
    for job in jobs:
        stdin = ""
        for stage, argv in enumerate(job.stages):
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            code = main(argv)
            stdin = capsys.readouterr().out
            assert code in (0, 1)
            if code:
                break
        done += stage == len(job.stages) - 1
        if done == 2:
            break
    assert done == 2 and built == []


def test_trim_copies_exactly_the_outputs_that_drop_nothing(
        bench_jobs, capsys, monkeypatch):
    # --trim copies an automaton whose states are all reachable and whose
    # guards are all satisfiable, and relinks the rest
    clone = graph.Automaton.clone
    clones, trims = [], []

    def counting_clone(self, keep_flags=False):
        clones.append(self)
        return clone(self, keep_flags)

    def watched_trim(aut):
        before = len(clones)
        out = graph.trim(aut)
        drops = (out.num_states, out.num_edges) != (aut.num_states,
                                                    aut.num_edges)
        trims.append((drops, clones[before:] == [aut]))
        return out

    monkeypatch.setattr(graph.Automaton, "clone", counting_clone)
    monkeypatch.setattr(cli, "trim", watched_trim)
    jobs = [job for job in bench_jobs("transform", 1)[0]
            if job.kind == "remove-fin"]
    for job in jobs:
        [argv] = job.stages
        assert argv[-1] == "--trim" and main(argv) == 0
        capsys.readouterr()
    assert len(trims) == len(jobs) == 36
    assert all(drops != copied for drops, copied in trims)
    assert sum(copied for _, copied in trims) == 29


def test_circuit_stage_builds_no_cubes(bench_jobs, capsys, monkeypatch):
    # the circuit stage reads cover masks and never asks for Cube objects
    calls = []
    to_cubes = guards.GuardStore.to_cubes

    def counting_to_cubes(self, gid):
        calls.append(gid)
        return to_cubes(self, gid)

    monkeypatch.setattr(guards.GuardStore, "to_cubes", counting_to_cubes)
    store = guards.GuardStore(1)
    assert store.to_cubes(1) == [guards.Cube(frozenset(), frozenset())]
    assert calls == [1]                             # the patch is seen
    circuits = 0
    for job in bench_jobs("synth", 1)[0]:
        game, circuit = job.stages
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        if main(game):
            capsys.readouterr()
            continue
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            capsys.readouterr().out))
        calls.clear()
        assert main(circuit) == 0
        assert capsys.readouterr().out.startswith("aag ")
        assert calls == []
        circuits += 1
    assert circuits > 0


# ------------------------------------------------------ installed script

def test_console_script_runs():
    proc = subprocess.run(
        ["elaut", "randaut", "--states", "2", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("HOA: v1")
