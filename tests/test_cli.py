"""Command line behavior: parsing, transforms, queries, games,
machines, exit codes."""

import io
import json
import subprocess
import sys

import pytest

from elaut import algorithms, is_empty, parse_hoa, parse_hoa_stream
from elaut.cli import main

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
    # the parser widens color storage on its own when the header asks
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


# --------------------------------------------------------------- mealy

def test_mealy_simulate(tmp_path, capsys):
    f = write(tmp_path, "m.hoa", MEMORY_MACHINE)
    assert main(["mealy", f, "--simulate", "1,1,0"]) == 0
    assert capsys.readouterr().out == "0\n1\n0\n"


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


# ------------------------------------------------------ installed script

def test_console_script_runs():
    proc = subprocess.run(
        ["elaut", "randaut", "--states", "2", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("HOA: v1")
