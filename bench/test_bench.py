"""Tests of the benchmark itself: determinism, checkers, metric names.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checkers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from elaut import (Automaton, make_class, make_game, parity,  # noqa: E402
                   print_hoa)
from elaut.cli import main as cli_main  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    jobs1, files1 = workloads.generate(workload, 7, str(tmp_path / "a"))
    jobs2, files2 = workloads.generate(workload, 7, str(tmp_path / "a"))
    assert files1 == files2
    assert [j.stages for j in jobs1] == [j.stages for j in jobs2]
    for path, text in files1.items():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text
    _, other = workloads.generate(workload, 8, str(tmp_path / "a"))
    assert other != files1


# ------------------------------------------------------------- checkers

def test_lasso_checker_rejects_corruption():
    good = ("prefix:\n  0 --[0&1]--> 3\n  3 --[t]--> 5\n"
            "cycle:\n  5 --[!0]--> 6\n  6 --[1]--> 5\n")
    assert checkers.check_lasso(good) is None
    assert checkers.check_lasso(good.replace("--> 6\n", "--> 7\n"))
    assert checkers.check_lasso(good.replace("--> 3\n", "--> 4\n"))
    assert checkers.check_lasso(good.replace("6 --[1]--> 5", "6 --[1]--> 3"))
    assert checkers.check_lasso(good.replace("[1]", "[f]"))
    assert checkers.check_lasso("prefix:\ncycle:\n")


def test_lasso_checker_accepts_real_runs(tmp_path):
    jobs, files = workloads.generate("check", 3, str(tmp_path))
    job = next(j for j in jobs if j.kind == "accepting-run")
    [(code, out, _)] = run.run_job(cli_main, job)
    if code == 0:
        assert checkers.check_lasso(out) is None
    else:
        assert out == "no accepting run\n"


def _one_move_arena():
    """Input i0 is free; the controller's only move sets o0."""
    aut = Automaton(["i0", "o0"])
    aut.new_states(2)
    aut.new_edge(0, 1, aut.store.parse_label("t"), [1])
    aut.new_edge(1, 0, aut.store.parse_label("1"), [1])
    aut.set_acceptance(2, make_class(parity("max", "odd", 2)))
    aut.set_init(0)
    make_game(aut, [0, 1])
    aut.set_named_prop("synthesis-outputs", [1])
    return print_hoa(aut)


def test_circuit_checker_rejects_flipped_output(tmp_path):
    arena = _one_move_arena()
    path = tmp_path / "arena.hoa"
    path.write_text(arena)
    job = workloads.Job("j", "synth", [["game", str(path), "--to-mealy"],
                                       ["mealy", "-", "--to-aiger"]])
    stages = run.run_job(cli_main, job)
    assert [code for code, _, _ in stages] == [0, 0]
    aag = stages[1][1]
    assert checkers.check_circuit(arena, aag, random.Random(0)) is None
    lines = aag.split("\n")
    _, ni, nl, no, _ = (int(x) for x in lines[0].split()[1:])
    out_line = 1 + ni + nl
    lines[out_line] = str(int(lines[out_line]) ^ 1)
    assert checkers.check_circuit(arena, "\n".join(lines), random.Random(0))


def test_parity_solver_sees_both_winners():
    arena = checkers.read_hoa(_one_move_arena())
    assert 0 in checkers.solve_parity(arena)
    losing = _one_move_arena().replace("{1}", "{0}")
    assert 0 not in checkers.solve_parity(checkers.read_hoa(losing))


def test_transform_judge_rejects_non_fixpoint(tmp_path):
    jobs, files = workloads.generate("transform", 3, str(tmp_path))
    job = next(j for j in jobs if j.kind == "change-parity")
    stages = run.run_job(cli_main, job)
    answer, problem = run.judge("transform", job, stages, files, 3)
    assert problem is None and answer.startswith("states=")
    code, out, err = stages[0]
    bent = out.replace("States:", "States: ", 1)
    _, problem = run.judge("transform", job, [(code, bent, err)], files, 3)
    assert problem == "output is not a print fixpoint"
    body = out.index("--BODY--")
    m = re.compile(r"\{(\d+)\}").search(out, body)
    recolored = "%s{%d}%s" % (out[:m.start()], int(m.group(1)) + 1,
                              out[m.end():])
    _, problem = run.judge("transform", job, [(code, recolored, err)],
                           files, 3)
    assert problem


def test_check_oracle_agrees_on_a_small_product():
    sys_text = ("HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
                "Acceptance: 0 t\n--BODY--\nState: 0\n[0] 0\n--END--\n")
    prop = ("HOA: v1\nStates: 1\nStart: 0\nAP: 1 \"a\"\n"
            "Acceptance: 1 Inf(0)\n--BODY--\nState: 0\n[%s] 0 {0}\n"
            "--END--\n")
    assert checkers.product_nonempty(sys_text, prop % "0")
    assert not checkers.product_nonempty(sys_text, prop % "!0")


# ---------------------------------------------------------------- runs

@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "synth", "--seed", "2",
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m["%s.self_ms" % layer] for layer in
                     ("cli", "hoa", "guards", "graph", "acceptance",
                      "algorithms", "synthesis"))
        assert layers == pytest.approx(m["job_ms"], rel=1e-6)
        assert m["guards.restrict.calls"] > 0


def test_benchmark_json_lists_the_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]]
               for w in spec["workloads"])


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
