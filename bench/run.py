#!/usr/bin/env python3
"""Benchmark for elaut: seeded CLI pipelines in a closed loop.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

One client in one process, no threads: each job is a real `elaut`
command line run in-process through `elaut.cli.main(argv)`, and the next
job starts when the previous one returns.  The inputs are HOA files the
benchmark writes at set-up from `--seed` (see workloads.py); elaut is
imported from `src/`, so no install is needed.

The timed loop runs whole passes over the seed's jobs until `--seconds`
seconds have passed, and at least MIN_PASSES passes.  Every time is
scaled to a reference machine speed (see REFERENCE_CAL_S); a job's
latency is the median of its runs, and the end-to-end numbers are over
the distinct jobs: jobs_per_s is their count over their summed latency,
job_p50_ms and job_p90_ms their quantiles.  peak_rss_mb is the process's
peak resident set; setup_s is the elaut import plus the median of
SETUP_REPEATS rounds of input generation and file writes.

Afterwards every distinct job's output is checked
(checkers.py), every repeat of a job must print exactly what its first
run printed, and the per-job answers go to `bench/out/` so runs of two
commits can be compared.  A job that exits 2, raises, or answers wrong
counts as failed; the share of failed runs (fail_ratio) is printed
with the metrics, and the result line carries the counts.  On the
default seed the answers must also equal the ones recorded in
`bench/answers/<workload>.json`, which are copies of the answer files a
seed-1 run writes.

With `--trace 0` the last stdout line reports the end-to-end metrics;
with `--trace 1` the first half of the time runs untraced and the second
half traced (tracer.py), and the line reports the per-layer metrics.
Spans are written to `bench/out/` as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter, deque
from time import perf_counter

import checkers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
ANSWERS = os.path.join(HERE, "answers")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
# Identical work runs up to 1.8 times slower for minutes at a time on a
# shared machine.  Every timing is therefore scaled by the time of a fixed
# piece of work (`calibrate`) taken right around it, to the speed at which
# that work takes REFERENCE_CAL_S: about its time on a quiet 2-vCPU Xeon
# (Sapphire Rapids) KVM guest under Python 3.11.  There, over 150 s of
# repeated `transform` passes, the scaled pass times varied by 1.7%
# (coefficient of variation) against 28% for the raw ones.
REFERENCE_CAL_S = 0.002
CAL_WINDOW = 5

END_TO_END = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    """The unit of a per-layer metric, read off its name."""
    if name.endswith((".ms", "_ms")):
        return "ms"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.startswith("hoa.bytes"):
        return "B"
    if name.endswith(("ratio", "growth")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------- jobs

def run_job(cli_main, job):
    """Run a job's stages; returns [(exit, stdout, stderr)] per stage.

    Exit 0 and 1 are answers under the CLI contract; anything else, a
    usage exit, or a raised exception (reported as exit None with the
    traceback as stderr) is a failure, and the loop goes on."""
    stages = []
    stdin = ""
    saved = sys.stdin
    try:
        for argv in job.stages:
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(stdin)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
            stages.append((code, out.getvalue(), err.getvalue()))
            if code != 0:
                break
            stdin = out.getvalue()
    finally:
        sys.stdin = saved
    return stages


class _Record:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def calibrate():
    """Seconds a fixed mix of pure-Python work (small objects, dict
    updates, string formatting) takes on this machine right now, with
    the cyclic garbage collector held off so that it measures speed
    alone."""
    gc.disable()
    try:
        t0 = perf_counter()
        recs = [_Record(i, i & 7, (i * 7) & 255) for i in range(3000)]
        d = {}
        for r in recs:
            d[r.c] = d.get(r.c, 0) | (1 << r.b)
        text = "\n".join("%d -> %d [%s]" % (r.a, r.b, "x" * (r.c & 3))
                         for r in recs)
        text.split("\n")
        return perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """The machine's recent speed: the median of the last CAL_WINDOW
    calibrations, so one interrupted calibration does not skew a job."""

    def __init__(self):
        self.recent = deque([calibrate()], maxlen=CAL_WINDOW)

    def scale(self, seconds):
        """Calibrate once more and scale `seconds`, measured just before,
        to the speed at which `calibrate` takes REFERENCE_CAL_S."""
        self.recent.append(calibrate())
        return seconds * REFERENCE_CAL_S / statistics.median(self.recent)


class Loop:
    """What one timed loop saw: each job's runs in seconds at reference
    speed, the first result of each job, the ids of jobs whose repeats
    printed something else, and the elapsed wall time."""

    def __init__(self):
        self.latencies = {}
        self.first = {}
        self.drift = set()
        self.elapsed = 0.0

    def job_seconds(self):
        """Each job's latency as the median of its runs, sorted."""
        return sorted(statistics.median(v) for v in self.latencies.values())

    @property
    def jobs_per_s(self):
        """With one client in a closed loop: the inverse of the mean job
        latency."""
        per_job = self.job_seconds()
        return len(per_job) / sum(per_job)


def measure(cli_main, jobs, seconds, min_passes, tracer=None):
    """Closed loop over whole passes of `jobs` until `seconds` have
    passed, and at least `min_passes` passes."""
    loop = Loop()
    start = perf_counter()
    passes = 0
    speed = Speed()
    while passes < min_passes or loop.elapsed < seconds:
        for job in jobs:
            # each job starts from a collected heap, as a fresh CLI
            # process would
            gc.collect()
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_job(job.id)
            stages = run_job(cli_main, job)
            if tracer is not None:
                tracer.end_job()
            dt = perf_counter() - t0
            loop.latencies.setdefault(job.id, []).append(speed.scale(dt))
            got = [(code, out) for code, out, _ in stages]
            if job.id not in loop.first:
                loop.first[job.id] = stages
            elif got != [(code, out) for code, out, _ in loop.first[job.id]]:
                loop.drift.add(job.id)
        passes += 1
        loop.elapsed = perf_counter() - start
    return loop


# ---------------------------------------------------------------- checks

def judge(workload, job, stages, files, seed):
    """(answer, problem) for one job's first result; problem is None
    when the output is right."""
    codes = [code for code, _, _ in stages]
    last_out = stages[-1][1]
    if workload == "check":
        expected = "nonempty" if checkers.product_nonempty(
            files[job.meta["sys"]], files[job.meta["prop"]]) else "empty"
        if job.kind == "is-empty":
            answer = {(0, "empty\n"): "empty",
                      (1, "nonempty\n"): "nonempty"}.get((codes[0],
                                                          last_out))
        elif codes == [1] and last_out == "no accepting run\n":
            answer = "empty"
        elif codes == [0]:
            problem = checkers.check_lasso(last_out)
            if problem:
                return None, "bad lasso: " + problem
            answer = "nonempty"
        else:
            answer = None
        if answer is None:
            return None, "exit %s" % codes
        if answer != expected:
            return answer, "answered %s, oracle says %s" % (answer, expected)
        return answer, None
    if workload == "synth":
        arena = files[job.meta["arena"]]
        realizable = 0 in checkers.solve_parity(checkers.read_hoa(arena))
        if codes == [1] and not stages[0][1]:
            answer = "unrealizable"
        elif codes == [0, 0]:
            problem = checkers.check_circuit(
                arena, last_out, checkers.job_rng(seed, job.id))
            if problem:
                return None, "bad circuit: " + problem
            answer = "realizable"
        else:
            return None, "exit %s" % codes
        if (answer == "realizable") != realizable:
            return answer, "answered %s, oracle disagrees" % answer
        return answer, None
    if codes != [0]:
        return None, "exit %s" % codes
    from elaut import parse_hoa, print_hoa
    if print_hoa(parse_hoa(last_out)) != last_out:
        return None, "output is not a print fixpoint"
    problem = checkers.check_transform(job.kind, files[job.meta["input"]],
                                       last_out)
    return checkers.counts(last_out), problem


def verify(workload, seed, jobs, first, drift, files):
    """Per-job answers and the ids of the jobs that failed."""
    recorded = None
    path = os.path.join(ANSWERS, "%s.json" % workload)
    if seed == DEFAULT_SEED and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    answers = {}
    bad = set()
    for job in jobs:
        stages = first[job.id]
        try:
            answer, problem = judge(workload, job, stages, files, seed)
        except Exception:
            answer, problem = None, traceback.format_exc()
        if problem is None and job.id in drift:
            problem = "repeats printed a different output"
        if problem is None and recorded is not None \
                and recorded.get(job.id) != answer:
            problem = "answer %r, recorded %r" % (answer,
                                                  recorded.get(job.id))
        if problem is not None:
            bad.add(job.id)
            print("FAIL %s %s: %s\n%s" % (job.id, job.stages, problem,
                                          stages[-1][2][-2000:]),
                  file=sys.stderr)
        answers[job.id] = answer
    return answers, bad


# ------------------------------------------------------------------ main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("check", "synth", "transform"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "elaut", "__init__.py")):
        print("bench: no elaut source tree at %s" % src, file=sys.stderr)
        return 2
    speed = Speed()
    t0 = perf_counter()
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import elaut
    from elaut.cli import main as cli_main
    import workloads
    import_s = perf_counter() - t0
    if not os.path.abspath(elaut.__file__).startswith(src + os.sep):
        print("bench: imported elaut from %s, not from %s"
              % (elaut.__file__, src), file=sys.stderr)
        return 2

    # set-up is the import above plus generating and writing the inputs
    # several times; every repeat must produce the same bytes
    import_s = speed.scale(import_s)
    tag = "%s-seed%d" % (args.workload, args.seed)
    workdir = os.path.join(OUT, tag)
    gen_s = []
    files = None
    deterministic = True
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        jobs, got = workloads.generate(args.workload, args.seed, workdir)
        gen_s.append(speed.scale(perf_counter() - t))
        deterministic &= files is None or got == files
        files = got
    setup_s = import_s + statistics.median(gen_s)

    tracer = None
    seconds = args.seconds
    # the per-layer numbers carry no bound, so a traced run's two halves
    # may be single passes
    min_passes = 1 if args.trace else MIN_PASSES
    runs = Counter()
    if args.trace:
        import tracer as tracing
        seconds /= 2
        plain = measure(cli_main, jobs, seconds, min_passes)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop = measure(cli_main, jobs, seconds, min_passes, tracer)
        finally:
            tracer.uninstall()
        tracer.count_dnf_terms()
        loop.drift |= plain.drift
        for job_id, times in plain.latencies.items():
            runs[job_id] += len(times)
    else:
        loop = measure(cli_main, jobs, seconds, min_passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    answers, bad = verify(args.workload, args.seed, jobs, loop.first,
                          loop.drift, files)
    with open(os.path.join(OUT, tag + ".answers.json"), "w",
              encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for job_id, times in loop.latencies.items():
        runs[job_id] += len(times)
    attempted = sum(runs.values())
    failed = sum(runs[i] for i in bad)
    if not deterministic:
        print("FAIL set-up repeats wrote different inputs", file=sys.stderr)

    ms = [x * 1e3 for x in loop.job_seconds()]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    e2e = {"jobs_per_s": loop.jobs_per_s,
           "job_p50_ms": statistics.median(ms),
           "job_p90_ms": p90,
           "peak_rss_mb": peak_rss_mb,
           "setup_s": setup_s}
    print("%s seed %d: %d distinct jobs, %d runs in %.2f s%s"
          % (args.workload, args.seed, len(jobs), attempted, loop.elapsed,
             " (traced)" if tracer else ""))
    for name, value in e2e.items():
        print("  %-12s %12.4f %s" % (name, value, END_TO_END[name]))
    print("  %-12s %12.4f ratio (%d failed of %d)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    print("  times at reference speed; latency is each job's median of "
          "%d+ runs: %d samples, %d beyond p90; setup is elaut import "
          "%.3f s + median of %d generations"
          % (min_passes, len(ms), sum(1 for x in ms if x > p90), import_s,
             SETUP_REPEATS))

    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = loop.jobs_per_s / plain.jobs_per_s
        tracer.write_spans(os.path.join(OUT, tag + ".spans.jsonl"))
        report = {k: {"value": v, "unit": layer_unit(k)}
                  for k, v in metrics.items()}
    else:
        report = {k: {"value": v, "unit": END_TO_END[k]}
                  for k, v in e2e.items()}
    print(json.dumps({"correct": not bad and deterministic,
                      "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
