"""Shared fixtures: the benchmark's seeded jobs, imported read-only from
bench/workloads.py."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="session")
def bench_jobs(tmp_path_factory):
    """bench_jobs(workload, seed) -> (jobs, files): the bench's jobs of
    that workload and seed, in run order, and the text of each input
    file, written to a temporary directory."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads
    cache = {}

    def get(workload, seed):
        if (workload, seed) not in cache:
            workdir = tmp_path_factory.mktemp("%s%d" % (workload, seed))
            cache[workload, seed] = workloads.generate(workload, seed,
                                                       str(workdir))
        return cache[workload, seed]
    return get


@pytest.fixture(scope="session")
def check_jobs(bench_jobs):
    """check_jobs(seed) -> the bench's `check` jobs of that seed."""
    return lambda seed: bench_jobs("check", seed)[0]
