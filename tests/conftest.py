"""Shared fixtures: the benchmark's seeded check jobs, imported read-only
from bench/workloads.py."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="session")
def check_jobs(tmp_path_factory):
    """check_jobs(seed) -> the bench's `check` jobs of that seed, in run
    order, with their input files written to a temporary directory."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import workloads
    cache = {}

    def get(seed):
        if seed not in cache:
            workdir = tmp_path_factory.mktemp("check%d" % seed)
            cache[seed] = workloads.generate("check", seed, str(workdir))[0]
        return cache[seed]
    return get
