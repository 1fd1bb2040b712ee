"""The plain argv reader of `elaut.cli` checked against argparse, with
plain asserts, so that it runs on interpreters without pytest:

    PYTHONPATH=src python tests/argv_check.py

For each subcommand it reads every argv of up to four words after the
subcommand's name over an alphabet of the subcommand's options, a
value, stdin, two files and forms that only argparse reads, and then
every stage argv of the bench's three workloads at seed 1.  Wherever the
reader takes an argv, argparse must leave no word over and build an
equal namespace.  tests/test_cli.py runs the same checks under pytest.
"""

import itertools
import os
import sys
import tempfile

from elaut import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
WORKLOADS = ("check", "synth", "transform")


def plain_and_parsed(argv):
    """(the plain reader's namespace, argparse's namespace and leftover
    words); argparse runs only where the reader takes the argv."""
    plain = cli._plain_args(argv)
    if plain is None:
        return None, None
    try:
        return plain, cli.build_parser().parse_known_args(argv)
    except SystemExit:
        raise AssertionError("argparse rejects what the plain reader "
                             "takes: %r" % (argv,)) from None


def check_short_argvs(name):
    """Check every argv of up to four words after subcommand `name`;
    returns how many the reader took."""
    options = [flag for flag, _, _ in cli.COMMANDS[name][2] if flag[0] == "-"]
    alphabet = options + ["-h", "--help", "1", "-", "a.hoa", "b.hoa", "-x",
                          "--", "--prod", "--product=v"]
    taken = 0
    for k in range(5):
        for words in itertools.product(alphabet, repeat=k):
            argv = [name, *words]
            plain, parsed = plain_and_parsed(argv)
            if plain is not None:
                assert parsed == (plain, []), argv
                taken += 1
    assert taken > len(alphabet), (name, taken)
    return taken


def check_stages(jobs):
    """Check that the reader takes every stage argv of `jobs` as argparse
    reads it; returns how many there were."""
    stages = [argv for job in jobs for argv in job.stages]
    assert stages
    for argv in stages:
        plain, parsed = plain_and_parsed(argv)
        assert plain is not None and parsed == (plain, []), argv
    return len(stages)


def main():
    for name in cli.COMMANDS:
        print("%s: %d short argvs taken" % (name, check_short_argvs(name)))
    sys.path.insert(0, BENCH)
    import workloads
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            jobs = workloads.generate(workload, 1, workdir)[0]
            print("%s: all %d stage argvs taken"
                  % (workload, check_stages(jobs)))


if __name__ == "__main__":
    main()
