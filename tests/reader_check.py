"""The two body readers of `elaut.hoa` checked against each other, with
plain asserts, so that it runs on interpreters without pytest:

    PYTHONPATH=src python tests/reader_check.py

It writes the input files of the bench's three workloads at seeds 1 and
2 to a temporary directory and reads each file twice: as it comes, where
a body in print_hoa's form goes through the line reader
(`_Parser._plain_read`), and with that reader off, where every body goes
through the item walker.  Both reads must build the same automata: equal
pack_edges(), first and last out-edges, guard tables and print_hoa text.
tests/test_hoa.py runs the same checks under pytest at seed 1.
"""

import contextlib
import os
import sys
import tempfile

from elaut import hoa

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
WORKLOADS = ("check", "synth", "transform")


@contextlib.contextmanager
def walker_only():
    """Within it, every body is read by the item walker."""
    real = hoa._Parser._plain_read
    hoa._Parser._plain_read = lambda self: None
    try:
        yield
    finally:
        hoa._Parser._plain_read = real


@contextlib.contextmanager
def counting_walks():
    """Within it, the list it yields counts the bodies the item walker
    reads."""
    walks = []
    real = hoa._Parser._walk_body

    def walk_body(self):
        walks.append(self)
        return real(self)
    hoa._Parser._walk_body = walk_body
    try:
        yield walks
    finally:
        hoa._Parser._walk_body = real


def shape(aut):
    """What the two readers must agree on: the packed edges, each state's
    first and last out-edge, the guard table and the printed text."""
    last = []
    for s in range(aut.num_states):
        idx = 0
        for idx in aut.out_indices(s):
            pass
        last.append(idx)
    store = aut.store
    return (aut.pack_edges(), list(aut.first_edges), last,
            [store.bits_of(g) for g in range(len(store))], hoa.print_hoa(aut))


def check_text(text, walked=None):
    """Read `text` both ways and require the same automata; `walked`, the
    text with one line the line reader refuses, is read as it comes in
    place of the walker-only read.  Returns (automata, bodies the line
    reader took)."""
    with counting_walks() as walks:
        plain = hoa.parse_hoa_stream(text)
    if walked is None:
        with walker_only():
            other = hoa.parse_hoa_stream(text)
    else:
        other = hoa.parse_hoa_stream(walked)
    assert len(plain) == len(other)
    for a, b in zip(plain, other):
        assert shape(a) == shape(b), text[:200]
    return len(plain), len(plain) - len(walks)


def check_texts(texts):
    """check_text over `texts`; returns the totals of its counts."""
    automata = taken = 0
    for text in texts:
        n, k = check_text(text)
        automata += n
        taken += k
    assert automata
    return automata, taken


def main():
    sys.path.insert(0, BENCH)
    import workloads
    for seed in (1, 2):
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                files = workloads.generate(workload, seed, workdir)[1]
                automata, taken = check_texts(files.values())
            print("%s %d: %d automata read alike, %d by the line reader"
                  % (workload, seed, automata, taken))


if __name__ == "__main__":
    main()
