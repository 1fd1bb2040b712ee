"""Product queries read the system side lazily: `aut SYS --product P` with
--is-empty or --accepting-run parses a system state's edges only when the
search reaches it, and answers, fails and reports errors exactly as the
full reader."""

import contextlib
import functools
import io
import os

import pytest

from elaut import algorithms, cli, hoa
from elaut.acceptance import AccClass, parse_acceptance
from elaut.algorithms import random_automaton
from elaut.hoa import (HoaParseError, LazyAutomaton, parse_hoa_stream,
                       parse_hoa_stream_lazy, print_hoa)
from test_hoa import GOLDEN, _mutant_texts, golden_names, read


def _rows(aut, s):
    """State s's edges as (destination, guard bits, colors)."""
    if isinstance(aut, LazyAutomaton):
        return [(d, aut.store.bits_of(g), c) for _, d, g, c in aut.edges_of(s)]
    return [(aut.edge_dst[i], aut.store.bits_of(aut.edge_cond[i]),
             aut.edge_acc[i]) for i in aut.out_indices(s)]


def _same_reading(lazy, full):
    """A lazily read automaton shows what the full reader built."""
    assert (lazy.aps, lazy.num_states, lazy.init, lazy.num_sets,
            lazy.acceptance) == (full.aps, full.num_states, full.init,
                                 full.num_sets, full.acceptance)
    assert dict(lazy.flags) == dict(full.flags)
    assert lazy.has_universal_branches() == full.has_universal_branches()
    colors = 0
    for s in range(full.num_states):
        assert _rows(lazy, s) == _rows(full, s)
        for _, _, c in _rows(full, s):
            colors |= c
    assert lazy.colors == colors


def _outcome(read_stream, text):
    """What a reader makes of `text`: the error, or the automata."""
    try:
        return None, read_stream(text)
    except (ValueError, TypeError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None)), None


@functools.cache
def _mutants():
    """The mutant corpus of test_hoa (seed 2015), each text with the full
    reader's error, or None where it reads the text."""
    return [(text, _outcome(parse_hoa_stream, text)[0])
            for text in _mutant_texts()]


def _random_prints():
    """print_hoa texts of seeded random automata, with and without
    colors, over 0 to 12 APs."""
    out = []
    for seed in range(24):
        aps = (0, 1, 2, 3, 11, 12)[seed % 6]
        density = 0.4 if aps < 4 else 0.002
        out.append(print_hoa(random_automaton(
            1 + seed * 3, aps, density=density, colors=(seed % 3) * 2,
            color_density=0.4, seed=seed)))
    return out


def test_lazy_reader_matches_the_full_reader_on_mutants():
    lazily = 0
    for text, error in _mutants() + [(t, None) for t in _random_prints()]:
        assert _outcome(parse_hoa_stream_lazy, text)[0] == error, text
        if error is None:
            lazy, full = parse_hoa_stream_lazy(text), parse_hoa_stream(text)
            assert len(lazy) == len(full)
            for a, b in zip(lazy, full):
                if isinstance(a, LazyAutomaton):
                    lazily += 1
                    _same_reading(a, b)
                else:
                    assert print_hoa(a) == print_hoa(b)
    assert lazily > 300


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _queries_answer_as_with_the_full_reader(tmp_path, monkeypatch, texts):
    """Each text, as the system side of a product query through cli.main,
    gives the exit code, stdout and stderr that the full reader gives;
    returns the exit codes seen."""
    prop = tmp_path / "prop.hoa"
    prop.write_text(print_hoa(random_automaton(
        3, ["a", "p0"], density=1.0, colors=1, color_density=0.4,
        acceptance=AccClass("Buchi"), seed=4)))
    system = tmp_path / "sys.hoa"
    codes = set()
    for text in texts:
        system.write_text(text)
        for query in ("--is-empty", "--accepting-run"):
            argv = ["aut", str(system), "--product", str(prop), query]
            got = _run(argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_hoa_stream_lazy", parse_hoa_stream)
                assert got == _run(argv), text
            codes.add(got[0])
    return codes


def test_product_queries_answer_as_with_the_full_reader(tmp_path,
                                                        monkeypatch):
    goldens = [read(os.path.join(GOLDEN, name + ".in.hoa"))
               for name in golden_names()]
    read_in_full = [text for text, error in _mutants() if error is None]
    prints = _random_prints()
    # streams of several automata, some read lazily, one malformed
    streams = ["".join(prints[k:k + 3]) for k in range(0, 18, 3)]
    streams += [prints[1] + goldens[0] + prints[2],
                prints[1] + _mutants()[1][0] + prints[2]]
    assert _queries_answer_as_with_the_full_reader(
        tmp_path, monkeypatch,
        goldens + prints + streams + read_in_full) == {0, 1, 2}


def test_product_queries_fail_as_with_the_full_reader(tmp_path, monkeypatch):
    # every fifth mutant that the full reader rejects
    rejected = [text for text, error in _mutants() if error is not None]
    assert _queries_answer_as_with_the_full_reader(
        tmp_path, monkeypatch, rejected[::5]) == {2}


def test_edge_cases_of_the_plain_check(tmp_path, monkeypatch):
    head = ('HOA: v1\nStates: 3\nStart: 0\nAP: 11 %s\n'
            'Acceptance: 2 Inf(0)&Inf(1)\n%s--BODY--\n'
            % (" ".join('"a%d"' % i for i in range(11)), "%s"))
    bodies = {
        "plain": "State: 0\n[10 | !0&9] 1 {0}\n[t] 2 {0 1}\nState: 1\n"
                 "[f] 0\nState: 2\n[!10] 2 {1}\n",
        "AP out of range": "State: 0\n[11] 1\n",
        "leading zero AP": "State: 0\n[01] 1\n",
        "duplicate state": "State: 1\n[0] 1\nState: 01\n[0] 2\n",
        "state out of range": "State: 3\n[0] 1\n",
        "destination out of range": "State: 0\n[0] 3\n",
        "long destination": "State: 0\n[0] 00001\n",
        "color out of range": "State: 0\n[0] 1 {2}\n",
        "empty colors": "State: 0\n[0] 1 {}\n",
        "state colors": "State: 0 {0}\n[0] 1\n",
        "state name": 'State: 0 "s"\n[0] 1\n',
        "comment": "State: 0\n[0] 1 /* c */\n",
        "no State: first": "[0] 1\nState: 0\n",
        "blank line": "State: 0\n\n[0] 1\n",
        "state label": "State: [0] 0\n1\n",
        "group": "State: 0\n[0] 1&2\n",
        "operators": "State: 0\n[0&&1] 1\n",
        "trailing": "State: 0\n[0] 1",
    }
    for props in ("", "/* c */\n", "properties: weak\n",
                  "properties: state-acc\n"):
        for name, body in bodies.items():
            text = head % props + body + "--END--\n"
            error, full = _outcome(parse_hoa_stream, text)
            lazy = _outcome(parse_hoa_stream_lazy, text)
            assert lazy[0] == error, name
            is_lazy = error is None and isinstance(lazy[1][0], LazyAutomaton)
            # a header comment keeps a plain body lazy
            plain = name == "plain" and "properties" not in props
            assert is_lazy == plain, (name, props)
            if is_lazy:
                _same_reading(lazy[1][0], full[0])
    # no States: header, and no state at all, read in full
    for text in ("HOA: v1\nStart: 0\nAP: 0\nAcceptance: 0 t\n--BODY--\n"
                 "State: 0\n[t] 0\n--END--\n",
                 "HOA: v1\nStates: 0\nAP: 0\nAcceptance: 0 t\n--BODY--\n"
                 "--END--\n"):
        assert not isinstance(parse_hoa_stream_lazy(text)[0], LazyAutomaton)
        assert print_hoa(parse_hoa_stream_lazy(text)[0]) == \
            print_hoa(parse_hoa_stream(text)[0])


def _spy(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def spy(self, *args):
        calls.append((self,) + args)
        return real(self, *args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_product_query_parses_only_the_states_it_reaches(tmp_path,
                                                         monkeypatch):
    text = print_hoa(random_automaton(2000, ["a", "b"], density=0.3, seed=3))
    prop = tmp_path / "prop.hoa"
    prop.write_text(print_hoa(random_automaton(
        4, ["b", "c"], density=1.0, colors=1, color_density=0.3,
        acceptance=AccClass("Buchi"), seed=4)))
    system = tmp_path / "sys.hoa"
    system.write_text(text)
    argv = ["aut", str(system), "--product", str(prop), "--accepting-run"]
    parsed = _spy(monkeypatch, hoa._Parser, "_walk")
    flattened = _spy(monkeypatch, algorithms._FlatRows, "__missing__")
    code, out, err = _run(argv)
    assert code == 0 and "cycle:" in out and err == ""
    states = [call[2] for call in parsed if call[0].declared == 2000]
    assert len(states) == len(set(states))
    assert len(states) == sum(rows.aut.num_states == 2000
                              for rows, _ in flattened)
    assert 0 < len(states) < 2000 // 5

    # a bad label in a state the search never reaches is still found,
    # at the place the full reader names
    s = min(set(range(2000)) - set(states))
    at = text.index("State: %d\n" % s) + len("State: %d\n" % s)
    bad = text[:at] + "[0&&1]" + text[text.index("]", at) + 1:]
    system.write_text(bad)
    with pytest.raises(HoaParseError) as exc:
        parse_hoa_stream(bad)
    assert _run(argv) == (2, "", "elaut: error: %s\n" % exc.value)


def test_system_colors_come_from_the_color_texts(tmp_path):
    aut = random_automaton(30, 2, density=0.3, colors=4, color_density=0.3,
                           acceptance=parse_acceptance("Inf(0) & Inf(3)"),
                           seed=7)
    lazy, = parse_hoa_stream_lazy(print_hoa(aut))
    assert isinstance(lazy, LazyAutomaton)
    colors = 0
    for c in aut.edge_acc[1:]:
        colors |= c
    assert lazy.colors == colors
    rows = algorithms._FlatRows(lazy, lazy.store, [0, 1], 2, True)
    assert rows.colors == colors << 2 and not rows
