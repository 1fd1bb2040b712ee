"""Command line front end.

Four subcommands: `aut` transforms and inspects automata, `randaut`
generates random ones, `game` solves ownership-annotated automata, and
`mealy` turns machines into circuits or simulates them.  Automata are
read as HOA from file arguments or stdin ("-" also means stdin) and
written as HOA to stdout.

`main(argv)` reads a plain argv, `CMD POSITIONAL... (--flag | --opt
VALUE)...` with exact long options of CMD, no positional or value but
"-" that starts with "-" and values of their options' types, into the
namespace argparse would build, without running argparse.  Any other
argv goes to argparse, which alone gives help, usage errors and exit 2.

`aut --product FILE` with --is-empty or --accepting-run and no
transformation flag (--remove-alternation, --remove-fin, --change-parity,
--trim) answers for each product on the fly, without building it.  It
reads an input automaton's edges only in the states the search reaches
when the input is as print_hoa writes it (hoa.parse_hoa_stream_lazy),
and any other input in full.  Such a lasso numbers its states in the
order it first visits them, from 0 for the initial pair.  Any other
pipeline with --product builds each product explicitly first.

Exit status: 0 on success (and on all-yes answers for the query modes),
1 when a query answers no (a non-empty automaton under --is-empty, a
failed --check, an unrealizable game), 2 on usage or processing errors
and on any other exception, which is reported as an internal error with
its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import algorithms, synthesis
from .acceptance import (AccClass, acc_name, change_parity, class_colors,
                         used_colors, AcceptanceParseError, parse_acceptance)
from .algorithms import get_or_compute_flag
from .graph import FLAG_NAMES, trim
from .hoa import (MAX_COLORS, MAX_STATES, parse_hoa_stream,
                  parse_hoa_stream_lazy, print_dot, print_hoa, stats)


def _read_text(path):
    """The text of a file, or of stdin for "-".  A file is read as text
    mode reads it, UTF-8 with universal newlines, but from one unbuffered
    read, which costs less per file than a text stream."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_automata(paths, lazy=False):
    if not paths:
        paths = ["-"]
    read = parse_hoa_stream_lazy if lazy else parse_hoa_stream
    out = []
    for path in paths:
        out.extend(read(_read_text(path)))
    if not out:
        raise ValueError("no automata in the input")
    return out


def _print_run(aut, run):
    def step(idx):
        return "  %d --[%s]--> %d" % (
            aut.edge_src[idx], aut.store.print_label(aut.edge_cond[idx]),
            aut.edge_dst[idx])

    lines = ["prefix:"]
    lines.extend(step(i) for i in run.prefix)
    lines.append("cycle:")
    lines.extend(step(i) for i in run.cycle)
    return "\n".join(lines)


def _report_runs(runs):
    """Print each (automaton, run or None) as it comes; return 1 if any
    automaton has no accepting run."""
    status = 0
    for aut, run in runs:
        if run is None:
            print("no accepting run")
            status = 1
        else:
            print(_print_run(aut, run))
    return status


def _report(answers, yes="yes", no="no"):
    """Print each answer as it comes; return 1 if any is no."""
    status = 0
    for answer in answers:
        print(yes if answer else no)
        status |= not answer
    return status


def cmd_aut(args):
    # a query on the products alone is answered on the fly, and reads
    # each system automaton's edges only in the states the search reaches
    on_the_fly = args.product and (args.is_empty or args.accepting_run) \
        and not (args.remove_alternation or args.remove_fin
                 or args.change_parity or args.trim)
    auts = _read_automata(args.files, on_the_fly)
    other = None
    if args.product:
        others = parse_hoa_stream(_read_text(args.product))
        if len(others) != 1:
            raise ValueError("--product wants exactly one automaton")
        other = others[0]

    if on_the_fly and args.is_empty:
        return _report([algorithms.product_is_empty(aut, other)
                        for aut in auts], "empty", "nonempty")
    if on_the_fly:
        return _report_runs(
            algorithms.product_accepting_run(aut, other) or (None, None)
            for aut in auts)

    processed = []
    for aut in auts:
        if other is not None:
            aut = algorithms.product(aut, other)
        if args.remove_alternation:
            aut = algorithms.remove_alternation(aut)
        if args.remove_fin:
            aut = algorithms.remove_fin(aut)
        if args.change_parity:
            aut = change_parity(aut, args.change_parity)
        if args.trim:
            aut = trim(aut)
        processed.append(aut)

    if args.is_empty:
        return _report((algorithms.is_empty(aut) for aut in processed),
                       "empty", "nonempty")
    if args.accepting_run:
        return _report_runs((aut, algorithms.accepting_run(aut))
                            for aut in processed)
    if args.check:
        name = args.check.replace("-", "_")
        if name not in FLAG_NAMES:
            raise ValueError("unknown flag %r (one of: %s)"
                             % (args.check, ", ".join(FLAG_NAMES)))
        return _report(get_or_compute_flag(aut, name) for aut in processed)
    if args.acceptance_name:
        for aut in processed:
            name = acc_name(aut.acceptance, aut.num_sets)
            print(name if name is not None else "unknown")
        return 0
    if args.stats:
        blobs = [stats(aut, include_sccs=True) for aut in processed]
        if args.json:
            print(json.dumps(blobs if len(blobs) > 1 else blobs[0],
                             indent=2, sort_keys=True))
        else:
            for k, blob in enumerate(blobs):
                if k:
                    print()
                for key, value in blob.items():
                    print("%s: %s" % (key, value))
        return 0
    if args.dot:
        for aut in processed:
            sys.stdout.write(print_dot(aut, hide_sinks=args.hide_sinks))
        return 0
    for aut in processed:
        sys.stdout.write(print_hoa(aut))
    return 0


def cmd_randaut(args):
    # at most what parse_hoa reads back, checked before anything is built
    if args.states > MAX_STATES:
        raise ValueError("--states %d exceeds the limit of %d"
                         % (args.states, MAX_STATES))
    acceptance = None
    colors = args.colors
    if args.acceptance and args.acceptance != "random":
        cls = AccClass.parse(args.acceptance)
        if cls is not None:
            acceptance = cls
            colors = max(colors, class_colors(cls))
        else:
            try:
                acceptance = parse_acceptance(args.acceptance,
                                              max_colors=MAX_COLORS)
            except AcceptanceParseError as exc:
                raise ValueError("bad --acceptance: %s" % exc)
            colors = max(colors, used_colors(acceptance).bit_length())
    if colors > MAX_COLORS:
        raise ValueError("%d colors exceed the limit of %d"
                         % (colors, MAX_COLORS))
    aut = algorithms.random_automaton(
        args.states, args.ap, density=args.density, colors=colors,
        color_density=args.color_density, acceptance=acceptance,
        seed=args.seed)
    sys.stdout.write(print_hoa(aut))
    return 0


def cmd_game(args):
    games = _read_automata(args.files)
    status = 0
    for game in games:
        sol = synthesis.solve_game(game)
        init = game.init
        realizable = 0 <= init < game.num_states and sol.winners[init] == 1
        if not realizable:
            status = 1
        if args.print_winners:
            print("winners: " + " ".join(str(w) for w in sol.winners))
        elif args.print_strategy_dot:
            sys.stdout.write(print_dot(game))
        elif args.to_mealy:
            if not realizable:
                print("elaut: game is not won by player 1 from the "
                      "initial state", file=sys.stderr)
                continue
            machine = synthesis.strategy_to_mealy(game, sol)
            sys.stdout.write(print_hoa(synthesis.mealy_to_automaton(machine)))
        else:
            print("winners: " + " ".join(str(w) for w in sol.winners))
            print("strategy: " + " ".join(str(i) for i in sol.strategy))
    return status


def cmd_mealy(args):
    auts = _read_automata(args.files)
    machines = [synthesis.automaton_to_mealy(aut) for aut in auts]
    for m in machines:
        synthesis.validate_mealy(m)
    if args.to_aiger:
        for m in machines:
            sys.stdout.write(synthesis.print_aiger(synthesis.mealy_to_aiger(m)))
        return 0
    if args.simulate is not None:
        steps = args.simulate.split(",") if args.simulate else []
        for m in machines:
            for row in synthesis.simulate_mealy(m, steps):
                print(row)
        return 0
    for m in machines:
        sys.stdout.write(print_hoa(synthesis.mealy_to_automaton(m)))
    return 0


BOOL = {"action": "store_true"}

# Each subcommand's help, function and arguments as (name or option,
# add_argument keywords, help), read by build_parser and _plain_args.
COMMANDS = {
    "aut": ("inspect and transform automata", cmd_aut, [
        ("files", {"nargs": "*"}, "HOA files ('-' or none: stdin)"),
        ("--stats", BOOL, "print shape statistics"),
        ("--json", BOOL, "with --stats, print JSON"),
        ("--dot", BOOL, "print Graphviz"),
        ("--hide-sinks", BOOL, "with --dot, drop all-accepting sink states"),
        ("--is-empty", BOOL,
         "report emptiness; exit 0 iff every automaton is empty"),
        ("--accepting-run", BOOL, "print an accepting lasso when one exists"),
        ("--remove-fin", BOOL, "rewrite into Fin-free acceptance"),
        ("--remove-alternation", BOOL, "rewrite away universal branching"),
        ("--product", {"metavar": "FILE"},
         "intersect with the automaton in FILE"),
        ("--change-parity", {"metavar": "KIND"},
         "convert parity style, e.g. 'max odd' or 'min-even'"),
        ("--trim", BOOL, "drop unreachable states and false edges"),
        ("--acceptance-name", BOOL, "print the conventional acceptance name"),
        ("--check", {"metavar": "FLAG"},
         "decide a structural flag (e.g. universal, weak)"),
    ]),
    "randaut": ("generate a random automaton", cmd_randaut, [
        ("--states", {"type": int, "default": 10}, None),
        ("--ap", {"type": int, "default": 2}, "number of atomic propositions"),
        ("--density", {"type": float, "default": 0.2},
         "per-state, per-letter edge probability"),
        ("--colors", {"type": int, "default": 0}, None),
        ("--color-density", {"type": float, "default": 0.2},
         "per-edge, per-color probability"),
        ("--seed", {"type": int, "default": 0}, None),
        ("--acceptance", {"metavar": "NAME"},
         "a class name ('parity min even 4'), a formula, or 'random'"),
    ]),
    "game": ("solve ownership-annotated automata", cmd_game, [
        ("files", {"nargs": "*"}, None),
        ("--print-winners", BOOL, None),
        ("--print-strategy-dot", BOOL, None),
        ("--to-mealy", BOOL, "print the induced machine as HOA"),
    ]),
    "mealy": ("work with machines in HOA form", cmd_mealy, [
        ("files", {"nargs": "*"}, None),
        ("--to-aiger", BOOL, "print an AIGER ascii circuit"),
        ("--simulate", {"metavar": "STEPS"},
         "comma-separated input rows, e.g. '10,11,00'"),
    ]),
}


@functools.cache
def build_parser():
    """The argparse parser, built once from COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="elaut",
        description="transition-based automata with Emerson-Lei acceptance")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (summary, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kwargs, text in arguments:
            p.add_argument(flag, help=text, **kwargs)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _plain_spec(name):
    """Subcommand `name`'s positional, its options as {option: (dest,
    type, or None for a flag)} and its namespace's defaults."""
    positional, options, defaults = None, {}, {"func": COMMANDS[name][1]}
    for flag, kwargs, _ in COMMANDS[name][2]:
        dest = flag.lstrip("-").replace("-", "_")
        if flag[0] != "-":
            positional = dest
        elif kwargs is BOOL:
            options[flag], defaults[dest] = (dest, None), False
        else:
            options[flag] = dest, kwargs.get("type", str)
            defaults[dest] = kwargs.get("default")
    return positional, options, defaults


def _plain_args(argv):
    """The namespace argparse makes of a plain argv (see above), or
    None."""
    positional, options, defaults = _plain_spec(argv[0])
    n = 1
    while n < len(argv) and (argv[n][:1] != "-" or argv[n] == "-"):
        n += 1
    if n > 1 and positional is None:
        return None
    args = argparse.Namespace(cmd=argv[0], **defaults)
    if positional:
        setattr(args, positional, argv[1:n])
    words = iter(argv[n:])
    try:
        for word in words:
            dest, kind = options[word]
            value = kind and next(words)          # a flag takes no value
            if kind and value[:1] == "-" != value:
                return None
            setattr(args, dest, kind(value) if kind else True)
    except (KeyError, StopIteration, TypeError, ValueError):
        return None
    return args


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = argv and argv[0] in COMMANDS and _plain_args(argv)
    if not args:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, TypeError, OSError) as exc:
        print("elaut: error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash must not exit 1, which --is-empty reads as "nonempty"
        traceback.print_exc(file=sys.stderr)
        print("elaut: internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
