"""Seeded input generators for the three benchmark workloads.

Every generator draws from its own `random.Random(seed)` and builds
automata through the public elaut API only (`random_automaton`,
`Automaton`, `make_game`, `print_hoa` and the acceptance-class helpers),
so the same seed gives byte-identical HOA files.  Sizes are stratified:
job k of n draws its size from the k-th of n equal slices of the
log-uniform range, which keeps the size mix, and so the run time, close
from one seed to the next.

A job is one or two `elaut` command lines (the second reads the first's
output on stdin) plus what the checkers need to judge its output.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from checkers import solve_parity
from elaut import (AccClass, Automaton, Fin, Inf, Or, class_colors, f_and,
                   f_or, generalized_buchi, make_class, make_game, parity,
                   print_hoa, rabin, random_automaton, streett)

WORKLOADS = ("check", "synth", "transform")

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "check": "large random system times small property, as in model "
             "checking: product, SCC emptiness, quadratic run extraction "
             "and HOA reading dominate",
    "synth": "parity games to Mealy machines to AIGER: minterm-loop guard "
             "ops (restrict, exists, support, to_cubes), label parsing "
             "and game solving dominate",
    "transform": "Fin removal, parity change and dealternation write more "
                 "HOA than they read: printing, to_cubes, new_edge and "
                 "acceptance DNF work dominate",
}

# Counterexample (--accepting-run) jobs on `check` use systems of at most
# this many states.  Run extraction on the seed code grows with the cube
# of the product's size: products of 180 states took 0.2-0.4 s, of 350
# states 1.2-1.8 s and of 700 states up to 11 s.  At this cap a product
# has at most 6 x 20 = 120 states, and no job took over 0.2 s.
ACCEPTING_RUN_MAX_STATES = 20
PROPERTY_STATES = (3, 4, 5, 6)
COLOR_DENSITIES = (0.0, 0.15, 0.3)

PROPERTY_CLASSES = (
    AccClass("Buchi"), generalized_buchi(2), AccClass("co-Buchi"),
    streett(1), rabin(1), parity("max", "odd", 3),
)


@dataclass
class Job:
    """One closed-loop request: `stages` run in order, stage k+1 reading
    stage k's stdout, and only while the previous stage exited 0."""
    id: str
    kind: str
    stages: list
    meta: dict = field(default_factory=dict)


def _strata(rng, n, lo, hi):
    """n log-uniform sizes in [lo, hi], the k-th from the k-th of n equal
    slices of the range."""
    return [int(round(lo * (hi / lo) ** ((k + rng.random()) / n)))
            for k in range(n)]


def _write(files, path, text):
    files[path] = text
    return path


# ---------------------------------------------------------------- check

def gen_check(rng, workdir, files):
    """Systems with acceptance t over a,b,c times complete properties of
    3-6 states over b,c,d, so a product has about |system| x |property|
    states whatever the verdict.

    40 systems of 30-300 states each meet the four property sizes in
    --is-empty jobs; 14 systems of at most ACCEPTING_RUN_MAX_STATES do the
    same in --accepting-run jobs.  Class and color density cycle over the
    jobs; properties without colors make most of the empty verdicts.
    """
    jobs = []
    for kind, slices, lo, hi in (
            ("is-empty", 40, 30, 300),
            ("accepting-run", 14, 8, ACCEPTING_RUN_MAX_STATES)):
        for n in _strata(rng, slices, lo, hi):
            sys_aut = random_automaton(n, ["a", "b", "c"], density=0.3,
                                       seed=rng.randrange(1 << 30))
            sys_path = _write(files, os.path.join(
                workdir, "sys%03d.hoa" % len(jobs)), print_hoa(sys_aut))
            for k in PROPERTY_STATES:
                j = len(jobs)
                cls = PROPERTY_CLASSES[j % len(PROPERTY_CLASSES)]
                density = COLOR_DENSITIES[j // len(PROPERTY_CLASSES)
                                          % len(COLOR_DENSITIES)]
                prop = random_automaton(k, ["b", "c", "d"], density=1.0,
                                        colors=class_colors(cls),
                                        color_density=density,
                                        acceptance=cls,
                                        seed=rng.randrange(1 << 30))
                prop_path = _write(files, os.path.join(
                    workdir, "prop%03d.hoa" % j), print_hoa(prop))
                argv = ["aut", sys_path, "--product", prop_path,
                        "--" + kind]
                jobs.append(Job("check%03d" % j, kind, [argv],
                                {"sys": sys_path, "prop": prop_path}))
    return jobs


# ---------------------------------------------------------------- synth

def _arena_edges(rng, n_env, n_in, n_out, ncolors):
    """The moves of a bipartite arena as (src, valuations, dst, color).

    States 0..n_env-1 belong to the environment, the next n_env to the
    controller.  An environment state splits the input valuations into
    groups, one edge each, toward controller states; a controller state
    answers with pairwise-disjoint sets of output valuations toward
    environment states."""
    def split(count, parts, keep_all):
        groups = [set() for _ in range(parts)]
        for v in range(count):
            g = rng.randrange(parts + (0 if keep_all else 1))
            if g < parts:
                groups[g].add(v)
        return [g for g in groups if g]

    edges = []
    for s in range(n_env):
        for group in split(1 << n_in, rng.randint(1, 3), True):
            edges.append((s, group, n_env + rng.randrange(n_env),
                          rng.randrange(ncolors)))
    for c in range(n_env, 2 * n_env):
        groups = split(1 << n_out, rng.randint(1, 3), False) \
            or [{rng.randrange(1 << n_out)}]
        for group in groups:
            edges.append((c, group, rng.randrange(n_env),
                          rng.randrange(ncolors)))
    return edges


def _arena(edges, n_env, n_in, n_out, ncolors):
    """The arena as a max-odd parity game: inputs are APs 0..n_in-1,
    outputs the rest, and every edge carries exactly one color."""
    aps = ["i%d" % i for i in range(n_in)] + ["o%d" % j for j in range(n_out)]
    aut = Automaton(aps)
    aut.new_states(2 * n_env)
    nm = 1 << (n_in + n_out)
    for src, valuations, dst, color in edges:
        shift, width = (0, n_in) if src < n_env else (n_in, n_out)
        bits = 0
        for m in range(nm):
            if (m >> shift) & ((1 << width) - 1) in valuations:
                bits |= 1 << m
        aut.new_edge(src, dst, aut.store.intern(bits), [color])
    aut.set_acceptance(ncolors, make_class(parity("max", "odd", ncolors)))
    aut.set_init(0)
    make_game(aut, [0] * n_env + [1] * n_env)
    aut.set_named_prop("synthesis-outputs",
                       list(range(n_in, n_in + n_out)))
    return aut


def gen_synth(rng, workdir, files):
    """Arenas with 2-4 inputs and 2-4 outputs: every pair of counts meets
    every size slice, and colors cycle through 4-8.  A slice is a budget
    of 40-400 environment states at four APs that halves with each
    further AP, so the biggest arenas have the fewest APs.

    Realizable jobs run twice as long as unrealizable ones, which stop
    after solving, so the mix is fixed: arenas are redrawn until the
    benchmark's own solver finds them realizable exactly when their
    highest color is odd (the controller's), which most draws already
    are.  That makes three jobs in five realizable."""
    plan = [(n_in, n_out, budget)
            for n_in in (2, 3, 4) for n_out in (2, 3, 4)
            for budget in _strata(rng, 12, 40, 400)]
    jobs = []
    for j, (n_in, n_out, budget) in enumerate(plan):
        n_env = max(4, budget >> (n_in + n_out - 4))
        ncolors = 4 + j % 5
        while True:
            edges = _arena_edges(rng, n_env, n_in, n_out, ncolors)
            game = {"states": 2 * n_env, "players": [0] * n_env + [1] * n_env,
                    "edges": [(s, 1, (d,), {c}) for s, _, d, c in edges]}
            if (0 in solve_parity(game)) == (ncolors % 2 == 0):
                break
        arena = _arena(edges, n_env, n_in, n_out, ncolors)
        path = _write(files, os.path.join(workdir, "arena%03d.hoa" % j),
                      print_hoa(arena))
        jobs.append(Job("synth%03d" % j, "synth",
                        [["game", path, "--to-mealy"],
                         ["mealy", "-", "--to-aiger"]],
                        {"arena": path}))
    return jobs


# ------------------------------------------------------------ transform

def _dnf_size(f):
    """Disjunct count of the formula's DNF before simplification."""
    if isinstance(f, (Fin, Inf)):
        return 1
    sizes = [_dnf_size(c) for c in f.children]
    if isinstance(f, Or):
        return sum(sizes)
    out = 1
    for s in sizes:
        out *= s
    return out


def _el_formula(rng, colors, terms):
    """A random positive formula using each color once, with at least one
    Fin atom, redrawn until its DNF has exactly `terms` disjuncts."""
    while True:
        atoms = [(Fin if rng.random() < 0.5 else Inf)(c)
                 for c in range(colors)]
        if not any(isinstance(a, Fin) for a in atoms):
            continue
        rng.shuffle(atoms)
        while len(atoms) > 1:
            i = rng.randrange(len(atoms) - 1)
            pair = [atoms.pop(i), atoms.pop(i)]
            atoms.insert(i, f_and(pair) if rng.random() < 0.5
                         else f_or(pair))
        if _dnf_size(atoms[0]) == terms:
            return atoms[0]


def _alternating(rng, n, weak):
    """A small alternating automaton over three APs.

    Weak ones only branch forward (destinations >= source, so every SCC
    is a single state), have 2-3 edges a state and color all of a
    state's edges alike.  Buchi ones branch anywhere under Inf(0) with 2
    edges a state; their breakpoint construction grows fast (at 8
    states with 2-3 edges it can take seconds), so they stay at 5-6."""
    aut = Automaton(["p", "q", "r"])
    aut.new_states(n)
    accepting = {s for s in range(n) if rng.random() < 0.5}
    for s in range(n):
        for _ in range(rng.randint(2, 3) if weak else 2):
            lo = s if weak else 0
            members = [rng.randrange(lo, n)
                       for _ in range(rng.choice((1, 2, 3) if weak
                                                 else (1, 2)))]
            dst = aut.new_univ_dest_group(members)
            label = aut.store.intern(rng.randrange(1, 256))
            if weak:
                colors = [0] if s in accepting else None
            else:
                colors = [0] if rng.random() < 0.4 else None
            aut.new_edge(s, dst, label, colors)
    aut.set_acceptance(1, Inf(0))
    aut.set_init(0)
    return aut


def gen_transform(rng, workdir, files):
    """36 jobs each of --remove-fin --trim (60-250 states, 4-9 colors,
    1-6 DNF disjuncts), --change-parity (parity min even, 60-600
    states, 3-6 colors) and --remove-alternation (weak alternating with
    5-8 states, Buchi alternating with 5-6), with sizes from equal slices
    and the other parameters cycling."""
    jobs = []
    for j, n in enumerate(_strata(rng, 36, 60, 250)):
        colors = 4 + j % 6
        aut = random_automaton(n, 2 + j % 2, density=0.3, colors=colors,
                               color_density=0.2,
                               acceptance=_el_formula(
                                   rng, colors, min(colors, 1 + j // 6)),
                               seed=rng.randrange(1 << 30))
        jobs.append(("remove-fin", aut, ["--remove-fin", "--trim"]))
    for j, n in enumerate(_strata(rng, 36, 60, 600)):
        colors = 3 + j % 4
        aut = random_automaton(n, 2 + j % 2, density=0.3, colors=colors,
                               color_density=0.3,
                               acceptance=parity("min", "even", colors),
                               seed=rng.randrange(1 << 30))
        jobs.append(("change-parity", aut, ["--change-parity", "max odd"]))
    for j in range(36):
        weak = j % 2 == 0
        aut = _alternating(rng, 5 + j // 2 % (4 if weak else 2), weak)
        jobs.append(("remove-alternation", aut, ["--remove-alternation"]))
    out = []
    for j, (kind, aut, flags) in enumerate(jobs):
        path = _write(files, os.path.join(workdir, "in%03d.hoa" % j),
                      print_hoa(aut))
        out.append(Job("transform%03d" % j, kind, [["aut", path] + flags],
                       {"input": path}))
    return out


GENERATORS = {"check": gen_check, "synth": gen_synth,
              "transform": gen_transform}


def generate(workload, seed, workdir):
    """Build the jobs of one workload and write their input files.

    Returns (jobs, files) where files maps each written path to its text.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    files = {}
    jobs = GENERATORS[workload](rng, workdir, files)
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    order = random.Random("order:%s:%d" % (workload, seed))
    order.shuffle(jobs)
    return jobs, files
