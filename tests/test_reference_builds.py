"""Constructions that were rewritten for speed, against the plain code
they replaced, kept here as the reference.

remove_fin writes its output's edges as trusted columns through
Automaton.extend_edges; the reference builds the same edges as (src,
dst, cond, colors) rows and hands them to Automaton.new_edges, which
checks each one before extend_edges appends and links them.
random_acceptance picks its merges with a Fenwick tree and folds one
postfix code; the reference pops and inserts formulas in a list.  Both
must give byte-identical results.
"""

import random

import pytest

from elaut import (Automaton, Fin, Inf, f_and, f_or, parse_acceptance,
                   print_hoa, random_automaton, remove_fin, scc_info)
from elaut.acceptance import TRUE, AccTrue, Or, dnf_disjuncts, is_finless
from elaut.algorithms import random_acceptance
from elaut.guards import FALSE_GUARD

from oracle_helpers import reorder_out_lists


def reference_remove_fin(aut):
    """remove_fin as a list of rows for new_edges: the original edges,
    then each edge's jumps into every copy, then each copy's edges."""
    if aut.has_universal_branches():
        raise ValueError("Fin removal needs a nonalternating automaton")
    if is_finless(aut.acceptance):
        return aut.clone(keep_flags=True)
    disjuncts = dnf_disjuncts(aut.acceptance)
    if disjuncts is None:
        disjuncts = [(frozenset(), frozenset())]
    scc_of = scc_info(aut).scc_of
    n = aut.num_states
    edges = list(zip(aut.edge_src[1:], aut.edge_dst[1:], aut.edge_cond[1:],
                     aut.edge_acc[1:]))
    bases = [n * (d + 1) for d in range(len(disjuncts))]
    rows = [(src, dst, cond, 0) for src, dst, cond, _ in edges]
    rows += [(src, base + dst, cond, 0)
             for src, dst, cond, _ in edges for base in bases]
    internal = [(src, dst, cond, bits) for src, dst, cond, bits in edges
                if scc_of[src] >= 0 and scc_of[dst] == scc_of[src]]
    terms = []
    total = 0
    for base, (fins, infs) in zip(bases, disjuncts):
        infs = sorted(infs)
        terms.append(f_and([Inf(c) for c in range(total,
                                                  total + 1 + len(infs))]))
        fin_bits = sum(1 << c for c in fins)
        for src, dst, cond, bits in internal:
            if not bits & fin_bits:
                rows.append((base + src, base + dst, cond,
                             1 << total | sum(1 << (total + 1 + k)
                                              for k, c in enumerate(infs)
                                              if bits >> c & 1)))
        total += 1 + len(infs)
    out = Automaton(aut.aps, aut.store)
    out.new_states(n * (1 + len(disjuncts)))
    out.new_edges(rows)
    out.set_acceptance(total, f_or(terms))
    if n:
        out.set_init(aut.init)
    return out


def reference_random_acceptance(colors, rng):
    """random_acceptance with one f_and/f_or per merge, popped from and
    inserted into a list."""
    if colors == 0:
        return TRUE
    atoms = [Fin(c) if rng.random() < 0.5 else Inf(c)
             for c in range(colors)]
    rng.shuffle(atoms)
    while len(atoms) > 1:
        i = rng.randrange(len(atoms) - 1)
        a = atoms.pop(i)
        b = atoms.pop(i)
        merged = f_and([a, b]) if rng.random() < 0.5 else f_or([a, b])
        atoms.insert(i, merged)
    return atoms[0]


# ---------------------------------------------------------- remove_fin

def _random_input(seed):
    rng = random.Random(seed)
    colors = rng.randint(1, 4)
    aut = random_automaton(rng.randint(1, 7), rng.randint(0, 2),
                           density=rng.random(), colors=colors,
                           color_density=rng.random(), seed=seed)
    extra = rng.randint(0, 2)         # unreachable states with edges
    first = aut.new_states(extra)
    for s in range(first, first + extra):
        aut.new_edge(s, rng.randrange(aut.num_states), 1, rng.getrandbits(3))
        aut.new_edge(s, s, 1, 0)
    for _ in range(rng.randint(0, 3)):   # false guards, colors >= num_sets
        src = rng.randrange(aut.num_states)
        aut.new_edge(src, rng.randrange(aut.num_states),
                     rng.choice([FALSE_GUARD, 1]),
                     rng.getrandbits(colors + 2))
    if rng.random() < 0.5:
        reorder_out_lists(aut)
    return aut


def _hand_inputs():
    def loops(acc, colors):
        aut = Automaton(["a"])
        aut.new_states(3)
        for src, dst, bits in [(0, 1, 1), (1, 0, 2), (1, 1, 0), (0, 2, 3),
                               (2, 2, 1), (2, 2, 2)]:
            aut.new_edge(src, dst, 1, bits)
        aut.set_acceptance(colors, acc)
        aut.set_init(0)
        return aut
    yield "empty DNF", loops(parse_acceptance("Fin(0)&Inf(0)"), 1)
    yield "unfolded t", loops(Or([Fin(0), AccTrue()]), 1)
    yield "streett", loops(parse_acceptance("(Fin(0)|Inf(1))&Fin(1)"), 2)
    zero = Automaton()
    zero.set_acceptance(1, parse_acceptance("Fin(0)"))
    yield "no states", zero
    edgeless = Automaton()
    edgeless.new_states(2)
    edgeless.set_acceptance(2, parse_acceptance("Fin(0)|Inf(1)"))
    yield "no edges", edgeless


def _differential_inputs():
    yield from _hand_inputs()
    for seed in range(150):
        yield "seed %d" % seed, _random_input(seed)


INPUTS = dict(_differential_inputs())


def _layout(aut):
    return aut.pack_edges(), aut._succ, aut._tail, print_hoa(aut)


@pytest.mark.parametrize("name", list(INPUTS))
def test_remove_fin_matches_row_reference(name):
    aut = INPUTS[name]
    got = remove_fin(aut)
    assert got.check()
    assert _layout(got) == _layout(reference_remove_fin(aut))


def test_differential_inputs_cover_the_edge_cases():
    assert dnf_disjuncts(INPUTS["empty DNF"].acceptance) == []
    assert dnf_disjuncts(INPUTS["unfolded t"].acceptance) is None
    assert INPUTS["no states"].num_states == 0
    randoms = [a for name, a in INPUTS.items() if name.startswith("seed")]
    assert sum(not is_finless(a.acceptance) for a in randoms) > 50
    assert any(FALSE_GUARD in a.edge_cond[1:] for a in randoms)
    assert any(max(a.edge_acc[1:]).bit_length() > a.num_sets
               for a in randoms)
    assert any(-1 in scc_info(a).scc_of for a in randoms)
    assert any(list(a.out_indices(s)) != sorted(a.out_indices(s))
               for a in randoms for s in range(a.num_states))


# --------------------------------------------------- random_acceptance

@pytest.mark.parametrize("colors", list(range(60)) + [200, 1000])
def test_random_acceptance_matches_list_reference(colors):
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        got = random_acceptance(colors, rng)
        assert got.code == reference_random_acceptance(colors, ref).code
        assert rng.getstate() == ref.getstate()   # the same draws were made
