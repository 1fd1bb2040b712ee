"""Output checks for the benchmark, written without elaut.

Everything here reads the HOA, lasso and AIGER text itself and decides
answers from first principles: an Emerson-Lei emptiness check on its own
product for `check`, its own Zielonka solver and AIGER simulator for
`synth`, structural checks for `transform`.  (The `transform` print
fixpoint check in run.py is the one check that calls elaut, since it
tests elaut's own parser against its own printer.)
"""

from __future__ import annotations

import random
import re
from collections import deque

# ------------------------------------------------------------ HOA reading


def read_hoa(text):
    """The parts of one printed HOA automaton the checks need.

    Returns a dict with aps, start (list), num_sets, acceptance (tree),
    players, controllable, states and edges, where an edge is
    (src, label_bits, dsts, colors) and label_bits is the set of
    satisfying minterms over the automaton's APs as an int bit vector.
    """
    head, _, body = text.partition("--BODY--\n")
    if not body.rstrip().endswith("--END--"):
        raise ValueError("no --END--")
    h = {}
    for line in head.splitlines():
        key, _, val = line.partition(": ")
        h[key] = val
    aps = re.findall(r'"((?:[^"\\]|\\.)*)"', h["AP"])
    if len(aps) != int(h["AP"].split()[0]):
        raise ValueError("AP count mismatch")
    num_sets, _, acc_text = h["Acceptance"].partition(" ")
    out = {
        "aps": aps,
        "states": int(h["States"]),
        "start": [int(s) for s in h.get("Start", "").split("&") if s],
        "num_sets": int(num_sets),
        "acceptance": parse_acceptance(acc_text),
        "players": [int(p) for p in h["spot-state-player"].split()]
        if "spot-state-player" in h else None,
        "controllable": [int(p) for p in h["controllable-AP"].split()]
        if "controllable-AP" in h else None,
        "edges": [],
    }
    state_acc = "state-acc" in h.get("properties", "").split()
    labels = {}
    src = None
    state_colors = ()
    for line in body.splitlines()[:-1]:
        if line.startswith("State: "):
            rest = line[len("State: "):]
            src = int(rest.split()[0])
            m = re.search(r"\{([0-9 ]*)\}$", rest)
            state_colors = tuple(int(c) for c in m.group(1).split()) \
                if state_acc and m else ()
            continue
        m = re.fullmatch(r"\[([^\]]*)\] ([0-9&]+)(?: \{([0-9 ]*)\})?", line)
        if m is None or src is None:
            raise ValueError("unreadable edge line %r" % line)
        lab = m.group(1)
        if lab not in labels:
            labels[lab] = label_bits(lab, len(aps))
        colors = state_colors + tuple(
            int(c) for c in (m.group(3) or "").split())
        dsts = tuple(int(d) for d in m.group(2).split("&"))
        out["edges"].append((src, labels[lab], dsts, frozenset(colors)))
    return out


def label_bits(text, naps):
    """Satisfying minterms of a label over AP indices, as a bit vector."""
    nm = 1 << naps
    full = (1 << nm) - 1
    toks = re.findall(r"\d+|[!&|()tf]", text)
    if "".join(toks) != re.sub(r"\s+", "", text):
        raise ValueError("bad label %r" % text)
    pos = 0

    def lit(ap):
        if ap >= naps:
            raise ValueError("AP %d out of range" % ap)
        return sum(1 << m for m in range(nm) if (m >> ap) & 1)

    def primary():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "!":
            return full ^ primary()
        if tok == "(":
            v = disj()
            pos += 1
            return v
        if tok == "t":
            return full
        if tok == "f":
            return 0
        return lit(int(tok))

    def conj():
        nonlocal pos
        v = primary()
        while pos < len(toks) and toks[pos] == "&":
            pos += 1
            v &= primary()
        return v

    def disj():
        nonlocal pos
        v = conj()
        while pos < len(toks) and toks[pos] == "|":
            pos += 1
            v |= conj()
        return v

    v = disj()
    if pos != len(toks):
        raise ValueError("trailing input in label %r" % text)
    return v


def lift(bits, local_aps, all_aps):
    """Re-express a minterm set over local_aps as one over all_aps."""
    where = [all_aps.index(a) for a in local_aps]
    out = 0
    for m in range(1 << len(all_aps)):
        local = 0
        for i, w in enumerate(where):
            local |= ((m >> w) & 1) << i
        if (bits >> local) & 1:
            out |= 1 << m
    return out


# ----------------------------------------------------- acceptance formulas

def parse_acceptance(text):
    """A tree of ("t",), ("f",), ("Fin", c), ("Inf", c), ("&", kids) and
    ("|", kids)."""
    toks = re.findall(r"Fin|Inf|\d+|[!&|()tf]", text)
    pos = 0

    def primary():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok in ("Fin", "Inf"):
            color = int(toks[pos + 1])
            pos += 3
            return (tok, color)
        if tok == "(":
            v = disj()
            pos += 1
            return v
        return (tok,)

    def chain(op, sub):
        nonlocal pos
        kids = [sub()]
        while pos < len(toks) and toks[pos] == op:
            pos += 1
            kids.append(sub())
        return kids[0] if len(kids) == 1 else (op, kids)

    def disj():
        return chain("|", lambda: chain("&", primary))

    return disj()


def eval_acc(f, colors):
    """Does a cycle seeing exactly `colors` infinitely often satisfy f?"""
    op = f[0]
    if op == "t":
        return True
    if op == "f":
        return False
    if op == "Inf":
        return f[1] in colors
    if op == "Fin":
        return f[1] not in colors
    kids = (eval_acc(k, colors) for k in f[1])
    return all(kids) if op == "&" else any(kids)


def fin_colors(f):
    if f[0] == "Fin":
        return {f[1]}
    if f[0] in ("&", "|"):
        return set().union(*(fin_colors(k) for k in f[1]))
    return set()


# ------------------------------------------------------ graphs and SCCs

def sccs(edges):
    """Strongly connected components of (src, dst, colors) edges, as
    lists of their internal edges; components without one are skipped."""
    adj = {}
    for e in edges:
        adj.setdefault(e[0], []).append(e[1])
        adj.setdefault(e[1], [])
    index, low, comp_of = {}, {}, {}
    stack, on_stack = [], set()
    counter = 0
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is None:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        x = stack.pop()
                        on_stack.discard(x)
                        comp_of[x] = v
                        if x == v:
                            break
            elif w not in index:
                index[w] = low[w] = counter
                counter += 1
                stack.append(w)
                on_stack.add(w)
                work.append((w, iter(adj[w])))
            elif w in on_stack:
                low[v] = min(low[v], index[w])
    internal = {}
    for e in edges:
        if comp_of[e[0]] == comp_of[e[1]]:
            internal.setdefault(comp_of[e[0]], []).append(e)
    return list(internal.values())


def has_accepting_cycle(edges, acc):
    """Emerson-Lei emptiness on (src, dst, colors) edges.

    A component whose colors satisfy acc has an accepting cycle (one
    through all its edges).  Otherwise any accepting cycle inside it
    misses some Fin color the component has, so it lives in a component
    of the graph without that color's edges.
    """
    for comp in sccs(edges):
        colors = frozenset().union(*(e[2] for e in comp))
        if eval_acc(acc, colors):
            return True
        for f in fin_colors(acc) & colors:
            if has_accepting_cycle([e for e in comp if f not in e[2]], acc):
                return True
    return False


def product_nonempty(sys_text, prop_text):
    """Does the synchronous product of the two automata accept a word?

    The system side's acceptance must be t; the product keeps the
    property's colors."""
    a = read_hoa(sys_text)
    b = read_hoa(prop_text)
    if a["acceptance"] != ("t",):
        raise ValueError("system acceptance must be t")
    aps = a["aps"] + [p for p in b["aps"] if p not in a["aps"]]
    out_a = {}
    for (s, bits, dsts, _) in a["edges"]:
        out_a.setdefault(s, []).append((lift(bits, a["aps"], aps), dsts[0]))
    out_b = {}
    for (s, bits, dsts, colors) in b["edges"]:
        out_b.setdefault(s, []).append(
            (lift(bits, b["aps"], aps), dsts[0], colors))
    start = (a["start"][0], b["start"][0])
    seen = {start}
    queue = deque([start])
    edges = []
    while queue:
        s, t = queue.popleft()
        for ga, da in out_a.get(s, ()):
            for gb, db, colors in out_b.get(t, ()):
                if ga & gb:
                    key = (da, db)
                    edges.append(((s, t), key, colors))
                    if key not in seen:
                        seen.add(key)
                        queue.append(key)
    return has_accepting_cycle(edges, b["acceptance"])


# ------------------------------------------------------------------ lassos

_RUN_LINE = re.compile(r"  (\d+) --\[([^\]]*)\]--> (\d+)")


def check_lasso(text):
    """None if the printed run is a well-formed lasso, else the reason.

    Each edge must start where the previous one ended, the prefix must end
    where the cycle starts, the cycle must be nonempty and close, and no
    label may be false."""
    lines = text.rstrip("\n").split("\n")
    if not lines or lines[0] != "prefix:" or "cycle:" not in lines:
        return "not a prefix/cycle listing"
    cut = lines.index("cycle:")
    parts = []
    for chunk in (lines[1:cut], lines[cut + 1:]):
        steps = []
        for line in chunk:
            m = _RUN_LINE.fullmatch(line)
            if m is None:
                return "unreadable run line %r" % line
            if m.group(2).strip() == "f":
                return "false label on %r" % line
            steps.append((int(m.group(1)), int(m.group(3))))
        parts.append(steps)
    prefix, cycle = parts
    if not cycle:
        return "empty cycle"
    walk = prefix + cycle
    for (_, d), (s, _) in zip(walk, walk[1:]):
        if d != s:
            return "edges do not chain at %d -> %d" % (d, s)
    if cycle[-1][1] != cycle[0][0]:
        return "cycle does not close"
    return None


# ------------------------------------------------------------------- games

def solve_parity(arena):
    """Winning region of player 1 in an edge-colored max-odd parity game.

    Each edge becomes a node whose priority is its color + 2, and states
    get priority 0, so every cycle's highest priority comes from an edge.
    Classic Zielonka recursion with attractors.
    """
    n = arena["states"]
    owner = list(arena["players"])
    prio = [0] * n
    succ = [[] for _ in range(n)]
    for (s, bits, dsts, colors) in arena["edges"]:
        if not bits:
            continue
        v = len(owner)
        owner.append(0)
        prio.append(max(colors) + 2 if colors else 0)
        succ.append([dsts[0]])
        succ[s].append(v)
    if any(not succ[s] for s in range(n)):
        raise ValueError("arena has a dead end")
    pred = [[] for _ in owner]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)

    def attract(p, target, region):
        out = set(target)
        count = {}
        queue = deque(out)
        while queue:
            w = queue.popleft()
            for v in pred[w]:
                if v not in region or v in out:
                    continue
                if owner[v] == p:
                    out.add(v)
                    queue.append(v)
                else:
                    if v not in count:
                        count[v] = sum(1 for x in succ[v] if x in region)
                    count[v] -= 1
                    if count[v] == 0:
                        out.add(v)
                        queue.append(v)
        return out

    def zielonka(region):
        if not region:
            return set(), set()
        d = max(prio[v] for v in region)
        p = d % 2
        a = attract(p, {v for v in region if prio[v] == d}, region)
        w = zielonka(region - a)
        if not w[1 - p]:
            won = [set(), set()]
            won[p] = set(region)
            return tuple(won)
        b = attract(1 - p, w[1 - p], region)
        w2 = list(zielonka(region - b))
        w2[1 - p] |= b
        return tuple(w2)

    return zielonka(set(range(len(owner))))[1]


# ------------------------------------------------------------------ AIGER

def read_aag(text):
    """An AIGER ascii circuit: inputs, latches, outputs, gates, names."""
    lines = text.rstrip("\n").split("\n")
    tag, *nums = lines[0].split()
    if tag != "aag" or len(nums) != 5:
        raise ValueError("bad aag header %r" % lines[0])
    _, ni, nl, no, na = (int(x) for x in nums)
    at = 1
    inputs = [int(lines[at + k]) for k in range(ni)]
    at += ni
    latches = [tuple(int(x) for x in lines[at + k].split()) for k in range(nl)]
    at += nl
    outputs = [int(lines[at + k]) for k in range(no)]
    at += no
    gates = [tuple(int(x) for x in lines[at + k].split()) for k in range(na)]
    at += na
    names = {}
    for line in lines[at:]:
        if line == "c":
            break
        key, _, name = line.partition(" ")
        names[key] = name
    return {"inputs": inputs, "latches": latches, "outputs": outputs,
            "gates": gates, "names": names}


def simulate_aag(aig, rows):
    """Output rows for input rows (lists of bools); latches reset to 0."""
    val = {0: False}

    def lit(x):
        return val[x & ~1] ^ bool(x & 1)

    state = [False] * len(aig["latches"])
    out = []
    for row in rows:
        for lit_in, v in zip(aig["inputs"], row):
            val[lit_in] = v
        for (lat, _), v in zip(aig["latches"], state):
            val[lat] = v
        for (lhs, r0, r1) in aig["gates"]:
            val[lhs] = lit(r0) and lit(r1)
        out.append([lit(o) for o in aig["outputs"]])
        state = [lit(nxt) for (_, nxt) in aig["latches"]]
    return out


def check_circuit(arena_text, aag_text, rng, steps=40):
    """None if the circuit, driven on random input rows, only ever takes
    arena moves whose labels hold; else the reason."""
    arena = read_hoa(arena_text)
    aig = read_aag(aag_text)
    aps = arena["aps"]
    outs = arena["controllable"]
    ins = [i for i in range(len(aps)) if i not in outs]
    in_names = [aig["names"].get("i%d" % k) for k in range(len(aig["inputs"]))]
    out_names = [aig["names"].get("o%d" % k)
                 for k in range(len(aig["outputs"]))]
    if in_names != [aps[i] for i in ins] or \
            out_names != [aps[o] for o in outs]:
        return "circuit ports %s/%s differ from the arena's" % (in_names,
                                                               out_names)
    out_edges = {}
    for (s, bits, dsts, _) in arena["edges"]:
        out_edges.setdefault(s, []).append((bits, dsts[0]))
    rows = [[rng.random() < 0.5 for _ in ins] for _ in range(steps)]
    here = {arena["start"][0]}
    for t, (row, orow) in enumerate(zip(rows, simulate_aag(aig, rows))):
        m = sum(1 << i for i, v in zip(ins, row) if v) \
            + sum(1 << o for o, v in zip(outs, orow) if v)
        mids = {d for s in here for (bits, d) in out_edges.get(s, ())
                if (bits >> m) & 1}
        here = {d for s in mids for (bits, d) in out_edges.get(s, ())
                if (bits >> m) & 1}
        if not here:
            return "step %d: no arena move matches minterm %d" % (t, m)
    return None


# -------------------------------------------------------------- transform

def check_change_parity(in_text, out_text):
    """None if a parity min even input became a max odd output with the
    same edges, recolored by a map that reverses the color order and
    turns even colors odd.

    Under min even an edge's smallest color counts, and an uncolored edge
    acts as the color n past the last, since a cycle without colors is
    accepted exactly when n is even."""
    a, b = read_hoa(in_text), read_hoa(out_text)
    if len(a["edges"]) != len(b["edges"]):
        return "edge count changed"
    mapping = {}
    for ea, eb in zip(a["edges"], b["edges"]):
        if ea[:3] != eb[:3]:
            return "edge %r became %r" % (ea[:3], eb[:3])
        if len(eb[3]) != 1:
            return "output edge without exactly one color"
        c = min(ea[3]) if ea[3] else a["num_sets"]
        if mapping.setdefault(c, min(eb[3])) != min(eb[3]):
            return "color %s maps to two colors" % c
    colors = sorted(mapping)
    for lo, hi in zip(colors, colors[1:]):
        if mapping[lo] <= mapping[hi]:
            return "color order not reversed"
    for c in colors:
        if (c % 2 == 0) != (mapping[c] % 2 == 1):
            return "color %d changed acceptance" % c
    return None


def check_transform(kind, in_text, out_text):
    """None if the output passes the structural checks for its kind."""
    out = read_hoa(out_text)
    if kind == "change-parity":
        return check_change_parity(in_text, out_text)
    if kind == "remove-fin" and fin_colors(out["acceptance"]):
        return "acceptance still has Fin"
    if kind == "remove-alternation" and (
            len(out["start"]) != 1
            or any(len(e[2]) != 1 for e in out["edges"])):
        return "universal branching left"
    return None


def counts(text):
    """states/edges/colors summary of a printed automaton."""
    h = read_hoa(text)
    return "states=%d edges=%d colors=%d" % (h["states"], len(h["edges"]),
                                              h["num_sets"])


def job_rng(seed, job_id):
    return random.Random("rows:%d:%s" % (seed, job_id))
