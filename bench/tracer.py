"""In-memory tracing of elaut from outside the package.

`Tracer.install()` swaps wrappers in for the public functions that
`elaut.cli` calls, where `cli` looks them up: the names it imported at
load time (`parse_hoa_stream`, `print_hoa`, `trim`, `change_parity`) on
the `cli` module, and the `algorithms`/`synthesis` functions on their own
modules, so their internal calls to each other (`scc_info` inside
`algorithms`, `solve_parity_max_odd` inside `synthesis`) are wrapped too.
Those calls become spans: name, start, end, parent span and job id.

`GuardStore` methods and `Automaton.new_edge` run hundreds of thousands
of times per job, so they are only counted: calls and summed self time
per method, no span per call.

Self time is kept per wrapped name and per layer (the elaut module the
name belongs to).  Each job is a root frame of the `cli` layer, so the
layer self times of a job add up to its wall time, with whatever no
wrapper covers showing up as `cli` self time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from elaut import acceptance, algorithms, cli, graph, guards, synthesis

# (module object, attribute, layer) of every function traced as a span
SPANNED = (
    [(cli, name, layer) for name, layer in (
        ("parse_hoa_stream", "hoa"), ("print_hoa", "hoa"),
        ("trim", "graph"), ("change_parity", "acceptance"))]
    + [(algorithms, name, "algorithms") for name in (
        "product", "is_empty", "accepting_run", "remove_fin",
        "remove_alternation", "scc_info")]
    + [(synthesis, name, "synthesis") for name in (
        "solve_game", "solve_parity_max_odd", "solve_safety",
        "colorize_parity", "strategy_to_mealy", "mealy_to_automaton",
        "automaton_to_mealy", "validate_mealy", "mealy_to_aiger",
        "print_aiger")]
)

MINTERM_OPS = ("restrict", "exists", "support", "to_cubes", "translate_from",
               "parse_label", "print_label")
BOOLEAN_OPS = ("g_and", "g_or", "intern")
COUNTED = ([(guards.GuardStore, name, "guards")
            for name in MINTERM_OPS + BOOLEAN_OPS]
           + [(graph.Automaton, "new_edge", "graph")])

LAYERS = ("cli", "hoa", "guards", "graph", "acceptance", "algorithms",
          "synthesis")


class Tracer:
    def __init__(self):
        self.spans = []            # [id, name, start, end, parent, job]
        self.acc = [0.0]           # child-time accumulators, one per frame
        self.span_stack = [None]
        self.job = None
        self._job_t0 = 0.0
        self.self_s = defaultdict(float)    # name -> summed self time
        self.total_s = defaultdict(float)   # span name -> summed wall time
        self.calls = defaultdict(int)       # name -> call count
        self.layer_of = {"job": "cli"}
        self.facts = defaultdict(float)     # named sizes and counters
        self.jobs = []                      # wall time of each traced job
        self._saved = []
        self._dnf_inputs = []

    # -- frames --------------------------------------------------------

    def _enter(self):
        self.acc.append(0.0)
        return perf_counter()

    def _leave(self, name, t0):
        dt = perf_counter() - t0
        child = self.acc.pop()
        self.acc[-1] += dt
        self.self_s[name] += dt - child
        self.calls[name] += 1
        return dt

    def begin_job(self, job_id):
        self.job = job_id
        self._job_t0 = self._enter()
        self.span_stack.append(None)

    def end_job(self):
        self.span_stack.pop()
        self.jobs.append(self._leave("job", self._job_t0))
        self.acc[-1] = 0.0
        self.job = None
        f = self.facts
        f["store_size"] += f.pop("job_store_size", 0)
        f["aps"] += f.pop("job_aps", 0)

    # -- wrappers ------------------------------------------------------

    def _counted(self, name, fn):
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, t0)
        return wrapper

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.span_stack[-1]
            self.span_stack.append(sid)
            t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_stack.pop()
                dt = self._leave(name, t0)
                self.total_s[name] += dt
                self.spans.append([sid, name, t0, t0 + dt, parent, self.job])
            self._observe(name, args, result, dt)
            return result
        return wrapper

    def install(self):
        for module, name, layer in SPANNED:
            self._swap(module, name, self._spanned(name, getattr(module,
                                                                 name)))
            self.layer_of[name] = layer
        for cls, name, layer in COUNTED:
            self._swap(cls, name, self._counted(name, getattr(cls, name)))
            self.layer_of[name] = layer

    def _swap(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, old in reversed(self._saved):
            setattr(owner, name, old)
        self._saved = []

    # -- sizes ---------------------------------------------------------

    def _observe(self, name, args, result, dt):
        f = self.facts
        if name == "parse_hoa_stream":
            f["bytes_in"] += len(args[0])
            for aut in result:
                self._store(aut)
        elif name == "print_hoa":
            f["bytes_out"] += len(result)
            f["printed"] += 1
            f["colors_out"] += args[0].num_sets
        elif name in ("product", "remove_fin", "remove_alternation", "trim",
                      "change_parity", "mealy_to_automaton"):
            f["states_out"] += result.num_states
            f["edges_out"] += result.num_edges
            self._store(result)
            if name == "product":
                f["product.states"] += result.num_states
                f["product.edges"] += result.num_edges
            elif name == "remove_fin":
                f["remove_fin.growth"] += (result.num_states
                                           / max(1, args[0].num_states))
                self._dnf_inputs.append(args[0].acceptance)
            elif name == "remove_alternation":
                f["remove_alternation.states"] += result.num_states
        elif name == "is_empty":
            verdict = "empty" if result else "nonempty"
            f["is_empty.%s.ms" % verdict] += dt * 1e3
            f["is_empty.%s" % verdict] += 1
        elif name == "accepting_run":
            verdict = "empty" if result is None else "nonempty"
            f["accepting_run.%s" % verdict] += 1
            if result is not None:
                f["lasso_edges"] += len(result.prefix) + len(result.cycle)
        elif name == "solve_game":
            f["arena_states"] += args[0].num_states
            init = args[0].init
            f["realizable"] += init >= 0 and result.winners[init] == 1
        elif name == "strategy_to_mealy":
            f["mealy_states"] += result.num_states
        elif name == "mealy_to_aiger":
            f["aig_gates"] += len(result.gates)

    def _store(self, aut):
        if len(aut.store) > self.facts["job_store_size"]:
            self.facts["job_store_size"] = len(aut.store)
            self.facts["job_aps"] = aut.store.ap_count

    # -- results -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics.

        Layer self times, `hoa.*`, guard and `new_edge` counts and the
        `scc_info` numbers are means per traced job.  A pipeline stage's
        `.ms` and sizes (product, is_empty by verdict, accepting_run,
        trim, change_parity, remove_fin, remove_alternation, the
        synthesis steps) are means per call, so they describe the jobs
        that run the stage.
        """
        n = max(1, len(self.jobs))
        f = self.facts
        calls = self.calls

        def per_call(name):
            return self.total_s[name] * 1e3 / calls[name] if calls[name] \
                else 0.0

        def mean(key, count):
            return f[key] / count if count else 0.0

        m = {"job_ms": sum(self.jobs) * 1e3 / n}
        layer_self = defaultdict(float)
        for name, s in self.self_s.items():
            layer_self[self.layer_of[name]] += s
        for layer in LAYERS:
            m["%s.self_ms" % layer] = layer_self[layer] * 1e3 / n
        parse_s = self.total_s["parse_hoa_stream"]
        print_s = self.total_s["print_hoa"]
        m["hoa.parse_ms"] = parse_s * 1e3 / n
        m["hoa.parse_mb_per_s"] = f["bytes_in"] / 1e6 / parse_s \
            if parse_s else 0.0
        m["hoa.bytes_in"] = f["bytes_in"] / n
        m["hoa.print_ms"] = print_s * 1e3 / n
        m["hoa.print_mb_per_s"] = f["bytes_out"] / 1e6 / print_s \
            if print_s else 0.0
        m["hoa.bytes_out"] = f["bytes_out"] / n
        for op in MINTERM_OPS + BOOLEAN_OPS:
            m["guards.%s.calls" % op] = calls[op] / n
            m["guards.%s.ms" % op] = self.self_s[op] * 1e3 / n
        m["guards.store_size"] = f["store_size"] / n
        m["guards.aps"] = f["aps"] / n
        m["graph.new_edge.calls"] = calls["new_edge"] / n
        m["graph.new_edge.ms"] = self.self_s["new_edge"] * 1e3 / n
        m["graph.states_out"] = f["states_out"] / n
        m["graph.edges_out"] = f["edges_out"] / n
        m["graph.trim.ms"] = per_call("trim")
        m["acceptance.change_parity.ms"] = per_call("change_parity")
        m["acceptance.dnf_terms"] = mean("dnf_terms", calls["remove_fin"])
        m["acceptance.colors_out"] = mean("colors_out", f["printed"])
        m["algorithms.product.ms"] = per_call("product")
        m["algorithms.product.states"] = mean("product.states",
                                              calls["product"])
        m["algorithms.product.edges"] = mean("product.edges",
                                             calls["product"])
        for verdict in ("empty", "nonempty"):
            m["algorithms.is_empty.%s_ms" % verdict] = mean(
                "is_empty.%s.ms" % verdict, f["is_empty.%s" % verdict])
        verdicts = calls["is_empty"] + calls["accepting_run"]
        m["algorithms.nonempty_ratio"] = (
            f["is_empty.nonempty"] + f["accepting_run.nonempty"]) / verdicts \
            if verdicts else 0.0
        m["algorithms.scc_info.calls"] = calls["scc_info"] / n
        m["algorithms.scc_info.ms"] = self.total_s["scc_info"] * 1e3 / n
        m["algorithms.accepting_run.ms"] = per_call("accepting_run")
        m["algorithms.lasso_edges"] = mean("lasso_edges",
                                           f["accepting_run.nonempty"])
        m["algorithms.remove_fin.ms"] = per_call("remove_fin")
        m["algorithms.remove_fin.growth"] = mean("remove_fin.growth",
                                                 calls["remove_fin"])
        m["algorithms.remove_alternation.ms"] = per_call("remove_alternation")
        m["algorithms.remove_alternation.states"] = mean(
            "remove_alternation.states", calls["remove_alternation"])
        m["synthesis.solve_game.ms"] = per_call("solve_game")
        m["synthesis.arena_states"] = mean("arena_states",
                                           calls["solve_game"])
        m["synthesis.realizable_ratio"] = mean("realizable",
                                               calls["solve_game"])
        for name in ("strategy_to_mealy", "automaton_to_mealy",
                     "validate_mealy", "mealy_to_aiger", "print_aiger"):
            m["synthesis.%s.ms" % name] = per_call(name)
        m["synthesis.mealy_states"] = mean("mealy_states",
                                           calls["strategy_to_mealy"])
        m["synthesis.aig_gates"] = mean("aig_gates", calls["mealy_to_aiger"])
        return m

    def count_dnf_terms(self):
        """Disjuncts of every remove_fin input's acceptance, read through
        the public dnf_disjuncts after the timed loop."""
        for formula in self._dnf_inputs:
            terms = acceptance.dnf_disjuncts(formula)
            self.facts["dnf_terms"] += len(terms) if terms else 0
        self._dnf_inputs = []

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "layer": self.layer_of[name],
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
