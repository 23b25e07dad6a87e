"""Per-layer tracing from outside the library.

``Tracer.install`` wraps boxnet's public functions (and the few methods
that carry a layer's work) at every name a caller looks them up by: the
defining module, each boxnet module that imported the name, and the
class for methods.  ``src/`` is untouched; ``uninstall`` restores the
originals.

Most wrappers record a span (name, parent, start, end).  The hottest calls
(``joint_probability``, the per-network trace lookup and ``trace_path``)
run hundreds of thousands of times per pass, so they only add count and
time to an aggregate keyed by the enclosing span.  A span's self time is
its duration minus its child spans and the outermost aggregated calls
under it.  Spans stay in memory until ``write`` at the end of the run.

A wrapped name the library no longer has is skipped and listed under
``missing``; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); attribute "Class.method" wraps a method.
SPANS = [
    ("boxnet.resource", "NonsignalingResource.__init__", "resource.construct"),
    ("boxnet.resource", "NonsignalingResource._find_signaling_witness", "resource.ns_check"),
    ("boxnet.resource", "validate_nonsignaling", "resource.validate"),
    ("boxnet.wiring", "validate_tree", "wiring.validate_tree"),
    ("boxnet.network", "Network.__init__", "network.build"),
    ("boxnet.network", "joint_distribution", "network.joint_distribution"),
    ("boxnet.network", "induced_behavior", "network.induced_behavior"),
    ("boxnet.linprog", "solve_feasibility", "linprog.solve"),
    ("boxnet.decompose", "local_deterministic_vertices", "decompose.vertex_enum"),
    ("boxnet.decompose", "ns_vertices_222", "decompose.ns222"),
    ("boxnet.decompose", "decompose_extremal", "decompose.extremal"),
    ("boxnet.decompose", "is_local", "decompose.is_local"),
    ("boxnet.inequality", "evaluate", "inequality.evaluate"),
    ("boxnet.inequality", "verify_derivation_chain", "inequality.derive"),
    ("boxnet.ghz", "search_max_violation", "ghz.search"),
    ("boxnet.ghz", "ghz_behavior", "ghz.behavior"),
    ("boxnet.cli", "load_scenario", "cli.load"),
    ("boxnet.cli", "main", "cli.main"),
]

LEAVES = [
    ("boxnet.network", "joint_probability", "network.joint_probability"),
    ("boxnet.network", "Network._trace", "network.trace_lookup"),
    ("boxnet.wiring", "trace_path", "wiring.trace_path"),
]


def _resolve(module: str, attr: str):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None, None
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    fn = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(name)
    return (owner, fn) if callable(fn) else (None, None)


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[list] = []          # [id, parent id, name, start, end]
        self.stack = [0]                     # 0 is the root
        self.leaf_depth = 0
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, s, outermost s
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [len(self.spans) + 1, self.stack[-1], name, perf_counter(), 0.0]
            self.spans.append(rec)
            self.stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _leaf(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            outermost = self.leaf_depth == 0
            self.leaf_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.leaf_depth -= 1
                agg = self.leaves[(self.stack[-1], name)]
                agg[0] += 1
                agg[1] += dt
                if outermost:
                    agg[2] += dt
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- layer counters ---------------------------------------------------------

    def _count_cells(self, args, result):
        r = args[0]
        cells = sum(len(col) for col in r.table.values())
        self.counts["resource.cells_checked"] += cells * sum(
            1 for a in r.input_alphabets if len(a) > 1)

    def _count_lp(self, args, result):
        rows = args[0]
        self.counts["linprog.rows"] += len(rows)
        self.counts["linprog.cols"] += len(rows[0]) if rows else 0
        self.counts["linprog.infeasible_calls"] += not result

    def _count_vertices(self, args, result):
        self.counts["decompose.vertices_built"] += len(result)

    def _count_nonzero(self, args, result):
        self.counts["network.nonzero_transcripts"] += result != 0

    def _count_trace_hit(self, args):
        net, party, setting, transcript = args
        self.counts["network.trace_cache_hits"] += (party, setting, transcript) in getattr(
            net, "_trace_cache", ())

    # -- install ------------------------------------------------------------------

    def install(self) -> None:
        after = {"resource.ns_check": self._count_cells, "linprog.solve": self._count_lp,
                 "decompose.vertex_enum": self._count_vertices,
                 "network.joint_probability": self._count_nonzero}
        before = {"network.trace_lookup": self._count_trace_hit}
        for module, attr, name in SPANS + LEAVES:
            owner, fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(f"{module}:{attr}")
                continue
            if (module, attr, name) in LEAVES:
                wrapped = self._leaf(name, fn, before.get(name), after.get(name))
            else:
                wrapped = self._span(name, fn, after.get(name))
            short = attr.rsplit(".", 1)[-1]
            if isinstance(owner, type):
                self._patches.append((owner, short, fn))
                setattr(owner, short, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "boxnet" or mod_name.startswith("boxnet.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, outermost inclusive seconds, self seconds;
        per aggregated call: calls and seconds; plus the layer counters."""
        names = {rec[0]: rec[2] for rec in self.spans}
        parent = {rec[0]: rec[1] for rec in self.spans}
        child_time = defaultdict(float)
        for sid, par, _name, t0, t1 in self.spans:
            child_time[par] += t1 - t0
        for (par, _name), (_calls, _s, outer) in self.leaves.items():
            child_time[par] += outer
        spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, par, name, t0, t1 in self.spans:
            agg = spans[name]
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child_time[sid]
            anc = par
            while anc and names[anc] != name:
                anc = parent[anc]
            if not anc:
                agg["s"] += t1 - t0
        leaves = defaultdict(lambda: {"calls": 0, "s": 0.0})
        for (_par, name), (calls, s, _outer) in self.leaves.items():
            leaves[name]["calls"] += calls
            leaves[name]["s"] += s
        return {"spans": dict(spans), "leaves": dict(leaves), "counts": dict(self.counts),
                "missing": self.missing}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for (par, name), (calls, s, outer) in self.leaves.items():
                fh.write(json.dumps({"parent": par, "aggregate": name, "calls": calls,
                                     "s": s, "outermost_s": outer}) + "\n")


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one summary."""
    spans, leaves, counts = summary["spans"], summary["leaves"], summary["counts"]

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    def leaf(name, key="s"):
        return leaves.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    jp_calls = leaf("network.joint_probability", "calls")
    return {
        "resource.construct_calls": span("resource.construct", "calls"),
        "resource.construct_s": span("resource.construct"),
        "resource.cells_checked": counts.get("resource.cells_checked", 0),
        "resource.ns_check_s": span("resource.ns_check"),
        "resource.validate_s": span("resource.validate"),
        "wiring.validate_tree_calls": span("wiring.validate_tree", "calls"),
        "wiring.validate_tree_s": span("wiring.validate_tree"),
        "wiring.trace_path_calls": leaf("wiring.trace_path", "calls"),
        "wiring.trace_path_s": leaf("wiring.trace_path"),
        "network.build_s": span("network.build"),
        "network.joint_distribution_calls": span("network.joint_distribution", "calls"),
        "network.joint_distribution_self_s": span("network.joint_distribution", "self_s"),
        "network.joint_probability_calls": jp_calls,
        "network.joint_probability_s": leaf("network.joint_probability"),
        "network.nonzero_transcript_ratio": ratio(
            counts.get("network.nonzero_transcripts", 0), jp_calls),
        "network.trace_cache_hit_ratio": ratio(
            counts.get("network.trace_cache_hits", 0), leaf("network.trace_lookup", "calls")),
        "network.induced_behavior_calls": span("network.induced_behavior", "calls"),
        "network.regroup_s": span("network.induced_behavior", "self_s"),
        "linprog.solve_calls": span("linprog.solve", "calls"),
        "linprog.solve_s": span("linprog.solve"),
        "linprog.rows": counts.get("linprog.rows", 0),
        "linprog.cols": counts.get("linprog.cols", 0),
        "linprog.infeasible_calls": counts.get("linprog.infeasible_calls", 0),
        "decompose.vertex_enum_s": span("decompose.vertex_enum"),
        "decompose.vertices_built": counts.get("decompose.vertices_built", 0),
        "decompose.extremal_self_s": span("decompose.extremal", "self_s"),
        "decompose.ns222_s": span("decompose.ns222"),
        "inequality.evaluate_calls": span("inequality.evaluate", "calls"),
        "inequality.evaluate_s": span("inequality.evaluate"),
        "inequality.derive_s": span("inequality.derive"),
        "ghz.search_s": span("ghz.search"),
        "ghz.behavior_s": span("ghz.behavior"),
        "cli.load_s": span("cli.load"),
    }
