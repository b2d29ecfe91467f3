"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` replaces each public spanlab function named in ``LAYERS``
with a timing wrapper, in its defining module and in every spanlab module
that imported it by name (``spanlab.spans.build_product`` and
``spanlab.walks.build_product`` are both wrapped).  While a job is open each
call records a span: name, start, end, parent span and job.  Spans stay in
memory; ``write`` saves them when the run ends.  A layer's self time is its
spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

from workloads import radius

LAYERS = {
    "cli": ("main",),
    "graphs": ("parse_graph6", "distance_matrix", "metrics", "induced_subgraph"),
    "products": ("build_product", "safety_subgraph"),
    "spans": ("vertex_span", "edge_span", "product_components", "good_components",
              "edge_good_components"),
    "walks": ("min_steps", "shortest_covering_walk"),
    "oracle": ("brute_force_span",),
    "structure": ("minimal_cut_sets", "interval_certificate", "end_cliques",
                  "is_interval", "maximal_cliques"),
    "theorems": ("check_span_inequalities", "check_span1_structure",
                 "check_interval_theorems"),
    "families": ("generate_family",),
}

# layer functions whose call count (COUNTED) or self time (TIMED) is a metric
COUNTED = ("graphs.metrics", "products.build_product", "products.safety_subgraph",
           "spans.vertex_span", "spans.edge_span", "walks.min_steps",
           "oracle.brute_force_span", "structure.minimal_cut_sets",
           "graphs.induced_subgraph", "structure.is_interval", "structure.maximal_cliques",
           "graphs.distance_matrix")
TIMED = ("graphs.metrics", "products.build_product", "products.safety_subgraph",
         "spans.product_components", "spans.good_components", "spans.edge_good_components",
         "walks.min_steps", "structure.minimal_cut_sets", "graphs.induced_subgraph",
         "structure.interval_certificate", "structure.end_cliques", "structure.is_interval",
         "theorems.check_span_inequalities", "theorems.check_span1_structure",
         "theorems.check_interval_theorems", "cli.main", "graphs.parse_graph6",
         "graphs.distance_matrix", "families.generate_family")
# metrics summed from spans; 0 where a workload makes no such call
ACCUMULATED = ("walks.shortest_covering_walk.random.self_s",
               "walks.shortest_covering_walk.sparse.self_s", "walks.moves",
               "walks.state_bound", "oracle.brute_force_span.vertex.self_s",
               "oracle.brute_force_span.edge.self_s", "oracle.thresholds_tried",
               "spans.thresholds_tried", "products.build_product.pairs",
               "products.build_product.arcs", "products.safety_subgraph.kept_pairs",
               "structure.minimal_cut_sets.subsets", "structure.minimal_cut_sets.found")
SPAN_SOLVERS = ("spans.vertex_span", "spans.edge_span")
CHECKERS = ("theorems.check_span_inequalities", "theorems.check_span1_structure",
            "theorems.check_interval_theorems")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _extra(name, args, kwargs, result):
    """Counts taken from a call's arguments and result, outside its span."""
    if name == "products.build_product":
        return {"pairs": len(result.codes), "arcs": sum(map(len, result.adj.values()))}
    if name == "products.safety_subgraph":
        return {"kept_pairs": len(result.codes)}
    if name == "spans.vertex_span":
        return {"graph": id(args[0]), "rule": str(_arg(args, kwargs, 1, "rule"))}
    if name in CHECKERS:
        return {"graph": id(args[0])}
    if name == "walks.shortest_covering_walk":
        p = args[0]
        return {"state_bound": len(p.codes) * 4 ** p.base.n}
    if name == "walks.min_steps":
        return {"moves": result.moves}
    if name == "oracle.brute_force_span":
        h = args[0]
        tried = radius(h.n, h.edges()) - result + 1 if h.n > 1 else 0
        return {"kind": str(_arg(args, kwargs, 2, "kind")), "tried": tried}
    if name == "structure.minimal_cut_sets":
        n = args[0].n
        cap = _arg(args, kwargs, 1, "cap", 4)
        return {"subsets": sum(comb(n, s) for s in range(1, min(cap, n - 2) + 1)),
                "found": len(result.sets)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, job, extra]
        self.stack: list[int] = []
        self.job: int | None = None
        self.job_times: dict[int, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # --- installing ---------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "spanlab" or name.startswith("spanlab.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"spanlab.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            rec[5] = _extra(name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- jobs -----------------------------------------------------------------

    def begin(self, job: int) -> None:
        self.job = job

    def end(self, seconds: float) -> None:
        self.job_times[self.job] = self.job_times.get(self.job, 0.0) + seconds
        self.job = None

    # --- results --------------------------------------------------------------

    def metrics(self, jobs) -> dict[str, float]:
        """Per-layer metrics of the traced batch ``jobs`` (spans carry their job
        index) and of the set-up spans (job index -1)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        out: dict[str, float] = defaultdict(int, dict.fromkeys(ACCUMULATED, 0))
        covered = 0.0
        for i, (name, start, end, parent, job, extra) in enumerate(spans):
            if parent < 0 and job != -1:
                covered += end - start
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "walks.shortest_covering_walk":
                out[f"{name}.{jobs[job].cls}.self_s"] += own
                out["walks.state_bound"] += extra["state_bound"]
            elif name == "walks.min_steps":
                out["walks.moves"] += extra["moves"]
            elif name == "oracle.brute_force_span":
                out[f"{name}.{extra['kind']}.self_s"] += own
                out["oracle.thresholds_tried"] += extra["tried"]
            elif name == "products.safety_subgraph" and parent_name in SPAN_SOLVERS:
                out["spans.thresholds_tried"] += 1
            elif (name == "spans.vertex_span" and parent_name in CHECKERS
                    and extra["rule"] == "traditional"
                    and extra["graph"] == spans[parent][5]["graph"]):
                out["theorems.span_calls_same_graph"] += 1
            if name in ("products.build_product", "products.safety_subgraph",
                        "structure.minimal_cut_sets"):
                for key, value in extra.items():
                    out[f"{name}.{key}"] += value

        def ratio(a, b):
            return a / b if b else 0.0

        for name in COUNTED:
            out[f"{name}.calls"] = calls[name]
        for name in TIMED:
            out[f"{name}.self_s"] = self_s[name]
        out["spans.threshold_yield"] = ratio(
            calls["spans.vertex_span"] + calls["spans.edge_span"], out["spans.thresholds_tried"])
        out["oracle.threshold_yield"] = ratio(calls["oracle.brute_force_span"],
                                              out["oracle.thresholds_tried"])
        out["structure.minimal_cut_sets.yield"] = ratio(
            out["structure.minimal_cut_sets.found"], out["structure.minimal_cut_sets.subsets"])
        verify_jobs = sum(1 for job in jobs if job.kind == "verify")
        out["theorems.span_calls_per_graph"] = ratio(
            out.pop("theorems.span_calls_same_graph", 0), verify_jobs)
        solve = sum(t for j, t in self.job_times.items() if j >= 0)
        out["trace.uncovered_frac"] = ratio(solve - covered, solve)
        return dict(out)

    def write(self, path, jobs) -> None:
        """Save every span as one JSON line: name, start, end, parent, job."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                     parent, jobs[job].id if job >= 0 else "setup"]))
                fh.write("\n")
