"""Span tracing of mdlbackbone from outside the package.

``Tracer.install`` rebinds the public functions of every layer (package
module) to wrappers that record a span: name, parent span, start and end.
A function imported by name into another module is a separate binding, so
every module attribute that holds the original object is rebound, not only
the one in the defining module (``cli.parse_edge_list``,
``solver.directed_view``, ``baselines.neighborhoods`` and so on).
``uninstall`` restores the originals. Spans stay in memory until the run
ends; ``layer_metrics`` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Layers are the package modules; "module.attr" or "module.Class.method".
TRACED = {
    "graph": [
        "parse_edge_list", "serialize_edge_list", "directed_view",
        "neighborhood_order", "collapse_to_undirected", "neighborhoods",
        "backbone_from_edge_subset", "WeightedGraph.edge_index",
        "Backbone.subgraph", "Backbone.edge_set",
    ],
    "objectives": ["dl_global_micro_arr", "dl_global_micro"],
    "solver": [
        "greedy_global", "greedy_local", "empty_backbone_dls", "result_to_dict",
    ],
    "baselines": [
        "edge_disparity_pvalues", "disparity_filter_top_e", "salience_table",
        "percolation_backbone",
    ],
    "metrics": ["summarize", "reachability_ratio", "hellinger_strength_distance"],
    "percolation": [
        "HalfEdgeSystem.build", "HalfEdgeSystem.segment_sums",
        "message_passing_cluster", "nb_leading_eigenvalue",
        "critical_probability", "backbone_percolation_study",
    ],
    "cli": [
        "main", "cmd_backbone", "cmd_compare", "cmd_percolation",
        "_backbone_from_file", "_write_json", "_write_text",
    ],
}

LAYERS = tuple(TRACED)

# Spans reported one by one as <name>.self_s and <name>.calls.
REPORTED_SPANS = (
    "graph.parse_edge_list",
    "graph.serialize_edge_list",
    "graph.directed_view",
    "graph.neighborhood_order",
    "graph.collapse_to_undirected",
    "graph.WeightedGraph.edge_index",
    "graph.neighborhoods",
    "graph.backbone_from_edge_subset",
    "objectives.dl_global_micro_arr",
    "solver.greedy_global",
    "solver.empty_backbone_dls",
    "solver.result_to_dict",
    "solver.greedy_local",
    "baselines.edge_disparity_pvalues",
    "baselines.salience_table",
    "baselines.percolation_backbone",
    "metrics.summarize",
    "metrics.reachability_ratio",
    "percolation.HalfEdgeSystem.build",
    "percolation.message_passing_cluster",
    "percolation.nb_leading_eigenvalue",
    "percolation.backbone_percolation_study",
    "cli.main",
)

# Counts taken at span boundaries: metric name -> (unit, span name).
COUNTS = {
    "graph.parse_edge_list.lines": ("count", "graph.parse_edge_list"),
    "objectives.dl_global_micro_arr.values": ("count", "objectives.dl_global_micro_arr"),
    "percolation.mp_sweeps": ("count", "percolation.message_passing_cluster"),
    "percolation.power_iterations": ("count", "percolation.HalfEdgeSystem.segment_sums"),
    "cli.json_bytes": ("bytes", "cli._write_json"),
    "cli.tsv_bytes": ("bytes", "cli._write_text"),
}

# Values the workload computes besides the trace (see workloads.py), and
# the traced job's study S values that show the recorded warm-start defect,
# which the harness counts from the checks (see checks.py).
EXTRA = {
    "trace.overhead_s": "s",
    "solver.local_dl_gap_bits": "bits",
    "percolation.warm_start_mismatches": "count",
}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in REPORTED_SPANS:
        spec += [(name + ".self_s", "s", "lower"), (name + ".calls", "count", "lower")]
    spec += [(layer + ".self_s", "s", "lower") for layer in LAYERS]
    spec += [(name, unit, "lower") for name, (unit, _) in COUNTS.items()]
    spec += [(name, unit, "lower") for name, unit in EXTRA.items()]
    return spec


def _count_of(name, args, kwargs, result):
    """Work count of one call, read from its arguments or result; None
    where the span has no count or it is read when the run ends."""
    if name == "objectives.dl_global_micro_arr":
        import numpy as np

        return int(np.broadcast(*[np.asarray(a) for a in args[:4]]).size)
    if name == "percolation.message_passing_cluster":
        return int(result[2].iterations)
    if name == "percolation.HalfEdgeSystem.segment_sums":
        return 1
    if name == "cli._write_json":
        return os.path.getsize(args[0])
    if name == "cli._write_text":
        return len(args[1].encode()) if str(args[0]).endswith(".tsv") else 0
    if name == "graph.parse_edge_list":
        source = args[0] if args else kwargs["text"]
        # a file's lines are counted after the run, outside every span
        return ("file", source.name) if hasattr(source, "name") else source.count("\n")
    return None


class Tracer:
    """In-memory spans: [name, parent index or -1, start, end, count]."""

    def __init__(self, package="mdlbackbone"):
        self.package = package
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[4] = _count_of(name, args, kwargs, result)
            return result

        return traced

    def _modules(self):
        return [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ]

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for layer, attrs in TRACED.items():
            home = sys.modules[f"{self.package}.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, meth, new)
                    self._restore.append((cls, meth, raw))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def layer_metrics(self):
        """Per-layer metrics over every span recorded so far."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls, counts = {}, {}, {}
        line_cache = {}
        for (name, _, start, end, count), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
            if isinstance(count, tuple):
                path = count[1]
                if path not in line_cache:
                    with open(path, "rb") as fh:
                        line_cache[path] = fh.read().count(b"\n")
                count = line_cache[path]
            if count is not None:
                counts[name] = counts.get(name, 0) + count
        out = {}
        for name in REPORTED_SPANS:
            out[name + ".self_s"] = self_s.get(name, 0.0)
            out[name + ".calls"] = calls.get(name, 0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer
            )
        for metric, (_, span) in COUNTS.items():
            out[metric] = counts.get(span, 0)
        return out

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        return [
            [name, parent, start - t0, end - t0, count if not isinstance(count, tuple) else None]
            for name, parent, start, end, count in self.spans
        ]
