"""Spans and counters around the calls into each lnfold module.

The tracer replaces public functions with timing wrappers wherever a caller
looks them up (``lnfold.cli.detect_foldable`` and
``lnfold.verify.detect_foldable`` are two lookups of one function), and puts
count-only wrappers on the graph's adjacency methods and constructor. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None


# (module, attribute looked up there, span name)
SPANS = (
    ("cli", "load_model", "graph_ir.load"),
    ("cli", "save_model", "graph_ir.save"),
    ("cli", "model_hash", "graph_ir.hash"),
    ("fold_apply", "model_hash", "graph_ir.hash"),
    ("fold_detect", "model_hash", "graph_ir.hash"),
    ("graph_ir", "validate_graph", "graph_ir.validate"),
    ("graph_ir", "infer_shapes", "graph_ir.infer_shapes"),
    ("fold_detect", "infer_shapes", "graph_ir.infer_shapes"),
    ("verify", "infer_shapes", "graph_ir.infer_shapes"),
    ("graph_ir", "canonical_dumps", "jsonutil.dumps"),
    ("cli", "canonical_dumps", "jsonutil.dumps"),
    ("cli", "detect_foldable", "fold_detect.detect"),
    ("verify", "detect_foldable", "fold_detect.detect"),
    ("fold_detect", "build_zero_mean_graph", "fold_detect.zmg"),
    ("fold_detect", "compute_affected_layers", "fold_detect.safety"),
    ("fold_detect", "plan_auxiliary_centering", "fold_detect.plan"),
    ("cli", "apply_fold", "fold_apply.apply"),
    ("fold_apply", "center_node_params", "centering.center"),
    ("verify", "center_node_params", "centering.center"),
    ("cli", "verify_forward", "verify.forward"),
    ("cli", "verify_gradients", "verify.gradients"),
    ("verify", "forward", "tensor_math.forward"),
    ("verify", "backward", "tensor_math.backward"),
)


def _weight_bytes(args: tuple, result: Any) -> float:
    return sum(arr.nbytes for _name, arr in args[1].items())


# Amounts added to a counter on every call: span name -> (counter, amount).
AMOUNTS: dict[str, tuple[str, Callable[[tuple, Any], float]]] = {
    "graph_ir.hash": ("graph_ir.hashed_bytes", _weight_bytes),
    "jsonutil.dumps": ("jsonutil.dumps_bytes", lambda args, result: len(result)),
}


def _edges(g: Any) -> int:
    return len(g.edges)


# Count-only wrappers: (module, class or None, attribute, counters), where
# each counter is (name, amount per call taken from the first argument).
_ADJACENCY = (("graph_ir.adjacency_calls", None), ("graph_ir.edge_scans", _edges))
COUNTS = (
    ("graph_ir", "Graph", "in_edges", _ADJACENCY),
    ("graph_ir", "Graph", "out_edges", _ADJACENCY),
    ("graph_ir", "Graph", "__init__", (("graph_ir.graphs_built", None),)),
    ("fold_detect", None, "graph_with_insertions", (("fold_detect.splices", None),)),
    ("fold_apply", None, "graph_with_insertions", (("fold_detect.splices", None),)),
)


class Tracer:
    """Records spans and counters between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run fn as a span named name, a child of the innermost open span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.job))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.job)
        amount = AMOUNTS.get(name)
        if amount is not None:
            self.counts[amount[0]] += amount[1](args, result)
        return result

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _count_wrapper(self, counters: tuple, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            for counter, amount in counters:
                counts[counter] += 1 if amount is None else amount(args[0])
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name in SPANS:
            owner = importlib.import_module(f"lnfold.{module}")
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for module, cls, attr, counters in COUNTS:
            owner = importlib.import_module(f"lnfold.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            self._patch(owner, attr, self._count_wrapper(counters, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "job": span.job, "self_s": own,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def subtree_self_total(spans: list[Span], selfs: list[float], root: int) -> float:
    """Sum of the self times of root and every span below it."""
    below = {root}
    total = selfs[root]
    for index in range(root + 1, len(spans)):
        if spans[index].parent in below:
            below.add(index)
            total += selfs[index]
    return total


# Per-layer metrics. Every "_ms" metric is self time, except the two verify
# totals, which include the tensor math and detection they call.
SELF_MS = {
    "cli.self_ms": ("cli.analyze", "cli.fold", "cli.verify"),
    "graph_ir.load_ms": ("graph_ir.load",),
    "graph_ir.save_ms": ("graph_ir.save",),
    "graph_ir.hash_ms": ("graph_ir.hash",),
    "graph_ir.validate_ms": ("graph_ir.validate",),
    "graph_ir.infer_shapes_ms": ("graph_ir.infer_shapes",),
    "fold_detect.detect_ms": ("fold_detect.detect",),
    "fold_detect.zmg_ms": ("fold_detect.zmg",),
    "fold_detect.safety_ms": ("fold_detect.safety",),
    "fold_detect.plan_ms": ("fold_detect.plan",),
    "jsonutil.dumps_ms": ("jsonutil.dumps",),
    "centering.center_ms": ("centering.center",),
    "fold_apply.apply_ms": ("fold_apply.apply",),
    "tensor_math.forward_ms": ("tensor_math.forward",),
    "tensor_math.backward_ms": ("tensor_math.backward",),
    "verify.self_ms": ("verify.forward", "verify.gradients"),
}
TOTAL_MS = {
    "verify.forward_ms": "verify.forward",
    "verify.gradients_ms": "verify.gradients",
}
CALLS = {
    "graph_ir.hash_calls": "graph_ir.hash",
    "graph_ir.validate_calls": "graph_ir.validate",
    "fold_detect.detect_calls": "fold_detect.detect",
    "fold_detect.zmg_builds": "fold_detect.zmg",
    "fold_detect.safety_calls": "fold_detect.safety",
    "centering.center_calls": "centering.center",
    "tensor_math.forward_calls": "tensor_math.forward",
    "tensor_math.backward_calls": "tensor_math.backward",
}
COUNTERS = {
    "graph_ir.adjacency_calls": ("graph_ir.adjacency_calls", 1),
    "graph_ir.edge_scans": ("graph_ir.edge_scans", 1),
    "graph_ir.graphs_built": ("graph_ir.graphs_built", 1),
    "fold_detect.splices": ("fold_detect.splices", 1),
    "graph_ir.hashed_mb": ("graph_ir.hashed_bytes", 1 / 2**20),
    "jsonutil.dumps_kb": ("jsonutil.dumps_bytes", 1 / 2**10),
}


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job totals of every span-based and counter-based layer metric."""
    selfs = self_times(tracer.spans)
    self_by: Counter[str] = Counter()
    total_by: Counter[str] = Counter()
    calls_by: Counter[str] = Counter()
    for span, own in zip(tracer.spans, selfs):
        self_by[span.name] += own
        total_by[span.name] += span.end - span.start
        calls_by[span.name] += 1
    out = {}
    for metric, names in SELF_MS.items():
        out[metric] = 1e3 * sum(self_by[n] for n in names) / jobs
    for metric, name in TOTAL_MS.items():
        out[metric] = 1e3 * total_by[name] / jobs
    for metric, name in CALLS.items():
        out[metric] = calls_by[name] / jobs
    for metric, (counter, scale) in COUNTERS.items():
        out[metric] = tracer.counts[counter] * scale / jobs
    return out
