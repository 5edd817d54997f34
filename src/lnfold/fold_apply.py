"""Executes a fold report's checked plan: centers target weights, swaps
LayerNorm for RMSNorm, and splices the planned explicit centering nodes,
producing a new model. The input model is never mutated."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterable

import numpy as np

from .centering import center_node_params
from .fold_detect import (
    REPORT_FORMAT_VERSION,
    FoldReport,
    blocking,
    fold_report,
    graph_with_insertions,
    layer_norm_entries,
)
from .graph_ir import Graph, WeightStore, model_hash, require_valid
from .jsonutil import exact, strings


class FoldError(ValueError):
    """Raised when a report cannot be applied to the given model."""


class InsertionsNotAllowed(FoldError):
    """Raised when a report plans insertions that the caller did not allow."""


_ABSENT = object()  # the value at a path one side lacks


def _first_difference(given: Any, want: Any, path: str) -> tuple[str, Any, Any] | None:
    """The first JSON path at which given differs from want, with the values
    there; None when they are equal, JSON types included (true is not 1,
    and 0.0 is not 0)."""
    if type(given) is not type(want):
        return path, given, want
    if type(want) is dict:
        for key in {**want, **given}:
            found = _first_difference(given.get(key, _ABSENT), want.get(key, _ABSENT),
                                      f"{path}.{key}" if path else key)
            if found:
                return found
    elif type(want) is list:
        for i in range(max(len(given), len(want))):
            found = _first_difference(given[i] if i < len(given) else _ABSENT,
                                      want[i] if i < len(want) else _ABSENT, f"{path}[{i}]")
            if found:
                return found
    elif given != want:
        return path, given, want
    return None


def check_report(g: Graph, w: WeightStore, doc: Any) -> FoldReport:
    """The report that doc, a fold report as JSON, decides for the model
    (g, w), refused unless doc is exactly that report.

    Only the decisions are read: the mode, strict_safety, the LayerNorms to
    fold and the producers that insertions follow. Refuses an unsupported
    format version or a field it reads missing or of another JSON type, a
    report made for another model, an invalid model (GraphValidationError),
    decisions that cannot be carried out (insertions in a strict report
    among them), and a doc that differs from the report its decisions give
    on this model, naming the first differing path.
    """
    try:
        version = exact(doc, dict, "report").get("format_version")
        if type(version) is not int or version != REPORT_FORMAT_VERSION:
            raise ValueError(f"unsupported report format_version {version!r}")
        given_hash = exact(doc["model_hash"], str, "model_hash")
        mode = doc["mode"]
        strict_safety = exact(doc["strict_safety"], bool, "strict_safety")
        foldable = strings(doc["foldable"], "foldable")
        producers = [exact(exact(ins, dict, "insertion")["after"], str, "insertion producer")
                     for ins in exact(doc["insertions"], list, "insertions")]
    except (ValueError, LookupError, TypeError) as exc:
        raise FoldError(f"cannot read report: {exc}") from exc
    digest = model_hash(g, w)
    if given_hash != digest:
        raise FoldError(f"report was produced for model {given_hash[:12]}..., "
                        f"but this model hashes to {digest[:12]}...")
    shapes = require_valid(g, w)
    if mode not in ("strict", "practical"):
        raise FoldError(f"report mode must be 'strict' or 'practical', got {mode!r}")
    unknown = [p for p in producers if p not in g.nodes]
    if unknown:
        raise FoldError(f"insertion after unknown node(s) {', '.join(map(repr, unknown))}")
    repeated = [nid for ids in (foldable, producers) for nid, n in Counter(ids).items() if n > 1]
    if repeated:
        raise FoldError(f"report lists {repeated[0]!r} more than once")
    if mode == "strict" and producers:
        raise FoldError("strict report plans explicit centering insertions")
    entries = layer_norm_entries(g, shapes)
    not_layer_norms = [nid for nid in foldable if nid not in entries]
    if not_layer_norms:
        raise FoldError(f"cannot fold: {not_layer_norms[0]!r} is not a LayerNorm node")
    for ln_id in foldable:
        if leaves := blocking(entries[ln_id], set(producers)):
            raise FoldError(f"LayerNorm {ln_id!r} cannot fold: blocked by {', '.join(sorted(leaves))}")
    report = fold_report(g, entries, digest, mode, strict_safety, foldable, producers)
    if found := _first_difference(doc, report.to_json(), ""):
        path, *values = found
        given, want = ("absent" if v is _ABSENT else json.dumps(v, ensure_ascii=False) for v in values)
        raise FoldError(f"report field {path} is {given}; this model's fold gives {want}")
    return report


def center_targets(g: Graph, w: WeightStore, node_ids: Iterable[str]) -> WeightStore:
    """w with the parameters of the listed nodes of g centered: a fold's
    targets, or the effective weights of scheme B's proxies."""
    updates: dict[str, np.ndarray] = {}
    for node_id in node_ids:
        node = g.nodes[node_id]
        updates.update(center_node_params(node, {name: w[name] for name in node.param_refs}))
    return w.replacing(updates)


def apply_fold(
    g: Graph,
    w: WeightStore,
    doc: Any,
    allow_practical: bool = False,
) -> tuple[Graph, WeightStore]:
    """Apply the report that check_report reads from doc, a fold report as
    JSON, returning a new (graph, weights) pair (apply_report). Refuses
    what check_report or apply_report refuses."""
    return apply_report(g, w, check_report(g, w, doc), allow_practical)


def apply_report(
    g: Graph,
    w: WeightStore,
    report: FoldReport,
    allow_practical: bool = False,
) -> tuple[Graph, WeightStore]:
    """Apply report, a FoldReport of the model (g, w) as detect_foldable or
    check_report gives it, returning a new (graph, weights) pair.

    Refuses unsafe plans under strict safety, and practical insertion plans
    unless explicitly allowed. A report with nothing to do returns the
    model unchanged, bit for bit.
    """
    if report.insertions and not allow_practical:
        raise InsertionsNotAllowed(
            "report plans explicit centering insertions; pass allow_practical=True to apply them"
        )
    if report.strict_safety and not report.safety.safe:
        raise FoldError(
            "fold refused: centered layers would perturb non-LayerNorm consumers "
            f"({', '.join(sorted(report.safety.affected))})"
        )

    if not report.foldable and not report.insertions:
        return g, w

    new_graph = graph_with_insertions(g, report.insertions, dict.fromkeys(report.foldable, "RMSNorm"),
                                      {"folded_from": report.model_hash, "mode": report.mode})
    new_store = center_targets(g, w, report.targets)
    require_valid(new_graph, new_store)
    return new_graph, new_store


def dry_run(g: Graph, w: WeightStore, doc: Any) -> str:
    """Human-readable diff of what apply_fold would change, for a report as
    JSON that check_report accepts; mutates nothing."""
    report = check_report(g, w, doc)
    lines = [f"replace LayerNorm {ln_id} -> RMSNorm" for ln_id in report.foldable]
    for node_id, spec in sorted(report.targets.items()):
        bias = " + bias" if spec.includes_bias else ""
        lines.append(f"center weights of {g.nodes[node_id].kind} {node_id} ({spec.family.value}{bias})")
    for ins in report.insertions:
        edges = ", ".join(f"{s}->{d}:{slot}" for s, d, slot in ins.edges)
        lines.append(f"insert AuxiliaryCentering {ins.node_id} after {ins.after} (edges: {edges})")
    return "\n".join(lines) or "no changes"
