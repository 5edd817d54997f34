"""Executes a FoldReport's checked plan: centers target weights, swaps
LayerNorm for RMSNorm, and splices the planned explicit centering nodes,
producing a new model. The input model is never mutated."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np

from .centering import center_node_params
from .fold_detect import FoldPlan, FoldReport, fold_plan, graph_with_insertions
from .graph_ir import Graph, WeightStore, model_hash, require_valid
from .jsonutil import plain


class FoldError(ValueError):
    """Raised when a report cannot be applied to the given model."""


class InsertionsNotAllowed(FoldError):
    """Raised when a report plans insertions that the caller did not allow."""


def check_hash(report: FoldReport, observed: str) -> None:
    """Refuse a report produced for another model than the one whose hash is observed."""
    if observed != report.model_hash:
        raise FoldError(
            f"report was produced for model {report.model_hash[:12]}..., "
            f"but this model hashes to {observed[:12]}..."
        )


def check_report(g: Graph, report: FoldReport) -> FoldPlan:
    """The plan that the report's decisions, its foldable LayerNorms and
    insertion producers, give on g. Refuses a mode other than strict or
    practical, decisions that cannot be carried out (insertions in a strict
    report among them), and targets, insertions or safety that differ from
    the plan's."""
    if report.mode not in ("strict", "practical"):
        raise FoldError(f"report mode must be 'strict' or 'practical', got {report.mode!r}")
    producers = [ins.after for ins in report.insertions]
    unknown = [p for p in producers if p not in g.nodes]
    if unknown:
        raise FoldError(f"insertion after unknown node(s) {', '.join(map(repr, unknown))}")
    repeated = [nid for ids in (report.foldable, producers) for nid, n in Counter(ids).items() if n > 1]
    if repeated:
        raise FoldError(f"report lists {repeated[0]!r} more than once")
    if report.mode == "strict" and producers:
        raise FoldError("strict report plans explicit centering insertions")
    try:
        plan = fold_plan(g, report.foldable, producers)
    except ValueError as exc:
        raise FoldError(f"cannot fold: {exc}") from exc
    if plan.blocked:
        ln_id, leaves = next(iter(plan.blocked.items()))
        raise FoldError(f"LayerNorm {ln_id!r} cannot fold: blocked by {', '.join(sorted(leaves))}")
    for node_id in {**report.targets, **plan.targets}:  # the report's ids, then any it leaves out
        spec, given = plan.targets.get(node_id), report.targets.get(node_id)
        if spec is None:
            raise FoldError(f"report centers {node_id!r}, which this fold does not center")
        if given != spec:
            raise FoldError(f"centering target {node_id!r} needs spec {plain(spec)}, "
                            f"report gives {given and plain(given)}")
    for given, ins in zip(report.insertions, plan.insertions):
        if given != ins:
            raise FoldError(f"insertion after {ins.after!r} should be {plain(ins)}")
    if report.safety != plan.safety:
        raise FoldError(f"report safety differs from this fold's: {plain(plan.safety)}")
    return plan


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
    report: FoldReport,
    allow_practical: bool = False,
) -> tuple[Graph, WeightStore]:
    """Apply the plan that check_report derives from the report, returning a
    new (graph, weights) pair.

    Refuses stale reports (content-hash mismatch), an invalid model
    (GraphValidationError), reports that check_report refuses, unsafe plans
    under strict safety, and practical insertion plans unless explicitly
    allowed. A report with nothing to do returns the model unchanged, bit
    for bit.
    """
    check_hash(report, model_hash(g, w))
    require_valid(g, w)
    plan = check_report(g, report)
    if plan.insertions and not allow_practical:
        raise InsertionsNotAllowed(
            "report plans explicit centering insertions; pass allow_practical=True to apply them"
        )
    if report.strict_safety and not plan.safety.safe:
        raise FoldError(
            "fold refused: centered layers would perturb non-LayerNorm consumers "
            f"({', '.join(sorted(plan.safety.affected))})"
        )

    if not report.foldable and not plan.insertions:
        return g, w

    new_graph = graph_with_insertions(g, plan.insertions) if plan.insertions else g
    new_graph = new_graph.with_kinds({ln_id: "RMSNorm" for ln_id in report.foldable})
    new_store = center_targets(g, w, plan.targets)

    new_graph = new_graph.with_provenance({"folded_from": report.model_hash, "mode": report.mode})
    require_valid(new_graph, new_store)
    return new_graph, new_store


def dry_run(g: Graph, report: FoldReport) -> str:
    """Human-readable diff of what apply_fold would change, for a report that
    check_report accepts; mutates nothing."""
    plan = check_report(g, report)
    lines = [f"replace LayerNorm {ln_id} -> RMSNorm" for ln_id in report.foldable]
    for node_id, spec in sorted(plan.targets.items()):
        bias = " + bias" if spec.includes_bias else ""
        lines.append(f"center weights of {g.nodes[node_id].kind} {node_id} ({spec.family.value}{bias})")
    for ins in plan.insertions:
        edges = ", ".join(f"{s}->{d}:{slot}" for s, d, slot in ins.edges)
        lines.append(f"insert AuxiliaryCentering {ins.node_id} after {ins.after} (edges: {edges})")
    return "\n".join(lines) or "no changes"
