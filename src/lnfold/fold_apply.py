"""Executes a FoldReport: centers target weights, swaps LayerNorm for
RMSNorm, and splices any planned explicit centering nodes, producing a new
model. The input model is never mutated."""

from __future__ import annotations

import numpy as np

from .centering import center_node_params, spec_for_node
from .fold_detect import FoldReport, graph_with_insertions
from .graph_ir import Graph, WeightStore, model_hash, require_valid


class FoldError(ValueError):
    """Raised when a report cannot be applied to the given model."""


def apply_fold(
    g: Graph,
    w: WeightStore,
    report: FoldReport,
    allow_practical: bool = False,
) -> tuple[Graph, WeightStore]:
    """Apply the report's rewrites, returning a new (graph, weights) pair.

    Refuses stale reports (content-hash mismatch), unsafe reports under
    strict safety, and practical insertion plans unless explicitly allowed.
    A report with nothing to do returns the model unchanged, bit for bit.
    """
    observed = model_hash(g, w)
    if observed != report.model_hash:
        raise FoldError(
            f"report was produced for model {report.model_hash[:12]}..., "
            f"but this model hashes to {observed[:12]}..."
        )
    if report.insertions and not allow_practical:
        raise FoldError(
            "report plans explicit centering insertions; pass allow_practical=True to apply them"
        )
    if report.strict_safety and not report.safety.safe:
        raise FoldError(
            "fold refused: centered layers would perturb non-LayerNorm consumers "
            f"({', '.join(sorted(report.safety.affected))})"
        )

    if not report.foldable and not report.insertions:
        return g, w

    new_graph = g
    if report.insertions:
        producers = [ins.after for ins in report.insertions]
        unknown = [p for p in producers if p not in g.nodes]
        if unknown:
            raise FoldError(f"insertion after unknown node(s) {', '.join(map(repr, unknown))}")
        new_graph, aux_ids = graph_with_insertions(new_graph, producers)
        for ins in report.insertions:
            if aux_ids[ins.after] != ins.node_id:
                raise FoldError(
                    f"insertion id {ins.node_id!r} does not reproduce on this graph"
                )

    swaps: dict[str, str] = {}
    for ln_id in report.foldable:
        # A repeated id names a node that the first mention already swapped.
        node = new_graph.nodes.get(ln_id)
        if node is None or node.kind != "LayerNorm" or ln_id in swaps:
            raise FoldError(f"report names {ln_id!r} as a foldable LayerNorm but it is not one")
        swaps[ln_id] = "RMSNorm"
    new_graph = new_graph.with_kinds(swaps)

    updates: dict[str, np.ndarray] = {}
    for node_id, spec in report.targets.items():
        node = g.nodes.get(node_id)
        if node is None:
            raise FoldError(f"centering target {node_id!r} does not exist")
        try:
            expected = spec_for_node(node)
        except ValueError as exc:
            raise FoldError(f"centering target {node_id!r}: {exc}") from exc
        if spec != expected:
            raise FoldError(
                f"centering target {node_id!r} needs spec {expected.to_json()}, report gives {spec.to_json()}"
            )
        updates.update(center_node_params(node, {name: w[name] for name in node.param_refs}))
    new_store = w.replacing(updates)

    new_graph = new_graph.with_provenance(
        {"folded_from": report.model_hash, "mode": report.mode}
    )
    require_valid(new_graph, new_store)
    return new_graph, new_store


def dry_run(g: Graph, report: FoldReport) -> str:
    """Human-readable diff of what apply_fold would change; mutates nothing."""
    lines: list[str] = []
    for ln_id in report.foldable:
        lines.append(f"replace LayerNorm {ln_id} -> RMSNorm")
    for node_id, spec in sorted(report.targets.items()):
        kind = g.nodes[node_id].kind if node_id in g.nodes else "?"
        bias = " + bias" if spec.includes_bias else ""
        lines.append(f"center weights of {kind} {node_id} ({spec.family.value}{bias})")
    for ins in report.insertions:
        edges = ", ".join(f"{s}->{d}:{slot}" for s, d, slot in ins.edges)
        lines.append(f"insert AuxiliaryCentering {ins.node_id} after {ins.after} (edges: {edges})")
    if not lines:
        return "no changes"
    return "\n".join(lines)
