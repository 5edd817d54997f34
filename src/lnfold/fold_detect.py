"""Detection of foldable LayerNorms and of the upstream layers to center.

Detection is one backtracking analysis. From each LayerNorm it walks
upstream through scalar and residual nodes, which preserve a zero-mean
input, and stops at the first node of any other class. The walk and its
leaves form the LayerNorm's zero-mean graph: general linear leaves can be
made to emit zero-mean output by centering their weights, zero-mean leaves
emit it already, and opaque leaves give no guarantee. A LayerNorm folds
into RMSNorm when its zero-mean graph has no opaque leaf and every other
leaf centers the LayerNorm's own (last) axis; its centering targets are
the linear leaves.

In practical mode, a planner picks opaque leaves to follow with an explicit
centering node. Such a node only turns that leaf into a last-axis zero-mean
leaf, so the planner scores a candidate set by set arithmetic on the
zero-mean graphs, without touching the model graph. A forward reachability
check on the zero-mean graphs verifies that the centered layers perturb
nothing except LayerNorms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable

from .centering import CenteringSpec, spec_for_node
from .graph_ir import (
    Graph,
    NodeClass,
    WeightStore,
    classify_node,
    infer_shapes,
    make_node,
    model_hash,
    require_valid,
)
from .ops import OPS

REPORT_FORMAT_VERSION = 1

VERDICT_STRICT = "foldable_strict"
VERDICT_PRACTICAL = "foldable_practical"
VERDICT_NOT_FOLDABLE = "not_foldable"


# ---------------------------------------------------------------------------
# Zero-mean graph
# ---------------------------------------------------------------------------


@dataclass
class ZeroMeanGraph:
    """Backtracked subgraph from one LayerNorm to its guarantee providers.

    The root LayerNorm is metadata, not a vertex. Interior vertices are
    scalar or residual nodes; leaves are partitioned by class. Edges point
    against dataflow (consumer -> producer), recording the backtrack.
    """

    root: str
    vertices: set[str] = field(default_factory=set)
    edges: list[tuple[str, str]] = field(default_factory=list)
    linear_leaves: set[str] = field(default_factory=set)
    zero_mean_leaves: set[str] = field(default_factory=set)
    opaque_leaves: set[str] = field(default_factory=set)

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "vertices": sorted(self.vertices),
            "edges": sorted([list(e) for e in self.edges]),
            "linear_leaves": sorted(self.linear_leaves),
            "zero_mean_leaves": sorted(self.zero_mean_leaves),
            "opaque_leaves": sorted(self.opaque_leaves),
        }

    @staticmethod
    def from_json(doc: dict) -> "ZeroMeanGraph":
        return ZeroMeanGraph(
            root=doc["root"],
            vertices=set(doc["vertices"]),
            edges=[(e[0], e[1]) for e in doc["edges"]],
            linear_leaves=set(doc["linear_leaves"]),
            zero_mean_leaves=set(doc["zero_mean_leaves"]),
            opaque_leaves=set(doc["opaque_leaves"]),
        )


def build_zero_mean_graph(g: Graph, ln_id: str) -> ZeroMeanGraph:
    """Backtrack from ln_id through scalar and residual nodes to the leaves."""
    node = g.nodes.get(ln_id)
    if node is None or node.kind != "LayerNorm":
        raise ValueError(f"{ln_id!r} is not a LayerNorm node")
    zmg = ZeroMeanGraph(root=ln_id)
    edge_set: set[tuple[str, str]] = set()
    frontier = deque((ln_id, p) for p in g.predecessors(ln_id))
    while frontier:
        consumer, vertex = frontier.popleft()
        edge_set.add((consumer, vertex))
        if vertex in zmg.vertices:
            continue
        zmg.vertices.add(vertex)
        cls = classify_node(g.nodes[vertex].kind)
        if cls in (NodeClass.SCALAR, NodeClass.RESIDUAL):
            frontier.extend((vertex, p) for p in g.predecessors(vertex))
        elif cls is NodeClass.GENERAL_LINEAR:
            zmg.linear_leaves.add(vertex)
        elif cls is NodeClass.ZERO_MEAN:
            zmg.zero_mean_leaves.add(vertex)
        else:
            zmg.opaque_leaves.add(vertex)
    zmg.edges = sorted(edge_set)
    return zmg


def _leaves_center_last_axis(g: Graph, zmg: ZeroMeanGraph) -> bool:
    """Every linear and zero-mean leaf centers the LayerNorm's (last) axis."""
    return all(
        OPS[g.nodes[leaf].kind].centered_axis == -1
        for leaf in zmg.linear_leaves | zmg.zero_mean_leaves
    )


def _targets(g: Graph, zmg: ZeroMeanGraph) -> dict[str, CenteringSpec]:
    return {nid: spec_for_node(g.nodes[nid]) for nid in zmg.linear_leaves}


# ---------------------------------------------------------------------------
# Safety: the affected-layer criterion
# ---------------------------------------------------------------------------


@dataclass
class SafetyVerdict:
    """safe iff the fold perturbs nothing except LayerNorm inputs.

    affected lists every non-LayerNorm node that would see a changed
    activation, plus any perturbed node whose activation is itself a
    declared graph output.
    """

    safe: bool
    affected: frozenset[str] = frozenset()

    def to_json(self) -> dict:
        return {"safe": self.safe, "affected": sorted(self.affected)}

    @staticmethod
    def from_json(doc: dict) -> "SafetyVerdict":
        return SafetyVerdict(safe=bool(doc["safe"]), affected=frozenset(doc["affected"]))


def compute_affected_layers(g: Graph, zmg: ZeroMeanGraph) -> SafetyVerdict:
    """Trace where the centered activations flow outside the zero-mean graph.

    Centering shifts the output of every zero-mean-graph vertex except
    opaque leaves (those are left untouched). The shift rides through scalar
    and residual nodes; any other node it reaches is an affected layer.
    LayerNorms absorb a constant shift, so only non-LayerNorm affected
    layers make the fold unsafe.
    """
    shifted = zmg.vertices - zmg.opaque_leaves
    frontier: deque[str] = deque()
    for vertex in sorted(shifted):
        for dst in g.successors(vertex):
            if dst not in zmg.vertices:
                frontier.append(dst)

    affected: set[str] = set()
    exposed = {v for v in shifted if v in g.outputs}
    visited: set[str] = set()
    while frontier:
        nid = frontier.popleft()
        if nid in visited:
            continue
        visited.add(nid)
        cls = classify_node(g.nodes[nid].kind)
        if cls in (NodeClass.SCALAR, NodeClass.RESIDUAL):
            if nid in g.outputs:
                exposed.add(nid)
            frontier.extend(g.successors(nid))
        else:
            affected.add(nid)

    non_ln = {n for n in affected if g.nodes[n].kind != "LayerNorm"} | exposed
    return SafetyVerdict(safe=not non_ln, affected=frozenset(non_ln))


# ---------------------------------------------------------------------------
# Practical extension: auxiliary centering
# ---------------------------------------------------------------------------


@dataclass
class AuxInsertion:
    """One explicit centering operation spliced after a producer node."""

    after: str
    node_id: str
    edges: tuple[tuple[str, str, int], ...]
    rescues: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "after": self.after,
            "node_id": self.node_id,
            "edges": [list(e) for e in self.edges],
            "rescues": list(self.rescues),
        }

    @staticmethod
    def from_json(doc: dict) -> "AuxInsertion":
        return AuxInsertion(
            after=doc["after"],
            node_id=doc["node_id"],
            edges=tuple((e[0], e[1], int(e[2])) for e in doc["edges"]),
            rescues=tuple(doc["rescues"]),
        )


def _aux_node_id(g: Graph, producer: str) -> str:
    base = f"center_after_{producer}"
    nid = base
    n = 2
    while nid in g.nodes:
        nid = f"{base}_{n}"
        n += 1
    return nid


def graph_with_insertions(g: Graph, producers: list[str]) -> tuple[Graph, dict[str, str]]:
    """Splice one centering node after each producer; returns (graph, id map)."""
    out = g
    ids: dict[str, str] = {}
    for producer in producers:
        nid = _aux_node_id(out, producer)
        out = out.insert_after(producer, make_node(nid, "AuxiliaryCentering"))
        ids[producer] = nid
    return out, ids


def plan_auxiliary_centering(
    g: Graph,
    failing_zmgs: dict[str, ZeroMeanGraph],
) -> tuple[list[str], set[str]]:
    """Pick producers to center so that blocked LayerNorms become foldable.

    Greedy: candidates are the opaque leaves of the failing zero-mean
    graphs, tried in order of how many LayerNorms each rescues on its own
    (ties broken by id). A candidate joins the plan only if it rescues at
    least two more LayerNorms than the plan already does, i.e. only if it
    strictly increases rescued-minus-insertions; the whole plan is kept only
    when that margin is at least one. Not optimal set cover, but the graphs
    are small and the margin rule reproduces the architecture case studies.

    A centering node after an opaque leaf makes that leaf a zero-mean leaf
    and changes nothing else, since no zero-mean graph walks past an opaque
    node. So a LayerNorm is rescued by a producer set exactly when the set
    covers its opaque leaves and all its leaves then center the last axis.

    Returns (producers to center, rescued LayerNorm ids).
    """
    candidates = sorted({leaf for zmg in failing_zmgs.values() for leaf in zmg.opaque_leaves})
    if not candidates:
        return [], set()
    aux_centers_last_axis = OPS["AuxiliaryCentering"].centered_axis == -1
    rescuable = {
        nid: zmg.opaque_leaves
        for nid, zmg in failing_zmgs.items()
        if aux_centers_last_axis and _leaves_center_last_axis(g, zmg)
    }

    def rescued_by(producers: list[str]) -> set[str]:
        centered = set(producers)
        return {nid for nid, opaque in rescuable.items() if opaque <= centered}

    standalone = {c: len(rescued_by([c])) for c in candidates}
    order = sorted(candidates, key=lambda c: (-standalone[c], c))

    chosen: list[str] = []
    have = rescued_by(chosen)
    for candidate in order:
        gained = rescued_by(chosen + [candidate])
        if len(gained) - len(have) >= 2:
            chosen.append(candidate)
            have = gained

    if len(have) - len(chosen) < 1:
        return [], set()
    return chosen, have


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class FoldEntry:
    ln_id: str
    verdict: str
    zero_mean_graph: ZeroMeanGraph
    targets: dict[str, CenteringSpec]
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ln_id": self.ln_id,
            "verdict": self.verdict,
            "zero_mean_graph": self.zero_mean_graph.to_json(),
            "targets": [
                {"node": nid, "spec": spec.to_json()} for nid, spec in sorted(self.targets.items())
            ],
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_json(doc: dict) -> "FoldEntry":
        return FoldEntry(
            ln_id=doc["ln_id"],
            verdict=doc["verdict"],
            zero_mean_graph=ZeroMeanGraph.from_json(doc["zero_mean_graph"]),
            targets={t["node"]: CenteringSpec.from_json(t["spec"]) for t in doc["targets"]},
            warnings=list(doc["warnings"]),
        )


@dataclass
class FoldReport:
    """Everything a fold needs: verdicts, targets, insertion plan, safety."""

    mode: str
    model_hash: str
    strict_safety: bool
    entries: dict[str, FoldEntry]
    foldable: list[str]
    targets: dict[str, CenteringSpec]
    insertions: list[AuxInsertion]
    safety: SafetyVerdict

    @property
    def total_layer_norms(self) -> int:
        return len(self.entries)

    def counts(self) -> dict[str, int]:
        strict = sum(1 for e in self.entries.values() if e.verdict == VERDICT_STRICT)
        practical = sum(1 for e in self.entries.values() if e.verdict == VERDICT_PRACTICAL)
        return {
            "layer_norms": self.total_layer_norms,
            "foldable": len(self.foldable),
            "strict": strict,
            "practical": practical,
            "insertions": len(self.insertions),
        }

    def to_json(self) -> dict:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "mode": self.mode,
            "model_hash": self.model_hash,
            "strict_safety": self.strict_safety,
            "counts": self.counts(),
            "foldable": list(self.foldable),
            "entries": [self.entries[k].to_json() for k in sorted(self.entries)],
            "targets": [
                {"node": nid, "spec": spec.to_json()} for nid, spec in sorted(self.targets.items())
            ],
            "insertions": [ins.to_json() for ins in self.insertions],
            "safety": self.safety.to_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "FoldReport":
        if doc.get("format_version") != REPORT_FORMAT_VERSION:
            raise ValueError(f"unsupported report format_version {doc.get('format_version')!r}")
        entries = {e["ln_id"]: FoldEntry.from_json(e) for e in doc["entries"]}
        return FoldReport(
            mode=doc["mode"],
            model_hash=doc["model_hash"],
            strict_safety=bool(doc["strict_safety"]),
            entries=entries,
            foldable=list(doc["foldable"]),
            targets={t["node"]: CenteringSpec.from_json(t["spec"]) for t in doc["targets"]},
            insertions=[AuxInsertion.from_json(i) for i in doc["insertions"]],
            safety=SafetyVerdict.from_json(doc["safety"]),
        )


def detect_foldable(
    g: Graph,
    w: WeightStore,
    mode: str = "strict",
    strict_safety: bool = True,
) -> FoldReport:
    """Build each LayerNorm's zero-mean graph and assemble a FoldReport.

    In practical mode, LayerNorms blocked only by opaque zero-mean-graph
    leaves can be rescued by planning explicit centering insertions after
    those leaves; rescued entries get the practical verdict.
    """
    if mode not in ("strict", "practical"):
        raise ValueError(f"mode must be 'strict' or 'practical', got {mode!r}")
    require_valid(g, w)

    shapes = infer_shapes(g, w)
    ln_ids = [nid for nid, node in g.nodes.items() if node.kind == "LayerNorm"]

    entries: dict[str, FoldEntry] = {}
    strict_ids: list[str] = []
    for nid in ln_ids:
        zmg = build_zero_mean_graph(g, nid)
        warnings: list[str] = []
        shape = shapes.get(nid)
        if shape is not None and shape[-1] == 1:
            warnings.append(
                "normalizes an axis of length 1; centering annihilates the activation"
            )
        if not zmg.opaque_leaves and _leaves_center_last_axis(g, zmg):
            strict_ids.append(nid)
            entries[nid] = FoldEntry(nid, VERDICT_STRICT, zmg, _targets(g, zmg), warnings)
        else:
            entries[nid] = FoldEntry(nid, VERDICT_NOT_FOLDABLE, zmg, {}, warnings)

    insertions: list[AuxInsertion] = []
    rescued: set[str] = set()
    safety: SafetyVerdict | None = None

    if mode == "practical":
        failing = {nid: entries[nid].zero_mean_graph for nid in ln_ids if nid not in strict_ids}
        producers, rescued = plan_auxiliary_centering(g, failing)
        if producers:
            sim, aux_ids = graph_with_insertions(g, producers)
            # Insertions change the zero-mean graphs, so they are rebuilt on sim.
            safety = _overall_safety(sim, (
                build_zero_mean_graph(sim, nid) for nid in sorted(set(strict_ids) | rescued)
            ))
            if strict_safety and not safety.safe:
                producers, rescued, safety = [], set(), None
            else:
                for nid in sorted(rescued):
                    entry = entries[nid]
                    entries[nid] = replace(
                        entry, verdict=VERDICT_PRACTICAL, targets=_targets(g, entry.zero_mean_graph)
                    )
                for producer in producers:
                    insertions.append(
                        AuxInsertion(
                            after=producer,
                            node_id=aux_ids[producer],
                            edges=tuple(
                                (producer, dst, slot) for dst, slot in g.out_edges(producer)
                            ),
                            rescues=tuple(
                                nid for nid in sorted(rescued)
                                if producer in entries[nid].zero_mean_graph.opaque_leaves
                            ),
                        )
                    )

    foldable = sorted(set(strict_ids) | rescued)
    if safety is None:
        safety = _overall_safety(g, (entries[nid].zero_mean_graph for nid in foldable))

    targets: dict[str, CenteringSpec] = {}
    for nid in foldable:
        targets.update(entries[nid].targets)

    return FoldReport(
        mode=mode,
        model_hash=model_hash(g, w),
        strict_safety=strict_safety,
        entries=entries,
        foldable=foldable,
        targets=targets,
        insertions=insertions,
        safety=safety,
    )


def _overall_safety(g: Graph, zmgs: Iterable[ZeroMeanGraph]) -> SafetyVerdict:
    affected: set[str] = set()
    for zmg in zmgs:
        affected |= compute_affected_layers(g, zmg).affected
    return SafetyVerdict(safe=not affected, affected=frozenset(affected))
