"""Detection of foldable LayerNorms and of the upstream layers to center.

The detector runs a single forward dataflow pass over the graph, carrying a
per-tensor state: whether the tensor is guaranteed zero-mean under weight
centering, along which axis, and which upstream layers provide the
guarantee. General linear layers start the guarantee, scalar layers keep it,
residual adds keep it only when every branch has it, and everything else
destroys it. A LayerNorm whose input carries the guarantee on its own
normalization axis can be replaced by RMSNorm once those upstream layers are
centered.

For reporting and for the safety criterion, each LayerNorm also gets an
explicit backtracked subgraph (its zero-mean graph) whose leaves show where
the guarantee comes from, and a forward reachability check verifies that the
centered layers perturb nothing except LayerNorms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .centering import CenteringSpec, spec_for_node
from .graph_ir import (
    Graph,
    Node,
    NodeClass,
    WeightStore,
    classify_node,
    infer_shapes,
    make_node,
    model_hash,
    require_valid,
)

REPORT_FORMAT_VERSION = 1

VERDICT_STRICT = "foldable_strict"
VERDICT_PRACTICAL = "foldable_practical"
VERDICT_NOT_FOLDABLE = "not_foldable"

# Activation axis that a general-linear node's centering constrains.
_CENTERED_AXIS = {
    "Linear": -1,
    "RecurrentCell": -1,
    "AttentionValueProjection": -1,
    "Conv2d": -3,  # channel axis of (..., C, H, W)
}


@dataclass(frozen=True)
class TensorState:
    """Dataflow fact attached to a node's output."""

    centered: bool
    axis: int | None
    sources: frozenset[str]


_UNKNOWN = TensorState(False, None, frozenset())


def _state_pass(g: Graph) -> dict[str, TensorState]:
    """Propagate TensorState through the graph in topological order.

    Pure dataflow over predecessor states, so the result is identical for
    every valid topological order.
    """
    states: dict[str, TensorState] = {}
    for nid in g.topo_order():
        node = g.nodes[nid]
        cls = classify_node(node.kind)
        ins = [states[src] for src, _slot in g.in_edges(nid)]
        if cls is NodeClass.GENERAL_LINEAR:
            states[nid] = TensorState(True, _CENTERED_AXIS[node.kind], frozenset({nid}))
        elif cls is NodeClass.ZERO_MEAN:
            states[nid] = TensorState(True, -1, frozenset())
        elif cls is NodeClass.SCALAR:
            states[nid] = ins[0]
        elif cls is NodeClass.RESIDUAL:
            sources = frozenset().union(*(s.sources for s in ins))
            axes = {s.axis for s in ins}
            centered = all(s.centered for s in ins) and len(axes) == 1
            states[nid] = TensorState(centered, axes.pop() if centered else None, sources)
        else:
            states[nid] = _UNKNOWN
    return states


def _input_state(g: Graph, states: dict[str, TensorState], node_id: str) -> TensorState:
    preds = g.predecessors(node_id)
    return states[preds[0]] if preds else _UNKNOWN


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


def _foldable_set(g: Graph) -> dict[str, TensorState]:
    """LayerNorm ids whose input state allows folding, with their states."""
    states = _state_pass(g)
    out: dict[str, TensorState] = {}
    for nid, node in g.nodes.items():
        if node.kind != "LayerNorm":
            continue
        st = _input_state(g, states, nid)
        if st.centered and st.axis == -1:
            out[nid] = st
    return out


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

    Returns (producers to center, rescued LayerNorm ids).
    """
    failing = set(failing_zmgs)
    candidates = sorted({leaf for zmg in failing_zmgs.values() for leaf in zmg.opaque_leaves})
    if not candidates:
        return [], set()

    def rescued_by(producers: list[str]) -> set[str]:
        sim, _ids = graph_with_insertions(g, producers)
        return set(_foldable_set(sim)) & failing

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


def _targets_from_sources(g: Graph, sources: frozenset[str]) -> dict[str, CenteringSpec]:
    return {nid: spec_for_node(g.nodes[nid]) for nid in sources}


def detect_foldable(
    g: Graph,
    w: WeightStore,
    mode: str = "strict",
    strict_safety: bool = True,
) -> FoldReport:
    """Run the detection pass and assemble a FoldReport.

    In practical mode, LayerNorms blocked only by opaque zero-mean-graph
    leaves can be rescued by planning explicit centering insertions after
    those leaves; rescued entries get the practical verdict.
    """
    if mode not in ("strict", "practical"):
        raise ValueError(f"mode must be 'strict' or 'practical', got {mode!r}")
    require_valid(g, w)

    states = _state_pass(g)
    shapes = infer_shapes(g, w)
    ln_ids = [nid for nid, node in g.nodes.items() if node.kind == "LayerNorm"]

    entries: dict[str, FoldEntry] = {}
    strict_ids: list[str] = []
    for nid in ln_ids:
        zmg = build_zero_mean_graph(g, nid)
        st = _input_state(g, states, nid)
        warnings: list[str] = []
        shape = shapes.get(nid)
        if shape is not None and shape[-1] == 1:
            warnings.append(
                "normalizes an axis of length 1; centering annihilates the activation"
            )
        if st.centered and st.axis == -1:
            strict_ids.append(nid)
            entries[nid] = FoldEntry(nid, VERDICT_STRICT, zmg, _targets_from_sources(g, st.sources), warnings)
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
                sim_states = _state_pass(sim)
                for nid in sorted(rescued):
                    st = _input_state(sim, sim_states, nid)
                    entries[nid] = FoldEntry(
                        nid,
                        VERDICT_PRACTICAL,
                        entries[nid].zero_mean_graph,
                        _targets_from_sources(sim, st.sources),
                        entries[nid].warnings,
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
