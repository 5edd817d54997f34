"""Detection of foldable LayerNorms and of the upstream layers to center.

Detection is one backtracking analysis. From a LayerNorm it walks upstream
through the kinds that pass a zero-mean input on (OpDef.passes_mean) and
stops at the first node of any other kind. The walk and its leaves form
the LayerNorm's zero-mean graph: general linear leaves (kinds with a
centering family) can be made to emit zero-mean output by centering their
weights, zero-mean leaves (a centered_axis and no family) emit it already,
and opaque leaves give no guarantee. A LayerNorm folds into RMSNorm when
its zero-mean graph has no opaque leaf and every other leaf centers the
LayerNorm's own (last) axis; its centering targets are the linear leaves.

The backtrack from a vertex does not depend on which LayerNorm reached it,
so detection walks once from all LayerNorms together and reads each one's
reachable leaves off that union graph in one pass. In practical mode, a
planner picks opaque leaves to follow with an explicit centering node, which
turns that leaf into a last-axis zero-mean leaf; it scores candidate sets by
set arithmetic on the reachable leaves, without touching the model graph. A
fold moves the outputs of its targets and what the consumers of each
centered producer read; a forward walk from those, on the model graph,
checks that they perturb nothing but nodes that remove a per-sample mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .centering import CenteringSpec, spec_for_node
from .graph_ir import (
    Graph,
    WeightStore,
    infer_shapes,  # noqa: F401  (unused here; lnbench's tracer patches this name)
    make_node,
    model_hash,
    require_valid,
)
from .ops import OPS

REPORT_FORMAT_VERSION = 2

VERDICT_STRICT = "foldable_strict"
VERDICT_PRACTICAL = "foldable_practical"
VERDICT_NOT_FOLDABLE = "not_foldable"

# ---------------------------------------------------------------------------
# Zero-mean graph
# ---------------------------------------------------------------------------


@dataclass
class ZeroMeanGraph:
    """Backtracked subgraph from some LayerNorms to their guarantee providers.

    The root LayerNorms are metadata, not vertices. Interior vertices are
    nodes whose kind passes a zero-mean input on; leaves are partitioned by
    what their kind declares (see OpDef). Every predecessor of a root or of
    an interior vertex is a vertex, so the backtrack follows the model
    graph's own edges.
    """

    roots: tuple[str, ...]
    vertices: set[str] = field(default_factory=set)
    linear_leaves: set[str] = field(default_factory=set)
    zero_mean_leaves: set[str] = field(default_factory=set)
    opaque_leaves: set[str] = field(default_factory=set)


def build_zero_mean_graph(g: Graph, *ln_ids: str) -> ZeroMeanGraph:
    """Backtrack from the ln_ids through the nodes whose kind passes a
    zero-mean input on, to the leaves; the union of the LayerNorms' own
    zero-mean graphs."""
    for ln_id in ln_ids:
        node = g.nodes.get(ln_id)
        if node is None or node.kind != "LayerNorm":
            raise ValueError(f"{ln_id!r} is not a LayerNorm node")
    zmg = ZeroMeanGraph(roots=ln_ids)
    frontier = [p for ln_id in ln_ids for p in g.predecessors(ln_id)]
    while frontier:
        vertex = frontier.pop()
        if vertex in zmg.vertices:
            continue
        zmg.vertices.add(vertex)
        op = OPS[g.nodes[vertex].kind]
        if op.passes_mean:
            frontier.extend(g.predecessors(vertex))
        elif op.family is not None:
            zmg.linear_leaves.add(vertex)
        elif op.centered_axis is not None:
            zmg.zero_mean_leaves.add(vertex)
        else:
            zmg.opaque_leaves.add(vertex)
    return zmg


# (opaque leaves, off-axis leaves) reachable from a vertex or a root.
_Leaves = tuple[frozenset[str], frozenset[str]]


def _reachable_leaves(g: Graph, zmg: ZeroMeanGraph) -> dict[str, _Leaves]:
    """Each root's reachable opaque leaves and off-axis leaves.

    Off-axis leaves are linear or zero-mean leaves that center an axis other
    than the last. One pass in dataflow order gives every vertex the leaves
    below it, so a vertex shared by many roots is visited once.
    """
    below: dict[str, _Leaves] = {}

    def gather(nid: str) -> _Leaves:
        parts = [below[p] for p in g.predecessors(nid)]
        return (frozenset().union(*(p[0] for p in parts)),
                frozenset().union(*(p[1] for p in parts)))

    for v in g.topo_order():
        if v in zmg.opaque_leaves:
            below[v] = (frozenset([v]), frozenset())
        elif v in zmg.linear_leaves or v in zmg.zero_mean_leaves:
            off_axis = OPS[g.nodes[v].kind].centered_axis != -1
            below[v] = (frozenset(), frozenset([v] if off_axis else []))
        elif v in zmg.vertices:
            below[v] = gather(v)
    return {root: gather(root) for root in zmg.roots}


# ---------------------------------------------------------------------------
# Safety: the affected-layer criterion
# ---------------------------------------------------------------------------


@dataclass
class SafetyVerdict:
    """safe iff the fold perturbs nothing but nodes that remove a
    per-sample mean.

    affected lists every other node that would see a changed activation,
    plus any perturbed node whose activation is itself a declared graph
    output.
    """

    safe: bool
    affected: frozenset[str] = frozenset()

    def to_json(self) -> dict:
        return {"safe": self.safe, "affected": sorted(self.affected)}

    @staticmethod
    def from_json(doc: dict) -> "SafetyVerdict":
        return SafetyVerdict(safe=bool(doc["safe"]), affected=frozenset(doc["affected"]))


def compute_affected_layers(g: Graph, zmg: ZeroMeanGraph, producers: Iterable[str] = ()) -> SafetyVerdict:
    """Trace where the centered activations flow.

    The fold moves the output of each centering target (zmg's linear
    leaves) by a per-sample constant along the last axis, and the consumers
    of each producer it centers read that producer's output minus its mean.
    Nothing else moves: zero-mean leaves already in the model keep their
    output. Every consumer of a moved node sees the shift, inside the
    zero-mean graph or not. Kinds with OpDef.passes_mean pass it on, and
    kinds with OpDef.removes_mean absorb it; any other node it reaches is an
    affected layer, and so is a moved or passing node that is a graph output.
    """
    moved = zmg.linear_leaves | set(producers)
    frontier = [dst for vertex in moved for dst in g.successors(vertex)]
    affected = {v for v in moved if v in g.outputs}
    visited: set[str] = set()
    while frontier:
        nid = frontier.pop()
        if nid in visited:
            continue
        visited.add(nid)
        op = OPS[g.nodes[nid].kind]
        if op.passes_mean:
            if nid in g.outputs:
                affected.add(nid)
            frontier.extend(g.successors(nid))
        elif not op.removes_mean:
            affected.add(nid)
    return SafetyVerdict(safe=not affected, affected=frozenset(affected))


# ---------------------------------------------------------------------------
# Fold plans, and auxiliary centering for the practical extension
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


def _aux_ids(g: Graph, producers: list[str]) -> list[str]:
    """The id of the centering node spliced after each producer: the first
    of center_after_<producer>, center_after_<producer>_2, ... that names
    neither a node of g nor an earlier insertion."""
    taken = set(g.nodes)
    ids = []
    for producer in producers:
        base = nid = f"center_after_{producer}"
        n = 2
        while nid in taken:
            nid = f"{base}_{n}"
            n += 1
        taken.add(nid)
        ids.append(nid)
    return ids


def graph_with_insertions(g: Graph, insertions: list[AuxInsertion]) -> Graph:
    """g with each insertion's centering node spliced in, in one
    construction: the insertion's recorded edges leave its node, which reads
    its producer, and a graph output that named the producer names it."""
    moved = {edge: ins.node_id for ins in insertions for edge in ins.edges}
    edges = [(moved.get((s, d, slot), s), d, slot) for s, d, slot in g.edges]
    edges += [(ins.after, ins.node_id, 0) for ins in insertions]
    nodes = [*g.nodes.values(), *(make_node(ins.node_id, "AuxiliaryCentering") for ins in insertions)]
    renamed = {ins.after: ins.node_id for ins in insertions}
    outputs = [renamed.get(o, o) for o in g.outputs]
    return Graph(nodes, edges, g.inputs, outputs, g.provenance)


def _blocking(leaves: _Leaves, producers: set[str]) -> frozenset[str]:
    """The leaves that keep a LayerNorm with these reachable leaves from
    folding when a centering node follows each producer: its off-axis
    leaves, and the opaque leaves that no last-axis centering node follows."""
    opaque, off_axis = leaves
    if OPS["AuxiliaryCentering"].centered_axis == -1:
        opaque = opaque - producers
    return opaque | off_axis


@dataclass
class FoldPlan:
    """What a fold does: the layers it centers, in dataflow order (which
    sets verification's peak memory on wide models), the centering nodes it
    splices, its safety verdict, and the leaves that keep each blocked
    LayerNorm from folding."""

    targets: dict[str, CenteringSpec]
    insertions: list[AuxInsertion]
    safety: SafetyVerdict
    blocked: dict[str, frozenset[str]]


def fold_plan(g: Graph, foldable: list[str], producers: list[str]) -> FoldPlan:
    """The one derivation of a fold from its two decisions: which LayerNorms
    to fold and which producers to follow with a centering node."""
    zmg = build_zero_mean_graph(g, *foldable)
    return _plan(g, zmg, producers, _reachable_leaves(g, zmg))


def _plan(g: Graph, zmg: ZeroMeanGraph, producers: list[str], leaves: dict[str, _Leaves]) -> FoldPlan:
    """fold_plan, given zmg of the LayerNorms to fold and leaves that cover
    them. An insertion rescues each LayerNorm that reaches its producer as
    an opaque leaf."""
    covered = set(producers)
    blocked = {ln_id: b for ln_id in zmg.roots if (b := _blocking(leaves[ln_id], covered))}
    insertions = [AuxInsertion(p, aux_id, tuple((p, dst, slot) for dst, slot in g.out_edges(p)),
                               tuple(ln_id for ln_id in sorted(zmg.roots) if p in leaves[ln_id][0]))
                  for p, aux_id in zip(producers, _aux_ids(g, producers))]
    targets = {nid: spec_for_node(g.nodes[nid]) for nid in g.topo_order() if nid in zmg.linear_leaves}
    return FoldPlan(targets, insertions, compute_affected_layers(g, zmg, producers), blocked)


def plan_auxiliary_centering(failing: list["FoldEntry"]) -> tuple[list[str], set[str]]:
    """Pick producers to center so that blocked LayerNorms become foldable.

    Greedy: candidates are the opaque leaves of the failing entries, tried
    in order of how many LayerNorms each rescues on its own (ties broken by
    id). A candidate joins the plan only if it rescues at least two more
    LayerNorms than the plan already does, i.e. only if it strictly
    increases rescued-minus-insertions; the whole plan is kept only when
    that margin is at least one. Not optimal set cover, but the graphs are
    small and the margin rule reproduces the architecture case studies.

    A centering node after an opaque leaf makes that leaf a zero-mean leaf
    and changes nothing else, since no backtrack walks past an opaque node.
    So a LayerNorm is rescued by a producer set exactly when nothing is
    _blocking it.

    Returns (producers to center, rescued LayerNorm ids).
    """
    candidates = sorted({leaf for entry in failing for leaf in entry.opaque_leaves})

    def rescued_by(producers: list[str]) -> set[str]:
        centered = set(producers)
        return {e.ln_id for e in failing if not _blocking((e.opaque_leaves, e.off_axis_leaves), centered)}

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
    """One LayerNorm's verdict and the leaves that decide it: the opaque
    leaves a practical plan must center, and the leaves that center an
    axis other than the last, which nothing rescues."""

    ln_id: str
    verdict: str
    opaque_leaves: frozenset[str] = frozenset()
    off_axis_leaves: frozenset[str] = frozenset()
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ln_id": self.ln_id,
            "verdict": self.verdict,
            "opaque_leaves": sorted(self.opaque_leaves),
            "off_axis_leaves": sorted(self.off_axis_leaves),
            "warnings": list(self.warnings),
        }

    @staticmethod
    def from_json(doc: dict) -> "FoldEntry":
        return FoldEntry(
            ln_id=doc["ln_id"],
            verdict=doc["verdict"],
            opaque_leaves=frozenset(doc["opaque_leaves"]),
            off_axis_leaves=frozenset(doc["off_axis_leaves"]),
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

    def counts(self) -> dict[str, int]:
        strict = sum(1 for e in self.entries.values() if e.verdict == VERDICT_STRICT)
        practical = sum(1 for e in self.entries.values() if e.verdict == VERDICT_PRACTICAL)
        return {
            "layer_norms": len(self.entries),
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
        foldable, insertions = list(doc["foldable"]), [AuxInsertion.from_json(i) for i in doc["insertions"]]
        if not all(isinstance(s, str) for s in [doc["model_hash"], *foldable, *(i.after for i in insertions)]):
            raise ValueError("model_hash, foldable and insertion producers must be strings")
        return FoldReport(
            mode=doc["mode"],
            model_hash=doc["model_hash"],
            strict_safety=bool(doc["strict_safety"]),
            entries=entries,
            foldable=foldable,
            targets={t["node"]: CenteringSpec.from_json(t["spec"]) for t in doc["targets"]},
            insertions=insertions,
            safety=SafetyVerdict.from_json(doc["safety"]),
        )


def detect_foldable(
    g: Graph,
    w: WeightStore,
    mode: str = "strict",
    strict_safety: bool = True,
) -> FoldReport:
    """Decide every LayerNorm from one union zero-mean graph and assemble a
    FoldReport.

    In practical mode, LayerNorms blocked only by opaque leaves can be
    rescued by planning explicit centering insertions after those leaves;
    rescued entries get the practical verdict. The kept plan, and then the
    strict set, each get one zero-mean graph on the model graph, from which
    fold_plan's derivation gives the targets, insertions and safety; under
    strict safety an unsafe plan gives way to the strict set.
    """
    if mode not in ("strict", "practical"):
        raise ValueError(f"mode must be 'strict' or 'practical', got {mode!r}")
    shapes = require_valid(g, w)
    ln_ids = [nid for nid, node in g.nodes.items() if node.kind == "LayerNorm"]
    reachable = _reachable_leaves(g, build_zero_mean_graph(g, *ln_ids))

    entries: dict[str, FoldEntry] = {}
    for nid in ln_ids:
        opaque, off_axis = reachable[nid]
        warnings: list[str] = []
        shape = shapes.get(nid)
        if shape is not None and shape[-1] == 1:
            warnings.append(
                "normalizes an axis of length 1; centering annihilates the activation"
            )
        verdict = VERDICT_NOT_FOLDABLE if opaque or off_axis else VERDICT_STRICT
        entries[nid] = FoldEntry(nid, verdict, opaque, off_axis, warnings)
    strict = sorted(nid for nid in ln_ids if entries[nid].verdict == VERDICT_STRICT)

    # (LayerNorms to fold, producers to center), best first.
    plans: list[tuple[list[str], list[str]]] = [(strict, [])]
    if mode == "practical":
        failing = [e for e in entries.values() if e.verdict == VERDICT_NOT_FOLDABLE]
        producers, rescued = plan_auxiliary_centering(failing)
        if producers:
            plans.insert(0, (sorted(set(strict) | rescued), producers))
    for foldable, producers in plans:
        plan = _plan(g, build_zero_mean_graph(g, *foldable), producers, reachable)
        if plan.safety.safe or not strict_safety:
            break

    for ins in plan.insertions:
        for nid in ins.rescues:
            entries[nid] = replace(entries[nid], verdict=VERDICT_PRACTICAL)

    return FoldReport(
        mode=mode,
        model_hash=model_hash(g, w),
        strict_safety=strict_safety,
        entries=entries,
        foldable=foldable,
        targets=plan.targets,
        insertions=plan.insertions,
        safety=plan.safety,
    )
