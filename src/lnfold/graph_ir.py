"""Computation-graph IR: node taxonomy, validation, and the model file format.

A model is a DAG of typed nodes plus a weight store. The graph and store are
immutable after construction: every rewrite builds new instances, so any
number of analyses can run concurrently over the same model.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .jsonutil import canonical_dumps
from .ops import OPS, NodeClass, OpDef

FORMAT_VERSION = 1

NODE_KINDS = tuple(OPS)

DTYPE_TAGS = {"f32": np.float32, "f64": np.float64}
TAG_BY_DTYPE = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_WIRE_DTYPES = {"f32": "<f4", "f64": "<f8"}


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or decoded."""


class GraphValidationError(ValueError):
    """Raised when an operation requires a valid graph but validation failed."""


# Defaults that let validation report an unknown kind and keep checking.
_UNKNOWN_KIND = OpDef()


def classify_node(kind: str) -> NodeClass:
    """Map a node kind to its behavioral class. Total over NODE_KINDS."""
    try:
        return OPS[kind].node_class
    except KeyError:
        raise ValueError(f"unknown node kind {kind!r}") from None


@dataclass(frozen=True)
class Node:
    """One graph vertex: an operation plus references into the weight store."""

    id: str
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)
    param_refs: tuple[str, ...] = ()
    input_arity: int = 1


def make_node(
    node_id: str,
    kind: str,
    attrs: Mapping[str, Any] | None = None,
    params: Sequence[str] = (),
    arity: int | None = None,
) -> Node:
    if kind not in NODE_KINDS:
        raise ValueError(f"unknown node kind {kind!r}")
    if arity is None:
        arity = OPS[kind].default_arity
    return Node(node_id, kind, dict(attrs or {}), tuple(params), arity)


class WeightStore:
    """Named parameter tensors. f32 or f64, row-major, immutable by convention."""

    def __init__(self, arrays: Mapping[str, np.ndarray] | None = None):
        self._arrays: dict[str, np.ndarray] = {}
        for name, arr in (arrays or {}).items():
            self.add(name, arr)

    def add(self, name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in (np.float32, np.float64):
            raise ValueError(f"parameter {name!r} must be f32 or f64, got {arr.dtype}")
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._arrays[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())

    def as_f64(self) -> "WeightStore":
        """Widened copy used by equivalence verification."""
        return WeightStore({k: v.astype(np.float64) for k, v in self.items()})

    def replacing(self, updates: Mapping[str, np.ndarray]) -> "WeightStore":
        """New store with some arrays swapped out; untouched arrays are shared."""
        unknown = set(updates) - set(self._arrays)
        if unknown:
            raise KeyError(f"unknown parameters {sorted(unknown)}")
        out = WeightStore()
        for name, arr in self.items():
            out.add(name, updates.get(name, arr))
        return out


class Graph:
    """Directed acyclic computation graph.

    Edges are (src id, dst id, dst input slot). Every non-Input node receives
    exactly one edge per slot 0..input_arity-1. Time-unrolling of the
    recurrent cell is the caller's concern; the cell is one node with two
    input slots.
    """

    def __init__(
        self,
        nodes: Sequence[Node] | Mapping[str, Node],
        edges: Iterable[tuple[str, str, int]],
        inputs: Sequence[str],
        outputs: Sequence[str],
        provenance: Mapping[str, Any] | None = None,
    ):
        if isinstance(nodes, Mapping):
            node_list = list(nodes.values())
        else:
            node_list = list(nodes)
        self.nodes: dict[str, Node] = {}
        for node in node_list:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        self.edges: tuple[tuple[str, str, int], ...] = tuple(
            (str(s), str(d), int(slot)) for (s, d, slot) in edges
        )
        self.inputs: list[str] = list(inputs)
        self.outputs: list[str] = list(outputs)
        self.provenance: dict[str, Any] | None = dict(provenance) if provenance else None
        self._topo: list[str] | None = None
        # Adjacency indexes; the graph never changes, so they never go stale.
        # Edges may name ids that are not nodes: validation reports those.
        self._in: dict[str, list[tuple[str, int]]] = {}
        self._out: dict[str, list[tuple[str, int]]] = {}
        for s, d, slot in self.edges:
            self._in.setdefault(d, []).append((s, slot))
            self._out.setdefault(s, []).append((d, slot))
        for incoming in self._in.values():
            incoming.sort(key=lambda e: e[1])

    # -- adjacency ---------------------------------------------------------

    def in_edges(self, node_id: str) -> list[tuple[str, int]]:
        """(src, slot) pairs feeding node_id, sorted by slot."""
        return list(self._in.get(node_id, ()))

    def out_edges(self, node_id: str) -> list[tuple[str, int]]:
        """(dst, slot) pairs consuming node_id's output, in edge order."""
        return list(self._out.get(node_id, ()))

    def predecessors(self, node_id: str) -> list[str]:
        return [s for (s, _slot) in self.in_edges(node_id)]

    def successors(self, node_id: str) -> list[str]:
        return list(dict.fromkeys(d for d, _slot in self.out_edges(node_id)))

    def topo_order(self) -> list[str]:
        """Kahn topological order; deterministic given node insertion order."""
        if self._topo is not None:
            return self._topo
        indeg = {nid: 0 for nid in self.nodes}
        for _s, d, _slot in self.edges:
            if d in indeg:
                indeg[d] += 1
        ready = deque(nid for nid in self.nodes if indeg[nid] == 0)
        order: list[str] = []
        while ready:
            nid = ready.popleft()
            order.append(nid)
            # One decrement per edge: a node may take one source on two slots.
            for dst, _slot in self.out_edges(nid):
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    ready.append(dst)
        if len(order) != len(self.nodes):
            raise GraphValidationError("graph contains a cycle; run validate_graph")
        self._topo = order
        return order

    def find_cycle(self) -> list[str] | None:
        """Return node ids on one cycle, or None if the graph is acyclic."""
        color: dict[str, int] = {}
        stack: list[str] = []

        def visit(nid: str) -> list[str] | None:
            color[nid] = 1
            stack.append(nid)
            for dst in self.successors(nid):
                if color.get(dst, 0) == 1:
                    return stack[stack.index(dst):] + [dst]
                if color.get(dst, 0) == 0:
                    found = visit(dst)
                    if found:
                        return found
            stack.pop()
            color[nid] = 2
            return None

        for nid in self.nodes:
            if color.get(nid, 0) == 0:
                found = visit(nid)
                if found:
                    return found
        return None

    # -- surgery (always returns a new Graph) ------------------------------

    def with_kinds(self, new_kinds: Mapping[str, str]) -> "Graph":
        """Change the kind of every node named in new_kinds, in one rebuild."""
        unknown = [nid for nid in new_kinds if nid not in self.nodes]
        if unknown:
            raise KeyError(unknown[0])
        nodes = [
            make_node(n.id, new_kinds[n.id], n.attrs, n.param_refs, n.input_arity)
            if n.id in new_kinds else n
            for n in self.nodes.values()
        ]
        return Graph(nodes, self.edges, self.inputs, self.outputs, self.provenance)

    def insert_after(self, producer_id: str, new_node: Node) -> "Graph":
        """Splice new_node between producer_id and all of its consumers."""
        if producer_id not in self.nodes:
            raise KeyError(producer_id)
        if new_node.id in self.nodes:
            raise ValueError(f"node id {new_node.id!r} already exists")
        if new_node.input_arity != 1:
            raise ValueError("inserted node must be unary")
        edges = []
        for s, d, slot in self.edges:
            if s == producer_id:
                edges.append((new_node.id, d, slot))
            else:
                edges.append((s, d, slot))
        edges.append((producer_id, new_node.id, 0))
        nodes = list(self.nodes.values()) + [new_node]
        outputs = [new_node.id if o == producer_id else o for o in self.outputs]
        return Graph(nodes, edges, self.inputs, outputs, self.provenance)

    def with_provenance(self, provenance: Mapping[str, Any]) -> "Graph":
        return Graph(list(self.nodes.values()), self.edges, self.inputs, self.outputs, provenance)


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality; provenance is metadata and not compared."""
    if set(a.nodes) != set(b.nodes):
        return False
    for nid, node in a.nodes.items():
        other = b.nodes[nid]
        if (node.kind, dict(node.attrs), node.param_refs, node.input_arity) != (
            other.kind,
            dict(other.attrs),
            other.param_refs,
            other.input_arity,
        ):
            return False
    return (
        sorted(a.edges) == sorted(b.edges)
        and a.inputs == b.inputs
        and a.outputs == b.outputs
    )


def stores_equal(a: WeightStore, b: WeightStore) -> bool:
    if set(a.names()) != set(b.names()):
        return False
    for name, arr in a.items():
        other = b[name]
        if arr.dtype != other.dtype or arr.shape != other.shape:
            return False
        if not np.array_equal(arr, other):
            return False
    return True


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def _shape_of(node: Node, in_shapes: list[tuple[int, ...] | None], w: WeightStore,
              problems: list[str]) -> tuple[int, ...] | None:
    """Propagate per-sample shapes through one node; None when undecidable."""

    def bad(msg: str) -> None:
        problems.append(f"node {node.id!r}: {msg}")

    params = [w[p] if p in w else None for p in node.param_refs]
    # An Input's shape comes from its attrs alone.
    if node.kind != "Input" and any(x is None for x in in_shapes + params):
        return None
    return OPS.get(node.kind, _UNKNOWN_KIND).shape(node.attrs, in_shapes, params, bad)


def validate_graph(g: Graph, w: WeightStore) -> ValidationReport:
    """Check structure, arity, parameter resolution, attrs, and shapes.

    Collects every violation instead of stopping at the first, so a CLI can
    surface all problems at once.
    """
    problems: list[str] = []

    for node in g.nodes.values():
        if node.kind not in NODE_KINDS:
            problems.append(f"node {node.id!r}: unknown kind {node.kind!r}")

    for s, d, slot in g.edges:
        if s not in g.nodes:
            problems.append(f"edge references unknown source {s!r}")
        if d not in g.nodes:
            problems.append(f"edge references unknown destination {d!r}")
        if slot < 0:
            problems.append(f"edge ({s!r}, {d!r}) has negative slot {slot}")

    cycle = g.find_cycle()
    if cycle:
        problems.append("cycle through ids " + " -> ".join(cycle))

    # Arity: one edge per slot, slots contiguous, count matches the kind.
    for node in g.nodes.values():
        slots = [slot for _s, slot in g.in_edges(node.id)]
        if slots != list(range(len(slots))):
            problems.append(f"node {node.id!r}: input slots {slots} are not 0..k-1 with one edge each")
        fixed = OPS.get(node.kind, _UNKNOWN_KIND).arity
        if fixed is None:
            if node.input_arity < 2:
                problems.append(f"node {node.id!r}: {node.kind} needs arity >= 2")
        elif node.input_arity != fixed:
            problems.append(f"node {node.id!r}: {node.kind} arity must be {fixed}, got {node.input_arity}")
        if len(slots) != node.input_arity:
            problems.append(
                f"node {node.id!r}: expected {node.input_arity} incoming edges, found {len(slots)}"
            )

    # Parameter resolution; parameter sharing across nodes is not supported.
    owner: dict[str, str] = {}
    for node in g.nodes.values():
        lo, hi = OPS.get(node.kind, _UNKNOWN_KIND).params
        if not (lo <= len(node.param_refs) <= hi):
            problems.append(
                f"node {node.id!r}: {node.kind} takes {lo}..{hi} params, got {len(node.param_refs)}"
            )
        for ref in node.param_refs:
            if ref not in w:
                problems.append(f"node {node.id!r}: parameter {ref!r} not in weight store")
            if ref in owner:
                problems.append(
                    f"parameter {ref!r} shared by nodes {owner[ref]!r} and {node.id!r}; sharing is unsupported"
                )
            else:
                owner[ref] = node.id

    for node in g.nodes.values():
        for msg in OPS.get(node.kind, _UNKNOWN_KIND).check_attrs(node.attrs):
            problems.append(f"node {node.id!r}: {msg}")

    for nid in g.inputs:
        if nid not in g.nodes:
            problems.append(f"declared input {nid!r} does not exist")
        elif g.nodes[nid].kind != "Input":
            problems.append(f"declared input {nid!r} is a {g.nodes[nid].kind}, not an Input node")
    for node in g.nodes.values():
        if node.kind == "Input" and node.id not in g.inputs:
            problems.append(f"Input node {node.id!r} missing from the graph inputs list")
    for nid in g.outputs:
        if nid not in g.nodes:
            problems.append(f"declared output {nid!r} does not exist")
    if not g.outputs:
        problems.append("graph declares no outputs")

    # Shape propagation (only meaningful once the structure is sound).
    if not cycle:
        infer_shapes(g, w, problems)

    return ValidationReport(ok=not problems, violations=problems)


def infer_shapes(
    g: Graph, w: WeightStore, problems: list[str] | None = None
) -> dict[str, tuple[int, ...] | None]:
    """Per-sample output shape of every node; None where undecidable."""
    sink = problems if problems is not None else []
    shapes: dict[str, tuple[int, ...] | None] = {}
    try:
        order = g.topo_order()
    except GraphValidationError:
        order = []
    for nid in order:
        node = g.nodes[nid]
        preds = [shapes.get(p) for p in (s for s, _ in g.in_edges(nid))]
        if len(preds) != node.input_arity:
            shapes[nid] = None
            continue
        shapes[nid] = _shape_of(node, preds, w, sink)
    return shapes


def require_valid(g: Graph, w: WeightStore) -> None:
    report = validate_graph(g, w)
    if not report.ok:
        raise GraphValidationError("; ".join(report.violations))


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------


def _topology_dict(g: Graph, manifest: list[dict[str, Any]]) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "attrs": dict(n.attrs),
                "params": list(n.param_refs),
            }
            for n in g.nodes.values()
        ],
        "edges": [[s, d, slot] for (s, d, slot) in g.edges],
        "inputs": list(g.inputs),
        "outputs": list(g.outputs),
        "weights_manifest": manifest,
    }
    if g.provenance:
        doc["provenance"] = dict(g.provenance)
    return doc


def _manifest_and_blob(w: WeightStore) -> tuple[list[dict[str, Any]], bytes]:
    manifest: list[dict[str, Any]] = []
    blob = bytearray()
    for name in sorted(w.names()):
        arr = w[name]
        tag = TAG_BY_DTYPE[arr.dtype]
        raw = arr.astype(_WIRE_DTYPES[tag], copy=False).tobytes(order="C")
        manifest.append(
            {
                "name": name,
                "dtype": tag,
                "shape": list(arr.shape),
                "offset": len(blob),
                "byte_len": len(raw),
            }
        )
        blob.extend(raw)
    return manifest, bytes(blob)


def save_model(g: Graph, w: WeightStore, topology_path: str, weights_path: str) -> None:
    manifest, blob = _manifest_and_blob(w)
    doc = _topology_dict(g, manifest)
    with open(topology_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")
    with open(weights_path, "wb") as fh:
        fh.write(blob)


def load_model(topology_path: str, weights_path: str) -> tuple[Graph, WeightStore]:
    with open(topology_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(
                f"topology parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"topology must be a JSON object, got {type(doc).__name__}")

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}")

    edges: list[tuple[str, str, int]] = []
    for entry in doc.get("edges", []):
        try:
            src, dst, slot = entry[:3]
            edges.append((str(src), str(dst), int(slot)))
        except (TypeError, ValueError):
            raise ModelFormatError(f"edge {entry!r} is not [src, dst, slot]") from None
    arity_by_id: dict[str, int] = {}
    for _src, dst, _slot in edges:
        arity_by_id[dst] = arity_by_id.get(dst, 0) + 1

    nodes: list[Node] = []
    seen: set[str] = set()
    for spec in doc.get("nodes", []):
        if not isinstance(spec, dict) or "id" not in spec or "kind" not in spec:
            raise ModelFormatError(f"node {spec!r} needs an 'id' and a 'kind'")
        nid = str(spec["id"])
        kind = str(spec["kind"])
        if kind not in NODE_KINDS:
            raise ModelFormatError(f"unknown node kind {kind!r} on node {nid!r}")
        if nid in seen:
            raise ModelFormatError(f"duplicate node id {nid!r}")
        seen.add(nid)
        arity = 0 if kind == "Input" else arity_by_id.get(nid, OPS[kind].default_arity)
        nodes.append(make_node(nid, kind, spec.get("attrs", {}), spec.get("params", []), arity))

    with open(weights_path, "rb") as fh:
        blob = fh.read()

    arrays: dict[str, np.ndarray] = {}
    ranges: list[tuple[int, int, str]] = []
    expected_end = 0
    for entry in doc.get("weights_manifest", []):
        name = str(entry["name"])
        tag = entry["dtype"]
        if tag not in _WIRE_DTYPES:
            raise ModelFormatError(f"parameter {name!r}: unknown dtype {tag!r}")
        shape = tuple(int(s) for s in entry["shape"])
        offset = int(entry["offset"])
        byte_len = int(entry["byte_len"])
        if offset + byte_len > len(blob):
            raise ModelFormatError(
                f"parameter {name!r}: manifest wants bytes [{offset}, {offset + byte_len}) "
                f"but the weights blob has only {len(blob)} bytes"
            )
        itemsize = np.dtype(_WIRE_DTYPES[tag]).itemsize
        flat = np.frombuffer(blob, dtype=_WIRE_DTYPES[tag], count=byte_len // itemsize, offset=offset)
        if flat.size != int(np.prod(shape, dtype=np.int64)):
            raise ModelFormatError(
                f"parameter {name!r}: {flat.size} values do not fill shape {shape}"
            )
        arrays[name] = flat.reshape(shape).astype(DTYPE_TAGS[tag], copy=True)
        if byte_len:
            ranges.append((offset, offset + byte_len, name))
        expected_end = max(expected_end, offset + byte_len)
    ranges.sort()
    for (_start, prev_end, prev), (start, end, name) in zip(ranges, ranges[1:]):
        if start < prev_end:
            raise ModelFormatError(
                f"parameter {name!r}: bytes [{start}, {end}) overlap parameter {prev!r}"
            )
    if expected_end != len(blob):
        raise ModelFormatError(
            f"weights blob length {len(blob)} does not match manifest extent {expected_end}"
        )

    graph = Graph(
        nodes,
        edges,
        [str(i) for i in doc.get("inputs", [])],
        [str(o) for o in doc.get("outputs", [])],
        doc.get("provenance"),
    )
    return graph, WeightStore(arrays)


def model_hash(g: Graph, w: WeightStore) -> str:
    """Content hash pinning analysis reports to the exact model they saw."""
    manifest, blob = _manifest_and_blob(w)
    doc = _topology_dict(g, manifest)
    digest = hashlib.sha256()
    digest.update(canonical_dumps(doc).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(blob)
    return digest.hexdigest()
