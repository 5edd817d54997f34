"""Computation-graph IR: nodes, graphs, validation, and the model file format.

A model is a DAG of typed nodes plus a weight store. The graph and store are
immutable after construction: every rewrite builds new instances, so any
number of analyses can run concurrently over the same model.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .jsonutil import canonical_dumps
from .ops import OPS

FORMAT_VERSION = 1

NODE_KINDS = tuple(OPS)

DTYPE_TAGS = {"f32": np.float32, "f64": np.float64}
TAG_BY_DTYPE = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_WIRE_DTYPES = {"f32": "<f4", "f64": "<f8"}


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed or decoded."""


class GraphValidationError(ValueError):
    """Raised when an operation requires a valid graph but validation failed."""


@dataclass(frozen=True)
class Node:
    """One graph vertex: an operation plus references into the weight store."""

    id: str
    kind: str
    attrs: Mapping[str, Any] = field(default_factory=dict)
    param_refs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in OPS:
            raise ValueError(f"unknown node kind {self.kind!r} on node {self.id!r}")


def make_node(
    node_id: str,
    kind: str,
    attrs: Mapping[str, Any] | None = None,
    params: Sequence[str] = (),
) -> Node:
    return Node(node_id, kind, dict(attrs or {}), tuple(params))


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
        """The store widened to f64 for equivalence verification; arrays that
        are already f64 are shared, not copied."""
        return WeightStore({k: v.astype(np.float64, copy=False) for k, v in self.items()})

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

    Edges are (src id, dst id, dst input slot), and they are the only record
    of a node's inputs: its arity is its number of incoming edges, one per
    slot 0..k-1. Time-unrolling of the recurrent cell is the caller's
    concern; the cell is one node with two input slots.
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
        self._kahn: tuple[list[str], dict[str, int]] | None = None
        self._dead_after: dict[str, tuple[str, ...]] | None = None
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

    def _sorted(self) -> tuple[list[str], dict[str, int]]:
        """One cached Kahn pass: the topological order, and the nodes left
        over with their unmet in-degrees, in node order.

        The order is deterministic given node insertion order. Only edges
        between known nodes count (validation reports the others), so an
        edge from an unknown id strands nothing. A node is left over only on
        or downstream of a cycle.
        """
        if self._kahn is None:
            indeg = dict.fromkeys(self.nodes, 0)
            for s, d, _slot in self.edges:
                if s in indeg and d in indeg:
                    indeg[d] += 1
            ready = deque(nid for nid, n in indeg.items() if n == 0)
            order: list[str] = []
            while ready:
                nid = ready.popleft()
                order.append(nid)
                # One decrement per edge: a node may take one source on two slots.
                for dst, _slot in self._out.get(nid, ()):
                    if dst in indeg:
                        indeg[dst] -= 1
                        if indeg[dst] == 0:
                            ready.append(dst)
            self._kahn = order, {nid: n for nid, n in indeg.items() if n}
        return self._kahn

    def topo_order(self) -> list[str]:
        order, left = self._sorted()
        if left:
            raise GraphValidationError("graph contains a cycle; run validate_graph")
        return order

    def dead_after(self) -> dict[str, tuple[str, ...]]:
        """For each node, the nodes whose outputs are dead once it has run:
        those it is the last reader of in topological order, and itself when
        nothing reads it; graph outputs never die. Cached beside the Kahn
        pass; raises GraphValidationError on a cycle."""
        if self._dead_after is None:
            order = self.topo_order()
            last_reader = dict(zip(order, order))
            for nid in order:
                for src, _slot in self._in.get(nid, ()):
                    last_reader[src] = nid
            dead: dict[str, list[str]] = {nid: [] for nid in order}
            outputs = set(self.outputs)
            for nid, reader in last_reader.items():
                if nid not in outputs:
                    dead[reader].append(nid)
            self._dead_after = {nid: tuple(ids) for nid, ids in dead.items()}
        return self._dead_after

    def find_cycle(self) -> list[str] | None:
        """Node ids along one cycle, the first repeated last; None if acyclic.

        Every node Kahn leaves over has a left-over predecessor, so a walk
        back through them must meet a node it passed; that stretch, read
        forwards, is a cycle.
        """
        _order, left = self._sorted()
        walk, at = list(left)[:1], {}
        while walk and walk[-1] not in at:
            at[walk[-1]] = len(walk) - 1
            walk.append(next(s for s, _slot in self._in[walk[-1]] if s in left))
        return walk[at[walk[-1]]:][::-1] if walk else None

    # -- surgery (always returns a new Graph) ------------------------------

    def with_kinds(self, new_kinds: Mapping[str, str]) -> "Graph":
        """Change the kind of every node named in new_kinds, in one rebuild."""
        unknown = [nid for nid in new_kinds if nid not in self.nodes]
        if unknown:
            raise KeyError(unknown[0])
        nodes = [
            make_node(n.id, new_kinds[n.id], n.attrs, n.param_refs)
            if n.id in new_kinds else n
            for n in self.nodes.values()
        ]
        return Graph(nodes, self.edges, self.inputs, self.outputs, self.provenance)

    def with_provenance(self, provenance: Mapping[str, Any]) -> "Graph":
        return Graph(list(self.nodes.values()), self.edges, self.inputs, self.outputs, provenance)


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality; provenance is metadata and not compared."""
    if set(a.nodes) != set(b.nodes):
        return False
    for nid, node in a.nodes.items():
        other = b.nodes[nid]
        if (node.kind, dict(node.attrs), node.param_refs) != (other.kind, dict(other.attrs), other.param_refs):
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
    # infer_shapes' result; empty when the graph has a cycle.
    shapes: dict[str, tuple[int, ...] | None] = field(default_factory=dict)


def _shape_of(node: Node, in_shapes: list[tuple[int, ...] | None], sources: list[Node],
              w: WeightStore, problems: list[str]) -> tuple[int, ...] | None:
    """Propagate per-sample shapes through one node; None when undecidable."""

    def bad(msg: str) -> None:
        problems.append(f"node {node.id!r}: {msg}")

    op = OPS[node.kind]
    params = [w[p] if p in w else None for p in node.param_refs]
    # The layout, arity and attr checks report a short parameter list, a
    # wrong input count or a malformed attr; the shape rule would trip on each.
    if len(params) < op.params[0] or not op.takes(len(in_shapes)):
        return None
    if op.check_attrs(node.attrs):
        return None
    # An Input's shape comes from its attrs alone.
    if node.kind != "Input" and any(x is None for x in in_shapes + params):
        return None
    for slot, shape in enumerate(in_shapes):
        if len(shape) < op.min_rank:
            return bad(f"input {slot} has per-sample shape {shape}; "
                       f"{node.kind} needs at least {op.min_rank} axes")
    for msg in op.check_sources(sources, params):
        bad(msg)
    return op.shape(node.attrs, in_shapes, params, bad)


def validate_graph(g: Graph, w: WeightStore) -> ValidationReport:
    """Check structure, arity, parameter resolution, attrs, and shapes.

    Collects every violation instead of stopping at the first, so a CLI can
    surface all problems at once.
    """
    problems: list[str] = []

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

    # Arity is the number of incoming edges: one per slot, slots contiguous,
    # count accepted by the kind.
    for node in g.nodes.values():
        slots = [slot for _s, slot in g.in_edges(node.id)]
        if slots != list(range(len(slots))):
            problems.append(f"node {node.id!r}: input slots {slots} are not 0..k-1 with one edge each")
        op = OPS[node.kind]
        if not op.takes(len(slots)):
            need = "needs arity >= 2" if op.arity is None else f"arity must be {op.arity}"
            problems.append(f"node {node.id!r}: {node.kind} {need}, got {len(slots)} incoming edges")

    # Parameter resolution; parameter sharing across nodes is not supported.
    owner: dict[str, str] = {}
    for node in g.nodes.values():
        lo, hi = OPS[node.kind].params
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
        for msg in OPS[node.kind].check_attrs(node.attrs):
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
    shapes = {} if cycle else infer_shapes(g, w, problems)

    return ValidationReport(ok=not problems, violations=problems, shapes=shapes)


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
        sources = [s for s, _ in g.in_edges(nid)]
        if not all(s in g.nodes for s in sources):  # validation reports the unknown id
            shapes[nid] = None
            continue
        preds = [shapes[s] for s in sources]
        shapes[nid] = _shape_of(g.nodes[nid], preds, [g.nodes[s] for s in sources], w, sink)
    return shapes


def require_valid(g: Graph, w: WeightStore) -> dict[str, tuple[int, ...] | None]:
    """Raise GraphValidationError unless g is valid; else every node's shape."""
    report = validate_graph(g, w)
    if not report.ok:
        raise GraphValidationError("; ".join(report.violations))
    return report.shapes


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


def _manifest_and_arrays(w: WeightStore) -> tuple[list[dict[str, Any]], list[np.ndarray]]:
    """The weights manifest and, in its order, each array in wire layout;
    the blob is those arrays' bytes back to back."""
    manifest: list[dict[str, Any]] = []
    raws: list[np.ndarray] = []
    offset = 0
    for name in sorted(w.names()):
        arr = w[name]
        tag = TAG_BY_DTYPE[arr.dtype]
        raw = np.ascontiguousarray(arr.astype(_WIRE_DTYPES[tag], copy=False))
        manifest.append({"name": name, "dtype": tag, "shape": list(arr.shape),
                         "offset": offset, "byte_len": raw.nbytes})
        offset += raw.nbytes
        raws.append(raw)
    return manifest, raws


def save_model(g: Graph, w: WeightStore, topology_path: str, weights_path: str) -> None:
    manifest, raws = _manifest_and_arrays(w)
    doc = _topology_dict(g, manifest)
    with open(topology_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")
    try:
        with open(weights_path, "wb") as fh:
            fh.writelines(raws)
    except OSError:
        os.remove(topology_path)  # a topology without its weights is no model
        raise


def _refuse_constant(name: str) -> None:
    """json's hook for NaN and +-Infinity, which canonical_dumps never writes."""
    raise ModelFormatError(f"topology holds {name}; numbers must be finite")


def load_model(topology_path: str, weights_path: str) -> tuple[Graph, WeightStore]:
    with open(topology_path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(
                f"topology parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"topology must be a JSON object, got {type(doc).__name__}")

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}")
    for key in ("nodes", "edges", "inputs", "outputs", "weights_manifest"):
        if not isinstance(doc.get(key, []), list):
            raise ModelFormatError(f"topology {key!r} must be a list, got {type(doc[key]).__name__}")
    if not isinstance(doc.get("provenance") or {}, dict):
        raise ModelFormatError("topology 'provenance' must be an object")

    edges: list[tuple[str, str, int]] = []
    for entry in doc.get("edges", []):
        try:
            src, dst, slot = entry[:3]
            edges.append((str(src), str(dst), int(slot)))
        except (TypeError, ValueError):
            raise ModelFormatError(f"edge {entry!r} is not [src, dst, slot]") from None

    nodes: list[Node] = []
    try:
        for spec in doc.get("nodes", []):
            if not isinstance(spec, dict) or "id" not in spec or "kind" not in spec:
                raise ModelFormatError(f"node {spec!r} needs an 'id' and a 'kind'")
            nid = str(spec["id"])
            attrs, params = spec.get("attrs", {}), spec.get("params", [])
            if not isinstance(attrs, dict) or not isinstance(params, list):
                raise ModelFormatError(f"node {nid!r}: 'attrs' must be an object and 'params' a list")
            nodes.append(make_node(nid, str(spec["kind"]), attrs, [str(p) for p in params]))
        graph = Graph(
            nodes,
            edges,
            [str(i) for i in doc.get("inputs", [])],
            [str(o) for o in doc.get("outputs", [])],
            doc.get("provenance"),
        )
    except ValueError as exc:  # a Node refuses an unknown kind, a Graph a duplicate id
        raise ModelFormatError(str(exc)) from None

    with open(weights_path, "rb") as fh:
        blob = fh.read()

    arrays: dict[str, np.ndarray] = {}
    ranges: list[tuple[int, int, str]] = []
    expected_end = 0
    for entry in doc.get("weights_manifest", []):
        try:
            name = str(entry["name"])
            tag = entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
            offset = int(entry["offset"])
            byte_len = int(entry["byte_len"])
        except (KeyError, TypeError, ValueError):
            raise ModelFormatError(
                f"manifest entry {entry!r} needs a name, a dtype, an integer shape, "
                "an offset and a byte_len"
            ) from None
        if not isinstance(tag, str) or tag not in _WIRE_DTYPES:
            raise ModelFormatError(f"parameter {name!r}: unknown dtype {tag!r}")
        if min((offset, byte_len) + shape) < 0:
            raise ModelFormatError(f"parameter {name!r}: negative shape, offset or byte_len")
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
    return graph, WeightStore(arrays)


def model_hash(g: Graph, w: WeightStore) -> str:
    """Content hash pinning analysis reports to the exact model they saw."""
    manifest, raws = _manifest_and_arrays(w)
    doc = _topology_dict(g, manifest)
    digest = hashlib.sha256()
    digest.update(canonical_dumps(doc).encode("utf-8"))
    digest.update(b"\x00")
    for raw in raws:
        digest.update(raw)
    return digest.hexdigest()
