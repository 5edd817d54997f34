"""Dense-tensor execution engine with forward evaluation and exact gradients.

This is the ground-truth oracle behind every equivalence claim in the
package: deliberately small, numpy-only, deterministic. forward and
reverse_steps, the one reverse-mode loop (backward runs it to the end), run
each node through its kind's kernels in the op registry (lnfold.ops).
forward records a tape for reverse mode, or, when only outputs are wanted, keeps
none and frees each activation after its last reader, so its memory follows
the live activations, not the depth.
Everything here is a pure function over immutable arrays, so independent
evaluations can run concurrently.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .graph_ir import Graph, Node, WeightStore
from .ops import OPS, NumericalError


# ---------------------------------------------------------------------------
# Graph execution
# ---------------------------------------------------------------------------


@dataclass
class TapeEntry:
    node: Node
    inputs: tuple[np.ndarray, ...]
    params: tuple[np.ndarray, ...]
    output: np.ndarray
    saved: dict[str, Any] = field(default_factory=dict)


@dataclass
class Tape:
    """Record of one forward evaluation, sufficient for reverse-mode grads.

    entries holds one TapeEntry per node of graph, keyed by node id, in
    topological order.
    """

    graph: Graph
    entries: dict[str, TapeEntry]


def forward(
    g: Graph,
    w: WeightStore,
    inputs: Mapping[str, np.ndarray],
    tape: bool = True,
) -> tuple[list[np.ndarray], Tape | None]:
    """Evaluate the graph in topological order.

    inputs is keyed by Input-node id; every parameter comes from w. A
    non-finite float input or a zero normalization denominator raises
    NumericalError naming the node. With tape=False no tape is kept and the
    second value is None: no node's inputs, parameters or saved tensors are
    held, and each node's output is dropped as soon as it is dead
    (Graph.dead_after): once the last node that reads it has run. Graph
    outputs are never dropped.
    """
    missing = [nid for nid in g.inputs if nid not in inputs]
    if missing:
        raise ValueError(f"missing inputs for {missing}")

    dead_after = None if tape else g.dead_after()
    nodes, preds = g.nodes, g.preds
    values: dict[str, np.ndarray] = {}
    entries: dict[str, TapeEntry] = {}
    for nid in g.topo_order():
        node = nodes[nid]
        if node.kind == "Input":
            in_vals = param_arrays = ()
            out, saved = np.asarray(inputs[nid]), {}
            if out.dtype.kind == "f" and not np.isfinite(out).all():
                raise NumericalError(f"non-finite input at node {nid!r}")
        else:
            in_vals = tuple(map(values.__getitem__, preds[nid]))
            param_arrays = tuple([w[ref] for ref in node.param_refs])
            try:
                out, saved = OPS[node.kind].forward(node.attrs, in_vals, param_arrays)
            except NumericalError as exc:
                raise NumericalError(f"node {nid!r}: {exc}") from None
        values[nid] = out
        if tape:
            entries[nid] = TapeEntry(node, in_vals, param_arrays, out, saved)
        else:
            for dead in dead_after[nid]:
                del values[dead]

    outs = [values[o] for o in g.outputs]
    return outs, Tape(g, entries) if tape else None


# ---------------------------------------------------------------------------
# Reverse mode
# ---------------------------------------------------------------------------


def _accumulate(grads: dict[str, Any], names: Sequence[str], values: Sequence[np.ndarray]) -> None:
    """Add each gradient into grads under its name; repeated names add up,
    and a lone one is stored as given (no gradient is updated in place)."""
    for name, g in zip(names, values):
        grads[name] = grads[name] + g if name in grads else g


def reverse_steps(
    tape: Tape,
    out_grads: Sequence[np.ndarray],
    keep_axis0: bool = False,
) -> Iterator[tuple[Node, dict[str, np.ndarray]]]:
    """Reverse mode over a tape, one node at a time: yield (node, its
    parameter gradients keyed by name) for each node the output gradients
    reach, in reverse tape order, each final for a valid graph (validation
    refuses shared parameters).

    The count and shapes of out_grads are checked here, before the first
    step. keep_axis0 is for a tape of stacked trials, whose axis 0 indexes
    the trials: each parameter gradient then keeps that axis, holding every
    trial's own gradient, where otherwise all leading axes are summed.
    Each activation gradient is dropped once its node has used it, and an
    Input's unused: inputs take no gradient. A yielded gradient may be the
    very array a later step reads, so a caller must not update it in place
    while it walks on.
    """
    g = tape.graph
    if len(out_grads) != len(g.outputs):
        raise ValueError(f"expected {len(g.outputs)} output grads, got {len(out_grads)}")

    out_grads = [np.asarray(og) for og in out_grads]
    for oid, og in zip(g.outputs, out_grads):
        ref = tape.entries[oid].output
        if og.shape != ref.shape:
            raise ValueError(f"output grad for {oid!r} has shape {og.shape}, expected {ref.shape}")
    grad_of: dict[str, np.ndarray] = {}
    _accumulate(grad_of, g.outputs, out_grads)

    def steps():
        preds = g.preds
        for nid, entry in reversed(tape.entries.items()):
            dy = grad_of.pop(nid, None)
            if dy is None or entry.node.kind == "Input":
                continue
            dxs, dparams = OPS[entry.node.kind].backward(entry, np.asarray(dy), keep_axis0)
            _accumulate(grad_of, preds[nid], dxs)
            yield entry.node, dict(zip(entry.node.param_refs, dparams))
    return steps()


def backward(
    tape: Tape,
    out_grads: Sequence[np.ndarray],
    keep_axis0: bool = False,
    consume: Callable[[Node, dict[str, np.ndarray]], None] | None = None,
) -> dict[str, np.ndarray]:
    """Exact reverse-mode parameter gradients for every recorded primitive:
    reverse_steps run to the end.

    Each node's parameter gradients, keyed by name, go to consume(node,
    grads) as soon as its reverse step has run. By default they are
    collected into the returned dict, which stays empty under a caller's
    consume.
    """
    param_grads: dict[str, np.ndarray] = {}
    if consume is None:
        consume = lambda node, grads: _accumulate(param_grads, grads, grads.values())
    for node, grads in reverse_steps(tape, out_grads, keep_axis0):
        consume(node, grads)
    return param_grads
