"""Dense-tensor execution engine with forward evaluation and exact gradients.

This is the ground-truth oracle behind every equivalence claim in the
package: deliberately small, numpy-only, deterministic. forward and backward
run each node through its kind's kernels in the op registry (lnfold.ops),
whose numpy primitives are re-exported here. Everything here is a pure
function over immutable arrays, so independent evaluations can run
concurrently.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .graph_ir import Graph, WeightStore
from .ops import (  # noqa: F401  (the primitives are re-exported)
    OPS,
    NumericalError,
    attention_value_forward,
    auxiliary_centering,
    concat,
    conv2d_forward,
    embedding_lookup,
    group_norm,
    layer_norm,
    linear_forward,
    relu,
    residual_add,
    rms_norm,
    rnn_cell_forward,
    scalar_scale,
    softmax,
)

# Denominators below this are treated as numerically singular when flagging
# ill-conditioned finite-difference probes.
ILL_CONDITION_THRESHOLD = 1e-12


# ---------------------------------------------------------------------------
# Graph execution
# ---------------------------------------------------------------------------


@dataclass
class TapeEntry:
    node_id: str
    kind: str
    input_ids: tuple[str, ...]
    inputs: tuple[np.ndarray, ...]
    params: tuple[np.ndarray, ...]
    param_names: tuple[str, ...]
    output: np.ndarray
    saved: dict[str, Any] = field(default_factory=dict)
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class Tape:
    """Record of one forward evaluation, sufficient for reverse-mode grads."""

    entries: list[TapeEntry]
    output_ids: list[str]
    min_norm_denom: float

    def outputs(self) -> list[np.ndarray]:
        by_id = {e.node_id: e.output for e in self.entries}
        return [by_id[o] for o in self.output_ids]

    def value_of(self, node_id: str) -> np.ndarray:
        for entry in self.entries:
            if entry.node_id == node_id:
                return entry.output
        raise KeyError(node_id)

    def replay(self) -> list[np.ndarray]:
        """Re-execute every primitive from its saved inputs.

        Reproduces the recorded outputs bit-identically in the same dtype.
        """
        outs: list[np.ndarray] = []
        for entry in self.entries:
            if entry.kind == "Input":
                outs.append(entry.output)
                continue
            recomputed, _saved, _denom = OPS[entry.kind].forward(
                entry.attrs, entry.inputs, entry.params, strict=False
            )
            outs.append(recomputed)
        by_id = {e.node_id: o for e, o in zip(self.entries, outs)}
        return [by_id[o] for o in self.output_ids]


def forward(
    g: Graph,
    w: WeightStore,
    inputs: Mapping[str, np.ndarray] | Sequence[np.ndarray],
    strict: bool = True,
    param_overrides: Mapping[str, np.ndarray] | None = None,
) -> tuple[list[np.ndarray], Tape]:
    """Evaluate the graph in topological order.

    inputs may be a dict keyed by Input-node id or a sequence in declared
    order. param_overrides substitutes parameter arrays by name without
    touching the store (used by the reparameterized training harness).
    """
    if not isinstance(inputs, Mapping):
        given = list(inputs)
        if len(given) != len(g.inputs):
            raise ValueError(f"expected {len(g.inputs)} inputs, got {len(given)}")
        inputs = dict(zip(g.inputs, given))
    missing = [nid for nid in g.inputs if nid not in inputs]
    if missing:
        raise ValueError(f"missing inputs for {missing}")

    overrides = dict(param_overrides or {})
    values: dict[str, np.ndarray] = {}
    entries: list[TapeEntry] = []
    min_denom = np.inf

    for nid in g.topo_order():
        node = g.nodes[nid]
        if node.kind == "Input":
            arr = np.asarray(inputs[nid])
            if strict and np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
                raise NumericalError(f"non-finite input at node {nid!r}")
            values[nid] = arr
            entries.append(TapeEntry(nid, "Input", (), (), (), (), arr, {}, node.attrs))
            continue
        in_ids = tuple(src for src, _slot in g.in_edges(nid))
        in_vals = tuple(values[src] for src in in_ids)
        param_arrays = tuple(
            overrides[ref] if ref in overrides else w[ref] for ref in node.param_refs
        )
        try:
            out, saved, denom = OPS[node.kind].forward(node.attrs, in_vals, param_arrays, strict)
        except NumericalError as exc:
            raise NumericalError(f"node {nid!r}: {exc}") from None
        min_denom = min(min_denom, denom)
        values[nid] = out
        entries.append(
            TapeEntry(nid, node.kind, in_ids, in_vals, param_arrays, node.param_refs, out, saved, node.attrs)
        )

    outs = [values[o] for o in g.outputs]
    return outs, Tape(entries, list(g.outputs), float(min_denom))


# ---------------------------------------------------------------------------
# Reverse mode
# ---------------------------------------------------------------------------


@dataclass
class Gradients:
    params: dict[str, np.ndarray]
    inputs: dict[str, np.ndarray]


def _accumulate(grads: dict[str, Any], names: Sequence[str], values: Sequence[np.ndarray]) -> None:
    """Add each gradient into grads under its name; repeated names add up."""
    for name, g in zip(names, values):
        grads[name] = grads.get(name, 0.0) + g


def backward(tape: Tape, out_grads: Sequence[np.ndarray]) -> Gradients:
    """Exact reverse-mode gradients for every recorded primitive."""
    if len(out_grads) != len(tape.output_ids):
        raise ValueError(f"expected {len(tape.output_ids)} output grads, got {len(out_grads)}")

    out_grads = [np.asarray(og) for og in out_grads]
    for oid, og in zip(tape.output_ids, out_grads):
        ref = tape.value_of(oid)
        if og.shape != ref.shape:
            raise ValueError(f"output grad for {oid!r} has shape {og.shape}, expected {ref.shape}")
    grad_of: dict[str, np.ndarray] = {}
    _accumulate(grad_of, tape.output_ids, out_grads)

    param_grads: dict[str, np.ndarray] = {}
    input_grads: dict[str, np.ndarray] = {}
    for entry in reversed(tape.entries):
        dy = grad_of.get(entry.node_id)
        if dy is None:
            continue
        dy = np.asarray(dy)
        if entry.kind == "Input":
            input_grads[entry.node_id] = dy
            continue
        dxs, dparams = OPS[entry.kind].backward(entry, dy)
        _accumulate(grad_of, entry.input_ids, dxs)
        _accumulate(param_grads, entry.param_names, dparams)

    return Gradients(params=param_grads, inputs=input_grads)


# ---------------------------------------------------------------------------
# Loss selectors and finite differences
# ---------------------------------------------------------------------------


def loss_value(outputs: Sequence[np.ndarray], selector: str | Callable = "sum") -> float:
    if callable(selector):
        return float(selector(outputs))
    if selector == "sum":
        return float(sum(o.sum() for o in outputs))
    if selector == "sumsq":
        return float(sum((o * o).sum() for o in outputs))
    raise ValueError(f"unknown loss selector {selector!r}")


def loss_output_grads(outputs: Sequence[np.ndarray], selector: str = "sum") -> list[np.ndarray]:
    if selector == "sum":
        return [np.ones_like(o) for o in outputs]
    if selector == "sumsq":
        return [2.0 * o for o in outputs]
    raise ValueError(f"unknown loss selector {selector!r}")


@dataclass
class FiniteDifferenceResult:
    params: dict[str, np.ndarray]
    ill_conditioned: bool


def finite_difference_grad(
    g: Graph,
    w: WeightStore,
    inputs: Mapping[str, np.ndarray] | Sequence[np.ndarray],
    loss_selector: str | Callable = "sum",
    h: float = 1e-6,
    param_names: Sequence[str] | None = None,
) -> FiniteDifferenceResult:
    """Central-difference parameter gradients; the oracle for backward().

    Independent of the reverse-mode path by construction: only forward
    evaluations are used. Flags ill-conditioning when any normalization
    denominator came within ILL_CONDITION_THRESHOLD of zero.
    """
    names = list(param_names) if param_names is not None else w.names()
    arrays = {k: v.astype(np.float64).copy() for k, v in w.items()}
    ill = False

    def run() -> float:
        nonlocal ill
        outs, tape = forward(g, WeightStore(arrays), inputs, strict=False)
        if tape.min_norm_denom < ILL_CONDITION_THRESHOLD:
            ill = True
        return loss_value(outs, loss_selector)

    grads: dict[str, np.ndarray] = {}
    for name in names:
        arr = arrays[name]
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = run()
            flat[i] = orig - h
            minus = run()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * h)
        grads[name] = grad
    return FiniteDifferenceResult(params=grads, ill_conditioned=ill)
