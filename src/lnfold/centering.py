"""Weight-centering transforms that force zero-mean layer outputs.

Each general-linear-layer family has one constrained axis per weight tensor:
when every constrained slice sums to zero, the layer's output mean over the
matching activation axis is identically zero for all inputs. The transforms
here project weights onto that constraint surface. All of them are linear,
idempotent, symmetric projections, so the same function doubles as the
gradient map for the reparameterized (proxy-weight) training scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph_ir import Node
from .ops import OPS, Family


@dataclass(frozen=True)
class CenteringSpec:
    """How to center one node's parameters.

    target names the main weight; for RECURRENT_BOTH the second matrix is
    found through the owning node. includes_bias centers the bias alongside
    the weight, which keeps biased layers exactly equivalent.
    """

    target: str
    family: Family
    includes_bias: bool = False
    groups: int = 1

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "family": self.family.value,
            "includes_bias": self.includes_bias,
            "groups": self.groups,
        }

    @staticmethod
    def from_json(doc: dict) -> "CenteringSpec":
        return CenteringSpec(
            target=doc["target"],
            family=Family(doc["family"]),
            includes_bias=bool(doc["includes_bias"]),
            groups=int(doc.get("groups", 1)),
        )


def spec_for_node(node: Node) -> CenteringSpec:
    """The unique centering spec for a general-linear node."""
    op = OPS.get(node.kind)
    if op is None or op.family is None:
        raise ValueError(f"node kind {node.kind!r} is not a general linear layer")
    has_bias = op.bias_of(node.param_refs) is not None
    return CenteringSpec(target=node.param_refs[0], family=op.family, includes_bias=has_bias)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def center_columns(W: np.ndarray) -> np.ndarray:
    """Subtract each column's mean so every column sums to zero."""
    if W.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {W.shape}")
    return W - W.mean(axis=0, keepdims=True)


def center_conv_kernel(K: np.ndarray) -> np.ndarray:
    """Center over output channels per (in-channel, kernel position)."""
    if K.ndim != 4:
        raise ValueError(f"expected a 4-axis kernel, got shape {K.shape}")
    return K - K.mean(axis=0, keepdims=True)


def center_recurrent(Wv: np.ndarray, Wh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-center both cell matrices independently."""
    return center_columns(Wv), center_columns(Wh)


def center_value_rows(V: np.ndarray) -> np.ndarray:
    """Center each row of the value projection over the output width."""
    if V.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {V.shape}")
    return V - V.mean(axis=1, keepdims=True)


def center_grouped_columns(W: np.ndarray, groups: int) -> np.ndarray:
    """Center each contiguous chunk of m/groups rows within every column.

    With groups == rows, each chunk is a single element and the projection
    zeroes the matrix: the grouped constraint is over-determined there.
    """
    if W.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {W.shape}")
    m = W.shape[0]
    if groups < 1 or m % groups != 0:
        raise ValueError(f"groups {groups} must divide the centered-axis length {m}")
    chunk = m // groups
    if chunk == 1 and np.any(W):
        warnings.warn(
            "one-element groups over-constrain the weights; the projection zeroes the layer",
            stacklevel=2,
        )
    grouped = W.reshape(groups, chunk, W.shape[1])
    return (grouped - grouped.mean(axis=1, keepdims=True)).reshape(W.shape)


def center_bias(b: np.ndarray) -> np.ndarray:
    """Bias rides along as one more weight column: subtract its mean."""
    return b - b.mean()


def centering_gradient(dV: np.ndarray, family: Family = Family.LINEAR_COLUMNS,
                       groups: int = 1) -> np.ndarray:
    """Map a gradient w.r.t. the effective weight back to the proxy weight.

    Every family's transform is a symmetric idempotent projection, so the
    backward map is the forward map applied to the gradient.
    """
    return _apply_family(dV, family, groups)


def _apply_family(t: np.ndarray, family: Family, groups: int) -> np.ndarray:
    if family in (Family.LINEAR_COLUMNS, Family.RECURRENT_BOTH):
        return center_columns(t)
    if family is Family.CONV_OUT_CHANNELS:
        return center_conv_kernel(t)
    if family is Family.ATTENTION_VALUE_ROWS:
        return center_value_rows(t)
    if family is Family.GROUPED_COLUMNS:
        return center_grouped_columns(t, groups)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Constraint check
# ---------------------------------------------------------------------------


def constraint_residual(W: np.ndarray, family: Family, groups: int = 1) -> float:
    """Largest |sum| over the constrained slices."""
    if family in (Family.LINEAR_COLUMNS, Family.RECURRENT_BOTH, Family.CONV_OUT_CHANNELS):
        sums = W.sum(axis=0)
    elif family is Family.ATTENTION_VALUE_ROWS:
        sums = W.sum(axis=1)
    elif family is Family.GROUPED_COLUMNS:
        m = W.shape[0]
        if m % groups != 0:
            raise ValueError(f"groups {groups} must divide the centered-axis length {m}")
        sums = W.reshape(groups, m // groups, W.shape[1]).sum(axis=1)
    else:
        raise ValueError(f"unknown family {family!r}")
    return float(np.abs(sums).max()) if sums.size else 0.0


def default_tolerance(dtype: np.dtype, axis_len: int) -> float:
    base = 1e-9 if np.dtype(dtype) == np.float64 else 1e-5
    return base * max(axis_len, 1)


def _constrained_axis_len(W: np.ndarray, family: Family, groups: int) -> int:
    if family is Family.ATTENTION_VALUE_ROWS:
        return W.shape[1]
    if family is Family.GROUPED_COLUMNS:
        return W.shape[0] // max(groups, 1)
    return W.shape[0]


def is_centered(W: np.ndarray, family: Family, groups: int = 1, tol: float | None = None) -> bool:
    """True iff every constrained slice sums to at most tol in absolute value.

    The all-zero tensor trivially satisfies every family's constraint.
    """
    if tol is None:
        tol = default_tolerance(W.dtype, _constrained_axis_len(W, family, groups))
    return constraint_residual(W, family, groups) <= tol


# ---------------------------------------------------------------------------
# Node-level application
# ---------------------------------------------------------------------------


def center_node_params(node: Node, arrays: dict[str, np.ndarray],
                       spec: CenteringSpec) -> dict[str, np.ndarray]:
    """Centered replacements for one node's parameters, keyed by name."""
    out: dict[str, np.ndarray] = {}
    if spec.family is Family.RECURRENT_BOTH:
        wv_name, wh_name = node.param_refs[0], node.param_refs[1]
        out[wv_name], out[wh_name] = center_recurrent(arrays[wv_name], arrays[wh_name])
    else:
        out[spec.target] = _apply_family(arrays[spec.target], spec.family, spec.groups)
    bias_name = OPS[node.kind].bias_of(node.param_refs)
    if spec.includes_bias and bias_name is not None:
        out[bias_name] = center_bias(arrays[bias_name])
    return out
