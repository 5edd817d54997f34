"""Weight-centering transforms that force zero-mean layer outputs.

Each general-linear-layer family has one constrained axis per weight tensor:
when every constrained slice sums to zero, the layer's output mean over the
matching activation axis is identically zero for all inputs. center
projects a tensor onto that constraint surface for any family. The
projection is linear, idempotent and symmetric, so the same function
doubles as the gradient map for the reparameterized (proxy-weight) training
scheme.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph_ir import Node
from .jsonutil import exact
from .ops import OPS, Family


@dataclass(frozen=True)
class CenteringSpec:
    """How to center one node's parameters.

    target names the main weight; center_node_params also centers the
    node's other weights before its bias slot (a RecurrentCell's hidden
    matrix). includes_bias centers the bias alongside the weights, which
    keeps biased layers exactly equivalent.
    """

    target: str
    family: Family
    includes_bias: bool = False
    groups: int = 1

    @staticmethod
    def from_json(doc: dict) -> "CenteringSpec":
        return CenteringSpec(
            target=exact(doc["target"], str, "target"),
            family=Family(doc["family"]),
            includes_bias=exact(doc["includes_bias"], bool, "includes_bias"),
            groups=exact(doc.get("groups", 1), int, "groups"),
        )


def spec_for_node(node: Node) -> CenteringSpec:
    """The unique centering spec for a general-linear node."""
    op = OPS[node.kind]
    if op.family is None:
        raise ValueError(f"node kind {node.kind!r} is not a general linear layer")
    has_bias = op.bias_of(node.param_refs) is not None
    return CenteringSpec(target=node.param_refs[0], family=op.family, includes_bias=has_bias)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

# The weight axis whose slices each family constrains, counted from the back
# so that leading axes (stacked trials' gradients) ride along. Grouped
# columns split that axis into groups first (_slices).
_WEIGHT_AXIS = {
    Family.LINEAR_COLUMNS: -2,
    Family.RECURRENT_BOTH: -2,
    Family.GROUPED_COLUMNS: -2,
    Family.CONV_OUT_CHANNELS: -4,
    Family.ATTENTION_VALUE_ROWS: -1,
}


def _slices(t: np.ndarray, family: Family, groups: int) -> np.ndarray:
    """t viewed so that its constrained slices run along _WEIGHT_AXIS[family]."""
    if family is not Family.GROUPED_COLUMNS:
        return t
    m = t.shape[-2]
    if groups < 1 or m % groups != 0:
        raise ValueError(f"groups {groups} must divide the centered-axis length {m}")
    return t.reshape(t.shape[:-2] + (groups, m // groups, t.shape[-1]))


def center(t: np.ndarray, family: Family, groups: int = 1) -> np.ndarray:
    """Project t onto family's constraint surface: subtract each constrained
    slice's mean. The projection is symmetric and idempotent, so it maps
    weights and the gradients of proxy weights alike. Leading axes of t
    (one gradient per stacked trial) ride along.

    Grouped columns with one row per group zero the matrix: the grouped
    constraint is over-determined there.
    """
    if family is Family.GROUPED_COLUMNS and groups == t.shape[-2] and np.any(t):
        warnings.warn(
            "one-element groups over-constrain the weights; the projection zeroes the layer",
            stacklevel=2,
        )
    s = _slices(t, family, groups)
    return (s - s.mean(axis=_WEIGHT_AXIS[family], keepdims=True)).reshape(t.shape)


def center_bias(b: np.ndarray) -> np.ndarray:
    """Bias rides along as one more weight column: subtract its mean."""
    return b - b.mean(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Constraint check
# ---------------------------------------------------------------------------


def constraint_residual(W: np.ndarray, family: Family, groups: int = 1) -> float:
    """Largest |sum| over the constrained slices."""
    sums = _slices(W, family, groups).sum(axis=_WEIGHT_AXIS[family])
    return float(np.abs(sums).max()) if sums.size else 0.0


# ---------------------------------------------------------------------------
# Node-level application
# ---------------------------------------------------------------------------


def center_node_params(node: Node, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Centered replacements for one general-linear node's parameters, keyed
    by name, as spec_for_node(node) prescribes: every weight before the
    kind's bias slot goes through center, the bias through center_bias.
    Leading axes of the arrays (one gradient per stacked trial) ride along."""
    spec, op = spec_for_node(node), OPS[node.kind]
    out = {name: center(arrays[name], spec.family) for name in node.param_refs[:op.bias]}
    bias_name = op.bias_of(node.param_refs)
    if bias_name is not None:
        out[bias_name] = center_bias(arrays[bias_name])
    return out
