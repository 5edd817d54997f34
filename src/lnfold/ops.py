"""The op registry: every fact about each node kind, in one entry per kind.

An entry (an OpDef) holds the kind's input arity, parameter layout, node
class, shape rule, forward kernel, backward rule, attr checks and, for
general-linear kinds, the activation axis its centering constrains and its
centering family. graph_ir, tensor_math, fold_detect and centering all read
this one table, so adding a node kind means adding one OpDef to OPS.

The numpy primitives behind the kernels live here too. All of them accept
arbitrary leading batch axes; normalization acts on the last axis unless a
node says otherwise. This module imports nothing else from the package.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Mapping, Sequence

import numpy as np

DEFAULT_EPS = 1e-5


class NumericalError(ArithmeticError):
    """Raised in strict mode on division by zero or non-finite inputs."""


class NodeClass(Enum):
    """Behavioral classes driving foldability analysis.

    GENERAL_LINEAR layers can be forced to emit zero-mean output by centering
    their weights. SCALAR and RESIDUAL layers preserve an incoming zero-mean
    guarantee. ZERO_MEAN layers emit zero-mean output unconditionally. OPAQUE
    layers give no guarantee and stop the analysis.
    """

    GENERAL_LINEAR = "general_linear"
    SCALAR = "scalar"
    RESIDUAL = "residual"
    ZERO_MEAN = "zero_mean"
    OPAQUE = "opaque"


class Family(Enum):
    """Which slices of the weight tensor are constrained to sum to zero."""

    LINEAR_COLUMNS = "linear_columns"          # columns of W[m, n]
    CONV_OUT_CHANNELS = "conv_out_channels"    # out-channel fibers of K[co, ci, fh, fw]
    RECURRENT_BOTH = "recurrent_both"          # columns of both cell matrices
    ATTENTION_VALUE_ROWS = "attention_value_rows"  # rows of V[d, dv]
    GROUPED_COLUMNS = "grouped_columns"        # per-group column chunks of W[m, n]


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def _inv_sqrt(denom: np.ndarray, strict: bool) -> np.ndarray:
    if strict and np.any(denom == 0.0):
        raise NumericalError("zero variance with eps=0; use eps > 0 or lenient mode")
    with np.errstate(divide="ignore"):
        inv = np.where(denom > 0.0, 1.0 / np.sqrt(np.where(denom > 0.0, denom, 1.0)), 0.0)
    return inv


def _center_scale(x, eps, gamma, beta, strict, center):
    """LayerNorm (center=True) or RMSNorm over the last axis, one code path.

    Returns (output, xhat, inverse root, denominator); xhat is the output
    before the affine.
    """
    if center:
        x = x - x.mean(axis=-1, keepdims=True)
    denom = np.mean(x * x, axis=-1, keepdims=True) + eps
    inv = _inv_sqrt(denom, strict)
    xhat = x * inv
    out = xhat
    if gamma is not None:
        out = out * gamma
    if beta is not None:
        out = out + beta
    return out, xhat, inv, denom


def layer_norm(
    x: np.ndarray,
    eps: float = DEFAULT_EPS,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    strict: bool = True,
) -> np.ndarray:
    """Center over the last axis, then scale by the root second moment."""
    return _center_scale(x, eps, gamma, beta, strict, center=True)[0]


def rms_norm(
    x: np.ndarray,
    eps: float = DEFAULT_EPS,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    strict: bool = True,
) -> np.ndarray:
    """Scale by the root mean square of the raw last-axis vector.

    The optional affine matches layer_norm, bias included, so affine
    parameters can be moved between the two verbatim.
    """
    return _center_scale(x, eps, gamma, beta, strict, center=False)[0]


def group_norm(x: np.ndarray, groups: int, eps: float = DEFAULT_EPS, strict: bool = True) -> np.ndarray:
    """Per-group layer_norm over contiguous last-axis chunks."""
    n = x.shape[-1]
    if groups < 1 or n % groups != 0:
        raise ValueError(f"groups {groups} must divide axis length {n}")
    grouped = x.reshape(x.shape[:-1] + (groups, n // groups))
    return layer_norm(grouped, eps=eps, strict=strict).reshape(x.shape)


def linear_forward(W: np.ndarray, b: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    out = x @ W.T
    if b is not None:
        out = out + b
    return out


def conv2d_forward(
    K: np.ndarray,
    b: np.ndarray | None,
    x: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    out, _ = _conv2d_with_patches(K, b, x, stride, padding)
    return out


def _im2col(x: np.ndarray, fh: int, fw: int, stride: int, padding: int) -> tuple[np.ndarray, tuple[int, int]]:
    """(B, OH*OW, C*fh*fw) patch matrix for x of shape (B, C, H, W)."""
    bsz, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - fh) // stride + 1
    ow = (w + 2 * padding - fw) // stride + 1
    cols = np.empty((bsz, oh * ow, c * fh * fw), dtype=x.dtype)
    idx = 0
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i * stride : i * stride + fh, j * stride : j * stride + fw]
            cols[:, idx, :] = patch.reshape(bsz, -1)
            idx += 1
    return cols, (oh, ow)


def _col2im(
    cols: np.ndarray,
    in_shape: tuple[int, int, int, int],
    fh: int,
    fw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    bsz, c, h, w = in_shape
    padded = np.zeros((bsz, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    oh = (h + 2 * padding - fh) // stride + 1
    ow = (w + 2 * padding - fw) // stride + 1
    idx = 0
    for i in range(oh):
        for j in range(ow):
            patch = cols[:, idx, :].reshape(bsz, c, fh, fw)
            padded[:, :, i * stride : i * stride + fh, j * stride : j * stride + fw] += patch
            idx += 1
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _conv2d_with_patches(
    K: np.ndarray,
    b: np.ndarray | None,
    x: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, dict[str, Any]]:
    lead = x.shape[:-3]
    c, h, w = x.shape[-3:]
    co, ci, fh, fw = K.shape
    if c != ci:
        raise ValueError(f"conv input has {c} channels, kernel expects {ci}")
    flat = x.reshape((-1, c, h, w))
    cols, (oh, ow) = _im2col(flat, fh, fw, stride, padding)
    out2 = cols @ K.reshape(co, -1).T  # (B, OH*OW, co)
    if b is not None:
        out2 = out2 + b
    out = out2.transpose(0, 2, 1).reshape(lead + (co, oh, ow))
    saved = {"cols": cols, "in_shape": (flat.shape), "lead": lead, "oh": oh, "ow": ow}
    return out, saved


def rnn_cell_forward(
    Wv: np.ndarray,
    Wh: np.ndarray,
    x: np.ndarray,
    h_prev: np.ndarray,
    b: np.ndarray | None = None,
) -> np.ndarray:
    out = x @ Wv.T + h_prev @ Wh.T
    if b is not None:
        out = out + b
    return out


def attention_value_forward(B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Project attention-mixed activations through the value matrix: B @ V."""
    return B @ V


def residual_add(*xs: np.ndarray) -> np.ndarray:
    out = xs[0]
    for x in xs[1:]:
        out = out + x
    return out


def scalar_scale(x: np.ndarray, scale: float) -> np.ndarray:
    return x * scale


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def concat(xs: Sequence[np.ndarray], axis: int = -1) -> np.ndarray:
    return np.concatenate(list(xs), axis=axis)


def embedding_lookup(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise NumericalError("embedding indices must be integers")
    return table[idx]


def auxiliary_centering(x: np.ndarray) -> np.ndarray:
    """Subtract the last-axis mean; the explicit form of a folded centering."""
    return x - x.mean(axis=-1, keepdims=True)


def _sum_to(shape: tuple[int, ...], g: np.ndarray) -> np.ndarray:
    """Sum leading broadcast axes of g down to shape (for bias-style params)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _matmul_param_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """d(dy = x @ W.T)/dW summed over all leading axes: (m, n)."""
    xf = x.reshape(-1, x.shape[-1])
    df = dy.reshape(-1, dy.shape[-1])
    return df.T @ xf


def _norm_input_grad(g, xhat, inv, center):
    """Input gradient of _center_scale, given g = d(loss)/d(xhat)."""
    proj = xhat * np.mean(g * xhat, axis=-1, keepdims=True)
    if center:
        return inv * (g - g.mean(axis=-1, keepdims=True) - proj)
    return inv * (g - proj)


# ---------------------------------------------------------------------------
# Op definitions
# ---------------------------------------------------------------------------

Shape = tuple[int, ...]


class OpDef:
    """Every fact about one node kind. The base class is the default: a
    unary, parameter-free, shape-preserving opaque op.

    arity is the number of input slots (None: two or more, taken from the
    node). params is the (min, max) number of parameter refs and bias the
    slot of the optional bias among them, always the last one.
    General-linear kinds name the activation axis their centering
    constrains and their centering family; the zero-mean kind names the
    axis its output is centered on.

    The rules: check_attrs lists attr problems; shape maps per-sample input
    shapes and parameters to the output shape, reporting problems through
    bad, which returns None; forward returns (output, saved tensors,
    smallest normalization denominator); backward returns the gradients for
    each input slot and each parameter, in slot order.
    """

    node_class = NodeClass.OPAQUE
    arity: int | None = 1
    params = (0, 0)
    bias: int | None = None
    centered_axis: int | None = None
    family: Family | None = None

    @property
    def default_arity(self) -> int:
        return 2 if self.arity is None else self.arity

    def bias_of(self, params: Sequence[Any]) -> Any:
        """The bias among params, or None if the node has none."""
        return params[self.bias] if self.bias is not None and len(params) > self.bias else None

    def _bias_grad(self, params, dy) -> list[np.ndarray]:
        """[d(loss)/d(bias)], or [] when the node has no bias."""
        return [_sum_to(params[self.bias].shape, dy)] if len(params) > self.bias else []

    def _check_bias(self, params, size: int, bad: Callable[[str], None]) -> None:
        b = self.bias_of(params)
        if b is not None and b.shape != (size,):
            bad(f"bias shape {b.shape} != ({size},)")

    def check_attrs(self, attrs: Mapping[str, Any]) -> list[str]:
        return []

    def shape(self, attrs, shapes: list[Shape], params: list, bad) -> Shape | None:
        return shapes[0]


class _Linear(OpDef):
    node_class, params, bias = NodeClass.GENERAL_LINEAR, (1, 2), 1
    centered_axis, family = -1, Family.LINEAR_COLUMNS

    def shape(self, attrs, shapes, params, bad):
        weight = params[0]
        if weight.ndim != 2:
            return bad(f"weight must be 2-D, got shape {weight.shape}")
        m, n = weight.shape
        if shapes[0][-1] != n:
            return bad(f"weight shape {weight.shape} disagrees with incoming width {shapes[0][-1]}")
        self._check_bias(params, m, bad)
        return shapes[0][:-1] + (m,)

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return linear_forward(params[0], self.bias_of(params), x), {}, np.inf

    def backward(self, e, dy):
        dW = _matmul_param_grad(e.inputs[0], dy)
        return [dy @ e.params[0]], [dW] + self._bias_grad(e.params, dy)


class _Conv2d(OpDef):
    node_class, params, bias = NodeClass.GENERAL_LINEAR, (1, 2), 1
    centered_axis, family = -3, Family.CONV_OUT_CHANNELS  # channel axis of (..., C, H, W)

    def shape(self, attrs, shapes, params, bad):
        kernel = params[0]
        if kernel.ndim != 4:
            return bad(f"kernel must be 4-D, got shape {kernel.shape}")
        co, ci, fh, fw = kernel.shape
        if len(shapes[0]) < 3:
            return bad(f"conv input must have (channels, h, w) trailing axes, got {shapes[0]}")
        c, h, wdt = shapes[0][-3:]
        stride = int(attrs.get("stride", 1))
        padding = int(attrs.get("padding", 0))
        if c != ci:
            return bad(f"kernel expects {ci} input channels, got {c}")
        oh = (h + 2 * padding - fh) // stride + 1
        ow = (wdt + 2 * padding - fw) // stride + 1
        if oh < 1 or ow < 1:
            return bad(f"kernel {fh}x{fw} does not fit input {h}x{wdt}")
        self._check_bias(params, co, bad)
        return shapes[0][:-3] + (co, oh, ow)

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        stride = int(attrs.get("stride", 1))
        padding = int(attrs.get("padding", 0))
        out, saved = _conv2d_with_patches(params[0], self.bias_of(params), x, stride, padding)
        saved.update({"stride": stride, "padding": padding})
        return out, saved, np.inf

    def backward(self, e, dy):
        K, s = e.params[0], e.saved
        co, _ci, fh, fw = K.shape
        dy2 = dy.reshape((-1, co, s["oh"] * s["ow"])).transpose(0, 2, 1)
        dparams = [np.einsum("bpo,bpk->ok", dy2, s["cols"]).reshape(K.shape)]
        if self.bias_of(e.params) is not None:
            dparams.append(dy2.reshape(-1, co).sum(axis=0))
        dx = _col2im(dy2 @ K.reshape(co, -1), s["in_shape"], fh, fw, s["stride"], s["padding"])
        return [dx.reshape(s["lead"] + dx.shape[-3:])], dparams


class _RecurrentCell(OpDef):
    node_class, arity, params, bias = NodeClass.GENERAL_LINEAR, 2, (2, 3), 2
    centered_axis, family = -1, Family.RECURRENT_BOTH

    def shape(self, attrs, shapes, params, bad):
        w_in, w_hid = params[0], params[1]
        if w_in.ndim != 2 or w_hid.ndim != 2:
            return bad("recurrent weights must be 2-D")
        d, n = w_in.shape
        if w_hid.shape != (d, d):
            return bad(f"hidden weight shape {w_hid.shape} != ({d}, {d})")
        if shapes[0][-1] != n:
            return bad(f"input width {shapes[0][-1]} != {n}")
        if shapes[1][-1] != d:
            return bad(f"hidden-state width {shapes[1][-1]} != {d}")
        return shapes[0][:-1] + (d,)

    def forward(self, attrs, inputs, params, strict):
        x, h_prev = inputs
        return rnn_cell_forward(params[0], params[1], x, h_prev, self.bias_of(params)), {}, np.inf

    def backward(self, e, dy):
        (x, h_prev), (Wv, Wh) = e.inputs, e.params[:2]
        dW = [_matmul_param_grad(x, dy), _matmul_param_grad(h_prev, dy)]
        return [dy @ Wv, dy @ Wh], dW + self._bias_grad(e.params, dy)


class _AttentionValueProjection(OpDef):
    node_class, params = NodeClass.GENERAL_LINEAR, (1, 1)
    centered_axis, family = -1, Family.ATTENTION_VALUE_ROWS

    def shape(self, attrs, shapes, params, bad):
        weight = params[0]
        if weight.ndim != 2:
            return bad(f"value weight must be 2-D, got shape {weight.shape}")
        d, dv = weight.shape
        if shapes[0][-1] != d:
            return bad(f"incoming width {shapes[0][-1]} != {d}")
        return shapes[0][:-1] + (dv,)

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return attention_value_forward(x, params[0]), {}, np.inf

    def backward(self, e, dy):
        x = e.inputs[0]
        xf = x.reshape(-1, x.shape[-1])
        df = dy.reshape(-1, dy.shape[-1])
        return [dy @ e.params[0].T], [xf.T @ df]


def _eps_problems(attrs) -> list[str]:
    eps = float(attrs.get("eps", DEFAULT_EPS))
    return [f"eps must be >= 0, got {eps}"] if eps < 0 else []


class _LayerNorm(OpDef):
    """Last-axis LayerNorm with optional gamma and beta; RMSNorm below is
    the same op without the centering step."""

    params, bias = (0, 2), 1
    center = True

    def _gamma_beta(self, params):
        beta = params[self.bias] if len(params) > self.bias else None
        return (params[0] if params else None), beta

    def check_attrs(self, attrs):
        return _eps_problems(attrs)

    def shape(self, attrs, shapes, params, bad):
        n = shapes[0][-1]
        declared = attrs.get("normalized_axis_length")
        if declared is not None and int(declared) != n:
            bad(f"normalized_axis_length {declared} != incoming width {n}")
        for role, p in zip(("gamma", "beta"), self._gamma_beta(params)):
            if p is not None and p.shape != (n,):
                bad(f"{role} shape {p.shape} != ({n},)")
        return shapes[0]

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        eps = float(attrs.get("eps", DEFAULT_EPS))
        out, xhat, inv, denom = _center_scale(x, eps, *self._gamma_beta(params), strict, self.center)
        return out, {"xhat": xhat, "inv": inv}, float(denom.min())

    def backward(self, e, dy):
        xhat, inv = e.saved["xhat"], e.saved["inv"]
        gamma = e.params[0] if e.params else None
        g = dy if gamma is None else dy * gamma
        dgamma = [] if gamma is None else [_sum_to(gamma.shape, dy * xhat)]
        return [_norm_input_grad(g, xhat, inv, self.center)], dgamma + self._bias_grad(e.params, dy)


class _RMSNorm(_LayerNorm):
    center = False


class _GroupNorm(OpDef):
    def check_attrs(self, attrs):
        groups_ok = int(attrs.get("groups", 1)) >= 1
        return _eps_problems(attrs) + ([] if groups_ok else ["groups must be >= 1"])

    def shape(self, attrs, shapes, params, bad):
        axis = int(attrs.get("axis", -1))
        groups = int(attrs.get("groups", 1))
        try:
            length = shapes[0][axis]
        except IndexError:
            return bad(f"axis {axis} out of range for shape {shapes[0]}")
        if groups < 1 or length % groups != 0:
            bad(f"groups {groups} must divide axis length {length}")
        return shapes[0]

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        eps = float(attrs.get("eps", DEFAULT_EPS))
        groups = int(attrs.get("groups", 1))
        axis = int(attrs.get("axis", -1))
        moved = np.moveaxis(x, axis, -1)
        n = moved.shape[-1]
        grouped = moved.reshape(moved.shape[:-1] + (groups, n // groups))
        _out, xhat, inv, denom = _center_scale(grouped, eps, None, None, strict, center=True)
        out = np.moveaxis(xhat.reshape(moved.shape), -1, axis)
        return out, {"xhat": xhat, "inv": inv, "axis": axis}, float(denom.min())

    def backward(self, e, dy):
        xhat, inv, axis = e.saved["xhat"], e.saved["inv"], e.saved["axis"]
        moved = np.moveaxis(dy, axis, -1)
        dxg = _norm_input_grad(moved.reshape(xhat.shape), xhat, inv, center=True)
        return [np.moveaxis(dxg.reshape(moved.shape), -1, axis)], []


class _ScalarScale(OpDef):
    node_class = NodeClass.SCALAR

    def check_attrs(self, attrs):
        return [] if "scale" in attrs else ["ScalarScale requires a 'scale' attr"]

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return scalar_scale(x, float(attrs["scale"])), {}, np.inf

    def backward(self, e, dy):
        return [dy * float(e.attrs.get("scale", 1.0))], []


class _DropoutInference(_ScalarScale):
    def check_attrs(self, attrs):
        if attrs.get("mode", "inference") != "inference":
            return ["training-mode dropout is not representable"]
        return []

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return scalar_scale(x, float(attrs.get("scale", 1.0))), {}, np.inf


class _ResidualAdd(OpDef):
    node_class, arity = NodeClass.RESIDUAL, None

    def shape(self, attrs, shapes, params, bad):
        if len(set(shapes)) != 1:
            return bad(f"branch shapes differ: {shapes}")
        return shapes[0]

    def forward(self, attrs, inputs, params, strict):
        return residual_add(*inputs), {}, np.inf

    def backward(self, e, dy):
        return [dy] * len(e.input_ids), []


class _Concat(OpDef):
    arity = None

    def shape(self, attrs, shapes, params, bad):
        if int(attrs.get("axis", -1)) != -1:
            return bad("only last-axis concat is supported")
        if len({s[:-1] for s in shapes}) != 1:
            return bad(f"concat operands disagree off the last axis: {shapes}")
        return shapes[0][:-1] + (sum(s[-1] for s in shapes),)

    def forward(self, attrs, inputs, params, strict):
        widths = tuple(x.shape[-1] for x in inputs)
        return concat(inputs, axis=-1), {"widths": widths}, np.inf

    def backward(self, e, dy):
        grads, offset = [], 0
        for width in e.saved["widths"]:
            grads.append(dy[..., offset : offset + width])
            offset += width
        return grads, []


class _ReLU(OpDef):
    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return relu(x), {}, np.inf

    def backward(self, e, dy):
        return [dy * (e.inputs[0] > 0)], []


class _Softmax(OpDef):
    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        y = softmax(x)
        return y, {"y": y}, np.inf

    def backward(self, e, dy):
        y = e.saved["y"]
        return [y * (dy - np.sum(y * dy, axis=-1, keepdims=True))], []


class _Embedding(OpDef):
    params = (1, 1)

    def shape(self, attrs, shapes, params, bad):
        table = params[0]
        if table.ndim != 2:
            return bad(f"embedding table must be 2-D, got shape {table.shape}")
        return shapes[0] + (table.shape[1],)

    def forward(self, attrs, inputs, params, strict):
        (idx,) = inputs
        return embedding_lookup(params[0], idx), {}, np.inf

    def backward(self, e, dy):
        # Integer indices take no gradient.
        table = e.params[0]
        dtable = np.zeros_like(table)
        np.add.at(dtable, np.asarray(e.inputs[0]).ravel(), dy.reshape(-1, table.shape[1]))
        return [], [dtable]


class _AuxiliaryCentering(OpDef):
    node_class, centered_axis = NodeClass.ZERO_MEAN, -1

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return auxiliary_centering(x), {}, np.inf

    def backward(self, e, dy):
        return [dy - dy.mean(axis=-1, keepdims=True)], []


class _Input(OpDef):
    """Bound to a caller-supplied array, so it has no forward or backward rule."""

    arity = 0

    def shape(self, attrs, shapes, params, bad):
        shape = attrs.get("shape")
        if shape is None:
            return bad("Input node missing 'shape' attr")
        return tuple(int(s) for s in shape)


class _Output(OpDef):
    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return x, {}, np.inf

    def backward(self, e, dy):
        return [dy], []


OPS: dict[str, OpDef] = {
    "Linear": _Linear(),
    "Conv2d": _Conv2d(),
    "RecurrentCell": _RecurrentCell(),
    "AttentionValueProjection": _AttentionValueProjection(),
    "LayerNorm": _LayerNorm(),
    "RMSNorm": _RMSNorm(),
    "GroupNorm": _GroupNorm(),
    "ScalarScale": _ScalarScale(),
    "DropoutInference": _DropoutInference(),
    "ResidualAdd": _ResidualAdd(),
    "Concat": _Concat(),
    "ReLU": _ReLU(),
    "Softmax": _Softmax(),
    "Embedding": _Embedding(),
    "AuxiliaryCentering": _AuxiliaryCentering(),
    "Input": _Input(),
    "Output": _Output(),
}
