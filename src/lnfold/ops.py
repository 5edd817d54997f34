"""The op registry: every fact about each node kind, in one entry per kind.

An entry (an OpDef) holds the kind's input arity and rank, parameter
layout, shape rule, forward kernel, backward rule, attr checks and what it
does to a per-sample mean. graph_ir, tensor_math, fold_detect and centering
all read this one table, so adding a node kind means adding one OpDef to OPS.

Kernels compute their own ops; the numpy primitives kept here are the ones
the package exports or tests call. All of them accept arbitrary leading batch
axes; normalization acts on the last axis unless a node says otherwise. This
module imports nothing else from the package.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Mapping, Sequence

import numpy as np

DEFAULT_EPS = 1e-5


class NumericalError(ArithmeticError):
    """Raised in strict mode on division by zero or non-finite inputs."""


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


def _center_scale(x, eps, gamma, beta, strict, center):
    """LayerNorm (center=True) or RMSNorm over the last axis, one code path.

    Returns (output, xhat, inverse root, denominator); xhat is the output
    before the affine.
    """
    if center:
        x = x - x.mean(axis=-1, keepdims=True)
    denom = np.mean(x * x, axis=-1, keepdims=True) + eps
    if strict and np.any(denom == 0.0):
        raise NumericalError("zero variance with eps=0; use eps > 0 or lenient mode")
    with np.errstate(divide="ignore"):
        inv = np.where(denom > 0.0, 1.0 / np.sqrt(np.where(denom > 0.0, denom, 1.0)), 0.0)
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


def _group_center_scale(x, groups, axis, eps, strict):
    """layer_norm over each of groups contiguous chunks of axis.

    Returns (output, xhat, inverse root, denominator); the last three keep
    the grouped layout, axis last and split into (groups, chunk).
    """
    moved = np.moveaxis(x, axis, -1)
    n = moved.shape[-1]
    if groups < 1 or n % groups != 0:
        raise ValueError(f"groups {groups} must divide axis length {n}")
    grouped = moved.reshape(moved.shape[:-1] + (groups, n // groups))
    _out, xhat, inv, denom = _center_scale(grouped, eps, None, None, strict, center=True)
    return np.moveaxis(xhat.reshape(moved.shape), -1, axis), xhat, inv, denom


def group_norm(x: np.ndarray, groups: int, eps: float = DEFAULT_EPS, strict: bool = True) -> np.ndarray:
    """Per-group layer_norm over contiguous last-axis chunks."""
    return _group_center_scale(x, groups, -1, eps, strict)[0]


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
    bsz, c = x.shape[:2]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (B, C, OH, OW, fh, fw): a strided view, copied once by the reshape.
    windows = np.lib.stride_tricks.sliding_window_view(x, (fh, fw), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    return windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz, oh * ow, c * fh * fw), (oh, ow)


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
    patches = cols.reshape(bsz, oh, ow, c, fh, fw).transpose(0, 3, 1, 2, 4, 5)
    # Offsets run from the highest down, so each pixel sums its patches in
    # ascending output position, as a loop over output positions would.
    for di in reversed(range(fh)):
        for dj in reversed(range(fw)):
            rows = slice(di, di + stride * (oh - 1) + 1, stride)
            columns = slice(dj, dj + stride * (ow - 1) + 1, stride)
            padded[:, :, rows, columns] += patches[..., di, dj]
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


def softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def auxiliary_centering(x: np.ndarray) -> np.ndarray:
    """Subtract the last-axis mean; the explicit form of a folded centering."""
    return x - x.mean(axis=-1, keepdims=True)


# Parameter gradients sum over every leading (batch) axis. With keep, axis 0
# holds stacked trials instead and stays: each trial gets the gradient it
# would get evaluated by itself, bit for bit, because each trial's slice
# goes through the same numpy reduction (or per-slice BLAS call) alone.


def _sum_to(shape: tuple[int, ...], g: np.ndarray, keep: bool = False) -> np.ndarray:
    """Sum leading broadcast axes of g down to shape (for bias-style params),
    all but axis 0 when keep."""
    extra = g.ndim - len(shape) - keep
    if extra:
        g = g.sum(axis=tuple(range(keep, keep + extra)))
    return g


def _matmul_param_grad(x: np.ndarray, dy: np.ndarray, keep: bool = False) -> np.ndarray:
    """d(dy = x @ W.T)/dW summed over all leading axes: (m, n), or with keep
    (trials, m, n) from a batched matmul, one BLAS call per trial."""
    lead = x.shape[:keep]
    xf = x.reshape(lead + (-1, x.shape[-1]))
    df = dy.reshape(lead + (-1, dy.shape[-1]))
    return df.swapaxes(-1, -2) @ xf


def _per_trial(keep: bool, reduce: Callable[..., np.ndarray], *arrays: np.ndarray) -> np.ndarray:
    """reduce(*arrays), for a reduction with no kept-axis form of its own:
    with keep, reduce runs on each trial's slices and the results stack."""
    if not keep:
        return reduce(*arrays)
    return np.stack([reduce(*trial) for trial in zip(*arrays)])


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

    arity is the number of input slots (None: two or more); a node's count
    is its number of incoming edges, and takes accepts it. min_rank is the
    fewest per-sample axes each input needs: the kinds that read the last
    axis need one. params is the (min, max) number of parameter refs and
    bias the slot of the optional bias among them, always the last one.

    What a kind does to a per-sample mean is all fold detection reads.
    passes_mean: the output is zero-mean along the last axis when every
    input is, and moves by a constant along it when every input does.
    removes_mean: the output ignores a per-sample constant added to the
    input along the last axis. A kind with a centering family is
    general-linear: centering its weights makes its output zero-mean along
    centered_axis; a centered_axis alone says the output already is. Any
    other kind is opaque.

    The rules: check_attrs lists attr problems; shape maps per-sample input
    shapes and parameters to the output shape, reporting problems through
    bad, which returns None (it runs only on a node whose layout, arity,
    attrs and input ranks pass); check_sources lists problems with the
    nodes feeding the node, one per input slot, and runs where shape does;
    forward returns (output, saved tensors), and the normalizing kinds save
    their denominator as denom; backward returns the gradients for each
    input slot and each parameter, in slot order. backward's keep says that
    axis 0 of the activations holds stacked trials: each parameter gradient
    then keeps that axis, one gradient per trial (see _sum_to).
    """

    arity: int | None = 1
    min_rank = 0
    params = (0, 0)
    bias: int | None = None
    centered_axis: int | None = None
    family: Family | None = None
    passes_mean = removes_mean = False

    def takes(self, inputs: int) -> bool:
        """Whether a node of this kind may have this many incoming edges."""
        return inputs >= 2 if self.arity is None else inputs == self.arity

    def bias_of(self, params: Sequence[Any]) -> Any:
        """The bias among params, or None if the node has none."""
        return params[self.bias] if self.bias is not None and len(params) > self.bias else None

    def _bias_grad(self, params, dy, keep) -> list[np.ndarray]:
        """[d(loss)/d(bias)], or [] when the node has no bias."""
        return [_sum_to(params[self.bias].shape, dy, keep)] if len(params) > self.bias else []

    def _check_bias(self, params, size: int, bad: Callable[[str], None]) -> None:
        b = self.bias_of(params)
        if b is not None and b.shape != (size,):
            bad(f"bias shape {b.shape} != ({size},)")

    def check_attrs(self, attrs: Mapping[str, Any]) -> list[str]:
        return []

    def shape(self, attrs, shapes: list[Shape], params: list, bad) -> Shape | None:
        return shapes[0]

    def check_sources(self, sources: Sequence[Any], params: list) -> list[str]:
        return []


class _Linear(OpDef):
    min_rank, params, bias = 1, (1, 2), 1
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
        return linear_forward(params[0], self.bias_of(params), x), {}

    def backward(self, e, dy, keep):
        dW = _matmul_param_grad(e.inputs[0], dy, keep)
        return [dy @ e.params[0]], [dW] + self._bias_grad(e.params, dy, keep)


class _Conv2d(OpDef):
    min_rank, params, bias = 3, (1, 2), 1
    centered_axis, family = -3, Family.CONV_OUT_CHANNELS  # channel axis of (..., C, H, W)

    def check_attrs(self, attrs):
        return _number_problems(attrs, ints=("stride", "padding")) or (
            (["stride must be >= 1"] if int(attrs.get("stride", 1)) < 1 else [])
            + (["padding must be >= 0"] if int(attrs.get("padding", 0)) < 0 else [])
        )

    def shape(self, attrs, shapes, params, bad):
        kernel = params[0]
        if kernel.ndim != 4:
            return bad(f"kernel must be 4-D, got shape {kernel.shape}")
        co, ci, fh, fw = kernel.shape
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
        return out, saved

    def backward(self, e, dy, keep):
        K, s = e.params[0], e.saved
        co, _ci, fh, fw = K.shape

        def patch_rows(d):  # (B, OH*OW, co), row for row with the patch matrix
            return d.reshape((-1, co, s["oh"] * s["ow"])).transpose(0, 2, 1)

        def kernel_grad(d, cols):
            cols = cols.reshape((-1,) + cols.shape[-2:])
            return np.einsum("bpo,bpk->ok", patch_rows(d), cols).reshape(K.shape)

        # The patch matrix regains its leading axes, so a kept axis 0 splits it by trial.
        dparams = [_per_trial(keep, kernel_grad, dy, s["cols"].reshape(s["lead"] + s["cols"].shape[1:]))]
        if self.bias_of(e.params) is not None:
            dparams.append(_per_trial(keep, lambda d: patch_rows(d).reshape(-1, co).sum(axis=0), dy))
        dx = _col2im(patch_rows(dy) @ K.reshape(co, -1), s["in_shape"], fh, fw, s["stride"], s["padding"])
        return [dx.reshape(s["lead"] + dx.shape[-3:])], dparams


class _RecurrentCell(OpDef):
    arity, min_rank, params, bias = 2, 1, (2, 3), 2
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
        self._check_bias(params, d, bad)
        return shapes[0][:-1] + (d,)

    def forward(self, attrs, inputs, params, strict):
        x, h_prev = inputs
        return rnn_cell_forward(params[0], params[1], x, h_prev, self.bias_of(params)), {}

    def backward(self, e, dy, keep):
        (x, h_prev), (Wv, Wh) = e.inputs, e.params[:2]
        dW = [_matmul_param_grad(x, dy, keep), _matmul_param_grad(h_prev, dy, keep)]
        return [dy @ Wv, dy @ Wh], dW + self._bias_grad(e.params, dy, keep)


class _AttentionValueProjection(OpDef):
    min_rank, params = 1, (1, 1)
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
        return attention_value_forward(x, params[0]), {}

    def backward(self, e, dy, keep):
        # d(y = x @ V)/dV is the Linear weight gradient with x and dy swapped.
        return [dy @ e.params[0].T], [_matmul_param_grad(dy, e.inputs[0], keep)]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _number_problems(attrs, ints=(), floats=()) -> list[str]:
    """The named attrs that are present but not numbers (whole numbers, for ints)."""
    problems = []
    for key in ints:
        value = attrs.get(key, 0)
        if not (_is_int(value) or _is_number(value) and float(value).is_integer()):
            problems.append(f"attr {key!r} must be an integer, got {value!r}")
    for key in floats:
        if not _is_number(attrs.get(key, 0.0)):
            problems.append(f"attr {key!r} must be a number, got {attrs[key]!r}")
    return problems


def _eps_problems(attrs) -> list[str]:
    eps = float(attrs.get("eps", DEFAULT_EPS))
    return [f"eps must be >= 0, got {eps}"] if eps < 0 else []


class _LayerNorm(OpDef):
    """Last-axis LayerNorm with optional gamma and beta; RMSNorm below is
    the same op without the centering step. The kernel centers exactly when
    the kind declares removes_mean."""

    min_rank, params, bias = 1, (0, 2), 1
    removes_mean = True

    def _gamma_beta(self, params):
        return (params[0] if params else None), self.bias_of(params)

    def check_attrs(self, attrs):
        return _number_problems(
            attrs, ints=("normalized_axis_length",), floats=("eps",)
        ) or _eps_problems(attrs)

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
        out, xhat, inv, denom = _center_scale(x, eps, *self._gamma_beta(params), strict, self.removes_mean)
        return out, {"xhat": xhat, "inv": inv, "denom": denom}

    def backward(self, e, dy, keep):
        xhat, inv = e.saved["xhat"], e.saved["inv"]
        gamma, _beta = self._gamma_beta(e.params)
        g = dy if gamma is None else dy * gamma
        dgamma = [] if gamma is None else [_sum_to(gamma.shape, dy * xhat, keep)]
        return [_norm_input_grad(g, xhat, inv, self.removes_mean)], dgamma + self._bias_grad(e.params, dy, keep)


class _RMSNorm(_LayerNorm):
    removes_mean = False


class _GroupNorm(OpDef):
    def check_attrs(self, attrs):
        return _number_problems(attrs, ints=("groups", "axis"), floats=("eps",)) or (
            _eps_problems(attrs)
            + ([] if int(attrs.get("groups", 1)) >= 1 else ["groups must be >= 1"])
            # Leading batch axes would shift an axis counted from the front.
            + ([] if int(attrs.get("axis", -1)) < 0 else [f"axis {attrs['axis']} must be negative"])
        )

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
        out, xhat, inv, denom = _group_center_scale(x, groups, axis, eps, strict)
        return out, {"xhat": xhat, "inv": inv, "denom": denom, "axis": axis}

    def backward(self, e, dy, keep):
        xhat, inv, axis = e.saved["xhat"], e.saved["inv"], e.saved["axis"]
        moved = np.moveaxis(dy, axis, -1)
        dxg = _norm_input_grad(moved.reshape(xhat.shape), xhat, inv, center=True)
        return [np.moveaxis(dxg.reshape(moved.shape), -1, axis)], []


class _ScalarScale(OpDef):
    passes_mean = True

    def check_attrs(self, attrs):
        if "scale" not in attrs:
            return ["ScalarScale requires a 'scale' attr"]
        return _number_problems(attrs, floats=("scale",))

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return x * float(attrs.get("scale", 1.0)), {}

    def backward(self, e, dy, keep):
        return [dy * float(e.node.attrs.get("scale", 1.0))], []


class _DropoutInference(_ScalarScale):
    def check_attrs(self, attrs):
        if attrs.get("mode", "inference") != "inference":
            return ["training-mode dropout is not representable"]
        return _number_problems(attrs, floats=("scale",))


class _ResidualAdd(OpDef):
    passes_mean, arity = True, None

    def shape(self, attrs, shapes, params, bad):
        if len(set(shapes)) != 1:
            return bad(f"branch shapes differ: {shapes}")
        return shapes[0]

    def forward(self, attrs, inputs, params, strict):
        return residual_add(*inputs), {}

    def backward(self, e, dy, keep):
        return [dy] * len(e.inputs), []


class _Concat(OpDef):
    arity, min_rank = None, 1

    def check_attrs(self, attrs):
        return _number_problems(attrs, ints=("axis",))

    def shape(self, attrs, shapes, params, bad):
        if int(attrs.get("axis", -1)) != -1:
            return bad("only last-axis concat is supported")
        if len({s[:-1] for s in shapes}) != 1:
            return bad(f"concat operands disagree off the last axis: {shapes}")
        return shapes[0][:-1] + (sum(s[-1] for s in shapes),)

    def forward(self, attrs, inputs, params, strict):
        widths = tuple(x.shape[-1] for x in inputs)
        return np.concatenate(inputs, axis=-1), {"widths": widths}

    def backward(self, e, dy, keep):
        grads, offset = [], 0
        for width in e.saved["widths"]:
            grads.append(dy[..., offset : offset + width])
            offset += width
        return grads, []


class _ReLU(OpDef):
    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return np.maximum(x, 0.0), {}

    def backward(self, e, dy, keep):
        return [dy * (e.inputs[0] > 0)], []


class _Softmax(OpDef):
    min_rank = 1
    removes_mean = True

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        y = softmax(x)
        return y, {"y": y}

    def backward(self, e, dy, keep):
        y = e.saved["y"]
        return [y * (dy - np.sum(y * dy, axis=-1, keepdims=True))], []


class _Embedding(OpDef):
    params = (1, 1)

    def shape(self, attrs, shapes, params, bad):
        table = params[0]
        if table.ndim != 2:
            return bad(f"embedding table must be 2-D, got shape {table.shape}")
        return shapes[0] + (table.shape[1],)

    def check_sources(self, sources, params):
        (src,), table = sources, params[0]
        if src.kind != "Input" or not src.attrs.get("integer"):
            return [f"embedding indices must come from an integer Input; "
                    f"{src.kind} {src.id!r} is not one"]
        # The shape rule reports a table that is not 2-D, check_attrs a bad high.
        if table.ndim != 2 or _number_problems(src.attrs, ints=("high",)):
            return []
        high = _Input.high(src.attrs)
        if high > len(table):
            return [f"embedding indices must lie in [0, {len(table)}), but Input {src.id!r} "
                    f"draws them below high={high}"]
        return []

    def forward(self, attrs, inputs, params, strict):
        (idx,), (table,) = inputs, params
        if not np.issubdtype(idx.dtype, np.integer):
            raise NumericalError("embedding indices must be integers")
        if idx.size and (idx.min() < 0 or idx.max() >= len(table)):
            raise NumericalError(f"embedding indices must lie in [0, {len(table)})")
        return table[idx], {}

    def backward(self, e, dy, keep):
        # Integer indices take no gradient.
        table = e.params[0]

        def scatter(idx, d):
            dtable = np.zeros_like(table)
            np.add.at(dtable, np.asarray(idx).ravel(), d.reshape(-1, table.shape[1]))
            return dtable

        return [], [_per_trial(keep, scatter, e.inputs[0], dy)]


class _AuxiliaryCentering(OpDef):
    centered_axis, min_rank = -1, 1
    removes_mean = True

    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return auxiliary_centering(x), {}

    def backward(self, e, dy, keep):
        return [dy - dy.mean(axis=-1, keepdims=True)], []


class _Input(OpDef):
    """Bound to a caller-supplied array, so it has no forward or backward rule."""

    arity = 0

    @staticmethod
    def high(attrs: Mapping[str, Any]) -> int:
        """An integer Input draws its values from [0, high); high defaults to 2."""
        return int(attrs.get("high", 2))

    def check_attrs(self, attrs):
        shape = attrs.get("shape")
        if shape is None:
            return ["Input node missing 'shape' attr"]
        if not isinstance(shape, (list, tuple)) or not all(_is_int(s) and s >= 0 for s in shape):
            return [f"Input shape must be a list of non-negative integers, got {shape!r}"]
        return _number_problems(attrs, ints=("high",)) or (
            [f"attr 'high' must be >= 1 on an integer Input, got {attrs['high']!r}"]
            if attrs.get("integer") and _Input.high(attrs) < 1 else []
        )

    def shape(self, attrs, shapes, params, bad):
        return tuple(int(s) for s in attrs["shape"])


class _Output(OpDef):
    def forward(self, attrs, inputs, params, strict):
        (x,) = inputs
        return x, {}

    def backward(self, e, dy, keep):
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
