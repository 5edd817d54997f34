"""The op registry: every fact about each node kind, in one entry per kind.

An entry (an OpDef) holds the kind's input arity and rank, parameter
layout, shape rule, forward kernel, backward rule, attr checks and what it
does to a per-sample mean. graph_ir, tensor_math, fold_detect and centering
all read this one table, so adding a node kind means adding one OpDef to OPS.

Each kind's forward is the only implementation of its op (a RecurrentCell
runs Linear's; verify's cross-entropy runs Softmax's). Every kernel takes
any leading batch axes; normalization acts on the last axis unless a node
says otherwise. This module imports nothing else from the package.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

import numpy as np

DEFAULT_EPS = 1e-5


class NumericalError(ArithmeticError):
    """A zero normalization denominator, a non-finite input, or embedding
    indices outside the table: evaluation fails closed, always."""


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


def _mean(x):
    """Last-axis mean with the axis kept, computed as np.mean computes it
    (integers and booleans summed in f64) without its Python wrapper."""
    if x.dtype.kind in "biu":
        m = np.add.reduce(x, -1, np.float64, keepdims=True)
    else:
        m = np.add.reduce(x, -1, keepdims=True)
    # np.mean divides an f32 sum in f64 and rounds; below 2**24 elements
    # that is exactly the f32 quotient taken here.
    m /= x.shape[-1]
    return m


def _add_bias(out, b):
    """out + b, added in place when that keeps out's dtype and so its bits;
    out must be an array the caller owns."""
    if b is None:
        return out
    if np.result_type(out, b) != out.dtype:
        return out + b
    out += b
    return out


def _center_scale(x, eps, gamma, beta, center):
    """LayerNorm (center=True) or RMSNorm over the last axis, one code path.

    Returns (output, xhat, inverse root, denominator); xhat is the output
    before the affine, and beta comes only with gamma. A zero denominator
    (eps = 0 on a constant row) raises NumericalError; a NaN row takes the
    guarded where path, which gives it an inverse root of 0. Otherwise the
    inverse root is taken directly, in the fresh square-root array, with
    the same bits.
    """
    if center:
        x = x - _mean(x)
    sq = x * x
    denom = _mean(sq) + eps
    if denom.min(initial=np.inf) > 0.0:
        inv = np.sqrt(denom)
        np.divide(1.0, inv, out=inv)
    else:
        if np.any(denom == 0.0):
            raise NumericalError("zero variance with eps=0; use eps > 0")
        with np.errstate(divide="ignore"):
            inv = np.where(denom > 0.0, 1.0 / np.sqrt(np.where(denom > 0.0, denom, 1.0)), 0.0)
    xhat = np.multiply(x, inv, out=sq if sq.dtype == np.result_type(x, inv) else None)
    if gamma is None:
        return xhat, xhat, inv, denom
    return _add_bias(xhat * gamma, beta), xhat, inv, denom


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


# Parameter gradients sum over every leading (batch) axis. With keep, axis 0
# holds stacked trials instead and stays: each trial gets the gradient it
# would get evaluated by itself, bit for bit, because each trial's slice
# goes through the same numpy reduction (or per-slice BLAS call) alone.
# Four places know the kept axis: _sum_to and _matmul_param_grad, and the
# backwards of _Conv2d, which splits it off the patch batch, and _Embedding,
# which scatters each trial into its own rows.


def _sum_to(shape: tuple[int, ...], g: np.ndarray, keep: bool = False) -> np.ndarray:
    """Sum leading broadcast axes of g down to shape (for bias-style params),
    all but axis 0 when keep."""
    extra = g.ndim - len(shape) - keep
    if extra:
        g = np.add.reduce(g, tuple(range(keep, keep + extra)))
    return g


def _matmul_param_grad(x: np.ndarray, dy: np.ndarray, keep: bool = False) -> np.ndarray:
    """d(dy = x @ W.T)/dW summed over all leading axes: (m, n), or with keep
    (trials, m, n) from a batched matmul, one BLAS call per trial."""
    lead = x.shape[:keep]
    xf = x.reshape(lead + (-1, x.shape[-1]))
    df = dy.reshape(lead + (-1, dy.shape[-1]))
    return df.swapaxes(-1, -2) @ xf


def _norm_input_grad(g, xhat, inv, center):
    """Input gradient of _center_scale, given g = d(loss)/d(xhat):
    inv * (g [- mean(g)] - xhat * mean(g * xhat)), in one buffer."""
    buf = g * xhat
    np.multiply(xhat, _mean(buf), out=buf)
    np.subtract(g - _mean(g) if center else g, buf, out=buf)
    return np.multiply(inv, buf, out=buf)


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
    A general-linear kind's weights are the parameters before its bias slot
    (every parameter when it has none): a fold centers each of them by the
    kind's family, and the bias by its mean.

    What a kind does to a per-sample mean is all fold detection reads.
    passes_mean: the output is zero-mean along the last axis when every
    input is, and moves by a constant along it when every input does.
    removes_mean: the output ignores a per-sample constant added to the
    input along the last axis. A kind with a centering family is
    general-linear: centering its weights makes its output zero-mean along
    centered_axis; a centered_axis alone says the output already is. Any
    other kind is opaque.

    The rules: attr_types maps each attr a kind reads to its (type,
    default), in the order check_attrs reports them, and attr reads one;
    check_attrs lists attr problems, quoting an attr as the file holds it;
    shape maps per-sample input shapes and parameters to the output shape,
    reporting problems through bad, which returns None (it runs only on a
    node whose layout, arity, attrs and input ranks pass); check_sources
    lists problems with the nodes feeding the node, one per input slot, and
    runs where shape does; forward returns (output, saved tensors), and the
    normalizing kinds save their denominator as denom, which the tests'
    finite-difference oracle reads to flag ill-conditioned probes; backward
    returns the gradients for each input slot and each parameter, in slot
    order. backward's keep says that axis 0 of the activations holds stacked
    trials: each parameter gradient then keeps that axis, one gradient per
    trial. Only _sum_to, _matmul_param_grad, _Conv2d.backward and
    _Embedding.backward know that axis.
    """

    arity: int | None = 1
    min_rank = 0
    params = (0, 0)
    bias: int | None = None
    centered_axis: int | None = None
    family: Family | None = None
    passes_mean = removes_mean = False
    attr_types: Mapping[str, tuple[type, Any]] = {}

    def attr(self, attrs: Mapping[str, Any], name: str) -> Any:
        """The named attr converted to its declared type, or its default when absent."""
        kind, default = self.attr_types[name]
        return kind(attrs[name]) if name in attrs else default

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
        """The declared attrs present with the wrong JSON type, and the int
        attrs beyond int64; a kind adds its range rules."""
        problems = []
        for name, (kind, _default) in self.attr_types.items():
            if name not in attrs:
                continue
            label, accepts = _ATTR_TYPES[kind]
            if not accepts(attrs[name]):
                problems.append(f"attr {name!r} must be {label}, got {attrs[name]!r}")
            elif kind is int and not _INT64.min <= attrs[name] <= _INT64.max:
                problems.append(f"attr {name!r} must lie in the int64 range, got {attrs[name]!r}")
        return problems

    def shape(self, attrs, shapes: list[Shape], params: list, bad) -> Shape | None:
        return shapes[0]

    def check_sources(self, sources: Sequence[Any], params: list) -> list[str]:
        return []


class _Linear(OpDef):
    """The sum over input slots of x @ W.T, one weight W per slot, plus the bias."""

    min_rank, params, bias = 1, (1, 2), 1
    centered_axis, family = -1, Family.LINEAR_COLUMNS

    def shape(self, attrs, shapes, params, bad):
        weights = params[: self.bias]
        for weight, incoming in zip(weights, shapes):
            if weight.ndim != 2:
                return bad(f"weight must be 2-D, got shape {weight.shape}")
            if incoming[-1] != weight.shape[1]:
                return bad(f"weight shape {weight.shape} disagrees with incoming width {incoming[-1]}")
        m = len(weights[0])
        self._check_bias(params, m, bad)
        return shapes[0][:-1] + (m,)

    def forward(self, attrs, inputs, params):
        weights = params[: self.bias]
        out = inputs[0] @ weights[0].T
        for x, weight in zip(inputs[1:], weights[1:]):
            out = out + x @ weight.T
        return _add_bias(out, self.bias_of(params)), {}

    def backward(self, e, dy, keep):
        dx = [dy @ weight for weight in e.params[: self.bias]]
        dW = [_matmul_param_grad(x, dy, keep) for x in e.inputs]
        return dx, dW + self._bias_grad(e.params, dy, keep)


class _Conv2d(OpDef):
    min_rank, params, bias = 3, (1, 2), 1
    centered_axis, family = -3, Family.CONV_OUT_CHANNELS  # channel axis of (..., C, H, W)
    attr_types = {"stride": (int, 1), "padding": (int, 0)}

    def check_attrs(self, attrs):
        return super().check_attrs(attrs) or (
            (["stride must be >= 1"] if self.attr(attrs, "stride") < 1 else [])
            + (["padding must be >= 0"] if self.attr(attrs, "padding") < 0 else [])
        )

    def shape(self, attrs, shapes, params, bad):
        kernel = params[0]
        if kernel.ndim != 4:
            return bad(f"kernel must be 4-D, got shape {kernel.shape}")
        co, ci, fh, fw = kernel.shape
        c, h, wdt = shapes[0][-3:]
        stride, padding = self.attr(attrs, "stride"), self.attr(attrs, "padding")
        if c != ci:
            return bad(f"kernel expects {ci} input channels, got {c}")
        oh = (h + 2 * padding - fh) // stride + 1
        ow = (wdt + 2 * padding - fw) // stride + 1
        if oh < 1 or ow < 1:
            return bad(f"kernel {fh}x{fw} does not fit input {h}x{wdt}")
        self._check_bias(params, co, bad)
        return shapes[0][:-3] + (co, oh, ow)

    def forward(self, attrs, inputs, params):
        (x,), K = inputs, params[0]
        stride, padding = self.attr(attrs, "stride"), self.attr(attrs, "padding")
        lead, (c, h, w) = x.shape[:-3], x.shape[-3:]
        co, ci, fh, fw = K.shape
        if c != ci:
            raise ValueError(f"conv input has {c} channels, kernel expects {ci}")
        flat = x.reshape((-1, c, h, w))
        cols, (oh, ow) = _im2col(flat, fh, fw, stride, padding)
        out = _add_bias(cols @ K.reshape(co, -1).T, self.bias_of(params))  # (B, OH*OW, co)
        out = out.transpose(0, 2, 1).reshape(lead + (co, oh, ow))
        return out, {"cols": cols, "in_shape": flat.shape, "lead": lead, "oh": oh, "ow": ow,
                     "stride": stride, "padding": padding}

    def backward(self, e, dy, keep):
        K, s = e.params[0], e.saved
        co, _ci, fh, fw = K.shape
        rows = dy.reshape((-1, co, s["oh"] * s["ow"])).swapaxes(1, 2)  # row for row with the patch matrix
        dx = _col2im(rows @ K.reshape(co, -1), s["in_shape"], fh, fw, s["stride"], s["padding"])
        # A kept trial axis splits off the patch batch, for the helpers to keep.
        trials = s["lead"][:keep] + (-1,)
        rows, cols = rows.reshape(trials + rows.shape[1:]), s["cols"].reshape(trials + s["cols"].shape[1:])
        dK = _matmul_param_grad(cols, rows, keep).reshape(s["lead"][:keep] + K.shape)
        return [dx.reshape(s["lead"] + dx.shape[-3:])], [dK] + self._bias_grad(e.params, rows, keep)


class _RecurrentCell(_Linear):
    """A two-slot Linear, x @ Wv.T + h_prev @ Wh.T + b, whose hidden weight
    Wh is square and whose inputs agree off the last axis."""

    arity, params, bias = 2, (2, 3), 2
    family = Family.RECURRENT_BOTH

    def shape(self, attrs, shapes, params, bad):
        w_in, w_hid = params[:2]
        if w_in.ndim == w_hid.ndim == 2 and w_hid.shape != (len(w_in),) * 2:
            return bad(f"hidden weight shape {w_hid.shape} != {(len(w_in),) * 2}")
        if shapes[0][:-1] != shapes[1][:-1]:
            return bad(f"input shapes {shapes[0]} and {shapes[1]} disagree off the last axis")
        return super().shape(attrs, shapes, params, bad)


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

    def forward(self, attrs, inputs, params):
        (x,) = inputs
        return x @ params[0], {}

    def backward(self, e, dy, keep):
        # d(y = x @ V)/dV is the Linear weight gradient with x and dy swapped.
        return [dy @ e.params[0].T], [_matmul_param_grad(dy, e.inputs[0], keep)]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


_INT64 = np.iinfo(np.int64)

# What a declared attr type takes from JSON, and how a refusal names it. A
# float must fit a double; an int may be any whole number, which
# OpDef.check_attrs then bounds to int64.
_ATTR_TYPES: dict[type, tuple[str, Callable[[Any], bool]]] = {
    int: ("an integer", lambda v: _is_int(v) or _is_number(v) and float(v).is_integer()),
    float: ("a number", lambda v: _is_number(v) and (not _is_int(v) or abs(v) <= sys.float_info.max)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _eps_problems(eps: float) -> list[str]:
    return [f"eps must be >= 0, got {eps}"] if eps < 0 else []


class _LayerNorm(OpDef):
    """Last-axis LayerNorm with optional gamma and beta; RMSNorm below is
    the same op without the centering step. The kernel centers exactly when
    the kind declares removes_mean."""

    min_rank, params, bias = 1, (0, 2), 1
    removes_mean = True
    attr_types = {"normalized_axis_length": (int, None), "eps": (float, DEFAULT_EPS)}

    def _gamma_beta(self, params):
        return (params[0] if params else None), self.bias_of(params)

    def check_attrs(self, attrs):
        return super().check_attrs(attrs) or _eps_problems(self.attr(attrs, "eps"))

    def shape(self, attrs, shapes, params, bad):
        n = shapes[0][-1]
        declared = self.attr(attrs, "normalized_axis_length")
        if declared is not None and declared != n:
            bad(f"normalized_axis_length {attrs['normalized_axis_length']} != incoming width {n}")
        for role, p in zip(("gamma", "beta"), self._gamma_beta(params)):
            if p is not None and p.shape != (n,):
                bad(f"{role} shape {p.shape} != ({n},)")
        return shapes[0]

    def forward(self, attrs, inputs, params):
        (x,) = inputs
        eps = self.attr(attrs, "eps")
        out, xhat, inv, denom = _center_scale(x, eps, *self._gamma_beta(params), self.removes_mean)
        return out, {"xhat": xhat, "inv": inv, "denom": denom}

    def backward(self, e, dy, keep):
        xhat, inv, params = e.saved["xhat"], e.saved["inv"], e.params
        if not params:
            return [_norm_input_grad(dy, xhat, inv, self.removes_mean)], []
        gamma = params[0]
        dparams = [_sum_to(gamma.shape, dy * xhat, keep)] + self._bias_grad(params, dy, keep)
        return [_norm_input_grad(dy * gamma, xhat, inv, self.removes_mean)], dparams


class _RMSNorm(_LayerNorm):
    removes_mean = False


class _GroupNorm(OpDef):
    attr_types = {"groups": (int, 1), "axis": (int, -1), "eps": (float, DEFAULT_EPS)}

    def check_attrs(self, attrs):
        return super().check_attrs(attrs) or (
            _eps_problems(self.attr(attrs, "eps"))
            + ([] if self.attr(attrs, "groups") >= 1 else ["groups must be >= 1"])
            # Leading batch axes would shift an axis counted from the front.
            + ([] if self.attr(attrs, "axis") < 0 else [f"axis {attrs['axis']} must be negative"])
        )

    def shape(self, attrs, shapes, params, bad):
        axis, groups = self.attr(attrs, "axis"), self.attr(attrs, "groups")
        try:
            length = shapes[0][axis]
        except IndexError:
            return bad(f"axis {axis} out of range for shape {shapes[0]}")
        if groups < 1 or length % groups != 0:
            bad(f"groups {groups} must divide axis length {length}")
        return shapes[0]

    def forward(self, attrs, inputs, params):
        (x,), axis = inputs, self.attr(attrs, "axis")
        groups, eps = self.attr(attrs, "groups"), self.attr(attrs, "eps")
        # LayerNorm over each of groups contiguous chunks of axis; xhat, inv
        # and denom keep the grouped layout, axis last and split into (groups, chunk).
        moved = np.moveaxis(x, axis, -1)
        n = moved.shape[-1]
        if groups < 1 or n % groups != 0:
            raise ValueError(f"groups {groups} must divide axis length {n}")
        grouped = moved.reshape(moved.shape[:-1] + (groups, n // groups))
        _out, xhat, inv, denom = _center_scale(grouped, eps, None, None, center=True)
        out = np.moveaxis(xhat.reshape(moved.shape), -1, axis)
        return out, {"xhat": xhat, "inv": inv, "denom": denom, "axis": axis}

    def backward(self, e, dy, keep):
        xhat, inv, axis = e.saved["xhat"], e.saved["inv"], e.saved["axis"]
        moved = np.moveaxis(dy, axis, -1)
        dxg = _norm_input_grad(moved.reshape(xhat.shape), xhat, inv, center=True)
        return [np.moveaxis(dxg.reshape(moved.shape), -1, axis)], []


class _ScalarScale(OpDef):
    passes_mean = True
    attr_types = {"scale": (float, 1.0)}

    def check_attrs(self, attrs):
        if "scale" not in attrs:
            return ["ScalarScale requires a 'scale' attr"]
        return super().check_attrs(attrs)

    def forward(self, attrs, inputs, params):
        (x,) = inputs
        return x * self.attr(attrs, "scale"), {}

    def backward(self, e, dy, keep):
        return [dy * self.attr(e.node.attrs, "scale")], []


class _DropoutInference(_ScalarScale):
    attr_types = {"mode": (str, "inference"), **_ScalarScale.attr_types}

    def check_attrs(self, attrs):
        # Any mode but "inference", of any type, is training; unlike ScalarScale, scale is optional.
        if self.attr(attrs, "mode") != "inference":
            return ["training-mode dropout is not representable"]
        return OpDef.check_attrs(self, attrs)


class _ResidualAdd(OpDef):
    passes_mean, arity = True, None

    def shape(self, attrs, shapes, params, bad):
        if len(set(shapes)) != 1:
            return bad(f"branch shapes differ: {shapes}")
        return shapes[0]

    def forward(self, attrs, inputs, params):
        out = inputs[0]
        for x in inputs[1:]:
            out = out + x
        return out, {}

    def backward(self, e, dy, keep):
        return [dy] * len(e.inputs), []


class _Concat(OpDef):
    arity, min_rank = None, 1
    attr_types = {"axis": (int, -1)}

    def shape(self, attrs, shapes, params, bad):
        if self.attr(attrs, "axis") != -1:
            return bad("only last-axis concat is supported")
        if len({s[:-1] for s in shapes}) != 1:
            return bad(f"concat operands disagree off the last axis: {shapes}")
        return shapes[0][:-1] + (sum(s[-1] for s in shapes),)

    def forward(self, attrs, inputs, params):
        widths = tuple(x.shape[-1] for x in inputs)
        return np.concatenate(inputs, axis=-1), {"widths": widths}

    def backward(self, e, dy, keep):
        grads, offset = [], 0
        for width in e.saved["widths"]:
            grads.append(dy[..., offset : offset + width])
            offset += width
        return grads, []


class _ReLU(OpDef):
    def forward(self, attrs, inputs, params):
        (x,) = inputs
        return np.maximum(x, 0.0), {}

    def backward(self, e, dy, keep):
        return [dy * (e.inputs[0] > 0).astype(dy.dtype)], []


class _Softmax(OpDef):
    min_rank = 1
    removes_mean = True

    def forward(self, attrs, inputs, params):
        (x,) = inputs
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
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
        if src.kind != "Input" or not OPS["Input"].attr(src.attrs, "integer"):
            return [f"embedding indices must come from an integer Input; "
                    f"{src.kind} {src.id!r} is not one"]
        high = OPS["Input"].attr(src.attrs, "high")
        if table.ndim == 2 and high > len(table):  # the shape rule reports a table that is not 2-D
            return [f"embedding indices must lie in [0, {len(table)}), but Input {src.id!r} "
                    f"draws them below high={high}"]
        return []

    def forward(self, attrs, inputs, params):
        (idx,), (table,) = inputs, params
        if not np.issubdtype(idx.dtype, np.integer):
            raise NumericalError("embedding indices must be integers")
        if idx.size and (idx.min() < 0 or idx.max() >= len(table)):
            raise NumericalError(f"embedding indices must lie in [0, {len(table)})")
        return table[idx], {}

    def backward(self, e, dy, keep):
        # Integer indices take no gradient. Trial t scatters into rows offset
        # by t * vocab, so each trial accumulates in the order it would alone.
        (idx,), table = e.inputs, e.params[0]
        trials, (vocab, width) = len(idx) if keep else 1, table.shape
        rows = idx.reshape(trials, -1) + vocab * np.arange(trials)[:, None]
        dtable = np.zeros((trials * vocab, width), dtype=table.dtype)
        np.add.at(dtable, rows.ravel(), dy.reshape(-1, width))
        return [], [dtable.reshape((trials,) * keep + table.shape)]


class _AuxiliaryCentering(OpDef):
    centered_axis, min_rank = -1, 1
    removes_mean = True

    def forward(self, attrs, inputs, params):
        (x,) = inputs
        return x - _mean(x), {}

    def backward(self, e, dy, keep):
        return [dy - _mean(dy)], []


class _Input(OpDef):
    """Bound to a caller-supplied array, so it has no forward or backward rule.
    An integer Input draws its values from [0, high)."""

    arity = 0
    attr_types = {"integer": (bool, False), "high": (int, 2)}

    def check_attrs(self, attrs):
        shape = attrs.get("shape")
        if shape is None:
            return ["Input node missing 'shape' attr"]
        if not isinstance(shape, (list, tuple)) or not all(_is_int(s) and s >= 0 for s in shape):
            return [f"Input shape must be a list of non-negative integers, got {shape!r}"]
        if max(shape, default=0) > _INT64.max or math.prod(shape) > _INT64.max:
            return [f"Input shape must have entries and an element count within int64, got {shape!r}"]
        return super().check_attrs(attrs) or (
            [f"attr 'high' must be >= 1 on an integer Input, got {attrs['high']!r}"]
            if self.attr(attrs, "integer") and self.attr(attrs, "high") < 1 else []
        )

    def shape(self, attrs, shapes, params, bad):
        return tuple(int(s) for s in attrs["shape"])


class _Output(OpDef):
    def forward(self, attrs, inputs, params):
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
