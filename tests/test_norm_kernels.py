"""The normalization kernels against their earlier, plainer form.

_REF_center_scale and _REF_norm_input_grad below are the kernels as they
stood before the rewrite that cut their numpy calls (np.mean twice, the
guarded where on every call, fresh temporaries for the affine), and
_REF_norm_backward is LayerNorm's and RMSNorm's backward written out the
same way. A rewrite must give the same bits: every returned array is
compared byte for byte, with its dtype, shape and strides, and so are the
warnings numpy emits and the NumericalError a zero denominator raises.
"""

import itertools
import warnings

import numpy as np
import pytest

from lnfold import ops
from lnfold.tensor_math import TapeEntry
from lnfold.ops import (
    OPS,
    NumericalError,
    _center_scale,
    _norm_input_grad,
)


def _REF_center_scale(x, eps, gamma, beta, center):
    """LayerNorm (center=True) or RMSNorm over the last axis, one code path.

    Returns (output, xhat, inverse root, denominator); xhat is the output
    before the affine.
    """
    if center:
        x = x - x.mean(axis=-1, keepdims=True)
    denom = np.mean(x * x, axis=-1, keepdims=True) + eps
    if np.any(denom == 0.0):
        raise NumericalError("zero variance with eps=0; use eps > 0")
    with np.errstate(divide="ignore"):
        inv = np.where(denom > 0.0, 1.0 / np.sqrt(np.where(denom > 0.0, denom, 1.0)), 0.0)
    xhat = x * inv
    out = xhat
    if gamma is not None:
        out = out * gamma
    if beta is not None:
        out = out + beta
    return out, xhat, inv, denom


def _REF_norm_input_grad(g, xhat, inv, center):
    """Input gradient of _center_scale, given g = d(loss)/d(xhat)."""
    proj = xhat * np.mean(g * xhat, axis=-1, keepdims=True)
    if center:
        return inv * (g - g.mean(axis=-1, keepdims=True) - proj)
    return inv * (g - proj)


def _REF_norm_backward(dy, xhat, inv, gamma, beta, center, keep):
    """The input gradient, then those of gamma and beta, each summed over
    every leading axis but a kept trial axis 0."""
    lead = tuple(range(keep, dy.ndim - 1))
    grads = [_REF_norm_input_grad(dy if gamma is None else dy * gamma, xhat, inv, center)]
    if gamma is not None:
        grads.append((dy * xhat).sum(axis=lead) if lead else dy * xhat)
    if beta is not None:
        grads.append(dy.sum(axis=lead) if lead else dy)
    return tuple(grads)


def _run(fn, *args):
    """("ok", arrays) or ("raised", type, message), with every warning emitted
    on the way as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
            outcome = ("ok", result if isinstance(result, tuple) else (result,))
        except Exception as exc:  # noqa: BLE001 - the exception is the result
            outcome = ("raised", type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


def _bits(a):
    return a.dtype.str, a.shape, a.strides, a.tobytes()


def _assert_same(new, ref, case):
    (got, got_warnings), (want, want_warnings) = new, ref
    assert got_warnings == want_warnings, case
    assert got[0] == want[0], (case, got, want)
    if got[0] == "raised":
        assert got == want, case
        return
    assert len(got[1]) == len(want[1]), case
    for i, (a, b) in enumerate(zip(got[1], want[1])):
        assert _bits(a) == _bits(b), (case, f"returned array {i}")


SHAPES = {"vector": (16,), "batch": (5, 16), "trials": (3, 1, 4, 37)}
ROWS = ("plain", "zero", "const", "nan", "posinf", "neginf")
DTYPES = ("float64", "float32", "int64")
GRID = [(d, r) for d in DTYPES for r in ROWS if d != "int64" or r in ("plain", "zero", "const")]


def _input(shape, dtype, row, rng):
    if dtype == "int64":
        x = rng.integers(-4, 5, size=shape)
    else:
        x = rng.standard_normal(shape).astype(dtype)
    special = x.reshape(-1, shape[-1])[-1]  # one row of the batch, a view
    if row == "zero":
        special[:] = 0
    elif row == "const":
        special[:] = 3
    elif row != "plain":
        special[1] = {"nan": np.nan, "posinf": np.inf, "neginf": -np.inf}[row]
    return x


def _affines(n, dtype, rng):
    """Every gamma/beta combination a norm kind can hold (a beta comes only
    with a gamma), each in the input's float dtype and in the other one."""
    own = np.dtype(np.float64 if dtype == "int64" else dtype)
    other = np.dtype(np.float32 if own == np.float64 else np.float64)
    gamma, beta = rng.uniform(0.5, 1.5, n), rng.uniform(-0.5, 0.5, n)
    return [(None, None)] + list(itertools.product([gamma.astype(own), gamma.astype(other)],
                                                   [None, beta.astype(own), beta.astype(other)]))


@pytest.mark.parametrize("eps", [1e-5, 0.0])
@pytest.mark.parametrize("dtype, row", GRID)
def test_kernels_match_reference_bits(dtype, row, eps):
    rng = np.random.default_rng(sum(map(ord, dtype + row)))
    checked = 0
    for shape_name, shape in SHAPES.items():
        x = _input(shape, dtype, row, rng)
        x_before = x.copy()
        for gamma, beta in _affines(shape[-1], dtype, rng):
            for center in (True, False):
                case = (shape_name, center, gamma is None or gamma.dtype, beta is None or beta.dtype)
                args = (x, eps, gamma, beta, center)
                new, ref = _run(_center_scale, *args), _run(_REF_center_scale, *args)
                _assert_same(new, ref, case)
                checked += 1
                if new[0][0] != "ok":
                    continue
                _out, xhat, inv, _denom = new[0][1]
                for g_dtype in {xhat.dtype, np.dtype(np.float64)}:
                    g = rng.standard_normal(shape).astype(g_dtype)
                    _assert_same(_run(_norm_input_grad, g, xhat, inv, center),
                                 _run(_REF_norm_input_grad, g, xhat, inv, center),
                                 case + ("grad", g_dtype))
        np.testing.assert_array_equal(x, x_before)  # the kernels leave x alone
    assert checked == len(SHAPES) * 7 * 2


@pytest.mark.parametrize("eps", [1e-5, 0.0])
@pytest.mark.parametrize("dtype, row", [(d, r) for d, r in GRID if d != "int64"])
def test_norm_backward_matches_reference_bits(dtype, row, eps):
    rng = np.random.default_rng(sum(map(ord, "backward" + dtype + row)))
    checked = 0
    for kind in ("LayerNorm", "RMSNorm"):
        op = OPS[kind]
        for shape_name, shape in SHAPES.items():
            x = _input(shape, dtype, row, rng)
            dy = rng.standard_normal(shape).astype(dtype)
            dy_before = dy.copy()
            for gamma, beta in _affines(shape[-1], dtype, rng):
                params = tuple(p for p in (gamma, beta) if p is not None)
                case = (kind, shape_name, gamma is None or gamma.dtype, beta is None or beta.dtype)
                try:
                    with np.errstate(all="ignore"):  # the forward test compares its warnings
                        out, saved = op.forward({"eps": eps}, [x], list(params))
                except NumericalError:  # eps 0 on a row that is, or centers to, zero
                    assert eps == 0.0 and row in ("zero", "const"), case
                    continue
                entry = TapeEntry(None, (x,), params, out, saved)
                for keep in (False, True) if len(shape) > 1 else (False,):

                    def kernel():
                        dxs, dparams = op.backward(entry, dy, keep)
                        return (*dxs, *dparams)

                    ref = _run(_REF_norm_backward, dy, saved["xhat"], saved["inv"], gamma, beta,
                               op.removes_mean, keep)
                    _assert_same(_run(kernel), ref, case + (keep,))
                    checked += 1
            np.testing.assert_array_equal(dy, dy_before)  # backward leaves dy alone
    # Each kind: 7 affines on 3 shapes, two of which run with and without keep.
    refused = {"zero": 2, "const": 1}.get(row, 0) if eps == 0.0 else 0
    assert checked == (2 - refused) * 7 * 5


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("dtype", DTYPES)
def test_group_norm_matches_reference_bits(dtype, axis, monkeypatch):
    """GroupNorm reaches _center_scale through a grouped view, strided when
    the axis is not last."""
    x = _input((2, 3, 12, 12), dtype, "zero", np.random.default_rng(3))
    for eps in (1e-5, 0.0):

        def kernel():  # the output and each saved array
            out, saved = OPS["GroupNorm"].forward({"groups": 3, "axis": axis, "eps": eps}, [x], [])
            return out, saved["xhat"], saved["inv"], saved["denom"]

        new = _run(kernel)
        with monkeypatch.context() as m:
            m.setattr(ops, "_center_scale", _REF_center_scale)
            ref = _run(kernel)
        _assert_same(new, ref, (axis, eps))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_auxiliary_centering_matches_reference_bits(dtype):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 1, 4, 37)).astype(dtype)
    x[0, 0, 0, 5] = np.inf
    dy = rng.standard_normal(x.shape).astype(dtype)
    aux = OPS["AuxiliaryCentering"]
    _assert_same(_run(lambda: aux.forward({}, [x], [])[0]),
                 _run(lambda: x - x.mean(axis=-1, keepdims=True)), "forward")
    _assert_same(_run(lambda: aux.backward(None, dy, False)[0][0]),
                 _run(lambda: dy - dy.mean(axis=-1, keepdims=True)), "backward")


class TestBiasAdd:
    def test_mixed_store_keeps_the_wider_dtype(self):
        # an f32 weight with an f64 bias: the sum is f64, as it was before
        # the bias was added in place
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        W = rng.standard_normal((3, 6)).astype(np.float32)
        b = rng.standard_normal(3)
        out = OPS["Linear"].forward({}, [x], [W, b])[0]
        assert out.dtype == np.float64
        assert _bits(out) == _bits(x @ W.T + b)

    @pytest.mark.parametrize("w_dtype, b_dtype", [(np.float64, np.float32), (np.float32, np.float32)])
    def test_in_place_bias_matches_the_plain_sum(self, w_dtype, b_dtype):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 1, 4, 6))
        W, Wh = rng.standard_normal((3, 6)).astype(w_dtype), rng.standard_normal((3, 3)).astype(w_dtype)
        h, b = rng.standard_normal((2, 1, 4, 3)), rng.standard_normal(3).astype(b_dtype)
        assert _bits(OPS["Linear"].forward({}, [x], [W, b])[0]) == _bits(x @ W.T + b)
        cell = OPS["RecurrentCell"].forward({}, [x, h], [W, Wh, b])[0]
        assert _bits(cell) == _bits(x @ W.T + h @ Wh.T + b)
