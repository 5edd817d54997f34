"""Property-based checks of the algebra the whole rewrite rests on."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import os
import tempfile

from lnfold import fixtures
from lnfold.centering import Family, center_columns, center_grouped_columns, is_centered
from lnfold.fold_apply import apply_fold
from lnfold.fold_detect import _state_pass, detect_foldable
from lnfold.graph_ir import (
    NODE_KINDS,
    Graph,
    NodeClass,
    classify_node,
    load_model,
    model_hash,
    save_model,
    validate_graph,
)
from lnfold.tensor_math import group_norm, layer_norm, rms_norm
from lnfold.verify import verify_forward, verify_gradients

EPS_M = float(np.finfo(np.float64).eps)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False, width=64)


def matrices(max_m=12, max_n=8):
    return st.tuples(st.integers(2, max_m), st.integers(1, max_n)).flatmap(
        lambda mn: arrays(np.float64, mn, elements=finite)
    )


def vectors(min_n=2, max_n=32):
    return st.integers(min_n, max_n).flatmap(
        lambda n: arrays(np.float64, (n,), elements=finite)
    )


class TestCenteringAlgebra:
    @given(matrices())
    def test_idempotent(self, W):
        once = center_columns(W)
        np.testing.assert_allclose(center_columns(once), once, atol=4 * EPS_M)

    @given(matrices())
    def test_constraint_satisfied(self, W):
        assert is_centered(center_columns(W), Family.LINEAR_COLUMNS, tol=1e-9)

    @given(matrices(max_m=12), st.sampled_from([1, 2, 3]))
    def test_grouped_reduces_to_plain(self, W, groups):
        m = W.shape[0] - W.shape[0] % groups
        if m < groups:
            return
        W = W[:m]
        if groups == 1:
            np.testing.assert_allclose(
                center_grouped_columns(W, 1), center_columns(W), atol=1e-12
            )
        else:
            if W.shape[0] == groups:
                return  # one-element groups warn and zero the matrix
            centered = center_grouped_columns(W, groups)
            assert is_centered(centered, Family.GROUPED_COLUMNS, groups, tol=1e-9)


class TestNormalizationAlgebra:
    @given(vectors())
    def test_layer_norm_output_is_zero_mean(self, x):
        # The centering residual is rounding-scale in the input, then gets
        # divided by sqrt(var + eps); near-constant inputs amplify it by
        # 1/sqrt(eps), so the bound carries that factor.
        eps = 1e-5
        y = layer_norm(x, eps=eps)
        scale = max(1.0, float(np.abs(x).max())) / np.sqrt(x.var() + eps)
        assert abs(y.mean()) <= 8 * x.shape[0] * EPS_M * scale

    @given(vectors())
    @example(np.where(np.arange(28) == 2, -1.79, 0.0))  # |LN - RMS| = 8 eps here
    def test_rms_equals_ln_on_centered_input(self, x):
        # Normalized outputs reach about sqrt(n), so the rounding bound is in
        # the output's own ulps, not absolute.
        x = x - x.mean()
        x = x - x.mean()
        rms = rms_norm(x, 1e-5)
        diff = np.abs(layer_norm(x, 1e-5) - rms).max()
        assert diff <= 4 * EPS_M * max(1.0, float(np.abs(rms).max()))

    @given(vectors())
    def test_group_norm_with_one_group_is_layer_norm(self, x):
        np.testing.assert_array_equal(group_norm(x, 1, eps=1e-5), layer_norm(x, eps=1e-5))

    @given(vectors(), st.floats(0.1, 3.0))
    def test_scalar_scale_invariance_of_ln_with_zero_eps(self, x, a):
        if np.ptp(x) < 1e-3:
            return  # stay away from the zero-variance singularity
        np.testing.assert_allclose(
            layer_norm(a * x, eps=0.0), layer_norm(x, eps=0.0), atol=1e-9
        )


class TestClassification:
    @settings(max_examples=len(NODE_KINDS))
    @given(st.sampled_from(sorted(NODE_KINDS)))
    def test_total_and_single_valued(self, kind):
        assert classify_node(kind) in NodeClass


@st.composite
def builder_models(draw):
    """Valid models built with fixtures._Builder: Linear (with and without
    bias), ScalarScale, ResidualAdd, ReLU, Concat and LayerNorm nodes over
    earlier nodes, so outputs fan out; one or two graph outputs."""
    b = fixtures._Builder(draw(st.integers(0, 2**16)))
    width = {b.input("x", (4,)): 4}
    for i in range(draw(st.integers(1, 10))):
        nid, ids = f"n{i}", list(width)
        src = draw(st.sampled_from(ids))
        kind = draw(st.sampled_from(
            ["Linear", "Linear", "ScalarScale", "ResidualAdd", "ReLU", "Concat", "LayerNorm"]
        ))
        if kind == "Linear":
            width[nid] = draw(st.sampled_from([3, 4]))
            b.linear(nid, src, width[nid], width[src], bias=draw(st.booleans()))
        elif kind == "LayerNorm":
            width[nid] = width[src]
            b.layer_norm(nid, src, width[src])
        elif kind == "ResidualAdd":
            other = draw(st.sampled_from([j for j in ids if width[j] == width[src]]))
            width[nid] = width[src]
            b.simple(nid, kind, (src, other))
        elif kind == "Concat":
            other = draw(st.sampled_from([j for j in ids if width[j] + width[src] <= 12] or [src]))
            width[nid] = width[src] + width[other]
            b.simple(nid, kind, (src, other), {"axis": -1})
        elif kind == "ScalarScale":
            width[nid] = width[src]
            b.simple(nid, kind, src, {"scale": draw(st.sampled_from([0.5, -2.0]))})
        else:
            width[nid] = width[src]
            b.simple(nid, kind, src)
    b.output(nid)
    extra = draw(st.sampled_from(list(width)))
    if extra not in ("x", nid):
        b.output(extra)
    return b.build()


class TestFoldSoundness:
    @settings(max_examples=40, deadline=None)
    @given(builder_models(), st.sampled_from(["strict", "practical"]))
    def test_safe_report_folds_to_an_equivalent_model(self, model, mode):
        g, w = model
        assert validate_graph(g, w).ok
        report = detect_foldable(g, w, mode=mode)
        if not report.safety.safe:
            return
        fg, fw = apply_fold(g, w, report, allow_practical=True)
        assert verify_forward(g, w, fg, fw, trials=8, seed=1).passed
        assert verify_gradients(g, w, fg, fw, trials=3, seed=1).passed

    @settings(max_examples=40, deadline=None)
    @given(builder_models())
    def test_save_load_keeps_model_hash(self, model):
        g, w = model
        with tempfile.TemporaryDirectory() as d:
            top, blob = os.path.join(d, "m.json"), os.path.join(d, "m.bin")
            save_model(g, w, top, blob)
            assert model_hash(*load_model(top, blob)) == model_hash(g, w)

    @settings(max_examples=40, deadline=None)
    @given(builder_models(), st.randoms(use_true_random=False))
    def test_state_pass_ignores_node_order(self, model, rnd):
        g, _w = model
        nodes = list(g.nodes.values())
        rnd.shuffle(nodes)
        shuffled = Graph(nodes, g.edges, g.inputs, g.outputs)
        assert _state_pass(shuffled) == _state_pass(g)
