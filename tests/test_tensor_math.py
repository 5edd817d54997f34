"""Tests for the execution engine: primitive semantics, graph forward,
reverse-mode gradients against central finite differences."""

import numpy as np
import pytest

from lnfold import fixtures
from lnfold.fold_apply import apply_fold
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import NODE_KINDS, Graph, WeightStore, make_node
from lnfold.tensor_math import (
    NumericalError,
    auxiliary_centering,
    backward,
    finite_difference_grad,
    forward,
    group_norm,
    layer_norm,
    linear_forward,
    loss_value,
    residual_add,
    rms_norm,
)
from lnfold.verify import sample_inputs

EPS_M = np.float64(np.finfo(np.float64).eps)


def rel_error(a: np.ndarray, f: np.ndarray) -> float:
    return float(np.abs(a - f).max() / max(np.abs(f).max(), 1e-12))


class TestLayerNorm:
    def test_already_centered_unit_moment(self):
        np.testing.assert_array_equal(layer_norm(np.array([1.0, -1.0]), eps=0.0), [1.0, -1.0])

    def test_hand_oracle(self):
        # mu = 1, centered = [1, -1], second moment = 1
        np.testing.assert_allclose(layer_norm(np.array([2.0, 0.0]), eps=0.0), [1.0, -1.0])

    def test_constants_annihilated(self):
        for c in (0.0, 3.5, -7.25):
            np.testing.assert_array_equal(
                layer_norm(np.array([c, c]), eps=1e-5), [0.0, 0.0]
            )

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, size=(200, 33))
        y = layer_norm(x, eps=1e-5)
        assert np.abs(y.mean(axis=-1)).max() <= 8 * 33 * EPS_M

    def test_strict_zero_variance_raises(self):
        with pytest.raises(NumericalError):
            layer_norm(np.array([2.0, 2.0]), eps=0.0, strict=True)

    def test_lenient_zero_variance_returns_zeros(self):
        np.testing.assert_array_equal(
            layer_norm(np.array([2.0, 2.0]), eps=0.0, strict=False), [0.0, 0.0]
        )

    def test_affine(self):
        gamma = np.array([2.0, 3.0])
        beta = np.array([1.0, -1.0])
        np.testing.assert_allclose(
            layer_norm(np.array([2.0, 0.0]), 0.0, gamma, beta), [3.0, -4.0]
        )


class TestRmsNorm:
    def test_unit_second_moment_untouched(self):
        np.testing.assert_array_equal(rms_norm(np.array([1.0, -1.0]), eps=0.0), [1.0, -1.0])

    def test_hand_oracle(self):
        # second moment = 2
        np.testing.assert_allclose(
            rms_norm(np.array([2.0, 0.0]), eps=0.0), [np.sqrt(2.0), 0.0]
        )

    def test_zero_vector(self):
        np.testing.assert_array_equal(rms_norm(np.zeros(2), eps=1e-5), [0.0, 0.0])

    def test_matches_layer_norm_on_zero_mean_input(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(500, 16))
        x -= x.mean(axis=-1, keepdims=True)
        x -= x.mean(axis=-1, keepdims=True)
        diff = np.abs(layer_norm(x, 1e-5) - rms_norm(x, 1e-5)).max()
        assert diff <= 4 * EPS_M


class TestGroupNorm:
    def test_single_group_equals_layer_norm(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(10, 12))
        np.testing.assert_array_equal(group_norm(x, 1, eps=1e-5), layer_norm(x, eps=1e-5))

    def test_hand_oracle_two_groups(self):
        # [1,3]: centered [-1,1], var 1; [2,6]: centered [-2,2], var 4
        np.testing.assert_allclose(
            group_norm(np.array([1.0, 3.0, 2.0, 6.0]), 2, eps=0.0), [-1.0, 1.0, -1.0, 1.0]
        )

    def test_instance_style_all_zeros(self):
        x = np.array([1.0, -3.0, 2.0, 0.5])
        np.testing.assert_array_equal(group_norm(x, 4, eps=1e-5), np.zeros(4))

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            group_norm(np.ones(5), 2)


class TestSimplePrimitives:
    def test_linear_identity(self):
        W = np.eye(2)
        np.testing.assert_array_equal(linear_forward(W, None, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_auxiliary_centering(self):
        np.testing.assert_allclose(auxiliary_centering(np.array([2.0, 0.0])), [1.0, -1.0])

    def test_residual_add(self):
        np.testing.assert_array_equal(
            residual_add(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [4.0, 6.0]
        )


def _single_norm_graph(eps=0.0):
    nodes = [
        make_node("x", "Input", {"shape": [2]}),
        make_node("ln", "LayerNorm", {"eps": eps}),
        make_node("out", "Output"),
    ]
    g = Graph(nodes, [("x", "ln", 0), ("ln", "out", 0)], ["x"], ["out"])
    return g, WeightStore({})


class TestForward:
    def test_single_norm_graph(self):
        g, w = _single_norm_graph()
        outs, _ = forward(g, w, [np.array([2.0, 0.0])])
        np.testing.assert_allclose(outs[0], [1.0, -1.0])

    def test_pass_through(self):
        nodes = [make_node("x", "Input", {"shape": [3]}), make_node("out", "Output")]
        g = Graph(nodes, [("x", "out", 0)], ["x"], ["out"])
        x = np.array([1.0, 2.0, 3.0])
        outs, _ = forward(g, WeightStore({}), [x])
        np.testing.assert_array_equal(outs[0], x)

    def test_nan_input_strict(self):
        g, w = _single_norm_graph()
        with pytest.raises(NumericalError, match="x"):
            forward(g, w, [np.array([np.nan, 1.0])])

    def test_deterministic_and_replayable(self):
        g, w = fixtures.post_ln_transformer()
        rng = np.random.default_rng(0)
        inp = sample_inputs(g, rng)
        out1, tape = forward(g, w, inp)
        out2, _ = forward(g, w, inp)
        np.testing.assert_array_equal(out1[0], out2[0])
        np.testing.assert_array_equal(tape.replay()[0], out1[0])

    def test_batched_leading_axis(self):
        g, w = fixtures.mlp_classifier()
        rng = np.random.default_rng(1)
        batch = rng.uniform(-2, 2, size=(5, 10))
        outs, _ = forward(g, w, [batch])
        for i in range(5):
            row, _ = forward(g, w, [batch[i]])
            np.testing.assert_allclose(outs[0][i], row[0], atol=1e-14)

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_trials_x_one_stack_is_bit_identical(self, name):
        # The (trials, 1) + per-sample stack that verification evaluates: every
        # node's value equals its per-sample value exactly, not just closely.
        g, w = fixtures.ALL_FIXTURES[name]()
        rngs = [np.random.default_rng(seed) for seed in range(6)]
        samples = [sample_inputs(g, rng) for rng in rngs]
        stacked = {nid: np.stack([s[nid] for s in samples])[:, None] for nid in g.inputs}
        _, tape = forward(g, w, stacked)
        for t, sample in enumerate(samples):
            _, alone = forward(g, w, sample)
            for big, small in zip(tape.entries, alone.entries):
                assert big.node_id == small.node_id
                assert big.output.shape == (6, 1) + small.output.shape
                np.testing.assert_array_equal(big.output[t, 0], small.output, err_msg=big.node_id)


def _practical_fold(builder):
    g, w = builder()
    return apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)


# Graphs whose reverse-mode gradients are checked against finite differences.
FD_CASES = {
    name: fixtures.ALL_FIXTURES[name]
    for name in (
        "linear_then_norm",
        "scale_chain",
        "residual_scale_mix",
        "recurrent_then_norm",
        "mlp_classifier",
        "post_ln_transformer",
        "pre_ln_transformer",
        "concat_then_norm",
        "softmax_then_norm",
        "conv_block",
    )
}
# Its fold holds RMSNorm and AuxiliaryCentering nodes.
FD_CASES["pre_ln_transformer_practical_fold"] = lambda: _practical_fold(fixtures.pre_ln_transformer)


def test_every_kind_is_gradient_checked():
    # GroupNorm is checked by TestGroupNormNode::test_channel_axis_gradients.
    checked = {"GroupNorm"}
    for build in FD_CASES.values():
        checked |= {node.kind for node in build()[0].nodes.values()}
    assert checked == set(NODE_KINDS)


class TestBackward:
    def test_identity_linear_sum_loss(self):
        nodes = [
            make_node("x", "Input", {"shape": [3]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "out", 0)], ["x"], ["out"])
        w = WeightStore({"lin.weight": np.eye(3)})
        x = np.array([0.3, -0.7, 1.1])
        outs, tape = forward(g, w, [x])
        grads = backward(tape, [np.ones_like(outs[0])])
        np.testing.assert_array_equal(grads.inputs["x"], np.ones(3))

    def test_residual_replicates_gradient(self):
        nodes = [
            make_node("a", "Input", {"shape": [4]}),
            make_node("b", "Input", {"shape": [4]}),
            make_node("add", "ResidualAdd", arity=2),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("a", "add", 0), ("b", "add", 1), ("add", "out", 0)], ["a", "b"], ["out"])
        rng = np.random.default_rng(2)
        outs, tape = forward(g, WeightStore({}), [rng.normal(size=4), rng.normal(size=4)])
        dy = rng.normal(size=4)
        grads = backward(tape, [dy])
        np.testing.assert_array_equal(grads.inputs["a"], dy)
        np.testing.assert_array_equal(grads.inputs["b"], dy)

    def test_out_grad_shape_mismatch(self):
        g, w = _single_norm_graph()
        _, tape = forward(g, w, [np.array([2.0, 0.0])])
        with pytest.raises(ValueError):
            backward(tape, [np.ones(3)])

    @pytest.mark.parametrize("name", FD_CASES)
    def test_gradients_match_finite_differences(self, name):
        g, w = FD_CASES[name]()
        rng = np.random.default_rng(7)
        inp = sample_inputs(g, rng)
        outs, tape = forward(g, w.as_f64(), inp)
        grads = backward(tape, [np.ones_like(o) for o in outs])
        fd = finite_difference_grad(g, w, inp, "sum", h=1e-6)
        for pname in w.names():
            analytic = grads.params.get(pname, np.zeros_like(w[pname]))
            assert rel_error(analytic, fd.params[pname]) <= 1e-5, pname


class TestGroupNormNode:
    def _graph(self, shape, attrs):
        nodes = [
            make_node("x", "Input", {"shape": list(shape)}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("gn", "GroupNorm", attrs),
            make_node("out", "Output"),
        ]
        edges = [("x", "lin", 0), ("lin", "gn", 0), ("gn", "out", 0)]
        return Graph(nodes, edges, ["x"], ["out"])

    def test_forward_matches_primitive(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(8, 8))
        g = self._graph((8,), {"groups": 2, "eps": 1e-5})
        w = WeightStore({"lin.weight": W})
        x = rng.uniform(-2, 2, size=8)
        outs, _ = forward(g, w, [x])
        np.testing.assert_allclose(outs[0], group_norm(W @ x, 2, eps=1e-5), atol=1e-14)

    def test_channel_axis_gradients(self):
        # normalize over a non-trailing axis and check against the oracle
        rng = np.random.default_rng(5)
        nodes = [
            make_node("x", "Input", {"shape": [2, 4, 4]}),
            make_node("conv", "Conv2d", {"stride": 1, "padding": 1}, ["conv.kernel"]),
            make_node("gn", "GroupNorm", {"groups": 2, "eps": 1e-5, "axis": -3}),
            make_node("out", "Output"),
        ]
        edges = [("x", "conv", 0), ("conv", "gn", 0), ("gn", "out", 0)]
        g = Graph(nodes, edges, ["x"], ["out"])
        w = WeightStore({"conv.kernel": rng.normal(size=(4, 2, 3, 3))})
        inp = [rng.uniform(-2, 2, size=(2, 4, 4))]
        outs, tape = forward(g, w, inp)
        # group-normalized outputs sum to zero per group, so a plain sum loss
        # has an identically zero gradient; use the quadratic loss instead
        grads = backward(tape, [2.0 * outs[0]])
        fd = finite_difference_grad(g, w, inp, "sumsq", h=1e-6)
        assert rel_error(grads.params["conv.kernel"], fd.params["conv.kernel"]) <= 1e-5


class TestFiniteDifferences:
    def test_quadratic_toy(self):
        # loss = (w * x)^2 with x = 1: d(loss)/dw = 2w
        nodes = [
            make_node("x", "Input", {"shape": [1]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "out", 0)], ["x"], ["out"])
        w0 = 0.8
        w = WeightStore({"lin.weight": np.array([[w0]])})
        fd = finite_difference_grad(g, w, [np.array([1.0])], "sumsq", h=1e-6)
        assert abs(fd.params["lin.weight"][0, 0] - 2 * w0) <= 1e-6
        assert not fd.ill_conditioned

    def test_zero_weight_constant_loss(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("relu", "ReLU"),
            make_node("out", "Output"),
        ]
        g = Graph(
            nodes, [("x", "lin", 0), ("lin", "relu", 0), ("relu", "out", 0)], ["x"], ["out"]
        )
        w = WeightStore({"lin.weight": np.zeros((2, 2))})
        fd = finite_difference_grad(g, w, [np.array([0.0, 0.0])], "sum", h=1e-6)
        np.testing.assert_array_equal(fd.params["lin.weight"], np.zeros((2, 2)))

    def test_ill_conditioning_flag(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("ln", "LayerNorm", {"eps": 0.0}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "ln", 0), ("ln", "out", 0)], ["x"], ["out"])
        w = WeightStore({"lin.weight": np.eye(2)})
        fd = finite_difference_grad(g, w, [np.array([1.0, 1.0 + 1e-9])], "sum", h=1e-6)
        assert fd.ill_conditioned

    def test_loss_selectors(self):
        outs = [np.array([1.0, -2.0])]
        assert loss_value(outs, "sum") == -1.0
        assert loss_value(outs, "sumsq") == 5.0
        with pytest.raises(ValueError):
            loss_value(outs, "nope")
