"""Tests for the execution engine: primitive semantics, graph forward,
reverse-mode gradients against central finite differences."""

import tracemalloc

import numpy as np
import pytest

from lnfold import fixtures
from lnfold.fold_apply import apply_fold
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import Graph, WeightStore, make_node, validate_graph
from lnfold.ops import OPS, NumericalError, _col2im
from lnfold.tensor_math import TapeEntry, backward, forward
from oracles import finite_difference_grad, loss_value
from sampling import sample_inputs

EPS_M = np.float64(np.finfo(np.float64).eps)


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.strides, a.tobytes()


def rel_error(a: np.ndarray, f: np.ndarray) -> float:
    return float(np.abs(a - f).max() / max(np.abs(f).max(), 1e-12))


class TestLayerNorm:
    def test_already_centered_unit_moment(self):
        y = OPS["LayerNorm"].forward({"eps": 0.0}, [np.array([1.0, -1.0])], [])[0]
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_hand_oracle(self):
        # mu = 1, centered = [1, -1], second moment = 1
        y = OPS["LayerNorm"].forward({"eps": 0.0}, [np.array([2.0, 0.0])], [])[0]
        np.testing.assert_allclose(y, [1.0, -1.0])

    def test_constants_annihilated(self):
        for c in (0.0, 3.5, -7.25):
            np.testing.assert_array_equal(
                OPS["LayerNorm"].forward({"eps": 1e-5}, [np.array([c, c])], [])[0], [0.0, 0.0]
            )

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, size=(200, 33))
        y = OPS["LayerNorm"].forward({"eps": 1e-5}, [x], [])[0]
        assert np.abs(y.mean(axis=-1)).max() <= 8 * 33 * EPS_M

    @pytest.mark.parametrize("kind, attrs, row", [
        ("LayerNorm", {}, [0.0, 0.0, 0.0, 0.0]),
        ("LayerNorm", {}, [2.0, 2.0, 2.0, 2.0]),
        ("RMSNorm", {}, [0.0, 0.0, 0.0, 0.0]),
        ("GroupNorm", {"groups": 2}, [0.0, 0.0, 0.0, 0.0]),
    ], ids=["LayerNorm", "LayerNorm-constant", "RMSNorm", "GroupNorm"])
    def test_zero_variance_raises(self, kind, attrs, row):
        # eps 0 on a row with nothing left to normalize: the kernel refuses,
        # and forward refuses the whole batch, naming the node.
        batch = np.array([[1.0, -2.0, 0.5, 3.0], row])
        with pytest.raises(NumericalError, match=r"^zero variance with eps=0; use eps > 0$"):
            OPS[kind].forward({"eps": 0.0, **attrs}, [batch], [])
        nodes = [
            make_node("x", "Input", {"shape": [4]}),
            make_node("ln", kind, {"eps": 0.0, **attrs}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "ln", 0), ("ln", "out", 0)], ["x"], ["out"])
        with pytest.raises(NumericalError, match=r"^node 'ln': zero variance with eps=0; use eps > 0$"):
            forward(g, WeightStore({}), {"x": batch})

    def test_affine(self):
        gamma = np.array([2.0, 3.0])
        beta = np.array([1.0, -1.0])
        np.testing.assert_allclose(
            OPS["LayerNorm"].forward({"eps": 0.0}, [np.array([2.0, 0.0])], [gamma, beta])[0],
            [3.0, -4.0],
        )


class TestRmsNorm:
    def test_unit_second_moment_untouched(self):
        y = OPS["RMSNorm"].forward({"eps": 0.0}, [np.array([1.0, -1.0])], [])[0]
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_hand_oracle(self):
        # second moment = 2
        np.testing.assert_allclose(
            OPS["RMSNorm"].forward({"eps": 0.0}, [np.array([2.0, 0.0])], [])[0], [np.sqrt(2.0), 0.0]
        )

    def test_zero_vector(self):
        y = OPS["RMSNorm"].forward({"eps": 1e-5}, [np.zeros(2)], [])[0]
        np.testing.assert_array_equal(y, [0.0, 0.0])

    def test_matches_layer_norm_on_zero_mean_input(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(500, 16))
        x -= x.mean(axis=-1, keepdims=True)
        x -= x.mean(axis=-1, keepdims=True)
        ln = OPS["LayerNorm"].forward({"eps": 1e-5}, [x], [])[0]
        diff = np.abs(ln - OPS["RMSNorm"].forward({"eps": 1e-5}, [x], [])[0]).max()
        assert diff <= 4 * EPS_M


class TestGroupNorm:
    def test_single_group_equals_layer_norm(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=(10, 12))
        np.testing.assert_array_equal(OPS["GroupNorm"].forward({"groups": 1, "eps": 1e-5}, [x], [])[0],
                                      OPS["LayerNorm"].forward({"eps": 1e-5}, [x], [])[0])

    def test_hand_oracle_two_groups(self):
        # [1,3]: centered [-1,1], var 1; [2,6]: centered [-2,2], var 4
        x = np.array([1.0, 3.0, 2.0, 6.0])
        np.testing.assert_allclose(
            OPS["GroupNorm"].forward({"groups": 2, "eps": 0.0}, [x], [])[0], [-1.0, 1.0, -1.0, 1.0]
        )

    def test_instance_style_all_zeros(self):
        x = np.array([1.0, -3.0, 2.0, 0.5])
        y = OPS["GroupNorm"].forward({"groups": 4, "eps": 1e-5}, [x], [])[0]
        np.testing.assert_array_equal(y, np.zeros(4))

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            OPS["GroupNorm"].forward({"groups": 2}, [np.ones(5)], [])


def _reference_im2col(x, fh, fw, stride, padding):
    """The patch matrix gathered one output position at a time."""
    bsz, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - fh) // stride + 1
    ow = (w + 2 * padding - fw) // stride + 1
    cols = np.empty((bsz, oh * ow, c * fh * fw), dtype=x.dtype)
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i * stride : i * stride + fh, j * stride : j * stride + fw]
            cols[:, i * ow + j, :] = patch.reshape(bsz, -1)
    return cols, (oh, ow)


def _reference_col2im(cols, in_shape, fh, fw, stride, padding):
    """Patches scattered back one output position at a time, in order."""
    bsz, c, h, w = in_shape
    padded = np.zeros((bsz, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    oh = (h + 2 * padding - fh) // stride + 1
    ow = (w + 2 * padding - fw) // stride + 1
    for i in range(oh):
        for j in range(ow):
            patch = cols[:, i * ow + j, :].reshape(bsz, c, fh, fw)
            padded[:, :, i * stride : i * stride + fh, j * stride : j * stride + fw] += patch
    return padded[:, :, padding : padding + h, padding : padding + w]


_CONV_CASES = [
    (c, kernel, stride, padding, lead)
    for c in (1, 3)
    for kernel in ((1, 1), (2, 3), (3, 3), (4, 2))
    for stride in (1, 2, 3)
    for padding in (0, 1, 2)
    for lead in ((), (3,), (4, 1))
    if kernel[0] <= 3 + 2 * padding and kernel[1] <= 5 + 2 * padding  # the kernel fits a 3x5 input
]


class TestConvPatches:
    """The strided patch gather and the per-offset scatter equal, bit for
    bit, a loop over output positions."""

    @pytest.mark.parametrize("c, kernel, stride, padding, lead", _CONV_CASES, ids=[
        f"c{c}-k{k[0]}x{k[1]}-s{s}-p{p}-lead{''.join(map(str, lead))}" for c, k, s, p, lead in _CONV_CASES])
    def test_matches_per_position_loops(self, c, kernel, stride, padding, lead):
        rng = np.random.default_rng(0)
        fh, fw = kernel
        x = rng.normal(size=lead + (c, 3, 5))
        K, b = rng.normal(size=(2, c, fh, fw)), rng.normal(size=2)
        out, saved = OPS["Conv2d"].forward({"stride": stride, "padding": padding}, [x], [K, b])
        flat = x.reshape((-1, c, 3, 5))
        cols, (oh, ow) = _reference_im2col(flat, fh, fw, stride, padding)
        ref = (cols @ K.reshape(2, -1).T + b).transpose(0, 2, 1).reshape(lead + (2, oh, ow))
        assert np.array_equal(saved["cols"], cols) and np.array_equal(out, ref)

        grads = rng.normal(size=cols.shape)
        assert np.array_equal(_col2im(grads, flat.shape, fh, fw, stride, padding),
                              _reference_col2im(grads, flat.shape, fh, fw, stride, padding))


class TestSimplePrimitives:
    def test_linear_identity(self):
        W = np.eye(2)
        np.testing.assert_array_equal(OPS["Linear"].forward({}, [np.array([3.0, 4.0])], [W])[0], [3.0, 4.0])

    def test_auxiliary_centering(self):
        y = OPS["AuxiliaryCentering"].forward({}, [np.array([2.0, 0.0])], [])[0]
        np.testing.assert_allclose(y, [1.0, -1.0])

    def test_residual_add(self):
        np.testing.assert_array_equal(
            OPS["ResidualAdd"].forward({}, [np.array([1.0, 2.0]), np.array([3.0, 4.0])], [])[0], [4.0, 6.0]
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_relu_backward_keeps_the_plain_product_bits(self, dtype):
        # dy times the mask cast to dy's dtype: the bits of dy * (x > 0),
        # signed zeros and NaN included.
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300])
        rng = np.random.default_rng(8)
        x = np.concatenate([specials, rng.standard_normal(25)]).reshape(4, 8)
        dy = np.concatenate([-specials, rng.standard_normal(25)]).astype(dtype)
        dy = rng.permutation(dy).reshape(4, 8)
        entry = TapeEntry(None, (x,), (), OPS["ReLU"].forward({}, (x,), ())[0])
        with np.errstate(invalid="ignore"):
            got = OPS["ReLU"].backward(entry, dy, False)[0][0]
            want = dy * (x > 0)
        assert _bits(got) == _bits(want)


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
        outs, _ = forward(g, w, {"x": np.array([2.0, 0.0])})
        np.testing.assert_allclose(outs[0], [1.0, -1.0])

    def test_pass_through(self):
        nodes = [make_node("x", "Input", {"shape": [3]}), make_node("out", "Output")]
        g = Graph(nodes, [("x", "out", 0)], ["x"], ["out"])
        x = np.array([1.0, 2.0, 3.0])
        outs, _ = forward(g, WeightStore({}), {"x": x})
        np.testing.assert_array_equal(outs[0], x)

    def test_missing_input_is_refused(self):
        g, w = _single_norm_graph()
        with pytest.raises(ValueError, match=r"^missing inputs for \['x'\]$"):
            forward(g, w, {})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "posinf", "neginf"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nan_input_strict(self, dtype, bad):
        g, w = _single_norm_graph()
        with pytest.raises(NumericalError, match=r"^non-finite input at node 'x'$"):
            forward(g, w, {"x": np.array([bad, 1.0], dtype=dtype)})

    def test_only_float_inputs_are_checked(self, monkeypatch):
        # An integer or bool Input cannot hold a non-finite value, so its
        # array never reaches np.isfinite; a float one does.
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x: checked.append(x.dtype) or isfinite(x))
        g, w = _single_norm_graph(eps=1e-5)
        for x in (np.array([2, 0]), np.array([True, False])):
            out, _ = forward(g, w, {"x": x})
            assert isfinite(out[0]).all() and not checked
        forward(g, w, {"x": np.array([2.0, 0.0])})
        assert checked == [np.dtype(np.float64)]

    @pytest.mark.parametrize("tokens, message", [
        ([0.0, 1.0, 2.0], "node 'embed': embedding indices must be integers"),
        ([0, 7, 1], r"node 'embed': embedding indices must lie in \[0, 7\)"),
        ([0, -1, 1], r"node 'embed': embedding indices must lie in \[0, 7\)"),
    ], ids=["float", "past_table", "negative"])
    def test_embedding_refuses_bad_indices(self, tokens, message):
        b = fixtures._Builder(0)
        b.output(b.embedding("embed", b.input("tokens", (3,), integer=True, high=7), 7, 4))
        g, w = b.build()
        with pytest.raises(NumericalError, match=message):
            forward(g, w, {"tokens": np.array(tokens)})

    def test_deterministic_and_replayable(self):
        g, w = fixtures.post_ln_transformer()
        rng = np.random.default_rng(0)
        inp = sample_inputs(g, rng)
        out1, _ = forward(g, w, inp)
        out2, _ = forward(g, w, inp)
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_tape_points_at_the_graph(self):
        g, w = fixtures.post_ln_transformer()
        _, tape = forward(g, w, sample_inputs(g, np.random.default_rng(0)))
        assert tape.graph is g
        assert list(tape.entries) == g.topo_order()
        for nid, entry in tape.entries.items():
            assert entry.node is g.nodes[nid]

    def test_batched_leading_axis(self):
        g, w = fixtures.mlp_classifier()
        rng = np.random.default_rng(1)
        batch = rng.uniform(-2, 2, size=(5, 10))
        outs, _ = forward(g, w, {"x": batch})
        for i in range(5):
            row, _ = forward(g, w, {"x": batch[i]})
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
            assert list(tape.entries) == list(alone.entries)
            for nid, big in tape.entries.items():
                small = alone.entries[nid]
                assert big.output.shape == (6, 1) + small.output.shape
                np.testing.assert_array_equal(big.output[t, 0], small.output, err_msg=nid)

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_tape_free_outputs_are_bit_identical(self, name):
        g, w = fixtures.ALL_FIXTURES[name]()
        samples = [sample_inputs(g, np.random.default_rng(seed)) for seed in range(6)]
        stacked = {nid: np.stack([s[nid] for s in samples])[:, None] for nid in g.inputs}
        for inputs in (samples[0], stacked):
            lean, tape = forward(g, w, inputs, tape=False)
            assert tape is None
            for a, b in zip(lean, forward(g, w, inputs)[0], strict=True):
                np.testing.assert_array_equal(a, b)

    def test_tape_free_forward_holds_only_live_activations(self):
        # Ten stacked trials of a 48-block stack: the tape holds every
        # activation and each kernel's saved tensors, the tape-free forward
        # about 2,304 elements per trial.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=48)
        samples = [sample_inputs(g, np.random.default_rng(seed)) for seed in range(10)]
        stacked = {nid: np.stack([s[nid] for s in samples])[:, None] for nid in g.inputs}
        forward(g, w, stacked, tape=False)  # caches the graph's order and dead_after map

        def peak(tape):
            tracemalloc.start()
            try:
                forward(g, w, stacked, tape=tape)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(False) * 10 < peak(True)


def _practical_fold(builder):
    g, w = builder()
    return apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)


def _reference_forward(g, w, inputs):
    """forward written plainly: each node's kernel in topo_order, its inputs
    found by a scan of the edge list in slot order. Every node's value."""
    values = {}
    for nid in g.topo_order():
        node = g.nodes[nid]
        if node.kind == "Input":
            values[nid] = np.asarray(inputs[nid])
            continue
        sources = [s for _slot, s in sorted((slot, s) for s, d, slot in g.edges if d == nid)]
        params = tuple(w[ref] for ref in node.param_refs)
        values[nid] = OPS[node.kind].forward(node.attrs, tuple(values[s] for s in sources), params)[0]
    return values


def _f32_copy(builder):
    g, w = builder()
    return g, WeightStore({name: arr.astype(np.float32) for name, arr in w.items()})


def _edges_reversed(builder):
    g, w = builder()
    return Graph(list(g.nodes.values()), g.edges[::-1], g.inputs, g.outputs), w


# Every fixture, its f32 copy, a fold rebuilt around a spliced
# AuxiliaryCentering, and two-input nodes whose edges are listed last slot first.
ENGINE_CASES = {
    **fixtures.ALL_FIXTURES,
    **{f"{name}_f32": lambda build=build: _f32_copy(build) for name, build in fixtures.ALL_FIXTURES.items()},
    "pre_ln_transformer_practical_fold": lambda: _practical_fold(fixtures.pre_ln_transformer),
    "recurrent_then_norm_edges_reversed": lambda: _edges_reversed(fixtures.recurrent_then_norm),
    "concat_then_norm_edges_reversed": lambda: _edges_reversed(fixtures.concat_then_norm),
}


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_forward_matches_the_edge_scan_reference(name):
    g, w = ENGINE_CASES[name]()
    if name.endswith("_practical_fold"):
        assert any(n.kind == "AuxiliaryCentering" for n in g.nodes.values())
    samples = [sample_inputs(g, np.random.default_rng(seed)) for seed in range(4)]
    stacked = {nid: np.stack([s[nid] for s in samples])[:, None] for nid in g.inputs}
    for inputs in (samples[0], stacked):
        ref = _reference_forward(g, w, inputs)
        outs, tape = forward(g, w, inputs)
        assert list(tape.entries) == list(ref)
        for nid, entry in tape.entries.items():
            assert _bits(entry.output) == _bits(ref[nid]), nid
        lean, _ = forward(g, w, inputs, tape=False)
        for oid, a, b in zip(g.outputs, outs, lean, strict=True):
            assert _bits(a) == _bits(ref[oid]) == _bits(b), oid


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
    assert checked == set(OPS)


class TestBackward:
    # Inputs take no gradient, so the gradient a node hands back to its input
    # is read off an identity Linear upstream of it: its bias gradient is
    # exactly that input gradient.
    @staticmethod
    def _identity(nid, n):
        node = make_node(nid, "Linear", params=[f"{nid}.weight", f"{nid}.bias"])
        return node, {f"{nid}.weight": np.eye(n), f"{nid}.bias": np.zeros(n)}

    def test_identity_linear_sum_loss(self):
        up, up_params = self._identity("up", 3)
        nodes = [
            make_node("x", "Input", {"shape": [3]}),
            up,
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "up", 0), ("up", "lin", 0), ("lin", "out", 0)], ["x"], ["out"])
        w = WeightStore({"lin.weight": np.eye(3), **up_params})
        x = np.array([0.3, -0.7, 1.1])
        outs, tape = forward(g, w, {"x": x})
        grads = backward(tape, [np.ones_like(outs[0])])
        np.testing.assert_array_equal(grads["up.bias"], np.ones(3))

    def test_residual_replicates_gradient(self):
        (pa, pa_params), (pb, pb_params) = self._identity("pa", 4), self._identity("pb", 4)
        nodes = [
            make_node("a", "Input", {"shape": [4]}),
            make_node("b", "Input", {"shape": [4]}),
            pa,
            pb,
            make_node("add", "ResidualAdd"),
            make_node("out", "Output"),
        ]
        edges = [("a", "pa", 0), ("b", "pb", 0), ("pa", "add", 0), ("pb", "add", 1), ("add", "out", 0)]
        g = Graph(nodes, edges, ["a", "b"], ["out"])
        rng = np.random.default_rng(2)
        outs, tape = forward(g, WeightStore({**pa_params, **pb_params}),
                             {"a": rng.normal(size=4), "b": rng.normal(size=4)})
        dy = rng.normal(size=4)
        grads = backward(tape, [dy])
        np.testing.assert_array_equal(grads["pa.bias"], dy)
        np.testing.assert_array_equal(grads["pb.bias"], dy)

    def test_out_grad_shape_mismatch(self):
        g, w = _single_norm_graph()
        _, tape = forward(g, w, {"x": np.array([2.0, 0.0])})
        with pytest.raises(ValueError):
            backward(tape, [np.ones(3)])

    def test_out_grad_count_mismatch(self):
        g, w = _single_norm_graph()
        _, tape = forward(g, w, {"x": np.array([2.0, 0.0])})
        with pytest.raises(ValueError, match="^expected 1 output grads, got 2$"):
            backward(tape, [np.ones(2), np.ones(2)])

    @pytest.mark.parametrize("name", FD_CASES)
    def test_gradients_match_finite_differences(self, name):
        g, w = FD_CASES[name]()
        rng = np.random.default_rng(7)
        inp = sample_inputs(g, rng)
        outs, tape = forward(g, w.as_f64(), inp)
        grads = backward(tape, [np.ones_like(o) for o in outs])
        fd = finite_difference_grad(g, w, inp, "sum", h=1e-6)
        for pname in w.names():
            analytic = grads.get(pname, np.zeros_like(w[pname]))
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
        outs, _ = forward(g, w, {"x": x})
        expected = OPS["GroupNorm"].forward({"groups": 2, "eps": 1e-5}, [W @ x], [])[0]
        np.testing.assert_allclose(outs[0], expected, atol=1e-14)

    @pytest.mark.parametrize("axis", [-1, -2, -3])
    def test_node_and_primitive_are_one_implementation(self, axis):
        x = np.random.default_rng(7).uniform(-2, 2, size=(3, 4, 6, 4))
        out, _saved = OPS["GroupNorm"].forward({"groups": 2, "axis": axis}, (x,), ())
        moved = OPS["GroupNorm"].forward({"groups": 2}, [np.moveaxis(x, axis, -1)], [])[0]
        expected = np.moveaxis(moved, -1, axis)
        assert np.array_equal(out, expected)
        if axis == -1:
            assert np.array_equal(out, OPS["GroupNorm"].forward({"groups": 2}, [x], [])[0])

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
        inp = {"x": rng.uniform(-2, 2, size=(2, 4, 4))}
        outs, tape = forward(g, w, inp)
        # group-normalized outputs sum to zero per group, so a plain sum loss
        # has an identically zero gradient; use the quadratic loss instead
        grads = backward(tape, [2.0 * outs[0]])
        fd = finite_difference_grad(g, w, inp, "sumsq", h=1e-6)
        assert rel_error(grads["conv.kernel"], fd.params["conv.kernel"]) <= 1e-5


    def test_batched_forward_equals_per_sample_forwards(self):
        # The kernel reads axis on the whole array, so only a back-counted
        # axis still names the per-sample axis behind the batch axis.
        g = Graph([make_node("x", "Input", {"shape": [4, 3, 3]}),
                   make_node("gn", "GroupNorm", {"groups": 2, "axis": -3}),
                   make_node("out", "Output")],
                  [("x", "gn", 0), ("gn", "out", 0)], ["x"], ["out"])
        w = WeightStore({})
        assert validate_graph(g, w).ok
        batch = np.random.default_rng(6).uniform(-2, 2, size=(4, 4, 3, 3))
        batched = forward(g, w, {"x": batch})[0][0]
        for i, sample in enumerate(batch):
            np.testing.assert_array_equal(batched[i], forward(g, w, {"x": sample})[0][0])


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
        fd = finite_difference_grad(g, w, {"x": np.array([1.0])}, "sumsq", h=1e-6)
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
        fd = finite_difference_grad(g, w, {"x": np.array([0.0, 0.0])}, "sum", h=1e-6)
        np.testing.assert_array_equal(fd.params["lin.weight"], np.zeros((2, 2)))

    @pytest.mark.parametrize("kind, attrs, x", [
        ("LayerNorm", {}, [1.0, 1.0 + 1e-9]),
        ("RMSNorm", {}, [1e-9, -1e-9]),
        ("GroupNorm", {"groups": 1}, [1.0, 1.0 + 1e-9]),
    ], ids=["LayerNorm", "RMSNorm", "GroupNorm"])
    def test_ill_conditioning_flag(self, kind, attrs, x):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("ln", kind, {"eps": 0.0, **attrs}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "ln", 0), ("ln", "out", 0)], ["x"], ["out"])
        w = WeightStore({"lin.weight": np.eye(2)})
        fd = finite_difference_grad(g, w, {"x": np.array(x)}, "sum", h=1e-6)
        assert fd.ill_conditioned

    def test_loss_selectors(self):
        outs = [np.array([1.0, -2.0])]
        assert loss_value(outs, "sum") == -1.0
        assert loss_value(outs, "sumsq") == 5.0
        with pytest.raises(ValueError):
            loss_value(outs, "nope")
