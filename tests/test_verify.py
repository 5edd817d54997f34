"""Tests for the verification harness: forward/gradient equivalence,
zero-mean probes, the operation-count model, and the lockstep training loop
of acceptance criterion 4."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lnfold import fixtures, graph_ir, verify
from lnfold.centering import center_node_params
from lnfold.fold_apply import FoldError, apply_fold, center_targets
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import Graph, GraphValidationError, WeightStore, infer_shapes, make_node
from lnfold.ops import OPS
from lnfold.tensor_math import backward, forward
from lnfold.verify import (
    ParameterPairingError,
    SignatureMismatchError,
    check_zero_mean,
    default_tol,
    flops_estimate,
    model_speedup_estimate,
    verify_forward,
    verify_gradients,
)
from sampling import sample_inputs
from training import train_lockstep

EPS_M = float(np.finfo(np.float64).eps)


class TestVerifyForward:
    def test_model_vs_itself(self):
        g, w = fixtures.mlp_classifier()
        rep = verify_forward(g, w, g, w, trials=10, seed=0)
        assert rep.max_abs_forward_diff == 0.0
        assert rep.passed

    def test_folded_post_ln(self):
        g, w = fixtures.post_ln_transformer()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        rep = verify_forward(g, w, fg, fw, trials=100, seed=0, tol=1e-12)
        assert rep.passed, rep.max_abs_forward_diff

    def test_corrupted_weight_fails(self):
        g, w = fixtures.post_ln_transformer()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        arrays = {k: v.copy() for k, v in fw.items()}
        arrays["ffn2.weight"][0, 0] += 1e-3
        rep = verify_forward(g, w, fg, WeightStore(arrays), trials=10, seed=0)
        assert not rep.passed

    def test_naive_swap_fails(self):
        g, w = fixtures.linear_then_norm()
        swapped = g.with_kinds({"ln": "RMSNorm"})
        rep = verify_forward(g, w, swapped, w, trials=10, seed=0)
        assert not rep.passed
        assert rep.max_abs_forward_diff > 1e-3

    def test_signature_mismatch(self):
        g1, w1 = fixtures.linear_then_norm()
        g2, w2 = fixtures.mlp_classifier()
        with pytest.raises(SignatureMismatchError):
            verify_forward(g1, w1, g2, w2, trials=1)

    def test_f32_models_are_widened(self):
        # f32 centering leaves f32-sized residuals; the f32 tolerance is 1e-5
        g, w = fixtures.linear_then_norm()
        w32 = WeightStore({k: v.astype(np.float32) for k, v in w.items()})
        fg, fw = apply_fold(g, w32, detect_foldable(g, w32))
        rep = verify_forward(g, w32, fg, fw, trials=20, seed=0, tol=1e-5)
        assert rep.passed


# verify's trial stream drawn one value at a time on Python ints, the oracle
# for its stacked draw: SplitMix64's golden-ratio step and output function.
_MASK64, _GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def _mix(z):
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _trial_key(seed, t):
    """The seed's 64-bit words, least significant first, fold into its key
    from 0, one mix((key ^ word) + GAMMA) each; trial t's key is
    mix(key + (t + 1) * GAMMA)."""
    seed, key = int(seed), 0
    for shift in range(0, max(1, seed.bit_length()), 64):
        key = _mix((key ^ seed >> shift & _MASK64) + _GAMMA & _MASK64)
    return _mix(key + (t + 1) * _GAMMA & _MASK64)


def _reference_inputs(g, seed, t):
    """Trial t's inputs. Value i, counted across g.inputs in order, comes from
    the word mix(trial key + (i + 1) * GAMMA): a float is
    (word >> 11) * 2**-51 - 2, an integer word mod high."""
    key, i, out = _trial_key(seed, t), 0, {}
    for nid in g.inputs:
        attrs = g.nodes[nid].attrs
        shape = tuple(attrs.get("shape", ()))
        words = [_mix(key + (i + j + 1) * _GAMMA & _MASK64) for j in range(math.prod(shape))]
        i += len(words)
        if OPS["Input"].attr(attrs, "integer"):
            high = OPS["Input"].attr(attrs, "high")
            out[nid] = np.array([word % high for word in words], np.int64).reshape(shape)
        else:
            out[nid] = np.array([(word >> 11) * 2.0**-51 - 2.0 for word in words]).reshape(shape)
    return out


def _reference_trials(g, seed, trials):
    return [_reference_inputs(g, seed, t) for t in range(trials)]


def _stack_trials(batch):
    """Inputs of several trials as one (trials, 1) + per-sample stack, the
    layout of verify's batches."""
    return {nid: np.stack([trial[nid] for trial in batch])[:, None] for nid in batch[0]}


def _reference_forward_diff(gA, wA, gB, wB, trials, seed):
    """verify_forward's maximum, one trial and one forward at a time."""
    storeA, storeB = wA.as_f64(), wB.as_f64()
    worst = 0.0
    for inputs in _reference_trials(gA, seed, trials):
        outsA, _ = forward(gA, storeA, inputs)
        outsB, _ = forward(gB, storeB, inputs)
        for a, b in zip(outsA, outsB):
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


def _reference_grad_diff(gA, wA, gB, wB, trials, seed):
    """verify_gradients' two maxima and verdict, one trial, one forward and
    one collected backward at a time, with B's proxied gradients projected
    once its backward is done."""
    storeA, storeB = wA.as_f64(), wB.as_f64()
    proxied = verify._derive_proxied(gA, gB)
    effective = center_targets(gB, storeB, proxied)
    ones = lambda outs: [np.ones_like(o) for o in outs]
    worst_fwd = worst_grad = 0.0
    for inputs in _reference_trials(gA, seed, trials):
        outsA, tapeA = forward(gA, storeA, inputs)
        gradsA = backward(tapeA, ones(outsA))
        outsB, tapeB = forward(gB, effective, inputs)
        gradsB = backward(tapeB, ones(outsB))
        for nid in proxied:
            node = gB.nodes[nid]
            if node.param_refs[0] in gradsB:
                gradsB.update(center_node_params(node, gradsB))
        worst_fwd = verify._fold_worst(worst_fwd, (np.abs(a - b).max() for a, b in zip(outsA, outsB)))
        for name in storeA.names():
            ga, gb = gradsA.get(name), gradsB.get(name)
            if ga is None and gb is None:
                continue
            ga = np.zeros_like(storeA[name]) if ga is None else ga
            gb = np.zeros_like(storeB[name]) if gb is None else gb
            worst_grad = verify._fold_worst(worst_grad, [np.abs(ga - gb).max()])
    tol = default_tol(wA, wB)
    return worst_fwd, worst_grad, all(w is not None and w <= tol for w in (worst_fwd, worst_grad))


def _grad_result(rep):
    return rep.max_abs_forward_diff, rep.max_abs_grad_diff, rep.passed


def _as_f32(w):
    return WeightStore({k: v.astype(np.float32) for k, v in w.items()})


def _comparison_pairs(name, f32, mode):
    """The original fixture against its fold (where the fold is allowed) and
    against the naive LayerNorm -> RMSNorm swap (which differs)."""
    g, w = fixtures.ALL_FIXTURES[name]()
    if f32:
        w = _as_f32(w)
    pairs = []
    try:
        pairs.append(apply_fold(g, w, detect_foldable(g, w, mode=mode), allow_practical=True))
    except FoldError:
        pass
    swap = {n.id: "RMSNorm" for n in g.nodes.values() if n.kind == "LayerNorm"}
    if swap:
        pairs.append((g.with_kinds(swap), w))
    return g, w, pairs


def _group_norm(axis, scale=1.0):
    """GroupNorm over the first of two per-sample axes."""
    b = fixtures._Builder(0)
    x = b.input("x", (4, 6))
    gn = b.simple("gn", "GroupNorm", x, {"axis": axis, "groups": 2})
    b.output(b.simple("s", "ScalarScale", gn, {"scale": scale}))
    return b.build()


@pytest.fixture()
def forward_calls(monkeypatch):
    """Leading shape of the first input of every forward verify runs."""
    seen = []

    def counting(g, w, inputs, *args, **kwargs):
        seen.append(np.shape(inputs[g.inputs[0]]))
        return forward(g, w, inputs, *args, **kwargs)

    monkeypatch.setattr(verify, "forward", counting)
    return seen


class TestStackedTrials:
    @pytest.mark.parametrize("mode", ["strict", "practical"])
    @pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_equals_one_trial_at_a_time(self, name, f32, mode):
        g, w, pairs = _comparison_pairs(name, f32, mode)
        assert pairs
        for gB, wB in pairs:
            rep = verify_forward(g, w, gB, wB, trials=100, seed=7)
            assert rep.max_abs_forward_diff == _reference_forward_diff(g, w, gB, wB, 100, 7)

    def test_deep_pre_ln_equals_one_trial_at_a_time(self):
        g, w = fixtures.pre_ln_transformer(blocks=12)
        fg, fw = apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
        swapped = g.with_kinds({n.id: "RMSNorm" for n in g.nodes.values() if n.kind == "LayerNorm"})
        for gB, wB in ((fg, fw), (swapped, w)):
            rep = verify_forward(g, w, gB, wB, trials=30, seed=2)
            assert rep.max_abs_forward_diff == _reference_forward_diff(g, w, gB, wB, 30, 2)

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_fixtures_run_every_trial_in_one_batch(self, name, forward_calls):
        g, w = fixtures.ALL_FIXTURES[name]()
        verify_forward(g, w, g, w, trials=100, seed=0)
        per_sample = tuple(g.nodes[g.inputs[0]].attrs["shape"])
        assert forward_calls == [(100, 1) + per_sample] * 2

    def test_deep_stack_runs_every_trial_in_one_batch(self, forward_calls):
        # Depth adds tape, not live activations: 2,304 per trial at any depth.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=48)
        verify_forward(g, w, g, w, trials=3, seed=0)
        assert forward_calls == [(3, 1, 8)] * 2

    def test_the_tape_does_not_split_a_batch(self, forward_calls):
        # A 129,800-element tape per trial, but 2,304 live elements.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=36)
        verify_forward(g, w, g, w, trials=5, seed=0)
        assert forward_calls == [(5, 1, 8)] * 2

    def test_batches_stop_at_the_live_budget(self, forward_calls):
        # 73,728 live elements per trial: fourteen trials fit under 2**20.
        g, w = fixtures.pre_ln_transformer(d=256, hidden=1024, seq=32, blocks=2)
        assert verify._live_peak(g, infer_shapes(g, w)) == 73_728
        verify_forward(g, w, g, w, trials=15, seed=0)
        assert forward_calls == [(14, 1, 32)] * 2 + [(1, 1, 32)] * 2

    def test_back_axis_group_norm_stacks(self, forward_calls):
        # A front-counted axis would name a stacked axis, so validation refuses it.
        with pytest.raises(GraphValidationError, match="axis 0 must be negative"):
            verify_forward(*_group_norm(0), *_group_norm(0), trials=2)
        g, w = _group_norm(-2)
        gB, wB = _group_norm(-2, scale=1.5)
        rep = verify_forward(g, w, gB, wB, trials=20, seed=4)
        assert forward_calls == [(20, 1, 4, 6)] * 2
        assert rep.max_abs_forward_diff == _reference_forward_diff(g, w, gB, wB, 20, 4)
        assert rep.max_abs_forward_diff > 0.1

    def test_graph_without_inputs_is_refused(self):
        g, w = fixtures.linear_then_norm()
        with pytest.raises(GraphValidationError):
            verify_forward(Graph([], [], [], []), WeightStore(), g, w, trials=1)


# Seeds of one to five 64-bit words; test_numpy_integer_seed adds a numpy one.
STREAM_SEEDS = pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 12345678901234567890, 2**128 + 5, 3**100, 2**192 + 7, 2**256 + 9],
    ids=["0", "2^32-1", "2^32", "2^64+3", "12345678901234567890", "2^128+5", "3^100", "2^192+7", "2^256+9"])


class TestTrialStreams:
    """verify's seeded inputs equal the one-value-at-a-time reference stream
    bit for bit, whatever the batch split or the trial count. (The
    *_numpy_streams tests keep the names they had when the draw reproduced
    numpy's generators.)"""

    @staticmethod
    def _assert_batches_equal_streams(g, seed, trials_list=(1, 7, 100, 101)):
        # Trial t's reference is drawn once: it must not depend on how many
        # trials the check runs or how they are split into batches.
        reference = _reference_trials(g, seed, max(trials_list))
        for trials in trials_list:
            for per_batch in sorted({1, 3, 50, trials}):
                batches = list(verify._trial_batches(g, seed, trials, per_batch))
                assert len(batches) == -(-trials // per_batch)
                for start, batch in zip(range(0, trials, per_batch), batches):
                    expected = _stack_trials(reference[start : min(start + per_batch, trials)])
                    assert batch.keys() == expected.keys()
                    for nid, value in batch.items():
                        assert value.dtype == expected[nid].dtype
                        assert value.dtype in (np.float64, np.int64) and value.flags.c_contiguous
                        assert np.array_equal(value, expected[nid]), (trials, per_batch, start, nid)
        for nid in g.inputs:
            attrs, drawn = g.nodes[nid].attrs, np.stack([trial[nid] for trial in reference])
            low, high = (0, OPS["Input"].attr(attrs, "high")) if OPS["Input"].attr(attrs, "integer") else (-2, 2)
            assert drawn.size == 0 or (drawn.min() >= low and drawn.max() < high), nid

    @pytest.mark.parametrize("name", ["linear_then_norm", "pre_ln_transformer", "recurrent_then_norm"],
                             ids=["float_input", "integer_input", "two_inputs"])
    @STREAM_SEEDS
    def test_batches_equal_numpy_streams(self, seed, name):
        self._assert_batches_equal_streams(fixtures.ALL_FIXTURES[name]()[0], seed)

    # Inputs in g.inputs order, each (per-sample shape, high), high None for
    # a float input. Integer inputs span high 1 (all zeros) to the int64
    # maximum, between float inputs, so each input's values must start
    # where the last one's ended; several_passes is a 3x32x32 input, drawn
    # for fewer trials so the reference stays near 10**5 values.
    @pytest.mark.parametrize("inputs", [
        [((5,), 13), ((3,), None), ((4,), 7)],
        *([((3,), 13), ((4,), high), ((2,), None), ((3,), 5)]
          for high in (1, 2, 2**31 + 1, 2**32, 2**32 + 1, 2**63 - 1)),
        [((), None), ((0,), 13), ((), 13), ((0, 3), None), ((3,), 7)],
        [((3, 32, 32), None), ((5,), 13)],
    ], ids=["buffered_half", "high_1", "high_2", "high_2^31+1", "high_2^32", "high_2^32+1",
            "high_int64_max", "scalar_and_empty", "several_passes"])
    @STREAM_SEEDS
    def test_layouts_equal_numpy_streams(self, seed, inputs):
        b = fixtures._Builder(0)
        for i, (shape, high) in enumerate(inputs):
            b.output(b.input(f"x{i}", shape, integer=high is not None, high=high))
        per_trial = sum(math.prod(shape) for shape, _high in inputs)
        self._assert_batches_equal_streams(b.build()[0], seed, (1, 7, min(101, 10**5 // per_trial)))

    @STREAM_SEEDS
    def test_spawn_key_words(self, seed):
        # Trial keys past 2**32 and up to the last index below 2**64.
        for start, stop in ((0, 3), (2**32 - 2, 2**32 + 2), (2**64 - 2, 2**64)):
            expected = [_trial_key(seed, t) for t in range(start, stop)]
            assert verify._trial_keys(seed, start, stop).tolist() == expected, (start, stop)

    def test_numpy_integer_seed(self):
        g, _ = fixtures.linear_then_norm()
        (batch,) = verify._trial_batches(g, np.uint64(2**64 - 1), 5, 5)
        (same,) = verify._trial_batches(g, 2**64 - 1, 5, 5)
        expected = _stack_trials(_reference_trials(g, 2**64 - 1, 5))
        assert np.array_equal(batch["x"], expected["x"]) and np.array_equal(same["x"], expected["x"])

    def test_mix_is_splitmix64(self):
        # SplitMix64 seeded with 0 outputs mix(GAMMA), mix(2 GAMMA), ... (Steele
        # et al. 2014; Vigna's splitmix64.c), which is the stream key 0 starts.
        published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert verify._splitmix(np.zeros(1, np.uint64), 0, 3).tolist() == [published]
        assert [_mix(k * _GAMMA & _MASK64) for k in (1, 2, 3)] == published

    def test_pinned_values(self):
        # A float input, then an integer one: value i counts across both.
        b = fixtures._Builder(0)
        b.output(b.input("x", (3,)))
        b.output(b.input("k", (2,), integer=True, high=1000))
        g = b.build()[0]
        pinned = {
            (0, 0): ([-1.445162359417783, 1.8844083312051532, -0.8886685095803704], [466, 991]),
            (3**100, 41): ([0.16580107746240547, 1.7461713072053775, 0.4343364380321515], [85, 523]),
        }
        for (seed, t), (floats, ints) in pinned.items():
            (batch,) = verify._trial_batches(g, seed, t + 1, t + 1)
            assert batch["x"][t, 0].tolist() == floats and batch["k"][t, 0].tolist() == ints, (seed, t)

    def test_threads_drawing_at_once(self):
        # More threads than cores, switching often, each drawing graphs of
        # different sizes in batches: nothing is shared between draws.
        graphs = []
        for size in (3, 40, 300, 3000):
            b = fixtures._Builder(0)
            b.output(b.input("x", (size,)))
            b.output(b.input("k", (size,), integer=True, high=13))
            graphs.append(b.build()[0])
        draw = lambda g: [batch[nid] for batch in verify._trial_batches(g, 5, 9, 4) for nid in g.inputs]
        expected = [draw(g) for g in graphs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(graphs)) as pool:
                runs = [pool.submit(draw, g) for g in graphs for _repeat in range(3)]
                drawn = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(drawn, [want for want in expected for _repeat in range(3)]):
            assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_checks_on_two_threads_draw_the_same_streams(self):
        g, w = fixtures.linear_then_norm()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        alone = verify_forward(g, w, fg, fw, trials=30, seed=9), verify_gradients(g, w, fg, fw, trials=9, seed=9)
        with ThreadPoolExecutor(2) as pool:
            forward_run = pool.submit(verify_forward, g, w, fg, fw, trials=30, seed=9)
            gradient_run = pool.submit(verify_gradients, g, w, fg, fw, trials=9, seed=9)
            assert (forward_run.result(timeout=60), gradient_run.result(timeout=60)) == alone


def _chain(b):
    x = b.input("x", (4,))
    return [b.linear("c", b.simple("r", "ReLU", b.linear("a", x, 6, 4)), 3, 6)]


def _residual_diamond(b):
    x = b.input("x", (4,))
    return [b.simple("s", "ResidualAdd", (x, b.linear("b", b.linear("a", x, 8, 4), 4, 8)))]


def _output_read_again(b):
    a = b.linear("a", b.input("x", (4,)), 8, 4)
    return [a, b.linear("c", b.simple("r", "ReLU", a), 2, 8)]


class TestLivePeak:
    # x 4, a 6, r 6, c 3: r is computed while a is alive, x already gone.
    # The diamond keeps x alive until s reads it: x, a and b at once. The
    # output a outlives its reader r, so c is computed beside a and r.
    @pytest.mark.parametrize("build, peak", [
        (_chain, 6 + 6),
        (_residual_diamond, 4 + 8 + 4),
        (_output_read_again, 8 + 8 + 2),
    ], ids=["chain", "residual_diamond", "output_read_again"])
    def test_counts_what_a_tape_free_forward_holds(self, build, peak):
        b = fixtures._Builder(0)
        g = Graph(b.nodes, b.edges, b.inputs, build(b))
        w = WeightStore(b.arrays)
        assert verify._live_peak(g, infer_shapes(g, w)) == peak
        inputs = {"x": np.arange(4.0)}
        for lean, taped in zip(forward(g, w, inputs, tape=False)[0], forward(g, w, inputs)[0]):
            np.testing.assert_array_equal(lean, taped)


class TestStackedGradients:
    @pytest.mark.parametrize("mode", ["strict", "practical"])
    @pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_equals_one_trial_at_a_time(self, name, f32, mode):
        g, w, pairs = _comparison_pairs(name, f32, mode)
        for gB, wB in pairs:
            rep = verify_gradients(g, w, gB, wB, trials=20, seed=7)
            assert _grad_result(rep) == _reference_grad_diff(g, w, gB, wB, 20, 7)

    def test_deep_pre_ln_equals_one_trial_at_a_time(self):
        g, w = fixtures.pre_ln_transformer(blocks=12)
        fg, fw = apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
        swapped = g.with_kinds({n.id: "RMSNorm" for n in g.nodes.values() if n.kind == "LayerNorm"})
        for gB, wB in ((fg, fw), (swapped, w)):
            rep = verify_gradients(g, w, gB, wB, trials=20, seed=2)
            assert _grad_result(rep) == _reference_grad_diff(g, w, gB, wB, 20, 2)

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_fixtures_run_every_trial_in_one_batch(self, name, forward_calls):
        g, w = fixtures.ALL_FIXTURES[name]()
        verify_gradients(g, w, g, w, trials=20, seed=0)
        per_sample = tuple(g.nodes[g.inputs[0]].attrs["shape"])
        assert forward_calls == [(20, 1) + per_sample] * 2

    def test_parameter_count_caps_the_batch(self, forward_calls):
        # 5 trials' tapes fit under the budget, but not 5 trials' gradients.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=24)
        assert verify.TAPE_BUDGET // verify._live_peak(g, infer_shapes(g, w), tape=True) >= 5
        assert 5 * sum(arr.size for _name, arr in w.items()) > verify.TAPE_BUDGET
        verify_gradients(g, w, g, w, trials=5, seed=0)
        assert forward_calls == [(4, 1, 8)] * 2 + [(1, 1, 8)] * 2

    def test_deep_stack_runs_both_trials_in_one_batch(self, forward_calls):
        # 456,672 parameters: two trials' gradients fit under 2**20.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=48)
        verify_gradients(g, w, g, w, trials=2, seed=0)
        assert forward_calls == [(2, 1, 8)] * 2

    def test_deep_stack_equals_one_trial_at_a_time(self):
        # Strict mode folds none of a pre-LN stack's LayerNorms.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=36)
        fg, fw = apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
        swapped = g.with_kinds({n.id: "RMSNorm" for n in g.nodes.values() if n.kind == "LayerNorm"})
        for gB, wB in ((fg, fw), (swapped, w)):
            rep = verify_gradients(g, w, gB, wB, trials=4, seed=5)  # batches of 3 and 1
            assert _grad_result(rep) == _reference_grad_diff(g, w, gB, wB, 4, 5)

    def test_holds_one_set_of_parameter_gradients(self):
        # Two trials' gradients are 7.3 MB (2 x 456,672 f64); holding both
        # schemes' gradient sets at once peaks above 16 MB.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=48)
        fg, fw = apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
        tracemalloc.start()
        try:
            assert verify_gradients(g, w, fg, fw, trials=2, seed=0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    def test_centers_the_proxies_once_per_call(self, monkeypatch, forward_calls):
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=24)
        fg, _fw = apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
        centered = []

        def counting(*args):
            centered.append(args)
            return original(*args)

        original = verify.center_targets
        monkeypatch.setattr(verify, "center_targets", counting)
        assert verify_gradients(g, w, fg, w, trials=9, seed=0).passed
        assert len(forward_calls) == 6  # three batches: 4, 4 and 1 trials
        assert len(centered) == 1

    def test_back_axis_group_norm_stacks(self, forward_calls):
        with pytest.raises(GraphValidationError, match="axis 0 must be negative"):
            verify_gradients(*_group_norm(0), *_group_norm(0), trials=2)
        g, w = _group_norm(-2)
        gB, wB = _group_norm(-2, scale=1.5)
        rep = verify_gradients(g, w, gB, wB, trials=20, seed=4)
        assert forward_calls == [(20, 1, 4, 6)] * 2
        assert _grad_result(rep) == _reference_grad_diff(g, w, gB, wB, 20, 4)
        assert rep.max_abs_forward_diff > 0.1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_trial_gradient_fails_its_batch(self, monkeypatch, bad):
        g, w = fixtures.linear_then_norm()
        fg, _fw = apply_fold(g, w, detect_foldable(g, w))
        keeps = []

        def poisoned(tape, out_grads, keep_axis0, consume=None):
            keeps.append((keep_axis0, callable(consume)))
            grads = backward(tape, out_grads, keep_axis0, consume)
            if len(keeps) == 1:  # model A of the only batch, which collects: trial 7 of 20
                grads["lin.weight"][7, 2, 3] = bad
            return grads

        monkeypatch.setattr(verify, "backward", poisoned)
        rep = verify_gradients(g, w, fg, w, trials=20, seed=0)
        assert keeps == [(True, False), (True, True)]
        assert rep.max_abs_forward_diff is not None
        assert (rep.max_abs_grad_diff, rep.passed) == (None, False)
        assert rep.to_json()["max_abs_grad_diff"] is None


def _one_op_graphs():
    """A small graph around each node kind that has parameters, with a
    per-sample leading axis so every reduction sums more than one row."""
    def linear(b):
        return b.linear("op", b.input("x", (3, 5)), 4, 5)

    def conv(b):
        return b.conv2d("op", b.input("x", (2, 2, 5, 5)), 3, 2, 3, padding=1)

    def recurrent(b):
        return b.recurrent("op", b.input("x", (3, 5)), b.input("h", (3, 6)), 6, 5)

    def value(b):
        return b.value_projection("op", b.input("x", (3, 4)), 4, 5)

    def norm(b):
        return b.layer_norm("op", b.input("x", (3, 6)), 6)

    def embedding(b):
        return b.embedding("op", b.input("x", (3,), integer=True, high=7), 7, 4)

    builders = {"Linear": linear, "Conv2d": conv, "RecurrentCell": recurrent,
                "AttentionValueProjection": value, "LayerNorm": norm, "RMSNorm": norm,
                "Embedding": embedding}
    graphs = {}
    for kind, build in builders.items():
        b = fixtures._Builder(3)
        b.output(build(b))
        g, w = b.build()
        graphs[kind] = (g.with_kinds({"op": kind}), w)
    return graphs


ONE_OP_GRAPHS = _one_op_graphs()


def test_every_kind_with_parameters_has_a_one_op_graph():
    assert set(ONE_OP_GRAPHS) == {kind for kind, op in OPS.items() if op.params[1] > 0}


class TestKeptAxisBackward:
    def _stacked(self, g, w, trials=5):
        batch = _reference_trials(g, 11, trials)
        outs, tape = forward(g, w, _stack_trials(batch))
        out_grads = [np.random.default_rng(5).normal(size=o.shape) for o in outs]
        return batch, tape, out_grads

    @pytest.mark.parametrize("kind", sorted(ONE_OP_GRAPHS))
    def test_each_slice_equals_that_trial_alone(self, kind):
        g, w = ONE_OP_GRAPHS[kind]
        batch, tape, out_grads = self._stacked(g, w)
        kept = backward(tape, out_grads, keep_axis0=True)
        assert set(kept) == set(w.names())
        for t, inputs in enumerate(batch):
            _, single_tape = forward(g, w, inputs)
            single = backward(single_tape, [og[t, 0] for og in out_grads])
            for name, grad in single.items():
                assert kept[name].shape == (len(batch),) + grad.shape
                assert kept[name][t].tobytes() == grad.tobytes(), (name, t)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("kind", sorted(ONE_OP_GRAPHS))
    def test_consumer_gets_the_collected_gradients(self, kind, keep):
        g, w = ONE_OP_GRAPHS[kind]
        _, tape, out_grads = self._stacked(g, w)
        collected = backward(tape, out_grads, keep_axis0=keep)
        consumed = {}

        def consume(node, grads):
            assert set(grads) == set(node.param_refs) and not set(grads) & set(consumed)
            consumed.update(grads)

        streamed = backward(tape, out_grads, keep_axis0=keep, consume=consume)
        assert streamed == {}
        assert set(consumed) == set(collected) == set(w.names())
        for name, grad in collected.items():
            assert consumed[name].shape == grad.shape and consumed[name].tobytes() == grad.tobytes(), name

    def _check_leaves_its_arguments_unmodified(self, kind, keep, consume):
        g, w = ONE_OP_GRAPHS[kind]
        _, tape, out_grads = self._stacked(g, w)
        arrays = [*out_grads]
        for e in tape.entries.values():
            arrays += [*e.inputs, *e.params, e.output]
            arrays += [v for v in e.saved.values() if isinstance(v, np.ndarray)]
        before = [a.copy() for a in arrays]
        backward(tape, out_grads, keep_axis0=keep, consume=consume)
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("kind", sorted(ONE_OP_GRAPHS))
    def test_leaves_its_arguments_unmodified(self, kind, keep):
        self._check_leaves_its_arguments_unmodified(kind, keep, None)

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("kind", sorted(ONE_OP_GRAPHS))
    def test_consumer_form_leaves_its_arguments_unmodified(self, kind, keep):
        self._check_leaves_its_arguments_unmodified(kind, keep, lambda node, grads: None)


class TestNonFinite:
    def _nan_fold(self):
        g, w = fixtures.linear_then_norm()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        arrays = {k: v.copy() for k, v in fw.items()}
        arrays["lin.weight"][0, 0] = np.nan
        return g, w, fg, WeightStore(arrays)

    def test_nan_weight_fails_forward(self):
        g, w, fg, fw = self._nan_fold()
        rep = verify_forward(g, w, fg, fw, trials=10, seed=0)
        assert not rep.passed
        assert rep.max_abs_forward_diff is None
        assert rep.to_json()["max_abs_forward_diff"] is None

    def test_one_nan_trial_fails_its_whole_batch(self, monkeypatch):
        g, w = fixtures.linear_then_norm()
        runs = []

        def poisoned(graph, store, inputs, *args, **kwargs):
            outs, tape = forward(graph, store, inputs, *args, **kwargs)
            runs.append(graph)
            if len(runs) == 2:  # model B of the only batch
                outs[0][3] = np.nan
            return outs, tape

        monkeypatch.setattr(verify, "forward", poisoned)
        rep = verify_forward(g, w, g, w, trials=10, seed=0)
        assert len(runs) == 2
        assert (rep.max_abs_forward_diff, rep.passed) == (None, False)

    def test_infinite_difference_fails(self):
        g, w = fixtures.linear_then_norm()
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["ln.beta"][0] = np.inf
        rep = verify_forward(g, w, g, WeightStore(arrays), trials=5, seed=0)
        assert (rep.max_abs_forward_diff, rep.passed) == (None, False)

    def test_nan_weight_fails_gradients(self):
        g, w = fixtures.linear_then_norm()
        fg, _fw = apply_fold(g, w, detect_foldable(g, w))
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["ln.gamma"][2] = np.nan
        rep = verify_gradients(g, w, fg, WeightStore(arrays), trials=5, seed=0)
        assert not rep.passed
        assert rep.max_abs_forward_diff is None
        assert rep.max_abs_grad_diff is None

    def test_nan_weight_fails_zero_mean_probe(self):
        g, w, fg, fw = self._nan_fold()
        assert np.isnan(check_zero_mean(fg, fw, "lin", trials=10, seed=0))

    def test_finite_results_fold_in_order(self):
        assert verify._fold_worst(0.0, [1.0, 3.0, 2.0]) == 3.0
        assert verify._fold_worst(0.0, [1.0, np.nan, 2.0]) is None
        assert verify._fold_worst(None, [1.0]) is None


class TestDefaultTolerance:
    def test_f64_models_default_to_1e_9(self):
        g, w = fixtures.linear_then_norm()
        assert verify_forward(g, w, g, w, trials=2).tol == 1e-9
        assert verify_gradients(g, w, g, w, trials=2).tol == 1e-9

    def test_any_f32_array_selects_1e_5(self):
        g, w = fixtures.linear_then_norm()
        mixed = WeightStore({k: v.astype(np.float32) if k == "ln.beta" else v for k, v in w.items()})
        assert default_tol(w, w) == 1e-9
        assert default_tol(w, mixed) == 1e-5
        assert default_tol(mixed, w) == 1e-5

    def test_f32_fold_passes_at_the_default(self):
        g, w = fixtures.post_ln_transformer()
        w32 = _as_f32(w)
        fg, fw = apply_fold(g, w32, detect_foldable(g, w32))
        rep = verify_forward(g, w32, fg, fw, trials=20, seed=0)
        assert (rep.tol, rep.passed) == (1e-5, True)
        assert rep.max_abs_forward_diff > 1e-9
        assert not verify_forward(g, w32, fg, fw, trials=20, seed=0, tol=1e-9).passed


class TestVerifyGradients:
    def test_proxy_scheme_matches(self):
        g, w = fixtures.linear_then_norm()
        fg, _fw = apply_fold(g, w, detect_foldable(g, w))
        # scheme B holds the raw weights as proxies
        rep = verify_gradients(g, w, fg, w, trials=20, seed=0, tol=1e-9)
        assert rep.passed, rep.max_abs_grad_diff

    def test_deployed_centered_weights_also_match(self):
        g, w = fixtures.post_ln_transformer()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        rep = verify_gradients(g, w, fg, fw, trials=10, seed=1, tol=1e-9)
        assert rep.passed, rep.max_abs_grad_diff

    def test_zero_upstream_gradient(self):
        g, w = fixtures.linear_then_norm()
        store = w.as_f64()
        fg, _fw = apply_fold(g, w, detect_foldable(g, w))
        proxied = verify._derive_proxied(g, fg)
        assert list(proxied) == ["lin"]
        outs, tape = forward(g, center_targets(g, store, proxied), sample_inputs(g, np.random.default_rng(0)))
        grads = {}

        def project(node, node_grads):
            if node.id in proxied:
                node_grads.update(center_node_params(node, node_grads))
            grads.update(node_grads)

        backward(tape, [np.zeros_like(o) for o in outs], consume=project)
        assert grads
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_runs_no_detection(self, monkeypatch):
        # The proxies are read off the LayerNorm->RMSNorm swaps of the fold.
        g, w = fixtures.pre_ln_transformer()
        fg, fw = apply_fold(g, w, detect_foldable(g, w, mode="practical"), allow_practical=True)
        monkeypatch.setattr(verify, "detect_foldable",
                            lambda *args, **kwargs: pytest.fail("verify_gradients ran detection"))
        assert verify_gradients(g, w, fg, fw, trials=2).passed

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    @pytest.mark.parametrize("mode", ["strict", "practical"])
    def test_proxies_are_the_report_targets(self, name, mode):
        g, w = fixtures.ALL_FIXTURES[name]()
        report = detect_foldable(g, w, mode=mode, strict_safety=False)
        fg, _fw = apply_fold(g, w, report, allow_practical=True)
        proxied = verify._derive_proxied(g, fg)
        assert list(proxied.items()) == list(report.targets.items())

    def test_pairing_failure(self):
        g, w = fixtures.linear_then_norm()
        g2, w2 = fixtures.linear_then_norm(bias=False)
        with pytest.raises(ParameterPairingError):
            verify_gradients(g, w, g2, w2, trials=1)

    @pytest.mark.parametrize("params", [None, ["lin.weight"]], ids=["renamed", "bias_dropped"])
    def test_target_must_own_the_same_parameters(self, params):
        g, w = fixtures.linear_then_norm()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        lin = fg.nodes["lin"]
        moved = make_node("lin2" if params is None else "lin", lin.kind, lin.attrs,
                          params or lin.param_refs)
        nodes = [moved if n.id == "lin" else n for n in fg.nodes.values()]
        edges = [tuple(moved.id if v == "lin" else v for v in e[:2]) + e[2:] for e in fg.edges]
        fg = Graph(nodes, edges, fg.inputs, fg.outputs)
        with pytest.raises(ParameterPairingError, match="centered node 'lin'"):
            verify_gradients(g, w, fg, fw, trials=1)


def _scaled_output(scale):
    """linear_then_norm with a ScalarScale between ln and the output; the
    scale has no parameters, so the weights are linear_then_norm's."""
    b = fixtures._Builder(0)
    lin = b.linear("lin", b.input("x", (6,)), 8, 6)
    b.output(b.simple("scale", "ScalarScale", b.layer_norm("ln", lin, 8), {"scale": scale}))
    return b.build()


def _open_hole(hole, why):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item 10, hole {hole}: {why}")


class TestOpenVerifyHoles:
    """Verdicts verify gets wrong today, at the default trials and tol. The
    naive swap carries ln as RMSNorm and leaves lin uncentered. Each case
    is a strict xfail, so the change that closes its hole must flip it."""

    def test_the_naive_swap_changes_the_outputs(self):
        g, w = _scaled_output(1e-10)
        _g, base = fixtures.linear_then_norm()
        assert all(np.array_equal(w[name], base[name]) for name in base.names())
        assert verify_forward(g, w, g.with_kinds({"ln": "RMSNorm"}), w).max_abs_forward_diff > 1e-10

    @_open_hole(1, "an absolute tol passes a wrong fold whose outputs are tiny (1.56e-10 at scale 1e-10)")
    def test_naive_swap_behind_a_small_scale_fails_forward(self):
        g, w = _scaled_output(1e-10)
        assert not verify_forward(g, w, g.with_kinds({"ln": "RMSNorm"}), w).passed

    @_open_hole(1, "an absolute tol fails a right fold whose outputs are large (8.9e-8 at scale 1e8)")
    def test_strict_fold_behind_a_large_scale_passes_forward(self):
        g, w = _scaled_output(1e8)
        assert verify_forward(g, w, *apply_fold(g, w, detect_foldable(g, w))).passed

    @_open_hole(2, "scheme B centers the targets itself, so it never reads an uncentered one")
    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    def test_naive_swap_fails_gradients(self, scale):
        g, w = _scaled_output(scale)
        assert not verify_gradients(g, w, g.with_kinds({"ln": "RMSNorm"}), w).passed


class TestTrialCount:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_is_refused(self, trials):
        g, w = fixtures.linear_then_norm()
        for run in (lambda: verify_forward(g, w, g, w, trials=trials),
                    lambda: verify_gradients(g, w, g, w, trials=trials),
                    lambda: check_zero_mean(g, w, "lin", trials=trials)):
            with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
                run()

    def test_negative_seed_is_refused(self):
        g, w = fixtures.linear_then_norm()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        for run in (lambda: verify_forward(g, w, fg, fw, trials=2, seed=-1),
                    lambda: verify_gradients(g, w, fg, w, trials=2, seed=-1),
                    lambda: check_zero_mean(g, w, "lin", trials=2, seed=-1)):
            with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
                run()


class TestCheckZeroMean:
    def test_centered_linear(self):
        g, w = fixtures.linear_then_norm()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        worst = check_zero_mean(fg, fw, "lin", trials=100, seed=0)
        assert worst <= 8 * 8 * EPS_M

    def test_uncentered_biased_linear_flagged(self):
        g, w = fixtures.linear_then_norm()
        worst = check_zero_mean(g, w, "lin", trials=20, seed=0)
        assert worst > 1e-3

    def test_unknown_node(self):
        g, w = fixtures.linear_then_norm()
        with pytest.raises(KeyError):
            check_zero_mean(g, w, "nope")

    def test_probes_validate_the_model_once(self, monkeypatch):
        # Validated as given, not as its f64 copy: the check remembers (g, w).
        g, w = fixtures.linear_then_norm()
        validated = []
        original = graph_ir.validate_graph
        monkeypatch.setattr(graph_ir, "validate_graph", lambda g, w: validated.append(g) or original(g, w))
        for _ in range(3):
            check_zero_mean(g, w, "lin", trials=2)
        assert validated == [g]

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_stacked_equals_one_trial_at_a_time(self, name, forward_calls):
        g, w = fixtures.ALL_FIXTURES[name]()
        store = w.as_f64()
        trials = _reference_trials(g, 5, 30)
        for nid in g.nodes:
            forward_calls.clear()
            worst = check_zero_mean(g, w, nid, trials=30, seed=5)
            reference = 0.0
            for inputs in trials:
                value = forward(g, store, inputs)[1].entries[nid].output
                reference = max(reference, float(np.abs(value.mean(axis=-1)).max()))
            assert worst == reference, nid
            assert forward_calls[0][:2] == (30, 1)

    def test_probes_batch_by_the_whole_tape(self, forward_calls):
        # The node is read off a tape: 129,800 elements per trial, so eight
        # trials fit under the budget and a ninth starts a second batch.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=36)
        check_zero_mean(g, w, "ffn2_35", trials=9, seed=0)
        assert forward_calls == [(8, 1, 8), (1, 1, 8)]

    def test_front_counted_axis_runs_stacked(self, forward_calls):
        g, w = fixtures.conv_block()
        back = check_zero_mean(g, w, "conv", trials=20, seed=1, axis=-3)
        assert check_zero_mean(g, w, "conv", trials=20, seed=1, axis=0) == back
        assert forward_calls == [(20, 1, 2, 6, 6)] * 2

    def test_axis_beyond_the_node_still_raises(self):
        # The stack's trial axes would give either axis something to name;
        # the check counts only the node's own axes.
        g, w = fixtures.linear_then_norm()
        for axis in (-2, 1):
            with pytest.raises(np.exceptions.AxisError):
                check_zero_mean(g, w, "lin", axis=axis)

    def test_conv_channel_axis(self):
        from lnfold.centering import Family, center, center_bias
        g, w = fixtures.conv_block()
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["conv.kernel"] = center(arrays["conv.kernel"], Family.CONV_OUT_CHANNELS)
        arrays["conv.bias"] = center_bias(arrays["conv.bias"])
        worst = check_zero_mean(g, WeightStore(arrays), "conv", trials=50, seed=0, axis=-3)
        assert worst <= 8 * 4 * EPS_M * 20  # 4 channels; sums over 2*3*3 kernel taps


class TestFlops:
    def test_naive_d8(self):
        ln = flops_estimate("ln", "naive", 8)
        rms = flops_estimate("rms", "naive", 8)
        assert (ln.adds, ln.muls, ln.divs) == (40, 16, 8)
        assert (rms.adds, rms.muls, rms.divs) == (8, 16, 8)

    def test_welford_d64_g4(self):
        ln = flops_estimate("ln", "welford", 64, 4)
        rms = flops_estimate("rms", "welford", 64)
        assert (ln.adds, ln.muls, ln.divs) == (448, 220, 64)
        assert (rms.adds, rms.muls, rms.divs) == (64, 192, 0)

    def test_closed_forms_across_grid(self):
        for d in (1, 8, 64, 4096):
            ln = flops_estimate("ln", "naive", d)
            rms = flops_estimate("rms", "naive", d)
            assert (ln.adds, ln.muls, ln.divs) == (5 * d, 2 * d, d)
            assert (rms.adds, rms.muls, rms.divs) == (d, 2 * d, d)
            for g in (1, 4, 32):
                lnw = flops_estimate("ln", "welford", d, g)
                rmsw = flops_estimate("rms", "welford", d, g)
                assert (lnw.adds, lnw.muls, lnw.divs) == (7 * d, 3 * d + 7 * g, d)
                assert (rmsw.adds, rmsw.muls, rmsw.divs) == (d, 3 * d, 0)

    def test_ticks_cost_model(self):
        # div costs three ticks; naive LN 10d vs RMS 6d, welford 13d+7g vs 4d
        assert flops_estimate("ln", "naive", 10).ticks == 100
        assert flops_estimate("rms", "naive", 10).ticks == 60
        assert flops_estimate("ln", "welford", 10, 2).ticks == 130 + 14
        assert flops_estimate("rms", "welford", 10).ticks == 40

    def test_errors(self):
        with pytest.raises(ValueError):
            flops_estimate("ln", "naive", 0)
        with pytest.raises(ValueError):
            flops_estimate("ln", "welford", 8)
        with pytest.raises(ValueError):
            flops_estimate("nope", "naive", 8)
        with pytest.raises(ValueError, match="^variant must be 'naive' or 'welford', got 'fused'$"):
            flops_estimate("ln", "fused", 8)


class TestSpeedupEstimate:
    def test_reported_operating_point(self):
        # a 10.72% normalization share at 60% layer saving is ~6.4% end to end
        assert model_speedup_estimate(0.1072, 0.6) == pytest.approx(0.06432)

    def test_zero_edges(self):
        assert model_speedup_estimate(0.0, 0.7) == 0.0
        assert model_speedup_estimate(0.3, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            model_speedup_estimate(1.2, 0.5)
        with pytest.raises(ValueError):
            model_speedup_estimate(0.5, -0.1)


class TestTrainingEquivalence:
    """The lockstep loop of acceptance criterion 4 (tests/training.py)."""

    def _pair(self):
        g, w = fixtures.mlp_classifier()
        report = detect_foldable(g, w)
        fg, _fw = apply_fold(g, w, report)
        return g, w, fg, report.targets

    def test_zero_steps_zero_diff(self):
        gap, _loss_a, _loss_b = train_lockstep(*self._pair(), steps=0, lr=0.05, seed=0)
        assert gap == 0.0

    def test_lockstep_200_steps(self):
        gap, loss_a, _loss_b = train_lockstep(*self._pair(), steps=200, lr=0.05, seed=0)
        assert gap <= 1e-10
        assert np.isfinite(loss_a)

    @pytest.mark.parametrize("kept", [["l2"], ["l1"], []], ids=["l1_dropped", "l2_dropped", "none"])
    def test_unprojected_training_drifts_apart(self, kept):
        # A negative control: scheme B must project every centering target.
        g, w, fg, targets = self._pair()
        assert list(targets) == ["l1", "l2"]
        gap, _loss_a, _loss_b = train_lockstep(g, w, fg, kept, steps=20)
        assert gap > 1e-3
