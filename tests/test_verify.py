"""Tests for the verification harness: forward/gradient equivalence,
zero-mean probes, the operation-count model, and lockstep training."""

import numpy as np
import pytest

from lnfold import fixtures, verify
from lnfold.fold_apply import FoldError, apply_fold
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import Graph, WeightStore
from lnfold.tensor_math import forward
from lnfold.verify import (
    ParameterPairingError,
    SignatureMismatchError,
    _trial_rngs,
    check_zero_mean,
    default_tol,
    flops_estimate,
    model_speedup_estimate,
    sample_inputs,
    training_equivalence,
    verify_forward,
    verify_gradients,
)

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


def _reference_forward_diff(gA, wA, gB, wB, trials, seed):
    """verify_forward's maximum, one trial and one forward at a time."""
    storeA, storeB = wA.as_f64(), wB.as_f64()
    worst = 0.0
    for rng in _trial_rngs(seed, trials):
        inputs = sample_inputs(gA, rng)
        outsA, _ = forward(gA, storeA, inputs)
        outsB, _ = forward(gB, storeB, inputs)
        for a, b in zip(outsA, outsB):
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


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


def _group_norm_axis0(scale=1.0):
    """GroupNorm over the first per-sample axis, which a stack would shift."""
    b = fixtures._Builder(0)
    x = b.input("x", (4, 6))
    gn = b.simple("gn", "GroupNorm", x, {"axis": 0, "groups": 2})
    b.output(b.simple("s", "ScalarScale", gn, {"scale": scale}))
    return b.build()


@pytest.fixture()
def forward_calls(monkeypatch):
    """Leading shape of the first input of every forward verify_forward runs."""
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

    def test_deep_stack_runs_one_trial_per_batch(self, forward_calls):
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=48)
        verify_forward(g, w, g, w, trials=3, seed=0)
        assert forward_calls == [(8,)] * 6

    def test_batches_stop_at_the_tape_budget(self, forward_calls):
        # 129,800 elements per trial: two trials fit under 2**18.
        g, w = fixtures.pre_ln_transformer(d=32, hidden=128, seq=8, blocks=36)
        verify_forward(g, w, g, w, trials=5, seed=0)
        assert forward_calls == [(2, 1, 8)] * 4 + [(8,)] * 2

    def test_front_axis_group_norm_runs_one_trial_per_batch(self, forward_calls):
        g, w = _group_norm_axis0()
        gB, wB = _group_norm_axis0(scale=1.5)
        rep = verify_forward(g, w, gB, wB, trials=20, seed=4)
        assert forward_calls == [(4, 6)] * 40
        assert rep.max_abs_forward_diff == _reference_forward_diff(g, w, gB, wB, 20, 4)
        assert rep.max_abs_forward_diff > 0.1

    def test_graph_without_inputs_runs_one_trial_per_batch(self):
        assert verify._trials_per_batch(Graph([], [], [], []), {}) == 1


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
        from lnfold.verify import _proxied_grads, _derive_proxied
        g, w = fixtures.linear_then_norm()
        store = w.as_f64()
        proxied = _derive_proxied(g, store)
        zeros = lambda outs: [np.zeros_like(o) for o in outs]
        rng = np.random.default_rng(0)
        from lnfold.verify import sample_inputs
        _, grads = _proxied_grads(g, store, proxied, sample_inputs(g, rng), zeros)
        for name, grad in grads.params.items():
            np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_pairing_failure(self):
        g, w = fixtures.linear_then_norm()
        g2, w2 = fixtures.linear_then_norm(bias=False)
        with pytest.raises(ParameterPairingError):
            verify_gradients(g, w, g2, w2, trials=1)


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

    def test_conv_channel_axis(self):
        from lnfold.centering import center_bias, center_conv_kernel
        g, w = fixtures.conv_block()
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["conv.kernel"] = center_conv_kernel(arrays["conv.kernel"])
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
    def _pair(self):
        g, w = fixtures.mlp_classifier()
        fg, _fw = apply_fold(g, w, detect_foldable(g, w))
        return g, w, fg

    def test_zero_steps_zero_diff(self):
        g, w, fg = self._pair()
        res = training_equivalence(g, w, fg, w, steps=0, lr=0.05, seed=0)
        assert res.max_weight_diff == 0.0

    def test_lockstep_200_steps(self):
        g, w, fg = self._pair()
        res = training_equivalence(g, w, fg, w, steps=200, lr=0.05, seed=0)
        assert res.max_weight_diff <= 1e-10
        assert np.isfinite(res.final_loss_a)

    def test_unequal_lr_rejected(self):
        g, w, fg = self._pair()
        with pytest.raises(ValueError, match="hyperparameters"):
            training_equivalence(g, w, fg, w, steps=1, lr=0.05, lr_b=0.01)

    def test_different_init_rejected(self):
        g, w, fg = self._pair()
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["l1.weight"][0, 0] += 0.5
        with pytest.raises(ValueError, match="initial weights"):
            training_equivalence(g, w, fg, WeightStore(arrays), steps=1, lr=0.05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weight_gap_is_nan(self):
        # One step at an infinite rate leaves inf/NaN weights in both schemes.
        g, w, fg = self._pair()
        res = training_equivalence(g, w, fg, w, steps=1, lr=float("inf"))
        assert np.isnan(res.max_weight_diff)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_distinctly(self):
        from lnfold.verify import TrainingDivergenceError
        g, w, fg = self._pair()
        with pytest.raises(TrainingDivergenceError):
            training_equivalence(g, w, fg, w, steps=20, lr=1e155, seed=0)
