"""Tests for the verification harness: forward/gradient equivalence,
zero-mean probes, the operation-count model, and lockstep training."""

import numpy as np
import pytest

from lnfold import fixtures
from lnfold.fold_apply import apply_fold
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import WeightStore
from lnfold.verify import (
    ParameterPairingError,
    SignatureMismatchError,
    check_zero_mean,
    flops_estimate,
    model_speedup_estimate,
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
    def test_divergence_reported_distinctly(self):
        from lnfold.verify import TrainingDivergenceError
        g, w, fg = self._pair()
        with pytest.raises(TrainingDivergenceError):
            training_equivalence(g, w, fg, w, steps=20, lr=1e155, seed=0)
