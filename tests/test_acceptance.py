"""Acceptance suite.

Each test is one shipping criterion, run at its pinned tolerance, and prints
one PASS line on success (run with ``pytest tests/test_acceptance.py -v -s``
to see them; a failure raises, so pytest prints FAIL for the criterion).

 1. Detection counts on the synthetic topologies: post-norm transformer 100%
    strictly foldable; pre-norm transformer 0% strict but 100% practical with
    exactly one centering insertion; concat topology 0% in both modes.
 2. Forward equivalence of every strictly foldable fixture after folding:
    max |original - folded| <= 1e-9 over 100 seeded f64 trials.
 3. Gradient equivalence of the plain scheme vs the centered-proxy scheme
    (<= 1e-9 over 20 seeds), and each scheme's analytic gradients against
    central finite differences (<= 1e-5 relative, h = 1e-6, f64).
 4. Lockstep plain-gradient-descent training of a two-layer MLP for 1000
    steps in f64: max paired-weight difference <= 1e-9.
 5. Operation-count model: exact closed forms for both normalizations under
    both the naive and the single-pass grouped implementations.
 6. Centering families (linear, conv, recurrent, attention-value, grouped):
    idempotent to 4*eps_machine, constraint residual <= 1e-9, downstream
    constrained-axis output mean <= 8*n*eps_machine over 100 random inputs.
 7. Safety: a centering target that also feeds a ReLU is flagged unsafe and
    the fold is refused under strict safety.
 8. The algebraic keystone: on 10,000 random zero-mean vectors both
    normalizations agree elementwise to 4*eps_machine.
"""

import time

import numpy as np
import pytest

from lnfold import fixtures
from lnfold.centering import (
    Family,
    center,
    center_bias,
    center_node_params,
    constraint_residual,
)
from lnfold.fold_apply import FoldError, apply_fold, center_targets
from lnfold.fold_detect import detect_foldable
from lnfold.ops import OPS
from lnfold.tensor_math import backward, forward
from lnfold.verify import (
    flops_estimate,
    verify_forward,
    verify_gradients,
)
from sampling import sample_inputs
from training import train_lockstep

EPS_M = float(np.finfo(np.float64).eps)


def _report(num: int, detail: str) -> None:
    print(f"criterion {num} PASS: {detail}")


def test_criterion_1_detection_counts():
    start = time.monotonic()

    g, w = fixtures.post_ln_transformer()
    rep = detect_foldable(g, w)
    counts = rep.counts()
    assert counts["layer_norms"] == 2 and counts["strict"] == 2, counts

    g, w = fixtures.pre_ln_transformer()
    strict = detect_foldable(g, w, mode="strict").counts()
    assert strict["layer_norms"] == 5 and strict["strict"] == 0, strict
    practical = detect_foldable(g, w, mode="practical")
    pcounts = practical.counts()
    assert pcounts["foldable"] == 5 and pcounts["insertions"] == 1, pcounts
    assert practical.insertions[0].after == "embed"

    g, w = fixtures.concat_then_norm()
    for mode in ("strict", "practical"):
        assert detect_foldable(g, w, mode=mode).counts()["foldable"] == 0

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"detection took {elapsed:.2f}s"
    _report(1, f"post-norm 2/2 strict, pre-norm 0/5 strict and 5/5 practical "
               f"with 1 insertion, concat 0/1 ({elapsed:.2f}s)")


def test_criterion_2_forward_equivalence():
    start = time.monotonic()
    worst = 0.0
    for name, builder in fixtures.STRICT_FOLDABLE_FIXTURES.items():
        g, w = builder()
        report = detect_foldable(g, w)
        assert report.foldable, f"{name} should be strictly foldable"
        assert all(
            report.entries[ln].verdict == "foldable_strict" for ln in report.foldable
        )
        fg, fw = apply_fold(g, w, report)
        rep = verify_forward(g, w, fg, fw, trials=100, seed=0, tol=1e-9)
        assert rep.passed, (name, rep.max_abs_forward_diff)
        worst = max(worst, rep.max_abs_forward_diff)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"forward verification took {elapsed:.2f}s"
    _report(2, f"{len(fixtures.STRICT_FOLDABLE_FIXTURES)} fixtures, "
               f"worst |orig - folded| = {worst:.3e} <= 1e-9 ({elapsed:.2f}s)")


def test_criterion_3_gradient_equivalence():
    start = time.monotonic()
    g, w = fixtures.linear_then_norm()
    report = detect_foldable(g, w)
    fg, _fw = apply_fold(g, w, report)

    rep = verify_gradients(g, w, fg, w, trials=20, seed=0, tol=1e-9)
    assert rep.passed, rep.max_abs_grad_diff

    # both schemes against the finite-difference oracle, h = 1e-6
    h = 1e-6
    store = w.as_f64()
    rng = np.random.default_rng(0)
    inputs = sample_inputs(g, rng)
    proxied = dict(report.targets)

    def scheme_a_loss(arrays):
        from lnfold.graph_ir import WeightStore
        outs, _ = forward(g, WeightStore(arrays), inputs)
        return float(sum(o.sum() for o in outs))

    def scheme_b_loss(arrays):
        from lnfold.graph_ir import WeightStore
        st = WeightStore(arrays)
        outs, _ = forward(fg, center_targets(fg, st, proxied), inputs)
        return float(sum(o.sum() for o in outs))

    outsA, tapeA = forward(g, store, inputs)
    gradsA = backward(tapeA, [np.ones_like(o) for o in outsA])
    # Scheme B: gradients w.r.t. the proxies are the effective-weight
    # gradients passed through the centering map.
    outsB, tapeB = forward(fg, center_targets(fg, store, proxied), inputs)
    gradsB = {}

    def project(node, grads):
        if node.id in proxied:
            grads.update(center_node_params(node, grads))
        gradsB.update(grads)

    backward(tapeB, [np.ones_like(o) for o in outsB], consume=project)

    for loss_fn, grads, tag in ((scheme_a_loss, gradsA, "plain"),
                                (scheme_b_loss, gradsB, "proxy")):
        worst_rel = 0.0
        for name in store.names():
            arrays = {k: v.copy() for k, v in store.items()}
            flat = arrays[name].reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                plus = loss_fn(arrays)
                flat[i] = orig - h
                minus = loss_fn(arrays)
                flat[i] = orig
                fd[i] = (plus - minus) / (2 * h)
            fd = fd.reshape(store[name].shape)
            analytic = grads.get(name, np.zeros_like(fd))
            rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
            worst_rel = max(worst_rel, rel)
        assert worst_rel <= 1e-5, (tag, worst_rel)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient verification took {elapsed:.2f}s"
    _report(3, f"proxy-vs-plain grad diff = {rep.max_abs_grad_diff:.3e} <= 1e-9 over "
               f"20 seeds; both schemes within 1e-5 of finite differences ({elapsed:.2f}s)")


def test_criterion_4_training_equivalence():
    start = time.monotonic()
    g, w = fixtures.mlp_classifier()
    report = detect_foldable(g, w)
    fg, _fw = apply_fold(g, w, report)
    gap, loss_a, loss_b = train_lockstep(g, w, fg, report.targets, steps=1000, lr=0.05, seed=0)
    assert gap <= 1e-9, gap
    assert np.isfinite(loss_a) and np.isfinite(loss_b)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"training took {elapsed:.2f}s"
    _report(4, f"1000 lockstep steps, max paired-weight diff = {gap:.3e} <= 1e-9 ({elapsed:.2f}s)")


def test_criterion_5_flop_tables():
    start = time.monotonic()
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
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(5, "naive (5d,2d,d)/(d,2d,d) and grouped single-pass "
               "(7d,3d+7g,d)/(d,3d,0) exact on the full grid")


def test_criterion_6_centering_families():
    rng = np.random.default_rng(123)
    trials = 100

    cases = {}

    W = rng.uniform(-1, 1, size=(24, 16))
    V = center(W, Family.LINEAR_COLUMNS)
    b = center_bias(rng.uniform(-1, 1, size=24))
    cases["linear"] = (
        Family.LINEAR_COLUMNS, 1, W, V,
        lambda: OPS["Linear"].forward({}, [rng.uniform(-2, 2, size=16)], [V, b])[0].mean(), 24,
    )

    K0 = rng.uniform(-1, 1, size=(6, 3, 3, 3))
    K = center(K0, Family.CONV_OUT_CHANNELS)
    kb = center_bias(rng.uniform(-1, 1, size=6))
    cases["conv"] = (
        Family.CONV_OUT_CHANNELS, 1, K0, K,
        lambda: np.abs(
            OPS["Conv2d"].forward({"stride": 1, "padding": 1}, [rng.uniform(-2, 2, size=(3, 8, 8))], [K, kb])[0]
            .mean(axis=0)
        ).max(), 6,
    )

    Wv0 = rng.uniform(-1, 1, size=(8, 5))
    Wh0 = rng.uniform(-1, 1, size=(8, 8))
    Wv, Wh = center(Wv0, Family.RECURRENT_BOTH), center(Wh0, Family.RECURRENT_BOTH)
    cases["recurrent"] = (
        Family.RECURRENT_BOTH, 1, Wv0, Wv,
        lambda: OPS["RecurrentCell"].forward(
            {}, [rng.uniform(-2, 2, size=5), rng.uniform(-2, 2, size=8)], [Wv, Wh]
        )[0].mean(), 8,
    )

    A0 = rng.uniform(-1, 1, size=(5, 10))
    A = center(A0, Family.ATTENTION_VALUE_ROWS)
    cases["attention_value"] = (
        Family.ATTENTION_VALUE_ROWS, 1, A0, A,
        lambda: np.abs(
            OPS["AttentionValueProjection"].forward({}, [rng.uniform(-2, 2, size=(4, 5))], [A])[0]
            .mean(axis=-1)
        ).max(), 10,
    )

    G0 = rng.uniform(-1, 1, size=(12, 7))
    groups, chunk = 3, 4
    G = center(G0, Family.GROUPED_COLUMNS, groups)
    cases["grouped"] = (
        Family.GROUPED_COLUMNS, groups, G0, G,
        lambda: np.abs(
            OPS["Linear"].forward({}, [rng.uniform(-2, 2, size=7)], [G])[0]
            .reshape(groups, chunk).mean(axis=-1)
        ).max(), chunk,
    )

    for name, (family, grp, raw, centered, output_mean, n) in cases.items():
        twice = center(centered, family, grp)
        assert np.abs(twice - centered).max() <= 4 * EPS_M, name
        assert constraint_residual(centered, family, grp) <= 1e-9, name
        # second matrix of the recurrent pair checked separately
        if family is Family.RECURRENT_BOTH:
            assert constraint_residual(Wh, Family.LINEAR_COLUMNS) <= 1e-9
        worst = max(abs(float(output_mean())) for _ in range(trials))
        assert worst <= 8 * n * EPS_M, (name, worst, 8 * n * EPS_M)

    _report(6, "all five families idempotent, constraint-satisfying at 1e-9, "
               "and zero-mean downstream within 8*n*eps over 100 inputs")


def test_criterion_7_safety_refusal():
    g, w = fixtures.fanout_trap()
    report = detect_foldable(g, w)
    assert not report.safety.safe
    assert set(report.safety.affected) == {"act"}
    with pytest.raises(FoldError):
        apply_fold(g, w, report)
    _report(7, "fan-out trap flagged unsafe (affected: act) and the fold refused")


def test_criterion_8_zero_mean_identity():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-2.0, 2.0, size=(10000, 64))
    # two centering passes drive the residual mean to quantization level
    x -= x.mean(axis=-1, keepdims=True)
    x -= x.mean(axis=-1, keepdims=True)
    eps = 1e-5
    ln = OPS["LayerNorm"].forward({"eps": eps}, [x], [])[0]
    diff = np.abs(ln - OPS["RMSNorm"].forward({"eps": eps}, [x], [])[0]).max()
    assert diff <= 4 * EPS_M, diff
    _report(8, f"10,000 zero-mean vectors: elementwise |LN - RMS| = {diff:.3e} "
               f"<= {4 * EPS_M:.3e}")
