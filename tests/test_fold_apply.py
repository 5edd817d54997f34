"""Tests for applying fold reports: graph surgery, weight centering,
refusals, and exact forward equivalence of the rewritten model."""

import numpy as np
import pytest

from lnfold import fixtures
from lnfold.centering import Family, constraint_residual
from lnfold.fold_apply import FoldError, apply_fold, dry_run
from lnfold.fold_detect import detect_foldable
from lnfold.graph_ir import WeightStore, validate_graph
from lnfold.verify import verify_forward
from lnfold.tensor_math import forward
from sampling import sample_inputs


class TestApplyStrict:
    def test_linear_then_norm(self):
        g, w = fixtures.linear_then_norm()
        report = detect_foldable(g, w)
        fg, fw = apply_fold(g, w, report)
        assert fg.nodes["ln"].kind == "RMSNorm"
        assert constraint_residual(fw["lin.weight"], Family.LINEAR_COLUMNS) <= 1e-12
        assert abs(fw["lin.bias"].sum()) <= 1e-12
        rep = verify_forward(g, w, fg, fw, trials=50, seed=0, tol=1e-12)
        assert rep.passed, rep.max_abs_forward_diff

    def test_untouched_weights_bit_identical(self):
        g, w = fixtures.post_ln_transformer()
        report = detect_foldable(g, w)
        _fg, fw = apply_fold(g, w, report)
        touched = set()
        for nid in report.targets:
            touched.update(g.nodes[nid].param_refs)
        for name in w.names():
            if name not in touched:
                assert fw[name] is w[name] or np.array_equal(fw[name], w[name])

    def test_parameter_names_and_shapes_preserved(self):
        g, w = fixtures.post_ln_transformer()
        report = detect_foldable(g, w)
        fg, fw = apply_fold(g, w, report)
        assert set(fw.names()) == set(w.names())
        for name in w.names():
            assert fw[name].shape == w[name].shape
            assert fw[name].dtype == w[name].dtype
        assert validate_graph(fg, fw).ok

    def test_eps_and_affine_copied_verbatim(self):
        g, w = fixtures.linear_then_norm()
        report = detect_foldable(g, w)
        fg, fw = apply_fold(g, w, report)
        assert fg.nodes["ln"].attrs["eps"] == g.nodes["ln"].attrs["eps"]
        assert fg.nodes["ln"].param_refs == g.nodes["ln"].param_refs
        np.testing.assert_array_equal(fw["ln.gamma"], w["ln.gamma"])
        np.testing.assert_array_equal(fw["ln.beta"], w["ln.beta"])

    def test_provenance_recorded(self):
        g, w = fixtures.linear_then_norm()
        report = detect_foldable(g, w)
        fg, _fw = apply_fold(g, w, report)
        assert fg.provenance == {"folded_from": report.model_hash, "mode": "strict"}


class TestApplyEdgeCases:
    def test_empty_report_returns_model_unchanged(self):
        g, w = fixtures.relu_then_norm()
        report = detect_foldable(g, w)
        assert report.foldable == []
        fg, fw = apply_fold(g, w, report)
        assert fg is g and fw is w

    def test_idempotent(self):
        g, w = fixtures.post_ln_transformer()
        fg, fw = apply_fold(g, w, detect_foldable(g, w))
        report2 = detect_foldable(fg, fw)
        assert report2.foldable == []
        fg2, fw2 = apply_fold(fg, fw, report2)
        assert fg2 is fg and fw2 is fw

    def test_hash_mismatch_refused(self):
        g, w = fixtures.linear_then_norm()
        report = detect_foldable(g, w)
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["lin.weight"][0, 0] += 0.25
        with pytest.raises(FoldError, match="hash"):
            apply_fold(g, WeightStore(arrays), report)

    def test_unsafe_refused_under_strict_safety(self):
        g, w = fixtures.fanout_trap()
        report = detect_foldable(g, w)
        with pytest.raises(FoldError, match="refused"):
            apply_fold(g, w, report)

    def test_report_analyzed_without_safety_applies(self):
        # the analyze-time opt-out travels inside the report
        g, w = fixtures.fanout_trap()
        report = detect_foldable(g, w, strict_safety=False)
        fg, _fw = apply_fold(g, w, report)
        assert fg.nodes["ln"].kind == "RMSNorm"

    def test_practical_requires_flag(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        with pytest.raises(FoldError, match="allow_practical"):
            apply_fold(g, w, report)


class TestApplyPractical:
    def test_pre_ln_full_rewrite(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        fg, fw = apply_fold(g, w, report, allow_practical=True)
        aux = [n for n in fg.nodes.values() if n.kind == "AuxiliaryCentering"]
        assert len(aux) == 1
        assert fg.predecessors(aux[0].id) == ["embed"]
        assert not any(n.kind == "LayerNorm" for n in fg.nodes.values())
        assert sum(1 for n in fg.nodes.values() if n.kind == "RMSNorm") == 5
        rep = verify_forward(g, w, fg, fw, trials=50, seed=0, tol=1e-9)
        assert rep.passed, rep.max_abs_forward_diff

    def test_parameter_count_preserved_plus_zero_param_nodes(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        fg, fw = apply_fold(g, w, report, allow_practical=True)
        assert set(fw.names()) == set(w.names())
        assert len(fg.nodes) == len(g.nodes) + 1


class TestDryRun:
    def test_post_ln_diff(self):
        g, w = fixtures.post_ln_transformer()
        report = detect_foldable(g, w)
        text = dry_run(g, report)
        lines = text.splitlines()
        assert sum("-> RMSNorm" in ln for ln in lines) == 2
        assert sum(ln.startswith("center weights") for ln in lines) == 4
        assert "attn_value" in text

    def test_no_changes(self):
        g, w = fixtures.relu_then_norm()
        assert dry_run(g, detect_foldable(g, w)) == "no changes"

    def test_insertions_listed_with_edges(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        text = dry_run(g, report)
        assert "insert AuxiliaryCentering" in text
        assert "embed->" in text


class TestStrictSoundness:
    def test_folded_norm_inputs_are_zero_mean(self):
        # the property everything rests on: after centering the targets,
        # every folded norm's input has zero last-axis mean for all inputs
        from lnfold.verify import check_zero_mean
        from lnfold.graph_ir import infer_shapes

        eps_m = float(np.finfo(np.float64).eps)
        for name, builder in fixtures.STRICT_FOLDABLE_FIXTURES.items():
            g, w = builder()
            report = detect_foldable(g, w)
            fg, fw = apply_fold(g, w, report)
            shapes = infer_shapes(fg, fw)
            for ln_id in report.foldable:
                feeder = fg.predecessors(ln_id)[0]
                n = shapes[feeder][-1]
                worst = check_zero_mean(fg, fw, feeder, trials=100, seed=0)
                assert worst <= 8 * n * eps_m, (name, ln_id, worst)

    def test_folded_practical_gradients_match_oracle(self):
        # the rewritten graph (including the spliced centering node) must
        # itself have exact gradients
        from lnfold.tensor_math import backward, forward
        from oracles import finite_difference_grad

        g, w = fixtures.pre_ln_transformer(blocks=1)
        report = detect_foldable(g, w, mode="practical")
        fg, fw = apply_fold(g, w, report, allow_practical=True)
        rng = np.random.default_rng(6)
        inp = sample_inputs(fg, rng)
        outs, tape = forward(fg, fw.as_f64(), inp)
        grads = backward(tape, [np.ones_like(o) for o in outs])
        fd = finite_difference_grad(fg, fw, inp, "sum", h=1e-6)
        for pname in fw.names():
            analytic = grads.get(pname, np.zeros_like(fw[pname]))
            rel = np.abs(analytic - fd.params[pname]).max() / max(
                np.abs(fd.params[pname]).max(), 1e-12
            )
            assert rel <= 1e-5, pname


class TestNaiveSwapCounterexample:
    def test_swap_without_centering_differs(self):
        # replacing LN by RMS with no weight centering must change outputs
        g, w = fixtures.linear_then_norm()
        swapped = g.with_kinds({"ln": "RMSNorm"})
        rng = np.random.default_rng(0)
        inp = sample_inputs(g, rng)
        a, _ = forward(g, w, inp)
        b, _ = forward(swapped, w, inp)
        assert np.abs(a[0] - b[0]).max() > 1e-3
