"""Tests for foldability detection, zero-mean graphs, the affected-layer
safety criterion, and the auxiliary-centering planner."""

import numpy as np
import pytest

from lnfold import fixtures, fold_detect
from lnfold.centering import Family
from lnfold.fold_detect import (
    VERDICT_NOT_FOLDABLE,
    VERDICT_PRACTICAL,
    VERDICT_STRICT,
    FoldReport,
    build_zero_mean_graph,
    compute_affected_layers,
    detect_foldable,
)
from lnfold.fold_apply import apply_fold
from lnfold.graph_ir import Graph, GraphValidationError, WeightStore, make_node, validate_graph
from lnfold.jsonutil import canonical_dumps
from lnfold.verify import verify_forward, verify_gradients


class TestDetectStrict:
    def test_post_ln_transformer_all_strict(self):
        g, w = fixtures.post_ln_transformer()
        report = detect_foldable(g, w)
        assert report.foldable == ["ln1", "ln2"]
        assert all(report.entries[nid].verdict == VERDICT_STRICT for nid in report.foldable)
        assert sorted(report.targets) == ["attn_value", "ffn2", "skip1", "skip2"]
        assert build_zero_mean_graph(g, "ln1").linear_leaves == {"attn_value", "skip1"}
        assert build_zero_mean_graph(g, "ln2").linear_leaves == {"ffn2", "skip2"}
        assert report.safety.safe

    def test_target_families(self):
        g, w = fixtures.post_ln_transformer()
        report = detect_foldable(g, w)
        assert report.targets["attn_value"].family is Family.ATTENTION_VALUE_ROWS
        assert report.targets["skip1"].family is Family.LINEAR_COLUMNS
        assert report.targets["skip1"].includes_bias

    def test_recurrent_target(self):
        g, w = fixtures.recurrent_then_norm()
        report = detect_foldable(g, w)
        assert report.foldable == ["ln"]
        assert report.targets["cell"].family is Family.RECURRENT_BOTH

    def test_scale_chain_preserves_state(self):
        g, w = fixtures.scale_chain()
        report = detect_foldable(g, w)
        assert report.foldable == ["ln"]
        assert set(report.targets) == {"lin"}

    def test_relu_blocks(self):
        g, w = fixtures.relu_then_norm()
        report = detect_foldable(g, w)
        assert report.foldable == []
        assert report.entries["ln"].verdict == VERDICT_NOT_FOLDABLE

    def test_concat_blocks(self):
        g, w = fixtures.concat_then_norm()
        report = detect_foldable(g, w)
        assert report.foldable == []

    def test_conv_norm_axis_mismatch_blocks(self):
        g, w = fixtures.conv_then_norm()
        report = detect_foldable(g, w)
        assert report.foldable == []

    def test_pre_ln_strict_none(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w)
        assert report.foldable == []
        assert report.counts()["layer_norms"] == 5

    def test_unvalidated_graph_rejected(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("lin", "Linear", params=["missing.weight"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "out", 0)], ["x"], ["out"])
        with pytest.raises(GraphValidationError):
            detect_foldable(g, WeightStore({}))

    def test_unknown_mode_rejected(self):
        g, w = fixtures.linear_then_norm()
        with pytest.raises(ValueError, match="^mode must be 'strict' or 'practical', got 'lenient'$"):
            detect_foldable(g, w, mode="lenient")

    def test_length_one_axis_warning(self):
        g, w = fixtures.linear_then_norm(out_dim=1, in_dim=3)
        report = detect_foldable(g, w)
        assert report.foldable == ["ln"]
        assert any("length 1" in msg for msg in report.entries["ln"].warnings)


class TestZeroMeanGraph:
    def test_direct_linear_single_leaf(self):
        g, _w = fixtures.linear_then_norm()
        zmg = build_zero_mean_graph(g, "ln")
        assert zmg.vertices == {"lin"}
        assert zmg.linear_leaves == {"lin"}
        assert not zmg.opaque_leaves and not zmg.zero_mean_leaves

    def test_residual_with_scale_branch(self):
        g, _w = fixtures.residual_scale_mix()
        zmg = build_zero_mean_graph(g, "ln")
        assert zmg.linear_leaves == {"lin_a", "lin_b"}
        assert zmg.vertices - zmg.linear_leaves == {"add", "scale"}

    def test_softmax_single_opaque_leaf(self):
        g, _w = fixtures.softmax_then_norm()
        zmg = build_zero_mean_graph(g, "ln")
        assert zmg.opaque_leaves == {"sm"}
        assert not zmg.linear_leaves

    def test_root_not_a_norm_rejected(self):
        g, _w = fixtures.linear_then_norm()
        with pytest.raises(ValueError):
            build_zero_mean_graph(g, "lin")

    def test_terminates_and_visits_once(self):
        g, _w = fixtures.pre_ln_transformer()
        zmg = build_zero_mean_graph(g, "ln_final")
        assert len(zmg.vertices) == len(set(zmg.vertices))
        # the embedding is the only opaque leaf anywhere upstream
        assert zmg.opaque_leaves == {"embed"}

    def test_verdict_agrees_with_leaf_partition(self):
        for name, builder in fixtures.ALL_FIXTURES.items():
            g, w = builder()
            report = detect_foldable(g, w)
            for ln_id, entry in report.entries.items():
                zmg = build_zero_mean_graph(g, ln_id)
                conv = {leaf for leaf in zmg.linear_leaves if g.nodes[leaf].kind == "Conv2d"}
                leaves_allow = not zmg.opaque_leaves and not conv
                assert (entry.verdict == VERDICT_STRICT) == leaves_allow, (name, ln_id)
                assert entry.opaque_leaves == zmg.opaque_leaves, (name, ln_id)
                assert entry.off_axis_leaves == conv, (name, ln_id)

    def test_union_of_roots(self):
        g, _w = fixtures.post_ln_transformer()
        both = build_zero_mean_graph(g, "ln1", "ln2")
        one, two = build_zero_mean_graph(g, "ln1"), build_zero_mean_graph(g, "ln2")
        assert both.roots == ("ln1", "ln2")
        for part in ("vertices", "linear_leaves", "zero_mean_leaves", "opaque_leaves"):
            assert getattr(both, part) == getattr(one, part) | getattr(two, part)
        assert not build_zero_mean_graph(g).vertices


class TestSafety:
    def test_single_consumer_safe(self):
        g, _w = fixtures.linear_then_norm()
        verdict = compute_affected_layers(g, build_zero_mean_graph(g, "ln"))
        assert verdict.safe and not verdict.affected

    def test_fanout_trap_unsafe(self):
        g, w = fixtures.fanout_trap()
        report = detect_foldable(g, w)
        assert report.foldable == ["ln"]
        assert not report.safety.safe
        assert set(report.safety.affected) == {"act"}

    def test_transformer_fixtures_safe(self):
        for builder in (fixtures.post_ln_transformer, fixtures.mlp_classifier):
            g, w = builder()
            assert detect_foldable(g, w).safety.safe

    def test_exposed_target_output_unsafe(self):
        # the centered layer's raw activation is itself a declared output
        b = fixtures._Builder(0)
        x = b.input("x", (4,))
        lin = b.linear("lin", x, 6, 4)
        ln = b.layer_norm("ln", lin, 6)
        b.output(ln)
        b.outputs.append(lin)  # expose the pre-norm activation directly
        g, w = b.build()
        report = detect_foldable(g, w)
        assert not report.safety.safe
        assert "lin" in report.safety.affected

    def test_centered_layer_feeding_centered_layer_unsafe(self):
        # l1 and l2 = Linear(l1) are both targets of ln: centering l1 moves
        # l2's output by a shift that is not constant along the last axis.
        b = fixtures._Builder(0)
        x = b.input("x", (4,))
        l1 = b.linear("l1", x, 4, 4)
        l2 = b.linear("l2", l1, 4, 4)
        b.output(b.layer_norm("ln", b.simple("add", "ResidualAdd", (l1, l2)), 4))
        g, w = b.build()
        report = detect_foldable(g, w)
        assert report.foldable == ["ln"] and sorted(report.targets) == ["l1", "l2"]
        assert not report.safety.safe
        assert set(report.safety.affected) == {"l2"}

    def _consumer_graph(self, kind):
        b = fixtures._Builder(2)
        x = b.input("x", (4,))
        lin = b.linear("lin", x, 5, 4)
        b.output(b.layer_norm("ln", lin, 5))
        b.output(b.simple("consumer", kind, lin))
        return b.build()

    def test_auxiliary_centering_absorbs_the_shift(self):
        g, w = self._consumer_graph("AuxiliaryCentering")
        report = detect_foldable(g, w)
        assert report.foldable == ["ln"] and report.safety.safe
        fg, fw = apply_fold(g, w, report)
        assert verify_forward(g, w, fg, fw, trials=5).passed

    def test_softmax_absorbs_the_shift(self):
        g, w = self._consumer_graph("Softmax")
        report = detect_foldable(g, w, mode="strict")
        assert report.foldable == ["ln"] and list(report.targets) == ["lin"]
        assert report.safety.safe and not report.safety.affected
        fg, fw = apply_fold(g, w, report)
        assert verify_forward(g, w, fg, fw, trials=20).passed
        assert verify_gradients(g, w, fg, fw, trials=20).passed

    def test_centering_node_in_the_model_does_not_move(self):
        # aux is a zero-mean leaf of ln's zero-mean graph, but folding ln
        # centers nothing, so aux's ReLU consumer reads the same values.
        b = fixtures._Builder(0)
        x = b.input("x", (4,))
        aux = b.simple("aux", "AuxiliaryCentering", b.linear("lin", x, 5, 4))
        b.output(b.layer_norm("ln", aux, 5))
        b.output(b.simple("act", "ReLU", aux))
        g, w = b.build()
        for mode in ("strict", "practical"):
            report = detect_foldable(g, w, mode=mode)
            assert report.foldable == ["ln"] and not report.targets
            assert report.safety.safe and not report.safety.affected

    def test_centered_producer_moves_its_consumers(self):
        # Seeded with a producer, the walk flags what the inserted centering
        # node would feed, on the model graph itself.
        g, w = TestPractical()._shared_leaf_graph(with_relu_consumer=True)
        zmg = build_zero_mean_graph(g, "ln1", "ln2")
        assert compute_affected_layers(g, zmg).safe
        assert set(compute_affected_layers(g, zmg, ["emb"]).affected) == {"act"}

    def test_rms_norm_does_not_absorb_the_shift(self):
        g, w = self._consumer_graph("RMSNorm")
        report = detect_foldable(g, w)
        assert set(report.safety.affected) == {"consumer"}


class TestPractical:
    def test_pre_ln_rescued_by_one_insertion(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        assert len(report.foldable) == 5
        assert len(report.insertions) == 1
        ins = report.insertions[0]
        assert ins.after == "embed"
        assert len(ins.rescues) == 5
        assert all(report.entries[nid].verdict == VERDICT_PRACTICAL for nid in report.foldable)
        assert report.safety.safe
        # the rescued LayerNorms' linear leaves are still centering targets
        assert sorted(report.targets) == [
            "attn_value_0", "attn_value_1", "ffn2_0", "ffn2_1",
        ]

    def test_single_rescue_rejected_by_margin(self):
        g, w = fixtures.softmax_then_norm()
        report = detect_foldable(g, w, mode="practical")
        assert report.foldable == []
        assert report.insertions == []

    def test_no_opaque_leaves_empty_plan(self):
        g, w = fixtures.post_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        assert report.insertions == []
        assert report.foldable == ["ln1", "ln2"]

    def test_practical_superset_of_strict(self):
        for name, builder in fixtures.ALL_FIXTURES.items():
            g, w = builder()
            strict = set(detect_foldable(g, w, mode="strict").foldable)
            practical = set(detect_foldable(g, w, mode="practical").foldable)
            assert strict <= practical, name

    def test_concat_not_rescued(self):
        g, w = fixtures.concat_then_norm()
        report = detect_foldable(g, w, mode="practical")
        assert report.foldable == []

    def _shared_leaf_graph(self, with_relu_consumer=False):
        b = fixtures._Builder(0)
        tok = b.input("tokens", (3,), integer=True, high=7)
        emb = b.embedding("emb", tok, 7, 6)
        ln1 = b.layer_norm("ln1", emb, 6)
        sc = b.simple("sc", "ScalarScale", emb, {"scale": 0.5})
        ln2 = b.layer_norm("ln2", sc, 6)
        b.output(ln1)
        b.output(ln2)
        if with_relu_consumer:
            act = b.simple("act", "ReLU", emb)
            b.output(act)
        return b.build()

    def test_shared_leaf_rescues_two_norms(self):
        # one insertion, two rescues: margin +1, accepted
        g, w = self._shared_leaf_graph()
        report = detect_foldable(g, w, mode="practical")
        assert sorted(report.foldable) == ["ln1", "ln2"]
        assert len(report.insertions) == 1
        assert report.insertions[0].after == "emb"
        assert report.safety.safe

    def test_plan_dropped_when_insertion_is_unsafe(self):
        # the inserted centering would also perturb a ReLU consumer
        g, w = self._shared_leaf_graph(with_relu_consumer=True)
        report = detect_foldable(g, w, mode="practical")
        assert report.foldable == []
        assert report.insertions == []

    def test_unsafe_plan_kept_when_safety_disabled(self):
        g, w = self._shared_leaf_graph(with_relu_consumer=True)
        report = detect_foldable(g, w, mode="practical", strict_safety=False)
        assert sorted(report.foldable) == ["ln1", "ln2"]
        assert len(report.insertions) == 1
        assert not report.safety.safe
        assert "act" in report.safety.affected


class TestDeterminism:
    def test_identical_reports_across_runs(self):
        g, w = fixtures.pre_ln_transformer()
        a = canonical_dumps(detect_foldable(g, w, mode="practical").to_json())
        b = canonical_dumps(detect_foldable(g, w, mode="practical").to_json())
        assert a == b

    def test_node_order_does_not_matter(self):
        g, w = fixtures.post_ln_transformer()
        base = detect_foldable(g, w)
        rng = np.random.default_rng(9)
        nodes = list(g.nodes.values())
        for _ in range(5):
            rng.shuffle(nodes)
            shuffled = Graph(nodes, g.edges, g.inputs, g.outputs)
            report = detect_foldable(shuffled, w)
            assert report.foldable == base.foldable
            assert sorted(report.targets) == sorted(base.targets)
            assert report.safety.safe == base.safety.safe

    def test_report_json_round_trip(self):
        g, w = fixtures.pre_ln_transformer()
        report = detect_foldable(g, w, mode="practical")
        doc = report.to_json()
        back = FoldReport.from_json(doc)
        assert canonical_dumps(back.to_json()) == canonical_dumps(doc)


class TestResidualRule:
    def test_all_branches_required(self):
        # centered + centered -> centered; centered + opaque -> not
        b = fixtures._Builder(0)
        x = b.input("x", (4,))
        lin_a = b.linear("lin_a", x, 6, 4)
        act = b.simple("act", "ReLU", x)
        lin_b = b.linear("lin_b", act, 6, 4)
        good = b.simple("good", "ResidualAdd", (lin_a, lin_b))
        ln_good = b.layer_norm("ln_good", good, 6)
        bad = b.simple("bad", "ResidualAdd", (lin_a, act))
        # pad the ReLU branch to width 6 is impossible; reuse width-4 inputs
        b.nodes = [n for n in b.nodes if n.id not in ("bad",)]
        b.edges = [e for e in b.edges if e[1] != "bad"]
        b.output(ln_good)
        g, w = b.build()
        report = detect_foldable(g, w)
        assert report.foldable == ["ln_good"]
        assert build_zero_mean_graph(g, "ln_good").linear_leaves == {"lin_a", "lin_b"}

    def test_uncentered_branch_blocks(self):
        b = fixtures._Builder(1)
        x = b.input("x", (6,))
        lin_a = b.linear("lin_a", x, 6, 6)
        act = b.simple("act", "ReLU", x)
        add = b.simple("add", "ResidualAdd", (lin_a, act))
        ln = b.layer_norm("ln", add, 6)
        b.output(ln)
        g, w = b.build()
        report = detect_foldable(g, w)
        assert report.entries["ln"].verdict == VERDICT_NOT_FOLDABLE


class TestWorkDone:
    @pytest.mark.parametrize("blocks", [1, 2, 5])
    @pytest.mark.parametrize("strict_safety", [True, False])
    def test_each_safety_verdict_built_once(self, monkeypatch, blocks, strict_safety):
        # Practical mode rescues all 2B+1 LayerNorms with one insertion. The
        # zero-mean walks and the affected-layer check do not multiply with
        # depth: one union walk over all LayerNorms, one over the foldable
        # set on the spliced graph, and one safety walk.
        g, w = fixtures.pre_ln_transformer(blocks=blocks)
        calls = _count_walks(monkeypatch)
        report = detect_foldable(g, w, mode="practical", strict_safety=strict_safety)
        assert len(report.foldable) == 2 * blocks + 1 and len(report.insertions) == 1
        assert calls == {"zmg": 2, "safety": 1}

    @pytest.mark.parametrize("blocks", [1, 2, 5])
    def test_strict_detection_walks_twice(self, monkeypatch, blocks):
        g, w = fixtures.pre_ln_transformer(blocks=blocks)
        calls = _count_walks(monkeypatch)
        detect_foldable(g, w, mode="strict")
        assert calls == {"zmg": 2, "safety": 1}

    def test_no_insertion_walks_twice(self, monkeypatch):
        g, w = fixtures.post_ln_transformer()
        calls = _count_walks(monkeypatch)
        report = detect_foldable(g, w, mode="practical")
        assert report.foldable == ["ln1", "ln2"] and not report.insertions
        assert calls == {"zmg": 2, "safety": 1}

    def test_dropped_plan_walks_three_times(self, monkeypatch):
        g, w = TestPractical()._shared_leaf_graph(with_relu_consumer=True)
        calls = _count_walks(monkeypatch)
        report = detect_foldable(g, w, mode="practical")
        assert not report.insertions
        assert calls == {"zmg": 3, "safety": 2}

    @pytest.mark.parametrize("blocks", [1, 2, 5])
    def test_planner_splices_only_the_kept_plan(self, monkeypatch, blocks):
        # Candidates are scored on the zero-mean graphs, and the kept plan's
        # safety is walked on the model graph itself: detection never splices.
        calls = []
        original = fold_detect.graph_with_insertions
        monkeypatch.setattr(fold_detect, "graph_with_insertions",
                            lambda g, insertions: calls.append(list(insertions)) or original(g, insertions))
        g, w = fixtures.pre_ln_transformer(blocks=blocks)
        report = detect_foldable(g, w, mode="practical")
        assert [ins.after for ins in report.insertions] == ["embed"]
        assert calls == []

    @pytest.mark.parametrize("mode", ["strict", "practical"])
    def test_shapes_inferred_once(self, monkeypatch, mode):
        # Validation's shapes serve the length-one-axis warning too.
        from lnfold import graph_ir
        calls = []
        for module in (graph_ir, fold_detect):
            original = module.infer_shapes
            monkeypatch.setattr(module, "infer_shapes",
                                lambda *args, _f=original: calls.append(1) or _f(*args))
        g, w = fixtures.pre_ln_transformer(blocks=2)
        detect_foldable(g, w, mode=mode)
        assert len(calls) == 1

    def test_leaves_gathered_once(self, monkeypatch):
        # Every candidate plan reuses the leaves detection already gathered.
        calls = []
        original = fold_detect._reachable_leaves
        monkeypatch.setattr(fold_detect, "_reachable_leaves", lambda *args: calls.append(1) or original(*args))
        g, w = TestPractical()._shared_leaf_graph(with_relu_consumer=True)
        detect_foldable(g, w, mode="practical")
        assert len(calls) == 1

    def test_two_hundred_blocks(self):
        # 1,604 nodes: deeper than the interpreter's recursion limit allows
        # a recursive cycle search to go.
        g, w = fixtures.pre_ln_transformer(d=4, hidden=8, seq=2, blocks=200)
        assert len(g.nodes) == 1604 and validate_graph(g, w).ok
        report = detect_foldable(g, w, mode="practical")
        assert len(report.foldable) == 401 and len(report.insertions) == 1
        assert report.safety.safe


def _count_walks(monkeypatch):
    """Count zero-mean-graph builds and affected-layer walks in fold_detect."""
    calls = {"zmg": 0, "safety": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fold_detect, "build_zero_mean_graph",
                        counted("zmg", fold_detect.build_zero_mean_graph))
    monkeypatch.setattr(fold_detect, "compute_affected_layers",
                        counted("safety", fold_detect.compute_affected_layers))
    return calls
