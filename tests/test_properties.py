"""Property-based checks of the algebra the whole rewrite rests on."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import os
import tempfile

from lnfold import fixtures
from lnfold.centering import (
    Family,
    center,
    constraint_residual,
    spec_for_node,
)
from lnfold.fold_apply import FoldError, apply_fold, check_report
from lnfold.fold_detect import (
    FoldEntry,
    build_zero_mean_graph,
    compute_affected_layers,
    detect_foldable,
    graph_with_insertions,
    plan_auxiliary_centering,
)
from lnfold.graph_ir import (
    Graph,
    load_model,
    make_node,
    model_hash,
    save_model,
    validate_graph,
)
from lnfold.jsonutil import plain
from lnfold.ops import OPS
from lnfold.tensor_math import forward
from lnfold.verify import verify_forward, verify_gradients
from sampling import sample_inputs

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
        once = center(W, Family.LINEAR_COLUMNS)
        np.testing.assert_allclose(center(once, Family.LINEAR_COLUMNS), once, atol=4 * EPS_M)

    @given(matrices())
    def test_constraint_satisfied(self, W):
        assert constraint_residual(center(W, Family.LINEAR_COLUMNS), Family.LINEAR_COLUMNS) <= 1e-9

    @given(matrices(max_m=12), st.sampled_from([1, 2, 3]))
    def test_grouped_reduces_to_plain(self, W, groups):
        m = W.shape[0] - W.shape[0] % groups
        if m < groups:
            return
        W = W[:m]
        if groups == 1:
            np.testing.assert_allclose(
                center(W, Family.GROUPED_COLUMNS, 1), center(W, Family.LINEAR_COLUMNS), atol=1e-12
            )
        else:
            if W.shape[0] == groups:
                return  # one-element groups warn and zero the matrix
            centered = center(W, Family.GROUPED_COLUMNS, groups)
            assert constraint_residual(centered, Family.GROUPED_COLUMNS, groups) <= 1e-9


class TestNormalizationAlgebra:
    @given(vectors())
    def test_layer_norm_output_is_zero_mean(self, x):
        # The centering residual is rounding-scale in the input, then gets
        # divided by sqrt(var + eps); near-constant inputs amplify it by
        # 1/sqrt(eps), so the bound carries that factor.
        eps = 1e-5
        y = OPS["LayerNorm"].forward({"eps": eps}, [x], [])[0]
        scale = max(1.0, float(np.abs(x).max())) / np.sqrt(x.var() + eps)
        assert abs(y.mean()) <= 8 * x.shape[0] * EPS_M * scale

    @given(vectors())
    @example(np.where(np.arange(28) == 2, -1.79, 0.0))  # |LN - RMS| = 8 eps here
    def test_rms_equals_ln_on_centered_input(self, x):
        # Normalized outputs reach about sqrt(n), so the rounding bound is in
        # the output's own ulps, not absolute.
        x = x - x.mean()
        x = x - x.mean()
        rms = OPS["RMSNorm"].forward({"eps": 1e-5}, [x], [])[0]
        diff = np.abs(OPS["LayerNorm"].forward({"eps": 1e-5}, [x], [])[0] - rms).max()
        assert diff <= 4 * EPS_M * max(1.0, float(np.abs(rms).max()))

    @given(vectors())
    def test_group_norm_with_one_group_is_layer_norm(self, x):
        np.testing.assert_array_equal(OPS["GroupNorm"].forward({"groups": 1, "eps": 1e-5}, [x], [])[0],
                                      OPS["LayerNorm"].forward({"eps": 1e-5}, [x], [])[0])

    @given(vectors(), st.floats(0.1, 3.0))
    def test_scalar_scale_invariance_of_ln_with_zero_eps(self, x, a):
        if np.ptp(x) < 1e-3:
            return  # stay away from the zero-variance singularity
        np.testing.assert_allclose(
            OPS["LayerNorm"].forward({"eps": 0.0}, [a * x], [])[0],
            OPS["LayerNorm"].forward({"eps": 0.0}, [x], [])[0],
            atol=1e-9,
        )


class TestClassification:
    @settings(max_examples=len(OPS))
    @given(st.sampled_from(sorted(OPS)))
    def test_total_and_single_valued(self, kind):
        # Fold detection reads one role off a kind's declarations: a kind
        # that passes a mean on is never also a leaf, and a leaf with a
        # centering family names the axis that family centers.
        op = OPS[kind]
        if op.passes_mean:
            assert op.family is None and op.centered_axis is None
        if op.family is not None:
            assert op.centered_axis is not None


# What builder_models draws: each pick adds one node, or several in order.
_PREV_LINEAR = "Linear over the previous Linear"
_LAST_TWO = "ResidualAdd of the last two nodes"
_LAST_NODE = "LayerNorm over the last node"
_PICKS = {
    step: [step]
    for step in ("Linear", "ScalarScale", "ResidualAdd", "ReLU", "Concat", "LayerNorm",
                 "Embedding", "AuxiliaryCentering", _PREV_LINEAR, _LAST_TWO)
}
_PICKS["normalized linear pair"] = ["Linear", _PREV_LINEAR, _LAST_TWO, _LAST_NODE]


@st.composite
def builder_models(draw):
    """Valid models built with fixtures._Builder: Linear (with and without
    bias), ScalarScale, ResidualAdd, ReLU, Concat, AuxiliaryCentering and
    LayerNorm nodes over earlier nodes, so outputs fan out, and Embedding
    nodes that read their own integer Input; one or two graph outputs.

    Two biased steps make linear chains that meet again at a residual: a
    Linear over the previous Linear, at its width, and a ResidualAdd of the
    last two nodes. One pick draws a Linear, both steps and a LayerNorm of
    the sum, in a row."""
    b = fixtures._Builder(draw(st.integers(0, 2**16)))
    width = {b.input("x", (4,)): 4}
    linears: list[str] = []
    picks = draw(st.lists(st.sampled_from(sorted(_PICKS)), min_size=1, max_size=8))
    for i, step in enumerate(step for pick in picks for step in _PICKS[pick]):
        nid, ids = f"n{i}", list(width)
        src = draw(st.sampled_from(ids))
        kind = step.split()[0]
        if step == _PREV_LINEAR and linears:
            src = linears[-1]
        elif step in (_LAST_TWO, _LAST_NODE):
            src = ids[-1]
        if kind == "Embedding":
            width[nid] = draw(st.sampled_from([3, 4]))
            b.embedding(nid, b.input(f"tokens{i}", (), integer=True, high=5), 5, width[nid])
        elif kind == "Linear":
            width[nid] = width[src] if step == _PREV_LINEAR else draw(st.sampled_from([3, 4]))
            b.linear(nid, src, width[nid], width[src], bias=draw(st.booleans()))
            linears.append(nid)
        elif kind == "LayerNorm":
            width[nid] = width[src]
            b.layer_norm(nid, src, width[src])
        elif kind == "ResidualAdd":
            if step == _LAST_TWO and len(ids) > 1 and width[ids[-2]] == width[src]:
                other = ids[-2]
            else:
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


def _centered_layer_feeds_centered_layer():
    """l1 and l2 = Linear(l1) are both linear leaves of one LayerNorm's
    zero-mean graph, so centering l1 changes l2's output by a shift that is
    not constant along the last axis."""
    b = fixtures._Builder(0)
    x = b.input("x", (4,))
    l1 = b.linear("l1", x, 4, 4)
    l2 = b.linear("l2", l1, 4, 4)
    b.output(b.layer_norm("ln", b.simple("add", "ResidualAdd", (l1, l2)), 4))
    return b.build()


def _centering_node_feeds_a_relu():
    """aux is a zero-mean leaf of ln's zero-mean graph, but a centering node
    already in the model keeps its output under the fold, so its ReLU
    consumer sees no change."""
    b = fixtures._Builder(0)
    x = b.input("x", (4,))
    aux = b.simple("aux", "AuxiliaryCentering", b.linear("lin", x, 5, 4))
    b.output(b.layer_norm("ln", aux, 5))
    b.output(b.simple("act", "ReLU", aux))
    return b.build()


def _embedding_read_three_times():
    """A practical fold centers after embed and reroutes three edges, two of
    them into the two slots of add."""
    b = fixtures._Builder(0)
    embed = b.embedding("embed", b.input("tokens", (4,), integer=True, high=5), 5, 4)
    b.output(b.layer_norm("ln_a", b.simple("add", "ResidualAdd", (embed, embed)), 4))
    b.output(b.layer_norm("ln_b", embed, 4))
    return b.build()


def splice_one_by_one(g, producers):
    """Reference splice: a centering node after each producer in turn, named
    center_after_<producer> (suffixed _2, _3, ... past taken ids), between
    the producer and all of its consumers. Returns (graph, producer -> id)."""
    ids = {}
    for p in producers:
        base = nid = f"center_after_{p}"
        n = 2
        while nid in g.nodes:
            nid, n = f"{base}_{n}", n + 1
        edges = [(nid if s == p else s, d, slot) for s, d, slot in g.edges] + [(p, nid, 0)]
        outputs = [nid if o == p else o for o in g.outputs]
        g = Graph([*g.nodes.values(), make_node(nid, "AuxiliaryCentering")], edges, g.inputs, outputs)
        ids[p] = nid
    return g, ids


def per_layer_norm_reference(g, w, mode, strict_safety):
    """The report fields a fold reads, from one zero-mean graph and one
    affected-layer walk per LayerNorm, unioned."""
    ln_ids = sorted(nid for nid, node in g.nodes.items() if node.kind == "LayerNorm")
    zmgs = {nid: build_zero_mean_graph(g, nid) for nid in ln_ids}
    entries = [
        FoldEntry(nid, "", frozenset(z.opaque_leaves), frozenset(
            leaf for leaf in z.linear_leaves | z.zero_mean_leaves
            if OPS[g.nodes[leaf].kind].centered_axis != -1
        ))
        for nid, z in zmgs.items()
    ]
    strict = [e.ln_id for e in entries if not e.opaque_leaves and not e.off_axis_leaves]
    producers, rescued = [], set()
    if mode == "practical":
        producers, rescued = plan_auxiliary_centering([e for e in entries if e.ln_id not in strict])

    def affected_on(h, lns, moved=()):
        walks = [compute_affected_layers(h, build_zero_mean_graph(h, nid), moved) for nid in lns]
        return set().union(*(v.affected for v in walks))

    if producers:
        # On the spliced graph the inserted nodes are the moved producers.
        sim, aux_ids = splice_one_by_one(g, producers)
        affected = affected_on(sim, sorted(set(strict) | rescued), aux_ids.values())
        if strict_safety and affected:
            producers, rescued = [], set()
    if not producers:
        affected = affected_on(g, strict)
    foldable = sorted(set(strict) | rescued)
    targets = sorted({leaf for nid in foldable for leaf in zmgs[nid].linear_leaves})
    return {
        "foldable": foldable,
        "targets": [{"node": t, "spec": plain(spec_for_node(g.nodes[t]))} for t in targets],
        "insertions": [
            {"after": p, "node_id": aux_ids[p],
             "edges": [[p, dst, slot] for dst, slot in g.out_edges(p)],
             "rescues": [nid for nid in sorted(rescued) if p in zmgs[nid].opaque_leaves]}
            for p in producers
        ],
        "safety": {"safe": not affected, "affected": sorted(affected)},
    }


class TestFoldSoundness:
    @settings(max_examples=40, deadline=None)
    @given(builder_models(), st.sampled_from(["strict", "practical"]))
    @example(_centered_layer_feeds_centered_layer(), "strict")
    @example(_centering_node_feeds_a_relu(), "strict")
    @example(_centering_node_feeds_a_relu(), "practical")
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
    @given(builder_models(), st.sampled_from(["strict", "practical"]),
           st.randoms(use_true_random=False))
    def test_report_ignores_node_order(self, model, mode, rnd):
        # model_hash covers the node order, so it is the one field that may differ.
        g, w = model
        nodes = list(g.nodes.values())
        rnd.shuffle(nodes)
        shuffled = Graph(nodes, g.edges, g.inputs, g.outputs)
        docs = [detect_foldable(h, w, mode=mode).to_json() for h in (g, shuffled)]
        for doc in docs:
            doc.pop("model_hash")
        assert docs[0] == docs[1]

    @settings(max_examples=200, deadline=None)
    @given(builder_models())
    @example(_centered_layer_feeds_centered_layer())
    def test_report_equals_per_layer_norm_reference(self, model):
        g, w = model
        for mode in ("strict", "practical"):
            for strict_safety in (True, False):
                doc = detect_foldable(g, w, mode=mode, strict_safety=strict_safety).to_json()
                got = {key: doc[key] for key in ("foldable", "targets", "insertions", "safety")}
                want = per_layer_norm_reference(g, w, mode, strict_safety)
                assert got == want, (mode, strict_safety)

    @settings(max_examples=40, deadline=None)
    @given(builder_models(), st.sampled_from(["strict", "practical"]), st.booleans())
    def test_report_must_match_its_plan(self, model, mode, strict_safety):
        # A report passes its own check; without any one of its targets, or
        # with its safety verdict flipped, it no longer folds.
        g, w = model
        report = detect_foldable(g, w, mode=mode, strict_safety=strict_safety)
        check_report(g, report)
        tampered = [replace(report, targets={k: v for k, v in report.targets.items() if k != nid})
                    for nid in report.targets]
        tampered.append(replace(report, safety=replace(report.safety, safe=not report.safety.safe)))
        for bad in tampered:
            with pytest.raises(FoldError):
                apply_fold(g, w, bad, allow_practical=True)

    @settings(max_examples=40, deadline=None)
    @given(builder_models(), st.sampled_from(["strict", "practical"]), st.booleans())
    @example(_embedding_read_three_times(), "practical", True)
    def test_splice_equals_one_by_one_reference(self, model, mode, strict_safety):
        g, w = model
        plan = check_report(g, detect_foldable(g, w, mode=mode, strict_safety=strict_safety))
        spliced = graph_with_insertions(g, plan.insertions)
        reference, ids = splice_one_by_one(g, [ins.after for ins in plan.insertions])
        assert ids == {ins.after: ins.node_id for ins in plan.insertions}
        assert list(spliced.nodes.items()) == list(reference.nodes.items())
        assert spliced.edges == reference.edges
        assert spliced.outputs == reference.outputs


class TestLeadingBatchAxis:
    @settings(max_examples=40, deadline=None)
    @given(builder_models())
    def test_batch_equals_per_sample_forwards(self, model):
        # Not bit for bit: a (3, d) batch turns per-sample matrix-vector
        # products into one matrix product, which may round differently.
        g, w = model
        samples = [sample_inputs(g, np.random.default_rng(seed)) for seed in range(3)]
        batched = forward(g, w, {nid: np.stack([s[nid] for s in samples]) for nid in g.inputs})[0]
        for t, sample in enumerate(samples):
            for y_batch, y in zip(batched, forward(g, w, sample)[0]):
                assert y_batch.shape == (3,) + y.shape
                assert np.all(np.abs(y_batch[t] - y) <= 1e-12 * (1 + np.abs(y)))


class TestTapeFreeForward:
    @settings(max_examples=40, deadline=None)
    @given(builder_models(), st.integers(0, 2**16))
    def test_outputs_equal_the_taped_forward(self, model, seed):
        # Fan-out, two outputs and unread nodes all drop on their own schedule.
        g, w = model
        inputs = sample_inputs(g, np.random.default_rng(seed))
        lean, tape = forward(g, w, inputs, tape=False)
        assert tape is None
        taped = forward(g, w, inputs)[0]
        assert len(lean) == len(taped)
        for a, b in zip(lean, taped):
            np.testing.assert_array_equal(a, b)
