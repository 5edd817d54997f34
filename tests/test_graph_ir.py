"""Tests for the IR: node kinds, validation, model file round-trip."""

import copy
import hashlib
import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnfold import cli, fixtures, graph_ir
from lnfold.fold_apply import apply_fold
from lnfold.fold_detect import AuxInsertion, detect_foldable, graph_with_insertions
from lnfold.graph_ir import (
    DTYPE_TAGS,
    TAG_BY_DTYPE,
    Graph,
    GraphValidationError,
    ModelFormatError,
    Node,
    WeightStore,
    load_model,
    make_node,
    model_hash,
    require_valid,
    save_model,
    validate_graph,
)
from lnfold.jsonutil import canonical_dumps
from lnfold.ops import OPS, Family
from test_properties import builder_models


# What fold detection reads of each kind: (passes_mean, family, centered_axis).
# A family makes a general-linear leaf, a centered_axis alone a zero-mean leaf.
DECLARED_ROLES = {
    "Linear": (False, Family.LINEAR_COLUMNS, -1),
    "Conv2d": (False, Family.CONV_OUT_CHANNELS, -3),
    "RecurrentCell": (False, Family.RECURRENT_BOTH, -1),
    "AttentionValueProjection": (False, Family.ATTENTION_VALUE_ROWS, -1),
    "ScalarScale": (True, None, None),
    "DropoutInference": (True, None, None),
    "ResidualAdd": (True, None, None),
    "AuxiliaryCentering": (False, None, -1),
    "LayerNorm": (False, None, None),
    "RMSNorm": (False, None, None),
    "GroupNorm": (False, None, None),
    "Concat": (False, None, None),
    "ReLU": (False, None, None),
    "Softmax": (False, None, None),
    "Embedding": (False, None, None),
    "Input": (False, None, None),
    "Output": (False, None, None),
}


class TestClassifyNode:
    @pytest.mark.parametrize("build, node", [
        (lambda: make_node("n", "FooNorm"), "n"),
        (lambda: Node("n", "FooNorm"), "n"),
        (lambda: fixtures.linear_then_norm()[0].with_kinds({"ln": "FooNorm"}), "ln"),
    ], ids=["make_node", "node", "with_kinds"])
    def test_a_node_refuses_an_unknown_kind(self, build, node):
        with pytest.raises(ValueError, match=f"unknown node kind 'FooNorm' on node '{node}'"):
            build()

    @pytest.mark.parametrize("kind", list(DECLARED_ROLES))
    def test_expected_partition(self, kind):
        op = OPS[kind]
        assert (op.passes_mean, op.family, op.centered_axis) == DECLARED_ROLES[kind]


class TestValidation:
    def test_valid_chain(self):
        g, w = fixtures.linear_then_norm()
        report = validate_graph(g, w)
        assert report.ok and not report.violations

    def test_every_fixture_validates(self):
        for name, builder in fixtures.ALL_FIXTURES.items():
            g, w = builder()
            report = validate_graph(g, w)
            assert report.ok, (name, report.violations)

    def test_cycle_reported(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("a", "ScalarScale", {"scale": 1.0}),
            make_node("b", "ResidualAdd"),
            make_node("out", "Output"),
        ]
        edges = [("x", "b", 0), ("a", "b", 1), ("b", "a", 0), ("b", "out", 0)]
        report = validate_graph(Graph(nodes, edges, ["x"], ["out"]), WeightStore({}))
        assert not report.ok
        assert any("cycle through ids" in v for v in report.violations)

    def test_linear_shape_mismatch(self):
        nodes = [
            make_node("x", "Input", {"shape": [3]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "out", 0)], ["x"], ["out"])
        w = WeightStore({"lin.weight": np.zeros((4, 2))})  # expects width 2, gets 3
        report = validate_graph(g, w)
        assert not report.ok
        assert any("disagrees with incoming width" in v for v in report.violations)

    def test_missing_parameter(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("lin", "Linear", params=["lin.weight"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "lin", 0), ("lin", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({}))
        assert any("not in weight store" in v for v in report.violations)

    def test_parameter_sharing_rejected(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("a", "Linear", params=["shared"]),
            make_node("b", "Linear", params=["shared"]),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "a", 0), ("a", "b", 0), ("b", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({"shared": np.zeros((2, 2))}))
        assert any("sharing is unsupported" in v for v in report.violations)

    def test_training_dropout_rejected(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("drop", "DropoutInference", {"scale": 2.0, "mode": "training"}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "drop", 0), ("drop", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({}))
        assert any("training-mode dropout" in v for v in report.violations)

    def test_arity_violation(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("add", "ResidualAdd"),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "add", 0), ("add", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({}))
        assert any("incoming edges" in v for v in report.violations)

    def test_negative_eps_rejected(self):
        nodes = [
            make_node("x", "Input", {"shape": [2]}),
            make_node("ln", "LayerNorm", {"eps": -1.0}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "ln", 0), ("ln", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({}))
        assert any("eps" in v for v in report.violations)

    def test_group_norm_divisibility(self):
        nodes = [
            make_node("x", "Input", {"shape": [5]}),
            make_node("gn", "GroupNorm", {"groups": 2}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "gn", 0), ("gn", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({}))
        assert any("must divide" in v for v in report.violations)

    @pytest.mark.parametrize("axis, ok", [(0, False), (1, False), (-2, True)])
    def test_group_norm_axis_counts_from_the_back(self, axis, ok):
        # Leading batch axes would shift an axis counted from the front.
        nodes = [
            make_node("x", "Input", {"shape": [4, 6]}),
            make_node("gn", "GroupNorm", {"groups": 2, "axis": axis}),
            make_node("out", "Output"),
        ]
        g = Graph(nodes, [("x", "gn", 0), ("gn", "out", 0)], ["x"], ["out"])
        report = validate_graph(g, WeightStore({}))
        assert report.ok == ok
        assert ok or report.violations == [f"node 'gn': axis {axis} must be negative"]

    @pytest.mark.parametrize("build, message", [
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("lin", "Linear")),
         "Linear takes 1..2 params, got 0"),
        (lambda: _unary_recurrent_cell(), "RecurrentCell arity must be 2, got 1"),
    ], ids=["linear_without_params", "unary_recurrent_cell"])
    def test_short_layout_reported_not_raised(self, build, message):
        report = validate_graph(*build())
        assert not report.ok
        assert any(message in v for v in report.violations)

    @pytest.mark.parametrize("shape", [(6, 6), (3,)])
    def test_recurrent_bias_shape_checked(self, shape):
        g, w = fixtures.recurrent_then_norm()
        arrays = {k: v for k, v in w.items() if k != "cell.bias"}
        arrays["cell.bias"] = np.zeros(shape)
        report = validate_graph(g, WeightStore(arrays))
        assert f"node 'cell': bias shape {shape} != (6,)" in report.violations

    @pytest.mark.parametrize("model, message", [
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("ln", "LayerNorm", {"eps": "x"})),
         "node 'ln': attr 'eps' must be a number, got 'x'"),
        (lambda: _replace_node(fixtures.conv_block(), make_node(
            "conv", "Conv2d", {"stride": 0}, ["conv.kernel", "conv.bias"])),
         "node 'conv': stride must be >= 1"),
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("x", "Input", {"shape": "6"})),
         "node 'x': Input shape must be a list of non-negative integers, got '6'"),
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node(
            "x", "Input", {"shape": [6], "integer": True, "high": 0})),
         "node 'x': attr 'high' must be >= 1 on an integer Input, got 0"),
        # A truthy string would turn a float input into a {0, 1} index stream.
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node(
            "x", "Input", {"shape": [6], "integer": "false"})),
         "node 'x': attr 'integer' must be a boolean, got 'false'"),
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("x", "Input", {"shape": []})),
         "node 'lin': input 0 has per-sample shape (); Linear needs at least 1 axes"),
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("x", "Input", {"shape": [2**63, 0]})),
         "node 'x': Input shape must have entries and an element count within int64, got [9223372036854775808, 0]"),
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("x", "Input", {"shape": [2**62, 2]})),
         "node 'x': Input shape must have entries and an element count within int64, got [4611686018427387904, 2]"),
        (lambda: _one_node("Conv2d", [(2, 4, 4)], [(4, 2, 3)]), "node 'n': kernel must be 4-D, got shape (4, 2, 3)"),
        (lambda: _one_node("Conv2d", [(3, 4, 4)], [(4, 2, 3, 3)]), "node 'n': kernel expects 2 input channels, got 3"),
        (lambda: _one_node("Conv2d", [(2, 2, 2)], [(4, 2, 3, 3)]), "node 'n': kernel 3x3 does not fit input 2x2"),
        (lambda: _one_node("AttentionValueProjection", [(4,)], [(4, 4, 1)]),
         "node 'n': value weight must be 2-D, got shape (4, 4, 1)"),
        (lambda: _one_node("AttentionValueProjection", [(5,)], [(4, 4)]), "node 'n': incoming width 5 != 4"),
        (lambda: _one_node("LayerNorm", [(4,)], attrs={"normalized_axis_length": 5}),
         "node 'n': normalized_axis_length 5 != incoming width 4"),
        (lambda: _one_node("LayerNorm", [(4,)], [(3,)]), "node 'n': gamma shape (3,) != (4,)"),
        (lambda: _one_node("GroupNorm", [(4,)], attrs={"axis": -5}), "node 'n': axis -5 out of range for shape (4,)"),
        (lambda: _one_node("ScalarScale", [(4,)]), "node 'n': ScalarScale requires a 'scale' attr"),
        (lambda: _one_node("ResidualAdd", [(4,), (5,)]), "node 'n': branch shapes differ: [(4,), (5,)]"),
        (lambda: _one_node("Concat", [(4,), (4,)], attrs={"axis": 0}), "node 'n': only last-axis concat is supported"),
        (lambda: _one_node("Concat", [(2, 4), (3, 4)]),
         "node 'n': concat operands disagree off the last axis: [(2, 4), (3, 4)]"),
        (lambda: _one_node("Embedding", [(3,)], [(4,)], input_attrs={"integer": True}),
         "node 'n': embedding table must be 2-D, got shape (4,)"),
        (lambda: _with_structure(fixtures.linear_then_norm(), edges=[("x", "lin", -1)]),
         "edge ('x', 'lin') has negative slot -1"),
        (lambda: _with_structure(fixtures.linear_then_norm(), inputs=["x", "lin"]),
         "declared input 'lin' is a Linear, not an Input node"),
        (lambda: _with_structure(fixtures.linear_then_norm(), inputs=[]),
         "Input node 'x' missing from the graph inputs list"),
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("x", "Input")),
         "node 'x': Input node missing 'shape' attr"),
        # Trials would draw the one Input twice, the second draw overwriting the first.
        (lambda: _with_structure(fixtures.linear_then_norm(), inputs=["x", "x"]),
         "declared input 'x' is listed twice"),
    ], ids=["eps_text", "conv_stride_0", "input_shape_text", "integer_input_high_0",
            "integer_input_text", "rank_0_into_linear", "input_shape_entry_past_int64",
            "input_shape_count_past_int64", "conv_kernel_3d", "conv_channels", "conv_kernel_too_big",
            "value_weight_3d", "value_width", "normalized_axis_length", "gamma_shape", "group_norm_axis",
            "scalar_scale_without_scale", "residual_branch_shapes", "concat_axis_0", "concat_off_last_axis",
            "embedding_table_1d", "negative_edge_slot", "declared_input_not_an_input",
            "input_missing_from_inputs", "input_without_shape", "input_listed_twice"])
    def test_malformed_attrs_reported_not_raised(self, model, message):
        report = validate_graph(*model())
        assert message in report.violations

    @pytest.mark.parametrize("value, ok", [
        (2**63 - 1, True), (-2**63, True), (2**63, False), (-2**63 - 1, False), (1e19, False),
    ], ids=["int64_max", "int64_min", "past_max", "past_min", "whole_float_past_max"])
    def test_int_attrs_stay_in_int64(self, value, ok):
        # The bound lives in the base check, so every kind's int attrs get it.
        assert OPS["Concat"].check_attrs({"axis": value}) == (
            [] if ok else [f"attr 'axis' must lie in the int64 range, got {value!r}"])

    def test_edge_to_unknown_node_reported_not_raised(self):
        g, w = fixtures.linear_then_norm()
        g = Graph(g.nodes, list(g.edges) + [("lin", "ghost", 0)], g.inputs, g.outputs)
        assert "edge references unknown destination 'ghost'" in validate_graph(g, w).violations


def _replace_node(model, node):
    g, w = model
    nodes = [node if n.id == node.id else n for n in g.nodes.values()]
    return Graph(nodes, g.edges, g.inputs, g.outputs), w


def _with_structure(model, edges=(), inputs=None):
    """model with edges added and, when given, its inputs list replaced."""
    g, w = model
    return Graph(g.nodes, list(g.edges) + list(edges), g.inputs if inputs is None else inputs, g.outputs), w


def _unary_recurrent_cell():
    """recurrent_then_norm with the hidden-state edge into the cell removed."""
    g, w = fixtures.recurrent_then_norm()
    cell = g.nodes["cell"]
    g = Graph(g.nodes, [e for e in g.edges if e[0] != "h_prev"], g.inputs, g.outputs)
    return _replace_node((g, w), make_node("cell", cell.kind, cell.attrs, cell.param_refs))


def _one_node(kind, shapes, params=(), attrs=None, input_attrs=None):
    """Inputs x0, x1, ... of the given per-sample shapes feeding node 'n' of
    kind, whose parameters are zero arrays of the given shapes, into an Output."""
    inputs = [make_node(f"x{i}", "Input", {"shape": list(shape), **(input_attrs or {})})
              for i, shape in enumerate(shapes)]
    refs = [f"n.p{i}" for i in range(len(params))]
    nodes = inputs + [make_node("n", kind, attrs, refs), make_node("out", "Output")]
    edges = [(x.id, "n", slot) for slot, x in enumerate(inputs)] + [("n", "out", 0)]
    g = Graph(nodes, edges, [x.id for x in inputs], ["out"])
    return g, WeightStore({ref: np.zeros(shape) for ref, shape in zip(refs, params)})


class TestWeightStore:
    def test_arrays_cannot_be_added_after_construction(self):
        _g, w = fixtures.linear_then_norm()
        names = w.names()
        with pytest.raises(AttributeError):
            w.add("extra", np.zeros(3))
        assert w.names() == names and "extra" not in w

    def test_integer_arrays_are_refused(self):
        with pytest.raises(ValueError, match="^parameter 'p' must be f32 or f64, got int32$"):
            WeightStore({"p": np.zeros(3, np.int32)})

    def test_as_f64_shares_f64_arrays_and_widens_f32(self):
        _g, w = fixtures.linear_then_norm()
        w32 = WeightStore({k: v.astype(np.float32) for k, v in w.items()})
        for name, arr in w.as_f64().items():
            assert np.shares_memory(arr, w[name]), name
        for name, arr in w32.as_f64().items():
            assert arr.dtype == np.float64 and not np.shares_memory(arr, w32[name]), name
            np.testing.assert_array_equal(arr, w32[name])


class TestRequireValid:
    @pytest.fixture()
    def validated(self, monkeypatch):
        calls = []
        original = graph_ir.validate_graph
        monkeypatch.setattr(graph_ir, "validate_graph", lambda g, w: calls.append(g) or original(g, w))
        return calls

    def test_a_pair_is_validated_once(self, validated):
        g, w = fixtures.post_ln_transformer()
        shapes = require_valid(g, w)
        assert require_valid(g, w) is shapes
        assert shapes == validate_graph(g, w).shapes
        assert len(validated) == 1

    def test_another_store_is_validated_again(self, validated):
        g, w = fixtures.post_ln_transformer()
        require_valid(g, w)
        require_valid(g, WeightStore(dict(w.items())))
        require_valid(g.with_provenance({"note": 1}), w)
        assert len(validated) == 3

    def test_a_failure_is_not_remembered(self, validated):
        g, w = fixtures.linear_then_norm()
        bad = Graph(g.nodes, list(g.edges) + [("lin", "ghost", 0)], g.inputs, g.outputs)
        for _ in range(2):
            with pytest.raises(GraphValidationError, match="unknown destination 'ghost'"):
                require_valid(bad, w)
        assert len(validated) == 2


def _reference_topology(g, w):
    """The topology text as canonical_dumps writes it from plain values,
    every part of the document walked in Python."""
    manifest, offset = [], 0
    for name in sorted(w.names()):
        arr = w[name]
        manifest.append({"name": name, "dtype": TAG_BY_DTYPE[arr.dtype], "shape": list(arr.shape),
                         "offset": offset, "byte_len": arr.nbytes})
        offset += arr.nbytes
    doc = {
        "format_version": 1,
        "nodes": [{"id": n.id, "kind": n.kind, "attrs": dict(n.attrs), "params": list(n.param_refs)}
                  for n in g.nodes.values()],
        "edges": [[s, d, slot] for (s, d, slot) in g.edges],
        "inputs": list(g.inputs),
        "outputs": list(g.outputs),
        "weights_manifest": manifest,
    }
    if g.provenance:
        doc["provenance"] = dict(g.provenance)
    return canonical_dumps(doc)


def _assert_topology_matches_reference(g, w, tmp_path):
    topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
    save_model(g, w, topo, blob)
    text = Path(topo).read_text(encoding="utf-8")
    reference = _reference_topology(g, w)
    assert text == reference + "\n"
    assert canonical_dumps(json.loads(text)) == reference
    digest = hashlib.sha256(reference.encode("utf-8") + b"\x00" + Path(blob).read_bytes())
    assert model_hash(g, w) == digest.hexdigest()


def _odd_strings_model():
    """A Linear and a LayerNorm whose ids and parameter names hold non-ASCII
    text, quotes, backslashes and control characters."""
    x, lin, ln, out = "x\u00e9\u2603", 'lin "a"\\b', "ln\n\t\x00\x1f\x7f\u2028", "out/\u00fc"
    weight, bias = "w\\\"\r\u0001\u00e5", "b\u4e2d\U0001f600"
    nodes = [
        make_node(x, "Input", {"shape": [3]}),
        make_node(lin, "Linear", {}, [weight, bias]),
        make_node(ln, "LayerNorm", {"eps": 1e-5, "note\u00e9\"\\": "\x02\u00e9"}),
        make_node(out, "Output"),
    ]
    g = Graph(nodes, [(x, lin, 0), (lin, ln, 0), (ln, out, 0)], [x], [out],
              {"folded_from": "\u00e9\"\\\x03", "mode": "strict"})
    w = WeightStore({weight: np.arange(6.0).reshape(2, 3), bias: np.ones(2, np.float32)})
    return g, w


class TestTopologyWriter:
    """save_model and model_hash write the topology that canonical_dumps
    writes from the same document of plain values, byte for byte."""

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_fixtures(self, name, tmp_path):
        g, w = fixtures.ALL_FIXTURES[name]()
        _assert_topology_matches_reference(g, w, tmp_path)
        w32 = WeightStore({k: v.astype(np.float32) for k, v in w.items()})
        _assert_topology_matches_reference(g, w32, tmp_path)

    @pytest.mark.parametrize("name, mode", [("post_ln_transformer", "strict"),
                                            ("pre_ln_transformer", "practical")])
    def test_folded_model_with_provenance(self, name, mode, tmp_path):
        g, w = fixtures.ALL_FIXTURES[name]()
        folded_g, folded_w = apply_fold(g, w, detect_foldable(g, w, mode=mode), allow_practical=True)
        assert folded_g.provenance
        _assert_topology_matches_reference(folded_g, folded_w, tmp_path)

    def test_escaped_strings(self, tmp_path):
        g, w = _odd_strings_model()
        _assert_topology_matches_reference(g, w, tmp_path)
        g2, _w2 = load_model(str(tmp_path / "m.json"), str(tmp_path / "m.bin"))
        assert _structure(g2) == _structure(g)

    @settings(max_examples=40, deadline=None)
    @given(builder_models())
    def test_builder_models(self, tmp_path_factory, model):
        _assert_topology_matches_reference(*model, tmp_path_factory.mktemp("writer"))


def _relu_chain(attrs_list):
    """An Input and a chain of ReLU nodes, the i-th holding attrs_list[i]."""
    ids = [f"r{i}" for i in range(len(attrs_list))]
    nodes = [make_node("x", "Input", {"shape": [3]})] + [make_node(nid, "ReLU", attrs)
                                                         for nid, attrs in zip(ids, attrs_list)]
    return Graph(nodes, list(zip(["x"] + ids, ids, [0] * len(ids))), ["x"], ids[-1:])


class TestAttrsText:
    # Pairs of attrs that canonical_dumps writes differently, some of whose
    # repr agree (an ndarray's repr rounds to 8 digits, and under numpy 1.x
    # np.float32(1e-5) prints as 1e-05), so no node may reuse another's text.
    @pytest.mark.parametrize("first, second", [
        ({"eps": 1}, {"eps": 1.0}), ({"eps": 1.0}, {"eps": True}), ({"eps": 0.0}, {"eps": -0.0}),
        ({"k": [3]}, {"k": [3.0]}),
        ({"w": np.array([0.1234567891])}, {"w": np.array([0.12345678901])}),
        ({"eps": np.float32(1e-5)}, {"eps": 1e-5}),
    ], ids=["int_float", "float_bool", "signed_zero", "int_list", "near_equal_arrays", "float32"])
    def test_each_node_writes_its_own_attrs(self, first, second, tmp_path):
        assert canonical_dumps(first) != canonical_dumps(second)
        g = _relu_chain([first, second, first, {}, second])
        _assert_topology_matches_reference(g, WeightStore(), tmp_path)
        assert model_hash(g, WeightStore()) != model_hash(_relu_chain([first, first, first, {}, second]),
                                                          WeightStore())

    @pytest.mark.parametrize("attrs_list, error, message", [
        ([{"1": "a"}, {1: "a"}], TypeError, "JSON object keys must be strings, got 1"),
        ([{"eps": 1.0}, {"eps": float("nan")}], ValueError, "non-finite float nan cannot be serialized"),
    ], ids=["integer_key", "nan"])
    def test_refusals_are_not_hidden_by_a_written_twin(self, attrs_list, error, message, tmp_path):
        g = _relu_chain(attrs_list)
        with pytest.raises(error, match=f"^{message}$"):
            model_hash(g, WeightStore())
        with pytest.raises(error, match=f"^{message}$"):
            save_model(g, WeightStore(), str(tmp_path / "m.json"), str(tmp_path / "m.bin"))


def _structure(g):
    """A graph's nodes (a frozen Node compares kind, attrs and params),
    edges, inputs and outputs, each in order; provenance is left out."""
    return list(g.nodes.items()), g.edges, g.inputs, g.outputs


def _arrays(w):
    """Each parameter's dtype, shape and bytes, by name."""
    return {name: (arr.dtype, arr.shape, arr.tobytes()) for name, arr in w.items()}


class TestCanonicalDumps:
    @pytest.mark.parametrize("obj, error, message", [
        ({"eps": float("nan")}, ValueError, "non-finite float nan cannot be serialized"),
        ({1: "one"}, TypeError, "JSON object keys must be strings, got 1"),
        ([object()], TypeError, "cannot serialize object"),
    ], ids=["nan", "integer_key", "object"])
    def test_refuses_what_json_cannot_hold(self, obj, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            canonical_dumps(obj)


class TestModelFiles:
    def test_round_trip_f64(self, tmp_path):
        g, w = fixtures.mlp_classifier()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        g2, w2 = load_model(topo, blob)
        assert _structure(g2) == _structure(g)
        assert _arrays(w2) == _arrays(w)

    def test_round_trip_f32(self, tmp_path):
        g, w = fixtures.conv_block()
        w32 = WeightStore({k: v.astype(np.float32) for k, v in w.items()})
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w32, topo, blob)
        _g2, w2 = load_model(topo, blob)
        assert _arrays(w2) == _arrays(w32)
        assert all(v.dtype == np.float32 for _k, v in w2.items())

    def test_round_trip_preserves_hash(self, tmp_path):
        g, w = fixtures.post_ln_transformer()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        g2, w2 = load_model(topo, blob)
        assert model_hash(g, w) == model_hash(g2, w2)

    def test_truncated_blob_names_parameter(self, tmp_path):
        g, w = fixtures.linear_then_norm()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        raw = Path(blob).read_bytes()
        Path(blob).write_bytes(raw[:-8])
        with pytest.raises(ModelFormatError, match="ln.gamma|ln.beta|lin"):
            load_model(topo, blob)

    def test_overlong_blob_is_refused(self, tmp_path):
        g, w = fixtures.linear_then_norm()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        Path(blob).write_bytes(Path(blob).read_bytes() + bytes(8))
        with pytest.raises(ModelFormatError, match=r"^weights blob length 584 does not match manifest extent 576$"):
            load_model(topo, blob)

    def test_byte_len_of_part_values_is_refused(self, tmp_path):
        g, w = fixtures.linear_then_norm()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        doc = json.loads(Path(topo).read_text())
        last = doc["weights_manifest"][-1]
        last["byte_len"] += 1
        Path(topo).write_text(json.dumps(doc))
        Path(blob).write_bytes(Path(blob).read_bytes() + b"\x00")
        with pytest.raises(ModelFormatError, match=f"parameter '{last['name']}': byte_len .* whole number"):
            load_model(topo, blob)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_weights_from_a_fifo(self, tmp_path):
        # A pipe reports no size; its bytes are read to the end.
        g, w = fixtures.post_ln_transformer()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        fifo = str(tmp_path / "weights.fifo")
        os.mkfifo(fifo)
        writer = threading.Thread(target=Path(fifo).write_bytes, args=(Path(blob).read_bytes(),))
        writer.start()
        try:
            _g2, from_fifo = load_model(topo, fifo)
        finally:
            # A loader that never opened the FIFO leaves the writer waiting
            # for a reader: be one until it is done (the bytes fit the pipe).
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join()
            os.close(reader)
        assert _arrays(from_fifo) == _arrays(load_model(topo, blob)[1])

    def test_a_file_shorter_than_its_size_is_refused(self, tmp_path, monkeypatch):
        g, w = fixtures.linear_then_norm()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        real_fstat = os.fstat

        def fstat(fd):  # the file is said to hold 8 bytes more than it yields
            fields = list(real_fstat(fd))
            fields[6] += 8  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(graph_ir.os, "fstat", fstat)
        with pytest.raises(ModelFormatError, match=r"^weights file yielded 576 of its 584 bytes$"):
            load_model(topo, blob)
        assert cli.main(["analyze", topo, blob]) == 1

    def test_loaded_arrays_are_aligned_writable_and_separate(self, tmp_path):
        # An odd-length f32 array sorts first, so the f64 arrays after it sit
        # at offsets that are not a multiple of 8.
        g = Graph([make_node("x", "Input", {"shape": [3]}), make_node("out", "Output")],
                  [("x", "out", 0)], ["x"], ["out"])
        rng = np.random.default_rng(7)
        w = WeightStore({"a": rng.standard_normal(3).astype(np.float32),
                         "b": rng.standard_normal((2, 3)), "c": rng.standard_normal(5),
                         "d": rng.standard_normal(4).astype(np.float32), "e": np.zeros((0, 3))})
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        manifest = json.loads(Path(topo).read_text())["weights_manifest"]
        assert [m["offset"] % 8 for m in manifest[1:3]] == [4, 4]
        _g2, w2 = load_model(topo, blob)
        assert _arrays(w2) == _arrays(w)
        for entry in manifest:
            arr = w2[entry["name"]]
            assert arr.dtype == DTYPE_TAGS[entry["dtype"]], entry
            assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous, entry
        loaded = [arr for _name, arr in w2.items()]
        assert not any(np.shares_memory(p, q) for i, p in enumerate(loaded) for q in loaded[i + 1:])

    def test_load_holds_the_weights_once(self, tmp_path):
        g, w = fixtures.pre_ln_transformer(d=128, hidden=512, seq=2, blocks=2)
        weight_bytes = sum(arr.nbytes for _name, arr in w.items())
        assert weight_bytes >= 2e6
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        tracemalloc.start()
        try:
            _g2, w2 = load_model(topo, blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _arrays(w2) == _arrays(w)
        assert peak < 1.5 * weight_bytes

    def test_unknown_kind(self, tmp_path):
        g, w = fixtures.linear_then_norm()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        doc = json.loads(Path(topo).read_text())
        doc["nodes"][1]["kind"] = "FooNorm"
        Path(topo).write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="FooNorm"):
            load_model(topo, blob)

    def test_parse_error_has_position(self, tmp_path):
        topo = tmp_path / "bad.json"
        topo.write_text('{"format_version": 1,,}')
        with pytest.raises(ModelFormatError, match="line 1"):
            load_model(str(topo), str(topo))

    def test_hash_tracks_weights(self):
        g, w = fixtures.linear_then_norm()
        arrays = {k: v.copy() for k, v in w.items()}
        arrays["lin.weight"][0, 0] += 1e-9
        assert model_hash(g, w) != model_hash(g, WeightStore(arrays))


class TestGraphOps:
    def test_topo_order_covers_graph(self):
        g, _w = fixtures.post_ln_transformer()
        order = g.topo_order()
        assert len(order) == len(g.nodes)
        seen = set()
        for nid in order:
            for src in g.predecessors(nid):
                assert src in seen
            seen.add(nid)

    def test_insert_after_rewires_all_consumers(self):
        g, _w = fixtures.pre_ln_transformer()
        consumers = g.successors("embed")
        g2 = _splice(g, "embed", "probe")
        assert g2.successors("embed") == ["probe"]
        assert sorted(g2.successors("probe")) == sorted(consumers)
        # original untouched
        assert "probe" not in g.nodes


def _splice(g, producer, node_id):
    """g with a centering node node_id spliced between producer and all of
    its consumers."""
    edges = tuple((producer, dst, slot) for dst, slot in g.out_edges(producer))
    return graph_with_insertions(g, [AuxInsertion(producer, node_id, edges, ())])


# Reference adjacency: scan the whole edge list on every call.


def _scan_in_edges(g, nid):
    return sorted([(s, slot) for (s, d, slot) in g.edges if d == nid], key=lambda e: e[1])


def _scan_out_edges(g, nid):
    return [(d, slot) for (s, d, slot) in g.edges if s == nid]


def _scan_successors(g, nid):
    seen = []
    for d, _slot in _scan_out_edges(g, nid):
        if d not in seen:
            seen.append(d)
    return seen


def _scan_topo_order(g):
    indeg = {nid: 0 for nid in g.nodes}
    for _s, d, _slot in g.edges:
        if d in indeg:
            indeg[d] += 1
    ready = [nid for nid in g.nodes if indeg[nid] == 0]
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for dst in _scan_successors(g, nid):
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if len(order) != len(g.nodes):
        raise GraphValidationError("cycle")
    return order


def _assert_adjacency_matches_scan(g):
    for nid in list(g.nodes) + ["no_such_node"]:
        assert g.in_edges(nid) == _scan_in_edges(g, nid)
        assert g.out_edges(nid) == _scan_out_edges(g, nid)
        assert g.predecessors(nid) == [s for s, _slot in _scan_in_edges(g, nid)]
        assert g.successors(nid) == _scan_successors(g, nid)
    assert g.topo_order() == _scan_topo_order(g)


def _rewrites(g):
    """g, g with a centering node spliced after its first producer, and g
    with every LayerNorm (or else every ReLU) swapped in one rebuild."""
    out = [g]
    producer = next(nid for nid in g.topo_order() if g.successors(nid))
    out.append(_splice(g, producer, "spliced"))
    swaps = {nid: "RMSNorm" for nid, n in g.nodes.items() if n.kind == "LayerNorm"}
    swaps = swaps or {nid: "DropoutInference" for nid, n in g.nodes.items() if n.kind == "ReLU"}
    out.append(g.with_kinds(swaps))
    return out


@st.composite
def random_dags(draw):
    """Valid DAGs of ReLU and ResidualAdd nodes with fan-out, with node and
    edge lists in random order."""
    nodes = [make_node("x", "Input", {"shape": [4]})]
    edges = []
    for i in range(draw(st.integers(1, 14))):
        earlier = [n.id for n in nodes]
        k = min(draw(st.sampled_from([1, 1, 2, 3])), len(earlier))
        srcs = draw(st.lists(st.sampled_from(earlier), min_size=k, max_size=k, unique=True))
        nodes.append(make_node(f"n{i}", "ReLU" if k == 1 else "ResidualAdd"))
        edges.extend((src, f"n{i}", slot) for slot, src in enumerate(srcs))
    edges.append((nodes[-1].id, "out", 0))
    nodes.append(make_node("out", "Output"))
    return Graph(draw(st.permutations(nodes)), draw(st.permutations(edges)), ["x"], ["out"])


@st.composite
def dags_with_back_edge(draw):
    """A random DAG plus one edge from a node back to itself or to one of its
    ancestors, which closes at least one cycle."""
    g = draw(random_dags())
    ancestors = {}
    for nid in g.topo_order():
        ancestors[nid] = {nid}.union(*(ancestors[s] for s in g.predecessors(nid)))
    tail = draw(st.sampled_from(sorted(ancestors)))
    head = draw(st.sampled_from(sorted(ancestors[tail])))
    edges = list(g.edges) + [(tail, head, len(g.in_edges(head)))]
    return Graph(g.nodes, draw(st.permutations(edges)), g.inputs, g.outputs)


class TestKahnPass:
    @settings(max_examples=200, deadline=None)
    @given(dags_with_back_edge())
    def test_find_cycle_returns_a_real_cycle(self, g):
        cycle = g.find_cycle()
        pairs = {(s, d) for s, d, _slot in g.edges}
        assert cycle and len(cycle) >= 2 and cycle[0] == cycle[-1]
        assert all((a, b) in pairs for a, b in zip(cycle, cycle[1:]))
        with pytest.raises(GraphValidationError, match="cycle"):
            g.topo_order()
        assert "cycle through ids " + " -> ".join(cycle) in validate_graph(g, WeightStore()).violations

    def test_edge_from_unknown_id_is_no_cycle(self):
        base, w = fixtures.linear_then_norm()
        g = Graph(base.nodes, list(base.edges) + [("ghost", "lin", 1)], base.inputs, base.outputs)
        assert g.topo_order() == base.topo_order()
        assert g.find_cycle() is None
        report = validate_graph(g, w)
        assert "edge references unknown source 'ghost'" in report.violations
        assert not any("cycle" in v for v in report.violations)
        assert report.shapes["lin"] is None and report.shapes["x"] == (6,)

    def test_deep_model_validates_and_long_ring_is_found(self):
        g, w = fixtures.pre_ln_transformer(d=4, hidden=8, seq=2, blocks=200)
        assert validate_graph(g, w).ok and g.find_cycle() is None
        # A ring longer than the interpreter's recursion limit.
        ids = [f"r{i}" for i in range(3000)]
        ring = Graph([make_node(i, "ReLU") for i in ids],
                     [(a, b, 0) for a, b in zip(ids, ids[1:] + ids[:1])], [], [])
        cycle = ring.find_cycle()
        assert len(cycle) == 3001 and cycle[0] == cycle[-1] and set(cycle) == set(ids)

    def test_arity_is_the_incoming_edge_count(self):
        nodes = [make_node("x", "Input", {"shape": [2]}), make_node("add", "ResidualAdd"),
                 make_node("out", "Output")]
        three = Graph(nodes, [("x", "add", 0), ("x", "add", 1), ("x", "add", 2), ("add", "out", 0)],
                      ["x"], ["out"])
        assert validate_graph(three, WeightStore()).ok
        into_input = Graph(nodes, list(three.edges) + [("add", "x", 0)], ["x"], ["out"])
        assert "node 'x': Input arity must be 0, got 1 incoming edges" in \
            validate_graph(into_input, WeightStore()).violations

    def test_each_output_dies_once_after_its_last_reader(self):
        # x feeds add on two slots and dies with it; a is a graph output that
        # r also reads, so it never dies; r and the unread u die where they run.
        nodes = [make_node("x", "Input", {"shape": [2]}), make_node("add", "ResidualAdd"),
                 make_node("a", "ReLU"), make_node("r", "ReLU"), make_node("u", "ReLU"),
                 make_node("out", "Output")]
        edges = [("x", "add", 0), ("x", "add", 1), ("add", "a", 0), ("a", "r", 0),
                 ("add", "u", 0), ("r", "out", 0)]
        g = Graph(nodes, edges, ["x"], ["a", "out"])
        assert g.topo_order() == ["x", "add", "a", "u", "r", "out"]
        assert g.dead_after() == {"x": (), "add": ("x",), "a": (), "u": ("add", "u"),
                                  "r": (), "out": ("r",)}


class TestAdjacencyIndex:
    @settings(max_examples=150, deadline=None)
    @given(random_dags())
    def test_random_dags_match_edge_scan(self, g):
        assert validate_graph(g, WeightStore()).ok
        for rewritten in _rewrites(g):
            _assert_adjacency_matches_scan(rewritten)

    @pytest.mark.parametrize("name", sorted(fixtures.ALL_FIXTURES))
    def test_fixtures_match_edge_scan(self, name):
        g, _w = fixtures.ALL_FIXTURES[name]()
        for rewritten in _rewrites(g):
            _assert_adjacency_matches_scan(rewritten)

    def test_repeated_source(self):
        g = Graph(
            [make_node("x", "Input", {"shape": [4]}), make_node("add", "ResidualAdd"),
             make_node("out", "Output")],
            [("x", "add", 1), ("x", "add", 0), ("add", "out", 0)],
            ["x"], ["out"],
        )
        assert g.in_edges("add") == [("x", 0), ("x", 1)]
        assert g.out_edges("x") == [("add", 1), ("add", 0)]
        assert g.predecessors("add") == ["x", "x"]
        assert g.successors("x") == ["add"]
        assert g.topo_order() == ["x", "add", "out"]

    def test_edges_are_immutable(self):
        g, _w = fixtures.linear_then_norm()
        assert isinstance(g.edges, tuple)

    def test_with_kinds_swaps_only_named_nodes(self):
        g, _w = fixtures.post_ln_transformer()
        g2 = g.with_kinds({"ln1": "RMSNorm", "ln2": "RMSNorm"})
        assert [n.kind for n in g2.nodes.values()] == [
            "RMSNorm" if nid in ("ln1", "ln2") else n.kind for nid, n in g.nodes.items()
        ]
        assert g.nodes["ln1"].kind == "LayerNorm"
        with pytest.raises(KeyError):
            g.with_kinds({"nope": "RMSNorm"})


# ---------------------------------------------------------------------------
# Topology fuzz: every document loads cleanly or is refused cleanly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_fixtures(tmp_path_factory):
    """name -> (topology document, weights path) for every fixture."""
    root = tmp_path_factory.mktemp("fuzz")
    saved = {}
    for name, builder in fixtures.ALL_FIXTURES.items():
        topo, blob = str(root / f"{name}.json"), str(root / f"{name}.bin")
        save_model(*builder(), topo, blob)
        with open(topo, encoding="utf-8") as fh:
            saved[name] = (json.load(fh), blob)
    return saved


def _slots(value):
    """Every (container, key) pair inside a JSON document, depth first."""
    keys = value.keys() if isinstance(value, dict) else range(len(value))
    for key in list(keys):
        yield value, key
        if isinstance(value[key], (dict, list)):
            yield from _slots(value[key])


_RETYPED = st.sampled_from([None, True, 0, -3, 2.5, float("nan"), float("inf"), "x", [], {},
                           [1, "a"], {"k": 1}])


@st.composite
def topology_mutations(draw, names):
    """(fixture name, edit): one to three edits that drop a key or list item,
    retype a value, empty a list or object, or duplicate a list item (an edge
    twice changes its destination's arity)."""
    name = draw(st.sampled_from(names))
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        edits.append((draw(st.integers(0, 10**6)),
                      draw(st.sampled_from(["drop", "retype", "empty", "duplicate"])),
                      draw(_RETYPED)))
    return name, edits


def _apply_edits(doc, edits):
    for pick, op, value in edits:
        slots = list(_slots(doc))
        if not slots:
            return doc
        container, key = slots[pick % len(slots)]
        old = container[key]
        if op == "drop":
            del container[key]
        elif op == "retype" or op == "empty" and not isinstance(old, (dict, list)):
            container[key] = copy.deepcopy(value)
        elif op == "empty":
            container[key] = type(old)()
        elif isinstance(container, list):
            container.append(copy.deepcopy(old))
    return doc


class TestTopologyFuzz:
    @settings(max_examples=300, deadline=None)
    @given(topology_mutations(sorted(fixtures.ALL_FIXTURES)))
    def test_loads_and_validates_or_is_refused(self, saved_fixtures, tmp_path_factory, mutation):
        name, edits = mutation
        doc, blob = saved_fixtures[name]
        topo = tmp_path_factory.getbasetemp() / "fuzzed.json"
        topo.write_text(json.dumps(_apply_edits(copy.deepcopy(doc), edits)))
        try:
            g, w = load_model(str(topo), blob)
        except ModelFormatError:
            return
        model_hash(g, w)
        report = validate_graph(g, w)
        assert report.ok == (not report.violations)
