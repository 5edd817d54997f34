"""Tests for the IR: node classification, validation, model file round-trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnfold import fixtures
from lnfold.graph_ir import (
    NODE_KINDS,
    Graph,
    GraphValidationError,
    ModelFormatError,
    NodeClass,
    WeightStore,
    classify_node,
    graphs_equal,
    load_model,
    make_node,
    model_hash,
    save_model,
    stores_equal,
    validate_graph,
)


class TestClassifyNode:
    def test_total_over_all_kinds(self):
        for kind in NODE_KINDS:
            assert isinstance(classify_node(kind), NodeClass)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classify_node("FooNorm")

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("Linear", NodeClass.GENERAL_LINEAR),
            ("Conv2d", NodeClass.GENERAL_LINEAR),
            ("RecurrentCell", NodeClass.GENERAL_LINEAR),
            ("AttentionValueProjection", NodeClass.GENERAL_LINEAR),
            ("ScalarScale", NodeClass.SCALAR),
            ("DropoutInference", NodeClass.SCALAR),
            ("ResidualAdd", NodeClass.RESIDUAL),
            ("AuxiliaryCentering", NodeClass.ZERO_MEAN),
            ("LayerNorm", NodeClass.OPAQUE),
            ("RMSNorm", NodeClass.OPAQUE),
            ("GroupNorm", NodeClass.OPAQUE),
            ("Concat", NodeClass.OPAQUE),
            ("ReLU", NodeClass.OPAQUE),
            ("Softmax", NodeClass.OPAQUE),
            ("Embedding", NodeClass.OPAQUE),
            ("Input", NodeClass.OPAQUE),
            ("Output", NodeClass.OPAQUE),
        ],
    )
    def test_expected_partition(self, kind, cls):
        assert classify_node(kind) is cls


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
            make_node("b", "ResidualAdd", arity=2),
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
            make_node("add", "ResidualAdd", arity=2),
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


class TestModelFiles:
    def test_round_trip_f64(self, tmp_path):
        g, w = fixtures.mlp_classifier()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        g2, w2 = load_model(topo, blob)
        assert graphs_equal(g, g2)
        assert stores_equal(w, w2)

    def test_round_trip_f32(self, tmp_path):
        g, w = fixtures.conv_block()
        w32 = WeightStore({k: v.astype(np.float32) for k, v in w.items()})
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w32, topo, blob)
        _g2, w2 = load_model(topo, blob)
        assert stores_equal(w32, w2)
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
        raw = open(blob, "rb").read()
        open(blob, "wb").write(raw[:-8])
        with pytest.raises(ModelFormatError, match="ln.gamma|ln.beta|lin"):
            load_model(topo, blob)

    def test_unknown_kind(self, tmp_path):
        g, w = fixtures.linear_then_norm()
        topo, blob = str(tmp_path / "m.json"), str(tmp_path / "m.bin")
        save_model(g, w, topo, blob)
        doc = json.load(open(topo))
        doc["nodes"][1]["kind"] = "FooNorm"
        json.dump(doc, open(topo, "w"))
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
        g2 = g.insert_after("embed", make_node("probe", "AuxiliaryCentering"))
        assert g2.successors("embed") == ["probe"]
        assert sorted(g2.successors("probe")) == sorted(consumers)
        # original untouched
        assert "probe" not in g.nodes


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
    out.append(g.insert_after(producer, make_node("spliced", "AuxiliaryCentering")))
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
        nodes.append(make_node(f"n{i}", "ReLU" if k == 1 else "ResidualAdd", arity=k))
        edges.extend((src, f"n{i}", slot) for slot, src in enumerate(srcs))
    edges.append((nodes[-1].id, "out", 0))
    nodes.append(make_node("out", "Output"))
    return Graph(draw(st.permutations(nodes)), draw(st.permutations(edges)), ["x"], ["out"])


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
            [make_node("x", "Input", {"shape": [4]}), make_node("add", "ResidualAdd", arity=2),
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
