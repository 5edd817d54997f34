"""Tests for the IR: node kinds, validation, model file round-trip."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnfold import fixtures
from lnfold.fold_detect import AuxInsertion, graph_with_insertions
from lnfold.graph_ir import (
    Graph,
    GraphValidationError,
    ModelFormatError,
    Node,
    WeightStore,
    graphs_equal,
    load_model,
    make_node,
    model_hash,
    save_model,
    stores_equal,
    validate_graph,
)
from lnfold.ops import OPS, Family


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
        (lambda: _replace_node(fixtures.linear_then_norm(), make_node("x", "Input", {"shape": []})),
         "node 'lin': input 0 has per-sample shape (); Linear needs at least 1 axes"),
    ], ids=["eps_text", "conv_stride_0", "input_shape_text", "integer_input_high_0", "rank_0_into_linear"])
    def test_malformed_attrs_reported_not_raised(self, model, message):
        report = validate_graph(*model())
        assert message in report.violations

    def test_edge_to_unknown_node_reported_not_raised(self):
        g, w = fixtures.linear_then_norm()
        g = Graph(g.nodes, list(g.edges) + [("lin", "ghost", 0)], g.inputs, g.outputs)
        assert "edge references unknown destination 'ghost'" in validate_graph(g, w).violations


def _replace_node(model, node):
    g, w = model
    nodes = [node if n.id == node.id else n for n in g.nodes.values()]
    return Graph(nodes, g.edges, g.inputs, g.outputs), w


def _unary_recurrent_cell():
    """recurrent_then_norm with the hidden-state edge into the cell removed."""
    g, w = fixtures.recurrent_then_norm()
    cell = g.nodes["cell"]
    g = Graph(g.nodes, [e for e in g.edges if e[0] != "h_prev"], g.inputs, g.outputs)
    return _replace_node((g, w), make_node("cell", cell.kind, cell.attrs, cell.param_refs))


class TestWeightStore:
    def test_as_f64_shares_f64_arrays_and_widens_f32(self):
        _g, w = fixtures.linear_then_norm()
        w32 = WeightStore({k: v.astype(np.float32) for k, v in w.items()})
        for name, arr in w.as_f64().items():
            assert np.shares_memory(arr, w[name]), name
        for name, arr in w32.as_f64().items():
            assert arr.dtype == np.float64 and not np.shares_memory(arr, w32[name]), name
            np.testing.assert_array_equal(arr, w32[name])


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
        raw = Path(blob).read_bytes()
        Path(blob).write_bytes(raw[:-8])
        with pytest.raises(ModelFormatError, match="ln.gamma|ln.beta|lin"):
            load_model(topo, blob)

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
