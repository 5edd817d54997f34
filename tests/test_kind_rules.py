"""Every rule a node kind declares, checked against the kind's own code.

Fold detection reads only a kind's declarations about a per-sample mean
(OpDef.passes_mean, removes_mean, family with centered_axis, and
centered_axis alone), so each case runs one kind's forward on random f64
inputs with a leading sample axis and checks each rule the kind states.
Each kind also declares its attrs once, in attr_types: the kind reads no
other attr, and the declared type and default are the ones it enforces.
Every kernel takes the same arguments, so a kind evaluates one way only.
"""

import inspect
from collections.abc import Mapping
from types import SimpleNamespace

import numpy as np
import pytest

from lnfold.centering import center_node_params
from lnfold.graph_ir import Node, make_node
from lnfold.ops import OPS, OpDef
from test_verify import ONE_OP_GRAPHS

SAMPLES = 4
TOL = 1e-12

# The kinds without parameters: attrs and per-sample input shapes, one per slot.
PARAMETER_FREE = {
    "GroupNorm": ({"groups": 2, "axis": -1}, [(3, 6)]),
    "ScalarScale": ({"scale": -1.5}, [(3, 5)]),
    "DropoutInference": ({"scale": 1.25}, [(3, 5)]),
    "ResidualAdd": ({}, [(3, 5), (3, 5), (3, 5)]),
    "Concat": ({}, [(3, 4), (3, 2)]),
    "ReLU": ({}, [(3, 5)]),
    "Softmax": ({}, [(3, 5)]),
    "AuxiliaryCentering": ({}, [(3, 5)]),
    "Output": ({}, [(3, 5)]),
}


def _cases():
    """kind -> (node, the attrs of the Input feeding each slot, parameter arrays)."""
    cases = {}
    for kind, (g, w) in ONE_OP_GRAPHS.items():
        cases[kind] = (g.nodes["op"], [g.nodes[src].attrs for src in g.predecessors("op")], dict(w.items()))
    for kind, (attrs, shapes) in PARAMETER_FREE.items():
        cases[kind] = (make_node("op", kind, attrs), [{"shape": list(s)} for s in shapes], {})
    return cases


CASES = _cases()


def _draw(rng, sources):
    source = OPS["Input"]
    return [rng.integers(0, source.attr(a, "high"), size=(SAMPLES, *a["shape"]))
            if source.attr(a, "integer") else rng.normal(size=(SAMPLES, *a["shape"])) for a in sources]


def _last_axis_shift(rng, xs):
    """Each input plus a random per-sample constant along its last axis."""
    return [x + rng.normal(size=x.shape[:-1] + (1,)) for x in xs]


def test_every_kind_but_input_has_a_case():
    # An Input is bound to a caller's array and has no kernel to check.
    assert set(CASES) == set(OPS) - {"Input"}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_declared_rules_hold(kind):
    node, sources, arrays = CASES[kind]
    op = OPS[kind]
    assert op.check_attrs(node.attrs) == []
    rng = np.random.default_rng(0)
    xs = _draw(rng, sources)

    def run(inputs, store=arrays):
        return op.forward(node.attrs, inputs, [store[ref] for ref in node.param_refs])[0]

    out = run(xs)
    assert np.all(np.isfinite(out))
    if op.passes_mean:
        zero_mean = [x - x.mean(axis=-1, keepdims=True) for x in xs]
        assert np.abs(run(zero_mean).mean(axis=-1)).max() <= TOL
        moved = run(_last_axis_shift(rng, xs)) - out
        assert np.ptp(moved, axis=-1).max() <= TOL
    if op.removes_mean:
        assert np.abs(run(_last_axis_shift(rng, xs)) - out).max() <= TOL
    if op.family is not None:
        centered = run(xs, {**arrays, **center_node_params(node, arrays)})
        assert np.abs(centered.mean(axis=op.centered_axis)).max() <= TOL
    elif op.centered_axis is not None:
        assert np.abs(out.mean(axis=op.centered_axis)).max() <= TOL


@pytest.mark.parametrize("kind", sorted(CASES))
def test_kernels_take_no_mode(kind):
    # No extra argument, not even one with a default: tensor_math calls each
    # kernel with exactly these, as every command evaluates a model.
    op = OPS[kind]
    assert str(inspect.signature(op.forward)) == "(attrs, inputs, params)"
    assert str(inspect.signature(op.backward)) == "(e, dy, keep)"


class _Recording(Mapping):
    """An attrs mapping that records every key it is asked for."""

    def __init__(self, attrs):
        self._attrs, self.asked = dict(attrs), set()

    def __getitem__(self, key):
        self.asked.add(key)
        return self._attrs[key]

    def __contains__(self, key):
        self.asked.add(key)
        return key in self._attrs

    def __iter__(self):
        return iter(self._attrs)

    def __len__(self):
        return len(self._attrs)


def _undeclared(kind, attrs):
    """The keys attrs was asked for that kind does not declare; an Input's
    shape is a required list with its own rule."""
    return attrs.asked - set(OPS[kind].attr_types) - ({"shape"} if kind == "Input" else set())


@pytest.mark.parametrize("kind", sorted(CASES))
def test_kind_reads_only_declared_attrs(kind):
    node, sources, arrays = CASES[kind]
    op, attrs = OPS[kind], _Recording(node.attrs)
    params = [arrays[ref] for ref in node.param_refs]
    source_nodes = [Node(f"in{slot}", "Input", _Recording(a)) for slot, a in enumerate(sources)]
    assert op.check_attrs(attrs) == []
    assert op.shape(attrs, [tuple(a["shape"]) for a in sources], params, pytest.fail) is not None
    assert op.check_sources(source_nodes, params) == []
    xs = _draw(np.random.default_rng(0), sources)
    out, saved = op.forward(attrs, xs, params)
    entry = SimpleNamespace(node=Node("op", kind, attrs, node.param_refs), inputs=xs, params=params,
                            output=out, saved=saved)
    op.backward(entry, np.ones_like(out), False)
    assert _undeclared(kind, attrs) == set()
    for src in source_nodes:
        assert _undeclared("Input", src.attrs) == set()


def test_input_reads_only_declared_attrs():
    attrs = _Recording({"shape": [3, 4], "integer": True, "high": 5})
    assert OPS["Input"].check_attrs(attrs) == []
    assert OPS["Input"].shape(attrs, [], [], pytest.fail) == (3, 4)
    assert _undeclared("Input", attrs) == set()


# The defaults existing model files rely on.
DEFAULTS = {
    ("Conv2d", "stride"): 1,
    ("Conv2d", "padding"): 0,
    ("LayerNorm", "normalized_axis_length"): None,
    ("LayerNorm", "eps"): 1e-5,
    ("RMSNorm", "normalized_axis_length"): None,
    ("RMSNorm", "eps"): 1e-5,
    ("GroupNorm", "groups"): 1,
    ("GroupNorm", "axis"): -1,
    ("GroupNorm", "eps"): 1e-5,
    ("ScalarScale", "scale"): 1.0,
    ("DropoutInference", "mode"): "inference",
    ("DropoutInference", "scale"): 1.0,
    ("Concat", "axis"): -1,
    ("Input", "integer"): False,
    ("Input", "high"): 2,
}
DECLARED = sorted((kind, name) for kind, op in OPS.items() for name in op.attr_types)

# For each declared type: how a refusal names it, values of the wrong JSON
# type, and a value it takes with what that value reads as.
TYPES = {
    int: ("an integer", ["2", 1.5, True, None, [1]], (3.0, 3)),
    float: ("a number", ["1e-5", True, None, {}, 10**400, -(10**309)], (1, 1.0)),
    bool: ("a boolean", ["false", "true", 1, 0, None], (True, True)),
    str: ("a string", [1, None, ["inference"]], ("inference", "inference")),
}


def _present(kind):
    """The attrs a kind requires, with which every other attr may be absent."""
    return {"shape": [2]} if kind == "Input" else {"scale": 2.0} if kind == "ScalarScale" else {}


def test_every_declared_attr_has_a_pinned_default():
    assert set(DECLARED) == set(DEFAULTS)


@pytest.mark.parametrize("kind, name", DECLARED)
def test_absent_attr_reads_as_its_default(kind, name):
    op = OPS[kind]
    attrs = {key: value for key, value in _present(kind).items() if key != name}
    value = op.attr(attrs, name)
    assert value == DEFAULTS[kind, name] == op.attr_types[name][1]
    assert value is None or type(value) is op.attr_types[name][0]


@pytest.mark.parametrize("kind, name", DECLARED)
def test_declared_type_is_enforced(kind, name):
    op = OPS[kind]
    attr_type = op.attr_types[name][0]
    noun, wrong_values, (good, reads_as) = TYPES[attr_type]
    for wrong in wrong_values:
        attrs = {**_present(kind), name: wrong}
        # Every kind refuses it; the base rule says why.
        assert op.check_attrs(attrs) != []
        assert OpDef.check_attrs(op, attrs) == [f"attr {name!r} must be {noun}, got {wrong!r}"]
    attrs = {**_present(kind), name: good}
    assert OpDef.check_attrs(op, attrs) == []
    value = op.attr(attrs, name)
    assert value == reads_as and type(value) is attr_type
