"""Every rule a node kind declares about a per-sample mean, checked against
the kind's own forward kernel.

Fold detection reads only these declarations (OpDef.passes_mean,
removes_mean, family with centered_axis, and centered_axis alone), so each
case runs one kind's forward on random f64 inputs with a leading sample
axis and checks each rule the kind states.
"""

import numpy as np
import pytest

from lnfold.centering import center_node_params
from lnfold.graph_ir import make_node
from lnfold.ops import OPS
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
    return [rng.integers(0, OPS["Input"].high(a), size=(SAMPLES, *a["shape"])) if a.get("integer")
            else rng.normal(size=(SAMPLES, *a["shape"])) for a in sources]


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
        return op.forward(node.attrs, inputs, [store[ref] for ref in node.param_refs], True)[0]

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
