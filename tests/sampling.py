"""A generic seeded input sampler for tests that need some valid inputs of
a graph, drawn from a numpy Generator the test seeds itself."""

import numpy as np

from lnfold.graph_ir import Graph
from lnfold.ops import OPS

_INPUT = OPS["Input"]


def sample_inputs(g: Graph, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Draw one input set: uniform [-2, 2] floats, or seeded integers for
    inputs marked integer (index streams for embedding lookups)."""
    out: dict[str, np.ndarray] = {}
    for nid in g.inputs:
        attrs = g.nodes[nid].attrs
        shape = tuple(int(s) for s in attrs.get("shape", ()))
        if _INPUT.attr(attrs, "integer"):
            out[nid] = rng.integers(0, _INPUT.attr(attrs, "high"), size=shape)
        else:
            out[nid] = rng.uniform(-2.0, 2.0, size=shape)
    return out
