"""Central finite differences: the oracle the tests check reverse-mode
gradients (tensor_math.backward) against, built from forward evaluations
alone."""

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from lnfold.graph_ir import Graph, WeightStore
from lnfold.tensor_math import forward

# Denominators below this are treated as numerically singular when flagging
# ill-conditioned finite-difference probes.
ILL_CONDITION_THRESHOLD = 1e-12


def loss_value(outputs: Sequence[np.ndarray], selector: str = "sum") -> float:
    if selector == "sum":
        return float(sum(o.sum() for o in outputs))
    if selector == "sumsq":
        return float(sum((o * o).sum() for o in outputs))
    raise ValueError(f"unknown loss selector {selector!r}")


@dataclass
class FiniteDifferenceResult:
    params: dict[str, np.ndarray]
    ill_conditioned: bool


def finite_difference_grad(
    g: Graph,
    w: WeightStore,
    inputs: Mapping[str, np.ndarray],
    loss_selector: str = "sum",
    h: float = 1e-6,
) -> FiniteDifferenceResult:
    """Central-difference parameter gradients; the oracle for backward().

    Independent of the reverse-mode path by construction: only forward
    evaluations are used. Flags ill-conditioning when any normalization
    denominator saved on a tape came within ILL_CONDITION_THRESHOLD of zero.
    """
    arrays = {k: v.astype(np.float64).copy() for k, v in w.items()}
    ill = False

    def run() -> float:
        nonlocal ill
        outs, tape = forward(g, WeightStore(arrays), inputs)
        ill = ill or any(e.saved["denom"].min(initial=np.inf) < ILL_CONDITION_THRESHOLD
                         for e in tape.entries.values() if "denom" in e.saved)
        return loss_value(outs, loss_selector)

    grads: dict[str, np.ndarray] = {}
    for name in w.names():
        arr = arrays[name]
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = run()
            flat[i] = orig - h
            minus = run()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2.0 * h)
        grads[name] = grad
    return FiniteDifferenceResult(params=grads, ill_conditioned=ill)
