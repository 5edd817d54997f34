"""Lockstep training of a model and its fold, the loop behind acceptance
criterion 4, built on lnfold's public API.

Scheme A trains the original model's parameters directly. Scheme B trains
the folded model with proxy parameters for the centering targets: its
forward reads them centered (center_targets), and their gradients are
projected through the same centering map (center_node_params). Both start
from the same weights and see the same batches and learning rate.
"""

from collections.abc import Collection

import numpy as np

from lnfold.centering import center_node_params
from lnfold.fold_apply import center_targets
from lnfold.graph_ir import Graph, WeightStore, infer_shapes
from lnfold.ops import OPS
from lnfold.tensor_math import backward, forward


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of a batch of logits, and its gradient."""
    n = logits.shape[0]
    top = logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(logits - top).sum(axis=-1)) + top[:, 0]
    loss = float(np.mean(logz - logits[np.arange(n), labels]))
    probs = OPS["Softmax"].forward({}, [logits], [])[0]
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def train_lockstep(g: Graph, w: WeightStore, fg: Graph, proxied: Collection[str], steps: int,
                   lr: float = 0.05, seed: int = 0) -> tuple[float, float, float]:
    """Train g (scheme A) and its fold fg (scheme B, proxying the nodes in
    proxied) from w, in f64, with plain gradient descent on a seeded
    synthetic classification stream of 8 samples a step: a teacher matrix
    labels uniform [-2, 2) inputs of g's one real-valued Input. Return the
    max paired-weight gap and each scheme's loss at the last step (0.0
    after no steps)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    input_id = g.inputs[0]
    in_dim = g.nodes[input_id].attrs["shape"][-1]
    teacher = rng.normal(size=(infer_shapes(g, w)[g.outputs[0]][-1], in_dim))
    schemes = [(graph, proxies, {name: arr.astype(np.float64) for name, arr in w.items()})
               for graph, proxies in ((g, ()), (fg, proxied))]
    losses = [0.0, 0.0]
    for _step in range(steps):
        x = rng.uniform(-2.0, 2.0, size=(8, in_dim))
        labels = np.argmax(x @ teacher.T, axis=-1)
        for i, (graph, proxies, arrays) in enumerate(schemes):
            outs, tape = forward(graph, center_targets(graph, WeightStore(arrays), proxies), {input_id: x})
            losses[i], dlogits = _cross_entropy(outs[0], labels)
            grads = backward(tape, [dlogits])
            for nid in proxies:
                grads.update(center_node_params(graph.nodes[nid], grads))
            for name, grad in grads.items():
                arrays[name] -= lr * grad
    a, b = (arrays for _graph, _proxies, arrays in schemes)
    gap = np.max([np.abs(a[name] - b[name]).max() for name in a])
    return float(gap), *losses
