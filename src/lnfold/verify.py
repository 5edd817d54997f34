"""Numeric verification harness and normalization cost model.

Equivalence between an original model and its rewritten form is never
assumed: it is measured, in f64, on seeded random inputs. The same harness
drives the reparameterized (proxy-weight) training scheme used to check that
optimization trajectories match, and a closed-form operation-count model
quantifies what the rewrite saves per normalization layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .centering import CenteringSpec, center_node_params
from .fold_detect import FoldReport, detect_foldable
from .graph_ir import Graph, WeightStore, infer_shapes
from .tensor_math import Gradients, backward, forward, softmax


class SignatureMismatchError(ValueError):
    """The two models do not take or produce the same tensors."""


class ParameterPairingError(ValueError):
    """The two models' parameter names do not correspond one to one."""


class TrainingDivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


@dataclass
class EquivalenceReport:
    trials: int
    seed: int
    tol: float
    max_abs_forward_diff: float | None  # None: some trial was non-finite
    max_abs_grad_diff: float | None  # None: not measured, or non-finite
    passed: bool

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "max_abs_forward_diff": self.max_abs_forward_diff,
            "max_abs_grad_diff": self.max_abs_grad_diff,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def sample_inputs(g: Graph, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Draw one input set: uniform [-2, 2] floats, or seeded integers for
    inputs marked integer (index streams for embedding lookups)."""
    out: dict[str, np.ndarray] = {}
    for nid in g.inputs:
        attrs = g.nodes[nid].attrs
        shape = tuple(int(s) for s in attrs.get("shape", ()))
        if attrs.get("integer"):
            high = int(attrs.get("high", 2))
            out[nid] = rng.integers(0, high, size=shape)
        else:
            out[nid] = rng.uniform(-2.0, 2.0, size=shape)
    return out


def _trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(trials)]


def _signature(g: Graph, shapes: Mapping[str, tuple[int, ...] | None]) -> tuple:
    ins = tuple(
        (
            tuple(g.nodes[nid].attrs.get("shape", ())),
            bool(g.nodes[nid].attrs.get("integer", False)),
            int(g.nodes[nid].attrs.get("high", 0)),
        )
        for nid in g.inputs
    )
    outs = tuple(shapes.get(o) for o in g.outputs)
    return ins, outs


def _require_same_signature(gA: Graph, wA: WeightStore, gB: Graph, wB: WeightStore) -> tuple[dict, dict]:
    """Both models' per-sample shapes, once their signatures are known to agree."""
    shapesA, shapesB = infer_shapes(gA, wA), infer_shapes(gB, wB)
    if _signature(gA, shapesA) != _signature(gB, shapesB):
        raise SignatureMismatchError("models do not share input/output signatures")
    return shapesA, shapesB


def default_tol(*stores: WeightStore) -> float:
    """1e-5 when any store holds an f32 array (one-shot centering leaves
    f32-sized residuals), 1e-9 otherwise."""
    if any(arr.dtype == np.float32 for w in stores for _name, arr in w.items()):
        return 1e-5
    return 1e-9


def _fold_worst(worst: float | None, values) -> float | None:
    """Fold per-trial maxima into the running worst, in order.

    None means some value was NaN or infinite: ``max`` would silently skip a
    NaN, so a non-finite trial instead poisons the whole result.
    """
    for value in values:
        value = float(value)
        if worst is None or not np.isfinite(value):
            return None
        worst = max(worst, value)
    return worst


def _within(tol: float, *worsts: float | None) -> bool:
    return all(w is not None and w <= tol for w in worsts)


# Seeded trials are stacked until one forward's tape would hold about this
# many f64 elements, which bounds the memory a stacked evaluation adds.
TAPE_BUDGET = 2**18


def _trials_per_batch(g: Graph, shapes: Mapping[str, tuple[int, ...] | None]) -> int:
    """How many trials one stacked forward of g may evaluate.

    A stacked batch prepends a (trials, 1) axis pair to every input, so a
    node attribute that names a dimension from the front (a non-negative
    ``axis``) would name the wrong one; such graphs, and graphs without
    inputs, run one unstacked trial at a time. So does any ``axis`` that is
    not a plain negative int.
    """
    axes = [n.attrs.get("axis", -1) for n in g.nodes.values()]
    if not g.inputs or any(not isinstance(a, int) or a >= 0 for a in axes):
        return 1
    if any(s is None for s in shapes.values()):
        return 1
    footprint = sum(int(np.prod(s, dtype=np.int64)) for s in shapes.values())
    return max(1, TAPE_BUDGET // max(1, footprint))


def _stack_trials(batch: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Inputs of several trials as one (trials, 1) + per-sample stack.

    The singleton axis keeps every matmul a stack of the same per-trial BLAS
    calls (a (trials, d) stack would become one matrix product, which rounds
    differently), so stacked results equal one-at-a-time results bit for bit.
    A single trial keeps its per-sample shape.
    """
    if len(batch) == 1:
        return batch[0]
    return {nid: np.stack([trial[nid] for trial in batch])[:, None] for nid in batch[0]}


# ---------------------------------------------------------------------------
# Forward and gradient equivalence
# ---------------------------------------------------------------------------


def verify_forward(
    gA: Graph,
    wA: WeightStore,
    gB: Graph,
    wB: WeightStore,
    trials: int = 100,
    seed: int = 0,
    tol: float | None = None,
) -> EquivalenceReport:
    """Max elementwise output difference over seeded random inputs, in f64.

    Trials are evaluated in stacked batches under TAPE_BUDGET; each trial
    draws its inputs from its own generator and is reduced to its own
    maximum, so the result equals evaluating the trials one at a time. A
    non-finite output or difference reports None and fails. tol defaults to
    default_tol of the two stores.
    """
    shapesA, shapesB = _require_same_signature(gA, wA, gB, wB)
    if tol is None:
        tol = default_tol(wA, wB)
    storeA, storeB = wA.as_f64(), wB.as_f64()
    per_batch = min(_trials_per_batch(gA, shapesA), _trials_per_batch(gB, shapesB))
    rngs = _trial_rngs(seed, trials)
    worst: float | None = 0.0
    for start in range(0, trials, per_batch):
        batch = [sample_inputs(gA, rng) for rng in rngs[start : start + per_batch]]
        inputs = _stack_trials(batch)
        # [0] drops each tape before the next forward runs.
        outsA = forward(gA, storeA, inputs)[0]
        outsB = forward(gB, storeB, inputs)[0]
        maxima = [np.abs(a - b).reshape(len(batch), -1).max(axis=1) for a, b in zip(outsA, outsB)]
        for t in range(len(batch)):
            worst = _fold_worst(worst, (m[t] for m in maxima))
    return EquivalenceReport(trials, seed, tol, worst, None, _within(tol, worst))


def _proxied_effective(
    g: Graph, w: WeightStore, proxied: Mapping[str, CenteringSpec]
) -> dict[str, np.ndarray]:
    effective: dict[str, np.ndarray] = {}
    for node_id, spec in proxied.items():
        node = g.nodes[node_id]
        arrays = {name: w[name] for name in node.param_refs}
        effective.update(center_node_params(node, arrays, spec))
    return effective


def _proxied_grads(
    g: Graph,
    w: WeightStore,
    proxied: Mapping[str, CenteringSpec],
    inputs: Mapping[str, np.ndarray],
    out_grad_fn: Callable[[list[np.ndarray]], list[np.ndarray]],
) -> tuple[list[np.ndarray], Gradients]:
    """Forward/backward with proxy parameters.

    The forward pass sees centered (effective) weights; gradients w.r.t. the
    stored proxy weights come from projecting the effective-weight gradients
    through the same centering map.
    """
    effective = _proxied_effective(g, w, proxied)
    outs, tape = forward(g, w, inputs, param_overrides=effective)
    grads = backward(tape, out_grad_fn(outs))
    for node_id, spec in proxied.items():
        node = g.nodes[node_id]
        grad_arrays = {
            name: grads.params.get(name, np.zeros_like(w[name])) for name in node.param_refs
        }
        grads.params.update(center_node_params(node, grad_arrays, spec))
    return outs, grads


def _derive_proxied(gA: Graph, wA: WeightStore, gB: Graph | None = None) -> dict[str, CenteringSpec]:
    """Which of scheme B's parameters are proxies for centered weights.

    A folded model records the fold mode in its provenance; detection on the
    original model in that mode reproduces the centering target set. Without
    provenance, strict mode is assumed.
    """
    mode = "strict"
    if gB is not None and gB.provenance:
        mode = gB.provenance.get("mode", "strict")
    report = detect_foldable(gA, wA, mode=mode)
    return dict(report.targets)


def verify_gradients(
    gA: Graph,
    wA: WeightStore,
    gB: Graph,
    wB: WeightStore,
    trials: int = 20,
    seed: int = 0,
    tol: float | None = None,
    proxied: Mapping[str, CenteringSpec] | None = None,
) -> EquivalenceReport:
    """Compare d(loss)/d(parameter) between the plain scheme A and the
    proxy-weight scheme B under a sum-of-outputs loss.

    Model B's weight store holds the proxy parameters (same names and values
    as A's); which of them are proxied is taken from the detection pass on A
    unless given explicitly. Non-finite results and the default tol follow
    verify_forward.
    """
    _require_same_signature(gA, wA, gB, wB)
    if set(wA.names()) != set(wB.names()):
        raise ParameterPairingError(
            "parameter name sets differ; cannot pair proxy weights with originals"
        )
    if tol is None:
        tol = default_tol(wA, wB)
    storeA, storeB = wA.as_f64(), wB.as_f64()
    if proxied is None:
        proxied = _derive_proxied(gA, storeA, gB)

    ones = lambda outs: [np.ones_like(o) for o in outs]
    worst_fwd: float | None = 0.0
    worst_grad: float | None = 0.0
    for rng in _trial_rngs(seed, trials):
        inputs = sample_inputs(gA, rng)
        outsA, tapeA = forward(gA, storeA, inputs)
        gradsA = backward(tapeA, ones(outsA))
        outsB, gradsB = _proxied_grads(gB, storeB, proxied, inputs, ones)
        worst_fwd = _fold_worst(worst_fwd, (np.abs(a - b).max() for a, b in zip(outsA, outsB)))
        for name in storeA.names():
            ga = gradsA.params.get(name)
            gb = gradsB.params.get(name)
            if ga is None and gb is None:
                continue
            if ga is None:
                ga = np.zeros_like(storeA[name])
            if gb is None:
                gb = np.zeros_like(storeB[name])
            worst_grad = _fold_worst(worst_grad, [np.abs(ga - gb).max()])
    return EquivalenceReport(trials, seed, tol, worst_fwd, worst_grad, _within(tol, worst_fwd, worst_grad))


def check_zero_mean(
    g: Graph,
    w: WeightStore,
    node_id: str,
    trials: int = 100,
    seed: int = 0,
    axis: int = -1,
) -> float:
    """Max |mean along axis| of one node's output over seeded random inputs;
    NaN when any trial's mean is non-finite, so every ``<= tol`` fails."""
    if node_id not in g.nodes:
        raise KeyError(node_id)
    store = w.as_f64()
    worst: float | None = 0.0
    for rng in _trial_rngs(seed, trials):
        _, tape = forward(g, store, sample_inputs(g, rng))
        value = tape.value_of(node_id)
        worst = _fold_worst(worst, [np.abs(value.mean(axis=axis)).max()])
    return float("nan") if worst is None else worst


# ---------------------------------------------------------------------------
# Operation-count model
# ---------------------------------------------------------------------------


@dataclass
class FlopCount:
    """Per-sample operation counts for one normalization over d elements.

    The welford variant models the single-pass, g-way parallel fused kernel;
    the inverse square root is one rsqrt and is not counted. Division is
    costed at three ticks, addition and multiplication at one.
    """

    adds: int
    muls: int
    divs: int
    variant: str
    d: int
    g: int | None = None

    @property
    def ticks(self) -> int:
        return self.adds + self.muls + 3 * self.divs

    def to_json(self) -> dict:
        return {
            "adds": self.adds,
            "muls": self.muls,
            "divs": self.divs,
            "variant": self.variant,
            "d": self.d,
            "g": self.g,
            "ticks": self.ticks,
        }


def flops_estimate(norm: str, variant: str, d: int, groups: int | None = None) -> FlopCount:
    """Closed-form totals for a d-element normalization.

    norm is "ln" (center then scale) or "rms" (scale only); variant is
    "naive" (two-pass) or "welford" (single-pass with groups-way combine).
    Affine is included in both.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if norm not in ("ln", "rms"):
        raise ValueError(f"norm must be 'ln' or 'rms', got {norm!r}")
    if variant == "naive":
        if norm == "ln":
            return FlopCount(5 * d, 2 * d, d, "naive", d)
        return FlopCount(d, 2 * d, d, "naive", d)
    if variant == "welford":
        if norm == "rms":
            return FlopCount(d, 3 * d, 0, "welford", d, groups)
        if groups is None or groups < 1:
            raise ValueError("welford layer-norm counts need groups >= 1")
        return FlopCount(7 * d, 3 * d + 7 * groups, d, "welford", d, groups)
    raise ValueError(f"variant must be 'naive' or 'welford', got {variant!r}")


def model_speedup_estimate(ln_time_fraction: float, layer_saving_fraction: float) -> float:
    """Expected end-to-end fractional saving: time share of normalization
    layers times the per-layer saving."""
    for name, value in (("ln_time_fraction", ln_time_fraction),
                        ("layer_saving_fraction", layer_saving_fraction)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return ln_time_fraction * layer_saving_fraction


# ---------------------------------------------------------------------------
# Training equivalence
# ---------------------------------------------------------------------------


@dataclass
class TrainingResult:
    steps: int
    max_weight_diff: float  # NaN when a weight went non-finite, failing any <= tol
    final_loss_a: float
    final_loss_b: float


def _softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1)) + logits.max(axis=-1)
    loss = float(np.mean(logz - logits[np.arange(n), labels]))
    probs = softmax(logits)
    probs[np.arange(n), labels] -= 1.0
    return loss, probs / n


def training_equivalence(
    gA: Graph,
    wA: WeightStore,
    gB: Graph,
    wB: WeightStore,
    steps: int,
    lr: float = 0.05,
    seed: int = 0,
    lr_b: float | None = None,
    batch_size: int = 8,
) -> TrainingResult:
    """Train both schemes in lockstep with plain gradient descent on a seeded
    synthetic classification stream and report the max paired-weight gap.

    Scheme A trains its parameters directly; scheme B holds proxy parameters
    for the centered layers and projects both the forward weights and the
    gradients through the centering map each step. Both schemes see the same
    batches and the same learning rate.
    """
    if lr_b is not None and lr_b != lr:
        raise ValueError("schemes must share hyperparameters; unequal learning rates rejected")
    if set(wA.names()) != set(wB.names()):
        raise ParameterPairingError("parameter name sets differ between schemes")
    for name in wA.names():
        if not np.array_equal(wA[name], wB[name]):
            raise ValueError(f"schemes must share initial weights; {name!r} differs")
    if len(gA.inputs) != 1 or gA.nodes[gA.inputs[0]].attrs.get("integer"):
        raise ValueError("training harness expects one real-valued input")

    arraysA = {k: v.astype(np.float64) for k, v in wA.items()}
    arraysB = {k: v.astype(np.float64) for k, v in wB.items()}
    storeA, storeB = WeightStore(arraysA), WeightStore(arraysB)

    report = detect_foldable(gA, storeA, mode="strict")
    proxied = dict(report.targets)
    for ln_id in report.foldable:
        if gB.nodes.get(ln_id) is None or gB.nodes[ln_id].kind != "RMSNorm":
            raise ValueError(f"scheme B should carry RMSNorm at {ln_id!r}")

    input_id = gA.inputs[0]
    in_dim = int(gA.nodes[input_id].attrs["shape"][-1])
    out_shape = infer_shapes(gA, storeA)[gA.outputs[0]]
    classes = int(out_shape[-1])

    rng = np.random.Generator(np.random.PCG64(seed))
    teacher = rng.normal(size=(classes, in_dim))

    loss_a = loss_b = 0.0
    for _step in range(steps):
        x = rng.uniform(-2.0, 2.0, size=(batch_size, in_dim))
        labels = np.argmax(x @ teacher.T, axis=-1)

        outsA, tapeA = forward(gA, storeA, {input_id: x})
        loss_a, dlogits = _softmax_cross_entropy(outsA[0], labels)
        if not np.isfinite(loss_a):
            raise TrainingDivergenceError(f"scheme A diverged at step {_step}")
        gradsA = backward(tapeA, [dlogits])
        for name, grad in gradsA.params.items():
            arraysA[name] -= lr * grad

        def ce_grads(outs: list[np.ndarray]) -> list[np.ndarray]:
            nonlocal loss_b
            loss_b, d = _softmax_cross_entropy(outs[0], labels)
            return [d]

        _, gradsB = _proxied_grads(gB, storeB, proxied, {input_id: x}, ce_grads)
        if not np.isfinite(loss_b):
            raise TrainingDivergenceError(f"scheme B diverged at step {_step}")
        for name, grad in gradsB.params.items():
            arraysB[name] -= lr * grad

    diff = _fold_worst(0.0, (np.abs(arraysA[name] - arraysB[name]).max() for name in arraysA))
    return TrainingResult(steps, float("nan") if diff is None else diff, loss_a, loss_b)
