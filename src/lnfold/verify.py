"""Numeric verification harness and normalization cost model.

Equivalence between an original model and its rewritten form is never
assumed: it is measured, in f64, on seeded random inputs. The same harness
drives the reparameterized (proxy-weight) training scheme used to check that
optimization trajectories match, and a closed-form operation-count model
quantifies what the rewrite saves per normalization layer.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Mapping

import numpy as np

from .centering import CenteringSpec, center_node_params, default_tolerance
from .fold_apply import center_targets
from .fold_detect import detect_foldable, fold_plan
from .graph_ir import Graph, WeightStore, infer_shapes, require_valid
from .ops import OPS, softmax
from .tensor_math import Gradients, backward, forward


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
            out[nid] = rng.integers(0, OPS["Input"].high(attrs), size=shape)
        else:
            out[nid] = rng.uniform(-2.0, 2.0, size=shape)
    return out


def check_trials(trials: int) -> None:
    """ValueError unless there is at least one trial to run."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def check_seed(seed: int) -> None:
    """ValueError unless seed can seed numpy's generators (an integer >= 0)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _trial_rngs(seed: int, trials: int) -> list[np.random.Generator]:
    check_trials(trials)
    check_seed(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(trials)]


def _signature(g: Graph, shapes: Mapping[str, tuple[int, ...]]) -> tuple:
    ins = tuple(
        (
            tuple(g.nodes[nid].attrs.get("shape", ())),
            bool(g.nodes[nid].attrs.get("integer", False)),
            OPS["Input"].high(g.nodes[nid].attrs),
        )
        for nid in g.inputs
    )
    outs = tuple(shapes.get(o) for o in g.outputs)
    return ins, outs


def _require_same_signature(gA: Graph, wA: WeightStore, gB: Graph, wB: WeightStore) -> tuple[dict, dict]:
    """Both models' per-sample shapes, once both are valid
    (GraphValidationError otherwise) and their signatures agree."""
    shapesA, shapesB = require_valid(gA, wA), require_valid(gB, wB)
    if _signature(gA, shapesA) != _signature(gB, shapesB):
        raise SignatureMismatchError("models do not share input/output signatures")
    return shapesA, shapesB


def default_tol(*stores: WeightStore) -> float:
    """The centering tolerance of the least precise array in the stores
    (one-shot centering leaves residuals of that dtype's size): 1e-5 when
    any array is f32, 1e-9 otherwise."""
    return max((default_tolerance(arr.dtype, 1) for w in stores for _name, arr in w.items()),
               default=default_tolerance(np.float64, 1))


def _fold_worst(worst: float | None, values) -> float | None:
    """Fold maxima into the running worst, in order.

    None means some value was NaN or infinite: ``max`` would silently skip a
    NaN, so a non-finite trial instead poisons the whole result. One value
    per stacked batch suffices: numpy's max over the whole batch is the
    largest of its trials' maxima, and it propagates NaN.
    """
    for value in values:
        value = float(value)
        if worst is None or not np.isfinite(value):
            return None
        worst = max(worst, value)
    return worst


def _within(tol: float, *worsts: float | None) -> bool:
    return all(w is not None and w <= tol for w in worsts)


# Seeded trials are stacked until one evaluation would hold about this many
# f64 elements at once, which bounds the memory a stacked evaluation adds.
TAPE_BUDGET = 2**20


def _per_batch(*held: int) -> int:
    """How many trials one stacked evaluation may take when a trial holds at
    most the largest of held per-sample elements at once (_live_peak, or a
    gradient batch's per-trial parameter gradients) under TAPE_BUDGET."""
    return max(1, TAPE_BUDGET // max(1, *held))


def _param_count(w: WeightStore) -> int:
    return sum(arr.size for _name, arr in w.items())


def checks_overlap(wA: WeightStore) -> bool:
    """Whether verify --grad runs its forward check beside its gradient
    check, on two threads: when the original model's parameter gradients
    alone fill a gradient batch (more than TAPE_BUDGET // 2 parameters), so
    both checks spend their time in long numpy calls that release the GIL,
    and the process may run on more than one CPU. Smaller models are
    interpreter-bound and run the checks in turn, as does a single CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1 and _per_batch(_param_count(wA)) == 1


def _live_peak(g: Graph, shapes: Mapping[str, tuple[int, ...]], tape: bool = False) -> int:
    """The most per-sample elements forward(g, ..., tape=tape) of a valid
    graph with these per-sample shapes holds at once: each node's output
    counts from when it is computed until it is dead (Graph.dead_after). A
    tape keeps every output, so with tape=True this is the whole tape."""
    dead_after = g.dead_after()
    live = peak = 0
    for nid in g.topo_order():
        live += math.prod(shapes[nid])
        peak = max(peak, live)
        if not tape:
            live -= sum(math.prod(shapes[dead]) for dead in dead_after[nid])
    return peak


def _stack_trials(batch: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Inputs of several trials as one (trials, 1) + per-sample stack.

    The singleton axis keeps every matmul a stack of the same per-trial BLAS
    calls (a (trials, d) stack would become one matrix product, which rounds
    differently), so stacked results equal one-at-a-time results bit for bit.
    """
    return {nid: np.stack([trial[nid] for trial in batch])[:, None] for nid in batch[0]}


def _trial_batches(g: Graph, seed: int, trials: int, per_batch: int) -> Iterator[dict[str, np.ndarray]]:
    """Yield the stacked inputs (_stack_trials) of consecutive batches of up
    to per_batch seeded trials; each trial draws from its own generator."""
    rngs = _trial_rngs(seed, trials)
    for start in range(0, trials, per_batch):
        yield _stack_trials([sample_inputs(g, rng) for rng in rngs[start : start + per_batch]])


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

    Trials are evaluated in stacked batches by tape-free forwards, as many
    per batch as keep the larger of the two models' live activations
    (_live_peak) under TAPE_BUDGET; each trial draws its inputs from its own
    generator, so the result equals evaluating the trials one at a time. A
    difference over no elements is 0; a non-finite output or difference
    reports None and fails. tol defaults to default_tol of the two stores.
    Both models are validated first.
    """
    shapesA, shapesB = _require_same_signature(gA, wA, gB, wB)
    if tol is None:
        tol = default_tol(wA, wB)
    storeA, storeB = wA.as_f64(), wB.as_f64()
    per_batch = _per_batch(_live_peak(gA, shapesA), _live_peak(gB, shapesB))
    worst: float | None = 0.0
    for inputs in _trial_batches(gA, seed, trials, per_batch):
        outsA = forward(gA, storeA, inputs, tape=False)[0]
        outsB = forward(gB, storeB, inputs, tape=False)[0]
        worst = _fold_worst(worst, (np.abs(a - b).max(initial=0.0) for a, b in zip(outsA, outsB)))
    return EquivalenceReport(trials, seed, tol, worst, None, _within(tol, worst))


def _proxied_grads(
    g: Graph,
    effective: WeightStore,
    proxied: Collection[str],
    inputs: Mapping[str, np.ndarray],
    out_grad_fn: Callable[[list[np.ndarray]], list[np.ndarray]],
    keep_axis0: bool = False,
    consume: Callable[[dict[str, np.ndarray]], None] | None = None,
) -> tuple[list[np.ndarray], Gradients]:
    """Forward/backward with proxy parameters for the proxied node ids (none
    for a plain model).

    The forward pass reads effective, the proxy store with the proxied
    nodes' weights centered (center_targets); gradients w.r.t. the proxy
    weights project the effective-weight gradients backward produced
    through the same centering map. keep_axis0 is backward's: inputs are
    stacked trials, each with its own gradients, and the projection centers
    them all in one call per node, since it leaves leading axes alone.
    With consume, each node's projected parameter gradients go to
    consume(grads) as backward produces them, and the returned Gradients
    hold none; otherwise they are collected there.
    """
    outs, tape = forward(g, effective, inputs)
    collected: dict[str, np.ndarray] = {}

    def project(node, grads):
        if node.id in proxied:
            grads.update(center_node_params(node, grads))
        (collected.update if consume is None else consume)(grads)

    grads = backward(tape, out_grad_fn(outs), keep_axis0, project)
    return outs, Gradients(collected, grads.inputs)


def _derive_proxied(gA: Graph, gB: Graph) -> dict[str, CenteringSpec]:
    """Which of scheme B's parameters are proxies for centered weights: the
    centering targets of the LayerNorms of A that B carries as RMSNorm.
    Each target must be a node of B that owns the same parameters as in A
    (ParameterPairingError otherwise)."""
    swapped = [
        nid for nid, node in gA.nodes.items()
        if node.kind == "LayerNorm" and nid in gB.nodes and gB.nodes[nid].kind == "RMSNorm"
    ]
    proxied = fold_plan(gA, swapped, []).targets
    for nid in proxied:
        if nid not in gB.nodes or gB.nodes[nid].param_refs != gA.nodes[nid].param_refs:
            raise ParameterPairingError(f"centered node {nid!r} has no counterpart with the same parameters")
    return proxied


def verify_gradients(
    gA: Graph,
    wA: WeightStore,
    gB: Graph,
    wB: WeightStore,
    trials: int = 20,
    seed: int = 0,
    tol: float | None = None,
) -> EquivalenceReport:
    """Compare d(loss)/d(parameter) between the plain scheme A and the
    proxy-weight scheme B under a sum-of-outputs loss.

    Model B's weight store holds the proxy parameters (same names and values
    as A's); which of them are proxied follows from the LayerNorms B swapped
    for RMSNorm (_derive_proxied). Both schemes run through _proxied_grads.
    Trials are stacked as in verify_forward, but backward needs the tapes,
    and each trial keeps its own parameter gradients. Scheme B streams its
    gradients: each parameter's difference from A's is folded as soon as
    B's backward produces it, and both gradients are dropped there (a
    gradient only one scheme has is compared with zero). A trial so holds
    A's parameter gradients beside B's tape, never two gradient sets; a
    batch takes as many trials as keep either model's whole tape, and the
    parameter count, under TAPE_BUDGET. Empty
    differences, non-finite results and the default tol follow
    verify_forward.
    """
    shapesA, shapesB = _require_same_signature(gA, wA, gB, wB)
    if set(wA.names()) != set(wB.names()):
        raise ParameterPairingError(
            "parameter name sets differ; cannot pair proxy weights with originals"
        )
    if tol is None:
        tol = default_tol(wA, wB)
    storeA, storeB = wA.as_f64(), wB.as_f64()
    proxied = _derive_proxied(gA, gB)
    effective = center_targets(gB, storeB, proxied)
    per_batch = _per_batch(_live_peak(gA, shapesA, tape=True), _live_peak(gB, shapesB, tape=True),
                           _param_count(storeA))

    ones = lambda outs: [np.ones_like(o) for o in outs]
    worst_fwd: float | None = 0.0
    worst_grad: float | None = 0.0
    for inputs in _trial_batches(gA, seed, trials, per_batch):
        outsA, gradsA = _proxied_grads(gA, storeA, (), inputs, ones, True)
        maxima = []

        def diff_from_a(gradsB):
            for name, gb in gradsB.items():
                ga = gradsA.params.pop(name, None)
                d = (0.0 if ga is None else ga) - gb
                maxima.append(np.abs(d, out=d).max(initial=0.0))

        outsB, _ = _proxied_grads(gB, effective, proxied, inputs, ones, True, diff_from_a)
        worst_fwd = _fold_worst(worst_fwd, (np.abs(a - b).max(initial=0.0) for a, b in zip(outsA, outsB)))
        maxima += (np.abs(ga).max(initial=0.0) for ga in gradsA.params.values())
        worst_grad = _fold_worst(worst_grad, maxima)
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
    NaN when any trial's mean is non-finite, so every ``<= tol`` fails.
    axis counts the node's per-sample axes; one outside them raises numpy's
    AxisError. The graph is validated first, and trials are stacked as in
    verify_forward: tape-free forwards of the graph with the node as its
    only output."""
    if node_id not in g.nodes:
        raise KeyError(node_id)
    store = w.as_f64()
    shapes = require_valid(g, store)
    rank = len(shapes[node_id])
    np.zeros((0,) * rank).sum(axis=axis)  # numpy's own range check
    # Counted from the back, the axis names the same one behind the stack's
    # leading trial axes.
    axis = axis - rank if axis >= 0 else axis
    worst: float | None = 0.0
    probe = Graph(g.nodes, g.edges, g.inputs, [node_id])
    for inputs in _trial_batches(g, seed, trials, _per_batch(_live_peak(probe, shapes))):
        (value,), _ = forward(probe, store, inputs, tape=False)
        worst = _fold_worst(worst, [np.abs(value.mean(axis=axis)).max(initial=0.0)])
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
) -> TrainingResult:
    """Train both schemes in lockstep with plain gradient descent on a seeded
    synthetic classification stream, 8 samples a step, and report the max
    paired-weight gap.

    Scheme A trains its parameters directly; scheme B holds proxy parameters
    for the centered layers and projects both the forward weights and the
    gradients through the centering map each step. Both schemes see the same
    batches and the same learning rate. Both models are validated first.
    """
    check_seed(seed)
    _require_same_signature(gA, wA, gB, wB)
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

    for ln_id in detect_foldable(gA, storeA, mode="strict").foldable:
        if gB.nodes.get(ln_id) is None or gB.nodes[ln_id].kind != "RMSNorm":
            raise ValueError(f"scheme B should carry RMSNorm at {ln_id!r}")
    proxied = _derive_proxied(gA, gB)

    input_id = gA.inputs[0]
    in_dim = int(gA.nodes[input_id].attrs["shape"][-1])
    out_shape = infer_shapes(gA, storeA)[gA.outputs[0]]
    classes = int(out_shape[-1])

    rng = np.random.Generator(np.random.PCG64(seed))
    teacher = rng.normal(size=(classes, in_dim))

    loss_a = loss_b = 0.0
    for _step in range(steps):
        x = rng.uniform(-2.0, 2.0, size=(8, in_dim))
        labels = np.argmax(x @ teacher.T, axis=-1)

        losses: list[float] = []

        def ce_grads(outs: list[np.ndarray]) -> list[np.ndarray]:
            loss, d = _softmax_cross_entropy(outs[0], labels)
            losses.append(loss)
            return [d]

        for scheme, g, effective, proxies, arrays in (
            ("A", gA, storeA, (), arraysA),
            ("B", gB, center_targets(gB, storeB, proxied), proxied, arraysB),
        ):
            _, grads = _proxied_grads(g, effective, proxies, {input_id: x}, ce_grads)
            if not np.isfinite(losses[-1]):
                raise TrainingDivergenceError(f"scheme {scheme} diverged at step {_step}")
            for name, grad in grads.params.items():
                arrays[name] -= lr * grad
        loss_a, loss_b = losses

    diff = _fold_worst(0.0, (np.abs(arraysA[name] - arraysB[name]).max() for name in arraysA))
    return TrainingResult(steps, float("nan") if diff is None else diff, loss_a, loss_b)
