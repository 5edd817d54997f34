"""Numeric verification harness and normalization cost model.

Equivalence between an original model and its rewritten form is never
assumed: it is measured, in f64, on seeded random inputs, and a closed-form
operation-count model quantifies what the rewrite saves per normalization
layer.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from .centering import CenteringSpec, center_node_params
from .fold_apply import center_targets
# detect_foldable and infer_shapes are imported only for lnbench's tracer, which patches them here.
from .fold_detect import detect_foldable, fold_plan  # noqa: F401
from .graph_ir import Graph, WeightStore, infer_shapes, require_valid  # noqa: F401
from .ops import OPS
from .tensor_math import backward, forward

_INPUT = OPS["Input"]


class SignatureMismatchError(ValueError):
    """The two models do not take or produce the same tensors."""


class ParameterPairingError(ValueError):
    """The two models' parameter names do not correspond one to one."""


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


def check_trials(trials: int) -> None:
    """ValueError unless there is at least one trial to run."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def check_seed(seed: int) -> None:
    """ValueError unless seed can seed the trial streams (an integer >= 0)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _signature(g: Graph, shapes: Mapping[str, tuple[int, ...]]) -> tuple:
    ins = tuple(
        (tuple(attrs.get("shape", ())), _INPUT.attr(attrs, "integer"), _INPUT.attr(attrs, "high"))
        for attrs in (g.nodes[nid].attrs for nid in g.inputs)
    )
    outs = tuple(shapes.get(o) for o in g.outputs)
    return ins, outs


def _valid_shapes(*models: tuple[Graph, WeightStore]) -> list[dict]:
    """Each (graph, store) model's per-sample shapes, once every model is
    valid (GraphValidationError otherwise) and all share one signature."""
    shapes = [require_valid(g, w) for g, w in models]
    signatures = [_signature(g, s) for (g, _w), s in zip(models, shapes)]
    if any(sig != signatures[0] for sig in signatures):
        raise SignatureMismatchError("models do not share input/output signatures")
    return shapes


def default_tol(*stores: WeightStore) -> float:
    """The centering tolerance of the least precise array in the stores
    (one-shot centering leaves residuals of that dtype's size): 1e-5 when
    any array is f32, 1e-9 otherwise."""
    f32 = any(arr.dtype == np.float32 for w in stores for _name, arr in w.items())
    return 1e-5 if f32 else 1e-9


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


# Seeded trials are stacked until one evaluation would hold about this many
# f64 elements at once, which bounds the memory a stacked evaluation adds.
TAPE_BUDGET = 2**20


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
    return (cpus or 1) > 1 and _param_count(wA) > TAPE_BUDGET // 2


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


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the golden-ratio step
# between counters and the two multipliers of its output function.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_MASK64 = 2**64 - 1


def _splitmix(keys: np.ndarray, first: int, n: int) -> np.ndarray:
    """(len(keys), n) uint64: outputs first .. first + n - 1 of the
    SplitMix64 stream each uint64 key starts, output i being
    mix(key + (i + 1) * GAMMA) mod 2**64, with mix SplitMix64's output
    function. Every wrapping operation runs on arrays: numpy warns when a
    uint64 scalar overflows."""
    z = np.add.outer(keys, np.arange(first, first + n, dtype=np.uint64) * _GAMMA + _GAMMA)
    z ^= z >> 30
    z *= _MIX_A
    z ^= z >> 27
    z *= _MIX_B
    z ^= z >> 31
    return z


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """The keys of trials start .. stop - 1, as uint64: trial t's key is
    output t of the stream the seed's key starts. The seed's key folds its
    64-bit words in, least significant first, from 0: each step takes
    output 0 of the stream started by the key xor the word. A seed is an
    integer >= 0 of any size, numpy integers too; 0 is one word."""
    seed = operator.index(seed)
    key = 0
    for shift in range(0, max(1, seed.bit_length()), 64):
        key = int(_splitmix(np.array([key ^ seed >> shift & _MASK64], np.uint64), 0, 1)[0, 0])
    return _splitmix(np.array([key], np.uint64), start, stop - start)[0]


def _trial_batches(g: Graph, seed: int, trials: int, per_batch: int) -> Iterator[dict[str, np.ndarray]]:
    """Yield the inputs of consecutive batches of up to per_batch seeded
    trials, each a fresh C-contiguous (trials, 1) + per-sample array.

    The singleton axis keeps every matmul a stack of the same per-trial BLAS
    calls (a (trials, d) stack would become one matrix product, which rounds
    differently), so stacked results equal one-at-a-time results bit for bit.
    Value i of a trial, counted across g.inputs in order, is output i of the
    SplitMix64 stream its key starts (_trial_keys), so it depends only on the
    seed, the trial index and i, never on the batch split or the trial
    count. A float is (word >> 11) * 2**-51 - 2, in [-2, 2), rounded once;
    an integer is word mod high, in [0, high), biased by less than
    high / 2**64. Nothing is shared between calls, so calls may run beside
    each other."""
    check_trials(trials)
    check_seed(seed)
    for start in range(0, trials, per_batch):
        keys = _trial_keys(seed, start, min(start + per_batch, trials))
        batch, first = {}, 0
        for nid in g.inputs:
            attrs = g.nodes[nid].attrs
            shape = tuple(int(s) for s in attrs.get("shape", ()))
            words = _splitmix(keys, first, math.prod(shape))
            first += words.shape[1]
            if _INPUT.attr(attrs, "integer"):
                words %= int(_INPUT.attr(attrs, "high"))
                values = words.view(np.int64)  # below high, so below 2**63
            else:
                words >>= 11
                values = words * 2.0**-51  # exact: the sum below rounds once
                values -= 2.0
            batch[nid] = values.reshape((len(keys), 1) + shape)
        yield batch


# ---------------------------------------------------------------------------
# Forward and gradient equivalence
# ---------------------------------------------------------------------------


def _sampled(models: list[tuple[Graph, WeightStore]], trials: int, seed: int, tol: float | None, start: Callable,
             tape: bool = False, held: int = 0) -> tuple[list, float, bool]:
    """Run a sampled check of one or two (graph, store) models; return its
    worst values, the tol they were judged by and whether each is finite
    and within it. The models are validated, and two must share a
    signature; tol defaults to default_tol of their stores.

    start(*stores), run once on each store widened to f64, returns the
    check's measure(inputs): for a batch of trials, one iterable of maxima
    per value the check reports, folded into that value's worst
    (_fold_worst: 0 over no elements, None once a maximum is non-finite).
    Batches (_trial_batches) give the worsts of running the trials one at a
    time, and take as many trials as keep the larger of held and each
    model's live peak (_live_peak, or its whole tape) under TAPE_BUDGET.
    """
    shapes = _valid_shapes(*models)
    if tol is None:
        tol = default_tol(*(w for _g, w in models))
    measure = start(*(w.as_f64() for _g, w in models))
    peak = max(held, *(_live_peak(g, s, tape) for (g, _w), s in zip(models, shapes)))
    worsts: list[float | None] = []
    for inputs in _trial_batches(models[0][0], seed, trials, max(1, TAPE_BUDGET // max(1, peak))):
        maxima = measure(inputs)
        worsts = [_fold_worst(worst, values) for worst, values in zip(worsts or [0.0] * len(maxima), maxima)]
    return worsts, tol, all(worst is not None and worst <= tol for worst in worsts)


def _max_diffs(outsA: list[np.ndarray], outsB: list[np.ndarray]) -> Iterator:
    return (np.abs(a - b).max(initial=0.0) for a, b in zip(outsA, outsB))


def verify_forward(
    gA: Graph,
    wA: WeightStore,
    gB: Graph,
    wB: WeightStore,
    trials: int = 100,
    seed: int = 0,
    tol: float | None = None,
) -> EquivalenceReport:
    """Max elementwise output difference over seeded random inputs, in f64,
    from tape-free forwards of both models, run by _sampled (which states
    the batching, the default tol and what a non-finite difference does)."""

    def start(storeA, storeB):
        return lambda inputs: [_max_diffs(forward(gA, storeA, inputs, tape=False)[0],
                                          forward(gB, storeB, inputs, tape=False)[0])]

    (worst,), tol, passed = _sampled([(gA, wA), (gB, wB)], trials, seed, tol, start)
    return EquivalenceReport(trials, seed, tol, worst, None, passed)


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
    proxy-weight scheme B under a sum-of-outputs loss, run by _sampled with
    tapes. B's store holds the proxy parameters (A's names and values); the
    LayerNorms B swapped for RMSNorm say which are proxied (_derive_proxied).

    Each stacked trial keeps its own parameter gradients. A's backward
    collects them, and A's tape is dropped before B's forward runs on the
    effective store (center_targets: the proxied nodes' weights centered).
    B's backward streams its gradients: a proxied node's are projected
    through the same centering map (center_node_params), then each one's
    difference from A's is folded and both are dropped (a gradient only
    one scheme has is compared with zero). A trial so holds A's gradients
    beside B's tape, and a batch is sized by both whole tapes and the
    parameter count.
    """
    ones = lambda outs: [np.ones_like(o) for o in outs]

    def start(storeA, storeB):
        if set(wA.names()) != set(wB.names()):
            raise ParameterPairingError("parameter name sets differ; cannot pair proxy weights with originals")
        proxied = _derive_proxied(gA, gB)
        effective = center_targets(gB, storeB, proxied)

        def measure(inputs):
            outsA, tape = forward(gA, storeA, inputs)
            gradsA = backward(tape, ones(outsA), True)
            del tape  # A's tape is freed before B's forward runs
            maxima = []

            def diff_from_a(node, gradsB):
                if node.id in proxied:
                    gradsB.update(center_node_params(node, gradsB))
                for name, gb in gradsB.items():
                    ga = gradsA.pop(name, None)
                    d = (0.0 if ga is None else ga) - gb
                    maxima.append(np.abs(d, out=d).max(initial=0.0))

            outsB, tape = forward(gB, effective, inputs)
            backward(tape, ones(outsB), True, diff_from_a)
            maxima += (np.abs(ga).max(initial=0.0) for ga in gradsA.values())
            return _max_diffs(outsA, outsB), maxima
        return measure

    (fwd, grad), tol, passed = _sampled([(gA, wA), (gB, wB)], trials, seed, tol, start,
                                        tape=True, held=_param_count(wA))
    return EquivalenceReport(trials, seed, tol, fwd, grad, passed)


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
    AxisError. Run by _sampled with tapes: each batch's node output is read
    off the tape of a forward of the whole graph."""
    if node_id not in g.nodes:
        raise KeyError(node_id)

    def start(store):
        rank = len(require_valid(g, w)[node_id])  # the shapes _sampled's validation kept
        np.zeros((0,) * rank).sum(axis=axis)  # numpy's own range check
        # Counted from the back, it names the same axis behind the trial axes.
        back = axis - rank if axis >= 0 else axis
        mean = lambda inputs: forward(g, store, inputs)[1].entries[node_id].output.mean(axis=back)
        return lambda inputs: [[np.abs(mean(inputs)).max(initial=0.0)]]

    (worst,), _tol, _passed = _sampled([(g, w)], trials, seed, None, start, tape=True)
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
    ticks: int = field(init=False)

    def __post_init__(self) -> None:
        self.ticks = self.adds + self.muls + 3 * self.divs


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
