"""Command-line pipeline: analyze -> fold -> verify -> flops.

Exit codes are a stable contract for CI: 0 success, 1 operational error,
2 verification failure. Machine-readable output is always JSON on stdout;
logs and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import threading

from .fold_apply import FoldError, apply_fold, check_hash, dry_run
from .fold_detect import FoldReport, detect_foldable
from .graph_ir import (
    GraphValidationError,
    ModelFormatError,
    load_model,
    model_hash,
    save_model,
)
from .jsonutil import canonical_dumps
from .verify import check_seed, check_trials, checks_overlap, flops_estimate, verify_forward, verify_gradients


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _default_seed() -> int:
    raw = os.environ.get("LNFOLD_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _Operational(f"LNFOLD_SEED must be an integer, got {raw!r}") from None


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write path (or a file it names) into an operational error."""
    try:
        yield
    except OSError as exc:
        raise _Operational(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _emit(doc: dict, out_path: str | None) -> None:
    text = canonical_dumps(doc)
    if out_path:
        with _writing(out_path), open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _load(topology: str, weights: str):
    try:
        return load_model(topology, weights)
    except (ModelFormatError, OSError) as exc:
        raise _Operational(f"cannot load model: {exc}") from exc


class _Operational(Exception):
    pass


# What verification raises when it cannot run a model at all.
_VERIFY_ERRORS = (ValueError, GraphValidationError, ArithmeticError)


def _check_run(args: argparse.Namespace, *counts: int) -> None:
    """Refuse a trial count below 1, a negative seed, or a tol that is not a
    finite number >= 0 before any model is loaded or written."""
    try:
        for count in counts:
            check_trials(count)
        check_seed(args.seed)
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0, got {args.tol}")
    except ValueError as exc:
        raise _Operational(f"verification could not run: {exc}") from exc


def _detect(g, w, practical: bool, strict_safety: bool) -> FoldReport:
    mode = "practical" if practical else "strict"
    try:
        return detect_foldable(g, w, mode=mode, strict_safety=strict_safety)
    except GraphValidationError as exc:
        raise _Operational(f"model failed validation: {exc}") from exc


def _fold(g, w, report: FoldReport, practical: bool, prefix: str):
    """Apply the report and write the folded model to prefix.json/.bin."""
    try:
        folded_g, folded_w = apply_fold(g, w, report, allow_practical=practical)
    except FoldError as exc:
        raise _Operational(str(exc)) from exc
    with _writing(prefix + ".json"):
        save_model(folded_g, folded_w, prefix + ".json", prefix + ".bin")
    return folded_g, folded_w


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, w = _load(args.topology, args.weights)
    report = _detect(g, w, args.practical, strict_safety=not args.no_strict_safety)
    _emit(report.to_json(), args.out)
    c = report.counts()
    _log(
        f"LN={c['layer_norms']} foldable={c['foldable']} strict={c['strict']} "
        f"practical={c['practical']} insertions={c['insertions']} "
        f"safe={'yes' if report.safety.safe else 'no'}"
    )
    return 0


def _read_report(path: str) -> FoldReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return FoldReport.from_json(json.load(fh))
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise _Operational(f"cannot read report: {exc}") from exc


def _cmd_fold(args: argparse.Namespace) -> int:
    g, w = _load(args.topology, args.weights)
    report = _read_report(args.report)
    if args.dry_run or not args.out:
        try:
            # apply_fold checks the hash itself, so hash here only when it will not run.
            check_hash(report, model_hash(g, w))
            if args.dry_run:
                print(dry_run(g, report))
                return 0
        except FoldError as exc:
            raise _Operational(str(exc)) from exc
        raise _Operational("--out PREFIX is required unless --dry-run")
    _fold(g, w, report, args.practical, args.out)
    _log(f"wrote {args.out}.json and {args.out}.bin")
    return 0


def _side_by_side(first, second) -> list:
    """Run first on a second thread while second runs on this one, and
    return both results once that thread has ended. When both raise,
    first's exception wins, as it would if first had run before second."""
    outcome: dict = {}

    def run():
        try:
            outcome["result"] = first()
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, name="lnfold-verify-forward")
    thread.start()
    try:
        later = second()
    finally:
        thread.join()
        if "error" in outcome:
            raise outcome["error"]
    return [outcome["result"], later]


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_run(args, args.trials, *([args.grad_trials] if args.grad else []))
    gA, wA = _load(args.orig_topology, args.orig_weights)
    gB, wB = _load(args.folded_topology, args.folded_weights)

    def forward_check():
        return verify_forward(gA, wA, gB, wB, trials=args.trials, seed=args.seed, tol=args.tol)

    def gradient_check():
        return verify_gradients(gA, wA, gB, wB, trials=args.grad_trials, seed=args.seed, tol=args.tol)

    try:
        if not args.grad:
            reports = [forward_check()]
        elif checks_overlap(wA):
            reports = _side_by_side(forward_check, gradient_check)
        else:
            reports = [forward_check(), gradient_check()]
    except _VERIFY_ERRORS as exc:
        raise _Operational(f"verification could not run: {exc}") from exc
    _emit({part: report.to_json() for part, report in zip(("forward", "gradients"), reports)}, None)
    return 0 if all(report.passed for report in reports) else 2


def _cmd_flops(args: argparse.Namespace) -> int:
    if args.d < 1:
        raise _Operational(f"--d must be >= 1, got {args.d}")
    if args.variant == "welford" and args.groups < 1:
        raise _Operational(f"--groups must be >= 1, got {args.groups}")
    groups = args.groups if args.variant == "welford" else None
    ln = flops_estimate("ln", args.variant, args.d, groups)
    rms = flops_estimate("rms", args.variant, args.d, groups)
    saving = 1.0 - rms.ticks / ln.ticks
    _emit(
        {
            "d": args.d,
            "variant": args.variant,
            "groups": groups,
            "layer_norm": ln.to_json(),
            "rms_norm": rms.to_json(),
            "saving_fraction": saving,
        },
        None,
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    _check_run(args, args.trials)
    with _writing(args.out_dir):
        os.makedirs(args.out_dir, exist_ok=True)
    g, w = _load(args.topology, args.weights)
    report = _detect(g, w, args.practical, strict_safety=True)
    report_path = os.path.join(args.out_dir, "fold_report.json")
    _emit(report.to_json(), report_path)
    prefix = os.path.join(args.out_dir, "folded")
    folded_g, folded_w = _fold(g, w, report, args.practical, prefix)
    try:
        fwd = verify_forward(g, w, folded_g, folded_w, trials=args.trials, seed=args.seed, tol=args.tol)
    except _VERIFY_ERRORS as exc:
        raise _Operational(f"verification could not run: {exc}") from exc
    _emit({"counts": report.counts(), "forward": fwd.to_json()}, None)
    _log(f"report: {report_path}; folded model: {prefix}.json/.bin")
    return 0 if fwd.passed else 2


_TOL_HELP = "default: 1e-5 if either model holds f32 weights, else 1e-9"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnfold",
        description="Detect foldable LayerNorms, center upstream weights, swap in RMSNorm, verify equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="detect foldable LayerNorms and write a fold report")
    p.add_argument("topology")
    p.add_argument("weights")
    p.add_argument("--practical", action="store_true",
                   help="plan explicit centering insertions for blocked LayerNorms")
    p.add_argument("--no-strict-safety", action="store_true",
                   help="do not require the affected-layer criterion to pass")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("fold", help="apply a fold report to a model")
    p.add_argument("topology")
    p.add_argument("weights")
    p.add_argument("--report", required=True)
    p.add_argument("--out", default=None, help="output prefix for .json/.bin")
    p.add_argument("--practical", action="store_true", help="allow planned insertions")
    p.add_argument("--dry-run", action="store_true", help="print the diff, write nothing")
    p.set_defaults(fn=_cmd_fold)

    p = sub.add_parser("verify", help="measure forward (and gradient) equivalence")
    p.add_argument("orig_topology")
    p.add_argument("orig_weights")
    p.add_argument("folded_topology")
    p.add_argument("folded_weights")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--grad-trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--grad", action="store_true", help="also compare parameter gradients")
    p.add_argument("--tol", type=float, default=None, help=_TOL_HELP)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("flops", help="operation counts for LN vs RMS normalization")
    p.add_argument("--d", type=int, required=True, help="normalized axis length")
    p.add_argument("--variant", choices=("naive", "welford"), default="naive")
    p.add_argument("--groups", type=int, default=1, help="parallel groups (welford)")
    p.set_defaults(fn=_cmd_flops)

    p = sub.add_parser("pipeline", help="analyze, fold, and verify in one go")
    p.add_argument("topology")
    p.add_argument("weights")
    p.add_argument("--practical", action="store_true")
    p.add_argument("--out-dir", default="lnfold_out")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--tol", type=float, default=None, help=_TOL_HELP)
    p.set_defaults(fn=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()  # reads LNFOLD_SEED
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 1
        return args.fn(args)
    except _Operational as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
