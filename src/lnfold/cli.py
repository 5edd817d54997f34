"""Command-line pipeline: analyze -> fold -> verify -> flops.

Exit codes are a stable contract for CI: 0 success, 1 operational error,
2 verification failure. Machine-readable output is always JSON on stdout;
logs and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .fold_apply import FoldError, apply_fold, dry_run
from .fold_detect import FoldReport, detect_foldable
from .graph_ir import (
    GraphValidationError,
    ModelFormatError,
    load_model,
    model_hash,
    save_model,
)
from .jsonutil import canonical_dumps
from .verify import flops_estimate, verify_forward, verify_gradients


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _default_seed() -> int:
    return int(os.environ.get("LNFOLD_SEED", "0"))


def _emit(doc: dict, out_path: str | None) -> None:
    text = canonical_dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
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
    except (OSError, ValueError, KeyError) as exc:
        raise _Operational(f"cannot read report: {exc}") from exc


def _cmd_fold(args: argparse.Namespace) -> int:
    g, w = _load(args.topology, args.weights)
    report = _read_report(args.report)
    if args.dry_run or not args.out:
        # apply_fold checks the hash itself, so hash here only when it will not run.
        observed = model_hash(g, w)
        if observed != report.model_hash:
            raise _Operational(
                f"report was produced for model {report.model_hash[:12]}..., "
                f"but this model hashes to {observed[:12]}..."
            )
        if args.dry_run:
            print(dry_run(g, report))
            return 0
        raise _Operational("--out PREFIX is required unless --dry-run")
    _fold(g, w, report, args.practical, args.out)
    _log(f"wrote {args.out}.json and {args.out}.bin")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    gA, wA = _load(args.orig_topology, args.orig_weights)
    gB, wB = _load(args.folded_topology, args.folded_weights)
    try:
        fwd = verify_forward(gA, wA, gB, wB, trials=args.trials, seed=args.seed, tol=args.tol)
        doc = {"forward": fwd.to_json()}
        ok = fwd.passed
        if args.grad:
            grad = verify_gradients(
                gA, wA, gB, wB, trials=args.grad_trials, seed=args.seed, tol=args.tol
            )
            doc["gradients"] = grad.to_json()
            ok = ok and grad.passed
    except (ValueError, GraphValidationError, ArithmeticError) as exc:
        raise _Operational(f"verification could not run: {exc}") from exc
    _emit(doc, None)
    return 0 if ok else 2


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
    os.makedirs(args.out_dir, exist_ok=True)
    g, w = _load(args.topology, args.weights)
    report = _detect(g, w, args.practical, strict_safety=True)
    report_path = os.path.join(args.out_dir, "fold_report.json")
    _emit(report.to_json(), report_path)
    prefix = os.path.join(args.out_dir, "folded")
    folded_g, folded_w = _fold(g, w, report, args.practical, prefix)
    fwd = verify_forward(g, w, folded_g, folded_w, trials=args.trials, seed=args.seed, tol=args.tol)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except _Operational as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
