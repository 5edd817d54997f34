"""Benchmark of the lnfold command-line tool: closed-loop analyze -> fold -> verify jobs.

Run from the root of a checkout:

    python3 lnbench/run.py --workload deep_stack --seed 1 --seconds 36 --trace 0

Workloads: deep_stack, wide_model, fixture_fleet (see ``workloads.py``).
One client runs the workload's jobs one after another, drives every command
through ``lnfold.cli.main(argv)`` exactly as a user drives the CLI, and checks
each result against the hand-written answers in ``known.py``. With
``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it runs
each job once untraced and once traced and prints the per-layer metrics and
the tracing overhead. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are given at a reference machine speed: a speed probe, a
fixed piece of work that does not use lnfold, is timed between commands,
and each raw median is scaled by the probe's reference time over its median
time in the run (see ``bench.SpeedProbe``). The raw medians are printed
beside them. ``attempted`` and ``failed`` count the distinct operations of
the pass (one command of one job), each run at least once, so they do not
depend on how many passes fit in the time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# One closed-loop client runs one BLAS thread: on a small shared machine a
# second thread mostly adds noise from whatever else runs there.
BLAS_THREADS = 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The names of workloads.WORKLOADS, which cannot be imported before numpy is.
    parser.add_argument("--workload", required=True,
                        choices=("deep_stack", "wide_model", "fixture_fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin the BLAS pool before numpy is first imported; children inherit it."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ.pop("LNFOLD_SEED", None)
    return threads


def fix_malloc_thresholds() -> str:
    """Keep freed heap memory resident in this process.

    Every command runs in this one process. With glibc's default dynamic
    thresholds, whether a command's arrays reuse resident pages or fault in
    fresh ones depends on what the command before it freed, which made the
    analyze and fold times of wide_model vary up to twofold from one job to
    the next. With fixed thresholds the timings leave out the kernel's page
    faults, which a fresh CLI process would pay.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default (no mallopt)"
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_trim_threshold, 2**31 - 1) == 1 and mallopt(m_mmap_threshold, 32 * 2**20) == 1:
        return "glibc, trim threshold 2^31-1, mmap threshold 32 MiB"
    return "default (mallopt refused)"


def import_checkout_lnfold() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    ``lnfold`` imported is the one in it."""
    if not os.path.isfile(os.path.join(SRC, "lnfold", "__init__.py")):
        raise SystemExit(f"lnbench: no lnfold sources under {SRC}")
    sys.path.insert(0, SRC)
    import lnfold

    if os.path.dirname(os.path.dirname(os.path.abspath(lnfold.__file__))) != SRC:
        raise SystemExit(f"lnbench: imported lnfold from {lnfold.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its working files on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = pin_blas_threads()
    malloc = fix_malloc_thresholds()
    import_checkout_lnfold()
    import bench  # imports numpy, so only after the pool is pinned

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       f"blas_threads={threads} malloc={malloc}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
