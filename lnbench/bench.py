"""The lnfold benchmark proper: the closed-loop client, its two loops, the
forward timing of the models it folds, and the printed result.

``run.py`` pins the BLAS pool and imports this module; see its docstring for
how to run the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import known
import tracing
import workloads
from lnfold import cli
from lnfold.graph_ir import infer_shapes, load_model
from lnfold.tensor_math import forward
from lnfold.verify import flops_estimate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
COLD_STARTS = 7
FORWARD_BATCH = 8
FORWARD_ROUNDS = 3
PROBE_EVERY_S = 0.1
REFERENCE_MS = 10.0
TIME_METRICS = ("setup_s", "analyze_s", "fold_s", "verify_s", "folded_forward_ms")

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "fold_s": "s",
    "verify_s": "s",
    "jobs_per_s": "1/s",
    "folded_forward_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def cold_start_seconds() -> float:
    """Wall time of a fresh interpreter that imports lnfold and runs ``--help``.

    A wait with a timeout polls the child in steps of up to 50 ms and would
    round the time up to one of them, so the wait blocks and a watchdog
    thread kills a child that hangs."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); from lnfold.cli import main; raise SystemExit(main(['--help']))"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        returncode = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    secs = time.perf_counter() - start
    if returncode != 0:
        raise RuntimeError(f"cold start of the CLI exited with {returncode}")
    return secs


class SpeedProbe:
    """A fixed piece of work that does not use lnfold, timed between
    commands at most every PROBE_EVERY_S, to measure how fast the machine ran.

    On a small share of a busy host the same code runs up to a third slower,
    in bursts of seconds and for minutes at a time, which moves the raw
    medians of a run further than any bound a change could be held to. So
    each timed sample is also recorded here and scaled to the probe's
    reference speed: times REFERENCE_MS over the median of the probe times
    just before and around it. A time metric is the median of the scaled
    samples. The probe does what lnfold's layers do: edge-list scans over a
    heap of Python tuples and a walk over a dict graph, like ``graph_ir`` and
    ``fold_detect``, matrix products with row normalisation, like
    ``tensor_math``, and a JSON dump, like ``jsonutil``.
    """

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self.edges = [(int(a), int(b)) for a, b in rng.integers(0, 4000, size=(8000, 2))]
        self.x = rng.standard_normal((32, 384))
        self.w = rng.standard_normal((384, 1536))
        self.ms: list[float] = []
        self.last = -math.inf
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)  # (raw, last probe)

    def sample(self) -> None:
        start = time.perf_counter()
        for node in range(1000, 1020):
            [e for e in self.edges if e[1] == node]
        for _ in range(4):
            h = self.x @ self.w
            h = (h - h.mean(axis=-1, keepdims=True)) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
        # A depth-first walk over a dict graph and a JSON dump, as detection
        # and the report do.
        nodes = {i: {"id": f"n{i}", "inputs": [(i * 7919) % 1500, (i * 104729) % 1500]} for i in range(1500)}
        seen: set[int] = set()
        for root in nodes:
            stack = [root]
            while stack:
                n = stack.pop()
                if n not in seen:
                    seen.add(n)
                    stack.extend(nodes[n]["inputs"])
        json.dumps([nodes[i] for i in range(0, 1500, 3)])
        self.last = time.perf_counter()
        self.ms.append(1e3 * (self.last - start))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def record(self, name: str, value: float) -> None:
        """Keep a raw timed sample with the index of the probe before it."""
        self.samples[name].append((value, len(self.ms) - 1))

    def factor(self, k: int) -> float:
        """Reference time over the probe times around probe ``k``: the last
        before a sample and the one after it, and the one before that."""
        return REFERENCE_MS / statistics.median(self.ms[max(0, k - 1):k + 2])

    def scaled(self, name: str) -> list[float]:
        return [value * self.factor(k) for value, k in self.samples[name]]


@dataclass
class Stats:
    """What one kind of run (untraced or traced) of the client saw."""

    times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    exits: Counter = field(default_factory=Counter)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # (job, command, reason, defect or None) -> count
    outcomes: dict[tuple[str, str], bool] = field(default_factory=dict)  # (job, command) -> always right
    jobs: int = 0
    job_secs: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))  # by place in the pass
    setup: list[float] = field(default_factory=list)
    report_bytes: int = 0
    layer_norms: int = 0
    foldable: int = 0


class Client:
    """One closed-loop client: runs each job's commands and checks each result."""

    def __init__(self, workdir: str, probe: SpeedProbe | None = None):
        self.workdir = workdir
        self.probe = probe

    def _path(self, key: str, suffix: str) -> str:
        return os.path.join(self.workdir, key.replace(":", ".") + suffix)

    def _cli(self, argv: list[str], tracer) -> tuple[int | None, str, float]:
        if self.probe is not None:
            self.probe.maybe_sample()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli." + argv[0], cli.main, argv)
        except Exception:
            code = None
            out.write(traceback.format_exc())
        return code, out.getvalue(), time.perf_counter() - start

    def run(self, job, stats: Stats, tracer=None) -> tuple[str, str] | None:
        """Run one job; returns the folded model's paths when the fold gave its
        known answer and wrote a model."""
        folded = None
        model = workloads.model_paths(self.workdir, job.model)
        report = self._path(job.stale_of or job.key, ".report.json")
        prefix = self._path(job.key, ".folded")
        mode = ["--practical"] if job.mode == "practical" else []
        commands = known.commands_for(job)
        for i, command in enumerate(commands):
            if command == "analyze":
                code, out, secs = self._cli(["analyze", *model, *mode, "--out", report], tracer)
                problems = self._check_analyze(job, code, out, report, stats)
            elif command == "fold":
                for path in (prefix + ".json", prefix + ".bin"):
                    if os.path.exists(path):
                        os.remove(path)
                code, out, secs = self._cli(
                    ["fold", *model, "--report", report, *mode, "--out", prefix], tracer)
                problems = self._checked(known.check_fold, job, code, prefix)
            else:
                code, out, secs = self._cli(
                    ["verify", *model, prefix + ".json", prefix + ".bin", "--grad", *job.verify_args],
                    tracer)
                problems = self._checked(known.check_verify, job, code, out)
            stats.attempted += 1
            stats.times[command].append(secs)
            if self.probe is not None:
                self.probe.record(f"{command}_s", secs)
            stats.exits[code] += 1
            stats.outcomes[(job.key, command)] = stats.outcomes.get((job.key, command), True) and not problems
            if command == "fold" and not problems and code == 0:
                folded = (prefix + ".json", prefix + ".bin")
            if problems:
                defect = known.defect_reason(job, command) if code == 2 else None
                stats.failures[(job.key, command, "; ".join(problems), defect)] += 1
                for skipped in commands[i + 1:]:
                    stats.attempted += 1
                    stats.failures[(job.key, skipped, f"not run: {command} failed", None)] += 1
                    stats.outcomes[(job.key, skipped)] = False
                break
        stats.jobs += 1
        return folded

    @staticmethod
    def _checked(check, job, *args) -> list[str]:
        try:
            return check(job, *args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _check_analyze(self, job, code, out, report, stats: Stats) -> list[str]:
        problems = self._checked(known.check_analyze, job, code, out, report)
        if code == 0 and not problems:
            with open(report, encoding="utf-8") as fh:
                counts = json.load(fh)["counts"]
            stats.report_bytes += os.path.getsize(report)
            stats.layer_norms += counts["layer_norms"]
            stats.foldable += counts["foldable"]
        return problems


class ForwardTimer:
    """Times ``tensor_math.forward`` of a job's original and folded model on a
    fixed, seeded batch, right after the job, so the samples spread over the
    whole run as the command timings do. Rounds alternate which model goes
    first."""

    def __init__(self, seed: int, probe: SpeedProbe | None = None):
        self.seed = seed
        self.probe = probe
        self.orig_ms: list[float] = []
        self.folded_ms: list[float] = []
        self.widths: dict[str, list[int]] = {}  # model stem -> width of each RMSNorm

    def _batch(self, g, stem: str) -> dict[str, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64([self.seed, zlib.crc32(stem.encode())]))
        batch = {}
        for nid in g.inputs:
            attrs = g.nodes[nid].attrs
            shape = (FORWARD_BATCH, *attrs["shape"])
            if attrs.get("integer"):
                batch[nid] = rng.integers(0, int(attrs.get("high", 2)), size=shape)
            else:
                batch[nid] = rng.uniform(-2.0, 2.0, size=shape)
        return batch

    def time(self, model: tuple[str, str], folded: tuple[str, str], stem: str, folded_first: bool) -> None:
        orig_gw = load_model(*model)
        folded_gw = load_model(*folded)
        batch = self._batch(orig_gw[0], stem)
        if stem not in self.widths:
            shapes = infer_shapes(*folded_gw)
            self.widths[stem] = [shapes[nid][-1] for nid, node in folded_gw[0].nodes.items()
                                 if node.kind == "RMSNorm"]
        order = [(orig_gw, self.orig_ms), (folded_gw, self.folded_ms)]
        for round_ in range(FORWARD_ROUNDS):
            if self.probe is not None:
                self.probe.maybe_sample()
            for (g, w), sink in (order[::-1] if folded_first ^ (round_ % 2 == 1) else order):
                start = time.perf_counter()
                forward(g, w, batch)
                sink.append(1e3 * (time.perf_counter() - start))
                if sink is self.folded_ms and self.probe is not None:
                    self.probe.record("folded_forward_ms", sink[-1])


def loop_untraced(client: Client, jobs: list, seconds: float, timer: ForwardTimer) -> Stats:
    """Closed loop over the pass until the time is up, and at least one whole
    pass, so every operation of the pass runs. Between jobs it times the
    forward passes and, spread evenly over the run, the CLI cold starts."""
    stats = Stats()
    start = time.perf_counter()
    i = 0
    while (elapsed := time.perf_counter() - start) < seconds or i < len(jobs):
        if len(stats.setup) < COLD_STARTS and elapsed >= len(stats.setup) * seconds / COLD_STARTS:
            stats.setup.append(cold_start_seconds())
            client.probe.record("setup_s", stats.setup[-1])
        job = jobs[i % len(jobs)]
        job_start = time.perf_counter()
        folded = client.run(job, stats)
        stats.job_secs[i % len(jobs)].append(time.perf_counter() - job_start)
        client.probe.record(f"job{i % len(jobs)}", stats.job_secs[i % len(jobs)][-1])
        if folded:
            timer.time(workloads.model_paths(client.workdir, job.model), folded, job.model.stem, i % 2 == 1)
        i += 1
    return stats


def loop_traced(client: Client, jobs: list, seconds: float, tracer, timer: ForwardTimer) -> tuple[Stats, Stats]:
    """Whole passes, each job once untraced and once traced, in alternating
    order. Passes repeat while the next one is expected to end in time, so
    per-job counts do not depend on how many passes ran."""
    plain, traced = Stats(), Stats()
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for index, job in enumerate(jobs):
            tracer.job = passes * len(jobs) + index
            for run_traced in ((False, True) if index % 2 == 0 else (True, False)):
                if run_traced:
                    tracer.install()
                    try:
                        folded = client.run(job, traced, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    client.run(job, plain)
            if folded:
                timer.time(workloads.model_paths(client.workdir, job.model), folded, job.model.stem,
                           index % 2 == 1)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return plain, traced


def operation_counts(runs: list[Stats]) -> tuple[int, int]:
    """(attempted, failed) over the distinct operations, each a command of
    one job of the pass: failed if it ever gave a wrong answer. Unlike the
    count of commands run, this does not depend on how many passes fit in
    the time, so two runs of one seed report the same numbers."""
    outcomes: dict[tuple[str, str], bool] = {}
    for stats in runs:
        for op, ok in stats.outcomes.items():
            outcomes[op] = outcomes.get(op, True) and ok
    return len(outcomes), sum(not ok for ok in outcomes.values())


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9, p99, p95, p90, p75 and p50 with at least ten
    samples beyond it, as (percentile, value by nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def machine_note(seed: int, pinned: str, probe: SpeedProbe | None) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (
        f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas} {pinned} seed={seed}; "
        "load: closed loop, 1 client, each job's commands run one after another"
        + ("" if probe is None else
           f"; speed probe: median {statistics.median(probe.ms):.4f} ms over n={len(probe.ms)}, "
           f"reference {REFERENCE_MS:g} ms; each timed sample is scaled by the probes around it")
    )


def paper_claim(timer: ForwardTimer) -> str:
    orig, folded = statistics.median(timer.orig_ms), statistics.median(timer.folded_ms)
    widths = [d for ds in timer.widths.values() for d in ds]
    savings = sorted({1.0 - flops_estimate("rms", "naive", d).ticks / flops_estimate("ln", "naive", d).ticks
                      for d in widths})
    predicted = "n/a" if not savings else " to ".join(sorted({f"{savings[0]:.3f}", f"{savings[-1]:.3f}"}))
    return (
        f"paper claim: tensor_math.orig_forward_ms={orig:.4f} folded_forward_ms={folded:.4f} "
        f"forward_saving_frac={1.0 - folded / orig:+.4f} (whole model, batch {FORWARD_BATCH}, "
        f"n={len(timer.folded_ms)}) beside flops_estimate naive per-layer saving {predicted} "
        f"over {len(widths)} folded norms of {len(timer.widths)} models. This times the numpy "
        "engine, not fused kernels; per-node LayerNorm timing needs tracing inside forward "
        "and is left to a later change."
    )


def failure_lines(stats: list[Stats]) -> list[str]:
    merged: Counter = Counter()
    for s in stats:
        merged.update(s.failures)
    if not merged:
        return ["failures: none"]
    return ["failures (each with its reason):"] + [
        f"  {key} {command}: {reason} (x{count}); "
        + (f"known defect: {defect}" if defect else "UNEXPLAINED")
        for (key, command, reason, defect), count in sorted(merged.items(), key=str)
    ]


def metric_line(name: str, value: float, unit: str, samples: list[float] | int | None,
                raw: float | None = None) -> str:
    """One printed metric; samples are the raw timings behind a median, or
    the count behind a rate or share. ``raw`` is the value before scaling to
    the reference speed."""
    line = f"  {name:<34} {value:>14.6g} {unit:<6}"
    if raw is not None:
        line += f" raw={raw:.6g}"
    if isinstance(samples, int):
        line += f" n={samples}"
    elif samples is not None:
        line += f" n={len(samples)}"
        high = high_percentile(samples)
        if high is not None:
            line += f" raw p{high[0]:g}={high[1]:.6g} (not gated)"
    return line


def jobs_per_second(job_secs: dict[int, list[float]]) -> float:
    """Jobs differ in size, so a run that stops partway through a pass would
    weigh them unevenly: the rate is that of whole passes, each place in the
    pass taking its median duration."""
    return len(job_secs) / sum(statistics.median(v) for v in job_secs.values())


def at_reference_speed(raw: dict, probe: SpeedProbe) -> dict:
    """The end-to-end metrics with every time sample scaled by the probe."""
    values = dict(raw)
    for name in TIME_METRICS:
        values[name] = statistics.median(probe.scaled(name))
    places = [name for name in probe.samples if name.startswith("job")]
    values["jobs_per_s"] = jobs_per_second({name: probe.scaled(name) for name in places})
    return values


def end_to_end(stats: Stats, timer: ForwardTimer) -> tuple[dict, dict]:
    """Each end-to-end metric, unscaled, and the samples or counts behind it."""
    samples = {
        "setup_s": stats.setup,
        "analyze_s": stats.times["analyze"],
        "fold_s": stats.times["fold"],
        "verify_s": stats.times["verify"],
        "folded_forward_ms": timer.folded_ms,
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    samples.update(jobs_per_s=stats.jobs, ok_frac=stats.attempted)
    values["jobs_per_s"] = jobs_per_second(stats.job_secs)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = 1.0 - sum(stats.failures.values()) / stats.attempted
    return {name: values[name] for name in END_TO_END_UNITS}, samples


def per_layer(tracer, traced: Stats, timer: ForwardTimer) -> dict[str, float]:
    """Each per-layer metric, per traced job."""
    values = tracing.layer_metrics(tracer, traced.jobs)
    orig = statistics.median(timer.orig_ms)
    values["fold_detect.report_kb"] = traced.report_bytes / 1024.0 / traced.jobs
    values["fold_detect.foldable_frac"] = traced.foldable / max(1, traced.layer_norms)
    values["tensor_math.orig_forward_ms"] = orig
    values["tensor_math.forward_saving_frac"] = 1.0 - statistics.median(timer.folded_ms) / orig
    values["cli.exit1"] = traced.exits[1] / traced.jobs
    values["cli.exit2"] = traced.exits[2] / traced.jobs
    return values


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_kb", "KB"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def overhead_lines(tracer, plain: Stats, traced: Stats) -> list[str]:
    lines = ["tracing overhead (traced minus untraced median, same jobs):"]
    for command in ("analyze", "fold", "verify"):
        if plain.times[command] and traced.times[command]:
            u = statistics.median(plain.times[command])
            t = statistics.median(traced.times[command])
            lines.append(f"  {command}: {1e3 * (t - u):+.3f} ms ({(t - u) / u:+.2%}) over n={len(traced.times[command])}")
    selfs = tracing.self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s.name == "cli.analyze"]
    if roots:
        gaps = [abs(tracing.subtree_self_total(tracer.spans, selfs, i)
                    - (tracer.spans[i].end - tracer.spans[i].start)) for i in roots]
        lines.append(f"  self times under each of {len(roots)} analyze spans sum to its wall time "
                     f"within {1e6 * max(gaps):.3f} us; per-analyze self ms by span:")
        by_name: Counter = Counter()
        below = set(roots)
        for i, span in enumerate(tracer.spans):
            if i in below or span.parent in below:
                below.add(i)
                by_name[span.name] += selfs[i]
        for name, secs in by_name.most_common():
            lines.append(f"    {name:<28} {1e3 * secs / len(roots):10.3f}")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, pinned: str) -> dict:
    """Run one workload and print its report; returns the result object."""
    jobs = workloads.job_list(workload, seed)
    probe = None if trace else SpeedProbe()
    timer = ForwardTimer(seed, probe)
    run_dir = os.path.join(ROOT, ".lnbench_run", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        workloads.write_models(jobs, run_dir)
        client = Client(run_dir, probe)
        if trace:
            tracer = tracing.Tracer()
            plain, traced = loop_traced(client, jobs, seconds, tracer, timer)
            runs = [plain, traced]
        else:
            plain = loop_untraced(client, jobs, seconds, timer)
            runs = [plain]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"lnbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(machine_note(seed, pinned, probe))
    print(paper_claim(timer))
    if trace:
        out_dir = os.path.join(ROOT, ".lnbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
        tracer.write(spans_path)
        metrics = per_layer(tracer, traced, timer)
        units = {name: layer_unit(name) for name in metrics}
        print(f"per-layer metrics, per job over {traced.jobs} traced jobs "
              f"(spans: {os.path.relpath(spans_path, ROOT)}):")
        for name, value in metrics.items():
            print(metric_line(name, value, units[name], None))
        print("\n".join(overhead_lines(tracer, plain, traced)))
    else:
        raw, samples = end_to_end(plain, timer)
        metrics = at_reference_speed(raw, probe)
        units = END_TO_END_UNITS
        print(f"end-to-end metrics over {plain.jobs} jobs, {sum(map(sum, plain.job_secs.values())):.2f} s "
              "inside jobs (medians at the reference speed, raw medians and tails for information):")
        for name, value in metrics.items():
            print(metric_line(name, value, units[name], samples.get(name),
                              raw[name] if value != raw[name] else None))
    print("\n".join(failure_lines(runs)))
    failures: Counter = Counter()
    for s in runs:
        failures.update(s.failures)
    attempted, failed = operation_counts(runs)
    return {
        "correct": all(defect for (_key, _command, _reason, defect) in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
