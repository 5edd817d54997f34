"""Self-tests of the benchmark: the known-answer checks, the self-time
arithmetic, the repeatability of per-layer counts, and seeded job lists.

Run from the root of a checkout: ``python3 -m pytest lnbench/tests``.
"""

import json

import bench
import known
import tracing
import workloads
from tracing import Span


def _fleet_job(key):
    return next(job for job in workloads.job_list("fixture_fleet", 0) if job.key == key)


def test_known_answer_check_rejects_wrong_exit_code_and_fold_count(tmp_path):
    job = _fleet_job("post_ln_transformer:strict")
    workloads.write_models([job], str(tmp_path))
    client = bench.Client(str(tmp_path))
    stats = bench.Stats()
    client.run(job, stats)
    assert stats.attempted == 3 and not stats.failures

    report_path = str(tmp_path / "post_ln_transformer.strict.report.json")
    assert known.check_analyze(job, 0, "", report_path) == []
    assert known.check_analyze(job, 1, "", report_path) == ["exit 1, expected 0"]
    with open(report_path) as fh:
        report = json.load(fh)
    report["counts"]["foldable"] = 1
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    problems = known.check_analyze(job, 0, "", report_path)
    assert len(problems) == 1 and problems[0].startswith("counts")

    prefix = str(tmp_path / "post_ln_transformer.strict.folded")
    assert known.check_fold(job, 0, prefix) == []
    assert known.check_fold(job, 1, prefix) == ["exit 1, expected 0"]
    # A fold that turned no LayerNorm into an RMSNorm is a wrong fold count.
    with open(prefix + ".json") as fh:
        folded = json.load(fh)
    for node in folded["nodes"]:
        if node["kind"] == "RMSNorm":
            node["kind"] = "LayerNorm"
    with open(prefix + ".json", "w") as fh:
        json.dump(folded, fh)
    assert known.check_fold(job, 0, prefix)[0].startswith("folded model has")

    # The fan-out trap must be refused: exit 0 is a wrong answer.
    trap = _fleet_job("fanout_trap:strict")
    assert known.check_fold(trap, 0, str(tmp_path / "absent")) == ["exit 0, expected 1 (refused fold)"]
    assert known.check_verify(job, 2, '{"forward": {"pass": false}}')[0].startswith("exit 2")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the overlap is counted once
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("c", 8.0, 12.0, 0, 0),  # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_self_times_of_nested_spans_sum_to_the_root_duration():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.5, 0, 0),
        Span("other", 11.0, 12.0, None, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [2.5, 2.0, 1.0, 4.5, 1.0]
    assert tracing.subtree_self_total(spans, selfs, 0) == 10.0


def _traced_counts(directory):
    jobs = workloads.job_list("fixture_fleet", 3)
    directory.mkdir()
    workloads.write_models(jobs, str(directory))
    tracer = tracing.Tracer()
    _plain, traced = bench.loop_traced(bench.Client(str(directory)), jobs, 0.0, tracer, bench.ForwardTimer(3))
    metrics = tracing.layer_metrics(tracer, traced.jobs)
    counts = {name: metrics[name] for name in (*tracing.CALLS, *tracing.COUNTERS)}
    counts.update(exits=dict(traced.exits), report_bytes=traced.report_bytes, jobs=traced.jobs)
    return counts


def test_per_layer_counts_repeat_exactly_for_one_seed(tmp_path):
    first = _traced_counts(tmp_path / "first")
    second = _traced_counts(tmp_path / "second")
    assert first == second
    assert first["graph_ir.adjacency_calls"] > 0 and first["fold_detect.detect_calls"] > 0


def test_a_second_seed_generates_a_different_job_list():
    for workload in workloads.WORKLOADS:
        assert workloads.job_list(workload, 1) == workloads.job_list(workload, 1)
        assert workloads.job_list(workload, 1) != workloads.job_list(workload, 2)


def test_operation_counts_do_not_depend_on_how_many_passes_ran():
    one_pass = bench.Stats(outcomes={("a:strict", "analyze"): True, ("a:strict", "verify"): False,
                                     ("b:strict", "fold"): True})
    # A second pass repeats the operations; one that was right before is now wrong.
    two_passes = bench.Stats(outcomes={("a:strict", "analyze"): True, ("a:strict", "verify"): False,
                                       ("b:strict", "fold"): False})
    assert bench.operation_counts([one_pass]) == (3, 1)
    assert bench.operation_counts([one_pass, two_passes]) == (3, 2)


def test_speed_probe_scales_each_sample_by_the_probes_around_it():
    probe = bench.SpeedProbe()
    ref = bench.REFERENCE_MS
    probe.ms = [ref, ref]
    probe.record("fold_s", 1.0)  # between probes 1 and 2, both at reference speed
    probe.ms += [2 * ref, 2 * ref, 2 * ref]
    probe.record("fold_s", 1.0)  # after probe 4, among probes at half speed
    assert probe.scaled("fold_s") == [1.0, 0.5]
    probe.sample()
    assert len(probe.ms) == 6 and probe.ms[-1] > 0
