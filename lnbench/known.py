"""Hand-written known answers for every command the benchmark runs.

The table comes from the fixture docstrings, the README and the acceptance
criteria (criterion 1: detection counts; criterion 7: the fan-out trap is
unsafe and its fold is refused). It is never derived by running lnfold.

Each ``check_*`` function returns the list of ways a command's result
differs from its known answer; an empty list means the command was right.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from workloads import Job


@dataclass(frozen=True)
class Answer:
    """What detection must find on one model."""

    layer_norms: int
    strict: int
    practical: int = 0
    insertions: int = 0
    insert_after: tuple[str, ...] = ()
    affected: tuple[str, ...] = ()

    def counts(self, mode: str) -> dict[str, int]:
        practical = self.practical if mode == "practical" else 0
        return {
            "layer_norms": self.layer_norms,
            "foldable": self.strict + practical,
            "strict": self.strict,
            "practical": practical,
            "insertions": self.insertions if mode == "practical" else 0,
        }


FIXTURE_ANSWERS = {
    # Linear -> LayerNorm, and the same guarantee through scalar layers,
    # a residual add of two linear branches, and a recurrent cell.
    "linear_then_norm": Answer(1, 1),
    "scale_chain": Answer(1, 1),
    "residual_scale_mix": Answer(1, 1),
    "recurrent_then_norm": Answer(1, 1),
    # One LayerNorm after each of the two linears.
    "mlp_classifier": Answer(2, 2),
    # Criterion 1: both LayerNorms strictly foldable.
    "post_ln_transformer": Answer(2, 2),
    # Concat, ReLU and Softmax block their single LayerNorm; one insertion
    # would rescue only one LayerNorm, below the planner's margin of two.
    "concat_then_norm": Answer(1, 0),
    "relu_then_norm": Answer(1, 0),
    "softmax_then_norm": Answer(1, 0),
    # Criterion 7: foldable by dataflow, but centering would perturb the ReLU.
    "fanout_trap": Answer(1, 1, affected=("act",)),
    # No LayerNorm at all.
    "conv_block": Answer(0, 0),
    # Conv centers the channel axis, the LayerNorm normalizes width.
    "conv_then_norm": Answer(1, 0),
}


def answer_for(job: Job) -> Answer:
    if job.model.fixture == "pre_ln_transformer":
        # B blocks have 2B+1 LayerNorms, none strictly foldable, all rescued by
        # one centering inserted after the embedding.
        n = 2 * job.model.blocks + 1
        return Answer(n, 0, practical=n, insertions=1, insert_after=("embed",))
    return FIXTURE_ANSWERS[job.model.fixture]


# Wrong answers whose cause is known. They still count as failed.
KNOWN_DEFECTS = {
    ("verify", "f32"): (
        "f32 models are verified at the default tolerance 1e-9, not at the "
        "1e-5 the README promises for f32"
    ),
}


def defect_reason(job: Job, command: str) -> str | None:
    return KNOWN_DEFECTS.get((command, "f32" if job.model.f32 else "f64"))


def _verify_defaults(job: Job) -> tuple[int, int, int]:
    """(trials, grad trials, seed) the verify command must report."""
    args = dict(zip(job.verify_args[::2], job.verify_args[1::2]))
    return int(args.get("--trials", 100)), int(args.get("--grad-trials", 20)), int(args.get("--seed", 0))


def check_analyze(job: Job, code: int | None, stdout: str, report_path: str) -> list[str]:
    if code != 0:
        return [f"exit {code}, expected 0"]
    problems = [] if not stdout else ["wrote to stdout despite --out"]
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    answer = answer_for(job)
    expected = answer.counts(job.mode)
    if report["counts"] != expected:
        problems.append(f"counts {report['counts']}, expected {expected}")
    safety = {"safe": not answer.affected, "affected": sorted(answer.affected)}
    if report["safety"] != safety:
        problems.append(f"safety {report['safety']}, expected {safety}")
    after = tuple(ins["after"] for ins in report["insertions"])
    if job.mode == "practical" and after != answer.insert_after:
        problems.append(f"insertions after {after}, expected {answer.insert_after}")
    return problems


def check_fold(job: Job, code: int | None, prefix: str) -> list[str]:
    answer = answer_for(job)
    written = os.path.exists(prefix + ".json") or os.path.exists(prefix + ".bin")
    if job.stale_of or answer.affected:
        if code != 1:
            return [f"exit {code}, expected 1 (refused fold)"]
        return ["wrote a model despite refusing"] if written else []
    if code != 0:
        return [f"exit {code}, expected 0"]
    with open(prefix + ".json", encoding="utf-8") as fh:
        kinds = [node["kind"] for node in json.load(fh)["nodes"]]
    counts = answer.counts(job.mode)
    want = {
        "LayerNorm": counts["layer_norms"] - counts["foldable"],
        "RMSNorm": counts["foldable"],
        "AuxiliaryCentering": counts["insertions"],
    }
    got = {kind: kinds.count(kind) for kind in want}
    return [] if got == want else [f"folded model has {got}, expected {want}"]


def check_verify(job: Job, code: int | None, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit {code}, expected 0"]
    doc = json.loads(stdout)
    trials, grad_trials, seed = _verify_defaults(job)
    problems = []
    for part, n in (("forward", trials), ("gradients", grad_trials)):
        got = doc.get(part, {})
        if (got.get("pass"), got.get("trials"), got.get("seed")) != (True, n, seed):
            problems.append(
                f"{part}: pass={got.get('pass')} trials={got.get('trials')} seed={got.get('seed')}, "
                f"expected pass=True trials={n} seed={seed}"
            )
    return problems


def commands_for(job: Job) -> tuple[str, ...]:
    """The commands a job must run when every earlier one gives its known answer."""
    if job.stale_of:
        return ("fold",)
    if answer_for(job).affected:
        return ("analyze", "fold")
    return ("analyze", "fold", "verify")
