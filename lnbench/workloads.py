"""Workloads of the lnfold benchmark: the job lists and the model files they use.

A job is one user's round trip on one model: ``lnfold analyze`` then
``lnfold fold`` then ``lnfold verify --grad``. Each workload turns its seed
into a pass, an ordered list of jobs, which the benchmark repeats in a closed
loop. The models are generated with ``lnfold.fixtures`` and written to disk,
so lnfold itself only ever receives model files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from lnfold import fixtures
from lnfold.graph_ir import WeightStore, save_model


@dataclass(frozen=True)
class Model:
    """One generated model file pair, ``<stem>.json`` and ``<stem>.bin``."""

    stem: str
    fixture: str
    kwargs: tuple[tuple[str, int], ...]
    f32: bool = False

    @property
    def blocks(self) -> int:
        return dict(self.kwargs).get("blocks", 2)


@dataclass(frozen=True)
class Job:
    """One analyze -> fold -> verify round trip, or, when ``stale_of`` names
    another job of the pass, a single ``fold`` of this model with that job's
    report, which lnfold must refuse."""

    key: str
    model: Model
    mode: str
    verify_args: tuple[str, ...] = ()
    stale_of: str | None = None


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _pre_ln(stem: str, rng: np.random.Generator, **dims: int) -> Model:
    return Model(stem, "pre_ln_transformer", tuple(sorted(dims.items())) + (("seed", _seed(rng)),))


def deep_stack(rng: np.random.Generator) -> list[Job]:
    """Narrow pre-LN stacks of 24-48 blocks (196-388 nodes) in practical mode.

    The graph layers do the work: detection is super-linear in depth and the
    report grows quadratically, while the tensors stay small. The pass is
    depth 36 before each of four (lower, higher) pairs drawn from strata of
    width 3 on either side of it. So 36 is the median depth of any prefix of
    the loop, a third of the samples sit at it, and each of them follows a
    deeper model: the median command time depends neither on which depths a
    seed drew nor on what ran just before.
    """
    center = _pre_ln("pre_ln_b36", rng, d=32, hidden=128, seq=8, blocks=36)
    verify_args = ("--trials", "10", "--grad-trials", "2", "--seed", str(_seed(rng)))
    jobs: list[Job] = []
    for k in range(4):
        low = 36 - (3 * k + 1) - int(rng.integers(3))
        high = 36 + (3 * k + 1) + int(rng.integers(3))
        models = [center] + [_pre_ln(f"pre_ln_b{b}", rng, d=32, hidden=128, seq=8, blocks=b)
                             for b in (low, high)]
        jobs += [Job(f"{m.stem}:practical", m, "practical", verify_args) for m in models]
    return jobs


def wide_model(rng: np.random.Generator) -> list[Job]:
    """Two-block pre-LN models at d = 256, 384 and 512 (hidden 4d, seq 32,
    f64) in practical mode, verified with the default trial counts.

    At 20 nodes the graph layers are negligible: tensor math, weight hashing
    and 10-40 MB of weight I/O do the work. A job takes 2-7 s, so a run holds
    few of them; d = 384 fills three places of the five-job pass so that the
    median of a run rests on several samples of it.
    """
    models = {d: _pre_ln(f"pre_ln_d{d}", rng, d=d, hidden=4 * d, seq=32, blocks=2)
              for d in (256, 384, 512)}
    verify_args = ("--seed", str(_seed(rng)))
    return [Job(f"{models[d].stem}:practical", models[d], "practical", verify_args)
            for d in (256, 384, 384, 384, 512)]


def fixture_fleet(rng: np.random.Generator) -> list[Job]:
    """Every fixture in both modes, f32 copies of the strictly foldable ones,
    and one stale-report fold.

    The models are tiny, so fixed per-command costs and the error paths do
    the work: a refused fold, a stale report and the f32 verify.
    """
    verify_args = ("--seed", str(_seed(rng)))
    jobs: list[Job] = []
    for name in fixtures.ALL_FIXTURES:
        model = Model(name, name, (("seed", _seed(rng)),))
        jobs += [Job(f"{name}:{mode}", model, mode, verify_args) for mode in ("strict", "practical")]
    for name in fixtures.STRICT_FOLDABLE_FIXTURES:
        model = Model(f"{name}_f32", name, (("seed", _seed(rng)),), f32=True)
        jobs.append(Job(f"{name}_f32:strict", model, "strict", verify_args))
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]

    # Re-seeded weights give the same graph a different content hash.
    name = sorted(fixtures.STRICT_FOLDABLE_FIXTURES)[int(rng.integers(len(fixtures.STRICT_FOLDABLE_FIXTURES)))]
    stale = Model(f"{name}_stale", name, (("seed", _seed(rng)),))
    jobs.append(Job(f"{name}_stale:strict", stale, "strict", stale_of=f"{name}:strict"))
    return jobs


WORKLOADS = {
    "deep_stack": deep_stack,
    "wide_model": wide_model,
    "fixture_fleet": fixture_fleet,
}


def job_list(workload: str, seed: int) -> list[Job]:
    """The pass of one workload; the same seed always gives the same list."""
    return WORKLOADS[workload](np.random.Generator(np.random.PCG64(seed)))


def write_models(jobs: list[Job], directory: str) -> None:
    """Generate every model the jobs use and save it as model files."""
    written: set[str] = set()
    for job in jobs:
        model = job.model
        if model.stem in written:
            continue
        g, w = fixtures.ALL_FIXTURES[model.fixture](**dict(model.kwargs))
        if model.f32:
            w = WeightStore({name: arr.astype(np.float32) for name, arr in w.items()})
        save_model(g, w, *model_paths(directory, model))
        written.add(model.stem)


def model_paths(directory: str, model: Model) -> tuple[str, str]:
    base = os.path.join(directory, model.stem)
    return base + ".json", base + ".bin"
