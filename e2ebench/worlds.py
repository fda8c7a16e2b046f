"""Seeded inputs for the end-to-end benchmark.

Every world is a pure function of its seed: the same seed gives the same
testsets, baseline and commit stream, so build fingerprints, bytes
written and cache counts repeat exactly from run to run.  The program
under test only ever sees the generated models and testsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Any

import numpy as np

from repro.ci.persistence import EventJournal
from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.fleet.intake import IntakeQueue
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)

#: commit-durable and fleet-churn: 1,716-label testsets under ``full``.
CONDITION_DURABLE = "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1"
#: push-batch: 12,967-label testsets under ``none``.
CONDITION_BATCH = "n > 0.8 +/- 0.02"
THIRD_PARTY = "none -> integration-team@example.com"


def make_script(condition: str, adaptivity: str, steps: int) -> CIScript:
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": condition,
            "reliability": 0.999,
            "mode": "fp-free",
            "adaptivity": adaptivity,
            "steps": steps,
        }
    )


@dataclass
class World:
    """One tenant's inputs: script, testset generations, baseline, commits."""

    script: CIScript
    testsets: list[Testset]
    baseline: Any
    models: list[Any]
    nonce: str
    estimator_config: dict[str, Any] | None = None

    def estimator(self) -> SampleSizeEstimator:
        return SampleSizeEstimator(**(self.estimator_config or {}))

    def plan(self):
        script = self.script
        return self.estimator().plan(
            script.condition,
            delta=script.delta,
            adaptivity=script.adaptivity,
            steps=script.steps,
            known_variance_bound=script.variance_bound,
        )

    def service(self) -> CIService:
        """A fresh in-memory service over this world (pool installed)."""
        kwargs = {}
        if self.estimator_config:
            kwargs["estimator"] = self.estimator()
        service = CIService(
            self.script,
            self.testsets[0],
            self.baseline,
            repository=ModelRepository(nonce=self.nonce),
            **kwargs,
        )
        service.install_testset_pool(TestsetPool(self.testsets[1:]))
        return service


def make_world(
    script: CIScript,
    commits: int,
    generations: int,
    seed: int,
    *,
    estimator_config: dict[str, Any] | None = None,
) -> World:
    """A commit stream evolving from a baseline.

    Every fourth commit is a real improvement (and becomes the base later
    commits evolve from); the rest are sideways moves.
    """
    world = World(script, [], None, [], f"bench-{seed}", estimator_config)
    pool_size = world.plan().pool_size
    rng = np.random.default_rng(seed)
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.80, difference=0.0),
        n_examples=pool_size,
        seed=int(rng.integers(2**31)),
    )
    labels = pair.labels
    current = pair.old_model.predictions
    for index in range(commits):
        improves = index % 4 == 2
        predictions = evolve_predictions(
            current,
            labels,
            target_accuracy=0.90 if improves else 0.82,
            difference=0.12,
            seed=int(rng.integers(2**31)),
        )
        world.models.append(FixedPredictionModel(predictions, name=f"m{index}"))
        if improves:
            current = predictions
    world.testsets.append(Testset(labels=labels, name="gen-0"))
    for generation in range(1, generations):
        world.testsets.append(
            Testset(
                labels=rng.integers(0, 2, size=pool_size), name=f"gen-{generation}"
            )
        )
    world.baseline = pair.old_model
    return world


def fingerprint(builds) -> list[tuple]:
    """What a build decided, comparable across processes and restarts."""
    return [
        (
            build.build_number,
            build.commit.commit_id,
            build.commit.status.value,
            build.generation,
            build.result.promoted if build.result else None,
            build.result.testset_uses if build.result else None,
        )
        for build in builds
    ]


class LogicalClock:
    """A deterministic stand-in for the wall clock journals stamp records with.

    Journal and intake lines carry a timestamp and a CRC over the line, so
    with the wall clock the bytes written vary from run to run.  Both
    take their clock as a parameter; feeding this one (reset at the start
    of every episode) makes every byte a function of the seed.  Stamps
    are operational metadata: no decision reads them.
    """

    epoch = datetime(2026, 1, 1, tzinfo=timezone.utc)

    def __init__(self) -> None:
        self.ticks = 0

    def reset(self) -> None:
        self.ticks = 0

    def __call__(self) -> datetime:
        self.ticks += 1
        return self.epoch + timedelta(microseconds=1000 * self.ticks + 1)

    def install(self) -> "LogicalClock":
        """Default every journal and intake queue to this clock."""

        def defaulting(function):
            def with_clock(*args, clock=None, **kwargs):
                return function(*args, clock=clock or self, **kwargs)

            return with_clock

        EventJournal.__init__ = defaulting(EventJournal.__init__)
        IntakeQueue.__init__ = defaulting(IntakeQueue.__init__)
        IntakeQueue.create = classmethod(defaulting(IntakeQueue.create.__func__))
        return self
