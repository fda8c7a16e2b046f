"""The four benchmark workloads, each driven by one closed-loop client.

A workload builds its seeded inputs and in-memory reference once, then
runs *episodes*: :meth:`Workload.setup` builds a fresh world in a state
directory (timed as ``setup_s``), :meth:`Workload.ops` yields the timed
operations in order (work between yields is untimed), and
:meth:`Workload.finish` gates the builds against the reference.  Every
episode of one seed replays the same inputs, so its exact counts (bytes
written, state bytes, hydrations, ...) must repeat.  Op counts are fixed
per workload because snapshot cost grows with history.
"""

from __future__ import annotations

import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.testset import TestsetPool
from repro.fleet import CIFleet
from repro.reliability.storage import directory_bytes
from repro.stats.cache import clear_all_caches

from worlds import (
    CONDITION_BATCH,
    CONDITION_DURABLE,
    THIRD_PARTY,
    World,
    fingerprint,
    make_script,
    make_world,
)


@dataclass
class Outcome:
    """What one episode produced, for the correctness gate and the counts."""

    builds: int
    skipped_ops: int
    mismatches: list[str]
    state_bytes: int
    state_builds: int
    labels_per_build: float
    counters: dict[str, int] = field(default_factory=dict)


def _labels_per_build(service: CIService) -> float:
    """Plan pool size ÷ per-generation budget: the paper's label cost."""
    return service.plan.pool_size / service.engine.manager.budget


def _mismatch(what: str, got: list, expected: list) -> list[str]:
    if got == expected:
        return []
    return [f"{what}: {len(got)} builds differ from the {len(expected)} of the reference"]


class Workload:
    """One workload: seeded inputs, a fixed op count, a reference gate."""

    name = ""
    op = ""
    ops_per_episode = 0
    #: The reported tail percentile; run.py takes it over blocks of whole
    #: episodes holding at least ten samples beyond it.
    tail_percentile = 0.0
    #: Fewest timed episodes in an end-to-end run, however short ``--seconds``.
    min_episodes = 3
    sync = True

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, state_dir: Path) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Callable[[], Any]]:
        raise NotImplementedError

    def finish(self, state_dir: Path) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release the episode's live objects."""


class _ServiceWorkload(Workload):
    """One persisted ``CIService``; subclasses choose the world and the op."""

    snapshot_every = 16
    keep_snapshots = 3
    steps = 32

    def make_world(self) -> World:
        raise NotImplementedError

    def ops_for(self, service: CIService, world: World) -> Iterator[Callable[[], Any]]:
        raise NotImplementedError

    def skipped_ops(self, builds) -> int:
        return sum(not build.ran for build in builds)

    def __init__(self, seed: int):
        super().__init__(seed)
        world = self.make_world()
        reference = world.service()
        for op in self.ops_for(reference, world):
            op()
        self.reference = fingerprint(reference.builds)
        self.service: CIService | None = None

    def setup(self, state_dir: Path) -> None:
        clear_all_caches()
        self.world = self.make_world()
        self.service = self.world.service()
        self.service.persist_to(
            state_dir,
            snapshot_every=self.snapshot_every,
            keep_snapshots=self.keep_snapshots,
            sync=self.sync,
        )

    def ops(self) -> Iterator[Callable[[], Any]]:
        return self.ops_for(self.service, self.world)

    def finish(self, state_dir: Path) -> Outcome:
        builds = self.service.builds
        return Outcome(
            builds=len(builds),
            skipped_ops=self.skipped_ops(builds),
            mismatches=_mismatch(self.name, fingerprint(builds), self.reference),
            state_bytes=directory_bytes(state_dir),
            state_builds=len(builds),
            labels_per_build=_labels_per_build(self.service),
        )

    def close(self) -> None:
        self.service = self.world = None


class CommitDurable(_ServiceWorkload):
    """The developer webhook: one durable ``repository.commit`` per op."""

    name = "commit-durable"
    op = "commit"
    ops_per_episode = 256
    tail_percentile = 96.0

    def make_world(self) -> World:
        script = make_script(CONDITION_DURABLE, "full", self.steps)
        commits = self.ops_per_episode
        return make_world(script, commits, commits // self.steps + 2, self.seed)

    def ops_for(self, service, world):
        commit = service.repository.commit
        for model in world.models:
            yield lambda model=model: commit(model)


class PushBatch(_ServiceWorkload):
    """Batched pushes: one ``CIService.process_batch`` of 16 models per op."""

    name = "push-batch"
    op = "push"
    push_size = 16
    #: Odd: a push costs more the longer the history, so each push of an
    #: episode has its own latency band, and with an even count the median
    #: (and p75) would fall on the edge between two bands.
    ops_per_episode = 9
    tail_percentile = 75.0

    def make_world(self) -> World:
        script = make_script(CONDITION_BATCH, THIRD_PARTY, self.steps)
        commits = self.ops_per_episode * self.push_size
        return make_world(script, commits, commits // self.steps + 2, self.seed)

    def ops_for(self, service, world):
        size = self.push_size
        for start in range(0, len(world.models), size):
            yield lambda push=world.models[start:start + size]: service.process_batch(push)

    def skipped_ops(self, builds) -> int:
        size = self.push_size
        return len({(build.build_number - 1) // size for build in builds if not build.ran})


class FleetChurn(Workload):
    """The multi-tenant door: ``CIFleet.submit`` over a Zipf(1.1) tenant mix."""

    name = "fleet-churn"
    op = "submit"
    tenants = 64
    modes = ("full", THIRD_PARTY, "firstChange")
    steps = 32
    max_resident = 4
    snapshot_every = 4
    ops_per_episode = 256
    tail_percentile = 96.0
    #: Its episodes (~7 fsyncs per submit) vary most with the shared
    #: host's load, so a run medians over more of them.
    min_episodes = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        # Tenant ranks get Zipf(1.1) shares of the episode's submissions
        # (largest-remainder apportioned) and cycle through the adaptivity
        # modes; the seed shuffles the submission order and the worlds.
        weights = np.arange(1, self.tenants + 1) ** -1.1
        shares = weights / weights.sum() * self.ops_per_episode
        counts = np.floor(shares).astype(int)
        remainder = self.ops_per_episode - counts.sum()
        counts[np.argsort(counts - shares, kind="stable")[:remainder]] += 1
        picks = np.repeat(np.arange(self.tenants), counts)
        self.picks = [self.tenant_id(int(rank)) for rank in np.random.default_rng(seed).permutation(picks)]
        self.reference = {}
        for tenant, world in self.make_worlds().items():
            service = world.service()
            for model in world.models:
                service.repository.commit(model)
            self.reference[tenant] = fingerprint(service.builds)
        self.fleet: CIFleet | None = None

    @staticmethod
    def tenant_id(index: int) -> str:
        return f"t{index:02d}"

    def make_worlds(self) -> dict[str, World]:
        counts = Counter(self.picks)
        worlds = {}
        for index in range(self.tenants):
            tenant = self.tenant_id(index)
            script = make_script(CONDITION_DURABLE, self.modes[index % 3], self.steps)
            commits = counts[tenant]
            worlds[tenant] = make_world(
                script, commits, commits // self.steps + 2, 1000 * self.seed + index
            )
        return worlds

    def setup(self, state_dir: Path) -> None:
        clear_all_caches()
        self.worlds = self.make_worlds()
        self.fleet = CIFleet(
            state_dir,
            max_resident=self.max_resident,
            snapshot_every=self.snapshot_every,
            sync=self.sync,
        )
        self.labels = {}
        for tenant, world in self.worlds.items():
            service = self.fleet.register(
                tenant,
                world.script,
                world.testsets[0],
                world.baseline,
                pool=TestsetPool(world.testsets[1:]),
                repository=ModelRepository(tenant, nonce=world.nonce),
            )
            self.labels[tenant] = _labels_per_build(service)
        self.builds: dict[str, list] = defaultdict(list)
        self.counters_before = self._counters()

    def _counters(self) -> dict[str, int]:
        fleet = self.fleet
        return {
            "hydrations": fleet.hydrations,
            "evictions": fleet.evictions,
            "rejections": sum(fleet.rejections.values()),
        }

    def ops(self) -> Iterator[Callable[[], Any]]:
        submit, builds = self.fleet.submit, self.builds
        remaining = {tenant: iter(world.models) for tenant, world in self.worlds.items()}
        for tenant in self.picks:
            model = next(remaining[tenant])
            yield lambda tenant=tenant, model=model: builds[tenant].append(submit(tenant, model))

    def finish(self, state_dir: Path) -> Outcome:
        mismatches = []
        for tenant, expected in self.reference.items():
            mismatches += _mismatch(tenant, fingerprint(self.builds[tenant]), expected)
        built = [build for builds in self.builds.values() for build in builds]
        after = self._counters()
        counters = {key: after[key] - self.counters_before[key] for key in after}
        counters["fleet_lookups"] = len(built)
        return Outcome(
            builds=len(built),
            skipped_ops=sum(not build.ran for build in built),
            mismatches=mismatches,
            state_bytes=directory_bytes(state_dir),
            state_builds=len(built),
            labels_per_build=sum(self.labels[tenant] for tenant in self.picks) / len(self.picks),
            counters=counters,
        )

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
        self.fleet = self.worlds = self.builds = None


class RestartCold(Workload):
    """Crash recovery: a cold ``CIService.resume`` plus its first commit.

    Each tenant's state dir holds a journal tail past its last snapshot
    and plans with the exact-binomial estimator, so a resume re-derives
    tight sample sizes.  One tenant's two clauses share one tight size;
    the other tenants' do not.  Three tenants, so the median op falls
    inside one tenant's cluster of latencies rather than between two.
    """

    name = "restart-cold"
    op = "resume"
    specs = (
        ("n > 0.8 +/- 0.02", "full", 8),
        ("n > 0.8 +/- 0.02 /\\ o > 0.75 +/- 0.02", "full", 8),
        ("d < 0.1 +/- 0.025 /\\ n > 0.7 +/- 0.03", "firstChange", 16),
    )
    pre_crash_commits = 10
    snapshot_every = 4
    keep_snapshots = 3
    resumes_per_tenant = 8
    ops_per_episode = resumes_per_tenant * len(specs)
    tail_percentile = 90.0

    def __init__(self, seed: int):
        super().__init__(seed)
        tenants = np.repeat(np.arange(len(self.specs)), self.resumes_per_tenant)
        self.order = [f"r{index}" for index in np.random.default_rng(seed).permutation(tenants)]
        self.reference = {}
        for tenant, world in self.make_worlds().items():
            service = world.service()
            for model in world.models:
                service.repository.commit(model)
            self.reference[tenant] = fingerprint(service.builds)

    def make_worlds(self) -> dict[str, World]:
        return {
            f"r{index}": make_world(
                make_script(condition, adaptivity, steps),
                self.pre_crash_commits + 1,
                3,
                1000 * self.seed + index,
                estimator_config={"use_exact_binomial": True},
            )
            for index, (condition, adaptivity, steps) in enumerate(self.specs)
        }

    def setup(self, state_dir: Path) -> None:
        clear_all_caches()
        self.state_dir = state_dir
        self.worlds = self.make_worlds()
        self.labels = {}
        for tenant, world in self.worlds.items():
            service = world.service()
            service.persist_to(
                state_dir / tenant,
                snapshot_every=self.snapshot_every,
                keep_snapshots=self.keep_snapshots,
                sync=self.sync,
            )
            for model in world.models[: self.pre_crash_commits]:
                service.repository.commit(model)
            self.labels[tenant] = _labels_per_build(service)
        self.outcome = Outcome(0, 0, [], 0, 0, 0.0)

    def ops(self) -> Iterator[Callable[[], Any]]:
        state_dir = self.state_dir
        copy = state_dir / "resumed"
        outcome = self.outcome
        for tenant in self.order:
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(state_dir / tenant, copy)
            clear_all_caches()
            resumed: list[CIService] = []
            model = self.worlds[tenant].models[self.pre_crash_commits]
            yield lambda: resumed.append(self._resume_and_commit(copy, model))
            if not resumed:
                continue
            builds = resumed[0].builds
            outcome.builds += 1
            outcome.skipped_ops += not builds[-1].ran
            outcome.mismatches += _mismatch(tenant, fingerprint(builds), self.reference[tenant])
            outcome.state_bytes += directory_bytes(copy)
            outcome.state_builds += len(builds)
            outcome.labels_per_build += self.labels[tenant] / len(self.order)
        shutil.rmtree(copy, ignore_errors=True)

    def _resume_and_commit(self, copy: Path, model: Any) -> CIService:
        service = CIService.resume(
            copy, snapshot_every=self.snapshot_every, keep_snapshots=self.keep_snapshots
        )
        service.repository.commit(model)
        return service

    def finish(self, state_dir: Path) -> Outcome:
        return self.outcome

    def close(self) -> None:
        self.worlds = self.outcome = None


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (CommitDurable, PushBatch, FleetChurn, RestartCold)
}
