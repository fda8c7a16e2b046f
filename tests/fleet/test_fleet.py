"""The fleet gateway: LRU residency, admission, isolation, operations.

The headline invariant (the fleet parity gate, scaled down for the unit
suite; ``benchmarks/bench_fleet.py`` runs it at 100+ tenants): routing N
tenants' traffic through one gateway — with an LRU small enough to force
eviction churn — produces build records element-wise identical to N
isolated ``CIService`` runs, in all three adaptivity modes.
"""

import json
import random
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import ADAPTIVITY_MODES, assert_parity  # noqa: E402

from tests.fleet.conftest import reference_service, register_tenant  # noqa: E402

from repro.ci.notifications import FlakyTransport, RetryingTransport  # noqa: E402
from repro.ci.persistence import RESTORE, SNAPSHOT  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.exceptions import (  # noqa: E402
    FleetOverloadedError,
    PersistenceError,
    TenantQuarantinedError,
    TenantQuotaExceededError,
    UnknownTenantError,
)
from repro.fleet import AdmissionPolicy, CIFleet  # noqa: E402
from repro.reliability.events import reliability_events  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    InjectedFault,
    injected_faults,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRegistration:
    def test_register_creates_tenant_layout(self, make_fleet, small_world):
        fleet = make_fleet()
        register_tenant(fleet, "t-0", small_world(commits=2))
        directory = fleet.tenant_dir("t-0")
        assert (directory / "snapshots").is_dir()
        assert (directory / "journal.jsonl").exists()
        assert (directory / "intake.jsonl").exists()
        assert fleet.tenants() == ["t-0"]
        assert fleet.resident_tenants == ["t-0"]

    def test_register_twice_raises(self, make_fleet, small_world):
        fleet = make_fleet()
        world = small_world(commits=2)
        register_tenant(fleet, "t-0", world)
        with pytest.raises(PersistenceError, match="already exists"):
            register_tenant(fleet, "t-0", world)

    @pytest.mark.parametrize("bad", ["", ".hidden", "a b", "x/y", "a" * 65])
    def test_invalid_tenant_ids_rejected(self, make_fleet, bad):
        fleet = make_fleet()
        with pytest.raises(UnknownTenantError, match="invalid tenant id"):
            fleet.tenant_dir(bad)

    def test_unknown_tenant_raises(self, make_fleet):
        fleet = make_fleet()
        with pytest.raises(UnknownTenantError, match="no tenant"):
            fleet.service("ghost")
        with pytest.raises(UnknownTenantError, match="no tenant"):
            fleet.enqueue("ghost", object())


def journal_records(fleet, tenant_id, type):
    """Payloads of one tenant's journal records of ``type``, oldest first."""
    path = fleet.tenant_dir(tenant_id) / "journal.jsonl"
    records = (json.loads(line) for line in path.read_text().splitlines())
    return [r["payload"] for r in records if r.get("type") == type]


def snapshot_files(fleet, tenant_id):
    return sorted(p.name for p in (fleet.tenant_dir(tenant_id) / "snapshots").iterdir())


def dead_letter_transport(tenant_id):
    """A transport that never delivers, so every notification dead-letters."""
    return RetryingTransport(
        FlakyTransport(failures=10**6), backoff=0.0, sleep=lambda _: None
    )


def assert_churn_parity(fleet, worlds):
    """Round-robin every tenant's commits through ``fleet``, then compare.

    max_resident=1 over 3 tenants means every interleaved submission
    evicts someone and rehydrates someone else — the worst-case churn
    schedule.
    """
    for tenant_id, world in worlds.items():
        register_tenant(fleet, tenant_id, world)
    rounds = max(len(w[3]) for w in worlds.values())
    for index in range(rounds):
        for tenant_id, world in worlds.items():
            models = world[3]
            if index < len(models):
                build = fleet.submit(
                    tenant_id, models[index], message=f"c{index}"
                )
                assert build.commit.sequence == index
    assert fleet.evictions > 0
    for tenant_id, world in worlds.items():
        assert_parity(reference_service(tenant_id, world), fleet.service(tenant_id))


class TestParityUnderChurn:
    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_interleaved_tenants_match_isolated_services(
        self, make_fleet, small_world, adaptivity
    ):
        """The fleet parity gate at unit scale."""
        worlds = {
            f"t-{i}": small_world(adaptivity=adaptivity, commits=4, seed=i)
            for i in range(3)
        }
        assert_churn_parity(make_fleet(max_resident=1), worlds)

    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_interleaved_tenants_match_isolated_services_with_cadence(
        self, make_fleet, small_world, adaptivity
    ):
        """The same gate when eviction releases and hydration replays.

        With a cadence of 2, every other eviction leaves a one-build
        journal tail that the next hydrate must replay exactly.
        """
        worlds = {
            f"t-{i}": small_world(adaptivity=adaptivity, commits=4, seed=i)
            for i in range(3)
        }
        fleet = make_fleet(max_resident=1, snapshot_every=2)
        assert_churn_parity(fleet, worlds)
        replayed = [
            record["replayed_commits"]
            for tenant_id in worlds
            for record in journal_records(fleet, tenant_id, RESTORE)
        ]
        assert 1 in replayed

    def test_capacity_bound_is_enforced(self, make_fleet, small_world):
        fleet = make_fleet(max_resident=2)
        for i in range(5):
            register_tenant(fleet, f"t-{i}", small_world(commits=2, seed=i))
        assert len(fleet.resident_tenants) == 2
        fleet.service("t-0")
        assert "t-0" in fleet.resident_tenants
        assert len(fleet.resident_tenants) == 2
        assert fleet.hydrations == 1


class TestEvictionRule:
    """evict = snapshot + release only where no cadence bounds the tail."""

    def test_cadence_eviction_adds_no_snapshot_and_hydrate_replays(
        self, make_fleet, small_world
    ):
        world = small_world(commits=2)
        fleet = make_fleet(max_resident=1, snapshot_every=3)
        register_tenant(fleet, "t-0", world)
        register_tenant(fleet, "t-1", small_world(commits=1, seed=1))
        for index, model in enumerate(world[3]):
            fleet.submit("t-0", model, message=f"c{index}")
        snapshots = snapshot_files(fleet, "t-0")
        snapshot_records = journal_records(fleet, "t-0", SNAPSHOT)

        fleet.service("t-1")  # evicts t-0 with two unsnapshotted builds
        assert fleet.resident_tenants == ["t-1"]
        assert snapshot_files(fleet, "t-0") == snapshots
        assert journal_records(fleet, "t-0", SNAPSHOT) == snapshot_records

        hydrated = fleet.service("t-0")
        assert journal_records(fleet, "t-0", RESTORE)[-1]["replayed_commits"] == 2
        assert_parity(reference_service("t-0", world), hydrated)

    def test_without_cadence_uncovered_builds_still_snapshot(
        self, make_fleet, small_world
    ):
        world = small_world(commits=1)
        fleet = make_fleet(max_resident=1)
        register_tenant(fleet, "t-0", world)
        register_tenant(fleet, "t-1", small_world(commits=1, seed=1))
        fleet.submit("t-0", world[3][0], message="c0")
        snapshots = snapshot_files(fleet, "t-0")

        fleet.service("t-1")  # evicts t-0 with one unsnapshotted build
        assert len(snapshot_files(fleet, "t-0")) == len(snapshots) + 1

        hydrated = fleet.service("t-0")
        assert journal_records(fleet, "t-0", RESTORE)[-1]["replayed_commits"] == 0
        assert_parity(reference_service("t-0", world), hydrated)

    def test_without_cadence_clean_tenant_evicts_without_writing(
        self, make_fleet, small_world
    ):
        fleet = make_fleet(max_resident=1)
        register_tenant(fleet, "t-0", small_world(commits=1))
        register_tenant(fleet, "t-1", small_world(commits=1, seed=1))
        directory = fleet.tenant_dir("t-1")
        snapshots = snapshot_files(fleet, "t-1")
        journal = (directory / "journal.jsonl").read_bytes()

        fleet.service("t-0")  # evicts t-1, which has no builds at all
        assert fleet.resident_tenants == ["t-0"]
        assert snapshot_files(fleet, "t-1") == snapshots
        assert (directory / "journal.jsonl").read_bytes() == journal

    def test_cadence_eviction_keeps_dead_letters_of_the_tail(
        self, make_fleet, small_world
    ):
        """A dead letter is in no journal record, so eviction snapshots it."""
        world = small_world(adaptivity="none -> third-party@example.com", commits=1)
        fleet = make_fleet(
            max_resident=1,
            snapshot_every=3,
            transport_factory=dead_letter_transport,
        )
        register_tenant(fleet, "t-0", world)
        register_tenant(fleet, "t-1", small_world(commits=1, seed=1))
        fleet.submit("t-0", world[3][0], message="c0")
        letters = fleet.service("t-0").repository.dead_letters
        assert len(letters) == 1
        snapshots = snapshot_files(fleet, "t-0")

        fleet.service("t-1")  # evicts t-0: one build and its dead letter
        assert len(snapshot_files(fleet, "t-0")) == len(snapshots) + 1
        assert fleet.service("t-0").repository.dead_letters == letters

    def test_without_cadence_operator_changes_survive_eviction(
        self, make_fleet, small_world
    ):
        """A drain and a pool install on a clean tenant are snapshotted."""
        world = small_world(adaptivity="none -> third-party@example.com", commits=1)
        fleet = make_fleet(max_resident=1, transport_factory=dead_letter_transport)
        register_tenant(fleet, "t-0", world)
        register_tenant(fleet, "t-1", small_world(commits=1, seed=1))
        fleet.submit("t-0", world[3][0], message="c0")
        fleet.service("t-1")  # evicts t-0 with an uncovered build

        service = fleet.service("t-0")
        assert not service.needs_snapshot()
        assert len(service.repository.drain_dead_letters()) == 1
        service.install_testset_pool(TestsetPool(world[1][2:]))
        assert service.needs_snapshot()
        fleet.service("t-1")  # evicts t-0, which has no uncovered build

        hydrated = fleet.service("t-0")
        assert hydrated.repository.dead_letters == []
        assert hydrated.engine.pool.pending == len(world[1][2:])

    def test_tail_beyond_a_lowered_cadence_snapshots_on_eviction(
        self, make_fleet, small_world
    ):
        world = small_world(commits=3)
        fleet = make_fleet(max_resident=1, snapshot_every=5)
        register_tenant(fleet, "t-0", world)
        register_tenant(fleet, "t-1", small_world(commits=1, seed=1))
        for index, model in enumerate(world[3]):
            fleet.submit("t-0", model, message=f"c{index}")
        fleet.close()  # releases t-0 with three unsnapshotted builds

        reopened = make_fleet(max_resident=1, snapshot_every=2)
        reopened.service("t-0")
        assert journal_records(reopened, "t-0", RESTORE)[-1]["replayed_commits"] == 3
        snapshots = snapshot_files(reopened, "t-0")
        reopened.service("t-1")  # evicts t-0 holding a tail of 3 >= 2
        assert len(snapshot_files(reopened, "t-0")) == len(snapshots) + 1

        hydrated = reopened.service("t-0")
        assert journal_records(reopened, "t-0", RESTORE)[-1]["replayed_commits"] == 0
        assert_parity(reference_service("t-0", world), hydrated)

    def test_replay_depth_stays_below_cadence_under_churn(
        self, make_fleet, small_world
    ):
        cadence = 3
        worlds = {
            f"t-{i}": small_world(commits=10, seed=i, steps=8) for i in range(3)
        }
        # keep_snapshots=None: no compaction, so every restore record stays.
        fleet = make_fleet(
            max_resident=1, snapshot_every=cadence, keep_snapshots=None
        )
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        schedule = [
            tenant_id for tenant_id, world in worlds.items() for _ in world[3]
        ]
        random.Random(7).shuffle(schedule)
        submitted = dict.fromkeys(worlds, 0)
        for tenant_id in schedule:
            index = submitted[tenant_id]
            fleet.submit(tenant_id, worlds[tenant_id][3][index], message=f"c{index}")
            submitted[tenant_id] += 1
        fleet.close()

        reopened = make_fleet(
            max_resident=1, snapshot_every=cadence, keep_snapshots=None
        )
        for tenant_id, world in worlds.items():
            assert_parity(reference_service(tenant_id, world), reopened.service(tenant_id))
        replayed = [
            record["replayed_commits"]
            for tenant_id in worlds
            for record in journal_records(reopened, tenant_id, RESTORE)
        ]
        assert len(replayed) > len(worlds)
        assert max(replayed) <= cadence - 1
        assert max(replayed) > 0


class TestDurableIntake:
    def test_enqueue_survives_fleet_restart(self, make_fleet, small_world):
        world = small_world(commits=3)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        for index, model in enumerate(world[3]):
            fleet.enqueue("t-0", model, message=f"c{index}")
        fleet.close()

        resumed = make_fleet()  # same root, fresh process state
        report = resumed.drain("t-0")
        builds = report.builds["t-0"]
        assert [b.commit.sequence for b in builds] == [0, 1, 2]
        assert_parity(reference_service("t-0", world), resumed.service("t-0"))

    def test_drain_is_idempotent(self, make_fleet, small_world):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        for index, model in enumerate(world[3]):
            fleet.enqueue("t-0", model, message=f"c{index}")
        first = fleet.drain("t-0").builds["t-0"]
        assert len(first) == 2
        assert fleet.drain("t-0").builds["t-0"] == []
        assert len(fleet.service("t-0").builds) == 2

    def test_submit_returns_the_matching_build(self, make_fleet, small_world):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        # A backlog entry sits in front of the submitted one.
        fleet.enqueue("t-0", world[3][0], message="c0")
        build = fleet.submit("t-0", world[3][1], message="c1")
        assert build.commit.sequence == 1
        assert len(fleet.service("t-0").builds) == 2

    def test_tenant_without_intake_fails_only_its_own_enqueue(
        self, make_fleet, small_world
    ):
        # A crash inside register() between persist_to() and
        # IntakeQueue.create() leaves a tenant dir with no intake file.
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        register_tenant(fleet, "t-1", world)
        fleet.close()
        (fleet.tenant_dir("t-1") / "intake.jsonl").unlink()

        reopened = make_fleet()
        reopened.enqueue("t-0", world[3][0], message="c0")
        assert reopened.drain("t-0").builds["t-0"][0].commit.sequence == 0
        with pytest.raises(PersistenceError, match="t-1/intake.jsonl does not exist"):
            reopened.enqueue("t-1", world[3][0], message="c0")
        reopened.enqueue("t-0", world[3][1], message="c1")
        assert len(reopened.drain("t-0").builds["t-0"]) == 1


class TestAdmission:
    def test_tenant_quota_rejects_at_the_door(self, make_fleet, small_world):
        world = small_world(commits=4)
        fleet = make_fleet(
            admission=AdmissionPolicy(
                max_pending_per_tenant=2, retry_after_seconds=5.0
            )
        )
        register_tenant(fleet, "t-0", world)
        fleet.enqueue("t-0", world[3][0])
        fleet.enqueue("t-0", world[3][1])
        with pytest.raises(TenantQuotaExceededError) as excinfo:
            fleet.enqueue("t-0", world[3][2])
        assert excinfo.value.tenant == "t-0"
        assert excinfo.value.retry_after_seconds == 5.0
        # Nothing was durably written for the rejected submission.
        assert fleet._intake("t-0").pending_count == 2
        assert fleet.rejections["tenant-quota"] == 1

    def test_fleet_overload_rejects_globally(self, make_fleet, small_world):
        fleet = make_fleet(admission=AdmissionPolicy(max_pending_total=3))
        worlds = {
            f"t-{i}": small_world(commits=4, seed=i) for i in range(2)
        }
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        fleet.enqueue("t-0", worlds["t-0"][3][0])
        fleet.enqueue("t-0", worlds["t-0"][3][1])
        fleet.enqueue("t-1", worlds["t-1"][3][0])
        with pytest.raises(FleetOverloadedError):
            fleet.enqueue("t-1", worlds["t-1"][3][1])
        assert fleet.rejections["fleet-overloaded"] == 1
        # Draining the backlog reopens the door.
        fleet.drain()
        fleet.enqueue("t-1", worlds["t-1"][3][1])


class TestBreakerIsolation:
    def test_failing_tenant_is_quarantined_others_serve(
        self, make_fleet, small_world
    ):
        clock = FakeClock()
        worlds = {
            "t-bad": small_world(commits=4, seed=1),
            "t-good": small_world(commits=4, seed=2),
        }
        fleet = make_fleet(
            failure_threshold=2, cooldown_seconds=60.0, clock=clock
        )
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        rule = FaultRule(
            site="fleet.process.t-bad",
            action="raise",
            probability=1.0,
            times=None,
        )
        with injected_faults([rule]):
            for index in range(2):
                # Each submission is durably accepted before its
                # processing fails — nothing is lost, only deferred.
                with pytest.raises(InjectedFault):
                    fleet.submit(
                        "t-bad", worlds["t-bad"][3][index], message=f"c{index}"
                    )
            # Threshold reached: the door is now closed for t-bad...
            with pytest.raises(TenantQuarantinedError) as excinfo:
                fleet.enqueue("t-bad", worlds["t-bad"][3][2])
            assert excinfo.value.retry_after_seconds == pytest.approx(60.0)
            # ...while the healthy tenant is completely unaffected.
            for index, model in enumerate(worlds["t-good"][3]):
                fleet.submit("t-good", model, message=f"c{index}")
        assert_parity(
            reference_service("t-good", worlds["t-good"]),
            fleet.service("t-good"),
        )
        # Cooldown elapses, the fault is gone: the half-open drain probes,
        # succeeds, closes the breaker, and the durable backlog completes.
        clock.advance(61.0)
        builds = fleet.drain("t-bad").builds["t-bad"]
        assert [b.commit.sequence for b in builds] == [0, 1]
        fleet.enqueue("t-bad", worlds["t-bad"][3][2], message="c2")
        assert fleet.drain("t-bad").builds["t-bad"][0].commit.sequence == 2

    def test_fleet_drain_skips_open_breakers(self, make_fleet, small_world):
        clock = FakeClock()
        world = small_world(commits=2)
        fleet = make_fleet(failure_threshold=1, clock=clock)
        register_tenant(fleet, "t-0", world)
        rule = FaultRule(
            site="fleet.process.t-0", action="raise", probability=1.0, times=1
        )
        with injected_faults([rule]):
            with pytest.raises(InjectedFault):
                fleet.submit("t-0", world[3][0], message="c0")
        report = fleet.drain()
        assert report.skipped == ("t-0",)
        assert report.builds == {}

    def test_hydration_failure_counts_against_breaker(
        self, make_fleet, small_world
    ):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        fleet.close()
        with injected_faults(
            [FaultRule(site="fleet.hydrate", action="raise", at=1)]
        ):
            with pytest.raises(InjectedFault):
                fleet.service("t-0")
        assert fleet._breaker("t-0").consecutive_failures == 1
        assert any(
            e.kind == "tenant-hydrate-failed" for e in reliability_events()
        )
        # The next hydration (fault exhausted) succeeds.
        assert fleet.service("t-0") is not None

    def test_eviction_failure_keeps_tenant_resident(
        self, make_fleet, small_world
    ):
        fleet = make_fleet(max_resident=1)
        register_tenant(fleet, "t-0", small_world(commits=2, seed=0))
        with injected_faults(
            [FaultRule(site="fleet.evict", action="raise", at=1)]
        ):
            register_tenant(fleet, "t-1", small_world(commits=2, seed=1))
        # The failed eviction was absorbed: both tenants stayed resident
        # (over capacity beats refusing traffic), and the event is logged.
        assert set(fleet.resident_tenants) == {"t-0", "t-1"}
        assert any(e.kind == "evict-failed" for e in reliability_events())
        # With the fault gone, the next capacity pass evicts normally.
        fleet._enforce_capacity()
        assert fleet.resident_tenants == ["t-1"]
        fleet.close()
        assert fleet.resident_tenants == []


class TestOperationsAndFsck:
    def test_fleet_report_aggregates(self, make_fleet, small_world):
        worlds = {
            f"t-{i}": small_world(commits=2, seed=i) for i in range(3)
        }
        fleet = make_fleet(max_resident=2)
        for tenant_id, world in worlds.items():
            register_tenant(fleet, tenant_id, world)
        fleet.submit("t-0", worlds["t-0"][3][0], message="c0")
        fleet.enqueue("t-1", worlds["t-1"][3][0])
        report = fleet.operations()
        assert report.tenants_registered == 3
        assert report.tenants_resident == 2
        assert report.pending_total == 1
        assert report.accepted == 2
        assert report.processed == 1
        by_id = {s.tenant_id: s for s in report.tenant_status}
        assert by_id["t-1"].pending == 1
        assert by_id["t-0"].breaker == "closed"
        text = report.describe()
        assert "3 registered" in text and "1 pending" in text

    def test_tenant_operations_cold_is_read_only(self, make_fleet, small_world):
        world = small_world(commits=2)
        fleet = make_fleet()
        register_tenant(fleet, "t-0", world)
        fleet.submit("t-0", world[3][0], message="c0")
        fleet.close()
        journal = (fleet.tenant_dir("t-0") / "journal.jsonl").read_bytes()
        report = fleet.tenant_operations("t-0")
        assert report.builds_total == 1
        assert (fleet.tenant_dir("t-0") / "journal.jsonl").read_bytes() == journal
        assert fleet.resident_tenants == []

    def test_fsck_healthy_and_damaged(self, make_fleet, small_world):
        fleet = make_fleet()
        for i in range(2):
            register_tenant(fleet, f"t-{i}", small_world(commits=2, seed=i))
        fleet.submit("t-0", small_world(commits=2, seed=0)[3][0], message="c0")
        fleet.close()
        assert fleet.fsck().healthy
        # Destroy one tenant's snapshots: the sweep localizes the damage.
        for snapshot in (fleet.tenant_dir("t-1") / "snapshots").glob("*"):
            snapshot.write_bytes(b"garbage")
        report = fleet.fsck()
        assert not report.healthy
        by_id = {t.tenant_id: t for t in report.tenants}
        assert by_id["t-0"].state.restorable
        assert not by_id["t-1"].state.restorable
        assert "UNRESTORABLE" in report.describe()

    def test_fsck_missing_root(self, tmp_path):
        fleet = CIFleet(tmp_path / "nowhere", create=False)
        report = fleet.fsck()
        assert not report.exists
        assert not report.healthy

    def test_context_manager_evicts_on_exit(self, make_fleet, small_world):
        with make_fleet() as fleet:
            register_tenant(fleet, "t-0", small_world(commits=2))
            assert fleet.resident_tenants == ["t-0"]
        assert fleet.resident_tenants == []
        assert len(fleet) == 1
        assert list(fleet) == ["t-0"]
