"""Fleet-scale chaos: the overload, quarantine and crash-replay gates.

Acceptance criteria of the fleet PR, in the style of the chaos-parity
suite:

* **Overload** — a seeded burst exceeding the queue bounds leaves every
  submission either durably-enqueued-and-eventually-processed or
  rejected with a typed admission error; none silently dropped, and the
  accepted prefix's results are element-wise identical to an isolated
  service run.
* **Quarantine** — a fault-injected failing tenant trips its breaker
  while every other tenant's results are identical to unperturbed runs;
  once healed, the quarantined tenant's durable backlog completes to
  parity too.
* **Crash replay** — a fleet killed after intake-appends (including
  mid-append, tearing the intake file) resumes in a fresh process and
  replays to element-wise identical results.

``test_seeded_fleet_chaos_parity`` is the CI chaos leg's fleet entry
point: it reads ``REPRO_FAULT_SEED`` and schedules probabilistic
hydrate/evict/process faults from it.
"""

import shutil
import sys

import pytest

sys.path.insert(0, "tests/ci")
from test_restart_parity import (  # noqa: E402
    ADAPTIVITY_MODES,
    assert_parity,
    make_script,
    make_world,
)

from repro.ci.repository import ModelRepository  # noqa: E402
from repro.ci.service import CIService  # noqa: E402
from repro.core.testset import TestsetPool  # noqa: E402
from repro.exceptions import AdmissionError, FleetOverloadedError  # noqa: E402
from repro.fleet import AdmissionPolicy, CIFleet  # noqa: E402
from repro.fleet.intake import scan_intake  # noqa: E402
from repro.reliability.faults import (  # noqa: E402
    FaultRule,
    InjectedFault,
    injected_faults,
    seed_from_env,
)


def build_worlds(adaptivity, count, commits=4):
    script = make_script(adaptivity, steps=4)
    return {
        f"t-{i:02d}": (script, *make_world(script, commits=commits, seed=i))
        for i in range(count)
    }


def register_all(fleet, worlds):
    for tenant_id, (script, testsets, baseline, _) in worlds.items():
        fleet.register(
            tenant_id,
            script,
            testsets[0],
            baseline,
            repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
            pool=TestsetPool(testsets[1:]),
        )


def reference(tenant_id, world, upto=None):
    """Isolated single-service run over the first ``upto`` commits."""
    script, testsets, baseline, models = world
    service = CIService(
        script,
        testsets[0],
        baseline,
        repository=ModelRepository(nonce=f"nonce-{tenant_id}"),
    )
    service.install_testset_pool(TestsetPool(testsets[1:]))
    for index, model in enumerate(models[:upto]):
        service.repository.commit(model, message=f"c{index}")
    return service


class TestOverloadGate:
    def test_burst_none_silently_dropped(self, tmp_path):
        """Exceed both bounds; account for every single submission."""
        worlds = build_worlds("full", 3, commits=5)
        fleet = CIFleet(
            tmp_path / "fleet",
            sync=False,
            admission=AdmissionPolicy(
                max_pending_per_tenant=3, max_pending_total=8
            ),
        )
        register_all(fleet, worlds)
        accepted = {tenant_id: 0 for tenant_id in worlds}
        rejections = []
        for tenant_id, world in worlds.items():
            for index, model in enumerate(world[3]):
                try:
                    fleet.enqueue(tenant_id, model, message=f"c{index}")
                    accepted[tenant_id] += 1
                except AdmissionError as exc:
                    rejections.append((tenant_id, exc))
        # Every submission has exactly one typed outcome.
        attempted = sum(len(w[3]) for w in worlds.values())
        assert sum(accepted.values()) + len(rejections) == attempted
        assert rejections, "burst must actually exceed the bounds"
        assert all(exc.retry_after_seconds > 0 for _, exc in rejections)
        # Every accepted submission is durably pending right now...
        for tenant_id, count in accepted.items():
            assert fleet._intake(tenant_id).pending_count == count
        # ...and eventually processed, element-wise identical to an
        # isolated run over the accepted prefix.
        report = fleet.drain()
        assert report.errors == {} and report.skipped == ()
        for tenant_id, world in worlds.items():
            assert len(report.builds[tenant_id]) == accepted[tenant_id]
            assert_parity(
                reference(tenant_id, world, upto=accepted[tenant_id]),
                fleet.service(tenant_id),
            )

    def test_reopened_root_counts_pending_at_the_door(self, tmp_path):
        """A killed fleet's pending intake still counts against the bound."""
        worlds = build_worlds("full", 3, commits=4)
        root = tmp_path / "fleet"
        fleet = CIFleet(root, sync=True, max_resident=1)
        register_all(fleet, worlds)
        for tenant_id, backlog in (("t-00", 3), ("t-01", 1)):
            for index in range(backlog):
                fleet.enqueue(
                    tenant_id, worlds[tenant_id][3][index], message=f"c{index}"
                )
        crashed_root = tmp_path / "crashed"
        shutil.copytree(root, crashed_root)  # kill: no close()

        on_disk = sum(
            scan_intake(path).pending
            for path in (crashed_root / "tenants").glob("*/intake.jsonl")
        )
        assert on_disk == 4
        bound = 6
        resumed = CIFleet(
            crashed_root,
            sync=False,
            max_resident=1,
            admission=AdmissionPolicy(
                max_pending_per_tenant=10, max_pending_total=bound
            ),
        )
        # The first submission goes to the tenant with nothing pending,
        # so only the door's own discovery can see the others' backlog.
        attempted = accepted = rejected = 0
        for index in range(4):
            attempted += 1
            try:
                resumed.enqueue("t-02", worlds["t-02"][3][index], message=f"c{index}")
                accepted += 1
            except FleetOverloadedError:
                rejected += 1
        assert accepted + rejected == attempted
        assert accepted == bound - on_disk
        # A tenant registered after the door's discovery is counted too.
        late = build_worlds("full", 4, commits=1)
        register_all(resumed, {"t-03": late["t-03"]})
        resumed.drain("t-00")  # frees 3 slots
        resumed.enqueue("t-03", late["t-03"][3][0], message="c0")
        assert resumed.operations().pending_total == bound - 2
        with pytest.raises(FleetOverloadedError):
            for index in range(3):
                resumed.enqueue("t-03", late["t-03"][3][0], message=f"x{index}")
        assert resumed.operations().pending_total == bound


class TestQuarantineGate:
    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_failing_tenant_never_perturbs_the_rest(self, tmp_path, adaptivity):
        worlds = build_worlds(adaptivity, 3, commits=4)
        bad = "t-00"
        clock_now = [0.0]
        fleet = CIFleet(
            tmp_path / "fleet",
            sync=False,
            max_resident=1,  # force churn while the chaos runs
            failure_threshold=2,
            cooldown_seconds=30.0,
            clock=lambda: clock_now[0],
        )
        register_all(fleet, worlds)
        rule = FaultRule(
            site=f"fleet.process.{bad}",
            action="raise",
            probability=1.0,
            times=None,
        )
        quarantined = 0
        with injected_faults([rule]):
            for index in range(4):
                for tenant_id, world in worlds.items():
                    model = world[3][index]
                    if tenant_id == bad:
                        try:
                            fleet.submit(bad, model, message=f"c{index}")
                        except InjectedFault:
                            pass  # accepted, processing deferred
                        except AdmissionError:
                            quarantined += 1
                    else:
                        fleet.submit(tenant_id, model, message=f"c{index}")
        assert fleet._breaker(bad).times_opened >= 1
        assert quarantined >= 1
        # Healthy tenants: element-wise identical to unperturbed runs.
        for tenant_id, world in worlds.items():
            if tenant_id != bad:
                assert_parity(
                    reference(tenant_id, world), fleet.service(tenant_id)
                )
        # Heal: cooldown elapses, the fault schedule is gone.  The
        # backlog (everything accepted pre-quarantine) completes, and
        # whatever was door-rejected is resubmitted — full parity.
        clock_now[0] += 31.0
        fleet.drain(bad)
        processed = len(fleet.service(bad).builds)
        for index in range(processed, 4):
            fleet.submit(bad, worlds[bad][3][index], message=f"c{index}")
        assert_parity(reference(bad, worlds[bad]), fleet.service(bad))


def assert_kill_after_intake_append_replays(tmp_path, adaptivity, **fleet_kwargs):
    """Submit 2 + enqueue 2 per tenant, kill, resume: identical results."""
    worlds = build_worlds(adaptivity, 2, commits=4)
    root = tmp_path / "fleet"
    fleet = CIFleet(root, sync=True, max_resident=1, **fleet_kwargs)
    register_all(fleet, worlds)
    for tenant_id, world in worlds.items():
        for index in range(2):
            fleet.submit(tenant_id, world[3][index], message=f"c{index}")
        for index in range(2, 4):
            fleet.enqueue(tenant_id, world[3][index], message=f"c{index}")
    # Kill: no close(), no snapshots of the resident engines — the
    # copied root is exactly what the dead process left on disk.
    crashed_root = tmp_path / "crashed"
    shutil.copytree(root, crashed_root)

    resumed = CIFleet(crashed_root, sync=False, max_resident=1, **fleet_kwargs)
    report = resumed.drain()
    assert report.errors == {} and report.skipped == ()
    for tenant_id, world in worlds.items():
        assert [b.commit.sequence for b in report.builds[tenant_id]] == [2, 3]
        assert_parity(
            reference(tenant_id, world), resumed.service(tenant_id)
        )


class TestCrashGate:
    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_kill_after_intake_append_replays_identically(
        self, tmp_path, adaptivity
    ):
        """The fleet crash gate: accepted-but-unprocessed work survives."""
        assert_kill_after_intake_append_replays(tmp_path, adaptivity)

    @pytest.mark.parametrize("snapshot_every", [2, 3])
    @pytest.mark.parametrize("adaptivity", ADAPTIVITY_MODES)
    def test_kill_after_intake_append_replays_identically_with_cadence(
        self, tmp_path, adaptivity, snapshot_every
    ):
        """The crash gate when evictions release without snapshotting.

        At a cadence of 3 each tenant dies holding a two-build journal
        tail that no snapshot covers; the resumed fleet replays it.
        """
        assert_kill_after_intake_append_replays(
            tmp_path, adaptivity, snapshot_every=snapshot_every
        )

    def test_torn_intake_append_heals_on_resume(self, tmp_path):
        """Crash mid-append: the torn submission was never accepted."""
        worlds = build_worlds("full", 1, commits=3)
        world = worlds["t-00"]
        root = tmp_path / "fleet"
        fleet = CIFleet(root, sync=True)
        register_all(fleet, worlds)
        fleet.submit("t-00", world[3][0], message="c0")
        with injected_faults(
            [FaultRule(site="intake.append", action="tear", at=1, tear_at=25)]
        ):
            with pytest.raises(InjectedFault):
                fleet.enqueue("t-00", world[3][1], message="c1")
        crashed_root = tmp_path / "crashed"
        shutil.copytree(root, crashed_root)

        resumed = CIFleet(crashed_root, sync=False)
        assert resumed.drain().builds == {}  # nothing pending: torn != accepted
        assert_parity(
            reference("t-00", world, upto=1), resumed.service("t-00")
        )
        # The healed queue accepts the retried submission cleanly.
        resumed.submit("t-00", world[3][1], message="c1")
        assert_parity(reference("t-00", world, upto=2), resumed.service("t-00"))

    def test_crash_between_commit_and_ack_never_duplicates(self, tmp_path):
        """The ack crash window: journaled commit, missing ack."""
        worlds = build_worlds("full", 1, commits=2)
        world = worlds["t-00"]
        root = tmp_path / "fleet"
        fleet = CIFleet(root, sync=True)
        register_all(fleet, worlds)
        fleet.submit("t-00", world[3][0], message="c0")
        with injected_faults(
            [FaultRule(site="intake.append", action="tear", at=2, tear_at=25)]
        ):
            # at=2 lands the tear on the *ack* append (the submission
            # append is traversal 1): the commit is journaled in the
            # tenant's event journal, the ack is torn.
            with pytest.raises(InjectedFault):
                fleet.submit("t-00", world[3][1], message="c1")
        crashed_root = tmp_path / "crashed"
        shutil.copytree(root, crashed_root)

        resumed = CIFleet(crashed_root, sync=False)
        report = resumed.drain()
        # The drain heals the missing ack by sequence — the build is
        # reported, but it was NOT re-run (budget spent exactly once).
        assert [b.commit.sequence for b in report.builds["t-00"]] == [1]
        assert_parity(reference("t-00", world, upto=2), resumed.service("t-00"))
        assert resumed.drain().builds == {}


def test_seeded_fleet_chaos_parity(tmp_path):
    """CI chaos-leg entry point: probabilistic fleet faults, same results.

    Hydrate failures surface as retryable errors, evict failures are
    absorbed, process failures defer durable work — and none of them may
    change a single result.
    """
    seed = seed_from_env()
    worlds = build_worlds("full", 3, commits=4)
    fleet = CIFleet(
        tmp_path / "fleet",
        sync=False,
        max_resident=1,
        failure_threshold=1000,  # chaos, not quarantine, is under test
    )
    register_all(fleet, worlds)
    rules = [
        FaultRule(
            site="fleet.hydrate", action="raise", probability=0.25, times=None
        ),
        FaultRule(
            site="fleet.evict", action="raise", probability=0.25, times=None
        ),
        FaultRule(
            site="fleet.process", action="raise", probability=0.15, times=None
        ),
    ]
    with injected_faults(rules, seed=seed):
        for index in range(4):
            for tenant_id, world in worlds.items():
                fleet.enqueue(tenant_id, world[3][index], message=f"c{index}")
                for _ in range(50):
                    try:
                        fleet.drain(tenant_id)
                        break
                    except InjectedFault:
                        continue
                else:  # pragma: no cover - would mean a broken schedule
                    pytest.fail("drain never succeeded under chaos")
    for tenant_id, world in worlds.items():
        assert_parity(reference(tenant_id, world), fleet.service(tenant_id))
