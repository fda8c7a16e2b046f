"""The durable CRC-line log, through both of its views.

:class:`~repro.ci.durable.CrcLog` owns the line format, the eager and
open-time torn-tail heal, quarantine sidecars and the atomic rewrite for
the event journal and the intake queue alike.  The contract tests run
once per view; the format-lock tests read and re-write the committed
``tests/data/logs/`` fixtures byte for byte; the fleet test is the
ghost-submission regression (an append whose fsync failed must not come
back as pending on reopen).
"""

import errno
import gc
import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.ci.durable import CrcLog
from repro.ci.persistence import ALARM, EventJournal, scan_journal
from repro.ci.service import CIService
from repro.fleet import CIFleet
from repro.fleet.intake import IntakeQueue, scan_intake
from repro.reliability.events import reliability_events
from repro.reliability.faults import FaultRule, InjectedFault, injected_faults
from tests.ci.test_restart_parity import assert_parity
from tests.data.log_fixtures import LOG_FILES, describe, write_logs
from tests.reliability.test_disk_chaos import (
    _fleet_reference,
    _fleet_world,
    _register,
)

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "logs"


# ---------------------------------------------------------------------------
# The two views, behind one adapter so every contract runs on both.
# ---------------------------------------------------------------------------

class JournalView:
    name = "journal"

    def __init__(self, directory, *, sync=False):
        self.path = directory / "journal.jsonl"
        self.sync = sync
        self.log = EventJournal(self.path, sync=sync)

    def reopen(self):
        self.log = EventJournal(self.path, sync=self.sync)
        return self

    def add(self, tag):
        self.log.append(ALARM, {"tag": tag})

    def tags(self):
        return [r.payload["tag"] for r in self.log.records() if r.type == ALARM]

    def compact(self):
        self.log.compact(self.log.last_sequence)

    def scan(self):
        return scan_journal(self.path)

    def legacy_line(self):
        return b'{"payload": {"tag": "legacy"}, "recorded_at": "", "sequence": 99, "type": "alarm"}\n'


class IntakeView:
    name = "intake"

    def __init__(self, directory, *, sync=False):
        self.path = directory / "intake.jsonl"
        self.sync = sync
        self.log = IntakeQueue.create(self.path, sync=sync)

    def reopen(self):
        self.log = IntakeQueue(self.path, sync=self.sync)
        return self

    def add(self, tag):
        self.log.append(("model", tag), message=tag)

    def tags(self):
        return [r.payload["message"] for r in self.log.pending()]

    def compact(self):
        self.log.compact()

    def scan(self):
        return scan_intake(self.path)

    def legacy_line(self):
        return b'{"kind": "submission", "payload": {"message": "legacy"}, "recorded_at": "", "repo_sequence": 99, "sequence": 99}\n'


VIEWS = [JournalView, IntakeView]


@pytest.fixture(params=VIEWS, ids=lambda view: view.name)
def view(request, tmp_path):
    view = request.param(tmp_path)
    yield view
    view.log.close()


def sidecars(path):
    return sorted(path.parent.glob(f"{path.name}.torn-*"))


# ---------------------------------------------------------------------------
# Failed appends heal eagerly; the next append succeeds.
# ---------------------------------------------------------------------------

FAILURES = {
    "tear": lambda name: (
        FaultRule(site=f"{name}.append", action="tear", at=1, tear_at=17),
        InjectedFault,
    ),
    "errno-at-write": lambda name: (
        FaultRule(site=f"{name}.write", action="errno", at=1, errno_name="ENOSPC"),
        OSError,
    ),
    "failing-fsync": lambda name: (
        FaultRule(site=f"{name}.fsync", action="errno", at=1, errno_name="EIO"),
        OSError,
    ),
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failed_append_heals_eagerly_and_next_append_succeeds(view, failure):
    view.add("kept")
    before = view.path.read_bytes()
    rule, raised = FAILURES[failure](view.name)
    with injected_faults([rule]):
        with pytest.raises(raised):
            view.add("failed")
        # Healed in place, before any reopen: the file is byte-identical
        # to its pre-append state and whatever landed is set aside.
        assert view.path.read_bytes() == before
        view.add("retried")
    assert view.tags() == ["kept", "retried"]
    assert view.reopen().tags() == ["kept", "retried"]
    assert view.scan().torn_tail_bytes == 0
    if failure == "errno-at-write":
        assert sidecars(view.path) == []  # no byte ever landed
    else:
        (sidecar,) = sidecars(view.path)
        assert sidecar.name == f"{view.path.name}.torn-{len(before)}.quarantined"
        assert reliability_events(f"{view.name}-torn-tail")


def test_failed_cut_is_retried_before_the_next_append(view, monkeypatch):
    view.add("kept")
    before = view.path.read_bytes()
    real_cut = CrcLog._cut
    calls = []

    def cut_fails_once(self, offset):
        calls.append(offset)
        if len(calls) == 1:
            raise OSError(errno.EIO, "truncate failed")
        return real_cut(self, offset)

    monkeypatch.setattr(CrcLog, "_cut", cut_fails_once)
    rule = FaultRule(site=f"{view.name}.fsync", action="errno", at=1)
    with injected_faults([rule]):
        with pytest.raises(OSError):
            view.add("ghost")
    assert view.path.read_bytes() != before  # the cut itself failed
    view.add("retried")
    assert calls == [len(before), len(before)]
    assert view.reopen().tags() == ["kept", "retried"]


# ---------------------------------------------------------------------------
# Sidecars are never overwritten.
# ---------------------------------------------------------------------------

def test_open_time_heal_never_overwrites_an_eager_sidecar(view):
    offset = view.path.stat().st_size if view.path.exists() else 0
    with injected_faults(
        [FaultRule(site=f"{view.name}.append", action="tear", at=1, tear_at=9)]
    ):
        with pytest.raises(InjectedFault):
            view.add("torn")
    (first,) = sidecars(view.path)
    first_bytes = first.read_bytes()
    # A later crash mid-append at the same offset: no eager heal ran.
    with open(view.path, "ab") as handle:
        handle.write(b'{"crashed": "mid-app')
    view.log.close()
    view.reopen()
    assert first.read_bytes() == first_bytes
    names = [path.name for path in sidecars(view.path)]
    base = f"{view.path.name}.torn-{offset}.quarantined"
    assert names == [base, base + ".1"]
    assert (view.path.parent / (base + ".1")).read_bytes() == b'{"crashed": "mid-app'


# ---------------------------------------------------------------------------
# Rewrites are atomic; scans are read-only; legacy lines.
# ---------------------------------------------------------------------------

def test_errno_mid_rewrite_leaves_old_file_and_no_temp(view, monkeypatch):
    view.add("a")
    view.add("b")
    before = view.path.read_bytes()

    def replace_fails(source, target):
        raise OSError(errno.EIO, "rename failed", str(target))

    monkeypatch.setattr(os, "replace", replace_fails)
    with pytest.raises(OSError):
        view.compact()
    monkeypatch.undo()
    assert view.path.read_bytes() == before
    assert sorted(p.name for p in view.path.parent.iterdir()) == [view.path.name]
    view.add("c")
    assert view.reopen().tags()[-1] == "c"


def test_scan_leaves_file_byte_identical(view):
    view.add("a")
    view.add("b")
    with open(view.path, "ab") as handle:
        handle.write(b"torn-garbage")
    before = view.path.read_bytes()
    scan = view.scan()
    assert view.path.read_bytes() == before
    assert scan.torn_tail_bytes == len(b"torn-garbage")
    assert scan.corrupt_lines == ()


def test_crc_less_lines_read_by_journal_only(view):
    view.add("a")
    view.log.close()
    with open(view.path, "ab") as handle:
        handle.write(view.legacy_line())
    reopened = view.reopen()
    if view.name == "journal":
        assert reopened.tags() == ["a", "legacy"]
        assert reopened.scan().torn_tail_bytes == 0
    else:
        assert reopened.tags() == ["a"]  # healed away as a torn tail
        assert len(sidecars(view.path)) == 1


# ---------------------------------------------------------------------------
# Open descriptors stay bounded by residency, not tenant count.
# ---------------------------------------------------------------------------

def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("path", ["intake", "journal"])
def test_open_descriptors_bounded_by_residency(tmp_path, path):
    max_resident = 2
    tenants = 3 * max_resident + 1
    worlds = {f"t-{index}": _fleet_world(index, commits=1) for index in range(tenants)}
    fleet = CIFleet(tmp_path / "fleet", sync=False, max_resident=max_resident)
    before = _open_fds()
    for tenant_id, world in worlds.items():
        _register(fleet, tenant_id, world)
    for tenant_id, world in worlds.items():
        model = world[3][0]
        if path == "intake":
            fleet.enqueue(tenant_id, model, message=model.name)  # cold tenants
        else:
            fleet.submit(tenant_id, model, message=model.name)
    # At most a journal and an intake handle per resident tenant.
    assert _open_fds() - before <= 2 * max_resident
    fleet.close()


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc")
def test_open_descriptors_bounded_across_processing_failures(tmp_path):
    """A failed drain drops its resident service with its handles closed.

    The cyclic garbage collector is off, so a dropped service's journal
    handle would stay open until the end of the test: each failed drain
    re-hydrates the tenant (opening its journal) and must close it again.
    """
    max_resident = 1
    world = _fleet_world(0, commits=1)
    fleet = CIFleet(
        tmp_path / "fleet",
        sync=False,
        max_resident=max_resident,
        failure_threshold=1000,
    )
    _register(fleet, "t-0", world)
    model = world[3][0]
    fleet.enqueue("t-0", model, message=model.name)
    rule = FaultRule(site="fleet.process", action="raise", probability=1.0, times=None)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = _open_fds()
        with injected_faults([rule]):
            for _ in range(8):
                with pytest.raises(InjectedFault):
                    fleet.drain("t-0")
        assert _open_fds() - before <= 2 * max_resident
    finally:
        if enabled:
            gc.enable()
    # The deferred entry still completes once the fault clears.
    assert [b.commit.sequence for b in fleet.drain("t-0").builds["t-0"]] == [0]
    fleet.close()


# ---------------------------------------------------------------------------
# Format lock: committed fixtures written by the pre-refactor code.
# ---------------------------------------------------------------------------

def test_fixtures_read_to_the_committed_description():
    expected = json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))
    assert describe(FIXTURES) == expected


def test_replayed_operations_write_byte_identical_files(tmp_path):
    expected = json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))
    write_logs(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(expected["sha256"])
    for name in written:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == expected["sha256"][name], name
    assert set(LOG_FILES) <= set(written)


# ---------------------------------------------------------------------------
# The ghost submission: an intake fsync fails, the client retries.
# ---------------------------------------------------------------------------

def test_intake_fsync_fault_then_retry_spends_budget_once(tmp_path):
    worlds = {"t-a": _fleet_world(0), "t-b": _fleet_world(1)}
    fleet = CIFleet(tmp_path / "fleet", sync=True)
    for tenant_id, world in worlds.items():
        _register(fleet, tenant_id, world)

    rule = FaultRule(site="intake.fsync", action="errno", at=2, errno_name="EIO")
    faults_seen = 0
    with injected_faults([rule]):
        for tenant_id, world in worlds.items():
            for model in world[3]:
                try:
                    fleet.enqueue(tenant_id, model, message=model.name)
                except OSError as exc:
                    assert exc.errno == errno.EIO
                    faults_seen += 1
                    # The client was told the submission failed and
                    # redelivers it.
                    fleet.enqueue(tenant_id, model, message=model.name)
        assert faults_seen == 1
        fleet.drain()

    assert fleet.fsck().healthy
    # A restart sees no ghost: nothing pending, every commit once.
    restarted = CIFleet(tmp_path / "fleet", sync=False)
    assert restarted.drain().builds == {}
    for tenant_id, world in worlds.items():
        reference = _fleet_reference(tenant_id, world)
        restored = CIService.resume(fleet.tenant_dir(tenant_id), record=False)
        assert_parity(reference, restored)
        assert len(restored.builds) == len(world[3])
