"""The durable intake queue: a webhook submission, once accepted, survives.

The fleet gateway's contract is *accept-then-never-lose*: a submission
that passes admission control is appended to the tenant's intake queue —
an append-only, CRC'd JSON-lines file, fsynced like the event journal —
before anything evaluates it.  A crash between acceptance and processing
therefore loses nothing: the next drain replays the queue, and replay is
idempotent *by sequence* because every submission records the repository
sequence it will become.

Record kinds
------------
``cursor``
    Written once at queue creation: the tenant repository's length at
    that moment.  Every later repository sequence is derived from it, so
    the queue is self-describing even when empty or freshly compacted.
``submission``
    One accepted webhook submission: the pickled model (base64, like the
    journal's ``commit-received`` records), message, author, and the
    ``repo_sequence`` this submission will occupy in the tenant's
    repository.  Submissions are processed strictly in order, so the
    mapping is fixed at append time.
``ack``
    The submission at ``repo_sequence`` has been fully processed (its
    commit is journaled in the tenant's own event journal).  A crash
    *between* the commit landing in the tenant journal and the ack being
    appended is healed at the next drain: the entry's ``repo_sequence``
    is already below the repository length, so the drain re-acks it
    without re-running the build — never a duplicate.

Crash model
-----------
Identical to :class:`repro.ci.persistence.EventJournal`: both are views
over :class:`repro.ci.durable.CrcLog`, so a failed append is cut back
off the file before its exception propagates (a submission the client
was told failed is never processed), a torn trailing line left by a
crash is quarantined and truncated at the next open, and garbage
followed by intact records raises :class:`PersistenceError`.  Fault
sites, traversed by submission *and* ack appends: ``intake.append``
(``tear``), ``intake.write`` (``errno`` before any byte lands) and
``intake.fsync``; ``intake.compact`` aborts a compaction before it
starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.ci.durable import CrcLog, render_line, replace_atomically, scan_log
from repro.ci.persistence import decode_model, encode_model
from repro.exceptions import PersistenceError
from repro.reliability.faults import fault_point

__all__ = ["IntakeRecord", "IntakeScan", "IntakeQueue", "scan_intake"]

_CURSOR = "cursor"
_SUBMISSION = "submission"
_ACK = "ack"
_KINDS = frozenset({_CURSOR, _SUBMISSION, _ACK})


@dataclass(frozen=True)
class IntakeRecord:
    """One intact intake-queue record.

    Attributes
    ----------
    sequence:
        File-wide 1-based append counter (monotonic across compactions).
    kind:
        ``"cursor"``, ``"submission"`` or ``"ack"``.
    repo_sequence:
        For cursors: the repository length the queue starts from.  For
        submissions: the repository sequence this submission becomes.
        For acks: the acknowledged submission's ``repo_sequence``.
    payload:
        Submission-only content (``model_pickle``, ``message``,
        ``author``).
    recorded_at:
        ISO-8601 UTC stamp (operational metadata, never load-bearing).
    """

    sequence: int
    kind: str
    repo_sequence: int
    recorded_at: str
    payload: dict[str, Any] = field(default_factory=dict)

    def model(self) -> Any:
        """Unpickle the submitted model (submission records only)."""
        return decode_model(self.payload["model_pickle"])


def _decode_intake(raw: dict[str, Any]) -> IntakeRecord:
    if raw["kind"] not in _KINDS:
        raise ValueError(f"unknown intake record kind {raw['kind']!r}")
    return IntakeRecord(
        sequence=int(raw["sequence"]),
        kind=str(raw["kind"]),
        repo_sequence=int(raw["repo_sequence"]),
        recorded_at=str(raw.get("recorded_at", "")),
        payload=dict(raw.get("payload") or {}),
    )


@dataclass(frozen=True)
class IntakeScan:
    """Read-only classification of an intake file (fleet fsck).

    Attributes
    ----------
    path:
        The scanned intake file.
    exists:
        Whether the file exists at all.
    records:
        Count of intact records (all kinds).
    pending:
        Submissions with no ack — the replay a drain would perform.
    acked:
        Submissions already acknowledged.
    corrupt_lines:
        1-based numbers of damaged lines *followed by* intact records
        (real corruption; reading raises).
    torn_tail_bytes:
        Size of the invalid trailing region (tolerated crash artifact).
    """

    path: Path
    exists: bool
    records: int
    pending: int
    acked: int
    corrupt_lines: tuple[int, ...]
    torn_tail_bytes: int


class IntakeQueue:
    """One tenant's durable intake queue.

    A typed view over a :class:`~repro.ci.durable.CrcLog`, which owns the
    line format, torn-tail healing and the atomic rewrite; every intake
    line must carry a CRC.

    Parameters
    ----------
    path:
        The intake file (``<tenant-dir>/intake.jsonl``).  Created — with
        its genesis cursor — by :meth:`create`; opening an existing file
        scans it once, healing a torn trailing line exactly like the
        event journal.
    sync:
        Fsync every append (default).  Turning it off trades the
        accept-then-never-lose guarantee for throughput.
    clock:
        Timestamp source for ``recorded_at``; injectable for tests.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
    ):
        self.path = Path(path)
        self.sync = bool(sync)
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._next_sequence = 1
        self._next_repo_sequence = 0
        self._acked: set[int] = set()
        self._pending: dict[int, IntakeRecord] = {}
        if not self.path.exists():
            raise PersistenceError(
                f"intake queue {self.path} does not exist; create it with "
                "IntakeQueue.create()"
            )
        self._log = CrcLog(
            self.path, name="intake", source="fleet.intake", decode=_decode_intake
        )
        for record in self._log.heal():
            self._fold(record)

    @classmethod
    def create(
        cls,
        path: str | Path,
        *,
        base_repo_sequence: int = 0,
        sync: bool = True,
        clock: Callable[[], datetime] | None = None,
    ) -> "IntakeQueue":
        """Create a fresh queue anchored at ``base_repo_sequence``.

        The genesis cursor records the tenant repository's length at
        creation, so every later submission's ``repo_sequence`` is
        derivable from the file alone.
        """
        path = Path(path)
        if path.exists():
            raise PersistenceError(f"intake queue {path} already exists")
        path.parent.mkdir(parents=True, exist_ok=True)
        stamp = (clock or (lambda: datetime.now(timezone.utc)))()
        cursor = IntakeRecord(
            sequence=1,
            kind=_CURSOR,
            repo_sequence=int(base_repo_sequence),
            recorded_at=stamp.isoformat(),
        )
        replace_atomically(
            path,
            render_line(cursor),
            temp=path.with_name(path.name + ".tmp"),
            sync=sync,
        )
        return cls(path, sync=sync, clock=clock)

    def _fold(self, record: IntakeRecord) -> None:
        self._next_sequence = max(self._next_sequence, record.sequence + 1)
        if record.kind == _CURSOR:
            self._next_repo_sequence = max(
                self._next_repo_sequence, record.repo_sequence
            )
        elif record.kind == _SUBMISSION:
            self._pending[record.repo_sequence] = record
            self._next_repo_sequence = max(
                self._next_repo_sequence, record.repo_sequence + 1
            )
        elif record.kind == _ACK:
            self._acked.add(record.repo_sequence)
            self._pending.pop(record.repo_sequence, None)

    # -- inspection ----------------------------------------------------------
    @property
    def next_repo_sequence(self) -> int:
        """The repository sequence the next accepted submission becomes."""
        return self._next_repo_sequence

    @property
    def pending_count(self) -> int:
        """Accepted-but-unacknowledged submissions (the queue's depth)."""
        return len(self._pending)

    @property
    def acked_count(self) -> int:
        """Submissions acknowledged since the last compaction."""
        return len(self._acked)

    def pending(self) -> list[IntakeRecord]:
        """Unacknowledged submissions, in repository-sequence order."""
        return [self._pending[key] for key in sorted(self._pending)]

    # -- writing -------------------------------------------------------------
    def _append_record(
        self, kind: str, repo_sequence: int, payload: dict[str, Any]
    ) -> IntakeRecord:
        record = IntakeRecord(
            sequence=self._next_sequence,
            kind=kind,
            repo_sequence=int(repo_sequence),
            recorded_at=self._clock().isoformat(),
            payload=payload,
        )
        self._log.append(record, sync=self.sync)
        self._next_sequence += 1
        return record

    def append(
        self, model: Any, *, message: str = "", author: str = "developer"
    ) -> IntakeRecord:
        """Durably accept one submission; fsynced before returning.

        The returned record's ``repo_sequence`` is the submission's
        identity for acknowledgement and for locating its eventual build
        (``BuildRecord.commit.sequence`` equals it).  When the append
        fails the line is cut back off the file before the exception
        propagates: by the crash model the submission was *not*
        accepted, and a retry cannot leave it queued twice.
        """
        record = self._append_record(
            _SUBMISSION,
            self._next_repo_sequence,
            {
                "model_pickle": encode_model(model),
                "message": str(message),
                "author": str(author),
            },
        )
        self._pending[record.repo_sequence] = record
        self._next_repo_sequence = record.repo_sequence + 1
        return record

    def ack(self, repo_sequence: int) -> IntakeRecord:
        """Durably mark the submission at ``repo_sequence`` processed."""
        record = self._append_record(_ACK, repo_sequence, {})
        self._acked.add(record.repo_sequence)
        self._pending.pop(record.repo_sequence, None)
        return record

    def compact(self) -> int:
        """Atomically rewrite the file without acknowledged submissions.

        Keeps a fresh cursor (anchored past every acknowledged
        submission) plus the pending entries, preserving their original
        sequences — so a fleet that evicts a tenant bounds that tenant's
        intake file by its *pending* depth, not its lifetime traffic.
        Returns the number of records dropped.  Written
        temp-then-rename, so a crash mid-compaction leaves the previous
        file intact.

        Fault-injection point: ``intake.compact`` (``errno`` — the
        rewrite never starts; the original file is untouched).
        """
        pending = self.pending()
        base = self._next_repo_sequence - len(pending)
        fault_point("intake.compact")
        cursor = IntakeRecord(
            sequence=self._next_sequence,
            kind=_CURSOR,
            repo_sequence=base,
            recorded_at=self._clock().isoformat(),
        )
        self._log.rewrite(
            map(render_line, [cursor] + pending),
            temp=self.path.with_name(self.path.name + ".tmp"),
            sync=self.sync,
        )
        dropped = len(self._acked)
        self._acked.clear()
        self._next_sequence = cursor.sequence + 1
        return dropped

    def close(self) -> None:
        """Close the cached append handle (reopened lazily on next append)."""
        self._log.close()

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[IntakeRecord]:
        """Yield every intact record, oldest first.

        A damaged line followed by intact records raises
        :class:`PersistenceError` (mirroring the journal's corruption
        contract); a torn trailing line was already healed at open.
        """
        return self._log.records()


def scan_intake(path: str | Path) -> IntakeScan:
    """Classify an intake file without opening it for repair (read-only)."""
    path = Path(path)
    scan = scan_log(path, _decode_intake)
    if scan is None:
        return IntakeScan(
            path=path,
            exists=False,
            records=0,
            pending=0,
            acked=0,
            corrupt_lines=(),
            torn_tail_bytes=0,
        )
    records = scan.records
    submissions = {r.repo_sequence for r in records if r.kind == _SUBMISSION}
    acked = {r.repo_sequence for r in records if r.kind == _ACK}
    return IntakeScan(
        path=path,
        exists=True,
        records=len(records),
        pending=len(submissions - acked),
        acked=len(submissions & acked),
        corrupt_lines=scan.corrupt_lines,
        torn_tail_bytes=scan.torn_tail_bytes,
    )
