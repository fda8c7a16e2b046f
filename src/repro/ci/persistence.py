"""Durable CI state: versioned snapshots plus an append-only event journal.

ease.ml/ci's statistical guarantees live in server-side state — the
per-testset evaluation budget ``H``, the adaptivity-mode accounting, the
pool of unreleased test-set generations.  Losing that state to a process
restart is not an inconvenience, it *forfeits budget accounting*: a
rebooted service that re-evaluates commits on a released testset replays
labels the math says are spent.  This module makes the state durable:

* :class:`SnapshotStore` — versioned, atomic (write-temp-then-rename)
  pickle snapshots of :meth:`CIService.export_state` /
  :meth:`CIEngine.export_state` mappings.  Every snapshot records the
  journal sequence it was taken at, so a restorer knows where replay
  begins.
* :class:`EventJournal` — an append-only JSON-lines event log (commit
  received / build recorded / promotion / rotation / alarm / snapshot /
  restore).  ``commit-received`` records embed the committed model
  (pickled, base64) *before* the build runs, so a crash mid-build loses
  no commit: restore replays it deterministically.
* :func:`open_state_dir` — the one-directory layout convention
  (``<dir>/snapshots/`` + ``<dir>/journal.jsonl``) used by
  :meth:`CIService.persist_to` / :meth:`CIService.resume` and the
  ``repro ops`` CLI.

Crash model
-----------
Kill the process at any *journal boundary* (between two appends; each
append is flushed and fsynced before returning) and restore: the service
loads the latest snapshot, then replays every journaled
``commit-received`` whose repository sequence the snapshot does not yet
contain, in order, deduplicated by sequence.  Because evaluation is a
pure function of engine state and the committed model, the replayed
:class:`CommitResult`/:class:`BuildRecord` sequence is element-wise
identical to the uninterrupted run — in all three adaptivity modes (the
restart-parity suite asserts this).  A torn trailing journal line (the
crash landed mid-append) is ignored; a torn line *followed by* intact
records means real corruption and raises :class:`PersistenceError`.

Corruption model
----------------
Beyond clean crashes, the store tolerates *damaged files*.  Snapshot
envelopes carry a CRC-32 over the pickled payload and journal lines
carry a per-line CRC, so truncation and bit-rot are detected, not
deserialized.  A corrupt or truncated snapshot raises
:class:`~repro.exceptions.SnapshotCorruptError` from :meth:`SnapshotStore.load`;
:meth:`SnapshotStore.load_latest` instead *quarantines* it (renamed with
a ``.quarantined`` suffix — never deleted) and falls back to the next
older generation, which simply extends journal replay: the restored run
stays element-wise identical.  A torn trailing journal line is likewise
quarantined into a sidecar file before the self-healing truncation.
Every fallback/quarantine is recorded on the process-wide reliability
event log (:mod:`repro.reliability.events`) and reported by
``repro ops``; the read-only doctor behind ``repro ops --fsck``
(:mod:`repro.reliability.fsck`) classifies a state directory without
mutating it.

Side effects are recovered as state, not re-fired: notification
transports are runtime wiring, so replay suppresses the notifier — the
pre-crash process already delivered those messages, and at most the
single in-flight commit's notification can be lost.

Security note: snapshots and ``commit-received`` payloads contain
pickles (models are arbitrary objects).  State directories are trusted,
server-local data — never restore from an untrusted one.
"""

from __future__ import annotations

import base64
import itertools
import pickle
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.ci.durable import (
    CrcLog,
    crc32,
    render_line,
    replace_atomically,
    scan_log,
    set_aside,
)
from repro.exceptions import PersistenceError, SnapshotCorruptError
from repro.reliability.events import record_event
from repro.reliability.faults import fault_point, torn_bytes

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "COMMIT_RECEIVED",
    "BUILD_RECORDED",
    "PROMOTION",
    "ROTATION",
    "ALARM",
    "SNAPSHOT",
    "RESTORE",
    "COMPACTION",
    "EVENT_TYPES",
    "JournalRecord",
    "EventJournal",
    "JournalScan",
    "scan_journal",
    "SnapshotInfo",
    "PruneResult",
    "SnapshotStore",
    "open_state_dir",
    "encode_model",
    "decode_model",
]

#: Version of the on-disk snapshot envelope; bumped on incompatible change.
#: Version 2 wraps the payload pickle in a checksummed envelope; version 1
#: (unchecksummed) envelopes are still read.
SNAPSHOT_FORMAT_VERSION = 2


# Journal event types.  The first is the one replay is driven by; the rest
# form the operational audit trail.  COMPACTION is the checkpoint-truncate
# header: a compacted journal's first record, declaring every sequence at
# or below its ``compacted_through`` dropped (already captured by a
# snapshot) — readers treat the missing prefix as compacted, not torn.
COMMIT_RECEIVED = "commit-received"
BUILD_RECORDED = "build-recorded"
PROMOTION = "promotion"
ROTATION = "rotation"
ALARM = "alarm"
SNAPSHOT = "snapshot"
RESTORE = "restore"
COMPACTION = "compacted-through"

EVENT_TYPES = frozenset(
    {
        COMMIT_RECEIVED,
        BUILD_RECORDED,
        PROMOTION,
        ROTATION,
        ALARM,
        SNAPSHOT,
        RESTORE,
        COMPACTION,
    }
)

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{6})\.pkl$")


# ---------------------------------------------------------------------------
# Model payload encoding
# ---------------------------------------------------------------------------

def encode_model(model: Any) -> str:
    """Pickle ``model`` into a base64 string for a JSON journal payload."""
    return base64.b64encode(
        pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_model(payload: str) -> Any:
    """Invert :func:`encode_model` (trusted, server-local data only)."""
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JournalRecord:
    """One journal line.

    Attributes
    ----------
    sequence:
        Journal-wide 1-based append counter (monotonic; snapshots store
        the sequence they were taken at, and ``journal lag`` on the
        operations surface is the distance from it).
    type:
        One of the module's event-type constants.
    recorded_at:
        ISO-8601 UTC wall-clock stamp.  Operational metadata only — no
        result ever depends on it, preserving the library's determinism.
    payload:
        Event-specific JSON-compatible mapping.
    """

    sequence: int
    type: str
    recorded_at: str
    payload: dict[str, Any] = field(default_factory=dict)


def _decode_journal(raw: dict[str, Any]) -> JournalRecord:
    return JournalRecord(
        sequence=int(raw["sequence"]),
        type=str(raw["type"]),
        recorded_at=str(raw["recorded_at"]),
        payload=dict(raw.get("payload") or {}),
    )


class EventJournal:
    """An append-only JSON-lines event log with fsync durability.

    A typed view over a :class:`~repro.ci.durable.CrcLog`, which owns the
    line format, the torn-tail healing and the atomic rewrite; lines
    without a CRC (written before checksums existed) are still read.

    Parameters
    ----------
    path:
        The journal file (created, along with parent directories, on
        first append).  Existing records are scanned once at open to
        resume the sequence counter, and a torn trailing line is
        quarantined and truncated.
    sync:
        Fsync after every append (default).  Turning it off trades the
        crash guarantee for throughput — acceptable for tests and
        simulations, not for a deployment.
    clock:
        Timestamp source for ``recorded_at`` (UTC now by default);
        injectable for deterministic tests.
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
        self._log = CrcLog(
            self.path,
            name="journal",
            source="ci.persistence",
            decode=_decode_journal,
            legacy=True,
        )
        self._compacted_through = 0
        last = 0
        for record in self._log.heal():
            last = record.sequence
            if record.type == COMPACTION:
                self._compacted_through = max(
                    self._compacted_through,
                    int(record.payload.get("compacted_through", last)),
                )
        self._next_sequence = last + 1

    @property
    def last_sequence(self) -> int:
        """Sequence of the newest record (0 for an empty journal)."""
        return self._next_sequence - 1

    @property
    def compacted_through(self) -> int:
        """Highest sequence a compaction has dropped through (0 = never).

        Every record at or below this sequence was captured by a
        snapshot before :meth:`compact` removed it; readers must not
        interpret the missing prefix as loss.
        """
        return self._compacted_through

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def close(self) -> None:
        """Close the cached append handle (reopened lazily on next append)."""
        self._log.close()

    # -- writing -------------------------------------------------------------
    def append(self, type: str, payload: dict[str, Any] | None = None) -> JournalRecord:
        """Append one event; flushed (and fsynced) before returning.

        The record's JSON line is rendered through
        :func:`repro.utils.serialization.to_jsonable` — payloads may
        carry datetimes, paths, enums and numpy values directly — and
        stamped with a CRC-32 over its canonical serialization, so a
        reader can tell a damaged line from a valid one.

        A failed append (an injected tear, a failing fsync, a real
        ``ENOSPC``/``EIO``) is cut back off the file before the
        exception propagates (:meth:`CrcLog.append`): the event never
        happened, exactly as the crash model promises, and the next
        append succeeds.

        Fault-injection points: ``journal.write`` (``errno`` — the disk
        fills before any byte lands), ``journal.append`` (``tear``
        writes a partial line then raises — the crash-mid-append case)
        and ``journal.fsync`` (a failing disk after a complete write).
        """
        if type not in EVENT_TYPES:
            raise PersistenceError(
                f"unknown journal event type {type!r}; expected one of "
                f"{sorted(EVENT_TYPES)}"
            )
        record = JournalRecord(
            sequence=self._next_sequence,
            type=type,
            recorded_at=self._clock().isoformat(),
            payload=dict(payload or {}),
        )
        self._log.append(record, sync=self.sync)
        self._next_sequence += 1
        return record

    # -- compaction ----------------------------------------------------------
    def compact(self, through_sequence: int) -> int:
        """Checkpoint-truncate: drop records at or below ``through_sequence``.

        The caller asserts — normally by pointing at a *valid* snapshot's
        :attr:`~SnapshotInfo.journal_sequence` — that everything at or
        below ``through_sequence`` is captured durably elsewhere.  The
        journal is rewritten temp-then-rename: a ``compacted-through``
        header record first (carrying ``through_sequence`` as its own
        sequence, so the file stays monotonic and an all-dropped journal
        still resumes its counter correctly), then every surviving
        record with its original sequence and timestamp.  A crash at any
        point leaves either the old or the new journal, both complete.

        One streamed pass verifies every line and copies each surviving
        line's bytes verbatim when its CRC checks over them; crc-less
        legacy lines are re-rendered with a CRC.  A damaged line with an
        intact record after it (in the dropped prefix or among the
        survivors), or a dropped record after a survivor, raises
        :class:`PersistenceError` and leaves the journal untouched.  A
        torn tail and blank lines are not carried over.

        Compacting to a boundary at or below a previous compaction's is
        a no-op; returns the number of records dropped this pass.

        Fault-injection point: ``journal.compact`` (``errno`` — after the
        copy, before its fsync and rename; the temp file is removed and
        the original journal is untouched).
        """
        through = int(through_sequence)
        if through <= self._compacted_through:
            return 0
        if through > self.last_sequence:
            raise PersistenceError(
                f"cannot compact journal {self.path} through sequence "
                f"{through}: newest record is {self.last_sequence}"
            )
        dropped = prior_dropped = 0

        def compacted() -> Iterator[bytes]:
            # Sequences rise through the file: the dropped prefix comes
            # first, so the header's count is final at the first survivor.
            nonlocal dropped, prior_dropped
            lines = self._log.intact_lines()
            first = None
            for line, record in lines:
                if record.sequence > through:
                    first = (line, record)
                    break
                dropped += 1
                if record.type == COMPACTION:
                    prior_dropped = int(record.payload.get("dropped", 0))
            yield render_line(
                JournalRecord(
                    sequence=through,
                    type=COMPACTION,
                    recorded_at=self._clock().isoformat(),
                    payload={
                        "compacted_through": through,
                        "dropped": prior_dropped + dropped,
                    },
                )
            )
            if first is None:
                return
            for line, record in itertools.chain([first], lines):
                if record.sequence <= through:
                    raise PersistenceError(
                        f"journal {self.path} is out of sequence order: "
                        f"record {record.sequence} follows a later one"
                    )
                yield render_line(record) if line is None else line

        bytes_before = self.path.stat().st_size if self.path.exists() else 0
        self._log.rewrite(
            compacted(),
            temp=self.path.with_name(self.path.name + ".compact.tmp"),
            sync=self.sync,
            fsync_site="journal.compact",
        )
        self._compacted_through = through
        record_event(
            "journal-compacted",
            "ci.persistence",
            journal=str(self.path),
            compacted_through=through,
            dropped=dropped,
            bytes_before=bytes_before,
            bytes_after=self.path.stat().st_size,
        )
        return dropped

    # -- reading -------------------------------------------------------------
    def records(self) -> Iterator[JournalRecord]:
        """Yield every intact record, oldest first.

        A torn *trailing* line — the crash landed mid-append — is
        silently dropped (its event never happened, by the crash model).
        A malformed or CRC-failing line with intact records after it is
        corruption and raises :class:`PersistenceError`.
        """
        return self._log.records()

    def records_of(self, type: str) -> Iterator[JournalRecord]:
        """Yield intact records of one event type, oldest first."""
        return (record for record in self.records() if record.type == type)


@dataclass(frozen=True)
class JournalScan:
    """Read-only classification of a journal file (``repro ops --fsck``).

    Unlike constructing an :class:`EventJournal` — which self-heals by
    truncating a torn trailing line — producing this report never
    touches the file.

    Attributes
    ----------
    path:
        The scanned journal file.
    exists:
        Whether the file exists at all.
    records:
        Count of intact records.
    last_sequence:
        Sequence of the newest intact record (0 when none).
    corrupt_lines:
        1-based line numbers of malformed / CRC-failing lines that are
        *followed by* intact records (real corruption; replay raises).
    torn_tail_bytes:
        Size of the invalid trailing region (a crash artifact the next
        open would quarantine and truncate), 0 when the tail is clean.
    commit_sequences:
        Repository sequences of every intact ``commit-received`` record,
        in journal order — what replay depth is computed from.
    commit_journal_sequences:
        *Journal* sequences of those same records, aligned with
        ``commit_sequences`` — how the doctor counts commits past a
        snapshot's anchor.
    compacted_through:
        Highest ``compacted-through`` header boundary in the file (0
        when the journal was never compacted).  Records at or below
        this sequence were deliberately dropped by compaction — their
        absence is not loss, but a restore needs a snapshot anchored at
        or past this boundary.
    """

    path: Path
    exists: bool
    records: int
    last_sequence: int
    corrupt_lines: tuple[int, ...]
    torn_tail_bytes: int
    commit_sequences: tuple[int, ...]
    commit_journal_sequences: tuple[int, ...]
    compacted_through: int = 0


def scan_journal(path: str | Path) -> JournalScan:
    """Classify a journal file without opening it for repair."""
    path = Path(path)
    scan = scan_log(path, _decode_journal, legacy=True)
    if scan is None:
        return JournalScan(
            path=path,
            exists=False,
            records=0,
            last_sequence=0,
            corrupt_lines=(),
            torn_tail_bytes=0,
            commit_sequences=(),
            commit_journal_sequences=(),
        )
    records = scan.records
    commits = [
        record
        for record in records
        if record.type == COMMIT_RECEIVED and "sequence" in record.payload
    ]
    return JournalScan(
        path=path,
        exists=True,
        records=len(records),
        last_sequence=records[-1].sequence if records else 0,
        corrupt_lines=scan.corrupt_lines,
        torn_tail_bytes=scan.torn_tail_bytes,
        commit_sequences=tuple(int(r.payload["sequence"]) for r in commits),
        commit_journal_sequences=tuple(r.sequence for r in commits),
        compacted_through=max(
            (
                int(r.payload.get("compacted_through", r.sequence))
                for r in records
                if r.type == COMPACTION
            ),
            default=0,
        ),
    )


# ---------------------------------------------------------------------------
# The snapshot store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotInfo:
    """Metadata of one stored snapshot.

    Attributes
    ----------
    sequence:
        1-based snapshot counter within the store.
    journal_sequence:
        The journal's :attr:`~EventJournal.last_sequence` at save time —
        where replay begins for a restore from this snapshot.
    format_version:
        On-disk envelope version the snapshot was written with.
    path:
        The snapshot file.
    """

    sequence: int
    journal_sequence: int
    format_version: int
    path: Path


class PruneResult(list):
    """The snapshot files one :meth:`SnapshotStore.prune` removed, oldest first.

    ``anchor`` is the journal sequence of the oldest retained valid
    generation (0 when none is left): the safe compaction boundary,
    since every snapshot still in the store anchors at or past it, so
    replay from any of them — including an older generation reached by
    corruption fallback — never lands in a compacted gap.
    """

    def __init__(self, *, anchor: int = 0):
        super().__init__()
        self.anchor = anchor


class SnapshotStore:
    """Versioned, atomically-written snapshots of exported CI state.

    Each :meth:`save` pickles an envelope ``{format_version, sequence,
    journal_sequence, payload}`` to a temporary file in the store
    directory and :func:`os.replace`-renames it into place — a reader
    (or a crash) never observes a half-written snapshot.  Snapshots are
    numbered; :meth:`load_latest` restores from the newest one and older
    generations remain on disk as a fallback/audit trail (prune with
    :meth:`prune`).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        # Metadata of snapshots this instance has saved or loaded, so the
        # operations surface (journal lag needs only 3 ints) does not
        # unpickle whole engine states from disk on every report.  Keyed
        # by sequence; a sequence minted by another process is simply not
        # cached yet and falls back to a disk read.
        self._info_cache: dict[int, SnapshotInfo] = {}

    # -- inspection ----------------------------------------------------------
    def _entries(self) -> list[tuple[int, Path]]:
        if not self.directory.is_dir():
            return []
        entries = []
        for child in self.directory.iterdir():
            match = _SNAPSHOT_NAME.match(child.name)
            if match:
                entries.append((int(match.group(1)), child))
        return sorted(entries)

    def sequences(self) -> list[int]:
        """Stored snapshot sequence numbers, oldest first."""
        return [sequence for sequence, _ in self._entries()]

    @property
    def latest_sequence(self) -> int:
        """Newest stored sequence (0 for an empty store)."""
        entries = self._entries()
        return entries[-1][0] if entries else 0

    def snapshots(self) -> list[SnapshotInfo]:
        """Metadata of every stored snapshot, oldest first (no payloads)."""
        return [self._info(sequence) for sequence in self.sequences()]

    def _info(self, sequence: int) -> SnapshotInfo:
        cached = self._info_cache.get(sequence)
        return cached if cached is not None else self.load(sequence)[1]

    # -- writing -------------------------------------------------------------
    def save(self, payload: Any, *, journal_sequence: int = 0) -> SnapshotInfo:
        """Persist ``payload`` as the next snapshot generation, atomically.

        The payload pickle is wrapped in an envelope carrying its CRC-32,
        so a reader can tell truncation and bit-rot from valid state.

        Fault-injection points: ``snapshot.write`` (``tear`` writes a
        truncated envelope straight to the final path and *returns
        normally* — the silent-corruption case a checksum exists to
        catch), ``snapshot.fsync`` (``raise`` simulates a failing disk
        before the atomic rename; nothing is renamed into place) and
        ``snapshot.rename`` (``errno`` — ``ENOSPC``/``EIO`` at the
        rename itself; the temp file is removed and the previous
        generation stays the newest).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        sequence = self.latest_sequence + 1
        payload_pickle = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "sequence": sequence,
            "journal_sequence": int(journal_sequence),
            "checksum": crc32(payload_pickle),
            "payload_pickle": payload_pickle,
        }
        data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        path = self.directory / f"snapshot-{sequence:06d}.pkl"
        info = SnapshotInfo(
            sequence=sequence,
            journal_sequence=int(journal_sequence),
            format_version=SNAPSHOT_FORMAT_VERSION,
            path=path,
        )
        torn = torn_bytes(data, fault_point("snapshot.write"))
        if torn is not None:
            # Simulated bit-rot / non-atomic filesystem: the torn bytes
            # land at the final path and the writer believes it
            # succeeded.  load() detects this through the checksum.
            path.write_bytes(torn)
            self._info_cache[sequence] = info
            return info
        replace_atomically(
            path,
            data,
            temp=path.with_suffix(".pkl.tmp"),
            fsync_site="snapshot.fsync",
            replace_site="snapshot.rename",
        )
        self._info_cache[sequence] = info
        return info

    def prune(self, keep: int = 1) -> PruneResult:
        """Delete old *valid* snapshots, keeping the newest ``keep`` of them.

        Only snapshots that verify (envelope readable, checksum intact)
        are ever deleted: pruning on sequence number alone could, after
        the latest snapshot was corrupted, remove the only restorable
        generation while keeping the damaged one.  Corrupt files are
        never deleted here — they are :meth:`load_latest`'s to
        quarantine and ``repro ops --fsck``'s to report.

        Each generation is read and checksummed once, on disk, on every
        call — never taken from the metadata cache, because a file this
        process saved may have been damaged since.  Returns the removed
        paths with the retained generations' compaction anchor (see
        :class:`PruneResult`).
        """
        if keep < 1:
            raise PersistenceError(f"keep must be >= 1, got {keep}")
        entries = self._entries()
        anchors = self._valid_anchors(entries)
        retained = sorted(anchors)[-keep:]
        removed = PruneResult(
            anchor=min((anchors[sequence] for sequence in retained), default=0)
        )
        for sequence, path in entries:
            if sequence in anchors and sequence not in retained:
                path.unlink()
                self._info_cache.pop(sequence, None)
                removed.append(path)
        return removed

    # -- reading -------------------------------------------------------------
    def _read_envelope(self, sequence: int) -> tuple[dict[str, Any], Path]:
        """Read and integrity-check one envelope (payload not unpickled)."""
        path = self.directory / f"snapshot-{sequence:06d}.pkl"
        if not path.exists():
            raise PersistenceError(
                f"snapshot {sequence} not found in {self.directory}"
            )
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
            if not isinstance(envelope, dict):
                raise ValueError(f"envelope is {type(envelope).__name__}, not dict")
        except PersistenceError:
            raise
        except Exception as exc:
            raise SnapshotCorruptError(
                f"snapshot {path} is unreadable (truncated or damaged): {exc}"
            ) from exc
        version = envelope.get("format_version")
        if version not in (1, SNAPSHOT_FORMAT_VERSION):
            raise PersistenceError(
                f"snapshot {path} has format version {version!r}; this build "
                f"reads version {SNAPSHOT_FORMAT_VERSION}"
            )
        if version != 1 and crc32(envelope["payload_pickle"]) != envelope.get(
            "checksum"
        ):
            raise SnapshotCorruptError(
                f"snapshot {path} failed its checksum (bit-rot or torn write)"
            )
        return envelope, path

    def _valid_anchors(self, entries: list[tuple[int, Path]]) -> dict[int, int]:
        """``{sequence: journal_sequence}`` of the ``entries`` that verify.

        Reads and checksums each file on disk, without unpickling its
        payload; corrupt or unsupported generations are left out.
        """
        anchors = {}
        for sequence, _ in entries:
            try:
                envelope, _ = self._read_envelope(sequence)
            except PersistenceError:
                continue
            anchors[sequence] = int(envelope.get("journal_sequence", 0))
        return anchors

    def verify(self, sequence: int) -> bool:
        """Whether snapshot ``sequence`` exists and passes integrity checks."""
        try:
            self._read_envelope(sequence)
        except PersistenceError:
            return False
        return True

    def load(self, sequence: int) -> tuple[Any, SnapshotInfo]:
        """Load one snapshot generation; returns ``(payload, info)``.

        Raises :class:`~repro.exceptions.SnapshotCorruptError` (a
        :class:`PersistenceError`) when the file is truncated, fails its
        checksum, or does not unpickle.
        """
        envelope, path = self._read_envelope(sequence)
        version = int(envelope["format_version"])
        if version == 1:
            payload = envelope["payload"]
        else:
            try:
                payload = pickle.loads(envelope["payload_pickle"])
            except Exception as exc:
                raise SnapshotCorruptError(
                    f"snapshot {path} payload does not unpickle: {exc}"
                ) from exc
        info = SnapshotInfo(
            sequence=int(envelope["sequence"]),
            journal_sequence=int(envelope["journal_sequence"]),
            format_version=version,
            path=path,
        )
        self._info_cache[info.sequence] = info
        return payload, info

    def quarantined(self) -> list[Path]:
        """Quarantined snapshot files in this store, oldest name first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.quarantined*"))

    def _quarantine(self, sequence: int, path: Path, error: Exception) -> Path:
        """Move a corrupt snapshot aside (never delete) and log the event."""
        target = set_aside(path.with_name(path.name + ".quarantined"), source=path)
        self._info_cache.pop(sequence, None)
        record_event(
            "snapshot-quarantined",
            "ci.persistence",
            snapshot=str(path),
            quarantined=str(target),
            error=str(error),
        )
        return target

    def load_latest(
        self, *, quarantine: bool = True
    ) -> tuple[Any, SnapshotInfo] | None:
        """Load the newest *restorable* snapshot, or ``None`` for none.

        A corrupt or truncated newest snapshot does not abort the
        restore: it is quarantined (renamed aside, never deleted) and
        the next older generation is tried, which simply extends the
        journal replay a restorer performs.  Each skip is recorded on
        the reliability event log.  With ``quarantine=False`` corrupt
        snapshots are skipped but left in place — the read-only
        inspection mode ``repro ops`` uses.
        """
        skipped = 0
        for sequence, path in reversed(self._entries()):
            try:
                payload, info = self.load(sequence)
            except SnapshotCorruptError as exc:
                if quarantine:
                    self._quarantine(sequence, path, exc)
                else:
                    record_event(
                        "snapshot-skipped",
                        "ci.persistence",
                        snapshot=str(path),
                        error=str(exc),
                    )
                skipped += 1
                continue
            if skipped:
                record_event(
                    "snapshot-fallback",
                    "ci.persistence",
                    restored_sequence=info.sequence,
                    skipped_snapshots=skipped,
                    journal_sequence=info.journal_sequence,
                )
            return payload, info
        return None

    def latest_info(self) -> SnapshotInfo | None:
        """Metadata of the newest *readable* snapshot (``None`` for none).

        Served from the instance's metadata cache when this process saved
        or loaded that snapshot — the operations surface calls this per
        report, and unpickling a full engine state to read three ints
        would make a cheap counters report cost a disk-sized load.
        Corrupt newer snapshots are skipped, mirroring what
        :meth:`load_latest` would restore from, so an operations report
        over a damaged store describes the restorable generation instead
        of raising.
        """
        for sequence, _ in reversed(self._entries()):
            cached = self._info_cache.get(sequence)
            if cached is not None:
                return cached
            try:
                return self.load(sequence)[1]
            except PersistenceError:
                continue
        return None


# ---------------------------------------------------------------------------
# State-directory convention
# ---------------------------------------------------------------------------

def open_state_dir(
    path: str | Path, *, create: bool = True, sync: bool = True
) -> tuple[SnapshotStore, EventJournal]:
    """Open (or create) the one-directory layout the service and CLI share.

    ``<path>/snapshots/`` holds the :class:`SnapshotStore`;
    ``<path>/journal.jsonl`` is the :class:`EventJournal`.  With
    ``create=False`` a missing directory raises :class:`PersistenceError`
    (the ``repro ops`` CLI uses this so a typo'd path fails loudly
    instead of materializing an empty state dir).
    """
    directory = Path(path)
    if not directory.is_dir():
        if not create:
            raise PersistenceError(f"state directory {directory} does not exist")
        directory.mkdir(parents=True, exist_ok=True)
    return (
        SnapshotStore(directory / "snapshots"),
        EventJournal(directory / "journal.jsonl", sync=sync),
    )
