"""Format-lock fixtures for the two CRC-line logs (journal and intake).

:func:`write_logs` replays a fixed sequence of journal and intake
operations under a fixed clock; :func:`describe` reads the resulting
files back (scans, records, healed state) into a JSON-compatible
mapping.  The committed ``tests/data/logs/`` files were written by this
script, and ``tests/reliability/test_durable_log.py`` checks that the
current code both reads them to the committed description and, replaying
the same operations, writes byte-identical files.

Regenerate (only for a deliberate, versioned format change)::

    PYTHONPATH=src python tests/data/log_fixtures.py tests/data/logs
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from repro.ci.persistence import (
    ALARM,
    BUILD_RECORDED,
    COMMIT_RECEIVED,
    SNAPSHOT,
    EventJournal,
    encode_model,
    scan_journal,
)
from repro.fleet.intake import IntakeQueue, scan_intake

#: A record written before journal lines carried a CRC: still readable.
LEGACY_LINE = (
    b'{"payload": {"note": "pre-checksum"}, '
    b'"recorded_at": "2025-12-31T00:00:00+00:00", "sequence": 6, '
    b'"type": "alarm"}\n'
)
#: The first bytes of an append the process died in.
TORN_TAIL = b'{"payload": {}, "recorded_at": "2026-01-01T00:00'

LOG_FILES = (
    "journal.jsonl",
    "journal-compacted.jsonl",
    "intake.jsonl",
)


class FixedClock:
    """Each call is one millisecond after the previous one."""

    epoch = datetime(2026, 1, 1, tzinfo=timezone.utc)

    def __init__(self) -> None:
        self.ticks = 0

    def __call__(self) -> datetime:
        self.ticks += 1
        return self.epoch + timedelta(milliseconds=self.ticks)


def write_logs(directory: Path) -> None:
    """Replay the fixture operations into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    clock = FixedClock()

    journal = EventJournal(directory / "journal.jsonl", sync=False, clock=clock)
    journal.append(COMMIT_RECEIVED, {"sequence": 0, "model": encode_model((0, 1))})
    journal.append(BUILD_RECORDED, {"build": 1, "passed": True, "eps": 0.025})
    journal.append(COMMIT_RECEIVED, {"sequence": 1, "model": encode_model((1, 1))})
    journal.append(BUILD_RECORDED, {"build": 2, "passed": False, "note": "naïve"})
    journal.compact(2)
    journal.append(SNAPSHOT, {"snapshot_sequence": 1, "at": clock()})
    journal.close()
    with open(directory / "journal.jsonl", "ab") as handle:
        handle.write(LEGACY_LINE + TORN_TAIL)

    # Reopening heals the torn tail into a sidecar; compacting past the
    # legacy line's predecessors rewrites the legacy line as a survivor.
    compacted = directory / "journal-compacted.jsonl"
    shutil.copyfile(directory / "journal.jsonl", compacted)
    journal = EventJournal(compacted, sync=False, clock=clock)
    journal.append(ALARM, {"generation": 2})
    journal.compact(5)
    journal.close()

    queue = IntakeQueue.create(
        directory / "intake.jsonl", base_repo_sequence=3, sync=False, clock=clock
    )
    for tag in ("a", "b", "c"):
        queue.append(("model", tag), message=f"commit {tag}", author="dev")
    queue.ack(3)
    queue.ack(4)
    queue.compact()
    queue.append(("model", "d"), message="commit d")
    queue.ack(5)


def _plain(value):
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, Path):
        return value.name
    return value


def describe(directory: Path) -> dict:
    """Everything a reader of ``directory``'s logs sees (read-only)."""
    directory = Path(directory)
    described = {
        "sha256": {
            name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in sorted(
                path.name for path in directory.iterdir() if path.is_file()
                and path.name != "expected.json"
            )
        },
        "scan_journal": _plain(scan_journal(directory / "journal.jsonl")),
        "scan_journal_compacted": _plain(
            scan_journal(directory / "journal-compacted.jsonl")
        ),
        "scan_intake": _plain(scan_intake(directory / "intake.jsonl")),
    }
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        for name in LOG_FILES:
            shutil.copyfile(directory / name, copy / name)
        journal = EventJournal(copy / "journal.jsonl", sync=False)
        described["journal"] = {
            "records": _plain(list(journal.records())),
            "last_sequence": journal.last_sequence,
            "compacted_through": journal.compacted_through,
            "sidecars": {
                path.name: path.read_bytes().decode("utf-8")
                for path in sorted(copy.glob("journal.jsonl.torn-*"))
            },
            "healed_sha256": hashlib.sha256(
                (copy / "journal.jsonl").read_bytes()
            ).hexdigest(),
        }
        journal.close()
        journal = EventJournal(copy / "journal-compacted.jsonl", sync=False)
        described["journal_compacted"] = {
            "records": _plain(list(journal.records())),
            "last_sequence": journal.last_sequence,
            "compacted_through": journal.compacted_through,
        }
        journal.close()
        queue = IntakeQueue(copy / "intake.jsonl", sync=False)
        described["intake"] = {
            "records": _plain(list(queue.records())),
            "pending": [record.repo_sequence for record in queue.pending()],
            "next_repo_sequence": queue.next_repo_sequence,
            "acked_count": queue.acked_count,
        }
    return described


def main(argv: list[str]) -> int:
    target = Path(argv[1])
    with tempfile.TemporaryDirectory() as scratch:
        written = Path(scratch) / "logs"
        write_logs(written)
        target.mkdir(parents=True, exist_ok=True)
        for path in written.iterdir():
            shutil.copyfile(path, target / path.name)
    expected = describe(target)
    (target / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
