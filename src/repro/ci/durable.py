"""The durable CRC-line log behind the event journal and the intake queue.

:class:`~repro.ci.persistence.EventJournal` and
:class:`~repro.fleet.intake.IntakeQueue` are typed views over
:class:`CrcLog`, which owns the line format (sorted-key JSON plus a
``crc`` over the rest of the line), appends, the torn-tail heal at open
and after a failed append, quarantine sidecars, the atomic rewrite and
the read-only scan.  :class:`~repro.ci.persistence.SnapshotStore` shares
:func:`replace_atomically` and :func:`set_aside`.  The rules are stated
in ``docs/state-persistence.md`` ("The CRC line log").
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import PersistenceError
from repro.reliability.events import record_event
from repro.reliability.faults import InjectedFault, fault_point, torn_bytes
from repro.utils.serialization import to_jsonable

__all__ = [
    "crc32",
    "render_line",
    "LogScan",
    "scan_log",
    "set_aside",
    "replace_atomically",
    "CrcLog",
]


def crc32(data: bytes) -> int:
    """Unsigned CRC-32 (the checksum of log lines and snapshot payloads)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def render_line(record: Any) -> bytes:
    """One CRC-stamped, newline-terminated JSON line for ``record``.

    ``record`` (a record dataclass) is rendered through
    :func:`~repro.utils.serialization.to_jsonable`.
    """
    rendered = to_jsonable(record)
    body = json.dumps(rendered, sort_keys=True).encode("utf-8")
    rendered["crc"] = crc32(body)
    return (json.dumps(rendered, sort_keys=True) + "\n").encode("utf-8")


#: CRC-32 of the ``{`` a rendered line's checked body starts with.
_BRACE_CRC = zlib.crc32(b"{")


def _crc_over_bytes(chunk: bytes, crc: int) -> bool:
    """Whether ``chunk`` carries ``crc`` over its own bytes.

    :func:`render_line` writes ``{"crc": N, `` + body (sorted keys put
    ``crc`` first), where ``N`` is the CRC of ``{`` + body, the record's
    canonical JSON without ``crc``.  Checking those bytes directly needs
    no re-serialization; a line that does not have this exact shape
    fails here and is left to the re-serialization check.
    """
    if type(crc) is not int:
        return False
    head = b'{"crc": %d, ' % crc
    if not chunk.startswith(head):
        return False
    end = len(chunk) - 1 if chunk.endswith(b"\n") else len(chunk)
    body = memoryview(chunk)[len(head):end]
    return zlib.crc32(body, _BRACE_CRC) & 0xFFFFFFFF == crc


#: What :func:`_parse` returns as the record of a blank line.
_BLANK = object()


def _parse(
    chunk: bytes, decode: Callable[[dict], Any], legacy: bool
) -> tuple[Any, bool]:
    """``(record, exact)`` for one line read from a log.

    ``record`` is :data:`_BLANK` for a blank line and ``None`` when the
    line is not intact.  ``exact`` says its CRC checks over its own
    bytes (:func:`_crc_over_bytes`), so a rewrite may copy ``chunk``
    verbatim; only when that fast check fails is the CRC compared with
    the re-serialized record, so the verdict is the re-serialization
    check's.
    """
    text = chunk.decode("utf-8", errors="replace").strip()
    if not text:
        return _BLANK, False
    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            return None, False
        crc = raw.pop("crc", None)
        if crc is None:
            return (decode(raw) if legacy else None), False
        exact = _crc_over_bytes(chunk, crc)
        if not exact and crc != crc32(
            json.dumps(raw, sort_keys=True).encode("utf-8")
        ):
            return None, False
        return decode(raw), exact
    except (ValueError, KeyError, TypeError):
        return None, False


def _read_lines(
    path: Path, decode: Callable[[dict], Any], legacy: bool
) -> Iterator[tuple[int, int, bytes, Any, bool]]:
    """Stream ``(number, end offset, chunk) + _parse(chunk)`` for every line.

    Streamed line by line: a whole-file read would allocate (and free)
    a buffer the size of the log on every pass.
    """
    offset = 0
    with open(path, "rb") as handle:
        for number, chunk in enumerate(handle, start=1):
            offset += len(chunk)
            yield (number, offset, chunk) + _parse(chunk, decode, legacy)


@dataclass(frozen=True)
class LogScan:
    """One read-only pass over a log file: what every reader folds.

    ``lines`` holds ``(line number, start offset, record)`` for every
    non-blank line (``record`` is ``None`` when the line is damaged);
    ``valid_end`` is the offset just past the last intact or blank line,
    where a torn tail begins.
    """

    lines: tuple[tuple[int, int, Any], ...]
    size: int
    valid_end: int

    @property
    def records(self) -> list[Any]:
        """Every intact record, oldest first."""
        return [record for _, _, record in self.lines if record is not None]

    @property
    def corrupt_lines(self) -> tuple[int, ...]:
        """Damaged lines before :attr:`valid_end` (corruption, not a tear)."""
        return tuple(
            number
            for number, start, record in self.lines
            if record is None and start < self.valid_end
        )

    @property
    def torn_tail_bytes(self) -> int:
        """Size of the invalid trailing region (0 when the tail is clean)."""
        return self.size - self.valid_end


def scan_log(
    path: Path, decode: Callable[[dict], Any], *, legacy: bool = False
) -> LogScan | None:
    """Classify every line of ``path`` without changing it (``None``: no file).

    ``decode`` turns a CRC-checked mapping into the view's record, raising
    ``KeyError``/``ValueError``/``TypeError`` when it is not one;
    ``legacy`` accepts lines without a ``crc`` key.
    """
    if not path.exists():
        return None
    lines = []
    valid_end = size = 0
    for number, end, _, record, _ in _read_lines(path, decode, legacy):
        start, size = size, end
        if record is _BLANK:
            valid_end = end
            continue
        lines.append((number, start, record))
        if record is not None:
            valid_end = end
    return LogScan(lines=tuple(lines), size=size, valid_end=valid_end)


def set_aside(
    sidecar: Path, *, data: bytes | None = None, source: Path | None = None
) -> Path:
    """Quarantine ``data`` (or move file ``source``) to a fresh sidecar.

    Writes ``sidecar``, or ``<sidecar>.1``, ``<sidecar>.2``, ... when
    taken: an earlier quarantine is never overwritten.  Returns the path.
    """
    target, suffix = sidecar, 0
    while target.exists():
        suffix += 1
        target = sidecar.with_name(f"{sidecar.name}.{suffix}")
    if source is not None:
        os.replace(source, target)
    else:
        with open(target, "xb") as handle:
            handle.write(data)
    return target


def replace_atomically(
    path: Path,
    data: bytes | Iterable[bytes],
    *,
    temp: Path,
    sync: bool = True,
    fsync_site: str | None = None,
    replace_site: str | None = None,
) -> None:
    """Write ``temp``, fsync it, ``os.replace`` it onto ``path``.

    ``data`` is the bytes, or an iterable of byte chunks written as they
    come (so a rewrite can stream).  On any failure, including one
    raised by that iterable, ``temp`` is removed and ``path`` is left as
    it was.  ``fsync_site``/``replace_site`` name fault-injection points traversed
    just before the fsync and the rename.
    """
    try:
        with open(temp, "wb") as handle:
            if isinstance(data, bytes):
                handle.write(data)
            else:
                handle.writelines(data)
            handle.flush()
            if fsync_site is not None:
                fault_point(fsync_site)
            if sync:
                os.fsync(handle.fileno())
        if replace_site is not None:
            fault_point(replace_site)
        os.replace(temp, path)
    except BaseException:
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


class CrcLog:
    """One append-only CRC-line file: append, heal, rewrite, read.

    ``name`` (``"journal"`` or ``"intake"``) prefixes the fault-injection
    sites ``<name>.append``/``.write``/``.fsync`` and names the
    ``<name>-torn-tail`` event, which is attributed to module ``source``.
    ``decode`` and ``legacy`` are as for :func:`scan_log`.
    """

    def __init__(
        self,
        path: Path,
        *,
        name: str,
        source: str,
        decode: Callable[[dict], Any],
        legacy: bool = False,
    ):
        self.path = path
        self.name = name
        self.source = source
        self.decode = decode
        self.legacy = legacy
        # Cached O_APPEND handle, opened lazily: a cut tail can never
        # misplace a later write.
        self._handle = None
        # Start of a failed append whose cut itself failed: the next
        # append must cut there before writing.
        self._torn_at: int | None = None

    def records(self) -> Iterator[Any]:
        """Yield every intact record, oldest first.

        A torn tail is skipped; a damaged line followed by an intact
        record raises :class:`PersistenceError`.  The whole file is
        verified before the first record is yielded, so a corrupt file
        yields nothing, and records appended while the caller iterates
        are not yielded.
        """
        yield from [record for _, record in self.intact_lines()]

    def heal(self) -> list[Any]:
        """Open-time recovery: cut a torn tail, return the intact records.

        The tail cannot stay: the next append would merge into it, and
        one more append would make the merged line non-trailing, i.e.
        unreadable corruption.
        """
        scan = scan_log(self.path, self.decode, legacy=self.legacy)
        if scan is None:
            return []
        if scan.torn_tail_bytes:
            self._cut(scan.valid_end)
        return scan.records

    def _cut(self, offset: int) -> None:
        """Set aside everything from ``offset`` on, then truncate there."""
        with open(self.path, "r+b") as handle:
            handle.seek(offset)
            torn = handle.read()
            if not torn:
                return
            sidecar = set_aside(
                self.path.with_name(f"{self.path.name}.torn-{offset}.quarantined"),
                data=torn,
            )
            handle.truncate(offset)
        record_event(
            f"{self.name}-torn-tail",
            self.source,
            **{self.name: str(self.path)},
            quarantined=str(sidecar),
            torn_bytes=len(torn),
        )

    def append(self, record: Any, *, sync: bool) -> None:
        """Append one record's line; flushed (and fsynced) before returning.

        Any failure closes the handle and cuts the file back to its
        pre-append size before the exception propagates, so the record
        is gone from disk as well as from the caller's view.  The cut
        cannot wait for the next open: a complete line whose fsync
        failed parses as intact, and only this process still knows
        where the failed append began.
        """
        if self._torn_at is not None:
            self._cut(self._torn_at)
            self._torn_at = None
        if self._handle is None:
            try:
                self._handle = open(self.path, "ab")
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "ab")
        handle = self._handle
        data = render_line(record)
        start = os.fstat(handle.fileno()).st_size
        try:
            torn = torn_bytes(data, fault_point(f"{self.name}.append"))
            fault_point(f"{self.name}.write")
            handle.write(data if torn is None else torn)
            handle.flush()
            if torn is not None:
                if sync:
                    os.fsync(handle.fileno())
                raise InjectedFault(
                    f"{self.name}.append", f"write torn at byte {len(torn)}"
                )
            fault_point(f"{self.name}.fsync")
            if sync:
                os.fsync(handle.fileno())
        except BaseException:
            self.close()
            try:
                self._cut(start)
            except OSError:
                self._torn_at = start
            raise

    def intact_lines(self) -> Iterator[tuple[bytes | None, Any]]:
        """Stream ``(line, record)`` for every intact record, oldest first.

        Verifies as it goes: a damaged line followed by an intact record
        raises :class:`PersistenceError`; blank lines and a torn tail
        are skipped.  ``line`` is the record's newline-terminated bytes
        when its CRC checks over them, so a rewrite can copy it
        verbatim, and ``None`` when the record must be re-rendered (a
        crc-less legacy line, or one whose CRC checks only against the
        re-serialized record).
        """
        if not self.path.exists():
            return
        damaged = None
        for number, _, chunk, record, exact in _read_lines(
            self.path, self.decode, self.legacy
        ):
            if record is _BLANK:
                continue
            if record is None:
                damaged = number
                continue
            if damaged is not None:
                raise PersistenceError(
                    f"{self.name} {self.path} line {damaged} is corrupt "
                    "(non-trailing): malformed or checksum mismatch"
                )
            if not exact:
                yield None, record
            elif chunk.endswith(b"\n"):
                yield chunk, record
            else:
                yield chunk + b"\n", record

    def rewrite(
        self,
        lines: Iterable[bytes],
        *,
        temp: Path,
        sync: bool,
        fsync_site: str | None = None,
    ) -> None:
        """Atomically replace the file with ``lines``, streamed as they come.

        ``fsync_site`` is as for :func:`replace_atomically`.
        """
        self.close()  # the cached handle would keep writing the old inode
        replace_atomically(
            self.path, lines, temp=temp, sync=sync, fsync_site=fsync_site
        )
        self._torn_at = None

    def close(self) -> None:
        """Close the cached append handle (reopened on the next append)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
