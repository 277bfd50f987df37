"""Append-only event journal — the durability backbone of the service.

Every state-changing commit in the annotation service (project registered,
job submitted, annotation committed, feedback applied, job failed, drain
accounting) is appended here as one self-describing record *before* the
in-memory state is considered durable.  Replaying the journal from the start
reconstructs the full service state bit-for-bit (see
:meth:`repro.core.service.AnnotationService.recover`), and the journal doubles
as the audit trail the paper's non-functional requirements call for: every
annotation decision is an inspectable, ordered, checksummed record.

Each fact is written once.  An ``annotation_committed`` event carries the
annotation record (statement SQL, NL, candidates, action), the feedback
that shaped it, and — when the record entered the retrieval archive — the
archived example's id, dataset, tables, quality, query skeleton and
feature profile (with the hashes of the features its text brought into the
archive); the example's SQL and NL are the record's, so they are not
repeated (journals from builds that did repeat them still replay, the
copies unread).  The record leaves its SQL out when it equals the SQL of
the job it settles, which ``job_submitted`` already carries.
Schemas (in ``project_registered``) and feedback leave out every field at
the default their readers fill in.

On-disk format (little-endian, one record after another)::

    +----------------+----------------+------------------------+
    | length: uint32 | crc32:  uint32 | payload: length bytes  |
    +----------------+----------------+------------------------+

where ``payload`` is the UTF-8 JSON encoding of ``{"type": ..., "payload":
...}``.  The length prefix and CRC make torn tail writes (a crash mid-append)
*detectable and recoverable*: :meth:`EventJournal.scan` stops at the first
record whose header is incomplete, whose length is implausible, whose
checksum fails or whose payload is not a ``{"type", "payload"}`` JSON
object, and opening the journal truncates that torn tail instead of failing —
losing only the un-synced suffix, never corrupting the prefix.

Opening checks each record's length and CRC but decodes none, so until the
first :meth:`EventJournal.events` call or append decodes them, ``record_count``
and ``recovery`` count the records that pass those checks.  ``events(start)``
decodes records ``start..`` once: a warm start never decodes the prefix its
snapshot covers, so a CRC-valid record there that does not decode goes
unnoticed, where :meth:`EventJournal.scan` and a cold start end the prefix at it.

Fsync discipline is group commit (``fsync="batch"``, the only policy):
appends stay in the userspace write buffer and are flushed + fsynced at
group-commit points (:meth:`EventJournal.commit`, called by the service at
drain boundaries).  A crash between commits loses only un-committed records
— exactly the suffix group commit never promised.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import DiskFaultError, JournalError
from repro.obs import NULL_TELEMETRY, Telemetry

#: Header layout: payload length then CRC32 of the payload, both uint32 LE.
_HEADER = struct.Struct("<II")
#: Records larger than this are treated as corruption, not data.
_MAX_RECORD_BYTES = 64 * 1024 * 1024
#: How far past a corruption point the salvage scan probes for a plausible
#: next record before giving up (diagnostics only — see scan()).
_RESYNC_WINDOW_BYTES = 16 * 1024 * 1024
#: Payload ``(begin, end)`` byte offsets of consecutive records in a buffer.
_Spans = list[tuple[int, int]]

# Event types appended by the service/pipeline layers.  Kept in one place so
# replay, export and audit tooling agree on the vocabulary.
PROJECT_REGISTERED = "project_registered"
JOB_SUBMITTED = "job_submitted"
ANNOTATION_COMMITTED = "annotation_committed"
FEEDBACK_APPLIED = "feedback_applied"
JOB_FAILED = "job_failed"
DRAIN_STATS = "drain_stats"


@dataclass
class JournalEvent:
    """One decoded journal record."""

    offset: int  # record index within the journal (0-based)
    type: str
    payload: dict


@dataclass
class JournalSalvageReport:
    """Forensics for a journal whose byte stream broke mid-scan.

    ``reason`` says *why* decoding stopped (``"torn_header"``,
    ``"torn_record"``, ``"implausible_length"``, ``"crc_mismatch"``,
    ``"undecodable_payload"``); ``resync_offset``/``resynced_records``
    report whether a scan-forward probe found plausible records *after* the
    corruption.  Those trailing records are diagnostics, not data: replay
    requires an unbroken prefix (later events reference earlier ones), so
    salvage always keeps the longest valid committed prefix and drops the
    rest — but the report distinguishes a benign torn tail (crash mid-append,
    nothing after the break) from mid-stream bit rot that destroyed records
    an operator may want to investigate.
    """

    reason: str
    corrupt_at_byte: int
    valid_records: int
    valid_bytes: int
    dropped_bytes: int
    resync_offset: int | None = None
    resynced_records: int = 0

    @property
    def kind(self) -> str:
        """``"mid_stream_corruption"`` when intact records exist past the
        break, else ``"torn_tail"``."""
        return "mid_stream_corruption" if self.resynced_records else "torn_tail"


@dataclass
class JournalRecovery:
    """What :meth:`EventJournal.scan` found on disk."""

    record_count: int = 0
    valid_bytes: int = 0
    dropped_bytes: int = 0
    #: Populated when the scan stopped before end-of-file (torn tail or
    #: mid-stream corruption); ``None`` for a clean journal.
    salvage: JournalSalvageReport | None = None

    @property
    def torn(self) -> bool:
        """Whether a torn/corrupt tail was detected (and measured)."""
        return self.dropped_bytes > 0


class EventJournal:
    """Append-only, checksummed, crash-recoverable event log.

    Opening a path that already holds a journal checks its records, truncates
    any torn tail, and positions the append cursor after the last valid
    record — so a process can crash at any byte of a write and the next open
    heals the file.

    Appends are serialised through an internal (re-entrant) lock, so waves
    drained concurrently from several projects interleave as *whole records*
    in the CRC-framed stream — never as interleaved bytes.  Group commit and
    close take the same lock, making the journal safe to share across the
    scheduler's worker threads.
    """

    #: Observability sink for append/fsync accounting.  Class-level no-op
    #: default keeps ``__init__`` signatures stable; the service overwrites
    #: it per instance when telemetry is attached.
    telemetry: Telemetry = NULL_TELEMETRY

    def __init__(self, path: str | Path, fsync: str = "batch") -> None:
        if fsync != "batch":
            raise JournalError(f"unknown fsync policy {fsync!r}; expected 'batch'")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Re-entrant so fault-injection subclasses can hold it around a
        # super().append() call without deadlocking.
        self._lock = threading.RLock()
        buffer = self._read(self.path)
        spans, reason = self._frames(buffer)
        #: Recovery report from opening (empty for a fresh journal).
        self.recovery = self._report(buffer, spans, len(spans), reason)
        if self.recovery.torn:
            self._truncate_to(self.recovery.valid_bytes)
        self._record_count = len(spans)
        # The intact records, held undecoded until the first events() call
        # (recovery's replay) or append decodes them.
        self._unread: tuple[bytes, _Spans] | None = (buffer, spans)
        self._handle = open(self.path, "ab")
        self._dirty = False

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Number of valid records in the journal (== next append offset)."""
        return self._record_count

    def append(self, event_type: str, payload: dict) -> int:
        """Append one event; returns its record offset.

        The record sits in the write buffer until the next :meth:`commit`
        (group commit) makes it durable.
        """
        try:
            data = json.dumps(
                {"type": event_type, "payload": payload}, separators=(",", ":")
            ).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise JournalError(f"event payload is not JSON-serialisable: {exc}") from exc
        record = _HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data
        tel = self.telemetry
        with self._lock:
            if self._handle is None:
                raise JournalError(f"journal {self.path} is closed")
            self._decode_opened()  # an undecodable tail goes before we append
            try:
                self._handle.write(record)
                self._dirty = True
            except OSError as exc:
                raise DiskFaultError(
                    f"failed to append to journal {self.path}: {exc}",
                    errno_value=exc.errno,
                ) from exc
            offset = self._record_count
            self._record_count += 1
            if tel.enabled:
                tel.count("journal_appends_total", type=event_type)
                tel.count("journal_bytes_total", len(record))
            return offset

    def commit(self) -> None:
        """Group-commit point: make everything appended so far durable."""
        with self._lock:
            if self._handle is None or not self._dirty:
                return
            tel = self.telemetry
            started = time.perf_counter() if tel.enabled else 0.0
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except OSError as exc:
                raise DiskFaultError(
                    f"failed to sync journal {self.path}: {exc}",
                    errno_value=exc.errno,
                ) from exc
            self._dirty = False
            if tel.enabled:
                tel.count("journal_fsyncs_total")
                tel.observe("journal_fsync_seconds", time.perf_counter() - started)

    def close(self) -> None:
        """Commit and release the file handle (idempotent)."""
        with self._lock:
            if self._handle is None:
                return
            self.commit()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------

    def events(self, start: int = 0) -> list[JournalEvent]:
        """Decode records ``start..`` and no others (flushes pending writes
        first); the first call after opening, before any append, reuses the
        bytes the open read."""
        with self._lock:
            opened = self._decode_opened(start)
            if opened is not None:
                return opened
            if self._handle is not None:
                self._handle.flush()
        buffer = self._read(self.path)
        return self._decode(buffer, self._frames(buffer)[0], start)

    @staticmethod
    def read_events(path: str | Path, limit: int | None = None) -> list[JournalEvent]:
        """Decode the valid prefix of a journal file.

        ``limit`` keeps only the first ``limit`` records — the hook that makes
        exports reproducible *at any journal offset*; later records are
        neither checked nor decoded.
        """
        if limit is not None and limit < 0:
            raise JournalError("journal offset limit cannot be negative")
        buffer = EventJournal._read(Path(path))
        return EventJournal._decode(buffer, EventJournal._frames(buffer, limit=limit)[0])

    @staticmethod
    def scan(path: str | Path) -> JournalRecovery:
        """Walk a journal file, stopping at the first torn/corrupt record.

        Never raises on bad data: whatever valid prefix exists is returned,
        and ``dropped_bytes`` measures the tail that must be truncated.
        """
        buffer = EventJournal._read(Path(path))
        spans, reason = EventJournal._frames(buffer)
        events = EventJournal._decode(buffer, spans)
        if len(events) < len(spans):
            reason = "undecodable_payload"  # checksum collided with garbage
        return EventJournal._report(buffer, spans, len(events), reason)

    @staticmethod
    def _read(path: Path) -> bytes:
        """The journal file's bytes (none for a missing file)."""
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return b""
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc

    @staticmethod
    def _frames(
        buffer: bytes, position: int = 0, limit: int | None = None
    ) -> tuple[_Spans, str | None]:
        """Payload byte spans of the consecutive records from ``position`` that
        pass the length and CRC checks (at most ``limit``), and why the walk
        stopped short of the end (``None`` when it did not)."""
        spans: _Spans = []
        total = len(buffer)
        view = memoryview(buffer)
        while position + _HEADER.size <= total and (limit is None or len(spans) < limit):
            length, checksum = _HEADER.unpack_from(buffer, position)
            begin = position + _HEADER.size
            end = begin + length
            if length > _MAX_RECORD_BYTES:
                return spans, "implausible_length"  # garbage length: the tail starts here
            if end > total:
                return spans, "torn_record"  # header fine but the payload never finished
            if zlib.crc32(view[begin:end]) & 0xFFFFFFFF != checksum:
                return spans, "crc_mismatch"  # bit rot or torn payload
            spans.append((begin, end))
            position = end
        return spans, None

    @staticmethod
    def _decode(buffer: bytes, spans: _Spans, start: int = 0) -> list[JournalEvent]:
        """Decode records ``start..`` of ``spans``, stopping before the first
        that is not a ``{"type", "payload"}`` JSON object."""
        events = []
        for index in range(start, len(spans)):
            begin, end = spans[index]
            try:
                decoded = json.loads(buffer[begin:end].decode("utf-8"))
                events.append(JournalEvent(index, decoded["type"], decoded["payload"]))
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                break
        return events

    @staticmethod
    def _report(buffer: bytes, spans: _Spans, records: int, reason: str | None) -> JournalRecovery:
        """The recovery report for a valid prefix of ``records`` of ``spans``."""
        valid_bytes = spans[records - 1][1] if records else 0
        recovery = JournalRecovery(
            record_count=records,
            valid_bytes=valid_bytes,
            dropped_bytes=len(buffer) - valid_bytes,
        )
        if recovery.dropped_bytes > 0:
            resync_offset, resynced = EventJournal._resync_probe(buffer, valid_bytes)
            recovery.salvage = JournalSalvageReport(
                # Fewer trailing bytes than a header, when no check failed.
                reason=reason or "torn_header",
                corrupt_at_byte=valid_bytes,
                valid_records=records,
                valid_bytes=valid_bytes,
                dropped_bytes=recovery.dropped_bytes,
                resync_offset=resync_offset,
                resynced_records=resynced,
            )
        return recovery

    @staticmethod
    def _resync_probe(buffer: bytes, corrupt_at: int) -> tuple[int | None, int]:
        """Look past a corruption point for intact records (diagnostics only).

        Slides byte-by-byte from the break, within ``_RESYNC_WINDOW_BYTES``,
        until an offset parses as a full record — plausible header, CRC match,
        decodable ``{"type", "payload"}`` JSON — then counts how many
        consecutive records follow from there.  Returns ``(resync_offset,
        record_count)``, or ``(None, 0)`` when nothing past the break parses;
        :class:`JournalSalvageReport` says why those records are not replayed.
        """
        total = len(buffer)
        limit = min(total, corrupt_at + _RESYNC_WINDOW_BYTES)
        # Start one byte past the break: the break offset itself already
        # failed to parse.
        for candidate in range(corrupt_at + 1, limit):
            if candidate + _HEADER.size > total:
                break
            length, _ = _HEADER.unpack_from(buffer, candidate)
            if candidate + _HEADER.size + length > total:
                continue  # the common miss, skipped before any framing work
            spans, _ = EventJournal._frames(buffer, candidate)
            resynced = len(EventJournal._decode(buffer, spans))
            if resynced:
                return candidate, resynced
        return None, 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _decode_opened(self, start: int = 0) -> list[JournalEvent] | None:
        """Decode the opened records ``start..`` once (lock held), truncating
        from the first that does not decode; ``None`` once they have been."""
        if self._unread is None:
            return None
        buffer, spans = self._unread
        self._unread = None
        events = self._decode(buffer, spans, start)
        broken = start + len(events)
        if broken < len(spans):
            self.recovery = self._report(buffer, spans, broken, "undecodable_payload")
            self._truncate_to(self.recovery.valid_bytes)
            self._record_count = broken
        return events

    def _truncate_to(self, valid_bytes: int) -> None:
        """Drop a torn tail, leaving exactly the valid record prefix."""
        try:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"failed to truncate torn tail of journal {self.path}: {exc}"
            ) from exc
