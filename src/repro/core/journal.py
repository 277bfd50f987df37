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
feature profile; the example's SQL and NL are the record's, so they are not
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
record whose header is incomplete, whose length is implausible, or whose
checksum fails, and opening the journal truncates that torn tail instead of
failing — losing only the un-synced suffix, never corrupting the prefix.

Fsync discipline is a policy knob:

* ``"always"`` — fsync after every append; survives power loss at a heavy
  per-record cost.
* ``"batch"`` (default) — appends stay in the userspace write buffer and are
  flushed + fsynced at group-commit points (:meth:`EventJournal.commit`,
  called by the service at drain boundaries).  A crash between commits loses
  only un-committed records — exactly the suffix group commit never promised.
* ``"never"`` — buffered writes, flushed at commit points but never fsynced;
  the OS decides when bytes reach the disk.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
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

FSYNC_POLICIES = ("always", "batch", "never")

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
    events: list[JournalEvent] = field(default_factory=list)
    #: Populated when the scan stopped before end-of-file (torn tail or
    #: mid-stream corruption); ``None`` for a clean journal.
    salvage: JournalSalvageReport | None = None

    @property
    def torn(self) -> bool:
        """Whether a torn/corrupt tail was detected (and measured)."""
        return self.dropped_bytes > 0


class EventJournal:
    """Append-only, checksummed, crash-recoverable event log.

    Opening a path that already holds a journal scans it, truncates any torn
    tail, and positions the append cursor after the last valid record — so a
    process can crash at any byte of a write and the next open heals the file.

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
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = Path(path)
        self.fsync_policy = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Recovery report from opening (empty for a fresh journal).
        self.recovery = self.scan(self.path, with_events=True)
        # The records the open scan decoded, kept only until the first
        # events() call (recovery's replay) or append, so replay after a
        # restart decodes each record once.
        self._opened_events: list[JournalEvent] | None = self.recovery.events
        self.recovery.events = []
        if self.recovery.torn:
            self._truncate_to(self.recovery.valid_bytes)
        self._record_count = self.recovery.record_count
        self._handle = open(self.path, "ab")
        self._dirty = False
        # Re-entrant so fault-injection subclasses can hold it around a
        # super().append() call without deadlocking.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Number of valid records in the journal (== next append offset)."""
        return self._record_count

    def append(self, event_type: str, payload: dict) -> int:
        """Append one event; returns its record offset.

        Under the ``"always"`` policy the record is durable before this
        returns; otherwise it sits in the write buffer until the next
        :meth:`commit` (group commit) makes it durable.
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
            try:
                self._handle.write(record)
                if self.fsync_policy == "always":
                    started = time.perf_counter() if tel.enabled else 0.0
                    self._handle.flush()
                    os.fsync(self._handle.fileno())
                    if tel.enabled:
                        tel.count("journal_fsyncs_total", policy="always")
                        tel.observe(
                            "journal_fsync_seconds",
                            time.perf_counter() - started,
                            policy="always",
                        )
                else:
                    self._dirty = True
            except OSError as exc:
                raise DiskFaultError(
                    f"failed to append to journal {self.path}: {exc}",
                    errno_value=exc.errno,
                ) from exc
            offset = self._record_count
            self._record_count += 1
            self._opened_events = None
            if tel.enabled:
                tel.count("journal_appends_total", type=event_type)
                tel.count("journal_bytes_total", len(record))
            return offset

    def commit(self) -> None:
        """Group-commit point: make everything appended so far durable."""
        tel = self.telemetry
        with self._lock:
            if self._handle is None or not self._dirty:
                return
            try:
                started = time.perf_counter() if tel.enabled else 0.0
                self._handle.flush()
                if self.fsync_policy != "never":
                    os.fsync(self._handle.fileno())
                if tel.enabled:
                    tel.count("journal_fsyncs_total", policy=self.fsync_policy)
                    tel.observe(
                        "journal_fsync_seconds",
                        time.perf_counter() - started,
                        policy=self.fsync_policy,
                    )
            except OSError as exc:
                raise DiskFaultError(
                    f"failed to sync journal {self.path}: {exc}",
                    errno_value=exc.errno,
                ) from exc
            self._dirty = False

    def close(self) -> None:
        """Commit and release the file handle (idempotent)."""
        with self._lock:
            self._opened_events = None
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
        """Decode records ``start..`` from disk (flushes pending writes first).

        The first call after opening, before any append, returns the records
        the open scan already decoded instead of reading the file again.
        """
        with self._lock:
            opened, self._opened_events = self._opened_events, None
            if opened is not None:
                return opened[start:]
            if self._handle is not None:
                self._handle.flush()
        recovery = self.scan(self.path, with_events=True)
        return [event for event in recovery.events if event.offset >= start]

    @staticmethod
    def read_events(path: str | Path, limit: int | None = None) -> list[JournalEvent]:
        """Decode the valid prefix of a journal file.

        ``limit`` keeps only the first ``limit`` records — the hook that makes
        exports reproducible *at any journal offset*.
        """
        recovery = EventJournal.scan(path, with_events=True)
        events = recovery.events
        if limit is not None:
            if limit < 0:
                raise JournalError("journal offset limit cannot be negative")
            events = events[:limit]
        return events

    @staticmethod
    def scan(path: str | Path, with_events: bool = True) -> JournalRecovery:
        """Walk a journal file, stopping at the first torn/corrupt record.

        Never raises on bad data: whatever valid prefix exists is returned,
        and ``dropped_bytes`` measures the tail that must be truncated.
        """
        path = Path(path)
        if not path.exists():
            return JournalRecovery()
        try:
            buffer = path.read_bytes()
        except OSError as exc:
            raise JournalError(f"cannot read journal {path}: {exc}") from exc
        recovery = JournalRecovery()
        position = 0
        total = len(buffer)
        break_reason: str | None = None
        while position + _HEADER.size <= total:
            length, checksum = _HEADER.unpack_from(buffer, position)
            end = position + _HEADER.size + length
            if length > _MAX_RECORD_BYTES:
                break_reason = "implausible_length"
                break  # garbage length: the tail starts here
            if end > total:
                break_reason = "torn_record"
                break  # header fine but the payload never finished writing
            payload = buffer[position + _HEADER.size : end]
            if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
                break_reason = "crc_mismatch"
                break  # bit rot or torn payload
            try:
                decoded = json.loads(payload.decode("utf-8"))
                event_type = decoded["type"]
                event_payload = decoded["payload"]
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                break_reason = "undecodable_payload"
                break  # checksum collided with garbage; treat as torn
            if with_events:
                recovery.events.append(
                    JournalEvent(
                        offset=recovery.record_count,
                        type=event_type,
                        payload=event_payload,
                    )
                )
            recovery.record_count += 1
            position = end
        recovery.valid_bytes = position
        recovery.dropped_bytes = total - position
        if recovery.dropped_bytes > 0:
            if break_reason is None:
                break_reason = "torn_header"  # fewer trailing bytes than a header
            resync_offset, resynced = EventJournal._resync_probe(buffer, position)
            recovery.salvage = JournalSalvageReport(
                reason=break_reason,
                corrupt_at_byte=position,
                valid_records=recovery.record_count,
                valid_bytes=recovery.valid_bytes,
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
        record_count)``, or ``(None, 0)`` when nothing past the break parses.
        The salvaged records are never replayed (replay needs an unbroken
        prefix); they exist so the recovery report can distinguish a torn
        tail from mid-stream corruption that destroyed committed data.
        """
        total = len(buffer)
        limit = min(total, corrupt_at + _RESYNC_WINDOW_BYTES)
        # Start one byte past the break: the break offset itself already
        # failed to parse.
        for candidate in range(corrupt_at + 1, limit):
            if candidate + _HEADER.size > total:
                break
            position = candidate
            resynced = 0
            while position + _HEADER.size <= total:
                length, checksum = _HEADER.unpack_from(buffer, position)
                end = position + _HEADER.size + length
                if length > _MAX_RECORD_BYTES or end > total:
                    break
                payload = buffer[position + _HEADER.size : end]
                if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
                    break
                try:
                    decoded = json.loads(payload.decode("utf-8"))
                    if not isinstance(decoded, dict):
                        break
                    decoded["type"]
                    decoded["payload"]
                except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                    break
                resynced += 1
                position = end
            if resynced:
                return candidate, resynced
        return None, 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

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
