"""Durability tests: journal format, torn tails, replay parity, snapshots,
and the crash-point sweep (kill the service at every commit boundary and
mid-write, recover, and check the state is exactly the journaled prefix)."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import importlib
import json
import logging
import struct
import zlib
from pathlib import Path
from unittest import mock

import pytest

from repro.core import journal as journal_module
from repro.core import (
    AnnotationService,
    EventJournal,
    Feedback,
    FeedbackAction,
    SnapshotManager,
    TaskConfig,
)
from repro.core.journal import (
    ANNOTATION_COMMITTED,
    DRAIN_STATS,
    FEEDBACK_APPLIED,
    JOB_SUBMITTED,
    PROJECT_REGISTERED,
    JournalRecovery,
)
from repro.core.snapshot import schema_from_state
from repro.errors import JournalError, SnapshotError
from repro.obs import Telemetry
from repro.retrieval.embedding import _stable_hash
from repro.schema import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema
from repro.sql.lexer import tokenize
from repro.sql.tokens import TokenKind

from tests.faults import CrashingJournal, InjectedCrash, encode_record
from tests.model_state import list_form

QUERIES = [
    "SELECT name FROM employees",
    "SELECT e.name, d.dept_name FROM employees e JOIN departments d ON e.dept_id = d.dept_id",
    "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id",
    "SELECT name FROM employees WHERE salary > 100000",
    "SELECT name FROM employees WHERE dept_id IN "
    "(SELECT dept_id FROM departments WHERE budget > 250000)",
]


def make_schema() -> DatabaseSchema:
    return DatabaseSchema(
        name="hr",
        tables=[
            TableSchema(
                name="employees",
                columns=[
                    ColumnSchema("emp_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("name", "TEXT"),
                    ColumnSchema("salary", "REAL"),
                    ColumnSchema("dept_id", "INT"),
                ],
                foreign_keys=[ForeignKey("dept_id", "departments", "dept_id")],
            ),
            TableSchema(
                name="departments",
                columns=[
                    ColumnSchema("dept_id", "INT", primary_key=True, nullable=False),
                    ColumnSchema("dept_name", "TEXT"),
                    ColumnSchema("budget", "REAL"),
                ],
            ),
        ],
    )


def framed(payload: bytes) -> bytes:
    """A journal record around ``payload`` whose length and CRC check out."""
    return struct.pack("<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def count_decodes():
    """Count the JSON decodes the journal module makes."""
    calls = []

    def loads(data):
        calls.append(len(data))
        return json.loads(data)

    namespace = mock.Mock(loads=loads, dumps=json.dumps)
    return calls, mock.patch.object(journal_module, "json", namespace)


def semantic_state(service: AnnotationService) -> dict:
    """The state that must survive any crash/recover cycle bit-for-bit."""
    return service.capture_state(include_accounting=False)


#: Statements with quoted identifiers, whose stored skeletons changed when
#: skeletons started to keep identifier quotes.
QUOTED_QUERIES = [
    'SELECT "name" FROM employees',
    "SELECT name FROM employees",
    'SELECT e."name", d.dept_name FROM employees e JOIN departments d ON e.dept_id = d.dept_id',
    "SELECT `salary` FROM employees WHERE salary > 100000",
]


def unquoted_skeleton(sql: str) -> str:
    """The skeleton earlier builds stored: quoted identifiers lost their quotes."""
    parts = []
    for token in tokenize(sql):
        if token.kind is TokenKind.STRING:
            parts.append("'?'")
        elif token.kind is TokenKind.NUMBER:
            parts.append("?")
        elif token.kind in (TokenKind.IDENTIFIER, TokenKind.QUOTED_IDENTIFIER):
            parts.append(token.value.lower())
        else:
            parts.append(token.value)
    return " ".join(parts)


def drain_quoted_queries(directory: Path) -> dict:
    """Drain :data:`QUOTED_QUERIES` one by one, snapshotting half-way."""
    service = AnnotationService.open_durable(directory)
    service.register_project("hr", make_schema())
    for index, sql in enumerate(QUOTED_QUERIES):
        if index == 2:
            service.snapshot()
        service.submit(sql, project="hr")
        service.drain()
    live = semantic_state(service)
    service.close()
    return live


def record_boundaries(buffer: bytes) -> list[tuple[int, int]]:
    """(start, end) byte ranges of every complete record in a journal image."""
    header = struct.Struct("<II")
    boundaries = []
    position = 0
    while position + header.size <= len(buffer):
        length, _ = header.unpack_from(buffer, position)
        end = position + header.size + length
        if end > len(buffer):
            break
        boundaries.append((position, end))
        position = end
    return boundaries


#: Ways a format-3 snapshot file can be damaged; each must be skipped.
SNAPSHOT_CORRUPTIONS = [
    "header_flip", "body_flip", "truncated_body", "length_mismatch", "missing_newline",
]


def corrupted_snapshots(data: bytes, case: str) -> list[bytes]:
    """Damaged variants of one snapshot file's bytes, one kind at a time.

    ``header_flip`` flips each header byte in turn; the other kinds damage
    the body or the line break at a few places.  ``length_mismatch`` keeps
    the CRC right and only misstates the body length.
    """
    newline = data.index(b"\n")
    header, body = data[:newline], data[newline + 1 :]

    def flipped(position: int) -> bytes:
        damaged = bytearray(data)
        damaged[position] ^= 0x01
        return bytes(damaged)

    if case == "header_flip":
        return [flipped(position) for position in range(newline)]
    if case == "body_flip":
        middle = newline + 1 + len(body) // 2
        return [flipped(position) for position in (newline + 1, middle, len(data) - 1)]
    if case == "truncated_body":
        return [data[: newline + 1], data[: newline + 1 + len(body) // 2], data[:-1]]
    if case == "length_mismatch":
        fields = json.loads(header)
        variants = []
        for delta in (-1, 1):
            misstated = dict(fields, length=fields["length"] + delta)
            variants.append(json.dumps(misstated, separators=(",", ":")).encode() + b"\n" + body)
        return variants
    if case == "missing_newline":
        return [header + b" " + body, header + body]
    raise AssertionError(f"unknown corruption {case!r}")


def previous_format_snapshot(offset: int, state: dict) -> bytes:
    """The format-2 file the previous build wrote for ``state``.

    That format had the same header and body layout, but listed each
    embedding vocabulary's features, frequencies and hashes as JSON lists.
    """
    legacy = copy.deepcopy(state)
    for project in legacy["projects"].values():
        project["example_store"] = list_form(project["example_store"])
    body = json.dumps(legacy, separators=(",", ":")).encode("utf-8")
    header = {"format": 2, "offset": offset, "length": len(body), "crc32": zlib.crc32(body)}
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + body


def snapshot_fallbacks(telemetry: Telemetry) -> float:
    """How many snapshot files recovery skipped."""
    metric = telemetry.metrics_dict().get("snapshot_fallbacks_total")
    return sum(series["value"] for series in metric["series"]) if metric else 0.0


def drain_with_snapshots(directory: Path, snapshot_every: int = 2) -> dict:
    """Drain :data:`QUERIES` one by one on a durable service; its final state."""
    service = AnnotationService.open_durable(directory, snapshot_every=snapshot_every)
    service.register_project("hr", make_schema())
    for sql in QUERIES:
        service.submit(sql, project="hr")
        service.drain()
    live = semantic_state(service)
    service.close()
    return live


# ----------------------------------------------------------------------
# journal format
# ----------------------------------------------------------------------

class TestJournalFormat:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "journal.bin"
        with EventJournal(path) as journal:
            assert journal.append("alpha", {"x": 1}) == 0
            assert journal.append("beta", {"y": [1, 2, 3]}) == 1
            assert journal.record_count == 2
        events = EventJournal.read_events(path)
        assert [(e.offset, e.type, e.payload) for e in events] == [
            (0, "alpha", {"x": 1}),
            (1, "beta", {"y": [1, 2, 3]}),
        ]

    def test_reopen_continues_offsets(self, tmp_path):
        path = tmp_path / "journal.bin"
        with EventJournal(path) as journal:
            journal.append("alpha", {})
        with EventJournal(path) as journal:
            assert journal.record_count == 1
            assert journal.append("beta", {}) == 1
        assert len(EventJournal.read_events(path)) == 2

    def test_read_limit_is_offset_cut(self, tmp_path):
        path = tmp_path / "journal.bin"
        with EventJournal(path) as journal:
            for index in range(5):
                journal.append("tick", {"index": index})
        calls, patch = count_decodes()
        with patch:
            events = EventJournal.read_events(path, limit=3)
        assert [e.payload["index"] for e in events] == [0, 1, 2]
        assert len(calls) == 3  # the records past the cut are not decoded
        unread = mock.patch.object(EventJournal, "_read", side_effect=AssertionError("read"))
        with unread, pytest.raises(JournalError):
            EventJournal.read_events(path, limit=-1)  # rejected before any read

    def test_scan_missing_file_is_empty(self, tmp_path):
        recovery = EventJournal.scan(tmp_path / "absent.bin")
        assert recovery == JournalRecovery()
        assert not recovery.torn

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = EventJournal(tmp_path / "journal.bin")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError):
            journal.append("alpha", {})

    def test_unserialisable_payload_is_journal_error(self, tmp_path):
        with EventJournal(tmp_path / "journal.bin") as journal:
            with pytest.raises(JournalError):
                journal.append("alpha", {"bad": object()})

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        # Group commit ("batch") is the only policy; the retired per-append
        # ("always") and no-fsync ("never") ones are unknown too.
        for policy in ("sometimes", "always", "never"):
            with pytest.raises(JournalError):
                EventJournal(tmp_path / "journal.bin", fsync=policy)

    def test_valid_crc_but_garbage_json_is_torn(self, tmp_path):
        path = tmp_path / "journal.bin"
        with EventJournal(path) as journal:
            journal.append("alpha", {"x": 1})
        payload = b"certainly not json"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        with open(path, "ab") as handle:
            handle.write(frame + payload)
        recovery = EventJournal.scan(path)
        assert recovery.record_count == 1
        assert recovery.torn


# ----------------------------------------------------------------------
# torn-tail property tests
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def torn_image(tmp_path_factory) -> bytes:
    """Bytes of a real service journal whose *last* record is a commit.

    Layout: project_registered, job_submitted, annotation_committed,
    drain_stats, annotation_committed — so tearing the tail destroys a
    semantically meaningful record, not just accounting.
    """
    root = tmp_path_factory.mktemp("torn-image")
    service = AnnotationService.open_durable(root / "svc")
    service.register_project("hr", make_schema())
    service.submit(QUERIES[0], project="hr")
    service.drain()
    service.pipeline("hr").annotate(QUERIES[1])
    service.close()
    return (root / "svc" / "journal.bin").read_bytes()


class TestTornTail:
    def test_every_byte_truncation_keeps_the_full_record_prefix(self, torn_image, tmp_path):
        boundaries = record_boundaries(torn_image)
        assert len(boundaries) == 5
        path = tmp_path / "torn.bin"
        for cut in range(len(torn_image) + 1):
            path.write_bytes(torn_image[:cut])
            recovery = EventJournal.scan(path)
            expected = sum(1 for _, end in boundaries if end <= cut)
            assert recovery.record_count == expected, f"cut at byte {cut}"
            assert recovery.valid_bytes == (
                boundaries[expected - 1][1] if expected else 0
            )
            assert recovery.torn == (cut != recovery.valid_bytes)

    def test_recovery_at_every_byte_of_last_record_is_exact_prefix_state(
        self, torn_image, tmp_path
    ):
        boundaries = record_boundaries(torn_image)
        start_last, end_last = boundaries[-1]
        assert end_last == len(torn_image)

        def recovered_state(image: bytes, name: str) -> dict:
            directory = tmp_path / name
            directory.mkdir()
            (directory / "journal.bin").write_bytes(image)
            service = AnnotationService.recover(directory / "journal.bin")
            state = semantic_state(service)
            service.close()
            return state

        full_state = recovered_state(torn_image, "full")
        prefix_state = recovered_state(torn_image[:start_last], "prefix")
        assert full_state != prefix_state  # the last record must matter

        for cut in range(start_last, end_last):
            directory = tmp_path / f"cut-{cut}"
            directory.mkdir()
            path = directory / "journal.bin"
            path.write_bytes(torn_image[:cut])
            service = AnnotationService.recover(path)
            assert service.journal.recovery.torn == (cut != start_last)
            assert semantic_state(service) == prefix_state, f"cut at byte {cut}"
            service.close()
            # the torn tail was truncated away on open
            assert len(path.read_bytes()) == start_last

    def test_bit_flip_in_last_record_drops_only_that_record(self, torn_image, tmp_path):
        boundaries = record_boundaries(torn_image)
        start_last, end_last = boundaries[-1]
        path = tmp_path / "flipped.bin"
        for position in range(start_last, end_last):
            corrupted = bytearray(torn_image)
            corrupted[position] ^= 0x40
            path.write_bytes(bytes(corrupted))
            recovery = EventJournal.scan(path)
            assert recovery.record_count == len(boundaries) - 1, f"flip at byte {position}"
            assert recovery.torn

    def test_healed_journal_accepts_new_appends(self, torn_image, tmp_path):
        boundaries = record_boundaries(torn_image)
        path = tmp_path / "journal.bin"
        path.write_bytes(torn_image[:-3])  # tear the tail
        with EventJournal(path) as journal:
            assert journal.recovery.torn
            assert journal.record_count == len(boundaries) - 1
            journal.append("epilogue", {"healed": True})
        events = EventJournal.read_events(path)
        assert events[-1].type == "epilogue"
        assert len(events) == len(boundaries)


class TestSalvageTelemetry:
    def test_salvage_is_counted_and_logged(self, torn_image, tmp_path, caplog):
        path = tmp_path / "journal.bin"
        path.write_bytes(torn_image + framed(b"garbage"))
        salvage = EventJournal.scan(path).salvage
        telemetry = Telemetry()
        with caplog.at_level(logging.INFO):
            AnnotationService.recover(path, telemetry=telemetry).close()
        (series,) = telemetry.metrics_dict()["journal_salvage_total"]["series"]
        assert series == {"labels": {"kind": "torn_tail"}, "value": 1.0}
        (message,) = [
            record.getMessage() for record in caplog.records
            if record.getMessage().startswith("journal_salvaged ")
        ]
        assert message.split()[1:6] == [
            f"dropped_bytes={salvage.dropped_bytes}",
            "kind=torn_tail",
            "reason=undecodable_payload",
            "resynced_records=0",
            f"valid_records={salvage.valid_records}",
        ]


class TestSingleScanReplay:
    """Recovery reads the journal file once and decodes only what it replays."""

    def count_reads(self):
        original = EventJournal._read
        calls = []

        def counting(path):
            calls.append(path)
            return original(path)

        return calls, mock.patch.object(EventJournal, "_read", staticmethod(counting))

    def test_recover_reads_the_journal_once(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc", snapshot_every=4)
        service.register_project("hr", make_schema())
        for sql in QUERIES:
            service.submit(sql, project="hr")
            service.drain()
        live = semantic_state(service)
        service.close()
        assert SnapshotManager(tmp_path / "svc" / "snapshots").latest()[0] > 0
        for open_service in (
            lambda: AnnotationService.open_durable(tmp_path / "svc"),
            lambda: AnnotationService.recover(tmp_path / "svc" / "journal.bin"),
        ):
            calls, patch = self.count_reads()
            with patch:
                recovered = open_service()
            assert len(calls) == 1
            assert semantic_state(recovered) == live
            assert recovered.journal._unread is None  # not kept after replay
            recovered.close()

    @staticmethod
    def snapshot_and_suffix(directory: Path) -> dict:
        """Drain :data:`QUERIES` with one snapshot after the third; the live state."""
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        for index, sql in enumerate(QUERIES):
            if index == 3:
                service.snapshot()
            service.submit(sql, project="hr")
            service.drain()
        live = semantic_state(service)
        service.close()
        return live

    def test_warm_open_decodes_only_the_suffix(self, tmp_path):
        directory = tmp_path / "svc"
        live = self.snapshot_and_suffix(directory)
        offset, _ = SnapshotManager(directory / "snapshots").latest()
        total = len(EventJournal.read_events(directory / "journal.bin"))
        assert 0 < offset < total
        calls, patch = count_decodes()
        with patch:
            service = AnnotationService.open_durable(directory)
            assert service.journal.record_count == total
            assert not service.journal.recovery.torn
        assert len(calls) == total - offset
        assert semantic_state(service) == live
        service.close()

    def test_cold_recover_decodes_every_record(self, tmp_path):
        directory = tmp_path / "svc"
        live = self.snapshot_and_suffix(directory)
        total = len(EventJournal.read_events(directory / "journal.bin"))
        calls, patch = count_decodes()
        with patch:
            service = AnnotationService.recover(directory / "journal.bin")
        assert len(calls) == total
        assert semantic_state(service) == live
        service.close()

    @pytest.mark.parametrize("payload", [b"\xff not json", b"[1, 2]", b'{"type": "x"}'])
    def test_undecodable_last_record_is_truncated_on_a_warm_open(self, tmp_path, payload):
        directory = tmp_path / "svc"
        live = self.snapshot_and_suffix(directory)
        path = directory / "journal.bin"
        valid = path.read_bytes()
        path.write_bytes(valid + framed(payload))
        expected = EventJournal.scan(path)
        assert expected.salvage.reason == "undecodable_payload"
        assert expected.valid_bytes == len(valid)
        service = AnnotationService.open_durable(directory)
        journal = service.journal
        assert journal.recovery == expected
        assert journal.record_count == expected.record_count
        assert path.read_bytes() == valid  # truncated before any append
        assert semantic_state(service) == live
        service.submit(QUERIES[0], project="hr")
        service.close()
        events = EventJournal.read_events(path)
        assert len(events) == expected.record_count + 1
        assert events[-1].type == JOB_SUBMITTED

    def test_undecodable_record_is_truncated_before_an_append(self, torn_image, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(torn_image + framed(b"garbage"))
        expected = EventJournal.scan(path)
        with EventJournal(path) as journal:
            assert journal.record_count == expected.record_count + 1  # not yet decoded
            assert journal.append("epilogue", {}) == expected.record_count
            assert journal.recovery == expected
        assert path.read_bytes()[: len(torn_image)] == torn_image
        assert [event.type for event in EventJournal.read_events(path)][-1] == "epilogue"

    def test_covered_prefix_is_not_decoded_on_a_warm_open(self, tmp_path):
        """A record the snapshot covers is never decoded, so a payload there
        that does not decode goes unnoticed (see the journal docstring)."""
        directory = tmp_path / "svc"
        live = self.snapshot_and_suffix(directory)
        offset, _ = SnapshotManager(directory / "snapshots").latest()
        path = directory / "journal.bin"
        image = path.read_bytes()
        start, end = record_boundaries(image)[1]
        path.write_bytes(image[:start] + framed(b"{not json") + image[end:])
        assert 1 < offset
        assert EventJournal.scan(path).record_count == 1  # a cold read stops there
        service = AnnotationService.open_durable(directory)
        assert not service.journal.recovery.torn
        assert service.journal.record_count == len(record_boundaries(image))
        assert semantic_state(service) == live
        service.close()

    def test_first_events_call_matches_a_fresh_read(self, torn_image, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(torn_image)
        expected = EventJournal.read_events(path)
        for start in (0, 2, len(expected), len(expected) + 3):
            with EventJournal(path) as journal:
                assert journal.events(start) == expected[start:]
                assert journal.events(start) == expected[start:]  # read from disk

    def test_events_after_an_append_come_from_disk(self, torn_image, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(torn_image)
        with EventJournal(path) as journal:
            journal.append("epilogue", {"n": 1})
            events = journal.events(0)
        assert [event.type for event in events][-1] == "epilogue"
        assert events == EventJournal.read_events(path)

    def test_open_reports_are_unchanged(self, torn_image, tmp_path):
        path = tmp_path / "journal.bin"
        boundaries = record_boundaries(torn_image)
        start_last, _ = boundaries[-1]
        for image in (torn_image, torn_image[:-3], torn_image[: start_last + 9]):
            path.write_bytes(image)
            expected = EventJournal.scan(path)
            with EventJournal(path) as journal:
                assert journal.recovery == expected
                assert journal.record_count == expected.record_count
            assert path.read_bytes() == image[: expected.valid_bytes]


class TestInteriorCorruption:
    """Byte flips in *interior* records: the committed prefix must survive
    and salvage must resynchronise on the records beyond the damage."""

    @staticmethod
    def flip_positions(start: int, end: int) -> list[int]:
        """Every header byte plus a payload sample — bounded but thorough."""
        header_size = struct.Struct("<II").size
        positions = list(range(start, min(start + header_size, end)))
        body = range(start + header_size, end)
        stride = max(1, len(body) // 16)
        positions.extend(body[::stride])
        return positions

    def test_flip_sweep_salvages_prefix_and_resyncs(self, torn_image, tmp_path):
        boundaries = record_boundaries(torn_image)
        path = tmp_path / "flipped.bin"
        for record_index in range(len(boundaries) - 1):  # interior records only
            start, end = boundaries[record_index]
            for position in self.flip_positions(start, end):
                corrupted = bytearray(torn_image)
                corrupted[position] ^= 0x40
                path.write_bytes(bytes(corrupted))
                recovery = EventJournal.scan(path)
                where = f"record {record_index}, flip at byte {position}"
                # The valid prefix is exactly the records before the damage.
                assert recovery.record_count == record_index, where
                assert recovery.torn, where
                salvage = recovery.salvage
                assert salvage is not None, where
                assert salvage.valid_records == record_index, where
                assert salvage.valid_bytes == start, where
                assert salvage.corrupt_at_byte == start, where
                assert salvage.dropped_bytes == len(torn_image) - start, where
                assert salvage.reason in {
                    "crc_mismatch",
                    "torn_record",
                    "implausible_length",
                }, where
                # Scan-forward resync must find every record past the damage.
                assert salvage.resync_offset == boundaries[record_index + 1][0], where
                assert salvage.resynced_records == len(boundaries) - record_index - 1, where
                assert salvage.kind == "mid_stream_corruption", where

    def test_recovery_from_interior_flip_is_exact_prefix_state(
        self, torn_image, tmp_path
    ):
        boundaries = record_boundaries(torn_image)

        def recovered_state(image: bytes, name: str) -> dict:
            directory = tmp_path / name
            directory.mkdir()
            path = directory / "journal.bin"
            path.write_bytes(image)
            service = AnnotationService.recover(path)
            state = semantic_state(service)
            service.close()
            return state

        for record_index in range(len(boundaries) - 1):
            start, end = boundaries[record_index]
            corrupted = bytearray(torn_image)
            corrupted[(start + end) // 2] ^= 0x01
            flipped_state = recovered_state(
                bytes(corrupted), f"flipped-{record_index}"
            )
            prefix_state = recovered_state(
                torn_image[:start], f"prefix-{record_index}"
            )
            assert flipped_state == prefix_state, f"record {record_index}"

    def test_resynced_records_are_diagnostic_only(self, torn_image, tmp_path):
        """Salvage never resurrects post-damage records: open() truncates to
        the valid prefix and the journal accepts fresh appends there."""
        boundaries = record_boundaries(torn_image)
        start, _ = boundaries[2]
        corrupted = bytearray(torn_image)
        corrupted[start + 4] ^= 0x40  # hit the CRC field of record 2
        path = tmp_path / "journal.bin"
        path.write_bytes(bytes(corrupted))
        with EventJournal(path) as journal:
            assert journal.record_count == 2
            salvage = journal.recovery.salvage
            assert salvage is not None and salvage.resynced_records == 2
            journal.append("epilogue", {"healed": True})
        events = EventJournal.read_events(path)
        assert [event.type for event in events[2:]] == ["epilogue"]


# ----------------------------------------------------------------------
# replay parity
# ----------------------------------------------------------------------

class TestReplayParity:
    def test_cold_replay_matches_live_state(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc")
        service.register_project("hr", make_schema())
        service.submit_many(QUERIES, project="hr")
        service.drain()
        service.submit(QUERIES[0], project="hr")  # leave one job pending
        live = semantic_state(service)
        assert live["queue"]  # the pending job must survive recovery
        service.close()

        recovered = AnnotationService.open_durable(tmp_path / "svc")
        assert semantic_state(recovered) == live
        recovered.close()

    def test_multi_project_and_feedback_history_replay(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc")
        service.register_project("hr", make_schema())
        service.register_project(
            "hr-fast",
            make_schema(),
            config=TaskConfig(model_name="gpt-3.5-turbo", num_candidates=2),
        )
        service.submit_many(QUERIES[:3], project="hr")
        service.submit_many(QUERIES[2:], project="hr-fast")
        service.drain()

        # Interactive feedback straight on a project pipeline: a regeneration
        # round (journaled as feedback_applied), an edit, and a discard.
        pipeline = service.pipeline("hr")
        candidates = pipeline.generate_candidates(QUERIES[3])
        assert (
            pipeline.submit_feedback(
                candidates,
                Feedback(
                    action=FeedbackAction.REGENERATE,
                    new_priorities=["mention the salary threshold"],
                    knowledge=[("dept", "short for department")],
                ),
            )
            is None
        )
        candidates = pipeline.generate_candidates(QUERIES[3])
        edited = pipeline.submit_feedback(
            candidates,
            Feedback(action=FeedbackAction.EDIT, edited_text="High earners by name."),
        )
        assert edited is not None and edited.accepted
        discarded = pipeline.submit_feedback(
            pipeline.generate_candidates(QUERIES[0]),
            Feedback(action=FeedbackAction.DISCARD),
        )
        assert discarded is not None and not discarded.accepted

        live = semantic_state(service)
        service.close()

        recovered = AnnotationService.open_durable(tmp_path / "svc")
        assert semantic_state(recovered) == live
        loop = recovered.pipeline("hr").feedback_loop
        assert loop.priorities == ["mention the salary threshold"]
        assert loop.knowledge.lookup("dept") is not None
        recovered.close()

    @pytest.mark.parametrize("snapshot_every", [0, 4])
    def test_every_archived_example_is_filed_under_its_project(self, tmp_path, snapshot_every):
        # Retrieval takes no dataset filter: it rests on a project's archive
        # holding exactly that project's accepted annotations, in commit
        # order, and nothing of another project's.
        projects = ["hr", "hr-fast", "hr-small"]
        submitted = {
            name: QUERIES[offset:] + QUERIES[:offset] for offset, name in enumerate(projects)
        }

        def archives(service):
            return {
                name: [
                    (example["sql"], example["nl"])
                    for example in service.pipeline(name)
                    .retriever.example_store.state_dict()["examples"]
                ]
                for name in projects
            }

        def accepted(service):
            return {
                name: [
                    (record.sql.strip(), record.nl.strip())
                    for record in service.pipeline(name).annotations
                    if record.accepted
                ]
                for name in projects
            }

        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory, snapshot_every=snapshot_every)
        for name in projects:
            service.register_project(name, make_schema())
        for name in projects:
            service.submit_many(submitted[name], project=name)
        service.drain(concurrency=2)
        live = archives(service)
        assert live == accepted(service)
        service.close()
        assert {name: [sql for sql, _ in pairs] for name, pairs in live.items()} == submitted
        assert (SnapshotManager(directory / "snapshots").latest() is not None) == bool(
            snapshot_every
        )

        for reopen in (
            lambda: AnnotationService.open_durable(directory),  # warm when snapshotted
            lambda: AnnotationService.recover(directory / "journal.bin"),  # cold
        ):
            recovered = reopen()
            assert archives(recovered) == live
            assert accepted(recovered) == live
            recovered.close()

    def test_recovered_service_keeps_working(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc")
        service.register_project("hr", make_schema())
        service.submit_many(QUERIES[:2], project="hr")
        service.drain()
        service.close()

        recovered = AnnotationService.open_durable(tmp_path / "svc")
        recovered.submit_many(QUERIES[2:], project="hr")
        completed = recovered.drain()
        assert len(completed) == 3
        assert recovered.stats.completed == 5
        live = semantic_state(recovered)
        recovered.close()

        # ... and the continued journal still replays to the same place.
        third = AnnotationService.open_durable(tmp_path / "svc")
        assert semantic_state(third) == live
        assert third.stats.completed == 5  # drain_stats + commits replayed
        third.close()

    @pytest.mark.parametrize(
        "hedge_keys",
        [
            {
                "llm_hedge_enabled": False,
                "llm_hedge_delay_s": None,
                "llm_hedge_percentile": 0.95,
                "llm_hedge_min_samples": 8,
            },
            {
                "llm_hedge_enabled": True,
                "llm_hedge_delay_s": 0.05,
                "llm_hedge_percentile": 0.9,
                "llm_hedge_min_samples": 4,
            },
        ],
        ids=["defaults", "enabled"],
    )
    def test_configs_with_retired_hedge_keys_replay_exactly(self, tmp_path, hedge_keys):
        # Journals and snapshots written by builds that still had LLM hedging
        # carry four ``llm_hedge_*`` config keys; TaskConfig.from_dict must
        # drop them and restore every other setting.
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        service.register_project(
            "hr-fast",
            make_schema(),
            config=TaskConfig(model_name="gpt-3.5-turbo", num_candidates=2),
        )
        for index, sql in enumerate(QUERIES):
            if index == 2:
                service.snapshot()  # the warm start replays the last commits
            service.submit(sql, project="hr" if index % 2 else "hr-fast")
            service.drain()
        live = semantic_state(service)
        service.close()

        journal_path = directory / "journal.bin"
        rewritten = bytearray()
        registered = 0
        for event in EventJournal.read_events(journal_path):
            payload = event.payload
            if event.type == PROJECT_REGISTERED:
                payload["config"].update(hedge_keys)
                registered += 1
            rewritten += encode_record(event.type, payload)
        assert registered == 2
        journal_path.write_bytes(bytes(rewritten))
        snapshots = SnapshotManager(directory / "snapshots")
        offset, state = snapshots.latest()
        for project in state["projects"].values():
            project["config"].update(hedge_keys)
        snapshots.save(offset, state)
        assert b"llm_hedge_min_samples" in snapshots.path_for(offset).read_bytes()

        cold = AnnotationService.recover(journal_path)
        assert semantic_state(cold) == live
        assert cold.pipeline("hr-fast").config.num_candidates == 2
        cold.close()
        warm = AnnotationService.open_durable(directory)  # snapshot + suffix
        assert semantic_state(warm) == live
        assert warm.pipeline("hr-fast").config.model_name == "gpt-3.5-turbo"
        warm.close()

    def test_config_with_retired_breaker_keys_loads_without_them(self):
        # Journals and snapshots written by builds that still had a circuit
        # breaker carry six ``breaker_*`` config keys (the durable fixture in
        # tests/data/durable_service is one); TaskConfig.from_dict drops them.
        config = TaskConfig(model_name="gpt-3.5-turbo", num_candidates=2)
        state = config.to_dict()
        state.update(
            breaker_enabled=True,
            breaker_window=8,
            breaker_failure_rate=0.25,
            breaker_min_calls=3,
            breaker_recovery_s=0.5,
            breaker_probes=2,
        )
        assert TaskConfig.from_dict(state) == config

    def test_journal_without_skeletons_replays_exactly(self, tmp_path):
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        for index, sql in enumerate(QUERIES):
            if index == 2:
                service.snapshot()  # the warm start replays the last commits
            service.submit(sql, project="hr")
            service.drain()
        live = semantic_state(service)
        service.close()
        journal_path = directory / "journal.bin"
        original = journal_path.read_bytes()
        events = EventJournal.read_events(journal_path)

        # Rewrite the journal as a build that journaled no skeletons wrote it.
        stripped = bytearray()
        commits_with_examples = []
        for event in events:
            payload = event.payload
            if event.type == ANNOTATION_COMMITTED and payload["example"] is not None:
                assert payload["example"].pop("skeleton")
                commits_with_examples.append(event.offset)
            stripped += encode_record(event.type, payload)
        assert len(commits_with_examples) == len(QUERIES)
        assert b'"skeleton"' in original and b'"skeleton"' not in stripped

        latest = SnapshotManager(directory / "snapshots").latest()
        assert latest is not None
        assert any(offset >= latest[0] for offset in commits_with_examples)

        for image in (original, bytes(stripped)):
            journal_path.write_bytes(image)
            cold = AnnotationService.recover(journal_path)
            assert semantic_state(cold) == live
            cold.close()
            warm = AnnotationService.open_durable(directory)  # snapshot + suffix
            assert semantic_state(warm) == live
            warm.close()

    def test_feedback_with_a_ranking_replays_exactly(self, tmp_path):
        # Builds that still had ``Feedback.ranking`` journaled and snapshotted
        # it with every feedback event (always empty); replay ignores it.
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        for index, sql in enumerate(QUERIES):
            if index == 2:
                service.snapshot()  # the warm start replays the last commits
            service.submit(sql, project="hr")
            service.drain()
        pipeline = service.pipeline("hr")
        pipeline.submit_feedback(
            pipeline.generate_candidates(QUERIES[3]),
            Feedback(action=FeedbackAction.REGENERATE, new_priorities=["name the threshold"]),
        )
        live = semantic_state(service)
        service.close()
        journal_path = directory / "journal.bin"
        assert b'"ranking"' not in journal_path.read_bytes()

        rewritten = bytearray()
        with_ranking = 0
        for event in EventJournal.read_events(journal_path):
            if event.type in (ANNOTATION_COMMITTED, FEEDBACK_APPLIED):
                event.payload["feedback"]["ranking"] = []
                with_ranking += 1
            rewritten += encode_record(event.type, event.payload)
        assert with_ranking == len(QUERIES) + 1
        journal_path.write_bytes(bytes(rewritten))
        snapshots = SnapshotManager(directory / "snapshots")
        offset, state = snapshots.latest()
        history = state["projects"]["hr"]["feedback_loop"]["history"]
        assert history
        for entry in history:
            entry["ranking"] = []
        snapshots.save(offset, state)

        cold = AnnotationService.recover(journal_path)
        assert semantic_state(cold) == live
        cold.close()
        warm = AnnotationService.open_durable(directory)  # snapshot + suffix
        assert semantic_state(warm) == live
        warm.close()

    def test_journal_and_snapshot_in_the_full_form_replay_exactly(self, tmp_path):
        # Earlier builds repeated each archived example's SQL and NL inside
        # its commit event, repeated the job's SQL in the committed record,
        # journaled no feature profiles and wrote schemas and feedback with
        # every field, defaults included.  Both forms still load to the same
        # state.
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        for index, sql in enumerate(QUERIES):
            if index == 2:
                service.snapshot()  # the warm start replays the last commits
            service.submit(sql, project="hr")
            service.drain()
        pipeline = service.pipeline("hr")
        pipeline.submit_feedback(
            pipeline.generate_candidates(QUERIES[3]),
            Feedback(action=FeedbackAction.REGENERATE, new_priorities=["name the threshold"]),
        )
        live = semantic_state(service)
        service.close()
        journal_path = directory / "journal.bin"

        def full_feedback(state: dict) -> dict:
            feedback = Feedback.from_state(state)
            return dict(dataclasses.asdict(feedback), action=feedback.action.value)

        rewritten = bytearray()
        copies = 0
        job_sql = {}
        for event in EventJournal.read_events(journal_path):
            payload = event.payload
            if event.type == PROJECT_REGISTERED:
                payload["schema"] = dataclasses.asdict(schema_from_state(payload["schema"]))
            if event.type == JOB_SUBMITTED:
                job_sql[payload["job_id"]] = payload["sql"]
            if event.type in (ANNOTATION_COMMITTED, FEEDBACK_APPLIED):
                payload["feedback"] = full_feedback(payload["feedback"])
            if event.type == ANNOTATION_COMMITTED and payload["job_id"] is not None:
                assert "sql" not in payload["record"]
                payload["record"]["sql"] = job_sql[payload["job_id"]]
            example = payload.get("example") if event.type == ANNOTATION_COMMITTED else None
            if example is not None:
                assert "sql" not in example and "nl" not in example
                assert example.pop("profile")
                record = payload["record"]
                payload["example"] = dict(
                    example, sql=record["sql"].strip(), nl=record["nl"].strip()
                )
                copies += 1
            rewritten += encode_record(event.type, payload)
        assert copies == len(QUERIES)
        journal_path.write_bytes(bytes(rewritten))
        snapshots = SnapshotManager(directory / "snapshots")
        offset, state = snapshots.latest()
        project = state["projects"]["hr"]
        project["schema"] = dataclasses.asdict(schema_from_state(project["schema"]))
        history = project["feedback_loop"]["history"]
        project["feedback_loop"]["history"] = [full_feedback(entry) for entry in history]
        snapshots.save(offset, state)

        cold = AnnotationService.recover(journal_path)
        assert semantic_state(cold) == live
        cold.close()
        warm = AnnotationService.open_durable(directory)  # snapshot + suffix
        assert semantic_state(warm) == live
        warm.close()

    def test_journal_with_unquoted_skeletons_replays_to_quoted_ones(self, tmp_path):
        directory = tmp_path / "svc"
        live = drain_quoted_queries(directory)
        skeletons = live["projects"]["hr"]["example_store"]["skeletons"]
        assert skeletons["ex-00001"] == 'SELECT "name" FROM employees'
        assert skeletons["ex-00001"] != skeletons["ex-00002"]
        journal_path = directory / "journal.bin"

        # Rewrite the journal as a build whose skeletons dropped the quotes.
        rewritten = bytearray()
        changed = 0
        job_sql = {}
        for event in EventJournal.read_events(journal_path):
            if event.type == JOB_SUBMITTED:
                job_sql[event.payload["job_id"]] = event.payload["sql"]
            example = event.payload.get("example") if event.type == ANNOTATION_COMMITTED else None
            if example is not None:
                record = event.payload["record"]
                old = unquoted_skeleton(record.get("sql") or job_sql[event.payload["job_id"]])
                changed += old != example["skeleton"]
                example["skeleton"] = old
            rewritten += encode_record(event.type, event.payload)
        assert changed == 3
        journal_path.write_bytes(bytes(rewritten))

        cold = AnnotationService.recover(journal_path)
        assert semantic_state(cold) == live
        cold.close()
        warm = AnnotationService.open_durable(directory)  # snapshot + suffix
        assert semantic_state(warm) == live
        warm.close()

    def test_replaying_quoted_skeletons_this_build_wrote_lexes_nothing(self, tmp_path):
        # Skeletons keep identifier quotes, so a journaled skeleton of SQL
        # with a quoted identifier is used as it stands.
        directory = tmp_path / "svc"
        live = drain_quoted_queries(directory)
        callers = [
            importlib.import_module(name)
            for name in (
                "repro.retrieval.example_store",
                "repro.retrieval.retriever",
                "repro.sql.decompose",
            )
        ]
        for recover in (
            lambda: AnnotationService.open_durable(directory),  # snapshot + suffix
            lambda: AnnotationService.recover(directory / "journal.bin"),
        ):
            with contextlib.ExitStack() as stack:
                keyed = [
                    stack.enter_context(
                        mock.patch.object(module, "sql_keys", side_effect=module.sql_keys)
                    )
                    for module in callers
                ]
                recovered = recover()
            assert [calls.call_count for calls in keyed] == [0, 0, 0]
            assert semantic_state(recovered) == live
            recovered.close()

    def test_journaled_profiles_recover_warm_and_cold_and_stripped(self, tmp_path):
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        service.register_project(
            "hr-fast",
            make_schema(),
            config=TaskConfig(model_name="gpt-3.5-turbo", num_candidates=2),
        )
        service.submit_many(QUERIES[:3], project="hr")
        service.submit_many(QUERIES[1:3], project="hr-fast")
        service.drain()
        service.snapshot()  # the warm start replays the suffix below
        # A trailing semicolon makes the record's SQL differ from the job's.
        service.submit_many([QUERIES[3] + ";", QUERIES[4]], project="hr")
        service.submit_many([QUERIES[0], QUERIES[4]], project="hr-fast")
        service.drain()
        live = semantic_state(service)
        service.close()
        journal_path = directory / "journal.bin"
        original = journal_path.read_bytes()
        latest = SnapshotManager(directory / "snapshots").latest()
        assert latest is not None

        events = EventJournal.read_events(journal_path)
        commits = [event for event in events if event.type == ANNOTATION_COMMITTED]
        assert len(commits) == 9
        assert sum(event.offset >= latest[0] for event in commits) == 4
        assert all(event.payload["example"]["profile"] for event in commits)
        # Only the semicolon job's record keeps its SQL.
        kept = [event.payload["record"]["sql"] for event in commits if "sql" in event.payload["record"]]
        assert kept == [QUERIES[3]]

        stripped = bytearray()
        for event in events:
            if event.type == ANNOTATION_COMMITTED:
                event.payload["example"].pop("profile")
            stripped += encode_record(event.type, event.payload)
        assert b'"profile"' in original and b'"profile"' not in stripped

        from repro.retrieval import embedding

        counted = embedding._trigram_features
        for image, profiled in ((original, 0), (bytes(stripped), None)):
            journal_path.write_bytes(image)
            for recover in (
                lambda: AnnotationService.recover(journal_path),
                lambda: AnnotationService.open_durable(directory),  # snapshot + suffix
            ):
                with mock.patch.object(
                    embedding, "_trigram_features", side_effect=counted
                ) as trigrams:
                    recovered = recover()
                assert semantic_state(recovered) == live
                recovered.close()
                # A journaled profile spares replay from counting the text.
                assert (trigrams.call_count == 0) == (profiled == 0)

    def test_knowledge_matching_later_prompts_recovers_exactly(self, tmp_path):
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        pipeline = service.pipeline("hr")
        pipeline.submit_feedback(
            pipeline.generate_candidates(QUERIES[0]),
            Feedback(
                action=FeedbackAction.REGENERATE,
                knowledge=[("dept", "short for department")],
            ),
        )
        entry = pipeline.feedback_loop.knowledge.lookup("dept")
        later = [QUERIES[1], QUERIES[2], QUERIES[4]]
        assert entry is not None and all(entry.matches(sql) for sql in later)
        service.submit(later[0], project="hr")
        service.drain()
        service.snapshot()  # the warm start replays the prompts after it
        service.submit_many(later[1:], project="hr")
        service.drain()
        live = semantic_state(service)
        service.close()

        warm = AnnotationService.open_durable(directory)
        assert semantic_state(warm) == live
        warm.close()
        cold = AnnotationService.recover(directory / "journal.bin")
        assert semantic_state(cold) == live
        cold.close()


# ----------------------------------------------------------------------
# snapshots and warm start
# ----------------------------------------------------------------------

class TestSnapshots:
    @pytest.mark.parametrize("case", SNAPSHOT_CORRUPTIONS)
    def test_manager_round_trip_prune_and_corrupt_skip(self, tmp_path, case):
        manager = SnapshotManager(tmp_path / "snaps", keep=2)
        for offset in (5, 9, 12):
            manager.save(offset, {"offset": offset, "data": [offset]})
        assert manager.offsets() == [9, 12]  # keep=2 pruned offset 5
        assert manager.load(12)["data"] == [12]

        # Corrupt the newest snapshot: latest() must fall back to the older one.
        intact = manager.path_for(12).read_bytes()
        variants = corrupted_snapshots(intact, case) + [b"{corrupt"]
        for damaged in variants:
            manager.path_for(12).write_bytes(damaged)
            offset, state = manager.latest()
            assert offset == 9 and state["data"] == [9]
            with pytest.raises(SnapshotError):
                manager.load(12)
        manager.path_for(12).write_bytes(intact)
        assert manager.load(12)["data"] == [12]

        # max_offset caps which snapshots qualify.
        assert manager.latest(max_offset=8) is None
        with pytest.raises(SnapshotError):
            SnapshotManager(tmp_path / "other", keep=0)

    def test_only_format_3_at_its_own_offset_is_read(self, tmp_path):
        manager = SnapshotManager(tmp_path / "snaps")
        manager.save(7, {"data": [7]})
        data = manager.path_for(7).read_bytes()
        newline = data.index(b"\n")
        fields = json.loads(data[:newline])
        assert fields["format"] == 3
        for changed in ({"format": 2}, {"format": 4}, {"offset": 8}):
            header = json.dumps(dict(fields, **changed), separators=(",", ":")).encode()
            manager.path_for(7).write_bytes(header + data[newline:])
            assert manager.latest() is None
        # A copy of a valid file under another offset's name is not used.
        manager.path_for(3).write_bytes(data)
        assert manager.latest() is None

    def test_warm_start_from_snapshot_matches_cold_replay(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc", snapshot_every=4)
        service.register_project("hr", make_schema())
        for sql in QUERIES:
            service.submit(sql, project="hr")
            service.drain()
        live = semantic_state(service)
        service.close()

        snapshots = SnapshotManager(tmp_path / "svc" / "snapshots")
        latest = snapshots.latest()
        assert latest is not None and latest[0] > 0

        # Warm start (snapshot + suffix replay).
        warm = AnnotationService.open_durable(tmp_path / "svc")
        assert semantic_state(warm) == live
        warm.close()

        # Cold replay of the same journal must land in the same state.
        cold = AnnotationService.recover(tmp_path / "svc" / "journal.bin")
        assert semantic_state(cold) == live
        cold.close()

    @pytest.mark.parametrize("case", SNAPSHOT_CORRUPTIONS)
    def test_corrupt_snapshot_degrades_to_older_or_cold(self, tmp_path, case):
        directory = tmp_path / "svc"
        live = drain_with_snapshots(directory)
        snapshots = SnapshotManager(directory / "snapshots")
        offsets = snapshots.offsets()
        assert len(offsets) >= 2
        intact = {offset: snapshots.path_for(offset).read_bytes() for offset in offsets}

        def damage(offset: int) -> None:
            variants = corrupted_snapshots(intact[offset], case)
            snapshots.path_for(offset).write_bytes(variants[len(variants) // 2])

        # Damage the newest snapshot: warm start from the older one.
        damage(offsets[-1])
        telemetry = Telemetry()
        recovered = AnnotationService.open_durable(directory, telemetry=telemetry)
        assert semantic_state(recovered) == live
        assert snapshot_fallbacks(telemetry) == 1
        recovered.close()

        # Damage every snapshot: cold replay of the whole journal.
        for offset in offsets:
            damage(offset)
        assert snapshots.latest() is None
        telemetry = Telemetry()
        recovered = AnnotationService.open_durable(directory, telemetry=telemetry)
        assert semantic_state(recovered) == live
        assert snapshot_fallbacks(telemetry) == len(offsets)
        recovered.close()

    def test_previous_format_snapshot_is_skipped_for_an_exact_cold_replay(self, tmp_path):
        directory = tmp_path / "svc"
        live = drain_with_snapshots(directory)
        snapshots = SnapshotManager(directory / "snapshots")
        offsets = snapshots.offsets()
        assert offsets
        for offset in offsets:
            state = snapshots.load(offset)
            snapshots.path_for(offset).write_bytes(previous_format_snapshot(offset, state))
        assert snapshots.latest() is None

        telemetry = Telemetry()
        recovered = AnnotationService.open_durable(directory, telemetry=telemetry)
        assert semantic_state(recovered) == live
        assert snapshot_fallbacks(telemetry) == len(offsets)
        recovered.close()

    def test_snapshot_with_retired_job_and_config_keys_opens_warm(self, tmp_path):
        # Earlier builds wrote a ``priority`` with every job, an admission
        # limit and a task direction with every config, and a dataset, tables
        # and quality with every archived example, into the snapshot and the
        # journal alike.
        directory = tmp_path / "svc"
        service = AnnotationService.open_durable(directory)
        service.register_project("hr", make_schema())
        service.submit("SELEC name FRM employees", project="hr")  # quarantined
        service.submit(QUERIES[0], project="hr")
        service.drain()
        service.submit(QUERIES[1], project="hr")  # pending
        service.snapshot()
        live = semantic_state(service)
        service.close()
        assert len(live["queue"]) == len(live["quarantine"]) == 1

        retired_config = {"task": "sql_to_nl", "max_pending_per_project": 0}
        retired_example = {"dataset": "hr", "tables": ["employees"], "quality": 1.0}
        journal_path = directory / "journal.bin"
        rewritten = bytearray()
        archived = 0
        for event in EventJournal.read_events(journal_path):
            if event.type == JOB_SUBMITTED:
                event.payload["priority"] = 0
            if event.type == PROJECT_REGISTERED:
                event.payload["config"] = dict(retired_config, **event.payload["config"])
            if event.type == ANNOTATION_COMMITTED and event.payload["example"] is not None:
                event.payload["example"].update(retired_example)
                archived += 1
            rewritten += encode_record(event.type, event.payload)
        assert archived == 1
        journal_path.write_bytes(bytes(rewritten))
        snapshots = SnapshotManager(directory / "snapshots")
        offset, state = snapshots.latest()
        assert offset == EventJournal.read_events(journal_path)[-1].offset + 1
        state["queue"][0]["priority"] = 0
        state["quarantine"][0]["job"]["priority"] = 3
        project = state["projects"]["hr"]
        project["config"] = dict(retired_config, **project["config"])
        (example,) = project["example_store"]["examples"]
        example.update(retired_example)
        snapshots.save(offset, state)

        warm = AnnotationService.open_durable(directory)  # the snapshot alone
        assert semantic_state(warm) == live
        warm.close()
        cold = AnnotationService.recover(journal_path)
        assert semantic_state(cold) == live
        cold.close()

    def test_restored_feature_hashes_are_the_derived_ones(self, tmp_path):
        directory = tmp_path / "svc"
        drain_with_snapshots(directory)
        warm = AnnotationService.open_durable(directory)
        model = warm.pipeline("hr").retriever.example_store._store.model
        assert model._feature_ids
        for feature, feature_id in model._feature_ids.items():
            hashed = _stable_hash(feature)
            assert model._indices[feature_id] == hashed % model.dimensions
            assert model._signs[feature_id] == (1.0 if (hashed >> 32) % 2 == 0 else -1.0)
        warm.close()

    def test_reopening_what_this_build_wrote_hashes_no_feature(self, tmp_path):
        # Snapshots store every vocabulary hash, and the journal stores the
        # hashes of the features each archived text brought in first, so
        # neither a warm open nor a cold replay hashes a feature; the live
        # drain's retrievals interned features no archived text carried.
        directory = tmp_path / "svc"
        live = drain_with_snapshots(directory)
        assert SnapshotManager(directory / "snapshots").latest() is not None
        from repro.retrieval import embedding

        for recover in (
            lambda: AnnotationService.open_durable(directory),  # snapshot + suffix
            lambda: AnnotationService.recover(directory / "journal.bin"),
        ):
            with mock.patch.object(
                embedding, "_stable_hash", side_effect=embedding._stable_hash
            ) as hashed:
                recovered = recover()
            assert hashed.call_count == 0
            assert semantic_state(recovered) == live
            recovered.close()

    def test_forced_snapshot_and_cadence(self, tmp_path):
        service = AnnotationService.open_durable(tmp_path / "svc", snapshot_every=0)
        service.register_project("hr", make_schema())
        service.submit(QUERIES[0], project="hr")
        service.drain()
        assert SnapshotManager(tmp_path / "svc" / "snapshots").latest() is None
        path = service.snapshot()
        assert path is not None and path.exists()
        service.close()

        warm = AnnotationService.open_durable(tmp_path / "svc")
        assert warm.pipeline("hr").example_count == 1
        warm.close()


# ----------------------------------------------------------------------
# crash-point sweep
# ----------------------------------------------------------------------

def run_until_crash(
    directory: Path, crash_after: int | None, torn_bytes: int | None = None
) -> tuple[AnnotationService, bool]:
    """Drive the standard workload on a journal that dies at ``crash_after``."""
    journal = CrashingJournal(
        directory / "journal.bin", crash_after=crash_after, torn_bytes=torn_bytes
    )
    service = AnnotationService()
    service.attach_journal(journal)
    try:
        service.register_project("hr", make_schema())
        service.submit_many(QUERIES, project="hr")
        service.drain()
    except InjectedCrash:
        return service, True  # abandoned without close(), like a dead process
    return service, False


class TestCrashSweep:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory) -> dict:
        directory = tmp_path_factory.mktemp("reference")
        service, crashed = run_until_crash(directory, crash_after=None)
        assert not crashed
        state = semantic_state(service)
        appends = service.journal.record_count
        service.close()
        # register + submits + commits + drain stats
        assert appends == 1 + len(QUERIES) + len(QUERIES) + 1
        return {"state": state, "appends": appends}

    @pytest.mark.parametrize("torn_bytes", [None, 1, 7, 40])
    def test_crash_at_every_append_recovers_and_completes(
        self, reference, tmp_path, torn_bytes
    ):
        for crash_after in range(1, reference["appends"] + 1):
            directory = tmp_path / f"crash-{crash_after}-{torn_bytes}"
            directory.mkdir()
            _, crashed = run_until_crash(
                directory, crash_after=crash_after, torn_bytes=torn_bytes
            )
            assert crashed

            recovered = AnnotationService.recover(directory / "journal.bin")
            if torn_bytes is not None:
                assert recovered.journal.recovery.torn
            # Finish the interrupted run: re-register/submit whatever the
            # journal never saw, then drain the re-queued jobs.
            if "hr" not in recovered.project_names:
                recovered.register_project("hr", make_schema())
            journaled = {job.sql for job in recovered.pending_jobs()} | {
                record.sql for record in recovered.pipeline("hr").annotations
            }
            for sql in QUERIES:
                if sql not in journaled:
                    recovered.submit(sql, project="hr")
            recovered.drain()
            assert (
                semantic_state(recovered) == reference["state"]
            ), f"crash at append {crash_after} (torn_bytes={torn_bytes})"
            recovered.close()

    def test_recovery_is_deterministic_at_each_crash_point(self, reference, tmp_path):
        for crash_after in (2, len(QUERIES) + 3, reference["appends"]):
            directory = tmp_path / f"det-{crash_after}"
            directory.mkdir()
            run_until_crash(directory, crash_after=crash_after)
            first = AnnotationService.recover(directory / "journal.bin")
            state = semantic_state(first)
            first.close()
            second = AnnotationService.recover(directory / "journal.bin")
            assert semantic_state(second) == state
            second.close()
