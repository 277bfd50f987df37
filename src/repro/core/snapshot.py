"""Service snapshots — warm-start checkpoints over the event journal.

A snapshot is the full semantic state of an :class:`~repro.core.service.
AnnotationService` at a known journal offset: every project pipeline (its
schema, config, annotations, feedback session and example archive — embedding
vectors, feature hashes and query skeletons included, verbatim), the pending
queue, quarantined jobs and the aggregate stats.  Recovery then loads the
newest intact snapshot and replays only the journal *suffix*, instead of
re-executing the whole history — the classic checkpoint + log-suffix scheme,
and the reason warm start is a multiple faster than cold replay (no
re-embedding, no re-hashing, no re-application of old feedback).

The schema and each feedback event in the state leave out every field at
the default their readers fill in (:func:`schema_to_state`,
:meth:`~repro.core.feedback.Feedback.to_state`), so most columns are just a
name.  The journal suffix replayed after a snapshot carries each archived
example's SQL and NL once, in its annotation record (see
:mod:`repro.core.journal`).

File format (``format`` 3): one JSON header line ending in a newline, then
the body::

    {"format":3,"offset":<offset>,"length":<body bytes>,"crc32":<crc>}
    <state JSON, UTF-8>

Format 3 packs each example archive's numbers rather than listing them: the
stored vectors are one base64 little-endian float64 matrix (as in format 2),
and the embedding vocabulary is its feature names joined by newlines plus
two base64 fields, the document frequencies as little-endian integers and
the feature hashes as index bytes and sign bits (see
:meth:`~repro.retrieval.embedding.EmbeddingModel.state_dict`).  A restore
decodes each in one call instead of walking JSON lists.

The CRC32 covers the body bytes exactly as written, so the body is verified
and then decoded once.  A file is used only when its header parses, names
format 3 and the offset in its file name, and its body has the stated length
and checksum; anything else — a flipped or truncated byte, a missing newline,
a snapshot written in an older format — is skipped like a corrupt file.  So
the first restart after upgrading from a format-2 build skips its snapshots
and is a cold replay of the complete journal, which is exact; the snapshots
written after it are format 3.  Files are written atomically (tmp file +
fsync + rename), and :meth:`SnapshotManager.latest` falls back past skipped
files: a damaged or outdated snapshot degrades recovery to an older
snapshot (or a cold replay), never to a failure.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import TaskConfig
from repro.core.pipeline import AnnotationPipeline, AnnotationRecord
from repro.errors import SnapshotError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.schema.model import ColumnSchema, DatabaseSchema, ForeignKey, TableSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.llm.base import LLMClient

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"
#: The one snapshot file format this module writes and reads.
_SNAPSHOT_FORMAT = 3


# ----------------------------------------------------------------------
# schema (de)serialisation
# ----------------------------------------------------------------------

def schema_to_state(schema: DatabaseSchema) -> dict:
    """JSON-safe representation of a database schema, in fresh containers.

    Every field at the default :func:`schema_from_state` fills in is left
    out: a column's ``type_name`` "TEXT", ``nullable`` True and
    ``primary_key`` False, and empty descriptions, column lists and
    foreign-key lists.  Most generated columns are nullable non-key columns
    without a description, so this cuts the generated schemas' bytes by
    about 40%.  Fuller forms, such as ``dataclasses.asdict``'s, load to the
    same schema.
    """
    state: dict = {"name": schema.name}
    if schema.tables:
        state["tables"] = [_table_state(table) for table in schema.tables]
    if schema.description:
        state["description"] = schema.description
    return state


def _table_state(table: TableSchema) -> dict:
    state: dict = {"name": table.name}
    if table.columns:
        state["columns"] = [_column_state(column) for column in table.columns]
    if table.foreign_keys:
        state["foreign_keys"] = [
            {
                "column": foreign_key.column,
                "referenced_table": foreign_key.referenced_table,
                "referenced_column": foreign_key.referenced_column,
            }
            for foreign_key in table.foreign_keys
        ]
    if table.description:
        state["description"] = table.description
    return state


def _column_state(column: ColumnSchema) -> dict:
    state: dict = {"name": column.name}
    if column.type_name != "TEXT":
        state["type_name"] = column.type_name
    if not column.nullable:
        state["nullable"] = False
    if column.primary_key:
        state["primary_key"] = True
    if column.description:
        state["description"] = column.description
    return state


def schema_from_state(state: dict) -> DatabaseSchema:
    """Rebuild a :class:`DatabaseSchema` from :func:`schema_to_state` output."""
    return DatabaseSchema(
        name=state["name"],
        description=state.get("description", ""),
        tables=[
            TableSchema(
                name=table["name"],
                description=table.get("description", ""),
                columns=[ColumnSchema(**column) for column in table.get("columns", [])],
                foreign_keys=[
                    ForeignKey(**foreign_key)
                    for foreign_key in table.get("foreign_keys", [])
                ],
            )
            for table in state.get("tables", [])
        ],
    )


# ----------------------------------------------------------------------
# pipeline (de)serialisation
# ----------------------------------------------------------------------

def capture_pipeline_state(pipeline: AnnotationPipeline) -> dict:
    """Full semantic state of one project pipeline.

    Embedding vectors and IDF statistics are serialised verbatim (they were
    produced under historical document-frequency tables and cannot be
    recomputed from the text alone).  Each stored example's query skeleton
    and each vocabulary feature's hashed vector index and sign ride along
    too, although both are pure functions of their text: restoring instead
    of re-deriving them is what makes a warm start cheap.  Process-local
    caches (schema linking, feature profiles, skeletons of queries) are
    rebuilt lazily and deliberately excluded.
    """
    return {
        "schema": schema_to_state(pipeline.schema),
        "config": pipeline.config.to_dict(),
        "counter": pipeline._counter,
        "annotations": [asdict(record) for record in pipeline.annotations],
        "feedback_loop": pipeline.feedback_loop.state_dict(),
        "example_store": pipeline.retriever.example_store.state_dict(),
    }


def restore_pipeline_state(
    name: str, state: dict, llm: "LLMClient | None" = None
) -> AnnotationPipeline:
    """Rebuild a project pipeline from :func:`capture_pipeline_state` output.

    The LLM client is *not* part of the snapshot (it is an external process
    resource); pass ``llm`` to reattach a custom client, otherwise the
    pipeline constructs its default simulated client from the restored
    config.  Either way the client sees the restored knowledge base, because
    :meth:`FeedbackLoop.load_state` mutates the shared instance in place.
    """
    pipeline = AnnotationPipeline(
        schema=schema_from_state(state["schema"]),
        config=TaskConfig.from_dict(state["config"]),
        llm=llm,
        dataset_name=name,
    )
    pipeline.feedback_loop.load_state(state["feedback_loop"])
    pipeline.retriever.example_store.load_state(state["example_store"])
    pipeline.annotations = [
        AnnotationRecord(**record) for record in state["annotations"]
    ]
    pipeline._counter = int(state["counter"])
    return pipeline


# ----------------------------------------------------------------------
# snapshot files
# ----------------------------------------------------------------------

class SnapshotManager:
    """Writes, prunes and loads checksummed snapshot files.

    Files are named ``snapshot-<offset>.json`` where ``<offset>`` is the
    journal record count the snapshot covers; recovery replays the journal
    from that offset.  Only the newest ``keep`` snapshots are retained.
    """

    #: Observability sink for snapshot-write accounting (class-level no-op
    #: default; the service overwrites it per instance).
    telemetry: Telemetry = NULL_TELEMETRY

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise SnapshotError("must keep at least one snapshot")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    def path_for(self, offset: int) -> Path:
        """The snapshot file covering journal offset ``offset``."""
        return self.directory / f"{_SNAPSHOT_PREFIX}{offset:010d}{_SNAPSHOT_SUFFIX}"

    def offsets(self) -> list[int]:
        """Journal offsets of every snapshot on disk, ascending."""
        found = []
        for path in self.directory.glob(f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"):
            stem = path.name[len(_SNAPSHOT_PREFIX) : -len(_SNAPSHOT_SUFFIX)]
            if stem.isdigit():
                found.append(int(stem))
        return sorted(found)

    def save(self, offset: int, state: dict) -> Path:
        """Atomically persist ``state`` as the snapshot at journal ``offset``.

        The state JSON is checksummed and written, behind its header line,
        to a temporary file that is fsynced before being renamed into place,
        so a crash mid-save leaves either the old snapshot set or the new
        one — never a half file under the final name.
        """
        if offset < 0:
            raise SnapshotError("snapshot offset cannot be negative")
        try:
            body = json.dumps(state, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise SnapshotError(f"snapshot state is not JSON-serialisable: {exc}") from exc
        header = json.dumps(
            {
                "format": _SNAPSHOT_FORMAT,
                "offset": offset,
                "length": len(body),
                "crc32": zlib.crc32(body) & 0xFFFFFFFF,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        document = header + b"\n" + body
        path = self.path_for(offset)
        tmp_path = path.with_suffix(".tmp")
        tel = self.telemetry
        started = time.perf_counter() if tel.enabled else 0.0
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(document)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except OSError as exc:
            raise SnapshotError(f"failed to write snapshot {path}: {exc}") from exc
        if tel.enabled:
            tel.count("snapshot_writes_total")
            tel.count("snapshot_bytes_total", len(document))
            tel.observe("snapshot_write_seconds", time.perf_counter() - started)
        self._prune()
        return path

    def load(self, offset: int) -> dict:
        """Load and verify the snapshot at ``offset``."""
        state = self._try_load(offset)
        if state is None:
            raise SnapshotError(f"snapshot at offset {offset} is missing or corrupt")
        return state

    def latest(self, max_offset: int | None = None) -> tuple[int, dict] | None:
        """The newest intact snapshot (optionally at/below ``max_offset``).

        Corrupt, unreadable or other-format snapshot files are skipped,
        falling back to the next-older one; returns ``None`` when no usable
        snapshot exists.
        """
        for offset in reversed(self.offsets()):
            if max_offset is not None and offset > max_offset:
                continue
            state = self._try_load(offset)
            if state is not None:
                return offset, state
            if self.telemetry.enabled:
                self.telemetry.count("snapshot_fallbacks_total")
                self.telemetry.event("snapshot_fallback", skipped_offset=offset)
        return None

    def _try_load(self, offset: int) -> dict | None:
        """The verified state of the snapshot at ``offset``, or ``None``."""
        try:
            data = self.path_for(offset).read_bytes()
            newline = data.find(b"\n")
            if newline < 0:
                return None
            header = json.loads(data[:newline])
            body = data[newline + 1 :]
            if (
                header["format"] != _SNAPSHOT_FORMAT
                or header["offset"] != offset
                or header["length"] != len(body)
                or header["crc32"] != zlib.crc32(body) & 0xFFFFFFFF
            ):
                return None
            return json.loads(body)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _prune(self) -> None:
        for offset in self.offsets()[: -self.keep]:
            try:
                self.path_for(offset).unlink()
            except OSError:  # pragma: no cover - best-effort housekeeping
                pass
