"""Recover the committed durable-service fixture (``tests/data/durable_service``).

The directory was written by an earlier durable format; see
``tests/data/make_durable_fixture.py``.  Its snapshot is in format 2, which
this build skips, so a warm open of the directory is a cold replay of the
journal, as the first restart after upgrading is.  Both opens must restore
what the live service held: the same records, the same archived examples
with their ids, texts and skeletons, bit-identical vectors and IDF state,
the same feedback session and the same pending job.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.core import AnnotationService
from repro.core.journal import EventJournal
from repro.core.snapshot import SnapshotManager
from tests.data.make_durable_fixture import DIRECTORY, EXPECTED, digest, durable_view

EXPECTED_VIEW = json.loads(EXPECTED.read_text(encoding="ascii"))


@pytest.fixture()
def directory(tmp_path):
    """A private copy: opening a journal may heal and extend it."""
    copy = tmp_path / "durable_service"
    shutil.copytree(DIRECTORY, copy)
    return copy


def test_fixture_has_a_snapshot_and_a_suffix(directory):
    records = EventJournal.read_events(directory / "journal.bin")
    snapshots = SnapshotManager(directory / "snapshots")
    (offset,) = snapshots.offsets()
    assert 0 < offset < len(records)
    header = snapshots.path_for(offset).read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["format"] == 2
    assert snapshots.latest() is None  # an older format is skipped
    assert sorted(EXPECTED_VIEW["projects"]) == ["hr", "shop"]
    for project in EXPECTED_VIEW["projects"].values():
        assert project["records_digest"] == digest(project["records"])


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_recovery_restores_the_live_state(directory, start):
    if start == "cold":
        service = AnnotationService.recover(directory / "journal.bin")
    else:
        service = AnnotationService.open_durable(directory)
    try:
        view = durable_view(service)
    finally:
        service.close()
    assert view["queue"] == EXPECTED_VIEW["queue"]
    assert view["next_job_id"] == EXPECTED_VIEW["next_job_id"]
    assert list(view["projects"]) == list(EXPECTED_VIEW["projects"])
    for name, expected in EXPECTED_VIEW["projects"].items():
        got = view["projects"][name]
        assert got["records"] == expected["records"], name
        assert got["records_digest"] == expected["records_digest"], name
        store, want = got["example_store"], expected["example_store"]
        assert store["examples"] == want["examples"], name
        assert store["skeletons"] == want["skeletons"], name
        assert store["vector_store"]["vectors"] == want["vector_store"]["vectors"], name
        assert store["vector_store"]["model"] == want["vector_store"]["model"], name
        assert got == expected, name
