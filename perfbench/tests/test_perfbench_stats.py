"""Tests of the benchmark's own statistics and fixture files.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import fixtures  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402


# -- tail percentile: the highest ladder step with >= 10 samples beyond ------

def test_tail_uses_p99_when_ten_samples_lie_beyond_it():
    values = [float(v) for v in range(1, 1001)]
    assert stats.tail_percentile(values) == (99.0, 990.0, 10)


def test_tail_steps_down_when_p99_leaves_only_nine_beyond():
    values = [float(v) for v in range(1, 1000)]  # 999 samples
    assert stats.tail_percentile(values) == (98.0, 980.0, 19)


def test_tail_ignores_input_order():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.tail_percentile(values) == (90.0, 90.0, 10)


def test_tail_needs_ten_samples_beyond_the_median():
    assert stats.tail_percentile([1.0] * 20)[0] == 50.0
    with pytest.raises(ValueError):
        stats.tail_percentile([1.0] * 19)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children_one_level_at_a_time():
    spans = [(0.0, 10.0, -1), (2.0, 5.0, 0), (3.0, 4.0, 1)]
    assert stats.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Two children on different threads overlap between 3 and 4.
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [(0.0, 10.0, -1), (8.0, 12.0, 0), (-1.0, 1.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(7.0)


def test_covered_length_merges_touching_and_contained_intervals():
    assert stats.covered_length([(0, 2), (2, 3), (5, 9), (6, 7)]) == 7


# -- open-loop latency -------------------------------------------------------

def test_open_loop_latency_is_measured_from_the_scheduled_time():
    # The second request was due at 1.0 but the generator was stalled and
    # only sent it at 2.5; it finished at 3.0.  Its latency is 2.0, not 0.5.
    latencies = stats.open_loop_latencies([0.0, 1.0, 2.0], [0.5, 3.0, 3.0])
    assert latencies == pytest.approx([0.5, 2.0, 1.0])


def test_open_loop_latency_rejects_finishing_before_due():
    with pytest.raises(ValueError):
        stats.open_loop_latencies([1.0], [0.5])


# -- round-median throughput ---------------------------------------------------

def test_round_throughput_is_the_median_over_rounds():
    rounds = [(100, 1.0), (100, 4.0), (100, 1.0), (100, 1.25)]
    result = stats.round_throughput(rounds)
    # Rates 100, 25, 100, 80: one slow round does not drag the median the
    # way it drags the pooled mean (400 units / 7.25 s = 55).
    assert result["median"] == pytest.approx(90.0)
    assert result["n"] == 4


def test_round_throughput_of_a_single_round():
    assert stats.round_throughput([(50, 2.0)])["median"] == 25.0


def test_round_throughput_rejects_empty_and_zero_length_rounds():
    with pytest.raises(ValueError):
        stats.round_throughput([])
    with pytest.raises(ValueError):
        stats.round_throughput([(10, 0.0)])


# -- paired ratio against the reference build -----------------------------------

def test_paired_ratio_cancels_a_host_slowdown_shared_by_the_pair():
    # The host runs at full speed, then at half speed, then at full speed;
    # the program is 20% slower than the reference throughout.
    reference = [1.0, 2.0, 1.0]
    program = [1.2, 2.4, 1.2]
    assert stats.paired_ratio(program, reference) == pytest.approx(1.2)
    # Unpaired medians would read the ratio from different host speeds.
    assert stats.paired_ratio([2.4], [1.0]) == pytest.approx(2.4)


def test_paired_ratio_is_the_median_over_pairs():
    assert stats.paired_ratio([1.0, 3.0, 10.0], [1.0, 1.0, 1.0]) == 3.0


def test_paired_ratio_needs_one_positive_reference_per_value():
    with pytest.raises(ValueError):
        stats.paired_ratio([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        stats.paired_ratio([], [])
    with pytest.raises(ValueError):
        stats.paired_ratio([1.0], [0.0])


def test_spread_is_interquartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    summary = stats.summary(values)
    assert stats.spread(values) == pytest.approx(
        (summary["q3"] - summary["q1"]) / 10.0
    )


# -- fixtures ------------------------------------------------------------------

def test_fixture_writes_are_byte_identical(tmp_path):
    data = {"b": [1, 2.5, None, True], "a": "x"}
    fixtures.write_fixture("one", data, tmp_path / "first")
    fixtures.write_fixture("one", data, tmp_path / "second")
    first = fixtures.fixture_path("one", tmp_path / "first").read_bytes()
    second = fixtures.fixture_path("one", tmp_path / "second").read_bytes()
    assert first == second
    assert fixtures.load_fixture("one", tmp_path / "first") == data


def test_fixture_with_wrong_fingerprint_is_refused(tmp_path):
    import gzip
    import json

    path = fixtures.fixture_path("bad", tmp_path)
    with gzip.open(path, "wb") as out:
        out.write(json.dumps({"fingerprint": "0" * 64, "data": [1]}).encode())
    with pytest.raises(fixtures.FixtureError):
        fixtures.load_fixture("bad", tmp_path)


def test_committed_fixtures_match_their_fingerprints():
    for name in ("log", "tenants", "eval"):
        assert fixtures.load_fixture(name)


# -- reference build -------------------------------------------------------------

def test_reference_archive_is_byte_stable(tmp_path):
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("VALUE = 1\n")
    (package / "sub" / "__init__.py").write_text("")
    (package / "notes.txt").write_text("not archived")
    first = reference.archive_bytes(tmp_path)
    assert reference.archive_bytes(tmp_path) == first
    import io
    import zipfile

    with zipfile.ZipFile(io.BytesIO(first)) as archive:
        assert archive.namelist() == ["repro/__init__.py", "repro/sub/__init__.py"]


def test_committed_reference_matches_its_fingerprint_and_has_nominal_figures():
    import hashlib

    config = reference.config()
    assert hashlib.sha256(reference.ARCHIVE.read_bytes()).hexdigest() == config["sha256"]
    assert set(config["nominal"]) == {"annotate_log", "annotate_tenants", "eval_fig1", "recover"}
    for figures in config["nominal"].values():
        assert figures["setup_s"] > 0
