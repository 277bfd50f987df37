"""The benchmark's own statistics: percentiles, round medians, paired
ratios, self time.

Pure functions over plain numbers so they can be tested on their own
(``perfbench/tests/test_perfbench_stats.py``).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

#: Candidate tail percentiles, in per mille so the rank arithmetic is exact.
TAIL_LADDER_PER_MILLE = (999, 990, 980, 950, 900, 800, 750, 500)
#: A tail percentile is only reported with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: list[float], per_mille: int) -> tuple[float, int]:
    """Nearest-rank percentile: ``(value, samples strictly beyond its rank)``."""
    n = len(sorted_values)
    rank = max(1, -(-per_mille * n // 1000))  # ceil without float error
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples_beyond)``; raises ``ValueError``
    when there are too few samples for even the median to qualify.
    """
    ordered = sorted(values)
    for per_mille in TAIL_LADDER_PER_MILLE:
        value, beyond = nearest_rank(ordered, per_mille)
        if beyond >= MIN_SAMPLES_BEYOND:
            return per_mille / 10, value, beyond
    raise ValueError(
        f"{len(values)} samples leave fewer than {MIN_SAMPLES_BEYOND} beyond the median"
    )


def summary(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    stats = summary(values)
    if stats["median"] == 0:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def round_throughput(rounds: list[tuple[float, float]]) -> dict:
    """Per-round throughput ``units / seconds`` summarised by its median.

    One long mean lets a single slow stretch of the host drag the whole
    figure; the median over fixed-size rounds ignores it.
    """
    if not rounds:
        raise ValueError("no rounds")
    rates = []
    for units, seconds in rounds:
        if seconds <= 0:
            raise ValueError("a round must take positive time")
        rates.append(units / seconds)
    return summary(rates)


def paired_ratio(program: list[float], reference: list[float]) -> float:
    """Median over pairs of ``program[i] / reference[i]``.

    Each pair was measured back to back on the same work, so a change in
    host speed scales both sides of a pair alike and drops out of its ratio.
    """
    if not program or len(program) != len(reference):
        raise ValueError("one reference value per program value")
    if any(value <= 0 for value in reference):
        raise ValueError("reference values must be positive")
    return statistics.median(a / b for a, b in zip(program, reference))


def open_loop_latencies(scheduled: list[float], finished: list[float]) -> list[float]:
    """Latency of each open-loop request, measured from when it was due.

    Timing from the scheduled send time (not the actual submit) charges a
    stalled system for the wait it imposes on requests queued behind it.
    """
    if len(scheduled) != len(finished):
        raise ValueError("one finish time per scheduled request")
    latencies = []
    for due, done in zip(scheduled, finished):
        if done < due:
            raise ValueError("a request cannot finish before it is due")
        latencies.append(done - due)
    return latencies


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent_index)`` span.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; children running concurrently on other
    threads may overlap each other, so their union (clipped to the parent)
    is subtracted, never their sum.  ``parent_index`` is -1 for roots.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(index, ())
            if child_end > start and child_start < end
        ]
        result.append((end - start) - covered_length(clipped))
    return result


def calibration_loop_ms() -> float:
    """Time of one fixed pure-Python loop: a yardstick for host speed.

    It is a diagnostic only, read at the start and end of every run; no
    metric is scaled by it.
    """
    start = time.perf_counter()
    total = 0
    for value in range(100_000):
        total += value * value % 7
    return (time.perf_counter() - start) * 1000.0


def host_calibration_ms() -> float:
    """Median of three calibration loops."""
    return statistics.median(calibration_loop_ms() for _ in range(3))

