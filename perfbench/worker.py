"""The measured process: set up one workload, then run timed rounds.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--source DIR] [--trace] [--setup-only] [--lockstep]

``run.py`` launches it under the pinned ``PYTHONHASHSEED`` and an
address-space cap, importing ``repro`` from ``--source`` (the checkout's
``src``, or the unpacked reference build).  It prints ``READY`` once set-up
(imports, fixture load, database build, registration, journal build and a
warm-up) is done, then measures a fixed number of whole rounds, sized so
they last about ``--seconds`` on the reference host, and prints one JSON
result line.  Fixed work (not a deadline) keeps the sample count, and so the
reported tail percentile, the same whatever the host's or the program's
speed.  With ``--lockstep`` it stops at a gate after ``READY`` and before
every timed op, printing ``GATE`` and waiting for ``GO`` on its standard
input, so ``run.py`` can alternate single ops between two workers.  With
``--trace`` every layer's entry points record spans and the result carries
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Fewest measured rounds a run reports, however long a round takes.
MIN_ROUNDS = 3
TRACE_DIR = HERE / ".traces"


def _per_layer(tracer, rounds: list) -> dict[str, float]:
    """Per-layer metrics from the spans of measured ops (op id >= 1)."""
    from tracing import SETUP_OP

    spans = tracer.spans
    selfs = stats.self_times([(span[2], span[3], span[4]) for span in spans])
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    setup_insert_s = 0.0
    op_wall = root_self = 0.0
    waits: list[tuple[float, float]] = []
    for span, own in zip(spans, selfs):
        name, layer, start, end, _parent, op_id, count = span
        if op_id == SETUP_OP and name == "engine.insert":
            setup_insert_s += own
        if op_id < 1:
            continue
        calls[name] += 1
        counted[name] += count
        self_by_name[name] += own
        self_by_layer[layer] += own
        if name == "bench.op":
            op_wall += end - start
            root_self += own
        elif layer == "llm.wait":
            waits.append((start, end))
    units = max(sum(current.units for current in rounds), 1)
    drains = calls["service.drain"]
    round_trips = calls["llm.round_trip"]
    extra = defaultdict(list)
    for current in rounds:
        for key, value in current.extra.items():
            extra[key].append(value)

    def per_q_ms(seconds: float) -> float:
        return seconds * 1000.0 / units

    def median_extra(key: str) -> float:
        return stats.summary(extra[key])["median"] if extra[key] else 0.0

    batched = sum(extra["batched"])
    regenerated = sum(extra["regenerated"])
    restarts = calls["service.open"]
    replayed = calls["journal.replay_event"]
    return {
        "sql.lex_calls_per_q": calls["sql.lex"] / units,
        "sql.parse_calls_per_q": calls["sql.parse"] / units,
        "sql.analyze_calls_per_q": calls["sql.analyze"] / units,
        "sql.self_ms_per_q": per_q_ms(self_by_layer["sql"]),
        "schema.link_self_ms_per_q": per_q_ms(self_by_layer["schema"]),
        "retrieval.search_calls_per_q": calls["retrieval.search"] / units,
        "retrieval.search_self_ms_per_q": per_q_ms(self_by_name["retrieval.search"]),
        "retrieval.insert_self_ms_per_q": per_q_ms(self_by_name["retrieval.insert"]),
        "llm.round_trips_per_q": round_trips / units,
        "llm.prompts_per_round_trip": (
            counted["llm.round_trip"] / round_trips if round_trips else 0.0
        ),
        "llm.wait_ms_per_q": per_q_ms(self_by_layer["llm.wait"]),
        # Share of op wall time in which at least one LLM call is waiting.
        "llm.wait_share_of_op": stats.covered_length(waits) / op_wall if op_wall else 0.0,
        "llm.self_ms_per_q": per_q_ms(self_by_layer["llm"]),
        "llm.retries_per_q": calls["llm.retry"] / units,
        "core.pipeline.waves": calls["pipeline.wave"] / drains if drains else 0.0,
        "core.pipeline.regenerated_share": (
            regenerated / (batched + regenerated) if batched + regenerated else 0.0
        ),
        "core.pipeline.self_ms_per_q": per_q_ms(self_by_layer["core.pipeline"]),
        "core.service.queue_wait_ms_p50": median_extra("queue_wait_ms"),
        "core.service.drain_self_ms_per_q": per_q_ms(
            self_by_name["service.drain"] + self_by_name["service.schedule"]
        ),
        "core.journal.append_self_ms_per_q": per_q_ms(self_by_name["journal.append"]),
        "core.journal.bytes_per_q": median_extra("journal_bytes_per_q"),
        "core.journal.fsyncs_per_drain": calls["journal.fsync"] / drains if drains else 0.0,
        # Journal open (a full scan) plus replay, per journal record replayed
        # after the snapshot.
        "core.journal.replay_self_ms_per_record": (
            (self_by_name["journal.open"] + self_by_name["journal.replay"]
             + self_by_name["journal.replay_event"]) * 1000.0 / replayed
            if replayed else 0.0
        ),
        "core.snapshot.restore_self_ms": (
            self_by_layer["core.snapshot"] * 1000.0 / restarts if restarts else 0.0
        ),
        "core.snapshot.bytes": median_extra("snapshot_bytes"),
        "engine.execute_calls_per_q": calls["engine.execute"] / units,
        "engine.execute_self_ms_per_q": per_q_ms(self_by_layer["engine"]),
        "engine.insert_self_s": setup_insert_s,
        "metrics.compare_self_ms_per_q": per_q_ms(self_by_layer["metrics"]),
        "metrics.gold_cache_hit_share": median_extra("gold_cache_hit_share"),
        "evaluation.predict_self_ms_per_q": per_q_ms(self_by_name["evaluation.predict"]),
        "obs.self_ms_per_q": per_q_ms(self_by_layer["obs"]),
        "bench.generator_lag_ms_max": max(extra["generator_lag_ms"], default=0.0),
        "bench.root_self_share": root_self / op_wall if op_wall else 0.0,
    }


def _gate() -> None:
    """Wait at a gate until ``run.py`` lets this worker take one step."""
    print("GATE", flush=True)
    _await_go()


def _await_go() -> None:
    line = sys.stdin.readline()
    if line.strip() != "GO":
        raise SystemExit(f"expected GO at a gate, got {line.strip()!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--source", type=Path, default=workloads.SOURCE_DIR)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--lockstep", action="store_true")
    args = parser.parse_args()

    fixtures.require_pinned_hash_seed()
    workloads.add_source_path(args.source)
    import repro.core  # noqa: F401 - imports belong to set-up time
    import repro.evaluation  # noqa: F401
    import repro.metrics  # noqa: F401

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        extra = []
        if hasattr(workload, "llm_class"):
            extra.append((workload.llm_class, "wait", "llm.wait", "llm.wait"))
        missing = tracing.install(tracer, extra_methods=extra)
        if missing:
            print("untraced (not found): " + ", ".join(missing), file=sys.stderr)
    recorder = workloads.Recorder()
    try:
        workload.setup()
        if tracer is not None:
            tracer.op_id = tracing.WARMUP_OP
        workload.warm_up(recorder)
        print("READY", flush=True)
        if args.setup_only:
            return
        gate = None
        if args.lockstep:
            gate = _gate
            _await_go()  # READY is the first gate
        count = max(MIN_ROUNDS, round(args.seconds / workload.reference_round_s))
        count = -(-count // workload.cycle) * workload.cycle
        recorder = workloads.Recorder(tracer, gate)
        start = time.perf_counter()
        for index in range(count):
            recorder.start_round()
            workload.run_round(index, recorder)
        measured_s = time.perf_counter() - start
    finally:
        workload.close()

    rounds = recorder.rounds
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "measured_s": measured_s,
        "rounds": [
            {
                "units": current.units,
                "seconds": current.seconds,
                "cpu_seconds": current.cpu_seconds,
                "attempted": current.attempted,
                "ok": current.ok,
                "latencies_ms": current.latencies_ms,
            }
            for current in rounds
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = _per_layer(tracer, rounds)
        tracer.dump(TRACE_DIR / f"{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
