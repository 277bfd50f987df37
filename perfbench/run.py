"""BenchPress end-to-end benchmark: the command that runs and reports it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady 10 [--workload NAME] [--seconds S] [--write-nominal]

Run from the root of a checkout.  All timing happens outside the program:
each measured process (``worker.py``) runs under the pinned
``PYTHONHASHSEED`` and an address-space cap, and is timed from launch.

``--trace 0`` measures the program side by side with the frozen reference
build (``reference.py``): set-up is timed over several launches of each,
alternating, and the timed ops alternate one at a time between a program
worker and a reference worker on the same inputs and the same CPU, each
build getting half of ``--seconds``.  Every timed metric is the program's
figure over the reference's, paired launch by launch or round by round,
times the reference's nominal figure: the program's time on the reference
host.  ``annotate_tenants``, whose
arrivals and simulated LLM waits follow the clock, times its set-up against
the reference but runs its rounds alone and reports them as measured.
``--trace 1`` measures one untraced and one traced program run and prints the
per-layer metrics, including the tracing overhead between the two.

Earlier output lines carry the host fingerprint and details, among them the
raw figures of both builds; the last line is the JSON result.  ``--steady
N`` runs every (or the named) workload with N seeds starting at ``--seed``
and prints each end-to-end metric's median, quartiles and spread against its
bound in ``BENCHMARK.json``; with ``--write-nominal`` it stores the medians of
the reference build's raw figures as its nominal figures instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import fixtures  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = ("annotate_log", "annotate_tenants", "eval_fig1", "recover")
#: Launch pairs (program, reference) whose set-up time is measured per run.
SETUP_PAIRS = 3
#: Address-space cap of every measured process.
WORKER_ADDRESS_MB = 3072
#: Every launch of one run must finish within this many seconds in total.
RUN_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """A worker failed, timed out, or printed no result."""


def host_fingerprint() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pythonhashseed": fixtures.PINNED_HASH_SEED,
    }


def measured_cpu() -> int:
    """The one CPU every worker of a paired workload runs on.

    Paired builds take turns on the same CPU, so each op of one build runs
    on the core, and beside the neighbours, the same op of the other build
    just had; sharing one CPU also keeps migrations out of the timings.
    """
    return max(os.sched_getaffinity(0))


def _prepare_child(cpu: int | None) -> None:
    limit = WORKER_ADDRESS_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


class Worker:
    """One measured process, driven line by line over its standard streams."""

    def __init__(self, workload: str, seed: int, seconds: float, deadline: float,
                 source: Path | None = None, cpu: int | None = None, trace: bool = False,
                 setup_only: bool = False, lockstep: bool = False) -> None:
        command = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
        ]
        if source is not None:
            command += ["--source", str(source)]
        for flag, wanted in (("--trace", trace), ("--setup-only", setup_only),
                             ("--lockstep", lockstep)):
            if wanted:
                command.append(flag)
        self.workload = workload
        self.deadline = deadline
        self.lines: queue.Queue = queue.Queue()
        env = dict(os.environ, PYTHONHASHSEED=fixtures.PINNED_HASH_SEED)
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, preexec_fn=functools.partial(_prepare_child, cpu),
        )
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put((time.perf_counter(), line.strip()))
        self.lines.put((time.perf_counter(), None))

    def _remaining(self) -> float:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchmarkError(f"{self.workload} worker exceeded the run budget")
        return remaining

    def expect(self, *prefixes: str) -> tuple[float, str]:
        """The next output line starting with one of ``prefixes``, and when
        it came."""
        while True:
            try:
                stamp, line = self.lines.get(timeout=self._remaining())
            except queue.Empty:
                continue
            if line is None:
                raise BenchmarkError(
                    f"{self.workload} worker exited with {self.process.wait()}"
                )
            if line.startswith(prefixes):
                return stamp, line

    def ready(self) -> float:
        """Set-up seconds: from launch to ``READY``."""
        stamp, _ = self.expect("READY")
        return stamp - self.started

    def step(self) -> dict | None:
        """Let a lockstep worker pass its gate and wait until it reaches the
        next one; returns its result instead when it has finished."""
        self.process.stdin.write("GO\n")
        self.process.stdin.flush()
        _, line = self.expect("GATE", "{")
        if line == "GATE":
            return None
        self.wait()
        return json.loads(line)

    def result(self) -> dict:
        """Wait for the result of a worker that runs without gates."""
        _, line = self.expect("{")
        self.wait()
        return json.loads(line)

    def wait(self) -> None:
        """Wait for a clean exit."""
        try:
            code = self.process.wait(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{self.workload} worker did not exit") from None
        if code != 0:
            raise BenchmarkError(f"{self.workload} worker exited with {code}")

    def stop(self) -> None:
        """Kill the process if it still runs, and wait for it and its reader."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.reader.join(timeout=5)
        for stream in (self.process.stdin, self.process.stdout):
            try:
                stream.close()
            except OSError:
                pass


def _sides(index: int) -> tuple[str, str]:
    """Which build goes first in pair ``index``: they take turns, so each
    build runs as often right after the other as right after itself."""
    return ("program", "reference") if index % 2 == 0 else ("reference", "program")


def setup_seconds(workload: str, seed: int, deadline: float, source: Path | None,
                  cpu: int | None) -> float:
    worker = Worker(workload, seed, 1.0, deadline, source, cpu, setup_only=True)
    try:
        setup = worker.ready()
        worker.wait()
    finally:
        worker.stop()
    return setup


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> tuple[dict, dict[str, list[float]]]:
    """One untraced run of the program beside the reference build.

    Set-up is timed over ``SETUP_PAIRS`` launches of each build, taking
    turns.  The last pair stays up and runs the rounds in lockstep: one timed
    op of one build, then the same op of the other, so the two figures of
    each op are taken moments apart.  An unpaired workload runs only the
    program's rounds.  Returns each measured build's result and each
    build's set-up seconds (one per pair, in pair order).
    """
    sources = {"program": None, "reference": reference.prepare()}
    paired = workloads.WORKLOADS[workload].paired
    cpu = measured_cpu() if paired else None
    setups: dict[str, list[float]] = {"program": [], "reference": []}
    for pair in range(SETUP_PAIRS - 1):
        for side in _sides(pair):
            setups[side].append(setup_seconds(workload, seed, deadline, sources[side], cpu))
    if not paired:
        setups["reference"].append(
            setup_seconds(workload, seed, deadline, sources["reference"], cpu)
        )
        worker = Worker(workload, seed, seconds, deadline)
        try:
            setups["program"].append(worker.ready())
            return {"program": worker.result()}, setups
        finally:
            worker.stop()
    running: dict[str, Worker] = {}
    results = {}
    try:
        for side in _sides(SETUP_PAIRS - 1):
            running[side] = Worker(workload, seed, seconds / 2, deadline, sources[side],
                                   cpu, lockstep=True)
            setups[side].append(running[side].ready())
        index = 0
        while len(results) < len(running):
            for side in _sides(index):
                if side in results:
                    raise BenchmarkError(f"{workload}: the builds ran different op counts")
                outcome = running[side].step()
                if outcome is not None:
                    results[side] = outcome
            index += 1
    finally:
        for worker in running.values():
            worker.stop()
    return results, setups


def solo(workload: str, seed: int, seconds: float, deadline: float, trace: bool) -> dict:
    """One program run without the reference; returns its result."""
    cpu = measured_cpu() if workloads.WORKLOADS[workload].paired else None
    worker = Worker(workload, seed, seconds, deadline, cpu=cpu, trace=trace)
    try:
        worker.ready()
        return worker.result()
    finally:
        worker.stop()


def _round_rates(result: dict) -> list[float]:
    return [r["units"] / r["seconds"] for r in result["rounds"]]


def _round_cpu_ms(result: dict) -> list[float]:
    return [r["cpu_seconds"] * 1000.0 / r["units"] for r in result["rounds"]]


def _latencies(result: dict) -> list[float]:
    return [value for r in result["rounds"] for value in r["latencies_ms"]]


def figures(result: dict | None, setups: list[float]) -> dict[str, float]:
    """One build's raw timed figures (only set-up time without rounds)."""
    values = {"setup_s": statistics.median(setups)}
    if result is not None:
        latencies = _latencies(result)
        values.update({
            "throughput_qps": stats.round_throughput(
                [(r["units"], r["seconds"]) for r in result["rounds"]]
            )["median"],
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": stats.tail_percentile(latencies)[1],
            "cpu_ms_per_q": statistics.median(_round_cpu_ms(result)),
        })
    return values


def end_to_end(workload: str, results: dict, setups: dict) -> tuple[dict, dict]:
    """The seven end-to-end metrics of one run, plus details.

    Timed figures the reference also measured are the program's figure times
    its ratio to the reference: per launch pair for set-up, per round pair
    for throughput and CPU, over the pooled latencies for the percentiles.
    """
    program = results["program"]
    raw = figures(program, setups["program"])
    reference_raw = figures(results.get("reference"), setups["reference"])
    ratios = {"setup_s": stats.paired_ratio(setups["program"], setups["reference"])}
    if "reference" in results:
        other = results["reference"]
        ratios["throughput_qps"] = stats.paired_ratio(_round_rates(program), _round_rates(other))
        ratios["cpu_ms_per_q"] = stats.paired_ratio(_round_cpu_ms(program), _round_cpu_ms(other))
        for name in ("latency_p50_ms", "latency_tail_ms"):
            ratios[name] = raw[name] / reference_raw[name]
    nominal = reference.nominal(workload)
    metrics = {
        name: nominal[name] * ratios[name] if name in ratios else value
        for name, value in raw.items()
    }
    latencies = _latencies(program)
    percentile, _, beyond = stats.tail_percentile(latencies)
    rounds = program["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    units = {"setup_s": "s", "throughput_qps": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "cpu_ms_per_q": "ms"}
    result = {name: (value, units[name]) for name, value in metrics.items()}
    result["completed_share"] = (sum(r["ok"] for r in rounds) / attempted, "share")
    result["peak_rss_mb"] = (program["peak_rss_mb"], "MB")
    details = {
        "rounds": len(rounds),
        "round_throughput": stats.summary(_round_rates(program)),
        "latency_tail_percentile": percentile,
        "latency_samples": len(latencies),
        "latency_samples_beyond_tail": beyond,
        "raw": raw,
        "reference_raw": reference_raw,
        "ratios": ratios,
        "setup_runs": setups,
    }
    return result, details


def tracing_overhead(workload: str, plain: dict, traced: dict) -> tuple[float, dict]:
    """Share of the traced run's cost that tracing adds.

    Throughput is compared where it is bound by the program; on
    ``annotate_tenants`` the arrival schedule bounds throughput, so process
    CPU per job is compared instead.
    """
    if workload == "annotate_tenants":
        untraced = statistics.median(_round_cpu_ms(plain))
        with_tracing = statistics.median(_round_cpu_ms(traced))
        return 1.0 - untraced / with_tracing, {
            "untraced_cpu_ms_per_q": untraced, "traced_cpu_ms_per_q": with_tracing,
        }
    untraced = statistics.median(_round_rates(plain))
    with_tracing = statistics.median(_round_rates(traced))
    return 1.0 - with_tracing / untraced, {
        "untraced_qps": untraced, "traced_qps": with_tracing,
    }


def checked(results: list[dict]) -> tuple[int, int]:
    """(attempted, verified) ops over every round of ``results``."""
    rounds = [r for result in results for r in result["rounds"]]
    return sum(r["attempted"] for r in rounds), sum(r["ok"] for r in rounds)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    calibration = [stats.host_calibration_ms()]
    if not trace:
        results, setups = measure(workload, seed, seconds, deadline)
        metrics, details = end_to_end(workload, results, setups)
        if "reference" in results:
            attempted, ok = checked([results["reference"]])
            if ok != attempted:
                raise BenchmarkError(f"the reference build failed {attempted - ok} ops")
        measured = [results["program"]]
    else:
        plain = solo(workload, seed, seconds, deadline, trace=False)
        traced = solo(workload, seed, seconds, deadline, trace=True)
        layers = dict(traced["layers"])
        layers["bench.tracing_overhead_share"], details = tracing_overhead(
            workload, plain, traced
        )
        units = {metric["name"]: metric["unit"] for metric in benchmark_config()["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in layers.items()}
        measured = [plain, traced]
    calibration.append(stats.host_calibration_ms())
    if trace:
        metrics["bench.host_calibration_ms"] = (statistics.median(calibration), "ms")
    attempted, ok = checked(measured)
    report = {"workload": workload, "seed": seed, "host": host_fingerprint(),
              "calibration_ms": calibration, "details": details}
    print(json.dumps(report))
    return {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def benchmark_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def verdict(spread: float, bound: float) -> str:
    if spread <= bound / 3:
        return "ok"
    return "within" if spread <= bound else "WIDE"


def steady(names: list[str], runs: int, first_seed: int, seconds: float,
           write_nominal: bool) -> None:
    """Run each workload with ``runs`` seeds from ``first_seed``; print spreads.

    A spread is the interquartile distance over the median; it is marked
    ``ok`` within a third of the metric's bound, ``within`` inside the bound.
    With ``write_nominal`` the medians of the reference build's raw figures
    become its nominal figures in ``reference/reference.json``.
    """
    bounds = {metric["name"]: metric["bound"] for metric in benchmark_config()["end_to_end"]}
    config = reference.config()
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        reference_values: dict[str, list[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            deadline = time.perf_counter() + RUN_BUDGET_S
            results, setups = measure(workload, seed, seconds, deadline)
            for name, value in figures(results.get("reference"), setups["reference"]).items():
                reference_values.setdefault(name, []).append(value)
            if write_nominal:
                print(f"{workload} seed {seed}: reference " + " ".join(
                    f"{name}={series[-1]:.4g}" for name, series in reference_values.items()
                ), flush=True)
                continue
            metrics, details = end_to_end(workload, results, setups)
            for name, (value, _unit) in metrics.items():
                values[name].append(value)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={value:.4g}" for name, (value, _unit) in metrics.items()
            ) + " | raw " + " ".join(
                f"{name}={value:.4g}" for name, value in details["raw"].items()
            ), flush=True)
        if write_nominal:
            config["nominal"][workload] = {
                name: statistics.median(series) for name, series in reference_values.items()
            }
            reference.write_config(config)
            continue
        for name, series in values.items():
            summary = stats.summary(series)
            spread = stats.spread(series)
            print(
                f"{workload:17s} {name:16s} median {summary['median']:11.4f} "
                f"q1 {summary['q1']:11.4f} q3 {summary['q3']:11.4f} "
                f"spread {spread:6.3f} bound {bounds[name]:.3f} "
                f"({verdict(spread, bounds[name])})",
                flush=True,
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds per workload and print metric spreads")
    parser.add_argument("--write-nominal", action="store_true",
                        help="with --steady: store the reference build's medians")
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    try:
        if args.steady:
            steady(names, args.steady, args.seed, args.seconds, args.write_nominal)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, reference.ReferenceError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
