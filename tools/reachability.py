"""Reachability probe: which functions in ``src/`` do the served paths enter?

Runs three surfaces in this process under ``sys.setprofile`` (and
``threading.setprofile`` for the worker threads they start):

* every example script in ``examples/``, as ``__main__``, in a scratch
  working directory (they write their JSON artifacts there);
* the seven paper harnesses (``benchmarks/bench_table*.py``,
  ``bench_figure*.py``, ``bench_ablations.py``) under pytest with
  ``--benchmark-disable``, which makes ``benchmark.pedantic`` call its
  target once with the profiler on;
* the four perfbench workloads through ``perfbench/workloads.py``: set-up,
  warm-up and two rounds each, untimed.

It then parses every module under ``src/`` and prints each function that
was never entered, with its span, followed by totals.  Nested functions of
a never-entered function are not listed again.  "Function lines" counts
the lines of every outermost function (methods included), so a line is
never counted twice.

Run from the repository root (it re-executes itself under
``PYTHONHASHSEED=0`` so set iteration, and with it the paths taken, is
the same from run to run)::

    python tools/reachability.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
PERFBENCH = ROOT / "perfbench"
PAPER_HARNESSES = [
    "bench_table1_query_complexity.py",
    "bench_table2_data_complexity.py",
    "bench_table3_annotation_accuracy.py",
    "bench_table4_annotation_latency.py",
    "bench_figure1_execution_accuracy.py",
    "bench_figure4_backtranslation.py",
    "bench_ablations.py",
]
WORKLOAD_ROUNDS = 2
WORKLOAD_SEED = 1


class Probe:
    """Collects the code object of every Python frame entered while active."""

    def __init__(self) -> None:
        self.entered: set = set()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.entered.add(frame.f_code)

    @contextlib.contextmanager
    def active(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def entered_keys(self) -> set[tuple[str, int, str]]:
        """``(path, first line, name)`` of every entered code object."""
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in self.entered
        }


# ----------------------------------------------------------------------
# surfaces
# ----------------------------------------------------------------------


def run_examples(probe: Probe) -> list[str]:
    """Run each example as ``__main__``; returns the names that failed."""
    failed = []
    cwd = os.getcwd()
    argv = sys.argv
    for script in sorted(EXAMPLES.glob("*.py")):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            sys.argv = [str(script)]
            try:
                with contextlib.redirect_stdout(io.StringIO()), probe.active():
                    runpy.run_path(str(script), run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    failed.append(script.name)
            except Exception as exc:  # a failed surface makes the report moot
                failed.append(f"{script.name} ({type(exc).__name__}: {exc})")
            finally:
                os.chdir(cwd)
                sys.argv = argv
    return failed


def run_harnesses(probe: Probe) -> int:
    """Run the paper harnesses under pytest; returns pytest's exit code."""
    import pytest

    args = ["-q", "-p", "no:cacheprovider", "--benchmark-disable",
            "--rootdir", str(ROOT)]
    args += [str(ROOT / "benchmarks" / name) for name in PAPER_HARNESSES]
    output = io.StringIO()
    with contextlib.redirect_stdout(output), probe.active():
        exit_code = int(pytest.main(args))
    if exit_code != 0:
        sys.stderr.write(output.getvalue())
    return exit_code


def run_workloads(probe: Probe) -> list[str]:
    """Set up, warm up and run two rounds of every perfbench workload."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    failed = []
    for name, cls in sorted(workloads.WORKLOADS.items()):
        try:
            with probe.active():
                workload = cls(WORKLOAD_SEED)
                try:
                    workload.setup()
                    recorder = workloads.Recorder()
                    workload.warm_up(recorder)
                    for index in range(WORKLOAD_ROUNDS):
                        recorder.start_round()
                        workload.run_round(index, recorder)
                finally:
                    workload.close()
        except Exception as exc:
            failed.append(f"{name} ({type(exc).__name__}: {exc})")
    return failed


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------


def function_spans(path: Path):
    """``(first line, last line, qualified name, key, depth)`` of every
    function in one module, outermost first; ``first line`` includes
    decorators, as ``co_firstlineno`` does, and ``depth`` counts the
    enclosing functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    real = os.path.realpath(path)
    spans = []

    def visit(node, prefix: str, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                key = (real, first, child.name)
                spans.append((first, child.end_lineno, qualname, key, depth))
                visit(child, qualname + ".<locals>.", depth + 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", depth)
            else:
                visit(child, prefix, depth)

    visit(tree, "", 0)
    return spans


def report(entered: set[tuple[str, int, str]]) -> tuple[list[str], dict]:
    lines = []
    totals = {"functions": 0, "function_lines": 0, "unreached": 0,
              "unreached_lines": 0}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        covered_until = 0  # end of the last never-entered function listed
        for first, last, qualname, key, depth in function_spans(path):
            totals["functions"] += 1
            if depth == 0:
                totals["function_lines"] += last - first + 1
            if key in entered or first <= covered_until:
                continue
            covered_until = last
            span = last - first + 1
            totals["unreached"] += 1
            totals["unreached_lines"] += span
            lines.append(f"{relative}:{first}-{last}  {qualname}  ({span} lines)")
    return lines, totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    probe = Probe()
    failures = run_examples(probe)
    exit_code = run_harnesses(probe)
    if exit_code != 0:
        failures.append(f"paper harnesses (pytest exit code {exit_code})")
    failures += run_workloads(probe)

    lines, totals = report(probe.entered_keys())
    print("\n".join(lines))
    print(
        f"never entered: {totals['unreached']} of {totals['functions']} "
        f"functions, {totals['unreached_lines']} of {totals['function_lines']} "
        f"function lines"
    )
    if failures:
        print("surfaces that failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
