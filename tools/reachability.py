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

``--lines MODULE...`` also traces lines (``sys.settrace``, only in frames
of the named ``src/`` modules) and lists, per entered function of those
modules, each run of its executable lines that never ran: a dead branch
inside a function the served paths do enter.  A line is executable when
the compiled function (its comprehensions, lambdas and nested classes
included, its nested functions not) holds an instruction on it.

Run from the repository root (it re-executes itself under
``PYTHONHASHSEED=0`` so set iteration, and with it the paths taken, is
the same from run to run)::

    python tools/reachability.py
    python tools/reachability.py --lines repro/core/pipeline.py
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
import types
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
    """Collects the code object of every Python frame entered while active,
    and the lines run in frames of the ``line_files`` (resolved paths)."""

    def __init__(self, line_files: tuple[str, ...] = ()) -> None:
        self.entered: set = set()
        #: Resolved path of each traced file -> the line numbers run in it.
        self.executed: dict[str, set[int]] = {path: set() for path in line_files}
        # ``co_filename`` -> local trace function (None: not traced).
        self._local_tracers: dict = {}

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.entered.add(frame.f_code)

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return self._local_tracers[filename]
        except KeyError:
            lines = self.executed.get(os.path.realpath(filename))
            local = None if lines is None else _line_tracer(lines)
            self._local_tracers[filename] = local
            return local

    @contextlib.contextmanager
    def active(self):
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        if self.executed:
            threading.settrace(self._trace)
            sys.settrace(self._trace)
        try:
            yield
        finally:
            if self.executed:
                sys.settrace(None)
                threading.settrace(None)
            sys.setprofile(None)
            threading.setprofile(None)

    def entered_keys(self) -> set[tuple[str, int, str]]:
        """``(path, first line, name)`` of every entered code object."""
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
            for code in self.entered
        }


def _line_tracer(lines: set[int]):
    """A local trace function adding each line it sees run to ``lines``."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


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


def executable_lines(path: Path, function_keys: set) -> dict:
    """Function key -> the lines its compiled code holds instructions on.

    A function's comprehensions, lambdas and nested classes count as its
    own code; its nested functions (those in ``function_keys``) do not.
    """
    real = os.path.realpath(path)
    found = {}

    def own_lines(code) -> set[int]:
        lines = {line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                key = (real, const.co_firstlineno, const.co_name)
                if key in function_keys:
                    found[key] = own_lines(const)
                else:
                    lines |= own_lines(const)
        return lines

    own_lines(compile(path.read_text(encoding="utf-8"), real, "exec"))
    return found


def line_report(
    path: Path, entered: set[tuple[str, int, str]], executed: set[int]
) -> tuple[list[str], int]:
    """Runs of never-run executable lines inside the entered functions of
    one module, and how many lines they hold.  A run spans the executable
    lines of one function between two that ran; a function's first line
    (a decorator or its ``def``) runs when it is entered."""
    relative = path.relative_to(ROOT).as_posix()
    names = {key: qualname for _, _, qualname, key, _ in function_spans(path)}
    lines, missed_total = [], 0
    for key, code_lines in sorted(executable_lines(path, set(names)).items(),
                                  key=lambda item: item[0][1]):
        if key not in entered:
            continue
        run: list[int] = []
        for line in sorted(code_lines) + [None]:
            if line is not None and line != key[1] and line not in executed:
                run.append(line)
                continue
            if run:
                missed_total += len(run)
                lines.append(f"{relative}:{run[0]}-{run[-1]}  {names[key]}  "
                             f"({len(run)} lines never run)")
                run = []
    return lines, missed_total


def module_path(name: str) -> Path:
    """A ``src/`` module named by its path from the repo root or ``src/``."""
    for base in (ROOT, SRC):
        path = (base / name).resolve()
        if path.is_file() and path.suffix == ".py" and SRC in path.parents:
            return path
    raise SystemExit(f"--lines: {name} is not a module under src/")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--lines", nargs="+", default=[], metavar="MODULE",
        help="also list never-run lines inside entered functions of these "
             "src/ modules (e.g. repro/core/pipeline.py)",
    )
    args = parser.parse_args()
    line_modules = [module_path(name) for name in args.lines]
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    probe = Probe(tuple(str(path) for path in line_modules))
    failures = run_examples(probe)
    exit_code = run_harnesses(probe)
    if exit_code != 0:
        failures.append(f"paper harnesses (pytest exit code {exit_code})")
    failures += run_workloads(probe)

    entered = probe.entered_keys()
    lines, totals = report(entered)
    print("\n".join(lines))
    print(
        f"never entered: {totals['unreached']} of {totals['functions']} "
        f"functions, {totals['unreached_lines']} of {totals['function_lines']} "
        f"function lines"
    )
    for path in line_modules:
        missed, count = line_report(path, entered, probe.executed[str(path)])
        if missed:
            print("\n".join(missed))
        print(f"never run in entered functions of "
              f"{path.relative_to(ROOT).as_posix()}: {count} lines")
    if failures:
        print("surfaces that failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
