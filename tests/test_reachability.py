"""Tests for the reachability probe (``tools/reachability.py``): the spans it
parses, the frames it records and the report it prints.  The served surfaces
themselves are not run here; a small module under a scratch ``src/`` stands
in for the package."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
import threading
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"

MODULE = textwrap.dedent(
    '''\
    import functools


    def entered():
        def inner_entered():
            return 1

        def inner_skipped():
            return 2

        return inner_entered()


    def skipped():
        def never():
            return 3

        return never()


    @functools.lru_cache(maxsize=None)
    def decorated():
        return 4


    class Box:
        def used(self):
            return 5

        def unused(self):
            return 6


    async def coroutine():
        return 7
    '''
)


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def reachability():
    return load(TOOL, "reachability_under_test")


@pytest.fixture()
def sample(tmp_path):
    path = tmp_path / "src" / "pkg" / "sample.py"
    path.parent.mkdir(parents=True)
    path.write_text(MODULE, encoding="utf-8")
    return path, load(path, "reachability_sample")


def test_function_spans_name_nest_and_measure_every_function(reachability, sample):
    path, module = sample
    spans = {qualname: (first, last, depth)
             for first, last, qualname, _, depth in reachability.function_spans(path)}
    assert set(spans) == {
        "entered", "entered.<locals>.inner_entered", "entered.<locals>.inner_skipped",
        "skipped", "skipped.<locals>.never", "decorated", "Box.used", "Box.unused",
        "coroutine",
    }
    assert spans["entered"] == (4, 11, 0)
    assert spans["entered.<locals>.inner_skipped"] == (8, 9, 1)
    assert spans["Box.unused"][2] == 0  # methods are outermost functions
    # A decorated function starts at its decorator, as ``co_firstlineno`` does.
    assert spans["decorated"][0] == module.decorated.__wrapped__.__code__.co_firstlineno == 21


def test_probe_keys_match_the_parsed_spans(reachability, sample):
    path, module = sample
    probe = reachability.Probe()
    with probe.active():
        module.entered()
        module.decorated.__wrapped__()
        module.Box().used()
    keys = {key: qualname for _, _, qualname, key, _ in reachability.function_spans(path)}
    entered = {keys[key] for key in probe.entered_keys() if key in keys}
    assert entered == {
        "entered", "entered.<locals>.inner_entered", "decorated", "Box.used",
    }


def test_probe_sees_worker_threads_and_detaches_on_error(reachability, sample):
    _, module = sample
    probe = reachability.Probe()
    with pytest.raises(RuntimeError):
        with probe.active():
            worker = threading.Thread(target=module.skipped)
            worker.start()
            worker.join()
            raise RuntimeError("surface failed")
    assert module.skipped.__code__ in probe.entered
    assert sys.getprofile() is None
    before = set(probe.entered)
    module.Box().unused()
    assert probe.entered == before  # nothing is recorded once inactive


def test_report_lists_each_unreached_function_once(reachability, sample, monkeypatch):
    path, module = sample
    monkeypatch.setattr(reachability, "ROOT", path.parents[2])
    monkeypatch.setattr(reachability, "SRC", path.parents[2] / "src")
    probe = reachability.Probe()
    with probe.active():
        module.entered()
        module.Box().used()
    lines, totals = reachability.report(probe.entered_keys())
    assert lines == [
        "src/pkg/sample.py:8-9  entered.<locals>.inner_skipped  (2 lines)",
        "src/pkg/sample.py:14-18  skipped  (5 lines)",
        "src/pkg/sample.py:21-23  decorated  (3 lines)",
        "src/pkg/sample.py:30-31  Box.unused  (2 lines)",
        "src/pkg/sample.py:34-35  coroutine  (2 lines)",
    ]
    # ``skipped.<locals>.never`` lies inside ``skipped`` and is not listed again.
    assert totals == {"functions": 9, "function_lines": 8 + 5 + 3 + 2 + 2 + 2,
                      "unreached": 5, "unreached_lines": 2 + 5 + 3 + 2 + 2}
