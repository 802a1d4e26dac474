"""Fan-out sizing: the pool never starts more processes than there are items
or usable CPUs, and it is imported only when a fan-out starts one."""

import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

from egolink import _parallel


def _add(payload, item):
    return payload + item


class _RecordingPool:
    """Runs tasks inline and records the requested pool size."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers, n_items, expected", [
    (64, 3, 3),
    (2, 5, 2),
    (4, 4, 4),
])
def test_pool_size_capped_by_items(workers, n_items, expected, monkeypatch):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_parallel, "_PAYLOAD", None)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    items = list(range(n_items))
    out = _parallel.map_in_order(_add, items, 100, workers=workers)
    assert out == [100 + i for i in items]
    assert _RecordingPool.sizes == [expected]


@pytest.mark.parametrize("cpus, expected", [(3, 3), (1, None)])
def test_pool_size_capped_by_cpus(cpus, expected, monkeypatch):
    # --workers 1000 over 1000 blocks must not fork 1000 processes at once;
    # one usable CPU runs the items inline
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_parallel, "_PAYLOAD", None)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    items = list(range(1000))
    assert _parallel.map_in_order(_add, items, 100, workers=1000) == [100 + i for i in items]
    assert _RecordingPool.sizes == ([] if expected is None else [expected])


def test_single_item_runs_inline(monkeypatch):
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert _parallel.map_in_order(_add, [1], 10, workers=8) == [11]
    assert _RecordingPool.sizes == []


class _RunRecordingPool(_RecordingPool):
    """Also records the items of each submitted task."""

    runs = []

    def submit(self, fn, worker, items):
        self.runs.append(list(items))
        return super().submit(fn, worker, items)


def test_contiguous_runs_in_order(monkeypatch):
    # about four runs per worker, one task each, flattened in item order
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", _RunRecordingPool)
    monkeypatch.setattr(_parallel, "_PAYLOAD", None)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RunRecordingPool, "runs", [])
    items = list(range(50))
    assert _parallel.map_in_order(_add, items, 100, workers=2) == [100 + i for i in items]
    assert len(_RunRecordingPool.runs) == 8
    assert sum(_RunRecordingPool.runs, []) == items
    assert all(6 <= len(run) <= 7 for run in _RunRecordingPool.runs)


def test_pool_imported_on_first_fan_out():
    # importing the package, CLI included, leaves the process pool unimported
    code = ("import sys, egolink.cli, egolink._parallel as p; "
            "print('concurrent.futures' in sys.modules, p.ProcessPoolExecutor)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False", "None"]
