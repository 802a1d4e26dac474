"""Fan-out sizing: the thread pool never asks for more threads than there
are items or usable CPUs, runs contiguous runs of items in item order,
starts no process, and is imported only when a fan-out starts one."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from egolink import _parallel
from egolink import ego as ego_module
from egolink import empirical, evaluation
from egolink.generators import GeneratorSpec, generate
from egolink.graph import SnapshotGraph, build_snapshots


def _add(payload, item):
    return payload + item


class _RecordingPool(ThreadPoolExecutor):
    """A real thread pool that records its size and each task's items."""

    sizes = []
    runs = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers)

    def submit(self, fn, run):
        self.runs.append(list(run))
        return super().submit(fn, run)


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "runs", [])
    return _RecordingPool


@pytest.mark.parametrize("workers, n_items, expected", [
    (64, 3, 3),
    (2, 5, 2),
    (4, 4, 4),
])
def test_pool_size_capped_by_items(workers, n_items, expected, monkeypatch, pool):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 64)
    items = list(range(n_items))
    out = _parallel.map_in_order(_add, items, 100, workers=workers)
    assert out == [100 + i for i in items]
    assert pool.sizes == [expected]


@pytest.mark.parametrize("cpus, expected", [(3, 3), (1, None)])
def test_pool_size_capped_by_cpus(cpus, expected, monkeypatch, pool):
    # --workers 1000 over 1000 blocks must not ask for 1000 threads at once;
    # one usable CPU runs the items inline, in the calling thread
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: cpus)
    items = list(range(1000))
    threads = set()

    def add(payload, item):
        threads.add(threading.get_ident())
        return payload + item

    assert _parallel.map_in_order(add, items, 100, workers=1000) == [100 + i for i in items]
    assert pool.sizes == ([] if expected is None else [expected])
    if expected is None:
        assert threads == {threading.get_ident()}


def test_single_item_runs_inline(pool):
    threads = []

    def add(payload, item):
        threads.append(threading.get_ident())
        return payload + item

    assert _parallel.map_in_order(add, [1], 10, workers=8) == [11]
    assert pool.sizes == []
    assert threads == [threading.get_ident()]


def test_contiguous_runs_in_order(monkeypatch, pool):
    # about four runs per worker, one task each, flattened in item order
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    items = list(range(50))
    assert _parallel.map_in_order(_add, items, 100, workers=2) == [100 + i for i in items]
    assert len(pool.runs) == 8
    assert sum(pool.runs, []) == items
    assert all(6 <= len(run) <= 7 for run in pool.runs)


def test_worker_exception_surfaces(monkeypatch):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)

    def fail_on_seven(payload, item):
        if item == 7:
            raise ValueError(f"item {item}")
        return item

    with pytest.raises(ValueError, match="item 7"):
        _parallel.map_in_order(fail_on_seven, range(20), None, workers=2)


def _planted_series():
    spec = GeneratorSpec(kind="planted-scorer", n_nodes=200, edge_prob=0.03, method="pd-cn",
                         n_snapshots=4, seed=3)
    return build_snapshots(generate(spec), preassigned=True)


def test_no_process_starts(monkeypatch):
    # both analyses fan out on two workers with fork unavailable
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ego_module, "_CHUNK", 64)
    series = _planted_series()
    one = (evaluation.evaluate_methods(series, ks=(1, 3), workers=1),
           empirical.aggregate_empirical(series, workers=1))

    def no_fork():
        raise AssertionError("a fan-out started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    two = (evaluation.evaluate_methods(series, ks=(1, 3), workers=2),
           empirical.aggregate_empirical(series, workers=2))
    assert two == one


@pytest.mark.parametrize("analysis", ["evaluate", "evaluate-every-cell", "empirical"])
def test_graphs_built_before_workers(analysis, monkeypatch):
    # the workers share the series: every graph of it is built in the
    # calling thread before any block runs, so no worker writes to it
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ego_module, "_CHUNK", 64)
    events = []
    set_entries = SnapshotGraph._set_entries

    def recording_set_entries(self, *args):
        events.append(("build", threading.get_ident()))
        set_entries(self, *args)

    module, name = ((empirical, "_ego_worker") if analysis == "empirical"
                    else (evaluation, "_cell_worker"))
    worker = getattr(module, name)

    def recording_worker(payload, item):
        events.append(("block", threading.get_ident()))
        return worker(payload, item)

    series = _planted_series()
    monkeypatch.setattr(SnapshotGraph, "_set_entries", recording_set_entries)
    monkeypatch.setattr(module, name, recording_worker)
    if analysis == "empirical":
        empirical.aggregate_empirical(series, workers=2)
    else:
        evaluation.evaluate_methods(series, ks=(1, 3), workers=2,
                                    require_formation=analysis == "evaluate")
    kinds = [kind for kind, _ in events]
    assert kinds.count("build") == len(set(map(id, series.graphs)))
    assert kinds == sorted(kinds, key=lambda kind: kind == "block")
    caller = threading.get_ident()
    assert {thread for kind, thread in events if kind == "build"} == {caller}
    assert {thread for kind, thread in events if kind == "block"} - {caller}


def test_pool_imported_on_first_fan_out():
    # importing the package, CLI included, leaves the thread pool unimported
    code = ("import sys, egolink.cli, egolink._parallel as p; "
            "print('concurrent.futures' in sys.modules, p.ThreadPoolExecutor)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False", "None"]
