"""The benchmark names only functions, graph arrays and flags that exist.

``pipebench/tracing.py`` wraps each function its ``SPANS`` table names
with ``getattr``, so a renamed or deleted function would crash a traced
benchmark run. Its per-item workers are matched by name. The benchmark
also reads a few ``SnapshotGraph`` arrays directly, so a refactor of the
graph must keep them, and ``pipebench/workloads.py`` passes each CLI
stage flags that its command must still take. Each counter of ``SPANS``
reads its target's real output. The smoke run covers the calls the
benchmark makes itself, through the library and the CLI.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import defaultdict

import numpy as np
import pytest

from conftest import make_series, random_snapshots
from egolink.cli import build_parser
from egolink.graph import SnapshotGraph

_PIPEBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pipebench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"pipebench_{name}", os.path.join(_PIPEBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("mod_name, attr", [(m, a) for m, a, _, _ in tracing.SPANS])
def test_span_target_exists(mod_name, attr):
    target = importlib.import_module(f"egolink.{mod_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("worker", sorted(tracing.WORKER_SPANS))
def test_worker_exists(worker):
    # a worker lives in the module its metric's layer names
    layer = tracing.WORKER_SPANS[worker].split(".")[0]
    assert callable(getattr(importlib.import_module(f"egolink.{layer}"), worker, None))


#: SnapshotGraph attributes the benchmark reads: ``workloads.recommend_egos``
#: (out_indptr, sym_degree) and the counters of ``tracing`` (out_indices,
#: in_indices, sym_indices, sym_degree)
BENCH_GRAPH_ARRAYS = ("out_indptr", "out_indices", "in_indices", "sym_indices", "sym_degree")


@pytest.mark.parametrize("directed", [False, True])
def test_graph_arrays_read_by_benchmark(directed):
    g = SnapshotGraph(4, np.array([0, 1, 2]), np.array([1, 2, 0]), directed)
    assert g.directed is directed
    for name in BENCH_GRAPH_ARRAYS:
        assert isinstance(getattr(g, name), np.ndarray), name
    assert callable(g.successors)


@pytest.mark.parametrize("size", ["smoke", "full"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_stage_argv_parses(name, size, tmp_path):
    parser = build_parser()
    for stage, argv in workloads.plan(name, 0, size, str(tmp_path)).stage_argv.items():
        assert parser.parse_args(argv).command == stage


def _counted_calls():
    """Arguments, on small fixtures, for each span target that has a counter."""
    series = make_series(random_snapshots(5, 30, 0.15, False, 3), 30)
    g = series[-1]
    u = int(np.argmax(g.sym_degree))
    return {
        ("graph", "parse_edge_lines"): ((["a b 1", "b c 2"],), {}),
        ("graph", "SnapshotGraph.__init__"): (
            (SnapshotGraph.__new__(SnapshotGraph), 3, np.array([0, 1]), np.array([1, 2]), True),
            {}),
        ("ego", "two_hop_candidates"): ((g, u), {}),
        ("ego", "personalized_degrees"): ((g, u, g.successors(u), "undirected"), {}),
        ("_kernels", "accumulate_common_terms"): (
            (np.array([0]), np.array([0]), np.ones((1, 1)), 1), {}),
        ("_kernels", "intersect_values"): ((np.array([1, 2]), np.array([2, 3])), {}),
        ("scorers", "score_candidates"): ((g, u), {}),
        ("empirical", "ego_snapshot_stats"): ((series, 0, u), {}),
        ("evaluation", "evaluate_methods"): ((series,), {"ks": (1,)}),
        ("degree_dist", "personalized_degree_samples"): ((g,), {}),
    }


_COUNTED = [(m, a, c) for m, a, _, c in tracing.SPANS if c is not None]


@pytest.mark.parametrize("mod_name, attr, count", _COUNTED,
                         ids=[f"{m}.{a}" for m, a, _ in _COUNTED])
def test_counter_reads_real_output(mod_name, attr, count):
    # a counter reads its target's arguments and result by key and field,
    # so a renamed result key would break a traced run without this
    args, kwargs = _counted_calls()[mod_name, attr]
    target = importlib.import_module(f"egolink.{mod_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    counts = defaultdict(int)
    count(counts, args, kwargs, target(*args, **kwargs))
    assert set(counts) <= set(tracing.COUNT_METRICS)
    assert sum(counts.values()) > 0


def test_smoke_run_is_correct():
    # every stage at toy sizes, checked against the benchmark's own references
    root = os.path.dirname(_PIPEBENCH)
    run = subprocess.run([sys.executable, os.path.join("pipebench", "run.py"), "--smoke"],
                         cwd=root, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout.splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, run.stderr
