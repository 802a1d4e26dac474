"""The benchmark names only functions, graph arrays and flags that exist.

``pipebench/tracing.py`` wraps each function its ``SPANS`` table names
with ``getattr``, so a renamed or deleted function would crash a traced
benchmark run. Its per-item workers are matched by name. The benchmark
also reads a few ``SnapshotGraph`` arrays directly, so a refactor of the
graph must keep them, and ``pipebench/workloads.py`` passes each CLI
stage flags that its command must still take.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

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
