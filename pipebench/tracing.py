"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each ``egolink`` module
in place. A function that another module imported by name is replaced
there too: every module attribute that is the original function object
gets the wrapper. Each wrapper records a span; a layer's time is the
self time of its spans (duration minus the traced spans inside it), and
counters are read from the call's arguments and result. The cost of
reading a counter is charged to no layer.

Process fan-out is traced through ``map_in_order``: each work item runs
under a span in the worker, which sends its span totals back with the
result, and they are added to the parent's. With more than one worker,
``parallel.map_s`` is the fan-out's wall time in the parent, waiting
included, while the workers' layer times add up across processes.
"""

import functools
import os
import sys
import time
from collections import defaultdict

#: the tracer of this process; forked pool workers inherit it
_ACTIVE = None


def _edges_parsed(counts, args, kwargs, out):
    counts["graph.edges_parsed"] += len(out[0])


def _csr_entries(counts, args, kwargs, out):
    g = args[0]
    counts["graph.csr_entries"] += g.sym_indices.size + (
        g.out_indices.size + g.in_indices.size if g.directed else 0)


def _candidates(counts, args, kwargs, out):
    graph, u = args[0], int(args[1])
    counts["ego.candidates"] += out.size
    counts["ego.wedges"] += int(graph.sym_degree[graph.successors(u)].sum())


def _pd_targets(counts, args, kwargs, out):
    counts["ego.pd_targets"] += out.size


def _cells(counts, args, kwargs, out):
    counts["empirical.cells_attempted"] += len(out)
    counts["empirical.cells_usable"] += sum(1 for cell in out.values() if cell is not None)


def _calls(metric):
    def count(counts, args, kwargs, out):
        counts[metric] += 1
    return count


def _eval_cells(counts, args, kwargs, out):
    counts["evaluation.cells"] += out.metadata["n_cells"]


def _samples(counts, args, kwargs, out):
    counts["degree_dist.samples"] += out.n_samples


#: (module, function, layer metric, counter) for every traced function
SPANS = (
    ("cli", "main", "cli.self_s", None),
    ("generators", "generate", "generators.generate_s", None),
    ("graph", "ingest_edges", "graph.parse_s", None),
    ("graph", "parse_edge_lines", "graph.parse_s", _edges_parsed),
    ("graph", "normalize_edges", "graph.normalize_s", None),
    ("graph", "write_normalized_csv", "graph.write_s", None),
    ("graph", "write_label_map_csv", "graph.write_s", None),
    ("graph", "build_snapshots", "graph.csr_s", None),
    ("graph", "SnapshotGraph.__init__", "graph.csr_s", _csr_entries),
    ("ego", "ego_view", "ego.candidates_s", None),
    ("ego", "two_hop_candidates", "ego.candidates_s", _candidates),
    ("ego", "personalized_degrees", "ego.pd_s", _pd_targets),
    ("_kernels", "row_intersect_sizes", "kernels.row_intersect_s", None),
    ("_kernels", "accumulate_common_terms", "kernels.accumulate_s",
     _calls("kernels.accumulate_calls")),
    ("_kernels", "intersect_values", "kernels.intersect_s", _calls("kernels.intersect_calls")),
    ("scorers", "score_candidates", "scorers.score_s", _calls("scorers.score_calls")),
    ("empirical", "aggregate_empirical", "empirical.aggregate_s", None),
    ("empirical", "ego_snapshot_stats", "empirical.cell_s", _cells),
    ("evaluation", "evaluate_methods", "evaluation.aggregate_s", _eval_cells),
    ("evaluation", "rank_candidates", "evaluation.rank_s", None),
    ("evaluation", "precision_at_k", "evaluation.precision_s", None),
    ("degree_dist", "personalized_degree_samples", "degree_dist.samples_s", _samples),
    ("degree_dist", "log_binned_histogram", "degree_dist.histogram_s", None),
    ("_util", "write_table", "util.write_s", None),
)

#: per-item worker functions of the fan-out, traced as the layer they serve
WORKER_SPANS = {
    "_ego_worker": "empirical.cell_s",
    "_cell_worker": "evaluation.cell_s",
}

TIME_METRICS = tuple(sorted({m for _, _, m, _ in SPANS}
                            | set(WORKER_SPANS.values()) | {"parallel.map_s"}))
COUNT_METRICS = (
    "graph.edges_parsed", "graph.csr_entries", "ego.candidates", "ego.wedges",
    "ego.pd_targets", "kernels.accumulate_calls", "kernels.intersect_calls",
    "empirical.cells_attempted", "empirical.cells_usable", "scorers.score_calls",
    "evaluation.cells", "degree_dist.samples", "parallel.items",
)


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.reset()

    def reset(self):
        self.enabled = True
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def run(self, metric, fn, args, kwargs, count=None):
        """Call ``fn`` under a span charged to ``metric``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - start
            self._stack.pop()
            self.seconds[metric] += span - frame[0]
        if count is not None:
            count(self.counts, args, kwargs, out)
        if self._stack:
            # the parent's self time excludes this span and its counter
            self._stack[-1][0] += time.perf_counter() - start
        return out

    def wrap(self, metric, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(metric, fn, args, kwargs, count)
        return traced

    def merge(self, seconds, counts):
        for k, v in seconds.items():
            self.seconds[k] += v
        for k, v in counts.items():
            self.counts[k] += v

    def install(self):
        """Wrap every function of ``SPANS`` wherever egolink refers to it."""
        global _ACTIVE
        import egolink.cli  # noqa: F401  (loads every submodule)

        _ACTIVE = self
        modules = [m for name, m in sys.modules.items()
                   if name == "egolink" or name.startswith("egolink.")]
        for mod_name, attr, metric, count in SPANS:
            module = sys.modules[f"egolink.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(metric, getattr(cls, meth), count))
                continue
            _replace(modules, getattr(module, attr), self.wrap(metric, getattr(module, attr), count))
        parallel = sys.modules["egolink._parallel"]
        _replace(modules, parallel.map_in_order,
                 functools.partial(_traced_map, self, parallel.map_in_order))

    def layer_metrics(self, per):
        """Every layer metric, divided by ``per`` (the number of rounds)."""
        out = {m: self.seconds.get(m, 0.0) / per for m in TIME_METRICS}
        out.update({m: self.counts.get(m, 0) / per for m in COUNT_METRICS})
        tried = self.counts.get("empirical.cells_attempted", 0)
        out["empirical.usable_ratio"] = (
            self.counts.get("empirical.cells_usable", 0) / tried if tried else 0.0)
        return out


def _replace(modules, original, replacement):
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def _traced_map(tracer, original, worker, items, payload, workers=1):
    items = list(items)
    tracer.counts["parallel.items"] += len(items)
    metric = WORKER_SPANS.get(worker.__name__, "parallel.map_s")
    results = tracer.run("parallel.map_s", original,
                         (functools.partial(_traced_item, metric, worker), items, payload),
                         {"workers": workers})
    if results and isinstance(results[0], _Shipped):
        for shipped in results:
            tracer.merge(shipped.seconds, shipped.counts)
        results = [shipped.result for shipped in results]
    return results


class _Shipped:
    """A worker's result plus the span totals recorded while making it."""

    def __init__(self, result, seconds, counts):
        self.result = result
        self.seconds = dict(seconds)
        self.counts = dict(counts)


def _traced_item(metric, worker, payload, item):
    tracer = _ACTIVE
    if os.getpid() == tracer.pid:
        return tracer.run(metric, worker, (payload, item), {})
    tracer.reset()
    result = tracer.run(metric, worker, (payload, item), {})
    return _Shipped(result, tracer.seconds, tracer.counts)
