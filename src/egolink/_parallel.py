"""Deterministic fan-out over blocks of egos (``ego._cell_blocks``).

Each task is a contiguous run of items on a thread pool that shares the
read-only payload, whose graphs are all built before the fan-out, and
results come back in submission order, so reductions are independent of
worker count and completion timing. The pool is imported on the first
fan-out, so a run that never fans out does not pay for the import.

The fan-out ran on processes until blocks grew to the graph's size
(``ego._block_runs``). Measured against that, on 2 vCPUs, Python 3.11.7,
NumPy 2.4.6 (``BENCH_45_thread_blocks.json``):

- ``pipebench/run.py --workload planted-undirected --seconds 10``, 10
  pairs: ``peak_rss_mb`` 95.1-95.8 -> 64.5-66.8 MB, lower in 10/10, as a
  forked child's peak adds to its parent's and a thread has none;
  ``evaluate_s`` median 105.2 -> 102.4 ms.
- The c11-shaped input (828,412 links over 63,731 nodes, 90-day
  windows, 5000 egos, every method), 8 fresh processes each, at
  ``workers=2``: ``evaluate_methods`` 0.89-1.44 (median 1.05) -> 0.76-0.94
  (0.85) s, ``aggregate_empirical`` 0.62-0.81 (0.72) -> 0.50-0.68 (0.58)
  s. Threads on the old one-ego blocks took 2.05-2.08 s in
  ``evaluate_methods``: such a block spends most of its time in Python,
  which holds the interpreter lock, a graph-sized one in NumPy."""

import os

#: ``concurrent.futures.ThreadPoolExecutor``, imported by the first fan-out
ThreadPoolExecutor = None


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def map_in_order(worker, items, payload, workers=1):
    """``[worker(payload, item) for item in items]``, optionally across
    threads; a worker's exception is raised here."""
    global ThreadPoolExecutor
    items = list(items)
    workers = min(workers, len(items), _usable_cpus())
    if workers <= 1:
        return [worker(payload, item) for item in items]
    if ThreadPoolExecutor is None:
        from concurrent.futures import ThreadPoolExecutor
    # about four contiguous runs of items per thread, one task each
    n_runs = min(4 * workers, len(items))
    cuts = [len(items) * i // n_runs for i in range(n_runs + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(lambda run: [worker(payload, item) for item in run], items[a:b])
                   for a, b in zip(cuts, cuts[1:])]
        return [result for f in futures for result in f.result()]
