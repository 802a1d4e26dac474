"""Deterministic fan-out over blocks of egos (``ego._cell_blocks``).

Workers receive one shared read-only payload via the pool initializer,
not once per task: under the ``fork`` start method (the default on Linux
before Python 3.14) a worker inherits it and nothing is pickled, and
under ``spawn`` or ``forkserver`` it is pickled once per worker. Each
task is a contiguous run of items, and results come back in submission
order, so reductions are independent of worker count and completion
timing. The process pool is imported on the first fan-out, so a run
that never fans out does not pay for the import.

The fan-out stays on processes, measured against a thread pool (the
same ``map_in_order`` with ``ThreadPoolExecutor``) on 2 vCPUs, Python
3.11.7, NumPy 2.4.6:

- ``pipebench/run.py --workload planted-undirected --seconds 10``, 6
  alternating pairs: threads read ``evaluate_s`` 79.8 -> 61.4 ms (lower
  in 6/6) and ``peak_rss_mb`` 97.2 -> 62.7 MB. In one process that had
  already run the command, 20 rotating rounds of ``evaluate``: threads
  63.0 ms, processes 73.5 ms and in-process 75.6 ms (medians); processes
  beat in-process in 14 of 20.
- The c11-shaped input (828,412 links over 63,731 nodes, 90-day
  windows, 5000 egos, every method; one ego per block) reads the other
  way, ``evaluate_methods`` in seconds over 3 fresh processes each:
  processes 1.29-1.40, in-process 1.73-1.80, threads 2.25-2.73. A block
  this small spends much of its time in Python, which holds the
  interpreter lock, so the two threads mostly take turns.

Threads would win the small benchmark input and lose at the paper's
scale, where the fan-out is needed, and no observed property of the
input has been shown to pick between them. A fan-out without worker
processes once read ``evaluate_s`` 66.8 -> 55.5 ms and ``peak_rss_mb``
97.3 -> 60.7 MB on ``planted-undirected``, and its ``evaluate_s`` gain
still did not pass the benchmark's alternating-pair rule."""

import os

#: ``concurrent.futures.ProcessPoolExecutor``, imported by the first fan-out
ProcessPoolExecutor = None

_PAYLOAD = None


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _set_payload(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def _invoke(worker, items):
    return [worker(_PAYLOAD, item) for item in items]


def map_in_order(worker, items, payload, workers=1):
    """``[worker(payload, item) for item in items]``, optionally across
    processes. ``worker`` must be a module-level function."""
    global ProcessPoolExecutor
    items = list(items)
    workers = min(workers, len(items), _usable_cpus())
    if workers <= 1:
        return [worker(payload, item) for item in items]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    # about four contiguous runs of items per process, one task each
    n_runs = min(4 * workers, len(items))
    cuts = [len(items) * i // n_runs for i in range(n_runs + 1)]
    # the pool starts all its processes at once, each holding the payload:
    # inherited under fork, unpickled once under spawn or forkserver
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_payload, initargs=(payload,),
    ) as pool:
        futures = [pool.submit(_invoke, worker, items[a:b]) for a, b in zip(cuts, cuts[1:])]
        return [result for f in futures for result in f.result()]
