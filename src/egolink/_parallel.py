"""Deterministic fan-out over blocks of egos (``ego._cell_blocks``).

Workers receive one shared read-only payload via the pool initializer,
not once per task: under the ``fork`` start method (the default on Linux
before Python 3.14) a worker inherits it and nothing is pickled, and
under ``spawn`` or ``forkserver`` it is pickled once per worker. Each
task is a contiguous run of items, and results come back in submission
order, so reductions are independent of worker count and completion
timing. The process pool is imported on the first fan-out, so a run
that never fans out does not pay for the import."""

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
