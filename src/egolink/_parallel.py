"""Deterministic fan-out over egos (``empirical``) or blocks of egos
(``evaluate``).

Workers receive one shared read-only payload via the pool initializer
(pickled once per worker, not once per task), each task is a contiguous
run of items, and results come back in submission order, so reductions
are independent of worker count and completion timing."""

from concurrent.futures import ProcessPoolExecutor

_PAYLOAD = None


def _set_payload(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def _invoke(worker, items):
    return [worker(_PAYLOAD, item) for item in items]


def map_in_order(worker, items, payload, workers=1):
    """``[worker(payload, item) for item in items]``, optionally across
    processes. ``worker`` must be a module-level function."""
    items = list(items)
    if workers is None or int(workers) <= 1 or len(items) <= 1:
        return [worker(payload, item) for item in items]
    workers = min(int(workers), len(items))
    # about four contiguous runs of items per process, one task each
    n_runs = min(4 * workers, len(items))
    cuts = [len(items) * i // n_runs for i in range(n_runs + 1)]
    # a fork pool starts all its processes at once, each unpickling the payload
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_payload, initargs=(payload,),
    ) as pool:
        futures = [pool.submit(_invoke, worker, items[a:b]) for a, b in zip(cuts, cuts[1:])]
        return [result for f in futures for result in f.result()]
