"""Deterministic fan-out over egos.

Workers receive one shared read-only payload via the pool initializer
(pickled once per worker, not once per task) and results come back in
submission order, so reductions are independent of worker count and
completion timing.
"""

from concurrent.futures import ProcessPoolExecutor

_PAYLOAD = None


def _set_payload(payload):
    global _PAYLOAD
    _PAYLOAD = payload


def _invoke(worker, item):
    return worker(_PAYLOAD, item)


def map_in_order(worker, items, payload, workers=1):
    """``[worker(payload, item) for item in items]``, optionally across
    processes. ``worker`` must be a module-level function."""
    items = list(items)
    if workers is None or int(workers) <= 1 or len(items) <= 1:
        return [worker(payload, item) for item in items]
    # a fork pool starts all its processes at once, each unpickling the payload
    with ProcessPoolExecutor(
        max_workers=min(int(workers), len(items)), initializer=_set_payload,
        initargs=(payload,),
    ) as pool:
        futures = [pool.submit(_invoke, worker, item) for item in items]
        return [f.result() for f in futures]
