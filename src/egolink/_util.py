"""Small shared helpers: float formatting, the whole-number rule of ids,
counts and seeds (``count``, ``seeded_rng``: in range or a ConfigError
naming the key, never cut down by ``int``), the group-mean and ego pooling
rules of cell arrays, and the CSV/JSON table writers every output goes through."""

import json
import math

import numpy as np

from .errors import ConfigError

#: the range of an int64, as Python ints: times, ids and counts are int64
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def fmt_float(x):
    """Shortest round-trip decimal form; NaN spelled ``nan``."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def whole_number(x):
    """An int, a NumPy integer or a float with no fraction; not a bool."""
    if isinstance(x, (int, np.integer)):
        return not isinstance(x, bool)
    return isinstance(x, (float, np.floating)) and x.is_integer()


def count(key, value, least, most=INT64_MAX):
    """``value`` as an int from ``least`` to ``most``; a ConfigError names
    ``key`` when it is not a whole number or out of that range."""
    if not whole_number(value):
        raise ConfigError(f"{key}: must be a whole number, got {value!r}")
    if not least <= value <= most:
        bound = f">= {least}" if value < least and most >= INT64_MAX else f"in {least}..{most}"
        raise ConfigError(f"{key}: must be {bound}, got {value}")
    return int(value)


def seeded_rng(seed):
    """NumPy's generator of ``seed``, a count from 0 with no bound above, as
    NumPy seeds from a whole number of any size; a ConfigError names ``seed``."""
    return np.random.default_rng(count("seed", seed, 0, math.inf))


def group_means(group, values):
    """Per column, the mean of each group's rows of the float (rows x
    columns) matrix ``values``, row ``i`` being in group ``group[i]``:
    ``(means, sizes)``, one row of means and one size per group, in
    ascending group order. Each group's rows average in the order given,
    and each mean is bit-identical to one ``np.mean`` of that group's
    column.

    One ``np.add.reduceat`` sums every group over a (columns, rows) gather
    whose runs each open with a 0.0, so that each sum is ``np.mean``'s: it
    sums pairwise (Higham, SIAM J. Sci. Comput. 1993) from 0.0, and
    ``reduceat`` adds the pairwise sum of a run's rest to its first element.
    """
    order = np.argsort(group, kind="stable")
    ids = group.take(order)
    start = (np.diff(ids, prepend=~ids[:1]) != 0).nonzero()[0]
    size = np.diff(start, append=ids.size)
    padded = np.zeros((values.shape[1], ids.size + 1))  # the last column is the 0.0
    padded[:, :-1] = values.T
    runs = padded.take(np.insert(order, start, ids.size), axis=1)
    return (np.add.reduceat(runs, start + np.arange(start.size), axis=1) / size).T, size


def pool_egos(ego, values):
    """Pool cell values across egos: one ``(mean, stderr, n_egos)`` per column.

    Row ``i`` of the float (cells x columns) matrix ``values`` is a usable
    cell of ego ``ego[i]``. Each ego's rows are in transition order; rows
    of different egos may interleave, as a transition-major fan-out emits
    them. Each ego's cells average first (``group_means``), so an ego
    weighs the same however many cells it has. Per column, along a row of a
    C-contiguous (columns, egos) array, the per-ego means average in ascending
    ego order, and ``std(ddof=1) / sqrt(n_egos)`` (0.0 for one ego) is the
    standard error. Callers pass only the egos that have the column.
    """
    means = np.ascontiguousarray(group_means(ego, values)[0].T)
    n = means.shape[1]
    stderr = means.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(means))
    return list(zip(means.mean(axis=1).tolist(), stderr.tolist(), [n] * len(means)))


def csv_field(text):
    """``text`` as one RFC 4180 CSV field: quoted, with inner quotes
    doubled, only when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(path, header, rows, metadata=None):
    """Write a table; ``metadata`` becomes one leading ``#`` line."""
    with open(path, "w", encoding="utf-8") as fh:
        if metadata:
            pairs = " ".join(f"{k}={_csv_cell(v)}" for k, v in metadata.items())
            fh.write(f"# {pairs}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(csv_field(_csv_cell(v)) for v in row) + "\n")


def _json_cell(v):
    if isinstance(v, float) and math.isnan(v):
        return None
    if isinstance(v, np.floating):
        f = float(v)
        return None if math.isnan(f) else f
    if isinstance(v, np.integer):
        return int(v)
    return v


def write_json(path, header, rows, metadata=None):
    doc = {
        "columns": list(header),
        "rows": [[_json_cell(v) for v in row] for row in rows],
    }
    if metadata:
        doc["metadata"] = {k: _json_cell(v) for k, v in metadata.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_table(path_base, fmt, header, rows, metadata=None):
    """Write ``<path_base>.csv`` or ``.json`` per ``fmt``; returns the path."""
    if fmt == "json":
        path = f"{path_base}.json"
        write_json(path, header, rows, metadata)
    else:
        path = f"{path_base}.csv"
        write_csv(path, header, rows, metadata)
    return path
