"""Small shared helpers: float formatting, the ego pooling rule, and the
CSV/JSON table writers every pipeline output goes through."""

import json
import math

import numpy as np


def fmt_float(x):
    """Shortest round-trip decimal form; NaN spelled ``nan``."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def mean_and_stderr(values):
    """Sample mean and standard error; SE is 0 for a single value."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        raise ValueError("mean of nothing")
    mean = float(values.mean())
    if n == 1:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(n))


def pool_egos(per_ego):
    """Pool cell values across egos: ``{key: (mean, stderr, n_egos)}``.

    ``per_ego`` yields, one ego at a time in ascending ego order, a dict
    ``{key: [value per usable cell, in transition order]}``; None or an
    empty dict is an ego without usable cells. Each ego's cells average
    first, so an ego weighs the same however many cells it has. Per key,
    those per-ego means then average in ego order across the ``n_egos``
    egos that have the key, and their spread across egos gives the
    standard error (``mean_and_stderr``). Keys come out in the order
    they are first seen.

    The (ego, key) value lists are grouped by length, and each group's
    means are one row-wise mean of a C-contiguous matrix, which sums
    each row as ``np.mean`` sums that row alone (a strided or
    Fortran-order reduction does not).
    """
    keys, entry_key, groups = {}, [], {}  # entry_key: key id of each (ego, key) list
    for cells in per_ego:
        for key, values in (cells or {}).items():
            groups.setdefault(len(values), []).append((len(entry_key), values))
            entry_key.append(keys.setdefault(key, len(keys)))
    means = np.empty(len(entry_key))
    for group in groups.values():
        entries, rows = zip(*group)
        means[list(entries)] = np.array(rows, dtype=np.float64).mean(axis=1)
    # each key's per-ego means, still in ego order
    per_key = np.split(means[np.argsort(entry_key, kind="stable")],
                       np.cumsum(np.bincount(entry_key))[:-1])
    return {key: (*mean_and_stderr(m), m.size) for key, m in zip(keys, per_key)}


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
