"""Sorted-array set kernels behind the scoring and analysis loops.

All array arguments are sorted, duplicate-free int64 arrays (CSR rows);
``terms`` matrices are float64 and row-aligned with ``base``. The row
kernels gather every requested CSR row in one pass and look the gathered
values up with one ``searchsorted``.

Common-neighbor sums run in the push form (row-wise SpGEMM, Gustavson,
ACM TOMS 1978): the rows of the neighbors ``z`` are gathered in
ascending-z order, each entry ``v`` of row(z) is a wedge z -> v, and one
``bincount`` per term column adds the wedges onto their targets. Each
target's terms are added in wedge order, which is ascending z.
"""

import numpy as np


def _match_positions(base, values):
    """Mask of the ``values`` present in ``base``, and their positions there."""
    if base.size == 0:
        return np.zeros(values.size, dtype=bool), np.zeros(values.size, dtype=np.int64)
    pos = np.searchsorted(base, values)
    pos[pos == base.size] = base.size - 1
    return base[pos] == values, pos


def intersect_values(a, b):
    """Sorted values shared by ``a`` and ``b``."""
    hit, pos = _match_positions(a, b)
    return a[pos[hit]]


def contains(base, values):
    """Mask of the ``values`` present in ``base``."""
    return _match_positions(base, values)[0]


def gather_rows(indptr, indices, rows):
    """Slot in ``rows`` and value of every entry of the given CSR rows,
    row by row in ascending order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    slot = np.repeat(np.arange(rows.size), lengths)
    # gathered entry i reads indices[i - entries gathered before its row
    # + its row's start]
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return slot, indices[np.arange(slot.size) + shift]


def _row_matches(indptr, indices, lookup, rows):
    """Slot in ``rows`` and position in ``lookup`` of every value of the
    gathered rows that is also in ``lookup``."""
    slot, values = gather_rows(indptr, indices, rows)
    hit, pos = _match_positions(lookup, values)
    return slot[hit], pos[hit]


def row_intersect_sizes(indptr, indices, base, targets):
    """``|row(t) ∩ base|`` for each target ``t``."""
    slot, _ = _row_matches(indptr, indices, base, targets)
    return np.bincount(slot, minlength=targets.size).astype(np.int64)


def wedge_sums(wedge_z, wedge_v, terms, n_targets):
    """Per target: the column sums of ``terms[wedge_z]`` over the wedges
    with that ``wedge_v``, added in wedge order, and the wedge count."""
    sums = np.zeros((n_targets, terms.shape[1]), dtype=np.float64)
    for k in range(terms.shape[1]):
        sums[:, k] = np.bincount(wedge_v, weights=terms[wedge_z, k], minlength=n_targets)
    counts = np.bincount(wedge_v, minlength=n_targets).astype(np.int64)
    return sums, counts


def accumulate_common_terms(base, terms, indptr, indices, cands):
    """Per candidate ``v``: the column sums of ``terms`` over the ``z`` in
    ``base`` with ``v`` in row(z), and the number of such ``z``. On a
    symmetric adjacency these are the ``z`` in ``row(v) ∩ base``; on an
    asymmetric one, pass the transpose of the adjacency read from ``v``."""
    wedge_z, wedge_v = _row_matches(indptr, indices, cands, base)
    return wedge_sums(wedge_z, wedge_v, terms, cands.size)
