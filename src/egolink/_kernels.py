"""Sorted-array set kernels behind the scoring and analysis loops.

All array arguments are sorted, duplicate-free int64 arrays (CSR rows);
``terms`` matrices are float64 and row-aligned with ``base``. The row
kernels gather every requested CSR row in one pass, look the gathered
values up in ``base`` with one ``searchsorted``, and reduce per row with
``bincount``, which adds each row's matches in ascending order.
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


def _row_matches(indptr, indices, base, rows):
    """Slot in ``rows`` and position in ``base`` of every value of the
    gathered rows that is also in ``base``, row by row in ascending order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    slot = np.repeat(np.arange(rows.size), lengths)
    # offset of each gathered entry within its row
    offset = np.arange(slot.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    hit, pos = _match_positions(base, indices[starts[slot] + offset])
    return slot[hit], pos[hit]


def row_intersect_sizes(indptr, indices, base, targets):
    """``|row(t) ∩ base|`` for each target ``t``."""
    slot, _ = _row_matches(indptr, indices, base, targets)
    return np.bincount(slot, minlength=targets.size).astype(np.int64)


def accumulate_common_terms(base, terms, indptr, indices, cands):
    """Per candidate ``v``: the column sums of ``terms`` over the rows of
    ``row(v) ∩ base``, and the size of that intersection."""
    slot, pos = _row_matches(indptr, indices, base, cands)
    sums = np.zeros((cands.size, terms.shape[1]), dtype=np.float64)
    for k in range(terms.shape[1]):
        sums[:, k] = np.bincount(slot, weights=terms[pos, k], minlength=cands.size)
    counts = np.bincount(slot, minlength=cands.size).astype(np.int64)
    return sums, counts
