"""Sorted-array set kernels behind the scoring and analysis loops.

All value arrays are sorted, duplicate-free int64 arrays (CSR rows);
``terms`` matrices are float64. ``gather_rows`` reads every requested
CSR row in one pass and returns the positions of its entries, so that a
caller can read any array aligned with the CSR indices; gathered values
are looked up with one ``searchsorted``.

Common-neighbor sums run in the push form (row-wise SpGEMM, Gustavson,
ACM TOMS 1978): a caller gathers the rows of the neighbors ``z`` in
ascending-z order, each entry ``v`` of row(z) is a wedge z -> v, and
``accumulate_common_terms`` adds the wedges onto their targets with one
``bincount`` per term column. Each target's terms are added in wedge
order, which is ascending z.
"""

import numpy as np


def contains(base, values):
    """Mask of the ``values`` present in ``base``."""
    if base.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = np.searchsorted(base, values)
    pos[pos == base.size] = base.size - 1
    return base[pos] == values


def intersect_values(a, b):
    """Sorted values shared by ``a`` and ``b``."""
    return b[contains(a, b)]


def gather_rows(indptr, rows):
    """Slot in ``rows`` and CSR position of every entry of the given
    rows, row by row in ascending order."""
    if rows.size == 1:
        # one row: its slice, without the per-row bookkeeping
        start, stop = indptr[rows[0]], indptr[rows[0] + 1]
        return np.zeros(stop - start, dtype=np.int64), np.arange(start, stop)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = lengths.cumsum()
    slot = np.arange(rows.size).repeat(lengths)
    # gathered entry i sits at i - entries gathered before its row
    # + its row's start
    shift = (starts - ends + lengths).repeat(lengths)
    return slot, np.arange(shift.size) + shift


def row_intersect_sizes(indptr, indices, base, targets):
    """``|row(t) ∩ base|`` for each target ``t``."""
    slot, pos = gather_rows(indptr, targets)
    hit = contains(base, indices[pos])
    return np.bincount(slot[hit], minlength=targets.size).astype(np.int64)


def accumulate_common_terms(wedge_z, wedge_v, terms, n_targets):
    """Per target: the column sums of ``terms[wedge_z]`` over the wedges
    with that ``wedge_v``, added in wedge order, and the wedge count."""
    sums = np.zeros((n_targets, terms.shape[1]), dtype=np.float64)
    for k in range(terms.shape[1]):
        sums[:, k] = np.bincount(wedge_v, weights=terms[wedge_z, k], minlength=n_targets)
    counts = np.bincount(wedge_v, minlength=n_targets).astype(np.int64)
    return sums, counts
