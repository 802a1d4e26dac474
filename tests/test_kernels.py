"""The set kernels against plain Python set arithmetic."""

import numpy as np

from egolink._kernels import (
    accumulate_common_terms,
    intersect_values,
    row_intersect_sizes,
)

from conftest import push_wedges


def _random_csr(rng, n_nodes, max_degree):
    rows = []
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    for u in range(n_nodes):
        d = int(rng.integers(0, max_degree + 1))
        rows.append(np.sort(rng.choice(n_nodes, size=d, replace=False)).astype(np.int64))
        indptr[u + 1] = indptr[u] + d
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return indptr, indices


def _random_inputs(rng, n_nodes=40):
    indptr, indices = _random_csr(rng, n_nodes, 10)
    base = np.sort(rng.choice(n_nodes, size=int(rng.integers(0, 9)),
                              replace=False)).astype(np.int64)
    other = np.sort(rng.choice(n_nodes, size=int(rng.integers(0, 11)),
                               replace=False)).astype(np.int64)
    targets = np.sort(rng.choice(n_nodes, size=int(rng.integers(0, 15)),
                                 replace=False)).astype(np.int64)
    terms = rng.random((base.size, 3))
    return indptr, indices, base, other, targets, terms


def _transpose(indptr, indices):
    """CSR of the transposed adjacency: v is in row(z) of the transpose
    when z is in row(v)."""
    n_nodes = indptr.size - 1
    rows = np.repeat(np.arange(n_nodes, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((rows, indices))
    t_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    t_indptr[1:] = np.cumsum(np.bincount(indices, minlength=n_nodes))
    return t_indptr, rows[order]


def _set_intersect(a, b):
    return sorted(set(a.tolist()) & set(b.tolist()))


def test_intersect_against_sets():
    rng = np.random.default_rng(0)
    for _ in range(200):
        _, _, base, other, _, _ = _random_inputs(rng)
        expected = _set_intersect(base, other)
        assert intersect_values(base, other).tolist() == expected


def test_row_intersect_sizes_against_sets():
    rng = np.random.default_rng(1)
    for _ in range(100):
        indptr, indices, base, _, targets, _ = _random_inputs(rng)
        got = row_intersect_sizes(indptr, indices, base, targets)
        for i, t in enumerate(targets):
            row = indices[indptr[t]:indptr[t + 1]]
            assert got[i] == len(_set_intersect(base, row))


def _dense_inputs(rng, n_nodes=30):
    """Single-column terms and rows sharing 8 or more values with ``base``."""
    indptr, indices = _random_csr(rng, n_nodes, n_nodes)
    base = np.sort(rng.choice(n_nodes, size=int(rng.integers(16, n_nodes + 1)),
                              replace=False)).astype(np.int64)
    targets = np.arange(n_nodes, dtype=np.int64)
    terms = rng.random((base.size, 1))
    return indptr, indices, base, targets, terms


def test_accumulate_against_python_loop():
    rng = np.random.default_rng(2)
    cases = [_random_inputs(rng) for _ in range(100)]
    cases = [(indptr, indices, base, targets, terms)
             for indptr, indices, base, _, targets, terms in cases]
    cases += [_dense_inputs(rng) for _ in range(30)]
    n_long = 0
    for indptr, indices, base, targets, terms in cases:
        # push contract: sums over z in base with t in row(z) of the
        # transpose, that is with z in row(t)
        sums, counts = accumulate_common_terms(
            *push_wedges(*_transpose(indptr, indices), base, targets), terms, targets.size)
        assert sums.shape == (targets.size, terms.shape[1])
        base_pos = {int(z): i for i, z in enumerate(base)}
        for i, t in enumerate(targets):
            row = indices[indptr[t]:indptr[t + 1]]
            zs = _set_intersect(base, row)
            assert counts[i] == len(zs)
            n_long += terms.shape[1] == 1 and len(zs) >= 8
            # each sum adds its terms in ascending-z order, bit for bit
            for k in range(terms.shape[1]):
                expected = 0.0
                for z in zs:
                    expected += float(terms[base_pos[z], k])
                assert sums[i, k] == expected
    assert n_long > 100


def test_empty_inputs():
    empty = np.empty(0, dtype=np.int64)
    some = np.array([1, 5, 9], dtype=np.int64)
    assert intersect_values(empty, some).size == 0
    assert intersect_values(some, empty).size == 0
    assert intersect_values(empty, empty).size == 0
    indptr = np.zeros(4, dtype=np.int64)
    got = row_intersect_sizes(indptr, empty, some, np.array([0, 2], dtype=np.int64))
    assert got.tolist() == [0, 0]
    one = np.array([1], dtype=np.int64)
    sums, counts = accumulate_common_terms(
        *push_wedges(*_transpose(indptr, empty), empty, one), np.empty((0, 2)), one.size)
    assert sums.shape == (1, 2) and counts.tolist() == [0]


def test_identical_arrays():
    arr = np.array([0, 3, 7, 11], dtype=np.int64)
    assert intersect_values(arr, arr).tolist() == arr.tolist()
