"""The ego pooling rule shared by the empirical and evaluation stages,
and the count rule every whole-number argument of the library passes."""

import math

import numpy as np
import pytest

from egolink._util import group_means, pool_egos
from egolink.degree_dist import log_binned_histogram
from egolink.ego import sample_egos
from egolink.empirical import aggregate_empirical
from egolink.errors import ConfigError
from egolink.evaluation import evaluate_methods, precision_at_k
from egolink.generators import (planted_scorer_edges, preferential_attachment_edges,
                                uniform_random_edges)
from egolink.graph import (SnapshotGraph, assign_windows, ingest_edges,
                           parse_edge_lines)

from conftest import make_series


def mean_and_stderr(values):
    """Sample mean and standard error of one 1-D sample; SE is 0 for a
    single value."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def _reference_pool(ego, values):
    """The pooling rule written out: per column, one ``np.mean`` per ego
    over its rows in the order given, then ``mean_and_stderr`` across the
    egos in ascending ego order."""
    ego, values = np.asarray(ego), np.asarray(values, dtype=np.float64)
    out = []
    for column in values.T:
        means = [float(np.mean(column[ego == e])) for e in np.unique(ego)]
        out.append((*mean_and_stderr(means), len(means)))
    return out


def _ragged_cells(rng, n_egos, n_columns):
    """Ragged egos, each with 1-300 cells over six decades of values, as
    (ego, transition, values) rows sorted by ego; ego ids are not dense."""
    counts = np.array([int(rng.choice([1, 2, 3, 7, 8, 9, 64, 129, 300])) if rng.random() < 0.5
                       else int(rng.integers(1, 301)) for _ in range(n_egos)])
    ego = np.repeat(np.sort(rng.choice(10 * n_egos, n_egos, replace=False)), counts)
    transition = np.arange(ego.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return ego, transition, 10.0 ** rng.uniform(-3.0, 3.0, (ego.size, n_columns))


def _transition_major(ego, transition, values):
    """The same rows, transition-major as the cell stages emit them: each
    ego's rows stay in transition order, different egos interleave."""
    order = np.lexsort((ego, transition))
    return ego[order], values[order]


def test_keeps_ego_order_and_counts_egos_per_key():
    # egos 4 and 2 given out of order; per-ego means 2.0 (ego 2) and 4.0
    mean, stderr, n_egos = pool_egos(np.array([4, 2, 2]), np.array([[4.0], [1.0], [3.0]]))[0]
    assert (mean, n_egos) == (3.0, 2)
    assert stderr == pytest.approx(1.0)
    # a column only one ego has is pooled from that ego alone: standard error 0.0
    assert pool_egos(np.array([7]), np.array([[5.0]])) == [(5.0, 0.0, 1)]
    assert pool_egos(np.array([7, 7]), np.array([[5.0], [6.0]])) == [(5.5, 0.0, 1)]


def test_columns_keep_their_order():
    pooled = pool_egos(np.array([0, 1]), np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]))
    assert [mean for mean, _, _ in pooled] == [2.0, 3.0, 4.0]
    assert all(n_egos == 2 for _, _, n_egos in pooled)


def test_bitwise_equal_to_mean_of_means():
    rng = np.random.default_rng(3)
    cells = [rng.random(rng.integers(1, 9)) * 10.0 ** rng.integers(-3, 4) for _ in range(40)]
    means = [float(np.mean(c)) for c in cells]
    ego = np.repeat(np.arange(40), [c.size for c in cells])
    assert pool_egos(ego, np.concatenate(cells)[:, None]) == [(*mean_and_stderr(means), 40)]


@pytest.mark.parametrize("seed", range(4))
def test_group_means_bitwise_equal_to_mean(seed):
    # groups of 1-40 rows, equal lengths among them, rows in shuffled order
    rng = np.random.default_rng(seed)
    sizes = rng.choice([1, 2, 3, 7, 8, 9, 16, 17, 33, 40], 60)
    group = rng.permutation(np.repeat(rng.choice(1000, sizes.size, replace=False), sizes))
    values = 10.0 ** rng.uniform(-3.0, 3.0, (group.size, 3))
    means, size = group_means(group, values)
    for i, g in enumerate(np.unique(group)):
        assert size[i] == np.count_nonzero(group == g)
        for col in range(values.shape[1]):
            assert means[i, col] == np.mean(values[group == g, col])


def _bits(x):
    """Float64 values as int64 bit patterns: -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n_columns", [1, 2, 4, 70])
@pytest.mark.parametrize("seed", range(3))
def test_group_means_bitwise_across_pairwise_blocks(seed, n_columns):
    # np.mean sums pairwise in blocks of 128 rows with 8-way unrolled runs:
    # sizes on each side of those edges, and above 4096, with negatives and zeros
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([np.arange(1, 10), [127, 128, 129, 255, 256, 257],
                            rng.integers(4097, 6000, 2), rng.integers(1, 300, 8)])
    group = rng.permutation(np.repeat(rng.choice(10**6, sizes.size, replace=False), sizes))
    values = 10.0 ** rng.uniform(-3.0, 3.0, (group.size, n_columns))
    values *= rng.choice([-1.0, 1.0], values.shape)
    zero = np.unique(group)[rng.choice(sizes.size, 3, replace=False)]
    values[np.isin(group, zero)] = rng.choice([0.0, -0.0], (np.isin(group, zero).sum(), 1))
    means, size = group_means(group, values)
    expect = [[np.mean(values[group == g, col]) for col in range(n_columns)]
              for g in np.unique(group)]
    assert np.array_equal(size, [np.count_nonzero(group == g) for g in np.unique(group)])
    assert np.array_equal(_bits(means), _bits(expect))


def test_group_means_of_negative_zeros_is_zero():
    # np.mean of -0.0 rows sums from 0.0 and reads 0.0, not -0.0
    means, size = group_means(np.array([3, 3, 5]), np.array([[-0.0], [-0.0], [-0.0]]))
    assert np.array_equal(_bits(means), _bits([[np.mean([-0.0, -0.0])], [np.mean([-0.0])]]))
    assert size.tolist() == [2, 1]


def test_group_means_of_nothing_is_empty():
    means, size = group_means(np.zeros(0, dtype=np.int64), np.zeros((0, 4)))
    assert means.shape == (0, 4) and size.shape == (0,)


@pytest.mark.parametrize("seed", range(6))
def test_grouped_pool_equals_reference(seed):
    # ragged egos with 1-300 cells, values over six decades, rows interleaved
    rng = np.random.default_rng(seed)
    ego, values = _transition_major(*_ragged_cells(rng, 120, 12))
    assert pool_egos(ego, values) == _reference_pool(ego, values)


@pytest.mark.parametrize("seed", range(3))
def test_interleaved_rows_pool_as_sorted(seed):
    ego, transition, values = _ragged_cells(np.random.default_rng(seed), 60, 5)
    assert pool_egos(*_transition_major(ego, transition, values)) == pool_egos(ego, values)


_SERIES = make_series([[(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]], 3)

#: (site, key, a call that passes the count, a count out of its range or None)
_COUNT_SITES = [
    ("assign_windows", "window_length",
     lambda v: assign_windows(np.array([0, 9]), window_length=v), 0),
    ("assign_windows", "fixed_count", lambda v: assign_windows(np.array([0, 9]), fixed_count=v), 0),
    ("log_binned_histogram", "bins_per_decade",
     lambda v: log_binned_histogram(np.array([1, 5]), bins_per_decade=v), 0),
    ("evaluate_methods", "cutoff", lambda v: evaluate_methods(_SERIES, cutoff=v), 0),
    ("evaluate_methods", "min_candidates",
     lambda v: evaluate_methods(_SERIES, min_candidates=v), -1),
    ("evaluate_methods", "workers", lambda v: evaluate_methods(_SERIES, workers=v), 0),
    ("aggregate_empirical", "workers", lambda v: aggregate_empirical(_SERIES, workers=v), 0),
    ("parse_edge_lines", "missing_time",
     lambda v: parse_edge_lines(["a,b,1", "b,c,\\N"], missing_time=v), 2**63),
    # no time is missing: the fill is checked all the same
    ("ingest_edges", "missing_time", lambda v: ingest_edges(["a,b,1"], missing_time=v),
     -2**63 - 1),
    ("SnapshotGraph", "n_nodes", lambda v: SnapshotGraph(v, [0], [1], False), -1),
    # k past its range is a PreconditionError of the ranking
    ("precision_at_k", "k", lambda v: precision_at_k([3, 1, 2], [1], v), None),
    ("evaluate_methods", "ks", lambda v: evaluate_methods(_SERIES, ks=(v,)), 2**64),
    # a seed has no bound above
    ("sample_egos", "seed", lambda v: sample_egos(_SERIES, 2, seed=v), -1),
    ("uniform_random_edges", "seed", lambda v: uniform_random_edges(5, 0.5, seed=v), -1),
    ("preferential_attachment_edges", "seed",
     lambda v: preferential_attachment_edges(5, 1, seed=v), -1),
    ("planted_scorer_edges", "seed", lambda v: planted_scorer_edges(6, 0.5, "cn", seed=v), -1),
]


@pytest.mark.parametrize("call, key, value", [
    pytest.param(call, key, value, id=f"{site}-{key}-{value!r}")
    for site, key, call, out_of_range in _COUNT_SITES
    for value in (2.5, "3", True, out_of_range) if value is not None
])
def test_count_rule_names_the_key(call, key, value):
    # a count is a whole number in its range, never cut down to one
    with pytest.raises(ConfigError, match=f"^{key}: must be "):
        call(value)
