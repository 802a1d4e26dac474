"""The ego pooling rule shared by the empirical and evaluation stages."""

import numpy as np
import pytest

from egolink._util import mean_and_stderr, pool_egos


def test_keeps_ego_order_and_counts_egos_per_key():
    pooled = pool_egos([{"a": [1.0, 3.0], "b": [5.0]}, None, {}, {"a": [4.0]}])
    assert list(pooled) == ["a", "b"]
    mean, stderr, n_egos = pooled["a"]
    assert (mean, n_egos) == (3.0, 2)  # per-ego means 2.0 and 4.0
    assert stderr == pytest.approx(1.0)
    assert pooled["b"] == (5.0, 0.0, 1)  # one ego: standard error 0.0


def test_first_seen_key_order():
    pooled = pool_egos([{"b": [1.0]}, {"a": [2.0], "b": [3.0]}])
    assert list(pooled) == ["b", "a"]
    assert pooled["b"][2] == 2 and pooled["a"][2] == 1


def test_bitwise_equal_to_mean_of_means():
    rng = np.random.default_rng(3)
    per_ego = [{"k": list(rng.random(rng.integers(1, 9)) * 10.0 ** rng.integers(-3, 4))}
               for _ in range(40)]
    means = [float(np.mean(cells["k"])) for cells in per_ego]
    assert pool_egos(per_ego)["k"] == (*mean_and_stderr(means), 40)


def _reference_pool(per_ego):
    """The pooling rule written out: one ``np.mean`` per (ego, key), then
    ``mean_and_stderr`` per key over the egos that have it, in ego order."""
    means = {}
    for cells in per_ego:
        for key, values in (cells or {}).items():
            means.setdefault(key, []).append(float(np.mean(values)))
    return {key: (*mean_and_stderr(m), len(m)) for key, m in means.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grouped_pool_equals_reference(seed):
    # ragged egos: cell counts 1-300, values over six decades, keys missing
    # for some egos (the per-triad empirical shape), and one-ego keys
    rng = np.random.default_rng(seed)
    keys = [("k", i) for i in range(12)]
    per_ego = []
    for e in range(150):
        if rng.random() < 0.1:
            per_ego.append(None if rng.random() < 0.5 else {})
            continue
        cells = {}
        for key in keys:
            if rng.random() < 0.3:
                continue
            n = (int(rng.choice([1, 2, 3, 7, 8, 9, 64, 129, 300])) if rng.random() < 0.5
                 else int(rng.integers(1, 301)))
            values = 10.0 ** rng.uniform(-3.0, 3.0, n)
            cells[key] = values.tolist() if rng.random() < 0.5 else values
        cells[("only", e)] = [float(rng.uniform(1e-3, 1e3))]
        per_ego.append(cells)
    expected = _reference_pool(per_ego)
    pooled = pool_egos(per_ego)
    assert list(pooled) == list(expected)
    assert pooled == expected
    assert all(pooled[key][1:] == (0.0, 1) for key in pooled if key[0] == "only")
