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
