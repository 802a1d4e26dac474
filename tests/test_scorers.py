"""Scoring methods: pinned hand values, oracle equivalence, invariances."""

import math
from itertools import product

import numpy as np
import pytest

import oracles
from conftest import make_graph, random_graph

from egolink.ego import ALL_MODES, ego_view
from egolink.errors import ConfigError, PreconditionError
from egolink.evaluation import rank_candidates
from egolink.scorers import (
    ALL_METHODS,
    MODE_NONE,
    ScoreTable,
    score_candidates,
    validate_methods,
    _pd_aa_terms,
    _pd_cn_terms,
    _TERM_BUILDERS,
    _ln_base,
)


def _lookup(table, v):
    """Position of candidate ``v`` in ``table``, or None if it is none."""
    i = int(np.searchsorted(table.candidates, v))
    return i if i < table.candidates.size and table.candidates[i] == v else None


def _score(g, u, v, method, mode="undirected", log_base=None):
    """Score of candidate ``v`` of ego ``u``, read from the ego's table."""
    table = score_candidates(g, u, methods=(method,), mode=mode, log_base=log_base)
    i = _lookup(table, v)
    assert i is not None, f"{v} is not a candidate of ego {u}"
    return float(table.scores(method)[i])


class TestPinnedValues:
    def test_aa_degree_two_bridge(self):
        # single common neighbor of symmetric degree 2
        g = make_graph([(0, 1), (1, 2)], 3)
        got = _score(g, 0, 2, "aa")
        assert got == pytest.approx(1.4427, abs=1e-3)
        assert got == pytest.approx(1.0 / math.log(2), abs=1e-12)

    def test_aa_in_mode_smoothing(self):
        # bridge with in-degree 1: denominator log(1 + 2)
        g = make_graph([(0, 1), (1, 2)], 3, directed=True)
        got = _score(g, 0, 2, "aa", mode="in")
        assert got == pytest.approx(0.9102, abs=1e-3)
        assert got == pytest.approx(1.0 / math.log(3), abs=1e-12)

    def test_pdcn_stranger_bridge(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        got = _score(g, 0, 2, "pd-cn")
        assert got == pytest.approx(0.6931, abs=1e-3)
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_pdcn_embedded_bridge(self, two_broker_graph):
        g, ids = two_broker_graph
        got = _score(g, ids["u"], ids["y1"], "pd-cn")
        assert got == pytest.approx(2.1972, abs=1e-3)
        assert got == pytest.approx(math.log(9), abs=1e-12)

    def test_pdaa_low_embed(self):
        # P=1, G=3: bracket 20/3
        g = make_graph([(0, 1), (1, 2)], 3)
        got = _score(g, 0, 2, "pd-aa")
        assert got == pytest.approx(0.5270, abs=1e-3)
        assert got == pytest.approx(1.0 / math.log(20 / 3), abs=1e-12)

    def test_pdaa_mid_embed(self):
        # z: pd 2, gd 4 -> P=3, G=5, bracket 68/15
        pairs = [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (1, 2)]
        g = make_graph(pairs, 5)
        got = _score(g, 0, 2, "pd-aa")
        assert got == pytest.approx(0.6614, abs=1e-3)
        assert got == pytest.approx(1.0 / math.log(68 / 15), abs=1e-12)

    def test_cn_counts(self, two_broker_graph):
        g, ids = two_broker_graph
        assert _score(g, ids["u"], ids["y1"], "cn") == 1.0
        assert _score(g, ids["u"], ids["x1"], "cn") == 1.0


class TestAgainstOracle:
    @pytest.mark.parametrize("directed", [False, True])
    def test_all_methods_all_modes(self, directed):
        modes = ALL_MODES if directed else ("undirected",)
        for n, seed in product((10, 12), range(40)):
            g, pairs = random_graph(seed, n, 0.3, directed)
            out, inn, sym = oracles.adjacency(n, pairs, directed)
            for u in range(n):
                view = ego_view(g, u)
                for mode in modes:
                    table = score_candidates(g, u, mode=mode, view=view)
                    for i, v in enumerate(view.candidates.tolist()):
                        for method in ALL_METHODS:
                            want = oracles.score(out, inn, sym, u, v, method, mode)
                            assert table.scores(method)[i] == pytest.approx(want, abs=1e-12)


class TestSummationOrder:
    @pytest.mark.parametrize("directed", [False, True])
    def test_columns_are_in_order_sums(self, directed):
        # every column equals, bit for bit, the in-order sum of its terms
        # over the common neighbors in ascending z
        modes = ALL_MODES if directed else ("undirected",)
        n = 30
        n_long = 0
        for seed in range(3):
            g, pairs = random_graph(seed, n, 0.5, directed)
            out, inn, sym = oracles.adjacency(n, pairs, directed)
            for u in range(n):
                for mode in modes:
                    table = score_candidates(g, u, mode=mode)
                    for i, v in enumerate(table.candidates.tolist()):
                        zs = sorted(oracles.common(out, sym, u, v))
                        n_long += len(zs) >= 8
                        pd = np.array([oracles.pdeg(out, inn, sym, u, z, mode) for z in zs])
                        gd = np.array([oracles.gdeg(out, inn, sym, z, mode) for z in zs])
                        assert table.scores("cn")[i] == float(len(zs))
                        for method, build in _TERM_BUILDERS.items():
                            expected = 0.0
                            for term in build(pd, gd, mode).tolist():
                                expected += term
                            assert table.scores(method)[i] == expected
        assert n_long > 100


class TestLogBase:
    def test_rankings_base_invariant(self):
        for seed in range(50):
            g, _ = random_graph(seed, 16, 0.25, seed % 2 == 1)
            view = None
            for u in range(16):
                view = ego_view(g, u)
                if view.candidates.size >= 3:
                    break
            if view.candidates.size < 3:
                continue
            for method in ("aa", "pd-cn", "pd-aa"):
                orders = []
                for base in (2.0, None, 10.0):
                    table = score_candidates(g, u, methods=(method,),
                                             log_base=base, view=view)
                    orders.append(rank_candidates(table).ranking.tolist())
                assert orders[0] == orders[1] == orders[2]

    def test_scores_scale_exactly(self):
        g, _ = random_graph(3, 12, 0.4, False)
        u = 0
        view = ego_view(g, u)
        natural = score_candidates(g, u, view=view)
        based = score_candidates(g, u, log_base=10.0, view=view)
        ln10 = math.log(10.0)
        # reciprocal-log methods scale up, direct-log methods scale down
        assert np.allclose(based.scores("aa"), natural.scores("aa") * ln10, atol=1e-12)
        assert np.allclose(based.scores("pd-aa"), natural.scores("pd-aa") * ln10, atol=1e-12)
        assert np.allclose(based.scores("pd-cn"), natural.scores("pd-cn") / ln10, atol=1e-12)
        assert np.array_equal(based.scores("cn"), natural.scores("cn"))

    def test_invalid_base(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        with pytest.raises(ConfigError):
            _score(g, 0, 2, "aa", log_base=1.0)
        with pytest.raises(ConfigError):
            score_candidates(g, 0, log_base=0.5)

    @pytest.mark.parametrize("base", [math.inf, -math.inf, math.nan, "2", "abc", True, 2j,
                                      [2.0]])
    def test_base_is_a_finite_number(self, base):
        g = make_graph([(0, 1), (1, 2)], 3)
        with pytest.raises(ConfigError, match="^log_base: "):
            _ln_base(base)
        with pytest.raises(ConfigError, match="^log_base: "):
            score_candidates(g, 0, log_base=base)

    @pytest.mark.parametrize("base", [2, 2.0, np.int64(10), np.float32(10.0), 1.5])
    def test_base_numbers_accepted(self, base):
        assert _ln_base(base) == math.log(base)


class TestValidation:
    def test_methods(self):
        validate_methods(ALL_METHODS)
        with pytest.raises(ConfigError):
            validate_methods(())
        with pytest.raises(ConfigError):
            validate_methods(("cn", "katz"))
        with pytest.raises(ConfigError):
            validate_methods(("cn", "cn"))

    def test_unknown_mode(self):
        g = make_graph([(0, 1), (1, 2)], 3, directed=True)
        with pytest.raises(ConfigError):
            _score(g, 0, 2, "aa", mode="both")

    def test_pair_preconditions(self):
        # the ego, its neighbors and nodes with no common neighbor get no
        # score; an ego out of range is an IndexError
        g = make_graph([(0, 1), (1, 2), (0, 3)], 4)
        assert score_candidates(g, 0).candidates.tolist() == [2]
        assert score_candidates(g, 3).candidates.tolist() == [1]
        with pytest.raises(IndexError):
            score_candidates(g, 42)
        # out-of-range degree columns; checked explicitly, so also under -O
        with pytest.raises(PreconditionError):
            _pd_cn_terms(np.array([-1]), np.array([3]), "undirected")
        with pytest.raises(PreconditionError):
            _pd_aa_terms(np.array([3]), np.array([3]), "undirected")


class TestStructure:
    def test_leaf_neighbor_harmless(self):
        # degree-1 neighbor contributes no candidates and must not poison
        # the shared term table with its log(1) denominator
        g = make_graph([(0, 1), (0, 2), (2, 3)], 4)
        table = score_candidates(g, 0)
        assert table.candidates.tolist() == [3]
        for method in ALL_METHODS:
            assert np.all(np.isfinite(table.scores(method)))
        assert table.scores("aa")[0] == pytest.approx(1 / math.log(2), abs=1e-12)

    def test_cn_column_mode_free(self):
        g, _ = random_graph(5, 12, 0.35, True)
        tables = [score_candidates(g, 2, mode=m) for m in ALL_MODES]
        for t in tables[1:]:
            assert np.array_equal(t.scores("cn"), tables[0].scores("cn"))

    def test_more_embedded_scores_higher(self, two_broker_graph):
        # same common-neighbor count; the bridge through the neighbor that
        # shares more of the ego's neighbors wins on the personalized methods
        g, ids = two_broker_graph
        table = score_candidates(g, ids["u"])
        y1, x1 = _lookup(table, ids["y1"]), _lookup(table, ids["x1"])
        for method in ("pd-cn", "pd-aa"):
            assert table.scores(method)[y1] > table.scores(method)[x1]
        assert table.scores("cn")[y1] == table.scores("cn")[x1]

    def test_table_lookup(self, two_broker_graph):
        g, ids = two_broker_graph
        table = score_candidates(g, ids["u"], methods=("cn",))
        assert isinstance(table, ScoreTable)
        assert table.mode == "undirected"
        assert table.methods == ("cn",)
        with pytest.raises(KeyError):
            table.scores("aa")

    def test_view_of_another_ego_or_graph(self):
        g, _ = random_graph(5, 12, 0.35, False)
        other, _ = random_graph(5, 12, 0.35, False)
        with pytest.raises(PreconditionError):
            score_candidates(g, 1, view=ego_view(g, 2))
        with pytest.raises(PreconditionError):
            score_candidates(g, 2, view=ego_view(other, 2))
        view = ego_view(g, 2)
        assert score_candidates(g, np.int64(2), view=view).candidates is view.candidates

    def test_empty_candidates(self):
        g = make_graph([(0, 1)], 2)
        table = score_candidates(g, 0)
        assert table.candidates.size == 0
        for method in ALL_METHODS:
            assert table.scores(method).size == 0
