"""Degree sampling and log-binned histograms."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_graph, random_graph

from egolink import degree_dist, ego
from egolink._util import write_table
from egolink.degree_dist import (
    DISTRIBUTION_HEADER,
    distribution_metadata,
    distribution_rows,
    global_degree_samples,
    log_binned_histogram,
    personalized_degree_samples,
)
from egolink.errors import ConfigError, EmptyInputError


def _star(n_leaves):
    return make_graph([(0, i) for i in range(1, n_leaves + 1)], n_leaves + 1)


def _clique(n):
    return make_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


class TestSampling:
    def test_star_all_zero(self):
        s = personalized_degree_samples(_star(3))
        # one sample per (ego, neighbor) ordered pair
        assert s.values.tolist() == [0] * 6
        assert s.n_egos == 4
        assert s.shifted

    def test_clique_uniform(self):
        s = personalized_degree_samples(_clique(4))
        assert s.values.tolist() == [2] * 12
        assert not s.shifted

    def test_global_per_node(self):
        s = global_degree_samples(_star(3))
        assert sorted(s.values.tolist()) == [1, 1, 1, 3]

    def test_global_per_neighbor(self):
        s = global_degree_samples(_star(3), per_neighbor=True)
        # hub seen once per leaf, each leaf seen once by the hub
        assert sorted(s.values.tolist()) == [1, 1, 1, 3, 3, 3]

    def test_ego_subset(self):
        s = personalized_degree_samples(_star(3), egos=np.array([0]))
        assert s.values.tolist() == [0, 0, 0]
        assert s.n_egos == 1

    @pytest.mark.parametrize("ego", [-1, 4])
    def test_ego_out_of_range(self, ego):
        with pytest.raises(IndexError):
            personalized_degree_samples(_star(3), egos=np.array([0, ego]))
        with pytest.raises(IndexError):
            global_degree_samples(_star(3), per_neighbor=True, egos=np.array([ego]))

    def test_fractional_ego_named(self):
        # 1.7 is not ego 1: the id is named, not cut down to a whole number
        with pytest.raises(ConfigError, match="1.7"):
            personalized_degree_samples(_star(3), egos=[0, 1.7])
        with pytest.raises(ConfigError, match="1.7"):
            global_degree_samples(_star(3), per_neighbor=True, egos=[1.7])
        # nor is a string or a bool read as an id
        for bad in (["1"], [True, False], np.array([1, 0], dtype=bool)):
            with pytest.raises(ConfigError, match="are not whole numbers"):
                personalized_degree_samples(_star(3), egos=bad)
            with pytest.raises(ConfigError, match="are not whole numbers"):
                global_degree_samples(_star(3), per_neighbor=True, egos=bad)
        assert personalized_degree_samples(_star(3), egos=[0.0]).values.tolist() == [0, 0, 0]

    def test_matches_oracle(self):
        for seed in range(30):
            g, pairs = random_graph(seed, 9, 0.35, False)
            out, inn, sym = oracles.adjacency(9, pairs, False)
            want = []
            for u in range(9):
                for z in sorted(out[u]):
                    want.append(oracles.pdeg(out, inn, sym, u, z, "undirected"))
            got = personalized_degree_samples(g)
            assert got.values.tolist() == want


def _gathered_pd(graph):
    """Mode-undirected pd of every symmetric entry from one gather of all
    the nodes as egos (``_gather_block``), the reference of ``_support_pd``."""
    egos = np.arange(graph.n_nodes, dtype=np.int64)
    return ego._gather_block(graph, egos, ("undirected",), wedges=False).pd("undirected")


@st.composite
def _undirected_graphs(draw):
    """An undirected graph of up to 12 nodes, self-loops and repeats allowed."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40))
    return make_graph(pairs, n)


class TestSupportPath:
    """Every node of an undirected graph as an ego: pd from triangle supports."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(graph=_undirected_graphs(), chunk=st.sampled_from([1, 7, ego._CHUNK]),
           lanes=st.sampled_from([1, 3, ego._LANES]))
    def test_matches_gather(self, graph, chunk, lanes):
        # small runs: one apex each (chunk 1), a few wedges, or a few lanes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ego, "_CHUNK", chunk)
            mp.setattr(ego, "_LANES", lanes)
            got = ego._support_pd(graph)
        assert got.dtype == np.int64
        assert np.array_equal(got, _gathered_pd(graph))

    def test_no_edges(self):
        assert personalized_degree_samples(make_graph([], 4)).values.size == 0
        assert ego._support_pd(make_graph([], 0)).size == 0

    def test_star_with_isolated_nodes(self):
        g = make_graph([(2, i) for i in (0, 1, 4, 6)], 8)
        assert personalized_degree_samples(g).values.tolist() == [0] * 8

    def test_degree_ties_broken_by_id(self):
        # every degree is 2 or 3: the order of the tied nodes is their ids
        g = make_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)], 6)
        assert np.array_equal(ego._support_pd(g), _gathered_pd(g))
        assert ego._support_pd(g).tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1]

    def test_self_loops(self):
        # the loop at 0 is dropped: no entry (0, 0), and pd is the support
        g = make_graph([(0, 1), (1, 2), (2, 0), (0, 3), (0, 0)], 4)
        assert g.sym_degree.tolist() == [3, 2, 2, 1]
        assert ego._support_pd(g).tolist() == [1, 1, 0, 1, 1, 1, 1, 0]
        assert np.array_equal(ego._support_pd(g), _gathered_pd(g))

    def test_more_nodes_than_chunk(self):
        # ids above _CHUNK, and more apexes than a run has lanes
        n = ego._CHUNK + 300
        rng = np.random.default_rng(3)
        ids = np.concatenate([np.arange(40), n - 1 - np.arange(160)])
        pairs = [(int(a), int(b)) for a, b in rng.choice(ids, size=(900, 2))]
        g = make_graph(pairs, n)
        connected = np.flatnonzero(g.sym_degree)
        want = personalized_degree_samples(g, egos=connected).values
        assert np.array_equal(personalized_degree_samples(g).values, want)

    def test_other_paths_keep_ego_blocks(self, monkeypatch):
        calls = []

        def recording(name):
            original = getattr(degree_dist, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for name in ("ego_blocks", "_support_pd"):
            monkeypatch.setattr(degree_dist, name, recording(name))
        undirected, _ = random_graph(5, 9, 0.4, False)
        directed, _ = random_graph(5, 9, 0.4, True)
        personalized_degree_samples(undirected)
        assert calls == ["_support_pd"]
        calls.clear()
        personalized_degree_samples(undirected, egos=np.arange(9))
        personalized_degree_samples(directed, mode="undirected")
        personalized_degree_samples(directed, mode="out")
        assert calls == ["ego_blocks"] * 3


class TestHistogram:
    def test_coarse_bins(self):
        dist = log_binned_histogram(np.array([1, 1, 2, 10, 100]), bins_per_decade=1)
        assert dist.bin_low.tolist() == [1.0, 10.0, 100.0]
        assert dist.count.tolist() == [3, 1, 1]
        assert dist.density.tolist() == [3 / 5, 1 / 5, 1 / 5]
        assert not dist.shifted

    def test_shift_on_zero(self):
        dist = log_binned_histogram(np.array([0, 1, 9]), bins_per_decade=1)
        assert dist.shifted
        # samples become 1, 2, 10
        assert dist.count.tolist() == [2, 1]

    def test_counts_conserved(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            samples = rng.integers(0, 500, size=int(rng.integers(1, 200)))
            dist = log_binned_histogram(samples, bins_per_decade=10)
            assert int(dist.count.sum()) == samples.size
            assert dist.n_samples == samples.size
            width = 1.0 / 10
            assert float((dist.density * width).sum()) == pytest.approx(1.0)

    def test_matches_log_oracle(self):
        rng = np.random.default_rng(1)
        for bpd in (1, 3, 10):
            samples = rng.integers(1, 10_000, size=400)
            dist = log_binned_histogram(samples, bins_per_decade=bpd)
            from collections import Counter
            want = Counter(oracles.log_bin_index(int(v), bpd) for v in samples)
            k_lo = oracles.log_bin_index(int(samples.min()), bpd)
            for i in range(dist.n_bins):
                assert dist.count[i] == want.get(k_lo + i, 0)

    def test_power_boundaries_exact(self):
        # exact powers belong to the bin they open
        dist = log_binned_histogram(np.array([1, 10, 100, 1000]), bins_per_decade=1)
        assert dist.count.tolist() == [1, 1, 1, 1]
        assert dist.bin_low.tolist() == [1.0, 10.0, 100.0, 1000.0]

    def test_empty_bins_emitted(self):
        dist = log_binned_histogram(np.array([1, 1000]), bins_per_decade=1)
        assert dist.count.tolist() == [1, 0, 0, 1]

    def test_centers_inside_bins(self):
        dist = log_binned_histogram(np.arange(1, 300), bins_per_decade=5)
        assert np.all(dist.bin_low < dist.bin_center)
        assert np.all(dist.bin_center < dist.bin_high)
        assert np.allclose(dist.bin_high[:-1], dist.bin_low[1:])

    def test_rejects_bad_input(self):
        with pytest.raises(EmptyInputError):
            log_binned_histogram(np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            log_binned_histogram(np.array([-1, 3]))

    @pytest.mark.parametrize("values, shown", [
        ([0.5, 2.0], "0.5"), ([2.0, 1.5, 0.5], "1.5"), ([float("nan"), 1.0], "nan"),
        ([float("inf"), 2.0], "inf"), ([3, -1], "-1"), ([True, False], "True"),
    ])
    def test_samples_are_counts(self, values, shown):
        # a sample that is not a finite whole number >= 0 is named, not cut
        # down to one (0.5 was shifted as if it were a zero)
        with pytest.raises(ConfigError, match=f"whole numbers >= 0, got {shown}$"):
            log_binned_histogram(np.array(values))

    def test_shift_only_on_a_true_zero(self):
        samples = degree_dist.DegreeSampleSet(np.array([0.5, 2.0]), "global", "undirected", 0)
        assert not samples.shifted
        assert log_binned_histogram(np.array([0.0, 2.0])).shifted

    def test_accepts_sample_set(self):
        s = personalized_degree_samples(_clique(5))
        dist = log_binned_histogram(s)
        assert dist.n_samples == s.n_samples


class TestReadOnly:
    @pytest.mark.parametrize("make, arrays, dtypes", [
        (lambda g: personalized_degree_samples(g), ("values",), (np.int64,)),
        (lambda g: global_degree_samples(g), ("values",), (np.int64,)),
        (lambda g: log_binned_histogram(personalized_degree_samples(g)),
         ("bin_low", "bin_high", "bin_center", "count", "density"),
         (np.float64, np.float64, np.float64, np.int64, np.float64)),
    ], ids=["personalized", "global", "histogram"])
    def test_pickled_arrays_stay_read_only(self, make, arrays, dtypes):
        result = make(make_graph([(0, 1), (1, 2), (2, 0), (2, 3)], 4))
        copy = pickle.loads(pickle.dumps(result))
        for name, dtype in zip(arrays, dtypes):
            for arr in (getattr(result, name), getattr(copy, name)):
                assert arr.dtype == dtype and not arr.flags.writeable, name
            assert np.array_equal(getattr(copy, name), getattr(result, name)), name


class TestEquality:
    """Sample sets and histograms compare their arrays by value."""

    def test_equal_and_unequal(self):
        triangle = make_graph([(0, 1), (1, 2), (2, 0)], 3)
        path = make_graph([(0, 1), (1, 2)], 3)
        samples = personalized_degree_samples(triangle)
        assert samples == personalized_degree_samples(triangle)
        assert samples != personalized_degree_samples(path)
        assert samples != global_degree_samples(triangle, per_neighbor=True)
        hist = log_binned_histogram(samples)
        assert hist == log_binned_histogram(personalized_degree_samples(triangle))
        assert hist != log_binned_histogram(personalized_degree_samples(path))
        assert hist != log_binned_histogram(samples, bins_per_decade=5)
        assert samples != hist

    def test_differing_dtypes(self):
        ints = degree_dist.DegreeSampleSet(np.array([1, 2]), "personalized", "undirected", 2)
        # np.array_equal compares values, whatever their dtypes
        assert ints == degree_dist.DegreeSampleSet(np.array([1.0, 2.0]), "personalized",
                                                   "undirected", 2)
        assert ints != degree_dist.DegreeSampleSet(np.array([1.0, 2.5]), "personalized",
                                                   "undirected", 2)
        assert ints != degree_dist.DegreeSampleSet(np.array([1, 2, 2]), "personalized",
                                                   "undirected", 2)


class TestOutputs:
    def test_metadata(self):
        s = personalized_degree_samples(_star(3))
        dist = log_binned_histogram(s)
        meta = distribution_metadata(dist, "personalized", "undirected")
        assert meta["kind"] == "personalized"
        assert meta["shifted"] == "true"
        assert meta["n_samples"] == 6

    def test_rows_match_arrays(self):
        dist = log_binned_histogram(np.array([1, 5, 30]), bins_per_decade=2)
        rows = distribution_rows(dist)
        assert len(rows) == dist.n_bins
        assert rows[0][3] == dist.count[0]

    def test_csv_header_line(self, tmp_path):
        dist = log_binned_histogram(np.array([0, 2, 7]))
        path = tmp_path / "d.csv"
        write_table(str(tmp_path / "d"), "csv", DISTRIBUTION_HEADER, distribution_rows(dist),
                    metadata=distribution_metadata(dist, "personalized", "undirected"))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# kind=personalized mode=undirected shifted=true")
        assert lines[1] == "bin_low,bin_high,bin_center,count,density"
        assert len(lines) == 2 + dist.n_bins
