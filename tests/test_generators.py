"""Synthetic edge-list generators: determinism, densities, planted signal."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from egolink.errors import ConfigError
from egolink.generators import (
    GeneratorSpec,
    _assemble,
    generate,
    planted_scorer_edges,
    preferential_attachment_edges,
    uniform_random_edges,
)
from egolink.graph import TIME_MODE_TIMESTAMP, build_snapshots


def _pairs(edges):
    return list(zip(edges.src.tolist(), edges.dst.tolist()))


def _digest(edges):
    h = hashlib.sha256()
    for arr in (edges.src, edges.dst, edges.time):
        h.update(arr.astype("<i8").tobytes())
    return edges.n_edges, h.hexdigest()


class TestUniform:
    def test_deterministic(self):
        a = uniform_random_edges(50, 0.2, seed=3)
        b = uniform_random_edges(50, 0.2, seed=3)
        assert _pairs(a) == _pairs(b)
        assert a.time.tolist() == b.time.tolist()
        c = uniform_random_edges(50, 0.2, seed=4)
        assert _pairs(a) != _pairs(c)

    def test_density_extremes(self):
        assert uniform_random_edges(20, 0.0).n_edges == 0
        assert uniform_random_edges(20, 1.0).n_edges == 20 * 19 // 2
        assert uniform_random_edges(20, 1.0, directed=True).n_edges == 20 * 19

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.1
        got = uniform_random_edges(n, p, seed=0).n_edges
        expect = n * (n - 1) / 2 * p
        sd = (n * (n - 1) / 2 * p * (1 - p)) ** 0.5
        assert abs(got - expect) < 5 * sd

    def test_no_self_loops_or_dupes(self):
        e = uniform_random_edges(40, 0.3, directed=True, seed=1)
        pairs = _pairs(e)
        assert len(pairs) == len(set(pairs))
        assert all(a != b for a, b in pairs)

    @pytest.mark.parametrize("kwargs, n_edges, digest", [
        (dict(n_nodes=400, edge_prob=0.05, seed=11), 3976,
         "d70173613084eada342510985a860c5144409a6158c97eb13de0503a141664ff"),
        (dict(n_nodes=300, edge_prob=0.03, directed=True, seed=12), 2700,
         "22c71cc0d00df22bc97d39cbc7f3761949001a84e7274047646c88be9557323e"),
    ])
    def test_frozen_output(self, kwargs, n_edges, digest):
        # both draw more pairs than one chunk of rows holds
        assert _digest(uniform_random_edges(**kwargs)) == (n_edges, digest)

    def test_validation(self):
        with pytest.raises(ConfigError, match=r"n_nodes: must be in 1\.\.3037000499, got 0"):
            uniform_random_edges(0, 0.5)
        with pytest.raises(ConfigError):
            uniform_random_edges(10, 1.5)
        # a count is a whole number, not cut down to one
        for kwargs in (dict(time_span=10.5), dict(time_span="10"), dict(time_span=True)):
            with pytest.raises(ConfigError, match="time_span: must be a whole number"):
                uniform_random_edges(20, 0.5, **kwargs)
        with pytest.raises(ConfigError, match="n_nodes: must be a whole number"):
            uniform_random_edges(20.5, 0.5)
        assert uniform_random_edges(20.0, 0.5, time_span=10.0) == \
            uniform_random_edges(20, 0.5, time_span=10)


class TestPreferentialAttachment:
    def test_exact_edge_count(self):
        n, m = 60, 3
        e = preferential_attachment_edges(n, m)
        assert e.n_edges == m * (m + 1) // 2 + (n - m - 1) * m

    def test_arrival_times(self):
        e = preferential_attachment_edges(30, 2, seed=5)
        assert e.time.min() == 0
        assert e.time.max() == 29
        assert np.all(np.diff(e.time) >= 0)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_degree_pool_loop(self, data):
        # n up to 2m packs the pool with few nodes, so repeats force extra draws
        m = data.draw(st.integers(1, 20), label="m")
        n = data.draw(st.integers(m + 2, 2 * m + 2) | st.integers(m + 2, 200), label="n")
        seed = data.draw(st.integers(min_value=0), label="seed")
        directed = data.draw(st.booleans(), label="directed")
        src, dst, time = oracles.preferential_attachment(n, m, seed)
        want = _assemble(n, np.array(src), np.array(dst), np.array(time), directed,
                         TIME_MODE_TIMESTAMP)
        assert preferential_attachment_edges(n, m, directed=directed, seed=seed) == want

    def test_heavier_tail_than_uniform(self):
        n, m = 300, 3
        pa = preferential_attachment_edges(n, m, seed=2)
        p = 2 * pa.n_edges / (n * (n - 1))
        uni = uniform_random_edges(n, p, seed=2)
        def max_degree(edges):
            counts = np.bincount(np.concatenate([edges.src, edges.dst]),
                                 minlength=n)
            return counts.max()
        assert max_degree(pa) > max_degree(uni)

    def test_validation(self):
        with pytest.raises(ConfigError, match="n_attach: must be >= 1, got 0"):
            preferential_attachment_edges(5, 0)
        with pytest.raises(ConfigError, match=r"n_nodes: must be in 4\.\.3037000499, got 3"):
            preferential_attachment_edges(3, 2)
        for n_attach in (2.5, "3", True, np.True_):
            with pytest.raises(ConfigError, match="n_attach: must be a whole number"):
                preferential_attachment_edges(100, n_attach)
        for n_nodes in (100.7, "100", float("nan")):
            with pytest.raises(ConfigError, match="n_nodes: must be a whole number"):
                preferential_attachment_edges(n_nodes, 2)
        assert preferential_attachment_edges(100.0, np.int64(2)) == \
            preferential_attachment_edges(100, 2)


class TestPlanted:
    def test_snapshot_layout(self):
        e = planted_scorer_edges(80, 0.08, "pd-cn", n_snapshots=4, seed=1)
        assert e.time_mode == "index"
        assert sorted(set(e.time.tolist())) == [0, 1, 2, 3]
        series = build_snapshots(e, preassigned=True)
        assert len(series) == 4

    def test_new_edges_come_from_candidates(self):
        e = planted_scorer_edges(60, 0.1, "pd-cn", n_snapshots=3, seed=7)
        n = e.n_nodes
        for s in (1, 2):
            before = [(int(a), int(b)) for a, b, t in
                      zip(e.src, e.dst, e.time) if t < s]
            out, inn, sym = oracles.adjacency(n, before, False)
            added = [(int(a), int(b)) for a, b, t in
                     zip(e.src, e.dst, e.time) if t == s]
            for u, v in added:
                cands_u = oracles.candidates(out, sym, u)
                cands_v = oracles.candidates(out, sym, v)
                assert v in cands_u or u in cands_v

    def test_directed_edges_point_from_ego(self):
        e = planted_scorer_edges(60, 0.05, "aa", n_snapshots=3, seed=3,
                                 directed=True, mode="out")
        n = e.n_nodes
        added = [(int(a), int(b)) for a, b, t in zip(e.src, e.dst, e.time) if t == 1]
        before = [(int(a), int(b)) for a, b, t in zip(e.src, e.dst, e.time) if t < 1]
        out, inn, sym = oracles.adjacency(n, before, True)
        for u, v in added:
            assert v in oracles.candidates(out, sym, u)

    def test_rate_monotone(self):
        low = planted_scorer_edges(80, 0.08, "cn", n_snapshots=3, seed=4,
                                   formation_rate=0.02)
        high = planted_scorer_edges(80, 0.08, "cn", n_snapshots=3, seed=4,
                                    formation_rate=0.5)
        assert high.n_edges > low.n_edges

    @pytest.mark.parametrize("kwargs, n_edges, digest", [
        (dict(n_nodes=120, edge_prob=0.25, method="pd-cn", seed=3), 2457,
         "dd78f2dfb95803370bb1da21914e6d74da4ddc557779566882b35c6179c8299a"),
        (dict(n_nodes=120, edge_prob=0.2, method="pd-aa", directed=True, mode="out",
              seed=5), 3613,
         "4a463f4d09212082e00ea6b3b192492ba98bbae3d8bda97bbb012a10ad9489b5"),
        # tied integer scores, over several blocks of egos
        (dict(n_nodes=400, edge_prob=0.03, method="cn", seed=13), 4767,
         "cc792c7292504fde4d69e56f63f51f3180ae11271eff5928239c6aba63687a09"),
        (dict(n_nodes=400, edge_prob=0.03, method="aa", directed=True, mode="in",
              seed=14), 7819,
         "ef2ecc13da51b8af05ddba0f105c262abe6c6e56edfe620cb9866032b58cd71b"),
    ])
    def test_frozen_output(self, kwargs, n_edges, digest):
        # frozen edge lists: a change in the order of random draws, or in a
        # score by enough to flip a draw, changes the formed edges
        assert _digest(planted_scorer_edges(**kwargs)) == (n_edges, digest)

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty_graph_forms_nothing(self, directed):
        # no ego has a candidate, so no block draws
        e = planted_scorer_edges(50, 0.0, "pd-cn", n_snapshots=3, directed=directed)
        assert e.n_edges == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            planted_scorer_edges(50, 0.1, "katz")
        with pytest.raises(ConfigError, match="n_snapshots: must be >= 2, got 1"):
            planted_scorer_edges(50, 0.1, "cn", n_snapshots=1)
        with pytest.raises(ConfigError):
            planted_scorer_edges(50, 0.1, "cn", formation_rate=0.0)
        with pytest.raises(ConfigError, match=r"n_nodes: must be in 3\.\.3037000499, got 2"):
            planted_scorer_edges(2, 0.1, "cn")
        for n_snapshots in (2.5, "3", True):
            with pytest.raises(ConfigError, match="n_snapshots: must be a whole number"):
                planted_scorer_edges(60, 0.1, "cn", n_snapshots=n_snapshots)


class TestSpecDispatch:
    def test_uniform(self):
        spec = GeneratorSpec(kind="uniform-random", n_nodes=30, edge_prob=0.2, seed=1)
        assert generate(spec).n_edges == uniform_random_edges(30, 0.2, seed=1).n_edges

    def test_required_fields(self):
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="uniform-random", n_nodes=30))
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="preferential-attachment", n_nodes=30))
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="planted-scorer", n_nodes=30, edge_prob=0.1))
        with pytest.raises(ConfigError):
            generate(GeneratorSpec(kind="mystery", n_nodes=30))

    def test_planted_roundtrip_through_spec(self):
        spec = GeneratorSpec(kind="planted-scorer", n_nodes=50, edge_prob=0.1,
                             method="pd-cn", n_snapshots=3, seed=9)
        direct = planted_scorer_edges(50, 0.1, "pd-cn", n_snapshots=3, seed=9)
        assert _pairs(generate(spec)) == _pairs(direct)
