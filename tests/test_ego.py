"""Neighborhood metrics: candidates, personalized degree, triad types."""

import numpy as np
import pytest

import oracles
from conftest import make_graph, make_series, random_graph, random_snapshots

from egolink import ego as ego_module
from egolink.degree_dist import global_degree_samples, personalized_degree_samples
from egolink.ego import (
    _forming_cells,
    _gather_block,
    ALL_MODES,
    EdgeConfig,
    TRIAD_TABLE,
    TriadType,
    classify_triad,
    common_neighbors,
    edge_config,
    ego_blocks,
    ego_neighbors,
    ego_view,
    global_degrees,
    personalized_degree,
    personalized_degrees,
    resolve_modes,
    sample_egos,
    two_hop_candidates,
    validate_mode,
)
from egolink.empirical import aggregate_empirical, ego_snapshot_stats
from egolink.errors import ConfigError, EmptyInputError, PreconditionError
from egolink.evaluation import evaluate_methods
from egolink.generators import planted_scorer_edges
from egolink.graph import build_snapshots
from egolink.scorers import score_candidates


class TestTwoBrokerNeighborhood(object):
    def test_personalized_degrees(self, two_broker_graph):
        g, ids = two_broker_graph
        u, z1, z2 = ids["u"], ids["z1"], ids["z2"]
        assert g.sym_degree[z1] == 14
        assert g.sym_degree[z2] == 9
        assert personalized_degree(g, u, z1) == 0
        assert personalized_degree(g, u, z2) == 7

    def test_candidates_and_common(self, two_broker_graph):
        g, ids = two_broker_graph
        u = ids["u"]
        cands = set(two_hop_candidates(g, u).tolist())
        expected = {ids[f"x{i}"] for i in range(1, 14)} | {ids["y1"]}
        assert cands == expected
        assert common_neighbors(g, u, ids["y1"]).tolist() == [ids["z2"]]
        assert common_neighbors(g, u, ids["x3"]).tolist() == [ids["z1"]]


class TestModes:
    def test_validate(self):
        for mode in ALL_MODES:
            validate_mode(mode, directed=True)
        validate_mode("undirected", directed=False)
        with pytest.raises(ConfigError):
            validate_mode("out", directed=False)
        with pytest.raises(ConfigError):
            validate_mode("total", directed=True)

    def test_resolve(self):
        assert resolve_modes(False) == ("undirected",)
        assert resolve_modes(True, per_triad=True) == ("out", "in")
        assert resolve_modes(True, ["in", "undirected"]) == ("in", "undirected")
        with pytest.raises(ConfigError, match="per-triad analysis needs a directed"):
            resolve_modes(False, per_triad=True)
        with pytest.raises(ConfigError, match="at least one degree mode"):
            resolve_modes(True, ())
        for mode in ("out", "in"):
            with pytest.raises(ConfigError, match="admit only mode 'undirected'"):
                resolve_modes(False, ("undirected", mode))

    def test_directed_pd_by_mode(self):
        # u -> {a, b}; z sees a via out, b via in; z in u's neighborhood
        pairs = [(0, 1), (0, 2), (0, 3), (3, 1), (2, 3)]
        g = make_graph(pairs, 4, directed=True)
        u, z = 0, 3
        assert personalized_degree(g, u, z, "out") == 1   # z->1, u->1
        assert personalized_degree(g, u, z, "in") == 1    # 2->z, u->2
        assert personalized_degree(g, u, z, "undirected") == 2

    def test_pure_predecessor_is_candidate(self):
        # 2 only points at u, and is reachable through z's symmetric edges
        pairs = [(0, 1), (2, 0), (2, 1)]
        g = make_graph(pairs, 3, directed=True)
        assert two_hop_candidates(g, 0).tolist() == [2]


class TestPreconditions:
    def test_pd_needs_neighbor(self, two_broker_graph):
        g, ids = two_broker_graph
        with pytest.raises(PreconditionError):
            personalized_degree(g, ids["u"], ids["y1"])

    def test_pds_need_neighbors(self, two_broker_graph):
        # every target is checked, not only a lone one
        g, ids = two_broker_graph
        with pytest.raises(PreconditionError, match=f"^{ids['y1']} is not a neighbor of ego"):
            personalized_degrees(g, ids["u"], [ids["z2"], ids["y1"]], "undirected")

    def test_common_needs_distinct(self, two_broker_graph):
        g, ids = two_broker_graph
        with pytest.raises(PreconditionError):
            common_neighbors(g, ids["u"], ids["u"])


class TestSampleEgos:
    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_named(self, size):
        series = make_series([[(0, 1), (1, 2)]], 3)
        with pytest.raises(ConfigError, match=f"sample_size: must be >= 1, got {size}"):
            sample_egos(series, size)

    def test_size_above_int64_named(self):
        series = make_series([[(0, 1), (1, 2)]], 3)
        with pytest.raises(ConfigError, match=f"sample_size: must be in 1..{2**63 - 1}, got"):
            sample_egos(series, 2**63)

    def test_fractional_size_named(self):
        # nor is a string or a bool read as a count
        series = make_series([[(0, 1), (1, 2)]], 3)
        for size, shown in ((2.5, "2.5"), ("3", "'3'"), (True, "True")):
            with pytest.raises(ConfigError, match=f"sample_size: must be a whole number, got {shown}"):
                sample_egos(series, size)


class TestAgainstOracle:
    @pytest.mark.parametrize("directed", [False, True])
    def test_candidates_pd_common(self, directed):
        for seed in range(60):
            g, pairs = random_graph(seed, 11, 0.3, directed)
            out, inn, sym = oracles.adjacency(11, pairs, directed)
            modes = ALL_MODES if directed else ("undirected",)
            for u in range(11):
                assert ego_neighbors(g, u).tolist() == sorted(out[u])
                cands = two_hop_candidates(g, u)
                assert cands.tolist() == sorted(oracles.candidates(out, sym, u))
                base = ego_neighbors(g, u)
                for mode in modes:
                    got = personalized_degrees(g, u, base, mode)
                    want = [oracles.pdeg(out, inn, sym, u, int(z), mode) for z in base]
                    assert got.tolist() == want
                    gds = global_degrees(g, base, mode)
                    wantg = [oracles.gdeg(out, inn, sym, int(z), mode) for z in base]
                    assert gds.tolist() == wantg
                for v in cands.tolist():
                    assert common_neighbors(g, u, v).tolist() == \
                        sorted(oracles.common(out, sym, u, v))

    def test_degree_bounds(self):
        # a shared neighbor also counts u itself, never z; stricter by one
        # more when z must connect onward to a candidate
        for seed in range(120):
            g, pairs = random_graph(seed, 10, 0.35, False)
            for u in range(10):
                base = ego_neighbors(g, u)
                if base.size == 0:
                    continue
                pds = personalized_degrees(g, u, base, "undirected")
                gds = global_degrees(g, base, "undirected")
                assert np.all(pds <= gds - 1)
                for v in two_hop_candidates(g, u).tolist():
                    zs = common_neighbors(g, u, v)
                    zpd = personalized_degrees(g, u, zs, "undirected")
                    zgd = global_degrees(g, zs, "undirected")
                    assert np.all(zpd <= zgd - 2)


def _triad_graph(ego_cfg, nb_cfg):
    """3-node graph (u=0, z=1, v=2) realizing one configuration pair."""
    pairs = []
    if ego_cfg in (EdgeConfig.OUT, EdgeConfig.RECIPROCAL):
        pairs.append((0, 1))
    if ego_cfg in (EdgeConfig.IN, EdgeConfig.RECIPROCAL):
        pairs.append((1, 0))
    if nb_cfg in (EdgeConfig.OUT, EdgeConfig.RECIPROCAL):
        pairs.append((1, 2))
    if nb_cfg in (EdgeConfig.IN, EdgeConfig.RECIPROCAL):
        pairs.append((2, 1))
    return make_graph(pairs, 3, directed=True)


class TestTriads:
    def test_all_nine_covered(self):
        seen = set()
        for ego_cfg in EdgeConfig:
            for nb_cfg in EdgeConfig:
                g = _triad_graph(ego_cfg, nb_cfg)
                t = classify_triad(g, 0, 1, 2)
                assert t == TRIAD_TABLE[(ego_cfg, nb_cfg)]
                assert t.ego_config == ego_cfg
                assert t.neighbor_config == nb_cfg
                seen.add(t)
        assert seen == set(TriadType)
        assert sorted(t.value for t in seen) == list(range(1, 10))

    def test_last_three_are_ego_in_only(self):
        for t in TriadType:
            is_in = t.ego_config == EdgeConfig.IN
            assert (t.value >= 7) == is_in

    def test_uv_edge_ignored(self):
        g = _triad_graph(EdgeConfig.OUT, EdgeConfig.OUT)
        h = make_graph([(0, 1), (1, 2), (0, 2), (2, 0)], 3, directed=True)
        assert classify_triad(g, 0, 1, 2) == classify_triad(h, 0, 1, 2)

    def test_requires_directed(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        with pytest.raises(PreconditionError):
            classify_triad(g, 0, 1, 2)

    def test_requires_both_edges(self):
        g = make_graph([(0, 1)], 3, directed=True)
        with pytest.raises(PreconditionError):
            classify_triad(g, 0, 1, 2)

    def test_edge_config(self):
        g = make_graph([(0, 1), (1, 2), (2, 1)], 3, directed=True)
        assert edge_config(g, 0, 1) == EdgeConfig.OUT
        assert edge_config(g, 1, 0) == EdgeConfig.IN
        assert edge_config(g, 1, 2) == EdgeConfig.RECIPROCAL
        assert edge_config(g, 0, 2) is None


class TestEgoView:
    def test_caches(self, two_broker_graph):
        g, ids = two_broker_graph
        view = ego_view(g, ids["u"])
        first = view.pd("undirected")
        assert view.pd("undirected") is first
        assert view.gd("undirected").tolist() == \
            global_degrees(g, view.base, "undirected").tolist()

    def test_contents(self, two_broker_graph):
        g, ids = two_broker_graph
        view = ego_view(g, ids["u"])
        assert view.ego == ids["u"]
        assert view.base.tolist() == ego_neighbors(g, ids["u"]).tolist()
        assert view.candidates.tolist() == two_hop_candidates(g, ids["u"]).tolist()

    def test_fractional_ego_named(self, two_broker_graph):
        # 1.7 is not ego 1: the id is named, not cut down to a whole number
        # nor is a string or a bool read as an id
        g, ids = two_broker_graph
        for call in (ego_view, two_hop_candidates, score_candidates):
            for bad, shown in ((1.7, "1.7"), ("1", "'1'"), ("a", "'a'"), (True, "True"),
                               (np.True_, "np.True_")):
                with pytest.raises(ConfigError, match=f"node id {shown} is not a whole number"):
                    call(g, bad)
        u = ids["u"]
        assert ego_view(g, float(u)).egos.tolist() == [u]
        assert two_hop_candidates(g, float(u)).tolist() == two_hop_candidates(g, u).tolist()
        with pytest.raises(IndexError, match="out of range"):
            ego_view(g, -1)

    def test_fractional_node_named(self, two_broker_graph):
        # one id check for every single-node function: 1.7 is named, not
        # left to NumPy's IndexError
        g, ids = two_broker_graph
        u, z = ids["u"], ids["z1"]
        with pytest.raises(ConfigError, match="node id 1.7 is not a whole number"):
            personalized_degree(g, 1.7, z)
        with pytest.raises(ConfigError, match="1.7"):
            common_neighbors(g, 1.7, z)
        with pytest.raises(ConfigError, match="1.7"):
            common_neighbors(g, u, 1.7)
        assert personalized_degree(g, float(u), z) == personalized_degree(g, u, z)
        assert common_neighbors(g, float(u), z).tolist() == common_neighbors(g, u, z).tolist()

    def test_view_of_several_egos(self, two_broker_graph):
        # a view of a run of egos has no single ego, so no score table
        g, ids = two_broker_graph
        (view,) = ego_blocks(g, [ids["u"], ids["y1"]], ALL_MODES[:1])
        assert view.egos.tolist() == [ids["u"], ids["y1"]]
        with pytest.raises(PreconditionError):
            view.ego
        with pytest.raises(PreconditionError):
            score_candidates(g, ids["u"], view=view)

    @pytest.mark.parametrize("sym_pool", [False, True], ids=["plain", "per-triad"])
    @pytest.mark.parametrize("seed", range(6))
    def test_formed_reads_next_successors(self, seed, sym_pool):
        # a candidate formed when it is a successor of its own ego in the
        # next snapshot; per triad, each ego has nine slots of candidates
        series = make_series(random_snapshots(seed, 12, 0.2, True, 2, growth=1.0), 12,
                             directed=True)
        egos = np.arange(12, dtype=np.int64)[::2]
        view = _gather_block(series[0], egos, (), sym_pool=sym_pool)
        ego = egos[view.cand_slot // (9 if sym_pool else 1)]
        want = [c in series[1].successors(u).tolist()
                for u, c in zip(ego.tolist(), view.candidates.tolist())]
        assert any(want) and not all(want)
        assert view.formed(series[1]).tolist() == want


class TestEgoSetRule:
    """Every function that takes a list of egos reads it as a set: each
    id once, in ascending order, and never empty."""

    SNAPS = [[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)],
             [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (0, 3)]]

    @staticmethod
    def _entry(name):
        """The entry point as ``call(egos)``, its result comparable by ==."""
        series = make_series(TestEgoSetRule.SNAPS, 5)
        if name == "empirical":
            return lambda egos: aggregate_empirical(series, egos=egos)
        if name == "evaluate":
            return lambda egos: evaluate_methods(series, ks=(1,), egos=egos)

        def call(egos):
            if name == "global":
                s = global_degree_samples(series[0], per_neighbor=True, egos=egos)
            else:
                s = personalized_degree_samples(series[0], egos=egos)
            return s.values.tolist(), s.n_egos
        return call

    @pytest.mark.parametrize("name", ["personalized", "global", "empirical", "evaluate"])
    def test_duplicates_and_order(self, name):
        call = self._entry(name)
        assert call([1, 0, 1, 0]) == call([0, 1])
        assert call(np.array([0, 0])) == call([0])

    @pytest.mark.parametrize("name", ["personalized", "global", "empirical", "evaluate"])
    def test_empty_named(self, name):
        with pytest.raises(EmptyInputError, match="egos:"):
            self._entry(name)([])

    def test_global_per_node_takes_no_egos(self):
        with pytest.raises(ConfigError, match="egos"):
            global_degree_samples(make_series(self.SNAPS, 5)[0], egos=[0])

    def test_blocks_keep_given_order(self, two_broker_graph):
        g, ids = two_broker_graph
        (view,) = ego_blocks(g, [ids["y1"], ids["u"]], ALL_MODES[:1])
        assert view.egos.tolist() == [ids["y1"], ids["u"]]

    def test_blocks_check_ids(self, two_broker_graph):
        # ego_blocks keeps order and repeats, but its ids pass the checks
        # of the rule: 1.7 is not gathered as ego 1, and an id out of range
        # is named, not left to NumPy
        g, _ = two_broker_graph
        n = g.n_nodes
        with pytest.raises(ConfigError, match="node id 1.7 is not a whole number"):
            list(ego_blocks(g, [0, 1.7], ALL_MODES[:1]))
        for bad, shown in ((["1"], "'1'"), ([True, False], "True"), ([0, None], "0")):
            with pytest.raises(ConfigError, match=f"are not whole numbers: the first is {shown}"):
                list(ego_blocks(g, bad, ALL_MODES[:1]))
        for bad in (-1, n):
            with pytest.raises(IndexError, match=rf"node id {bad} out of range \[0, {n}\)"):
                list(ego_blocks(g, [0, bad], ALL_MODES[:1]))
        assert [v.egos.tolist() for v in ego_blocks(g, [2.0, 0, 2], ALL_MODES[:1])] == [[2, 0, 2]]

    def test_one_ego_takes_one_id(self):
        # a function of one ego takes one id: a list is a ConfigError naming
        # it, not a set of egos; a whole float is its id
        g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        for call, ids in ((lambda u: two_hop_candidates(g, u), [0, 1]),
                          (lambda u: ego_view(g, u), [1, 0]),
                          (lambda u: personalized_degrees(g, u, [0], "undirected"), [1])):
            with pytest.raises(ConfigError, match=rf"node id \[{ids[0]}.* is not a scalar"):
                call(ids)
        assert two_hop_candidates(g, np.int64(1)).tolist() == [3]
        series = build_snapshots(planted_scorer_edges(200, 0.05, "pd-cn", n_snapshots=3, seed=1),
                                 preassigned=True)
        for ids in ([5, 7], [13, 14]):
            with pytest.raises(ConfigError, match="is not a scalar"):
                ego_snapshot_stats(series, 0, ids)
        stats = ego_snapshot_stats(series, 0, 14)
        assert stats[None] is not None and ego_snapshot_stats(series, 0, 14.0) == stats


def _chunk_series():
    """One transition; new successors in ego order: 0 -> 2 (row of 1
    entry, meets the pool), 3 -> 1 (3 entries; ego 3 has no successor at
    t, but its predecessor 4 is linked to 1), 12 -> 13 (8 entries, meets
    the pool at its last); ego 0 also gains 5, whose 4 entries miss its
    pool, and ego 10 gains nothing."""
    snap0 = [(0, 1), (1, 2), (4, 3), (1, 4), (10, 11), (12, 30)]
    snap0 += [(13, w) for w in range(20, 27)] + [(30, 13)]
    snap0 += [(5, w) for w in range(6, 10)]
    snap1 = snap0 + [(0, 2), (0, 5), (3, 1), (12, 13)]
    return make_series([snap0, snap1], 31, directed=True)


class TestFormingCells:
    EGOS = [0, 3, 10, 12]

    # chunk 1 and 4 end a chunk exactly at a row end; 2 is shorter than
    # ego 12's new row; 3 ends inside a row
    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 8, 12, 1 << 16])
    @pytest.mark.parametrize("sym_pool", [False, True], ids=["successors", "symmetric"])
    def test_chunked_equals_unchunked(self, chunk, sym_pool, monkeypatch):
        series = _chunk_series()
        monkeypatch.setattr(ego_module, "_CHUNK", 1 << 40)
        whole = _forming_cells(series, self.EGOS, sym_pool)
        # ego 3's symmetric row is {4}, and 4 is linked to its new successor 1
        assert whole[:, 0].tolist() == [True, sym_pool, False, True]
        monkeypatch.setattr(ego_module, "_CHUNK", chunk)
        assert (_forming_cells(series, self.EGOS, sym_pool) == whole).all()

    def test_no_new_successor(self):
        series = make_series([[(0, 1), (1, 2)], [(0, 1), (1, 2), (2, 3)]], 4, directed=True)
        assert _forming_cells(series, [0, 1, 2], sym_pool=True).tolist() == [
            [False], [False], [False]]

    def test_no_egos(self):
        assert _forming_cells(_chunk_series(), [], sym_pool=False).shape == (0, 1)
