"""Property tests of the wedge gather (``ego_view``) and the personalized
degrees read from it, the snapshot rows and link configs it reads
(``SnapshotGraph.sym_config``) and the push kernel against the
set-arithmetic oracle."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import make_graph, push_wedges

import egolink.ego as ego_module
from egolink._kernels import accumulate_common_terms
from egolink.ego import (
    _gather_block,
    ALL_MODES,
    EdgeConfig,
    TRIAD_TABLE,
    edge_config,
    ego_blocks,
    ego_view,
    personalized_degree,
    personalized_degrees,
    two_hop_candidates,
)
from egolink.errors import ConfigError, PreconditionError
from egolink.scorers import ALL_METHODS, score_block, score_candidates

_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# (n_nodes, directed, edge pairs, ego)
_EMPTY = (1, False, [], 0)
_NO_NEIGHBORS = (6, True, [(1, 2), (2, 3), (3, 0), (4, 0)], 0)
_ISOLATED = (9, False, [(0, 1), (1, 2), (2, 3)], 0)
_HUB = (7, True, [(0, w) for w in range(1, 7)] + [(2, 3), (4, 2), (5, 6), (6, 5)], 0)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    directed = draw(st.booleans())
    node = st.integers(0, n - 1)
    pairs = [(a, b) for a, b in draw(st.lists(st.tuples(node, node), max_size=40))
             if a != b]
    ego = draw(node)
    if draw(st.booleans()):
        # a hub ego linked to every node
        pairs += [(ego, w) for w in range(n) if w != ego]
    return n, directed, pairs, ego


def _view_arrays(view):
    """Every array of an ``EgoView`` with its dtype, None for an absent one,
    and its slots per ego."""
    arrays = [view.egos, view.base, view.candidates, view.cand_slot, view.wedge_z,
              view.wedge_v] + [view._pd[m] for m in sorted(view._pd)]
    return (sorted(view._pd), view.slots,
            [None if a is None else (a.dtype.str, a.tolist()) for a in arrays])


def _both_steps(call):
    """The views of ``call()`` with the candidate step forced to the sort,
    checked equal, array for array, to those with it forced to the scan."""
    runs = []
    for bins_per_wedge in (0, 1 << 62):
        with mock.patch.object(ego_module, "_SCAN_BINS_PER_WEDGE", bins_per_wedge):
            runs.append(list(call()))
    assert [_view_arrays(v) for v in runs[0]] == [_view_arrays(v) for v in runs[1]]
    return runs[0]


def _oracle(graph):
    n, directed, pairs, ego = graph
    return make_graph(pairs, n, directed), oracles.adjacency(n, pairs, directed)


@_SETTINGS
@given(graph=graphs())
@example(graph=_EMPTY)
@example(graph=_NO_NEIGHBORS)
@example(graph=_ISOLATED)
@example(graph=_HUB)
def test_ego_view_against_oracle(graph):
    n, directed, pairs, ego = graph
    g, (out, inn, sym) = _oracle(graph)
    view = ego_view(g, ego)
    assert view.base.tolist() == sorted(out[ego])
    want = sorted(oracles.candidates(out, sym, ego))
    assert view.candidates.tolist() == want
    assert two_hop_candidates(g, ego).tolist() == want
    for mode in ALL_MODES if directed else ("undirected",):
        assert view.pd(mode).tolist() == [
            oracles.pdeg(out, inn, sym, ego, z, mode) for z in view.base.tolist()]
    _, counts = view.accumulate(np.zeros((view.base.size, 0)))
    assert counts.tolist() == [len(oracles.common(out, sym, ego, v)) for v in want]


@_SETTINGS
@given(graph=graphs(), seed=st.integers(0, 2**32 - 1))
@example(graph=_EMPTY, seed=0)
@example(graph=_NO_NEIGHBORS, seed=0)
@example(graph=_ISOLATED, seed=0)
@example(graph=_HUB, seed=0)
def test_accumulate_against_oracle(graph, seed):
    n, directed, pairs, ego = graph
    g, (out, inn, sym) = _oracle(graph)
    base = g.successors(ego)
    terms = np.random.default_rng(seed).normal(size=(base.size, 2))
    every_node = np.arange(n, dtype=np.int64)
    # sums over z in base with v in row(z): symmetric rows give v's common
    # neighbors with the ego; in-rows give the z with z in out(v)
    for indptr, indices, linked in (
        (g.sym_indptr, g.sym_indices, sym),
        (g.in_indptr, g.in_indices, out),
    ):
        sums, counts = accumulate_common_terms(
            *push_wedges(indptr, indices, base, every_node), terms, n)
        for v in range(n):
            zs = [i for i, z in enumerate(base.tolist()) if z in linked[v]]
            assert counts[v] == len(zs)
            for k in range(terms.shape[1]):
                expected = 0.0
                for i in zs:
                    expected += float(terms[i, k])
                assert sums[v, k] == expected


def _echoed(pairs, echo):
    """``pairs`` with some of them re-inserted after the originals, as
    they are or reversed, so that duplicates and reciprocal links arrive
    in either order."""
    return pairs + [pairs[i][::-1] if rev else pairs[i] for i, rev in echo
                    if i < len(pairs)]


_ECHOES = st.lists(st.tuples(st.integers(0, 60), st.booleans()), max_size=20)


@_SETTINGS
@given(graph=graphs(), echo=_ECHOES)
@example(graph=_EMPTY, echo=[])
@example(graph=_NO_NEIGHBORS, echo=[])
@example(graph=_HUB, echo=[(0, True), (6, False), (7, True)])
@example(graph=(2, True, [(0, 1), (1, 0), (0, 1)], 0), echo=[])
@example(graph=(3, True, [(1, 0), (0, 1), (1, 0), (2, 1)], 0), echo=[(3, False)])
def test_rows_and_sym_config_against_oracle(graph, echo):
    n, directed, pairs, _ = graph
    pairs = _echoed(pairs, echo)
    g = make_graph(pairs, n, directed)
    out, inn, sym = oracles.adjacency(n, pairs, directed)
    for v in range(n):
        assert g.successors(v).tolist() == sorted(out[v])
        assert g.predecessors(v).tolist() == sorted(inn[v])
        assert g.neighbors(v).tolist() == sorted(sym[v])
        assert (g.out_degree[v], g.in_degree[v], g.sym_degree[v]) == (
            len(out[v]), len(inn[v]), len(sym[v]))
        for z in range(n):
            want = None if z not in sym[v] else (
                oracles.link_config(out, inn, v, z) if directed else EdgeConfig.RECIPROCAL)
            assert edge_config(g, v, z) == want
    assert g.n_edges == sum(map(len, out.values())) // (1 if directed else 2)
    if not directed:
        with pytest.raises(PreconditionError):
            g.sym_config
        return
    config = g.sym_config
    assert config.dtype == np.int8 and config.shape == g.sym_indices.shape
    assert not config.flags.writeable
    for v in range(n):
        for i in range(g.sym_indptr[v], g.sym_indptr[v + 1]):
            z = int(g.sym_indices[i])
            assert config[i] == oracles.link_config(out, inn, v, z)
            assert edge_config(g, v, z) == config[i]
    h = pickle.loads(pickle.dumps(g))
    assert h.sym_config.tolist() == config.tolist()


@_SETTINGS
@given(graph=graphs(), echo=_ECHOES)
@example(graph=_HUB, echo=[(0, True), (6, False), (7, True)])
@example(graph=(4, True, [(0, 1), (0, 2), (2, 1), (1, 3), (3, 1), (3, 0)], 0),
         echo=[(2, True), (4, False)])
def test_gathered_pd_against_oracle(graph, echo):
    # pd read from the ego's gather agrees with the mode rows' form and
    # the oracle for every ego, node of its pool and mode
    n, directed, pairs, _ = graph
    pairs = _echoed(pairs, echo)
    g = make_graph(pairs, n, directed)
    out, inn, sym = oracles.adjacency(n, pairs, directed)
    for u in range(n):
        view = ego_view(g, u)
        for mode in ALL_MODES if directed else ("undirected",):
            want = [oracles.pdeg(out, inn, sym, u, z, mode) for z in view.base.tolist()]
            assert view.pd(mode).tolist() == want
            assert personalized_degrees(g, u, view.base, mode).tolist() == want
        if not directed:
            for mode in ("out", "in"):
                with pytest.raises(ConfigError):
                    view.pd(mode)


@_SETTINGS
@given(graph=graphs(), echo=_ECHOES)
@example(graph=_EMPTY, echo=[])
@example(graph=_NO_NEIGHBORS, echo=[])
@example(graph=_HUB, echo=[(0, True), (6, False), (7, True)])
def test_personalized_degree_equals_rows_form(graph, echo):
    # the one-pair helper reads the ego's gather; the rows' form is the
    # reference, for every ego, neighbor and mode, and a node outside the
    # ego's neighborhood has no personalized degree
    n, directed, pairs, _ = graph
    g = make_graph(_echoed(pairs, echo), n, directed)
    for u in range(n):
        base = g.successors(u)
        for mode in ALL_MODES if directed else ("undirected",):
            assert [personalized_degree(g, u, z, mode) for z in base.tolist()] == \
                personalized_degrees(g, u, base, mode).tolist()
        for z in sorted(set(range(n)) - set(base.tolist())):
            with pytest.raises(PreconditionError):
                personalized_degree(g, u, z)


@_SETTINGS
@given(graph=graphs(), echo=_ECHOES, egos=st.lists(st.integers(0, 11), min_size=1, max_size=15))
@example(graph=_EMPTY, echo=[], egos=[0, 0])
@example(graph=_NO_NEIGHBORS, echo=[], egos=[0, 1, 0, 4])
@example(graph=_ISOLATED, echo=[(1, True)], egos=[8, 0, 2, 2])
@example(graph=_HUB, echo=[(0, True), (6, False), (7, True)], egos=[0, 2, 0, 5, 6])
def test_pd_only_gather_equals_wedge_gather(graph, echo, egos):
    # a gather without wedges reads only the rows its modes count, and its
    # pd is the wedge gather's, for each mode alone and all together, on
    # either pool; echoes make links reciprocal, ego 0 of _NO_NEIGHBORS has
    # no successor, and nodes 4 to 8 of _ISOLATED have no link
    n, directed, pairs, _ = graph
    g = make_graph(_echoed(pairs, echo), n, directed)
    egos = np.array([u % n for u in egos], dtype=np.int64)
    modes = ALL_MODES if directed else ("undirected",)
    for sym_pool in (False, True) if directed else (False,):
        wedge = _gather_block(g, egos, modes, sym_pool=sym_pool)
        for chosen in [modes] + [(mode,) for mode in modes]:
            bare = _gather_block(g, egos, chosen, wedges=False, sym_pool=sym_pool)
            assert bare.base.tolist() == wedge.base.tolist()
            assert bare.candidates is None and bare.wedge_z is None
            assert sorted(bare._pd) == sorted(chosen)
            for mode in chosen:
                assert bare.pd(mode).dtype == np.int64
                assert bare.pd(mode).tolist() == wedge.pd(mode).tolist()


@pytest.mark.parametrize("mode, degree", [("out", "out_degree"), ("in", "in_degree")])
def test_pd_only_gather_reads_mode_rows(mode, degree):
    # a pd-only gather of mode out or in reads the egos' successor rows,
    # then one row per pool node z: its successors or its predecessors,
    # never its longer symmetric row
    rng = np.random.default_rng(7)
    pairs = [tuple(p) for p in rng.integers(0, 40, size=(160, 2)).tolist()]
    g = make_graph(pairs, 40, directed=True)
    egos = np.arange(40, dtype=np.int64)
    gathered, gather_rows = [], ego_module._kernels.gather_rows

    def recording(indptr, rows):
        slot, pos = gather_rows(indptr, rows)
        gathered.append(pos.size)
        return slot, pos

    with mock.patch.object(ego_module._kernels, "gather_rows", recording):
        views = list(ego_blocks(g, egos, (mode,), wedges=False))
    pools = [view.base for view in views]
    assert gathered[0::2] == [pool.size for pool in pools]
    assert gathered[1::2] == [int(getattr(g, degree)[pool].sum()) for pool in pools]
    assert sum(gathered[1::2]) < int(g.sym_degree[g.out_indices].sum())


@settings(_SETTINGS, max_examples=100)
@given(graph=graphs(), data=st.data())
@example(graph=_EMPTY, data=None)
@example(graph=_NO_NEIGHBORS, data=None)
@example(graph=_HUB, data=None)
def test_blocks_equal_single_ego_tables(graph, data):
    # every block budget cuts the same per-ego pd, candidates and scores,
    # and the scan and the sort of the candidate step the same views;
    # ego 0 of _NO_NEIGHBORS has no successor, and ego 0 of _HUB gathers
    # 12 entries, more than budgets 1, 2 and 5; budget 30 lets the
    # gathered entries, not the bins, end some blocks. A wedge block's bins
    # may take as many bytes as the graph's symmetric rows, and a pd-only
    # block holds 1 byte per bin against a wedge block's 6 within the fixed
    # budget, so its blocks end elsewhere: its pd is compared over all
    # egos, and its budget apart
    n, directed, pairs, _ = graph
    g = make_graph(pairs, n, directed)
    egos = np.arange(n) if data is None else np.array(
        data.draw(st.permutations(range(n))), dtype=np.int64)
    for budget in (1, 2, 5, 30, ego_module._CHUNK):
        for mode in ALL_MODES if directed else ("undirected",):
            with mock.patch.object(ego_module, "_CHUNK", budget):
                blocks = _both_steps(lambda: ego_blocks(g, egos, (mode,)))
                bare = _both_steps(lambda: ego_blocks(g, egos, (mode,), wedges=False))
            for views in (blocks, bare):
                assert np.concatenate([b.egos for b in views]).tolist() == egos.tolist()
            assert np.concatenate([b.pd(mode) for b in bare]).tolist() == \
                np.concatenate([b.pd(mode) for b in blocks]).tolist()
            mode_degree = ego_module._mode_rows(g, mode)[2]
            for pd_only in bare:
                assert pd_only.egos.size == 1 or (
                    pd_only.egos.size * n * ego_module._MARK_BIN_BYTES
                    <= budget * ego_module._WEDGE_BIN_BYTES
                    and mode_degree[pd_only.base].sum() <= budget)
            for block in blocks:
                assert block.egos.size == 1 or (
                    block.egos.size * n * ego_module._WEDGE_BIN_BYTES
                    <= max(budget * ego_module._WEDGE_BIN_BYTES, g.sym_indices.nbytes)
                    and g.sym_degree[block.base].sum() <= budget)
                columns, counts = score_block(block, ALL_METHODS, mode)
                base_ptr = np.concatenate(([0], np.cumsum(g.out_degree[block.egos])))
                cand_ptr = np.searchsorted(block.cand_slot, np.arange(block.egos.size + 1))
                for i, u in enumerate(block.egos.tolist()):
                    base = block.base[base_ptr[i]:base_ptr[i + 1]]
                    assert base.tolist() == g.successors(u).tolist()
                    assert block.pd(mode)[base_ptr[i]:base_ptr[i + 1]].tolist() == \
                        personalized_degrees(g, u, base, mode).tolist()
                    at = slice(cand_ptr[i], cand_ptr[i + 1])
                    table = score_candidates(g, u, mode=mode)
                    assert block.candidates[at].tolist() == table.candidates.tolist()
                    assert counts[at].tolist() == table.cn_counts.tolist()
                    for method in ALL_METHODS:
                        assert columns[method][at].tolist() == table.scores(method).tolist()


def test_wedge_blocks_take_graph_sized_bins():
    # the complete graph on 40 nodes holds 1560 symmetric entries, 12480
    # bytes: with _CHUNK 100, a wedge block of egos that gather nothing
    # takes 12480 // (6 * 40) = 52 egos, a pd-only block 600 // 40 = 15
    n = 40
    g = make_graph([(u, v) for u in range(n) for v in range(u + 1, n)], n, False)
    sizes = np.zeros(100, dtype=np.int64)
    with mock.patch.object(ego_module, "_CHUNK", 100):
        wedge_runs = list(ego_module._block_runs(g, sizes))
        mark_runs = list(ego_module._block_runs(g, sizes, wedges=False))
    assert wedge_runs == [(0, 52), (52, 100)]
    assert [b - a for a, b in mark_runs] == [15] * 6 + [10]


@settings(_SETTINGS, max_examples=100)
@given(graph=graphs(), data=st.data())
@example(graph=_EMPTY, data=None)
@example(graph=_NO_NEIGHBORS, data=None)
@example(graph=_HUB, data=None)
def test_per_triad_blocks_against_oracle(graph, data):
    # one block of several egos, in any order and with repeats, keyed by
    # triad: per ego i and triad T, the candidates of slot 9 i + T - 1 are
    # those of the pool of T's ego-edge config reached by a wedge of T's
    # neighbor-edge config; they run ascending, and their wedges, wedge
    # counts and pd in every mode match the oracle; the scan and the sort agree
    n, _, pairs, _ = graph
    g = make_graph(pairs, n, directed=True)
    out, inn, sym = oracles.adjacency(n, pairs, True)
    egos = np.arange(n) if data is None else np.array(
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 2)), dtype=np.int64)
    (view,) = _both_steps(lambda: [_gather_block(g, egos, ALL_MODES, sym_pool=True)])
    assert view.egos.tolist() == egos.tolist() and view.slots == 9
    assert (np.diff(view.wedge_z) >= 0).all()
    assert (np.diff(view.cand_slot) >= 0).all() and view.cand_slot.size == view.candidates.size
    _, counts = view.accumulate(np.zeros((view.base.size, 0)))
    base_ptr = np.concatenate(([0], np.cumsum(g.sym_degree[egos])))
    n_cand = 0
    for i, u in enumerate(egos.tolist()):
        base = view.base[base_ptr[i]:base_ptr[i + 1]].tolist()
        assert base == sorted(sym[u])
        for mode in ALL_MODES:
            assert view.pd(mode)[base_ptr[i]:base_ptr[i + 1]].tolist() == [
                oracles.pdeg(out, inn, sym, u, z, mode) for z in base]
        for c, (pool, cand) in oracles.triad_pools(out, inn, sym, u).items():
            for nb in range(3):
                want = sorted((z, v) for z in pool for v in sym[z] & cand
                              if oracles.link_config(out, inn, z, v) == nb)
                reached = sorted({v for _, v in want})
                at = (view.cand_slot == 9 * i + TRIAD_TABLE[c, nb] - 1).nonzero()[0]
                n_cand += at.size
                assert view.candidates[at].tolist() == reached
                assert counts[at].tolist() == [sum(v == w for _, w in want) for v in reached]
                onto = np.isin(view.wedge_v, at)
                assert sorted(zip(view.base[view.wedge_z[onto]].tolist(),
                                  view.candidates[view.wedge_v[onto]].tolist())) == want
    assert n_cand == view.candidates.size
