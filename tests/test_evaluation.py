"""Ranking, precision@k, and the multi-method evaluation harness."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import growing_snapshots, make_series, random_snapshots

from egolink import ego as ego_module
from egolink.ego import _forming_cells, ego_view, sample_egos
from egolink.errors import ConfigError, EmptyResultError, PreconditionError
from egolink.evaluation import (
    EXCLUSIONS,
    _top_ranker,
    eval_table,
    evaluate_methods,
    improvement_table,
    method_mode_pairs,
    percent_improvement,
    precision_at_k,
    rank_candidates,
    validate_ks,
)
from egolink.generators import GeneratorSpec, generate
from egolink.graph import build_snapshots
from egolink.scorers import ScoreTable, score_candidates


def _table(cands, scores, method="cn"):
    cands = np.asarray(cands, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    return ScoreTable(ego=0, mode="none", candidates=cands,
                      columns={method: scores}, cn_counts=scores)


class TestRanking:
    def test_ties_break_by_id(self):
        ranked = rank_candidates(_table([5, 3, 9], [1.0, 2.0, 2.0]))
        assert ranked.ranking.tolist() == [3, 9, 5]
        assert ranked.method == "cn"

    def test_ties_break_by_id_when_candidates_unsorted(self):
        ranked = rank_candidates(_table([9, 3], [1.0, 1.0]))
        assert ranked.ranking.tolist() == [3, 9]

    def test_table_sorts_unsorted_ids_with_their_scores(self):
        t = ScoreTable(ego=0, mode="none", candidates=np.array([5, 3, 9]),
                       columns={"aa": np.array([1.0, 2.0, 3.0])}, cn_counts=np.array([1, 2, 3]))
        assert t.candidates.tolist() == [3, 5, 9]
        assert t.scores("aa").tolist() == [2.0, 1.0, 3.0]
        assert t.cn_counts.tolist() == [2, 1, 3]

    def test_needs_single_method(self):
        t = ScoreTable(ego=0, mode="none",
                       candidates=np.array([1], dtype=np.int64),
                       columns={"cn": np.ones(1), "aa": np.ones(1)},
                       cn_counts=np.ones(1))
        with pytest.raises(ConfigError):
            rank_candidates(t)
        assert rank_candidates(t, "aa").method == "aa"


class TestPrecision:
    def test_values(self):
        ranked = rank_candidates(_table([3, 9, 5], [3.0, 2.0, 1.0]))
        assert precision_at_k(ranked, np.array([9]), 1) == 0.0
        assert precision_at_k(ranked, np.array([9]), 2) == 0.5
        assert precision_at_k(ranked, np.array([9, 5]), 3) == pytest.approx(2 / 3)

    def test_plain_array_accepted(self):
        assert precision_at_k(np.array([4, 2, 7]), np.array([2, 4]), 2) == 1.0

    @pytest.mark.parametrize("formed", [{7, 5, 8}, [8, 5, 7], np.array([8, 7, 5])],
                             ids=["set", "list", "unsorted-array"])
    def test_formed_any_iterable(self, formed):
        ranked = rank_candidates(_table([3, 5, 7, 9], [4.0, 3.0, 2.0, 1.0]))
        got = [precision_at_k(ranked, formed, k) for k in (1, 2, 3, 4)]
        assert got == [0.0, 0.5, 2 / 3, 0.5]

    def test_bounds(self):
        ranked = rank_candidates(_table([1, 2], [1.0, 2.0]))
        with pytest.raises(PreconditionError):
            precision_at_k(ranked, np.array([1]), 0)
        with pytest.raises(PreconditionError):
            precision_at_k(ranked, np.array([1]), 3)


class TestKs:
    def test_valid(self):
        validate_ks((1, 3, 5))
        assert validate_ks((1.0, np.int64(3))) == (1, 3)

    @pytest.mark.parametrize("bad", [(), (0, 1), (5, 5), (10, 5), (-1,), (1.5, 2)])
    def test_invalid(self, bad):
        with pytest.raises(ConfigError):
            validate_ks(bad)

    def test_above_int64_is_named_before_any_gather(self):
        with mock.patch("egolink.evaluation._cell_blocks", side_effect=AssertionError):
            with pytest.raises(ConfigError, match=f"ks: must be in 1..{2**63 - 1}, got {2**64}"):
                evaluate_methods(_hand_series(), ks=(2**64,))

    @pytest.mark.parametrize("bad", [("x",), (math.nan,), (math.inf,), (None,), (True, 3)],
                             ids=["text", "nan", "inf", "none", "bool"])
    def test_not_an_integer_is_named(self, bad):
        msg = "ks: must be a whole number, got"
        with pytest.raises(ConfigError, match=msg):
            validate_ks(bad)
        with pytest.raises(ConfigError, match=msg):
            evaluate_methods(_hand_series(), ks=bad)


class TestPairs:
    def test_cn_mode_free(self):
        pairs = method_mode_pairs(("cn", "aa", "pd-cn"), ("out", "in"))
        assert pairs == (
            ("cn", "none"),
            ("aa", "out"), ("aa", "in"),
            ("pd-cn", "out"), ("pd-cn", "in"),
        )


def _hand_series():
    # ego 0 via brokers 1, 2; candidates 3..6 with cn 2,1,1,1
    snap0 = [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 6)]
    snap1 = snap0 + [(0, 4), (0, 6)]
    return make_series([snap0, snap1], 7)


class TestEvaluate:
    def test_hand_computed(self):
        series = _hand_series()
        result = evaluate_methods(series, methods=("cn",), ks=(1, 2, 4))
        row1 = result.row("cn", "none", 1)
        assert row1.mean_p_at_k == 0.0
        assert result.row("cn", "none", 2).mean_p_at_k == 0.5
        assert result.row("cn", "none", 4).mean_p_at_k == 0.5
        assert row1.n_cells == 1
        assert result.metadata["n_cells"] == 1
        with pytest.raises(KeyError):
            result.row("cn", "none", 3)

    def test_same_cells_for_all_methods(self):
        snaps = random_snapshots(11, 16, 0.25, False, 3)
        series = make_series(snaps, 16)
        result = evaluate_methods(series, ks=(1, 2, 3))
        counts = {r.n_cells for r in result.rows}
        assert len(counts) == 1

    def test_cutoff_drops_whole_ego(self):
        # node 5's single transition has 5 candidates, node 0 has 2
        snap0 = [(0, 1), (1, 2), (1, 3),
                 (5, 6), (6, 7), (6, 8), (6, 9), (6, 10), (6, 11)]
        snap1 = snap0 + [(0, 2), (5, 7)]
        series = make_series([snap0, snap1], 12)
        result = evaluate_methods(series, methods=("cn",), ks=(1, 2), cutoff=3)
        assert result.metadata["n_egos_skipped_cutoff"] >= 1
        # node 6's candidates are within the cutoff but never form;
        # the surviving cells come from low-degree egos only
        assert result.metadata["n_cells"] >= 1
        big = evaluate_methods(series, methods=("cn",), ks=(1, 2))
        assert big.metadata["n_cells"] > result.metadata["n_cells"]

    def test_require_formation_toggle(self):
        # ego 0 forms one of its two candidates; ego 4 forms nothing
        snap0 = [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (5, 7)]
        snap1 = snap0 + [(0, 2)]
        series = make_series([snap0, snap1], 8)
        strict = evaluate_methods(series, methods=("cn",), ks=(1, 2))
        loose = evaluate_methods(series, methods=("cn",), ks=(1, 2),
                                 require_formation=False)
        assert loose.metadata["n_cells"] > strict.metadata["n_cells"]

    def test_min_candidates(self):
        series = _hand_series()
        ok = evaluate_methods(series, methods=("cn",), ks=(1,), min_candidates=4)
        assert ok.metadata["n_cells"] == 1
        with pytest.raises(EmptyResultError):
            evaluate_methods(series, methods=("cn",), ks=(1,), min_candidates=5)

    def test_ks_larger_than_candidates(self):
        series = _hand_series()
        with pytest.raises(EmptyResultError):
            evaluate_methods(series, methods=("cn",), ks=(50,))

    def test_needs_two_snapshots(self):
        series = make_series([[(0, 1)]], 2)
        with pytest.raises(ConfigError):
            evaluate_methods(series, ks=(1,))

    def test_needs_a_mode(self):
        with pytest.raises(ConfigError, match="at least one degree mode"):
            evaluate_methods(_hand_series(), modes=())

    @pytest.mark.parametrize("size", [0, -1])
    def test_sample_size_below_one(self, size):
        with pytest.raises(ConfigError, match="sample_size"):
            sample_egos(_hand_series(), size)

    def test_sampling_deterministic(self):
        snaps = random_snapshots(2, 20, 0.25, False, 3)
        series = make_series(snaps, 20)
        a = evaluate_methods(series, ks=(1, 2), egos=sample_egos(series, 6, seed=9))
        b = evaluate_methods(series, ks=(1, 2), egos=sample_egos(series, 6, seed=9))
        assert a.rows == b.rows
        assert a.metadata["n_egos_requested"] == 6

    def test_sampled_egos_keep_the_seeded_rows(self):
        # the rows and metadata that sample_size=6, seed=9 gave when
        # evaluate_methods drew its own sample
        series = make_series(random_snapshots(2, 20, 0.25, False, 3), 20)
        result = evaluate_methods(series, ks=(1, 2), egos=sample_egos(series, 6, seed=9))
        assert eval_table(result) == [
            ("cn", "none", 1, 0.0, 0.0, 7), ("cn", "none", 2, 0.1, 0.1, 7),
            ("aa", "undirected", 1, 0.0, 0.0, 7), ("aa", "undirected", 2, 0.1, 0.1, 7),
            ("pd-cn", "undirected", 1, 0.0, 0.0, 7),
            ("pd-cn", "undirected", 2, 0.05, 0.05000000000000001, 7),
            ("pd-aa", "undirected", 1, 0.0, 0.0, 7),
            ("pd-aa", "undirected", 2, 0.15, 0.09999999999999999, 7)]
        assert result.metadata == {
            "n_egos_requested": 6, "n_egos_contributing": 5, "n_egos_skipped_cutoff": 0,
            "n_cells": 7, "n_cells_excluded": {"ego_over_cutoff": 0, "no_formed_candidate": 5,
                                               "too_few_candidates": 0}}

    @pytest.mark.parametrize("bad, shown", [("1", "'1'"), (True, "True")],
                             ids=["text", "bool"])
    def test_ego_not_an_id_is_named(self, bad, shown):
        with pytest.raises(ConfigError, match=f"the first is {shown}"):
            evaluate_methods(_hand_series(), ks=(1,), egos=[bad])

    def test_workers_agree(self):
        snaps = random_snapshots(4, 18, 0.3, True, 3)
        series = make_series(snaps, 18, directed=True)
        one = evaluate_methods(series, ks=(1, 3), workers=1)
        two = evaluate_methods(series, ks=(1, 3), workers=2)
        assert one.rows == two.rows
        assert one.metadata == two.metadata

    def test_directed_default_modes(self):
        snaps = random_snapshots(8, 16, 0.3, True, 3)
        series = make_series(snaps, 16, directed=True)
        result = evaluate_methods(series, ks=(1,))
        modes = {r.mode for r in result.rows if r.method == "aa"}
        assert modes == {"out", "in", "undirected"}
        assert {r.mode for r in result.rows if r.method == "cn"} == {"none"}


def _hand_pooled(series, pairs, ks, cutoff):
    """Pool, by ``_util.pool_egos``'s rule, the public single-list P@K of
    every qualifying cell: ``{((method, mode), k): (mean, stderr, n_egos)}``."""
    per_ego = []
    for u in sample_egos(series):
        cells = {}
        for t in range(len(series) - 1):
            g, nxt = series[t], series[t + 1]
            candidates = score_candidates(g, int(u), methods=("cn",)).candidates
            if candidates.size > cutoff:
                cells = None
                break
            formed = set(candidates.tolist()) & set(nxt.successors(int(u)).tolist())
            if candidates.size < max(ks) or not formed:
                continue
            for method, mode in pairs:
                table = score_candidates(g, int(u), methods=(method,),
                                         mode="undirected" if mode == "none" else mode)
                ranked = rank_candidates(table, method)
                for k in ks:
                    cells.setdefault(((method, mode), k), []).append(
                        precision_at_k(ranked, formed, k))
        if cells:
            per_ego.append({key: float(np.mean(v)) for key, v in cells.items()})
    pooled = {}
    for key in per_ego[0]:
        means = np.array([cells[key] for cells in per_ego])
        stderr = float(means.std(ddof=1) / math.sqrt(means.size)) if means.size > 1 else 0.0
        pooled[key] = (float(means.mean()), stderr, means.size)
    return pooled


class TestCellPathAgainstPublicForms:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_rows_equal_hand_pooled(self, seed, directed):
        # cn scores are small integers that tie often, so this pins one tie
        # rule shared by the cell path and rank_candidates
        snaps = random_snapshots(seed, 24, 0.22, directed, 4)
        series = make_series(snaps, 24, directed=directed)
        ks, cutoff = (1, 2, 3, 5), 17
        result = evaluate_methods(series, ks=ks, cutoff=cutoff)
        pooled = _hand_pooled(series, result.pairs, ks, cutoff)
        assert result.metadata["n_egos_contributing"] == pooled[(result.pairs[0], 1)][2]
        got = {((r.method, r.mode), r.k): (r.mean_p_at_k, r.stderr) for r in result.rows}
        assert got == {key: value[:2] for key, value in pooled.items()}


def _hand_excluded(series, ks, cutoff, min_candidates):
    """Cells per reason of exclusion, by the full gather of every cell and
    the precedence cutoff, then no formed candidate, then too few."""
    excluded = dict.fromkeys(EXCLUSIONS, 0)
    n_t = len(series) - 1
    for u in sample_egos(series).tolist():
        reasons = []
        for t in range(n_t):
            candidates = ego_view(series[t], u).candidates
            if candidates.size > cutoff:
                reasons = ["ego_over_cutoff"] * n_t
                break
            if not set(candidates.tolist()) & set(series[t + 1].successors(u).tolist()):
                reasons.append("no_formed_candidate")
            elif candidates.size < max(min_candidates, max(ks)):
                reasons.append("too_few_candidates")
        for reason in reasons:
            excluded[reason] += 1
    return excluded


_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestFormationFirst:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @_SETTINGS
    @given(data=st.data(), chunk=st.sampled_from([1, 2, 5, 1 << 16]))
    def test_mask_is_formation(self, directed, data, chunk):
        # with the successor pool, a cell is True exactly when a candidate forms
        n, snaps = data.draw(growing_snapshots(directed))
        egos = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        series = make_series(snaps, n, directed=directed)
        with mock.patch.object(ego_module, "_CHUNK", chunk):
            mask = _forming_cells(series, egos, sym_pool=False)
        assert mask.shape == (len(egos), len(snaps) - 1)
        for t in range(len(snaps) - 1):
            out, _, sym = oracles.adjacency(n, snaps[t], directed)
            nout, _, _ = oracles.adjacency(n, snaps[t + 1], directed)
            assert mask[:, t].tolist() == [
                bool(oracles.candidates(out, sym, u) & nout[u]) for u in egos]

    def test_over_cutoff_where_nothing_forms(self):
        # ego 0's one candidate forms at t=0; at t=1 it has 6 candidates and
        # none forms: the cell may not be settled, or the ego would survive
        snap0 = [(0, 1), (1, 2), (11, 12), (12, 13)]
        snap1 = snap0 + [(0, 2), (11, 13)] + [(1, w) for w in range(3, 9)]
        snap2 = snap1 + [(9, 10)]
        series = make_series([snap0, snap1, snap2], 14, directed=True)
        assert not _forming_cells(series, [0], sym_pool=False)[0, 1]
        result = evaluate_methods(series, methods=("cn",), ks=(1,), cutoff=3)
        assert result.metadata["n_egos_skipped_cutoff"] == 1
        assert result.metadata["n_cells_excluded"]["ego_over_cutoff"] == 2
        assert result.metadata["n_cells"] == 1  # ego 11 at t=0

    @pytest.mark.parametrize("require_formation", [True, False])
    def test_exclusion_counts(self, require_formation):
        # a few egos over the cutoff, and cells of every other reason
        snaps = random_snapshots(8, 24, 0.15, True, 4, growth=0.5)
        series = make_series(snaps, 24, directed=True)
        kw = dict(ks=(1, 3), cutoff=18, min_candidates=9,
                  require_formation=require_formation)
        meta = evaluate_methods(series, workers=1, **kw).metadata
        assert evaluate_methods(series, workers=2, **kw).metadata == meta
        excluded = meta["n_cells_excluded"]
        n_t = len(series) - 1
        assert excluded["ego_over_cutoff"] == meta["n_egos_skipped_cutoff"] * n_t
        kept_egos = meta["n_egos_requested"] - meta["n_egos_skipped_cutoff"]
        assert (excluded["no_formed_candidate"] + excluded["too_few_candidates"]
                + meta["n_cells"]) == kept_egos * n_t
        if require_formation:
            assert excluded == _hand_excluded(series, kw["ks"], kw["cutoff"],
                                              kw["min_candidates"])
            assert min(excluded.values()) > 0
        else:
            assert excluded["no_formed_candidate"] == 0


class TestBlockCuts:
    """Blocks of one ego and the default blocks give the same result at
    every worker count, with every exclusion reason in play."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kw", [
        {},
        dict(require_formation=False),
        dict(cutoff=18, min_candidates=9),
        dict(cutoff=18, min_candidates=9, require_formation=False),
    ], ids=["default", "no-formation", "cutoff", "cutoff-no-formation"])
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    def test_one_ego_blocks_agree(self, monkeypatch, directed, kw, workers):
        seed, n = (8, 24) if directed else (5, 30)
        series = make_series(random_snapshots(seed, n, 0.15, directed, 4, growth=0.5), n,
                             directed=directed)
        modes = ("out", "in", "undirected") if directed else None
        default = evaluate_methods(series, modes=modes, ks=(1, 3), workers=workers, **kw)
        meta = default.metadata
        if "cutoff" in kw:
            assert 0 < meta["n_egos_skipped_cutoff"] < meta["n_egos_requested"]
        monkeypatch.setattr(ego_module, "_CHUNK", 1)
        single = evaluate_methods(series, modes=modes, ks=(1, 3), workers=workers, **kw)
        assert single.rows == default.rows
        assert single.metadata == meta


@st.composite
def _kept_blocks(draw):
    """A block as ``_cell_worker`` ranks it: per-slot candidate counts,
    the kept slots (each with at least ``n_top`` candidates; the unkept
    ones, of any size, sit between and at the ends), ``n_top``, and two
    score columns, each all-tied, integer-valued as ``cn`` or fractional."""
    n_top = draw(st.integers(1, 6))
    n_cand = np.array(draw(st.lists(st.one_of(st.integers(0, 14), st.just(n_top)),
                                    min_size=1, max_size=6)))
    one = draw(st.integers(0, n_cand.size - 1))
    n_cand[one] = max(n_cand[one], n_top)
    eligible = np.flatnonzero(n_cand >= n_top).tolist()
    kept = np.array(sorted(draw(st.sets(st.sampled_from(eligible), min_size=1))))
    size = int(n_cand.sum())
    values = {
        "tied": st.just(1.5),
        "cn": st.integers(0, 3).map(float),
        "fraction": st.one_of(st.floats(0.0, 3.0), st.sampled_from([1 / 3, 0.5, 2.25])),
    }
    columns = [np.array(draw(st.lists(values[draw(st.sampled_from(sorted(values)))],
                                      min_size=size, max_size=size)), dtype=np.float64)
               for _ in range(2)]
    return n_cand, kept, n_top, columns


class TestTopSelection:
    """Each kept slot's selected top is the prefix of its run in the full
    sort, for every column the one grid is refilled with."""

    @_SETTINGS
    @given(block=_kept_blocks())
    def test_selection_is_full_sort_prefix(self, block):
        n_cand, kept, n_top, columns = block
        slot = np.repeat(np.arange(n_cand.size), n_cand)
        top = _top_ranker(kept, n_cand, n_top)
        start = np.cumsum(n_cand) - n_cand
        for scores in columns:
            want = np.lexsort((-scores, slot))[start[kept, None] + np.arange(n_top)]
            assert np.array_equal(top(scores), want)

    def test_ties_at_the_last_place_break_by_id(self):
        # slot 1 is unkept; slot 2 ties three candidates at the 2nd place
        n_cand = np.array([2, 3, 5])
        scores = np.array([1.0, 1.0, 9.0, 9.0, 9.0, 0.5, 3.0, 0.5, 0.5, 0.2])
        top = _top_ranker(np.array([0, 2]), n_cand, 2)
        assert top(scores).tolist() == [[0, 1], [6, 5]]
        assert top(np.zeros(10)).tolist() == [[0, 1], [5, 6]]


class TestDirectedModes:
    """On a directed planted fixture, pd-cn in the planted mode has the
    higher P@10: a swap of ``out`` and ``in`` anywhere from the gather to
    the result rows inverts it. Committed seed 7; held-out seeds 8-12
    pass as well, with the planted mode 0.0017-0.0055 above."""

    @pytest.mark.parametrize("mode, other", [("out", "in"), ("in", "out")])
    def test_planted_mode_wins_top10(self, mode, other):
        spec = GeneratorSpec(kind="planted-scorer", n_nodes=1000, edge_prob=0.01,
                             method="pd-cn", n_snapshots=4, directed=True, mode=mode, seed=7)
        series = build_snapshots(generate(spec), preassigned=True)
        res = evaluate_methods(series, methods=("pd-cn",), modes=("out", "in"), ks=(10,))
        p = {m: res.row("pd-cn", m, 10).mean_p_at_k for m in (mode, other)}
        assert p[mode] > p[other], p


class TestImprovement:
    def test_hand_numbers(self):
        series = _hand_series()
        result = evaluate_methods(series, methods=("cn", "pd-cn"), ks=(1, 2, 4))
        rows = {(r.method, r.k): r.pct_improvement_vs_base
                for r in percent_improvement(result)}
        base2 = result.row("cn", "none", 2).mean_p_at_k
        got2 = result.row("pd-cn", "undirected", 2).mean_p_at_k
        assert rows[("pd-cn", 2)] == pytest.approx(100 * (got2 - base2) / base2)
        assert rows[("cn", 2)] == 0.0
        assert math.isnan(rows[("pd-cn", 1)])  # base precision is zero

    def test_base_must_exist(self):
        series = _hand_series()
        result = evaluate_methods(series, methods=("aa",), ks=(1,))
        with pytest.raises(ConfigError):
            percent_improvement(result)

    def test_ambiguous_base(self):
        snaps = random_snapshots(8, 16, 0.3, True, 3)
        series = make_series(snaps, 16, directed=True)
        result = evaluate_methods(series, methods=("cn", "pd-cn"), ks=(1,),
                                  modes=("out", "in"))
        with pytest.raises(ConfigError):
            percent_improvement(result, base="pd-cn")


class TestDeterminism:
    @pytest.mark.parametrize("fixture, expected", [
        ("directed-uniform",
         (80, "93635f84046331feaba79f2e5740498621397a7ddbab81ebf5045982d2cfba0c")),
        ("undirected-planted",
         (32, "4ce19f10e1bda543331c3036431f6cf421b6b55e23257ca28590c36fceb45611")),
    ])
    def test_frozen_eval_output(self, fixture, expected):
        # frozen tables: any change in cell qualification, ranking ties,
        # P@K or pooling changes the digest
        if fixture == "directed-uniform":
            spec = GeneratorSpec(kind="uniform-random", n_nodes=80, edge_prob=0.15,
                                 directed=True, seed=7)
            series = build_snapshots(generate(spec), fixed_count=4)
            result = evaluate_methods(series, modes=("out", "in", "undirected"),
                                      ks=(1, 3, 5, 10))
        else:
            spec = GeneratorSpec(kind="planted-scorer", n_nodes=150, edge_prob=0.06,
                                 method="pd-cn", n_snapshots=3, seed=5)
            series = build_snapshots(generate(spec), preassigned=True)
            result = evaluate_methods(series, ks=(1, 3, 5, 10), workers=2)
        rows = eval_table(result) + improvement_table(percent_improvement(result))
        h = hashlib.sha256()
        for row in rows:
            h.update(repr(row).encode())
        assert (len(rows), h.hexdigest()) == expected
