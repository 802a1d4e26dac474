"""Formed vs not-formed degree statistics, plain and per-triad."""

import hashlib
import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import growing_snapshots, make_series, random_snapshots

from egolink import ego as ego_module
from egolink.ego import _forming_cells, resolve_modes
from egolink.empirical import (
    EXCLUSIONS,
    aggregate_empirical,
    ego_snapshot_stats,
    empirical_table,
)
from egolink.errors import ConfigError, EmptyInputError, EmptyResultError
from egolink.generators import GeneratorSpec, generate
from egolink.graph import build_snapshots


def _row_map(stats):
    return {
        (None if r.triad is None else int(r.triad), r.mode, r.group, r.degree_kind): r
        for r in stats.rows
    }


class TestHandComputed:
    def test_plain_cell(self):
        # u(0) knows z1(1), z2(2); v1(3) sits behind both, v2(4) behind z1
        snaps = [
            [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)],
            [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (0, 3)],
        ]
        series = make_series(snaps, 5)
        stats = aggregate_empirical(series, egos=np.array([0]))
        rows = _row_map(stats)
        key = (None, "undirected", "formed", "global")
        assert rows[key].mean == pytest.approx(
            (math.log(4) + math.log(3)) / 2, abs=1e-12)
        assert rows[(None, "undirected", "formed", "personalized")].mean == 0.0
        assert rows[(None, "undirected", "not-formed", "global")].mean == \
            pytest.approx(math.log(4), abs=1e-12)
        assert all(r.n_egos == 1 and r.stderr == 0.0 for r in stats.rows)

    def test_triad_cell(self):
        # u->z, z->v1, z->v2; only v1 forms
        snaps = [
            [(0, 1), (1, 2), (1, 3)],
            [(0, 1), (1, 2), (1, 3), (0, 2)],
        ]
        series = make_series(snaps, 4, directed=True)
        stats = aggregate_empirical(series, per_triad=True)
        rows = _row_map(stats)
        # all usable cells are T01: ego-out bridge, z->v out-only
        assert {k[0] for k in rows} == {1}
        assert rows[(1, "out", "formed", "global")].mean == \
            pytest.approx(math.log(3), abs=1e-12)
        assert rows[(1, "in", "formed", "global")].mean == \
            pytest.approx(math.log(2), abs=1e-12)
        assert rows[(1, "out", "formed", "personalized")].mean == 0.0
        assert rows[(1, "out", "not-formed", "global")].mean == \
            pytest.approx(math.log(3), abs=1e-12)

    def test_contributing_egos_are_distinct(self):
        # ego 0 sees only T01 (u->z, z->v); ego 4 sees only T03 (u->z, v->z)
        snaps = [
            [(0, 1), (1, 2), (1, 3), (4, 5), (6, 5), (7, 5)],
            [(0, 1), (1, 2), (1, 3), (4, 5), (6, 5), (7, 5), (0, 2), (4, 6)],
        ]
        series = make_series(snaps, 8, directed=True)
        stats = aggregate_empirical(series, egos=np.array([0, 4]), per_triad=True)
        assert {int(r.triad) for r in stats.rows} == {1, 3}
        assert all(r.n_egos == 1 for r in stats.rows)
        assert stats.diagnostics["n_egos_contributing"] == 2

    def test_cell_view(self):
        snaps = [
            [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)],
            [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (0, 3)],
        ]
        series = make_series(snaps, 5)
        cell = ego_snapshot_stats(series, 0, 0)[None]
        groups = cell["undirected"]
        assert groups["formed"].n_candidates == 1
        assert groups["not-formed"].n_candidates == 1
        assert groups["formed"].mean_log_personalized == 0.0


class TestExclusions:
    def test_all_formed_excluded(self):
        snaps = [[(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]]
        series = make_series(snaps, 3)
        with pytest.raises(EmptyResultError):
            aggregate_empirical(series, egos=np.array([0]))

    def test_none_formed_excluded(self):
        # the only new edge joins two isolated nodes: no candidate forms
        snaps = [[(0, 1), (1, 2)], [(0, 1), (1, 2), (3, 4)]]
        series = make_series(snaps, 5)
        with pytest.raises(EmptyResultError) as info:
            aggregate_empirical(series)
        assert "n_egos_requested" in info.value.diagnostics

    def test_needs_two_snapshots(self):
        series = make_series([[(0, 1)]], 2)
        with pytest.raises(ConfigError, match="2 snapshots"):
            aggregate_empirical(series)

    def test_per_triad_needs_directed(self):
        series = make_series([[(0, 1)], [(0, 1), (1, 2)]], 3)
        with pytest.raises(ConfigError):
            aggregate_empirical(series, per_triad=True)

    def test_empty_ego_list(self):
        series = make_series([[(0, 1)], [(0, 1), (1, 2)]], 3)
        with pytest.raises(EmptyInputError):
            aggregate_empirical(series, egos=np.array([], dtype=np.int64))

    @pytest.mark.parametrize("egos", [[-1], [2, -2], [3]])
    def test_egos_out_of_range(self, egos):
        # a negative id must not wrap around to a node at the end
        series = make_series([[(0, 1)], [(0, 1), (1, 2)]], 3)
        with pytest.raises(IndexError, match="out of range"):
            aggregate_empirical(series, egos=np.array(egos))


class TestDefaults:
    def test_mode_sets(self):
        assert resolve_modes(False, None, False) == ("undirected",)
        assert resolve_modes(True, None, False) == ("out", "in", "undirected")
        assert resolve_modes(True, None, True) == ("out", "in")

    def test_plain_directed_row_count(self):
        snaps = random_snapshots(7, 12, 0.3, True, 3)
        series = make_series(snaps, 12, directed=True)
        stats = aggregate_empirical(series)
        assert len(stats.rows) == 3 * 2 * 2
        order = [(r.mode, r.group, r.degree_kind) for r in stats.rows]
        assert order[0] == ("out", "formed", "global")
        assert order[1] == ("out", "formed", "personalized")
        assert order[2] == ("out", "not-formed", "global")


class TestAgainstOracle:
    @pytest.mark.parametrize("directed", [False, True])
    def test_plain(self, directed):
        for seed in range(12):
            n = 10
            snaps = random_snapshots(seed, n, 0.25, directed, 3)
            series = make_series(snaps, n, directed=directed)
            modes = resolve_modes(directed, None, False)
            want = oracles.empirical_aggregate(n, snaps, directed, False, list(modes))
            # the oracle covers every node, not only those with neighbors at t = 0
            egos = np.arange(n)
            if not want:
                with pytest.raises(EmptyResultError):
                    aggregate_empirical(series, egos)
                continue
            rows = _row_map(aggregate_empirical(series, egos))
            assert set(rows) == set(want)
            for key, (mean, se, n_egos) in want.items():
                assert rows[key].mean == pytest.approx(mean, abs=1e-12)
                assert rows[key].stderr == pytest.approx(se, abs=1e-12)
                assert rows[key].n_egos == n_egos

    @pytest.mark.parametrize("n, p, modes", [
        pytest.param(10, 0.25, None, id="10-0.25"),
        pytest.param(12, 0.5, None, id="12-0.5"),
        pytest.param(12, 0.5, ("out", "in", "undirected"), id="12-0.5-undirected"),
    ])
    def test_triad_cells(self, n, p, modes):
        # dense graphs give candidates several common neighbors per config
        modes = resolve_modes(True, modes, True)
        reasons = dict.fromkeys(EXCLUSIONS, 0)
        for seed in range(6):
            snaps = random_snapshots(200 + seed, n, p, True, 3)
            series = make_series(snaps, n, directed=True)
            for t in range(len(snaps) - 1):
                for ego in range(n):
                    # each excluded cell under its reason, per (ego, t)
                    excluded = dict.fromkeys(EXCLUSIONS, 0)
                    got = ego_snapshot_stats(series, t, ego, per_triad=True,
                                             degree_modes=modes, excluded=excluded)
                    want_excluded = dict.fromkeys(EXCLUSIONS, 0)
                    want = oracles.triad_cells(n, snaps[t], snaps[t + 1], ego, list(modes),
                                               excluded=want_excluded)
                    assert excluded == want_excluded, (seed, t, ego)
                    for reason, count in excluded.items():
                        reasons[reason] += count
                    assert {int(k) for k in got} == set(want)
                    for key, cell in got.items():
                        ref = want[int(key)]
                        assert (cell is None) == (ref is None), (seed, t, ego, key)
                        if cell is None:
                            continue
                        for m in modes:
                            for group, (g, pd) in ref[m].items():
                                stats = cell[m][group]
                                assert stats.mean_log_global == pytest.approx(g, abs=1e-12)
                                assert stats.mean_log_personalized == \
                                    pytest.approx(pd, abs=1e-12)
        # both reasons occur, so a swapped reason would show
        assert min(reasons.values()) > 0

    def test_per_triad(self):
        for modes, seed in product((("out", "in"), ("out", "in", "undirected")), range(12)):
            n = 10
            snaps = random_snapshots(100 + seed, n, 0.25, True, 3)
            series = make_series(snaps, n, directed=True)
            want = oracles.empirical_aggregate(n, snaps, True, True, list(modes))
            if not want:
                with pytest.raises(EmptyResultError):
                    aggregate_empirical(series, per_triad=True, degree_modes=modes)
                continue
            rows = _row_map(aggregate_empirical(series, per_triad=True,
                                                degree_modes=modes))
            assert set(rows) == set(want)
            for key, (mean, se, n_egos) in want.items():
                assert rows[key].mean == pytest.approx(mean, abs=1e-12)
                assert rows[key].stderr == pytest.approx(se, abs=1e-12)
                assert rows[key].n_egos == n_egos


class TestDeterminism:
    @pytest.mark.parametrize("per_triad", [False, True], ids=["plain", "per-triad"])
    def test_workers_agree(self, per_triad):
        snaps = random_snapshots(3, 14, 0.3, True, 3)
        series = make_series(snaps, 14, directed=True)
        one = aggregate_empirical(series, per_triad=per_triad, workers=1)
        two = aggregate_empirical(series, per_triad=per_triad, workers=2)
        assert one.rows == two.rows

    def test_frozen_per_triad_output(self):
        # frozen table: any change in a cell's candidates, wedges, terms
        # or their summation order changes the digest
        spec = GeneratorSpec(kind="uniform-random", n_nodes=80, edge_prob=0.15,
                             directed=True, seed=7)
        series = build_snapshots(generate(spec), fixed_count=4)
        rows = empirical_table(aggregate_empirical(series, per_triad=True))
        assert sorted({row[0] for row in rows}) == [f"T0{i}" for i in range(1, 10)]
        h = hashlib.sha256()
        for row in rows:
            h.update(repr(row).encode())
        assert (len(rows), h.hexdigest()) == (
            72, "5a0986389ce85d9a496ba7dc3b47fdfc9efa08e19eb2661bc2debe7a618c2667")

    def test_frozen_plain_directed_output(self):
        # frozen table of plain cells in every directed mode
        spec = GeneratorSpec(kind="uniform-random", n_nodes=80, edge_prob=0.15,
                             directed=True, seed=7)
        series = build_snapshots(generate(spec), fixed_count=4)
        stats = aggregate_empirical(series, degree_modes=("out", "in", "undirected"))
        rows = empirical_table(stats)
        h = hashlib.sha256()
        for row in rows:
            h.update(repr(row).encode())
        assert (len(rows), h.hexdigest()) == (
            12, "5ff5ef86fb879ec2c59830daba992e298a07235a91dc6a7aab3bd106e41739c2")
        assert (stats.diagnostics["n_cells"], stats.diagnostics["n_cells_excluded"]) == (
            159, {"no_formed_candidate": 81, "all_formed": 0})


class TestFormationFirst:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=growing_snapshots(directed=True), chunk=st.sampled_from([1, 2, 5, 1 << 16]))
    def test_settled_triad_cells_are_excluded(self, case, chunk):
        # with the symmetric pool, a False cell has no usable triad cell
        n, snaps = case
        series = make_series(snaps, n, directed=True)
        with mock.patch.object(ego_module, "_CHUNK", chunk):
            mask = _forming_cells(series, np.arange(n), sym_pool=True)
        for u, t in zip(*np.nonzero(~mask)):
            cells = oracles.triad_cells(n, snaps[t], snaps[t + 1], int(u), ["out"])
            assert all(cell is None for cell in cells.values()), (u, t)

    def test_reasons_by_hand(self):
        # ego 0's one candidate forms, ego 3's never does
        snaps = [[(0, 1), (1, 2), (3, 4), (4, 5)],
                 [(0, 1), (1, 2), (3, 4), (4, 5), (0, 2)]]
        with pytest.raises(EmptyResultError) as info:
            aggregate_empirical(make_series(snaps, 6), egos=np.array([0, 3]))
        assert info.value.diagnostics["n_cells"] == 0
        assert info.value.diagnostics["n_cells_excluded"] == {
            "no_formed_candidate": 1, "all_formed": 1}
        # per triad: T01 is all formed; the other eight have no candidate
        series = make_series([[(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]], 3, directed=True)
        with pytest.raises(EmptyResultError) as info:
            aggregate_empirical(series, egos=np.array([0]), per_triad=True)
        assert info.value.diagnostics["n_cells_excluded"] == {
            "no_formed_candidate": 8, "all_formed": 1}

    @pytest.mark.parametrize("per_triad", [False, True], ids=["plain", "per-triad"])
    def test_exclusion_counts(self, per_triad):
        # growth as fast as the base graph: some cells see all candidates form
        snaps = random_snapshots(22, 14, 0.2, True, 3, growth=1.0)
        series = make_series(snaps, 14, directed=True)
        diagnostics = aggregate_empirical(series, per_triad=per_triad, workers=1).diagnostics
        assert aggregate_empirical(series, per_triad=per_triad,
                                   workers=2).diagnostics == diagnostics
        # the full path of every cell, none settled early, counts the same
        full = dict.fromkeys(EXCLUSIONS, 0)
        usable = 0
        for ego in range(series.n_nodes):
            for t in range(len(series) - 1):
                cells = ego_snapshot_stats(series, t, ego, per_triad=per_triad,
                                           excluded=full)
                usable += sum(cell is not None for cell in cells.values())
        assert diagnostics["n_cells_excluded"] == full
        assert all(type(count) is int for count in full.values())
        assert diagnostics["n_cells"] == usable
        assert min(full.values()) > 0
        per_cell = 9 if per_triad else 1
        assert sum(full.values()) + usable == (
            diagnostics["n_egos_requested"] * diagnostics["n_transitions"] * per_cell)


class TestPlantedSignal:
    def test_pdcn_planting_raises_formed_pd(self):
        spec = GeneratorSpec(kind="planted-scorer", n_nodes=150, seed=5,
                             edge_prob=0.06, method="pd-cn", n_snapshots=3)
        series = build_snapshots(generate(spec), preassigned=True)
        rows = _row_map(aggregate_empirical(series))
        formed = rows[(None, "undirected", "formed", "personalized")].mean
        not_formed = rows[(None, "undirected", "not-formed", "personalized")].mean
        assert formed > not_formed
