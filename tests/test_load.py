"""The load path: normalization against a reference, frozen CLI bytes,
snapshot prefixes over unsorted input, and read-only graphs after pickling."""

import hashlib
import pickle

import numpy as np
import pytest

import oracles

from egolink.cli import main
from egolink.graph import (
    SnapshotGraph,
    TemporalEdgeList,
    assign_windows,
    build_snapshots,
    normalize_edges,
)

from conftest import make_graph


def _raw_rows(seed, n_nodes=40, n_rows=300):
    """Seeded raw rows with shuffled string labels, duplicate and reversed
    duplicate pairs, self-loops, tied times, a label seen only in a
    self-loop, and a few labels seen only as destinations."""
    rng = np.random.default_rng(seed)
    labels = [f"user{i}" for i in rng.permutation(n_nodes)]
    rows = []
    for _ in range(n_rows):
        a, b = rng.integers(0, n_nodes, 2)
        rows.append((labels[a], labels[b], int(rng.integers(0, 50))))
    for i in rng.choice(n_rows, n_rows // 5, replace=False):
        s, d, _ = rows[i]
        t = int(rng.integers(0, 50))
        rows.append((d, s, t) if i % 2 else (s, d, t))
    for k in range(4):
        rows.append((labels[int(rng.integers(0, n_nodes))], f"sink{k}",
                     int(rng.integers(0, 50))))
    rows.append(("solo", "solo", 7))
    return [rows[i] for i in rng.permutation(len(rows))]


class TestNormalizeOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_reference(self, seed, directed):
        rows = _raw_rows(seed, n_nodes=5 + 3 * seed, n_rows=10 + 40 * seed)
        edges = normalize_edges(*map(list, zip(*rows)), directed=directed)
        labels, want = oracles.normalize(rows, directed)
        got = list(zip(edges.src.tolist(), edges.dst.tolist(), edges.time.tolist()))
        assert edges.labels == labels
        assert got == want

    def test_only_self_loops(self):
        edges = normalize_edges(["a", "b"], ["a", "b"], [1, 2])
        assert edges.n_edges == 0 and edges.labels == ()


class TestFrozenLoad:
    # recorded before the load path was vectorized; every byte must survive
    @pytest.mark.parametrize("argv, names, digest", [
        (["ingest"], ("normalized.csv", "label_map.csv"),
         "e356ffd929a1fea72a7c485ac18ccaaa29fbb75890fdcf3c71d1b16d06d56c22"),
        (["ingest", "--directed"], ("normalized.csv", "label_map.csv"),
         "d83167ebd56fe8d6bba2a44c4abe6641d9e7378e717e62c6d78e9f4708cbff9d"),
        (["ingest", "--directed", "--drop-zero-out"], ("normalized.csv", "label_map.csv"),
         "05d55947a50c5d7c134c8d841f97e183c294e32d36c3d576160cecf43d3eae5b"),
        (["snapshots", "--window-count", "4"], ("snapshots.csv",),
         "f2900c6d304b0fbc8345f230ae46121346109cf0b6097779814cbda94d02df60"),
        (["snapshots", "--directed", "--window-seconds", "7"], ("snapshots.csv",),
         "b2f575d214d718afebd16ff6e93af85727a0b4aeea626a632e49d1814f89664a"),
    ])
    def test_frozen_output(self, tmp_path, argv, names, digest):
        raw = tmp_path / "raw.csv"
        raw.write_text("".join(f"{s},{d},{t}\n" for s, d, t in _raw_rows(3)))
        out = tmp_path / "out"
        assert main([*argv, "--input", str(raw), "--output-dir", str(out)]) == 0
        h = hashlib.sha256()
        for name in names:
            h.update((out / name).read_bytes())
        assert h.hexdigest() == digest


def _unsorted_edges(seed, directed):
    rng = np.random.default_rng(seed)
    n_nodes, n_edges = 30, 200
    src = rng.integers(0, n_nodes, n_edges)
    dst = (src + rng.integers(1, n_nodes, n_edges)) % n_nodes
    time = rng.integers(0, 100, n_edges)
    assert np.any(np.diff(time) < 0)
    return TemporalEdgeList(src=src, dst=dst, time=time,
                            labels=tuple(str(i) for i in range(n_nodes)),
                            directed=directed)


class TestPrefixSnapshots:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("policy", [dict(window_length=13), dict(fixed_count=5)])
    def test_unsorted_times_match_window_masks(self, seed, directed, policy):
        edges = _unsorted_edges(seed, directed)
        series = build_snapshots(edges, **policy)
        idx, starts, _ = assign_windows(edges.time, **policy)
        assert len(series) == starts.size
        for i, g in enumerate(series.graphs):
            mask = idx <= i
            want = SnapshotGraph(edges.n_nodes, edges.src[mask], edges.dst[mask], directed)
            for name in ("out_indptr", "out_indices", "in_indptr", "in_indices",
                         "sym_indptr", "sym_indices"):
                assert getattr(g, name).tolist() == getattr(want, name).tolist()
            assert int(series.new_edges[i]) == int((idx == i).sum())

    def test_unsorted_preassigned(self):
        edges = _unsorted_edges(0, True)
        edges = TemporalEdgeList(src=edges.src, dst=edges.dst, time=edges.time % 4,
                                 labels=edges.labels, directed=True, time_mode="index")
        series = build_snapshots(edges, preassigned=True)
        for i, g in enumerate(series.graphs):
            mask = edges.time <= i
            want = SnapshotGraph(edges.n_nodes, edges.src[mask], edges.dst[mask], True)
            assert g.out_indices.tolist() == want.out_indices.tolist()
            assert g.out_indptr.tolist() == want.out_indptr.tolist()
        assert series.new_edges.tolist() == np.bincount(edges.time).tolist()


class TestPickledGraphReadOnly:
    @pytest.mark.parametrize("directed", [False, True])
    def test_arrays_stay_read_only(self, directed):
        g = make_graph([(0, 1), (1, 2), (2, 0), (0, 2)], 3, directed=directed)
        if directed:
            g.sym_config
        h = pickle.loads(pickle.dumps(g))
        arrays = [name for name in SnapshotGraph.__slots__
                  if isinstance(getattr(h, name), np.ndarray)]
        assert len(arrays) == (10 if directed else 9)
        for name in arrays:
            assert not getattr(h, name).flags.writeable, name
        if directed:
            assert not h.sym_config.flags.writeable
