"""Parsing, normalization, snapshot windowing, and adjacency structure."""

import io
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from egolink import graph as graph_module
from egolink.cli import main
from egolink.ego import (ALL_MODES, EdgeConfig, _forming_cells, ego_neighbors,
                         personalized_degrees)
from egolink.empirical import aggregate_empirical, empirical_table
from egolink.errors import ConfigError, ParseError, PreconditionError
from egolink.evaluation import eval_table, evaluate_methods
from egolink.graph import (
    SnapshotGraph,
    SnapshotSeries,
    TemporalEdgeList,
    assign_windows,
    build_snapshots,
    drop_zero_out_degree,
    ingest_edges,
    write_label_map_csv,
    write_normalized_csv,
)

import oracles
from conftest import make_graph, random_graph


def _ingest(lines, **kwargs):
    return ingest_edges(lines, **kwargs)


class TestParsing:
    def test_comma_and_whitespace_autodetect(self):
        a = _ingest(["a,b,5", "b,c,6"])
        b = _ingest(["a b 5", "b\tc\t6"])
        assert a.src.tolist() == b.src.tolist()
        assert a.labels == b.labels

    def test_extra_fields_ignored(self):
        edges = _ingest(["a,b,5,0.7,junk"])
        assert edges.n_edges == 1
        assert edges.time.tolist() == [5]

    def test_too_few_fields_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            _ingest(["a,b,1", "a,b"])

    def test_bad_time_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            _ingest(["a,b,soon"])

    def test_comments_and_blanks_skipped(self):
        edges = _ingest(["# comment", "", "  ", "a,b,1", "# mid", "b,c,2"])
        assert edges.n_edges == 2

    def test_header_row_skipped(self):
        edges = _ingest(["src_id,dst_id,time", "a,b,1"])
        assert edges.n_edges == 1
        assert "src_id" not in edges.labels

    def test_forced_delimiter(self):
        edges = _ingest(["a b 1"], delimiter="whitespace")
        assert edges.n_edges == 1
        with pytest.raises(ParseError):
            _ingest(["a b 1"], delimiter="comma")

    def test_unknown_delimiter_rejected(self):
        with pytest.raises(ConfigError, match="delimiter"):
            _ingest(["a,b,1"], delimiter="pipe")

    def test_missing_time_substitution(self):
        edges = _ingest(["a,b,", "b,c,\\N"], missing_time=42)
        assert edges.time.tolist() == [42, 42]
        with pytest.raises(ParseError):
            _ingest(["a,b,"])

    def test_file_object_source(self):
        edges = _ingest(io.StringIO("a,b,1\nb,c,2\n"))
        assert edges.n_edges == 2


class TestNormalization:
    def test_edge_list_holds_read_only_int64(self):
        edges = TemporalEdgeList(src=[0], dst=[1], time=[5], labels=("a", "b"),
                                 directed=False)
        copy = pickle.loads(pickle.dumps(edges))
        for arr in (edges.src, edges.dst, edges.time, copy.src, copy.dst, copy.time):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.int64
            assert not arr.flags.writeable
        assert edges.time.tolist() == [5]
        # the caller's array keeps its own flags
        src = np.array([0, 1])
        TemporalEdgeList(src=src, dst=src, time=src, labels=("a", "b"), directed=True)
        assert src.flags.writeable

    def test_self_loops_dropped(self):
        edges = _ingest(["a,a,1", "a,b,2"])
        assert edges.n_edges == 1

    def test_duplicate_keeps_earliest_time(self):
        edges = _ingest(["a,b,9", "a,b,3", "a,b,7"])
        assert edges.n_edges == 1
        assert edges.time.tolist() == [3]

    def test_undirected_mirror_collapses(self):
        edges = _ingest(["a,b,9", "b,a,3"])
        assert edges.n_edges == 1
        assert edges.time.tolist() == [3]

    def test_directed_mirror_kept(self):
        edges = _ingest(["a,b,9", "b,a,3"], directed=True)
        assert edges.n_edges == 2

    def test_ids_follow_time_order(self):
        # c,d arrive first in time, so they get the low ids
        edges = _ingest(["a,b,10", "c,d,1"])
        assert edges.labels == ("c", "d", "a", "b")
        assert edges.id_of("c") == 0
        with pytest.raises(KeyError):
            edges.id_of("zzz")

    def test_id_of_every_label(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("".join(f"n{i} n{(7 * i) % 40} {i % 9}\n" for i in range(1, 60)))
        edges = ingest_edges(path)
        assert [edges.id_of(label) for label in edges.labels] == list(range(edges.n_nodes))
        assert edges.id_of(edges.labels[3]) == 3
        with pytest.raises(KeyError, match="unknown node label: 'zzz'"):
            edges.id_of("zzz")

    def test_times_sorted(self):
        edges = _ingest(["a,b,10", "c,d,1", "e,f,5"])
        assert edges.time.tolist() == [1, 5, 10]

    def test_idempotent(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(3, 10))
            lines = []
            for _ in range(int(rng.integers(1, 25))):
                a, b = rng.integers(0, n, 2)
                lines.append(f"n{a},n{b},{rng.integers(0, 50)}")
            directed = bool(trial % 2)
            first = _ingest(lines, directed=directed)
            if first.n_edges == 0:
                continue
            path = tmp_path / f"norm{trial}.csv"
            write_normalized_csv(first, path)
            second = ingest_edges(path, directed=directed)
            assert second.src.tolist() == first.src.tolist()
            assert second.dst.tolist() == first.dst.tolist()
            assert second.time.tolist() == first.time.tolist()
            # normalized form maps every label to itself
            assert second.labels == tuple(str(i) for i in range(first.n_nodes))

    def test_written_files_roundtrip(self, tmp_path):
        edges = _ingest(["bob,eve,7", "ann,bob,2"])
        norm, labels = tmp_path / "n.csv", tmp_path / "l.csv"
        write_normalized_csv(edges, norm)
        write_label_map_csv(edges, labels)
        assert norm.read_text() == "src_id,dst_id,time\n0,1,2\n1,2,7\n"
        assert labels.read_text() == "node_id,label\n0,ann\n1,bob\n2,eve\n"


@st.composite
def _label_tables(draw):
    """0-30 labels, each its own decimal id, another decimal id (out of
    order, or with leading zeros) or text with commas, quotes, CR/LF and
    non-ASCII letters; runs of own ids likely."""
    n = draw(st.integers(0, 30))
    text = st.text(alphabet=',"\r\n ab1éü中', min_size=1, max_size=6)
    labels = []
    for i in range(n):
        labels.append(draw(st.one_of(
            st.just(str(i)), st.just(str(i)), st.integers(0, 40).map(str),
            st.integers(0, 40).map(lambda j: "0" + str(j)), text)))
    return tuple(labels)


class TestWriteLabelMap:
    """``write_label_map_csv`` writes own-id labels by the column and the
    others in one join; the per-row writer in ``oracles`` is its reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(labels=_label_tables())
    def test_matches_per_row_writer(self, tmp_path_factory, labels):
        edges = TemporalEdgeList(src=(), dst=(), time=(), labels=labels, directed=False)
        where = tmp_path_factory.mktemp("labels")
        write_label_map_csv(edges, where / "got.csv")
        oracles.write_label_map_csv(edges, where / "want.csv")
        assert (where / "got.csv").read_bytes() == (where / "want.csv").read_bytes()

    def test_mixed_rows_by_hand(self, tmp_path):
        labels = ("0", "x,y", "2", "03", "1", 'q"\r\n', "6", "7")
        edges = TemporalEdgeList(src=(), dst=(), time=(), labels=labels, directed=False)
        write_label_map_csv(edges, tmp_path / "l.csv")
        assert (tmp_path / "l.csv").read_bytes() == (
            b'node_id,label\n0,0\n1,"x,y"\n2,2\n3,03\n4,1\n5,"q""\r\n"\n6,6\n7,7\n')


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


@st.composite
def _int64_columns(draw):
    """1-3 equal-length int64 columns of 0-40 rows, each all non-negative,
    all negative or of mixed signs, with the int64 ends and 0 likely."""
    n = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = draw(st.sampled_from([(0, _INT64_MAX), (_INT64_MIN, -1), (_INT64_MIN, _INT64_MAX),
                                       (-999, 999), (0, 9)]))
        ends = [v for v in (_INT64_MIN, _INT64_MAX, 0, lo, hi) if lo <= v <= hi]
        value = st.one_of(st.sampled_from(ends), st.integers(lo, hi))
        columns.append(np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.int64))
    return columns


class TestWriteNormalized:
    """``write_normalized_csv`` writes by the column; the ``%`` formatter
    in ``oracles`` is its reference."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(columns=_int64_columns())
    def test_decimal_rows_match_percent_format(self, columns):
        assert graph_module._decimal_rows(columns) == oracles.decimal_rows(columns)

    @pytest.mark.parametrize("columns", [
        [[_INT64_MIN], [_INT64_MAX], [0]],
        [[-1, -10, _INT64_MIN]],
        [[5, -5, 0], [0, 0, 0]],
        [[], [], []],
    ], ids=["one-row-ends", "all-negative", "mixed-signs", "no-rows"])
    def test_decimal_rows_cases(self, columns):
        columns = [np.array(c, dtype=np.int64) for c in columns]
        assert graph_module._decimal_rows(columns) == oracles.decimal_rows(columns)

    def test_runs_of_different_widths(self, tmp_path):
        """Three runs of ``_WRITE_RUN`` rows whose fields differ in width,
        the last run short and with negative times."""
        run = graph_module._WRITE_RUN
        n = 2 * run + 123
        rng = np.random.default_rng(4)
        src = np.concatenate([rng.integers(0, 10, run), rng.integers(0, 10**5, run),
                              rng.integers(0, 100, 123)])
        time = np.concatenate([np.arange(run), rng.integers(0, _INT64_MAX, run),
                               rng.integers(_INT64_MIN, 0, 123)])
        edges = TemporalEdgeList(src=src, dst=src[::-1] + 1, time=time,
                                 labels=tuple(map(str, range(10**5 + 1))), directed=True)
        assert edges.n_edges == n
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_normalized_csv(edges, got)
        oracles.write_normalized_csv(edges, want)
        assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.one_of(
               st.sampled_from([_INT64_MIN, _INT64_MAX, 0, -1]), st.integers(_INT64_MIN, _INT64_MAX),
               st.integers(10**17, 10**18 - 1))), min_size=1, max_size=30),
           directed=st.booleans(), index=st.booleans())
    def test_round_trip(self, tmp_path_factory, rows, directed, index):
        """Written and read back, a normalized list is itself, with every
        label its id: negative and 18-19-digit times, both time modes."""
        if index:
            rows = [(s, d, t if t >= 0 else -(t + 1)) for s, d, t in rows]
        time_mode = "index" if index else "timestamp"
        first = graph_module.normalize_edges(*map(list, zip(*rows)), directed=directed,
                                             time_mode=time_mode)
        assume(first.n_edges)
        path = tmp_path_factory.mktemp("round") / "normalized.csv"
        write_normalized_csv(first, path)
        second = ingest_edges(path, directed=directed, time_mode=time_mode)
        assert second == TemporalEdgeList(first.src, first.dst, first.time,
                                          tuple(map(str, range(first.n_nodes))), directed,
                                          time_mode)


class TestDropZeroOut:
    def test_single_pass(self):
        # c never points anywhere, so b->c goes; b stays via a->b
        edges = _ingest(["a,b,1", "b,c,2"], directed=True, drop_zero_out=True)
        assert edges.labels == ("a", "b")
        assert edges.n_edges == 1

    def test_ids_follow_first_appearance_in_kept_edges(self):
        # x never points anywhere, so a -> x goes and b appears first
        edges = _ingest(["a,x,1", "b,a,2", "a,b,3"], directed=True, drop_zero_out=True)
        assert edges.labels == ("b", "a")
        assert edges.src.tolist() == [0, 1] and edges.dst.tolist() == [1, 0]

    def test_source_left_without_edges_leaves_labels(self):
        # a points only at x, which never points anywhere: a is in no kept edge
        edges = _ingest(["a,x,1", "b,c,2", "c,b,3"], directed=True, drop_zero_out=True)
        assert edges.labels == ("b", "c")
        assert edges.src.tolist() == [0, 1] and edges.dst.tolist() == [1, 0]

    def test_requires_directed(self):
        edges = _ingest(["a,b,1"])
        with pytest.raises(ConfigError):
            drop_zero_out_degree(edges)


class TestWindows:
    def test_window_length(self):
        idx, starts, width = assign_windows(np.array([0, 5, 10, 89]), window_length=10)
        assert starts.size == 9 and width == 10
        assert idx.tolist() == [0, 0, 1, 8]

    def test_span_includes_both_ends(self):
        # span 11 over width 10 still needs two windows
        idx, starts, _ = assign_windows(np.array([0, 10]), window_length=10)
        assert starts.size == 2

    def test_fixed_count(self):
        idx, starts, width = assign_windows(np.array([0, 1, 2, 3, 4, 5]), fixed_count=3)
        assert starts.size == 3 and width == 2
        assert idx.tolist() == [0, 0, 1, 1, 2, 2]

    def test_singleton(self):
        idx, starts, _ = assign_windows(np.array([7]), window_length=10)
        assert starts.size == 1 and idx.tolist() == [0]

    def test_exactly_one_policy(self):
        with pytest.raises(ConfigError):
            assign_windows(np.array([1]), window_length=1, fixed_count=1)
        with pytest.raises(ConfigError):
            assign_windows(np.array([1]))

    def test_window_count_capped(self):
        # 10**15 + 1 one-second windows: refused before anything is built
        with pytest.raises(ConfigError, match="window length 1 gives 1000000000000001 windows"):
            assign_windows(np.array([0, 10**15]), window_length=1)
        with pytest.raises(ConfigError, match="window count"):
            assign_windows(np.array([0, 10**15]), fixed_count=10**9)

    def test_window_count_exact_above_2_pow_53(self):
        # a float ceiling makes one window of span 10**16 + 1: the newest
        # edge would land in window 1, held by no snapshot
        idx, starts, width = assign_windows(np.array([0, 5, 10**16]), window_length=10**16)
        assert idx.tolist() == [0, 0, 1] and starts.tolist() == [0, 10**16]
        series = build_snapshots(_ingest(["a,b,0", "b,c,5", f"c,d,{2**53}"]), fixed_count=1)
        assert [g.n_edges for g in series.graphs] == [3]
        assert series.new_edges.tolist() == [3]
        assert series.window_starts.tolist() == [0] and series.window_width == 2**53 + 1

    def test_cli_keeps_newest_edges(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(f"a,b,0\nb,c,5\nc,d,{10**16}\n")
        out = tmp_path / "out"
        assert main(["snapshots", "--input", str(raw), "--window-seconds", str(10**16),
                     "--output-dir", str(out)]) == 0
        rows = (out / "snapshots.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["2", "3"]

    @pytest.mark.parametrize("policy, key", [(dict(fixed_count=2), "window count 2"),
                                             (dict(window_length=2**62), "window length")])
    def test_span_beyond_int64_refused(self, policy, key):
        times = np.array([-2**63, 2**63 - 1])
        with pytest.raises(ConfigError, match=f"{key} .* beyond int64"):
            assign_windows(times, **policy)

    def test_cumulative_edges_count_distinct_snapshots(self, monkeypatch):
        # 4 windows of which 1 and 2 add no edge: the series stores the 2 + 3
        # edges of snapshots 0 and 3, not 2 + 2 + 2 + 3 = 9 counted per window
        times = np.array([0, 5, 30])
        monkeypatch.setattr(graph_module, "MAX_CUMULATIVE_EDGES", 5)
        assert assign_windows(times, window_length=10)[1].size == 4
        series = build_snapshots(_ingest(["a,b,0", "b,c,5", "c,d,30"]), window_length=10)
        assert len(series) == 4 and len({id(g) for g in series.graphs}) == 2
        monkeypatch.setattr(graph_module, "MAX_CUMULATIVE_EDGES", 4)
        with pytest.raises(ConfigError, match="gives 4 windows"):
            assign_windows(times, window_length=10)
        # the window count is capped first, whatever the windows hold
        monkeypatch.setattr(graph_module, "MAX_CUMULATIVE_EDGES", 3)
        with pytest.raises(ConfigError, match="gives 4 windows"):
            assign_windows(np.array([0, 0, 0]), fixed_count=4)

    def test_cumulative_edges_capped(self, monkeypatch):
        # 3 windows holding 3 + 2 + 1 edges: 6 cumulative edges in total
        times = np.array([0, 10, 20])
        monkeypatch.setattr(graph_module, "MAX_CUMULATIVE_EDGES", 6)
        assert assign_windows(times, window_length=10)[1].size == 3
        monkeypatch.setattr(graph_module, "MAX_CUMULATIVE_EDGES", 5)
        with pytest.raises(ConfigError, match="gives 3 windows"):
            assign_windows(times, window_length=10)
        edges = _ingest(["a,b,0", "b,c,1", "c,d,2"], time_mode="index")
        with pytest.raises(ConfigError, match="gives 3 windows"):
            build_snapshots(edges, preassigned=True)


class TestSnapshots:
    def test_cumulative(self):
        edges = _ingest(["a,b,0", "b,c,1", "c,d,2"], time_mode="index")
        series = build_snapshots(edges, preassigned=True)
        assert len(series) == 3
        assert [g.n_edges for g in series.graphs] == [1, 2, 3]
        assert series.new_edges.tolist() == [1, 1, 1]
        assert series.window_starts.tolist() == [0, 1, 2] and series.window_width == 1
        # later snapshots contain the earlier edges
        last = series[2]
        a, b = edges.id_of("a"), edges.id_of("b")
        assert b in last.successors(a)

    def test_window_bounds_recorded(self):
        edges = _ingest(["a,b,0", "b,c,25"])
        series = build_snapshots(edges, window_length=10)
        assert series.window_starts.tolist() == [0, 10, 20]
        assert series.window_width == 10

    def test_preassigned_gap_rejected(self):
        edges = _ingest(["a,b,0", "b,c,2"], time_mode="index")
        with pytest.raises(ConfigError):
            build_snapshots(edges, preassigned=True)

    def test_preassigned_negative_rejected(self):
        with pytest.raises(ConfigError):
            _ingest(["a,b,-1", "b,c,0"], time_mode="index")


#: every array a snapshot graph exposes
_GRAPH_ARRAYS = ("out_indptr", "out_indices", "in_indptr", "in_indices", "sym_indptr",
                 "sym_indices", "out_degree", "in_degree", "sym_degree")


def _gapped_series(seed, directed):
    """A series of 8 two-unit windows of which windows 2, 5 and 6 add no
    edge, the edges' window indices, and the series with every window's
    graph built on its own."""
    rng = np.random.default_rng(seed)
    n_nodes, n_edges = 40, 300
    src = rng.integers(0, n_nodes, n_edges)
    dst = (src + rng.integers(1, n_nodes, n_edges)) % n_nodes
    time = rng.choice([0, 1, 2, 7, 8, 15], n_edges)
    time[:2] = 0, 15
    edges = TemporalEdgeList(src=src, dst=dst, time=time,
                             labels=tuple(str(i) for i in range(n_nodes)), directed=directed)
    series = build_snapshots(edges, window_length=2)
    idx = assign_windows(edges.time, window_length=2)[0]
    apart = _BuiltApart(series, [SnapshotGraph(n_nodes, src[idx <= i], dst[idx <= i], directed)
                                 for i in range(len(series))])
    return series, idx, apart


class _BuiltApart(SnapshotSeries):
    """``series``, except that window ``i`` reads ``graphs[i]``."""

    def __init__(self, series, graphs):
        vars(self).update(vars(series), _apart=graphs)

    def __getitem__(self, i):
        return self._apart[i]


class TestSharedSnapshots:
    """A window that adds no edge holds the snapshot before it."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_each_window_matches_its_own_build(self, directed, seed):
        series, idx, apart = _gapped_series(seed, directed)
        assert series.new_edges.tolist() == np.diff([0] + [g.n_edges for g in apart.graphs]).tolist()
        assert np.flatnonzero(series.new_edges == 0).tolist() == [2, 5, 6]
        names = _GRAPH_ARRAYS + (("sym_config",) if directed else ())
        for g, want in zip(series.graphs, apart.graphs):
            for name in names:
                assert np.array_equal(getattr(g, name), getattr(want, name)), name
            assert g.n_edges == want.n_edges

    @pytest.mark.parametrize("directed", [False, True])
    def test_empty_window_is_the_snapshot_before(self, directed):
        series, _, _ = _gapped_series(0, directed)
        for i in range(1, len(series)):
            assert (series[i] is series[i - 1]) == (series.new_edges[i] == 0)
        assert len({id(g) for g in series.graphs}) == 5
        for i in (2, 5, 6):
            for name in _GRAPH_ARRAYS:
                assert not getattr(series[i], name).flags.writeable, name
                with pytest.raises(ValueError):
                    getattr(series[i], name)[:1] = 0
        assert series.window_starts.tolist() == list(range(0, 16, 2))
        assert series.window_width == 2
        assert not series.window_starts.flags.writeable

    @pytest.mark.parametrize("directed", [False, True])
    def test_pickle_keeps_one_object_per_snapshot(self, directed):
        series, _, _ = _gapped_series(1, directed)
        copy = pickle.loads(pickle.dumps(series))
        assert [copy[i] is copy[i - 1] for i in range(1, 8)] == \
            [series[i] is series[i - 1] for i in range(1, 8)]
        assert len({id(g) for g in copy.graphs}) == 5
        for g, h in zip(series.graphs, copy.graphs):
            for name in _GRAPH_ARRAYS:
                assert np.array_equal(getattr(g, name), getattr(h, name))
                assert not getattr(h, name).flags.writeable, name
        assert np.array_equal(copy.new_edges, series.new_edges)
        assert np.array_equal(copy.window_starts, series.window_starts)
        assert not copy.new_edges.flags.writeable
        assert not copy.window_starts.flags.writeable

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_analyses_match_graphs_built_apart(self, directed, workers):
        series, _, apart = _gapped_series(2, directed)
        got = evaluate_methods(series, ks=(1, 3), workers=workers)
        want = evaluate_methods(apart, ks=(1, 3), workers=1)
        assert eval_table(got) == eval_table(want)
        assert got.metadata == want.metadata
        got = aggregate_empirical(series, per_triad=directed, workers=workers)
        want = aggregate_empirical(apart, per_triad=directed, workers=1)
        assert empirical_table(got) == empirical_table(want)
        assert got.diagnostics == want.diagnostics
        # transition t ends in window t + 1; windows 2, 5 and 6 add no edge
        mask = _forming_cells(series, np.arange(series.n_nodes), sym_pool=directed)
        assert not mask[:, [1, 4, 5]].any() and mask.any()


@st.composite
def _hand_built_lists(draw):
    """A ``TemporalEdgeList`` built by hand, so it may hold duplicate
    pairs, reversed duplicates and self-loops, which ingest never makes,
    and a window length; times 0..11 leave windows empty."""
    n_nodes = draw(st.integers(1, 8))
    node = st.integers(0, n_nodes - 1)
    rows = draw(st.lists(st.tuples(node, node, st.integers(0, 11)), min_size=1, max_size=30))
    src, dst, time = (np.array(column, dtype=np.int64) for column in zip(*rows))
    edges = TemporalEdgeList(src=src, dst=dst, time=time,
                             labels=tuple(str(i) for i in range(n_nodes)),
                             directed=draw(st.booleans()))
    return edges, draw(st.integers(1, 4))


class TestNewEdges:
    """A window's new edges are the distinct edges it first holds."""

    @pytest.mark.parametrize("directed, want", [(False, 1), (True, 2)])
    def test_repeated_rows_count_once(self, directed, want):
        edges = TemporalEdgeList(src=[0, 0, 1], dst=[1, 1, 0], time=[0, 0, 0], labels=("a", "b"),
                                 directed=directed)
        series = build_snapshots(edges, window_length=1)
        assert series.new_edges.tolist() == series.total_edges.tolist() == [want]

    @pytest.mark.parametrize("directed", [False, True])
    def test_repeat_only_window_holds_snapshot_before(self, directed):
        # window 2 repeats (0, 1), and undirected also (1, 0)
        rows = [(0, 1, 0), (1, 2, 1), (0, 1, 2)] + ([] if directed else [(1, 0, 2)])
        src, dst, time = zip(*rows)
        edges = TemporalEdgeList(src=src, dst=dst, time=time, labels=("a", "b", "c"),
                                 directed=directed)
        series = build_snapshots(edges, window_length=1)
        assert series.new_edges.tolist() == [1, 1, 0]
        assert series.total_edges.tolist() == [1, 2, 2]
        assert series[2] is series[1]


class TestOnDemandSeries:
    """A series builds each graph on first read, equal to its own build."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_hand_built_lists(), data=st.data())
    def test_any_read_order_matches_own_build(self, case, data):
        edges, width = case
        series = build_snapshots(edges, window_length=width)
        idx = assign_windows(edges.time, window_length=width)[0]
        n = len(series)
        names = _GRAPH_ARRAYS + (("sym_config",) if edges.directed else ())
        for i in data.draw(st.permutations(range(n))):
            # a negative index reads the same window
            g = series[data.draw(st.sampled_from([i, i - n]))]
            want = SnapshotGraph(edges.n_nodes, edges.src[idx <= i], edges.dst[idx <= i],
                                 edges.directed)
            for name in names:
                assert np.array_equal(getattr(g, name), getattr(want, name)), name
            assert series.total_edges[i] == g.n_edges == want.n_edges
        for i in range(1, n):
            assert (series[i] is series[i - 1]) == (series.new_edges[i] == 0)
        assert np.array_equal(series.new_edges.cumsum(), series.total_edges)
        assert series[1::2] == series.graphs[1::2]
        assert not series.total_edges.flags.writeable

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_hand_built_lists())
    def test_cuts_match_oracle(self, case):
        edges, width = case
        series = build_snapshots(edges, window_length=width)
        idx = assign_windows(edges.time, window_length=width)[0]
        pairs = list(zip(edges.src.tolist(), edges.dst.tolist()))
        for i, g in enumerate(series.graphs):
            held = [pair for pair, j in zip(pairs, idx.tolist()) if j <= i]
            out, inn, sym = oracles.adjacency(edges.n_nodes, held, edges.directed)
            for v in range(edges.n_nodes):
                for row, want in ((g.successors, out), (g.predecessors, inn),
                                  (g.neighbors, sym)):
                    assert row(v).tolist() == sorted(want[v]), (i, v, row.__name__)
                if edges.directed:
                    cfgs = g.sym_config[g.sym_indptr[v]:g.sym_indptr[v + 1]].tolist()
                    assert cfgs == [oracles.link_config(out, inn, v, z)
                                    for z in sorted(sym[v])], (i, v)
            for degree, want in ((g.out_degree, out), (g.in_degree, inn), (g.sym_degree, sym)):
                assert degree.tolist() == [len(want[v]) for v in range(edges.n_nodes)]

    @pytest.mark.parametrize("directed", [False, True])
    def test_pickle_of_partly_built_series(self, directed):
        series, _, apart = _gapped_series(1, directed)
        series[3]
        copy = pickle.loads(pickle.dumps(series))
        assert vars(copy)["_entries"] is None
        assert [copy[i] is copy[i - 1] for i in range(1, 8)] == \
            [series[i] is series[i - 1] for i in range(1, 8)]
        for i in range(8):
            for name in _GRAPH_ARRAYS:
                assert np.array_equal(getattr(copy[i], name), getattr(apart[i], name)), name
                assert not getattr(copy[i], name).flags.writeable, name
        assert copy.total_edges.tolist() == series.total_edges.tolist()
        assert not copy.total_edges.flags.writeable


class TestEdgeListEquality:
    def test_equal_and_unequal(self):
        def edge_list(src, **changes):
            fields = dict(src=src, dst=[1, 2], time=[0, 3], labels=("a", "b", "c"),
                          directed=False)
            return TemporalEdgeList(**dict(fields, **changes))

        edges = edge_list([0, 1])
        assert edges == edge_list([0, 1]) and not edges != edge_list([0, 1])
        # the arrays are int64 whatever their given dtype
        assert edges == edge_list(np.array([0, 1], dtype=np.int32))
        for other in (edge_list([0, 0]), edge_list([0, 1], time=[0, 4]),
                      edge_list([0, 1], labels=("a", "b", "d")),
                      edge_list([0, 1], directed=True),
                      edge_list([0, 1], time_mode="index"),
                      edge_list([0], dst=[1], time=[0])):
            assert edges != other and not edges == other
        assert edges != (edges.src, edges.dst, edges.time)

    def test_snapshots_compare_by_identity(self):
        g = make_graph([(0, 1)], 2)
        assert g == g and g != make_graph([(0, 1)], 2)
        edges = TemporalEdgeList(src=[0], dst=[1], time=[0], labels=("a", "b"), directed=False)
        series = build_snapshots(edges, window_length=1)
        assert series == series and series != build_snapshots(edges, window_length=1)


class TestAdjacency:
    def test_directed_views(self):
        g = make_graph([(0, 1), (2, 1), (1, 3)], 4, directed=True)
        assert g.successors(1).tolist() == [3]
        assert g.predecessors(1).tolist() == [0, 2]
        assert g.neighbors(1).tolist() == [0, 2, 3]
        assert g.out_degree.tolist() == [1, 1, 1, 0]
        assert g.in_degree.tolist() == [0, 2, 0, 1]
        assert g.sym_degree.tolist() == [1, 3, 1, 1]

    def test_undirected_views_coincide(self):
        g = make_graph([(0, 1), (1, 2)], 3)
        assert g.successors(1).tolist() == g.neighbors(1).tolist() == [0, 2]
        assert g.sym_degree.tolist() == [1, 2, 1]
        assert g.out_degree is g.sym_degree and g.in_degree is g.sym_degree

    def test_bounds_checked(self):
        g = make_graph([(0, 1)], 2)
        with pytest.raises(IndexError):
            g.successors(2)
        with pytest.raises(IndexError):
            g.neighbors(-1)

    @pytest.mark.parametrize("directed", [False, True])
    def test_whole_number_ids(self, directed):
        g = make_graph([(0, 1), (1, 2)], 3, directed=directed)
        for row in (g.successors, g.predecessors, g.neighbors):
            for bad in (1.7, float("nan"), np.float64(0.5), "1", True, np.True_, None):
                with pytest.raises(ConfigError, match="is not a whole number"):
                    row(bad)
            assert row(1.0).tolist() == row(np.int64(1)).tolist() == row(1).tolist()
        with pytest.raises(ConfigError, match="node id 1.7 is not a whole number"):
            g.successors(1.7)
        with pytest.raises(IndexError, match="out of range"):
            g.successors(3.0)

    def test_pickle_roundtrip(self):
        g = make_graph([(0, 1), (1, 2)], 3, directed=True)
        h = pickle.loads(pickle.dumps(g))
        assert h.n_nodes == 3
        assert h.successors(1).tolist() == g.successors(1).tolist()

    def test_pickle_keeps_undirected_aliases(self):
        # one read-only view per aliased array, so a pickle holds each once
        g = make_graph([(0, 1), (1, 2)], 3)
        h = pickle.loads(pickle.dumps(g))
        for got in (g, h):
            assert got.out_indptr is got.in_indptr is got.sym_indptr
            assert got.out_indices is got.in_indices is got.sym_indices
            assert got.out_degree is got.in_degree is got.sym_degree
        assert len(pickle.dumps(h)) == len(pickle.dumps(g))

    @pytest.mark.parametrize("seed", range(6))
    def test_direction_split(self, seed):
        g, pairs = random_graph(seed, 12, 0.3, True)
        out, inn, _ = oracles.adjacency(g.n_nodes, pairs, True)
        config = g.sym_config
        for v in range(g.n_nodes):
            row = g.neighbors(v)
            cfgs = config[g.sym_indptr[v]:g.sym_indptr[v + 1]]
            parts = [row[cfgs == cfg] for cfg in EdgeConfig]
            merged = np.concatenate(parts)
            # the three parts partition the symmetric row
            assert sorted(merged.tolist()) == g.neighbors(v).tolist()
            for cfg, part in zip(EdgeConfig, parts):
                assert np.all(np.diff(part) > 0)
                for z in part.tolist():
                    assert oracles.link_config(out, inn, v, z) == cfg
        h = pickle.loads(pickle.dumps(g))
        assert h.sym_config.tolist() == config.tolist()

    def test_direction_split_needs_directed(self):
        with pytest.raises(PreconditionError):
            make_graph([(0, 1)], 2).sym_config

    def test_parallel_duplicates_collapse(self):
        g = make_graph([(0, 1), (0, 1), (1, 0)], 2)
        assert g.sym_degree.tolist() == [1, 1]


@st.composite
def _pairs_with_loops(draw):
    """Pairs on up to 10 nodes, and the same pairs with self-loops put in."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=30))
    with_loops = list(pairs)
    for u in draw(st.lists(node, min_size=1, max_size=6)):
        with_loops.insert(draw(st.integers(0, len(with_loops))), (u, u))
    return n, pairs, with_loops


class TestOneGate:
    """Every graph's pairs pass ``_EntrySort``: a self-loop is no link,
    and a node id out of range is named."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=_pairs_with_loops(), directed=st.booleans())
    def test_loops_are_dropped(self, case, directed):
        n, pairs, with_loops = case
        g, want = make_graph(with_loops, n, directed), make_graph(pairs, n, directed)
        for name in SnapshotGraph._ARRAYS:
            assert np.array_equal(getattr(g, name), getattr(want, name)), name
        assert g.n_edges == want.n_edges
        if directed:
            assert np.array_equal(g.sym_config, want.sym_config)
        out, inn, sym = oracles.adjacency(n, with_loops, directed)
        for u in range(n):
            base = ego_neighbors(g, u)
            for mode in ALL_MODES if directed else ("undirected",):
                want_pd = [oracles.pdeg(out, inn, sym, u, int(z), mode) for z in base]
                assert personalized_degrees(g, u, base, mode).tolist() == want_pd

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=_pairs_with_loops(), directed=st.booleans(), width=st.integers(1, 4),
           data=st.data())
    def test_series_drops_loops(self, case, directed, width, data):
        n, pairs, with_loops = case
        assume(pairs)
        times = data.draw(st.lists(st.integers(0, 11), min_size=len(pairs),
                                   max_size=len(pairs)))
        # a loop's time lies in the span of the others, so the windows agree
        loop_time = st.integers(min(times), max(times))
        rows, it = [], iter(times)
        for u, v in with_loops:
            rows.append((u, v, data.draw(loop_time) if u == v else next(it)))

        def series_of(rows):
            src, dst, time = (np.array(column, dtype=np.int64) for column in zip(*rows))
            edges = TemporalEdgeList(src=src, dst=dst, time=time, directed=directed,
                                     labels=tuple(str(i) for i in range(n)))
            return build_snapshots(edges, window_length=width)

        got, want = series_of(rows), series_of([r for r in rows if r[0] != r[1]])
        for name in SnapshotSeries._ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for i in range(len(want)):
            for name in SnapshotGraph._ARRAYS:
                assert np.array_equal(getattr(got[i], name), getattr(want[i], name)), name
        assert [got[i] is got[i - 1] for i in range(1, len(got))] == \
            [want[i] is want[i - 1] for i in range(1, len(want))]

    def test_series_of_loops_only(self):
        edges = TemporalEdgeList(src=[0, 1], dst=[0, 1], time=[0, 5], labels=("a", "b"),
                                 directed=True)
        series = build_snapshots(edges, window_length=2)
        assert series.new_edges.tolist() == series.total_edges.tolist() == [0, 0, 0]
        assert series[0] is series[2] and series[2].n_edges == 0
        assert series[2].sym_indptr.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("src, dst, bad", [([0], [5], 5), ([0], [-1], -1),
                                               ([0, 9], [5, 1], 5), ([1, -2], [0, 3], -2)])
    def test_bad_node_id_named(self, directed, src, dst, bad):
        message = rf"^node id {bad} out of range \[0, 3\)$"
        with pytest.raises(IndexError, match=message):
            SnapshotGraph(3, src, dst, directed)
        edges = TemporalEdgeList(src=src, dst=dst, time=[0] * len(src),
                                 labels=("a", "b", "c"), directed=directed)
        with pytest.raises(IndexError, match=message):
            build_snapshots(edges, window_length=1)


#: nodes of the lists whose n² × window span overflows an int64 when the
#: span is 2 or more, so that their entries take the argsort form
_HUGE_N = 2**31 + 5


@st.composite
def _windowed_edges(draw):
    """``(n_nodes, src, dst, window, n_windows, directed)``: edges on up to
    8 nodes or on the 8 highest ids of ``_HUGE_N``, with self-loops and
    pairs repeated across windows and in both directions, in 1 to 300
    windows (300 holds its windows in uint16)."""
    huge = draw(st.booleans())
    n_nodes = _HUGE_N if huge else draw(st.integers(1, 8))
    node = st.integers(0, min(n_nodes, 8) - 1).map(lambda i: n_nodes - 1 - i if huge else i)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    n_windows = draw(st.sampled_from([1, 2, 3, 7, 300]))
    window = draw(st.lists(st.integers(0, n_windows - 1), min_size=len(pairs),
                           max_size=len(pairs)))
    src, dst = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    return (n_nodes, src, dst, np.array(window, dtype=np.min_scalar_type(n_windows)),
            n_windows, draw(st.booleans()))


class TestEntrySort:
    """The snapshot entry sort, one packed ``np.sort`` of the copies with
    their windows below their keys, is its argsort form
    (``oracles.entry_firsts``), which it keeps for spans whose n² × window
    span overflows an int64."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_windowed_edges())
    @example(case=(3, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.uint8), 1,
                   True))
    @example(case=(3, np.array([0, 1, 1, 0, 2]), np.array([1, 0, 0, 1, 2]),
                   np.array([2, 1, 0, 2, 0], np.uint8), 3, True))
    @example(case=(_HUGE_N, np.array([_HUGE_N - 1, 0]), np.array([0, _HUGE_N - 1]),
                   np.array([1, 0], np.uint8), 2, True))
    def test_matches_argsort_form(self, case):
        n_nodes, src, dst, window, n_windows, directed = case
        keys, firsts = oracles.entry_firsts(n_nodes, src, dst, window, n_windows, directed)
        keep = src != dst
        got_keys, got_firsts = graph_module._entry_firsts(
            n_nodes, src[keep], dst[keep], window[keep], n_windows, directed)
        assert got_keys.tolist() == keys.tolist()
        assert [(f.dtype, f.tolist()) for f in got_firsts] == \
            [(f.dtype, f.tolist()) for f in firsts]
        # the whole sort, self-loops and all: its entries and each window's new edges
        entries = graph_module._EntrySort(n_nodes, src, dst, directed, window, n_windows)
        assert (entries.rows * np.int64(n_nodes) + entries.cols).tolist() == keys.tolist()
        new = np.bincount(firsts[0], minlength=n_windows + 1)[:n_windows]
        assert entries.new_edges.tolist() == (new // (1 if directed else 2)).tolist()
