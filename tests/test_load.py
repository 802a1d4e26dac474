"""The load path: normalization against a reference, the whole-file parse
against the per-line parser, frozen CLI bytes, snapshot prefixes over
unsorted input, and read-only graphs after pickling."""

import hashlib
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from egolink import graph as graph_module
from egolink.cli import main
from egolink.errors import ConfigError, ParseError
from egolink.graph import (
    SnapshotGraph,
    TemporalEdgeList,
    assign_windows,
    build_snapshots,
    dedupe_and_sort,
    ingest_edges,
    normalize_edges,
    parse_edge_lines,
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

    @pytest.mark.parametrize("src, dst, times, match", [
        (["a"], ["b"], [2**63], "time 9223372036854775808 in row 0 is not an int64"),
        (["a", "b"], ["b", "c"], [1, "x"], "time 'x' in row 1 is not an int64"),
        (["a", "b"], ["b", "c"], [1, None], "time None in row 1 is not an int64"),
        (["a", "b"], ["b"], [1], "differ in length: 2, 1 and 1"),
        (["a"], ["b"], [1, 2], "differ in length: 1, 1 and 2"),
    ], ids=["time-over-int64", "time-not-a-number", "time-none", "short-dst", "long-times"])
    def test_bad_input_names_the_row(self, src, dst, times, match):
        with pytest.raises(ConfigError, match=match):
            normalize_edges(src, dst, times)


def _dedupe_reference(rows, directed):
    """Each pair (unordered unless directed) once, at its earliest time,
    written as its first row was; ordered by (earliest time, first row)."""
    kept = {}
    for row, (s, d, t) in enumerate(rows):
        key = (s, d) if directed else frozenset((s, d))
        if key in kept:
            kept[key][0] = min(kept[key][0], t)
        else:
            kept[key] = [t, row, s, d]
    return [(s, d, t) for t, _, s, d in sorted(kept.values(), key=lambda k: (k[0], k[1]))]


_INT64_ENDS = [-2**63, 2**63 - 1]


class TestDedupeAndSort:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                   st.one_of(st.integers(0, 3), st.sampled_from(_INT64_ENDS))),
                         min_size=1, max_size=60),
           directed=st.booleans())
    def test_matches_reference(self, rows, directed):
        src, dst, time = (np.array(col, dtype=np.int64) for col in zip(*rows))
        got = dedupe_and_sort(src, dst, time, 5, directed)
        assert list(zip(*(a.tolist() for a in got))) == _dedupe_reference(rows, directed)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1,
                          max_size=25, unique_by=lambda p: frozenset(p)),
           times=st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(_INT64_ENDS)),
                          min_size=25, max_size=25),
           directed=st.booleans())
    def test_ordered_rows_come_back(self, pairs, times, directed):
        """Distinct pairs whose times ascend, from INT64_MIN to INT64_MAX
        in some lists, are the answer as they are."""
        rows = [(s, d, t) for (s, d), t in zip(pairs, sorted(times))]
        src, dst, time = (np.array(col, dtype=np.int64) for col in zip(*rows))
        got = dedupe_and_sort(src, dst, time, 5, directed)
        assert list(zip(*(a.tolist() for a in got))) == _dedupe_reference(rows, directed) == rows

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.one_of(
               st.integers(-4, 4), st.sampled_from(_INT64_ENDS),
               st.integers(-2**63, 2**63 - 1))), min_size=1, max_size=80),
           directed=st.booleans())
    def test_matches_three_sorts(self, rows, directed):
        """The two-sort form equals its three-sort form in ``oracles``:
        repeated pairs, both orientations, out-of-order and tied times."""
        src, dst, time = (np.array(col, dtype=np.int64) for col in zip(*rows))
        got = dedupe_and_sort(src, dst, time, 8, directed)
        want = oracles.dedupe_and_sort(src, dst, time, 8, directed)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


def _rows_text(seed, sep):
    return "".join(f"{s}{sep}{d}{sep}{t}\n" for s, d, t in _raw_rows(seed))


#: (id, file bytes, ingest keywords, whether the whole-file parse takes it)
FILES = [
    ("normalized", b"src_id,dst_id,time\n0,1,3\n2,0,1\n1,2,1\n", {}, True),
    ("normalized-directed", b"src_id,dst_id,time\n0,1,3\n1,0,1\n", dict(directed=True), True),
    ("raw-comma", _rows_text(4, ",").encode(), {}, True),
    ("raw-comma-directed", _rows_text(5, ",").encode(), dict(directed=True), True),
    ("single-space", _rows_text(6, " ").encode(), {}, True),
    ("single-space-forced", b"a b 1\nb c 2\n", dict(delimiter="whitespace"), True),
    ("comma-forced", b"a,b,1\nb,c,2\n", dict(delimiter="comma"), True),
    ("leading-comment", b"# src dst time\n# more\nsrc_id,dst_id,time\na b 1\n", {}, True),
    ("index-times", b"a,b,0\nb,c,2\nc,a,1\n", dict(time_mode="index"), True),
    ("comment-after-data", b"a,b,1\n# mid\nb,c,2\n", {}, False),
    ("comment-with-separators", b"a,b,1\n#c,d,2\n", {}, False),
    ("cr-in-comment", b"# x\ry z 1\na b 3\n", {}, False),
    ("blank-lines", b"a,b,1\n\nb,c,2\n", {}, False),
    ("crlf", b"a,b,1\r\nb,c,2\r\n", {}, False),
    ("tabs", b"a\tb\t1\nb\tc\t2\n", {}, True),
    ("tabs-missing-time", b"1\t2\t\\N\n2\t3\t5\n3\t1\t\\N\n", dict(missing_time=0), True),
    ("tabs-missing-time-unset", b"1\t2\t7\n2\t3\t\\N\n3\t1\t\\N\n", {}, False),
    ("tabs-and-spaces", b"a\tb\t1\nb c 2\n", {}, False),
    ("tabs-forced-whitespace", b"a\tb\t1\nb\tc\t2\n", dict(delimiter="whitespace"), True),
    ("missing-time-comma", b"a,b,\\N\nb,c,1\n", dict(missing_time=-3), True),
    ("missing-time-label", b"\\N b 1\nb \\N \\N\n", dict(missing_time=4), True),
    ("missing-time-prefix", b"a b \\N1\n", dict(missing_time=0), False),
    ("decimal-ids", b"3,0,5\n0,1,5\n1,2,3\n", {}, True),
    ("decimal-ids-sparse", b"100,2,1\n2,7,2\n", {}, True),
    ("decimal-ids-leading-zeros", b"007,7,1\n7,0,2\n00,0,3\n", {}, True),
    ("spaces-around-commas", b"a , b , 1\nb,c,2\n", {}, False),
    ("comma-labels-forced-whitespace", b"a,x b 1\n", dict(delimiter="whitespace"), False),
    ("spaces-forced-comma", b"a b 1\n", dict(delimiter="comma"), False),
    ("extra-fields", b"a,b,1,x\nb,c,2\n", {}, False),
    ("missing-time", b"a,b,1\nb,c,\\N\nc,d,\n", dict(missing_time=0), False),
    ("missing-time-unset", b"a,b,1\nb,c,\\N\n", {}, False),
    ("empty-field", b"a,,1\n", {}, False),
    ("non-ascii-label", "\u00e4,b,1\nb,c,2\n".encode(), {}, False),
    ("bad-time-line-3", b"a,b,1\nb,c,2\nc,d,x\n", {}, False),
    ("time-outside-int64", b"a,b,1\nb,c,9223372036854775808\n", {}, False),
    ("times-at-int64-ends", b"a,b,-9223372036854775808\nb,c,9223372036854775807\n", {}, False),
    ("signed-times", b"a,b,+1\nb,c,-2\nc,d,1_0\n", {}, False),
    ("no-final-newline", b"a,b,1\nb,c,2", {}, False),
    ("partial-last-line", b"a,b,1\nbc", {}, False),
    ("empty", b"", {}, False),
    ("header-only", b"src_id,dst_id,time\n", {}, False),
    ("comment-only", b"# nothing", {}, False),
    ("unknown-delimiter", b"a,b,1\n", dict(delimiter="pipe"), False),
    ("bad-utf8", b"a,b,1\n\xff,c,2\n", {}, False),
    ("bad-utf8-after-cr", b"# x\ra,b,1\r\nb,c,2\nc,\xe4,3\n", {}, False),
    ("long-labels", b"abcdefgh1,abcdefgh12,1\nabcdefghijklmnop,abcdefghijklmnopq,2\n"
                    b"abcdefghijklmnopqrstuvwx,abcdefgh1,3\n"
                    b"abcdefghijklmnopq,abcdefghijklmnopqrstuvw,4\n"
                    b"abcdefgh12,abcdefghijklmnopqrstuvwx,5\n", {}, True),
    ("prefix-labels", b"a aa 1\naaaaaaaa aaaaaaaaa 2\naa aaaaaaaaa 3\naaaaaaaa a 4\n", {}, True),
    ("leading-zero-labels", b"01,1,1\n1,001,2\n01,001,3\n", {}, True),
    ("zero-padded-times", b"a,b,007\nb,c,000000000000000001\nc,d,0\n", {}, True),
    ("18-digit-times", b"a,b,999999999999999999\nb,c,100000000000000000\nc,d,1\n", {}, True),
    ("19-digit-times", b"a,b,9223372036854775807\nb,c,0000000000000000001\nc,d,1\n", {}, False),
]


def _outcome(load):
    try:
        edges = load()
    except Exception as exc:
        return type(exc), getattr(exc, "lineno", None) if isinstance(exc, ParseError) else None
    return (edges.src.tolist(), edges.dst.tolist(), edges.time.tolist(), edges.labels,
            edges.directed, edges.time_mode)


class TestRegularParse:
    @pytest.mark.parametrize("data, kwargs, regular", [f[1:] for f in FILES],
                             ids=[f[0] for f in FILES])
    def test_matches_per_line_parser(self, tmp_path, data, kwargs, regular):
        path = tmp_path / "edges.txt"
        path.write_bytes(data)
        parse_kw = {k: v for k, v in kwargs.items() if k in ("delimiter", "missing_time")}
        norm_kw = {k: v for k, v in kwargs.items() if k not in parse_kw}

        def per_line():
            # a byte that is not UTF-8 is a parse error of the line that holds it
            for lineno, line in enumerate(data.splitlines(), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError(lineno, "not UTF-8") from None
            with open(path, encoding="utf-8") as fh:
                return normalize_edges(*parse_edge_lines(fh, **parse_kw), **norm_kw)

        assert _outcome(lambda: ingest_edges(path, **kwargs)) == _outcome(per_line)
        taken = graph_module._parse_regular(data, kwargs.get("delimiter"),
                                              kwargs.get("missing_time")) is not None
        assert taken == regular


#: every byte a label of a regular file may hold
_FIELD_CHARS = "".join(chr(b) for b in range(0x21, 0x7F) if chr(b) not in "#,")


@st.composite
def _regular_files(draw):
    """``(text, missing_time)`` of a regular file, unless some time has 19
    digits or is ``\\N`` with ``missing_time`` unset: comma, space or tab
    separated; labels of 1-20 field bytes, many sharing prefixes across
    8-byte words, or decimal ids (``0``, ids below, at and above the count
    of label fields, leading zeros, 18 and 19 digits), or both; times from
    0 to 2**63 - 1, and ``\\N`` in some files."""
    n_rows = draw(st.integers(1, 30))
    text = st.one_of(st.text(alphabet="ab", min_size=1, max_size=20),
                     st.text(alphabet=_FIELD_CHARS, min_size=1, max_size=20))
    small = st.integers(0, 2 * n_rows + 2).map(str)
    decimal = draw(st.sampled_from([
        small, st.one_of(small, st.sampled_from(["00", "007", "070"])),
        st.one_of(small, st.integers(10**16, 10**19 - 1).map(str))]))
    label = draw(st.sampled_from([text, decimal, decimal, st.one_of(text, decimal)]))
    pool = draw(st.lists(label, min_size=1, max_size=8))
    time = st.one_of(st.integers(0, 20), st.integers(0, 2**63 - 1))
    if draw(st.booleans()):
        time = st.one_of(time, st.just("\\N"))
    rows = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool), time),
                         min_size=n_rows, max_size=n_rows))
    sep = draw(st.sampled_from([",", " ", "\t"]))
    missing_time = draw(st.sampled_from([None, 0, -7]))
    return "".join(f"{s}{sep}{d}{sep}{t}\n" for s, d, t in rows), missing_time


class TestRegularProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(file=_regular_files(), directed=st.booleans())
    def test_matches_per_line_parser(self, file, directed):
        text, missing_time = file
        # the byte path takes a file exactly when each time has at most 18
        # digits or is \N with missing_time set
        times = [line.replace(",", " ").split()[-1] for line in text.splitlines()]
        regular = all(len(t) <= 18 if t != "\\N" else missing_time is not None for t in times)
        taken = graph_module._parse_regular(text.encode(), None, missing_time) is not None
        assert taken == regular
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            path.write_text(text)
            got = _outcome(lambda: ingest_edges(path, directed=directed,
                                                missing_time=missing_time))
        want = _outcome(lambda: normalize_edges(
            *parse_edge_lines(text.splitlines(), missing_time=missing_time), directed=directed))
        assert got == want


def _field_bytes(fields, gaps):
    """``(padded, starts, lengths)`` of ``fields`` written one after another,
    each after its gap, with 8 zero bytes after the last."""
    data, starts = b"", []
    for field, gap in zip(fields, gaps):
        data += gap
        starts.append(len(data))
        data += field
    padded = np.frombuffer(data + bytes(8), dtype=np.uint8).copy()
    return padded, np.array(starts), np.array([len(f) for f in fields])


class TestDecimalFields:
    """``_decimal_fields`` reads what ``int()`` reads from 1-18 ASCII
    digits, whatever bytes lie around each field, and nothing else."""

    _GAPS = st.lists(st.binary(max_size=9), min_size=30, max_size=30)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fields=st.lists(st.text(alphabet="0123456789", min_size=1, max_size=18),
                           min_size=1, max_size=30),
           gaps=_GAPS, dtype=st.sampled_from([np.int32, np.int64]))
    def test_matches_int(self, fields, gaps, dtype):
        padded, starts, lengths = _field_bytes([f.encode() for f in fields], gaps)
        got = graph_module._decimal_fields(padded, starts.astype(dtype), lengths.astype(dtype))
        assert got.dtype == np.int64
        assert got.tolist() == [int(f) for f in fields]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fields=st.lists(st.text(alphabet="0123456789", min_size=1, max_size=18),
                           min_size=1, max_size=30),
           gaps=_GAPS, where=st.integers(0, 10**6), at=st.integers(0, 17),
           byte=st.integers(0, 255).filter(lambda b: not 0x30 <= b <= 0x39))
    def test_other_byte_is_none(self, fields, gaps, where, at, byte):
        fields = [f.encode() for f in fields]
        i = where % len(fields)
        fields[i] = fields[i][:at] + bytes([byte]) + fields[i][at + 1:]
        padded, starts, lengths = _field_bytes(fields, gaps)
        assert graph_module._decimal_fields(padded, starts, lengths) is None

    @pytest.mark.parametrize("field", [b"", b"1" * 19, b"0" * 19, b"9" * 20])
    def test_other_length_is_none(self, field):
        padded, starts, lengths = _field_bytes([b"12", field, b"3"], [b"", b",", b","])
        assert graph_module._decimal_fields(padded, starts, lengths) is None


class TestLoadMemory:
    def test_regular_load_peak(self, tmp_path):
        """Loading a regular file allocates at most 14 times its size at
        the peak (tracemalloc, which sees NumPy's buffers)."""
        rng = np.random.default_rng(5)
        n_lines, n_nodes = 200_000, 50_000
        names = [f"u{i:x}" for i in rng.permutation(n_nodes).tolist()]
        ends = rng.integers(0, n_nodes, (n_lines, 2)).tolist()
        times = rng.integers(0, 1_000_000, n_lines).tolist()
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{names[a]} {names[b]} {t}\n"
                                for (a, b), t in zip(ends, times)))
        tracemalloc.start()
        try:
            ingest_edges(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * path.stat().st_size

    def test_paper_format_load_peak(self, tmp_path):
        """The same bound on the paper's format: tab-separated decimal ids,
        10-digit times and 35% of them ``\\N``."""
        rng = np.random.default_rng(6)
        n_lines, n_nodes = 200_000, 50_000
        ends = rng.integers(0, n_nodes, (n_lines, 2)).tolist()
        times = rng.integers(1_150_000_000, 1_240_000_000, n_lines).astype(str)
        times[rng.random(n_lines) < 0.35] = "\\N"
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{a}\t{b}\t{t}\n" for (a, b), t in zip(ends, times.tolist())))
        assert graph_module._parse_regular(path.read_bytes(), None, 0) is not None
        tracemalloc.start()
        try:
            ingest_edges(path, missing_time=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * path.stat().st_size


class TestInt64Times:
    """A time outside int64 is a malformed line, named by its number."""

    @pytest.mark.parametrize("data", [
        # regular but for a time of 20 digits, or a sign: the byte path declines them
        b"a b 1\nb c 99999999999999999999\n",
        b"a,b,1\nb,c,-9223372036854775809\n",
        b"a\tb\t1\nb\tc\t9223372036854775808\n",  # tab-separated, regular but for the time
    ], ids=["regular-space", "regular-comma", "irregular"])
    def test_time_outside_int64(self, tmp_path, data):
        path = tmp_path / "edges.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="line 2: timestamp .* is outside int64"):
            ingest_edges(path)

    def test_missing_time_outside_int64(self, tmp_path):
        # the fill is a count checked before any line is read, of a regular
        # file too, which holds no missing time
        path = tmp_path / "edges.txt"
        path.write_bytes(b"a,b,1\n")
        bounds = rf"{-2**63}\.\.{2**63 - 1}, got {2**63}"
        with pytest.raises(ConfigError, match=f"missing_time: must be in {bounds}"):
            parse_edge_lines(["a,b,1", "b,c,\\N"], missing_time=2**63)
        with pytest.raises(ConfigError, match=f"missing_time: must be in {bounds}"):
            ingest_edges(path, missing_time=2**63)

    def test_cli_names_a_byte_that_is_not_utf8(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(b"a,b,1\n\xff,c,2\n")
        assert main(["ingest", "--input", str(raw), "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error: line 2: invalid UTF-8 byte 0xff" in err
        assert "Traceback" not in err

    def test_cli_names_the_line(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(b"a b 1\nb c 99999999999999999999\n")
        assert main(["ingest", "--input", str(raw), "--output-dir", str(tmp_path / "out")]) == 1
        assert "line 2" in capsys.readouterr().err


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


class TestDropZeroOutRoundTrip:
    """``--drop-zero-out`` output is numbered like any normalized list, so
    ingesting it again gives the same rows, with each id its own label."""

    @pytest.mark.parametrize("rows", [
        [("a", "x", 1), ("b", "a", 2), ("a", "b", 3)],
        *(_raw_rows(seed) for seed in range(3)),
    ], ids=["x-dropped", "raw-0", "raw-1", "raw-2"])
    def test_reingest_is_identity(self, rows, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("".join(f"{s} {d} {t}\n" for s, d, t in rows))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["ingest", "--directed", "--drop-zero-out", "--input", str(raw),
                     "--output-dir", str(first)]) == 0
        assert main(["ingest", "--directed", "--input", str(first / "normalized.csv"),
                     "--output-dir", str(second)]) == 0
        assert (second / "normalized.csv").read_text() == \
            (first / "normalized.csv").read_text()
        n = len((first / "label_map.csv").read_text().splitlines()) - 1
        assert (second / "label_map.csv").read_text() == \
            "node_id,label\n" + "".join(f"{i},{i}\n" for i in range(n))


#: links added to a seeded list: a pair written twice, in the first and
#: the last window, and a reciprocal pair whose directions land there
_CRAFTED = {
    "duplicate": ([0, 0], [1, 1], [2, 90]),
    "reciprocal": ([2, 3], [3, 2], [5, 80]),
}


def _unsorted_edges(case, directed):
    seed = case if isinstance(case, int) else 0
    rng = np.random.default_rng(seed)
    n_nodes, n_edges = 30, 200
    src = rng.integers(0, n_nodes, n_edges)
    dst = (src + rng.integers(1, n_nodes, n_edges)) % n_nodes
    time = rng.integers(0, 100, n_edges)
    assert np.any(np.diff(time) < 0)
    if case in _CRAFTED:
        src, dst, time = (np.concatenate([a, b]) for a, b in zip((src, dst, time), _CRAFTED[case]))
    return TemporalEdgeList(src=src, dst=dst, time=time,
                            labels=tuple(str(i) for i in range(n_nodes)),
                            directed=directed)


class TestPrefixSnapshots:
    @pytest.mark.parametrize("case", [0, 1, 2, *_CRAFTED])
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("policy", [dict(window_length=13), dict(fixed_count=5)])
    def test_unsorted_times_match_window_masks(self, case, directed, policy):
        edges = _unsorted_edges(case, directed)
        series = build_snapshots(edges, **policy)
        idx, starts, _ = assign_windows(edges.time, **policy)
        assert len(series) == starts.size
        names = ["out_indptr", "out_indices", "in_indptr", "in_indices", "sym_indptr",
                 "sym_indices", "out_degree", "in_degree", "sym_degree"]
        if directed:
            names.append("sym_config")
        held = 0
        for i, g in enumerate(series.graphs):
            mask = idx <= i
            want = SnapshotGraph(edges.n_nodes, edges.src[mask], edges.dst[mask], directed)
            for name in names:
                assert getattr(g, name).tolist() == getattr(want, name).tolist(), name
            assert g.n_edges == want.n_edges
            assert int(series.new_edges[i]) == want.n_edges - held
            held = want.n_edges

    def test_unsorted_preassigned(self):
        edges = _unsorted_edges(0, True)
        edges = TemporalEdgeList(src=edges.src, dst=edges.dst, time=edges.time % 4,
                                 labels=edges.labels, directed=True, time_mode="index")
        series = build_snapshots(edges, preassigned=True)
        held = [0]
        for i, g in enumerate(series.graphs):
            mask = edges.time <= i
            want = SnapshotGraph(edges.n_nodes, edges.src[mask], edges.dst[mask], True)
            assert g.out_indices.tolist() == want.out_indices.tolist()
            assert g.out_indptr.tolist() == want.out_indptr.tolist()
            held.append(want.n_edges)
        assert series.new_edges.tolist() == np.diff(held).tolist()


class TestPickledGraphReadOnly:
    @pytest.mark.parametrize("directed", [False, True])
    def test_arrays_stay_read_only(self, directed):
        g = make_graph([(0, 1), (1, 2), (2, 0), (0, 2)], 3, directed=directed)
        if directed:
            g.sym_config
        h = pickle.loads(pickle.dumps(g))
        arrays = [name for name in SnapshotGraph._ARRAYS
                  if isinstance(getattr(h, name), np.ndarray)]
        assert len(arrays) == (10 if directed else 9)
        for name in arrays:
            assert not getattr(h, name).flags.writeable, name
        if directed:
            assert not h.sym_config.flags.writeable
