"""Temporal edge lists, normalization, and CSR snapshot graphs.

Normalization of a raw edge list:

1. drop self-loops,
2. canonicalize undirected pairs,
3. collapse duplicate pairs keeping the earliest timestamp,
4. stable-sort by time (input order breaks ties),
5. assign dense int ids by first appearance in the sorted edge order.

Step 5 runs after the sort so that normalizing an already-normalized
list is the identity: ids, row order, and orientations all survive a
round trip through ``write_normalized_csv`` / ``ingest_edges``.
"""

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._util import csv_field
from .errors import ConfigError, EmptyInputError, ParseError, PreconditionError

NORMALIZED_HEADER = "src_id,dst_id,time"
LABEL_MAP_HEADER = "node_id,label"

TIME_MODE_TIMESTAMP = "timestamp"
TIME_MODE_INDEX = "index"

#: timestamp field values treated as missing when a fill is configured
_MISSING_TIMES = ("", r"\N")

#: cap on the edges stored across a whole cumulative snapshot series,
#: each edge counted once per snapshot that holds it; windowing fails
#: with ConfigError above it instead of building one CSR per window
MAX_CUMULATIVE_EDGES = 50_000_000


@dataclass(frozen=True)
class TemporalEdgeList:
    """Normalized edges plus the id -> original-label mapping.

    ``time_mode`` says whether the time column holds raw timestamps or
    pre-assigned snapshot indices.
    """

    src: np.ndarray
    dst: np.ndarray
    time: np.ndarray
    labels: tuple
    directed: bool
    time_mode: str = TIME_MODE_TIMESTAMP

    @property
    def n_edges(self):
        return int(self.src.size)

    @property
    def n_nodes(self):
        return len(self.labels)

    def id_of(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"unknown node label: {label!r}") from None


def _empty_edge_list(directed, time_mode):
    arrs = [np.empty(0, dtype=np.int64) for _ in range(3)]
    for a in arrs:
        a.setflags(write=False)
    return TemporalEdgeList(
        src=arrs[0], dst=arrs[1], time=arrs[2], labels=(),
        directed=directed, time_mode=time_mode,
    )


def _split_line(line, delimiter):
    # raw lists come comma- or whitespace-separated; normalized output
    # is always comma-separated
    if delimiter == "comma" or (delimiter is None and "," in line):
        return [f.strip() for f in line.split(",")]
    return line.split()


def parse_edge_lines(lines, delimiter=None, missing_time=None):
    """Parse raw ``src dst time`` lines into label/label/time triples.

    Lines may carry extra trailing fields, which are ignored. A leading
    normalized-CSV header line is skipped. ``missing_time``, when
    given, substitutes for empty or ``\\N`` timestamp fields; otherwise
    those raise :class:`ParseError`.
    """
    if delimiter not in (None, "comma", "whitespace"):
        raise ConfigError(f"unknown delimiter {delimiter!r}")
    src_labels = []
    dst_labels = []
    times = []
    seen_data = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not seen_data:
            seen_data = True
            if stripped == NORMALIZED_HEADER:
                continue
        fields = _split_line(stripped, delimiter)
        if len(fields) < 3:
            raise ParseError(lineno, f"expected at least 3 fields, got {len(fields)}")
        s, d, t = fields[0], fields[1], fields[2]
        if not s or not d:
            raise ParseError(lineno, "empty node field")
        if t in _MISSING_TIMES:
            if missing_time is None:
                raise ParseError(lineno, f"missing timestamp {t!r}")
            tv = int(missing_time)
        else:
            try:
                tv = int(t)
            except ValueError:
                raise ParseError(lineno, f"bad timestamp {t!r}") from None
        src_labels.append(s)
        dst_labels.append(d)
        times.append(tv)
    return src_labels, dst_labels, times


def dedupe_and_sort(src, dst, time, n_key, directed):
    """Collapse duplicate pairs to their earliest time and stable-sort
    by time, first occurrence breaking ties. Arrays are int64 ids.
    The surviving row keeps the orientation it was first written with."""
    if directed:
        key_src, key_dst = src, dst
    else:
        key_src = np.minimum(src, dst)
        key_dst = np.maximum(src, dst)
    key = key_src * np.int64(n_key) + key_dst
    # a stable sort keeps each pair's rows in input order, first row first;
    # keys are >= 0, so the -1 before them opens the first group
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    first = order[starts]
    earliest = np.minimum.reduceat(time[order], starts)
    rows = np.lexsort((first, earliest))
    first = first[rows]
    return src[first], dst[first], earliest[rows]


def normalize_edges(src_labels, dst_labels, times, directed=False,
                    time_mode=TIME_MODE_TIMESTAMP):
    """Build a :class:`TemporalEdgeList` from parsed triples."""
    if time_mode not in (TIME_MODE_TIMESTAMP, TIME_MODE_INDEX):
        raise ConfigError(f"unknown time mode {time_mode!r}")
    # temporary ids by first appearance in the raw rows, only to make pair keys
    tmp = {}
    ids = np.array([tmp.setdefault(x, len(tmp)) for x in chain(src_labels, dst_labels)],
                   dtype=np.int64)
    src, dst = ids[:len(src_labels)], ids[len(src_labels):]
    keep = src != dst
    if not keep.any():
        return _empty_edge_list(directed, time_mode)
    tarr = np.asarray(times, dtype=np.int64)[keep]
    if time_mode == TIME_MODE_INDEX and tarr.min() < 0:
        raise ConfigError("pre-assigned snapshot indices must be >= 0")

    f_src, f_dst, f_time = dedupe_and_sort(src[keep], dst[keep], tarr, len(tmp), directed)

    # final ids by first appearance in the sorted edge order
    tmp_ids, first = np.unique(np.column_stack((f_src, f_dst)).ravel(), return_index=True)
    tmp_ids = tmp_ids[np.argsort(first)]
    remap = np.empty(len(tmp), dtype=np.int64)
    remap[tmp_ids] = np.arange(tmp_ids.size, dtype=np.int64)
    f_src = remap[f_src]
    f_dst = remap[f_dst]
    if not directed:
        f_src, f_dst = np.minimum(f_src, f_dst), np.maximum(f_src, f_dst)

    for arr in (f_src, f_dst, f_time):
        arr.setflags(write=False)
    return TemporalEdgeList(
        src=f_src, dst=f_dst, time=f_time,
        labels=tuple(map(list(tmp).__getitem__, tmp_ids.tolist())),
        directed=directed, time_mode=time_mode,
    )


def ingest_edges(source, directed=False, delimiter=None, time_mode=TIME_MODE_TIMESTAMP,
                 missing_time=None, drop_zero_out=False):
    """Normalize an edge list from a path, file object, or line iterable."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            triples = parse_edge_lines(fh, delimiter=delimiter, missing_time=missing_time)
    else:
        triples = parse_edge_lines(source, delimiter=delimiter, missing_time=missing_time)
    edges = normalize_edges(*triples, directed=directed, time_mode=time_mode)
    if drop_zero_out:
        edges = drop_zero_out_degree(edges)
    return edges


def drop_zero_out_degree(edges):
    """Remove nodes that never appear as a source, plus their incident
    edges. One pass only: removals that create new zero-out-degree
    nodes are kept (matching a single preprocessing sweep)."""
    if not edges.directed:
        raise ConfigError("out-degree filtering applies to directed graphs only")
    if edges.n_edges == 0:
        return edges
    has_out = np.zeros(edges.n_nodes, dtype=bool)
    has_out[edges.src] = True
    if has_out.all():
        return edges
    keep_edge = has_out[edges.dst]
    src = edges.src[keep_edge]
    dst = edges.dst[keep_edge]
    time = edges.time[keep_edge]
    keep_node = has_out.copy()
    # survivors keep their relative id order
    remap = np.full(edges.n_nodes, -1, dtype=np.int64)
    remap[keep_node] = np.arange(int(keep_node.sum()), dtype=np.int64)
    src = remap[src]
    dst = remap[dst]
    labels = tuple(l for l, k in zip(edges.labels, keep_node) if k)
    for arr in (src, dst, time):
        arr.setflags(write=False)
    return TemporalEdgeList(
        src=src, dst=dst, time=time, labels=labels,
        directed=True, time_mode=edges.time_mode,
    )


def write_normalized_csv(edges, path):
    rows = zip(edges.src.tolist(), edges.dst.tolist(), edges.time.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(NORMALIZED_HEADER + "\n")
        fh.writelines(f"{s},{d},{t}\n" for s, d, t in rows)


def write_label_map_csv(edges, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABEL_MAP_HEADER + "\n")
        fh.writelines(f"{node_id},{csv_field(label)}\n"
                      for node_id, label in enumerate(edges.labels))


# ---------------------------------------------------------------------------
# snapshot graphs


def _sorted_entries(src, dst, bits=None):
    """Row and column of each distinct entry ``src -> dst``, sorted by
    (row, column), and ``bits``, if given, OR-ed over each entry's copies."""
    order = np.lexsort((dst, src))
    s = src[order]
    d = dst[order]
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
    if bits is not None:
        bits = np.bitwise_or.reduceat(bits[order], np.flatnonzero(keep))
    return s[keep], d[keep], bits


def _indptr(n_nodes, rows):
    """CSR row pointers of entries with the given ascending row ids."""
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return indptr


class SnapshotGraph:
    """One static snapshot in CSR form.

    Directed graphs carry three adjacencies, out, in, and the
    symmetrized union, and the link config of each symmetric entry; one
    sort builds them all. Undirected graphs store the symmetric
    adjacency once and alias all three views to it. Immutable once built.
    """

    __slots__ = (
        "n_nodes",
        "directed",
        "index",
        "window_start",
        "window_end",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        "sym_indptr",
        "sym_indices",
        "out_degree",
        "in_degree",
        "sym_degree",
        "_sym_config",
    )

    def __init__(self, n_nodes, src, dst, directed, index=None,
                 window_start=None, window_end=None):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        self.n_nodes = n = int(n_nodes)
        self.directed = bool(directed)
        self.index = index
        self.window_start = window_start
        self.window_end = window_end
        # direction bit of each entry: 1 if inserted as row -> col, 2 if
        # inserted as col -> row; a reciprocal link's entries merge to 3
        bits = np.repeat(np.array([1, 2], dtype=np.int8), src.size) if directed else None
        rows, self.sym_indices, bits = _sorted_entries(
            np.concatenate([src, dst]), np.concatenate([dst, src]), bits)
        self.sym_indptr = _indptr(n, rows)
        self._sym_config = 1 + (bits >> 1) - (bits & 1) if directed else None
        if directed:
            out, inn = bits != 2, bits != 1
            self.out_indptr, self.out_indices = _indptr(n, rows[out]), self.sym_indices[out]
            self.in_indptr, self.in_indices = _indptr(n, rows[inn]), self.sym_indices[inn]
        else:
            self.out_indptr, self.out_indices = self.sym_indptr, self.sym_indices
            self.in_indptr, self.in_indices = self.sym_indptr, self.sym_indices
        self.out_degree = np.diff(self.out_indptr)
        self.in_degree = np.diff(self.in_indptr)
        self.sym_degree = np.diff(self.sym_indptr)
        self._freeze()

    def _freeze(self):
        for value in self.__getstate__().values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._freeze()

    @property
    def n_edges(self):
        if self.directed:
            return int(self.out_indices.size)
        return int(self.sym_indices.size) // 2

    def _check_node(self, u):
        if not 0 <= u < self.n_nodes:
            raise IndexError(f"node id {u} out of range [0, {self.n_nodes})")

    def successors(self, u):
        self._check_node(u)
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def predecessors(self, u):
        self._check_node(u)
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    def neighbors(self, u):
        """Symmetrized neighborhood (equals successors when undirected)."""
        self._check_node(u)
        return self.sym_indices[self.sym_indptr[u]:self.sym_indptr[u + 1]]

    @property
    def sym_config(self):
        """Read-only int8 array aligned with ``sym_indices``: the config
        (``ego.EdgeConfig``) of each entry's link, read from the row's
        node: 0 for row -> entry only, 1 reciprocal, 2 entry -> row only.
        Directed graphs only; recorded by the sort that builds the rows."""
        if not self.directed:
            raise PreconditionError("link configs need a directed graph")
        return self._sym_config


@dataclass(frozen=True)
class SnapshotSeries:
    """Cumulative snapshots: graph ``i`` holds every edge assigned to
    windows ``0..i``."""

    graphs: list
    new_edges: np.ndarray
    directed: bool
    n_nodes: int = field(default=0)

    def __len__(self):
        return len(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]


def _check_cumulative_edges(idx, n_windows, what):
    """ConfigError when the cumulative snapshots over windows ``idx`` would
    hold more than MAX_CUMULATIVE_EDGES edges: snapshot ``i`` holds the
    edges with ``idx <= i``, ``n_windows * n_edges - sum(idx)`` in all.
    The earliest edge alone adds ``n_windows``, so testing that first
    keeps ``sum(idx)`` from overflowing."""
    if (n_windows > MAX_CUMULATIVE_EDGES
            or n_windows * idx.size - int(idx.sum()) > MAX_CUMULATIVE_EDGES):
        raise ConfigError(
            f"{what} gives {n_windows} windows, whose cumulative snapshots "
            f"would hold more than {MAX_CUMULATIVE_EDGES} edges in total"
        )


def assign_windows(times, window_length=None, fixed_count=None):
    """Map timestamps to window indices; returns (indices, starts, width)."""
    times = np.asarray(times, dtype=np.int64)
    if times.size == 0:
        raise EmptyInputError("cannot window an empty edge list")
    if (window_length is None) == (fixed_count is None):
        raise ConfigError("give exactly one of window_length= or fixed_count=")
    t_min = int(times.min())
    t_max = int(times.max())
    span = t_max - t_min + 1
    if window_length is not None:
        width = int(window_length)
        if width <= 0:
            raise ConfigError(f"window length must be positive, got {window_length}")
        n = math.ceil(span / width)
        what = f"window length {width}"
    else:
        n = int(fixed_count)
        if n <= 0:
            raise ConfigError(f"window count must be positive, got {fixed_count}")
        width = math.ceil(span / n)
        what = f"window count {n}"
    idx = (times - t_min) // width
    _check_cumulative_edges(idx, n, what)
    starts = t_min + width * np.arange(n, dtype=np.int64)
    return idx, starts, width


def build_snapshots(edges, window_length=None, fixed_count=None, preassigned=False):
    """Cut a normalized edge list into a cumulative :class:`SnapshotSeries`.

    With ``preassigned=True`` the time column already holds snapshot
    indices, which must be contiguous from 0; an empty list then yields
    an empty series instead of an error.
    """
    if preassigned:
        if window_length is not None or fixed_count is not None:
            raise ConfigError("preassigned windows take no length/count")
        if edges.n_edges == 0:
            return SnapshotSeries(
                graphs=[],
                new_edges=np.empty(0, dtype=np.int64),
                directed=edges.directed,
                n_nodes=edges.n_nodes,
            )
        idx = edges.time.astype(np.int64)
        present = np.unique(idx)
        n = int(present[-1]) + 1
        if present[0] < 0 or present.size != n:
            raise ConfigError("pre-assigned snapshot indices must be contiguous from 0")
        _check_cumulative_edges(idx, n, f"pre-assigned snapshot count {n}")
        starts = np.arange(n, dtype=np.int64)
        width = 1
    else:
        idx, starts, width = assign_windows(
            edges.time, window_length=window_length, fixed_count=fixed_count
        )
        n = starts.size

    # snapshot i holds the first ends[i] edges in window order
    new_counts = np.bincount(idx, minlength=n)
    ends = np.cumsum(new_counts)
    order = np.argsort(idx, kind="stable")
    src, dst = edges.src[order], edges.dst[order]
    graphs = [
        SnapshotGraph(
            edges.n_nodes, src[:end], dst[:end], edges.directed,
            index=i, window_start=int(starts[i]), window_end=int(starts[i]) + width,
        )
        for i, end in enumerate(ends.tolist())
    ]
    new_counts.setflags(write=False)
    return SnapshotSeries(
        graphs=graphs,
        new_edges=new_counts,
        directed=edges.directed,
        n_nodes=edges.n_nodes,
    )
