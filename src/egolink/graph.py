"""Temporal edge lists, normalization, and CSR snapshot graphs.

Normalization of a raw edge list:

1. drop self-loops,
2. canonicalize undirected pairs,
3. collapse duplicate pairs keeping the earliest timestamp,
4. sort by time (input order breaks ties),
5. assign dense int ids by first appearance in the sorted edge order.

Step 5 runs after the sort so that normalizing an already-normalized
list is the identity: ids, row order, and orientations all survive a
round trip through ``write_normalized_csv`` / ``ingest_edges``, and so
does the output of ``drop_zero_out_degree``, which numbers by this rule.

Loading reads a file once. A regular file, ``src<sep>dst<sep>time``
lines of ASCII with one separator byte (comma, tab or space), nothing to
strip and times of at most 18 digits or ``\\N`` when a missing time is
set, is checked and read with NumPy on its bytes, with no Python object
per line: times are read eight digits to a 64-bit word, and so are the
labels when they are canonical decimal ids, each then its own code;
other labels are factorized in 8-byte words. Any other input goes
through the per-line ``parse_edge_lines``, which alone numbers the line
of a ``ParseError``, and ``normalize_edges``; both paths share
``_normalize_ids``, whose ``dedupe_and_sort`` returns rows that are
already distinct and in time order as they are and sorts others twice,
by pair and by earliest time. ``write_normalized_csv`` writes by the
column, in binary mode (``\\n`` line ends on every platform, which the
byte path reads): ``_decimal_rows`` forms each run's digits with NumPy,
with no Python object per row. A cumulative snapshot
series is cut from one sort of the 2E symmetric entries of its edges
(``_EntrySort``): snapshot ``i`` keeps the entries that hold by window
``i``, with no sort of its own, and is built only when first read; a
window that adds no edge shares the snapshot before it.
``SnapshotGraph`` builds one graph by the same sort and cut.

Step 1 holds for every graph the package builds, from hand-built pairs
too: ``_EntrySort``, which every snapshot graph passes, drops self-loops.
Every holder of arrays names them in ``_ARRAYS``, and ``_ReadOnlyArrays``
alone makes them read-only; the frozen dataclasses among them
(``_ArrayRecord``) compare their arrays by value, the snapshot graphs
and series by identity.
"""

import io
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

from ._util import INT64_MAX, INT64_MIN, count, csv_field, whole_number
from .errors import ConfigError, EmptyInputError, ParseError, PreconditionError

NORMALIZED_HEADER = "src_id,dst_id,time"
LABEL_MAP_HEADER = "node_id,label"

TIME_MODE_TIMESTAMP = "timestamp"
TIME_MODE_INDEX = "index"

#: timestamp field values treated as missing when a fill is configured
_MISSING_TIMES = ("", r"\N")

#: cap on the edges stored across a whole cumulative snapshot series,
#: each edge counted once per distinct snapshot that holds it (one per
#: window that adds an edge); windowing fails with ConfigError above it
MAX_CUMULATIVE_EDGES = 50_000_000


class _ReadOnlyArrays:
    """Base of a class whose ``_ARRAYS`` attributes hold read-only views,
    of dtype ``_DTYPE`` or else their own, after unpickling too; the
    caller's arrays keep their own flags. Attributes that alias one array
    share one view, so a pickle holds it once; a None attribute stays None.
    A dataclass runs ``__post_init__`` itself, any other class by hand."""

    _DTYPE = None

    def __post_init__(self):
        # each value stays alive in ``values`` while its id keys ``views``
        values, views = [getattr(self, name) for name in self._ARRAYS], {}
        for name, value in zip(self._ARRAYS, values):
            if value is not None and id(value) not in views:
                views[id(value)] = np.asarray(value, dtype=self._DTYPE).view()
                views[id(value)].setflags(write=False)
            object.__setattr__(self, name, views.get(id(value)))

    def __setstate__(self, state):
        # unpickling skips __post_init__, and arrays unpickle writeable
        self.__dict__.update(state)
        self.__post_init__()


class _ArrayRecord(_ReadOnlyArrays):
    """Base of a frozen dataclass of ``_ReadOnlyArrays``, declared with
    ``eq=False``: two of one class are equal when their ``_ARRAYS``
    fields are ``np.array_equal`` and their other fields ``==``."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if f.name in self._ARRAYS else a == b):
                return False
        return True


@dataclass(frozen=True, eq=False)
class TemporalEdgeList(_ArrayRecord):
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

    _ARRAYS = ("src", "dst", "time")
    _DTYPE = np.int64

    @property
    def n_edges(self):
        return int(self.src.size)

    @property
    def n_nodes(self):
        return len(self.labels)

    @cached_property
    def _ids(self):
        return {label: i for i, label in enumerate(self.labels)}

    def id_of(self, label):
        try:
            return self._ids[str(label)]
        except KeyError:
            raise KeyError(f"unknown node label: {label!r}") from None


def _empty_edge_list(directed, time_mode):
    return TemporalEdgeList(src=(), dst=(), time=(), labels=(),
                            directed=directed, time_mode=time_mode)


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
    those raise :class:`ParseError`, as does a time outside int64.
    """
    if delimiter not in (None, "comma", "whitespace"):
        raise ConfigError(f"unknown delimiter {delimiter!r}")
    missing_time = None if missing_time is None else count("missing_time", missing_time, INT64_MIN)
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
            tv = missing_time
        else:
            try:
                tv = int(t)
            except ValueError:
                raise ParseError(lineno, f"bad timestamp {t!r}") from None
            if not INT64_MIN <= tv <= INT64_MAX:
                raise ParseError(lineno, f"timestamp {tv} is outside int64")
        src_labels.append(s)
        dst_labels.append(d)
        times.append(tv)
    return src_labels, dst_labels, times


def dedupe_and_sort(src, dst, time, n_key, directed):
    """Collapse duplicate pairs to their earliest time and sort by time,
    first occurrence breaking ties. Arrays are int64 ids below ``n_key``.
    The surviving row keeps the orientation it was first written with;
    distinct pairs whose times ascend come back as they are."""
    if directed:
        key_src, key_dst = src, dst
    else:
        key_src = np.minimum(src, dst)
        key_dst = np.maximum(src, dst)
    key = key_src * np.int64(n_key) + key_dst
    del key_src, key_dst
    # times by a comparison, as np.diff wraps at the int64 ends; keys are >= 0
    if (time[1:] >= time[:-1]).all() and np.diff(np.sort(key)).all():
        return src, dst, time
    # any sort serves: a run's smallest index is its pair's first occurrence
    order = np.argsort(key)
    # keys are >= 0, so the -1 before them opens the first run
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    first = np.minimum.reduceat(order, starts)
    # each first occurrence's earliest time, read in row order with no sort;
    # key is spent, so it holds them
    key[first] = np.minimum.reduceat(time[order], starts)
    del order, starts
    is_first = np.zeros(src.size, dtype=bool)
    is_first[first] = True
    first = is_first.nonzero()[0]
    earliest = key[first]
    if not (earliest[1:] >= earliest[:-1]).all():
        # by (time, row): one sort of both as one int64 when the times' span
        # allows it, as NumPy's stable sort of int64 (a timsort) is several
        # times slower on times in no order; else a stable sort of the times
        size, low = first.size, earliest.min()
        if int(earliest.max()) - int(low) <= (INT64_MAX - size) // size:
            both = (earliest - low) * size + np.arange(size)
            both.sort()
            rows = both % size
        else:
            rows = np.argsort(earliest, kind="stable")
        first, earliest = first[rows], earliest[rows]
    return src[first], dst[first], earliest


def _int64_times(times):
    """``times`` as an int64 array; ConfigError naming the first row whose
    time is not an int64."""
    try:
        return np.asarray(times, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        for row, t in enumerate(times):
            try:
                np.asarray(t, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                raise ConfigError(f"time {t!r} in row {row} is not an int64") from None
        raise


def normalize_edges(src_labels, dst_labels, times, directed=False,
                    time_mode=TIME_MODE_TIMESTAMP):
    """Build a :class:`TemporalEdgeList` from parsed triples."""
    if not len(src_labels) == len(dst_labels) == len(times):
        raise ConfigError(f"source labels, destination labels and times differ in length: "
                          f"{len(src_labels)}, {len(dst_labels)} and {len(times)}")
    times = _int64_times(times)
    # temporary ids by first appearance in the raw rows, only to make pair keys
    tmp = {}
    ids = np.array([tmp.setdefault(x, len(tmp)) for x in chain(src_labels, dst_labels)],
                   dtype=np.int64)
    n = len(src_labels)
    return _normalize_ids(ids[:n], ids[n:], list(tmp), times, directed, time_mode)


def _normalize_ids(src, dst, table, times, directed, time_mode):
    """``normalize_edges`` of rows whose labels are already numbered:
    ``src``/``dst`` are int64 indices into ``table``, the list of labels,
    and ``times`` is int64. Any injective numbering of ``table`` gives
    the same edge list: ``dedupe_and_sort`` orders rows by time and
    position only, and the final ids are assigned after it."""
    if time_mode not in (TIME_MODE_TIMESTAMP, TIME_MODE_INDEX):
        raise ConfigError(f"unknown time mode {time_mode!r}")
    keep = src != dst
    if not keep.any():
        return _empty_edge_list(directed, time_mode)
    times = times[keep]
    if time_mode == TIME_MODE_INDEX and times.min() < 0:
        raise ConfigError("pre-assigned snapshot indices must be >= 0")

    f_src, f_dst, f_time = dedupe_and_sort(src[keep], dst[keep], times, len(table), directed)

    # final ids by first appearance in the sorted edge order
    endpoints = np.column_stack((f_src, f_dst)).ravel()
    first = np.full(len(table), endpoints.size, dtype=np.int64)
    np.minimum.at(first, endpoints, np.arange(endpoints.size))
    tmp_ids = np.flatnonzero(first < endpoints.size)
    tmp_ids = tmp_ids[np.argsort(first[tmp_ids])]
    remap = np.empty(len(table), dtype=np.int64)
    remap[tmp_ids] = np.arange(tmp_ids.size, dtype=np.int64)
    f_src = remap[f_src]
    f_dst = remap[f_dst]
    if not directed:
        f_src, f_dst = np.minimum(f_src, f_dst), np.maximum(f_src, f_dst)

    return TemporalEdgeList(
        src=f_src, dst=f_dst, time=f_time,
        labels=tuple(map(table.__getitem__, tmp_ids.tolist())),
        directed=directed, time_mode=time_mode,
    )


_HEADER_LINE = (NORMALIZED_HEADER + "\n").encode()

#: ``_KEEP[k]`` keeps the first ``k`` bytes of a big-endian 8-byte word
#: and zeroes the rest
_KEEP = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)], dtype=np.uint64)

#: 8-byte word constants of ``_octets``: one byte in every byte
_ZEROS, _HIGH, _SIX = (np.uint64(0x0101010101010101 * b) for b in (0x30, 0xF0, 0x06))
#: the multiply-adds of ``_octets``, as ``(multiplier, shift, mask)``: the
#: lanes of 2, then 4, then 8 bytes take 10, 100, then 10,000 times the
#: number in their low half plus the one in their high half
_JOINS = ((np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
          (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
          (np.uint64(10_000 << 32 | 1), np.uint64(32), None))


def _field_codes(padded, starts, lengths):
    """Codes of the fields ``padded[starts[i]:starts[i] + lengths[i]]``:
    a dense int64 code per field, equal for equal bytes, and one field
    index per code. No field byte is 0 and ``padded`` ends in 8 zeros.

    A field is read in big-endian 8-byte words, zero past its end, so
    the zeros tell a field from its prefixes. The word at byte ``offset``
    of the fields longer than ``offset`` is factorized with their code so
    far into codes above every code given before; fields no longer than
    ``offset`` already differ from those in length and keep their codes."""
    # every 8-byte word of ``padded``, one starting at each byte
    words = np.ndarray((padded.size - 7,), dtype=">u8", buffer=padded, strides=(1,))
    code = np.unique(words[starts] & _KEEP[np.minimum(lengths, 8)], return_inverse=True)[1]
    n_codes = int(code.max()) + 1
    longest = int(lengths.max())
    for offset in range(8, longest, 8):
        rows = np.flatnonzero(lengths > offset)
        word = np.unique(words[starts[rows] + offset]
                         & _KEEP[np.minimum(lengths[rows] - offset, 8)], return_inverse=True)[1]
        word = np.unique(code[rows] * (int(word.max()) + 1) + word, return_inverse=True)[1]
        code[rows] = n_codes + word
        n_codes += int(word.max()) + 1
    if longest > 8:
        # close the gaps left by codes that only longer fields had held
        code = np.unique(code, return_inverse=True)[1]
    rep = np.empty(int(code.max()) + 1, dtype=np.int64)
    rep[code] = np.arange(code.size)
    return code, rep


def _octets(words, shift):
    """The numbers that uint64 ``words`` spell, in place, or None when a
    byte is not an ASCII digit: each word holds 8 ASCII bytes read
    little-endian, the first lowest, of which the last ``shift // 8`` are
    dropped and as many leading zeros read before the rest."""
    words ^= _ZEROS
    words <<= shift
    # the two nibble tests: every high nibble is 0, every low one at most 9
    if (((words + _SIX) | words) & _HIGH).any():
        return None
    for mul, bits, mask in _JOINS:
        words *= mul
        words >>= bits
        if mask is not None:
            words &= mask
    return words


def _decimal_fields(padded, starts, lengths):
    """int64 values of the fields ``padded[starts[i]:starts[i] + lengths[i]]``
    when each is 1 to 18 ASCII digits, which always fit int64, else None.
    ``padded`` holds 7 bytes past the last field.

    Eight digits are read at once, as one little-endian word (SWAR, as
    simdjson reads numbers). A field's first ``(length - 1) % 8 + 1``
    digits are the word at its start, shifted up until they fill its top
    bytes: the zero bytes shifted in below them read as leading zeros, so
    every test and join is by scalar masks. Each further 8 digits, at
    most two words, are the word that follows."""
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    # every 8-byte word of ``padded``, one starting at each byte
    words = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
    value = _octets(words[starts], -lengths.astype(np.uint8) % 8 * 8)
    if value is None:
        return None
    for k in (1, 2):
        rows = np.flatnonzero(lengths > 8 * k)
        if not rows.size:
            break
        word = _octets(words[starts[rows] + (lengths[rows] - 1) % 8 + 8 * k - 7], 0)
        if word is None:
            return None
        value[rows] = value[rows] * np.uint64(10**8) + word
    return value.view(np.int64)


def _parse_regular(data, delimiter, missing_time):
    """The rows of a whole file's bytes for ``_normalize_ids``, as
    ``(src ids, dst ids, label table, times)``, when the file shows it is
    regular, else None.

    Regular is ASCII with no ``\\r``; then optional leading ``#`` comment
    lines and a normalized-CSV header; then only lines
    ``src<sep>dst<sep>time\\n`` of non-empty fields of printable ASCII but
    space, ``#`` and ``,``, ``sep`` being the one byte the per-line rule
    splits them on: a comma when the body holds one or ``delimiter`` is
    ``comma``, else a tab when the body holds one, else a space; and every
    time is 1 to 18 ASCII digits or, when ``missing_time`` is set, ``\\N``.
    Any such line reads the same under the per-line rule, which splits on
    that separator and strips nothing; a file with a sign, an underscore
    or 19 digits in some time, or a ``\\N`` time and no ``missing_time``,
    is left to it, which names the line.

    Labels and times are read on the bytes, with no Python object per
    line. The marks (separators and newlines) come from byte comparisons.
    Each time is read eight digits to a word (``_decimal_fields``), a
    ``\\N`` rewritten ``00`` first and then set to ``missing_time``. When
    the labels are canonical decimals, with no leading zero (``0`` itself
    excepted) and the largest below the count of label fields, the same
    reader reads them and each id is its own code, ``str(i)`` its label.
    Other labels are factorized in 8-byte words (``_field_codes``) and one
    field of each distinct label is decoded.
    """
    if delimiter not in (None, "comma", "whitespace") or not data.isascii() or b"\r" in data:
        return None
    start = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
        if not start:
            return None
    if data.startswith(_HEADER_LINE, start):
        start += len(_HEADER_LINE)
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    if not body.size or body[-1] != ord("\n"):
        return None

    def holds(byte):
        return data.find(byte, start) >= 0

    sep = (b"," if delimiter == "comma" or (delimiter is None and holds(b","))
           else b"\t" if holds(b"\t") else b" ")
    if holds(b"#") or holds(b"\x7f") or (sep != b"," and holds(b",")):
        return None
    # the marks, every byte that is no field byte: each line ends in sep, sep, newline
    marks = body <= ord(" ")
    if sep == b",":
        marks |= body == ord(",")
    # int32 positions when they fit: the marks, starts and lengths are
    # the largest arrays a line makes
    marks = np.flatnonzero(marks).astype(np.int32 if len(data) < 2**31 else np.int64)
    line_end = np.frombuffer(sep + sep + b"\n", dtype=np.uint8)
    if marks.size % 3 or not (body[marks].reshape(-1, 3) == line_end).all():
        return None
    marks = marks.reshape(-1, 3)
    padded = np.zeros(body.size + 8, dtype=np.uint8)
    padded[:body.size] = body

    starts = marks[:, 1] + 1
    lengths = marks[:, 2] - starts
    # a missing time, exactly \N, is rewritten 00 and read as missing_time
    missing = np.flatnonzero(padded[starts] == ord("\\")) if holds(b"\\") else []
    if len(missing):
        missing = missing[(lengths[missing] == 2) & (padded[starts[missing] + 1] == ord("N"))]
        if missing_time is None and missing.size:
            return None
        padded[starts[missing]] = padded[starts[missing] + 1] = ord("0")
    times = _decimal_fields(padded, starts, lengths)
    if times is None:
        return None
    if len(missing):
        times[missing] = missing_time

    # the label fields, sources then destinations
    n = marks.shape[0]
    starts = np.concatenate([np.zeros(1, marks.dtype), marks[:-1, 2] + 1, marks[:, 0] + 1])
    lengths = np.concatenate([marks[:, 0], marks[:, 1]]) - starts
    del marks
    if lengths.min() < 1:
        return None
    # each label's first digit, or a byte above 9: no word is read then
    head = padded[starts] - np.uint8(ord("0"))
    ids = _decimal_fields(padded, starts, lengths) if head.max() <= 9 else None
    if ids is not None and ids.max() < ids.size and not ((head == 0) & (lengths > 1)).any():
        return ids[:n], ids[n:], list(map(str, range(int(ids.max()) + 1))), times
    del ids, head
    code, rep = _field_codes(padded, starts, lengths)
    del padded
    table = [str(data[a:a + m], "ascii")
             for a, m in zip((starts[rep] + start).tolist(), lengths[rep].tolist())]
    return code[:n], code[n:], table, times


def ingest_edges(source, directed=False, delimiter=None, time_mode=TIME_MODE_TIMESTAMP,
                 missing_time=None, drop_zero_out=False):
    """Normalize an edge list from a path, file object, or line iterable.

    A path is read once. A regular file (``_parse_regular``) is read on
    its bytes; any other goes through ``parse_edge_lines``, decoded as
    UTF-8 with universal newlines, a byte that is not UTF-8 being a
    ParseError of its line.
    """
    missing_time = None if missing_time is None else count("missing_time", missing_time, INT64_MIN)
    rows = None
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            data = fh.read()
        rows = _parse_regular(data, delimiter, missing_time)
        if rows is None:
            try:
                source = io.StringIO(data.decode("utf-8"), newline=None)
            except UnicodeDecodeError as exc:
                head = data[:exc.start].replace(b"\r\n", b"\n")
                raise ParseError(head.count(b"\n") + head.count(b"\r") + 1,
                                 f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
        del data
    if rows is None:
        triples = parse_edge_lines(source, delimiter=delimiter, missing_time=missing_time)
        edges = normalize_edges(*triples, directed=directed, time_mode=time_mode)
    else:
        edges = _normalize_ids(*rows, directed, time_mode)
    if drop_zero_out:
        edges = drop_zero_out_degree(edges)
    return edges


def drop_zero_out_degree(edges):
    """Remove nodes that never appear as a source, plus their incident
    edges, in one pass (removals that create new zero-out-degree nodes are
    kept, matching a single preprocessing sweep); ``_normalize_ids``
    numbers the kept edges, so a node in none of them leaves the labels.
    With pre-assigned snapshot indices, a ConfigError names the first
    index whose every edge is removed."""
    if not edges.directed:
        raise ConfigError("out-degree filtering applies to directed graphs only")
    has_out = np.zeros(edges.n_nodes, dtype=bool)
    has_out[edges.src] = True
    keep = has_out[edges.dst]
    if edges.time_mode == TIME_MODE_INDEX:
        emptied = np.setdiff1d(edges.time, edges.time[keep])
        if emptied.size:
            raise ConfigError(f"drop_zero_out: removing the nodes that are never a source "
                              f"removes every edge of snapshot index {emptied[0]}")
    return _normalize_ids(edges.src[keep], edges.dst[keep], edges.labels, edges.time[keep],
                          True, edges.time_mode)


#: rows per run of ``write_normalized_csv``: only one run's records are
#: alive at once
_WRITE_RUN = 1 << 14


def _decimal_rows(columns):
    """The bytes of ``"%d,...,%d\\n" % row`` for each row of equal-length
    int64 ``columns``. Each column is a fixed-width field as wide as its
    largest magnitude, with one sign byte on its left when it holds a
    negative value; digits are filled from the units up, one per pass, a
    space standing in each position past a value's last digit and for a
    plus sign, and the spaces are then deleted."""
    n = len(columns[0])
    if n == 0:
        return b""
    fields = []
    for a in columns:
        neg = a < 0
        if neg.any():
            # the uint64 negation reads INT64_MIN as 2**63
            u = a.view(np.uint64)
            mag = np.where(neg, -u, u)
        else:
            neg, mag = None, a.view(np.uint64)
        top = int(mag.max())
        # uint32 division is about twice as fast as uint64
        fields.append((neg, mag.astype(np.uint32) if top >> 32 == 0 else mag, len(str(top))))
    rec = np.empty((n, sum((neg is not None) + w + 1 for neg, _, w in fields)), dtype=np.uint8)
    end = 0
    for neg, mag, w in fields:
        if neg is not None:
            rec[:, end] = np.where(neg, np.uint8(ord("-")), np.uint8(ord(" ")))
            end += 1
        end += w
        for k in range(end - 1, end - w - 1, -1):
            q = mag // 10
            digit = mag - q * 10
            digit += ord("0")
            if k < end - 1:
                digit[mag == 0] = ord(" ")
            rec[:, k] = digit
            mag = q
        rec[:, end] = ord(",")
        end += 1
    rec[:, -1] = ord("\n")
    return rec.tobytes().translate(None, b" ")


def write_normalized_csv(edges, path):
    """``edges`` as ``normalized.csv``, in binary mode: ``\\n`` line ends
    on every platform."""
    with open(path, "wb") as fh:
        fh.write(NORMALIZED_HEADER.encode() + b"\n")
        for i in range(0, edges.n_edges, _WRITE_RUN):
            fh.write(_decimal_rows([a[i:i + _WRITE_RUN] for a in (edges.src, edges.dst, edges.time)]))


def write_label_map_csv(edges, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABEL_MAP_HEADER + "\n")
        fh.writelines(f"{node_id},{csv_field(label)}\n"
                      for node_id, label in enumerate(edges.labels))


# ---------------------------------------------------------------------------
# snapshot graphs


def _out_of_range(u, n_nodes):
    return IndexError(f"node id {u} out of range [0, {n_nodes})")


class _EntrySort:
    """One sort of the 2E symmetric entries ``(row, col)`` of the edges
    ``src -> dst``, edge ``k`` added in window ``window[k]`` (0 when None)
    of ``n_windows``: the gate of every snapshot graph. The first id
    outside [0, ``n_nodes``) raises ``SnapshotGraph``'s IndexError, and a
    self-loop is dropped. ``new_edges`` counts the distinct edges each
    window adds, each edge in the first window that holds it; window 0
    and each later window that adds one open a cut, ``graph_of`` maps
    each window to its cut, and ``n_cuts`` counts them. Of the distinct
    entries ``rows``/``cols``, sorted by (row, col), ``first`` is the
    first cut that holds each. Directed entries also get
    ``first_out``/``first_in``, the first cut that holds their ``row ->
    col``/``col -> row`` link, ``n_cuts`` standing for never. Each
    cumulative snapshot is a ``cut`` of it, with no sort of its own."""

    def __init__(self, n_nodes, src, dst, directed, window=None, n_windows=1):
        n = np.int64(n_nodes)
        if src.size and not (0 <= min(src.min(), dst.min()) and max(src.max(), dst.max()) < n):
            ids = np.column_stack((src, dst)).ravel()
            raise _out_of_range(ids[(ids < 0) | (ids >= n)][0], n_nodes)
        # with room for n_windows, which stands for never
        window = (np.zeros(src.size, dtype=np.uint8) if window is None
                  else window.astype(np.min_scalar_type(n_windows)))
        loop = src == dst
        if loop.any():
            src, dst, window = src[~loop], dst[~loop], window[~loop]
        self.directed = directed
        key = np.concatenate([src * n + dst, dst * n + src])
        order = np.argsort(key)
        key = key[order]
        # keys are >= 0, so the -1 before them opens the first group
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        key = key[starts]
        self.rows = key // n
        self.cols = key - self.rows * n
        del key
        window = np.concatenate([window, window])[order]
        if directed:
            # an entry's link row -> col holds from the first window of its
            # copies inserted as src -> dst, the first half; col -> row from
            # that of the others; an edge is the row -> col link of one entry
            forward = order < src.size
            firsts = [np.minimum.reduceat(np.where(forward, window, n_windows), starts),
                      np.minimum.reduceat(np.where(forward, n_windows, window), starts)]
            self.new_edges = np.bincount(firsts[0], minlength=n_windows + 1)[:n_windows]
        else:
            # an edge is two entries
            firsts = [np.minimum.reduceat(window, starts)]
            self.new_edges = np.bincount(firsts[0], minlength=n_windows) // 2
        opens = self.new_edges > 0
        opens[:1] = True
        self.graph_of = np.cumsum(opens) - 1
        self.n_cuts = n_cuts = int(np.count_nonzero(opens))
        if n_cuts < n_windows:
            # a window that adds no edge holds the cut before it; never stays never
            cut_of = np.append(self.graph_of, n_cuts).astype(np.min_scalar_type(n_cuts))
            firsts = [cut_of[w] for w in firsts]
        if directed:
            self.first_out, self.first_in = firsts
            self.first = np.minimum(self.first_out, self.first_in)
        else:
            (self.first,) = firsts

    def cut(self, k):
        """``(rows, cols, out, inn)``: the entries held by cut ``k``,
        where ``out``/``inn`` (directed only, else None) flag those whose
        ``row -> col``/``col -> row`` link holds by then. The last cut
        holds every entry and takes the arrays uncopied."""
        held = slice(None) if k == self.n_cuts - 1 else (self.first <= k).nonzero()[0]
        if not self.directed:
            return self.rows[held], self.cols[held], None, None
        return (self.rows[held], self.cols[held],
                self.first_out[held] <= k, self.first_in[held] <= k)


def _indptr(n_nodes, rows):
    """CSR row pointers of entries with the given ascending row ids."""
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return indptr


class SnapshotGraph(_ReadOnlyArrays):
    """One static snapshot in CSR form.

    Directed graphs carry three adjacencies, out, in, and the
    symmetrized union, and the link config of each symmetric entry; one
    sort builds them all. Undirected graphs store the symmetric
    adjacency and its degrees once and alias all three views to them.
    Immutable once built.
    """

    _ARRAYS = ("out_indptr", "out_indices", "in_indptr", "in_indices", "sym_indptr",
               "sym_indices", "out_degree", "in_degree", "sym_degree", "_sym_config")

    def __init__(self, n_nodes, src, dst, directed):
        n_nodes = count("n_nodes", n_nodes, 0)
        entries = _EntrySort(n_nodes, np.asarray(src, dtype=np.int64),
                             np.asarray(dst, dtype=np.int64), directed)
        self._set_entries(n_nodes, directed, *entries.cut(0))

    def _set_entries(self, n_nodes, directed, rows, cols, out, inn):
        """Every array from the distinct symmetric entries ``(rows, cols)``,
        sorted by (row, col); ``out``/``inn`` (directed only) flag the
        entries whose ``row -> col``/``col -> row`` link exists."""
        self.n_nodes = n = int(n_nodes)
        self.directed = bool(directed)
        self.sym_indptr, self.sym_indices = _indptr(n, rows), cols
        self.sym_degree = np.diff(self.sym_indptr)
        if directed:
            # 0 for row -> col only, 1 reciprocal, 2 col -> row only
            self._sym_config = inn.astype(np.int8) - out + 1
            out, inn = out.nonzero()[0], inn.nonzero()[0]
            self.out_indptr, self.out_indices = _indptr(n, rows[out]), cols[out]
            self.in_indptr, self.in_indices = _indptr(n, rows[inn]), cols[inn]
            self.out_degree, self.in_degree = np.diff(self.out_indptr), np.diff(self.in_indptr)
        else:
            self._sym_config = None
            self.out_indptr, self.out_indices = self.sym_indptr, self.sym_indices
            self.in_indptr, self.in_indices = self.sym_indptr, self.sym_indices
            self.out_degree = self.in_degree = self.sym_degree
        self.__post_init__()

    @property
    def n_edges(self):
        if self.directed:
            return int(self.out_indices.size)
        return int(self.sym_indices.size) // 2

    def _check_node(self, u):
        """``u`` as an int node id: a ConfigError names an id that is not a
        scalar or not a whole number, an IndexError one out of range."""
        if type(u) is not int and not whole_number(u):
            raise ConfigError(
                f"node id {u!r} is not a {'scalar' if np.ndim(u) else 'whole number'}")
        if not 0 <= u < self.n_nodes:
            raise _out_of_range(u, self.n_nodes)
        return int(u)

    def successors(self, u):
        u = self._check_node(u)
        return self.out_indices[self.out_indptr[u]:self.out_indptr[u + 1]]

    def predecessors(self, u):
        u = self._check_node(u)
        return self.in_indices[self.in_indptr[u]:self.in_indptr[u + 1]]

    def neighbors(self, u):
        """Symmetrized neighborhood (equals successors when undirected)."""
        u = self._check_node(u)
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


class SnapshotSeries(_ReadOnlyArrays):
    """Cumulative snapshots: graph ``i`` holds every edge assigned to
    windows ``0..i``, window ``i`` being the times from
    ``window_starts[i]`` up to ``window_starts[i] + window_width``. A
    window after the first that adds no edge holds the graph before it,
    the same object.

    A graph is built when it is first read, as a cut of the series' one
    entry sort (``_EntrySort``), and kept; ``graphs`` builds them all.
    ``total_edges``, the edges each window's graph holds, is the running
    sum of ``new_edges``, counted from the sort, so it builds none. The
    sort is released once every graph is built, and pickling builds every
    graph first, so a pickled series never carries it.
    """

    _ARRAYS = ("new_edges", "window_starts", "total_edges", "_graph_of")

    def __init__(self, edges, window, window_starts, window_width):
        """The series of ``edges``, edge ``k`` added in window ``window[k]``
        of those starting at ``window_starts``."""
        self.directed = edges.directed
        self.window_starts = window_starts
        self.window_width = window_width
        self.n_nodes = edges.n_nodes
        self._entries = _EntrySort(edges.n_nodes, edges.src, edges.dst, edges.directed,
                                   window, window_starts.size)
        self.new_edges, self._graph_of = self._entries.new_edges, self._entries.graph_of
        self.total_edges = np.cumsum(self.new_edges)
        self._graphs = [None] * self._entries.n_cuts
        self._unbuilt = self._entries.n_cuts
        self.__post_init__()

    def __len__(self):
        return self._graph_of.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        k = int(self._graph_of[i])
        if self._graphs[k] is None:
            g = SnapshotGraph.__new__(SnapshotGraph)
            g._set_entries(self.n_nodes, self.directed, *self._entries.cut(k))
            self._graphs[k] = g
            self._unbuilt -= 1
            if not self._unbuilt:
                self._entries = None
        return self._graphs[k]

    @property
    def graphs(self):
        """Every window's graph, in window order; builds those not yet built."""
        return self[:]

    def __getstate__(self):
        self.graphs  # builds every graph
        return dict(self.__dict__, _entries=None)


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
        width = count("window_length", window_length, 1)
        n = -(-span // width)
        what = f"window length {width}"
    else:
        n = count("fixed_count", fixed_count, 1)
        width = -(-span // n)
        what = f"window count {n}"
    if span - 1 > INT64_MAX or width > INT64_MAX:
        raise ConfigError(f"{what} over times {t_min}..{t_max} needs window "
                          f"arithmetic beyond int64")
    idx = (times - t_min) // width
    # a series stores a snapshot per window that adds an edge, holding the
    # edges with idx up to its window: at most n_edges ** 2 in all, which
    # fits int64; the window count goes first, as each window is a slot
    added = np.unique(idx, return_counts=True)[1]
    if n > MAX_CUMULATIVE_EDGES or np.cumsum(added).sum() > MAX_CUMULATIVE_EDGES:
        raise ConfigError(f"{what} gives {n} windows, whose cumulative snapshots "
                          f"would hold more than {MAX_CUMULATIVE_EDGES} edges in total")
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
            empty = np.empty(0, dtype=np.int64)
            return SnapshotSeries(edges, empty, empty, 1)
        # a bincount sized below the edge count; contiguous indices fill every bin
        time = edges.time
        if time.min() != 0 or time.max() >= edges.n_edges or not np.bincount(time).all():
            raise ConfigError("pre-assigned snapshot indices must be contiguous from 0")
        window_length = 1  # contiguous from 0: index i is the window [i, i + 1)
    idx, starts, width = assign_windows(
        edges.time, window_length=window_length, fixed_count=fixed_count
    )
    return SnapshotSeries(edges, idx, starts, width)
