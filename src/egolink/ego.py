"""Ego-centered primitives: neighborhoods, candidates, personalized
degree, directed triad classification, and ``EgoView``, the gather of
one ego (``ego_view``) or of a run of egos (``ego_blocks``); every
personalized degree, ``personalized_degrees`` too, is read from a gather,
except that of every symmetric entry of an undirected graph at once,
which is read from triangle supports (``_support_pd``). A gather reads
one flag byte per gathered entry, keys a candidate by its ego or by its
ego and triad, and reads its candidates off its bins when they are dense
(``_gather_block``).

Conventions for a directed ego ``u``:

* the ego's neighborhood is its successor set (people ``u`` chose),
* two-hop candidates reach out through successors *or* predecessors of
  those neighbors, minus the ego and its successors,
* a common neighbor of ``(u, v)`` is a successor of ``u`` linked to
  ``v`` in either direction,
* the personalized degree of ``z`` in mode ``out``/``in`` counts nodes
  ``w`` with ``u -> w`` and ``z -> w`` / ``w -> z``; mode
  ``undirected`` symmetrizes every edge first (reciprocated reading).

On undirected graphs only mode ``undirected`` applies and all of this
collapses onto the plain neighborhood.
"""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import _kernels
from ._parallel import map_in_order
from ._util import count, seeded_rng
from .errors import ConfigError, EmptyInputError, PreconditionError

MODE_UNDIRECTED = "undirected"
MODE_IN = "in"
MODE_OUT = "out"

#: modes valid on a directed graph; undirected graphs admit only the first
ALL_MODES = (MODE_UNDIRECTED, MODE_IN, MODE_OUT)


def validate_mode(mode, directed):
    if mode not in ALL_MODES:
        raise ConfigError(f"unknown degree mode {mode!r}; choose from {ALL_MODES}")
    if not directed and mode != MODE_UNDIRECTED:
        raise ConfigError(
            f"undirected graphs admit only mode {MODE_UNDIRECTED!r}, got {mode!r}"
        )
    return mode


def resolve_modes(directed, modes=None, per_triad=False):
    """The degree modes to analyse: ``modes`` checked against the graph
    kind, or when it is None the defaults: ``undirected`` on undirected
    graphs, else ``out`` and ``in``, plus ``undirected`` unless per
    triad. Per-triad analysis needs a directed graph."""
    if per_triad and not directed:
        raise ConfigError("per-triad analysis needs a directed graph")
    if modes is None:
        if not directed:
            return (MODE_UNDIRECTED,)
        return (MODE_OUT, MODE_IN) if per_triad else (MODE_OUT, MODE_IN, MODE_UNDIRECTED)
    modes = tuple(modes)
    if not modes:
        raise ConfigError("need at least one degree mode")
    for mode in modes:
        validate_mode(mode, directed)
    return modes


def ego_neighbors(graph, u):
    """The ego's own neighborhood: successors if directed."""
    return graph.successors(u)


def sample_egos(series, sample_size=None, seed=0):
    """Sorted, seeded sample of the nodes with neighbors in the first
    snapshot; all of them when ``sample_size`` is None or covers them."""
    sample_size = None if sample_size is None else count("sample_size", sample_size, 1)
    rng = seeded_rng(seed)
    eligible = np.flatnonzero(series[0].sym_degree > 0).astype(np.int64)
    if eligible.size == 0:
        raise EmptyInputError("first snapshot has no connected nodes to sample egos from")
    if sample_size is None or sample_size >= eligible.size:
        return eligible
    return np.sort(rng.choice(eligible, size=sample_size, replace=False))


def _ego_ids(graph, egos):
    """The ego-set rule: the list ``egos`` as int64 node ids of ``graph``,
    each once, ascending; an id that is not a whole number is a ConfigError
    naming it (a list of bools, strings or objects its first), one out of
    range an IndexError (a negative one would wrap around), and an empty list
    an EmptyInputError. A lone id is a list of one; the functions of one ego
    take theirs through ``_check_node``."""
    egos = np.asarray(egos)
    if not egos.size:
        raise EmptyInputError("egos: need at least one ego, got an empty list")
    if egos.dtype.kind not in "iuf":
        raise ConfigError(f"node ids of dtype {egos.dtype} are not whole numbers: "
                          f"the first is {egos.item(0)!r}")
    egos = np.unique(egos)
    # one comparison finds the first fraction or nan; whole numbers need no
    # check of the ids between the least and the largest
    for e in np.concatenate([egos[egos != np.trunc(egos)][:1], egos[[0, -1]]]).tolist():
        graph._check_node(e)
    return egos.astype(np.int64)


def two_hop_candidates(graph, u):
    """Nodes two steps out (through either edge direction at the second
    hop), excluding the ego and its direct neighborhood. Sorted."""
    return ego_view(graph, u).candidates


def common_neighbors(graph, u, v):
    """Successors of ``u`` adjacent to ``v`` in either direction. Sorted."""
    if u == v:
        raise PreconditionError("a node has no common neighbors with itself")
    return _kernels.intersect_values(ego_neighbors(graph, u), graph.neighbors(v))


def personalized_degrees(graph, u, targets, mode):
    """Personalized degree of each target, a neighbor of ego ``u``, read
    from the gather of the one ego ``u`` (``_gather_block``); a target
    outside the ego's neighborhood is a PreconditionError naming it."""
    validate_mode(mode, graph.directed)
    u = graph._check_node(u)
    base = ego_neighbors(graph, u)
    targets = np.asarray(targets)
    found = _kernels.contains(base, targets)
    if not found.all():
        raise PreconditionError(f"{targets[~found][0]} is not a neighbor of ego {u}")
    view = _gather_block(graph, np.array([u]), (mode,), wedges=False)
    return view.pd(mode)[np.searchsorted(base, targets)]


def personalized_degree(graph, u, z, mode=MODE_UNDIRECTED):
    """``personalized_degrees`` of the one neighbor ``z``."""
    return int(personalized_degrees(graph, u, [z], mode)[0])


def global_degrees(graph, targets, mode):
    validate_mode(mode, graph.directed)
    targets = np.asarray(targets, dtype=np.int64)
    if mode == MODE_OUT:
        return graph.out_degree[targets]
    if mode == MODE_IN:
        return graph.in_degree[targets]
    return graph.sym_degree[targets]


# ---------------------------------------------------------------------------
# directed triads


class EdgeConfig(IntEnum):
    """Orientation of a linked pair, read from the first node."""

    OUT = 0
    RECIPROCAL = 1
    IN = 2


class TriadType(IntEnum):
    """Open directed triad ``u - z - v``: the ego-edge config crossed
    with the neighbor-edge config, row-major over (out, recip, in)."""

    T01 = 1  # u->z, z->v
    T02 = 2  # u->z, z<->v
    T03 = 3  # u->z, v->z
    T04 = 4  # u<->z, z->v
    T05 = 5  # u<->z, z<->v
    T06 = 6  # u<->z, v->z
    T07 = 7  # z->u, z->v
    T08 = 8  # z->u, z<->v
    T09 = 9  # z->u, v->z

    @property
    def ego_config(self):
        return EdgeConfig((self.value - 1) // 3)

    @property
    def neighbor_config(self):
        return EdgeConfig((self.value - 1) % 3)


TRIAD_TABLE = {
    (ego_cfg, nb_cfg): TriadType(3 * ego_cfg + nb_cfg + 1)
    for ego_cfg in EdgeConfig
    for nb_cfg in EdgeConfig
}


def edge_config(graph, a, b):
    """Config of the ``a``-``b`` link, read from ``a``, or None when
    unlinked; every link of an undirected graph is reciprocal."""
    row = graph.neighbors(a)
    pos = int(np.searchsorted(row, b))
    if pos == row.size or row[pos] != b:
        return None
    if not graph.directed:
        return EdgeConfig.RECIPROCAL
    return EdgeConfig(int(graph.sym_config[graph.sym_indptr[a] + pos]))


def classify_triad(graph, u, z, v):
    """Triad type of the path ``u - z - v``; both links must exist.

    Any ``u``-``v`` edge is ignored: the pattern describes how the
    recommendation reached ``v``, not whether it already succeeded.
    """
    if not graph.directed:
        raise PreconditionError("triad classification needs a directed graph")
    ego_cfg = edge_config(graph, u, z)
    if ego_cfg is None:
        raise PreconditionError(f"no edge between ego {u} and neighbor {z}")
    nb_cfg = edge_config(graph, z, v)
    if nb_cfg is None:
        raise PreconditionError(f"no edge between neighbor {z} and candidate {v}")
    return TRIAD_TABLE[(ego_cfg, nb_cfg)]


#: budget of one run (``_runs``): the gathered entries of a
#: ``_forming_cells`` run, both the gathered entries and the bins of a
#: block (``_block_runs``), and the wedges of a ``_support_pd`` run
_CHUNK = 1 << 16


def _runs(ends, cap=None):
    """``(start, stop)`` runs over items with cumulative sizes ``ends``:
    each run holds at least one item, however large, and more while their
    sizes sum to at most ``_CHUNK``; ``cap(start)`` (above ``start``)
    ends a run early."""
    start = 0
    while start < ends.size:
        before = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, before + _CHUNK, side="right")), start + 1)
        if cap is not None:
            stop = min(stop, cap(start))
        yield start, stop
        start = stop


@dataclass
class EgoView:
    """The gather of one ego or of a run of egos laid end to end, in ego
    order: ego ``egos[i]`` has the next entries of ``base`` (its neighbor
    pool: its successors, or its symmetric row), and its sorted candidates
    are the entries of ``candidates`` with ``cand_slot`` in ``[slots * i,
    slots * (i + 1))``. A view has one slot per ego, or with a symmetric
    pool nine, one per triad: slot ``9 * i + T - 1`` holds the candidates
    reached by a wedge of triad ``T``. The wedges ``z -> v`` (``wedge_z``
    into ``base``, ``wedge_v`` into ``candidates``) and pd index the whole
    view, and each ego's wedges run in ascending z. Without wedges, the
    candidate and wedge fields are None. ``formed`` tests the candidates
    against the next snapshot."""

    graph: object
    egos: np.ndarray
    base: np.ndarray
    candidates: np.ndarray
    cand_slot: np.ndarray = field(repr=False)
    wedge_z: np.ndarray = field(repr=False)
    wedge_v: np.ndarray = field(repr=False)
    _pd: dict = field(repr=False)
    slots: int = 1

    @property
    def ego(self):
        """The ego of a view of one ego."""
        if self.egos.size != 1:
            raise PreconditionError(f"a view of {self.egos.size} egos has no single ego")
        return int(self.egos[0])

    def pd(self, mode):
        return self._pd[validate_mode(mode, self.graph.directed)]

    def gd(self, mode):
        return global_degrees(self.graph, self.base, mode)

    def accumulate(self, terms):
        """Per candidate: the column sums of ``terms`` (row-aligned with
        ``base``) over its common neighbors, and their number."""
        return _kernels.accumulate_common_terms(self.wedge_z, self.wedge_v, terms,
                                                self.candidates.size)

    def formed(self, next_graph):
        """Per candidate: whether its ego links to it in the next snapshot."""
        ego_slot = self.cand_slot if self.slots == 1 else self.cand_slot // self.slots
        n = self.graph.n_nodes
        return _kernels.contains(_row_keys(next_graph.out_indptr, next_graph.out_indices,
                                           self.egos, n), ego_slot * n + self.candidates)


def _row_keys(indptr, indices, egos, n):
    """The ``slot * n + node`` key of each entry of the CSR rows of
    ``egos`` (slot: the ego's position in ``egos``), row by row."""
    slot, pos = _kernels.gather_rows(indptr, egos)
    return slot * n + indices[pos]


def _pool_rows(graph, sym_pool):
    """CSR ``(indptr, indices)`` of the egos' neighbor pools."""
    if sym_pool:
        return graph.sym_indptr, graph.sym_indices
    return graph.out_indptr, graph.out_indices


#: flag bits of a gather's ``(ego slot) * n + node`` bins: the node is in
#: the ego's symmetric row, among its successors, or the ego itself; a
#: gathered entry is a wedge when its flags are below ``_SUCC``
_ROW, _SUCC, _EGO = np.uint8(1), np.uint8(2), np.uint8(4)

#: the flags of a node of the ego's symmetric row, by the config of its
#: link (``EdgeConfig``): a successor unless the link is only node -> ego
_ROW_FLAGS = np.array([_ROW | _SUCC, _ROW | _SUCC, _ROW], dtype=np.uint8)

#: the candidate step scans the bins when they number at most this many
#: per kept wedge (``_gather_block``)
_SCAN_BINS_PER_WEDGE = 8


def _gather_block(graph, egos, modes, wedges=True, sym_pool=False):
    """One gather for all ``egos``: their pool rows (successors, or with
    ``sym_pool`` symmetric rows), then the symmetric rows of every pool
    node ``z``. Each entry ``w`` reads the flag byte of its ``(ego slot) *
    n + w`` bin once (``_ROW``, ``_SUCC``, ``_EGO``), which gives the
    personalized degrees of ``modes``; with ``wedges``, the entries outside
    the ego and its successors are wedges onto candidates, keyed by their
    ``EgoView`` slot. A triad's pool, the ego's neighbors of its ego-edge
    config, holds none of its candidates: for in-only ``z`` those are the
    in-only row nodes (flag ``_ROW``); the other pools hold successors.

    The candidates are the distinct keys of the kept wedges, ascending.
    A block with at most ``_SCAN_BINS_PER_WEDGE`` bins per kept wedge is
    dense: each wedge marks its bin, and the marked bins, read in order,
    are the candidates, with no sort. Otherwise each key's first wedge is
    picked and only those keys are sorted. On ``ego_blocks`` over uniform
    random graphs of 3000 nodes (NumPy 2.4.6, 2 vCPU), the scan was faster
    in 11 of 11 alternating runs at 9.1 bins per kept wedge and below, and
    slower in 11 of 11 at 10.9 and above; planted blocks hold 1.1 to 2.8,
    uniform directed ones 9.1 to 18.4.
    """
    n = graph.n_nodes
    slots = 9 if sym_pool else 1
    bins = slots * egos.size * n
    indptr, indices = _pool_rows(graph, sym_pool)
    b_slot, b_pos = _kernels.gather_rows(indptr, egos)
    base = indices[b_pos]
    wedge_z, pos = _kernels.gather_rows(graph.sym_indptr, base)
    reached = graph.sym_indices[pos]
    lengths = graph.sym_degree[base]
    key = (b_slot * n).repeat(lengths) + reached
    flags = np.zeros(egos.size * n, dtype=np.uint8)
    if sym_pool or (graph.directed and MODE_UNDIRECTED in modes):
        # the ego's symmetric row (with sym_pool, its pool) flags its
        # successors by the config of each link
        r_slot, r_pos = (b_slot, b_pos) if sym_pool else _kernels.gather_rows(
            graph.sym_indptr, egos)
        flags[r_slot * n + graph.sym_indices[r_pos]] = _ROW_FLAGS[graph.sym_config[r_pos]]
    else:
        # the pool is the ego's successors, on undirected graphs its symmetric row
        flags[b_slot * n + base] = _SUCC if graph.directed else _ROW | _SUCC
    if wedges:
        flags[np.arange(0, egos.size * n, n) + egos] = _EGO
    flag = flags[key]

    # pd of each z: mode undirected counts its entries w in the ego's
    # symmetric row; of those among the ego's successors, mode out counts
    # the w with z -> w and mode in those with w -> z. Each bit test is cast
    # to bools, whose nonzero entries NumPy finds several times faster
    def pd_of(hit):
        return np.bincount(wedge_z[hit], minlength=base.size).astype(np.int64)

    pd = {}
    if MODE_UNDIRECTED in modes:
        pd[MODE_UNDIRECTED] = pd_of((flag & _ROW).astype(bool).nonzero()[0])
    if MODE_OUT in modes or MODE_IN in modes:
        hit = (flag & _SUCC).astype(bool).nonzero()[0]
        cfg = graph.sym_config[pos[hit]]
        # plain ints: numpy compares them without probing the enum
        for mode, absent in ((MODE_OUT, int(EdgeConfig.IN)), (MODE_IN, int(EdgeConfig.OUT))):
            if mode in modes:
                pd[mode] = pd_of(hit[(cfg != absent).nonzero()[0]])
    if not wedges:
        return EgoView(graph, egos, base, None, None, None, None, pd)
    wedge = flag < _SUCC
    if sym_pool:
        # an in-only z's pool, the in-only row nodes (flag _ROW), is out of its triads
        ego_cfg = graph.sym_config[b_pos]
        wedge &= ~((ego_cfg == int(EdgeConfig.IN)).repeat(lengths) & (flag == _ROW))
    wedge = wedge.nonzero()[0]
    if sym_pool:
        # slot (ego slot) * 9 + T - 1, where T - 1 = 3 * (config of u-z) + (config of z-v)
        shift, nb_cfg = 8 * b_slot + 3 * ego_cfg, graph.sym_config[pos[wedge]]
    # the candidate step needs only the wedges' keys and pool positions
    del b_slot, b_pos, pos, reached, flags, flag
    key, wedge_z = key[wedge], wedge_z[wedge]
    del wedge
    if sym_pool:
        key += (shift[wedge_z] + nb_cfg) * n
    # it holds positions below key.size, and a per-triad block has 9 bins
    # per node of each ego: the narrowest dtype keeps its memory down
    index = np.empty(bins, dtype=np.min_scalar_type(key.size))
    if bins <= _SCAN_BINS_PER_WEDGE * key.size:
        seen = np.zeros(bins, dtype=bool)
        seen[key] = True
        cand_key = seen.nonzero()[0]
    else:
        # every key's bin ends up holding the position of one of its wedges,
        # so that wedge alone finds itself there; no bin is read unwritten
        at = np.arange(key.size)
        index[key] = at
        cand_key = np.sort(key[(index[key] == at).nonzero()[0]])
    index[cand_key] = np.arange(cand_key.size)
    cand_slot = cand_key // n
    candidates = cand_key - cand_slot * n
    wedge_v = index[key].astype(np.int64)
    return EgoView(graph, egos, base, candidates, cand_slot, wedge_z, wedge_v, pd, slots)


#: apexes of one ``_support_pd`` run: one bit each of a node's word
_LANES = 64


def _support_pd(graph):
    """The mode-undirected pd of every symmetric entry of an undirected
    ``graph``, in entry order: what ``_gather_block`` gives when every node
    is an ego, with no per-ego gather.

    pd(u, z) is exactly the triangle support of edge (u, z) (Wang & Cheng,
    VLDB 2012), as no graph holds a self-loop. Each triangle is listed
    once (Chiba & Nishizeki, SIAM J. Comput. 1985): every edge is oriented
    from the lower to the higher (degree, id) rank, and a wedge a -> b -> c
    is a triangle when a -> c is an oriented edge too. Apexes a come in runs
    (``_runs``) of at most ``_LANES`` nodes and about ``_CHUNK`` wedges;
    a run sets its apexes' bits in one reused word per node b of their
    oriented rows, so each wedge is probed with one read. Each triangle is
    counted onto its three oriented edges, and each edge's support is
    copied to its mirror entry. Every O(E) temporary is int32 or bool, but
    for the entry positions of each orientation and the order of that
    copy, one int64 per edge each.
    """
    n = graph.n_nodes
    indices, deg = graph.sym_indices, graph.sym_degree
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(deg, kind="stable")] = np.arange(n, dtype=np.int32)
    row_rank, col_rank = np.repeat(rank, deg), rank[indices]
    up = row_rank < col_rank
    del row_rank, col_rank
    # the oriented rows a -> c, entries in the order of the symmetric ones
    up_at = up.nonzero()[0]
    o_cols = indices[up_at].astype(np.int32)
    o_indptr = np.searchsorted(up_at, graph.sym_indptr)
    o_deg = np.diff(o_indptr)
    apex = np.flatnonzero(o_deg)
    wedges = np.add.reduceat(o_deg.astype(np.int32)[o_cols], o_indptr[apex], dtype=np.int64)
    live = wedges.nonzero()[0]
    apex, wedges = apex[live], wedges[live]
    support = np.zeros(o_cols.size, dtype=np.int32)
    lane_bit = np.left_shift(np.uint64(1), np.arange(_LANES, dtype=np.uint64))
    words = np.zeros(n, dtype=np.uint64)
    for start, stop in _runs(np.cumsum(wedges), lambda start: start + _LANES):
        lane, ab = _kernels.gather_rows(o_indptr, apex[start:stop])
        b = o_cols[ab]
        np.bitwise_or.at(words, b, lane_bit[lane])
        w_ab, bc = _kernels.gather_rows(o_indptr, b)
        c = o_cols[bc]
        closed = np.flatnonzero(words[c] & lane_bit[lane[w_ab]])
        words[b] = 0
        w_ab, bc, c = w_ab[closed], bc[closed], c[closed]
        # the run's row keys are sorted, and each closed wedge finds its a -> c
        ac = ab[np.searchsorted(lane * n + b, lane[w_ab] * n + c)]
        # a value of support's own dtype keeps ufunc.at off its slow path
        np.add.at(support, np.concatenate([ab[w_ab], bc, ac]), np.int32(1))
    pd = np.empty(indices.size, dtype=np.int64)
    pd[up_at] = support
    # a stable sort by c of the oriented edges a -> c, which run by (a, c),
    # lists them by (c, a): the order of their mirrors, the other entries
    pd[(~up).nonzero()[0]] = support[np.argsort(o_cols, kind="stable")]
    return pd


def _gather_sizes(graph, egos, sym_pool=False):
    """Each ego's gathered entries, the symmetric rows of its pool: its
    wedge count, a bound on its candidate count."""
    indptr, indices = _pool_rows(graph, sym_pool)
    reach = np.concatenate(([0], np.cumsum(graph.sym_degree[indices])))
    return reach[indptr[egos + 1]] - reach[indptr[egos]]


def _block_runs(graph, sizes, sym_pool=False):
    """Runs (``_runs``) of egos with gather ``sizes``: one ego, or more
    while they fit in ``_CHUNK`` gathered entries and ``_CHUNK`` bins, so
    a block's memory is O(``_CHUNK``) unless one ego's gather is larger.
    With ``sym_pool`` an ego counts 3 bins per node, though it keys 9 triad
    slots: on ``triad-directed`` (seed 0; NumPy 2.4.6, 2 vCPU, medians of 5
    processes) its per-triad blocks ran in 13.3 ms, with a 54.2 MB peak over
    its six CLI stages; counting 1 bin, 11.0 ms and 54.8 MB; counting 9,
    23.6 ms in 45 blocks."""
    per_block = max(_CHUNK // max((3 if sym_pool else 1) * graph.n_nodes, 1), 1)
    return _runs(np.cumsum(sizes), lambda start: start + per_block)


def ego_blocks(graph, egos, modes, wedges=True):
    """``EgoView``s over ``_block_runs`` of ``egos`` as ordered, with pd of
    ``modes``; each id passes the checks of ``_ego_ids``, and repeats stay."""
    egos = np.asarray(egos)
    if egos.size:
        _ego_ids(graph, egos)
    egos = egos.astype(np.int64)
    for start, stop in _block_runs(graph, _gather_sizes(graph, egos)):
        yield _gather_block(graph, egos[start:stop], modes, wedges)


def ego_view(graph, u):
    """The view of the one ego ``u``: its candidates, the wedges onto
    them, and the personalized degrees of every mode the graph admits."""
    modes = ALL_MODES if graph.directed else (MODE_UNDIRECTED,)
    return _gather_block(graph, np.array([graph._check_node(u)]), modes)


def _forming_cells(series, egos, sym_pool):
    """Bool mask (egos × transitions) of the cells where some new
    successor ``w`` of the ego (in ``succ_{t+1}(u) \\ succ_t(u)``) has a
    symmetric row at t that meets the ego's pool: its successors at t, or
    with ``sym_pool`` its symmetric row at t.

    Candidates exclude the ego's successors, so with the successor pool a
    cell is True exactly when some candidate forms. With the symmetric
    pool, a False cell has no formed candidate in any triad pool. Per
    transition, all matches run on sorted ``slot * n + node`` keys (slot:
    the ego's position in ``egos``), and the rows of the new successors
    are gathered in runs (``_runs``) of about ``_CHUNK`` entries, each
    within one round; a cell already True is not probed again.
    """
    egos = np.asarray(egos, dtype=np.int64)
    mask = np.zeros((egos.size, len(series) - 1), dtype=bool)
    graphs = series.graphs
    for t, (g, nxt) in enumerate(zip(graphs, graphs[1:])):
        if nxt is g:  # the next window adds no edge: nothing forms
            continue
        n = g.n_nodes
        held = _row_keys(g.out_indptr, g.out_indices, egos, n)
        pool = _row_keys(g.sym_indptr, g.sym_indices, egos, n) if sym_pool else held
        key = _row_keys(nxt.out_indptr, nxt.out_indices, egos, n)
        slot = key // n
        w = key - slot * n
        new = (~_kernels.contains(held, key)).nonzero()[0]
        slot, w = slot[new], w[new]
        # rounds by each ego's new-successor rank: [0, 1), [1, 2), [2, 4),
        # [4, 8), ...; a cell settled in an early round is not probed later
        rank = np.arange(slot.size) - np.searchsorted(slot, slot)
        order = np.argsort(rank, kind="stable")
        slot, w, rank = slot[order], w[order], rank[order]
        settled = mask[:, t]
        # no run reaches into a later round
        runs = _runs(np.cumsum(g.sym_degree[w]),
                     lambda start: int(np.searchsorted(rank, 1 << int(rank[start]).bit_length())))
        for start, stop in runs:
            unsettled = start + (~settled[slot[start:stop]]).nonzero()[0]
            cell = slot[unsettled]
            z_slot, z_pos = _kernels.gather_rows(g.sym_indptr, w[unsettled])
            cell = cell[z_slot]
            hit = _kernels.contains(pool, cell * n + g.sym_indices[z_pos]).nonzero()[0]
            settled[cell[hit]] = True
    return mask


def _cell_blocks(worker, payload, series, egos, settled, n_columns, workers, sym_pool=False,
                 require_formation=True, cutoff=np.inf):
    """Run ``worker`` on the cells of ``egos`` at every transition, in
    blocks of egos: ``(reason, cell, values)``.

    A cell is gathered when ``_forming_cells`` marks it (every cell
    without ``require_formation``) or when its ego's ``_gather_sizes``
    exceeds ``cutoff``. At each transition, the gathered egos are cut into
    ``_block_runs`` in the parent, so no result depends on the worker
    count; the blocks run in descending order of gathered entries and are
    read back in block order. ``worker(payload, (t, egos))`` returns, per
    cell of its egos (nine per ego with ``sym_pool``, one per triad, else
    one), the index of its first reason of exclusion or -1 when it is
    kept, then one row of ``n_columns`` values per kept cell, then
    anything, unread.
    ``reason`` is (transitions × ego cells), ``settled`` where nothing was
    gathered; row ``i`` of ``values`` belongs to ego cell ``cell[i]``,
    rows in transition order.
    """
    workers = count("workers", workers, 1)
    cells = 9 if sym_pool else 1
    reason = np.full((len(series) - 1, egos.size * cells), settled)
    forming = (_forming_cells(series, egos, sym_pool) if require_formation
               else np.ones((egos.size, len(series) - 1), dtype=bool))
    blocks, entries = [], []
    for t, g in enumerate(series.graphs[:-1]):
        if not t or g is not series[t - 1]:  # once per distinct snapshot
            sizes = _gather_sizes(g, egos, sym_pool)
        at = np.flatnonzero(forming[:, t] | (sizes > cutoff))
        for a, b in _block_runs(g, sizes[at], sym_pool):
            blocks.append((t, at[a:b]))
            entries.append(int(sizes[at[a:b]].sum()))
    # the largest blocks go first, so that the fan-out ends on small ones
    order = sorted(range(len(blocks)), key=lambda i: -entries[i])
    results = dict(zip(order, map_in_order(
        worker, [(blocks[i][0], egos[blocks[i][1]]) for i in order], payload, workers=workers)))
    cell, values = [np.empty(0, dtype=np.int64)], [np.empty((0, n_columns))]
    for i, (t, at) in enumerate(blocks):
        block_reason, block_values, *_ = results[i]
        columns = (at[:, None] * cells + np.arange(cells)).ravel()
        reason[t, columns] = block_reason
        cell.append(columns[block_reason < 0])
        values.append(block_values)
    return reason, np.concatenate(cell), np.concatenate(values)
