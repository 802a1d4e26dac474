"""Ego-centered primitives: neighborhoods, candidates, personalized
degree, directed triad classification, and ``EgoView``, the gather of
one ego (``ego_view``) or of a run of egos (``ego_blocks``).

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
    if sample_size is not None and int(sample_size) < 1:
        raise ConfigError(f"sample_size: must be >= 1, got {sample_size}")
    eligible = np.flatnonzero(series[0].sym_degree > 0).astype(np.int64)
    if eligible.size == 0:
        raise EmptyInputError("first snapshot has no connected nodes to sample egos from")
    if sample_size is None or int(sample_size) >= eligible.size:
        return eligible
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(eligible, size=int(sample_size), replace=False))


def two_hop_candidates(graph, u):
    """Nodes two steps out (through either edge direction at the second
    hop), excluding the ego and its direct neighborhood. Sorted."""
    return ego_view(graph, u).candidates


def common_neighbors(graph, u, v):
    """Successors of ``u`` adjacent to ``v`` in either direction. Sorted."""
    if u == v:
        raise PreconditionError("a node has no common neighbors with itself")
    return _kernels.intersect_values(ego_neighbors(graph, u), graph.neighbors(v))


def _pd_context(graph, u, mode):
    """(anchor set, adjacency indptr, adjacency indices) for a mode."""
    validate_mode(mode, graph.directed)
    if mode == MODE_OUT:
        return graph.successors(u), graph.out_indptr, graph.out_indices
    if mode == MODE_IN:
        return graph.successors(u), graph.in_indptr, graph.in_indices
    return graph.neighbors(u), graph.sym_indptr, graph.sym_indices


def personalized_degrees(graph, u, targets, mode):
    """Personalized degree of each target node w.r.t. ego ``u``, read
    from the targets' own out, in or symmetric rows; ``gathered_pd``
    reads the same counts from a gather of symmetric rows already held.
    """
    targets = np.asarray(targets, dtype=np.int64)
    anchor, indptr, indices = _pd_context(graph, u, mode)
    return _kernels.row_intersect_sizes(indptr, indices, anchor, targets)


def gathered_pd(graph, slot, pos, n_rows, in_successors, in_row, modes):
    """Personalized degree of each gathered node ``z``, keyed by mode,
    from one gather of symmetric rows (``slot`` and CSR position of each
    entry ``w``): mode ``undirected`` counts the entries in the ego's
    symmetric row (``in_row``); of the entries among the ego's
    successors (``in_successors``), mode ``out`` counts those with
    ``z -> w`` and mode ``in`` those with ``w -> z``."""
    def count(hit):
        return np.bincount(slot[hit], minlength=n_rows).astype(np.int64)

    pd = {}
    if MODE_UNDIRECTED in modes:
        pd[MODE_UNDIRECTED] = count(in_row)
    if MODE_OUT in modes or MODE_IN in modes:
        hit = np.flatnonzero(in_successors)
        cfg = graph.sym_config[pos[hit]]
        # plain ints: numpy compares them without probing the enum
        for mode, absent in ((MODE_OUT, int(EdgeConfig.IN)), (MODE_IN, int(EdgeConfig.OUT))):
            if mode in modes:
                pd[mode] = count(hit[cfg != absent])
    return pd


def personalized_degree(graph, u, z, mode=MODE_UNDIRECTED):
    """Number of nodes linked (per mode) to both the ego and ``z``, read
    from the gather of the one ego ``u``."""
    base = ego_neighbors(graph, u)
    pos = np.searchsorted(base, z)
    if not (pos < base.size and base[pos] == z):
        raise PreconditionError(f"{z} is not a neighbor of ego {u}")
    validate_mode(mode, graph.directed)
    view = _gather_block(graph, np.array([u], dtype=np.int64), (mode,), wedges=False)
    return int(view.pd(mode)[pos])


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
#: ``_forming_cells`` run, and both the bins (egos × nodes) and the
#: gathered entries of an ``ego_blocks`` view
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
    order: ego ``egos[i]`` has the next ``out_degree[egos[i]]`` entries
    of ``base`` (its neighbor pool), and its sorted candidates are the
    entries of ``candidates`` with ``cand_slot == i``. The wedges
    ``z -> v`` (``wedge_z`` into ``base``, ``wedge_v`` into
    ``candidates``) and pd index the whole view, and each ego's wedges
    run in ascending z. Without wedges, the candidate and wedge fields
    are None."""

    graph: object
    egos: np.ndarray
    base: np.ndarray
    candidates: np.ndarray
    cand_slot: np.ndarray = field(repr=False)
    wedge_z: np.ndarray = field(repr=False)
    wedge_v: np.ndarray = field(repr=False)
    _pd: dict = field(repr=False)

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


def _gather_block(graph, egos, modes, wedges=True):
    """One gather for all ``egos``: their successor rows, then the
    symmetric rows of every successor ``z``. Each entry ``w`` is tested
    on its ``(ego slot) * n + w`` key against one bool mark per test, so
    pd of ``modes`` comes from ``gathered_pd``; with ``wedges``, the
    entries outside the ego and its pool are wedges onto candidates."""
    n = graph.n_nodes
    bins = egos.size * n
    b_slot, b_pos = _kernels.gather_rows(graph.out_indptr, egos)
    base = graph.out_indices[b_pos]
    wedge_z, pos = _kernels.gather_rows(graph.sym_indptr, base)
    reached = graph.sym_indices[pos]
    slot = b_slot[wedge_z]
    key = slot * n + reached
    mark = np.zeros(bins, dtype=bool)
    mark[b_slot * n + base] = True
    in_base = mark[key]
    # undirected graphs: the ego's symmetrized neighborhood is the pool
    in_row = in_base
    if graph.directed and MODE_UNDIRECTED in modes:
        r_slot, r_pos = _kernels.gather_rows(graph.sym_indptr, egos)
        mark[:] = False
        mark[r_slot * n + graph.sym_indices[r_pos]] = True
        in_row = mark[key]
    pd = gathered_pd(graph, wedge_z, pos, base.size, in_base, in_row, modes)
    if not wedges:
        return EgoView(graph, egos, base, None, None, None, None, pd)
    wedge = ~in_base & (reached != egos[slot])
    # the candidate step needs only the wedges' keys and pool positions
    del b_slot, b_pos, pos, reached, slot, mark, in_base, in_row
    key, wedge_z = key[wedge], wedge_z[wedge]
    del wedge
    # every key's bin ends up holding the position of one of its wedges,
    # so that wedge alone finds itself there; no bin is read unwritten
    index = np.empty(bins, dtype=np.int64)
    at = np.arange(key.size)
    index[key] = at
    cand_key = np.sort(key[index[key] == at])
    index[cand_key] = np.arange(cand_key.size)
    cand_slot, candidates = np.divmod(cand_key, n)
    return EgoView(graph, egos, base, candidates, cand_slot, wedge_z, index[key], pd)


def _gather_sizes(graph, egos):
    """Each ego's gathered entries, the symmetric rows of its successors:
    its wedge count, a bound on its candidate count."""
    reach = np.concatenate(([0], np.cumsum(graph.sym_degree[graph.out_indices])))
    return reach[graph.out_indptr[egos + 1]] - reach[graph.out_indptr[egos]]


def _block_runs(graph, sizes):
    """Runs (``_runs``) of egos with gather ``sizes``: one ego, or more
    while they fit in ``_CHUNK`` bins and ``_CHUNK`` gathered entries, so
    a block's memory is O(``_CHUNK``) unless one ego's gather is larger."""
    per_block = max(_CHUNK // max(graph.n_nodes, 1), 1)
    return _runs(np.cumsum(sizes), lambda start: start + per_block)


def ego_blocks(graph, egos, modes, wedges=True):
    """``EgoView``s over ``_block_runs`` of ``egos``, with pd of ``modes``."""
    egos = np.asarray(egos, dtype=np.int64)
    for start, stop in _block_runs(graph, _gather_sizes(graph, egos)):
        yield _gather_block(graph, egos[start:stop], modes, wedges)


def ego_view(graph, u):
    """The view of the one ego ``u``: its candidates, the wedges onto
    them, and the personalized degrees of every mode the graph admits."""
    u = int(u)
    graph._check_node(u)
    modes = ALL_MODES if graph.directed else (MODE_UNDIRECTED,)
    return _gather_block(graph, np.array([u], dtype=np.int64), modes)


def _forming_cells(series, egos, sym_pool):
    """Bool mask (egos × transitions) of the cells where some new
    successor ``w`` of the ego (in ``succ_{t+1}(u) \\ succ_t(u)``,
    ``w != u``) has a symmetric row at t that meets the ego's pool: its
    successors at t, or with ``sym_pool`` its symmetric row at t.

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
    for t, (g, nxt) in enumerate(zip(series.graphs, series.graphs[1:])):
        n = g.n_nodes

        def row_keys(indptr, indices):
            slot, pos = _kernels.gather_rows(indptr, egos)
            return slot * n + indices[pos]

        held = row_keys(g.out_indptr, g.out_indices)
        pool = row_keys(g.sym_indptr, g.sym_indices) if sym_pool else held
        key = row_keys(nxt.out_indptr, nxt.out_indices)
        slot, w = np.divmod(key, n)
        new = ~_kernels.contains(held, key) & (w != egos[slot])
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
            unsettled = ~settled[slot[start:stop]]
            cell = slot[start:stop][unsettled]
            z_slot, z_pos = _kernels.gather_rows(g.sym_indptr, w[start:stop][unsettled])
            cell = cell[z_slot]
            settled[cell[_kernels.contains(pool, cell * n + g.sym_indices[z_pos])]] = True
    return mask
