"""Formed vs. not-formed analysis of candidate common neighbors.

For each ego and each snapshot transition ``t -> t+1``, two-hop
candidates split into those that gained an ego edge and those that did
not. Each candidate is summarized by the mean over its common
neighbors ``z`` of ``log(degree(z) + 1)``, once with global and once
with personalized degrees; the two groups average those per-candidate
means. A transition counts for an ego only when both groups are
non-empty, so formed and not-formed aggregates always cover identical
(ego, snapshot) cells. Usable cells pool across egos by the rule of
``_util.pool_egos``.

A per-triad cell (directed graphs) is the plain cell with the pool and
the wedges narrowed by link config (``SnapshotGraph.sym_config``). One
gather of the symmetric rows of the ego's symmetric neighbors feeds all
nine cells of an (ego, transition): the config of the ego's own entry
for ``z`` puts ``z`` in one of three pools, so each wedge ``z -> v`` is
keyed by its pool's candidate ``(ego-edge config of z) * n + v``, and
one ``np.unique`` of those keys lays every pool's candidates out as one
contiguous range. The config of the gathered entry ``v`` of row(z) is
the neighbor-edge config of the wedge, and one accumulate over
(neighbor-edge config, candidate) bins sums all nine cells; the same
gather gives the personalized degrees (``ego.gathered_pd``). Plain
cells and per-triad cells both sum their wedges with
``_kernels.accumulate_common_terms`` in ascending-z order, and
``_cell`` alone decides whether a gathered cell is excluded and why: a
triad's candidates are those of its pool with a wedge of its config.

Cells are settled from the new edges first: before any ego gather,
``ego._forming_cells`` marks, in one whole-array pass per transition,
the (ego, transition) pairs where a new successor of the ego is linked
to its successors (plain: exactly the pairs where a candidate forms) or,
per triad, to its symmetric row. The cell of an unmarked pair, or all
nine per triad, have no formed candidate and are skipped; every other
pair takes the full path, which is what ``ego_snapshot_stats`` computes.
The cells left out are counted per reason (``EXCLUSIONS``) in the
diagnostics.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import _kernels
from ._parallel import map_in_order
from ._util import pool_egos
from .degree_dist import KIND_GLOBAL, KIND_PERSONALIZED
from .ego import (
    TriadType,
    _forming_cells,
    ego_neighbors,
    ego_view,
    gathered_pd,
    global_degrees,
    resolve_modes,
    sample_egos,
)
from .errors import ConfigError, EmptyInputError, EmptyResultError

GROUP_FORMED = "formed"
GROUP_NOT_FORMED = "not-formed"
GROUPS = (GROUP_FORMED, GROUP_NOT_FORMED)

EMPIRICAL_HEADER = ("triad", "group", "degree_kind", "mode", "mean", "stderr", "n_egos")

#: reasons a cell is left out, each cell counted under the first that holds:
#: none of its candidates formed (an empty candidate set included), or all did
EXCLUDED_NO_FORMED = "no_formed_candidate"
EXCLUDED_ALL_FORMED = "all_formed"
EXCLUSIONS = (EXCLUDED_NO_FORMED, EXCLUDED_ALL_FORMED)


@dataclass(frozen=True)
class GroupStats:
    group: str
    mean_log_global: float
    mean_log_personalized: float
    n_candidates: int


@dataclass(frozen=True)
class EmpiricalRow:
    triad: object  # TriadType or None
    group: str
    degree_kind: str
    mode: str
    mean: float
    stderr: float
    n_egos: int


@dataclass(frozen=True)
class EmpiricalStats:
    rows: list
    diagnostics: dict


def _log_degree_terms(columns):
    """``log(degree + 1)`` of each degree column, stacked: global then
    personalized degree for each mode, the term columns a cell averages."""
    return np.log(np.column_stack(columns).astype(np.float64) + 1.0)


def _cell(sums, counts, formed, modes, excluded):
    """Group stats keyed by mode over the candidates with at least one
    common neighbor, each valued by its mean terms (``sums / counts``);
    ``formed`` marks the candidates that gained an ego edge. None, counted
    in ``excluded`` under its reason, when none of the kept candidates
    formed or all did."""
    kept = counts > 0
    formed = formed[kept]
    if formed.all() or not formed.any():
        excluded[EXCLUDED_ALL_FORMED if formed.any() else EXCLUDED_NO_FORMED] += 1
        return None
    means = sums[kept] / counts[kept, None]

    out = {}
    for i, m in enumerate(modes):
        per_group = {}
        for group, mask in zip(GROUPS, (formed, ~formed)):
            per_group[group] = GroupStats(
                group=group,
                mean_log_global=float(means[mask, 2 * i].mean()),
                mean_log_personalized=float(means[mask, 2 * i + 1].mean()),
                n_candidates=int(mask.sum()),
            )
        out[m] = per_group
    return out


def _plain_cell(graph, next_graph, ego, modes, excluded):
    """Group stats keyed by mode for one (ego, transition), or None."""
    view = ego_view(graph, ego)
    formed = _kernels.contains(ego_neighbors(next_graph, ego), view.candidates)
    terms = _log_degree_terms([col for m in modes for col in (view.gd(m), view.pd(m))])
    return _cell(*view.accumulate(terms), formed, modes, excluded)


def _triad_cells(graph, next_graph, ego, modes, excluded):
    """Group stats keyed by TriadType for one (ego, transition):
    triad -> None (excluded) or {mode: {group: GroupStats}}."""
    n = graph.n_nodes
    row = graph.neighbors(ego)
    start = graph.sym_indptr[ego]
    ego_cfg = graph.sym_config[start:start + row.size].astype(np.int64)
    # every wedge z -> v from the ego's symmetric row, in ascending-z order,
    # keyed by its pool's candidate: (ego-edge config of z) * n + v
    slot, pos = _kernels.gather_rows(graph.sym_indptr, row)
    reached = graph.sym_indices[pos]
    key = ego_cfg[slot] * n + reached
    # a node already chosen by the ego is never a candidate, nor the ego,
    # nor a node of the wedge's own pool
    in_successors = _kernels.contains(graph.successors(ego), reached)
    wedge = ~(in_successors | (reached == ego)
              | _kernels.contains(np.sort(ego_cfg * n + row), key))
    cand, wedge_c = np.unique(key[wedge], return_inverse=True)
    formed = _kernels.contains(ego_neighbors(next_graph, ego), cand % n)
    pd = gathered_pd(graph, slot, pos, row.size, in_successors,
                     _kernels.contains(row, reached), modes)
    terms = _log_degree_terms(
        [col for m in modes for col in (global_degrees(graph, row, m), pd[m])])
    # one bin per (neighbor-edge config of the wedge, candidate)
    nb_cfg = graph.sym_config[pos[wedge]].astype(np.int64)
    sums, counts = _kernels.accumulate_common_terms(
        slot[wedge], nb_cfg * cand.size + wedge_c, terms, 3 * cand.size)
    sums = sums.reshape(3, cand.size, terms.shape[1])
    counts = counts.reshape(3, cand.size)
    # each pool's candidates are one contiguous range of the sorted keys
    bounds = np.searchsorted(cand, n * np.arange(4))
    out = {}
    for triad in TriadType:
        lo, hi = bounds[triad.ego_config], bounds[triad.ego_config + 1]
        nb = triad.neighbor_config
        out[triad] = _cell(sums[nb, lo:hi], counts[nb, lo:hi], formed[lo:hi], modes, excluded)
    return out


def ego_snapshot_stats(series, t, ego, per_triad=False, degree_modes=None, excluded=None):
    """Stats for one (ego, transition): ``{triad_key: None | {mode:
    {group: GroupStats}}}`` with triad key None in plain mode. Each
    excluded cell adds one to ``excluded[reason]`` when a dict of counts
    keyed by ``EXCLUSIONS`` is given."""
    if not 0 <= t < len(series) - 1:
        raise IndexError(f"transition index {t} needs a following snapshot")
    modes = resolve_modes(series.directed, degree_modes, per_triad)
    if excluded is None:
        excluded = dict.fromkeys(EXCLUSIONS, 0)
    if per_triad:
        return _triad_cells(series[t], series[t + 1], ego, modes, excluded)
    return {None: _plain_cell(series[t], series[t + 1], ego, modes, excluded)}


def _ego_worker(payload, item):
    """``(cells, excluded)`` of one ego: ``{(triad, mode, group, kind):
    [value per usable cell]}`` and its cells counted per reason of
    exclusion. ``item`` is the ego and its row of ``ego._forming_cells``:
    a False cell has no formed candidate."""
    series, per_triad, modes = payload
    ego, forming = item
    n_keys = len(TriadType) if per_triad else 1
    cells = {}
    excluded = dict.fromkeys(EXCLUSIONS, 0)
    for t in range(len(series) - 1):
        if not forming[t]:
            excluded[EXCLUDED_NO_FORMED] += n_keys
            continue
        stats_t = ego_snapshot_stats(series, t, ego, per_triad=per_triad, degree_modes=modes,
                                     excluded=excluded)
        for triad, cell in stats_t.items():
            for mode, groups in (cell or {}).items():
                for group, stats in groups.items():
                    cells.setdefault((triad, mode, group, KIND_GLOBAL), []).append(
                        stats.mean_log_global)
                    cells.setdefault((triad, mode, group, KIND_PERSONALIZED), []).append(
                        stats.mean_log_personalized)
    return cells, excluded


def aggregate_empirical(series, egos=None, per_triad=False, degree_modes=None, workers=1):
    """Pool per-ego means into grand means with standard errors, over
    ``egos`` or by default ``sample_egos(series)``, the nodes with
    neighbors in the first snapshot."""
    if len(series) < 2:
        raise ConfigError("empirical analysis needs at least 2 snapshots")
    modes = resolve_modes(series.directed, degree_modes, per_triad)
    if egos is None:
        egos = sample_egos(series)
    egos = np.asarray(egos, dtype=np.int64)
    if egos.size == 0:
        raise EmptyInputError("no egos given")
    egos = np.unique(egos)
    # a negative id would wrap around instead of failing
    series[0]._check_node(int(egos[0]))
    series[0]._check_node(int(egos[-1]))

    # settled here, not in the workers, so no result depends on the worker count
    forming = _forming_cells(series, egos, sym_pool=per_triad).tolist()
    results = map_in_order(_ego_worker, list(zip(egos.tolist(), forming)),
                           (series, per_triad, modes), workers=workers)
    per_ego = [cells for cells, _ in results]
    pooled = pool_egos(per_ego)
    triad_keys = list(TriadType) if per_triad else [None]
    keys = product(triad_keys, modes, GROUPS, (KIND_GLOBAL, KIND_PERSONALIZED))
    rows = [EmpiricalRow(triad, group, kind, mode, *pooled[(triad, mode, group, kind)])
            for triad, mode, group, kind in keys if (triad, mode, group, kind) in pooled]
    diagnostics = {
        "n_egos_requested": int(egos.size),
        "n_egos_contributing": sum(1 for cells in per_ego if cells),
        "n_transitions": len(series) - 1,
        # one value per usable cell under each key of a cell
        "n_cells": sum(len(values) for cells in per_ego
                       for (_, mode, group, kind), values in cells.items()
                       if (mode, group, kind) == (modes[0], GROUP_FORMED, KIND_GLOBAL)),
        "n_cells_excluded": {reason: sum(excluded[reason] for _, excluded in results)
                             for reason in EXCLUSIONS},
    }
    if not rows:
        raise EmptyResultError(
            "every ego was excluded (no transition had both formed and "
            "not-formed candidates)",
            diagnostics=diagnostics,
        )
    return EmpiricalStats(rows=rows, diagnostics=diagnostics)


def empirical_table(stats):
    return [
        ("" if r.triad is None else r.triad.name, r.group, r.degree_kind, r.mode,
         r.mean, r.stderr, r.n_egos)
        for r in stats.rows
    ]
