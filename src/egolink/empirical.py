"""Formed vs. not-formed analysis of candidate common neighbors.

For each ego and each snapshot transition ``t -> t+1``, two-hop
candidates split into those that gained an ego edge and those that did
not. Each candidate is summarized by the mean over its common
neighbors ``z`` of ``log(degree(z) + 1)``, once with global and once
with personalized degrees; the two groups average those per-candidate
means. A transition counts for an ego only when both groups are
non-empty, so formed and not-formed aggregates always cover identical
(ego, snapshot) cells. A per-triad cell (directed graphs) narrows the
pool by the config of the ego's link to ``z`` and the wedges by the
config of the ``z``-``v`` link (``SnapshotGraph.sym_config``); its
candidates are those of its pool with a wedge of its triad.

Cells run on the block driver that ``evaluate`` shares
(``ego._cell_blocks``). ``ego._forming_cells`` first marks the (ego,
transition) pairs where a candidate can form; the cells of an unmarked
pair, one or nine per triad, have none and are left out without a
gather. The marked egos of a transition run in blocks: one
``ego._gather_block``, whose candidate slots are the cells (per triad,
with symmetric pools, nine per ego), one accumulate over its wedges in
ascending-z order, the reason of each left-out cell from counts per
cell, and every (cell, group) mean by ``_util.group_means``; plain and
per-triad cells take that one path. A usable cell is one row of values,
one column per (mode, group, degree kind); per triad key, the rows pool
across egos by the rule of ``_util.pool_egos``. The cells left out are
counted per reason (``EXCLUSIONS``) in the diagnostics.
``ego_snapshot_stats`` is the block of one ego at one transition.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from ._util import group_means, pool_egos
from .degree_dist import KIND_GLOBAL, KIND_PERSONALIZED
from .ego import TriadType, _cell_blocks, _ego_ids, _gather_block, resolve_modes, sample_egos
from .errors import ConfigError, EmptyResultError

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


def _ego_worker(payload, item):
    """``(reason, values, n_candidates)`` of one block of egos at
    transition ``t``: per cell, ego by ego and per triad key in
    ``TriadType`` order, the index in ``EXCLUSIONS`` of the reason it is
    left out, or -1 when it is usable; for each usable cell, its row of
    values, ordered as ``product(modes, GROUPS, (KIND_GLOBAL,
    KIND_PERSONALIZED))``, and its candidate count per group. A cell's
    candidates are those with a common neighbor in it, each valued by its
    mean terms."""
    series, per_triad, modes = payload
    t, egos = item
    view = _gather_block(series[t], egos, modes, sym_pool=per_triad)
    terms = _log_degree_terms([col for m in modes for col in (view.gd(m), view.pd(m))])
    sums, counts = view.accumulate(terms)
    # cell: the candidate's slot, per triad (ego slot) * 9 + triad - 1
    cell = view.cand_slot
    formed = view.formed(series[t + 1])
    n_cells = egos.size * view.slots
    n_formed = np.bincount(cell[formed.nonzero()[0]], minlength=n_cells)
    reason = np.select([n_formed == 0, n_formed == np.bincount(cell, minlength=n_cells)],
                       range(len(EXCLUSIONS)), -1)
    usable = (reason[cell] < 0).nonzero()[0]
    # groups: each usable cell's formed, then its not-formed candidates
    group = 2 * cell[usable] + ~formed[usable]
    terms = sums.take(usable, axis=0) / counts.take(usable)[:, None]
    # the positions are int64, unlike the mask: none is held while grouping
    del usable
    means, n_candidates = group_means(group, terms)
    values = means.reshape(-1, len(GROUPS), len(modes), 2).transpose(0, 2, 1, 3)
    return reason, values.reshape(-1, 4 * len(modes)), n_candidates


def ego_snapshot_stats(series, t, ego, per_triad=False, degree_modes=None, excluded=None):
    """Stats for one (ego, transition): ``{triad_key: None | {mode:
    {group: GroupStats}}}`` with triad key None in plain mode. Each
    excluded cell adds one to ``excluded[reason]`` when a dict of counts
    keyed by ``EXCLUSIONS`` is given."""
    if not 0 <= t < len(series) - 1:
        raise IndexError(f"transition index {t} needs a following snapshot")
    egos = np.array([series[t]._check_node(ego)])
    modes = resolve_modes(series.directed, degree_modes, per_triad)
    reason, values, n_candidates = _ego_worker((series, per_triad, modes), (t, egos))
    if excluded is not None:
        for i, r in enumerate(EXCLUSIONS):
            excluded[r] += int((reason == i).sum())
    keys = list(TriadType) if per_triad else [None]
    out = dict.fromkeys(keys)
    usable = [key for key, r in zip(keys, reason) if r < 0]
    for key, cell, sizes in zip(usable, values.reshape(-1, len(modes), len(GROUPS), 2),
                                n_candidates.reshape(-1, len(GROUPS))):
        out[key] = {m: {group: GroupStats(group, float(cell[i, j, 0]), float(cell[i, j, 1]),
                                          int(sizes[j]))
                        for j, group in enumerate(GROUPS)}
                    for i, m in enumerate(modes)}
    return out


def aggregate_empirical(series, egos=None, per_triad=False, degree_modes=None, workers=1):
    """Pool per-ego means into grand means with standard errors, over
    ``egos`` or by default ``sample_egos(series)``, the nodes with
    neighbors in the first snapshot."""
    if len(series) < 2:
        raise ConfigError("empirical analysis needs at least 2 snapshots")
    modes = resolve_modes(series.directed, degree_modes, per_triad)
    egos = _ego_ids(series[0], sample_egos(series) if egos is None else egos)

    columns = list(product(modes, GROUPS, (KIND_GLOBAL, KIND_PERSONALIZED)))
    reason, cell, values = _cell_blocks(
        _ego_worker, (series, per_triad, modes), series, egos,
        EXCLUSIONS.index(EXCLUDED_NO_FORMED), len(columns), workers, sym_pool=per_triad)
    triad_keys = list(TriadType) if per_triad else [None]
    ego = cell // len(triad_keys)
    triad = cell - ego * len(triad_keys)
    ego = egos[ego]
    rows = []
    for i in np.unique(triad):
        at = triad == i
        rows += [EmpiricalRow(triad_keys[i], group, kind, mode, *pooled)
                 for (mode, group, kind), pooled in zip(columns, pool_egos(ego[at], values[at]))]
    diagnostics = {
        "n_egos_requested": int(egos.size),
        "n_egos_contributing": int(np.unique(ego).size),
        "n_transitions": len(series) - 1,
        "n_cells": int(ego.size),
        "n_cells_excluded": {r: int((reason == i).sum()) for i, r in enumerate(EXCLUSIONS)},
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
