"""Formed vs. not-formed analysis of candidate common neighbors.

For each ego and each snapshot transition ``t -> t+1``, two-hop
candidates split into those that gained an ego edge and those that did
not. Each candidate is summarized by the mean over its common
neighbors ``z`` of ``log(degree(z) + 1)``, once with global and once
with personalized degrees; the two groups average those per-candidate
means. A transition counts for an ego only when both groups are
non-empty, so formed and not-formed aggregates always cover identical
(ego, snapshot) cells. Per-ego means over usable transitions are then
averaged across egos, with the spread across egos giving the standard
error.

The per-triad variant (directed graphs) runs the same pipeline once
for each of the nine open-triad patterns, restricting the neighbor
pool to the triad's ego-edge configuration and the candidate-side
adjacency to its neighbor-edge configuration.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._parallel import map_in_order
from ._util import mean_and_stderr, write_csv
from .ego import (
    MODE_IN,
    MODE_OUT,
    MODE_UNDIRECTED,
    EdgeConfig,
    TriadType,
    TRIAD_TABLE,
    ego_neighbors,
    global_degrees,
    personalized_degrees,
    two_hop_candidates,
    validate_mode,
)
from .errors import ConfigError, EmptyInputError, EmptyResultError

GROUP_FORMED = "formed"
GROUP_NOT_FORMED = "not-formed"
KIND_GLOBAL = "global"
KIND_PERSONALIZED = "personalized"

EMPIRICAL_HEADER = ("triad", "group", "degree_kind", "mode", "mean", "stderr", "n_egos")


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


def default_degree_modes(directed, per_triad=False):
    if not directed:
        return (MODE_UNDIRECTED,)
    if per_triad:
        return (MODE_OUT, MODE_IN)
    return (MODE_OUT, MODE_IN, MODE_UNDIRECTED)


def partition_candidates(series, t, ego):
    """Two-hop candidates at ``t`` split by next-snapshot formation."""
    if not 0 <= t < len(series) - 1:
        raise IndexError(f"transition index {t} needs a following snapshot")
    cand = two_hop_candidates(series[t], ego)
    nxt = ego_neighbors(series[t + 1], ego)
    mask = np.isin(cand, nxt, assume_unique=True)
    return cand[mask], cand[~mask]


def _contains(sorted_arr, v):
    pos = np.searchsorted(sorted_arr, v)
    return bool(pos < sorted_arr.size and sorted_arr[pos] == v)


def _log1(x):
    return np.log(x.astype(np.float64) + 1.0)


def _plain_cell(graph, next_graph, ego, modes):
    """Group stats keyed by mode for one (ego, transition), or None."""
    base = ego_neighbors(graph, ego)
    cand = two_hop_candidates(graph, ego)
    if cand.size == 0:
        return None
    nxt = ego_neighbors(next_graph, ego)
    formed = np.isin(cand, nxt, assume_unique=True)
    n_f = int(formed.sum())
    if n_f == 0 or n_f == cand.size:
        return None

    cols = []
    for m in modes:
        cols.append(_log1(global_degrees(graph, base, m)))
        cols.append(_log1(personalized_degrees(graph, ego, base, m)))
    terms = np.column_stack(cols)
    sums, counts = _kernels.accumulate_common_terms(
        base, terms, graph.sym_indptr, graph.sym_indices, cand
    )
    means = sums / counts[:, None]

    out = {}
    for i, m in enumerate(modes):
        per_group = {}
        for group, mask in ((GROUP_FORMED, formed), (GROUP_NOT_FORMED, ~formed)):
            per_group[group] = GroupStats(
                group=group,
                mean_log_global=float(means[mask, 2 * i].mean()),
                mean_log_personalized=float(means[mask, 2 * i + 1].mean()),
                n_candidates=int(mask.sum()),
            )
        out[m] = per_group
    return out


def _triad_pools(graph, ego):
    succ = graph.successors(ego)
    pred = graph.predecessors(ego)
    recip = _kernels.intersect_values(succ, pred)
    return {
        EdgeConfig.OUT: np.setdiff1d(succ, pred, assume_unique=True),
        EdgeConfig.RECIPROCAL: recip,
        EdgeConfig.IN: np.setdiff1d(pred, succ, assume_unique=True),
    }


def _triad_cells(graph, next_graph, ego, modes):
    """Group stats keyed by TriadType for one (ego, transition):
    triad -> None (excluded) or {mode: {group: GroupStats}}."""
    succ = graph.successors(ego)
    nxt = ego_neighbors(next_graph, ego)
    pools = _triad_pools(graph, ego)
    out = {}
    for ego_cfg, pool in pools.items():
        if pool.size == 0:
            for nb_cfg in EdgeConfig:
                out[TRIAD_TABLE[(ego_cfg, nb_cfg)]] = None
            continue
        pd_cols = {m: personalized_degrees(graph, ego, pool, m) for m in modes}
        gd_cols = {m: global_degrees(graph, pool, m) for m in modes}
        # candidates reachable through this pool; a node already chosen
        # by the ego, or inside the pool itself, is not a candidate
        reach = np.unique(np.concatenate([graph.neighbors(int(z)) for z in pool]))
        exclude = np.unique(np.concatenate([succ, pool, np.asarray([ego], dtype=np.int64)]))
        cand = np.setdiff1d(reach, exclude, assume_unique=False)

        # per candidate, split the pool by the z-v edge configuration
        per_cfg = {cfg: ([], []) for cfg in EdgeConfig}  # (cand ids, z position lists)
        for v in cand.tolist():
            into_v = _kernels.intersect_values(pool, graph.predecessors(v))
            from_v = _kernels.intersect_values(pool, graph.successors(v))
            both = _kernels.intersect_values(into_v, from_v)
            z_sets = {
                EdgeConfig.OUT: np.setdiff1d(into_v, both, assume_unique=True),
                EdgeConfig.RECIPROCAL: both,
                EdgeConfig.IN: np.setdiff1d(from_v, both, assume_unique=True),
            }
            for cfg, zs in z_sets.items():
                if zs.size:
                    ids, zpos = per_cfg[cfg]
                    ids.append(v)
                    zpos.append(np.searchsorted(pool, zs))

        for nb_cfg in EdgeConfig:
            triad = TRIAD_TABLE[(ego_cfg, nb_cfg)]
            ids, zpos = per_cfg[nb_cfg]
            if not ids:
                out[triad] = None
                continue
            ids = np.asarray(ids, dtype=np.int64)
            formed = np.isin(ids, nxt, assume_unique=True)
            n_f = int(formed.sum())
            if n_f == 0 or n_f == ids.size:
                out[triad] = None
                continue
            per_mode = {}
            for m in modes:
                mg = np.array([_log1(gd_cols[m][p]).mean() for p in zpos])
                mp = np.array([_log1(pd_cols[m][p]).mean() for p in zpos])
                per_group = {}
                for group, mask in ((GROUP_FORMED, formed), (GROUP_NOT_FORMED, ~formed)):
                    per_group[group] = GroupStats(
                        group=group,
                        mean_log_global=float(mg[mask].mean()),
                        mean_log_personalized=float(mp[mask].mean()),
                        n_candidates=int(mask.sum()),
                    )
                per_mode[m] = per_group
            out[triad] = per_mode
    return out


def ego_snapshot_stats(series, t, ego, per_triad=False, degree_modes=None):
    """Stats for one (ego, transition): ``{triad_key: None | {mode:
    {group: GroupStats}}}`` with triad key None in plain mode."""
    if not 0 <= t < len(series) - 1:
        raise IndexError(f"transition index {t} needs a following snapshot")
    modes = _validated_modes(series, per_triad, degree_modes)
    if per_triad:
        return _triad_cells(series[t], series[t + 1], ego, modes)
    return {None: _plain_cell(series[t], series[t + 1], ego, modes)}


def _validated_modes(series, per_triad, degree_modes):
    if per_triad and not series.directed:
        raise ConfigError("per-triad analysis needs a directed graph")
    if degree_modes is None:
        degree_modes = default_degree_modes(series.directed, per_triad)
    degree_modes = tuple(degree_modes)
    if not degree_modes:
        raise ConfigError("need at least one degree mode")
    for m in degree_modes:
        validate_mode(m, series.directed)
    return degree_modes


def _ego_worker(payload, ego):
    series, per_triad, modes = payload
    n_transitions = len(series) - 1
    # per triad key: list over usable transitions of per-mode group stats
    usable = {}
    for t in range(n_transitions):
        cells = ego_snapshot_stats(series, t, ego, per_triad=per_triad, degree_modes=modes)
        for key, cell in cells.items():
            if cell is not None:
                usable.setdefault(key, []).append(cell)
    out = {}
    for key, cells in usable.items():
        per_mode = {}
        for m in modes:
            vals = {}
            for group in (GROUP_FORMED, GROUP_NOT_FORMED):
                for kind in (KIND_GLOBAL, KIND_PERSONALIZED):
                    picks = [
                        c[m][group].mean_log_global
                        if kind == KIND_GLOBAL
                        else c[m][group].mean_log_personalized
                        for c in cells
                    ]
                    vals[(group, kind)] = float(np.mean(picks))
            per_mode[m] = vals
        out[key] = (len(cells), per_mode)
    return ego, out


def aggregate_empirical(series, egos=None, per_triad=False, degree_modes=None, workers=1):
    """Pool per-ego means into grand means with standard errors."""
    if len(series) < 2:
        raise ConfigError("empirical analysis needs at least 2 snapshots")
    modes = _validated_modes(series, per_triad, degree_modes)
    if egos is None:
        egos = np.arange(series.n_nodes, dtype=np.int64)
    egos = np.asarray(egos, dtype=np.int64)
    if egos.size == 0:
        raise EmptyInputError("no egos given")
    egos = np.unique(egos)

    results = map_in_order(
        _ego_worker, [int(u) for u in egos], (series, per_triad, modes), workers=workers
    )

    # per (triad, mode, group, kind): per-ego means in ascending ego order
    collected = {}
    contributing = 0  # egos with at least one usable cell
    for ego, per_key in results:
        contributing += bool(per_key)
        for key, (n_usable, per_mode) in per_key.items():
            for m, vals in per_mode.items():
                for (group, kind), v in vals.items():
                    collected.setdefault((key, m, group, kind), []).append(v)

    triad_keys = [None] if not per_triad else list(TriadType)
    rows = []
    for key in triad_keys:
        for m in modes:
            for group in (GROUP_FORMED, GROUP_NOT_FORMED):
                for kind in (KIND_GLOBAL, KIND_PERSONALIZED):
                    vals = collected.get((key, m, group, kind))
                    if not vals:
                        continue
                    mean, stderr = mean_and_stderr(vals)
                    rows.append(
                        EmpiricalRow(
                            triad=key,
                            group=group,
                            degree_kind=kind,
                            mode=m,
                            mean=mean,
                            stderr=stderr,
                            n_egos=len(vals),
                        )
                    )
    diagnostics = {
        "n_egos_requested": int(egos.size),
        "n_egos_contributing": contributing,
        "n_transitions": len(series) - 1,
    }
    if not rows:
        raise EmptyResultError(
            "every ego was excluded (no transition had both formed and "
            "not-formed candidates)",
            diagnostics=diagnostics,
        )
    return EmpiricalStats(rows=rows, diagnostics=diagnostics)


def empirical_table(stats):
    rows = []
    for r in stats.rows:
        rows.append(
            (
                "" if r.triad is None else r.triad.name,
                r.group,
                r.degree_kind,
                r.mode,
                r.mean,
                r.stderr,
                r.n_egos,
            )
        )
    return rows


def write_empirical_csv(stats, path):
    header, rows = EMPIRICAL_HEADER, empirical_table(stats)
    write_csv(path, header, rows)
