"""Ranking candidates and measuring top-K hit rates against the next
snapshot.

A cell is one (ego, transition) pair. By default a cell qualifies when
the ego has at least ``max(ks)`` candidates and at least one next-
snapshot formation; the identical cell set feeds every method, so
method columns are directly comparable. Cell values pool across egos by
the rule of ``_util.pool_egos``. Egos whose candidate set ever exceeds
the two-hop cutoff are dropped whole and reported.

Cells are settled from the new edges first: before any ego gather,
``ego._forming_cells`` marks, in one whole-array pass per transition,
the cells where some candidate forms. When formation is required, an
unmarked cell is settled without a gather if the ego's wedge count, an
upper bound on its candidate count, is within the cutoff. The other
cells run in blocks of egos (``ego._block_runs``), cut in the parent so
that no result depends on the worker count. A block takes one gather,
one ``scorers.score_block`` per degree mode, one ranking per column
over all its egos, and P@K for every kept ego from one cumulative sum.
The cells left out are counted per reason (``EXCLUSIONS``) in the
result's metadata.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._parallel import map_in_order
from ._util import pool_egos
from .ego import (_block_runs, _forming_cells, _gather_block, _gather_sizes, resolve_modes,
                  sample_egos)
from .errors import ConfigError, EmptyResultError, PreconditionError
from .scorers import ALL_METHODS, METHOD_CN, MODE_NONE, score_block, validate_methods

DEFAULT_KS = (1, 3, 5, 10, 20, 30, 50)
DEFAULT_CUTOFF = 100_000

#: reasons a cell is left out, each cell counted under the first that holds:
#: its ego's candidate set exceeds the cutoff at some transition; no
#: candidate formed (only when formation is required); fewer candidates
#: than ``max(min_candidates, max(ks))``
EXCLUDED_OVER_CUTOFF = "ego_over_cutoff"
EXCLUDED_NO_FORMED = "no_formed_candidate"
EXCLUDED_TOO_FEW = "too_few_candidates"
EXCLUSIONS = (EXCLUDED_OVER_CUTOFF, EXCLUDED_NO_FORMED, EXCLUDED_TOO_FEW)

EVAL_HEADER = ("method", "mode", "k", "mean_p_at_k", "stderr", "n_cells")
IMPROVEMENT_HEADER = ("method", "mode", "k", "pct_improvement_vs_base")


@dataclass(frozen=True)
class RankedList:
    """Candidates of one ego in descending-score order, ties broken by
    ascending node id."""

    ego: int
    method: str
    mode: str
    ranking: np.ndarray


@dataclass(frozen=True)
class EvalRow:
    method: str
    mode: str
    k: int
    mean_p_at_k: float
    stderr: float
    n_cells: int


@dataclass(frozen=True)
class EvalResult:
    rows: list
    pairs: tuple
    ks: tuple
    metadata: dict

    def row(self, method, mode, k):
        for r in self.rows:
            if r.method == method and r.mode == mode and r.k == k:
                return r
        raise KeyError((method, mode, k))


def validate_ks(ks):
    ks = tuple(ks)
    if not ks:
        raise ConfigError("need at least one K")
    if any(int(k) != k for k in ks):
        raise ConfigError(f"K list must be strictly ascending positive integers, got {ks}")
    ks = tuple(int(k) for k in ks)
    if ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError(f"K list must be strictly ascending positive integers, got {ks}")
    return ks


def _ranking_order(scores, candidates, slot=None):
    """Positions of ``candidates`` by descending score, ties by ascending
    id; with ``slot``, ranked within each slot, slots in ascending order."""
    return np.lexsort((candidates, -scores) + (() if slot is None else (slot,)))


def _precisions(hit, ks):
    """P@K for each K of the int array ``ks`` from the hit flags of a
    ranking, or of each row of a matrix of rankings."""
    return np.cumsum(hit, axis=-1)[..., ks - 1] / ks


def rank_candidates(table, method=None):
    """Deterministic ranking of a ScoreTable column."""
    if method is None:
        if len(table.columns) != 1:
            raise ConfigError("table has several methods; name one")
        method = next(iter(table.columns))
    order = _ranking_order(table.scores(method), table.candidates)
    return RankedList(
        ego=table.ego, method=method, mode=table.mode, ranking=table.candidates[order]
    )


def precision_at_k(ranked, formed, k):
    """Fraction of the top ``k`` that actually formed; ``formed`` is an
    array or any other iterable of node ids."""
    ranking = ranked.ranking if isinstance(ranked, RankedList) else np.asarray(ranked)
    k = int(k)
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if k > ranking.size:
        raise PreconditionError(f"k={k} exceeds the {ranking.size} ranked candidates")
    if not isinstance(formed, np.ndarray):
        formed = np.fromiter(formed, dtype=np.int64)
    hit = np.isin(ranking[:k], formed, assume_unique=True)
    return float(_precisions(hit, np.array([k]))[0])


def method_mode_pairs(methods, modes):
    """Cross methods with degree modes; CN is mode-free and appears
    once with mode ``none``."""
    pairs = []
    for m in methods:
        if m == METHOD_CN:
            pairs.append((m, MODE_NONE))
        else:
            for mode in modes:
                pairs.append((m, mode))
    return tuple(pairs)


def _cell_worker(payload, item):
    """``(reason, p)`` of one block of egos at transition ``t``: for each
    ego, the index in ``EXCLUSIONS`` of the first reason its cell is left
    out, or -1 when it is kept; and P@K of the kept cells, one row per
    kept ego and one column per ((method, mode), K), pairs first."""
    series, methods, modes, ks, cutoff, need, require_formation, log_base = payload
    t, egos = item
    g, nxt = series[t], series[t + 1]
    view = _gather_block(g, egos, modes)
    slot, n = view.cand_slot, g.n_nodes
    n_cand = np.bincount(slot, minlength=egos.size)
    next_slot, pos = _kernels.gather_rows(nxt.out_indptr, egos)
    formed = _kernels.contains(next_slot * n + nxt.out_indices[pos],
                               slot * n + view.candidates)
    no_formed = require_formation & (np.bincount(slot[formed], minlength=egos.size) == 0)
    # the first reason that holds, in EXCLUSIONS order
    reason = np.select([n_cand > cutoff, no_formed, n_cand < need], range(3), -1)
    kept = np.flatnonzero(reason < 0)
    pairs = method_mode_pairs(methods, modes)
    ks = np.array(ks)
    if not kept.size:
        return reason, np.empty((0, len(pairs) * ks.size))
    # each kept ego's top max(ks) positions: its slot's run of a ranking
    top = (np.cumsum(n_cand) - n_cand)[kept, None] + np.arange(ks[-1])
    # one scoring per degree mode; cn reads no degree: ranked once, from the first
    term_methods = tuple(m for m in methods if m != METHOD_CN)
    passes = [(modes[0], methods)] + [(mode, term_methods) for mode in modes[1:] if term_methods]
    p = {}
    for mode, scored in passes:
        columns, _ = score_block(view, scored, mode, log_base)
        for m in scored:
            order = _ranking_order(columns[m], view.candidates, slot)
            p[(m, MODE_NONE if m == METHOD_CN else mode)] = _precisions(formed[order[top]], ks)
    return reason, np.hstack([p[pair] for pair in pairs])


def evaluate_methods(series, methods=ALL_METHODS, modes=None, ks=DEFAULT_KS,
                     sample_size=None, seed=0, cutoff=DEFAULT_CUTOFF,
                     min_candidates=0, require_formation=True, workers=1,
                     log_base=None):
    """Mean P@K per (method, degree mode, K) over a shared cell set."""
    if len(series) < 2:
        raise ConfigError("evaluation needs at least 2 snapshots")
    methods = validate_methods(methods)
    ks = validate_ks(ks)
    modes = resolve_modes(series.directed, modes)
    pairs = method_mode_pairs(methods, modes)
    keys = [(pair, k) for pair in pairs for k in ks]
    cutoff, n_t = int(cutoff), len(series) - 1

    egos = sample_egos(series, sample_size, seed)
    forming = (_forming_cells(series, egos, sym_pool=False) if require_formation
               else np.ones((egos.size, n_t), dtype=bool))
    # per (transition, ego): the index in EXCLUSIONS of the reason its cell
    # is left out, or -1 when it is kept; a settled cell has nothing formed
    reason = np.full((n_t, egos.size), EXCLUSIONS.index(EXCLUDED_NO_FORMED))
    blocks = []
    for t, g in enumerate(series.graphs[:-1]):
        sizes = _gather_sizes(g, egos)
        gathered = np.flatnonzero(forming[:, t] | (sizes > cutoff))
        blocks += [(t, gathered[a:b]) for a, b in _block_runs(g, sizes[gathered])]
    payload = (series, methods, modes, ks, cutoff, max(int(min_candidates), ks[-1]),
               bool(require_formation), log_base)
    results = map_in_order(_cell_worker, [(t, egos[at]) for t, at in blocks], payload,
                           workers=workers)
    cell_ego, values = [np.empty(0, dtype=np.int64)], [np.empty((0, len(keys)))]
    for (t, at), (block_reason, p) in zip(blocks, results):
        reason[t, at] = block_reason
        cell_ego.append(at[block_reason < 0])
        values.append(p)

    # an ego over the cutoff at some transition is dropped whole; a settled
    # cell never is, as its candidates are at most its wedges
    dropped = (reason == EXCLUSIONS.index(EXCLUDED_OVER_CUTOFF)).any(axis=0)
    excluded = {r: int((reason[:, ~dropped] == i).sum()) for i, r in enumerate(EXCLUSIONS)}
    excluded[EXCLUDED_OVER_CUTOFF] = int(dropped.sum()) * n_t
    cell_ego, values = np.concatenate(cell_ego), np.concatenate(values)
    cell_ego, values = cell_ego[~dropped[cell_ego]], values[~dropped[cell_ego]]
    n_cells = np.bincount(cell_ego, minlength=egos.size)
    metadata = {
        "seed": int(seed),
        "sample_size": int(egos.size),
        "two_hop_cutoff": cutoff,
        "min_candidates": int(min_candidates),
        "require_formation": bool(require_formation),
        "n_egos_contributing": int(np.count_nonzero(n_cells)),
        "n_egos_skipped_cutoff": int(dropped.sum()),
        "n_cells": int(n_cells.sum()),
        "n_cells_excluded": excluded,
    }
    if not cell_ego.size:
        raise EmptyResultError("no (ego, transition) cell met the qualification rule",
                               diagnostics=metadata)

    # each ego's cells in transition order, one list per key
    per_ego = np.split(values[np.argsort(cell_ego, kind="stable")],
                       np.cumsum(n_cells[n_cells > 0])[:-1])
    pooled = pool_egos(dict(zip(keys, cells.T.tolist())) for cells in per_ego)
    rows = [EvalRow(*pair, k, *pooled[(pair, k)][:2], metadata["n_cells"])
            for pair, k in keys]
    return EvalResult(rows=rows, pairs=pairs, ks=ks, metadata=metadata)


@dataclass(frozen=True)
class ImprovementRow:
    method: str
    mode: str
    k: int
    pct_improvement_vs_base: float


def percent_improvement(result, base=METHOD_CN):
    """Relative P@K gain of every (method, mode) over a base method."""
    base_rows = {}
    for r in result.rows:
        if r.method == base:
            if r.k in base_rows and base_rows[r.k][0] != r.mode:
                raise ConfigError(
                    f"base method {base!r} appears under several modes; ambiguous"
                )
            base_rows[r.k] = (r.mode, r.mean_p_at_k)
    if not base_rows:
        raise ConfigError(f"base method {base!r} not present in the result")
    out = []
    for r in result.rows:
        base_mean = base_rows[r.k][1]
        if base_mean == 0.0:
            pct = float("nan")  # no defined relative gain over a zero base
        else:
            pct = 100.0 * (r.mean_p_at_k - base_mean) / base_mean
        out.append(
            ImprovementRow(
                method=r.method, mode=r.mode, k=r.k, pct_improvement_vs_base=pct
            )
        )
    return out


def eval_table(result):
    return [
        (r.method, r.mode, r.k, r.mean_p_at_k, r.stderr, r.n_cells)
        for r in result.rows
    ]


def improvement_table(rows):
    return [(r.method, r.mode, r.k, r.pct_improvement_vs_base) for r in rows]
