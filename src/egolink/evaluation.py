"""Ranking candidates and measuring top-K hit rates against the next
snapshot.

A cell is one (ego, transition) pair. By default a cell qualifies when
the ego has at least ``max(ks)`` candidates and at least one next-
snapshot formation; the identical cell set feeds every method, so
method columns are directly comparable. The kept cells' P@K array (a
column per ((method, mode), K)) pools across egos by the rule of
``_util.pool_egos``. Egos whose candidate set ever exceeds the two-hop
cutoff are dropped whole and reported.

Cells are settled from the new edges first: before any ego gather,
``ego._forming_cells`` marks, in one whole-array pass per transition,
the cells where some candidate forms. When formation is required, an
unmarked cell is settled without a gather if the ego's wedge count, an
upper bound on its candidate count, is within the cutoff. The other
cells run on the block driver that ``empirical`` shares
(``ego._cell_blocks``). A block takes one gather and one
``scorers.score_block`` per degree mode. Per column, each kept ego's top
``max(ks)`` is selected (``_top_ranker``) and only that is sorted; egos
over the cutoff or otherwise not kept are not ranked. P@K for every
kept ego comes from one cumulative sum.
The cells left out are counted per reason (``EXCLUSIONS``) in the
result's metadata.
"""

from dataclasses import dataclass

import numpy as np

from ._util import INT64_MIN, count, pool_egos
from .ego import _cell_blocks, _ego_ids, _gather_block, resolve_modes, sample_egos
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
    """The K list: each K a count from 1 (``_util.count``), strictly
    ascending; a ConfigError names ``ks``."""
    ks = tuple(count("ks", k, 1) for k in ks)
    if not ks:
        raise ConfigError("ks: need at least one K")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError(f"ks: K list must be strictly ascending positive integers, got {ks}")
    return ks


def _ranking_order(scores):
    """Positions of ascending candidates by descending score, ties by id;
    of a 2-D ``scores``, along each row. A ``ScoreTable`` and each slot of
    ``ego._gather_block`` hold ascending candidates, so the stable sort
    keeps ties in id order."""
    return np.lexsort((-scores,))


def _top_ranker(kept, n_cand, n_top):
    """A function from a score column of a block, its candidates in runs
    of ``n_cand`` per slot, ascending by id within each, to the positions
    of each ``kept`` slot's first ``n_top`` in ``_ranking_order``: one row
    per kept slot, each of which holds at least ``n_top`` candidates.

    Only those ``n_top`` are sorted. The kept candidates are laid once
    into a grid (kept slots × widest kept slot, padded with -inf) that
    every column refills; one partition gives each row's ``n_top``-th
    largest score. A row keeps the scores above it, then fills its room
    with the ties at it in id order, as the full sort would."""
    counts = n_cand[kept]
    row = np.repeat(np.arange(kept.size), counts)
    col = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pos = (np.cumsum(n_cand) - n_cand)[kept][row] + col
    width = int(counts.max())
    grid = np.full((kept.size, width), -np.inf)
    # the filled cells, ascending in (row, col) order as pos
    filled = row * width + col
    cell_pos = np.zeros(grid.size, dtype=np.int64)
    cell_pos[filled] = pos
    row_start = np.arange(kept.size) * width
    top_start = np.arange(kept.size)[:, None] * n_top

    def top(scores):
        grid.reshape(-1)[filled] = scores[pos]
        nth = np.partition(grid, width - n_top, axis=1)[:, width - n_top, None]
        keep = grid > nth
        tie = np.flatnonzero(grid == nth)
        tie_row = tie // width
        room = n_top - np.count_nonzero(keep, axis=1)
        rank = np.arange(tie.size) - np.searchsorted(tie, row_start)[tie_row]
        keep.reshape(-1)[tie[rank < room[tie_row]]] = True
        sel = cell_pos[np.flatnonzero(keep)]
        return sel[top_start + _ranking_order(scores[sel].reshape(kept.size, n_top))]

    return top


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
    order = _ranking_order(table.scores(method))
    return RankedList(
        ego=table.ego, method=method, mode=table.mode, ranking=table.candidates[order]
    )


def precision_at_k(ranked, formed, k):
    """Fraction of the top ``k`` that actually formed; ``formed`` is an
    array or any other iterable of node ids."""
    ranking = ranked.ranking if isinstance(ranked, RankedList) else np.asarray(ranked)
    # a whole number by the count rule; below 1 or past the ranking is a precondition
    k = count("k", k, INT64_MIN)
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
    kept ego and one column per ((method, mode), K), pairs first. Per
    column only each kept ego's top ``max(ks)`` is selected and sorted."""
    series, methods, modes, ks, cutoff, need, require_formation = payload
    t, egos = item
    view = _gather_block(series[t], egos, modes)
    slot = view.cand_slot
    n_cand = np.bincount(slot, minlength=egos.size)
    formed = view.formed(series[t + 1])
    n_formed = np.bincount(slot[formed.nonzero()[0]], minlength=egos.size)
    no_formed = require_formation & (n_formed == 0)
    # the first reason that holds, in EXCLUSIONS order
    reason = np.select([n_cand > cutoff, no_formed, n_cand < need], range(3), -1)
    kept = np.flatnonzero(reason < 0)
    pairs = method_mode_pairs(methods, modes)
    ks = np.array(ks)
    if not kept.size:
        return reason, np.empty((0, len(pairs) * ks.size))
    top = _top_ranker(kept, n_cand, ks[-1])
    # one scoring per degree mode; cn reads no degree: ranked once, from the first
    term_methods = tuple(m for m in methods if m != METHOD_CN)
    passes = [(modes[0], methods)] + [(mode, term_methods) for mode in modes[1:] if term_methods]
    p = {}
    for mode, scored in passes:
        columns, _ = score_block(view, scored, mode)
        for m in scored:
            p[(m, MODE_NONE if m == METHOD_CN else mode)] = _precisions(formed[top(columns[m])], ks)
    return reason, np.hstack([p[pair] for pair in pairs])


def evaluate_methods(series, methods=ALL_METHODS, modes=None, ks=DEFAULT_KS, egos=None,
                     cutoff=DEFAULT_CUTOFF, min_candidates=0, require_formation=True,
                     workers=1):
    """Mean P@K per (method, degree mode, K) over a shared cell set, of
    ``egos`` or by default ``sample_egos(series)``, the nodes with
    neighbors in the first snapshot."""
    if len(series) < 2:
        raise ConfigError("evaluation needs at least 2 snapshots")
    cutoff = count("cutoff", cutoff, 1)
    min_candidates = count("min_candidates", min_candidates, 0)
    methods = validate_methods(methods)
    ks = validate_ks(ks)
    modes = resolve_modes(series.directed, modes)
    pairs = method_mode_pairs(methods, modes)
    keys = [(pair, k) for pair in pairs for k in ks]

    egos = _ego_ids(series[0], sample_egos(series) if egos is None else egos)
    payload = (series, methods, modes, ks, cutoff, max(min_candidates, ks[-1]),
               bool(require_formation))
    # per (transition, ego): the index in EXCLUSIONS of the reason its cell
    # is left out, or -1 when it is kept; a settled cell has nothing formed
    reason, cell_ego, values = _cell_blocks(
        _cell_worker, payload, series, egos, EXCLUSIONS.index(EXCLUDED_NO_FORMED), len(keys),
        workers, require_formation=require_formation, cutoff=cutoff)

    # an ego over the cutoff at some transition is dropped whole; a settled
    # cell never is, as its candidates are at most its wedges
    dropped = (reason == EXCLUSIONS.index(EXCLUDED_OVER_CUTOFF)).any(axis=0)
    excluded = {r: int((reason[:, ~dropped] == i).sum()) for i, r in enumerate(EXCLUSIONS)}
    excluded[EXCLUDED_OVER_CUTOFF] = int(dropped.sum()) * len(reason)
    kept = (~dropped).take(cell_ego).nonzero()[0]
    cell_ego, values = cell_ego.take(kept), values.take(kept, axis=0)
    metadata = {
        "n_egos_requested": int(egos.size),
        "n_egos_contributing": int(np.unique(cell_ego).size),
        "n_egos_skipped_cutoff": int(dropped.sum()),
        "n_cells": int(cell_ego.size),
        "n_cells_excluded": excluded,
    }
    if not cell_ego.size:
        raise EmptyResultError("no (ego, transition) cell met the qualification rule",
                               diagnostics=metadata)

    rows = [EvalRow(*pair, k, mean, stderr, metadata["n_cells"])
            for (pair, k), (mean, stderr, _) in zip(keys, pool_egos(cell_ego, values))]
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
