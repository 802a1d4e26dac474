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
upper bound on its candidate count, is within the cutoff, and a marked
one has too few candidates if that count is also below
``max(min_candidates, max(ks))``. The other cells run on the block
driver that ``empirical`` shares (``ego._cell_blocks``). A block takes
one gather and one ``scorers.score_block`` per degree mode. Each kept
ego's top ``max(ks)`` of every column is selected at once
(``_top_ranker``) and only that is sorted; egos over the cutoff or
otherwise not kept are not ranked. P@K for every kept ego comes from one
cumulative sum.
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


def _width_buckets(counts):
    """The positions of ``counts`` (each at least 1) by the power of two at
    or above each: a group's largest count is below twice its least."""
    bucket = np.frexp(counts - 1)[1]  # the bit length of count - 1
    return [np.flatnonzero(bucket == b) for b in np.unique(bucket).tolist()]


def _top_ranker(columns, kept, n_cand, n_top):
    """The positions of each ``kept`` slot's first ``n_top`` in
    ``_ranking_order``, per row of ``columns`` (score columns × the block's
    candidates, ascending by id in runs of ``n_cand`` per slot), as an
    array of (columns × kept slots × ``n_top``); a kept slot holds at least
    ``n_top`` candidates.

    Only those ``n_top`` are sorted. Per ``_width_buckets`` of the kept
    slots, every column's candidates fill one grid (columns × slots ×
    widest slot, padded with -inf), and one partition gives each row's
    ``n_top``-th largest score. A row keeps the scores above it, then fills
    its room with the ties at it in id order, as the full sort would."""
    counts = n_cand[kept]
    first = (np.cumsum(n_cand) - n_cand)[kept]
    out = np.empty((len(columns), kept.size, n_top), dtype=np.int64)
    for rows in _width_buckets(counts):
        size, width = counts[rows], int(counts[rows].max())
        row = np.repeat(np.arange(rows.size), size)
        col = np.arange(row.size) - np.repeat(np.cumsum(size) - size, size)
        grid = np.full((len(columns), rows.size, width), -np.inf)
        grid[:, row, col] = columns[:, first[rows][row] + col]
        nth = np.partition(grid, width - n_top, axis=2)[:, :, width - n_top, None]
        keep = grid > nth
        tie = np.flatnonzero(grid == nth)
        room = n_top - np.count_nonzero(keep, axis=2).ravel()
        rank = np.arange(tie.size) - np.searchsorted(tie, tie // width * width)
        keep.reshape(-1)[tie[rank < room[tie // width]]] = True
        col = np.flatnonzero(keep).reshape(len(columns), rows.size, n_top) % width
        order = _ranking_order(np.take_along_axis(grid, col, axis=2))
        out[:, rows] = first[rows, None] + np.take_along_axis(col, order, axis=2)
    return out


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
    kept ego and one column per ((method, mode), K), pairs first. Only
    each kept ego's top ``max(ks)`` of the stacked score columns is sorted."""
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
    # one scoring per degree mode; cn reads no degree: ranked once, from the first
    term_methods = tuple(m for m in methods if m != METHOD_CN)
    passes = [(modes[0], methods)] + [(mode, term_methods) for mode in modes[1:] if term_methods]
    scores = np.empty((len(pairs), view.candidates.size))
    for mode, scored in passes:
        columns, _ = score_block(view, scored, mode)
        for m in scored:
            scores[pairs.index((m, MODE_NONE if m == METHOD_CN else mode))] = columns[m]
    # every column's top at once: (pairs × kept egos × K) → kept egos × (pairs, K)
    top = _top_ranker(scores, kept, n_cand, ks[-1])
    p = _precisions(formed[top], ks)
    return reason, p.transpose(1, 0, 2).reshape(kept.size, -1)


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
    need = max(min_candidates, ks[-1])
    payload = (series, methods, modes, ks, cutoff, need, bool(require_formation))
    # per (transition, ego): the index in EXCLUSIONS of the reason its cell
    # is left out, or -1 when it is kept; a cell settled without a gather
    # has nothing formed or too few candidates
    reason, cell_ego, values = _cell_blocks(
        _cell_worker, payload, series, egos, EXCLUSIONS.index(EXCLUDED_NO_FORMED), len(keys),
        workers, require_formation=require_formation, cutoff=cutoff,
        too_few=(need, EXCLUSIONS.index(EXCLUDED_TOO_FEW)))

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
