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
unmarked cell is skipped without its gather if the ego's wedge count,
an upper bound on its candidate count, is within the cutoff; every other
cell takes the full ``ego_view``. The cells left out are counted per
reason (``EXCLUSIONS``) in the result's metadata.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._parallel import map_in_order
from ._util import pool_egos
from .ego import _forming_cells, ego_neighbors, ego_view, resolve_modes, sample_egos
from .errors import ConfigError, EmptyResultError, PreconditionError
from .scorers import (
    ALL_METHODS,
    METHOD_CN,
    MODE_NONE,
    score_candidates,
    validate_methods,
)

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


def _ranking_order(scores, candidates):
    """Positions of ``candidates`` by descending score, ties by ascending id."""
    return np.lexsort((candidates, -scores))


def _precisions(hit, ks):
    """P@K for each K of the int array ``ks`` from a ranking's hit flags."""
    return np.cumsum(hit)[ks - 1] / ks


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
    """``(cells, excluded)`` of one ego: ``{((method, mode), k): [P@K per
    qualifying cell]}``, or None when its candidate set ever exceeds the
    two-hop cutoff, and its cells counted per reason of exclusion.
    ``item`` is the ego and, when formation is required, its row of
    ``ego._forming_cells``."""
    series, methods, modes, ks, cutoff, min_cand, log_base = payload
    ego, forming = item
    max_k = max(ks)
    k_array = np.array(ks)
    # one table per degree mode; cn reads no degree: ranked once, from the first
    term_methods = tuple(m for m in methods if m != METHOD_CN)
    passes = [(modes[0], methods)] + [(mode, term_methods) for mode in modes[1:] if term_methods]

    cells = {}
    excluded = dict.fromkeys(EXCLUSIONS, 0)
    for t, (g, nxt) in enumerate(zip(series.graphs, series.graphs[1:])):
        # settled without a gather when nothing forms and the wedge count,
        # a bound on the candidate count, keeps the ego within the cutoff
        if (forming is not None and not forming[t]
                and g.sym_degree[ego_neighbors(g, ego)].sum() <= cutoff):
            excluded[EXCLUDED_NO_FORMED] += 1
            continue
        view = ego_view(g, ego)
        if view.candidates.size > cutoff:
            # over the two-hop cutoff: drop the ego whole
            return None, {**dict.fromkeys(EXCLUSIONS, 0),
                          EXCLUDED_OVER_CUTOFF: len(series) - 1}
        formed = _kernels.contains(ego_neighbors(nxt, ego), view.candidates)
        if forming is not None and not formed.any():
            excluded[EXCLUDED_NO_FORMED] += 1
            continue
        if view.candidates.size < max(min_cand, max_k):
            excluded[EXCLUDED_TOO_FEW] += 1
            continue

        for mode, scored in passes:
            table = score_candidates(g, ego, methods=scored, mode=mode,
                                     log_base=log_base, view=view)
            for m in scored:
                order = _ranking_order(table.scores(m), table.candidates)[:max_k]
                pair = (m, MODE_NONE if m == METHOD_CN else mode)
                for k, p in zip(ks, _precisions(formed[order], k_array).tolist()):
                    cells.setdefault((pair, k), []).append(p)
    return cells, excluded


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

    egos = sample_egos(series, sample_size, seed)
    # settled here, not in the workers, so no result depends on the worker count
    forming = (_forming_cells(series, egos, sym_pool=False).tolist() if require_formation
               else [None] * egos.size)
    payload = (series, methods, modes, ks, int(cutoff), int(min_candidates), log_base)
    results = map_in_order(_cell_worker, list(zip(egos.tolist(), forming)), payload,
                           workers=workers)
    per_ego = [cells for cells, _ in results]

    # every key of an ego holds one value per cell of that ego
    first = (pairs[0], ks[0])
    kept = [cells for cells in per_ego if cells]
    metadata = {
        "seed": int(seed),
        "sample_size": int(egos.size),
        "two_hop_cutoff": int(cutoff),
        "min_candidates": int(min_candidates),
        "require_formation": bool(require_formation),
        "n_egos_contributing": len(kept),
        "n_egos_skipped_cutoff": sum(1 for cells in per_ego if cells is None),
        "n_cells": sum(len(cells[first]) for cells in kept),
        "n_cells_excluded": {reason: sum(excluded[reason] for _, excluded in results)
                             for reason in EXCLUSIONS},
    }
    if not kept:
        raise EmptyResultError(
            "no (ego, transition) cell met the qualification rule",
            diagnostics=metadata,
        )

    pooled = pool_egos(per_ego)
    rows = [EvalRow(*pair, k, *pooled[(pair, k)][:2], metadata["n_cells"])
            for pair in pairs for k in ks]
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
