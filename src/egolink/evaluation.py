"""Ranking candidates and measuring top-K hit rates against the next
snapshot.

A cell is one (ego, transition) pair. By default a cell qualifies when
the ego has at least ``max(ks)`` candidates and at least one next-
snapshot formation; the identical cell set feeds every method, so
method columns are directly comparable. Cells average per ego first,
egos average into the grand mean, and the spread across egos gives the
standard error. Egos whose candidate set ever exceeds the two-hop
cutoff are dropped whole and reported.
"""

from dataclasses import dataclass

import numpy as np

from ._parallel import map_in_order
from ._util import mean_and_stderr
from .ego import (
    MODE_UNDIRECTED,
    default_degree_modes,
    ego_neighbors,
    ego_view,
    sample_egos,
    validate_mode,
)
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


def rank_candidates(table, method=None):
    """Deterministic ranking of a ScoreTable column."""
    if method is None:
        if len(table.columns) != 1:
            raise ConfigError("table has several methods; name one")
        method = next(iter(table.columns))
    scores = table.scores(method)
    order = np.lexsort((table.candidates, -scores))
    return RankedList(
        ego=table.ego, method=method, mode=table.mode, ranking=table.candidates[order]
    )


def precision_at_k(ranked, formed, k):
    """Fraction of the top ``k`` that actually formed."""
    ranking = ranked.ranking if isinstance(ranked, RankedList) else np.asarray(ranked)
    k = int(k)
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if k > ranking.size:
        raise PreconditionError(f"k={k} exceeds the {ranking.size} ranked candidates")
    formed = np.asarray(sorted(formed), dtype=np.int64)
    hits = np.isin(ranking[:k], formed, assume_unique=True).sum()
    return float(hits) / k


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


def _cell_worker(payload, ego):
    series, pairs, ks, cutoff, min_cand, require_formation, log_base = payload
    max_k = max(ks)
    # one scoring pass per degree mode; the mode-free cn column rides on
    # the first mode's table, or is scored alone when it is the only method
    modes = list(dict.fromkeys(mode for _, mode in pairs if mode != MODE_NONE))
    modes = modes or [MODE_UNDIRECTED]
    wanted = {
        mode: tuple(m for m, md in pairs
                    if md == mode or (md == MODE_NONE and mode == modes[0]))
        for mode in modes
    }

    cell_values = {pair: {k: [] for k in ks} for pair in pairs}
    n_cells = 0
    for t in range(len(series) - 1):
        g = series[t]
        view = ego_view(g, ego)
        if view.candidates.size > cutoff:
            return ego, None  # over the two-hop cutoff: drop the ego whole
        if view.candidates.size < max(min_cand, max_k):
            continue
        nxt = ego_neighbors(series[t + 1], ego)
        formed = view.candidates[np.isin(view.candidates, nxt, assume_unique=True)]
        if require_formation and formed.size == 0:
            continue
        n_cells += 1

        tables = {
            mode: score_candidates(
                g, ego, methods=wanted[mode], mode=mode, log_base=log_base, view=view
            )
            for mode in modes
        }
        for m, mode in pairs:
            ranked = rank_candidates(tables[modes[0] if mode == MODE_NONE else mode], m)
            for k in ks:
                cell_values[(m, mode)][k].append(precision_at_k(ranked, formed, k))

    if n_cells == 0:
        return ego, (0, {})
    means = {
        (pair, k): float(np.mean(vals))
        for pair, by_k in cell_values.items()
        for k, vals in by_k.items()
    }
    return ego, (n_cells, means)


def evaluate_methods(series, methods=ALL_METHODS, modes=None, ks=DEFAULT_KS,
                     sample_size=None, seed=0, cutoff=DEFAULT_CUTOFF,
                     min_candidates=0, require_formation=True, workers=1,
                     log_base=None):
    """Mean P@K per (method, degree mode, K) over a shared cell set."""
    if len(series) < 2:
        raise ConfigError("evaluation needs at least 2 snapshots")
    methods = validate_methods(methods)
    ks = validate_ks(ks)
    if modes is None:
        modes = default_degree_modes(series.directed)
    modes = tuple(modes)
    for m in modes:
        validate_mode(m, series.directed)
    pairs = method_mode_pairs(methods, modes)

    egos = sample_egos(series, sample_size, seed)
    payload = (series, pairs, ks, int(cutoff), int(min_candidates),
               bool(require_formation), log_base)
    results = map_in_order(_cell_worker, [int(u) for u in egos], payload, workers=workers)

    skipped_cutoff = 0
    total_cells = 0
    per_pair_k = {(pair, k): [] for pair in pairs for k in ks}
    contributing = 0
    for ego, res in results:
        if res is None:
            skipped_cutoff += 1
            continue
        n_cells, means = res
        if n_cells == 0:
            continue
        contributing += 1
        total_cells += n_cells
        for key, v in means.items():
            per_pair_k[key].append(v)

    metadata = {
        "seed": int(seed),
        "sample_size": int(egos.size),
        "two_hop_cutoff": int(cutoff),
        "min_candidates": int(min_candidates),
        "require_formation": bool(require_formation),
        "n_egos_contributing": contributing,
        "n_egos_skipped_cutoff": skipped_cutoff,
        "n_cells": total_cells,
    }
    if contributing == 0:
        raise EmptyResultError(
            "no (ego, transition) cell met the qualification rule",
            diagnostics=metadata,
        )

    rows = []
    for pair in pairs:
        for k in ks:
            mean, stderr = mean_and_stderr(per_pair_k[(pair, k)])
            rows.append(
                EvalRow(
                    method=pair[0], mode=pair[1], k=k,
                    mean_p_at_k=mean, stderr=stderr, n_cells=total_cells,
                )
            )
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
