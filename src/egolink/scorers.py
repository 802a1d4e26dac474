"""Candidate scorers for one ego: common neighbors, degree-damped
common neighbors, and their personalized-degree variants.

There is one scoring path: ``score_block`` scores every candidate of an
``ego.EgoView``, the gather of one ego or of a run of egos, in one pass
over its wedges; ``score_candidates`` is its table for one ego, and a
single pair's score is that candidate's entry in the table. All four
scores decompose over the common neighbors ``z`` of the pair
``(ego, v)``:

* ``cn``     counts them,
* ``aa``     adds ``1 / log(effective global degree of z)``,
* ``pd-cn``  adds ``log(pd(z) + 2)``,
* ``pd-aa``  adds ``1 / log(P*(G-P)/G + G*(G-P)/P)`` with
  ``P = pd(z) + 1`` and ``G`` the shifted global degree.

Shifts keep every logarithm positive: in/out modes use ``gd + 2``
where mode ``undirected`` uses the raw (``aa``) or ``+1`` (``pd-aa``)
symmetrized degree. On directed graphs, mode ``undirected`` computes
degrees on the reciprocated graph while candidate and common-neighbor
enumeration stay directed. Scores are in natural logs until
``score_candidates`` applies another base: one positive constant per
method, so rankings never depend on it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ego import MODE_IN, MODE_OUT, MODE_UNDIRECTED, ego_view, validate_mode
from .errors import ConfigError, PreconditionError

METHOD_CN = "cn"
METHOD_AA = "aa"
METHOD_PD_CN = "pd-cn"
METHOD_PD_AA = "pd-aa"

ALL_METHODS = (METHOD_CN, METHOD_AA, METHOD_PD_CN, METHOD_PD_AA)

#: mode value reported for methods that never read a degree
MODE_NONE = "none"


def _ln_base(log_base):
    if log_base is None:
        return 1.0
    number = isinstance(log_base, (int, float, np.integer, np.floating))
    if isinstance(log_base, bool) or not (number and log_base < math.inf):
        raise ConfigError(f"log_base: must be a finite number, got {log_base!r}")
    if not log_base > 1:
        raise ConfigError(f"log_base: must be > 1, got {log_base!r}")
    return math.log(log_base)


def _aa_terms(pd, gd, mode):
    if mode in (MODE_IN, MODE_OUT):
        # in/out degrees can be 0 or 1; the +2 shift keeps log positive
        return 1.0 / np.log(gd.astype(np.float64) + 2.0)
    eff = gd.astype(np.float64)
    terms = np.zeros(eff.size, dtype=np.float64)
    ok = eff >= 2.0
    # degree-1 neighbors are leaves hanging off the ego; they can never
    # co-occur with a candidate, so their zeroed term is never read
    terms[ok] = 1.0 / np.log(eff[ok])
    return terms


def _pd_cn_terms(pd, gd, mode):
    terms = np.log(pd.astype(np.float64) + 2.0)
    if terms.size and not terms.min() > 0.0:
        raise PreconditionError("pd-cn terms need personalized degrees >= 0")
    return terms


def _pd_aa_terms(pd, gd, mode):
    p = pd.astype(np.float64) + 1.0
    g = gd.astype(np.float64) + (2.0 if mode in (MODE_IN, MODE_OUT) else 1.0)
    # p < g holds for every neighbor of the ego under these shifts
    bracket = p * (g - p) / g + g * (g - p) / p
    if bracket.size and not bracket.min() > 1.0:
        raise PreconditionError(
            "pd-aa terms need each personalized degree below its global degree"
        )
    return 1.0 / np.log(bracket)


_TERM_BUILDERS = {
    METHOD_AA: _aa_terms,
    METHOD_PD_CN: _pd_cn_terms,
    METHOD_PD_AA: _pd_aa_terms,
}


def _rescale(method, total, ln_base):
    """Convert a natural-log score to another base as one multiplication,
    so changing the base can never reorder candidates."""
    if method == METHOD_PD_CN:
        return total / ln_base
    return total * ln_base


def validate_methods(methods):
    methods = tuple(methods)
    if not methods:
        raise ConfigError("need at least one scoring method")
    for m in methods:
        if m not in ALL_METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {ALL_METHODS}")
    if len(set(methods)) != len(methods):
        raise ConfigError(f"duplicate methods in {methods}")
    return methods


@dataclass(frozen=True)
class ScoreTable:
    """Scores for every two-hop candidate of one ego, one column per
    method. Candidates are sorted by node id, with their scores."""

    ego: int
    mode: str
    candidates: np.ndarray
    columns: dict
    cn_counts: np.ndarray

    def __post_init__(self):
        # ranking ties and score lookups read ascending ids: sort any others
        if (self.candidates[1:] < self.candidates[:-1]).any():
            order = np.argsort(self.candidates, kind="stable")
            object.__setattr__(self, "candidates", self.candidates[order])
            object.__setattr__(self, "columns", {m: c[order] for m, c in self.columns.items()})
            object.__setattr__(self, "cn_counts", self.cn_counts[order])

    @property
    def methods(self):
        return tuple(self.columns)

    def scores(self, method):
        return self.columns[method]


def score_block(view, methods=ALL_METHODS, mode=MODE_UNDIRECTED):
    """Natural-log score columns (keyed by method) and common-neighbor
    counts of every candidate of an ``ego.EgoView``, aligned with
    ``view.candidates``."""
    methods = validate_methods(methods)
    validate_mode(mode, view.graph.directed)
    term_methods = [m for m in methods if m != METHOD_CN]
    terms = np.empty((view.base.size, len(term_methods)))
    if term_methods:
        pd, gd = view.pd(mode), view.gd(mode)
        for i, m in enumerate(term_methods):
            terms[:, i] = _TERM_BUILDERS[m](pd, gd, mode)
    sums, counts = view.accumulate(terms)
    columns = {m: counts.astype(np.float64) if m == METHOD_CN else sums[:, term_methods.index(m)]
               for m in methods}
    return columns, counts


def score_candidates(graph, ego, methods=ALL_METHODS, mode=MODE_UNDIRECTED,
                     log_base=None, view=None):
    """Score all two-hop candidates of ``ego`` in one fused pass over its view, in
    log base ``log_base`` (default e); methods, mode and base are checked first."""
    methods = validate_methods(methods)
    validate_mode(mode, graph.directed)
    ln_base = _ln_base(log_base)
    if view is None:
        view = ego_view(graph, ego)
    elif view.ego != ego or view.graph is not graph:
        raise PreconditionError(
            f"the view of ego {view.ego} does not belong to ego {ego} on this graph")
    columns, counts = score_block(view, methods, mode)
    return ScoreTable(
        ego=int(ego),
        mode=mode,
        candidates=view.candidates,
        columns={m: col if m == METHOD_CN else _rescale(m, col, ln_base)
                 for m, col in columns.items()},
        cn_counts=counts,
    )
