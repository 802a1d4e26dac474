"""Seeded synthetic graphs: uniform random, preferential attachment,
and planted-signal snapshot sequences.

Preferential attachment writes its edges into one preallocated (edges × 2)
array, whose flat view over the rows written so far is the degree pool.
Each arrival draws its ``n_attach`` targets in one call, the stream of as
many scalar calls, and one more scalar call per repeated target.

The planted generator seeds snapshot 0 uniformly at random, then for
each transition scores every ego's two-hop candidates with a chosen
method and forms ``ego -> v`` with probability
``rate * score(v) / max score``, capped at 1. It scores the egos in
runs (``ego.ego_blocks``, ``scorers.score_block``) and makes one
draw per run over the candidates of the egos whose best score is
positive, in ego order: the same stream as one draw per ego. Its output
carries snapshot indices in the time column (``time_mode == "index"``),
ready for ``build_snapshots(preassigned=True)``.

All node ids are the generator's own 0..n-1 layout (labels are the
decimal ids); edges come out time-sorted and deduplicated like any
normalized list.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import ego
from ._util import INT64_MAX, count, seeded_rng
from .ego import MODE_UNDIRECTED, validate_mode
from .errors import ConfigError, check_key
from .graph import (
    SnapshotGraph,
    TemporalEdgeList,
    TIME_MODE_INDEX,
    TIME_MODE_TIMESTAMP,
)
from .scorers import score_block, validate_methods

KIND_UNIFORM = "uniform-random"
KIND_PREFERENTIAL = "preferential-attachment"
KIND_PLANTED = "planted-scorer"

ALL_KINDS = (KIND_UNIFORM, KIND_PREFERENTIAL, KIND_PLANTED)

#: timestamps for the uniform generator span 90 days of seconds
DEFAULT_TIME_SPAN = 90 * 86_400

#: node pair keys ``src * n_nodes + dst`` are int64, as timestamps are
_MAX_NODES = math.isqrt(INT64_MAX)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n_nodes: int
    seed: int = 0
    directed: bool = False
    edge_prob: float = None  # uniform-random density / planted base density
    n_attach: int = None  # preferential-attachment edges per arrival
    method: str = None  # planted-scorer method name
    mode: str = None  # planted-scorer degree mode, undirected when None
    n_snapshots: int = None  # planted-scorer snapshot count
    formation_rate: float = 0.05  # planted-scorer per-ego rate scale
    time_span: int = DEFAULT_TIME_SPAN  # uniform-random timestamp window


def _assemble(n_nodes, src, dst, time, directed, time_mode):
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    order = np.argsort(time, kind="stable")
    return TemporalEdgeList(
        src=src[order], dst=dst[order], time=time[order],
        labels=tuple(str(i) for i in range(n_nodes)),
        directed=directed, time_mode=time_mode,
    )


def _uniform_structure(rng, n_nodes, edge_prob, directed):
    """One Bernoulli draw per candidate pair, row by row (a directed row
    is every other node, an undirected one the higher ids). The rows are
    drawn in runs (``ego._runs``), one ``rng.random`` call each, which
    yields the same stream as one call per row; each hit maps back to
    its (row, column) through the cumulative row sizes."""
    rows = np.arange(n_nodes, dtype=np.int64)
    sizes = np.full(n_nodes, n_nodes - 1, dtype=np.int64) if directed else n_nodes - 1 - rows
    ends = np.cumsum(sizes)
    src_parts = [np.empty(0, dtype=np.int64)]
    dst_parts = [np.empty(0, dtype=np.int64)]
    for start, stop in ego._runs(ends):
        before = int(ends[start - 1]) if start else 0
        total = int(ends[stop - 1]) - before
        if total == 0:
            continue
        hit = np.flatnonzero(rng.random(total) < edge_prob) + before
        src = np.searchsorted(ends, hit, side="right")
        col = hit - (ends[src] - sizes[src])
        # a directed row skips its own node; an undirected one starts past it
        src_parts.append(src)
        dst_parts.append(col + (col >= src) if directed else src + 1 + col)
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def uniform_random_edges(n_nodes, edge_prob, directed=False, seed=0,
                         time_span=DEFAULT_TIME_SPAN):
    """Independent edges with uniform random timestamps."""
    n_nodes = count("n_nodes", n_nodes, 1, _MAX_NODES)
    if not 0.0 <= float(edge_prob) <= 1.0:
        raise ConfigError(f"edge_prob: must be in [0, 1], got {edge_prob}")
    time_span = count("time_span", time_span, 1)
    rng = seeded_rng(seed)
    src, dst = _uniform_structure(rng, n_nodes, float(edge_prob), directed)
    time = rng.integers(0, time_span, size=src.size, dtype=np.int64)
    return _assemble(n_nodes, src, dst, time, directed, TIME_MODE_TIMESTAMP)


def preferential_attachment_edges(n_nodes, n_attach, directed=False, seed=0):
    """Arriving nodes attach to ``n_attach`` distinct targets drawn
    with probability proportional to current degree; timestamps are
    arrival steps. Directed edges point from the newcomer."""
    m = count("n_attach", n_attach, 1)
    # the seed clique on m + 1 nodes, and one arrival
    n_nodes = count("n_nodes", n_nodes, m + 2, _MAX_NODES)
    clique = m * (m + 1) // 2
    edges = np.empty((clique + (n_nodes - m - 1) * m, 2), dtype=np.int64)
    edges[:clique] = np.transpose(np.triu_indices(m + 1, 1))
    # arrival u writes its m rows (u, target) at time u
    time = np.zeros(len(edges), dtype=np.int64)
    time[clique:] = edges[clique:, 0] = np.arange(m + 1, n_nodes).repeat(m)
    # node repeated once per incident edge so far: degree-proportional draws
    pool = edges.reshape(-1)
    rng = seeded_rng(seed)
    for row in range(clique, len(edges), m):
        # m draws in one call take the stream of m scalar calls; a repeat
        # target takes one more scalar call
        targets = set(pool[rng.integers(0, 2 * row, size=m)].tolist())
        while len(targets) < m:
            targets.add(int(pool[rng.integers(0, 2 * row)]))
        edges[row:row + m, 1] = sorted(targets)
    return _assemble(n_nodes, edges[:, 0], edges[:, 1], time, directed, TIME_MODE_TIMESTAMP)


def planted_scorer_edges(n_nodes, edge_prob, method, n_snapshots=3, directed=False,
                         mode=MODE_UNDIRECTED, formation_rate=0.05, seed=0):
    """Snapshot sequence whose formations follow a scorer's rankings."""
    n_nodes = count("n_nodes", n_nodes, 3, _MAX_NODES)
    if not 0.0 <= float(edge_prob) <= 1.0:
        raise ConfigError(f"edge_prob: must be in [0, 1], got {edge_prob}")
    n_snapshots = count("n_snapshots", n_snapshots, 2)
    if not 0.0 < float(formation_rate) <= 1.0:
        raise ConfigError(f"formation_rate: must be in (0, 1], got {formation_rate}")
    (method,) = check_key("method", validate_methods, (method,))
    check_key("mode", validate_mode, mode, directed)

    rng = seeded_rng(seed)
    src, dst = _uniform_structure(rng, n_nodes, float(edge_prob), directed)
    sizes = [src.size]  # edges new in each snapshot

    rate = float(formation_rate)
    egos = np.arange(n_nodes, dtype=np.int64)
    for _ in range(n_snapshots - 1):
        g = SnapshotGraph(n_nodes, src, dst, directed)
        new_src = [np.empty(0, dtype=np.int64)]
        new_dst = [np.empty(0, dtype=np.int64)]
        for view in ego.ego_blocks(g, egos, (mode,)):
            scores = score_block(view, (method,), mode)[0][method]
            top = np.zeros(view.egos.size)
            np.maximum.at(top, view.cand_slot, scores)
            # the candidates of egos whose best score is above 0 draw, in ego order
            top = top[view.cand_slot]
            live = (top > 0.0).nonzero()[0]
            if not live.size:
                continue
            p = np.minimum(rate * scores[live] / top[live], 1.0)
            hit = live[(rng.random(p.size) < p).nonzero()[0]]
            new_src.append(view.egos[view.cand_slot[hit]])
            new_dst.append(view.candidates[hit])
        new_src, new_dst = np.concatenate(new_src), np.concatenate(new_dst)
        if not directed:
            # both endpoints may pick the same pair; the first pick stays
            lo, hi = np.minimum(new_src, new_dst), np.maximum(new_src, new_dst)
            first = np.sort(np.unique(lo * n_nodes + hi, return_index=True)[1])
            new_src, new_dst = lo[first], hi[first]
        src, dst = np.concatenate([src, new_src]), np.concatenate([dst, new_dst])
        sizes.append(new_src.size)
    time = np.arange(n_snapshots, dtype=np.int64).repeat(sizes)
    return _assemble(n_nodes, src, dst, time, directed, TIME_MODE_INDEX)


#: kind -> (spec keys it requires, spec keys it reads when given); of the
#: keys that default to None, a kind reads no others, which must stay None
_KIND_KEYS = {
    KIND_UNIFORM: (("edge_prob",), ()),
    KIND_PREFERENTIAL: (("n_attach",), ()),
    KIND_PLANTED: (("edge_prob", "method", "n_snapshots"), ("mode",)),
}


def generate(spec):
    """Dispatch a :class:`GeneratorSpec` to its generator."""
    if spec.kind not in _KIND_KEYS:
        raise ConfigError(f"kind: unknown generator kind {spec.kind!r}; choose from {ALL_KINDS}")
    required, optional = _KIND_KEYS[spec.kind]
    for key in (f.name for f in fields(GeneratorSpec) if f.default is None):
        given = getattr(spec, key) is not None
        if key in required and not given:
            raise ConfigError(f"{key}: required for {spec.kind}")
        if given and key not in required + optional:
            raise ConfigError(f"{key}: not used by generator kind {spec.kind!r}")
    if spec.kind == KIND_UNIFORM:
        return uniform_random_edges(
            spec.n_nodes, spec.edge_prob, directed=spec.directed, seed=spec.seed,
            time_span=spec.time_span,
        )
    if spec.kind == KIND_PREFERENTIAL:
        return preferential_attachment_edges(
            spec.n_nodes, spec.n_attach, directed=spec.directed, seed=spec.seed
        )
    return planted_scorer_edges(
        spec.n_nodes, spec.edge_prob, spec.method, n_snapshots=spec.n_snapshots,
        directed=spec.directed, mode=spec.mode or MODE_UNDIRECTED,
        formation_rate=spec.formation_rate, seed=spec.seed,
    )
