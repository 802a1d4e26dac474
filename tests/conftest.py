"""Shared fixtures: small hand-built graphs plus seeded random builders."""

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from egolink._kernels import contains, gather_rows
from egolink.graph import SnapshotGraph, TemporalEdgeList, build_snapshots


def make_graph(pairs, n_nodes, directed=False):
    """SnapshotGraph straight from integer pairs, ids taken as given."""
    pairs = list(pairs)
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    return SnapshotGraph(n_nodes, src, dst, directed)


def push_wedges(indptr, indices, base, targets):
    """Position in ``base`` of ``z`` and in ``targets`` of ``v`` for every
    entry ``v`` of row(z), ``z`` in ``base``, that is in ``targets``; in
    ascending-z order, ready for ``accumulate_common_terms``."""
    slot, pos = gather_rows(indptr, base)
    values = indices[pos]
    hit = contains(targets, values)
    return slot[hit], np.searchsorted(targets, values[hit])


def make_series(snapshots, n_nodes, directed=False):
    """SnapshotSeries from cumulative edge-pair lists via preassigned times.

    ``snapshots[t]`` holds the edges that exist at snapshot ``t``; the time
    column records each edge's first snapshot.
    """
    first_seen = {}
    for t, pairs in enumerate(snapshots):
        for pair in pairs:
            first_seen.setdefault(tuple(pair), t)
    src = np.array([p[0] for p in first_seen], dtype=np.int64)
    dst = np.array([p[1] for p in first_seen], dtype=np.int64)
    time = np.array(list(first_seen.values()), dtype=np.int64)
    # pad labels so node ids pass through unchanged
    labels = tuple(str(i) for i in range(n_nodes))
    edges = TemporalEdgeList(src=src, dst=dst, time=time, labels=labels,
                             directed=directed, time_mode="index")
    return build_snapshots(edges, preassigned=True)


def random_pairs(rng, n_nodes, edge_prob, directed):
    pairs = []
    for u in range(n_nodes):
        for v in range(n_nodes) if directed else range(u + 1, n_nodes):
            if u != v and rng.random() < edge_prob:
                pairs.append((u, v))
    return pairs


def random_graph(seed, n_nodes, edge_prob, directed):
    rng = np.random.default_rng(seed)
    pairs = random_pairs(rng, n_nodes, edge_prob, directed)
    return make_graph(pairs, n_nodes, directed), pairs


def random_snapshots(seed, n_nodes, edge_prob, directed, n_snapshots, growth=0.3):
    """Cumulative pair lists: a base graph plus random per-snapshot additions."""
    rng = np.random.default_rng(seed)
    current = set(random_pairs(rng, n_nodes, edge_prob, directed))
    snapshots = [sorted(current)]
    for _ in range(n_snapshots - 1):
        fresh = random_pairs(rng, n_nodes, edge_prob * growth, directed)
        current |= {p for p in fresh if p not in current}
        snapshots.append(sorted(current))
    return snapshots


@st.composite
def growing_snapshots(draw, directed):
    """``(n_nodes, cumulative pair lists)``: two or three snapshots of up
    to 10 nodes, each adding at least one new link, for ``make_series``."""
    n = draw(st.integers(3, 10))
    node = st.integers(0, n - 1)
    link = st.tuples(node, node).filter(lambda p: p[0] != p[1])
    if not directed:
        link = link.map(lambda p: tuple(sorted(p)))
    snapshots = [sorted(set(draw(st.lists(link, min_size=1, max_size=30))))]
    for _ in range(draw(st.integers(1, 2))):
        fresh = set(draw(st.lists(link, min_size=1, max_size=12))) - set(snapshots[-1])
        assume(fresh)
        snapshots.append(sorted(set(snapshots[-1]) | fresh))
    return n, snapshots


TWO_BROKER_LABELS = (
    ["u", "z1", "z2"]
    + [f"w{i}" for i in range(1, 8)]
    + [f"x{i}" for i in range(1, 14)]
    + ["y1"]
)


def two_broker_pairs():
    """Two-common-neighbor contrast: z1 bridges to strangers, z2 to mutuals."""
    ids = {name: i for i, name in enumerate(TWO_BROKER_LABELS)}
    pairs = [(ids["u"], ids["z1"]), (ids["u"], ids["z2"])]
    for i in range(1, 8):
        pairs += [(ids["u"], ids[f"w{i}"]), (ids["z2"], ids[f"w{i}"])]
    for i in range(1, 14):
        pairs.append((ids["z1"], ids[f"x{i}"]))
    pairs.append((ids["z2"], ids["y1"]))
    return pairs, ids


@pytest.fixture(scope="session")
def two_broker_graph():
    pairs, ids = two_broker_pairs()
    return make_graph(pairs, len(TWO_BROKER_LABELS)), ids
