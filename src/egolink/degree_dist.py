"""Degree sampling and log-binned histograms.

Personalized-degree samples pool one value per (ego, neighbor) ordered
pair over every ego in the snapshot. On an undirected graph with every
node an ego they are read from the triangle supports of its edges
(``ego._support_pd``); a directed graph or a list of egos reads them from
gathers of pd alone over runs of egos (``ego.ego_blocks`` without
wedges), which read only the rows that the mode counts. Global samples
take one value per node, or per pair when asked to mirror the
personalized pooling.

Histograms use logarithmic bins with exact decade-fraction edges
``10 ** (k / bins_per_decade)``. Zero values cannot sit on a log axis,
so when any sample is 0 the whole sample set is shifted up by one
before binning and the ``shifted`` flag records it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._util import count
from .ego import (MODE_UNDIRECTED, _ego_ids, _support_pd, ego_blocks, global_degrees,
                  validate_mode)
from .errors import ConfigError, EmptyInputError
from .graph import _ArrayRecord

KIND_PERSONALIZED = "personalized"
KIND_GLOBAL = "global"

ALL_KINDS = (KIND_PERSONALIZED, KIND_GLOBAL)

DISTRIBUTION_HEADER = ("bin_low", "bin_high", "bin_center", "count", "density")


@dataclass(frozen=True, eq=False)
class DegreeSampleSet(_ArrayRecord):
    values: np.ndarray
    kind: str
    mode: str
    n_egos: int

    _ARRAYS = ("values",)

    @property
    def n_samples(self):
        return int(self.values.size)

    @property
    def shifted(self):
        """True when log-binning will need the +1 shift."""
        return bool((self.values == 0).any())


def _per_neighbor_samples(graph, egos, kind, mode):
    """One value per (ego, neighbor) pair over the egos (every node when
    None), in ego then neighbor order: the personalized degree, read from
    the triangle supports when every node of an undirected graph is an ego
    and else from pd-only ``ego_blocks`` over all the egos, or the global
    degree of the neighbor, read from one gather of their successor rows."""
    every_node = egos is None
    egos = np.arange(graph.n_nodes, dtype=np.int64) if every_node else _ego_ids(graph, egos)
    if kind == KIND_PERSONALIZED and every_node and not graph.directed:
        chunks = [_support_pd(graph)]
    elif kind == KIND_PERSONALIZED:
        chunks = [view.pd(mode) for view in ego_blocks(graph, egos, (mode,), wedges=False)]
    else:
        _, pos = _kernels.gather_rows(graph.out_indptr, egos)
        chunks = [global_degrees(graph, graph.out_indices[pos], mode)]
    values = np.concatenate([np.empty(0, dtype=np.int64)] + chunks)
    n_egos = int(np.count_nonzero(graph.out_degree[egos]))
    return DegreeSampleSet(values=values, kind=kind, mode=mode, n_egos=n_egos)


def personalized_degree_samples(graph, mode=MODE_UNDIRECTED, egos=None):
    """Personalized degree of every (ego, neighbor) ordered pair."""
    validate_mode(mode, graph.directed)
    return _per_neighbor_samples(graph, egos, KIND_PERSONALIZED, mode)


def global_degree_samples(graph, mode=MODE_UNDIRECTED, per_neighbor=False, egos=None):
    """Global degrees, one per node; with ``per_neighbor`` one per (ego,
    neighbor) pair of ``egos``, so the pooling matches the personalized set."""
    validate_mode(mode, graph.directed)
    if per_neighbor:
        return _per_neighbor_samples(graph, egos, KIND_GLOBAL, mode)
    if egos is not None:
        raise ConfigError("egos: only the per-neighbor global samples take egos")
    all_nodes = np.arange(graph.n_nodes, dtype=np.int64)
    values = global_degrees(graph, all_nodes, mode)
    return DegreeSampleSet(values=values, kind=KIND_GLOBAL, mode=mode, n_egos=0)


@dataclass(frozen=True, eq=False)
class BinnedDistribution(_ArrayRecord):
    """Log-binned histogram. ``density`` integrates to 1 over
    ``log10(value)``; counts sum to the sample count."""

    bin_low: np.ndarray
    bin_high: np.ndarray
    bin_center: np.ndarray
    count: np.ndarray
    density: np.ndarray
    bins_per_decade: int
    n_samples: int
    shifted: bool

    _ARRAYS = ("bin_low", "bin_high", "bin_center", "count", "density")

    @property
    def n_bins(self):
        return int(self.count.size)


def log_binned_histogram(samples, bins_per_decade=10):
    """Bin a sample set on exact log-spaced edges, shifting by +1 first
    when zeros are present. Degree samples are counts: a sample that is
    not a finite whole number >= 0 is a ConfigError naming the first."""
    bpd = count("bins_per_decade", bins_per_decade, 1)
    values = np.asarray(getattr(samples, "values", samples))
    if values.size == 0:
        raise EmptyInputError("no degree samples to bin")
    if values.dtype.kind not in "iu" or values.min() < 0:
        whole = values.dtype.kind in "iuf" and (
            (values >= 0) & (values < np.inf) & (np.trunc(values) == values))
        if not np.all(whole):
            first = values.reshape(-1)[np.argmin(whole)].item()
            raise ConfigError(f"degree samples must be whole numbers >= 0, got {first!r}")
    shifted = bool(values.min() == 0)
    pos = values.astype(np.float64) + (1.0 if shifted else 0.0)

    vmin = float(pos.min())
    vmax = float(pos.max())
    k_min = math.floor(bpd * math.log10(vmin))
    k_max = math.floor(bpd * math.log10(vmax))
    # float guards: the edge grid must bracket the data exactly
    while 10.0 ** (k_min / bpd) > vmin:
        k_min -= 1
    while 10.0 ** ((k_min + 1) / bpd) <= vmin:
        k_min += 1
    while 10.0 ** (k_max / bpd) > vmax:
        k_max -= 1
    while 10.0 ** ((k_max + 1) / bpd) <= vmax:
        k_max += 1

    exponents = np.arange(k_min, k_max + 2, dtype=np.float64) / bpd
    edges = 10.0 ** exponents
    idx = np.searchsorted(edges, pos, side="right") - 1
    per_bin = np.bincount(idx, minlength=edges.size - 1).astype(np.int64)
    width = 1.0 / bpd  # log10 width of every bin, exact by construction
    density = per_bin / (pos.size * width)
    centers = 10.0 ** ((np.arange(k_min, k_max + 1, dtype=np.float64) + 0.5) / bpd)
    return BinnedDistribution(
        bin_low=edges[:-1],
        bin_high=edges[1:],
        bin_center=centers,
        count=per_bin,
        density=density,
        bins_per_decade=bpd,
        n_samples=int(values.size),
        shifted=shifted,
    )


def distribution_metadata(dist, kind, mode):
    return {"kind": kind, "mode": mode, "shifted": "true" if dist.shifted else "false",
            "n_samples": dist.n_samples, "bins_per_decade": dist.bins_per_decade}


def distribution_rows(dist):
    return [
        (
            float(dist.bin_low[i]),
            float(dist.bin_high[i]),
            float(dist.bin_center[i]),
            int(dist.count[i]),
            float(dist.density[i]),
        )
        for i in range(dist.n_bins)
    ]

