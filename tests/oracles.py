"""Reference implementations used to pin expected values in tests.

Everything here works on plain adjacency sets built straight from edge
pairs and deliberately shares no code with the package internals: scores
are per-neighbor loops over ``math.log``, statistics use the ``statistics``
module.  Tests treat these as ground truth.
"""

import math
import statistics

import numpy as np


def adjacency(n_nodes, pairs, directed):
    """Out-, in-, and symmetrized-neighbor sets for every node."""
    out = {u: set() for u in range(n_nodes)}
    inn = {u: set() for u in range(n_nodes)}
    for a, b in pairs:
        if a == b:
            continue
        out[a].add(b)
        inn[b].add(a)
        if not directed:
            out[b].add(a)
            inn[a].add(b)
    sym = {u: out[u] | inn[u] for u in range(n_nodes)}
    return out, inn, sym


def link_config(out, inn, v, z):
    """Config of the v-z link read from v, as ``ego.EdgeConfig`` numbers
    it: 0 for v -> z only, 1 reciprocal, 2 for z -> v only."""
    return 1 + (z in inn[v]) - (z in out[v])


def normalize(rows, directed):
    """``(labels, [(src_id, dst_id, time)])`` for raw ``(src, dst, time)``
    label rows, one row at a time: self-loops dropped; each pair (unordered
    unless directed) kept once, at its earliest time, in the orientation it
    was first written; rows ordered by time, first occurrence breaking ties;
    ids by first appearance in that order; undirected rows low id first."""
    kept = {}
    for order, (s, d, t) in enumerate(rows):
        if s == d:
            continue
        key = (s, d) if directed else frozenset((s, d))
        if key in kept:
            kept[key][0] = min(kept[key][0], t)
        else:
            kept[key] = [t, order, s, d]
    ids = {}
    out = []
    for t, _, s, d in sorted(kept.values(), key=lambda row: (row[0], row[1])):
        a = ids.setdefault(s, len(ids))
        b = ids.setdefault(d, len(ids))
        out.append((a, b, t) if directed or a < b else (b, a, t))
    return tuple(sorted(ids, key=ids.get)), out


def preferential_attachment(n_nodes, m, seed):
    """``(src, dst, time)`` lists of preferential attachment as one Python
    draw per target from a list ``pool`` of edge endpoints: the seed clique
    on nodes 0..m, then each arrival u joined to m distinct targets."""
    rng = np.random.default_rng(seed)
    src = []
    dst = []
    time = []
    pool = []  # node repeated once per incident edge: degree-proportional draws
    # seed clique on the first m+1 nodes so every draw has m valid targets
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            src.append(a)
            dst.append(b)
            time.append(0)
            pool.extend((a, b))
    for u in range(m + 1, n_nodes):
        targets = set()
        while len(targets) < m:
            targets.add(pool[int(rng.integers(0, len(pool)))])
        for v in sorted(targets):
            src.append(u)
            dst.append(v)
            time.append(u)
            pool.extend((u, v))
    return src, dst, time


def candidates(out, sym, u):
    reach = set()
    for z in out[u]:
        reach |= sym[z]
    return reach - out[u] - {u}


def common(out, sym, u, v):
    return out[u] & sym[v]


def pdeg(out, inn, sym, u, z, mode):
    if mode == "out":
        return len(out[z] & out[u])
    if mode == "in":
        return len(inn[z] & out[u])
    return len(sym[z] & sym[u])


def gdeg(out, inn, sym, z, mode):
    if mode == "out":
        return len(out[z])
    if mode == "in":
        return len(inn[z])
    return len(sym[z])


def score(out, inn, sym, u, v, method, mode="undirected", base=math.e):
    """Per-common-neighbor loop form of every scoring method."""
    zs = common(out, sym, u, v)
    if method == "cn":
        return float(len(zs))
    total = 0.0
    for z in zs:
        pd = pdeg(out, inn, sym, u, z, mode)
        gd = gdeg(out, inn, sym, z, mode)
        if method == "aa":
            eff = gd + 2 if mode in ("in", "out") else gd
            total += 1.0 / math.log(eff, base)
        elif method == "pd-cn":
            total += math.log(pd + 2, base)
        elif method == "pd-aa":
            p = pd + 1
            g = gd + (2 if mode in ("in", "out") else 1)
            bracket = p * (g - p) / g + g * (g - p) / p
            total += 1.0 / math.log(bracket, base)
        else:
            raise ValueError(method)
    return total


def ranking(out, inn, sym, u, method, mode="undirected", base=math.e):
    cands = candidates(out, sym, u)
    scored = {v: score(out, inn, sym, u, v, method, mode, base) for v in cands}
    return sorted(cands, key=lambda v: (-scored[v], v))


def mean_stderr(values):
    n = len(values)
    mean = statistics.fmean(values)
    if n == 1:
        return mean, 0.0
    return mean, statistics.stdev(values) / math.sqrt(n)


def _group_stats(out, inn, sym, u, vs, mode):
    """Candidate-averaged mean logs of shifted global and personalized degree."""
    per_v_g, per_v_p = [], []
    for v in vs:
        zs = common(out, sym, u, v)
        per_v_g.append(statistics.fmean(
            math.log(gdeg(out, inn, sym, z, mode) + 1) for z in zs))
        per_v_p.append(statistics.fmean(
            math.log(pdeg(out, inn, sym, u, z, mode) + 1) for z in zs))
    return statistics.fmean(per_v_g), statistics.fmean(per_v_p)


def empirical_cell(n_nodes, pairs_t, pairs_next, directed, ego, modes):
    """Plain (no-triad) cell stats, or None when the cell is excluded."""
    out, inn, sym = adjacency(n_nodes, pairs_t, directed)
    nout, _, _ = adjacency(n_nodes, pairs_next, directed)
    cands = candidates(out, sym, ego)
    formed = cands & nout[ego]
    if not cands or not formed or formed == cands:
        return None
    cell = {}
    for mode in modes:
        cell[mode] = {
            "formed": _group_stats(out, inn, sym, ego, sorted(formed), mode),
            "not-formed": _group_stats(out, inn, sym, ego, sorted(cands - formed), mode),
        }
    return cell


def triad_pools(out, inn, sym, u):
    """Per ego-edge config (numbered as ``link_config``): the pool of the
    ego ``u``, its neighbors z whose link read from ``u`` has that config,
    and the pool's candidates, the nodes linked to some z, minus the ego,
    its successors and the pool."""
    succ, pred = out[u], inn[u]
    pools = {0: succ - pred, 1: succ & pred, 2: pred - succ}
    result = {}
    for ecfg, pool in pools.items():
        reach = set()
        for z in pool:
            reach |= sym[z]
        result[ecfg] = pool, reach - succ - pool - {u}
    return result


def triad_cells(n_nodes, pairs_t, pairs_next, ego, modes, excluded=None):
    """Per-triad cell stats keyed by triad number 1..9; unusable cells are
    None, each counted in ``excluded`` (when given) under its reason: all
    of its candidates formed, or none did (an empty candidate set too)."""
    out, inn, sym = adjacency(n_nodes, pairs_t, True)
    nout, _, _ = adjacency(n_nodes, pairs_next, True)
    cells = {}
    for ecfg, (pool, cand) in triad_pools(out, inn, sym, ego).items():
        for ncfg in (0, 1, 2):
            triad = 3 * ecfg + ncfg + 1
            by_v = {}
            for v in sorted(cand):
                zs = set()
                for z in pool:
                    fwd, back = v in out[z], v in inn[z]
                    cfg = 1 if (fwd and back) else (0 if fwd else (2 if back else None))
                    if cfg == ncfg:
                        zs.add(z)
                if zs:
                    by_v[v] = zs
            formed = set(by_v) & nout[ego]
            if not by_v or not formed or formed == set(by_v):
                if excluded is not None:
                    excluded["all_formed" if formed else "no_formed_candidate"] += 1
                cells[triad] = None
                continue
            cell = {}
            for mode in modes:
                groups = {}
                for name, vs in (("formed", sorted(formed)),
                                 ("not-formed", sorted(set(by_v) - formed))):
                    per_v_g, per_v_p = [], []
                    for v in vs:
                        per_v_g.append(statistics.fmean(
                            math.log(gdeg(out, inn, sym, z, mode) + 1)
                            for z in by_v[v]))
                        per_v_p.append(statistics.fmean(
                            math.log(pdeg(out, inn, sym, ego, z, mode) + 1)
                            for z in by_v[v]))
                    groups[name] = (statistics.fmean(per_v_g),
                                    statistics.fmean(per_v_p))
                cell[mode] = groups
            cells[triad] = cell
    return cells


def empirical_aggregate(n_nodes, snapshots, directed, per_triad, modes):
    """Ego-then-transition aggregation matching the pipeline's nesting.

    ``snapshots`` is a list of cumulative edge-pair lists.  Returns
    ``{(triad_or_None, mode, group, kind): (mean, stderr, n_egos)}`` with
    kind in ``global`` / ``personalized``.
    """
    keys = list(range(1, 10)) if per_triad else [None]
    per_ego = {}
    for ego in range(n_nodes):
        acc = {}
        for t in range(len(snapshots) - 1):
            if per_triad:
                cells = triad_cells(n_nodes, snapshots[t], snapshots[t + 1],
                                    ego, modes)
            else:
                cells = {None: empirical_cell(n_nodes, snapshots[t],
                                              snapshots[t + 1], directed,
                                              ego, modes)}
            for key, cell in cells.items():
                if cell is not None:
                    acc.setdefault(key, []).append(cell)
        for key, cell_list in acc.items():
            for mode in modes:
                for group in ("formed", "not-formed"):
                    g_vals = [c[mode][group][0] for c in cell_list]
                    p_vals = [c[mode][group][1] for c in cell_list]
                    per_ego.setdefault((key, mode, group, "global"),
                                       []).append(statistics.fmean(g_vals))
                    per_ego.setdefault((key, mode, group, "personalized"),
                                       []).append(statistics.fmean(p_vals))
    result = {}
    for key, values in per_ego.items():
        mean, se = mean_stderr(values)
        result[key] = (mean, se, len(values))
    return result


def precision(ranked, formed, k):
    return sum(1 for v in ranked[:k] if v in formed) / k


def log_bin_index(value, bins_per_decade):
    """Bin index by exact log, adjusted at representation boundaries."""
    k = math.floor(bins_per_decade * math.log10(value))
    while 10.0 ** (k / bins_per_decade) > value:
        k -= 1
    while 10.0 ** ((k + 1) / bins_per_decade) <= value:
        k += 1
    return k
