"""Output checks computed apart from the program.

Everything here works on plain Python sets, dicts and ``math.log``; it
imports nothing from ``egolink``. Each ``check_*`` function returns a list
of failure messages, empty when the output is correct, so the benchmark
can report every failure and the negative tests can feed in corrupted
outputs.
"""

import csv
import math
import statistics

TOL = 1e-9


# ---------------------------------------------------------------------------
# reading outputs


def read_table(path):
    """Rows of a CSV table as dicts, skipping ``#`` metadata lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_edge_rows(path):
    """(src, dst, time) integer triples of a ``normalized.csv``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        if next(fh).strip() != "src_id,dst_id,time":
            raise ValueError(f"{path}: not a normalized edge list")
        for line in fh:
            a, b, t = line.split(",")
            rows.append((int(a), int(b), int(t)))
    return rows


def read_raw_lines(path):
    """(src label, dst label, time) triples of a raw or normalized edge file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "src_id,dst_id,time":
                continue
            fields = [f.strip() for f in line.split(",")] if "," in line else line.split()
            rows.append((fields[0], fields[1], int(fields[2])))
    return rows


# ---------------------------------------------------------------------------
# reference normalization and snapshots


def reference_normalize(raw_rows, directed):
    """Self-loops dropped, pairs collapsed to their earliest time, rows
    ordered by (time, first occurrence of the pair), ids assigned in
    first-appearance order. Returns (rows of id triples, labels)."""
    pairs = {}
    for i, (a, b, t) in enumerate(raw_rows):
        if a == b:
            continue
        key = (a, b) if directed or a < b else (b, a)
        rec = pairs.get(key)
        if rec is None:
            pairs[key] = [t, i, a, b]
        elif t < rec[0]:
            rec[0] = t
    ordered = sorted(pairs.values(), key=lambda rec: (rec[0], rec[1]))
    ids = {}
    for _, _, a, b in ordered:
        for label in (a, b):
            if label not in ids:
                ids[label] = len(ids)
    rows = []
    for t, _, a, b in ordered:
        x, y = ids[a], ids[b]
        if not directed and x > y:
            x, y = y, x
        rows.append((x, y, t))
    return rows, list(ids)


def window_index(times, window_count=None):
    """Snapshot index of each time: equal-width windows over the time
    span, or the time itself when it already is a snapshot index."""
    if window_count is None:
        return list(times)
    lo, hi = min(times), max(times)
    width = -(-(hi - lo + 1) // window_count)
    return [(t - lo) // width for t in times]


def snapshot_counts(times, window_count=None):
    """(new edges, cumulative edges) per snapshot."""
    idx = window_index(times, window_count)
    n = (max(idx) + 1) if window_count is None else window_count
    new = [0] * n
    for i in idx:
        new[i] += 1
    total, acc = [], 0
    for c in new:
        acc += c
        total.append(acc)
    return new, total


class _Lazy:
    """Per-node sets made on first use."""

    def __init__(self, build):
        self._build = build
        self._cache = {}

    def __getitem__(self, u):
        if u not in self._cache:
            self._cache[u] = self._build(u)
        return self._cache[u]


class Adjacency:
    """Out-, in- and symmetrized neighbour sets of one snapshot.

    ``out_times[u]`` maps each successor of ``u`` to the snapshot its edge
    appears in (``in_times`` likewise for predecessors); only the edges of
    snapshots up to ``snapshot`` are kept.
    """

    def __init__(self, out_times, in_times, directed, snapshot):
        def upto(times):
            return lambda u: {v for v, s in times[u].items() if s <= snapshot}

        self.out = _Lazy(upto(out_times))
        if not directed:
            self.inn = self.sym = self.out
        else:
            self.inn = _Lazy(upto(in_times))
            self.sym = _Lazy(lambda u: self.out[u] | self.inn[u])

    def candidates(self, u, pool=None):
        pool = self.out[u] if pool is None else pool
        reach = set()
        for z in pool:
            reach |= self.sym[z]
        return reach - self.out[u] - pool - {u}

    def pd(self, u, z, mode):
        if mode == "out":
            return len(self.out[z] & self.out[u])
        if mode == "in":
            return len(self.inn[z] & self.out[u])
        return len(self.sym[z] & self.sym[u])

    def gd(self, z, mode):
        if mode == "out":
            return len(self.out[z])
        if mode == "in":
            return len(self.inn[z])
        return len(self.sym[z])


def snapshot_adjacencies(rows, n_nodes, directed, window_count=None):
    """Cumulative adjacency of every snapshot of a normalized edge list."""
    idx = window_index([t for _, _, t in rows], window_count)
    n = (max(idx) + 1) if window_count is None else window_count
    out_times = [{} for _ in range(n_nodes)]
    in_times = [{} for _ in range(n_nodes)] if directed else out_times
    for (a, b, _), s in zip(rows, idx):
        out_times[a][b] = s
        in_times[b][a] = s
    return [Adjacency(out_times, in_times, directed, s) for s in range(n)]


# ---------------------------------------------------------------------------
# reference scores, rankings and empirical cells


def term(adj, u, z, method, mode):
    pd = adj.pd(u, z, mode)
    gd = adj.gd(z, mode)
    shifted = mode in ("in", "out")
    if method == "cn":
        return 1.0
    if method == "aa":
        return 1.0 / math.log(gd + 2 if shifted else gd)
    if method == "pd-cn":
        return math.log(pd + 2)
    p = pd + 1
    g = gd + (2 if shifted else 1)
    return 1.0 / math.log(p * (g - p) / g + g * (g - p) / p)


def reference_scores(adj, u, method, mode):
    """Score of every two-hop candidate of ``u``, summed per common neighbour."""
    terms = {}
    scores = {}
    for v in adj.candidates(u):
        total = 0.0
        for z in adj.out[u] & adj.sym[v]:
            if z not in terms:
                terms[z] = term(adj, u, z, method, mode)
            total += terms[z]
        scores[v] = total
    return scores


def _group_means(adj, u, by_v, vs, mode):
    mg, mp = [], []
    for v in vs:
        zs = by_v[v]
        mg.append(statistics.fmean(math.log(adj.gd(z, mode) + 1) for z in zs))
        mp.append(statistics.fmean(math.log(adj.pd(u, z, mode) + 1) for z in zs))
    return statistics.fmean(mg), statistics.fmean(mp)


def _cell(adj, u, by_v, formed_next, modes):
    formed = set(by_v) & formed_next
    if not by_v or not formed or len(formed) == len(by_v):
        return None
    rest = set(by_v) - formed
    return {mode: {"formed": _group_means(adj, u, by_v, sorted(formed), mode),
                   "not-formed": _group_means(adj, u, by_v, sorted(rest), mode)}
            for mode in modes}


def reference_plain_cell(adj, adj_next, u, modes):
    """{mode: {group: (mean log global, mean log personalized)}} or None."""
    by_v = {v: adj.out[u] & adj.sym[v] for v in adj.candidates(u)}
    return _cell(adj, u, by_v, adj_next.out[u], modes)


def reference_triad_cells(adj, adj_next, u, modes):
    """{triad number 1..9: cell or None} for a directed ego."""
    succ, pred = adj.out[u], adj.inn[u]
    pools = (succ - pred, succ & pred, pred - succ)
    cells = {}
    for ego_cfg, pool in enumerate(pools):
        cands = adj.candidates(u, pool)
        for nb_cfg in range(3):
            by_v = {}
            for v in cands:
                zs = set()
                for z in pool:
                    fwd, back = v in adj.out[z], v in adj.inn[z]
                    cfg = 1 if fwd and back else 0 if fwd else 2 if back else None
                    if cfg == nb_cfg:
                        zs.add(z)
                if zs:
                    by_v[v] = zs
            cells[3 * ego_cfg + nb_cfg + 1] = _cell(adj, u, by_v, adj_next.out[u], modes)
    return cells


# ---------------------------------------------------------------------------
# checks


def check_generated(rows, directed, expect_edges=None, expect_pairs=None):
    """No self-loops or duplicate pairs; exact edge count where the
    generator fixes it; the same pairs as an input made from the same seed."""
    bad = []
    keys = set()
    for a, b, _ in rows:
        if a == b:
            bad.append(f"generate: self-loop {a}-{b}")
        key = (a, b) if directed else (min(a, b), max(a, b))
        if key in keys:
            bad.append(f"generate: duplicate pair {key}")
        keys.add(key)
    if expect_edges is not None and len(rows) != expect_edges:
        bad.append(f"generate: {len(rows)} edges, expected {expect_edges}")
    if expect_pairs is not None and keys != expect_pairs:
        bad.append(f"generate: {len(keys ^ expect_pairs)} pairs differ from the "
                   "benchmark's input made with the same seed")
    return bad[:20]


def pa_edge_count(n_nodes, n_attach):
    m = n_attach
    return m * (m + 1) // 2 + m * (n_nodes - m - 1)


def check_ingest(norm_rows, label_rows, want_rows, want_labels):
    bad = []
    if norm_rows != want_rows:
        n_diff = sum(1 for a, b in zip(norm_rows, want_rows) if a != b)
        bad.append(f"ingest: normalized.csv differs from the reference normalization "
                   f"({len(norm_rows)} vs {len(want_rows)} rows, {n_diff} differ)")
    labels = [label for _, label in sorted((int(r["node_id"]), r["label"])
                                           for r in label_rows)]
    if labels != want_labels:
        bad.append(f"ingest: label_map.csv differs from first-appearance ids "
                   f"({len(labels)} vs {len(want_labels)} labels)")
    return bad


def check_snapshots(snap_rows, want_new, want_total):
    got_new = [int(r["new_edges"]) for r in snap_rows]
    got_total = [int(r["total_edges"]) for r in snap_rows]
    bad = []
    if got_new != want_new:
        bad.append(f"snapshots: new edges per window {got_new}, expected {want_new}")
    if got_total != want_total:
        bad.append(f"snapshots: total edges {got_total}, expected {want_total}")
    return bad


def check_degree_dist(dd_rows, n_pairs):
    total = sum(int(r["count"]) for r in dd_rows)
    if total != n_pairs:
        return [f"degree-dist: counts sum to {total}, expected {n_pairs} "
                "(ego, neighbour) pairs"]
    return []


def check_empirical(emp_rows, planted):
    """pd(z) <= deg(z) in every (triad, mode, group); on the planted
    fixture the formed group's personalized mean leads by >= 2 SE."""
    bad = []
    by_key = {}
    for r in emp_rows:
        by_key[(r["triad"], r["mode"], r["group"], r["degree_kind"])] = r
    if not by_key:
        bad.append("empirical: no rows")
    for (triad, mode, group, kind), r in by_key.items():
        if kind != "personalized":
            continue
        glob = by_key.get((triad, mode, group, "global"))
        if glob is None:
            bad.append(f"empirical: no global row for {triad or '-'} {mode} {group}")
        elif float(r["mean"]) > float(glob["mean"]) + TOL:
            bad.append(f"empirical: mean log pd {r['mean']} exceeds mean log degree "
                       f"{glob['mean']} in {triad or '-'} {mode} {group}")
    if planted:
        f = by_key.get(("", "undirected", "formed", "personalized"))
        nf = by_key.get(("", "undirected", "not-formed", "personalized"))
        if f is None or nf is None:
            bad.append("empirical: planted fixture lacks the personalized rows")
        else:
            gap = float(f["mean"]) - float(nf["mean"])
            se = math.hypot(float(f["stderr"]), float(nf["stderr"]))
            if gap < 2.0 * se:
                bad.append(f"empirical: formed lead {gap:.4g} is below 2 combined "
                           f"standard errors ({2 * se:.4g})")
    return bad


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_evaluate(eval_rows, imp_rows, planted):
    """P@K in [0, 1]; improvement = 100 (p - p_cn) / p_cn; on the planted
    fixture pd-cn's P@10 is not below cn's by more than 2 combined standard
    errors. (pd-cn's strict lead at P@10 holds on all 1000 egos, but on 300
    sampled egos it is within sampling noise and some seeds reverse it.)"""
    bad = []
    p, se = {}, {}
    for r in eval_rows:
        v = float(r["mean_p_at_k"])
        p[(r["method"], r["mode"], int(r["k"]))] = v
        se[(r["method"], r["mode"], int(r["k"]))] = float(r["stderr"])
        if not 0.0 <= v <= 1.0:
            bad.append(f"evaluate: P@{r['k']} of {r['method']}/{r['mode']} is {v}")
    base = {k: v for (m, _, k), v in p.items() if m == "cn"}
    if not base:
        bad.append("evaluate: no cn rows")
    seen = set()
    for r in imp_rows:
        key = (r["method"], r["mode"], int(r["k"]))
        seen.add(key)
        if key not in p or key[2] not in base:
            bad.append(f"evaluate: improvement row {key} has no P@K row")
            continue
        b = base[key[2]]
        want = float("nan") if b == 0.0 else 100.0 * (p[key] - b) / b
        if not _close(float(r["pct_improvement_vs_base"]), want):
            bad.append(f"evaluate: improvement {r['pct_improvement_vs_base']} for {key}, "
                       f"expected {want}")
    if imp_rows and seen != set(p):
        bad.append("evaluate: improvement rows do not cover every P@K row")
    if planted:
        cn, pdcn = se.get(("cn", "none", 10)), se.get(("pd-cn", "undirected", 10))
        if cn is None or pdcn is None:
            bad.append("evaluate: planted fixture lacks the P@10 rows of cn and pd-cn")
        elif p[("pd-cn", "undirected", 10)] - p[("cn", "none", 10)] < -2.0 * math.hypot(cn, pdcn):
            bad.append(f"evaluate: pd-cn P@10 {p[('pd-cn', 'undirected', 10)]} falls more "
                       f"than 2 combined standard errors below cn {p[('cn', 'none', 10)]}")
    return bad


def check_ranking(ego, got_top, got_scores, want_scores, k):
    """The program's top-k against reference scores: every listed score
    matches, the list is sorted by score then id, and nothing left out
    scores higher than the last listed candidate."""
    bad = []
    want_top = sorted(want_scores, key=lambda v: (-want_scores[v], v))[:k]
    if len(got_top) != len(want_top):
        return [f"recommend: ego {ego} lists {len(got_top)} candidates, "
                f"expected {len(want_top)}"]
    for v, s in zip(got_top, got_scores):
        if v not in want_scores:
            bad.append(f"recommend: ego {ego} lists non-candidate {v}")
        elif not _close(s, want_scores[v]):
            bad.append(f"recommend: ego {ego} scores {v} as {s}, expected {want_scores[v]}")
    if bad:
        return bad
    for (v1, s1), (v2, s2) in zip(zip(got_top, got_scores), zip(got_top[1:], got_scores[1:])):
        if s2 > s1 or (s1 == s2 and v2 < v1):
            bad.append(f"recommend: ego {ego} ranks {v1} ({s1}) above {v2} ({s2})")
    if got_top:
        listed = set(got_top)
        last = want_scores[got_top[-1]]
        for v in want_top:
            if v not in listed and want_scores[v] > last + TOL * max(1.0, abs(last)):
                bad.append(f"recommend: ego {ego} leaves out {v} scoring {want_scores[v]}")
    return bad


def check_cell(where, got, want):
    """One empirical cell: None on both sides, or equal group means."""
    if (got is None) != (want is None):
        return [f"{where}: program {'excludes' if got is None else 'keeps'} a cell "
                f"the reference {'keeps' if got is None else 'excludes'}"]
    if got is None:
        return []
    bad = []
    for mode, groups in want.items():
        for group, (mg, mp) in groups.items():
            gg, gp = got[mode][group]
            if not (_close(gg, mg) and _close(gp, mp)):
                bad.append(f"{where} {mode} {group}: ({gg}, {gp}), expected ({mg}, {mp})")
    return bad
