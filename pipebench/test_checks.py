"""Negative tests of the benchmark's output checks.

Each test feeds a check a corrupted output and shows that it fails; the
uncorrupted outputs come from real smoke-size runs of the program and
pass. Run from the root of a checkout:

    python3 -m pytest -q pipebench/test_checks.py
"""

import copy
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.import_program()


def _smoke(name):
    workdir = os.path.join(run.RUNS, f"test-{name}-{os.getpid()}")
    plan = workloads.plan(name, 0, "smoke", workdir)
    made = workloads.prepare_inputs(plan)
    _, _, _, failed, kept, series, _ = run.run_round(plan, None, run.CHECK_EGOS)
    assert failed == 0
    return plan, made, kept, series


@pytest.fixture(scope="module")
def hub():
    out = _smoke("hub-raw")
    yield out
    shutil.rmtree(out[0].workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def triad():
    out = _smoke("triad-directed")
    yield out
    shutil.rmtree(out[0].workdir, ignore_errors=True)


def _path(plan, stage, name):
    return os.path.join(plan.out(stage), name)


def test_real_outputs_pass_every_check(hub, triad):
    assert run.check_outputs(*hub) == []
    assert run.check_outputs(*triad) == []


def test_generate_check_catches_self_loop_duplicate_and_lost_edge(hub):
    plan, made, _, _ = hub
    rows = checks.read_edge_rows(_path(plan, "generate", "normalized.csv"))
    p = plan.params
    n_edges = checks.pa_edge_count(p["n_nodes"], p["n_attach"])
    assert checks.check_generated(rows, False, n_edges) == []
    assert checks.check_generated(rows + [(3, 3, 9)], False)
    assert checks.check_generated(rows + [(rows[0][1], rows[0][0], 9)], False)
    assert checks.check_generated(rows[1:], False, n_edges)
    pairs = {(min(a, b), max(a, b)) for a, b, _ in rows}
    assert checks.check_generated(rows, False, None, pairs) == []
    assert checks.check_generated(rows[1:] + [(0, 10**6, 0)], False, None, pairs)


def test_ingest_check_catches_dropped_edge_retimed_edge_and_swapped_labels(hub):
    plan, _, _, _ = hub
    norm = checks.read_edge_rows(_path(plan, "ingest", "normalized.csv"))
    labels = checks.read_table(_path(plan, "ingest", "label_map.csv"))
    want = checks.reference_normalize(checks.read_raw_lines(plan.input_path), False)
    assert checks.check_ingest(norm, labels, *want) == []
    assert checks.check_ingest(norm[:-1], labels, *want)
    retimed = list(norm)
    retimed[5] = retimed[5][:2] + (retimed[5][2] + 1,)
    assert checks.check_ingest(retimed, labels, *want)
    swapped = copy.deepcopy(labels)
    swapped[0]["label"], swapped[1]["label"] = swapped[1]["label"], swapped[0]["label"]
    assert checks.check_ingest(norm, swapped, *want)


def test_snapshots_check_catches_miscounted_window(hub):
    plan, _, _, _ = hub
    rows = checks.read_table(_path(plan, "snapshots", "snapshots.csv"))
    ref, _ = checks.reference_normalize(checks.read_raw_lines(plan.input_path), False)
    new, total = checks.snapshot_counts([t for _, _, t in ref], plan.params["windows"])
    assert checks.check_snapshots(rows, new, total) == []
    bad = copy.deepcopy(rows)
    bad[1]["new_edges"] = str(int(bad[1]["new_edges"]) + 1)
    assert checks.check_snapshots(bad, new, total)


def test_degree_dist_check_catches_lost_sample(hub):
    plan, _, _, _ = hub
    rows = checks.read_table(_path(plan, "degree-dist", "degree_dist_personalized_undirected.csv"))
    n_pairs = 2 * len(checks.read_edge_rows(_path(plan, "ingest", "normalized.csv")))
    assert checks.check_degree_dist(rows, n_pairs) == []
    bad = copy.deepcopy(rows)
    bad[0]["count"] = str(int(bad[0]["count"]) - 1)
    assert checks.check_degree_dist(bad, n_pairs)


def _emp(group, kind, mean, stderr, triad=""):
    return {"triad": triad, "group": group, "degree_kind": kind, "mode": "undirected",
            "mean": str(mean), "stderr": str(stderr), "n_egos": "300"}


def test_empirical_check_catches_pd_above_degree(triad):
    plan, _, _, _ = triad
    rows = checks.read_table(_path(plan, "empirical", "empirical.csv"))
    assert checks.check_empirical(rows, planted=False) == []
    bad = copy.deepcopy(rows)
    pd_row = next(r for r in bad if r["degree_kind"] == "personalized")
    pd_row["mean"] = str(float(pd_row["mean"]) + 10.0)
    assert checks.check_empirical(bad, planted=False)


def test_empirical_check_catches_swapped_formed_and_not_formed_rows():
    rows = [_emp("formed", "global", 3.0, 0.01), _emp("formed", "personalized", 1.3, 0.02),
            _emp("not-formed", "global", 3.0, 0.01),
            _emp("not-formed", "personalized", 1.1, 0.02)]
    assert checks.check_empirical(rows, planted=True) == []
    for r in rows:
        r["group"] = "not-formed" if r["group"] == "formed" else "formed"
    assert checks.check_empirical(rows, planted=True)


def _eval(method, mode, k, p, stderr=0.001):
    return {"method": method, "mode": mode, "k": str(k), "mean_p_at_k": repr(p),
            "stderr": repr(stderr)}


def _imp(method, mode, k, pct):
    return {"method": method, "mode": mode, "k": str(k), "pct_improvement_vs_base": repr(pct)}


def test_evaluate_check_catches_bad_precision_improvement_and_direction(hub):
    plan, _, _, _ = hub
    ev = plan.out("evaluate")
    rows = checks.read_table(os.path.join(ev, "eval.csv"))
    imp = checks.read_table(os.path.join(ev, "eval_improvement.csv"))
    assert checks.check_evaluate(rows, imp, planted=False) == []
    bad = copy.deepcopy(rows)
    bad[0]["mean_p_at_k"] = "1.25"
    assert checks.check_evaluate(bad, imp, planted=False)
    bad = copy.deepcopy(imp)
    bad[-1]["pct_improvement_vs_base"] = repr(float(bad[-1]["pct_improvement_vs_base"]) + 0.5)
    assert checks.check_evaluate(rows, bad, planted=False)

    won = [_eval("cn", "none", 10, 0.07), _eval("pd-cn", "undirected", 10, 0.08)]
    won_imp = [_imp("cn", "none", 10, 0.0),
               _imp("pd-cn", "undirected", 10, 100.0 * (0.08 - 0.07) / 0.07)]
    assert checks.check_evaluate(won, won_imp, planted=True) == []
    lost = [_eval("cn", "none", 10, 0.08), _eval("pd-cn", "undirected", 10, 0.07)]
    lost_imp = [_imp("cn", "none", 10, 0.0),
                _imp("pd-cn", "undirected", 10, 100.0 * (0.07 - 0.08) / 0.08)]
    assert checks.check_evaluate(lost, lost_imp, planted=True)


def _ranking_case(hub):
    plan, _, kept, series = hub
    rows, labels = checks.reference_normalize(checks.read_raw_lines(plan.input_path), False)
    adj = checks.snapshot_adjacencies(rows, len(labels), False, plan.params["windows"])[-1]
    u, (top, table) = next(iter(kept.items()))
    scores = table.scores(plan.recommend_method)[
        table.candidates.searchsorted(top)].tolist()
    want = checks.reference_scores(adj, u, plan.recommend_method, plan.recommend_mode)
    return u, top.tolist(), scores, want, plan.recommend_k


def test_ranking_check_catches_perturbed_score_swap_and_omission(hub):
    u, top, scores, want, k = _ranking_case(hub)
    assert len(top) >= 3
    assert checks.check_ranking(u, top, scores, want, k) == []
    perturbed = list(scores)
    perturbed[1] *= 1.0 + 1e-6
    assert checks.check_ranking(u, top, perturbed, want, k)
    assert checks.check_ranking(u, top[::-1], scores[::-1], want, k)
    rest = sorted(set(want) - set(top), key=lambda v: -want[v])
    assert checks.check_ranking(u, top[1:] + rest[-1:], scores[1:] + [want[rest[-1]]],
                                want, k)


def test_cell_check_catches_perturbed_mean_swapped_groups_and_exclusion(triad):
    plan, _, _, series = triad
    from egolink.empirical import ego_snapshot_stats

    rows, labels = checks.reference_normalize(checks.read_raw_lines(plan.input_path), True)
    adjs = checks.snapshot_adjacencies(rows, len(labels), True, plan.params["windows"])
    modes = ("out", "in")
    for u in range(len(labels)):
        for t in range(len(adjs) - 1):
            want = checks.reference_triad_cells(adjs[t], adjs[t + 1], u, modes)
            usable = [key for key, cell in want.items() if cell is not None]
            if usable:
                break
        if usable:
            break
    key = usable[0]
    got = ego_snapshot_stats(series, t, u, per_triad=True, degree_modes=modes)
    cell = {m: {g: (s.mean_log_global, s.mean_log_personalized) for g, s in groups.items()}
            for m, groups in next(c for k, c in got.items() if int(k) == key).items()}
    assert checks.check_cell("cell", cell, want[key]) == []
    perturbed = copy.deepcopy(cell)
    g, p = perturbed["out"]["formed"]
    perturbed["out"]["formed"] = (g, p + 1e-6)
    assert checks.check_cell("cell", perturbed, want[key])
    swapped = {m: {"formed": groups["not-formed"], "not-formed": groups["formed"]}
               for m, groups in cell.items()}
    assert checks.check_cell("cell", swapped, want[key])
    assert checks.check_cell("cell", None, want[key])
