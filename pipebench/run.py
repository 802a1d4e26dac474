#!/usr/bin/env python3
"""Stage-by-stage benchmark of the egolink pipeline.

Run from the root of a checkout:

    python3 pipebench/run.py                          # all three workloads
    python3 pipebench/run.py --workload hub-raw --seed 3 --seconds 5
    python3 pipebench/run.py --workload hub-raw --trace 1   # per-layer metrics
    python3 pipebench/run.py --smoke                  # every stage, toy sizes

Each workload runs in a fresh process: six in-process ``egolink`` commands
(generate, ingest, snapshots, degree-dist, empirical, evaluate) and a loop
of recommend calls, repeated in whole rounds until ``--seconds`` have
passed. Outputs are then checked against computations made apart from the
program. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones. See README.md.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".pipebench_runs")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"),
    ("generate_s", "s"), ("ingest_s", "s"), ("snapshots_s", "s"),
    ("degree_dist_s", "s"), ("empirical_s", "s"), ("evaluate_s", "s"),
    ("recommend_p50_ms", "ms"), ("recommend_p99_ms", "ms"),
)

#: fresh processes that only set up, besides the measured one, half of them
#: before it and half after; setup_s is the median over all of them
SETUP_PROBES = 6

#: egos whose recommend lists and empirical cells are recomputed by the reference
CHECK_EGOS = 4

#: share of recommend calls, the slowest, that are timed a second time;
#: each keeps its faster timing
RETIME_SHARE = 0.05

CHILD_TIMEOUT_S = 170


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def import_program():
    """Import egolink from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "egolink", "cli.py")):
        sys.exit(f"pipebench: no egolink sources under {SRC}; "
                 "run from the root of a checkout")
    sys.path.insert(0, SRC)
    import egolink

    if not os.path.abspath(egolink.__file__).startswith(SRC + os.sep):
        sys.exit(f"pipebench: imported egolink from {egolink.__file__}, not {SRC}")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# ---------------------------------------------------------------------------
# the workload process


def load_series(plan):
    from egolink.graph import build_snapshots, ingest_edges

    index = "--time-mode" in plan.input_flags
    edges = ingest_edges(plan.input_path, directed=plan.directed,
                         time_mode="index" if index else "timestamp")
    if index:
        return build_snapshots(edges, preassigned=True)
    return build_snapshots(edges, fixed_count=int(plan.params["windows"]))


def recommend(plan, graph, u):
    """What ``egolink recommend`` does after loading: candidates, one
    personalized score column, the ranking, and its top-k slice."""
    from egolink import ego, evaluation, scorers

    view = ego.ego_view(graph, u)
    table = scorers.score_candidates(graph, u, methods=(plan.recommend_method,),
                                     mode=plan.recommend_mode, view=view)
    return evaluation.rank_candidates(table).ranking[:plan.recommend_k], table


def run_round(plan, tracer, keep):
    """One round of the workload's schedule (``workloads.schedule``).
    Returns (stage seconds, recommend latencies, attempted, failed,
    results of the first ``keep`` recommend calls, the loaded series,
    seconds spent loading it).

    Each CLI stage counts by the median of its samples, and the recommend
    calls run in one batch per block, so every metric is sampled across
    the whole round.
    """
    from egolink import cli

    samples = {}
    latencies = []
    kept = {}
    attempted = failed = 0

    def sample(stage):
        nonlocal attempted, failed
        start = time.perf_counter()
        code = cli.main(plan.stage_argv[stage])
        samples.setdefault(stage, []).append(time.perf_counter() - start)
        attempted += 1
        failed += code != 0

    def timed(u):
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter()
        try:
            out = recommend(plan, graph, u)
        except Exception as exc:  # counted as a failed call and reported
            failed += 1
            print(f"recommend ego {u}: {exc!r}", file=sys.stderr)
            return None, None
        return time.perf_counter() - start, out

    blocks = workloads.schedule(plan.name, traced=tracer is not None)
    series = None
    for b, stages in enumerate(blocks):
        for stage in stages:
            sample(stage)
        if series is None:
            # the input exists once generate has run; loading is not timed
            if tracer is not None:
                tracer.enabled = False
            start = time.perf_counter()
            series = load_series(plan)
            graph = series[-1]
            egos = workloads.recommend_egos(plan, graph).tolist()
            load_s = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = True
        lo, hi = len(egos) * b // len(blocks), len(egos) * (b + 1) // len(blocks)
        for j in range(lo, hi):
            seconds, out = timed(egos[j])
            if seconds is not None:
                latencies.append((seconds, egos[j]))
                if j < keep:
                    kept[egos[j]] = out

    if tracer is None:
        # host stalls, not the egos, set the slowest calls on graphs
        # without hubs; a second timing of each filters them out
        latencies.sort(reverse=True)
        for j in range(math.ceil(RETIME_SHARE * len(latencies))):
            seconds, u = latencies[j]
            again, _ = timed(u)
            if again is not None:
                latencies[j] = (min(seconds, again), u)
    latencies = [seconds for seconds, _ in latencies]
    times = {stage: statistics.median(values) for stage, values in samples.items()}
    times["recommend"] = sum(latencies)
    return times, latencies, attempted, failed, kept, series, load_s


def peak_rss_mb():
    """Peak resident memory of this process plus that of its largest
    (already joined) worker child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def check_outputs(plan, made, kept, series):
    """Every failure message from the checks of ``checks.py``."""
    import checks

    p = plan.params
    gen_rows = checks.read_edge_rows(os.path.join(plan.out("generate"), "normalized.csv"))
    expect_edges = expect_pairs = None
    if plan.name == "hub-raw":
        expect_edges = checks.pa_edge_count(p["n_nodes"], p["n_attach"])
        expect_pairs = {(min(a, b), max(a, b)) for a, b in
                        zip(made.src.tolist(), made.dst.tolist())}
    bad = checks.check_generated(gen_rows, plan.directed, expect_edges, expect_pairs)

    raw = checks.read_raw_lines(plan.input_path)
    ref_rows, ref_labels = checks.reference_normalize(raw, plan.directed)
    bad += checks.check_ingest(
        checks.read_edge_rows(os.path.join(plan.out("ingest"), "normalized.csv")),
        checks.read_table(os.path.join(plan.out("ingest"), "label_map.csv")),
        ref_rows, ref_labels)

    window_count = p.get("windows")
    new, total = checks.snapshot_counts([t for _, _, t in ref_rows], window_count)
    bad += checks.check_snapshots(
        checks.read_table(os.path.join(plan.out("snapshots"), "snapshots.csv")), new, total)

    mode = "out" if plan.directed else "undirected"
    bad += checks.check_degree_dist(
        checks.read_table(os.path.join(plan.out("degree-dist"),
                                       f"degree_dist_personalized_{mode}.csv")),
        len(ref_rows) * (1 if plan.directed else 2))

    # the planted signal's direction is a statistical property: it shows at
    # full size only
    planted = plan.name == "planted-undirected" and plan.size == "full"
    bad += checks.check_empirical(
        checks.read_table(os.path.join(plan.out("empirical"), "empirical.csv")), planted)
    ev = plan.out("evaluate")
    bad += checks.check_evaluate(checks.read_table(os.path.join(ev, "eval.csv")),
                                 checks.read_table(os.path.join(ev, "eval_improvement.csv")),
                                 planted)
    bad += reference_comparison(plan, ref_rows, len(ref_labels), window_count, kept, series)
    return bad


def reference_comparison(plan, ref_rows, n_nodes, window_count, kept, series):
    """Recommend lists and empirical cells of a few egos against the
    set-arithmetic reference of ``checks.py``."""
    import numpy as np

    import checks
    from egolink.empirical import ego_snapshot_stats

    adjs = checks.snapshot_adjacencies(ref_rows, n_nodes, plan.directed, window_count)
    bad = []
    for u, (top, table) in kept.items():
        scores = table.scores(plan.recommend_method)
        pos = np.searchsorted(table.candidates, top)
        want = checks.reference_scores(adjs[-1], u, plan.recommend_method,
                                       plan.recommend_mode)
        bad += checks.check_ranking(u, top.tolist(), scores[pos].tolist(), want,
                                    plan.recommend_k)

    per_triad = plan.name == "triad-directed"
    modes = ("out", "in") if per_triad else ("undirected",)
    rng = np.random.default_rng([plan.seed, 0x43454c4c])
    usable_egos = 0
    for u in rng.permutation(n_nodes)[:200].tolist():
        if usable_egos == CHECK_EGOS:
            break
        found = []
        for t in range(len(adjs) - 1):
            if per_triad:
                want = checks.reference_triad_cells(adjs[t], adjs[t + 1], u, modes)
            else:
                want = {None: checks.reference_plain_cell(adjs[t], adjs[t + 1], u, modes)}
            got = ego_snapshot_stats(series, t, u, per_triad=per_triad, degree_modes=modes)
            got = {None if key is None else int(key):
                   None if cell is None else
                   {m: {g: (s.mean_log_global, s.mean_log_personalized)
                        for g, s in groups.items()} for m, groups in cell.items()}
                   for key, cell in got.items()}
            for key, cell in want.items():
                found.append(cell is not None)
                bad += checks.check_cell(f"empirical cell ego {u} t {t} triad {key}",
                                         got.get(key), cell)
        usable_egos += any(found)
    if usable_egos < CHECK_EGOS:
        bad.append(f"reference: only {usable_egos} sampled egos had a usable cell")
    return bad


def child_main(args):
    import_program()
    plan = workloads.plan(args.workload, args.seed, args.size, args.workdir)
    made = workloads.prepare_inputs(plan)
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.child == "setup":
        _write_json(os.path.join(args.workdir, "result.json"), result)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rounds = []
    latencies = []
    attempted = failed = 0
    started = time.perf_counter()
    load_s = 0.0
    while True:
        times, lat, tried, fails, kept, series, loading = run_round(plan, tracer, CHECK_EGOS)
        load_s += loading
        rounds.append(times)
        latencies += lat
        attempted += tried
        failed += fails
        if time.perf_counter() - started >= args.seconds:
            break
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = False

    start = time.perf_counter()
    try:
        bad = check_outputs(plan, made, kept, series)
    except Exception as exc:  # a check that cannot run fails the result
        bad = [f"checks raised {exc!r}"]
    result.update(
        load_s=load_s,
        checks_s=time.perf_counter() - start,
        rounds=len(rounds),
        attempted=attempted,
        failed=failed,
        check_failures=bad,
        peak_rss_mb=rss,
        stage_s={s: statistics.median(r[s] for r in rounds) for s in workloads.STAGES},
        latencies_s=sorted(latencies),
        digests={name: sha256(path)[:16] for name, path in (
            ("generated", os.path.join(plan.out("generate"), "normalized.csv")),
            ("input", plan.input_path))},
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(rounds))
    _write_json(os.path.join(args.workdir, "result.json"), result)
    return 0


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# the driving process


def spawn(mode, args, workdir):
    """Run one workload process; returns its result document."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir]
    spawned_at = time.time()
    # a new process group, so that a timeout also stops its pool workers
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process of {args.workload} exited with {proc.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(args):
    """Setup probes plus the measured process of one workload; returns the
    final JSON document and prints the human-readable report to stderr."""
    workdir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn("setup", args, os.path.join(workdir, f"probe{i}"))["setup_s"]
                  for i in range(probes // 2)]
        res = spawn("run", args, os.path.join(workdir, "run"))
        setups += [spawn("setup", args, os.path.join(workdir, f"probe{i}"))["setup_s"]
                   for i in range(probes // 2, probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    lat = res["latencies_s"]
    stage = res["stage_s"]
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in res["layers"].items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "total_s": sum(stage.values()),
            "peak_rss_mb": res["peak_rss_mb"],
            "recommend_p50_ms": 1e3 * statistics.median(lat),
            "recommend_p99_ms": 1e3 * percentile(lat, 99),
        }
        for s in workloads.STAGES[:-1]:
            values[s.replace("-", "_") + "_s"] = stage[s]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    correct = not res["check_failures"]
    doc = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics}

    log = sys.stderr
    print(f"== {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"rounds={res['rounds']} recommend_calls={len(lat)} "
          f"attempted={res['attempted']} failed={res['failed']} correct={correct}", file=log)
    for name, m in metrics.items():
        print(f"   {name:28s} {m['value']:.6g} {m['unit']}", file=log)
    if args.trace:
        print(f"   traced total_s {sum(stage.values()):.6g} s", file=log)
    print(f"   setup samples {[round(s, 4) for s in setups]}; untimed: recommend "
          f"load {res['load_s']:.3g} s, checks {res['checks_s']:.3g} s", file=log)
    print(f"   digests {res['digests']}", file=log)
    for msg in res["check_failures"]:
        print(f"   CHECK FAILED: {msg}", file=log)
    return doc


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every stage of every workload at toy sizes")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--size", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    # on SIGTERM, unwind through spawn, which stops the workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    import_program()
    if args.smoke:
        args.size, args.seconds = "smoke", 0.0
    print("env " + json.dumps(environment()), file=sys.stderr)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    docs = {}
    for name in names:
        args.workload = name
        docs[name] = measure(args)
    if len(docs) == 1:
        doc = docs[names[0]]
    else:
        doc = {
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {f"{name}.{metric}": m for name, d in docs.items()
                        for metric, m in d["metrics"].items()},
        }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
