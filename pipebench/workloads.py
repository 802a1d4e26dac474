"""The three seeded workloads: their inputs and the CLI argument lists of
their stages.

Every workload goes through the same seven stages. Six are ``egolink``
commands run in-process; the seventh is a loop of recommend calls on the
last snapshot. ``plan`` turns (workload, seed, size) into a ``Plan``;
``prepare_inputs`` writes whatever the benchmark itself must build before
the first stage (only ``hub-raw`` has such an input).
"""

import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("planted-undirected", "triad-directed", "hub-raw")

STAGES = ("generate", "ingest", "snapshots", "degree-dist", "empirical",
          "evaluate", "recommend")

#: a round's block count and each CLI stage's sample count in a round.
#: Each block runs the CLI stages due in it, then an equal share of the
#: recommend calls; a stage with n samples runs in every (blocks / n)-th
#: block, so every metric samples the whole round and counts by its median.
#: The host's speed drifts by tens of percent over seconds to minutes, so
#: stages short enough to repeat run in most blocks. On ``hub-raw`` every
#: stage takes seconds and runs once.
SCHEDULE = {
    "planted-undirected": (16, {"generate": 2, "ingest": 16, "snapshots": 16,
                                "degree-dist": 8, "empirical": 2, "evaluate": 2}),
    "triad-directed": (10, {"generate": 10, "ingest": 10, "snapshots": 10,
                            "degree-dist": 5, "empirical": 2, "evaluate": 3}),
    "hub-raw": (6, dict.fromkeys(STAGES[:-1], 1)),
}


def schedule(name, traced=False):
    """The CLI stages of each block of one round, in stage order.

    Sample k of the i-th CLI stage runs in block
    ``floor((k + i / 6) * blocks / n)``: the generate stage, which makes
    the input, opens block 0, and the stages' samples are staggered. A
    traced round runs every stage once, in one block.
    """
    blocks, counts = SCHEDULE[name]
    if traced:
        blocks, counts = 1, dict.fromkeys(counts, 1)
    cli_stages = STAGES[:-1]
    due = [[] for _ in range(blocks)]
    for i, stage in enumerate(cli_stages):
        n = counts[stage]
        for k in range(n):
            due[int((k + i / len(cli_stages)) * blocks / n)].append(stage)
    return due


#: generator and sampling sizes; ``smoke`` runs every stage at toy scale
SIZES = {
    "full": {
        "planted-undirected": dict(n_nodes=1000, edge_prob=0.02, n_snapshots=3,
                                   sample=300, recommend=1000),
        "triad-directed": dict(n_nodes=3000, edge_prob=0.004, windows=6,
                               emp_sample=200, eval_sample=1000, recommend=1000),
        "hub-raw": dict(n_nodes=50_000, n_attach=5, n_close=36_000,
                        dup_share=0.04, self_loops=40, close_gap=5_000,
                        windows=4, sample=300, recommend=1000, hubs=20),
    },
    "smoke": {
        "planted-undirected": dict(n_nodes=120, edge_prob=0.08, n_snapshots=3,
                                   sample=40, recommend=60),
        "triad-directed": dict(n_nodes=150, edge_prob=0.05, windows=4,
                               emp_sample=30, eval_sample=40, recommend=60),
        "hub-raw": dict(n_nodes=600, n_attach=3, n_close=400, dup_share=0.04,
                        self_loops=5, close_gap=60, windows=4, sample=60,
                        recommend=60, hubs=5),
    },
}

#: smoke graphs are too small for the default K list, whose largest K is 50
SMOKE_KS = "1,3,5"


@dataclass
class Plan:
    """Everything one workload needs: stage argument lists, the input the
    later stages read, and the recommend loop's settings."""

    name: str
    seed: int
    size: str
    workdir: str
    params: dict
    directed: bool
    input_path: str
    input_flags: list
    stage_argv: dict = field(default_factory=dict)
    recommend_method: str = "pd-cn"
    recommend_mode: str = "undirected"
    recommend_k: int = 10

    def out(self, stage):
        return os.path.join(self.workdir, stage)


def _seeds(seed):
    """Generator seed and ego-sampling seed from the run seed."""
    return int(seed), int(seed) + 1_000_003


def plan(name, seed, size, workdir):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    p = SIZES[size][name]
    gen_seed, sample_seed = _seeds(seed)
    gen_dir = os.path.join(workdir, "generate")
    smoke_ks = ["--ks", SMOKE_KS] if size == "smoke" else []

    if name == "planted-undirected":
        generate_argv = ["generate", "--kind", "planted-scorer",
                         "--n-nodes", str(p["n_nodes"]), "--edge-prob", str(p["edge_prob"]),
                         "--method", "pd-cn", "--n-snapshots", str(p["n_snapshots"])]
        input_path = os.path.join(gen_dir, "normalized.csv")
        input_flags = ["--time-mode", "index"]
        directed = False
        empirical = ["--sample-size", str(p["sample"])]
        evaluate = ["--sample-size", str(p["sample"]), "--workers", "2"] + smoke_ks
        degree = []
        method, mode = "pd-cn", "undirected"
    elif name == "triad-directed":
        generate_argv = ["generate", "--kind", "uniform-random", "--directed",
                         "--n-nodes", str(p["n_nodes"]), "--edge-prob", str(p["edge_prob"])]
        input_path = os.path.join(gen_dir, "normalized.csv")
        input_flags = ["--directed", "--window-count", str(p["windows"])]
        directed = True
        empirical = ["--per-triad", "--sample-size", str(p["emp_sample"])]
        evaluate = ["--modes", "out,in,undirected",
                    "--sample-size", str(p["eval_sample"])] + smoke_ks
        degree = ["--mode", "out"]
        method, mode = "pd-aa", "out"
    else:
        generate_argv = ["generate", "--kind", "preferential-attachment",
                         "--n-nodes", str(p["n_nodes"]), "--n-attach", str(p["n_attach"])]
        input_path = os.path.join(workdir, "input", "raw.txt")
        input_flags = ["--window-count", str(p["windows"])]
        directed = False
        empirical = ["--sample-size", str(p["sample"])]
        evaluate = ["--sample-size", str(p["sample"])] + smoke_ks
        degree = []
        method, mode = "pd-cn", "undirected"

    generate_argv = generate_argv + ["--seed", str(gen_seed), "--output-dir", gen_dir]
    plan_ = Plan(name=name, seed=int(seed), size=size, workdir=workdir, params=p,
                 directed=directed, input_path=input_path, input_flags=input_flags,
                 recommend_method=method, recommend_mode=mode)
    read = ["--input", input_path] + input_flags
    ingest_flags = [f for f in input_flags if f in ("--directed",)]
    if "--time-mode" in input_flags:
        ingest_flags += ["--time-mode", "index"]
    seeded = ["--seed", str(sample_seed)]
    plan_.stage_argv = {
        "generate": generate_argv,
        "ingest": ["ingest", "--input", input_path] + ingest_flags
                  + ["--output-dir", plan_.out("ingest")],
        "snapshots": ["snapshots"] + read + ["--output-dir", plan_.out("snapshots")],
        "degree-dist": ["degree-dist"] + read + ["--kind", "personalized"] + degree
                       + ["--output-dir", plan_.out("degree-dist")],
        "empirical": ["empirical"] + read + empirical + seeded
                     + ["--output-dir", plan_.out("empirical")],
        "evaluate": ["evaluate"] + read + evaluate + seeded
                    + ["--output-dir", plan_.out("evaluate")],
    }
    return plan_


# ---------------------------------------------------------------------------
# hub-raw input: preferential attachment plus wedge-closing edges, written
# as a raw, shuffled edge list of string labels


def hub_raw_rows(pa_src, pa_dst, pa_time, n_nodes, params, seed):
    """Raw rows (src label, dst label, time) for the hub workload.

    ``pa_*`` is the preferential-attachment graph. The benchmark adds
    ``n_close`` edges that close random wedges a - z - b among existing
    nodes (z is reached through a uniform random edge, so it is drawn in
    proportion to its degree, as in Holme & Kim's triad-formation step),
    each timed after both wedge edges; reversed duplicates of a share of
    all edges at later times; and a few self-loops. Line order is
    shuffled and ids are replaced by permuted string labels.
    """
    rng = np.random.default_rng([int(seed), 0x4855])
    src = np.asarray(pa_src, dtype=np.int64)
    dst = np.asarray(pa_dst, dtype=np.int64)
    tim = np.asarray(pa_time, dtype=np.int64)

    # symmetric adjacency with edge times, for wedge sampling
    both_a = np.concatenate([src, dst])
    both_b = np.concatenate([dst, src])
    both_t = np.concatenate([tim, tim])
    order = np.argsort(both_a, kind="stable")
    nb_a, nb, nb_t = both_a[order], both_b[order], both_t[order]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(both_a, minlength=n_nodes), out=indptr[1:])
    deg = np.diff(indptr)

    present = set((np.minimum(src, dst) * n_nodes + np.maximum(src, dst)).tolist())
    n_close = int(params["n_close"])
    closes = []
    while len(closes) < n_close:
        m = 2 * (n_close - len(closes)) + 64
        e = rng.integers(0, both_a.size, size=m)
        a = nb_a[e]
        z = nb[e]
        t1 = nb_t[e]
        j = indptr[z] + (rng.random(m) * deg[z]).astype(np.int64)
        b = nb[j]
        t2 = nb_t[j]
        gap = rng.integers(1, int(params["close_gap"]) + 1, size=m)
        for a_, b_, t_ in zip(a.tolist(), b.tolist(), (np.maximum(t1, t2) + gap).tolist()):
            if a_ == b_:
                continue
            key = min(a_, b_) * n_nodes + max(a_, b_)
            if key in present:
                continue
            present.add(key)
            closes.append((a_, b_, t_))
            if len(closes) == n_close:
                break
    c = np.asarray(closes, dtype=np.int64).reshape(-1, 3)
    src = np.concatenate([src, c[:, 0]])
    dst = np.concatenate([dst, c[:, 1]])
    tim = np.concatenate([tim, c[:, 2]])

    n_dup = int(round(params["dup_share"] * src.size))
    pick = rng.choice(src.size, size=n_dup, replace=False)
    later = tim[pick] + rng.integers(1, int(params["close_gap"]) + 1, size=n_dup)
    loops = rng.integers(0, n_nodes, size=int(params["self_loops"]))
    loop_t = rng.integers(0, int(tim.max()) + 1, size=loops.size)
    src, dst = (np.concatenate([src, dst[pick], loops]),
                np.concatenate([dst, src[pick], loops]))
    tim = np.concatenate([tim, later, loop_t])

    names = np.asarray([f"u{i:x}" for i in rng.permutation(n_nodes).tolist()])
    shuffle = rng.permutation(src.size)
    return names[src[shuffle]], names[dst[shuffle]], tim[shuffle]


def write_raw(path, src_labels, dst_labels, times):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hub-raw benchmark input: src dst time\n")
        fh.write("\n".join(f"{a} {b} {t}" for a, b, t in
                           zip(src_labels.tolist(), dst_labels.tolist(), times.tolist())))
        fh.write("\n")


def prepare_inputs(plan_):
    """Build the inputs the benchmark writes itself; returns the edges of
    the generated graph when the benchmark made them (hub-raw), else None."""
    if plan_.name != "hub-raw":
        return None
    from egolink.generators import preferential_attachment_edges

    p = plan_.params
    gen_seed, _ = _seeds(plan_.seed)
    pa = preferential_attachment_edges(p["n_nodes"], p["n_attach"], seed=gen_seed)
    rows = hub_raw_rows(pa.src, pa.dst, pa.time, pa.n_nodes, p, gen_seed)
    write_raw(plan_.input_path, *rows)
    return pa


def recommend_egos(plan_, graph):
    """Fixed, seeded list of recommend egos on the last snapshot.

    planted-undirected covers every ego with neighbours; the others draw a
    seeded sample of egos with neighbours, and hub-raw puts the
    highest-degree hubs first. The list is cycled up to the call count.
    """
    p = plan_.params
    n_calls = int(p["recommend"])
    has_nb = np.flatnonzero(np.diff(graph.out_indptr) > 0)
    rng = np.random.default_rng([plan_.seed, 0x5245])
    if plan_.name == "planted-undirected":
        egos = has_nb
    elif plan_.name == "triad-directed":
        egos = rng.permutation(has_nb)[:n_calls]
    else:
        deg = graph.sym_degree
        hubs = has_nb[np.argsort(-deg[has_nb], kind="stable")][: int(p["hubs"])]
        rest = np.setdiff1d(has_nb, hubs)
        egos = np.concatenate([hubs, rng.permutation(rest)[: n_calls - hubs.size]])
    reps = -(-n_calls // max(egos.size, 1))
    return np.tile(egos, reps)[:n_calls].astype(np.int64)
