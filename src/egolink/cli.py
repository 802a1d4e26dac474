"""Command-line entry point.

Subcommands cover the full pipeline: ``ingest`` normalizes raw edge files,
``snapshots`` summarizes cumulative windows, ``degree-dist`` bins degree
samples, ``empirical`` compares formed against not-formed candidates,
``recommend`` ranks candidates for one ego, ``evaluate`` scores methods by
precision@k, and ``generate`` writes synthetic edge lists.

Every option can also be given in a flat ``key = value`` config file passed
via ``--config``; explicit flags win over file values.  ``EGOLINK_OUTPUT_DIR``
overrides the default output directory (flags still win over the env var).
Exit codes: 0 on success, 1 for bad input or configuration, 2 for runtime
failures such as empty results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time as _time
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._util import fmt_float, write_table
from .degree_dist import (
    KIND_GLOBAL,
    KIND_PERSONALIZED,
    DISTRIBUTION_HEADER,
    distribution_metadata,
    distribution_rows,
    global_degree_samples,
    log_binned_histogram,
    personalized_degree_samples,
)
from .ego import ALL_MODES, MODE_UNDIRECTED, ego_view, sample_egos, validate_mode
from .empirical import EMPIRICAL_HEADER, aggregate_empirical, empirical_table
from .errors import (
    ConfigError,
    EmptyInputError,
    EmptyResultError,
    ParseError,
    PreconditionError,
)
from .evaluation import (
    DEFAULT_CUTOFF,
    DEFAULT_KS,
    EVAL_HEADER,
    IMPROVEMENT_HEADER,
    eval_table,
    evaluate_methods,
    improvement_table,
    percent_improvement,
    rank_candidates,
    validate_ks,
)
from .generators import (
    ALL_KINDS,
    DEFAULT_TIME_SPAN,
    GeneratorSpec,
    generate,
)
from .graph import (
    TIME_MODE_INDEX,
    TIME_MODE_TIMESTAMP,
    build_snapshots,
    ingest_edges,
    write_label_map_csv,
    write_normalized_csv,
)
from .scorers import ALL_METHODS, METHOD_CN, MODE_NONE, score_candidates, validate_methods

SECONDS_PER_DAY = 86_400

COMMANDS = (
    "ingest",
    "snapshots",
    "degree-dist",
    "empirical",
    "recommend",
    "evaluate",
    "generate",
)

# key -> (value kind, help text).  Flags mirror these one for one.
_KEY_SPECS = {
    "input": ("str", "path to the raw edge file"),
    "directed": ("bool", "treat edges as directed"),
    "delimiter": ("str", "force 'comma' or 'whitespace' field splitting"),
    "time_mode": ("str", "third column semantics: 'timestamp' or 'index'"),
    "missing_time": ("int", "timestamp substituted for blank or \\N time fields"),
    "drop_zero_out": ("bool", "drop nodes that never appear as a source (directed only)"),
    "window_days": ("float", "snapshot window length in days"),
    "window_seconds": ("int", "snapshot window length in raw time units"),
    "window_count": ("int", "number of equal-width snapshot windows"),
    "preassigned": ("bool", "treat times as snapshot indices"),
    "seed": ("int", "RNG seed for ego sampling and generators"),
    "sample_size": ("int", "number of egos to sample (default: all eligible)"),
    "cutoff": ("int", "drop egos whose candidate set ever exceeds this size"),
    "ks": ("int_list", "comma-separated list of k values, strictly ascending"),
    "methods": ("str_list", "comma-separated scoring methods"),
    "modes": ("str_list", "comma-separated degree modes"),
    "min_candidates": ("int", "minimum candidates for an (ego, snapshot) cell"),
    "require_formation": ("bool", "keep only cells with at least one formed edge"),
    "log_base": ("float", "logarithm base for scoring terms (default: e)"),
    "output_dir": ("str", "directory for output files"),
    "format": ("str", "output table format: 'csv' or 'json'"),
    "workers": ("int", "worker processes for per-ego stages"),
    "kind": ("str", "degree-dist sample kind, or generator kind"),
    "bins_per_decade": ("int", "log-histogram resolution"),
    "snapshot": ("int", "snapshot index to analyze (default: last)"),
    "per_neighbor": ("bool", "sample global degrees once per (ego, neighbor) pair"),
    "per_triad": ("bool", "split the empirical analysis by directed triad type"),
    "ego": ("str", "ego node label to recommend for"),
    "method": ("str", "single scoring method"),
    "mode": ("str", "single degree mode"),
    "k": ("int", "list length for recommend"),
    "n_nodes": ("int", "generator node count"),
    "edge_prob": ("float", "generator edge probability"),
    "n_attach": ("int", "edges per new node (preferential attachment)"),
    "n_snapshots": ("int", "snapshot count (planted generator)"),
    "formation_rate": ("float", "top-score formation probability (planted generator)"),
    "time_span": ("int", "timestamp range for the uniform generator"),
}

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclass
class RunConfig:
    """Fully resolved options for one command invocation."""

    input: str | None = None
    directed: bool = False
    delimiter: str | None = None
    time_mode: str = TIME_MODE_TIMESTAMP
    missing_time: int | None = None
    drop_zero_out: bool = False
    window_days: float | None = None
    window_seconds: int | None = None
    window_count: int | None = None
    preassigned: bool = False
    seed: int = 0
    sample_size: int | None = None
    cutoff: int = DEFAULT_CUTOFF
    ks: tuple = DEFAULT_KS
    methods: tuple = ALL_METHODS
    modes: tuple | None = None
    min_candidates: int = 0
    require_formation: bool = True
    log_base: float | None = None
    output_dir: str = "."
    format: str = "csv"
    workers: int = 1
    kind: str | None = None
    bins_per_decade: int = 10
    snapshot: int | None = None
    per_neighbor: bool = False
    per_triad: bool = False
    ego: str | None = None
    method: str | None = None
    mode: str | None = None
    k: int = 10
    n_nodes: int | None = None
    edge_prob: float | None = None
    n_attach: int | None = None
    n_snapshots: int | None = None
    formation_rate: float = 0.05
    time_span: int = DEFAULT_TIME_SPAN


def _parse_value(key, raw):
    """Convert the string form of one config value to its typed form."""
    kind = _KEY_SPECS[key][0]
    raw = raw.strip()
    if raw == "":
        return None
    try:
        if kind == "bool":
            low = raw.lower()
            if low in _TRUE_WORDS:
                return True
            if low in _FALSE_WORDS:
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "int_list":
            return tuple(int(part) for part in raw.split(","))
        if kind == "str_list":
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None


def read_config_file(path):
    """Parse a flat ``key = value`` config file into typed values."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config: line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEY_SPECS:
            raise ConfigError(f"config: line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with code 2; bad usage is a
    # validation failure here, so remap it to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="egolink", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"egolink {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    descriptions = {
        "ingest": "normalize a raw edge file into contiguous integer ids",
        "snapshots": "summarize cumulative snapshot windows",
        "degree-dist": "log-binned degree distribution of one snapshot",
        "empirical": "formed vs not-formed degree statistics across snapshots",
        "recommend": "ranked candidate list for one ego",
        "evaluate": "precision@k evaluation of scoring methods",
        "generate": "write a synthetic edge list",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, description=descriptions[name], add_help=True)
        cmd.add_argument("--config", default=None, help="flat key = value config file")
        for key, (kind, text) in _KEY_SPECS.items():
            flag = "--" + key.replace("_", "-")
            if kind == "bool":
                cmd.add_argument(flag, nargs="?", const="true", default=None,
                                 metavar="BOOL", help=text)
            else:
                cmd.add_argument(flag, default=None, metavar=kind.upper(), help=text)
    return parser


def resolve_config(args):
    """Merge defaults, config file, env override, and flags into a RunConfig."""
    file_values = read_config_file(args.config) if args.config else {}
    values = {}
    for key in _KEY_SPECS:
        flag_raw = getattr(args, key)
        if flag_raw is not None:
            values[key] = _parse_value(key, flag_raw)
        elif key in file_values:
            values[key] = file_values[key]
    env_dir = os.environ.get("EGOLINK_OUTPUT_DIR")
    if env_dir and getattr(args, "output_dir") is None:
        values["output_dir"] = env_dir
    cfg = RunConfig()
    for key, value in values.items():
        if value is not None:
            setattr(cfg, key, value)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    if cfg.time_mode not in (TIME_MODE_TIMESTAMP, TIME_MODE_INDEX):
        raise ConfigError(f"time_mode: unknown value {cfg.time_mode!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format: expected 'csv' or 'json', got {cfg.format!r}")
    if cfg.workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {cfg.workers}")
    if cfg.cutoff < 1:
        raise ConfigError(f"cutoff: must be >= 1, got {cfg.cutoff}")
    if cfg.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.sample_size is not None and cfg.sample_size < 1:
        raise ConfigError(f"sample_size: must be >= 1, got {cfg.sample_size}")
    if cfg.min_candidates < 0:
        raise ConfigError(f"min_candidates: must be >= 0, got {cfg.min_candidates}")
    if cfg.bins_per_decade < 1:
        raise ConfigError(f"bins_per_decade: must be >= 1, got {cfg.bins_per_decade}")
    if cfg.k < 1:
        raise ConfigError(f"k: must be >= 1, got {cfg.k}")
    try:
        validate_ks(cfg.ks)
    except ConfigError as exc:
        raise ConfigError(f"ks: {exc}") from None
    try:
        validate_methods(cfg.methods)
    except ConfigError as exc:
        raise ConfigError(f"methods: {exc}") from None
    if cfg.modes is not None:
        for mode in cfg.modes:
            if mode not in ALL_MODES:
                raise ConfigError(f"modes: unknown mode {mode!r}")
    window_keys = [
        key for key in ("window_days", "window_seconds", "window_count")
        if getattr(cfg, key) is not None
    ]
    if len(window_keys) > 1:
        raise ConfigError(f"window policy: {window_keys[0]} conflicts with {window_keys[1]}")
    if cfg.window_days is not None and cfg.window_days <= 0:
        raise ConfigError(f"window_days: must be > 0, got {cfg.window_days}")
    if cfg.window_seconds is not None and cfg.window_seconds < 1:
        raise ConfigError(f"window_seconds: must be >= 1, got {cfg.window_seconds}")
    if cfg.window_count is not None and cfg.window_count < 1:
        raise ConfigError(f"window_count: must be >= 1, got {cfg.window_count}")
    if cfg.log_base is not None and cfg.log_base <= 1.0:
        raise ConfigError(f"log_base: must be > 1, got {cfg.log_base}")


def config_echo(cfg):
    """Flat string map of the resolved config, usable as a config file."""
    echo = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(cfg, field.name)
        if value is None:
            echo[field.name] = ""
        elif isinstance(value, bool):
            echo[field.name] = "true" if value else "false"
        elif isinstance(value, tuple):
            echo[field.name] = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            echo[field.name] = fmt_float(value)
        else:
            echo[field.name] = str(value)
    return echo


def _require(cfg, *keys):
    for key in keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"{key}: required for this command")


def _load_edges(cfg):
    _require(cfg, "input")
    if not os.path.exists(cfg.input):
        raise ConfigError(f"input: no such file {cfg.input!r}")
    edges = ingest_edges(
        cfg.input,
        directed=cfg.directed,
        delimiter=cfg.delimiter,
        time_mode=cfg.time_mode,
        missing_time=cfg.missing_time,
        drop_zero_out=cfg.drop_zero_out,
    )
    if edges.n_edges == 0:
        raise EmptyInputError(f"input: no edges found in {cfg.input!r}")
    return edges


def _build_series(cfg, edges):
    if cfg.preassigned or edges.time_mode == TIME_MODE_INDEX:
        return build_snapshots(edges, preassigned=True)
    if cfg.window_count is not None:
        return build_snapshots(edges, fixed_count=cfg.window_count)
    if cfg.window_seconds is not None:
        return build_snapshots(edges, window_length=cfg.window_seconds)
    days = cfg.window_days if cfg.window_days is not None else 90.0
    return build_snapshots(edges, window_length=int(round(days * SECONDS_PER_DAY)))


def _pick_snapshot(cfg, series):
    index = cfg.snapshot if cfg.snapshot is not None else len(series) - 1
    if not 0 <= index < len(series):
        raise ConfigError(
            f"snapshot: index {index} out of range for {len(series)} snapshots"
        )
    return series[index]


def _out_path(cfg, name):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _write_manifest(cfg, command, outputs, started, extra=None):
    manifest = {
        "command": command,
        "config": config_echo(cfg),
        "seed": cfg.seed,
        "versions": {
            "egolink": __version__,
            "numpy": np.__version__,
        },
        "wall_time_s": round(_time.monotonic() - started, 3),
        "outputs": [os.path.basename(path) for path in outputs],
    }
    if extra:
        manifest.update(extra)
    path = _out_path(cfg, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _cmd_ingest(cfg, started):
    edges = _load_edges(cfg)
    normalized = _out_path(cfg, "normalized.csv")
    label_map = _out_path(cfg, "label_map.csv")
    write_normalized_csv(edges, normalized)
    write_label_map_csv(edges, label_map)
    _write_manifest(cfg, "ingest", [normalized, label_map], started,
                    extra={"n_nodes": edges.n_nodes, "n_edges": edges.n_edges})
    print(f"ingested {edges.n_edges} edges over {edges.n_nodes} nodes -> {normalized}")


def _cmd_snapshots(cfg, started):
    edges = _load_edges(cfg)
    series = _build_series(cfg, edges)
    header = ("snapshot", "window_start", "window_end", "new_edges", "total_edges")
    rows = [
        (g.index, g.window_start, g.window_end, int(series.new_edges[i]), g.n_edges)
        for i, g in enumerate(series.graphs)
    ]
    path = write_table(_out_path(cfg, "snapshots"), cfg.format, header, rows)
    _write_manifest(cfg, "snapshots", [path], started,
                    extra={"n_snapshots": len(series)})
    print(f"built {len(series)} cumulative snapshots -> {path}")


def _cmd_degree_dist(cfg, started):
    kind = cfg.kind if cfg.kind is not None else KIND_PERSONALIZED
    if kind not in (KIND_PERSONALIZED, KIND_GLOBAL):
        raise ConfigError(
            f"kind: expected '{KIND_PERSONALIZED}' or '{KIND_GLOBAL}', got {kind!r}"
        )
    edges = _load_edges(cfg)
    series = _build_series(cfg, edges)
    graph = _pick_snapshot(cfg, series)
    mode = cfg.mode if cfg.mode is not None else MODE_UNDIRECTED
    validate_mode(mode, graph.directed)
    if kind == KIND_PERSONALIZED:
        samples = personalized_degree_samples(graph, mode=mode)
    else:
        samples = global_degree_samples(graph, mode=mode, per_neighbor=cfg.per_neighbor)
    dist = log_binned_histogram(samples, bins_per_decade=cfg.bins_per_decade)
    name = f"degree_dist_{kind}_{mode}"
    path = write_table(_out_path(cfg, name), cfg.format, DISTRIBUTION_HEADER,
                       distribution_rows(dist), metadata=distribution_metadata(dist, kind, mode))
    _write_manifest(cfg, "degree-dist", [path], started,
                    extra={"n_samples": dist.n_samples, "shifted": dist.shifted})
    print(f"binned {dist.n_samples} {kind} degree samples -> {path}")


def _cmd_empirical(cfg, started):
    edges = _load_edges(cfg)
    series = _build_series(cfg, edges)
    stats = aggregate_empirical(
        series,
        egos=sample_egos(series, cfg.sample_size, cfg.seed),
        per_triad=cfg.per_triad,
        degree_modes=cfg.modes,
        workers=cfg.workers,
    )
    path = write_table(_out_path(cfg, "empirical"), cfg.format, EMPIRICAL_HEADER,
                       empirical_table(stats))
    _write_manifest(cfg, "empirical", [path], started, extra=stats.diagnostics)
    print(f"empirical stats over {stats.diagnostics['n_egos_contributing']} egos -> {path}")


def _cmd_recommend(cfg, started):
    _require(cfg, "ego", "method")
    validate_methods((cfg.method,))
    edges = _load_edges(cfg)
    series = _build_series(cfg, edges)
    graph = _pick_snapshot(cfg, series)
    if cfg.method == METHOD_CN:
        mode = MODE_NONE
        score_mode = MODE_UNDIRECTED
    else:
        score_mode = cfg.mode if cfg.mode is not None else MODE_UNDIRECTED
        validate_mode(score_mode, graph.directed)
        mode = score_mode
    try:
        ego = edges.id_of(cfg.ego)
    except KeyError:
        raise ConfigError(f"ego: no node labeled {cfg.ego!r}") from None
    view = ego_view(graph, ego)
    if view.candidates.size == 0:
        raise EmptyResultError(
            f"ego {cfg.ego!r} has no candidates",
            diagnostics={"ego": cfg.ego, "n_neighbors": int(view.base.size)},
        )
    table = score_candidates(graph, ego, methods=(cfg.method,), mode=score_mode,
                             log_base=cfg.log_base, view=view)
    ranking = rank_candidates(table).ranking
    top = ranking[: min(cfg.k, ranking.size)]
    scores = table.scores(cfg.method)
    pos = {int(c): i for i, c in enumerate(table.candidates)}
    header = ("rank", "candidate_id", "candidate_label", "score")
    rows = [
        (r + 1, int(c), edges.labels[int(c)], float(scores[pos[int(c)]]))
        for r, c in enumerate(top)
    ]
    metadata = {"ego": cfg.ego, "method": cfg.method, "mode": mode,
                "snapshot": graph.index}
    path = write_table(_out_path(cfg, "recommendations"), cfg.format, header, rows,
                       metadata=metadata)
    _write_manifest(cfg, "recommend", [path], started,
                    extra={"n_candidates": int(view.candidates.size)})
    print(f"top {len(rows)} of {view.candidates.size} candidates for ego "
          f"{cfg.ego!r} -> {path}")


def _cmd_evaluate(cfg, started):
    edges = _load_edges(cfg)
    series = _build_series(cfg, edges)
    result = evaluate_methods(
        series,
        methods=cfg.methods,
        modes=cfg.modes,
        ks=cfg.ks,
        sample_size=cfg.sample_size,
        seed=cfg.seed,
        cutoff=cfg.cutoff,
        min_candidates=cfg.min_candidates,
        require_formation=cfg.require_formation,
        workers=cfg.workers,
        log_base=cfg.log_base,
    )
    eval_path = write_table(_out_path(cfg, "eval"), cfg.format, EVAL_HEADER,
                            eval_table(result))
    outputs = [eval_path]
    extra = dict(result.metadata)
    if METHOD_CN in cfg.methods and len(cfg.methods) > 1:
        improvement = percent_improvement(result)
        imp_path = write_table(_out_path(cfg, "eval_improvement"), cfg.format,
                               IMPROVEMENT_HEADER, improvement_table(improvement))
        outputs.append(imp_path)
    _write_manifest(cfg, "evaluate", outputs, started, extra=extra)
    print(f"evaluated {len(result.pairs)} method/mode pairs over "
          f"{result.metadata['n_cells']} cells -> {eval_path}")


def _cmd_generate(cfg, started):
    _require(cfg, "kind", "n_nodes")
    if cfg.kind not in ALL_KINDS:
        raise ConfigError(f"kind: unknown generator {cfg.kind!r}")
    spec = GeneratorSpec(
        kind=cfg.kind,
        n_nodes=cfg.n_nodes,
        seed=cfg.seed,
        directed=cfg.directed,
        edge_prob=cfg.edge_prob,
        n_attach=cfg.n_attach,
        method=cfg.method,
        mode=cfg.mode if cfg.mode is not None else MODE_UNDIRECTED,
        n_snapshots=cfg.n_snapshots,
        formation_rate=cfg.formation_rate,
        time_span=cfg.time_span,
    )
    edges = generate(spec)
    normalized = _out_path(cfg, "normalized.csv")
    label_map = _out_path(cfg, "label_map.csv")
    write_normalized_csv(edges, normalized)
    write_label_map_csv(edges, label_map)
    _write_manifest(cfg, "generate", [normalized, label_map], started,
                    extra={"n_nodes": edges.n_nodes, "n_edges": edges.n_edges})
    print(f"generated {edges.n_edges} edges over {edges.n_nodes} nodes -> {normalized}")


_RUNNERS = {
    "ingest": _cmd_ingest,
    "snapshots": _cmd_snapshots,
    "degree-dist": _cmd_degree_dist,
    "empirical": _cmd_empirical,
    "recommend": _cmd_recommend,
    "evaluate": _cmd_evaluate,
    "generate": _cmd_generate,
}

_VALIDATION_ERRORS = (
    ConfigError,
    PreconditionError,
    EmptyInputError,
    ParseError,
    FileNotFoundError,
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("egolink: error: a command is required\n")
        return 1
    started = _time.monotonic()
    try:
        cfg = resolve_config(args)
        _RUNNERS[args.command](cfg, started)
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"egolink {args.command}: error: {exc}\n")
        return 1
    except EmptyResultError as exc:
        sys.stderr.write(f"egolink {args.command}: empty result: {exc}\n")
        if exc.diagnostics:
            sys.stderr.write(f"  diagnostics: {exc.diagnostics}\n")
        return 2
    except Exception as exc:  # last resort: report, never traceback-dump
        sys.stderr.write(f"egolink {args.command}: failed: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
