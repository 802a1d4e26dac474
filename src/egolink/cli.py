"""Command-line entry point.

Subcommands cover the full pipeline: ``ingest`` normalizes raw edge files,
``snapshots`` summarizes cumulative windows, ``degree-dist`` bins degree
samples, ``empirical`` compares formed against not-formed candidates,
``recommend`` ranks candidates for one ego, ``evaluate`` scores methods by
precision@k, and ``generate`` writes synthetic edge lists.

Each option is declared once, as a field of :class:`RunConfig` with its
default, value kind, help text and check.  It is both a ``--flag`` and a key
of a flat ``key = value`` config file passed via ``--config``.  Precedence:
``--flag`` > ``EGOLINK_OUTPUT_DIR`` (for ``output_dir``) > config file >
default.  Every check runs before any input is read.
Exit codes: 0 on success, 1 for bad input or configuration, 2 for runtime
failures such as empty results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time as _time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from ._util import fmt_float, write_table
from .degree_dist import (
    ALL_KINDS as SAMPLE_KINDS,
    KIND_PERSONALIZED,
    DISTRIBUTION_HEADER,
    distribution_metadata,
    distribution_rows,
    global_degree_samples,
    log_binned_histogram,
    personalized_degree_samples,
)
from .ego import MODE_UNDIRECTED, ego_view, resolve_modes, sample_egos, validate_mode
from .empirical import EMPIRICAL_HEADER, aggregate_empirical, empirical_table
from .errors import (ConfigError, EmptyInputError, EmptyResultError, ParseError,
                     PreconditionError, check_key)
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
from .generators import DEFAULT_TIME_SPAN, GeneratorSpec, generate
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
_MAX_WINDOW = int(np.iinfo(np.int64).max)  # window lengths are int64 time units

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")
_WINDOW_KEYS = ("window_days", "window_seconds", "window_count")


def _opt(default, kind, help, check=None):
    """Declare one option: default, value kind, help text, and a check that
    raises ``ConfigError`` for a bad set value."""
    return field(default=default, metadata={"kind": kind, "help": help, "check": check})


def _at_least(n):
    def check(value):
        if value < n:
            raise ConfigError(f"must be >= {n}, got {value}")
    return check


def _above(x):
    def check(value):
        if value <= x:
            raise ConfigError(f"must be > {x}, got {value}")
    return check


def _one_of(*choices):
    def check(value):
        if value not in choices:
            raise ConfigError(f"expected {' or '.join(map(repr, choices))}, got {value!r}")
    return check


def _window_length(units):
    """A window length rounded to whole time units; ConfigError unless it
    is positive and fits an int64."""
    # a huge finite day count can become inf, which round() rejects
    length = round(units) if units < _MAX_WINDOW else units
    if not 1 <= length <= _MAX_WINDOW:
        raise ConfigError(
            f"window length {units!r} time units is not within 1..{_MAX_WINDOW}")
    return length


def _day_window(days):
    return _window_length(days * SECONDS_PER_DAY)


def _known_mode(mode):
    # only the name: each command checks the mode against --directed
    validate_mode(mode, directed=True)


def _known_modes(modes):
    resolve_modes(True, modes)


def _known_method(method):
    validate_methods((method,))


@dataclass
class RunConfig:
    """Fully resolved options for one command invocation."""

    input: str | None = _opt(None, "str", "path to the raw edge file")
    directed: bool = _opt(False, "bool", "treat edges as directed")
    delimiter: str | None = _opt(None, "str", "force 'comma' or 'whitespace' field splitting",
                                 _one_of("comma", "whitespace"))
    time_mode: str = _opt(TIME_MODE_TIMESTAMP, "str",
                          "third column semantics: 'timestamp' or 'index'",
                          _one_of(TIME_MODE_TIMESTAMP, TIME_MODE_INDEX))
    missing_time: int | None = _opt(None, "int",
                                    "timestamp substituted for blank or \\N time fields")
    drop_zero_out: bool = _opt(False, "bool",
                               "drop nodes that never appear as a source (directed only)")
    window_days: float | None = _opt(None, "float", "snapshot window length in days",
                                     _day_window)
    window_seconds: int | None = _opt(None, "int", "snapshot window length in raw time units",
                                      _window_length)
    window_count: int | None = _opt(None, "int", "number of equal-width snapshot windows",
                                    _at_least(1))
    preassigned: bool = _opt(False, "bool", "treat times as snapshot indices")
    seed: int = _opt(0, "int", "RNG seed for ego sampling and generators", _at_least(0))
    sample_size: int | None = _opt(None, "int",
                                   "number of egos to sample (default: all eligible)",
                                   _at_least(1))
    cutoff: int = _opt(DEFAULT_CUTOFF, "int",
                       "drop egos whose candidate set ever exceeds this size", _at_least(1))
    ks: tuple = _opt(DEFAULT_KS, "int_list",
                     "comma-separated list of k values, strictly ascending", validate_ks)
    methods: tuple = _opt(ALL_METHODS, "str_list", "comma-separated scoring methods",
                          validate_methods)
    modes: tuple | None = _opt(None, "str_list", "comma-separated degree modes", _known_modes)
    min_candidates: int = _opt(0, "int", "minimum candidates for an (ego, snapshot) cell",
                               _at_least(0))
    require_formation: bool = _opt(True, "bool",
                                   "keep only cells with at least one formed edge")
    log_base: float | None = _opt(None, "float",
                                  "logarithm base for scoring terms (default: e)", _above(1))
    output_dir: str = _opt(".", "str", "directory for output files")
    format: str = _opt("csv", "str", "output table format: 'csv' or 'json'",
                       _one_of("csv", "json"))
    workers: int = _opt(1, "int", "worker processes for per-ego stages", _at_least(1))
    kind: str | None = _opt(None, "str", "degree-dist sample kind, or generator kind")
    bins_per_decade: int = _opt(10, "int", "log-histogram resolution", _at_least(1))
    snapshot: int | None = _opt(None, "int", "snapshot index to analyze (default: last)")
    per_neighbor: bool = _opt(False, "bool",
                              "sample global degrees once per (ego, neighbor) pair")
    per_triad: bool = _opt(False, "bool", "split the empirical analysis by directed triad type")
    ego: str | None = _opt(None, "str", "ego node label to recommend for")
    method: str | None = _opt(None, "str", "single scoring method", _known_method)
    mode: str | None = _opt(None, "str", "single degree mode", _known_mode)
    k: int = _opt(10, "int", "list length for recommend", _at_least(1))
    n_nodes: int | None = _opt(None, "int", "generator node count")
    edge_prob: float | None = _opt(None, "float", "generator edge probability")
    n_attach: int | None = _opt(None, "int", "edges per new node (preferential attachment)")
    n_snapshots: int | None = _opt(None, "int", "snapshot count (planted generator)")
    formation_rate: float = _opt(0.05, "float",
                                 "top-score formation probability (planted generator)")
    time_span: int = _opt(DEFAULT_TIME_SPAN, "int", "timestamp range for the uniform generator")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(key, raw):
    """Convert the string form of one config value to its typed form."""
    kind = _FIELDS[key].metadata["kind"]
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
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
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
        if key not in _FIELDS:
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
    for name, (description, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, description=description, add_help=True)
        cmd.add_argument("--config", default=None, help="flat key = value config file")
        for f in fields(RunConfig):
            flag = "--" + f.name.replace("_", "-")
            kind, text = f.metadata["kind"], f.metadata["help"]
            if kind == "bool":
                cmd.add_argument(flag, nargs="?", const="true", default=None,
                                 metavar="BOOL", help=text)
            else:
                cmd.add_argument(flag, default=None, metavar=kind.upper(), help=text)
    return parser


def resolve_config(args):
    """Merge defaults, config file, env override, and flags into a RunConfig.

    Precedence: flag > ``EGOLINK_OUTPUT_DIR`` > config file > default."""
    file_values = read_config_file(args.config) if args.config else {}
    env_dir = os.environ.get("EGOLINK_OUTPUT_DIR")
    if env_dir:  # the env var outranks the file, so it overwrites its value
        file_values["output_dir"] = env_dir
    cfg = RunConfig()
    for key in _FIELDS:
        raw = getattr(args, key)
        value = _parse_value(key, raw) if raw is not None else file_values.get(key)
        if value is not None:
            setattr(cfg, key, value)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    for key, f in _FIELDS.items():
        value = getattr(cfg, key)
        if f.metadata["check"] is not None and value is not None:
            check_key(key, f.metadata["check"], value)
    # at most one window policy; pre-assigned indices take none
    policy = [key for key in _WINDOW_KEYS if getattr(cfg, key) is not None]
    if cfg.preassigned:
        policy.append("preassigned")
    elif cfg.time_mode == TIME_MODE_INDEX:
        policy.append("time_mode=index")
    if len(policy) > 1:
        raise ConfigError(f"window policy: {policy[0]} conflicts with {policy[1]}")


def config_echo(cfg):
    """Flat string map of the resolved config, usable as a config file."""
    echo = {}
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if value is None:
            echo[f.name] = ""
        elif isinstance(value, bool):
            echo[f.name] = "true" if value else "false"
        elif isinstance(value, tuple):
            echo[f.name] = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            echo[f.name] = fmt_float(value)
        else:
            echo[f.name] = str(value)
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


def _load_series(cfg):
    """The input's edges and their cumulative snapshots."""
    edges = _load_edges(cfg)
    if cfg.preassigned or edges.time_mode == TIME_MODE_INDEX:
        return edges, build_snapshots(edges, preassigned=True)
    if cfg.window_count is not None:
        return edges, build_snapshots(edges, fixed_count=cfg.window_count)
    if cfg.window_seconds is not None:
        return edges, build_snapshots(edges, window_length=cfg.window_seconds)
    days = cfg.window_days if cfg.window_days is not None else 90.0
    return edges, build_snapshots(edges, window_length=_day_window(days))


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


def _write_manifest(cfg, command, outputs, started, extra):
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
    manifest.update(extra)
    path = _out_path(cfg, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


# Each runner returns (output paths, manifest extras, summary line).

def _write_edges(cfg, edges, verb):
    normalized = _out_path(cfg, "normalized.csv")
    label_map = _out_path(cfg, "label_map.csv")
    write_normalized_csv(edges, normalized)
    write_label_map_csv(edges, label_map)
    return ([normalized, label_map], {"n_nodes": edges.n_nodes, "n_edges": edges.n_edges},
            f"{verb} {edges.n_edges} edges over {edges.n_nodes} nodes -> {normalized}")


def _cmd_ingest(cfg):
    return _write_edges(cfg, _load_edges(cfg), "ingested")


def _cmd_snapshots(cfg):
    _, series = _load_series(cfg)
    header = ("snapshot", "window_start", "window_end", "new_edges", "total_edges")
    rows = [
        (g.index, g.window_start, g.window_end, int(series.new_edges[i]), g.n_edges)
        for i, g in enumerate(series.graphs)
    ]
    path = write_table(_out_path(cfg, "snapshots"), cfg.format, header, rows)
    return ([path], {"n_snapshots": len(series)},
            f"built {len(series)} cumulative snapshots -> {path}")


def _single_mode(cfg):
    """``mode``, ``undirected`` when unset, checked against ``directed``."""
    mode = cfg.mode if cfg.mode is not None else MODE_UNDIRECTED
    return check_key("mode", validate_mode, mode, cfg.directed)


def _cmd_degree_dist(cfg):
    kind = cfg.kind if cfg.kind is not None else KIND_PERSONALIZED
    check_key("kind", _one_of(*SAMPLE_KINDS), kind)
    mode = _single_mode(cfg)
    if cfg.per_neighbor and kind == KIND_PERSONALIZED:
        raise ConfigError(f"per_neighbor: not used by sample kind {kind!r}")
    _, series = _load_series(cfg)
    graph = _pick_snapshot(cfg, series)
    if kind == KIND_PERSONALIZED:
        samples = personalized_degree_samples(graph, mode=mode)
    else:
        samples = global_degree_samples(graph, mode=mode, per_neighbor=cfg.per_neighbor)
    dist = log_binned_histogram(samples, bins_per_decade=cfg.bins_per_decade)
    name = f"degree_dist_{kind}_{mode}"
    path = write_table(_out_path(cfg, name), cfg.format, DISTRIBUTION_HEADER,
                       distribution_rows(dist), metadata=distribution_metadata(dist, kind, mode))
    return ([path], {"n_samples": dist.n_samples, "shifted": dist.shifted},
            f"binned {dist.n_samples} {kind} degree samples -> {path}")


def _cmd_empirical(cfg):
    # the per-triad rule first, so that each rule names its own key
    check_key("per_triad", resolve_modes, cfg.directed, None, cfg.per_triad)
    modes = check_key("modes", resolve_modes, cfg.directed, cfg.modes, cfg.per_triad)
    _, series = _load_series(cfg)
    stats = aggregate_empirical(
        series,
        egos=sample_egos(series, cfg.sample_size, cfg.seed),
        per_triad=cfg.per_triad,
        degree_modes=modes,
        workers=cfg.workers,
    )
    path = write_table(_out_path(cfg, "empirical"), cfg.format, EMPIRICAL_HEADER,
                       empirical_table(stats))
    return ([path], stats.diagnostics,
            f"empirical stats over {stats.diagnostics['n_egos_contributing']} egos -> {path}")


def _cmd_recommend(cfg):
    _require(cfg, "ego", "method")
    if cfg.method == METHOD_CN and cfg.mode is not None:
        raise ConfigError(f"mode: not used by method {METHOD_CN!r}")
    score_mode = _single_mode(cfg)
    edges, series = _load_series(cfg)
    graph = _pick_snapshot(cfg, series)
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
    top = rank_candidates(table).ranking[: cfg.k]
    scores = table.scores(cfg.method)[np.searchsorted(table.candidates, top)]
    header = ("rank", "candidate_id", "candidate_label", "score")
    rows = [(r + 1, c, edges.labels[c], s)
            for r, (c, s) in enumerate(zip(top.tolist(), scores.tolist()))]
    metadata = {"ego": cfg.ego, "method": cfg.method,
                "mode": MODE_NONE if cfg.method == METHOD_CN else score_mode,
                "snapshot": graph.index}
    path = write_table(_out_path(cfg, "recommendations"), cfg.format, header, rows,
                       metadata=metadata)
    return ([path], {"n_candidates": int(view.candidates.size)},
            f"top {len(rows)} of {view.candidates.size} candidates for ego "
            f"{cfg.ego!r} -> {path}")


def _cmd_evaluate(cfg):
    modes = check_key("modes", resolve_modes, cfg.directed, cfg.modes)
    _, series = _load_series(cfg)
    result = evaluate_methods(
        series,
        methods=cfg.methods,
        modes=modes,
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
    if METHOD_CN in cfg.methods and len(cfg.methods) > 1:
        improvement = percent_improvement(result)
        outputs.append(write_table(_out_path(cfg, "eval_improvement"), cfg.format,
                                   IMPROVEMENT_HEADER, improvement_table(improvement)))
    return (outputs, dict(result.metadata),
            f"evaluated {len(result.pairs)} method/mode pairs over "
            f"{result.metadata['n_cells']} cells -> {eval_path}")


def _cmd_generate(cfg):
    _require(cfg, "kind", "n_nodes")
    spec = GeneratorSpec(
        kind=cfg.kind,
        n_nodes=cfg.n_nodes,
        seed=cfg.seed,
        directed=cfg.directed,
        edge_prob=cfg.edge_prob,
        n_attach=cfg.n_attach,
        method=cfg.method,
        mode=cfg.mode,
        n_snapshots=cfg.n_snapshots,
        formation_rate=cfg.formation_rate,
        time_span=cfg.time_span,
    )
    return _write_edges(cfg, generate(spec), "generated")


# command -> (description, runner), in ``--help`` order
_COMMANDS = {
    "ingest": ("normalize a raw edge file into contiguous integer ids", _cmd_ingest),
    "snapshots": ("summarize cumulative snapshot windows", _cmd_snapshots),
    "degree-dist": ("log-binned degree distribution of one snapshot", _cmd_degree_dist),
    "empirical": ("formed vs not-formed degree statistics across snapshots", _cmd_empirical),
    "recommend": ("ranked candidate list for one ego", _cmd_recommend),
    "evaluate": ("precision@k evaluation of scoring methods", _cmd_evaluate),
    "generate": ("write a synthetic edge list", _cmd_generate),
}

_VALIDATION_ERRORS = (ConfigError, PreconditionError, EmptyInputError, ParseError,
                      FileNotFoundError)


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
        outputs, extra, summary = _COMMANDS[args.command][1](cfg)
        _write_manifest(cfg, args.command, outputs, started, extra)
        print(summary)
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
