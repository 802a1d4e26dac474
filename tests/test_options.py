"""The option table: every ``RunConfig`` field is a flag, a config key and a
manifest echo entry of each command that reads it, and of no other; its
check fails fast with the key named."""

import dataclasses
import os
import re

import pytest

from egolink.cli import _COMMANDS, RunConfig, build_parser, config_echo, main, read_config_file
from egolink.errors import ConfigError
from egolink.generators import GeneratorSpec

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
# a check may be a count's least value, 0 included
CHECKED = [f.name for f in dataclasses.fields(RunConfig) if f.metadata["check"] is not None]

# one value per checked field that its check must reject
BAD_VALUES = {
    "delimiter": "pipe",
    "time_mode": "hourly",
    "missing_time": "9223372036854775808",
    "window_days": "0",
    "window_seconds": "0",
    "window_count": "0",
    "seed": "-1",
    "sample_size": "0",
    "cutoff": "0",
    "ks": "10,5",
    "methods": "cn,bogus",
    "modes": "out,sideways",
    "min_candidates": "-1",
    "log_base": "1",
    "format": "xml",
    "workers": "0",
    "bins_per_decade": "0",
    "method": "bogus",
    "mode": "sideways",
    "k": "0",
}

LOAD = ("input", "directed", "delimiter", "time_mode", "missing_time", "drop_zero_out")
WINDOWS = ("window_days", "window_seconds", "window_count")
SERIES = LOAD + WINDOWS + ("output_dir", "format")

#: the keys each command reads, and so its flags, config keys and echo
KEYS = {
    "ingest": LOAD + ("output_dir",),
    "snapshots": SERIES,
    "degree-dist": SERIES + ("snapshot", "kind", "mode", "per_neighbor", "bins_per_decade"),
    "empirical": SERIES + ("seed", "sample_size", "modes", "per_triad", "workers"),
    "recommend": SERIES + ("snapshot", "ego", "method", "mode", "k", "log_base"),
    "evaluate": SERIES + ("seed", "sample_size", "cutoff", "ks", "methods", "modes",
                          "min_candidates", "require_formation", "workers"),
    "generate": tuple(f.name for f in dataclasses.fields(GeneratorSpec)) + ("output_dir",),
}
COMMANDS = tuple(KEYS)

#: a command that reads each checked key, for the checks' fail-fast tests
CHECKED_VIA = {"bins_per_decade": "degree-dist", "mode": "degree-dist",
               "method": "recommend", "k": "recommend", "log_base": "recommend"}


def _flag(key):
    return "--" + key.replace("_", "-")


@pytest.fixture()
def idx_file(tmp_path):
    path = tmp_path / "idx.csv"
    path.write_text("src_id,dst_id,time\n0,1,0\n1,2,1\n0,2,2\n2,3,2\n")
    return path


def test_every_check_has_a_bad_value():
    assert sorted(BAD_VALUES) == sorted(CHECKED)


@pytest.mark.parametrize("via", ["flag", "file"])
@pytest.mark.parametrize("key", CHECKED)
def test_bad_value_fails_before_input(key, via, tmp_path, capsys):
    # the input does not exist, so only a check that runs first names the key
    command = CHECKED_VIA.get(key, "evaluate")
    assert key in KEYS[command]
    argv = [command, "--input", str(tmp_path / "missing.csv"),
            "--output-dir", str(tmp_path / "out")]
    if via == "flag":
        argv += [_flag(key), BAD_VALUES[key]]
    else:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {BAD_VALUES[key]}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["window_count", "sample_size", "cutoff", "min_candidates",
                                 "workers", "bins_per_decade", "k"])
def test_count_above_int64_fails_before_input(key, tmp_path, capsys):
    # the count rule bounds each of these at int64; a seed has no bound above
    command = CHECKED_VIA.get(key, "evaluate")
    assert main([command, "--input", str(tmp_path / "missing.csv"),
                 "--output-dir", str(tmp_path / "out"), _flag(key), str(2**63)]) == 1
    err = capsys.readouterr().err
    assert f"error: {key}: must be in " in err and f"..{2**63 - 1}, got {2**63}" in err
    assert not (tmp_path / "out").exists()


def test_every_field_belongs_to_a_command():
    assert {key for keys in KEYS.values() for key in keys} == set(FIELDS)
    assert {name: set(keys) for name, (_, _, keys) in _COMMANDS.items()} == \
        {name: set(keys) for name, keys in KEYS.items()}
    assert len(FIELDS) == 36
    assert {name: len(keys) for name, keys in KEYS.items()} == {
        "ingest": 7, "snapshots": 11, "degree-dist": 16, "empirical": 16, "recommend": 17,
        "evaluate": 20, "generate": 12}
    assert sum(map(len, KEYS.values())) == 99


@pytest.mark.parametrize("command", COMMANDS)
def test_every_field_is_a_flag_and_echoed(command, tmp_path):
    # each field is a flag, config key and echo entry of every command that
    # reads it (see test_every_field_belongs_to_a_command), and of no other
    parser = build_parser()
    keys = KEYS[command]
    assert set(vars(parser.parse_args([command]))) == {"command", "config", *keys}
    for key in keys:
        args = parser.parse_args([command, _flag(key), "1"])
        assert getattr(args, key) == "1", key
    assert sorted(config_echo(RunConfig(), command)) == sorted(keys)
    # a key some other command reads is neither a flag nor a config key here
    other = next(key for key in FIELDS if key not in keys)
    with pytest.raises(SystemExit) as info:
        parser.parse_args([command, _flag(other), "1"])
    assert info.value.code == 1
    cfg = tmp_path / "other.cfg"
    cfg.write_text(f"{other} = 1\n")
    with pytest.raises(ConfigError, match=f"key '{other}' is not read by {command}"):
        read_config_file(cfg, command)


@pytest.mark.parametrize("argv, flag", [
    (["ingest", "--ks", "1,2"], "--ks"),
    (["ingest", "--format", "json"], "--format"),
    (["evaluate", "--mode", "out"], "--mode"),
    (["evaluate", "--k", "5"], "--k"),
    (["evaluate", "--log-base", "2"], "--log-base"),
], ids=["ingest-ks", "ingest-format", "evaluate-mode", "evaluate-k", "evaluate-log-base"])
def test_flag_the_command_does_not_read(argv, flag, tmp_path, capsys):
    # not a prefix of --modes or --ks either: no flag is abbreviated
    with pytest.raises(SystemExit) as info:
        main(argv + ["--input", str(tmp_path / "missing.csv"),
                     "--output-dir", str(tmp_path / "out")])
    assert info.value.code == 1
    err = capsys.readouterr().err
    # the command's own parser reports it, with the command's usage line
    assert f"egolink {argv[0]}: error: unrecognized arguments: {flag} " in err
    assert err.startswith(f"usage: egolink {argv[0]} ")
    assert "COMMAND" not in err
    assert not (tmp_path / "out").exists()


def test_config_key_the_command_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("ks = 1,2\nk = 5\n")
    assert main(["evaluate", "--config", str(cfg), "--input", str(tmp_path / "missing.csv"),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "config: line 2: key 'k' is not read by evaluate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_rejects_log_base_key(tmp_path, capsys):
    # rankings never depend on the base, so only recommend, which writes scores, reads it
    cfg = tmp_path / "c.cfg"
    cfg.write_text("log_base = 2\n")
    assert main(["evaluate", "--config", str(cfg), "--input", str(tmp_path / "missing.csv"),
                 "--output-dir", str(tmp_path / "out")]) == 1
    assert "config: line 1: key 'log_base' is not read by evaluate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_lists_every_key():
    text = open(README, encoding="utf-8").read()
    section = text.split("### Options and config files", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    # a row names a *group* of keys or a `command`; a *group* in a row's
    # keys stands for that group's keys
    groups, listed = {}, {}
    for row in rows:
        name, cell = (part.strip() for part in row.split("|")[1:3])
        keys = []
        for group, key in re.findall(r"\*(\w+)\*|`(\w+)`", cell):
            keys += groups[group] if group else [key]
        if name.startswith("*"):
            groups[name.strip("*")] = keys
        else:
            listed[name.strip("`")] = sorted(keys)
    assert listed == {name: sorted(keys) for name, keys in KEYS.items()}


class TestFiniteFloats:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_window_days_flag(self, value, idx_file, tmp_path, capsys):
        assert main(["snapshots", "--input", str(idx_file), f"--window-days={value}",
                     "--output-dir", str(tmp_path / "o")]) == 1
        assert f"window_days: cannot parse '{value}' as float" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_log_base(self, via, idx_file, tmp_path, capsys):
        argv = ["recommend", "--input", str(idx_file), "--time-mode", "index",
                "--ego", "0", "--method", "pd-cn", "--output-dir", str(tmp_path / "o")]
        if via == "flag":
            argv += ["--log-base", "inf"]
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text("log_base = inf\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert "log_base: cannot parse 'inf' as float" in capsys.readouterr().err


class TestWindowPolicy:
    @pytest.mark.parametrize("flags, other", [
        (["--config", "index.cfg"], "time_mode"),
        (["--time-mode", "index"], "time_mode"),
    ])
    @pytest.mark.parametrize("window", ["window_days", "window_seconds", "window_count"])
    def test_window_with_indices(self, flags, other, window, idx_file, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "index.cfg").write_text("time_mode = index\n")
        assert main(["snapshots", "--input", str(idx_file), *flags, _flag(window), "2",
                     "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert window in err and other in err

    def test_preassigned_index_agree(self, idx_file, tmp_path, capsys):
        # time_mode = index is the one switch for snapshot indices;
        # preassigned is neither a flag nor a config key
        out = tmp_path / "o"
        assert main(["snapshots", "--input", str(idx_file), "--time-mode", "index",
                     "--output-dir", str(out)]) == 0
        assert len((out / "snapshots.csv").read_text().splitlines()) == 4  # 3 windows
        capsys.readouterr()
        gone = tmp_path / "gone"
        with pytest.raises(SystemExit) as info:
            main(["snapshots", "--input", str(idx_file), "--preassigned",
                  "--output-dir", str(gone)])
        assert info.value.code == 1
        assert "egolink snapshots: error: unrecognized arguments: --preassigned" in \
            capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preassigned = true\n")
        assert main(["snapshots", "--input", str(idx_file), "--config", str(cfg),
                     "--output-dir", str(gone)]) == 1
        assert "key 'preassigned' is not read by snapshots" in capsys.readouterr().err
        assert not gone.exists()


class TestWindowLength:
    """A window length must round to a positive int64 number of time units."""

    @pytest.mark.parametrize("key, value", [
        ("window_days", "1e300"),
        ("window_seconds", "99999999999999999999999"),
        ("window_days", "1e-9"),
    ])
    def test_out_of_range(self, key, value, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b,100\nb,c,200\nc,d,5000\n")
        assert main(["snapshots", "--input", str(raw), _flag(key), value,
                     "--output-dir", str(tmp_path / "o")]) == 1
        assert f"error: {key}: window length " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestModeRules:
    """Each degree-mode rule names its key; --directed decides the graph
    kind, so every rule runs before the input is read."""

    @pytest.mark.parametrize("command", ["empirical", "evaluate"])
    def test_empty_modes(self, command, tmp_path, capsys):
        assert main([command, "--input", str(tmp_path / "missing.csv"), "--modes", ",",
                     "--output-dir", str(tmp_path / "o")]) == 1
        assert "error: modes: need at least one degree mode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["evaluate", "--modes", "out"], "modes"),
        (["empirical", "--modes", "out"], "modes"),
        (["degree-dist", "--mode", "in"], "mode"),
        (["recommend", "--mode", "out", "--ego", "0", "--method", "pd-cn"], "mode"),
        (["empirical", "--per-triad"], "per_triad"),
        (["generate", "--kind", "planted-scorer", "--n-nodes", "20", "--edge-prob", "0.2",
          "--method", "pd-cn", "--mode", "out", "--n-snapshots", "2"], "mode"),
    ], ids=["evaluate", "empirical", "degree-dist", "recommend", "per-triad", "generate"])
    def test_undirected_input(self, argv, key, idx_file, tmp_path, capsys):
        # generate reads no input: its graph is undirected without --directed
        read = [] if argv[0] == "generate" else ["--input", str(idx_file), "--time-mode", "index"]
        assert main(argv + read + ["--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: {key}: " in err and "directed graph" in err


@pytest.mark.parametrize("command", ["ingest", "snapshots"])
def test_drop_zero_out_needs_directed(command, tmp_path, capsys):
    # the input does not exist, so only a check that runs first names the key
    assert main([command, "--drop-zero-out", "--input", str(tmp_path / "missing.csv"),
                 "--output-dir", str(tmp_path / "o")]) == 1
    assert "error: drop_zero_out: out-degree filtering applies to directed graphs only" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_UNIFORM = ["--kind", "uniform-random", "--n-nodes", "5", "--edge-prob", "0.1"]
_PREFERENTIAL = ["--kind", "preferential-attachment", "--n-nodes", "10", "--n-attach", "2"]
_PLANTED = ["--kind", "planted-scorer", "--n-nodes", "20", "--edge-prob", "0.2",
            "--method", "cn", "--n-snapshots", "2"]


@pytest.mark.parametrize("argv, key", [
    (_UNIFORM + ["--n-nodes", "0"], "n_nodes"),
    (_UNIFORM + ["--edge-prob", "1.5"], "edge_prob"),
    (_UNIFORM + ["--time-span", "0"], "time_span"),
    (_UNIFORM[:4], "edge_prob"),
    (_PREFERENTIAL + ["--n-attach", "0"], "n_attach"),
    (_PREFERENTIAL + ["--n-nodes", "3"], "n_nodes"),
    (_PREFERENTIAL[:4], "n_attach"),
    (_PLANTED + ["--n-nodes", "2"], "n_nodes"),
    (_PLANTED + ["--edge-prob", "-0.1"], "edge_prob"),
    (_PLANTED + ["--n-snapshots", "1"], "n_snapshots"),
    (_PLANTED + ["--formation-rate", "0"], "formation_rate"),
    (_PLANTED[:-2], "n_snapshots"),
    (["--kind", "star", "--n-nodes", "5"], "kind"),
    # keys past int64 are named too
    (_UNIFORM + ["--time-span", "99999999999999999999"], "time_span"),
    (_UNIFORM + ["--n-nodes", "99999999999999999999"], "n_nodes"),
    (_PREFERENTIAL + ["--n-nodes", "99999999999999999999"], "n_nodes"),
    (_PLANTED + ["--n-nodes", "99999999999999999999"], "n_nodes"),
], ids=["uniform-nodes", "uniform-prob", "uniform-span", "uniform-no-prob",
        "pa-attach", "pa-nodes", "pa-no-attach", "planted-nodes", "planted-prob",
        "planted-snapshots", "planted-rate", "planted-no-snapshots", "kind",
        "uniform-huge-span", "uniform-huge-nodes", "pa-huge-nodes", "planted-huge-nodes"])
def test_generator_check_names_key(argv, key, tmp_path, capsys):
    assert main(["generate", *argv, "--output-dir", str(tmp_path / "o")]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_generator_defaults_agree():
    # cli passes every GeneratorSpec field from the RunConfig key of the same
    # name, so a spec default is the config default; a required one is None
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for f in dataclasses.fields(GeneratorSpec):
        want = None if f.default is dataclasses.MISSING else f.default
        assert defaults[f.name] == want, f.name


@pytest.mark.parametrize("argv, key, kind", [
    (_UNIFORM + ["--n-attach", "2"], "n_attach", "uniform-random"),
    (_UNIFORM + ["--method", "pd-cn"], "method", "uniform-random"),
    (_UNIFORM + ["--mode", "out"], "mode", "uniform-random"),
    (_UNIFORM + ["--n-snapshots", "5"], "n_snapshots", "uniform-random"),
    (_PREFERENTIAL + ["--edge-prob", "0.3"], "edge_prob", "preferential-attachment"),
    (_PLANTED + ["--n-attach", "4"], "n_attach", "planted-scorer"),
], ids=["uniform-attach", "uniform-method", "uniform-mode", "uniform-snapshots",
        "pa-prob", "planted-attach"])
def test_generator_unused_key_named(argv, key, kind, tmp_path, capsys):
    assert main(["generate", *argv, "--output-dir", str(tmp_path / "o")]) == 1
    assert f"error: {key}: not used by generator kind '{kind}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestPrecedence:
    """--flag > EGOLINK_OUTPUT_DIR > config file > default."""

    def _ingest(self, idx_file, tmp_path, *extra):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"output_dir = {tmp_path / 'from_file'}\n")
        return main(["ingest", "--input", str(idx_file), "--config", str(cfg), *extra])

    def test_env_beats_file(self, idx_file, tmp_path, monkeypatch):
        monkeypatch.setenv("EGOLINK_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert self._ingest(idx_file, tmp_path) == 0
        assert (tmp_path / "from_env" / "normalized.csv").exists()
        assert not (tmp_path / "from_file").exists()

    def test_file_beats_default(self, idx_file, tmp_path, monkeypatch):
        monkeypatch.delenv("EGOLINK_OUTPUT_DIR", raising=False)
        assert self._ingest(idx_file, tmp_path) == 0
        assert (tmp_path / "from_file" / "normalized.csv").exists()

    def test_flag_beats_env_and_file(self, idx_file, tmp_path, monkeypatch):
        monkeypatch.setenv("EGOLINK_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert self._ingest(idx_file, tmp_path,
                            "--output-dir", str(tmp_path / "from_flag")) == 0
        assert (tmp_path / "from_flag" / "normalized.csv").exists()
        assert not (tmp_path / "from_env").exists()
        assert not (tmp_path / "from_file").exists()


@pytest.mark.parametrize("argv, message", [
    (["degree-dist", "--kind", "personalized", "--per-neighbor"],
     "per_neighbor: not used by sample kind 'personalized'"),
    (["recommend", "--ego", "0", "--method", "cn", "--mode", "out"],
     "mode: not used by method 'cn'"),
], ids=["degree-dist-per-neighbor", "recommend-cn-mode"])
def test_ignored_key_named(argv, message, tmp_path, capsys):
    # the input does not exist, so the key is named before it is read
    assert main(argv + ["--input", str(tmp_path / "missing.csv"),
                        "--output-dir", str(tmp_path / "o")]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
