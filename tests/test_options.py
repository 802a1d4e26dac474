"""The option table: every ``RunConfig`` field is one flag, one config key and
one manifest echo entry, and its check fails fast with the key named."""

import dataclasses
import os
import re

import pytest

from egolink.cli import RunConfig, build_parser, config_echo, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
CHECKED = [f.name for f in dataclasses.fields(RunConfig) if f.metadata["check"]]

# one value per checked field that its check must reject
BAD_VALUES = {
    "delimiter": "pipe",
    "time_mode": "hourly",
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

COMMANDS = ("ingest", "snapshots", "degree-dist", "empirical", "recommend",
            "evaluate", "generate")


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
    argv = ["evaluate", "--input", str(tmp_path / "missing.csv"),
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


@pytest.mark.parametrize("command", COMMANDS)
def test_every_field_is_a_flag_and_echoed(command):
    parser = build_parser()
    for key in FIELDS:
        args = parser.parse_args([command, _flag(key), "1"])
        assert getattr(args, key) == "1", key
    assert list(config_echo(RunConfig())) == FIELDS


def test_readme_lists_every_key():
    text = open(README, encoding="utf-8").read()
    section = text.split("### Options and config files", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    listed = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[2])]
    assert sorted(listed) == sorted(FIELDS)


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
        (["--preassigned"], "preassigned"),
        (["--time-mode", "index"], "time_mode"),
    ])
    @pytest.mark.parametrize("window", ["window_days", "window_seconds", "window_count"])
    def test_window_with_indices(self, flags, other, window, idx_file, tmp_path, capsys):
        assert main(["snapshots", "--input", str(idx_file), *flags, _flag(window), "2",
                     "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert window in err and other in err

    def test_preassigned_index_agree(self, idx_file, tmp_path):
        out = tmp_path / "o"
        assert main(["snapshots", "--input", str(idx_file), "--preassigned",
                     "--time-mode", "index", "--output-dir", str(out)]) == 0
        assert len((out / "snapshots.csv").read_text().splitlines()) == 4


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
        assert main(argv + ["--input", str(idx_file), "--time-mode", "index",
                            "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: {key}: " in err and "directed graph" in err


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
], ids=["uniform-nodes", "uniform-prob", "uniform-span", "uniform-no-prob",
        "pa-attach", "pa-nodes", "pa-no-attach", "planted-nodes", "planted-prob",
        "planted-snapshots", "planted-rate", "planted-no-snapshots", "kind"])
def test_generator_check_names_key(argv, key, tmp_path, capsys):
    assert main(["generate", *argv, "--output-dir", str(tmp_path / "o")]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
