"""Command-line behavior: exit codes, config precedence, output files."""

import json
import re

import numpy as np
import pytest

import oracles

from egolink import cli
from egolink.cli import main
from egolink.graph import SnapshotGraph, build_snapshots, ingest_edges


RAW = "\n".join([
    "# toy network",
    "ann,bob,100",
    "bob,col,200",
    "ann,dan,300",
    "col,dan,400",
    "bob,dan,500",
]) + "\n"


@pytest.fixture()
def raw_file(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(RAW)
    return path


#: the top-level keys of every run_manifest.json
MANIFEST_KEYS = {"command", "config", "versions", "wall_time_s", "outputs", "counts"}


def _planted(tmp_path, **overrides):
    out = tmp_path / "gen"
    args = {"kind": "planted-scorer", "n_nodes": "120", "edge_prob": "0.05",
            "method": "pd-cn", "n_snapshots": "3", "seed": "11"}
    args.update(overrides)
    argv = ["generate", "--output-dir", str(out)]
    for key, value in args.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert main(argv) == 0
    return out / "normalized.csv"


class TestExitCodes:
    def test_help_is_success(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unexpected_error_keeps_traceback(self, raw_file, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("boom")
        description, _, keys = cli._COMMANDS["ingest"]
        monkeypatch.setitem(cli._COMMANDS, "ingest", (description, boom, keys))
        assert main(["ingest", "--input", str(raw_file),
                     "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "egolink ingest: failed: boom" in err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_missing_input(self, tmp_path, capsys):
        code = main(["evaluate", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "input" in capsys.readouterr().err

    def test_descending_ks(self, raw_file, capsys):
        code = main(["evaluate", "--input", str(raw_file), "--ks", "10,5"])
        assert code == 1
        assert "ks" in capsys.readouterr().err

    def test_single_snapshot_empirical(self, raw_file, tmp_path, capsys):
        code = main(["empirical", "--input", str(raw_file),
                     "--window-days", "100000",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert "2 snapshots" in capsys.readouterr().err

    def test_empty_result_is_runtime_failure(self, tmp_path, capsys):
        # a window per edge of the path a-b-c-d: a and c, each the other's
        # only candidate, never link, so no cell qualifies
        path = tmp_path / "path.csv"
        path.write_text("a,b,100\nb,c,200\nc,d,300\n")
        code = main(["evaluate", "--input", str(path), "--window-seconds", "100",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert ("egolink evaluate: empty result: no (ego, transition) cell met the "
                "qualification rule") in err

    def test_no_candidates_is_empty_result(self, tmp_path, capsys):
        # the centre of a star reaches only itself two steps out
        star = tmp_path / "star.csv"
        star.write_text("hub,a,1\nhub,b,2\nhub,c,3\n")
        code = main(["recommend", "--input", str(star), "--ego", "hub",
                     "--method", "cn", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "egolink recommend: empty result: ego 'hub' has no candidates" in err
        assert "  diagnostics: {'ego': 'hub', 'n_neighbors': 3}" in err

    def test_comments_only_input(self, tmp_path, capsys):
        path = tmp_path / "comments.csv"
        path.write_text("# nothing\n# here\n")
        assert main(["ingest", "--input", str(path), "--output-dir", str(tmp_path / "o")]) == 1
        assert "input: no edges found" in capsys.readouterr().err

    def test_unknown_ego_label(self, raw_file, tmp_path, capsys):
        code = main(["recommend", "--input", str(raw_file), "--ego", "zed",
                     "--method", "cn", "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert "ego" in capsys.readouterr().err


class TestOneCommandParser:
    """A run builds only its command's parser; every text stays that of the
    full parser."""

    @staticmethod
    def _exit_text(parse, argv, capsys):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        out, err = capsys.readouterr()
        return info.value.code, out, err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_is_the_full_parsers(self, command, capsys):
        full = self._exit_text(cli.build_parser().parse_args, [command, "--help"], capsys)
        assert full[0] == 0 and f"usage: egolink {command} " in full[1]
        assert self._exit_text(main, [command, "--help"], capsys) == full

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_error_is_the_full_parsers(self, command, capsys):
        argv = [command, "--no-such-flag"]
        full = self._exit_text(cli.build_parser().parse_args, argv, capsys)
        assert full[0] == 1 and "unrecognized arguments: --no-such-flag" in full[2]
        assert self._exit_text(main, argv, capsys) == full

    @pytest.mark.parametrize("argv", [["--help"], ["--version"]])
    def test_top_level_text_is_the_full_parsers(self, argv, capsys):
        full = self._exit_text(cli.build_parser().parse_args, argv, capsys)
        assert full[0] == 0
        assert self._exit_text(main, argv, capsys) == full

    def test_full_parser_keeps_every_command(self):
        sub = cli.build_parser()._subparsers._group_actions[0]
        assert list(sub.choices) == list(cli._COMMANDS)

    def test_top_level_help_names_every_command(self, capsys):
        code, out, _ = self._exit_text(main, ["--help"], capsys)
        assert code == 0
        for command, (description, _, _) in cli._COMMANDS.items():
            assert re.search(rf"^ +{command}\b", out, re.MULTILINE), command
            assert description in " ".join(out.split()), command

    def test_unknown_command_names_the_choices(self, capsys):
        code, _, err = self._exit_text(main, ["frobnicate"], capsys)
        assert code == 1
        assert "invalid choice: 'frobnicate'" in err
        assert all(repr(command) in err for command in cli._COMMANDS)

    def test_builds_one_command(self, monkeypatch, capsys):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                            or original(command))
        assert main(["snapshots", "--input", "missing.csv"]) == 1
        assert built == ["snapshots"]
        sub = original("snapshots")._subparsers._group_actions[0]
        assert list(sub.choices) == ["snapshots"]


class TestIngest:
    def test_golden_output(self, raw_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(raw_file),
                     "--output-dir", str(out)]) == 0
        norm = (out / "normalized.csv").read_text()
        assert norm == ("src_id,dst_id,time\n"
                        "0,1,100\n1,2,200\n0,3,300\n2,3,400\n1,3,500\n")
        labels = (out / "label_map.csv").read_text()
        assert labels == "node_id,label\n0,ann\n1,bob\n2,col\n3,dan\n"

    def test_labels_quoted_when_needed(self, tmp_path):
        # whitespace-split labels may hold a comma or a quote; only those
        # fields are quoted, with inner quotes doubled (RFC 4180)
        raw = tmp_path / "raw.txt"
        raw.write_text('a,b hub 1\nhub say"hi" 2\n')
        out = tmp_path / "out"
        assert main(["ingest", "--input", str(raw), "--delimiter", "whitespace",
                     "--output-dir", str(out)]) == 0
        labels = (out / "label_map.csv").read_text()
        assert labels == 'node_id,label\n0,"a,b"\n1,hub\n2,"say""hi"""\n'
        rec = tmp_path / "rec"
        assert main(["recommend", "--input", str(raw), "--delimiter", "whitespace",
                     "--ego", "a,b", "--method", "cn", "--output-dir", str(rec)]) == 0
        lines = (rec / "recommendations.csv").read_text().splitlines()
        # the metadata line is a comment, not a CSV row
        assert lines[0].startswith("# ego=a,b method=cn")
        assert lines[2:] ==['1,2,"say""hi""",1.0']

    def test_reingest_is_stable(self, raw_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["ingest", "--input", str(raw_file), "--output-dir", str(out1)])
        main(["ingest", "--input", str(out1 / "normalized.csv"),
              "--output-dir", str(out2)])
        assert (out1 / "normalized.csv").read_text() == \
            (out2 / "normalized.csv").read_text()

    def test_manifest_written(self, raw_file, tmp_path):
        out = tmp_path / "out"
        main(["ingest", "--input", str(raw_file), "--output-dir", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["input"] == str(raw_file)
        assert "normalized.csv" in manifest["outputs"]
        assert "egolink" in manifest["versions"]
        assert manifest["counts"] == {"n_nodes": 4, "n_edges": 5}


class TestConfigFile:
    def test_flag_beats_file(self, tmp_path):
        data = _planted(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("seed = 9\nks = 1,2\nsample_size = 30\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(cfg),
                     "--input", str(data), "--time-mode", "index",
                     "--seed", "3", "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["seed"] == "3"     # flag wins
        assert manifest["config"]["ks"] == "1,2"     # file fills the rest
        assert set(manifest["counts"]) == {"n_egos_requested", "n_egos_contributing",
                                           "n_egos_skipped_cutoff", "n_cells",
                                           "n_cells_excluded"}

    def test_unknown_key_named(self, raw_file, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("serd = 9\n")
        assert main(["evaluate", "--config", str(cfg),
                     "--input", str(raw_file)]) == 1
        assert "serd" in capsys.readouterr().err

    def test_line_without_equals(self, raw_file, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("# seeds\nseed 9\n")
        assert main(["evaluate", "--config", str(cfg), "--input", str(raw_file)]) == 1
        assert "config: line 2: expected key = value" in capsys.readouterr().err

    def test_unreadable_path(self, raw_file, tmp_path, capsys):
        # a directory cannot be read as a config file
        assert main(["evaluate", "--config", str(tmp_path), "--input", str(raw_file)]) == 1
        assert f"config: cannot read {str(tmp_path)!r}" in capsys.readouterr().err

    def test_bad_value_named(self, raw_file, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("workers = many\n")
        assert main(["evaluate", "--config", str(cfg),
                     "--input", str(raw_file)]) == 1
        assert "workers" in capsys.readouterr().err

    def test_manifest_echo_reproduces(self, tmp_path):
        # every command's manifest replays as its config file
        data = _planted(tmp_path)
        for argv in (
            ["ingest"],
            ["snapshots", "--format", "json"],
            ["degree-dist", "--kind", "global", "--per-neighbor", "--bins-per-decade", "5"],
            ["empirical", "--sample-size", "40", "--seed", "4"],
            ["recommend", "--ego", "3", "--method", "pd-aa", "--k", "5", "--log-base", "2"],
            ["evaluate", "--ks", "1,3,5", "--seed", "4"],
            ["generate", "--kind", "planted-scorer", "--n-nodes", "60", "--edge-prob", "0.1",
             "--method", "pd-cn", "--n-snapshots", "3", "--seed", "5"],
        ):
            if argv[0] != "generate":
                argv = argv + ["--input", str(data), "--time-mode", "index"]
            out1, out2 = tmp_path / argv[0] / "1", tmp_path / argv[0] / "2"
            assert main(argv + ["--output-dir", str(out1)]) == 0
            manifest = json.loads((out1 / "run_manifest.json").read_text())
            # each fact once: the run's counts sit apart from its config echo
            assert set(manifest) == MANIFEST_KEYS
            assert not set(manifest["counts"]) & set(manifest["config"])
            cfg = tmp_path / argv[0] / "replay.cfg"
            cfg.write_text("".join(f"{k} = {v}\n"
                                   for k, v in manifest["config"].items() if v != ""))
            assert main([argv[0], "--config", str(cfg), "--output-dir", str(out2)]) == 0
            for name in manifest["outputs"]:
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestOutputs:
    def test_recommend_matches_oracle(self, tmp_path):
        data = _planted(tmp_path)
        out = tmp_path / "rec"
        assert main(["recommend", "--input", str(data), "--time-mode", "index",
                     "--ego", "3", "--method", "pd-cn", "--k", "10",
                     "--output-dir", str(out)]) == 0
        lines = (out / "recommendations.csv").read_text().splitlines()
        assert lines[0].startswith("# ego=3 method=pd-cn")
        assert lines[1] == "rank,candidate_id,candidate_label,score"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 10
        # recompute the ranking from the raw file with the reference scorer
        src, dst, time = [], [], []
        for line in data.read_text().splitlines()[1:]:
            a, b, t = line.split(",")
            src.append(int(a)); dst.append(int(b)); time.append(int(t))
        n = max(max(src), max(dst)) + 1
        pairs = list(zip(src, dst))
        out_, inn, sym = oracles.adjacency(n, pairs, False)
        ego = 3
        want = oracles.ranking(out_, inn, sym, ego, "pd-cn")
        # every printed score must equal the reference score for that label,
        # in non-increasing order, and the cut must keep the 10 best scores
        # (ties inside a score tier may order either way)
        scores = [float(r[3]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        for row in rows:
            ref = oracles.score(out_, inn, sym, ego, int(row[2]), "pd-cn")
            assert abs(float(row[3]) - ref) < 1e-9
        want_scores = sorted((oracles.score(out_, inn, sym, ego, v, "pd-cn")
                              for v in want), reverse=True)[:10]
        assert np.allclose(scores, want_scores, atol=1e-9)

    def test_json_format(self, tmp_path):
        data = _planted(tmp_path)
        out = tmp_path / "j"
        assert main(["evaluate", "--input", str(data), "--time-mode", "index",
                     "--ks", "1,3", "--format", "json",
                     "--output-dir", str(out)]) == 0
        doc = json.loads((out / "eval.json").read_text())
        assert doc["columns"][0] == "method"
        assert doc["rows"]
        assert not (out / "eval.csv").exists()

    def test_degree_dist_outputs(self, tmp_path):
        data = _planted(tmp_path)
        out = tmp_path / "dd"
        assert main(["degree-dist", "--input", str(data), "--time-mode", "index",
                     "--kind", "global", "--output-dir", str(out)]) == 0
        path = out / "degree_dist_global_undirected.csv"
        header = path.read_text().splitlines()[0]
        assert "kind=global" in header and "mode=undirected" in header

    def test_degree_dist_kind_checked(self, tmp_path, raw_file, capsys):
        assert main(["degree-dist", "--input", str(raw_file),
                     "--kind", "weird", "--output-dir", str(tmp_path / "x")]) == 1
        assert "kind" in capsys.readouterr().err

    def test_snapshot_out_of_range(self, tmp_path, raw_file, capsys):
        assert main(["degree-dist", "--input", str(raw_file),
                     "--snapshot", "99", "--output-dir", str(tmp_path / "x")]) == 1
        assert "snapshot" in capsys.readouterr().err

    def test_generate_requires_fields(self, tmp_path, capsys):
        assert main(["generate", "--kind", "uniform-random",
                     "--output-dir", str(tmp_path / "g")]) == 1
        assert "n_nodes" in capsys.readouterr().err

    def test_snapshots_summary(self, tmp_path):
        data = _planted(tmp_path)
        out = tmp_path / "s"
        assert main(["snapshots", "--input", str(data), "--time-mode", "index",
                     "--output-dir", str(out)]) == 0
        lines = (out / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "snapshot,window_start,window_end,new_edges,total_edges"
        assert len(lines) == 4


class TestEmptyWindows:
    """Windows that add no edge share the snapshot before them."""

    def test_snapshots_rows(self, tmp_path):
        # window [10, 20) adds no edge
        raw = tmp_path / "gap.csv"
        raw.write_text("a,b,0\nb,c,5\nc,d,25\nd,a,27\n")
        out = tmp_path / "s"
        assert main(["snapshots", "--input", str(raw), "--window-seconds", "10",
                     "--output-dir", str(out)]) == 0
        assert (out / "snapshots.csv").read_text() == (
            "snapshot,window_start,window_end,new_edges,total_edges\n"
            "0,0,10,2,2\n"
            "1,10,20,0,2\n"
            "2,20,30,2,4\n")

    @pytest.mark.parametrize("command", [["evaluate", "--ks", "1,3"], ["empirical"]])
    def test_worker_count_stable_bytes(self, tmp_path, command):
        # the planted snapshots 0, 1, 2 at times 0, 2, 4: windows 1 and 3 add no edge
        lines = _planted(tmp_path).read_text().splitlines()
        raw = tmp_path / "gapped.csv"
        raw.write_text("".join(f"{s},{d},{2 * int(t)}\n"
                               for s, d, t in (line.split(",") for line in lines[1:])))
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main([*command, "--input", str(raw), "--window-seconds", "1",
                         "--workers", workers, "--output-dir", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                         if p.name != "run_manifest.json"})
        assert outs[0] == outs[1] and outs[0]
        series = build_snapshots(ingest_edges(str(raw)), window_length=1)
        assert series.new_edges.tolist()[1::2] == [0, 0]


class TestDropZeroOutIndices:
    """``--drop-zero-out`` may not empty a pre-assigned snapshot index."""

    @pytest.mark.parametrize("command", ["ingest", "snapshots"])
    def test_emptied_index_named(self, tmp_path, command, capsys):
        # index 1 holds only a -> x, and x is never a source
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b,0\nb,a,0\na,x,1\nb,c,2\nc,a,2\n")
        assert main([command, "--time-mode", "index", "--directed", "--drop-zero-out",
                     "--input", str(raw), "--output-dir", str(tmp_path / "out")]) == 1
        assert ("error: drop_zero_out: removing the nodes that are never a source removes "
                "every edge of snapshot index 1") in capsys.readouterr().err

    def test_index_kept_by_another_edge(self, tmp_path):
        # a -> x goes, but b -> a keeps index 1
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b,0\nb,a,1\na,x,1\n")
        out = tmp_path / "out"
        assert main(["snapshots", "--time-mode", "index", "--directed", "--drop-zero-out",
                     "--input", str(raw), "--output-dir", str(out)]) == 0
        assert (out / "snapshots.csv").read_text().splitlines()[1:] == ["0,0,1,1,1", "1,1,2,1,2"]


class TestSnapshotBuilds:
    """Each command builds only the snapshots it reads, each once."""

    @pytest.fixture()
    def gapped(self, tmp_path):
        # 6 one-unit windows over times 0..5, of which window 3 adds no edge
        rng = np.random.default_rng(4)
        src = rng.integers(0, 40, 600)
        dst = (src + rng.integers(1, 40, 600)) % 40
        time = rng.choice([0, 1, 2, 4, 5], 600)
        raw = tmp_path / "gapped.csv"
        raw.write_text("".join(f"n{s},n{d},{t}\n" for s, d, t in zip(src, dst, time)))
        series = build_snapshots(ingest_edges(str(raw), directed=True), fixed_count=6)
        assert np.flatnonzero(series.new_edges == 0).tolist() == [3]
        return ["--input", str(raw), "--directed", "--window-count", "6"]

    @pytest.fixture()
    def builds(self, monkeypatch):
        count = []
        set_entries = SnapshotGraph._set_entries

        def counting(graph, *args):
            count.append(1)
            return set_entries(graph, *args)

        monkeypatch.setattr(SnapshotGraph, "_set_entries", counting)
        return count

    @pytest.mark.parametrize("argv, n_builds", [
        pytest.param(["snapshots"], 0, id="snapshots"),
        pytest.param(["degree-dist"], 1, id="degree-dist"),
        pytest.param(["degree-dist", "--snapshot", "0"], 1, id="degree-dist-first"),
        pytest.param(["recommend", "--ego", "n1", "--method", "cn"], 1, id="recommend"),
        # one build per distinct snapshot, all in this process
        *(pytest.param([command, *flags, "--workers", w], 5, id=f"{command}-{w}")
          for command, flags in (("evaluate", ["--ks", "1,3"]), ("empirical", ["--per-triad"]))
          for w in ("1", "2")),
    ])
    def test_builds_per_command(self, gapped, builds, tmp_path, argv, n_builds):
        assert main([*argv, *gapped, "--output-dir", str(tmp_path / "out")]) == 0
        assert len(builds) == n_builds


class TestEnvOverride:
    def test_env_output_dir(self, raw_file, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("EGOLINK_OUTPUT_DIR", str(env_dir))
        assert main(["ingest", "--input", str(raw_file)]) == 0
        assert (env_dir / "normalized.csv").exists()

    def test_flag_beats_env(self, raw_file, tmp_path, monkeypatch):
        monkeypatch.setenv("EGOLINK_OUTPUT_DIR", str(tmp_path / "env"))
        out = tmp_path / "flag"
        assert main(["ingest", "--input", str(raw_file),
                     "--output-dir", str(out)]) == 0
        assert (out / "normalized.csv").exists()
        assert not (tmp_path / "env").exists()


class TestWorkers:
    def test_worker_count_stable_bytes(self, tmp_path):
        data = _planted(tmp_path)
        outs = []
        for idx, workers in enumerate(("1", "2")):
            out = tmp_path / f"w{idx}"
            assert main(["empirical", "--input", str(data),
                         "--time-mode", "index", "--workers", workers,
                         "--output-dir", str(out)]) == 0
            outs.append((out / "empirical.csv").read_bytes())
        assert outs[0] == outs[1]


class TestEgoSets:
    def test_empirical_egos_match_evaluate(self, tmp_path):
        # "late" first links in the last snapshot, so it is isolated in the
        # first one and neither command may take it as an ego; the planted
        # graph has 120 nodes
        data = tmp_path / "late.csv"
        data.write_text(_planted(tmp_path).read_text() + "late,0,2\n")
        read = ["--input", str(data), "--time-mode", "index"]
        assert main(["empirical", *read, "--output-dir", str(tmp_path / "emp")]) == 0
        assert main(["evaluate", *read, "--ks", "1",
                     "--output-dir", str(tmp_path / "ev")]) == 0
        emp = json.loads((tmp_path / "emp" / "run_manifest.json").read_text())
        ev = json.loads((tmp_path / "ev" / "run_manifest.json").read_text())
        assert emp["counts"]["n_egos_requested"] == ev["counts"]["n_egos_requested"] <= 120
