import contextlib
import csv
import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfuse.cli import _CLI_DEFAULTS, _CONFIG_KEYS, _RENAMED, _default, main
from mapfuse.matcher import MatcherConfig
from mapfuse.history import write_probes_csv
from mapfuse.network import load_network_csv, save_network_csv
from mapfuse.synth import generate_synthetic, make_grid_network
from mapfuse.traffic import SpectralPredictor


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _synth(workdir, *extra, noise="0", vehicles="4", interval="15", habit="0.7",
           speed_args=()):
    args = ["synth",
            "--out", str(workdir / "probes.csv"),
            "--truth-out", str(workdir / "truth.csv"),
            "--nodes-out", str(workdir / "nodes.csv"),
            "--links-out", str(workdir / "links.csv"),
            "--grid-cols", "5", "--grid-rows", "5",
            "--vehicles", vehicles, "--interval", interval,
            "--habit", habit, "--noise", noise, "--seed", "11",
            *speed_args, *extra]
    assert main(args) == 0


def _match_argv(workdir, out, *extra):
    return ["match",
            "--nodes", str(workdir / "nodes.csv"),
            "--links", str(workdir / "links.csv"),
            "--probes", str(workdir / "probes.csv"),
            "--out", str(out),
            *extra]


def _match(workdir, out_name="matches.csv", *extra):
    assert main(_match_argv(workdir, workdir / out_name, *extra)) == 0


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A tiny fleet with its state log, for tests that only read them."""
    d = tmp_path_factory.mktemp("fleet")
    assert main(["synth", "--out", str(d / "probes.csv"), "--truth-out", str(d / "truth.csv"),
                 "--nodes-out", str(d / "nodes.csv"), "--links-out", str(d / "links.csv"),
                 "--grid-cols", "4", "--grid-rows", "4", "--vehicles", "3",
                 "--interval", "60", "--seed", "3"]) == 0
    _match(d, "matches.csv", "--states-out", str(d / "states.csv"),
           "--history-log-out", str(d / "history.log"))
    return d


class TestEndToEnd:
    def test_noise_free_round_trip_is_perfect(self, workdir, capsys):
        # constant speed keeps the probe-pair speed estimator exact; a cold
        # start leaves the habit and traffic judges inert, so kinematics
        # alone must reproduce every edge
        _synth(workdir, "--trips", "1",
               speed_args=("--speed-min", "4", "--speed-max", "4"))
        _match(workdir, "matches.csv", "--predictor", "none", "--equal-weights")
        code = main(["evaluate", "--pred", str(workdir / "matches.csv"),
                     "--truth", str(workdir / "truth.csv"),
                     "--cost-seconds", "2.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy_pct"] == 100.0
        assert report["recall_pct"] == 100.0
        assert report["cost_s_per_trajectory"] > 0

    def test_byte_identical_reruns(self, workdir):
        _synth(workdir, noise="5")
        _match(workdir, "m1.csv")
        _match(workdir, "m2.csv")
        assert (workdir / "m1.csv").read_bytes() == (workdir / "m2.csv").read_bytes()

    def test_outputs_and_warm_start(self, workdir):
        _synth(workdir, noise="5")
        _match(workdir, "m1.csv",
               "--states-out", str(workdir / "states.csv"),
               "--history-log-out", str(workdir / "history.log"),
               "--report", str(workdir / "report.json"),
               "--geojson-dir", str(workdir / "geo"),
               "--debug-dir", str(workdir / "debug"))
        assert (workdir / "states.csv").exists()
        assert (workdir / "history.log").exists()
        report = json.loads((workdir / "report.json").read_text())
        assert report["n_trajectories"] > 0
        assert any((workdir / "geo").iterdir())
        # one search-graph and one candidate-path file per segment
        dumps = sorted(f.name for f in (workdir / "debug").iterdir())
        graphs = [n for n in dumps if n.endswith("_subgraph.geojson")]
        assert graphs and len(dumps) == 2 * len(graphs)
        assert all(n.replace("_subgraph", "_paths") in dumps for n in graphs)
        assert json.loads((workdir / "debug" / graphs[0]).read_text())["features"]
        # warm start from the log and the same probes
        _match(workdir, "m2.csv",
               "--history-log", str(workdir / "history.log"),
               "--history-probes", str(workdir / "probes.csv"))


class TestDownsample:
    def test_thins_probes(self, workdir):
        _synth(workdir)
        code = main(["downsample", "--probes", str(workdir / "probes.csv"),
                     "--out", str(workdir / "thin.csv"), "--interval", "60"])
        assert code == 0
        src = (workdir / "probes.csv").read_text().splitlines()
        thin = (workdir / "thin.csv").read_text().splitlines()
        assert 1 < len(thin) < len(src)

    def test_non_multiple_is_input_error(self, workdir):
        _synth(workdir)
        code = main(["downsample", "--probes", str(workdir / "probes.csv"),
                     "--out", str(workdir / "thin.csv"), "--interval", "40"])
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_2(self, workdir):
        code = main(["match", "--nodes", "nope.csv", "--links", "nope.csv",
                     "--probes", "nope.csv", "--out", str(workdir / "out.csv")])
        assert code == 2

    def test_empty_probes_is_3(self, workdir):
        _synth(workdir)
        (workdir / "empty.csv").write_text(
            "vehicle_id,timestamp,lon,lat,speed_mps,bearing_deg\n")
        code = main(["match", "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--probes", str(workdir / "empty.csv"),
                     "--out", str(workdir / "out.csv")])
        assert code == 3

    def test_bad_config_key_is_2(self, workdir):
        _synth(workdir)
        (workdir / "cfg.json").write_text('{"no_such_knob": 1}')
        code = main(["match", "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--probes", str(workdir / "probes.csv"),
                     "--out", str(workdir / "out.csv"),
                     "--config", str(workdir / "cfg.json")])
        assert code == 2


    @pytest.mark.parametrize("flags, config, name", [
        (["--speed-decay", "0"], {}, "speed_decay"),
        (["--radius", "0"], {}, "radius"),
        (["--update-interval", "0"], {}, "update_interval"),
        (["--k-floor", "0"], {}, "k_floor"),
        ([], {"predictor": "foo"}, "predictor"),
        ([], {"temporal_mode": "time-of-day"}, "temporal_mode"),
        (["--neighbor-weight", "-1", "--collab-spatial", "100000",
          "--collab-temporal", "100000"], {}, "neighbor_weight"),
        (["--decay-ratio", "-1"], {}, "decay_ratio"),
        ([], {"decay_ratio": 1e200}, "decay_ratio"),
        (["--lookback", "nan"], {}, "lookback"),
        (["--split-length", "nan"], {}, "split_length"),
        (["--collab-spatial", "nan"], {}, "collab_spatial"),
        (["--collab-temporal", "-5"], {}, "collab_temporal"),
        (["--trip-gap", "nan"], {}, "trip_gap"),
        (["--k-cap", "2"], {}, "k_cap"),
        (["--judges", ","], {}, "judge"),
        ([], {"jobs": 1}, "jobs"),
        ([], {"k_floor": float("inf")}, "k_floor"),
        ([], {"radius": None}, "radius"),
        ([], {"k_floor": 6.7}, "k_floor"),
        ([], {"radius": True}, "radius"),
    ])
    def test_out_of_range_setting_is_2(self, workdir, capsys, flags, config, name):
        _synth(workdir)
        (workdir / "cfg.json").write_text(json.dumps(config))
        code = main(["match", "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--probes", str(workdir / "probes.csv"),
                     "--out", str(workdir / "out.csv"),
                     "--config", str(workdir / "cfg.json"), *flags])
        assert code == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("jobs", 1), ("temporal_mode", "absolute"),
        pytest.param("weights", {"wp": 0.2, "wc": 0.5, "wa": 0.3}, id="weights")])
    def test_removed_setting_is_gone(self, workdir, capsys, key, value):
        _synth(workdir)
        argv = ["match", "--nodes", str(workdir / "nodes.csv"),
                "--links", str(workdir / "links.csv"),
                "--probes", str(workdir / "probes.csv"),
                "--out", str(workdir / "out.csv")]
        (workdir / "cfg.json").write_text(json.dumps({key: value}))
        assert main([*argv, "--config", str(workdir / "cfg.json")]) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--" + key.replace("_", "-"), str(value)])
        assert exc.value.code == 2

    def test_config_not_an_object_is_2(self, workdir, capsys):
        _synth(workdir)
        # a number, and a list nested past the JSON parser's recursion limit
        for text in ("5", "[" * 100_000 + "]" * 100_000):
            (workdir / "cfg.json").write_text(text)
            code = main(["match", "--nodes", str(workdir / "nodes.csv"),
                         "--links", str(workdir / "links.csv"),
                         "--probes", str(workdir / "probes.csv"),
                         "--out", str(workdir / "out.csv"),
                         "--config", str(workdir / "cfg.json")])
            assert code == 2
            assert "cfg.json" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["duplicate_row", "nan_bearing"])
    def test_malformed_probe_row_is_2(self, workdir, capsys, corrupt):
        _synth(workdir)
        lines = (workdir / "probes.csv").read_text().splitlines()
        if corrupt == "duplicate_row":
            lines.insert(3, lines[3])
        else:
            lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        (workdir / "bad.csv").write_text("\n".join(lines) + "\n")
        code = main(["match", "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--probes", str(workdir / "bad.csv"),
                     "--out", str(workdir / "out.csv")])
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err


class TestBadFiles:
    @pytest.mark.parametrize("case", ["missing_model", "truncated_model", "model_of_other_grid",
                                      "deep_model", "missing_weights", "weights_list",
                                      "weights_number", "weights_string", "weights_null",
                                      "deep_weights", "weights_bool"])
    def test_bad_model_or_weights_file_is_2(self, fleet, tmp_path, capsys, case):
        path = tmp_path / "bad.json"
        if case == "truncated_model":
            net = load_network_csv(str(fleet / "nodes.csv"), str(fleet / "links.csv"), 50.0)
            SpectralPredictor.for_network(net, 2).save(str(path))
            path.write_text(path.read_text()[:100])
        elif case == "model_of_other_grid":
            SpectralPredictor.for_network(make_grid_network(3, 3, 200.0), 2).save(str(path))
        elif case.startswith("deep_"):  # nested past the JSON parser's recursion limit
            path.write_text("[" * 100_000 + "]" * 100_000)
        elif case == "weights_bool":  # weights are cast from their text, as settings are
            path.write_text('{"wp": true, "wc": false, "wa": false}')
        elif case.startswith("weights_"):  # valid JSON, but not an object
            path.write_text({"weights_list": "[1, 2, 3]", "weights_number": "3",
                             "weights_string": '"x"', "weights_null": "null"}[case])
        flags = (["--weights-file", str(path)] if "weights" in case
                 else ["--predictor", "spectral", "--model", str(path)])
        code = main(_match_argv(fleet, tmp_path / "out.csv", *flags))
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["unknown_link", "nan_share"])
    def test_bad_states_row_is_2(self, fleet, tmp_path, capsys, case):
        lines = (fleet / "states.csv").read_text().splitlines()
        if case == "unknown_link":
            lines.append("1,99999,0.5")
        else:
            lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        code = main(["train-predictor", "--nodes", str(fleet / "nodes.csv"),
                     "--links", str(fleet / "links.csv"), "--states", str(tmp_path / "bad.csv"),
                     "--out", str(tmp_path / "model.json"), "--max-steps", "2"])
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err


# every input file of match, evaluate and train-predictor in the fleet fixture
_FLEET_FILES = ("nodes.csv", "links.csv", "probes.csv", "history.log", "matches.csv",
                "truth.csv", "states.csv")


def _reader_argv(d, name, path):
    """The command that reads the fleet's file ``name``, with ``path`` in its place."""
    files = {n: str(d / n) for n in _FLEET_FILES}
    files[name] = str(path)
    if name in ("matches.csv", "truth.csv"):
        return ["evaluate", "--pred", files["matches.csv"], "--truth", files["truth.csv"]]
    network = ["--nodes", files["nodes.csv"], "--links", files["links.csv"]]
    if name == "states.csv":
        return ["train-predictor", *network, "--states", files["states.csv"],
                "--out", str(d / "model-out.json"), "--max-steps", "2", "--epochs", "20"]
    return ["match", *network, "--probes", files["probes.csv"],
            "--history-log", files["history.log"], "--history-probes", str(d / "probes.csv"),
            "--out", str(d / "match-out.csv")]


def _links_without_first_logged(d):
    """The fleet's links file without the first link its history log names."""
    edges = (line.split("|")[2] for line in (d / "history.log").read_text().splitlines())
    logged = next(edge for edge in edges if edge).split(":")[0]
    lines = (d / "links.csv").read_text().splitlines()
    return ("\n".join(line for line in lines if line.split(",")[0] != logged) + "\n").encode()


def _log_with(fleet, edit):
    """The fleet's history log with its first segment line passed through ``edit``."""
    lines = (fleet / "history.log").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.split("|")[3].count(";") >= 1)
    tid, idx, edge, seg = lines[i].split("|")
    lines[i] = "|".join(edit(tid, idx, edge, seg.split(";")))
    return ("\n".join(lines) + "\n").encode()


def _with_non_utf8(path):
    data = path.read_bytes()
    return data[:40] + b"\xff\xfe" + data[40:]


def _with_second_line_twice(path):
    """The file with its second line repeated right after it."""
    lines = path.read_bytes().splitlines(keepends=True)
    return b"".join(lines[:2] + lines[1:])


def _match_flag_replaced(d, flag):
    """The fleet's match CSV with the ``matched`` cell of its first matched row set to ``flag``."""
    lines = (d / "matches.csv").read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.split(",")[5] == "1")
    fields = lines[i].split(",")
    fields[5] = flag
    lines[i] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _states_without_second_interval(d):
    """The fleet's state log without the lines of its second interval."""
    lines = (d / "states.csv").read_text().splitlines()
    second = sorted({int(line.split(",")[0]) for line in lines[1:]})[1]
    return "".join(line + "\n" for line in lines if not line.startswith(f"{second},")).encode()


# case -> (the fleet file it stands in for, its bytes; None for a missing file)
_BAD_INPUTS = {
    "missing_pred": ("matches.csv", lambda d: None),
    "non_utf8_pred": ("matches.csv", lambda d: _with_non_utf8(d / "matches.csv")),
    "non_utf8_probes": ("probes.csv", lambda d: _with_non_utf8(d / "probes.csv")),
    "non_utf8_history_log": ("history.log", lambda d: _with_non_utf8(d / "history.log")),
    "missing_history_log": ("history.log", lambda d: None),
    "history_unknown_link": ("history.log", lambda d: _log_with(d, lambda t, i, e, seg: (
        t, i, "999:1", ";".join(seg + ["999:1"])))),
    "history_unknown_edge": ("history.log", lambda d: _log_with(d, lambda t, i, e, seg: (
        t, i, f"{seg[-1].split(':')[0]}:99", ""))),
    "history_disconnected": ("history.log", lambda d: _log_with(d, lambda t, i, e, seg: (
        t, i, seg[0], ";".join(reversed(seg))))),
    "history_end_edge_mismatch": ("history.log", lambda d: _log_with(d, lambda t, i, e, seg: (
        t, i, seg[0], ";".join(seg)))),
    "links_lost_a_logged_link": ("links.csv", _links_without_first_logged),
    "history_probe_out_of_range": ("history.log", lambda d: _log_with(d, lambda t, i, e, seg: (
        t, "99", e, ";".join(seg)))),
    "history_repeated_probe": ("history.log", lambda d: _with_second_line_twice(d / "history.log")),
    "pred_repeated_probe": ("matches.csv", lambda d: _with_second_line_twice(d / "matches.csv")),
    "pred_matched_not_binary": ("matches.csv", lambda d: _match_flag_replaced(d, "yes")),
    "states_repeated_link": ("states.csv", lambda d: _with_second_line_twice(d / "states.csv")),
    "states_truncated": ("states.csv", lambda d: b"".join(
        (d / "states.csv").read_bytes().splitlines(keepends=True)[:-5])),
    "states_missing_interval": ("states.csv", _states_without_second_interval),
}


class TestBadInputFiles:
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_file_is_2_and_named(self, fleet, tmp_path, capsys, case):
        name, content = _BAD_INPUTS[case]
        bad = tmp_path / "bad.file"
        data = content(fleet)
        if data is not None:
            bad.write_bytes(data)
        assert main(_reader_argv(fleet, name, bad)) == 2
        assert "bad.file" in capsys.readouterr().err

    @pytest.mark.parametrize("name, column", [("nodes.csv", 1), ("links.csv", 2),
                                              ("probes.csv", 3), ("states.csv", 2),
                                              ("matches.csv", 1)])
    def test_row_error_names_file_and_line(self, fleet, tmp_path, capsys, name, column):
        lines = (fleet / name).read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = "abc"
        lines[2] = ",".join(fields)
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        assert main(_reader_argv(fleet, name, bad)) == 2
        assert f"{bad}:3: " in capsys.readouterr().err
        # a blank line is skipped but still counted
        bad.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        assert main(_reader_argv(fleet, name, bad)) == 2
        assert f"{bad}:4: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nodes.csv", "links.csv", "probes.csv", "states.csv",
                                      "matches.csv"])
    def test_short_row_names_file_and_line(self, fleet, tmp_path, capsys, name):
        lines = (fleet / name).read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:2])  # the cells past them read None
        bad = tmp_path / name
        bad.write_text("\n".join(lines) + "\n")
        assert main(_reader_argv(fleet, name, bad)) == 2
        assert f"{bad}:3: " in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [(2, "200"), (3, "95")])
    @pytest.mark.parametrize("command", ["match", "match_history", "calibrate", "downsample"])
    def test_probe_out_of_range_names_file_and_line(self, fleet, tmp_path, capsys, command,
                                                     column, value):
        lines = (fleet / "probes.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = value
        lines[2] = ",".join(fields)
        bad = tmp_path / "probes.csv"
        bad.write_text("\n".join(lines) + "\n")
        network = ["--nodes", str(fleet / "nodes.csv"), "--links", str(fleet / "links.csv")]
        out = str(tmp_path / "out")
        argv = {"match": ["match", *network, "--probes", str(bad), "--out", out],
                "match_history": ["match", *network, "--probes", str(fleet / "probes.csv"),
                                  "--history-log", str(fleet / "history.log"),
                                  "--history-probes", str(bad), "--out", out],
                "calibrate": ["calibrate", *network, "--probes", str(bad), "--out", out],
                "downsample": ["downsample", "--probes", str(bad), "--out", out,
                               "--interval", "120"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: coordinates out of range" in err

    @pytest.mark.parametrize("column, value", [(1, "200"), (2, "-95")])
    def test_node_out_of_range_names_the_nodes_row(self, fleet, tmp_path, capsys, column,
                                                   value):
        lines = (fleet / "nodes.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = value
        lines[2] = ",".join(fields)
        bad = tmp_path / "nodes.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(_reader_argv(fleet, "nodes.csv", bad)) == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: coordinates out of range" in err and "links.csv" not in err


def test_state_log_link_missing_from_links_names_both(fleet, tmp_path, capsys):
    links = tmp_path / "short-links.csv"
    links.write_bytes(_links_without_first_logged(fleet))
    argv = _reader_argv(fleet, "states.csv", fleet / "states.csv")
    argv[argv.index("--links") + 1] = str(links)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "states.csv:" in err and str(links) in err


@pytest.mark.parametrize("vehicle", ["../escaped", "a\0b", "a|b", "a\rb", "a\nb"])
def test_vehicle_id_that_escapes_or_breaks_an_output_is_2(fleet, tmp_path, capsys, vehicle):
    # the id names the GeoJSON and debug files and is a history-log field
    with open(fleet / "probes.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[0] == rows[1][0]:
            row[0] = vehicle
    bad = tmp_path / "probes.csv"
    with open(bad, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    assert main(["match", "--nodes", str(fleet / "nodes.csv"), "--links", str(fleet / "links.csv"),
                 "--probes", str(bad), "--out", str(out / "m.csv"),
                 "--geojson-dir", str(out / "geo"), "--debug-dir", str(out / "debug"),
                 "--history-log-out", str(out / "h.log")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and repr(vehicle) in err
    assert sorted(p.name for p in out.iterdir()) == ["debug", "geo"]
    assert not any((out / "geo").iterdir()) and not any((out / "debug").iterdir())


@pytest.mark.parametrize("argv, name", [
    (["calibrate", "--intervals", "abc"], "--intervals"),
    (["train-predictor", "--max-steps", "2", "--epochs", "0"], "epoch"),
    (["calibrate", "--intervals", "60", "--seed", "-1"], "--seed"),
], ids=["argv0---intervals", "argv2-epoch", "argv3---seed"])  # fixed ids: a deleted case renames none
def test_bad_count_or_list_is_2(fleet, tmp_path, capsys, argv, name):
    files = {"calibrate": ["--probes", str(fleet / "probes.csv")],
             "train-predictor": ["--states", str(fleet / "states.csv")]}[argv[0]]
    code = main([argv[0], "--nodes", str(fleet / "nodes.csv"), "--links", str(fleet / "links.csv"),
                 "--out", str(tmp_path / "out.json"), *files, *argv[1:]])
    assert code == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [("match", ["--equal"]),
                                            ("match", ["--weights", "weights.json"]),
                                            ("calibrate", ["--epochs", "5"])])
def test_flag_prefix_or_removed_flag_is_2(fleet, tmp_path, capsys, command, flags):
    # a prefix of --equal-weights or --weights-file is not taken for it
    with pytest.raises(SystemExit) as exc:
        main([command, "--nodes", str(fleet / "nodes.csv"), "--links", str(fleet / "links.csv"),
              "--probes", str(fleet / "probes.csv"), "--out", str(tmp_path / "out"), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [("match", []), ("match", ["--predictor", "none"]),
                                            ("calibrate", [])])
def test_traffic_judge_alone_is_0(tmp_path, command, flags):
    # the traffic judge is cold in the first interval, so no judge has a score there
    assert main(["synth", "--out", str(tmp_path / "probes.csv"),
                 "--nodes-out", str(tmp_path / "nodes.csv"),
                 "--links-out", str(tmp_path / "links.csv"), "--vehicles", "4", "--trips", "2",
                 "--grid-cols", "5", "--grid-rows", "5", "--interval", "30", "--seed", "1"]) == 0
    assert main([command, "--nodes", str(tmp_path / "nodes.csv"),
                 "--links", str(tmp_path / "links.csv"), "--probes", str(tmp_path / "probes.csv"),
                 "--out", str(tmp_path / "out"), "--judges", "traffic", *flags]) == 0


def test_max_steps_checked_before_the_model_is_built(fleet, tmp_path, capsys, monkeypatch):
    # max_steps + 2 intervals are needed; the log falls one short
    rows = (fleet / "states.csv").read_text().splitlines()[1:]
    max_steps = len({row.split(",")[0] for row in rows}) - 1
    built = []
    monkeypatch.setattr(SpectralPredictor, "for_network",
                        classmethod(lambda cls, *args: built.append(args)))
    code = main(["train-predictor", "--nodes", str(fleet / "nodes.csv"),
                 "--links", str(fleet / "links.csv"), "--states", str(fleet / "states.csv"),
                 "--out", str(tmp_path / "model.json"), "--max-steps", str(max_steps)])
    assert code == 2
    assert "--max-steps" in capsys.readouterr().err
    assert built == []


def test_downsample_infinite_interval_is_2(fleet, tmp_path, capsys):
    assert main(["downsample", "--probes", str(fleet / "probes.csv"),
                 "--out", str(tmp_path / "thin.csv"), "--interval", "inf"]) == 2
    assert "interval" in capsys.readouterr().err


def test_downsample_interval_past_every_trip_is_3(fleet, tmp_path, capsys):
    out = tmp_path / "thin.csv"
    assert main(["downsample", "--probes", str(fleet / "probes.csv"), "--out", str(out),
                 "--interval", "1e308"]) == 3
    assert "no trajectory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--n-trajectories", "-1", "--cost-seconds", "2"],
                                   ["--n-trajectories", "0", "--cost-seconds", "2"],
                                   ["--cost-seconds", "nan"]])
def test_bad_evaluate_cost_is_2(fleet, capsys, flags):
    assert main(["evaluate", "--pred", str(fleet / "matches.csv"),
                 "--truth", str(fleet / "truth.csv"), *flags]) == 2
    assert "--cost-seconds" in capsys.readouterr().err


@pytest.mark.parametrize("flags, name", [(["--interval", "0"], "interval"),
                                         (["--speed-min", "0", "--speed-max", "0"], "speed"),
                                         (["--speed-min", "6", "--speed-max", "2"], "speed"),
                                         (["--noise", "nan"], "noise"),
                                         (["--noise", "-1"], "noise"),
                                         (["--min-duration", "nan"], "duration"),
                                         (["--min-duration", "inf"], "duration"),
                                         (["--min-duration", "-1"], "duration"),
                                         (["--seed", "-1"], "--seed")])
def test_bad_synth_setting_is_2(tmp_path, capsys, flags, name):
    assert main(["synth", "--out", str(tmp_path / "p.csv"), *flags]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("match", "--out"), ("match", "--report"),
                                           ("synth", "--out"), ("train-predictor", "--out")])
def test_unwritable_output_is_2_and_named(fleet, tmp_path, capsys, command, flag):
    bad = tmp_path / "missing" / "out"
    out = str(tmp_path / "out")
    argv = {"match": _match_argv(fleet, out),
            "synth": ["synth", "--out", out, "--grid-cols", "3", "--grid-rows", "3",
                      "--vehicles", "1"],
            "train-predictor": ["train-predictor", "--nodes", str(fleet / "nodes.csv"),
                                "--links", str(fleet / "links.csv"),
                                "--states", str(fleet / "states.csv"), "--out", out,
                                "--max-steps", "2", "--epochs", "1"]}[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("bad_name", ["missing/side.json", "a_directory"])
@pytest.mark.parametrize("command, spy", [("match", "mapfuse.cli.MatchSession.run"),
                                          ("train-predictor", "mapfuse.cli.train_spectral"),
                                          ("calibrate", "mapfuse.calibration.fit_weights"),
                                          ("synth", "mapfuse.cli.generate_synthetic"),
                                          ("downsample", "mapfuse.calibration.downsample")])
def test_outputs_are_checked_before_the_work(fleet, tmp_path, capsys, monkeypatch,
                                             command, spy, bad_name):
    (tmp_path / "a_directory").mkdir()
    bad = str(tmp_path / bad_name)
    out = tmp_path / "out"
    argv = {"match": _match_argv(fleet, out, "--report", bad),
            "train-predictor": ["train-predictor", "--nodes", str(fleet / "nodes.csv"),
                                "--links", str(fleet / "links.csv"),
                                "--states", str(fleet / "states.csv"), "--out", bad,
                                "--max-steps", "2"],
            "calibrate": ["calibrate", "--nodes", str(fleet / "nodes.csv"),
                          "--links", str(fleet / "links.csv"),
                          "--probes", str(fleet / "probes.csv"), "--out", str(out),
                          "--samples-out", bad],
            "synth": ["synth", "--out", str(out), "--truth-out", bad,
                      "--grid-cols", "3", "--grid-rows", "3", "--vehicles", "1"],
            "downsample": ["downsample", "--probes", str(fleet / "probes.csv"), "--out", bad,
                           "--interval", "120"]}[command]
    calls = []
    monkeypatch.setattr(spy, lambda *args, **kwargs: calls.append(args))
    assert main(argv) == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_spectral_size_limit_is_2(fleet, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mapfuse.network.MAX_SPECTRAL_LINKS", 10)
    assert main(["train-predictor", "--nodes", str(fleet / "nodes.csv"),
                 "--links", str(fleet / "links.csv"), "--states", str(fleet / "states.csv"),
                 "--out", str(tmp_path / "model.json"), "--max-steps", "2"]) == 2
    assert "limit of 10" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_split_length_past_the_edge_limit_is_2(fleet, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mapfuse.network.MAX_EDGES", 100)
    assert main(_match_argv(fleet, tmp_path / "m.csv", "--split-length", "1")) == 2
    err = capsys.readouterr().err
    assert "links.csv" in err and "split length 1.0 m" in err


def test_synth_grid_past_the_edge_limit_is_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mapfuse.network.MAX_EDGES", 100)
    monkeypatch.setattr("mapfuse.synth.load_network", lambda *rows: pytest.fail("built"))
    assert main(["synth", "--out", str(tmp_path / "p.csv"),
                 "--grid-cols", "6", "--grid-rows", "6"]) == 2
    assert "grid has 120 links" in capsys.readouterr().err


def test_every_pipeline_key_names_a_config_field():
    fields = {f.name for f in dataclasses.fields(MatcherConfig)}
    for key in set(_CONFIG_KEYS) - set(_CLI_DEFAULTS):
        assert _RENAMED.get(key, key) in fields, key


# flag text -> the same value in a JSON config file; "default" is each setting's default
_FUZZ_VALUES = {"0": 0, "-1": -1, "nan": math.nan, "inf": math.inf, "1e12": 1e12,
                "abc": "abc", "default": None}


@settings(max_examples=40, deadline=None)
@given(picks=st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)),
                             st.sampled_from(sorted(_FUZZ_VALUES)), min_size=1, max_size=3),
       as_flags=st.booleans())
def test_fuzzed_settings_exit_cleanly(fleet, picks, as_flags):
    # any mix of settings ends in a result or a clean input/empty error, never a traceback
    values = {key: _default(key) if text == "default" else _FUZZ_VALUES[text]
              for key, text in picks.items()}
    extra = []
    if as_flags:
        for key, value in values.items():
            text = picks[key] if picks[key] != "default" else str(value)
            extra += ["--" + key.replace("_", "-"), text]
    else:
        (fleet / "fuzz.json").write_text(json.dumps(values))
        extra = ["--config", str(fleet / "fuzz.json")]
    try:
        code = main(_match_argv(fleet, fleet / "fuzz.csv", *extra))
    except SystemExit as exc:  # argparse rejects a value its type cannot parse
        code = exc.code
    assert code in (0, 2, 3)


_CORRUPTIONS = ("drop", "duplicate", "", "nan", "abc", "cut", "non_utf8")


def _corrupt(data: bytes, how: str, line: int, field: int, sep: bytes) -> bytes:
    lines = data.splitlines()
    i = line % len(lines)
    fields = lines[i].split(sep)
    j = field % len(fields)
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "cut":
        lines[i] = sep.join(fields[:j])
    else:
        fields[j] = fields[j] + b"\xff" if how == "non_utf8" else how.encode()
        lines[i] = sep.join(fields)
    return b"\n".join(lines) + b"\n"


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_FLEET_FILES), how=st.sampled_from(_CORRUPTIONS),
       line=st.integers(0, 10_000), field=st.integers(0, 10))
def test_corrupted_file_exits_cleanly(fleet, name, how, line, field):
    # one corrupted input file ends in a result or a clean error that names it
    bad = fleet / f"corrupt-{name}"
    sep = b"|" if name == "history.log" else b","
    bad.write_bytes(_corrupt((fleet / name).read_bytes(), how, line, field, sep))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(_reader_argv(fleet, name, bad))
    assert code in (0, 2, 3)
    if code == 2:
        assert bad.name in err.getvalue()


class TestConfigFile:
    def test_flags_win_over_config(self, workdir):
        _synth(workdir)
        (workdir / "cfg.json").write_text(json.dumps({"radius": 10.0}))
        # radius 10 m finds nothing near most probes; the flag restores it
        _match(workdir, "m1.csv", "--config", str(workdir / "cfg.json"),
               "--radius", "170")
        rows = (workdir / "m1.csv").read_text().splitlines()[1:]
        matched = [r for r in rows if r.split(",")[5] == "1"]
        assert len(matched) > 0.9 * len(rows)

    def test_config_value_applies(self, workdir):
        _synth(workdir, noise="5")
        (workdir / "cfg.json").write_text(json.dumps({"judges": "kinematic"}))
        _match(workdir, "m1.csv", "--config", str(workdir / "cfg.json"))


class TestPredictorTraining:
    def test_train_and_reuse_checkpoint(self, workdir, capsys):
        _synth(workdir, noise="3", vehicles="6")
        _match(workdir, "m1.csv", "--states-out", str(workdir / "states.csv"))
        code = main(["train-predictor",
                     "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--states", str(workdir / "states.csv"),
                     "--out", str(workdir / "model.json"),
                     "--max-steps", "2", "--epochs", "200"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["epochs"] > 0
        _match(workdir, "m2.csv", "--predictor", "spectral",
               "--model", str(workdir / "model.json"))

    def test_spectral_without_model_is_2(self, workdir):
        _synth(workdir)
        code = main(["match", "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--probes", str(workdir / "probes.csv"),
                     "--out", str(workdir / "out.csv"),
                     "--predictor", "spectral"])
        assert code == 2


def test_calibrate_with_spectral_predictor_is_2(fleet, tmp_path):
    # calibrate has no --model, so a spectral predictor cannot be built
    code = main(["calibrate", "--nodes", str(fleet / "nodes.csv"),
                 "--links", str(fleet / "links.csv"), "--probes", str(fleet / "probes.csv"),
                 "--out", str(tmp_path / "weights.json"), "--predictor", "spectral"])
    assert code == 2


def test_calibrate_interval_grid_default():
    from mapfuse.cli import build_parser
    args = build_parser().parse_args(
        ["calibrate", "--nodes", "n", "--links", "l", "--probes", "p", "--out", "w"])
    assert args.intervals == "30,60,120,180,240,300"


class TestCalibrate:
    def test_calibrate_produces_simplex_weights(self, workdir, capsys):
        _synth(workdir, noise="5", vehicles="6")
        code = main(["calibrate",
                     "--nodes", str(workdir / "nodes.csv"),
                     "--links", str(workdir / "links.csv"),
                     "--probes", str(workdir / "probes.csv"),
                     "--out", str(workdir / "weights.json"),
                     "--samples-out", str(workdir / "samples.csv"),
                     "--intervals", "30,60"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        w = summary["weights"]
        assert w["wp"] >= 0 and w["wc"] >= 0 and w["wa"] >= 0
        assert w["wp"] + w["wc"] + w["wa"] == pytest.approx(1.0, abs=1e-9)
        assert summary["n_samples"] >= 30
        assert (workdir / "samples.csv").exists()
        # the fitted weights feed straight back into match
        _match(workdir, "m1.csv", "--weights-file", str(workdir / "weights.json"))

    def test_trips_of_one_interval_are_sampled_as_if_each_ran_alone(self, tmp_path):
        fleet = generate_synthetic(make_grid_network(8, 8, 200.0), 12, 0.7, False, 15.0, 3.0,
                                   seed=4, trips_per_vehicle=1)
        trip = max((t for t in fleet.trajectories if t.probes[-1].t - t.t0 <= 260.0),
                   key=lambda t: t.probes[-1].t - t.t0)
        duration = trip.probes[-1].t - trip.t0
        # both starts fall in the update interval [1200, 1500)
        first = [dataclasses.replace(p, t=p.t - trip.t0 + 1205.0) for p in trip.probes]
        second = [dataclasses.replace(p, t=p.t - trip.t0 + 1235.0 + duration) for p in trip.probes]
        save_network_csv(fleet.network, str(tmp_path / "nodes.csv"), str(tmp_path / "links.csv"))

        def sample_rows(name, probes):
            write_probes_csv(str(tmp_path / f"{name}.csv"), [("v", p) for p in probes])
            # one trip may give fewer than the 30 samples a fit needs (exit 3); they are written
            assert main(["calibrate", "--nodes", str(tmp_path / "nodes.csv"),
                         "--links", str(tmp_path / "links.csv"),
                         "--probes", str(tmp_path / f"{name}.csv"),
                         "--out", str(tmp_path / "w.json"),
                         "--samples-out", str(tmp_path / f"{name}-samples.csv"),
                         "--trip-gap", "20", "--intervals", "15,30"]) in (0, 3)
            with open(tmp_path / f"{name}-samples.csv", newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))[1:]

        pair = sample_rows("pair", first + second)
        alone = sample_rows("first", first) + sample_rows("second", second)
        assert pair and sorted(pair) == sorted(alone)
