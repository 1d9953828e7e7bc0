import json

import pytest

from mapfuse.cli import main


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


def _match(workdir, out_name="matches.csv", *extra):
    args = ["match",
            "--nodes", str(workdir / "nodes.csv"),
            "--links", str(workdir / "links.csv"),
            "--probes", str(workdir / "probes.csv"),
            "--out", str(workdir / out_name),
            *extra]
    assert main(args) == 0


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
               "--geojson-dir", str(workdir / "geo"))
        assert (workdir / "states.csv").exists()
        assert (workdir / "history.log").exists()
        report = json.loads((workdir / "report.json").read_text())
        assert report["n_trajectories"] > 0
        assert any((workdir / "geo").iterdir())
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
        ([], {"temporal_mode": "foo"}, "temporal_mode"),
        (["--neighbor-weight", "-1", "--collab-spatial", "100000",
          "--collab-temporal", "100000"], {}, "neighbor_weight"),
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
                     "--intervals", "30,60",
                     "--epochs", "2000"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        w = summary["weights"]
        assert w["wp"] >= 0 and w["wc"] >= 0 and w["wa"] >= 0
        assert w["wp"] + w["wc"] + w["wa"] == pytest.approx(1.0, abs=1e-9)
        assert summary["n_samples"] >= 30
        assert (workdir / "samples.csv").exists()
        # the fitted weights feed straight back into match
        _match(workdir, "m1.csv", "--weights-file", str(workdir / "weights.json"))
