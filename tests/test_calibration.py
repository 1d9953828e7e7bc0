import numpy as np
import pytest

from mapfuse.calibration import (CalibrationSample, )
from mapfuse.calibration import (downsample, fit_weights, ground_truth_paths, path_accuracy,
                                 read_samples_csv, read_weights_json, write_samples_csv,
                                 write_weights_json)
from mapfuse.history import Trajectory

from conftest import probe_at


def _chain_trajectory(net, positions, dt=15.0, speed=5.0):
    probes = tuple(probe_at(net, x, 0.0, 100.0 + i * dt, speed=speed)
                   for i, x in enumerate(positions))
    return Trajectory("hf-0", "hf", probes)


class TestGroundTruth:
    def test_straight_chain_round_trip(self, chain_network):
        # vehicle at 5 m/s from x=10: positions every 15 s: 10, 85, 160, 235, 310
        positions = [10.0 + 75.0 * i for i in range(5)]
        traj = _chain_trajectory(chain_network, positions)
        got = ground_truth_paths(traj, chain_network)
        assert [i for i, _ in got] == [1, 2, 3, 4]
        assert all(p is not None for _, p in got)
        # concatenated edges reproduce the generating span 10 -> 310
        edges = []
        for _, p in got:
            for e in p.edges:
                if not edges or edges[-1] != e:
                    edges.append(e)
        assert edges == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (1, 3)]
        # each segment's length is the traveled distance
        assert got[0][1].length == pytest.approx(75.0, abs=1e-6)

    def test_stationary_pair_zero_length(self, chain_network):
        traj = _chain_trajectory(chain_network, [100.0, 100.0], speed=0.0)
        got = ground_truth_paths(traj, chain_network)
        path = got[0][1]
        assert path is not None
        assert path.length == pytest.approx(0.0, abs=1e-6)
        assert path.edges == ((0, 2),)

    def test_unreachable_pair_skipped(self):
        from conftest import build_network
        nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 600.0, 0.0), (3, 800.0, 0.0)]
        links = [(0, 0, 1, None, None), (1, 2, 3, None, None)]
        net = build_network(nodes, links)
        traj = Trajectory("hf-0", "hf", (
            probe_at(net, 50.0, 0.0, 0.0), probe_at(net, 700.0, 0.0, 15.0)))
        got = ground_truth_paths(traj, net)
        assert got == [(1, None)]


class TestDownsample:
    def _traj(self, net, n=9, dt=15.0):
        return _chain_trajectory(net, [10.0 + 5.0 * dt * i / 15.0 * 15.0 / dt * dt / 3.0
                                       for i in range(n)], dt=dt)

    def test_identity_at_source_interval(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        assert downsample(traj, 15.0).probes == traj.probes

    def test_keeps_every_fourth(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(9)])
        thin = downsample(traj, 60.0)
        assert len(thin.probes) == 3
        assert [p.t for p in thin.probes] == [100.0, 160.0, 220.0]
        assert thin.probes[1] == traj.probes[4]  # attributes untouched

    def test_rejects_non_multiple(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        with pytest.raises(ValueError):
            downsample(traj, 40.0)

    @pytest.mark.parametrize("interval", [float("inf"), float("nan"), 0.0, -30.0])
    def test_rejects_non_finite_or_non_positive(self, chain_network, interval):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        with pytest.raises(ValueError, match="finite and positive"):
            downsample(traj, interval)

    def test_composition_is_idempotent_on_aligned_grids(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 10.0 * i for i in range(17)])
        once = downsample(traj, 60.0)
        twice = downsample(downsample(traj, 30.0), 60.0)
        assert once.probes == twice.probes


class TestPathAccuracy:
    def test_identical(self):
        edges = ((0, 1), (0, 2), (1, 1))
        assert path_accuracy(edges, edges) == 1.0

    def test_disjoint(self):
        assert path_accuracy(((0, 1), (0, 2)), ((5, 1), (5, 2))) == 0.0

    def test_three_of_four(self):
        got = path_accuracy(((0, 1), (0, 2), (0, 3), (9, 9)),
                            ((0, 1), (0, 2), (0, 3), (0, 4)))
        assert got == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            path_accuracy((), ((0, 1),))


class TestFitWeights:
    def test_planted_recovery(self):
        rng = np.random.default_rng(17)
        scores = rng.uniform(0, 1, size=(500, 3))
        target = scores @ np.array([0.2, 0.5, 0.3]) + rng.normal(0, 0.01, size=500)
        samples = [CalibrationSample(*row, float(t)) for row, t in zip(scores, target)]
        fit = fit_weights(samples, seed=17)
        assert fit.weights.kinematic == pytest.approx(0.2, abs=0.05)
        assert fit.weights.habit == pytest.approx(0.5, abs=0.05)
        assert fit.weights.traffic == pytest.approx(0.3, abs=0.05)
        total = fit.weights.kinematic + fit.weights.habit + fit.weights.traffic
        assert total == pytest.approx(1.0, abs=1e-9)
        assert not fit.degenerate

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(18)
        scores = rng.uniform(0, 1, size=(200, 3))
        target = scores @ np.array([0.6, 0.3, 0.1]) + rng.normal(0, 0.05, size=200)
        samples = [CalibrationSample(*row, float(t)) for row, t in zip(scores, target)]
        fit = fit_weights(samples, seed=18)
        hist = fit.train_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_all_equal_targets_keep_equal_weights(self):
        rng = np.random.default_rng(19)
        scores = rng.uniform(0, 1, size=(100, 3))
        samples = [CalibrationSample(*row, 0.4) for row in scores]
        fit = fit_weights(samples, seed=19)
        # no signal through the weights: softmax of zero logits
        assert fit.weights.kinematic == pytest.approx(1 / 3, abs=0.02)
        assert fit.weights.habit == pytest.approx(1 / 3, abs=0.02)
        assert fit.weights.traffic == pytest.approx(1 / 3, abs=0.02)
        assert fit.bias == pytest.approx(0.4, abs=0.01)

    def test_degenerate_scores_flagged(self):
        samples = [CalibrationSample(0.5, 0.5, 0.5, float(y))
                   for y in np.linspace(0, 1, 60)]
        fit = fit_weights(samples)
        assert fit.degenerate
        assert fit.weights.kinematic == pytest.approx(1 / 3)

    def test_needs_an_epoch(self):
        samples = [CalibrationSample(0.1 * (i % 7), 0.2, 0.3, 0.4) for i in range(40)]
        with pytest.raises(ValueError, match="epoch"):
            fit_weights(samples, max_epochs=0)

    def test_needs_thirty_samples(self):
        samples = [CalibrationSample(0.1, 0.2, 0.3, 0.4)] * 29
        with pytest.raises(ValueError):
            fit_weights(samples)

    def test_rounded_presentation(self):
        rng = np.random.default_rng(20)
        scores = rng.uniform(0, 1, size=(400, 3))
        target = scores @ np.array([0.19, 0.52, 0.29]) + rng.normal(0, 0.01, size=400)
        samples = [CalibrationSample(*row, float(t)) for row, t in zip(scores, target)]
        fit = fit_weights(samples, seed=20)
        assert fit.rounded.kinematic == pytest.approx(0.2)
        assert fit.rounded.habit == pytest.approx(0.5)
        assert fit.rounded.traffic == pytest.approx(0.3)


def test_samples_csv_round_trip(tmp_path):
    samples = [CalibrationSample(0.1, 0.2, 0.3, 0.4), CalibrationSample(0.9, 0.8, 0.7, 1.0)]
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), samples)
    again = read_samples_csv(str(path))
    assert again == samples


def test_weights_json_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    scores = rng.uniform(0, 1, size=(100, 3))
    target = scores @ np.array([0.2, 0.5, 0.3])
    samples = [CalibrationSample(*row, float(t)) for row, t in zip(scores, target)]
    fit = fit_weights(samples, seed=21)
    path = tmp_path / "weights.json"
    write_weights_json(str(path), fit)
    loaded = read_weights_json(str(path))
    assert loaded.kinematic == pytest.approx(fit.weights.kinematic)
    assert loaded.habit == pytest.approx(fit.weights.habit)
    assert loaded.bias == pytest.approx(fit.bias)
