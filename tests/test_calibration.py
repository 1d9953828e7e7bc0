import csv
import json
import math

import numpy as np
import pytest

from mapfuse.calibration import (CalibrationSample, )
from mapfuse.calibration import (downsample, fit_weights, ground_truth_paths, path_accuracy,
                                 read_weights_json, write_samples_csv,
                                 write_weights_json)
from mapfuse.history import Probe, Trajectory
from mapfuse.network import InputFormatError
from mapfuse.path_search import SubGraph, find_candidate_edges, k_shortest_paths
from mapfuse.synth import make_grid_network
from mapfuse.traffic import _split_sizes

from conftest import build_network, probe_at, random_digraph, two_grids


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


def _on_link(net, link_id, fraction, t):
    """A probe on a link, heading along it."""
    link = net.link(link_id)
    lon, lat = net.projector.to_lonlat(link.x0 + fraction * (link.x1 - link.x0),
                                       link.y0 + fraction * (link.y1 - link.y0))
    return Probe(t=t, speed=5.0, bearing=link.bearing, lon=lon, lat=lat)


def _truth_and_reference(net, a, fa, b, fb):
    """The ground truth from link ``a`` at fraction ``fa`` to ``b`` at ``fb``,
    and the shortest path between the same candidates over the whole network."""
    traj = Trajectory("hf-0", "hf", (_on_link(net, a, fa, 0.0), _on_link(net, b, fb, 15.0)))
    ((_, got),) = ground_truth_paths(traj, net)
    cands = [find_candidate_edges(*net.projector.to_plane(p.lon, p.lat), p.bearing, net, 170.0)
             for p in traj.probes]
    ref = (k_shortest_paths(SubGraph.whole(net), [cands[0][0]], [cands[1][0]], 1)
           if all(cands) else [])
    return got, (ref[0] if ref else None)


def _ring_with_spur():
    """One-way ring 0 -> 1 -> 2 -> 3 -> 0 of 200 m links and a spur 1 -> 4 (link 4)."""
    nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 200.0, 200.0), (3, 0.0, 200.0),
             (4, 400.0, 0.0)]
    links = [(0, 0, 1, 200.0, None), (1, 1, 2, 200.0, None), (2, 2, 3, 200.0, None),
             (3, 3, 0, 200.0, None), (4, 1, 4, 200.0, None)]
    return build_network(nodes, links)


class _CountingTable(dict):
    """An out-link table that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestGroundTruthRoute:
    def test_length_equals_the_whole_network_search(self):
        rng = np.random.default_rng(29)
        compared, unreachable = 0, 0
        for size, seed in ((6, 1), (10, 2), (16, 3)):
            net = make_grid_network(size, size, 200.0, spacing_jitter=0.25, seed=seed)
            span = 200.0 * (size - 1)
            pairs = 0
            while pairs < 12:  # far-apart links: every monotone route between them ties
                a, b = (net.link(int(lid)) for lid in rng.choice(net.link_ids, size=2))
                if math.hypot(a.x0 - b.x0, a.y0 - b.y0) < 0.6 * span:
                    continue
                got, ref = _truth_and_reference(net, a.id, 0.3, b.id, 0.6)
                assert got.length == ref.length
                pairs += 1
            compared += pairs
        for _ in range(40):
            net = build_network(*random_digraph(rng))
            for _ in range(8):
                a, b = (int(lid) for lid in rng.choice(net.link_ids, size=2))
                got, ref = _truth_and_reference(net, a, float(rng.uniform(0.1, 0.9)),
                                                b, float(rng.uniform(0.1, 0.9)))
                assert (got is None) == (ref is None)
                if ref is None:
                    unreachable += 1
                else:
                    assert got.length == ref.length
                    compared += 1
        assert compared > 150 and unreachable > 0

    def test_end_behind_the_start_goes_round_the_block(self):
        net = _ring_with_spur()
        got, ref = _truth_and_reference(net, 0, 0.7, 0, 0.3)
        assert got.link_ids == ref.link_ids == (0, 1, 2, 3, 0)
        assert got.length == ref.length == pytest.approx(0.3 * 200.0 + 600.0 + 0.3 * 200.0,
                                                         abs=1e-6)
        got, ref = _truth_and_reference(net, 0, 0.3, 0, 0.7)
        assert got.link_ids == ref.link_ids == (0,)
        # a U-turn on a two-way grid goes back by the opposite link
        grid = make_grid_network(4, 4, 200.0, spacing_jitter=0.25, seed=1)
        got, ref = _truth_and_reference(grid, 0, 0.7, 0, 0.3)
        assert got.link_ids == ref.link_ids == (0, 1, 0)
        assert got.length == ref.length

    def test_unreachable_pair(self):
        # nothing leaves the spur's end node
        assert _truth_and_reference(_ring_with_spur(), 4, 0.5, 0, 0.5) == (None, None)

    def test_cost_does_not_grow_with_the_network(self):
        counts = []
        for far_side in (2, 30):
            net = two_grids(far_side)
            out, to_node = net.route_tables
            net.route_tables = (_CountingTable(out), to_node)
            start = next(lid for lid in net.link_ids
                         if (net.link(lid).from_node, net.link(lid).to_node) == (0, 1))
            end = next(lid for lid in net.link_ids
                       if (net.link(lid).from_node, net.link(lid).to_node) == (18, 19))
            traj = Trajectory("hf-0", "hf", (_on_link(net, start, 0.3, 0.0),
                                             _on_link(net, end, 0.6, 15.0)))
            ((_, path),) = ground_truth_paths(traj, net)
            assert path.length == pytest.approx(0.7 * 200.0 + 5 * 200.0 + 0.6 * 200.0, abs=1e-6)
            counts.append(net.route_tables[0].lookups)
        assert counts[0] == counts[1] > 0


class TestDownsample:
    def test_identity_at_source_interval(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        assert downsample(traj, 15.0).probes == traj.probes

    def test_keeps_every_fourth(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(9)])
        thin = downsample(traj, 60.0)
        assert len(thin.probes) == 3
        assert [p.t for p in thin.probes] == [100.0, 160.0, 220.0]
        assert thin.probes[1] == traj.probes[4]  # attributes untouched

    def test_grid_is_whole_source_intervals(self, chain_network):
        # 60.00001 s passes as 4 source intervals of 15 s; a grid of 60.00001 s
        # would drift off the probe times and keep 2 of the 40 probes
        traj = _chain_trajectory(chain_network, [10.0 + 10.0 * i for i in range(40)])
        assert len(downsample(traj, 60.0).probes) == 10
        assert downsample(traj, 60.00001).probes == downsample(traj, 60.0).probes

    def test_rejects_non_multiple(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        with pytest.raises(ValueError):
            downsample(traj, 40.0)

    @pytest.mark.parametrize("interval", [float("inf"), float("nan"), 0.0, -30.0])
    def test_rejects_non_finite_or_non_positive(self, chain_network, interval):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        with pytest.raises(ValueError, match="finite and positive"):
            downsample(traj, interval)

    def test_interval_past_the_trip_keeps_only_the_first_probe(self, chain_network):
        traj = _chain_trajectory(chain_network, [10.0 + 20.0 * i for i in range(6)])
        for interval in (1.5e6, 1e308):
            assert downsample(traj, interval).probes == traj.probes[:1]

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

    def test_a_judge_with_a_negative_planted_weight_gets_exactly_zero(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0, 1, size=(300, 3))
        target = scores @ np.array([0.7, 0.3, -0.2]) + rng.normal(0, 0.01, size=300)
        samples = [CalibrationSample(*row, float(t)) for row, t in zip(scores, target)]
        fit = fit_weights(samples, seed=5)
        assert fit.weights.traffic == 0.0
        assert fit.weights.kinematic + fit.weights.habit == pytest.approx(1.0, abs=1e-12)

    def test_no_point_of_a_simplex_grid_fits_the_training_part_better(self):
        # brute force: every weight vector on a 0.01 grid, each with its best
        # (mean-residual) bias, on the training part of the seeded 6:2:2 split
        steps = np.arange(101)
        grid = np.array([(a, b, 100 - a - b) for a in steps for b in steps[:101 - a]]) / 100.0
        rng = np.random.default_rng(23)
        for trial in range(12):
            n = int(rng.integers(30, 200))
            scores = rng.uniform(0, 1, size=(n, 3)) ** rng.uniform(0.5, 3.0, size=3)
            target = (scores @ rng.normal(0, 1, size=3)
                      + rng.normal(0, rng.uniform(0.01, 0.5), size=n))
            samples = [CalibrationSample(*row, float(t)) for row, t in zip(scores, target)]
            fit = fit_weights(samples, seed=trial)
            train = np.random.default_rng(trial).permutation(n)[:_split_sizes(n)[0]]
            s, y = scores[train], target[train]
            w = np.array(fit.weights.as_tuple())
            loss = float(np.mean((s @ w + fit.bias - y) ** 2))
            grid_losses = (y[:, None] - s @ grid.T).var(axis=0)
            assert loss <= grid_losses.min() + 1e-12

    def test_all_equal_targets_keep_equal_weights(self):
        rng = np.random.default_rng(19)
        scores = rng.uniform(0, 1, size=(100, 3))
        samples = [CalibrationSample(*row, 0.4) for row in scores]
        fit = fit_weights(samples, seed=19)
        # no signal through the weights: they stay equal
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


def test_samples_csv_header_and_nine_decimals(tmp_path):
    samples = [CalibrationSample(0.1, 0.2, 0.3, 0.4), CalibrationSample(1 / 3, 2 / 3, 0.0, 1.0)]
    path = tmp_path / "samples.csv"
    write_samples_csv(str(path), samples)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["S_P", "S_C", "S_A", "Y"],
                    ["0.100000000", "0.200000000", "0.300000000", "0.400000000"],
                    ["0.333333333", "0.666666667", "0.000000000", "1.000000000"]]


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
    assert json.loads(path.read_text())["bias"] == fit.bias  # kept in the file only


@pytest.mark.parametrize("bias", [math.nan, math.inf])
def test_weights_json_with_a_non_finite_bias_is_rejected(tmp_path, bias):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"wp": 0.2, "wc": 0.5, "wa": 0.3, "bias": bias}))
    with pytest.raises(InputFormatError, match="bias must be finite"):
        read_weights_json(str(path))
