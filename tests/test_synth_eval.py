import math

import pytest

from mapfuse.calibration import downsample
from mapfuse.evaluate import (EmptyResultError, accuracy_index, cost_index, evaluate_rows,
                              recall_index)
from mapfuse.matcher import MatchRow
from mapfuse.network import InputFormatError
from mapfuse.synth import generate_synthetic, make_grid_network


@pytest.fixture(scope="module")
def grid():
    return make_grid_network(5, 5, spacing=200.0)


class TestGridNetwork:
    def test_shape(self, grid):
        assert len(grid.nodes) == 25
        assert grid.n_links() == 2 * (2 * 4 * 5)
        for lid in grid.link_ids:
            assert grid.link(lid).length == 200.0

    def test_bearings_axis_aligned(self, grid):
        for lid in grid.link_ids:
            b = grid.link(lid).bearing
            assert min(b % 90.0, 90.0 - b % 90.0) < 0.2

    def test_grid_past_the_edge_limit_is_refused_before_any_row(self, monkeypatch):
        # a 6 x 6 grid has 120 links; at one edge each it fits a limit of 120 exactly
        monkeypatch.setattr("mapfuse.network.MAX_EDGES", 120)
        assert make_grid_network(6, 6, split_length=200.0).n_links() == 120
        monkeypatch.setattr("mapfuse.network.MAX_EDGES", 119)
        monkeypatch.setattr("mapfuse.synth.load_network", lambda *rows: pytest.fail("built"))
        with pytest.raises(ValueError, match="6 x 6 grid has 120 links"):
            make_grid_network(6, 6, split_length=200.0)


class TestGenerator:
    def test_seed_determinism(self, grid):
        a = generate_synthetic(grid, 5, 0.7, True, 30.0, 5.0, seed=3)
        b = generate_synthetic(grid, 5, 0.7, True, 30.0, 5.0, seed=3)
        assert [t.id for t in a.trajectories] == [t.id for t in b.trajectories]
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert ta.probes == tb.probes
        c = generate_synthetic(grid, 5, 0.7, True, 30.0, 5.0, seed=4)
        assert any(ta.probes != tc.probes
                   for ta, tc in zip(a.trajectories, c.trajectories))

    def test_full_habit_repeats_one_route_per_direction(self, grid):
        # trips alternate out and back; full habit pins one route each way
        fleet = generate_synthetic(grid, 4, 1.0, False, 30.0, 0.0, seed=6,
                                   trips_per_vehicle=4)
        for vi in range(4):
            for parity in (0, 1):
                routes = {tuple(s[0] for s in fleet.truths[f"v{vi:03d}-{k}"].route.steps)
                          for k in (parity, parity + 2)}
                assert len(routes) == 1
        outbound = tuple(s[0] for s in fleet.truths["v000-0"].route.steps)
        back = tuple(s[0] for s in fleet.truths["v000-1"].route.steps)
        assert outbound != back

    def test_noise_free_probes_sit_on_their_edges(self, grid):
        fleet = generate_synthetic(grid, 4, 0.7, False, 15.0, 0.0, seed=7)
        for traj in fleet.trajectories:
            truth = fleet.truths[traj.id]
            for probe, edge_key in zip(traj.probes, truth.probe_edges):
                x, y = grid.projector.to_plane(probe.lon, probe.lat)
                proj, _ = grid.project_point_to_edge(x, y, grid.edge(edge_key))
                assert proj.distance < 1e-6

    def test_probe_speed_matches_link_speed_when_noise_free(self, grid):
        fleet = generate_synthetic(grid, 3, 0.7, True, 15.0, 0.0, seed=8)
        for traj in fleet.trajectories:
            truth = fleet.truths[traj.id]
            for probe, edge_key in zip(traj.probes, truth.probe_edges):
                assert probe.speed == pytest.approx(fleet.link_speeds[edge_key[0]])

    def test_truth_records_validate_and_align_after_downsample(self, grid):
        fleet = generate_synthetic(grid, 3, 0.7, False, 15.0, 5.0, seed=9,
                                   min_route_duration=150.0)
        from mapfuse.history import validate_record
        for traj in fleet.trajectories:
            thin = downsample(traj, 60.0)
            if len(thin.probes) < 2:
                continue
            rec = fleet.truth_record_for(thin)
            validate_record(grid, rec)
            assert len(rec.matched_edges) == len(thin.probes)
            # segment paths start at the previous probe's edge
            for i in range(1, len(thin.probes)):
                assert rec.paths[i][0] == rec.matched_edges[i - 1]

    def test_trip_index_helper(self, grid):
        fleet = generate_synthetic(grid, 3, 0.7, False, 30.0, 0.0, seed=10,
                                   trips_per_vehicle=2)
        first = fleet.trajectories_of_trip(0)
        second = fleet.trajectories_of_trip(1)
        assert len(first) == 3 and len(second) == 3
        for a, b in zip(first, second):
            assert a.vehicle == b.vehicle
            assert b.t0 > a.t_end


def _row(tid, idx, t, edge, path=None):
    return ((tid, idx), MatchRow(tid, idx, t, edge, path))


class TestIndices:
    def test_accuracy_counting(self):
        truth = dict([_row("a", 0, 0.0, (1, 1)), _row("a", 1, 30.0, (1, 2)),
                      _row("a", 2, 60.0, (2, 1)), _row("a", 3, 90.0, (3, 1))])
        pred = dict([_row("a", 0, 0.0, (1, 1)), _row("a", 1, 30.0, (1, 2)),
                     _row("a", 2, 60.0, (2, 1)), _row("a", 3, 90.0, (9, 9))])
        assert accuracy_index(pred, truth) == pytest.approx(75.0)
        assert accuracy_index(truth, truth) == 100.0

    def test_unmatched_counts_as_incorrect(self):
        truth = dict([_row("a", 0, 0.0, (1, 1)), _row("a", 1, 30.0, (1, 2))])
        pred = dict([_row("a", 0, 0.0, (1, 1)), _row("a", 1, 30.0, None)])
        assert accuracy_index(pred, truth) == pytest.approx(50.0)

    def test_misaligned_rejected(self):
        truth = dict([_row("a", 0, 0.0, (1, 1))])
        pred = dict([_row("b", 0, 0.0, (1, 1))])
        with pytest.raises(InputFormatError):
            accuracy_index(pred, truth)

    def test_recall_mean_of_overlaps(self):
        truth = dict([
            _row("a", 0, 0.0, (1, 1)),
            _row("a", 1, 30.0, (1, 2), ((1, 1), (1, 2))),
            _row("a", 2, 60.0, (2, 2), ((2, 1), (2, 2))),
        ])
        pred = dict([
            _row("a", 0, 0.0, (1, 1)),
            _row("a", 1, 30.0, (1, 2), ((1, 1), (1, 2))),          # overlap 1.0
            _row("a", 2, 60.0, (2, 2), ((9, 9), (2, 2))),          # overlap 0.5
        ])
        assert recall_index(pred, truth) == pytest.approx(75.0)

    def test_recall_empty_inferred_counts_zero(self):
        truth = dict([_row("a", 0, 0.0, (1, 1)),
                      _row("a", 1, 30.0, (1, 2), ((1, 1), (1, 2)))])
        pred = dict([_row("a", 0, 0.0, (1, 1)), _row("a", 1, 30.0, None, None)])
        assert recall_index(pred, truth) == 0.0

    def test_perfect_match_is_perfect(self):
        truth = dict([_row("a", 0, 0.0, (1, 1)),
                      _row("a", 1, 30.0, (1, 2), ((1, 1), (1, 2)))])
        assert accuracy_index(truth, truth) == 100.0
        assert recall_index(truth, truth) == 100.0

    def test_cost(self):
        assert cost_index([0.5], 1) == 0.5
        assert cost_index([1.0, 3.0], 10) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            cost_index([1.0], 0)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -1.0])
    def test_cost_rejects_non_finite_or_negative_time(self, seconds):
        with pytest.raises(ValueError, match="wall times"):
            cost_index([1.0, seconds], 2)

    def test_indices_are_pure(self):
        truth = dict([_row("a", 0, 0.0, (1, 1)),
                      _row("a", 1, 30.0, (1, 2), ((1, 1), (1, 2)))])
        assert accuracy_index(truth, truth) == accuracy_index(truth, truth)
        assert recall_index(truth, truth) == recall_index(truth, truth)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyResultError):
            accuracy_index({}, {})


class TestReport:
    def test_per_interval_breakdown(self):
        truth = {}
        pred = {}
        for tid, dt in (("a", 30.0), ("b", 60.0)):
            for i in range(3):
                key, row = _row(tid, i, i * dt, (1, 1),
                                ((1, 1),) if i else None)
                truth[key] = row
                pred[key] = row
        report = evaluate_rows(pred, truth)
        assert report.accuracy == 100.0
        assert set(report.per_interval) == {30, 60}
        assert report.per_interval[30]["accuracy_pct"] == 100.0
        payload = report.to_json()
        assert '"accuracy_pct": 100.0' in payload
