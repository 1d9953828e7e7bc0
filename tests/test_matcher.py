import dataclasses
import math

import pytest

from mapfuse.geometry import bearing_inclination
from mapfuse.history import HistoryStore, MatchRecord, Trajectory
from mapfuse.matcher import (MatcherConfig, MatchSession, TrafficLedger, read_match_csv,
                             write_match_csv)
from mapfuse.scoring import FusionWeights
from mapfuse.synth import generate_synthetic, make_grid_network
from mapfuse.traffic import TrafficConfig

from conftest import build_network, probe_at


def _cold_config(**kw):
    defaults = dict(predictor="none", weights=FusionWeights.equal())
    defaults.update(kw)
    return MatcherConfig(**defaults)


class TestSegments:
    def test_stopped_vehicle_zero_link_path(self, chain_network):
        traj = Trajectory("v-0", "v", (
            probe_at(chain_network, 130.0, 0.0, 0.0, speed=0.0),
            probe_at(chain_network, 130.0, 0.0, 30.0, speed=0.0)))
        session = MatchSession(chain_network, _cold_config())
        record = session.match_trajectory(traj)
        assert record.matched_edges == ((0, 3), (0, 3))
        assert record.paths[1] == ((0, 3),)

    def test_single_route_recovered(self, chain_network):
        # 5 m/s along the chain, probes every 30 s
        traj = Trajectory("v-0", "v", tuple(
            probe_at(chain_network, 10.0 + 150.0 * i, 0.0, 30.0 * i, speed=5.0)
            for i in range(4)))
        session = MatchSession(chain_network, _cold_config())
        record = session.match_trajectory(traj)
        assert all(e is not None for e in record.matched_edges)
        assert record.paths[1] == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert record.matched_edges[0] == (0, 1)

    def test_unmatched_gap_recovers_at_next_anchor(self, chain_network):
        traj = Trajectory("v-0", "v", (
            probe_at(chain_network, 10.0, 0.0, 0.0, speed=5.0),
            probe_at(chain_network, 10.0, 5000.0, 60.0, speed=5.0),   # off the map
            probe_at(chain_network, 250.0, 0.0, 120.0, speed=5.0),
            probe_at(chain_network, 325.0, 0.0, 135.0, speed=5.0)))
        session = MatchSession(chain_network, _cold_config())
        record = session.match_trajectory(traj)
        assert record.matched_edges[0] is None
        assert record.matched_edges[1] is None
        assert record.matched_edges[2] is not None
        assert record.matched_edges[3] is not None
        assert record.paths[3] is not None

    def test_first_probe_candidates_carried(self, chain_network):
        session = MatchSession(chain_network, _cold_config())
        cands = session.match_first_probe(probe_at(chain_network, 10.0, 3.0, 0.0))
        assert len(cands) == 1
        assert cands[0].edge.key == (0, 1)


@pytest.mark.parametrize("predictor", ["none", "naive"])
def test_traffic_judge_alone_without_prediction_picks_by_the_tie_rule(predictor):
    net, trajs = TestSessionFeedback._fleet()
    session = MatchSession(net, _cold_config(predictor=predictor, use_kinematic=False,
                                             use_habit=False))
    outcomes = [outcome for traj in trajs for _, outcome in session.segment_outcomes(traj)]
    assert outcomes
    for outcome in outcomes:  # nothing is fed back, so no interval has a prediction
        assert outcome.path == min(outcome.candidates, key=lambda p: p.sort_key)


def _diamond_network():
    # two equal-length routes between A and C; bottom links get smaller ids
    nodes = [(0, -200.0, 0.0), (1, 0.0, 0.0), (2, 200.0, -150.0), (3, 200.0, 150.0),
             (4, 400.0, 0.0), (5, 600.0, 0.0)]
    links = [
        (0, 0, 1, 200.0, None),
        (1, 1, 2, 250.0, None), (2, 2, 4, 250.0, None),   # bottom
        (3, 1, 3, 250.0, None), (4, 3, 4, 250.0, None),   # top
        (5, 4, 5, 200.0, None),
    ]
    return build_network(nodes, links, split_length=250.0)


def _diamond_history_record(net):
    """A past ego trip through the top of the diamond."""
    top_path = ((0, 1), (3, 1), (4, 1), (5, 1))
    start = probe_at(net, -100.0, 0.0, 0.0)
    end = probe_at(net, 500.0, 0.0, 0.0)
    return MatchRecord(
        trajectory_id="v-hist", vehicle="v",
        probe_times=(0.0, 60.0),
        matched_edges=(top_path[0], top_path[-1]),
        paths=(None, top_path),
        start_lonlat=(start.lon, start.lat),
        end_lonlat=(end.lon, end.lat),
        t0=0.0, t_end=60.0)


class TestDiamondAblation:
    def _trajectory(self, net):
        v = 700.0 / 60.0  # exact mean speed over either route
        return Trajectory("v-0", "v", (
            probe_at(net, -100.0, 0.0, 7200.0, speed=v),
            probe_at(net, 500.0, 0.0, 7260.0, speed=v)))

    def test_habit_score_steers_the_tie(self):
        net = _diamond_network()
        traj = self._trajectory(net)
        top_edges = {(3, 1), (4, 1)}
        bottom_edges = {(1, 1), (2, 1)}

        history = HistoryStore(net)
        history.record_match(_diamond_history_record(net))
        with_habit = MatchSession(net, _cold_config(), history=history)
        record = with_habit.match_trajectory(traj)
        assert top_edges <= set(record.paths[1])
        assert not (bottom_edges & set(record.paths[1]))

        history2 = HistoryStore(net)
        history2.record_match(_diamond_history_record(net))
        kinematic_only = MatchSession(
            net, _cold_config(use_habit=False), history=history2)
        record2 = kinematic_only.match_trajectory(traj)
        # pure tie: lexicographic edge ids pick the bottom route
        assert bottom_edges <= set(record2.paths[1])


class TestInvariantsOnSyntheticFleet:
    @pytest.fixture(scope="class")
    @staticmethod
    def fleet():
        # constant speed: the probe-pair speed estimator is exact, so the
        # noise-free round trip is a theorem rather than a coin flip
        net = make_grid_network(6, 6, spacing=200.0)
        return generate_synthetic(net, 4, 1.0, False, 60.0, 0.0, seed=5,
                                  trips_per_vehicle=1, min_route_duration=200.0,
                                  speed_range=(4.0, 4.0))

    def test_noise_free_route_recovered(self, fleet):
        session = MatchSession(fleet.network, _cold_config())
        for traj in fleet.trajectories:
            record = session.match_trajectory(traj)
            truth = fleet.truth_record_for(traj)
            assert record.matched_edges == truth.matched_edges
            assert record.paths == truth.paths

    def test_matched_edges_satisfy_bearing_filter(self, fleet):
        session = MatchSession(fleet.network, _cold_config())
        for traj in fleet.trajectories:
            record = session.match_trajectory(traj)
            for probe, edge in zip(traj.probes, record.matched_edges):
                if edge is None:
                    continue
                link = fleet.network.link(edge[0])
                assert bearing_inclination(probe.bearing, link.bearing) < 90.0

    def test_determinism(self, fleet):
        records = []
        for _ in range(2):
            session = MatchSession(fleet.network, _cold_config())
            records.append(session.run(fleet.trajectories))
        assert records[0] == records[1]


class TestSessionFeedback:
    def test_run_feeds_history_and_traffic(self):
        net = make_grid_network(5, 5, spacing=200.0)
        fleet = generate_synthetic(net, 3, 1.0, False, 30.0, 0.0, seed=9,
                                   trips_per_vehicle=2, min_route_duration=150.0,
                                   trip_spacing=1200.0)
        session = MatchSession(net, _cold_config(predictor="naive"))
        records = session.run(fleet.trajectories)
        assert len(records) == len(fleet.trajectories)
        assert len(session.history) == len(records)
        assert session.traffic.observed_states()

    @staticmethod
    def _fleet():
        net = make_grid_network(5, 5, spacing=200.0)
        fleet = generate_synthetic(net, 4, 1.0, False, 30.0, 5.0, seed=9,
                                   trips_per_vehicle=2, min_route_duration=150.0,
                                   trip_spacing=1200.0)
        return net, fleet.trajectories

    def test_feedback_lands_between_intervals(self):
        net, trajs = self._fleet()
        session = MatchSession(net, _cold_config(predictor="naive"))
        interval = session.config.update_interval
        epoch = {t.id: math.floor(t.t0 / interval) for t in trajs}
        assert len(set(epoch.values())) >= 3
        events = []
        match, feed = session.match_trajectory, session.feed_back

        def spy_match(traj):
            events.append(("match", epoch[traj.id]))
            return match(traj)

        def spy_feed(record):
            events.append(("feed", epoch[record.trajectory_id]))
            feed(record)

        session.match_trajectory, session.feed_back = spy_match, spy_feed
        session.run(trajs)
        assert sorted(e for kind, e in events if kind == "feed") == sorted(epoch.values())
        for i, (kind, e) in enumerate(events):
            if kind == "feed":
                # after the last match of its own interval, before the first of the next
                assert all(m <= e for k, m in events[:i] if k == "match")
                assert all(m > e for k, m in events[i:] if k == "match")

    def test_trip_order_does_not_change_records(self):
        net, trajs = self._fleet()
        forward = MatchSession(net, MatcherConfig()).run(trajs)
        backward = MatchSession(net, MatcherConfig()).run(reversed(trajs))
        assert backward == forward

    def test_benchmark_call_shape(self):
        net, trajs = self._fleet()
        plain = MatchSession(net, MatcherConfig()).run(trajs)
        assert MatchSession(net, MatcherConfig()).run(trajs, jobs=1, feedback=True) == plain
        with pytest.raises(ValueError, match="jobs"):
            MatchSession(net, MatcherConfig()).run(trajs, jobs=2)

    def test_seeded_history_visible_to_collaboration(self, chain_network):
        session = MatchSession(chain_network, _cold_config())
        rec = MatchRecord(
            trajectory_id="w-0", vehicle="w", probe_times=(0.0, 30.0),
            matched_edges=((0, 1), (0, 2)), paths=(None, ((0, 1), (0, 2))),
            start_lonlat=(probe_at(chain_network, 10.0, 0.0, 0.0).lon,
                          probe_at(chain_network, 10.0, 0.0, 0.0).lat),
            end_lonlat=(probe_at(chain_network, 90.0, 0.0, 0.0).lon,
                        probe_at(chain_network, 90.0, 0.0, 0.0).lat),
            t0=0.0, t_end=30.0)
        session.seed_history([rec])
        assert len(session.history) == 1
        assert session.traffic._locations


class TestTrafficLedger:
    def test_interval_bookkeeping_and_causality(self, chain_network):
        ledger = TrafficLedger(chain_network, TrafficConfig(300.0, 3600.0, 0.8))
        assert ledger.predict_for(400.0) is None  # empty ledger is cold
        ledger.add_locations([(310.0, 0), (320.0, 0), (615.0, 1)])
        # interval 2 covers [300, 600): its own interval has no predecessor data
        assert ledger.predict_for(310.0) is None
        pred = ledger.predict_for(640.0)  # interval 3 predicted from interval 2
        assert pred is not None
        state2 = ledger.state(2)
        assert pred.tolist() == pytest.approx(state2.values.tolist())
        assert state2.values[0] > state2.values[1]

    def test_predictions_frozen_once_made(self, chain_network):
        ledger = TrafficLedger(chain_network, TrafficConfig(300.0, 3600.0, 0.8))
        ledger.add_locations([(310.0, 0)])
        first = ledger.predict_for(640.0)
        ledger.add_locations([(330.0, 1), (340.0, 1)])
        second = ledger.predict_for(640.0)
        assert first.tolist() == second.tolist()


def test_match_csv_round_trip(tmp_path, chain_network):
    traj = Trajectory("v-0", "v", tuple(
        probe_at(chain_network, 10.0 + 150.0 * i, 0.0, 30.0 * i, speed=5.0)
        for i in range(3)))
    session = MatchSession(chain_network, _cold_config())
    record = session.match_trajectory(traj)
    path = tmp_path / "matches.csv"
    write_match_csv(str(path), [record])
    rows = read_match_csv(str(path))
    assert set(rows) == {("v-0", 0), ("v-0", 1), ("v-0", 2)}
    assert rows[("v-0", 1)].edge == record.matched_edges[1]
    assert rows[("v-0", 1)].path == record.paths[1]
    assert rows[("v-0", 0)].path is None


def test_session_rejects_spectral_without_model(chain_network):
    with pytest.raises(ValueError):
        MatchSession(chain_network, MatcherConfig(predictor="spectral"))


def test_deployment_defaults():
    cfg = MatcherConfig()
    assert cfg.split_length == 50.0
    assert cfg.vicinity_radius == 170.0
    assert cfg.speed_decay == 0.1
    assert cfg.collab_spatial_radius == 300.0
    assert cfg.collab_temporal_radius == 5.0
    assert cfg.neighbor_weight == 1.0
    assert cfg.update_interval == 300.0
    assert cfg.traffic_config().max_steps == 12
    assert (cfg.weights.kinematic, cfg.weights.habit, cfg.weights.traffic) == (0.2, 0.5, 0.3)
    assert (cfg.k_floor, cfg.k_cap) == (6, 200)
