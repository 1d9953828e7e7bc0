"""Per-trajectory matching pipeline and the session that feeds results back.

For each probe pair: candidate edges, reachability ellipse, subgraph trim,
top-K path search, three scores, fusion, selection. The selected end edge
becomes the only carried candidate of the next segment. Completed records
flow back into the history store and the traffic ledger at interval
boundaries, so a trajectory never sees its own in-flight results.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .history import (CollaborationContext, HistoryStore, MatchRecord, Probe, Trajectory,
                      format_edges, parse_edges)
from .network import EdgeKey, RoadNetwork, _read_csv, _write_csv
from .path_search import (CandidateEdge, CandidatePath, build_subgraph, candidate_path_budget,
                          carried_candidate, ellipse_region, find_candidate_edges,
                          k_shortest_paths)
from .scoring import (FusionWeights, ScoreVector, final_score, habit_scores, kinematic_score,
                      mean_link_occupancy, select_path, traffic_scores)
from .traffic import SpectralPredictor, StateVector, TrafficConfig, aggregate_interval, \
    decay_weights, predict_naive


@dataclass(frozen=True)
class MatcherConfig:
    """Pipeline constants; defaults follow the deployed configuration."""

    split_length: float = 50.0
    vicinity_radius: float = 170.0
    speed_decay: float = 0.1
    collab_spatial_radius: float = 300.0
    collab_temporal_radius: float = 5.0
    neighbor_weight: float = 1.0
    update_interval: float = 300.0
    lookback: float = 3600.0
    decay_ratio: float = 0.8
    weights: FusionWeights = field(default_factory=FusionWeights.calibrated_default)
    predictor: str = "naive"            # none | naive | spectral
    use_kinematic: bool = True
    use_habit: bool = True
    use_traffic: bool = True
    k_floor: int = 6
    k_cap: int = 200
    trip_gap: float = 900.0

    def __post_init__(self):
        for name in ("split_length", "vicinity_radius", "speed_decay", "update_interval",
                     "trip_gap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("collab_spatial_radius", "collab_temporal_radius", "lookback"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and not negative, got {value}")
        # a decay ratio above 1 weights older intervals more, and its powers overflow
        for name in ("neighbor_weight", "decay_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.k_floor < 1:
            raise ValueError(f"k_floor must be at least 1, got {self.k_floor}")
        if self.k_cap < self.k_floor:
            raise ValueError(f"k_cap must be at least k_floor ({self.k_floor}), got {self.k_cap}")
        if not (self.use_kinematic or self.use_habit or self.use_traffic):
            raise ValueError("at least one judge must stay active")
        if self.predictor not in ("none", "naive", "spectral"):
            raise ValueError(f"unknown predictor {self.predictor!r}")

    def traffic_config(self) -> TrafficConfig:
        return TrafficConfig(self.update_interval, self.lookback, self.decay_ratio)


@dataclass
class SegmentOutcome:
    path: CandidatePath
    scores: ScoreVector
    final: float
    candidates: list[CandidatePath]
    candidate_scores: list[ScoreVector]


class TrafficLedger:
    """Matched locations bucketed per interval, with cached predictions.

    Interval j covers [(j-1)*interval, j*interval). States and predictions
    are frozen on first use, mirroring a predictor that publishes once per
    interval.
    """

    def __init__(self, network: RoadNetwork, config: TrafficConfig,
                 model: SpectralPredictor | None = None):
        self.network = network
        self.config = config
        self.model = model
        self._locations: dict[int, list[int]] = {}
        self._states: dict[int, StateVector] = {}
        self._predictions: dict[int, np.ndarray | None] = {}

    def interval_of(self, t: float) -> int:
        return math.floor(t / self.config.update_interval) + 1

    def add_locations(self, locations: Iterable[tuple[float, int]]) -> None:
        for t, link_id in locations:
            j = self.interval_of(t)
            self._locations.setdefault(j, []).append(link_id)

    def state(self, interval: int) -> StateVector:
        cached = self._states.get(interval)
        if cached is None:
            cached = aggregate_interval(self.network, sorted(self._locations.get(interval, [])),
                                        interval)
            self._states[interval] = cached
        return cached

    def observed_states(self) -> list[StateVector]:
        if not self._locations:
            return []
        return [self.state(j) for j in range(min(self._locations), max(self._locations) + 1)]

    def predict_for(self, t: float) -> np.ndarray | None:
        """Predicted link shares for the interval containing t, or None cold."""
        j = self.interval_of(t)
        if j in self._predictions:
            return self._predictions[j]
        pred: np.ndarray | None = None
        first = min(self._locations, default=j)
        if j > first:
            steps = min(self.config.max_steps, j - first)
            history = [self.state(j - 1 - k).values for k in range(steps)]
            if self.model is not None:
                pred = self.model.forward(history)
            else:
                pred = predict_naive(history, decay_weights(steps, self.config.decay_ratio))
        self._predictions[j] = pred
        return pred


class MatchSession:
    """Shared state for matching a batch of trajectories."""

    def __init__(self, network: RoadNetwork, config: MatcherConfig | None = None,
                 history: HistoryStore | None = None,
                 predictor_model: SpectralPredictor | None = None):
        self.network = network
        self.config = config or MatcherConfig()
        if self.config.predictor == "spectral" and predictor_model is None:
            raise ValueError("spectral predictor requires a trained model checkpoint")
        self.history = history if history is not None else HistoryStore(network)
        model = predictor_model if self.config.predictor == "spectral" else None
        self.traffic = TrafficLedger(network, self.config.traffic_config(), model)
        self.debug_dir: str | None = None  # dump per-segment subgraph/path GeoJSON
        if history is not None:
            for record in history.records():
                self.traffic.add_locations(record.matched_locations())

    def seed_history(self, records: Iterable[MatchRecord]) -> None:
        """Ingest past results (e.g. from a log) before matching."""
        for record in sorted(records, key=lambda r: (r.t_end, r.trajectory_id)):
            self.feed_back(record)

    def feed_back(self, record: MatchRecord) -> None:
        """Write a finished record into the history store and the traffic ledger."""
        self.history.record_match(record)
        self.traffic.add_locations(record.matched_locations())

    # -- pipeline stages -----------------------------------------------------

    def match_first_probe(self, probe: Probe) -> list[CandidateEdge]:
        """Full candidate set of a trip's first probe; may be empty."""
        x, y = self.network.projector.to_plane(probe.lon, probe.lat)
        return find_candidate_edges(x, y, probe.bearing, self.network,
                                    self.config.vicinity_radius)

    def match_segment(self, p_prev: Probe, p_cur: Probe,
                      carried: Sequence[CandidateEdge],
                      collab: CollaborationContext | None,
                      budget: int, *, label: str = "") -> SegmentOutcome | None:
        """Infer the path between two probes, or None when nothing survives."""
        cfg = self.config
        dt = p_cur.t - p_prev.t
        end_cands = self.match_first_probe(p_cur)
        if not end_cands:
            return None
        prev_xy = self.network.projector.to_plane(p_prev.lon, p_prev.lat)
        cur_xy = self.network.projector.to_plane(p_cur.lon, p_cur.lat)
        region = ellipse_region(prev_xy, cur_xy, p_prev.speed, p_cur.speed, dt)
        sub = build_subgraph(self.network, region, carried, end_cands)
        paths = k_shortest_paths(sub, carried, end_cands, budget)
        if self.debug_dir and label:
            self._dump_debug(label, sub, paths)
        if not paths:
            return None

        kin = [kinematic_score(p, p_prev.speed, p_cur.speed, p_cur.bearing,
                               dt, cfg.speed_decay) for p in paths]
        if cfg.use_habit and collab is not None:
            habit = habit_scores([collab.path_frequency(p.edges) for p in paths])
        else:
            habit = [0.0] * len(paths)
        predicted = None
        if cfg.use_traffic and cfg.predictor != "none":
            predicted = self.traffic.predict_for(p_cur.t)
        if predicted is not None:
            occ = [mean_link_occupancy(p, predicted, self.network) for p in paths]
            traffic = traffic_scores(occ)
        else:
            traffic = [0.0] * len(paths)
        weights = cfg.weights.restrict(cfg.use_kinematic, cfg.use_habit,
                                       cfg.use_traffic and predicted is not None)
        vectors = [ScoreVector(k, h, a) for k, h, a in zip(kin, habit, traffic)]
        finals = [final_score(v, weights) for v in vectors]
        idx, best = select_path(list(zip(paths, finals)))
        return SegmentOutcome(best, vectors[idx], finals[idx], paths, vectors)

    def match_trajectory(self, trajectory: Trajectory) -> MatchRecord:
        """Match every probe pair of a trajectory in time order."""
        return match_record(trajectory, self.segment_outcomes(trajectory))

    def segment_outcomes(self, trajectory: Trajectory) -> Iterator[tuple[int, SegmentOutcome]]:
        """Each matched segment's outcome with the index of its end probe, in time order.

        Unmatched gaps restart the candidate search at the next probe; the
        gap is reported, never interpolated.
        """
        if len(trajectory.probes) < 2:
            raise ValueError("trajectory needs at least 2 probes")
        cfg = self.config
        probes = trajectory.probes
        collab = None
        if cfg.use_habit:
            collab = self.history.collaboration_context(
                trajectory, cfg.collab_spatial_radius, cfg.collab_temporal_radius,
                cfg.neighbor_weight)
        budget = candidate_path_budget(trajectory.probing_interval, cfg.k_floor, cfg.k_cap)

        carried = self.match_first_probe(probes[0])
        for i in range(1, len(probes)):
            if carried:
                outcome = self.match_segment(probes[i - 1], probes[i], carried, collab,
                                             budget, label=f"{trajectory.id}_{i}")
                if outcome is not None:
                    yield i, outcome
                    carried = [carried_candidate(self.network, outcome.path.end_edge,
                                                 outcome.path.end.offset)]
                    continue
            carried = self.match_first_probe(probes[i])

    def _dump_debug(self, label: str, sub, paths) -> None:
        import json
        import os

        from .path_search import paths_geojson, subgraph_geojson
        os.makedirs(self.debug_dir, exist_ok=True)
        with open(os.path.join(self.debug_dir, f"{label}_subgraph.geojson"),
                  "w", encoding="utf-8") as fh:
            json.dump(subgraph_geojson(sub), fh)
        with open(os.path.join(self.debug_dir, f"{label}_paths.geojson"),
                  "w", encoding="utf-8") as fh:
            json.dump(paths_geojson(self.network, paths), fh)

    # -- batch driver ----------------------------------------------------------

    def run(self, trajectories: Iterable[Trajectory], *, jobs: int = 1,
            feedback: bool = True) -> list[MatchRecord]:
        """Match trajectories in start-time order with interval barriers.

        Trajectories are grouped by the update interval their start falls
        in. A group is matched against the history and traffic state left by
        the groups before it; with ``feedback`` its records are then written
        back before the next group starts. So no trajectory sees a result of
        its own group, and results do not depend on the order of trajectories
        within an interval. ``jobs`` must be 1: matching runs on one thread.
        """
        if jobs != 1:
            raise ValueError(f"jobs must be 1, got {jobs}")
        ordered = sorted(trajectories, key=lambda tr: (tr.t0, tr.id))
        out: list[MatchRecord] = []
        for _, group in itertools.groupby(ordered,
                                          key=lambda tr: self.traffic.interval_of(tr.t0)):
            records = [self.match_trajectory(traj) for traj in group]
            out.extend(records)
            if feedback:
                for record in records:
                    self.feed_back(record)
        return out


def match_record(trajectory: Trajectory,
                 outcomes: Iterable[tuple[int, SegmentOutcome]]) -> MatchRecord:
    """The record of a trajectory from its :meth:`MatchSession.segment_outcomes`."""
    probes = trajectory.probes
    matched: list[EdgeKey | None] = [None] * len(probes)
    paths: list[tuple[EdgeKey, ...] | None] = [None] * len(probes)
    for i, outcome in outcomes:
        paths[i] = outcome.path.edges
        matched[i] = outcome.path.end_edge
        if matched[i - 1] is None:  # the first segment after a gap also matches its start
            matched[i - 1] = outcome.path.start.edge.key
    return MatchRecord(
        trajectory_id=trajectory.id, vehicle=trajectory.vehicle,
        probe_times=tuple(p.t for p in probes),
        matched_edges=tuple(matched), paths=tuple(paths),
        start_lonlat=(probes[0].lon, probes[0].lat),
        end_lonlat=(probes[-1].lon, probes[-1].lat),
        t0=trajectory.t0, t_end=trajectory.t_end)


# -- output files -------------------------------------------------------------

MATCH_COLUMNS = ("trajectory_id", "probe_idx", "timestamp", "link_id", "edge_idx",
                 "matched", "path_edges")


def write_match_csv(path: str, records: Sequence[MatchRecord]) -> None:
    _write_csv(path, MATCH_COLUMNS, (
        [rec.trajectory_id, i, f"{t:.3f}", edge[0] if edge else "", edge[1] if edge else "",
         1 if edge else 0, format_edges(rec.paths[i] or ())]
        for rec in sorted(records, key=lambda r: r.trajectory_id)
        for i, (t, edge) in enumerate(zip(rec.probe_times, rec.matched_edges))))


@dataclass(frozen=True)
class MatchRow:
    trajectory_id: str
    probe_idx: int
    timestamp: float
    edge: EdgeKey | None
    path: tuple[EdgeKey, ...] | None


def read_match_csv(path: str) -> dict[tuple[str, int], MatchRow]:
    rows: dict[tuple[str, int], MatchRow] = {}

    def store(rec: dict) -> None:
        key = (rec["trajectory_id"], int(rec["probe_idx"]))
        if key in rows:
            raise ValueError(f"duplicate row for trajectory {key[0]} probe {key[1]}")
        timestamp = float(rec["timestamp"])
        if not math.isfinite(timestamp):
            raise ValueError(f"non-finite timestamp {timestamp}")
        edge = (int(rec["link_id"]), int(rec["edge_idx"])) if rec["matched"] == "1" else None
        rows[key] = MatchRow(*key, timestamp, edge, parse_edges(rec["path_edges"]))

    for _ in _read_csv(path, MATCH_COLUMNS, store):
        pass
    return rows
