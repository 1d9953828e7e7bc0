"""Probes, trajectories and the store of finished matching results.

The store answers two questions for the habit score: which finished trips
share the ego trip's endpoints and schedule (the collaborative group), and
how often a vehicle or trip has used each edge. It also hands recent matched
locations to the traffic aggregator.
"""
from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .network import EdgeKey, InputFormatError, RoadNetwork, _read_csv, _write_csv

DAY_SECONDS = 86_400.0
MAX_PROBE_SPEED = 70.0  # m/s sanity bound


@dataclass(frozen=True)
class Probe:
    """One GNSS sample."""

    t: float        # unix seconds
    speed: float    # m/s
    bearing: float  # degrees from east, [0, 360)
    lon: float
    lat: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lon, self.lat, self.t, self.bearing))):
            raise ValueError("probe has non-finite fields")
        if not (0.0 <= self.speed < MAX_PROBE_SPEED):
            raise ValueError(f"probe speed {self.speed} outside [0, {MAX_PROBE_SPEED})")


@dataclass(frozen=True)
class Trajectory:
    id: str
    vehicle: str
    probes: tuple[Probe, ...]

    def __post_init__(self):
        for a, b in zip(self.probes, self.probes[1:]):
            if b.t <= a.t:
                raise ValueError(f"trajectory {self.id}: timestamps not strictly increasing")

    @property
    def start(self) -> Probe:
        return self.probes[0]

    @property
    def end(self) -> Probe:
        return self.probes[-1]

    @property
    def t0(self) -> float:
        return self.probes[0].t

    @property
    def t_end(self) -> float:
        return self.probes[-1].t

    @property
    def probing_interval(self) -> float:
        """Median successive gap in seconds."""
        gaps = [b.t - a.t for a, b in zip(self.probes, self.probes[1:])]
        if not gaps:
            return 0.0
        return float(statistics.median(gaps))


@dataclass(frozen=True)
class MatchRecord:
    """Finished matching result for one trajectory.

    ``paths[i]`` is the inferred edge sequence of the segment ending at probe
    i (``paths[0]`` is always None); ``matched_edges[i]`` is probe i's edge.
    """

    trajectory_id: str
    vehicle: str
    probe_times: tuple[float, ...]
    matched_edges: tuple[EdgeKey | None, ...]
    paths: tuple[tuple[EdgeKey, ...] | None, ...]
    start_lonlat: tuple[float, float]
    end_lonlat: tuple[float, float]
    t0: float
    t_end: float

    def matched_locations(self) -> list[tuple[float, int]]:
        """(timestamp, link id) for every matched probe."""
        out = []
        for t, edge in zip(self.probe_times, self.matched_edges):
            if edge is not None:
                out.append((t, edge[0]))
        return out


def _edges_connected(network: RoadNetwork, a: EdgeKey, b: EdgeKey) -> bool:
    if a[0] == b[0]:
        return b[1] == a[1] + 1
    la, lb = network.link(a[0]), network.link(b[0])
    return a[1] == len(la.edges) and b[1] == 1 and la.to_node == lb.from_node


def validate_record(network: RoadNetwork, record: MatchRecord) -> None:
    n = len(record.probe_times)
    if not (len(record.matched_edges) == len(record.paths) == n):
        raise ValueError("record arrays misaligned")
    for i, path in enumerate(record.paths):
        if path is None:
            continue
        if i == 0:
            raise ValueError("segment path attached to probe 0")
        if not path:
            raise ValueError(f"segment {i} has an empty path")
        for a, b in zip(path, path[1:]):
            if not _edges_connected(network, a, b):
                raise ValueError(f"segment {i} path is disconnected at {a}->{b}")
        if record.matched_edges[i] != path[-1]:
            raise ValueError(f"probe {i} matched edge differs from its segment end-edge")


def time_of_day_delta(t_a: float, t_b: float) -> float:
    d = abs(t_a % DAY_SECONDS - t_b % DAY_SECONDS)
    return min(d, DAY_SECONDS - d)


@dataclass
class CollaborationContext:
    """Pre-aggregated usage counts for scoring one trajectory's candidates.

    ``weighted_counts`` already folds the neighbor weight in, so the mean
    usage of a path is a plain sum over its edges divided by ``member_mass``
    times the path's edge count.
    """

    group: frozenset[str]
    weighted_counts: dict[EdgeKey, float]
    member_mass: float

    def path_frequency(self, path_edges: Sequence[EdgeKey]) -> float:
        if not path_edges:
            raise ValueError("empty path")
        total = sum(self.weighted_counts.get(e, 0.0) for e in path_edges)
        return total / (self.member_mass * len(path_edges))


@dataclass
class _StoredTrip:
    record: MatchRecord
    counts: Counter
    x0: float
    y0: float
    x1: float
    y1: float


_KEY = itemgetter(0)


def _starting_in(order: list[tuple[float, _StoredTrip]], lo: float,
                 hi: float) -> list[tuple[float, _StoredTrip]]:
    """The entries of a start-sorted list whose key lies in [lo, hi]."""
    return order[bisect_left(order, lo, key=_KEY):bisect_right(order, hi, key=_KEY)]


class HistoryStore:
    """Append-only store of finished match records plus lookup indices.

    Trips are kept in one list sorted by the time of day of their start
    (writes insert in order), so the collaborative-group lookup reads only
    the trips whose start falls in its temporal window: its cost follows
    that window, not the size of the store. Writes go through
    :meth:`record_match` under a single-writer contract; reads see whatever
    has been recorded so far.
    """

    def __init__(self, network: RoadNetwork):
        self.network = network
        self._trips: dict[str, _StoredTrip] = {}
        self._by_vehicle: dict[str, list[str]] = {}
        self._by_time_of_day: list[tuple[float, _StoredTrip]] = []

    def __len__(self) -> int:
        return len(self._trips)

    def record_match(self, record: MatchRecord) -> None:
        if record.trajectory_id in self._trips:
            raise ValueError(f"duplicate record id {record.trajectory_id}")
        validate_record(self.network, record)
        # consecutive segments share their boundary edge; the vehicle passed
        # it once, so fold the paths into one traversal sequence
        counts: Counter = Counter()
        prev_last: EdgeKey | None = None
        for path in record.paths:
            if not path:
                prev_last = None
                continue
            edges = path[1:] if prev_last is not None and path[0] == prev_last else path
            counts.update(edges)
            prev_last = path[-1]
        proj = self.network.projector
        x0, y0 = proj.to_plane(*record.start_lonlat)
        x1, y1 = proj.to_plane(*record.end_lonlat)
        trip = _StoredTrip(record, counts, x0, y0, x1, y1)
        self._trips[record.trajectory_id] = trip
        self._by_vehicle.setdefault(record.vehicle, []).append(record.trajectory_id)
        insort(self._by_time_of_day, (record.t0 % DAY_SECONDS, trip), key=_KEY)

    def records(self) -> list[MatchRecord]:
        return [self._trips[tid].record for tid in sorted(self._trips)]

    def vehicle_counts(self, vehicle: str, before_t: float) -> Counter:
        """Aggregate edge usage over a vehicle's trips finished before ``before_t``."""
        total: Counter = Counter()
        for tid in self._by_vehicle.get(vehicle, ()):
            trip = self._trips[tid]
            if trip.record.t_end <= before_t:
                total.update(trip.counts)
        return total

    # -- collaborative group ------------------------------------------------

    def collaborative_group(self, trajectory: Trajectory, spatial_radius: float,
                            temporal_radius: float) -> set[str]:
        """Finished trips whose endpoints and times sit near the ego trip's.

        Times are compared by time of day because habits repeat daily. Only
        the trips whose start lies within ``temporal_radius`` of the ego's
        start are read; that window wraps at midnight.
        """
        t0 = trajectory.t0
        # a margin far above the rounding of the window's bounds keeps every
        # trip the tests below accept; they alone decide membership
        reach = temporal_radius + 1e-12 * (abs(t0) + abs(temporal_radius) + DAY_SECONDS)
        if temporal_radius < DAY_SECONDS / 2:
            key = t0 % DAY_SECONDS
            window = [entry for shift in (-DAY_SECONDS, 0.0, DAY_SECONDS)
                      for entry in _starting_in(self._by_time_of_day, key + shift - reach,
                                                key + shift + reach)]
        else:
            window = self._by_time_of_day  # the window covers the whole day
        proj = self.network.projector
        sx, sy = proj.to_plane(trajectory.start.lon, trajectory.start.lat)
        ex, ey = proj.to_plane(trajectory.end.lon, trajectory.end.lat)

        group = set()
        for _, trip in window:
            rec = trip.record
            if rec.t_end > trajectory.t0:
                continue  # only history that existed before the trip started
            if math.hypot(trip.x0 - sx, trip.y0 - sy) > spatial_radius:
                continue
            if time_of_day_delta(rec.t0, trajectory.t0) > temporal_radius:
                continue
            if math.hypot(trip.x1 - ex, trip.y1 - ey) > spatial_radius:
                continue
            if time_of_day_delta(rec.t_end, trajectory.t_end) > temporal_radius:
                continue
            group.add(rec.trajectory_id)
        return group

    def collaboration_context(self, trajectory: Trajectory, spatial_radius: float,
                              temporal_radius: float,
                              neighbor_weight: float) -> CollaborationContext:
        """Fold ego history and group counts into one weighted counter.

        The ego slot aggregates the whole finished history of the ego
        vehicle (its habit); each group member from another vehicle
        contributes its own trip counts at ``neighbor_weight``.
        """
        group = self.collaborative_group(trajectory, spatial_radius, temporal_radius)
        weighted: dict[EdgeKey, float] = {}
        for edge, count in self.vehicle_counts(trajectory.vehicle, trajectory.t0).items():
            weighted[edge] = weighted.get(edge, 0.0) + count
        n_neighbors = 0
        for tid in sorted(group):
            trip = self._trips[tid]
            if trip.record.vehicle == trajectory.vehicle:
                continue
            n_neighbors += 1
            for edge, count in trip.counts.items():
                weighted[edge] = weighted.get(edge, 0.0) + neighbor_weight * count
        mass = 1.0 + neighbor_weight * n_neighbors
        return CollaborationContext(frozenset(group), weighted, mass)

    # -- persistence ---------------------------------------------------------

    def save_log(self, path: str) -> None:
        """Append-only newline log: trajectory|probe|edge|segment edges."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                for i, edge in enumerate(rec.matched_edges):
                    fh.write(f"{rec.trajectory_id}|{i}|{format_edges([edge] if edge else ())}|"
                             f"{format_edges(rec.paths[i] or ())}\n")

    def load_log(self, path: str, trajectories: Mapping[str, Trajectory], *,
                 prefix: str = "") -> int:
        """Re-ingest a log, joining trip metadata from the probe data.

        Returns the number of records loaded. A line naming an unknown
        trajectory (whose vehicle and endpoints the store cannot recover),
        edge or probe is rejected, as is a record that is not a valid match.
        ``prefix`` namespaces the stored ids so a warm start cannot collide
        with the session's own trajectory ids.
        """
        known = {edge.key for edge in self.network.iter_edges()}
        per_trip: dict[str, dict[int, tuple[EdgeKey | None, tuple[EdgeKey, ...] | None]]] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    try:
                        tid, idx_s, edge_s, seg_s = line.split("|")
                        idx = int(idx_s)
                        (edge,) = parse_edges(edge_s) or (None,)
                        seg = parse_edges(seg_s)
                    except ValueError as exc:
                        raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
                    if not known.issuperset(seg or ()) or (edge and edge not in known):
                        bad = next(k for k in (*(seg or ()), edge) if k not in known)
                        raise InputFormatError(f"{path}:{lineno}: trajectory {tid}: "
                                               f"edge {bad} is not in {self.network.links_name}")
                    if idx in per_trip.setdefault(tid, {}):
                        raise InputFormatError(f"{path}:{lineno}: trajectory {tid}: "
                                               f"duplicate line for probe {idx}")
                    per_trip[tid][idx] = (edge, seg)
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
        loaded = 0
        for tid in sorted(per_trip):
            if tid not in trajectories:
                raise InputFormatError(f"{path}: trajectory {tid} is not in the history probes")
            traj = trajectories[tid]
            rows = per_trip[tid]
            n = len(traj.probes)
            if min(rows) < 0 or max(rows) >= n:
                bad = next(i for i in rows if not 0 <= i < n)
                raise InputFormatError(f"{path}: trajectory {tid}: probe index {bad} is "
                                       f"outside its {n} probes")
            matched = tuple(rows.get(i, (None, None))[0] for i in range(n))
            paths = tuple(rows.get(i, (None, None))[1] for i in range(n))
            try:
                self.record_match(MatchRecord(
                    trajectory_id=prefix + tid, vehicle=traj.vehicle,
                    probe_times=tuple(p.t for p in traj.probes),
                    matched_edges=matched, paths=paths,
                    start_lonlat=(traj.start.lon, traj.start.lat),
                    end_lonlat=(traj.end.lon, traj.end.lat),
                    t0=traj.t0, t_end=traj.t_end))
            except ValueError as exc:
                raise InputFormatError(f"{path}: trajectory {tid}: {exc}") from exc
            loaded += 1
        return loaded


def format_edges(edges: Iterable[EdgeKey]) -> str:
    """``link:edge;link:edge``, the edge-list field of match CSVs and history logs."""
    return ";".join(f"{link}:{index}" for link, index in edges)


def parse_edges(text: str) -> tuple[EdgeKey, ...] | None:
    """The edges of a :func:`format_edges` field; None for an empty field."""
    edges = []
    for item in text.split(";") if text else ():  # a plain loop is cheaper than generators
        link, index = item.split(":")
        edges.append((int(link), int(index)))
    return tuple(edges) or None


# -- probe file I/O ----------------------------------------------------------

PROBE_COLUMNS = ("vehicle_id", "timestamp", "lon", "lat", "speed_mps", "bearing_deg")


def _probe_row(rec: dict) -> tuple[str, Probe]:
    return rec["vehicle_id"], Probe(
        t=float(rec["timestamp"]), speed=float(rec["speed_mps"]),
        bearing=float(rec["bearing_deg"]) % 360.0,
        lon=float(rec["lon"]), lat=float(rec["lat"]))


def load_probes_csv(path: str) -> dict[str, list[Probe]]:
    """Probes per vehicle, sorted by time."""
    by_vehicle: dict[str, list[Probe]] = {}
    for vehicle, probe in _read_csv(path, PROBE_COLUMNS, _probe_row):
        by_vehicle.setdefault(vehicle, []).append(probe)
    for vehicle, probes in by_vehicle.items():
        probes.sort(key=lambda p: p.t)
        for a, b in zip(probes, probes[1:]):
            if a.t == b.t:
                raise InputFormatError(f"{path}: vehicle {vehicle} has two probes at "
                                       f"timestamp {a.t}")
    return by_vehicle


def write_probes_csv(path: str, rows: Iterable[tuple[str, Probe]]) -> None:
    _write_csv(path, PROBE_COLUMNS, ([vehicle, f"{p.t:.3f}", f"{p.lon:.8f}", f"{p.lat:.8f}",
                                      f"{p.speed:.3f}", f"{p.bearing:.3f}"]
                                     for vehicle, p in rows))


def split_trips(vehicle: str, probes: Sequence[Probe], gap: float) -> list[Trajectory]:
    """Cut a vehicle's probe stream into trajectories at large time gaps."""
    trips: list[Trajectory] = []
    chunk: list[Probe] = []
    for probe in probes:
        if chunk and probe.t - chunk[-1].t > gap:
            trips.append(Trajectory(f"{vehicle}-{len(trips)}", vehicle, tuple(chunk)))
            chunk = []
        chunk.append(probe)
    if chunk:
        trips.append(Trajectory(f"{vehicle}-{len(trips)}", vehicle, tuple(chunk)))
    return trips
