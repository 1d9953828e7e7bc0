"""Synthetic probe fleets with known routes, habits and congestion.

Vehicles commute between hub areas on time-shortest routes with per-vehicle
taste jitter; repeat trips reuse the preferred route with a configurable
probability. Motion is piecewise-constant per link, so the probe speeds
bound the true mid-segment speeds exactly and noise-free runs are fully
recoverable. Probes carry Gaussian position noise with bearing and speed
noise scaled off the same knob.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import network as network_mod
from .geometry import PlanarProjector
from .history import MatchRecord, Probe, Trajectory
from .network import EdgeKey, RoadNetwork, load_network
from .path_search import path_edges


def make_grid_network(n_cols: int = 8, n_rows: int = 8, spacing: float = 200.0,
                      split_length: float = 50.0, spacing_jitter: float = 0.0,
                      seed: int = 0) -> RoadNetwork:
    """Two-way rectangular grid.

    With ``spacing_jitter`` > 0 the row/column gaps vary by up to that
    fraction of ``spacing``, which breaks the exact path-length ties a
    uniform grid produces everywhere. A grid of more links than a network
    may have edges is refused before any row is built.
    """
    n_links = 2 * (n_cols - 1) * n_rows + 2 * (n_rows - 1) * n_cols
    if n_links > network_mod.MAX_EDGES:  # every link has at least one edge
        raise ValueError(f"a {n_cols} x {n_rows} grid has {n_links} links, more than the "
                         f"{network_mod.MAX_EDGES} edges a network may have")
    rng = np.random.default_rng(seed)

    def gaps(n):
        if spacing_jitter <= 0:
            return [spacing] * (n - 1)
        return [spacing * float(rng.uniform(1 - spacing_jitter, 1 + spacing_jitter))
                for _ in range(n - 1)]

    xs = [0.0]
    for g in gaps(n_cols):
        xs.append(xs[-1] + g)
    ys = [0.0]
    for g in gaps(n_rows):
        ys.append(ys[-1] + g)

    to_lonlat = PlanarProjector(119.30, 24.51).to_lonlat  # the first node sits at the origin
    nodes = [(r * n_cols + c, *to_lonlat(xs[c], ys[r]))
             for r in range(n_rows) for c in range(n_cols)]
    links = []
    lid = 0
    for r in range(n_rows):
        for c in range(n_cols):
            nid = r * n_cols + c
            if c + 1 < n_cols:
                length = xs[c + 1] - xs[c]
                links.append((lid, nid, nid + 1, length, None)); lid += 1
                links.append((lid, nid + 1, nid, length, None)); lid += 1
            if r + 1 < n_rows:
                length = ys[r + 1] - ys[r]
                links.append((lid, nid, nid + n_cols, length, None)); lid += 1
                links.append((lid, nid + n_cols, nid, length, None)); lid += 1
    return load_network(nodes, links, split_length)


@dataclass(frozen=True)
class RouteGeometry:
    """One trip's walk over links: (link id, enter offset, exit offset, cum distance)."""

    steps: tuple[tuple[int, float, float, float], ...]

    @property
    def length(self) -> float:
        lid, enter, exit_, cum = self.steps[-1]
        return cum + (exit_ - enter)

    def locate(self, s: float) -> tuple[int, float]:
        """(link id, offset within link) at route distance s."""
        s = min(max(s, 0.0), self.length)
        for lid, enter, exit_, cum in reversed(self.steps):
            if s >= cum:
                return lid, min(enter + (s - cum), exit_)
        lid, enter, _, _ = self.steps[0]
        return lid, enter


def _edge_at(network: RoadNetwork, link_id: int, offset: float) -> EdgeKey:
    """Containing edge at a link offset; boundaries belong to the next edge."""
    link = network.link(link_id)
    for edge in link.edges:
        if offset < edge.start_offset + edge.length:
            return edge.key
    return link.edges[-1].key


def route_edges_between(network: RoadNetwork, route: RouteGeometry,
                        s_from: float, s_to: float) -> tuple[EdgeKey, ...]:
    """Every edge touched moving from s_from to s_to along the route."""
    if s_to < s_from:
        raise ValueError("route distances must be ordered")
    start_link, start_off = route.locate(s_from)
    end_link, end_off = route.locate(s_to)
    link_ids = [lid for lid, *_ in route.steps]
    i = link_ids.index(start_link)
    j = link_ids.index(end_link, i)
    # the links between are passed whole, so only the two end offsets pick edges
    return path_edges(network, link_ids[i:j + 1], _edge_at(network, start_link, start_off)[1],
                      _edge_at(network, end_link, end_off)[1])


@dataclass
class TruthTrip:
    probe_times: tuple[float, ...]
    probe_s: tuple[float, ...]
    probe_edges: tuple[EdgeKey, ...]
    route: RouteGeometry


@dataclass
class SyntheticFleet:
    network: RoadNetwork
    trajectories: list[Trajectory]
    truths: dict[str, TruthTrip]
    link_speeds: dict[int, float]

    def trajectories_of_trip(self, trip_index: int) -> list[Trajectory]:
        suffix = f"-{trip_index}"
        return [t for t in self.trajectories if t.id.endswith(suffix)]

    def truth_record_for(self, trajectory: Trajectory) -> MatchRecord:
        """Truth in match-record form, aligned with a (possibly thinned) trajectory.

        Probes are located in the source truth by timestamp, so the same
        trip can be evaluated at any downsampled interval.
        """
        truth = self.truths[trajectory.id]
        by_time = {round(t, 6): i for i, t in enumerate(truth.probe_times)}
        indices = []
        for p in trajectory.probes:
            key = round(p.t, 6)
            if key not in by_time:
                raise KeyError(f"probe at t={p.t} not part of trajectory {trajectory.id}")
            indices.append(by_time[key])
        matched = tuple(truth.probe_edges[i] for i in indices)
        paths: list[tuple[EdgeKey, ...] | None] = [None]
        for a, b in zip(indices, indices[1:]):
            paths.append(route_edges_between(self.network, truth.route,
                                             truth.probe_s[a], truth.probe_s[b]))
        return MatchRecord.for_trip(trajectory, matched, paths)

    def truth_records(self, trajectories: Sequence[Trajectory] | None = None) -> list[MatchRecord]:
        source = trajectories if trajectories is not None else self.trajectories
        return [self.truth_record_for(t) for t in source]


def generate_synthetic(network: RoadNetwork, n_vehicles: int, habit_strength: float,
                       congestion: bool, probe_interval: float, noise_sigma: float, *,
                       seed: int = 0, trips_per_vehicle: int = 2,
                       speed_range: tuple[float, float] = (2.5, 6.0),
                       congested_fraction: float = 0.25, congestion_factor: float = 0.35,
                       start_spread: float = 600.0, trip_spacing: float = 2400.0,
                       n_hubs: int = 6, od_pairs: Sequence[tuple[int, int]] | None = None,
                       link_speeds: dict[int, float] | None = None,
                       bearing_noise_deg: float | None = None,
                       min_route_duration: float | None = None) -> SyntheticFleet:
    """Probe fleet plus ground truth on a network.

    ``habit_strength`` is the probability that a repeat trip reuses the
    vehicle's preferred route. ``noise_sigma`` is the probe position noise
    in meters; bearing and speed noise scale with it and vanish at zero.
    OD pairs that cannot produce a long-enough route are resampled up to
    60 times, then the longest route found is taken.
    """
    if not (0.0 <= habit_strength <= 1.0):
        raise ValueError("habit strength must be in [0, 1]")
    if probe_interval <= 0:
        raise ValueError("probe interval must be positive")
    if not 0.0 < speed_range[0] <= speed_range[1] < math.inf:
        raise ValueError(f"speed range must satisfy 0 < min <= max < inf, got {speed_range}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise sigma must be finite and non-negative, got {noise_sigma}")
    if min_route_duration is not None and not 0.0 <= min_route_duration < math.inf:
        raise ValueError("minimum route duration must be finite and non-negative, "
                         f"got {min_route_duration}")
    rng = np.random.default_rng(seed)
    min_duration = (min_route_duration if min_route_duration is not None
                    else 2.5 * probe_interval)

    lo, hi = speed_range
    if link_speeds is not None:
        speeds = {lid: float(link_speeds[lid]) for lid in network.link_ids}
    else:
        speeds = {lid: float(rng.uniform(lo, hi)) for lid in network.link_ids}
    if congestion:
        n_slow = int(round(congested_fraction * len(network.link_ids)))
        slow = rng.choice(len(network.link_ids), size=n_slow, replace=False)
        for pos in slow:
            speeds[network.link_ids[pos]] *= congestion_factor

    node_ids = sorted(network.nodes)
    # spread the hubs: start random, then greedily maximize the minimum distance
    hubs = [node_ids[int(rng.integers(0, len(node_ids)))]]
    while len(hubs) < min(n_hubs, len(node_ids)):
        best_nid, best_dist = None, -1.0
        for nid in node_ids:
            if nid in hubs:
                continue
            node = network.nodes[nid]
            dist = min(math.hypot(node.x - network.nodes[h].x,
                                  node.y - network.nodes[h].y) for h in hubs)
            if dist > best_dist:
                best_nid, best_dist = nid, dist
        hubs.append(best_nid)
    bearing_noise = (bearing_noise_deg if bearing_noise_deg is not None
                     else 4.0 * noise_sigma / 5.0)
    speed_noise = 0.3 * noise_sigma / 5.0

    def timed_route(src, dst, taste):
        """A route by travel time scaled by ``taste``, and its unscaled travel time."""
        route = network.route(src, dst, lambda link: link.length / speeds[link.id]
                              * taste[link.id])
        return route, sum(network.link(l).length / speeds[l] for l in route or ())

    trajectories: list[Trajectory] = []
    truths: dict[str, TruthTrip] = {}

    for vi in range(n_vehicles):
        vehicle = f"v{vi:03d}"
        jitter = {lid: float(np.exp(rng.normal(0.0, 0.08))) for lid in network.link_ids}

        # out-and-back commuting between two hubs; both directions must be
        # long enough for at least two probes
        preferred: dict[int, list[int]] = {}
        od = None
        best: tuple[float, dict, tuple] | None = None
        for _ in range(60):
            if od_pairs is not None:
                a, b = od_pairs[int(rng.integers(0, len(od_pairs)))]
            else:
                a, b = (hubs[i] for i in rng.choice(len(hubs), size=2, replace=False))
            out_route, out_dur = timed_route(a, b, jitter)
            back_route, back_dur = timed_route(b, a, jitter)
            if len(out_route or ()) < 2 or len(back_route or ()) < 2:
                continue
            worst = min(out_dur, back_dur)
            if best is None or worst > best[0]:
                best = (worst, {0: out_route, 1: back_route}, (a, b))
            if worst >= min_duration:
                break
        if best is None:
            raise ValueError("could not sample a route between the hubs")
        _, preferred, od = best
        base_start = 1000.0 + float(rng.uniform(0.0, start_spread))

        emitted = 0
        for trip in range(trips_per_vehicle):
            direction = trip % 2
            src, dst = (od[0], od[1]) if direction == 0 else (od[1], od[0])
            links = preferred[direction]
            if trip >= 2 and rng.random() >= habit_strength:
                for _ in range(10):
                    # mild jitter: alternates hug the vehicle's usual corridor
                    fresh = {lid: float(np.exp(rng.normal(0.0, 0.12)))
                             for lid in network.link_ids}
                    alt, duration = timed_route(src, dst, fresh)
                    if alt and duration >= min_duration:
                        links = alt
                        break

            first_len = network.link(links[0]).length
            last_len = network.link(links[-1]).length
            start_off = float(rng.uniform(0.15, 0.45)) * first_len
            end_off = float(rng.uniform(0.55, 0.85)) * last_len
            steps = []
            cum = 0.0
            for pos, lid in enumerate(links):
                enter = start_off if pos == 0 else 0.0
                exit_ = end_off if pos == len(links) - 1 else network.link(lid).length
                steps.append((lid, enter, exit_, cum))
                cum += exit_ - enter
            route = RouteGeometry(tuple(steps))

            t_start = base_start + trip * trip_spacing + float(rng.uniform(0.0, 4.0))
            time_marks = [0.0]
            for lid, enter, exit_, _ in steps:
                time_marks.append(time_marks[-1] + (exit_ - enter) / speeds[lid])
            arrival = time_marks[-1]

            probes: list[Probe] = []
            p_times: list[float] = []
            p_s: list[float] = []
            p_edges: list[EdgeKey] = []
            seg = 0
            m = 0
            while True:
                rel = m * probe_interval
                if rel >= arrival - 1e-9:
                    break
                while time_marks[seg + 1] <= rel:
                    seg += 1
                lid, enter, exit_, cum_d = steps[seg]
                offset = enter + (rel - time_marks[seg]) * speeds[lid]
                s = cum_d + (offset - enter)
                link = network.link(lid)
                f = offset / link.length
                x = link.x0 + f * (link.x1 - link.x0)
                y = link.y0 + f * (link.y1 - link.y0)
                if noise_sigma > 0:
                    x += float(rng.normal(0.0, noise_sigma))
                    y += float(rng.normal(0.0, noise_sigma))
                bearing = link.bearing
                speed = speeds[lid]
                if bearing_noise > 0:
                    bearing = (bearing + float(rng.normal(0.0, bearing_noise))) % 360.0
                if speed_noise > 0:
                    speed = min(max(speed + float(rng.normal(0.0, speed_noise)), 0.0), 69.0)
                lon, lat = network.projector.to_lonlat(x, y)
                probes.append(Probe(t=t_start + rel, speed=speed, bearing=bearing,
                                    lon=lon, lat=lat))
                p_times.append(t_start + rel)
                p_s.append(s)
                p_edges.append(_edge_at(network, lid, offset))
                m += 1
            if len(probes) < 2:
                continue  # too short for this interval; skip the trip
            tid = f"{vehicle}-{emitted}"
            emitted += 1
            trajectories.append(Trajectory(tid, vehicle, tuple(probes)))
            truths[tid] = TruthTrip(tuple(p_times), tuple(p_s), tuple(p_edges), route)

    return SyntheticFleet(network, trajectories, truths, speeds)
