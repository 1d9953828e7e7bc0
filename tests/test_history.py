import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfuse import history
from mapfuse.history import (DAY_SECONDS, HistoryStore, MatchRecord, Probe, Trajectory,
                             _StoredTrip, format_edges, load_probes_csv, parse_edges,
                             split_trips, time_of_day_delta, validate_record,
                             write_probes_csv)
from mapfuse.network import InputFormatError


def _lonlat(net, x, y):
    return net.projector.to_lonlat(x, y)


def _record(net, tid, vehicle, path_edges, *, t0=1000.0, t_end=1060.0,
            start_xy=(10.0, 0.0), end_xy=(390.0, 0.0)):
    """Two-probe record whose single segment passes ``path_edges``."""
    return MatchRecord(
        trajectory_id=tid, vehicle=vehicle, probe_times=(t0, t_end),
        matched_edges=(path_edges[0], path_edges[-1]),
        paths=(None, tuple(path_edges)),
        start_lonlat=_lonlat(net, *start_xy), end_lonlat=_lonlat(net, *end_xy),
        t0=t0, t_end=t_end)


def _trajectory(net, tid, vehicle, *, t0=2000.0, t_end=2060.0,
                start_xy=(10.0, 0.0), end_xy=(390.0, 0.0)):
    lon0, lat0 = _lonlat(net, *start_xy)
    lon1, lat1 = _lonlat(net, *end_xy)
    return Trajectory(tid, vehicle, (
        Probe(t=t0, speed=5.0, bearing=0.0, lon=lon0, lat=lat0),
        Probe(t=t_end, speed=5.0, bearing=0.0, lon=lon1, lat=lat1),
    ))


class TestRecordMatch:
    def test_recording_twice_counts_each_traversal(self, chain_network):
        store = HistoryStore(chain_network)
        path = ((0, 1), (0, 2), (0, 3))
        store.record_match(_record(chain_network, "a-0", "a", path))
        store.record_match(_record(chain_network, "a-1", "a", path, t0=5000.0, t_end=5060.0))
        counts = store.vehicle_counts("a", before_t=10_000.0)
        assert all(counts[e] == 2 for e in path)

    def test_duplicate_id_rejected(self, chain_network):
        store = HistoryStore(chain_network)
        rec = _record(chain_network, "a-0", "a", ((0, 1), (0, 2)))
        store.record_match(rec)
        with pytest.raises(ValueError):
            store.record_match(rec)

    def test_disconnected_path_rejected(self, chain_network):
        store = HistoryStore(chain_network)
        with pytest.raises(ValueError):
            store.record_match(_record(chain_network, "a-0", "a", ((0, 1), (0, 3))))

    def test_end_edge_mismatch_rejected(self, chain_network):
        rec = MatchRecord(
            trajectory_id="a-0", vehicle="a", probe_times=(0.0, 60.0),
            matched_edges=((0, 1), (0, 4)), paths=(None, ((0, 1), (0, 2))),
            start_lonlat=_lonlat(chain_network, 10.0, 0.0),
            end_lonlat=_lonlat(chain_network, 90.0, 0.0),
            t0=0.0, t_end=60.0)
        with pytest.raises(ValueError):
            HistoryStore(chain_network).record_match(rec)


class TestCollaborativeGroup:
    def test_empty_store(self, chain_network):
        store = HistoryStore(chain_network)
        traj = _trajectory(chain_network, "j", "ego")
        assert store.collaborative_group(traj, 300.0, 5.0) == set()

    def test_clones_in_neighbors_out(self, chain_network):
        store = HistoryStore(chain_network)
        # clones shifted 100 m / 2 s; a third shifted 400 m spatially
        base = dict(t0=1000.0, t_end=1060.0)
        store.record_match(_record(chain_network, "n1-0", "n1",
                                   ((0, 1), (0, 2)), **base))
        store.record_match(_record(chain_network, "n2-0", "n2", ((0, 1), (0, 2)),
                                   t0=1002.0, t_end=1062.0,
                                   start_xy=(110.0, 0.0), end_xy=(490.0, 0.0)))
        store.record_match(_record(chain_network, "n3-0", "n3", ((0, 1), (0, 2)),
                                   t0=1000.0, t_end=1060.0,
                                   start_xy=(410.0, 0.0), end_xy=(790.0, 0.0)))
        traj = _trajectory(chain_network, "j", "ego",
                           t0=1000.0 + DAY_SECONDS, t_end=1060.0 + DAY_SECONDS)
        group = store.collaborative_group(traj, 300.0, 5.0)
        assert group == {"n1-0", "n2-0"}

    def test_only_records_before_trip_start_qualify(self, chain_network):
        store = HistoryStore(chain_network)
        store.record_match(_record(chain_network, "n1-0", "n1", ((0, 1), (0, 2)),
                                   t0=3000.0, t_end=3060.0))
        traj = _trajectory(chain_network, "j", "ego", t0=3030.0, t_end=3090.0)
        assert store.collaborative_group(traj, 300.0, 5.0) == set()

    def test_insertion_order_insensitive(self, chain_network):
        records = [
            _record(chain_network, f"n{i}-0", f"n{i}", ((0, 1), (0, 2)),
                    t0=1000.0 + i, t_end=1060.0 + i)
            for i in range(4)
        ]
        traj = _trajectory(chain_network, "j", "ego",
                           t0=1001.0 + DAY_SECONDS, t_end=1061.0 + DAY_SECONDS)
        groups = []
        for ordering in (records, records[::-1]):
            store = HistoryStore(chain_network)
            for rec in ordering:
                store.record_match(rec)
            groups.append(store.collaborative_group(traj, 300.0, 5.0))
        assert groups[0] == groups[1]


def _scan_group(net, records, traj, spatial_radius, temporal_radius):
    """The group rule applied to every record in turn: the reference for the indexed lookup."""
    def far(a, b):
        (ax, ay), (bx, by) = net.projector.to_plane(*a), net.projector.to_plane(*b)
        return math.hypot(ax - bx, ay - by) > spatial_radius

    def late(a, b):
        return time_of_day_delta(a, b) > temporal_radius

    start, end = (traj.start.lon, traj.start.lat), (traj.end.lon, traj.end.lat)
    return {rec.trajectory_id for rec in records
            if not (rec.t_end > traj.t0 or far(rec.start_lonlat, start)
                    or late(rec.t0, traj.t0) or far(rec.end_lonlat, end)
                    or late(rec.t_end, traj.t_end))}


# starts near midnight of several days, negative ones included; few values, so repeats
_DAYS = (-2 * DAY_SECONDS, -DAY_SECONDS, 0.0, DAY_SECONDS, 19_700 * DAY_SECONDS)
_OFFSETS = (0.0, -0.0, -1e-20, 1e-9, -1e-9, 2.5, -2.5, 5.0, -5.0, 60.0, 43_200.0, -43_199.0)
_times = st.builds(lambda day, offset: day + offset, st.sampled_from(_DAYS),
                   st.one_of(st.sampled_from(_OFFSETS),
                             st.floats(-DAY_SECONDS, DAY_SECONDS, allow_nan=False)))
_RADII = (0.0, 2.5, 5.0, 43_199.9, 43_200.0, 50_000.0, math.inf, math.nan)
_durations = st.sampled_from((0.5, 2.5, 5.0, 60.0))
# the third and fourth lie 300.5 m from the first two, beyond the 300 m radius
_points = st.sampled_from(((10.0, 0.0), (110.0, 0.0), (410.5, 0.0), (10.0, 300.5)))


def _nudge(t, ulps):
    for _ in range(abs(ulps)):
        t = math.nextafter(t, math.copysign(math.inf, ulps))
    return t


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_group_is_the_scan_rule(data):
    from conftest import build_network
    radius = data.draw(st.one_of(st.sampled_from(_RADII), st.floats(0.0, 600.0),
                                 st.floats(0.0, 2 * DAY_SECONDS)))
    ego_t0, ego_duration, ego_start, ego_end = data.draw(
        st.tuples(_times, _durations, _points, _points))
    # mostly starts on either edge of the ego's window on the same or an
    # earlier day, a few units in the last place either way, and the ego's ends
    edge = st.builds(lambda day, sign, ulps: _nudge(ego_t0 + day + sign * radius, ulps),
                     st.sampled_from((-2 * DAY_SECONDS, -DAY_SECONDS, 0.0)),
                     st.sampled_from((-1.0, 1.0)), st.integers(-3, 3)).filter(math.isfinite)
    trips = data.draw(st.lists(st.tuples(
        st.one_of(edge, edge, _times), st.one_of(st.just(ego_duration), _durations),
        st.one_of(st.just(ego_start), st.just(ego_start), _points),
        st.one_of(st.just(ego_end), st.just(ego_end), _points)), min_size=1, max_size=25))
    net = build_network([(0, 0.0, 0.0), (1, 200.0, 0.0)], [(0, 0, 1, 200.0, None)])
    store = HistoryStore(net)
    records = [_record(net, f"n{k}-0", f"n{k}", ((0, 1), (0, 2)), t0=t0, t_end=t0 + duration,
                       start_xy=start, end_xy=end)
               for k, (t0, duration, start, end) in enumerate(trips)]
    traj = _trajectory(net, "j", "ego", t0=ego_t0, t_end=ego_t0 + ego_duration,
                       start_xy=ego_start, end_xy=ego_end)
    # lookups between writes: each must see every trip recorded before it
    look = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    for k, rec in enumerate(records):
        store.record_match(rec)
        if look[k] or k == len(records) - 1:
            assert store.collaborative_group(traj, 300.0, radius) == \
                _scan_group(net, records[:k + 1], traj, 300.0, radius)


def test_group_keeps_a_start_that_rounds_past_the_window_edge(chain_network):
    # the start lies a rounding error outside ego_t0 +- 5 s, yet its rounded
    # time distance is exactly 5 s, so the scan rule takes it
    ego_t0, duration, rec_t0 = 8.217187823018016, 5.0, 3.217187823018015
    rec = _record(chain_network, "n0-0", "n0", ((0, 1), (0, 2)), t0=rec_t0,
                  t_end=rec_t0 + duration)
    store = HistoryStore(chain_network)
    store.record_match(rec)
    traj = _trajectory(chain_network, "j", "ego", t0=ego_t0, t_end=ego_t0 + duration)
    assert _scan_group(chain_network, [rec], traj, 300.0, 5.0) == {"n0-0"}
    assert store.collaborative_group(traj, 300.0, 5.0) == {"n0-0"}


def test_group_reads_only_trips_starting_in_the_window(chain_network):
    # 10,000 trips spread over day 0, one every 8.64 s; a 5 s radius holds about one
    store = HistoryStore(chain_network)
    for k in range(10_000):
        t0 = k * DAY_SECONDS / 10_000
        store.record_match(_record(chain_network, f"n{k}-0", f"n{k}", ((0, 1), (0, 2)),
                                   t0=t0, t_end=t0 + 4.0))
    traj = _trajectory(chain_network, "j", "ego", t0=3 * DAY_SECONDS + 43_204.3,
                       t_end=3 * DAY_SECONDS + 43_208.3)
    in_window = {rec.trajectory_id for rec in store.records()
                 if time_of_day_delta(rec.t0, traj.t0) <= 5.0}
    assert in_window == {"n5000-0", "n5001-0"}
    read = set()

    class Spy(_StoredTrip):
        def __getattribute__(self, name):
            read.add(object.__getattribute__(self, "record").trajectory_id)
            return object.__getattribute__(self, name)

    for trip in store._trips.values():
        trip.__class__ = Spy
    group = store.collaborative_group(traj, 300.0, 5.0)
    assert group <= read <= in_window
    assert group == {"n5000-0", "n5001-0"}


def _path_frequency(store, traj, path, neighbor_weight=1.0):
    """Habit usage of ``path`` as the matcher computes it for ``traj``."""
    return store.collaboration_context(traj, 300.0, 5.0, neighbor_weight).path_frequency(path)


class TestUsageFrequency:
    def test_one_neighbor_folds_in_at_full_weight(self, chain_network):
        store = HistoryStore(chain_network)
        path = ((0, 1), (0, 2))
        store.record_match(_record(chain_network, "ego-0", "ego", path))
        store.record_match(_record(chain_network, "ego-1", "ego", path,
                                   t0=1100.0, t_end=1160.0))
        store.record_match(_record(chain_network, "nb-0", "nb", path,
                                   t0=1200.0, t_end=1260.0))
        traj = _trajectory(chain_network, "j", "ego",
                           t0=1200.0 + DAY_SECONDS, t_end=1260.0 + DAY_SECONDS)
        assert store.collaborative_group(traj, 300.0, 5.0) == {"nb-0"}
        # ego aggregate [2, 2] plus neighbor [1, 1] over two members and two edges
        assert _path_frequency(store, traj, path) == pytest.approx((2 + 2 + 1 + 1) / (2 * 2))

    def test_mean_usage_with_unbalanced_neighbor(self):
        # ego aggregate [2, 2] on a 2-edge path; one neighbor [4, 0] via laps
        from conftest import build_network
        nodes = [(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 200.0, 200.0), (3, 0.0, 200.0),
                 (4, 400.0, 0.0)]
        links = [(0, 0, 1, 200.0, None), (1, 1, 2, 200.0, None), (2, 2, 3, 200.0, None),
                 (3, 3, 0, 200.0, None), (4, 1, 4, 200.0, None)]
        net = build_network(nodes, links, split_length=200.0)
        store = HistoryStore(net)
        path = ((0, 1), (4, 1))
        for k in range(2):
            store.record_match(_record(net, f"ego-{k}", "ego", path,
                                       t0=1000.0 + k * 100, t_end=1060.0 + k * 100,
                                       start_xy=(10.0, 0.0), end_xy=(390.0, 0.0)))
        lap = ((0, 1), (1, 1), (2, 1), (3, 1))
        nb = MatchRecord(
            trajectory_id="nb-0", vehicle="nb", probe_times=(2000.0, 2400.0),
            matched_edges=((0, 1), (3, 1)), paths=(None, lap * 4),
            start_lonlat=_lonlat(net, 10.0, 0.0), end_lonlat=_lonlat(net, 0.0, 100.0),
            t0=2000.0, t_end=2400.0)
        store.record_match(nb)
        traj = _trajectory(net, "j", "ego", t0=2000.0 + DAY_SECONDS, t_end=2400.0 + DAY_SECONDS,
                           start_xy=(10.0, 0.0), end_xy=(0.0, 100.0))
        assert store.collaborative_group(traj, 300.0, 5.0) == {"nb-0"}
        # (2+2 + 4+0) / (2 members * 2 edges)
        assert _path_frequency(store, traj, path) == pytest.approx(2.0)

    def test_boundary_edges_counted_once_per_pass(self, chain_network):
        # consecutive segments share their boundary edge; one traversal, one count
        store = HistoryStore(chain_network)
        rec = MatchRecord(
            trajectory_id="a-0", vehicle="a", probe_times=(0.0, 30.0, 60.0),
            matched_edges=((0, 1), (0, 2), (0, 4)),
            paths=(None, ((0, 1), (0, 2)), ((0, 2), (0, 3), (0, 4))),
            start_lonlat=_lonlat(chain_network, 10.0, 0.0),
            end_lonlat=_lonlat(chain_network, 190.0, 0.0),
            t0=0.0, t_end=60.0)
        store.record_match(rec)
        counts = store.vehicle_counts("a", before_t=60.0)
        assert counts[(0, 2)] == 1
        assert counts[(0, 1)] == 1 and counts[(0, 3)] == 1 and counts[(0, 4)] == 1

    def test_zero_neighbor_weight_is_ego_mean(self, chain_network):
        store = HistoryStore(chain_network)
        path = ((0, 1), (0, 2), (0, 3))
        store.record_match(_record(chain_network, "ego-0", "ego", path))
        store.record_match(_record(chain_network, "nb-0", "nb", path,
                                   t0=1100.0, t_end=1160.0))
        traj = _trajectory(chain_network, "j", "ego",
                           t0=1100.0 + DAY_SECONDS, t_end=1160.0 + DAY_SECONDS)
        assert store.collaborative_group(traj, 300.0, 5.0) == {"nb-0"}
        assert _path_frequency(store, traj, path, 0.0) == pytest.approx(1.0)

    def test_no_history_is_zero(self, chain_network):
        store = HistoryStore(chain_network)
        traj = _trajectory(chain_network, "j", "ego")
        assert _path_frequency(store, traj, ((0, 1),)) == 0.0

    def test_empty_path_rejected(self, chain_network):
        store = HistoryStore(chain_network)
        traj = _trajectory(chain_network, "j", "ego")
        with pytest.raises(ValueError):
            _path_frequency(store, traj, ())

    def test_monotone_in_any_edge_count(self, chain_network):
        store = HistoryStore(chain_network)
        path = ((0, 1), (0, 2))
        traj = _trajectory(chain_network, "j", "ego")
        store.record_match(_record(chain_network, "ego-0", "ego", path))
        before = _path_frequency(store, traj, path)
        store.record_match(_record(chain_network, "ego-1", "ego", ((0, 1),),
                                   t0=1100.0, t_end=1160.0,
                                   end_xy=(30.0, 0.0)))
        after = _path_frequency(store, traj, path)
        assert after >= before

    def test_identical_members_match_ego_only_value(self, chain_network):
        # all group members carrying the ego's exact counts leave the mean unchanged
        store = HistoryStore(chain_network)
        path = ((0, 1), (0, 2))
        store.record_match(_record(chain_network, "ego-0", "ego", path))
        for k in range(3):
            store.record_match(_record(chain_network, f"n{k}-0", f"n{k}", path,
                                       t0=1100.0 + k, t_end=1160.0 + k))
        alone = _trajectory(chain_network, "j", "ego")
        assert store.collaborative_group(alone, 300.0, 5.0) == set()
        among = _trajectory(chain_network, "j", "ego",
                            t0=1101.0 + DAY_SECONDS, t_end=1161.0 + DAY_SECONDS)
        assert store.collaborative_group(among, 300.0, 5.0) == {"n0-0", "n1-0", "n2-0"}
        ego_only = _path_frequency(store, alone, path)
        assert _path_frequency(store, among, path) == pytest.approx(ego_only)

    def test_context_matches_direct_computation(self, chain_network):
        store = HistoryStore(chain_network)
        path = ((0, 1), (0, 2))
        store.record_match(_record(chain_network, "ego-0", "ego", path))
        store.record_match(_record(chain_network, "nb-0", "nb", ((0, 2), (0, 3)),
                                   t0=1100.0, t_end=1160.0))
        traj = _trajectory(chain_network, "j", "ego",
                           t0=1100.0 + DAY_SECONDS, t_end=1160.0 + DAY_SECONDS)
        ctx = store.collaboration_context(traj, 300.0, 5.0, 1.0)
        assert ctx.group == {"nb-0"}
        # ego [1, 1] plus neighbor [0, 1] over two members and two edges
        assert ctx.path_frequency(path) == pytest.approx(0.75)


# the edges of a four-link square loop, 4 edges a link, in driving order
_LOOP = tuple((j // 4, j % 4 + 1) for j in range(16))


@st.composite
def _loop_paths(draw):
    """``MatchRecord.paths`` of a drive round the loop: gaps, segments that share
    their boundary edge or not, jumps, and segments longer than one lap."""
    paths, last = [None], draw(st.integers(0, 15))
    for how in draw(st.lists(st.sampled_from(("share", "next", "jump", "gap")),
                             min_size=1, max_size=8)):
        if how == "gap":
            paths.append(None)
            continue
        start = draw(st.integers(0, 15)) if how == "jump" else last + (how == "next")
        length = draw(st.integers(1, 20))
        paths.append(tuple(_LOOP[(start + k) % 16] for k in range(length)))
        last = start + length - 1
    return tuple(paths)


def _reference_counts(records):
    """Each record's paths folded into a per-trip Counter, then summed in record order."""
    total: Counter = Counter()
    for rec in records:
        counts: Counter = Counter()
        prev_last = None
        for path in rec.paths:
            if not path:
                prev_last = None
                continue
            counts.update(path[1:] if prev_last is not None and path[0] == prev_last else path)
            prev_last = path[-1]
        total.update(counts)
    return total


@settings(max_examples=200, deadline=None)
@given(trips=st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((0.0, 100.0, 900.0)),
                                _loop_paths()), min_size=1, max_size=6),
       before_t=st.sampled_from((500.0, 2000.0)))
def test_vehicle_counts_fold_the_stored_paths(trips, before_t):
    from conftest import build_network
    net = build_network([(0, 0.0, 0.0), (1, 200.0, 0.0), (2, 200.0, 200.0), (3, 0.0, 200.0)],
                        [(0, 0, 1, 200.0, None), (1, 1, 2, 200.0, None),
                         (2, 2, 3, 200.0, None), (3, 3, 0, 200.0, None)])
    assert all(len(net.link(i).edges) == 4 for i in range(4))
    store = HistoryStore(net)
    records = []
    for k, (vehicle, t0, paths) in enumerate(trips):
        times = tuple(t0 + 30.0 * i for i in range(len(paths)))
        records.append(MatchRecord(
            trajectory_id=f"{vehicle}-{k}", vehicle=vehicle, probe_times=times,
            matched_edges=tuple(path and path[-1] for path in paths), paths=paths,
            start_lonlat=_lonlat(net, 10.0, 0.0), end_lonlat=_lonlat(net, 0.0, 100.0),
            t0=times[0], t_end=times[-1]))
        store.record_match(records[-1])
    for vehicle in "ab":
        want = _reference_counts(r for r in records
                                 if r.vehicle == vehicle and r.t_end <= before_t)
        # the same counts, inserted in the same order
        assert list(store.vehicle_counts(vehicle, before_t).items()) == list(want.items())


def test_time_of_day_delta():
    assert time_of_day_delta(10.0, DAY_SECONDS + 12.0) == pytest.approx(2.0)
    assert time_of_day_delta(10.0, DAY_SECONDS - 10.0) == pytest.approx(20.0)


def test_trajectory_median_interval():
    probes = tuple(Probe(t=float(t), speed=1.0, bearing=0.0, lon=0.0, lat=0.0)
                   for t in (0, 30, 60, 95, 125))
    traj = Trajectory("x-0", "x", probes)
    assert traj.probing_interval == 30.0


def test_log_round_trip(tmp_path, chain_network):
    store = HistoryStore(chain_network)
    rec = _record(chain_network, "a-0", "a", ((0, 1), (0, 2)))
    store.record_match(rec)
    log_path = tmp_path / "history.log"
    store.save_log(str(log_path))
    text = log_path.read_text().splitlines()
    assert text[0] == "a-0|0|0:1|"
    assert text[1] == "a-0|1|0:2|0:1;0:2"

    traj = _trajectory(chain_network, "a-0", "a", t0=rec.t0, t_end=rec.t_end)
    again = HistoryStore(chain_network)
    assert again.load_log(str(log_path), {"a-0": traj}) == 1
    assert again.vehicle_counts("a", before_t=rec.t_end) == \
        store.vehicle_counts("a", before_t=rec.t_end)


def _load(network, tmp_path, text, trajectories):
    log_path = tmp_path / "history.log"
    log_path.write_text(text)
    store = HistoryStore(network)
    store.load_log(str(log_path), trajectories)
    return store


class TestLoadLog:
    CANONICAL = "a-0|0|0:3|\na-0|1|1:1|0:3;0:4;1:1\n"

    @pytest.fixture
    def trips(self, chain_network):
        return {"a-0": _trajectory(chain_network, "a-0", "a")}

    def test_stored_keys_are_the_network_tuples(self, chain_network, tmp_path, trips):
        # the network's own spelling and another one both resolve to Link.edge_keys
        for text in (self.CANONICAL, "a-0|0|00:3|\na-0|1|+1:01|0:3;0:4; 1:1\n"):
            store = _load(chain_network, tmp_path, text, trips)
            (rec,) = store.records()
            keys = [*rec.matched_edges, *rec.paths[1], *store.vehicle_counts("a", rec.t_end)]
            assert len(keys) == 8
            for key in keys:
                assert key is chain_network.link(key[0]).edge_keys[key[1] - 1]

    @pytest.mark.parametrize("edge, seg", [("0:03", "0:3;0:4;1:1"), ("+0:3", "0:3;0:4;01:1"),
                                           ("0:3", "0:3;0:+4;1:1"), ("0:3", " 0:3;0:4 ;1:1")])
    def test_other_spellings_load_the_same_record(self, chain_network, tmp_path, trips,
                                                  edge, seg):
        want = _load(chain_network, tmp_path, self.CANONICAL, trips).records()
        text = f"a-0|0|{edge}|\na-0|1|1:1|{seg}\n"
        assert _load(chain_network, tmp_path, text, trips).records() == want

    @pytest.mark.parametrize("line, message", [
        ("a-0|1|9:1|0:4;1:1", "edge (9, 1) is not in the link table"),
        ("a-0|1|1:1|0:4;1:9", "edge (1, 9) is not in the link table"),
        ("a-0|1|1:01|0:4;+7:1", "edge (7, 1) is not in the link table"),
        ("a-0|1|9:1|0:4;3:9", "edge (3, 9) is not in the link table"),  # the path first
        ("a-0|1|1:1|0:4;", "not enough values to unpack (expected 2, got 1)"),
        ("a-0|1|9:1|0:4;", "not enough values to unpack (expected 2, got 1)"),  # bad text first
        ("a-0|1|1:1|0:4;1:x", "invalid literal for int() with base 10: 'x'"),
        ("a-0|1|0:4;1:1|0:4;1:1", "too many values to unpack (expected 1)"),
        ("a-0|1|1:1:1|", "too many values to unpack (expected 2)"),
    ])
    def test_rejections_keep_their_messages(self, chain_network, tmp_path, trips, line,
                                            message):
        log_path = tmp_path / "history.log"
        log_path.write_text(f"a-0|0|0:4|\n{line}\n")
        with pytest.raises(InputFormatError) as info:
            HistoryStore(chain_network).load_log(str(log_path), trips)
        unknown = message.startswith("edge")
        assert str(info.value) == f"{log_path}:2: {'trajectory a-0: ' if unknown else ''}{message}"

    def test_key_table_is_built_on_the_first_edge_field(self, chain_network, tmp_path,
                                                        trips, monkeypatch):
        built = []

        class Links(dict):
            def values(self):
                built.append(1)
                return super().values()

        monkeypatch.setattr(chain_network, "links", Links(chain_network.links))
        for text, tables in (("", 0), ("\n\n", 0), (self.CANONICAL, 1)):
            built.clear()
            _load(chain_network, tmp_path, text, trips)
            assert len(built) == tables

    def test_lines_with_one_text_share_one_tuple(self, chain_network, tmp_path):
        trips = {tid: _trajectory(chain_network, tid, tid[0]) for tid in ("a-0", "b-0")}
        text = "".join(f"{tid}|1|1:1|0:3;0:4;1:1\n" for tid in trips)
        a, b = _load(chain_network, tmp_path, text, trips).records()
        assert a.paths[1] == ((0, 3), (0, 4), (1, 1))
        assert a.paths[1] is b.paths[1] and a.matched_edges[1] is b.matched_edges[1]

    def test_each_distinct_path_is_walked_once(self, chain_network, tmp_path, monkeypatch):
        calls = []

        def spy(network, a, b):
            calls.append((a, b))
            return connected(network, a, b)

        connected = history._edges_connected
        monkeypatch.setattr(history, "_edges_connected", spy)
        made = []
        for copies in (1, 200):
            trips = {f"a-{k}": _trajectory(chain_network, f"a-{k}", "a") for k in range(copies)}
            text = "".join(f"{tid}|1|1:1|0:3;0:4;1:1\n" for tid in trips)
            assert len(_load(chain_network, tmp_path, text, trips)) == copies
            made.append(len(calls))
            calls.clear()
        assert made == [1, 1]  # the path crosses one link boundary

    @pytest.mark.parametrize("line, message", [
        ("b-0|1|1:1|0:4;1:9", "trajectory b-0: edge (1, 9) is not in the link table"),
        ("b-0|1|9:1|0:4;1:1", "trajectory b-0: edge (9, 1) is not in the link table"),
        ("b-0|1|9:1|0:4;3:9", "trajectory b-0: edge (3, 9) is not in the link table"),
        ("b-0|1|0:4;1:1|0:4;1:1", "too many values to unpack (expected 1)"),
        ("a-0|1|1:1|0:4;1:1", "trajectory a-0: duplicate line for probe 1"),
    ])
    def test_a_field_seen_before_keeps_the_rejection(self, chain_network, tmp_path, line,
                                                     message):
        # the good line before it holds the bad line's good field texts
        log_path = tmp_path / "history.log"
        log_path.write_text(f"a-0|0|0:4|\na-0|1|1:1|0:4;1:1\n{line}\n")
        trips = {tid: _trajectory(chain_network, tid, tid[0]) for tid in ("a-0", "b-0")}
        with pytest.raises(InputFormatError) as info:
            HistoryStore(chain_network).load_log(str(log_path), trips)
        assert str(info.value) == f"{log_path}:3: {message}"


def test_only_connected_paths_join_the_proved_set(chain_network):
    proved = set()
    bad = _record(chain_network, "a-0", "a", ((0, 3), (1, 2)))
    for _ in range(2):
        with pytest.raises(ValueError, match="disconnected at"):
            validate_record(chain_network, bad, proved)
    assert proved == set()
    good = _record(chain_network, "a-0", "a", ((0, 3), (0, 4), (1, 1)))
    validate_record(chain_network, good, proved)
    assert proved == {good.paths[1]}


def test_disconnected_path_messages(chain_network):
    # within a link by the edge index; across links by the link ends
    for a, b in [((0, 1), (0, 3)), ((0, 2), (0, 1)), ((0, 3), (1, 1)), ((0, 4), (1, 2)),
                 ((0, 4), (2, 1)), ((1, 4), (0, 1))]:
        message = f"segment 1 path is disconnected at {a}->{b}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_record(chain_network, _record(chain_network, "a-0", "a", (a, b)))
    validate_record(chain_network, _record(chain_network, "a-0", "a", ((0, 3), (0, 4), (1, 1))))


def test_edge_codec_round_trip():
    edges = ((3, 1), (3, 2), (17, 1))
    assert format_edges(edges) == "3:1;3:2;17:1"
    assert parse_edges("3:1;3:2;17:1") == edges
    assert format_edges(()) == "" and parse_edges("") is None
    for bad in ("3", "3:1;", "3:1:2", "a:1"):
        with pytest.raises(ValueError):
            parse_edges(bad)


def test_probe_csv_round_trip(tmp_path, chain_network):
    traj = _trajectory(chain_network, "a-0", "a")
    path = tmp_path / "probes.csv"
    write_probes_csv(str(path), [("a", p) for p in traj.probes])
    loaded = load_probes_csv(str(path))
    assert list(loaded) == ["a"]
    assert len(loaded["a"]) == 2
    assert loaded["a"][0].t == traj.probes[0].t


def test_split_trips_on_gaps():
    probes = [Probe(t=float(t), speed=1.0, bearing=0.0, lon=0.0, lat=0.0)
              for t in (0, 30, 60, 2000, 2030)]
    trips = split_trips("v", probes, gap=900.0)
    assert [t.id for t in trips] == ["v-0", "v-1"]
    assert len(trips[0].probes) == 3
    assert len(trips[1].probes) == 2


def test_probe_validation():
    with pytest.raises(ValueError):
        Probe(t=0.0, speed=80.0, bearing=0.0, lon=0.0, lat=0.0)
    with pytest.raises(ValueError):
        Probe(t=0.0, speed=1.0, bearing=0.0, lon=math.nan, lat=0.0)
    for lon, lat in ((200.0, 0.0), (-180.5, 0.0), (0.0, 95.0), (0.0, -90.5)):
        with pytest.raises(ValueError, match="out of range"):
            Probe(t=0.0, speed=1.0, bearing=0.0, lon=lon, lat=lat)


@pytest.mark.parametrize("fields, message", [
    (dict(t=math.nan, lon=200.0, speed=80.0), "non-finite fields"),
    (dict(bearing=math.inf, lat=95.0), "non-finite fields"),
    (dict(lon=200.0, speed=80.0), "coordinates out of range"),
    (dict(lat=math.inf, speed=-1.0), "non-finite fields"),
    (dict(speed=math.nan), "probe speed nan outside"),
])
def test_probe_rejection_names_the_first_failed_check(fields, message):
    # finite fields, then coordinates, then speed: the first check that fails words it
    with pytest.raises(ValueError, match=message):
        Probe(**{"t": 0.0, "speed": 1.0, "bearing": 0.0, "lon": 0.0, "lat": 0.0, **fields})
