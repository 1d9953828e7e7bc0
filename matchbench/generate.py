"""Write one workload's seeded input files, as the mapfuse CLI reads them.

    python3 generate.py --workload NAME --seed N --out DIR

The files are the nodes and links CSV, one probes CSV per slice, the probes
and log of the warm history (empty for a cold start), and for the spectral
predictor a state log. The truth of each slice is written beside its probes
as a match CSV. Only ``mapfuse.synth`` and ``mapfuse.calibration.downsample``
make the data; this runs in a process of its own, before any measurement.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import workloads as wl

wl.import_program()

import numpy as np  # noqa: E402

from mapfuse.calibration import downsample  # noqa: E402
from mapfuse.history import (HistoryStore, load_probes_csv, split_trips,  # noqa: E402
                             write_probes_csv)
from mapfuse.matcher import TrafficLedger, write_match_csv  # noqa: E402
from mapfuse.network import save_network_csv  # noqa: E402
from mapfuse.synth import generate_synthetic, make_grid_network  # noqa: E402
from mapfuse.traffic import TrafficConfig, write_states_csv  # noqa: E402

SOURCE_INTERVAL = 15.0   # probe interval the fleets are generated at
NETWORK_SEED = 0         # the network is the same for every seed
YESTERDAY = 7919         # seed offset of the fleet behind the state log

# Arterial rows and columns of the two-tier grid (every third street).
_ARTERIAL_ROWS = {1, 4}
_ARTERIAL_COLS = {2, 5}


def _arterial_speeds(net, grid: int, seed: int) -> dict[int, float]:
    rng = np.random.default_rng(seed + 991)
    speeds = {}
    for lid in net.link_ids:
        link = net.link(lid)
        row_a, col_a = link.from_node // grid, link.from_node % grid
        row_b = link.to_node // grid
        arterial = (row_a in _ARTERIAL_ROWS) if row_a == row_b else (col_a in _ARTERIAL_COLS)
        speeds[lid] = float(rng.uniform(5.5, 7.5) if arterial else rng.uniform(2.2, 3.4))
    return speeds


def _od_pairs(workload: wl.Workload) -> list[tuple[int, int]]:
    """Every node pair whose grid-step distance lies in the workload's band.

    Drawing trip end points from a fixed band, instead of from a few seeded
    hubs, keeps route lengths, and so the work per trajectory, alike across
    seeds.
    """
    lo, hi = workload.od_steps
    n = workload.grid
    return [(a, b) for a in range(n * n) for b in range(n * n)
            if lo <= abs(a // n - b // n) + abs(a % n - b % n) <= hi]


def _fleet(workload: wl.Workload, net, seed: int):
    kwargs = dict(workload.fleet)
    kwargs["od_pairs"] = _od_pairs(workload)
    if workload.arterial:
        kwargs["link_speeds"] = _arterial_speeds(net, workload.grid, seed)
    return generate_synthetic(net, wl.SLICES * workload.vehicles, 0.7, True,
                              SOURCE_INTERVAL, 12.0 if workload.arterial else 5.0, seed=seed,
                              trips_per_vehicle=workload.trips, **kwargs)


def _thin(trajectories, interval: float):
    return [t for t in (downsample(t, interval) for t in trajectories) if len(t.probes) >= 2]


def _write_probes(path: str, trajectories, trip_gap: float) -> dict[str, str]:
    """Write probes and map each synthetic trajectory id to the id a reader gets.

    Readers split a vehicle's probes at ``trip_gap``, which numbers trips per
    file. The map must be one to one, so a split that merged or cut trips
    fails here instead of skewing the run.
    """
    write_probes_csv(path, [(t.vehicle, p) for t in trajectories for p in t.probes])
    by_start = {(t.vehicle, f"{t.t0:.3f}"): t for t in trajectories}
    ids: dict[str, str] = {}
    by_vehicle = load_probes_csv(path)
    for vehicle in sorted(by_vehicle):
        for loaded in split_trips(vehicle, by_vehicle[vehicle], trip_gap):
            source = by_start.get((vehicle, f"{loaded.t0:.3f}"))
            if source is None or len(source.probes) != len(loaded.probes):
                raise RuntimeError(f"{path}: trip split does not reproduce {loaded.id}")
            ids[source.id] = loaded.id
    if len(ids) != len(trajectories):
        raise RuntimeError(f"{path}: {len(trajectories) - len(ids)} trips lost in the split")
    return ids


def _truth(fleet, trajectories, ids: dict[str, str]):
    return [dataclasses.replace(fleet.truth_record_for(t), trajectory_id=ids[t.id])
            for t in trajectories]


def generate(workload: wl.Workload, seed: int, out_dir: str) -> dict:
    """Write the input files of ``workload`` for ``seed`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    net = make_grid_network(workload.grid, workload.grid, workload.spacing,
                            spacing_jitter=0.25, seed=NETWORK_SEED)
    save_network_csv(net, os.path.join(out_dir, wl.NODES), os.path.join(out_dir, wl.LINKS))
    fleet = _fleet(workload, net, seed)

    def trip_index(t):
        return int(t.id.rsplit("-", 1)[1])

    if workload.matched_trip is None:
        matched, warm = fleet.trajectories, []
    else:
        matched = [t for t in fleet.trajectories if trip_index(t) == workload.matched_trip]
        warm = [t for t in fleet.trajectories if trip_index(t) < workload.matched_trip]
    matched = _thin(matched, workload.interval)
    sizes = []
    for k in range(wl.SLICES):
        part = [t for t in matched if int(t.vehicle[1:]) % wl.SLICES == k]
        ids = _write_probes(os.path.join(out_dir, wl.probes_file(k)), part, workload.trip_gap)
        write_match_csv(os.path.join(out_dir, wl.truth_file(k)), _truth(fleet, part, ids))
        sizes.append(len(part))

    # The warm history is the truth of the earlier trips, logged the way
    # `mapfuse match --history-log-out` writes it. A cold start gets an
    # empty log, as on the first day of a deployment.
    warm = _thin(warm, workload.interval)
    warm_ids = _write_probes(os.path.join(out_dir, wl.WARM_PROBES), warm, workload.trip_gap)
    store = HistoryStore(net)
    for record in _truth(fleet, warm, warm_ids):
        store.record_match(record)
    store.save_log(os.path.join(out_dir, wl.WARM_LOG))

    n_states = 0
    if workload.predictor == "spectral":
        # Yesterday: another fleet on the same network, its truth folded into
        # interval states as `mapfuse match --states-out` writes them.
        yesterday = _fleet(workload, net, seed + YESTERDAY)
        ledger = TrafficLedger(net, TrafficConfig())
        for record in yesterday.truth_records(_thin(yesterday.trajectories, workload.interval)):
            ledger.add_locations(record.matched_locations())
        states = ledger.observed_states()
        write_states_csv(os.path.join(out_dir, wl.STATES), net, states)
        n_states = len(states)

    meta = {"workload": workload.name, "seed": seed, "links": net.n_links(),
            "trajectories_per_slice": sizes, "warm_trips": len(warm), "states": n_states}
    with open(os.path.join(out_dir, wl.META), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(wl.WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
