"""The benchmark's workloads and the names of their input files.

Every workload is a synthetic fleet on a jittered grid. The road network is
the same for every seed; the seed draws the fleet (trip end points, link
speeds, start times, probe noise). The matched trajectories are split into
slices by vehicle. One repetition matches one slice in a fresh session, the
way one ``mapfuse match`` call matches one probes file, so repetitions stay
short while the accuracy figures cover the whole fleet.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

NODES, LINKS = "nodes.csv", "links.csv"
WARM_PROBES, WARM_LOG = "warm_probes.csv", "warm_history.log"
STATES = "states.csv"
META = "inputs.json"
# Matched slices per workload; one repetition matches one.
SLICES = 4


def probes_file(k: int) -> str:
    return f"probes_{k}.csv"


def truth_file(k: int) -> str:
    return f"truth_{k}.csv"


def import_program():
    """Import mapfuse from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mapfuse", "__init__.py")):
        raise SystemExit(f"error: mapfuse sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import mapfuse
    if not os.path.abspath(mapfuse.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: mapfuse imported from {mapfuse.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int                     # nodes per side of the jittered grid
    spacing: float                # mean grid spacing, m
    interval: float               # probe interval that is matched, s
    vehicles: int                 # vehicles per slice
    trips: int                    # trips per vehicle
    od_steps: tuple[int, int]     # grid-step distance band of trip end points
    trip_gap: float               # probe gap that splits a vehicle's trips, s
    predictor: str                # naive | spectral
    equal_weights: bool           # equal fusion weights instead of the default
    matched_trip: int | None = None  # the one trip index matched, earlier trips
    #                                  form the warm history; None: all, cold
    epochs: int = 0               # spectral training epochs (fixed count)
    arterial: bool = False        # two-tier speeds as in the acceptance ablation
    fleet: tuple = ()             # extra generate_synthetic keyword arguments


WORKLOADS = {w.name: w for w in (
    # Thousands of warm trips that HistoryStore.collaboration_context scans
    # once per trajectory; the small network and the budget floor of 6 paths
    # (60 s probes) keep path search light. Shaped like the acceptance
    # ablation fixture: arterial speeds, 8 trips a vehicle, habit 0.7, 35
    # degree heading noise.
    Workload(
        name="habit_warm",
        grid=8, spacing=250.0, interval=60.0, vehicles=250, trips=8,
        od_steps=(7, 12), trip_gap=300.0, predictor="naive", equal_weights=True,
        matched_trip=7, arterial=True,
        fleet=(("min_route_duration", 300.0), ("bearing_noise_deg", 35.0),
               ("congestion_factor", 0.75), ("congested_fraction", 0.15),
               ("start_spread", 8000.0), ("trip_spacing", 1200.0))),
    # A 3,968-link network at 240 s probes (path budget 54): the subgraph trim
    # loops over every network link and Yen's search fills a large budget.
    # The history stays nearly empty.
    Workload(
        name="wide_sparse",
        grid=32, spacing=200.0, interval=240.0, vehicles=30, trips=2,
        od_steps=(16, 24), trip_gap=600.0, predictor="naive", equal_weights=False,
        fleet=(("trip_spacing", 4800.0),)),
    # A cold start over about four hours of fleet time: every interval barrier
    # writes into the history store and the traffic ledger, and the spectral
    # predictor, trained in set-up on yesterday's state log, is consulted.
    Workload(
        name="stream_feedback",
        grid=12, spacing=200.0, interval=120.0, vehicles=40, trips=6,
        od_steps=(8, 14), trip_gap=600.0, predictor="spectral", equal_weights=False,
        epochs=8),
)}
