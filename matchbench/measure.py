"""The measured process of the match benchmark.

Run by ``run.py`` in a process of its own, so that set-up time and peak
memory cover the program and not the input generator. One repetition sets
the program up from the input files, as ``mapfuse match`` does, and matches
one slice's trajectories in one ``MatchSession.run`` call (one caller,
``jobs=1``, feedback on). Repetitions cycle through the slices until the
time is up; the result of every repetition is written to a JSON file.

    python3 measure.py --workload NAME --inputs DIR --seconds S --trace 0|1 --out FILE
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter

import workloads as wl

wl.import_program()

import mapfuse.matcher as matcher_mod  # noqa: E402
from mapfuse.evaluate import accuracy_index, evaluate_rows, recall_index  # noqa: E402
from mapfuse.history import (CollaborationContext, HistoryStore, load_probes_csv,  # noqa: E402
                             split_trips)
from mapfuse.matcher import (MatcherConfig, MatchRow, MatchSession, TrafficLedger,  # noqa: E402
                             read_match_csv, write_match_csv)
from mapfuse.network import RoadNetwork, load_network_csv  # noqa: E402
from mapfuse.scoring import FusionWeights  # noqa: E402
from mapfuse.traffic import SpectralPredictor, read_states_csv, train_spectral  # noqa: E402

from spans import Layer, NullTracer, Tracer, summarize  # noqa: E402

SPLIT_LENGTH = 50.0   # CLI default edge split length
MAX_STEPS = 12        # `mapfuse train-predictor` default lookback steps
DECAY_RATIO = 0.8
# An untraced run matches at least this many segments, so that ten or more
# segment timings lie beyond p99.
MIN_SEGMENTS = 1000

JUDGES = ("kinematic_score", "habit_scores", "traffic_scores", "mean_link_occupancy",
          "final_score", "select_path")


def _load_trajectories(path: str, trip_gap: float):
    """``load_probes_csv`` + ``split_trips``, keeping trips of two or more probes."""
    by_vehicle = load_probes_csv(path)
    out = []
    for vehicle in sorted(by_vehicle):
        out.extend(t for t in split_trips(vehicle, by_vehicle[vehicle], trip_gap)
                   if len(t.probes) >= 2)
    return out


def _config(workload: wl.Workload) -> MatcherConfig:
    weights = FusionWeights.equal() if workload.equal_weights \
        else FusionWeights.calibrated_default()
    return MatcherConfig(split_length=SPLIT_LENGTH, weights=weights,
                         predictor=workload.predictor, trip_gap=workload.trip_gap)


def setup(workload: wl.Workload, inputs: str, k: int, tracer):
    """Everything `mapfuse match` does before matching slice k; returns the session."""
    path = lambda name: os.path.join(inputs, name)  # noqa: E731
    network = tracer.call("network.load", load_network_csv,
                          path(wl.NODES), path(wl.LINKS), SPLIT_LENGTH)
    trajectories = _load_trajectories(path(wl.probes_file(k)), workload.trip_gap)
    history = HistoryStore(network)
    warm = _load_trajectories(path(wl.WARM_PROBES), workload.trip_gap)
    history.load_log(path(wl.WARM_LOG), {t.id: t for t in warm}, prefix="warm:")
    model = None
    if workload.predictor == "spectral":
        states = read_states_csv(path(wl.STATES), network)
        model = SpectralPredictor.for_network(network, MAX_STEPS, DECAY_RATIO)
        tracer.call("traffic.train", train_spectral, model, [s.values for s in states],
                    max_epochs=workload.epochs, note=lambda a, r: r.epochs)
    session = MatchSession(network, _config(workload), history=history,
                           predictor_model=model)
    return session, trajectories


def _rows(records):
    return {(r.trajectory_id, i): MatchRow(r.trajectory_id, i, t, r.matched_edges[i], r.paths[i])
            for r in records for i, t in enumerate(r.probe_times)}


def _patch_all(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics need, where it is looked up."""
    def size(a, r):
        return len(r)

    tracer.patch(MatchSession, "match_trajectory", "matcher.trajectory", trajectory_arg=True)
    tracer.patch(MatchSession, "match_segment", "matcher.segment")
    tracer.patch(matcher_mod, "find_candidate_edges", "path_search.candidates", note=size)
    tracer.patch(matcher_mod, "build_subgraph", "path_search.subgraph",
                 note=lambda a, r: len(r.usable_links) / a[0].n_links())
    tracer.patch(matcher_mod, "k_shortest_paths", "path_search.ksp",
                 note=lambda a, r: (len(r), a[3]))
    for name in JUDGES:
        tracer.patch(matcher_mod, name, "scoring." + name)
    tracer.patch(HistoryStore, "collaboration_context", "history.collab",
                 note=lambda a, r: len(r.group))
    tracer.patch(CollaborationContext, "path_frequency", "history.path_frequency")
    tracer.patch(HistoryStore, "record_match", "history.record")
    tracer.patch(HistoryStore, "load_log", "history.load_log")
    tracer.patch(TrafficLedger, "predict_for", "traffic.predict", note=lambda a, r: r is None)
    tracer.patch(TrafficLedger, "add_locations", "traffic.add_locations")
    tracer.patch(RoadNetwork, "laplacian_spectrum", "network.spectrum")
    tracer.patch(RoadNetwork, "edges_in_bbox", "network.bbox", note=size)


def expected_spans(workload: wl.Workload) -> set[str]:
    """Span names that must record calls on a workload."""
    names = {"matcher.trajectory", "matcher.segment", "path_search.candidates",
             "path_search.subgraph", "path_search.ksp", "history.collab",
             "history.path_frequency", "history.record", "history.load_log",
             "traffic.predict", "traffic.add_locations", "network.load", "network.bbox",
             "evaluate.rows"} | {"scoring." + name for name in JUDGES}
    if workload.predictor == "spectral":
        names |= {"traffic.train", "network.spectrum"}
    return names


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(layers: dict[str, Layer], stored_trips: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (0 where a layer had no calls)."""
    get = lambda name: layers.get(name, Layer())  # noqa: E731

    def per_call(name: str, self_time: bool = False) -> float:
        layer = get(name)
        seconds = layer.self_s if self_time else layer.total_s
        return seconds / layer.calls if layer.calls else 0.0

    segments = get("matcher.segment").calls

    def per_segment_ms(seconds: float) -> float:
        return 1e3 * seconds / segments if segments else 0.0

    ksp = get("path_search.ksp").notes
    train = get("traffic.train")
    return {
        "matcher.segments": segments,
        "matcher.segment_self_ms": 1e3 * per_call("matcher.segment", self_time=True),
        "matcher.trajectory_self_ms": 1e3 * per_call("matcher.trajectory", self_time=True),
        "path_search.candidates_ms": 1e3 * per_call("path_search.candidates"),
        "path_search.candidates_per_probe": _mean(get("path_search.candidates").notes),
        "path_search.subgraph_ms": 1e3 * per_call("path_search.subgraph"),
        "path_search.subgraph_link_share": _mean(get("path_search.subgraph").notes),
        "path_search.ksp_ms": 1e3 * per_call("path_search.ksp"),
        "path_search.paths_per_seg": _mean([n for n, _ in ksp]),
        "path_search.budget_fill": _mean([n / budget for n, budget in ksp]),
        "scoring.judge_ms": per_segment_ms(sum(get("scoring." + n).total_s for n in JUDGES)),
        "history.collab_ms": 1e3 * per_call("history.collab"),
        "history.group_size": _mean(get("history.collab").notes),
        "history.path_frequency_ms": per_segment_ms(get("history.path_frequency").total_s),
        "history.record_ms": 1e3 * per_call("history.record"),
        "history.load_log_s": per_call("history.load_log"),
        "history.stored_trips": stored_trips,
        "traffic.predict_ms": 1e3 * per_call("traffic.predict"),
        "traffic.cold_pct": 100.0 * _mean(get("traffic.predict").notes),
        "traffic.add_locations_ms": 1e3 * per_call("traffic.add_locations"),
        "traffic.train_s": train.total_s,
        "traffic.train_epochs": sum(train.notes),
        "network.load_s": per_call("network.load"),
        "network.spectrum_s": get("network.spectrum").total_s,
        "network.bbox_edges": _mean(get("network.bbox").notes),
        "evaluate.rows_ms": 1e3 * per_call("evaluate.rows"),
    }


def repetition(workload: wl.Workload, inputs: str, k: int, trace: int, traced: bool) -> dict:
    """Set up, match slice k, write its match CSV; spans only when ``traced``."""
    truth = read_match_csv(os.path.join(inputs, wl.truth_file(k)))
    csv_path = os.path.join(inputs, f"match_{k}_trace{trace}.csv")
    tracer = Tracer() if traced else NullTracer()
    seg_times: list[float] = []
    unmatched = 0
    original = MatchSession.match_segment
    if traced:
        _patch_all(tracer)
    else:
        # The untraced run's single timing wrapper.
        def timed_segment(*args, **kwargs):
            nonlocal unmatched
            start = perf_counter()
            out = original(*args, **kwargs)
            seg_times.append(perf_counter() - start)
            unmatched += out is None
            return out

        MatchSession.match_segment = timed_segment
    try:
        start = perf_counter()
        session, trajectories = setup(workload, inputs, k, tracer)
        setup_s = perf_counter() - start
        start = perf_counter()
        try:
            records = session.run(trajectories, jobs=1, feedback=True)
            failed = 0
        except Exception:  # a raising trajectory fails the whole batch
            traceback.print_exc()
            records, failed = [], len(trajectories)
        run_s = perf_counter() - start
    finally:
        tracer.restore()
        MatchSession.match_segment = original

    write_match_csv(csv_path, records)
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    rep = {"slice": k, "csv": csv_path, "traced": traced, "setup_s": setup_s, "run_s": run_s,
           "trajectories": len(trajectories), "failed": failed, "digest": digest}
    if records:
        pred = _rows(records)
        rep["accuracy_pct"] = accuracy_index(pred, truth)
        rep["recall_pct"] = recall_index(pred, truth)
    if traced and records:
        tracer.call("evaluate.rows", evaluate_rows, read_match_csv(csv_path), truth)
        layers = summarize(tracer.spans)
        missing = sorted(expected_spans(workload) - layers.keys())
        if missing:
            raise RuntimeError(f"{workload.name}: no calls recorded for {', '.join(missing)}")
        rep["layers"] = layer_metrics(layers, len(session.history))
        rep["breakdown"] = {name: [layer.calls, layer.total_s, layer.self_s]
                            for name, layer in layers.items()}
        rep["barrier_writes"] = _barrier_writes(tracer.spans, trajectories,
                                                session.config.update_interval)
    elif not traced:
        rep["segment_s"] = seg_times
        rep["unmatched"] = unmatched
    return rep


def _barrier_writes(spans, trajectories, interval: float) -> list[int]:
    """[barriers, barriers that wrote both history records and ledger locations].

    ``MatchSession.run`` flushes feedback before each start-time interval
    group after the first, and once at the end, so there are as many
    barriers as groups. Root spans outside any trajectory that no trajectory
    span separates belong to one flush.
    """
    groups = len({math.floor(t.t0 / interval) for t in trajectories})
    writes, flush = 0, set()
    for span in spans:
        if span.parent is not None:
            continue
        if span.trajectory is None and span.name in ("history.record",
                                                     "traffic.add_locations"):
            flush.add(span.name)
            continue
        writes += len(flush) == 2
        flush = set()
    return [groups, writes + (len(flush) == 2)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    # An untraced run matches every slice at least once and at least
    # MIN_SEGMENTS segments. A traced run alternates an untraced and a traced
    # repetition of each slice, so tracing overhead and the traced output
    # digest are compared pair by pair inside one process. No repetition
    # starts that would likely end past --seconds once those minimums are met.
    started = perf_counter()
    reps: list[dict] = []
    while True:
        if args.trace:
            traced, k = len(reps) % 2 == 1, len(reps) // 2 % wl.SLICES
        else:
            traced, k = False, len(reps) % wl.SLICES
        reps.append(repetition(workload, args.inputs, k, args.trace, traced))
        if args.trace:
            done = len(reps) >= 2 and traced
        else:
            done = len(reps) >= wl.SLICES and \
                sum(len(r["segment_s"]) for r in reps) >= MIN_SEGMENTS
        elapsed = perf_counter() - started
        if done and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
    result = {"repetitions": reps,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
