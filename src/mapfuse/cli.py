"""Command line driver: match, calibrate, train-predictor, evaluate, downsample, synth.

All pipeline constants are flags; their defaults (the deployed values) and
range checks live in MatcherConfig. A JSON config file can mirror any flag
(keys use underscores); explicit flags win. Exit codes: 0 success, 2
input-format error or a file that cannot be written, 3 empty result.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
import time
from typing import Sequence

from . import calibration as cal
from .evaluate import EmptyResultError, cost_index, evaluate_rows
from .history import HistoryStore, Trajectory, load_probes_csv, split_trips, write_probes_csv
from .matcher import MatcherConfig, MatchSession, read_match_csv, write_match_csv
from .network import InputFormatError, _read_json, load_network_csv, save_network_csv
from .path_search import line_feature
from .scoring import FusionWeights
from .synth import generate_synthetic, make_grid_network
from .traffic import SpectralPredictor, read_states_csv, train_spectral, write_states_csv

log = logging.getLogger("mapfuse")

_DEFAULTS = MatcherConfig()

# Every setting a flag or the config file can give, with its flag help. The
# flag is the key with dashes. Pipeline settings take their defaults and
# range checks from MatcherConfig; only judges belong to the CLI.
_CONFIG_KEYS = {
    "split_length": "edge split length, m",
    "radius": "probe vicinity radius, m",
    "speed_decay": "speed weight decay coefficient",
    "collab_spatial": "collaboration spatial radius, m",
    "collab_temporal": "collaboration temporal radius, s",
    "neighbor_weight": "collaboration neighbor weight in [0,1]",
    "update_interval": "traffic state interval, s",
    "lookback": "traffic lookback window, s",
    "decay_ratio": "temporal decay ratio in [0,1]",
    "k_floor": "minimum path budget",
    "k_cap": "maximum path budget",
    "trip_gap": "probe gap that splits trips, s",
    "predictor": "traffic predictor: none, naive or spectral",
    "judges": "comma list of kinematic,habit,traffic",
}
_RENAMED = {"radius": "vicinity_radius", "collab_spatial": "collab_spatial_radius",
            "collab_temporal": "collab_temporal_radius"}
_JUDGES = ("kinematic", "habit", "traffic")
_CLI_DEFAULTS = {"judges": ",".join(_JUDGES)}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = _read_json(path)
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise InputFormatError(f"{path}: unknown config keys {sorted(unknown)}")
    return cfg


def _default(key: str):
    if key in _CLI_DEFAULTS:
        return _CLI_DEFAULTS[key]
    return getattr(_DEFAULTS, _RENAMED.get(key, key))


def _add_setting_flag(p: argparse.ArgumentParser, key: str) -> None:
    default = _default(key)
    p.add_argument("--" + key.replace("_", "-"), type=type(default),
                   help=f"{_CONFIG_KEYS[key]} (default {default})")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config mirroring these flags (flags win)")
    for key in _CONFIG_KEYS:
        _add_setting_flag(p, key)


def _user_settings(args) -> dict:
    """The settings the user gave: each flag if set, else its key in the config file."""
    settings = _load_config(getattr(args, "config", None))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


@contextlib.contextmanager
def _input_errors(prefix: str = ""):
    """A ValueError from a library check on what the user gave exits 2."""
    try:
        yield
    except ValueError as exc:
        raise InputFormatError(f"{prefix}{exc}") from exc


def _cast(settings: dict, key: str):
    """A setting cast from its text to the type of its default, as a flag's is, so
    a config value passes only where the flag would; the default if not given."""
    default = _default(key)
    try:
        return type(default)(str(settings.get(key, default)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"pipeline setting {key}: {exc}") from exc


def _build_matcher_config(args, **fixed) -> MatcherConfig:
    """MatcherConfig from the settings the user gave; a bad value exits 2 and names it."""
    settings = _user_settings(args)
    kwargs = {_RENAMED.get(key, key): _cast(settings, key)
              for key in settings if key not in _CLI_DEFAULTS}
    judges = {j.strip() for j in _cast(settings, "judges").split(",") if j.strip()}
    if not judges <= set(_JUDGES):
        raise InputFormatError(f"unknown judges {sorted(judges - set(_JUDGES))}")
    kwargs.update((f"use_{j}", j in judges) for j in _JUDGES)
    with _input_errors("pipeline setting: "):
        return MatcherConfig(**kwargs, **fixed)


def _load_trajectories(probes_path: str, trip_gap: float) -> list[Trajectory]:
    by_vehicle = load_probes_csv(probes_path)
    out: list[Trajectory] = []
    for vehicle in sorted(by_vehicle):
        out.extend(t for t in split_trips(vehicle, by_vehicle[vehicle], trip_gap)
                   if len(t.probes) >= 2)
    return out


def _resolve_weights(args) -> FusionWeights:
    if args.equal_weights:
        return FusionWeights.equal()
    if args.weights_file:
        return cal.read_weights_json(args.weights_file)
    return FusionWeights.calibrated_default()


def _check_outputs(files: Sequence[str | None], dirs: Sequence[str | None] = ()) -> None:
    """Fail before the work on an output that cannot be written; make the output dirs."""
    for d in filter(None, dirs):
        os.makedirs(d, exist_ok=True)
    for path in filter(None, files):
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise OSError(f"cannot write {path}: not a file in a writable directory")


def _record_geojson(network, record) -> dict:
    """One LineString per inferred segment of a match record."""
    features = [line_feature(network, seg, {"trajectory": record.trajectory_id, "segment": i})
                for i, seg in enumerate(record.paths) if seg]
    return {"type": "FeatureCollection", "features": features}


# -- subcommands ---------------------------------------------------------------

def _cmd_match(args) -> int:
    _check_outputs([args.out, args.states_out, args.history_log_out, args.report],
                   [args.geojson_dir, args.debug_dir])
    mcfg = _build_matcher_config(args, weights=_resolve_weights(args))
    network = load_network_csv(args.nodes, args.links, mcfg.split_length)
    trajectories = _load_trajectories(args.probes, mcfg.trip_gap)
    if not trajectories:
        raise EmptyResultError("no trajectory with at least 2 probes in the input")

    history = HistoryStore(network)
    if args.history_log:
        if not args.history_probes:
            raise InputFormatError("--history-log requires --history-probes")
        warm = _load_trajectories(args.history_probes, mcfg.trip_gap)
        history.load_log(args.history_log, {t.id: t for t in warm}, prefix="warm:")

    model = None
    if mcfg.predictor == "spectral":
        if not args.model:
            raise InputFormatError("predictor 'spectral' requires --model")
        model = SpectralPredictor.load(args.model, network)

    session = MatchSession(network, mcfg, history=history, predictor_model=model)
    session.debug_dir = args.debug_dir
    t_start = time.perf_counter()
    records = session.run(trajectories)
    elapsed = time.perf_counter() - t_start
    write_match_csv(args.out, records)

    if args.states_out:
        write_states_csv(args.states_out, network, session.traffic.observed_states())
    if args.history_log_out:
        session.history.save_log(args.history_log_out)
    if args.geojson_dir:
        for rec in records:
            fc = _record_geojson(network, rec)
            with open(os.path.join(args.geojson_dir, f"{rec.trajectory_id}.geojson"),
                      "w", encoding="utf-8") as fh:
                json.dump(fc, fh)
    if args.report:
        matched = sum(1 for r in records for e in r.matched_edges if e is not None)
        total = sum(len(r.matched_edges) for r in records)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({
                "n_trajectories": len(records),
                "n_probes": total,
                "n_matched_probes": matched,
                "wall_seconds": round(elapsed, 6),
                "cost_s_per_trajectory": round(cost_index([elapsed], len(records)), 6),
            }, fh, indent=2)
    log.info("matched %d trajectories in %.2fs", len(records), elapsed)
    return 0


def _cmd_synth(args) -> int:
    _check_outputs([args.out, args.truth_out, args.nodes_out, args.links_out])
    if args.seed < 0:
        raise InputFormatError(f"--seed: expected a non-negative integer, got {args.seed}")
    split_length = _build_matcher_config(args).split_length
    with _input_errors():
        network = make_grid_network(args.grid_cols, args.grid_rows, args.spacing,
                                    split_length=split_length)
        fleet = generate_synthetic(
            network, args.vehicles, args.habit, args.congestion, args.interval,
            args.noise, seed=args.seed, trips_per_vehicle=args.trips,
            speed_range=(args.speed_min, args.speed_max),
            min_route_duration=args.min_duration)
    if not fleet.trajectories:
        raise EmptyResultError("generator produced no trajectories")
    rows = [(t.vehicle, p) for t in fleet.trajectories for p in t.probes]
    write_probes_csv(args.out, rows)
    if args.truth_out:
        write_match_csv(args.truth_out, fleet.truth_records())
    if args.nodes_out and args.links_out:
        save_network_csv(network, args.nodes_out, args.links_out)
    log.info("generated %d trajectories over %d links", len(fleet.trajectories),
             network.n_links())
    return 0


def _cmd_downsample(args) -> int:
    _check_outputs([args.out])
    trajectories = _load_trajectories(args.probes, _build_matcher_config(args).trip_gap)
    if not trajectories:
        raise EmptyResultError("no trajectories to downsample")
    kept = []
    for traj in trajectories:
        with _input_errors():
            thin = cal.downsample(traj, args.interval)
        if len(thin.probes) >= 2:
            kept.append(thin)
    if not kept:
        raise EmptyResultError("downsampling left no trajectory with 2+ probes")
    rows = [(t.vehicle, p) for t in kept for p in t.probes]
    write_probes_csv(args.out, rows)
    return 0


def _cmd_evaluate(args) -> int:
    pred = read_match_csv(args.pred)
    truth = read_match_csv(args.truth)
    if not truth:
        raise EmptyResultError("empty truth file")
    cost = None
    if args.cost_seconds is not None:
        n = len({tid for tid, _ in pred}) if args.n_trajectories is None else args.n_trajectories
        with _input_errors("--cost-seconds/--n-trajectories: "):
            cost = cost_index([args.cost_seconds], n)
    with _input_errors(f"{args.pred} against {args.truth}: "):
        report = evaluate_rows(pred, truth, cost=cost,
                               config_echo={"pred": args.pred, "truth": args.truth})
    print(report.to_json())
    return 0


def _cmd_train_predictor(args) -> int:
    _check_outputs([args.out])
    mcfg = _build_matcher_config(args)
    network = load_network_csv(args.nodes, args.links, mcfg.split_length)
    states = read_states_csv(args.states, network)
    if len(states) < 3:
        raise EmptyResultError("not enough state intervals to train on")
    with _input_errors():
        if len(states) < args.max_steps + 2:  # before the model stacks max_steps filter rows
            raise ValueError(f"--max-steps needs {args.max_steps + 2} intervals, got {len(states)}")
        model = SpectralPredictor.for_network(network, args.max_steps, mcfg.decay_ratio)
        result = train_spectral(model, [s.values for s in states], max_epochs=args.epochs)
    model.save(args.out)
    summary = {"epochs": result.epochs, "best_val_mse": result.best_val,
               "test_mse": result.test_mse}
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_calibrate(args) -> int:
    _check_outputs([args.out, args.samples_out])
    if args.seed < 0:
        raise InputFormatError(f"--seed: expected a non-negative integer, got {args.seed}")
    # sampling runs with uninformed weights
    mcfg = _build_matcher_config(args, weights=FusionWeights.equal())
    if mcfg.predictor == "spectral":
        raise InputFormatError("calibrate takes no checkpoint; use predictor 'naive' or 'none'")
    network = load_network_csv(args.nodes, args.links, mcfg.split_length)
    trajectories = _load_trajectories(args.probes, mcfg.trip_gap)
    if not trajectories:
        raise EmptyResultError("no trajectories in the anchor data")
    with _input_errors("--intervals: "):
        intervals = [float(v) for v in args.intervals.split(",") if v]

    # the truth depends only on the full-rate trip, so every interval shares it
    truth = {traj.id: ({p: i for i, p in enumerate(traj.probes)},
                       dict(cal.ground_truth_paths(traj, network, radius=mcfg.vicinity_radius)))
             for traj in trajectories}
    samples = []
    for interval in intervals:
        with _input_errors("--intervals: "):
            thinned = [cal.downsample(traj, interval) for traj in trajectories]
        sampler = cal.ScoreSampler(network, mcfg, truth)
        sampler.run(thin for thin in thinned if len(thin.probes) >= 2)
        samples.extend(sampler.samples)
    if args.samples_out:
        cal.write_samples_csv(args.samples_out, samples)
    if len(samples) < 30:
        raise EmptyResultError(f"only {len(samples)} calibration samples; need 30")
    fit = cal.fit_weights(samples, seed=args.seed)
    cal.write_weights_json(args.out, fit)
    print(json.dumps({
        "weights": {"wp": fit.weights.kinematic, "wc": fit.weights.habit,
                    "wa": fit.weights.traffic},
        "rounded": {"wp": fit.rounded.kinematic, "wc": fit.rounded.habit,
                    "wa": fit.rounded.traffic},
        "bias": fit.bias, "mse": fit.val_mse, "n_samples": len(samples),
        "degenerate": fit.degenerate,
    }, indent=2))
    return 0


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapfuse", allow_abbrev=False,
        description="Map matching for low-frequency GNSS tracks with score fusion")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # a subcommand does not inherit allow_abbrev; a prefix would run as a longer flag
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_command("match", help="match probe trajectories onto the network")
    p.add_argument("--nodes", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--probes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights-file", dest="weights_file")
    p.add_argument("--equal-weights", dest="equal_weights", action="store_true")
    p.add_argument("--model", help="spectral predictor checkpoint (for --predictor spectral)")
    p.add_argument("--history-log", dest="history_log")
    p.add_argument("--history-probes", dest="history_probes")
    p.add_argument("--history-log-out", dest="history_log_out")
    p.add_argument("--states-out", dest="states_out")
    p.add_argument("--report")
    p.add_argument("--geojson-dir", dest="geojson_dir")
    p.add_argument("--debug-dir", dest="debug_dir",
                   help="dump per-segment search graph and candidate paths as GeoJSON")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_match)

    p = add_command("synth", help="generate a synthetic fleet on a grid network")
    p.add_argument("--out", required=True, help="probes CSV")
    p.add_argument("--truth-out", dest="truth_out")
    p.add_argument("--nodes-out", dest="nodes_out")
    p.add_argument("--links-out", dest="links_out")
    p.add_argument("--grid-cols", type=int, default=8)
    p.add_argument("--grid-rows", type=int, default=8)
    p.add_argument("--spacing", type=float, default=200.0)
    _add_setting_flag(p, "split_length")
    p.add_argument("--vehicles", type=int, default=50)
    p.add_argument("--trips", type=int, default=2)
    p.add_argument("--habit", type=float, default=0.7)
    p.add_argument("--congestion", action="store_true")
    p.add_argument("--interval", type=float, default=15.0)
    p.add_argument("--noise", type=float, default=5.0)
    p.add_argument("--speed-min", type=float, dest="speed_min", default=2.5)
    p.add_argument("--speed-max", type=float, dest="speed_max", default=6.0)
    p.add_argument("--min-duration", type=float, dest="min_duration")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = add_command("downsample", help="thin probes to a coarser interval")
    p.add_argument("--probes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--interval", type=float, required=True)
    _add_setting_flag(p, "trip_gap")
    p.set_defaults(func=_cmd_downsample)

    p = add_command("evaluate", help="score predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--cost-seconds", type=float, dest="cost_seconds")
    p.add_argument("--n-trajectories", type=int, dest="n_trajectories")
    p.set_defaults(func=_cmd_evaluate)

    p = add_command("train-predictor", help="fit the spectral traffic predictor")
    p.add_argument("--nodes", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--states", required=True, help="state log CSV from match --states-out")
    p.add_argument("--out", required=True)
    _add_setting_flag(p, "split_length")
    p.add_argument("--max-steps", type=int, default=_DEFAULTS.traffic_config().max_steps,
                   help="lookback steps (default %(default)s)")
    _add_setting_flag(p, "decay_ratio")
    p.add_argument("--epochs", type=int, default=2000)
    p.set_defaults(func=_cmd_train_predictor)

    p = add_command("calibrate", help="fit fusion weights from high-frequency anchors")
    p.add_argument("--nodes", required=True)
    p.add_argument("--links", required=True)
    p.add_argument("--probes", required=True, help="high-frequency anchor probes")
    p.add_argument("--out", required=True, help="weights JSON")
    p.add_argument("--samples-out", dest="samples_out")
    p.add_argument("--intervals", default="30,60,120,180,240,300")
    p.add_argument("--seed", type=int, default=0)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written; the text names it
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except EmptyResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
