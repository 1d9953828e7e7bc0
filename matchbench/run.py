"""Match benchmark: seeded synthetic inputs, measured matching, checked outputs.

    python3 matchbench/run.py --workload habit_warm --seed 0 --seconds 40 --trace 0

Run from the repository root. The inputs of a (workload, seed) pair are
generated once into ``.bench_build/matchbench/`` as the files the CLI reads;
a separate process then sets the program up from them and matches them
repeatedly for ``--seconds`` (see ``measure.py``). This process checks the
outputs and prints every metric by name with its unit; the last line of
standard output is one JSON object. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl

HERE = wl.HERE
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, ".bench_build", "matchbench")
TIME_LIMIT = 170.0   # seconds the whole command may take
# Loosest plausible accuracy; below it the output is treated as wrong.
ACCURACY_FLOOR = 50.0

# Thread and hash settings of the measured process, fixed for steadiness.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "traj_per_s": "traj/s", "seg_p50_ms": "ms", "seg_p99_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "accuracy_pct": "%", "recall_pct": "%", "matched_seg_pct": "%",
}
PER_LAYER_UNITS = {
    "matcher.segments": "count", "matcher.segment_self_ms": "ms",
    "matcher.trajectory_self_ms": "ms",
    "path_search.candidates_ms": "ms", "path_search.candidates_per_probe": "count",
    "path_search.subgraph_ms": "ms", "path_search.subgraph_link_share": "ratio",
    "path_search.ksp_ms": "ms", "path_search.paths_per_seg": "count",
    "path_search.budget_fill": "ratio",
    "scoring.judge_ms": "ms",
    "history.collab_ms": "ms", "history.group_size": "count",
    "history.path_frequency_ms": "ms", "history.record_ms": "ms", "history.load_log_s": "s",
    "history.stored_trips": "count",
    "traffic.predict_ms": "ms", "traffic.cold_pct": "%", "traffic.add_locations_ms": "ms",
    "traffic.train_s": "s", "traffic.train_epochs": "count",
    "network.load_s": "s", "network.spectrum_s": "s", "network.bbox_edges": "count",
    "evaluate.rows_ms": "ms",
    "trace.overhead_pct": "%",
}


def _inputs(workload: wl.Workload, seed: int, deadline: float) -> str:
    """Directory of the workload's input files for ``seed``, generated on first use.

    The directory is keyed by the code that makes the inputs and is measured,
    so a change to either generates fresh inputs, and the match digests
    stored there compare runs of the same code only.
    """
    key = _source_digest()
    out = os.path.join(DATA, f"{workload.name}-seed{seed}-{key}")
    if not os.path.isfile(os.path.join(out, wl.META)):
        tmp = out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        _child(["generate.py", "--workload", workload.name, "--seed", str(seed),
                "--out", tmp], deadline)
        shutil.rmtree(out, ignore_errors=True)
        os.replace(tmp, out)
    return out


def _child(args: list[str], deadline: float) -> None:
    """Run a script of this directory; subprocess.run kills and reaps it on timeout."""
    subprocess.run([sys.executable, os.path.join(HERE, args[0]), *args[1:]],
                   env={**os.environ, **CHILD_ENV}, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - perf_counter()))


def _measure(workload: str, inputs: str, seconds: float, trace: int, deadline: float) -> dict:
    out = os.path.join(inputs, f"result_trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    _child(["measure.py", "--workload", workload, "--inputs", inputs, "--seconds",
            str(seconds), "--trace", str(trace), "--out", out], deadline)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: wl.Workload, inputs: str, result: dict) -> tuple[list[str], dict]:
    """Problems with the outputs (empty when correct) and the accuracy figures.

    Each slice's match CSV must hash the same in every repetition, traced or
    not, and in every earlier run of this seed in this checkout. Accuracy and
    recall are recomputed from the CSV files and must equal the figures the
    measured process computed from its records.
    """
    from mapfuse.evaluate import accuracy_index, recall_index
    from mapfuse.matcher import read_match_csv
    reps = result["repetitions"]
    problems = []
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} trajectories raised")
    pred_all, truth_all = {}, {}
    for k in sorted({rep["slice"] for rep in reps}):
        mine = [rep for rep in reps if rep["slice"] == k]
        digests = {rep["digest"] for rep in mine}
        digest_file = os.path.join(inputs, f"match_{k}.sha256")
        if os.path.exists(digest_file):
            with open(digest_file, encoding="utf-8") as fh:
                digests.add(fh.read().strip())
        else:
            with open(digest_file, "w", encoding="utf-8") as fh:
                fh.write(mine[0]["digest"] + "\n")
        if len(digests) != 1:
            problems.append(f"slice {k}: match CSV digests differ: {sorted(digests)}")
        if failed:
            continue
        pred = read_match_csv(mine[0]["csv"])
        truth = read_match_csv(os.path.join(inputs, wl.truth_file(k)))
        figures = (accuracy_index(pred, truth), recall_index(pred, truth))
        if any((rep["accuracy_pct"], rep["recall_pct"]) != figures for rep in mine):
            problems.append(f"slice {k}: accuracy or recall from the CSV differs from the "
                            "records")
        pred_all.update(pred)
        truth_all.update(truth)
        for groups, writes in (rep["barrier_writes"] for rep in mine if rep["traced"]):
            if writes < groups:
                problems.append(f"slice {k}: feedback written at only {writes} of {groups} "
                                "barriers")
    if failed:
        return problems, {}
    if len({rep["slice"] for rep in reps}) < wl.SLICES and not any(
            rep["traced"] for rep in reps):
        problems.append("not every slice was matched")
    quality = {"accuracy_pct": accuracy_index(pred_all, truth_all),
               "recall_pct": recall_index(pred_all, truth_all)}
    if quality["accuracy_pct"] < ACCURACY_FLOOR:
        problems.append(f"accuracy {quality['accuracy_pct']:.2f}% is below the "
                        f"{ACCURACY_FLOOR}% floor")
    return problems, quality


def end_to_end(result: dict, quality: dict) -> dict[str, float]:
    from spans import percentile, tail_percentile
    reps = result["repetitions"]
    seg = [s for rep in reps for s in rep["segment_s"]]
    if (tail_percentile(len(seg)) or 0.0) < 99.0:
        raise RuntimeError(f"only {len(seg)} segment timings: too few for a p99; "
                           "raise --seconds or the fleet size")
    # Which segments match is deterministic per slice: count each slice once.
    one_per_slice = list({rep["slice"]: rep for rep in reps}.values())
    segments = sum(len(rep["segment_s"]) for rep in one_per_slice)
    unmatched = sum(rep["unmatched"] for rep in one_per_slice)
    return {
        "traj_per_s": _rate(reps),
        "seg_p50_ms": 1e3 * percentile(seg, 50.0),
        "seg_p99_ms": 1e3 * percentile(seg, 99.0),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": result["peak_rss_mb"],
        "accuracy_pct": quality["accuracy_pct"],
        "recall_pct": quality["recall_pct"],
        "matched_seg_pct": 100.0 * (segments - unmatched) / segments,
    }


def _rate(reps: list[dict]) -> float:
    """Trajectories over the summed wall time of the ``MatchSession.run`` calls.

    Steadier than the median of per-repetition rates, because the slices
    differ in length and the machine's speed drifts between repetitions.
    """
    return sum(r["trajectories"] for r in reps) / sum(r["run_s"] for r in reps)


def _overhead_pct(reps: list[dict]) -> float:
    """Median over (untraced, traced) pairs of one slice of the rate ratio, minus 1."""
    pairs = zip(reps[0::2], reps[1::2])
    return 100.0 * (statistics.median(
        (u["trajectories"] / u["run_s"]) / (t["trajectories"] / t["run_s"])
        for u, t in pairs) - 1.0)


def per_layer(result: dict) -> dict[str, float]:
    reps = result["repetitions"]
    traced = [r for r in reps if r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_pct"] = _overhead_pct(reps)
    return out


def _source_digest() -> str:
    """sha256 of the Python files of ``src/mapfuse`` and of this benchmark."""
    h = hashlib.sha256()
    for top in (os.path.join(wl.SRC, "mapfuse"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, result: dict) -> dict:
    import numpy
    reps = result["repetitions"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps),
        "slices_matched": [r["slice"] for r in reps],
        "trajectories_per_slice": {r["slice"]: r["trajectories"] for r in reps},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(), "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "match_csv_sha256": {r["slice"]: r["digest"] for r in reps},
    }
    return record


def _print_breakdown(result: dict) -> None:
    rep = [r for r in result["repetitions"] if r["traced"]][-1]
    total = rep["setup_s"] + rep["run_s"]
    print(f"self time by span, last traced repetition "
          f"(set-up {rep['setup_s']:.3f} s + run {rep['run_s']:.3f} s):")
    print(f"  {'span':30s} {'calls':>8s} {'total s':>9s} {'self s':>9s} {'self %':>7s}")
    for name, (calls, total_s, self_s) in sorted(rep["breakdown"].items(),
                                                 key=lambda kv: -kv[1][2]):
        print(f"  {name:30s} {calls:8d} {total_s:9.3f} {self_s:9.3f} "
              f"{100.0 * self_s / total:6.1f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mapfuse match benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT

    workload = wl.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(wl.SRC, "mapfuse", "__init__.py")):
        raise SystemExit(f"error: mapfuse sources not found under {wl.SRC}")
    inputs = _inputs(workload, args.seed, deadline)
    result = _measure(args.workload, inputs, args.seconds, args.trace, deadline)
    # Imported only now: the measured process inherits this process's peak
    # memory as a floor of its own ru_maxrss, so this one stays small.
    wl.import_program()
    problems, quality = check(workload, inputs, result)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics: dict[str, float] = {}
    if args.trace:
        units = PER_LAYER_UNITS
        if quality:
            metrics = per_layer(result)
            _print_breakdown(result)
    else:
        units = END_TO_END_UNITS
        if quality:
            metrics = end_to_end(result, quality)
    print("provenance: " + json.dumps(provenance(args, result), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {units[name]}")
    reps = result["repetitions"]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["trajectories"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
