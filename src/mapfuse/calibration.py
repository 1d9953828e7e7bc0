"""Fusion-weight calibration against high-frequency anchor trajectories.

High-frequency trips yield trustworthy shortest-path routes; thinning them
produces low-frequency variants whose candidate paths can be scored and
compared against those routes. A tiny linear model then learns how much each
judge's score predicts path accuracy, with the weights kept on the simplex
through a softmax parameterization.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .history import Trajectory
from .network import EdgeKey, InputFormatError, RoadNetwork, _read_json, _write_csv
from .path_search import CandidatePath, SubGraph, find_candidate_edges, k_shortest_paths
from .scoring import FusionWeights
from .traffic import _split_sizes

log = logging.getLogger(__name__)

_FIRST_STEP = 0.5  # first backtracking step of the weight fit
_PATIENCE = 50     # epochs without validation improvement that stop the weight fit


@dataclass(frozen=True)
class CalibrationSample:
    """Judge scores of one candidate path (fractions) and its true accuracy."""

    kinematic: float
    habit: float
    traffic: float
    accuracy: float


def ground_truth_paths(trajectory: Trajectory, network: RoadNetwork, *,
                       radius: float = 170.0) -> list[tuple[int, CandidatePath | None]]:
    """Shortest path between the nearest candidate edges of each probe pair.

    Intended for high-frequency anchor data where the shortest path is a
    safe stand-in for the real route. Between two links the path follows
    one ``RoadNetwork.route`` by length, so its cost follows the segment,
    not the network; of equal-length routes the one that search settles
    first wins. Unreachable pairs are skipped with a log line; the returned
    index is the segment's end-probe position.
    """
    def candidates(probe):
        x, y = network.projector.to_plane(probe.lon, probe.lat)
        return find_candidate_edges(x, y, probe.bearing, network, radius)

    out: list[tuple[int, CandidatePath | None]] = []
    prev_cands = candidates(trajectory.start) if trajectory.probes else []
    for i in range(1, len(trajectory.probes)):
        cur_cands = candidates(trajectory.probes[i])
        path = None
        if not prev_cands or not cur_cands:
            log.info("trajectory %s: no candidate edge around probe %d", trajectory.id, i)
        else:
            start, end = prev_cands[0], cur_cands[0]
            a, b = network.link(start.edge.link_id), network.link(end.edge.link_id)
            route = network.route(a.to_node, b.from_node, lambda link: link.length) or []
            # on these links the only loopless paths are that route and a
            # forward traversal of one link
            found = k_shortest_paths(SubGraph(network, frozenset((a.id, b.id, *route))),
                                     [start], [end], 1)
            path = found[0] if found else None
            if path is None:
                log.info("trajectory %s: probes %d-%d unreachable", trajectory.id, i - 1, i)
        out.append((i, path))
        # anchor the next segment at this segment's end projection
        prev_cands = [path.end] if path is not None else cur_cands
    return out


def downsample(trajectory: Trajectory, keep_interval: float) -> Trajectory:
    """Thin a trajectory to probes on a coarser regular grid.

    ``keep_interval`` must be an integer multiple k of the source probing
    interval, to within a millionth; probes at multiples of k source
    intervals from the start time, to within a millionth of the source
    interval, are retained untouched. So an interval longer than the trip
    keeps only its first probe.
    """
    if not (math.isfinite(keep_interval) and keep_interval > 0):
        raise ValueError(f"keep interval must be finite and positive, got {keep_interval}")
    source = trajectory.probing_interval
    if source <= 0:
        raise ValueError("trajectory has no probing interval")
    ratio = keep_interval / source
    if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
        raise ValueError(
            f"keep interval {keep_interval} is not a multiple of the source interval {source}")
    t0, step = trajectory.t0, round(ratio) * source
    kept = tuple(p for p in trajectory.probes
                 if abs(p.t - t0 - step * round((p.t - t0) / step)) < 1e-6 * source)
    return Trajectory(trajectory.id, trajectory.vehicle, kept)


def path_accuracy(path_edges: Sequence[EdgeKey], truth_edges: Sequence[EdgeKey]) -> float:
    """Fraction of a path's edges that appear in the reference path."""
    if not path_edges or not truth_edges:
        raise ValueError("paths must be non-empty")
    truth = set(truth_edges)
    return sum(1 for e in path_edges if e in truth) / len(path_edges)


@dataclass
class WeightFit:
    weights: FusionWeights            # raw fitted weights (consumed by the matcher)
    rounded: FusionWeights            # one-decimal presentation weights
    bias: float
    train_history: list[float] = field(default_factory=list)
    best_val: float = math.inf
    degenerate: bool = False


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _round_weights(w: np.ndarray) -> FusionWeights:
    r = np.round(w, 1)
    total = r.sum()
    if total <= 0:
        return FusionWeights.equal()
    r = r / total
    return FusionWeights(float(r[0]), float(r[1]), float(r[2]))


def fit_weights(samples: Sequence[CalibrationSample], *,
                max_epochs: int = 20000, seed: int = 0) -> WeightFit:
    """Fit the judge weights to predict path accuracy from scores.

    Scores enter as fractions in [0, 1]. The weights are a softmax over
    three logits (initialized at zero, i.e. equal weights) so they stay
    nonnegative and sum to one at every epoch; a free bias absorbs offsets
    and is dropped at inference, where it cannot change the argmax. Training
    is full-batch gradient descent with a backtracking step and early stop
    on a 6:2:2 validation split.
    """
    if max_epochs < 1:
        raise ValueError(f"need at least one epoch, got {max_epochs}")
    if len(samples) < 30:
        raise ValueError(f"need at least 30 samples, got {len(samples)}")
    scores = np.array([[s.kinematic, s.habit, s.traffic] for s in samples], dtype=float)
    target = np.array([s.accuracy for s in samples], dtype=float)
    if np.all(scores.std(axis=0) < 1e-12):
        log.warning("degenerate calibration samples (constant scores); using equal weights")
        return WeightFit(FusionWeights.equal(), FusionWeights.equal(), 0.0, degenerate=True)
    if target.std() < 1e-12:
        # constant targets put no signal on the weights; the bias absorbs it all
        bias = float(target.mean())
        return WeightFit(FusionWeights(1 / 3, 1 / 3, 1 / 3), FusionWeights.equal(), bias)

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    scores, target = scores[order], target[order]
    n_train, n_val, _ = _split_sizes(len(samples))
    s_train, y_train = scores[:n_train], target[:n_train]
    s_val, y_val = scores[n_train:n_train + n_val], target[n_train:n_train + n_val]

    logits = np.zeros(3)
    bias = 0.0
    result = WeightFit(FusionWeights.equal(), FusionWeights.equal(), 0.0)
    best = (logits.copy(), bias)
    step = _FIRST_STEP
    stale = 0

    def loss(s, y, lg, b):
        pred = s @ _softmax(lg) + b
        resid = pred - y
        return float(resid @ resid / len(y))

    for _ in range(max_epochs):
        w = _softmax(logits)
        pred = s_train @ w + bias
        resid = pred - y_train
        base_loss = float(resid @ resid / n_train)
        d_pred = 2.0 * resid / n_train
        d_w = s_train.T @ d_pred
        d_logits = w * (d_w - float(w @ d_w))   # softmax Jacobian
        d_bias = float(d_pred.sum())

        accepted = base_loss
        trial = step
        for _ in range(40):
            cand_logits = logits - trial * d_logits
            cand_bias = bias - trial * d_bias
            cand_loss = loss(s_train, y_train, cand_logits, cand_bias)
            if cand_loss <= base_loss + 1e-15:
                logits, bias, accepted = cand_logits, cand_bias, cand_loss
                step = trial * 1.2
                break
            trial /= 2.0
        val_loss = loss(s_val, y_val, logits, bias)
        result.train_history.append(accepted)
        if val_loss < result.best_val - 1e-15:
            result.best_val = val_loss
            best = (logits.copy(), bias)
            stale = 0
        else:
            stale += 1
            if stale >= _PATIENCE:
                break
        if float(d_logits @ d_logits) + d_bias * d_bias < 1e-24:
            break

    logits, bias = best
    w = _softmax(logits)
    result.weights = FusionWeights(float(w[0]), float(w[1]), float(w[2]))
    result.rounded = _round_weights(w)
    result.bias = bias
    return result


# -- file formats -----------------------------------------------------------

def write_samples_csv(path: str, samples: Sequence[CalibrationSample]) -> None:
    _write_csv(path, ("S_P", "S_C", "S_A", "Y"),
               ([f"{s.kinematic:.9f}", f"{s.habit:.9f}", f"{s.traffic:.9f}", f"{s.accuracy:.9f}"]
                for s in samples))


def write_weights_json(path: str, fit: WeightFit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"wp": fit.weights.kinematic, "wc": fit.weights.habit,
                   "wa": fit.weights.traffic, "bias": fit.bias}, fh)


def read_weights_json(path: str) -> FusionWeights:
    """Weights as ``write_weights_json`` writes them; each value is cast from its text."""
    payload = _read_json(path)
    try:
        if not math.isfinite(float(str(payload.get("bias", 0.0)))):
            raise ValueError("bias must be finite")
        return FusionWeights(*(float(str(payload[key])) for key in ("wp", "wc", "wa")))
    except (KeyError, ValueError) as exc:
        raise InputFormatError(f"{path}: bad weights file: {exc}") from exc
