"""Fusion-weight calibration against high-frequency anchor trajectories.

High-frequency trips yield trustworthy shortest-path routes; thinning them
produces low-frequency variants whose candidate paths can be scored and
compared against those routes. A tiny linear model then learns how much each
judge's score predicts path accuracy, with the weights on the simplex; its
least-squares fit is solved exactly.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .history import Probe, Trajectory
from .matcher import MatcherConfig, MatchSession, SegmentOutcome
from .network import EdgeKey, InputFormatError, RoadNetwork, _read_json, _write_csv
from .path_search import CandidatePath, SubGraph, find_candidate_edges, k_shortest_paths
from .scoring import FusionWeights
from .traffic import _split_sizes

log = logging.getLogger(__name__)


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


class ScoreSampler(MatchSession):
    """A match session over thinned anchors that samples as it matches.

    ``truth`` maps an anchor's id to its probes' indices and its
    :func:`ground_truth_paths` by end index. As each segment passes, every
    candidate's judge scores (as fractions) and accuracy against the truth
    between its probes become a sample; a gap in the truth gives none.
    """

    def __init__(self, network: RoadNetwork, config: MatcherConfig,
                 truth: dict[str, tuple[dict[Probe, int], dict[int, CandidatePath | None]]]):
        super().__init__(network, config)
        self.truth = truth
        self.samples: list[CalibrationSample] = []

    def segment_outcomes(self, trajectory: Trajectory) -> Iterator[tuple[int, SegmentOutcome]]:
        index, paths = self.truth[trajectory.id]
        for i, outcome in super().segment_outcomes(trajectory):
            a, b = index[trajectory.probes[i - 1]], index[trajectory.probes[i]]
            truth = [paths.get(j) for j in range(a + 1, b + 1)]
            if None not in truth:
                truth_edges = tuple(e for path in truth for e in path.edges)
                self.samples.extend(
                    CalibrationSample(sv.kinematic / 100.0, sv.habit / 100.0,
                                      sv.traffic / 100.0, path_accuracy(cand.edges, truth_edges))
                    for cand, sv in zip(outcome.candidates, outcome.candidate_scores))
            yield i, outcome


@dataclass
class WeightFit:
    weights: FusionWeights            # raw fitted weights (consumed by the matcher)
    rounded: FusionWeights            # one-decimal presentation weights
    bias: float
    val_mse: float = math.inf
    degenerate: bool = False


def _round_weights(w: np.ndarray) -> FusionWeights:
    r = np.round(w, 1)
    total = r.sum()
    if total <= 0:
        return FusionWeights.equal()
    r = r / total
    return FusionWeights(float(r[0]), float(r[1]), float(r[2]))


_FACES = ((0, 1, 2), (0, 1), (0, 2), (1, 2), (0,), (1,), (2,))  # judges free on each simplex face


def fit_weights(samples: Sequence[CalibrationSample], *, seed: int = 0) -> WeightFit:
    """Fit the judge weights to predict path accuracy from scores.

    Scores enter as fractions in [0, 1]; ``w`` in ``scores @ w + bias`` is
    on the simplex, and the bias is dropped at inference, where it cannot
    change the argmax. The loss is convex, so the exact fit is the feasible
    least-squares solution of least loss on one of the simplex's faces. It is
    fitted on the first part of a seeded 6:2:2 split; the MSE is the second's.
    """
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

    best = (math.inf, None, 0.0)  # a vertex is always feasible, so this is replaced
    for *free, last in _FACES:  # w[last] = 1 - sum(w[free]), the bias free
        design = np.column_stack([s_train[:, free] - s_train[:, [last]], np.ones(n_train)])
        coef = np.linalg.lstsq(design, y_train - s_train[:, last], rcond=None)[0]
        w = np.zeros(3)
        w[free] = coef[:-1]
        w[last] = 1.0 - coef[:-1].sum()
        loss = float(np.mean((s_train @ w + coef[-1] - y_train) ** 2))
        if w.min() >= 0.0 and loss < best[0]:
            best = (loss, w, float(coef[-1]))
    _, w, bias = best
    return WeightFit(FusionWeights(float(w[0]), float(w[1]), float(w[2])), _round_weights(w),
                     bias, float(np.mean((s_val @ w + bias - y_val) ** 2)))


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
