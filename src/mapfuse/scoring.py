"""The three judge scores, their weighted fusion, and path selection.

Scores are percentages in [0, 100]. The kinematic score is absolute; the
habit and traffic scores are min-max normalized within each candidate set,
so only relative standing matters there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .geometry import bearing_inclination
from .network import RoadNetwork
from .path_search import CandidatePath


@dataclass(frozen=True)
class ScoreVector:
    """Per-path judge scores, each in [0, 100]."""

    kinematic: float
    habit: float
    traffic: float

    def __post_init__(self):
        for v in (self.kinematic, self.habit, self.traffic):
            if not (-1e-9 <= v <= 100.0 + 1e-9):
                raise ValueError(f"score {v} outside [0, 100]")


@dataclass(frozen=True)
class FusionWeights:
    """Convex weights over the three judges."""

    kinematic: float
    habit: float
    traffic: float
    bias: float = 0.0

    def __post_init__(self):
        w = (self.kinematic, self.habit, self.traffic)
        if not all(math.isfinite(v) for v in (*w, self.bias)):
            raise ValueError("weights and bias must be finite")
        if any(v < -1e-12 for v in w):
            raise ValueError("weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(w)}")

    @classmethod
    def equal(cls) -> "FusionWeights":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    @classmethod
    def calibrated_default(cls) -> "FusionWeights":
        return cls(0.2, 0.5, 0.3)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.kinematic, self.habit, self.traffic)

    def restrict(self, use_kinematic: bool, use_habit: bool, use_traffic: bool) -> "FusionWeights":
        """Redistribute the weights of disabled judges onto the active ones."""
        mask = (use_kinematic, use_habit, use_traffic)
        if not any(mask):
            raise ValueError("at least one judge must stay active")
        raw = [w if on else 0.0 for w, on in zip(self.as_tuple(), mask)]
        total = sum(raw)
        if total <= 0.0:
            # active judges all carried zero weight; fall back to equal shares
            share = 1.0 / sum(mask)
            raw = [share if on else 0.0 for on in mask]
            total = 1.0
        return FusionWeights(raw[0] / total, raw[1] / total, raw[2] / total, self.bias)


def speed_weight(v_prev: float, v_cur: float, path_length: float,
                 dt: float, decay: float) -> float:
    """Exponential penalty on the gap between probe speed and path speed."""
    if dt <= 0:
        raise ValueError("probe gap must be positive")
    if decay <= 0:
        raise ValueError("decay coefficient must be positive")
    gap = abs((v_prev + v_cur) / 2.0 - path_length / dt)
    return math.exp(-decay * gap)


def bearing_weight(probe_bearing: float, direction: float) -> float:
    """Cosine of the probe/link inclination, floored at zero past 90 degrees."""
    return max(math.cos(math.radians(bearing_inclination(probe_bearing, direction))), 0.0)


def kinematic_score(path: CandidatePath, v_prev: float, v_cur: float,
                    probe_bearing: float, dt: float, decay: float) -> float:
    """Speed and bearing plausibility of a path, as a percentage.

    The bearing compares against the end-edge segment so polyline links
    would use the local direction; with straight links it equals the link
    direction.
    """
    return (speed_weight(v_prev, v_cur, path.length, dt, decay)
            * bearing_weight(probe_bearing, path.end.edge.bearing) * 100.0)


def normalize_scores(values: Sequence[float]) -> list[float]:
    """Min-max normalize a candidate set to percentages; all zero when flat."""
    if not values:
        return []
    lo = min(values)
    hi = max(values)
    if hi > lo:
        return [(v - lo) / (hi - lo) * 100.0 for v in values]
    return [0.0 for _ in values]


def habit_scores(frequencies: Sequence[float]) -> list[float]:
    """Normalize weighted historical usage frequencies over a candidate set."""
    return normalize_scores(frequencies)


def mean_link_occupancy(path: CandidatePath, predicted: Mapping[int, float] | Sequence[float],
                        network: RoadNetwork | None = None) -> float:
    """Mean predicted vehicle share over the links a path passes."""
    if path.n_links < 1:
        raise ValueError("path passes no links")
    if network is not None:
        values = [predicted[network.link_row(lid)] for lid in path.link_ids]
    else:
        values = [predicted[lid] for lid in path.link_ids]
    return math.fsum(values) / len(values)


def traffic_scores(occupancies: Sequence[float]) -> list[float]:
    """Normalize mean link occupancies over a candidate set."""
    return normalize_scores(occupancies)


def final_score(scores: ScoreVector, weights: FusionWeights) -> float:
    return (weights.kinematic * scores.kinematic
            + weights.habit * scores.habit
            + weights.traffic * scores.traffic)


def select_path(scored: Sequence[tuple[CandidatePath, float]]) -> tuple[int, CandidatePath]:
    """Index and path with the highest final score.

    Ties go to the shorter path, then to lexicographically smaller edge ids.
    """
    if not scored:
        raise ValueError("empty candidate set")
    best_i = min(range(len(scored)),
                 key=lambda i: (-scored[i][1],) + scored[i][0].sort_key)
    return best_i, scored[best_i][0]
