"""Evaluation indices: probe accuracy, path-edge recall, per-trajectory cost."""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .calibration import path_accuracy
from .matcher import MatchRow
from .network import InputFormatError

Rows = Mapping[tuple[str, int], MatchRow]


class EmptyResultError(RuntimeError):
    """An evaluation or match produced nothing to report."""


def accuracy_index(pred: Rows, truth: Rows) -> float:
    """Percentage of probes matched to the true edge; unmatched count against."""
    if set(pred) != set(truth):
        raise InputFormatError("prediction and truth rows are misaligned")
    if not truth:
        raise EmptyResultError("no probes to evaluate")
    correct = sum(1 for key, row in truth.items()
                  if pred[key].edge is not None and pred[key].edge == row.edge)
    return 100.0 * correct / len(truth)


def recall_index(pred: Rows, truth: Rows) -> float:
    """Mean per-segment share of inferred edges that lie on the true path."""
    if set(pred) != set(truth):
        raise InputFormatError("prediction and truth rows are misaligned")
    overlaps = [path_accuracy(pred[key].path, row.path) if pred[key].path else 0.0
                for key, row in truth.items() if key[1] != 0 and row.path is not None]
    if not overlaps:
        raise EmptyResultError("no segments to evaluate")
    return 100.0 * sum(overlaps) / len(overlaps)


def cost_index(wall_times: Sequence[float], n_trajectories: int) -> float:
    """Mean matching seconds per trajectory."""
    if n_trajectories < 1:
        raise ValueError(f"need at least one trajectory, got {n_trajectories}")
    if not all(0.0 <= t < math.inf for t in wall_times):
        raise ValueError(f"wall times must be finite and non-negative, got {list(wall_times)}")
    return sum(wall_times) / n_trajectories


@dataclass
class EvalReport:
    accuracy: float
    recall: float
    cost: float | None = None
    per_interval: dict[int, dict[str, float]] = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "accuracy_pct": round(self.accuracy, 6),
            "recall_pct": round(self.recall, 6),
            "cost_s_per_trajectory": None if self.cost is None else round(self.cost, 6),
            "per_interval": {str(k): v for k, v in sorted(self.per_interval.items())},
            "config": self.config_echo,
        }, indent=2, sort_keys=True)


def evaluate_rows(pred: Rows, truth: Rows, *, cost: float | None = None,
                  config_echo: dict | None = None) -> EvalReport:
    """Full report over aligned prediction and truth rows.

    The per-interval breakdown buckets trajectories by their observed median
    probing interval, rounded to whole seconds.
    """
    report = EvalReport(accuracy_index(pred, truth), recall_index(pred, truth),
                        cost, config_echo=config_echo or {})
    times: dict[str, list[float]] = {tid: [] for tid, _ in truth}
    for (tid, _), row in pred.items():
        times[tid].append(row.timestamp)
    buckets: dict[int, list[str]] = {}
    for tid in sorted(times):
        ts = sorted(times[tid])
        if len(ts) > 1:
            interval = int(round(statistics.median(b - a for a, b in zip(ts, ts[1:]))))
            buckets.setdefault(interval, []).append(tid)
    for interval, tids in buckets.items():
        wanted = set(tids)
        sub_pred = {k: v for k, v in pred.items() if k[0] in wanted}
        sub_truth = {k: v for k, v in truth.items() if k[0] in wanted}
        entry = {"accuracy_pct": round(accuracy_index(sub_pred, sub_truth), 6),
                 "n_trajectories": float(len(tids))}
        try:
            entry["recall_pct"] = round(recall_index(sub_pred, sub_truth), 6)
        except EmptyResultError:
            pass
        report.per_interval[interval] = entry
    return report
