"""Link-occupancy aggregation and next-interval prediction.

Per interval the matcher's results are folded into a simplex vector of link
shares (with an add-one prior so every share stays positive). The next
interval is predicted either by a decay-weighted mean of recent states or by
a spectral filter model on the link graph's Laplacian eigenbasis, trained by
full-batch gradient descent on mean squared error.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .network import InputFormatError, RoadNetwork, _read_csv, _read_json, _write_csv

_LOSS_TOL = 1e-12  # line-search descent tolerance
_PATIENCE = 4      # epochs without validation improvement that make a plateau
_PLATEAUS = 3      # training stops at this many plateaus


@dataclass(frozen=True)
class StateVector:
    """Share of vehicles per link during one interval."""

    interval: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TrafficConfig:
    update_interval: float = 300.0   # seconds per aggregation step
    lookback: float = 3600.0         # how much history feeds a prediction
    decay_ratio: float = 0.8

    def __post_init__(self):
        if self.update_interval <= 0:
            raise ValueError("update interval must be positive")

    @property
    def max_steps(self) -> int:
        return max(1, math.ceil(self.lookback / self.update_interval))


def decay_weights(n: int, ratio: float = 0.8) -> np.ndarray:
    """Geometric decay over n steps, normalized to sum to one."""
    if n < 1:
        raise ValueError("need at least one step")
    w = np.array([ratio ** k for k in range(n)], dtype=float)
    return w / w.sum()


def aggregate_interval(network: RoadNetwork, matched_links: Iterable[int],
                       interval: int) -> StateVector:
    """Fold matched locations of one interval into a positive simplex vector.

    Every link starts with one phantom vehicle, so empty intervals yield the
    uniform distribution and no share is ever zero.
    """
    counts = np.ones(network.n_links(), dtype=float)
    for lid in matched_links:
        counts[network.link_row(lid)] += 1.0
    return StateVector(interval, counts / counts.sum())


def predict_naive(history: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Decay-weighted mean of recent states (most recent first)."""
    if len(history) == 0:
        raise ValueError("empty history")
    if len(history) != len(weights):
        raise ValueError("history and weights lengths differ")
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    out = np.zeros_like(np.asarray(history[0], dtype=float))
    for wk, h in zip(w, history):
        out += wk * np.asarray(h, dtype=float)
    return out


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize; uniform if nothing is left."""
    out = np.clip(np.asarray(v, dtype=float), 0.0, None)
    total = out.sum()
    if total <= 0.0:
        return np.full(out.shape, 1.0 / out.size)
    return out / total


def _network_fingerprint(network: RoadNetwork) -> str:
    """Digest of the link table: each link id with its end nodes, in row order."""
    table = ";".join(f"{lid},{network.links[lid].from_node},{network.links[lid].to_node}"
                     for lid in network.link_ids)
    return hashlib.sha256(table.encode()).hexdigest()[:16]


class SpectralPredictor:
    """Markov-style predictor with learnable diagonal spectral filters.

    The prediction is a decay-weighted sum over recent states, each passed
    through its own filter expressed in the Laplacian eigenbasis. Filters
    start as matrix powers of the rescaled eigenvalues, which reproduces a
    graph-smoothed version of the naive predictor before training.
    """

    def __init__(self, basis: np.ndarray, filters: np.ndarray,
                 decay: np.ndarray, fingerprint: str = ""):
        self.basis = basis                       # (L, L) orthonormal columns
        self.filters = np.array(filters, dtype=float)  # (k, L) diagonal filters
        self.decay = np.asarray(decay, dtype=float)
        self.fingerprint = fingerprint
        if self.filters.shape != (len(self.decay), basis.shape[0]):
            raise ValueError("filter shape does not match decay steps and basis size")
        if abs(self.decay.sum() - 1.0) > 1e-9:
            raise ValueError("decay weights must sum to 1")

    @property
    def max_steps(self) -> int:
        return len(self.decay)

    @property
    def n_links(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def for_network(cls, network: RoadNetwork, max_steps: int,
                    decay_ratio: float = 0.8) -> "SpectralPredictor":
        """Untrained predictor for a network.

        Initial filters are powers of the spectrum rescaled to [0, 1], so the
        powers stay bounded on any graph.
        """
        decay = decay_weights(max_steps, decay_ratio)
        u, lam = network.laplacian_spectrum()
        filters = np.stack([lam ** k for k in range(1, max_steps + 1)])
        return cls(u, filters, decay, _network_fingerprint(network))

    def _window(self, history: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        if len(history) == 0:
            raise ValueError("empty history")
        k = min(len(history), self.max_steps)
        window = np.stack([np.asarray(history[i], dtype=float) for i in range(k)])
        if window.shape[1] != self.n_links:
            raise ValueError("state dimension does not match the network")
        w = self.decay[:k]
        return window, w / w.sum()

    def linear_forward(self, history: Sequence[np.ndarray]) -> np.ndarray:
        """Raw filter output before the simplex guard (most recent first)."""
        window, w = self._window(history)
        z = window @ self.basis                       # spectral coordinates
        mixed = (w[:, None] * self.filters[:len(w)] * z).sum(axis=0)
        return self.basis @ mixed

    def forward(self, history: Sequence[np.ndarray]) -> np.ndarray:
        """Predict the next interval's link shares.

        A spectral linear map does not preserve nonnegativity, so the output
        is clipped back to the simplex before it is consumed as shares.
        """
        return simplex_project(self.linear_forward(history))

    # -- training ----------------------------------------------------------

    def spectral(self, windows: np.ndarray) -> np.ndarray:
        """Spectral coordinates of stacked windows (S, k, L), most recent first."""
        return np.einsum("skl,lm->skm", windows, self.basis)

    def _residual(self, z: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Prediction residuals from the windows' spectral coordinates."""
        mixed = np.einsum("skm,km->sm", z, self.decay[:, None] * self.filters)
        return mixed @ self.basis.T - targets

    def _loss(self, z: np.ndarray, targets: np.ndarray) -> float:
        resid = self._residual(z, targets)
        return float((resid * resid).sum() / resid.size)

    def _loss_and_gradient(self, z: np.ndarray,
                           targets: np.ndarray) -> tuple[float, np.ndarray]:
        resid = self._residual(z, targets)
        grad = (2.0 / resid.size) * self.decay[:, None] * \
            np.einsum("sm,skm->km", resid @ self.basis, z)
        return float((resid * resid).sum() / resid.size), grad

    def loss(self, windows: np.ndarray, targets: np.ndarray) -> float:
        return self._loss(self.spectral(windows), targets)

    def loss_and_gradient(self, windows: np.ndarray,
                          targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean squared error and its gradient w.r.t. every filter entry."""
        return self._loss_and_gradient(self.spectral(windows), targets)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "format": 2,
            "n_links": self.n_links,
            "max_steps": self.max_steps,
            "decay": self.decay.tolist(),
            "filters": self.filters.tolist(),
            "fingerprint": self.fingerprint,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str, network: RoadNetwork) -> "SpectralPredictor":
        payload = _read_json(path)
        try:
            if payload.get("format") != 2:
                raise ValueError(f"checkpoint format {payload.get('format')} is not 2: retrain it")
            if payload["n_links"] != network.n_links():
                raise ValueError("checkpoint does not match the network size")
            fingerprint = _network_fingerprint(network)
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("checkpoint was trained on a different network")
            filters = np.array(payload["filters"], dtype=float)
            decay = np.array(payload["decay"], dtype=float)
            if not (np.isfinite(filters).all() and np.isfinite(decay).all()):
                raise ValueError("non-finite filter or decay values")
            return cls(network.laplacian_spectrum()[0], filters, decay, fingerprint)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"{path}: {exc}") from exc


def build_windows(states: Sequence[np.ndarray], max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding full windows over a chronological state sequence.

    Targets are the states themselves; inputs are the ``max_steps`` states
    before each target, most recent first. Only targets inside the observed
    range are used, so training never peeks past the data.
    """
    n = len(states)
    if n < max_steps + 2:
        raise ValueError(f"need at least {max_steps + 2} consecutive intervals, got {n}")
    windows = []
    targets = []
    for t in range(max_steps, n):
        windows.append(np.stack([states[t - 1 - k] for k in range(max_steps)]))
        targets.append(np.asarray(states[t], dtype=float))
    return np.stack(windows), np.stack(targets)


@dataclass
class TrainResult:
    train_history: list[float] = field(default_factory=list)
    best_val: float = math.inf
    test_mse: float | None = None
    epochs: int = 0


def _split_sizes(n: int, ratios=(0.6, 0.2, 0.2)) -> tuple[int, int, int]:
    n_train = max(1, int(round(ratios[0] * n)))
    n_val = max(1, int(round(ratios[1] * n)))
    while n_train + n_val > n:
        if n_train > 1:
            n_train -= 1
        else:
            n_val -= 1
    return n_train, n_val, n - n_train - n_val


def train_spectral(model: SpectralPredictor, states: Sequence[np.ndarray], *,
                   max_epochs: int = 2000) -> TrainResult:
    """Fit the spectral filters on consecutive states by gradient descent.

    Each epoch is one full-batch step along the negative gradient, sized by
    an exact line search: the output is linear in the filters, so the loss
    along a ray is a parabola and the minimizing step is closed form. A
    halving backstop keeps the training loss non-increasing. Training stops
    at ``max_epochs`` or at the ``_PLATEAUS``-th run of ``_PATIENCE`` epochs
    without validation improvement, and the best-validation filters are
    restored at the end.
    """
    if max_epochs < 1:
        raise ValueError(f"need at least one epoch, got {max_epochs}")
    windows, targets = build_windows(states, model.max_steps)
    n_train, n_val, n_test = _split_sizes(windows.shape[0])
    cuts = (slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, None))
    # the windows and the basis stay fixed, so each slice's product is taken once
    z_train, z_val, z_test = (model.spectral(windows[cut]) for cut in cuts)
    y_train, y_val, y_test = (targets[cut] for cut in cuts)
    del windows

    result = TrainResult()
    best_filters = model.filters.copy()
    stale = 0
    plateaus = 0
    step_scale = 1.0

    for epoch in range(max_epochs):
        train_loss, step_scale = _full_batch_epoch(model, z_train, y_train, step_scale)
        val_loss = model._loss(z_val, y_val)
        result.train_history.append(train_loss)
        result.epochs = epoch + 1
        if val_loss < result.best_val:
            result.best_val = val_loss
            best_filters = model.filters.copy()
            stale = 0
        else:
            stale += 1
            if stale >= _PATIENCE:
                stale = 0
                plateaus += 1
                if plateaus >= _PLATEAUS:
                    break

    model.filters = best_filters
    if n_test > 0:
        result.test_mse = model._loss(z_test, y_test)
    return result


def _full_batch_epoch(model: SpectralPredictor, z: np.ndarray,
                      targets: np.ndarray, probe_step: float) -> tuple[float, float]:
    """One steepest-descent step with an exact line search on spectral coordinates ``z``.

    Returns the post-step training loss and the accepted step size (reused
    as the next probe). The loss is exactly quadratic along the ray, so one
    probe evaluation pins the parabola; halving afterwards guards against
    numerically flat directions.
    """
    base = model.filters
    loss0, grad = model._loss_and_gradient(z, targets)
    gnorm2 = float((grad * grad).sum())
    if gnorm2 == 0.0:
        return loss0, probe_step
    t0 = probe_step if probe_step > 0 else 1.0
    model.filters = base - t0 * grad
    loss_probe = model._loss(z, targets)
    curv = (loss_probe - loss0 + gnorm2 * t0) / (t0 * t0)
    if curv > 0:
        step = min(gnorm2 / (2.0 * curv), 1e8)
    else:
        step = t0 * 4.0
    for _ in range(64):
        model.filters = base - step * grad
        loss_new = model._loss(z, targets)
        if loss_new <= loss0 + _LOSS_TOL:
            return loss_new, step
        step /= 2.0
    model.filters = base
    return loss0, max(step, 1e-12)


# -- state log I/O -------------------------------------------------------------

def write_states_csv(path: str, network: RoadNetwork, states: Sequence[StateVector]) -> None:
    _write_csv(path, ("interval_j", "link_id", "X"),
               ((state.interval, lid, f"{state.values[network.link_row(lid)]:.12g}")
                for state in states for lid in network.link_ids))


def read_states_csv(path: str, network: RoadNetwork) -> list[StateVector]:
    rows: dict[int, np.ndarray] = {}  # NaN: no line has given the link yet

    def store(j, link_id, x) -> None:
        x, link_id, j = float(x), int(link_id), int(j)
        if not math.isfinite(x):
            raise ValueError(f"non-finite X {x}")
        if link_id not in network.links:
            raise ValueError(f"link {link_id} is not in {network.links_name}")
        if j not in rows:
            rows[j] = np.full(network.n_links(), np.nan)
        row = network.link_row(link_id)
        if not math.isnan(rows[j][row]):
            raise ValueError(f"duplicate line for interval {j} link {link_id}")
        rows[j][row] = x

    for _ in _read_csv(path, ("interval_j", "link_id", "X"), store):
        pass
    # windows are cut from consecutive intervals, each a share on every link
    states: list[StateVector] = []
    for j in sorted(rows):
        if states and j != states[-1].interval + 1:
            raise InputFormatError(f"{path}: interval {states[-1].interval + 1} is missing")
        if np.isnan(rows[j]).any():
            lid = network.link_ids[int(np.isnan(rows[j]).argmax())]
            raise InputFormatError(f"{path}: interval {j} lacks link {lid}")
        states.append(StateVector(j, rows[j]))
    return states
