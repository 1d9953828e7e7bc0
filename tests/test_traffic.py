import json

import numpy as np
import pytest

from mapfuse.network import InputFormatError
from mapfuse.traffic import (SpectralPredictor, StateVector, TrafficConfig,
                             aggregate_interval, build_windows, decay_weights,
                             predict_naive, read_states_csv, simplex_project,
                             train_spectral, write_states_csv)

from conftest import build_network


def chain_net(n_links, spacing=200.0):
    nodes = [(i, spacing * i, 0.0) for i in range(n_links + 1)]
    links = [(i, i, i + 1, spacing, None) for i in range(n_links)]
    return build_network(nodes, links)


def random_states(rng, n, dim, alpha=0.7):
    return [rng.dirichlet(np.ones(dim) * alpha) for _ in range(n)]


class TestAggregation:
    def test_empty_interval_is_uniform(self):
        net = chain_net(2)
        state = aggregate_interval(net, [], 3)
        assert state.values.tolist() == [0.5, 0.5]

    def test_counts_with_prior(self):
        net = chain_net(2)
        state = aggregate_interval(net, [0, 0, 0, 1], 1)
        assert state.values.tolist() == pytest.approx([4 / 6, 2 / 6])

    def test_fuzz_strictly_positive_simplex(self):
        rng = np.random.default_rng(0)
        net = chain_net(7)
        for _ in range(300):
            locs = rng.integers(0, 7, size=rng.integers(0, 40)).tolist()
            state = aggregate_interval(net, locs, 0)
            assert state.values.min() > 0.0
            assert abs(state.values.sum() - 1.0) < 1e-9


class TestNaivePredictor:
    def test_single_step_is_identity(self):
        x = np.array([0.2, 0.8])
        out = predict_naive([x], [1.0])
        assert out.tolist() == pytest.approx([0.2, 0.8])

    def test_even_blend(self):
        out = predict_naive([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        assert out.tolist() == pytest.approx([0.5, 0.5])

    def test_simplex_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            hist = random_states(rng, k, 9)
            w = decay_weights(k, float(rng.uniform(0.3, 1.0)))
            out = predict_naive(hist, w)
            assert abs(out.sum() - 1.0) < 1e-9
            assert out.min() >= 0.0

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        hist = random_states(rng, 3, 6)
        w = decay_weights(3)
        perm = rng.permutation(6)
        direct = predict_naive([h[perm] for h in hist], w)
        assert direct.tolist() == pytest.approx(predict_naive(hist, w)[perm].tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_naive([], [])
        with pytest.raises(ValueError):
            predict_naive([np.ones(3) / 3], [0.5])


def test_decay_weights_normalized_geometric():
    w = decay_weights(3, 0.8)
    raw = np.array([1.0, 0.8, 0.64])
    assert w.tolist() == pytest.approx((raw / raw.sum()).tolist())
    assert abs(w.sum() - 1.0) < 1e-12


def test_config_max_steps():
    cfg = TrafficConfig(update_interval=300.0, lookback=3600.0)
    assert cfg.max_steps == 12
    with pytest.raises(ValueError):
        TrafficConfig(update_interval=0.0)


class TestSpectralForward:
    def test_identity_filters_reduce_to_naive(self):
        rng = np.random.default_rng(3)
        net = chain_net(6)
        u, _ = net.laplacian_spectrum()
        gamma = decay_weights(3, 0.8)
        model = SpectralPredictor(u, np.ones((3, 6)), gamma)
        hist = random_states(rng, 3, 6)
        got = model.linear_forward(hist)
        assert got.tolist() == pytest.approx(predict_naive(hist, gamma).tolist(), abs=1e-10)

    def test_matches_dense_algebra_oracle(self):
        rng = np.random.default_rng(4)
        net = chain_net(6)
        u, _ = net.laplacian_spectrum()
        gamma = decay_weights(3, 0.8)
        filters = rng.uniform(-0.5, 1.2, size=(3, 6))
        model = SpectralPredictor(u, filters, gamma)
        hist = random_states(rng, 3, 6)
        dense = np.zeros(6)
        for k in range(3):
            dense += gamma[k] * (u @ np.diag(filters[k]) @ u.T) @ hist[k]
        assert model.linear_forward(hist).tolist() == \
            pytest.approx(dense.tolist(), abs=1e-10)
        # projected output equals the same guard applied to the dense result
        assert model.forward(hist).tolist() == \
            pytest.approx(simplex_project(dense).tolist(), abs=1e-10)

    def test_untrained_equals_spectral_power_initialization(self):
        rng = np.random.default_rng(5)
        net = chain_net(5)
        u, lam = net.laplacian_spectrum()
        model = SpectralPredictor.for_network(net, 3, 0.8)
        gamma = decay_weights(3, 0.8)
        hist = random_states(rng, 3, 5)
        manual = np.zeros(5)
        for k in range(3):
            manual += gamma[k] * (u @ np.diag(lam ** (k + 1)) @ u.T) @ hist[k]
        assert model.linear_forward(hist).tolist() == \
            pytest.approx(manual.tolist(), abs=1e-12)

    def test_short_history_renormalizes_decay(self):
        rng = np.random.default_rng(6)
        net = chain_net(4)
        model = SpectralPredictor.for_network(net, 5, 0.8)
        hist = random_states(rng, 2, 4)
        out = model.forward(hist)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        net = chain_net(4)
        model = SpectralPredictor.for_network(net, 2, 0.8)
        with pytest.raises(ValueError):
            model.forward([np.ones(7) / 7])


def _planted_setup(rng, n_links=10, k_max=3, n_intervals=26):
    net = chain_net(n_links)
    u, lam = net.laplacian_spectrum()
    gamma = decay_weights(k_max, 0.8)
    gains = rng.uniform(0.85, 1.0, size=n_links)
    planted = np.stack([gains ** (k + 1) for k in range(k_max)])
    planted[:, int(np.argmin(np.abs(lam)))] = 1.0  # preserve total mass

    def forward(history):
        out = np.zeros(n_links)
        for k in range(k_max):
            out += gamma[k] * (u @ (planted[k] * (u.T @ history[k])))
        return out

    states = random_states(rng, k_max, n_links)
    for _ in range(n_intervals - k_max):
        states.append(forward(states[::-1][:k_max]))
    return net, [np.asarray(s) for s in states], planted


class TestSpectralTraining:
    def test_gradient_matches_central_differences(self):
        # random 8-link network, 3 steps; relative error under 1e-5
        rng = np.random.default_rng(7)
        net = chain_net(8)
        model = SpectralPredictor.for_network(net, 3, 0.8)
        model.filters = rng.uniform(-0.4, 1.1, size=model.filters.shape)
        states = random_states(rng, 9, 8)
        windows, targets = build_windows(states, 3)
        _, grad = model.loss_and_gradient(windows, targets)
        eps = 1e-6
        base = model.filters.copy()
        numeric = np.zeros_like(grad)
        for k in range(grad.shape[0]):
            for m in range(grad.shape[1]):
                model.filters = base.copy()
                model.filters[k, m] = base[k, m] + eps
                up = model.loss(windows, targets)
                model.filters[k, m] = base[k, m] - eps
                down = model.loss(windows, targets)
                numeric[k, m] = (up - down) / (2 * eps)
        model.filters = base
        denom = np.maximum(np.abs(numeric), 1e-8)
        rel = np.abs(grad - numeric) / denom
        assert rel.max() < 1e-5

    def test_planted_model_recovery(self):
        rng = np.random.default_rng(123)
        net, states, _ = _planted_setup(rng)
        model = SpectralPredictor.for_network(net, 3, 0.8)
        result = train_spectral(model, states, max_epochs=2000)
        assert result.best_val < 1e-6
        assert result.epochs <= 2000

    def test_full_batch_training_loss_non_increasing(self):
        rng = np.random.default_rng(9)
        net, states, _ = _planted_setup(rng, n_links=8, n_intervals=20)
        model = SpectralPredictor.for_network(net, 3, 0.8)
        result = train_spectral(model, states, max_epochs=300)
        history = result.train_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_zero_epochs_rejected(self):
        rng = np.random.default_rng(9)
        net, states, _ = _planted_setup(rng, n_links=8, n_intervals=20)
        model = SpectralPredictor.for_network(net, 3, 0.8)
        with pytest.raises(ValueError, match="epoch"):
            train_spectral(model, states, max_epochs=0)

    def test_insufficient_data_rejected(self):
        net = chain_net(4)
        model = SpectralPredictor.for_network(net, 3, 0.8)
        with pytest.raises(ValueError):
            train_spectral(model, random_states(np.random.default_rng(0), 4, 4))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        net = chain_net(5)
        model = SpectralPredictor.for_network(net, 2, 0.8)
        model.filters = rng.uniform(0, 1, size=model.filters.shape)
        path = tmp_path / "model.json"
        model.save(str(path))
        again = SpectralPredictor.load(str(path), net)
        hist = random_states(rng, 2, 5)
        assert again.forward(hist).tolist() == pytest.approx(model.forward(hist).tolist())

    def test_rejects_other_network(self, tmp_path):
        net = chain_net(5)
        other = chain_net(6)
        model = SpectralPredictor.for_network(net, 2, 0.8)
        path = tmp_path / "model.json"
        model.save(str(path))
        with pytest.raises(ValueError):
            SpectralPredictor.load(str(path), other)

    def test_rejects_same_size_different_topology(self, tmp_path):
        net = chain_net(5)
        nodes = [(i, 200.0 * i, 0.0) for i in range(6)]
        links = [(i, i, i + 1, 200.0, None) for i in range(4)]
        links.append((4, 0, 5, 1000.0, None))  # same link count, different wiring
        other = build_network(nodes, links)
        model = SpectralPredictor.for_network(net, 2, 0.8)
        path = tmp_path / "model.json"
        model.save(str(path))
        with pytest.raises(ValueError):
            SpectralPredictor.load(str(path), other)


    @pytest.mark.parametrize("edit", [{"format": 1}, {"fingerprint": ""}])
    def test_rejects_other_format_or_empty_fingerprint(self, tmp_path, edit):
        net = chain_net(5)
        path = tmp_path / "model.json"
        SpectralPredictor.for_network(net, 2, 0.8).save(str(path))
        payload = json.loads(path.read_text())
        payload.update(edit)
        path.write_text(json.dumps(payload))
        with pytest.raises(InputFormatError, match="model.json"):
            SpectralPredictor.load(str(path), net)

    def test_fingerprint_ignores_split_length(self, tmp_path):
        nodes = [(i, 200.0 * i, 0.0) for i in range(6)]
        links = [(i, i, i + 1, 200.0, None) for i in range(5)]
        path = tmp_path / "model.json"
        SpectralPredictor.for_network(build_network(nodes, links, 50.0), 2, 0.8).save(str(path))
        SpectralPredictor.load(str(path), build_network(nodes, links, 25.0))

    def test_size_limit_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        SpectralPredictor.for_network(chain_net(5), 2, 0.8).save(str(path))
        monkeypatch.setattr("mapfuse.network.MAX_SPECTRAL_LINKS", 4)
        with pytest.raises(InputFormatError, match="model.json.*5 links .* limit of 4"):
            SpectralPredictor.load(str(path), chain_net(5))


def test_states_csv_round_trip(tmp_path):
    net = chain_net(3)
    states = [aggregate_interval(net, [0, 1], 4), aggregate_interval(net, [2], 5)]
    path = tmp_path / "states.csv"
    write_states_csv(str(path), net, states)
    again = read_states_csv(str(path), net)
    assert [s.interval for s in again] == [4, 5]
    for a, b in zip(states, again):
        assert b.values.tolist() == pytest.approx(a.values.tolist(), abs=1e-10)


def test_simplex_project():
    assert simplex_project(np.array([0.5, -0.2, 0.5])).tolist() == pytest.approx([0.5, 0.0, 0.5])
    assert simplex_project(np.array([-1.0, -2.0])).tolist() == [0.5, 0.5]
    out = simplex_project(np.array([3.0, 1.0]))
    assert out.tolist() == pytest.approx([0.75, 0.25])
