import math

import numpy as np
import pytest

from viewplan import (
    NetworkConfig,
    ValueNetwork,
    apply_update,
    encode_input,
    forward,
    gradient,
    init_network,
)


def make_net(hidden_w, hidden_b, out_w, out_b):
    """Network from its four parameter blocks, packed in the flat layout."""
    hidden_w = np.asarray(hidden_w, dtype=np.float64)
    cfg = NetworkConfig(input_dim=hidden_w.shape[1], hidden=hidden_w.shape[0])
    return ValueNetwork(cfg, np.concatenate([hidden_w.ravel(), hidden_b, out_w, [out_b]]))


def forward_oracle(net, x):
    """Straight-line recomputation with plain Python loops."""
    h = net.config.hidden
    total = net.out_b
    for i in range(h):
        z = float(net.hidden_b[i])
        for j in range(net.config.input_dim):
            z += float(net.hidden_w[i, j]) * float(x[j])
        total += float(net.out_w[i]) / (1.0 + math.exp(-z))
    return total


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=0)
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=3, hidden=0)
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=3, init_scale=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_init_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="init_scale must be >= 0 and finite"):
            NetworkConfig(input_dim=3, init_scale=bad)

    def test_shape_validation(self):
        cfg = NetworkConfig(input_dim=3, hidden=2)
        assert cfg.n_params == 2 * 3 + 2 + 2 + 1
        ValueNetwork(cfg, np.zeros(11))
        for bad in (np.zeros(10), np.zeros(12), np.zeros((1, 11)), np.zeros(0)):
            with pytest.raises(ValueError, match="flat vector of 11"):
                ValueNetwork(cfg, bad)


class TestLayout:
    def test_blocks_are_views_in_file_order(self):
        # hidden weights row-major, hidden biases, output weights, output bias
        cfg = NetworkConfig(input_dim=3, hidden=2)
        net = ValueNetwork(cfg, np.arange(11.0))
        assert net.hidden_w.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        assert net.hidden_b.tolist() == [6.0, 7.0]
        assert net.out_w.tolist() == [8.0, 9.0]
        assert net.out_b == 10.0 and type(net.out_b) is float
        for block in (net.hidden_w, net.hidden_b, net.out_w):
            assert np.shares_memory(block, net.params)
        net.params[4] = -1.0
        net.params[-1] = 0.5
        assert net.hidden_w[1, 1] == -1.0 and net.out_b == 0.5


class TestInit:
    def test_seed_reproducible(self):
        cfg = NetworkConfig(input_dim=5, hidden=4, seed=123)
        a = init_network(cfg)
        b = init_network(cfg)
        assert np.array_equal(a.params, b.params)
        c = init_network(NetworkConfig(input_dim=5, hidden=4, seed=124))
        assert not np.array_equal(a.params, c.params)

    def test_init_scale_bounds(self):
        net = init_network(NetworkConfig(input_dim=8, hidden=16, init_scale=0.1, seed=1))
        assert np.abs(net.params).max() <= 0.1

    def test_zero_scale_gives_constant_net(self):
        net = init_network(NetworkConfig(input_dim=4, hidden=3, init_scale=0.0))
        # all weights zero: output is 0 regardless of input
        assert forward(net, np.ones(4)) == 0.0
        assert forward(net, np.zeros(4)) == 0.0


class TestForward:
    def test_hand_computed_value(self):
        net = make_net(
            np.array([[1.0, -1.0], [0.5, 0.5]]),
            np.array([0.0, -0.5]),
            np.array([2.0, -1.0]),
            0.25,
        )
        x = np.array([1.0, 0.0])
        # z = (1.0, 0.0); sig = (1/(1+e^-1), 0.5)
        want = 0.25 + 2.0 / (1.0 + np.exp(-1.0)) - 0.5
        assert forward(net, x) == pytest.approx(want, rel=1e-15)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(77)
        cfg = NetworkConfig(input_dim=6, hidden=5, seed=9)
        net = init_network(cfg)
        for _ in range(25):
            x = rng.normal(size=6)
            assert forward(net, x) == pytest.approx(forward_oracle(net, x), rel=1e-12)

    def test_extreme_preactivations_saturate(self):
        net = make_net(np.array([[800.0], [-800.0]]), np.zeros(2), np.array([1.0, 1.0]), 0.0)
        # exp would overflow naively; sigmoid must saturate cleanly to 1 and 0
        v = forward(net, np.array([1.0]))
        assert v == pytest.approx(1.0)
        assert np.isfinite(v)

    def test_input_shape_checked(self):
        net = init_network(NetworkConfig(input_dim=3, hidden=2))
        with pytest.raises(ValueError):
            forward(net, np.zeros(4))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        cfg = NetworkConfig(input_dim=5, hidden=4, seed=3)
        net = init_network(cfg)
        eps = 1e-6
        for _ in range(5):
            x = rng.normal(size=5)
            _value, g = gradient(net, x)
            assert g.shape == (cfg.n_params,)
            assert g[-1] == 1.0
            for k in range(cfg.n_params):
                old = net.params[k]
                net.params[k] = old + eps
                up = forward(net, x)
                net.params[k] = old - eps
                down = forward(net, x)
                net.params[k] = old
                want = (up - down) / (2.0 * eps)
                assert g[k] == pytest.approx(want, rel=1e-5, abs=1e-9)

    def test_value_is_bit_equal_to_forward(self):
        rng = np.random.default_rng(21)
        for seed in range(10):
            net = init_network(NetworkConfig(input_dim=7, hidden=5, seed=seed))
            for x in (rng.normal(size=7), rng.integers(0, 2, size=7).astype(float)):
                value, _g = gradient(net, x)
                assert type(value) is float
                assert value == forward(net, x)

    def test_gradient_is_detached(self):
        # mutating the returned gradient must not touch the parameters
        net = init_network(NetworkConfig(input_dim=2, hidden=2, seed=4))
        x = np.array([1.0, -1.0])
        before = net.params.copy()
        _value, g = gradient(net, x)
        assert not np.shares_memory(g, net.params)
        g[:] = 99.0
        assert np.array_equal(net.params, before)


class TestTrace:
    def test_zeros_scale_accumulate(self):
        # the trace operations of agents.train, on a parameter-shaped array
        net = ValueNetwork(NetworkConfig(input_dim=2, hidden=2), np.zeros(9))
        t = np.zeros_like(net.params)
        g = np.ones(9)
        t += g
        t *= 0.5
        assert np.array_equal(t, np.full(9, 0.5))
        t += g
        assert t[-1] == 1.5
        t.fill(0.0)
        assert not t.any()

    def test_decayed_trace_matches_discounted_gradient_sum(self):
        # after two accumulate/decay rounds the trace is mu*g1 + g2, and the
        # output-bias slot counts mu + 1
        cfg = NetworkConfig(input_dim=3, hidden=2, seed=8)
        net = init_network(cfg)
        x1, x2 = np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])
        mu = 0.7
        trace = np.zeros_like(net.params)
        trace += gradient(net, x1)[1]
        trace *= mu
        trace += gradient(net, x2)[1]
        g1, g2 = gradient(net, x1)[1], gradient(net, x2)[1]
        assert np.array_equal(trace, mu * g1 + g2)
        assert trace[-1] == mu + 1.0


class TestApplyUpdate:
    def test_parameter_arithmetic(self):
        net = make_net(np.zeros((2, 2)), np.zeros(2), np.zeros(2), 1.0)
        trace = np.concatenate([np.ones(4), np.full(2, 2.0), np.full(2, 3.0), [4.0]])
        apply_update(net, trace, delta=0.5, alpha=0.1)
        assert np.allclose(net.hidden_w, 0.05)
        assert np.allclose(net.hidden_b, 0.10)
        assert np.allclose(net.out_w, 0.15)
        assert net.out_b == pytest.approx(1.2)

    def test_update_moves_value_toward_target(self):
        net = init_network(NetworkConfig(input_dim=3, hidden=8, seed=2))
        x = np.array([1.0, 0.0, 1.0])
        target = -3.0
        for _ in range(200):
            value, g = gradient(net, x)
            apply_update(net, g, target - value, 0.1)
        assert forward(net, x) == pytest.approx(target, abs=0.05)

    def test_non_finite_update_raises(self):
        net = init_network(NetworkConfig(input_dim=2, hidden=2, seed=5))
        _value, trace = gradient(net, np.array([1.0, 1.0]))
        with pytest.raises(FloatingPointError):
            apply_update(net, trace, delta=np.inf, alpha=0.01)


class TestEncode:
    def test_state_action_layout(self):
        # four views with 0 and 2 chosen, action 1 of 2
        state = np.array([1.0, 0.0, 1.0, 0.0])
        x = encode_input(state, 1, 2)
        assert x.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0, 1.0]

    def test_state_only(self):
        state = np.array([0.0, 1.0])
        x = encode_input(state, None, 5)
        assert x.tolist() == [0.0, 1.0]
        x[0] = 9.0
        assert state[0] == 0.0  # copy, not a view

    def test_action_range_checked(self):
        with pytest.raises(ValueError):
            encode_input(np.zeros(3), 2, 2)
        with pytest.raises(ValueError):
            encode_input(np.zeros(3), -1, 2)

    def test_flat_vector_required(self):
        with pytest.raises(ValueError):
            encode_input(np.zeros((2, 2)), 0, 2)
