"""Scalar value network: one sigmoid hidden layer, affine output.

All parameters live in one flat float64 vector, in the order the weights file
stores them: hidden weights (row-major), hidden biases, output weights, output
bias. Gradients are written out explicitly (no autodiff) in the same layout,
so the eligibility trace is a plain array of that shape and trace
accumulation and parameter updates are single elementwise numpy operations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden: int = 200
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.init_scale < 0.0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")

    @property
    def n_params(self) -> int:
        """Length of the flat parameter vector: H*I + H + H + 1."""
        return self.hidden * (self.input_dim + 2) + 1


class ValueNetwork:
    """Parameters in one flat vector `params`; `hidden_w` (H, I), `hidden_b`
    (H) and `out_w` (H) are views into it and the output bias is its last
    entry. Mutated only through apply_update."""

    __slots__ = ("config", "params", "hidden_w", "hidden_b", "out_w")

    def __init__(self, config: NetworkConfig, params):
        self.config = config
        self.params = np.ascontiguousarray(params, dtype=np.float64)
        if self.params.shape != (config.n_params,):
            raise ValueError(
                f"parameters must be a flat vector of {config.n_params}, got {self.params.shape}")
        h, hw = config.hidden, config.hidden * config.input_dim
        self.hidden_w = self.params[:hw].reshape(h, config.input_dim)
        self.hidden_b = self.params[hw : hw + h]
        self.out_w = self.params[hw + h : hw + 2 * h]

    @property
    def out_b(self) -> float:
        return float(self.params[-1])


def init_network(config: NetworkConfig) -> ValueNetwork:
    """All parameters drawn uniformly from [-init_scale, init_scale], seeded."""
    rng = np.random.default_rng(config.seed)
    s = config.init_scale
    return ValueNetwork(config, rng.uniform(-s, s, size=config.n_params))


def _check_input(net: ValueNetwork, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (net.config.input_dim,):
        raise ValueError(f"input must be ({net.config.input_dim},), got {x.shape}")
    return x


def forward(net: ValueNetwork, x) -> float:
    x = _check_input(net, x)
    sig = expit(net.hidden_w @ x + net.hidden_b)
    return float(net.out_b + net.out_w @ sig)


def gradient(net: ValueNetwork, x) -> tuple[float, np.ndarray]:
    """The output at input x, and its derivative with respect to every
    parameter as a flat vector in the layout of `params`.

    Output bias: 1. Output weights: the hidden activations. Hidden bias i:
    out_w[i] * sig_i * (1 - sig_i). Hidden weight (i, j): the same times x[j].
    The value is bit-equal to forward(net, x).
    """
    x = _check_input(net, x)
    sig = expit(net.hidden_w @ x + net.hidden_b)
    back = net.out_w * sig * (1.0 - sig)
    grad = np.concatenate([np.outer(back, x).ravel(), back, sig, [1.0]])
    return float(net.out_b + net.out_w @ sig), grad


def apply_update(net: ValueNetwork, trace: np.ndarray, delta: float, alpha: float) -> ValueNetwork:
    """In-place parameter step: params += alpha * delta * trace. Returns the net."""
    net.params += (alpha * delta) * trace
    if not np.isfinite(net.params).all():
        raise FloatingPointError(
            f"parameters became non-finite (delta={delta!r}, alpha={alpha!r})")
    return net


def encode_input(state_vec: np.ndarray, action_idx: int | None, n_actions: int) -> np.ndarray:
    """State bit-vector, then a one-hot action block; no action block when
    action_idx is None (state-value models)."""
    state_vec = np.asarray(state_vec, dtype=np.float64)
    if state_vec.ndim != 1:
        raise ValueError(f"state must be a flat vector, got shape {state_vec.shape}")
    if action_idx is None:
        return state_vec.copy()
    if not (0 <= action_idx < n_actions):
        raise ValueError(f"action index {action_idx} out of range for {n_actions} actions")
    out = np.zeros(len(state_vec) + n_actions)
    out[: len(state_vec)] = state_vec
    out[len(state_vec) + action_idx] = 1.0
    return out
