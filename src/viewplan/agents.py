"""Training loop that learns which lam to hand the per-step view selector.

The three agents (sarsa, watkins-q, td) are one algorithm: TD learning with
eligibility traces on the shared value network, over episodes of one shape.
Each episode drops onto a uniformly random first view, then lets the selector
extend coverage until the relative coverage criterion is met, paying a reward
of -1 per transition (undiscounted). Every step encodes the input, accumulates
its gradient into the trace, forms the TD error, stops at the terminal state,
advances, adds the bootstrap value, applies the update, and decays the trace.

The agents differ in two places only:

* The input. td estimates state values v(s); sarsa and watkins-q estimate
  action values q(s, lam), with the lam index one-hot after the state bits.
* The bootstrap step. td evaluates every lam's successor state, moves to the
  best-valued one and bootstraps on its value. sarsa and watkins-q move with
  the current lam and bootstrap on the successor's greedy q. sarsa (on-policy,
  greedy throughout) keeps that greedy lam as its next action. watkins-q
  (off-policy) picks its next lam after the update, epsilon-greedy during a
  configured window, and resets the trace after an exploratory pick instead
  of decaying it.

plan_with_model walks the same greedy steps without learning.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .network import (NetworkConfig, ValueNetwork, apply_update, encode_input, forward,
                      gradient, init_network)
from .planner import CoverageState, Plan, coverage_fraction, is_terminal, next_best_view
from .visibility import CoverageTable

REWARD = -1.0

ALGORITHMS = ("sarsa", "watkins-q", "td")


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run.

    `epsilon` is the exploration rate during the first `epsilon_episodes`
    episodes: watkins-q only; sarsa and td are greedy, so for them these two
    settings change nothing but the values stored in the model file.
    """

    algorithm: str
    lambda_set: tuple[float, ...] = (0.0, 1.0)
    alpha: float = 0.01
    mu_e: float = 0.5
    max_episodes: int = 100_000
    rcc: float = 1.0
    epsilon: float = 0.1
    epsilon_episodes: int = 50_000
    seed: int = 0
    hidden: int = 200
    init_scale: float = 0.1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        lams = tuple(float(l) for l in self.lambda_set)
        if not lams:
            raise ValueError("lambda_set must not be empty")
        if any(l < 0.0 for l in lams):
            raise ValueError(f"lambda values must be nonnegative, got {lams}")
        if len(set(lams)) != len(lams):
            raise ValueError(f"lambda values must be distinct, got {lams}")
        object.__setattr__(self, "lambda_set", lams)
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (0.0 <= self.mu_e <= 1.0):
            raise ValueError(f"mu_e must be in [0, 1], got {self.mu_e}")
        if self.max_episodes < 1:
            raise ValueError(f"max_episodes must be >= 1, got {self.max_episodes}")
        if not (0.0 <= self.rcc <= 1.0):
            raise ValueError(f"rcc must be in [0, 1], got {self.rcc}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.epsilon_episodes < 0:
            raise ValueError(f"epsilon_episodes must be >= 0, got {self.epsilon_episodes}")


@dataclass(eq=False)
class TrainedModel:
    """Network plus everything needed to replay or audit the training run."""

    network: ValueNetwork
    config: TrainConfig
    episode_lengths: np.ndarray  # transitions per episode, int32
    mesh_digest: str
    table_digest: str
    n_views: int

    @property
    def episode_log(self) -> list[tuple[int, int]]:
        """(length, return) per episode; the return is -1 per transition."""
        return [(int(n), -int(n)) for n in self.episode_lengths]


def _seed_children(seed: int):
    """(network init, episode draws): independent streams from the run seed."""
    return np.random.SeedSequence(seed).spawn(2)


def input_width(algorithm: str, n_views: int, n_actions: int) -> int:
    """Network input: the state bits, then a one-hot lam block for the
    action-value agents (sarsa, watkins-q)."""
    return n_views if algorithm == "td" else n_views + n_actions


def network_config(config: TrainConfig, n_views: int) -> NetworkConfig:
    """The network that `train` builds for `config` on `n_views` views,
    including the initialization seed derived from `config.seed`."""
    init_seed = int(_seed_children(config.seed)[0].generate_state(1)[0])
    return NetworkConfig(input_width(config.algorithm, n_views, len(config.lambda_set)),
                         config.hidden, config.init_scale, init_seed)


def _best_action(net: ValueNetwork, state_vec: np.ndarray, n_actions: int) -> tuple[int, float]:
    """Greedy lam index and its q value; ties go to the lowest index."""
    q = [forward(net, encode_input(state_vec, a, n_actions)) for a in range(n_actions)]
    best = 0
    for a in range(1, n_actions):
        if q[a] > q[best]:
            best = a
    return best, q[best]


def _best_successor(net: ValueNetwork, state: CoverageState, table: CoverageTable,
                    state_vec: np.ndarray, lams) -> tuple[int | None, float, float]:
    """(view, lam, value) of the best-valued successor state over every lam.

    Lams that select the same view share one evaluation; ties go to the first
    lam. The view is None when the selector stalls. state_vec is restored.
    """
    best_view = None
    best_lam = 0.0
    best_val = 0.0
    seen: dict[int, float] = {}
    for lam in lams:
        view = next_best_view(state, table, lam)
        if view is None:
            continue
        val = seen.get(view)
        if val is None:
            state_vec[view] = 1.0
            val = forward(net, state_vec)
            state_vec[view] = 0.0
            seen[view] = val
        if best_view is None or val > best_val:
            best_view, best_lam, best_val = view, lam, val
    return best_view, best_lam, best_val


def train(table: CoverageTable, config: TrainConfig, callback=None) -> TrainedModel:
    """Train the agent named by config.algorithm; callback(episode, length)
    runs after every episode."""
    n = table.n_views
    lams = config.lambda_set
    n_actions = len(lams)
    td = config.algorithm == "td"
    watkins = config.algorithm == "watkins-q"
    net = init_network(network_config(config, n))
    rng = np.random.default_rng(_seed_children(config.seed)[1])
    trace = np.zeros_like(net.params)
    lengths = np.empty(config.max_episodes, dtype=np.int32)

    def select(vec, eps):
        # exploratory iff the draw does not exceed eps
        if eps > 0.0 and rng.random() <= eps:
            return int(rng.integers(n_actions)), True
        return _best_action(net, vec, n_actions)[0], False

    for ep in range(config.max_episodes):
        eps = config.epsilon if watkins and ep < config.epsilon_episodes else 0.0
        start = int(rng.integers(n))
        state = CoverageState.initial(table).add(table, start)
        vec = np.zeros(n)
        vec[start] = 1.0
        trace.fill(0.0)
        transitions = 0
        act = None if td else select(vec, eps)[0]
        while True:
            estimate, grad = gradient(net, encode_input(vec, act, n_actions))
            trace += grad
            delta = REWARD - estimate
            if is_terminal(state, table, config.rcc):
                apply_update(net, trace, delta, config.alpha)
                break
            if td:
                view, _lam, value = _best_successor(net, state, table, vec, lams)
            else:
                view = next_best_view(state, table, lams[act])
            if view is None:
                # cannot happen below the coverage target: some unchosen view still gains
                raise RuntimeError("selector stalled before the coverage target")
            state = state.add(table, view)
            vec[view] = 1.0
            transitions += 1
            if not td:
                # the successor's greedy q: watkins-q's max bootstrap, and
                # sarsa's next action, picked before the update
                act, value = _best_action(net, vec, n_actions)
            apply_update(net, trace, delta + value, config.alpha)
            if watkins:
                act, explored = select(vec, eps)
                if explored:
                    trace.fill(0.0)
                    continue
            trace *= config.mu_e
        lengths[ep] = transitions
        if callback is not None:
            callback(ep, transitions)
    return TrainedModel(net, config, lengths, table.mesh_digest, table.digest, n)


def plan_with_model(model: TrainedModel, table: CoverageTable, rcc: float) -> Plan:
    """Deterministic plan from a trained model.

    The first view is the single-view state the model values highest; each
    later step takes the model's preferred lam and hands it to the selector
    (state-value models compare the successor states instead).
    """
    if model.table_digest != table.digest:
        warnings.warn("model was trained on a different coverage table than the one given",
                      stacklevel=2)
    if model.n_views != table.n_views:
        raise ValueError(
            f"model expects {model.n_views} views, table has {table.n_views}")
    n = table.n_views
    lams = model.config.lambda_set
    n_actions = len(lams)
    td = model.config.algorithm == "td"
    net = model.network

    vec = np.zeros(n)
    best_start = 0
    best_val = 0.0
    for i in range(n):
        vec[i] = 1.0
        val = forward(net, vec) if td else _best_action(net, vec, n_actions)[1]
        vec[i] = 0.0
        if i == 0 or val > best_val:
            best_start = i
            best_val = val

    state = CoverageState.initial(table).add(table, best_start)
    vec[best_start] = 1.0
    order = [best_start]
    lambdas: list[float] = []
    complete = True
    while not is_terminal(state, table, rcc):
        if td:
            view, lam, _value = _best_successor(net, state, table, vec, lams)
        else:
            lam = lams[_best_action(net, vec, n_actions)[0]]
            view = next_best_view(state, table, lam)
        if view is None:
            complete = False
            break
        order.append(view)
        lambdas.append(lam)
        state = state.add(table, view)
        vec[view] = 1.0
    return Plan(tuple(order), tuple(lambdas), coverage_fraction(state.covered.area, table),
                model.config.algorithm, complete)
