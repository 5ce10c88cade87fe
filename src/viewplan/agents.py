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
  action values q(s, lam), with the lam index one-hot after the state vector.
* The bootstrap step. td evaluates every lam's successor state, moves to the
  best-valued one and bootstraps on its value. sarsa and watkins-q move with
  the current lam and bootstrap on the successor's greedy q. sarsa (on-policy,
  greedy throughout) keeps that greedy lam as its next action. watkins-q
  (off-policy) picks its next lam after the update, epsilon-greedy during a
  configured window, and resets the trace after an exploratory pick instead
  of decaying it.

plan_with_model walks the same greedy steps without learning, through the
planner's own loop (`planner.run_policy`). train memoizes the selector's
views and successor states for the duration of the call.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import check_lambda
from .network import (NetworkConfig, ValueNetwork, apply_update, encode_input, forward,
                      gradient, init_network)
from .planner import CoverageState, Plan, is_terminal, next_best_view, run_policy
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
        for lam in lams:
            check_lambda(lam)
        if len(set(lams)) != len(lams):
            raise ValueError(f"lambda values must be distinct, got {lams}")
        object.__setattr__(self, "lambda_set", lams)
        if not (0.0 < self.alpha < math.inf):  # also false for NaN
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
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
    """Network input: the state vector (one entry per view), then a one-hot
    lam block for the action-value agents (sarsa, watkins-q)."""
    return n_views if algorithm == "td" else n_views + n_actions


def network_config(config: TrainConfig, n_views: int) -> NetworkConfig:
    """The network that `train` builds for `config` on `n_views` views,
    including the initialization seed derived from `config.seed`."""
    init_seed = int(_seed_children(config.seed)[0].generate_state(1)[0])
    return NetworkConfig(input_width(config.algorithm, n_views, len(config.lambda_set)),
                         config.hidden, config.init_scale, init_seed)


class _Transitions:
    """The selector's view and the successor state for one table, memoized for
    one `train` call.

    The environment is deterministic, so a state's chosen views fix both,
    except for the covered area: it is summed along the path, so the same
    views added in another order can differ in the last bit and flip a
    near-tie. Keys therefore hold the area. The selector's view depends on
    the covered region alone (chosen views are covered), so its key is the
    covered triangle mask (as bytes), area and lam.
    """

    def __init__(self, table: CoverageTable):
        self.table = table
        self.initial = CoverageState.initial(table)
        self._views: dict[tuple, int | None] = {}
        self._states: dict[tuple, CoverageState] = {}

    def view(self, state: CoverageState, lam: float) -> int | None:
        key = (state.covered.mask.tobytes(), state.covered.area, lam)
        if key not in self._views:
            self._views[key] = next_best_view(state, self.table, lam)
        return self._views[key]

    def add(self, state: CoverageState, view: int) -> CoverageState:
        key = (state.chosen, state.covered.area, view)
        if key not in self._states:
            self._states[key] = state.add(self.table, view)
        return self._states[key]


def _best_action(net: ValueNetwork, state_vec: np.ndarray, n_actions: int) -> tuple[int, float]:
    """Greedy lam index and its q value; ties go to the lowest index."""
    x = encode_input(state_vec, 0, n_actions)
    hot = len(state_vec)
    q = [forward(net, x)]
    for a in range(1, n_actions):
        x[hot + a - 1] = 0.0
        x[hot + a] = 1.0
        q.append(forward(net, x))
    best = 0
    for a in range(1, n_actions):
        if q[a] > q[best]:
            best = a
    return best, q[best]


def _best_successor(net: ValueNetwork, select: Callable[[float], int | None],
                    state_vec: np.ndarray, lams) -> tuple[int | None, float, float]:
    """(view, lam, value) of the best-valued successor state over every lam,
    `select(lam)` naming the view the selector takes at lam.

    Lams that select the same view share one evaluation; ties go to the first
    lam. The view is None when the selector stalls. state_vec is restored.
    """
    best_view = None
    best_lam = 0.0
    best_val = 0.0
    seen: dict[int, float] = {}
    for lam in lams:
        view = select(lam)
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
    steps = _Transitions(table)

    def select(vec, eps):
        # exploratory iff the draw does not exceed eps
        if eps > 0.0 and rng.random() <= eps:
            return int(rng.integers(n_actions)), True
        return _best_action(net, vec, n_actions)[0], False

    for ep in range(config.max_episodes):
        eps = config.epsilon if watkins and ep < config.epsilon_episodes else 0.0
        start = int(rng.integers(n))
        state = steps.add(steps.initial, start)
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
                view, _lam, value = _best_successor(
                    net, lambda lam: steps.view(state, lam), vec, lams)
            else:
                view = steps.view(state, lams[act])
            if view is None:
                # cannot happen below the coverage target: some unchosen view still gains
                raise RuntimeError("selector stalled before the coverage target")
            state = steps.add(state, view)
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

    def state_vec(chosen: int) -> np.ndarray:
        return np.array([(chosen >> i) & 1 for i in range(n)], dtype=np.float64)

    def start_value(view: int) -> float:
        vec = state_vec(1 << view)
        return forward(net, vec) if td else _best_action(net, vec, n_actions)[1]

    def lam_at(state: CoverageState, _step: int) -> float:
        vec = state_vec(state.chosen)
        if td:
            select = lambda lam: next_best_view(state, table, lam)
            return _best_successor(net, select, vec, lams)[1]
        return lams[_best_action(net, vec, n_actions)[0]]

    # max keeps the first of equal values: ties go to the lowest view
    start = max(range(n), key=start_value)
    return run_policy(table, rcc, lam_at, model.config.algorithm, start)
