import hashlib
import math

import numpy as np
import pytest

import viewplan.agents as agents
from viewplan import (
    CoverageTable,
    Submesh,
    SyntheticSpec,
    TrainConfig,
    ViewPoint,
    generate_instance,
    icosphere,
    plan_with_model,
    planar_grid,
    precompute_coverage,
    run_fixed_lambda,
    train,
)

from conftest import camera_ring_table


def strip_table(sets, cols=4):
    mesh = planar_grid(1, cols)
    tris = lambda c: [2 * c, 2 * c + 1]
    expanded = [[t for c in s for t in tris(c)] for s in sets]
    return CoverageTable.build(
        mesh, None, [Submesh.from_triangles(mesh, s) for s in expanded])


def weights_equal(a, b):
    return (np.array_equal(a.hidden_w, b.hidden_w)
            and np.array_equal(a.hidden_b, b.hidden_b)
            and np.array_equal(a.out_w, b.out_w)
            and a.out_b == b.out_b)


# three squares, three views; greedy episode length depends on the start view
TRAP_SETS = [[0, 1], [1, 2], [0, 1, 2]]


def model_digest(model):
    h = hashlib.sha256()
    net = model.network
    for arr in (net.hidden_w, net.hidden_b, net.out_w, np.float64(net.out_b),
                model.episode_lengths):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# a longer strip where episodes run up to three transitions
WIDE_SETS = [[0], [0, 1], [1, 2], [2, 3], [1, 2, 3]]

# (view sets, algorithm, config overrides, sha256 of weights and episode
# lengths, plan order, plan lams): 40 episodes, hidden 8, seed 7, computed
# with the three per-algorithm trainers of commit 351ff4e
PINNED_RUNS = [
    (TRAP_SETS, "sarsa", {},
     "3a69dbca3fcb7f7647a24a457079633d7504724b65c913f8213ac44000718450", (0, 1),
     (1.0,)),
    (TRAP_SETS, "watkins-q", {},
     "811e70c2a73c535643461417b61cacf7511ad8d9dc44610a46f5250f89c82c20", (0, 1),
     (1.0,)),
    (TRAP_SETS, "td", {},
     "f228e6ee95f1e4857d3f9d71a1d7c5bf5229ba98ba20cd96cecb19b351791a49", (2,),
     ()),
    (TRAP_SETS, "watkins-q", {"epsilon": 0.5, "epsilon_episodes": 20},
     "529a669c6a41fa46bfaaa1abce782e296857abaa33638f3aa400fee9abd6ecb1", (0, 1),
     (1.0,)),
    (TRAP_SETS, "sarsa", {"lambda_set": (0.0, 0.5, 1.0), "mu_e": 0.9},
     "1edc639c35e8c2678f471085c95a197ee0d28940355a8696833e45294d9b77ee", (2,),
     ()),
    (TRAP_SETS, "watkins-q", {"lambda_set": (0.0, 0.5, 1.0), "mu_e": 0.9},
     "9c3f36a2623c040244095ca2b8b726c395714d96151203664cf03077193bfad9", (2,),
     ()),
    (TRAP_SETS, "td", {"lambda_set": (0.0, 0.5, 1.0), "mu_e": 0.9},
     "1273286a462c9e37ab8f16f5a3ca4c998a17709e2acbd0829549b4f5033ad057", (2,),
     ()),
    (WIDE_SETS, "sarsa", {},
     "0659bae327b82a32b92b5a5d77142c723658ca58e8a31af57fa800ad67ed47f9", (2, 1, 3),
     (0.0, 0.0)),
    (WIDE_SETS, "watkins-q", {},
     "a03b1d2d81f3aeab5d4192529397865c38a611bf64a5951d513d05a59f396839", (2, 1, 3),
     (0.0, 0.0)),
    (WIDE_SETS, "td", {},
     "f71667b9154111eb5a6756c942ff9be7701331967e2e5363eded19f317a5eda5", (4, 1),
     (0.0,)),
    (WIDE_SETS, "watkins-q", {"epsilon": 0.5, "epsilon_episodes": 20},
     "b9a0477afaf69dea97fcb072d072b2d8d0eb00d46364611dd9ca6ada573a4de3", (2, 1, 3),
     (1.0, 1.0)),
    (WIDE_SETS, "sarsa", {"lambda_set": (0.0, 0.5, 1.0), "mu_e": 0.9},
     "80cabff5090eda3d08e8cdbf80ca406eb181457c691552d67525926d03e771ca", (3, 2, 1),
     (1.0, 1.0)),
    (WIDE_SETS, "watkins-q", {"lambda_set": (0.0, 0.5, 1.0), "mu_e": 0.9},
     "a34842933ed492804e1db1574b77963d4f8148ff38c2450a67ba312d13fe323a", (3, 2, 1),
     (1.0, 1.0)),
    (WIDE_SETS, "td", {"lambda_set": (0.0, 0.5, 1.0), "mu_e": 0.9},
     "5050a3d04e08fdac96175ff594254e7bf75341004c857850c1e6c409b2783351", (4, 1),
     (0.0,)),
]

# (algorithm, lam set, seed, {rcc: (plan order, plan lams)}) of
# `plan_with_model` on `camera_ring_table` after 80 episodes, hidden 8,
# epsilon 0.3 for the first 40, computed with the planning loop of commit
# dcd068f. The ring's path-dependent areas are where a changed walk could
# flip a near-tie; each run mixes lams, and each plan changes if the state
# vector keeps only the first chosen view.
RING_PLANS = [
    ("sarsa", (0.0, 0.5, 1.0), 2,
     {1.0: ((1, 10, 3, 7, 5, 9, 11), (1.0, 1.0, 0.5, 1.0, 1.0, 0.0)),
      0.8: ((1, 10, 3, 7), (1.0, 1.0, 0.5))}),
    ("watkins-q", (0.0, 1.0), 1,
     {1.0: ((3, 0, 9, 6, 5, 7, 1, 11), (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0)),
      0.8: ((3, 0, 9, 6), (1.0, 1.0, 1.0))}),
    ("td", (0.0, 0.5, 1.0), 4,
     {1.0: ((5, 1, 3, 9, 7, 11), (0.0, 1.0, 0.0, 0.0, 0.0)),
      0.8: ((5, 1, 3, 9), (0.0, 1.0, 0.0))}),
]


@pytest.fixture(scope="module")
def ring_table():
    return camera_ring_table()


class TestTrainConfig:
    def test_algorithm_names(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm="q")
        for name in ("sarsa", "watkins-q", "td"):
            assert TrainConfig(algorithm=name).algorithm == name

    def test_lambda_set_rules(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", lambda_set=())
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", lambda_set=(0.0, -1.0))
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", lambda_set=(1.0, 1.0))
        cfg = TrainConfig(algorithm="td", lambda_set=(0, 1))
        assert cfg.lambda_set == (0.0, 1.0)
        assert all(isinstance(l, float) for l in cfg.lambda_set)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(algorithm="td", lambda_set=(bad, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, bad):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            TrainConfig(algorithm="td", alpha=bad)

    def test_scalar_ranges(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", alpha=0.0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", mu_e=1.5)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", max_episodes=0)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", rcc=1.0001)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", epsilon=-0.2)
        with pytest.raises(ValueError):
            TrainConfig(algorithm="td", epsilon_episodes=-1)


class TestTrainingLoops:
    def test_input_width_per_algorithm(self):
        table = strip_table([[0, 1], [2, 3], [1, 2]])
        for algo, width in (("sarsa", 3 + 2), ("watkins-q", 3 + 2), ("td", 3)):
            cfg = TrainConfig(algorithm=algo, max_episodes=2, hidden=4, epsilon=0.0)
            model = train(table, cfg)
            assert model.network.config.input_dim == width
            assert model.n_views == 3

    def test_single_view_world_terminates_immediately(self):
        table = strip_table([[0, 1, 2, 3]])
        for algo in ("sarsa", "watkins-q", "td"):
            cfg = TrainConfig(algorithm=algo, max_episodes=5, hidden=4)
            model = train(table, cfg)
            assert model.episode_lengths.tolist() == [0] * 5
            assert model.episode_log == [(0, 0)] * 5

    def test_terminal_value_learned(self):
        # only terminal updates happen here; the estimate of the start state
        # must approach the -1 reward of its final transition
        from viewplan import encode_input, forward
        table = strip_table([[0, 1, 2, 3]])
        cfg = TrainConfig(algorithm="watkins-q", max_episodes=400, hidden=16,
                          alpha=0.05, lambda_set=(0.0,))
        model = train(table, cfg)
        vec = np.array([1.0])
        assert forward(model.network, encode_input(vec, 0, 1)) == pytest.approx(-1.0, abs=0.1)

    def test_episode_lengths_bounded_by_views(self):
        table = strip_table(TRAP_SETS)
        for algo in ("sarsa", "watkins-q", "td"):
            cfg = TrainConfig(algorithm=algo, max_episodes=30, hidden=8, seed=2)
            model = train(table, cfg)
            assert model.episode_lengths.shape == (30,)
            assert model.episode_lengths.dtype == np.int32
            assert (model.episode_lengths >= 0).all()
            assert (model.episode_lengths <= table.n_views - 1).all()

    def test_callback_sees_every_episode(self):
        table = strip_table(TRAP_SETS)
        seen = []
        cfg = TrainConfig(algorithm="sarsa", max_episodes=12, hidden=4, seed=3)
        model = train(table, cfg, callback=lambda ep, n: seen.append((ep, n)))
        assert [e for e, _ in seen] == list(range(12))
        assert [n for _, n in seen] == model.episode_lengths.tolist()

    def test_returns_negate_lengths(self):
        table = strip_table(TRAP_SETS)
        cfg = TrainConfig(algorithm="td", max_episodes=20, hidden=4, seed=4)
        model = train(table, cfg)
        for length, ret in model.episode_log:
            assert ret == -length

    def test_same_seed_same_model(self):
        table = strip_table(TRAP_SETS)
        for algo in ("sarsa", "watkins-q", "td"):
            cfg = TrainConfig(algorithm=algo, max_episodes=40, hidden=8, seed=11)
            a = train(table, cfg)
            b = train(table, cfg)
            assert weights_equal(a.network, b.network)
            assert np.array_equal(a.episode_lengths, b.episode_lengths)

    def test_different_seed_different_model(self):
        table = strip_table(TRAP_SETS)
        cfg1 = TrainConfig(algorithm="sarsa", max_episodes=40, hidden=8, seed=11)
        cfg2 = TrainConfig(algorithm="sarsa", max_episodes=40, hidden=8, seed=12)
        assert not weights_equal(train(table, cfg1).network, train(table, cfg2).network)

    def test_single_lambda_walks_the_greedy_path(self):
        # with one lam there is nothing to choose, so each episode's length is
        # the seeded greedy plan from the same start; replay the start draws
        # through the same public seed split
        table = strip_table(TRAP_SETS)
        episodes = 25
        for algo in ("sarsa", "watkins-q", "td"):
            cfg = TrainConfig(algorithm=algo, max_episodes=episodes, hidden=4,
                              seed=21, lambda_set=(0.0,), epsilon=0.0)
            model = train(table, cfg)
            rng = np.random.default_rng(np.random.SeedSequence(21).spawn(2)[1])
            for ep in range(episodes):
                start = int(rng.integers(table.n_views))
                greedy = run_fixed_lambda(table, 0.0, start=start)
                assert model.episode_lengths[ep] == len(greedy.order) - 1

    def test_trace_decay_unused_when_always_exploring(self):
        # epsilon = 1 resets the trace on every selection, so mu_e cannot
        # influence anything
        table = strip_table(TRAP_SETS)
        def cfg(mu):
            return TrainConfig(algorithm="watkins-q", max_episodes=30, hidden=8,
                               seed=6, epsilon=1.0, epsilon_episodes=10**6, mu_e=mu)
        a = train(table, cfg(0.9))
        b = train(table, cfg(0.1))
        assert weights_equal(a.network, b.network)

    def test_trace_decay_matters_when_greedy(self):
        table = strip_table(TRAP_SETS)
        def cfg(mu):
            return TrainConfig(algorithm="watkins-q", max_episodes=30, hidden=8,
                               seed=6, epsilon=0.0, mu_e=mu)
        a = train(table, cfg(0.9))
        b = train(table, cfg(0.1))
        assert not weights_equal(a.network, b.network)

    def test_epsilon_moves_only_watkins_q(self):
        table = strip_table(WIDE_SETS)
        def model(algo, **kw):
            return train(table, TrainConfig(algorithm=algo, max_episodes=40, hidden=8,
                                            seed=7, **kw))
        for algo in ("sarsa", "td"):
            assert model_digest(model(algo)) == model_digest(
                model(algo, epsilon=0.5, epsilon_episodes=20))
        assert model_digest(model("watkins-q")) != model_digest(
            model("watkins-q", epsilon=0.5, epsilon_episodes=20))

    @pytest.mark.parametrize("sets,algo,overrides,digest,order,lams", PINNED_RUNS)
    def test_pinned_weights_and_plan(self, sets, algo, overrides, digest, order, lams):
        table = strip_table(sets)
        cfg = TrainConfig(algorithm=algo, max_episodes=40, hidden=8, seed=7, **overrides)
        model = train(table, cfg)
        assert model_digest(model) == digest
        plan = plan_with_model(model, table, 1.0)
        assert (plan.order, plan.lambdas) == (order, lams)


class TestTransitionMemo:
    def test_each_selector_key_computed_once(self, monkeypatch):
        table = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0)).table
        for algo in ("td", "sarsa"):
            keys = []
            real = agents.next_best_view

            def counting(state, table, lam):
                keys.append((state.chosen, state.covered.area, lam))
                return real(state, table, lam)

            monkeypatch.setattr(agents, "next_best_view", counting)
            train(table, TrainConfig(algorithm=algo, max_episodes=60, hidden=8, seed=3))
            monkeypatch.undo()
            assert len(keys) == len(set(keys))
            # grid triangle areas add exactly, so the area never splits a key
            assert len(keys) == len({(chosen, lam) for chosen, _area, lam in keys})

    def test_no_state_shared_between_calls(self):
        trap, wide = PINNED_RUNS[0], PINNED_RUNS[7]
        assert (trap[:3], wide[:3]) == ((TRAP_SETS, "sarsa", {}), (WIDE_SETS, "sarsa", {}))
        cfg = TrainConfig(algorithm="sarsa", max_episodes=40, hidden=8, seed=7)
        for first, second in ((trap, wide), (wide, trap)):
            for sets, _algo, _overrides, digest, order, lams in (first, second):
                table = strip_table(sets)
                model = train(table, cfg)
                assert model_digest(model) == digest
                plan = plan_with_model(model, table, 1.0)
                assert (plan.order, plan.lambdas) == (order, lams)

    def test_path_dependent_area_kept_in_the_key(self):
        # On camera tables the covered area is summed along the path, so one
        # set of views reached in two orders can differ in the last bit. A
        # memo keyed by the chosen views alone changes this run's weights.
        cams = [ViewPoint.aimed([2.2 * math.cos(a), 2.2 * math.sin(a), 0.5 * math.sin(3 * a)],
                                fov_y=0.6)
                for a in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)]
        table = precompute_coverage(icosphere(2), cams)
        cfg = TrainConfig(algorithm="td", lambda_set=(0.0, 0.5, 1.0), max_episodes=50,
                          hidden=8, seed=0)
        # computed before the memo existed
        assert model_digest(train(table, cfg)) == (
            "0e31271f617ffd4380dd062da3522d7b6cdd850f4e8f6485326c6b39289d64b7")


class TestPlanWithModel:
    def make_model(self, table, algo="sarsa", **kw):
        cfg = TrainConfig(algorithm=algo, max_episodes=60, hidden=8, seed=9, **kw)
        return train(table, cfg)

    def test_plan_is_valid_and_complete(self):
        table = strip_table(TRAP_SETS)
        for algo in ("sarsa", "watkins-q", "td"):
            model = self.make_model(table, algo)
            plan = plan_with_model(model, table, rcc=1.0)
            assert plan.complete
            assert plan.method == algo
            assert len(set(plan.order)) == len(plan.order)
            assert len(plan.lambdas) == len(plan.order) - 1
            assert all(l in model.config.lambda_set for l in plan.lambdas)
            assert plan.final_coverage_fraction == pytest.approx(1.0)

    def test_plan_deterministic(self):
        table = strip_table(TRAP_SETS)
        model = self.make_model(table, "td")
        assert plan_with_model(model, table, 1.0) == plan_with_model(model, table, 1.0)

    def test_rcc_passed_through(self):
        table = strip_table([[0], [1], [2], [3]])
        model = self.make_model(table)
        partial = plan_with_model(model, table, rcc=0.5)
        assert len(partial.order) == 2
        assert partial.final_coverage_fraction == pytest.approx(0.5)

    def test_digest_mismatch_warns(self):
        table = strip_table(TRAP_SETS)
        other = strip_table([[0, 1], [2], [1, 2, 3]])
        model = self.make_model(table)
        with pytest.warns(UserWarning):
            plan_with_model(model, other, 1.0)

    @pytest.mark.parametrize("algo,lams,seed,plans", RING_PLANS)
    def test_pinned_ring_plans(self, ring_table, algo, lams, seed, plans):
        cfg = TrainConfig(algorithm=algo, lambda_set=lams, max_episodes=80, hidden=8,
                          seed=seed, epsilon=0.3, epsilon_episodes=40)
        model = train(ring_table, cfg)
        for rcc, pinned in plans.items():
            plan = plan_with_model(model, ring_table, rcc)
            assert (plan.order, plan.lambdas) == pinned
            assert plan.complete

    def test_view_count_mismatch_raises(self):
        table = strip_table(TRAP_SETS)
        other = strip_table([[0], [1], [2], [3]])
        model = self.make_model(table)
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            plan_with_model(model, other, 1.0)
