"""Whole-package acceptance run: ten headline checks, one report line each.

Every test prints a PASS/FAIL line through the capture plugin so a full run
reads as a ten-line report even when pytest swallows stdout. The RL
trainings are the expensive part; they are shared through a module fixture
and their wall time is asserted where a bound applies.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from viewplan import (
    CoverageTable,
    NetworkConfig,
    Submesh,
    SyntheticSpec,
    TrainConfig,
    brute_force_boundary,
    exact_min_cover,
    forward,
    generate_instance,
    gradient,
    init_network,
    plan_with_model,
    planar_grid,
    run_alternating,
    run_fixed_lambda,
    save_model,
    train,
    union_coverage,
)

from conftest import boundary_pairs, grown_patch, random_triangles, submesh_of, tri_neighbors

ALGOS = ("sarsa", "watkins-q", "td")


@contextmanager
def reported(capsys, index, out):
    """Print one visible `[acceptance i/10] PASS/FAIL ...` line per check."""
    try:
        yield out
    except BaseException:
        _emit(capsys, index, "FAIL", out.get("text", "(failed before summary)"))
        raise
    _emit(capsys, index, "PASS", out.get("text", ""))


def _emit(capsys, index, status, text):
    with capsys.disabled():
        print(f"[acceptance {index:2d}/10] {status} {text}")


@pytest.fixture(scope="module")
def trap():
    """Certified two-block trap: exact cover 2 views, greedy takes 3."""
    inst = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0))
    assert (inst.oracle_count, inst.greedy_count) == (2, 3)
    return inst


@pytest.fixture(scope="module")
def trap_models(trap):
    """Every algorithm on 5 seeds, 10k episodes each; returns (models, seconds)."""
    t0 = time.perf_counter()
    models = {}
    for algo in ALGOS:
        for seed in range(5):
            cfg = TrainConfig(algorithm=algo, max_episodes=10_000, seed=seed)
            models[algo, seed] = train(trap.table, cfg)
    return models, time.perf_counter() - t0


# --- 1: parity union boundary against the from-scratch edge count ----------


def test_union_boundary_matches_brute_force_on_random_pairs(ico3, capsys):
    rng = np.random.default_rng(20260817)
    neighbors = tri_neighbors(ico3)
    t0 = time.perf_counter()
    checked = 0
    with reported(capsys, 1, {}) as out:
        for k in range(500):
            if k % 2:
                a = random_triangles(ico3, rng, float(rng.uniform(0.05, 0.6)))
                b = random_triangles(ico3, rng, float(rng.uniform(0.05, 0.6)))
            else:
                a = grown_patch(ico3, rng, int(rng.integers(1, 400)), neighbors)
                b = grown_patch(ico3, rng, int(rng.integers(1, 400)), neighbors)
            got = union_coverage(submesh_of(ico3, a), submesh_of(ico3, b))
            assert boundary_pairs(got) == brute_force_boundary(ico3, a + b)
            checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 500
        assert elapsed < 10.0
        out["text"] = (f"union boundary exact on {checked}/500 random pairs, "
                       f"{elapsed:.1f}s (bound 10s)")


# --- 2: analytic gradient against central finite differences ---------------


def _fd_gradient(net, x, step):
    """Central differences over every entry of the flat parameter vector,
    perturbing the net in place; each entry is restored exactly afterwards."""
    params = net.params
    g = np.empty(params.size)
    for i in range(params.size):
        old = params[i]
        params[i] = old + step
        hi = forward(net, x)
        params[i] = old - step
        lo = forward(net, x)
        params[i] = old
        g[i] = (hi - lo) / (2.0 * step)
    return g


def test_analytic_gradient_matches_central_differences(capsys):
    step = 1e-5
    rng = np.random.default_rng(7)
    worst = 0.0
    with reported(capsys, 2, {}) as out:
        for k in range(100):
            net = init_network(NetworkConfig(input_dim=32, hidden=16, seed=1000 + k))
            if k % 2:
                x = rng.uniform(0.0, 1.0, size=32)
            else:
                x = rng.integers(0, 2, size=32).astype(float)
            _value, analytic = gradient(net, x)
            fd = _fd_gradient(net, x, step)
            # relative to the largest true component; the output-bias slot is
            # exactly 1, so the denominator never degenerates
            rel = float(np.max(np.abs(analytic - fd)) / np.max(np.abs(fd)))
            worst = max(worst, rel)
        assert worst < 1e-6
        out["text"] = (f"max relative gradient error {worst:.2e} over "
                       f"100 network/input pairs (bound 1e-6)")


# --- 3: lam=0 planning is marginal-area greedy, pick for pick --------------


def _greedy_by_sets(table):
    """Greedy cover on raw index sets, written independently of the planner.

    Same rule set: only views with positive gain are candidates; once
    anything is covered, candidates touching the covered region are
    preferred unless none of them has positive gain; ties go to the lowest
    index.
    """
    area = table.mesh.triangle_area
    sets = [frozenset(sm.triangle_indices()) for sm in table.coverage]
    target = frozenset(table.achievable.triangle_indices())
    covered: set = set()
    chosen: set = set()
    order = []
    while not covered >= target:
        overlapping = []
        anywhere = []
        for i, s in enumerate(sets):
            if i in chosen:
                continue
            extra = s - covered
            if not extra:
                continue
            gain = float(sum(area[t] for t in extra))
            anywhere.append((i, gain))
            if covered and (s & covered):
                overlapping.append((i, gain))
        pool = overlapping if overlapping else anywhere
        if not pool:
            break
        best, best_gain = pool[0]
        for i, gain in pool[1:]:
            if gain > best_gain:
                best, best_gain = i, gain
        covered |= sets[best]
        chosen.add(best)
        order.append(best)
    return tuple(order)


def test_zero_lambda_planner_is_marginal_area_greedy(capsys):
    with reported(capsys, 3, {}) as out:
        matched = 0
        for i in range(200):
            spec = SyntheticSpec(
                "random_patches",
                rows=3 + i % 5,
                cols=3 + (7 * i) % 6,
                views=3 + (3 * i) % 10,
                patch_max=2 + i % 4,
                seed=i,
                certify=False,
            )
            table = generate_instance(spec).table
            plan = run_fixed_lambda(table, 0.0)
            assert plan.order == _greedy_by_sets(table)
            matched += 1
        assert matched == 200
        out["text"] = (f"{matched}/200 instances: lam=0 picks equal set-based "
                       f"greedy, index for index")


# --- 4: exact cover solver against exhaustive enumeration ------------------


def _exhaustive_min_cover(table):
    sets = [frozenset(sm.triangle_indices()) for sm in table.coverage]
    target = frozenset(table.achievable.triangle_indices())
    for k in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), k):
            got = set()
            for i in combo:
                got |= sets[i]
            if got >= target:
                return k
    raise AssertionError("union of all views must cover the target")


def test_exact_solver_matches_exhaustive_enumeration(capsys):
    with reported(capsys, 4, {}) as out:
        for i in range(50):
            spec = SyntheticSpec(
                "random_patches",
                rows=3 + i % 4,
                cols=3 + (5 * i) % 4,
                views=4 + i % 9,
                patch_max=2 + i % 3,
                seed=1000 + i,
                certify=False,
            )
            table = generate_instance(spec).table
            exact = len(exact_min_cover(table).order)
            greedy = len(run_fixed_lambda(table, 0.0).order)
            assert exact == _exhaustive_min_cover(table)
            assert greedy >= exact
        out["text"] = ("50/50 instances up to 12 views: exact count equals "
                       "enumeration, greedy never below it")


# --- 5: trained agents match or beat greedy on the trap --------------------


def test_trained_agents_match_or_beat_greedy_on_trap(trap, trap_models, capsys):
    models, train_seconds = trap_models
    with reported(capsys, 5, {}) as out:
        hits = {algo: 0 for algo in ALGOS}
        for (algo, seed), model in models.items():
            n = len(plan_with_model(model, trap.table, 1.0).order)
            assert n <= trap.greedy_count
            if n == trap.oracle_count:
                hits[algo] += 1
        assert max(hits.values()) >= 3
        assert train_seconds < 600.0
        out["text"] = (f"15/15 plans <= greedy; seeds reaching the exact "
                       f"optimum {hits}; trainings {train_seconds:.0f}s "
                       f"(bound 600s)")


# --- 6: trained agents beat the alternating baseline on a trap suite -------


def test_trained_agents_beat_alternating_on_trap_suite(capsys):
    with reported(capsys, 6, {}) as out:
        alt = []
        rl = {algo: [] for algo in ALGOS}
        for seed in range(10):
            inst = generate_instance(SyntheticSpec("grid_trap", 6, 12, 4, seed=seed))
            alt.append(len(run_alternating(inst.table).order))
            for algo in ALGOS:
                cfg = TrainConfig(algorithm=algo, max_episodes=4000, seed=seed)
                model = train(inst.table, cfg)
                rl[algo].append(len(plan_with_model(model, inst.table, 1.0).order))
        alt_mean = float(np.mean(alt))
        means = {algo: float(np.mean(v)) for algo, v in rl.items()}
        best = min(means.values())
        assert alt_mean > best
        out["text"] = (f"alternating mean {alt_mean:.2f} > best trained mean "
                       f"{best:.2f} over 10 instances {means}")


# --- 7: bit-identical reruns ------------------------------------------------


def test_same_seed_reproduces_weights_and_plans(trap, tmp_path, capsys):
    with reported(capsys, 7, {}) as out:
        for algo in ALGOS:
            cfg = TrainConfig(algorithm=algo, max_episodes=1500, seed=11, hidden=16)
            first = train(trap.table, cfg)
            second = train(trap.table, cfg)
            pa = tmp_path / f"{algo}-a.bin"
            pb = tmp_path / f"{algo}-b.bin"
            save_model(pa, first)
            save_model(pb, second)
            assert pa.read_bytes() == pb.read_bytes()
            assert np.array_equal(first.episode_lengths, second.episode_lengths)
            p1 = plan_with_model(first, trap.table, 1.0)
            p2 = plan_with_model(second, trap.table, 1.0)
            assert p1.order == p2.order and p1.lambdas == p2.lambdas
        out["text"] = ("3 algorithms x 2 identical runs: weight files byte "
                       "equal, plans identical")


# --- 8: relative-coverage cutoffs ------------------------------------------


def test_coverage_threshold_stops_at_first_crossing(trap, capsys):
    with reported(capsys, 8, {}) as out:
        # full requirement reproduces the achievable set exactly
        plan = run_fixed_lambda(trap.table, 0.0, rcc=1.0)
        covered = np.zeros(trap.table.mesh.n_triangles, dtype=bool)
        for i in plan.order:
            covered |= trap.table.coverage[i].mask
        assert np.array_equal(covered, trap.table.achievable.mask)

        # 199 of 200 squares in view 0: fraction 0.995 crosses a 0.99 cutoff
        # on the very first selection, so view 1 must never be picked
        mesh = planar_grid(1, 200)
        big = Submesh.from_triangles(mesh, range(398))
        last = Submesh.from_triangles(mesh, (398, 399))
        table = CoverageTable.build(mesh, None, [big, last])
        full = run_fixed_lambda(table, 0.0, rcc=1.0)
        assert full.order == (0, 1)
        cut = run_fixed_lambda(table, 0.0, rcc=0.99)
        threshold = 0.99 * table.achievable.area
        assert cut.order == (0,)
        assert cut.complete
        assert table.coverage[0].area >= threshold
        assert 0.0 < threshold  # the empty prefix was below the cutoff
        out["text"] = (f"rcc=1.0 reproduces the achievable set; rcc=0.99 "
                       f"stops after one view at fraction "
                       f"{cut.final_coverage_fraction:.3f}")


# --- 9: logged returns are minus the transition counts ---------------------


def test_logged_returns_equal_negative_transition_counts(trap, capsys):
    with reported(capsys, 9, {}) as out:
        seen = []
        cfg = TrainConfig(algorithm="watkins-q", max_episodes=1000, seed=3)
        model = train(trap.table, cfg, callback=lambda ep, n: seen.append((ep, n)))
        log = model.episode_log
        assert len(log) == 1000 and len(seen) == 1000
        assert [ep for ep, _ in seen] == list(range(1000))
        violations = sum(1 for length, ret in log if ret != -length)
        drift = sum(1 for (_, n), (length, _) in zip(seen, log) if n != length)
        bad_range = sum(1 for length, _ in log
                        if not 0 <= length <= trap.table.n_views - 1)
        assert violations == 0 and drift == 0 and bad_range == 0
        out["text"] = ("1000/1000 episodes: return == -transitions, live "
                       "callback counts agree with the stored log")


# --- 10: the learning curve settles -----------------------------------------


def test_learning_curve_settles_during_training(trap_models, capsys):
    # Window sums of int32 lengths keep the comparison exact: 0.1 of a
    # window-500 mean is exactly 50 length units.
    window = 500
    with reported(capsys, 10, {}) as out:
        for algo in ALGOS:
            lengths = trap_models[0][algo, 0].episode_lengths.astype(np.int64)
            assert lengths.size == 10_000
            c = np.concatenate([[0], np.cumsum(lengths)])
            sums = c[window:] - c[:-window]
            rise = int(np.max(sums - np.minimum.accumulate(sums)))
            tail = sums[int(0.8 * lengths.size):]
            spread = int(tail.max() - tail.min())
            assert rise <= window // 10
            assert spread <= window // 5
        out["text"] = ("window-500 mean never rises more than 0.1 above its "
                       "running minimum and stays within a 0.2 band over the "
                       "final 20%, all algorithms")
