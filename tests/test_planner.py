import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from viewplan import (
    CoverageState,
    CoverageTable,
    Submesh,
    SyntheticSpec,
    TriangleMesh,
    ViewPoint,
    candidate_scores,
    exact_min_cover,
    generate_instance,
    grid_square_triangles,
    icosphere,
    is_terminal,
    next_best_view,
    planar_grid,
    precompute_coverage,
    run_alternating,
    run_fixed_lambda,
    score,
    union_coverage,
)
from viewplan import mesh, planner

from conftest import camera_ring_table, grown_patch, submesh_of, tri_neighbors


def table_from_sets(mesh, sets):
    return CoverageTable.build(
        mesh, None, [Submesh.from_triangles(mesh, s) for s in sets])


def jittered_sphere(seed, subdivisions=1, scale=0.03):
    """Icosphere with symmetric face areas broken, so score ties are honest."""
    base = icosphere(subdivisions)
    rng = np.random.default_rng(seed)
    verts = base.vertices + rng.normal(scale=scale, size=base.vertices.shape)
    return TriangleMesh(verts, base.triangles.copy())


def greedy_oracle(areas, sets, rcc):
    """Set-arithmetic greedy: max union area, overlap guard, lowest index wins."""
    target = set().union(*sets)
    target_area = sum(areas[t] for t in target)
    covered: set = set()
    chosen: list[int] = []
    # set-equality first: summing the same areas in two different orders can
    # round apart by an ulp
    while not (covered >= target
               or sum(areas[t] for t in covered) >= rcc * target_area):
        pool = []
        for i, s in enumerate(sets):
            if i in chosen or s <= covered:
                continue
            pool.append((i, s))
        overlapping = [(i, s) for i, s in pool if not covered or s & covered]
        best = None
        for i, s in overlapping or pool:
            a = sum(areas[t] for t in covered | s)
            if best is None or a > best[0]:
                best = (a, i, s)
        chosen.append(best[1])
        covered |= best[2]
    return chosen


class TestNextBestView:
    def test_prefers_larger_union(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1], [0, 1]])
        state = CoverageState.initial(table)
        assert next_best_view(state, table, 0.0) == 2
        assert next_best_view(state, table, 1.0) == 2

    def test_tie_goes_to_lowest_index(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        state = CoverageState.initial(table)
        assert next_best_view(state, table, 0.0) == 0
        assert next_best_view(state, table, 1.0) == 0

    def test_skips_chosen_and_zero_gain(self, unit_square):
        table = table_from_sets(unit_square, [[0], [0], [0, 1]])
        state = CoverageState.initial(table).add(table, 0)
        # view 1 duplicates the covered set, so only view 2 remains
        assert next_best_view(state, table, 0.0) == 2
        state = state.add(table, 2)
        assert next_best_view(state, table, 0.0) is None

    def test_overlap_beats_bigger_disjoint_gain(self):
        grid = planar_grid(2, 4)
        a0, a1 = grid_square_triangles(2, 4, 0, 0)
        sets = [[a0, a1],
                [a1, a0 + 2],                      # overlaps square 0
                list(range(4, 8)) + [a0 + 2]]      # bigger, shares a tri w/ view 1
        sets[2] = [t for t in sets[2] if t not in sets[0]]
        table = table_from_sets(grid, sets)
        state = CoverageState.initial(table).add(table, 0)
        # view 2 gains more area but is disjoint from the covered set
        assert not (table.coverage[2].mask & state.covered.mask).any()
        gain2 = table.coverage[2].count
        gain1 = len(set(sets[1]) - set(sets[0]))
        assert gain2 > gain1
        assert next_best_view(state, table, 0.0) == 1

    def test_guard_waived_when_nothing_overlaps(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        state = CoverageState.initial(table).add(table, 0)
        # only remaining candidate is disjoint; it must still be offered
        assert next_best_view(state, table, 0.0) == 1

    def test_mismatched_state_rejected(self, unit_square, ico1):
        table = table_from_sets(unit_square, [[0], [1]])
        other = CoverageState(0, Submesh.empty(ico1))
        with pytest.raises(ValueError):
            next_best_view(other, table, 0.0)

    def test_matches_score_argmax(self, ico1):
        rng = np.random.default_rng(11)
        mesh = jittered_sphere(3)
        neigh = tri_neighbors(mesh)
        sets = [grown_patch(mesh, rng, 12, neigh)
                for _ in range(6)]
        table = table_from_sets(mesh, sets)
        state = CoverageState.initial(table).add(table, 0)
        for lam in (0.0, 0.5, 1.0, 2.0):
            got = next_best_view(state, table, lam)
            best = None
            for i in range(table.n_views):
                if (state.chosen >> i) & 1:
                    continue
                sm = table.coverage[i]
                if not (sm.mask > state.covered.mask).any():
                    continue
                if not (sm.mask & state.covered.mask).any():
                    continue
                s = score(union_coverage(state.covered, sm), lam)
                if best is None or s > best[0]:
                    best = (s, i)
            if best is not None:
                assert got == best[1]


class TestIsTerminal:
    def test_full_cover_terminates(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        state = CoverageState.initial(table).add(table, 0).add(table, 1)
        assert is_terminal(state, table, 1.0)

    def test_partial_cover_doesnt(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        state = CoverageState.initial(table).add(table, 0)
        assert not is_terminal(state, table, 1.0)
        assert is_terminal(state, table, 0.5)

    def test_empty_state_terminal_at_zero_rcc(self, unit_square):
        table = table_from_sets(unit_square, [[0]])
        state = CoverageState.initial(table)
        assert is_terminal(state, table, 0.0)
        assert not is_terminal(state, table, 0.1)

    def test_target_is_achievable_not_whole_mesh(self, unit_square):
        # only triangle 0 is reachable; covering it is full termination
        table = table_from_sets(unit_square, [[0]])
        state = CoverageState.initial(table).add(table, 0)
        assert is_terminal(state, table, 1.0)

    def test_rcc_out_of_range(self, unit_square):
        table = table_from_sets(unit_square, [[0]])
        state = CoverageState.initial(table)
        with pytest.raises(ValueError):
            is_terminal(state, table, -0.1)
        with pytest.raises(ValueError):
            is_terminal(state, table, 1.5)


class TestCoverageState:
    def test_add_validates(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        state = CoverageState.initial(table)
        with pytest.raises(ValueError):
            state.add(table, 2)
        state = state.add(table, 1)
        with pytest.raises(ValueError):
            state.add(table, 1)

    def test_add_is_persistent(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        s0 = CoverageState.initial(table)
        s1 = s0.add(table, 0)
        assert s0.chosen == 0 and s0.covered.count == 0
        assert s1.chosen == 1
        assert s1.covered == table.coverage[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            s1.chosen = 0


class TestRuns:
    def test_two_view_cover(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        plan = run_fixed_lambda(table, 0.0)
        assert plan.order == (0, 1)
        assert plan.lambdas == (0.0, 0.0)
        assert plan.final_coverage_fraction == pytest.approx(1.0)
        assert plan.method == "greedy"
        assert plan.complete

    def test_method_names(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        assert run_fixed_lambda(table, 0.0).method == "greedy"
        assert run_fixed_lambda(table, 0.7).method == "fixed-lambda"
        assert run_alternating(table).method == "alt-lambda"

    def test_alternating_schedule(self):
        grid = planar_grid(1, 4)
        sets = [grid_square_triangles(1, 4, 0, c) for c in range(4)]
        table = table_from_sets(grid, sets)
        plan = run_alternating(table)
        assert plan.lambdas == (0.0, 1.0, 0.0, 1.0)[: len(plan.lambdas)]
        assert plan.complete

    def test_start_view_is_forced(self, unit_square):
        table = table_from_sets(unit_square, [[0], [1]])
        plan = run_fixed_lambda(table, 0.0, start=1)
        assert plan.order[0] == 1
        assert len(plan.lambdas) == len(plan.order) - 1

    def test_policy_sees_each_state_and_step(self):
        table = generate_instance(SyntheticSpec("random_patches", 8, 8, 10, seed=1)).table
        seen = []

        def lam_at(state, step):
            seen.append((state.chosen, step))
            return 1.0 if step % 3 == 0 else 0.0

        plan = planner.run_policy(table, 1.0, lam_at, "custom", start=4)
        assert plan.method == "custom" and plan.order[0] == 4
        prefixes = [sum(1 << v for v in plan.order[:k]) for k in range(1, len(plan.order))]
        assert seen == list(zip(prefixes, range(2, len(plan.order) + 1)))
        assert plan.lambdas == tuple(1.0 if step % 3 == 0 else 0.0 for _c, step in seen)

    def test_rcc_stops_early(self):
        grid = planar_grid(1, 4)
        sets = [grid_square_triangles(1, 4, 0, c) for c in range(4)]
        table = table_from_sets(grid, sets)
        plan = run_fixed_lambda(table, 0.0, rcc=0.5)
        assert len(plan.order) == 2
        assert plan.final_coverage_fraction == pytest.approx(0.5)
        assert plan.complete

    # the plan-order area sum is above the table-order sum at seeds 9 and 23,
    # and below it at seed 5
    @pytest.mark.parametrize("method, seed, views", [("greedy", 9, 6), ("greedy", 5, 6),
                                                     ("exact", 23, 8)])
    def test_full_plan_reports_exactly_one(self, method, seed, views):
        mesh = jittered_sphere(seed)
        rng = np.random.default_rng(seed)
        neigh = tri_neighbors(mesh)
        table = table_from_sets(mesh, [grown_patch(mesh, rng, 14, neigh) for _ in range(views)])
        plan = run_fixed_lambda(table, 0.0) if method == "greedy" else exact_min_cover(table)
        state = CoverageState.initial(table)
        for v in plan.order:
            state = state.add(table, v)
        assert state.covered == table.achievable
        assert state.covered.area != table.achievable.area  # summed in another order
        assert plan.final_coverage_fraction == 1.0

    def test_plan_never_repeats_views(self, ico1):
        rng = np.random.default_rng(5)
        mesh = jittered_sphere(9)
        neigh = tri_neighbors(mesh)
        for trial in range(10):
            sets = [grown_patch(mesh, rng, 10, neigh)
                    for _ in range(7)]
            table = table_from_sets(mesh, sets)
            for lam in (0.0, 1.0):
                plan = run_fixed_lambda(table, lam)
                assert len(set(plan.order)) == len(plan.order)
                assert plan.complete
                assert plan.final_coverage_fraction == pytest.approx(1.0)

    def test_deterministic(self, ico1):
        rng = np.random.default_rng(17)
        mesh = jittered_sphere(21)
        neigh = tri_neighbors(mesh)
        sets = [grown_patch(mesh, rng, 14, neigh)
                for _ in range(6)]
        table = table_from_sets(mesh, sets)
        a = run_fixed_lambda(table, 1.0)
        b = run_fixed_lambda(table, 1.0)
        assert a == b

    def test_scale_invariant_order(self, ico1):
        # needs tie-free scores: exact ties may break differently once
        # rounding happens at another scale
        rng = np.random.default_rng(13)
        mesh = jittered_sphere(37)
        neigh = tri_neighbors(mesh)
        sets = [grown_patch(mesh, rng, 13, neigh)
                for _ in range(6)]
        table = table_from_sets(mesh, sets)
        big = TriangleMesh(mesh.vertices * 7.3, mesh.triangles.copy())
        big_table = table_from_sets(big, sets)
        for lam in (0.0, 0.5, 1.0, 2.0):
            assert (run_fixed_lambda(table, lam).order
                    == run_fixed_lambda(big_table, lam).order)

    def test_pinned_orders_on_icosphere_ring(self):
        # Grid boundaries are sums of edges of length 1.0, exact in any order
        # and equal to the edge count. On this stretched icosphere edge lengths
        # differ, so these orders also pin how boundary lengths are measured
        # (a boundary scored by edge count flips the lam=2 order). They were
        # recorded with the directed half-edge boundary rule that the parity
        # rule replaced; at every step the best score leads the runner-up by
        # at least 0.6%, far above rounding.
        rng = np.random.default_rng(1)
        views = []
        for k in range(8):
            a = 2 * math.pi * (k + rng.uniform(-0.3, 0.3)) / 8
            r, z = rng.uniform(2.0, 3.0), rng.uniform(-1.2, 1.2)
            views.append(ViewPoint.aimed((r * math.cos(a), r * math.sin(a), z),
                                         fov_y=math.radians(40)))
        sphere = icosphere(2)
        mesh = TriangleMesh(sphere.vertices * [1.6, 1.0, 0.6], sphere.triangles)
        table = precompute_coverage(mesh, views)
        assert [c.count for c in table.coverage] == [91, 45, 44, 58, 64, 34, 44, 67]
        expected = {0.0: (0, 7, 4, 3, 5, 1, 6), 0.5: (0, 7, 3, 4, 5, 1, 6),
                    1.0: (0, 7, 3, 1, 4, 5, 6), 2.0: (7, 6, 0, 3, 1, 4, 5),
                    "alt": (0, 7, 4, 3, 5, 1, 6)}
        plans = {lam: run_fixed_lambda(table, lam) for lam in (0.0, 0.5, 1.0, 2.0)}
        plans["alt"] = run_alternating(table)
        for key, plan in plans.items():
            assert plan.order == expected[key], key
            assert plan.complete
            assert plan.final_coverage_fraction == pytest.approx(1.0)

    def test_greedy_matches_set_oracle(self, ico1):
        rng = np.random.default_rng(29)
        mesh = jittered_sphere(31)
        neigh = tri_neighbors(mesh)
        areas = {t: float(mesh.triangle_area[t]) for t in range(mesh.n_triangles)}
        for trial in range(20):
            sets = [set(grown_patch(mesh, rng, 11, neigh))
                    for _ in range(rng.integers(3, 9))]
            table = table_from_sets(mesh, [sorted(s) for s in sets])
            plan = run_fixed_lambda(table, 0.0)
            assert list(plan.order) == greedy_oracle(areas, sets, 1.0)


def pool_oracle(state, table):
    """The selection pool by set arithmetic, one view at a time."""
    covered = set(state.covered.triangle_indices().tolist())
    sets = [set(sm.triangle_indices().tolist()) for sm in table.coverage]
    gaining = [i for i, s in enumerate(sets) if not (state.chosen >> i) & 1 and s - covered]
    overlapping = [i for i in gaining if not covered or sets[i] & covered]
    return overlapping or gaining


def assert_batched_matches_oracle(state, table, lams=(0.0, 0.5, 1.0, 2.0)):
    """Every batched (area, boundary length, score) equals the one-at-a-time
    `union_coverage` value exactly, for the pool and for every gaining view
    in ascending and in descending order; the selector picks the first of the
    best-scoring views, also on the area-only path at lam 0; and every
    patch's overlap count equals its covered triangles."""
    covered = state.covered
    for lam in lams:
        got = candidate_scores(state, table, lam)
        assert [v for v, *_ in got] == pool_oracle(state, table)
        best = None
        for v, area, length, s in got:
            u = union_coverage(covered, table.coverage[v])
            assert (area, length, s) == (u.area, u.boundary_length, score(u, lam)), (v, lam)
            if best is None or s > best[1]:
                best = (v, s)
        assert next_best_view(state, table, lam) == (None if best is None else best[0]), lam
    patches = table.patches
    lookup, inside = patches.overlap(covered)
    assert inside.tolist() == [int((sm.mask & covered.mask).sum()) for sm in table.coverage]
    gaining = [i for i, sm in enumerate(table.coverage) if (sm.mask > covered.mask).any()]
    for rows in (np.array(gaining, dtype=np.int64), np.array(gaining[::-1], dtype=np.int64)):
        area, length = patches.unions(covered, rows, lookup, inside)
        assert area.tolist() == patches.areas(covered, rows, lookup, inside).tolist()
        for v, a, b in zip(rows.tolist(), area.tolist(), length.tolist()):
            u = union_coverage(covered, table.coverage[v])
            assert (a, b) == (u.area, u.boundary_length), v


@pytest.fixture(scope="module")
def large_grid_table():
    spec = SyntheticSpec("random_patches", 40, 40, 150, patch_min=2, patch_max=10, seed=0,
                         certify=False)
    return generate_instance(spec).table


class TestBatchedScores:
    def test_every_trap_state(self):
        table = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0)).table
        frontier = [CoverageState.initial(table)]
        seen = 0
        while frontier:
            state = frontier.pop()
            assert_batched_matches_oracle(state, table)
            seen += 1
            frontier += [state.add(table, v) for v in range(table.n_views)
                         if not (state.chosen >> v) & 1 and v > state.chosen.bit_length() - 1]
        assert seen == 2 ** table.n_views

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(order=st.lists(st.integers(0, 149), min_size=0, max_size=40, unique=True))
    def test_large_grid_states(self, large_grid_table, order):
        state = CoverageState.initial(large_grid_table)
        for v in order:
            state = state.add(large_grid_table, v)
        assert_batched_matches_oracle(state, large_grid_table)

    def test_pools_wider_than_one_chunk(self, large_grid_table):
        table = large_grid_table
        state = CoverageState.initial(table)  # every view is in the first pool
        wide = 0
        while state.covered != table.achievable:
            pool = pool_oracle(state, table)
            if len(pool) > mesh._CHUNK_ROWS:
                # chunked by size, which is not the pool's order
                assert np.any(np.diff(table.patches.size[pool]) < 0)
                assert_batched_matches_oracle(state, table, lams=(0.0, 1.0))
                wide += 1
            state = state.add(table, next_best_view(state, table, 1.0))
        assert wide >= 2

    @pytest.mark.parametrize("views, empty_at", [(0, 0), (6, 0), (6, 3), (6, 6), (40, 0),
                                                 (40, 17), (40, 40)])
    def test_view_without_triangles(self, views, empty_at):
        # a view can cover nothing, e.g. a camera facing away
        mesh = jittered_sphere(2)
        rng = np.random.default_rng(views + empty_at)
        neigh = tri_neighbors(mesh)
        coverage = [Submesh.from_triangles(mesh, grown_patch(mesh, rng, int(rng.integers(1, 30)),
                                                             neigh))
                    for _ in range(views)]
        coverage.insert(empty_at, Submesh.empty(mesh))
        table = CoverageTable.build(mesh, None, coverage)
        state = CoverageState.initial(table)
        assert_batched_matches_oracle(state, table, lams=(0.0, 1.0))
        while (v := next_best_view(state, table, 1.0)) is not None:
            state = state.add(table, v)
            assert_batched_matches_oracle(state, table, lams=(0.0, 1.0))
        assert state.covered == table.achievable

    def test_camera_ring_states(self):
        table = camera_ring_table()
        rng = np.random.default_rng(3)
        for trial in range(6):
            state = CoverageState.initial(table)
            for v in rng.permutation(table.n_views)[: trial + 1].tolist():
                state = state.add(table, v)
                assert_batched_matches_oracle(state, table)
        for lam in (0.0, 1.0):
            state = CoverageState.initial(table)
            while (v := next_best_view(state, table, lam)) is not None:
                assert_batched_matches_oracle(state, table)
                state = state.add(table, v)

    def test_closing_the_surface_scores_inf(self, ico1):
        half = [t for t in range(ico1.n_triangles) if ico1.triangle_centroid[t, 2] > 0.0]
        rest = [t for t in range(ico1.n_triangles) if t not in half]
        table = table_from_sets(ico1, [half, rest, half[:5]])
        state = CoverageState.initial(table).add(table, 0)
        assert_batched_matches_oracle(state, table)
        (view, area, length, s), = candidate_scores(state, table, 1.0)
        assert (view, length, s) == (1, 0.0, math.inf)
        assert candidate_scores(state, table, 0.0)[0][3] == area

    def test_view_holding_the_covered_region_keeps_its_own_area(self):
        # union_coverage returns such a view itself, whose area sums all of its
        # triangles; covered area plus the new triangles rounds differently here
        mesh = jittered_sphere(1)
        rng = np.random.default_rng(1)
        neigh = tri_neighbors(mesh)
        inner = grown_patch(mesh, rng, 9, neigh)
        outer = sorted(set(inner) | set(grown_patch(mesh, rng, 12, neigh)))
        table = CoverageTable.build(mesh, None, [Submesh.from_triangles(mesh, inner),
                                                 Submesh.from_triangles(mesh, outer)])
        state = CoverageState.initial(table).add(table, 0)
        view = table.coverage[1]
        assert union_coverage(state.covered, view) is view
        added = Submesh.from_triangles(mesh, sorted(set(outer) - set(inner))).area
        assert state.covered.area + added != view.area
        assert_batched_matches_oracle(state, table)

    def test_empty_pool_returns_none(self, unit_square):
        table = table_from_sets(unit_square, [[0], [0, 1], [1]])
        state = CoverageState.initial(table).add(table, 1)
        assert candidate_scores(state, table, 1.0) == []
        assert next_best_view(state, table, 1.0) is None


class TestNonFiniteLambda:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_fixed_lambda_plan_rejected(self, lam):
        table = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0)).table
        with pytest.raises(ValueError, match="finite"):
            run_fixed_lambda(table, lam)
        # rejected before any selection, even when none would run
        with pytest.raises(ValueError, match="finite"):
            run_fixed_lambda(table, lam, rcc=0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_selector_rejects(self, unit_square, lam):
        table = table_from_sets(unit_square, [[0], [1]])
        state = CoverageState.initial(table)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            next_best_view(state, table, lam)
