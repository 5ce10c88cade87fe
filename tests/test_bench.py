import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewplan import (
    CoverageTable,
    Submesh,
    SyntheticSpec,
    exact_min_cover,
    generate_instance,
    planar_grid,
    run_fixed_lambda,
)


def brute_min_cover(table, rcc=1.0):
    """Smallest k over all view combinations whose union is the achievable set
    or, below rcc 1, has at least rcc of its area (the union's triangle areas
    added in ascending order)."""
    sets = [set(sm.triangle_indices().tolist()) for sm in table.coverage]
    ach = set(table.achievable.triangle_indices().tolist())
    area = table.mesh.triangle_area.tolist()
    target = rcc * table.achievable.area
    for k in range(len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), k):
            u = set().union(*(sets[j] for j in combo))
            if u == ach or (rcc < 1.0 and sum(area[t] for t in sorted(u)) >= target):
                return k
    raise AssertionError("unreachable: all views together are the achievable set")


def unit_strip_table(cols, view_squares):
    mesh = planar_grid(1, cols)
    subs = [Submesh.from_triangles(mesh, [t for c in s for t in (2 * c, 2 * c + 1)])
            for s in view_squares]
    return CoverageTable.build(mesh, None, subs)


class TestSpecValidation:
    def test_kind(self):
        with pytest.raises(ValueError):
            SyntheticSpec("towers", 4, 4, 3)

    def test_dims_and_views(self):
        with pytest.raises(ValueError):
            SyntheticSpec("random_patches", 0, 4, 2)
        with pytest.raises(ValueError):
            SyntheticSpec("random_patches", 4, 4, 0)
        with pytest.raises(ValueError):
            SyntheticSpec("random_patches", 4, 4, 2, patch_min=3, patch_max=2)
        with pytest.raises(ValueError):
            SyntheticSpec("random_patches", 4, 4, 2, patch_min=0)

    def test_certify_caps_views(self):
        with pytest.raises(ValueError):
            SyntheticSpec("random_patches", 9, 9, 25, certify=True)
        SyntheticSpec("random_patches", 9, 9, 25, certify=False)

    def test_trap_needs_room(self):
        with pytest.raises(ValueError):
            SyntheticSpec("grid_trap", 6, 10, 2)
        with pytest.raises(ValueError):
            SyntheticSpec("grid_trap", 3, 10, 3)


class TestGridTrap:
    def test_canonical_counts(self):
        inst = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0))
        assert inst.oracle_count == 2
        assert inst.connected_count == 2
        assert inst.greedy_count == 3

    def test_greedy_falls_for_the_band(self):
        inst = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0))
        plan = run_fixed_lambda(inst.table, 0.0)
        assert plan.order[0] == inst.table.n_views - 1  # the band, biggest area
        exact = exact_min_cover(inst.table)
        assert set(exact.order) == {0, 1}  # blocks alone suffice

    def test_band_dominates_each_block(self):
        inst = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=0))
        areas = [sm.area for sm in inst.table.coverage]
        assert max(areas[:-1]) < areas[-1]

    def test_three_block_variants(self):
        for seed in range(5):
            inst = generate_instance(SyntheticSpec("grid_trap", 6, 12, 4, seed=seed))
            assert inst.oracle_count == 3
            assert inst.greedy_count == 4

    def test_blocks_jointly_cover(self):
        inst = generate_instance(SyntheticSpec("grid_trap", 6, 10, 3, seed=1))
        covered = set()
        for sm in inst.table.coverage[:-1]:
            covered |= set(sm.triangle_indices().tolist())
        assert covered == set(range(inst.table.mesh.n_triangles))

    def test_impossible_geometry_raises(self):
        with pytest.raises(ValueError):
            generate_instance(SyntheticSpec("grid_trap", 6, 6, 4, seed=0))
        with pytest.raises(ValueError):
            generate_instance(SyntheticSpec("grid_trap", 4, 10, 3, seed=0))


class TestRandomPatches:
    def test_patch_size_bounds(self):
        spec = SyntheticSpec("random_patches", 8, 8, 10, patch_min=2, patch_max=3,
                             seed=5, certify=False)
        inst = generate_instance(spec)
        for sm in inst.table.coverage:
            assert 2 * 2 * 2 <= sm.count <= 2 * 3 * 3

    def test_determinism(self):
        spec = SyntheticSpec("random_patches", 6, 6, 8, seed=42)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert a.table.digest == b.table.digest
        assert (a.oracle_count, a.greedy_count, a.connected_count) == \
               (b.oracle_count, b.greedy_count, b.connected_count)
        c = generate_instance(SyntheticSpec("random_patches", 6, 6, 8, seed=43))
        assert c.table.digest != a.table.digest

    def test_uncertified_skips_counts(self):
        inst = generate_instance(
            SyntheticSpec("random_patches", 6, 6, 8, seed=3, certify=False))
        assert inst.oracle_count is None
        assert inst.connected_count is None
        assert inst.greedy_count >= 1


class TestExactMinCover:
    def test_single_view_world(self):
        table = unit_strip_table(3, [[0, 1, 2]])
        plan = exact_min_cover(table)
        assert plan.order == (0,)
        assert plan.method == "exact"
        assert plan.final_coverage_fraction == pytest.approx(1.0)

    def test_two_disjoint_views(self):
        table = unit_strip_table(2, [[0], [1]])
        assert len(exact_min_cover(table).order) == 2

    def test_zero_rcc_needs_nothing(self):
        table = unit_strip_table(2, [[0], [1]])
        assert exact_min_cover(table, rcc=0.0).order == ()

    def test_partial_rcc(self):
        table = unit_strip_table(4, [[0], [1], [2], [3]])
        assert len(exact_min_cover(table, rcc=0.5).order) == 2

    def test_redundant_view_skipped(self):
        table = unit_strip_table(3, [[0], [0, 1, 2], [2]])
        plan = exact_min_cover(table)
        assert plan.order == (1,)

    def test_connected_variant_infeasible(self):
        table = unit_strip_table(2, [[0], [1]])
        with pytest.raises(ValueError):
            exact_min_cover(table, connected=True)

    def test_connected_at_least_unconstrained(self):
        # chain where the cheap cover is disconnected
        table = unit_strip_table(6, [[0, 1, 2], [3, 4, 5], [2, 3]])
        free = exact_min_cover(table)
        conn = exact_min_cover(table, connected=True)
        assert len(free.order) == 2
        assert len(conn.order) >= len(free.order)
        assert conn.method == "exact-connected"

    def test_view_limit(self):
        table = unit_strip_table(25, [[c] for c in range(25)])
        with pytest.raises(ValueError):
            exact_min_cover(table)

    def test_rcc_range(self):
        table = unit_strip_table(2, [[0], [1]])
        with pytest.raises(ValueError):
            exact_min_cover(table, rcc=1.2)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(19)
        for trial in range(25):
            spec = SyntheticSpec("random_patches", 5, 5,
                                 int(rng.integers(2, 9)), patch_max=3,
                                 seed=int(rng.integers(10_000)), certify=False)
            table = generate_instance(spec).table
            assert len(exact_min_cover(table).order) == brute_min_cover(table)


@settings(max_examples=40, deadline=None)
@given(views=st.integers(1, 8), pmax=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
       rcc=st.sampled_from([0.5, 0.8, 0.95]))
def test_exact_partial_cover_matches_exhaustive_search(views, pmax, seed, rcc):
    # grid triangles all have area 0.5, so every area sum is exact and no
    # float tie can flip the count
    spec = SyntheticSpec("random_patches", 6, 6, views, patch_max=pmax, seed=seed, certify=False)
    table = generate_instance(spec).table
    assert len(exact_min_cover(table, rcc).order) == brute_min_cover(table, rcc)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    views=st.integers(1, 6),
    pmax=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_patches_certificates_hold(rows, cols, views, pmax, seed):
    spec = SyntheticSpec("random_patches", rows, cols, views,
                         patch_max=pmax, seed=seed)
    inst = generate_instance(spec)
    assert 1 <= inst.oracle_count <= views
    assert inst.greedy_count >= inst.oracle_count
    if inst.connected_count is not None:
        assert inst.connected_count >= inst.oracle_count
    covered = np.zeros(inst.table.mesh.n_triangles, dtype=bool)
    for sm in inst.table.coverage:
        covered |= sm.mask
    assert np.array_equal(inst.table.achievable.mask, covered)
