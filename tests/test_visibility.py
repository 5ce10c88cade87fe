import math

import numpy as np
import pytest

from viewplan import (
    CoverageTable,
    Submesh,
    TriangleMesh,
    ViewPoint,
    build_bvh,
    planar_grid,
    precompute_coverage,
    ray_triangle,
    view_coverage,
)


def covered_oracle(mesh, view):
    """Scalar re-derivation of per-view coverage, occlusion by full scan."""
    pos = view.position
    fwd = view.direction
    right = np.cross(fwd, view.up)
    right = right / np.linalg.norm(right)
    up = np.cross(right, fwd)
    tan_y = math.tan(view.fov_y / 2.0)
    tan_x = tan_y * view.aspect
    eps = 1e-6 * mesh.bbox_diagonal
    verts = mesh.vertices
    out = set()
    for t in range(mesh.n_triangles):
        c = mesh.triangle_centroid[t]
        rel = c - pos
        z = float(rel @ fwd)
        if z < view.near or z > view.far:
            continue
        if abs(float(rel @ right)) > z * tan_x:
            continue
        if abs(float(rel @ up)) > z * tan_y:
            continue
        if float(mesh.triangle_normal[t] @ (-rel)) <= 0.0:
            continue
        to_cam = pos - c
        dist = float(np.linalg.norm(to_cam))
        direction = to_cam / dist
        blocked = False
        for a, b, cc in mesh.triangles:
            t_hit = ray_triangle(c, direction, verts[a], verts[b], verts[cc])
            if t_hit is not None and eps < t_hit < dist:
                blocked = True
                break
        if not blocked:
            out.add(t)
    return out


class TestViewPoint:
    def test_rejects_non_unit_direction(self):
        # a NaN or overflowing norm too, with no RuntimeWarning (an error in this suite)
        for direction in ([0.0, 0.0, 2.0], [math.nan, 0.0, 0.0], [1e200, 0.0, 0.0]):
            with pytest.raises(ValueError, match="unit length"):
                ViewPoint(np.zeros(3), np.array(direction), np.array([0.0, 1.0, 0.0]), 1.0)

    def test_rejects_non_finite_fields(self):
        d = np.array([0.0, 0.0, -1.0])
        u = np.array([0.0, 1.0, 0.0])
        for bad in ({"position": [math.inf, 0.0, 2.0]}, {"position": [0.0, math.nan, 2.0]},
                    {"aspect": math.nan}, {"aspect": math.inf}, {"far": math.inf}):
            with pytest.raises(ValueError):
                ViewPoint(**{"position": np.zeros(3), "direction": d, "up": u, "fov_y": 1.0,
                             **bad})

    def test_rejects_parallel_up(self):
        with pytest.raises(ValueError):
            ViewPoint(np.zeros(3), np.array([0.0, 0.0, 1.0]),
                      np.array([0.0, 0.0, 1.0]), 1.0)

    def test_rejects_bad_planes_and_fov(self):
        d = np.array([0.0, 0.0, 1.0])
        u = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            ViewPoint(np.zeros(3), d, u, 1.0, near=2.0, far=1.0)
        with pytest.raises(ValueError):
            ViewPoint(np.zeros(3), d, u, 0.0)
        with pytest.raises(ValueError):
            ViewPoint(np.zeros(3), d, u, math.pi)
        with pytest.raises(ValueError):
            ViewPoint(np.zeros(3), d, u, 1.0, aspect=0.0)

    def test_aimed_points_at_target(self):
        v = ViewPoint.aimed([5.0, 0.0, 0.0])
        assert v.direction == pytest.approx([-1.0, 0.0, 0.0])
        r, u, f = v.basis()
        # look-at frame: right x up points back at the camera
        assert np.cross(r, u) == pytest.approx(-f)
        assert r == pytest.approx([0.0, 1.0, 0.0])
        for a in (r, u, f):
            assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_aimed_rejects_zero_offset(self):
        with pytest.raises(ValueError):
            ViewPoint.aimed([0.0, 0.0, 0.0], target=(0.0, 0.0, 0.0))

    def test_aimed_recovers_from_parallel_hint(self):
        v = ViewPoint.aimed([0.0, 0.0, 4.0], up_hint=(0.0, 0.0, 1.0))
        r, u, f = v.basis()
        assert np.cross(r, u) == pytest.approx(-f)


class TestViewCoverage:
    def test_sees_front_of_plane(self):
        grid = planar_grid(4, 4)
        # grid normals point +z; a camera above looks at the front side
        view = ViewPoint.aimed([2.0, 2.0, 6.0], target=(2.0, 2.0, 0.0))
        cov = view_coverage(grid, build_bvh(grid), view)
        assert cov.mask.all()

    def test_back_side_sees_nothing(self):
        grid = planar_grid(4, 4)
        view = ViewPoint.aimed([2.0, 2.0, -6.0], target=(2.0, 2.0, 0.0))
        cov = view_coverage(grid, build_bvh(grid), view)
        assert cov.count == 0 and not cov.mask.any()

    def test_narrow_fov_clips(self):
        grid = planar_grid(8, 8)
        view = ViewPoint.aimed([4.0, 4.0, 8.0], target=(4.0, 4.0, 0.0),
                               fov_y=math.radians(10.0))
        cov = view_coverage(grid, build_bvh(grid), view)
        assert 0 < cov.count < grid.n_triangles
        # everything covered lies near the optical axis
        for t in cov.triangle_indices():
            c = grid.triangle_centroid[t]
            assert abs(c[0] - 4.0) < 1.0 and abs(c[1] - 4.0) < 1.0

    def test_far_plane_gates_coverage(self):
        grid = planar_grid(4, 4)
        bvh = build_bvh(grid)
        near_view = ViewPoint.aimed([2.0, 2.0, 6.0], target=(2.0, 2.0, 0.0), far=5.0)
        assert view_coverage(grid, bvh, near_view).count == 0
        wide = ViewPoint.aimed([2.0, 2.0, 6.0], target=(2.0, 2.0, 0.0), far=50.0)
        assert view_coverage(grid, bvh, wide).mask.all()

    def test_near_plane_excludes_close_surface(self):
        grid = planar_grid(4, 4)
        view = ViewPoint.aimed([2.0, 2.0, 0.5], target=(2.0, 2.0, 0.0), near=1.0)
        assert view_coverage(grid, build_bvh(grid), view).count == 0

    def test_occluder_blocks_lower_sheet(self, occluder):
        # two identical sheets stacked in z; from above only the top is visible
        view = ViewPoint.aimed([1.5, 1.5, 7.0], target=(1.5, 1.5, 1.0))
        cov = view_coverage(occluder, build_bvh(occluder), view)
        top = set(range(occluder.n_triangles // 2, occluder.n_triangles))
        assert set(cov.triangle_indices()) == top

    def test_sphere_hemisphere_only(self, ico3):
        view = ViewPoint.aimed([4.0, 0.0, 0.0])
        cov = view_coverage(ico3, build_bvh(ico3), view)
        assert 0 < cov.count < ico3.n_triangles
        for t in cov.triangle_indices():
            assert ico3.triangle_centroid[t][0] > -0.05

    def test_matches_scalar_oracle(self, ico1):
        bvh = build_bvh(ico1)
        views = [
            ViewPoint.aimed([3.0, 0.0, 0.0]),
            ViewPoint.aimed([-2.0, 2.0, 1.0], fov_y=math.radians(40.0)),
            ViewPoint.aimed([0.0, 0.0, 2.2], fov_y=math.radians(100.0), far=2.6),
            ViewPoint.aimed([1.5, -1.5, -1.5], aspect=2.0),
        ]
        for view in views:
            got = set(view_coverage(ico1, bvh, view).triangle_indices())
            assert got == covered_oracle(ico1, view)

    def test_triangle_order_irrelevant(self, ico1):
        rng = np.random.default_rng(7)
        perm = rng.permutation(ico1.n_triangles)
        shuffled = TriangleMesh(ico1.vertices.copy(), ico1.triangles[perm])
        view = ViewPoint.aimed([3.0, 1.0, 0.5])
        base = set(view_coverage(ico1, build_bvh(ico1), view).triangle_indices())
        moved = set(view_coverage(shuffled, build_bvh(shuffled), view).triangle_indices())
        # map shuffled indices back to original labels
        assert {int(perm[t]) for t in moved} == base


class TestCoverageTable:
    def test_achievable_is_union(self, ico1):
        views = [ViewPoint.aimed(p) for p in ([3.0, 0, 0], [-3.0, 0, 0], [0, 3.0, 0])]
        table = precompute_coverage(ico1, views)
        covered = np.zeros(ico1.n_triangles, dtype=bool)
        for sm in table.coverage:
            covered |= sm.mask
        assert np.array_equal(table.achievable.mask, covered)
        assert table.n_views == 3

    def test_parallel_equals_sequential(self, ico1):
        views = [ViewPoint.aimed(p) for p in
                 ([3.0, 0, 0], [-3.0, 0, 0], [0, 3.0, 0], [0, -3.0, 0], [0, 0, 3.0])]
        seq = precompute_coverage(ico1, views, workers=None)
        par = precompute_coverage(ico1, views, workers=3)
        assert list(seq.coverage) == list(par.coverage)
        assert seq.digest == par.digest

    def test_digest_tracks_content(self, ico1, unit_square):
        views = [ViewPoint.aimed([3.0, 0.0, 0.0])]
        a = precompute_coverage(ico1, views)
        b = precompute_coverage(ico1, views)
        assert a.digest == b.digest
        c = precompute_coverage(ico1, [ViewPoint.aimed([0.0, 3.0, 0.0])])
        assert c.digest != a.digest

    def test_build_validation(self, ico1, unit_square):
        cov = [Submesh.from_triangles(ico1, [0, 1])]
        with pytest.raises(ValueError):
            CoverageTable.build(ico1, [ViewPoint.aimed([3.0, 0, 0])] * 2, cov)
        with pytest.raises(ValueError):
            CoverageTable.build(ico1, None, [])
        with pytest.raises(ValueError):
            CoverageTable.build(unit_square, None, cov)

    def test_synthetic_table_without_views(self, unit_square):
        cov = [Submesh.from_triangles(unit_square, [0]),
               Submesh.from_triangles(unit_square, [1])]
        table = CoverageTable.build(unit_square, None, cov)
        assert table.views is None
        assert table.achievable.mask.all()

    def test_empty_view_list_rejected(self, ico1):
        with pytest.raises(ValueError):
            precompute_coverage(ico1, [])
