import numpy as np
import pytest

from viewplan import build_bvh, planar_grid, ray_triangle, raycast


def scan_occluded(mesh, origin, direction, t_min, t_max):
    """Linear-scan oracle: scalar `ray_triangle` on every triangle, no tree."""
    v = mesh.vertices
    for a, b, c in mesh.triangles:
        t = ray_triangle(origin, direction, v[a], v[b], v[c])
        if t is not None and t_min < t < t_max:
            return True
    return False


def scan_nearest_t(mesh, origin, direction):
    """Smallest `ray_triangle` distance over all triangles, or None."""
    v = mesh.vertices
    ts = [ray_triangle(origin, direction, v[a], v[b], v[c]) for a, b, c in mesh.triangles]
    ts = [t for t in ts if t is not None]
    return min(ts) if ts else None


def occluded(bvh, origin, direction, t_min=0.0, t_max=np.inf) -> bool:
    """`Bvh.occluded` for a single ray."""
    return bool(bvh.occluded(np.array([origin]), np.array([direction]), t_min, t_max)[0])


def probe_rays(mesh, bvh, rng, n):
    """Rays in three kinds: random origins around and inside the mesh aimed at
    random points, axis-parallel rays from vertex-aligned origins, and rays that
    start on a face of a BVH node box. Returns origins, unit directions and
    per-ray (t_min, t_max)."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    center, size = (lo + hi) / 2.0, float(np.linalg.norm(hi - lo))
    axes = np.vstack([np.eye(3), -np.eye(3)])
    origins, dirs = [], []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            if rng.random() < 0.5:
                o = rng.normal(size=3)
                o = center + size * o / np.linalg.norm(o)
            else:
                o = mesh.triangle_centroid[rng.integers(mesh.n_triangles)]
            d = rng.uniform(lo, hi) - o
        elif kind == 1:
            o = mesh.vertices[rng.integers(len(mesh.vertices), size=3), [0, 1, 2]]
            o = np.where(rng.random(3) < 0.3, rng.uniform(lo - 0.2, hi + 0.2), o)
            d = axes[rng.integers(6)]
        else:
            node = rng.integers(len(bvh.node_lo))
            o = rng.uniform(bvh.node_lo[node], bvh.node_hi[node])
            k = rng.integers(3)
            o[k] = (bvh.node_lo if rng.random() < 0.5 else bvh.node_hi)[node, k]
            d = axes[rng.integers(6)] if rng.random() < 0.5 else rng.normal(size=3)
        origins.append(o)
        dirs.append(d / np.linalg.norm(d))
    # a negative t_min admits hits at t = 0, which `ray_triangle` reports
    t_min = rng.choice([0.0, -1.0, 1e-6 * size], n)
    t_max = np.where(rng.random(n) < 0.3, np.inf, rng.uniform(0.2, 2.0, n) * size)
    return np.array(origins), np.array(dirs), t_min, t_max


def plane_barycentric_hit(origin, direction, v0, v1, v2):
    """Second independent intersection: plane hit plus half-plane sign tests."""
    n = np.cross(v1 - v0, v2 - v0)
    denom = float(n @ direction)
    if abs(denom) < 1e-12:
        return None
    t = float(n @ (v0 - origin)) / denom
    if t < 0.0:
        return None
    p = origin + t * direction
    for a, b in ((v0, v1), (v1, v2), (v2, v0)):
        if float(np.cross(b - a, p - a) @ n) < 0.0:
            return None
    return t


class TestRayTriangle:
    V0 = np.array([0.0, 0.0, 0.0])
    V1 = np.array([1.0, 0.0, 0.0])
    V2 = np.array([0.0, 1.0, 0.0])

    def test_direct_hit_distance(self):
        t = ray_triangle(np.array([0.2, 0.2, 5.0]), np.array([0.0, 0.0, -1.0]),
                         self.V0, self.V1, self.V2)
        assert t == pytest.approx(5.0)

    def test_hits_from_either_side(self):
        t = ray_triangle(np.array([0.2, 0.2, -3.0]), np.array([0.0, 0.0, 1.0]),
                         self.V0, self.V1, self.V2)
        assert t == pytest.approx(3.0)

    def test_miss_outside(self):
        assert ray_triangle(np.array([2.0, 2.0, 5.0]), np.array([0.0, 0.0, -1.0]),
                            self.V0, self.V1, self.V2) is None

    def test_parallel_ray_misses(self):
        assert ray_triangle(np.array([0.2, 0.2, 1.0]), np.array([1.0, 0.0, 0.0]),
                            self.V0, self.V1, self.V2) is None

    def test_behind_origin_misses(self):
        assert ray_triangle(np.array([0.2, 0.2, -1.0]), np.array([0.0, 0.0, -1.0]),
                            self.V0, self.V1, self.V2) is None


class TestBvh:
    def test_matches_linear_scan(self, ico1, ico3, occluder):
        # ray for ray, over every kind of probe ray and every mesh shape
        rng = np.random.default_rng(41)
        verdicts = {kind: set() for kind in range(3)}
        for mesh, n in ((ico1, 600), (ico3, 96), (planar_grid(4, 4), 600), (occluder, 600)):
            bvh = build_bvh(mesh)
            origins, dirs, t_min, t_max = probe_rays(mesh, bvh, rng, n)
            got = bvh.occluded(origins, dirs, t_min, t_max)
            expect = [scan_occluded(mesh, o, d, lo, hi)
                      for o, d, lo, hi in zip(origins, dirs, t_min, t_max)]
            assert got.tolist() == expect
            for kind in range(3):
                verdicts[kind] |= set(got[kind::3].tolist())
        assert all(v == {False, True} for v in verdicts.values())

    def test_matches_independent_intersection(self, ico1):
        bvh = build_bvh(ico1)
        v = ico1.vertices
        rng = np.random.default_rng(43)
        for _ in range(200):
            origin = rng.normal(size=3)
            origin = 2.5 * origin / np.linalg.norm(origin)
            direction = rng.uniform(-0.8, 0.8, size=3) - origin
            direction = direction / np.linalg.norm(direction)
            best = None
            for a, b, c in ico1.triangles:
                t = plane_barycentric_hit(origin, direction, v[a], v[b], v[c])
                if t is not None and (best is None or t < best):
                    best = t
            assert occluded(bvh, origin, direction) == (best is not None)
            if best is not None:
                # the nearest hit sits where the independent intersection puts it
                assert not occluded(bvh, origin, direction, 0.0, best - 1e-9)
                assert occluded(bvh, origin, direction, 0.0, best + 1e-9)

    def test_t_max_cuts_off_hits(self, ico1):
        bvh = build_bvh(ico1)
        origin = np.array([3.0, 0.0, 0.0])
        direction = np.array([-1.0, 0.0, 0.0])
        assert occluded(bvh, origin, direction)
        assert not occluded(bvh, origin, direction, t_max=1.0)

    def test_coplanar_ray_on_flat_mesh(self):
        # Every bbox is flat in z; a ray travelling inside that plane must not
        # blow up the slab test (0 * inf) and cannot hit coplanar triangles.
        grid = planar_grid(4, 4)
        bvh = build_bvh(grid)
        origin = np.array([-1.0, 1.7, 0.0])
        direction = np.array([1.0, 0.0, 0.0])
        with np.errstate(all="raise"):
            assert not occluded(bvh, origin, direction)
        # Crossing the plane at so grazing an angle that |det| < 1e-12 is a
        # miss for `ray_triangle`, though the crossing point lies on the grid.
        origin = np.array([-0.5, 1.7, -1.5e-14])
        direction = np.array([1.0, 0.0, 1e-14])
        assert not scan_occluded(grid, origin, direction, 0.0, np.inf)
        assert not occluded(bvh, origin, direction)

    def test_axis_aligned_ray_down_edge_line(self):
        # Direction has two zero components and the origin sits exactly on the
        # x=0 face of the root box; the traversal must still reach the leaf.
        grid = planar_grid(2, 2)
        bvh = build_bvh(grid)
        origin = np.array([0.0, 0.5, 5.0])
        direction = np.array([0.0, 0.0, -1.0])
        assert scan_occluded(grid, origin, direction, 0.0, np.inf)
        assert occluded(bvh, origin, direction)

    def test_any_hit_interval_is_open(self, ico1):
        bvh = build_bvh(ico1)
        origin = np.array([3.0, 0.0, 0.0])
        direction = np.array([-1.0, 0.0, 0.0])
        t = scan_nearest_t(ico1, origin, direction)
        assert occluded(bvh, origin, direction, 0.0, t + 0.5)
        assert not occluded(bvh, origin, direction, 0.0, t)  # strict upper bound
        assert not occluded(bvh, origin, direction, t, t + 0.5)  # strict lower bound
        assert not occluded(bvh, origin, direction, t + 2.5, 10.0)  # past the sphere

    def test_rays_are_traced_in_chunks(self, ico1):
        # more rays than one chunk, hits and misses interleaved across chunk borders
        bvh = build_bvh(ico1)
        n = 3 * raycast._CHUNK_RAYS + 5
        ys = np.linspace(-1.5, 1.5, n)
        origins = np.stack([np.full(n, 3.0), ys, np.zeros(n)], axis=1)
        dirs = np.tile([-1.0, 0.0, 0.0], (n, 1))
        got = bvh.occluded(origins, dirs, 0.0, np.inf)
        assert got.tolist() == [scan_occluded(ico1, o, d, 0.0, np.inf)
                                for o, d in zip(origins, dirs)]
        assert 0 < got.sum() < n
        assert bvh.occluded(np.zeros((0, 3)), np.zeros((0, 3)), 0.0, 1.0).shape == (0,)

    def test_wrong_mesh_pairing_rejected(self, ico1, unit_square):
        from viewplan import view_coverage, ViewPoint
        bvh = build_bvh(ico1)
        view = ViewPoint.aimed([0.0, 0.0, 3.0])
        with pytest.raises(ValueError):
            view_coverage(unit_square, bvh, view)
