"""Ray casting against triangle meshes through a bounding-volume hierarchy.

`Bvh.occluded` traces all occlusion rays of one view as (ray, node) index
arrays, breadth-first like wavefront ray tracing (Laine, Karras & Aila 2013).
Slab tests run column by column over node boxes stored as (6, n_nodes) rows.
Each leaf round tests every (ray, triangle) pair with the Moller-Trumbore
arithmetic and masks the result once; the scalar `ray_triangle` is the
reference that tests compare it against. The tree is built level by level,
with the nodes and triangle order of a recursive median-split build.
"""
from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

_LEAF_SIZE = 8
_PARALLEL_EPS = 1e-12
# Rays traced together. The (ray, node) and (ray, triangle) arrays grow with
# it, so it bounds the memory a query takes.
_CHUNK_RAYS = 128


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each bit-identical to the scalar `a[i] @ b[i]`
    (an einsum or `(a * b).sum(1)` can round differently)."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products with the multiply-then-subtract of `np.cross`,
    without its axis handling."""
    out = np.empty_like(a)
    np.subtract(a[:, 1] * b[:, 2], a[:, 2] * b[:, 1], out=out[:, 0])
    np.subtract(a[:, 2] * b[:, 0], a[:, 0] * b[:, 2], out=out[:, 1])
    np.subtract(a[:, 0] * b[:, 1], a[:, 1] * b[:, 0], out=out[:, 2])
    return out


def ray_triangle(origin, direction, v0, v1, v2) -> float | None:
    """Distance t >= 0 along the ray to the triangle, or None. Hits both sides."""
    e1 = v1 - v0
    e2 = v2 - v0
    pvec = np.cross(direction, e2)
    det = float(e1 @ pvec)
    if abs(det) < _PARALLEL_EPS:
        return None
    inv = 1.0 / det
    tvec = origin - v0
    u = float(tvec @ pvec) * inv
    if u < 0.0 or u > 1.0:
        return None
    qvec = np.cross(tvec, e1)
    v = float(direction @ qvec) * inv
    if v < 0.0 or u + v > 1.0:
        return None
    t = float(e2 @ qvec) * inv
    if t < 0.0:
        return None
    return t


def _build(lo: np.ndarray, hi: np.ndarray, centers: np.ndarray):
    """Median-split tree over triangle boxes, built one level at a time.

    A node over more than `_LEAF_SIZE` triangles sorts them stably along the
    axis of largest centre spread and gives the first `count // 2` to its left
    child. Node ids are preorder: the left child follows its parent and the
    right child follows the whole left subtree. Returns `order` and the six
    node arrays.
    """
    sizes: dict[int, int] = {}

    def size(count: int) -> int:  # nodes in the subtree over `count` triangles
        if count <= _LEAF_SIZE:
            return 1
        if count not in sizes:
            half = count // 2
            sizes[count] = 1 + size(half) + size(count - half)
        return sizes[count]

    n = len(lo)
    n_nodes = size(n)
    order = np.arange(n)
    node_lo = np.empty((n_nodes, 3))
    node_hi = np.empty((n_nodes, 3))
    node_left = np.full(n_nodes, -1, dtype=np.int64)
    node_right = np.full(n_nodes, -1, dtype=np.int64)
    node_start = np.empty(n_nodes, dtype=np.int64)
    node_count = np.empty(n_nodes, dtype=np.int64)
    # the nodes of one level, ascending by start
    ids = np.zeros(1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    count = np.full(1, n, dtype=np.int64)
    while True:
        node_start[ids] = start
        node_count[ids] = count
        # this level's slots of `order`, node after node
        first = np.cumsum(count) - count
        seg = np.repeat(np.arange(len(ids)), count)
        slot = start[seg] + (np.arange(len(seg)) - first[seg])
        tri = order[slot]
        node_lo[ids] = np.minimum.reduceat(np.take(lo, tri, axis=0), first)
        node_hi[ids] = np.maximum.reduceat(np.take(hi, tri, axis=0), first)
        split = count > _LEAF_SIZE
        if not split.any():
            return order, node_lo, node_hi, node_left, node_right, node_start, node_count
        c = np.take(centers, tri, axis=0)
        spread = np.maximum.reduceat(c, first) - np.minimum.reduceat(c, first)
        axis = np.argmax(spread, axis=1)
        # a constant key leaves a leaf's slots in place; the stable sort keeps
        # the permutation deterministic under ties
        key = np.where(split[seg], c[np.arange(len(seg)), axis[seg]], 0.0)
        order[slot] = tri[np.lexsort((key, seg))]

        ids, start, count = ids[split], start[split], count[split]
        half = count // 2
        right = ids + 1 + np.array([size(h) for h in half.tolist()], dtype=np.int64)
        node_left[ids] = ids + 1
        node_right[ids] = right
        ids = np.stack([ids + 1, right], axis=1).ravel()
        start = np.stack([start, start + half], axis=1).ravel()
        count = np.stack([half, count - half], axis=1).ravel()


class Bvh:
    """Median-split AABB tree over mesh triangles.

    Nodes live in flat arrays; `order` is the leaf-sorted triangle permutation.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        tris = mesh.triangles
        v0 = mesh.vertices[tris[:, 0]]
        v1 = mesh.vertices[tris[:, 1]]
        v2 = mesh.vertices[tris[:, 2]]
        lo = np.minimum(np.minimum(v0, v1), v2)
        hi = np.maximum(np.maximum(v0, v1), v2)
        # leaf slice of node i: order[node_start[i] : node_start[i] + node_count[i]]
        (self.order, self.node_lo, self.node_hi, self.node_left, self.node_right,
         self.node_start, self.node_count) = _build(lo, hi, (lo + hi) * 0.5)
        # per triangle in leaf order: v0 | e1 | e2, gathered once per leaf round
        self._tri = np.hstack([v0, v1 - v0, v2 - v0])[self.order]
        # boxes by column: rows lo x, y, z, then hi x, y, z
        self._box = np.vstack([self.node_lo.T, self.node_hi.T])
        self._children = np.stack([self.node_left, self.node_right], axis=1)

    def occluded(self, origins, dirs, t_min, t_max) -> np.ndarray:
        """Per ray, True iff some triangle intersects it strictly inside (t_min, t_max).

        `origins` and `dirs` are (n, 3) arrays; `t_min` and `t_max` are scalars
        or length-n arrays. A ray meets a triangle exactly when `ray_triangle`
        returns a distance for that pair.
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        if origins.ndim != 2 or origins.shape[1] != 3 or dirs.shape != origins.shape:
            raise ValueError(f"origins and dirs must both be (n, 3), "
                             f"got {origins.shape} and {dirs.shape}")
        n = len(origins)
        # per ray: origin | direction | t_min | t_max
        rays = np.empty((n, 8))
        rays[:, :3] = origins
        rays[:, 3:6] = dirs
        for col, name, t in ((6, "t_min", t_min), (7, "t_max", t_max)):
            t = np.asarray(t, dtype=np.float64)
            if t.shape not in ((), (n,)):
                raise ValueError(f"{name} must be a scalar or of length {n}, got shape {t.shape}")
            rays[:, col] = t
        hit = np.zeros(n, dtype=bool)
        # Inverse directions, slab distances and the leaf arithmetic of parallel
        # pairs may be infinite or NaN; the slab and triangle tests mask those
        # lanes out.
        with np.errstate(all="ignore"):
            for s in range(0, n, _CHUNK_RAYS):
                part = slice(s, s + _CHUNK_RAYS)
                hit[part] = self._occluded_chunk(rays[part])
        return hit

    def _occluded_chunk(self, rays: np.ndarray) -> np.ndarray:
        origin = rays[:, :3].T.copy()
        inv_dir = 1.0 / rays[:, 3:6].T
        t_max = rays[:, 7]
        # A ray parallel to a slab would give 0 * inf there; such an axis is
        # tested by containment of the origin instead, as are axes whose
        # direction component is so small that its inverse overflows.
        parallel = np.isinf(inv_dir)
        par_axes = [a for a in range(3) if parallel[a].any()]
        hit = np.zeros(len(rays), dtype=bool)
        ray = np.arange(len(rays))
        node = np.zeros(len(rays), dtype=np.int64)
        while ray.size:
            # np.take keeps each row contiguous, where fancy indexing would not
            box = np.take(self._box, node, axis=1)
            o = np.take(origin, ray, axis=1)
            t = box.reshape(2, 3, -1) - o
            t *= np.take(inv_dir, ray, axis=1)
            near = np.minimum(t[0], t[1])
            far = np.maximum(t[0], t[1])
            inside = True  # each origin lies within the slabs its ray runs parallel to
            for a in par_axes:
                par = parallel[a, ray]
                near[a, par] = -np.inf
                far[a, par] = np.inf
                inside = inside & ~(par & ((o[a] < box[a]) | (o[a] > box[3 + a])))
            enter = np.maximum(near[0], near[1])
            np.maximum(enter, near[2], out=enter)
            np.maximum(enter, 0.0, out=enter)
            exit_ = np.minimum(far[0], far[1])
            np.minimum(exit_, far[2], out=exit_)
            np.minimum(exit_, t_max[ray], out=exit_)
            keep = (enter <= exit_) & inside
            ray, node = ray[keep], node[keep]

            leaf = self.node_left[node] < 0
            if leaf.any():
                hit[self._leaf_hits(ray[leaf], node[leaf], rays)] = True
                inner = ~leaf
                ray, node = ray[inner], node[inner]
                live = ~hit[ray]
                ray, node = ray[live], node[live]
            node = np.take(self._children, node, axis=0).ravel()
            ray = np.repeat(ray, 2)
        return hit

    def _leaf_hits(self, ray, node, rays) -> np.ndarray:
        """Batched `ray_triangle` over every triangle of each (ray, leaf) pair;
        the rays that meet one inside their interval, once per such triangle.

        Every pair goes through the whole arithmetic, parallel ones too (their
        infinities and NaNs fall under `occluded`'s `np.errstate`), and one
        mask at the end keeps the pairs that pass each condition of
        `ray_triangle`.
        """
        counts = self.node_count[node]
        ray = np.repeat(ray, counts)
        first = np.repeat(self.node_start[node] - (np.cumsum(counts) - counts), counts)
        tri = np.take(self._tri, first + np.arange(len(ray)), axis=0)
        r = np.take(rays, ray, axis=0)
        d, e1, e2 = r[:, 3:6], tri[:, 3:6], tri[:, 6:]
        pvec = _cross(d, e2)
        det = _dot(e1, pvec)
        inv = 1.0 / det
        tvec = r[:, :3] - tri[:, :3]
        u = _dot(tvec, pvec) * inv
        qvec = _cross(tvec, e1)
        v = _dot(d, qvec) * inv
        t = _dot(e2, qvec) * inv
        ok = ((np.abs(det) >= _PARALLEL_EPS) & (u >= 0.0) & (u <= 1.0) & (v >= 0.0)
              & (u + v <= 1.0) & (t >= 0.0) & (r[:, 6] < t) & (t < r[:, 7]))
        return ray[ok]


def build_bvh(mesh: TriangleMesh) -> Bvh:
    return Bvh(mesh)
