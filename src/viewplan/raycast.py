"""Ray casting against triangle meshes through a bounding-volume hierarchy.

`Bvh.occluded` traces all occlusion rays of one view as (ray, node) index
arrays, breadth-first like wavefront ray tracing (Laine, Karras & Aila 2013),
with batched Moller-Trumbore leaf tests; the scalar `ray_triangle` is the
reference that tests compare it against.
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


class Bvh:
    """Median-split AABB tree over mesh triangles.

    Nodes live in flat arrays; `order` is the leaf-sorted triangle permutation.
    """

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        tris = mesh.triangles
        self._v0 = mesh.vertices[tris[:, 0]]
        v1 = mesh.vertices[tris[:, 1]]
        v2 = mesh.vertices[tris[:, 2]]
        self._e1 = v1 - self._v0
        self._e2 = v2 - self._v0
        lo = np.minimum(np.minimum(self._v0, v1), v2)
        hi = np.maximum(np.maximum(self._v0, v1), v2)
        centers = (lo + hi) * 0.5

        self.order = np.arange(mesh.n_triangles)
        boxes: list[np.ndarray] = []  # per node: lo and hi stacked
        links: list[list[int]] = []   # per node: left, right (-1 for leaves), start, count

        def build(start: int, count: int) -> int:
            idx = self.order[start : start + count]
            me = len(links)
            boxes.append(np.stack([lo[idx].min(axis=0), hi[idx].max(axis=0)]))
            links.append([-1, -1, start, count])
            if count > _LEAF_SIZE:
                spread = centers[idx].max(axis=0) - centers[idx].min(axis=0)
                axis = int(np.argmax(spread))
                # stable sort keeps the permutation deterministic under ties
                local = np.argsort(centers[idx, axis], kind="stable")
                self.order[start : start + count] = idx[local]
                half = count // 2
                links[me][0] = build(start, half)
                links[me][1] = build(start + half, count - half)
            return me

        build(0, mesh.n_triangles)
        self.node_lo, self.node_hi = np.stack(boxes, axis=1)
        # leaf slice of node i: order[node_start[i] : node_start[i] + node_count[i]]
        self.node_left, self.node_right, self.node_start, self.node_count = \
            np.array(links, dtype=np.int64).T

    def occluded(self, origins, dirs, t_min, t_max) -> np.ndarray:
        """Per ray, True iff some triangle intersects it strictly inside (t_min, t_max).

        `origins` and `dirs` are (n, 3) arrays; `t_min` and `t_max` are scalars
        or length-n arrays. A ray meets a triangle exactly when `ray_triangle`
        returns a distance for that pair.
        """
        origins = np.asarray(origins, dtype=np.float64)
        dirs = np.asarray(dirs, dtype=np.float64)
        n = len(origins)
        t_min = np.broadcast_to(np.asarray(t_min, dtype=np.float64), (n,))
        t_max = np.broadcast_to(np.asarray(t_max, dtype=np.float64), (n,))
        hit = np.zeros(n, dtype=bool)
        for s in range(0, n, _CHUNK_RAYS):
            part = slice(s, s + _CHUNK_RAYS)
            hit[part] = self._occluded_chunk(origins[part], dirs[part], t_min[part], t_max[part])
        return hit

    def _occluded_chunk(self, origins, dirs, t_min, t_max) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            inv_dir = 1.0 / dirs
        # A ray parallel to a slab would give 0 * inf there; such an axis is
        # tested by containment of the origin instead, as are axes whose
        # direction component is so small that its inverse overflows.
        parallel = np.isinf(inv_dir)
        hit = np.zeros(len(origins), dtype=bool)
        ray = np.arange(len(origins))
        node = np.zeros(len(origins), dtype=np.int64)
        while ray.size:
            live = ~hit[ray]
            ray, node = ray[live], node[live]
            o, lo, hi, par = origins[ray], self.node_lo[node], self.node_hi[node], parallel[ray]
            with np.errstate(invalid="ignore", over="ignore"):
                t0 = (lo - o) * inv_dir[ray]
                t1 = (hi - o) * inv_dir[ray]
            enter = np.maximum(np.where(par, -np.inf, np.minimum(t0, t1)).max(axis=1), 0.0)
            exit_ = np.minimum(np.where(par, np.inf, np.maximum(t0, t1)).min(axis=1), t_max[ray])
            outside = (par & ((o < lo) | (o > hi))).any(axis=1)
            keep = ~outside & (enter <= exit_)
            ray, node = ray[keep], node[keep]

            leaf = self.node_left[node] < 0
            hit[self._leaf_hits(ray[leaf], node[leaf], origins, dirs, t_min, t_max)] = True
            inner = node[~leaf]
            ray = np.concatenate([ray[~leaf], ray[~leaf]])
            node = np.concatenate([self.node_left[inner], self.node_right[inner]])
        return hit

    def _leaf_hits(self, ray, node, origins, dirs, t_min, t_max) -> np.ndarray:
        """Batched `ray_triangle` over every triangle of each (ray, leaf) pair;
        the rays that meet one inside their interval, once per such triangle."""
        counts = self.node_count[node]
        ray = np.repeat(ray, counts)
        first = np.repeat(self.node_start[node] - (np.cumsum(counts) - counts), counts)
        tri = self.order[first + np.arange(len(ray))]
        d, e1, e2 = dirs[ray], self._e1[tri], self._e2[tri]
        pvec = np.cross(d, e2)
        det = _dot(e1, pvec)
        ok = np.abs(det) >= _PARALLEL_EPS
        ray, tri, d, e1, e2, pvec, det = ray[ok], tri[ok], d[ok], e1[ok], e2[ok], pvec[ok], det[ok]
        inv = 1.0 / det
        tvec = origins[ray] - self._v0[tri]
        u = _dot(tvec, pvec) * inv
        qvec = np.cross(tvec, e1)
        v = _dot(d, qvec) * inv
        t = _dot(e2, qvec) * inv
        ok = ((u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0) & (t >= 0.0)
              & (t_min[ray] < t) & (t < t_max[ray]))
        return ray[ok]


def build_bvh(mesh: TriangleMesh) -> Bvh:
    return Bvh(mesh)
