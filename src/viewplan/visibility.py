"""Camera views and per-view coverage of mesh triangles.

A triangle counts as covered by a view when its centroid lies inside the view
frustum, its front side faces the camera, and the open segment from centroid to
camera position is not blocked by the mesh itself. The occlusion rays of a view
go to the BVH as one batched query (`Bvh.occluded`).
"""
from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .mesh import Submesh, TriangleMesh, union_coverage
from .raycast import Bvh, build_bvh

_SELF_HIT_FRACTION = 1e-6  # of the bounding-box diagonal
_UNIT_TOL = 1e-6


def _as_unit(name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    if not abs(n - 1.0) <= _UNIT_TOL:  # also false for a NaN or overflowing norm
        raise ValueError(f"{name} must be unit length, |{name}| = {n:.6g}")
    out = v / n
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class ViewPoint:
    """Pinhole camera: position, unit direction/up, vertical field of view (radians)."""

    position: np.ndarray
    direction: np.ndarray
    up: np.ndarray
    fov_y: float
    aspect: float = 1.0
    near: float = 0.01
    far: float = 100.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        if self.position.shape != (3,) or not np.isfinite(self.position).all():
            raise ValueError(f"position must be a finite 3-vector, got {self.position}")
        self.position.setflags(write=False)
        self.direction = _as_unit("direction", self.direction)
        self.up = _as_unit("up", self.up)
        if np.linalg.norm(np.cross(self.direction, self.up)) < 1e-9:
            raise ValueError("direction and up are parallel")
        if not (0.0 < self.fov_y < math.pi):
            raise ValueError(f"fov_y must be in (0, pi), got {self.fov_y}")
        if not (0.0 < self.aspect < math.inf):  # also false for NaN
            raise ValueError(f"aspect must be positive and finite, got {self.aspect}")
        if not (0.0 < self.near < self.far < math.inf):
            raise ValueError(f"need 0 < near < far < inf, got near={self.near} far={self.far}")

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal (right, up, forward) frame of the camera."""
        forward = self.direction
        right = np.cross(forward, self.up)
        right = right / np.linalg.norm(right)
        true_up = np.cross(right, forward)
        return right, true_up, forward

    @classmethod
    def aimed(cls, position, target=(0.0, 0.0, 0.0), up_hint=(0.0, 0.0, 1.0), *,
              fov_y=math.radians(60.0), aspect=1.0, near=0.01, far=100.0) -> ViewPoint:
        """Camera at `position` looking at `target`; up is derived from the hint."""
        position = np.asarray(position, dtype=np.float64)
        offset = np.asarray(target, dtype=np.float64) - position
        dist = np.linalg.norm(offset)
        if dist < 1e-12:
            raise ValueError("camera position coincides with the target")
        direction = offset / dist
        hint = np.asarray(up_hint, dtype=np.float64)
        if np.linalg.norm(np.cross(direction, hint)) < 1e-9:
            hint = np.array([1.0, 0.0, 0.0])
        right = np.cross(direction, hint)
        right /= np.linalg.norm(right)
        up = np.cross(right, direction)
        return cls(position, direction, up, fov_y, aspect, near, far)


def view_coverage(mesh: TriangleMesh, bvh: Bvh, view: ViewPoint) -> Submesh:
    """Covered triangles of one view, as a submesh.

    Frustum and facing tests run vectorized over all centroids; the survivors'
    occlusion rays go to the BVH in one batched query.
    """
    if bvh.mesh is not mesh:
        raise ValueError("BVH was built for a different mesh")
    right, up, forward = view.basis()
    pos = view.position
    rel = mesh.triangle_centroid - pos
    z = rel @ forward
    tan_y = math.tan(view.fov_y / 2.0)
    tan_x = tan_y * view.aspect
    in_frustum = (
        (z >= view.near)
        & (z <= view.far)
        & (np.abs(rel @ right) <= z * tan_x)
        & (np.abs(rel @ up) <= z * tan_y)
    )
    facing = (mesh.triangle_normal * (-rel)).sum(axis=1) > 0.0
    candidates = np.nonzero(in_frustum & facing)[0]

    eps = _SELF_HIT_FRACTION * mesh.bbox_diagonal
    origins = mesh.triangle_centroid[candidates]
    to_cam = pos - origins
    # sqrt of a per-row dot product, bit-identical to np.linalg.norm of each row
    dist = np.sqrt((to_cam[:, None, :] @ to_cam[:, :, None]).ravel())
    ray = dist >= eps  # a centroid closer to the camera than eps is covered
    blocked = np.zeros(len(candidates), dtype=bool)
    blocked[ray] = bvh.occluded(origins[ray], to_cam[ray] / dist[ray, None], eps, dist[ray])
    return Submesh.from_triangles(mesh, candidates[~blocked].tolist())


@dataclass(eq=False)
class CoverageTable:
    """Frozen per-view coverage for one mesh: the planner's entire world.

    `views` is None for synthetic instances that were never rendered from
    cameras. `achievable` is the union of all per-view coverage; nothing
    outside it can ever be covered.
    """

    mesh: TriangleMesh
    views: tuple[ViewPoint, ...] | None
    coverage: tuple[Submesh, ...]
    achievable: Submesh
    mesh_digest: str
    digest: str

    @classmethod
    def build(cls, mesh: TriangleMesh, views, coverage) -> CoverageTable:
        coverage = tuple(coverage)
        if views is not None:
            views = tuple(views)
            if len(views) != len(coverage):
                raise ValueError(f"{len(views)} views but {len(coverage)} coverage entries")
        if len(coverage) == 0:
            raise ValueError("coverage table needs at least one view")
        for sm in coverage:
            if sm.mesh is not mesh:
                raise ValueError("coverage submesh belongs to a different mesh")
        achievable = Submesh.empty(mesh)
        for sm in coverage:
            achievable = union_coverage(achievable, sm)
        h = hashlib.sha256()
        h.update(b"viewplan-table-v1")
        h.update(bytes.fromhex(mesh.digest))
        for sm in coverage:
            idx = np.fromiter(sm.triangle_indices(), dtype="<u4", count=sm.count)
            h.update(np.uint32(len(idx)).tobytes())
            h.update(idx.tobytes())
        return cls(mesh, views, coverage, achievable, mesh.digest, h.hexdigest())

    @property
    def n_views(self) -> int:
        return len(self.coverage)


def precompute_coverage(mesh: TriangleMesh, views, workers: int | None = None) -> CoverageTable:
    """Coverage table for a list of views. `workers` > 1 splits views over threads;
    results are identical to the sequential run either way. The threads gain
    little; the knob stays because `perfbench/run.py` times it."""
    views = tuple(views)
    if len(views) == 0:
        raise ValueError("need at least one view")
    bvh = build_bvh(mesh)
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            coverage = list(pool.map(lambda v: view_coverage(mesh, bvh, v), views))
    else:
        coverage = [view_coverage(mesh, bvh, v) for v in views]
    return CoverageTable.build(mesh, views, coverage)
