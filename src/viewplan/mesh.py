"""Indexed triangle meshes and coverage submeshes.

A mesh has one undirected edge table: `edges` (u < v), `tri_edges` (three edge
ids per triangle) and `edge_length`. A submesh is a triangle bitset with a
cached area and boundary. On these manifold meshes an edge is on the boundary
exactly when an odd number of its incident triangles are in the set, so the
boundary is an edge-id bitset that each added triangle XORs with its three
edges, and unions only touch the triangles they add. `brute_force_boundary`
counts incidences from scratch as the cross-check of this parity rule.
"""
from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator

import numpy as np


def iter_bits(bits: int) -> Iterator[int]:
    """Iterate over the indices of set bits, ascending.

    A bitset of a few machine words is peeled one bit at a time; a longer one
    is unpacked with numpy, whose fixed cost is then the smaller one.
    """
    if bits < 0:
        raise ValueError(f"a bitset is a nonnegative int, got {bits}")
    if bits.bit_length() <= 256:
        return _peel_bits(bits)
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return iter(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def _peel_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def triangle_bits(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


class TriangleMesh:
    """Immutable vertex/triangle arrays with precomputed per-triangle quantities.

    Vertex coordinates must be finite, and small enough that triangle areas,
    centroids and edge lengths do not overflow float64. Every undirected edge
    may have at most two incident triangles, and a shared edge must appear
    with opposite direction in its two triangles (consistent winding).
    Degenerate triangles are kept and contribute zero area.
    """

    def __init__(self, vertices, triangles, normalization_scale: float = 1.0):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {vertices.shape}")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(f"triangles must be (T, 3), got {triangles.shape}")
        if len(triangles) == 0:
            raise ValueError("mesh has no triangles")
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            raise ValueError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise ValueError("triangle references a vertex out of range")
        heads = triangles[:, [1, 2, 0]]  # edge i of a triangle runs from vertex i to heads[i]
        same = (triangles == heads).any(axis=1)
        if same.any():
            raise ValueError(f"triangle {int(np.argmax(same))} repeats a vertex")
        if not (normalization_scale > 0.0):
            raise ValueError(f"normalization_scale must be positive, got {normalization_scale}")

        self.vertices = vertices
        self.triangles = triangles
        self.normalization_scale = float(normalization_scale)

        v0 = vertices[triangles[:, 0]]
        v1 = vertices[triangles[:, 1]]
        v2 = vertices[triangles[:, 2]]
        # finite coordinates can still overflow here; checked once measured below
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.cross(v1 - v0, v2 - v0)
            self.triangle_area = 0.5 * np.linalg.norm(cross, axis=1)
            self.triangle_centroid = (v0 + v1 + v2) / 3.0
        self.triangle_normal = cross  # unnormalized; winding decides the facing side

        n_v = len(vertices)
        keys = np.minimum(triangles, heads) * n_v + np.maximum(triangles, heads)
        keys, tri_edges, counts = np.unique(keys.ravel(), return_inverse=True, return_counts=True)
        self.edges = np.stack([keys // n_v, keys % n_v], axis=1)
        crowded = counts > 2
        if crowded.any():
            e = int(np.argmax(crowded))
            raise ValueError(f"edge {tuple(self.edges[e].tolist())} has more than two incident triangles")
        forward = np.bincount(tri_edges[(triangles < heads).ravel()], minlength=len(keys))
        same_way = (counts == 2) & (forward != 1)
        if same_way.any():
            e = int(np.argmax(same_way))
            raise ValueError(f"edge {tuple(self.edges[e].tolist())} traversed twice in the same "
                             "direction; inconsistent winding")
        self.tri_edges = tri_edges.reshape(-1, 3)
        # sqrt of a per-row dot product, as np.linalg.norm computes one vector's
        # norm, so each length is bit-identical to the norm of that edge alone
        with np.errstate(over="ignore", invalid="ignore"):
            d = vertices[self.edges[:, 1]] - vertices[self.edges[:, 0]]
            self.edge_length = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
        measured = (np.isfinite(self.triangle_area)
                    & np.isfinite(self.triangle_centroid).all(axis=1)
                    & np.isfinite(self.edge_length[self.tri_edges]).all(axis=1))
        if not measured.all():
            raise ValueError(f"triangle {int(np.argmin(measured))} overflows float64; "
                             "vertex coordinates are too large")

        # Plain-Python copies for the per-triangle loops of submesh bookkeeping.
        self._tri_rows = triangles.tolist()
        self._area_list = self.triangle_area.tolist()
        self._length_list = self.edge_length.tolist()
        self._tri_edge_rows = self.tri_edges.tolist()
        self._full_bits = (1 << len(triangles)) - 1
        self._digest: str | None = None

        for arr in (self.vertices, self.triangles, self.triangle_area, self.triangle_normal,
                    self.triangle_centroid, self.edges, self.tri_edges, self.edge_length):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def full_bits(self) -> int:
        return self._full_bits

    @property
    def bbox_diagonal(self) -> float:
        extent = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(extent))

    def normalized(self) -> TriangleMesh:
        """Rescale so the bounding-box diagonal is exactly 1. Idempotent."""
        diag = self.bbox_diagonal
        if diag <= 0.0:
            raise ValueError("cannot normalize a mesh with zero extent")
        if abs(diag - 1.0) <= 1e-12:
            return self
        return TriangleMesh(self.vertices / diag, self.triangles, normalization_scale=1.0 / diag)

    @property
    def digest(self) -> str:
        """Content hash of the geometry as stored (hex sha256)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(b"viewplan-mesh-v1")
            h.update(np.uint64(self.n_vertices).tobytes())
            h.update(np.uint64(self.n_triangles).tobytes())
            h.update(self.vertices.astype("<f8").tobytes())
            h.update(self.triangles.astype("<i8").tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def area_of_bits(self, bits: int) -> float:
        """Sum of triangle areas, added in ascending triangle order."""
        return _sum_in_order(self._area_list, bits)

    def _check_bits(self, bits: int) -> None:
        if bits < 0 or bits >> self.n_triangles:
            raise ValueError("triangle bitset out of range for this mesh")


def brute_force_boundary(mesh: TriangleMesh, bits: int) -> frozenset[tuple[int, int]]:
    """Boundary edges (u, v), u < v, of a triangle set by per-edge incidence counting.

    An edge is on the boundary iff exactly one in-set triangle is incident to
    it. Reference implementation that shares nothing with the edge table;
    tests hold submesh boundaries against it.
    """
    mesh._check_bits(bits)
    tally: dict[tuple[int, int], int] = {}
    rows = mesh._tri_rows
    for t in iter_bits(bits):
        a, b, c = rows[t]
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            tally[key] = tally.get(key, 0) + 1
    return frozenset(key for key, count in tally.items() if count == 1)


class Submesh:
    """Triangle subset with cached area and boundary. Immutable.

    `bits` is the triangle bitset and `boundary` the bitset of boundary edge
    ids (indices into `mesh.edges`).
    """

    __slots__ = ("mesh", "bits", "boundary", "area", "boundary_length")

    def __init__(self, mesh, bits, boundary, area, boundary_length):
        self.mesh = mesh
        self.bits = bits
        self.boundary = boundary
        self.area = area
        self.boundary_length = boundary_length

    @classmethod
    def empty(cls, mesh: TriangleMesh) -> Submesh:
        return cls(mesh, 0, 0, 0.0, 0.0)

    @classmethod
    def from_triangles(cls, mesh: TriangleMesh, triangles) -> Submesh:
        """Build from a bitset or an iterable of triangle indices."""
        bits = triangles if isinstance(triangles, int) else triangle_bits(triangles)
        mesh._check_bits(bits)
        return _extend(cls.empty(mesh), bits)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def triangle_indices(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __eq__(self, other):
        if not isinstance(other, Submesh):
            return NotImplemented
        return self.mesh is other.mesh and self.bits == other.bits

    def __hash__(self):
        return hash((id(self.mesh), self.bits))

    def __repr__(self):
        return f"Submesh({self.count} tris, area={self.area:.6g}, boundary_length={self.boundary_length:.6g})"


def _extend(x: Submesh, new_bits: int) -> Submesh:
    """`x` plus the triangles of `new_bits`, none of which may be in `x`.

    The new areas are summed on their own in ascending triangle order (as in
    `area_of_bits`) before they are added to `x.area`; each new triangle
    toggles its three edges in the boundary.
    """
    mesh = x.mesh
    area = mesh._area_list
    rows = mesh._tri_edge_rows
    added = 0.0
    boundary = x.boundary
    for t in iter_bits(new_bits):
        added += area[t]
        a, b, c = rows[t]
        boundary ^= (1 << a) | (1 << b) | (1 << c)
    return Submesh(mesh, x.bits | new_bits, boundary, x.area + added,
                   _sum_in_order(mesh._length_list, boundary))


def _sum_in_order(values: list[float], bits: int) -> float:
    """`values[i]` over the set bits i, added one at a time in ascending order."""
    total = 0.0
    for i in iter_bits(bits):
        total += values[i]
    return total


def union_coverage(x1: Submesh, x2: Submesh) -> Submesh:
    """Union of two submeshes with incrementally maintained area and boundary."""
    if x1.mesh is not x2.mesh:
        raise ValueError("submeshes belong to different meshes")
    if x2.bits | x1.bits == x1.bits:
        return x1
    if x1.bits | x2.bits == x2.bits:
        return x2
    return _extend(x1, x2.bits & ~x1.bits)


def score(x: Submesh, lam: float) -> float:
    """Covered area divided by boundary length to the power lam.

    lam = 0 ranks by area alone; larger lam penalizes long perimeters. A closed
    (boundary-free) nonempty submesh scores +inf for lam > 0: no perimeter left
    to pay for.
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if x.bits == 0:
        raise ValueError("score is undefined for an empty submesh")
    if x.boundary_length == 0.0:
        return x.area if lam == 0.0 else math.inf
    return x.area / x.boundary_length**lam
