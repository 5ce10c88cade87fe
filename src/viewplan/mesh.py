"""Indexed triangle meshes and coverage submeshes.

A mesh has one undirected edge table: `edges` (u < v), `tri_edges` (three edge
ids per triangle) and `edge_length`. A submesh is a triangle bitset with a
cached area and boundary. On these manifold meshes an edge is on the boundary
exactly when an odd number of its incident triangles are in the set, so the
boundary is an edge-id bitset that the added triangles toggle, three edges
each, and unions only touch the triangles they add. The bookkeeping runs on
numpy arrays: bitsets are unpacked to masks, each new triangle toggles its
edges with `np.logical_xor.at`, and areas and boundary lengths are summed one
value at a time in ascending index order (`sequential_sum`), as the reference
loop `area_of_bits` adds them.
`PatchArrays` measures the union of one submesh with each of many patches in
one array pass. `brute_force_boundary` counts incidences from scratch as the
cross-check of this parity rule.
"""
from __future__ import annotations

import hashlib
import math
from typing import Iterable, Iterator

import numpy as np

_CHUNK_ROWS = 32  # patches measured per array pass in `PatchArrays.unions`


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


def triangle_bits(indices: Iterable[int], n_triangles: int | None = None) -> int:
    """Bitset of the given indices. With `n_triangles`, an index outside
    [0, n_triangles) raises ValueError before its bit is built, so a huge
    index costs nothing."""
    bits = 0
    for i in indices:
        if n_triangles is not None and not 0 <= i < n_triangles:
            raise ValueError(f"triangle index {i} out of range for {n_triangles} triangles")
        bits |= 1 << i
    return bits


def bit_mask(bits: int, n: int) -> np.ndarray:
    """A bitset below 2**n as a fresh bool array of length n (bit i is element i)."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def mask_bits(mask: np.ndarray) -> int:
    """The bitset of a bool array; inverse of `bit_mask`."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def sequential_sum(values: np.ndarray) -> float:
    """values[0] + values[1] + ..., added one at a time from 0.0.

    `np.cumsum` adds strictly in order; `np.sum` adds pairwise, which can
    round differently in the last bits.
    """
    return float(values.cumsum()[-1]) if len(values) else 0.0


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

        # plain-Python copies for the reference loops (area_of_bits, brute_force_boundary)
        self._tri_rows = triangles.tolist()
        self._area_list = self.triangle_area.tolist()
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
    def n_edges(self) -> int:
        return len(self.edges)

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
        if isinstance(triangles, int):
            bits = triangles
            mesh._check_bits(bits)
        else:
            bits = triangle_bits(triangles, mesh.n_triangles)
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
    new = bit_mask(new_bits, mesh.n_triangles).nonzero()[0]
    boundary = bit_mask(x.boundary, mesh.n_edges)
    np.logical_xor.at(boundary, mesh.tri_edges.take(new, axis=0), True)
    return Submesh(mesh, x.bits | new_bits, mask_bits(boundary),
                   x.area + sequential_sum(mesh.triangle_area.take(new)),
                   sequential_sum(mesh.edge_length[boundary]))


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


def check_lambda(lam: float) -> None:
    """lam must be a finite, nonnegative number."""
    if not (0.0 <= lam < math.inf):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")


def score(x: Submesh, lam: float) -> float:
    """Covered area divided by boundary length to the power lam.

    lam = 0 ranks by area alone; larger lam penalizes long perimeters. A closed
    (boundary-free) nonempty submesh scores +inf for lam > 0: no perimeter left
    to pay for.
    """
    check_lambda(lam)
    if x.bits == 0:
        raise ValueError("score is undefined for an empty submesh")
    return score_value(x.area, x.boundary_length, lam)


def score_value(area: float, boundary_length: float, lam: float) -> float:
    """`score` of a nonempty patch from its area and boundary length; lam unchecked."""
    if boundary_length == 0.0:
        return area if lam == 0.0 else math.inf
    return area / boundary_length**lam


class PatchArrays:
    """Fixed patches (submeshes) of one mesh as padded arrays, one row per
    patch, so that the union of one covered submesh with each of many patches
    is measured in one array pass.

    Row i lists patch i's triangles ascending, and the three edges of each as
    slots sorted by edge id. Rows are padded to a common width with a padding
    triangle (index n_triangles, zero area, never covered) whose edges are a
    padding edge (index n_edges, zero length). Each union's area and boundary
    length are bit-equal to `union_coverage`'s: both are sums in ascending
    index order, taken with `np.cumsum` along rows in which the values left out
    are +0.0, and adding +0.0 leaves a sum unchanged. Rows are measured in
    fixed chunks of `_CHUNK_ROWS`, which bounds the temporary arrays.
    """

    def __init__(self, mesh: TriangleMesh, patches: Iterable[Submesh]):
        patches = tuple(patches)
        if any(p.mesh is not mesh for p in patches):
            raise ValueError("patch belongs to a different mesh")
        n_tri, n_edges = mesh.n_triangles, mesh.n_edges
        if 2 * n_edges + 2 >= 2**31:
            raise ValueError("mesh too large for 32-bit slot keys")
        self.mesh = mesh
        self.size = np.array([p.count for p in patches], dtype=np.int64)
        self._area = [p.area for p in patches]
        width = max(1, int(self.size.max(initial=0)))
        # per row: the triangles, then the slots' triangles bracketed by two
        # padding entries; the slot keys line up with the slots' triangles
        self._index = np.full((len(patches), 4 * width + 2), n_tri, dtype=np.int32)
        self._slot_key = np.full((len(patches), 3 * width + 2), 2 * n_edges, dtype=np.int32)
        self._slot_key[:, 0], self._slot_key[:, -1] = -1, 2 * n_edges + 2
        tri_edges = np.vstack([mesh.tri_edges, [n_edges] * 3])
        for start in range(0, len(patches), _CHUNK_ROWS):
            chunk = patches[start:start + _CHUNK_ROWS]
            rows = slice(start, start + len(chunk))
            raw = b"".join(p.bits.to_bytes((n_tri + 7) // 8, "little") for p in chunk)
            raw = np.frombuffer(raw, dtype=np.uint8).reshape(len(chunk), -1)
            entry = np.unpackbits(raw, axis=1, count=n_tri, bitorder="little").view(bool)
            entry = entry.ravel().nonzero()[0]  # row * n_triangles + triangle, ascending
            size = self.size[rows]
            column = np.arange(len(entry)) - np.repeat(np.cumsum(size) - size, size)
            triangle = self._index[rows, :width]
            triangle[entry // n_tri, column] = entry % n_tri
            edges = tri_edges.take(triangle, axis=0).reshape(len(chunk), -1)
            order = edges.argsort(axis=1, kind="stable")
            order += np.arange(len(chunk))[:, None] * edges.shape[1]
            # slot key 2 * edge, plus 1 per call where the slot's triangle is covered
            self._slot_key[rows, 1:-1] = 2 * edges.take(order)
            self._index[rows, width + 1:-1] = triangle.take(order // 3)
        self._width = width
        self._triangle = self._index[:, :width]
        self._triangle_area = np.append(mesh.triangle_area, 0.0)
        self._key_length = np.zeros(2 * n_edges + 2)
        self._key_length[0:2 * n_edges:2] = mesh.edge_length

    def overlap(self, covered: Submesh) -> tuple[np.ndarray, np.ndarray]:
        """(mask, inside): the covered-triangle mask that `unions` takes, and
        how many of each patch's triangles are covered."""
        mask = bit_mask(covered.bits, self.mesh.n_triangles + 1)
        return mask, mask[self._triangle].sum(axis=1)

    def unions(self, covered: Submesh, rows: np.ndarray, mask: np.ndarray,
               inside: np.ndarray) -> tuple[list[float], list[float]]:
        """(area, boundary_length) of `covered` united with each patch in
        `rows`, where (mask, inside) is `overlap(covered)`. Each patch must
        add a triangle to `covered`."""
        edges = 2 * bit_mask(covered.boundary, self.mesh.n_edges).nonzero()[0]
        area: list[float] = []
        length: list[float] = []
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            index = self._index.take(chunk, axis=0)
            covered_at = mask.take(index)
            area += self._areas(covered, chunk, inside, index, covered_at)
            length += self._boundary_lengths(chunk, edges, covered_at)
        return area, length

    def _areas(self, covered, rows, inside, index, covered_at) -> list[float]:
        w = self._width
        area = self._triangle_area.take(index[:, :w])
        area *= ~covered_at[:, :w]  # the new triangles only
        added = area.cumsum(axis=1, out=area)[:, -1]
        # a patch holding all of `covered` is the union itself (`union_coverage`
        # returns it), with its area summed over all of its triangles
        count, base = covered.count, covered.area
        return [self._area[r] if k == count else base + a
                for r, k, a in zip(rows.tolist(), inside.take(rows).tolist(), added.tolist())]

    def _boundary_lengths(self, rows, edges, covered_at) -> list[float]:
        # Per row, the covered boundary's keys 2 * edge and the patch's slot
        # keys (+1 for a slot of a covered triangle), sorted. An edge is on the
        # union's boundary iff one key 2 * edge occurs: from the covered
        # boundary or from one new triangle, not from both or two. The slot
        # keys -1 and 2 * n_edges + 2 bracket every row.
        keys = np.empty((len(rows), len(edges) + self._slot_key.shape[1]), dtype=np.int32)
        keys[:, :len(edges)] = edges
        np.add(self._slot_key.take(rows, axis=0), covered_at[:, self._width:],
               out=keys[:, len(edges):])
        keys.sort(axis=1)
        differ = keys[:, 1:] != keys[:, :-1]
        length = self._key_length.take(keys[:, 1:-1])
        length *= differ[:, :-1] & differ[:, 1:]
        return length.cumsum(axis=1, out=length)[:, -1].tolist()
