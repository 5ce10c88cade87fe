"""Indexed triangle meshes and coverage submeshes.

A mesh has one undirected edge table: `edges` (u < v), `tri_edges` (three edge
ids per triangle) and `edge_length`. A submesh is a read-only bool mask over
the triangles with a cached area and boundary. On these manifold meshes an edge
is on the boundary exactly when an odd number of its incident triangles are in
the set, so the boundary is a bool mask over the edge ids that the added
triangles toggle, three edges each (`np.logical_xor.at`), and unions only touch
the triangles they add. Areas and boundary lengths are summed one value at a
time in ascending index order (`sequential_sum`), so a sum does not depend on
how the submesh was built.
`PatchArrays` measures the union of one submesh with each of many patches in
one array pass. `brute_force_boundary` counts incidences from scratch as the
cross-check of this parity rule.
"""
from __future__ import annotations

import hashlib
import math
from typing import Iterable

import numpy as np

_CHUNK_ROWS = 32  # patches measured per array pass in `PatchArrays`


def sequential_sum(values: np.ndarray) -> float:
    """values[0] + values[1] + ..., added one at a time from 0.0.

    `np.cumsum` adds strictly in order; `np.sum` adds pairwise, which can
    round differently in the last place.
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

def _triangle_indices(triangles, n_triangles: int) -> np.ndarray:
    """Triangle indices as an int64 array, each checked to lie in
    [0, n_triangles) before any mask is built from them.

    Only integer indices are accepted: a bare int (which numpy would read as
    one index), bools and non-integer values raise TypeError.
    """
    if isinstance(triangles, (int, np.integer)):
        raise TypeError(f"triangles must be a sequence of indices, not the int {triangles}")
    if isinstance(triangles, np.ndarray) and triangles.dtype != object:
        if triangles.dtype.kind not in "iu" or triangles.ndim != 1:
            raise TypeError("triangles must be a 1-D integer array, "
                            f"got {triangles.ndim}-D {triangles.dtype}")
        bad = (triangles < 0) | (triangles >= n_triangles)
        if bad.any():
            raise ValueError(f"triangle index {triangles[bad.argmax()]} out of range "
                             f"for {n_triangles} triangles")
        return triangles.astype(np.int64, copy=False)
    triangles = list(triangles)
    for i in triangles:
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
            raise TypeError(f"triangle index {i!r} is not an integer")
        if not 0 <= i < n_triangles:
            raise ValueError(f"triangle index {i} out of range for {n_triangles} triangles")
    return np.array(triangles, dtype=np.int64)


def brute_force_boundary(mesh: TriangleMesh, triangles) -> frozenset[tuple[int, int]]:
    """Boundary edges (u, v), u < v, of a set of triangle indices by per-edge
    incidence counting.

    An edge is on the boundary iff exactly one in-set triangle is incident to
    it. Reference implementation that shares nothing with the edge table;
    tests hold submesh boundaries against it.
    """
    idx = np.unique(_triangle_indices(triangles, mesh.n_triangles))
    tally: dict[tuple[int, int], int] = {}
    for a, b, c in mesh.triangles[idx].tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            tally[key] = tally.get(key, 0) + 1
    return frozenset(key for key, count in tally.items() if count == 1)


class Submesh:
    """Triangle subset with cached area and boundary. Immutable.

    `mask` is a read-only bool array over the mesh's triangles, true for the
    triangles in the subset, and `boundary` a read-only bool array over the
    mesh's edges (`mesh.edges`), true for the boundary edges. `count` is the
    number of triangles.
    """

    __slots__ = ("mesh", "mask", "boundary", "area", "boundary_length", "count")

    def __init__(self, mesh, mask, boundary, area, boundary_length, count):
        mask.setflags(write=False)
        boundary.setflags(write=False)
        self.mesh = mesh
        self.mask = mask
        self.boundary = boundary
        self.area = area
        self.boundary_length = boundary_length
        self.count = count

    @classmethod
    def empty(cls, mesh: TriangleMesh) -> Submesh:
        return cls(mesh, np.zeros(mesh.n_triangles, dtype=bool),
                   np.zeros(mesh.n_edges, dtype=bool), 0.0, 0.0, 0)

    @classmethod
    def from_triangles(cls, mesh: TriangleMesh, triangles) -> Submesh:
        """Build from a sequence or 1-D integer array of triangle indices;
        repeats count once."""
        # a mask, not np.unique: np.unique of an integer array raises peak
        # memory by about 1.7 MB on its first call
        mask = np.zeros(mesh.n_triangles, dtype=bool)
        mask[_triangle_indices(triangles, mesh.n_triangles)] = True
        return _extend(cls.empty(mesh), mask.nonzero()[0])

    def triangle_indices(self) -> np.ndarray:
        """The triangles' indices, ascending."""
        return self.mask.nonzero()[0]

    def __eq__(self, other):
        if not isinstance(other, Submesh):
            return NotImplemented
        return self.mesh is other.mesh and np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash((id(self.mesh), self.mask.tobytes()))

    def __repr__(self):
        return f"Submesh({self.count} tris, area={self.area:.6g}, boundary_length={self.boundary_length:.6g})"


def _extend(x: Submesh, new: np.ndarray) -> Submesh:
    """`x` plus the triangles `new`, ascending, none of which may be in `x`.

    The new areas are summed on their own in ascending triangle order before
    they are added to `x.area`; each new triangle toggles its three edges in
    the boundary.
    """
    mesh = x.mesh
    mask = x.mask.copy()
    mask[new] = True
    boundary = x.boundary.copy()
    np.logical_xor.at(boundary, mesh.tri_edges.take(new, axis=0), True)
    return Submesh(mesh, mask, boundary,
                   x.area + sequential_sum(mesh.triangle_area.take(new)),
                   sequential_sum(mesh.edge_length[boundary]), x.count + len(new))


def union_coverage(x1: Submesh, x2: Submesh) -> Submesh:
    """Union of two submeshes with incrementally maintained area and boundary.
    A submesh holding the other is returned as it is."""
    if x1.mesh is not x2.mesh:
        raise ValueError("submeshes belong to different meshes")
    new = (x2.mask > x1.mask).nonzero()[0]
    if len(new) == 0:
        return x1
    if x1.count + len(new) == x2.count:  # the union is x2 itself
        return x2
    return _extend(x1, new)


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
    if x.count == 0:
        raise ValueError("score is undefined for an empty submesh")
    return score_value(x.area, x.boundary_length, lam)


def score_value(area: float, boundary_length: float, lam: float) -> float:
    """`score` of a nonempty patch from its area and boundary length; lam unchecked."""
    if boundary_length == 0.0:
        return area if lam == 0.0 else math.inf
    return area / boundary_length**lam


class PatchArrays:
    """Fixed patches (submeshes) of one mesh as arrays, so that the union of
    one covered submesh with each of many patches is measured in one array
    pass.

    The arrays are read off the patches' triangle masks once. `overlap`
    counts each patch's covered triangles from one flat list of all patches'
    triangles, and returns the lookup array of a call: the covered-triangle
    mask, one never-covered entry, then the covered boundary-edge mask.

    Row i of a padded table lists patch i's triangles ascending, right-aligned
    to the widest patch's width W, then two bracket entries, then one slot
    per distinct edge of the patch, ascending by edge id. A slot's key is
    2 * edge or 2 * edge + 1, xor its lookup entry, so that an edge is on the
    union's boundary iff its key 2 * edge comes up once among the slots and
    the covered boundary:
    - an edge of one patch triangle flips when that triangle is new: its key
      is 2 * edge and its lookup entry the triangle, so a covered triangle
      makes it 2 * edge + 1, which has length zero;
    - an edge between two patch triangles is never on the union's boundary:
      its key is 2 * edge + 1 and its lookup entry the edge's covered
      boundary flag, so it becomes 2 * edge, and cancels the covered
      boundary's key, when the edge is on that boundary.
    Padding is a padding triangle (index n_triangles, zero area, never
    covered) and padding slots with the key 2 * n_edges, of length zero.

    A call measures the pooled rows in chunks of at most `_CHUNK_ROWS` and
    reads each chunk only up to its own widest row: w triangles and d slots.
    A pool wider than one chunk is chunked in ascending patch size (a stable
    sort), so rows of like size share a chunk; the results come back in the
    pool's order. Each union's area and boundary length are bit-equal to
    `union_coverage`'s: both are sums in ascending index order, taken with
    `np.cumsum` along rows in which the values left out are +0.0, and adding
    +0.0 leaves a sum unchanged.
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
        self._area = np.array([p.area for p in patches])
        # the flat list: each patch's triangles, or the never-covered entry
        # for a patch without any, so that no run is empty for np.add.reduceat
        # (it returns a[start], not 0, for an empty run)
        runs = [p.mask.nonzero()[0] if p.count else np.array([n_tri]) for p in patches]
        self._flat = np.concatenate(runs)
        self._run_start = np.cumsum([0] + [len(r) for r in runs[:-1]])
        # a patch's distinct edges: 3 per triangle, an inner one counted twice
        slots = (3 * self.size + [np.count_nonzero(p.boundary) for p in patches]) // 2
        self._shape = np.stack([self.size, slots], axis=1)  # (triangles, slots) per row
        width = self._width = max(1, int(self.size.max(initial=0)))
        # per row: the triangles, the brackets, the slots' lookup entries; the
        # slot keys line up with the brackets and the slots
        self._index = np.full((len(patches), width + 2 + int(slots.max(initial=0))), n_tri,
                              dtype=np.int32)
        self._slot_key = np.full((len(patches), self._index.shape[1] - width), 2 * n_edges,
                                 dtype=np.int32)
        self._slot_key[:, :2] = -1, 2 * n_edges + 2
        row = np.repeat(np.arange(len(patches)), self.size)
        triangle = np.concatenate([r[:k] for r, k in zip(runs, self.size.tolist())])
        end = np.cumsum(self.size)
        self._index[row, width - end[row] + np.arange(len(triangle))] = triangle
        first_slot = np.cumsum(slots) - slots
        for start in range(0, len(patches), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(patches))
            part = slice(end[start] - self.size[start], end[stop - 1])
            # the rows' slots: their triangles' edges sorted by (row, edge),
            # where an edge between two patch triangles keeps its first slot
            slot = np.repeat(row[part], 3) * n_edges
            slot += mesh.tri_edges.take(triangle[part], axis=0).ravel()
            order = slot.argsort(kind="stable")
            slot = slot.take(order)
            kept = np.ones(len(slot), dtype=bool)
            kept[1:] = slot[1:] != slot[:-1]
            inner = np.zeros(len(slot), dtype=bool)
            inner[:-1] = ~kept[1:]
            slot_row, edge = np.divmod(slot[kept], n_edges)
            inner = inner[kept]
            column = 2 + np.arange(len(edge)) - (first_slot[slot_row] - first_slot[start])
            self._index[slot_row, width + column] = np.where(
                inner, n_tri + 1 + edge, triangle[part].take(order[kept] // 3))
            self._slot_key[slot_row, column] = 2 * edge + inner
        self._triangle_area = np.append(mesh.triangle_area, 0.0)
        self._key_length = np.zeros(2 * n_edges + 2)
        self._key_length[0:2 * n_edges:2] = mesh.edge_length

    def overlap(self, covered: Submesh) -> tuple[np.ndarray, np.ndarray]:
        """(lookup, inside): the lookup array that `areas` and `unions` take,
        and how many of each patch's triangles are covered."""
        lookup = np.concatenate([covered.mask, [False], covered.boundary])
        inside = np.add.reduceat(lookup.take(self._flat), self._run_start, dtype=np.int64)
        return lookup, inside

    def areas(self, covered: Submesh, rows: np.ndarray, lookup: np.ndarray,
              inside: np.ndarray) -> np.ndarray:
        """Area of `covered` united with each patch in `rows`, where (lookup,
        inside) is `overlap(covered)`. Each patch must add a triangle to
        `covered`."""
        return self._measure(covered, rows, lookup, inside, None)[0]

    def unions(self, covered: Submesh, rows: np.ndarray, lookup: np.ndarray,
               inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(area, boundary_length) of `covered` united with each patch in
        `rows`, as `areas` takes them."""
        return self._measure(covered, rows, lookup, inside, 2 * covered.boundary.nonzero()[0])

    def _measure(self, covered, rows, lookup, inside, edges):
        # the area each triangle adds: +0.0 where covered
        fresh = np.where(lookup[:len(self._triangle_area)], 0.0, self._triangle_area)
        if len(rows) == 0:
            return np.empty(0), None if edges is None else np.empty(0)
        if len(rows) <= _CHUNK_ROWS:  # one chunk: no sort
            return self._chunk(covered, rows, lookup, inside, fresh, edges)
        area = np.empty(len(rows))
        length = None if edges is None else np.empty(len(rows))
        order = self.size.take(rows).argsort(kind="stable")
        for at in np.split(order, range(_CHUNK_ROWS, len(rows), _CHUNK_ROWS)):
            area[at], chunk_length = self._chunk(covered, rows.take(at), lookup, inside, fresh,
                                                 edges)
            if edges is not None:
                length[at] = chunk_length
        return area, length

    def _chunk(self, covered, rows, lookup, inside, fresh, edges):
        w, d = self._shape.take(rows, axis=0).max(axis=0).tolist()
        stop = self._width if edges is None else self._width + 2 + d
        index = self._index[rows, self._width - w:stop]
        added = fresh.take(index[:, :w]).cumsum(axis=1)[:, -1]
        # a patch holding all of `covered` is the union itself (`union_coverage`
        # returns it), with its area summed over all of its triangles
        area = np.where(inside.take(rows) == covered.count, self._area.take(rows),
                        covered.area + added)
        if edges is None:
            return area, None
        # Per row, the covered boundary's keys 2 * edge, the brackets -1 and
        # 2 * n_edges + 2, and the slot keys, sorted. An edge is on the union's
        # boundary iff its key 2 * edge occurs once.
        keys = np.empty((len(rows), len(edges) + 2 + d), dtype=np.int32)
        keys[:, :len(edges)] = edges
        np.bitwise_xor(self._slot_key[rows, :2 + d], lookup.take(index[:, w:]),
                       out=keys[:, len(edges):])
        keys.sort(axis=1)
        differ = keys[:, 1:] != keys[:, :-1]
        length = self._key_length.take(keys[:, 1:-1])
        length *= differ[:, :-1] & differ[:, 1:]
        return area, length.cumsum(axis=1, out=length)[:, -1]
