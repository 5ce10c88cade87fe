import math

import numpy as np
import pytest

from viewplan import (Submesh, TriangleMesh, ViewPoint, icosphere, planar_grid,
                      precompute_coverage)


@pytest.fixture(scope="session")
def unit_square() -> TriangleMesh:
    verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    return TriangleMesh(verts, [[0, 1, 2], [0, 2, 3]])


@pytest.fixture(scope="session")
def ico1() -> TriangleMesh:
    return icosphere(1)  # 80 triangles


@pytest.fixture(scope="session")
def ico3() -> TriangleMesh:
    return icosphere(3)  # 1280 triangles


@pytest.fixture(scope="session")
def occluder() -> TriangleMesh:
    """Two 3x3 sheets stacked in z, one unit apart; the upper sheet holds the
    second half of the triangles."""
    base = planar_grid(3, 3)
    verts = np.vstack([base.vertices, base.vertices + np.array([0.0, 0.0, 1.0])])
    return TriangleMesh(verts, np.vstack([base.triangles, base.triangles + len(base.vertices)]))


def tri_neighbors(mesh: TriangleMesh) -> list[list[int]]:
    """Edge-sharing triangles of every triangle, from the mesh's edge table."""
    incident: dict[int, list[int]] = {}  # edge id -> triangles, edges in order first met
    for i, e in enumerate(mesh.tri_edges.ravel().tolist()):
        incident.setdefault(e, []).append(i // 3)
    out: list[list[int]] = [[] for _ in range(mesh.n_triangles)]
    for pair in incident.values():
        if len(pair) == 2:
            a, b = pair
            out[a].append(b)
            out[b].append(a)
    return out


def grown_patch(mesh: TriangleMesh, rng: np.random.Generator, size: int,
                neighbors=None) -> list[int]:
    """Triangle indices, ascending, of a connected patch grown from a random
    seed triangle."""
    if neighbors is None:
        neighbors = tri_neighbors(mesh)
    seed = int(rng.integers(mesh.n_triangles))
    chosen = {seed}
    frontier = [seed]
    while frontier and len(chosen) < size:
        t = frontier.pop(int(rng.integers(len(frontier))))
        for n in neighbors[t]:
            if n not in chosen:
                chosen.add(n)
                frontier.append(n)
                if len(chosen) >= size:
                    break
    return sorted(chosen)


def random_triangles(mesh: TriangleMesh, rng: np.random.Generator, density: float) -> list[int]:
    """A nonempty random set of triangle indices, ascending."""
    mask = rng.random(mesh.n_triangles) < density
    if not mask.any():
        mask[int(rng.integers(mesh.n_triangles))] = True
    return np.nonzero(mask)[0].tolist()


def submesh_of(mesh: TriangleMesh, triangles) -> Submesh:
    return Submesh.from_triangles(mesh, triangles)


def boundary_pairs(x: Submesh) -> frozenset[tuple[int, int]]:
    """A submesh's boundary edge ids as vertex pairs (u, v) with u < v."""
    edges = x.mesh.edges.tolist()
    return frozenset(tuple(edges[e]) for e in x.boundary.nonzero()[0].tolist())


def ordered_area(mesh: TriangleMesh, triangles) -> float:
    """Reference area: the triangles' areas added one at a time in ascending
    index order."""
    total = 0.0
    for t in sorted(set(triangles)):
        total += float(mesh.triangle_area[t])
    return total


def camera_ring_table():
    """Icosphere ring table: non-dyadic areas and edge lengths, so the order
    of every sum shows in its last bits."""
    views = [ViewPoint.aimed((2.4 * math.cos(a), 2.4 * math.sin(a), 0.5 * math.sin(3 * a)),
                             fov_y=math.radians(45))
             for a in np.linspace(0.0, 2 * math.pi, 12, endpoint=False)]
    return precompute_coverage(icosphere(3), views)
