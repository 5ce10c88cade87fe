import numpy as np
import pytest

from viewplan import Submesh, TriangleMesh, icosphere, iter_bits, triangle_bits


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
                neighbors=None) -> int:
    """Bitset of a connected patch grown from a random seed triangle."""
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
    return triangle_bits(chosen)


def random_bits(mesh: TriangleMesh, rng: np.random.Generator, density: float) -> int:
    mask = rng.random(mesh.n_triangles) < density
    if not mask.any():
        mask[int(rng.integers(mesh.n_triangles))] = True
    return triangle_bits(np.nonzero(mask)[0].tolist())


def submesh_of(mesh: TriangleMesh, bits: int) -> Submesh:
    return Submesh.from_triangles(mesh, bits)


def boundary_pairs(x: Submesh) -> frozenset[tuple[int, int]]:
    """A submesh's boundary edge ids as vertex pairs (u, v) with u < v."""
    edges = x.mesh.edges.tolist()
    return frozenset(tuple(edges[e]) for e in iter_bits(x.boundary))
