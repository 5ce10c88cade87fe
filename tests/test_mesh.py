import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewplan import (Submesh, TriangleMesh, brute_force_boundary, planar_grid, score,
                      union_coverage)

from conftest import boundary_pairs, grown_patch, ordered_area, random_triangles, submesh_of


def incidence_boundary(mesh: TriangleMesh, triangles) -> set[tuple[int, int]]:
    """Independent boundary oracle: count undirected-edge incidences with numpy."""
    idx = sorted(set(triangles))
    tris = mesh.triangles[idx]
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    undirected = np.sort(directed, axis=1)
    keys = undirected[:, 0] * mesh.n_vertices + undirected[:, 1]
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    single = undirected[counts[inverse] == 1]
    return {(int(a), int(b)) for a, b in single}


class TestBoundary:
    def test_single_triangle_of_square(self, unit_square):
        t1 = submesh_of(unit_square, [0])
        assert boundary_pairs(t1) == {(0, 1), (1, 2), (0, 2)}

    def test_square_union_has_four_outer_edges(self, unit_square):
        t1 = submesh_of(unit_square, [0])
        t2 = submesh_of(unit_square, [1])
        u = union_coverage(t1, t2)
        assert boundary_pairs(u) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert u.area == pytest.approx(1.0)
        assert u.boundary_length == pytest.approx(4.0)

    def test_brute_force_matches_incidence_oracle(self, ico3):
        rng = np.random.default_rng(7)
        for _ in range(30):
            tris = grown_patch(ico3, rng, 40)
            assert brute_force_boundary(ico3, tris) == incidence_boundary(ico3, tris)
        for density in (0.05, 0.3, 0.7, 0.95):
            tris = random_triangles(ico3, rng, density)
            assert brute_force_boundary(ico3, tris) == incidence_boundary(ico3, tris)

    def test_union_rule_matches_brute_force(self, ico1):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = random_triangles(ico1, rng, rng.uniform(0.05, 0.9))
            b = random_triangles(ico1, rng, rng.uniform(0.05, 0.9))
            u = union_coverage(submesh_of(ico1, a), submesh_of(ico1, b))
            assert boundary_pairs(u) == brute_force_boundary(ico1, a + b)

    def test_union_rule_cancels_seam_between_adjacent_parts(self, unit_square):
        # the parts share the diagonal; it must not survive into the union
        t1 = submesh_of(unit_square, [0])
        t2 = submesh_of(unit_square, [1])
        assert (0, 2) in boundary_pairs(t1) and (0, 2) in boundary_pairs(t2)
        assert (0, 2) not in boundary_pairs(union_coverage(t1, t2))

    def test_union_with_self_is_identity(self, ico1):
        rng = np.random.default_rng(3)
        x = submesh_of(ico1, random_triangles(ico1, rng, 0.4))
        u = union_coverage(x, x)
        assert np.array_equal(u.boundary, x.boundary)
        assert u.boundary_length == x.boundary_length

    def test_mismatched_meshes_rejected(self, unit_square, ico1):
        a = submesh_of(unit_square, [0])
        b = submesh_of(ico1, [0])
        with pytest.raises(ValueError):
            union_coverage(a, b)

    def test_out_of_range_index_rejected(self, unit_square):
        with pytest.raises(ValueError, match="out of range"):
            brute_force_boundary(unit_square, [2])


class TestUnionCoverage:
    def test_empty_is_identity(self, ico1):
        rng = np.random.default_rng(5)
        x = submesh_of(ico1, random_triangles(ico1, rng, 0.3))
        empty = Submesh.empty(ico1)
        assert union_coverage(x, empty) is x
        assert union_coverage(empty, x) is x

    def test_commutative(self, ico1):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x1 = submesh_of(ico1, random_triangles(ico1, rng, 0.3))
            x2 = submesh_of(ico1, random_triangles(ico1, rng, 0.3))
            a = union_coverage(x1, x2)
            b = union_coverage(x2, x1)
            assert np.array_equal(a.mask, b.mask)
            assert np.array_equal(a.boundary, b.boundary)
            assert a.boundary_length == b.boundary_length  # same edges, same order
            assert a.area == pytest.approx(b.area, rel=1e-12)

    def test_cached_area_matches_recomputation(self, ico3):
        rng = np.random.default_rng(13)
        acc = Submesh.empty(ico3)
        for _ in range(12):
            acc = union_coverage(acc, submesh_of(ico3, random_triangles(ico3, rng, 0.1)))
        direct = float(sum(ico3.triangle_area[t] for t in acc.triangle_indices()))
        assert acc.area == pytest.approx(direct, rel=1e-9)

    def test_cached_length_matches_recomputation(self, ico3):
        rng = np.random.default_rng(17)
        acc = Submesh.empty(ico3)
        for _ in range(12):
            acc = union_coverage(acc, submesh_of(ico3, random_triangles(ico3, rng, 0.1)))
        verts = ico3.vertices
        direct = float(sum(np.linalg.norm(verts[v] - verts[u])
                           for u, v in boundary_pairs(acc)))
        assert acc.boundary_length == pytest.approx(direct, rel=1e-9)


class TestScore:
    def test_square_values(self, unit_square):
        t1 = submesh_of(unit_square, [0])
        both = submesh_of(unit_square, [0, 1])
        assert score(both, 1.0) == pytest.approx(0.25)
        assert score(t1, 1.0) == pytest.approx(0.5 / (2.0 + math.sqrt(2.0)))
        assert score(t1, 1.0) == pytest.approx(0.146447, abs=1e-6)
        assert score(both, 0.0) == pytest.approx(1.0)

    def test_empty_submesh_rejected(self, unit_square):
        with pytest.raises(ValueError):
            score(Submesh.empty(unit_square), 1.0)

    def test_negative_lambda_rejected(self, unit_square):
        with pytest.raises(ValueError):
            score(submesh_of(unit_square, [0]), -0.5)

    def test_closed_surface_has_no_boundary(self, ico1):
        full = submesh_of(ico1, range(ico1.n_triangles))
        assert not full.boundary.any()
        assert boundary_pairs(full) == frozenset()
        assert full.boundary_length == 0.0
        assert score(full, 0.0) == pytest.approx(full.area)
        assert score(full, 1.0) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(lam_lo=st.floats(0.0, 4.0), lam_gap=st.floats(0.01, 3.0))
    def test_monotone_in_lambda(self, ico3, lam_lo, lam_gap):
        # ico3 patch boundary lengths exceed 1, so higher lam must score lower;
        # a shrunken copy has boundaries below 1 and the order flips
        rng = np.random.default_rng(29)
        tris = grown_patch(ico3, rng, 25)
        big = submesh_of(ico3, tris)
        assert big.boundary_length > 1.0
        small_mesh = TriangleMesh(ico3.vertices * 0.01, ico3.triangles)
        small = submesh_of(small_mesh, tris)
        assert small.boundary_length < 1.0
        lam_hi = lam_lo + lam_gap
        assert score(big, lam_hi) < score(big, lam_lo)
        assert score(small, lam_hi) > score(small, lam_lo)

    def test_uniform_scale_preserves_ranking(self, ico3):
        rng = np.random.default_rng(31)
        patches = [grown_patch(ico3, rng, int(rng.integers(10, 60))) for _ in range(8)]
        for factor in (0.1, 10.0):
            scaled = TriangleMesh(ico3.vertices * factor, ico3.triangles)
            for lam in (0.0, 0.5, 1.0, 2.0):
                base = [score(submesh_of(ico3, b), lam) for b in patches]
                other = [score(submesh_of(scaled, b), lam) for b in patches]
                assert int(np.argmax(base)) == int(np.argmax(other))


class TestMeshValidation:
    def test_nonmanifold_edge_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1]]
        tris = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
        with pytest.raises(ValueError, match="more than two"):
            TriangleMesh(verts, tris)

    def test_inconsistent_winding_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        with pytest.raises(ValueError, match="winding"):
            TriangleMesh(verts, [[0, 1, 2], [0, 3, 2]])  # second should be (0, 2, 3)
        with pytest.raises(ValueError, match="winding"):
            TriangleMesh(verts, [[0, 2, 1], [0, 2, 3]])  # both run 0 -> 2

    def test_degenerate_index_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 1]])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TriangleMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 2]])

    def test_empty_mesh_rejected(self):
        with pytest.raises(ValueError, match="no triangles"):
            TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64))

    def test_degenerate_triangle_keeps_zero_area(self):
        verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]
        mesh = TriangleMesh(verts, [[0, 1, 3], [0, 2, 1]])  # second is collinear
        assert mesh.triangle_area[1] == 0.0

    def test_normalization(self, ico1):
        norm = ico1.normalized()
        assert norm.bbox_diagonal == pytest.approx(1.0, abs=1e-12)
        assert norm.normalized() is norm
        assert norm.normalization_scale == pytest.approx(1.0 / ico1.bbox_diagonal)

    def test_digest_tracks_content(self, ico1):
        same = TriangleMesh(ico1.vertices.copy(), ico1.triangles.copy())
        assert same.digest == ico1.digest
        moved = TriangleMesh(ico1.vertices + 1e-9, ico1.triangles)
        assert moved.digest != ico1.digest

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, bad]]
        with pytest.raises(ValueError, match="vertex 2 has a non-finite coordinate"):
            TriangleMesh(verts, [[0, 1, 2]])

    @pytest.mark.parametrize("verts", [
        [[0, 0, 0], [1, 0, 0], [0, 1, -2.7e154]],  # cross product overflows
        [[0, 0, 0], [1e200, 0, 0], [2e200, 0, 0]],  # degenerate: area 0, lengths overflow
        [[1e308, 0, 0], [1.5e308, 0, 0], [1.7e308, 1, 0]],  # centroid and lengths overflow
    ])
    def test_overflowing_geometry_rejected_without_warning(self, verts):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="triangle 0 overflows float64"):
                TriangleMesh(verts, [[0, 1, 2]])

    def test_edge_table_matches_triangles(self, ico1):
        edges = ico1.edges.tolist()
        assert len(edges) == 120 and len(set(map(tuple, edges))) == 120
        assert all(u < v for u, v in edges)
        for (a, b, c), ids in zip(ico1.triangles.tolist(), ico1.tri_edges.tolist()):
            expect = {tuple(sorted(p)) for p in ((a, b), (b, c), (c, a))}
            assert {tuple(edges[e]) for e in ids} == expect
        for (u, v), length in zip(edges, ico1.edge_length.tolist()):
            assert length == float(np.linalg.norm(ico1.vertices[v] - ico1.vertices[u]))

    def test_brute_force_edges_are_plain_int_pairs(self, unit_square):
        edges = brute_force_boundary(unit_square, [0])
        assert edges == {(0, 1), (1, 2), (0, 2)}
        assert all(type(u) is int and type(v) is int for u, v in edges)


class TestFromTriangles:
    @pytest.mark.parametrize("index", [2, -1, 2**31, 2**63, 2**64])  # the square has 2 triangles
    def test_out_of_range_index_rejected_before_its_bit_is_built(self, unit_square, index):
        with pytest.raises(ValueError, match="out of range"):
            Submesh.from_triangles(unit_square, [0, index])

    @pytest.mark.parametrize("indices", [np.array([0, 2]), np.array([-1, 0]),
                                         np.array([2**63], dtype=np.uint64)])
    def test_out_of_range_array_rejected(self, unit_square, indices):
        with pytest.raises(ValueError, match="out of range"):
            Submesh.from_triangles(unit_square, indices)

    # a bare int would read as one index to numpy; a bitset such as 0b11 must not
    @pytest.mark.parametrize("bits", [-1, -(1 << 300), 0b11, True, np.int64(1)])
    def test_bare_int_rejected(self, unit_square, bits):
        with pytest.raises(TypeError):
            Submesh.from_triangles(unit_square, bits)

    @pytest.mark.parametrize("indices", [[0.0], [True], ["0"], [None], np.array([True, False]),
                                         np.array([0.0]), np.array([[0, 1]])],
                             ids=["float", "bool", "str", "none", "bool-array", "float-array",
                                  "2d-array"])
    def test_non_integer_indices_rejected(self, unit_square, indices):
        with pytest.raises(TypeError):
            Submesh.from_triangles(unit_square, indices)

    @pytest.mark.parametrize("indices", [[], [0], [3, 64, 200], [0, 255, 256, 1000, 4099]])
    def test_indices_come_back_ascending(self, indices):
        mesh = planar_grid(40, 52)  # 4160 triangles
        for given in (indices, indices[::-1], np.array(indices, dtype=np.int64), indices * 2):
            x = Submesh.from_triangles(mesh, given)
            assert x.triangle_indices().tolist() == indices
            assert x.count == len(indices)


class TestImmutable:
    def test_masks_reject_writes(self, ico1):
        x = submesh_of(ico1, [0, 5, 9])
        for arr in (x.mask, x.boundary):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = not arr[0]
            with pytest.raises(ValueError, match="read-only"):
                arr |= True


def ordered_length(mesh: TriangleMesh, pairs) -> float:
    """Boundary length of vertex pairs, added one at a time in ascending edge id."""
    ids = {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}
    total = 0.0
    for i in sorted(ids[p] for p in pairs):
        total += float(mesh.edge_length[i])
    return total


class TestArrayBookkeeping:
    # ico1 has 80 triangles and 120 edges, ico3 1280 and 1920
    @pytest.mark.parametrize("name", ["ico1", "ico3"])
    def test_from_triangles_matches_the_reference_loops(self, name, request):
        mesh = request.getfixturevalue(name)
        rng = np.random.default_rng(23)
        for density in (0.02, 0.3, 0.9):
            tris = random_triangles(mesh, rng, density)
            x = Submesh.from_triangles(mesh, tris)
            oracle = brute_force_boundary(mesh, tris)
            assert boundary_pairs(x) == oracle
            assert x.area == ordered_area(mesh, tris)
            assert x.boundary_length == ordered_length(mesh, oracle)

    @pytest.mark.parametrize("name", ["ico1", "ico3"])
    def test_union_chain_matches_the_reference_loops(self, name, request):
        mesh = request.getfixturevalue(name)
        rng = np.random.default_rng(29)
        acc = Submesh.empty(mesh)
        for _ in range(8):
            part = submesh_of(mesh, grown_patch(mesh, rng, mesh.n_triangles // 10))
            before = acc
            acc = union_coverage(acc, part)
            oracle = brute_force_boundary(mesh, acc.triangle_indices())
            assert boundary_pairs(acc) == oracle
            assert acc.boundary_length == ordered_length(mesh, oracle)
            if acc is not part and acc is not before:
                added = set(part.triangle_indices()) - set(before.triangle_indices())
                assert acc.area == before.area + ordered_area(mesh, added)

    # each case is a set of triangle indices, written as the int with those bits set
    @pytest.mark.parametrize("index_bits", [0, 1, (1 << 7) | 1, (1 << 300) | (1 << 255) | 5])
    def test_mask_round_trip(self, index_bits):
        indices = [i for i in range(index_bits.bit_length()) if index_bits >> i & 1]
        mesh = planar_grid(10, 16)  # 320 triangles
        x = Submesh.from_triangles(mesh, indices)
        assert x.mask.dtype == bool and x.mask.shape == (mesh.n_triangles,)
        assert x.mask.nonzero()[0].tolist() == indices
        assert x.count == len(indices)
        assert Submesh.from_triangles(mesh, x.triangle_indices()) == x


class TestNonFiniteLambda:
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_score_rejects(self, unit_square, lam):
        x = submesh_of(unit_square, [0, 1])
        with pytest.raises(ValueError, match="finite"):
            score(x, lam)
