"""Synthetic coverage instances with exact optimality certificates.

Instances live on a planar grid mesh; each synthetic view covers a rectangle of
grid squares, so coverage sets are contiguous and the planner's overlap rule is
actually exercised. Two families:

* random_patches: independently placed random rectangles.
* grid_trap: column blocks that jointly cover the grid, plus one full-width row
  band whose area beats every block but whose long thin shape drags the pure
  area-greedy into an extra pick. Certified so the exact optimum is strictly
  below the greedy count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Submesh, TriangleMesh
from .planner import Plan, coverage_fraction, run_fixed_lambda
from .shapes import grid_square_triangles, planar_grid
from .visibility import CoverageTable

_EXACT_LIMIT = 24

KINDS = ("random_patches", "grid_trap")


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    rows: int
    cols: int
    views: int
    patch_min: int = 1
    patch_max: int = 4
    seed: int = 0
    certify: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        if self.views < 1:
            raise ValueError(f"views must be >= 1, got {self.views}")
        if not (1 <= self.patch_min <= self.patch_max):
            raise ValueError(
                f"need 1 <= patch_min <= patch_max, got {self.patch_min}..{self.patch_max}")
        if self.certify and self.views > _EXACT_LIMIT:
            raise ValueError(
                f"certification is exact search, limited to {_EXACT_LIMIT} views; got {self.views}")
        if self.kind == "grid_trap":
            if self.views < 3:
                raise ValueError("grid_trap needs at least 2 blocks plus the band (views >= 3)")
            if self.rows < 4:
                raise ValueError("grid_trap needs at least 4 rows to fit a strict inner band")


@dataclass(eq=False)
class CertifiedInstance:
    spec: SyntheticSpec
    table: CoverageTable
    oracle_count: int | None
    greedy_count: int
    connected_count: int | None


def _rect(rows: int, cols: int, r0: int, r1: int, c0: int, c1: int) -> list[int]:
    """Triangle indices of the grid squares in rows r0..r1-1, columns c0..c1-1."""
    return [t for r in range(r0, r1) for c in range(c0, c1)
            for t in grid_square_triangles(rows, cols, r, c)]


def _random_patches(spec: SyntheticSpec, rng) -> list[list[int]]:
    patches = []
    for _ in range(spec.views):
        h = int(rng.integers(spec.patch_min, spec.patch_max + 1))
        w = int(rng.integers(spec.patch_min, spec.patch_max + 1))
        h = min(h, spec.rows)
        w = min(w, spec.cols)
        r0 = int(rng.integers(0, spec.rows - h + 1))
        c0 = int(rng.integers(0, spec.cols - w + 1))
        patches.append(_rect(spec.rows, spec.cols, r0, r0 + h, c0, c0 + w))
    return patches


def _grid_trap(spec: SyntheticSpec, rng) -> list[list[int]]:
    rows, cols = spec.rows, spec.cols
    blocks = spec.views - 1
    overlap = int(rng.integers(1, 3))
    total = cols + (blocks - 1) * overlap
    if total // blocks <= 2 * overlap:
        overlap = 1
        total = cols + (blocks - 1) * overlap
    width = total // blocks
    extra = total % blocks
    widths = [width + (1 if i < extra else 0) for i in range(blocks)]
    if min(widths) <= 2 * overlap:
        raise ValueError(
            f"{rows}x{cols} grid cannot fit {blocks} overlapping blocks with exclusive columns")
    spans = []
    start = 0
    for w in widths:
        spans.append((start, start + w))
        start += w - overlap
    spans[-1] = (spans[-1][0], cols)

    # band area must strictly beat the widest block, inside the row range
    h_min = (rows * max(widths)) // cols + 1
    h_cap = rows - 2
    if h_min > h_cap:
        raise ValueError(f"{rows}x{cols} grid leaves no room for a dominant band")
    h = int(rng.integers(h_min, min(h_min + 1, h_cap) + 1))
    r0 = int(rng.integers(1, rows - h))

    patches = [_rect(rows, cols, 0, rows, c0, c1) for c0, c1 in spans]
    patches.append(_rect(rows, cols, r0, r0 + h, 0, cols))
    return patches


def generate_instance(spec: SyntheticSpec) -> CertifiedInstance:
    """Build the instance for a spec; the same spec always yields the same bytes."""
    rng = np.random.default_rng(spec.seed)
    mesh = planar_grid(spec.rows, spec.cols)
    if spec.kind == "grid_trap":
        patches = _grid_trap(spec, rng)
    else:
        patches = _random_patches(spec, rng)
    coverage = [Submesh.from_triangles(mesh, patch) for patch in patches]
    table = CoverageTable.build(mesh, None, coverage)
    greedy = run_fixed_lambda(table, 0.0, rcc=1.0)
    oracle_count = None
    connected_count = None
    if spec.certify:
        oracle_count = len(exact_min_cover(table, 1.0).order)
        try:
            connected_count = len(exact_min_cover(table, 1.0, connected=True).order)
        except ValueError:
            connected_count = None  # no connected ordering covers the instance
        if len(greedy.order) < oracle_count:
            raise AssertionError("greedy beat the exact optimum; certification is broken")
        if spec.kind == "grid_trap" and len(greedy.order) <= oracle_count:
            raise AssertionError("trap failed: greedy matched the optimum")
    return CertifiedInstance(spec, table, oracle_count, len(greedy.order), connected_count)


def exact_min_cover(table: CoverageTable, rcc: float = 1.0, connected: bool = False) -> Plan:
    """Provably minimum number of views reaching rcc of the achievable area.

    Breadth-first over subsets, one layer per subset size, pruning any covered
    set already reached at the same or smaller size. The search keys covered
    sets by int bitsets of triangles, packed from the masks once per call.
    With `connected`, every view after the first must overlap the coverage so
    far (the minimum under the planner's overlap rule); that variant can be
    infeasible, which raises.
    """
    n = table.n_views
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact search is limited to {_EXACT_LIMIT} views, table has {n}")
    if not (0.0 <= rcc <= 1.0):
        raise ValueError(f"rcc must be in [0, 1], got {rcc}")
    areas = table.mesh.triangle_area.tolist()
    masks = [_pack(sm.mask) for sm in table.coverage]
    ach_bits = _pack(table.achievable.mask)
    target_area = rcc * table.achievable.area
    method = "exact-connected" if connected else "exact"

    def done(bits: int, area: float) -> bool:
        if ach_bits & ~bits == 0:
            return True
        return rcc < 1.0 and area >= target_area

    def area_along(order: tuple[int, ...]) -> float:
        # the same sums, in the same order, as the search's running areas
        bits, area = 0, 0.0
        for j in order:
            area += _area_of_bits(areas, masks[j] & ~bits)
            bits |= masks[j]
        return area

    if done(0, 0.0):
        return Plan((), (), coverage_fraction(0.0, table, ach_bits == 0), method)
    frontier: list[tuple[int, float, tuple[int, ...]]] = [(0, 0.0, ())]
    seen = {0}
    for _size in range(1, n + 1):
        grown: list[tuple[int, float, tuple[int, ...]]] = []
        for bits, area, chosen in frontier:
            for j in range(n):
                mask = masks[j]
                if connected and chosen and not (mask & bits):
                    continue
                new_bits = bits | mask
                if new_bits == bits or new_bits in seen:
                    continue
                # at rcc 1 done() tests bits only, so no subset needs its area
                new_area = area + _area_of_bits(areas, new_bits & ~bits) if rcc < 1.0 else 0.0
                picked = chosen + (j,)
                if done(new_bits, new_area):
                    fraction = coverage_fraction(area_along(picked), table,
                                                 ach_bits & ~new_bits == 0)
                    return Plan(picked, (), fraction, method)
                seen.add(new_bits)
                grown.append((new_bits, new_area, picked))
        frontier = grown
        if not frontier:
            break
    raise ValueError("no admissible subset reaches the coverage target")


def _pack(mask: np.ndarray) -> int:
    """The int with bit i set where mask[i] is true."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _area_of_bits(areas: list[float], bits: int) -> float:
    """areas[i] over the set bits i, added one at a time in ascending order,
    as `Submesh` sums the areas of the triangles it adds."""
    total = 0.0
    while bits:
        low = bits & -bits
        total += areas[low.bit_length() - 1]
        bits ^= low
    return total
