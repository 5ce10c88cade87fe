"""Sequential view selection over a coverage table.

Each step picks the unchosen view whose union with the current coverage scores
highest at the step's lam. Candidates must overlap what is already covered
(so the plan grows a connected region) unless nothing overlapping remains, and
views that add no new triangle are never taken.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .mesh import Submesh, score, union_coverage
from .visibility import CoverageTable


@dataclass(frozen=True)
class Plan:
    """Result of one planning run.

    `lambdas` holds the lam used at each selection; model-driven plans choose
    their first view by value instead, so there it has one entry per selection
    after the first. `complete` is False only if selection stalled before the
    coverage target was reached.
    """

    order: tuple[int, ...]
    lambdas: tuple[float, ...]
    final_coverage_fraction: float
    method: str
    complete: bool = True


@dataclass(eq=False)
class CoverageState:
    """Chosen views (bitset) plus the union of their coverage."""

    chosen: int
    covered: Submesh
    step: int

    @classmethod
    def initial(cls, table: CoverageTable) -> CoverageState:
        return cls(0, Submesh.empty(table.mesh), 0)

    def add(self, table: CoverageTable, view_idx: int) -> CoverageState:
        if not (0 <= view_idx < table.n_views):
            raise ValueError(f"view index {view_idx} out of range")
        if (self.chosen >> view_idx) & 1:
            raise ValueError(f"view {view_idx} already chosen")
        covered = union_coverage(self.covered, table.coverage[view_idx])
        return CoverageState(self.chosen | (1 << view_idx), covered, self.step + 1)


def _check_pair(state: CoverageState, table: CoverageTable) -> None:
    if state.covered.mesh is not table.mesh:
        raise ValueError("state and table refer to different meshes")


def next_best_view(state: CoverageState, table: CoverageTable, lam: float) -> int | None:
    """Index of the best admissible view, or None when no view adds coverage.

    Admissible: unchosen, adds at least one new triangle, and overlaps the
    covered region (the overlap requirement is waived when the covered region
    is empty, or when no positive-gain view overlaps it). Ties go to the lowest
    index.
    """
    _check_pair(state, table)
    covered = state.covered
    gaining = []
    overlapping = []
    for idx in range(table.n_views):
        if (state.chosen >> idx) & 1:
            continue
        bits = table.coverage[idx].bits
        if bits & ~covered.bits == 0:
            continue
        gaining.append(idx)
        if covered.bits == 0 or bits & covered.bits:
            overlapping.append(idx)
    pool = overlapping if overlapping else gaining
    best_idx = None
    best_score = -1.0
    for idx in pool:
        s = score(union_coverage(covered, table.coverage[idx]), lam)
        if best_idx is None or s > best_score:
            best_idx = idx
            best_score = s
    return best_idx


def is_terminal(state: CoverageState, table: CoverageTable, rcc: float) -> bool:
    """Covered area has reached rcc times the achievable area."""
    _check_pair(state, table)
    if not (0.0 <= rcc <= 1.0):
        raise ValueError(f"rcc must be in [0, 1], got {rcc}")
    # bit test first: full coverage must terminate even if incremental area
    # sums drift in the last ulp
    if table.achievable.bits & ~state.covered.bits == 0:
        return True
    return state.covered.area >= rcc * table.achievable.area


def coverage_fraction(area: float, table: CoverageTable) -> float:
    """Covered area as a plain float share of the achievable area (1.0 when
    nothing is achievable)."""
    achievable = table.achievable.area
    if achievable == 0.0:
        return 1.0
    return float(area / achievable)


def _run(table: CoverageTable, rcc: float, lam_at: Callable[[int], float], method: str,
         start: int | None) -> Plan:
    state = CoverageState.initial(table)
    order: list[int] = []
    lambdas: list[float] = []
    if start is not None:
        state = state.add(table, start)
        order.append(start)
    while not is_terminal(state, table, rcc):
        lam = lam_at(len(order) + 1)
        idx = next_best_view(state, table, lam)
        if idx is None:
            return Plan(tuple(order), tuple(lambdas), coverage_fraction(state.covered.area, table),
                        method, complete=False)
        order.append(idx)
        lambdas.append(lam)
        state = state.add(table, idx)
    return Plan(tuple(order), tuple(lambdas), coverage_fraction(state.covered.area, table), method)


def run_fixed_lambda(table: CoverageTable, lam: float, rcc: float = 1.0,
                     start: int | None = None) -> Plan:
    """Plan with one lam for every selection. lam = 0 is the greedy baseline.

    `start` seeds the plan with a forced first view; selection then continues
    from its coverage.
    """
    method = "greedy" if lam == 0.0 else "fixed-lambda"
    return _run(table, rcc, lambda _step: lam, method, start)


def run_alternating(table: CoverageTable, rcc: float = 1.0) -> Plan:
    """Fixed schedule baseline: lam 0 on the first selection, then 1, 0, 1, ..."""
    return _run(table, rcc, lambda step: 1.0 if step % 2 == 0 else 0.0, "alt-lambda", None)
