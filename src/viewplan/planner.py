"""Sequential view selection over a coverage table.

Each step picks the unchosen view whose union with the current coverage scores
highest at the step's lam. Candidates must overlap what is already covered
(so the plan grows a connected region) unless nothing overlapping remains, and
views that add no new triangle are never taken.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .mesh import Submesh, check_lambda, score_value, union_coverage
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


@dataclass(frozen=True)
class CoverageState:
    """The chosen views plus the union of their coverage.

    `chosen` is an int with bit i set when view i is chosen. `covered` holds
    every chosen view's coverage (`initial` and `add` keep it so), so a chosen
    view never adds a triangle.
    """

    chosen: int
    covered: Submesh

    @classmethod
    def initial(cls, table: CoverageTable) -> CoverageState:
        return cls(0, Submesh.empty(table.mesh))

    def add(self, table: CoverageTable, view_idx: int) -> CoverageState:
        if not (0 <= view_idx < table.n_views):
            raise ValueError(f"view index {view_idx} out of range")
        if (self.chosen >> view_idx) & 1:
            raise ValueError(f"view {view_idx} already chosen")
        covered = union_coverage(self.covered, table.coverage[view_idx])
        return CoverageState(self.chosen | (1 << view_idx), covered)


def _check_pair(state: CoverageState, table: CoverageTable) -> None:
    if state.covered.mesh is not table.mesh:
        raise ValueError("state and table refer to different meshes")


def _pool(state: CoverageState, table: CoverageTable):
    """(patches, rows, lookup, inside): the table's `PatchArrays`, the views
    of the selection pool (see `candidate_scores`) ascending, and
    `patches.overlap(state.covered)`."""
    _check_pair(state, table)
    patches = table.patches
    lookup, inside = patches.overlap(state.covered)
    gaining = inside < patches.size
    rows = (gaining & (inside > 0)).nonzero()[0]
    if len(rows) == 0:
        rows = gaining.nonzero()[0]
    return patches, rows, lookup, inside


def candidate_scores(state: CoverageState, table: CoverageTable,
                     lam: float) -> list[tuple[int, float, float, float]]:
    """(view, area, boundary length, score) of the union of the covered region
    with each view in the selection pool, views ascending, measured for the
    whole pool in one array pass.

    The pool holds the views that add at least one new triangle (so no chosen
    view) and overlap the covered region; the overlap requirement is waived
    when the covered region is empty, or when no such view overlaps it. Each
    area, length and score equals `union_coverage(state.covered,
    table.coverage[view])`'s and its `score(..., lam)`. The pool, areas and
    lengths depend on the covered region only, not on lam or on which views
    were chosen.
    """
    check_lambda(lam)
    patches, rows, lookup, inside = _pool(state, table)
    area, length = patches.unions(state.covered, rows, lookup, inside)
    return [(v, a, b, score_value(a, b, lam))
            for v, a, b in zip(rows.tolist(), area.tolist(), length.tolist())]


def next_best_view(state: CoverageState, table: CoverageTable, lam: float) -> int | None:
    """Index of the best-scoring view of the selection pool
    (`candidate_scores`), or None when no view adds coverage. Ties go to the
    lowest index. At lam 0 the score is the union's area, so the boundary
    lengths are not measured."""
    check_lambda(lam)
    patches, rows, lookup, inside = _pool(state, table)
    if len(rows) == 0:
        return None
    if lam == 0.0:
        area = patches.areas(state.covered, rows, lookup, inside)
        return int(rows[area.argmax()])  # argmax returns the first of equal maxima
    area, length = patches.unions(state.covered, rows, lookup, inside)
    scores = [score_value(a, b, lam) for a, b in zip(area.tolist(), length.tolist())]
    return int(rows[scores.index(max(scores))])


def _covers_achievable(covered: Submesh, table: CoverageTable) -> bool:
    """The covered triangles are all the achievable ones. Covered triangles
    are achievable, so the mask test runs only once the counts are equal."""
    achievable = table.achievable
    return covered.count >= achievable.count and not (achievable.mask > covered.mask).any()


def is_terminal(state: CoverageState, table: CoverageTable, rcc: float) -> bool:
    """Covered area has reached rcc times the achievable area."""
    _check_pair(state, table)
    if not (0.0 <= rcc <= 1.0):
        raise ValueError(f"rcc must be in [0, 1], got {rcc}")
    # set test first: full coverage must terminate even if incremental area
    # sums drift in the last ulp
    if _covers_achievable(state.covered, table):
        return True
    return state.covered.area >= rcc * table.achievable.area


def coverage_fraction(area: float, table: CoverageTable, full: bool) -> float:
    """Covered area as a plain float share of the achievable area; exactly
    1.0 when `full` (the covered triangles are all the achievable ones) or
    when nothing is achievable. A full plan's area sums the same triangles as
    the achievable area, but view by view in another order, so their ratio
    can round to either side of 1."""
    achievable = table.achievable.area
    if full or achievable == 0.0:
        return 1.0
    return float(area / achievable)


def run_policy(table: CoverageTable, rcc: float,
               lam_at: Callable[[CoverageState, int], float], method: str,
               start: int | None = None) -> Plan:
    """Plan by asking `lam_at(state, step)` for each selection's lam and
    handing it to the selector, until the coverage target is reached. Steps
    count from 1; a forced `start` view is step 1 and has no lam. The plan is
    incomplete if the selector stalls first."""
    state = CoverageState.initial(table)
    order: list[int] = []
    lambdas: list[float] = []
    if start is not None:
        state = state.add(table, start)
        order.append(start)
    complete = True
    while not is_terminal(state, table, rcc):
        lam = lam_at(state, len(order) + 1)
        idx = next_best_view(state, table, lam)
        if idx is None:
            complete = False
            break
        order.append(idx)
        lambdas.append(lam)
        state = state.add(table, idx)
    fraction = coverage_fraction(state.covered.area, table,
                                 _covers_achievable(state.covered, table))
    return Plan(tuple(order), tuple(lambdas), fraction, method, complete)


def run_fixed_lambda(table: CoverageTable, lam: float, rcc: float = 1.0,
                     start: int | None = None) -> Plan:
    """Plan with one lam for every selection. lam = 0 is the greedy baseline.

    `start` seeds the plan with a forced first view; selection then continues
    from its coverage.
    """
    check_lambda(lam)
    method = "greedy" if lam == 0.0 else "fixed-lambda"
    return run_policy(table, rcc, lambda _state, _step: lam, method, start)


def run_alternating(table: CoverageTable, rcc: float = 1.0) -> Plan:
    """Fixed schedule baseline: lam 0 on the first selection, then 1, 0, 1, ..."""
    return run_policy(table, rcc, lambda _state, step: 1.0 if step % 2 == 0 else 0.0,
                      "alt-lambda")
