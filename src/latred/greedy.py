"""Greedy monotone norm polishing.

Each iteration considers every column as a pivot, computes the rounded
projection coefficient of every other column onto it, and scores the basis
that projecting off that pivot would produce.  The pivot with the best
score is applied to all columns at once.  A pivot is its index k and its
moves, the sparse list of (j, c) pairs with c != 0 and j != k, each the
column operation column j -= c * column k.  Rounded projection never
increases any column norm, so the scores decrease monotonically and the
loop terminates at a (local) fixed point.

Everything the next selection needs is updated from its previous value
instead of being recomputed.  A pivot changes only the set S of columns it
moves, so the Gram matrix changes only in the rows and columns of S; the
update is core.update_gram, the one exact Gram update, in O(|S| n).
Beside it a PivotTable keeps, for every candidate pivot k, the set S_k of
columns its rounded projection would move and the exact change of each
one's squared norm; after a pivot it rescans the candidates in S and
re-tests only the entries in S of every other candidate, also O(|S| n).
Selection then costs O(n + sum of |S_k|) exact integer work for the
default p = 2, and one O(n) list pass per candidate in the other modes.
The columns are the core.IntRows that run_reducer hands every reducer,
each row carrying its transform column when one is tracked; a pivot
reaches them, and the Gram matrix, through one core.apply_moves call,
which writes nothing when any new entry would leave the signed 128-bit
range.

Scoring sums the p-th powers of the column norms.  The squared norms are
always computed exactly in integers.  For the default p = 2 the whole score
stays an exact integer, so the halting comparison is exact as well; other
exponents take the p/2 power in floating point and add the terms strictly
left to right (core.fold_sum), so a score does not depend on the Python
version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat

from .core import (
    Basis,
    GramMatrix,
    IntRows,
    ReductionResult,
    UsageError,
    apply_moves,
    fold_sum,
    gram_compute,
    nint_ratio,
    projected_norm_sq,
    run_reducer,
    update_gram,  # noqa: F401 -- the benchmark traces greedy.update_gram
)

SCORE_MODES = ("sum", "max")


@dataclass(frozen=True)
class ReduceConfig:
    """Options for reduce().

    p_schedule lists the exponents that are each run to convergence in
    order (the usual choice is starting at 2 and finishing at a smaller p).
    score_mode "max" replaces the sum of p-th powers with the maximum
    squared norm; it is a heuristic with no termination guarantee of its
    own beyond the same strict-descent halting rule, and in practice tends
    to shorten only the longest vectors.
    """

    p_schedule: tuple[float, ...] = (2.0,)
    score_mode: str = "sum"
    max_iterations: int | None = None

    def __post_init__(self):
        if self.score_mode not in SCORE_MODES:
            raise UsageError(f"score_mode must be one of {SCORE_MODES}")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise UsageError("max_iterations must be nonnegative")
        if not self.p_schedule:
            raise UsageError("p_schedule must be nonempty")
        for p in self.p_schedule:
            if not p > 0:
                raise UsageError(f"exponent must be positive, got {p}")


def _rounded(nums, dens) -> list[tuple[int, int]]:
    """(i, c) for every i whose rounded ratio c = nint(nums[i] / dens[i])
    is nonzero; a zero denominator (a zero pivot column) gives c = 0.

    This is the coefficient rule: column j's coefficient onto pivot k is
    nint(g[j][k] / g[k][k]).
    """
    # |x / d| < 1/2 rounds to zero; skip the division for those.
    return [(i, nint_ratio(x, d)) for i, x, d in zip(count(), nums, dens)
            if 0 < d <= 2 * abs(x)]


def coefficients_for_pivot(gram: GramMatrix, k: int) -> list[tuple[int, int]]:
    """Moves of pivot k: (j, c) for every column j != k whose rounded
    projection coefficient c onto column k is nonzero, in increasing j.

    A zero pivot column moves nothing.
    """
    gk = gram.g[k]
    # The pivot itself, whose ratio is 1, is not a move.
    return [(j, c) for j, c in _rounded(gk, repeat(gk[k])) if j != k]


class PivotTable:
    """What every candidate pivot would do, kept in step with one Gram matrix.

    rows[k] maps each column j whose rounded coefficient c onto pivot k is
    nonzero to the exact change, never positive, of column j's squared
    norm when c times column k is subtracted from it; columns absent from
    rows[k] keep their norm.  Building the table costs O(n^2); refresh()
    keeps it in step after each pivot in O(|S| n).  A negative new norm
    means the Gram matrix matches no basis and raises ArithmeticError.
    """

    __slots__ = ("gram", "rows")

    def __init__(self, gram: GramMatrix):
        self.gram = gram
        self.rows = [self._scan(k) for k in range(gram.n)]

    def _scan(self, k: int) -> dict[int, int]:
        g = self.gram.g
        gkk = g[k][k]
        return {j: projected_norm_sq(g, j, k, c, gkk) - g[j][j]
                for j, c in coefficients_for_pivot(self.gram, k)}

    def refresh(self, moves) -> None:
        """Bring the table in step after update_gram(self.gram, k, moves).

        Only the rows and columns of the moved set S changed, so every
        candidate's entry for each column j in S is re-tested against the
        new column j, and then every candidate in S is rescanned.
        """
        g = self.gram.g
        rows = self.rows
        diag = self.gram.diagonal()
        for j, _ in moves:
            gj = g[j]
            for row in rows:
                row.pop(j, None)
            for i, c in _rounded(gj, diag):
                rows[i][j] = projected_norm_sq(g, j, i, c, diag[i]) - diag[j]
        for i, _ in moves:
            rows[i] = self._scan(i)


@dataclass
class GreedyState:
    """Mutable working set owned by one reduce() call.

    rows holds the columns (with their transform part when one is
    tracked).  table is built from gram on construction and kept in step
    by apply_pivot.
    """

    rows: IntRows
    gram: GramMatrix
    iteration: int = 0
    table: PivotTable = field(init=False)

    def __post_init__(self):
        self.table = PivotTable(self.gram)


def _scorer(diag: list[int], p: float, mode: str):
    """score(row): the score of the basis whose squared column norms are
    diag changed by row's entries (column -> change of its squared norm).

    sum mode sums the p-th powers of the column norms (an exact integer,
    the trace plus the row's norm changes, when p == 2); max mode returns
    the largest squared norm.
    """
    if mode == "sum" and p == 2.0:
        trace = sum(diag)
        return lambda row: trace + sum(row.values())
    if mode == "max":
        weight, total = (lambda v: v), max
    else:
        half_p = p / 2.0
        weight, total = (lambda v: float(v) ** half_p), fold_sum
    base = [weight(d) for d in diag]

    def score(row):
        terms = base.copy()
        for j, dv in row.items():
            terms[j] = weight(diag[j] + dv)
        return total(terms)

    return score


def basis_score(gram: GramMatrix, p: float, mode: str = "sum"):
    """Score of the basis as it stands (the do-nothing pivot)."""
    return _scorer(gram.diagonal(), p, mode)({})


def select_pivot(gram: GramMatrix, p: float, mode: str = "sum",
                 table: PivotTable | None = None):
    """Best pivot: (k, moves, score).

    moves is coefficients_for_pivot(gram, k), ready for apply_pivot, and
    score is the score of the basis that applying the pivot would produce.
    Every candidate is scored from table, which must be in step with gram;
    without one a fresh PivotTable is built, at O(n^2).  Ties go to the
    smallest index.  Scoring costs O(n + sum of |S_k|) for p = 2 in sum
    mode and one O(n) list pass per candidate otherwise.
    """
    if table is None:
        table = PivotTable(gram)
    elif table.gram is not gram:
        raise ValueError("pivot table belongs to another Gram matrix")
    score = _scorer(gram.diagonal(), p, mode)
    scores = [score(row) for row in table.rows]
    k = min(range(len(scores)), key=scores.__getitem__)
    return k, coefficients_for_pivot(gram, k), scores[k]


def apply_pivot(state: GreedyState, k: int, moves) -> None:
    """Apply pivot k's moves to the columns and the Gram, then the table.

    With S the set of moved columns, the column updates cost O(|S| m), and
    the Gram update (update_gram) and the table refresh O(|S| n) each.
    The moves must have been computed from the state's current Gram.  The
    columns and the Gram matrix move through one core.apply_moves call,
    so on OverflowError the state is unchanged.
    """
    apply_moves(state.rows, state.gram, k, moves)
    state.table.refresh(moves)
    state.iteration += 1


def reduce(basis: Basis, config: ReduceConfig | None = None, *,
           track_transform: bool = False, on_iteration=None) -> ReductionResult:
    """Run the greedy polish to convergence.

    For each exponent in the schedule, the best pivot is applied as long
    as its score strictly improves on the current one; when no pivot
    improves, the schedule advances.  No column's norm ever increases, so
    with p = 2 the exact integer score drops by at least 1 per iteration
    and termination is guaranteed.

    max_iterations, when set, caps the pivots applied over the whole
    schedule; the budget is checked before each pivot is selected.
    on_iteration, when given, is called with the state after every applied
    pivot (used by the verification suites).
    """
    cfg = config if config is not None else ReduceConfig()
    budget = cfg.max_iterations

    def body(rows):
        state = GreedyState(rows, gram_compute(basis))
        for p in cfg.p_schedule:
            current = basis_score(state.gram, p, cfg.score_mode)
            while budget is None or state.iteration < budget:
                k, moves, score = select_pivot(state.gram, p, cfg.score_mode,
                                              state.table)
                if not score < current:
                    break
                apply_pivot(state, k, moves)
                # The pivot's score is the new basis's score, exactly.
                current = score
                if on_iteration is not None:
                    on_iteration(state)
        return state.iteration

    return run_reducer(basis, track_transform, body)
