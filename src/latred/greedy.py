"""Greedy monotone norm polishing.

Each iteration considers every column as a pivot, computes the rounded
projection coefficient of every other column onto it, and scores the basis
that projecting off that pivot would produce.  The pivot with the best
score is applied to all columns at once, and the Gram matrix is updated in
O(n^2) from its previous value instead of being recomputed.  Rounded
projection never increases any column norm, so the scores decrease
monotonically and the loop terminates at a (local) fixed point.

Scoring sums the p-th powers of the column norms.  The squared norms are
always computed exactly in integers; only the p/2 power and the sum run in
floating point, and for the default p = 2 the whole score stays an exact
integer so the halting comparison is exact as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Basis,
    GramMatrix,
    INT128_MAX,
    INT128_MIN,
    ReductionResult,
    TransformRecord,
    UsageError,
    apply_column_op,
    gram_compute,
    nint_ratio,
    projected_norm_sq,
    run_reducer,
)

SCORE_MODES = ("sum", "max")


@dataclass(frozen=True)
class ReduceConfig:
    """Options for reduce().

    p_schedule, when given, lists exponents that are each run to
    convergence in order (the usual choice is starting at 2 and finishing
    at a smaller p); otherwise the single exponent p is used.  score_mode
    "max" replaces the sum of p-th powers with the maximum squared norm;
    it is a heuristic with no termination guarantee of its own beyond the
    same strict-descent halting rule, and in practice tends to shorten
    only the longest vectors.
    """

    p: float = 2.0
    p_schedule: tuple[float, ...] | None = None
    score_mode: str = "sum"
    max_iterations: int | None = None

    def __post_init__(self):
        if self.score_mode not in SCORE_MODES:
            raise UsageError(f"score_mode must be one of {SCORE_MODES}")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise UsageError("max_iterations must be nonnegative")
        for p in self.schedule():
            if not p > 0:
                raise UsageError(f"exponent must be positive, got {p}")

    def schedule(self) -> tuple[float, ...]:
        if self.p_schedule is not None:
            if not self.p_schedule:
                raise UsageError("p_schedule must be nonempty")
            return tuple(self.p_schedule)
        return (self.p,)


@dataclass
class PivotCoefficients:
    """Rounded projection coefficients c for one candidate pivot k.

    c[k] is always 0; for the other columns c[j] is the integer nearest to
    g[j][k] / g[k][k], or 0 when the pivot column is zero.
    """

    k: int
    c: list[int]


@dataclass
class GreedyState:
    """Mutable working set owned by one reduce() call."""

    basis: Basis
    gram: GramMatrix
    transform: TransformRecord | None = None
    iteration: int = 0


def coefficients_for_pivot(gram: GramMatrix, k: int) -> PivotCoefficients:
    """Rounded projection coefficients of every column onto column k."""
    g = gram.g
    n = len(g)
    gk = g[k]
    gkk = gk[k]
    c = [0] * n
    if gkk == 0:
        return PivotCoefficients(k, c)
    for j in range(n):
        if j == k:
            continue
        gjk = gk[j]
        # |g_jk / g_kk| < 1/2 rounds to zero; skip the division for those.
        if 2 * gjk >= gkk or -2 * gjk >= gkk:
            c[j] = nint_ratio(gjk, gkk)
    return PivotCoefficients(k, c)


def pivot_score(gram: GramMatrix, coeffs: PivotCoefficients, p: float,
                mode: str = "sum"):
    """Score of the basis that applying this pivot would produce.

    sum mode returns the sum of p-th powers of the column norms (an exact
    integer when p == 2); max mode returns the largest squared norm.
    """
    g = gram.g
    n = len(g)
    k = coeffs.k
    c = coeffs.c
    gkk = g[k][k]
    if mode == "max":
        best = 0
        for j in range(n):
            cj = c[j]
            v = projected_norm_sq(g, j, k, cj, gkk) if cj else g[j][j]
            if v > best:
                best = v
        return best
    if p == 2.0:
        total = 0
        for j in range(n):
            cj = c[j]
            total += projected_norm_sq(g, j, k, cj, gkk) if cj else g[j][j]
        return total
    half_p = p / 2.0
    total = 0.0
    for j in range(n):
        cj = c[j]
        v = projected_norm_sq(g, j, k, cj, gkk) if cj else g[j][j]
        total += float(v) ** half_p
    return total


def basis_score(gram: GramMatrix, p: float, mode: str = "sum"):
    """Score of the basis as it stands (the do-nothing pivot)."""
    diag = gram.diagonal()
    if mode == "max":
        return max(diag)
    if p == 2.0:
        return sum(diag)
    half_p = p / 2.0
    return sum(float(d) ** half_p for d in diag)


def select_pivot(gram: GramMatrix, p: float, mode: str = "sum"):
    """Best pivot by exhaustive scan: (index, coefficients, score).

    Ties go to the smallest index.  Total cost is O(n^2).
    """
    best_k = 0
    best_coeffs = None
    best_score = None
    for k in range(gram.n):
        coeffs = coefficients_for_pivot(gram, k)
        score = pivot_score(gram, coeffs, p, mode)
        if best_score is None or score < best_score:
            best_k, best_coeffs, best_score = k, coeffs, score
    return best_k, best_coeffs, best_score


def update_gram(gram: GramMatrix, coeffs: PivotCoefficients) -> None:
    """Apply the pivot's effect to the Gram matrix in O(n^2).

    Uses the bilinear identity for g'[j][l] after every column j has had
    c[j] times the pivot column subtracted; only the upper triangle is
    computed, the mirror entry is assigned alongside.
    """
    g = gram.g
    n = len(g)
    k = coeffs.k
    c = coeffs.c
    gk_old = list(g[k])
    gkk = gk_old[k]
    for j in range(n):
        cj = c[j]
        gj = g[j]
        gkj = gk_old[j]
        for l in range(j, n):
            cl = c[l]
            if cj == 0 and cl == 0:
                continue
            v = gj[l] + cj * cl * gkk - cj * gk_old[l] - cl * gkj
            if v > INT128_MAX or v < INT128_MIN:
                raise OverflowError(
                    f"Gram entry ({j},{l}) exceeds the signed 128-bit range"
                )
            gj[l] = v
            g[l][j] = v


def apply_pivot(state: GreedyState, k: int, coeffs: PivotCoefficients) -> None:
    """Project every column off the pivot and update Gram and transform.

    Column updates cost O(mn); the Gram update costs O(n^2).  The
    coefficients must have been computed from the state's current Gram.
    """
    for j, cj in enumerate(coeffs.c):
        if cj:
            apply_column_op(state.basis, None, state.transform, j, k, cj)
    update_gram(state.gram, coeffs)
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

    def body(work, transform):
        state = GreedyState(work, gram_compute(work), transform)
        for p in cfg.schedule():
            current = basis_score(state.gram, p, cfg.score_mode)
            while budget is None or state.iteration < budget:
                k, coeffs, score = select_pivot(state.gram, p, cfg.score_mode)
                if not score < current:
                    break
                apply_pivot(state, k, coeffs)
                # The pivot's score is the new basis's score, exactly.
                current = score
                if on_iteration is not None:
                    on_iteration(state)
        return state.iteration

    return run_reducer(basis, track_transform, body)
