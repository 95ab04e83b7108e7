"""Two alternative reducers kept for comparison.

Both looked natural and both lose to the main greedy/LLL pair in practice;
they are retained so the benchmark harness can reproduce that negative
result.  random_combination re-centers one random column against the best
real-coefficient combination of all the others (rounded to integers, which
is usually too coarse).  mgs_pivot is pivoted Gram-Schmidt with rounded
projections and no swap condition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    Basis,
    GramMatrix,
    IntRows,
    RANK_FLOOR,
    ReductionResult,
    UsageError,
    apply_column_op,
    apply_moves,
    fold_sum,
    gram_compute,
    nint_float,
    projected_norm_sq,
    run_reducer,
)
from .genlat import SplitMix64

log = logging.getLogger(__name__)

VARIANTS = ("random_combination", "mgs_pivot")


@dataclass(frozen=True)
class AltConfig:
    """Options for random_combination_reduce; iterations None means 10 * n."""

    # No reducer reads variant; it stays because the benchmark passes it.
    variant: str = "random_combination"
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}")
        if self.iterations is not None and self.iterations < 0:
            raise UsageError("iterations must be nonnegative")


def random_combination_step(rows: IntRows, gram: GramMatrix, j: int,
                            transform: IntRows | None = None) -> bool:
    """Subtract from column j the rounded best combination of the others.

    rows holds the basis columns and transform, when given, the transform
    columns; each nonzero coefficient is one apply_column_op.  The
    real-valued coefficients come from the normal equations over the
    Gram submatrix without row/column j, solved in floating point (any
    float error below 1/2 disappears in the rounding).  Returns whether
    anything changed; a singular system is skipped with a warning.
    """
    others = [i for i in range(gram.n) if i != j]
    fg = np.array(gram.g, dtype=float)
    sub = fg[np.ix_(others, others)]
    rhs = fg[others, j]
    try:
        coeffs = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        log.warning("singular normal equations for column %d; step skipped", j)
        return False
    if not np.all(np.isfinite(coeffs)):
        log.warning("non-finite coefficients for column %d; step skipped", j)
        return False
    changed = False
    for idx, k in enumerate(others):
        c = nint_float(float(coeffs[idx]))
        if c:
            apply_column_op(rows, gram, transform, j, k, c)
            changed = True
    return changed


def random_combination_reduce(basis: Basis, config: AltConfig | None = None, *,
                              track_transform: bool = False) -> ReductionResult:
    """Run random_combination_step for a fixed budget of random columns.

    The budget is config.iterations, or 10 * n when that is None.  Column
    norms can go up as well as down; there is no monotonicity here, which
    is exactly why this variant is only a baseline.
    """
    cfg = config if config is not None else AltConfig()

    def body(rows, transform):
        gram = gram_compute(basis)
        rng = SplitMix64(cfg.seed)
        steps = 10 * basis.n if cfg.iterations is None else cfg.iterations
        return sum(
            random_combination_step(rows, gram, rng.below(basis.n), transform)
            for _ in range(steps)
        )

    return run_reducer(basis, track_transform, body)


def mgs_pivot_reduce(basis: Basis, p: float = 2.0, *,
                     track_transform: bool = False) -> ReductionResult:
    """Pivoted Gram-Schmidt with rounded integer projections.

    Each round scores every residual column by the sum of p-th powers of
    the norms the basis would have after projecting the others off it,
    picks the best, orthogonalizes it against the previous pivots in
    floating point, and subtracts the rounded projection onto that
    orthogonalized pivot from every remaining column (as an integer
    multiple of the pivot's basis column).  Squared norms for the scores
    are exact; only the p/2 powers and their left-to-right sum are
    floating.  Columns that are zero or dependent on the chosen pivots
    are skipped.  Each round's moves go to the basis, the transform and
    the Gram matrix in one apply_moves call.
    """
    if not p > 0:
        raise UsageError(f"p must be positive, got {p}")
    half_p = p / 2.0

    def body(rows, transform):
        gram = gram_compute(basis)
        residual = list(range(basis.n))
        pivot_qs: list[np.ndarray] = []
        chosen: list[int] = []
        while residual:
            g = gram.g
            fcols = {s: rows.rows[s].astype(float) for s in residual}
            best = None
            for r in residual:
                grr = g[r][r]
                if grr == 0:
                    continue
                q = fcols[r].copy()
                for qprev in pivot_qs:
                    q -= (float(q @ qprev) / float(qprev @ qprev)) * qprev
                qq = float(q @ q)
                if qq < RANK_FLOOR * grr:
                    continue
                terms = [float(g[t][t]) ** half_p for t in chosen]
                terms.append(float(grr) ** half_p)
                moves = []
                for s in residual:
                    if s == r:
                        continue
                    c = nint_float(float(fcols[s] @ q) / qq)
                    if c:
                        moves.append((s, c))
                    terms.append(
                        float(projected_norm_sq(g, s, r, c, grr)) ** half_p)
                score = fold_sum(terms)
                if best is None or score < best[0]:
                    best = (score, r, q, moves)
            if best is None:
                break
            _, r, q, moves = best
            apply_moves(rows, gram, transform, r, moves)
            residual.remove(r)
            chosen.append(r)
            pivot_qs.append(q)
        return len(chosen)

    return run_reducer(basis, track_transform, body)
