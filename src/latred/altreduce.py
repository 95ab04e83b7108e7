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
    RANK_FLOOR,
    ReductionResult,
    TransformRecord,
    UsageError,
    apply_column_op,
    fold_sum,
    gram_compute,
    nint_float,
    projected_norm_sq,
    run_reducer,
    update_gram,
)
from .genlat import SplitMix64

log = logging.getLogger(__name__)

VARIANTS = ("random_combination", "mgs_pivot")


@dataclass(frozen=True)
class AltConfig:
    variant: str = "random_combination"
    p: float = 2.0
    iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}")
        if not self.p > 0:
            raise UsageError(f"p must be positive, got {self.p}")
        if self.iterations < 0:
            raise UsageError("iterations must be nonnegative")


def random_combination_step(basis: Basis, gram: GramMatrix, j: int,
                            transform: TransformRecord | None = None) -> bool:
    """Subtract from column j the rounded best combination of the others.

    The real-valued coefficients come from the normal equations over the
    Gram submatrix without row/column j, solved in floating point (any
    float error below 1/2 disappears in the rounding).  Returns whether
    anything changed; a singular system is skipped with a warning.
    """
    n = basis.n
    others = [i for i in range(n) if i != j]
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
            apply_column_op(basis, gram, transform, j, k, c)
            changed = True
    return changed


def random_combination_reduce(basis: Basis, config: AltConfig | None = None, *,
                              track_transform: bool = False) -> ReductionResult:
    """Run random_combination_step for a fixed budget of random columns.

    Column norms can go up as well as down; there is no monotonicity here,
    which is exactly why this variant is only a baseline.
    """
    cfg = config if config is not None else AltConfig()

    def body(work, transform):
        gram = gram_compute(work)
        rng = SplitMix64(cfg.seed)
        return sum(
            random_combination_step(work, gram, rng.below(work.n), transform)
            for _ in range(cfg.iterations)
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
    are skipped.  The Gram matrix is updated once per round, by one
    update_gram call for the chosen pivot's moves.
    """
    cfg = AltConfig(variant="mgs_pivot", p=p)  # checks p
    half_p = cfg.p / 2.0

    def body(work, transform):
        gram = gram_compute(work)
        residual = list(range(work.n))
        pivot_qs: list[np.ndarray] = []
        chosen: list[int] = []
        while residual:
            g = gram.g
            fcols = {s: np.array(work.cols[s], dtype=float) for s in residual}
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
            for s, c in moves:
                apply_column_op(work, None, transform, s, r, c)
            update_gram(gram, r, moves)
            residual.remove(r)
            chosen.append(r)
            pivot_qs.append(q)
        return len(chosen)

    return run_reducer(basis, track_transform, body)
