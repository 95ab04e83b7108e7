"""Two alternative reducers kept for comparison.

Both looked natural and both lose to the main greedy/LLL pair in practice;
they are retained so the benchmark harness can reproduce that negative
result.  random_combination re-centers one random column against the best
real-coefficient combination of all the others (rounded to integers, which
is usually too coarse).  mgs_pivot is pivoted Gram-Schmidt with rounded
projections and no swap condition.

Both keep their exact state in the shared IntRows and GramMatrix and
round only the coefficients that can round to a nonzero integer
(ROUNDS_TO_ZERO).  A tracked transform rides along in the rows with no
code here; the float reads (mgs's residual rows) take the basis part
only.  An mgs round scores every candidate pivot from one
matrix product over the residual columns instead of one dot product per
pair.  Its integer outputs matched the per-pair loop on every input
checked, but the batched products may round differently in the last
bit, so its intermediate floats are not promised bit for bit.
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
    ROUNDS_TO_ZERO,
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


def random_combination_step(rows: IntRows, gram: GramMatrix, j: int) -> bool:
    """Subtract from column j the rounded best combination of the others.

    Each nonzero coefficient is one apply_column_op.  The real-valued
    coefficients come from the normal equations over the Gram submatrix
    of the other nonzero columns, solved in floating point (any float
    error below 1/2 disappears in the rounding); a zero column would make
    that system singular and has nothing to contribute, so it is left
    out.  Coefficients of magnitude under ROUNDS_TO_ZERO are dropped
    without rounding each one.  Returns whether anything changed; a
    system that is still singular (dependent nonzero columns) is skipped
    with a warning.
    """
    fg = gram.g.astype(float)
    # Column j and every zero column stay out of the system.
    keep = fg.diagonal() != 0.0
    keep[j] = False
    others = np.flatnonzero(keep)
    sub = fg.take(others, 0).take(others, 1)
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
    for idx in np.flatnonzero(np.abs(coeffs) >= ROUNDS_TO_ZERO).tolist():
        apply_column_op(rows, gram, j, int(others[idx]),
                        nint_float(float(coeffs[idx])))
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

    def body(rows):
        gram = gram_compute(basis)
        rng = SplitMix64(cfg.seed)
        steps = 10 * basis.n if cfg.iterations is None else cfg.iterations
        return sum(
            random_combination_step(rows, gram, rng.below(basis.n))
            for _ in range(steps)
        )

    return run_reducer(basis, track_transform, body)


def mgs_pivot_reduce(basis: Basis, p: float = 2.0, *,
                     track_transform: bool = False) -> ReductionResult:
    """Pivoted Gram-Schmidt with rounded integer projections.

    Each round scores every residual column by the sum of p-th powers of
    the norms the basis would have after projecting the others off it,
    picks the best, and subtracts the rounded projection onto that
    pivot's floating orthogonalization from every remaining column (as
    an integer multiple of the pivot's basis column).  Columns that are
    zero or dependent on the chosen pivots are skipped; the first of
    equal scores wins.  Each round's moves go to the columns and the
    Gram matrix in one apply_moves call.

    A round is whole-array work on the R residual columns as float rows
    F: Q is F orthogonalized against each earlier pivot in turn, and
    X = F Q^T / |Q|^2 holds every coefficient of a column onto a
    candidate, so no temporary exceeds an R x m or R x R float array.
    Only coefficients x with |x| >= ROUNDS_TO_ZERO are rounded, and the
    squared norms they give are exact; every other column keeps its
    squared norm g[s][s].  Only the p/2 powers and their sum are
    floating, folded left to right: chosen pivots, the candidate, then
    the other residual columns in order.  The batched products can
    differ in the last bit from one dot product per pair; the exact
    outputs matched the per-pair loop on every input checked, but the
    floats are not promised bit for bit.
    """
    if not p > 0:
        raise UsageError(f"p must be positive, got {p}")
    half_p = p / 2.0

    def body(rows):
        gram = gram_compute(basis)
        m = basis.m
        residual = list(range(basis.n))
        pivots: list[tuple[np.ndarray, float]] = []
        # fold_sum of the chosen pivots' terms in choice order; no move
        # ever targets a chosen column, so its term never changes.
        chosen_sum = 0.0
        while residual:
            # Read in place (projected_norm_sq reads Python ints from the
            # array), once per round: update_gram may widen gram.g.
            g, diag = gram.g, gram.diagonal()
            f = np.array([rows.rows[s][:m] for s in residual], dtype=float)
            q = f.copy()
            for qp, qpqp in pivots:
                q -= np.outer((q @ qp) / qpqp, qp)
            qq = np.einsum("ij,ij->i", q, q)
            # Zero rows are never candidates; 1.0 keeps the division quiet.
            x = (f @ q.T) / np.where(qq > 0.0, qq, 1.0)
            large = np.abs(x) >= ROUNDS_TO_ZERO
            # Column s's term when its coefficient rounds to zero.
            kept = [float(diag[s]) ** half_p for s in residual]
            best = None
            for ri, r in enumerate(residual):
                grr = diag[r]
                if grr == 0 or qq[ri] < RANK_FLOOR * grr:
                    continue
                terms = kept.copy()
                moves = []
                for i in np.flatnonzero(large[:, ri]).tolist():
                    if i == ri:
                        continue
                    s = residual[i]
                    c = nint_float(float(x[i, ri]))
                    moves.append((s, c))
                    terms[i] = float(projected_norm_sq(g, s, r, c, grr)) ** half_p
                del terms[ri]
                score = fold_sum([chosen_sum, kept[ri], *terms])
                if best is None or score < best[0]:
                    best = (score, ri, moves)
            if best is None:
                break
            _, ri, moves = best
            r = residual.pop(ri)
            apply_moves(rows, gram, r, moves)
            chosen_sum += kept[ri]
            qp = q[ri].copy()
            pivots.append((qp, float(qp @ qp)))
        return basis.n - len(residual)

    return run_reducer(basis, track_transform, body)
