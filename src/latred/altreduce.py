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
only.  mgs carries its orthogonal residuals Q from round to round and
projects them off each new pivot once, so a round does no work for the
earlier pivots.  An mgs round is one selection step over every candidate
pivot at once: one matrix product over the residual columns gives every
coefficient, the moved columns' exact new squared norms are computed as
one Python-int array, and one left-to-right fold scores every
candidate.  Its integer outputs matched the per-pair loop on every input
checked, but the batched products may round differently in the last
bit, so its intermediate floats are not promised bit for bit.
"""

from __future__ import annotations

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
    corrupt_gram,
    gram_compute,
    nint_float,
    run_reducer,
    warn,
)
from .genlat import SplitMix64

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

    The whole rounded combination is one apply_column_op, which writes
    column j and its Gram row once.  The real-valued coefficients come
    from the normal equations over the Gram submatrix of the other
    nonzero columns, solved in floating point (any float error below 1/2
    disappears in the rounding); a zero column would make that system
    singular and has nothing to contribute, so it is left out.
    Coefficients of magnitude under ROUNDS_TO_ZERO are dropped without
    rounding each one.  Returns whether anything changed; a system that
    is still singular (dependent nonzero columns) is skipped with a
    warning.
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
        warn(__name__, "singular normal equations for column %d; "
             "step skipped", j)
        return False
    if not np.all(np.isfinite(coeffs)):
        warn(__name__, "non-finite coefficients for column %d; "
             "step skipped", j)
        return False
    large = np.flatnonzero(np.abs(coeffs) >= ROUNDS_TO_ZERO)
    if not len(large):
        return False
    apply_column_op(rows, gram, j, list(zip(
        others[large].tolist(), map(nint_float, coeffs[large].tolist()))))
    return True


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
        steps = 10 * basis.n if cfg.iterations is None else cfg.iterations
        columns = SplitMix64(cfg.seed).draw(steps, basis.n).tolist()
        return sum(random_combination_step(rows, gram, j) for j in columns)

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
    F, rebuilt from the integer rows, and their orthogonal residuals Q,
    carried across rounds: Q starts as the float basis, and after each
    pivot its row is dropped and the rest are projected off it once.  In
    exact arithmetic that is F orthogonalized against every chosen pivot,
    since a move subtracts a multiple of the pivot's column, which the
    projection removes; the float bits can differ from orthogonalizing F
    again each round.  X = F Q^T / |Q|^2 holds every coefficient of a
    column onto a candidate, so no temporary exceeds an R x m or R x R
    float array.
    Only candidates that are neither zero nor dependent have their
    coefficients x rounded, and only where |x| >= ROUNDS_TO_ZERO; the
    squared norms g[s][s] + c^2 g[r][r] - 2c g[s][r] they give are
    computed exactly on Python ints (such a norm can pass int64 while
    every Gram entry fits it), and every other column keeps g[s][s].  Only the p/2 powers and their sum are floating: one
    candidates x columns array holds each candidate's terms, its own
    slot 0.0, and one np.add.accumulate folds every row left to right:
    chosen pivots, the candidate, then the other residual columns in
    order (adding 0.0 changes no partial sum).  The batched products can
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
        residual = np.arange(basis.n)
        # Row s of q: residual column s orthogonalized against every
        # chosen pivot, carried from round to round.
        q = basis.array.astype(float)
        # The chosen pivots' terms added left to right in choice order; no
        # move ever targets a chosen column, so its term never changes.
        chosen_sum = 0.0
        while len(residual):
            # Read once per round: update_gram may widen gram.g.
            g = gram.g
            d = g.diagonal()[residual].astype(object)
            f = np.array([rows.rows[s][:m] for s in residual], dtype=float)
            qq = np.einsum("ij,ij->i", q, q)
            # Zero rows are never candidates; 1.0 keeps the division quiet.
            x = (f @ q.T) / np.where(qq > 0.0, qq, 1.0)
            # Zero and dependent columns are not candidates, and their
            # coefficients, however large, are never rounded.
            cand = np.flatnonzero((d != 0)
                                  & (qq >= RANK_FLOOR * d.astype(float)))
            if not len(cand):
                break
            own = np.arange(len(cand))
            large = np.abs(x[:, cand]) >= ROUNDS_TO_ZERO
            large[cand, own] = False
            # Every moved (column i, candidate r) pair, by candidate.
            ci, i = np.nonzero(large.T)
            r = cand[ci]
            c = np.array([nint_float(v) for v in x[i, r].tolist()],
                         dtype=object)
            gir = g[residual[i], residual[r]].astype(object)
            norms = d[i] + c * (c * d[r] - 2 * gir)
            bad = np.flatnonzero(norms < 0)
            if len(bad):
                raise corrupt_gram(*residual[[i[bad[0]], r[bad[0]]]].tolist())
            # terms[k]: every residual column's term under candidate k, its
            # own slot 0.0; adding 0.0 leaves a left-to-right sum as it is.
            kept = np.array([float(v) ** half_p for v in d.tolist()])
            terms = np.tile(kept, (len(cand), 1))
            terms[ci, i] = [float(v) ** half_p for v in norms.tolist()]
            terms[own, cand] = 0.0
            # Column 0 takes the fold's first two terms, chosen_sum and the
            # candidate's own; float addition is commutative.
            terms[:, 0] += chosen_sum + kept[cand]
            best = int(np.argmin(np.add.accumulate(terms, axis=1)[:, -1]))
            ri = int(cand[best])
            chosen = ci == best
            apply_moves(rows, gram, int(residual[ri]),
                        list(zip(residual[i[chosen]].tolist(),
                                 c[chosen].tolist())))
            residual = np.delete(residual, ri)
            chosen_sum += float(kept[ri])
            qp = q[ri]
            q = np.delete(q, ri, axis=0)
            q -= np.outer((q @ qp) / float(qp @ qp), qp)
        return basis.n - len(residual)

    return run_reducer(basis, track_transform, body)
