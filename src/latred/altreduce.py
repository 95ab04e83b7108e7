"""Two alternative reducers kept for comparison.

Both looked natural and both lose to the main greedy/LLL pair in practice;
they are retained so the benchmark harness can reproduce that negative
result.  random_combination re-centers one random column against the best
real-coefficient combination of all the others (rounded to integers, which
is usually too coarse).  mgs_pivot is pivoted Gram-Schmidt with rounded
projections and no swap condition.

rand-comb keeps a float64 H, approximately G^-1, and no exact Gram
matrix: H is np.linalg.inv of the float copy of a Gram matrix built from
the rows with one gram_compute, before the first step and again after
every n useful steps, and each useful step updates it in place by a
rank-two update (Sherman-Morrison; Hager, SIAM Review 1989).  A step
reads its coefficients from H in O(n) and updates it in O(|moves| n),
where one solve of the (n - 1) x (n - 1) normal equations costs O(n^3).
A step solves instead, as chosen by the input and never by an option,
in four cases: (a) a zero column, or an inv that raises (rank-deficient
input); (b) a rebuilt H with ||G||_1 ||H||_1 n >= CONDITION_LIMIT
(numerically singular); (c) a coefficient from H that is not finite;
(d) a coefficient from H within TIE_WIDTH (1 + |x|) of a half-integer, a
near tie where the two float paths can round apart.  A step that solves
builds the exact Gram matrix from the rows with one gram_compute, solves
from it and drops it.  Columns and transform change only through
apply_column_op with rounded integer coefficients, so no exact value
depends on H.  So rand-comb checks its squared norms against the signed
128-bit range in each gram_compute and in run_reducer's summary of the
output, not in the step that made them; a norm that a later step brings
back inside the range before either is not seen.

Both keep their exact columns in the shared IntRows, mgs its exact
GramMatrix too, and round only the coefficients that can round to a
nonzero integer (ROUNDS_TO_ZERO).  A tracked transform rides along in
the rows with no code here; the float reads (mgs's residual rows) take
the basis part only.  mgs carries the float rows F of its residual
columns and their orthogonal residuals Q from round to round: only a
moved column's row of F is cast again, and Q is projected off each new
pivot once, so a round does no work for the earlier pivots.  An mgs
round is one selection step over every candidate pivot at once: one
matrix product over the residual columns gives every coefficient, the
moved columns' exact new squared norms are computed as one Python-int
array, and one left-to-right fold scores every candidate.  Its integer
outputs matched the per-pair loop on every input checked, but the
batched products may round differently in the last bit, so its
intermediate floats are not promised bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Basis,
    GramMatrix,
    IntRows,
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

VARIANTS = ("random_combination",)


@dataclass(frozen=True)
class AltConfig:
    """Options for random_combination_reduce; iterations None means 10 * n."""

    # rand-comb is the one variant; the field stays because the benchmark
    # passes it.
    variant: str = "random_combination"
    iterations: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}")
        if self.iterations is not None and self.iterations < 0:
            raise UsageError("iterations must be nonnegative")

    def run(self, basis: Basis, track_transform=False) -> ReductionResult:
        """random_combination_reduce with this config: a stage of
        core.pipeline."""
        return random_combination_reduce(basis, self,
                                         track_transform=track_transform)


@dataclass(frozen=True)
class MGSConfig:
    """Options for mgs_pivot_reduce: p, the scoring exponent.

    mgs adds float p/2 powers and has no max score, so p must be positive
    and finite: at p = inf every candidate would score inf.
    """

    p: float = 2.0

    def __post_init__(self):
        if not self.p > 0:
            raise UsageError(f"p must be positive, got {self.p}")
        if self.p == np.inf:
            raise UsageError("p must be finite for mgs, got inf")

    def run(self, basis: Basis, track_transform=False) -> ReductionResult:
        """mgs_pivot_reduce with this config: a stage of core.pipeline."""
        return mgs_pivot_reduce(basis, self.p, track_transform=track_transform)


# Relative squared-norm floor under which mgs counts a float residual as a
# dependent column.
RANK_FLOOR = 1e-30

# Steps draw their columns this many at a time, so memory does not grow
# with the step budget.  Split bounded draws give the stream of one draw.
COLUMN_BLOCK = 4096

# A rebuilt H is used only while ||G||_1 ||H||_1 n, a bound on the
# condition number of G times n, stays below this: past it the float
# inverse keeps too few correct bits to stand in for the solve, and the
# steps solve until the next rebuild.
CONDITION_LIMIT = 2.0 ** 50

# A coefficient from H within TIE_WIDTH * (1 + |x|) of a half-integer is
# a near tie, where H's float path and the solve's can round apart, so
# the step solves.  The width is relative because the float error of a
# coefficient grows with its size.
TIE_WIDTH = 1e-6


def _inverse_gram(gram: GramMatrix):
    """H = inv of gram's float copy, or None where steps must solve.

    None for a zero diagonal entry or an inv that raises (rank-deficient
    input), and for ||G||_1 ||H||_1 n >= CONDITION_LIMIT (numerically
    singular in float64).
    """
    fg = gram.g.astype(float)
    if not fg.diagonal().all():
        return None
    try:
        h = np.linalg.inv(fg)
    except np.linalg.LinAlgError:
        return None
    # Written as not-below, so that a nan norm falls back too.
    if not (np.linalg.norm(fg, 1) * np.linalg.norm(h, 1) * len(fg)
            < CONDITION_LIMIT):
        return None
    return h


def _inverse_coefficients(h, j: int):
    """Column j's coefficients from H, x_k = -H[k, j] / H[j, j] (x_j = 0),
    and their magnitudes a = |x|, or None when one is not finite or is a
    near tie (TIE_WIDTH)."""
    x = h[:, j] / -h[j, j]
    x[j] = 0.0
    a = np.abs(x)
    # The fraction of a, a % 1 for finite a; np.modf takes inf without a
    # warning.  NaN and +-inf fail the one test, so it tests finiteness too.
    if not (np.abs(np.modf(a)[0] - 0.5) >= TIE_WIDTH * (1.0 + a)).all():
        return None
    return x, a


def _solved_coefficients(gram: GramMatrix, j: int):
    """Column j's coefficients from the normal equations over the other
    nonzero columns, 0.0 elsewhere, or None (warned) when the system is
    singular or its solution is not finite."""
    fg = gram.g.astype(float)
    # Column j and every zero column stay out of the system.
    keep = fg.diagonal() != 0.0
    keep[j] = False
    others = np.flatnonzero(keep)
    sub = fg.take(others, 0).take(others, 1)
    rhs = fg[others, j]
    try:
        solved = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        warn(__name__, "singular normal equations for column %d; "
             "step skipped", j)
        return None
    if not np.all(np.isfinite(solved)):
        warn(__name__, "non-finite coefficients for column %d; "
             "step skipped", j)
        return None
    coeffs = np.zeros(len(fg))
    coeffs[others] = solved
    return coeffs


def random_combination_step(rows: IntRows, j: int, inverse=None) -> bool:
    """Subtract from column j the rounded best combination of the others.

    The real coefficients solve the normal equations over the Gram
    submatrix of the other nonzero columns; a zero column would make that
    system singular and has nothing to contribute, so it is left out.
    Coefficients of magnitude under ROUNDS_TO_ZERO are dropped without
    rounding each one, and the rest, rounded, are one apply_column_op,
    which writes column j once and updates no Gram matrix.  Returns
    whether anything changed.

    inverse H, a float64 approximation of G^-1 from _inverse_gram, which
    random_combination_reduce builds again after every n useful steps:
    by the block-inverse identity the coefficients are
    x_k = -H[k, j] / H[j, j], read in O(n), and the step keeps H in place
    through its column operation by a rank-two update, rows
    k += c_k H[j, :] then columns k += c_k H[:, j], in O(|moves| n).
    inverse None, which random_combination_reduce passes where
    _inverse_gram refuses (a zero column or an inv that raises, or
    ||G||_1 ||H||_1 n >= CONDITION_LIMIT), and a coefficient from H that
    is not finite or lies within TIE_WIDTH (1 + |x|) of a half-integer,
    where the two float paths can round apart, make the step solve: it
    builds the exact Gram matrix from the rows' basis part with one
    gram_compute, which raises OverflowError for an entry past the signed
    128-bit range, makes one np.linalg.solve of the (n - 1) x (n - 1)
    system from it, O(n^3), and drops it; a singular system (dependent
    nonzero columns) or a non-finite solution skips the step with a
    warning.  Either way only the rounded integer coefficients reach the
    columns and the transform, through apply_column_op, so no exact value
    depends on H.
    """
    found = None if inverse is None else _inverse_coefficients(inverse, j)
    if found is None:
        coeffs = _solved_coefficients(gram_compute(rows.basis()), j)
        if coeffs is None:
            return False
        found = coeffs, np.abs(coeffs)
    coeffs, size = found
    large = (size >= ROUNDS_TO_ZERO).nonzero()[0]
    if not len(large):
        return False
    cs = [nint_float(x) for x in coeffs[large].tolist()]
    apply_column_op(rows, None, j, list(zip(large.tolist(), cs)))
    if inverse is not None:
        fc = np.array(cs, dtype=float)
        inverse[large] += fc[:, None] * inverse[j]
        inverse[:, large] += inverse[:, j, None] * fc
    return True


def random_combination_reduce(basis: Basis, config: AltConfig = AltConfig(), *,
                              track_transform: bool = False) -> ReductionResult:
    """Run random_combination_step for a fixed budget of random columns.

    The budget is config.iterations, or 10 * n when that is None; the
    columns come from the seeded SplitMix64, COLUMN_BLOCK draws at a
    time.  The steps share H, built before the first step and again after
    every n useful steps, each time as _inverse_gram of a Gram matrix
    built from the rows (gram_compute, O(n^2 m)): a rebuild costs O(n^3),
    about one solve, which spread over n useful steps adds O(n^2) to
    each, and it drops the rounding error the updates gathered.  Where
    _inverse_gram gives None the steps solve until the next rebuild.
    Column norms can go up as well as down; there is no monotonicity
    here, which is exactly why this variant is only a baseline.
    """
    def body(rows):
        n = basis.n
        steps = 10 * n if config.iterations is None else config.iterations
        draws = SplitMix64(config.seed)
        useful = 0
        # age counts the useful steps since H was built; n builds it first.
        inverse, age = None, n
        for start in range(0, steps, COLUMN_BLOCK):
            for j in draws.draw(min(COLUMN_BLOCK, steps - start), n).tolist():
                if age == n:
                    inverse = _inverse_gram(gram_compute(rows.basis()))
                    age = 0
                moved = random_combination_step(rows, j, inverse)
                useful += moved
                age += moved
        return useful

    return run_reducer(basis, track_transform, body)


def mgs_pivot_reduce(basis: Basis, p: float = 2.0, *,
                     track_transform: bool = False) -> ReductionResult:
    """Pivoted Gram-Schmidt with rounded integer projections.

    p is checked by MGSConfig(p): one that is not positive and finite
    raises UsageError before any work.

    Each round scores every residual column by the sum of p-th powers of
    the norms the basis would have after projecting the others off it,
    picks the best, and subtracts the rounded projection onto that
    pivot's floating orthogonalization from every remaining column (as
    an integer multiple of the pivot's basis column).  Columns that are
    zero or dependent on the chosen pivots are skipped; the first of
    equal scores wins.  Each round's moves go to the columns and the
    Gram matrix in one apply_moves call.

    A round is whole-array work on the R residual columns as float rows
    F and their orthogonal residuals Q, both carried across rounds: both
    start as the float basis, a round casts again only the rows of F
    whose columns it moved, one boolean mask drops the pivot's row from
    the residual indices, F and Q, and the rest of Q is projected off
    the pivot once.  In exact arithmetic that is F orthogonalized against
    every chosen pivot, since a move subtracts a multiple of the pivot's
    column, which the projection removes; the float bits can differ from
    orthogonalizing F again each round.  X = F Q^T / |Q|^2 holds every
    coefficient of a column onto a candidate, so no temporary exceeds an
    R x m or R x R float array.
    Only candidates that are neither zero nor dependent have their
    coefficients x rounded, and only where |x| >= ROUNDS_TO_ZERO; the
    squared norms g[s][s] + c^2 g[r][r] - 2c g[s][r] they give are
    computed exactly on Python ints (such a norm can pass int64 while
    every Gram entry fits it), and every other column keeps g[s][s].
    Only the p/2 powers and their sum are floating: one
    candidates x columns array holds each candidate's terms, its own
    slot 0.0, and one np.add.accumulate folds every row left to right:
    chosen pivots, the candidate, then the other residual columns in
    order (adding 0.0 changes no partial sum).  The batched products can
    differ in the last bit from one dot product per pair; the exact
    outputs matched the per-pair loop on every input checked, but the
    floats are not promised bit for bit.
    """
    MGSConfig(p)
    half_p = p / 2.0

    def body(rows):
        gram = gram_compute(basis)
        m = basis.m
        residual = np.arange(basis.n)
        # Row s of f: residual column s as floats; row s of q: the same
        # column orthogonalized against every chosen pivot.  Both are
        # carried from round to round.
        f = basis.array.astype(float)
        q = f.copy()
        # The chosen pivots' terms added left to right in choice order; no
        # move ever targets a chosen column, so its term never changes.
        chosen_sum = 0.0
        while len(residual):
            # Read once per round: update_gram may widen gram.g.
            g = gram.g
            d = g.diagonal()[residual].astype(object)
            qq = np.einsum("ij,ij->i", q, q)
            # Zero rows are never candidates; 1.0 keeps the division quiet.
            x = (f @ q.T) / np.where(qq > 0.0, qq, 1.0)
            # Zero and dependent columns are not candidates, and their
            # coefficients, however large, are never rounded.
            cand = ((d != 0)
                    & (qq >= RANK_FLOOR * d.astype(float))).nonzero()[0]
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
            bad = (norms < 0).nonzero()[0]
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
            targets = residual[i[chosen]].tolist()
            apply_moves(rows, gram, int(residual[ri]),
                        list(zip(targets, c[chosen].tolist())))
            if targets:
                f[i[chosen]] = np.array([rows.rows[s][:m] for s in targets],
                                        dtype=float)
            chosen_sum += float(kept[ri])
            qp = q[ri]
            keep = np.arange(len(residual)) != ri
            residual, f, q = residual[keep], f[keep], q[keep]
            q -= np.outer((q @ qp) / float(qp @ qp), qp)
        return basis.n - len(residual)

    return run_reducer(basis, track_transform, body)
