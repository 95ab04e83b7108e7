"""Greedy monotone norm polishing.

Each iteration considers every column as a pivot, computes the rounded
projection coefficient of every other column onto it, and scores the basis
that projecting off that pivot would produce.  The pivot with the best
score is applied to all columns at once.  A pivot is its index k and its
moves, the sparse list of (j, c) pairs with c != 0 and j != k, each the
column operation column j -= c * column k.  Rounded projection never
increases any column norm, so the scores decrease monotonically and the
loop terminates at a (local) fixed point.

Everything the next selection reads lives in one GreedyState, and a
pivot updates it from its previous value instead of recomputing it.  The
state is a PivotTable, the Gram matrix beside a dense n x n array holding,
for every candidate pivot k and column j, the exact change of column j's
squared norm under pivot k's rounded projection, plus the columns and the
pivot count.  A pivot changes only the set S of columns it moves, so the
Gram matrix changes only in the rows and columns of S; the update is
core.update_gram, the exact Gram update for a pivot, in O(|S| n), and the
table's rows S and columns S are then recomputed as whole arrays, also
O(|S| n).
With c = (2|x| + d) // (2d) for x = g[j][k] and d = g[k][k], the change
is c (c d - 2|x|), and c is 0 exactly when 2|x| < d, so no mask or sign
is needed.  That arithmetic is exact in int64 while the Gram matrix's
bound is below 2**30 (the change then stays below 2**61) and runs on
Python ints otherwise.  Selection is O(n^2) whole-array work for every p: one
scorer takes a row of norm changes per candidate and returns the first
best row and its score; for the default p = 2 a score is the trace plus
a row sum of the table.  basis_score is that scorer applied to one row
of zeros, the do-nothing pivot, so a pivot's score is the next basis's
score by construction.  The columns are the core.IntRows that
run_reducer hands every reducer, each row carrying its transform column
when one is tracked; a pivot reaches them, and the Gram matrix, through
one core.apply_moves call, which writes nothing when any new entry would
leave the signed 128-bit range.  Selection reads only the table and its
Gram matrix, so a caller holding just a Gram matrix scores it through
PivotTable(gram).

Scoring sums the p-th powers of the column norms, and p = inf, the limit
of that sum's p-th root, scores by the largest squared norm.  The squared
norms are always computed exactly in integers.  For the default p = 2 and
for p = inf the whole score stays an exact integer, so the halting
comparison is exact as well; other exponents take the p/2 power in
floating point, float(v) ** (p/2) for each exact squared norm v, and add
the terms strictly left to right with np.add.accumulate along a row,
never with sum(), whose float rounding changed in Python 3.12, so a
score does not depend on the Python version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Basis,
    GramMatrix,
    IntRows,
    ReductionResult,
    UsageError,
    apply_moves,
    corrupt_gram,
    gram_compute,
    nint_ratio,
    run_reducer,
    update_gram,  # noqa: F401 -- the benchmark traces greedy.update_gram
)

@dataclass(frozen=True)
class ReduceConfig:
    """Options for reduce().

    p_schedule lists the exponents that are each run to convergence in
    order (the usual choice is starting at 2 and finishing at a smaller p).
    An exponent of inf scores by the largest squared norm, the limit
    of the p-th root of the sum of p-th powers; it is a heuristic that in
    practice tends to shorten only the longest vectors.  There is no
    iteration budget: a pivot is applied only when it strictly lowers the
    score, which needs a strictly shorter column.
    """

    p_schedule: tuple[float, ...] = (2.0,)

    def __post_init__(self):
        if not self.p_schedule:
            raise UsageError("p_schedule must be nonempty")
        for p in self.p_schedule:
            if not p > 0:
                raise UsageError(f"exponent must be positive, got {p}")

    def run(self, basis: Basis, track_transform=False) -> ReductionResult:
        """reduce with this config: a stage of core.pipeline."""
        return reduce(basis, self, track_transform=track_transform)


# The table arithmetic below is exact in int64 while every |g| < 2**30:
# 2|x| + d < 2**32, c <= |x| + 1/2, c*d <= |x| + d/2, and so |c (c d - 2|x|)|
# < 2**61.  Past that it runs on Python ints.
_TABLE_INT64_LIMIT = 1 << 30


def _exact(gram: GramMatrix, a):
    """a, read from gram.g, in a dtype in which the table arithmetic is exact."""
    b = gram.bound
    return a if b is not None and b < _TABLE_INT64_LIMIT else a.astype(object)


def _magnitudes(x2, d):
    """|nint(x / d)| for every 2|x| in x2 against pivot diagonals d
    (broadcast), and 0 where d is 0.

    This is the coefficient rule, nint_ratio's magnitude: it is 0 exactly
    when 2|x| < d, so nothing needs masking but a zero pivot column.
    """
    if (d > 0).all():
        return (x2 + d) // (2 * d)
    # Only a corrupt Gram matrix has x != 0 against a zero pivot column.
    return np.where(d > 0, (x2 + d) // (2 * np.maximum(d, 1)), 0)


def _norm_changes(x2, d):
    """Change of column j's squared norm, c (c d - 2|x|), for every
    2|x| = 2|g[j][k]| in x2 against pivot diagonals d = g[k][k]
    (broadcast)."""
    c = _magnitudes(x2, d)
    return c * (c * d - x2)


def coefficients_for_pivot(gram: GramMatrix, k: int) -> list[tuple[int, int]]:
    """Moves of pivot k: (j, c) for every column j != k whose rounded
    projection coefficient c = nint(g[j][k] / g[k][k]) onto column k is
    nonzero, in increasing j.

    A zero pivot column moves nothing.  j and c are Python ints.
    """
    gk = gram.g[k]
    d = int(gk[k])
    if d <= 0:
        return []
    # c != 0 exactly when 2|g[j][k]| >= d; the pivot itself is not a move.
    js = (2 * np.abs(_exact(gram, gk)) >= d).nonzero()[0].tolist()
    return [(j, nint_ratio(int(gk[j]), d)) for j in js if j != k]


def _checked(t, norms, pivots, columns):
    """t, once every norms + t entry is known to be nonnegative.

    t[r, s] is the change of column columns[s]'s squared norm norms[s]
    against pivot pivots[r]; a negative result raises ArithmeticError
    naming the first such pair.
    """
    bad = t < -norms
    if bad.any():
        r, s = np.argwhere(bad)[0].tolist()
        raise corrupt_gram(int(columns[s]), int(pivots[r]))
    return t


class PivotTable:
    """What every candidate pivot would do, kept in step with one Gram matrix.

    t is a dense n x n array: t[k, j] is the exact change, never positive,
    of column j's squared norm when its rounded coefficient c onto pivot k
    times column k is subtracted from it, and 0 where c is 0 and on the
    diagonal.  Row k's nonzero entries are therefore a subset of pivot k's
    moves (a move can leave a norm unchanged).  t is int64 while the Gram
    matrix's bound is below 2**30 and Python ints from then on.  Building
    the table costs O(n^2); refresh() keeps it in step after each pivot in
    O(|S| n), as whole-array operations.  A negative new norm means the
    Gram matrix matches no basis and raises ArithmeticError.  select_pivot
    reads nothing else; GreedyState is the table that reduce() keeps.
    """

    __slots__ = ("gram", "t")

    def __init__(self, gram: GramMatrix):
        self.gram = gram
        g = _exact(gram, gram.g)
        d = g.diagonal()
        t = _norm_changes(2 * np.abs(g), d[:, None])
        np.fill_diagonal(t, 0)
        everyone = range(len(d))
        self.t = _checked(t, d, everyone, everyone)

    def refresh(self, moves) -> None:
        """Bring the table in step after update_gram(self.gram, k, moves).

        Only the rows and columns of the moved set S changed, so the
        table's rows S (each candidate in S against every column) and
        columns S (every candidate against each new column in S) are
        recomputed; every other entry keeps both its x and its d.  The
        Gram matrix is symmetric, so both come from its rows S.  With
        no moves the index arrays are empty and nothing changes.
        """
        idx = np.array([j for j, _ in moves], dtype=np.intp)
        gram = self.gram
        g = gram.g
        d = _exact(gram, g.diagonal())
        ds = d[idx]
        x2 = 2 * np.abs(_exact(gram, g[idx]))
        # rows[s, l]: column l against pivot idx[s]; cols[s, l]: column
        # idx[s] against pivot l, the table's columns S transposed.
        rows = _norm_changes(x2, ds[:, None])
        cols = _norm_changes(x2, d)
        s = np.arange(len(idx))
        rows[s, idx] = 0
        cols[s, idx] = 0
        everyone = range(len(d))
        _checked(cols.T, ds, everyone, idx)
        _checked(rows, d, idx, everyone)
        if rows.dtype == object and self.t.dtype != object:
            self.t = self.t.astype(object)
        self.t[idx] = rows
        self.t[:, idx] = cols.T


class GreedyState(PivotTable):
    """Everything greedy's next iteration reads, owned by one reduce() call.

    It is the PivotTable of gram, built on construction, plus rows, the
    columns (with their transform part when one is tracked), and
    iteration, the number of pivots applied.  select_pivot reads it as a
    table; apply_pivot moves the columns and the Gram matrix, refreshes
    the table and counts the pivot.
    """

    __slots__ = ("rows", "iteration")

    def __init__(self, rows: IntRows, gram: GramMatrix):
        super().__init__(gram)
        self.rows = rows
        self.iteration = 0


def _powers(norms_sq, p: float) -> list[float]:
    """The p-th power of every norm, as float(v) ** (p / 2) of its square."""
    half_p = p / 2.0
    return [float(v) ** half_p for v in norms_sq]


def _best_row(gram: GramMatrix, t, p: float):
    """(k, score) of the best row k of t, a 2-D array of norm changes.

    Row k holds, for every column j, the exact change of column j's
    squared norm (never below -g[j][j]), and its score is the score of
    the basis with those norms: for p = 2 the trace plus the row sum, an
    exact integer; for p = inf the largest entry of the diagonal plus the
    row, an exact integer; for other exponents the
    p/2 powers, taken per changed entry in Python floats, added strictly
    left to right by one np.add.accumulate over the rows.  Ties go to the
    first row.
    """
    if p == 2.0:
        # Exact in int64 too: every entry lies in [-g[j][j], 0], so a row
        # sum is at least minus the trace.
        sums = t.sum(axis=1)
        k = int(np.argmin(sums))
        return k, sum(gram.diagonal()) + int(sums[k])
    if p == np.inf:
        highest = (gram.g.diagonal() + t).max(axis=1)
        k = int(np.argmin(highest))
        return k, int(highest[k])
    terms = np.tile(np.array(_powers(gram.diagonal(), p)), (len(t), 1))
    ks, js = np.nonzero(t)
    terms[ks, js] = _powers((gram.g.diagonal()[js] + t[ks, js]).tolist(), p)
    # accumulate adds left to right, so the last column is the row's
    # left-to-right sum.
    totals = np.add.accumulate(terms, axis=1)[:, -1]
    k = int(np.argmin(totals))
    return k, float(totals[k])


def basis_score(gram: GramMatrix, p: float):
    """Score of the basis as it stands: the do-nothing pivot, scored by
    select_pivot's scorer as one row of zero norm changes.

    That is the sum of the p-th powers of the column norms (an exact
    integer, the trace, when p == 2), or for p = inf the largest squared
    norm.
    """
    return _best_row(gram, np.zeros((1, gram.n), dtype=np.int64), p)[1]


def select_pivot(table: PivotTable, p: float):
    """Best pivot of table's Gram matrix: (k, moves, score).

    Every candidate is scored from table.t and table.gram, nothing else.
    moves is coefficients_for_pivot(table.gram, k), ready for
    apply_pivot, and score is the score of the basis that applying the
    pivot would produce.  The table's rows go through the same scorer as
    basis_score, so a pivot's score is the next basis's score by
    construction.  Ties go to the smallest index.  Every selection costs
    O(n^2) whole-array work; a caller with only a Gram matrix passes
    PivotTable(gram), whose build is O(n^2) too.
    """
    k, score = _best_row(table.gram, table.t, p)
    return k, coefficients_for_pivot(table.gram, k), score


def apply_pivot(state: GreedyState, k: int, moves) -> None:
    """Apply pivot k's moves to the columns and the Gram, refresh the
    table and count the pivot.

    With S the set of moved columns, the column updates cost O(|S| m), and
    the Gram update (update_gram) and the table refresh O(|S| n) each.
    The moves must have been computed from the state's current Gram.  The
    columns and the Gram matrix move through one core.apply_moves call,
    so on OverflowError the state is unchanged.
    """
    apply_moves(state.rows, state.gram, k, moves)
    state.refresh(moves)
    state.iteration += 1


def reduce(basis: Basis, config: ReduceConfig | None = None, *,
           track_transform: bool = False, on_iteration=None) -> ReductionResult:
    """Run the greedy polish to convergence.

    For each exponent in the schedule, the best pivot is applied as long
    as its score strictly improves on the current one; when no pivot
    improves, the schedule advances.  No column's norm ever increases, so
    with p = 2 the exact integer score drops by at least 1 per iteration
    and termination is guaranteed.  Each iteration selects from one
    GreedyState and applies the pivot to it.

    on_iteration, when given, is called with the state after every applied
    pivot (used by the verification suites).
    """
    cfg = config if config is not None else ReduceConfig()

    def body(rows):
        state = GreedyState(rows, gram_compute(basis))
        for p in cfg.p_schedule:
            current = basis_score(state.gram, p)
            while True:
                k, moves, score = select_pivot(state, p)
                if not score < current:
                    break
                apply_pivot(state, k, moves)
                # The pivot's score is the new basis's score, exactly.
                current = score
                if on_iteration is not None:
                    on_iteration(state)
        return state.iteration

    return run_reducer(basis, track_transform, body)
