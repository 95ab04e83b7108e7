"""Exact integer primitives shared by every reducer.

Basis vectors, Gram matrices, and accumulated column transforms are exact
integers: numpy int64 where a bound proves every step exact, Python ints
everywhere else, so all norm bookkeeping is exact.  Values are required to
stay inside the signed 128-bit range; crossing it raises OverflowError
rather than silently widening, since for the intended inputs a wider value
always indicates a bug.

The bulk products gram_compute and apply_transform run as numpy int64
products only when a bound checked from the input proves every partial sum
fits int64: m * M**2 < 2**63 for the inner products of length-m columns
with largest |entry| M, and n * M_B * M_U < 2**63 for the product of a
basis and an n x n transform.  Any other input takes the exact Python-int
path with its 128-bit range checks.  Results always come back as Python
ints.  IntRows, the one store every reducer changes columns in, applies
the same rule to a run of column operations: its rows stay int64 while a
per-row bound proves each operation exact, and are Python ints,
range-checked, from then on.  GramMatrix is one n x n array under the
same rule: int64 while its tracked bound B on every |entry| gives
B * (1 + max|c|)**2 < 2**63 for each pivot's coefficients c (B is
measured again once before the store widens), Python ints after that.
Both dtypes run the same whole-array code.

A column operation moves one column; a pivot k moves a sparse list of
columns, the (j, c) pairs of column j -= c * column k.  A tracked
transform U (input . U = output) needs no store of its own: row j of
IntRows holds basis column j followed by transform column j, so the same
row operation that changes [b_j] changes [b_j; u_j], a swap swaps both,
and one int64 bound covers the whole row.  apply_moves applies a pivot
to the rows and the Gram matrix (update_gram, the one exact Gram update,
which rewrites only the moved rows and columns) all or nothing: every
new value is computed and range-checked before any is written, so
nothing is ever undone.  LLL's size reduction takes the same two phases,
one move at a time.

Every reducer runs inside run_reducer, which owns the frame around its
loop: the IntRows of the input's columns, stacked on the identity when a
transform is tracked, the one write-back into the result's basis and
transform, the exact before/after norm summaries, the timing and the
ReductionResult.  It is the only code that knows whether a transform is
tracked.  pipeline chains reducers.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

INT128_MAX = (1 << 127) - 1
INT128_MIN = -(1 << 127)

# An int64 product of sums of at most t terms, each factor pair bounded by
# M_a and M_b, is exact when t * M_a * M_b < _INT64_LIMIT: every partial sum
# then fits int64, so every result also lies inside the 128-bit range.
_INT64_LIMIT = 1 << 63

# Largest n for which det_small, and so is_unimodular, gives an answer.
_DET_MAX_N = 16

# Relative squared-norm floor under which a float residual counts as a
# dependent column (LLL's Gram-Schmidt and mgs's projections).
RANK_FLOOR = 1e-30


class MatFormatError(ValueError):
    """Raised when a ``.mat`` file is ill-formed or out of range."""


class UsageError(ValueError):
    """Raised by a config object for an option value it does not accept."""


def _check_entries(rows) -> None:
    for row in rows:
        for x in row:
            if not isinstance(x, int):
                raise TypeError(f"matrix entries must be int, got {type(x).__name__}")


class Basis:
    """Integer basis stored column-major: ``cols[j]`` is basis vector j.

    Columns are allowed to be linearly dependent (and even zero); reducers
    that cannot handle that reject it themselves.
    """

    __slots__ = ("m", "cols")

    def __init__(self, cols):
        if not cols or not cols[0]:
            raise ValueError("basis needs at least one row and one column")
        m = len(cols[0])
        for col in cols:
            if len(col) != m:
                raise ValueError("basis columns must all have the same length")
        _check_entries(cols)
        self.m = m
        self.cols = [list(col) for col in cols]

    @classmethod
    def from_rows(cls, rows) -> "Basis":
        if not rows or not rows[0]:
            raise ValueError("basis needs at least one row and one column")
        return cls([[row[j] for row in rows] for j in range(len(rows[0]))])

    @classmethod
    def identity(cls, n: int) -> "Basis":
        return cls([[int(i == j) for i in range(n)] for j in range(n)])

    @property
    def n(self) -> int:
        return len(self.cols)

    def to_rows(self) -> list[list[int]]:
        return [[col[r] for col in self.cols] for r in range(self.m)]

    @classmethod
    def _trusted(cls, m: int, cols) -> "Basis":
        """Wrap columns built by this module without re-validating them."""
        dup = object.__new__(cls)
        dup.m = m
        dup.cols = cols
        return dup

    def copy(self) -> "Basis":
        return self._trusted(self.m, [list(col) for col in self.cols])

    def __eq__(self, other):
        return type(other) is type(self) and self.cols == other.cols

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, n={self.n})"


class GramMatrix:
    """Symmetric matrix of exact pairwise inner products, ``g[j, k]``.

    g is one n x n numpy array.  It is int64 while bound, a Python int at
    least as large as every |entry|, proves each update_gram exact; after
    that it is dtype=object (Python ints, every update checked against the
    signed 128-bit range) for good, and bound is None.  Both dtypes run
    the same code.  tolist() and diagonal() give the entries as Python
    ints.
    """

    __slots__ = ("g", "bound")

    def __init__(self, g):
        n = len(g)
        if not n:
            raise ValueError("Gram matrix needs at least one column")
        for row in g:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        _check_entries(g)
        for j in range(n):
            if g[j][j] < 0:
                raise ValueError(f"negative Gram diagonal at {j}")
            for k in range(j):
                if g[j][k] != g[k][j]:
                    raise ValueError(f"Gram matrix not symmetric at ({j},{k})")
        self._store(g)

    def _store(self, values) -> None:
        """Hold values (lists of Python ints) as int64 when they fit."""
        try:
            self.g = np.array(values, dtype=np.int64)
        except OverflowError:
            self.g = np.array(values, dtype=object)
            self.bound = None
        else:
            self.bound = _max_abs(self.g)

    @property
    def n(self) -> int:
        return len(self.g)

    def diagonal(self) -> list[int]:
        return self.g.diagonal().tolist()

    def tolist(self) -> list[list[int]]:
        return self.g.tolist()

    def copy(self) -> "GramMatrix":
        dup = object.__new__(GramMatrix)
        dup.g = self.g.copy()
        dup.bound = self.bound
        return dup

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.tolist() == other.tolist()

    def __repr__(self):
        return f"GramMatrix(n={self.n})"


class TransformRecord(Basis):
    """Accumulated column operations U, so original_basis . U = current basis.

    A square Basis.  Every operation applied to it is elementary (unit
    determinant), so U stays unimodular and the lattice generated by the
    columns is preserved.
    """

    __slots__ = ()

    def __init__(self, cols):
        super().__init__(cols)
        if self.m != self.n:
            raise ValueError("transform must be square")


@dataclass(frozen=True)
class NormSummary:
    """The two reported size metrics, kept as exact squared integers.

    frobenius_sq is the sum of all squared entries (the trace of the Gram
    matrix); min_norm_sq is the smallest squared norm over nonzero columns,
    or 0 when every column is zero.
    """

    frobenius_sq: int
    min_norm_sq: int


@dataclass
class ReductionResult:
    """Outcome shared by all reducers in this package.

    stages holds each stage's own result when the result comes from
    pipeline(); a single reducer leaves it empty.
    """

    basis: Basis
    iterations_applied: int
    before: NormSummary
    after: NormSummary
    seconds: float
    transform: TransformRecord | None = None
    stages: tuple[ReductionResult, ...] = ()


def _max_abs(a) -> int:
    """Largest |entry| of an int64 array, as a Python int."""
    # Not np.abs: in int64, abs(-2**63) is -2**63.
    return max(int(a.max()), -int(a.min()))


def _int64_cols(cols):
    """cols as an int64 array, one row per column, and its largest |entry|.

    The bound is a Python int.  Returns None when some entry does not fit
    int64; the caller then takes its exact Python-int path.
    """
    try:
        a = np.array(cols, dtype=np.int64)
    except OverflowError:
        return None
    return a, _max_abs(a)


def gram_compute(basis: Basis) -> GramMatrix:
    """Exact Gram matrix of the basis columns.

    On the exact path only the upper triangle is computed; the rest is
    mirrored from symmetry.
    """
    out = object.__new__(GramMatrix)
    packed = _int64_cols(basis.cols)
    if packed and basis.m * packed[1] * packed[1] < _INT64_LIMIT:
        out.g = np.matmul(packed[0], packed[0].T)
        out.bound = _max_abs(out.g)
        return out
    cols = basis.cols
    n = len(cols)
    g = [[0] * n for _ in range(n)]
    for k in range(n):
        ak = cols[k]
        for j in range(k + 1):
            s = sum(map(operator.mul, cols[j], ak))
            if s > INT128_MAX or s < INT128_MIN:
                raise OverflowError(
                    f"Gram entry ({j},{k}) exceeds the signed 128-bit range"
                )
            g[j][k] = s
            g[k][j] = s
    out._store(g)
    return out


def column_norms_sq(basis: Basis) -> list[int]:
    """Exact squared norm of every column (the Gram diagonal, cheaper)."""
    # No int64 route: converting the columns costs as much as this O(n m)
    # loop, so only the O(n**2 m) products gain from one.
    out = []
    for col in basis.cols:
        s = sum(map(operator.mul, col, col))
        if s > INT128_MAX:
            raise OverflowError("column norm exceeds the signed 128-bit range")
        out.append(s)
    return out


def nint_ratio(num: int, den: int) -> int:
    """Integer nearest to num/den, computed without floating point.

    den must be positive.  Exact halves round away from zero, so
    nint_ratio(7, 2) == 4 and nint_ratio(-7, 2) == -4.  This is the one
    rounding convention used throughout the package.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


# nint_float(x) == 0 exactly when |x| < this.  It is one step below 1/2
# because 0.5 - 2**-54 plus 0.5 rounds up to 1.0, so nint_float gives 1.
# Reducers test whole coefficient arrays against it and round only the rest.
ROUNDS_TO_ZERO = 0.5 - 2.0 ** -54


def nint_float(x: float) -> int:
    """Nearest integer for floats, halves away from zero (matches nint_ratio)."""
    if x >= 0.0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def fold_sum(values) -> float:
    """Float sum of values added strictly left to right, starting at 0.0.

    Built-in sum() compensates float rounding since Python 3.12, so its
    result depends on the interpreter version.  Every floating score goes
    through this fold instead, so scores and halting decisions do not.
    """
    return reduce(operator.add, values, 0.0)


def summarize_columns(basis: Basis) -> NormSummary:
    """Frobenius-squared and minimum nonzero squared column norm."""
    norms = column_norms_sq(basis)
    nonzero = [d for d in norms if d > 0]
    return NormSummary(sum(norms), min(nonzero) if nonzero else 0)


def corrupt_gram(j: int, k: int) -> ArithmeticError:
    """The error for a negative squared norm of column j against pivot k."""
    return ArithmeticError(
        f"negative squared norm for column {j} against pivot {k}: "
        "Gram matrix is corrupt"
    )


def projected_norm_sq(g, j: int, k: int, c: int, gkk: int) -> int:
    """Exact squared norm of column j after subtracting c * column k.

    g holds the Gram matrix's entries (nested lists or an array) and gkk
    its diagonal entry g[k][k]; every entry is read as a Python int, so
    the result is one.  A negative value can only come from a Gram matrix
    that does not match any basis, so it raises ArithmeticError.
    """
    c = int(c)
    v = int(g[j][j]) + c * c * int(gkk) - 2 * c * int(g[j][k])
    if v < 0:
        raise corrupt_gram(j, k)
    return v


def _check_column(col: list[int], what: str, j: int) -> None:
    """Raise OverflowError naming column j if an entry leaves the 128-bit range."""
    if max(col) > INT128_MAX or min(col) < INT128_MIN:
        raise OverflowError(
            f"{what} column {j} exceeds the signed 128-bit range"
        )


class IntRows:
    """Integer columns as numpy rows, for repeated column operations.

    rows[j] is column j: its first m entries are basis column j, and when
    transform columns are given, transform column j follows them, so
    every operation and every swap moves both at once.  The rows are
    int64 while bounds, one Python int per row at least as large as the
    row's largest |entry| over both parts, prove that every operation is
    exact: rows[j] - c * rows[k] is done in int64 only when |c| < 2**63
    and bounds[j] + |c| * bounds[k] < 2**63.  When that test fails, the
    two rows' bounds are measured again; when it still fails, every row
    becomes dtype=object (Python ints, exact at any size) for good, and
    bounds is None.  Basis and transform share the bound, so both leave
    int64 together.  On the Python-int path each operation is checked
    against the signed 128-bit range and raises OverflowError naming the
    basis or transform column, with the rows unchanged.

    Operations go in two phases, so that apply_moves can check the rows
    and the Gram matrix before it writes either: moved computes a pivot's
    operations and writes no row, and put writes them and cannot fail.
    """

    __slots__ = ("rows", "bounds", "m")

    def __init__(self, cols, transform=None):
        m = len(cols[0])
        parts = [cols] if transform is None else [cols, transform]
        # Filled in place: packing each part and then stacking them would
        # hold every entry twice while the rows are built.
        stacked = np.empty((len(cols), sum(len(p[0]) for p in parts)),
                           dtype=np.int64)
        try:
            stacked[:, :m] = cols
            if transform is not None:
                stacked[:, m:] = transform
        except OverflowError:
            self.rows = list(np.hstack([np.array(part, dtype=object)
                                        for part in parts]))
            self.bounds = None
        else:
            self.rows = list(stacked)
            self.bounds = [_max_abs(stacked)] * len(cols)
        self.m = m

    def _int64_bound(self, j: int, k: int, c: int) -> int | None:
        """Bound of rows[j] - c * rows[k] when it is exact in int64, else None.

        None also means every row has become dtype=object.
        """
        bounds = self.bounds
        a = abs(c)
        # c itself must fit int64, even against a zero row.
        if a < _INT64_LIMIT:
            b = bounds[j] + a * bounds[k]
            if b < _INT64_LIMIT:
                return b
            bounds[j] = _max_abs(self.rows[j])
            bounds[k] = _max_abs(self.rows[k])
            b = bounds[j] + a * bounds[k]
            if b < _INT64_LIMIT:
                return b
        self.rows = [row.astype(object) for row in self.rows]
        self.bounds = None
        return None

    def moved(self, k: int, moves) -> list:
        """(j, rows[j] - c * rows[k], bound) for every (j, c) in moves.

        Writes no row; put writes the result.  When the rows widen to
        Python ints partway through the list, every move is computed
        again from the widened rows, so int64 and Python-int rows never
        mix.  A column past the 128-bit range raises OverflowError naming
        it; every moved basis column is checked before any transform
        column.
        """
        if self.bounds is not None:
            out = []
            for j, c in moves:
                b = self._int64_bound(j, k, c)
                if b is None:
                    break
                out.append((j, self.rows[j] - c * self.rows[k], b))
            else:
                return out
        rows = self.rows
        out = [(j, rows[j] - c * rows[k], None) for j, c in moves]
        m = self.m
        parts = [("basis", slice(None, m))]
        if len(rows[k]) > m:
            parts.append(("transform", slice(m, None)))
        for what, part in parts:
            for j, row, _ in out:
                _check_column(row[part], what, j)
        return out

    def put(self, new) -> None:
        """Write the rows, and their bounds, that moved computed."""
        for j, row, b in new:
            self.rows[j] = row
            if b is not None:
                self.bounds[j] = b

    def swap(self, j: int, k: int) -> None:
        rows = self.rows
        rows[j], rows[k] = rows[k], rows[j]
        if self.bounds is not None:
            bounds = self.bounds
            bounds[j], bounds[k] = bounds[k], bounds[j]

    def tolist(self) -> list[list[int]]:
        """The rows as lists of Python ints, transform entries included."""
        return [row.tolist() for row in self.rows]


def _gram_fits_int64(gram: GramMatrix, a: int) -> bool:
    """Whether an update with largest |c| = a is exact on gram's int64 store.

    Every partial sum of the update is at most bound * (1 + a)**2.
    """
    return a < _INT64_LIMIT and gram.bound * (1 + a) ** 2 < _INT64_LIMIT


def update_gram(gram: GramMatrix, k: int, moves) -> None:
    """Update the Gram matrix for a pivot k and its moves, in O(|S| n).

    moves lists (j, c) pairs, j != k, for the column operations
    column j -= c * column k, and S is the set of their columns.  Only the
    rows and columns of S change, by the bilinear identity
    g'[j][l] = g[j][l] - c[j] g[k][l] - c[l] g[k][j] + c[j] c[l] g[k][k]
    (c[l] = 0 for l outside S), computed for all of S as a few whole-array
    operations on the rows S and mirrored into the columns S.

    The int64 store is kept while bound * (1 + max|c|)**2 < 2**63, which
    bounds every partial sum; when that fails the bound is measured again,
    and when it still fails the store becomes Python ints for good.  On
    Python ints the new rows are range-checked before any is written, so
    on OverflowError, which names the first bad entry, no value has
    changed.  This is the one exact Gram update: apply_moves, and with it
    apply_column_op, the greedy polish and mgs, goes through it.
    """
    if not moves:
        return
    idx = np.array([j for j, _ in moves], dtype=np.intp)
    cs = [c for _, c in moves]
    if gram.bound is not None:
        a = max(map(abs, cs))
        if not _gram_fits_int64(gram, a):
            gram.bound = _max_abs(gram.g)
            if not _gram_fits_int64(gram, a):
                gram.g = gram.g.astype(object)
                gram.bound = None
    g = gram.g
    cs = np.array(cs, dtype=g.dtype)
    c = np.zeros(len(g), dtype=g.dtype)
    c[idx] = cs
    gk = g[k]
    # g'[j][l] = g[j][l] - c[j] g[k][l] - c[l] (g[k][j] - c[j] g[k][k])
    new = g[idx] - cs[:, None] * gk - (gk[idx] - cs * gk[k])[:, None] * c
    if gram.bound is None:
        bad = (new > INT128_MAX) | (new < INT128_MIN)
        if bad.any():
            i, l = np.argwhere(bad)[0].tolist()
            raise OverflowError(
                f"Gram entry ({moves[i][0]},{l}) exceeds the signed 128-bit range"
            )
    else:
        gram.bound = max(gram.bound, _max_abs(new))
    g[idx] = new
    g[:, idx] = new.T


def apply_moves(rows: IntRows, gram, k: int, moves) -> None:
    """Apply pivot k: column j -= c * column k for every (j, c) in moves.

    rows holds the columns, with their transform part when one is
    tracked; the Gram matrix, when given, is updated exactly alongside
    (pass None to skip it).  The new basis columns, the new transform
    columns and the new Gram rows (update_gram) are computed and
    range-checked in that order, and only then written, so the update is
    all or nothing: on OverflowError, which names the first bad column or
    entry, no value has changed (rows may have widened to Python ints,
    which keeps every value).
    """
    new = rows.moved(k, moves)
    if gram is not None:
        update_gram(gram, k, moves)
    rows.put(new)


def apply_column_op(rows: IntRows, gram, j: int, k: int, c: int) -> None:
    """Elementary column operation: column j -= c * column k.

    apply_moves with the one move (j, c), so it is all or nothing too;
    c == 0 changes nothing.  It has unit determinant, so tracked
    transforms stay unimodular.
    """
    if j == k:
        raise ValueError("column indices must differ")
    apply_moves(rows, gram, k, ((j, c),))


def apply_transform(basis: Basis, transform: TransformRecord) -> Basis:
    """Exact product basis . transform, of the same type as basis.

    Used to verify tracked reductions and, with a transform as basis, to
    compose transforms.  Entries are not range-checked.
    """
    if transform.n != basis.n:
        raise ValueError("transform dimension does not match basis")
    packed_b = _int64_cols(basis.cols)
    packed_u = packed_b and _int64_cols(transform.cols)
    if packed_u and basis.n * packed_b[1] * packed_u[1] < _INT64_LIMIT:
        cols = np.matmul(packed_u[0], packed_b[0]).tolist()
    else:
        cols = []
        for ucol in transform.cols:
            col = [0] * basis.m
            for i, u in enumerate(ucol):
                if u == 0:
                    continue
                ai = basis.cols[i]
                for r in range(basis.m):
                    col[r] += u * ai[r]
            cols.append(col)
    return basis._trusted(basis.m, cols)


def run_reducer(basis: Basis, track_transform: bool, body) -> ReductionResult:
    """Run one reducer's loop on the columns of basis and report it.

    body(rows) reduces rows, an IntRows of the basis columns, in place and
    returns its iteration count.  When track_transform is set, each row
    also carries the matching column of the identity, so the body's
    column operations build the transform with no code of its own; a
    body reads the basis part only, rows.rows[j][:rows.m], wherever it
    reads entries.  It reads any starting data (Gram matrix,
    Gram-Schmidt, entry sizes) from basis, which is never mutated.  The
    rows are written back once, into the result's basis and
    TransformRecord; before and after are the exact column-norm summaries
    of the input and the output, and seconds covers the whole call.
    """
    started = time.perf_counter()
    before = summarize_columns(basis)
    m, n = basis.m, basis.n
    rows = IntRows(basis.cols,
                   np.eye(n, dtype=np.int64) if track_transform else None)
    iterations = body(rows)
    out = basis._trusted(m, [row[:m].tolist() for row in rows.rows])
    transform = None
    if track_transform:
        transform = TransformRecord._trusted(
            n, [row[m:].tolist() for row in rows.rows])
    return ReductionResult(
        basis=out,
        iterations_applied=iterations,
        before=before,
        after=summarize_columns(out),
        seconds=time.perf_counter() - started,
        transform=transform,
    )


def pipeline(basis: Basis, stages) -> ReductionResult:
    """Run reducers in order, each on the basis the previous one returned.

    Every stage maps a basis to a ReductionResult.  The combined result
    takes before from the first stage; basis, after and iterations_applied
    from the last; seconds summed over all; and stages holds each stage's
    own result.  Its transform is the product of the stage transforms when
    every stage tracked one, else None; a single stage's transform is
    passed through as is.  A product entry beyond the signed 128-bit range
    raises OverflowError naming its column, and an empty stages raises
    ValueError.
    """
    results = []
    current = basis
    for stage in stages:
        res = stage(current)
        results.append(res)
        current = res.basis
    if not results:
        raise ValueError("pipeline needs at least one stage")
    transforms = [res.transform for res in results]
    transform = None
    if None not in transforms:
        transform = transforms[0]
        for u in transforms[1:]:
            transform = apply_transform(transform, u)
            for j, col in enumerate(transform.cols):
                _check_column(col, "transform", j)
    first, last = results[0], results[-1]
    return ReductionResult(
        basis=last.basis,
        iterations_applied=last.iterations_applied,
        before=first.before,
        after=last.after,
        seconds=sum(res.seconds for res in results),
        transform=transform,
        stages=tuple(results),
    )


def det_small(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination, n <= 16."""
    n = len(rows)
    if n > _DET_MAX_N:
        raise ValueError(f"det_small is limited to n <= {_DET_MAX_N}")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    a = [list(row) for row in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        piv = next((r for r in range(i, n) if a[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        irow = a[i]
        for r in range(i + 1, n):
            arow = a[r]
            ari = arow[i]
            for c in range(i + 1, n):
                arow[c] = (arow[c] * irow[i] - ari * irow[c]) // prev
            arow[i] = 0
        prev = irow[i]
    return sign * a[n - 1][n - 1]


def is_unimodular(transform: TransformRecord) -> bool | None:
    """Exact |det| == 1 check for tracked transforms.

    Returns None for n > 16, where det_small gives no certificate.
    """
    if transform.n > _DET_MAX_N:
        return None
    return abs(det_small(transform.to_rows())) == 1


def write_mat(basis: Basis, path) -> None:
    """Write the text matrix format: ``m n`` header then m row lines."""
    rows = basis.to_rows()
    lines = [f"{basis.m} {basis.n}"]
    lines.extend(" ".join(str(x) for x in row) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mat(path) -> Basis:
    """Read the text matrix format written by write_mat.

    Entries beyond the signed 128-bit range are rejected.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens_by_line = [line.split() for line in text.splitlines() if line.strip()]
    if not tokens_by_line:
        raise MatFormatError(f"{path}: empty matrix file")
    header = tokens_by_line[0]
    if len(header) != 2:
        raise MatFormatError(f"{path}: header must be 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatFormatError(f"{path}: non-integer header") from exc
    if m < 1 or n < 1:
        raise MatFormatError(f"{path}: dimensions must be positive, got {m} {n}")
    body = tokens_by_line[1:]
    if len(body) != m:
        raise MatFormatError(f"{path}: expected {m} rows, found {len(body)}")
    rows = []
    for r, line in enumerate(body):
        if len(line) != n:
            raise MatFormatError(
                f"{path}: row {r} has {len(line)} entries, expected {n}"
            )
        row = []
        for token in line:
            try:
                x = int(token)
            except ValueError as exc:
                raise MatFormatError(f"{path}: bad integer {token!r} in row {r}") from exc
            if x > INT128_MAX or x < INT128_MIN:
                raise MatFormatError(
                    f"{path}: entry in row {r} exceeds the signed 128-bit range"
                )
            row.append(x)
        rows.append(row)
    return Basis.from_rows(rows)
