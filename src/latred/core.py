"""Exact integer primitives shared by every reducer.

Basis vectors, Gram matrices, and accumulated column transforms are exact
integers: numpy int64 where a bound proves every step exact, Python ints
everywhere else, so all norm bookkeeping is exact.  Values are required to
stay inside the signed 128-bit range; crossing it raises OverflowError
rather than silently widening, since for the intended inputs a wider value
always indicates a bug.

One packer, _pack, turns integer rows into an int64 array with its
measured largest |entry|, or, when an entry does not fit int64, into a
dtype=object array of Python ints with no bound.  A Basis is one such
array, row j being column j, made once when the basis is made and
read-only from then on, so the library moves no column lists between its
parts: read_mat, gen_example, random_permutation, apply_transform and
run_reducer's write-back each hand over an array, and gram_compute,
column_norms_sq (and so run_reducer's summaries), apply_transform,
IntRows, is_unimodular, pipeline's range check, write_mat and mgs's
residuals read one.  Basis.cols and to_rows() build
lists of Python ints for callers on each read.  One product, _product,
serves gram_compute and apply_transform (and so pipeline's composition
of transforms).  It takes one of three routes by the bound t * M_a * M_b
on every partial sum, t being the inner length and M_a, M_b the
operands' largest |entry| (m * M**2 for the Gram matrix of length-m
columns, n * M_B * M_U for a basis times an n x n transform): a float64
matmul through BLAS below 2**53, a numpy int64 matmul below 2**63, and
Python ints past that.  The float64 route is exact because every sum a
matmul forms, in any order, blocking or thread split, is an integer
below 2**53, which float64 holds exactly.  Every result is packed again,
so a result that fits is int64 with its measured bound.  One range
check, _check_range, names the first entry of a Python-int array that
leaves the signed 128-bit range; Basis and GramMatrix construction,
gram_compute, the squared norms, the Gram updates, IntRows and pipeline
all go through it.  IntRows, the one
store every reducer changes columns in, applies the same rule to a run
of column operations by one test: column j -= sum of c * column k is
exact in int64 when M_j + sum of |c| * M_k < 2**63 for the per-row
bounds M, a pivot being one such operation, with one source, per moved
column.  Its rows stay int64 while that test passes, and are Python
ints, range-checked by one check that names the column, from then on.
GramMatrix is one n x n array under the same rule: int64 while its
tracked bound B on every |entry| gives B * (1 + a)**2 < 2**63, a being
max|c| over a pivot's coefficients c or sum|c| over a combination's (B
is measured again once before the store widens, and a combination that
still fails gets a second test on its measured values, a * B for G w,
then a * max|(G w)_k| + (1 + 2a) * B), Python ints after that.
Both dtypes run the same whole-array code, and both Gram updates end in
one write, _write_gram.

Column operations come in two shapes.  A pivot k moves a sparse list
of columns, the (j, c) pairs of column j -= c * column k; a combination
moves one column j by a list of sources, column j -= sum of c * column k
over its (k, c) pairs.  A tracked transform U (input . U = output) needs
no store of its own: row j of IntRows holds basis column j followed by
transform column j, so the same row operation that changes [b_j]
changes [b_j; u_j], a reorder moves both, and one int64 bound covers
the whole row.  apply_moves applies a pivot to the rows and the Gram matrix
(update_gram, which rewrites only the moved rows and columns), and
apply_column_op applies a combination (update_gram_column, which
rewrites only row and column j), both all or nothing: every new value
is computed and range-checked before any is written, so nothing is ever
undone.  A combination is written once, so only its result is
range-checked, never the columns partway through its sum; one Python
loop over its moves checks the sources, drops zero coefficients and sums
both int64 tests' inputs, one coefficient array serves the row and the
Gram row when their dtypes agree, G w comes from the gathered source
rows of G, and the new squared norm is summed on Python ints.  rand-comb's
step and LLL's size reduction are combinations.  Scoring candidate
pivots is the reducers' own whole-array work (greedy's pivot table,
mgs's round); core holds no per-pair norm helper, only corrupt_gram,
the one error either raises when a new squared norm comes out negative.

Every reducer runs inside run_reducer, which owns the frame around its
loop: the IntRows of the input's columns, stacked on the identity when a
transform is tracked, the one write-back into the result's basis and
transform, the exact before/after norm summaries (read from the input's
array and the output's), the timing and the ReductionResult.  It is the
only code that knows whether a transform is tracked.  pipeline chains
reducers.  is_unimodular certifies a tracked transform U at any n: V, U's
float64 inverse rounded to integers, with U V = I exactly by _product,
proves |det U| = 1, and every other case takes bareiss, the one exact
determinant (LLL's rank message reads it too).

read_mat and write_mat move a Basis through the .mat text format.
read_mat hands a file made only of digits, signs, blanks and line
breaks, with no run of 19 digits, to numpy's C int64 text reader; any
other file, and any file that reader refuses, goes to its Python parser,
which reads each token with int(), reads entries up to the 128-bit range
and names the bad line or token.  Both read every file they accept as
int() reads its tokens.  write_mat writes each row with one %d format.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

INT128_MAX = (1 << 127) - 1
INT128_MIN = -(1 << 127)

# An int64 product of sums of at most t terms, each factor pair bounded by
# M_a and M_b, is exact when t * M_a * M_b < _INT64_LIMIT: every partial sum
# then fits int64, so every result also lies inside the 128-bit range.
_INT64_LIMIT = 1 << 63

# float64 holds every integer below this exactly, so a float64 product with
# t * M_a * M_b < _FLOAT64_LIMIT forms only exact partial sums.
_FLOAT64_LIMIT = 1 << 53


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
    """Integer basis stored column-major: column j is basis vector j.

    The columns are one read-only n x m array, array, whose row j is
    column j, made once when the basis is made and never written again:
    int64 with bound its largest |entry|, a Python int, when every entry
    fits int64, and otherwise dtype=object (Python ints) with bound None,
    as _pack packs them.  gram_compute, column_norms_sq, apply_transform,
    IntRows, is_unimodular, run_reducer, pipeline, write_mat and mgs read
    the array; cols and to_rows() build new lists of Python ints on each
    call.  An entry outside the signed 128-bit range raises
    OverflowError naming its column.  Columns are allowed to be linearly
    dependent (and even zero); reducers that cannot handle that reject it
    themselves.
    """

    __slots__ = ("array", "bound")

    def __init__(self, cols):
        if not cols or not cols[0]:
            raise ValueError("basis needs at least one row and one column")
        m = len(cols[0])
        for col in cols:
            if len(col) != m:
                raise ValueError("basis columns must all have the same length")
        _check_entries(cols)
        a, bound = _pack(cols)
        _check_range(a, lambda j, _: f"{type(self).__name__} column {j}")
        self._hold(a, bound)

    def _hold(self, a, bound) -> None:
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        self.array, self.bound = a, bound

    @classmethod
    def _trusted(cls, a, bound) -> "Basis":
        """Wrap a packed array built inside this package, as _pack packs
        it, without re-validating it; the basis takes a over."""
        out = object.__new__(cls)
        out._hold(a, bound)
        return out

    @classmethod
    def from_rows(cls, rows) -> "Basis":
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("basis rows must all have the same length")
        return cls(list(zip(*rows)))

    @classmethod
    def identity(cls, n: int) -> "Basis":
        return cls([[int(i == j) for i in range(n)] for j in range(n)])

    @property
    def m(self) -> int:
        return self.array.shape[1]

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> list[list[int]]:
        return self.array.tolist()

    def to_rows(self) -> list[list[int]]:
        return self.array.T.tolist()

    def __eq__(self, other):
        return (type(other) is type(self)
                and np.array_equal(self.array, other.array))

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, n={self.n})"


class GramMatrix:
    """Symmetric matrix of exact pairwise inner products, ``g[j, k]``.

    g is one n x n numpy array.  It is int64 while bound, a Python int at
    least as large as every |entry|, proves each update_gram exact; after
    that it is dtype=object (Python ints, every update checked against the
    signed 128-bit range) for good, and bound is None.  Both dtypes run
    the same code.  An entry outside the signed 128-bit range raises
    OverflowError naming it.  tolist() and diagonal() give the entries as
    Python ints.
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
        self.g, self.bound = _pack(g)
        _check_range(self.g, lambda j, k: f"Gram entry ({j},{k})")

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


def _pack(values):
    """values (integer rows, or an array of them) as an array and its bound.

    The array is int64 and the bound its largest |entry|, a Python int,
    when every entry fits int64; otherwise the array is dtype=object
    (Python ints) and the bound None.
    """
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object), None
    return a, _max_abs(a)


def _product(a, b):
    """Exact a @ b of two packed arrays, packed as _pack packs it.

    a and b are (array, bound) pairs as _pack returns them.  Every partial
    sum is at most t * M_a * M_b in magnitude, for inner length t and
    bounds M_a and M_b, and that bound picks the route:

    - below 2**53, a float64 matmul through BLAS.  Whatever order,
      blocking or thread split the matmul uses, each sum it forms is a sum
      of some of the t exact integer products, so an integer below 2**53:
      every multiply, add and fused multiply-add is exact, and so is the
      cast of each entry back to int64.  A zero bound gives 0 exactly;
    - below 2**63, a numpy int64 matmul, where every partial sum fits;
    - otherwise Python ints.

    Every result is packed again, so a wide product whose entries fit
    int64 comes back int64 with its measured bound.
    """
    (x, bx), (y, by) = a, b
    worst = _INT64_LIMIT if bx is None or by is None else x.shape[1] * bx * by
    if worst < _FLOAT64_LIMIT:
        x, y = x.astype(np.float64), y.astype(np.float64)
    elif worst >= _INT64_LIMIT:
        x, y = x.astype(object), y.astype(object)
    return _pack(np.matmul(x, y))


def _check_range(a, name) -> None:
    """Raise OverflowError if an entry of a leaves the signed 128-bit range.

    An int64 array always passes.  name(*index) gives the message's name
    for the first entry outside, in row order.
    """
    if a.dtype == object:
        bad = (a > INT128_MAX) | (a < INT128_MIN)
        if bad.any():
            raise OverflowError(f"{name(*np.argwhere(bad)[0].tolist())} "
                                "exceeds the signed 128-bit range")


def gram_compute(basis: Basis) -> GramMatrix:
    """Exact Gram matrix of the basis columns.

    It is one _product of the packed columns with their transpose: float64
    when m * M**2 < 2**53, int64 when m * M**2 < 2**63, and otherwise the
    full matrix on Python ints, stored as int64 when it fits.  An entry
    past the signed 128-bit range raises OverflowError naming it.
    """
    out = object.__new__(GramMatrix)
    a, bound = basis.array, basis.bound
    out.g, out.bound = _product((a, bound), (a.T, bound))
    _check_range(out.g, lambda j, k: f"Gram entry ({j},{k})")
    return out


def column_norms_sq(basis: Basis) -> list[int]:
    """Exact squared norm of every column (the Gram diagonal, cheaper).

    The sums run on the packed array in int64 while m * M**2 < 2**63, for
    column length m and bound M, and on Python ints otherwise; a norm past
    the signed 128-bit range raises OverflowError.
    """
    a, bound = basis.array, basis.bound
    if bound is None or basis.m * bound * bound >= _INT64_LIMIT:
        a = a.astype(object)
    norms = (a * a).sum(axis=1)
    _check_range(norms[None], lambda *_: "column norm")
    return norms.tolist()


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
# Reducers test coefficients against it and round only the rest.
ROUNDS_TO_ZERO = 0.5 - 2.0 ** -54


def nint_float(x: float) -> int:
    """Nearest integer for floats, halves away from zero (matches nint_ratio)."""
    if x >= 0.0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def summarize_columns(basis: Basis) -> NormSummary:
    """Frobenius-squared and minimum nonzero squared column norm."""
    norms = column_norms_sq(basis)
    nonzero = [d for d in norms if d > 0]
    return NormSummary(sum(norms), min(nonzero) if nonzero else 0)


def warn(logger: str, msg: str, *args) -> None:
    """Log msg % args as a warning on the named logger.

    logging is imported here, once a warning is given, so that importing
    latred does not load it.
    """
    import logging
    logging.getLogger(logger).warning(msg, *args)


def corrupt_gram(j: int, k: int) -> ArithmeticError:
    """The error for a negative squared norm of column j against pivot k."""
    return ArithmeticError(
        f"negative squared norm for column {j} against pivot {k}: "
        "Gram matrix is corrupt"
    )


class IntRows:
    """Integer columns as numpy rows, for repeated column operations.

    rows[j] is column j: its first m entries are basis column j, and when
    transform columns are given, transform column j follows them, so
    every operation and every reorder moves both at once.  The rows are
    int64 while bounds, one Python int per row at least as large as the
    row's largest |entry| over both parts, prove that every operation is
    exact.  One test, _sum_bound, decides: rows[j] - sum of c * rows[k]
    is done in int64 only when every |c| < 2**63 and
    bounds[j] + sum of |c| * bounds[k] < 2**63, which bounds every
    partial sum; a pivot's move rows[j] - c * rows[k] is the case of one
    source.  When that test fails, the bounds of the rows involved
    are measured again; when it still fails, every row becomes
    dtype=object (Python ints, exact at any size) for good, and bounds is
    None.  Basis and transform share the bound, so both leave int64
    together.  On the Python-int path each new row is checked against the
    signed 128-bit range (_checked) and raises OverflowError naming the
    basis or transform column, with the rows unchanged.

    Operations go in two phases, so that apply_moves and apply_column_op
    can check the rows and the Gram matrix before they write either:
    moved (a pivot) and combination compute new rows and write none, and
    put writes them and cannot fail.

    Each part is packed as _pack packs it, and a transform part is joined
    on with one np.hstack; every row starts with the larger of the two
    packed bounds.  Untracked rows are views of the array handed in, the
    read-only Basis.array in run_reducer: no operation writes a row in
    place (moved, combination and _widen build new rows, put and reorder
    rebind them), so an in-place write would raise rather than change the
    input.
    """

    __slots__ = ("rows", "bounds", "m")

    def __init__(self, cols, transform=None):
        # cols and transform are lists of columns or arrays whose row j is
        # column j, as Basis.array is.
        a, bound = _pack(cols)
        self.m = a.shape[1]
        if transform is not None:
            u, u_bound = _pack(transform)
            a = np.hstack([a, u])
            bound = None if None in (bound, u_bound) else max(bound, u_bound)
        self.rows = list(a)
        self.bounds = None if bound is None else [bound] * len(a)

    def _widen(self) -> None:
        """Make every row dtype=object for good."""
        self.rows = [row.astype(object) for row in self.rows]
        self.bounds = None

    def _sum_bound(self, j: int, moves) -> int | None:
        """Bound of rows[j] - sum of c * rows[k] over the (k, c) in moves
        when it is exact in int64, else None.

        None also means every row has become dtype=object.
        """
        bounds = self.bounds
        b = bounds[j]
        for k, c in moves:
            a = abs(c)
            # c itself must fit int64, even against a zero row.
            if a >= _INT64_LIMIT:
                break
            b += a * bounds[k]
        else:
            if b < _INT64_LIMIT:
                return b
            for i in (j, *(k for k, _ in moves)):
                bounds[i] = _max_abs(self.rows[i])
            b = bounds[j] + sum(abs(c) * bounds[k] for k, c in moves)
            if b < _INT64_LIMIT:
                return b
        self._widen()
        return None

    def _checked(self, out) -> list:
        """out, a list of (j, row, bound) for new rows, after a 128-bit
        range check of the rows when they are Python ints (bound None).

        Every basis part is checked before any transform part, and an
        OverflowError names the first column outside.
        """
        if out and out[0][2] is None:
            parts = np.hsplit(np.stack([row for _, row, _ in out]), [self.m])
            for part, a in zip(("basis", "transform"), parts):
                _check_range(a, lambda i, _: f"{part} column {out[i][0]}")
        return out

    def moved(self, k: int, moves) -> list:
        """(j, rows[j] - c * rows[k], bound) for every (j, c) in moves.

        Writes no row; put writes the result.  Each move's bound
        bounds[j] + |c| * bounds[k] is taken inline, and only a move that
        fails _sum_bound's test goes through it, to be measured again or
        widen.  When the rows widen to Python ints partway through the
        list, every move is computed again from the widened rows, so int64
        and Python-int rows never mix.  The new Python-int rows are
        range-checked (_checked).
        """
        rows, bounds = self.rows, self.bounds
        if bounds is not None:
            out = []
            for j, c in moves:
                a = abs(c)
                b = bounds[j] + a * bounds[k]
                if b >= _INT64_LIMIT or a >= _INT64_LIMIT:
                    b = self._sum_bound(j, ((k, c),))
                    if b is None:
                        break
                out.append((j, rows[j] - c * rows[k], b))
            else:
                return out
        rows = self.rows
        return self._checked([(j, rows[j] - c * rows[k], None)
                              for j, c in moves])

    def combination(self, j: int, ks, cs, a: int, s: int):
        """(new, w) for column j -= sum of c * column k over zip(ks, cs):
        new is [(j, the new row, bound)], and w is cs as an array of the
        rows' dtype.

        ks and cs are nonempty.  a is sum|c| and s is the sum of
        |c| * bounds[k] (0 on Python-int rows), both summed by
        apply_column_op's one loop: a < 2**63 and bounds[j] + s < 2**63
        pass _sum_bound's test, and anything else goes through it, to be
        measured again or widen.  Writes no row; put writes the result.
        The sum is one product of w with the stacked source rows, in the
        rows' dtype: exact in int64 under that test, whatever its order.
        On Python ints only the result is range-checked (_checked), so a
        partial sum may leave the 128-bit range.
        """
        b = None
        if self.bounds is not None:
            b = self.bounds[j] + s
            if a >= _INT64_LIMIT or b >= _INT64_LIMIT:
                b = self._sum_bound(j, list(zip(ks, cs)))
        rows = self.rows
        w = np.array(cs, dtype=rows[j].dtype)
        row = rows[j] - w @ np.array([rows[k] for k in ks])
        return self._checked([(j, row, b)]), w

    def put(self, new) -> None:
        """Write the rows, and their bounds, that moved or combination
        computed."""
        for j, row, b in new:
            self.rows[j] = row
            if b is not None:
                self.bounds[j] = b

    def reorder(self, order) -> None:
        """Make row i the row now at order[i], a permutation of the row
        indices, moving each row's bound with it."""
        self.rows = [self.rows[i] for i in order]
        if self.bounds is not None:
            self.bounds = [self.bounds[i] for i in order]

    def basis(self) -> Basis:
        """The basis part of the rows as a Basis, packed as _pack packs it."""
        return Basis._trusted(*_pack(np.stack(self.rows)[:, :self.m]))

    def tolist(self) -> list[list[int]]:
        """The rows as lists of Python ints, transform entries included."""
        return [row.tolist() for row in self.rows]


def _gram_fits_int64(gram: GramMatrix, a: int) -> bool:
    """Whether an update with coefficient size a is exact on gram's int64
    store: a is max|c| for a pivot and sum|c| for a combination.

    Every partial sum of the update is at most bound * (1 + a)**2.
    """
    return a < _INT64_LIMIT and gram.bound * (1 + a) ** 2 < _INT64_LIMIT


def _gram_store(gram: GramMatrix, a: int):
    """gram.g, widened first when an update of size a is not exact on it.

    The int64 store is kept while _gram_fits_int64 holds; when it fails
    the bound is measured again, and when it still fails the store
    becomes Python ints for good.
    """
    if gram.bound is not None and not _gram_fits_int64(gram, a):
        gram.bound = _max_abs(gram.g)
        if not _gram_fits_int64(gram, a):
            gram.g = gram.g.astype(object)
            gram.bound = None
    return gram.g


def _write_gram(gram: GramMatrix, at, new) -> None:
    """Write new as the rows at of gram, and mirror it into the columns at.

    at is an index array, a pivot's moved columns, with new their rows,
    or one column j, a combination's, with new its row.  new is
    range-checked first, naming its first bad entry, and gram.bound is
    raised over it, so on OverflowError nothing has changed.
    """
    _check_range(new, lambda *i: "Gram entry "
                 f"({at if new.ndim == 1 else at[i[0]]},{i[-1]})")
    if gram.bound is not None:
        # The int64 store's bound test keeps every new |entry| below
        # 2**63, so np.abs cannot meet -2**63 here.
        gram.bound = max(gram.bound, int(np.abs(new).max()))
    g = gram.g
    g[at] = new
    g[:, at] = new.T


def update_gram(gram: GramMatrix, k: int, moves) -> None:
    """Update the Gram matrix for a pivot k and its moves, in O(|S| n).

    moves lists (j, c) pairs, j != k, for the column operations
    column j -= c * column k, and S is the set of their columns.  Only the
    rows and columns of S change, by the bilinear identity
    g'[j][l] = g[j][l] - c[j] g[k][l] - c[l] g[k][j] + c[j] c[l] g[k][k]
    (c[l] = 0 for l outside S), computed for all of S as a few whole-array
    operations on the rows S and mirrored into the columns S.

    The int64 store is kept while bound * (1 + max|c|)**2 < 2**63
    (_gram_store), and the new rows are written by _write_gram.
    apply_moves, and with it the greedy polish and mgs, goes through it.
    """
    if not moves:
        return
    idx = np.array([j for j, _ in moves], dtype=np.intp)
    g = _gram_store(gram, max(abs(c) for _, c in moves))
    cs = np.array([c for _, c in moves], dtype=g.dtype)
    c = np.zeros(len(g), dtype=g.dtype)
    c[idx] = cs
    gk = g[k]
    # g'[j][l] = g[j][l] - c[j] g[k][l] - c[l] (g[k][j] - c[j] g[k][k])
    new = g[idx] - cs[:, None] * gk - (gk[idx] - cs * gk[k])[:, None] * c
    _write_gram(gram, idx, new)


def update_gram_column(gram: GramMatrix, j: int, ks, cs, a: int, w) -> None:
    """Update the Gram matrix for column j -= sum of c * column k, in O(|w| n).

    ks and cs are the sources and their nonzero coefficients, every
    k != j, and a is sum|c|; w is cs as an array, used when its dtype is
    the store's.  Only row and column j change:
    g'[j][l] = g[j][l] - (G w)[l] for l != j, and
    g'[j][j] = g[j][j] - 2 (G w)[j] + sum of c (G w)[k], the last summed
    on Python ints.  G w is w times the gathered source rows of G.

    The int64 store is kept while bound * (1 + a)**2 < 2**63, as in
    _gram_store.  Where that fails on the bound B measured again, G w
    is computed on the int64 store, and the store is kept when the
    update's measured values keep every partial sum below 2**63: a * B
    for G w, then a * max|(G w)_k| + (1 + 2a) * B, k over the sources,
    for the new row (both at most B * (1 + a)**2).  Otherwise it widens
    and G w is computed again.  The new row is written by _write_gram.
    """
    gw = None
    if gram.bound is not None and not _gram_fits_int64(gram, a):
        gram.bound = b = _max_abs(gram.g)
        # max(B, 1): c itself must fit int64, even against a zero matrix.
        if a * max(b, 1) < _INT64_LIMIT:
            gw = np.array(cs, dtype=np.int64) @ gram.g.take(ks, 0)
        if gw is None or (a * _max_abs(gw.take(ks)) + (1 + 2 * a) * b
                          >= _INT64_LIMIT):
            gram.g, gram.bound, gw = gram.g.astype(object), None, None
    g = gram.g
    if gw is None:
        if w.dtype != g.dtype:
            w = np.array(cs, dtype=g.dtype)
        gw = w @ g.take(ks, 0)
    new = g[j] - gw
    gw = gw.tolist()
    new[j] = (int(g[j, j]) - 2 * gw[j]
              + sum(c * gw[k] for k, c in zip(ks, cs)))
    _write_gram(gram, j, new)


def apply_moves(rows: IntRows, gram, k: int, moves) -> None:
    """Apply pivot k: column j -= c * column k for every (j, c) in moves.

    rows holds the columns, with their transform part when one is
    tracked; the Gram matrix, when given, is updated exactly alongside
    (pass None to skip it).  The new basis columns, the new transform
    columns and the new Gram rows (update_gram) are computed and
    range-checked in that order, and only then written, so the update is
    all or nothing: on OverflowError, which names the first bad column or
    entry, no value has changed (rows may have widened to Python ints,
    which keeps every value).  A move of column k itself, or two moves of
    one column (each computed from the old column, so only the last would
    land), raises ValueError before anything is computed.
    """
    # k and the targets, all distinct, are one more index than moves.
    if len({k, *(j for j, _ in moves)}) <= len(moves):
        raise ValueError("column indices must differ")
    new = rows.moved(k, moves)
    if gram is not None:
        update_gram(gram, k, moves)
    rows.put(new)


def apply_column_op(rows: IntRows, gram, j: int, moves) -> None:
    """Column operation: column j -= sum of c * column k over (k, c) in moves.

    The sources never change during the operation, so it equals applying
    the moves one at a time, but it writes column j once: the new basis
    column, the new transform column and the new Gram row
    (update_gram_column, when a Gram matrix is given) are computed and
    range-checked in that order, and only then written.  So it is all or
    nothing, as apply_moves is, and only the result is range-checked, not
    the column after each move.  One loop over moves raises ValueError
    for a source equal to j, drops moves with c == 0, and sums the
    coefficient size sum|c| and the rows' int64 bound of the result for
    IntRows.combination; the coefficient array that combination builds
    is reused for the Gram row when the dtypes agree.  Int64 and
    Python-int rows and Gram matrices run this same code.  It has unit
    determinant, so tracked transforms stay unimodular.
    """
    bounds = rows.bounds
    ks, cs = [], []
    a = s = 0
    for k, c in moves:
        if k == j:
            raise ValueError("column indices must differ")
        if c:
            ks.append(k)
            cs.append(c)
            c = abs(c)
            a += c
            if bounds is not None:
                s += c * bounds[k]
    if not ks:
        return
    new, w = rows.combination(j, ks, cs, a, s)
    if gram is not None:
        update_gram_column(gram, j, ks, cs, a, w)
    rows.put(new)


def apply_transform(basis: Basis, transform: TransformRecord) -> Basis:
    """Exact product basis . transform, of the same type as basis.

    Used to verify tracked reductions and, with a transform as basis, to
    compose transforms.  It is one _product: float64 when
    n * M_B * M_U < 2**53, int64 when n * M_B * M_U < 2**63, Python ints
    otherwise.  Entries are not range-checked.
    """
    if transform.n != basis.n:
        raise ValueError("transform dimension does not match basis")
    return basis._trusted(*_product((transform.array, transform.bound),
                                    (basis.array, basis.bound)))


def run_reducer(basis: Basis, track_transform: bool, body) -> ReductionResult:
    """Run one reducer's loop on the columns of basis and report it.

    body(rows) reduces rows, an IntRows of the basis columns, in place and
    returns its iteration count.  When track_transform is set, each row
    also carries the matching column of the identity, so the body's
    column operations build the transform with no code of its own; a
    body reads the basis part only, rows.rows[j][:rows.m], wherever it
    reads entries.  It reads any starting data (Gram matrix,
    Gram-Schmidt, entry sizes) from basis, which is immutable.  The rows
    are written back once, as one np.stack split into the result's basis
    and TransformRecord arrays; before and after are the exact
    column-norm summaries of the input's array and the output's, and
    seconds covers the whole call.
    """
    started = time.perf_counter()
    m, n = basis.m, basis.n
    rows = IntRows(basis.array,
                   np.eye(n, dtype=np.int64) if track_transform else None)
    before = summarize_columns(basis)
    iterations = body(rows)
    stacked = np.stack(rows.rows)
    out = Basis._trusted(*_pack(stacked[:, :m]))
    transform = None
    if track_transform:
        transform = TransformRecord._trusted(*_pack(stacked[:, m:]))
    return ReductionResult(
        basis=out,
        iterations_applied=iterations,
        before=before,
        after=summarize_columns(out),
        seconds=time.perf_counter() - started,
        transform=transform,
    )


def pipeline(basis: Basis, stages, *,
             track_transform: bool = False) -> ReductionResult:
    """Run reducers in order, each on the basis the previous one returned.

    A stage is a reducer's config (LLLConfig, ReduceConfig, AltConfig,
    MGSConfig): stage.run(basis, track_transform) calls its module's
    public reducer with that config and returns its ReductionResult; it
    names the reducer as a module global, looked up when it runs, so a
    rebound one (a tracer's wrapper, a test's counter) is what runs.
    Every stage gets the one track_transform.  The combined result takes
    before from the first stage; basis, after and iterations_applied from
    the last; seconds summed over all; and stages holds each stage's own
    result.  With track_transform its transform is the product of the
    stage transforms, a single stage's passed through as is; a product
    entry beyond the signed 128-bit range raises OverflowError naming its
    column.  An empty stages raises ValueError.
    """
    results = []
    current = basis
    for stage in stages:
        res = stage.run(current, track_transform)
        results.append(res)
        current = res.basis
    if not results:
        raise ValueError("pipeline needs at least one stage")
    # Untracked, every stage's transform is None.
    transform = results[0].transform
    if track_transform:
        for res in results[1:]:
            transform = apply_transform(transform, res.transform)
            _check_range(transform.array,
                         lambda j, _: f"transform column {j}")
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


def bareiss(rows) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of a square integer matrix,
    with row pivoting: (the first column with no pivot, the determinant).

    rows is lists or an array.  The elimination runs on one dtype=object
    copy of it, each step one whole-array update of the trailing block,
    whose division is exact.  It stops at the first column i with no
    nonzero entry on or below the diagonal, which is exactly the first
    column that is a combination of the earlier ones, and gives (i, 0);
    when every column has a pivot it gives (n, det).
    """
    n = len(rows)
    a = np.array(rows, dtype=object)
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    sign, prev = 1, 1
    for i in range(n):
        piv = i + np.flatnonzero(a[i:, i])
        if not len(piv):
            return i, 0
        if piv[0] != i:
            a[[i, piv[0]]] = a[[piv[0], i]]
            sign = -sign
        a[i + 1:, i + 1:] = (a[i + 1:, i + 1:] * a[i, i]
                             - np.outer(a[i + 1:, i], a[i, i + 1:])) // prev
        prev = a[i, i]
    return n, sign * prev


def is_unimodular(transform: TransformRecord) -> bool:
    """Exact |det U| == 1 check for a tracked transform U, at any n.

    Read from the packed array A = U^T (det A = det U).  V, A's float64
    inverse rounded to integers, is a certificate when _product gives
    A V = I exactly: integer A and V with A V = I have det A * det V = 1.
    Every other case (a singular or ill-conditioned A, a V with an entry
    not below 2**62 or rounded wrong, an entry too large for float64)
    takes bareiss's exact determinant.
    """
    a = transform.array
    try:
        v = np.rint(np.linalg.inv(a.astype(np.float64)))
    except (np.linalg.LinAlgError, OverflowError):
        v = None
    # V is cast to int64 only when its entries are below 2**62; a NaN or
    # inf entry is not below it either.
    if v is not None and (np.abs(v) < 2.0**62).all():
        av, _ = _product((a, transform.bound), _pack(v.astype(np.int64)))
        if np.array_equal(av, np.eye(transform.n, dtype=np.int64)):
            return True
    return abs(bareiss(a)[1]) == 1


def write_mat(basis: Basis, path) -> None:
    """Write the text matrix format: ``m n`` header then m row lines.

    Each row is one ``%d`` format over its n entries, read from the
    packed array as Python ints; ``%d`` of a Python int is its str at any
    size.
    """
    row_format = " ".join(["%d"] * basis.n)
    lines = [f"{basis.m} {basis.n}"]
    lines.extend(row_format % tuple(row) for row in basis.array.T.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# Maps each byte of a .mat file to b"0" (a digit), b" " (a sign, blank or
# line break) or b"x" (anything else), for _int64_readable.
_BYTE_CLASSES = bytes(
    ord("0") if b in b"0123456789" else ord(" ") if b in b"+- \t\r\n"
    else ord("x") for b in range(256))

# Eighteen digits are below 10**18 < 2**63; a longer run may not fit int64.
_LONG_DIGIT_RUN = b"0" * 19


def _int64_readable(data: bytes) -> bool:
    """Whether numpy's int64 text reader reads every token of data as
    int() does.

    Over digits, signs, blanks and line breaks both accept exactly
    [+-]?digits.  No run of 19 digits means no token leaves int64, where
    numpy 1.23-1.26 would parse it as a float with only a
    DeprecationWarning and cast it to int64.
    """
    classes = data.translate(_BYTE_CLASSES)
    return b"x" not in classes and _LONG_DIGIT_RUN not in classes


def read_mat(path) -> Basis:
    """Read the text matrix format written by write_mat.

    A file of ASCII text: blank lines are skipped, the first line is
    ``m n`` and each of the next m lines holds n entries, each read as
    int() reads a token.  Entries beyond the signed 128-bit range are
    rejected.  The header and the row count are checked once, first,
    each failure naming what is wrong.  Then the rows of a file of
    digits, signs, blanks and line breaks whose entries have at most 18
    digits are read by numpy's C text reader, kept when it gives an
    m x n array; the rows of any other file, and of any file that reader
    refuses or gives another shape, by the Python parser _parse_mat,
    which names the bad row or token.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MatFormatError(
            f"{path}: non-ASCII byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatFormatError(f"{path}: empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise MatFormatError(f"{path}: header must be 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatFormatError(f"{path}: non-integer header") from exc
    if m < 1 or n < 1:
        raise MatFormatError(f"{path}: dimensions must be positive, got {m} {n}")
    body = lines[1:]
    if len(body) != m:
        raise MatFormatError(f"{path}: expected {m} rows, found {len(body)}")
    if _int64_readable(data):
        try:
            a = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
            if a.shape == (m, n):
                return Basis._trusted(a.T, _max_abs(a))
        except (ValueError, OverflowError):
            pass
    return _parse_mat(path, body, n)


def _parse_mat(path, body: list[str], n: int) -> Basis:
    """read_mat's Python parser of the row lines of a file whose header
    read_mat has checked: one line per row, n entries each."""
    rows = []
    for r, line in enumerate(map(str.split, body)):
        if len(line) != n:
            raise MatFormatError(
                f"{path}: row {r} has {len(line)} entries, expected {n}"
            )
        try:
            row = list(map(int, line))
        except ValueError as exc:
            # map stops at the first token int() rejects; name that token.
            for token in line:
                try:
                    int(token)
                except ValueError:
                    raise MatFormatError(
                        f"{path}: bad integer {token!r} in row {r}") from exc
        if max(row) > INT128_MAX or min(row) < INT128_MIN:
            raise MatFormatError(
                f"{path}: entry in row {r} exceeds the signed 128-bit range"
            )
        rows.append(row)
    # Every entry is a checked int already: packed once, no re-check.
    a, bound = _pack(rows)
    return Basis._trusted(a.T, bound)
