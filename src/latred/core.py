"""Exact integer primitives shared by every reducer.

Basis vectors, Gram matrices, and accumulated column transforms are stored
as plain Python integers so that all norm bookkeeping is exact.  Values are
required to stay inside the signed 128-bit range; crossing it raises
OverflowError rather than silently widening, since for the intended inputs
a wider value always indicates a bug.

Every reducer runs inside run_reducer, which owns the frame around its
loop: the working copy of the input, the identity transform when one is
tracked, the exact before/after norm summaries, the timing and the
ReductionResult.  pipeline chains reducers.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import reduce

INT128_MAX = (1 << 127) - 1
INT128_MIN = -(1 << 127)


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

    def col(self, j: int) -> list[int]:
        return self.cols[j]

    def to_rows(self) -> list[list[int]]:
        return [[col[r] for col in self.cols] for r in range(self.m)]

    def copy(self) -> "Basis":
        dup = object.__new__(type(self))
        dup.m = self.m
        dup.cols = [list(col) for col in self.cols]
        return dup

    def swap_columns(self, j: int, k: int) -> None:
        self.cols[j], self.cols[k] = self.cols[k], self.cols[j]

    def __eq__(self, other):
        return type(other) is type(self) and self.cols == other.cols

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, n={self.n})"


class GramMatrix:
    """Symmetric matrix of exact pairwise inner products, ``g[j][k]``."""

    __slots__ = ("g",)

    def __init__(self, g):
        n = len(g)
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
        self.g = [list(row) for row in g]

    @property
    def n(self) -> int:
        return len(self.g)

    def diagonal(self) -> list[int]:
        return [self.g[k][k] for k in range(self.n)]

    def copy(self) -> "GramMatrix":
        dup = object.__new__(GramMatrix)
        dup.g = [list(row) for row in self.g]
        return dup

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.g == other.g

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


def gram_compute(basis: Basis) -> GramMatrix:
    """Exact Gram matrix of the basis columns.

    Only the upper triangle is computed; the rest is mirrored from symmetry.
    """
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
    out = object.__new__(GramMatrix)
    out.g = g
    return out


def column_norms_sq(basis: Basis) -> list[int]:
    """Exact squared norm of every column (the Gram diagonal, cheaper)."""
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


def projected_norm_sq(g, j: int, k: int, c: int, gkk: int) -> int:
    """Exact squared norm of column j after subtracting c * column k.

    g is the Gram matrix's entry list and gkk its diagonal entry g[k][k].
    A negative value can only come from a Gram matrix that does not match
    any basis, so it raises ArithmeticError.
    """
    v = g[j][j] + c * c * gkk - 2 * c * g[j][k]
    if v < 0:
        raise ArithmeticError(
            f"negative squared norm for column {j} against pivot {k}: "
            "Gram matrix is corrupt"
        )
    return v


def _check_column(col: list[int], what: str, j: int) -> None:
    """Raise OverflowError naming column j if an entry leaves the 128-bit range."""
    if max(col) > INT128_MAX or min(col) < INT128_MIN:
        raise OverflowError(
            f"{what} column {j} exceeds the signed 128-bit range"
        )


def _sub_column_multiple(cols, j: int, k: int, c: int, what: str) -> None:
    """cols[j] -= c * cols[k] in place, then range-check the new column."""
    cj = cols[j]
    ck = cols[k]
    for r in range(len(cj)):
        cj[r] -= c * ck[r]
    _check_column(cj, what, j)


def apply_column_op(basis, gram, transform, j: int, k: int, c: int) -> None:
    """Elementary column operation: column j -= c * column k.

    The Gram matrix and transform record, when given, are updated exactly
    alongside the basis; pass None to skip either.  Every updated entry is
    checked against the signed 128-bit range.  The operation has unit
    determinant, so tracked transforms stay unimodular.
    """
    if j == k:
        raise ValueError("column indices must differ")
    if c == 0:
        return
    _sub_column_multiple(basis.cols, j, k, c, "basis")
    if gram is not None:
        g = gram.g
        gj = g[j]
        gk = g[k]
        # New diagonal uses pre-update cross terms; compute before mutating.
        new_jj = gj[j] - 2 * c * gk[j] + c * c * gk[k]
        for i in range(len(g)):
            if i == j:
                continue
            v = gj[i] - c * gk[i]
            if v > INT128_MAX or v < INT128_MIN:
                raise OverflowError(
                    f"Gram entry ({j},{i}) exceeds the signed 128-bit range"
                )
            gj[i] = v
            g[i][j] = v
        if new_jj > INT128_MAX or new_jj < INT128_MIN:
            raise OverflowError(
                f"Gram entry ({j},{j}) exceeds the signed 128-bit range"
            )
        gj[j] = new_jj
    if transform is not None:
        _sub_column_multiple(transform.cols, j, k, c, "transform")


def apply_transform(basis: Basis, transform: TransformRecord) -> Basis:
    """Exact product basis . transform, of the same type as basis.

    Used to verify tracked reductions and, with a transform as basis, to
    compose transforms.
    """
    if transform.n != basis.n:
        raise ValueError("transform dimension does not match basis")
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
    return type(basis)(cols)


def run_reducer(basis: Basis, track_transform: bool, body) -> ReductionResult:
    """Run one reducer's loop on a copy of basis and report it.

    body(work, transform) reduces work in place, applies every column
    operation to transform too (an identity TransformRecord when
    track_transform is set, else None), and returns its iteration count.
    The input is never mutated; before and after are the exact column-norm
    summaries of the input and the output, and seconds covers the whole
    call.
    """
    started = time.perf_counter()
    work = basis.copy()
    transform = TransformRecord.identity(work.n) if track_transform else None
    before = summarize_columns(work)
    iterations = body(work, transform)
    return ReductionResult(
        basis=work,
        iterations_applied=iterations,
        before=before,
        after=summarize_columns(work),
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
    raises OverflowError naming its column.
    """
    results = []
    current = basis
    for stage in stages:
        res = stage(current)
        results.append(res)
        current = res.basis
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
    if n > 16:
        raise ValueError("det_small is limited to n <= 16")
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


def is_unimodular(transform: TransformRecord) -> bool:
    """Exact |det| == 1 check for tracked transforms, n <= 16."""
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
