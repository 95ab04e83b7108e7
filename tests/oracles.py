"""Independent reference implementations used only to check the library.

Everything here recomputes from first principles (direct inner products,
exact rational LLL, exhaustive enumeration) and deliberately shares no
code path with the package under test.
"""

import math
from fractions import Fraction
from itertools import product, repeat

import numpy as np


def gram_oracle(cols):
    """All-pairs inner products, no symmetry shortcut."""
    n = len(cols)
    return [
        [sum(x * y for x, y in zip(cols[j], cols[k])) for k in range(n)]
        for j in range(n)
    ]


def product_oracle(basis_cols, u_cols):
    """Columns of basis . U by the plain triple loop."""
    m = len(basis_cols[0])
    return [
        [sum(basis_cols[i][r] * ucol[i] for i in range(len(ucol))) for r in range(m)]
        for ucol in u_cols
    ]


def det_cofactor(rows):
    """Determinant by cofactor expansion (exponential; tiny n only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def inverse_oracle(g):
    """Exact inverse of a nonsingular integer matrix, as Fraction rows, by
    Gauss-Jordan elimination with the first nonzero pivot."""
    n = len(g)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(g)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _nint_frac(x: Fraction) -> int:
    # Halves away from zero, matching the library convention.
    if x >= 0:
        return int((2 * x + 1) // 2)
    return -int((-2 * x + 1) // 2)


def _dot_frac(u, v):
    return sum(a * b for a, b in zip(u, v))


def exact_gram_schmidt(cols):
    """Orthogonalized vectors b* and coefficients mu, in exact rationals."""
    n = len(cols)
    star = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        v = [Fraction(x) for x in cols[i]]
        for j in range(i):
            mu[i][j] = Fraction(_dot_frac(cols[i], star[j])) / _dot_frac(star[j], star[j])
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
    return star, mu


def exact_lll(cols, delta):
    """Textbook LLL in exact rational arithmetic.

    Recomputes the whole Gram-Schmidt decomposition after every change;
    hopeless for speed, ideal as a reference.  Returns new columns.
    """
    basis = [[int(x) for x in col] for col in cols]
    n = len(basis)
    d = Fraction(delta)
    star, mu = exact_gram_schmidt(basis)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            c = _nint_frac(mu[k][j])
            if c != 0:
                basis[k] = [a - c * b for a, b in zip(basis[k], basis[j])]
                star, mu = exact_gram_schmidt(basis)
        if _dot_frac(star[k], star[k]) >= (d - mu[k][k - 1] ** 2) * _dot_frac(star[k - 1], star[k - 1]):
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            star, mu = exact_gram_schmidt(basis)
            k = max(k - 1, 1)
    return basis


def shortest_vector_sq(cols, bound):
    """Smallest nonzero squared norm over all integer combinations with
    coefficients in [-bound, bound] (exhaustive)."""
    n = len(cols)
    mat = np.array(cols, dtype=np.int64).T          # (m, n)
    coeffs = np.array(list(product(range(-bound, bound + 1), repeat=n)),
                      dtype=np.int64)
    vecs = coeffs @ mat.T                           # (count, m)
    norms = (vecs * vecs).sum(axis=1)
    nonzero = norms[(coeffs != 0).any(axis=1)]
    return int(nonzero.min())


def mgs_per_pair(cols, p):
    """Pivoted Gram-Schmidt with rounded projections, one dot per pair.

    The plain loop that mgs_pivot_reduce batches: (pivots chosen, final
    columns).  Every candidate r is orthogonalized against the earlier
    pivots one at a time, every coefficient is one float dot product
    rounded half away from zero, and the score folds the p/2 powers of
    the exact squared norms left to right: chosen pivots, r, then the
    other residual columns in order.  Ties go to the first candidate.
    """
    cols = [list(col) for col in cols]
    half = p / 2.0
    residual = list(range(len(cols)))
    chosen, pivots = [], []
    while residual:
        g = gram_oracle(cols)
        best = None
        for r in residual:
            grr = g[r][r]
            if grr == 0:
                continue
            q = np.array(cols[r], dtype=float)
            for qp in pivots:
                q -= (float(q @ qp) / float(qp @ qp)) * qp
            qq = float(q @ q)
            if qq < 1e-30 * grr:
                continue
            score = 0.0
            for t in chosen:
                score += float(g[t][t]) ** half
            score += float(grr) ** half
            moves = []
            for s in residual:
                if s == r:
                    continue
                x = float(np.array(cols[s], dtype=float) @ q) / qq
                c = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
                if c:
                    moves.append((s, c))
                score += float(g[s][s] - 2 * c * g[s][r] + c * c * grr) ** half
            if best is None or score < best[0]:
                best = (score, r, q, moves)
        if best is None:
            break
        _, r, q, moves = best
        for s, c in moves:
            cols[s] = [a - c * b for a, b in zip(cols[s], cols[r])]
        residual.remove(r)
        chosen.append(r)
        pivots.append(q)
    return len(chosen), cols


def _splitmix64_below(seed, bound):
    """Uniform draws from [0, bound): splitmix64 with rejection.

    bound is one int, for endless draws, or an iterable of ints, one bound
    per draw.
    """
    mask = (1 << 64) - 1
    state = seed & mask
    for b in repeat(bound) if isinstance(bound, int) else bound:
        limit = (1 << 64) - (1 << 64) % b
        while True:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            if z < limit:
                yield z % b
                break


def gen_example_reference(q, ell, seed):
    """The q-ary block basis [[R, q*Id], [Id, 0]] as columns, n = 3*ell.

    The generator written out with one scalar draw per entry: R's
    2*ell x ell entries, row by row, are splitmix64 draws below q from
    seed, each less (q - 1) // 2.
    """
    n = 3 * ell
    draws = _splitmix64_below(seed, q)
    rows = [[0] * n for _ in range(n)]
    for r in range(2 * ell):
        for c in range(ell):
            rows[r][c] = next(draws) - (q - 1) // 2
    for i in range(2 * ell):
        rows[i][ell + i] = q
    for i in range(ell):
        rows[2 * ell + i][i] = 1
    return [list(col) for col in zip(*rows)]


def rand_comb_per_move(cols, iterations, seed):
    """Random-combination steps, one column operation per coefficient.

    The plain loop that random_combination_reduce writes as one
    combination per step: (steps that moved column j, final columns,
    final transform columns).  Column j is drawn by splitmix64 from seed;
    the real coefficients solve the normal equations over the float Gram
    matrix of the other nonzero columns with np.linalg.solve, each is
    rounded half away from zero, and every nonzero one moves column j on
    its own, after which row and column j of the exact Gram matrix are
    recomputed from the columns.  A singular or non-finite system skips
    the step.
    """
    cols = [list(col) for col in cols]
    n = len(cols)
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    g = gram_oracle(cols)
    draws = _splitmix64_below(seed, n)
    applied = 0
    for _ in range(iterations):
        j = next(draws)
        fg = np.array(g, dtype=float)
        others = [k for k in range(n) if k != j and g[k][k] != 0]
        try:
            x = np.linalg.solve(fg[np.ix_(others, others)], fg[others, j])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        moved = False
        for k, xk in zip(others, x.tolist()):
            c = math.floor(xk + 0.5) if xk >= 0 else math.ceil(xk - 0.5)
            if not c:
                continue
            cols[j] = [a - c * b for a, b in zip(cols[j], cols[k])]
            u[j] = [a - c * b for a, b in zip(u[j], u[k])]
            for t in range(n):
                g[j][t] = g[t][j] = sum(
                    a * b for a, b in zip(cols[j], cols[t]))
            moved = True
        applied += moved
    return applied, cols, u


def lll_l2_reference(cols, delta, track):
    """LLL with floating-point Gram-Schmidt rows derived from the exact
    Gram matrix (L^2), its float path written out.

    The loop that lll_reduce runs, with the integer columns (and the
    transform columns when track is true) as Python-int lists, one
    column operation per rounded coefficient: (swaps, final columns,
    final transform columns or None, (r, mu)), where r[i] lists
    r[i][0..i] and mu[i] lists mu[i][0..i-1].  Every row is recomputed
    from index 0 whenever it is read after a change, from the exact
    inner products of the current columns, each sum left to right:
    r[k][j] = g[k][j] - mu[j][0] * r[k][0] - ... - mu[j][j-1] * r[k][j-1]
    and mu[k][j] = r[k][j] / r[j][j].  Size reduction runs passes: the
    first rounds every coefficient, halves away from zero, from the live
    mu row; after a pass that moved something the row is recomputed and
    the next pass rounds only |mu| >= 1/2 + 2**-20.  The Lovasz test
    fails when r[k][k] <= 0.  For full-rank inputs only: there is no rank
    test, swap cap or range check.
    """
    cols = [[int(x) for x in col] for col in cols]
    n = len(cols)
    u = [[int(i == j) for i in range(n)] for j in range(n)] if track else None
    r, mu = [None] * n, [None] * n

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def row(k):
        r[k], mu[k] = r_k, mu_k = [], []
        for j in range(k + 1):
            s = float(dot(cols[k], cols[j]))
            for l in range(j):
                s -= mu[j][l] * r_k[l]
            r_k.append(s)
            if j < k:
                mu_k.append(s / r[j][j])

    row(0)
    swaps = 0
    k = 1
    while k < n:
        row(k)
        first = True
        while True:
            moved = False
            for j in range(k - 1, -1, -1):
                x = mu[k][j]
                if not first and abs(x) < 0.5 + 2.0 ** -20:
                    continue
                c = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
                if c == 0:
                    continue
                for l in range(j):
                    mu[k][l] = mu[k][l] - c * mu[j][l]
                cols[k] = [a - c * b for a, b in zip(cols[k], cols[j])]
                if track:
                    u[k] = [a - c * b for a, b in zip(u[k], u[j])]
                moved = True
            if not moved:
                break
            row(k)
            first = False
        prev, nk, mu_kk = r[k - 1][k - 1], r[k][k], mu[k][k - 1]
        if nk > 0.0 and delta * prev <= nk + mu_kk * mu_kk * prev:
            k += 1
            continue
        cols[k - 1], cols[k] = cols[k], cols[k - 1]
        if track:
            u[k - 1], u[k] = u[k], u[k - 1]
        row(k - 1)
        swaps += 1
        k = max(k - 1, 1)
    return swaps, cols, u, (r, mu)


def read_mat_reference(path):
    """The Python-only .mat parser, kept as it was before read_mat took
    numpy's text reader: (m, columns) of the file, or ValueError with the
    message read_mat's MatFormatError must carry."""
    INT128_MAX = (1 << 127) - 1
    INT128_MIN = -(1 << 127)
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens_by_line = [line.split() for line in text.splitlines() if line.strip()]
    if not tokens_by_line:
        raise ValueError(f"{path}: empty matrix file")
    header = tokens_by_line[0]
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'm n'")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer header") from exc
    if m < 1 or n < 1:
        raise ValueError(f"{path}: dimensions must be positive, got {m} {n}")
    body = tokens_by_line[1:]
    if len(body) != m:
        raise ValueError(f"{path}: expected {m} rows, found {len(body)}")
    rows = []
    for r, line in enumerate(body):
        if len(line) != n:
            raise ValueError(
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
                    raise ValueError(
                        f"{path}: bad integer {token!r} in row {r}") from exc
        if max(row) > INT128_MAX or min(row) < INT128_MIN:
            raise ValueError(
                f"{path}: entry in row {r} exceeds the signed 128-bit range"
            )
        rows.append(row)
    return m, [list(col) for col in zip(*rows)]
