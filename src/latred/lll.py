"""LLL baseline whose floating-point Gram-Schmidt data come from the exact
Gram matrix (the L^2 algorithm: Nguyen & Stehle, "An LLL algorithm with
quadratic complexity", SIAM J. Comput. 2009).

The basis columns stay exact integers in the numpy rows (core.IntRows)
that core.run_reducer hands every reducer, int64 while a bound proves
every step exact and Python ints from then on; when a transform is
tracked, each row also carries its transform column, so the steps below
build it with no code of their own.  Beside the rows the loop keeps the
exact GramMatrix of the basis columns.  Neither moves on a swap: both
stay in input column order, and GSState.col maps each position of the
basis LLL works on to the input column now there, so a swap exchanges
two entries of col and of the float state below, in O(1).  A size
reduction of position k is one core.apply_column_op(rows, gram, col[k],
moves), its sources named through col as well, which writes that column
and its Gram row once; when the loop ends, IntRows.reorder puts the rows
in position order once.  The Gram updates range-check every entry, so a
squared norm past the signed 128-bit range raises OverflowError during
the run.  Such an error ("basis column j", "transform column j", "Gram
entry (j,l)"), like a size reduction that does not settle, names the
column by its index in the input, not by the position it holds when it
fails, as greedy, mgs and rand-comb name theirs.

The only float state is n x n: r[i][j] = <b_i, b*_j> and mu[i][j] =
r[i][j] / r[j][j] for j < i, with r[i][i] = |b*_i|**2, i and j being
positions.  Row k is derived from the exact Gram matrix read under col
by the Cholesky recurrence r[k][j] = g[col[k]][col[j]] - sum over l < j
of mu[j][l] * r[k][l], so the precision it needs depends on n and not
on the size of the entries.  A row is recomputed only from its first
stale entry: a size reduction at k makes all of row k stale, and a swap
at k stales entry k - 1 and above in rows k - 1 and up.  The swap leaves
that one cut in GSState.cut at row k - 1, where the loop goes next; the
loop applies each row's cut when it reaches the row and passes it on to
the row above.  The loop's k moves up one row at a time, so no row is
read before it has applied every cut it owes, and every float is the one
a swap cutting all the rows at once would give.  Every sum runs left to
right in Python floats, never through BLAS or sum(), so each r and mu
comes out bit for bit as the plain loop in tests/oracles.py
(lll_l2_reference) computes it, on any CPU.

Size reduction is lazy.  Its first pass rounds every coefficient from
j = k - 1 down, halves away from zero, reading each from the row as the
earlier moves of the pass left it; when it moved something, row k is
recomputed from the exact Gram and further passes round only the
coefficients past _LAZY_HALF, until one moves nothing.  As with the
rows, work already done is not repeated: each row keeps the length of
its prefix that a first pass moving nothing proved strictly inside
ROUNDS_TO_ZERO, and a later first pass stops there while it has moved
nothing, so a row proven whole is not size-reduced at all.  A pass that
moves empties the row's proven prefix, a lazy pass proves nothing (an
exact tie of +-1/2 may stay), and a swap moves each row's count with
the row, which a cut lowers to the entries it leaves.  Each
skipped coefficient would have rounded to zero, so the moves, and
every float, are those of a scan of the whole row.

A column is dependent only when it is exactly zero (a zero Gram
diagonal), which raises ValueError naming the first input column that
depends on the earlier ones.  The input's diagonal is read once, and
after that the diagonal entry of the column at position k only after a
size reduction that moved it, the one step that can make a column zero.
A squared norm r[k][k] <= 0 that cancellation leaves fails the Lovasz
test, so the columns swap; every r[j][j] a division reads is therefore
positive.

The loop makes at most 100 * n**2 * max(1, bits) swaps, bits being the bit
length of the input's largest |entry|.  The package's q-ary examples take
about 7 * n**2 swaps; one more than the cap raises ArithmeticError naming
it, so a float fault that keeps swapping fails instead of running forever.
A size reduction that runs _PASS_CAP passes without settling raises
ArithmeticError for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Basis,
    GramMatrix,
    IntRows,
    ROUNDS_TO_ZERO,
    ReductionResult,
    UsageError,
    apply_column_op,
    bareiss,
    gram_compute,
    nint_float,
    run_reducer,
)

# Swaps allowed per n**2 and per bit of the input's largest |entry|.
_SWAP_CAP_FACTOR = 100

# After a size-reduction pass that moved something, only a |mu| of at
# least this is rounded.  An exact tie of +-1/2 computes as 1/2 plus or minus a few
# ulps, so with a bound of exactly 1/2 its moves can flip the sign of the
# tie on every pass and never settle (six +-1 moves on one column of a
# q-ary basis at n = 24 did).  2**-20 is far above that noise and far
# below any coefficient that is not a tie.
_LAZY_HALF = 0.5 + 2.0 ** -20

# Size-reduction passes allowed per call.  A pass after the first rounds
# only what the float error of the one before left, so two settle every
# input tried (128-bit entries would need a few); a call past the cap is
# a float cycle, which raises ArithmeticError instead of running forever.
_PASS_CAP = 100


@dataclass(frozen=True)
class LLLConfig:
    # The Lovasz parameter, by default as close to 1 as double precision
    # allows.
    delta: float = 1.0 - 1e-15

    def __post_init__(self):
        if not 0.25 < self.delta <= 1.0:
            raise UsageError(f"delta must lie in (1/4, 1], got {self.delta}")

    def run(self, basis: Basis, track_transform=False) -> ReductionResult:
        """lll_reduce with this config: a stage of core.pipeline."""
        return lll_reduce(basis, self, track_transform=track_transform)


class GSState:
    """The exact Gram matrix of the basis columns and the float rows
    derived from it.

    gram stays in input column order; col[i] is the input column at
    position i of the basis being reduced, a permutation of range(n).
    r[i] and mu[i] are lists of Python floats holding the current entries
    of the row at position i, j <= i for r and j < i for mu; a stale entry
    is deleted, so each list is the row's current prefix.  proven[i] is
    the length of the prefix of mu[i] that a first size-reduction pass
    which moved nothing found strictly inside ROUNDS_TO_ZERO; it never
    exceeds len(mu[i]), and those entries have not changed since.
    cut[i], for i <= n, is the lowest stale index still owed by rows i
    and up, n when none is.  A swap at k sets cut[k - 1] = k - 1, and
    lll_reduce applies cut[i] to row i when it reaches that row and
    passes it on to cut[i + 1], so rows above the current one may hold
    stale entries until then.
    """

    __slots__ = ("gram", "r", "mu", "proven", "col", "cut")

    def __init__(self, gram: GramMatrix):
        n = gram.n
        self.gram = gram
        self.r = [[] for _ in range(n)]
        self.mu = [[] for _ in range(n)]
        self.proven = [0] * n
        self.col = list(range(n))
        self.cut = [n] * (n + 1)


def orthogonalize(state: GSState, k: int) -> None:
    """Complete row k of r and mu from the exact Gram row of the column at
    position k, from its first stale entry on; rows 0..k-1 must be
    complete."""
    r, mu, col = state.r, state.mu, state.col
    r_k, mu_k = r[k], mu[k]
    g_k = state.gram.g[col[k]]
    for j in range(len(r_k), k + 1):
        s = float(g_k.item(col[j]))
        for a, b in zip(mu[j], r_k):
            s -= a * b
        r_k.append(s)
        if j < k:
            mu_k.append(s / r[j][j])


def size_reduce(state: GSState, rows: IntRows, k: int) -> bool:
    """Make |mu[k][j]| <= 1/2 (up to _LAZY_HALF) for all j < k by integer
    column operations; row k must be current, and is current after.
    Returns whether the column at position k moved.

    Each pass rounds from j = k - 1 down, reading each coefficient from
    the row as the pass's earlier moves left it.  A coefficient strictly
    inside the pass's bound rounds to zero and is skipped without
    nint_float; a NaN or an infinity fails that test and raises in
    nint_float (ValueError, OverflowError) before the pass writes
    anything.  The first pass stops at the row's proven prefix while it
    has moved nothing, since those coefficients round to zero; when it
    moves nothing the whole row is proven.  A pass that moves something
    writes input column col[k] and its Gram row once, with every
    (col[j], c) it rounded, by one apply_column_op: no source column
    changes during the pass, so that equals one column operation per
    coefficient.  The row's proven prefix is then empty, and row k is
    recomputed from the exact Gram matrix for the next pass; a later pass
    proves nothing, as its bound _LAZY_HALF is above ROUNDS_TO_ZERO.  A
    call past _PASS_CAP passes raises ArithmeticError naming input column
    col[k].
    """
    mu, col = state.mu, state.col
    mu_k = mu[k]
    # The first pass's first coefficient that does not round to zero.
    for top in range(k - 1, state.proven[k] - 1, -1):
        if not -ROUNDS_TO_ZERO < mu_k[top] < ROUNDS_TO_ZERO:
            break
    else:
        state.proven[k] = k
        return False
    state.proven[k] = 0
    bound = ROUNDS_TO_ZERO
    for _ in range(_PASS_CAP):
        moves = []
        for j in range(top, -1, -1):
            x = mu_k[j]
            if -bound < x < bound:
                continue
            c = nint_float(x)
            moves.append((col[j], c))
            # float(c) * a is c * a: Python converts c the same way.
            f = float(c)
            mu_k[:j] = [y - f * a for y, a in zip(mu_k, mu[j])]
        if not moves:
            return True
        apply_column_op(rows, state.gram, col[k], moves)
        state.r[k].clear()
        mu_k.clear()
        orthogonalize(state, k)
        bound, top = _LAZY_HALF, k - 1
    raise ArithmeticError(f"size reduction of column {col[k]} did not "
                          "settle")


def lovasz_ok(state: GSState, k: int, delta: float) -> bool:
    """Swap condition between columns k-1 and k (k >= 1); a squared norm
    r[k][k] <= 0 fails it."""
    if k < 1:
        raise ValueError("lovasz_ok needs k >= 1")
    prev, nk = state.r[k - 1][k - 1], state.r[k][k]
    mu = state.mu[k][k - 1]
    return nk > 0.0 and delta * prev <= nk + mu * mu * prev


def _rank_deficiency(basis: Basis) -> ValueError:
    # The input's first dependent column is the first column of its exact
    # Gram matrix with no pivot: G w = 0 exactly when B w = 0.
    return ValueError("rank deficiency detected at column "
                      f"{bareiss(gram_compute(basis).g)[0]}")


def lll_reduce(basis: Basis, config: LLLConfig = LLLConfig(), *,
               track_transform: bool = False) -> ReductionResult:
    """LLL over the exact Gram matrix, with float r and mu derived from it.

    Requires linearly independent columns; a column that becomes zero
    raises ValueError naming the first input column dependent on the
    earlier ones.  A basis, transform or Gram entry leaving the signed
    128-bit range raises OverflowError naming it by input column, and a
    run past the swap cap or a size reduction past the pass cap (see the
    module docstring) raises ArithmeticError.
    iterations_applied counts swaps.
    """
    def body(rows):
        n = basis.n
        state = GSState(gram_compute(basis))
        gram, r, mu, proven = state.gram, state.r, state.mu, state.proven
        col, cut = state.col, state.cut
        # Only a size reduction that moves a column can make it zero.
        if not gram.g.diagonal().all():
            raise _rank_deficiency(basis)
        bound = basis.bound
        if bound is None:
            bound = max(map(abs, basis.array.flat))
        cap = _SWAP_CAP_FACTOR * n * n * max(1, bound.bit_length())
        swaps = 0
        k = 0
        while k < n:
            c = cut[k]
            if c < n:
                # Apply the cut a swap left for row k and up, and pass it
                # on to the row above.
                del r[k][c:], mu[k][c:]
                proven[k] = min(proven[k], c)
                cut[k], cut[k + 1] = n, min(cut[k + 1], c)
            orthogonalize(state, k)
            # A row proven whole needs no size reduction; gram.g is read
            # each time, as a Gram update may widen it.
            if (proven[k] < k and size_reduce(state, rows, k)
                    and not gram.g[col[k], col[k]]):
                raise _rank_deficiency(basis)
            if k == 0 or lovasz_ok(state, k, config.delta):
                k += 1
                continue
            if swaps == cap:
                raise ArithmeticError(
                    f"LLL did not finish within its cap of {cap} swaps"
                )
            h = k - 1
            col[h], col[k] = col[k], col[h]
            r[h], r[k], mu[h], mu[k] = r[k], r[h], mu[k], mu[h]
            proven[h], proven[k] = proven[k], proven[h]
            # The swap leaves entries below h current in rows h and up:
            # its one cut waits at h, where the loop goes next.
            cut[h] = h
            swaps += 1
            k = h
        rows.reorder(col)
        return swaps

    return run_reducer(basis, track_transform, body)
