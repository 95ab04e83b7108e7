"""LLL baseline with double-precision Gram-Schmidt.

The basis columns stay exact integers; only the orthogonalized vectors
and their projection coefficients are floating point.  The integer
columns are the numpy rows (core.IntRows) that core.run_reducer hands
every reducer, int64 while a bound proves every size-reduction step exact
and Python ints from then on; when a transform is tracked, each row also
carries its transform column, so the steps below build it with no code of
their own.  Size reduction writes each column it changes once
(core.apply_column_op, with every coefficient it rounded), and a swap
swaps two rows.  Most size reductions move nothing (80% at n = 24), so
size_reduce reads the coefficients as one Python list and skips each
one that rounds to zero without a rounding call; numpy runs only for a
move.  The float side works on whole arrays: a float mirror of the
basis (``GSState.fcols``) is cast from the basis's packed array once
and then kept in step with the integer rows (columns swapped with
every swap, a column cast again from the basis part of its integer row
after size reduction changes it), and each Gram-Schmidt pass projects
a column off all earlier b* at once with two matrix-vector products,
reading the mirror's column in place.  These shortcuts change no float
operation: every product and update runs on the same operands in the
same order, so each b*, mu and norm comes out bit for bit as the plain
loop in tests/oracles.py (lll_float_reference) computes it.  Accuracy
comes from two measures: every orthogonalization runs exactly two such
passes, classical Gram-Schmidt with one reorthogonalization (CGS2:
"twice is enough", Kahan-Parlett; Giraud, Langou & Rozloznik 2005), and
on every swap the two affected orthogonal vectors are recomputed from
scratch instead of patched.  That is enough for the random bases of interest
here, not for adversarial inputs built to break floating-point reducers.

The Gram-Schmidt state exists only for linearly independent columns.
_orthogonalize_column is the one place that decides rank deficiency: at
the start or after a swap, it raises ValueError naming the first column
whose orthogonal part falls under RANK_FLOOR.  So every b* norm that a
division reads is nonzero.

The loop makes at most 100 * n**2 * max(1, bits) swaps, bits being the bit
length of the input's largest |entry|.  The package's q-ary examples take
about 7 * n**2 swaps; one more than the cap raises ArithmeticError naming
it, so a float fault that keeps swapping fails instead of running forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Basis,
    IntRows,
    RANK_FLOOR,
    ROUNDS_TO_ZERO,
    ReductionResult,
    UsageError,
    apply_column_op,
    nint_float,
    run_reducer,
)

# Swaps allowed per n**2 and per bit of the input's largest |entry|.
_SWAP_CAP_FACTOR = 100

@dataclass(frozen=True)
class LLLConfig:
    # The Lovasz parameter, by default as close to 1 as double precision
    # allows.
    delta: float = 1.0 - 1e-15

    def __post_init__(self):
        if not 0.25 < self.delta <= 1.0:
            raise UsageError(f"delta must lie in (1/4, 1], got {self.delta}")


@dataclass
class GSState:
    """Floating Gram-Schmidt data for a full-rank basis: b*, mu, norms,
    float columns.

    fcols mirrors the integer basis, column k being the exact integer
    column k rounded to doubles; whoever changes a basis column updates
    its mirror column.  The b* columns come from classical Gram-Schmidt
    with one reorthogonalization (CGS2) in matrix form: each of the two
    passes projects b_k off b*_0..b*_{k-1} together.  Every norms_sq entry
    of an orthogonalized column is nonzero, since a dependent column
    raises before it is stored.
    """

    bstar: np.ndarray            # (m, n), column k is b*_k
    mu: np.ndarray               # (n, n) lower triangular, unit diagonal
    norms_sq: np.ndarray         # (n,), squared norms of b*
    fcols: np.ndarray            # (m, n), float mirror of the basis columns


def _orthogonalize_column(state: GSState, k: int) -> None:
    """Project column k off b*_0..b*_{k-1} in exactly two passes (CGS2).

    Each pass takes two matrix-vector products, and mu[k][:k] is the sum
    of the two passes' coefficients.  Column k of the mirror is read in
    place, not copied: fcols is the transpose of a C-ordered array, so
    the column is contiguous and the products see the same operands as
    on a copy, and b is only rebound, never written.  The second pass
    removes what rounding left of the first; for a column that is not
    numerically dependent that gives orthogonality to working precision
    ("twice is enough").  A column whose orthogonal part falls under
    RANK_FLOOR times its own squared norm (a zero column included) raises
    ValueError naming k, before anything of column k is stored: this is
    the one place that decides rank deficiency.
    """
    b = state.fcols[:, k]
    norm0 = float(b @ b)
    bstar = state.bstar[:, :k]
    denom = state.norms_sq[:k]
    t = (b @ bstar) / denom
    b = b - bstar @ t
    t2 = (b @ bstar) / denom
    b = b - bstar @ t2
    nk = float(b @ b)
    if norm0 == 0.0 or nk < RANK_FLOOR * norm0:
        raise ValueError(f"rank deficiency detected at column {k}")
    state.mu[k, :k] = t + t2
    state.bstar[:, k] = b
    state.norms_sq[k] = nk


def orthogonalize(basis: Basis) -> GSState:
    """Two-pass classical Gram-Schmidt (CGS2) over all columns.

    Raises ValueError naming the first column that comes out
    (numerically) dependent on the earlier ones, a zero column included.
    """
    m, n = basis.m, basis.n
    state = GSState(
        bstar=np.zeros((m, n)),
        mu=np.eye(n),
        norms_sq=np.zeros(n),
        fcols=basis.array.astype(float).T,
    )
    for k in range(n):
        _orthogonalize_column(state, k)
    return state


def size_reduce(state: GSState, rows: IntRows, k: int) -> None:
    """Make |mu[k][j]| <= 1/2 for all j < k via integer column operations.

    The float loop rounds the coefficients from j = k - 1 down.  It reads
    them from one list of mu[k][:k], taken once: until the first move no
    entry changes, and from then on it reads the live entry, which each
    move has updated.  A coefficient strictly inside +-ROUNDS_TO_ZERO
    rounds to zero and is skipped without nint_float; a NaN or an
    infinity fails that test and raises in nint_float (ValueError,
    OverflowError) before any row is written.  With no move the call
    returns having written nothing.  Otherwise column k is written once,
    with every (j, c) it rounded, by one apply_column_op: no source
    column j < k changes during the loop, so that equals one column
    operation per coefficient.  Its float mirror is then cast again from
    the basis part of its integer row.
    """
    mu_k = state.mu[k]
    head = mu_k[:k].tolist()
    # nint_float(x) == 0 exactly when lo < x < hi; locals, as the test
    # runs once per coefficient.
    lo, hi = -ROUNDS_TO_ZERO, ROUNDS_TO_ZERO
    moves = []
    for j in range(k - 1, -1, -1):
        x = float(mu_k[j]) if moves else head[j]
        if lo < x < hi:
            continue
        c = nint_float(x)
        moves.append((j, c))
        # b* is unchanged; only row k of mu moves.
        mu_k[:j] -= c * state.mu[j, :j]
        mu_k[j] -= c
    if not moves:
        return
    apply_column_op(rows, None, k, moves)
    state.fcols[:, k] = rows.rows[k][:rows.m]


def lovasz_ok(state: GSState, k: int, delta: float) -> bool:
    """Swap condition between columns k-1 and k (k >= 1)."""
    if k < 1:
        raise ValueError("lovasz_ok needs k >= 1")
    prev = float(state.norms_sq[k - 1])
    mu = float(state.mu[k, k - 1])
    return delta * prev <= float(state.norms_sq[k]) + mu * mu * prev


def _recompute_after_swap(state: GSState, k: int) -> None:
    """Rebuild b*_{k-1}, b*_k from scratch and the mu entries that read them."""
    for idx in (k - 1, k):
        _orthogonalize_column(state, idx)
    pair = slice(k - 1, k + 1)
    state.mu[k + 1:, pair] = (
        (state.fcols[:, k + 1:].T @ state.bstar[:, pair]) / state.norms_sq[pair]
    )


def lll_reduce(basis: Basis, config: LLLConfig | None = None, *,
               track_transform: bool = False) -> ReductionResult:
    """Classical LLL with recompute-on-swap.

    Requires linearly independent columns; the first column whose
    orthogonal part falls under the rank floor, at the start or after a
    swap, raises ValueError naming it.  A basis or transform entry
    leaving the signed 128-bit range raises OverflowError naming its
    column, and a run past the swap cap (see the module docstring) raises
    ArithmeticError.  iterations_applied counts swaps.
    """
    cfg = config if config is not None else LLLConfig()

    def body(rows):
        n = basis.n
        state = orthogonalize(basis)
        bound = basis.bound
        if bound is None:
            bound = max(map(abs, basis.array.flat))
        bits = bound.bit_length()
        cap = _SWAP_CAP_FACTOR * n * n * max(1, bits)
        fcols = state.fcols
        swaps = 0
        k = 1
        while k < n:
            size_reduce(state, rows, k)
            if lovasz_ok(state, k, cfg.delta):
                k += 1
                continue
            if swaps == cap:
                raise ArithmeticError(
                    f"LLL did not finish within its cap of {cap} swaps"
                )
            rows.swap(k - 1, k)
            prev = fcols[:, k - 1].copy()
            fcols[:, k - 1] = fcols[:, k]
            fcols[:, k] = prev
            _recompute_after_swap(state, k)
            swaps += 1
            k = max(k - 1, 1)
        return swaps

    return run_reducer(basis, track_transform, body)
