import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latred.core import (
    Basis,
    IntRows,
    apply_transform,
    det_small,
    is_unimodular,
    summarize_columns,
)
from latred.genlat import ExampleSpec, gen_example, random_permutation
import latred.lll as lll_module
from latred.lll import (
    DEFAULT_DELTA,
    LLLConfig,
    lll_reduce,
    lovasz_ok,
    orthogonalize,
    size_reduce,
)

from oracles import (
    exact_gram_schmidt,
    exact_lll,
    lll_float_reference,
    shortest_vector_sq,
)


def random_square_basis(rng, n, max_entry=20):
    while True:
        cols = [[rng.randint(-max_entry, max_entry) for _ in range(n)]
                for _ in range(n)]
        if det_small(cols) != 0:
            return Basis(cols)


def orthogonality_residual(state, n):
    worst = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            denom = math.sqrt(state.norms_sq[j] * state.norms_sq[k])
            if denom == 0:
                continue
            dot = float(state.bstar[:, j] @ state.bstar[:, k])
            worst = max(worst, abs(dot) / denom)
    return worst


def loop_orthogonalize(cols):
    """Reference Gram-Schmidt: one dot product per (k, j), applied in turn."""
    a = np.array(cols, dtype=float).T
    m, n = a.shape
    bstar = np.zeros((m, n))
    mu = np.eye(n)
    for k in range(n):
        b = a[:, k].copy()
        for _ in range(2):
            for j in range(k):
                t = float(b @ bstar[:, j]) / float(bstar[:, j] @ bstar[:, j])
                mu[k, j] += t
                b -= t * bstar[:, j]
        bstar[:, k] = b
    return bstar, mu


def mirror_matches(state, rows):
    basis_part = [row[:rows.m] for row in rows.tolist()]
    return np.array_equal(state.fcols, np.array(basis_part, dtype=float).T)


def crossing_inputs():
    """20 small bases with entries between 2**61 and 2**62: int64 at the
    start, but most need Python ints partway through LLL."""
    rng = random.Random(65)
    out = []
    for _ in range(20):
        n = rng.randint(2, 5)
        out.append([[rng.choice((1, -1)) * rng.randint(1 << 61, 1 << 62)
                     for _ in range(5)] for _ in range(n)])
    return out


def reduce_column(basis, k, mu_k=None):
    """Size-reduce column k of basis; returns the state and the integer rows."""
    state = orthogonalize(basis)
    if mu_k is not None:
        state.mu[k, :k] = mu_k
    rows = IntRows(basis.cols)
    size_reduce(state, rows, k)
    return state, rows


def check_postconditions(basis, delta, mu_tol=1e-9):
    """Size reduction and the swap condition, from a fresh orthogonalization."""
    state = orthogonalize(basis)
    n = basis.n
    for k in range(n):
        for j in range(k):
            assert abs(state.mu[k, j]) <= 0.5 + mu_tol
    for k in range(1, n):
        assert lovasz_ok(state, k, delta - 1e-9)


class TestOrthogonalize:
    def test_identity(self):
        state = orthogonalize(Basis.identity(3))
        assert np.allclose(state.bstar, np.eye(3))
        assert np.allclose(state.mu, np.eye(3))

    def test_skewed_pair(self):
        state = orthogonalize(Basis([[1, 0], [10, 1]]))
        assert np.allclose(state.bstar[:, 0], [1.0, 0.0])
        assert state.mu[1, 0] == pytest.approx(10.0)
        assert np.allclose(state.bstar[:, 1], [0.0, 1.0], atol=1e-12)

    def test_residual_small_on_random_bases(self):
        rng = random.Random(50)
        for _ in range(10):
            basis = random_square_basis(rng, 8, max_entry=100)
            state = orthogonalize(basis)
            assert orthogonality_residual(state, 8) <= 1e-12

    def test_residual_small_at_n64_large_entries(self):
        rng = random.Random(51)
        cols = [[rng.randint(-(2**13), 2**13) for _ in range(64)]
                for _ in range(64)]
        state = orthogonalize(Basis(cols))
        assert orthogonality_residual(state, 64) <= 1e-12

    def test_two_passes_accurate_on_nearly_parallel_columns(self):
        # Every column is one vector with entries near 2**30 plus a
        # perturbation of at most 1000 per entry, so all b*_j past the
        # first are about 10**6 times shorter than the columns.
        rng = random.Random(54)
        for _ in range(5):
            v = [rng.choice((1, -1)) * ((1 << 30) + rng.randint(-1000, 1000))
                 for _ in range(8)]
            cols = [[x + rng.randint(-1000, 1000) for x in v]
                    for _ in range(8)]
            state = orthogonalize(Basis(cols))
            assert orthogonality_residual(state, 8) <= 1e-12
            _, mu = exact_gram_schmidt(cols)
            for k in range(8):
                for j in range(k):
                    err = abs(Fraction(float(state.mu[k, j])) - mu[k][j])
                    # Relative to |mu|, or absolute for |mu| < 1.
                    assert err <= 1e-8 * max(abs(mu[k][j]), 1)

    def test_matches_loop_reference(self):
        rng = random.Random(52)
        for _ in range(10):
            basis = random_square_basis(rng, 8, max_entry=100)
            state = orthogonalize(basis)
            bstar, mu = loop_orthogonalize(basis.cols)
            scale = np.abs(bstar).max()
            assert np.allclose(state.bstar, bstar, rtol=0, atol=1e-12 * scale)
            assert np.allclose(state.mu, mu, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cols, k", [
        ([[1, 0], [0, 0]], 1),
        ([[1, 0], [2, 0], [0, 1]], 1),
        ([[1, 2, -1, 0], [0, 1, -1, 0], [0, 0, 0, 0], [5, -1, 0, 3],
          [2, 7, 1, -4]], 2),
        # Column 2 is the sum of columns 0 and 1.
        ([[1, 2, -1, 0], [0, 1, -1, 0], [1, 3, -2, 0], [5, -1, 0, 3],
          [2, 7, 1, -4]], 2),
    ], ids=["zero", "doubled", "zero-middle", "dependent-middle"])
    def test_rank_deficiency_names_the_first_dependent_column(self, cols, k):
        message = f"rank deficiency detected at column {k}$"
        with pytest.raises(ValueError, match=message):
            orthogonalize(Basis(cols))
        with pytest.raises(ValueError, match=message):
            lll_reduce(Basis(cols))

    def test_mirror_rounds_entries_near_2_60_like_numpy(self):
        rng = random.Random(53)
        cols = [[rng.choice((1, -1)) * ((1 << 60) + rng.randint(-999, 999))
                 for _ in range(5)] for _ in range(4)]
        assert any(int(float(x)) != x for col in cols for x in col)
        state = orthogonalize(Basis(cols))
        for j, col in enumerate(cols):
            assert np.array_equal(state.fcols[:, j], np.array(col, dtype=float))


class TestSizeReduce:
    def test_clears_large_mu(self):
        state, rows = reduce_column(Basis([[1, 0], [10, 1]]), 1)
        assert rows.tolist()[1] == [0, 1]
        assert state.mu[1, 0] == pytest.approx(0.0)

    def test_noop_when_already_reduced(self):
        basis = Basis([[5, 1], [2, -3]])  # mu[1][0] = 7/26, inside [-1/2, 1/2]
        _, rows = reduce_column(basis, 1)
        assert rows.tolist() == basis.cols

    def test_exact_half_rounds_away_from_zero(self):
        basis = Basis([[2, 0], [1, 1]])  # mu[1][0] == 1/2 exactly
        assert orthogonalize(basis).mu[1, 0] == pytest.approx(0.5)
        state, rows = reduce_column(basis, 1)
        assert rows.tolist()[1] == [-1, 1]
        assert state.mu[1, 0] == pytest.approx(-0.5)

    def test_mirror_follows_changed_column(self):
        basis = Basis([[1, 0, 0], [7, 1, 0], [(1 << 60) + 1, 3, 1 << 60]])
        state, rows = reduce_column(basis, 2)
        assert rows.tolist()[2] != [(1 << 60) + 1, 3, 1 << 60]
        assert mirror_matches(state, rows)

    def test_just_below_half_still_rounds_like_the_loop(self):
        # nint_float(0.5 - 2**-54) == 1, so this coefficient is not skipped.
        state, rows = reduce_column(Basis([[1, 0], [0, 1]]), 1,
                                    mu_k=0.5 - 2.0 ** -54)
        assert rows.tolist()[1] == [-1, 1]
        assert mirror_matches(state, rows)

    @pytest.mark.parametrize("x", [-(0.5 - 2.0 ** -54), -0.5])
    def test_negative_half_and_just_above_round_to_minus_one(self, x):
        state, rows = reduce_column(Basis.identity(2), 1, mu_k=x)
        assert rows.tolist()[1] == [1, 1]
        assert state.mu[1, 0] == x + 1

    def test_coefficient_beyond_2_53_rounds_exactly(self):
        x = 2.0 ** 53 + 2
        state, rows = reduce_column(Basis.identity(2), 1, mu_k=x)
        assert rows.tolist()[1] == [-(2 ** 53 + 2), 1]
        assert math.copysign(1.0, state.mu[1, 0]) == 1.0  # +0.0, not -0.0
        assert mirror_matches(state, rows)

    def test_first_column_is_a_noop(self):
        basis = Basis([[3, 1], [7, 2]])
        state = orthogonalize(basis)
        before = state.mu.tobytes(), state.fcols.tobytes()
        rows = IntRows(basis.cols)
        size_reduce(state, rows, 0)
        assert rows.tolist() == basis.cols
        assert (state.mu.tobytes(), state.fcols.tobytes()) == before

    @pytest.mark.parametrize("mu_k, error", [
        ([math.nan, 0.0], ValueError),
        ([0.0, math.nan], ValueError),
        # The move at j = 1 leaves a NaN for j = 0 to round.
        ([math.nan, 2.0], ValueError),
        ([math.inf, 0.0], OverflowError),
        ([0.0, -math.inf], OverflowError),
        ([-math.inf, 2.0], OverflowError),
    ])
    def test_non_finite_coefficient_raises_and_leaves_rows(self, mu_k, error):
        basis = Basis.identity(3)
        state = orthogonalize(basis)
        state.mu[2, :2] = mu_k
        rows = IntRows(basis.cols)
        with pytest.raises(error):
            size_reduce(state, rows, 2)
        assert rows.tolist() == basis.cols
        assert mirror_matches(state, rows)

    def test_later_coefficient_is_rounded_from_the_live_row(self):
        # The move at j = 1 makes mu[2][0] = 0.3 + 0.4 = 0.7, which rounds
        # to 1; the value before the move, 0.3, would round to 0.
        state = orthogonalize(Basis.identity(3))
        state.mu[1, 0] = -0.4
        state.mu[2, :2] = [0.3, 1.0]
        rows = IntRows(Basis.identity(3).cols)
        size_reduce(state, rows, 2)
        assert rows.tolist()[2] == [-1, -1, 1]
        assert state.mu[2, 0] == pytest.approx(-0.3)
        assert state.mu[2, 1] == 0.0
        assert mirror_matches(state, rows)


class TestLovasz:
    def test_orthogonal_equal_norms_pass(self):
        state = orthogonalize(Basis([[3, 0], [0, 3]]))
        assert lovasz_ok(state, 1, 1.0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_1(self, k):
        state = orthogonalize(Basis.identity(2))
        with pytest.raises(ValueError, match="k >= 1"):
            lovasz_ok(state, k, DEFAULT_DELTA)

    def test_direct_failure_case(self):
        state = orthogonalize(Basis.identity(2))
        state.norms_sq[0] = 1.0
        state.norms_sq[1] = 0.1
        state.mu[1, 0] = 0.4
        assert not lovasz_ok(state, 1, 0.99)  # 0.99 > 0.1 + 0.16

    def test_quarter_delta_always_passes_when_size_reduced(self):
        rng = random.Random(60)
        for _ in range(20):
            basis = random_square_basis(rng, 4)
            res = lll_reduce(basis, LLLConfig(delta=0.75))
            state = orthogonalize(res.basis)
            for k in range(1, 4):
                assert lovasz_ok(state, k, 0.25)


class TestLLLReduce:
    def test_identity_unchanged(self):
        res = lll_reduce(Basis.identity(4))
        assert res.basis == Basis.identity(4)

    def test_skewed_pair(self):
        res = lll_reduce(Basis([[1, 0], [10, 1]]))
        assert res.basis.cols == [[1, 0], [0, 1]]

    def test_three_dim_example_matches_exact_reference(self):
        cols = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        res = lll_reduce(Basis(cols), LLLConfig(delta=0.75))
        assert res.basis.cols == exact_lll(cols, 0.75)
        assert all(sum(x * x for x in c) <= 6 for c in res.basis.cols)
        check_postconditions(res.basis, 0.75)

    def test_matches_exact_reference_on_random_bases(self):
        rng = random.Random(61)
        for _ in range(15):
            n = rng.randint(2, 5)
            basis = random_square_basis(rng, n, max_entry=15)
            res = lll_reduce(basis, LLLConfig(delta=0.75))
            assert res.basis.cols == exact_lll(basis.cols, 0.75)

    def test_postconditions_on_random_bases(self):
        rng = random.Random(62)
        for delta in (0.75, 1.0 - 1e-15):
            for _ in range(10):
                basis = random_square_basis(rng, 6, max_entry=40)
                res = lll_reduce(basis, LLLConfig(delta=delta))
                check_postconditions(res.basis, delta)

    def test_lattice_preserved(self):
        rng = random.Random(63)
        for _ in range(15):
            n = rng.randint(2, 8)
            basis = random_square_basis(rng, n)
            res = lll_reduce(basis, track_transform=True)
            assert apply_transform(basis, res.transform) == res.basis
            assert abs(det_small(res.transform.to_rows())) == 1

    def test_norm_quality_vs_enumeration(self):
        rng = random.Random(64)
        delta = 1.0 - 1e-15
        factor = (2.0 / math.sqrt(4.0 * delta - 1.0))
        for _ in range(15):
            n = rng.randint(2, 3)
            basis = random_square_basis(rng, n, max_entry=8)
            res = lll_reduce(basis, LLLConfig(delta=delta))
            best = shortest_vector_sq(basis.cols, 12)
            out_min = summarize_columns(res.basis).min_norm_sq
            assert math.sqrt(out_min) <= factor ** (n - 1) * math.sqrt(best) + 1e-9

    # (swaps, frob_sq, min_sq, sha256 of the output basis and transform
    # columns) of the paper's permute -> LLL step at q = 8191.
    # A change to the float path that moves one of the first three also
    # moves the benchmark's exact-output digest; the hash catches a change
    # that moves any output entry.
    GOLDEN = {
        (2, 1): (43, 1260081, 92977,
                 "a9972aa113710829a8739a200508a14dc87a832901c24b3c6126f7e51b1b1fca"),
        (2, 2): (54, 1306779, 92798,
                 "64a7c01445cd67650f2b07eb62f2c6a807dc44725fe337bfef0455b2372819ec"),
        (4, 1): (416, 3150998, 158446,
                 "fdd377c40ea641a3ac74afed6a6e99c8eb3f00d74b86298c802e9039a8b45043"),
        (4, 2): (351, 2979106, 97114,
                 "ff9eec4394337cbeec170acbca7f07ecf3c733c12ffa5ad01b484a0e06c1f854"),
        (8, 1): (3031, 10108562, 309327,
                 "f8a2dbc59e2c9d7a492f99d8009c307336c31aa9a66100a87faee092d50dd37c"),
        (8, 2): (3029, 9822085, 293286,
                 "436ad63a913d8047157ad7644020e0b2c4926172f5acfcede7203d0aa85d6684"),
    }

    @pytest.mark.parametrize("ell,seed", sorted(GOLDEN))
    def test_golden_exact_outputs_on_qary_examples(self, ell, seed):
        basis = random_permutation(gen_example(ExampleSpec(8191, ell, seed)),
                                   100 + seed)
        res = lll_reduce(basis, track_transform=True)
        after = res.after
        columns = repr((res.basis.cols, res.transform.cols)).encode()
        assert (res.iterations_applied, after.frobenius_sq, after.min_norm_sq,
                hashlib.sha256(columns).hexdigest()) == self.GOLDEN[ell, seed]
        assert apply_transform(basis, res.transform) == res.basis

    @staticmethod
    def float_path_matches(cols, delta, track, monkeypatch):
        """lll_reduce against lll_float_reference: swaps, basis, transform
        and the bytes of the final Gram-Schmidt arrays (signed zeros
        count)."""
        states = []
        real_orthogonalize = lll_module.orthogonalize

        def keeping_orthogonalize(basis):
            states.append(real_orthogonalize(basis))
            return states[-1]

        with monkeypatch.context() as patch:
            patch.setattr(lll_module, "orthogonalize", keeping_orthogonalize)
            res = lll_reduce(Basis(cols), LLLConfig(delta=delta),
                             track_transform=track)
        swaps, ref_cols, ref_u, arrays = lll_float_reference(cols, delta,
                                                             track)
        (state,) = states
        assert res.iterations_applied == swaps
        assert res.basis.cols == ref_cols
        assert (res.transform.cols if track else res.transform) == ref_u
        got = (state.bstar, state.mu, state.norms_sq, state.fcols)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]
        return swaps

    @pytest.mark.parametrize("track", [True, False])
    @pytest.mark.parametrize("ell,seed", [
        (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2), (8, 0), (8, 1),
    ])
    def test_float_path_bit_for_bit_on_qary_examples(self, ell, seed, track,
                                                     monkeypatch):
        basis = random_permutation(gen_example(ExampleSpec(8191, ell, seed)),
                                   100 + seed)
        assert self.float_path_matches(basis.cols, DEFAULT_DELTA, track,
                                       monkeypatch) > 0

    @pytest.mark.parametrize("track", [True, False])
    def test_float_path_bit_for_bit_across_int64(self, track, monkeypatch):
        # The chain's mu entries are integers, so size reduction leaves
        # exact zeros whose sign the byte comparison sees; tracked, its
        # transform leaves int64.
        x = 1 << 21
        chain = [[1, 0, 0, 0], [x, 1, 0, 0], [0, x, 1, 0], [0, 0, x, 1]]
        for cols in crossing_inputs() + [chain]:
            self.float_path_matches(cols, 0.75, track, monkeypatch)

    def test_mirror_matches_basis_after_every_size_reduction_and_swap(
            self, monkeypatch):
        checked = []
        real_size_reduce = lll_module.size_reduce

        def checking_size_reduce(state, rows, k):
            # Entered after the initial orthogonalization or after a swap.
            assert mirror_matches(state, rows)
            real_size_reduce(state, rows, k)
            assert mirror_matches(state, rows)
            checked.append(k)

        monkeypatch.setattr(lll_module, "size_reduce", checking_size_reduce)
        basis = random_permutation(gen_example(ExampleSpec(8191, 2, 3)), 5)
        res = lll_reduce(basis, track_transform=True)
        assert res.iterations_applied > 0
        assert len(checked) > res.iterations_applied
        assert apply_transform(basis, res.transform) == res.basis

    def test_rows_cross_from_int64_to_python_ints_mid_run(self, monkeypatch):
        # Entries between 2**61 and 2**62 fit int64, but a size-reduction
        # step whose bound reaches 2**63 moves every row to Python ints.
        dtypes = []
        real_size_reduce = lll_module.size_reduce

        def spying_size_reduce(state, rows, k):
            dtypes.append(rows.rows[0].dtype)
            real_size_reduce(state, rows, k)
            dtypes.append(rows.rows[0].dtype)

        monkeypatch.setattr(lll_module, "size_reduce", spying_size_reduce)
        crossed = 0
        for cols in crossing_inputs():
            dtypes.clear()
            res = lll_reduce(Basis(cols), LLLConfig(delta=0.75),
                             track_transform=True)
            assert res.basis.cols == exact_lll(cols, 0.75)
            assert apply_transform(Basis(cols), res.transform) == res.basis
            assert dtypes[0] == np.int64
            crossed += dtypes[-1] == object
        assert crossed >= 5

    def test_tracking_never_changes_the_basis_path(self, monkeypatch):
        # Basis and transform share one int64 bound per row, so a tracked
        # run can leave int64 at another step than an untracked one; the
        # basis, and the swaps that decide it, must not move.  The chain
        # below leaves int64 only when tracked: its transform reaches
        # x**3 = 2**63 while every basis entry stays small.
        widened = []
        real_size_reduce = lll_module.size_reduce

        def spying_size_reduce(state, rows, k):
            real_size_reduce(state, rows, k)
            widened.append(rows.bounds is None)

        monkeypatch.setattr(lll_module, "size_reduce", spying_size_reduce)
        x = 1 << 21
        chain = [[1, 0, 0, 0], [x, 1, 0, 0], [0, x, 1, 0], [0, 0, x, 1]]
        qary = [random_permutation(gen_example(ExampleSpec(8191, ell, seed)),
                                   100 + seed).cols
                for ell, seed in sorted(self.GOLDEN)]
        cases = [(cols, 0.75) for cols in crossing_inputs() + [chain]]
        cases += [(cols, DEFAULT_DELTA) for cols in qary]

        def run(cols, delta, track):
            """The result and the first size reduction that left int64."""
            widened.clear()
            res = lll_reduce(Basis(cols), LLLConfig(delta=delta),
                             track_transform=track)
            return res, widened.index(True) if True in widened else None

        for cols, delta in cases:
            tracked, _ = run(cols, delta, True)
            untracked, _ = run(cols, delta, False)
            assert untracked.transform is None
            assert untracked.basis == tracked.basis
            assert untracked.iterations_applied == tracked.iterations_applied
        assert run(chain, 0.75, True)[1] is not None
        assert run(chain, 0.75, False)[1] is None

    def test_transform_beyond_128_bits_raises(self):
        # The basis reduces to the identity, while transform column 3
        # becomes (-X**3, X**2, -X, 1) with X**3 = 2**129.
        x = 1 << 43
        cols = [[1, 0, 0, 0], [x, 1, 0, 0], [0, x, 1, 0], [0, 0, x, 1]]
        with pytest.raises(OverflowError, match="transform column 3 exceeds"):
            lll_reduce(Basis(cols), track_transform=True)
        assert lll_reduce(Basis(cols)).basis == Basis.identity(4)

    def test_swap_cap_stops_a_run_that_never_ends(self, monkeypatch):
        # n = 3 and entries of bit length 1: the cap is 100 * 9 * 1 swaps.
        monkeypatch.setattr(lll_module, "lovasz_ok", lambda *args: False)
        with pytest.raises(ArithmeticError, match="cap of 900 swaps"):
            lll_reduce(Basis.identity(3))

    def test_rank_deficiency_raises_with_column(self):
        basis = Basis([[1, 0], [2, 0], [0, 1]])
        with pytest.raises(ValueError, match="column 1"):
            lll_reduce(basis)

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="the float rank test rejects this full-rank "
                              "basis: a residual near 1 against a column "
                              "norm near 2**120")
    def test_full_rank_knapsack_basis_reduces(self):
        # Unit columns over a weight row from [2**59, 2**60), row last.
        rng = random.Random(1)
        n = 10
        weights = [rng.randrange(1 << 59, 1 << 60) for _ in range(n)]
        basis = Basis([[int(i == j) for i in range(n)] + [weights[j]]
                       for j in range(n)])
        res = lll_reduce(basis, track_transform=True)
        assert apply_transform(basis, res.transform) == res.basis
        assert is_unimodular(res.transform) is True

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the float mu that LLL carries for a column "
                              "near 2**e drifts from the exact mu, so the "
                              "output is not size-reduced")
    @pytest.mark.parametrize("e", [58, 62, 63])
    def test_output_with_a_column_near_2_e_is_lll_reduced(self, e):
        # Nothing raises and Lovasz holds, but the largest exact |mu| of
        # the output is 1.77 at e = 58, 25.7 at e = 62 (int64 input) and
        # 51.3 at e = 63 (Python-int input); it is 0.46 at every e <= 53.
        basis = Basis([[2**e + 5, 3, 0], [7, 1, 2], [1, 0, 9]])
        star, mu = exact_gram_schmidt(lll_reduce(basis).basis.cols)
        norms = [sum(x * x for x in v) for v in star]
        delta = Fraction(DEFAULT_DELTA)
        for k in range(1, 3):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            assert (delta * norms[k - 1]
                    <= norms[k] + mu[k][k - 1] ** 2 * norms[k - 1])


class TestLLLConfig:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            LLLConfig(delta=0.25)
        with pytest.raises(ValueError):
            LLLConfig(delta=1.1)
