import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latred.core import (
    Basis,
    IntRows,
    ROUNDS_TO_ZERO,
    apply_transform,
    bareiss,
    gram_compute,
    is_unimodular,
    summarize_columns,
)
from latred.genlat import ExampleSpec, gen_example, random_permutation
from latred.harness import ExperimentConfig, run_repeatedly
import latred.lll as lll_module
from latred.lll import (
    GSState,
    LLLConfig,
    lll_reduce,
    lovasz_ok,
    orthogonalize,
    size_reduce,
)

from hard_families import HARD_FAMILIES
from oracles import (
    exact_gram_schmidt,
    exact_lll,
    gram_oracle,
    lll_l2_reference,
    shortest_vector_sq,
)


# (family, n, bits) of the tests/hard_families.py inputs LLL runs on.
HARD_CASES = [
    ("knapsack", 10, 20), ("knapsack", 10, 40), ("knapsack", 10, 51),
    ("knapsack", 10, 55), ("knapsack", 10, 62), ("knapsack", 20, 60),
    ("goldstein-mayer", 10, 20), ("goldstein-mayer", 10, 55),
    ("goldstein-mayer", 10, 60), ("goldstein-mayer", 20, 60),
    ("uniform", 10, 30), ("uniform", 10, 62), ("uniform", 20, 40),
]


def random_square_basis(rng, n, max_entry=20):
    while True:
        cols = [[rng.randint(-max_entry, max_entry) for _ in range(n)]
                for _ in range(n)]
        if bareiss(cols)[0] == len(cols):
            return Basis(cols)


def gram_schmidt(basis):
    """r and mu of every column of basis, derived from its exact Gram."""
    state = GSState(gram_compute(basis))
    for k in range(basis.n):
        orthogonalize(state, k)
    return state


def cholesky_residual(state, n):
    """Largest |g[k][j] - sum of mu[k][l] * r[j][l] over l <= j|, relative
    to sqrt(g[k][k] * g[j][j]): how far r and mu are from reproducing the
    exact Gram matrix they came from."""
    g = state.gram.tolist()
    worst = 0.0
    for k in range(n):
        mu_k = state.mu[k] + [1.0]
        for j in range(k + 1):
            back = math.fsum(mu_k[l] * state.r[j][l] for l in range(j + 1))
            denom = math.sqrt(g[k][k] * g[j][j])
            worst = max(worst, abs(back - g[k][j]) / denom)
    return worst


def loop_orthogonalize(g):
    """Reference rows: the recurrence over the exact Gram matrix g, one
    product per (k, j, l), applied in turn."""
    n = len(g)
    r = [[0.0] * (k + 1) for k in range(n)]
    mu = [[0.0] * k for k in range(n)]
    for k in range(n):
        for j in range(k + 1):
            s = float(g[k][j])
            for l in range(j):
                s -= mu[j][l] * r[k][l]
            r[k][j] = s
            if j < k:
                mu[k][j] = s / r[j][j]
    return r, mu


def hexes(rows):
    """Each float of each row as float.hex(), so signed zeros count."""
    return [[x.hex() for x in row] for row in rows]


def gram_matches(state, rows):
    basis_part = [row[:rows.m] for row in rows.tolist()]
    return state.gram.tolist() == gram_oracle(basis_part)


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


def reduce_column(basis, k, mu_k=None, monkeypatch=None):
    """Size-reduce column k of basis: (state, rows, the moves of each pass).

    mu_k, when given, is planted in row k of mu first; it need not match
    the basis, so only the first pass reads it.
    """
    state = gram_schmidt(basis)
    if mu_k is not None:
        state.mu[k][:k] = [mu_k] if isinstance(mu_k, float) else mu_k
    rows = IntRows(basis.cols)
    passes = []
    real = lll_module.apply_column_op

    def recording(rows, gram, j, moves):
        passes.append(list(moves))
        real(rows, gram, j, moves)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lll_module, "apply_column_op", recording)
        size_reduce(state, rows, k)
    return state, rows, passes


def check_postconditions(basis, delta, mu_tol=1e-9):
    """Size reduction and the swap condition, from fresh rows."""
    state = gram_schmidt(basis)
    n = basis.n
    for k in range(n):
        for j in range(k):
            assert abs(state.mu[k][j]) <= 0.5 + mu_tol
    for k in range(1, n):
        assert lovasz_ok(state, k, delta - 1e-9)


def exactly_lll_reduced(cols, delta):
    """Largest exact |mu| of cols, after asserting every |mu| <= 1/2 and
    every Lovasz condition at the exact value of delta."""
    star, mu = exact_gram_schmidt(cols)
    norms = [sum(x * x for x in v) for v in star]
    d = Fraction(delta)
    worst = max((abs(mu[k][j]) for k in range(len(cols)) for j in range(k)),
                default=Fraction(0))
    assert worst <= Fraction(1, 2)
    for k in range(1, len(cols)):
        assert d * norms[k - 1] <= norms[k] + mu[k][k - 1] ** 2 * norms[k - 1]
    return worst


class TestOrthogonalize:
    def test_identity(self):
        state = gram_schmidt(Basis.identity(3))
        assert state.r == [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
        assert state.mu == [[], [0.0], [0.0, 0.0]]

    def test_skewed_pair(self):
        state = gram_schmidt(Basis([[1, 0], [10, 1]]))
        assert state.r[0] == [1.0]
        assert state.mu[1][0] == pytest.approx(10.0)
        assert state.r[1][1] == pytest.approx(1.0, abs=1e-12)

    def test_residual_small_on_random_bases(self):
        rng = random.Random(50)
        for _ in range(10):
            basis = random_square_basis(rng, 8, max_entry=100)
            state = gram_schmidt(basis)
            assert cholesky_residual(state, 8) <= 1e-12

    def test_residual_small_at_n64_large_entries(self):
        rng = random.Random(51)
        cols = [[rng.randint(-(2**13), 2**13) for _ in range(64)]
                for _ in range(64)]
        state = gram_schmidt(Basis(cols))
        assert cholesky_residual(state, 64) <= 1e-12

    def test_matches_loop_reference(self):
        rng = random.Random(52)
        for _ in range(10):
            basis = random_square_basis(rng, 8, max_entry=100)
            state = gram_schmidt(basis)
            r, mu = loop_orthogonalize(gram_oracle(basis.cols))
            assert (hexes(state.r), hexes(state.mu)) == (hexes(r), hexes(mu))

    def test_recomputes_only_from_the_first_stale_entry(self):
        # Entries before the first stale one are kept as they are, so a
        # planted value there survives; the entries after it are
        # recomputed from the exact Gram row and the rows above.
        basis = random_square_basis(random.Random(55), 6, max_entry=100)
        state = gram_schmidt(basis)
        want = (hexes(state.r), hexes(state.mu))
        del state.r[5][3:], state.mu[5][3:]
        orthogonalize(state, 5)
        assert (hexes(state.r), hexes(state.mu)) == want
        state.r[5][0] = 7.0
        del state.r[5][2:], state.mu[5][2:]
        orthogonalize(state, 5)
        assert state.r[5][0] == 7.0
        assert hexes([state.mu[5][2:]]) != [want[1][5][2:]]

    def test_gram_entries_past_2_53_round_like_float(self):
        # Entries near 2**60 give inner products near 2**120, which doubles
        # hold only rounded; r[k][0] is g[k][0] rounded as float() rounds it.
        rng = random.Random(53)
        cols = [[rng.choice((1, -1)) * ((1 << 60) + rng.randint(-999, 999))
                 for _ in range(5)] for _ in range(4)]
        g = gram_oracle(cols)
        assert any(int(float(g[k][0])) != g[k][0] for k in range(4))
        state = gram_schmidt(Basis(cols))
        for k in range(4):
            assert state.r[k][0] == float(g[k][0])

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
        # lll_reduce is the one place that decides rank deficiency: when a
        # column becomes zero, it names the first input column that
        # depends on the earlier ones.
        message = f"rank deficiency detected at column {k}$"
        with pytest.raises(ValueError, match=message):
            lll_reduce(Basis(cols))


class TestSizeReduce:
    def test_clears_large_mu(self):
        state, rows, _ = reduce_column(Basis([[1, 0], [10, 1]]), 1)
        assert rows.tolist()[1] == [0, 1]
        assert state.mu[1][0] == pytest.approx(0.0)

    def test_noop_when_already_reduced(self):
        basis = Basis([[5, 1], [2, -3]])  # mu[1][0] = 7/26, inside [-1/2, 1/2]
        _, rows, passes = reduce_column(basis, 1)
        assert rows.tolist() == basis.cols
        assert passes == []

    def test_exact_half_rounds_away_from_zero(self):
        basis = Basis([[2, 0], [1, 1]])  # mu[1][0] == 1/2 exactly
        assert gram_schmidt(basis).mu[1][0] == 0.5
        state, rows, passes = reduce_column(basis, 1)
        # Only the first pass rounds a tie: the -1/2 it leaves stays.
        assert passes == [[(0, 1)]]
        assert rows.tolist()[1] == [-1, 1]
        assert state.mu[1][0] == -0.5

    def test_gram_follows_changed_column(self):
        basis = Basis([[1, 0, 0], [7, 1, 0], [(1 << 60) + 1, 3, 1 << 60]])
        state, rows, _ = reduce_column(basis, 2)
        assert rows.tolist()[2] != [(1 << 60) + 1, 3, 1 << 60]
        assert gram_matches(state, rows)
        fresh = gram_schmidt(rows.basis())
        assert hexes(state.r[:3]) == hexes(fresh.r)
        assert hexes(state.mu[:3]) == hexes(fresh.mu)

    def test_just_below_half_still_rounds_like_the_loop(self):
        # nint_float(0.5 - 2**-54) == 1, so this coefficient is not skipped.
        state, rows, passes = reduce_column(Basis([[1, 0], [0, 1]]), 1,
                                            mu_k=0.5 - 2.0 ** -54)
        assert passes[0] == [(0, 1)]
        assert gram_matches(state, rows)

    @pytest.mark.parametrize("x", [-(0.5 - 2.0 ** -54), -0.5])
    def test_negative_half_and_just_above_round_to_minus_one(self, x):
        _, _, passes = reduce_column(Basis.identity(2), 1, mu_k=x)
        assert passes[0] == [(0, -1)]

    def test_coefficient_beyond_2_53_rounds_exactly(self):
        x = 2.0 ** 53 + 2
        state, rows, passes = reduce_column(Basis.identity(2), 1, mu_k=x)
        assert passes[0] == [(0, 2 ** 53 + 2)]
        # The planted mu does not match the basis: the second pass, from
        # the exact Gram, takes the move back.
        assert passes[1:] == [[(0, -(2 ** 53 + 2))]]
        assert rows.tolist()[1] == [0, 1]
        assert math.copysign(1.0, state.mu[1][0]) == 1.0  # +0.0, not -0.0
        assert gram_matches(state, rows)

    def test_first_column_is_a_noop(self):
        basis = Basis([[3, 1], [7, 2]])
        state = gram_schmidt(basis)
        before = hexes(state.r), hexes(state.mu), state.gram.tolist()
        rows = IntRows(basis.cols)
        size_reduce(state, rows, 0)
        assert rows.tolist() == basis.cols
        assert (hexes(state.r), hexes(state.mu), state.gram.tolist()) == before

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
        state = gram_schmidt(basis)
        state.mu[2][:2] = mu_k
        rows = IntRows(basis.cols)
        with pytest.raises(error):
            size_reduce(state, rows, 2)
        assert rows.tolist() == basis.cols
        assert gram_matches(state, rows)

    def test_later_coefficient_is_rounded_from_the_live_row(self):
        # The move at j = 1 makes mu[2][0] = 0.3 + 0.4 = 0.7, which rounds
        # to 1; the value before the move, 0.3, would round to 0.
        basis = Basis.identity(3)
        state = gram_schmidt(basis)
        state.mu[1][0] = -0.4
        state.mu[2][:2] = [0.3, 1.0]
        rows = IntRows(basis.cols)
        passes = []
        real = lll_module.apply_column_op
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lll_module, "apply_column_op",
                          lambda *args: passes.append(args[3]) or real(*args))
            size_reduce(state, rows, 2)
        assert passes[0] == [(1, 1), (0, 1)]
        assert gram_matches(state, rows)

    def test_later_passes_leave_ties_and_round_the_rest(self, monkeypatch):
        # After a pass that moved something, only |mu| >= 1/2 + 2**-20 is
        # rounded: an exact tie of 1/2 is left as it is, while a value
        # at the margin is rounded.
        lazy = lll_module._LAZY_HALF
        assert 0.5 < lazy < 0.5 + 2.0 ** -19
        real = lll_module.orthogonalize
        for x in (0.5, lazy):
            def planting(state, k, x=x):
                # Plants x in place of the first recomputed row.
                fresh = not state.mu[k]
                real(state, k)
                if fresh and not planted:
                    state.mu[k][0] = x
                    planted.append(k)

            planted = []
            monkeypatch.setattr(lll_module, "orthogonalize", planting)
            state, _, moves = reduce_column(Basis.identity(2), 1, mu_k=1.0)
            assert planted == [1]
            assert (len(moves) > 1) == (x == lazy)


class TestLovasz:
    def test_orthogonal_equal_norms_pass(self):
        state = gram_schmidt(Basis([[3, 0], [0, 3]]))
        assert lovasz_ok(state, 1, 1.0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_1(self, k):
        state = gram_schmidt(Basis.identity(2))
        with pytest.raises(ValueError, match="k >= 1"):
            lovasz_ok(state, k, LLLConfig().delta)

    def test_direct_failure_case(self):
        state = gram_schmidt(Basis.identity(2))
        state.r[0][0] = 1.0
        state.r[1][1] = 0.1
        state.mu[1][0] = 0.4
        assert not lovasz_ok(state, 1, 0.99)  # 0.99 > 0.1 + 0.16

    @pytest.mark.parametrize("nk", [0.0, -1e-30])
    def test_norm_that_cancellation_leaves_at_or_below_zero_fails(self, nk):
        # With delta near 1/4 and |mu| at its bound, the inequality alone
        # would hold.
        state = gram_schmidt(Basis.identity(2))
        state.r[1][1] = nk
        state.mu[1][0] = 0.5 + 2.0 ** -20
        assert not lovasz_ok(state, 1, 0.25 + 1e-9)

    def test_quarter_delta_always_passes_when_size_reduced(self):
        rng = random.Random(60)
        for _ in range(20):
            basis = random_square_basis(rng, 4)
            res = lll_reduce(basis, LLLConfig(delta=0.75))
            state = gram_schmidt(res.basis)
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
            assert is_unimodular(res.transform)

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
        """lll_reduce against lll_l2_reference: swaps, basis, transform
        and every float of the final r and mu rows (signed zeros count)."""
        states = []
        real_orthogonalize = lll_module.orthogonalize

        def keeping_orthogonalize(state, k):
            states.append(state)
            real_orthogonalize(state, k)

        with monkeypatch.context() as patch:
            patch.setattr(lll_module, "orthogonalize", keeping_orthogonalize)
            res = lll_reduce(Basis(cols), LLLConfig(delta=delta),
                             track_transform=track)
        swaps, ref_cols, ref_u, (r, mu) = lll_l2_reference(cols, delta, track)
        state = states[-1]
        assert all(s is state for s in states)
        assert res.iterations_applied == swaps
        assert res.basis.cols == ref_cols
        assert (res.transform.cols if track else res.transform) == ref_u
        assert (hexes(state.r), hexes(state.mu)) == (hexes(r), hexes(mu))
        return swaps

    @pytest.mark.parametrize("track", [True, False])
    @pytest.mark.parametrize("ell,seed", [
        (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (4, 2), (8, 0), (8, 1),
    ])
    def test_float_path_bit_for_bit_on_qary_examples(self, ell, seed, track,
                                                     monkeypatch):
        basis = random_permutation(gen_example(ExampleSpec(8191, ell, seed)),
                                   100 + seed)
        assert self.float_path_matches(basis.cols, LLLConfig().delta, track,
                                       monkeypatch) > 0

    @pytest.mark.parametrize("track", [True, False])
    def test_float_path_bit_for_bit_across_int64(self, track, monkeypatch):
        # Entries past 2**61 give Gram entries past 2**120, which doubles
        # hold only rounded; tracked, the chain's transform leaves int64.
        x = 1 << 21
        chain = [[1, 0, 0, 0], [x, 1, 0, 0], [0, x, 1, 0], [0, 0, x, 1]]
        for cols in crossing_inputs() + [chain]:
            self.float_path_matches(cols, 0.75, track, monkeypatch)

    @pytest.mark.parametrize("track", [True, False])
    def test_float_path_bit_for_bit_when_a_lazy_tie_comes_back(
            self, track, monkeypatch):
        # Column 2's first pass moves it by -b_0, which leaves
        # mu[2][0] = 1/2 exactly, and its lazy pass leaves that tie.  The
        # Lovasz test fails at k = 2, and the swap brings the row back as
        # row 1, whose first pass must round the tie again, as
        # lll_l2_reference's does: a lazy pass proves no prefix.
        calls = []
        real_size_reduce = lll_module.size_reduce

        def spying_size_reduce(state, rows, k):
            moved = real_size_reduce(state, rows, k)
            ties = [x for x in state.mu[k] if abs(x) >= ROUNDS_TO_ZERO]
            calls.append((k, moved, ties))
            return moved

        monkeypatch.setattr(lll_module, "size_reduce", spying_size_reduce)
        cols = [[1, -1, 2], [0, -4, 1], [-2, 1, 0]]
        assert self.float_path_matches(cols, 0.75, track, monkeypatch) == 1
        assert calls == [(1, True, []), (2, True, [0.5]), (1, True, [-0.5]),
                         (2, False, [])]

    @pytest.mark.parametrize("track", [True, False])
    def test_float_path_bit_for_bit_when_a_swap_moves_a_tie(self, track,
                                                           monkeypatch):
        # One of its 8 swaps, at k = 2, exchanges row 1, proven whole,
        # with row 2, whose last pass was lazy and left mu = -1/2 at
        # j = 0: the proven count moves with its row, so the tie is
        # rounded again at k = 1.
        cols = [[1, -3, 3, 4], [-3, -2, 4, 2], [1, 3, -4, 3], [-4, 0, 2, -2]]
        assert self.float_path_matches(cols, 0.75, track, monkeypatch) == 8

    def test_gram_matches_basis_after_every_size_reduction_and_swap(
            self, monkeypatch):
        # The exact Gram matrix is LLL's only copy of the basis: after
        # every size reduction, and so after every swap before it, it
        # must equal the Gram matrix of the integer rows.
        checked = []
        real_size_reduce = lll_module.size_reduce

        def checking_size_reduce(state, rows, k):
            # Entered after the initial Gram matrix or after a swap.
            assert gram_matches(state, rows)
            real_size_reduce(state, rows, k)
            assert gram_matches(state, rows)
            checked.append(k)

        monkeypatch.setattr(lll_module, "size_reduce", checking_size_reduce)
        basis = random_permutation(gen_example(ExampleSpec(8191, 2, 3)), 5)
        res = lll_reduce(basis, track_transform=True)
        assert res.iterations_applied > 0
        assert len(checked) > res.iterations_applied
        assert apply_transform(basis, res.transform) == res.basis

    def test_rows_accurate_after_reducing_nearly_parallel_columns(
            self, monkeypatch):
        # Every column is one vector with entries near 2**30 plus a
        # perturbation of at most 1000 per entry, so all b*_j past the
        # first are about 10**6 times shorter than the columns.  Rows
        # derived from the Gram matrix of such a basis carry errors near
        # 10**-2; the rows LLL ends with, of its reduced output, must be
        # accurate to working precision.
        states = []
        real_orthogonalize = lll_module.orthogonalize

        def keeping_orthogonalize(state, k):
            states.append(state)
            real_orthogonalize(state, k)

        monkeypatch.setattr(lll_module, "orthogonalize", keeping_orthogonalize)
        rng = random.Random(54)
        for _ in range(5):
            v = [rng.choice((1, -1)) * ((1 << 30) + rng.randint(-1000, 1000))
                 for _ in range(8)]
            cols = [[x + rng.randint(-1000, 1000) for x in v]
                    for _ in range(8)]
            out = lll_reduce(Basis(cols)).basis.cols
            exactly_lll_reduced(out, LLLConfig().delta)
            _, mu = exact_gram_schmidt(out)
            state = states[-1]
            for k in range(8):
                for j in range(k):
                    err = abs(Fraction(state.mu[k][j]) - mu[k][j])
                    # Relative to |mu|, or absolute for |mu| < 1.
                    assert err <= 1e-8 * max(abs(mu[k][j]), 1)

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
        cases += [(cols, LLLConfig().delta) for cols in qary]

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

    def test_overflow_names_the_input_column_not_its_position(
            self, monkeypatch):
        # The chain above with its last two columns exchanged: input
        # column 2 is the one whose transform column leaves the range,
        # and it sits at position 3 when it does.
        at = []
        real_size_reduce = lll_module.size_reduce

        def spying_size_reduce(state, rows, k):
            at.append((k, state.col[k]))
            return real_size_reduce(state, rows, k)

        monkeypatch.setattr(lll_module, "size_reduce", spying_size_reduce)
        x = 1 << 43
        cols = [[1, 0, 0, 0], [x, 1, 0, 0], [0, 0, x, 1], [0, x, 1, 0]]
        with pytest.raises(OverflowError, match="transform column 2 exceeds"):
            lll_reduce(Basis(cols), track_transform=True)
        assert at[-1] == (3, 2)

    def check_rows_never_stale(self, cols, monkeypatch):
        """lll_reduce on cols, tracked, checking before each orthogonalize
        that rows 0..k-1 and every entry row k holds are bit for bit a
        fresh derivation, and that the output is the rows taken in the
        final order of state.col.  Returns the most rows a pending cut
        was carried past the swapped pair before its last row applied
        it."""
        states, carried, reordered = [], [0], []
        real_orthogonalize = lll_module.orthogonalize
        real_reorder = IntRows.reorder

        def checking_orthogonalize(state, k):
            states.append(state)
            # Rows 0..k derived afresh from the exact Gram matrix read
            # under state.col.
            g, col = state.gram.tolist(), state.col[:k + 1]
            r, mu = loop_orthogonalize([[g[a][b] for b in col] for a in col])
            held = len(state.r[k])
            assert len(state.mu[k]) == min(held, k)
            assert hexes(state.r[:k]) == hexes(r[:k])
            assert hexes(state.mu[:k]) == hexes(mu[:k])
            assert hexes([state.r[k]]) == hexes([r[k][:held]])
            assert hexes([state.mu[k]]) == hexes([mu[k][:held]])
            # A cut made by the swap at h waits at k + 1, applied by rows
            # h + 2..k.
            carried[0] = max(carried[0], k - 1 - state.cut[k + 1])
            real_orthogonalize(state, k)

        def recording_reorder(rows, order):
            reordered.append((rows.tolist(), list(order)))
            real_reorder(rows, order)

        monkeypatch.setattr(lll_module, "orthogonalize",
                            checking_orthogonalize)
        monkeypatch.setattr(IntRows, "reorder", recording_reorder)
        res = lll_reduce(Basis(cols), track_transform=True)
        (before, order), = reordered
        assert order == states[-1].col
        assert sorted(order) == list(range(len(cols)))
        m = len(cols[0])
        assert res.basis.cols == [before[i][:m] for i in order]
        assert res.transform.cols == [before[i][m:] for i in order]
        return carried[0]

    @pytest.mark.parametrize("ell,seed", sorted(GOLDEN))
    def test_cut_never_leaves_a_stale_entry_on_qary_examples(
            self, ell, seed, monkeypatch):
        basis = random_permutation(gen_example(ExampleSpec(8191, ell, seed)),
                                   100 + seed)
        self.check_rows_never_stale(basis.cols, monkeypatch)

    @pytest.mark.parametrize("family, n, b", HARD_CASES)
    def test_cut_never_leaves_a_stale_entry_on_hard_families(
            self, family, n, b, monkeypatch):
        cols = HARD_FAMILIES[family](random.Random(f"{family}-{n}-{b}-0"),
                                     n, b)
        self.check_rows_never_stale(cols, monkeypatch)

    def test_cut_carried_across_rows_before_it_is_applied(self, monkeypatch):
        # Five long orthogonal columns and a short one last: the short
        # column swaps down from position 5 to 0, each swap leaving one
        # cut at the lower row it exchanges, which the loop passes up, so
        # the swap at 0 leaves rows 0..5 owing a cut to 0, which each
        # applies only when LLL climbs back to it.
        cols = [[100 * (i == j) for i in range(6)] for j in range(5)]
        cols.append([1] * 6)
        assert self.check_rows_never_stale(cols, monkeypatch) >= 3

    def test_swap_cap_stops_a_run_that_never_ends(self, monkeypatch):
        # n = 3 and entries of bit length 1: the cap is 100 * 9 * 1 swaps.
        monkeypatch.setattr(lll_module, "lovasz_ok", lambda *args: False)
        with pytest.raises(ArithmeticError, match="cap of 900 swaps"):
            lll_reduce(Basis.identity(3))

    def test_swap_cap_of_an_input_past_int64(self, monkeypatch):
        # A Python-int input has no packed bound, so its bit length 64 is
        # measured from the entries: the cap is 100 * 4 * 64 swaps.
        monkeypatch.setattr(lll_module, "lovasz_ok", lambda *args: False)
        with pytest.raises(ArithmeticError, match="cap of 25600 swaps"):
            lll_reduce(Basis([[1 << 63, 0], [0, 1]]))

    def test_pass_cap_stops_a_size_reduction_that_never_settles(
            self, monkeypatch):
        # Every recomputed row says mu[1][0] = 1, so every pass moves.
        real_orthogonalize = lll_module.orthogonalize

        def planting(state, k):
            real_orthogonalize(state, k)
            if k == 1:
                state.mu[1][0] = 1.0

        monkeypatch.setattr(lll_module, "orthogonalize", planting)
        with pytest.raises(ArithmeticError,
                           match="column 1 did not settle"):
            lll_reduce(Basis.identity(2))

    def test_rank_deficiency_raises_with_column(self):
        basis = Basis([[1, 0], [2, 0], [0, 1]])
        with pytest.raises(ValueError, match="column 1"):
            lll_reduce(basis)

    def test_full_rank_knapsack_basis_reduces(self):
        # Unit columns over a weight row from [2**59, 2**60), row last.
        # The exact residual of column 1 is about 1 against a squared
        # norm near 2**120, so a rank test on floats can call it zero.
        rng = random.Random(1)
        n = 10
        weights = [rng.randrange(1 << 59, 1 << 60) for _ in range(n)]
        basis = Basis([[int(i == j) for i in range(n)] + [weights[j]]
                       for j in range(n)])
        res = lll_reduce(basis, track_transform=True)
        assert apply_transform(basis, res.transform) == res.basis
        assert is_unimodular(res.transform) is True
        exactly_lll_reduced(res.basis.cols, LLLConfig().delta)

    @pytest.mark.parametrize("e", [58, 62, 63])
    def test_output_with_a_column_near_2_e_is_lll_reduced(self, e):
        # A mu row updated move by move with coefficients near 2**e drifts
        # from the exact mu; the row recomputed from the exact Gram does
        # not.  The input is int64 up to e = 62 and Python ints at e = 63.
        basis = Basis([[2**e + 5, 3, 0], [7, 1, 2], [1, 0, 9]])
        star, mu = exact_gram_schmidt(lll_reduce(basis).basis.cols)
        norms = [sum(x * x for x in v) for v in star]
        delta = Fraction(LLLConfig().delta)
        for k in range(1, 3):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            assert (delta * norms[k - 1]
                    <= norms[k] + mu[k][k - 1] ** 2 * norms[k - 1])

    def test_tie_cycle_seed_returns_its_record(self):
        # On this seed's n = 24 basis, rounding exact ties of +-1/2 on every
        # pass of a size reduction flips six +-1 moves of one column back
        # and forth forever; later passes leave ties alone.
        records = run_repeatedly(ExperimentConfig(
            q=8191, ell_list=(8,), trials=1, mode="repeat",
            seed=640221214876016983))
        assert len(records) == 1


class TestHardFamilies:
    """Inputs whose entries do not fit a double: LLL must reduce each of
    them, with an output that passes the exact check at the default
    delta (tests/test_reference_runs.py compares them with exact_lll)."""

    @pytest.mark.parametrize("family, n, b", HARD_CASES)
    def test_output_passes_the_exact_check(self, family, n, b):
        for seed in range(2):
            cols = HARD_FAMILIES[family](random.Random(f"{family}-{n}-{b}-{seed}"),
                                         n, b)
            res = lll_reduce(Basis(cols), track_transform=True)
            assert apply_transform(Basis(cols), res.transform) == res.basis
            exactly_lll_reduced(res.basis.cols, LLLConfig().delta)


class TestLLLConfig:
    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            LLLConfig(delta=0.25)
        with pytest.raises(ValueError):
            LLLConfig(delta=1.1)
