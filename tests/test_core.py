import collections
import math
import random
import warnings

import numpy as np
import pytest

from latred import core
from latred.altreduce import AltConfig, MGSConfig
from latred.core import (
    Basis,
    INT128_MAX,
    INT128_MIN,
    IntRows,
    MatFormatError,
    NormSummary,
    GramMatrix,
    ROUNDS_TO_ZERO,
    ReductionResult,
    TransformRecord,
    apply_column_op,
    apply_moves,
    apply_transform,
    bareiss,
    column_norms_sq,
    gram_compute,
    is_unimodular,
    nint_float,
    nint_ratio,
    pipeline,
    read_mat,
    run_reducer,
    summarize_columns,
    update_gram,
    write_mat,
)
from latred.genlat import ExampleSpec, gen_example, random_permutation
from latred.greedy import ReduceConfig
from latred.lll import LLLConfig

from oracles import det_cofactor, gram_oracle, product_oracle, read_mat_reference


def random_basis(rng, max_dim=8, max_entry=50):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return Basis([[rng.randint(-max_entry, max_entry) for _ in range(m)]
                  for _ in range(n)])


class TestGramCompute:
    def test_two_columns(self):
        g = gram_compute(Basis([[1, 2], [3, 4]]))
        assert g.tolist() == [[5, 11], [11, 25]]

    def test_identity(self):
        g = gram_compute(Basis.identity(3))
        assert g.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_skewed_pair(self):
        g = gram_compute(Basis([[1, 0], [10, 1]]))
        assert g.tolist() == [[1, 10], [10, 101]]

    def test_matches_direct_inner_products(self):
        rng = random.Random(101)
        for _ in range(50):
            basis = random_basis(rng)
            assert gram_compute(basis).tolist() == gram_oracle(basis.cols)

    def test_overflow_names_pair(self):
        big = 1 << 80
        basis = Basis([[big, big], [big, big]])
        with pytest.raises(OverflowError, match=r"\(0,0\)"):
            gram_compute(basis)


class TestEntryRange:
    """Basis, TransformRecord and GramMatrix refuse an entry outside the
    signed 128-bit range, as read_mat and every exact update do."""

    @pytest.mark.parametrize("x", [INT128_MAX, INT128_MIN])
    def test_edges_inside_are_accepted(self, x, tmp_path):
        cols = [[1, 0], [x, 1]]
        basis = Basis(cols)
        assert basis.cols == TransformRecord(cols).cols == cols
        assert GramMatrix([[1, x], [x, 1]]).tolist() == [[1, x], [x, 1]]
        write_mat(basis, tmp_path / "edge.mat")
        assert read_mat(tmp_path / "edge.mat") == basis

    @pytest.mark.parametrize("x", [INT128_MAX + 1, INT128_MIN - 1])
    def test_edges_outside_are_refused(self, x):
        cols = [[1, 0], [x, 1]]
        with pytest.raises(OverflowError, match="Basis column 1 exceeds "
                           "the signed 128-bit range"):
            Basis(cols)
        with pytest.raises(OverflowError, match="TransformRecord column 1 "
                           "exceeds the signed 128-bit range"):
            TransformRecord(cols)
        with pytest.raises(OverflowError, match=r"Gram entry \(0,1\) "
                           "exceeds the signed 128-bit range"):
            GramMatrix([[1, x], [x, 1]])

    def test_first_bad_column_is_named(self):
        with pytest.raises(OverflowError, match="Basis column 0"):
            Basis([[2 ** 2000, 1], [0, -2 ** 2000]])


class MatmulCounter:
    """Stands in for numpy inside core and counts its products by route.

    routes counts the products by operand dtype: "float64" (BLAS),
    "int64" and "object" (Python ints); calls is the int64 count.
    """

    def __init__(self):
        self.routes = collections.Counter()

    def __getattr__(self, name):
        return getattr(np, name)

    @property
    def calls(self):
        return self.routes["int64"]

    def matmul(self, a, b):
        assert a.dtype == b.dtype
        self.routes[a.dtype.name] += 1
        return np.matmul(a, b)


def bounded_cols(rng, n, m, bound):
    """n random columns of length m with entries in [-bound, bound].

    Column 0 is the worst case, every entry equal to bound, so its inner
    products reach m * bound**2; the last column holds -bound.
    """
    cols = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    cols[0] = [bound] * m
    cols[-1][0] = -bound
    return cols


def assert_all_int(rows):
    assert all(type(x) is int for row in rows for x in row)


class TestInt64Route:
    """The bulk products agree with the exact references on either route.

    The int64 route is taken only when the bound is strictly below 2**63;
    at 2**63 the worst-case column would wrap in int64, so equality with
    the references also shows that the exact path ran.
    """

    # m * bound**2 is exactly 2**63 in the first two cases; in the third,
    # bound - 1 is the largest one-row bound below 2**63.
    @pytest.mark.parametrize(
        "m, bound", [(2, 1 << 31), (8, 1 << 30), (1, 3037000500)])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_gram_and_norms_around_the_bound(self, monkeypatch, m, bound,
                                             step):
        bound += step
        below = m * bound * bound < 1 << 63
        assert below == (step < 0)
        cols = bounded_cols(random.Random(m * 10 + step), 5, m, bound)
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        gram = gram_compute(Basis(cols)).tolist()
        norms = column_norms_sq(Basis(cols))
        assert gram == gram_oracle(cols)
        assert norms == [gram_oracle(cols)[j][j] for j in range(5)]
        assert_all_int(gram)
        assert_all_int([norms])
        assert counter.calls == (1 if below else 0)

    @pytest.mark.parametrize(
        "n, bound_b, bound_u", [(2, 1 << 31, 1 << 31), (4, 1 << 40, 1 << 21)])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_transform_product_around_the_bound(self, monkeypatch, n,
                                                bound_b, bound_u, step):
        assert n * bound_b * bound_u == 1 << 63
        bound_u += step
        rng = random.Random(n * 10 + step)
        basis_cols = bounded_cols(rng, n, 3, bound_b)
        u_cols = bounded_cols(rng, n, n, bound_u)
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        out = apply_transform(Basis(basis_cols), TransformRecord(u_cols))
        assert type(out) is Basis and out.m == 3
        assert out.cols == product_oracle(basis_cols, u_cols)
        assert_all_int(out.cols)
        assert counter.calls == (1 if step < 0 else 0)

    def test_wide_gram_that_fits_int64_stays_int64(self, monkeypatch):
        # m * M**2 = 2 * 2**62 is exactly 2**63, so the Python-int route
        # runs; every entry still fits int64, so the store must be int64
        # with its measured bound, which keeps greedy's PivotTable on its
        # int64 arithmetic.
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        gram = gram_compute(Basis([[1 << 31, 0], [0, 1]]))
        assert counter.calls == 0
        assert gram.g.dtype == np.int64 and gram.bound == 1 << 62
        assert gram.tolist() == [[1 << 62, 0], [0, 1]]

    def test_most_negative_int64_entry(self):
        # In int64, abs(-2**63) is -2**63: a bound taken that way would
        # pass and wrap (-2**63)**2 to 0.
        cols = [[-1 << 63, 1], [1, 1]]
        assert core._pack(cols)[1] == 1 << 63
        basis = Basis(cols)
        assert gram_compute(basis).tolist()[0][0] == (1 << 126) + 1
        assert gram_compute(basis).tolist() == gram_oracle(cols)
        assert column_norms_sq(basis) == [(1 << 126) + 1, 2]
        u_cols = [[-1, 0], [0, 1]]
        out = apply_transform(basis, TransformRecord(u_cols))
        assert out.cols == product_oracle(cols, u_cols)
        assert out.cols == [[1 << 63, -1], [1, 1]]

    def test_entries_past_int64(self):
        rng = random.Random(7)
        for big in (1 << 63, -(1 << 63) - 1, (1 << 63) + 12345, 1 << 80):
            assert core._pack([[1, big]])[1] is None
            cols = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            cols[1][2] = big
            basis = Basis(cols)
            if abs(big) < 1 << 64:
                gram = gram_compute(basis).tolist()
                assert gram == gram_oracle(cols)
                assert column_norms_sq(basis) == [gram[j][j]
                                                  for j in range(3)]
            u_cols = [[1, 0, 0], [2, 1, 0], [-3, 0, 1]]
            out = apply_transform(basis, TransformRecord(u_cols))
            assert out.cols == product_oracle(cols, u_cols)
            assert_all_int(out.cols)
            out = apply_transform(Basis.identity(3), TransformRecord(cols))
            assert type(out) is Basis and out.cols == cols

    def test_one_row_and_zero_columns(self):
        for cols in ([[0], [3], [0], [-2]], [[0], [0]]):
            basis = Basis(cols)
            gram = gram_compute(basis).tolist()
            assert gram == gram_oracle(cols)
            assert_all_int(gram)
            assert column_norms_sq(basis) == [c[0] * c[0] for c in cols]
            n = len(cols)
            u_cols = [[j - i for i in range(n)] for j in range(n)]
            out = apply_transform(basis, TransformRecord(u_cols))
            assert out.cols == product_oracle(cols, u_cols)
            assert_all_int(out.cols)

    def test_random_products_match_references(self):
        rng = random.Random(303)
        for _ in range(40):
            entry = rng.choice((3, 1 << 20, 1 << 40))
            basis = random_basis(rng, max_entry=entry)
            u_cols = [[rng.randint(-5, 5) for _ in range(basis.n)]
                      for _ in range(basis.n)]
            out = apply_transform(basis, TransformRecord(u_cols))
            assert out.cols == product_oracle(basis.cols, u_cols)
            assert column_norms_sq(basis) == [
                gram_oracle(basis.cols)[j][j] for j in range(basis.n)
            ]


class TestFloat64Route:
    """Products whose partial sums stay below 2**53 run as float64 BLAS.

    At 2**53 and above they take the int64 route.  m * M**2 is 2**53 - 1
    or 2**53 + 1 for no M > 1 (both are squarefree), so the Gram cases
    step M around m * M**2 == 2**53, as the int64 route's tests do
    around 2**63; the transform cases hit all three values.
    """

    @pytest.mark.parametrize(
        "m, bound", [(2, 1 << 26), (8, 1 << 25), (1, 94906266)])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_gram_around_the_bound(self, monkeypatch, m, bound, step):
        # 94906266 is the least M with M**2 > 2**53.
        bound += step
        below = m * bound * bound < 1 << 53
        assert below == (step < 0)
        cols = bounded_cols(random.Random(m * 10 + step), 5, m, bound)
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        gram = gram_compute(Basis(cols))
        expected = gram_oracle(cols)
        assert gram.tolist() == expected
        # Column 0 is all M, so g[0][0] = m * M**2 is the largest entry.
        assert gram.g.dtype == np.int64 and gram.bound == m * bound * bound
        assert counter.routes == {"float64" if below else "int64": 1}

    @pytest.mark.parametrize("n, bound_b, bound_u", [
        (1, 441650591, 20394401),   # 2**53 - 1
        (2, 1 << 26, 1 << 26),      # 2**53
        (4, 1 << 30, 1 << 21),      # 2**53
        (3, 28059810762433, 107),   # 2**53 + 1
    ])
    def test_transform_product_around_the_bound(self, monkeypatch, n,
                                                bound_b, bound_u):
        worst = n * bound_b * bound_u
        assert abs(worst - (1 << 53)) <= 1
        rng = random.Random(n)
        basis_cols = bounded_cols(rng, n, 3, bound_b)
        for col in basis_cols:
            col[0] = bound_b
        u_cols = bounded_cols(rng, n, n, bound_u)
        # Row 0 of the basis times column 0 of U reaches the bound.
        expected = product_oracle(basis_cols, u_cols)
        assert abs(expected[0][0]) == worst
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        out = apply_transform(Basis(basis_cols), TransformRecord(u_cols))
        assert out.cols == expected
        assert_all_int(out.cols)
        store, bound = core._product(core._pack(u_cols),
                                     core._pack(basis_cols))
        assert store.dtype == np.int64 and bound == worst
        route = "float64" if worst < 1 << 53 else "int64"
        assert counter.routes == {route: 2}

    def test_zero_operand_against_entries_near_2_62(self, monkeypatch):
        # float64 rounds entries this large, but 0 times any of them is 0.
        rng = random.Random(62)
        big = [[rng.randint((1 << 62) - 1000, 1 << 62) * rng.choice((-1, 1))
                for _ in range(3)] for _ in range(3)]
        zero = [[0] * 3 for _ in range(3)]
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        for a, b in ((zero, big), (big, zero)):
            store, bound = core._product(core._pack(a), core._pack(b))
            assert store.dtype == np.int64 and bound == 0
            assert store.tolist() == zero
        out = apply_transform(Basis(zero), TransformRecord(big))
        assert out.cols == zero
        assert counter.routes == {"float64": 3}

    def test_blocked_256_product_just_under_the_bound(self, monkeypatch):
        # 256 * M**2 < 2**53 for this M, and the product is large enough
        # for BLAS to run its blocked (and possibly threaded) kernel.
        m = 256
        bound = math.isqrt(((1 << 53) - 1) // m)
        assert m * bound * bound < 1 << 53 <= m * (bound + 1) ** 2
        rng = np.random.default_rng(256)
        a = rng.integers(-bound, bound, size=(256, m), endpoint=True)
        a[:8] = bound
        a[8:16] = -bound
        counter = MatmulCounter()
        monkeypatch.setattr(core, "np", counter)
        gram = gram_compute(Basis(a.tolist()))
        assert counter.routes == {"float64": 1}
        # The int64 matmul is exact here too (m * M**2 < 2**63), and runs
        # on numpy's own integer loop rather than BLAS.
        expected = np.matmul(a, a.T)
        assert gram.g.dtype == np.int64
        assert np.array_equal(gram.g, expected)
        assert gram.bound == m * bound * bound


class TestNintRatio:
    def test_small_ratio_rounds_to_zero(self):
        assert nint_ratio(10, 101) == 0

    def test_exact_ratio(self):
        assert nint_ratio(10, 1) == 10

    def test_halves_away_from_zero(self):
        assert nint_ratio(7, 2) == 4
        assert nint_ratio(-7, 2) == -4
        assert nint_ratio(1, 2) == 1
        assert nint_ratio(-1, 2) == -1

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            nint_ratio(3, 0)
        with pytest.raises(ValueError):
            nint_ratio(3, -2)

    def test_within_half_of_true_ratio(self):
        # |num/den - result| <= 1/2, checked as |2*(num - r*den)| <= den.
        rng = random.Random(7)
        for _ in range(20000):
            num = rng.randint(-10**9, 10**9)
            den = rng.randint(1, 10**9)
            r = nint_ratio(num, den)
            assert abs(2 * (num - r * den)) <= den

    def test_descent_inequality(self):
        # r*r*den^2 - 2*r*num*den <= 0 is what makes projection monotone.
        rng = random.Random(8)
        for _ in range(20000):
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(1, 10**6)
            r = nint_ratio(num, den)
            assert r * r * den * den - 2 * r * num * den <= 0


class TestNintFloat:
    def test_matches_ratio_convention(self):
        assert nint_float(0.5) == 1
        assert nint_float(-0.5) == -1
        assert nint_float(2.5) == 3
        assert nint_float(0.49999) == 0
        assert nint_float(-10.0) == -10

    def test_rounds_to_zero_threshold(self):
        t = ROUNDS_TO_ZERO
        below, above = math.nextafter(t, 0.0), math.nextafter(t, 1.0)
        assert above == 0.5
        for x in (0.0, 1e-300, 0.25, below, t, above):
            for v in (x, -x):
                assert (nint_float(v) == 0) == (abs(v) < t), v
        assert nint_float(below) == 0 and nint_float(-below) == 0
        assert nint_float(t) == 1 and nint_float(-t) == -1


class TestNormSummary:
    def test_identity(self):
        assert summarize_columns(Basis.identity(4)) == NormSummary(4, 1)

    def test_trace_and_min(self):
        basis = Basis([[1, 0], [10, 1]])
        assert summarize_columns(basis) == NormSummary(102, 1)

    def test_zero_column_excluded_from_min(self):
        basis = Basis([[0, 0], [0, 3]])
        assert summarize_columns(basis) == NormSummary(9, 9)

    def test_all_zero(self):
        basis = Basis([[0, 0], [0, 0]])
        assert summarize_columns(basis) == NormSummary(0, 0)


def basis_rows(basis):
    return IntRows(basis.cols)


class Part:
    """The basis or the transform entries of every row of a stacked IntRows."""

    def __init__(self, rows, part):
        self.rows, self.part = rows, part

    def tolist(self):
        return [row[self.part] for row in self.rows.tolist()]


def stacked_rows(basis, u):
    """One IntRows of basis's columns, each followed by u's column, and
    views of its basis part and of its transform part."""
    rows = IntRows(basis.cols, u.cols)
    return (rows, Part(rows, slice(None, basis.m)),
            Part(rows, slice(basis.m, None)))


class TestApplyColumnOp:
    def test_clears_skewed_column(self):
        rows, basis, u = stacked_rows(Basis([[1, 0], [10, 1]]),
                                      TransformRecord.identity(2))
        gram = gram_compute(Basis(basis.tolist()))
        apply_column_op(rows, gram, 1, ((0, 10),))
        assert basis.tolist() == [[1, 0], [0, 1]]
        assert gram == gram_compute(Basis(basis.tolist()))
        assert gram.tolist() == [[1, 0], [0, 1]]
        assert (apply_transform(Basis([[1, 0], [10, 1]]),
                                TransformRecord(u.tolist()))
                == Basis(basis.tolist()))

    def test_zero_coefficient_is_noop(self):
        basis = basis_rows(Basis([[1, 2], [3, 4]]))
        gram = gram_compute(Basis(basis.tolist()))
        before_cols = basis.tolist()
        apply_column_op(basis, gram, 0, ((1, 0),))
        assert basis.tolist() == before_cols

    def test_negative_coefficient_keeps_unit_determinant(self):
        rows, basis, u = stacked_rows(Basis.identity(2),
                                      TransformRecord.identity(2))
        apply_column_op(rows, None, 0, ((1, -1),))
        assert basis.tolist()[0] == [1, 1]
        assert bareiss(u.tolist())[1] == 1

    def test_rejects_equal_indices(self):
        basis = basis_rows(Basis.identity(2))
        with pytest.raises(ValueError):
            apply_column_op(basis, None, 1, ((1, 3),))
        # Among other sources too, before anything is written.
        with pytest.raises(ValueError):
            apply_column_op(basis, None, 1, ((0, 1), (1, 3)))
        assert basis.tolist() == Basis.identity(2).cols

    def test_pivot_rejects_moving_its_own_column(self):
        # Moving column 0 by 3 * column 0 would leave -2 * e_0 and
        # det U = -2; nothing may be written, also after a valid move.
        # Two moves of column 1 would both be computed from the old
        # column, so only the last would land: e_1 - e_0, not e_1 - 2 e_0.
        for moves in ([(0, 3)], [(1, 1), (0, 3)], [(1, 1), (1, 1)]):
            rows, basis, u = stacked_rows(Basis.identity(2),
                                          TransformRecord.identity(2))
            gram = gram_compute(Basis.identity(2))
            with pytest.raises(ValueError, match="column indices must differ"):
                apply_moves(rows, gram, 0, moves)
            assert basis.tolist() == u.tolist() == Basis.identity(2).cols
            assert gram == gram_compute(Basis.identity(2))

    def test_random_sequences_keep_gram_and_transform_consistent(self):
        rng = random.Random(202)
        for _ in range(30):
            original = random_basis(rng, max_dim=6, max_entry=20)
            if original.n < 2:
                continue
            rows, basis, u = stacked_rows(
                original, TransformRecord.identity(original.n))
            gram = gram_compute(original)
            for _ in range(25):
                j = rng.randrange(original.n)
                k = rng.randrange(original.n)
                if j == k:
                    continue
                apply_column_op(rows, gram, j, ((k, rng.randint(-4, 4)),))
            assert gram == gram_compute(Basis(basis.tolist()))
            assert (apply_transform(original, TransformRecord(u.tolist()))
                    == Basis(basis.tolist()))
            assert is_unimodular(TransformRecord(u.tolist()))

    def test_transform_overflow_names_column(self):
        rows, _, _ = stacked_rows(Basis.identity(2),
                                  TransformRecord([[1, INT128_MAX], [0, 1]]))
        with pytest.raises(OverflowError, match="transform column 1"):
            apply_column_op(rows, None, 1, ((0, -1),))

    def test_gram_overflow_names_entry_and_writes_nothing(self):
        # Column 1 becomes (3 * 2**62, 1, 0): its squared norm leaves the
        # range, while the other new entries of row 1 fit and must not be
        # written either.
        x = 1 << 62
        basis = basis_rows(Basis([[1, 0, 0], [x, 1, 0], [1, 0, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        before = gram.copy()
        with pytest.raises(OverflowError, match=r"Gram entry \(1,1\)"):
            apply_column_op(basis, gram, 1, ((0, -2 * x),))
        assert gram == before

    def test_overflow_leaves_basis_gram_and_transform_unchanged(self):
        # The basis and transform columns fit; the Gram entry (1,1) does
        # not, so nothing may move.
        rows, basis, u = stacked_rows(
            Basis([[1, 0, 0], [1 << 62, 1, 0], [1, 0, 1]]),
            TransformRecord.identity(3))
        gram = gram_compute(Basis(basis.tolist()))
        before = (basis.tolist(), gram.copy(), u.tolist())
        with pytest.raises(OverflowError, match=r"Gram entry \(1,1\)"):
            apply_column_op(rows, gram, 1, ((0, -(1 << 63)),))
        assert (basis.tolist(), gram, u.tolist()) == before

    def test_transform_overflow_leaves_basis_and_gram_unchanged(self):
        rows, basis, u = stacked_rows(
            Basis([[1, 0], [10, 1]]), TransformRecord([[1, INT128_MAX], [0, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        before = (basis.tolist(), gram.copy(), u.tolist())
        with pytest.raises(OverflowError, match="transform column 1"):
            apply_column_op(rows, gram, 1, ((0, -1),))
        assert (basis.tolist(), gram, u.tolist()) == before

    def test_huge_coefficient_against_a_zero_column(self):
        # c = 2**64 does not fit int64, but column 0 is zero, so column 1
        # must come back unchanged rather than fail in numpy.
        basis = basis_rows(Basis([[0, 0], [1, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        apply_column_op(basis, gram, 1, ((0, 1 << 64),))
        assert basis.tolist() == [[0, 0], [1, 1]]
        assert gram == gram_compute(Basis(basis.tolist()))


class TestCombination:
    """apply_column_op with several sources writes column j once."""

    @pytest.mark.parametrize("bits, steps", [(15, 12), (30, 12), (61, 1)])
    def test_matches_one_move_at_a_time(self, bits, steps):
        rng = random.Random(bits)
        widened = [0, 0]
        for _ in range(20):
            n = rng.randint(2, 5)
            cols = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(3)]
                    for _ in range(n)]
            u = TransformRecord.identity(n).cols
            rows, ref = IntRows(cols, u), IntRows(cols, u)
            gram = gram_compute(Basis(cols))
            ref_gram = gram.copy()
            for _ in range(steps):
                j = rng.randrange(n)
                moves = [(k, rng.choice((-3, -2, -1, 0, 1, 2, 3)))
                         for k in range(n) if k != j and rng.random() < 0.7]
                apply_column_op(rows, gram, j, moves)
                for k, c in moves:
                    apply_moves(ref, ref_gram, k, [(j, c)])
                assert rows.tolist() == ref.tolist()
                expected = gram_oracle([row[:3] for row in rows.tolist()])
                assert gram.tolist() == ref_gram.tolist() == expected
                if rows.bounds is not None:
                    assert all(b >= max(map(abs, row)) for b, row
                               in zip(rows.bounds, rows.tolist()))
                if gram.bound is not None:
                    assert gram.bound >= max(abs(x) for row in expected
                                             for x in row)
            assert_all_int(rows.tolist())
            widened[0] += rows.bounds is None
            widened[1] += gram.bound is None
        # Stores that left int64, (rows, Gram): none near 2**15, Gram
        # stores near 2**30, and rows near 2**61, whose Gram entries are
        # past int64 from the start.
        assert [w > 0 for w in widened] == [bits == 61, bits > 15]

    def test_column_partway_past_128_bits_is_not_checked(self):
        # Columns 0 and 1 are equal, so column 2 comes back as it was, with
        # 2**65 * (e_0 - e_1) added to its transform column.  One move at a
        # time, column 2 would first be (3 + 2**127, 5 + 2**65).
        cols = [[1 << 62, 1], [1 << 62, 1], [3, 5]]
        rows = IntRows(cols, TransformRecord.identity(3).cols)
        gram = gram_compute(Basis(cols))
        moves = ((0, -(1 << 65)), (1, 1 << 65))
        apply_column_op(rows, gram, 2, moves)
        assert rows.tolist()[2] == [3, 5, 1 << 65, -(1 << 65), 1]
        assert gram.tolist() == gram_oracle(cols)
        ref = IntRows(cols, TransformRecord.identity(3).cols)
        with pytest.raises(OverflowError, match="basis column 2"):
            apply_moves(ref, None, 0, [(2, -(1 << 65))])

    @pytest.mark.parametrize("cols, moves, name", [
        # Column 2 becomes (1 + 2**128, 0).
        ([[1 << 62, 0], [0, 1], [1, 1]], ((0, -(1 << 66)), (1, 1)),
         "basis column 2"),
        # The basis part cancels; the transform column is (-2**127, 2**127, 1).
        ([[1, 0], [1, 0], [0, 1]], ((0, 1 << 127), (1, -(1 << 127))),
         "transform column 2"),
        # Column 2 becomes (-2**63, -2**63, 1), whose squared norm is
        # 2**127 + 1.
        ([[1 << 62, 0, 0], [0, 1 << 62, 0], [0, 0, 1]], ((0, 2), (1, 2)),
         r"Gram entry \(2,2\)"),
    ])
    def test_result_past_128_bits_writes_nothing(self, cols, moves, name):
        # The rows start int64 and widen to Python ints during the call.
        rows = IntRows(cols, TransformRecord.identity(3).cols)
        assert rows.bounds is not None
        gram = gram_compute(Basis(cols))
        before = (rows.tolist(), gram.copy())
        with pytest.raises(OverflowError, match=name):
            apply_column_op(rows, gram, 2, moves)
        assert (rows.tolist(), gram) == before
        assert rows.bounds is None


class TestGramStore:
    @pytest.mark.parametrize("g, message", [
        ([], "at least one column"),
        ([[1, 0], [0]], "square"),
        ([[1, 0], [0, -1]], "negative Gram diagonal at 1"),
        ([[1, 2], [3, 4]], "not symmetric at \\(1,0\\)"),
    ])
    def test_rejects_a_matrix_that_is_no_gram_matrix(self, g, message):
        with pytest.raises(ValueError, match=message):
            GramMatrix(g)

    def test_int64_while_the_entries_fit(self):
        gram = gram_compute(Basis([[1, 2], [3, 4]]))
        assert gram.g.dtype == np.int64 and gram.bound == 25
        wide = gram_compute(Basis([[1 << 40, 0], [0, 1]]))
        assert wide.g.dtype == object and wide.bound is None
        assert GramMatrix([[(1 << 63) - 1]]).bound == (1 << 63) - 1
        assert GramMatrix([[1 << 63]]).bound is None
        assert_all_int(wide.tolist())
        assert type(gram.diagonal()[0]) is int

    @pytest.mark.parametrize("bits", [15, 30])
    def test_random_updates_match_the_oracle_across_widening(self, bits):
        # Three entries of about 2**bits per column: Gram entries near
        # 2**30 and near 2**61.  Every pivot can multiply them by up to 16.
        rng = random.Random(bits)
        widened = 0
        for _ in range(8):
            cols = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(3)]
                    for _ in range(5)]
            rows = IntRows(cols)
            gram = gram_compute(Basis(cols))
            assert gram.bound is not None
            for _ in range(12):
                k = rng.randrange(5)
                moves = [(j, rng.choice((-3, -2, -1, 1, 2, 3)))
                         for j in range(5) if j != k and rng.random() < 0.6]
                apply_moves(rows, gram, k, moves)
                expected = gram_oracle(rows.tolist())
                assert gram.tolist() == expected
                if gram.bound is not None:
                    assert gram.bound >= max(abs(x) for row in expected
                                             for x in row)
            assert_all_int(gram.tolist())
            widened += gram.bound is None
        # Near 2**30 every sequence stays int64; near 2**61 some leave it.
        assert (widened > 0) == (bits == 30)

    def test_bound_is_measured_again_before_widening(self):
        gram = gram_compute(Basis([[1, 0], [2, 1]]))
        gram.bound = 1 << 62  # stale: the entries are at most 5
        update_gram(gram, 0, [(1, 1)])
        assert gram.g.dtype == np.int64 and gram.bound == 5
        assert gram.tolist() == [[1, 1], [1, 2]]

    @pytest.mark.parametrize("k, dtype", [
        (30000, np.int64), (50000, object), (60000, object)])
    def test_combination_is_kept_int64_by_its_measured_values(self, k,
                                                              dtype):
        # b_0 = e_0, b_1 = k e_0 + e_1, b_2 = k e_1 + e_2, b_3 = e_2 + e_3,
        # and b_3 -= k**2 b_0 - k b_1 + b_2 leaves e_3.  With B = k**2 + 1
        # and a = sum|c| = k**2 + k + 1, B (1 + a)**2 passes 2**63 for each
        # k, but (G w)_i = b_i[2] is at most 1: at k = 30000 a B and
        # a + (1 + 2a) B stay below 2**63, so the store stays int64; at
        # k = 50000 the second passes it and at k = 60000 the first does,
        # so the store widens.
        cols = [[1, 0, 0, 0], [k, 1, 0, 0], [0, k, 1, 0], [0, 0, 1, 1]]
        moves = [(0, k * k), (1, -k), (2, 1)]
        gram = gram_compute(Basis(cols))
        assert gram.g.dtype == np.int64
        assert not core._gram_fits_int64(gram, k * k + k + 1)
        wide = gram.copy()
        wide.g, wide.bound = wide.g.astype(object), None
        rows = IntRows(cols)
        apply_column_op(rows, gram, 3, moves)
        apply_column_op(IntRows(cols), wide, 3, moves)
        assert rows.tolist()[3] == [0, 0, 0, 1]
        assert gram.g.dtype == dtype
        assert gram.tolist() == wide.tolist() == gram_oracle(rows.tolist())
        if dtype is np.int64:
            assert gram.bound >= max(map(abs, gram.g.flat))

    def test_coefficient_past_int64_widens(self):
        gram = gram_compute(Basis([[0, 0], [1, 1]]))
        update_gram(gram, 0, [(1, 1 << 64)])
        assert gram.g.dtype == object
        assert gram.tolist() == [[0, 0], [0, 2]]


def pivot_move(rows, k, j, c):
    """rows[k] -= c * rows[j] as pivot j with one move."""
    apply_moves(rows, None, j, [(k, c)])


def combination_move(rows, k, j, c):
    """rows[k] -= c * rows[j] as a combination of one source."""
    apply_column_op(rows, None, k, [(j, c)])


def int_rows_state(rows):
    """The rows, their bounds and their dtypes."""
    return rows.tolist(), rows.bounds, [row.dtype for row in rows.rows]


class TestIntRows:
    """One int64 test serves both shapes: each single-move case runs as a
    pivot and as a combination, with the same rows, bounds and dtypes."""

    @pytest.mark.parametrize("entry, widens", [
        (3, False), (1 << 62, True), (1 << 70, True)])
    def test_random_operations_match_python_ints(self, entry, widens):
        states = []
        for sub_multiple in (pivot_move, combination_move):
            rng = random.Random(entry.bit_length())
            cols = [[rng.randint(-entry, entry) for _ in range(4)]
                    for _ in range(5)]
            rows = IntRows(cols)
            for _ in range(20):
                j, k = rng.sample(range(5), 2)
                c = rng.randint(-3, 3)
                sub_multiple(rows, k, j, c)
                cols[k] = [a - c * b for a, b in zip(cols[k], cols[j])]
                if rng.random() < 0.3:
                    rows.swap(j, k)
                    cols[j], cols[k] = cols[k], cols[j]
            assert rows.tolist() == cols
            assert_all_int(rows.tolist())
            assert (rows.bounds is None) == widens
            states.append(int_rows_state(rows))
        assert states[0] == states[1]

    def test_bound_is_measured_again_before_widening(self):
        states = []
        for sub_multiple in (pivot_move, combination_move):
            rows = IntRows([[1 << 61, 0], [0, 1]])
            # The bound 2**61 + 3 * 2**61 reaches 2**63; measured, row 1's
            # largest |entry| is 1, so the step stays int64, with the new
            # row's bound 1 + 3 * 2**61.
            sub_multiple(rows, 1, 0, 3)
            assert rows.bounds == [1 << 61, 3 * (1 << 61) + 1]
            states.append(int_rows_state(rows))
            # Measured bounds 3 * 2**61 + 2**61 reach 2**63: Python ints.
            sub_multiple(rows, 1, 0, 1)
            assert rows.bounds is None
            assert rows.tolist() == [[1 << 61, 0], [-1 << 63, 1]]
            states.append(int_rows_state(rows))
        assert states[:2] == states[2:]

    def test_coefficient_past_int64_against_a_zero_row(self):
        # The re-measured bound of a zero row passes whatever c is, but
        # c = 2**64 itself does not fit int64.
        states = []
        for sub_multiple in (pivot_move, combination_move):
            rows = IntRows([[0, 0], [1, 1]])
            sub_multiple(rows, 1, 0, 1 << 64)
            assert rows.tolist() == [[0, 0], [1, 1]]
            assert_all_int(rows.tolist())
            states.append(int_rows_state(rows))
        assert states[0] == states[1]
        assert states[0][1] is None

    def test_pivot_widening_partway_recomputes_every_move(self):
        # Move 1 is exact in int64; move 2's bound reaches 2**63, so every
        # row becomes Python ints and move 1 is computed again from them.
        cols = [[1, 1], [0, 1], [-1 << 62, 0]]
        rows = IntRows(cols)
        moves = [(1, 2), (2, (1 << 62) + 1)]
        apply_moves(rows, None, 0, moves)
        for j, c in moves:
            cols[j] = [a - c * b for a, b in zip(cols[j], cols[0])]
        assert rows.tolist() == cols
        assert cols[2][0] < -(1 << 63)
        assert all(row.dtype == object for row in rows.rows)
        assert rows.bounds is None

    def test_overflow_names_column_and_leaves_rows_unchanged(self):
        cols = [[1, 0], [INT128_MAX, 0]]
        for sub_multiple in (pivot_move, combination_move):
            rows = IntRows(cols)
            with pytest.raises(OverflowError, match="basis column 1 exceeds "
                               "the signed 128-bit"):
                sub_multiple(rows, 1, 0, -1)
            assert rows.tolist() == cols

    def test_basis_overflow_is_named_before_an_earlier_transform_overflow(self):
        # Pivot 0: move 1 leaves the range only in its transform column
        # (-2**126 - 1 - 2**126), move 2 only in its basis column
        # (1 + 2**127).  Every moved basis column is checked before any
        # transform column, so move 2 is named, and nothing is written.
        rows, basis, u = stacked_rows(
            Basis([[1, 0, 0], [0, 1, 0], [1, 0, 1]]),
            TransformRecord([[1, 0, 0], [-(1 << 126) - 1, 1, 0],
                             [-(1 << 127) + 5, 0, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        before = (basis.tolist(), gram.copy(), u.tolist())
        with pytest.raises(OverflowError,
                           match="basis column 2 exceeds the signed 128-bit"):
            apply_moves(rows, gram, 0, [(1, 1 << 126), (2, -(1 << 127))])
        assert (basis.tolist(), gram, u.tolist()) == before


class FixedStage:
    """A stub stage config: run returns its input, with the given
    transform attached when one is tracked."""

    def __init__(self, transform):
        self.transform = transform

    def run(self, basis, track_transform=False):
        summary = NormSummary(0, 0)
        u = self.transform if track_transform else None
        return ReductionResult(basis, 0, summary, summary, 0.0, u)


class TestPipeline:
    def test_composed_transform_overflow_names_column(self):
        # Both factors are unimodular with entries near 2**64; column 0 of
        # their product holds 2**128 + 1.
        first = TransformRecord([[1, 0], [1 << 64, 1]])
        second = TransformRecord([[1, 1 << 64], [0, 1]])
        stages = (FixedStage(first), FixedStage(second))
        with pytest.raises(OverflowError, match="transform column 0"):
            pipeline(Basis.identity(2), stages, track_transform=True)

    def test_composed_int64_transforms_overflow_names_column(self):
        # Every entry fits int64, but entry 0 of the product's column 0 is
        # 2 * 2**126 = 2**127, one past the signed 128-bit range.
        first = TransformRecord([[-1 << 63, 0], [-1 << 63, 1]])
        second = TransformRecord([[-1 << 63, -1 << 63], [0, 1]])
        stages = (FixedStage(first), FixedStage(second))
        with pytest.raises(OverflowError, match="transform column 0"):
            pipeline(Basis.identity(2), stages, track_transform=True)

    def test_single_stage_passes_its_transform_through(self):
        u = TransformRecord([[1, 0], [3, 1]])
        res = pipeline(Basis.identity(2), (FixedStage(u),),
                       track_transform=True)
        assert res.transform is u
        assert len(res.stages) == 1 and res.stages[0].transform is u

    def test_no_stages_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least one stage"):
            pipeline(Basis.identity(2), ())

    def test_real_configs_compose_their_transforms(self):
        # Every reducer's config is a stage; at n = 24 each one moves the
        # basis, so the product below has four nontrivial factors.
        basis = random_permutation(gen_example(ExampleSpec(8191, 8, 3)), 1)
        stages = (AltConfig(seed=1), MGSConfig(), LLLConfig(),
                  ReduceConfig())
        res = pipeline(basis, stages, track_transform=True)
        assert apply_transform(basis, res.transform) == res.basis
        product = np.identity(basis.n, dtype=object)
        for stage in res.stages:
            product = product @ np.array(stage.transform.to_rows(),
                                         dtype=object)
        assert res.transform.to_rows() == product.tolist()
        assert all(stage.iterations_applied > 0 for stage in res.stages)
        plain = pipeline(basis, stages)
        assert plain.transform is None
        assert [stage.transform for stage in plain.stages] == [None] * 4
        assert plain.basis == res.basis


class TestTransformRecord:
    def test_is_a_square_basis(self):
        u = TransformRecord.identity(3)
        assert isinstance(u, Basis)
        assert (u.m, u.n) == (3, 3)
        with pytest.raises(ValueError, match="square"):
            TransformRecord([[1, 0, 0], [0, 1, 0]])

    def test_equality_is_type_strict(self):
        assert TransformRecord.identity(2) != Basis.identity(2)
        assert Basis.identity(2) != TransformRecord.identity(2)

    def test_product_of_transforms_is_a_transform(self):
        u = apply_transform(TransformRecord([[1, 0], [3, 1]]),
                            TransformRecord([[1, 2], [0, 1]]))
        assert u == TransformRecord([[7, 2], [3, 1]])

    def test_singular_transform_is_not_unimodular(self):
        assert is_unimodular(TransformRecord([[1, 2], [2, 4]])) is False

    def test_transform_of_another_dimension_is_a_value_error(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_transform(Basis.identity(2), TransformRecord.identity(3))


class TestRunReducer:
    def test_frame_around_body(self):
        basis = Basis([[1, 0], [10, 1]])

        def body(work):
            apply_column_op(work, None, 1, ((0, 10),))
            return 5

        res = run_reducer(basis, True, body)
        assert basis.cols == [[1, 0], [10, 1]]
        assert res.basis.cols == [[1, 0], [0, 1]]
        assert res.iterations_applied == 5
        assert (res.before, res.after) == (NormSummary(102, 1), NormSummary(2, 1))
        assert res.seconds >= 0.0 and res.stages == ()
        assert apply_transform(basis, res.transform) == res.basis

    def test_untracked_body_gets_no_transform(self):
        seen = []

        def body(work):
            seen.append(work.tolist())
            return 0

        res = run_reducer(Basis.identity(2), False, body)
        # The rows hold the basis columns and no transform entries.
        assert seen == [[[1, 0], [0, 1]]] and res.transform is None

    def test_tracked_body_gets_identity_below_each_column(self):
        seen = []

        def body(work):
            seen.append((work.m, work.tolist()))
            return 0

        res = run_reducer(Basis([[1, 2, 3], [4, 5, 6]]), True, body)
        assert seen == [(3, [[1, 2, 3, 1, 0], [4, 5, 6, 0, 1]])]
        assert res.transform == TransformRecord.identity(2)


class TestSummariesFromRows:
    """run_reducer's summaries, read from the rows, equal
    summarize_columns on the same basis."""

    def test_frobenius_total_past_int64_is_exact(self):
        # Each squared norm is 2 * 2**60 < 2**63; their sum is 2**63,
        # which an int64 sum would wrap to -2**63.
        basis = Basis([[1 << 30, -(1 << 30)] for _ in range(4)])
        expected = summarize_columns(basis)
        assert expected == NormSummary(1 << 63, 1 << 61)
        res = run_reducer(basis, False, lambda rows: 0)
        assert res.before == res.after == expected
        assert type(res.before.frobenius_sq) is int

    @pytest.mark.parametrize("cols", [
        [[1 << 64, 0], [1, 1]],              # Python-int rows
        [[(1 << 63) - 1] * 4, [1, 1, 1, 1]],  # int64 rows, m * M**2 >= 2**63
    ])
    def test_norm_past_128_bits_raises(self, cols):
        with pytest.raises(OverflowError,
                           match="column norm exceeds the signed 128-bit"):
            run_reducer(Basis(cols), False, lambda rows: 0)

    @pytest.mark.parametrize("cols, expected", [
        ([[0, 0], [0, 3], [0, 0]], NormSummary(9, 9)),
        ([[0, 0], [0, 0]], NormSummary(0, 0)),
    ])
    def test_zero_columns_are_skipped(self, cols, expected):
        for track in (False, True):
            res = run_reducer(Basis(cols), track, lambda rows: 0)
            assert res.before == res.after == expected

    def test_tracked_run_reads_only_the_basis_part(self):
        def body(rows):
            apply_column_op(rows, None, 1, ((0, 1000),))
            return 1

        res = run_reducer(Basis.identity(2), True, body)
        # Whole rows would give 2 per unit column, and 2 * 1000001 after.
        assert res.transform == TransformRecord([[1, 0], [-1000, 1]])
        assert res.before == NormSummary(2, 1)
        assert res.after == NormSummary(1000002, 1)

    def test_random_bases_match_summarize_columns(self):
        rng = random.Random(404)
        for _ in range(60):
            # 2**58 keeps every norm inside 128 bits after the moves; at
            # m >= 3 it also fails m * M**2 < 2**63, so the norms are
            # summed in Python ints.
            entry = rng.choice((3, 1 << 20, 1 << 31, 1 << 40, 1 << 58))
            basis = random_basis(rng, max_entry=entry)
            n = basis.n

            def body(rows):
                for _ in range(3):
                    j, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
                    if j != k:
                        apply_column_op(rows, None, j,
                                        ((k, rng.randint(-2, 2)),))
                return 0

            track = rng.random() < 0.5
            res = run_reducer(basis, track, body)
            assert res.before == summarize_columns(basis)
            assert res.after == summarize_columns(res.basis)
        # Python-int rows, with every norm inside 128 bits.
        basis = Basis([[1 << 63, 1], [3, 0], [0, 0]])
        res = run_reducer(basis, True, lambda rows: 0)
        assert res.before == res.after == summarize_columns(basis)
        assert res.before == NormSummary((1 << 126) + 10, 9)


class TestDeterminant:
    def test_identity(self):
        assert bareiss([[1, 0, 0], [0, 1, 0], [0, 0, 1]])[1] == 1

    def test_column_swap_flips_sign(self):
        assert bareiss([[0, 1, 0], [1, 0, 0], [0, 0, 1]])[1] == -1

    def test_magnitude_visible_to_caller(self):
        m = [[2, 0], [0, 2]]
        assert bareiss(m)[1] == 4
        assert not is_unimodular(TransformRecord([[2, 0], [0, 2]]))

    def test_singular(self):
        assert bareiss([[1, 2], [2, 4]])[1] == 0

    def test_matches_cofactor_expansion(self):
        # A zero pivot with no nonzero entry below it, in column 0 and
        # after a step, ends the elimination at det 0; a zero pivot with
        # one below it, at the start and after a step, swaps rows.
        cases = [[[0, 1], [0, 2]], [[1, 2, 3], [2, 4, 7], [1, 2, 5]],
                 [[0, 2, 1], [3, 1, 4], [5, 9, 2]],
                 [[1, 2, 3], [2, 4, 5], [1, 3, 4]]]
        rng = random.Random(303)
        for _ in range(200):
            n = rng.randint(1, 4)
            cases.append([[rng.randint(-9, 9) for _ in range(n)]
                          for _ in range(n)])
        for rows in cases:
            assert bareiss(rows)[1] == det_cofactor(rows)
            assert bareiss(np.array(rows, dtype=np.int64))[1] == (
                det_cofactor(rows))

    @pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3]]])
    def test_rejects_a_matrix_that_is_not_square(self, rows):
        with pytest.raises(ValueError, match="square"):
            bareiss(rows)

    @pytest.mark.parametrize("rows, free", [
        ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 1),
        # Column 0's pivot is found by a row swap; column 1 is 2 * column 0.
        ([[0, 0, 1], [1, 2, 0], [0, 0, 3]], 1),
        ([[0, 1], [0, 2]], 0),
        ([[2, 1], [1, 1]], 2),
    ])
    def test_bareiss_names_the_first_dependent_column(self, rows, free):
        det = det_cofactor(rows) if free == len(rows) else 0
        assert core.bareiss(rows) == (free, det)

    def test_unimodular_answers_above_n16(self):
        assert is_unimodular(TransformRecord.identity(16)) is True
        assert is_unimodular(TransformRecord.identity(17)) is True


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class TestIsUnimodular:
    @pytest.fixture
    def bareiss_calls(self, monkeypatch):
        """The n of every matrix is_unimodular hands to bareiss."""
        calls = []
        real = core.bareiss

        def spying(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(core, "bareiss", spying)
        return calls

    def test_lll_polish_transform_at_n48_is_certified_by_its_inverse(
            self, bareiss_calls):
        basis = random_permutation(gen_example(ExampleSpec(8191, 16, 3)), 4)
        res = pipeline(basis, [LLLConfig(), ReduceConfig()],
                       track_transform=True)
        assert res.transform.n == 48
        assert is_unimodular(res.transform) is True
        assert bareiss_calls == []

    def test_wrong_answers_from_floats_fall_back_to_bareiss(
            self, bareiss_calls):
        # Fibonacci numbers near 2**62, det 1: the exact inverse has the
        # entry F(91) > 2**62, so whatever float64 gives, no V passes.
        f = fibonacci
        assert is_unimodular(
            TransformRecord([[f(91), f(90)], [f(90), f(89)]])) is True
        # det 2: the inverse's entry 1/2 rounds to an integer V with
        # U V != I.
        twice = Basis.identity(20).cols
        twice[0][0] = 2
        assert is_unimodular(TransformRecord(twice)) is False
        # Singular: numpy's inverse raises LinAlgError.
        assert is_unimodular(TransformRecord([[1] * 20] * 20)) is False
        # Python-int entries, whose inverse has an entry -2**100.
        assert is_unimodular(TransformRecord([[1, 0], [1 << 100, 1]])) is True
        assert bareiss_calls == [2, 20, 20, 2]


INT64_MAX = 2**63 - 1

# Files read_mat must read exactly as the Python-only parser does: the
# same columns, or the same error text.
ODD_MAT_FILES = [
    "2 2\n+5 1\n0 1\n",
    "2 2\n0005 1\n0 1\n",
    "1 2\n-0 +0\n",
    "1 2\n1_000 2\n",
    "1 2\n1.0 2\n",
    "1 2\n1e3 2\n",
    "1 2\n0x10 2\n",
    "1 2\n1\x0c2\n",
    "1 2\n1\x1f2\n",
    "2 2\n1\t2\n\t3 \t 4\t\n",
    "\n\n2 2\n\n1 2\n   \n3 4\n\n",
    "1 2\r\n3 4\r\n",
    "2 2\n1 2 3\n4 5\n",
    "2 2\n1 2\n3\n",
    "3 1\n1\n2\n",
    "2 3\n1 2\n3 4\n",
    "3 1\n1\n-2\n+3\n",
    f"1 2\n{10**18 - 1} {1 - 10**18}\n",
    f"1 2\n{INT64_MAX} {-INT64_MAX}\n",
    f"1 2\n{INT64_MAX + 1} {-INT64_MAX - 1}\n",
    f"1 1\n{-INT64_MAX - 2}\n",
    f"1 2\n{INT128_MAX} {INT128_MIN}\n",
    f"1 1\n{2**127}\n",
    "1 1\n0000000000000000000005\n",
    "# m n\n1 1\n5\n",
    "1 1\n5 # five\n",
    "1 1\n#5\n",
    "1 2\n--5 2\n",
    "1 2\n+ 5\n",
    "1 2\n5- 2\n",
    "1 2\n-\n",
    "",
    "2 2\n",
    "0 2\n1 2\n",
    "2 0\n1 2\n3 4\n",
    "1 2 3\n1 2\n",
    "a 2\n1 2\n",
    "1 200\n" + " ".join(str(v - 100) for v in range(200)) + "\n",
]


class TestMatFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "b.mat"
        for basis in (
            random_basis(random.Random(404), max_dim=7, max_entry=10**6),
            Basis([[INT64_MAX, -INT64_MAX, -INT64_MAX - 1]]),
            Basis([[INT128_MAX], [-INT128_MAX], [INT128_MIN]]),
            Basis([[-7]]),
        ):
            write_mat(basis, path)
            rows = "".join(" ".join(map(str, row)) + "\n"
                           for row in basis.to_rows())
            assert path.read_text() == f"{basis.m} {basis.n}\n{rows}"
            assert read_mat(path) == basis

    @pytest.mark.parametrize("text", ODD_MAT_FILES)
    def test_reads_as_the_python_parser(self, tmp_path, text):
        path = tmp_path / "odd.mat"
        path.write_bytes(text.encode("ascii"))
        try:
            want = read_mat_reference(path)
        except ValueError as exc:
            want = str(exc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                basis = read_mat(path)
            except MatFormatError as exc:
                got = str(exc)
            else:
                got = (basis.m, basis.cols)
        assert got == want

    def test_int64_files_skip_the_python_parser(self, tmp_path, monkeypatch):
        basis = Basis([[10**18 - 1, -3], [0, 1 - 10**18]])
        wide = Basis([[10**18, -3], [0, 1]])
        path = tmp_path / "b.mat"
        write_mat(basis, path)
        write_mat(wide, tmp_path / "wide.mat")
        parsed = []
        parse = core._parse_mat
        monkeypatch.setattr(core, "_parse_mat",
                            lambda *args: parsed.append(args) or parse(*args))
        assert read_mat(path) == basis and not parsed
        assert read_mat(tmp_path / "wide.mat") == wide and len(parsed) == 1

    def test_names_a_non_ascii_byte(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_bytes(b"1 1\n\xc3\xa9\n")
        with pytest.raises(MatFormatError) as exc:
            read_mat(path)
        assert str(exc.value) == f"{path}: non-ASCII byte 0xc3 at offset 4"

    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "b.mat"
        write_mat(Basis([[1, 0], [10, 1]]), path)
        assert path.read_text() == "2 2\n1 10\n0 1\n"

    def test_rejects_oversized_entries(self, tmp_path):
        path = tmp_path / "big.mat"
        path.write_text(f"1 1\n{INT128_MAX + 1}\n")
        with pytest.raises(MatFormatError, match="128-bit"):
            read_mat(path)

    def test_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\n1 2 3\n4 5\n")
        with pytest.raises(MatFormatError):
            read_mat(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\n1 x\n4 5\n")
        with pytest.raises(MatFormatError):
            read_mat(path)

    @pytest.mark.parametrize("text, message", [
        # int() accepts 1_0, so y is the first bad token of row 1.
        ("2 3\n1 2 3\n4 1_0 y\n", "bad integer 'y' in row 1"),
        ("2 2\n1 2\n", "expected 2 rows, found 1"),
        ("2 2\n1 2\n3 4 5\n", "row 1 has 3 entries, expected 2"),
        (f"2 2\n1 2\n3 {INT128_MIN - 1}\n",
         "entry in row 1 exceeds the signed 128-bit range"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        with pytest.raises(MatFormatError) as exc:
            read_mat(path)
        assert str(exc.value) == f"{path}: {message}"


class TestBasisType:
    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            Basis([[1.5, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Basis([])
        for rows in ([], [[]]):
            with pytest.raises(ValueError, match="at least one row"):
                Basis.from_rows(rows)

    @pytest.mark.parametrize(
        "cols", [[[1], [2, 3]], [[1, 2], [3]]],
        ids=["longer-later-column", "shorter-later-column"])
    def test_rejects_ragged_columns(self, cols):
        with pytest.raises(ValueError, match="same length"):
            Basis(cols)

    def test_rows_columns_round_trip(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        assert Basis.from_rows(rows).to_rows() == rows

    @pytest.mark.parametrize("rows", [[[1], [2, 3]], [[1, 2], [3]]],
                             ids=["longer-later-row", "shorter-later-row"])
    def test_from_rows_rejects_ragged_rows(self, rows):
        with pytest.raises(ValueError, match="same length"):
            Basis.from_rows(rows)

    def test_repr_names_the_shape(self):
        basis = Basis([[1, 2, 3], [4, 5, 6]])
        assert repr(basis) == "Basis(m=3, n=2)"
        assert repr(TransformRecord.identity(2)) == "TransformRecord(m=2, n=2)"
        assert repr(gram_compute(basis)) == "GramMatrix(n=2)"

    @pytest.mark.parametrize("cols, dtype, bound", [
        ([[1, -2], [3, 4]], np.int64, 4),
        ([[1 << 70, 0], [0, -1]], object, None),
    ], ids=["int64", "object"])
    def test_holds_one_read_only_array(self, cols, dtype, bound):
        basis = Basis(cols)
        assert basis.array.dtype == dtype and basis.bound == bound
        assert not basis.array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            basis.array[0, 0] = 5
        assert basis.cols == cols

    def test_returned_lists_are_new_on_each_read(self):
        basis = Basis([[1, 2], [3, 4]])
        cols, rows = basis.cols, basis.to_rows()
        assert cols is not basis.cols
        cols[0][0] = 99
        cols.append([5, 6])
        rows[1][1] = 99
        assert basis.cols == [[1, 2], [3, 4]]
        assert basis.to_rows() == [[1, 3], [2, 4]]
        assert all(type(x) is int for col in basis.cols for x in col)

    def test_int64_and_object_arrays_with_equal_entries_are_equal(self):
        cols = [[1, -2], [3, 4]]
        wide = Basis._trusted(np.array(cols, dtype=object), None)
        assert Basis(cols) == wide and wide == Basis(cols)
        assert wide != Basis([[1, -2], [3, 5]])
        assert Basis([[1, 2]]) != Basis([[1], [2]])
        u = TransformRecord._trusted(np.array(cols, dtype=object), None)
        assert u == TransformRecord(cols) and u != Basis(cols)
