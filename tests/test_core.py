import math
import random

import numpy as np
import pytest

from latred import core
from latred.core import (
    Basis,
    INT128_MAX,
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
    column_norms_sq,
    det_small,
    gram_compute,
    is_unimodular,
    nint_float,
    nint_ratio,
    pipeline,
    projected_norm_sq,
    read_mat,
    run_reducer,
    summarize_columns,
    update_gram,
    write_mat,
)

from oracles import det_cofactor, gram_oracle, product_oracle


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


class MatmulCounter:
    """Stands in for numpy inside core and counts the int64 products."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b):
        self.calls += 1
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

    def test_most_negative_int64_entry(self):
        # In int64, abs(-2**63) is -2**63: a bound taken that way would
        # pass and wrap (-2**63)**2 to 0.
        cols = [[-1 << 63, 1], [1, 1]]
        assert core._int64_cols(cols)[1] == 1 << 63
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
            assert core._int64_cols([[1, big]]) is None
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
        apply_column_op(rows, gram, 1, 0, 10)
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
        apply_column_op(basis, gram, 0, 1, 0)
        assert basis.tolist() == before_cols

    def test_negative_coefficient_keeps_unit_determinant(self):
        rows, basis, u = stacked_rows(Basis.identity(2),
                                      TransformRecord.identity(2))
        apply_column_op(rows, None, 0, 1, -1)
        assert basis.tolist()[0] == [1, 1]
        assert det_small(TransformRecord(u.tolist()).to_rows()) == 1

    def test_rejects_equal_indices(self):
        basis = basis_rows(Basis.identity(2))
        with pytest.raises(ValueError):
            apply_column_op(basis, None, 1, 1, 3)

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
                apply_column_op(rows, gram, j, k, rng.randint(-4, 4))
            assert gram == gram_compute(Basis(basis.tolist()))
            assert (apply_transform(original, TransformRecord(u.tolist()))
                    == Basis(basis.tolist()))
            assert abs(det_small(TransformRecord(u.tolist()).to_rows())) == 1

    def test_transform_overflow_names_column(self):
        rows, _, _ = stacked_rows(Basis.identity(2),
                                  TransformRecord([[1, INT128_MAX], [0, 1]]))
        with pytest.raises(OverflowError, match="transform column 1"):
            apply_column_op(rows, None, 1, 0, -1)

    def test_gram_overflow_names_entry_and_writes_nothing(self):
        # Column 1 becomes (3 * 2**62, 1, 0): its squared norm leaves the
        # range, while the other new entries of row 1 fit and must not be
        # written either.
        x = 1 << 62
        basis = basis_rows(Basis([[1, 0, 0], [x, 1, 0], [1, 0, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        before = gram.copy()
        with pytest.raises(OverflowError, match=r"Gram entry \(1,1\)"):
            apply_column_op(basis, gram, 1, 0, -2 * x)
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
            apply_column_op(rows, gram, 1, 0, -(1 << 63))
        assert (basis.tolist(), gram, u.tolist()) == before

    def test_transform_overflow_leaves_basis_and_gram_unchanged(self):
        rows, basis, u = stacked_rows(
            Basis([[1, 0], [10, 1]]), TransformRecord([[1, INT128_MAX], [0, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        before = (basis.tolist(), gram.copy(), u.tolist())
        with pytest.raises(OverflowError, match="transform column 1"):
            apply_column_op(rows, gram, 1, 0, -1)
        assert (basis.tolist(), gram, u.tolist()) == before

    def test_huge_coefficient_against_a_zero_column(self):
        # c = 2**64 does not fit int64, but column 0 is zero, so column 1
        # must come back unchanged rather than fail in numpy.
        basis = basis_rows(Basis([[0, 0], [1, 1]]))
        gram = gram_compute(Basis(basis.tolist()))
        apply_column_op(basis, gram, 1, 0, 1 << 64)
        assert basis.tolist() == [[0, 0], [1, 1]]
        assert gram == gram_compute(Basis(basis.tolist()))


class TestGramStore:
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

    def test_coefficient_past_int64_widens(self):
        gram = gram_compute(Basis([[0, 0], [1, 1]]))
        update_gram(gram, 0, [(1, 1 << 64)])
        assert gram.g.dtype == object
        assert gram.tolist() == [[0, 0], [0, 2]]

    def test_projected_norm_sq_reads_python_ints(self):
        # On an int64 store, c * c * g[k][k] with c = 2**40 leaves int64;
        # the result must still be the exact Python int.
        gram = gram_compute(Basis([[3, 4], [1, 2]]))
        assert gram.g.dtype == np.int64
        g = gram.tolist()
        c = 1 << 40
        got = projected_norm_sq(gram.g, 0, 1, c, gram.g[1][1])
        assert type(got) is int
        assert got == g[0][0] + c * c * g[1][1] - 2 * c * g[0][1]
        assert got == projected_norm_sq(g, 0, 1, c, g[1][1])


def sub_multiple(rows, k, j, c):
    """rows[k] -= c * rows[j], as LLL's size reduction does it."""
    rows.put(rows.moved(j, ((k, c),)))


class TestIntRows:
    @pytest.mark.parametrize("entry, widens", [
        (3, False), (1 << 62, True), (1 << 70, True)])
    def test_random_operations_match_python_ints(self, entry, widens):
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

    def test_bound_is_measured_again_before_widening(self):
        rows = IntRows([[1 << 61, 0], [0, 1]])
        # The bound 2**61 + 3 * 2**61 reaches 2**63; measured, row 1's
        # largest |entry| is 1, so the step stays int64.
        sub_multiple(rows, 1, 0, 3)
        assert rows.bounds is not None
        # Measured bounds 3 * 2**61 + 2**61 reach 2**63: Python ints.
        sub_multiple(rows, 1, 0, 1)
        assert rows.bounds is None
        assert rows.tolist() == [[1 << 61, 0], [-1 << 63, 1]]

    def test_coefficient_past_int64_against_a_zero_row(self):
        # The re-measured bound of a zero row passes whatever c is, but
        # c = 2**64 itself does not fit int64.
        rows = IntRows([[0, 0], [1, 1]])
        sub_multiple(rows, 1, 0, 1 << 64)
        assert rows.tolist() == [[0, 0], [1, 1]]
        assert_all_int(rows.tolist())

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
        rows = IntRows(cols)
        with pytest.raises(OverflowError,
                           match="basis column 1 exceeds the signed 128-bit"):
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


def fixed_stage(transform):
    """A stage that returns its input with the given transform attached."""
    def stage(basis):
        summary = NormSummary(0, 0)
        return ReductionResult(basis, 0, summary, summary, 0.0, transform)
    return stage


class TestPipeline:
    def test_composed_transform_overflow_names_column(self):
        # Both factors are unimodular with entries near 2**64; column 0 of
        # their product holds 2**128 + 1.
        first = TransformRecord([[1, 0], [1 << 64, 1]])
        second = TransformRecord([[1, 1 << 64], [0, 1]])
        stages = (fixed_stage(first), fixed_stage(second))
        with pytest.raises(OverflowError, match="transform column 0"):
            pipeline(Basis.identity(2), stages)

    def test_composed_int64_transforms_overflow_names_column(self):
        # Every entry fits int64, but entry 0 of the product's column 0 is
        # 2 * 2**126 = 2**127, one past the signed 128-bit range.
        first = TransformRecord([[-1 << 63, 0], [-1 << 63, 1]])
        second = TransformRecord([[-1 << 63, -1 << 63], [0, 1]])
        stages = (fixed_stage(first), fixed_stage(second))
        with pytest.raises(OverflowError, match="transform column 0"):
            pipeline(Basis.identity(2), stages)

    def test_single_stage_passes_its_transform_through(self):
        u = TransformRecord([[1, 0], [3, 1]])
        res = pipeline(Basis.identity(2), (fixed_stage(u),))
        assert res.transform is u
        assert len(res.stages) == 1 and res.stages[0].transform is u

    def test_no_stages_is_a_value_error(self):
        with pytest.raises(ValueError, match="at least one stage"):
            pipeline(Basis.identity(2), ())


class TestTransformRecord:
    def test_is_a_square_basis(self):
        u = TransformRecord.identity(3)
        assert isinstance(u, Basis)
        assert (u.m, u.n) == (3, 3)
        with pytest.raises(ValueError, match="square"):
            TransformRecord([[1, 0, 0], [0, 1, 0]])

    def test_copy_keeps_type_and_is_deep(self):
        u = TransformRecord([[1, 0], [3, 1]])
        dup = u.copy()
        assert type(dup) is TransformRecord and dup == u
        dup.cols[1][0] = 7
        assert u.cols[1][0] == 3

    def test_equality_is_type_strict(self):
        assert TransformRecord.identity(2) != Basis.identity(2)
        assert Basis.identity(2) != TransformRecord.identity(2)

    def test_product_of_transforms_is_a_transform(self):
        u = apply_transform(TransformRecord([[1, 0], [3, 1]]),
                            TransformRecord([[1, 2], [0, 1]]))
        assert u == TransformRecord([[7, 2], [3, 1]])


class TestRunReducer:
    def test_frame_around_body(self):
        basis = Basis([[1, 0], [10, 1]])

        def body(work):
            apply_column_op(work, None, 1, 0, 10)
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


class TestDeterminant:
    def test_identity(self):
        assert det_small([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_column_swap_flips_sign(self):
        assert det_small([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1

    def test_magnitude_visible_to_caller(self):
        m = [[2, 0], [0, 2]]
        assert det_small(m) == 4
        assert not is_unimodular(TransformRecord([[2, 0], [0, 2]]))

    def test_singular(self):
        assert det_small([[1, 2], [2, 4]]) == 0

    def test_matches_cofactor_expansion(self):
        rng = random.Random(303)
        for _ in range(200):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_small(rows) == det_cofactor(rows)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            det_small([[0] * 17 for _ in range(17)])

    def test_unimodular_answers_up_to_n16_and_none_above(self):
        assert is_unimodular(TransformRecord.identity(16)) is True
        assert is_unimodular(TransformRecord.identity(17)) is None


class TestMatFormat:
    def test_round_trip(self, tmp_path):
        rng = random.Random(404)
        basis = random_basis(rng, max_dim=7, max_entry=10**6)
        path = tmp_path / "b.mat"
        write_mat(basis, path)
        assert read_mat(path) == basis

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


class TestBasisType:
    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            Basis([[1.5, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Basis([])

    def test_rows_columns_round_trip(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        assert Basis.from_rows(rows).to_rows() == rows

    def test_copy_is_deep(self):
        basis = Basis([[1, 2], [3, 4]])
        dup = basis.copy()
        dup.cols[0][0] = 99
        assert basis.cols[0][0] == 1
