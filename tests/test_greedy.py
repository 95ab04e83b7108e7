import math
import random

import numpy as np
import pytest

from latred.core import (
    INT128_MAX,
    Basis,
    GramMatrix,
    IntRows,
    TransformRecord,
    apply_transform,
    gram_compute,
    is_unimodular,
    nint_ratio,
)
from latred.greedy import (
    GreedyState,
    PivotTable,
    ReduceConfig,
    apply_pivot,
    basis_score,
    coefficients_for_pivot,
    reduce,
    select_pivot,
    update_gram,
)

SKEWED = GramMatrix([[1, 10], [10, 101]])


def random_basis(rng, max_dim=8, max_entry=50):
    m = rng.randint(1, max_dim)
    n = rng.randint(2, max_dim)
    return Basis([[rng.randint(-max_entry, max_entry) for _ in range(m)]
                  for _ in range(n)])


class TestCoefficients:
    def test_skewed_pivot_zero(self):
        assert coefficients_for_pivot(SKEWED, 0) == [(1, 10)]

    def test_skewed_pivot_one(self):
        assert coefficients_for_pivot(SKEWED, 1) == []  # nint(10/101) == 0

    def test_zero_pivot_column(self):
        g = GramMatrix([[0, 0], [0, 5]])
        assert coefficients_for_pivot(g, 0) == []

    def test_own_entry_always_zero(self):
        rng = random.Random(11)
        for _ in range(50):
            basis = random_basis(rng)
            gram = gram_compute(basis)
            for k in range(gram.n):
                # Every other column with a nonzero nint(g_jk / g_kk), in
                # order, and never the pivot itself.
                g = gram.tolist()
                gkk = g[k][k]
                ratios = [(j, nint_ratio(g[j][k], gkk) if gkk else 0)
                          for j in range(gram.n) if j != k]
                assert coefficients_for_pivot(gram, k) == [
                    (j, c) for j, c in ratios if c]


class TestPivotScore:
    def test_sum_mode_skewed(self):
        # Pivot 0 takes column 1's squared norm from 101 to 1; pivot 1
        # moves nothing.  The trace is 102, so they score 2 and 102.
        assert PivotTable(SKEWED).t.tolist() == [[0, -100], [0, 0]]
        k, _, score = select_pivot(PivotTable(SKEWED), 2.0)
        assert (k, score) == (0, 2)
        assert basis_score(SKEWED, 2.0) == 102  # pivot 1's score

    def test_max_mode_skewed(self):
        k, _, score = select_pivot(PivotTable(SKEWED), math.inf)
        assert (k, score) == (0, 1)

    def test_sum_mode_is_exact_int_for_p2(self):
        assert isinstance(select_pivot(PivotTable(SKEWED), 2.0)[2], int)

    def test_corrupt_gram_raises(self):
        bad = GramMatrix([[1, 10], [10, 4]])  # not a real Gram matrix
        with pytest.raises(ArithmeticError, match="corrupt"):
            PivotTable(bad)
        with pytest.raises(ArithmeticError, match="corrupt"):
            select_pivot(PivotTable(bad), 2.0)


class TestSelectPivot:
    def test_prefers_big_improvement(self):
        k, moves, score = select_pivot(PivotTable(SKEWED), 2.0)
        assert (k, score) == (0, 2)
        assert moves == [(1, 10)]

    def test_tie_break_smallest_index(self):
        g = gram_compute(Basis.identity(3))
        k, _, score = select_pivot(PivotTable(g), 2.0)
        assert (k, score) == (0, 3)

    def test_degenerate_column_ties_to_front(self):
        g = GramMatrix([[0, 0], [0, 5]])
        k, moves, score = select_pivot(PivotTable(g), 2.0)
        assert (k, score) == (0, 5)
        assert moves == []


def greedy_state(basis, u=None):
    """A GreedyState on the columns of basis, each followed by u's column
    when u is given."""
    rows = IntRows(basis.cols, None if u is None else u.cols)
    return GreedyState(rows, gram_compute(basis))


def snapshot(state):
    """The basis part, the Gram matrix and the transform part."""
    rows, m = state.rows.tolist(), state.rows.m
    return ([row[:m] for row in rows], state.gram.copy(),
            [row[m:] for row in rows])


class TestApplyPivot:
    def test_skewed_becomes_identity(self):
        state = greedy_state(Basis([[1, 0], [10, 1]]))
        apply_pivot(state, 0, coefficients_for_pivot(state.gram, 0))
        assert state.rows.tolist() == [[1, 0], [0, 1]]
        assert state.gram == gram_compute(Basis(state.rows.tolist()))

    def test_zero_coefficients_change_nothing(self):
        state = greedy_state(Basis.identity(3))
        apply_pivot(state, 1, coefficients_for_pivot(state.gram, 1))
        assert Basis(state.rows.tolist()) == Basis.identity(3)

    def test_gram_matches_recompute_on_random_bases(self):
        rng = random.Random(21)
        for _ in range(100):
            state = greedy_state(random_basis(rng, max_dim=5, max_entry=30))
            k, moves, _ = select_pivot(state, 2.0)
            apply_pivot(state, k, moves)
            assert state.gram == gram_compute(Basis(state.rows.tolist()))

    def test_transform_overflow_names_column(self):
        u = TransformRecord([[1, INT128_MAX // 10 + 1], [0, 1]])
        state = greedy_state(Basis([[1, 0], [10, 1]]), u)
        with pytest.raises(OverflowError, match="transform column 1"):
            apply_pivot(state, 0, coefficients_for_pivot(state.gram, 0))

    def test_gram_overflow_leaves_state_unchanged(self):
        state = greedy_state(Basis([[1, 0, 0], [1 << 62, 1, 0], [1, 0, 1]]),
                             TransformRecord.identity(3))
        before = snapshot(state)
        with pytest.raises(OverflowError, match=r"Gram entry \(1,1\)"):
            apply_pivot(state, 0, [(1, -(1 << 63))])
        assert snapshot(state) == before

    def test_transform_overflow_undoes_earlier_moves(self):
        # The move of column 1 fits; the one of column 2 overflows, so
        # neither may be written.
        u = TransformRecord([[1, 0, INT128_MAX], [0, 1, 0], [0, 0, 1]])
        state = greedy_state(Basis.identity(3), u)
        before = snapshot(state)
        with pytest.raises(OverflowError, match="transform column 2"):
            apply_pivot(state, 0, [(1, 1), (2, -1)])
        assert snapshot(state) == before

    def test_python_int_basis_overflow_in_second_move(self):
        # Entry 2**63 puts the basis rows on Python ints from the start.
        # The move of column 1 fits; column 2 would reach 2**127.
        basis = Basis([[1, 0, 0], [0, 1, 0], [1 << 63, 0, 1]])
        state = greedy_state(basis, TransformRecord.identity(3))
        assert state.rows.bounds is None
        before = snapshot(state)
        with pytest.raises(OverflowError, match="basis column 2"):
            apply_pivot(state, 0, [(1, 1), (2, (1 << 63) - (1 << 127))])
        assert snapshot(state) == before
        assert state.iteration == 0


class TestReduce:
    def test_skewed_pair_one_iteration(self):
        res = reduce(Basis([[1, 0], [10, 1]]))
        assert res.basis.cols == [[1, 0], [0, 1]]
        assert res.iterations_applied == 1
        assert res.before.frobenius_sq == 102
        assert res.after.frobenius_sq == 2

    def test_identity_is_fixed_point(self):
        res = reduce(Basis.identity(4))
        assert res.basis == Basis.identity(4)
        assert res.iterations_applied == 0

    def test_single_column(self):
        res = reduce(Basis([[3, 4]]))
        assert res.basis.cols == [[3, 4]]
        assert res.iterations_applied == 0

    def test_column_norms_never_increase(self):
        rng = random.Random(31)
        for _ in range(40):
            basis = random_basis(rng)
            prev = gram_compute(basis).diagonal()

            def check(state):
                nonlocal prev
                diag = state.gram.diagonal()
                assert all(a <= b for a, b in zip(diag, prev))
                prev = diag

            reduce(basis, on_iteration=check)

    def test_trace_strictly_decreases_each_iteration(self):
        rng = random.Random(32)
        for _ in range(40):
            basis = random_basis(rng)
            prev = sum(gram_compute(basis).diagonal())

            def check(state):
                nonlocal prev
                trace = sum(state.gram.diagonal())
                assert trace < prev
                prev = trace

            reduce(basis, on_iteration=check)

    def test_halt_is_a_fixed_point(self):
        rng = random.Random(33)
        for _ in range(20):
            res = reduce(random_basis(rng))
            gram = gram_compute(res.basis)
            current = basis_score(gram, 2.0)
            _, _, best = select_pivot(PivotTable(gram), 2.0)
            assert best >= current

    def test_lattice_preserved_with_tracking(self):
        rng = random.Random(34)
        for _ in range(20):
            basis = random_basis(rng, max_dim=6)
            res = reduce(basis, track_transform=True)
            assert apply_transform(basis, res.transform) == res.basis
            assert is_unimodular(res.transform)

    def test_p_schedule_runs_each_exponent(self):
        rng = random.Random(35)
        basis = random_basis(rng, max_dim=6, max_entry=40)
        res2 = reduce(basis, ReduceConfig(p_schedule=(2.0,)))
        res21 = reduce(basis, ReduceConfig(p_schedule=(2.0, 1.0)))
        # The p=1 stage may only shrink things further.
        assert res21.after.frobenius_sq <= res2.after.frobenius_sq

    def test_max_mode_never_increases_largest_norm(self):
        rng = random.Random(36)
        for _ in range(20):
            basis = random_basis(rng)
            res = reduce(basis, ReduceConfig(p_schedule=(math.inf,)))
            assert res.after.frobenius_sq <= res.before.frobenius_sq

    def test_pivot_score_is_next_basis_score(self):
        # reduce() carries the chosen pivot's score forward as the score of
        # the basis it produces; that must hold exactly for every exponent.
        rng = random.Random(38)
        for p in (2.0, 1.0, 3.0, math.inf):
            for _ in range(20):
                state = greedy_state(random_basis(rng, max_dim=6,
                                                  max_entry=40))
                k, moves, score = select_pivot(state, p)
                apply_pivot(state, k, moves)
                assert score == basis_score(state.gram, p)

    def test_pivot_sequence_depends_only_on_gram(self):
        rng = random.Random(37)
        for _ in range(10):
            basis = random_basis(rng, max_dim=6, max_entry=30)
            pivots = []
            reduce(basis, on_iteration=lambda s: pivots.append(s.iteration))
            # Replay selection on a standalone Gram copy, no basis involved.
            gram = gram_compute(basis)
            replay = 0
            current = basis_score(gram, 2.0)
            while True:
                k, moves, score = select_pivot(PivotTable(gram), 2.0)
                if not score < current:
                    break
                update_gram(gram, k, moves)
                replay += 1
                current = basis_score(gram, 2.0)
            assert replay == len(pivots)
            assert gram == gram_compute(reduce(basis).basis)


def reference_select(gram, p):
    """Exhaustive pivot scan written out directly, independent of PivotTable."""
    g = gram.tolist()
    n = gram.n
    best = None
    for k in range(n):
        moves = coefficients_for_pivot(gram, k)
        c = [0] * n
        for j, cj in moves:
            c[j] = cj
        norms = [g[j][j] + c[j] * c[j] * g[k][k] - 2 * c[j] * g[j][k]
                 for j in range(n)]
        assert min(norms) >= 0
        if p == math.inf:
            score = max(norms)
        elif p == 2.0:
            score = sum(norms)
        else:
            score = 0.0
            for v in norms:
                score += float(v) ** (p / 2.0)
        if best is None or score < best[2]:
            best = (k, moves, score)
    return best


def dense_basis(rng, n=7, m=7):
    # Column 0 is short and every other column is a large multiple of it
    # plus noise, so the first pivot moves every other column.
    cols = [[1] + [0] * (m - 1)]
    for _ in range(n - 1):
        a = rng.choice((-1, 1)) * rng.randint(3, 40)
        cols.append([a] + [rng.randint(-2, 2) for _ in range(m - 1)])
    return Basis(cols)


def degenerate_basis(rng):
    # Zero columns (g_kk = 0) and duplicate columns (ties, and zero
    # columns once a duplicate is projected off its twin).
    base = random_basis(rng, max_dim=5, max_entry=9).cols
    cols = base + [list(base[0]), [0] * len(base[0])] + [list(base[-1])]
    rng.shuffle(cols)
    return Basis(cols)


TABLE_INPUTS = (
    [random_basis(random.Random(40 + i)) for i in range(12)]
    + [dense_basis(random.Random(60 + i)) for i in range(6)]
    + [degenerate_basis(random.Random(80 + i)) for i in range(12)]
)
TABLE_CONFIGS = (
    ReduceConfig(p_schedule=(2.0,)),
    ReduceConfig(p_schedule=(1.0,)),
    ReduceConfig(p_schedule=(3.0,)),
    ReduceConfig(p_schedule=(math.inf,)),
    ReduceConfig(p_schedule=(2.0, 1.0)),
    ReduceConfig(p_schedule=(2.0, math.inf)),
)


class TestPivotTable:
    @pytest.mark.parametrize("cfg", TABLE_CONFIGS)
    def test_table_matches_fresh_selection_at_every_iteration(self, cfg):
        iterations = 0

        def check(state):
            nonlocal iterations
            iterations += 1
            fresh = PivotTable(state.gram.copy())
            assert state.t.tolist() == fresh.t.tolist()
            for p in cfg.p_schedule:
                got = select_pivot(state, p)
                assert got == select_pivot(fresh, p)
                assert got == reference_select(state.gram, p)

        for basis in TABLE_INPUTS:
            check(greedy_state(basis))
            reduce(basis, cfg, on_iteration=check)
        assert iterations > 2 * len(TABLE_INPUTS)

    def test_dense_input_moves_every_other_column(self):
        basis = dense_basis(random.Random(7))
        k, moves, _ = select_pivot(PivotTable(gram_compute(basis)), 2.0)
        assert k == 0
        assert [j for j, _ in moves] == list(range(1, basis.n))

    def test_sparse_update_gram_matches_recompute(self):
        # Every candidate pivot, not only the best one, on dense, zero and
        # duplicate columns.
        for basis in TABLE_INPUTS:
            gram = gram_compute(basis)
            for k in range(basis.n):
                moves = coefficients_for_pivot(gram, k)
                cols = basis.cols
                for j, cj in moves:
                    cols[j] = [a - cj * b for a, b in zip(cols[j], cols[k])]
                moved = Basis(cols)
                updated = gram.copy()
                update_gram(updated, k, moves)
                assert updated == gram_compute(moved)

    def test_update_gram_overflow_names_entry_and_writes_nothing(self):
        # Every entry fits the signed 128-bit range; the pivot's moves
        # by x and -x leave g'[1][1] = INT128_MAX - x**2 inside it and
        # g'[1][2] = x**2 outside.
        x = (1 << 64) - 1
        gram = GramMatrix([[1, x, -x], [x, INT128_MAX, 0],
                           [-x, 0, INT128_MAX]])
        before = gram.copy()
        with pytest.raises(OverflowError, match=r"Gram entry \(1,2\)"):
            update_gram(gram, 0, coefficients_for_pivot(gram, 0))
        assert gram == before


class TestDenseTable:
    def test_zero_column_has_a_zero_row_and_column(self):
        basis = Basis([[0, 0, 0], [1, 2, 0], [3, 1, 1], [5, 0, 2]])
        state = greedy_state(basis)
        assert not state.t[0].any() and not state.t[:, 0].any()
        assert coefficients_for_pivot(state.gram, 0) == []
        k, moves, _ = select_pivot(state, 2.0)
        apply_pivot(state, k, moves)
        assert not state.t[0].any() and not state.t[:, 0].any()
        assert (state.t.tolist()
                == PivotTable(state.gram.copy()).t.tolist())

    def test_corrupt_gram_raises_on_refresh(self):
        # The table of this matrix has no negative norm, but after pivot
        # 0 column 1 would get one against pivot 2; no basis has this Gram.
        state = GreedyState(IntRows(Basis.identity(3).cols),
                            GramMatrix([[5, 5, -1], [5, 7, 1], [-1, 1, 1]]))
        moves = coefficients_for_pivot(state.gram, 0)
        assert moves == [(1, 1)]
        with pytest.raises(ArithmeticError,
                           match="column 1 against pivot 2: Gram matrix is"):
            apply_pivot(state, 0, moves)

    def test_zero_pivot_of_a_corrupt_gram_moves_nothing(self):
        # No basis has g[0][1] != 0 beside g[0][0] == 0; pivot 0 must still
        # move nothing, in the table as in its coefficients.
        gram = GramMatrix([[0, 1], [1, 5]])
        assert PivotTable(gram).t.tolist() == [[0, 0], [0, 0]]
        assert coefficients_for_pivot(gram, 0) == []

    def test_corrupt_gram_past_2_to_the_30_is_caught(self):
        # Pivot 0 would change column 1's squared norm by -2**70, which
        # wraps to 0 in int64; on Python ints it is a negative norm.
        x = 1 << 35
        with pytest.raises(ArithmeticError, match="column 1 against pivot 0"):
            PivotTable(GramMatrix([[1, x], [x, x]]))

    def test_pivot_with_no_moves_changes_nothing(self):
        for basis in (Basis([[1, 0], [10, 1]]),
                      Basis([[1 << 40, 0], [0, 1]])):
            state = greedy_state(basis)
            before, table = snapshot(state), state.t.copy()
            apply_pivot(state, 1, [])
            assert snapshot(state) == before
            assert state.t.tolist() == table.tolist()
            assert state.iteration == 1

    def test_table_follows_the_gram_past_2_to_the_30(self):
        # A move with c = 2**20 takes the Gram entries past 2**30, so the
        # table leaves int64 for Python ints and must stay in step.
        state = greedy_state(dense_basis(random.Random(5)))
        assert state.t.dtype == np.int64
        apply_pivot(state, 1, [(2, 1 << 20), (3, -(1 << 19))])
        assert state.gram.bound >= 1 << 30
        assert state.t.dtype == object
        fresh = PivotTable(state.gram.copy())
        assert state.t.tolist() == fresh.t.tolist()
        for p in (2.0, 1.0, math.inf):
            got = select_pivot(state, p)
            assert got == reference_select(state.gram, p)

    def test_object_gram_table_matches_reference(self):
        # Entries past int64 from the start: every step runs on Python ints.
        rng = random.Random(9)
        basis = Basis([[rng.randint(-9, 9) << 60 for _ in range(3)]
                       for _ in range(5)])
        iterations = 0

        def check(state):
            nonlocal iterations
            iterations += 1
            assert state.gram.g.dtype == object
            assert (state.t.tolist()
                    == PivotTable(state.gram.copy()).t.tolist())
            assert (select_pivot(state, 2.0)
                    == reference_select(state.gram, 2.0))

        reduce(basis, on_iteration=check)
        assert iterations > 0


class TestPythonInts:
    """No numpy scalar reaches exact code: an int64 scalar times a large
    Python int wraps silently on numpy 1.x."""

    GRAMS = (gram_compute(dense_basis(random.Random(3))),
             GramMatrix([[1 << 64, 3 << 63, 1], [3 << 63, 1 << 66, 0],
                         [1, 0, 1 << 64]]))

    @pytest.mark.parametrize("gram", GRAMS)
    def test_moves_and_exact_scores_are_python_ints(self, gram):
        for k in range(gram.n):
            for j, c in coefficients_for_pivot(gram, k):
                assert type(j) is int and type(c) is int
        for p in (2.0, math.inf):
            k, moves, score = select_pivot(PivotTable(gram), p)
            assert type(k) is int and type(score) is int
            assert all(type(j) is int and type(c) is int for j, c in moves)
            assert moves
        assert type(select_pivot(PivotTable(gram), 1.0)[2]) is float


class TestFloatScores:
    # 2**53 + 1.0 rounds back to 2**53, so adding 1.0 twice left to right
    # gives 2**53, while the compensated sum() of Python 3.12+ gives
    # 2**53 + 2.  With p = 1 the diagonal (2**106, 1, 1) has exactly these
    # terms.
    DIAG = GramMatrix([[1 << 106, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_basis_score_is_the_left_to_right_fold(self):
        assert basis_score(self.DIAG, 1.0) == 2.0 ** 53

    def test_do_nothing_pivot_scores_like_the_basis(self):
        # Pivot 0 moves nothing, so its score is the basis score, bit for
        # bit; the halting test compares the two.
        k, moves, best = select_pivot(PivotTable(self.DIAG), 1.0)
        assert (k, moves) == (0, [])
        assert best == basis_score(self.DIAG, 1.0)


class TestReduceConfig:
    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            ReduceConfig(p_schedule=(0.0,))
        with pytest.raises(ValueError):
            ReduceConfig(p_schedule=(2.0, -1.0))

    def test_max_mode_is_the_exponent_inf(self):
        cfg = ReduceConfig(p_schedule=(2.0, math.inf))
        assert cfg.p_schedule == (2.0, math.inf)
