import logging
import random
import warnings

import numpy as np
import pytest

from latred import altreduce
from latred.altreduce import (
    AltConfig,
    mgs_pivot_reduce,
    random_combination_reduce,
    random_combination_step,
)
from latred.core import (
    Basis,
    GramMatrix,
    IntRows,
    TransformRecord,
    UsageError,
    apply_moves,
    apply_transform,
    column_norms_sq,
    det_small,
    gram_compute,
)
from latred.genlat import ExampleSpec, gen_example, random_permutation
from latred.greedy import GreedyState, apply_pivot, coefficients_for_pivot

from oracles import mgs_per_pair, rand_comb_per_move


def random_basis(rng, n, max_entry=40):
    return Basis([[rng.randint(-max_entry, max_entry) for _ in range(n)]
                  for _ in range(n)])


def basis_rows(basis):
    return IntRows(basis.cols)


class TestRandomCombinationStep:
    def test_two_columns_matches_greedy_pivot(self):
        rng = random.Random(70)
        for _ in range(100):
            basis = random_basis(rng, 2, max_entry=30)
            gram = gram_compute(basis)
            if gram.g[0][0] == 0:
                continue
            via_step = basis_rows(basis)
            random_combination_step(via_step, gram.copy(), 1)
            via_greedy = basis_rows(basis)
            state = GreedyState(via_greedy, gram_compute(basis))
            apply_pivot(state, 0, coefficients_for_pivot(state.gram, 0))
            # Greedy's pivot 0 only moves column 1 here, same as the step.
            assert via_step.tolist()[1] == via_greedy.tolist()[1]

    def test_orthogonal_column_unchanged(self):
        basis = Basis([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        rows = basis_rows(basis)
        changed = random_combination_step(rows, gram_compute(basis), 2)
        assert not changed
        assert rows.tolist()[2] == [0, 0, 5]

    def test_diagonal_normal_equations(self):
        basis = Basis([[1, 0, 0], [0, 1, 0], [5, 7, 1]])
        rows = basis_rows(basis)
        gram = gram_compute(basis)
        random_combination_step(rows, gram, 2)
        assert rows.tolist()[2] == [0, 0, 1]
        assert gram == gram_compute(Basis(rows.tolist()))

    def test_singular_system_skipped(self, caplog):
        basis = Basis([[1, 0], [2, 0], [0, 1]])  # columns 0,1 dependent
        rows = basis_rows(basis)
        gram = gram_compute(basis)
        before = [list(c) for c in basis.cols]
        with caplog.at_level(logging.WARNING):
            changed = random_combination_step(rows, gram, 2)
        assert not changed
        assert rows.tolist() == before
        assert any("skipped" in r.message for r in caplog.records)

    @pytest.mark.parametrize("solution", [[np.nan, 1.0], [1.0, np.inf]],
                             ids=["nan", "inf"])
    def test_non_finite_coefficients_skipped(self, monkeypatch, caplog,
                                             solution):
        # No Gram matrix inside the 128-bit range is known to make the
        # solver return a non-finite solution, so the solver is replaced.
        basis = Basis([[1, 0, 0], [0, 1, 0], [5, 7, 1]])
        rows = basis_rows(basis)
        gram = gram_compute(basis)
        monkeypatch.setattr(altreduce.np.linalg, "solve",
                            lambda a, b: np.array(solution))
        with caplog.at_level(logging.WARNING, logger="latred.altreduce"):
            changed = random_combination_step(rows, gram, 2)
        assert changed is False
        assert rows.tolist() == basis.cols
        assert gram == gram_compute(basis)
        assert [r.getMessage() for r in caplog.records
                if r.name == "latred.altreduce"] == [
            "non-finite coefficients for column 2; step skipped"]


class TestRandomCombinationReduce:
    def test_zero_iterations_unchanged(self):
        basis = Basis([[1, 0], [10, 1]])
        res = random_combination_reduce(basis, AltConfig(iterations=0))
        assert res.basis == basis
        assert res.iterations_applied == 0

    def test_deterministic_per_seed(self):
        rng = random.Random(71)
        basis = random_basis(rng, 4)
        cfg = AltConfig(iterations=20, seed=9)
        assert random_combination_reduce(basis, cfg).basis == \
            random_combination_reduce(basis, cfg).basis

    def test_lattice_preserved(self):
        rng = random.Random(72)
        for _ in range(10):
            basis = random_basis(rng, 4)
            res = random_combination_reduce(
                basis, AltConfig(iterations=15, seed=5), track_transform=True
            )
            assert apply_transform(basis, res.transform) == res.basis
            assert abs(det_small(res.transform.to_rows())) == 1

    def test_matches_per_move_reference(self, monkeypatch):
        def check(basis, iterations, seed):
            res = random_combination_reduce(
                basis, AltConfig(iterations=iterations, seed=seed),
                track_transform=True)
            assert ((res.iterations_applied, res.basis.cols,
                     res.transform.cols)
                    == rand_comb_per_move(basis.cols, iterations, seed))

        rng = random.Random(76)
        for n in (2, 3, 5, 8):
            for trial in range(3):
                cols = random_basis(rng, n, max_entry=5 + 20 * trial).cols
                if trial == 2:
                    cols[-1] = [0] * n
                check(Basis(cols), 10 * n, trial)
        # Permuted q-ary examples, the benchmark's rand-comb input family.
        for ell, seeds in ((4, range(3)), (8, range(3))):
            for seed in seeds:
                basis = random_permutation(
                    gen_example(ExampleSpec(8191, ell, seed)), seed + 1)
                check(basis, 10 * basis.n, seed + 7)
        # Entries near 2**59 and a last column near 5 c_0 - 3 c_1 (entries
        # near 2**62): the Gram store is Python ints from the start, and a
        # step on the last column takes the rows past int64.
        calls = []
        original = altreduce.apply_column_op

        def spy(rows, gram, j, moves):
            calls.append(rows.bounds is None)
            original(rows, gram, j, moves)

        monkeypatch.setattr(altreduce, "apply_column_op", spy)
        w = 1 << 59
        for n in (4, 6):
            for seed in range(3):
                cols = random_basis(rng, n, max_entry=w).cols
                cols[-1] = [5 * a - 3 * b + rng.randint(-(1 << 20), 1 << 20)
                            for a, b in zip(cols[0], cols[1])]
                check(Basis(cols), 30, seed)
        assert set(calls) == {False, True}

    def test_one_column_op_per_step_that_moves(self, monkeypatch):
        calls = []
        original = altreduce.apply_column_op

        def spy(rows, gram, j, moves):
            calls.append(len(moves))
            original(rows, gram, j, moves)

        monkeypatch.setattr(altreduce, "apply_column_op", spy)
        basis = random_permutation(gen_example(ExampleSpec(8191, 8, 0)), 1)
        res = random_combination_reduce(basis, AltConfig(seed=2))
        assert len(calls) == res.iterations_applied > 0
        # Some steps move column j by more than one other column.
        assert max(calls) > 1


class TestMgsPivotReduce:
    def test_orthogonal_input_unchanged(self):
        basis = Basis([[0, 4, 0], [3, 0, 0], [0, 0, 2]])
        res = mgs_pivot_reduce(basis)
        assert res.basis == basis

    def test_skewed_pair(self):
        res = mgs_pivot_reduce(Basis([[1, 0], [10, 1]]))
        assert res.basis.cols == [[1, 0], [0, 1]]
        assert res.iterations_applied == 2

    def test_lattice_preserved(self):
        rng = random.Random(73)
        for _ in range(10):
            basis = random_basis(rng, 5)
            res = mgs_pivot_reduce(basis, track_transform=True)
            assert apply_transform(basis, res.transform) == res.basis
            assert abs(det_small(res.transform.to_rows())) == 1

    def test_zero_column_skipped(self):
        basis = Basis([[1, 7], [0, 0], [0, 3]])
        res = mgs_pivot_reduce(basis)
        assert res.basis.cols[1] == [0, 0]

    def test_matches_per_pair_reference(self):
        def check(basis):
            for p in (1.0, 2.0, 3.0):
                res = mgs_pivot_reduce(basis, p)
                assert ((res.iterations_applied, res.basis.cols)
                        == mgs_per_pair(basis.cols, p))

        rng = random.Random(75)
        for n in (2, 3, 5, 8, 12):
            for trial in range(4):
                cols = random_basis(rng, n, max_entry=5 + 10 * trial).cols
                if trial == 3:
                    cols[1] = [2 * x for x in cols[0]]
                    cols[-1] = [0] * n
                check(Basis(cols))
        # Wide int64 Gram stores: entries up to 2**30 give Gram entries in
        # (2**60, 2**61), so the store stays int64 through +-1 pivots.
        # Column 2 lies near 0.3 column 0 + 0.7 column 1; once a pivot
        # leaves it a tiny residual, its coefficients as a candidate are
        # huge, and the new squared norms they give pass 2**63, where
        # int64 arithmetic would wrap.
        w = 1 << 29
        for n in (4, 5, 6):
            for t in (2, 8, 14):
                cols = random_basis(rng, n, max_entry=w).cols
                cols[0] = [rng.randint(-w // 2, w // 2) for _ in range(n)]
                cols[0][0] = 2 * w
                cols[2] = [(3 * a + 7 * b) // 10
                           + rng.randint(-(1 << t), 1 << t)
                           for a, b in zip(cols[0], cols[1])]
                basis = Basis(cols)
                gram = gram_compute(basis)
                assert gram.g.dtype == np.int64
                assert 1 << 60 < gram.bound < 1 << 61
                check(basis)
        # Permuted q-ary examples, the benchmark's mgs input family, where
        # the residuals carried across rounds see up to n - 1 projections.
        for ell, seeds in ((8, range(3)), (16, range(2))):
            for seed in seeds:
                basis = random_permutation(
                    gen_example(ExampleSpec(8191, ell, seed)), seed + 1)
                for p in (1.0, 2.0):
                    res = mgs_pivot_reduce(basis, p)
                    assert ((res.iterations_applied, res.basis.cols)
                            == mgs_per_pair(basis.cols, p))

    def test_zero_and_dependent_candidates_emit_no_warning(self):
        basis = Basis([[0, 0], [1, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mgs_pivot_reduce(basis, track_transform=True)
        assert res.basis == basis
        assert res.transform.cols == [[1, 0], [0, 1]]
        assert res.iterations_applied == 1

    def test_round_overflow_in_second_move_writes_nothing(self):
        # The apply_moves call of one mgs round, pivot 0, on rows held as
        # Python ints (entry 2**63), each carrying its transform column.
        # Column 1's move fits; column 2 would reach 2**127, so no basis,
        # transform or Gram entry moves.
        basis = Basis([[1, 0, 0], [0, 1, 0], [1 << 63, 0, 1]])
        rows = IntRows(basis.cols, TransformRecord.identity(3).cols)
        gram = gram_compute(basis)
        before = (rows.tolist(), gram.copy())
        with pytest.raises(OverflowError, match="basis column 2"):
            apply_moves(rows, gram, 0, [(1, 1), (2, (1 << 63) - (1 << 127))])
        assert (rows.tolist(), gram) == before

    def test_rejects_nonpositive_p(self):
        with pytest.raises(UsageError, match="p must be positive, got -1.0"):
            mgs_pivot_reduce(Basis.identity(2), -1.0)
        # mgs has no max score, so the exponent inf has no meaning there.
        with pytest.raises(UsageError, match="p must be finite for mgs"):
            mgs_pivot_reduce(Basis.identity(2), float("inf"))

    def test_corrupt_gram_names_the_pair(self, monkeypatch):
        # The true Gram matrix has g[1][1] = 101; with 50, candidate 0's
        # coefficient 10 gives column 1 the squared norm -50.
        monkeypatch.setattr(altreduce, "gram_compute",
                            lambda _: GramMatrix([[1, 10], [10, 50]]))
        with pytest.raises(ArithmeticError,
                           match="column 1 against pivot 0: Gram matrix"):
            mgs_pivot_reduce(Basis([[1, 0], [10, 1]]))

    def test_projection_steps_rarely_increase_norms(self):
        # Rounded coefficients against the orthogonalized pivot normally
        # shrink each column; float rounding makes it statistical, not exact.
        rng = random.Random(74)
        increases = 0
        total = 0
        for _ in range(30):
            basis = random_basis(rng, 5)
            before = column_norms_sq(basis)
            res = mgs_pivot_reduce(basis)
            after = column_norms_sq(res.basis)
            total += len(before)
            increases += sum(a > b for a, b in zip(after, before))
        assert increases <= 0.05 * total


class TestAltConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            AltConfig(variant="annealing")

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            AltConfig(iterations=-1)
