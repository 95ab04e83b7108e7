import logging
import random

import pytest

from latred.altreduce import (
    AltConfig,
    mgs_pivot_reduce,
    random_combination_reduce,
    random_combination_step,
)
from latred.core import (
    Basis,
    UsageError,
    apply_transform,
    column_norms_sq,
    det_small,
    gram_compute,
)
from latred.greedy import GreedyState, apply_pivot, coefficients_for_pivot


def random_basis(rng, n, max_entry=40):
    return Basis([[rng.randint(-max_entry, max_entry) for _ in range(n)]
                  for _ in range(n)])


class TestRandomCombinationStep:
    def test_two_columns_matches_greedy_pivot(self):
        rng = random.Random(70)
        for _ in range(100):
            basis = random_basis(rng, 2, max_entry=30)
            gram = gram_compute(basis)
            if gram.g[0][0] == 0:
                continue
            via_step = basis.copy()
            random_combination_step(via_step, gram.copy(), 1)
            via_greedy = basis.copy()
            state = GreedyState(via_greedy, gram_compute(via_greedy))
            apply_pivot(state, 0, coefficients_for_pivot(state.gram, 0))
            # Greedy's pivot 0 only moves column 1 here, same as the step.
            assert via_step.cols[1] == via_greedy.cols[1]

    def test_orthogonal_column_unchanged(self):
        basis = Basis([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        gram = gram_compute(basis)
        changed = random_combination_step(basis, gram, 2)
        assert not changed
        assert basis.cols[2] == [0, 0, 5]

    def test_diagonal_normal_equations(self):
        basis = Basis([[1, 0, 0], [0, 1, 0], [5, 7, 1]])
        gram = gram_compute(basis)
        random_combination_step(basis, gram, 2)
        assert basis.cols[2] == [0, 0, 1]
        assert gram == gram_compute(basis)

    def test_singular_system_skipped(self, caplog):
        basis = Basis([[1, 0], [2, 0], [0, 1]])  # columns 0,1 dependent
        gram = gram_compute(basis)
        before = [list(c) for c in basis.cols]
        with caplog.at_level(logging.WARNING):
            changed = random_combination_step(basis, gram, 2)
        assert not changed
        assert basis.cols == before
        assert any("skipped" in r.message for r in caplog.records)


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

    def test_rejects_nonpositive_p(self):
        with pytest.raises(UsageError, match="p must be positive, got -1.0"):
            mgs_pivot_reduce(Basis.identity(2), -1.0)

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
