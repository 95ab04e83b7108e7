import logging
import random
import warnings

import math

import numpy as np
import pytest

from latred import altreduce, core
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
    gram_compute,
    is_unimodular,
)
from latred.genlat import (ExampleSpec, SplitMix64, gen_example,
                           random_permutation)
from latred.greedy import GreedyState, apply_pivot, coefficients_for_pivot

from oracles import inverse_oracle, mgs_per_pair, rand_comb_per_move
from test_reducer_goldens import dependent, scrambled, wide


def random_basis(rng, n, max_entry=40):
    return Basis([[rng.randint(-max_entry, max_entry) for _ in range(n)]
                  for _ in range(n)])


def basis_rows(basis):
    return IntRows(basis.cols)


def check_per_move(basis, iterations, seed):
    """Tracked rand-comb equals the per-move reference loop."""
    res = random_combination_reduce(
        basis, AltConfig(iterations=iterations, seed=seed),
        track_transform=True)
    assert ((res.iterations_applied, res.basis.cols, res.transform.cols)
            == rand_comb_per_move(basis.cols, iterations, seed))


def solve_spy(monkeypatch):
    """The sizes of the systems np.linalg.solve is handed from now on."""
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append(len(a)) or real(a, b))
    return solves


class TestRandomCombinationStep:
    def test_two_columns_matches_greedy_pivot(self):
        rng = random.Random(70)
        for _ in range(100):
            basis = random_basis(rng, 2, max_entry=30)
            gram = gram_compute(basis)
            if gram.g[0][0] == 0:
                continue
            via_step = basis_rows(basis)
            random_combination_step(via_step, 1)
            via_greedy = basis_rows(basis)
            state = GreedyState(via_greedy, gram_compute(basis))
            apply_pivot(state, 0, coefficients_for_pivot(state.gram, 0))
            # Greedy's pivot 0 only moves column 1 here, same as the step.
            assert via_step.tolist()[1] == via_greedy.tolist()[1]

    def test_orthogonal_column_unchanged(self):
        basis = Basis([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        rows = basis_rows(basis)
        changed = random_combination_step(rows, 2)
        assert not changed
        assert rows.tolist()[2] == [0, 0, 5]

    def test_diagonal_normal_equations(self):
        basis = Basis([[1, 0, 0], [0, 1, 0], [5, 7, 1]])
        rows = basis_rows(basis)
        random_combination_step(rows, 2)
        assert rows.tolist()[2] == [0, 0, 1]

    def test_singular_system_skipped(self, caplog):
        basis = Basis([[1, 0], [2, 0], [0, 1]])  # columns 0,1 dependent
        rows = basis_rows(basis)
        before = [list(c) for c in basis.cols]
        with caplog.at_level(logging.WARNING):
            changed = random_combination_step(rows, 2)
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
        monkeypatch.setattr(altreduce.np.linalg, "solve",
                            lambda a, b: np.array(solution))
        with caplog.at_level(logging.WARNING, logger="latred.altreduce"):
            changed = random_combination_step(rows, 2)
        assert changed is False
        assert rows.tolist() == basis.cols
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
            assert is_unimodular(res.transform)

    def test_matches_per_move_reference(self, monkeypatch):
        rng = random.Random(76)
        for n in (2, 3, 5, 8):
            for trial in range(3):
                cols = random_basis(rng, n, max_entry=5 + 20 * trial).cols
                if trial == 2:
                    cols[-1] = [0] * n
                check_per_move(Basis(cols), 10 * n, trial)
        # Permuted q-ary examples, the benchmark's rand-comb input family.
        for ell, seeds in ((4, range(3)), (8, range(3))):
            for seed in seeds:
                basis = random_permutation(
                    gen_example(ExampleSpec(8191, ell, seed)), seed + 1)
                check_per_move(basis, 10 * basis.n, seed + 7)
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
        wide = []
        for n in (4, 6):
            for seed in range(3):
                cols = random_basis(rng, n, max_entry=w).cols
                cols[-1] = [5 * a - 3 * b + rng.randint(-(1 << 20), 1 << 20)
                            for a, b in zip(cols[0], cols[1])]
                basis = Basis(cols)
                wide.append((basis, seed))
                check_per_move(basis, 30, seed)
        assert set(calls) == {False, True}
        # Their float Gram matrices are numerically singular, so no inverse
        # is built and every step solves.
        solves = solve_spy(monkeypatch)
        for basis, seed in wide:
            random_combination_reduce(basis, AltConfig(iterations=30,
                                                       seed=seed))
        assert len(solves) == 30 * len(wide)

    def test_matches_per_move_reference_near_ties(self):
        # Small entries give coefficients at or next to half-integers,
        # where the inverse's float path and the solve's can round apart;
        # such a step must take the solve.
        for n in range(3, 9):
            for seed in range(10):
                check_per_move(scrambled(n, 1000 * n + seed), 10 * n, seed)
        for ell in range(2, 9):
            basis = random_permutation(
                gen_example(ExampleSpec(8191, ell, ell)), ell + 1)
            check_per_move(basis, 10 * basis.n, ell)

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


class TestInverseGram:
    def test_tracks_the_inverse_through_column_operations(self):
        basis = random_permutation(gen_example(ExampleSpec(8191, 8, 0)), 1)
        rows = basis_rows(basis)
        h = altreduce._inverse_gram(gram_compute(basis))
        assert h is not None
        moved = sum(random_combination_step(rows, j, h)
                    for j in (3, 17, 5, 23, 0, 11, 8, 20))
        assert moved >= 5
        gram = gram_compute(rows.basis())
        # The Gram matrix's condition number is near 2e9, so a fresh float
        # inverse is itself off by about 1e-8; H must be no further from
        # the exact inverse than twice that.
        exact = np.array(inverse_oracle(gram.tolist()), dtype=float)

        def error(inverse):
            return np.linalg.norm(inverse - exact) / np.linalg.norm(exact)

        assert error(h) <= 2 * error(np.linalg.inv(gram.g.astype(float)))

    def test_no_inverse_for_rank_deficient_or_ill_conditioned_input(self):
        cases = {
            "zero column": [[1, 2, 0], [0, 0, 0], [3, 1, 1]],
            "doubled column": [[1, 2, 0], [2, 4, 0], [3, 1, 1]],
            # Near 2**62 (1, 1, 0): the float Gram matrix is singular.
            "near parallel": [[1 << 62, 1 << 62, 0],
                              [(1 << 62) + 1, 1 << 62, 0], [0, 0, 1]],
        }
        for name, cols in cases.items():
            assert altreduce._inverse_gram(gram_compute(Basis(cols))) \
                is None, name
        h = altreduce._inverse_gram(gram_compute(Basis([[2, 0], [1, 1]])))
        assert np.allclose(h, [[0.5, -0.5], [-0.5, 1.0]])

    def test_near_tie_takes_the_solve(self, monkeypatch):
        # Column 1's coefficient onto column 0 is 2/4, a half-integer.
        # Slightly off, H would give a coefficient just below 1/2, which
        # rounds to 0; the solve gives 0.5, which rounds to 1.
        basis = Basis([[2, 0], [1, 1]])
        rows = basis_rows(basis)
        h = altreduce._inverse_gram(gram_compute(basis))
        h[0, 1] *= 1 - 1e-12
        solves = solve_spy(monkeypatch)
        assert random_combination_step(rows, 1, h)
        assert solves == [1]
        assert rows.tolist() == [[2, 0], [-1, 1]]
        gram = gram_compute(rows.basis())
        assert np.allclose(h, np.linalg.inv(gram.g.astype(float)))

    def test_non_finite_coefficient_takes_the_solve(self, monkeypatch):
        # One test covers all four entries: NaN and +-inf fail it as a
        # near tie does.  With H[2, 2] = 1, H[0, 2] = -2.5 gives x_0 = 2.5,
        # exactly a half-integer.
        basis = Basis([[1, 0, 0], [0, 1, 0], [5, 7, 1]])
        solves = solve_spy(monkeypatch)
        for entry in (np.nan, np.inf, -np.inf, -2.5):
            rows = basis_rows(basis)
            h = altreduce._inverse_gram(gram_compute(basis))
            h[2, 2] = 1.0
            h[0, 2] = entry
            assert altreduce._inverse_coefficients(h, 2) is None, entry
            solves.clear()
            assert random_combination_step(rows, 2, h)
            assert solves == [2]
            assert rows.tolist()[2] == [0, 0, 1]

    def test_columns_are_drawn_one_block_at_a_time(self, monkeypatch):
        steps = 3 * altreduce.COLUMN_BLOCK + 5
        counts, columns = [], []
        draw = SplitMix64.draw
        monkeypatch.setattr(
            SplitMix64, "draw",
            lambda self, count, bound=None:
                counts.append(count) or draw(self, count, bound))
        step = altreduce.random_combination_step
        monkeypatch.setattr(
            altreduce, "random_combination_step",
            lambda rows, j, inverse: columns.append(j)
            or step(rows, j, inverse))
        random_combination_reduce(Basis.identity(3),
                                  AltConfig(iterations=steps, seed=4))
        assert 0 < max(counts) <= altreduce.COLUMN_BLOCK
        monkeypatch.undo()
        assert columns == SplitMix64(4).draw(steps, 3).tolist()


class TestNoKeptGram:
    """rand-comb keeps no exact Gram matrix: it builds one from the rows
    for each rebuild of H and for each solve, and updates none."""

    @pytest.mark.parametrize("make, seed, every_step_solves", [
        (lambda: random_permutation(gen_example(ExampleSpec(8191, 8, 0)), 1),
         1, False),
        # A zero column: _inverse_gram refuses at every rebuild.
        (lambda: dependent(3), 3, True),
        # Two columns near 2**63 e_0: the float Gram matrix is numerically
        # singular, and the rows run on Python ints.
        (lambda: wide(0), 9, True),
    ], ids=["qary-24", "dependent-10", "wide-6"])
    def test_every_gram_is_built_fresh_and_none_is_updated(
            self, monkeypatch, make, seed, every_step_solves):
        basis = make()
        seen = {"rebuilds": 0, "solves": 0, "builds": 0, "updates": 0}
        current = []
        step = altreduce.random_combination_step
        inverse_gram = altreduce._inverse_gram
        solved = altreduce._solved_coefficients
        build = altreduce.gram_compute
        update = core.update_gram_column

        def spy_step(rows, j, inverse):
            current[:] = [rows]
            return step(rows, j, inverse)

        def spy_inverse(gram):
            seen["rebuilds"] += 1
            return inverse_gram(gram)

        def spy_solved(gram, j):
            seen["solves"] += 1
            assert gram == gram_compute(current[0].basis())
            return solved(gram, j)

        def spy_build(b):
            seen["builds"] += 1
            return build(b)

        def spy_update(gram, j, moves):
            seen["updates"] += 1
            update(gram, j, moves)

        monkeypatch.setattr(altreduce, "random_combination_step", spy_step)
        monkeypatch.setattr(altreduce, "_inverse_gram", spy_inverse)
        monkeypatch.setattr(altreduce, "_solved_coefficients", spy_solved)
        monkeypatch.setattr(altreduce, "gram_compute", spy_build)
        monkeypatch.setattr(core, "update_gram_column", spy_update)
        check_per_move(basis, 10 * basis.n, seed)
        assert seen["updates"] == 0 and seen["rebuilds"] > 2
        assert seen["builds"] == seen["rebuilds"] + seen["solves"]
        assert (seen["solves"] == 10 * basis.n) == every_step_solves

    @pytest.mark.parametrize("seed, iterations, message", [
        (1, 1, "column norm exceeds"),
        (22, 30, r"Gram entry \(2,2\) exceeds"),
    ], ids=["final-summary", "rebuild"])
    def test_squared_norm_past_128_bits_raises(self, seed, iterations,
                                               message):
        # Columns s (10, 0, 0), s (10, 5, 0) and s (2, -2, 10): the best
        # real combination for column 2 is 0.6 c_0 - 0.4 c_1, which rounds
        # to c_0, so column 2 becomes s (-8, -2, 10), of squared norm
        # 168 s**2, past 2**127, though every Gram entry of the input is
        # at most 125 s**2 < 2**127 and every entry stays below 2**64.
        # Both seeds draw column 2 first.  rand-comb keeps no Gram matrix,
        # so the step itself raises nothing: one step ends in
        # run_reducer's summary of the output's norms.  Seed 22 then draws
        # columns 0 and 1, both useful, so the third useful step's
        # rebuild of the exact Gram matrix raises.  (A later step can
        # bring the norm back inside the range before either check, as a
        # step on column 2 does with seed 1 over 30 steps; such a run
        # returns.)
        s = math.isqrt(((1 << 127) - 1) // 125)
        basis = Basis([[10 * s, 0, 0], [10 * s, 5 * s, 0],
                       [2 * s, -2 * s, 10 * s]])
        with pytest.raises(OverflowError, match=message):
            random_combination_reduce(basis, AltConfig(iterations=iterations,
                                                       seed=seed),
                                      track_transform=True)


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
            assert is_unimodular(res.transform)

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
        # "mgs_pivot" names no rand-comb variant: random_combination_reduce
        # would run rand-comb anyway.
        for variant in ("annealing", "mgs_pivot"):
            with pytest.raises(UsageError):
                AltConfig(variant=variant)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            AltConfig(iterations=-1)
