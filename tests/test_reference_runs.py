"""Reducers against tests/oracles.py's plain loops on inputs larger than
any tier-1 test uses, and one pinned n = 96 CLI run.

Each run takes seconds, so tier-1 skips this module; CI runs the whole
module in one step, with LATRED_REFERENCE_RUNS=1:

    LATRED_REFERENCE_RUNS=1 PYTHONPATH=src python -m pytest -q \\
        tests/test_reference_runs.py
"""

import hashlib
import os
import random

import pytest

import latred.lll as lll
from latred.altreduce import (
    AltConfig,
    mgs_pivot_reduce,
    random_combination_reduce,
)
from latred.cli import main as cli_main
from latred.core import Basis
from latred.genlat import ExampleSpec, gen_example, random_permutation

from hard_families import HARD_FAMILIES
from oracles import exact_lll, lll_l2_reference, mgs_per_pair, rand_comb_per_move

pytestmark = pytest.mark.skipif(
    os.environ.get("LATRED_REFERENCE_RUNS") != "1",
    reason="reference runs take seconds; set LATRED_REFERENCE_RUNS=1")


def permuted_example(ell, seed, permutation_seed):
    """The q = 8191 example of n = 3 * ell columns, permuted."""
    return random_permutation(gen_example(ExampleSpec(8191, ell, seed)),
                              permutation_seed)


def test_mgs_at_n96_matches_the_per_pair_reference():
    # mgs carries its orthogonal residuals across rounds, so rounding
    # gathers over more rounds than at the tier-1 sizes (n <= 48).  Pivots
    # and columns must equal the plain loop's.
    basis = permuted_example(32, 0, 1)
    res = mgs_pivot_reduce(basis, 2.0)
    assert ((res.iterations_applied, res.basis.cols)
            == mgs_per_pair(basis.cols, 2.0))


def test_rand_comb_at_n96_matches_the_per_move_reference():
    # No tier-1 test runs rand-comb past n = 24.  Each step writes its
    # whole rounded combination as one column operation; the reference
    # applies one column operation per coefficient.
    basis = permuted_example(32, 0, 1)
    res = random_combination_reduce(basis, AltConfig(seed=1),
                                    track_transform=True)
    assert ((res.iterations_applied, res.basis.cols, res.transform.cols)
            == rand_comb_per_move(basis.cols, 10 * basis.n, 1))


def test_rand_comb_at_n192_matches_the_per_move_reference():
    # The steps read their coefficients from the maintained inverse Gram
    # matrix.  On this input ||G||_1 ||H||_1 n is about 1.5e14, the
    # nearest to the 2**50 conditioning bound of any benchmark-family
    # input, so the inverse's coefficients are the least accurate here.
    # The test takes 5.6 s on a 2-core x86-64 machine, nearly all of it
    # in the reference's one solve and per-move Gram rows per step.
    basis = permuted_example(64, 0, 1)
    res = random_combination_reduce(basis, AltConfig(seed=1),
                                    track_transform=True)
    assert ((res.iterations_applied, res.basis.cols, res.transform.cols)
            == rand_comb_per_move(basis.cols, 10 * basis.n, 1))


@pytest.mark.parametrize("seed", [0, 1])
def test_lll_at_n48_matches_the_float_path_reference(monkeypatch, seed):
    # Swaps, basis, transform and every float of the final r and mu rows,
    # tracked; tier-1 compares them at n <= 24.
    states = []
    real = lll.orthogonalize
    monkeypatch.setattr(lll, "orthogonalize",
                        lambda state, k: states.append(state) or real(state, k))
    basis = permuted_example(16, seed, 100 + seed)
    res = lll.lll_reduce(basis, track_transform=True)
    swaps, cols, u, (r, mu) = lll_l2_reference(basis.cols,
                                               lll.LLLConfig().delta, True)
    state = states.pop()

    def hexes(rows):
        return [[x.hex() for x in row] for row in rows]

    assert ((res.iterations_applied, res.basis.cols, res.transform.cols,
             hexes(state.r), hexes(state.mu))
            == (swaps, cols, u, hexes(r), hexes(mu)))


@pytest.mark.parametrize("family, b", [
    ("knapsack", 51), ("knapsack", 62), ("goldstein-mayer", 55),
    ("goldstein-mayer", 60), ("uniform", 40),
])
def test_lll_on_hard_families_at_n10_equals_exact_lll(family, b):
    # tier-1 checks these families' outputs exactly; here each output must
    # be the exact rational LLL's, which takes seconds per input at n = 10.
    cols = HARD_FAMILIES[family](random.Random(f"{family}-10-{b}-0"), 10, b)
    delta = lll.LLLConfig().delta
    assert lll.lll_reduce(Basis(cols)).basis.cols == exact_lll(cols, delta)


# sha256 of the output .mat of `reduce --algo lll+greedy --track-transform`
# on `gen --q 8191 --ell 32 --seed 0` (n = 96).  LLL sums its floats in a
# fixed order in Python, never through BLAS, and the p = 2 polish scores
# exactly, so the output does not depend on the CPU or its BLAS.
N96_OUTPUT_SHA256 = (
    "20d98d8ca03d8707360031ece869facb4ce416f9aa97e7c4af86d6d1fab49321")


def test_tracked_lll_and_polish_at_n96_output_is_pinned(tmp_path):
    mat, out, report = (str(tmp_path / name)
                        for name in ("n96.mat", "n96-out.mat", "report.json"))
    assert cli_main(["gen", "--q", "8191", "--ell", "32", "--seed", "0",
                     "--out", mat]) == 0
    assert cli_main(["reduce", "--algo", "lll+greedy", "--track-transform",
                     "--in", mat, "--out", out, "--report", report]) == 0
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == N96_OUTPUT_SHA256
