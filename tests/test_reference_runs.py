"""Reducers against tests/oracles.py's plain loops on inputs larger than
any tier-1 test uses.

Each run takes seconds, so tier-1 skips this module; CI runs the whole
module in one step, with LATRED_REFERENCE_RUNS=1:

    LATRED_REFERENCE_RUNS=1 PYTHONPATH=src python -m pytest -q \\
        tests/test_reference_runs.py
"""

import os

import pytest

import latred.lll as lll
from latred.altreduce import (
    AltConfig,
    mgs_pivot_reduce,
    random_combination_reduce,
)
from latred.genlat import ExampleSpec, gen_example, random_permutation

from oracles import lll_float_reference, mgs_per_pair, rand_comb_per_move

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
    # Swaps, basis, transform and the bytes of the final Gram-Schmidt
    # arrays, tracked; tier-1 compares them at n <= 24.
    states = []
    real = lll.orthogonalize
    monkeypatch.setattr(lll, "orthogonalize",
                        lambda basis: states.append(real(basis)) or states[-1])
    basis = permuted_example(16, seed, 100 + seed)
    res = lll.lll_reduce(basis, track_transform=True)
    swaps, cols, u, arrays = lll_float_reference(basis.cols,
                                                 lll.LLLConfig().delta, True)
    state = states.pop()
    got = [a.tobytes() for a in (state.bstar, state.mu, state.norms_sq,
                                 state.fcols)]
    assert ((res.iterations_applied, res.basis.cols, res.transform.cols, got)
            == (swaps, cols, u, [a.tobytes() for a in arrays]))
