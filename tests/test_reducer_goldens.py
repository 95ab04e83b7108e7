"""Exact outputs of the greedy polish, mgs and rand-comb on fixed inputs.

Each GOLDEN entry is (iterations, frob_sq, min_sq, sha256 of the output
basis and transform columns) of one tracked reducer on one input.  The
hash moves when any output entry moves, so a change to a column kernel,
the Gram update or a coefficient rule that alters a single integer shows
here.  The "wide" input has entries past int64, so its basis columns run
on Python ints from the first operation.  The "dependent" input has a
doubled and a zero column, so mgs skips candidates; rand-comb leaves the
zero column out of its normal equations, and the doubled one still makes
some of them singular.
"""

import hashlib
import logging
import math
import random
import warnings

import numpy as np
import pytest

from latred.altreduce import AltConfig, mgs_pivot_reduce, random_combination_reduce
from latred.core import Basis, apply_transform
from latred.genlat import ExampleSpec, gen_example, random_permutation
from latred.greedy import ReduceConfig, reduce as greedy_reduce


def scrambled(n, seed):
    """Entries in [-3, 3], then 2n random +-1 column additions."""
    rng = random.Random(seed)
    cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for _ in range(2 * n):
        j, k = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        cols[j] = [a + s * b for a, b in zip(cols[j], cols[k])]
    return Basis(cols)


def wide(seed):
    """n = 6 small columns; columns 0 and 3 get 2**63 + r added to entry 0."""
    rng = random.Random(seed)
    cols = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
    for j in (0, 3):
        cols[j][0] += (1 << 63) + rng.randint(-50, 50)
    return Basis(cols)


def dependent(seed):
    """scrambled n = 10, then column 1 = 2 * column 0 and column 4 zero."""
    cols = scrambled(10, seed).cols
    cols[1] = [2 * x for x in cols[0]]
    cols[4] = [0] * 10
    return Basis(cols)


INPUTS = {
    "scrambled-40": lambda: scrambled(40, 11),
    "qary-48": lambda: random_permutation(gen_example(ExampleSpec(8191, 16, 3)),
                                          7),
    "wide-6": lambda: wide(0),
    "dependent-10": lambda: dependent(3),
}

# Each reducer as a function of the input and of track_transform.
REDUCERS = {
    "greedy-2,1": lambda b, track=True: greedy_reduce(
        b, ReduceConfig(p_schedule=(2.0, 1.0)), track_transform=track),
    "greedy-max": lambda b, track=True: greedy_reduce(
        b, ReduceConfig(p_schedule=(math.inf,)), track_transform=track),
    "mgs-2": lambda b, track=True: mgs_pivot_reduce(
        b, 2.0, track_transform=track),
    "mgs-1": lambda b, track=True: mgs_pivot_reduce(
        b, 1.0, track_transform=track),
    "rand-comb": lambda b, track=True: random_combination_reduce(
        b, AltConfig(seed=9), track_transform=track),
}

GOLDEN = {
    ("greedy-2,1", "scrambled-40"): (
        49, 9396, 111,
        "80a198709f25e2fb4bab746cf66b966f92a533a16cee6bc5d4cc3d4c1f63298c"),
    ("greedy-2,1", "qary-48"): (
        9, 4784980432, 67092481,
        "6248d3158cd6b14dbd305714cd8833161661a1895f5132a5feac686cb9cc44c0"),
    ("greedy-2,1", "wide-6"): (
        118, 921963183584351413309910518742546707, 11,
        "6790edafb91096a52d152f9a01fa689b9e0eddff299693c5af278ef573b87e80"),
    ("greedy-max", "scrambled-40"): (
        22, 16778, 141,
        "0c7668cc8b457870e51a57241e37f8c68975c83e64e32b6e997424a18bc18f3a"),
    ("greedy-max", "qary-48"): (
        1, 4916216421, 67092481,
        "a607453c1863a06304280fc4598be7ba243ce7923aef1f2d6043c4fbd056820c"),
    ("greedy-max", "wide-6"): (
        175, 921963183584351413309910518742546711, 11,
        "b856b2b1c663e1ee435a190c07e79ebe449d0117718ad852c175d3d1d029c814"),
    ("mgs-2", "scrambled-40"): (
        40, 20131, 141,
        "3168aca9591ef13fdaafb3842f6468da91ff77f3fe2ab7c4c81d338ffa32f501"),
    ("mgs-2", "qary-48"): (
        48, 6235781507, 67092481,
        "f824989d78f74d56863070193ea2c5f6950af3547f247ee6cd65a3bdc3cfe332"),
    ("mgs-2", "wide-6"): (
        6, 85070591730234615773609931489394295290, 11,
        "fb61d3459e3970a8ba7268a6d905ffbede7a0874eff2d2f457da9ad1db23586c"),
    ("mgs-2", "dependent-10"): (
        8, 657, 32,
        "ded62f9a31e4d7f717828d143a25d8f8a53b7ddb9841702579909d4c0b3f3d2c"),
    ("mgs-1", "scrambled-40"): (
        40, 19018, 135,
        "b9e29af05c07830fd66ce11287ae5d5d1bc5bea8525c607affa37cf9b5a25267"),
    ("mgs-1", "qary-48"): (
        48, 6060993758, 67092481,
        "9ae173399fdbd03dc38a16b6d7ca11f35fe5a273129dda4fb9e8483787ab0e9b"),
    ("mgs-1", "dependent-10"): (
        8, 663, 32,
        "4fe878ceb2000f01c3f7d01f9b17d52c2a79cfa1e79468533c84c59d19dce09c"),
    ("rand-comb", "scrambled-40"): (
        115, 244044, 120,
        "0889ccdbb5336cc735d62d3c1eca95536f8b4573755276035b77fac260f77e15"),
    ("rand-comb", "qary-48"): (
        285, 1752305472890, 808831130,
        "1df63933b906d45d7105d392466de14d0b5553f12ab428acfd6215abf07ac7bd"),
    ("rand-comb", "wide-6"): (
        14, 921963183584351413309910518742546725, 11,
        "bad0b4ae34b7a6b2d3b09cc3c9a30bf91ce3682c08a2e3a122de1da6d6526c33"),
    ("rand-comb", "dependent-10"): (
        26, 285, 31,
        "a008148f7d3d776244e27b863e80600c9ada7c6d6e0d87e17480b2d063d42819"),
}


def outcome(reducer, name):
    basis = INPUTS[name]()
    res = REDUCERS[reducer](basis)
    assert apply_transform(basis, res.transform) == res.basis
    columns = repr((res.basis.cols, res.transform.cols)).encode()
    return (res.iterations_applied, res.after.frobenius_sq,
            res.after.min_norm_sq, hashlib.sha256(columns).hexdigest())


@pytest.mark.parametrize("reducer,name", sorted(GOLDEN))
def test_golden_exact_outputs(reducer, name):
    assert outcome(reducer, name) == GOLDEN[reducer, name]


@pytest.mark.parametrize("reducer", ["mgs-1", "mgs-2"])
def test_dependent_candidates_emit_no_warning(reducer):
    # A zero column and a doubled one give mgs zero residual rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(reducer, "dependent-10")
    assert got == GOLDEN[reducer, "dependent-10"]


@pytest.mark.parametrize("reducer,name", sorted(GOLDEN))
def test_tracking_never_changes_the_basis_path(reducer, name):
    basis = INPUTS[name]()
    tracked = REDUCERS[reducer](basis, True)
    untracked = REDUCERS[reducer](basis, False)
    assert untracked.transform is None
    assert untracked.basis == tracked.basis
    assert untracked.iterations_applied == tracked.iterations_applied


@pytest.mark.parametrize("name", ["wide-6", "dependent-10"])
def test_rand_comb_solves_every_step_of_the_golden_runs(monkeypatch, name):
    # dependent-10 has a zero column, so rand-comb builds no inverse Gram
    # matrix; wide-6's two columns near 2**63 e_0 make its float Gram
    # matrix numerically singular.  Every step solves, and the outputs
    # are the goldens.
    calls = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append(len(a)) or real(a, b))
    assert outcome("rand-comb", name) == GOLDEN["rand-comb", name]
    assert len(calls) == 10 * INPUTS[name]().n


def test_rand_comb_leaves_a_zero_column_out(caplog):
    # One zero column sat in every other column's normal equations and
    # made each of them singular, so no step was ever applied.
    cols = INPUTS["scrambled-40"]().cols
    cols[5] = [0] * 40
    basis = Basis(cols)
    with caplog.at_level(logging.WARNING, logger="latred.altreduce"):
        res = REDUCERS["rand-comb"](basis)
    assert res.iterations_applied >= 1
    assert not [r for r in caplog.records if "singular" in r.getMessage()]
    assert res.basis.cols[5] == [0] * 40
    assert apply_transform(basis, res.transform) == res.basis
