"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
then asserts, so a red run still shows the full scoreboard.  Tolerances
are fixed here, not configurable.
"""

import csv
import math
import random

import pytest

from latred.altreduce import AltConfig, mgs_pivot_reduce, random_combination_reduce, random_combination_step
from latred.cli import main as cli_main
from latred.core import (
    Basis,
    IntRows,
    apply_transform,
    bareiss,
    gram_compute,
    is_unimodular,
    nint_ratio,
    summarize_columns,
)
from latred.genlat import ExampleSpec, derive_seed, gen_example, random_permutation
from latred.greedy import (
    GreedyState,
    ReduceConfig,
    apply_pivot,
    coefficients_for_pivot,
    reduce as greedy_reduce,
)
from latred.lll import GSState, LLLConfig, lll_reduce, lovasz_ok, orthogonalize

from oracles import shortest_vector_sq

Q13 = 2**13 - 1
DELTA = 1.0 - 1e-15
N24_SEEDS = list(range(10))


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def gram_schmidt(basis):
    """r and mu of every column of basis, derived from its exact Gram."""
    state = GSState(gram_compute(basis))
    for k in range(basis.n):
        orthogonalize(state, k)
    return state


def random_basis(rng, max_dim, max_entry):
    m = rng.randint(1, max_dim)
    n = rng.randint(2, max_dim)
    return Basis([[rng.randint(-max_entry, max_entry) for _ in range(m)]
                  for _ in range(n)])


def invertible_basis(rng, n, max_entry=30):
    while True:
        cols = [[rng.randint(-max_entry, max_entry) for _ in range(n)]
                for _ in range(n)]
        if bareiss(cols)[0] == len(cols):
            return Basis(cols)


def frob_fraction(before, after):
    return math.sqrt(after.frobenius_sq / before.frobenius_sq)


@pytest.fixture(scope="module")
def n24_trials():
    """Ten permuted n=24 examples with every reducer's outcome, shared by
    the statistical criteria."""
    example = gen_example(ExampleSpec(Q13, 8, derive_seed(2024, 8, 0)))
    trials = []
    for t in N24_SEEDS:
        permuted = random_permutation(example, derive_seed(2024, 8, t + 1))
        lll_res = lll_reduce(permuted, LLLConfig(delta=DELTA))
        polish = greedy_reduce(lll_res.basis, ReduceConfig(p_schedule=(2.0,)))
        alone = greedy_reduce(permuted, ReduceConfig(p_schedule=(2.0,)))
        randcomb = random_combination_reduce(
            permuted, AltConfig(iterations=10 * permuted.n, seed=t)
        )
        mgs = mgs_pivot_reduce(permuted, 2.0)
        trials.append({
            "input": summarize_columns(permuted),
            "lll": lll_res,
            "polish": polish,
            "alone": alone,
            "randcomb": randcomb,
            "mgs": mgs,
        })
    return trials


def test_criterion_1_monotone_column_norms():
    rng = random.Random(1001)
    bases = 0
    checks = 0
    violations = 0
    while bases < 1000:
        basis = random_basis(rng, max_dim=16, max_entry=10**6)
        prev = gram_compute(basis).diagonal()

        def watch(state):
            nonlocal prev, checks, violations
            diag = state.gram.diagonal()
            checks += 1
            violations += sum(new > old for new, old in zip(diag, prev))
            prev = diag

        greedy_reduce(basis, on_iteration=watch)
        bases += 1
    report(1, "per-column squared norms never increase", violations == 0,
           f"{bases} bases, {checks} iterations, {violations} violations")


def test_criterion_2_rounding_descent_inequality():
    rng = random.Random(1002)
    violations = 0
    total = 0
    for _ in range(90000):
        num = rng.randint(-10**9, 10**9)
        den = rng.randint(1, 10**9)
        r = nint_ratio(num, den)
        total += 1
        if r * r * den * den - 2 * r * num * den > 0:
            violations += 1
    # Exact halves: num/den == k + 1/2 for both signs of k.
    for _ in range(10000):
        t = rng.randint(1, 10**6)
        k = rng.randint(-10**6, 10**6)
        num, den = (2 * k + 1) * t, 2 * t
        r = nint_ratio(num, den)
        total += 1
        if r * r * den * den - 2 * r * num * den > 0:
            violations += 1
    report(2, "rounded-ratio descent inequality", violations == 0,
           f"{total} rationals, {violations} violations")


def test_criterion_3_gram_matches_recompute():
    rng = random.Random(1003)
    mismatches = 0
    iterations = 0
    for _ in range(100):
        basis = random_basis(rng, max_dim=8, max_entry=1000)

        def watch(state):
            nonlocal mismatches, iterations
            iterations += 1
            if state.gram != gram_compute(Basis(state.rows.tolist())):
                mismatches += 1

        greedy_reduce(basis, on_iteration=watch)
    report(3, "maintained Gram equals recomputation", mismatches == 0,
           f"100 bases, {iterations} iterations, {mismatches} mismatches")


def test_criterion_4_every_reducer_preserves_lattice():
    rng = random.Random(1004)
    failures = []
    cases = 0
    for n in range(2, 9):
        for _ in range(3):
            basis = invertible_basis(rng, n)
            runs = {
                "greedy": greedy_reduce(basis, track_transform=True),
                "lll": lll_reduce(basis, track_transform=True),
                "rand-comb": random_combination_reduce(
                    basis, AltConfig(iterations=5 * n, seed=cases),
                    track_transform=True),
                "mgs": mgs_pivot_reduce(basis, track_transform=True),
            }
            for name, res in runs.items():
                cases += 1
                product_ok = apply_transform(basis, res.transform) == res.basis
                unimodular = is_unimodular(res.transform)
                if not (product_ok and unimodular):
                    failures.append((name, n))
    report(4, "A0*U equals output with |det U| = 1", not failures,
           f"{cases} reducer runs, failures: {failures or 'none'}")


def test_criterion_5_lll_postconditions_on_examples():
    worst_mu = 0.0
    failures = 0
    checked = 0
    for delta in (1.0 - 1e-15, 1.0 - 1e-1):
        for ell in (2, 4, 8):
            example = gen_example(ExampleSpec(Q13, ell, derive_seed(55, ell)))
            permuted = random_permutation(example, derive_seed(55, ell, 1))
            res = lll_reduce(permuted, LLLConfig(delta=delta))
            state = gram_schmidt(res.basis)
            n = res.basis.n
            for k in range(n):
                for j in range(k):
                    checked += 1
                    worst_mu = max(worst_mu, abs(state.mu[k][j]))
                    if abs(state.mu[k][j]) > 0.5 + 1e-9:
                        failures += 1
            for k in range(1, n):
                checked += 1
                if not lovasz_ok(state, k, delta - 1e-9):
                    failures += 1
    report(5, "LLL size-reduction and swap conditions", failures == 0,
           f"{checked} checks up to n=24, worst |mu| = {worst_mu:.6f}")


def test_criterion_6_shortest_vector_oracle():
    rng = random.Random(1006)
    factor = 2.0 / math.sqrt(4.0 * DELTA - 1.0)
    failures = 0
    for case in range(100):
        n = 2 if case % 2 == 0 else 3
        basis = invertible_basis(rng, n, max_entry=8)
        lll_res = lll_reduce(basis, LLLConfig(delta=DELTA))
        polished = greedy_reduce(lll_res.basis)
        achieved = math.sqrt(polished.after.min_norm_sq)
        bound = 15 if n == 2 else 10
        best = math.sqrt(shortest_vector_sq(basis.cols, bound))
        if achieved > factor ** (n - 1) * best + 1e-9:
            failures += 1
    report(6, "reduced min norm within LLL factor of enumerated optimum",
           failures == 0, f"100 bases (n=2,3), factor {factor:.4f}, "
           f"{failures} failures")


def test_criterion_7_polish_after_lll(n24_trials):
    worse = 0
    strict = 0
    for trial in n24_trials:
        lll_frob = trial["lll"].after.frobenius_sq
        ours_frob = trial["polish"].after.frobenius_sq
        if ours_frob > lll_frob:
            worse += 1
        if ours_frob < lll_frob:
            strict += 1
    report(7, "polish never worse than LLL, strictly better somewhere",
           worse == 0 and strict >= 1,
           f"10 trials at n=24, {strict} strict improvements, {worse} regressions")


def test_criterion_8_lll_reduces_far_more_alone(n24_trials):
    greedy_fracs = [frob_fraction(t["input"], t["alone"].after) for t in n24_trials]
    lll_fracs = [frob_fraction(t["input"], t["lll"].after) for t in n24_trials]
    greedy_mean = sum(greedy_fracs) / len(greedy_fracs)
    lll_mean = sum(lll_fracs) / len(lll_fracs)
    report(8, "greedy-alone leaves a larger Frobenius fraction than LLL",
           greedy_mean > lll_mean,
           f"means at n=24: greedy {greedy_mean:.4f} vs LLL {lll_mean:.4f}")


def test_criterion_9_alternatives_no_better_than_lll(n24_trials):
    lll_mean = sum(frob_fraction(t["input"], t["lll"].after)
                   for t in n24_trials) / len(n24_trials)
    rc_mean = sum(frob_fraction(t["input"], t["randcomb"].after)
                  for t in n24_trials) / len(n24_trials)
    mgs_mean = sum(frob_fraction(t["input"], t["mgs"].after)
                   for t in n24_trials) / len(n24_trials)
    directions_ok = rc_mean >= lll_mean and mgs_mean >= lll_mean

    rng = random.Random(1009)
    mismatches = 0
    cases = 0
    while cases < 100:
        basis = Basis([[rng.randint(-50, 50) for _ in range(2)]
                       for _ in range(2)])
        gram = gram_compute(basis)
        if gram.g[0][0] == 0:
            continue
        cases += 1
        via_step = IntRows(basis.cols)
        random_combination_step(via_step, 1)
        via_greedy = IntRows(basis.cols)
        state = GreedyState(via_greedy, gram_compute(basis))
        apply_pivot(state, 0, coefficients_for_pivot(state.gram, 0))
        if via_step.tolist()[1] != via_greedy.tolist()[1]:
            mismatches += 1

    report(9, "alternative reducers no better than LLL; n=2 coincidence",
           directions_ok and mismatches == 0,
           f"fractions rand-comb {rc_mean:.4f}, mgs {mgs_mean:.4f}, "
           f"LLL {lll_mean:.4f}; n=2 mismatches {mismatches}/100")


def test_criterion_10_iteration_scaling_report(n24_trials):
    counts = {}
    for ell, trials in ((4, 3), (16, 1)):
        example = gen_example(ExampleSpec(Q13, ell, derive_seed(77, ell)))
        iters = []
        for t in range(trials):
            permuted = random_permutation(example, derive_seed(77, ell, t + 1))
            lll_res = lll_reduce(permuted, LLLConfig(delta=DELTA))
            iters.append(greedy_reduce(lll_res.basis).iterations_applied)
        counts[3 * ell] = sum(iters) / len(iters)
    counts[24] = sum(t["polish"].iterations_applied
                     for t in n24_trials) / len(n24_trials)
    ratio_12_24 = counts[24] / counts[12] if counts[12] else float("inf")
    ratio_24_48 = counts[48] / counts[24] if counts[24] else float("inf")
    recorded = all(n in counts for n in (12, 24, 48))
    report(10, "polish iteration counts recorded across n (informational)",
           recorded,
           f"mean iters n=12: {counts[12]:.1f}, n=24: {counts[24]:.1f}, "
           f"n=48: {counts[48]:.1f}; doubling ratios "
           f"{ratio_12_24:.2f}, {ratio_24_48:.2f}")


def test_criterion_11_bench_determinism(tmp_path):
    args = ["bench", "--q", str(Q13), "--ell-list", "1,2", "--trials", "2",
            "--mode", "once", "--seed", "31"]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert cli_main(args + ["--csv", str(path_a)]) == 0
    assert cli_main(args + ["--csv", str(path_b)]) == 0
    with open(path_a, newline="") as fh:
        rows_a = list(csv.reader(fh))
    with open(path_b, newline="") as fh:
        rows_b = list(csv.reader(fh))
    timing_cols = {12, 13}
    same = len(rows_a) == len(rows_b) and all(
        [c for i, c in enumerate(ra) if i not in timing_cols]
        == [c for i, c in enumerate(rb) if i not in timing_cols]
        for ra, rb in zip(rows_a, rows_b)
    )
    report(11, "bench reruns reproduce all non-timing CSV columns", same,
           f"{len(rows_a)} rows compared")
