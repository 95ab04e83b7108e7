import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from latred.core import Basis, UsageError, det_small
from latred.genlat import (
    ExampleSpec,
    SplitMix64,
    derive_seed,
    gen_example,
    random_permutation,
)
from oracles import _splitmix64_below, gen_example_reference

Q13 = 2**13 - 1
MASK = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def seed_for_first_draw(value):
    """The seed whose first splitmix64 output is value: the mix inverted."""
    def unshift(z, k):
        x = z
        for _ in range(64 // k):
            x = z ^ (x >> k)
        return x
    z = unshift(value, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & MASK, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK, 30)
    return (z - GAMMA) & MASK


# The state passes through 0 at the fifth draw.
WRAP_SEED = -5 * GAMMA & MASK
# The first draw is 2**64 - 1, which below rejects for every bound that is
# not a power of two.
TOP_SEED = seed_for_first_draw(MASK)
SEEDS = (0, 1, MASK, WRAP_SEED)


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(0)
        assert first == [rng2.next_u64() for _ in range(3)]
        assert all(0 <= v < 2**64 for v in first)

    def test_below_range_and_determinism(self):
        rng = SplitMix64(5)
        vals = [rng.below(7) for _ in range(1000)]
        assert all(0 <= v < 7 for v in vals)
        replay = SplitMix64(5)
        assert vals == [replay.below(7) for _ in range(1000)]

    def test_stream_is_the_published_splitmix64(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    @pytest.mark.parametrize("bound", [2**64 + 1, 2**65 + 1])
    def test_bound_above_2_64_raises_instead_of_hanging(self, bound):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            SplitMix64(1).below(bound)
        with pytest.raises(ValueError, match="2\\*\\*64"):
            SplitMix64(1).draw(3, bound)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            SplitMix64(1).draw(-1)

    def test_below_2_64_is_the_raw_draw(self):
        assert SplitMix64(3).below(2**64) == SplitMix64(3).next_u64()

    def test_seed_helpers(self):
        assert SplitMix64(TOP_SEED).next_u64() == MASK
        rng = SplitMix64(WRAP_SEED)
        for _ in range(5):
            rng.next_u64()
        assert rng.state == 0

    @pytest.mark.parametrize("seed", SEEDS + (TOP_SEED,))
    @pytest.mark.parametrize("count", [0, 1, 5, 100])
    def test_draw_equals_next_u64(self, seed, count):
        rng, scalar = SplitMix64(seed), SplitMix64(seed)
        z = rng.draw(count)
        assert z.dtype == np.uint64
        assert z.tolist() == [scalar.next_u64() for _ in range(count)]
        assert rng.state == scalar.state

    @pytest.mark.parametrize("seed", SEEDS + (TOP_SEED,))
    @pytest.mark.parametrize("bound", [
        1, 2, 3, 7, Q13, 2**32 + 1, 2**63 + 1, 3 * 2**62 + 1, 2**64 - 1, 2**64])
    def test_bounded_draw_equals_below(self, seed, bound):
        # 2**63 + 1 rejects about half of all draws and 3 * 2**62 + 1 about
        # a quarter, so the top-up runs.
        rng, scalar = SplitMix64(seed), SplitMix64(seed)
        z = rng.draw(300, bound)
        assert z.dtype == np.uint64
        assert z.tolist() == [scalar.below(bound) for _ in range(300)]
        assert rng.state == scalar.state
        assert z.tolist() == [v for v, _ in zip(
            _splitmix64_below(seed, bound), range(300))]

    def test_bounded_draw_drops_a_rejected_first_draw(self):
        rng = SplitMix64(TOP_SEED)
        rng.next_u64()
        assert SplitMix64(TOP_SEED).draw(4, 3).tolist() == [
            rng.below(3) for _ in range(4)]

    def test_derive_seed_varies_with_tags(self):
        seeds = {derive_seed(1, a, b) for a in range(4) for b in range(4)}
        assert len(seeds) == 16


class TestGenExample:
    def test_block_structure_ell2(self):
        basis = gen_example(ExampleSpec(Q13, 2, 1))
        a = basis.to_rows()
        assert basis.n == 6 and basis.m == 6
        for r in range(4):
            for c in range(2, 6):
                assert a[r][c] == (Q13 if r == c - 2 else 0)
        for r in range(4, 6):
            for c in range(2, 6):
                assert a[r][c] == 0
        assert a[4][0] == 1 and a[5][1] == 1
        assert a[4][1] == 0 and a[5][0] == 0
        for r in range(4):
            for c in range(2):
                assert abs(a[r][c]) <= (Q13 - 1) // 2

    def test_smallest_case(self):
        basis = gen_example(ExampleSpec(Q13, 1, 3))
        assert basis.n == 3 and basis.m == 3
        rows = basis.to_rows()
        assert rows[0][1] == Q13 and rows[1][2] == Q13
        assert rows[2][0] == 1

    def test_deterministic(self):
        spec = ExampleSpec(Q13, 2, 77)
        assert gen_example(spec) == gen_example(spec)

    def test_determinant_is_q_power(self):
        for ell in (1, 2):
            basis = gen_example(ExampleSpec(Q13, ell, 5))
            assert abs(det_small(basis.to_rows())) == Q13 ** (2 * ell)

    def test_entry_alphabet(self):
        half = (Q13 - 1) // 2
        basis = gen_example(ExampleSpec(Q13, 3, 11))
        allowed_outside = {0, 1, Q13}
        for c, col in enumerate(basis.cols):
            for r, x in enumerate(col):
                if c < 3 and r < 6:
                    assert -half <= x <= half
                else:
                    assert x in allowed_outside

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            ExampleSpec(8190, 2, 1)
        with pytest.raises(ValueError):
            ExampleSpec(1, 2, 1)

    @pytest.mark.parametrize("q", [2**64 + 1, 2**65 + 1])
    def test_rejects_q_from_2_64(self, q):
        with pytest.raises(UsageError, match="2\\*\\*64"):
            ExampleSpec(q, 1, 0)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("ell", [1, 2, 5, 16])
    @pytest.mark.parametrize("q", [3, Q13, 2**63 + 1, 2**64 - 1])
    def test_matches_the_scalar_reference(self, q, ell, seed):
        basis = gen_example(ExampleSpec(q, ell, seed))
        assert basis.m == 3 * ell
        assert basis.cols == gen_example_reference(q, ell, seed)
        assert all(type(x) is int for col in basis.cols for x in col)


def fisher_yates(n, seed):
    """The shuffle written out: position i takes a draw below i + 1."""
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1),
                    _splitmix64_below(seed, range(n, 1, -1))):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


class TestRandomPermutation:
    @pytest.mark.parametrize("seed", SEEDS + (TOP_SEED,))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 24, 48])
    def test_matches_a_scalar_fisher_yates(self, n, seed):
        # At TOP_SEED the first draw is rejected unless n is a power of two.
        basis = Basis([[j, j + 1] for j in range(n)])
        perm = fisher_yates(n, seed)
        assert random_permutation(basis, seed).cols == [
            basis.cols[p] for p in perm]

    def test_shuffle_of_no_or_one_item_draws_nothing(self):
        for items in ([], [7]):
            rng = SplitMix64(4)
            rng.shuffle(items)
            assert rng.state == 4

    def test_shuffle_leaves_the_scalar_state(self):
        rng, scalar = SplitMix64(TOP_SEED), SplitMix64(TOP_SEED)
        rng.shuffle(list(range(5)))
        for i in range(4, 0, -1):
            scalar.below(i + 1)
        assert rng.state == scalar.state

    def test_single_column_unchanged(self):
        basis = Basis([[3, 4]])
        assert random_permutation(basis, 1) == basis

    def test_deterministic(self):
        basis = gen_example(ExampleSpec(Q13, 2, 4))
        assert random_permutation(basis, 9) == random_permutation(basis, 9)

    def test_column_multiset_preserved(self):
        basis = gen_example(ExampleSpec(Q13, 2, 4))
        permuted = random_permutation(basis, 10)
        key = lambda b: sorted(tuple(c) for c in b.cols)
        assert key(permuted) == key(basis)

    def test_permutations_near_uniform(self):
        # 10^4 draws over S_4: every permutation within 5 sigma of uniform.
        basis = Basis.identity(4)
        draws = 10**4
        counts = Counter()
        for seed in range(draws):
            permuted = random_permutation(basis, derive_seed(123, seed))
            counts[tuple(tuple(c) for c in permuted.cols)] += 1
        assert len(counts) == 24
        expected = draws / 24
        sigma = math.sqrt(draws * (1 / 24) * (23 / 24))
        for count in counts.values():
            assert abs(count - expected) <= 5 * sigma

    def test_every_permutation_reachable(self):
        basis = Basis.identity(3)
        seen = set()
        for seed in range(200):
            permuted = random_permutation(basis, seed)
            seen.add(tuple(tuple(c) for c in permuted.cols))
        assert len(seen) == len(list(permutations(range(3))))
