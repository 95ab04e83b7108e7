import math
from collections import Counter
from itertools import islice, permutations

import numpy as np
import pytest

from latred.core import Basis, UsageError, bareiss
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
# The first output is 2**64 - 1, which a bounded draw rejects for every
# bound that is not a power of two.
TOP_SEED = seed_for_first_draw(MASK)
SEEDS = (0, 1, MASK, WRAP_SEED)


def next_u64(seed, count):
    """The first count outputs of the scalar splitmix64 step from seed,
    from the oracle."""
    return list(islice(_splitmix64_below(seed, 2**64), count))


def outputs_read(seed, count, bound):
    """How many outputs count draws below bound read: each output of at
    least 2**64 - 2**64 % bound is rejected and replaced by the next."""
    limit = 2**64 - 2**64 % bound
    read = kept = 0
    for z in _splitmix64_below(seed, 2**64):
        if kept == count:
            return read
        read += 1
        kept += z < limit


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        first = SplitMix64(0).draw(3)
        assert first.tolist() == SplitMix64(0).draw(3).tolist()
        assert all(0 <= v < 2**64 for v in first.tolist())

    def test_below_range_and_determinism(self):
        vals = SplitMix64(5).draw(1000, 7).tolist()
        assert all(0 <= v < 7 for v in vals)
        assert vals == SplitMix64(5).draw(1000, 7).tolist()

    def test_stream_is_the_published_splitmix64(self):
        assert SplitMix64(0).draw(3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_below_rejects_nonpositive(self):
        for bound in (0, -1):
            with pytest.raises(ValueError, match="bound"):
                SplitMix64(1).draw(3, bound)

    @pytest.mark.parametrize("bound", [2**64 + 1, 2**65 + 1])
    def test_bound_above_2_64_raises_instead_of_hanging(self, bound):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            SplitMix64(1).draw(3, bound)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="count"):
            SplitMix64(1).draw(-1)

    def test_below_2_64_is_the_raw_draw(self):
        rng, raw = SplitMix64(3), SplitMix64(3)
        assert rng.draw(50, 2**64).tolist() == raw.draw(50).tolist()
        assert rng.state == raw.state

    def test_seed_helpers(self):
        assert next_u64(TOP_SEED, 1) == [MASK]
        assert SplitMix64(TOP_SEED).draw(1).tolist() == [MASK]
        rng = SplitMix64(WRAP_SEED)
        rng.draw(5)
        assert rng.state == 0

    @pytest.mark.parametrize("seed", SEEDS + (TOP_SEED,))
    @pytest.mark.parametrize("count", [0, 1, 5, 100])
    def test_draw_equals_next_u64(self, seed, count):
        rng = SplitMix64(seed)
        z = rng.draw(count)
        assert z.dtype == np.uint64
        assert z.tolist() == next_u64(seed, count)
        assert rng.state == (seed + count * GAMMA) & MASK

    @pytest.mark.parametrize("seed", SEEDS + (TOP_SEED,))
    @pytest.mark.parametrize("bound", [
        1, 2, 3, 7, Q13, 2**32 + 1, 2**63 + 1, 3 * 2**62 + 1, 2**64 - 1, 2**64])
    def test_bounded_draw_equals_below(self, seed, bound):
        # The scalar reference below(bound) is the oracle's rejection
        # stream.  2**63 + 1 rejects about half of all outputs and
        # 3 * 2**62 + 1 about a quarter, so the top-up runs.
        rng, one_by_one = SplitMix64(seed), SplitMix64(seed)
        z = rng.draw(300, bound)
        assert z.dtype == np.uint64
        assert z.tolist() == list(islice(_splitmix64_below(seed, bound), 300))
        assert rng.state == (
            seed + outputs_read(seed, 300, bound) * GAMMA) & MASK
        assert z.tolist() == [
            one_by_one.draw(1, bound).item() for _ in range(300)]
        assert rng.state == one_by_one.state

    @pytest.mark.parametrize("count,bound,split", [
        (10, 3, 4), (64, 7, 0), (64, 7, 64), (300, 2**63 + 1, 1),
        (300, 2**63 + 1, 151), (300, 3 * 2**62 + 1, 299), (257, 2**64, 100)])
    def test_split_bounded_draws_equal_one_draw(self, count, bound, split):
        # Rejection keeps order and the generator stops after the last
        # output it reads, so rand-comb may draw its columns in blocks.
        for seed in (TOP_SEED, 9):
            one, two = SplitMix64(seed), SplitMix64(seed)
            whole = one.draw(count, bound).tolist()
            first = two.draw(split, bound).tolist()
            assert first + two.draw(count - split, bound).tolist() == whole
            assert two.state == one.state

    def test_bounded_draw_drops_a_rejected_first_draw(self):
        # TOP_SEED's first output, 2**64 - 1, is rejected below 3.
        rng = SplitMix64(TOP_SEED)
        rng.draw(1)
        assert SplitMix64(TOP_SEED).draw(4, 3).tolist() == (
            rng.draw(4, 3).tolist())
        assert outputs_read(TOP_SEED, 4, 3) == 5

    def test_derive_seed_varies_with_tags(self):
        seeds = {derive_seed(1, a, b) for a in range(4) for b in range(4)}
        assert len(seeds) == 16

    @pytest.mark.parametrize("base, tags", [
        (0, ()), (1, (2, 0)), (-1, (3,)), (MASK, (-5, 2**70 + 1, 7)),
        (WRAP_SEED, (16, 1))])
    def test_derive_seed_chains_first_outputs(self, base, tags):
        value = next_u64(base & MASK, 1)[0]
        for tag in tags:
            value = next_u64(value ^ (tag & MASK), 1)[0]
        assert derive_seed(base, *tags) == value


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
            assert abs(bareiss(basis.to_rows())[1]) == Q13 ** (2 * ell)

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

    @pytest.mark.parametrize("ell", [0, -1])
    def test_rejects_ell_below_1(self, ell):
        with pytest.raises(UsageError, match="ell must be positive"):
            ExampleSpec(Q13, ell, 0)

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
        # TOP_SEED's first output is rejected below 5, so the shuffle
        # replays its draws one bound at a time and reads five outputs for
        # its four draws.
        rng, scalar = SplitMix64(TOP_SEED), SplitMix64(TOP_SEED)
        rng.shuffle(list(range(5)))
        for i in range(4, 0, -1):
            scalar.draw(1, i + 1)
        assert rng.state == scalar.state
        assert rng.state == (TOP_SEED + 5 * GAMMA) & MASK

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
