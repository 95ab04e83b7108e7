"""Benchmark lattice construction.

Builds the q-ary block bases used by the benchmark harness and the random
column permutations applied per trial.  All randomness comes from an
explicit, documented 64-bit generator (SplitMix64: Steele, Lea & Flood,
OOPSLA 2014) so that runs reproduce bit-for-bit on any platform.

SplitMix64 has one form: draw gives the next count draws as one numpy
uint64 array, by add-and-mix steps in wrapping uint64 arithmetic and, for
a bound, rejection.  gen_example takes its R from one bounded draw,
random_permutation its shuffle from one raw draw and rand-comb its columns
from bounded draws of a fixed block size, which give the stream of one
draw: rejection keeps order and the generator stops after the last output
it reads; derive_seed chains one-value draws.  Bounds go up
to 2**64, so a q-ary example needs an odd q in [3, 2**64).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Basis, UsageError

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _ceiling(bound: int) -> int:
    """Largest output that draw(count, bound) keeps: it keeps the first
    2**64 - 2**64 % bound values, a whole number of bound-sized blocks."""
    if not 0 < bound <= _TWO64:
        raise ValueError(f"bound must be in [1, 2**64], got {bound}")
    return _MASK64 - _TWO64 % bound


class SplitMix64:
    """64-bit add-and-mix generator (splitmix64 constants).

    Tiny, fast, and identical on every platform, which is all the harness
    needs; not suitable for cryptography.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def draw(self, count: int, bound: int | None = None) -> np.ndarray:
        """The next count draws as a uint64 array: the raw outputs, or with
        a bound, uniform integers in [0, bound), 1 <= bound <= 2**64.

        A bounded draw rejects each output above _ceiling(bound), so that
        no residue is more likely than another, and tops up from the
        following outputs; the generator ends after the last output read.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        if bound is not None:
            ceiling = np.uint64(_ceiling(bound))
            kept = np.empty(0, dtype=np.uint64)
            while len(kept) < count:
                z = self.draw(count - len(kept))
                kept = np.concatenate((kept, z[z <= ceiling]))
            return kept if bound == _TWO64 else kept % np.uint64(bound)
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: for i = len - 1 down to 1, item i
        swaps with item draw(1, i + 1)."""
        n = len(items)
        start = self.state
        z = self.draw(max(n - 1, 0))
        if len(z) and int(z.max()) >= _TWO64 - n:
            # A bound of i + 1 rejects only outputs above 2**64 - n, so one
            # of these may be rejected (odds below n**2 / 2**64): replay the
            # draws one bound at a time.
            self.state = start
            picks = [self.draw(1, i + 1).item() for i in range(n - 1, 0, -1)]
        else:
            picks = (z % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def derive_seed(base: int, *tags: int) -> int:
    """Independent child seed from a base seed and integer tags.

    Deterministic, so a trial's generator state depends only on
    (base seed, tags) and never on execution order.
    """
    # The base's first output, then per tag the first output seeded by the
    # last value xor the tag (a leading tag 0 leaves the base as it is).
    value = base
    for tag in (0, *tags):
        value = SplitMix64(value ^ (tag & _MASK64)).draw(1).item()
    return value


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters of one q-ary example: odd modulus 3 <= q < 2**64, block
    size ell."""

    q: int
    ell: int
    seed: int

    def __post_init__(self):
        if not 3 <= self.q < _TWO64 or self.q % 2 == 0:
            raise UsageError(f"q must be odd, >= 3 and < 2**64, got {self.q}")
        if self.ell < 1:
            raise UsageError(f"ell must be positive, got {self.ell}")

    @property
    def n(self) -> int:
        return 3 * self.ell


def gen_example(spec: ExampleSpec) -> Basis:
    """The n x n block basis [[R, q*Id], [Id, 0]] with n = 3*ell.

    R is (2*ell) x ell with entries drawn independently and uniformly from
    -(q-1)/2 .. (q-1)/2, row by row, as one bounded array draw of the
    seeded generator.  The first ell columns are the random columns over
    an identity footer; the last 2*ell columns are q times the unit
    vectors.  Unimodular column operations can add any multiple of q to
    any entry of R, so the lattice effectively works modulo q.
    """
    q, ell = spec.q, spec.ell
    n = 3 * ell
    two_ell = 2 * ell
    half = (q - 1) // 2
    # Draws below q < 2**63 fit int64; past that R is built of Python ints.
    wide = q >= 1 << 63
    r = SplitMix64(spec.seed).draw(two_ell * ell, q)
    r = r.astype(object if wide else np.int64) - half
    # Row j of a is column j.
    a = np.zeros((n, n), dtype=r.dtype)
    a[:ell, :two_ell] = r.reshape(two_ell, ell).T
    a[range(ell), range(two_ell, n)] = 1
    a[range(ell, n), range(two_ell)] = q
    return Basis._trusted(a, None if wide else q)


def random_permutation(basis: Basis, seed: int) -> Basis:
    """New basis with the columns in a uniformly random order."""
    perm = list(range(basis.n))
    SplitMix64(seed).shuffle(perm)
    return Basis._trusted(basis.array[perm], basis.bound)
