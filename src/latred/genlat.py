"""Benchmark lattice construction.

Builds the q-ary block bases used by the benchmark harness and the random
column permutations applied per trial.  All randomness comes from an
explicit, documented 64-bit generator so that runs reproduce bit-for-bit
on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Basis, UsageError

_MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64


class SplitMix64:
    """64-bit add-and-mix generator (splitmix64 constants).

    Tiny, fast, and identical on every platform, which is all the harness
    needs; not suitable for cryptography.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection: no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _TWO64 - (_TWO64 % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(base: int, *tags: int) -> int:
    """Independent child seed from a base seed and integer tags.

    Deterministic, so a trial's generator state depends only on
    (base seed, tags) and never on execution order.
    """
    value = SplitMix64(base).next_u64()
    for tag in tags:
        value = SplitMix64(value ^ (tag & _MASK64)).next_u64()
    return value


@dataclass(frozen=True)
class ExampleSpec:
    """Parameters of one q-ary example: odd modulus q >= 3, block size ell."""

    q: int
    ell: int
    seed: int

    def __post_init__(self):
        if self.q < 3 or self.q % 2 == 0:
            raise UsageError(f"q must be odd and >= 3, got {self.q}")
        if self.ell < 1:
            raise UsageError(f"ell must be positive, got {self.ell}")

    @property
    def n(self) -> int:
        return 3 * self.ell


def gen_example(spec: ExampleSpec) -> Basis:
    """The n x n block basis [[R, q*Id], [Id, 0]] with n = 3*ell.

    R is (2*ell) x ell with entries drawn independently and uniformly from
    -(q-1)/2 .. (q-1)/2, row by row, from the seeded generator.  The first
    ell columns are the random columns over an identity footer; the last
    2*ell columns are q times the unit vectors.  Unimodular column
    operations can add any multiple of q to any entry of R, so the lattice
    effectively works modulo q.
    """
    q, ell = spec.q, spec.ell
    n = 3 * ell
    two_ell = 2 * ell
    half = (q - 1) // 2
    rng = SplitMix64(spec.seed)
    rows = [[0] * n for _ in range(n)]
    for r in range(two_ell):
        row = rows[r]
        for c in range(ell):
            row[c] = rng.below(q) - half
    for i in range(two_ell):
        rows[i][ell + i] = q
    for i in range(ell):
        rows[two_ell + i][i] = 1
    return Basis.from_rows(rows)


def random_permutation(basis: Basis, seed: int) -> Basis:
    """New basis with the columns in a uniformly random order."""
    perm = list(range(basis.n))
    SplitMix64(seed).shuffle(perm)
    return Basis._trusted(basis.m, [list(basis.cols[p]) for p in perm])
