"""Seeded input families whose entries do not fit a double.

Each generator takes a random.Random, a column count n and a bit size b,
and returns the n columns of a basis as lists of Python ints: full rank
by construction for knapsack and Goldstein-Mayer, and with overwhelming
probability (on every seed the tests use) for uniform.
"""


def knapsack(rng, n, b):
    """Unit columns over one row of b-bit weights (Lagarias-Odlyzko)."""
    weights = [rng.randrange(1 << (b - 1), 1 << b) for _ in range(n)]
    return [[int(i == j) for i in range(n)] + [weights[j]] for j in range(n)]


def goldstein_mayer(rng, n, b):
    """A b-bit odd p in the corner and residues x_i mod p beside it, over
    unit columns."""
    p = rng.randrange(1 << (b - 1), 1 << b) | 1
    xs = [rng.randrange(p) for _ in range(n - 1)]
    return [[p] + [0] * (n - 1)] + [[x] + [int(t == i) for t in range(n - 1)]
                                    for i, x in enumerate(xs)]


def uniform(rng, n, b):
    """n x n entries drawn uniformly from [-2**(b-1), 2**(b-1))."""
    return [[rng.randrange(-(1 << (b - 1)), 1 << (b - 1)) for _ in range(n)]
            for _ in range(n)]


HARD_FAMILIES = {"knapsack": knapsack, "goldstein-mayer": goldstein_mayer,
                 "uniform": uniform}
