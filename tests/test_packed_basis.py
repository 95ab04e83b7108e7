"""Every producer of a Basis against every consumer of its packed array.

A Basis holds one read-only array, int64 when every entry fits and
Python ints otherwise.  Each producer (Basis(cols), Basis.from_rows,
read_mat, gen_example, random_permutation) is built here on entries
inside and outside int64, and gram_compute, column_norms_sq,
apply_transform and the bytes of write_mat must equal the plain
Python-int loops below.
"""

import random

import numpy as np
import pytest

from latred.core import (
    Basis,
    TransformRecord,
    apply_transform,
    column_norms_sq,
    gram_compute,
    read_mat,
    write_mat,
)
from latred.genlat import ExampleSpec, gen_example, random_permutation
from oracles import gen_example_reference

INT64_MAX = 2**63 - 1


def mat_text(cols):
    """The .mat text of cols, written out: ``m n`` then one line per row."""
    m = len(cols[0])
    rows = (" ".join(str(col[r]) for col in cols) + "\n" for r in range(m))
    return f"{m} {len(cols)}\n" + "".join(rows)


def gram_reference(cols):
    return [[sum(a * b for a, b in zip(x, y)) for y in cols] for x in cols]


def product_reference(cols, u_cols):
    """Column j of basis . U is the sum of U[i][j] times column i."""
    return [[sum(u[i] * cols[i][r] for i in range(len(cols)))
             for r in range(len(cols[0]))] for u in u_cols]


def entries(rng, m, n, wide):
    """n columns of length m with entries in [-50, 50]; a wide set has
    one entry of magnitude 2**63 or 2**63 + 1 in every column, so no
    Gram entry leaves the signed 128-bit range."""
    cols = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
    if wide:
        for col in cols:
            big = 2**63 + rng.randint(0, 1)
            col[rng.randrange(m)] = rng.choice((-1, 1)) * big
    return cols


def narrow_19_digits(rng, m, n):
    """Entries inside int64 with 19 digits, which read_mat hands to its
    Python parser."""
    return [[rng.choice((-1, 1)) * rng.randint(10**18, INT64_MAX // 4)
             for _ in range(m)] for _ in range(n)]


def produced(kind, cols, tmp_path):
    if kind == "Basis":
        return Basis(cols)
    if kind == "from_rows":
        return Basis.from_rows([list(row) for row in zip(*cols)])
    path = tmp_path / "in.mat"
    path.write_text(mat_text(cols))
    return read_mat(path)


def cases():
    rng = random.Random(27)
    out = []
    for wide in (False, True):
        for m, n in ((1, 1), (3, 5), (7, 4), (12, 12)):
            out.append((f"{'wide' if wide else 'int64'}-{m}x{n}",
                        entries(rng, m, n, wide)))
    out.append(("19-digit-6x6", narrow_19_digits(rng, 6, 6)))
    return out


CASES = cases()


def assert_consumers_match(basis, cols, tmp_path):
    """Every consumer of basis's array equals the loops on its columns."""
    fits = all(-INT64_MAX - 1 <= x <= INT64_MAX for col in cols for x in col)
    assert basis.array.dtype == (np.int64 if fits else object)
    assert basis.bound == (max(abs(x) for col in cols for x in col)
                           if fits else None)
    assert basis.cols == cols
    assert all(type(x) is int for col in basis.cols for x in col)
    assert gram_compute(basis).tolist() == gram_reference(cols)
    assert column_norms_sq(basis) == [sum(x * x for x in col) for col in cols]
    rng = random.Random(basis.n)
    for scale in (3, 2**63):
        u_cols = [[rng.randint(-scale, scale) for _ in cols] for _ in cols]
        out = apply_transform(basis, TransformRecord(u_cols))
        ref = product_reference(cols, u_cols)
        assert type(out) is type(basis)
        assert out.cols == ref
        # apply_transform does not range-check; Basis refuses an entry
        # past the signed 128-bit range.
        if all(-2**127 <= x < 2**127 for col in ref for x in col):
            assert out == Basis(ref)
        else:
            with pytest.raises(OverflowError, match="Basis column"):
                Basis(ref)
    path = tmp_path / "out.mat"
    write_mat(basis, path)
    assert path.read_bytes() == mat_text(cols).encode("ascii")


@pytest.mark.parametrize("kind", ["Basis", "from_rows", "read_mat"])
@pytest.mark.parametrize("name, cols", CASES, ids=[c[0] for c in CASES])
def test_built_basis_feeds_every_consumer(kind, name, cols, tmp_path):
    basis = produced(kind, cols, tmp_path)
    assert_consumers_match(basis, cols, tmp_path)
    perm = random_permutation(basis, 5)
    assert perm.array.dtype == basis.array.dtype
    assert sorted(perm.cols) == sorted(cols)
    assert_consumers_match(perm, perm.cols, tmp_path)


@pytest.mark.parametrize("q, ell", [(8191, 1), (8191, 4), (2**63 + 1, 1),
                                    (2**63 + 1, 2)])
def test_generated_basis_feeds_every_consumer(q, ell, tmp_path):
    basis = gen_example(ExampleSpec(q, ell, 3))
    assert_consumers_match(basis, gen_example_reference(q, ell, 3), tmp_path)
    perm = random_permutation(basis, 9)
    assert_consumers_match(perm, perm.cols, tmp_path)
