"""The fraction-free determinant against Gaussian elimination over Fraction."""

import random
from fractions import Fraction

import pytest

from sqcount import _linalg as la


def oracle_det(m) -> Fraction:
    """Fraction Gaussian elimination with partial pivoting by exact nonzero."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return result


def random_int_matrix(rnd, n, size):
    # small entries and many zeros, so singular matrices and zero pivots
    # (row swaps) both turn up
    return tuple(
        tuple(rnd.choice((0, rnd.randint(-size, size))) for _ in range(n))
        for _ in range(n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_int_matrices(n):
    rnd = random.Random(n)
    zeros = swaps = 0
    for _ in range(400):
        m = random_int_matrix(rnd, n, 3)
        got = la.det(m)
        assert type(got) is int
        assert got == oracle_det(m)
        zeros += got == 0
        swaps += n > 1 and m[0][0] == 0 and got != 0
    if n > 1:
        assert zeros and swaps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fraction_matrices(n):
    rnd = random.Random(10 + n)
    for _ in range(200):
        m = tuple(
            tuple(Fraction(x, rnd.choice((1, 2, 3, 4, 9))) for x in row)
            for row in random_int_matrix(rnd, n, 20)
        )
        assert la.det(m) == oracle_det(m)


def test_large_entries_stay_exact():
    m = ((10**40 + 1, 10**39), (3 * 10**41, 10**40 - 7))
    assert la.det(m) == oracle_det(m)
    assert la.det(la.as_matrix(m)) == oracle_det(m)
