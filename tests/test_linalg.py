"""The fraction-free determinant against Gaussian elimination over Fraction,
and the inverse mod m against Gauss-Jordan over Fraction."""

import random
from fractions import Fraction

import pytest

from sqcount import _linalg as la
from sqcount.sarith import frac_mod


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


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def oracle_inverse(m) -> tuple:
    """Gauss-Jordan over Fraction, pivoting on the first nonzero entry."""
    n = len(m)
    a = [[Fraction(x) for x in row] + list(identity(n)[i])
         for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_mod_is_the_rational_inverse_mod_m(n):
    rnd = random.Random(20 + n)
    seen = 0
    for _ in range(300):
        p = rnd.choice((2, 3, 5))
        mod = p ** rnd.randint(1, 4)
        m = random_int_matrix(rnd, n, 9)
        if la.det(m) % p == 0:
            continue
        seen += 1
        inv = la.inverse_mod(m, mod)
        want = oracle_inverse(m)
        assert inv == tuple(tuple(frac_mod(x, mod) for x in row) for row in want)
        assert all(0 <= x < mod for row in inv for x in row)
    assert seen > 50
