"""Small exact linear algebra over Fraction, used by the algebraic modules.

Matrices are tuples of row tuples.  Vectors are row vectors throughout the
package: a lattice point is k @ basis + shift with k a row vector, so
vec_mat computes v * M.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateForm, DimensionMismatch


def as_matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> tuple:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def mat_mul(a, b) -> tuple:
    if len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def vec_mat(v, m) -> tuple:
    if len(v) != len(m):
        raise DimensionMismatch("vector-matrix shape mismatch")
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0])))


def det(m) -> int | Fraction:
    """Determinant by one fraction-free (Bareiss) elimination.

    Exact on int and Fraction entries: a Fraction matrix is scaled to
    integers by the lcm L of its denominators and det(L m) / L^n returned.
    An integer matrix (L = 1) gets an int.
    """
    n = len(m)
    scale = math.lcm(*(x.denominator for row in m for x in row))
    a = [[int(x * scale) for x in row] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        # every entry below stays an integer: it is a minor of L m
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    result = sign * a[-1][-1]
    return result if scale == 1 else Fraction(result, scale**n)


def inverse(m) -> tuple:
    n = len(m)
    a = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise DegenerateForm("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)

