"""Small exact linear algebra over Fraction and int, used by the algebraic
modules.

Matrices are tuples of row tuples.  Vectors are row vectors throughout the
package: a lattice point is k @ basis + shift with k a row vector, so
vec_mat computes v * M.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConfigError


def as_matrix(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def vec_mat(v, m) -> tuple:
    if len(v) != len(m):
        raise ConfigError("vector-matrix shape mismatch")
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


def inverse_mod(m, mod: int) -> tuple:
    """The int matrix m^-1 mod `mod`, for an int matrix m whose determinant
    is invertible mod `mod`: the adjugate, by cofactors, times det(m)^-1."""
    n = len(m)
    scale = pow(det(m), -1, mod)
    if n == 1:
        return ((scale,),)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
        return (-1) ** (i + j) * det(minor)

    # adj(m)[i][j] is the (j, i) cofactor
    return tuple(
        tuple(cofactor(j, i) * scale % mod for j in range(n)) for i in range(n)
    )
