"""Congruence-level combinatorics for shifted S-lattices.

The level data (d, q, w) of a congruence space; the one finite Haar kernel,
a uniform matrix mod m with a unit determinant (unit_matrix_mod), which
draws the finite bases at m = p^k and, with one row scaled, a uniform
element of SL_d(Z/q); and the exact lift of SL_d(Z/q) to SL_d(Z), which
the congruence-space sampler composes into a random level-q coset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import _linalg as la
from .errors import ConfigError
from .sarith import SConfig, crt, gcd_S, is_in_NS, prime_factors


@dataclass(frozen=True)
class CongruenceContext:
    """Level data: dimension d, level q in N_S, shift w in Z_S^d.

    The shift is coprime to the level: gcd_S(q, w) = 1.
    """

    d: int
    q: int
    w: tuple[Fraction, ...]
    ctx: SConfig


def congruence_context(d: int, q: int, w, ctx: SConfig) -> CongruenceContext:
    if d < 2:
        raise ConfigError("need dimension d >= 2")
    if not isinstance(q, int) or q <= 1:
        raise ConfigError("level q must be an integer > 1")
    if not is_in_NS(q, ctx):
        raise ConfigError(f"level q={q} must be coprime to the finite places")
    coords = tuple(Fraction(x) for x in w)
    if len(coords) != d:
        raise ConfigError(f"w has {len(coords)} coordinates, not d = {d}")
    if gcd_S(q, coords, ctx) != 1:
        raise ConfigError("gcd_S(q, w) must be 1")
    return CongruenceContext(d, q, coords, ctx)


# --- uniform sampling over GL_d(Z/m) and SL_d(Z/q) ---------------------------

def unit_matrix_mod(d: int, m: int, rng) -> tuple:
    """Uniform element of GL_d(Z/m), as int rows in [0, m): entries uniform
    mod m, redrawn until the determinant is prime to m.  At m = p^k it is
    Haar on GL_d(Z_p) read to k digits.  rng is a numpy Generator."""
    while True:
        rows = tuple(map(tuple, rng.integers(0, m, size=(d, d)).tolist()))
        if math.gcd(la.det(rows), m) == 1:
            return rows


def sample_slq_uniform(d: int, q: int, rng):
    """Uniform element of SL_d(Z/q): a uniform h in GL_d(Z/q) with row 0
    scaled by det(h)^{-1}.  That map sends {diag(u, 1, ...) g : u a unit}
    to g for each g in SL_d(Z/q), and nothing else, so every g has the same
    number of preimages."""
    h = unit_matrix_mod(d, q, rng)
    u = pow(la.det(h), -1, q)
    return (tuple(u * x % q for x in h[0]),) + h[1:]


# --- exact lifting to SL_d(Z) -------------------------------------------------

@cache
def _level_primes(q: int) -> list[int]:
    """prime_factors(q), once per level: a lift reads it d times a draw."""
    return prime_factors(q)


def _unit_coefficients(col: list[int], q: int) -> list[int]:
    """Coefficients c_1..c_{n-1} with col[0] + sum c_i col[i] a unit mod q.

    The column is primitive mod q: for each prime p | q some entry is a
    p-unit, so one index per prime fixes the pivot, glued by CRT.
    """
    n = len(col)
    picks = {}
    primes = _level_primes(q)
    for p in primes:
        if col[0] % p != 0:
            continue
        for i in range(1, n):
            if col[i] % p != 0:
                picks.setdefault(i, []).append(p)
                break
        else:
            raise ConfigError("column is not primitive mod q")
    coeffs = [0] * n
    for i, marked in picks.items():
        r, m = 0, 1
        for p in primes:
            r = crt(r, m, 1 if p in marked else 0, p)
            m *= p
        coeffs[i] = r
    return coeffs[1:]


def lift_slq_to_slz(m, q: int):
    """Lift of SL_d(Z/q) to SL_d(Z): factor into elementary matrices over
    Z/q by two-sided row reduction, lift each factor by its centered
    integer representative, multiply exactly."""
    d = len(m)
    a = [[int(x) % q for x in row] for row in m]
    if la.det(a) % q != 1 % q:
        raise ConfigError("determinant is not 1 mod q")
    left, right = [], []

    def rowop(i, j, c):
        c %= q
        if c:
            a[i] = [(x + c * y) % q for x, y in zip(a[i], a[j])]
            left.append((i, j, c))

    def colop(i, j, c):
        c %= q
        if c:
            for row in a:
                row[i] = (row[i] + c * row[j]) % q
            right.append((i, j, c))

    for k in range(d):
        col = [a[i][k] for i in range(k, d)]
        for off, c in enumerate(_unit_coefficients(col, q), start=1):
            if c:
                rowop(k, k + off, c)
        uinv = pow(a[k][k], -1, q)
        for i in range(k + 1, d):
            rowop(i, k, -a[i][k] * uinv)
        for j in range(k + 1, d):
            colop(j, k, -a[k][j] * uinv)
    # diagonal of units with product 1: sweep each unit into the next slot
    for k in range(d - 1):
        u, v = a[k][k], a[k + 1][k + 1]
        if u == 1:
            continue
        colop(k, k + 1, pow(v, -1, q) * (1 - u))
        rowop(k, k + 1, 1)
        rowop(k + 1, k, -(1 - u))
        colop(k + 1, k, -v)
    assert all(a[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d))

    def centered(c):
        c = (-c) % q
        return c - q if c > q // 2 else c

    out = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def mul_right_elem(i, j, c, kind):
        # row factor inverse E_{ij}(-c): identity with -c at (i,j);
        # column factor inverse: identity with -c at (j,i)
        r, s = (i, j) if kind == "L" else (j, i)
        for row in out:
            row[s] += row[r] * c

    for i, j, c in left:
        mul_right_elem(i, j, centered(c), "L")
    for i, j, c in reversed(right):
        mul_right_elem(i, j, centered(c), "R")
    lifted = tuple(tuple(row) for row in out)
    if la.det(lifted) != 1:
        raise ConfigError("lift lost determinant 1")
    if any(
        (lifted[i][j] - int(m[i][j])) % q for i in range(d) for j in range(d)
    ):
        raise ConfigError("lift is not congruent to the input")
    return lifted
