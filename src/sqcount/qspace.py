"""Quadratic forms over the S-adic places: diagonalization and isotropy.

A form is a collection of exact symmetric Gram matrices (Fractions), one per
place of S, so determinant, signature and square-class decisions are exact.
An inhomogeneous shift is never part of the form: the counters take it as a
separate argument.

Row-vector convention everywhere: q(v) = v G v^T, a change of basis with row
matrix U transforms the Gram to U G U^T, and q^U(x) = q(x U).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from .errors import ConfigError, DegenerateForm, DimensionMismatch
from .sarith import INF, SConfig, frac_mod, valuation


# --- form container -----------------------------------------------------------


def _is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(n)
    )


@dataclass(frozen=True)
class QuadraticFormS:
    """Per-place quadratic form q(v) = v G_place v^T."""

    dim: int
    ctx: SConfig
    gram: dict
    nondegenerate: bool

    def gram_at(self, place):
        return self.gram[place]


def quadratic_form(
    ctx: SConfig, gram_inf, gram_p: dict | None = None
) -> QuadraticFormS:
    """Build a form from exact Grams; a finite place without an entry in
    gram_p takes gram_inf, and an entry at a prime outside S is an error.
    Entries are read with Fraction, so a float entry stands for the dyadic
    rational it is."""
    d = len(gram_inf)
    if d < 2:
        raise ConfigError("forms need dim >= 2")
    gram = {INF: la.as_matrix(gram_inf)}
    for p in gram_p or {}:
        if p not in ctx.primes:
            raise ConfigError(f"gram_p has a Gram at {p}, which is not in S")
    for p in ctx.primes:
        gram[p] = la.as_matrix(gram_p[p]) if gram_p and p in gram_p else gram[INF]
    for place, g in gram.items():
        if len(g) != d or not _is_symmetric(g):
            raise DimensionMismatch(f"Gram at place {place} not symmetric {d}x{d}")
    nondeg = all(la.det(g) != 0 for g in gram.values())
    return QuadraticFormS(d, ctx, gram, nondeg)


# --- local square classes and Hilbert symbols ----------------------------------


def legendre_symbol(u, p: int) -> int:
    """(u|p) in {1,-1} for p odd and u a p-adic unit (rational, v_p(u)=0)."""
    u = Fraction(u)
    if p == 2 or valuation(u, p) != 0:
        raise ConfigError("legendre_symbol needs odd p and a p-unit")
    r = pow(frac_mod(u, p), (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_square_qp(a, p) -> bool:
    """a in (Q_p^x)^2 (or a > 0 when p is the real place)."""
    a = Fraction(a)
    if a == 0:
        raise ConfigError("square class of zero")
    if p == INF:
        return a > 0
    v = valuation(a, p)
    if v % 2 != 0:
        return False
    u = a / Fraction(p) ** v
    if p == 2:
        return frac_mod(u, 8) == 1
    return legendre_symbol(u, p) == 1


def hilbert_symbol(a, b, p) -> int:
    """Hilbert symbol (a,b)_p in {1,-1}: 1 iff z^2 = a x^2 + b y^2 has a
    nontrivial solution over Q_p (R for p = INF)."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ConfigError("Hilbert symbol needs nonzero arguments")
    if p == INF:
        return -1 if (a < 0 and b < 0) else 1
    alpha, beta = valuation(a, p), valuation(b, p)
    u = a / Fraction(p) ** alpha
    w = b / Fraction(p) ** beta
    if p != 2:
        sign = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2 and legendre_symbol(u, p) == -1:
            sign = -sign
        if alpha % 2 and legendre_symbol(w, p) == -1:
            sign = -sign
        return sign
    u8 = frac_mod(u, 8)
    w8 = frac_mod(w, 8)
    eps_u = (u8 % 4 - 1) // 2 % 2
    eps_w = (w8 % 4 - 1) // 2 % 2
    omega_u = (u8 * u8 - 1) // 8 % 2
    omega_w = (w8 * w8 - 1) // 8 % 2
    e = eps_u * eps_w + alpha % 2 * omega_w + beta % 2 * omega_u
    return -1 if e % 2 else 1


# --- diagonalization -------------------------------------------------------------


def diagonalize(q: QuadraticFormS, place):
    """Basis change U and diagonal entries D with U^T G U = diag(D), exact.

    At a finite place the diagonal entries are normalized by square scalings
    to valuation 0 or 1.
    """
    u, diag = _congruent_diagonal(q.gram_at(place))
    if any(x == 0 for x in diag):
        raise DegenerateForm(f"form degenerate at place {place}")
    if place != INF:
        p = place
        rows = [list(r) for r in u]
        norm = []
        for i, a in enumerate(diag):
            c = Fraction(p) ** (-(valuation(a, p) // 2))
            rows[i] = [c * x for x in rows[i]]
            norm.append(a * c * c)
        u = tuple(tuple(r) for r in rows)
        diag = tuple(norm)
        assert all(valuation(a, p) in (0, 1) for a in diag)
    return la.transpose(u), diag


def _congruent_diagonal(g):
    """Symmetric Gaussian reduction: returns (U, diag) with U G U^T diagonal."""
    n = len(g)
    a = [list(row) for row in g]
    u = [list(row) for row in la.identity(n)]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, c):
        # basis change e_i += c e_j
        for k in range(n):
            a[i][k] += c * a[j][k]
        for k in range(n):
            a[k][i] += c * a[k][j]
        for k in range(n):
            u[i][k] += c * u[j][k]

    for i in range(n):
        if a[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if pivot is not None:
                swap(i, pivot)
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    continue  # zero row in the remaining block
                add_row(i, off, Fraction(1))
        if a[i][i] == 0:
            continue
        for j in range(i + 1, n):
            if a[j][i] != 0:
                add_row(j, i, -a[j][i] / a[i][i])
    return tuple(tuple(row) for row in u), tuple(a[i][i] for i in range(n))


# --- isotropy ---------------------------------------------------------------------


def is_isotropic(q: QuadraticFormS, place) -> bool:
    """Does q represent zero nontrivially at the place?

    Real place: mixed signature.  Finite places: the classical square-class
    and Hasse-invariant criteria in ranks 2-4; rank >= 5 is always isotropic.
    """
    if not q.nondegenerate:
        raise DegenerateForm("isotropy undefined for degenerate forms")
    if place is None:
        return all(is_isotropic(q, pl) for pl in (INF, *q.ctx.primes))
    _, diag = diagonalize(q, place)
    d = len(diag)
    if place == INF:
        return any(x > 0 for x in diag) and any(x < 0 for x in diag)
    p = place
    if d >= 5:
        return True
    disc = Fraction(1)
    for x in diag:
        disc *= x
    eps = 1
    for i in range(d):
        for j in range(i + 1, d):
            eps *= hilbert_symbol(diag[i], diag[j], p)
    if d == 2:
        return is_square_qp(-disc, p)
    if d == 3:
        return eps == hilbert_symbol(-1, -disc, p)
    return (not is_square_qp(disc, p)) or eps == hilbert_symbol(-1, -1, p)
