"""Quadratic forms over the S-adic places: the Jordan splitting and isotropy.

A form is a collection of exact symmetric Gram matrices (Fractions), one per
place of S, so determinant, signature and square-class decisions are exact.
An inhomogeneous shift is never part of the form: the counters take it as a
separate argument.

_jordan_blocks is the package's one symmetric elimination of a Gram: a
GL_d(Z_p) congruence onto 1x1 and, at p = 2, 2x2 blocks. is_isotropic reads
a diagonal off those blocks, and volume.padic_quadric_volume counts residues
on them.

Row-vector convention everywhere: q(v) = v G v^T, a change of basis with row
matrix U transforms the Gram to U G U^T, and q^U(x) = q(x U).
"""

from __future__ import annotations

import math
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


def is_square_qp(a, p: int) -> bool:
    """a in (Q_p^x)^2."""
    a = Fraction(a)
    if a == 0:
        raise ConfigError("square class of zero")
    v = valuation(a, p)
    if v % 2 != 0:
        return False
    u = a / Fraction(p) ** v
    if p == 2:
        return frac_mod(u, 8) == 1
    return legendre_symbol(u, p) == 1


def hilbert_symbol(a, b, p: int) -> int:
    """Hilbert symbol (a,b)_p in {1,-1}: 1 iff z^2 = a x^2 + b y^2 has a
    nontrivial solution over Q_p."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ConfigError("Hilbert symbol needs nonzero arguments")
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


# --- Jordan splitting ----------------------------------------------------------


def _val(x: Fraction, p: int):
    return None if x == 0 else valuation(x, p)


def _jordan_blocks(gram, p: int):
    """Split a nondegenerate symmetric matrix into 1x1 (and, at p=2, 2x2)
    diagonal blocks by a GL_d(Z_p) congruence. Exact rational arithmetic."""
    a = [list(row) for row in gram]
    d = len(a)
    active = list(range(d))
    blocks = []

    def add_sym(k, i, coeff):
        # A <- E A E^T for E = I + coeff e_{ki}
        for t in range(d):
            a[k][t] += coeff * a[i][t]
        for t in range(d):
            a[t][k] += coeff * a[t][i]

    while active:
        best, best_v, diag_hit = None, None, False
        for ii, i in enumerate(active):
            for j in active[ii:]:
                v = _val(a[i][j], p)
                if v is None:
                    continue
                if best_v is None or v < best_v or (
                    v == best_v and not diag_hit and i == j
                ):
                    best, best_v, diag_hit = (i, j), v, (i == j)
        if best is None:
            raise DegenerateForm("zero block in Jordan splitting")
        i, j = best
        if i == j:
            for k in active:
                if k != i and a[k][i] != 0:
                    add_sym(k, i, -a[k][i] / a[i][i])
            blocks.append(((a[i][i],),))
            active.remove(i)
        elif p != 2:
            # an off-diagonal pivot folds into the diagonal when 2 is a unit:
            # every active diagonal entry has a larger valuation, so the new
            # a[i][i] + 2 a[i][j] + a[j][j] has the pivot's
            add_sym(i, j, 1)
        else:
            aa, bb, cc = a[i][i], a[i][j], a[j][j]
            bm, det = ((aa, bb), (bb, cc)), aa * cc - bb * bb
            for k in active:
                if k in (i, j):
                    continue
                # (x, y) = (a[k][i], a[k][j]) bm^-1
                x = (a[k][i] * cc - a[k][j] * bb) / det
                y = (a[k][j] * aa - a[k][i] * bb) / det
                if x != 0:
                    add_sym(k, i, -x)
                if y != 0:
                    add_sym(k, j, -y)
            blocks.append(bm)
            active.remove(i)
            active.remove(j)
    return blocks


# --- isotropy ---------------------------------------------------------------------


def _diagonal(gram, p: int) -> tuple | None:
    """Diagonal entries of a form congruent to gram over Q_p, read off its
    Jordan blocks: a 2x2 block (a, b; b, c) is diag(a, (ac - b^2)/a). None
    when a block has a = 0, which makes it, and the form, isotropic."""
    diag = []
    for block in _jordan_blocks(gram, p):
        if len(block) == 1:
            diag.append(block[0][0])
            continue
        (a, b), (_, c) = block
        if a == 0:
            return None
        diag += [a, (a * c - b * b) / a]
    return tuple(diag)


def is_isotropic(q: QuadraticFormS, place) -> bool:
    """Does q represent zero nontrivially at the place?

    Real place: mixed signature, read off the splitting at p = 3, which is
    a congruence over Q into 1x1 blocks, so Sylvester's law applies.
    Finite places: the classical square-class and Hasse-invariant criteria
    in ranks 2-4; rank >= 5 is always isotropic.
    """
    if not q.nondegenerate:
        raise DegenerateForm("isotropy undefined for degenerate forms")
    if place == INF:
        signs = {x > 0 for x in _diagonal(q.gram_at(INF), 3)}
        return len(signs) == 2
    p = place
    diag = _diagonal(q.gram_at(p), p)
    d = q.dim
    if diag is None or d >= 5:
        return True
    disc = math.prod(diag)
    eps = 1
    for i in range(d):
        for j in range(i + 1, d):
            eps *= hilbert_symbol(diag[i], diag[j], p)
    if d == 2:
        return is_square_qp(-disc, p)
    if d == 3:
        return eps == hilbert_symbol(-1, -disc, p)
    return (not is_square_qp(disc, p)) or eps == hilbert_symbol(-1, -1, p)
