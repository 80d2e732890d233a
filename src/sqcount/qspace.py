"""Quadratic forms over the S-adic places: evaluation, diagonalization, isotropy.

A form is a collection of symmetric Gram matrices, one per place of S.  Finite
place data is always exact (Fractions); the real Gram may carry floats, which
are dyadic rationals, so determinant and signature decisions are still made
exactly by converting entries to Fractions.

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


def _freeze_matrix(m, exact: bool):
    if exact:
        return tuple(tuple(Fraction(x) for x in row) for row in m)
    return tuple(tuple(float(x) for x in row) for row in m)


def _is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(n)
    )


@dataclass(frozen=True)
class QuadraticFormS:
    """Per-place quadratic form q(v) = (v + shift) G_place (v + shift)^T."""

    dim: int
    ctx: SConfig
    gram: dict
    shift: dict
    nondegenerate: bool

    def gram_at(self, place):
        return self.gram[place]

    def shift_at(self, place):
        s = self.shift.get(place)
        if s is None:
            return (Fraction(0),) * self.dim
        return s

    def has_float_real_part(self) -> bool:
        return any(isinstance(x, float) for row in self.gram[INF] for x in row)

    def value_at(self, v, place):
        g = self.gram[place]
        s = self.shift_at(place)
        if place == INF and self.has_float_real_part():
            w = [float(a) + float(b) for a, b in zip(v, s)]
            return sum(
                w[i] * g[i][j] * w[j] for i in range(self.dim) for j in range(self.dim)
            )
        w = tuple(Fraction(a) + Fraction(b) for a, b in zip(v, s))
        return la.dot(la.vec_mat(w, g), w)


def quadratic_form(
    ctx: SConfig,
    gram_inf,
    gram_p: dict | None = None,
    shift=None,
    shift_p: dict | None = None,
) -> QuadraticFormS:
    """Build a form; finite-place Grams default to gram_inf when it is rational.

    gram_p maps primes of ctx to exact Gram matrices; shift/shift_p likewise
    (shift is the real-place shift, also the default for finite places when
    exact).
    """
    d = len(gram_inf)
    if d < 2:
        raise ConfigError("forms need dim >= 2")
    inf_is_exact = all(
        isinstance(x, (int, Fraction)) for row in gram_inf for x in row
    )
    gram = {INF: _freeze_matrix(gram_inf, inf_is_exact)}
    for p in ctx.primes:
        if gram_p and p in gram_p:
            gram[p] = _freeze_matrix(gram_p[p], True)
        elif inf_is_exact:
            gram[p] = gram[INF]
        else:
            raise ConfigError(
                f"finite place {p} needs an exact Gram when the real Gram is float"
            )
    for place, g in gram.items():
        if len(g) != d or not _is_symmetric(g):
            raise DimensionMismatch(f"Gram at place {place} not symmetric {d}x{d}")
    shifts = {}
    if shift is not None:
        if len(shift) != d:
            raise DimensionMismatch("shift dimension mismatch")
        shift_is_exact = all(isinstance(x, (int, Fraction)) for x in shift)
        if shift_is_exact:
            frozen = tuple(Fraction(x) for x in shift)
            for place in (INF, *ctx.primes):
                shifts[place] = frozen
        else:
            shifts[INF] = tuple(float(x) for x in shift)
    if shift_p:
        for p, s in shift_p.items():
            shifts[p] = tuple(Fraction(x) for x in s)
    # float entries are dyadic rationals, so this decision is exact
    nondeg = all(la.det(la.as_matrix(g)) != 0 for g in gram.values())
    return QuadraticFormS(d, ctx, gram, shifts, nondeg)


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
    g = q.gram_at(place)
    exact = tuple(tuple(Fraction(x) for x in row) for row in g)
    u, diag = _congruent_diagonal(exact)
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
