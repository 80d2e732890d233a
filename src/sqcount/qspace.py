"""Quadratic forms over the S-adic places: the form container and the
Jordan splitting.

A form is a collection of exact symmetric Gram matrices (Fractions), one per
place of S, so determinant, signature and local-density decisions are exact.
An inhomogeneous shift is never part of the form: the counters take it as a
separate argument.

_jordan_blocks is the package's one symmetric elimination of a Gram: a
GL_d(Z_p) congruence onto 1x1 and, at p = 2, 2x2 blocks.
volume.padic_quadric_volume counts residues on those blocks, and
volume.is_isotropic reads the real signature off the split at p = 3.

Row-vector convention everywhere: q(v) = v G v^T, a change of basis with row
matrix U transforms the Gram to U G U^T, and q^U(x) = q(x U).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from .errors import ConfigError
from .sarith import INF, SConfig, require_in_s, valuation


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
    require_in_s(gram_p or {}, ctx.primes, "gram_p has a Gram at")
    for p in ctx.primes:
        gram[p] = la.as_matrix(gram_p[p]) if gram_p and p in gram_p else gram[INF]
    for place, g in gram.items():
        if len(g) != d or not _is_symmetric(g):
            raise ConfigError(f"Gram at place {place} not symmetric {d}x{d}")
    nondeg = all(la.det(g) != 0 for g in gram.values())
    return QuadraticFormS(d, ctx, gram, nondeg)


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
            raise ConfigError("zero block in Jordan splitting")
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
