"""Volumes of quadric slices intersected with S-balls.

Finite places: exact Haar volumes after an integral block-diagonalization
of the Gram matrix over Z_p, by Hensel reduction of the local density.
Solutions whose unit-scale coordinates are not all divisible by p lift
uniformly from residues mod p (mod 8 at p = 2), so they are counted there;
the rest are p times a solution of a rescaled form, which the next pass
handles. The work is O(m) small counts, not a count at the full modulus
p^m. Real place: section quadrature after orthogonal
diagonalization, cross-checked by Monte Carlo. The leading constant c_Q is
the real light-cone integral over the two eigen-spheres, by a Gauss-Legendre
product rule, times the exact finite-place volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .errors import (
    AnisotropicForm,
    ConfigError,
    DegenerateForm,
    FamilyOutOfRange,
    MethodDisagreement,
)
from .qspace import QuadraticFormS, is_isotropic
from .sarith import INF, frac_mod, valuation


# --- p-adic volumes -----------------------------------------------------------

@dataclass(frozen=True)
class PadicVolumeRequest:
    """vol_p of {x in p^{-t} Z_p^d : Q(x) in a + p^c Z_p}."""

    p: int
    gram: tuple
    t: int = 0
    a: Fraction = Fraction(0)
    c: int = 0


def _val(x: Fraction, p: int):
    return None if x == 0 else valuation(x, p)


def _min_val(entries, p: int):
    vals = [_val(x, p) for x in entries]
    vals = [v for v in vals if v is not None]
    return min(vals) if vals else None


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
            # an off-diagonal pivot folds into the diagonal when 2 is a unit
            v_plus = _val(a[i][i] + 2 * a[i][j] + a[j][j], p)
            coeff = 1 if (v_plus is not None and v_plus == best_v) else -1
            add_sym(i, j, coeff)
        else:
            bm = ((a[i][i], a[i][j]), (a[i][j], a[j][j]))
            det = bm[0][0] * bm[1][1] - bm[0][1] ** 2
            inv = (
                (bm[1][1] / det, -bm[0][1] / det),
                (-bm[0][1] / det, bm[0][0] / det),
            )
            for k in list(active):
                if k in (i, j):
                    continue
                x = a[k][i] * inv[0][0] + a[k][j] * inv[1][0]
                y = a[k][i] * inv[0][1] + a[k][j] * inv[1][1]
                if x != 0:
                    add_sym(k, i, -x)
                if y != 0:
                    add_sym(k, j, -y)
            blocks.append(bm)
            active.remove(i)
            active.remove(j)
    return blocks


def _block_histogram(block, big_m: int):
    """Counts of Q_block(y) mod big_m over y mod big_m, for a block whose
    form a y1^2 + 2b y1 y2 + c y2^2 (or a y^2) has p-integral
    coefficients, p the prime of big_m."""
    hist = {}
    if len(block) == 1:
        alpha = frac_mod(block[0][0], big_m)
        for y in range(big_m):
            r = alpha * y * y % big_m
            hist[r] = hist.get(r, 0) + 1
    else:
        aa = frac_mod(block[0][0], big_m)
        bb2 = frac_mod(2 * block[0][1], big_m)
        cc = frac_mod(block[1][1], big_m)
        for y1 in range(big_m):
            base = aa * y1 * y1
            cross = bb2 * y1
            for y2 in range(big_m):
                r = (base + cross * y2 + cc * y2 * y2) % big_m
                hist[r] = hist.get(r, 0) + 1
    return hist


def _residue_counts(blocks, big_m: int) -> dict:
    """Counts of Q(y) mod big_m over y mod big_m, Q the sum of the blocks."""
    combined = {0: 1}
    for block in blocks:
        hb = _block_histogram(block, big_m)
        nxt = {}
        for r1, c1 in combined.items():
            for r2, c2 in hb.items():
                key = (r1 + r2) % big_m
                nxt[key] = nxt.get(key, 0) + c1 * c2
        combined = nxt
    return combined


def _block_scale(block, p: int) -> int:
    """v_p of a block's quadratic form: the least valuation among the
    coefficients a, 2b, c of a y1^2 + 2b y1 y2 + c y2^2 (or of a y^2)."""
    if len(block) == 1:
        return valuation(block[0][0], p)
    return _min_val((block[0][0], 2 * block[0][1], block[1][1]), p)


def _scaled(block, f: Fraction) -> tuple:
    return tuple(tuple(f * x for x in row) for row in block)


def padic_quadric_volume(req: PadicVolumeRequest) -> Fraction:
    """Exact vol_p({x in p^{-t} Z_p^d : Q(x) in a + p^c Z_p}).

    Rescaling x = p^{-t} y turns the condition into Q(y) = b mod p^s with
    b = p^{2t} a and s = 2t + c. With lam <= 0 below the valuations of the
    Gram entries and of b, the condition p^{-lam} Q(y) = p^{-lam} b mod
    p^m, m = s - lam, has an integral form and target, and the volume is
    p^{dt} times the Haar measure of its solutions y in Z_p^d.

    That measure is found by Hensel reduction over the Jordan blocks, in
    O(m) passes that each count residues mod p (mod 8 at p = 2) only:

    - every block has scale e >= 1: Q = p^k Q' with k = min(e, m), so the
      condition is Q' = b / p^k mod p^(m - k), or has no solution when
      p^k does not divide b;
    - some block has scale 0: a "good" y, one with a unit-scale coordinate
      nonzero mod p, has a gradient of valuation at most 1, so its
      solutions lift uniformly from modulus p^m0 (m0 = 1, or 3 at p = 2)
      and their measure is the count at p^m0 times p^-(m - m0). A "bad" y
      is p z on the unit-scale blocks, which weights the rest by p^-u (u
      unit-scale coordinates) and multiplies those blocks by p^2 for the
      next pass. When m <= m0 the residues mod p^m are counted directly.
    """
    p, t, c = req.p, req.t, req.c
    gram = la.as_matrix(req.gram)
    d = len(gram)
    if la.det(gram) == 0:
        raise DegenerateForm("form is degenerate")
    a = Fraction(req.a)
    ball = Fraction(p) ** (d * t)
    s = 2 * t + c
    b = Fraction(p) ** (2 * t) * a
    lam = min(0, _min_val(tuple(x for row in gram for x in row), p))
    if b != 0:
        lam = min(lam, _val(b, p))
    m = s - lam
    if m <= 0:
        # the target cannot exclude any integral value
        return ball
    unscale = Fraction(p) ** -lam
    blocks = tuple(_scaled(block, unscale) for block in _jordan_blocks(gram, p))
    target = frac_mod(b * unscale, p**m) if b else 0
    m0 = 3 if p == 2 else 1
    counts = {}

    def density(blocks, target, k):
        """Measure of {y : Q(y) = target mod p^k}, counted mod p^k."""
        if (blocks, k) not in counts:
            counts[blocks, k] = _residue_counts(blocks, p**k)
        return Fraction(counts[blocks, k].get(target % p**k, 0), p ** (d * k))

    total, weight = Fraction(0), Fraction(1)
    while m > 0:
        scales = [_block_scale(block, p) for block in blocks]
        k = min(min(scales), m)
        if k > 0:
            if target % p**k:
                return ball * total
            down = Fraction(1, p**k)
            blocks = tuple(_scaled(block, down) for block in blocks)
            target //= p**k
            m -= k
            continue
        if m <= m0:
            return ball * (total + weight * density(blocks, target, m))
        bad = tuple(
            _scaled(block, Fraction(p * p)) if e == 0 else block
            for block, e in zip(blocks, scales)
        )
        units = sum(len(block) for block, e in zip(blocks, scales) if e == 0)
        drop = Fraction(1, p**units)
        good = density(blocks, target, m0) - drop * density(bad, target, m0)
        total += weight * good / p ** (m - m0)
        weight *= drop
        blocks = bad
    return ball * (total + weight)


# --- real volumes -------------------------------------------------------------

def _ball_volume(d: int, radius: float) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2 + 1) * radius**d


def _half_turn_band_integral(a, b, lo, hi, r2):
    """integral over theta in [0, pi/2] of the radial measure of
    {s in [0, r2) : s g(theta) in (lo, hi)} restricted to angles where
    g = a cos^2 + b sin^2 is positive; a < 0 < b, arrays lo/hi/r2.

    Splitting at the clamp thresholds g = lo/r2 and g = hi/r2 leaves
    integrands r2 and const/g, whose theta antiderivatives are elementary
    (arcsin in g, and a logarithm for 1/g). The g < 0 half is obtained by
    calling this again with (a, b, lo, hi) -> (-b, -a, -hi, -lo).
    """
    sqab = math.sqrt(-a * b)
    sqb = math.sqrt(b)
    sqna = math.sqrt(-a)
    lo_pos = np.maximum(lo, 0.0)
    g1 = np.clip(lo_pos / r2, 0.0, b)
    g2 = np.clip(hi / r2, 0.0, b)
    g2_safe = np.where(hi > 0.0, g2, b)
    g1_safe = np.where(lo_pos > 0.0, g1, g2_safe)

    def theta_at(g):
        return np.arcsin(np.sqrt((g - a) / (b - a)))

    def log_antideriv(g):
        # normalized so the value at g = b is exactly 0
        with np.errstate(divide="ignore"):
            t = np.sqrt((g - a) / np.maximum(b - g, 0.0))
            return (
                np.log(g * (b - a) / (g - a)) - 2.0 * np.log(sqb + sqna / t)
            ) / (2.0 * sqab)

    j1 = log_antideriv(g1_safe)
    j2 = log_antideriv(g2_safe)
    out = r2 * (theta_at(g2) - theta_at(g1)) - hi * j2 + lo_pos * j1
    return np.where(hi > 0.0, out, 0.0)


def _band_areas(a, b, lo, hi, r2):
    """Areas of {a u^2 + b v^2 in (lo, hi), u^2 + v^2 < r2} for a < 0 < b,
    exactly, vectorized over the level/radius arrays."""
    positive = _half_turn_band_integral(a, b, lo, hi, r2)
    negative = _half_turn_band_integral(-b, -a, -hi, -lo, r2)
    return 2.0 * (positive + negative)


def _integral_volume_once(mu, t_inf, alpha, beta, n):
    """One quadrature pass: the extreme eigen pair is integrated in closed
    form (uniformly accurate in t_inf, unlike a product grid around the
    thinning light-cone band), the middle d-2 coordinates on a midpoint
    grid."""
    d = len(mu)
    a, b = mu[0], mu[-1]
    if d == 2:
        area = _band_areas(
            a, b, np.array([alpha]), np.array([beta]), np.array([t_inf**2])
        )
        return float(area[0])
    h = 2.0 * t_inf / n
    axis = -t_inf + h * (np.arange(n) + 0.5)
    grids = np.meshgrid(*([axis] * (d - 2)), indexing="ij")
    q_mid = sum(m * g**2 for m, g in zip(mu[1:-1], grids)).ravel()
    r2 = t_inf**2 - sum(g**2 for g in grids).ravel()
    mask = r2 > 0
    q_mid, r2 = q_mid[mask], r2[mask]
    areas = _band_areas(a, b, alpha - q_mid, beta - q_mid, r2)
    return float(np.sum(areas)) * h ** (d - 2)


def _integral_volume(mu, t_inf, alpha, beta, n):
    coarse = _integral_volume_once(mu, t_inf, alpha, beta, n)
    fine = _integral_volume_once(mu, t_inf, alpha, beta, 2 * n)
    err = 1.5 * abs(fine - coarse) + 1e-12
    return fine, err


def _montecarlo_volume(gram, t_inf, alpha, beta, n, seed):
    d = len(gram)
    rng = np.random.default_rng(seed)
    g = np.array(gram, dtype=float)
    total_hits = 0
    block = 200_000
    done = 0
    while done < n:
        k = min(block, n - done)
        x = rng.standard_normal((k, d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        x *= t_inf * rng.random(k)[:, None] ** (1.0 / d)
        vals = np.einsum("ij,jk,ik->i", x, g, x)
        total_hits += int(np.count_nonzero((vals > alpha) & (vals < beta)))
        done += k
    frac = total_hits / n
    vb = _ball_volume(d, t_inf)
    stderr = vb * math.sqrt(max(frac * (1.0 - frac), 1e-12) / n)
    return vb * frac, 3.0 * stderr


def real_quadric_volume(
    gram_inf,
    t_inf: float,
    interval,
    method: str = "cross",
    n_grid: int | None = None,
    n_samples: int = 400_000,
    seed: int = 0,
    tol_factor: float = 1.5,
):
    """vol{||x|| < T_inf : Q(x) in (alpha, beta)} with an error estimate.

    method "standardized-integral": section quadrature in the eigenbasis;
    "montecarlo": uniform ball sampling; "cross": both, raising
    MethodDisagreement if they differ beyond tol_factor times the combined
    errors. The default slack keeps an honest three-sigma Monte Carlo draw
    from tripping the check; tighten tol_factor to make it strict.
    """
    alpha, beta = float(interval[0]), float(interval[1])
    if beta <= alpha:
        return 0.0, 0.0
    g = np.array([[float(x) for x in row] for row in gram_inf], dtype=float)
    d = g.shape[0]
    mu = np.linalg.eigvalsh(0.5 * (g + g.T))
    if min(abs(mu)) < 1e-12 * max(abs(mu)):
        raise DegenerateForm("real Gram matrix is singular")
    if mu[0] > 0 or mu[-1] < 0:
        raise AnisotropicForm("real form must be indefinite")
    if n_grid is None:
        n_grid = {2: 1, 3: 2000, 4: 200}.get(d, 40)
    if method == "standardized-integral":
        return _integral_volume(mu, float(t_inf), alpha, beta, n_grid)
    if method == "montecarlo":
        return _montecarlo_volume(
            tuple(map(tuple, g)), float(t_inf), alpha, beta, n_samples, seed
        )
    if method != "cross":
        raise ConfigError(f"unknown method {method!r}")
    vi, ei = _integral_volume(mu, float(t_inf), alpha, beta, n_grid)
    vm, em = _montecarlo_volume(
        tuple(map(tuple, g)), float(t_inf), alpha, beta, n_samples, seed
    )
    if abs(vi - vm) > tol_factor * (ei + em) + 1e-12:
        raise MethodDisagreement(
            f"integral {vi}+-{ei} vs montecarlo {vm}+-{em}"
        )
    return vi, ei


# --- leading constant ---------------------------------------------------------

# c_inf's product rule starts at START_NODES Gauss-Legendre nodes per angle
# and doubles them, up to MAX_NODES, until two rules agree to C_INF_RTOL;
# CHUNK bounds the integrand values held at once
START_NODES, MAX_NODES, C_INF_RTOL, CHUNK = 12, 96, 1e-10, 1 << 18


def check_family_range(d: int, family) -> None:
    if d < 3:
        # kappa_inf < d - 2 and the main term c_Q vol(I) T^(d-2) need d >= 3
        raise FamilyOutOfRange(
            f"shrinking targets need a form in d >= 3 variables, got d = {d}"
        )
    if not 0 <= family.kappa_inf < d - 2:
        raise FamilyOutOfRange(
            f"kappa_inf = {family.kappa_inf} outside [0, {d - 2})"
        )
    for p, part in family.finite.items():
        if part.kappa not in (0, 1):
            raise FamilyOutOfRange(f"kappa_{p} must be 0 or 1")
        if d == 3 and part.kappa != 0:
            raise FamilyOutOfRange("kappa_p must be 0 in dimension 3")


def _orthant_rule(inv, theta, w):
    """(values of sum_i inv[i] x_i^2, weights) of the product rule with
    angle nodes theta in [0, pi/2] and weights w on the unit sphere of R^k,
    k = len(inv). The values are even in each coordinate, so the rule covers
    one orthant and each coordinate doubles the weights; k = 1 is S^0."""
    vals, wts = np.array([inv[-1]]), np.array([2.0])
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    for m, x in enumerate(inv[-2::-1], start=1):
        # (cos t, sin t * y) for y on S^(m-1) has measure sin^(m-1) t dt dy
        vals = ((cos2 * x)[:, None] + sin2[:, None] * vals).ravel()
        wts = ((2.0 * w * np.sin(theta) ** (m - 1))[:, None] * wts).ravel()
    return vals, wts


def _light_cone(lam, nu, n: int) -> float:
    """The rule with n nodes per angle for the integral over S^(p-1) x
    S^(q-1) of (sum w_i^2/lam_i + sum e_j^2/nu_j)^(-(d-2)/2), summed in
    chunks over the first angle of the larger sphere."""
    if len(lam) < len(nu):
        lam, nu = nu, lam
    x, w = np.polynomial.legendre.leggauss(n)
    theta, w = np.pi / 4 * (x + 1.0), np.pi / 4 * w
    a, wa = _orthant_rule(1.0 / lam[1:], theta, w)
    b, wb = _orthant_rule(1.0 / nu, theta, w)
    w1 = 2.0 * w * np.sin(theta) ** (len(lam) - 2)
    cos2, sin2 = np.cos(theta) ** 2 / lam[0], np.sin(theta) ** 2
    power = 1.0 - (len(lam) + len(nu)) / 2
    step = max(1, CHUNK // (len(a) * len(b)))
    total = 0.0
    for s in (slice(i, i + step) for i in range(0, n, step)):
        f = ((cos2[s, None] + sin2[s, None] * a)[:, :, None] + b) ** power
        total += w1[s] @ (f @ wb @ wa)
    return float(total)


def _c_inf(gram_inf) -> tuple[float, float]:
    """(c, error) for c = lim vol{|x| < T : Q(x) in I} / (|I| T^(d-2)), the
    light-cone density of Siegel and of Eskin-Margulis-Mozes. In the
    eigenbasis (eigenvalues lam_i > 0 and -nu_j < 0 of G), u = sqrt(lam) y
    and v = sqrt(nu) z give c = _light_cone / (2 (d-2) sqrt|det G|). The
    integrand is analytic, so the rules converge geometrically; the error
    is the gap between the last two."""
    mu = np.linalg.eigvalsh(np.array(gram_inf, dtype=float))
    lam, nu = mu[mu > 0], -mu[mu < 0]
    scale = 2.0 * (len(mu) - 2) * math.sqrt(np.prod(lam) * np.prod(nu))
    n, value, gap = START_NODES, _light_cone(lam, nu, START_NODES), math.inf
    while gap > C_INF_RTOL * value and 2 * n <= MAX_NODES:
        n *= 2
        finer = _light_cone(lam, nu, n)
        gap, value = abs(finer - value), finer
    return value / scale, gap / scale


def leading_constant(
    q_form: QuadraticFormS, family, t_p: dict | None = None
) -> tuple[float, float]:
    """(c_Q, error), c_Q the limit of vol(Q^{-1}(I_T) cap B_T) / (vol(I_T)
    |T|^(d-2)): c_inf times the exact factor prod_p vol_p / p^(t_p (d-2) -
    e_p) at the given t_p, with c_inf's error scaled alike. The family
    follows the shrinking-family protocol: kappa_inf, finite (p to a part
    with a, c, kappa) and finite_target(p, t_p).
    """
    d = q_form.dim
    if d < 3:
        raise ConfigError("leading constant needs d >= 3")
    if not q_form.nondegenerate:
        raise DegenerateForm("form is degenerate")
    if not is_isotropic(q_form, None):
        raise AnisotropicForm("form must be isotropic at every place")
    check_family_range(d, family)
    finite = Fraction(1)
    for p in q_form.ctx.primes:
        tp = (t_p or {}).get(p, 0)
        a_p, e_p = family.finite_target(p, tp)
        finite *= padic_quadric_volume(
            PadicVolumeRequest(p, q_form.gram_at(p), t=tp, a=a_p, c=e_p)
        ) / Fraction(p) ** (tp * (d - 2) - e_p)
    c_inf, err = _c_inf(q_form.gram_at(INF))
    return c_inf * float(finite), err * float(finite)
