"""Volumes of quadric slices intersected with S-balls.

Finite places: exact Haar volumes by Hensel reduction of the local density
over the Jordan blocks of the Gram matrix over Z_p (qspace._jordan_blocks).
Solutions whose unit-scale coordinates are not all divisible by p lift
uniformly from residues mod p (mod 8 at p = 2), so they are counted there;
the rest are p times a solution of a rescaled form, which the next pass
handles. The work is O(m) small counts, not a count at the full modulus
p^m. The same volumes decide isotropy at p: two of them measure the
primitive zeros of the form, deep enough that Hensel lifts them.

Real place: one Gauss-Legendre product rule over the two eigen-spheres of
the Gram matrix serves both the volume at finite T, whose integrand is a
piecewise-smooth radial integral, and the light-cone constant, whose
integrand is its T -> infinity limit. The leading constant c_Q is that
constant times the exact finite-place volumes.
"""

from __future__ import annotations

import math
from functools import cache
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .errors import ConfigError
from .qspace import QuadraticFormS, _jordan_blocks
from .sarith import INF, frac_mod, min_valuation, valuation


# --- p-adic volumes -----------------------------------------------------------

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
    return min_valuation((block[0][0], 2 * block[0][1], block[1][1]), p)


def _scaled(block, f: Fraction) -> tuple:
    return tuple(tuple(f * x for x in row) for row in block)


def padic_quadric_volume(p: int, gram, t: int = 0, a=0, c: int = 0) -> Fraction:
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
    gram = la.as_matrix(gram)
    d = len(gram)
    if la.det(gram) == 0:
        raise ConfigError("form is degenerate")
    a = Fraction(a)
    ball = Fraction(p) ** (d * t)
    s = 2 * t + c
    b = Fraction(p) ** (2 * t) * a
    lam = min(0, min_valuation((x for row in gram for x in row), p))
    if b != 0:
        lam = min(lam, valuation(b, p))
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


# --- real volumes and the leading constant ------------------------------------

# a sphere rule starts at START_NODES Gauss-Legendre nodes per angle and
# doubles them until two rules agree to RTOL, or until the next rule would
# need more than MAX_NODES nodes or MAX_EVALS integrand values; CHUNK bounds
# the integrand values held at once, and ROUNDING floors the relative error
# at float rounding
START_NODES, RTOL, ROUNDING = 12, 1e-10, 1e-12
MAX_NODES, MAX_EVALS, CHUNK = 1536, 96**4, 1 << 16


@cache
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]. numpy's weights are off
    by up to 1e-9 relative at the ends, where an ill-conditioned form puts
    its mass, so they are recomputed from P_n' at the refined nodes."""
    leg = np.polynomial.legendre
    x, _ = leg.leggauss(n)
    dp = leg.legval(x, leg.legder([0] * n + [1]))
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    return x, 2.0 * w / w.sum()


def _orthant_rule(inv, theta, w, index):
    """(values of sum_i inv[i] x_i^2, weights) at the flat indices index of
    the product rule with angle nodes theta in [0, pi/2] and weights w on the
    unit sphere of R^k, k = len(inv), which has len(theta)^(k-1) points. The
    values are even in each coordinate, so the rule covers one orthant and
    each coordinate doubles the weights; k = 1 is S^0."""
    vals = np.full(len(index), inv[-1])
    wts = np.full(len(index), 2.0)
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    for m, x in enumerate(inv[-2::-1], start=1):
        # (cos t, sin t * y) for y on S^(m-1) has measure sin^(m-1) t dt dy
        index, i = np.divmod(index, len(theta))
        vals = cos2[i] * x + sin2[i] * vals
        wts = (2.0 * w * np.sin(theta) ** (m - 1))[i] * wts
    return vals, wts


def _sphere_integral(gram, integrand, width=lambda n: 1) -> tuple[float, float]:
    """(I, error) for I = |det G|^(-1/2) times the integral over S^(p-1) x
    S^(q-1) of f(A, B), where G has eigenvalues lam_1..lam_p > 0 and
    -nu_1..-nu_q < 0, A = sum w_i^2/lam_i and B = sum e_j^2/nu_j, and S^0 =
    {+-1} has counting measure. integrand(n, p, q) gives f for the rule with
    n nodes per angle, which takes the arrays of A and B at a chunk of the
    rule's pairs; f computes width(n) values per pair. The error is the gap
    between the last two rules, floored at float rounding."""
    mu = np.linalg.eigvalsh(np.array(gram, dtype=float))
    if min(abs(mu)) < 1e-12 * max(abs(mu)):
        raise ConfigError("real Gram matrix is singular")
    if mu[0] > 0 or mu[-1] < 0:
        raise ConfigError("real form must be indefinite")
    lam, nu = mu[mu > 0], -mu[mu < 0]
    p, q = len(lam), len(nu)

    def rule(n):
        f = integrand(n, p, q)
        x, w = _gauss_legendre(n)
        theta, w = np.pi / 4 * (x + 1.0), np.pi / 4 * w
        pairs, nb = n ** (p + q - 2), n ** (q - 1)
        step = max(1, CHUNK // width(n))
        total = 0.0
        for start in range(0, pairs, step):
            i, j = np.divmod(np.arange(start, min(start + step, pairs)), nb)
            a, wa = _orthant_rule(1.0 / lam, theta, w, i)
            b, wb = _orthant_rule(1.0 / nu, theta, w, j)
            total += (wa * wb) @ f(a, b)
        return float(total)

    n, value, gap = START_NODES, rule(START_NODES), math.inf
    while (
        gap > RTOL * abs(value)
        and 2 * n <= MAX_NODES
        and width(2 * n) * (2 * n) ** (p + q - 2) <= MAX_EVALS
    ):
        n *= 2
        finer = rule(n)
        gap, value = abs(finer - value), finer
    scale = math.sqrt(np.prod(lam) * np.prod(nu))
    return value / scale, max(gap, ROUNDING * abs(value)) / scale


def real_quadric_volume(gram_inf, t_inf: float, interval) -> tuple[float, float]:
    """(vol, error) for vol{||x|| < T : Q(x) in (alpha, beta)}.

    In the eigenbasis put u = sqrt(lam) y = r w and v = sqrt(nu) z = s e, w
    and e on the unit spheres. Then Q = r^2 - s^2 and ||x||^2 = A r^2 + B
    s^2, so the volume is the sphere integral of _sphere_integral with

        F(A, B) = int_0^inf s^(q-1) [(r_hi^p - r_lo^p) / p]_+ ds,

    r_lo^2 = max(0, alpha + s^2), r_hi^2 = min(beta + s^2, (T^2 - B s^2)/A).
    The s-integrand is smooth between the breakpoints sqrt(-alpha),
    sqrt(-beta), sqrt((T^2 - A beta)/(A + B)) and sqrt((T^2 - A alpha)/(A +
    B)) or T/sqrt(B), where it ends. On each piece a Gauss-Legendre rule in
    t, with s = u0 + (u1 - u0)(3t^2 - 2t^3), absorbs the (.)^(p/2) endpoint
    singularities. Its branch points off the real axis, at s = +-i sqrt|alpha|
    and +-i sqrt|beta|, lie close to a long piece when T^2 >> |alpha|, so the
    s-rule has twice the nodes of the angle rule and is refined with it.
    """
    alpha, beta = float(interval[0]), float(interval[1])
    if beta <= alpha:
        return 0.0, 0.0
    try:
        t2 = float(t_inf) ** 2
    except OverflowError:
        raise ConfigError(
            f"t_inf = {t_inf!r} is too large: its square overflows a float"
        ) from None
    fixed = [c for c in (-alpha, -beta) if c > 0.0]

    def s_nodes(n):
        return min(2 * n, MAX_NODES)

    def radial(n, p, q):
        x, w = _gauss_legendre(s_nodes(n))
        t = (x + 1.0) / 2.0
        ramp, jac = t * t * (3.0 - 2.0 * t), 3.0 * t * (1.0 - t) * w

        def f(a, b):
            a, b = a[:, None, None], b[:, None, None]
            # past end the s-interval is empty: r_lo has met r_hi, or the
            # ball ends first when T/sqrt(B) < sqrt(-alpha)
            meet = (t2 - a * alpha) / (a + b)
            end = np.where(t2 + b * alpha >= 0.0, meet, t2 / b)
            cuts = np.broadcast_arrays(0.0, *fixed, (t2 - a * beta) / (a + b), end)
            cuts = np.clip(np.concatenate(cuts, axis=1), 0.0, end)
            knots = np.sqrt(np.sort(cuts, axis=1))
            h = np.diff(knots, axis=1)
            s = knots[:, :-1] + h * ramp
            s2 = s * s
            lo = np.maximum(alpha + s2, 0.0)
            hi = np.maximum(np.minimum(beta + s2, t2 / a - b / a * s2), 0.0)
            g = np.maximum(hi ** (p / 2) - lo ** (p / 2), 0.0) * s ** (q - 1)
            return ((g * h) @ jac).sum(axis=1) / p

        return f

    pieces = len(fixed) + 2
    return _sphere_integral(gram_inf, radial, lambda n: pieces * s_nodes(n))


def check_family_range(d: int, family) -> None:
    if d < 3:
        # kappa_inf < d - 2 and the main term c_Q vol(I) T^(d-2) need d >= 3
        raise ConfigError(
            f"shrinking targets need a form in d >= 3 variables, got d = {d}"
        )
    if not 0 <= family.kappa_inf < d - 2:
        raise ConfigError(
            f"kappa_inf = {family.kappa_inf} outside [0, {d - 2})"
        )
    for p, part in family.finite.items():
        if part.kappa not in (0, 1):
            raise ConfigError(f"kappa_{p} must be 0 or 1")
        if d == 3 and part.kappa != 0:
            raise ConfigError("kappa_p must be 0 in dimension 3")


def _c_inf(gram_inf) -> tuple[float, float]:
    """(c, error) for c = lim vol{|x| < T : Q(x) in I} / (|I| T^(d-2)), the
    light-cone density of Siegel and of Eskin-Margulis-Mozes: the limit of
    real_quadric_volume's F(A, B) / (|I| T^(d-2)) is (A + B)^(1 - d/2) /
    (2 (d - 2)). The integrand is analytic, so the rules converge
    geometrically."""
    def light_cone(n, p, q):
        power = 1 - (p + q) / 2
        return lambda a, b: (a + b) ** power

    value, err = _sphere_integral(gram_inf, light_cone)
    scale = 2.0 * (len(gram_inf) - 2)
    return value / scale, err / scale


def is_isotropic(q_form: QuadraticFormS, place) -> bool:
    """Does q represent zero nontrivially at the place?

    Real place: mixed signature, read off the split at p = 3, which is a
    congruence over Q into 1x1 blocks, so Sylvester's law applies.

    Finite place p: with v the least v_p of the Gram entries, Q' = p^-v Q
    has the p-integral Gram G' and k = v_p(2 det G'). A primitive x has
    det(G') x = (x G') adj(G'), so its gradient 2 x G' has valuation at
    most k, and a primitive zero of Q' mod p^(2k+1) lifts (Hensel). The
    zeros of Q' mod p^(2k+1) on Z_p^d are Q(x) in p^c Z_p, c = 2k + 1 + v;
    those on p Z_p^d are p y with Q'(y) = 0 mod p^(2k-1), of volume p^-d
    times the same count at c - 2. Q is isotropic iff the primitive zeros,
    the difference, have positive volume.
    """
    if not q_form.nondegenerate:
        raise ConfigError("isotropy undefined for degenerate forms")
    gram = q_form.gram_at(place)
    if place == INF:
        signs = {block[0][0] > 0 for block in _jordan_blocks(gram, 3)}
        return len(signs) == 2
    p, d = place, q_form.dim
    v = min_valuation((x for row in gram for x in row), p)
    c = 2 * (valuation(2 * la.det(gram), p) - d * v) + 1 + v
    return padic_quadric_volume(p, gram, c=c) > padic_quadric_volume(
        p, gram, c=c - 2
    ) / p**d


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
        raise ConfigError("form is degenerate")
    for place in (INF, *q_form.ctx.primes):
        if not is_isotropic(q_form, place):
            at = "the real place" if place == INF else f"p = {place}"
            raise ConfigError(
                f"form is anisotropic at {at}; c_Q needs isotropy at every "
                "place of S"
            )
    check_family_range(d, family)
    finite = Fraction(1)
    for p in q_form.ctx.primes:
        tp = (t_p or {}).get(p, 0)
        a_p, e_p = family.finite_target(p, tp)
        finite *= padic_quadric_volume(
            p, q_form.gram_at(p), t=tp, a=a_p, c=e_p
        ) / Fraction(p) ** (tp * (d - 2) - e_p)
    c_inf, err = _c_inf(q_form.gram_at(INF))
    return c_inf * float(finite), err * float(finite)
