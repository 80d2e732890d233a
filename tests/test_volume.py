"""Tests for quadric slice volumes.

The p-adic engine (Jordan blocks, then a Hensel reduction that counts
residues mod p, or mod 8 at p = 2) is checked against two slow oracles:
a direct count that clears denominators with an integer scale and
evaluates the quadratic form on every residue vector mod the exact modulus
of that integer condition, sharing no counting machinery with the engine;
and a per-block histogram convolution at the full modulus p^m, which
counts every residue the reduction skips.  Real
volumes, which the engine integrates over the two eigen-spheres, are
checked against section integrals in cylindrical, polar and shell
coordinates, against a band-area quadrature (closed-form areas for the
extreme eigen pair, a midpoint grid for the rest) and against Monte Carlo;
each reported error must cover the distance to an exact value.
The light-cone constant c_Q is checked against six closed forms, under a
rational rotation, and against real volumes as T doubles.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from sqcount import _linalg as la
from sqcount.cli import main
from sqcount.errors import ConfigError
from sqcount.qspace import _jordan_blocks, quadratic_form
from sqcount.sarith import INF, SConfig, frac_mod, valuation
from sqcount.volume import (
    leading_constant,
    padic_quadric_volume,
    real_quadric_volume,
)
from test_linalg import identity

F = Fraction
S0 = SConfig(())
S3 = SConfig((3,))

TERN = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
QUAT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
HYP2 = ((0, 1), (1, 0))  # Q = 2 x1 x2
# ball depths t whose full modulus p^(2t + c) no residue count reaches
DEEP = {2: 1000, 3: 400, 5: 200}
QUAT31 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))  # diag:1,1,1,-1


def frac_gram(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def mat_mul(a, b):
    """The exact product a b: row i is a[i] b."""
    return tuple(la.vec_mat(row, b) for row in a)


# --- independent p-adic oracle --------------------------------------------------

def _cleared(gram, p, b, s_eff):
    """(integer Gram, integer target, exponent E) of the condition
    D*Q(y) = D*b mod p^E, D the lcm of all denominators and
    E = s_eff + v_p(D)."""
    dens = [F(x).denominator for row in gram for x in row]
    dens.append(F(b).denominator)
    big_d = math.lcm(*dens)
    g_int = [[int(F(x) * big_d) for x in row] for row in gram]
    return g_int, int(F(b) * big_d), s_eff + valuation(F(big_d), p)


def oracle_fraction(gram, p, b, s_eff):
    """Fraction of y in Z_p^d with v_p(Q(y) - b) >= s_eff, by direct count.

    With denominators cleared the condition depends only on y mod p^E, and
    the count runs over those residues.
    """
    d = len(gram)
    g_int, b_int, mod_exp = _cleared(gram, p, b, s_eff)
    if mod_exp <= 0:
        return F(1)
    pm = p**mod_exp
    assert pm**d <= 700_000, "oracle instance too large"
    grid = np.indices((pm,) * d).reshape(d, -1).T.astype(np.int64)
    qv = np.einsum("ij,jk,ik->i", grid, np.array(g_int, dtype=np.int64), grid)
    hits = int(np.count_nonzero((qv - b_int) % pm == 0))
    return F(hits, pm**d)


def oracle_volume(gram, p, t=0, a=F(0), c=0):
    b = F(p) ** (2 * t) * F(a)
    return F(p) ** (len(gram) * t) * oracle_fraction(gram, p, b, 2 * t + c)


def histogram_volume(gram, p, t=0, a=F(0), c=0):
    """vol_p by convolving per-Jordan-block residue histograms at the full
    modulus M = p^m that decides the target: O(M^2) work per block."""
    d = len(gram)
    ball = F(p) ** (d * t)
    b = F(p) ** (2 * t) * F(a)
    vals = [valuation(x, p) for row in gram for x in row if x != 0]
    lam = min([0, *vals] + ([valuation(b, p)] if b else []))
    m = 2 * t + c - lam
    if m <= 0:
        return ball
    big_m = p**m
    scale = F(1) / F(p) ** lam
    combined = {0: 1}
    for block in _jordan_blocks(gram, p):
        coeffs = [frac_mod(x * scale, big_m) for row in block for x in row]
        if len(block) == 1:
            values = (coeffs[0] * y * y for y in range(big_m))
        else:
            aa, bb, _, cc = coeffs
            values = (aa * y1 * y1 + 2 * bb * y1 * y2 + cc * y2 * y2
                      for y1 in range(big_m) for y2 in range(big_m))
        hist = {}
        for v in values:
            hist[v % big_m] = hist.get(v % big_m, 0) + 1
        nxt = {}
        for r1, c1 in combined.items():
            for r2, c2 in hist.items():
                key = (r1 + r2) % big_m
                nxt[key] = nxt.get(key, 0) + c1 * c2
        combined = nxt
    target = frac_mod(b * scale, big_m) if b else 0
    return ball * F(combined.get(target, 0), p ** (d * m))


def _random_request(rng):
    """(gram, p, t, a, c): fractional Gram entries, biased at p = 2 toward
    2x2 Jordan blocks (even diagonal, odd off-diagonal), and centers a whose
    valuation is often negative."""
    p = rng.choice([2, 3, 5, 7])
    d = rng.choice([2, 3, 4])
    even_diagonal = p == 2 and rng.random() < 0.4
    g = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            num = rng.randrange(-6, 7)
            if i == j and even_diagonal:
                num *= 2
            g[i][j] = g[j][i] = F(num, rng.choice([1, 1, 1, 2, 3, p]))
    a = F(rng.randrange(-9, 10), rng.choice([1, 1, p, p * p]))
    t, c = rng.choice([-1, 0, 1, 2]), rng.choice(range(-1, 4))
    return tuple(map(tuple, g)), p, t, a, c


class TestPadicVolume:
    def test_ternary_zero_target_is_one_third(self):
        assert padic_quadric_volume(3, frac_gram(TERN), t=0, a=F(0), c=1) == F(1, 3)
        # direct zero count over the 27 residue vectors mod 3
        zeros = sum(
            1
            for x in range(3)
            for y in range(3)
            for z in range(3)
            if (x * x + y * y - z * z) % 3 == 0
        )
        assert zeros == 9
        assert oracle_volume(frac_gram(TERN), 3, 0, F(0), 1) == F(1, 3)

    def test_whole_ball_is_one(self):
        for p in (2, 3, 5):
            assert padic_quadric_volume(p, frac_gram(TERN), t=0, a=F(0), c=0) == 1
        # target p^{-1}Z_p contains every value too
        assert padic_quadric_volume(3, frac_gram(TERN), t=0, a=F(0), c=-1) == 1

    def test_whole_ball_with_half_integer_gram(self):
        hb = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        assert padic_quadric_volume(2, hb, t=0, a=F(0), c=0) == 1

    def test_deeper_ball_matches_exhaustive_count(self):
        got = padic_quadric_volume(3, frac_gram(TERN), t=1, a=F(0), c=1)
        assert got == oracle_volume(frac_gram(TERN), 3, 1, F(0), 1)
        assert got == F(11, 9)

    def test_target_with_negative_valuation_center(self):
        # Q(Z_3^3) is 3-integral, so a target around 1/3 is missed entirely
        assert padic_quadric_volume(3, frac_gram(TERN), t=0, a=F(1, 3), c=1) == 0
        # but a deep enough ball does reach it
        got = padic_quadric_volume(3, frac_gram(TERN), t=1, a=F(1, 3), c=1)
        assert got == oracle_volume(frac_gram(TERN), 3, 1, F(1, 3), 1)
        assert got > 0

    def test_cross_term_block_at_two(self):
        gram = frac_gram(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
        for t, c, a in [(0, 1, F(0)), (0, 2, F(1)), (1, 1, F(0)), (0, 1, F(1, 2))]:
            want = oracle_volume(gram, 2, t, a, c)
            assert padic_quadric_volume(2, gram, t=t, a=a, c=c) == want

    def test_random_integer_grams_match_oracle(self):
        import random

        rng = random.Random(20260816)
        cases = 0
        while cases < 12:
            p = rng.choice([2, 3])
            d = 3
            g = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    g[i][j] = g[j][i] = F(rng.randrange(-3, 4))
            gram = tuple(tuple(row) for row in g)
            if _det3(gram) == 0:
                continue
            t = rng.choice([0, 1]) if p == 2 else 0
            c = rng.choice([0, 1])
            a = F(rng.randrange(0, p))
            got = padic_quadric_volume(p, gram, t=t, a=a, c=c)
            want = oracle_volume(gram, p, t, a, c)
            assert got == want, (gram, p, t, a, c)
            assert 0 <= got <= F(p) ** (d * t)
            cases += 1

    def test_random_fractional_grams_match_oracle(self):
        import random

        rng = random.Random(7)
        cases = 0
        while cases < 18:
            p = rng.choice([2, 3, 5])
            d = 2
            g = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    g[i][j] = g[j][i] = F(
                        rng.randrange(-4, 5), rng.choice([1, 1, 2, 3])
                    )
            gram = tuple(tuple(row) for row in g)
            if gram[0][0] * gram[1][1] - gram[0][1] ** 2 == 0:
                continue
            t = rng.choice([0, 1])
            c = rng.choice([0, 1, 2])
            a = F(rng.randrange(0, 2 * p), rng.choice([1, 1, p]))
            if p == 5 and 2 * t + c > 2:
                continue  # keep the oracle grid small
            got = padic_quadric_volume(p, gram, t=t, a=a, c=c)
            want = oracle_volume(gram, p, t, a, c)
            assert got == want, (gram, p, t, a, c)
            cases += 1

    def test_s_unit_scaling_invariance(self):
        # x -> ux for a p-adic unit u rescales the form by u^2, same volume
        for p, u in [(3, F(5)), (3, F(1, 5)), (2, F(7)), (5, F(2, 3))]:
            gram = frac_gram(TERN)
            scaled = tuple(tuple(u * u * x for x in row) for row in gram)
            for t, c in [(0, 1), (1, 1), (DEEP[p], 1)]:
                base = padic_quadric_volume(p, gram, t=t, a=F(0), c=c)
                same = padic_quadric_volume(p, scaled, t=t, a=F(0), c=c)
                assert base == same

    def test_p_power_scaling_identity(self):
        # vol(Q(p.), t) = p^d vol(Q, t-1), from the substitution y = p x
        for p in (2, 3):
            gram = frac_gram(TERN)
            scaled = tuple(tuple(p * p * x for x in row) for row in gram)
            for t, c in [(0, 3), (1, 1), (1, 2), (DEEP[p], 2)]:
                lhs = padic_quadric_volume(p, scaled, t=t, a=F(0), c=c)
                rhs = padic_quadric_volume(p, gram, t=t - 1, a=F(0), c=c)
                assert lhs == F(p) ** 3 * rhs

    def test_stabilization_grid_budget_invariance(self):
        forms = {3: frac_gram(TERN), 4: frac_gram(QUAT)}
        for p in (2, 3, 5):
            for d, gram in forms.items():
                v = padic_quadric_volume(p, gram, t=1, a=F(0), c=1)
                assert 0 < v <= F(p) ** d

    def test_deep_target_whose_first_residue_fractions_vanish(self):
        # the residue fractions mod 2 and mod 4 are both 0, so stopping at
        # the first two moduli that agree returned 0 for this volume
        gram = frac_gram(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)))
        assert padic_quadric_volume(2, gram, t=3, a=F(1), c=4) == F(129, 32)

    def test_random_requests_match_both_oracles(self):
        import random

        rng = random.Random(20261018)
        cases = two_by_two = negative_center = 0
        while cases < 500:
            gram, p, t, a, c = _random_request(rng)
            b = F(p) ** (2 * t) * a
            pm = p ** _cleared(gram, p, b, 2 * t + c)[2]
            if pm > 3**7 or pm ** len(gram) > 700_000:
                continue  # keep both oracles small
            try:
                got = padic_quadric_volume(p, gram, t=t, a=a, c=c)
            except ConfigError as exc:
                assert "degenerate" in str(exc)
                continue
            assert got == histogram_volume(gram, p, t, a, c), (gram, p, t, a, c)
            assert got == oracle_volume(gram, p, t, a, c), (gram, p, t, a, c)
            cases += 1
            two_by_two += any(len(bl) == 2 for bl in _jordan_blocks(gram, p))
            negative_center += a != 0 and valuation(a, p) < 0
        assert two_by_two >= 25 and negative_center >= 100

    @pytest.mark.parametrize("p, t, want", [
        (2, 4, F(513, 64)),
        (2, 5, F(2049, 128)),  # full modulus 2^16
        (3, 3, F(147623, 19683)),  # full modulus 3^10
    ])
    def test_deep_targets_of_the_quaternary_family(self, p, t, want):
        # the volume family 2:1:1:1,3:0:1:1 of diag:1,1,1,-1 at depth t_p,
        # i.e. the target a_p + p^(1 + t_p) Z_p; values from an independent
        # numpy cyclic convolution of residue counts at the full modulus
        a = F(1) if p == 2 else F(0)
        assert padic_quadric_volume(p, frac_gram(QUAT31), t=t, a=a, c=1 + t) == want

    def test_degenerate_form_rejected(self):
        with pytest.raises(ConfigError, match="form is degenerate"):
            padic_quadric_volume(3, frac_gram(((1, 0), (0, 0))), t=0, c=1)


def _det3(g):
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


# --- real volumes ---------------------------------------------------------------

def cylindrical_oracle_ternary(t_inf, delta, n=200_000):
    """vol{x^2+y^2-z^2 in (-delta, delta), ||(x,y,z)|| < T} by integrating
    the closed-form z-section length over the cylindrical radius."""
    total = 0.0
    h = t_inf / n
    for i in range(n):
        r = (i + 0.5) * h
        lo = r * r - delta
        hi = min(r * r + delta, t_inf * t_inf - r * r)
        if hi <= max(lo, 0.0):
            continue
        total += 2.0 * math.pi * r * 2.0 * (
            math.sqrt(hi) - math.sqrt(max(lo, 0.0))
        )
    return total * h


def polar_oracle_hyperbola(delta, n=1_000_000):
    """vol{2 x1 x2 in (-delta, delta), ||x|| < 1}: in polar coordinates the
    angular measure of |sin 2t| < u is 4 arcsin(min(1, u))."""
    total = 0.0
    h = 1.0 / n
    for i in range(n):
        r = (i + 0.5) * h
        u = min(1.0, delta / (r * r))
        total += 4.0 * r * math.asin(u)
    return total * h


def shell_oracle(p, t_inf, alpha, beta, n=400):
    """vol{||x|| < T : x_1^2 + ... + x_p^2 - x_(p+1)^2 in (alpha, beta)}: for
    fixed |x_(p+1)| = s the first p coordinates fill a shell of radii lo =
    sqrt(s^2 + alpha) .. hi = min(sqrt(s^2 + beta), sqrt(T^2 - s^2)), so the
    volume is 2 |S^(p-1)| / p times the integral over s > 0 of hi^p - lo^p,
    here by n-node Gauss-Legendre rules between the kinks."""
    t2 = t_inf * t_inf
    kinks = sorted({0.0, math.sqrt(max(0.0, -alpha)), math.sqrt(max(0.0, -beta)),
                    math.sqrt((t2 - beta) / 2), math.sqrt((t2 - alpha) / 2)})
    x, w = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for u0, u1 in zip(kinks, kinks[1:]):
        s = u0 + (u1 - u0) * (x + 1.0) / 2.0
        lo = np.maximum(s * s + alpha, 0.0)
        hi = np.maximum(np.minimum(s * s + beta, t2 - s * s), 0.0)
        total += (u1 - u0) / 2.0 * w @ np.maximum(hi ** (p / 2) - lo ** (p / 2), 0.0)
    sphere = 2.0 * math.pi ** (p / 2) / math.gamma(p / 2)
    return 2.0 * sphere / p * total


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


def _band_grid_volume(mu, t_inf, alpha, beta, n):
    """One pass of the band-area oracle: the areas of {a u^2 + b v^2 in
    (lo, hi), u^2 + v^2 < r2} for the extreme eigen pair a < 0 < b in closed
    form, the middle d-2 coordinates on an n^(d-2) midpoint grid."""
    d = len(mu)
    a, b = mu[0], mu[-1]
    h = 2.0 * t_inf / n
    axis = -t_inf + h * (np.arange(n) + 0.5)
    grids = np.meshgrid(*([axis] * (d - 2)), indexing="ij")
    q_mid = sum(m * g**2 for m, g in zip(mu[1:-1], grids)).ravel()
    r2 = t_inf**2 - sum(g**2 for g in grids).ravel()
    mask = r2 > 0
    q_mid, r2 = q_mid[mask], r2[mask]
    lo, hi = alpha - q_mid, beta - q_mid
    areas = 2.0 * (_half_turn_band_integral(a, b, lo, hi, r2)
                   + _half_turn_band_integral(-b, -a, -hi, -lo, r2))
    return float(np.sum(areas)) * h ** (d - 2)


def band_oracle(gram, t_inf, alpha, beta, n=2000):
    """(vol, error) of the band-area oracle at n and 2n grid points per
    middle coordinate, for d >= 3; the error is 1.5 times their gap."""
    mu = np.linalg.eigvalsh(np.array(gram, dtype=float))
    coarse = _band_grid_volume(mu, t_inf, alpha, beta, n)
    fine = _band_grid_volume(mu, t_inf, alpha, beta, 2 * n)
    return fine, 1.5 * abs(fine - coarse) + 1e-12


def montecarlo_oracle(gram, t_inf, alpha, beta, n=400_000, seed=0):
    """(vol, three standard errors) from n points uniform in the ball."""
    d = len(gram)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x *= t_inf * rng.random(n)[:, None] ** (1.0 / d) / np.linalg.norm(
        x, axis=1, keepdims=True)
    vals = np.einsum("ij,jk,ik->i", x, np.array(gram, dtype=float), x)
    frac = np.count_nonzero((vals > alpha) & (vals < beta)) / n
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * t_inf**d
    return ball * frac, 3.0 * ball * math.sqrt(frac * (1.0 - frac) / n)


# vol{||x|| < 30 : |x1^2 + x2^2 + x3^2 - x4^2| < 1/2}, the shell integral in
# closed form evaluated to 40 digits
QUAT31_T30 = 2827.433242786702848


class TestRealVolume:
    def test_zero_length_interval(self):
        assert real_quadric_volume(TERN, 10.0, (0.5, 0.5)) == (0.0, 0.0)
        assert real_quadric_volume(TERN, 10.0, (0.5, 0.2)) == (0.0, 0.0)

    def test_ternary_example_cross_methods(self):
        v, e = real_quadric_volume(TERN, 10.0, (-0.5, 0.5))
        assert e / v < 1e-10
        want = cylindrical_oracle_ternary(10.0, 0.5)
        assert abs(v - want) < e + 1e-6 * want
        vm, em = montecarlo_oracle(TERN, 10.0, -0.5, 0.5, seed=11)
        assert abs(v - vm) < em
        vb, eb = band_oracle(TERN, 10.0, -0.5, 0.5)
        assert abs(v - vb) < e + eb

    def test_hyperbola_band_against_polar_oracle(self):
        # d = 2: both spheres are S^0, so only the radial rule is left
        want = polar_oracle_hyperbola(0.1)
        v, e = real_quadric_volume(HYP2, 1.0, (-0.1, 0.1))
        assert abs(v - want) < e + 1e-9
        vm, em = montecarlo_oracle(HYP2, 1.0, -0.1, 0.1, seed=11)
        assert abs(v - vm) < em

    @pytest.mark.parametrize("p, sign, t_inf, alpha, beta", [
        (2, 1, 7.0, 1.5, 4.0), (3, 1, 12.0, -2.0, 0.5), (4, 1, 5.0, -3.0, -0.25),
        # -Q has one positive square, so the rule integrates sqrt(s^2 + c)
        # over pieces 1000 times longer than sqrt|c|
        (2, -1, 192.0, -0.3, -0.1),
    ])
    def test_shells_against_closed_form_sections(self, p, sign, t_inf, alpha, beta):
        gram = diag_gram([sign] * p + [-sign])
        interval = sorted((sign * alpha, sign * beta))
        v, e = real_quadric_volume(gram, t_inf, interval)
        want = shell_oracle(p, t_inf, alpha, beta)
        assert abs(v - want) <= e
        assert e <= 1e-11 * v

    def test_error_covers_the_closed_form(self):
        # the benchmark's deep target; the float closed form it checks
        # against is 5.5e-10 below QUAT31_T30, so the error must not be
        v, e = real_quadric_volume(QUAT31, 30.0, (-0.5, 0.5))
        assert abs(v - QUAT31_T30) <= e
        assert 5.5e-10 < e <= 1e-11 * v

    def test_ill_conditioned_form_against_band_oracle(self):
        # eigenvalue ratio 1e4 inside one sign block: the angle rule runs to
        # its node ceiling, and its error is the last gap
        gram = diag_gram((1, F(1, 10000), -1))
        v, e = real_quadric_volume(gram, 10.0, (-0.5, 0.5))
        vb, eb = band_oracle(gram, 10.0, -0.5, 0.5)
        assert abs(v - vb) <= e + eb
        assert e < 1e-7 * v

    @pytest.mark.parametrize("d, n_grid", [(3, 2000), (4, 200), (5, 40)])
    def test_random_forms_against_band_oracle(self, d, n_grid):
        # non-diagonal Grams with distinct eigenvalues, so the integrand
        # varies over both spheres; windows above, below and across zero
        rng = np.random.default_rng(20261018 + d)
        for alpha, beta in ((-0.5, 0.5), (1.0, 2.5), (-3.0, -1.0)):
            gram = random_isotropic_gram(rng, d)
            v, e = real_quadric_volume(gram, 6.0, (alpha, beta))
            vb, eb = band_oracle(gram, 6.0, alpha, beta, n_grid)
            assert abs(v - vb) <= e + eb, (gram, alpha, beta)
            assert e <= 1e-9 * v

    def test_d6_volume_through_the_cli(self, tmp_path, capsys):
        argv = ["volume", "--form", "diag:1,1,1,1,1,-1", "--primes", "2",
                "--c-inf", "1", "--t", "10@2=0", "--leading",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        header, row = (tmp_path / "volume.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        v, e = float(cells["vol_real"]), float(cells["vol_real_err"])
        assert abs(v - shell_oracle(5, 10.0, -0.5, 0.5)) <= e
        assert abs(float(cells["c_q"]) - math.pi**2 / 6) <= float(cells["c_q_err"])

    def test_definite_form_rejected(self):
        with pytest.raises(ConfigError, match="must be indefinite"):
            real_quadric_volume(((1, 0), (0, 1)), 1.0, (-0.1, 0.1))

    def test_singular_gram_rejected(self):
        with pytest.raises(ConfigError, match="Gram matrix is singular"):
            real_quadric_volume(((1, 1), (1, 1)), 1.0, (-0.1, 0.1))


# --- leading constant -----------------------------------------------------------

@dataclass(frozen=True)
class _Part:
    a: Fraction
    c: int
    kappa: int


@dataclass(frozen=True)
class _Family:
    """Minimal stand-in following the shrinking-family protocol."""

    kappa_inf: float
    finite: dict = field(default_factory=dict)

    def finite_target(self, p, t_p):
        part = self.finite[p]
        return part.a, part.c + part.kappa * t_p


# exact light-cone constants of diagonal forms
CLOSED_FORMS = [
    ((1, 1, -1), math.sqrt(2) * math.pi),
    ((1, 1, 1, -1), math.pi),
    ((1, 1, -1, -1), math.pi**2 / 2),
    ((1, 1, 1, -1, -1), 2 * math.pi**2 / (3 * math.sqrt(2))),
    ((1, 1, 1, 1, 1, -1), math.pi**2 / 6),
]


def diag_gram(entries):
    return tuple(
        tuple(F(x) if i == j else F(0) for j in range(len(entries)))
        for i, x in enumerate(entries)
    )


def random_isotropic_gram(rng, d):
    """A random integer Gram, indefinite and not too close to singular."""
    while True:
        a = rng.integers(-3, 4, size=(d, d))
        g = a + a.T
        mu = np.linalg.eigvalsh(g)
        if mu[0] < 0 < mu[-1] and min(abs(mu)) > 0.3:
            return tuple(tuple(F(int(x)) for x in row) for row in g)


class TestLeadingConstant:
    def ternary(self, ctx=S0):
        return quadratic_form(ctx, frac_gram(TERN))

    def test_closed_forms(self):
        for entries, want in CLOSED_FORMS:
            c_q, err = leading_constant(quadratic_form(S0, diag_gram(entries)),
                                        _Family(0.0))
            assert type(c_q) is float and type(err) is float
            assert abs(c_q - want) <= min(err, 1e-10 * want)
            assert err <= 1e-10

    def test_ill_conditioned_form_reaches_its_tolerance(self):
        # eigenvalues 1 and 1e-6 in one sign block put the mass in a band of
        # width 1e-3 at one end of the angle; at d = 3 the sphere integral is
        # 2 pi / (AGM(sqrt(1/l1 + 1/n), sqrt(1/l2 + 1/n)) sqrt(l1 l2 n))
        def agm(x, y):
            while abs(x - y) > 1e-15 * x:
                x, y = (x + y) / 2, math.sqrt(x * y)
            return x

        want = 2 * math.pi / (agm(math.sqrt(2.0), math.sqrt(1e6 + 1)) * 1e-3)
        assert abs(want - 31.789904199) < 1e-9
        q = quadratic_form(S0, diag_gram((1, F(1, 10**6), -1)))
        c_q, err = leading_constant(q, _Family(0.0))
        assert abs(c_q - want) <= min(err, 1e-10 * want)
        assert err <= 1e-10 * want

    def test_rational_rotation_invariance(self):
        # a rational orthogonal U leaves the eigenvalues, hence c_Q, alone
        u = [list(row) for row in identity(4)]
        u[1][1], u[1][2], u[2][1], u[2][2] = F(3, 5), F(-4, 5), F(4, 5), F(3, 5)
        g = diag_gram((1, 2, 3, -7))
        rotated = mat_mul(mat_mul(u, g), tuple(zip(*u)))
        assert rotated != g
        base, _ = leading_constant(quadratic_form(S0, g), _Family(0.0))
        turned, _ = leading_constant(quadratic_form(S0, rotated), _Family(0.0))
        assert abs(turned - base) <= 1e-10 * base

    def test_deviation_shrinks_along_ladder(self):
        # vol / (|I| T^(d-2)) from real_quadric_volume tends to c_Q; at d = 3
        # the gap is O(1/T), so it halves with each doubling of T
        rng = np.random.default_rng(5)
        for d in (3, 3, 4, 4):
            q = quadratic_form(S0, random_isotropic_gram(rng, d))
            c_q, _ = leading_constant(q, _Family(0.0))
            gaps = []
            for t_inf in (48.0, 96.0, 192.0):
                v, _ = real_quadric_volume(q.gram_at(INF), t_inf, (-0.5, 0.5))
                gaps.append(abs(v / t_inf ** (d - 2) / c_q - 1.0))
            assert max(gaps) < 5e-3
            if d == 3:
                assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.01)
                assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.01)
            else:
                assert max(gaps) < 1e-4

    def test_volume_doubles_with_t(self):
        c_q, _ = leading_constant(self.ternary(), _Family(0.0))
        vols = [
            real_quadric_volume(TERN, t_inf, (-0.5, 0.5))[0]
            for t_inf in (48.0, 96.0)
        ]
        assert abs(vols[1] / vols[0] - 2.0) < 0.01  # 2^(d-2) with d = 3
        assert abs(vols[1] / (96.0 * c_q) - 1.0) < 0.01

    def test_linearity_in_interval_length(self):
        # c_Q takes no interval: the volume it predicts is linear in |I|
        c_q, _ = leading_constant(self.ternary(), _Family(0.0))
        for half in (0.25, 0.5):
            v, _ = real_quadric_volume(TERN, 96.0, (-half, half))
            assert abs(v / (2 * half * 96.0 * c_q) - 1.0) < 0.01

    def test_finite_place_factors_cancel_at_level_zero(self):
        base, _ = leading_constant(self.ternary(), _Family(0.0))
        fam = _Family(0.0, finite={3: _Part(F(0), 1, 0)})
        c_q, _ = leading_constant(self.ternary(S3), fam, t_p={3: 0})
        # vol_3 = 1/3 exactly matches the normalizing 3^{-1}, so c_q agrees
        assert c_q == pytest.approx(base, rel=1e-14)

    def test_finite_place_known_multiplier(self):
        base, base_err = leading_constant(self.ternary(), _Family(0.0))
        fam = _Family(0.0, finite={3: _Part(F(0), 1, 0)})
        c_q, err = leading_constant(self.ternary(S3), fam, t_p={3: 1})
        # vol_3(t=1) = 11/9 against a normalization of 3^{-1} * 3^{d-2}
        mult = float(F(11, 9) / (F(1, 3) * 3))
        assert c_q == pytest.approx(mult * base, rel=1e-14)
        assert err == pytest.approx(mult * base_err, rel=1e-14)

    def test_family_out_of_range(self):
        with pytest.raises(ConfigError, match=r"kappa_inf = 1.0 outside \[0, 1\)"):
            leading_constant(self.ternary(), _Family(1.0))
        fam = _Family(0.0, finite={3: _Part(F(0), 1, 1)})
        with pytest.raises(ConfigError, match="kappa_p must be 0 in dimension 3"):
            leading_constant(self.ternary(S3), fam)
        quat = quadratic_form(S3, frac_gram(QUAT))
        fam2 = _Family(0.0, finite={3: _Part(F(0), 1, 2)})
        with pytest.raises(ConfigError, match="kappa_3 must be 0 or 1"):
            leading_constant(quat, fam2)

    def test_quaternary_kappa_one_allowed(self):
        quat = quadratic_form(S3, frac_gram(QUAT))
        fam = _Family(0.0, finite={3: _Part(F(0), 1, 1)})
        c_q, _ = leading_constant(quat, fam, t_p={3: 0})
        assert c_q > 0

    def test_definite_form_rejected(self):
        deff = quadratic_form(S0, frac_gram(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
        with pytest.raises(ConfigError, match="anisotropic at the real place"):
            leading_constant(deff, _Family(0.0))

    def test_degenerate_form_rejected(self):
        deg = quadratic_form(S0, frac_gram(((1, 0, 0), (0, 1, 0), (0, 0, 0))))
        with pytest.raises(ConfigError, match="form is degenerate"):
            leading_constant(deg, _Family(0.0))

    def test_config_errors(self):
        two = quadratic_form(S0, frac_gram(HYP2))
        with pytest.raises(ConfigError):
            leading_constant(two, _Family(0.0))
