"""Tests for the moment machinery: samplers against independent oracles,
Monte Carlo estimates against the exact moment identities, and the exact
series engines against brute-force pair enumeration at doubled depth.

Stochastic assertions use fixed seeds and 4-sigma tolerances; the seeds
were checked against neighbors, nothing is tuned beyond that.
"""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from sqcount import _linalg as la
from sqcount.congruence import (
    congruence_context,
    lift_slq_to_slz,
    sample_slq_uniform,
)
from sqcount.errors import (
    ConfigError,
    DimensionMismatch,
    NonIndicatorUnsupported,
    SearchBudgetExceeded,
)
from sqcount import moments
from sqcount.moments import (
    DEFAULT_SERIES_DEPTH,
    MCMC_BURN_IN,
    MCMC_STEP,
    MCMC_THIN,
    MCEstimate,
    _admissible_walk,
    _expm,
    _pair_terms,
    _series_box,
    _uniform_unit_basis_mod,
    estimate_moments,
    inhom_series,
    lattice_stream,
    second_moment_rhs,
    space_spec,
    variance_check,
)
from sqcount.sarith import SConfig, TVector, is_in_NS, prime_factors, valuation
from sqcount.serialize import frac_str
from sqcount.slattice import (
    ProductBox,
    SBox,
    affine_slattice_split,
    count_points,
    enumerate_points,
)

S2 = SConfig((2,))
S23 = SConfig((2, 3))
S0 = SConfig(())


# --- space specifications ----------------------------------------------------------------


class TestSpaceSpec:
    def test_kinds_are_exact_names(self):
        assert space_spec("base", 2, S2).kind == "base"
        cctx = congruence_context(2, 5, (1, 0), S2)
        assert space_spec("congruence", 2, S2, cctx=cctx).kind == "congruence"
        for kind in ("projective", "Base", "congruence-y"):
            with pytest.raises(ConfigError, match="unknown space kind"):
                space_spec(kind, 2, S2, cctx=cctx)

    def test_congruence_needs_context(self):
        with pytest.raises(ConfigError):
            space_spec("congruence", 2, S2)
        with pytest.raises(DimensionMismatch):
            space_spec("congruence", 3, S2, cctx=congruence_context(2, 5, (1, 0), S2))
        with pytest.raises(ConfigError):
            space_spec("affine", 2, S2, cctx=congruence_context(2, 5, (1, 0), S2))

    def test_exactness_follows_d(self):
        assert space_spec("base", 2, S2).exactness == "exact"
        for d in (3, 4):
            assert space_spec("base", d, S2).exactness == "mcmc-approximate"

    def test_depth_validation(self):
        assert space_spec("base", 2, S2, depth=4).depth == {2: 4}
        with pytest.raises(ConfigError):
            space_spec("base", 2, S2, depth={3: 4})
        with pytest.raises(ConfigError):
            space_spec("base", 2, S2, depth={2: 0})


# --- samplers ----------------------------------------------------------------------------


def _shortest_norm_2d(basis) -> float:
    """Lagrange reduction on a float 2x2 row basis."""
    u = [float(x) for x in basis[0]]
    v = [float(x) for x in basis[1]]
    if u[0] ** 2 + u[1] ** 2 > v[0] ** 2 + v[1] ** 2:
        u, v = v, u
    while True:
        nu = u[0] ** 2 + u[1] ** 2
        mu = round((u[0] * v[0] + u[1] * v[1]) / nu)
        v = [v[0] - mu * u[0], v[1] - mu * u[1]]
        nv = v[0] ** 2 + v[1] ** 2
        if nv >= nu:
            return math.sqrt(nu)
        u, v = v, u


def _ks_statistic(a, b) -> float:
    a = np.sort(np.asarray(a))
    b = np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


class TestSiegelSampler:
    def test_shortest_vector_ks_against_oracle(self):
        # main path: sample lattices, reduce the float basis
        sp = space_spec("base", 2, S0)
        stream = lattice_stream(sp, np.random.default_rng(20240501))
        n = 20_000
        main = [_shortest_norm_2d(next(stream).basis_inf) for _ in range(n)]
        # oracle: on the fundamental domain the shortest vector of the
        # lattice of z = x+iy is 1/sqrt(y); sample y by 1/uniform, which has
        # the same 1/y^2 envelope, and reject below the unit circle
        rng = np.random.default_rng(77)
        oracle = []
        while len(oracle) < n:
            u = rng.random() * 2.0 / math.sqrt(3.0)
            if u == 0.0:
                continue
            y = 1.0 / u
            x = rng.random() - 0.5
            if x * x + y * y >= 1.0:
                oracle.append(math.sqrt(u))
        assert _ks_statistic(main, oracle) <= 0.02

    def test_base_first_moment_matches_volume(self):
        sp = space_spec("base", 2, S0)
        box = SBox(TVector(2.0, {}, S0))
        (est,) = estimate_moments(
            sp, box, (1,), n=20_000, seed=101
        )
        assert est.sampler_exactness == "exact"
        assert abs(est.mean - box.volume(2)) <= 4 * est.stderr

    def test_finite_sampler_exact_to_depth(self):
        # base lattices over S_f={2}: the finite basis is uniform mod 2^k,
        # so det mod 2 is always a unit and entries are depth-bounded
        sp = space_spec("base", 2, S2, depth=3)
        stream = lattice_stream(sp, np.random.default_rng(4))
        seen = set()
        for _ in range(200):
            lat = next(stream)
            m = lat.basis_p[2]
            assert all(0 <= x < 8 for row in m for x in row)
            assert la.det(m) % 2 != 0
            seen.add(tuple(tuple(x % 2 for x in row) for row in m))
        # all six invertible 2x2 matrices over F_2 show up
        assert len(seen) == 6


class TestAffineSampler:
    def test_first_and_second_moment(self):
        sp = space_spec("affine", 2, S2)
        boxes = [
            SBox(TVector(2.5, {2: 0}, S2)),
            SBox(TVector(1.5, {2: -1}, S2)),
        ]
        # lattice_stream does not depend on the test function, so both boxes
        # are scored on the same draws
        for box in boxes:
            e1, e2 = estimate_moments(
                sp, box, (1, 2), n=6000, seed=7
            )
            vol = box.volume(2)
            assert abs(e1.mean - vol) <= 4 * e1.stderr
            assert abs(e2.mean - (vol * vol + vol)) <= 4 * e2.stderr

    def test_shift_lies_in_lattice_cell(self):
        # the translate is u.g with u drawn from the fundamental cell, so
        # undoing the basis recovers p-integral coordinates
        sp = space_spec("affine", 2, S2)
        stream = lattice_stream(sp, np.random.default_rng(12))
        for _ in range(30):
            lat = next(stream)
            coords = la.vec_mat(lat.shift_p[2], la.inverse(lat.basis_p[2]))
            assert all(c == 0 or valuation(c, 2) >= 0 for c in coords)


class TestCongruenceSampler:
    def test_pinned_point_structure(self):
        # the translate is (w/q) gamma in the drawn basis: q * shift_p *
        # basis_p^{-1} is the integer vector w gamma, here the first row of
        # gamma, so its entries are coprime; the real shift is that vector
        # over q times basis_inf, in floats
        cctx = congruence_context(2, 5, (1, 0), S2)
        sp = space_spec("congruence", 2, S2, cctx=cctx)
        stream = lattice_stream(sp, np.random.default_rng(9))
        residues = set()
        for _ in range(40):
            lat = next(stream)
            rec = la.vec_mat(lat.shift_p[2], la.inverse(lat.basis_p[2]))
            u = tuple(5 * c for c in rec)
            assert all(c.denominator == 1 for c in u)
            assert math.gcd(*(int(c) for c in u)) == 1
            residues.add(tuple(int(c) % 5 for c in u))
            want = np.array([float(c) / 5 for c in u]) @ np.array(lat.basis_inf)
            tol = 1e-9 * (1 + max(abs(c) for c in u))
            assert max(abs(a - c) for a, c in zip(lat.shift_inf, want)) < tol
        # the coset moves the translate off w itself
        assert len(residues) > 1

    def test_first_moment(self):
        cctx = congruence_context(2, 5, (1, 0), S2)
        sp = space_spec("congruence", 2, S2, cctx=cctx)
        box = SBox(TVector(2.5, {2: 0}, S2))
        (est,) = estimate_moments(
            sp, box, (1,), n=4000, seed=3
        )
        assert abs(est.mean - box.volume(2)) <= 4 * est.stderr


class TestCosetMovesOnlyTheTranslate:
    """Z_S^d gamma g + s is Z_S^d g + s for gamma in SL_d(Z); the congruence
    sampler relies on it to leave gamma out of the basis.  Each draw of
    every space, rewritten with basis gamma g at every place and the same
    shifts, keeps its count and the images of its points."""

    @staticmethod
    def _shapes(d, ctx):
        # each 2-adic ball is a congruence on the coordinates that a
        # change of basis moves
        center = (Fraction(1, 2),) + (Fraction(0),) * (d - 1)
        disk = SBox(TVector(3, {2: -1}, ctx), center)
        box = ProductBox(((-2, 2),) * (d - 1) + ((Fraction(-3, 2), 2),),
                         {2: -1}, {2: (Fraction(1, 3),) * d})
        return disk, box

    @staticmethod
    def _turned(lat, gamma):
        """The lattice with basis gamma . basis at every place."""
        return affine_slattice_split(
            lat.ctx,
            np.array(gamma, dtype=float) @ np.array(lat.basis_inf),
            {p: tuple(la.vec_mat(row, b) for row in gamma)
             for p, b in lat.basis_p.items()},
            lat.shift_inf, lat.shift_p, depth=lat.depth,
        )

    @pytest.mark.parametrize("ctx", [S2, S23], ids=["S2", "S23"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["base", "affine", "congruence"])
    def test_counts_and_points_agree(self, kind, d, ctx):
        rng = np.random.default_rng(1000 * d + len(ctx.primes))
        cctx = None
        if kind == "congruence":
            cctx = congruence_context(d, 5, (0,) * (d - 1) + (1,), ctx)
        stream = lattice_stream(space_spec(kind, d, ctx, cctx=cctx), rng)
        for _ in range(3):
            lat = next(stream)
            gamma = lift_slq_to_slz(sample_slq_uniform(d, 5, rng), 5)
            turned = self._turned(lat, gamma)
            for f in self._shapes(d, ctx):
                assert count_points(turned, f) == count_points(lat, f)
                # the finite images at 2 tell the points apart
                want = {pt.finite[2]: pt for pt in enumerate_points(lat, f)}
                got = {pt.finite[2]: pt for pt in enumerate_points(turned, f)}
                assert got.keys() == want.keys()
                for key, pt in got.items():
                    assert pt.finite == want[key].finite
                    assert np.allclose(pt.real, want[key].real, atol=1e-9)


class TestMCMCSampler:
    def test_flagged_and_reported(self):
        sp = space_spec("affine", 3, S2)
        box = SBox(TVector(1.5, {2: 0}, S2))
        (est,) = estimate_moments(
            sp, box, (1,), n=400, seed=2
        )
        assert est.sampler_exactness == "mcmc-approximate"
        # reported, not asserted: the walk should land in the right decade
        rel_err = abs(est.mean - box.volume(3)) / box.volume(3)
        assert rel_err < 0.5

    def test_base_lattice_is_unimodular(self):
        sp = space_spec("base", 3, S2)
        lat = next(lattice_stream(sp, np.random.default_rng(6)))
        det = np.linalg.det(np.array(lat.basis_inf))
        assert abs(abs(det) - 1.0) < 1e-8


# --- the d >= 3 walk against its per-step oracle -----------------------------------------


def _oracle_expm(m):
    out = np.eye(len(m))
    term = np.eye(len(m))
    for k in range(1, 20):
        term = term @ m / k
        out = out + term
    return out


def _oracle_size_reduce(g):
    g = g.copy()
    d = len(g)
    order = sorted(range(d), key=lambda i: float(g[i] @ g[i]))
    g = g[order]
    if np.linalg.det(g) < 0:
        g[[0, 1]] = g[[1, 0]]
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            denom = float(g[j] @ g[j])
            if denom == 0.0:
                continue
            mu = round(float(g[i] @ g[j]) / denom)
            if mu:
                g[i] = g[i] - mu * g[j]
    return g


def _mcmc_step(g, eps, rng):
    """One walk step with its own normal draw and exponential: the slow
    oracle of the block walk."""
    d = len(g)
    x = rng.standard_normal((d, d))
    x = x - np.trace(x) / d * np.eye(d)
    g = g @ _oracle_expm(eps * x)
    g = g / abs(np.linalg.det(g)) ** (1.0 / d)
    return _oracle_size_reduce(g)


class TestBlockWalk:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", [6, 901])
    def test_affine_stream_is_the_per_step_chain(self, d, seed):
        # lattice_stream makes the finite and shift draws between blocks;
        # the oracle walks step by step and makes the same draws in between
        sp = space_spec("affine", d, S2)
        stream = lattice_stream(sp, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        g = np.eye(d)
        for _ in range(MCMC_BURN_IN):
            g = _mcmc_step(g, MCMC_STEP, rng)
        for _ in range(4):
            for _ in range(MCMC_THIN):
                g = _mcmc_step(g, MCMC_STEP, rng)
            lat = next(stream)
            b_p = _uniform_unit_basis_mod(d, 2, sp.depth[2], rng)
            u_inf = rng.random(d)
            rng.integers(0, 2 ** sp.depth[2], d)
            assert np.array_equal(np.array(lat.basis_inf), g)
            assert np.array_equal(np.array(lat.shift_inf), u_inf @ g)
            assert lat.basis_p[2] == la.as_matrix(b_p)

    def test_stacked_expm_is_the_single_expm(self):
        m = MCMC_STEP * np.random.default_rng(3).standard_normal((7, 3, 3))
        for single, a in zip(_expm(m), m):
            assert np.array_equal(single, _expm(a))
            assert np.array_equal(single, _oracle_expm(a))

    def test_stacked_expm_inverts(self):
        m = MCMC_STEP * np.random.default_rng(4).standard_normal((5, 4, 4))
        assert np.allclose(_expm(m) @ _expm(-m), np.eye(4), rtol=0, atol=1e-12)


# --- estimator plumbing ------------------------------------------------------------------


class TestEstimatorPlumbing:
    def test_deterministic_given_seed_and_workers(self):
        sp = space_spec("affine", 2, S2)
        f = SBox(TVector(2.0, {2: 0}, S2))
        a = estimate_moments(sp, f, (1,), n=300, seed=42, workers=3)
        b = estimate_moments(sp, f, (1,), n=300, seed=42, workers=3)
        assert a == b

    def test_orders_share_the_stream(self):
        # adding an order must not consume extra randomness
        sp = space_spec("affine", 2, S2)
        f = SBox(TVector(2.0, {2: 0}, S2))
        (single,) = estimate_moments(sp, f, (1,), n=200, seed=5)
        both = estimate_moments(sp, f, (1, 2), n=200, seed=5)
        assert single.mean == both[0].mean

    def test_worker_split_changes_stream_not_distribution(self):
        sp = space_spec("affine", 2, S2)
        f = SBox(TVector(2.0, {2: 0}, S2))
        (a,) = estimate_moments(sp, f, (1,), n=2000, seed=42, workers=1)
        (b,) = estimate_moments(sp, f, (1,), n=2000, seed=42, workers=4)
        assert a.mean != b.mean
        assert abs(a.mean - b.mean) <= 4 * math.hypot(a.stderr, b.stderr)

    def test_stderr_is_sample_sd_over_sqrt_n(self):
        sp = space_spec("affine", 2, S2)
        f = SBox(TVector(1.5, {2: 0}, S2))
        n = 50
        (est,) = estimate_moments(sp, f, (1,), n=n, seed=8)
        # replay the same stream by hand
        stream = lattice_stream(sp, np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0]))
        vals = [count_points(next(stream), f) for _ in range(n)]
        mean = sum(vals) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
        assert est.mean == pytest.approx(mean)
        assert est.stderr == pytest.approx(sd / math.sqrt(n))

    def test_validation(self):
        sp = space_spec("affine", 2, S2)
        f = SBox(TVector(1.0, {2: 0}, S2))
        with pytest.raises(ConfigError):
            estimate_moments(sp, f, (3,), n=100, seed=0)
        with pytest.raises(ConfigError):
            estimate_moments(sp, f, (1,), n=1, seed=0)
        with pytest.raises(ConfigError):
            estimate_moments(sp, f, (1,), n=10, seed=0, workers=11)


# --- exact pair series -------------------------------------------------------------------

TERN_BOX = ProductBox([(-1, 1)] * 3)  # [-1,1]^3 x Z_2^3 over S2
# nonzero centers of several valuations at 2 and 3, a negative exponent at 2
# and a positive one at 3
CENTERED_BOX = ProductBox(
    [(Fraction(-3, 2), 1), (-1, Fraction(4, 3)), (Fraction(-1, 5), 2)],
    finite_exponent={2: -1, 3: 1},
    finite_center={2: (Fraction(1, 2), 0, Fraction(1, 3)),
                   3: (Fraction(1, 2), 2, Fraction(1, 9))},
)
UNIT_CENTER_BOX = ProductBox(
    [(Fraction(-3, 2), 1), (-1, Fraction(4, 3)), (Fraction(-1, 5), 2)],
    finite_exponent={2: -1, 3: 1},
    finite_center={2: (1, 0, Fraction(1, 3)), 3: (Fraction(1, 2), 2, 0)},
)


def _oracle_pair_series(f, cctx, t_max, bound, depth, gcd_filter=True):
    """Brute-force (t, a) enumeration, written independently of the engine:
    loops over raw numerator/denominator pairs and integrates each term by
    direct interval and ball arithmetic."""
    ctx = cctx.ctx
    q = cctx.q
    ivs = [(Fraction(lo), Fraction(hi)) for lo, hi in f.intervals]
    d = len(ivs)
    total = Fraction(1)
    for lo, hi in ivs:
        total *= hi - lo
    for p in ctx.primes:
        total *= Fraction(p) ** (d * int(f.finite_exponent.get(p, 0)))
    total = total * total
    for t in range(1, t_max + 1):
        if math.gcd(t, q) != 1 or any(t % p == 0 for p in ctx.primes):
            continue
        den = 1
        dens = [1]
        for p in ctx.primes:
            dens = [dd * p**m for dd in dens for m in range(depth.get(p, 0) + 1)]
        for den in dens:
            for num in range(-bound * den, bound * den + 1):
                if num == 0:
                    continue
                a = Fraction(num, den)
                if a.denominator != den:
                    continue  # not reduced: already visited
                if (num - t * den) % q != 0:
                    continue
                if gcd_filter and math.gcd(abs(a.numerator), t) != 1:
                    continue
                term = Fraction(1)
                for lo, hi in ivs:
                    pts = sorted([lo / t, hi / t])
                    qts = sorted([lo / a, hi / a])
                    w = min(pts[1], qts[1]) - max(pts[0], qts[0])
                    term *= max(w, Fraction(0))
                for p in ctx.primes:
                    e = int(f.finite_exponent.get(p, 0))
                    centers = f.finite_center.get(p, (0,) * d)
                    for c in centers:
                        c = Fraction(c)
                        va = valuation(a, p)
                        lo_r, hi_r = min(e, e + va), max(e, e + va)
                        diff = c / t - c / a if c else Fraction(0)
                        if diff != 0 and -valuation(diff, p) > hi_r:
                            term *= 0
                        else:
                            term *= Fraction(p) ** lo_r
                total += term
    return total


class TestPairSeries:
    def test_worked_leading_terms(self):
        # q=5, S_f={2}, box [-1,1]^3 x Z_2^3: hand-computed leading terms,
        # each as a one-element progression
        d, ivs, finite = _series_box(TERN_BOX, S2.primes)
        terms = _pair_terms(d, ivs, finite, S2.primes, 1, 8)
        cases = {
            (1, Fraction(1)): Fraction(8),
            (1, Fraction(-4)): Fraction(1, 8),
            (1, Fraction(6)): Fraction(1, 27),
            (1, Fraction(7, 2)): Fraction(4, 7) ** 3 * Fraction(1, 8),
        }
        for (t, a), want in cases.items():
            n, den = a.numerator, a.denominator
            ms = (valuation(den, 2),)
            tp = t * (2 if den > 1 else 1)
            ((num, dnm, g),) = terms(t, den, ms, range(n, n + 1, 5), tp)
            assert Fraction(num, dnm) == want and math.gcd(num, dnm) == 1
            assert g == abs(n)

    @pytest.mark.parametrize("q", [5, 7])
    def test_matches_doubled_depth_oracle(self, q):
        cctx = congruence_context(3, q, (1, 0, 0), S2)
        boxes = [
            TERN_BOX,
            ProductBox(
                [(Fraction(-1, 2), 1), (-1, 1), (0, 2)], finite_exponent={2: 1}
            ),
            ProductBox(
                [(-1, 1)] * 3, finite_exponent={2: -1}, finite_center={2: (1, 0, 1)}
            ),
        ]
        for f in boxes:
            sv = second_moment_rhs(f, cctx, t_max=6, real_bound=8, depth=3)
            oracle = _oracle_pair_series(f, cctx, t_max=12, bound=16, depth={2: 6})
            assert abs(float(sv.value - oracle)) <= sv.tail_bound

    def test_same_window_oracle_agrees_exactly(self):
        # on an identical truncation window the engine and the independent
        # enumeration must agree as Fractions, not just within tails
        cases = [  # S_f, box, q, t_max, real bound, depth
            (S2, TERN_BOX, 5, 10, 12, 4),
            (S2, CENTERED_BOX, 7, 10, 8, 3),
            (S23, TERN_BOX, 5, 8, 6, 2),
            (S23, CENTERED_BOX, 7, 8, 6, 2),
            (S23, UNIT_CENTER_BOX, 7, 8, 6, 2),
        ]
        for ctx, f, q, t_max, bound, depth in cases:
            cctx = congruence_context(3, q, (1, 0, 0), ctx)
            sv = second_moment_rhs(f, cctx, t_max=t_max, real_bound=bound, depth=depth)
            good = _oracle_pair_series(
                f, cctx, t_max=t_max, bound=bound,
                depth={p: depth for p in ctx.primes},
            )
            assert sv.value == good, (ctx, f)
            assert sv.terms_used > 0

    def test_gcd_filter_negative_control(self):
        # dropping the gcd(a, t) = 1 filter admits the diagonal (3, 3) term
        # among others, so the exact agreement above must break
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        sv = second_moment_rhs(TERN_BOX, cctx, t_max=10, real_bound=12, depth=4)
        bad = _oracle_pair_series(
            TERN_BOX, cctx, t_max=10, bound=12, depth={2: 4}, gcd_filter=False
        )
        assert sv.value != bad
        assert float(bad - sv.value) > Fraction(2, 3) ** 3  # the (3, 3) mass

    def test_degenerate_support_is_exactly_affine_shape(self):
        # real support [1, 6/5]^3 with the 2-adic ball around 1 of radius 1/2:
        # within the truncation only (t, a) = (1, 1) contributes
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        f = ProductBox(
            [(1, Fraction(6, 5))] * 3,
            finite_exponent={2: -1},
            finite_center={2: (1, 1, 1)},
        )
        sv = second_moment_rhs(f, cctx, t_max=12, real_bound=16, depth=6)
        vol = Fraction(1, 5) ** 3 * Fraction(1, 2) ** 3
        assert sv.value == vol * vol + vol
        assert sv.terms_used == 1

    def test_tail_bound_honored_when_deepening(self):
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        shallow = second_moment_rhs(TERN_BOX, cctx, t_max=8, real_bound=10, depth=3)
        deep = second_moment_rhs(TERN_BOX, cctx, t_max=20, real_bound=32, depth=7)
        assert abs(float(deep.value - shallow.value)) <= shallow.tail_bound
        assert deep.tail_bound < shallow.tail_bound

    def test_level_coprimality_in_t(self):
        # q=7: t=7 is skipped, t=5 is kept (and t=2,4,6 die to S_f={2})
        cctx = congruence_context(3, 7, (1, 0, 0), S2)
        sv5 = second_moment_rhs(TERN_BOX, cctx, t_max=5, real_bound=4, depth=2)
        sv7 = second_moment_rhs(TERN_BOX, cctx, t_max=7, real_bound=4, depth=2)
        assert sv7.value == sv5.value

    def test_rejects_non_product_functions_and_d2(self):
        cctx3 = congruence_context(3, 5, (1, 0, 0), S2)
        with pytest.raises(NonIndicatorUnsupported):
            second_moment_rhs(SBox(TVector(1.0, {2: 0}, S2)), cctx3)
        cctx2 = congruence_context(2, 5, (1, 0), S2)
        with pytest.raises(ConfigError):
            second_moment_rhs(ProductBox([(-1, 1)] * 2), cctx2)


# --- slow oracle of the progression kernel ------------------------------------------------


def _slow_pair_term(d, intervals, finite, primes):
    """The pair term at (t, a = n/den) in integers, one term at a time, as
    (numerator, denominator): the per-term kernel that the progression
    kernel _pair_terms replaced, kept as its oracle.

    With the box's endpoints scaled by L and g = |n|, coordinate i
    contributes the overlap of [A_i g, B_i g] with the image of [A_i, B_i]
    under x -> x t den/n, both over the common denominator L t g.  At p
    each coordinate gives p^{e + min(0, v_p(a))}, or 0 when a nonzero
    center puts c/t and c/a farther apart than the larger radius, with
    v_p(c/t - c/a) = v_p(c) + v_p(n - t den) - v_p(n).
    """
    big_l = math.lcm(*(x.denominator for iv in intervals for x in iv))
    ends = tuple((int(lo * big_l), int(hi * big_l)) for lo, hi in intervals)
    places = tuple(
        (p, finite[p][1],
         min((valuation(c, p) for c in finite[p][0] if c), default=None))
        for p in primes
    )

    def term(t, den, ms, n):
        g = abs(n)
        td = t * den
        num = 1
        for lo, hi in ends:
            if n > 0:
                w = min(hi * g, hi * td) - max(lo * g, lo * td)
            else:
                w = min(hi * g, -lo * td) - max(lo * g, -hi * td)
            if w <= 0:
                return 0, 1
            num *= w
        dnm = (big_l * t * g) ** d
        for (p, e, v_c), m in zip(places, ms):
            v_n = valuation(n, p) if n % p == 0 else 0
            v_a = v_n - m
            if v_c is not None and n != td:
                if v_n - v_c - valuation(n - td, p) > e + max(0, v_a):
                    return 0, 1
            k = d * (e + min(0, v_a))
            if k >= 0:
                num *= p**k
            else:
                dnm *= p**-k
        return num, dnm

    return term


def _slow_tree_sum(terms) -> Fraction:
    # pairwise Fraction addition, each merge reduced by Fraction itself
    while len(terms) > 1:
        nxt = [a + b for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def _slow_pair_series(f, cctx, t_max, real_bound, depth):
    """(value, terms used) of second_moment_rhs, term by term: the same walk,
    each admitted n through _slow_pair_term, numerators added per
    denominator and the Fractions summed in a pairwise tree."""
    ctx = cctx.ctx
    d, ivs, finite = _series_box(f, ctx.primes)
    term = _slow_pair_term(d, ivs, finite, ctx.primes)
    dep = {p: depth for p in ctx.primes}
    b = Fraction(real_bound)
    by_den = {}
    used = 0
    for t, den, ms, ns, tp in _admissible_walk(
        t_max, cctx.q, ctx, dep, lambda t: (-b, b), 10**9, "oracle"
    ):
        for n in ns:
            if n and math.gcd(n, tp) == 1:
                num, dnm = term(t, den, ms, n)
                if num:
                    used += 1
                    by_den[dnm] = by_den.get(dnm, 0) + num
    integral = f.volume(ctx.primes)
    fractions = [Fraction(num, dnm) for dnm, num in by_den.items()]
    return _slow_tree_sum([integral**2] + fractions), used


# L > 1 in every box of the grid; zero, unit and non-unit centers
GRID_ENDS = [(Fraction(-1, 2), Fraction(3, 4)), (-1, 1), (Fraction(-3, 2), 1),
             (Fraction(-1, 3), 2), (-1, Fraction(5, 4))]
GRID_CENTERS = {2: (Fraction(1, 2), 0, Fraction(1, 3), 1, 2),
                3: (Fraction(2, 3), 2, Fraction(1, 2), 0, 1)}


def _grid_boxes(d, ctx):
    """Four boxes per (d, S_f): e_p = 0 with zero centers, then the centers
    of GRID_CENTERS (smallest valuation -1 at 2 and at 3) with e_p = -1, 0
    and 1 in turn at each prime."""
    ivs = GRID_ENDS[:d]
    centers = {p: GRID_CENTERS[p][:d] for p in ctx.primes}
    yield ProductBox(ivs)
    for exps in ({2: -1, 3: 1}, {2: 1, 3: 0}, {2: 0, 3: -1}):
        yield ProductBox(
            ivs, finite_exponent={p: exps[p] for p in ctx.primes},
            finite_center=centers,
        )


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The dtype each series kernel picked, in call order."""
    seen = []
    pick = moments._int_dtype

    def spy(bound):
        seen.append(pick(bound))
        return seen[-1]

    monkeypatch.setattr(moments, "_int_dtype", spy)
    return seen


@pytest.fixture
def sum_inputs(monkeypatch):
    """The (num, den) pairs each call of _exact_sum received."""
    seen = []
    add = moments._exact_sum

    def spy(pairs, big, extra):
        seen.append(list(pairs))
        return add(pairs, big, extra)

    monkeypatch.setattr(moments, "_exact_sum", spy)
    return seen


def _in_lowest_terms(v: Fraction) -> bool:
    return v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1


class TestProgressionKernel:
    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("ctx", [S2, S23], ids=["S2", "S23"])
    def test_matches_the_per_term_kernel(self, d, ctx, kernel_dtypes):
        cctx = congruence_context(d, 5, (0,) * (d - 1) + (1,), ctx)
        for f in _grid_boxes(d, ctx):
            sv = second_moment_rhs(f, cctx, t_max=8, real_bound=8, depth=2)
            want, used = _slow_pair_series(f, cctx, 8, 8, 2)
            assert sv.value == want, f
            assert _in_lowest_terms(sv.value)
            assert sv.terms_used == used > 0
        # at d = 5 over S23 the bound (L t_max n_max)^5 passes 2^62
        assert set(kernel_dtypes) == {object if (d, ctx) == (5, S23) else np.int64}

    def test_d5_congruence_box_takes_python_ints(self, kernel_dtypes):
        # the moment-rhs defaults on [-1,1]^5: (16 * 384)^5 > 2^62
        cctx = congruence_context(5, 5, (0, 0, 0, 0, 1), S2)
        f = ProductBox([(-1, 1)] * 5)
        sv = second_moment_rhs(f, cctx)
        assert kernel_dtypes == [object]
        want, used = _slow_pair_series(f, cctx, 16, 24, DEFAULT_SERIES_DEPTH)
        assert sv.value == want and _in_lowest_terms(sv.value)
        assert sv.terms_used == used == 773

    def test_interval_denominator_above_every_n(self, kernel_dtypes):
        # L = 101 exceeds every |n| (at most 4 * 2^2) and t, so only the sum's
        # extra factor puts 101 among the primes of the final reduction
        cctx = congruence_context(3, 5, (0, 0, 1), S2)
        f = ProductBox([(Fraction(-1, 101), Fraction(100, 101)), (-1, 1),
                        (Fraction(-50, 101), Fraction(3, 2))])
        sv = second_moment_rhs(f, cctx, t_max=6, real_bound=4, depth=2)
        want, _ = _slow_pair_series(f, cctx, 6, 4, 2)
        assert sv.value == want and _in_lowest_terms(sv.value)
        assert sv.value.denominator % 101 == 0
        assert kernel_dtypes == [np.int64]

    @pytest.mark.parametrize("q, t_max, removed", [(5, 3, 7), (3, 5, 8)])
    def test_final_reduction_removes_a_prime(self, q, t_max, removed, sum_inputs):
        # the lcm of the terms' denominators is `removed` times the reduced one
        cctx = congruence_context(3, q, (0, 0, 1), S2)
        sv = second_moment_rhs(TERN_BOX, cctx, t_max=t_max, real_bound=6, depth=2)
        (pairs,) = sum_inputs
        assert math.lcm(*(den for _, den in pairs)) == removed * sv.value.denominator
        assert sv.value == _slow_pair_series(TERN_BOX, cctx, t_max, 6, 2)[0]
        assert _in_lowest_terms(sv.value)

    def test_exact_sum_reduces_by_the_extra_primes(self):
        # 50/202 + 51/202 = 1/2: 101 is past the prime table (up to 2) and
        # only the extra factor names it
        big = moments._largest_prime_factors(3)
        v = moments._exact_sum([(50, 202), (51, 202)], big, 101)
        assert (v.numerator, v.denominator) == (1, 2)
        # the lcm tree gives 11/12 as it is, but 4/4 for four quarters:
        # the final reduction removes 2 twice over
        v = moments._exact_sum([(1, 6), (1, 3), (5, 12)], big, 1)
        assert (v.numerator, v.denominator) == (11, 12)
        v = moments._exact_sum([(1, 4)] * 4, big, 1)
        assert (v.numerator, v.denominator) == (1, 1)
        v = moments._exact_sum([(3, 8), (-3, 8)], big, 1)
        assert (v.numerator, v.denominator) == (0, 1)


# --- single-orbit series -----------------------------------------------------------------


def _oracle_orbit_series(f, y, cctx, t_max, bound, depth):
    """Brute-force orbit series, written independently of the engine: loops
    over raw numerator/denominator pairs with |a| <= bound t and tests the
    point (a/t) y against the box by direct Fraction arithmetic."""
    ctx = cctx.ctx
    q = cctx.q
    ivs = [(Fraction(lo), Fraction(hi)) for lo, hi in f.intervals]
    d = len(ivs)
    y = [Fraction(c) for c in y]
    total = Fraction(1)
    for lo, hi in ivs:
        total *= hi - lo
    for p in ctx.primes:
        total *= Fraction(p) ** (d * int(f.finite_exponent.get(p, 0)))
    dens = [1]
    for p in ctx.primes:
        dens = [dd * p**m for dd in dens for m in range(depth[p] + 1)]
    for t in range(1, t_max + 1):
        if math.gcd(t, q) != 1 or any(t % p == 0 for p in ctx.primes):
            continue
        for den in dens:
            for num in range(-bound * t * den, bound * t * den + 1):
                a = Fraction(num, den)
                if num == 0 or a.denominator != den:
                    continue
                if (num - t * den) % q != 0 or math.gcd(a.numerator, t) != 1:
                    continue
                point = [a / t * c for c in y]
                if not all(lo <= x <= hi for x, (lo, hi) in zip(point, ivs)):
                    continue
                inside = True
                for p in ctx.primes:
                    e = int(f.finite_exponent.get(p, 0))
                    centers = f.finite_center.get(p, (0,) * d)
                    for x, c in zip(point, centers):
                        if x != Fraction(c) and -valuation(x - Fraction(c), p) > e:
                            inside = False
                if inside:
                    total += Fraction(1, t**d)
    return total


class TestInhomSeries:
    @pytest.mark.parametrize("ctx, q", [(S2, 5), (S2, 7), (S23, 5), (S23, 7)])
    def test_matches_brute_force_oracle(self, ctx, q):
        # random rational y with zero, negative and non-integral coordinates
        # against the independent enumeration, one denominator deeper than
        # the engine's cap and over a real window wider than the box allows
        cctx = congruence_context(3, q, (1, 0, 0), ctx)
        boxes = [
            CENTERED_BOX,
            UNIT_CENTER_BOX,
            ProductBox(
                [(-3, 3), (Fraction(-3, 2), Fraction(5, 2)), (-2, 2)],
                finite_exponent={p: 1 for p in ctx.primes},
                finite_center={p: (Fraction(1, p), 0, 1) for p in ctx.primes},
            ),
        ]
        rng = np.random.default_rng(17 * q + len(ctx.primes))
        hits = 0
        for f in boxes:
            for case in range(4):
                k = [int(v) for v in rng.integers(-4, 5, 3)]
                k[int(rng.integers(0, 3))] = 0 if case == 0 else -1
                y = tuple(Fraction(v, int(rng.choice([1, 2, 3, 6]))) for v in k)
                sv = inhom_series(f, y, cctx, t_max=16)
                depth = {p: sv.depth.get(p, 0) + 1 for p in ctx.primes}
                bound = max(math.ceil(max(abs(lo), abs(hi)) / abs(c))
                            for c, (lo, hi) in zip(y, f.intervals) if c)
                oracle = _oracle_orbit_series(f, y, cctx, 16, bound + 1, depth)
                assert sv.value == oracle, (f, y)
                hits += sv.terms_used
        assert hits > 0

    def test_tiny_support_picks_out_f_of_y(self):
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        y = (Fraction(3), Fraction(1), Fraction(2))
        f = ProductBox(
            [
                (Fraction(59, 20), Fraction(61, 20)),
                (Fraction(19, 20), Fraction(21, 20)),
                (Fraction(39, 20), Fraction(41, 20)),
            ]
        )
        sv = inhom_series(f, y, cctx, t_max=12)
        assert sv.value == Fraction(1, 10) ** 3 + 1
        assert sv.terms_used == 1

    def test_s_unit_scaling_is_exact(self):
        # series(f, u y) == series(f o u, y) for the S-unit u = 2: exact
        # Fraction equality, with the integral preserved by the product rule
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = [int(x) for x in rng.integers(-40, 41, 3)]
            if all(v == 0 for v in k):
                continue
            y = tuple(Fraction(v, 9) for v in k)
            u = Fraction(2)
            f = ProductBox(
                [(-1, 1), (Fraction(-1, 2), Fraction(3, 2)), (0, 2)],
                finite_exponent={2: 1},
                finite_center={2: (0, 1, 0)},
            )
            f_u = ProductBox(
                [(lo / u, hi / u) for lo, hi in f.intervals],
                finite_exponent={2: 1 + valuation(u, 2)},
                finite_center={2: tuple(Fraction(c) / u for c in f.finite_center[2])},
            )
            left = inhom_series(f, tuple(u * c for c in y), cctx, t_max=10)
            right = inhom_series(f_u, y, cctx, t_max=10)
            assert left.value == right.value

    def test_zero_coordinate_gates_series(self):
        # y_2 = 0 and the box needs coordinate 2 away from 0: nothing but
        # the integral survives
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        f = ProductBox([(-1, 1), (Fraction(1, 2), 1), (-1, 1)])
        sv = inhom_series(f, (Fraction(1), Fraction(0), Fraction(1)), cctx)
        assert sv.value == Fraction(1, 2) * 2 * 2
        assert sv.terms_used == 0 and sv.tail_bound == 0.0

    def test_validation(self):
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        with pytest.raises(ConfigError):
            inhom_series(TERN_BOX, (0, 0, 0), cctx)
        with pytest.raises(DimensionMismatch):
            inhom_series(TERN_BOX, (1, 2), cctx)
        with pytest.raises(NonIndicatorUnsupported):
            inhom_series(SBox(TVector(1.0, {2: 0}, S2)), (1, 1, 1), cctx)

    def test_cross_path_against_pair_series(self):
        # vol(box) * E_y[series(y)] over Haar-like rational y reproduces the
        # pair series: a genuinely different route to the same number
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        rhs = second_moment_rhs(TERN_BOX, cctx, t_max=10, real_bound=12, depth=4)
        m = (1 << 20) - 1  # odd modulus: y stays 2-adically integral
        rng = np.random.default_rng(1234)
        vals = []
        tails = []
        n = 300
        for _ in range(n):
            y = tuple(Fraction(int(k), m) for k in rng.integers(-m, m + 1, 3))
            sv = inhom_series(TERN_BOX, y, cctx, t_max=10)
            vals.append(float(sv.value))
            tails.append(sv.tail_bound)
        vol = 8.0
        mean = vol * float(np.mean(vals))
        stderr = vol * float(np.std(vals, ddof=1)) / math.sqrt(n)
        slack = 4 * stderr + rhs.tail_bound + vol * float(np.mean(tails))
        assert abs(mean - float(rhs.value)) <= slack


# --- series budgets and the benchmark's series ------------------------------------------


def _progression_elements(ctx, q, t_max, depth, window):
    """Brute-force count of the (t, den, n) the series walk charges: every
    integer n = t den mod q with n / den in window(t), reduced or not."""
    count = 0
    for t in range(1, t_max + 1):
        if math.gcd(t, q) != 1 or not is_in_NS(t, ctx):
            continue
        lo, hi = window(t)
        dens = [1]
        for p in ctx.primes:
            dens = [dd * p**m for dd in dens for m in range(depth[p] + 1)]
        for den in dens:
            count += sum(1 for n in range(math.floor(lo * den) - 1,
                                          math.ceil(hi * den) + 2)
                         if lo <= Fraction(n, den) <= hi and (n - t * den) % q == 0)
    return count


class TestSeriesBudget:
    def test_pair_series_threshold(self):
        cctx = congruence_context(3, 5, (1, 0, 0), S23)
        need = _progression_elements(S23, 5, 8, {2: 2, 3: 1}, lambda t: (-4, 4))
        kw = dict(t_max=8, real_bound=4, depth={2: 2, 3: 1})
        assert second_moment_rhs(TERN_BOX, cctx, max_terms=need, **kw).terms_used > 0
        with pytest.raises(SearchBudgetExceeded) as info:
            second_moment_rhs(TERN_BOX, cctx, max_terms=need - 1, **kw)
        assert str(info.value) == (
            f"pair series budget exceeded (more than max_terms={need - 1} "
            "terms); raise max_terms"
        )

    def test_orbit_series_threshold(self):
        # exponent 1 at 2 with an integral y caps the denominators at 2^1;
        # the real window of s = a/t is [-1/3, 1/3], set by y_3 = 3
        cctx = congruence_context(3, 5, (1, 0, 0), S2)
        f = ProductBox([(-1, 1)] * 3, finite_exponent={2: 1})
        y = (1, 2, 3)
        third = Fraction(1, 3)
        need = _progression_elements(S2, 5, 40, {2: 1},
                                     lambda t: (-third * t, third * t))
        sv = inhom_series(f, y, cctx, t_max=40, max_terms=need)
        assert sv.depth == {2: 1} and sv.terms_used > 0
        with pytest.raises(SearchBudgetExceeded) as info:
            inhom_series(f, y, cctx, t_max=40, max_terms=need - 1)
        assert str(info.value) == (
            f"orbit series budget exceeded (more than max_terms={need - 1} "
            "terms); raise max_terms"
        )


def test_largest_prime_factor_table():
    from sqcount.moments import _largest_prime_factors

    for n_max in (1, 2, 3, 4, 9, 25, 1000, 5041):
        big = _largest_prime_factors(n_max)
        assert len(big) == n_max + 1
        assert [int(big[k]) for k in range(2, n_max + 1)] == [
            prime_factors(k)[-1] for k in range(2, n_max + 1)
        ]


@pytest.fixture
def no_int_digit_limit():
    # the pinned values have up to 81,100-digit numerators
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _value_sha256(sv) -> str:
    return hashlib.sha256(frac_str(sv.value).encode("utf-8")).hexdigest()


@pytest.mark.usefixtures("no_int_digit_limit")
class TestBenchmarkSeries:
    """The series of the benchmark's exact workload (perfbench), pinned: the
    sha256 of the num/den text of each value and its terms_used."""

    def test_rhs_p2(self):
        cctx = congruence_context(3, 3, (0, 0, 1), S2)
        sv = second_moment_rhs(TERN_BOX, cctx, t_max=64, real_bound=48)
        assert sv.terms_used == 9827
        assert _value_sha256(sv) == (
            "a99554cbad4a151c86d49e27ee035dd88c429adce182ea5f2a1397c795148d2e")

    def test_rhs_p23(self):
        cctx = congruence_context(3, 5, (0, 0, 1), S23)
        sv = second_moment_rhs(TERN_BOX, cctx, t_max=8, real_bound=48)
        assert sv.terms_used == 46212
        assert _value_sha256(sv) == (
            "99aa6c942eed8199fb7e2dd1e43a62fa80d9088385cc8d18962f5ae231c33e7e")

    def test_orbit_p23(self):
        cctx = congruence_context(3, 5, (0, 0, 1), S23)
        sv = inhom_series(TERN_BOX, (1, 2, 3), cctx, t_max=1000)
        assert sv.terms_used == 16821
        assert _value_sha256(sv) == (
            "38ded6270347632a2e114b28b2216a75ebed759f67ee669c27486eae03739656")


# --- variance / Chebyshev ----------------------------------------------------------------


class TestVarianceCheck:
    def test_affine_chebyshev_bound(self):
        sp = space_spec("affine", 2, S2)
        box = SBox(TVector(math.sqrt(10 / math.pi), {2: 0}, S2))
        vc = variance_check(sp, box, 20.0, n=2500, seed=5)
        assert vc.bound == pytest.approx(10.0 / 400.0)
        assert vc.empirical_prob <= vc.bound + 3 * max(vc.stderr, 1e-4)

    def test_tight_threshold_still_bounded(self):
        sp = space_spec("affine", 2, S2)
        box = SBox(TVector(math.sqrt(10 / math.pi), {2: 0}, S2))
        vc = variance_check(sp, box, 4.0, n=2500, seed=5)
        assert vc.empirical_prob <= vc.bound + 3 * vc.stderr

    def test_huge_threshold_gives_zero(self):
        sp = space_spec("affine", 2, S2)
        box = SBox(TVector(1.5, {2: 0}, S2))
        vc = variance_check(sp, box, 1e6, n=300, seed=1)
        assert vc.empirical_prob == 0.0 and vc.observed_constant == 0.0

    def test_congruence_constant_reported(self):
        cctx = congruence_context(2, 5, (1, 0), S2)
        sp = space_spec("congruence", 2, S2, cctx=cctx)
        box = SBox(TVector(math.sqrt(8 / math.pi), {2: 0}, S2))
        vc = variance_check(sp, box, 10.0, n=800, seed=2)
        # the sharp constant is unknown: recorded, never asserted
        assert vc.observed_constant >= 0.0
        assert vc.n_samples == 800 and vc.seed == 2

    def test_validation(self):
        sp = space_spec("affine", 2, S2)
        box = SBox(TVector(1.0, {2: 0}, S2))
        with pytest.raises(ConfigError):
            variance_check(sp, box, 0.0, n=10, seed=0)
