"""Tests for lattice enumeration, the origin term of Siegel transforms,
and discrepancy.

Every lattice is built the way the samplers build them: a float real basis
and exact p-integral finite bases.  The enumeration engine is checked
against a naive oracle that scans a rectangular superset of coordinate
vectors and tests every candidate straight from the definitions, the real
place in floats and the finite places exactly.  Product boxes are also
checked against the count through built points: enumerate a support box
around the box, then test each point.  holds_origin is checked against the
enumerated points of lattices with zero shift.  Hand counts use identity or
dyadic data, on which the float arithmetic is exact.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sqcount import _linalg as la
from sqcount.errors import BudgetError, ConfigError
from sqcount.sarith import SConfig, TVector, crt, frac_mod, min_valuation, valuation
from sqcount.slattice import (
    ProductBox,
    SBox,
    _box_frame,
    _BoxFrame,
    _ellipsoid_integer_points,
    affine_slattice_split,
    count_points,
    enumerate_points,
    holds_origin,
    place_box,
)
from test_linalg import identity, oracle_inverse

S0 = SConfig(())
S2 = SConfig((2,))
S3 = SConfig((3,))
S23 = SConfig((2, 3))


def box(ctx, t_inf, t_p=None, center=None):
    return SBox(TVector(Fraction(t_inf), t_p or {}, ctx), center)


def rational_lattice(ctx, basis, shift=None):
    """Z_S^d . basis + shift with one exact rational basis and shift at
    every place; the real place holds their float images."""
    basis = la.as_matrix(basis)
    shift = tuple(Fraction(x) for x in shift or (0,) * len(basis))
    return affine_slattice_split(
        ctx, basis, {p: basis for p in ctx.primes},
        shift, {p: shift for p in ctx.primes},
    )


def exact_basis(lat, p) -> tuple:
    """The finite basis at p as a Fraction matrix."""
    rows, den = lat.basis_p[p]
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def exact_shift(lat, p) -> tuple:
    """The finite shift at p as a Fraction vector."""
    nums, den = lat.shift_p[p]
    return tuple(Fraction(x, den) for x in nums)


def in_padic_ball(x, c, p, e) -> bool:
    """|x - c|_p <= p^e."""
    return x == c or valuation(Fraction(x) - Fraction(c), p) >= -e


def is_origin(pt) -> bool:
    """The point is the origin: exactly at every finite place, to 1e-12 at
    the real place."""
    finite_zero = all(x == 0 for img in pt.finite.values() for x in img)
    return finite_zero and all(abs(x) < 1e-12 for x in pt.real)


def discrepancy(lat, b):
    """|#(lattice points in the box) - vol(box)|."""
    return abs(count_points(lat, b) - b.volume(lat.dim))


def _denominator_exponent(lat, b, center, p):
    """Upper bound on the power of p in denominators of coordinates k with
    image inside the box: v_p(k_j) >= lo + gmin for every candidate."""
    tp = b.t.t_p.get(p, 0)
    ginv = oracle_inverse(exact_basis(lat, p))
    gmin = min(
        (valuation(x, p) for row in ginv for x in row if x), default=0
    )
    lo = 0
    for i in range(lat.dim):
        cand = [-tp]
        if center[i]:
            cand.append(valuation(center[i], p))
        shift = exact_shift(lat, p)
        if shift[i]:
            cand.append(valuation(shift[i], p))
        lo = min(lo, min(cand))
    return max(0, -(lo + min(0, gmin)))


def naive_scan_radius(lat, b):
    """(big_r, m_bound): every k with its real image in the box is m / big_r
    with |m_j| <= m_bound, from |k_j| <= ||k.B||_2 * (column 1-norm of B^-1)."""
    d = lat.dim
    center = tuple(Fraction(c) for c in b.center or (0,) * d)
    big_r = 1
    for p in lat.ctx.primes:
        big_r *= p ** _denominator_exponent(lat, b, center, p)
    norm1 = np.abs(np.linalg.inv(np.array(lat.basis_inf))).sum(axis=0).max()
    off = math.dist([float(c) for c in center], lat.shift_inf)
    m_bound = int(big_r * (norm1 * (float(b.t.t_inf) + off) + 1)) + 1
    return big_r, m_bound


def naive_points(lat, b):
    """Independent enumeration: the sorted Z_S-coordinates k of all lattice
    points in the box.  Scans every m / big_r with |m_j| <= m_bound, tests
    the real ball in floats, then the finite balls exactly."""
    d, ctx = lat.dim, lat.ctx
    center = tuple(Fraction(c) for c in b.center or (0,) * d)
    big_r, m_bound = naive_scan_radius(lat, b)
    axis = np.arange(-m_bound, m_bound + 1)
    m = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
    real = (m / big_r) @ np.array(lat.basis_inf) + np.array(lat.shift_inf)
    off = real - np.array([float(c) for c in center])
    inside = (off * off).sum(axis=1) < float(b.t.t_inf) ** 2
    out = []
    for row in m[inside].tolist():
        k = tuple(Fraction(mi, big_r) for mi in row)
        images = [
            tuple(x + s for x, s in
                  zip(la.vec_mat(k, exact_basis(lat, p)), exact_shift(lat, p)))
            for p in ctx.primes
        ]
        if all(
            in_padic_ball(x, c, p, b.t.t_p.get(p, 0))
            for p, img in zip(ctx.primes, images)
            for x, c in zip(img, center)
        ):
            out.append(k)
    return sorted(out)


def coords(points):
    return [pt.coords for pt in points]


def random_rational_lattice(rng, ctx, d, shifted=True):
    """Sheared Z^d with a rational shift, p-integral at every prime of ctx."""
    u = [list(r) for r in identity(d)]
    # shear denominators must avoid ctx primes (basis stays p-integral)
    shear_pool = [0, 1, -1, 2, Fraction(1, 5)]
    if 2 not in ctx.primes:
        shear_pool.append(Fraction(1, 2))
    for _ in range(3):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = Fraction(rng.choice(shear_pool))
        for kk in range(d):
            u[i][kk] += c * u[j][kk]
    if not shifted:
        return rational_lattice(ctx, u)
    den_pool = [1, 1, 5] + list(ctx.primes)
    shift = tuple(
        Fraction(rng.randint(-3, 3), rng.choice(den_pool))
        for _ in range(d)
    )
    return rational_lattice(ctx, u, shift)


def random_split_lattice(rng, ctx, d, shift="random"):
    """Float real basis of determinant 1, unit-determinant integer bases at
    the primes of ctx.  shift is "none", "random" (unrelated rational and
    real shifts, so the origin is no lattice point), or "lattice" (the same
    integer vector at every place, so the origin is one)."""
    while True:
        g = np.array([[rng.gauss(0, 1) for _ in range(d)] for _ in range(d)])
        det = np.linalg.det(g)
        if abs(det) > 0.3:
            break
    g = (g / abs(det) ** (1 / d)).tolist()
    basis_p = {}
    for p in ctx.primes:
        while True:
            m = la.as_matrix(
                [[rng.randrange(p**3) for _ in range(d)] for _ in range(d)]
            )
            if la.det(m) % p:
                basis_p[p] = m
                break
    if shift == "none":
        return affine_slattice_split(ctx, g, basis_p)
    if shift == "lattice":
        k = [rng.randint(-2, 2) for _ in range(d)]
        shift_inf = [sum(k[i] * g[i][j] for i in range(d)) for j in range(d)]
        shift_p = {p: la.vec_mat(k, basis_p[p]) for p in ctx.primes}
    else:
        shift_inf = [rng.uniform(-1, 1) for _ in range(d)]
        shift_p = {
            p: tuple(
                Fraction(rng.randint(-4, 4), rng.choice([1, p, p * p]))
                for _ in range(d)
            )
            for p in ctx.primes
        }
    return affine_slattice_split(ctx, g, basis_p, shift_inf, shift_p)


def support_box(f, ctx, d) -> SBox:
    """An SBox holding the support of a product-box indicator: a ball past
    the corner around the real midpoint, and at each prime a ball around the
    same midpoint that holds the box's own finite ball."""
    center = tuple((lo + hi) / 2 for lo, hi in f.intervals)
    corner = sum(((hi - lo) / 2) ** 2 for lo, hi in f.intervals)
    root = math.isqrt(corner.numerator * corner.denominator) // corner.denominator
    t_inf = root + (1 if root * root == corner else 2)
    t_p = {}
    for p in ctx.primes:
        c = f.finite_center.get(p, (0,) * d)
        gap = max(
            (-valuation(Fraction(ci) - mi, p) for ci, mi in zip(c, center)
             if Fraction(ci) != mi),
            default=0,
        )
        t_p[p] = max(f.finite_exponent.get(p, 0), gap, 0)
    return SBox(TVector(t_inf, t_p, ctx), center)


def in_product_box(f, ctx, real, finite) -> bool:
    """The product-box indicator at a point with these images: closed real
    intervals, and at each prime the ball around finite_center (default 0)
    of radius p^finite_exponent (default p^0)."""
    if not all(lo <= x <= hi for x, (lo, hi) in zip(real, f.intervals)):
        return False
    return all(
        in_padic_ball(x, c, p, f.finite_exponent.get(p, 0))
        for p in ctx.primes
        for x, c in zip(finite[p], f.finite_center.get(p, (0,) * len(real)))
    )


def built_points_count(lat, f) -> int:
    """The product-box count through built points: enumerate the support
    box, then test each point."""
    return sum(
        in_product_box(f, lat.ctx, pt.real, pt.finite)
        for pt in enumerate_points(lat, support_box(f, lat.ctx, lat.dim))
    )


def naive_box_points(lat, f):
    """Independent enumeration of a product box, as naive_points: scan the
    m / big_r that cover its support box, keep those whose float real image,
    summed as a built point sums it, lies in the box and whose finite images
    lie in its balls."""
    d, ctx = lat.dim, lat.ctx
    big_r, m_bound = naive_scan_radius(lat, support_box(f, ctx, d))
    axis = np.arange(-m_bound, m_bound + 1)
    m = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
    real = (m / big_r) @ np.array(lat.basis_inf) + np.array(lat.shift_inf)
    ends = np.array([[float(x) for x in iv] for iv in f.intervals])
    near = ((real >= ends[:, 0] - 1e-9) & (real <= ends[:, 1] + 1e-9)).all(axis=1)
    out = []
    for row in m[near].tolist():
        k = tuple(Fraction(mi, big_r) for mi in row)
        real = tuple(
            sum(float(k[i]) * lat.basis_inf[i][j] for i in range(d))
            + lat.shift_inf[j]
            for j in range(d)
        )
        finite = {
            p: tuple(x + s for x, s in
                     zip(la.vec_mat(k, exact_basis(lat, p)), exact_shift(lat, p)))
            for p in ctx.primes
        }
        if in_product_box(f, ctx, real, finite):
            out.append(k)
    return sorted(out)


def budget_threshold(count):
    """Smallest max_candidates at which count(max_candidates) does not raise."""

    def enough(m):
        try:
            count(m)
        except BudgetError:
            return False
        return True

    hi = 1
    while not enough(hi):
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestEnumerate:
    def test_half_integer_grid(self):
        # Z_S^2 with S_f={2}: the ball of Euclidean radius 3/2 at depth
        # t_2 = 1 holds the half-integer grid; direct scan gives 25 points
        lat = rational_lattice(S2, identity(2))
        b = box(S2, Fraction(3, 2), {2: 1})
        pts = enumerate_points(lat, b)
        got = sorted(pt.real for pt in pts)
        assert len(got) == 25
        assert coords(pts) == naive_points(lat, b)
        assert (0.5, 0.5) in got
        assert (-1.0, 1.0) in got

    def test_integer_disk_21(self):
        lat = rational_lattice(S0, identity(2))
        b = box(S0, Fraction(5, 2))
        pts = enumerate_points(lat, b)
        assert len(pts) == 21
        assert coords(pts) == naive_points(lat, b)

    def test_shifted_empty(self):
        lat = rational_lattice(S0, identity(2), shift=(Fraction(1, 4), 0))
        b = box(S0, Fraction(1, 8))
        assert enumerate_points(lat, b) == []

    def test_deterministic_order(self):
        lat = rational_lattice(S2, identity(2))
        b = box(S2, Fraction(3, 2), {2: 1})
        first = [p.coords for p in enumerate_points(lat, b)]
        second = [p.coords for p in enumerate_points(lat, b)]
        assert first == second == sorted(first)

    def test_budget(self):
        lat = rational_lattice(S0, identity(2))
        with pytest.raises(BudgetError, match="max_candidates=100 "):
            enumerate_points(lat, box(S0, 1000), max_candidates=100)

    def test_rejects_non_p_integral_basis(self):
        m = ((Fraction(2), Fraction(1, 2)), (Fraction(2), Fraction(1)))
        with pytest.raises(ConfigError, match="basis at p=2 is not p-integral"):
            rational_lattice(S2, m)
        # the same matrix is fine when 2 is not a finite place
        rational_lattice(S3, m)

    def test_rejects_non_unimodular_basis(self):
        with pytest.raises(ConfigError, match="real basis determinant"):
            affine_slattice_split(S0, [[2.0, 0.0], [0.0, 1.0]], {})
        # determinant 3 is a unit at 2 but not at 3
        m = ((3, 1), (0, 1))
        affine_slattice_split(S2, identity(2), {2: m})
        with pytest.raises(ConfigError, match="basis at p=3 has non-unit determinant"):
            affine_slattice_split(S3, identity(2), {3: m})
        # a singular basis has no valuation to compare; it is refused the same way
        with pytest.raises(ConfigError, match="basis at p=2 has non-unit determinant"):
            affine_slattice_split(S2, identity(2), {2: ((0, 0), (0, 0))})

    def test_rejects_disk_center_of_wrong_length(self):
        # a third coordinate would be dropped by the count and read by the
        # origin test; placing the disk refuses it for both
        lat = rational_lattice(S2, identity(2))
        disk = box(S2, 2, center=(0, 0, 5))
        message = "test function center has 3 coordinates, not d = 2"
        with pytest.raises(ConfigError, match=message):
            count_points(lat, disk)
        with pytest.raises(ConfigError, match=message):
            place_box(disk, 2, S2.primes)

    def test_insufficient_depth(self):
        lat = affine_slattice_split(
            S2, identity(2), {2: identity(2)}, depth={2: 1}
        )
        with pytest.raises(ConfigError, match="need 2 digits at p=2, sampled 1"):
            enumerate_points(lat, box(S2, 2, {2: -2}))
        # a product box needs as many digits as a disk
        with pytest.raises(ConfigError, match="need 2 digits"):
            count_points(lat, ProductBox([(-2, 2)] * 2, {2: -2}))

    def test_split_mode_rotation(self):
        # a rotated float copy of Z^2 still counts 21 points in the disk
        lat = affine_slattice_split(
            S0, [[0.0, 1.0], [-1.0, 0.0]], {},
        )
        pts = enumerate_points(lat, box(S0, Fraction(5, 2)))
        assert len(pts) == 21

    def test_negative_depth_box(self):
        # t_2 = -1: only even-denominator-free points k = 0 mod 2
        lat = rational_lattice(S2, identity(2))
        b = box(S2, Fraction(5, 2), {2: -1})
        pts = enumerate_points(lat, b)
        assert coords(pts) == naive_points(lat, b)
        got = [pt.real for pt in pts]
        assert (2.0, 0.0) in got
        assert (1.0, 0.0) not in got

    def test_random_against_oracle(self):
        # enumerate_points and count_points against the naive scan, for
        # every shift kind, with and without a half-integer center
        rng = random.Random(23)
        for ctx in (S0, S2, S3, S23):
            for d in (2, 3):
                cases = 0
                while cases < 12:
                    shift = ("none", "random", "lattice")[cases % 3]
                    if self.check_random_case(rng, ctx, d, shift, cases >= 6):
                        cases += 1

    @staticmethod
    def check_random_case(rng, ctx, d, shift, centered) -> bool:
        """Compare on one random lattice and box; False if the naive scan
        would be too large."""
        lat = random_split_lattice(rng, ctx, d, shift)
        center = None
        if centered:
            center = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(d))
        t_p = {p: rng.choice([0, 0, 1, -1]) for p in ctx.primes}
        t_inf = Fraction(3, 2) if d == 3 else Fraction(rng.randint(2, 3))
        b = box(ctx, t_inf, t_p, center)
        _, m_bound = naive_scan_radius(lat, b)
        if (2 * m_bound + 1) ** d > 400_000:
            return False
        expect = naive_points(lat, b)
        assert coords(enumerate_points(lat, b)) == expect
        assert count_points(lat, b) == len(expect)
        return True

    def test_involution(self):
        rng = random.Random(31)
        for _ in range(10):
            shift = (
                Fraction(rng.randint(-4, 4), 4),
                Fraction(rng.randint(-4, 4), 8),
            )
            center = (Fraction(1, 4), Fraction(-1, 2))
            basis = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
            lat = rational_lattice(S0, basis, shift)
            neg_lat = rational_lattice(
                S0, basis, tuple(-x for x in shift)
            )
            b = box(S0, 3, center=center)
            neg_b = box(S0, 3, center=tuple(-x for x in center))
            pts = {p.real for p in enumerate_points(lat, b)}
            neg = {
                tuple(-x for x in p.real)
                for p in enumerate_points(neg_lat, neg_b)
            }
            assert pts == neg


class TestCountPoints:
    """count_points against len(enumerate_points)."""

    def assert_counts_agree(self, lat, b):
        assert count_points(lat, b) == len(enumerate_points(lat, b)), (lat, b)

    @staticmethod
    def random_box(rng, ctx, d):
        t_inf = rng.choice([Fraction(2), Fraction(5, 2), Fraction(3)])
        if d == 3:
            t_inf = rng.choice([Fraction(3, 2), Fraction(2)])
        t_p = {p: rng.choice([-1, 0, 0, 1]) for p in ctx.primes}
        center = None
        if rng.random() < 0.4:
            center = tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(d))
        b = box(ctx, t_inf, t_p, center)
        # keep the enumeration oracle cheap
        return b if b.volume(d) < 600 else box(ctx, t_inf, {}, center)

    @pytest.mark.parametrize("ctx", [S2, S3, S23])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_exact_lattices(self, ctx, d):
        # exact rational data, the same at every place
        rng = random.Random(100 * d + len(ctx.primes) + ctx.primes[-1])
        for case in range(8):
            lat = random_rational_lattice(rng, ctx, d, shifted=case % 2 == 1)
            self.assert_counts_agree(lat, self.random_box(rng, ctx, d))

    @pytest.mark.parametrize("ctx", [S2, S3, S23])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_split_lattices(self, ctx, d):
        rng = random.Random(200 * d + len(ctx.primes) + ctx.primes[-1])
        for case in range(9):
            shift = ("none", "random", "lattice")[case % 3]
            lat = random_split_lattice(rng, ctx, d, shift)
            self.assert_counts_agree(lat, self.random_box(rng, ctx, d))

    def test_split_lattice_without_primes(self):
        rng = random.Random(7)
        for shift in ("none", "random", "lattice"):
            lat = random_split_lattice(rng, S0, 2, shift)
            self.assert_counts_agree(lat, box(S0, Fraction(5, 2)))

    def test_origin_inside_the_box(self):
        # split lattices that contain the origin, with and without a shift
        rng = random.Random(11)
        for shift in ("none", "lattice"):
            lat = random_split_lattice(rng, S23, 2, shift)
            b = box(S23, 2, {2: 1, 3: 0})
            assert sum(map(is_origin, enumerate_points(lat, b))) == 1
            self.assert_counts_agree(lat, b)

    def test_one_point_wide_rows(self):
        # Z^2 in the disk of radius 5/4: the rows n1 = +-1 hold one point
        lat = rational_lattice(S0, identity(2))
        assert count_points(lat, box(S0, Fraction(5, 4))) == 5
        # a long first basis vector leaves at most one point in every row
        long = rational_lattice(S0, ((3, 1), (2, 1)))
        for r in (Fraction(3, 2), Fraction(2), Fraction(7, 2)):
            self.assert_counts_agree(long, box(S0, r))
            self.assert_counts_agree(lat, box(S0, r, center=(Fraction(1, 2), 0)))

    def test_same_budget_threshold(self):
        rng = random.Random(13)
        lats = [
            rational_lattice(S0, identity(2)),
            random_rational_lattice(rng, S2, 2),
            random_split_lattice(rng, S2, 2, "none"),
            random_split_lattice(rng, S23, 3, "random"),
        ]
        # a product box is charged its circumscribed ball's ranges before
        # its cut, so both front ends fail at the same budget here too
        intervals = [(-5, Fraction(11, 2)), (Fraction(-7, 2), 4), (-1, Fraction(3, 2))]
        for lat in lats:
            exps = {p: 3 - lat.dim for p in lat.ctx.primes}
            for b in (box(lat.ctx, 2, exps), ProductBox(intervals[:lat.dim], exps)):
                want = budget_threshold(lambda m: len(enumerate_points(lat, b, m)))
                assert want > (100 if isinstance(b, ProductBox) else 0)
                assert budget_threshold(lambda m: count_points(lat, b, m)) == want
                with pytest.raises(BudgetError, match=f"max_candidates={want - 1}"):
                    count_points(lat, b, want - 1)


class TestSiegel:
    def test_disk_affine_and_homogeneous(self):
        lat = rational_lattice(S0, identity(2))
        f = box(S0, Fraction(5, 2))
        assert count_points(lat, f) == 21
        assert count_points(lat, f) - holds_origin(place_box(f, 2, S0.primes)) == 20

    def test_shifted_singleton(self):
        lat = rational_lattice(S0, identity(2), shift=(Fraction(1, 4), 0))
        f = box(S0, Fraction(1, 2))
        assert count_points(lat, f) == 1

    def test_product_box(self):
        lat = rational_lattice(S2, identity(2))
        f = ProductBox([(-1, 1), (-1, 1)], finite_exponent={2: 0})
        # integer points of the closed square: 9 (half-integers excluded
        # by the 2-adic unit ball)
        assert count_points(lat, f) == 9


class TestDiscrepancy:
    def test_disk_value(self):
        lat = rational_lattice(S0, identity(2))
        d = discrepancy(lat, box(S0, Fraction(5, 2)))
        assert abs(d - abs(21 - 6.25 * math.pi)) < 1e-9

    def test_empty_zero_volume(self):
        lat = rational_lattice(S0, identity(2), shift=(Fraction(1, 4), 0))
        d = discrepancy(lat, box(S0, Fraction(1, 8)))
        assert abs(d - math.pi / 64) < 1e-12

    def test_corrected_inequality_random_triples(self):
        rng = random.Random(41)
        lat_pool = [
            rational_lattice(S0, identity(2)),
            rational_lattice(
                S0, ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
                (Fraction(1, 3), Fraction(0)),
            ),
        ]
        for _ in range(200):
            lat = rng.choice(lat_pool)
            c = (Fraction(rng.randint(-2, 2), 3), Fraction(rng.randint(-2, 2), 3))
            r1 = Fraction(rng.randint(1, 20), 10)
            r = r1 + Fraction(rng.randint(0, 10), 10)
            r2 = r + Fraction(rng.randint(0, 10), 10)
            a1, a, a2 = (box(S0, rr, center=c) for rr in (r1, r, r2))
            d = discrepancy(lat, a)
            d1 = discrepancy(lat, a1)
            d2 = discrepancy(lat, a2)
            gap = a2.volume(2) - a1.volume(2)
            assert d <= max(d1, d2) + gap + 1e-9

    def test_uncorrected_form_fails(self):
        # one-dimensional counterexample: the inequality with the volume
        # term moved to the left-hand side is violated
        lat = rational_lattice(S0, ((Fraction(1),),))
        a1 = box(S0, Fraction(1, 10))
        a = box(S0, Fraction(3, 5), center=(Fraction(1, 2),))
        a2 = box(S0, Fraction(7, 10), center=(Fraction(3, 5),))
        # containment of the three intervals
        assert count_points(lat, a1) == 1
        assert count_points(lat, a) == 2
        d = discrepancy(lat, a)
        d1 = discrepancy(lat, a1)
        d2 = discrepancy(lat, a2)
        gap = a2.volume(1) - a1.volume(1)
        assert d + gap > max(d1, d2) + 1e-6  # printed form is false
        assert d <= max(d1, d2) + gap  # corrected form holds


class TestCountInSet:
    def test_box_and_indicator_agree(self):
        lat = rational_lattice(S0, identity(2))
        b = box(S0, Fraction(5, 2))
        assert count_points(lat, b) == len(enumerate_points(lat, b)) == 21


class TestProductBox:
    """count_points on product boxes against the naive scan and against the
    count through built points."""

    @staticmethod
    def check(lat, f) -> bool:
        """Compare on one lattice and box; False if the naive scan would be
        too large."""
        support = support_box(f, lat.ctx, lat.dim)
        _, m_bound = naive_scan_radius(lat, support)
        if (2 * m_bound + 1) ** lat.dim > 400_000:
            return False
        expect = naive_box_points(lat, f)
        assert coords(enumerate_points(lat, f)) == expect
        assert count_points(lat, f) == len(expect)
        # building every point of a large support box is slow
        if support.volume(lat.dim) < 1500:
            assert built_points_count(lat, f) == len(expect)
        return True

    @staticmethod
    def random_box(rng, ctx, d, faces=False):
        """Random Fraction endpoints, exponents -1..1 and finite centers with
        small denominators; with faces, integer data whose lattice points
        often lie on the faces."""
        # keep the naive scan small: narrower boxes at d = 3
        span = 6 if d == 2 else 3
        if faces:
            intervals = [sorted(rng.sample(range(-span // 2, span // 2 + 2), 2))
                         for _ in range(d)]
            dens = [1]
        else:
            intervals = []
            for _ in range(d):
                lo = Fraction(rng.randint(-span, 1), rng.choice([2, 3, 4]))
                width = Fraction(rng.randint(1, span), rng.choice([2, 3, 4]))
                intervals.append((lo, lo + width))
            dens = [1, 2, 3]
        exps = {p: rng.randint(-1, 1) for p in ctx.primes if rng.random() < 0.8}
        centers = {
            p: tuple(Fraction(rng.randint(-2, 2), rng.choice(dens + [p]))
                     for _ in range(d))
            for p in ctx.primes if rng.random() < 0.6
        }
        if faces:
            centers = {p: tuple(int(c) for c in v) for p, v in centers.items()}
        return ProductBox(intervals, exps, centers)

    @pytest.mark.parametrize("ctx", [S0, S2, S3, S23])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_boxes(self, ctx, d):
        rng = random.Random(300 * d + len(ctx.primes) + sum(ctx.primes))
        cases = 0
        while cases < 9:
            shift = ("none", "random", "lattice")[cases % 3]
            if cases % 2:
                lat = random_split_lattice(rng, ctx, d, shift)
            else:
                lat = random_rational_lattice(rng, ctx, d, shifted=shift != "none")
            cases += self.check(lat, self.random_box(rng, ctx, d))

    @pytest.mark.parametrize("ctx", [S0, S2, S3, S23])
    @pytest.mark.parametrize("d", [2, 3])
    def test_points_on_the_faces(self, ctx, d):
        # sheared Z^d with integer shifts and integer box ends: the real
        # images are exact integers, so many of them sit on the faces
        rng = random.Random(400 * d + len(ctx.primes) + sum(ctx.primes))
        cases = 0
        while cases < 8:
            u = [list(r) for r in identity(d)]
            for _ in range(3):
                i, j = rng.sample(range(d), 2)
                c = rng.choice([1, -1, 2])
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            shift = tuple(rng.randint(-1, 1) for _ in range(d)) if cases % 2 else None
            lat = rational_lattice(ctx, u, shift)
            cases += self.check(lat, self.random_box(rng, ctx, d, faces=True))


class TestHoldsOrigin:
    """On a lattice with zero shift, count_points - holds_origin counts the
    enumerated points whose images are not all zero."""

    @pytest.mark.parametrize("ctx", [S0, S2, S23])
    @pytest.mark.parametrize("d", [2, 3])
    def test_against_the_point_oracle(self, ctx, d):
        rng = random.Random(500 * d + len(ctx.primes) + sum(ctx.primes))
        held = {SBox: 0, ProductBox: 0}
        for case in range(16):
            if case % 2:
                lat = random_split_lattice(rng, ctx, d, "none")
            else:
                lat = random_rational_lattice(rng, ctx, d, shifted=False)
            if case % 4 < 2:
                f = TestCountPoints.random_box(rng, ctx, d)
            else:
                f = TestProductBox.random_box(rng, ctx, d)
            if case % 4 == 3:
                # stretch the intervals to 0, which often lands on a face
                f = ProductBox([(min(lo, 0), max(hi, 0)) for lo, hi in f.intervals],
                               f.finite_exponent, f.finite_center)
            origin = holds_origin(place_box(f, d, ctx.primes))
            want = sum(not is_origin(pt) for pt in enumerate_points(lat, f))
            assert count_points(lat, f) - origin == want, (lat, f)
            held[type(f)] += origin
        # the origin lies inside some of the shapes and outside others
        assert 0 < sum(held.values()) < 16, held

    def test_origin_on_the_boundary(self):
        # the open disk misses the origin on its sphere (9/4 + 4 = 25/4 in
        # floats too), the closed box holds it on a face
        lat = rational_lattice(S0, identity(2))
        disk = box(S0, Fraction(5, 2), center=(Fraction(3, 2), Fraction(2)))
        face = ProductBox([(0, 1), (-1, 1)])
        assert not holds_origin(place_box(disk, 2, S0.primes))
        assert holds_origin(place_box(face, 2, S0.primes))
        for f in (disk, face):
            want = sum(not is_origin(pt) for pt in enumerate_points(lat, f))
            origin = holds_origin(place_box(f, 2, S0.primes))
            assert count_points(lat, f) - origin == want

    @pytest.mark.parametrize("e", [-2, -1, 0, 1, 2])
    def test_center_whose_denominator_carries_p(self, e):
        # the center (1/2, 1/4) is (2, 1) / 4 at p = 2: min v_2(nums) = 0
        # and v_2(den) = 2, so the ball c + 2^-e Z_2^2 holds 0 iff e >= 2
        center = (Fraction(1, 2), Fraction(1, 4))
        disk = box(S2, 3, {2: e}, center)
        square = ProductBox([(-2, 2)] * 2, {2: e}, {2: center})
        lat = rational_lattice(S2, identity(2))
        for f in (disk, square):
            origin = holds_origin(place_box(f, 2, S2.primes))
            assert origin == (e >= 2)
            want = sum(not is_origin(pt) for pt in enumerate_points(lat, f))
            assert count_points(lat, f) - origin == want


class TestSkewedBases:
    """The walk's set-up (the LDL from numpy's Cholesky factor, the center
    n* and a box's reach and width) on bases far from orthogonal, where a
    wrong factor or center misses points: both front ends against the
    naive scans, on a disk and on a product box.  The real shift is small,
    so that the row n = 0 of a long last vector passes near the boxes."""

    @staticmethod
    def lattice(rng, g):
        return affine_slattice_split(
            S0, g, {}, [rng.uniform(-0.25, 0.25) for _ in g])

    @staticmethod
    def check(lat, disk, f):
        expect = naive_points(lat, disk)
        assert expect
        assert coords(enumerate_points(lat, disk)) == expect
        assert count_points(lat, disk) == len(expect)
        expect = naive_box_points(lat, f)
        assert expect
        assert coords(enumerate_points(lat, f)) == expect
        assert count_points(lat, f) == len(expect)

    @pytest.mark.parametrize("order", [1, -1], ids=["short-first", "long-first"])
    @pytest.mark.parametrize("k", range(5))
    def test_siegel_shapes(self, k, order):
        # (y^-1/2, 0), (x y^-1/2, y^1/2) at y = 10^k, in either order: Gram
        # condition 10^2k
        rng = random.Random(k)
        y, x = 10.0**k, rng.uniform(-0.5, 0.5)
        g = [[y**-0.5, 0.0], [x * y**-0.5, y**0.5]]
        lat = self.lattice(rng, g[::order])
        disk = box(S0, 1, {}, (Fraction(1, 3), Fraction(-1, 3)))
        f = ProductBox(((Fraction(-1, 2), 1), (-1, Fraction(3, 4))))
        self.check(lat, disk, f)

    @pytest.mark.parametrize("order", [1, -1], ids=["short-first", "long-first"])
    def test_sheared_d3(self, order):
        # rows 0.1 e0, 0.1 e1 and 100 e2 sheared by non-integral multiples
        # of the ones before, in either order: Gram condition about 4e6
        rng = random.Random(5)
        g = [[0.1, 0.0, 0.0], [0.15, 0.1, 0.0], [0.37, -0.23, 100.0]][::order]
        assert 1e5 < np.linalg.cond(np.array(g) @ np.transpose(g)) < 1e7
        lat = self.lattice(rng, g)
        disk = box(S0, 1, {}, (Fraction(1, 4), 0, Fraction(-1, 3)))
        f = ProductBox(((Fraction(-1, 2), Fraction(1, 2)),) * 3)
        self.check(lat, disk, f)

    def test_a_singular_frame_is_a_config_error(self):
        # the Cholesky factor of b b^T rounds to positive: only the inverse
        # of b fails
        lat = rational_lattice(S0, identity(2))
        b = ((0.1, 0.3), (0.2, 0.6))
        frame = _BoxFrame(1, 1, (0, 0), b, (0.0, 0.0), 1.0, None, None, lat)
        with pytest.raises(ConfigError, match="lattice Gram not positive definite"):
            _ellipsoid_integer_points(frame, 100)
        # an exactly singular Gram fails in the Cholesky step
        frame = _BoxFrame(1, 1, (0, 0), ((1.0, 1.0), (1.0, 1.0)), (0.0, 0.0),
                          1.0, None, None, lat)
        with pytest.raises(ConfigError, match="lattice Gram not positive definite"):
            _ellipsoid_integer_points(frame, 100)


# --- the integer frame against the Fraction code it replaced --------------------------


def oracle_split(ctx, basis_p, shift_p, d):
    """The finite bases and shifts as Fraction matrices and vectors, read
    and checked as the Fraction code read them."""
    bases, shifts = {}, {}
    for p in ctx.primes:
        m = la.as_matrix(basis_p[p])
        v = min_valuation((x for row in m for x in row), p)
        if v is not None and v < 0:
            raise ConfigError(f"basis at p={p} is not p-integral")
        det_p = la.det(m)
        if det_p == 0 or valuation(det_p, p) != 0:
            raise ConfigError(f"basis at p={p} has non-unit determinant")
        bases[p] = m
        shifts[p] = tuple(Fraction(x) for x in shift_p.get(p, (0,) * d))
    return bases, shifts


def oracle_frame(lat, box, bases, shifts) -> _BoxFrame:
    """_box_frame in Fraction arithmetic: v_p of c_p - shift_p on Fractions,
    w_p = (c_p - shift_p) basis_p^-1 by Gauss-Jordan, each residue by
    frac_mod of a Fraction; the real frame from the exact box ends."""
    d, ctx = lat.dim, lat.ctx
    placed = place_box(box, d, ctx.primes)
    residues = {}
    for p in ctx.primes:
        nums, den, tp = placed.finite[p]
        diff = tuple(Fraction(c, den) - s for c, s in zip(nums, shifts[p]))
        v = min_valuation(diff, p)
        r_p = max(tp, 0 if v is None else -v, 0)
        s_p = r_p - tp
        if lat.depth[p] is not None and s_p > lat.depth[p]:
            raise ConfigError(
                f"need {s_p} digits at p={p}, sampled {lat.depth[p]}")
        w = la.vec_mat(diff, oracle_inverse(bases[p])) if s_p else None
        residues[p] = (r_p, s_p, w)
    big_r = math.prod(p ** residues[p][0] for p in ctx.primes)
    mod = 1
    rem = [0] * d
    for p in ctx.primes:
        _, s_p, w = residues[p]
        pe = p**s_p
        if pe == 1:
            continue
        for i in range(d):
            rem[i] = crt(rem[i], mod, frac_mod(big_r * w[i], pe), pe)
        mod *= pe
    scale = mod / big_r
    b = tuple(tuple(scale * float(x) for x in row) for row in lat.basis_inf)
    base = [sum(rem[i] / big_r * float(lat.basis_inf[i][j]) for i in range(d))
            for j in range(d)]
    y0 = tuple(bb + float(s) - c
               for bb, s, c in zip(base, lat.shift_inf, placed.center))
    return _BoxFrame(big_r, mod, tuple(rem), b, y0, placed.t2,
                     placed.exact_intervals, placed.spans, lat)


class TestIntegerFrame:
    """The finite data held as ints over one denominator, and the frame
    built from them in integers, against the Fraction code: the same
    rationals, the same (big_r, mod, rem) and real frame, and the same
    count as a walk of the Fraction frame, whose product-box leaf test
    compares floats with the exact ends."""

    PRIMES = (2, 3, 5)

    @classmethod
    def rational(cls, rng, p, size):
        """A random rational whose denominator is prime to p: 1, a prime
        outside S, or another prime of S."""
        den = rng.choice([1, 1, 7, 11] + [q for q in cls.PRIMES if q != p])
        return Fraction(rng.randint(-size, size), den)

    @classmethod
    def basis(cls, rng, p, d):
        """A rational basis at p with denominators prime to p; about one in
        five is singular or has a non-unit determinant, one in ten is not
        p-integral."""
        roll = rng.random()
        if roll < 0.1:
            m = [[cls.rational(rng, p, 4) for _ in range(d)] for _ in range(d)]
            m[rng.randrange(d)][rng.randrange(d)] = Fraction(1, p * rng.choice([1, 7]))
            return m
        while True:
            m = [[cls.rational(rng, p, 4) for _ in range(d)] for _ in range(d)]
            det = la.det(la.as_matrix(m))
            unit = det != 0 and valuation(det, p) == 0
            if roll < 0.3:
                if rng.random() < 0.3:
                    m[1] = list(m[0])  # singular
                    return m
                if not unit:
                    return m
            elif unit:
                return m

    @classmethod
    def shift(cls, rng, p, d):
        """p-power denominators, denominators prime to S, or both."""
        return tuple(
            Fraction(rng.randint(-9, 9),
                     rng.choice([1, p, p**2, p**3, 7, 13, 7 * p**2]))
            for _ in range(d)
        )

    @classmethod
    def shape(cls, rng, ctx, d):
        """A disk or a product box whose finite centers often have negative
        valuation and whose exponents are often negative, so that the
        congruence branch (s_p > 0) runs."""
        t_p = {p: rng.choice([-2, -1, 0, 1]) for p in ctx.primes}
        centers = {
            p: tuple(Fraction(rng.randint(-5, 5), rng.choice([1, 1, p, p * p, 3 * p]))
                     for _ in range(d))
            for p in ctx.primes
        }
        if rng.random() < 0.5:
            radius = Fraction(rng.randint(3, 6), 2)
            # a disk has one center at every place
            center = next(iter(centers.values()), (0,) * d)
            return SBox(TVector(radius, t_p, ctx), center)
        intervals = []
        for _ in range(d):
            lo = Fraction(rng.randint(-6, 2), rng.choice([1, 3, 10]))
            intervals.append((lo, lo + Fraction(rng.randint(1, 6), rng.choice([1, 2, 7]))))
        return ProductBox(intervals, t_p, centers)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_against_the_fraction_frame(self, d):
        rng = random.Random(600 + d)
        branches = refused = cases = 0
        while cases < 40:
            primes = tuple(p for p in self.PRIMES if rng.random() < 0.6)
            ctx = SConfig(primes)
            g = random_split_lattice(rng, S0, d, "random")
            basis_p = {p: self.basis(rng, p, d) for p in primes}
            shift_p = {p: self.shift(rng, p, d) for p in primes}
            try:
                bases, shifts = oracle_split(ctx, basis_p, shift_p, d)
            except ConfigError as exc:
                with pytest.raises(ConfigError) as got:
                    affine_slattice_split(ctx, g.basis_inf, basis_p,
                                          g.shift_inf, shift_p)
                assert str(got.value) == str(exc)
                refused += 1
                continue
            lat = affine_slattice_split(ctx, g.basis_inf, basis_p, g.shift_inf,
                                        shift_p)
            for p in primes:
                assert exact_basis(lat, p) == bases[p]
                assert exact_shift(lat, p) == shifts[p]
                assert lat.basis_p[p][1] % p != 0
            f = self.shape(rng, ctx, d)
            frame, want = _box_frame(lat, f), oracle_frame(lat, f, bases, shifts)
            assert (frame.big_r, frame.mod, frame.rem) == (want.big_r, want.mod, want.rem)
            assert (frame.b, frame.y0, frame.t2) == (want.b, want.y0, want.t2)
            try:
                n = _ellipsoid_integer_points(want, 20_000)
            except BudgetError:
                with pytest.raises(BudgetError, match="max_candidates=20000 "):
                    count_points(lat, f, 20_000)
            else:
                assert count_points(lat, f, 20_000) == n
                assert count_points(lat, place_box(f, d, primes), 20_000) == n
            branches += frame.mod > 1
            cases += 1
        assert branches >= 10 and refused >= 5, (branches, refused)

    def test_shift_over_a_common_denominator(self):
        # shift_den divides every finite shift; its numerators may be ints
        g = identity(2)
        lat = affine_slattice_split(S23, g, {2: g, 3: g}, None,
                                    {2: (1, 4), 3: (Fraction(1, 2), 0)}, shift_den=15)
        assert exact_shift(lat, 2) == (Fraction(1, 15), Fraction(4, 15))
        assert exact_shift(lat, 3) == (Fraction(1, 30), 0)

    def test_float_interval_ends(self):
        # each float end is the nearest float inside the exact end: float(1/3)
        # lies below 1/3 and float(11/10) above 11/10, float(-1/3) inside
        f = ProductBox([(Fraction(1, 3), Fraction(11, 10)), (Fraction(-1, 3), 1)])
        (lo, hi), (lo2, hi2) = place_box(f, 2, ()).intervals
        assert lo != float(Fraction(1, 3)) and hi != float(Fraction(11, 10))
        for end, x in ((Fraction(1, 3), lo), (Fraction(-1, 3), lo2)):
            assert Fraction(x) >= end > Fraction(math.nextafter(x, -math.inf))
        for end, x in ((Fraction(11, 10), hi), (Fraction(1), hi2)):
            assert Fraction(x) <= end < Fraction(math.nextafter(x, math.inf))
