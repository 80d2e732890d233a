"""Affine S-lattices and point enumeration inside S-adic boxes.

A lattice is Z_S^d . basis + shift, stored per place.  The real basis and
shift carry floats (Haar samples); the finite-place bases stay rational and
p-integral with unit determinant, tagged with the sampled digit depth, and
the finite-place shifts are rational.

Enumeration reduces the finite-place ball conditions to one congruence
class mod M per coordinate (the ultrametric makes multiplication by a
GL_d(Z_p) basis norm-preserving, so the conditions transfer to the
Z_S-coordinates directly), then walks the real ellipsoid with coordinate
wise interval pruning on an LDL decomposition (Fincke-Pohst).

Two front ends share that walk.  enumerate_points builds every point with
its exact per-place images.  count_points only counts: the last coordinate
of each row is an interval, counted in closed form, and the origin is
located once per lattice.  siegel_transform counts SBox indicators with
count_points; product boxes need the points, so they go through
enumerate_points and test each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .errors import (
    ConfigError,
    DegenerateForm,
    InsufficientPadicPrecision,
    RegionTooLarge,
)
from .sarith import INF, SConfig, TVector, crt, frac_mod, padic_norm, valuation

DEFAULT_MAX_CANDIDATES = 2_000_000


# --- boxes and test functions ---------------------------------------------------


@dataclass(frozen=True)
class SBox:
    """{v : ||v - center||_2 < T_inf, |v_i - center_i|_p <= p^{t_p}}.

    Real condition strict Euclidean, finite conditions closed coordinatewise.
    """

    t: TVector
    center: tuple | None = None

    def center_at(self, d: int):
        if self.center is None:
            return (Fraction(0),) * d
        return self.center

    def volume(self, d: int) -> float:
        """Haar volume: Euclidean d-ball times p^{d t_p} per finite place."""
        unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        v = unit * float(self.t.t_inf) ** d
        for p, tp in self.t.t_p.items():
            v *= float(p) ** (d * tp)
        return v


@dataclass(frozen=True)
class TestFunction:
    """Indicator test functions: an SBox or a product box.

    sbox: the indicator of `box`, counted by siegel_transform without
    building a point.
    product-box: real part is a product of closed intervals, finite part a
    ball |v_i - c_i|_p <= p^{e_p} per place.
    """

    kind: str
    box: SBox | None = None
    intervals: tuple | None = None
    finite_center: dict | None = None
    finite_exponent: dict | None = None

    def support_box(self, ctx: SConfig, d: int) -> SBox:
        """An SBox holding the support of a product-box indicator."""
        lo = [Fraction(x) for x, _ in self.intervals]
        hi = [Fraction(x) for _, x in self.intervals]
        center = tuple((a + b) / 2 for a, b in zip(lo, hi))
        # the Euclidean radius covers the corner of the real product box
        corner = sum(((b - a) / 2) ** 2 for a, b in zip(lo, hi))
        t_inf = _isqrt_ceil_fraction(corner) + 1
        t_p = {}
        for p in ctx.primes:
            e = (self.finite_exponent or {}).get(p, 0)
            c = (self.finite_center or {}).get(p, (0,) * d)
            # the support box is centered at the real center, so absorb the
            # p-adic distance between the two centers
            gap = max(
                (
                    -valuation(Fraction(ci) - mi, p)
                    for ci, mi in zip(c, center)
                    if Fraction(ci) != mi
                ),
                default=0,
            )
            t_p[p] = max(e, gap, 0)
        return SBox(TVector(t_inf, t_p, ctx), center)

    def __call__(self, point, ctx: SConfig) -> int:
        """The product-box indicator at a lattice point."""
        real = point.image(INF)
        for x, (lo, hi) in zip(real, self.intervals):
            if not (lo <= x <= hi):
                return 0
        for p in ctx.primes:
            # an omitted place constrains to the unit ball Z_p^d, which
            # keeps the support compact in Q_S^d
            e = (self.finite_exponent or {}).get(p, 0)
            c = (self.finite_center or {}).get(p, (0,) * len(real))
            for x, ci in zip(point.image(p), c):
                if padic_norm(Fraction(x) - Fraction(ci), p) > Fraction(p) ** e:
                    return 0
        return 1


def indicator_sbox(box: SBox) -> TestFunction:
    return TestFunction(kind="sbox", box=box)


def indicator_product_box(intervals, finite_exponent=None, finite_center=None):
    return TestFunction(
        kind="product-box",
        intervals=tuple((x, y) for x, y in intervals),
        finite_exponent=dict(finite_exponent or {}),
        finite_center=dict(finite_center or {}),
    )


# --- lattices ---------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSLattice:
    """Z_S^d @ basis + shift, per place; see the module docstring."""

    dim: int
    ctx: SConfig
    basis_inf: tuple
    shift_inf: tuple
    basis_p: dict
    shift_p: dict
    depth: dict


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point: Z_S-coordinates plus per-place images."""

    coords: tuple
    real: tuple
    finite: dict

    def image(self, place):
        return self.real if place == INF else self.finite[place]

    def is_origin(self) -> bool:
        finite_zero = all(
            all(x == 0 for x in img) for img in self.finite.values()
        )
        return finite_zero and all(abs(float(x)) < 1e-12 for x in self.real)


def affine_slattice_split(
    ctx: SConfig, basis_inf, basis_p, shift_inf=None, shift_p=None,
    depth=None,
) -> AffineSLattice:
    """A lattice with a float real basis and exact p-integral finite bases."""
    d = len(basis_inf)
    b_inf = tuple(tuple(float(x) for x in row) for row in basis_inf)
    det = float(np.linalg.det(b_inf))
    if abs(abs(det) - 1.0) > 1e-6:
        raise ConfigError(f"real basis determinant {det} is not +-1")
    bp = {}
    for p in ctx.primes:
        m = la.as_matrix(basis_p[p])
        if any(valuation(x, p) < 0 for row in m for x in row if x != 0):
            raise ConfigError(f"basis at p={p} is not p-integral")
        if valuation(la.det(m), p) != 0:
            raise ConfigError(f"basis at p={p} has non-unit determinant")
        bp[p] = m
    s_inf = tuple(float(x) for x in (shift_inf or (0.0,) * d))
    sp = {
        p: tuple(Fraction(x) for x in (shift_p or {}).get(p, (0,) * d))
        for p in ctx.primes
    }
    dep = {p: (depth or {}).get(p) for p in ctx.primes}
    return AffineSLattice(d, ctx, b_inf, s_inf, bp, sp, dep)


# --- integer square roots on fractions -----------------------------------------------


def _isqrt_ceil_fraction(x: Fraction) -> int:
    """ceil(sqrt(x)) for x >= 0."""
    f = math.isqrt(x.numerator * x.denominator) // x.denominator
    return f if Fraction(f) * f == x else f + 1


# --- enumeration -----------------------------------------------------------------------


def enumerate_points(
    lat: AffineSLattice, box: SBox, max_candidates: int = DEFAULT_MAX_CANDIDATES
):
    """All points of the lattice inside the box, sorted by their integer
    coordinate representative; the finite-place images are exact."""
    frame = _box_frame(lat, box)
    rem, mod, big_r = frame.rem, frame.mod, frame.big_r
    ns = []
    _ellipsoid_integer_points(frame.b, frame.y0, frame.t2, max_candidates, ns)
    points = []
    for n in ns:
        m = tuple(rem[i] + mod * n[i] for i in range(lat.dim))
        k = tuple(Fraction(mi, big_r) for mi in m)
        points.append(_make_point(lat, k))
    points.sort(key=lambda pt: pt.coords)
    return points


def count_points(
    lat: AffineSLattice, box: SBox, max_candidates: int = DEFAULT_MAX_CANDIDATES,
    homogeneous: bool = False,
) -> int:
    """len(enumerate_points(lat, box, max_candidates)), without the origin
    when homogeneous, built without a single point: the last coordinate of
    each row is counted in closed form.  Same budget, same errors."""
    frame = _box_frame(lat, box)
    total = _ellipsoid_integer_points(frame.b, frame.y0, frame.t2, max_candidates)
    if homogeneous and _origin_enumerated(lat, frame):
        total -= 1
    return total


@dataclass(frozen=True)
class _BoxFrame:
    """A box seen from the lattice: the points inside are k = m / big_r with
    m = rem + mod * n, n an integer vector with ||n.b + y0||^2 < t2."""

    big_r: int
    mod: int
    rem: tuple
    b: tuple
    y0: tuple
    t2: float


def _box_frame(lat: AffineSLattice, box: SBox) -> _BoxFrame:
    d = lat.dim
    ctx = lat.ctx
    center = box.center_at(d)
    # finite places: k in w_p + p^{-t_p} Z_p^d componentwise
    residues = {}
    for p in ctx.primes:
        tp = box.t.t_p.get(p, 0)
        ginv = la.inverse(lat.basis_p[p])
        w = la.vec_mat(
            tuple(Fraction(c) - s for c, s in zip(center, lat.shift_p[p])), ginv
        )
        r_p = max(
            tp,
            max((-valuation(x, p) for x in w if x != 0), default=0),
            0,
        )
        s_p = r_p - tp
        if lat.depth[p] is not None and s_p > lat.depth[p]:
            raise InsufficientPadicPrecision(
                f"need {s_p} digits at p={p}, sampled {lat.depth[p]}"
            )
        residues[p] = (r_p, s_p, w)
    big_r = 1
    for p in ctx.primes:
        big_r *= p ** residues[p][0]
    # CRT the per-coordinate congruences m = R w mod p^{s_p}
    mod = 1
    rem = [0] * d
    for p in ctx.primes:
        r_p, s_p, w = residues[p]
        pe = p**s_p
        if pe == 1:
            continue
        for i in range(d):
            rem[i] = crt(rem[i], mod, frac_mod(big_r * w[i], pe), pe)
        mod *= pe
    # real place: v(n) = n . B + y0 with m = rem + mod * n
    scale = mod / big_r
    b = tuple(tuple(scale * float(x) for x in row) for row in lat.basis_inf)
    base = [
        sum(rem[i] / big_r * float(lat.basis_inf[i][j]) for i in range(d))
        for j in range(d)
    ]
    y0 = tuple(
        bb + float(s) - float(c) for bb, s, c in zip(base, lat.shift_inf, center)
    )
    t2 = float(box.t.t_inf) ** 2
    return _BoxFrame(big_r, mod, tuple(rem), b, y0, t2)


def _origin_enumerated(lat: AffineSLattice, frame: _BoxFrame) -> bool:
    """Whether enumerate_points would list a point with is_origin().

    The exact image k.basis + shift = 0 at a finite place fixes k.  Without
    finite places the float real image fixes k up to rounding, since the
    lattice has covolume 1.  So at most one k qualifies.
    """
    if lat.ctx.primes:
        p = lat.ctx.primes[0]
        k = tuple(-x for x in la.vec_mat(lat.shift_p[p], la.inverse(lat.basis_p[p])))
    else:
        k = tuple(
            Fraction(round(-float(x)))
            for x in np.asarray(lat.shift_inf) @ np.linalg.inv(lat.basis_inf)
        )
    n = []
    for ki, ri in zip(k, frame.rem):
        m = ki * frame.big_r
        if m.denominator != 1 or (m.numerator - ri) % frame.mod:
            return False
        n.append((m.numerator - ri) // frame.mod)
    return _make_point(lat, k).is_origin() and _leaf_ok(
        n, frame.b, frame.y0, frame.t2
    )


def _make_point(lat: AffineSLattice, k) -> LatticePoint:
    real = tuple(
        sum(float(k[i]) * lat.basis_inf[i][j] for i in range(lat.dim))
        + lat.shift_inf[j]
        for j in range(lat.dim)
    )
    finite = {
        p: tuple(
            x + s
            for x, s in zip(la.vec_mat(k, lat.basis_p[p]), lat.shift_p[p])
        )
        for p in lat.ctx.primes
    }
    return LatticePoint(k, real, finite)


def _ellipsoid_integer_points(b, y0, t2, max_candidates, out=None) -> int:
    """Number of integer n with ||n.b + y0||^2 < t2, via LDL with interval
    pruning (Fincke-Pohst); each n is appended to `out` when a list is given.

    The recursion peels the last coordinate first; bounds at each level are
    slightly loosened and every leaf is re-tested with the original metric.
    The loosened range of every level, the leaf level included, is charged
    to the max_candidates budget.  Without `out` the leaf level is counted
    in closed form instead of point by point.
    """
    d = len(b)
    h = [[sum(b[i][k] * b[j][k] for k in range(d)) for j in range(d)] for i in range(d)]
    # affine center: n* = -y0 . b^{-1}
    binv = np.linalg.inv(b).tolist()
    nstar = tuple(-sum(y0[i] * binv[i][j] for i in range(d)) for j in range(d))
    diag, lower = _ldl(h)
    # a level's remaining radius^2 below this has left the ellipsoid
    rem_floor = -1e-9 * t2
    n = [0] * d
    left = max_candidates

    def leaf_in(nv, rem, offset) -> bool:
        # new_rem against its tolerance, then the original metric
        if rem - diag[0] * (nv - nstar[0] + offset) ** 2 < rem_floor:
            return False
        n[0] = nv
        return _leaf_ok(n, b, y0, t2)

    def recurse(level, rem) -> int:
        # In the LDL expansion Q(n - n*) = sum_i d_i (z_i + sum_{j>i} L_ji z_j)^2
        # with z = n - n*, the term at `level` depends only on deeper
        # coordinates, so fixing levels from d-1 downward keeps an exact
        # remaining radius^2 `rem`.
        nonlocal left
        offset = sum(lower[j][level] * (n[j] - nstar[j]) for j in range(level + 1, d))
        # d_level * (z_level + offset)^2 <= rem
        bound2 = rem / diag[level]
        if bound2 < 0:
            return 0
        half = math.sqrt(bound2) * (1 + 1e-12) + 1e-9
        center = nstar[level] - offset
        lo = math.ceil(center - half)
        hi = math.floor(center + half)
        left -= max(0, hi - lo + 1)
        if left < 0:
            raise RegionTooLarge(
                f"enumeration budget exceeded (more than max_candidates="
                f"{max_candidates} candidates); raise max_candidates"
            )
        if level == 0:
            if out is None:
                # The leaf test holds on an interval of n[0]: new_rem is
                # concave and ||n.b + y0||^2 convex in n[0], and at an
                # interior integer each sits past its worse endpoint by at
                # least d_0 resp. ||b_0||^2, far above float rounding.  So
                # trim the loosened ends and count what is left.
                while lo <= hi and not leaf_in(lo, rem, offset):
                    lo += 1
                while hi > lo and not leaf_in(hi, rem, offset):
                    hi -= 1
                return max(0, hi - lo + 1)
            found = 0
            for nv in range(lo, hi + 1):
                if leaf_in(nv, rem, offset):
                    out.append(tuple(n))
                    found += 1
            return found
        found = 0
        for nv in range(lo, hi + 1):
            new_rem = rem - diag[level] * (nv - nstar[level] + offset) ** 2
            if new_rem < rem_floor:
                continue
            n[level] = nv
            found += recurse(level - 1, new_rem)
        return found

    return recurse(d - 1, t2)


def _ldl(h):
    """h = L D L^T with L unit lower triangular, in floats."""
    d = len(h)
    lower = [[0.0] * d for _ in range(d)]
    diag = [0.0] * d
    for i in range(d):
        lower[i][i] = 1.0
    for j in range(d):
        s = h[j][j] - sum(diag[k] * lower[j][k] * lower[j][k] for k in range(j))
        if s <= 0.0:
            raise DegenerateForm("lattice Gram not positive definite")
        diag[j] = s
        for i in range(j + 1, d):
            lower[i][j] = (
                h[i][j] - sum(diag[k] * lower[i][k] * lower[j][k] for k in range(j))
            ) / diag[j]
    return diag, lower


def _leaf_ok(n, b, y0, t2) -> bool:
    d = len(n)
    v = [sum(n[i] * b[i][j] for i in range(d)) + y0[j] for j in range(d)]
    s = sum(x * x for x in v)
    return s < t2


# --- Siegel transforms and counting ------------------------------------------------


def siegel_transform(
    f: TestFunction, lat: AffineSLattice, mode: str = "affine",
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> int:
    """Sum of f over the lattice (affine) or over the nonzero points
    (homogeneous).

    For an SBox indicator that is the number of lattice points in the box,
    taken from count_points without building a point.  A product-box
    indicator enumerates the points of its support box and evaluates f on
    each.
    """
    if mode not in ("affine", "homogeneous"):
        raise ConfigError("mode must be affine or homogeneous")
    if f.kind == "sbox":
        return count_points(lat, f.box, max_candidates, mode == "homogeneous")
    support = f.support_box(lat.ctx, lat.dim)
    total = 0
    for pt in enumerate_points(lat, support, max_candidates):
        if mode == "homogeneous" and pt.is_origin():
            continue
        total += f(pt, lat.ctx)
    return total
