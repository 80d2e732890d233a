"""Affine S-lattices and point counting inside S-adic boxes.

A lattice is Z_S^d . basis + shift, stored per place.  The real basis and
shift carry floats (Haar samples); the finite-place bases stay rational and
p-integral with unit determinant, tagged with the sampled digit depth, and
the finite-place shifts are rational.

Enumeration reduces the finite-place ball conditions to one congruence
class mod M per coordinate (the ultrametric makes multiplication by a
GL_d(Z_p) basis norm-preserving, so the conditions transfer to the
Z_S-coordinates directly), then walks the real ellipsoid with coordinate
wise interval pruning on an LDL decomposition (Fincke-Pohst).

A test function is a disk (SBox) or a product box (ProductBox), and each
gives its own center per place (places): one for a disk; for a product box
its real midpoint, whose circumscribed ball only prunes the walk, and its
own center at each prime.  At the last coordinate of a row a product box's
d real intervals are cut, then re-tested at the ends on the float image.

Two front ends share that walk.  enumerate_points builds every point with
its exact per-place images.  count_points only counts, the last coordinate
of each row in closed form; the Monte Carlo estimators score each draw with
it.  Whether a shape holds the origin depends on the shape alone
(holds_origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .errors import (
    ConfigError,
    DegenerateForm,
    DimensionMismatch,
    InsufficientPadicPrecision,
    RegionTooLarge,
)
from .sarith import SConfig, TVector, crt, frac_mod, min_valuation, valuation

DEFAULT_MAX_CANDIDATES = 2_000_000


# --- test functions ----------------------------------------------------------------


@dataclass(frozen=True)
class SBox:
    """{v : ||v - center||_2 < T_inf, |v_i - center_i|_p <= p^{t_p}}.

    Real condition strict Euclidean, finite conditions closed coordinatewise.
    """

    t: TVector
    center: tuple | None = None

    def volume(self, d: int) -> float:
        """Haar volume: Euclidean d-ball times p^{d t_p} per finite place."""
        unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
        v = unit * float(self.t.t_inf) ** d
        for p, tp in self.t.t_p.items():
            v *= float(p) ** (d * tp)
        return v

    def places(self, d: int, primes) -> tuple:
        """(center, t2, intervals, finite): the real ball of radius^2 t2, the
        closed intervals of a product box (None for a disk), and the balls
        finite[p] = (c_p, e_p).  A disk has one center at every place."""
        center = self.center or (Fraction(0),) * d
        if len(center) != d:
            raise DimensionMismatch("disk center has wrong length")
        return center, float(self.t.t_inf) ** 2, None, {
            p: (center, self.t.t_p.get(p, 0)) for p in primes
        }


@dataclass(frozen=True)
class ProductBox:
    """Real part a product of closed intervals lo < hi, finite part a ball
    |v_i - c_i|_p <= p^{e_p} per place; a place left out is the unit ball
    Z_p^d (c_p = 0, e_p = 0), which keeps the support compact."""

    intervals: tuple
    finite_exponent: dict = field(default_factory=dict)
    finite_center: dict = field(default_factory=dict)

    def __post_init__(self):
        intervals = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.intervals)
        if not intervals:
            raise ConfigError("empty product box")
        if any(hi <= lo for lo, hi in intervals):
            raise ConfigError("real intervals must have positive length")
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "finite_exponent", dict(self.finite_exponent))
        object.__setattr__(self, "finite_center", dict(self.finite_center))

    def places(self, d: int, primes) -> tuple:
        """As SBox.places: the real midpoint, the circumscribed ball widened
        far past float rounding so that a corner survives, and a ball at
        every prime, c_p = 0 and e_p = 0 where none is given."""
        finite = {}
        for p in primes:
            c = tuple(Fraction(x) for x in self.finite_center.get(p, (0,) * d))
            if len(c) != d:
                raise DimensionMismatch(f"finite center at p={p} has wrong length")
            finite[p] = c, int(self.finite_exponent.get(p, 0))
        center = tuple((lo + hi) / 2 for lo, hi in self.intervals)
        corner2 = sum(((hi - lo) / 2) ** 2 for lo, hi in self.intervals)
        return center, float(corner2) * (1 + 1e-9), self.intervals, finite

    def volume(self, primes) -> Fraction:
        """Exact Haar volume: the interval lengths times p^{d e_p} per prime."""
        d = len(self.intervals)
        v = math.prod((hi - lo for lo, hi in self.intervals), start=Fraction(1))
        for p, (_, e) in self.places(d, primes)[3].items():
            v *= Fraction(p) ** (d * e)
        return v


def holds_origin(box, d: int, primes) -> bool:
    """Whether count_points counts k = 0 on any lattice with zero shift:
    each finite ball holds 0, and the real test at 0 is the leaf test at
    n = 0, whose frame has y0 = -center (the same float squares)."""
    center, t2, intervals, finite = box.places(d, primes)
    for p, (c, e) in finite.items():
        v = min_valuation(c, p)
        if v is not None and v < -e:
            return False
    if intervals is None:
        return sum(float(c) * float(c) for c in center) < t2
    return all(lo <= 0 <= hi for lo, hi in intervals)


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
        v = min_valuation((x for row in m for x in row), p)
        if v is not None and v < 0:
            raise ConfigError(f"basis at p={p} is not p-integral")
        det_p = la.det(m)
        if det_p == 0 or valuation(det_p, p) != 0:
            raise ConfigError(f"basis at p={p} has non-unit determinant")
        bp[p] = m
    s_inf = tuple(map(float, (0.0,) * d if shift_inf is None else shift_inf))
    sp = {
        p: tuple(Fraction(x) for x in (shift_p or {}).get(p, (0,) * d))
        for p in ctx.primes
    }
    dep = {p: (depth or {}).get(p) for p in ctx.primes}
    return AffineSLattice(d, ctx, b_inf, s_inf, bp, sp, dep)


# --- enumeration -----------------------------------------------------------------------


def enumerate_points(
    lat: AffineSLattice, box, max_candidates: int = DEFAULT_MAX_CANDIDATES
):
    """All points of the lattice inside the box (an SBox or a ProductBox),
    sorted by their integer coordinates; the finite-place images are exact."""
    frame = _box_frame(lat, box)
    rem, mod, big_r = frame.rem, frame.mod, frame.big_r
    ns = []
    _ellipsoid_integer_points(frame, max_candidates, ns)
    points = []
    for n in ns:
        m = tuple(rem[i] + mod * n[i] for i in range(lat.dim))
        k = tuple(Fraction(mi, big_r) for mi in m)
        points.append(_make_point(lat, k))
    points.sort(key=lambda pt: pt.coords)
    return points


def count_points(
    lat: AffineSLattice, box, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> int:
    """len(enumerate_points(lat, box, max_candidates)), built without a
    single point: the last coordinate of each row is counted in closed
    form.  Same budget, same errors."""
    return _ellipsoid_integer_points(_box_frame(lat, box), max_candidates)


@dataclass(frozen=True)
class _BoxFrame:
    """A box seen from the lattice: the points inside are k = m / big_r with
    m = rem + mod * n, n an integer vector with ||n.b + y0||^2 < t2 (a disk)
    or with its real image inside `intervals` (a product box, whose ball t2
    only prunes the walk)."""

    big_r: int
    mod: int
    rem: tuple
    b: tuple
    y0: tuple
    t2: float
    intervals: tuple | None
    lat: AffineSLattice

    def inside(self, n) -> bool:
        """The leaf test at n: the open ball of a disk, or each coordinate
        of the float real image, computed as _make_point computes it (float
        k_i is (rem_i + mod n_i) / big_r), in a closed product-box interval."""
        if self.intervals is None:
            return _leaf_ok(n, self.b, self.y0, self.t2)
        real = _real_image(self.lat, [
            (r + self.mod * x) / self.big_r for r, x in zip(self.rem, n)
        ])
        return all(lo <= x <= hi for x, (lo, hi) in zip(real, self.intervals))


def _box_frame(lat: AffineSLattice, box) -> _BoxFrame:
    d = lat.dim
    ctx = lat.ctx
    center, t2, intervals, finite = box.places(d, ctx.primes)
    # finite places: k in w_p + p^{-e_p} Z_p^d componentwise, where w_p =
    # (c_p - shift_p) basis_p^-1 has the p-adic norm of c_p - shift_p, as
    # basis_p is in GL_d(Z_p); w_p itself is needed only for a congruence
    residues = {}
    for p in ctx.primes:
        center_p, tp = finite[p]
        diff = tuple(Fraction(c) - s for c, s in zip(center_p, lat.shift_p[p]))
        v = min_valuation(diff, p)
        r_p = max(tp, 0 if v is None else -v, 0)
        s_p = r_p - tp
        if lat.depth[p] is not None and s_p > lat.depth[p]:
            raise InsufficientPadicPrecision(
                f"need {s_p} digits at p={p}, sampled {lat.depth[p]}"
            )
        w = la.vec_mat(diff, la.inverse(lat.basis_p[p])) if s_p else None
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
    # real place: v(n) = n . B + y0 with m = rem + mod * n.  The scale
    # mod / big_r is prod p^-e_p; the walk needs its square a normal float.
    if not (big_r < mod << 500 and mod < big_r << 500):
        exps = ", ".join(f"{p}={finite[p][1]}" for p in ctx.primes)
        raise ConfigError(f"finite exponents {exps} are out of range: prod "
                          "p^-e_p must lie between 2^-500 and 2^500")
    scale = mod / big_r
    b = tuple(tuple(scale * float(x) for x in row) for row in lat.basis_inf)
    base = [
        sum(rem[i] / big_r * float(lat.basis_inf[i][j]) for i in range(d))
        for j in range(d)
    ]
    y0 = tuple(
        bb + float(s) - float(c) for bb, s, c in zip(base, lat.shift_inf, center)
    )
    return _BoxFrame(big_r, mod, tuple(rem), b, y0, t2, intervals, lat)


def _real_image(lat: AffineSLattice, k) -> tuple:
    """sum_i k_i basis_inf[i] + shift_inf for float coordinates k."""
    return tuple(
        sum(k[i] * lat.basis_inf[i][j] for i in range(lat.dim)) + lat.shift_inf[j]
        for j in range(lat.dim)
    )


def _make_point(lat: AffineSLattice, k) -> LatticePoint:
    real = _real_image(lat, [float(x) for x in k])
    finite = {
        p: tuple(
            x + s
            for x, s in zip(la.vec_mat(k, lat.basis_p[p]), lat.shift_p[p])
        )
        for p in lat.ctx.primes
    }
    return LatticePoint(k, real, finite)


def _ellipsoid_integer_points(frame: _BoxFrame, max_candidates, out=None) -> int:
    """Number of integer n with ||n.b + y0||^2 < t2, or for a product box
    with n inside the frame's intervals, via LDL with interval pruning
    (Fincke-Pohst); each n is appended to `out` when a list is given.

    The recursion peels the last coordinate first; bounds at each level are
    slightly loosened and every leaf is re-tested with the frame's own test.
    The loosened range of every level, the leaf level included, is charged
    to the max_candidates budget.  Without `out` the leaf level is counted
    in closed form instead of point by point.
    """
    b, y0, t2, box = frame.b, frame.y0, frame.t2, frame.intervals
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
    if box is not None:
        # The walk keeps |n_i| < reach[i].  Widen each half-width by 1e-9 of
        # a bound on the terms of the coordinate's float images, the walk's
        # and the point's, far past their rounding, so that the cut at the
        # leaf keeps every n[0] that the leaf test accepts.
        reach = [abs(c) + math.sqrt(t2 * sum(row[i] ** 2 for row in binv)) + 2
                 for i, c in enumerate(nstar)]
        width = [
            (1 + 1e-9) * float(hi - lo) / 2 + 1e-9 * (
                sum(r * abs(row[j]) for r, row in zip(reach, b))
                + abs(frame.lat.shift_inf[j]) + abs(float(hi + lo) / 2))
            for j, (lo, hi) in enumerate(box)
        ]

    def leaf_in(nv, rem, offset) -> bool:
        # a disk's new_rem against its tolerance, then the frame's test
        if box is None and rem - diag[0] * (nv - nstar[0] + offset) ** 2 < rem_floor:
            return False
        n[0] = nv
        return frame.inside(n)

    def box_cut(lo, hi):
        # coordinate j of v = n.b + y0 is c + n[0] * s on the row
        for j in range(d):
            s = b[0][j]
            if s:
                c = sum(n[i] * b[i][j] for i in range(1, d)) + y0[j]
                ends = (-width[j] - c) / s, (width[j] - c) / s
                lo = max(lo, math.ceil(min(ends)))
                hi = min(hi, math.floor(max(ends)))
        return lo, hi

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
            if box is not None:
                lo, hi = box_cut(lo, hi)
            if out is None:
                # The leaf test holds on an interval of n[0].  For a disk,
                # new_rem is concave and ||n.b + y0||^2 convex in n[0], and
                # at an interior integer each sits past its worse endpoint
                # by at least d_0 resp. ||b_0||^2, far above float rounding.
                # For a box, each float operation of a real image coordinate
                # is monotone in n[0].  So trim the loosened ends and count
                # what is left.
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
