"""Affine S-lattices and point counting inside S-adic boxes.

A lattice is Z_S^d . basis + shift, stored per place.  The real basis and
shift carry floats (Haar samples).  Each finite-place basis and shift is
held as int numerators over one positive int denominator: the bases are
p-integral with unit determinant (their denominators are prime to p),
tagged with the sampled digit depth, and a shift may have any denominator.
affine_slattice_split reads rational input into that form once.  For a
p-integral shift the digits a count reads depend on the box alone
(sampler_depth); a lattice drawn shallower than that is refused.

Enumeration reduces the finite-place ball conditions to one congruence
class mod M per coordinate (the ultrametric makes multiplication by a
GL_d(Z_p) basis norm-preserving, so the conditions transfer to the
Z_S-coordinates directly), then walks the real ellipsoid with coordinate
wise interval pruning on the LDL decomposition of its Gram, read off
numpy's Cholesky factor (Fincke-Pohst).  The reduction is done in
integers: valuations of int numerators, and where a congruence is needed
the basis inverted mod p^s by its adjugate.  A box's own per-place data
(place_box) are built once per run, so counting a sampled lattice makes no
Fraction.

A test function is a disk (SBox) or a product box (ProductBox).  Only
place_box reads a shape's fields: it checks that each of the shape's
vectors has d coordinates and builds the PlacedBox that the count, the
origin test, the sampler depth and the exact series of moments read.  It
gives a center per place: one for a disk; for a product box its real
midpoint, whose circumscribed ball only prunes the walk, and its own
center at each prime.  Each shape closes a row of the walk its own way,
picked once per count: a disk tests the open ball, a product box cuts the
row by its d real intervals and tests them on the float image; that test
alone accepts a leaf.

Two front ends share that walk.  enumerate_points builds every point with
its exact per-place images.  count_points only counts, the last coordinate
of each row in closed form; the Monte Carlo estimators score each draw with
it.  Whether a shape holds the origin depends on the placed shape alone
(holds_origin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .errors import BudgetError, ConfigError
from .sarith import (
    SConfig,
    TVector,
    crt,
    frac_mod,
    min_valuation,
    over_one_denominator,
    valuation,
)

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

    def volume(self, primes) -> Fraction:
        """Exact Haar volume: the interval lengths times p^{d e_p} per prime."""
        d = len(self.intervals)
        v = math.prod((hi - lo for lo, hi in self.intervals), start=Fraction(1))
        for p in primes:
            v *= Fraction(p) ** (d * int(self.finite_exponent.get(p, 0)))
        return v


@dataclass(frozen=True)
class PlacedBox:
    """A test function as every consumer reads it, built once per run
    (place_box): the real center in floats and the real ball t2; for a
    product box each closed interval exactly (exact_intervals), as the float
    interval that holds the same floats (intervals) and as its (length,
    |midpoint|) in floats (spans), all None for a disk; and at each prime
    finite[p] = (nums, den, e_p), the center as ints over one denominator."""

    center: tuple
    t2: float
    exact_intervals: tuple | None
    intervals: tuple | None
    spans: tuple | None
    finite: dict


def place_box(box, d: int, primes) -> PlacedBox:
    """The PlacedBox of an SBox or a ProductBox in d coordinates, the one
    reader of a shape's fields.  A disk has one center at every place; a
    product box its real midpoint, whose circumscribed ball (widened far
    past float rounding, so that a corner survives) only prunes the walk,
    and a ball at every prime, c_p = 0 and e_p = 0 where none is given."""
    if isinstance(box, SBox):
        exact, center = None, box.center or (0,) * d
        real = "test function center", center
        finite = {p: (center, box.t.t_p.get(p, 0)) for p in primes}
    else:
        exact = box.intervals
        real = "test function real part", exact
        center = tuple((lo + hi) / 2 for lo, hi in exact)
        finite = {p: (box.finite_center.get(p, (0,) * d),
                      int(box.finite_exponent.get(p, 0))) for p in primes}
    named = [(f"finite_center at {p} of the test function", c)
             for p, (c, _) in finite.items()]
    for what, v in [real, *named]:
        if len(v) != d:
            raise ConfigError(f"{what} has {len(v)} coordinates, not d = {d}")
    spans = intervals = None
    if exact is None:
        try:
            t2 = float(box.t.t_inf) ** 2
        except OverflowError:
            raise ConfigError(
                f"disk radius {float(box.t.t_inf)!r} is too large: its "
                "square overflows a float"
            ) from None
    else:
        corner2 = sum(((hi - lo) / 2) ** 2 for lo, hi in exact)
        try:
            t2 = float(corner2) * (1 + 1e-9)
        except OverflowError:
            lo, hi = max(exact, key=lambda iv: iv[1] - iv[0])
            raise ConfigError(
                f"real interval {float(lo)!r}..{float(hi)!r} is too long: "
                "the box's corner overflows a float"
            ) from None
        spans = tuple((float(hi - lo), abs(float(hi + lo) / 2))
                      for lo, hi in exact)
        intervals = tuple(map(_float_bounds, exact))
    return PlacedBox(
        tuple(float(c) for c in center), t2, exact, intervals, spans,
        {p: (*over_one_denominator(c), e) for p, (c, e) in finite.items()},
    )


def sampler_depth(box: PlacedBox) -> dict[int, int]:
    """k_p = max(e_p, -v_p(c_p), 0) - e_p, the digits of a finite basis and
    shift that a count of the box reads at each prime p: _box_frame's s_p
    for any p-integral shift, as c_p - shift then has valuation v_p(c_p)
    where that is negative and is p-integral otherwise."""
    return {p: _radius(nums, den, e, p) - e
            for p, (nums, den, e) in box.finite.items()}


def _radius(nums, den, e: int, p: int) -> int:
    """r_p = max(e, -v_p(x), 0) for the vector x = nums / den: the scale
    p^{r_p} that makes the ball x + p^{-e} Z_p^d integral."""
    v = min_valuation(nums, p)
    return max(e, 0 if v is None else valuation(den, p) - v, 0)


def _float_bounds(interval) -> tuple:
    """(a, b): the least float a >= lo and the greatest float b <= hi, so a
    float x lies in [lo, hi] exactly when a <= x <= b."""
    lo, hi = interval
    a, b = float(lo), float(hi)
    if a < lo:
        a = math.nextafter(a, math.inf)
    if b > hi:
        b = math.nextafter(b, -math.inf)
    return a, b


def holds_origin(box: PlacedBox) -> bool:
    """Whether count_points counts k = 0 on any lattice with zero shift:
    each finite ball holds 0, that is v_p(c_p) >= -e_p, and the real test
    at 0 is the disk's or the box's leaf test at n = 0, whose frame has
    y0 = -center (the same float squares)."""
    for p, (nums, den, e) in box.finite.items():
        v = min_valuation(nums, p)
        if v is not None and v - valuation(den, p) < -e:
            return False
    if box.intervals is None:
        return sum(c * c for c in box.center) < box.t2
    return all(lo <= 0 <= hi for lo, hi in box.intervals)


# --- lattices ---------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSLattice:
    """Z_S^d @ basis + shift, per place; see the module docstring.

    basis_p[p] = (rows, den) and shift_p[p] = (nums, den): int numerators
    over one positive int denominator, prime to p for a basis."""

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
    depth=None, shift_den: int = 1,
) -> AffineSLattice:
    """A lattice with a float real basis and exact p-integral finite bases.
    The finite shift at p is shift_p[p] / shift_den.  Each finite basis and
    shift, int or rational, is read once into int numerators over one
    denominator; int input makes no Fraction."""
    d = len(basis_inf)
    b_inf = tuple(tuple(float(x) for x in row) for row in basis_inf)
    det = float(np.linalg.det(b_inf))
    if abs(abs(det) - 1.0) > 1e-6:
        raise ConfigError(f"real basis determinant {det} is not +-1")
    bp = {}
    for p in ctx.primes:
        # the entries are in lowest terms, so p divides the common
        # denominator exactly when some entry has p in its own
        nums, den = over_one_denominator(x for row in basis_p[p] for x in row)
        if den % p == 0:
            raise ConfigError(f"basis at p={p} is not p-integral")
        rows = tuple(nums[i:i + d] for i in range(0, len(nums), d))
        if la.det(rows) % p == 0:
            raise ConfigError(f"basis at p={p} has non-unit determinant")
        bp[p] = rows, den
    s_inf = tuple(map(float, (0.0,) * d if shift_inf is None else shift_inf))
    sp = {
        p: over_one_denominator((shift_p or {}).get(p, (0,) * d), shift_den)
        for p in ctx.primes
    }
    dep = {p: (depth or {}).get(p) for p in ctx.primes}
    return AffineSLattice(d, ctx, b_inf, s_inf, bp, sp, dep)


# --- enumeration -----------------------------------------------------------------------


def enumerate_points(
    lat: AffineSLattice, box, max_candidates: int = DEFAULT_MAX_CANDIDATES
):
    """All points of the lattice inside the box (an SBox, a ProductBox or
    its PlacedBox), sorted by their integer coordinates; the finite-place
    images are exact."""
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
    m = rem + mod * n, n an integer vector with ||n.b + y0||^2 < t2 (a disk,
    intervals and spans None) or with its real image inside `intervals` (a
    product box, whose ball t2 only prunes the walk)."""

    big_r: int
    mod: int
    rem: tuple
    b: tuple
    y0: tuple
    t2: float
    intervals: tuple | None
    spans: tuple | None
    lat: AffineSLattice


def _box_frame(lat: AffineSLattice, box) -> _BoxFrame:
    d = lat.dim
    ctx = lat.ctx
    if not isinstance(box, PlacedBox):
        box = place_box(box, d, ctx.primes)
    # finite places: k in w_p + p^{-e_p} Z_p^d componentwise, where w_p =
    # (c_p - shift_p) basis_p^-1 has the p-adic norm of c_p - shift_p, as
    # basis_p is in GL_d(Z_p); w_p itself is needed only for a congruence.
    # c_p - shift_p is diff / den, in ints.
    residues = {}
    for p in ctx.primes:
        c_num, c_den, tp = box.finite[p]
        s_num, s_den = lat.shift_p[p]
        diff = tuple(c * s_den - s * c_den for c, s in zip(c_num, s_num))
        den = c_den * s_den
        r_p = _radius(diff, den, tp, p)
        s_p = r_p - tp
        if lat.depth[p] is not None and s_p > lat.depth[p]:
            raise ConfigError(
                f"need {s_p} digits at p={p}, sampled {lat.depth[p]}"
            )
        residues[p] = (r_p, s_p, diff, den)
    big_r = 1
    for p in ctx.primes:
        big_r *= p ** residues[p][0]
    # CRT the per-coordinate congruences m = R w mod p^{s_p}.  R (c_p -
    # shift_p) is p-integral, and R w = R (c_p - shift_p) b_den b_num^-1
    # mod p^{s_p} for basis_p = b_num / b_den.
    mod = 1
    rem = [0] * d
    for p in ctx.primes:
        r_p, s_p, diff, den = residues[p]
        if not s_p:
            continue
        pe = p**s_p
        b_num, b_den = lat.basis_p[p]
        x = [frac_mod(big_r * b_den * c, pe, den) for c in diff]
        w = la.vec_mat(x, la.inverse_mod(b_num, pe))
        for i in range(d):
            rem[i] = crt(rem[i], mod, w[i] % pe, pe)
        mod *= pe
    # real place: v(n) = n . B + y0 with m = rem + mod * n.  The scale
    # mod / big_r is prod p^-e_p; the walk needs its square a normal float.
    if not (big_r < mod << 500 and mod < big_r << 500):
        exps = ", ".join(f"{p}={box.finite[p][2]}" for p in ctx.primes)
        raise ConfigError(f"finite exponents {exps} are out of range: prod "
                          "p^-e_p must lie between 2^-500 and 2^500")
    scale = mod / big_r
    b = tuple(tuple(scale * float(x) for x in row) for row in lat.basis_inf)
    base = [
        sum(rem[i] / big_r * float(lat.basis_inf[i][j]) for i in range(d))
        for j in range(d)
    ]
    y0 = tuple(bb + s - c for bb, s, c in zip(base, lat.shift_inf, box.center))
    return _BoxFrame(big_r, mod, tuple(rem), b, y0, box.t2, box.intervals,
                     box.spans, lat)


def _real_image(lat: AffineSLattice, k) -> tuple:
    """sum_i k_i basis_inf[i] + shift_inf for float coordinates k."""
    return tuple(
        sum(k[i] * lat.basis_inf[i][j] for i in range(lat.dim)) + lat.shift_inf[j]
        for j in range(lat.dim)
    )


def _make_point(lat: AffineSLattice, k) -> LatticePoint:
    real = _real_image(lat, [float(x) for x in k])
    finite = {}
    for p in lat.ctx.primes:
        (b_num, b_den), (s_num, s_den) = lat.basis_p[p], lat.shift_p[p]
        finite[p] = tuple(x / b_den + Fraction(s, s_den)
                          for x, s in zip(la.vec_mat(k, b_num), s_num))
    return LatticePoint(k, real, finite)


def _ellipsoid_integer_points(frame: _BoxFrame, max_candidates, out=None) -> int:
    """Number of integer n with ||n.b + y0||^2 < t2, or for a product box
    with n inside the frame's intervals, via LDL (from numpy's Cholesky
    factor of b b^T) with interval pruning (Fincke-Pohst); each n is
    appended to `out` when a list is given.

    The recursion peels the last coordinate first; bounds at each level are
    slightly loosened and charged to the max_candidates budget, the leaf
    level's too.  Each row is then closed by the shape's cut and leaf test,
    picked once; the leaf test alone decides membership.  Without `out` the
    leaf level is counted in closed form instead of point by point.
    """
    b, y0, t2, box = frame.b, frame.y0, frame.t2, frame.intervals
    d = len(b)
    bm = np.array(b)
    try:
        # b b^T = L D L^T: D the squared diagonal of the Cholesky factor, L
        # that factor with each column divided by its diagonal entry
        chol = np.linalg.cholesky(bm @ bm.T)
        binv = np.linalg.inv(bm)
    except np.linalg.LinAlgError:
        raise ConfigError("lattice Gram not positive definite") from None
    root = np.diagonal(chol)
    diag, lower = (root**2).tolist(), (chol / root).tolist()
    # affine center: n* = -y0 . b^{-1}
    nstar = (-np.array(y0) @ binv).tolist()
    n = [0] * d
    left = max_candidates
    # the shape's row closer: cut the loosened range of n[0], test a leaf
    if box is None:
        def cut(lo, hi):
            return lo, hi

        def leaf_in(nv) -> bool:
            n[0] = nv
            v = [sum(n[i] * b[i][j] for i in range(d)) + y0[j] for j in range(d)]
            return sum(x * x for x in v) < t2
    else:
        # The walk keeps |n_i| < reach[i].  Widen each half-width by 1e-9 of
        # a bound on the terms of the coordinate's float images, the walk's
        # and the point's, far past their rounding, so that the cut at the
        # leaf keeps every n[0] that the leaf test accepts.
        reach = np.abs(nstar) + np.sqrt(t2 * (binv**2).sum(axis=0)) + 2
        length, mid = np.transpose(frame.spans)
        width = ((1 + 1e-9) * length / 2 + 1e-9 * (
            reach @ np.abs(bm) + np.abs(frame.lat.shift_inf) + mid)).tolist()

        def cut(lo, hi):
            # coordinate j of v = n.b + y0 is c + n[0] * s on the row
            for j in range(d):
                s = b[0][j]
                if s:
                    c = sum(n[i] * b[i][j] for i in range(1, d)) + y0[j]
                    ends = (-width[j] - c) / s, (width[j] - c) / s
                    lo = max(lo, math.ceil(min(ends)))
                    hi = min(hi, math.floor(max(ends)))
            return lo, hi

        def leaf_in(nv) -> bool:
            # the float real image as _make_point computes it (float k_i is
            # (rem_i + mod n_i) / big_r), in the closed PlacedBox.intervals
            n[0] = nv
            real = _real_image(frame.lat, [
                (r + frame.mod * x) / frame.big_r for r, x in zip(frame.rem, n)
            ])
            return all(lo <= x <= hi for x, (lo, hi) in zip(real, box))

    def recurse(level, rem) -> int:
        # In the LDL expansion Q(n - n*) = sum_i d_i (z_i + sum_{j>i} L_ji z_j)^2
        # with z = n - n*, the term at `level` depends only on deeper
        # coordinates, so fixing levels from d-1 downward keeps an exact
        # remaining radius^2 `rem`.
        nonlocal left
        offset = sum(lower[j][level] * (n[j] - nstar[j]) for j in range(level + 1, d))
        # d_level * (z_level + offset)^2 <= rem, so none when rem < 0
        bound2 = rem / diag[level]
        if bound2 < 0:
            return 0
        half = math.sqrt(bound2) * (1 + 1e-12) + 1e-9
        center = nstar[level] - offset
        lo = math.ceil(center - half)
        hi = math.floor(center + half)
        left -= max(0, hi - lo + 1)
        if left < 0:
            raise BudgetError(
                f"enumeration budget exceeded (more than max_candidates="
                f"{max_candidates} candidates); raise max_candidates"
            )
        if level == 0:
            lo, hi = cut(lo, hi)
            if out is None:
                # The leaf test holds on an interval of n[0].  For a disk,
                # ||n.b + y0||^2 is convex in n[0], and at an interior
                # integer it sits below its worse endpoint by at least
                # ||b_0||^2, far above float rounding.  For a box, each
                # float operation of a real image coordinate is monotone in
                # n[0].  So trim the loosened ends and count what is left.
                while lo <= hi and not leaf_in(lo):
                    lo += 1
                while hi > lo and not leaf_in(hi):
                    hi -= 1
                return max(0, hi - lo + 1)
            found = 0
            for nv in range(lo, hi + 1):
                if leaf_in(nv):
                    out.append(tuple(n))
                    found += 1
            return found
        found = 0
        for nv in range(lo, hi + 1):
            new_rem = rem - diag[level] * (nv - nstar[level] + offset) ** 2
            n[level] = nv
            found += recurse(level - 1, new_rem)
        return found

    return recurse(d - 1, t2)
