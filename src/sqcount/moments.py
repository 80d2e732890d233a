"""Monte Carlo and exact-series sides of the moment identities.

Three homogeneous spaces of S-lattices are sampled: the base space of
unimodular S-lattices, its affine extension (lattice translates), and the
congruence space where the translate is pinned to w/q.  A draw of any of
them is one base lattice and a translate; only the translate's law differs
(_translate).  Samplers are exact for d = 2: the real factor comes from an
inverse-CDF rejection sampler on the standard fundamental domain composed
with a uniform rotation, the finite factors from uniform unit-determinant
matrices mod p^{k_p} (congruence.unit_matrix_mod), which is Haar to depth
k_p, the digits the run's box reads at p (slattice.sampler_depth); so the
draw is exact for the box, and k_p = 0 draws nothing.  For d >= 3 the real
factor falls back to a matrix random walk (step MCMC_STEP, MCMC_BURN_IN
steps of burn-in, every MCMC_THIN-th state kept) and every estimate is
flagged mcmc-approximate; d alone picks the sampler.  The walk advances in
blocks (the burn-in, then each MCMC_THIN steps): a block's normals are one
draw and their matrix exponentials one stacked product, multiplied into the
basis one at a time, and the basis is renormalised and size-reduced once
per MCMC_THIN steps.  Reduction changes the basis, never the lattice, so
the lattices are those of the chain that reduces after every step, up to
float rounding, to which either chain is chaotically sensitive.  The
finite bases and the translate are ints, the translate over one
denominator, and the box's per-place data are built once per run
(slattice.place_box), so a draw makes no Fraction.  Each draw is scored by
slattice.count_points, which counts the lattice points of a disk or a
product box without building one.  On the base space the origin is a point
of every draw, and the transform leaves it out: whether the shape holds it
is decided once per run (slattice.holds_origin).  Both Monte Carlo
estimators read the same per-draw transform values (_transform_values).

The exact side evaluates the coprime-pair second-moment series and the
single-orbit series exactly, truncated with rigorous geometric tail bounds
(d >= 3, where the series converge absolutely).  Both walk the same
admissible (t, a = n/den) set, one arithmetic progression of n per (t, den)
(_admissible_walk), and one numpy kernel keeps the n of a progression that
pass the gcd filter and the p-adic congruences (_admitted), in int64 when a
bound on every integer it forms allows, else on Python ints.  A pair term
is an integer overlap product over (L t |n|)^d times an S-adic factor that
is constant on the progression (_pair_terms); each term is cut to lowest
terms and numerators are added per denominator.  An orbit term is t^{-d}
whenever its point passes the p-adic tests, so the orbit series counts
those points per t.  Both sums end in one integer tree (_exact_sum) whose
nodes stay in lowest terms, each merge reduced by a gcd with the gcd of its
two denominators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .congruence import (
    CongruenceContext,
    lift_slq_to_slz,
    sample_slq_uniform,
    unit_matrix_mod,
)
from .errors import BudgetError, ConfigError
from .sarith import (
    SConfig,
    frac_mod,
    is_in_NS,
    min_valuation,
    over_one_denominator,
    require_in_s,
    valuation,
)
from .slattice import (
    DEFAULT_MAX_CANDIDATES,
    PlacedBox,
    ProductBox,
    SBox,
    affine_slattice_split,
    # unused here; perfbench/test_perfbench.py checks that the tracer
    # rewraps this binding too
    enumerate_points,  # noqa: F401
    count_points,
    holds_origin,
    place_box,
    sampler_depth,
)

SPACE_KINDS = ("base", "affine", "congruence")

# real-factor random walk for d >= 3: step size, burn-in steps, and the
# number of steps between yielded states
MCMC_STEP = 0.25
MCMC_BURN_IN = 1000
MCMC_THIN = 30

# denominator depth of the exact series truncations; deeper costs real money
# in exact arithmetic (every term of a 0-centered box is nonzero), while the
# cut mass decays like p^{(1-d)(K_p+1)} and is reported in tail_bound
DEFAULT_SERIES_DEPTH = 4

_SQRT3_HALF = math.sqrt(3.0) / 2.0


# --- space specifications ---------------------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """Which homogeneous space to sample.

    kind "base" is the space of unimodular S-lattices Z_S^d g, "affine" adds
    a translate drawn from the torus fiber, "congruence" pins the translate
    to (w/q) gamma g over the level data in cctx, gamma a uniform level-q
    coset; as Z_S^d gamma g = Z_S^d g, the coset moves only the translate,
    so every kind draws the same base lattice g.  The real sampler follows
    from d: exact at d = 2, the random walk at d >= 3 (exactness names
    which).
    """

    kind: str
    d: int
    ctx: SConfig
    cctx: CongruenceContext | None = None

    @property
    def exactness(self) -> str:
        return "exact" if self.d == 2 else "mcmc-approximate"


def space_spec(
    kind: str,
    d: int,
    ctx: SConfig,
    cctx: CongruenceContext | None = None,
) -> SpaceSpec:
    if kind not in SPACE_KINDS:
        raise ConfigError(f"unknown space kind {kind!r}")
    if not isinstance(d, int) or d < 2:
        raise ConfigError("need dimension d >= 2")
    if kind == "congruence":
        if cctx is None:
            raise ConfigError("congruence space needs a CongruenceContext")
        if cctx.d != d:
            raise ConfigError(f"cctx has d={cctx.d}, space has d={d}")
        if cctx.ctx != ctx:
            raise ConfigError("cctx uses a different set of finite places")
    elif cctx is not None:
        raise ConfigError(f"{kind} space takes no CongruenceContext")
    return SpaceSpec(kind, d, ctx, cctx)


def _depths(depth, primes, default: int) -> dict[int, int]:
    """The depth at each prime from one int for every prime, a dict p -> k
    (default where a prime is left out) or None; each at least 0."""
    depth = dict.fromkeys(primes, depth) if isinstance(depth, int) else depth or {}
    require_in_s(depth, primes, "depth given at")
    dep = {p: int(depth.get(p, default)) for p in primes}
    if any(k < 0 for k in dep.values()):
        raise ConfigError("depth must be >= 0")
    return dep


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    sampler_exactness: str
    sampler_depth: dict[int, int]  # k_p, the digits each draw read at p


@dataclass(frozen=True)
class SeriesValue:
    """Exact truncated series value plus a rigorous bound on what was cut."""

    value: Fraction
    tail_bound: float
    terms_used: int
    terms_charged: int  # progression elements charged to max_terms
    t_max: int
    real_bound: object
    depth: dict[int, int]


@dataclass(frozen=True)
class VarianceCheck:
    empirical_prob: float
    bound: float
    stderr: float
    observed_constant: float
    n_samples: int
    seed: int
    sampler_depth: dict[int, int]  # k_p, the digits each draw read at p
    volume: float  # the disk's Haar volume


# --- real-factor samplers ---------------------------------------------------------------


def _siegel_real_basis_2d(rng) -> tuple:
    # z = x + iy with density dx dy / y^2 on {|x| <= 1/2, |z| >= 1}:
    # y by inverse CDF of the envelope 1/y^2 on [sqrt(3)/2, inf), then reject
    while True:
        y = _SQRT3_HALF / (1.0 - rng.random())
        x = rng.random() - 0.5
        if x * x + y * y >= 1.0:
            break
    ry = math.sqrt(y)
    basis = np.array([[1.0 / ry, 0.0], [x / ry, ry]])
    theta = 2.0 * math.pi * rng.random()
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, s], [-s, c]])
    return basis @ rot


def _expm(m: np.ndarray) -> np.ndarray:
    """exp of each (d, d) matrix of the stack m, shape (..., d, d)."""
    out = np.broadcast_to(np.eye(m.shape[-1]), m.shape).copy()
    term = out.copy()
    for k in range(1, 20):
        term = term @ m
        term /= k
        out += term
    return out


def _size_reduce(g: np.ndarray) -> np.ndarray:
    # sort and sweep until a sweep changes no row; left-multiplication by
    # SL_d(Z) only, so the lattice (and the coset) is unchanged.  norms[i] is
    # g[i] @ g[i], recomputed only when row i changes.  A change is kept only
    # when it shortens its row, so each sweep that changes a row lowers the
    # sum of the norms strictly, and the loop ends, in floats too.  g comes in
    # with det > 0, so the sorted rows have det < 0 exactly when the sort is
    # an odd permutation; negating the shortest row then keeps the order
    d = len(g)
    norms = [float(row.dot(row)) for row in g]
    changed = True
    while changed:
        order = sorted(range(d), key=norms.__getitem__)
        g = g[order]
        norms = [norms[i] for i in order]
        if sum(order[j] > order[i] for i in range(d) for j in range(i)) % 2:
            g[0] = -g[0]
        changed = False
        for i in range(d):
            for j in range(d):
                if i == j or norms[j] == 0.0:
                    continue
                mu = round(float(g[i].dot(g[j])) / norms[j])
                if mu:
                    row = g[i] - mu * g[j]
                    norm = float(row.dot(row))
                    if norm < norms[i]:
                        g[i] = row
                        norms[i] = norm
                        changed = True
    return g


def _mcmc_steps(g: np.ndarray, eps: float, steps: int, rng) -> np.ndarray:
    """steps walk steps from g: right-multiply by exp(eps x), x a traceless
    Gaussian.  The steps' normals are one draw and their exponentials one
    stacked product, multiplied into g one at a time.  After every
    MCMC_THIN steps, and after the last, g is renormalised to det 1 and
    size-reduced once: reduction changes the basis, never the lattice, so
    the lattices are those of the chain that reduces after every step."""
    d = len(g)
    x = rng.standard_normal((steps, d, d))
    x -= (np.trace(x, axis1=1, axis2=2) / d)[:, None, None] * np.eye(d)
    x *= eps
    for k, e in enumerate(_expm(x), 1):
        g = g @ e
        if k % MCMC_THIN == 0 or k == steps:
            g = g / abs(np.linalg.det(g)) ** (1.0 / d)
            g = _size_reduce(g)
    return g


# --- lattice sampler --------------------------------------------------------------------


def _real_basis_stream(space: SpaceSpec, rng):
    if space.exactness == "exact":
        while True:
            yield _siegel_real_basis_2d(rng)
    else:
        g = _mcmc_steps(np.eye(space.d), MCMC_STEP, MCMC_BURN_IN, rng)
        while True:
            g = _mcmc_steps(g, MCMC_STEP, MCMC_THIN, rng)
            yield g


def _translate(space: SpaceSpec, depth, rng) -> tuple:
    """The draw's translate u, in the coordinates of its base lattice g: the
    lattice is Z_S^d g + u g, with u_inf a float vector and u_p[p] / den an
    exact one, u_p[p] int numerators over the int den.  Base: u = 0.
    Affine: a uniform point of the torus fiber, u_inf uniform on the unit
    cube and each u_p uniform on Z_p^d mod p^{depth[p]}.  Congruence: u =
    (w/q) gamma, gamma the lift of a uniform element of SL_d(Z/q); as Z_S^d
    gamma = Z_S^d, the point set Z_S^d gamma g + u g is Z_S^d g + u g, so
    the coset moves only the translate.  w is read as its int residue mod
    q, which moves w/q by a vector of Z_S^d, so u is p-integral at every p
    of S, as sampler_depth needs."""
    primes = space.ctx.primes
    if space.kind == "base":
        return np.zeros(space.d), dict.fromkeys(primes, (0,) * space.d), 1
    if space.kind == "affine":
        u_inf = rng.random(space.d)
        return u_inf, {
            p: tuple(rng.integers(0, p ** depth[p], space.d).tolist())
            if depth[p] else (0,) * space.d
            for p in primes
        }, 1
    q = space.cctx.q
    gamma = lift_slq_to_slz(sample_slq_uniform(space.d, q, rng), q)
    u = la.vec_mat([frac_mod(x, q) for x in space.cctx.w], gamma)
    # int / int is the correctly rounded quotient, as float(Fraction) is
    return np.array([c / q for c in u]), dict.fromkeys(primes, u), q


def lattice_stream(space: SpaceSpec, depth: dict[int, int], rng):
    """Generator of lattices distributed per the space's normalized measure,
    drawn to depth[p] digits at each prime p.

    Every draw is one base lattice g (the real basis, then a finite basis
    at each prime in order, the identity where depth[p] = 0) plus the
    space's translate u g (_translate), drawn after the bases.  The finite
    bases and translates are ints (the translate over one denominator), so
    a draw makes no Fraction.  At d = 2 the draws are independent; at d >= 3
    the random walk burns in one chain and yields every MCMC_THIN-th state,
    so consecutive draws are only approximately independent.  Digits and
    level-q entries are int64 draws: p^depth[p] or q > 2^63 is refused first.
    """
    ctx, d = space.ctx, space.d
    for p in ctx.primes:
        if p ** min(depth[p], 64) > 2**63:  # p^64 > 2^63, and stays cheap
            raise ConfigError(f"cannot draw {depth[p]} digits at p={p}: the "
                              f"sampler draws int64, and {p}^{depth[p]} > 2^63")
    if space.cctx is not None and space.cctx.q > 2**63:
        raise ConfigError(f"level q={space.cctx.q} > 2^63: the sampler draws int64")
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    for b_real in _real_basis_stream(space, rng):
        b_p = {
            p: unit_matrix_mod(d, p ** depth[p], rng) if depth[p] else identity
            for p in ctx.primes
        }
        u_inf, u_p, den = _translate(space, depth, rng)
        yield affine_slattice_split(
            ctx, b_real, b_p, u_inf @ b_real,
            {p: la.vec_mat(u_p[p], b_p[p]) for p in ctx.primes},
            depth=depth, shift_den=den,
        )


# --- Monte Carlo estimators -------------------------------------------------------------


def _transform_values(space: SpaceSpec, f, n, seed, workers, max_candidates):
    """(k_p at each prime, the Siegel transform of f on each of n draws): f
    is placed once, and the values come lazily, one int per draw.

    Each worker gets an independent substream spawned from the master seed
    and its share of n; the workers' draws come one worker after another,
    so the values depend on (seed, workers) but not on scheduling.
    """
    # every base lattice holds the origin; the transform excludes it there
    placed = place_box(f, space.d, space.ctx.primes)
    origin = space.kind == "base" and holds_origin(placed)
    depth = sampler_depth(placed)
    share, extra = divmod(n, workers)
    streams = (lattice_stream(space, depth, np.random.default_rng(child))
               for child in np.random.SeedSequence(seed).spawn(workers))
    return depth, (count_points(next(stream), placed, max_candidates) - origin
                   for i, stream in enumerate(streams)
                   for _ in range(share + (i < extra)))


def estimate_moments(
    space: SpaceSpec,
    f: SBox | ProductBox,
    orders=(1, 2),
    n: int = 10_000,
    seed: int = 0,
    workers: int = 1,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> list[MCEstimate]:
    """One MCEstimate of E[(transform of f)^order] per requested order.

    The draws come from _transform_values, so the result depends on
    (seed, workers) but not on scheduling.
    """
    orders = tuple(orders)
    if any(o not in (1, 2) for o in orders) or not orders:
        raise ConfigError("orders must be a nonempty subset of {1, 2}")
    if n < 2:
        raise ConfigError("need n >= 2 samples")
    if not 1 <= workers <= n:
        raise ConfigError("need 1 <= workers <= n")
    sums = [0.0] * len(orders)
    sq_sums = [0.0] * len(orders)
    depth, values = _transform_values(space, f, n, seed, workers, max_candidates)
    for count in values:
        for j, order in enumerate(orders):
            v = float(count) ** order
            sums[j] += v
            sq_sums[j] += v * v
    out = []
    for total, sq_total in zip(sums, sq_sums):
        mean = total / n
        var = max(0.0, (sq_total - n * mean * mean) / (n - 1))
        out.append(MCEstimate(mean, math.sqrt(var / n), n, seed,
                              space.exactness, depth))
    return out


def variance_check(
    space: SpaceSpec,
    box: SBox,
    threshold: float,
    n: int = 10_000,
    seed: int = 0,
    workers: int = 1,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> VarianceCheck:
    """Empirical P(|#(lattice cap box) - vol| > threshold) vs vol/threshold^2.

    The Chebyshev bound vol/threshold^2 has constant 1 on the affine space
    (normalized measure).  On the congruence space the sharp constant is
    not pinned down here; observed_constant = empirical/bound is reported
    for the record, never asserted.
    """
    if not isinstance(box, SBox):
        raise ConfigError("variance needs a disk:R box")
    if not threshold > 0:
        raise ConfigError("threshold must be positive")
    if n < 1 or not 1 <= workers <= n:
        raise ConfigError("need n >= 1 and 1 <= workers <= n")
    try:
        vol = box.volume(space.d)
    except OverflowError:
        raise ConfigError("the box's volume overflows a float") from None
    try:
        bound = vol / threshold**2
    except OverflowError:
        bound = 0.0
    except ZeroDivisionError:  # threshold^2 underflows to 0
        bound = math.inf
    if not bound > 0:
        raise ConfigError(
            f"threshold {threshold!r} is too large: vol / threshold^2 "
            "rounds to 0"
        )
    if bound == math.inf:
        raise ConfigError(
            f"threshold {threshold!r} is too small: vol / threshold^2 "
            "overflows a float"
        )
    depth, values = _transform_values(space, box, n, seed, workers,
                                      max_candidates)
    hits = sum(abs(count - vol) > threshold for count in values)
    empirical = hits / n
    stderr = math.sqrt(empirical * (1.0 - empirical) / n)
    return VarianceCheck(empirical, bound, stderr, empirical / bound, n, seed,
                         depth, vol)


# --- exact series: shared box plumbing --------------------------------------------------


def _series_box(f, cctx: CongruenceContext) -> PlacedBox:
    """f placed in the level's d coordinates; the series read product boxes."""
    box = place_box(f, cctx.d, cctx.ctx.primes)
    if box.exact_intervals is None:
        raise ConfigError(
            "series evaluation needs an indicator of a product S-box"
        )
    return box


def _scaled_interval(lo: Fraction, hi: Fraction, s: Fraction):
    # image of [lo, hi] under x -> x/s
    a, b = lo / s, hi / s
    return (a, b) if a <= b else (b, a)


def _largest_prime_factors(n_max: int) -> list[int]:
    """big[k] = the largest prime factor of k for 2 <= k <= n_max."""
    big = [0] * (n_max + 1)
    for p in range(2, n_max + 1):
        if not big[p]:  # no smaller prime divides p
            big[p::p] = [p] * (n_max // p)
    return big


def _int_dtype(bound: int):
    """The dtype of a kernel none of whose integers exceeds bound in size:
    int64 below 2^62, else object, whose elements are Python ints."""
    return np.int64 if bound < 2**62 else object


def _admissible_walk(t_max, q, ctx, depth, window, max_terms, what):
    """One arithmetic progression (t, den, ms, ns, tp) per (t, den).

    t runs over N_S up to t_max coprime to q; den = prod p^{m_p} over
    0 <= m_p <= depth[p]; ns is the range of the integers n of
    [lo den, hi den], (lo, hi) = window(t), with n = t den mod q.  The
    series keeps a = n/den when it is a nonzero reduced fraction coprime to
    t; t is prime to S, so that is n != 0 and gcd(n, tp) = 1, tp = t times
    the p with m_p > 0 (_admitted).  Every element of ns is charged to
    max_terms, kept or not.
    """
    ranges = [range(depth[p] + 1) for p in ctx.primes]
    budget = max_terms
    for t in range(1, t_max + 1):
        if math.gcd(t, q) != 1 or not is_in_NS(t, ctx):
            continue
        lo, hi = window(t)
        for ms in itertools.product(*ranges):
            den = math.prod(p**m for p, m in zip(ctx.primes, ms))
            start = math.ceil(lo * den)
            first = start + (t * den - start) % q
            last = math.floor(hi * den)
            # charged before the range is built: len() of a huge range overflows
            budget -= max(0, (last - first) // q + 1)
            if budget < 0:
                raise BudgetError(
                    f"{what} budget exceeded (more than max_terms={max_terms} "
                    "terms); raise max_terms"
                )
            tp = t * math.prod(p for p, m in zip(ctx.primes, ms) if m > 0)
            yield t, den, ms, range(first, last + 1, q), tp


def _admitted(ns, tp, td, tests, dt) -> np.ndarray:
    """The n of the progression ns that a series keeps, as an array of dtype
    dt: n != 0, gcd(n, tp) = 1, and mod divides a n - b td for each
    (mod, a, b) of tests."""
    n = np.arange(ns.start, ns.stop, ns.step, dtype=dt)
    keep = (n != 0) & (np.gcd(n, tp) == 1)
    for mod, a, b in tests:
        keep &= (a * n - b * td) % mod == 0
    return n[keep]


def _coprime_fraction(num: int, den: int) -> Fraction:
    # num/den is in lowest terms with den > 0; Fraction(num, den) would
    # repeat the gcd of the full-size pair
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12
        return Fraction._from_coprime_ints(num, den)
    return Fraction(num, den, _normalize=False)


def _exact_sum(pairs) -> Fraction:
    """The sum of num/den over an iterable of (num, den) int pairs, den > 0.

    Pairwise tree: sequential addition makes the running denominator the lcm
    of everything seen, which is quadratic pain.  Every node is kept in
    lowest terms.  A prime can cancel in a merge of a/da and b/db only where
    da and db carry it to the same power, so it divides g = gcd(da, db), and
    dividing by gcd(num mod g, g) reduces the merge without a gcd of the
    full-size numerator and denominator.  A pair with nothing to cancel is
    kept as it is: dividing by 1 would copy both ints.
    """
    nodes = []
    for num, den in pairs:
        h = math.gcd(num, den)
        nodes.append((num // h, den // h) if h > 1 else (num, den))
    while len(nodes) > 1:
        nxt = []
        for (a, da), (b, db) in zip(nodes[::2], nodes[1::2]):
            g = math.gcd(da, db)
            num, den = a * (db // g) + b * (da // g), da // g * db
            h = math.gcd(num % g, g)
            nxt.append((num // h, den // h) if h > 1 else (num, den))
        if len(nodes) % 2:
            nxt.append(nodes[-1])
        nodes = nxt
    return _coprime_fraction(*nodes[0])


# --- second-moment series ---------------------------------------------------------------


def _zeta_like(primes, s: float) -> float:
    out = 1.0
    for p in primes:
        out /= 1.0 - float(p) ** (-s)
    return out


def _pair_tail_bound(d, q, vol_sup, t_max, b, depth, primes) -> float:
    """Upper bound on the mass of all (t, a) pairs outside the enumerated
    region, from term <= vol_sup * min(1/t, 1/|a|)^d * den(a)^{-d}."""
    z0 = _zeta_like(primes, d)  # sum over denominators of D^{-d}
    z1 = _zeta_like(primes, d - 1)  # sum of D^{1-d}
    # t > t_max, any a: per (t, D) the a-sum is bounded by
    # (2D/q)(d/(d-1)) t^{1-d} + 2 t^{-d}
    piece_t = (2.0 * d * z1 / ((d - 1) * q)) * t_max ** (2 - d) / (d - 2)
    piece_t += 2.0 * z0 * t_max ** (1 - d) / (d - 1)
    # t <= t_max, |a| > b: sum of |a|^{-d} over each progression
    piece_b = t_max * (
        2.0 * b ** (1 - d) * z1 / ((d - 1) * q) + 2.0 * b ** (-d) * z0
    )
    # denominators deeper than depth[p] at some place (union bound over p)
    deep1 = sum(
        float(p) ** ((depth[p] + 1) * (1 - d)) / (1.0 - float(p) ** (1 - d))
        for p in primes
    )
    deep0 = sum(
        float(p) ** (-(depth[p] + 1) * d) / (1.0 - float(p) ** (-d))
        for p in primes
    )
    piece_d = t_max * ((2.0 * b / q) * deep1 * z1 + deep0 * z0)
    return vol_sup * (piece_t + piece_b + piece_d)


def _pair_terms(box: PlacedBox, primes, t_max, n_max):
    """The pair kernel: a function of one progression (t, den, ms, ns, tp) of
    the walk that yields its nonzero terms as (num, den, |n|), num/den the
    term at a = n/den in lowest terms.  n_max bounds |n| and t den over the
    walk; the dtype follows from it once (_int_dtype).

    With the box's endpoints scaled by L, the lcm of their denominators,
    and g = |n|, coordinate i contributes the overlap of [A_i g, B_i g] with
    the image of [A_i, B_i] under x -> x t den/n, whose ends are A_i and B_i
    times sign(n) t den, both over the common denominator L t g.  At p the
    balls B(c/t, p^e) and B(c/a, p^{e+v_p(a)}) are nested or disjoint.  Each
    coordinate gives p^{e + min(0, v_p(a))} = p^{e - m_p}, because m_p > 0
    forces p not to divide n: the S-adic factor prod p^{d(e - m_p)} is one
    constant per progression.  A nonzero center c puts the balls apart when
    v_p(c/t - c/a) = v_p(c) + v_p(n - t den) - v_p(n) is below
    -e - max(0, v_p(a)), that is when p^r does not divide n - t den,
    r = -e - v_p(c); the smallest v_p(c) decides.
    """
    d = len(box.center)
    nums, big_l = over_one_denominator(x for iv in box.exact_intervals for x in iv)
    ends = tuple(zip(nums[::2], nums[1::2]))
    tests = []
    for p in primes:
        c_num, c_den, e = box.finite[p]
        v = min_valuation(c_num, p)
        if v is not None and v - valuation(c_den, p) < -e:
            tests.append((p ** (valuation(c_den, p) - v - e), 1, 1))
    reach = max(2 * max(abs(x) for iv in ends for x in iv), big_l * t_max) * n_max
    dt = _int_dtype(max([reach**d] + [mod for mod, _, _ in tests]))

    def terms(t, den, ms, ns, tp):
        td = t * den
        n = _admitted(ns, tp, td, tests, dt)
        g = abs(n)
        img = np.sign(n) * td
        num = 1
        keep = np.ones(len(n), dtype=bool)
        for lo, hi in ends:
            a, b = lo * img, hi * img
            w = (np.minimum(hi * g, np.maximum(a, b))
                 - np.maximum(lo * g, np.minimum(a, b)))
            keep &= w > 0
            num = num * w
        g = g[keep]
        up = down = 1
        for p, m in zip(primes, ms):
            k = d * (box.finite[p][2] - m)
            if k > 0:
                up *= p**k
            else:
                down *= p**-k
        dnm = (big_l * t * g) ** d
        for w, dd, r in zip(num[keep].tolist(), dnm.tolist(), g.tolist()):
            w *= up
            dd *= down
            h = math.gcd(w, dd)
            yield w // h, dd // h, r

    return terms


def second_moment_rhs(
    f: ProductBox,
    cctx: CongruenceContext,
    t_max: int = 16,
    real_bound: float = 24.0,
    depth: dict[int, int] | int | None = None,
    max_terms: int = 5_000_000,
) -> SeriesValue:
    """Exact truncation of (integral f)^2 + the coprime-pair series.

    The series runs over t in N_S coprime to the level q and a in
    q Z_S + t with gcd(a, t) = 1; each term is the exact volume of
    {v : tv and av in the box}, computed place by place in integers, one
    progression of the walk at a time (_pair_terms).  Terms in lowest terms
    with the same denominator are added as integers, and the sums are added
    in one integer tree (_exact_sum), ordered by the largest prime factor of
    |n| of each denominator's first term, so that the tree meets each large
    prime's power in one run of neighbours, not once per term all the way
    up.  Truncation keeps t <= t_max, |a| <= real_bound, and the denominator
    of a of depth at most depth[p] at each place; tail_bound covers
    everything cut, valid for d >= 3 where the full series converges
    absolutely.
    """
    ctx, q, d = cctx.ctx, cctx.q, cctx.d
    box = _series_box(f, cctx)
    if d < 3:
        raise ConfigError("the pair series needs d >= 3")
    if t_max < 1 or real_bound < 1:
        raise ConfigError("need t_max >= 1 and real_bound >= 1")
    dep = _depths(depth, ctx.primes, DEFAULT_SERIES_DEPTH)
    b = Fraction(real_bound)
    den_max = math.prod(p**k for p, k in dep.items())
    terms = _pair_terms(box, ctx.primes, t_max,
                        max(math.ceil(b * den_max), t_max * den_max))
    walk = _admissible_walk(
        t_max, q, ctx, dep, lambda t: (-b, b), max_terms, "pair series"
    )
    by_den = {}
    roots = []  # |n| of the first term of each denominator
    used = charged = 0
    for t, den, ms, ns, tp in walk:
        charged += len(ns)
        for num, dnm, root in terms(t, den, ms, ns, tp):
            used += 1
            if dnm in by_den:
                by_den[dnm] += num
            else:
                by_den[dnm] = num
                roots.append(root)
    big = _largest_prime_factors(max(roots, default=1))
    dens = list(by_den)  # insertion order, the order of roots
    order = sorted(range(len(dens)), key=lambda i: big[roots[i]])
    integral = f.volume(ctx.primes)
    value = _exact_sum(itertools.chain(
        [(integral.numerator**2, integral.denominator**2)],
        ((by_den[dens[i]], dens[i]) for i in order),
    ))
    tail = _pair_tail_bound(d, q, float(integral), t_max, float(b), dep, ctx.primes)
    return SeriesValue(value, tail, used, charged, t_max, float(b), dep)


# --- single-orbit series ----------------------------------------------------------------


def inhom_series(
    f: ProductBox,
    y,
    cctx: CongruenceContext,
    t_max: int = 32,
    max_terms: int = 5_000_000,
) -> SeriesValue:
    """integral(f) + sum over t of t^{-d} sum over a of f((a/t) y).

    Same admissible (t, a) set as the pair series, evaluated on the single
    rational vector y (diagonally embedded).  The a-sum is finite for every
    t once y is nonzero: the real window pins |a| and the finite support
    pins the denominator, so the only truncation is t <= t_max.  The walk
    runs over the real window itself, so only the p-adic conditions are
    tested, in integers; every term that passes them is t^{-d}, so the
    series is summed as (number of such a) / t^d, one fraction per t.
    """
    ctx, q, d = cctx.ctx, cctx.q, cctx.d
    box = _series_box(f, cctx)
    if d < 3:
        raise ConfigError("the orbit series needs d >= 3")
    if t_max < 1:
        raise ConfigError("need t_max >= 1")
    coords = tuple(Fraction(c) for c in y)
    if len(coords) != d:
        raise ConfigError(f"y has {len(coords)} coordinates, w has {d}")
    if all(c == 0 for c in coords):
        raise ConfigError("y must be nonzero")
    base = f.volume(ctx.primes)

    # coordinates where y vanishes gate the whole series; the center at p
    # is g / h, int numerators over one denominator
    for i, c in enumerate(coords):
        if c != 0:
            continue
        lo, hi = box.exact_intervals[i]
        if not lo <= 0 <= hi:
            return SeriesValue(base, 0.0, 0, 0, t_max, (0.0, 0.0), {})
        for p, (g, h, e_p) in box.finite.items():
            if g[i] and valuation(h, p) - valuation(g[i], p) > e_p:
                return SeriesValue(base, 0.0, 0, 0, t_max, (0.0, 0.0), {})

    # real window for s = a/t: intersection of I_i / y_i over nonzero y_i
    w_lo, w_hi = None, None
    for i, c in enumerate(coords):
        if c == 0:
            continue
        a_i, b_i = _scaled_interval(*box.exact_intervals[i], c)
        w_lo = a_i if w_lo is None else max(w_lo, a_i)
        w_hi = b_i if w_hi is None else min(w_hi, b_i)
    if w_lo > w_hi:
        return SeriesValue(base, 0.0, 0, 0, t_max, (float(w_lo), float(w_hi)), {})

    # denominator cap: v_p(a) >= min(v_p(c_j), -e_p) - v_p(y_j) is necessary
    # for the finite conditions, so deeper denominators contribute nothing
    dep = {}
    for p, (g, h, e_p) in box.finite.items():
        need = None
        for i, c in enumerate(coords):
            if c == 0:
                continue
            vc = valuation(g[i], p) - valuation(h, p) if g[i] else None
            lo_v = -e_p if vc is None else min(vc, -e_p)
            lower = lo_v - valuation(c, p)
            need = lower if need is None else max(need, lower)
        dep[p] = max(0, -need)

    # p-adic conditions in integers: with y_i = u/w and c_i = g_i/h, the
    # point (n / (t den)) y_i lies in c_i + p^{-e} Z_p iff
    # p^{m_p + v_p(w h) - e} divides n u h - g_i w t den (t is a p-adic
    # unit); zero y_i passed above.  box.finite runs over ctx.primes in order
    tests = [
        (j, p, c.numerator * h, g_i * c.denominator,
         valuation(c.denominator * h, p) - e)
        for j, (p, (g, h, e)) in enumerate(box.finite.items())
        for c, g_i in zip(coords, g)
        if c != 0
    ]
    # |n| and t den stay below reach over the walk
    reach = math.ceil(max(abs(w_lo), abs(w_hi), 1) * t_max
                      * math.prod(p**k for p, k in dep.items()))
    dt = _int_dtype(max([reach] + [(abs(uh) + abs(gw)) * reach + p ** (dep[p] + shift)
                                   for _, p, uh, gw, shift in tests]))
    hits = {}
    charged = 0
    walk = _admissible_walk(
        t_max, q, ctx, dep, lambda t: (w_lo * t, w_hi * t), max_terms,
        "orbit series",
    )
    for t, den, ms, ns, tp in walk:
        charged += len(ns)
        mods = [(p ** (ms[j] + shift), uh, gw)
                for j, p, uh, gw, shift in tests if ms[j] + shift > 0]
        count = len(_admitted(ns, tp, t * den, mods, dt))
        if count:
            hits[t] = hits.get(t, 0) + count
    value = _exact_sum(itertools.chain(
        [(base.numerator, base.denominator)],
        ((count, t**d) for t, count in hits.items()),
    ))
    # tail: for t > t_max the a-count per denominator D is at most
    # (window length) t D / q + 1
    window = float(w_hi - w_lo)
    den_sum = 1.0
    den_count = 1.0
    for p in ctx.primes:
        den_sum *= sum(float(p) ** m for m in range(dep[p] + 1))
        den_count *= dep[p] + 1
    tail = (window * den_sum / q) * t_max ** (2 - d) / (d - 2)
    tail += den_count * t_max ** (1 - d) / (d - 1)
    return SeriesValue(
        value, tail, sum(hits.values()), charged, t_max,
        (float(w_lo), float(w_hi)), dep,
    )
