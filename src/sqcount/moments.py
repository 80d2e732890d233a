"""Monte Carlo and exact-series sides of the moment identities.

Three homogeneous spaces of S-lattices are sampled: the base space of
unimodular S-lattices, its affine extension (lattice translates), and the
congruence space where the translate is pinned to w/q.  Samplers are exact
for d = 2: the real factor comes from an inverse-CDF rejection sampler on
the standard fundamental domain composed with a uniform rotation, the
finite factors from uniform unit-determinant matrices mod p^{k_p}, which
is Haar to depth k_p.  For d >= 3 the real factor falls back to a matrix
random walk and every estimate is flagged mcmc-approximate.  Each draw is
scored by slattice.siegel_transform: box (disk) indicators are counted
without building lattice points, product-box indicators enumerate them.

The exact side evaluates the coprime-pair second-moment series and the
single-orbit series exactly, truncated with rigorous geometric tail bounds
(d >= 3, where the series converge absolutely).  Both walk the same
admissible (t, a = n/den) set (_admissible_walk) and work in integers: a
pair term is an integer numerator over (L t |n|)^d times a power of each
finite prime, and numerators with equal denominators are added before any
Fraction is built; an orbit term is t^{-d} whenever its point passes the
p-adic tests, so the orbit series counts those points per t.
"""

from __future__ import annotations

import array
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _linalg as la
from .congruence import CongruenceContext, lift_slq_to_slz, sample_slq_uniform
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonIndicatorUnsupported,
    SearchBudgetExceeded,
    UnsupportedExactSampler,
)
from .sarith import SConfig, is_in_NS, valuation
from .slattice import (
    DEFAULT_MAX_CANDIDATES,
    SBox,
    TestFunction,
    affine_slattice_split,
    # unused here; perfbench/test_perfbench.py checks that the tracer
    # rewraps this binding too
    enumerate_points,  # noqa: F401
    indicator_sbox,
    siegel_transform,
)

SPACE_KINDS = ("base", "affine", "congruence")

# finite sampler resolution: exact Haar on the unit group mod p^DEPTH
DEFAULT_SAMPLER_DEPTH = 8

# denominator depth of the exact series truncations; deeper costs real money
# in exact arithmetic (every term of a 0-centered box is nonzero), while the
# cut mass decays like p^{(1-d)(K_p+1)} and is reported in tail_bound
DEFAULT_SERIES_DEPTH = 4

_SQRT3_HALF = math.sqrt(3.0) / 2.0


# --- space specifications ---------------------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """Which homogeneous space to sample, and how.

    kind "base" is the space of unimodular S-lattices Z_S^d g, "affine" adds
    a translate drawn from the torus fiber, "congruence" pins the translate
    to (w/q) gamma g over the level data in cctx.  depth maps each finite
    place to the sampling resolution k_p.  sampler is "exact", "mcmc", or
    "auto" (exact when available, i.e. d = 2).
    """

    kind: str
    d: int
    ctx: SConfig
    cctx: CongruenceContext | None = None
    depth: dict[int, int] = field(default_factory=dict)
    sampler: str = "auto"
    mcmc_eps: float = 0.25
    mcmc_burn_in: int = 1000
    mcmc_thin: int = 30

    @property
    def exactness(self) -> str:
        if self.d == 2 and self.sampler != "mcmc":
            return "exact"
        return "mcmc-approximate"


def space_spec(
    kind: str,
    d: int,
    ctx: SConfig,
    cctx: CongruenceContext | None = None,
    depth: dict[int, int] | int | None = None,
    sampler: str = "auto",
    mcmc_eps: float = 0.25,
    mcmc_burn_in: int = 1000,
    mcmc_thin: int = 30,
) -> SpaceSpec:
    name = str(kind).lower()
    if name in ("congruence-y", "congruence_y"):
        name = "congruence"
    if name not in SPACE_KINDS:
        raise ConfigError(f"unknown space kind {kind!r}")
    if not isinstance(d, int) or d < 2:
        raise ConfigError("need dimension d >= 2")
    if name == "congruence":
        if cctx is None:
            raise ConfigError("congruence space needs a CongruenceContext")
        if cctx.d != d:
            raise DimensionMismatch(f"cctx has d={cctx.d}, space has d={d}")
        if cctx.ctx != ctx:
            raise ConfigError("cctx uses a different set of finite places")
    elif cctx is not None:
        raise ConfigError(f"{name} space takes no CongruenceContext")
    if sampler not in ("auto", "exact", "mcmc"):
        raise ConfigError(f"unknown sampler {sampler!r}")
    if sampler == "exact" and d >= 3:
        raise UnsupportedExactSampler(
            "no exact real-factor sampler for d >= 3; use sampler='mcmc'"
        )
    if isinstance(depth, int):
        depth = {p: depth for p in ctx.primes}
    dep = {p: int((depth or {}).get(p, DEFAULT_SAMPLER_DEPTH)) for p in ctx.primes}
    if set(depth or {}) - set(ctx.primes):
        raise ConfigError("depth given for a prime outside S_f")
    if any(k < 1 for k in dep.values()):
        raise ConfigError("sampler depth must be >= 1")
    if not mcmc_eps > 0:
        raise ConfigError("mcmc_eps must be positive")
    if mcmc_burn_in < 0 or mcmc_thin < 1:
        raise ConfigError("mcmc_burn_in >= 0 and mcmc_thin >= 1 required")
    return SpaceSpec(
        name, d, ctx, cctx, dep, sampler, mcmc_eps, mcmc_burn_in, mcmc_thin
    )


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    sampler_exactness: str


@dataclass(frozen=True)
class SeriesValue:
    """Exact truncated series value plus a rigorous bound on what was cut."""

    value: Fraction
    tail_bound: float
    terms_used: int
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
    out = np.eye(len(m))
    term = np.eye(len(m))
    for k in range(1, 20):
        term = term @ m / k
        out = out + term
    return out


def _size_reduce(g: np.ndarray) -> np.ndarray:
    # one pairwise reduction sweep; left-multiplication by SL_d(Z) only,
    # so the lattice (and the coset) is unchanged
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


def _mcmc_step(g: np.ndarray, eps: float, rng) -> np.ndarray:
    d = len(g)
    x = rng.standard_normal((d, d))
    x = x - np.trace(x) / d * np.eye(d)
    g = g @ _expm(eps * x)
    g = g / abs(np.linalg.det(g)) ** (1.0 / d)
    return _size_reduce(g)


# --- finite-factor sampler --------------------------------------------------------------


def _uniform_unit_basis_mod(d: int, p: int, k: int, rng) -> tuple:
    """Uniform d x d matrix mod p^k with unit determinant, lifted to ints.

    Haar on the p-adic unit group truncated at depth k: entries uniform mod
    p^k, rejected until the determinant is a p-unit.
    """
    mod = p**k
    while True:
        m = rng.integers(0, mod, size=(d, d))
        rows = tuple(tuple(Fraction(int(x)) for x in row) for row in m)
        if la.det(rows) % p != 0:
            return rows


# --- lattice sampler --------------------------------------------------------------------


class _RandrangeRng:
    """randrange facade over a numpy Generator, for the coset sampler."""

    def __init__(self, rng):
        self._rng = rng

    def randrange(self, n: int) -> int:
        return int(self._rng.integers(n))


def _real_basis_stream(space: SpaceSpec, rng):
    if space.exactness == "exact":
        while True:
            yield _siegel_real_basis_2d(rng)
    else:
        g = np.eye(space.d)
        for _ in range(space.mcmc_burn_in):
            g = _mcmc_step(g, space.mcmc_eps, rng)
        while True:
            for _ in range(space.mcmc_thin):
                g = _mcmc_step(g, space.mcmc_eps, rng)
            yield g


def lattice_stream(space: SpaceSpec, rng):
    """Generator of lattices distributed per the space's normalized measure.

    Exact kinds yield independent draws; the mcmc fallback burns in one
    chain and yields every mcmc_thin-th state, so consecutive draws are
    only approximately independent.
    """
    ctx = space.ctx
    d = space.d
    reals = _real_basis_stream(space, rng)
    for b_real in reals:
        b_inf = tuple(tuple(float(x) for x in row) for row in b_real)
        b_p = {
            p: _uniform_unit_basis_mod(d, p, space.depth[p], rng)
            for p in ctx.primes
        }
        if space.kind == "base":
            yield affine_slattice_split(ctx, b_inf, b_p, depth=dict(space.depth))
            continue
        if space.kind == "affine":
            u_inf = rng.random(d)
            shift_inf = tuple(float(x) for x in (u_inf @ b_real))
            shift_p = {}
            for p in ctx.primes:
                u_p = tuple(
                    Fraction(int(c)) for c in rng.integers(0, p ** space.depth[p], d)
                )
                shift_p[p] = la.vec_mat(u_p, b_p[p])
            yield affine_slattice_split(
                ctx, b_inf, b_p, shift_inf, shift_p, depth=dict(space.depth)
            )
            continue
        # congruence: right-translate by a uniform lifted level-q coset and
        # translate the lattice by the pinned point (w/q) gamma g
        cctx = space.cctx
        coset = sample_slq_uniform(d, cctx.q, _RandrangeRng(rng))
        gamma = lift_slq_to_slz(coset, cctx.q)
        g_real = np.array([[float(x) for x in row] for row in gamma]) @ b_real
        basis_inf = tuple(tuple(float(x) for x in row) for row in g_real)
        basis_p = {p: la.mat_mul(gamma, b_p[p]) for p in ctx.primes}
        w_q = tuple(Fraction(c, cctx.q) for c in cctx.w)
        shift_inf = tuple(
            float(x) for x in (np.array([float(c) for c in w_q]) @ g_real)
        )
        shift_p = {p: la.vec_mat(w_q, basis_p[p]) for p in ctx.primes}
        yield affine_slattice_split(
            ctx, basis_inf, basis_p, shift_inf, shift_p, depth=dict(space.depth)
        )


# --- Monte Carlo estimators -------------------------------------------------------------


def _transform_mode(space: SpaceSpec) -> str:
    # base lattices contain the origin; the transform excludes it there
    return "homogeneous" if space.kind == "base" else "affine"


def _worker_counts(n: int, workers: int) -> list:
    base, extra = divmod(n, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def estimate_moments(
    space: SpaceSpec,
    fs,
    orders=(1, 2),
    n: int = 10_000,
    seed: int = 0,
    workers: int = 1,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
):
    """Moment estimates for several test functions from one sample stream.

    Returns a list of rows, one per test function, each a list of
    MCEstimate per requested order.  Worker streams get independent
    spawned substreams of the master seed and are merged by count-weighted
    averaging, so the result depends on (seed, workers) but not on
    scheduling.
    """
    fs = list(fs)
    orders = tuple(orders)
    if not fs:
        raise ConfigError("need at least one test function")
    if any(o not in (1, 2) for o in orders) or not orders:
        raise ConfigError("orders must be a nonempty subset of {1, 2}")
    if n < 2:
        raise ConfigError("need n >= 2 samples")
    if not 1 <= workers <= n:
        raise ConfigError("need 1 <= workers <= n")
    mode = _transform_mode(space)
    sums = [[0.0] * len(orders) for _ in fs]
    sq_sums = [[0.0] * len(orders) for _ in fs]
    children = np.random.SeedSequence(seed).spawn(workers)
    for n_w, child in zip(_worker_counts(n, workers), children):
        if n_w == 0:
            continue
        rng = np.random.default_rng(child)
        stream = lattice_stream(space, rng)
        for _ in range(n_w):
            lat = next(stream)
            for i, f in enumerate(fs):
                count = siegel_transform(f, lat, mode, max_candidates)
                for j, order in enumerate(orders):
                    v = float(count) ** order
                    sums[i][j] += v
                    sq_sums[i][j] += v * v
    out = []
    for i in range(len(fs)):
        row = []
        for j in range(len(orders)):
            mean = sums[i][j] / n
            var = max(0.0, (sq_sums[i][j] - n * mean * mean) / (n - 1))
            row.append(
                MCEstimate(mean, math.sqrt(var / n), n, seed, space.exactness)
            )
        out.append(row)
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
    if not threshold > 0:
        raise ConfigError("threshold must be positive")
    if n < 1 or not 1 <= workers <= n:
        raise ConfigError("need n >= 1 and 1 <= workers <= n")
    f = indicator_sbox(box)
    vol = box.volume(space.d)
    mode = _transform_mode(space)
    hits = 0
    children = np.random.SeedSequence(seed).spawn(workers)
    for n_w, child in zip(_worker_counts(n, workers), children):
        if n_w == 0:
            continue
        rng = np.random.default_rng(child)
        stream = lattice_stream(space, rng)
        for _ in range(n_w):
            count = siegel_transform(f, next(stream), mode, max_candidates)
            if abs(count - vol) > threshold:
                hits += 1
    empirical = hits / n
    bound = vol / threshold**2
    stderr = math.sqrt(empirical * (1.0 - empirical) / n)
    return VarianceCheck(empirical, bound, stderr, empirical / bound, n, seed)


# --- exact series: shared box plumbing --------------------------------------------------


def _product_box_data(f: TestFunction, ctx: SConfig):
    if f.kind != "product-box":
        raise NonIndicatorUnsupported(
            "series evaluation needs an indicator of a product S-box"
        )
    intervals = tuple(
        (Fraction(lo), Fraction(hi)) for lo, hi in f.intervals
    )
    d = len(intervals)
    if d == 0:
        raise ConfigError("empty product box")
    if any(hi <= lo for lo, hi in intervals):
        raise ConfigError("real intervals must have positive length")
    exps = {p: int(f.finite_exponent.get(p, 0)) for p in ctx.primes}
    centers = {}
    for p in ctx.primes:
        c = f.finite_center.get(p, (0,) * d)
        if len(c) != d:
            raise DimensionMismatch(f"finite center at p={p} has wrong length")
        centers[p] = tuple(Fraction(x) for x in c)
    return d, intervals, exps, centers


def _integral(d, intervals, exps, centers, primes) -> Fraction:
    total = Fraction(1)
    for lo, hi in intervals:
        total *= hi - lo
    for p in primes:
        total *= Fraction(p) ** (d * exps[p])
    return total


def _scaled_interval(lo: Fraction, hi: Fraction, s: Fraction):
    # image of [lo, hi] under x -> x/s
    a, b = lo / s, hi / s
    return (a, b) if a <= b else (b, a)


def _tree_sum(terms) -> Fraction:
    # pairwise reduction: sequential Fraction addition makes the running
    # denominator the lcm of everything seen, which is quadratic pain
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        nxt = [a + b for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return terms[0]


def _largest_prime_factors(n_max: int) -> list[int]:
    """big[k] = the largest prime factor of k for 2 <= k <= n_max."""
    big = [0] * (n_max + 1)
    for p in range(2, n_max + 1):
        if not big[p]:  # no smaller prime divides p
            big[p::p] = [p] * (n_max // p)
    return big


def _admissible_walk(t_max, q, ctx, depth, window, max_terms, what):
    """The (t, den, ms, n) of every term a = n/den the series truncation keeps.

    t runs over N_S up to t_max coprime to q; den = prod p^{m_p} over
    0 <= m_p <= depth[p]; n runs over the integers of [lo den, hi den],
    (lo, hi) = window(t), with n = t den mod q, and is kept when n/den is a
    nonzero reduced fraction coprime to t.  Every progression element is
    charged to max_terms, kept or not.
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
            ns = range(start + (t * den - start) % q, math.floor(hi * den) + 1, q)
            budget -= len(ns)
            if budget < 0:
                raise SearchBudgetExceeded(
                    f"{what} budget exceeded (more than max_terms={max_terms} "
                    "terms); raise max_terms"
                )
            # t is prime to S, so one gcd tests gcd(n, t) = 1 and, for each
            # p with m_p > 0, p not dividing n (else n/den is not reduced and
            # was visited at a lower depth)
            tp = t * math.prod(p for p, m in zip(ctx.primes, ms) if m > 0)
            for n in ns:
                if n and math.gcd(n, tp) == 1:
                    yield t, den, ms, n


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


def _pair_kernel(d, intervals, exps, centers, primes):
    """The pair term at (t, a = n/den) in integers, as (numerator, denominator).

    With the box's endpoints scaled by L, the lcm of their denominators, and
    g = |n|, coordinate i contributes the overlap of [A_i g, B_i g] with the
    image of [A_i, B_i] under x -> x t den/n, both over the common
    denominator L t g.  At p the balls B(c/t, p^e) and B(c/a, p^{e+v_p(a)})
    are nested or disjoint: each coordinate gives p^{e + min(0, v_p(a))}, or
    0 when a nonzero center puts c/t and c/a farther apart than the larger
    radius, with v_p(c/t - c/a) = v_p(c) + v_p(n - t den) - v_p(n).
    """
    big_l = math.lcm(*(x.denominator for iv in intervals for x in iv))
    ends = tuple((int(lo * big_l), int(hi * big_l)) for lo, hi in intervals)
    # only the smallest valuation of a nonzero center can fail the distance test
    places = tuple(
        (p, exps[p], min((valuation(c, p) for c in centers[p] if c), default=None))
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


def _pair_fractions(walk, term):
    """(number of nonzero terms, their sums as one Fraction per denominator).

    Numerators are added as integers per denominator.  The denominators are
    (L t |n|)^d up to S-units; the fractions come ordered by the largest
    prime factor of |n|, so that the pairwise sum meets each large prime's
    power in one run of neighbours, not once per term all the way up.
    """
    by_den = {}
    roots = array.array("q")  # |n| of the first term of each denominator
    used = 0
    for t, den, ms, n in walk:
        num, dnm = term(t, den, ms, n)
        if num:
            used += 1
            if dnm in by_den:
                by_den[dnm] += num
            else:
                by_den[dnm] = num
                roots.append(abs(n))
    big = _largest_prime_factors(max(roots, default=1))
    dens = list(by_den)  # insertion order, the order of roots
    order = sorted(range(len(dens)), key=lambda i: big[roots[i]])
    # entries are dropped as soon as they are used, so the dict and the
    # Fractions built from it do not peak together
    return used, [Fraction(by_den.pop(dens[i]), dens[i]) for i in order]


def second_moment_rhs(
    f: TestFunction,
    cctx: CongruenceContext,
    t_max: int = 16,
    real_bound: float = 24.0,
    depth: dict[int, int] | int | None = None,
    max_terms: int = 5_000_000,
) -> SeriesValue:
    """Exact truncation of (integral f)^2 + the coprime-pair series.

    The series runs over t in N_S coprime to the level q and a in
    q Z_S + t with gcd(a, t) = 1; each term is the exact volume of
    {v : tv and av in the box}, computed place by place in integers
    (_pair_kernel).  Terms with the same denominator are added as integers,
    and only the distinct fractions that remain are built and summed.
    Truncation keeps t <= t_max, |a| <= real_bound, and the denominator of a
    of depth at most depth[p] at each place; tail_bound covers everything
    cut, valid for d >= 3 where the full series converges absolutely.
    """
    ctx = cctx.ctx
    q = cctx.q
    d, intervals, exps, centers = _product_box_data(f, ctx)
    if d < 3:
        raise ConfigError("the pair series needs d >= 3")
    if t_max < 1 or real_bound < 1:
        raise ConfigError("need t_max >= 1 and real_bound >= 1")
    if isinstance(depth, int):
        depth = {p: depth for p in ctx.primes}
    dep = {p: int((depth or {}).get(p, DEFAULT_SERIES_DEPTH)) for p in ctx.primes}
    if any(k < 0 for k in dep.values()):
        raise ConfigError("depth must be >= 0")
    b = Fraction(real_bound)
    walk = _admissible_walk(
        t_max, q, ctx, dep, lambda t: (-b, b), max_terms, "pair series"
    )
    used, fractions = _pair_fractions(
        walk, _pair_kernel(d, intervals, exps, centers, ctx.primes)
    )
    integral = _integral(d, intervals, exps, centers, ctx.primes)
    terms = [integral**2] + fractions
    tail = _pair_tail_bound(d, q, float(integral), t_max, float(b), dep, ctx.primes)
    return SeriesValue(_tree_sum(terms), tail, used, t_max, float(b), dep)


# --- single-orbit series ----------------------------------------------------------------


def inhom_series(
    f: TestFunction,
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
    ctx = cctx.ctx
    q = cctx.q
    d, intervals, exps, centers = _product_box_data(f, ctx)
    if d < 3:
        raise ConfigError("the orbit series needs d >= 3")
    if t_max < 1:
        raise ConfigError("need t_max >= 1")
    coords = tuple(Fraction(c) for c in y)
    if len(coords) != d:
        raise DimensionMismatch("y has wrong dimension")
    if all(c == 0 for c in coords):
        raise ConfigError("y must be nonzero")
    base = _integral(d, intervals, exps, centers, ctx.primes)

    # coordinates where y vanishes gate the whole series
    for i, c in enumerate(coords):
        if c != 0:
            continue
        lo, hi = intervals[i]
        if not lo <= 0 <= hi:
            return SeriesValue(base, 0.0, 0, t_max, (0.0, 0.0), {})
        for p in ctx.primes:
            cp = centers[p][i]
            if cp != 0 and -valuation(cp, p) > exps[p]:
                return SeriesValue(base, 0.0, 0, t_max, (0.0, 0.0), {})

    # real window for s = a/t: intersection of I_i / y_i over nonzero y_i
    w_lo, w_hi = None, None
    for i, c in enumerate(coords):
        if c == 0:
            continue
        a_i, b_i = _scaled_interval(*intervals[i], c)
        w_lo = a_i if w_lo is None else max(w_lo, a_i)
        w_hi = b_i if w_hi is None else min(w_hi, b_i)
    if w_lo > w_hi:
        return SeriesValue(base, 0.0, 0, t_max, (float(w_lo), float(w_hi)), {})

    # denominator cap: v_p(a) >= min(v_p(c_j), -e_p) - v_p(y_j) is necessary
    # for the finite conditions, so deeper denominators contribute nothing
    dep = {}
    for p in ctx.primes:
        need = None
        for i, c in enumerate(coords):
            if c == 0:
                continue
            cp = centers[p][i]
            vc = valuation(cp, p) if cp != 0 else None
            lo_v = -exps[p] if vc is None else min(vc, -exps[p])
            lower = lo_v - valuation(c, p)
            need = lower if need is None else max(need, lower)
        dep[p] = max(0, -need)

    # p-adic conditions in integers: with y_i = u/w and c_i = g/h, the point
    # (n / (t den)) y_i lies in c_i + p^{-e} Z_p iff p^{m_p + v_p(w h) - e}
    # divides n u h - g w t den (t is a p-adic unit); zero y_i passed above
    tests = [
        (j, p, c.numerator * cp.denominator, cp.numerator * c.denominator,
         valuation(c.denominator * cp.denominator, p) - exps[p])
        for j, p in enumerate(ctx.primes)
        for c, cp in zip(coords, centers[p])
        if c != 0
    ]
    hits = {}
    walk = _admissible_walk(
        t_max, q, ctx, dep, lambda t: (w_lo * t, w_hi * t), max_terms,
        "orbit series",
    )
    for t, den, ms, n in walk:
        for j, p, uh, gw, shift in tests:
            k = ms[j] + shift
            if k > 0 and (n * uh - gw * t * den) % p**k:
                break
        else:
            hits[t] = hits.get(t, 0) + 1
    terms = [base] + [Fraction(count, t**d) for t, count in hits.items()]
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
        _tree_sum(terms), tail, sum(hits.values()), t_max,
        (float(w_lo), float(w_hi)), dep,
    )
