"""S-arithmetic scalars: places, norms, S-integers, zeta values, group orders.

Also the package's one copy of each elementary number-theory helper: prime
factorization, CRT, and the residue of a rational mod m.

Fix a finite set of primes S_f and write S = {inf} + S_f.  The ring Z_S of
S-integers consists of rationals whose denominator is a product of primes in
S_f.  Everything here is exact (Python ints and Fractions) except the zeta
values, which return a float together with a certified truncation bound.

Conventions used throughout the package:
  * a "place" is either the constant INF or a prime in S_f;
  * |x|_p = p^{-v_p(x)} for finite p, |x|_inf = usual absolute value;
  * N_S = positive integers coprime to every prime of S_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConfigError,
    DimensionMismatch,
    DenominatorNotInvertibleModQ,
    NonSUnitDenominator,
    ToleranceUnreachable,
)

INF = float("inf")

# Riemann zeta at integer arguments, 20 significant digits.  Used by the
# Euler-product route so it stays independent of the truncated direct sum.
_ZETA_TABLE = {
    2: 1.64493406684822643647,
    3: 1.20205690315959428540,
    4: 1.08232323371113819152,
    5: 1.03692775514336992633,
    6: 1.01734306198444913971,
    7: 1.00834927738192282684,
    8: 1.00407735619794433938,
}


# --- elementary number theory --------------------------------------------------

def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; [] for |n| <= 1."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def crt(a1: int, m1: int, a2: int, m2: int) -> int:
    """The residue mod m1 m2 congruent to a1 mod m1 and a2 mod m2 (coprime)."""
    return (a1 + m1 * ((a2 - a1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


def frac_mod(x, m: int) -> int:
    """x mod m for a rational x whose denominator is invertible mod m."""
    x = Fraction(x)
    try:
        inv = pow(x.denominator, -1, m)
    except ValueError:
        raise DenominatorNotInvertibleModQ(
            f"denominator {x.denominator} is not invertible mod {m}"
        ) from None
    return x.numerator * inv % m


@dataclass(frozen=True)
class SConfig:
    """The finite place set S_f, as an ordered tuple of distinct primes."""

    primes: tuple[int, ...]

    def __post_init__(self):
        primes = tuple(self.primes)
        object.__setattr__(self, "primes", primes)
        if len(set(primes)) != len(primes):
            raise ConfigError("duplicate primes in S_f")
        for p in primes:
            if not isinstance(p, int) or prime_factors(p) != [p]:
                raise ConfigError(f"not a prime: {p!r}")


def valuation(x, p: int) -> int:
    """v_p(x) for a nonzero int or Fraction.  Raises on x == 0."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("valuation of zero")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def padic_norm(x, p) -> Fraction:
    """|x|_p as an exact Fraction (p finite) or |x| (p == INF).

    |0|_p = 0 at every place.
    """
    x = Fraction(x)
    if p == INF:
        return abs(x)
    if x == 0:
        return Fraction(0)
    return Fraction(p) ** (-valuation(x, p))


def s_free_part(n: int, ctx: SConfig) -> int:
    """Positive n with every S_f factor removed."""
    n = abs(n)
    for p in ctx.primes:
        while n % p == 0:
            n //= p
    return n


def is_s_unit_denominator(den: int, ctx: SConfig) -> bool:
    return s_free_part(den, ctx) == 1


@dataclass(frozen=True)
class TVector:
    """Box scales: real radius t_inf > 0 and one integer exponent per prime.

    The finite-place ball at exponent t_p is the closed ball |x|_p <= p^{t_p}.
    """

    t_inf: float
    t_p: dict[int, int]
    ctx: SConfig

    def __post_init__(self):
        if not self.t_inf > 0:
            raise ConfigError("t_inf must be positive")
        # accept a per-prime sequence in ctx order; store prime -> exponent
        t_p = self.t_p
        if not isinstance(t_p, dict):
            if len(t_p) != len(self.ctx.primes):
                raise DimensionMismatch("one exponent per finite place required")
            t_p = dict(zip(self.ctx.primes, t_p))
        if set(t_p) - set(self.ctx.primes):
            raise ConfigError("exponent for a prime outside S_f")
        object.__setattr__(
            self, "t_p", {p: int(t_p.get(p, 0)) for p in self.ctx.primes}
        )

    def size(self) -> float:
        """|T| = t_inf * prod p^{t_p}."""
        s = float(self.t_inf)
        for p, t in self.t_p.items():
            s *= float(p) ** t
        return s

    def dominates(self, other: "TVector") -> bool:
        return self.t_inf >= other.t_inf and all(
            self.t_p[p] >= t for p, t in other.t_p.items()
        )


# --- membership predicates ---------------------------------------------------

def is_in_NS(n: int, ctx: SConfig) -> bool:
    """n in N_S: positive integer coprime to every prime of S_f."""
    if not isinstance(n, int) or n <= 0:
        return False
    return all(n % p != 0 for p in ctx.primes)


def gcd_S(q: int, k, ctx: SConfig) -> int:
    """gcd(q, k) for q in N_S and a nonzero S-integral vector k.

    Scale k by an S-unit to an integer vector k'; the result gcd(q, gcd(k'))
    does not depend on the choice because q is coprime to every S_f prime.
    """
    coords = tuple(Fraction(c) for c in k)
    if not is_in_NS(q, ctx):
        raise ConfigError(f"q={q} not in N_S")
    if all(c == 0 for c in coords):
        raise ConfigError("gcd_S of the zero vector")
    scale = math.lcm(*(c.denominator for c in coords))
    if not is_s_unit_denominator(scale, ctx):
        raise NonSUnitDenominator("vector entries are not S-integral")
    ints = [int(c * scale) for c in coords]
    return math.gcd(q, math.gcd(*ints))


def mobius(n: int) -> int:
    if n < 1:
        raise ConfigError("mobius needs n >= 1")
    primes = prime_factors(n)
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


# --- zeta values --------------------------------------------------------------

def zeta_S(d: int, ctx: SConfig, tolerance: float = 1e-9,
           coprime_to: int = 1) -> tuple[float, float]:
    """zeta_S(d) = sum over t in N_S (optionally gcd(t, coprime_to) = 1) of t^{-d}.

    Truncated direct sum with an integral-test tail: the admissible t are
    periodic mod M = prod of the relevant primes, and for each residue class
    r the tail sum_{k >= K} (kM + r)^{-d} is bracketed by integral tests, so
    the midpoint certifies an error of half the bracket width, which decays
    like M^{-d} K^{-d} per class.  Returns (value, error_bound).
    """
    if d < 2:
        raise ConfigError("zeta_S needs d >= 2")
    if tolerance <= 0:
        raise ConfigError("tolerance must be positive")
    if tolerance < 1e-12:
        raise ToleranceUnreachable("tolerance below double-precision resolution")
    mod = 1
    for p in set(ctx.primes) | set(prime_factors(coprime_to)):
        mod *= p
    residues = [r for r in range(1, mod + 1) if math.gcd(r, mod) == 1]
    # choose K so the bracket width sum_r (KM+r)^{-d} stays under tolerance
    k_cut = 1
    while len(residues) * float(k_cut * mod) ** (-d) > tolerance:
        k_cut *= 2
        if k_cut * mod > 50_000_000:
            raise ToleranceUnreachable(
                "direct sum would need too many terms; loosen the tolerance"
            )
    n_cut = k_cut * mod
    total = 0.0
    for block in range(0, n_cut, mod):
        for r in residues:
            total += float(block + r) ** (-d)
    lo = hi = 0.0
    for r in residues:
        integral = float(k_cut * mod + r) ** (1 - d) / (mod * (d - 1))
        lo += integral
        hi += integral + float(k_cut * mod + r) ** (-d)
    return total + (lo + hi) / 2.0, (hi - lo) / 2.0


def zeta_S_euler(d: int, ctx: SConfig, coprime_to: int = 1) -> float:
    """Euler-product route: zeta(d) * prod_{p in S_f} (1 - p^{-d}),
    additionally times (1 - p^{-d}) for each prime p | coprime_to.

    Independent of zeta_S: uses the embedded 20-digit zeta table.
    """
    if d not in _ZETA_TABLE:
        raise ConfigError(f"zeta table covers d in 2..8, got {d}")
    value = _ZETA_TABLE[d]
    for p in ctx.primes:
        value *= 1.0 - float(p) ** (-d)
    for p in prime_factors(coprime_to):
        if p not in ctx.primes:
            value *= 1.0 - float(p) ** (-d)
    return value


# --- group orders and the normalization identity ------------------------------

def sl_group_order(d: int, q: int) -> int:
    """#SL_d(Z/qZ) = q^{d^2-1} prod_{p|q} prod_{i=2}^{d} (1 - p^{-i}).

    Exact integer; #SL_d(Z/1) = 1 and #SL_1(Z/q) = 1.
    """
    if d < 1 or q < 1:
        raise ConfigError("need d >= 1 and q >= 1")
    if q == 1 or d == 1:
        return 1
    order = Fraction(q) ** (d * d - 1)
    for p in prime_factors(q):
        for i in range(2, d + 1):
            order *= 1 - Fraction(1, p**i)
    assert order.denominator == 1
    return int(order)


def sl_order_mobius_check(d: int, q: int) -> bool:
    """Exact recursion #SL_d(Z/q) = q^{2d-1} #SL_{d-1}(Z/q) sum_{e|q} mu(e) e^{-d}."""
    rhs = Fraction(q) ** (2 * d - 1) * sl_group_order(d - 1, q)
    s = Fraction(0)
    for e in range(1, q + 1):
        if q % e == 0:
            s += Fraction(mobius(e), e**d)
    return sl_group_order(d, q) == rhs * s


def normalization_identity_residual(
    d: int,
    q: int,
    ctx: SConfig,
    tolerance: float = 1e-8,
    method: str = "series",
):
    """Residual of q^{2d-1} #SL_{d-1}(Z/q) / (#SL_d(Z/q) zeta_S(d)) *
    sum_{t in N_S, gcd(t,q)=1} t^{-d}  minus 1.

    method="series": both zeta values from truncated direct sums (float residual).
    method="closed": exact Fraction residual using
    sum_coprime / zeta_S = prod_{p|q, p not in S_f} (1 - p^{-d}); this is 0
    identically, which is the point of the cross-check.
    """
    if not is_in_NS(q, ctx):
        raise ConfigError(f"q={q} must be coprime to S_f={ctx.primes}")
    prefactor = Fraction(q) ** (2 * d - 1) * sl_group_order(d - 1, q)
    prefactor /= sl_group_order(d, q)
    if method == "closed":
        ratio = Fraction(1)
        for p in prime_factors(q):
            ratio *= 1 - Fraction(1, p**d)
        return abs(prefactor * ratio - 1)
    if method != "series":
        raise ConfigError(f"unknown method {method!r}")
    z_plain, err_plain = zeta_S(d, ctx, tolerance)
    z_coprime, err_coprime = zeta_S(d, ctx, tolerance, coprime_to=q)
    value = float(prefactor) * z_coprime / z_plain
    return abs(value - 1.0)


def covolume_product(
    d: int, ctx: SConfig, variant: str = "UL", tolerance: float = 1e-9
) -> tuple[float, float]:
    """Covolume constant: prod_{p in S_f}(1 - 1/p) * zeta_S(d) * ... * zeta_S(2)
    for variant="UL"; variant="SL" omits the (1 - 1/p) prefactor.

    Returns (value, error_bound); zeta truncation errors propagate first order.
    """
    if d < 2:
        raise ConfigError("covolume needs d >= 2")
    if variant not in ("UL", "SL"):
        raise ConfigError(f"unknown variant {variant!r}")
    value = 1.0
    rel_err = 0.0
    if variant == "UL":
        for p in ctx.primes:
            value *= 1.0 - 1.0 / p
    for j in range(2, d + 1):
        z, e = zeta_S(j, ctx, tolerance)
        value *= z
        rel_err += e / z
    return value, abs(value) * rel_err
