"""S-arithmetic scalars: places, norms, S-integers.

Also the package's one copy of each elementary number-theory helper: prime
factorization, CRT, the residue of a rational mod m, rationals as ints over
one denominator, and the check that a per-prime key lies in S.

Fix a finite set of primes S_f and write S = {inf} + S_f.  The ring Z_S of
S-integers consists of rationals whose denominator is a product of primes in
S_f.  Everything here is exact (Python ints and Fractions).

Conventions used throughout the package:
  * a "place" is either the constant INF or a prime in S_f;
  * |x|_p = p^{-v_p(x)} for finite p, |x|_inf = usual absolute value;
  * N_S = positive integers coprime to every prime of S_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError

INF = float("inf")


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


def frac_mod(x, m: int, den: int = 1) -> int:
    """x / den mod m for a rational x and a nonzero int den, whose quotient
    has a denominator invertible mod m.  An int x makes no Fraction."""
    x = _rational(x)
    num, den = x.numerator, x.denominator * den
    g = math.gcd(num, den)
    try:
        inv = pow(den // g, -1, m)
    except ValueError:
        raise ConfigError(
            f"denominator {den // g} is not invertible mod {m}"
        ) from None
    return num // g * inv % m


def _rational(x):
    # ints and Fractions as they are; anything else through Fraction
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def over_one_denominator(xs, den: int = 1) -> tuple:
    """(nums, D): the rationals xs, each divided by the int den > 0, as int
    numerators over one positive denominator D.  Ints and Fractions are read
    off without making a Fraction."""
    xs = [_rational(x) for x in xs]
    big = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (big // x.denominator) for x in xs), big * den


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
    """v_p(x) for a nonzero rational.  Raises on x == 0."""
    x = _rational(x)
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


def require_in_s(keys, primes, what: str) -> None:
    """Raise ConfigError "<what> <p>, which is not in S" for the least key p
    of a per-prime mapping that is not one of primes."""
    outside = sorted(set(keys) - set(primes))
    if outside:
        raise ConfigError(f"{what} {outside[0]}, which is not in S")


def min_valuation(entries, p: int):
    """The least v_p over the nonzero entries, None when every entry is 0."""
    return min((valuation(x, p) for x in entries if x != 0), default=None)


def s_free_part(n: int, ctx: SConfig) -> int:
    """Positive n with every S_f factor removed."""
    n = abs(n)
    for p in ctx.primes:
        while n % p == 0:
            n //= p
    return n


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
        require_in_s(self.t_p, self.ctx.primes, "exponent given at")
        object.__setattr__(
            self, "t_p", {p: int(self.t_p.get(p, 0)) for p in self.ctx.primes}
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
    ints, scale = over_one_denominator(k)
    if not is_in_NS(q, ctx):
        raise ConfigError(f"q={q} not in N_S")
    if not any(ints):
        raise ConfigError("gcd_S of the zero vector")
    if s_free_part(scale, ctx) != 1:
        raise ConfigError("vector entries are not S-integral")
    return math.gcd(q, math.gcd(*ints))
