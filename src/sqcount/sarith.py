"""S-arithmetic scalars: places, norms, S-integers.

Also the package's one copy of each elementary number-theory helper: prime
factorization, CRT, and the residue of a rational mod m.

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

from .errors import (
    ConfigError,
    DenominatorNotInvertibleModQ,
    NonSUnitDenominator,
)

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
        outside = sorted(set(self.t_p) - set(self.ctx.primes))
        if outside:
            raise ConfigError(f"exponent given at {outside[0]}, which is not in S")
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
