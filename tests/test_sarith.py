import random
from fractions import Fraction
from itertools import product

import pytest

from sqcount.errors import ConfigError
from sqcount.sarith import (
    SConfig,
    TVector,
    crt,
    gcd_S,
    is_in_NS,
    prime_factors,
    valuation,
)

S2 = SConfig((2,))
S3 = SConfig((3,))
S23 = SConfig((2, 3))


# --- independent oracles -----------------------------------------------------

def det_int(m):
    """Cofactor-expansion determinant, independent of package linear algebra."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_int(minor)
    return total


def sl_order_bruteforce(d, q):
    count = 0
    for entries in product(range(q), repeat=d * d):
        m = [list(entries[i * d:(i + 1) * d]) for i in range(d)]
        if det_int(m) % q == 1:
            count += 1
    return count


def sl_group_order(d, q):
    """#SL_d(Z/q) = q^(d^2-1) prod_{p | q} prod_{i=2}^{d} (1 - p^-i).

    The closed form that test_congruence counts sampled and lifted
    elements against; the group-order tests below check it.
    """
    order = Fraction(q) ** (d * d - 1)
    for p in prime_factors(q):
        for i in range(2, d + 1):
            order *= 1 - Fraction(1, p**i)
    return order


# --- SConfig and elementary number theory -------------------------------------

def test_sconfig_validation():
    assert SConfig([2, 3]).primes == (2, 3)
    for bad in ((4,), (2, 2), (1,), (0,), (-3,)):
        with pytest.raises(ConfigError):
            SConfig(bad)


def test_prime_factors_and_crt_against_bruteforce():
    for n in range(-60, 200):
        want = [p for p in range(2, abs(n) + 1)
                if abs(n) % p == 0 and all(p % f for f in range(2, p))]
        assert prime_factors(n) == want, n
    for m1, m2 in ((1, 7), (4, 9), (5, 12), (8, 3)):
        for a1 in range(m1):
            for a2 in range(m2):
                r = crt(a1, m1, a2, m2)
                assert 0 <= r < m1 * m2 and r % m1 == a1 and r % m2 == a2


# --- valuations ----------------------------------------------------------------

def test_ultrametric_random_pairs():
    rng = random.Random(20260816)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 400))
        y = Fraction(rng.randint(1, 400) * rng.choice([-1, 1]), rng.randint(1, 400))
        if x + y == 0:
            continue
        vx, vy, vs = valuation(x, p), valuation(y, p), valuation(x + y, p)
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_product_formula_on_s_units():
    # |x|_inf * prod_p |x|_p = 1, with |x|_p = p^(-v_p(x))
    rng = random.Random(77)
    for _ in range(400):
        ctx = rng.choice([S2, S3, S23])
        x = Fraction(1)
        for p in ctx.primes:
            x *= Fraction(p) ** rng.randint(-5, 5)
        if rng.random() < 0.5:
            x = -x
        prod_norm = abs(x)
        for p in ctx.primes:
            prod_norm *= Fraction(p) ** -valuation(x, p)
        assert prod_norm == 1


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(Fraction(5, 27), 3) == -3
    with pytest.raises(ZeroDivisionError):
        valuation(0, 2)


# --- membership ----------------------------------------------------------------

def test_is_in_NS():
    assert is_in_NS(7, S23)
    assert not is_in_NS(6, S23)
    assert not is_in_NS(0, S23)
    assert not is_in_NS(-5, S23)
    assert is_in_NS(1, S23)


def test_gcd_S_examples():
    assert gcd_S(7, [Fraction(3, 2), 5], S2) == 1
    assert gcd_S(7, [Fraction(7, 2), 21], S2) == 7
    with pytest.raises(ConfigError):
        gcd_S(4, [1, 1], S2)  # q not coprime to S_f
    with pytest.raises(ConfigError):
        gcd_S(7, [0, 0], S2)


def test_gcd_S_scale_invariance():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice([5, 7, 11])
        v = [Fraction(rng.randint(-30, 30), 2 ** rng.randint(0, 4)) for _ in range(3)]
        if all(c == 0 for c in v):
            continue
        g1 = gcd_S(q, v, S2)
        unit = Fraction(2) ** rng.randint(-3, 3)
        g2 = gcd_S(q, [unit * c for c in v], S2)
        assert g1 == g2


def test_vector_content():
    # gcd_S at a level the content divides reads the content in N_S
    q = 3 * 5 * 7
    assert gcd_S(q, [6, 15, 0], S2) == 3
    # content strips S_f primes: (4, 8) has integer gcd 4 = 2^2 -> content 1
    assert gcd_S(q, [4, 8], S2) == 1
    assert gcd_S(q, [Fraction(21, 2), 35], S2) == 7


# --- group orders ----------------------------------------------------------------

@pytest.mark.parametrize(
    "d,q,expected", [(2, 2, 6), (2, 3, 24), (2, 5, 120), (3, 2, 168), (3, 3, 5616)]
)
def test_sl_group_order_bruteforce(d, q, expected):
    assert sl_group_order(d, q) == expected
    assert sl_order_bruteforce(d, q) == expected


def test_sl_group_order_edges():
    assert sl_group_order(1, 7) == 1
    assert sl_group_order(4, 1) == 1
    assert sl_group_order(2, 12) == sl_order_bruteforce(2, 12)  # composite q


def test_sl_order_mobius_recursion():
    # #SL_d(Z/q) = q^(2d-1) #SL_{d-1}(Z/q) sum_{e | q} mu(e) e^-d, a second
    # route to the closed form where brute force is out of reach.
    def mobius(n):
        primes = prime_factors(n)
        return 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    for d in (2, 3, 4):
        for q in (2, 3, 4, 5, 6, 10, 12):
            s = sum(Fraction(mobius(e), e**d) for e in range(1, q + 1) if q % e == 0)
            rhs = Fraction(q) ** (2 * d - 1) * sl_group_order(d - 1, q) * s
            assert sl_group_order(d, q) == rhs


# --- TVector -------------------------------------------------------------------------

def test_tvector():
    t = TVector(10.0, {2: 1, 3: 2}, S23)
    assert t.size() == pytest.approx(10.0 * 2 * 9)
    assert t.dominates(TVector(5.0, {2: 1}, S23))
    assert not t.dominates(TVector(5.0, {2: 3, 3: 0}, S23))
    with pytest.raises(ConfigError):
        TVector(0.0, {2: 1, 3: 2}, S23)
    with pytest.raises(ConfigError):
        TVector(1.0, {5: 0}, S23)
