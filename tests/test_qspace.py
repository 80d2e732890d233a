"""Tests for the quadratic form layer.

The Hilbert symbol and the isotropy criteria are checked against a
brute-force oracle: depth-first search for primitive solutions of the
diagonal equation mod p^m, with m large enough that a solution mod p^m
certifies a p-adic solution (Hensel) and absence refutes one.
"""

import random
from fractions import Fraction

import pytest

from sqcount import _linalg as la
from sqcount.errors import ConfigError, DegenerateForm, DimensionMismatch
from sqcount.qspace import (
    diagonalize,
    hilbert_symbol,
    is_isotropic,
    is_square_qp,
    legendre_symbol,
    quadratic_form,
)
from sqcount.sarith import INF, SConfig, valuation

S23 = SConfig((2, 3))
S3 = SConfig((3,))
S7 = SConfig((7,))
S235 = SConfig((2, 3, 5))


def diag_form(ctx, *entries):
    d = len(entries)
    g = [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(d)]
         for i in range(d)]
    return quadratic_form(ctx, g)


def value_at(q, v, place):
    """q(v) = v G v^T with the Gram of one place, exactly."""
    g = q.gram_at(place)
    return sum(v[i] * g[i][j] * v[j] for i in range(q.dim) for j in range(q.dim))


# --- brute-force local solubility oracle ---------------------------------------


def _squarefree_part(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e % 2:
            out *= f
        f += 1
    return sign * out * n


_oracle_memo = {}


def primitive_zero_mod_pm(coeffs, p, m):
    """Is there a primitive solution of sum c_i x_i^2 = 0 mod p^m?

    Depth-first over digit levels; primitivity is forced at level one, so
    anisotropic trees die quickly and isotropic ones exit on the first leaf.
    """
    from itertools import product

    def value(x, mod):
        return sum(c * xi * xi for c, xi in zip(coeffs, x)) % mod

    seeds = [
        x for x in product(range(p), repeat=len(coeffs))
        if any(x) and value(x, p) == 0
    ]
    stack = [(x, 1) for x in seeds]
    while stack:
        x, k = stack.pop()
        if k == m:
            return True
        pk = p**k
        for delta in product(range(p), repeat=len(coeffs)):
            y = tuple(xi + di * pk for xi, di in zip(x, delta))
            if value(y, pk * p) == 0:
                stack.append((y, k + 1))
    return False


def hilbert_bruteforce(a: int, b: int, p: int) -> int:
    """(a,b)_p via solubility of z^2 = a x^2 + b y^2, squarefree-reduced."""
    a, b = _squarefree_part(a), _squarefree_part(b)
    key = (min(a, b), max(a, b), p)
    if key not in _oracle_memo:
        m = 2 * valuation(Fraction(4 * a * b), p) + 3
        ok = primitive_zero_mod_pm((a, b, -1), p, m)
        _oracle_memo[key] = 1 if ok else -1
    return _oracle_memo[key]


def isotropic_bruteforce(entries, p) -> bool:
    key = (tuple(sorted(entries)), p)
    if key not in _oracle_memo:
        _oracle_memo[key] = primitive_zero_mod_pm(entries, p, 6)
    return _oracle_memo[key]


# --- evaluation ------------------------------------------------------------------


class TestEvalForm:
    """Every place holds its own exact Gram; finite places default to the
    real one."""

    def test_isotropic_vector_value_zero_everywhere(self):
        q = diag_form(S23, 1, 1, -1)
        assert all(value_at(q, (1, 0, 1), place) == 0 for place in (INF, 2, 3))

    def test_plain_value(self):
        q = diag_form(S23, 1, 1, -1)
        assert all(value_at(q, (1, 1, 0), place) == 2 for place in (INF, 2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form(S23, [[1, 0], [0, 1]], gram_p={3: la.identity(3)})
        with pytest.raises(DimensionMismatch):
            quadratic_form(S23, [[1, 2], [0, 1]])

    def test_float_real_gram_keeps_finite_places_exact(self):
        # a float entry is read as the dyadic rational it is
        import math

        g_inf = [[math.sqrt(2), 0.0], [0.0, 1.0]]
        g_p = [[Fraction(1), 0], [0, Fraction(1, 3)]]
        q = quadratic_form(S3, g_inf, gram_p={3: g_p})
        assert q.gram_at(INF) == la.as_matrix(g_inf)
        assert q.gram_at(INF)[0][0] == Fraction(math.sqrt(2))
        assert q.gram_at(3) == la.as_matrix(g_p)
        v = (Fraction(1, 3), 1)
        assert value_at(q, v, 3) == Fraction(4, 9)

    def test_degenerate_flag(self):
        q = diag_form(S23, 1, 0, 1)
        assert not q.nondegenerate


# --- Hilbert symbol ---------------------------------------------------------------


class TestHilbertSymbol:
    def test_one_left_argument(self):
        for p in (2, 3, 5, INF):
            for b in (2, -3, 7, -1):
                assert hilbert_symbol(1, b, p) == 1

    def test_two_three_at_three(self):
        assert hilbert_symbol(2, 3, 3) == -1

    def test_minus_one_twice_real(self):
        assert hilbert_symbol(-1, -1, INF) == -1

    def test_against_bruteforce_grid(self):
        for p in (2, 3, 5):
            for a in range(-20, 21):
                for b in range(-20, 21):
                    if a == 0 or b == 0:
                        continue
                    assert hilbert_symbol(a, b, p) == hilbert_bruteforce(a, b, p), (
                        a, b, p,
                    )

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(41)
        places = [2, 3, 5, 7, INF]
        nonzero = lambda: Fraction(
            rng.choice([i for i in range(-30, 31) if i]),
            rng.randint(1, 12),
        )
        for _ in range(200):
            a, b, c = nonzero(), nonzero(), nonzero()
            p = rng.choice(places)
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a, b * c, p) == hilbert_symbol(
                a, b, p
            ) * hilbert_symbol(a, c, p)
            assert hilbert_symbol(a, -a, p) == 1

    def test_product_formula(self):
        # over all places of Q the symbols multiply to one; the symbol is 1
        # at any odd place where both arguments are units, so only primes
        # dividing 2ab contribute
        rng = random.Random(43)
        for _ in range(60):
            a = rng.choice([i for i in range(-50, 51) if i])
            b = rng.choice([i for i in range(-50, 51) if i])
            primes = set()
            n = 2 * abs(a) * abs(b)
            f = 2
            while f * f <= n:
                if n % f == 0:
                    primes.add(f)
                    while n % f == 0:
                        n //= f
                f += 1
            if n > 1:
                primes.add(n)
            prod = hilbert_symbol(a, b, INF)
            for p in primes:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            hilbert_symbol(0, 3, 5)


class TestSquareClasses:
    def test_squares_are_squares(self):
        rng = random.Random(11)
        for p in (2, 3, 5, 7, INF):
            for _ in range(40):
                r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
                if rng.random() < 0.5 and p != INF:
                    r = -r
                assert is_square_qp(r * r, p)

    def test_known_nonsquares_at_two(self):
        for a in (3, 5, 7, 2, -1):
            assert not is_square_qp(a, 2)
        assert is_square_qp(17, 2)
        assert is_square_qp(Fraction(1, 4), 2)

    def test_odd_residues(self):
        assert is_square_qp(2, 7)  # 3^2 = 2 mod 7
        assert not is_square_qp(3, 7)
        assert not is_square_qp(5, 5)
        assert legendre_symbol(2, 7) == 1
        assert legendre_symbol(3, 7) == -1


# --- diagonalization ---------------------------------------------------------------


class TestDiagonalize:
    def test_already_diagonal(self):
        q = diag_form(S3, 2, 3, -1)
        u, diag = diagonalize(q, INF)
        assert u == la.identity(3)
        assert diag == (2, 3, -1)

    def test_hyperbolic_plane(self):
        q = quadratic_form(S3, [[0, 1], [1, 0]])
        u, diag = diagonalize(q, INF)
        g = q.gram_at(INF)
        prod = la.mat_mul(la.mat_mul(la.transpose(u), g), u)
        assert prod == tuple(
            tuple(diag[i] if i == j else Fraction(0) for j in range(2))
            for i in range(2)
        )
        assert diag == (2, Fraction(-1, 2))

    def test_random_exact_identity_and_valuations(self):
        rng = random.Random(17)
        for _ in range(50):
            d = rng.choice([2, 3, 4])
            while True:
                g = [[Fraction(0)] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i, d):
                        g[i][j] = g[j][i] = Fraction(
                            rng.randint(-6, 6), rng.choice([1, 2, 3])
                        )
                if la.det(tuple(tuple(r) for r in g)) != 0:
                    break
            q = quadratic_form(S23, g)
            for place in (INF, 2, 3):
                u, diag = diagonalize(q, place)
                gg = q.gram_at(place)
                prod = la.mat_mul(la.mat_mul(la.transpose(u), gg), u)
                for i in range(d):
                    for j in range(d):
                        assert prod[i][j] == (diag[i] if i == j else 0)
                if place != INF:
                    assert all(valuation(a, place) in (0, 1) for a in diag)

    def test_degenerate_raises(self):
        q = diag_form(S3, 1, 0, 1)
        with pytest.raises(DegenerateForm):
            diagonalize(q, 3)


# --- isotropy -----------------------------------------------------------------------


class TestIsotropy:
    def test_signature_examples(self):
        q = diag_form(S23, 1, 1, -1)
        assert is_isotropic(q, INF)
        assert is_isotropic(q, 2)
        assert is_isotropic(q, 3)
        assert is_isotropic(q, None)
        q4 = diag_form(S23, 1, 1, 1, 1)
        assert not is_isotropic(q4, INF)
        assert not is_isotropic(q4, 2)
        # (1,1,1,0) is a zero mod 3 with unit gradient, so it lifts
        assert is_isotropic(q4, 3)
        assert not is_isotropic(q4, None)

    def test_rank_five_always(self):
        q = diag_form(S235, 1, 1, 1, 1, 1)
        for p in (2, 3, 5):
            assert is_isotropic(q, p)
        assert not is_isotropic(q, INF)

    def test_degenerate_rejected(self):
        q = diag_form(S23, 1, 0, -1)
        with pytest.raises(DegenerateForm):
            is_isotropic(q, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_bruteforce_ternary(self, p):
        from itertools import product

        ctx = SConfig((p,))
        pool = [1, -1, 2, -2, 3, -3, 5, -5]
        for entries in product(pool, repeat=3):
            q = diag_form(ctx, *entries)
            assert is_isotropic(q, p) == isotropic_bruteforce(entries, p), (
                entries, p,
            )

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_bruteforce_quaternary_sampled(self, p):
        # the full 8^4 grid collapses to sorted multisets by permutation
        # invariance, so check every multiset once
        from itertools import combinations_with_replacement

        ctx = SConfig((p,))
        pool = [1, -1, 2, -2, 3, -3, 5, -5]
        for entries in combinations_with_replacement(pool, 4):
            q = diag_form(ctx, *entries)
            assert is_isotropic(q, p) == isotropic_bruteforce(entries, p), (
                entries, p,
            )
