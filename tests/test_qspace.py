"""Tests for the quadratic form layer and the isotropy that volume reads off
the p-adic density.

Isotropy is checked against a brute-force oracle: depth-first search for
primitive solutions of x G x^T = 0 mod p^m, with m large enough that a
solution mod p^m certifies a p-adic solution (Hensel) and absence refutes
one. Diagonal and non-diagonal Grams check the finite places, including
the 2x2 Jordan blocks at p = 2, and the real signature is checked against
numpy's eigenvalues.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from sqcount import _linalg as la
from sqcount.errors import ConfigError
from sqcount.qspace import _jordan_blocks, quadratic_form
from sqcount.sarith import INF, SConfig, valuation
from sqcount.volume import is_isotropic
from test_linalg import identity

S23 = SConfig((2, 3))
S3 = SConfig((3,))
S7 = SConfig((7,))
S235 = SConfig((2, 3, 5))


def diag_gram(entries):
    d = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(d))
                 for i in range(d))


def diag_form(ctx, *entries):
    return quadratic_form(ctx, diag_gram(entries))


def value_at(q, v, place):
    """q(v) = v G v^T with the Gram of one place, exactly."""
    g = q.gram_at(place)
    return sum(v[i] * g[i][j] * v[j] for i in range(q.dim) for j in range(q.dim))


# --- brute-force local solubility oracle ---------------------------------------


_oracle_memo = {}


def primitive_zero_mod_pm(gram, p, m):
    """Is there a primitive solution of x G x^T = 0 mod p^m, G an integer
    Gram?

    Depth-first over digit levels; primitivity is forced at level one, so
    anisotropic trees die quickly and isotropic ones exit on the first leaf.
    """
    from itertools import product

    d = len(gram)
    terms = [(i, j, gram[i][j] * (1 if i == j else 2))
             for i in range(d) for j in range(i, d) if gram[i][j]]

    def value(x, mod):
        return sum(c * x[i] * x[j] for i, j, c in terms) % mod

    seeds = [
        x for x in product(range(p), repeat=d)
        if any(x) and value(x, p) == 0
    ]
    stack = [(x, 1) for x in seeds]
    while stack:
        x, k = stack.pop()
        if k == m:
            return True
        pk = p**k
        for delta in product(range(p), repeat=d):
            y = tuple(xi + di * pk for xi, di in zip(x, delta))
            if value(y, pk * p) == 0:
                stack.append((y, k + 1))
    return False


def isotropic_bruteforce(entries, p) -> bool:
    key = (tuple(sorted(entries)), p)
    if key not in _oracle_memo:
        _oracle_memo[key] = primitive_zero_mod_pm(diag_gram(entries), p, 6)
    return _oracle_memo[key]


def isotropic_gram_bruteforce(gram, p) -> bool:
    """Isotropy of an integer Gram over Q_p. A primitive x has x = (x G)
    adj(G) / det G, so its gradient 2 x G has valuation at most k = v_p(2
    det G), and a primitive zero mod p^(2k + 1) lifts."""
    k = valuation(2 * la.det(la.as_matrix(gram)), p)
    return primitive_zero_mod_pm(gram, p, 2 * k + 1)


def non_diagonal_grams(p, cases=60):
    """Seeded integer Grams in d = 2-4 with v_p(2 det) <= 3."""
    rng = random.Random(1900 + p)
    while cases:
        d = rng.choice([2, 3, 4])
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        det = la.det(la.as_matrix(g))
        # a deep determinant only slows the oracle down
        if det == 0 or valuation(2 * det, p) > 3:
            continue
        yield tuple(map(tuple, g))
        cases -= 1


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
        with pytest.raises(ConfigError, match="place 3 not symmetric 2x2"):
            quadratic_form(S23, [[1, 0], [0, 1]], gram_p={3: identity(3)})
        with pytest.raises(ConfigError, match="place inf not symmetric 2x2"):
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
    """(a, b)_p = 1 iff <a, b, -1> is isotropic at p, read off is_isotropic."""

    def test_minus_one_twice_real(self):
        # (-1, -1) = -1 at the real place: z^2 + x^2 + y^2 has no real zero;
        # the product formula puts the other -1 at 2, and it is 1 at 3
        q = diag_form(S23, 1, 1, 1)
        assert not is_isotropic(q, INF)
        assert not is_isotropic(q, 2)
        assert is_isotropic(q, 3)


# --- isotropy -----------------------------------------------------------------------


class TestIsotropy:
    def test_signature_examples(self):
        q = diag_form(S23, 1, 1, -1)
        assert is_isotropic(q, INF)
        assert is_isotropic(q, 2)
        assert is_isotropic(q, 3)
        q4 = diag_form(S23, 1, 1, 1, 1)
        assert not is_isotropic(q4, INF)
        assert not is_isotropic(q4, 2)
        # (1,1,1,0) is a zero mod 3 with unit gradient, so it lifts
        assert is_isotropic(q4, 3)

    def test_rank_five_always(self):
        q = diag_form(S235, 1, 1, 1, 1, 1)
        for p in (2, 3, 5):
            assert is_isotropic(q, p)
        assert not is_isotropic(q, INF)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rank_five_and_six_are_isotropic(self, p):
        # every form of rank >= 5 over Q_p is isotropic; the primitive-zero
        # volume has to find it, deep in the Jordan scales
        rng = random.Random(2500 + p)
        ctx = SConfig((p,))
        cases, deepest = 0, 0
        while cases < 20:
            d = rng.choice([5, 6])
            g = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    g[i][j] = g[j][i] = Fraction(
                        rng.randint(-4, 4) * p ** rng.randint(0, 3),
                        p ** rng.randint(0, 2),
                    )
            det = la.det(la.as_matrix(g))
            if det == 0:
                continue
            v = min(valuation(x, p) for row in g for x in row if x)
            deepest = max(deepest, valuation(2 * det, p) - d * v)
            assert is_isotropic(quadratic_form(ctx, g), p), (g, p)
            cases += 1
        assert deepest >= 8

    def test_degenerate_rejected(self):
        q = diag_form(S23, 1, 0, -1)
        with pytest.raises(ConfigError, match="degenerate forms"):
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

    @pytest.mark.parametrize("gram, split", [
        # the hyperbolic plane is a 2x2 block with a = 0 at p = 2
        (((0, 1, 0), (1, 0, 0), (0, 0, 1)), (0, None)),
        (((2, 1, 0), (1, 2, 0), (0, 0, 1)), (2, 1)),
        (((2, 1, 0), (1, 2, 0), (0, 0, -3)), (2, 1)),
        (((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2)), (2, 1)),
    ])
    def test_two_by_two_blocks_at_two(self, gram, split):
        # the split at 2 keeps (a, b; b, c) whole, and the density on it
        # decides isotropy
        a, b = split
        blocks = [bl for bl in _jordan_blocks(la.as_matrix(gram), 2) if len(bl) == 2]
        assert blocks and blocks[0][0][0] == a
        assert b is None or blocks[0][0][1] == b
        q = quadratic_form(SConfig((2, 3, 5)), gram)
        for p in (2, 3, 5):
            assert is_isotropic(q, p) == isotropic_gram_bruteforce(gram, p), (
                gram, p,
            )

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_bruteforce_non_diagonal(self, p):
        ctx = SConfig((p,))
        cases = isotropic = 0
        seen_a = set()
        for gram in non_diagonal_grams(p):
            got = is_isotropic(quadratic_form(ctx, gram), p)
            assert got == isotropic_gram_bruteforce(gram, p), (gram, p)
            cases += 1
            isotropic += got
            seen_a |= {bl[0][0] == 0 for bl in _jordan_blocks(la.as_matrix(gram), p)
                       if len(bl) == 2}
        assert 0 < isotropic < cases
        if p == 2:
            assert seen_a == {True, False}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_scaling_keeps_isotropy(self, p):
        # p^j G has the zeros of G; a negative j makes the least entry
        # valuation v negative and, for a shallow determinant, the depth c
        ctx = SConfig((p,))
        for gram in non_diagonal_grams(p):
            want = is_isotropic(quadratic_form(ctx, gram), p)
            for j in (-3, -1, 1, 2):
                scaled = [[Fraction(p) ** j * x for x in row] for row in gram]
                assert is_isotropic(quadratic_form(ctx, scaled), p) == want, (
                    gram, p, j,
                )

    def test_real_signature_of_non_diagonal_grams(self):
        rng = random.Random(23)
        cases = mixed = 0
        for _ in range(300):
            d = rng.choice([2, 3, 4, 5])
            g = [[Fraction(0)] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    g[i][j] = g[j][i] = Fraction(
                        rng.randint(-9, 9), rng.choice([1, 2, 3, 7])
                    )
            if la.det(la.as_matrix(g)) == 0:
                continue
            mu = np.linalg.eigvalsh(np.array(g, dtype=float))
            assert min(abs(mu)) > 1e-9 * max(abs(mu))
            want = mu[0] < 0 < mu[-1]
            assert is_isotropic(quadratic_form(S23, g), INF) == want, g
            cases += 1
            mixed += want
        assert 0 < cases - mixed < mixed
