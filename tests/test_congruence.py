"""Tests for congruence-level combinatorics.

Group orders are checked against brute-force enumeration of matrices mod
q, the sampler against exhaustive element lists, and lifting against its
defining identities: determinant 1 over Z and congruence to the input.
The orbit invariant t = gcd(q k) of a point k of Z_S^d + w/q is read
through gcd_S and checked on sample points and under unimodular moves.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sqcount import _linalg as la
from sqcount import congruence
from sqcount.congruence import congruence_context, lift_slq_to_slz, sample_slq_uniform
from sqcount.errors import ConfigError
from sqcount.sarith import SConfig, frac_mod, gcd_S, prime_factors
from test_linalg import identity
from test_sarith import sl_group_order

S0 = SConfig(())
S2 = SConfig((2,))


def det2(m, q):
    return (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % q


def det3(m, q):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q


def all_sl(d, q):
    det = det2 if d == 2 else det3
    out = []
    for flat in itertools.product(range(q), repeat=d * d):
        m = tuple(flat[i * d : (i + 1) * d] for i in range(d))
        if det(m, q) == 1 % q:
            out.append(m)
    return out


class TestReduce:
    def test_s_unit_entries(self):
        assert frac_mod(Fraction(1, 2), 5) == 3
        assert frac_mod(Fraction(-7, 4), 9) == 5
        assert frac_mod(Fraction(3), 1) == 0

    def test_bad_denominator(self):
        with pytest.raises(ConfigError, match="not invertible mod 5"):
            frac_mod(Fraction(1, 5), 5)
        with pytest.raises(ConfigError):
            frac_mod(Fraction(1, 6), 9)


class TestSampler:
    def test_sl2_f2_uniform(self):
        rng = np.random.default_rng(11)
        elems = all_sl(2, 2)
        assert len(elems) == 6
        counts = {e: 0 for e in elems}
        n = 10_000
        for _ in range(n):
            counts[sample_slq_uniform(2, 2, rng)] += 1
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 15.0, chi2  # 5 dof, far beyond the 99% quantile

    @pytest.mark.parametrize(
        "d,q,draws",
        [(2, 3, 2000), (2, 4, 2000), (2, 6, 4000)],
    )
    def test_full_coverage(self, d, q, draws):
        rng = np.random.default_rng(13 + d + q)
        seen = set()
        for _ in range(draws):
            m = sample_slq_uniform(d, q, rng)
            assert det2(m, q) == 1
            seen.add(m)
        assert len(seen) == sl_group_order(d, q)

    def test_d3_composite_in_group(self):
        rng = np.random.default_rng(17)
        for q in (4, 6, 9):
            for _ in range(60):
                m = sample_slq_uniform(3, q, rng)
                assert det3(m, q) == 1
                assert all(0 <= x < q for row in m for x in row)


class TestLift:
    def test_identity(self):
        assert lift_slq_to_slz(((1, 0), (0, 1)), 7) == ((1, 0), (0, 1))

    def test_diagonal_example(self):
        m = lift_slq_to_slz(((2, 0), (0, 3)), 5)
        assert la.det(la.as_matrix(m)) == 1
        assert m[0][0] % 5 == 2 and m[1][1] % 5 == 3
        assert m[0][1] % 5 == 0 and m[1][0] % 5 == 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 9, 12])
    def test_round_trip(self, d, q):
        rng = np.random.default_rng(100 * d + q)
        for _ in range(10):
            m = sample_slq_uniform(d, q, rng)
            lifted = lift_slq_to_slz(m, q)
            assert la.det(la.as_matrix(lifted)) == 1
            assert tuple(tuple(x % q for x in row) for row in lifted) == m

    def test_rejects_non_unimodular(self):
        with pytest.raises(ConfigError, match="determinant is not 1 mod q"):
            lift_slq_to_slz(((2, 0), (0, 2)), 5)

    def test_factors_each_level_once(self, monkeypatch):
        # a lift reads q's primes at every column; 50 draws factor q once
        calls = []
        monkeypatch.setattr(congruence, "prime_factors",
                            lambda q: calls.append(q) or prime_factors(q))
        rng = np.random.default_rng(1001)
        for _ in range(50):
            m = sample_slq_uniform(3, 1001, rng)
            assert la.det(la.as_matrix(lift_slq_to_slz(m, 1001))) == 1
        assert calls.count(1001) <= 1


class TestOrbitInvariant:
    """t = gcd(q k) in N_S, read as gcd_S at a level in N_S that t divides."""

    LEVEL = 3**3 * 5 * 7 * 11 * 13

    def setup_method(self):
        self.cc = congruence_context(3, 5, (1, 0, 0), S2)

    def invariant(self, k):
        return gcd_S(self.LEVEL, [self.cc.q * Fraction(x) for x in k], self.cc.ctx)

    def test_primitive_case(self):
        assert self.invariant((Fraction(6, 5), 2, 1)) == 1

    def test_content_three(self):
        assert self.invariant((Fraction(6, 5), 3, 0)) == 3

    def test_gcd_constant_on_unimodular_orbits(self):
        rng = random.Random(29)
        cc = self.cc
        for _ in range(100):
            k = [w / cc.q for w in cc.w]
            for i in range(3):
                k[i] += Fraction(
                    rng.randint(-8, 8), rng.choice([1, 2, 4])
                )
            gamma = [list(r) for r in identity(3)]
            for _ in range(4):
                i, j = rng.randrange(3), rng.randrange(3)
                if i == j:
                    continue
                c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                for t in range(3):
                    gamma[i][t] += c * gamma[j][t]
            moved = la.vec_mat(tuple(k), la.as_matrix(gamma))
            assert self.invariant(moved) == self.invariant(k)


class TestOrders:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    def test_brute_force(self, d, q):
        assert len(all_sl(d, q)) == sl_group_order(d, q)


class TestContextValidation:
    def test_q_not_coprime_to_s(self):
        with pytest.raises(ConfigError):
            congruence_context(2, 2, (1, 0), S2)

    def test_shift_shares_factor(self):
        with pytest.raises(ConfigError):
            congruence_context(2, 5, (5, 10), S0)

    def test_shift_not_s_integral(self):
        with pytest.raises(ConfigError, match="not S-integral"):
            congruence_context(2, 3, (Fraction(1, 5), 1), S2)

    def test_dimension(self):
        with pytest.raises(ConfigError):
            congruence_context(1, 5, (1,), S0)
