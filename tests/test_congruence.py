"""Tests for congruence-level combinatorics.

Group orders are checked against brute-force enumeration of matrices mod
q; samplers against exhaustive element lists; lifting and completion
against their defining identities.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from sqcount import _linalg as la
from sqcount.congruence import (
    CongruenceContext,
    complete_primitive,
    congruence_context,
    gamma_w,
    lift_slq_to_slz,
    orbit_invariant,
    representative_for_t,
    sample_slq_uniform,
)
from sqcount.errors import (
    ConfigError,
    DenominatorNotInvertibleModQ,
    InvariantViolation,
    NonSUnitDenominator,
    NotInSLq,
    NotPrimitive,
    SearchBudgetExceeded,
    ShiftMismatch,
)
from sqcount.sarith import (
    SConfig,
    frac_mod,
    sl_group_order,
    svector,
    vector_content_NS,
)

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
        with pytest.raises(DenominatorNotInvertibleModQ):
            frac_mod(Fraction(1, 5), 5)
        with pytest.raises(ConfigError):
            frac_mod(Fraction(1, 6), 9)


class TestSampler:
    def test_sl2_f2_uniform(self):
        rng = random.Random(11)
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
        rng = random.Random(13 + d + q)
        seen = set()
        for _ in range(draws):
            m = sample_slq_uniform(d, q, rng)
            assert det2(m, q) == 1
            seen.add(m)
        assert len(seen) == sl_group_order(d, q)

    def test_d3_composite_in_group(self):
        rng = random.Random(17)
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
        rng = random.Random(100 * d + q)
        for _ in range(10):
            m = sample_slq_uniform(d, q, rng)
            lifted = lift_slq_to_slz(m, q)
            assert la.det(la.as_matrix(lifted)) == 1
            assert tuple(tuple(x % q for x in row) for row in lifted) == m

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotInSLq):
            lift_slq_to_slz(((2, 0), (0, 2)), 5)


class TestCompletePrimitive:
    def test_e1(self):
        got = complete_primitive(svector((1, 0), S0))
        assert got == la.identity(2)

    def test_two_one(self):
        got = complete_primitive(svector((2, 1), S0))
        assert got == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))

    def test_half_one(self):
        got = complete_primitive(svector((Fraction(1, 2), 1), S2))
        assert got == (
            (Fraction(1, 2), Fraction(1)),
            (Fraction(0), Fraction(2)),
        )

    def test_s_unit_multiple(self):
        got = complete_primitive(svector((4, 2), S2))
        assert got[0] == (Fraction(4), Fraction(2))
        assert la.det(got) == 1
        assert all(x.denominator in (1, 2, 4) for row in got for x in row)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_integer_primitive(self, d):
        rng = random.Random(19 + d)
        done = 0
        while done < 30:
            v = tuple(rng.randint(-9, 9) for _ in range(d))
            if not any(v) or math.gcd(*v) != 1:
                continue
            got = complete_primitive(svector(v, S0))
            assert got[0] == tuple(Fraction(x) for x in v)
            assert la.det(got) == 1
            assert all(x.denominator == 1 for row in got for x in row)
            done += 1

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            complete_primitive(svector((2, 4), S0))
        with pytest.raises(NotPrimitive):
            complete_primitive(svector((0, 0), S0))

    def test_not_s_integral(self):
        with pytest.raises(NonSUnitDenominator):
            complete_primitive(svector((Fraction(1, 5), 1), S2))


class TestGammaW:
    def test_last_axis_is_identity(self):
        cc = congruence_context(3, 5, (0, 0, 1), S2)
        assert gamma_w(cc) == la.identity(3)

    def test_first_axis(self):
        cc = congruence_context(3, 5, (1, 0, 0), S2)
        g = gamma_w(cc)
        assert la.det(g) == 1
        image = la.vec_mat(tuple(Fraction(x) for x in (1, 0, 0)), la.inverse(g))
        assert image[0] == 0 and image[1] == 0 and image[2] != 0

    @pytest.mark.parametrize(
        "w", [(2, 1, 0), (3, 3, 0), (Fraction(1, 2), 1, 3), (0, 7, 0)]
    )
    def test_sends_shift_to_last_axis(self, w):
        cc = congruence_context(3, 5, w, S2)
        g = gamma_w(cc)
        assert la.det(g) == 1
        assert all(x.denominator == 1 for row in g for x in row)
        image = la.vec_mat(tuple(Fraction(x) for x in w), la.inverse(g))
        assert all(image[i] == 0 for i in range(2))
        assert svector((image[2],), S2).is_s_integral()


class TestOrbitInvariant:
    def setup_method(self):
        self.cc = congruence_context(3, 5, (1, 0, 0), S2)

    def test_primitive_case(self):
        assert orbit_invariant(self.cc, svector((Fraction(6, 5), 2, 1), S2)) == 1

    def test_content_three(self):
        assert orbit_invariant(self.cc, svector((Fraction(6, 5), 3, 0), S2)) == 3

    def test_base_point(self):
        assert orbit_invariant(self.cc, svector((Fraction(1, 5), 0, 0), S2)) == 1

    def test_shift_mismatch(self):
        with pytest.raises(ShiftMismatch):
            orbit_invariant(self.cc, svector((1, 0, 0), S2))

    def test_invariant_violation_on_bad_context(self):
        # bypass the factory: a shift sharing a factor with q is invalid
        bad = CongruenceContext(2, 2, (Fraction(2), Fraction(0)), S0)
        with pytest.raises(InvariantViolation):
            orbit_invariant(bad, svector((1, 0), S0))

    def test_gcd_constant_on_unimodular_orbits(self):
        rng = random.Random(29)
        cc = self.cc
        for _ in range(100):
            k = [w / cc.q for w in cc.w]
            for i in range(3):
                k[i] += Fraction(
                    rng.randint(-8, 8), rng.choice([1, 2, 4])
                )
            gamma = [list(r) for r in la.identity(3)]
            for _ in range(4):
                i, j = rng.randrange(3), rng.randrange(3)
                if i == j:
                    continue
                c = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                for t in range(3):
                    gamma[i][t] += c * gamma[j][t]
            qk = tuple(cc.q * x for x in k)
            qk_moved = la.vec_mat(qk, la.as_matrix(gamma))
            assert vector_content_NS(qk_moved, S2) == vector_content_NS(qk, S2)


class TestRepresentative:
    def test_worked_example(self):
        cc = congruence_context(3, 5, (1, 0, 0), S2)
        k = representative_for_t(cc, 3)
        assert k.coords == (Fraction(6, 5), Fraction(3), Fraction(0))

    def test_t_one_is_base_point(self):
        cc = congruence_context(3, 5, (1, 0, 0), S2)
        assert representative_for_t(cc, 1).coords == (
            Fraction(1, 5),
            Fraction(0),
            Fraction(0),
        )

    @pytest.mark.parametrize("q", [5, 7])
    @pytest.mark.parametrize("t", [1, 3, 7, 9, 11])
    def test_round_trip(self, q, t):
        if math.gcd(t, q) != 1:
            pytest.skip("t not coprime to q")
        cc = congruence_context(3, q, (1, 0, 0), S2)
        k = representative_for_t(cc, t)
        assert orbit_invariant(cc, k) == t

    def test_fractional_shift(self):
        cc = congruence_context(3, 5, (Fraction(1, 2), 1, 0), S2)
        k = representative_for_t(cc, 3)
        assert orbit_invariant(cc, k) == 3

    def test_shift_with_inert_content(self):
        # content 3 of w is neither an S-unit nor shared with q
        cc = congruence_context(2, 5, (3, 3), S2)
        for t in (1, 3):
            assert orbit_invariant(cc, representative_for_t(cc, t)) == t

    def test_bad_t(self):
        cc = congruence_context(3, 5, (1, 0, 0), S2)
        with pytest.raises(ConfigError):
            representative_for_t(cc, 5)
        with pytest.raises(ConfigError):
            representative_for_t(cc, 2)  # 2 is not in N_S when S_f = {2}

    def test_budget(self):
        cc = congruence_context(3, 5, (1, 0, 0), S2)
        with pytest.raises(SearchBudgetExceeded):
            representative_for_t(cc, 3, max_candidates=0)


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
        with pytest.raises(NonSUnitDenominator):
            congruence_context(2, 3, (Fraction(1, 5), 1), S2)

    def test_dimension(self):
        with pytest.raises(ConfigError):
            congruence_context(1, 5, (1,), S0)
