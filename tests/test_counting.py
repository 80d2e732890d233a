"""Tests for exact S-point counting against a naive enumeration oracle.

The oracle loops over every rational grid point of the S-box with plain
Fraction arithmetic and re-derives membership (coset, finite box, value
window) from the definitions, independently of the fiber counter's
congruence and interval machinery. The frozen counts below were confirmed
by hand or by the oracle at the stated scales.
"""

import itertools
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from sqcount import counting
from sqcount._linalg import det
from sqcount.congruence import CongruenceContext, congruence_context
from sqcount.counting import (
    FinitePart,
    ShrinkingFamily,
    SInterval,
    congruence_count,
    count_congruence,
    count_inhom,
    inhom_count,
    interval_at,
    shrinking_family,
    sweep,
)
from sqcount.errors import (
    ConfigError,
    DimensionMismatch,
    FamilyOutOfRange,
    RegionTooLarge,
)
from sqcount.qspace import quadratic_form
from sqcount.serialize import form_from_json
from sqcount.sarith import INF, SConfig, TVector, valuation
from sqcount.volume import leading_constant

S0 = SConfig(())
S2 = SConfig((2,))
S3 = SConfig((3,))
S23 = SConfig((2, 3))

TERN = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
QUAT31 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


def tv(t_inf, t_p=None, ctx=S0):
    return TVector(t_inf, t_p or {}, ctx)


def _is_S_integral(x: Fraction, ctx) -> bool:
    den = x.denominator
    for p in ctx.primes:
        while den % p == 0:
            den //= p
    return den == 1


def scaled(interval, factor):
    """The image of an SInterval under value scaling v -> factor * v,
    exactly."""
    lo, hi = (Fraction(x) * factor for x in interval.real)
    finite = {p: (a * factor, e + valuation(factor, p))
              for p, (a, e) in interval.finite.items()}
    return SInterval((lo, hi) if factor > 0 else (hi, lo), finite)


def rescale_identity(level, q_form, family, t) -> bool:
    """N(q, w; Q, I, T) = N(Q_{w/q}, I/q^2, (T_inf/q, t_p)), both sides
    counted exactly.

    The left side counts k = q k1 directly; the right side counts k1 on the
    shifted grid, so the equality exercises the interval and radius scaling
    end to end. level is the pair (q, w), with q prime to the finite places
    so that t_p is the same on both sides; it admits the trivial q = 1,
    w = 0 case that congruence_context rejects.
    """
    q, w = level
    cctx = CongruenceContext(q_form.dim, q, tuple(map(Fraction, w)), q_form.ctx)
    interval = interval_at(family, t)
    lhs = congruence_count(cctx, q_form, interval, t)
    t_small = TVector(Fraction(t.t_inf) / q, dict(t.t_p), t.ctx)
    xi = tuple(x / q for x in cctx.w)
    rhs = inhom_count(q_form, xi, scaled(interval, Fraction(1, q * q)), t_small)
    return lhs == rhs


def form_value(q_form, x, place):
    g = q_form.gram_at(place)
    return sum(a * g[i][j] * b for i, a in enumerate(x) for j, b in enumerate(x))


def in_interval(interval, x, q_form):
    """Q(x) in the open real interval and in every finite ball a_p + p^e Z_p."""
    lo, hi = interval.real
    if not lo < form_value(q_form, x, INF) < hi:
        return False
    for p, (a, e) in interval.finite.items():
        diff = form_value(q_form, x, p) - a
        if diff != 0 and valuation(diff, p) < e:
            return False
    return True


def oracle_points(q_form, interval, t, level=1, shift=None):
    """Brute list of counted points: a full nested loop over the box grid.

    Points of level*Z_S^d + shift inside the box lie on (1/grid)Z^d for
    grid = lcm(shift denominators) * prod p^t_p, so looping over that grid
    and filtering by definition is exhaustive.
    """
    ctx = q_form.ctx
    d = q_form.dim
    if shift is None:
        shift = (Fraction(0),) * d
    shift = tuple(Fraction(x) for x in shift)
    grid = 1
    for s in shift:
        grid = math.lcm(grid, s.denominator)
    for p in ctx.primes:
        grid *= p ** t.t_p.get(p, 0)
    t2 = Fraction(t.t_inf) ** 2
    n_max = math.isqrt(math.floor(t2 * grid * grid))
    assert (2 * n_max + 1) ** d <= 200_000, "oracle instance too large"
    pts = []
    for n in itertools.product(range(-n_max, n_max + 1), repeat=d):
        x = tuple(Fraction(v, grid) for v in n)
        if sum(c * c for c in x) >= t2:
            continue
        if any(
            c != 0 and valuation(c, p) < -t.t_p.get(p, 0)
            for c in x
            for p in ctx.primes
        ):
            continue
        if not all(
            _is_S_integral((c - s) / level, ctx) for c, s in zip(x, shift)
        ):
            continue
        if in_interval(interval, x, q_form):
            pts.append(x)
    return pts


def oracle_count(q_form, interval, t, level=1, shift=None):
    return len(oracle_points(q_form, interval, t, level, shift))


class TestShrinkingFamilyValidation:
    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            shrinking_family(3, 0)
        with pytest.raises(ConfigError):
            shrinking_family(3, -1.0)

    def test_real_rate_range(self):
        with pytest.raises(FamilyOutOfRange):
            shrinking_family(3, 1, kappa_inf=1.0)
        with pytest.raises(FamilyOutOfRange):
            shrinking_family(3, 1, kappa_inf=-0.1)
        shrinking_family(3, 1, kappa_inf=0.99)
        shrinking_family(4, 1, kappa_inf=1.0)

    def test_finite_rate_range(self):
        with pytest.raises(FamilyOutOfRange):
            shrinking_family(4, 1, finite={3: (0, 0, 2)})
        # rate 1 at a finite place needs d >= 4
        with pytest.raises(FamilyOutOfRange):
            shrinking_family(3, 1, finite={3: (0, 0, 1)})
        fam = shrinking_family(4, 1, finite={3: (0, 0, 1)})
        assert fam.finite[3] == FinitePart(Fraction(0), 0, 1)


class TestIntervalAt:
    def test_constant_family(self):
        fam = shrinking_family(3, 1)
        for t_inf in (1.0, 7.0, 1000.0):
            iv = interval_at(fam, tv(t_inf))
            assert iv.real == (Fraction(-1, 2), Fraction(1, 2))

    def test_real_rate_half(self):
        fam = shrinking_family(3, 1, kappa_inf=0.5)
        iv = interval_at(fam, tv(4.0))
        assert iv.real_length() == pytest.approx(0.5)

    def test_finite_rate_one(self):
        fam = shrinking_family(4, 1, finite={3: (0, 0, 1)})
        iv = interval_at(fam, tv(5.0, {3: 2}, S3))
        assert iv.finite[3] == (Fraction(0), 2)

    def test_absent_place_defaults_to_unit_ball(self):
        fam = shrinking_family(3, 1)
        iv = interval_at(fam, tv(5.0, {3: 1}, S3))
        assert iv.finite[3] == (Fraction(0), 0)

    def test_decreasing_in_t(self):
        fam = shrinking_family(
            4, 2, kappa_inf=0.7, a_inf=Fraction(1, 3), finite={3: (1, -1, 1)}
        )
        small = interval_at(fam, tv(4.0, {3: 1}, S3))
        large = interval_at(fam, tv(9.0, {3: 3}, S3))
        assert small.real[0] < large.real[0] < large.real[1] < small.real[1]
        assert large.finite[3][1] > small.finite[3][1]
        assert large.finite[3][0] == small.finite[3][0]


class TestSInterval:
    def test_volume(self):
        iv = SInterval((Fraction(-1, 2), Fraction(1, 2)), {3: (Fraction(0), 2)})
        assert iv.volume() == pytest.approx(1 / 9)

    def test_scaled_exact(self):
        iv = SInterval((Fraction(1), Fraction(2)), {3: (Fraction(1), 1)})
        sc = scaled(iv, Fraction(1, 9))
        assert sc.real == (Fraction(1, 9), Fraction(2, 9))
        assert sc.finite[3] == (Fraction(1, 9), -1)
        neg = scaled(iv, Fraction(-1))
        assert neg.real == (Fraction(-2), Fraction(-1))


class TestWorkedCongruence:
    def test_four_points_on_the_two_level(self):
        # 2Z^3 + (1,1,0), x^2+y^2-z^2 in (1.5, 2.5), |x| < 3: (+-1,+-1,0)
        q = quadratic_form(S0, TERN)
        cctx = congruence_context(3, 2, (1, 1, 0), S0)
        fam = shrinking_family(3, 1, a_inf=2)
        t = tv(3.0)
        iv = interval_at(fam, t)
        assert congruence_count(cctx, q, iv, t) == 4
        assert oracle_count(q, iv, t, level=2, shift=(1, 1, 0)) == 4

    def test_window_around_zero_is_empty(self):
        q = quadratic_form(S0, TERN)
        cctx = congruence_context(3, 2, (1, 1, 0), S0)
        fam = shrinking_family(3, 1, a_inf=0)
        t = tv(3.0)
        assert congruence_count(cctx, q, interval_at(fam, t), t) == 0

    def test_zero_shift_rejected(self):
        with pytest.raises(ConfigError):
            congruence_context(3, 2, (0, 0, 0), S0)

    def test_s_unit_denominator_shift_matches_oracle(self):
        q = quadratic_form(S3, TERN)
        cctx = congruence_context(3, 2, (Fraction(1, 3), 0, 1), S3)
        fam = shrinking_family(3, 3, a_inf=1)
        t = tv(2.5, {3: 1}, S3)
        iv = interval_at(fam, t)
        got = congruence_count(cctx, q, iv, t)
        assert got == oracle_count(q, iv, t, level=2, shift=cctx.w)


class TestInhom:
    def test_zero_shift_is_homogeneous(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, Fraction(1, 2), a_inf=0)
        t = tv(2.5)
        iv = interval_at(fam, t)
        pts = oracle_points(q, iv, t)
        n = inhom_count(q, (0, 0, 0), iv, t)
        assert n == len(pts) == 9
        # the origin is counted exactly when Q(0) = 0 lies in the window
        assert (Fraction(0),) * 3 in pts
        assert iv.real[0] < 0 < iv.real[1]

    def test_origin_dropped_when_window_misses_zero(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, Fraction(1, 2), a_inf=1)
        t = tv(2.5)
        iv = interval_at(fam, t)
        pts = oracle_points(q, iv, t)
        assert inhom_count(q, (0, 0, 0), iv, t) == len(pts)
        assert (Fraction(0),) * 3 not in pts

    def test_fifth_shift_matches_oracle(self):
        q = quadratic_form(S0, TERN)
        xi = (Fraction(1, 5), 0, 0)
        fam = shrinking_family(3, 1)
        for t_inf, frozen in ((2.5, 9), (3.5, 17)):
            t = tv(t_inf)
            iv = interval_at(fam, t)
            n = inhom_count(q, xi, iv, t)
            assert n == oracle_count(q, iv, t, shift=xi) == frozen

    def test_s_place_pole_is_absorbed(self):
        # xi = (1/3, 0, 0) with 3 in S: Z_S^3 + xi = Z_S^3, so the count
        # must match the homogeneous one and the oracle
        q = quadratic_form(S3, TERN)
        fam = shrinking_family(3, 2)
        xi = (Fraction(1, 3), 0, 0)
        for t in (tv(2.5, {3: 0}, S3), tv(2.5, {3: 1}, S3)):
            iv = interval_at(fam, t)
            n = inhom_count(q, xi, iv, t)
            assert n == inhom_count(q, (0, 0, 0), iv, t)
            assert n == oracle_count(q, iv, t, shift=xi)

    def test_per_place_grams_and_finite_window(self):
        eps = tuple(
            tuple(Fraction(e, 1024) for e in row)
            for row in ((5, 13, 21), (13, -8, 34), (21, 34, 3))
        )
        g_inf = tuple(
            tuple(TERN[i][j] + eps[i][j] for j in range(3)) for i in range(3)
        )
        q = quadratic_form(S3, g_inf, gram_p={3: TERN})
        fam = shrinking_family(3, 4, finite={3: (0, 1, 0)})
        t = tv(3.5, {3: 1}, S3)
        iv = interval_at(fam, t)
        assert inhom_count(q, (0, 0, 0), iv, t) == oracle_count(q, iv, t)


def _random_gram(rng, d, den_choices):
    while True:
        den = rng.choice(den_choices)
        g = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                g[i][j] = g[j][i] = Fraction(rng.randint(-2, 2), den)
        if det(g) != 0:
            return tuple(tuple(row) for row in g)


class TestRandomOracleAgreement:
    """Exactness invariant: N equals the naive full-box oracle."""

    def _check_random_case(self, rng, d):
        ctx = rng.choice([S0, S3])
        g = _random_gram(rng, d, (1, 2, 3))
        gram_p = None
        if ctx.primes and rng.random() < 0.4:
            gram_p = {3: _random_gram(rng, d, (1,))}
        q = quadratic_form(ctx, g, gram_p=gram_p)
        # families need d >= 3, raw counts take any window: build direct
        finite = {}
        if ctx.primes and rng.random() < 0.5:
            finite[3] = (Fraction(rng.choice([0, 1, Fraction(1, 3)])),
                         rng.choice([-1, 0, 1]))
        c = Fraction(rng.choice([Fraction(1, 2), 1, 2]))
        a = Fraction(rng.choice([0, Fraction(1, 2), -1]))
        iv = SInterval((a - c / 2, a + c / 2), finite)
        t3 = rng.choice([0, 1]) if ctx.primes else 0
        t_inf = rng.choice([2, Fraction(7, 2)]) if d == 2 else Fraction(5, 2)
        mode = rng.choice(["hom", "inhom", "cong"])
        level, shift = 1, (0,) * d
        if mode == "inhom":
            shift = tuple(
                Fraction(rng.randint(-1, 1), rng.choice([1, 2]))
                for _ in range(d)
            )
        elif mode == "cong":
            level = rng.choice([2, 5])
            shift = tuple(rng.randint(0, level - 1) for _ in range(d))
            if math.gcd(level, *shift) != 1:
                shift = (1,) + shift[1:]
        if d == 4:
            # radius 4.5 grid steps keeps the oracle box at 9^4 points
            grid = 3**t3 * math.lcm(*(Fraction(x).denominator for x in shift))
            t_inf = Fraction(9, 2 * grid)
        t = tv(t_inf, {3: t3} if ctx.primes else {}, ctx)
        if mode == "cong":
            cctx = congruence_context(d, level, shift, ctx)
            got = congruence_count(cctx, q, iv, t)
        else:
            got = inhom_count(q, shift, iv, t)
        want = oracle_count(q, iv, t, level=level, shift=shift)
        assert got == want, (mode, g, gram_p, finite, t)

    def test_random_instances(self):
        rng = random.Random(20260816)
        for _ in range(24):
            self._check_random_case(rng, rng.choice([2, 3]))

    def test_random_instances_d4(self):
        rng = random.Random(20261018)
        for _ in range(8):
            self._check_random_case(rng, 4)


class TestChunkInvariance:
    """Batching head rows changes neither counts nor budget failures."""

    # one head per numpy pass, a few heads, the default (one pass for these
    # small instances), and every head in one pass
    CHUNKINGS = (1, 64, counting._CHUNK_ELEMENTS, sys.maxsize)
    BUDGETS = (counting.DEFAULT_MAX_CANDIDATES, 300, 40)
    NEG_LAST = {3: ((1, 0, 0), (0, 2, 1), (0, 1, -1)),
                4: ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 2, 0), (1, 0, 0, -3))}
    # no nonzero diagonal entry: the last coordinate enters linearly (a == 0)
    ZERO_DIAG = {3: ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
                 4: ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))}

    def _cases(self):
        rng = random.Random(404)
        for d, ctx, mode in itertools.product(
            (3, 4), (S0, S3, S23), ("hom", "inhom", "cong")
        ):
            finite = {
                p: (Fraction(rng.randint(0, 2)), rng.choice([0, 1]))
                for p in ctx.primes
            }
            t = tv(Fraction(3) if d == 3 else Fraction(3, 2),
                   {p: 1 for p in ctx.primes}, ctx)
            for g in (_random_gram(rng, d, (1, 2)), self.NEG_LAST[d],
                      self.ZERO_DIAG[d]):
                q = quadratic_form(ctx, g)
                a = Fraction(rng.choice([0, 1, -2]))
                iv = SInterval((a - 2, a + 2), finite)
                if mode == "cong":
                    cctx = congruence_context(d, 5, (1,) + (2,) * (d - 1), ctx)
                    yield lambda m, c=cctx, q=q, iv=iv, t=t: congruence_count(
                        c, q, iv, t, m)
                else:
                    xi = (0,) * d if mode == "hom" else (
                        (Fraction(1, 5),) + (Fraction(1, 2),) * (d - 1))
                    yield lambda m, xi=xi, q=q, iv=iv, t=t: inhom_count(
                        q, xi, iv, t, m)

    def test_every_chunking_agrees(self, monkeypatch):
        instances = []
        count_instance = counting._count_instance

        def spy(inst, max_candidates):
            instances.append(inst)
            return count_instance(inst, max_candidates)

        monkeypatch.setattr(counting, "_count_instance", spy)
        outcomes = []
        for chunk in self.CHUNKINGS:
            monkeypatch.setattr(counting, "_CHUNK_ELEMENTS", chunk)
            got = []
            for count in self._cases():
                for budget in self.BUDGETS:
                    try:
                        n = count(budget)
                        got.append((int(n), n.charged))
                    except RegionTooLarge as exc:
                        got.append(str(exc))
            outcomes.append(got)
        assert all(got == outcomes[0] for got in outcomes[1:])
        kinds = {type(x) for x in outcomes[0]}
        assert kinds == {tuple, str}
        assert any(n > 0 for n, _ in
                   (x for x in outcomes[0] if isinstance(x, tuple)))
        live = [i for i in instances if not i.empty]
        assert {len(i.rho) for i in live} == {3, 4}
        assert {i.l_mod for i in live} >= {1, 5, 10}
        mods = {i.m_val for i in live}
        assert 1 in mods
        assert any(m % 3 == 0 and m % 2 for m in mods)  # one prime
        assert any(m % 6 == 0 for m in mods)  # two primes
        assert any(i.gram[-1][-1] < 0 for i in live)
        assert any(i.gram[-1][-1] == 0 for i in live)


class TestBudgetThreshold:
    def test_succeeds_at_the_prefix_count_and_raises_below(self, monkeypatch):
        # x in Z^3 + xi: the prefixes are the pairs (x1, x2) of
        # (1/5 + Z) x Z inside the open ball. T^2 is just above 6.2^2, so
        # the head x1 = 6.2 lies on the ball's integer boundary and owns the
        # one prefix (6.2, 0)
        q = quadratic_form(S0, TERN)
        xi = (Fraction(1, 5), 0, 0)
        t = tv(Fraction(12401, 2000))
        iv = interval_at(shrinking_family(3, 2), t)
        r = range(-7, 8)
        prefixes = sum(
            (x1 + xi[0]) ** 2 + (x2 + xi[1]) ** 2 < t.t_inf ** 2
            for x1 in r for x2 in r
        )
        want = inhom_count(q, xi, iv, t)
        for chunk in TestChunkInvariance.CHUNKINGS:
            monkeypatch.setattr(counting, "_CHUNK_ELEMENTS", chunk)
            got = inhom_count(q, xi, iv, t, max_candidates=prefixes)
            assert (got, got.charged) == (want, prefixes)
            with pytest.raises(RegionTooLarge) as err:
                inhom_count(q, xi, iv, t, max_candidates=prefixes - 1)
            assert str(err.value) == (
                f"fiber counter budget exceeded ({prefixes} prefixes, more "
                f"than max_candidates={prefixes - 1}); raise max_candidates"
            )


class TestWindowFilter:
    """The counter drops every (head, x) prefix whose real window holds no
    integer n_d before it clips to the ball and runs the class tables. At
    each edge of that filter the count still equals the oracle's, and a spy
    checks that the edge is really reached."""

    # a 21^3 oracle grid. Per form, the narrow window holds one value w and
    # the 3-adic target asks Q = w mod 3; the wide window holds every value
    # in the ball; the shell (60, 90) has window pieces outside the ball.
    # In the narrow window the root prefilter sends few prefixes of the
    # quadratic form on to the exact test, while the linear (zero-diagonal)
    # form has no prefilter; the exact test keeps a prefix of the linear
    # form with odds about 1/|b|, so at this scale it keeps far more of them.
    # On the zero-diagonal form, w = 4 lets the prefixes with b == 0 and
    # n1 prime to 3 count every n3 of the ball in the wide window.
    T = tv(10, {3: 0}, S3)
    FORMS = {"neg_last": (TestChunkInvariance.NEG_LAST[3], 1, 0.05),
             "zero_diag": (TestChunkInvariance.ZERO_DIAG[3], 4, 0.3)}

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("window", ["narrow", "wide", "shell"])
    def test_filter_edges_match_the_oracle(self, form, window, monkeypatch):
        gram, w, narrow_share = self.FORMS[form]
        q = quadratic_form(S3, gram)
        real = {"narrow": (w - Fraction(1, 2), w + Fraction(1, 2)),
                "wide": (-1000, 1000), "shell": (60, 90)}[window]
        iv = SInterval(real, {3: (Fraction(w), 1)})
        # the budget is charged with the (n1, n2) in the open ball |n| < 10
        charged = sum(n1 * n1 + n2 * n2 < 100
                      for n1 in range(-10, 11) for n2 in range(-10, 11))
        seen = {"reached": 0, "kept": 0, "clipped_empty": 0}
        pieces, table_count = counting._window_pieces, counting._ClassTables.count

        def pieces_spy(a, b, *args):
            assert (a == 0) == (form == "zero_diag")
            keep, lo, hi = pieces(a, b, *args)
            seen["reached"] += len(b)
            seen["kept"] += len(keep)
            return keep, lo, hi

        def count_spy(tables, ids, lo, hi):
            seen["clipped_empty"] += int(np.sum((lo > hi).all(axis=0)))
            return table_count(tables, ids, lo, hi)

        monkeypatch.setattr(counting, "_window_pieces", pieces_spy)
        monkeypatch.setattr(counting._ClassTables, "count", count_spy)
        got = inhom_count(q, (0, 0, 0), iv, self.T)
        assert got == oracle_count(q, iv, self.T) > 0
        if window == "narrow":
            assert 0 < seen["kept"] < narrow_share * charged
            if form == "zero_diag":
                assert seen["reached"] == charged
            else:
                # 20 of the 305 have a square in the root window, and the
                # pieces of 6 of those hold an integer n3
                assert seen["kept"] <= seen["reached"] < 0.1 * charged
        elif window == "wide":
            assert seen["kept"] == seen["reached"] == charged > 0
        else:
            assert seen["clipped_empty"] > 0

    def test_widest_window_the_guard_admits(self):
        # only the origin is in the ball; 12 M = 2^62 - 4 is just inside the
        # 64-bit guard, while the window's disc gap 12 (2 M + 1) is past 2^63
        m = (2**60 - 1) // 3
        q = quadratic_form(S0, ((1, 0, 0), (0, 1, 0), (0, 0, 3)))
        iv = SInterval((-m - 1, m + 1), {})
        assert inhom_count(q, (0, 0, 0), iv, tv(Fraction(1, 2))) == 1


class TestStageOneKernels:
    """Oracles for the two kernels that stage 1 runs on every prefix."""

    def test_root_from_above_never_undershoots_isqrt(self):
        rng = random.Random(20261020)
        ks = [*range(2**31 - 64, 2**31), *range(2**17 - 8, 2**17 + 8), 1, 2, 3]
        xs = [0, *(k * k + e for k in ks for e in (-1, 0, 1)),
              *(rng.randrange(1 << 62) for _ in range(20000))]
        arr = np.array(xs, dtype=np.int64)
        above = counting._root_from_above(arr).tolist()
        exact = counting._visqrt(arr).tolist()
        for x, s_o, s in zip(xs, above, exact):
            assert math.isqrt(x) <= s_o <= math.isqrt(x) + 1, x
            assert s == math.isqrt(x), x

    def test_prefilter_keeps_every_square_window(self):
        # superset of the exact test; an extra only where the root from
        # above overshoots to isqrt + 1
        rng = random.Random(7)
        ks = [rng.randrange(1, 2**31) for _ in range(3000)]
        disc = [*(k * k + rng.randint(-3, 3) for k in ks),
                *(rng.randrange(-(1 << 62), 1 << 62) for _ in range(3000))]
        for gap in (1, 4, 4 * 35, 1 << 20, 1 << 62):
            got = set(counting._may_hold_square(
                np.array(disc, dtype=np.int64), gap).tolist())
            for i, dh in enumerate(disc):
                r = math.isqrt(max(dh, 0))
                if dh >= 0 and r * r > dh - gap:
                    assert i in got, (dh, gap)
                elif i in got:
                    assert dh >= 0 and (r + 1) ** 2 > dh - gap, (dh, gap)

    def test_row_disc_is_the_direct_discriminant(self):
        rng = random.Random(404)
        for _ in range(200):
            a, c_xx = rng.randint(0, 60), rng.randint(-60, 60)
            b_x, w_hi = 2 * rng.randint(-60, 60), rng.randint(-10**6, 10**6)
            lens = [rng.randint(0, 6) for _ in range(rng.randint(1, 8))]
            head = [[rng.randint(-10**5, 10**5) for _ in lens] for _ in range(3)]
            x = [rng.randint(-10**4, 10**4) for _ in range(sum(lens))]
            coeffs = counting._disc_coeffs(
                a, w_hi, b_x, c_xx, tuple(np.array(v) for v in head))
            got = counting._row_disc(coeffs, np.array(x, dtype=np.int64),
                                     np.array(lens))
            rows = [r for r, n in enumerate(lens) for _ in range(n)]
            b_h, c_hx, c_h = ([v[r] for r in rows] for v in head)
            want = [(bh + b_x * xi) ** 2
                    - 4 * a * (ch + chx * xi + c_xx * xi * xi - w_hi)
                    for bh, chx, ch, xi in zip(b_h, c_hx, c_h, x)]
            assert got.tolist() == want

    def test_count_near_the_64_bit_guard_matches_the_oracle(self):
        # in the ball |n| < 7/2 this form's discriminant bound is
        # 624 K^2 - 4 K ~ 2^61.3; doubling the form multiplies it by 4 and
        # crosses the guard's 2^62
        k = 1 << 26
        gram = ((k, 0, k), (0, 2 * k, k), (k, k, -k))
        q = quadratic_form(S0, gram)
        iv = SInterval((-3 * k, 3 * k), {})
        t = tv(Fraction(7, 2))
        assert inhom_count(q, (0, 0, 0), iv, t) == oracle_count(q, iv, t) > 0
        double = quadratic_form(S0, tuple(tuple(2 * v for v in row)
                                          for row in gram))
        with pytest.raises(RegionTooLarge, match="64-bit range"):
            inhom_count(double, (0, 0, 0), SInterval((-6 * k, 6 * k), {}), t)


class TestStageTwoFlush:
    def test_several_flushes_count_like_one(self, monkeypatch):
        # the benchmark's d = 3 form at T = 200: about 1% of its (n1, n2)
        # prefixes are candidates, and a small buffer flushes many times
        q = quadratic_form(S23, ((1, 0, 0), (0, 1, 0), (0, 0, -2)))
        cctx = congruence_context(3, 5, (1, 2, 0), S23)
        t = tv(200, {2: 1, 3: 1}, S23)
        iv = interval_at(shrinking_family(3, 1), t)
        calls, flushes = [0], []
        pieces = counting._window_pieces

        def pieces_spy(*args):
            calls[0] += 1
            return pieces(*args)

        monkeypatch.setattr(counting, "_window_pieces", pieces_spy)
        outcomes = []
        for chunk in (1, 64, sys.maxsize):
            monkeypatch.setattr(counting, "_CHUNK_ELEMENTS", chunk)
            calls[0] = 0
            n = congruence_count(cctx, q, iv, t)
            flushes.append(calls[0])
            got = [(int(n), n.charged)]
            for budget in (n.charged - 1, n.charged // 2):
                with pytest.raises(RegionTooLarge) as err:
                    congruence_count(cctx, q, iv, t, budget)
                got.append(str(err.value))
            outcomes.append(got)
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0][0] == 432
        assert flushes[2] == 1
        assert flushes[0] > flushes[1] > 1


class TestBenchmarkCounts:
    """The counts of the benchmark's count workload (perfbench), pinned."""

    def test_count_d4(self):
        q = quadratic_form(S2, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                (0, 0, 0, -1)))
        t = tv(30, {2: 1}, S2)
        iv = interval_at(shrinking_family(4, 1), t)
        assert inhom_count(q, (Fraction(1, 3), 0, 0, 0), iv, t) == 11462

    def test_sweep_d3(self):
        q = quadratic_form(S23, ((1, 0, 0), (0, 1, 0), (0, 0, -2)))
        cctx = congruence_context(3, 5, (1, 2, 0), S23)
        fam = shrinking_family(3, 1)
        ladder = [tv(t_inf, {2: 1, 3: 1}, S23) for t_inf in (200, 400, 800)]
        got = [congruence_count(cctx, q, interval_at(fam, t), t) for t in ladder]
        assert got == [432, 950, 2064]

    def test_few_sweep_d3_prefixes_reach_the_class_tables(self, monkeypatch):
        # a deterministic work count: of the ~2.9M (n1, n2) prefixes that the
        # T = 800 rung charges to the budget, about 1% have an integer n3 in
        # the real window and go on to the congruence class tables
        q = quadratic_form(S23, ((1, 0, 0), (0, 1, 0), (0, 0, -2)))
        cctx = congruence_context(3, 5, (1, 2, 0), S23)
        t = tv(800, {2: 1, 3: 1}, S23)
        iv = interval_at(shrinking_family(3, 1), t)
        insts, reached = [], []
        count_instance, ids_for = counting._count_instance, counting._ClassTables.ids_for

        def instance_spy(inst, max_candidates):
            insts.append(inst)
            return count_instance(inst, max_candidates)

        def ids_spy(tables, b_mod, c_mod):
            reached.append(len(b_mod))
            return ids_for(tables, b_mod, c_mod)

        monkeypatch.setattr(counting, "_count_instance", instance_spy)
        monkeypatch.setattr(counting._ClassTables, "ids_for", ids_spy)
        assert congruence_count(cctx, q, iv, t) == 2064
        (inst,), n_reached = insts, sum(reached)
        big_n = math.ceil(inst.ball2) - 1
        ns = np.arange(-math.isqrt(big_n), math.isqrt(big_n) + 1)
        n1, n2 = (ns[ns % inst.l_mod == r] for r in inst.rho[:2])
        charged = sum(int(np.count_nonzero(n2 * n2 <= big_n - a * a))
                      for a in n1.tolist())
        with pytest.raises(RegionTooLarge, match=rf"\({charged} prefixes"):
            congruence_count(cctx, q, iv, t, max_candidates=charged - 1)
        assert 0 < n_reached < 0.02 * charged


class TestMonotonicity:
    """Enlarging the window or the box never decreases N."""

    def test_window_and_box_growth(self):
        rng = random.Random(11)
        q = quadratic_form(S3, TERN)
        xi = (Fraction(1, 5), 0, 0)
        for _ in range(10):
            c = rng.choice([Fraction(1, 2), 1, 2])
            a = rng.choice([0, 1])
            e3 = rng.choice([0, 1])
            t = tv(rng.choice([3, 5]), {3: rng.choice([0, 1])}, S3)
            base = interval_at(
                shrinking_family(3, c, a_inf=a, finite={3: (0, e3, 0)}), t
            )
            wider = interval_at(
                shrinking_family(3, 4 * c, a_inf=a, finite={3: (0, e3 - 1, 0)}), t
            )
            t_big = tv(t.t_inf + 2, {3: t.t_p[3] + 1}, S3)
            n = inhom_count(q, xi, base, t)
            assert inhom_count(q, xi, wider, t) >= n
            assert inhom_count(q, xi, base, t_big) >= n


class TestRescaleIdentity:
    def test_worked_example(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, 1, a_inf=2)
        assert rescale_identity((2, (1, 1, 0)), q, fam, tv(3.0))

    def test_random_grid(self):
        rng = random.Random(5)
        for _ in range(50):
            ctx = rng.choice([S0, S3])
            g = _random_gram(rng, 3, (1, 2, 3))
            q = quadratic_form(ctx, g)
            lev = rng.choice([2, 5]) if ctx.primes else rng.choice([2, 3])
            w = tuple(rng.randint(0, lev - 1) for _ in range(3))
            if math.gcd(lev, *w) != 1:
                w = (1,) + w[1:]
            fam = shrinking_family(
                3, rng.choice([1, 2]), a_inf=rng.choice([0, 1])
            )
            t3 = {3: rng.choice([0, 1])} if ctx.primes else {}
            t = tv(rng.choice([4, 6]), t3, ctx)
            assert rescale_identity((lev, w), q, fam, t)

    def test_trivial_level_via_pair(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, 1, a_inf=1)
        assert rescale_identity((1, (0, 0, 0)), q, fam, tv(4.0))
        assert rescale_identity((2, (1, 1, 0)), q, fam, tv(4.0))

    def test_forgetting_value_scaling_breaks_it(self):
        # negative control: without the 1/q^2 on the window the sides differ
        q = quadratic_form(S0, TERN)
        cctx = congruence_context(3, 2, (1, 1, 0), S0)
        fam = shrinking_family(3, 1, a_inf=2)
        t = tv(3.0)
        iv = interval_at(fam, t)
        lhs = congruence_count(cctx, q, iv, t)
        xi = tuple(Fraction(w, 2) for w in cctx.w)
        rhs = inhom_count(q, xi, iv, tv(1.5))
        assert lhs == 4 and rhs != lhs


class TestGuards:
    def test_candidate_budget(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, 1)
        t = tv(40.0)
        with pytest.raises(RegionTooLarge):
            inhom_count(q, (0, 0, 0), interval_at(fam, t), t, max_candidates=10)

    def test_value_modulus_cap(self):
        q = quadratic_form(S3, TERN)
        fam = shrinking_family(3, 1, finite={3: (0, 8, 0)})
        t = tv(3.0, {3: 0}, S3)
        with pytest.raises(RegionTooLarge, match="limit of 4096"):
            inhom_count(q, (0, 0, 0), interval_at(fam, t), t)

    def test_ball_cap(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, 1)
        t = tv(2.0**26)
        with pytest.raises(RegionTooLarge, match=r"limit of 2\^50"):
            inhom_count(q, (0, 0, 0), interval_at(fam, t), t)

    def test_form_too_large_for_every_t(self):
        # the Gram alone passes the 64-bit guard at n_max = 1, so no T can
        # help and the form is the configuration error; a smaller Gram
        # overflows only because T is large, which stays a budget failure
        fam = shrinking_family(3, 1)
        huge = quadratic_form(S0, ((10**20, 0, 0), (0, 1, 0), (0, 0, -1)))
        t = tv(2.0)
        with pytest.raises(ConfigError, match="form"):
            inhom_count(huge, (0, 0, 0), interval_at(fam, t), t)
        big = quadratic_form(S0, ((10**8, 0, 0), (0, 1, 0), (0, 0, -1)))
        t = tv(2.0**20)
        with pytest.raises(RegionTooLarge, match="64-bit"):
            inhom_count(big, (0, 0, 0), interval_at(fam, t), t)

    def test_radius_named_by_the_64_bit_guard(self):
        # the guard names the largest scaled coordinate the form and target
        # admit: a ball that reaches it counts, one that reaches one more
        # trips the guard; with r = 1 the open ball |x| < b + 1 reaches b
        q = quadratic_form(S0, ((10**14, 0, 0), (0, 1, 0), (0, 0, -1)))
        iv = SInterval((-1, 1), {})
        with pytest.raises(RegionTooLarge, match="64-bit") as err:
            inhom_count(q, (0, 0, 0), iv, tv(1000))
        bound = int(re.search(r"admit at most (\d+)", str(err.value)).group(1))
        assert 10 < bound < 1000
        assert inhom_count(q, (0, 0, 0), iv, tv(bound + 1)) > 0
        with pytest.raises(RegionTooLarge,
                           match=rf"coordinate {bound + 1} .* at most {bound}$"):
            inhom_count(q, (0, 0, 0), iv, tv(bound + 2))

    def test_negative_depth_rejected(self):
        q = quadratic_form(S3, TERN)
        fam = shrinking_family(3, 1)
        t = TVector(3.0, {3: -1}, S3)
        with pytest.raises(ConfigError):
            inhom_count(q, (0, 0, 0), interval_at(fam, t), t)

    def test_builtin_shift_rejected(self):
        # the shift of a count is its own argument; a form object never
        # carries one
        gram = [[str(x) for x in row] for row in TERN]
        for key, shift in (("shift", ["1/2", "0", "0"]),
                           ("shift_p", {"2": ["1/2", "0", "0"]})):
            with pytest.raises(ConfigError, match="pass the shift as --xi"):
                form_from_json({"gram_inf": gram, key: shift}, S2)

    def test_dimension_mismatch(self):
        q = quadratic_form(S0, ((1, 0), (0, -1)))
        cctx = congruence_context(3, 2, (1, 1, 0), S0)
        fam = shrinking_family(3, 1)
        t = tv(3.0)
        with pytest.raises(DimensionMismatch):
            congruence_count(cctx, q, interval_at(fam, t), t)


class TestCountResults:
    def test_congruence_prediction_wiring(self):
        q = quadratic_form(S0, TERN)
        cctx = congruence_context(3, 2, (1, 1, 0), S0)
        fam = shrinking_family(3, 1, a_inf=2)
        t = tv(3.0)
        res = count_congruence(cctx, q, fam, t)
        iv = interval_at(fam, t)
        c_q, _ = leading_constant(q, fam)
        assert res.n == 4
        assert c_q == pytest.approx(math.sqrt(2) * math.pi, rel=1e-12)
        assert res.prediction == pytest.approx(
            c_q * iv.volume() * float(t.size()) / 8
        )
        assert res.ratio == pytest.approx(res.n / res.prediction)
        assert res.vol_interval == pytest.approx(iv.volume())
        assert res.wall_ms >= 0

    def test_inhom_prediction_has_no_level_factor(self):
        q = quadratic_form(S0, TERN)
        fam = shrinking_family(3, 1)
        t = tv(3.0)
        res = count_inhom(q, (Fraction(1, 5), 0, 0), fam, t)
        c_q, _ = leading_constant(q, fam)
        assert res.prediction == pytest.approx(
            c_q * interval_at(fam, t).volume() * 3.0
        )
        assert res.n >= 0


class TestSweep:
    def test_ladder_must_increase(self):
        q = quadratic_form(S3, TERN)
        fam = shrinking_family(3, 1)
        lad = [tv(10.0, {3: 1}, S3), tv(20.0, {3: 0}, S3)]
        with pytest.raises(ConfigError):
            sweep(q, (0, 0, 0), fam, lad)

    def test_empty_ladder(self):
        q = quadratic_form(S3, TERN)
        fam = shrinking_family(3, 1)
        res = sweep(q, (0, 0, 0), fam, [])
        assert res.results == () and res.delta_hat is None

    def test_family_range_checked(self):
        q = quadratic_form(S3, TERN)
        bad = ShrinkingFamily(3, 1, 1.0, 0, {})
        with pytest.raises(FamilyOutOfRange):
            sweep(q, (0, 0, 0), bad, [tv(5.0, {3: 0}, S3)])

    def test_inhom_sweep_converges(self):
        q = quadratic_form(S3, TERN)
        fam = shrinking_family(3, 8)
        lad = [tv(10.0, {3: 0}, S3), tv(20.0, {3: 1}, S3), tv(40.0, {3: 1}, S3)]
        res = sweep(q, (Fraction(1, 5), 0, 0), fam, lad)
        assert len(res.results) == 3
        assert 0.9 < res.results[-1].ratio < 1.15
        assert res.delta_hat is not None and math.isfinite(res.delta_hat)

    def test_every_rung_predicts_like_count(self):
        q3, q4 = quadratic_form(S3, TERN), quadratic_form(S2, QUAT31)
        cctx = congruence_context(3, 2, (1, 0, 1), S3)
        fam3 = shrinking_family(3, 4)
        lad3 = [tv(8.0, {3: 0}, S3), tv(16.0, {3: 1}, S3)]
        # the 2-adic target shrinks with t_2, so c_Q differs from rung to rung
        xi = (Fraction(1, 3), 0, 0, 0)
        fam4 = shrinking_family(4, 1, finite={2: (1, 1, 1)})
        lad4 = [tv(16.0, {2: t}, S2) for t in (0, 1, 2)]
        inhom = sweep(q4, xi, fam4, lad4)
        cases = [
            (sweep(q3, cctx, fam3, lad3), lad3,
             lambda t: count_congruence(cctx, q3, fam3, t)),
            (inhom, lad4, lambda t: count_inhom(q4, xi, fam4, t)),
        ]
        for res, lad, count in cases:
            assert len(res.results) == len(lad)
            for r, t in zip(res.results, lad):
                alone = count(t)
                assert (r.n, r.prediction, r.ratio) == (
                    alone.n, alone.prediction, alone.ratio
                )
        # one constant taken at the last rung predicted 414.68 and 829.35
        assert [r.prediction for r in inhom.results[:2]] == pytest.approx(
            [402.11, 904.75], rel=1e-4
        )
