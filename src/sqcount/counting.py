"""Counts of S-points with form values in shrinking targets.

The headline counters N(q, w; Q, I, T) and N(Q_xi, I, T), their volume
predictions, and ladder sweeps with a fitted error exponent.

Counting never enumerates the candidate box: after clearing denominators
the points become an integer grid n with per-coordinate congruences, and
the counter iterates only over the d-1 leading coordinates. The last
coordinate is resolved in closed form: the real window gives at most two
integer intervals via exact square roots, and the p-adic value targets
cut congruence classes out of them, counted by floor arithmetic against
a cached class table. That keeps T_inf in the hundreds and |x|_p <= p^2
well inside desk budgets where the naive candidate set has ~10^9 points.

The leading coordinates are walked as rows: a head (the first d-2
coordinates) with every in-ball value of the (d-1)-th, found by floor
arithmetic. The walk has two stages. Stage 1 touches every (head, x)
prefix with a few int64 operations: it charges the max_candidates budget
row by row, in head order, and a root of the discriminant taken from
above drops most prefixes whose window holds no integer, which in a
narrow window is nearly all of them. Stage 2 buffers the rest and runs
the exact window, the ball clip and the class tables on them in batches.
Both stages work on a bounded number of elements at a time, so memory
stays flat as T grows, and the budget fails at the same row whatever the
batching.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congruence import CongruenceContext
from .errors import ConfigError, DimensionMismatch, RegionTooLarge
from .qspace import QuadraticFormS
from .sarith import (
    INF, SConfig, TVector, crt, frac_mod, s_free_part, valuation,
)
from .volume import check_family_range, leading_constant

DEFAULT_MAX_CANDIDATES = 5_000_000
MAX_VALUE_MODULUS = 4096
# (head, x) prefixes per stage-1 pass of the fiber counter, and candidates
# per stage-2 batch. On the benchmark's count workload (count_d4, sweep_d3),
# 2^12 runs about 10% slower than 2^13 and has 0.9 MB less peak RSS, and
# 2^14 runs 10-20% faster with 1.7 MB more: stage 2 keeps nearly every
# candidate through the exact test, so a batch holds some 20 live arrays.
_CHUNK_ELEMENTS = 1 << 13


# --- shrinking families ---------------------------------------------------------

@dataclass(frozen=True)
class FinitePart:
    """Target data at one finite place: a_p + p^(c + kappa t_p) Z_p."""

    a: Fraction
    c: int
    kappa: int


@dataclass(frozen=True)
class ShrinkingFamily:
    """T-indexed decreasing target family.

    Real component (a - c T^-kappa / 2, a + c T^-kappa / 2); finite
    components a_p + p^(c_p + kappa_p t_p) Z_p. Places absent from
    `finite` default to the unit target Z_p.
    """

    d: int
    c_inf: Fraction | float
    kappa_inf: float
    a_inf: Fraction | float
    finite: dict

    def real_interval(self, t_inf):
        if self.kappa_inf == 0 and not (
            isinstance(self.c_inf, float) or isinstance(self.a_inf, float)
        ):
            half = Fraction(self.c_inf, 2)
            return (Fraction(self.a_inf) - half, Fraction(self.a_inf) + half)
        half = 0.5 * float(self.c_inf) * float(t_inf) ** (-self.kappa_inf)
        return (float(self.a_inf) - half, float(self.a_inf) + half)

    def finite_target(self, p: int, t_p: int):
        part = self.finite.get(p)
        if part is None:
            return Fraction(0), 0
        return part.a, part.c + part.kappa * t_p


def shrinking_family(
    d: int, c_inf, kappa_inf: float = 0.0, a_inf=0, finite: dict | None = None
) -> ShrinkingFamily:
    if not float(c_inf) > 0:
        raise ConfigError("interval scale c_inf must be positive")
    parts = {}
    for p, part in (finite or {}).items():
        if not isinstance(part, FinitePart):
            a, c, kappa = part
            part = FinitePart(Fraction(a), int(c), int(kappa))
        parts[int(p)] = part
    fam = ShrinkingFamily(d, c_inf, float(kappa_inf), a_inf, parts)
    check_family_range(d, fam)
    return fam


@dataclass(frozen=True)
class SInterval:
    """Concrete target at one scale: open real interval x per-place balls."""

    real: tuple
    finite: dict  # p -> (center a_p, exponent e_p)

    def real_length(self):
        return self.real[1] - self.real[0]

    def volume(self) -> float:
        v = float(self.real_length())
        for p, (_, e) in self.finite.items():
            v *= float(p) ** (-e)
        return v


def interval_at(family: ShrinkingFamily, t: TVector) -> SInterval:
    finite = {
        p: family.finite_target(p, tp) for p, tp in t.t_p.items()
    }
    return SInterval(family.real_interval(t.t_inf), finite)


# --- the integer fiber counter --------------------------------------------------

def _root_from_above(x):
    """s with isqrt(x) <= s <= isqrt(x) + 1, for int64 arrays 0 <= x < 2^62.

    There the float root is within 2^-21 of sqrt(x), so lifting it by 2^-18
    before truncating never lands below isqrt(x), and lands on isqrt(x) + 1
    only for x just below a perfect square.
    """
    return (np.sqrt(x.astype(np.float64)) + 2.0**-18).astype(np.int64)


def _visqrt(x):
    """Vectorized floor(sqrt(x)) for int64 arrays 0 <= x < 2^62, exact."""
    s = _root_from_above(x)
    return s - (s * s > x)


def _strict_floor(x: Fraction) -> int:
    """Largest integer strictly below x."""
    return (x.numerator - 1) // x.denominator


def _strict_ceil(x: Fraction) -> int:
    """Smallest integer strictly above x."""
    return x.numerator // x.denominator + 1


@dataclass(frozen=True)
class _Instance:
    """One integer counting problem: points n in Z^d, n = rho mod L
    coordinatewise, |n|^2 < ball2, with W(n) = n G n (integer Gram) in
    [w_lo, w_hi] and n G_mix n = c_val mod m_val.

    G carries the real window; G_mix is the CRT mix of the finite-place
    Grams, so per-place value targets survive forms whose real Gram is
    perturbed away from the finite ones.
    """

    gram: tuple
    gram_mix: tuple
    rho: tuple
    l_mod: int
    ball2: Fraction
    w_lo: int
    w_hi: int
    m_val: int
    c_val: int
    empty: bool = False


def _value_congruences(q_form: QuadraticFormS, r_hat: int, interval: SInterval):
    """Per-prime conditions v_p(n G_p n - rhat^2 a_p) >= e_p + 2 t_p as one
    CRT system n G_mix n = c_val mod m_val.

    Returns (m_val, c_val, gram_mix) or None when some place admits no
    integer values at all.
    """
    d = q_form.dim
    m_val, c_val = 1, 0
    gram_mix = [[0] * d for _ in range(d)]
    for p, (a_p, e_p) in interval.finite.items():
        gram = q_form.gram_at(p)
        d_p = math.lcm(*[Fraction(x).denominator for row in gram for x in row])
        target = Fraction(d_p) * r_hat * r_hat * a_p
        exp = e_p + valuation(Fraction(d_p) * r_hat * r_hat, p)
        if target != 0 and valuation(target, p) < 0:
            if valuation(target, p) >= exp:
                continue  # non-integral center, harmless at this depth
            return None
        if exp <= 0:
            continue
        # glue D_p G_p and the target mod p^exp onto the moduli so far
        pe = p**exp
        c_val = crt(c_val, m_val, frac_mod(target, pe), pe)
        for i in range(d):
            for j in range(d):
                g = int(Fraction(gram[i][j]) * d_p) % pe
                gram_mix[i][j] = crt(gram_mix[i][j], m_val, g, pe)
        m_val *= pe
    return m_val, c_val, tuple(tuple(row) for row in gram_mix)


def _build_instance(
    q_form: QuadraticFormS, xi_scaled, l_mod: int, r_hat: int,
    t_inf, interval: SInterval,
) -> _Instance:
    """Common construction: points x = n / r_hat with n = xi_scaled mod l_mod."""
    d = q_form.dim
    gram = q_form.gram_at(INF)
    dens = [Fraction(x).denominator for row in gram for x in row]
    d_scale = math.lcm(*dens)
    gi = [[int(Fraction(x) * d_scale) for x in row] for row in gram]
    rho = tuple(frac_mod(x, l_mod) for x in xi_scaled)
    ball2 = (Fraction(t_inf) * r_hat) ** 2
    scale = Fraction(d_scale) * r_hat * r_hat
    w_lo = _strict_ceil(scale * Fraction(interval.real[0]))
    w_hi = _strict_floor(scale * Fraction(interval.real[1]))
    vc = _value_congruences(q_form, r_hat, interval)
    if vc is None or w_lo > w_hi:
        return _Instance((), (), rho, l_mod, ball2, 0, -1, 1, 0, empty=True)
    m_val, c_val, gram_mix = vc
    if m_val > MAX_VALUE_MODULUS or math.lcm(l_mod, m_val) > MAX_VALUE_MODULUS:
        raise RegionTooLarge(
            f"p-adic value modulus {m_val} (x lattice modulus {l_mod}) "
            f"exceeds the fiber counter's limit of {MAX_VALUE_MODULUS}"
        )
    # bring a nonzero diagonal entry to the last slot when one exists
    perm = list(range(d))
    if gi[d - 1][d - 1] == 0:
        for i in range(d):
            if gi[i][i] != 0:
                perm[i], perm[d - 1] = perm[d - 1], perm[i]
                break
    gp = tuple(tuple(gi[perm[i]][perm[j]] for j in range(d)) for i in range(d))
    gm = tuple(
        tuple(gram_mix[perm[i]][perm[j]] for j in range(d)) for i in range(d)
    )
    rho = tuple(rho[i] for i in perm)
    return _Instance(gp, gm, rho, l_mod, ball2, w_lo, w_hi, m_val, c_val)


class _ClassTables:
    """Per-period prefix sums of the admissible last-coordinate classes.

    A class table depends on (b, c) mod m_val of the congruence quadratic;
    its prefix sums make counting an interval of integers O(1) per row:
    #ok in [lo, hi] = C(hi) - C(lo - 1) with
    C(x) = K (floor(x / m) - 1) + cum[x mod m].
    """

    def __init__(self, inst: _Instance, m_big: int):
        self.m_val = inst.m_val
        self.c_val = inst.c_val
        self.m_big = m_big
        self.r = np.arange(m_big, dtype=np.int64)
        self.lattice_ok = self.r % inst.l_mod == inst.rho[-1]
        self.a_mod = inst.gram_mix[-1][-1] % inst.m_val if inst.gram_mix else 0
        self.index: dict = {}
        self.cums: list = []
        self.totals: list = []
        self._cum_arr = None
        self._tot_arr = None

    def _table_id(self, key: int) -> int:
        got = self.index.get(key)
        if got is not None:
            return got
        b_mod, c_mod = divmod(key, self.m_val)
        vals = (self.a_mod * self.r * self.r + b_mod * self.r + c_mod) % self.m_val
        ok = self.lattice_ok & (vals == self.c_val)
        gid = len(self.cums)
        self.index[key] = gid
        self.cums.append(np.cumsum(ok))
        self.totals.append(int(self.cums[-1][-1]))
        self._cum_arr = None
        return gid

    def ids_for(self, b_mod, c_mod):
        keys = b_mod * self.m_val + c_mod
        uniq, inv = np.unique(keys, return_inverse=True)
        gids = np.array([self._table_id(int(k)) for k in uniq], dtype=np.int64)
        if self._cum_arr is None:
            self._cum_arr = np.asarray(self.cums)
            self._tot_arr = np.asarray(self.totals, dtype=np.int64)
        return gids[inv]

    def count(self, ids, lo, hi) -> int:
        """Sum over pieces k and rows i of #{n in [lo[k, i], hi[k, i]] :
        class ids[i] ok}; an empty piece counts 0."""
        m = self.m_big
        ks = self._tot_arr[ids]
        lo1 = lo - 1
        c_hi = ks * (hi // m - 1) + self._cum_arr[ids, hi % m]
        c_lo = ks * (lo1 // m - 1) + self._cum_arr[ids, lo1 % m]
        return int(np.sum(np.where(hi >= lo, c_hi - c_lo, 0)))


def _disc_gap(a: int, w_lo: int, w_hi: int) -> int:
    """disc_hi - disc_lo for the window [w_lo, w_hi] of a n^2 + b n + c,
    capped at 2^62: the guard keeps |disc_hi| below 2^62, so the capped gap
    leaves disc_lo negative wherever the true one is, and in int64."""
    return min(4 * a * (w_hi - w_lo + 1), 1 << 62)


def _head_coeffs(h, gram):
    """(b_h, c_hx, c_h) of the rows h of j heads under the d x d Gram: in
    W = a n_d^2 + (b_h + b_x x) n_d + c_h + c_hx x + c_xx x^2, the parts
    that depend on the head, x = n_{d-1}."""
    j = h.shape[1]
    return (2 * (h @ gram[-1, :j]), 2 * (h @ gram[j, :j]),
            np.einsum("ri,ik,rk->r", h, gram[:j, :j], h))


def _disc_coeffs(a: int, w_hi: int, b_x: int, c_xx: int, head):
    """(A, B, C) with disc_hi = b^2 - 4 a (c - w_hi) = (A x + B) x + C on
    the rows with head coefficients head = (b_h, c_hx, c_h) (_head_coeffs):
    one quadratic in x per row.

    In int64 the quadratic is exact wherever _count_instance's guard holds:
    there |b_h| + |b_x x| <= max_b and |c_h| + |c_hx x| + |c_xx x^2| <=
    max_c, so each of A x^2, B x and C, and each partial sum of them, is at
    most max_disc < 2^62.
    """
    b_h, c_hx, c_h = head
    return (b_x * b_x - 4 * a * c_xx, 2 * b_x * b_h - 4 * a * c_hx,
            b_h * b_h - 4 * a * (c_h - w_hi))


def _row_disc(coeffs, x, lens):
    """disc_hi of consecutive prefixes x, lens[r] of them on row r, from
    the rows' (A, B, C) (_disc_coeffs)."""
    big_a, big_b, big_c = coeffs
    return (big_a * x + np.repeat(big_b, lens)) * x + np.repeat(big_c, lens)


def _may_hold_square(disc_hi, gap: int):
    """Indices of the prefixes whose (disc_hi - gap, disc_hi] may hold a
    square: every one that does (_window_pieces' exact test), and a few
    just below a perfect square, where the root from above overshoots."""
    s_o = _root_from_above(np.maximum(disc_hi, 0))
    return np.flatnonzero((disc_hi >= 0) & (s_o * s_o > disc_hi - gap))


def _window_pieces(a: int, b, c, w_lo: int, w_hi: int, unbounded: int):
    """(keep, lo, hi): the prefixes, given by their coefficients b and c,
    whose window {n : w_lo <= a n^2 + b n + c <= w_hi} holds an integer, and
    on each kept prefix that window as two pieces [lo[k], hi[k]], k = 0, 1,
    of shape (2, len(keep)); an empty piece has lo > hi.

    a >= 0. For a > 0, n is in the window iff u = 2 a n + b has
    sqrt(disc_lo) < |u| <= sqrt(disc_hi): a piece on either side of the
    vertex, or one piece when disc_lo < 0. An integer u needs a square in
    (disc_lo, disc_hi], which one exact square root per prefix tests, so
    the pieces are solved only on the prefixes that pass. For a == 0 the
    window is linear in n and is one piece; a prefix with b == 0 and c in
    the window holds every n, and [-unbounded, unbounded] stands for it.
    """
    if a == 0:
        keep = np.arange(len(b))
        nz = b != 0
        lin_lo = np.where(b > 0, w_lo - c, w_hi - c)
        lin_hi = np.where(b > 0, w_hi - c, w_lo - c)
        b_safe = np.where(nz, b, 1)
        const_ok = (c >= w_lo) & (c <= w_hi)
        lo1 = np.where(nz, -((-lin_lo) // b_safe),
                       np.where(const_ok, -unbounded, 1))
        hi1 = np.where(nz, lin_hi // b_safe, np.where(const_ok, unbounded, 0))
        lo = np.stack([lo1, np.ones_like(lo1)])
        hi = np.stack([hi1, np.zeros_like(hi1)])
    else:
        disc_hi = b * b - 4 * a * (c - w_hi)
        s_o = _visqrt(np.maximum(disc_hi, 0))
        disc_lo = disc_hi - _disc_gap(a, w_lo, w_hi)
        keep = np.flatnonzero((disc_hi >= 0) & (s_o * s_o > disc_lo))
        b, s_o, disc_lo = b[keep], s_o[keep], disc_lo[keep]
        cut = disc_lo >= 0
        s_e = _visqrt(np.maximum(disc_lo, 0))
        o_lo = -((b + s_o) // (2 * a))
        o_hi = (-b + s_o) // (2 * a)
        e_lo = -((b + s_e) // (2 * a))
        e_hi = (-b + s_e) // (2 * a)
        lo = np.stack([o_lo, np.where(cut, np.maximum(e_hi + 1, o_lo), 1)])
        hi = np.stack([np.where(cut, np.minimum(e_lo - 1, o_hi), o_hi),
                       np.where(cut, o_hi, 0)])
    some = (lo <= hi).any(axis=0)
    return keep[some], lo[:, some], hi[:, some]


class FiberCount(int):
    """An exact count that also carries its budget use: charged is the
    number of (head, x) prefixes it charged to max_candidates."""

    def __new__(cls, n: int, charged: int):
        self = super().__new__(cls, n)
        self.charged = charged
        return self


def _count_instance(inst: _Instance, max_candidates: int) -> FiberCount:
    """Exact point count of one instance, batched over head rows.

    A row is a fixed head (the first d-2 coordinates) together with the
    progression x0 + l k of the (d-1)-th coordinate x inside the ball; each
    (head, x) prefix leaves the last coordinate n_d, on which the form is a
    quadratic (or linear) a n_d^2 + b n_d + c. Heads come in
    itertools.product order, in blocks of _CHUNK_ELEMENTS / 16 heads whose
    per-row data (the x range, the head's share of b and c) is computed
    once; a block's rows are then walked in chunks of about _CHUNK_ELEMENTS
    prefixes, and a prefix is counted in two stages:

    1. every prefix, a few int64 operations. Each row's k range follows
       from the ball by floor arithmetic and is charged to the budget, in
       row order, before anything in the block is counted, so
       RegionTooLarge reports the running prefix total at the first row
       that crosses max_candidates. For a > 0, disc_hi = b^2 - 4 a (c -
       w_hi) is one quadratic in x per row (_disc_coeffs, _row_disc), and
       its root from above s (_root_from_above: isqrt(disc_hi) <= s <=
       isqrt(disc_hi) + 1) keeps the prefix when s^2 > disc_lo
       (_may_hold_square). That keeps every prefix that _window_pieces'
       exact test keeps, plus a few next to perfect squares. For a == 0
       every prefix goes on.
    2. the candidates, buffered across the block's chunks and flushed when
       the buffer reaches _CHUNK_ELEMENTS and at the block's end: the exact
       window pieces (_window_pieces), clipped to the ball, and the
       congruence class tables count the admissible n_d on both pieces in
       one lookup.

    The count carries the prefixes charged to the budget (FiberCount).
    """
    if inst.empty:
        return FiberCount(0, 0)
    d = len(inst.gram)
    g = inst.gram
    big_n = _strict_floor(inst.ball2)
    if big_n < 0:
        return FiberCount(0, 0)
    if big_n > (1 << 50):
        raise RegionTooLarge(
            f"squared scaled real radius {big_n} exceeds the fiber counter's "
            "limit of 2^50"
        )
    n_max = math.isqrt(big_n)
    a_last = g[d - 1][d - 1]
    sign = -1 if a_last < 0 else 1
    w_lo, w_hi = (inst.w_lo, inst.w_hi) if sign == 1 else (-inst.w_hi, -inst.w_lo)
    a = sign * a_last
    abs_g = [[abs(v) for v in row] for row in g]

    def max_disc(n, w):
        # bound on |b^2 - 4 a (c - w_hi)| over prefixes with coordinates <= n
        max_b = 2 * n * sum(abs_g[d - 1])
        max_c = n * n * sum(map(sum, abs_g))
        return max_b * max_b + 4 * max(a, 1) * (max_c + w)

    w = max(abs(w_lo), abs(w_hi), 1)
    if max_disc(n_max, w) >= 1 << 62:
        if max_disc(1, 1) >= 1 << 62:
            raise ConfigError(
                "the form's integer Gram is too large for the 64-bit fiber "
                "counter at every T; rescale the form"
            )
        # max_disc grows with n; lo ends at the largest n it admits, or -1
        lo, hi = -1, n_max
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if max_disc(mid, w) < 1 << 62 else (lo, mid)
        admit = f"at most {lo}" if lo >= 0 else "none"
        raise RegionTooLarge(
            "fiber counter coefficients exceed the 64-bit range: the real "
            f"ball reaches scaled coordinate {n_max} (times r, the points' "
            f"common denominator), and this form and target admit {admit}"
        )
    tables = _ClassTables(inst, math.lcm(inst.l_mod, inst.m_val))
    m_val, step, j = inst.m_val, inst.l_mod, d - 2
    # coordinate i runs over rho_i + step Z inside [-n_max, n_max]
    axes = [range(-n_max + (r + n_max) % step, n_max + 1, step)
            for r in inst.rho[:d - 1]]
    heads = itertools.product(*axes[:j])
    x0 = axes[j].start
    # W(n) = a n_d^2 + b n_d + c with, for head h and x = n_{d-1},
    # b = b_h + b_x x and c = c_h + c_hx x + c_xx x^2; the congruence Gram
    # gives the same shape mod m_val, computed on h and x reduced mod m_val
    # so that its products stay small whatever the real Gram's guard allows
    g_arr = sign * np.array(g, dtype=np.int64)
    gm_arr = np.array(inst.gram_mix, dtype=np.int64) % m_val
    b_x, c_xx = 2 * int(g_arr[d - 1, j]), int(g_arr[j, j])
    bm_x, cm_xx = 2 * int(gm_arr[d - 1, j]), int(gm_arr[j, j])
    gap = _disc_gap(a, w_lo, w_hi)
    # the candidates of the current head block, as their rows (columns of
    # the block's coef) and their x, until stage 2 counts them
    buf_row, buf_x = [], []

    def stage_2(coef):
        row, x = np.concatenate(buf_row), np.concatenate(buf_x)
        buf_row.clear()
        buf_x.clear()
        b_h, c_hx, c_h = coef[:3, row]
        keep, lo, hi = _window_pieces(a, b_h + b_x * x,
                                      c_h + (c_hx + c_xx * x) * x,
                                      w_lo, w_hi, n_max)
        if len(keep) == 0:
            return 0
        (s_head, bm_h, cm_hx, cm_h), x = coef[3:, row[keep]], x[keep]
        sb = _visqrt(big_n - s_head - x * x)
        lo, hi = np.maximum(lo, -sb), np.minimum(hi, sb)
        xm = x % m_val
        b_mix = (bm_h + bm_x * xm) % m_val
        c_mix = (cm_h + (cm_hx + cm_xx * xm) * xm) % m_val
        return tables.count(tables.ids_for(b_mix, c_mix), lo, hi)

    # a head block's 16 or so per-row arrays then hold about as many values
    # as one of a chunk's per-prefix arrays
    per_block = max(1, _CHUNK_ELEMENTS // 16)
    total = seen = buffered = 0
    while block := list(itertools.islice(heads, per_block)):
        h = np.array(block, dtype=np.int64).reshape(len(block), j)
        s_head = np.einsum("ri,ri->r", h, h)
        inside = s_head <= big_n
        h, s_head = h[inside], s_head[inside]
        lim = _visqrt(big_n - s_head)
        # the row's x = x0 + step k with |x| <= lim: k_lo <= k <= k_hi
        k_lo = -((lim + x0) // step)
        lens = np.maximum((lim - x0) // step - k_lo + 1, 0)
        ends = np.cumsum(lens)
        if len(ends) == 0 or ends[-1] == 0:
            continue
        if seen + ends[-1] > max_candidates:
            over = np.searchsorted(ends, max_candidates - seen, side="right")
            raise RegionTooLarge(
                "fiber counter budget exceeded "
                f"({seen + int(ends[over])} prefixes, more than "
                f"max_candidates={max_candidates}); raise max_candidates"
            )
        head = _head_coeffs(h, g_arr)
        coef = np.stack([*head, s_head, *_head_coeffs(h % m_val, gm_arr)])
        big_a, big_b, big_c = _disc_coeffs(a, w_hi, b_x, c_xx, head)
        starts = ends - lens
        # the block's i-th prefix, in row r, has k = k_lo[r] + i - starts[r]
        x_row = x0 + step * (k_lo - starts)
        r0 = 0
        while r0 < len(lens):
            # a chunk: the rows from r0 on that end within _CHUNK_ELEMENTS
            # prefixes of its start, and at least one row
            i0 = int(starts[r0])
            r1 = max(r0 + 1, int(np.searchsorted(ends, i0 + _CHUNK_ELEMENTS,
                                                 side="right")))
            n, n_rows = int(ends[r1 - 1]) - i0, lens[r0:r1]
            x = np.repeat(x_row[r0:r1], n_rows) + step * np.arange(i0, i0 + n)
            if a:
                cand = _may_hold_square(
                    _row_disc((big_a, big_b[r0:r1], big_c[r0:r1]), x, n_rows),
                    gap)
                x = x[cand]
            else:
                cand = np.arange(n)
            r0 = r1
            if buffered and buffered + len(x) > _CHUNK_ELEMENTS:
                total += stage_2(coef)
                buffered = 0
            buf_row.append(np.searchsorted(ends, i0 + cand, side="right"))
            buf_x.append(x)
            buffered += len(x)
        if buffered:
            total += stage_2(coef)
            buffered = 0
        seen += int(ends[-1])
    return FiberCount(total, seen)


# --- raw counters ----------------------------------------------------------------

def _depth_scale(ctx: SConfig, t: TVector) -> int:
    r = 1
    for p, tp in t.t_p.items():
        if tp < 0:
            raise ConfigError("fiber counting needs t_p >= 0")
        r *= p**tp
    return r


def congruence_count(
    cctx: CongruenceContext, q_form: QuadraticFormS, interval: SInterval,
    t: TVector, max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> FiberCount:
    """#{k in q Z_S^d + w : Q(k) in interval, k in B_T}, exactly."""
    if q_form.dim != cctx.d:
        raise DimensionMismatch("form dimension mismatch")
    r = _depth_scale(cctx.ctx, t)
    # n = r k runs over n = r w mod q
    inst = _build_instance(
        q_form, tuple(r * Fraction(w) for w in cctx.w), cctx.q, r,
        t.t_inf, interval,
    )
    return _count_instance(inst, max_candidates)


def inhom_count(
    q_form: QuadraticFormS, xi, interval: SInterval, t: TVector,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> FiberCount:
    """#{x in Z_S^d + xi : Q(x) in interval, x in B_T}, exactly."""
    xi = tuple(Fraction(x) for x in xi)
    if len(xi) != q_form.dim:
        raise DimensionMismatch("shift dimension mismatch")
    r = _depth_scale(q_form.ctx, t)
    # l_mod is the prime-to-S part of the denominators of xi; S-place poles
    # of xi need no special casing because Z_S shifts can absorb them
    l_mod = math.lcm(*(s_free_part(x.denominator, q_form.ctx) for x in xi))
    r_hat = r * l_mod
    scaled = tuple(Fraction(r_hat) * x for x in xi)
    inst = _build_instance(q_form, scaled, l_mod, r_hat, t.t_inf, interval)
    return _count_instance(inst, max_candidates)


# --- public counters with predictions --------------------------------------------

@dataclass(frozen=True)
class CountResult:
    n: int
    charged: int
    prediction: float
    ratio: float
    t: TVector
    vol_interval: float
    wall_ms: float


def _result(n: FiberCount, q_form: QuadraticFormS, family: ShrinkingFamily,
            interval: SInterval, t: TVector, q_power: int,
            start: float) -> CountResult:
    """n with the prediction c_Q vol(I) |T|^(d-2) / q_power, c_Q at t_p."""
    c_q, _ = leading_constant(q_form, family, t_p=t.t_p)
    pred = c_q * interval.volume() * t.size() ** (q_form.dim - 2) / q_power
    ratio = n / pred if pred > 0 else math.nan
    wall = (time.perf_counter() - start) * 1000.0
    return CountResult(int(n), n.charged, pred, ratio, t, interval.volume(),
                       wall)


def count_congruence(
    cctx: CongruenceContext, q_form: QuadraticFormS, family: ShrinkingFamily,
    t: TVector, max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CountResult:
    """Exact N(q, w; Q, I_T, T) with the c_Q (1/q^d) vol(I) |T|^(d-2)
    prediction."""
    start = time.perf_counter()
    interval = interval_at(family, t)
    n = congruence_count(cctx, q_form, interval, t, max_candidates)
    return _result(n, q_form, family, interval, t, cctx.q**q_form.dim, start)


def count_inhom(
    q_form: QuadraticFormS, xi, family: ShrinkingFamily, t: TVector,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CountResult:
    """Exact N(Q_xi, I_T, T) with the c_Q vol(I) |T|^(d-2) prediction."""
    start = time.perf_counter()
    interval = interval_at(family, t)
    n = inhom_count(q_form, xi, interval, t, max_candidates)
    return _result(n, q_form, family, interval, t, 1, start)


# --- sweeps -----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepResult:
    results: tuple
    delta_hat: float | None


def sweep(
    q_form: QuadraticFormS, target, family: ShrinkingFamily, ladder,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> SweepResult:
    """Counts along a T ladder with predictions and a fitted residual
    exponent delta_hat from |N - prediction| ~ |T|^(d - 2 - kappa - delta).

    target: a CongruenceContext for congruence counts, or a shift vector
    for inhomogeneous counts. Each rung's prediction is the one its own
    count makes, with c_Q at that rung's t_p. The ladder increases
    componentwise, and a rung equal to the one before it is rejected: it
    would feed the delta_hat fit the same count twice. An empty ladder
    gives no results and no delta_hat.
    """
    check_family_range(q_form.dim, family)
    ladder = list(ladder)
    for k, (prev, nxt) in enumerate(zip(ladder, ladder[1:]), start=2):
        if nxt == prev:
            exps = ",".join(f"{p}={e}" for p, e in nxt.t_p.items())
            rung = f"{nxt.t_inf}@{exps}" if exps else f"{nxt.t_inf}"
            raise ConfigError(f"ladder rung {k} ({rung}) repeats the rung "
                              "before it")
        if not nxt.dominates(prev):
            raise ConfigError("ladder must be increasing componentwise")
    results = [
        count_congruence(target, q_form, family, t, max_candidates)
        if isinstance(target, CongruenceContext)
        else count_inhom(q_form, target, family, t, max_candidates)
        for t in ladder
    ]
    return SweepResult(tuple(results), _fit_delta(q_form.dim, family, results))


def _fit_delta(d: int, family: ShrinkingFamily, results) -> float | None:
    if len(results) < 2:
        return None
    xs = [math.log(r.t.size()) for r in results]
    ys = [math.log(max(abs(r.n - r.prediction), 0.5)) for r in results]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    if den == 0:
        return None
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
    return (d - 2 - family.kappa_inf) - slope
