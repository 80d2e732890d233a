"""Congruence-level combinatorics for shifted S-lattices.

The level data (d, q, w) of a congruence space, and uniform sampling and
exact lifting of SL_d(Z/q), which the congruence-space sampler composes
into a random level-q coset.  Also the orbit decomposition of Z_S^d + w/q:
completion of primitive vectors to unimodular matrices over Z_S, the
coordinate change sending the shift to the last axis, the orbit invariant
t = gcd(q k) and a standard representative for each value of t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from .errors import (
    ConfigError,
    DimensionMismatch,
    InvariantViolation,
    NonSUnitDenominator,
    NotInSLq,
    NotPrimitive,
    SearchBudgetExceeded,
    ShiftMismatch,
)
from .sarith import (
    SConfig,
    SVector,
    crt,
    gcd_S,
    is_in_NS,
    prime_factors,
    s_free_part,
    svector,
    vector_content_NS,
)


@dataclass(frozen=True)
class CongruenceContext:
    """Level data: dimension d, level q in N_S, shift w in Z_S^d.

    The shift is coprime to the level: gcd_S(q, w) = 1.
    """

    d: int
    q: int
    w: tuple[Fraction, ...]
    ctx: SConfig


def congruence_context(d: int, q: int, w, ctx: SConfig) -> CongruenceContext:
    if d < 2:
        raise ConfigError("need dimension d >= 2")
    if not isinstance(q, int) or q <= 1:
        raise ConfigError("level q must be an integer > 1")
    if not is_in_NS(q, ctx):
        raise ConfigError(f"level q={q} must be coprime to the finite places")
    coords = tuple(Fraction(x) for x in w)
    if len(coords) != d:
        raise DimensionMismatch("shift vector length != d")
    if gcd_S(q, coords, ctx) != 1:
        raise ConfigError("gcd_S(q, w) must be 1")
    return CongruenceContext(d, q, coords, ctx)


# --- uniform sampling over SL_d(Z/q) ------------------------------------------

def _unit_coefficients(col: list[int], q: int) -> list[int]:
    """Coefficients c_1..c_{n-1} with col[0] + sum c_i col[i] a unit mod q.

    The column is primitive mod q: for each prime p | q some entry is a
    p-unit, so one index per prime fixes the pivot, glued by CRT.
    """
    n = len(col)
    picks = {}
    primes = prime_factors(q)
    for p in primes:
        if col[0] % p != 0:
            continue
        for i in range(1, n):
            if col[i] % p != 0:
                picks.setdefault(i, []).append(p)
                break
        else:
            raise NotInSLq("column is not primitive mod q")
    coeffs = [0] * n
    for i, marked in picks.items():
        r, m = 0, 1
        for p in primes:
            r = crt(r, m, 1 if p in marked else 0, p)
            m *= p
        coeffs[i] = r
    return coeffs[1:]


def _complete_first_row_mod_q(v, q: int):
    """Some g in SL_d(Z/q) whose first row is the primitive row v.

    A column operation E (adding multiples of later coordinates into the
    first) turns v into a row with unit pivot u; that row completes to the
    triangular g' = [[u, v_1, ...], [0, u^{-1}, 0, ...], e_3, ...]; then
    g = g' E^{-1} has first row v E E^{-1} = v and determinant 1.
    """
    d = len(v)
    c = _unit_coefficients(list(v), q)
    u = (v[0] + sum(ci * vi for ci, vi in zip(c, v[1:]))) % q
    gp = [[0] * d for _ in range(d)]
    gp[0] = [u] + [x % q for x in v[1:]]
    gp[1][1] = pow(u, -1, q)
    for i in range(2, d):
        gp[i][i] = 1
    einv = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for j, cj in enumerate(c, start=1):
        einv[j][0] = (-cj) % q
    return tuple(
        tuple(
            sum(gp[i][k] * einv[k][j] for k in range(d)) % q for j in range(d)
        )
        for i in range(d)
    )


def sample_slq_uniform(d: int, q: int, rng):
    """Uniform element of SL_d(Z/q).

    First row uniform over primitive rows, then a uniform element of the
    stabilizer of e_1 (free column times SL_{d-1}), recursively.
    """
    if q < 2:
        raise ConfigError("need q >= 2")
    if d == 1:
        return ((1 % q,),)
    while True:
        v = tuple(rng.randrange(q) for _ in range(d))
        if math.gcd(*v, q) == 1:
            break
    g_v = _complete_first_row_mod_q(v, q)
    h = [[0] * d for _ in range(d)]
    h[0][0] = 1
    sub = sample_slq_uniform(d - 1, q, rng)
    for i in range(1, d):
        h[i][0] = rng.randrange(q)
        for j in range(1, d):
            h[i][j] = sub[i - 1][j - 1]
    return tuple(
        tuple(sum(h[i][k] * g_v[k][j] for k in range(d)) % q for j in range(d))
        for i in range(d)
    )


# --- exact lifting to SL_d(Z) -------------------------------------------------

def _det_mod_q(m, q: int) -> int:
    rows = tuple(tuple(Fraction(x) for x in row) for row in m)
    return int(la.det(rows)) % q


def lift_slq_to_slz(m, q: int):
    """Lift of SL_d(Z/q) to SL_d(Z): factor into elementary matrices over
    Z/q by two-sided row reduction, lift each factor by its centered
    integer representative, multiply exactly."""
    d = len(m)
    a = [[int(x) % q for x in row] for row in m]
    if _det_mod_q(a, q) != 1 % q:
        raise NotInSLq("determinant is not 1 mod q")
    left, right = [], []

    def rowop(i, j, c):
        c %= q
        if c:
            a[i] = [(x + c * y) % q for x, y in zip(a[i], a[j])]
            left.append((i, j, c))

    def colop(i, j, c):
        c %= q
        if c:
            for row in a:
                row[i] = (row[i] + c * row[j]) % q
            right.append((i, j, c))

    for k in range(d):
        col = [a[i][k] for i in range(k, d)]
        for off, c in enumerate(_unit_coefficients(col, q), start=1):
            if c:
                rowop(k, k + off, c)
        uinv = pow(a[k][k], -1, q)
        for i in range(k + 1, d):
            rowop(i, k, -a[i][k] * uinv)
        for j in range(k + 1, d):
            colop(j, k, -a[k][j] * uinv)
    # diagonal of units with product 1: sweep each unit into the next slot
    for k in range(d - 1):
        u, v = a[k][k], a[k + 1][k + 1]
        if u == 1:
            continue
        colop(k, k + 1, pow(v, -1, q) * (1 - u))
        rowop(k, k + 1, 1)
        rowop(k + 1, k, -(1 - u))
        colop(k + 1, k, -v)
    assert all(a[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d))

    def centered(c):
        c = (-c) % q
        return c - q if c > q // 2 else c

    out = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def mul_right_elem(i, j, c, kind):
        # row factor inverse E_{ij}(-c): identity with -c at (i,j);
        # column factor inverse: identity with -c at (j,i)
        r, s = (i, j) if kind == "L" else (j, i)
        for row in out:
            row[s] += row[r] * c

    for i, j, c in left:
        mul_right_elem(i, j, centered(c), "L")
    for i, j, c in reversed(right):
        mul_right_elem(i, j, centered(c), "R")
    lifted = tuple(tuple(row) for row in out)
    if la.det(la.as_matrix(lifted)) != 1:
        raise InvariantViolation("lift lost determinant 1")
    if any(
        (lifted[i][j] - int(m[i][j])) % q for i in range(d) for j in range(d)
    ):
        raise InvariantViolation("lift is not congruent to the input")
    return lifted


# --- primitive completion -----------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


def _complete_pair(a: int, b: int):
    """Rows ((a, b), (x, y)) with a y - b x = 1, second row reduced so that
    0 <= x < |a| when a is nonzero."""
    g, s, t = _xgcd(a, b)
    if abs(g) != 1:
        raise NotPrimitive(f"gcd({a}, {b}) = {abs(g)}")
    # a(sg) + b(tg) = g^2 = 1, so (x, y) = (-tg, sg) gives a y - b x = 1
    x, y = -t * g, s * g
    if a != 0:
        xn = x % abs(a)
        k = (xn - x) // a  # (x, y) += k (a, b) keeps the determinant
        x, y = xn, y + k * b
    return [[a, b], [x, y]]


def _complete_integer_primitive(v: tuple[int, ...]):
    """Integer matrix with determinant 1 whose first row is primitive v."""
    d = len(v)
    if d == 1:
        if v[0] != 1:
            raise NotPrimitive("1-dimensional completion needs v = (1)")
        return [[1]]
    if d == 2:
        return _complete_pair(v[0], v[1])
    rest = v[1:]
    g = math.gcd(*rest)
    if g == 0:
        # v = (+-1, 0, ..., 0)
        rows = [[0] * d for _ in range(d)]
        rows[0][0] = v[0]
        rows[1][1] = v[0]
        for i in range(2, d):
            rows[i][i] = 1
        return rows
    u = tuple(x // g for x in rest)
    sub = _complete_integer_primitive(u)
    gg, s, t = _xgcd(v[0], g)
    assert abs(gg) == 1
    s, t = s * gg, t * gg
    rows = [list(v)]
    rows.append([-t] + [s * x for x in u])
    for i in range(1, d - 1):
        rows.append([0] + list(sub[i]))
    return rows


def _integer_primitive_part(coords, ctx: SConfig):
    """(v0, alpha): primitive integer v0 and alpha in P_S with coords = alpha v0."""
    den = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * den) for c in coords]
    g = math.gcd(*ints)
    if g == 0:
        raise NotPrimitive("zero vector")
    if s_free_part(g, ctx) != 1:
        raise NotPrimitive(f"content {g} is not an S-unit")
    return tuple(x // g for x in ints), Fraction(g, den)


def complete_primitive(v: SVector):
    """Matrix over Z_S with determinant exactly 1 and first row v."""
    if not v.is_s_integral():
        raise NonSUnitDenominator("vector is not S-integral")
    v0, alpha = _integer_primitive_part(v.coords, v.ctx)
    rows = _complete_integer_primitive(v0)
    out = [tuple(alpha * Fraction(x) for x in rows[0])]
    out.append(tuple(Fraction(x) / alpha for x in rows[1]))
    out.extend(tuple(Fraction(x) for x in row) for row in rows[2:])
    result = tuple(out)
    assert la.det(result) == 1
    return result


def gamma_w(cctx: CongruenceContext):
    """Integer unimodular matrix sending the shift direction to the last
    axis: w * gamma^{-1} is a Z_S multiple of e_d."""
    coords = cctx.w
    den = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * den) for c in coords]
    g = math.gcd(*ints)
    if g == 0:
        raise NotPrimitive("zero shift vector")
    w0 = tuple(x // g for x in ints)
    d = cctx.d
    if w0 == tuple(0 if i < d - 1 else 1 for i in range(d)):
        return la.identity(d)
    m = _complete_integer_primitive(w0)
    rows = [list(r) for r in m[1:]] + [list(m[0])]
    if (d - 1) % 2 == 1:
        rows[0] = [-x for x in rows[0]]
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    assert la.det(out) == 1
    return out


# --- orbit invariant and representatives --------------------------------------

def orbit_invariant(cctx: CongruenceContext, k) -> int:
    """The unique t in N_S with q k in t * Prim(Z_S^d), for k in Z_S^d + w/q."""
    coords = k.coords if isinstance(k, SVector) else tuple(Fraction(x) for x in k)
    if len(coords) != cctx.d:
        raise DimensionMismatch("point dimension != d")
    diff = svector(
        tuple(c - w / cctx.q for c, w in zip(coords, cctx.w)), cctx.ctx
    )
    if not diff.is_s_integral():
        raise ShiftMismatch("point is not in Z_S^d + w/q")
    qk = tuple(cctx.q * c for c in coords)
    t = vector_content_NS(qk, cctx.ctx)
    if math.gcd(t, cctx.q) != 1:
        raise InvariantViolation("invariant shares a factor with q")
    return t


def _l1_shells(d: int):
    r = 0
    while True:
        shell = [
            delta
            for delta in itertools.product(range(-r, r + 1), repeat=d)
            if sum(abs(x) for x in delta) == r
        ]
        yield from sorted(shell, reverse=True)
        r += 1


def representative_for_t(
    cctx: CongruenceContext, t: int, max_candidates: int = 100_000
) -> SVector:
    """A point k_t of Z_S^d + w/q with orbit invariant exactly t.

    k_t = t m / (q p_unit) where p_unit w is a q-coprime integer vector and
    m is a primitive integer vector congruent to t* p_unit w mod q
    (t t* = 1 mod q), found by a deterministic gcd sieve.
    """
    if not is_in_NS(t, cctx.ctx) or math.gcd(t, cctx.q) != 1:
        raise ConfigError("t must lie in N_S and be coprime to q")
    q = cctx.q
    den = math.lcm(*(c.denominator for c in cctx.w))
    ints = [int(c * den) for c in cctx.w]
    g = math.gcd(*ints)
    g_s = g // s_free_part(g, cctx.ctx)
    pw = tuple(x // g_s for x in ints)
    p_unit = Fraction(den, g_s)
    tstar = pow(t, -1, q)
    base = tuple(tstar * x for x in pw)
    tried = 0
    for delta in _l1_shells(cctx.d):
        if tried >= max_candidates:
            raise SearchBudgetExceeded(
                f"no primitive vector within {max_candidates} candidates"
            )
        tried += 1
        m = tuple(b + q * dd for b, dd in zip(base, delta))
        if any(m) and math.gcd(*m) == 1:
            k = svector(
                tuple(Fraction(t * mi, 1) / (q * p_unit) for mi in m), cctx.ctx
            )
            assert orbit_invariant(cctx, k) == t
            return k
    raise SearchBudgetExceeded("unreachable")
