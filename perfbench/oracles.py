"""Output oracles for the benchmark's CLI invocations.

Each check takes the rows of the invocation's CSV (dicts keyed by header)
and the run's seed, and returns None when the output is right or a one-line
description of what is wrong.  Exact columns are pinned: counts as
integers, exact series values by the sha256 of their "num/den" cell (the
values run to thousands of digits).  p-adic volumes are recomputed here by
brute force and the real quadric volume in closed form; Monte Carlo first
moments are compared with the Siegel mean value vol(f).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

# an estimate passes when it lies within this many of its own reported
# errors of the exact value
ESTIMATE_SIGMAS = 4.0


def padic_volume_bruteforce(diag, p: int, t: int, a: Fraction, c: int) -> Fraction:
    """vol_p{x in p^-t Z_p^d : sum diag_i x_i^2 in a + p^c Z_p}.

    With x = p^-t y the condition is Q(y) = p^(2t) a mod p^(2t+c), which
    only depends on y mod p^(2t+c).  The residue count is the cyclic
    convolution of the per-coordinate histograms of diag_i y^2 mod p^s.
    """
    import numpy as np  # imported here so set-up probes time numpy with sqcount

    s = 2 * t + c
    modulus = p**s
    b = Fraction(p) ** (2 * t) * Fraction(a)
    if b.denominator != 1:
        raise ValueError("target must be p-integral after rescaling")
    y = np.arange(modulus, dtype=np.int64)
    counts = np.zeros(modulus, dtype=np.int64)
    counts[0] = 1
    for coef in diag:
        hist = np.bincount(coef * y * y % modulus, minlength=modulus)
        full = np.convolve(counts, hist)
        counts = full[:modulus].copy()
        counts[: modulus - 1] += full[modulus:]
    hits = int(counts[b.numerator % modulus])
    d = len(diag)
    return Fraction(p) ** (d * t) * Fraction(hits, modulus**d)


def real_volume_31(t: float, alpha: float, beta: float) -> float:
    """vol{x in R^4 : |x| < t, x1^2 + x2^2 + x3^2 - x4^2 in (alpha, beta)}.

    For fixed |x4| = s the first three coordinates fill a spherical shell of
    radii sqrt(s^2 + alpha) .. min(sqrt(s^2 + beta), sqrt(t^2 - s^2)), so the
    volume is (8 pi / 3) times the integral over s > 0 of hi^3 - lo^3.  Each
    piece of that integral has a closed form.  Needs -t^2 < alpha < beta < t^2.
    """
    t2 = t * t

    def shell(s, c):  # antiderivative of (s^2 + c)^(3/2)
        r = math.sqrt(max(0.0, s * s + c))
        log_term = 3 * c * c / 8 * math.log(s + r) if c else 0.0
        return s * (2 * s * s + 5 * c) * r / 8 + log_term

    def cap(s):  # antiderivative of (t^2 - s^2)^(3/2)
        return (s * (5 * t2 - 2 * s * s) * math.sqrt(t2 - s * s) / 8
                + 3 * t2 * t2 / 8 * math.asin(s / t))

    s_beta = math.sqrt((t2 - beta) / 2)  # where s^2 + beta meets t^2 - s^2
    s_alpha = math.sqrt((t2 - alpha) / 2)
    low_beta = math.sqrt(max(0.0, -beta))
    low_alpha = math.sqrt(max(0.0, -alpha))
    outer = shell(s_beta, beta) - shell(low_beta, beta) + cap(s_alpha) - cap(s_beta)
    inner = shell(s_alpha, alpha) - shell(low_alpha, alpha)
    return 8 * math.pi / 3 * (outer - inner)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def counts_are(column: str, expected):
    def check(rows, seed):
        got = [int(r[column]) for r in rows]
        if got != list(expected):
            return f"{column} = {got}, expected {list(expected)}"
        return None
    return check


def series_is(value_sha256: str, terms_used: int):
    def check(rows, seed):
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        row = rows[0]
        if int(row["terms_used"]) != terms_used:
            return f"terms_used = {row['terms_used']}, expected {terms_used}"
        if _sha(row["value"]) != value_sha256:
            return f"series value {row['value_float']} differs from the pinned value"
        return None
    return check


def first_moment_is(volume: float, sampler: str, n: int):
    """Order-1 mean within ESTIMATE_SIGMAS reported stderr of vol(f)."""
    def check(rows, seed):
        by_order = {int(r["order"]): r for r in rows}
        if sorted(by_order) != [1, 2]:
            return f"orders {sorted(by_order)}, expected [1, 2]"
        for r in rows:
            if r["sampler"] != sampler or int(r["n"]) != n or int(r["seed"]) != seed:
                return f"row {r['order']} has sampler/n/seed {r['sampler']}/{r['n']}/{r['seed']}"
        mean = float(by_order[1]["mean"])
        stderr = float(by_order[1]["stderr"])
        if not stderr > 0:
            return f"order-1 stderr {stderr} is not positive"
        if abs(mean - volume) > ESTIMATE_SIGMAS * stderr:
            return (f"order-1 mean {mean} is {abs(mean - volume) / stderr:.1f} "
                    f"stderr from vol(f) = {volume}")
        return None
    return check


def volumes_are(real, diag, targets):
    """Every column of a `volume` row for the form x1^2 + x2^2 + x3^2 - x4^2.

    real: (t_inf, alpha, beta) of the real target; targets: {p: (t_p, a_p,
    c_p)} as the family resolves them at T.  All mismatches are reported,
    joined by "; ", so a known wrong column cannot hide another.
    """
    if tuple(diag) != (1, 1, 1, -1):
        raise ValueError("the closed-form real volume is for diag:1,1,1,-1")

    def check(rows, seed):
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        row = rows[0]
        problems = []
        want = real_volume_31(*real)
        got, err = float(row["vol_real"]), float(row["vol_real_err"])
        if not abs(got - want) <= ESTIMATE_SIGMAS * err:
            problems.append(f"vol_real = {got} +- {err}, closed form gives {want}")
        for p, (t, a, c) in targets.items():
            want = padic_volume_bruteforce(diag, p, t, Fraction(a), c)
            got = Fraction(row[f"vol_{p}"])
            if got != want:
                problems.append(f"vol_{p} = {got}, brute-force residue count gives {want}")
        product = float(row["vol_real"]) * math.prod(
            float(Fraction(row[f"vol_{p}"])) for p in targets
        )
        if not math.isclose(float(row["vol_total"]), product, rel_tol=1e-12):
            problems.append(f"vol_total {row['vol_total']} is not vol_real x finite volumes")
        return "; ".join(problems) or None
    return check
