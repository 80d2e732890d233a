"""Batch experiment front door: seeded reproducible runs, CSV + manifest out.

Subcommands
    count           one exact count against its volume prediction
    sweep           counts along a T ladder with a fitted residual exponent
    volume          real x p-adic quadric volumes, optional leading constant
    moment-mc       Monte Carlo moments of the counting transform
    moment-rhs      exact truncated second-moment series with a tail bound
    variance        empirical exceedance probability vs the Chebyshev bound
    orbit           exact truncated orbital series at a rational point

Every run writes <command>.csv and <command>_manifest.json under --out
(default: the working directory) and prints a short summary. The manifest
records the fully resolved inputs, the seed, package versions, and wall
time; the CSV never contains timing, so the same config and seed give
byte-identical CSV. --config FILE reads parameters from a JSON object or
from a previous run's manifest (its embedded config is reused), and flags
passed explicitly win over the file; replaying a manifest is therefore
`<command> --config old_manifest.json --out NEWDIR`. Stochastic commands
require --seed.

Two tables drive the parameters. _KEYS declares each config key once, with
its help text and its parser; _COMMANDS gives each command its handler,
its keys with their defaults, and the keys it requires. The argparse
subcommands are generated from them. A parser takes a flag string or a
JSON value from a config file and returns the value the handler uses, so a
value is checked the same way wherever it comes from; a null in a file, or
an absent flag, leaves the key at its default.

Exact values appear in CSV as "num/den" strings, floats as their shortest
round-trip representation; the printed summary gives an exact series value
as a float and a digit count. Column layouts are fixed per command and
listed in README.md.

Exit codes: 0 success, 2 configuration error, 3 budget failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from .congruence import congruence_context
from .counting import (
    DEFAULT_MAX_CANDIDATES,
    count_congruence,
    count_inhom,
    shrinking_family,
    sweep,
)
from .errors import BudgetError, ConfigError, DimensionMismatch
from .moments import (
    estimate_moments,
    inhom_series,
    second_moment_rhs,
    space_spec,
    variance_check,
)
from .sarith import INF, SConfig, TVector, require_in_s
from .serialize import (
    form_from_json,
    frac_str,
    load_config,
    parse_frac,
    parse_int as _int,
    parse_real,
    read_form,
    read_json_object,
    read_testfn,
    testfn_from_json,
    write_csv,
    write_manifest,
)
from .slattice import DEFAULT_MAX_CANDIDATES as ENUM_MAX_CANDIDATES, SBox
from .volume import leading_constant, padic_quadric_volume, real_quadric_volume


# --- value parsers -------------------------------------------------------------------
# Each takes a flag string or a JSON value. A malformed value raises
# ConfigError, ValueError, TypeError or OverflowError; _parse names the key
# in the message.


def _at_least(lo: int) -> Callable:
    """A parser of integers >= lo."""
    def parse_bounded(v) -> int:
        n = _int(v)
        if n < lo:
            raise ConfigError(f"must be >= {lo}")
        return n
    return parse_bounded


def _float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise TypeError("expected a number")
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError("must be finite")
    return x


def _word(v) -> str:
    if not isinstance(v, str):
        raise TypeError("expected a string")
    return v


def _bool(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError("expected true or false")
    return v


def _items(v, sep=",") -> list:
    """The entries of a JSON list or of a separated flag string."""
    if isinstance(v, list):
        return v
    return [s for s in str(v).split(sep) if s.strip()]


def _ints(v) -> tuple[int, ...]:
    return tuple(_int(x) for x in _items(v))


def _orders(v) -> tuple[int, ...]:
    orders = _ints(v)
    if len(set(orders)) != len(orders):
        raise ConfigError("an order is repeated")
    return orders


def _primes(v) -> tuple[int, ...]:
    primes = _ints(v)
    if not primes:
        raise ConfigError("need at least one finite prime")
    return primes


def _fracs(v) -> tuple[Fraction, ...]:
    return tuple(parse_frac(x) for x in _items(v))


def _exponents(v) -> dict[int, int]:
    """Per-prime integers: "2=1,3=-1" or a JSON object {"2": 1}."""
    if isinstance(v, dict):
        return {int(p): _int(e) for p, e in v.items()}
    out = {}
    for item in _items(v):
        p, sep, e = str(item).partition("=")
        if not sep:
            raise ConfigError(f"expected p=e, got {item!r}")
        out[int(p)] = _int(e)
    return out


def _depth(v):
    """One depth k for every prime, or p=k per prime."""
    if isinstance(v, (int, str)) and "=" not in str(v):
        return _int(v)
    return _exponents(v)


def _scale(v) -> dict:
    """Scale vector: "80", "80@3=2", or {"t_inf": ..., "t_p": {"3": 2}}."""
    if isinstance(v, dict):
        t_inf, t_p = v.get("t_inf"), v.get("t_p") or {}
    else:
        t_inf, _, t_p = str(v).partition("@")
    return {"t_inf": parse_real(t_inf), "t_p": _exponents(t_p)}


def _ladder(v) -> list[dict]:
    rungs = [_scale(s) for s in _items(v, ";")]
    if not rungs:
        raise ConfigError("ladder is empty")
    return rungs


def _finite(v) -> dict[int, dict]:
    """Finite family targets: "p:a:c:kappa,..." or {"p": {"a","c","kappa"}}."""
    if isinstance(v, dict):
        fields = [(p, part.get("a", 0), part.get("c", 0), part.get("kappa", 0))
                  for p, part in v.items() if isinstance(part, dict)]
        if len(fields) != len(v):
            raise ConfigError("each finite target must be an object")
    else:
        fields = [str(item).split(":") for item in _items(v)]
        for item in fields:
            if len(item) != 4:
                raise ConfigError(f"expected p:a:c:kappa, got {':'.join(item)!r}")
    return {int(p): {"a": parse_frac(a), "c": _int(c), "kappa": _int(kappa)}
            for p, a, c, kappa in fields}


def _form(v) -> dict:
    """Form object: "diag:1,1,-1", a JSON file path, or the object itself."""
    if isinstance(v, dict):
        return v
    body = str(v).strip()
    if body.startswith("diag:"):
        entries = _fracs(body[5:])
        if len(entries) < 2:
            raise ConfigError("diagonal form needs at least two entries")
        return {"gram_inf": [
            [frac_str(x) if i == j else "0" for j, x in enumerate(entries)]
            for i in range(len(entries))
        ]}
    if body.endswith(".json"):
        return read_json_object(body)
    raise ConfigError("expected diag:..., a .json file or a form object")


def _testfn(v) -> dict:
    """Test function object: "disk:R[@p=e,...]", "box:lo..hi,...[@p=e,...]",
    a JSON file path, or the object itself."""
    if isinstance(v, dict):
        return v
    body = str(v).strip()
    if body.endswith(".json"):
        return read_json_object(body)
    if body.startswith("disk:"):
        radius, _, tail = body[5:].partition("@")
        obj = {"kind": "disk", "radius": frac_str(parse_real(radius))}
        if tail:
            obj["t_p"] = {str(p): e for p, e in _exponents(tail).items()}
        return obj
    if body.startswith("box:"):
        ivs, _, tail = body[4:].partition("@")
        intervals = []
        for part in ivs.split(","):
            lo, sep, hi = part.partition("..")
            if not sep:
                raise ConfigError(f"interval {part!r} needs the form lo..hi")
            intervals.append([frac_str(parse_real(lo)), frac_str(parse_real(hi))])
        obj = {"kind": "box", "intervals": intervals}
        if tail:
            obj["finite_exponent"] = {str(p): e for p, e in _exponents(tail).items()}
        return obj
    raise ConfigError("expected disk:..., box:..., a .json file or an object")


def _shaped(parse: Callable, read: Callable) -> Callable:
    """parse, then reject an object whose shape read does not accept."""
    def parse_shaped(v):
        obj = parse(v)
        read(obj)
        return obj
    return parse_shaped


class _Key(NamedTuple):
    parse: Callable
    help: str


# every config key, declared once; the flag is --<key> with "_" as "-"
_KEYS = {
    "primes": _Key(_primes, "finite places, e.g. 2,3"),
    "d": _Key(_int, "dimension"),
    "q": _Key(_int, "congruence level"),
    "w": _Key(_fracs, "congruence shift w (comma rationals)"),
    "xi": _Key(_fracs, "inhomogeneous shift (comma rationals)"),
    "y": _Key(_fracs, "evaluation point (comma rationals)"),
    "form": _Key(_shaped(_form, read_form), '"diag:1,1,-1" or a form JSON file'),
    "c_inf": _Key(parse_real, "real interval scale c (rational)"),
    "kappa_inf": _Key(_float, "real shrink rate kappa"),
    "a_inf": _Key(parse_real, "real interval center (rational)"),
    "finite": _Key(_finite, "finite targets p:a:c:kappa[,...]"),
    "t": _Key(_scale, 'scale "T_inf[@p=t_p,...]"'),
    "ladder": _Key(_ladder, 'rungs "T[@p=t_p];T[@p=t_p];..."'),
    "max_candidates": _Key(_at_least(1), "candidate budget (exit 3 when spent)"),
    "seed": _Key(_at_least(0), "random seed"),
    "leading": _Key(_bool, "also compute the leading constant c_Q"),
    "space": _Key(_word, "base | affine | congruence"),
    "f": _Key(_shaped(_testfn, read_testfn),
              '"disk:R[@p=e,...]", "box:lo..hi,...[@p=e,...]" or JSON'),
    "box": _Key(_shaped(_testfn, read_testfn), '"disk:R[@p=e,...]"'),
    "threshold": _Key(_float, "exceedance threshold"),
    "order": _Key(_orders, "moment orders: 1, 2, or 1,2"),
    "n": _Key(_int, "number of draws"),
    "depth": _Key(_depth, "p-adic depth k or p=k[,...] (sampler depth; for "
                          "moment-rhs the series denominator depth)"),
    "threads": _Key(_at_least(1), "worker streams"),
    "t_max": _Key(_int, "series truncation t_max"),
    "real_bound": _Key(_float, "real-place bound of the series"),
    "max_terms": _Key(_at_least(1), "series term budget (exit 3 when spent)"),
}


def _parse(key: str, value):
    try:
        return _KEYS[key].parse(value)
    except (ConfigError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc


# --- shared handler plumbing ---------------------------------------------------------


def _family(cfg, q_form):
    require_in_s(cfg["finite"], q_form.ctx.primes, "finite has a target at")
    finite = {p: (x["a"], x["c"], x["kappa"]) for p, x in cfg["finite"].items()}
    return shrinking_family(q_form.dim, cfg["c_inf"], cfg["kappa_inf"],
                            cfg["a_inf"], finite)


def _space(cfg, ctx: SConfig):
    kind, d = cfg["space"], cfg["d"]
    cctx = None
    if kind == "congruence":
        if cfg["q"] is None or cfg["w"] is None:
            raise ConfigError("congruence space needs --q and --w")
        cctx = congruence_context(d, cfg["q"], cfg["w"], ctx)
    else:
        given = ["--" + key for key in ("q", "w") if cfg[key] is not None]
        if given:
            raise ConfigError(f"--space {kind} takes no {' or '.join(given)} "
                              "(only --space congruence does)")
    return space_spec(kind, d, ctx, cctx, cfg["depth"])


def _test_function(obj, ctx: SConfig, d: int, source: str):
    """The test function of obj, checked to have the d coordinates that
    source ("w" or "the space") gives the run."""
    f = testfn_from_json(obj, ctx)
    if isinstance(f, SBox):
        vectors = {"test function": f.center}
    else:
        vectors = {"test function": f.intervals}
        vectors.update((f"finite_center at {p} of the test function", c)
                       for p, c in f.finite_center.items())
    for what, v in vectors.items():
        if v is not None and len(v) != d:
            raise DimensionMismatch(
                f"{what} has {len(v)} coordinates, {source} has {d}")
    return f


def _count_header(ctx: SConfig):
    return ["t_inf"] + [f"t_{p}" for p in ctx.primes] + [
        "n", "vol_interval", "prediction", "ratio",
    ]


def _count_row(res, ctx: SConfig):
    return [Fraction(res.t.t_inf)] + [res.t.t_p[p] for p in ctx.primes] + [
        res.n, res.vol_interval, res.prediction, res.ratio,
    ]


def _digits(n: int) -> int:
    """Decimal digits of n != 0, without a (quadratic-time) int -> str."""
    n = abs(n)
    k = int(math.log10(n))  # floor(log10 n), up to float rounding
    power = 10**k  # the one power built; the fixes below are linear-time
    while power > n:
        k -= 1
        power //= 10
    while power * 10 <= n:
        k += 1
        power *= 10
    return k + 1


def _exact_summary(value: Fraction) -> str:
    """Float value and digit counts of an exact series value; the exact
    value itself, which can run to 10^5 digits, goes to the CSV only."""
    return (f"{float(value)!r} (exact value in the CSV: "
            f"{_digits(value.numerator)}-digit numerator, "
            f"{_digits(value.denominator)}-digit denominator)")


def _series_budget(sv, cfg) -> dict:
    """How much of max_terms a series walk used, for the manifest."""
    return {"terms_charged": sv.terms_charged, "max_terms": cfg["max_terms"]}


def _emit(command, cfg, out_dir: Path, header, rows, summary,
          seed=None, results=None, t0=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{command}.csv"
    sha = write_csv(csv_path, header, rows)
    wall = time.perf_counter() - t0
    manifest_path = out_dir / f"{command}_manifest.json"
    write_manifest(manifest_path, command, cfg, seed, wall, csv_path.name, sha,
                   results)
    for line in summary:
        print(line)
    print(f"wrote {csv_path} and {manifest_path.name}")


# --- command handlers ------------------------------------------------------------------
# Each handler's docstring is its subcommand's help line.


def _target_from_cfg(cfg, ctx, d):
    """Congruence (q, w) or inhomogeneous shift xi, exactly one of the two."""
    has_cong = cfg["q"] is not None
    if has_cong == (cfg["xi"] is not None):
        raise ConfigError("need exactly one of --q/--w or --xi")
    if not has_cong:
        return cfg["xi"]
    if cfg["w"] is None:
        raise ConfigError("--q needs --w")
    return congruence_context(d, cfg["q"], cfg["w"], ctx)


def _cmd_count(cfg, out_dir, t0):
    """one exact count vs its prediction"""
    ctx = SConfig(cfg["primes"])
    q_form = form_from_json(cfg["form"], ctx)
    family = _family(cfg, q_form)
    # the manifest records every exponent of the resolved scale
    t = cfg["t"] = TVector(**cfg["t"], ctx=ctx)
    target = _target_from_cfg(cfg, ctx, q_form.dim)
    budget = cfg["max_candidates"]
    if isinstance(target, tuple):
        res = count_inhom(q_form, target, family, t, budget)
    else:
        res = count_congruence(target, q_form, family, t, budget)
    _emit("count", cfg, out_dir, _count_header(ctx), [_count_row(res, ctx)], [
        f"N = {res.n}, prediction = {res.prediction!r}, ratio = {res.ratio!r}",
    ], results={"wall_ms": res.wall_ms, "candidates_charged": res.charged,
                "max_candidates": budget}, t0=t0)
    return 0


def _cmd_sweep(cfg, out_dir, t0):
    """counts along a T ladder"""
    ctx = SConfig(cfg["primes"])
    q_form = form_from_json(cfg["form"], ctx)
    family = _family(cfg, q_form)
    ladder = cfg["ladder"] = [TVector(**t, ctx=ctx) for t in cfg["ladder"]]
    target = _target_from_cfg(cfg, ctx, q_form.dim)
    res = sweep(q_form, target, family, ladder, cfg["max_candidates"])
    rows = [_count_row(r, ctx) for r in res.results]
    summary = [f"{len(res.results)}/{len(ladder)} rungs"]
    if res.results:
        summary.append(f"final ratio = {res.results[-1].ratio!r}")
    if res.delta_hat is not None:
        summary.append(f"fitted residual exponent delta_hat = {res.delta_hat!r}")
    _emit("sweep", cfg, out_dir, _count_header(ctx), rows, summary,
          results={"delta_hat": res.delta_hat,
                   "candidates_charged": [r.charged for r in res.results],
                   "max_candidates": cfg["max_candidates"]}, t0=t0)
    return 0


def _cmd_volume(cfg, out_dir, t0):
    """real x p-adic quadric volumes"""
    ctx = SConfig(cfg["primes"])
    q_form = form_from_json(cfg["form"], ctx)
    family = _family(cfg, q_form)
    t = cfg["t"] = TVector(**cfg["t"], ctx=ctx)
    v_real, err = real_quadric_volume(
        q_form.gram_at(INF), float(t.t_inf), family.real_interval(t.t_inf)
    )
    finite = {}
    for p in ctx.primes:
        a_p, e_p = family.finite_target(p, t.t_p[p])
        finite[p] = padic_quadric_volume(
            p, q_form.gram_at(p), t=t.t_p[p], a=a_p, c=e_p
        )
    total = v_real * math.prod(float(v) for v in finite.values())
    c_q = c_q_err = None
    if cfg["leading"]:
        c_q, c_q_err = leading_constant(q_form, family, t_p=t.t_p)
    header = (
        ["t_inf"] + [f"t_{p}" for p in ctx.primes]
        + ["vol_real", "vol_real_err"]
        + [f"vol_{p}" for p in ctx.primes]
        + ["vol_total", "c_q", "c_q_err"]
    )
    row = (
        [Fraction(t.t_inf)] + [t.t_p[p] for p in ctx.primes]
        + [v_real, err] + [finite[p] for p in ctx.primes]
        + [total, c_q, c_q_err]
    )
    summary = [
        "finite volumes: " + ", ".join(
            f"p={p}: {frac_str(v)}" for p, v in finite.items()
        ),
        f"vol = {v_real!r} (real, err <= {err:.3g}) x finite = {total!r}",
    ]
    if c_q is not None:
        summary.append(f"leading constant c_Q = {c_q!r} (error <= {c_q_err:.3g})")
    _emit("volume", cfg, out_dir, header, [row], summary, t0=t0)
    return 0


def _cmd_moment_mc(cfg, out_dir, t0):
    """Monte Carlo transform moments"""
    ctx = SConfig(cfg["primes"])
    seed = cfg["seed"]
    space = _space(cfg, ctx)
    f = _test_function(cfg["f"], ctx, space.d, "the space")
    orders = cfg["order"]
    estimates = estimate_moments(
        space, f, orders, cfg["n"], seed, cfg["threads"], cfg["max_candidates"]
    )
    header = ["space", "d", "order", "mean", "stderr", "n", "seed", "sampler"]
    rows = [
        [space.kind, space.d, order, est.mean, est.stderr, est.n_samples,
         est.seed, est.sampler_exactness]
        for order, est in zip(orders, estimates)
    ]
    summary = [
        f"order {order}: mean = {est.mean!r} (stderr {est.stderr:.3g}, "
        f"{est.sampler_exactness})"
        for order, est in zip(orders, estimates)
    ]
    _emit("moment-mc", cfg, out_dir, header, rows, summary, seed=seed, t0=t0)
    return 0


def _cmd_moment_rhs(cfg, out_dir, t0):
    """exact second-moment series"""
    ctx = SConfig(cfg["primes"])
    w = cfg["w"]
    cctx = congruence_context(len(w), cfg["q"], w, ctx)
    f = _test_function(cfg["f"], ctx, cctx.d, "w")
    sv = second_moment_rhs(
        f, cctx, cfg["t_max"], cfg["real_bound"], cfg["depth"], cfg["max_terms"]
    )
    cfg["depth"] = sv.depth
    header = ["q", "t_max", "real_bound", "value", "value_float",
              "tail_bound", "terms_used"]
    rows = [[cctx.q, sv.t_max, sv.real_bound, sv.value, float(sv.value),
             sv.tail_bound, sv.terms_used]]
    _emit("moment-rhs", cfg, out_dir, header, rows, [
        f"series value ~ {_exact_summary(sv.value)}",
        f"tail bound = {sv.tail_bound!r} over {sv.terms_used} pair terms",
    ], results=_series_budget(sv, cfg), t0=t0)
    return 0


def _cmd_variance(cfg, out_dir, t0):
    """empirical exceedance vs the Chebyshev bound"""
    ctx = SConfig(cfg["primes"])
    seed = cfg["seed"]
    space = _space(cfg, ctx)
    f = _test_function(cfg["box"], ctx, space.d, "the space")
    if not isinstance(f, SBox):
        raise ConfigError("variance needs a disk:R box")
    threshold = cfg["threshold"]
    check = variance_check(
        space, f, threshold, cfg["n"], seed, cfg["threads"],
        cfg["max_candidates"],
    )
    vol = f.volume(space.d)
    header = ["space", "d", "volume", "threshold", "empirical_prob", "bound",
              "stderr", "observed_constant", "n", "seed"]
    rows = [[space.kind, space.d, vol, threshold,
             check.empirical_prob, check.bound, check.stderr,
             check.observed_constant, check.n_samples, check.seed]]
    _emit("variance", cfg, out_dir, header, rows, [
        f"P(|count - vol| > {threshold!r}) = "
        f"{check.empirical_prob!r} vs bound {check.bound!r} "
        f"(binomial stderr {check.stderr:.3g})",
    ], seed=seed, t0=t0)
    return 0


def _cmd_orbit(cfg, out_dir, t0):
    """exact orbital series at a rational point"""
    ctx = SConfig(cfg["primes"])
    w = cfg["w"]
    cctx = congruence_context(len(w), cfg["q"], w, ctx)
    f = _test_function(cfg["f"], ctx, cctx.d, "w")
    sv = inhom_series(f, cfg["y"], cctx, cfg["t_max"], cfg["max_terms"])
    header = ["q", "t_max", "value", "value_float", "tail_bound", "terms_used"]
    rows = [[cctx.q, sv.t_max, sv.value, float(sv.value), sv.tail_bound,
             sv.terms_used]]
    _emit("orbit", cfg, out_dir, header, rows, [
        f"orbital series ~ {_exact_summary(sv.value)} "
        f"(tail <= {sv.tail_bound:.3g}, {sv.terms_used} terms)",
    ], results=_series_budget(sv, cfg), t0=t0)
    return 0


# --- commands ----------------------------------------------------------------------------

_REQ = object()  # marks a command key that has no default


def _command(handler, **keys):
    """(handler, defaults, required) of a command whose keys map to their
    default values, or to _REQ."""
    defaults = {k: None if v is _REQ else v for k, v in keys.items()}
    return handler, defaults, [k for k, v in keys.items() if v is _REQ]


_FAMILY = {"c_inf": _REQ, "kappa_inf": 0.0, "a_inf": "0", "finite": {}}
_SAMPLING = {"depth": None, "threads": 1}

_COMMANDS = {
    "count": _command(
        _cmd_count, form=_REQ, primes=_REQ, q=None, w=None, xi=None,
        **_FAMILY, t=_REQ, max_candidates=DEFAULT_MAX_CANDIDATES),
    "sweep": _command(
        _cmd_sweep, form=_REQ, primes=_REQ, q=None, w=None, xi=None,
        **_FAMILY, ladder=_REQ, max_candidates=DEFAULT_MAX_CANDIDATES),
    "volume": _command(
        _cmd_volume, form=_REQ, primes=_REQ, **_FAMILY, t=_REQ, leading=False),
    "moment-mc": _command(
        _cmd_moment_mc, space=_REQ, d=_REQ, q=None, w=None, primes=_REQ,
        f=_REQ, order="1,2", n=10_000, seed=_REQ,
        max_candidates=ENUM_MAX_CANDIDATES, **_SAMPLING),
    "moment-rhs": _command(
        _cmd_moment_rhs, primes=_REQ, q=_REQ, w=_REQ, f=_REQ, t_max=16,
        real_bound=24.0, depth=None, max_terms=5_000_000),
    "variance": _command(
        _cmd_variance, space=_REQ, d=_REQ, q=None, w=None, primes=_REQ,
        box=_REQ, threshold=_REQ, n=10_000, seed=_REQ,
        max_candidates=ENUM_MAX_CANDIDATES, **_SAMPLING),
    "orbit": _command(
        _cmd_orbit, primes=_REQ, q=_REQ, w=_REQ, f=_REQ, y=_REQ, t_max=32,
        max_terms=5_000_000),
}


# --- argument parsing -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqcount",
        description="Seeded batch experiments; each run writes CSV plus a "
                    "JSON manifest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, defaults, required) in _COMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("--config", help="JSON config or a previous manifest")
        sp.add_argument("--out", help="output directory (default: .)")
        for key in defaults:
            text = _KEYS[key].help + (" (required)" if key in required else "")
            # a boolean flag takes no value; absent, it leaves the key alone
            switch = {"action": "store_const", "const": True}
            sp.add_argument("--" + key.replace("_", "-"), help=text,
                            **(switch if _KEYS[key].parse is _bool else {}))
    return parser


def _resolve(args, defaults: dict, required, command: str) -> dict:
    """Defaults, then the --config file, then flags; every value parsed."""
    raw = dict(defaults)
    if args.config:
        file_cfg = load_config(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command}: {sorted(unknown)}"
            )
        raw.update((k, v) for k, v in file_cfg.items() if v is not None)
    raw.update((k, getattr(args, k)) for k in defaults
               if getattr(args, k) is not None)
    missing = [key for key in required if raw[key] is None]
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise ConfigError(f"{command} needs {flags}")
    return {k: None if v is None else _parse(k, v) for k, v in raw.items()}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, defaults, required = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args, defaults, required, args.command)
        return handler(cfg, Path(args.out or "."), t0)
    except ConfigError as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"{args.command}: budget failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
