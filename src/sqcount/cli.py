"""Batch experiment front door: seeded reproducible runs, CSV + manifest out.

Subcommands
    zeta            zeta_S by truncated series, cross-checked against the
                    Euler product
    group-order     #SL_d(Z/q) closed form plus the Mobius-recursion check
    identity-check  normalization identity residual (series or closed form)
    covolume        covolume constant of the lattice space
    count           one exact count against its volume prediction
    sweep           counts along a T ladder with a fitted residual exponent
    volume          real x p-adic quadric volumes, optional leading constant
    moment-mc       Monte Carlo moments of the counting transform
    moment-rhs      exact truncated second-moment series with a tail bound
    variance        empirical exceedance probability vs the Chebyshev bound
    orbit           exact truncated orbital series at a rational point
    rescale-check   exact congruence/inhomogeneous rescaling identity

Every run writes <command>.csv and <command>_manifest.json under --out
(default: the working directory) and prints a short summary. The manifest
records the fully resolved inputs, the seed, package versions, and wall
time; the CSV never contains timing, so the same config and seed give
byte-identical CSV. --config FILE reads parameters from a JSON object or
from a previous run's manifest (its embedded config is reused), and flags
passed explicitly win over the file; replaying a manifest is therefore
`<command> --config old_manifest.json --out NEWDIR`. Stochastic commands
require --seed. SQCOUNT_THREADS sets the default worker count.

Exact values appear in CSV as "num/den" strings, floats as their shortest
round-trip representation; the printed summary gives an exact series value
as a float and a digit count. Column layouts are fixed per command and
listed in README.md.

Exit codes: 0 success, 2 configuration error, 3 budget or tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .congruence import congruence_context
from .counting import (
    DEFAULT_MAX_CANDIDATES,
    count_congruence,
    count_inhom,
    rescale_identity_check,
    shrinking_family,
    sweep,
)
from .errors import BudgetError, ConfigError, MethodDisagreement, ToleranceUnreachable
from .moments import (
    estimate_moments,
    inhom_series,
    second_moment_rhs,
    space_spec,
    variance_check,
)
from .sarith import (
    INF,
    SConfig,
    TVector,
    covolume_product,
    normalization_identity_residual,
    sl_group_order,
    sl_order_mobius_check,
    zeta_S,
    zeta_S_euler,
)
from .serialize import (
    form_from_json,
    frac_str,
    load_config,
    parse_frac,
    testfn_from_json,
    write_csv,
    write_manifest,
)
from .slattice import DEFAULT_MAX_CANDIDATES as ENUM_MAX_CANDIDATES
from .volume import PadicVolumeRequest, leading_constant, padic_quadric_volume, real_quadric_volume

ENV_THREADS = "SQCOUNT_THREADS"


# --- flag value parsing -----------------------------------------------------------


def _parse_primes(v) -> tuple[int, ...]:
    if isinstance(v, (list, tuple)):
        primes = tuple(int(p) for p in v)
    else:
        primes = tuple(int(p) for p in str(v).split(",") if p.strip())
    if not primes:
        raise ConfigError("need at least one finite prime")
    return primes


def _parse_fraclist(v) -> tuple[Fraction, ...]:
    if isinstance(v, (list, tuple)):
        return tuple(parse_frac(x) for x in v)
    return tuple(parse_frac(x) for x in str(v).split(",") if x.strip())


def _parse_intdict(v) -> dict[int, int]:
    """Per-prime integers: "2=1,3=-1" or a JSON object {"2": 1}."""
    if v is None:
        return {}
    if isinstance(v, dict):
        return {int(p): int(e) for p, e in v.items()}
    out = {}
    for item in str(v).split(","):
        if not item.strip():
            continue
        p, sep, e = item.partition("=")
        if not sep:
            raise ConfigError(f"expected p=e, got {item!r}")
        out[int(p)] = int(e)
    return out


def _parse_depth(v):
    if v is None:
        return None
    if isinstance(v, int):
        return v
    if isinstance(v, str) and "=" not in v:
        return int(v)
    return _parse_intdict(v)


def _parse_tvec(spec, ctx: SConfig) -> TVector:
    """Scale vector: "80", "80@3=2", or {"t_inf": ..., "t_p": {"3": 2}}."""
    if isinstance(spec, dict):
        t_p = {int(p): int(e) for p, e in (spec.get("t_p") or {}).items()}
        return TVector(parse_frac(spec.get("t_inf")), t_p, ctx)
    body = str(spec).strip()
    t_inf, _, tail = body.partition("@")
    return TVector(parse_frac(t_inf), _parse_intdict(tail), ctx)


def _tvec_json(t: TVector) -> dict:
    return {
        "t_inf": frac_str(Fraction(t.t_inf)),
        "t_p": {str(p): e for p, e in t.t_p.items()},
    }


def _parse_ladder(spec, ctx: SConfig) -> list[TVector]:
    if isinstance(spec, (list, tuple)):
        items = list(spec)
    else:
        items = [s for s in str(spec).split(";") if s.strip()]
    if not items:
        raise ConfigError("ladder is empty")
    return [_parse_tvec(item, ctx) for item in items]


def _parse_finite_parts(v) -> dict[int, tuple]:
    """Finite family targets: "p:a:c:kappa,..." or {"p": {"a","c","kappa"}}."""
    if v is None:
        return {}
    if isinstance(v, dict):
        return {
            int(p): (
                parse_frac(part.get("a", 0)),
                int(part.get("c", 0)),
                int(part.get("kappa", 0)),
            )
            for p, part in v.items()
        }
    out = {}
    for item in str(v).split(","):
        if not item.strip():
            continue
        fields = item.split(":")
        if len(fields) != 4:
            raise ConfigError(f"expected p:a:c:kappa, got {item!r}")
        p, a, c, kappa = fields
        out[int(p)] = (parse_frac(a), int(c), int(kappa))
    return out


def _parse_form(spec, ctx: SConfig):
    """Form flag: "diag:1,1,-1", a JSON file path, or an embedded object.

    Returns the form and its canonical JSON object for the manifest.
    """
    if isinstance(spec, dict):
        return form_from_json(spec, ctx), spec
    body = str(spec).strip()
    if body.startswith("diag:"):
        entries = _parse_fraclist(body[5:])
        if len(entries) < 2:
            raise ConfigError("diagonal form needs at least two entries")
        rows = [
            [frac_str(x) if i == j else "0" for j, x in enumerate(entries)]
            for i in range(len(entries))
        ]
        obj = {"gram_inf": rows}
        return form_from_json(obj, ctx), obj
    if body.endswith(".json"):
        try:
            obj = json.loads(Path(body).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read form {body}: {exc}") from exc
        return form_from_json(obj, ctx), obj
    raise ConfigError(f"unrecognized form spec {spec!r}")


def _parse_f(spec, ctx: SConfig):
    """Test function flag: "disk:R[@p=e,...]", "box:lo..hi,...[@p=e,...]",
    a JSON file path, or an embedded object.
    """
    if isinstance(spec, dict):
        return testfn_from_json(spec, ctx), spec
    body = str(spec).strip()
    if body.endswith(".json"):
        try:
            obj = json.loads(Path(body).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read test function {body}: {exc}") from exc
        return testfn_from_json(obj, ctx), obj
    if body.startswith("disk:"):
        radius, _, tail = body[5:].partition("@")
        obj = {"kind": "disk", "radius": frac_str(parse_frac(radius))}
        if tail:
            obj["t_p"] = {str(p): e for p, e in _parse_intdict(tail).items()}
        return testfn_from_json(obj, ctx), obj
    if body.startswith("box:"):
        ivs, _, tail = body[4:].partition("@")
        intervals = []
        for part in ivs.split(","):
            lo, sep, hi = part.partition("..")
            if not sep:
                raise ConfigError(f"interval {part!r} needs the form lo..hi")
            intervals.append([frac_str(parse_frac(lo)), frac_str(parse_frac(hi))])
        obj = {"kind": "box", "intervals": intervals}
        if tail:
            obj["finite_exponent"] = {
                str(p): e for p, e in _parse_intdict(tail).items()
            }
        return testfn_from_json(obj, ctx), obj
    raise ConfigError(f"unrecognized test function spec {spec!r}")


# --- shared config plumbing ---------------------------------------------------------


def _ctx(cfg) -> SConfig:
    primes = _parse_primes(cfg.get("primes"))
    cfg["primes"] = list(primes)
    return SConfig(primes)


def _family(cfg, d: int):
    finite = _parse_finite_parts(cfg.get("finite"))
    fam = shrinking_family(
        d,
        parse_frac(cfg.get("c_inf")),
        float(cfg.get("kappa_inf") or 0.0),
        parse_frac(cfg.get("a_inf") if cfg.get("a_inf") is not None else 0),
        finite,
    )
    cfg["c_inf"] = frac_str(Fraction(fam.c_inf))
    cfg["a_inf"] = frac_str(Fraction(fam.a_inf))
    cfg["kappa_inf"] = fam.kappa_inf
    cfg["finite"] = {
        str(p): {"a": frac_str(part.a), "c": part.c, "kappa": part.kappa}
        for p, part in fam.finite.items()
    }
    return fam


def _threads(cfg) -> int:
    t = cfg.get("threads")
    if t is None:
        t = os.environ.get(ENV_THREADS, "1")
    try:
        t = int(t)
    except ValueError as exc:
        raise ConfigError(f"thread count must be an integer, got {t!r}") from exc
    if t < 1:
        raise ConfigError("thread count must be >= 1")
    cfg["threads"] = t
    return t


def _space(cfg, ctx: SConfig):
    kind = str(cfg.get("space"))
    d = int(cfg.get("d"))
    cctx = None
    if kind.startswith("congruence"):
        if cfg.get("q") is None or cfg.get("w") is None:
            raise ConfigError("congruence space needs --q and --w")
        w = _parse_fraclist(cfg["w"])
        cfg["w"] = [frac_str(x) for x in w]
        cctx = congruence_context(d, int(cfg["q"]), w, ctx)
    depth = _parse_depth(cfg.get("depth"))
    return space_spec(
        kind, d, ctx, cctx, depth,
        cfg.get("sampler") or "auto",
        float(cfg.get("mcmc_eps")),
        int(cfg.get("mcmc_burn_in")),
        int(cfg.get("mcmc_thin")),
    )


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
    while 10**k > n:
        k -= 1
    while 10 ** (k + 1) <= n:
        k += 1
    return k + 1


def _exact_summary(value: Fraction) -> str:
    """Float value and digit counts of an exact series value; the exact
    value itself, which can run to 10^5 digits, goes to the CSV only."""
    return (f"{float(value)!r} (exact value in the CSV: "
            f"{_digits(value.numerator)}-digit numerator, "
            f"{_digits(value.denominator)}-digit denominator)")


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


def _cmd_zeta(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    d, tol = int(cfg["d"]), float(cfg["tol"])
    value, err = zeta_S(d, ctx, tol)
    euler = zeta_S_euler(d, ctx)
    delta = abs(value - euler)
    header = ["d", "primes", "series_value", "series_error", "euler_value", "delta"]
    rows = [[d, ";".join(map(str, ctx.primes)), value, err, euler, delta]]
    _emit("zeta", cfg, out_dir, header, rows, [
        f"zeta_S({d}) over S_f={set(ctx.primes)}: {value!r} (series error <= {err:.3g})",
        f"euler cross-check delta = {delta:.3g}",
    ], t0=t0)
    if delta > tol + err:
        raise MethodDisagreement(
            f"series and Euler product differ by {delta:.3g} > {tol + err:.3g}"
        )
    return 0


def _cmd_group_order(cfg, out_dir, t0):
    d, q = int(cfg["d"]), int(cfg["q"])
    order = sl_group_order(d, q)
    ok = sl_order_mobius_check(d, q) if d >= 2 else True
    header = ["d", "q", "order", "mobius_ok"]
    _emit("group-order", cfg, out_dir, header, [[d, q, order, ok]], [
        f"#SL_{d}(Z/{q}) = {order}" + ("" if ok else "  [Mobius check FAILED]"),
    ], t0=t0)
    if not ok:
        raise MethodDisagreement("closed form and Mobius recursion disagree")
    return 0


def _cmd_identity_check(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    d, q = int(cfg["d"]), int(cfg["q"])
    method, tol = str(cfg["method"]), float(cfg["tol"])
    residual = normalization_identity_residual(
        d, q, ctx, float(cfg["zeta_tol"]), method
    )
    header = ["d", "q", "primes", "method", "residual"]
    rows = [[d, q, ";".join(map(str, ctx.primes)), method, residual]]
    _emit("identity-check", cfg, out_dir, header, rows, [
        f"normalization residual d={d} q={q} ({method}): {float(residual):.3g}",
    ], t0=t0)
    if float(residual) > tol:
        raise ToleranceUnreachable(f"residual {float(residual):.3g} > {tol:.3g}")
    return 0


def _cmd_covolume(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    d, variant = int(cfg["d"]), str(cfg["variant"])
    value, err = covolume_product(d, ctx, variant, float(cfg["tol"]))
    header = ["d", "primes", "variant", "value", "error_bound"]
    rows = [[d, ";".join(map(str, ctx.primes)), variant, value, err]]
    _emit("covolume", cfg, out_dir, header, rows, [
        f"covolume constant ({variant}, d={d}): {value!r} (error <= {err:.3g})",
    ], t0=t0)
    return 0


def _target_from_cfg(cfg, ctx, d):
    """Congruence (q, w) or inhomogeneous shift xi, exactly one of the two."""
    has_cong = cfg.get("q") is not None
    has_xi = cfg.get("xi") is not None
    if has_cong == has_xi:
        raise ConfigError("need exactly one of --q/--w or --xi")
    if has_cong:
        if cfg.get("w") is None:
            raise ConfigError("--q needs --w")
        w = _parse_fraclist(cfg["w"])
        cfg["w"] = [frac_str(x) for x in w]
        return congruence_context(d, int(cfg["q"]), w, ctx)
    xi = _parse_fraclist(cfg["xi"])
    cfg["xi"] = [frac_str(x) for x in xi]
    return xi


def _cmd_count(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    q_form, form_obj = _parse_form(cfg["form"], ctx)
    cfg["form"] = form_obj
    family = _family(cfg, q_form.dim)
    t = _parse_tvec(cfg["t"], ctx)
    cfg["t"] = _tvec_json(t)
    target = _target_from_cfg(cfg, ctx, q_form.dim)
    c_q = cfg.get("c_q")
    budget = int(cfg["max_candidates"])
    if isinstance(target, tuple):
        res = count_inhom(q_form, target, family, t, c_q, budget)
    else:
        res = count_congruence(target, q_form, family, t, c_q, budget)
    _emit("count", cfg, out_dir, _count_header(ctx), [_count_row(res, ctx)], [
        f"N = {res.n}, prediction = {res.prediction!r}, ratio = {res.ratio!r}",
    ], results={"wall_ms": res.wall_ms}, t0=t0)
    return 0


def _cmd_sweep(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    q_form, form_obj = _parse_form(cfg["form"], ctx)
    cfg["form"] = form_obj
    family = _family(cfg, q_form.dim)
    ladder = _parse_ladder(cfg["ladder"], ctx)
    cfg["ladder"] = [_tvec_json(t) for t in ladder]
    target = _target_from_cfg(cfg, ctx, q_form.dim)
    budget_s = cfg.get("budget_s")
    res = sweep(
        q_form, target, family, ladder,
        float(budget_s) if budget_s is not None else None,
        int(cfg["max_candidates"]),
    )
    rows = [_count_row(r, ctx) for r in res.results]
    summary = [f"{len(res.results)}/{len(ladder)} rungs"]
    if res.results:
        summary.append(f"final ratio = {res.results[-1].ratio!r}")
    if res.delta_hat is not None:
        summary.append(f"fitted residual exponent delta_hat = {res.delta_hat!r}")
    _emit("sweep", cfg, out_dir, _count_header(ctx), rows, summary,
          results={"delta_hat": res.delta_hat, "complete": res.complete}, t0=t0)
    if not res.complete:
        raise BudgetError(
            f"wall budget {budget_s}s hit after {len(res.results)} rungs"
        )
    return 0


def _cmd_volume(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    q_form, form_obj = _parse_form(cfg["form"], ctx)
    cfg["form"] = form_obj
    family = _family(cfg, q_form.dim)
    t = _parse_tvec(cfg["t"], ctx)
    cfg["t"] = _tvec_json(t)
    method = str(cfg["method"])
    seed = cfg.get("seed")
    if method != "standardized-integral" and seed is None:
        raise ConfigError(f"--seed is required for method {method!r}")
    v_real, err = real_quadric_volume(
        q_form.gram_at(INF), float(t.t_inf), family.real_interval(t.t_inf),
        method=method, n_grid=cfg.get("n_grid"),
        n_samples=int(cfg["n_samples"]), seed=int(seed) if seed is not None else 0,
    )
    finite = {}
    for p in ctx.primes:
        a_p, e_p = family.finite_target(p, t.t_p[p])
        finite[p] = padic_quadric_volume(
            PadicVolumeRequest(p, q_form.gram_at(p), t=t.t_p[p], a=a_p, c=e_p)
        )
    total = v_real * math.prod(float(v) for v in finite.values())
    c_q = c_q_err = None
    if cfg.get("leading"):
        asym = leading_constant(
            q_form, family, t_p=t.t_p, t0=float(cfg["t0"]),
            ladder=int(cfg["rungs"]), n_grid=cfg.get("n_grid"),
        )
        c_q, c_q_err = asym.c_q, asym.error
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
    _emit("volume", cfg, out_dir, header, [row], summary, seed=seed, t0=t0)
    return 0


def _cmd_moment_mc(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    if cfg.get("seed") is None:
        raise ConfigError("--seed is required for moment-mc")
    seed = int(cfg["seed"])
    space = _space(cfg, ctx)
    f, f_obj = _parse_f(cfg["f"], ctx)
    cfg["f"] = f_obj
    orders = cfg.get("order")
    if not isinstance(orders, (list, tuple)):
        orders = [x for x in str(orders).split(",") if x.strip()]
    orders = tuple(int(x) for x in orders)
    cfg["order"] = list(orders)
    n = int(cfg["n"])
    workers = _threads(cfg)
    estimates = estimate_moments(
        space, [f], orders, n, seed, workers, int(cfg["max_candidates"])
    )[0]
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
    ctx = _ctx(cfg)
    w = _parse_fraclist(cfg["w"])
    cfg["w"] = [frac_str(x) for x in w]
    cctx = congruence_context(len(w), int(cfg["q"]), w, ctx)
    f, f_obj = _parse_f(cfg["f"], ctx)
    cfg["f"] = f_obj
    if f.kind == "product-box" and len(f.intervals) != cctx.d:
        raise ConfigError(
            f"test function has {len(f.intervals)} coordinates, w has {cctx.d}"
        )
    depth = _parse_depth(cfg.get("depth"))
    sv = second_moment_rhs(
        f, cctx, int(cfg["t_max"]), float(cfg["real_bound"]), depth,
        int(cfg["max_terms"]),
    )
    cfg["depth"] = {str(p): k for p, k in sv.depth.items()}
    header = ["q", "t_max", "real_bound", "value", "value_float",
              "tail_bound", "terms_used"]
    rows = [[cctx.q, sv.t_max, sv.real_bound, sv.value, float(sv.value),
             sv.tail_bound, sv.terms_used]]
    _emit("moment-rhs", cfg, out_dir, header, rows, [
        f"series value ~ {_exact_summary(sv.value)}",
        f"tail bound = {sv.tail_bound!r} over {sv.terms_used} pair terms",
    ], t0=t0)
    return 0


def _cmd_variance(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    if cfg.get("seed") is None:
        raise ConfigError("--seed is required for variance")
    seed = int(cfg["seed"])
    space = _space(cfg, ctx)
    f, box_obj = _parse_f(cfg["box"], ctx)
    cfg["box"] = box_obj
    if f.kind != "sbox":
        raise ConfigError("variance needs a disk:R box")
    check = variance_check(
        space, f.box, float(cfg["threshold"]), int(cfg["n"]), seed,
        _threads(cfg), int(cfg["max_candidates"]),
    )
    vol = f.box.volume(space.d)
    header = ["space", "d", "volume", "threshold", "empirical_prob", "bound",
              "stderr", "observed_constant", "n", "seed"]
    rows = [[space.kind, space.d, vol, float(cfg["threshold"]),
             check.empirical_prob, check.bound, check.stderr,
             check.observed_constant, check.n_samples, check.seed]]
    _emit("variance", cfg, out_dir, header, rows, [
        f"P(|count - vol| > {float(cfg['threshold'])!r}) = "
        f"{check.empirical_prob!r} vs bound {check.bound!r} "
        f"(binomial stderr {check.stderr:.3g})",
    ], seed=seed, t0=t0)
    return 0


def _cmd_orbit(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    w = _parse_fraclist(cfg["w"])
    cfg["w"] = [frac_str(x) for x in w]
    cctx = congruence_context(len(w), int(cfg["q"]), w, ctx)
    f, f_obj = _parse_f(cfg["f"], ctx)
    cfg["f"] = f_obj
    y = _parse_fraclist(cfg["y"])
    cfg["y"] = [frac_str(x) for x in y]
    sv = inhom_series(f, y, cctx, int(cfg["t_max"]), int(cfg["max_terms"]))
    header = ["q", "t_max", "value", "value_float", "tail_bound", "terms_used"]
    rows = [[cctx.q, sv.t_max, sv.value, float(sv.value), sv.tail_bound,
             sv.terms_used]]
    _emit("orbit", cfg, out_dir, header, rows, [
        f"orbital series ~ {_exact_summary(sv.value)} "
        f"(tail <= {sv.tail_bound:.3g}, {sv.terms_used} terms)",
    ], t0=t0)
    return 0


def _cmd_rescale_check(cfg, out_dir, t0):
    ctx = _ctx(cfg)
    q_form, form_obj = _parse_form(cfg["form"], ctx)
    cfg["form"] = form_obj
    family = _family(cfg, q_form.dim)
    t = _parse_tvec(cfg["t"], ctx)
    cfg["t"] = _tvec_json(t)
    q = int(cfg["q"])
    w = (
        _parse_fraclist(cfg["w"]) if cfg.get("w") is not None
        else (Fraction(0),) * q_form.dim
    )
    if len(w) != q_form.dim:
        raise ConfigError(f"w has {len(w)} entries, the form has {q_form.dim}")
    cfg["w"] = [frac_str(x) for x in w]
    ok = rescale_identity_check(
        (q, w), q_form, family, t, int(cfg["max_candidates"])
    )
    header = ["q", "t_inf"] + [f"t_{p}" for p in ctx.primes] + ["ok"]
    rows = [[q, Fraction(t.t_inf)] + [t.t_p[p] for p in ctx.primes] + [ok]]
    _emit("rescale-check", cfg, out_dir, header, rows, [
        f"rescaling identity at q={q}: {'holds' if ok else 'VIOLATED'}",
    ], t0=t0)
    if not ok:
        raise MethodDisagreement("congruence and rescaled counts differ")
    return 0


# --- argument parsing -------------------------------------------------------------------


_COMMANDS: dict = {}


def _register(name, handler, defaults, required):
    _COMMANDS[name] = (handler, defaults, required)


_register("zeta", _cmd_zeta, {"d": None, "primes": None, "tol": 1e-9},
          ["d", "primes"])
_register("group-order", _cmd_group_order, {"d": None, "q": None}, ["d", "q"])
_register("identity-check", _cmd_identity_check,
          {"d": None, "q": None, "primes": None, "method": "series",
           "tol": 1e-6, "zeta_tol": 1e-9},
          ["d", "q", "primes"])
_register("covolume", _cmd_covolume,
          {"d": None, "primes": None, "variant": "UL", "tol": 1e-9},
          ["d", "primes"])

_FAMILY_DEFAULTS = {"c_inf": None, "kappa_inf": 0.0, "a_inf": "0", "finite": None}
_register("count", _cmd_count,
          {"form": None, "primes": None, "q": None, "w": None, "xi": None,
           "c_q": None, "t": None, "max_candidates": DEFAULT_MAX_CANDIDATES,
           **_FAMILY_DEFAULTS},
          ["form", "primes", "c_inf", "t"])
_register("sweep", _cmd_sweep,
          {"form": None, "primes": None, "q": None, "w": None, "xi": None,
           "ladder": None, "budget_s": None,
           "max_candidates": DEFAULT_MAX_CANDIDATES, **_FAMILY_DEFAULTS},
          ["form", "primes", "c_inf", "ladder"])
_register("volume", _cmd_volume,
          {"form": None, "primes": None, "t": None,
           "method": "standardized-integral", "n_grid": None,
           "n_samples": 400_000, "seed": None, "leading": False, "t0": 24.0,
           "rungs": 5, **_FAMILY_DEFAULTS},
          ["form", "primes", "c_inf", "t"])

_MCMC_DEFAULTS = {"sampler": "auto", "mcmc_eps": 0.25, "mcmc_burn_in": 1000,
                  "mcmc_thin": 30, "depth": None, "threads": None}
_register("moment-mc", _cmd_moment_mc,
          {"space": None, "d": None, "primes": None, "q": None, "w": None,
           "f": None, "order": "1,2", "n": 10_000, "seed": None,
           "max_candidates": ENUM_MAX_CANDIDATES, **_MCMC_DEFAULTS},
          ["space", "d", "primes", "f"])
_register("moment-rhs", _cmd_moment_rhs,
          {"primes": None, "q": None, "w": None, "f": None, "t_max": 16,
           "real_bound": 24.0, "depth": None, "max_terms": 5_000_000},
          ["primes", "q", "w", "f"])
_register("variance", _cmd_variance,
          {"space": None, "d": None, "primes": None, "q": None, "w": None,
           "box": None, "threshold": None, "n": 10_000, "seed": None,
           "max_candidates": ENUM_MAX_CANDIDATES, **_MCMC_DEFAULTS},
          ["space", "d", "primes", "box", "threshold"])
_register("orbit", _cmd_orbit,
          {"primes": None, "q": None, "w": None, "f": None, "y": None,
           "t_max": 32, "max_terms": 5_000_000},
          ["primes", "q", "w", "f", "y"])
_register("rescale-check", _cmd_rescale_check,
          {"form": None, "primes": None, "q": 1, "w": None, "t": None,
           "max_candidates": DEFAULT_MAX_CANDIDATES, **_FAMILY_DEFAULTS},
          ["form", "primes", "c_inf", "t"])


def _add_family_flags(sp):
    sp.add_argument("--c-inf", help="real interval scale c (rational)")
    sp.add_argument("--kappa-inf", type=float, help="real shrink rate kappa")
    sp.add_argument("--a-inf", help="real interval center (rational)")
    sp.add_argument("--finite", help="finite targets p:a:c:kappa[,...]")


def _add_space_flags(sp):
    sp.add_argument("--space", help="base | affine | congruence")
    sp.add_argument("--d", type=int, help="dimension")
    sp.add_argument("--q", type=int, help="congruence level")
    sp.add_argument("--w", help="congruence shift w (comma rationals)")
    sp.add_argument("--depth", help="sampler depth k or p=k[,...]")
    sp.add_argument("--sampler", choices=["auto", "exact", "mcmc"])
    sp.add_argument("--mcmc-eps", type=float)
    sp.add_argument("--mcmc-burn-in", type=int)
    sp.add_argument("--mcmc-thin", type=int)
    sp.add_argument("--threads", type=int,
                    help=f"worker streams (default ${ENV_THREADS} or 1)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqcount",
        description="Seeded batch experiments; each run writes CSV plus a "
                    "JSON manifest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config or a previous manifest")
        sp.add_argument("--out", help="output directory (default: .)")
        return sp

    sp = new("zeta", "zeta_S series vs the Euler product")
    sp.add_argument("--d", type=int)
    sp.add_argument("--primes", help="finite places, e.g. 2,3")
    sp.add_argument("--tol", type=float)

    sp = new("group-order", "#SL_d(Z/q) with the Mobius cross-check")
    sp.add_argument("--d", type=int)
    sp.add_argument("--q", type=int)

    sp = new("identity-check", "normalization identity residual")
    sp.add_argument("--d", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--primes")
    sp.add_argument("--method", choices=["series", "closed"])
    sp.add_argument("--tol", type=float, help="residual tolerance (exit 3 above)")
    sp.add_argument("--zeta-tol", type=float, help="series truncation tolerance")

    sp = new("covolume", "covolume constant")
    sp.add_argument("--d", type=int)
    sp.add_argument("--primes")
    sp.add_argument("--variant", choices=["UL", "SL"])
    sp.add_argument("--tol", type=float)

    def counting_flags(sp, with_t=True):
        sp.add_argument("--form", help='"diag:1,1,-1" or a form JSON file')
        sp.add_argument("--primes")
        sp.add_argument("--q", type=int, help="congruence level")
        sp.add_argument("--w", help="congruence shift (comma rationals)")
        sp.add_argument("--xi", help="inhomogeneous shift (comma rationals)")
        _add_family_flags(sp)
        if with_t:
            sp.add_argument("--t", help='scale "T_inf[@p=t_p,...]"')
        sp.add_argument("--max-candidates", type=int)

    sp = new("count", "one exact count vs its prediction")
    counting_flags(sp)
    sp.add_argument("--c-q", type=float, help="leading constant override")

    sp = new("sweep", "counts along a T ladder")
    counting_flags(sp, with_t=False)
    sp.add_argument("--ladder", help='rungs "T[@p=t_p];T[@p=t_p];..."')
    sp.add_argument("--budget-s", type=float, help="soft wall-clock budget")

    sp = new("volume", "real x p-adic quadric volumes")
    sp.add_argument("--form")
    sp.add_argument("--primes")
    _add_family_flags(sp)
    sp.add_argument("--t", help='scale "T_inf[@p=t_p,...]"')
    sp.add_argument("--method",
                    choices=["standardized-integral", "montecarlo", "cross"])
    sp.add_argument("--n-grid", type=int)
    sp.add_argument("--n-samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--leading", action="store_const", const=True,
                    help="also extrapolate the leading constant c_Q")
    sp.add_argument("--t0", type=float, help="leading-constant ladder start")
    sp.add_argument("--rungs", type=int, help="leading-constant ladder length")

    sp = new("moment-mc", "Monte Carlo transform moments")
    _add_space_flags(sp)
    sp.add_argument("--primes")
    sp.add_argument("--f", help='"disk:R[@p=e]", "box:lo..hi,...[@p=e]", or JSON')
    sp.add_argument("--order", help="1, 2, or 1,2")
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-candidates", type=int)

    sp = new("moment-rhs", "exact second-moment series")
    sp.add_argument("--primes")
    sp.add_argument("--q", type=int)
    sp.add_argument("--w")
    sp.add_argument("--f")
    sp.add_argument("--t-max", type=int)
    sp.add_argument("--real-bound", type=float)
    sp.add_argument("--depth", help="series denominator depth k or p=k[,...]")
    sp.add_argument("--max-terms", type=int)

    sp = new("variance", "empirical exceedance vs the Chebyshev bound")
    _add_space_flags(sp)
    sp.add_argument("--primes")
    sp.add_argument("--box", help='"disk:R[@p=e,...]"')
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-candidates", type=int)

    sp = new("orbit", "exact orbital series at a rational point")
    sp.add_argument("--primes")
    sp.add_argument("--q", type=int)
    sp.add_argument("--w")
    sp.add_argument("--f")
    sp.add_argument("--y", help="evaluation point (comma rationals)")
    sp.add_argument("--t-max", type=int)
    sp.add_argument("--max-terms", type=int)

    sp = new("rescale-check", "congruence/inhomogeneous rescaling identity")
    sp.add_argument("--form")
    sp.add_argument("--primes")
    sp.add_argument("--q", type=int)
    sp.add_argument("--w")
    _add_family_flags(sp)
    sp.add_argument("--t")
    sp.add_argument("--max-candidates", type=int)

    return parser


def _resolve(args, defaults: dict, command: str) -> dict:
    cfg = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command}: {sorted(unknown)}"
            )
        cfg.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("command", "config", "out") or value is None:
            continue
        cfg[key] = value
    return cfg


def _require(cfg: dict, required, command: str):
    missing = [key for key in required if cfg.get(key) is None]
    if missing:
        flags = ", ".join("--" + key.replace("_", "-") for key in missing)
        raise ConfigError(f"{command} needs {flags}")


def main(argv=None) -> int:
    # exact series values can exceed Python's default 4300-digit limit on
    # int -> str conversion, and every output renders them as decimal
    # strings; the limit is lifted for this call only
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10
        return _run(argv)
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(old_limit)


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    handler, defaults, required = _COMMANDS[args.command]
    t0 = time.perf_counter()
    try:
        cfg = _resolve(args, defaults, args.command)
        _require(cfg, required, args.command)
        return handler(cfg, Path(args.out or "."), t0)
    except ConfigError as exc:
        print(f"{args.command}: config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"{args.command}: budget/tolerance failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
