"""JSON object schemas and CSV plumbing for batch experiment runs.

Rationals travel as "num/den" strings so nothing exact gets rounded on the
way through a file; floats are rendered with repr (shortest round-trip),
which is what makes the byte-identical rerun contract checkable. Run
manifests embed the fully resolved configuration, so a manifest is itself
a valid --config input for the command that wrote it.
"""

from __future__ import annotations

import csv
import decimal
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .qspace import QuadraticFormS, quadratic_form
from .sarith import SConfig, TVector, require_in_s
from .slattice import ProductBox, SBox


# --- rationals and CSV cells -------------------------------------------------


def parse_frac(x) -> Fraction:
    """Exact rational from "num/den", "num", a decimal string, or a number.

    Floats are read through their decimal representation, so a config
    value 0.1 means 1/10, not the nearest binary double.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    try:
        return Fraction(str(x).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational: {x!r}") from exc


def parse_real(x) -> Fraction:
    """parse_frac of a rational that float code also reads: it must fit in
    a float, neither overflowing nor, when nonzero, rounding to 0."""
    value = parse_frac(x)
    try:
        fits = value == 0 or float(value) != 0
    except OverflowError:
        fits = False
    if not fits:
        raise ConfigError(f"{x} does not fit in a float")
    return value


def parse_int(v) -> int:
    """Integer from an int or a decimal string; a float, a bool or a
    non-integral string raises rather than truncating."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise TypeError("expected an integer")
    return int(v)


# CPython's int -> str takes time quadratic in the length, and refuses ints
# past sys.get_int_max_str_digits() (4300 digits by default, ~14,000 bits);
# longer ints are rebuilt as a Decimal from halves split on bits, so that
# libmpdec does the large multiplies in subquadratic time
_STR_BITS = 4096


def _int_str(n: int) -> str:
    """str(n), exactly, for ints of any length."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    powers = {}

    def pow2(k):
        if k not in powers:
            powers[k] = decimal.Decimal(2) ** k
        return powers[k]

    def to_dec(m, bits):
        if bits <= _STR_BITS:
            return decimal.Decimal(m)
        half = bits // 2
        top = m >> half
        return to_dec(top, bits - half) * pow2(half) + to_dec(m - (top << half), half)

    with decimal.localcontext() as ctx:
        # every partial value is at most |n|, of fewer than 0.31 digits per
        # bit; a tight precision holds less memory than MAX_PREC does
        ctx.prec = n.bit_length() * 31 // 100 + 10
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(to_dec(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def frac_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def cell(x) -> str:
    """Deterministic CSV cell rendering."""
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return _int_str(int(x))
    return str(x)


def jsonable(x):
    """Recursive conversion to JSON-encodable values; Fractions to strings,
    a scale vector to {"t_inf": ..., "t_p": {"p": e}}."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, TVector):
        return {"t_inf": frac_str(x.t_inf), "t_p": jsonable(x.t_p)}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# --- quadratic forms ----------------------------------------------------------
# read_* checks an object's shape and parses its entries without the
# S-configuration, so the CLI rejects a malformed object while it parses the
# config; *_from_json builds the domain object from the parsed fields.


def _typed(v, kind: type, what: str):
    if not isinstance(v, kind):
        name = "object" if kind is dict else "list"
        raise ConfigError(f"{what} must be a JSON {name}, got {v!r}")
    return v


def _per_prime(obj: dict, key: str) -> dict:
    """obj[key], an object keyed by prime; null or absent means empty."""
    return {int(p): x for p, x in _typed(obj.get(key) or {}, dict, key).items()}


def _exponents(obj: dict, key: str) -> dict:
    """obj[key], integer exponents keyed by prime."""
    out = {}
    for p, e in _per_prime(obj, key).items():
        try:
            out[p] = parse_int(e)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key} exponent {e!r}: {exc}") from exc
    return out


def _vector(v, what: str, parse=parse_frac) -> tuple:
    return tuple(parse(x) for x in _typed(v, list, what))


def _matrix(rows, what: str) -> tuple:
    out = tuple(_vector(row, what) for row in _typed(rows, list, what))
    if any(len(row) != len(out) for row in out):
        raise ConfigError(f"{what} must be a square matrix")
    return out


def _known_keys(obj: dict, keys: tuple, what: str):
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {what}; expected {', '.join(keys)}"
        )


def read_form(obj) -> tuple:
    """(gram_inf, gram_p) of {"gram_inf": [[...]], "gram_p": {"p": [[...]]}};
    entries are rationals.  The shift of an inhomogeneous count is --xi,
    never part of the form."""
    if not isinstance(obj, dict) or "gram_inf" not in obj:
        raise ConfigError("form object needs a gram_inf matrix")
    for key in ("shift", "shift_p"):
        if key in obj:
            raise ConfigError(f"a form has no {key}; pass the shift as --xi")
    _known_keys(obj, ("gram_inf", "gram_p"), "a form")
    gram_p = {p: _matrix(m, "gram_p") for p, m in _per_prime(obj, "gram_p").items()}
    return _matrix(obj["gram_inf"], "gram_inf"), gram_p or None


def form_from_json(obj: dict, ctx: SConfig) -> QuadraticFormS:
    return quadratic_form(ctx, *read_form(obj))


# --- test functions --------------------------------------------------------------


def read_testfn(obj) -> tuple:
    """(kind, fields) of {"kind": "disk", "radius": ..., "t_p": {"p": e},
    "center": [...]} or {"kind": "box", "intervals": [[lo, hi], ...],
    "finite_exponent": {"p": e}, "finite_center": {"p": [c1, ...]}}."""
    kind = _typed(obj, dict, "a test function").get("kind")
    if kind == "disk":
        _known_keys(obj, ("kind", "radius", "t_p", "center"), "a disk")
        t_p = _exponents(obj, "t_p")
        center = obj.get("center")
        if center is not None:
            center = _vector(center, "center", parse_real)
        return kind, (parse_real(obj.get("radius", 1)), t_p, center)
    if kind == "box":
        _known_keys(obj, ("kind", "intervals", "finite_exponent", "finite_center"),
                    "a box")
        intervals = [_vector(iv, "an interval", parse_real)
                     for iv in _typed(obj.get("intervals"), list, "intervals")]
        if any(len(iv) != 2 for iv in intervals):
            raise ConfigError("each interval must be [lo, hi]")
        exponent = _exponents(obj, "finite_exponent")
        center = {p: _vector(v, "finite_center")
                  for p, v in _per_prime(obj, "finite_center").items()}
        return kind, (intervals, exponent, center)
    raise ConfigError(f"unknown test function kind {kind!r}")


def testfn_from_json(obj: dict, ctx: SConfig) -> SBox | ProductBox:
    kind, fields = read_testfn(obj)
    if kind == "disk":
        radius, t_p, center = fields
        return SBox(TVector(radius, t_p, ctx), center)
    intervals, exponent, center = fields
    for key, per_prime in (("finite_exponent", exponent), ("finite_center", center)):
        require_in_s(per_prime, ctx.primes, f"{key} has an entry at")
    return ProductBox(intervals, exponent, center)


# --- CSV and manifests ------------------------------------------------------------


def render_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(x) for x in row])
    return buf.getvalue()


def write_csv(path, header, rows) -> str:
    """Write rows and return the sha256 of the bytes written."""
    data = render_csv(header, rows)
    Path(path).write_text(data, encoding="utf-8")
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def write_manifest(path, command: str, config: dict, seed, wall_s: float,
                   csv_name: str, csv_sha256: str, results: dict | None = None):
    doc = {
        "command": command,
        "config": jsonable(config),
        "seed": seed,
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_s": wall_s,
        "csv": csv_name,
        "csv_sha256": csv_sha256,
    }
    if results:
        doc["results"] = jsonable(results)
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_json_object(path) -> dict:
    """The JSON object a file holds; an unreadable file, malformed JSON or
    any other JSON value is a ConfigError naming the path."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return obj


def load_config(path) -> dict:
    """Parameter dict from a config file or a previous run's manifest."""
    obj = read_json_object(path)
    return obj["config"] if isinstance(obj.get("config"), dict) else obj
