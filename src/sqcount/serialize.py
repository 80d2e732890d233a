"""JSON object schemas and CSV plumbing for batch experiment runs.

Rationals travel as "num/den" strings so nothing exact gets rounded on the
way through a file; floats are rendered with repr (shortest round-trip),
which is what makes the byte-identical rerun contract checkable. Run
manifests embed the fully resolved configuration, so a manifest is itself
a valid --config input for the command that wrote it.
"""

from __future__ import annotations

import csv
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
from .sarith import SConfig, TVector
from .slattice import (
    SBox,
    TestFunction,
    indicator_product_box,
    indicator_sbox,
)


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


def frac_str(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def cell(x) -> str:
    """Deterministic CSV cell rendering."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return str(int(x))
    return str(x)


def jsonable(x):
    """Recursive conversion to JSON-encodable values; Fractions to strings,
    a scale vector to {"t_inf": ..., "t_p": {"p": e}}."""
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, TVector):
        return {"t_inf": frac_str(x.t_inf), "t_p": jsonable(x.t_p)}
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# --- quadratic forms ----------------------------------------------------------


def _matrix_from_json(rows) -> tuple:
    return tuple(tuple(parse_frac(x) for x in row) for row in rows)


def form_from_json(obj: dict, ctx: SConfig) -> QuadraticFormS:
    """Form from {"gram_inf": [[...]], "gram_p": {"p": [[...]]},
    "shift": [...], "shift_p": {"p": [...]}}; entries are rationals."""
    if not isinstance(obj, dict) or "gram_inf" not in obj:
        raise ConfigError("form object needs a gram_inf matrix")
    gram_inf = _matrix_from_json(obj["gram_inf"])
    gram_p = {
        int(p): _matrix_from_json(rows)
        for p, rows in (obj.get("gram_p") or {}).items()
    }
    shift = obj.get("shift")
    if shift is not None:
        shift = tuple(parse_frac(x) for x in shift)
    shift_p = {
        int(p): tuple(parse_frac(x) for x in vec)
        for p, vec in (obj.get("shift_p") or {}).items()
    }
    return quadratic_form(ctx, gram_inf, gram_p or None, shift, shift_p or None)


# --- test functions --------------------------------------------------------------


def testfn_from_json(obj: dict, ctx: SConfig) -> TestFunction:
    """Indicator from {"kind": "disk", "radius": ..., "t_p": {"p": e}} or
    {"kind": "box", "intervals": [[lo, hi], ...],
     "finite_exponent": {"p": e}, "finite_center": {"p": [c1, ...]}}."""
    kind = obj.get("kind")
    if kind == "disk":
        t_p = {int(p): int(e) for p, e in (obj.get("t_p") or {}).items()}
        t = TVector(parse_frac(obj.get("radius", 1)), t_p, ctx)
        center = obj.get("center")
        if center is not None:
            center = tuple(parse_frac(x) for x in center)
        return indicator_sbox(SBox(t, center))
    if kind == "box":
        intervals = [
            (parse_frac(lo), parse_frac(hi)) for lo, hi in obj["intervals"]
        ]
        exponent = {
            int(p): int(e) for p, e in (obj.get("finite_exponent") or {}).items()
        }
        center = {
            int(p): tuple(parse_frac(x) for x in vec)
            for p, vec in (obj.get("finite_center") or {}).items()
        }
        return indicator_product_box(intervals, exponent, center)
    raise ConfigError(f"unknown test function kind {kind!r}")


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


def load_config(path) -> dict:
    """Parameter dict from a config file or a previous run's manifest."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(obj, dict) and isinstance(obj.get("config"), dict):
        obj = obj["config"]
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return obj
