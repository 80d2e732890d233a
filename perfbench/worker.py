"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --src DIR --out DIR
        --result FILE [--traced]

A pass runs every invocation of the workload in order through
``sqcount.cli.main``, each with a fresh --out directory and a wall cap,
then checks the outputs against the oracles.  Each timing comes with the
time of a fixed calibration job run next to it, which measures the host's
speed at that moment.  The result is written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

# wall cap per invocation; the slowest invocation takes about 7 s
INVOCATION_CAP_S = 60.0


class WallCap(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in sqcount eats it."""


def _on_alarm(signum, frame):
    raise WallCap


def calibrate() -> float:
    """Seconds for a fixed pure-Python job: an integer loop and a Fraction sum.

    It times the host, not sqcount: the worker and the set-up probe run it
    next to each measurement.
    """
    start = time.perf_counter()
    s = 0
    for i in range(600_000):
        s += i * i % 7
    f = Fraction(0)
    for k in range(1, 300):
        f += Fraction(1, k * k)
    return time.perf_counter() - start


def _import_cli(src: Path):
    from sqcount import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"sqcount imported from {cli.__file__}, not {src}")
    return cli


def _where(exc) -> str:
    """module.function of the innermost sqcount frame an exception passed."""
    # walk_tb reads no source lines, so the pass's peak RSS does not grow
    codes = [frame.f_code for frame, _ in traceback.walk_tb(exc.__traceback__)]
    for code in reversed(codes):
        path = Path(code.co_filename)
        if path.parent.name == "sqcount":
            return f"sqcount.{path.stem}.{code.co_name}"
    return codes[-1].co_name if codes else "?"


def _invoke(cli, argv, tracer) -> tuple:
    """(exit code or None, error or None) of one capped cli.main call."""
    signal.setitimer(signal.ITIMER_REAL, INVOCATION_CAP_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return cli.main(argv), None
            with tracer.span("cli"):
                return cli.main(argv), None
    except WallCap:
        return None, f"wall cap of {INVOCATION_CAP_S:g} s reached"
    except SystemExit as exc:
        return None, f"SystemExit({exc.code})"
    except Exception as exc:  # an uncaught exception is a failed invocation
        return None, f"uncaught {type(exc).__name__} in {_where(exc)}: {str(exc)[:160]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _check(inv, out_dir: Path, rc, error, seed: int) -> dict:
    res = {"problem": error, "csv_sha256": None, "order1": None}
    if error is not None:
        return res
    if rc != 0:
        res["problem"] = f"exit code {rc}"
        return res
    path = out_dir / inv.csv
    if not path.is_file():
        res["problem"] = f"exit 0 but no {inv.csv}"
        return res
    data = path.read_bytes()
    res["csv_sha256"] = hashlib.sha256(data).hexdigest()
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        res["problem"] = inv.check(rows, seed)
        for row in rows:
            if row.get("order") == "1":
                res["order1"] = {"mean": float(row["mean"]), "stderr": float(row["stderr"])}
    except (KeyError, IndexError, ValueError) as exc:
        res["problem"] = f"malformed {inv.csv}: {type(exc).__name__}: {exc}"
    return res


def run_pass(workload, seed: int, src: Path, out: Path, traced: bool) -> dict:
    cli = _import_cli(src)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    runs = []
    calib = [calibrate()]
    for inv in workload.invocations:
        out_dir = out / inv.name
        out_dir.mkdir(parents=True, exist_ok=False)
        start = time.perf_counter()
        rc, error = _invoke(cli, inv.argv(seed) + ["--out", str(out_dir)], tracer)
        runs.append((inv, out_dir, rc, error, time.perf_counter() - start))
        calib.append(calibrate())
    # peak RSS before the oracles run, so it belongs to the workload.  The
    # largest peak among child processes (a process pool behind --threads)
    # is added to the worker's own; getrusage reports no other child's.
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_rss_mb = (own.ru_maxrss + children.ru_maxrss) / 1024.0
    csv.field_size_limit(sys.maxsize)
    invocations = []
    for i, (inv, out_dir, rc, error, seconds) in enumerate(runs):
        rec = {"name": inv.name, "seconds": seconds, "rc": rc,
               "calib_s": (calib[i] + calib[i + 1]) / 2}
        rec.update(_check(inv, out_dir, rc, error, seed))
        invocations.append(rec)
    result = {"peak_rss_mb": peak_rss_mb, "invocations": invocations,
              # the tracer sees only this process; work in children is not in its spans
              "children_cpu_s": children.ru_utime + children.ru_stime}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["counts"]["serialize.bytes"] = sum(
            f.stat().st_size for _, out_dir, *_ in runs for f in out_dir.iterdir())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(workloads.WORKLOADS[args.workload], args.seed, args.src,
                      args.out, args.traced)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
