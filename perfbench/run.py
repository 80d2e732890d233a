"""sqcount benchmark: seeded CLI experiments, timed end to end and traced by layer.

    python3 perfbench/run.py --workload count|mc|exact|all --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports sqcount from ./src.  A run
times a fresh interpreter's set-up several times, then runs passes over
the workload's invocations (perfbench/workloads.py) for S seconds, one
fresh worker process per pass, and checks every output against its oracle.
End-to-end times are medians over probes or passes, scaled to a reference
host speed by a calibration job timed next to each measurement.  With
--trace 1, passes alternate between untraced and traced; the traced ones
give the per-layer metrics (in measured seconds) and the pair gives the
tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are the run
record: each invocation's time to solution, failures by name, and CSV
sha256 digests.  --workload all runs the three workloads in turn and
reports the metrics under per-workload names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
# every run must end within 180 s; a pass still running at this point is killed
RUN_LIMIT_S = 165.0
# median of this many set-up probes, after one untimed warm-up probe
SETUP_PROBES = 7
# About the fastest worker.calibrate() time on the 2-core x86-64 box the
# benchmark was written on.  Times are reported at that host speed: each
# measured time is scaled by CALIB_REF_S over the calibration time taken
# next to it.  The host's speed drifted by up to 2x over minutes there; the
# scaling cut the run-to-run spread of the medians about threefold.
CALIB_REF_S = 0.055

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "part_a_s": "s",
    "part_b_s": "s",
}

PER_LAYER = {
    "counting.count.self_s": "s",
    "counting.count.calls": "count",
    "counting.count.errors": "count",
    "counting.points": "count",
    "counting.points_per_s": "1/s",
    "counting.predict.self_s": "s",
    "slattice.enumerate.self_s": "s",
    "slattice.enumerate.calls": "count",
    "slattice.points": "count",
    "slattice.points_per_s": "1/s",
    "moments.sample.self_s": "s",
    "moments.draws": "count",
    "moments.sample.ms_per_draw": "ms",
    "moments.estimate.self_s": "s",
    "moments.work_var": "s",
    "moments.series.self_s": "s",
    "moments.series.terms": "count",
    "moments.series.terms_per_s": "1/s",
    "congruence.coset.self_s": "s",
    "congruence.coset.calls": "count",
    "volume.padic.self_s": "s",
    "volume.padic.calls": "count",
    "volume.real.self_s": "s",
    "volume.real.calls": "count",
    "volume.leading.self_s": "s",
    "serialize.self_s": "s",
    "serialize.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _rate(n, seconds):
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass (without the overhead)."""
    summary = tracer.summarize(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    points = counts.get("counting.points", 0)
    found = counts.get("slattice.points", 0)
    draws = counts.get("moments.draws", 0)
    terms = counts.get("moments.series.terms", 0)
    out = {
        "counting.count.self_s": get("counting.count", "self_s"),
        "counting.count.calls": get("counting.count", "calls"),
        "counting.count.errors": get("counting.count", "errors"),
        "counting.points": points,
        "counting.points_per_s": _rate(points, get("counting.count", "self_s")),
        "counting.predict.self_s": get("counting.predict", "self_s"),
        "slattice.enumerate.self_s": get("slattice.enumerate", "self_s"),
        "slattice.enumerate.calls": get("slattice.enumerate", "calls"),
        "slattice.points": found,
        "slattice.points_per_s": _rate(found, get("slattice.enumerate", "self_s")),
        "moments.sample.self_s": get("moments.sample", "self_s"),
        "moments.draws": draws,
        "moments.sample.ms_per_draw":
            1000.0 * get("moments.sample", "total_s") / draws if draws else 0.0,
        "moments.estimate.self_s": get("moments.estimate", "self_s"),
        "moments.series.self_s": get("moments.series", "self_s"),
        "moments.series.terms": terms,
        "moments.series.terms_per_s": _rate(terms, get("moments.series", "self_s")),
        "congruence.coset.self_s": get("congruence.coset", "self_s"),
        "congruence.coset.calls": get("congruence.coset", "calls"),
        "volume.padic.self_s": get("volume.padic", "self_s"),
        "volume.padic.calls": get("volume.padic", "calls"),
        "volume.real.self_s": get("volume.real", "self_s"),
        "volume.real.calls": get("volume.real", "calls"),
        "volume.leading.self_s": get("volume.leading", "self_s"),
        "serialize.self_s": get("serialize", "self_s"),
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "cli.self_s": get("cli", "self_s"),
    }
    return out


class Runner:
    def __init__(self, root: Path, scratch: Path, seed: int):
        self.root = root
        self.scratch = scratch
        self.seed = seed
        self._jobs = 0

    def _launch(self, script, args, timeout):
        """JSON result of one fresh interpreter, or None if it ran out of time."""
        if timeout <= 0:
            return None
        self._jobs += 1
        result = self.scratch / f"{self._jobs:03d}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("SQCOUNT_THREADS", None)
        cmd = [sys.executable, str(HERE / script)] + args(result)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            raise BenchError(f"{script} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-600:]}")
        return json.loads(result.read_text(encoding="utf-8"))

    def probe(self, workload, timeout):
        first = workloads.WORKLOADS[workload].invocations[0]
        return self._launch(
            "probe.py",
            lambda result: [str(result), str(self.root / "src"), *first.argv(self.seed)],
            timeout)

    def run_pass(self, workload, timeout, traced):
        def args(result):
            out = ["--workload", workload, "--seed", str(self.seed),
                   "--src", str(self.root / "src"), "--out", str(result.with_suffix("")),
                   "--result", str(result)]
            return out + ["--traced"] if traced else out
        return self._launch("worker.py", args, timeout)

    def measure(self, name: str, seconds: float, trace: bool) -> dict:
        """Set-up probes and passes for one workload, checked and aggregated."""
        workload = workloads.WORKLOADS[name]
        deadline = time.monotonic() + RUN_LIMIT_S

        def left():
            return deadline - time.monotonic()

        setup = []
        for i in range(SETUP_PROBES + 1):
            res = self.probe(name, left())
            if res is None:
                raise BenchError("set-up probes ran past the run limit")
            if i > 0:
                setup.append(res)

        # passes run back to back; another starts only if one more pass of
        # the last one's length still ends inside the window
        passes = []
        start = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            begun = time.monotonic()
            passes.append((traced, self.run_pass(name, left(), traced)))
            if passes[-1][1] is None:
                break
            now = time.monotonic()
            if now + (now - begun) - start > seconds and (not trace or len(passes) >= 2):
                break
        return aggregate(workload, passes, setup)


def _at_reference_speed(seconds, calib_s):
    return seconds * CALIB_REF_S / calib_s


def aggregate(workload, passes, setup) -> dict:
    invs = {inv.name: inv for inv in workload.invocations}
    record = {
        "workload": workload.name, "attempted": 0, "failed": 0,
        "unexpected": [], "known": {}, "notes": set(), "csv_sha256": {n: set() for n in invs},
        "problems": {n: set() for n in invs}, "setup_probes": len(setup),
        "passes": len(passes), "traced_passes": sum(t for t, _ in passes),
    }
    seconds = {n: [] for n in invs}
    measured = {n: [] for n in invs}
    walls = {False: [], True: []}
    parts = {"a": [], "b": []}
    rss, layers, order1 = [], [], {}
    for traced, res in passes:
        if res is None:
            record["attempted"] += len(invs)
            record["failed"] += len(invs)
            record["unexpected"].append(f"a pass was still running at {RUN_LIMIT_S:g} s")
            continue
        wall = 0.0
        part_sums = {"a": 0.0, "b": 0.0}
        for rec in res["invocations"]:
            inv = invs[rec["name"]]
            record["attempted"] += 1
            t = _at_reference_speed(rec["seconds"], rec["calib_s"])
            wall += t
            part_sums[inv.part] += t
            if not traced:
                seconds[inv.name].append(t)
                measured[inv.name].append(rec["seconds"])
            if rec["csv_sha256"]:
                record["csv_sha256"][inv.name].add(rec["csv_sha256"])
            if rec["order1"]:
                order1[inv.name] = rec["order1"]
            if rec["problem"]:
                record["failed"] += 1
                record["problems"][inv.name].add(rec["problem"])
                if not inv.is_known(rec["problem"]):
                    record["unexpected"].append(f"{inv.name}: {rec['problem']}")
        walls[traced].append(wall)
        if res["children_cpu_s"] > 0:
            record["notes"].add(
                "worker child processes ran; peak_rss_mb adds the largest child's "
                "peak, and per-layer spans cover only the worker process")
        if traced:
            covered = sum(tracer.self_times(res["spans"]))
            traced_wall = sum(rec["seconds"] for rec in res["invocations"])
            if abs(covered - traced_wall) > 0.01 * traced_wall:
                record["unexpected"].append(
                    f"traced self times sum to {covered:.4f} s, "
                    f"traced wall is {traced_wall:.4f} s")
            layers.append(layer_metrics(res["spans"], res["counts"]))
        else:
            rss.append(res["peak_rss_mb"])
            for part in parts:
                parts[part].append(part_sums[part])

    if not walls[False]:
        raise BenchError("no untraced pass completed")
    per_inv = {n: statistics.median(v) for n, v in seconds.items()}
    record["invocation_s"] = per_inv
    record["measured_s"] = {n: statistics.median(v) for n, v in measured.items()}
    record["end_to_end"] = {
        "wall_s": statistics.median(walls[False]),
        "setup_s": statistics.median(
            _at_reference_speed(p["setup_s"], p["calib_s"]) for p in setup),
        "peak_rss_mb": max(rss),
        "part_a_s": statistics.median(parts["a"]),
        "part_b_s": statistics.median(parts["b"]),
    }
    record["mc_work_var"] = sum(
        (o["stderr"] / o["mean"]) ** 2 * per_inv[n] for n, o in order1.items()
    )
    if layers:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["moments.work_var"] = record["mc_work_var"]
        per_layer["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        record["per_layer"] = per_layer
    for name, inv in invs.items():
        if record["problems"][name] and all(map(inv.is_known, record["problems"][name])):
            record["known"][name] = inv.known_defect
    return record


def print_record(record, trace: bool):
    w = record["workload"]
    print(f"== workload {w}: {record['passes']} passes "
          f"({record['traced_passes']} traced), {record['setup_probes']} set-up probes")
    for name, secs in record["invocation_s"].items():
        problems = sorted(record["problems"][name])
        status = "ok" if not problems else "FAILED: " + " | ".join(problems)
        if name in record["known"]:
            status += f" [known defect: {record['known'][name]}]"
        shas = ",".join(sorted(s[:16] for s in record["csv_sha256"][name])) or "-"
        print(f"  {name}_s = {secs:.4f} s (measured {record['measured_s'][name]:.4f} s)"
              f"  csv sha256 {shas}  {status}")
    e2e = record["end_to_end"]
    for key, unit in END_TO_END.items():
        print(f"  {key} = {e2e[key]:.6g} {unit}")
    print(f"  fail_frac = {record['failed']}/{record['attempted']}"
          f" = {record['failed'] / record['attempted']:.4g} ratio")
    if w == "mc":
        print(f"  mc_work_var = {record['mc_work_var']:.6g} s")
    if trace:
        for key, unit in PER_LAYER.items():
            print(f"  {key} = {record['per_layer'][key]:.6g} {unit}")
    for line in sorted(record["notes"]):
        print(f"  NOTE: {line}")
    for line in record["unexpected"]:
        print(f"  UNEXPECTED: {line}")


def reported(record, trace: bool, prefix: str = "") -> dict:
    """name -> (value, unit) of the metrics BENCHMARK.json lists."""
    source, units = (
        (record["per_layer"], PER_LAYER) if trace else (record["end_to_end"], END_TO_END)
    )
    return {prefix + k: (source[k], units[k]) for k in units}


def per_invocation(record) -> dict:
    """The run record's own names: invocation times, failure share, mc_work_var."""
    out = {f"{n}_s": (v, "s") for n, v in record["invocation_s"].items()}
    out[f"{record['workload']}.fail_frac"] = (record["failed"] / record["attempted"], "ratio")
    if record["workload"] == "mc":
        out["mc_work_var"] = (record["mc_work_var"], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sqcount" / "cli.py").is_file():
        print("perfbench: run from a checkout with src/sqcount", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    scratch_root = root / ".perfbench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        runner = Runner(root, scratch, args.seed)
        records = [runner.measure(n, args.seconds, trace) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for record in records:
        print_record(record, trace)
    if args.workload == "all":
        metrics = {}
        for record in records:
            metrics.update(reported(record, trace, f"{record['workload']}."))
            if not trace:
                metrics.update(per_invocation(record))
    else:
        metrics = reported(records[0], trace)
    print(json.dumps({
        "correct": not any(r["unexpected"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
