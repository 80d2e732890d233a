"""Checks of the benchmark's own machinery: tracer, oracles, metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_self_times_sum_to_root_durations():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    def mid():
        leaf()
        with t.span("leaf2"):
            time.sleep(0.001)
        leaf()

    leaf = t.wrap(leaf, "leaf")
    mid = t.wrap(mid, "mid")
    with t.span("root"):
        mid()
        time.sleep(0.001)
    with t.span("root"):
        leaf()
    roots = sum(s[tracer.END] - s[tracer.START] for s in t.spans if s[tracer.PARENT] is None)
    assert sum(tracer.self_times(t.spans)) == pytest.approx(roots, abs=1e-9)
    summary = tracer.summarize(t.spans)
    assert summary["leaf"]["calls"] == 3
    assert summary["mid"]["self_s"] < summary["mid"]["total_s"]


def test_stream_spans_time_each_next_and_count_draws():
    t = tracer.Tracer()

    def gen():
        while True:
            yield 1

    stream = t.wrap_stream(gen, "sample", "draws")
    with t.span("root"):
        it = stream()
        for _ in range(5):
            next(it)
        it.close()
    assert t.counts["draws"] == 5
    assert [s[tracer.NAME] for s in t.spans].count("sample") == 5


def test_errors_are_recorded_and_reraised():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap(boom, "boom")()
    assert tracer.summarize(t.spans)["boom"]["errors"] == 1


def test_traced_cli_self_times_add_up_to_the_traced_wall(tmp_path):
    from sqcount import cli, counting, moments, slattice, volume

    original = slattice.enumerate_points
    t = tracer.Tracer()
    t.install()
    try:
        # every binding of a traced function holds the same wrapper
        assert moments.enumerate_points is slattice.enumerate_points
        assert moments.enumerate_points.__wrapped__ is original
        assert counting.leading_constant is volume.leading_constant is cli.leading_constant
        argv = ["count", "--form", "diag:1,1,1,-1", "--primes", "2",
                "--xi", "1/3,0,0,0", "--c-inf", "1", "--t", "8@2=1",
                "--out", str(tmp_path)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), t.span("cli"):
            assert cli.main(argv) == 0
        wall = time.perf_counter() - start
    finally:
        t.uninstall()
    assert moments.enumerate_points is slattice.enumerate_points is original
    summary = tracer.summarize(t.spans)
    assert summary["counting.count"]["calls"] == 1
    assert summary["volume.leading"]["calls"] == 1
    assert summary["serialize"]["calls"] == 2
    total_self = sum(agg["self_s"] for agg in summary.values())
    assert total_self == pytest.approx(wall, rel=0.01)
    metrics = run.layer_metrics(t.spans, t.counts)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(total_self, rel=1e-9)


def test_padic_bruteforce_reproduces_known_volumes():
    assert oracles.padic_volume_bruteforce((1, 1, 1, -1), 3, 2, Fraction(0), 3) == Fraction(5467, 2187)
    assert oracles.padic_volume_bruteforce((1, 1, 1, -1), 2, 3, Fraction(1), 4) == Fraction(129, 32)


@pytest.mark.parametrize("p,t,a,c", [(2, 0, 1, 3), (3, 1, 0, 1), (5, 0, 2, 2)])
def test_padic_bruteforce_matches_direct_enumeration(p, t, a, c):
    diag = (1, 2, -1)
    modulus = p ** (2 * t + c)
    target = p ** (2 * t) * a % modulus
    hits = sum(
        1 for y in product(range(modulus), repeat=3)
        if sum(k * v * v for k, v in zip(diag, y)) % modulus == target
    )
    want = Fraction(p) ** (3 * t) * Fraction(hits, modulus**3)
    assert oracles.padic_volume_bruteforce(diag, p, t, Fraction(a), c) == want


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_invoke_turns_crashes_and_the_wall_cap_into_failures(monkeypatch, tmp_path):
    import signal
    import types

    import worker
    from sqcount import cli

    def crash(argv):
        raise ValueError("boom")

    assert worker._invoke(types.SimpleNamespace(main=crash), [], None) == (
        None, "uncaught ValueError in crash: boom")
    monkeypatch.setattr(worker, "INVOCATION_CAP_S", 0.05)
    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        argv = ["count", "--form", "diag:1,1,1,-1", "--primes", "2",
                "--xi", "1/3,0,0,0", "--c-inf", "1", "--t", "30@2=1",
                "--out", str(tmp_path)]
        rc, error = worker._invoke(cli, argv, None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rc is None and error.startswith("wall cap")


def _pass(problems, seconds=1.0, children_cpu_s=0.0):
    invocations = [
        {"name": name, "seconds": seconds, "rc": 0, "problem": problem,
         "csv_sha256": None, "order1": None, "calib_s": run.CALIB_REF_S / 2}
        for name, problem in problems.items()
    ]
    return {"peak_rss_mb": 50.0, "invocations": invocations,
            "children_cpu_s": children_cpu_s}


def test_child_processes_are_noted_in_the_record():
    count = run.workloads.WORKLOADS["count"]
    setup = [{"setup_s": 0.2, "calib_s": run.CALIB_REF_S}]
    problems = {"count_d4": None, "sweep_d3": None}
    assert not run.aggregate(count, [(False, _pass(problems))], setup)["notes"]
    record = run.aggregate(count, [(False, _pass(problems, children_cpu_s=0.5))], setup)
    assert [n.startswith("worker child processes ran") for n in record["notes"]] == [True]


RHS_P23_CRASH = (
    "uncaught ValueError in sqcount.serialize.frac_str: Exceeds the limit (4300 digits) "
    "for integer string conversion; use sys.set_int_max_str_digits() to increase the limit")
VOL_2_WRONG = "vol_2 = 0, brute-force residue count gives 129/32"


def test_known_defects_count_as_failures_without_clearing_correct():
    exact = run.workloads.WORKLOADS["exact"]
    known = {"rhs_p2": None, "rhs_p23": RHS_P23_CRASH, "orbit_p23": None,
             "volume_deep": VOL_2_WRONG}
    setup = [{"setup_s": 0.2, "calib_s": run.CALIB_REF_S}]
    record = run.aggregate(exact, [(False, _pass(known)), (False, None)], setup)
    assert (record["attempted"], record["failed"]) == (8, 6)
    assert record["unexpected"] == [f"a pass was still running at {run.RUN_LIMIT_S:g} s"]
    assert set(record["known"]) == {"rhs_p23", "volume_deep"}
    record = run.aggregate(exact, [(False, _pass({**known, "rhs_p2": "bad"}))], setup)
    assert record["unexpected"] == ["rhs_p2: bad"]
    # calibration at half the reference time: a host twice as fast, so times count double
    assert record["end_to_end"]["part_a_s"] == 6.0
    assert record["end_to_end"]["setup_s"] == 0.2


@pytest.mark.parametrize("name,problem", [
    ("rhs_p23", "uncaught ValueError in sqcount.moments.second_moment_rhs: bad"),
    ("rhs_p23", "terms_used = 46211, expected 46212"),
    ("rhs_p23", "wall cap of 60 s reached"),
    ("volume_deep", VOL_2_WRONG + "; vol_3 = 1, brute-force residue count gives 5467/2187"),
    ("volume_deep", "vol_2 = 1/2, brute-force residue count gives 129/32"),
])
def test_other_problems_on_a_known_defect_invocation_are_unexpected(name, problem):
    exact = run.workloads.WORKLOADS["exact"]
    problems = {"rhs_p2": None, "rhs_p23": RHS_P23_CRASH, "orbit_p23": None,
                "volume_deep": VOL_2_WRONG, name: problem}
    setup = [{"setup_s": 0.2, "calib_s": run.CALIB_REF_S}]
    record = run.aggregate(exact, [(False, _pass(problems))], setup)
    assert record["unexpected"] == [f"{name}: {problem}"]
    assert name not in record["known"]


def _volume_row(**cells):
    row = {"vol_real": "2827.3945131548307", "vol_real_err": "0.033904190588008996",
           "vol_2": "0", "vol_3": "5467/2187", "vol_total": "0.0"}
    row.update(cells)
    return [row]


def test_volume_oracle_reports_every_wrong_column():
    inv = {i.name: i for i in run.workloads.WORKLOADS["exact"].invocations}["volume_deep"]
    assert inv.check(_volume_row(), 1) == VOL_2_WRONG
    assert inv.is_known(inv.check(_volume_row(), 1))
    wrong_3 = inv.check(_volume_row(vol_3="1"), 1)
    assert wrong_3 == VOL_2_WRONG + "; vol_3 = 1, brute-force residue count gives 5467/2187"
    assert not inv.is_known(wrong_3)
    wrong_real = inv.check(_volume_row(vol_real="2827.0", vol_real_err="0.01"), 1)
    assert wrong_real.startswith("vol_real = 2827.0 +- 0.01, closed form gives 2827.433")
    assert not inv.is_known(wrong_real)
    right = _volume_row(vol_2="129/32", vol_total=repr(2827.3945131548307 * 129 / 32 * 5467 / 2187))
    assert inv.check(right, 1) is None
    assert inv.check([{**right[0], "vol_total": "1.0"}], 1) == (
        "vol_total 1.0 is not vol_real x finite volumes")


@pytest.mark.parametrize("t,alpha,beta", [(30.0, -0.5, 0.5), (5.0, 0.3, 2.0),
                                          (5.0, -3.0, -1.0), (4.0, -1.0, 0.0)])
def test_closed_form_real_volume_matches_a_fine_quadrature(t, alpha, beta):
    import numpy as np

    n = 1_000_000
    s = (np.arange(n) + 0.5) * t / n
    lo = np.sqrt(np.maximum(0.0, s * s + alpha))
    hi = np.minimum(np.sqrt(np.maximum(0.0, s * s + beta)), np.sqrt(t * t - s * s))
    numeric = 8 * np.pi / 3 * np.sum(np.maximum(0.0, hi**3 - lo**3)) * t / n
    assert oracles.real_volume_31(t, alpha, beta) == pytest.approx(numeric, rel=1e-8)


def test_a_malformed_csv_is_a_failed_invocation(tmp_path):
    import worker

    inv = run.workloads.WORKLOADS["count"].invocations[0]
    (tmp_path / inv.csv).write_text("t_inf,t_2,count\n30,1,11462\n")
    problem = worker._check(inv, tmp_path, 0, None, 1)["problem"]
    assert problem.startswith("malformed count.csv: KeyError")
    (tmp_path / inv.csv).write_text("t_inf,t_2,n\n30,1,11462\n")
    assert worker._check(inv, tmp_path, 0, None, 1)["problem"] is None
