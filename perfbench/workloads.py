"""The benchmark's workloads: real sqcount CLI invocations with their oracles.

Every workload is a list of invocations run one after another (a closed
loop with one client).  Each invocation belongs to part "a" or "b" of its
workload; the end-to-end metrics part_a_s and part_b_s are the times to
solution of the two parts, so a gain in one part cannot hide a loss in the
other.  Only the Monte Carlo invocations depend on the seed: their --seed
is the benchmark's seed.  The other invocations are exact computations on
fixed inputs.

An invocation with a known defect names it and gives the exact problem the
defect causes, as a regular expression.  Only a problem that matches it in
full is excused as known; any other problem on that invocation is a new
failure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import oracles


@dataclass(frozen=True)
class Invocation:
    name: str
    args: tuple
    part: str
    csv: str
    check: Callable
    known_defect: str | None = None
    known_problem: str | None = None  # regex the defect's problem matches in full
    seeded: bool = False

    def is_known(self, problem: str) -> bool:
        return self.known_problem is not None and re.fullmatch(
            self.known_problem, problem) is not None

    def argv(self, seed: int) -> list[str]:
        return list(self.args) + (["--seed", str(seed)] if self.seeded else [])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple


BOX3 = "box:-1..1,-1..1,-1..1"

COUNT = Workload(
    "count",
    "exact fiber counting: many short head rows (d=4) and few long rows "
    "(d=3, two primes); no sampler or enumerator runs",
    (
        Invocation(
            "count_d4",
            ("count", "--form", "diag:1,1,1,-1", "--primes", "2",
             "--xi", "1/3,0,0,0", "--c-inf", "1", "--t", "30@2=1"),
            "a", "count.csv", oracles.counts_are("n", [11462]),
        ),
        Invocation(
            "sweep_d3",
            ("sweep", "--form", "diag:1,1,-2", "--primes", "2,3", "--q", "5",
             "--w", "1,2,0", "--c-inf", "1",
             "--ladder", "200@2=1,3=1;400@2=1,3=1;800@2=1,3=1"),
            "b", "sweep.csv", oracles.counts_are("n", [432, 950, 2064]),
        ),
    ),
)

MC = Workload(
    "mc",
    "Monte Carlo moments: enumeration-bound d=2 congruence space and "
    "sampler-bound d=3 affine space; the fiber counter does not run",
    (
        Invocation(
            "mc_cong2",
            ("moment-mc", "--space", "congruence", "--d", "2", "--q", "5",
             "--w", "0,1", "--primes", "2,3", "--f", "disk:3@2=1",
             "--n", "300", "--threads", "2"),
            # disk of radius 3 in R^2 times the ball 2^-1 Z_2^2 of volume 4
            "a", "moment-mc.csv",
            oracles.first_moment_is(36 * math.pi, "exact", 300),
            seeded=True,
        ),
        Invocation(
            "mc_aff3",
            ("moment-mc", "--space", "affine", "--d", "3", "--primes", "2",
             "--f", "disk:2", "--n", "200", "--threads", "2"),
            "b", "moment-mc.csv",
            oracles.first_moment_is(32 * math.pi / 3, "mcmc-approximate", 200),
            seeded=True,
        ),
    ),
)

EXACT = Workload(
    "exact",
    "exact rational series and p-adic residue volumes over multi-prime S; "
    "neither the enumerator nor the fiber counter runs",
    (
        Invocation(
            "rhs_p2",
            ("moment-rhs", "--primes", "2", "--q", "3", "--w", "0,0,1",
             "--f", BOX3, "--t-max", "64", "--real-bound", "48"),
            "a", "moment-rhs.csv",
            oracles.series_is(
                "a99554cbad4a151c86d49e27ee035dd88c429adce182ea5f2a1397c795148d2e",
                9827),
        ),
        Invocation(
            "rhs_p23",
            ("moment-rhs", "--primes", "2,3", "--q", "5", "--w", "0,0,1",
             "--f", BOX3, "--t-max", "8", "--real-bound", "48"),
            # pinned from the same series with the int->str digit limit lifted
            "a", "moment-rhs.csv",
            oracles.series_is(
                "99aa6c942eed8199fb7e2dd1e43a62fa80d9088385cc8d18962f5ae231c33e7e",
                46212),
            known_defect="the 162,199-character series value exceeds Python's "
                         "4300-digit int->str limit in serialize.frac_str",
            known_problem=re.escape(
                "uncaught ValueError in sqcount.serialize.frac_str: Exceeds the "
                "limit (4300 digits) for integer string conversion") + ".*",
        ),
        Invocation(
            "orbit_p23",
            ("orbit", "--primes", "2,3", "--q", "5", "--w", "0,0,1",
             "--f", BOX3, "--y", "1,2,3", "--t-max", "1000"),
            "a", "orbit.csv",
            oracles.series_is(
                "38ded6270347632a2e114b28b2216a75ebed759f67ee669c27486eae03739656",
                16821),
        ),
        Invocation(
            "volume_deep",
            ("volume", "--form", "diag:1,1,1,-1", "--primes", "2,3",
             "--c-inf", "1", "--finite", "2:1:1:1,3:0:1:1",
             "--t", "30@2=3,3=2"),
            # the family resolves to a_p + p^(c + kappa t_p) Z_p at t_p
            # and the real target to |Q| < c_inf / 2 in the ball of radius t_inf
            "b", "volume.csv",
            oracles.volumes_are((30.0, -0.5, 0.5), (1, 1, 1, -1),
                                {2: (3, 1, 4), 3: (2, 0, 3)}),
            known_defect="padic_quadric_volume stops at m=2 because the residue "
                         "fractions at m=1 and m=2 are both 0",
            known_problem=re.escape("vol_2 = 0, brute-force residue count gives 129/32"),
        ),
    ),
)

WORKLOADS = {w.name: w for w in (COUNT, MC, EXACT)}
