"""End-to-end tests of the CLI contract.

Every subcommand runs in-process through cli.main on a small config and is
then replayed from its own manifest, which must reproduce the CSV byte for
byte. Exit code 2 marks a configuration error, 3 an exhausted budget.
"""

import hashlib
import json
import sys

import pytest

from sqcount.cli import _COMMANDS, _digits, main

BOX3 = "box:-1..1,-1..1,-1..1"

# one small config per subcommand; together they run in about a second
RUNS = {
    "zeta": ["--d", "3", "--primes", "2"],
    "group-order": ["--d", "2", "--q", "6"],
    "identity-check": ["--d", "3", "--q", "5", "--primes", "2"],
    "covolume": ["--d", "3", "--primes", "2"],
    "count": ["--form", "diag:1,1,-1", "--primes", "2", "--xi", "1/3,0,0",
              "--c-inf", "1", "--t", "10@2=1"],
    "sweep": ["--form", "diag:1,1,-2", "--primes", "2,3", "--q", "5",
              "--w", "1,2,0", "--c-inf", "1",
              "--ladder", "20@2=1,3=1;40@2=1,3=1"],
    "volume": ["--form", "diag:1,1,1,-1", "--primes", "2", "--c-inf", "1",
               "--finite", "2:1:1:1", "--t", "10@2=1"],
    "moment-mc": ["--space", "congruence", "--d", "2", "--q", "5",
                  "--w", "0,1", "--primes", "2", "--f", "disk:2",
                  "--n", "20", "--seed", "1"],
    # its 5034-digit series value is past Python's default int -> str limit
    "moment-rhs": ["--primes", "2,3", "--q", "5", "--w", "0,0,1", "--f", BOX3,
                   "--t-max", "1", "--real-bound", "4"],
    "variance": ["--space", "affine", "--d", "2", "--primes", "2",
                 "--box", "disk:2", "--threshold", "3", "--n", "20",
                 "--seed", "1"],
    "orbit": ["--primes", "2,3", "--q", "5", "--w", "0,0,1", "--f", BOX3,
              "--y", "1,2,3", "--t-max", "50"],
    "rescale-check": ["--form", "diag:1,1,-1", "--primes", "2", "--q", "3",
                      "--w", "0,0,1", "--c-inf", "1", "--t", "10@2=1"],
}

COUNT_D4 = ["count", "--form", "diag:1,1,1,-1", "--primes", "2",
            "--xi", "1/3,0,0,0", "--c-inf", "1", "--t", "30@2=1"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_subcommand_is_covered():
    assert set(RUNS) == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_run_then_replay_from_manifest(command, tmp_path, capsys):
    first = tmp_path / "first"
    assert main([command, *RUNS[command], "--out", str(first)]) == 0
    manifest = first / f"{command}_manifest.json"
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    assert recorded["csv_sha256"] == sha256(first / f"{command}.csv")
    again = tmp_path / "again"
    assert main([command, "--config", str(manifest), "--out", str(again)]) == 0
    assert sha256(again / f"{command}.csv") == recorded["csv_sha256"]


def test_large_exact_value_goes_to_csv_and_summary_prints_digits(tmp_path, capsys):
    assert main(["moment-rhs", *RUNS["moment-rhs"], "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "5034-digit numerator" in out
    header, row = (tmp_path / "moment-rhs.csv").read_text().splitlines()
    value = row.split(",")[header.split(",").index("value")]
    assert len(value.partition("/")[0]) == 5034
    assert len(out) < 1000


def test_digit_count_at_powers_of_ten():
    for k in range(300):
        for n in (10**k, 10**k + 1, 10 ** (k + 1) - 1, -(10**k)):
            assert _digits(n) == len(str(abs(n))), n


def test_missing_seed_exits_2(tmp_path, capsys):
    args = RUNS["moment-mc"][:-2]
    assert "--seed" not in args
    assert main(["moment-mc", *args, "--out", str(tmp_path)]) == 2
    assert "--seed is required" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d": 3, "primes": [2], "bogus": 1}))
    assert main(["zeta", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_exhausted_budget_exits_3_and_names_it(tmp_path, capsys):
    argv = [*COUNT_D4, "--max-candidates", "100", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "max_candidates=100" in capsys.readouterr().err


def test_exhausted_enumeration_budget_exits_3_and_names_it(tmp_path, capsys):
    argv = ["moment-mc", *RUNS["moment-mc"], "--max-candidates", "5",
            "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "max_candidates=5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["moment-rhs", "orbit"])
def test_exhausted_series_budget_exits_3_and_names_it(command, tmp_path, capsys):
    argv = [command, *RUNS[command], "--max-terms", "5", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "max_terms=5" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.11")
@pytest.mark.parametrize("argv, code", [
    (["zeta", *RUNS["zeta"]], 0),
    (["moment-mc", *RUNS["moment-mc"][:-2]], 2),
])
def test_int_digit_limit_is_restored(argv, code, tmp_path, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert main([*argv, "--out", str(tmp_path)]) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)
