"""End-to-end tests of the CLI contract.

Every subcommand runs in-process through cli.main on a small config and is
then replayed from its own manifest, which must reproduce the CSV byte for
byte. Exit code 2 marks a configuration error, 3 an exhausted budget.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sqcount.cli import _COMMANDS, _KEYS, _exact_summary, main
from sqcount.counting import shrinking_family
from sqcount.qspace import quadratic_form
from sqcount.sarith import SConfig
from sqcount.serialize import frac_str
from sqcount.volume import leading_constant

BOX3 = "box:-1..1,-1..1,-1..1"
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# one small config per subcommand; together they run in about a second
RUNS = {
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
}

# each command's config keys; dropping or renaming one breaks the replay of
# manifests written by earlier versions
CONFIG_KEYS = {
    "count": "a_inf c_inf finite form kappa_inf max_candidates primes q t w xi",
    "sweep": "a_inf c_inf finite form kappa_inf ladder max_candidates primes q "
             "w xi",
    "volume": "a_inf c_inf finite form kappa_inf leading primes t",
    "moment-mc": "d f max_candidates n order primes q seed space threads w",
    "moment-rhs": "depth f max_terms primes q real_bound t_max w",
    "variance": "box d max_candidates n primes q seed space threads threshold "
                "w",
    "orbit": "f max_terms primes q t_max w y",
}

# the benchmark's deepest p-adic targets: 2-adic modulus 2^10, 3-adic 3^7
VOLUME_DEEP = ["volume", "--form", "diag:1,1,1,-1", "--primes", "2,3",
               "--c-inf", "1", "--finite", "2:1:1:1,3:0:1:1",
               "--t", "30@2=3,3=2"]
DISK_T_P = {"kind": "disk", "radius": "2", "t_p": {"2": 1.5}}
FORM3 = {"gram_inf": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]}
FORM4 = {"gram_inf": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "-1"]]}

COUNT_D4 = ["count", "--form", "diag:1,1,1,-1", "--primes", "2",
            "--xi", "1/3,0,0,0", "--c-inf", "1", "--t", "30@2=1"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def without(args: list, key: str) -> list:
    """RUNS arguments with the flag of one key and its value left out."""
    if flag(key) not in args:
        return args
    i = args.index(flag(key))
    return args[:i] + args[i + 2:]


def test_every_subcommand_is_covered():
    assert set(RUNS) == set(_COMMANDS)


def test_readme_examples_are_the_tested_runs():
    examples = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().strip("`") for c in line.split("|")]
        if len(cells) > 2 and cells[2].startswith("sqcount "):
            _, command, *args = shlex.split(cells[2])
            examples[command] = args
    assert examples == RUNS


def test_config_keys_are_pinned():
    keys = {name: sorted(defaults) for name, (_, defaults, _) in _COMMANDS.items()}
    assert keys == {name: sorted(k.split()) for name, k in CONFIG_KEYS.items()}
    assert sum(len(k) for k in keys.values()) == 67


def test_every_parser_key_belongs_to_a_command():
    used = set().union(*(defaults for _, defaults, _ in _COMMANDS.values()))
    assert set(_KEYS) == used


@pytest.mark.parametrize("command", sorted(RUNS))
def test_help_lists_every_key(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in _COMMANDS[command][1]:
        assert re.search(re.escape(flag(key)) + r"(?![\w-])", out), key


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


def test_count_at_a_level_writes_its_sweep_rung(tmp_path, capsys):
    # count with --q/--w runs the congruence counter; on the sweep's first
    # rung it writes that rung's row
    rung = RUNS["sweep"][RUNS["sweep"].index("--ladder") + 1].partition(";")[0]
    args = [*without(RUNS["sweep"], "ladder"), "--t", rung]
    assert main(["count", *args, "--out", str(tmp_path / "count")]) == 0
    assert capsys.readouterr().out.startswith("N = 30, ")
    assert main(["sweep", *RUNS["sweep"], "--out", str(tmp_path / "sweep")]) == 0
    count_csv = (tmp_path / "count" / "count.csv").read_text().splitlines()
    sweep_csv = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert count_csv == sweep_csv[:2]


def test_large_exact_value_goes_to_csv_and_summary_prints_digits(tmp_path, capsys):
    assert main(["moment-rhs", *RUNS["moment-rhs"], "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "5034-digit numerator" in out
    header, row = (tmp_path / "moment-rhs.csv").read_text().splitlines()
    value = row.split(",")[header.split(",").index("value")]
    assert len(value.partition("/")[0]) == 5034
    assert len(out) < 1000


@pytest.mark.parametrize("value, num_digits, den_digits", [
    (Fraction(-123, 4567), 3, 4),
    (Fraction(10**20), 21, 1),
    (Fraction(10**15, 999), 16, 3),
])
def test_summary_counts_the_digits_of_the_csv_value(value, num_digits, den_digits):
    summary = _exact_summary(value, frac_str(value))
    assert summary == (f"{float(value)!r} (exact value in the CSV: "
                       f"{num_digits}-digit numerator, "
                       f"{den_digits}-digit denominator)")


def test_documented_entry_point_lists_every_command():
    # README's PYTHONPATH=src python -m sqcount.cli --help, from the root
    run = subprocess.run([sys.executable, "-m", "sqcount.cli", "--help"],
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    for command in _COMMANDS:
        assert re.search(rf"^\s+{re.escape(command)}\s", run.stdout, re.M), command


def test_missing_seed_exits_2(tmp_path, capsys):
    for command in ("moment-mc", "variance"):
        args = RUNS[command][:-2]
        assert "--seed" not in args
        assert main([command, *args, "--out", str(tmp_path)]) == 2
        assert f"{command} needs --seed" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d": 2, "primes": [2], "bogus": 1}))
    args = without(without(RUNS["variance"], "d"), "primes")
    argv = ["variance", *args, "--config", str(config), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "bogus" in capsys.readouterr().err


# commands removed with the code behind them: four computed textbook
# constants, rescale-check checked the counter's rescaling identity
@pytest.mark.parametrize("command", ["zeta", "group-order", "identity-check",
                                     "covolume", "rescale-check"])
def test_removed_command_exits_2(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--d", "3", "--primes", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_manifest_with_sampler_keys_exits_2_on_replay(tmp_path, capsys):
    # manifests written while the sampler was configurable carry these keys
    assert main(["moment-mc", *RUNS["moment-mc"], "--out", str(tmp_path)]) == 0
    manifest = tmp_path / "moment-mc_manifest.json"
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    recorded["config"].update(sampler="auto", mcmc_eps=0.25, mcmc_burn_in=1000,
                              mcmc_thin=30)
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    argv = ["moment-mc", "--config", str(manifest), "--out", str(tmp_path / "again")]
    assert main(argv) == 2
    assert ("unknown config keys for moment-mc: "
            "['mcmc_burn_in', 'mcmc_eps', 'mcmc_thin', 'sampler']"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, old_keys", [
    ("count", {"c_q": None}),
    ("volume", {"t0": 24.0, "rungs": 5}),
    ("volume", {"method": "standardized-integral", "n_grid": None,
                "n_samples": 400_000, "seed": None}),
    ("sweep", {"budget_s": None}),
    ("moment-mc", {"depth": None}),
    ("variance", {"depth": None}),
])
def test_manifest_with_ladder_keys_exits_2_on_replay(command, old_keys,
                                                    tmp_path, capsys):
    # manifests written while c_Q came from a T ladder carry the first two
    # sets of keys; those written while vol_real came from a midpoint grid
    # or Monte Carlo carry the third; sweep manifests written while sweep
    # took a wall-clock budget carry the fourth; moment-mc and variance
    # manifests written while the sampler depth was a setting carry the
    # last two
    assert main([command, *RUNS[command], "--out", str(tmp_path)]) == 0
    manifest = tmp_path / f"{command}_manifest.json"
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    recorded["config"].update(old_keys)
    manifest.write_text(json.dumps(recorded))
    capsys.readouterr()
    argv = [command, "--config", str(manifest), "--out", str(tmp_path / "again")]
    assert main(argv) == 2
    assert (f"unknown config keys for {command}: {sorted(old_keys)}"
            in capsys.readouterr().err)
    for key in old_keys:
        del recorded["config"][key]
    manifest.write_text(json.dumps(recorded))
    assert main(argv) == 0
    csv = f"{command}.csv"
    assert (tmp_path / "again" / csv).read_bytes() == (tmp_path / csv).read_bytes()


def test_sampler_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["moment-mc", *RUNS["moment-mc"], "--sampler", "mcmc",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sampler mcmc" in capsys.readouterr().err


@pytest.mark.parametrize("command, args, rejected", [
    ("moment-mc", ["--space", "affine", "--d", "2", "--q", "5", "--w", "0,1",
                   "--primes", "2", "--f", "disk:2", "--n", "20", "--seed", "1"],
     "--space affine takes no --q or --w"),
    ("variance", [*RUNS["variance"], "--q", "5"], "--space affine takes no --q "),
    ("variance", [*RUNS["variance"], "--w", "0,1"], "--space affine takes no --w "),
    # the space kind is the exact word; no case folding, no alias
    ("moment-mc", [*without(RUNS["moment-mc"], "space"), "--space", "congruence-y"],
     "--space congruence-y takes no --q or --w"),
    ("moment-mc", ["--space", "congruence-y", "--d", "2", "--primes", "2",
                   "--f", "disk:2", "--n", "20", "--seed", "1"],
     "unknown space kind 'congruence-y'"),
    # count and sweep take a shift xi or a level (q, w), whole
    ("count", [*RUNS["count"], "--w", "0,0,1"], "--w needs --q"),
    ("sweep", ["--form", "diag:1,1,-1", "--primes", "2", "--xi", "1/3,0,0",
               "--w", "5,5,5", "--c-inf", "1", "--ladder", "10@2=1;20@2=1"],
     "--w needs --q"),
    ("count", [*without(RUNS["count"], "xi"), "--q", "5"], "--q needs --w"),
    ("count", [*RUNS["count"], "--q", "5", "--w", "0,0,1"],
     "need exactly one of --q/--w or --xi"),
])
def test_space_and_level_keys_must_agree(command, args, rejected, tmp_path, capsys):
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert rejected in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, via", [
    ("moment-mc", "d", "abc", "file"),
    ("moment-rhs", "real_bound", "x", "file"),
    ("orbit", "q", "five", "file"),
    ("moment-mc", "n", "many", "file"),
    ("count", "max_candidates", "lots", "file"),
    ("sweep", "ladder", "20@x", "file"),
    # a boolean in a file is JSON true or false, never a string
    ("volume", "leading", "false", "file"),
    # a form or test-function object of the wrong shape
    ("orbit", "f", {"kind": "box"}, "file"),
    ("count", "form", {"gram_inf": 7}, "file"),
    # a per-prime exponent is an integer; neither path truncates 1.5 to 1
    ("moment-mc", "f", {**DISK_T_P, "t_p": {"2": "1.5"}}, "file"),
    ("moment-mc", "f", {**DISK_T_P, "t_p": {"2": True}}, "file"),
    ("orbit", "f", {"kind": "box", "intervals": [[-1, 1]] * 3,
                    "finite_exponent": {"2": 0.5}}, "file"),
    # an unknown key in a form or test-function object, a shift included
    ("volume", "form", {**FORM4, "shift": ["1/3", "0", "0", "0"]}, "file"),
    ("count", "form", {**FORM3, "shift_p": {"2": ["1/3", "0", "0"]}}, "file"),
    ("count", "form", {**FORM3, "gram_q": {"2": FORM3["gram_inf"]}}, "file"),
    ("moment-mc", "f", {"kind": "disk", "radus": "3"}, "file"),
    ("orbit", "f", {"kind": "box", "intervals": [[-1, 1]] * 3,
                    "finite_centre": {"2": [0, 0, 0]}}, "file"),
    ("moment-mc", "f", "disk:2@2=1.5", "flag"),
    ("count", "primes", "2,x", "flag"),
    ("moment-mc", "order", "1,x", "flag"),
    # out of range: a negative seed, a budget below 1, a repeated order
    ("moment-mc", "seed", "-1", "flag"),
    ("variance", "seed", "-1", "flag"),
    ("count", "max_candidates", "-5", "flag"),
    ("moment-mc", "max_candidates", "0", "flag"),
    ("orbit", "max_terms", "-1", "flag"),
    ("moment-mc", "order", "1,1", "flag"),
    # non-finite, or a rational that the float code cannot read
    ("moment-rhs", "real_bound", "nan", "flag"),
    ("moment-rhs", "real_bound", "inf", "flag"),
    pytest.param("moment-rhs", "real_bound", 10**400, "file",
                 id="moment-rhs-real_bound-10**400-file"),
    ("variance", "threshold", "inf", "flag"),
    ("volume", "t", "1e400@2=1", "flag"),
    ("volume", "c_inf", "1e400", "flag"),
    ("volume", "a_inf", "1e400", "flag"),
    ("moment-mc", "f", "disk:1e400", "flag"),
    ("variance", "box", "disk:1e-400", "flag"),
    ("moment-rhs", "f", "box:-1e400..1,-1..1,-1..1", "flag"),
    ("moment-mc", "f", {"kind": "disk", "radius": "2", "center": ["1e400", "0"]},
     "file"),
])
def test_malformed_value_exits_2_naming_the_key(command, key, value, via,
                                                 tmp_path, capsys):
    args = without(RUNS[command], key)
    if via == "file":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        args = [*args, "--config", str(config)]
    else:
        args = [*args, flag(key), value]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert f"bad {key} {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value, extra, named", [
    ("moment-mc", "f", BOX3, [],
     "test function real part has 3 coordinates, not d = 2"),
    ("moment-mc", "f", {"kind": "box", "intervals": [[-1, 1]] * 2,
                        "finite_center": {"2": ["1/2"]}}, [],
     "finite_center at 2 of the test function has 1 coordinates, not d = 2"),
    ("variance", "box", {"kind": "disk", "radius": "2", "center": ["0", "0", "1/2"]},
     [], "test function center has 3 coordinates, not d = 2"),
    ("orbit", "f", "box:-1..1,-1..1,-1..1,-1..1", ["--y", "1,2,3,4"],
     "test function real part has 4 coordinates, not d = 3"),
    ("moment-rhs", "f", "box:-1..1,-1..1", [],
     "test function real part has 2 coordinates, not d = 3"),
    # the point y of the orbit series is held to the same rule
    ("orbit", "y", "1,2", [], "y has 2 coordinates, w has 3"),
    # so are the shifts xi and w of a count and the w of a congruence space
    ("count", "xi", "1/3,0", [], "xi has 2 coordinates, not d = 3"),
    ("count", "w", "0,1", ["--q", "3"], "w has 2 coordinates, not d = 3"),
    ("moment-mc", "w", "0,1,2", [], "w has 3 coordinates, not d = 2"),
])
def test_test_function_of_another_dimension_exits_2(command, key, value, extra,
                                                     named, tmp_path, capsys):
    # extra may bring its own --y, or --q and --w in place of RUNS' --xi
    args = RUNS[command]
    for dropped in (key, "y", "xi"):
        args = without(args, dropped)
    args = [*args, *extra]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    argv = [command, *args, "--config", str(config), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command, key, obj, named", [
    ("volume", "form", {**FORM4, "shift": ["1/3", "0", "0", "0"]},
     "a form has no shift; pass the shift as --xi"),
    ("count", "form", {**FORM3, "gram_q": {}}, "unknown key 'gram_q' in a form"),
    ("moment-mc", "f", {"kind": "disk", "radus": "3"},
     "unknown key 'radus' in a disk"),
])
def test_object_file_with_an_unknown_key_names_it(command, key, obj, named,
                                                  tmp_path, capsys):
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(obj))
    args = [*without(RUNS[command], key), flag(key), str(path)]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command, key, name, text", [
    ("count", "form", "x.json", None),
    ("moment-mc", "f", "bad.json", '{"kind": "disk",'),
])
def test_unreadable_object_file_exits_2_naming_it(command, key, name, text,
                                                  tmp_path, capsys):
    # a missing file and malformed JSON read like a bad --config file
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    args = [*without(RUNS[command], key), flag(key), str(path)]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command, shift", [
    ("count", ["--xi", "1/3,0"]), ("sweep", ["--w", "1,2"]),
    ("volume", []),
])
def test_binary_form_exits_2_naming_d(command, shift, tmp_path, capsys):
    args = without(without(without(RUNS[command], "form"), "xi"), "w")
    args = [*args, "--form", "diag:1,-2", *shift]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert ("shrinking targets need a form in d >= 3 variables, got d = 2"
            in capsys.readouterr().err)


def test_sweep_rejects_a_repeated_rung(tmp_path, capsys):
    args = [*without(RUNS["sweep"], "ladder"), "--ladder",
            "20@2=1,3=1;40@2=1,3=1;40@2=1,3=1"]
    assert main(["sweep", *args, "--out", str(tmp_path)]) == 2
    assert ("ladder rung 3 (40@2=1,3=1) repeats the rung before it"
            in capsys.readouterr().err)
    assert not (tmp_path / "sweep.csv").exists()


def test_form_gram_at_a_prime_outside_s_exits_2(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({**FORM3, "gram_p": {"3": FORM3["gram_inf"]}}))
    args = [*without(RUNS["count"], "form"), "--form", str(path)]
    assert main(["count", *args, "--out", str(tmp_path)]) == 2
    assert "gram_p has a Gram at 3, which is not in S" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "sweep", "volume"])
def test_finite_target_at_a_prime_outside_s_exits_2(command, tmp_path, capsys):
    args = [*without(RUNS[command], "finite"), "--finite", "7:1:2:0"]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert "finite has a target at 7, which is not in S" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command, key, value, prime", [
    ("count", "t", "10@3=1", 3),
    ("sweep", "ladder", "20@2=1,5=1", 5),
    ("moment-mc", "f", "disk:2@3=1", 3),
])
def test_exponent_at_a_prime_outside_s_exits_2(command, key, value, prime,
                                               tmp_path, capsys):
    args = [*without(RUNS[command], key), flag(key), value]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert (f"exponent given at {prime}, which is not in S"
            in capsys.readouterr().err)
    assert not (tmp_path / f"{command}.csv").exists()


def test_float_exponent_from_file_names_its_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"f": DISK_T_P}))
    args = [*without(RUNS["moment-mc"], "f"), "--config", str(config)]
    assert main(["moment-mc", *args, "--out", str(tmp_path)]) == 2
    assert "t_p exponent 1.5" in capsys.readouterr().err


def test_deep_volume_is_exact(tmp_path, capsys):
    assert main([*VOLUME_DEEP, "--out", str(tmp_path)]) == 0
    header, row = (tmp_path / "volume.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["vol_2"], cells["vol_3"]) == ("129/32", "5467/2187")


@pytest.mark.parametrize("command, key, value", [
    ("count", "max_candidates", "1000000"),
    ("volume", "a_inf", "2"),
])
def test_file_value_reads_like_its_flag(command, key, value, tmp_path, capsys):
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert main([command, *RUNS[command], flag(key), value,
                 "--out", str(by_flag)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert main([command, *RUNS[command], "--config", str(config),
                 "--out", str(by_file)]) == 0
    csv = f"{command}.csv"
    assert (by_file / csv).read_bytes() == (by_flag / csv).read_bytes()
    manifests = [json.loads((out / f"{command}_manifest.json").read_text())
                 for out in (by_flag, by_file)]
    assert manifests[0]["config"] == manifests[1]["config"]


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


@pytest.mark.parametrize("command, charged", [("moment-rhs", 6014), ("orbit", 49)])
def test_series_manifest_records_its_budget_use(command, charged, tmp_path, capsys):
    # terms_charged is the whole charge: exactly that budget runs, one less exits 3
    first = tmp_path / "first"
    argv = [command, *RUNS[command], "--max-terms", str(charged)]
    assert main([*argv, "--out", str(first)]) == 0
    manifest = first / f"{command}_manifest.json"
    results = json.loads(manifest.read_text(encoding="utf-8"))["results"]
    assert results == {"terms_charged": charged, "max_terms": charged}
    again = tmp_path / "again"
    assert main([command, "--config", str(manifest), "--out", str(again)]) == 0
    assert sha256(again / f"{command}.csv") == sha256(first / f"{command}.csv")
    argv[-1] = str(charged - 1)
    assert main([*argv, "--out", str(tmp_path / "short")]) == 3
    assert f"max_terms={charged - 1}" in capsys.readouterr().err


@pytest.mark.parametrize("command, charged", [("count", 1250),
                                              ("sweep", [1811, 7242])])
def test_fiber_manifest_records_its_budget_use(command, charged, tmp_path,
                                               capsys):
    # (n1, n2) prefixes in the open ball, one entry per rung for a sweep; each
    # rung is charged on its own, so the largest charge is exactly the budget
    # that runs, and one less exits 3
    first = tmp_path / "first"
    assert main([command, *RUNS[command], "--out", str(first)]) == 0
    manifest = first / f"{command}_manifest.json"
    results = json.loads(manifest.read_text(encoding="utf-8"))["results"]
    assert results["candidates_charged"] == charged
    assert results["max_candidates"] == 5_000_000
    peak = max(charged) if command == "sweep" else charged
    argv = [command, *RUNS[command], "--max-candidates", str(peak)]
    assert main([*argv, "--out", str(tmp_path / "tight")]) == 0
    assert (sha256(tmp_path / "tight" / f"{command}.csv")
            == sha256(first / f"{command}.csv"))
    argv[-1] = str(peak - 1)
    assert main([*argv, "--out", str(tmp_path / "short")]) == 3
    assert f"max_candidates={peak - 1}" in capsys.readouterr().err


@pytest.mark.parametrize("command, gram, t_p", [
    ("count", ((1, 0, 0), (0, 1, 0), (0, 0, -1)), {2: 1}),
    ("sweep", ((1, 0, 0), (0, 1, 0), (0, 0, -2)), {2: 1, 3: 1}),
])
def test_fiber_manifest_records_the_c_q_error(command, gram, t_p, tmp_path):
    # the error bound of c_Q behind each prediction, one entry per rung for
    # a sweep; the CSV keeps its columns
    assert main([command, *RUNS[command], "--out", str(tmp_path)]) == 0
    manifest = tmp_path / f"{command}_manifest.json"
    results = json.loads(manifest.read_text(encoding="utf-8"))["results"]
    q_form = quadratic_form(SConfig(tuple(t_p)), gram)
    _, err = leading_constant(q_form, shrinking_family(3, 1), t_p=t_p)
    assert err > 0
    assert results["c_q_error"] == ([err, err] if command == "sweep" else err)
    header = (tmp_path / f"{command}.csv").read_text().splitlines()[0]
    assert "c_q" not in header


@pytest.mark.parametrize("command, key, shape", [
    ("moment-mc", "f", {"kind": "disk", "radius": "2", "center": ["1/4", "0"],
                        "t_p": {"2": 1}}),
    ("variance", "box", {"kind": "disk", "radius": "2",
                         "center": ["1/4", "0"], "t_p": {"2": 1}}),
])
def test_sampler_manifest_records_the_digits_read(command, key, shape,
                                                   tmp_path):
    # a disk 2^-1 Z_2^2 about a center of 2-adic valuation -2 reads one
    # digit of each finite basis and shift: k_2 = max(1, 2, 0) - 1
    config = tmp_path / "shape.json"
    config.write_text(json.dumps({key: shape}))
    args = without(RUNS[command], key)
    argv = [command, *args, "--config", str(config), "--out", str(tmp_path)]
    assert main(argv) == 0
    manifest = tmp_path / f"{command}_manifest.json"
    results = json.loads(manifest.read_text(encoding="utf-8"))["results"]
    assert results["sampler_depth"] == {"2": 1}


def test_deep_center_is_sampled_to_its_depth(tmp_path):
    # the box reads 9 digits at 2; a fixed sampler depth of 8 made this run
    # exit 2 with "need 9 digits at p=2, sampled 8"
    argv = ["moment-mc", "--space", "affine", "--d", "2", "--primes", "2",
            "--f", "disk:2@2=-9", "--n", "5", "--seed", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    manifest = tmp_path / "moment-mc_manifest.json"
    results = json.loads(manifest.read_text(encoding="utf-8"))["results"]
    assert results["sampler_depth"] == {"2": 9}


@pytest.mark.parametrize("key, value, named", [
    ("threshold", "1e200", "threshold 1e+200"),  # threshold^2 overflows
    ("box", "disk:1e200", "box's volume"),  # the disk's area overflows
])
def test_huge_variance_input_exits_2_naming_it(key, value, named, tmp_path,
                                               capsys):
    argv = ["variance", *RUNS["variance"], flag(key), value,
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    # threshold^2 underflows to 0
    ("variance --space affine --d 2 --primes 2 --box disk:2 "
     "--threshold 1e-300 --n 5 --seed 1", "threshold 1e-300"),
    # the disk's radius^2 overflows
    ("moment-mc --space base --d 2 --primes 2 --f disk:1e200 --n 5 --seed 1",
     "disk radius 1e+200"),
    # the box's circumscribed radius^2 overflows
    ("moment-mc --space base --d 2 --primes 2 --f box:-1e200..1e200,-1..1 "
     "--n 5 --seed 1", "real interval -1e+200..1e+200"),
    # the real ball's radius^2 overflows
    ("volume --form diag:1,1,-1 --primes 2 --c-inf 1 --t 1e200",
     "t_inf = 1e+200"),
    # the box reads k_p digits, and the sampler's int64 draw needs p^k_p <=
    # 2^63: 3^40, 2^64 and 2^2000 are past it
    ("moment-mc --space base --d 2 --primes 3 --f box:-1..1,-1..1@3=-40 "
     "--n 5 --seed 1", "cannot draw 40 digits at p=3"),
    ("variance --space affine --d 2 --primes 2 --box disk:1@2=-64 "
     "--threshold 1 --n 5 --seed 1", "cannot draw 64 digits at p=2"),
    ("moment-mc --space affine --d 2 --primes 2 --f disk:2@2=-2000 "
     "--n 5 --seed 1", "cannot draw 2000 digits at p=2"),
    # a level-q entry is an int64 draw too: q = 5^28 > 2^63
    ("moment-mc --space congruence --d 2 --q 37252902984619140625 --w 0,1 "
     "--primes 2 --f disk:2 --n 5 --seed 1", "level q=37252902984619140625"),
    ("variance --space congruence --d 2 --q 37252902984619140625 --w 0,1 "
     "--primes 2 --box disk:2 --threshold 1 --n 5 --seed 1",
     "level q=37252902984619140625"),
], ids=["threshold", "disk", "box", "volume", "deep-box", "deep-variance",
        "deep-disk", "wide-level", "wide-level-variance"])
def test_float_range_input_exits_2_naming_it(args, named, tmp_path, capsys):
    assert main([*args.split(), "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_series_at_a_level_past_int64_runs(tmp_path):
    # the series draws nothing, so q = 5^28 is no int64 draw there
    argv = ["moment-rhs", "--q", "37252902984619140625", "--w", "0,0,1",
            "--primes", "2", "--f", "box:-1..1,-1..1,-1..1", "--out", str(tmp_path)]
    assert main(argv) == 0


def test_huge_finite_exponent_exits_2_naming_it(tmp_path, capsys):
    # the real place would see the lattice scaled by 2^-2000
    argv = ["moment-mc", "--space", "affine", "--d", "2", "--primes", "2",
            "--f", "disk:2@2=2000", "--n", "5", "--seed", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "finite exponents 2=2000 are out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command, value", [
    ("moment-mc", "box:1..-1,-1..1"),
    ("moment-rhs", "box:-1..1,1..-1,-1..1"),
    ("moment-rhs", "box:-1..1,-1..1,1..1"),
])
def test_reversed_box_interval_exits_2(command, value, tmp_path, capsys):
    args = [*without(RUNS[command], "f"), "--f", value]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert "real intervals must have positive length" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command, value, named", [
    ("moment-mc", "box:-1..1,-1..1@5=3",
     "finite_exponent has an entry at 5, which is not in S"),
    ("moment-rhs", "box:-1..1,-1..1,-1..1@2=1,7=-1",
     "finite_exponent has an entry at 7, which is not in S"),
    ("moment-mc", {"kind": "box", "intervals": [[-1, 1]] * 2,
                   "finite_center": {"5": ["1/2", "0"]}},
     "finite_center has an entry at 5, which is not in S"),
    ("moment-rhs", {"kind": "box", "intervals": [[-1, 1]] * 3,
                    "finite_center": {"3": [0, 0, 1], "7": [0, 0, 1]}},
     "finite_center has an entry at 7, which is not in S"),
])
def test_box_entry_at_a_prime_outside_s_exits_2(command, value, named,
                                                 tmp_path, capsys):
    args = without(RUNS[command], "f")
    if isinstance(value, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"f": value}))
        args = [*args, "--config", str(config)]
    else:
        args = [*args, "--f", value]
    assert main([command, *args, "--out", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_box_moment_mc_csv_is_pinned(tmp_path):
    # counting a product box must draw the same lattices and find the same
    # points as testing each point of the box's support did
    argv = ["moment-mc", "--space", "congruence", "--d", "2", "--q", "5",
            "--w", "0,1", "--primes", "2,3", "--f",
            "box:-3/2..1,-1..2@2=1,3=-1", "--n", "40", "--seed", "6",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sha256(tmp_path / "moment-mc.csv") == (
        "9d2c011db50a3640039c50386d10a80d8a760437229db14caaebc7d9fe212202")


@pytest.mark.parametrize("args, digest", [
    (["--d", "3", "--q", "5", "--w", "1/2,0,1", "--primes", "2,3", "--f",
      "box:-1..1,-1..1,-1..1@2=1", "--n", "100", "--seed", "3"],
     "53b081ce309d97b4a8f5ff585921bdf4f1ec5292c496c05f778a07c84c4b1ccc"),
    (["--d", "5", "--q", "5", "--w", "0,0,0,0,1", "--primes", "2", "--f",
      "box:-1..1,-1..1,-1..1,-1..1,-1..1", "--n", "40", "--seed", "1"],
     "71a29c9f4826d938869f77fafe0e1a6078be097f01c6d8d2d98444980db50d13"),
])
def test_congruence_moment_mc_csv_is_pinned(args, digest, tmp_path):
    # d >= 3 congruence boxes, whose draws the level-q coset may move only
    # by their translate: no count, and so no byte, may depend on the basis
    argv = ["moment-mc", "--space", "congruence", *args, "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sha256(tmp_path / "moment-mc.csv") == digest


@pytest.mark.parametrize("command, args, digest", [
    ("moment-mc", ["--d", "2", "--primes", "2", "--f", "disk:2"],
     "cd4e319c76df1d956554ce0fe662a707a6c67e0ec2883a013546cbdc000f8b6e"),
    ("moment-mc", ["--d", "3", "--primes", "2,3", "--f",
                   "box:-1..1,-1/2..1,-1..1@2=1"],
     "a4cfa2c250f0443f8b9f6e528ac9249dddf518988cb754c0dbb11847867e2bd6"),
    ("moment-mc", ["--d", "2", "--primes", "3", "--f", "disk:2@3=-1"],
     "9f5eb92bf4156ed383af05c10f346cf02fe8f5e3d3c49036ddd72f3e64dd9e67"),
    # the origin lies outside this box
    ("moment-mc", ["--d", "2", "--primes", "2", "--f", "box:1/2..2,-1..1"],
     "457442d64ef15da48364eca5bf8463622444d43ed19b2b7a7db34813bdac0208"),
    ("variance", ["--d", "2", "--primes", "2", "--box", "disk:2",
                  "--threshold", "2"],
     "d2900fcc0d6fca649d31cac4595db7a183bf9d31a1d594d4a89a4fa3ccd963ca"),
])
def test_base_space_csv_is_pinned(command, args, digest, tmp_path):
    # the base-space transform leaves out the origin, which every draw
    # holds, exactly when the test function does
    argv = [command, "--space", "base", *args, "--n", "40", "--seed", "6",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sha256(tmp_path / f"{command}.csv") == digest


@pytest.mark.parametrize("command", ["moment-rhs"])
def test_depth_at_a_prime_outside_s_exits_2(command, tmp_path, capsys):
    args = [*without(RUNS[command], "primes"), "--primes", "2"]
    argv = [command, *args, "--depth", "3=4,2=1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "depth given at 3, which is not in S" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


def test_huge_real_bound_exits_3_naming_max_terms(tmp_path, capsys):
    # the window's progressions are charged to the budget by arithmetic,
    # not by building ranges too long for len()
    argv = ["moment-rhs", *RUNS["moment-rhs"], "--real-bound", "1e300",
            "--out", str(tmp_path)]
    assert main(argv) == 3
    assert "max_terms=5000000" in capsys.readouterr().err


@pytest.mark.parametrize("form, place", [
    ("diag:1,1,1,-7", "p = 2"),  # 7 is not a sum of three 2-adic squares
    ("diag:1,1,1,1", "the real place"),
])
def test_anisotropic_form_exits_2_naming_the_place(form, place, tmp_path, capsys):
    argv = ["count", "--form", form, "--primes", "2", "--xi", "1/3,0,0,0",
            "--c-inf", "1", "--t", "10@2=1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"anisotropic at {place}" in capsys.readouterr().err


def test_form_too_large_for_the_fiber_counter_exits_2(tmp_path, capsys):
    argv = ["count", *RUNS["count"], "--form", "diag:1e400,1,-1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "rescale the form" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int -> str digit limit before Python 3.11")
@pytest.mark.parametrize("argv, code", [
    (["moment-rhs", *RUNS["moment-rhs"]], 0),
    (["moment-mc", *RUNS["moment-mc"][:-2]], 2),
])
def test_int_digit_limit_is_restored(argv, code, tmp_path, capsys):
    # main leaves the default 4300-digit int -> str limit alone, and exact
    # values past it, such as moment-rhs's 5034-digit numerator, still print
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    assert main([*argv, "--out", str(tmp_path)]) == code
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    if code == 0:
        assert "5034-digit numerator" in capsys.readouterr().out
