"""Command line interface, run in-process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catlab.cli
import catlab.protocols
from catlab.cli import main

SCENARIOS = Path(catlab.cli.__file__).with_name("scenarios")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# check


def test_check_violation_exit_2(capsys):
    code, doc, err = run_json(
        capsys,
        "check", "--scenario", "cat", "plusminus:+", "--from", "dead", "--to", "alive",
    )
    assert code == 2
    assert doc["command"] == "check"
    assert doc["result"]["violated"] is True
    witness = doc["result"]["witness"]
    assert [s["operation"] for s in witness["steps"]] == ["plusminus", "basis"]
    assert abs(witness["probability"] - 0.25) < 1e-10
    assert "elapsed" in err


def test_check_candidate_default_outcome(capsys):
    # bare NAME means the measurement's first declared outcome
    code, doc, _ = run_json(
        capsys,
        "check", "--scenario", "cat", "plusminus", "--from", "dead", "--to", "alive",
    )
    assert code == 2
    assert doc["params"]["outcome"] == "+"


def test_check_no_violation_exit_0(capsys):
    code, doc, _ = run_json(
        capsys,
        "check", "--scenario", "cat", "basis:alive", "--from", "dead", "--to", "alive",
    )
    assert code == 0
    assert doc["result"]["violated"] is False
    assert doc["result"]["bound_reached"] is False  # conclusive at any depth
    assert doc["result"]["certificate"] == {"invariant_dim": 1}
    assert doc["result"]["witness"] is None


def test_check_negative_depth_exit_1(capsys):
    code, out, err = run_cli(
        capsys,
        "check", "--scenario", "cat", "--from", "dead", "--to", "alive",
        "plusminus:+", "--depth", "-3",
    )
    assert code == 1
    assert out == ""
    assert "depth" in err


def test_check_envelope_keys(capsys):
    _, doc, _ = run_json(
        capsys,
        "check", "--scenario", "cat", "basis:alive", "--from", "dead", "--to", "alive",
    )
    assert set(doc) == {
        "format_version", "version", "command", "scenario", "scenario_sha256",
        "seed", "params", "result",
    }
    assert doc["format_version"] == 1
    assert doc["scenario"] == "cat"
    assert len(doc["scenario_sha256"]) == 64
    assert doc["params"] == {
        "candidate": "basis", "outcome": "alive",
        "from": "dead", "to": "alive", "depth": 8,
    }


# ---------------------------------------------------------------------------
# run


def test_run_exact(capsys):
    code, doc, _ = run_json(
        capsys,
        "run", "--scenario", "resurrection", "resurrect10",
        "--initial", "dead", "--exact",
    )
    assert code == 0
    result = doc["result"]
    assert result["mode"] == "exact"
    table = {row["state"]: row["probability"] for row in result["table"]}
    assert abs(table["alive"] - (1 - 2.0**-10)) < 1e-10
    assert abs(table["dead"] - 2.0**-10) < 1e-10


def test_run_sampling_uses_seed(capsys):
    code, doc, _ = run_json(
        capsys,
        "run", "--scenario", "resurrection", "resurrect1",
        "--initial", "dead", "--trials", "2000", "--seed", "7",
    )
    assert code == 0
    assert doc["seed"] == 7
    assert doc["params"]["trials"] == 2000
    hist = doc["result"]["histogram"]
    assert sum(h["count"] for h in hist) == 2000
    for h in hist:
        assert h["frequency"] == h["count"] / 2000
        assert abs(h["exact_p"] - 0.5) < 1e-10


def test_run_default_trials(capsys):
    _, doc, _ = run_json(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "alive",
    )
    assert doc["params"]["trials"] == 10000
    assert doc["result"]["trials"] == 10000


def test_run_exact_and_trials_conflict(capsys):
    code, out, err = run_cli(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "alive",
        "--exact", "--trials", "5",
    )
    assert code == 1
    assert out == ""
    assert "mutually exclusive" in err


def test_run_rejects_zero_trials(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("enumerated before --trials was checked")

    monkeypatch.setattr(catlab.cli, "enumerate_protocol", unreachable)
    code, out, err = run_cli(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "alive",
        "--trials", "0",
    )
    assert code == 1
    assert out == ""
    assert "at least one trial" in err


@pytest.mark.parametrize("mode", [("--exact",), ("--trials", "100")])
def test_run_builds_no_tree_nodes(capsys, monkeypatch, mode):
    def no_nodes(*args):
        raise AssertionError("an OutcomeNode was built")

    monkeypatch.setattr(catlab.protocols, "OutcomeNode", no_nodes)
    code, doc, _ = run_json(
        capsys,
        "run", "--scenario", "resurrection", "resurrect3", "--initial", "rho_cat", *mode,
    )
    assert code == 0
    assert doc["result"]["mode"] == ("exact" if mode == ("--exact",) else "sample")


ROUND = "[{measure: pm}, {measure: basis}, {stop_if: alive}]"


@pytest.mark.parametrize("k", [1, 3, 10, 21])
def test_run_exact_resurrection_counts(capsys, tmp_path, k):
    # 21 rounds unroll to 63 of the 64 allowed steps; the tree would have
    # 3*2^22 - 5 nodes, so only the propagation can answer
    f = tmp_path / "rounds.scn"
    f.write_text(
        (SCENARIOS / "resurrection.scn").read_text(encoding="utf-8")
        + f"  rounds:\n    - repeat: {{count: {k}, body: {ROUND}}}\n",
        encoding="utf-8",
    )
    code, doc, _ = run_json(
        capsys, "run", "--scenario", str(f), "rounds", "--initial", "dead", "--exact",
    )
    assert code == 0
    result = doc["result"]
    assert result["nodes"] == 3 * 2 ** (k + 1) - 5
    assert result["leaves"] == 3 * 2**k - 2
    assert result["pruned_mass"] == 0.0
    table = {row["state"]: row["probability"] for row in result["table"]}
    assert abs(table["alive"] - (1 - 2.0**-k)) <= 1e-12
    assert abs(table["dead"] - 2.0**-k) <= 1e-12


def test_run_byte_identical(capsys):
    argv = (
        "run", "--scenario", "resurrection", "resurrect3",
        "--initial", "dead", "--trials", "4096", "--seed", "3",
    )
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_run_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "cat_plus",
        "--trials", "100", "--seed", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state,exact_p,empirical_freq,n"
    assert len(lines) == 3  # two final states
    assert lines[1].endswith(",100")


def test_run_exact_csv_blank_empirical(capsys):
    _, out, _ = run_cli(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "cat_plus",
        "--exact", "--format", "csv",
    )
    lines = out.splitlines()
    assert lines[0] == "state,exact_p,empirical_freq,n"
    assert all(line.endswith(",,") for line in lines[1:])


# ---------------------------------------------------------------------------
# discriminate


def test_discriminate_json(capsys):
    code, doc, _ = run_json(
        capsys,
        "discriminate", "--scenario", "cat", "cat_plus", "rho_cat", "plusminus",
        "--trials", "1000", "--seed", "5",
    )
    assert code == 0
    assert abs(doc["result"]["total_variation"] - 0.5) < 1e-10
    assert doc["result"]["chi_square"]["p_value"] < 1e-6
    assert doc["params"] == {
        "source_a": "cat_plus", "source_b": "rho_cat",
        "measurement": "plusminus", "trials": 1000,
    }


@pytest.mark.parametrize("scenario,source,measurement", [
    ("cat", "cat_plus", "plusminus"),
    ("photon", "x_plus", "xbasis"),
])
def test_discriminate_a_source_against_itself(capsys, scenario, source, measurement):
    code, doc, _ = run_json(
        capsys,
        "discriminate", "--scenario", scenario, source, source, measurement,
        "--trials", "1000",
    )
    assert code == 0
    assert doc["result"]["total_variation"] == 0.0
    assert doc["result"]["chi_square"]["df"] == 0
    assert doc["result"]["chi_square"]["p_value"] == 1.0


def test_discriminate_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "discriminate", "--scenario", "cat", "rho_cat", "rho_cat", "basis",
        "--trials", "200", "--seed", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source,label,exact_p,empirical_freq,n"
    assert len(lines) == 5  # two sources x two outcomes
    assert {line.split(",")[0] for line in lines[1:]} == {"A", "B"}


BIG_TRIALS = (
    ("run", "--scenario", "resurrection", "--initial", "dead", "resurrect10"),
    ("discriminate", "--scenario", "cat", "cat_plus", "cat_minus", "plusminus"),
)


@pytest.mark.parametrize("argv", BIG_TRIALS, ids=["run", "discriminate"])
def test_trial_count_past_int64_is_an_input_error(capsys, monkeypatch, argv):
    # the count is rejected before the exact run that `run` joins its bins to
    def not_called(*_):
        raise AssertionError("enumerate_protocol ran before the count was checked")

    monkeypatch.setattr(catlab.cli, "enumerate_protocol", not_called)
    code, out, err = run_cli(capsys, *argv, "--trials", str(1 << 63))
    assert (code, out) == (1, "")
    assert err == "catlab: error: trial count must be <= 9223372036854775807\n"


@pytest.mark.parametrize("argv", BIG_TRIALS, ids=["run", "discriminate"])
def test_largest_trial_count_runs(capsys, argv):
    n = (1 << 63) - 1
    code, doc, _ = run_json(capsys, *argv, "--trials", str(n))
    assert code == 0
    result = doc["result"]
    if argv[0] == "run":
        assert sum(row["count"] for row in result["histogram"]) == n
    else:
        for source in ("freq_a", "freq_b"):
            assert abs(sum(o[source] for o in result["outcomes"]) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_tree(capsys):
    code, doc, _ = run_json(
        capsys,
        "enumerate", "--scenario", "resurrection", "resurrect1", "--initial", "dead",
    )
    assert code == 0
    root = doc["result"]["root"]
    assert root["operation"] is None
    assert root["cumulative"] == 1.0
    assert len(root["children"]) == 2
    assert doc["result"]["pruned_mass"] == 0.0


# ---------------------------------------------------------------------------
# seed


def test_default_seed_zero(capsys):
    _, doc, _ = run_json(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "cat_plus",
        "--trials", "100",
    )
    assert doc["seed"] == 0


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64)])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--scenario", "cat", "observe", "--initial", "cat_plus", "--trials", "100"),
        ("discriminate", "--scenario", "cat", "cat_plus", "cat_minus", "plusminus"),
        ("check", "--scenario", "cat", "plusminus", "--from", "dead", "--to", "alive"),
    ],
    ids=["run", "discriminate", "check"],
)
def test_seed_outside_64_bits_is_an_input_error(capsys, argv, seed):
    # RandomStream keeps a seed's low 64 bits: such a seed would run as
    # another one while the report recorded it as given
    code, out, err = run_cli(capsys, *argv, "--seed", str(seed))
    assert (code, out) == (1, "")
    assert err == "catlab: error: seed must be between 0 and 18446744073709551615\n"


def test_largest_seed_runs(capsys):
    seed = (1 << 64) - 1
    code, doc, _ = run_json(
        capsys,
        "run", "--scenario", "cat", "observe", "--initial", "cat_plus",
        "--trials", "100", "--seed", str(seed),
    )
    assert code == 0
    assert doc["seed"] == seed


def test_env_seed_ignored(capsys, monkeypatch):
    argv = (
        "run", "--scenario", "cat", "observe", "--initial", "cat_plus",
        "--trials", "500",
    )
    monkeypatch.delenv("CATLAB_SEED", raising=False)
    _, plain, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("CATLAB_SEED", "42")
    _, with_env, _ = run_cli(capsys, *argv)
    assert json.loads(with_env)["seed"] == 0
    assert with_env == plain


# ---------------------------------------------------------------------------
# error paths


def test_unknown_scenario(capsys):
    code, out, err = run_cli(
        capsys,
        "run", "--scenario", "nope", "observe", "--initial", "alive",
    )
    assert code == 1
    assert out == ""
    assert "nope" in err


def test_unknown_names(capsys):
    in_cat = "in scenario 'cat'"
    for argv, message in (
        (("run", "--scenario", "cat", "missing", "--initial", "alive"),
         f"no protocol named 'missing' {in_cat}"),
        (("run", "--scenario", "cat", "observe", "--initial", "missing"),
         "no state or mixture named 'missing'"),
        (("discriminate", "--scenario", "cat", "alive", "dead", "missing"),
         f"no measurement named 'missing' {in_cat}"),
        (("check", "--scenario", "cat", "missing", "--from", "dead", "--to", "alive"),
         f"no measurement named 'missing' {in_cat}"),
        (("check", "--scenario", "cat", "plusminus:nope", "--from", "dead", "--to", "alive"),
         "no outcome labelled 'nope'"),
        (("check", "--scenario", "cat", "plusminus:", "--from", "dead", "--to", "alive"),
         "no outcome labelled ''"),
        (("check", "--scenario", "cat", "plusminus", "--from", "missing", "--to", "alive"),
         f"no state named 'missing' {in_cat}"),
        (("check", "--scenario", "cat", "plusminus", "--from", "dead", "--to", "missing"),
         f"no state named 'missing' {in_cat}"),
        (("enumerate", "--scenario", "cat", "missing", "--initial", "alive"),
         f"no protocol named 'missing' {in_cat}"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.splitlines()[0] == f"catlab: error: {message}", argv


def test_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "cat"])  # missing positional + --initial
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_non_utf8_scenario_file_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "bad.scn"
    f.write_bytes(b"name: t\xff\n")
    code, out, err = run_cli(
        capsys,
        "check", "--scenario", str(f), "plusminus", "--from", "dead", "--to", "alive",
    )
    assert (code, out) == (1, "")
    assert err == f"catlab: error: {f}: not valid UTF-8 at byte 7\n"


def test_custom_scenario_file(capsys, tmp_path):
    f = tmp_path / "tiny.scn"
    f.write_text(
        "space: {labels: [up, down]}\n"
        "states:\n"
        "  up: [1, 0]\n"
        "  even: [1, 1]\n"
        "measurements:\n"
        "  basis:\n"
        "    states: {up: up}\n"
        "protocols:\n"
        "  go:\n"
        "    - {measure: basis}\n",
        encoding="utf-8",
    )
    code, doc, _ = run_json(
        capsys,
        "run", "--scenario", str(f), "go", "--initial", "even", "--exact",
    )
    assert code == 0
    assert doc["scenario"] == str(f)
    table = {row["state"]: row["probability"] for row in doc["result"]["table"]}
    assert abs(table["up"] - 0.5) < 1e-10
    assert abs(table["down"] - 0.5) < 1e-10


def test_console_script():
    out = subprocess.run(
        [sys.executable, "-m", "catlab", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "catlab 0.1.0"
    argv = [
        sys.executable, "-m", "catlab",
        "run", "--scenario", "cat", "observe", "--initial", "cat_plus",
        "--trials", "256", "--seed", "13",
    ]
    a = subprocess.run(argv, capture_output=True, text=True, check=True)
    b = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 13


THREE_LEVELS = """\
space:
  labels: [a, b, c]
states:
  a: [1, 0, 0]
  b: [0, 1, 0]
  c: [0, 0, 1]
  s1: [0.84, 0.5, 0.66]
  s2: [0.19, 0.65, 0.87]
measurements:
  abc:
    states: {A: a, B: b, C: c}
"""


def test_total_variation_does_not_depend_on_string_hashing(tmp_path):
    # with three outcomes the order of the float sum shows in the last digit
    f = tmp_path / "three.scn"
    f.write_text(THREE_LEVELS, encoding="utf-8")
    argv = [sys.executable, "-m", "catlab", "discriminate", "--scenario", str(f),
            "--trials", "1000", "s1", "s2", "abc"]
    outs = [
        subprocess.run(argv, capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "2")
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["result"]["total_variation"] == 0.4774883270502795


def test_import_does_not_load_scipy():
    subprocess.run(
        [sys.executable, "-c", "import catlab, sys; assert 'scipy' not in sys.modules"],
        check=True,
    )


def test_cli_import_does_not_load_dataclasses():
    # catlab's records are plain classes: generating dataclass methods took
    # most of catlab's own import time, paid by every cold command
    subprocess.run(
        [sys.executable, "-c",
         "import catlab.cli, sys; assert 'dataclasses' not in sys.modules"],
        check=True,
    )


@pytest.mark.parametrize(
    "argv",
    [
        # 5.5 MB of JSON: the pipe breaks whatever the timing
        ("enumerate", "--scenario", "resurrection", "--initial", "dead", "resurrect10"),
        ("run", "--scenario", "resurrection", "--initial", "dead", "--exact",
         "--format", "csv", "resurrect3"),
    ],
    ids=["json", "csv"],
)
def test_reader_closing_early_keeps_exit_code(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "catlab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # like `catlab ... | head` exiting before the report
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("check", "--scenario", "cat", "plusminus", "--from", "dead", "--to", "alive"), 2),
        (("run", "--scenario", "resurrection", "--initial", "dead", "resurrect3"), 0),
        (("run", "--scenario", "no-such-scenario", "--initial", "dead", "resurrect3"), 1),
    ],
    ids=["check", "run", "error"],
)
def test_closed_stderr_keeps_exit_code(argv, code):
    argv = [sys.executable, "-m", "catlab", *argv]
    normal = subprocess.run(argv, capture_output=True)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stderr.close()  # like `catlab ... 2>&1 | head -1` exiting before stderr is written
    out = proc.stdout.read()
    assert proc.wait() == normal.returncode == code
    assert out == normal.stdout
