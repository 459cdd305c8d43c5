"""Smoke runs of the study scripts with small sizes, and their numbers."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

# (script, arguments, columns of the header line)
CASES = (
    ("theorem_grid.py", ["--points", "3", "--depth", "4"],
     ["a^2", "b^2", "violated", "depth", "witness", "p", "a^2*b^2", "|diff|"]),
    ("resurrection_curve.py", ["--max-rounds", "3", "--trials", "200"],
     ["k", "exact", "closed", "form", "|diff|", "mc", "freq"]),
    ("discrimination_table.py", ["--trials", "500"],
     ["scenario", "pure", "mixture", "measurement", "TV", "chi2", "p"]),
)


def run_script(script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize("script, args, header", CASES, ids=[c[0] for c in CASES])
def test_script_runs(script, args, header):
    assert run_script(script, args)[0].split() == header


def test_theorem_grid_witnesses_match_the_closed_form():
    lines = run_script("theorem_grid.py", ["--points", "3", "--depth", "4"])[1:]
    grid = [line.split() for line in lines if not line.startswith("degenerate")]
    degenerate = [line for line in lines if line.startswith("degenerate")]
    assert len(grid) == 3
    for _, _, violated, _, _, _, diff in grid:
        assert violated == "True"
        assert float(diff) <= 1e-12
    assert len(degenerate) == 2
    for line in degenerate:
        assert line.endswith("certificate=1")


def test_resurrection_curve_follows_the_closed_form():
    lines = run_script("resurrection_curve.py", ["--max-rounds", "3", "--trials", "200"])
    rows = [line.split() for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [1, 2, 3]
    for row in rows:
        k, exact = int(row[0]), float(row[1])
        assert abs(exact - (1 - 2.0 ** -k)) <= 1e-12


def test_discrimination_table_separates_only_superposition_readouts():
    # the paper's point: only a readout of the superposition itself tells
    # the pure state from the mixture; every other measurement sees TV = 0
    lines = run_script("discrimination_table.py", ["--trials", "500"])
    tv = {row[3]: float(row[4]) for row in (line.split() for line in lines[1:])}
    assert tv == {
        "plusminus": 0.5, "sch_plus": 0.5, "xbasis": 0.5,
        "basis": 0.0, "collective": 0.0, "device_pm": 0.0, "zbasis": 0.0,
    }
