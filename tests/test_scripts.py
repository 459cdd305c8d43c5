"""Smoke runs of the study scripts with small sizes."""

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


@pytest.mark.parametrize("script, args, header", CASES, ids=[c[0] for c in CASES])
def test_script_runs(script, args, header):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[0].split() == header
