"""Golden stdout: a fixed matrix of CLI commands must keep its exact bytes.

Each case runs ``catlab.cli.main`` in process and compares stdout with
``tests/golden/<id>.txt`` byte for byte, and the exit code with the
recorded one.  Reports too large to check in are pinned by the sha256 of
their stdout instead (``HASHED``).  The cases in ``PROCESS`` also run as
a user runs them, through ``python -m catlab``, and must print the same
bytes.  After an intended report change,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``,
copy the digests it prints into ``HASHED``, and explain the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from catlab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

# (id, argv, exit code)
CASES = (
    ("check-cat",
     ["check", "--scenario", "cat", "--from", "dead", "--to", "alive", "plusminus:+"], 2),
    ("check-stone-bread",
     ["check", "--scenario", "stone-bread", "--from", "stone", "--to", "bread", "mixbasis:+"], 2),
    ("check-composite",
     ["check", "--scenario", "composite", "--from", "dd", "--to", "ua", "sch_plus"], 2),
    # a conclusive "no", and a "no" cut at the depth bound
    ("check-cat-safe",
     ["check", "--scenario", "cat", "--from", "dead", "--to", "alive", "basis:alive"], 0),
    ("check-cat-depth-cut",
     ["check", "--scenario", "cat", "--from", "dead", "--to", "alive", "--depth", "1",
      "plusminus:+"], 0),
    # a candidate labelled like the complement: the complement is primed
    ("check-composite-complement",
     ["check", "--scenario", "composite", "--from", "dd", "--to", "ua", "sch_plus:⊥"], 2),
    ("run-exact-resurrect3",
     ["run", "--scenario", "resurrection", "--initial", "dead", "--exact", "resurrect3"], 0),
    ("run-exact-csv-rho",
     ["run", "--scenario", "resurrection", "--initial", "rho_cat", "--exact",
      "--format", "csv", "resurrect3"], 0),
    ("run-exact-photon",
     ["run", "--scenario", "photon", "--initial", "z0", "--exact", "through_rotated"], 0),
    ("run-sample-cat",
     ["run", "--scenario", "cat", "--initial", "cat_plus", "--trials", "20000",
      "--seed", "100", "observe"], 0),
    ("run-sample-csv-composite",
     ["run", "--scenario", "composite", "--initial", "rho_s", "--trials", "20000",
      "--seed", "101", "--format", "csv", "collective_observe"], 0),
    ("disc-cat-pm",
     ["discriminate", "--scenario", "cat", "--trials", "100000", "--seed", "102",
      "cat_plus", "rho_cat", "plusminus"], 0),
    ("disc-cat-basis-csv",
     ["discriminate", "--scenario", "cat", "--trials", "100000", "--seed", "103",
      "--format", "csv", "cat_plus", "rho_cat", "basis"], 0),
    ("disc-photon-x",
     ["discriminate", "--scenario", "photon", "--trials", "100000", "--seed", "104",
      "x_plus", "rho_ph", "xbasis"], 0),
    ("enumerate-resurrect1",
     ["enumerate", "--scenario", "resurrection", "--initial", "dead", "resurrect1"], 0),
    # a mid-range p-value, so the chi-square tail shows in the bytes
    ("disc-cat-basis",
     ["discriminate", "--scenario", "cat", "--trials", "100000", "--seed", "3",
      "cat_plus", "rho_cat", "basis"], 0),
    ("run-exact-resurrect10",
     ["run", "--scenario", "resurrection", "--initial", "dead", "--exact", "resurrect10"], 0),
    # protocols with a unitary step, from a mixture and from a pure state
    ("enumerate-photon-rho",
     ["enumerate", "--scenario", "photon", "--initial", "rho_ph", "through_rotated"], 0),
    ("run-exact-photon-rho",
     ["run", "--scenario", "photon", "--initial", "rho_ph", "--exact", "through_rotated"], 0),
    ("run-sample-photon-rho",
     ["run", "--scenario", "photon", "--initial", "rho_ph", "--trials", "20000",
      "--seed", "106", "through_rotated"], 0),
    ("enumerate-photon-x",
     ["enumerate", "--scenario", "photon", "--initial", "x_plus", "through_rotated"], 0),
)

# (id, argv, sha256 of stdout): the 6139-node resurrect10 trees, 5.5 MB each
HASHED = (
    ("enumerate-resurrect10",
     ["enumerate", "--scenario", "resurrection", "--initial", "dead", "resurrect10"],
     "66ff14f1d38b240a837aae8f6165e66071a904e46cbf53d42059c3526d22d79e"),
    ("enumerate-resurrect10-rho",
     ["enumerate", "--scenario", "resurrection", "--initial", "rho_cat", "resurrect10"],
     "48db0c790c704e8971d105317b432d0a997b8fe32978796ab56369487967c13b"),
)


# one case per subcommand and format, and the largest report
PROCESS = (
    "check-cat",
    "run-exact-csv-rho",
    "run-sample-cat",
    "disc-cat-basis-csv",
    "enumerate-resurrect1",
    "enumerate-resurrect10",
)

# discriminate prints the chi-square statistic of counts on an outcome the
# other source never gives as Infinity, which is not JSON (ROADMAP item 4)
NOT_STRICT_JSON = ("disc-cat-pm", "disc-photon-x")


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("cid, argv, exit_code", CASES, ids=[c[0] for c in CASES])
def test_golden_stdout(cid, argv, exit_code):
    code, out = run_case(argv)
    assert code == exit_code
    expected = (GOLDEN / f"{cid}.txt").read_bytes().decode("utf-8")
    assert out == expected


def digest(out):
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cid, argv, sha256", HASHED, ids=[c[0] for c in HASHED])
def test_hashed_stdout(cid, argv, sha256):
    code, out = run_case(argv)
    assert code == 0
    assert digest(out) == sha256


def run_process(argv):
    proc = subprocess.run([sys.executable, "-m", "catlab", *argv], capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "cid, argv, exit_code",
    [c for c in CASES if c[0] in PROCESS],
    ids=[c[0] for c in CASES if c[0] in PROCESS],
)
def test_golden_stdout_of_the_process(cid, argv, exit_code):
    code, out, _ = run_process(argv)
    assert code == exit_code
    assert out == (GOLDEN / f"{cid}.txt").read_bytes()


@pytest.mark.parametrize(
    "cid, argv, sha256",
    [c for c in HASHED if c[0] in PROCESS],
    ids=[c[0] for c in HASHED if c[0] in PROCESS],
)
def test_hashed_stdout_of_the_process(cid, argv, sha256):
    code, out, _ = run_process(argv)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == sha256


def test_an_input_error_of_the_process():
    code, out, err = run_process(
        ["run", "--scenario", "cat", "--initial", "cat_plus", "missing"])
    assert (code, out) == (1, b"")
    assert err == b"catlab: error: no protocol named 'missing' in scenario 'cat'\n"


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize(
    "cid",
    [
        pytest.param(cid, marks=pytest.mark.xfail(
            strict=True, raises=ValueError,
            reason="a non-finite chi-square statistic prints as Infinity (ROADMAP item 4)"))
        if cid in NOT_STRICT_JSON else cid
        for cid, argv, _ in CASES
        if "csv" not in argv
    ],
)
def test_json_goldens_are_strict_json(cid):
    json.loads((GOLDEN / f"{cid}.txt").read_text(encoding="utf-8"), parse_constant=_refuse)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for cid, argv, _ in CASES:
        (GOLDEN / f"{cid}.txt").write_bytes(run_case(argv)[1].encode("utf-8"))
    for cid, argv, _ in HASHED:
        print(cid, digest(run_case(argv)[1]))
