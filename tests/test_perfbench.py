"""The benchmark's own passes, run once at small size against the package.

An API change that breaks ``perfbench/`` should fail here, not only as a
failed benchmark run.  Nothing under ``perfbench/`` is edited: its modules
are imported as they are and run on generated inputs in a temporary
directory.
"""

import importlib
from pathlib import Path

import catlab.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def test_one_pass_of_each_workload_is_correct(tmp_path, monkeypatch, capsysbinary):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gen = importlib.import_module("gen")
    work = importlib.import_module("work")
    tally = work.Tally()
    for workload, one_pass in (("resurrection", work.resurrection_pass),
                               ("random-labs", work.labs_pass)):
        manifest = gen.write_inputs(workload, SEED, tmp_path / workload)
        one_pass(manifest, work.load_all(manifest), tally, SEED, work.Run())
    for cmd in gen.cli_matrix(SEED):
        code = catlab.cli.main(cmd["args"])
        tally.record(cmd["id"], work.check_cli(cmd, code, capsysbinary.readouterr().out))
    assert tally.attempted > len(gen.cli_matrix(SEED))
    # the benchmark's rule for a correct run: every failure is a known defect
    assert tally.failed == tally.known, tally.failures


def test_tracer_targets_resolve_but_the_known_stale_ones(monkeypatch):
    # Tracer.install skips a target it cannot find, and that layer's metric
    # then reads 0 with no error: a rename of a traced function fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    unresolved = set()
    for name, modname, attr in tracing.TARGETS:
        try:
            home = importlib.import_module(modname)
        except ImportError:
            unresolved.add(name)
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        if owner is None or getattr(owner, leaf, None) is None:
            unresolved.add(name)
    assert unresolved == {
        "lab.state_key", "qstate.canonical", "jacobi.min_eigenvalue", "rng.uniforms",
    }
