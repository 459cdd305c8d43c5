"""The package's public name list, and the imports of its modules, tests and scripts."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import catlab
import catlab.cli
import catlab.errors
import catlab.lab
import catlab.measure
import catlab.protocols
import catlab.qstate

SRC = Path(catlab.__file__).parent
TESTS = Path(__file__).parent
SCRIPTS = TESTS.parent / "scripts"
PERFBENCH = TESTS.parent / "perfbench"

REMOVED = {
    catlab: (
        "ScenarioDoc",
        "serialize_scenario",
        "parse_scenario",
        "identity_operator",
        "merge_histograms",
        "overlap_probability",
        "total_reach_probability",
        "NotInSpan",
        "orthogonal_in_span",
        "tensor",
        "unitary_operator",
        "canonical_state",
        "sample_outcome",
        "Transitions",
    ),
    catlab.qstate: (
        "density_from_json",
        "density_to_json",
        "identity_operator",
        "overlap_probability",
        "space_from_json",
        "state_from_json",
        "NotInSpan",
        "SPAN_TOL",
        "orthogonal_in_span",
        "tensor",
        "unitary_operator",
        "canonical_state",
    ),
    catlab.errors: ("NotInSpan",),
    catlab.cli: ("resolve_seed",),
    catlab.lab: (
        "DEFAULT_MIN_PROB", "MIN_PROB", "_canonical", "Transitions", "_operation_key", "_born_rows",
    ),
    catlab.measure: ("records_to_json", "sample_outcome"),
    catlab.protocols: ("merge_histograms", "total_reach_probability", "TRIALS_PER_BLOCK", "_split"),
    catlab.RandomStream: ("derive", "uniform", "uniforms"),
    catlab.StateVector: ("amplitude",),
    catlab.DensityMatrix: ("probability",),
    catlab.Laboratory: ("operations", "transitions"),
    catlab.Operator: ("rank",),
    catlab.OutcomeNode: ("state",),
}


def test_all_is_sorted_unique_and_resolves():
    names = catlab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(catlab, name), name


def test_removed_names_stay_removed():
    for owner, names in REMOVED.items():
        for name in names:
            assert name not in getattr(owner, "__all__", ()), (owner, name)
            assert not hasattr(owner, name), (owner, name)
    for fn in (catlab.nogo_verdict, catlab.find_steering_path):
        assert "min_prob" not in inspect.signature(fn).parameters, fn
    # a tree reads its lab's table as ``tree.lab``; ``tree.table`` is gone
    sc = catlab.load_scenario("resurrection")[0]
    tree = catlab.enumerate_protocol(sc.protocols["resurrect1"], sc.lab, sc.states["dead"])
    assert tree.lab is sc.lab and not hasattr(tree, "table")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"),
)
def test_no_unused_imports(module):
    # __init__.py is left out: it imports names only to re-export them
    assert _unused_imports(SRC / module) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_imports_in_tests(module):
    assert _unused_imports(TESTS / module) == []


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_no_unused_imports_in_scripts(script):
    assert _unused_imports(SCRIPTS / script) == []


def _catlab_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from catlab... import name`` in ``path``,
    and (module, None) for each ``import catlab...``, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "catlab":
            found += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "catlab"]
    return found


@pytest.mark.parametrize(
    "path",
    sorted([*PERFBENCH.glob("*.py"), *SCRIPTS.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_benchmark_and_script_imports_resolve(path):
    # The benchmark and the scripts import catlab by name; a deletion that
    # breaks them should fail here, not only in a benchmark run.
    for module, name in _catlab_imports(path):
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), (module, name)


def _modules_using(name: str) -> set[str]:
    """The catlab modules whose code, not counting docstrings, names ``name``."""
    return {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    }


def test_only_qstate_fixes_the_phase():
    # A vector fixes its phase when it is built; a second module that
    # called canonical_amps would decide the phase twice.
    users = _modules_using("canonical_amps")
    assert users == {"qstate.py"}, users


def test_only_measure_cuts_rows():
    # outcome_distribution decides which rows carry no post state; the
    # search, the tree and Monte Carlo follow its None, so a second module
    # that compared against PRUNE_TOL would keep a cut of its own.
    users = _modules_using("PRUNE_TOL")
    assert users == {"measure.py"}, users
