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
        "OutcomeRecord",
        "state_key",
        "verdict_to_json",
        "check_conditions",
        "find_steering_path",
        "pure_density",
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
        "state_to_json",
        "space_to_json",
        "pure_density",
    ),
    catlab.errors: ("NotInSpan",),
    catlab.cli: ("resolve_seed",),
    catlab.lab: (
        "DEFAULT_MIN_PROB", "MIN_PROB", "_canonical", "Transitions", "_operation_key", "_born_rows",
        "GRID", "state_key", "verdict_to_json", "check_conditions", "find_steering_path",
    ),
    catlab.measure: ("records_to_json", "sample_outcome", "OutcomeRecord"),
    catlab.protocols: (
        "merge_histograms", "total_reach_probability", "TRIALS_PER_BLOCK", "_split",
        "_resolve_steps", "_program",
    ),
    catlab.RandomStream: ("derive", "uniform", "uniforms", "binomial"),
    catlab.MonteCarloResult: ("bins",),
    catlab.StateVector: ("amplitude",),
    catlab.DensityMatrix: ("probability",),
    catlab.Laboratory: (
        "operations", "transitions", "_intern_keyed", "split", "dyadic", "_splits", "_dyadic_rows",
    ),
    catlab.Operator: ("rank",),
    catlab.OutcomeNode: ("state", "children", "is_leaf"),
    catlab.OutcomeTree: ("root", "_build"),
    catlab.DiscriminationReport: ("to_json", "to_csv_rows"),
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
    for fn in (catlab.nogo_verdict, catlab.lab._search):
        assert "min_prob" not in inspect.signature(fn).parameters, fn
    # a tree reads its lab's table privately; its caller holds the lab
    sc = catlab.load_scenario("resurrection")[0]
    tree = catlab.enumerate_protocol(sc.protocols["resurrect1"], sc.lab, sc.states["dead"])
    assert not hasattr(tree, "lab") and not hasattr(tree, "table")
    # a tree keeps no nodes
    assert not hasattr(tree, "_root")
    # ``keys`` was set per lab, so the class cannot show it gone; a state
    # carries its own ``key``
    assert not hasattr(sc.lab, "keys")


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


def test_only_qstate_reads_the_grid():
    # A state builds its key when it is built; a second module that read
    # GRID would key states a second way.
    users = _modules_using("GRID")
    assert users == {"qstate.py"}, users


def _functions_with(match) -> set[str]:
    """The catlab functions, as ``module.function``, whose bodies hold a node
    that ``match`` accepts."""
    return {
        f"{path.stem}.{func.name}"
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if match(node)
    }


def _functions_naming(*names: str) -> set[str]:
    """The catlab functions, as ``module.function``, whose bodies name one of ``names``."""
    return _functions_with(lambda node: isinstance(node, ast.Name) and node.id in names)


def _functions_reading(attr: str) -> set[str]:
    """The catlab functions, as ``module.function``, that read an attribute named ``attr``."""
    return _functions_with(lambda n: isinstance(n, ast.Attribute) and n.attr == attr)


def _protocols_reading(attr: str) -> set[str]:
    """The protocols.py functions that read an attribute named ``attr``."""
    return {f for f in _functions_reading(attr) if f.startswith("protocols.")}


def test_one_tree_walker():
    # The exact propagation and the Monte Carlo split step a program over
    # the lab's one step view by cells; OutcomeTree._walk is the one code
    # that expands tree nodes.  A second node builder in protocols.py would
    # read rows too, and a per-run view of the rows would read them beside
    # the lab's own view.
    assert _protocols_reading("rows") == {"protocols._walk"}
    assert _protocols_reading("step") == {
        "protocols.enumerate_protocol", "protocols.run_monte_carlo"
    }


def test_only_leaf_mass_reads_the_match_table():
    # Laboratory._fill starts the match table and leaf_mass is its one
    # reader; a second reader could miss the space check that guards it.
    # The set of states_match callers is fixed: the search and the verdict
    # test on a fresh lab, where a table would never hit, and a histogram's
    # frequency tests its own finals.
    assert _functions_reading("_matches") == {"lab._fill", "protocols.leaf_mass"}
    assert _functions_naming("states_match") == {
        "lab._search", "lab.nogo_verdict", "protocols.leaf_mass", "protocols.frequency"
    }


def test_one_snapping_rule():
    # Sampling and discrimination draw over the one _weights; a second
    # module that read SPLIT_GRID would snap probabilities a second way.
    assert _modules_using("SPLIT_GRID") == {"lab.py"}
    assert _functions_naming("_weights") == {
        "lab.step", "protocols.discriminate", "protocols.sample"
    }


def test_one_draw_rule():
    # RandomStream.draw is the one function that picks a binomial or a
    # multinomial, by the form draw_weights gave the weights; a second
    # chooser could split two rows another way.  Only rng.py holds the
    # numpy Generator, and sampling and discrimination draw through
    # RandomStream.draw alone.
    assert _functions_reading("binomial") & _functions_reading("multinomial") == {"rng.draw"}
    assert _functions_reading("binomial") == {"rng.draw"}
    assert _functions_reading("multinomial") == {"rng.draw", "rng.multinomial"}
    assert _functions_naming("draw_weights") == {
        "lab.step", "protocols.discriminate", "protocols.sample"
    }
    assert _modules_using("Generator") == {"rng.py"}
    assert _modules_using("_gen") == {"rng.py"}
    assert _modules_using("random") == {"rng.py"}
    assert _protocols_reading("draw") == {
        "protocols.run_monte_carlo", "protocols.discriminate", "protocols.sample"
    }


def test_only_rng_keys_a_generator():
    # rng.py builds every Philox and is the one writer of a bit generator's
    # state, so a stream is keyed one way whether it is built or re-keyed.
    # Runs take their streams from rng's idle pool: protocols builds none,
    # and take_stream is the one place that builds a stream for a run.
    def writes_state(node) -> bool:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return any(isinstance(t, ast.Attribute) and t.attr == "state" for t in targets)

    assert _modules_using("Philox") == {"rng.py"}
    assert _functions_with(writes_state) == {"rng.rekey"}
    assert "protocols.py" not in _modules_using("RandomStream")
    builds = _functions_with(
        lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) == "RandomStream"
    )
    assert builds == {"rng.take_stream"}
    assert _functions_naming("take_stream") == {
        "protocols.run_monte_carlo", "protocols.discriminate", "protocols.sample"
    }


def test_one_largest_modulus_rule():
    # Every validation reads its largest entry through qstate._largest, one
    # ufunc reduction with no numpy wrapper in Python between it and C.
    def calls(owner: str, attr: str):
        return lambda n: (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == attr
            and ast.unparse(n.func.value) == owner
        )

    assert _functions_with(calls("np", "max")) == set()
    assert _functions_with(calls("np", "amax")) == set()
    assert _functions_with(calls("np.maximum", "reduce")) == {"qstate._largest"}


def test_only_the_program_builders_read_stop_if():
    # A lab resolves each protocol into a program once; a walker that met
    # StopIfStep itself would decide a second time what a stop means, and
    # one that resolved a protocol past the lab's memo would resolve it again.
    users = _functions_naming("StopIfStep")
    assert users == {"protocols._unroll", "protocols._resolved", "scenario._parse_steps"}, users
    assert _functions_naming("_resolved") == {
        "protocols.enumerate_protocol", "protocols.run_monte_carlo"
    }


def test_sampling_hashes_no_state_key():
    # run_monte_carlo returns the lab's states by id; a key read per final
    # state would hash a whole key tuple, 513 entries at d = 16, per run
    readers = _protocols_reading("key")
    assert "protocols.run_monte_carlo" not in readers, readers


def test_only_born_rows_applies_an_operation():
    # born_rows turns an (operation, state) pair into rows; a second caller
    # of the measurement or unitary primitives would decide it a second time
    # and read past the memo.
    users = _functions_naming("outcome_distribution", "apply_unitary")
    assert users == {"lab.born_rows"}, users


RECORDS = {
    "lab.py": {"SteeringPath", "NoGoVerdict"},
    "protocols.py": {"OutcomeNode", "MonteCarloResult", "DiscriminationReport"},
}


def test_records_are_declared_tuples():
    # A value record declares its fields; a hand-written constructor would
    # write each field three times.
    for module, names in RECORDS.items():
        classes = {
            node.name: node
            for node in ast.parse((SRC / module).read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef) and node.name in names
        }
        assert set(classes) == names, module
        for name, cls in classes.items():
            assert [ast.unparse(b) for b in cls.bases] == ["NamedTuple"], name
            methods = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
            assert not methods & {"__init__", "__new__"}, name


def test_records_compare_by_value_and_are_immutable():
    sc = catlab.load_scenario("resurrection")[0]
    lab, dead, alive = sc.lab, sc.states["dead"], sc.states["alive"]
    pm = sc.measurements["pm"]
    spec = sc.protocols["resurrect3"]
    verdicts = [
        catlab.nogo_verdict(lab, pm.projector(pm.labels[0]), alive, dead) for _ in range(2)
    ]
    runs = [catlab.run_monte_carlo(spec, lab, dead, 100, 7) for _ in range(2)]
    trees = [catlab.enumerate_protocol(spec, lab, dead) for _ in range(2)]
    reports = [catlab.discriminate(dead, alive, pm, 50, 3) for _ in range(2)]
    pairs = [verdicts, [v.witness for v in verdicts], runs, reports,
             [t.leaves()[0] for t in trees]]
    for a, b in pairs:
        assert a is not b and a == b, type(a).__name__
        with pytest.raises(AttributeError):  # a field
            setattr(a, a._fields[0], None)
        with pytest.raises(AttributeError):  # a new attribute
            a.note = ""
    # records holding dicts cannot be hashed; the others can
    for a, _ in (runs, reports):
        with pytest.raises(TypeError):
            hash(a)
    assert hash(trees[0].leaves()[0]) == hash(trees[1].leaves()[0])


def test_only_measure_cuts_rows():
    # outcome_distribution decides which rows carry no post state; the
    # search, the tree and Monte Carlo follow its None, so a second module
    # that compared against PRUNE_TOL would keep a cut of its own.
    users = _modules_using("PRUNE_TOL")
    assert users == {"measure.py"}, users


REPORT_KEYS = {"final_state", "invariant_dim", "empirical_freq", "exact_a", "freq_b", "re", "im"}


def test_only_the_cli_lays_out_reports():
    # A report key written in a library module would lay out a report
    # outside FORMAT_VERSION's module; these keys belong to reports alone.
    users = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in REPORT_KEYS
    }
    assert users == {"cli.py"}, users


def test_one_verdict_site():
    # nogo_verdict decides a verdict's fields once; a second NoGoVerdict
    # call would be a second place to keep in step with the report.
    tree = ast.parse((SRC / "lab.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "NoGoVerdict"
    ]
    assert len(calls) == 1


def test_spaces_compare_by_identity_only():
    # HilbertSpace is one object per value, so a space check is an `is`
    # test; an `==` on a space, or an __eq__ to serve it, would be a second
    # way to decide that two spaces are the same
    def space(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "space") or (
            isinstance(node, ast.Name) and node.id == "space"
        )

    found = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(space(x) for x in (node.left, *node.comparators))
    ]
    assert found == []
    tree = ast.parse((SRC / "qstate.py").read_text(encoding="utf-8"))
    [cls] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "HilbertSpace"]
    methods = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
    assert not methods & {"__eq__", "__hash__"}, methods
