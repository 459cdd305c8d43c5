"""Scenario file parsing and lookup."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import catlab.scenario
from catlab import (
    CatlabError,
    ParseError,
    Scenario,
    UnknownScenario,
    ValidationError,
    load_scenario,
    make_state,
    parse_scenario_text,
    scenario_sha256,
    shipped_scenario_path,
)

MINIMAL = """\
name: t
space:
  labels: [x, y]
"""


def parse(text, path="t.scn"):
    return parse_scenario_text(text, path)


# ---------------------------------------------------------------------------
# building blocks


def test_name_defaults_to_file_stem():
    sc = parse_scenario_text("space: {labels: [a, b]}", "/tmp/mylab.scn")
    assert sc.name == "mylab"


def test_amplitude_forms():
    sc = parse(
        MINIMAL
        + """\
states:
  a: [0.6, 0.8i]
  b: ["0.6+0.8i", 0]
  c: [i, -i]
  d: [1e-3, 1]
"""
    )
    literal = {"a": (0.6, 0.8j), "b": (0.6 + 0.8j, 0.0), "c": (1j, -1j), "d": (1e-3, 1.0)}
    for name, amps in literal.items():
        assert np.array_equal(sc.states[name].amps, make_state(sc.space, amps).amps), name


def test_bad_amplitude_located():
    bad = MINIMAL + "states:\n  s: [1, zebra]\n"
    with pytest.raises(ParseError) as exc:
        parse(bad)
    assert str(exc.value).startswith("t.scn:5:10: bad complex literal 'zebra'")


def test_wrong_amplitude_count():
    with pytest.raises(ParseError, match="has 3 amplitudes, need 2"):
        parse(MINIMAL + "states:\n  s: [1, 0, 0]\n")


def test_zero_state_rejected():
    with pytest.raises(ValidationError, match="ZeroVector"):
        parse(MINIMAL + "states:\n  s: [0, 0]\n")


def test_tiny_amplitudes_load():
    sc = parse(MINIMAL + "states:\n  s: [3e-11, 4e-11]\n  t: [1e-200, 0]\n")
    for name, plain in (("s", [3, 4]), ("t", [1, 0])):
        assert sc.states[name].amps.tobytes() == make_state(sc.space, plain).amps.tobytes()


def test_huge_amplitudes_load():
    sc = parse(MINIMAL + "states:\n  s: [3e154, 4e154]\n  t: [1e200, 1e200]\n")
    for name, plain in (("s", [3, 4]), ("t", [1, 1])):
        assert sc.states[name].amps.tobytes() == make_state(sc.space, plain).amps.tobytes()


def test_factor_space():
    sc = parse(
        """\
space:
  factors:
    - {name: device, labels: [undecayed, decayed]}
    - {name: cat, labels: [alive, dead]}
"""
    )
    assert sc.space.dim == 4
    assert sc.space.labels[0] == "undecayed⊗alive"
    assert sc.space.factors is not None


def test_space_validation():
    with pytest.raises(ParseError, match="exactly one of labels or factors"):
        parse("space: {name: x}")
    with pytest.raises(ParseError, match="at least two"):
        parse("space: {factors: [{labels: [a, b]}]}")
    with pytest.raises(ParseError, match="missing required section"):
        parse("states:\n  s: [1, 0]\n")


def test_empty_and_malformed_files():
    with pytest.raises(ParseError, match="empty scenario"):
        parse("")
    with pytest.raises(ParseError):
        parse("space: [unclosed\n")
    with pytest.raises(ParseError, match="unknown section 'flavour'"):
        parse(MINIMAL + "flavour: strange\n")


def test_duplicate_keys_rejected():
    with pytest.raises(ParseError, match="duplicate key 's'"):
        parse(MINIMAL + "states:\n  s: [1, 0]\n  s: [0, 1]\n")


def test_undeclared_references():
    with pytest.raises(ParseError, match="undeclared state 'ghost'"):
        parse(
            MINIMAL
            + "states:\n  s: [1, 0]\nmixtures:\n  m:\n    - {weight: 1, state: ghost}\n"
        )
    with pytest.raises(ParseError, match="undeclared state 'ghost'"):
        parse(MINIMAL + "states:\n  s: [1, 0]\nforbidden:\n  - {from: s, to: ghost}\n")
    with pytest.raises(ParseError, match="undeclared state 'ghost'"):
        parse(MINIMAL + "measurements:\n  m:\n    states: {out: ghost}\n")
    with pytest.raises(ParseError, match="undeclared measurement 'm2'"):
        parse(MINIMAL + "protocols:\n  p:\n    - {measure: m2}\n")
    with pytest.raises(ParseError, match="undeclared measurement 'm2'"):
        parse(MINIMAL + "lab:\n  measurements: [m2]\n")
    with pytest.raises(ParseError, match="undeclared unitary 'u'"):
        parse(MINIMAL + "protocols:\n  p:\n    - {unitary: u}\n")


def test_validation_errors_name_the_cause():
    nonorth = (
        MINIMAL
        + "states:\n  x: [1, 0]\n  p: [1, 1]\nmeasurements:\n  m:\n    states: {a: x, b: p}\n"
    )
    with pytest.raises(ValidationError, match="NotOrthogonal"):
        parse(nonorth)
    badw = (
        MINIMAL
        + "states:\n  x: [1, 0]\nmixtures:\n  m:\n    - {weight: 0.6, state: x}\n    - {weight: 0.6, state: x}\n"
    )
    with pytest.raises(ValidationError, match="BadWeights"):
        parse(badw)


def test_projector_measurement_and_matrix_shape():
    sc = parse(
        MINIMAL
        + """\
measurements:
  m:
    projectors:
      first:
        - [1, 0]
        - [0, 0]
"""
    )
    m = sc.measurements["m"]
    assert m.labels == ("first", "⊥")
    with pytest.raises(ParseError, match="must be square"):
        parse(MINIMAL + "unitaries:\n  u:\n    - [1, 0]\n    - [0, 1]\n    - [0, 0]\n")
    with pytest.raises(ParseError, match="is not 2x2"):
        parse(
            MINIMAL
            + "unitaries:\n  u:\n    - [1, 0, 0]\n    - [0, 1, 0]\n    - [0, 0, 1]\n"
        )


XY = MINIMAL + "states:\n  x: [1, 0]\n  y: [0, 1]\n"
XYP = XY + "  p: [1, 1]\n"
WITH_M = XY + "measurements:\n  m:\n    states: {a: x, b: y}\n"
WITH_U = WITH_M + "unitaries:\n  u:\n    - [0, 1]\n    - [1, 0]\n"
P = ParseError
V = ValidationError


@pytest.mark.parametrize(
    "text, cls, message",
    [
        # unknown and missing keys in fixed-key mappings
        (XY + "mixtures:\n  r:\n    - {weight: 1, state: x, extra: 1}\n",
         P, "t.scn:9:29: unknown mixture key 'extra'"),
        (XY + "mixtures:\n  r:\n    - {weight: 1}\n",
         P, "t.scn:9:7: mixture part needs weight and state"),
        (XY + "forbidden:\n  - {from: x, to: y, via: x}\n",
         P, "t.scn:8:22: unknown forbidden key 'via'"),
        (XY + "forbidden:\n  - {from: x}\n",
         P, "t.scn:8:5: forbidden pair needs from and to"),
        (WITH_M + "protocols:\n  p:\n    - repeat: {count: 2, body: [], times: 3}\n",
         P, "t.scn:12:36: unknown repeat key 'times'"),
        (WITH_M + "protocols:\n  p:\n    - repeat: {body: []}\n",
         P, "t.scn:12:15: repeat needs count and body"),
        ("space: {labels: [x, y], size: 2}\n",
         P, "t.scn:1:25: unknown space key 'size'"),
        ("space: {name: s}\n",
         P, "t.scn:1:8: space needs exactly one of labels or factors"),
        ("space:\n  labels: [x, y]\n  factors: [{labels: [a, b]}, {labels: [c, d]}]\n",
         P, "t.scn:2:3: space needs exactly one of labels or factors"),
        (WITH_M + "lab:\n  measurements: [m]\n  gates: []\n",
         P, "t.scn:12:3: unknown lab key 'gates'"),
        # undeclared names at every reference site
        (XY + "mixtures:\n  r:\n    - {weight: 1, state: ghost}\n",
         P, "t.scn:9:26: undeclared state 'ghost'"),
        (XY + "measurements:\n  m:\n    states: {a: x, b: ghost}\n",
         P, "t.scn:9:23: undeclared state 'ghost'"),
        (XY + "forbidden:\n  - {from: ghost, to: y}\n",
         P, "t.scn:8:12: undeclared state 'ghost'"),
        (XY + "forbidden:\n  - {from: x, to: ghost}\n",
         P, "t.scn:8:19: undeclared state 'ghost'"),
        (WITH_M + "lab:\n  measurements: [m, ghost]\n",
         P, "t.scn:11:21: undeclared measurement 'ghost'"),
        (WITH_U + "lab:\n  unitaries: [ghost]\n",
         P, "t.scn:15:15: undeclared unitary 'ghost'"),
        (WITH_M + "protocols:\n  p:\n    - {measure: ghost}\n",
         P, "t.scn:12:17: undeclared measurement 'ghost'"),
        (WITH_U + "protocols:\n  p:\n    - {measure: m}\n    - {unitary: ghost}\n",
         P, "t.scn:17:17: undeclared unitary 'ghost'"),
        (WITH_M + "protocols:\n  p:\n    - {measure: m}\n    - {stop_if: alve}\n",
         P, "t.scn:13:17: undeclared outcome 'alve'"),
        # object invariants, located at the declaration that broke them
        ("space:\n  labels: [x, x]\n",
         V, "t.scn:2:3: CatlabError: basis labels must be unique within a space"),
        (MINIMAL + "states:\n  z: [0, 0]\n",
         V, "t.scn:5:6: ZeroVector: cannot normalise an all-zero amplitude list"),
        (XY + "mixtures:\n  r:\n    - {weight: 0.6, state: x}\n    - {weight: 0.6, state: y}\n",
         V, "t.scn:9:5: BadWeights: weights sum to 1.2, expected 1"),
        (XYP + "measurements:\n  m:\n    states: {a: x, b: p}\n",
         V, "t.scn:10:5: NotOrthogonal: states 'a' and 'b' overlap (|<i|j>| = 0.707)"),
        # below the states' 1e-9, above the projectors' 1e-10: named before completion
        (MINIMAL + "states: {x: [1, 0], y: [5e-10, 1]}\n"
         "measurements:\n  m:\n    states: {x: x, y: y}\n",
         V, "t.scn:7:5: NotOrthogonal: projectors 'x' and 'y' overlap"),
        # each pair passes, but their overlaps add up in the complement
        ("name: t\nspace:\n  labels: [a, b, c, d]\n"
         "states:\n  x: [1.0000000005, 1, 1, 1]\n  y: [1.0000000005, -1, 1, -1]\n"
         "  z: [1.0000000005, 1, -1, -1]\n"
         "measurements:\n  m:\n    states: {x: x, y: y, z: z}\n",
         V, "t.scn:10:5: NotOrthogonal: outcomes are not orthogonal enough to complete with '⊥'"),
        (MINIMAL + "measurements:\n  m:\n    projectors:\n      a:\n        - [1, 1]\n        - [0, 0]\n",
         V, "t.scn:8:9: CatlabError: projector is not Hermitian"),
        (MINIMAL + "measurements:\n  m:\n    projectors:\n      a:\n        - [1, 0]\n        - [0, 0]\n"
         "      b:\n        - [1, 0]\n        - [0, 0]\n",
         V, "t.scn:6:5: NotOrthogonal: projectors 'a' and 'b' overlap"),
        (MINIMAL + "measurements:\n  m:\n    projectors:\n      a:\n        - [0.5, 0]\n"
         "        - [0, 0]\n",
         V, "t.scn:8:9: CatlabError: projector is not idempotent"),
        (MINIMAL + "unitaries:\n  u:\n    - [1, 1]\n    - [0, 1]\n",
         V, "t.scn:6:5: CatlabError: matrix is not unitary"),
        (XYP + "forbidden:\n  - {from: x, to: p}\nlab:\n  measurements: []\n",
         V, "t.scn:11:3: CatlabError: forbidden pair must be distinct orthogonal states"),
        (XYP + "forbidden:\n  - {from: x, to: p}\n",
         V, "t.scn:1:1: CatlabError: forbidden pair must be distinct orthogonal states"),
        # node shapes and scalar forms
        (XY + "mixtures: [1, 2]\n",
         P, "t.scn:7:11: mixtures must be a mapping"),
        (MINIMAL + "forbidden: {a: b}\n",
         P, "t.scn:4:12: forbidden must be a sequence"),
        ("space:\n  labels: [[x], y]\n",
         P, "t.scn:2:12: basis label must be a scalar"),
        ("space:\n  labels: ['', y]\n",
         P, "t.scn:2:12: basis label must be a non-empty string"),
        (XY + "mixtures:\n  r:\n    - {weight: heavy, state: x}\n",
         P, "t.scn:9:16: weight: not a number: 'heavy'"),
        (WITH_M + "protocols:\n  p:\n    - repeat: {count: two, body: []}\n",
         P, "t.scn:12:23: repeat count: not an integer: 'two'"),
        # allowed characters that complex() still rejects
        (MINIMAL + "states:\n  z: [1..2, 0]\n",
         P, "t.scn:5:7: bad complex literal '1..2'"),
        (MINIMAL + "states:\n  z: []\n",
         P, "t.scn:5:6: state 'z' must be a non-empty sequence"),
        (MINIMAL + "unitaries:\n  u: []\n",
         P, "t.scn:5:6: unitary 'u' must be a non-empty list of rows"),
        # names declared twice, and a measurement without outcomes
        (XY + "mixtures:\n  x:\n    - {weight: 1, state: y}\n",
         P, "t.scn:8:3: name 'x' already declared as a state"),
        (WITH_M + "unitaries:\n  m:\n    - [0, 1]\n    - [1, 0]\n",
         P, "t.scn:11:3: name 'm' already declared as a measurement"),
        (MINIMAL + "measurements:\n  m:\n    projectors: {}\n",
         P, "t.scn:6:17: measurement 'm' declares no outcomes"),
        # refused before composing: an alias, and nesting past MAX_NESTING,
        # which is 64 deep (the root mapping is the first level)
        (MINIMAL + "states:\n  x: &v [1, 0]\n  y: *v\n",
         P, "t.scn:6:6: aliases are not supported: *v"),
        ("a: " + "[" * 64 + "]" * 64 + "\n",
         P, "t.scn:1:67: collections nested deeper than 64"),
        ("a: " + "[" * 63 + "]" * 63 + "\n",
         P, "t.scn:1:1: unknown section 'a'"),
    ],
)
def test_diagnostics_are_pinned(text, cls, message):
    with pytest.raises(CatlabError) as exc:
        parse(text)
    assert type(exc.value) is cls
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, prefix, own",
    [
        ("space:\n  labels: [x, y\nname: t\n", "t.scn:3:5: ", False),  # unterminated flow sequence
        ("a: b: c\n", "t.scn:1:5: ", False),
        ("space:\n  labels: *ghost\n", "t.scn:2:11: ", True),  # undefined alias
        # refused by catlab, not libyaml, in one line
        ("space: {labels: [a, b]}\n---\nspace: {labels: [c, d]}\n", "t.scn:2:1: ", True),
        ("space: {labels: [&x a, &x b]}\n", "t.scn:1:24: ", True),
    ],
)
def test_yaml_syntax_errors_are_located(text, prefix, own):
    with pytest.raises(CatlabError) as exc:
        parse(text)
    assert type(exc.value) is ParseError
    assert str(exc.value).startswith(prefix)
    if own:
        assert "\n" not in str(exc.value)


def test_a_state_and_a_mixture_may_not_share_a_name():
    sc = parse(XY + "mixtures:\n  r:\n    - {weight: 1, state: x}\n")
    with pytest.raises(CatlabError) as exc:
        Scenario(sc.name, sc.space, sc.states, {"y": sc.mixtures["r"], "x": sc.mixtures["r"]},
                 {}, {}, sc.lab)
    assert str(exc.value) == "names declared as both state and mixture: ['x', 'y']"


def test_measurement_needs_exactly_one_form():
    with pytest.raises(ParseError, match="exactly one of states or projectors"):
        parse(MINIMAL + "states:\n  s: [1, 0]\nmeasurements:\n  m: {}\n")


def test_unknown_step_kind():
    with pytest.raises(ParseError, match="unknown step kind 'jump'"):
        parse(MINIMAL + "protocols:\n  p:\n    - {jump: s}\n")
    with pytest.raises(ParseError, match="single-key mapping"):
        parse(MINIMAL + "protocols:\n  p:\n    - {measure: a, unitary: b}\n")


def test_repeat_parsing():
    base = MINIMAL + "states:\n  s: [1, 0]\nmeasurements:\n  m:\n    states: {out: s}\n"
    sc = parse(
        base
        + """\
protocols:
  p:
    - repeat:
        count: 2
        body:
          - {measure: m}
          - {stop_if: out}
"""
    )
    assert len(sc.protocols["p"].unrolled()) == 4
    with pytest.raises(ParseError, match="repeat needs count and body"):
        parse(base + "protocols:\n  p:\n    - repeat:\n        count: 2\n")
    with pytest.raises(ParseError, match="count must be >= 0"):
        parse(
            base
            + "protocols:\n  p:\n    - repeat:\n        count: -1\n        body:\n          - {measure: m}\n"
        )


def _nested_repeats(levels):
    body = "{measure: m}"
    for _ in range(levels):
        body = f"{{repeat: {{count: 1, body: [{body}]}}}}"
    return WITH_M + f"protocols:\n  p: [{body}]\n"


def test_deep_repeats_are_a_parse_error():
    # each repeat nests three collections: 20 levels pass the guard and 21
    # do not; 1000 once overflowed the stack of the step walker
    assert len(parse(_nested_repeats(20)).protocols["p"].unrolled()) == 1
    with pytest.raises(ParseError, match="collections nested deeper than 64"):
        parse(_nested_repeats(21))
    with pytest.raises(ParseError, match="collections nested deeper than 64"):
        parse(_nested_repeats(1000))


def test_a_deep_flow_document_is_an_input_error(tmp_path):
    # 30000 nested flow sequences once crashed the YAML composer itself
    f = tmp_path / "deep.scn"
    f.write_text("space:\n  labels: [a, b]\nstates: {a: " + "[" * 30000 + "]" * 30000 + "}\n",
                 encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "catlab", "enumerate", "--scenario", str(f), "p",
         "--initial", "a"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"catlab: error: {f}:3:75: collections nested deeper than 64\n"


# ---------------------------------------------------------------------------
# the one-pass builder, against yaml.compose as the reference

EDGE_DOCUMENTS = [
    "a: 1\nb: [x, 'y', \"z\"]\nc: {d: e, f: [g, {h: i}]}\n",
    "seq:\n  - 1\n  - - 2\n    - {k: v}\n  -\n? [complex, key]\n: value\n",
    "folded: >\n  one\n  two\nliteral: |\n  three\n   four\nplain: five\n  six\n"
    "quoted: \"seven\\n  eight\"\nsingle: 'nine\n\n  ten'\n",
    "nulls: [~, null, Null, NULL, '', '~', 'null', 'Null', \"NULL\", nil, nULL]\nempty:\n",
    "tags:\n  - !!null x\n  - !!null\n  - !foo ''\n  - !foo y\n  - !!str null\n  - !!str\n"
    "  - ! Null\n  - ! 'NULL'\n  - !!int 3\n",
    "%YAML 1.1\n---\n- &a anchored\n- &b {k: v}\n...\n",
    "--- just a scalar\n",
    "---\n",
    "# only a comment\n",
    "",
]


def _shape(node, is_null):
    """Kind, start line and column, null-ness and value of every node."""
    if node is None:  # a stream without a document
        return None
    mark = node.start_mark
    if isinstance(node, yaml.MappingNode):
        value = [(_shape(k, is_null), _shape(v, is_null)) for k, v in node.value]
    elif isinstance(node, yaml.SequenceNode):
        value = [_shape(n, is_null) for n in node.value]
    else:
        value = node.value
    return type(node).__name__, mark.line, mark.column, is_null(node), value


def _reference_null(node):
    # what the resolver reads as null, and '', '~' and 'null' in any style
    return isinstance(node, yaml.ScalarNode) and (
        node.tag == "tag:yaml.org,2002:null" or node.value in ("", "~", "null"))


@pytest.mark.parametrize("loader", [yaml.CSafeLoader, yaml.SafeLoader], ids=lambda L: L.__name__)
def test_the_builder_gives_the_tree_compose_gives(loader, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    files = [shipped_scenario_path(name) for name in catlab.scenario.SCENARIO_NAMES] + [
        Path(p) for workload in ("random-labs", "resurrection")
        for p in gen.write_inputs(workload, 1, tmp_path / workload)["scenarios"]]
    walker = catlab.scenario._Walker("t.scn")
    for text in EDGE_DOCUMENTS + [f.read_text(encoding="utf-8") for f in files]:
        built = catlab.scenario._compose(walker, yaml.parse(text, Loader=loader))
        composed = yaml.compose(text, Loader=loader)
        assert _shape(built, walker.is_null) == _shape(composed, _reference_null), text


@pytest.mark.parametrize("fallback", [False, True])
def test_a_scenario_is_tokenized_once(monkeypatch, fallback):
    if fallback:  # a PyYAML built without libyaml
        monkeypatch.delattr(yaml, "CSafeLoader")
    loaders = []
    real_parse = yaml.parse

    def parse_once(stream, Loader):
        loaders.append(Loader)
        return real_parse(stream, Loader=Loader)

    def no_compose(*args, **kwargs):
        raise AssertionError("yaml.compose tokenizes the text a second time")

    monkeypatch.setattr(yaml, "parse", parse_once)
    monkeypatch.setattr(yaml, "compose", no_compose)
    sc, _ = load_scenario("resurrection")
    assert sc.protocols
    assert loaders == [yaml.SafeLoader if fallback else yaml.CSafeLoader]


def test_two_parses_give_equal_protocols():
    text = shipped_scenario_path("resurrection").read_text(encoding="utf-8")
    first, second = parse(text), parse(text)
    assert first.protocols and first.protocols == second.protocols
    for name, spec in first.protocols.items():
        assert spec is not second.protocols[name]
        assert hash(spec) == hash(second.protocols[name])


def test_stop_if_resolves_complement_label():
    sc = parse(
        MINIMAL
        + "states:\n  s: [1, 0]\nmeasurements:\n  m:\n    states: {out: s}\n"
        + "protocols:\n  p:\n    - {measure: m}\n    - {stop_if: ⊥}\n"
    )
    assert sc.protocols["p"].steps[-1].outcome == "⊥"


# ---------------------------------------------------------------------------
# lab section semantics


LAB_BASE = (
    MINIMAL
    + """\
states:
  x: [1, 0]
  y: [0, 1]
measurements:
  basis:
    states: {x: x, y: y}
unitaries:
  flip:
    - [0, 1]
    - [1, 0]
"""
)


def test_lab_omitted_allows_everything():
    sc = parse(LAB_BASE)
    assert tuple(sc.lab.measurements) == ("basis",)
    assert tuple(sc.lab.unitaries) == ("flip",)


def test_lab_present_restricts():
    sc = parse(LAB_BASE + "lab:\n  measurements: [basis]\n")
    assert tuple(sc.lab.measurements) == ("basis",)
    assert tuple(sc.lab.unitaries) == ()  # key omitted -> none of that kind
    sc2 = parse(LAB_BASE + "lab: {}\n")
    assert tuple(sc2.lab.measurements) == ()
    assert tuple(sc2.lab.unitaries) == ()


def test_forbidden_pair_must_be_orthogonal():
    bad = (
        MINIMAL
        + "states:\n  x: [1, 0]\n  p: [1, 1]\nforbidden:\n  - {from: x, to: p}\n"
    )
    with pytest.raises(ValidationError):
        parse(bad)


# ---------------------------------------------------------------------------
# lookup and hashing


def test_load_scenario_prefers_files(tmp_path):
    shadow = tmp_path / "cat"
    shadow.write_text("name: shadow\nspace: {labels: [a, b]}\n", encoding="utf-8")
    sc, sha = load_scenario(str(shadow))
    assert sc.name == "shadow"
    shipped, shipped_sha = load_scenario("cat")
    assert shipped.name == "cat"
    assert sha != shipped_sha
    assert sha == scenario_sha256(shadow.read_bytes())


def test_load_scenario_unknown():
    with pytest.raises(UnknownScenario, match="neither a file nor a shipped"):
        load_scenario("does-not-exist")
    with pytest.raises(UnknownScenario):
        shipped_scenario_path("does-not-exist")


def test_sha_tracks_content(tmp_path):
    f = tmp_path / "a.scn"
    f.write_text(MINIMAL, encoding="utf-8")
    _, sha1 = load_scenario(str(f))
    f.write_text(MINIMAL + "states:\n  s: [1, 0]\n", encoding="utf-8")
    _, sha2 = load_scenario(str(f))
    assert sha1 != sha2


def test_parse_scenario_from_path(tmp_path):
    f = tmp_path / "lab.scn"
    f.write_text(LAB_BASE, encoding="utf-8")
    sc, _ = load_scenario(str(f))
    assert sc.name == "t"  # explicit name beats the file stem
    assert tuple(sc.lab.unitaries) == ("flip",)
    with pytest.raises(UnknownScenario, match="neither a file nor a shipped"):
        load_scenario(str(tmp_path))  # a directory is not a scenario file


def test_a_directory_does_not_shadow_a_shipped_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cat").mkdir()
    sc, sha = load_scenario("cat")
    assert sc.name == "cat"
    assert sha == scenario_sha256(shipped_scenario_path("cat").read_bytes())


def test_an_unreadable_file_is_a_parse_error(tmp_path, monkeypatch):
    f = tmp_path / "lab.scn"
    f.write_text(LAB_BASE, encoding="utf-8")

    def denied(path, mode):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(catlab.scenario, "open", denied, raising=False)
    with pytest.raises(ParseError, match="Permission denied"):
        load_scenario(str(f))
