"""Scenario file parsing, serialization and lookup."""

import numpy as np
import pytest

from catlab import (
    ParseError,
    SCENARIO_NAMES,
    UnknownScenario,
    ValidationError,
    load_scenario,
    parse_scenario,
    parse_scenario_text,
    scenario_sha256,
    serialize_scenario,
    shipped_scenario_path,
)
from catlab.scenario import format_amplitude

from helpers import assert_scenarios_equivalent

MINIMAL = """\
name: t
space:
  labels: [x, y]
"""


def parse(text, path="t.scn"):
    return parse_scenario_text(text, path)


# ---------------------------------------------------------------------------
# shipped files


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_round_trip_is_exact(name):
    text = shipped_scenario_path(name).read_text(encoding="utf-8")
    doc, sc = parse(text, f"{name}.scn")
    doc2, sc2 = parse(serialize_scenario(doc), f"{name}.scn")
    assert doc == doc2
    assert_scenarios_equivalent(sc, sc2)


def test_serializer_quotes_non_identifier_labels():
    text = shipped_scenario_path("composite").read_text(encoding="utf-8")
    doc, _ = parse(text, "composite.scn")
    out = serialize_scenario(doc)
    assert '"Ψ+"' in out
    assert '"undecayed⊗alive"' in out


# ---------------------------------------------------------------------------
# building blocks


def test_name_defaults_to_file_stem():
    _, sc = parse_scenario_text("space: {labels: [a, b]}", "/tmp/mylab.scn")
    assert sc.name == "mylab"


def test_amplitude_forms():
    doc, sc = parse(
        MINIMAL
        + """\
states:
  a: [0.6, 0.8i]
  b: ["0.6+0.8i", 0]
  c: [i, -i]
  d: [1e-3, 1]
"""
    )
    raw = dict(doc.states)
    assert raw["a"] == (0.6, 0.8j)
    assert raw["b"] == (0.6 + 0.8j, 0.0)
    assert raw["c"] == (1j, -1j)
    assert raw["d"] == (1e-3, 1.0)
    assert abs(np.vdot(sc.states["a"].amps, sc.states["a"].amps) - 1) < 1e-12


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


def test_factor_space():
    doc, sc = parse(
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
    doc, sc = parse(
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
    _, sc = parse(
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
    _, sc = parse(LAB_BASE)
    assert tuple(sc.lab.measurements) == ("basis",)
    assert tuple(sc.lab.unitaries) == ("flip",)


def test_lab_present_restricts():
    _, sc = parse(LAB_BASE + "lab:\n  measurements: [basis]\n")
    assert tuple(sc.lab.measurements) == ("basis",)
    assert tuple(sc.lab.unitaries) == ()  # key omitted -> none of that kind
    _, sc2 = parse(LAB_BASE + "lab: {}\n")
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
    sc = parse_scenario(f)
    assert sc.name == "t"  # explicit name beats the file stem
    assert tuple(sc.lab.unitaries) == ("flip",)
    with pytest.raises(ParseError):
        parse_scenario(tmp_path / "missing.scn")


def test_format_amplitude_round_trip():
    for z in (1.0, -0.5, 0.8j, -1j, 0.6 + 0.8j, 1e-3, 0.7071067811865476 + 0j):
        text = format_amplitude(complex(z))
        assert complex(text.replace("i", "j")) == complex(z)
