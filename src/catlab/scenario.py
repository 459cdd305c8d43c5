"""Scenario files: a small YAML dialect describing one laboratory.

Example layout (sections other than ``space`` may be omitted):

    name: cat
    space:
      name: cat
      labels: [alive, dead]
    states:
      alive: [1, 0]
      cat_plus: [1, 1]            # normalised on load
      twisted: [0.6, 0.8i]        # entries are numbers or "a+bi" forms
    mixtures:
      rho_cat:
        - {weight: 0.5, state: alive}
        - {weight: 0.5, state: dead}
    measurements:
      basis:
        states: {alive: alive, dead: dead}
      pm:
        states: {S: cat_plus}     # completed with a catch-all outcome
    unitaries:
      flip: [[0, 1], [1, 0]]
    forbidden:
      - {from: dead, to: alive}
    lab:
      measurements: [basis]
      unitaries: [flip]
    protocols:
      observe:
        - {measure: basis}

Product spaces replace ``labels`` with a ``factors`` list of inner space
declarations.  Measurements may alternatively give explicit ``projectors``
as label -> matrix.  Every name must be declared before it is referenced.
When the ``lab`` section is omitted every declared operation is allowed;
when it is present, only the listed names are (an omitted list means none
of that kind).

Diagnostics carry ``path:line:column`` positions.  Structural problems
raise :class:`~catlab.errors.ParseError`; declarations that fail their
object invariants raise :class:`~catlab.errors.ValidationError` naming the
underlying error class.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, Mapping

import yaml

from .errors import CatlabError, ParseError, UnknownScenario, ValidationError
from .lab import Laboratory
from .measure import ProjectiveMeasurement, make_measurement, measurement_from_states
from .protocols import (
    MeasureStep,
    ProtocolSpec,
    RepeatStep,
    Step,
    StopIfStep,
    UnitaryStep,
)
from .qstate import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    State,
    StateVector,
    make_mixture,
    make_state,
    tensor_space,
    unitary_operator,
)

# The laboratories bundled as ``scenarios/<name>.scn``:
# cat - alive/dead, readable only in that basis, dead -> alive forbidden; the
#   plus/minus basis is declared for discrimination but not allowed.
# composite - a decaying device tensored with the cat; all-dead -> all-alive
#   forbidden.
# photon - polarisation with both bases and the 45-degree rotation allowed;
#   nothing forbidden.
# stone-bread - two classical configurations, forbidden both ways.
# resurrection - the cat lab with the equal-weight superposition readout
#   allowed; its repeat protocols amplify the forbidden transition.
SCENARIO_NAMES = ("cat", "composite", "photon", "stone-bread", "resurrection")

AMP_CHARS = frozenset("0123456789.+-eEi")

_TOP_KEYS = (
    "name",
    "space",
    "states",
    "mixtures",
    "measurements",
    "unitaries",
    "forbidden",
    "lab",
    "protocols",
)


# ---------------------------------------------------------------------------
# object model


@dataclass(frozen=True, eq=False)
class Scenario:
    """A laboratory bundled with every named object declared around it."""

    name: str
    space: HilbertSpace
    states: Mapping[str, StateVector]
    mixtures: Mapping[str, DensityMatrix]
    measurements: Mapping[str, ProjectiveMeasurement]
    unitaries: Mapping[str, Operator]
    lab: Laboratory
    protocols: Mapping[str, ProtocolSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", dict(self.states))
        object.__setattr__(self, "mixtures", dict(self.mixtures))
        object.__setattr__(self, "measurements", dict(self.measurements))
        object.__setattr__(self, "unitaries", dict(self.unitaries))
        object.__setattr__(self, "protocols", dict(self.protocols))
        clash = set(self.states) & set(self.mixtures)
        if clash:
            raise CatlabError(f"names declared as both state and mixture: {clash}")

    def initial(self, name: str) -> State:
        """Resolve a state or mixture name."""
        if name in self.states:
            return self.states[name]
        if name in self.mixtures:
            return self.mixtures[name]
        raise CatlabError(f"no state or mixture named {name!r}")


# ---------------------------------------------------------------------------
# document model (raw declarations, exactly as written)

Matrix = tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class SpaceDecl:
    """Basis declaration: flat labels or a list of tensor factors."""

    name: str | None = None
    labels: tuple[str, ...] | None = None
    factors: tuple["SpaceDecl", ...] | None = None

    def build(self) -> HilbertSpace:
        if self.factors is not None:
            space = self.factors[0].build()
            for f in self.factors[1:]:
                space = tensor_space(space, f.build())
            return space
        assert self.labels is not None
        return HilbertSpace(self.labels, name=self.name)


@dataclass(frozen=True)
class MeasurementDecl:
    """Either rank-one outcomes from named states or explicit projectors."""

    states: tuple[tuple[str, str], ...] | None = None
    projectors: tuple[tuple[str, Matrix], ...] | None = None


@dataclass(frozen=True)
class ScenarioDoc:
    """A scenario file as written: names, raw numbers, no derived objects."""

    name: str
    space: SpaceDecl
    states: tuple[tuple[str, tuple[complex, ...]], ...] = ()
    mixtures: tuple[tuple[str, tuple[tuple[float, str], ...]], ...] = ()
    measurements: tuple[tuple[str, MeasurementDecl], ...] = ()
    unitaries: tuple[tuple[str, Matrix], ...] = ()
    forbidden: tuple[tuple[str, str], ...] = ()
    lab_measurements: tuple[str, ...] | None = None
    lab_unitaries: tuple[str, ...] | None = None
    protocols: tuple[tuple[str, ProtocolSpec], ...] = ()


# ---------------------------------------------------------------------------
# parsing


class _Walker:
    """Node accessors that turn PyYAML nodes into located diagnostics."""

    def __init__(self, path: str):
        self.path = path

    def where(self, node: yaml.Node) -> str:
        mark = node.start_mark
        return f"{self.path}:{mark.line + 1}:{mark.column + 1}"

    def fail(self, node: yaml.Node, msg: str) -> None:
        raise ParseError(f"{self.where(node)}: {msg}")

    def invalid(self, node: yaml.Node, err: CatlabError) -> None:
        raise ValidationError(
            f"{self.where(node)}: {type(err).__name__}: {err}"
        ) from err

    @staticmethod
    def is_null(node: yaml.Node | None) -> bool:
        if node is None:
            return True
        return isinstance(node, yaml.ScalarNode) and (
            node.tag.endswith(":null") or node.value in ("", "~", "null")
        )

    def mapping(self, node: yaml.Node, what: str) -> list[tuple[str, yaml.Node, yaml.Node]]:
        """(key, key node, value node) triples; duplicate keys rejected."""
        if self.is_null(node):
            return []
        if not isinstance(node, yaml.MappingNode):
            self.fail(node, f"{what} must be a mapping")
        out: list[tuple[str, yaml.Node, yaml.Node]] = []
        seen: set[str] = set()
        for knode, vnode in node.value:
            key = self.scalar(knode, f"{what} key")
            if key in seen:
                self.fail(knode, f"duplicate key {key!r} in {what}")
            seen.add(key)
            out.append((key, knode, vnode))
        return out

    def sequence(self, node: yaml.Node, what: str) -> list[yaml.Node]:
        if self.is_null(node):
            return []
        if not isinstance(node, yaml.SequenceNode):
            self.fail(node, f"{what} must be a sequence")
        return list(node.value)

    def scalar(self, node: yaml.Node, what: str) -> str:
        if not isinstance(node, yaml.ScalarNode):
            self.fail(node, f"{what} must be a scalar")
        return str(node.value)

    def string(self, node: yaml.Node, what: str) -> str:
        text = self.scalar(node, what)
        if not text:
            self.fail(node, f"{what} must be a non-empty string")
        return text

    def number(self, node: yaml.Node, what: str) -> float:
        text = self.scalar(node, what)
        try:
            return float(text)
        except ValueError:
            self.fail(node, f"{what}: not a number: {text!r}")
        raise AssertionError("unreachable")

    def integer(self, node: yaml.Node, what: str) -> int:
        text = self.scalar(node, what)
        try:
            return int(text)
        except ValueError:
            self.fail(node, f"{what}: not an integer: {text!r}")
        raise AssertionError("unreachable")

    def amplitude(self, node: yaml.Node) -> complex:
        """A complex entry: plain number or "a+bi" string, i as the unit."""
        text = self.scalar(node, "amplitude").strip()
        if not text or not set(text) <= AMP_CHARS:
            self.fail(node, f"bad complex literal {text!r}")
        try:
            return complex(text.replace("i", "j"))
        except ValueError:
            self.fail(node, f"bad complex literal {text!r}")
        raise AssertionError("unreachable")

    def amp_list(self, node: yaml.Node, what: str) -> tuple[complex, ...]:
        items = self.sequence(node, what)
        if not items:
            self.fail(node, f"{what} must be a non-empty sequence")
        return tuple(self.amplitude(n) for n in items)

    def matrix(self, node: yaml.Node, what: str) -> Matrix:
        rows = self.sequence(node, what)
        if not rows:
            self.fail(node, f"{what} must be a non-empty list of rows")
        out = tuple(self.amp_list(r, f"{what} row") for r in rows)
        width = len(out[0])
        if any(len(r) != width for r in out) or width != len(out):
            self.fail(node, f"{what} must be square")
        return out


def _parse_space(w: _Walker, node: yaml.Node) -> SpaceDecl:
    name: str | None = None
    labels: tuple[str, ...] | None = None
    factors: tuple[SpaceDecl, ...] | None = None
    for key, knode, vnode in w.mapping(node, "space"):
        if key == "name":
            name = w.string(vnode, "space name")
        elif key == "labels":
            items = w.sequence(vnode, "labels")
            labels = tuple(w.string(n, "basis label") for n in items)
        elif key == "factors":
            factors = tuple(
                _parse_space(w, n) for n in w.sequence(vnode, "factors")
            )
        else:
            w.fail(knode, f"unknown space key {key!r}")
    if (labels is None) == (factors is None):
        w.fail(node, "space needs exactly one of labels or factors")
    if factors is not None and len(factors) < 2:
        w.fail(node, "factors needs at least two inner spaces")
    return SpaceDecl(name=name, labels=labels, factors=factors)


def _parse_steps(
    w: _Walker,
    node: yaml.Node,
    measurements: dict[str, ProjectiveMeasurement],
    unitaries: dict[str, Operator],
) -> tuple[Step, ...]:
    steps: list[Step] = []
    for snode in w.sequence(node, "protocol steps"):
        entries = w.mapping(snode, "protocol step")
        if len(entries) != 1:
            w.fail(snode, "each step is a single-key mapping")
        key, knode, vnode = entries[0]
        if key == "measure":
            name = w.string(vnode, "measurement name")
            if name not in measurements:
                w.fail(vnode, f"undeclared measurement {name!r}")
            steps.append(MeasureStep(name))
        elif key == "unitary":
            name = w.string(vnode, "unitary name")
            if name not in unitaries:
                w.fail(vnode, f"undeclared unitary {name!r}")
            steps.append(UnitaryStep(name))
        elif key == "stop_if":
            steps.append(StopIfStep(w.string(vnode, "stop_if outcome")))
        elif key == "repeat":
            count: int | None = None
            body: tuple[Step, ...] | None = None
            for rkey, rknode, rvnode in w.mapping(vnode, "repeat"):
                if rkey == "count":
                    count = w.integer(rvnode, "repeat count")
                elif rkey == "body":
                    body = _parse_steps(w, rvnode, measurements, unitaries)
                else:
                    w.fail(rknode, f"unknown repeat key {rkey!r}")
            if count is None or body is None:
                w.fail(vnode, "repeat needs count and body")
            if count < 0:
                w.fail(vnode, "repeat count must be >= 0")
            steps.append(RepeatStep(body, count))
        else:
            w.fail(knode, f"unknown step kind {key!r}")
    return tuple(steps)


def parse_scenario_text(
    text: str, path: str = "<scenario>"
) -> tuple[ScenarioDoc, Scenario]:
    """Parse a scenario document; returns the raw declarations and the
    fully built object model."""
    w = _Walker(path)
    try:
        root = yaml.compose(text)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        at = f"{path}:{mark.line + 1}:{mark.column + 1}: " if mark else f"{path}: "
        raise ParseError(f"{at}{err}") from err
    if root is None:
        raise ParseError(f"{path}: empty scenario file")

    sections: dict[str, yaml.Node] = {}
    for key, knode, vnode in w.mapping(root, "scenario"):
        if key not in _TOP_KEYS:
            w.fail(knode, f"unknown section {key!r}")
        sections[key] = vnode

    if "space" not in sections:
        raise ParseError(f"{path}: missing required section 'space'")
    space_decl = _parse_space(w, sections["space"])
    space_node = sections["space"]
    try:
        space = space_decl.build()
    except CatlabError as err:
        w.invalid(space_node, err)

    name = os.path.splitext(os.path.basename(path))[0]
    if "name" in sections:
        name = w.string(sections["name"], "scenario name")

    states: dict[str, StateVector] = {}
    raw_states: list[tuple[str, tuple[complex, ...]]] = []
    for key, knode, vnode in w.mapping(sections.get("states"), "states"):
        amps = w.amp_list(vnode, f"state {key!r}")
        if len(amps) != space.dim:
            w.fail(vnode, f"state {key!r} has {len(amps)} amplitudes, need {space.dim}")
        try:
            states[key] = make_state(space, amps)
        except CatlabError as err:
            w.invalid(vnode, err)
        raw_states.append((key, amps))

    mixtures: dict[str, DensityMatrix] = {}
    raw_mixtures: list[tuple[str, tuple[tuple[float, str], ...]]] = []
    for key, knode, vnode in w.mapping(sections.get("mixtures"), "mixtures"):
        if key in states:
            w.fail(knode, f"name {key!r} already declared as a state")
        parts: list[tuple[float, str]] = []
        for pnode in w.sequence(vnode, f"mixture {key!r}"):
            weight: float | None = None
            ref: str | None = None
            for pkey, pknode, pvnode in w.mapping(pnode, "mixture part"):
                if pkey == "weight":
                    weight = w.number(pvnode, "weight")
                elif pkey == "state":
                    ref = w.string(pvnode, "state reference")
                    if ref not in states:
                        w.fail(pvnode, f"undeclared state {ref!r}")
                else:
                    w.fail(pknode, f"unknown mixture key {pkey!r}")
            if weight is None or ref is None:
                w.fail(pnode, "mixture part needs weight and state")
            parts.append((weight, ref))
        try:
            mixtures[key] = make_mixture([(wt, states[r]) for wt, r in parts])
        except CatlabError as err:
            w.invalid(vnode, err)
        raw_mixtures.append((key, tuple(parts)))

    measurements: dict[str, ProjectiveMeasurement] = {}
    raw_meas: list[tuple[str, MeasurementDecl]] = []
    for key, knode, vnode in w.mapping(sections.get("measurements"), "measurements"):
        entries = w.mapping(vnode, f"measurement {key!r}")
        kinds = [k for k, _, _ in entries]
        if kinds == ["states"]:
            _, _, body = entries[0]
            pairs: list[tuple[str, str]] = []
            for label, lnode, refnode in w.mapping(body, "measurement states"):
                ref = w.string(refnode, "state reference")
                if ref not in states:
                    w.fail(refnode, f"undeclared state {ref!r}")
                pairs.append((label, ref))
            if not pairs:
                w.fail(body, f"measurement {key!r} declares no outcomes")
            try:
                measurements[key] = measurement_from_states(
                    [states[r] for _, r in pairs], [l for l, _ in pairs]
                )
            except CatlabError as err:
                w.invalid(vnode, err)
            raw_meas.append((key, MeasurementDecl(states=tuple(pairs))))
        elif kinds == ["projectors"]:
            _, _, body = entries[0]
            mats: list[tuple[str, Matrix]] = []
            outcomes: list[tuple[str, Operator]] = []
            for label, lnode, mnode in w.mapping(body, "measurement projectors"):
                mat = w.matrix(mnode, f"projector {label!r}")
                if len(mat) != space.dim:
                    w.fail(mnode, f"projector {label!r} is not {space.dim}x{space.dim}")
                try:
                    outcomes.append((label, Operator(space, mat, "projector")))
                except CatlabError as err:
                    w.invalid(mnode, err)
                mats.append((label, mat))
            if not outcomes:
                w.fail(body, f"measurement {key!r} declares no outcomes")
            try:
                measurements[key] = make_measurement(space, outcomes)
            except CatlabError as err:
                w.invalid(vnode, err)
            raw_meas.append((key, MeasurementDecl(projectors=tuple(mats))))
        else:
            w.fail(vnode, f"measurement {key!r} needs exactly one of states or projectors")

    unitaries: dict[str, Operator] = {}
    raw_unit: list[tuple[str, Matrix]] = []
    for key, knode, vnode in w.mapping(sections.get("unitaries"), "unitaries"):
        if key in measurements:
            w.fail(knode, f"name {key!r} already declared as a measurement")
        mat = w.matrix(vnode, f"unitary {key!r}")
        if len(mat) != space.dim:
            w.fail(vnode, f"unitary {key!r} is not {space.dim}x{space.dim}")
        try:
            unitaries[key] = unitary_operator(space, mat)
        except CatlabError as err:
            w.invalid(vnode, err)
        raw_unit.append((key, mat))

    forbidden: list[tuple[str, str]] = []
    for pnode in w.sequence(sections.get("forbidden"), "forbidden"):
        frm: str | None = None
        to: str | None = None
        for pkey, pknode, pvnode in w.mapping(pnode, "forbidden pair"):
            if pkey in ("from", "to"):
                ref = w.string(pvnode, f"forbidden {pkey}")
                if ref not in states:
                    w.fail(pvnode, f"undeclared state {ref!r}")
                if pkey == "from":
                    frm = ref
                else:
                    to = ref
            else:
                w.fail(pknode, f"unknown forbidden key {pkey!r}")
        if frm is None or to is None:
            w.fail(pnode, "forbidden pair needs from and to")
        forbidden.append((frm, to))

    lab_meas: tuple[str, ...] | None = None
    lab_unit: tuple[str, ...] | None = None
    if "lab" in sections:
        lab_node = sections["lab"]
        lab_meas = ()
        lab_unit = ()
        for key, knode, vnode in w.mapping(lab_node, "lab"):
            if key == "measurements":
                names = []
                for n in w.sequence(vnode, "lab measurements"):
                    nm = w.string(n, "measurement name")
                    if nm not in measurements:
                        w.fail(n, f"undeclared measurement {nm!r}")
                    names.append(nm)
                lab_meas = tuple(names)
            elif key == "unitaries":
                names = []
                for n in w.sequence(vnode, "lab unitaries"):
                    nm = w.string(n, "unitary name")
                    if nm not in unitaries:
                        w.fail(n, f"undeclared unitary {nm!r}")
                    names.append(nm)
                lab_unit = tuple(names)
            else:
                w.fail(knode, f"unknown lab key {key!r}")

    allowed_meas = lab_meas if lab_meas is not None else tuple(measurements)
    allowed_unit = lab_unit if lab_unit is not None else tuple(unitaries)
    lab_anchor = sections.get("lab", root)
    try:
        lab = Laboratory(
            space,
            {n: measurements[n] for n in allowed_meas},
            {n: unitaries[n] for n in allowed_unit},
            tuple((states[f], states[t]) for f, t in forbidden),
        )
    except CatlabError as err:
        w.invalid(lab_anchor, err)

    protocols: list[tuple[str, ProtocolSpec]] = []
    for key, knode, vnode in w.mapping(sections.get("protocols"), "protocols"):
        steps = _parse_steps(w, vnode, measurements, unitaries)
        protocols.append((key, ProtocolSpec(steps)))

    doc = ScenarioDoc(
        name=name,
        space=space_decl,
        states=tuple(raw_states),
        mixtures=tuple(raw_mixtures),
        measurements=tuple(raw_meas),
        unitaries=tuple(raw_unit),
        forbidden=tuple(forbidden),
        lab_measurements=lab_meas,
        lab_unitaries=lab_unit,
        protocols=tuple(protocols),
    )
    scenario = Scenario(
        name=name,
        space=space,
        states=states,
        mixtures=mixtures,
        measurements=measurements,
        unitaries=unitaries,
        lab=lab,
        protocols=dict(protocols),
    )
    return doc, scenario


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ParseError(f"{path}: {err}") from err
    return parse_scenario_text(data.decode("utf-8"), str(path))[1]


# ---------------------------------------------------------------------------
# serialisation


def format_amplitude(z: complex) -> str:
    """Shortest-round-trip "a+bi" form; parses back to the same doubles."""
    re_, im = z.real, z.imag
    if im == 0.0:
        return repr(re_)
    if re_ == 0.0:
        return f"{repr(im)}i"
    sign = "+" if im >= 0 else ""
    return f"{repr(re_)}{sign}{repr(im)}i"


_PLAIN_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


def _k(s: str) -> str:
    return s if _PLAIN_KEY.match(s) else json.dumps(s, ensure_ascii=False)


def _amp(z: complex) -> str:
    return json.dumps(format_amplitude(z))


def _emit_space(decl: SpaceDecl, indent: str, lines: list[str]) -> None:
    if decl.name is not None:
        lines.append(f"{indent}name: {_k(decl.name)}")
    if decl.labels is not None:
        lines.append(f"{indent}labels: [{', '.join(_k(l) for l in decl.labels)}]")
    if decl.factors is not None:
        lines.append(f"{indent}factors:")
        for f in decl.factors:
            inner = f"{indent}    "
            first = f"{indent}  - "
            sub: list[str] = []
            _emit_space(f, inner, sub)
            sub[0] = first + sub[0].strip()
            lines.extend(sub)


def _emit_steps(steps: tuple[Step, ...], indent: str, lines: list[str]) -> None:
    for step in steps:
        if isinstance(step, MeasureStep):
            lines.append(f"{indent}- {{measure: {_k(step.measurement)}}}")
        elif isinstance(step, UnitaryStep):
            lines.append(f"{indent}- {{unitary: {_k(step.unitary)}}}")
        elif isinstance(step, StopIfStep):
            lines.append(f"{indent}- {{stop_if: {_k(step.outcome)}}}")
        elif isinstance(step, RepeatStep):
            lines.append(f"{indent}- repeat:")
            lines.append(f"{indent}    count: {step.count}")
            lines.append(f"{indent}    body:")
            _emit_steps(step.body, indent + "      ", lines)
        else:  # pragma: no cover
            raise CatlabError(f"cannot serialise step {step!r}")


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Render a document back to scenario text.  Numbers use shortest
    round-trip forms, so parsing the output reproduces the same doubles."""
    lines: list[str] = [f"name: {_k(doc.name)}", "space:"]
    _emit_space(doc.space, "  ", lines)
    if doc.states:
        lines.append("states:")
        for name, amps in doc.states:
            lines.append(f"  {_k(name)}: [{', '.join(_amp(a) for a in amps)}]")
    if doc.mixtures:
        lines.append("mixtures:")
        for name, parts in doc.mixtures:
            lines.append(f"  {_k(name)}:")
            for weight, ref in parts:
                lines.append(f"    - {{weight: {repr(weight)}, state: {_k(ref)}}}")
    if doc.measurements:
        lines.append("measurements:")
        for name, decl in doc.measurements:
            lines.append(f"  {_k(name)}:")
            if decl.states is not None:
                lines.append("    states:")
                for label, ref in decl.states:
                    lines.append(f"      {_k(label)}: {_k(ref)}")
            else:
                assert decl.projectors is not None
                lines.append("    projectors:")
                for label, mat in decl.projectors:
                    lines.append(f"      {_k(label)}:")
                    for row in mat:
                        lines.append(f"        - [{', '.join(_amp(a) for a in row)}]")
    if doc.unitaries:
        lines.append("unitaries:")
        for name, mat in doc.unitaries:
            lines.append(f"  {_k(name)}:")
            for row in mat:
                lines.append(f"    - [{', '.join(_amp(a) for a in row)}]")
    if doc.forbidden:
        lines.append("forbidden:")
        for frm, to in doc.forbidden:
            lines.append(f"  - {{from: {_k(frm)}, to: {_k(to)}}}")
    if doc.lab_measurements is not None or doc.lab_unitaries is not None:
        lines.append("lab:")
        if doc.lab_measurements is not None:
            names = ", ".join(_k(n) for n in doc.lab_measurements)
            lines.append(f"  measurements: [{names}]")
        if doc.lab_unitaries is not None:
            names = ", ".join(_k(n) for n in doc.lab_unitaries)
            lines.append(f"  unitaries: [{names}]")
    if doc.protocols:
        lines.append("protocols:")
        for name, spec in doc.protocols:
            lines.append(f"  {_k(name)}:")
            _emit_steps(spec.steps, "    ", lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# locating scenarios


def scenario_sha256(data: bytes) -> str:
    """Content hash recorded in run reports."""
    return hashlib.sha256(data).hexdigest()


def shipped_scenario_path(name: str):
    """Traversable for a scenario bundled with the package."""
    if name not in SCENARIO_NAMES:
        raise UnknownScenario(
            f"no shipped scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}"
        )
    return resources.files("catlab").joinpath("scenarios").joinpath(f"{name}.scn")


def iter_shipped_scenarios() -> Iterator[str]:
    return iter(SCENARIO_NAMES)


def load_scenario(spec: str) -> tuple[Scenario, str]:
    """Resolve a path or shipped name; returns the scenario and its hash.

    An existing file wins over a shipped name, so local experiments can
    shadow the bundled labs.
    """
    if os.path.exists(spec):
        try:
            with open(spec, "rb") as fh:
                data = fh.read()
        except OSError as err:
            raise ParseError(f"{spec}: {err}") from err
        label = spec
    elif spec in SCENARIO_NAMES:
        data = shipped_scenario_path(spec).read_bytes()
        label = f"{spec}.scn"
    else:
        raise UnknownScenario(
            f"{spec!r} is neither a file nor a shipped scenario name "
            f"(shipped: {', '.join(SCENARIO_NAMES)})"
        )
    _, scenario = parse_scenario_text(data.decode("utf-8"), label)
    return scenario, scenario_sha256(data)
