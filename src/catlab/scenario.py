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

import functools
import hashlib
import os
from contextlib import contextmanager
from importlib import resources
from typing import Iterator, Mapping, NoReturn

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


class Scenario:
    """A laboratory bundled with every named object declared around it;
    compares by identity."""

    def __init__(
        self,
        name: str,
        space: HilbertSpace,
        states: Mapping[str, StateVector],
        mixtures: Mapping[str, DensityMatrix],
        measurements: Mapping[str, ProjectiveMeasurement],
        unitaries: Mapping[str, Operator],
        lab: Laboratory,
        protocols: Mapping[str, ProtocolSpec] | None = None,
    ) -> None:
        self.name = name
        self.space = space
        self.states: dict[str, StateVector] = dict(states)
        self.mixtures: dict[str, DensityMatrix] = dict(mixtures)
        self.measurements: dict[str, ProjectiveMeasurement] = dict(measurements)
        self.unitaries: dict[str, Operator] = dict(unitaries)
        self.lab = lab
        self.protocols: dict[str, ProtocolSpec] = dict(protocols or {})
        clash = set(self.states) & set(self.mixtures)
        if clash:
            raise CatlabError(f"names declared as both state and mixture: {sorted(clash)}")

    def initial(self, name: str) -> State:
        """Resolve a state or mixture name."""
        if name in self.states:
            return self.states[name]
        if name in self.mixtures:
            return self.mixtures[name]
        raise CatlabError(f"no state or mixture named {name!r}")


# ---------------------------------------------------------------------------
# parsing

Matrix = tuple[tuple[complex, ...], ...]


class _Walker:
    """Node accessors that turn PyYAML nodes into located diagnostics."""

    def __init__(self, path: str):
        self.path = path

    def where(self, node: yaml.Node) -> str:
        mark = node.start_mark
        return f"{self.path}:{mark.line + 1}:{mark.column + 1}"

    def fail(self, node: yaml.Node, msg: str) -> NoReturn:
        raise ParseError(f"{self.where(node)}: {msg}")

    @contextmanager
    def checked(self, node: yaml.Node) -> Iterator[None]:
        """Report an object invariant broken inside the block at ``node``.

        A ParseError passes through: it already carries its own location.
        """
        try:
            yield
        except ParseError:
            raise
        except CatlabError as err:
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

    def fields(
        self, node: yaml.Node, what: str, keys: tuple[str, ...], required: bool = False
    ) -> dict[str, yaml.Node]:
        """Value nodes of a mapping whose keys come from ``keys``; with
        ``required`` every key must be present.  The first word of ``what``
        names the mapping in unknown-key messages."""
        found: dict[str, yaml.Node] = {}
        for key, knode, vnode in self.mapping(node, what):
            if key not in keys:
                self.fail(knode, f"unknown {what.split()[0]} key {key!r}")
            found[key] = vnode
        if required and len(found) < len(keys):
            self.fail(node, f"{what} needs {' and '.join(keys)}")
        return found

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

    def ref(
        self, node: yaml.Node, declared: Mapping[str, object], kind: str, what: str = ""
    ) -> str:
        """A name that must already be declared among ``declared``."""
        name = self.string(node, what or f"{kind} name")
        if name not in declared:
            self.fail(node, f"undeclared {kind} {name!r}")
        return name

    def number(self, node: yaml.Node, what: str) -> float:
        text = self.scalar(node, what)
        try:
            return float(text)
        except ValueError:
            self.fail(node, f"{what}: not a number: {text!r}")

    def integer(self, node: yaml.Node, what: str) -> int:
        text = self.scalar(node, what)
        try:
            return int(text)
        except ValueError:
            self.fail(node, f"{what}: not an integer: {text!r}")

    def amplitude(self, node: yaml.Node) -> complex:
        """A complex entry: plain number or "a+bi" string, i as the unit."""
        text = self.scalar(node, "amplitude").strip()
        if not text or not set(text) <= AMP_CHARS:
            self.fail(node, f"bad complex literal {text!r}")
        try:
            return complex(text.replace("i", "j"))
        except ValueError:
            self.fail(node, f"bad complex literal {text!r}")

    def amp_list(self, node: yaml.Node, what: str) -> tuple[complex, ...]:
        items = self.sequence(node, what)
        if not items:
            self.fail(node, f"{what} must be a non-empty sequence")
        return tuple(self.amplitude(n) for n in items)

    def matrix(self, node: yaml.Node, what: str, dim: int) -> Matrix:
        rows = self.sequence(node, what)
        if not rows:
            self.fail(node, f"{what} must be a non-empty list of rows")
        out = tuple(self.amp_list(r, f"{what} row") for r in rows)
        width = len(out[0])
        if any(len(r) != width for r in out) or width != len(out):
            self.fail(node, f"{what} must be square")
        if len(out) != dim:
            self.fail(node, f"{what} is not {dim}x{dim}")
        return out


def _parse_space(w: _Walker, node: yaml.Node) -> HilbertSpace:
    f = w.fields(node, "space", ("name", "labels", "factors"))
    name = w.string(f["name"], "space name") if "name" in f else None
    if ("labels" in f) == ("factors" in f):
        w.fail(node, "space needs exactly one of labels or factors")
    if "labels" in f:
        labels = w.sequence(f["labels"], "labels")
        return HilbertSpace(tuple(w.string(n, "basis label") for n in labels), name=name)
    factors = [_parse_space(w, n) for n in w.sequence(f["factors"], "factors")]
    if len(factors) < 2:
        w.fail(node, "factors needs at least two inner spaces")
    return functools.reduce(tensor_space, factors)


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
            steps.append(MeasureStep(w.ref(vnode, measurements, "measurement")))
        elif key == "unitary":
            steps.append(UnitaryStep(w.ref(vnode, unitaries, "unitary")))
        elif key == "stop_if":
            labels = dict.fromkeys(x for m in measurements.values() for x in m.labels)
            steps.append(StopIfStep(w.ref(vnode, labels, "outcome", "stop_if outcome")))
        elif key == "repeat":
            f = w.fields(vnode, "repeat", ("count", "body"), required=True)
            count = w.integer(f["count"], "repeat count")
            body = _parse_steps(w, f["body"], measurements, unitaries)
            if count < 0:
                w.fail(vnode, "repeat count must be >= 0")
            steps.append(RepeatStep(body, count))
        else:
            w.fail(knode, f"unknown step kind {key!r}")
    return tuple(steps)


def parse_scenario_text(text: str, path: str = "<scenario>") -> Scenario:
    """Parse and validate a scenario document; ``path`` locates diagnostics
    and, without a ``name`` section, names the scenario after its stem."""
    w = _Walker(path)
    try:
        root = yaml.compose(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
    with w.checked(sections["space"]):
        space = _parse_space(w, sections["space"])

    name = os.path.splitext(os.path.basename(path))[0]
    if "name" in sections:
        name = w.string(sections["name"], "scenario name")

    states: dict[str, StateVector] = {}
    for key, knode, vnode in w.mapping(sections.get("states"), "states"):
        amps = w.amp_list(vnode, f"state {key!r}")
        if len(amps) != space.dim:
            w.fail(vnode, f"state {key!r} has {len(amps)} amplitudes, need {space.dim}")
        with w.checked(vnode):
            states[key] = make_state(space, amps)

    mixtures: dict[str, DensityMatrix] = {}
    for key, knode, vnode in w.mapping(sections.get("mixtures"), "mixtures"):
        if key in states:
            w.fail(knode, f"name {key!r} already declared as a state")
        parts: list[tuple[float, StateVector]] = []
        for pnode in w.sequence(vnode, f"mixture {key!r}"):
            f = w.fields(pnode, "mixture part", ("weight", "state"), required=True)
            weight = w.number(f["weight"], "weight")
            ref = w.ref(f["state"], states, "state", "state reference")
            parts.append((weight, states[ref]))
        with w.checked(vnode):
            mixtures[key] = make_mixture(parts)

    measurements: dict[str, ProjectiveMeasurement] = {}
    for key, knode, vnode in w.mapping(sections.get("measurements"), "measurements"):
        entries = w.mapping(vnode, f"measurement {key!r}")
        if [k for k, _, _ in entries] not in (["states"], ["projectors"]):
            w.fail(vnode, f"measurement {key!r} needs exactly one of states or projectors")
        form, _, body = entries[0]
        if form == "states":
            outcomes = [
                (label, states[w.ref(rnode, states, "state", "state reference")])
                for label, _, rnode in w.mapping(body, "measurement states")
            ]
        else:
            outcomes = []
            for label, _, mnode in w.mapping(body, "measurement projectors"):
                mat = w.matrix(mnode, f"projector {label!r}", space.dim)
                with w.checked(mnode):
                    outcomes.append((label, Operator(space, mat, "projector")))
        if not outcomes:
            w.fail(body, f"measurement {key!r} declares no outcomes")
        with w.checked(vnode):
            if form == "states":
                measurements[key] = measurement_from_states(
                    [s for _, s in outcomes], [label for label, _ in outcomes]
                )
            else:
                measurements[key] = make_measurement(space, outcomes)

    unitaries: dict[str, Operator] = {}
    for key, knode, vnode in w.mapping(sections.get("unitaries"), "unitaries"):
        if key in measurements:
            w.fail(knode, f"name {key!r} already declared as a measurement")
        mat = w.matrix(vnode, f"unitary {key!r}", space.dim)
        with w.checked(vnode):
            unitaries[key] = Operator(space, mat, "unitary")

    forbidden: list[tuple[StateVector, StateVector]] = []
    for pnode in w.sequence(sections.get("forbidden"), "forbidden"):
        f = w.fields(pnode, "forbidden pair", ("from", "to"), required=True)
        frm = w.ref(f["from"], states, "state", "forbidden from")
        to = w.ref(f["to"], states, "state", "forbidden to")
        forbidden.append((states[frm], states[to]))

    allowed = {"measurements": measurements, "unitaries": unitaries}
    if "lab" in sections:
        listed = w.fields(sections["lab"], "lab", tuple(allowed))
        for section, kind in (("measurements", "measurement"), ("unitaries", "unitary")):
            declared = allowed[section]
            names = w.sequence(listed.get(section), f"lab {section}")
            refs = [w.ref(n, declared, kind) for n in names]
            allowed[section] = {ref: declared[ref] for ref in refs}
    with w.checked(sections.get("lab", root)):
        lab = Laboratory(
            space, allowed["measurements"], allowed["unitaries"], tuple(forbidden)
        )

    protocols = {
        key: ProtocolSpec(_parse_steps(w, vnode, measurements, unitaries))
        for key, _, vnode in w.mapping(sections.get("protocols"), "protocols")
    }

    return Scenario(
        name=name,
        space=space,
        states=states,
        mixtures=mixtures,
        measurements=measurements,
        unitaries=unitaries,
        lab=lab,
        protocols=protocols,
    )


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
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{label}: not valid UTF-8 at byte {err.start}") from err
    return parse_scenario_text(text, label), scenario_sha256(data)
