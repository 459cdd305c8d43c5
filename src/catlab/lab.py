"""Laboratories and the steering search.

A laboratory declares which measurements and unitaries are physically
available and which state transitions are forbidden.  The steering search
asks whether chaining allowed operations can drag an initial state onto a
target state with positive probability; the no-go check adjoins a candidate
projector to the lab and runs that search across a forbidden transition,
unless a subspace that the operations leave invariant already rules the
target out at every depth.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import CatlabError, DimensionMismatch, PreconditionFailed
from .measure import (
    COMPLEMENT_LABEL,
    ORTHO_TOL,
    ProjectiveMeasurement,
    complement,
    outcome_distribution,
)
from .qstate import (
    HilbertSpace,
    Operator,
    State,
    StateVector,
    apply_unitary,
    overlap,
    state_to_json,
    states_match,
)

GRID = 1e-6  # amplitude grid for dedup keys
DEFAULT_MAX_DEPTH = 8
NEW_DIRECTION = 1e-6  # closure directions (and target residuals) above this count
MEMO_ROWS = 1024  # the memo is cleared when it holds this many entries
_ROWS: dict[tuple, object] = {}  # the memo of born_rows and invariant_subspace


def state_key(x: State) -> tuple:
    """Hashable dedup key: a 1e-6 grid read off a vector's amplitudes, in
    canonical phase since the vector was built, or off a matrix's entries."""
    if isinstance(x, StateVector):
        tag, flat = "v", x.amps.view(np.float64)  # re, im interleaved
    else:
        tag, flat = "m", np.concatenate([x.mat.real.ravel(), x.mat.imag.ravel()])
    return (tag,) + tuple(np.round(flat / GRID).astype(np.int64).tolist())


class Laboratory:
    """Declared operations plus forbidden transitions, all on one space, and
    the lab's interned transition table, which the search, the tree and
    Monte Carlo share.  Compares by identity.

    ``intern`` gives each state a dense integer id under its ``state_key``;
    the first state interned under a key represents it from then on, as it
    is (``states[id]``, with ``keys[id]`` its key).  ``rows`` memoises, per
    (operation, id), the outcome rows ``(label, probability, next id)``,
    read off ``born_rows``.  A lab keeps its rows for its own lifetime,
    also after the ``born_rows`` memo is cleared.
    """

    def __init__(
        self,
        space: HilbertSpace,
        measurements: Mapping[str, ProjectiveMeasurement] | None = None,
        unitaries: Mapping[str, Operator] | None = None,
        forbidden: Iterable[tuple[StateVector, StateVector]] = (),
    ) -> None:
        measurements = dict(measurements or {})
        unitaries = dict(unitaries or {})
        forbidden = tuple(forbidden)
        for name, m in measurements.items():
            if m.space != space:
                raise DimensionMismatch(f"measurement {name!r} on another space")
        for name, u in unitaries.items():
            if u.space != space:
                raise DimensionMismatch(f"unitary {name!r} on another space")
            if u.kind != "unitary":
                raise CatlabError(f"operator {name!r} is not unitary")
            if name in measurements:
                raise CatlabError(f"operation name {name!r} already in use")
        for frm, to in forbidden:
            if frm.space != space or to.space != space:
                raise DimensionMismatch("forbidden pair on another space")
            if abs(overlap(frm, to)) > ORTHO_TOL:
                raise CatlabError(
                    "forbidden pair must be distinct orthogonal states"
                )
        self.space = space
        self.measurements: dict[str, ProjectiveMeasurement] = measurements
        self.unitaries: dict[str, Operator] = unitaries
        self.forbidden: tuple[tuple[StateVector, StateVector], ...] = forbidden
        self._ops = {**measurements, **unitaries}
        self.states: list[State] = []
        self.keys: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._rows: dict[tuple[str, int], tuple[tuple[str, float, int | None], ...]] = {}

    def with_measurement(self, name: str, m: ProjectiveMeasurement) -> "Laboratory":
        """A copy of this lab with one more allowed measurement appended.

        The copy starts with an empty table.  Rows come from the one
        ``born_rows`` memo, keyed by an operation's value, so the copy reads
        this lab's rows, and a later copy with an equal measurement reads
        this one's.
        """
        if name in self.measurements:
            raise CatlabError(f"operation name {name!r} already in use")
        meas = {**self.measurements, name: m}
        return Laboratory(self.space, meas, self.unitaries, self.forbidden)

    def intern(self, x: State) -> int:
        """The id of ``x``, which represents its key if the key is new."""
        return self._intern_keyed(x, state_key(x))

    def _intern_keyed(self, x: State, key: tuple) -> int:
        """The id of ``x``, whose ``state_key`` is ``key``; ``x`` represents
        the key if the key is new."""
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.states)
            self.states.append(x)
            self.keys.append(key)
        return sid

    def rows(self, name: str, sid: int) -> tuple[tuple[str, float, int | None], ...]:
        """Outcome rows of operation ``name`` on state ``sid``.

        A measurement gives one row per outcome in outcome order, with next
        id None below ``PRUNE_TOL``; a unitary gives ``(("", 1.0, id),)``.
        """
        hit = self._rows.get((name, sid))
        if hit is None:
            hit = self._rows[(name, sid)] = tuple(
                (label, p, None if key is None else self._intern_keyed(post, key))
                for label, p, post, key in born_rows(self._ops[name], self.states[sid])
            )
        return hit


class SteeringPath:
    """A successful chain of operations; unitary steps carry an empty label."""

    def __init__(
        self, steps: tuple[tuple[str, str], ...], probability: float, final_state: StateVector
    ) -> None:
        self.steps = steps
        self.probability = probability
        self.final_state = final_state


class NoGoVerdict:
    """The outcome of ``nogo_verdict`` for one candidate."""

    def __init__(
        self,
        operator_name: str,
        violated: bool,
        witness: SteeringPath | None,
        bound_reached: bool,
        certificate: int | None,
    ) -> None:
        self.operator_name = operator_name
        self.violated = violated
        self.witness = witness
        self.bound_reached = bound_reached
        self.certificate = certificate  # dim of the invariant subspace that rules l out


def check_conditions(lab: Laboratory, l_state: StateVector, d_state: StateVector) -> bool:
    """Both hypotheses of the no-go check: orthogonality of the pair and
    the d->l transition being declared forbidden."""
    if l_state.space != lab.space or d_state.space != lab.space:
        raise DimensionMismatch("states live outside the laboratory space")
    if abs(overlap(l_state, d_state)) >= ORTHO_TOL:
        return False
    for frm, to in lab.forbidden:
        if states_match(frm, d_state) and states_match(to, l_state):
            return True
    return False


def born_rows(
    op: ProjectiveMeasurement | Operator, x: State
) -> tuple[tuple[str, float, State | None, tuple | None], ...]:
    """Rows ``(label, probability, post state, key)`` of measurement or
    unitary ``op`` on ``x``: ``key`` is the post state's ``state_key``,
    and both are None below ``PRUNE_TOL``.

    Memoised in one memo for the process, keyed by ``op.key``, the value
    of ``op``, and the exact bits of ``x``, so every lab that holds ``op``
    or an operation equal to it bit for bit, such as a rebuilt no-go
    candidate, shares its rows.  An entry is a pure function of its key, so
    a hit gives the bits a recomputation would, two threads racing on one
    entry store the same value, and a clear that races a store only loses
    entries.  The memo, which also holds ``invariant_subspace``'s results, is
    cleared at ``MEMO_ROWS`` entries, so a sweep of candidates stays bounded.
    """
    # d amplitudes or d * d entries, d >= 2: a vector and a matrix never share bits
    key = (op.key, x.amps.tobytes() if isinstance(x, StateVector) else x.mat.tobytes())
    hit = _ROWS.get(key)
    if hit is None:
        if isinstance(op, Operator):
            records = [("", 1.0, apply_unitary(op, x))]
        else:
            records = [(r.label, r.probability, r.post_state) for r in outcome_distribution(op, x)]
        hit = _remember(key, tuple(
            (label, p, None, None) if post is None else (label, p, post, state_key(post))
            for label, p, post in records
        ))
    return hit


def _remember(key: tuple, value):
    """Store and return ``value`` under ``key``, first clearing a full memo."""
    if len(_ROWS) >= MEMO_ROWS:
        _ROWS.clear()
    _ROWS[key] = value
    return value


def invariant_subspace(lab: Laboratory, start: StateVector) -> np.ndarray | None:
    """Orthonormal columns spanning V, the smallest subspace that contains
    ``start`` and that every outcome projector and every unitary of ``lab``
    maps into itself; None when V cannot be told apart from rounding.

    A block Krylov closure: apply every operator to the newest block,
    orthogonalise the images against the basis twice, and keep the left
    singular vectors of the remainder as new directions, until none
    appears.  A singular value at most ``d * eps`` is rounding and is
    dropped; one above ``NEW_DIRECTION`` is a new direction; one in between
    gives None.  Memoised, None too, like ``born_rows``: keyed by each
    operation's ``key`` in declaration order and the bits of ``start``.
    Hits share the basis, so it is read-only.
    """
    key = ("V", *(op.key for op in lab._ops.values()), start.amps.tobytes())
    hit = _ROWS.get(key, key)  # the key marks a miss, since None is a result
    if hit is not key:
        return hit
    d = lab.space.dim
    ops = np.array(
        [op.mat for m in lab.measurements.values() for _, op in m.outcomes]
        + [u.mat for u in lab.unitaries.values()]
    )
    noise = d * np.finfo(np.float64).eps
    basis = newest = start.amps.reshape(d, 1)
    while newest.shape[1] and basis.shape[1] < d:
        block = (ops @ newest).transpose(1, 0, 2).reshape(d, -1)
        for _ in range(2):
            block = block - basis @ (basis.conj().T @ block)
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        if ((s > noise) & (s <= NEW_DIRECTION)).any():
            return _remember(key, None)
        newest = u[:, s > NEW_DIRECTION]
        basis = np.concatenate([basis, newest], axis=1)
    basis.setflags(write=False)
    return _remember(key, basis)


def _search(
    lab: Laboratory,
    start: StateVector,
    target: StateVector,
    max_depth: int,
) -> tuple[SteeringPath | None, bool]:
    """Breadth-first steering search over interned state ids.  Returns
    (path, bound_reached).

    Deterministic: operations expand in declaration order and outcomes in
    outcome order.  Each state is the first one interned under its key in
    ``lab`` during the lab's lifetime, and the witness ends on that
    representative.  Revisited ids keep their highest-probability path
    (position in the frontier is fixed by first arrival).  A path is
    followed however faint it is; only a row with no next id is dropped.
    """
    if max_depth < 0:
        raise CatlabError(f"search depth must be >= 0, got {max_depth}")
    if start.space != lab.space or target.space != lab.space:
        raise DimensionMismatch("states live outside the laboratory space")
    root = lab.intern(start)
    if states_match(lab.states[root], target):
        return SteeringPath((), 1.0, lab.states[root]), False
    visited: dict[int, float] = {root: 1.0}
    frontier: dict[int, tuple[tuple, float]] = {root: ((), 1.0)}
    names = [*lab.measurements, *lab.unitaries]
    for _depth in range(1, max_depth + 1):
        next_frontier: dict[int, tuple[tuple, float]] = {}
        for sid, (steps, prob) in frontier.items():
            for name in names:
                for label, p, nid in lab.rows(name, sid):
                    if nid is None:
                        continue
                    new_prob = prob * p
                    new_steps = steps + ((name, label),)
                    post = lab.states[nid]
                    if states_match(post, target):
                        return SteeringPath(new_steps, new_prob, post), False
                    best = visited.get(nid)
                    if best is not None and best >= new_prob:
                        continue
                    visited[nid] = new_prob
                    next_frontier[nid] = (new_steps, new_prob)
        if not next_frontier:
            return None, False
        frontier = next_frontier
    return None, True


def find_steering_path(
    lab: Laboratory,
    start: StateVector,
    target: StateVector,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SteeringPath | None:
    """Minimal-depth chain of allowed operations steering start onto target,
    or None when none exists within the depth bound; no probability floor
    applies.  Raises ``CatlabError`` for a negative ``max_depth``."""
    path, _ = _search(lab, start, target, max_depth)
    return path


def nogo_verdict(
    lab: Laboratory,
    candidate: Operator,
    l_state: StateVector,
    d_state: StateVector,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    name: str = "candidate",
    outcome_label: str = "S",
) -> NoGoVerdict:
    """Adjoin {candidate, complement} to the lab and hunt for a steering
    path that realises the forbidden d->l transition.  The complement
    I - P is labelled ⊥, primed when ``outcome_label`` is ⊥ (zero if P = I).

    Raises ``PreconditionFailed`` unless the pair is orthogonal and d->l is
    declared forbidden, and ``CatlabError`` for a negative ``max_depth``.
    ``violated=True`` means a witness path exists; with ``violated=False``,
    ``bound_reached`` distinguishes a conclusive "no" (relative to the
    declared operations) from a depth cut.

    Before searching, the no-go argument is tried in its linear-algebra
    form: V = ``invariant_subspace(extended lab, d)``, memoised by value,
    holds every state reachable from d, at any depth, because each
    projector and unitary maps V into itself.  If l has a squared residual
    above ``NEW_DIRECTION`` off V, no reachable state can match it, and the
    verdict is a conclusive "no" with ``certificate = dim V`` and no
    search.  Closure directions weaker than ``d * eps`` are rounding; a
    direction between that and ``NEW_DIRECTION``, or a target too close to
    V, gives no certificate, and the depth-bounded search decides alone.
    """
    if max_depth < 0:
        raise CatlabError(f"search depth must be >= 0, got {max_depth}")
    if candidate.kind != "projector":
        raise CatlabError("the no-go candidate must be a projector")
    if candidate.space != lab.space:
        raise DimensionMismatch("candidate lives outside the laboratory space")
    if not check_conditions(lab, l_state, d_state):
        raise PreconditionFailed(
            "need orthogonal states with the d->l transition declared forbidden"
        )
    rest = complement(lab.space, np.eye(lab.space.dim) - candidate.mat)
    rest_label = COMPLEMENT_LABEL + "'" * (outcome_label == COMPLEMENT_LABEL)
    m = ProjectiveMeasurement(lab.space, [(outcome_label, candidate), (rest_label, rest)])
    adjoined = name
    while adjoined in lab.measurements or adjoined in lab.unitaries:
        adjoined += "'"
    extended = lab.with_measurement(adjoined, m)
    basis = invariant_subspace(extended, d_state)
    if basis is not None:
        off = l_state.amps - basis @ (basis.conj().T @ l_state.amps)
        if float(np.vdot(off, off).real) > NEW_DIRECTION:
            return NoGoVerdict(
                operator_name=name,
                violated=False,
                witness=None,
                bound_reached=False,
                certificate=basis.shape[1],
            )
    path, bound = _search(extended, d_state, l_state, max_depth)
    return NoGoVerdict(
        operator_name=name,
        violated=path is not None,
        witness=path,
        bound_reached=bound,
        certificate=None,
    )


def replay_path(lab: Laboratory, start: State, path: SteeringPath) -> tuple[float, State]:
    """Re-run a steering path step by step; returns (probability, final state).

    Used to audit witnesses: the product of the replayed branch
    probabilities must reproduce ``path.probability``.
    """
    state: State = start
    prob = 1.0
    for name, label in path.steps:
        if name in lab.measurements:
            records = outcome_distribution(lab.measurements[name], state)
            rec = next((r for r in records if r.label == label), None)
            if rec is None or rec.post_state is None:
                raise CatlabError(f"cannot replay step ({name!r}, {label!r})")
            prob *= rec.probability
            state = rec.post_state
        elif name in lab.unitaries:
            state = apply_unitary(lab.unitaries[name], state)
        else:
            raise CatlabError(f"operation {name!r} not in the laboratory")
    return prob, state


def verdict_to_json(v: NoGoVerdict) -> dict:
    doc: dict = {
        "operator": v.operator_name,
        "violated": v.violated,
        "bound_reached": v.bound_reached,
        "certificate": None if v.certificate is None else {"invariant_dim": v.certificate},
        "witness": None,
    }
    if v.witness is not None:
        doc["witness"] = {
            "steps": [
                {"operation": name, "outcome": label}
                for name, label in v.witness.steps
            ],
            "probability": v.witness.probability,
            "final_state": state_to_json(v.witness.final_state),
        }
    return doc
