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

from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CatlabError, DimensionMismatch, PreconditionFailed
from .measure import (
    COMPLEMENT_LABEL,
    EPS,
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
    _IDENTITY,
    apply_unitary,
    overlap,
    states_match,
)
from .rng import draw_weights

DEFAULT_MAX_DEPTH = 8
NEW_DIRECTION = 1e-6  # closure directions (and target residuals) above this count
MEMO_ROWS = 1024  # the memo is cleared when it holds this many entries
SPLIT_GRID = float(1 << 40)  # a split snaps probabilities to multiples of 1/SPLIT_GRID
_ROWS: dict[tuple, object] = {}  # the memo of born_rows and invariant_subspace


class Laboratory:
    """Declared operations plus forbidden transitions, all on one space, and
    the lab's interned transition table, which the search, the tree, exact
    propagation and Monte Carlo share.  Compares by identity.

    ``intern`` gives each state a dense integer id under its ``key``; the
    first state interned under a key represents it from then on, as it is
    (``states[id]``).  ``rows`` memoises, per (operation, id), the outcome
    rows ``(label, probability, next id)``, read off ``born_rows``.
    ``step`` memoises, per (operation, id), the one view of those rows that
    exact propagation and sampling step over: the kept rows as integers
    over the pair's largest denominator, the exact pruned mass, and the
    kept rows' weights.  It is built the first time either run meets the
    pair, and a lab keeps its rows and views for its own lifetime, also
    after the memo is cleared.  The search and the tree walk read ``rows``
    alone.
    ``_programs`` memoises, per protocol object, the program that
    ``protocols`` resolves it into on this lab, so each protocol that runs
    on the lab is checked and unrolled once in the lab's lifetime.
    ``_matches`` memoises, per target on this lab's space, keyed by the
    target's bits (``amps.tobytes()``), whether each id matches it
    (``states_match``), so ``leaf_mass``, its one reader, tests each final
    state against a target once in the lab's lifetime.  An entry is exact:
    on one space the test depends only on the two states' bits, and an
    interned state never changes.  These four tables are all a lab keeps.
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
            if m.space is not space:
                raise DimensionMismatch(f"measurement {name!r} on another space")
        for name, u in unitaries.items():
            if u.space is not space:
                raise DimensionMismatch(f"unitary {name!r} on another space")
            if u.kind != "unitary":
                raise CatlabError(f"operator {name!r} is not unitary")
            if name in measurements:
                raise CatlabError(f"operation name {name!r} already in use")
        for frm, to in forbidden:
            _check_forbidden_pair(space, frm, to)
        self._fill(space, measurements, unitaries, forbidden)

    def _fill(self, space, measurements, unitaries, forbidden) -> None:
        """Hold the checked declarations and start an empty table."""
        self.space = space
        self.measurements: dict[str, ProjectiveMeasurement] = measurements
        self.unitaries: dict[str, Operator] = unitaries
        self.forbidden: tuple[tuple[StateVector, StateVector], ...] = forbidden
        self._ops = {**measurements, **unitaries}
        self.states: list[State] = []
        self._ids: dict[tuple, int] = {}
        self._rows: dict[tuple[str, int], tuple[tuple[str, float, int | None], ...]] = {}
        self._steps: dict[tuple[str, int], tuple[int, tuple, int, float | np.ndarray | None]] = {}
        self._programs: dict[int, tuple[object, tuple]] = {}  # id(protocol) -> (protocol, program)
        self._matches: dict[bytes, dict[int, bool]] = {}  # target bits -> {id: match}

    def with_measurement(self, name: str, m: ProjectiveMeasurement) -> "Laboratory":
        """A copy of this lab with one more allowed measurement appended.

        Only ``m`` and its name are checked: the rest passed this lab's
        checks.  The copy starts with an empty table.  Rows come from the one
        ``born_rows`` memo, keyed by an operation's value, so the copy reads
        this lab's rows, and a later copy with an equal measurement reads
        this one's.
        """
        if name in self._ops:
            raise CatlabError(f"operation name {name!r} already in use")
        if m.space is not self.space:
            raise DimensionMismatch(f"measurement {name!r} on another space")
        lab = Laboratory.__new__(Laboratory)
        lab._fill(self.space, {**self.measurements, name: m}, self.unitaries, self.forbidden)
        return lab

    def intern(self, x: State) -> int:
        """The id of ``x``, which represents its key if the key is new."""
        sid = self._ids.get(x.key)
        if sid is None:
            sid = self._ids[x.key] = len(self.states)
            self.states.append(x)
        return sid

    def rows(self, name: str, sid: int) -> tuple[tuple[str, float, int | None], ...]:
        """Outcome rows of operation ``name`` on state ``sid``.

        A measurement gives one row per outcome in outcome order, with next
        id None below ``(d * EPS)**2`` on a vector and ``PRUNE_TOL`` on a
        density matrix; a unitary gives ``(("", 1.0, id),)``.
        """
        hit = self._rows.get((name, sid))
        if hit is None:
            hit = self._rows[(name, sid)] = tuple(
                (label, p, None if post is None else self.intern(post))
                for label, p, post in born_rows(self._ops[name], self.states[sid])
            )
        return hit

    def step(
        self, name: str, sid: int
    ) -> tuple[int, tuple[tuple, ...], int, float | np.ndarray | None]:
        """The one view of ``name`` on ``sid`` that exact propagation and
        sampling step over, as ``(k, kept, cut, weights)``.  ``2**k`` is the
        largest denominator of all the rows, kept or not.  ``kept`` holds
        the rows with a next id, in row order, each as ``(n, label, next id,
        (next id, label))`` with probability ``n / 2**k`` exactly; the last
        field is the key of the cell that a measurement row leads to.
        ``cut / 2**k`` is the exact mass of the rows with no next id.
        ``weights`` are the kept rows' ``_weights`` in ``draw_weights``'
        form, or None when fewer than two rows are kept."""
        hit = self._steps.get((name, sid))
        if hit is None:
            rows = self.rows(name, sid)
            dyadic = [_dyadic(p) for _, p, _ in rows]
            k = max(kr for _, kr in dyadic)
            kept, probs, cut = [], [], 0
            for (label, p, nid), (n, kr) in zip(rows, dyadic):
                n <<= k - kr
                if nid is None:
                    cut += n
                else:
                    kept.append((n, label, nid, (nid, label)))
                    probs.append(p)
            weights = draw_weights(_weights(probs)) if len(kept) > 1 else None
            hit = self._steps[(name, sid)] = (k, tuple(kept), cut, weights)
        return hit


def _check_forbidden_pair(space: HilbertSpace, frm: StateVector, to: StateVector) -> None:
    """A lab's rule for a forbidden pair: both states on ``space``, with
    |<frm|to>| at most ``ORTHO_TOL``."""
    if frm.space is not space or to.space is not space:
        raise DimensionMismatch("forbidden pair on another space")
    if abs(overlap(frm, to)) > ORTHO_TOL:
        raise CatlabError("forbidden pair must be distinct orthogonal states")


def _weights(probs: Sequence[float]) -> np.ndarray:
    """The probabilities that sampling draws over for outcomes of
    probabilities ``probs``; ``draw_weights`` puts them in the form a draw
    takes.  Each probability is snapped to an integer weight over
    ``SPLIT_GRID`` and the weights are renormalised, so that two
    representatives of one key, whose probabilities may differ in the last
    bits, draw alike.  A probability of at least about 0.5 / SPLIT_GRID
    keeps a weight of at least 1.  A kept vector row can be as faint as
    ``(d * EPS)**2``; below about 0.5 / SPLIT_GRID it gets weight 0 and
    draws no trial."""
    w = np.rint(np.multiply(probs, SPLIT_GRID))
    return w / w.sum()


def _dyadic(p: float) -> tuple[int, int]:
    """``(n, k)`` with ``p == n / 2**k``: every finite float is dyadic."""
    n, d = p.as_integer_ratio()
    return n, d.bit_length() - 1


class SteeringPath(NamedTuple):
    """A successful chain of operations; unitary steps carry an empty label."""

    steps: tuple[tuple[str, str], ...]
    probability: float
    final_state: StateVector


class NoGoVerdict(NamedTuple):
    """The outcome of ``nogo_verdict`` for one candidate."""

    operator_name: str
    violated: bool
    witness: SteeringPath | None
    bound_reached: bool
    certificate: int | None  # dim of the invariant subspace that rules l out


def born_rows(
    op: ProjectiveMeasurement | Operator, x: State
) -> tuple[tuple[str, float, State | None], ...]:
    """Rows ``(label, probability, post state)`` of ``op`` on ``x``: those of
    ``outcome_distribution`` for a measurement, with no post state below
    ``(d * EPS)**2`` on a vector, or ``(("", 1.0, U x),)`` for a unitary.  No
    other catlab function calls ``outcome_distribution`` or
    ``apply_unitary``, so every reader of rows reads this memo.

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
            rows = (("", 1.0, apply_unitary(op, x)),)
        else:
            rows = outcome_distribution(op, x)
        hit = _remember(key, rows)
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
    noise = d * EPS
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
    representative.  Each state is tested against the target once, when
    the search first reaches it: the root before the first step, any other
    id on its first arrival, so a revisit tests nothing.  Revisited ids keep
    their highest-probability path (position in the frontier is fixed by
    first arrival).  A path is followed however faint it is; only a row
    with no next id is dropped.
    """
    if max_depth < 0:
        raise CatlabError(f"search depth must be >= 0, got {max_depth}")
    if start.space is not lab.space or target.space is not lab.space:
        raise DimensionMismatch("states live outside the laboratory space")
    root = lab.intern(start)
    if states_match(lab.states[root], target):
        return SteeringPath((), 1.0, lab.states[root]), False
    visited: dict[int, float] = {root: 1.0}
    frontier: dict[int, tuple[tuple, float]] = {root: ((), 1.0)}
    for _depth in range(1, max_depth + 1):
        next_frontier: dict[int, tuple[tuple, float]] = {}
        for sid, (steps, prob) in frontier.items():
            for name in lab._ops:
                for label, p, nid in lab.rows(name, sid):
                    if nid is None:
                        continue
                    new_prob = prob * p
                    new_steps = steps + ((name, label),)
                    best = visited.get(nid)
                    if best is None:
                        post = lab.states[nid]
                        if states_match(post, target):
                            return SteeringPath(new_steps, new_prob, post), False
                    elif best >= new_prob:
                        continue
                    visited[nid] = new_prob
                    next_frontier[nid] = (new_steps, new_prob)
        if not next_frontier:
            return None, False
        frontier = next_frontier
    return None, True


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

    Raises ``DimensionMismatch`` for states on another space,
    ``PreconditionFailed`` unless the pair is orthogonal by the rule a lab
    applies to its forbidden pairs (|<l|d>| <= ``ORTHO_TOL``) and d->l is
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
    A V that is the whole space leaves no residual, so none is computed.
    """
    if max_depth < 0:
        raise CatlabError(f"search depth must be >= 0, got {max_depth}")
    if candidate.kind != "projector":
        raise CatlabError("the no-go candidate must be a projector")
    if candidate.space is not lab.space:
        raise DimensionMismatch("candidate lives outside the laboratory space")
    if l_state.space is not lab.space or d_state.space is not lab.space:
        raise DimensionMismatch("states live outside the laboratory space")
    if abs(overlap(l_state, d_state)) > ORTHO_TOL or not any(
        states_match(frm, d_state) and states_match(to, l_state) for frm, to in lab.forbidden
    ):
        raise PreconditionFailed(
            "need orthogonal states with the d->l transition declared forbidden"
        )
    rest = complement(lab.space, _IDENTITY[lab.space.dim] - candidate.mat)
    rest_label = COMPLEMENT_LABEL + "'" * (outcome_label == COMPLEMENT_LABEL)
    m = ProjectiveMeasurement(lab.space, [(outcome_label, candidate), (rest_label, rest)])
    adjoined = name
    while adjoined in lab._ops:
        adjoined += "'"
    extended = lab.with_measurement(adjoined, m)
    basis = invariant_subspace(extended, d_state)
    certificate = None
    if basis is not None and basis.shape[1] < lab.space.dim:
        off = l_state.amps - basis @ (basis.conj().T @ l_state.amps)
        if float(np.vdot(off, off).real) > NEW_DIRECTION:
            certificate = basis.shape[1]
    path, bound = None, False
    if certificate is None:
        path, bound = _search(extended, d_state, l_state, max_depth)
    return NoGoVerdict(
        operator_name=name,
        violated=path is not None,
        witness=path,
        bound_reached=bound,
        certificate=certificate,
    )


def replay_path(lab: Laboratory, start: State, path: SteeringPath) -> tuple[float, State]:
    """Re-run a steering path step by step; returns (probability, final state).

    Used to audit witnesses: the product of the replayed branch
    probabilities must reproduce ``path.probability``.  Each step names an
    operation of ``lab`` and one of its ``born_rows`` with a post state.
    """
    state: State = start
    prob = 1.0
    for name, label in path.steps:
        if name not in lab._ops:
            raise CatlabError(f"operation {name!r} not in the laboratory")
        row = next((r for r in born_rows(lab._ops[name], state) if r[0] == label), None)
        if row is None or row[2] is None:
            raise CatlabError(f"cannot replay step ({name!r}, {label!r})")
        prob *= row[1]
        state = row[2]
    return prob, state

