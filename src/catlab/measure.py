"""Projective measurements: Born-rule statistics and collapse.

A measurement is a list of labelled, mutually orthogonal projectors that
resolve the identity.  Incomplete projector lists are completed with a
catch-all outcome labelled ``"⊥"`` at construction.  Collapse follows the
projection postulate: vectors go to ``P|psi>`` over its own norm, matrices
to ``P rho P`` over its own trace.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import CatlabError, DimensionMismatch, NotOrthogonal
from .qstate import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    State,
    StateVector,
    projector_from_state,
)

PRUNE_TOL = 1e-12  # outcomes below this probability carry no post state
ORTHO_TOL = 1e-9  # overlap allowed between outcome-defining states
COMPLETE_TOL = 1e-10
COMPLEMENT_LABEL = "⊥"


class ProjectiveMeasurement:
    """Labelled orthogonal projectors summing to the identity; compares by
    identity.  ``key`` is its value, the memo key of ``lab.born_rows``: its
    type, space, and each outcome's label with that projector's ``key``."""

    def __init__(
        self, space: HilbertSpace, outcomes: Sequence[tuple[str, Operator]]
    ) -> None:
        outcomes = tuple((str(l), op) for l, op in outcomes)
        if not outcomes:
            raise CatlabError("a measurement needs at least one outcome")
        labels = [l for l, _ in outcomes]
        if len(set(labels)) != len(labels):
            raise CatlabError("outcome labels must be unique")
        if any(not l for l in labels):
            raise CatlabError("outcome labels must be non-empty")
        d = space.dim
        for label, op in outcomes:
            if op.space != space:
                raise DimensionMismatch(f"outcome {label!r} lives on another space")
            if op.kind != "projector":
                raise CatlabError(f"outcome {label!r} is not a projector")
        mats = [op.mat for _, op in outcomes]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if float(np.max(np.abs(mats[i] @ mats[j]))) > COMPLETE_TOL:
                    raise NotOrthogonal(
                        f"projectors {labels[i]!r} and {labels[j]!r} overlap"
                    )
        total = sum(mats)
        if float(np.max(np.abs(total - np.eye(d)))) > COMPLETE_TOL:
            raise CatlabError("projectors do not resolve the identity")
        self.space = space
        self.outcomes: tuple[tuple[str, Operator], ...] = outcomes
        self.key = (ProjectiveMeasurement, space, tuple((l, op.key) for l, op in outcomes))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.outcomes)

    def projector(self, label: str) -> Operator:
        for l, op in self.outcomes:
            if l == label:
                return op
        raise CatlabError(f"no outcome labelled {label!r}")


def make_measurement(
    space: HilbertSpace, outcomes: Sequence[tuple[str, Operator]]
) -> ProjectiveMeasurement:
    """Build a measurement, appending a complement outcome when needed.

    The appended outcome is ``complement(space, I - sum(P_i))``, labelled
    "⊥"; if the given projectors are not mutually orthogonal it fails its own
    projector check, which surfaces the problem immediately.
    """
    outcomes = [(str(l), op) for l, op in outcomes]
    d = space.dim
    total = np.zeros((d, d), dtype=np.complex128)
    for label, op in outcomes:
        if op.space != space:
            raise DimensionMismatch(f"outcome {label!r} lives on another space")
        total = total + op.mat
    rest = np.eye(d) - total
    if float(np.max(np.abs(rest))) > COMPLETE_TOL:
        if any(l == COMPLEMENT_LABEL for l, _ in outcomes):
            raise CatlabError(
                f"cannot auto-complete: label {COMPLEMENT_LABEL!r} already used"
            )
        outcomes.append((COMPLEMENT_LABEL, complement(space, rest)))
    return ProjectiveMeasurement(space, tuple(outcomes))


def complement(space: HilbertSpace, c: np.ndarray) -> Operator:
    """The projector ``C`` that completes projectors summing to ``total``,
    built from ``c = I - total``, which it changes in place.  A diagonal
    entry that cancels (0 <= C_ii < 1e-3) is recomputed to full relative
    accuracy as the small root of the projector identity C_ii - C_ii^2 =
    s_i, where s_i is the sum of |C_ij|^2 over j != i."""
    for i, cii in enumerate(c.diagonal().real.tolist()):
        if 0 <= cii < 1e-3:
            s = float(np.vdot(c[i], c[i]).real) - cii * cii
            if s < 0.25:  # else no projector has this row: leave it to the checks
                c[i, i] = 2 * s / (1 + math.sqrt(1 - 4 * s))
    return Operator(space, c, "projector")


def measurement_from_states(
    states: Sequence[StateVector], labels: Sequence[str]
) -> ProjectiveMeasurement:
    """Rank-one measurement defined by pairwise-orthogonal pure states."""
    states = list(states)
    labels = [str(l) for l in labels]
    if not states:
        raise CatlabError("need at least one state")
    if len(states) != len(labels):
        raise DimensionMismatch("one label per state required")
    space = states[0].space
    if len(states) > space.dim:
        raise DimensionMismatch("more states than the dimension allows")
    for s in states:
        if s.space != space:
            raise DimensionMismatch("states live on different spaces")
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            ov = abs(np.vdot(states[i].amps, states[j].amps))
            if ov > ORTHO_TOL:
                raise NotOrthogonal(
                    f"states {labels[i]!r} and {labels[j]!r} overlap (|<i|j>| = {ov:.3g})"
                )
    outcomes = [(lab, projector_from_state(s)) for lab, s in zip(labels, states)]
    return make_measurement(space, outcomes)


class OutcomeRecord:
    """One row of a Born distribution: label, probability, collapsed state."""

    __slots__ = ("label", "probability", "post_state")

    def __init__(self, label: str, probability: float, post_state: State | None) -> None:
        self.label = label
        self.probability = probability
        self.post_state = post_state


def outcome_distribution(m: ProjectiveMeasurement, x: State) -> list[OutcomeRecord]:
    """Born probabilities and post-measurement states for every outcome.

    Probabilities are clamped into [0, 1]; outcomes below ``PRUNE_TOL``
    keep their row but carry ``post_state=None``.  A post state is divided
    by its own norm or trace, so rounding in ``p`` cannot denormalise it.
    A vector's ``p`` below 1e-3 is ``||P psi||^2``, blind to the global phase.
    """
    if x.space != m.space:
        raise DimensionMismatch("state and measurement live on different spaces")
    records: list[OutcomeRecord] = []
    if isinstance(x, StateVector):
        for label, op in m.outcomes:
            proj = op.mat @ x.amps
            norm2 = float(np.vdot(proj, proj).real)
            p = float(np.real(np.vdot(x.amps, proj)))
            p = min(1.0, max(0.0, norm2 if p < 1e-3 else p))
            post = None
            if p >= PRUNE_TOL:
                post = StateVector(m.space, proj / math.sqrt(norm2))
            records.append(OutcomeRecord(label, p, post))
    else:
        for label, op in m.outcomes:
            left = op.mat @ x.mat
            p = float(np.real(np.trace(left)))
            p = min(1.0, max(0.0, p))
            post = None
            if p >= PRUNE_TOL:
                collapsed = left @ op.mat
                collapsed = (collapsed + collapsed.conj().T) / 2  # its rounding over a small p stays Hermitian
                if p < 1e-3:  # and its zero eigenvalues, amplified by 1/p, stay >= 0
                    w, v = np.linalg.eigh(collapsed)
                    collapsed = (v * np.maximum(w, 0.0)) @ v.conj().T
                post = DensityMatrix(m.space, collapsed / np.trace(collapsed).real)
            records.append(OutcomeRecord(label, p, post))
    return records
