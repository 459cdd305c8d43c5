"""States, density matrices and operators on small labelled Hilbert spaces.

Constructors validate their input and make the underlying numpy buffers
read-only, and no attribute is reassigned after construction, so instances
can be shared freely between threads and reused as dictionary payloads.
The types are plain classes, so that rule is kept by the code, not enforced:
assigning an attribute raises no error.  No record has a mutable part: an
operation's Born rows are memoised in ``lab.born_rows`` under its ``key``.

Numeric conventions used throughout the package:

* vectors are unit norm within ``NORM_TOL``;
* matrices are Hermitian / idempotent / unitary within elementwise 1e-10;
* density matrices may dip to ``PSD_FLOOR`` below zero in their spectrum;
* vectors are in canonical phase from construction (``canonical_amps``);
* a state's dedup ``key`` is its entries on the ``GRID``, read at construction.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, Sequence, Union

import numpy as np

from .errors import (
    BadWeights,
    CatlabError,
    DimensionCeiling,
    DimensionMismatch,
    NotProductSpace,
    ZeroVector,
)

DIM_CEILING = 16
NORM_TOL = 1e-10
HERM_TOL = 1e-10
PSD_FLOOR = -1e-9
ZERO_AMP = 1e-12
GRID = 1e-6  # amplitude grid of state keys
MATCH_TOL = 1e-9  # squared-overlap slack when deciding two states are the same
TENSOR_SEP = "⊗"  # the circled-times sign used in product labels

OperatorKind = Literal["projector", "unitary"]


# ---------------------------------------------------------------------------
# spaces


class HilbertSpace:
    """An ordered, labelled basis.  Dimension 2..16.

    ``factors`` carries the tensor factorisation when the space was built by
    :func:`tensor_space`; it is what makes :func:`partial_trace` possible.
    Spaces compare and hash by labels, name and factors.
    """

    def __init__(
        self,
        labels: Iterable[str],
        name: str | None = None,
        factors: Iterable["HilbertSpace"] | None = None,
    ) -> None:
        labels = tuple(labels)
        if len(labels) < 2:
            raise CatlabError("a space needs at least two basis labels")
        if len(labels) > DIM_CEILING:
            raise DimensionCeiling(
                f"dimension {len(labels)} exceeds the ceiling of {DIM_CEILING}"
            )
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise CatlabError("basis labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise CatlabError("basis labels must be unique within a space")
        if factors is not None:
            factors = tuple(factors)
            prod = 1
            for f in factors:
                prod *= f.dim
            if prod != len(labels):
                raise DimensionMismatch("factor dimensions do not multiply to dim")
        self.labels: tuple[str, ...] = labels
        self.name = name
        self.factors: tuple[HilbertSpace, ...] | None = factors

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not HilbertSpace:
            return NotImplemented
        return (self.labels, self.name, self.factors) == (
            other.labels, other.name, other.factors
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.name, self.factors))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CatlabError(f"unknown basis label {label!r}") from None

    def __repr__(self) -> str:  # compact; full labels still visible
        head = f"{self.name}:" if self.name else ""
        return f"HilbertSpace({head}{'|'.join(self.labels)})"


def tensor_space(a: HilbertSpace, b: HilbertSpace) -> HilbertSpace:
    """Kronecker-ordered product space with factor metadata retained."""
    dim = a.dim * b.dim
    if dim > DIM_CEILING:
        raise DimensionCeiling(
            f"product dimension {dim} exceeds the ceiling of {DIM_CEILING}"
        )
    labels = tuple(
        f"{la}{TENSOR_SEP}{lb}" for la in a.labels for lb in b.labels
    )
    factors = (a.factors or (a,)) + (b.factors or (b,))
    name = None
    if a.name and b.name:
        name = f"{a.name}{TENSOR_SEP}{b.name}"
    return HilbertSpace(labels, name=name, factors=factors)


# ---------------------------------------------------------------------------
# states


def _frozen_array(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    if arr.shape != shape:
        raise DimensionMismatch(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise CatlabError(f"{what}: non-finite entries")
    arr.setflags(write=False)
    return arr


def _grid_key(tag: str, flat: np.ndarray) -> tuple:
    """``tag`` and ``flat`` on the ``GRID``, as Python ints."""
    return (tag, *np.rint(flat / GRID).astype(np.int64).tolist())


class StateVector:
    """A unit vector over a labelled basis; ``amps`` is ``canonical_amps``
    of the given amplitudes, ``key`` "v" and their interleaved re, im parts
    on the ``GRID``.  Compares by identity."""

    def __init__(self, space: HilbertSpace, amps) -> None:
        arr = canonical_amps(_frozen_array(amps, (space.dim,), "state vector"))
        arr.setflags(write=False)
        norm2 = float(np.real(np.vdot(arr, arr)))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise CatlabError(f"state vector norm^2 = {norm2!r}, expected 1")
        self.space = space
        self.amps: np.ndarray = arr
        self.key = _grid_key("v", arr.view(np.float64))

    def __repr__(self) -> str:
        return f"StateVector({format_state(self)})"


class DensityMatrix:
    """A trace-one positive-semidefinite Hermitian matrix over a basis;
    ``key`` is "m" and its entries' real, then imaginary parts on the
    ``GRID``.  Compares by identity."""

    def __init__(self, space: HilbertSpace, mat) -> None:
        d = space.dim
        arr = _frozen_array(mat, (d, d), "density matrix")
        if float(np.max(np.abs(arr - arr.conj().T))) > HERM_TOL:
            raise CatlabError("density matrix is not Hermitian")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > NORM_TOL:
            raise CatlabError(f"density matrix trace = {tr!r}, expected 1")
        if np.linalg.eigvalsh(arr)[0] < PSD_FLOOR:
            raise CatlabError("density matrix has a negative eigenvalue")
        self.space = space
        self.mat: np.ndarray = arr
        self.key = _grid_key("m", np.concatenate([arr.real.ravel(), arr.imag.ravel()]))

    def __repr__(self) -> str:
        return f"DensityMatrix({format_state(self)})"


State = Union[StateVector, DensityMatrix]


class Operator:
    """A matrix tagged with the contract it must satisfy; compares by
    identity.  ``key`` is its value, the memo key of ``lab.born_rows``:
    its type, space, kind and the exact bytes of its matrix."""

    def __init__(self, space: HilbertSpace, mat, kind: OperatorKind) -> None:
        d = space.dim
        arr = _frozen_array(mat, (d, d), "operator")
        # no entry of a projector or a unitary exceeds 1 in modulus; refusing
        # larger parts before any product keeps it from overflowing to nan,
        # which every "> HERM_TOL" test would pass
        huge = float(np.max(np.abs(arr.view(np.float64)))) > 2.0
        if kind == "projector":
            if float(np.max(np.abs(arr - arr.conj().T))) > HERM_TOL:
                raise CatlabError("projector is not Hermitian")
            if huge or float(np.max(np.abs(arr @ arr - arr))) > HERM_TOL:
                raise CatlabError("projector is not idempotent")
        elif kind == "unitary":
            if huge or float(np.max(np.abs(arr.conj().T @ arr - np.eye(d)))) > HERM_TOL:
                raise CatlabError("matrix is not unitary")
        else:
            raise CatlabError(f"unknown operator kind {kind!r}")
        self.space = space
        self.mat: np.ndarray = arr
        self.kind = kind
        self.key = (Operator, space, kind, arr.tobytes())


# ---------------------------------------------------------------------------
# constructors


def make_state(space: HilbertSpace, raw_amps: Sequence[complex]) -> StateVector:
    """Normalise raw amplitudes into a state, keeping relative phases only.

    Raises ``ZeroVector`` when every amplitude is zero and
    ``DimensionMismatch`` when the length disagrees with the space.
    """
    arr = np.asarray(list(raw_amps), dtype=np.complex128)
    if arr.shape != (space.dim,):
        raise DimensionMismatch(
            f"{arr.shape[0] if arr.ndim == 1 else arr.shape} amplitudes for dim {space.dim}"
        )
    norm2 = float(np.real(np.vdot(arr, arr)))
    if not 1e-20 <= norm2 < math.inf and np.isfinite(arr).all():
        # scale tiny or huge finite amplitudes by their largest magnitude
        # first, so that |a|^2 can neither underflow nor overflow; huge ones
        # by their largest re or im part, as a modulus can overflow on its
        # own.  The division is real, since a complex one overflows at
        # subnormal scale
        top = float(np.max(np.abs(arr if norm2 < 1.0 else arr.view(np.float64))))
        if top == 0.0:
            raise ZeroVector("cannot normalise an all-zero amplitude list")
        arr = (arr.view(np.float64) / top).view(np.complex128)
        norm2 = float(np.real(np.vdot(arr, arr)))
    # skip the division when already normalised: amplitudes written
    # normalised and in canonical phase in a .scn file load bit for bit as
    # written, and report bytes depend on those doubles
    if abs(norm2 - 1.0) > 1e-15:
        arr = arr / math.sqrt(norm2)
    return StateVector(space, arr)


def basis_state(space: HilbertSpace, label: str) -> StateVector:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(label)] = 1.0
    return StateVector(space, amps)


def make_mixture(parts: Iterable[tuple[float, StateVector]]) -> DensityMatrix:
    """Convex mixture of pure states.  Weights must be >= 0 and sum to 1."""
    parts = list(parts)
    if not parts:
        raise BadWeights("empty mixture")
    space = parts[0][1].space
    total = 0.0
    mat = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for w, psi in parts:
        w = float(w)
        if w < 0.0 or not math.isfinite(w):
            raise BadWeights(f"weight {w!r} is negative or non-finite")
        if psi.space != space:
            raise DimensionMismatch("mixture components live on different spaces")
        total += w
        mat += w * np.outer(psi.amps, psi.amps.conj())
    if abs(total - 1.0) > NORM_TOL:
        raise BadWeights(f"weights sum to {total!r}, expected 1")
    return DensityMatrix(space, mat)


def pure_density(psi: StateVector) -> DensityMatrix:
    """The rank-one density matrix of a pure state."""
    return DensityMatrix(psi.space, np.outer(psi.amps, psi.amps.conj()))


def projector_from_state(psi: StateVector) -> Operator:
    """Rank-one projector onto a pure state."""
    return Operator(psi.space, np.outer(psi.amps, psi.amps.conj()), "projector")


def superposition_projector(space: HilbertSpace, a: complex, b: complex) -> Operator:
    """Rank-one projector onto a*|first> + b*|second> of a two-level space."""
    if space.dim != 2:
        raise CatlabError("superposition_projector expects a two-level space")
    return projector_from_state(make_state(space, [a, b]))


# ---------------------------------------------------------------------------
# algebra


def partial_trace(dm: DensityMatrix, keep: int | str) -> DensityMatrix:
    """Reduced density matrix over one declared tensor factor.

    ``keep`` selects the factor to retain, by position or by factor name;
    every other factor is traced out.
    """
    factors = dm.space.factors
    if factors is None:
        raise NotProductSpace("space carries no tensor factorisation")
    if isinstance(keep, str):
        hits = [i for i, f in enumerate(factors) if f.name == keep]
        if not hits:
            raise CatlabError(f"no factor named {keep!r}")
        if len(hits) > 1:
            raise CatlabError(f"factor name {keep!r} is ambiguous")
        keep_idx = hits[0]
    else:
        keep_idx = int(keep)
        if not 0 <= keep_idx < len(factors):
            raise CatlabError(f"factor index {keep} out of range")
    dims = [f.dim for f in factors]
    t = dm.mat.reshape(dims + dims)
    nfac = len(dims)
    # trace out the unwanted axes from the right so earlier indices stay put
    for ax in sorted((i for i in range(nfac) if i != keep_idx), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + nfac)
        nfac -= 1
    d = dims[keep_idx]
    return DensityMatrix(factors[keep_idx], t.reshape(d, d))


def apply_unitary(u: Operator, x: State) -> State:
    """Evolve a state by a unitary: U|psi> or U rho U^dagger."""
    if u.kind != "unitary":
        raise CatlabError("apply_unitary needs an operator of kind 'unitary'")
    if u.space != x.space:
        raise DimensionMismatch("unitary and state live on different spaces")
    if isinstance(x, StateVector):
        amps = u.mat @ x.amps
        # unitarity keeps the norm up to rounding; renormalise the dust away
        amps = amps / math.sqrt(float(np.real(np.vdot(amps, amps))))
        return StateVector(x.space, amps)
    return DensityMatrix(x.space, u.mat @ x.mat @ u.mat.conj().T)


def overlap(a: StateVector, b: StateVector) -> complex:
    """The inner product <a|b>."""
    if a.space != b.space:
        raise DimensionMismatch("states live on different spaces")
    return complex(np.vdot(a.amps, b.amps))


def squared_overlap(a: StateVector, b: StateVector) -> float:
    return abs(overlap(a, b)) ** 2


def states_match(x: State, target: StateVector) -> bool:
    """Is ``x`` the pure state ``target`` (up to global phase)?"""
    if isinstance(x, StateVector):
        return squared_overlap(x, target) > 1.0 - MATCH_TOL
    fid = float(np.real(np.vdot(target.amps, x.mat @ target.amps)))
    return fid > 1.0 - MATCH_TOL


def canonical_amps(amps: np.ndarray) -> np.ndarray:
    """Fix the global phase: the first amplitude above ``ZERO_AMP`` becomes
    real positive and no part is -0.0, so a second pass keeps the bits.
    Returns a new array, or ``amps`` itself if none is above ``ZERO_AMP``."""
    idx = int(np.argmax(np.abs(amps) > ZERO_AMP))
    a0 = amps[idx]
    r = abs(a0)
    if r <= ZERO_AMP:  # degenerate; a valid state always has one
        return amps
    phase = complex(a0.real / r, a0.imag / r)  # numpy's a0 / r can miss 1.0
    out = amps * phase.conjugate() + 0.0  # + 0.0 turns -0.0 parts into 0.0
    out[idx] = r  # exact zero imaginary part on the anchor entry
    return out


# ---------------------------------------------------------------------------
# formatting


def format_state(x: State) -> str:
    """Human-oriented one-line rendering; basis states print as their label."""
    if isinstance(x, StateVector):
        for i, lab in enumerate(x.space.labels):
            if abs(abs(x.amps[i]) - 1.0) < 1e-9:
                return lab
        terms = []
        for lab, a in zip(x.space.labels, x.amps):
            if abs(a) <= ZERO_AMP:
                continue
            if abs(a.imag) <= ZERO_AMP:
                coef = f"{a.real:.6g}"
            else:
                coef = f"({a.real:.6g}{a.imag:+.6g}i)"
            terms.append(f"{coef}*{lab}")
        return " + ".join(terms) if terms else "0"
    for i, lab in enumerate(x.space.labels):
        if abs(x.mat[i, i].real - 1.0) < 1e-9:
            return lab
    diag = ", ".join(
        f"{lab}: {x.mat[i, i].real:.6g}" for i, lab in enumerate(x.space.labels)
    )
    return f"mixed({diag})"

