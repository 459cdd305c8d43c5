"""Shared generators for the test suite."""

from __future__ import annotations

import numpy as np

from catlab import (
    DensityMatrix,
    HilbertSpace,
    StateVector,
    make_mixture,
    make_state,
)

LABEL_POOL = "abcdefghijklmnop"


def space_of_dim(d: int, name: str | None = None) -> HilbertSpace:
    return HilbertSpace(tuple(LABEL_POOL[:d]), name=name)


def rand_state(rng: np.random.Generator, space: HilbertSpace) -> StateVector:
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return make_state(space, amps)


def rand_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed R."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_density(
    rng: np.random.Generator, space: HilbertSpace, parts: int = 3
) -> DensityMatrix:
    weights = rng.dirichlet(np.ones(parts))
    states = [rand_state(rng, space) for _ in range(parts)]
    return make_mixture(list(zip(weights.tolist(), states)))
