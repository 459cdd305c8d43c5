"""Shared generators for the test suite."""

from __future__ import annotations

import numpy as np

from catlab import (
    DensityMatrix,
    HilbertSpace,
    MeasureStep,
    RandomStream,
    StateVector,
    StopIfStep,
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


def mc_every_step(protocol, lab, initial, n, seed):
    """Monte Carlo counts by final state key, with the split weights of
    every cell re-derived on every step: the kept rows' probabilities
    snapped to a 2**-40 grid and renormalised, then one multinomial draw."""
    stream = RandomStream(seed)
    cells = {(lab.intern(initial), None): n} if n else {}
    finals = {}
    for step in protocol.unrolled():
        if isinstance(step, StopIfStep):
            for key in [key for key in cells if key[1] == step.outcome]:
                finals[key[0]] = finals.get(key[0], 0) + cells.pop(key)
            continue
        name = step.measurement if isinstance(step, MeasureStep) else step.unitary
        nxt = {}
        for (sid, last), count in cells.items():
            kept = [row for row in lab.rows(name, sid) if row[2] is not None]
            counts = [count]
            if len(kept) > 1:
                w = np.rint(np.multiply([p for _, p, _ in kept], float(1 << 40)))
                counts = stream.multinomial(count, w / w.sum()).tolist()
            for (label, _, nid), c in zip(kept, counts):
                if c:
                    nxt[(nid, label or last)] = nxt.get((nid, label or last), 0) + c
        cells = nxt
    for (sid, _), count in cells.items():
        finals[sid] = finals.get(sid, 0) + count
    return [(lab.states[sid].key, c) for sid, c in finals.items()]
