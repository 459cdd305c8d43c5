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
    states_match,
)
from catlab.protocols import _ENDED, _resolved

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
    snapped to a 2**-40 grid and renormalised, then one multinomial draw.
    It builds its own stream rather than take a pooled one, so that a run
    on a re-keyed stream is compared with an independent reference."""
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


def enumerate_two_pass(protocol, lab, initial):
    """``(finals, scale, pruned, nodes, leaves)`` of the exact propagation by
    a reference step of two passes: the first lists every cell's rows as
    ``(label, n, k, next id)``, probability ``n / 2**k``, and takes the
    step's denominator as the largest ``2**k`` among them; the second adds
    each row's mass over that denominator into its next cell."""
    program = _resolved(protocol, lab)
    cells = {(lab.intern(initial), None): [1, 1]}
    scale = pruned = 0
    nodes = 1
    for name, stops in program:
        expanded = [() if last is _ENDED else _dyadic_rows(lab, name, sid) for sid, last in cells]
        shift = max((k for rows in expanded for _, _, k, _ in rows), default=0)
        pruned <<= shift
        nxt = {}
        for ((sid, last), (num, count)), rows in zip(cells.items(), expanded):
            branched = False
            for label, n, k, nid in rows:
                mass = num * n << (shift - k)
                if nid is None:
                    pruned += mass
                    continue
                branched = True
                nodes += count
                now = label or last
                cell = nxt.setdefault((nid, _ENDED if now in stops else now), [0, 0])
                cell[0] += mass
                cell[1] += count
            if not branched:
                cell = nxt.setdefault((sid, _ENDED), [0, 0])
                cell[0] += num << shift
                cell[1] += count
        scale += shift
        cells = nxt
    finals = {}
    leaves = 0
    for (sid, _), (num, count) in cells.items():
        finals[sid] = finals.get(sid, 0) + num
        leaves += count
    return list(finals.items()), scale, pruned, nodes, leaves


def _dyadic_rows(lab, name, sid):
    """The rows of ``name`` on ``sid`` as ``(label, n, k, next id)``."""
    out = []
    for label, p, nid in lab.rows(name, sid):
        n, d = p.as_integer_ratio()
        out.append((label, n, d.bit_length() - 1, nid))
    return out


def tree_integers(tree):
    """The exact integers an outcome tree holds, in the order of
    ``enumerate_two_pass``."""
    return tree._finals, tree._scale, tree._pruned, tree._nodes, tree._leaves


def uncached_leaf_mass(tree, target):
    """``leaf_mass`` as the sum it stands for, with every final state tested
    against ``target`` afresh: the sum of n * [states_match] over the
    tree's finals, over ``2**scale``."""
    states = tree._lab.states
    num = sum(n for sid, n in tree._finals if states_match(states[sid], target))
    return num / (1 << tree._scale)
