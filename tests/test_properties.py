"""Randomized invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from catlab import (
    apply_unitary,
    canonical_state,
    make_mixture,
    make_state,
    make_measurement,
    orthogonal_in_span,
    outcome_distribution,
    overlap,
    partial_trace,
    projector_from_state,
    pure_density,
    state_key,
    states_match,
    tensor_space,
    unitary_operator,
    Operator,
)

from helpers import rand_density, rand_state, rand_unitary, space_of_dim

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def state_vectors(draw, max_dim=6):
    dim = draw(st.integers(2, max_dim))
    re = draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))
    im = draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))
    amps = np.array(re, dtype=np.complex128) + 1j * np.array(im)
    amps[draw(st.integers(0, dim - 1))] += 2.0  # keep well away from zero
    return make_state(space_of_dim(dim), amps)


seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 6)


@SETTINGS
@given(state_vectors())
def test_make_state_normalizes(psi):
    assert abs(np.vdot(psi.amps, psi.amps).real - 1.0) < 1e-12


@SETTINGS
@given(state_vectors(), st.floats(0, 2 * np.pi))
def test_canonical_phase_invariance(psi, theta):
    rotated = make_state(psi.space, psi.amps * np.exp(1j * theta))
    a = canonical_state(psi)
    b = canonical_state(rotated)
    assert state_key(a) == state_key(b)
    assert states_match(a, b)
    again = canonical_state(a)
    assert np.allclose(again.amps, a.amps, atol=1e-12)
    lead = a.amps[np.argmax(np.abs(a.amps) > 1e-12)]
    assert abs(lead.imag) < 1e-12 and lead.real > 0


@SETTINGS
@given(state_vectors())
def test_projector_from_state_shape(psi):
    p = projector_from_state(psi)
    assert np.allclose(p.mat, p.mat.conj().T, atol=1e-12)
    assert np.allclose(p.mat @ p.mat, p.mat, atol=1e-12)
    assert abs(np.trace(p.mat).real - 1.0) < 1e-12


@SETTINGS
@given(seeds, dims)
def test_unitary_basis_measurement_is_complete(seed, dim):
    rng = np.random.default_rng(seed)
    u = rand_unitary(rng, dim)
    space = space_of_dim(dim)
    outcomes = [
        (f"o{i}", Operator(space, np.outer(u[:, i], u[:, i].conj()), "projector"))
        for i in range(dim)
    ]
    m = make_measurement(space, outcomes)
    assert m.labels == tuple(f"o{i}" for i in range(dim))  # already complete
    psi = rand_state(rng, space)
    recs = outcome_distribution(m, psi)
    total = sum(r.probability for r in recs)
    assert abs(total - 1.0) < 1e-10
    assert all(r.probability > -1e-15 for r in recs)
    # repeatability: measuring the post state again pins the same outcome
    best = max(recs, key=lambda r: r.probability)
    again = outcome_distribution(m, best.post_state)
    repeat = {r.label: r.probability for r in again}[best.label]
    assert repeat > 1 - 1e-9


@SETTINGS
@given(seeds, st.integers(2, 3), st.integers(2, 3))
def test_partial_trace_yields_valid_density(seed, da, db):
    rng = np.random.default_rng(seed)
    space = tensor_space(space_of_dim(da, "a"), space_of_dim(db, "b"))
    rho = rand_density(rng, space)
    for keep in (0, 1):
        red = partial_trace(rho, keep)
        assert abs(np.trace(red.mat).real - 1.0) < 1e-10
        assert np.allclose(red.mat, red.mat.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(red.mat).min() > -1e-9


@SETTINGS
@given(seeds, dims)
def test_mixture_is_positive(seed, dim):
    rng = np.random.default_rng(seed)
    rho = rand_density(rng, space_of_dim(dim), parts=4)
    assert np.linalg.eigvalsh(rho.mat).min() > -1e-9
    assert abs(np.trace(rho.mat).real - 1.0) < 1e-12


@SETTINGS
@given(seeds, dims, st.floats(0.05, 0.95))
def test_orthogonal_in_span(seed, dim, weight):
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    u = rand_unitary(rng, dim)
    b0 = make_state(space, u[:, 0])
    b1 = make_state(space, u[:, 1])
    psi = make_state(space, np.sqrt(weight) * b0.amps + np.sqrt(1 - weight) * b1.amps)
    phi = orthogonal_in_span(psi, (b0, b1))
    assert abs(overlap(psi, phi)) < 1e-9
    assert np.allclose(phi.amps, canonical_state(phi).amps, atol=1e-12)


@SETTINGS
@given(seeds, dims)
def test_unitary_preserves_overlap(seed, dim):
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    u = unitary_operator(space, rand_unitary(rng, dim))
    a, b = rand_state(rng, space), rand_state(rng, space)
    before = abs(overlap(a, b))
    after = abs(overlap(apply_unitary(u, a), apply_unitary(u, b)))
    assert abs(before - after) < 1e-10


@SETTINGS
@given(state_vectors())
def test_pure_density_matches_projector(psi):
    assert np.allclose(
        pure_density(psi).mat, projector_from_state(psi).mat, atol=1e-15
    )
