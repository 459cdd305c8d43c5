"""Born statistics, collapse and auto-completion."""

import numpy as np
import pytest

from catlab import (
    CatlabError,
    DimensionMismatch,
    HilbertSpace,
    NotOrthogonal,
    Operator,
    ProjectiveMeasurement,
    basis_state,
    make_measurement,
    make_mixture,
    make_state,
    measurement_from_states,
    outcome_distribution,
    projector_from_state,
    states_match,
)
from catlab.measure import COMPLEMENT_LABEL
from helpers import rand_density, rand_state, rand_unitary, space_of_dim

CAT = HilbertSpace(("alive", "dead"), name="cat")


def cat_basis():
    return measurement_from_states(
        [basis_state(CAT, "alive"), basis_state(CAT, "dead")], ["alive", "dead"]
    )


def test_even_split_on_plus_state():
    m = cat_basis()
    plus = make_state(CAT, [1, 1])
    recs = outcome_distribution(m, plus)
    assert [r.label for r in recs] == ["alive", "dead"]
    for rec in recs:
        assert abs(rec.probability - 0.5) < 1e-12
    assert states_match(recs[0].post_state, basis_state(CAT, "alive"))
    assert states_match(recs[1].post_state, basis_state(CAT, "dead"))


def test_distribution_sums_to_one():
    rng = np.random.default_rng(0)
    space = space_of_dim(4)
    u = rand_unitary(rng, 4)
    m = measurement_from_states(
        [make_state(space, u[:, k]) for k in range(4)], list("wxyz")
    )
    for _ in range(20):
        psi = rand_state(rng, space)
        total = sum(r.probability for r in outcome_distribution(m, psi))
        assert abs(total - 1.0) < 1e-10


def test_auto_complement():
    space = space_of_dim(4)
    p0 = projector_from_state(basis_state(space, "a"))
    p1 = projector_from_state(basis_state(space, "b"))
    m = make_measurement(space, [("one", p0), ("two", p1)])
    assert m.labels == ("one", "two", COMPLEMENT_LABEL)
    comp = m.projector(COMPLEMENT_LABEL)
    # oracle: complement spectrum from numpy, rank = dim - covered
    vals = np.linalg.eigvalsh(comp.mat)
    assert np.allclose(np.sort(vals), [0, 0, 1, 1], atol=1e-12)
    total = sum(op.mat for _, op in m.outcomes)
    assert np.allclose(total, np.eye(4), atol=1e-12)


def test_complement_label_collision():
    space = space_of_dim(3)
    p = projector_from_state(basis_state(space, "a"))
    with pytest.raises(CatlabError):
        make_measurement(space, [(COMPLEMENT_LABEL, p)])


def test_non_orthogonal_states_rejected():
    skew = make_state(CAT, [3, 1])
    alive = basis_state(CAT, "alive")
    with pytest.raises(NotOrthogonal) as err:
        measurement_from_states([alive, skew], ["a", "s"])
    assert "overlap" in str(err.value)


def test_label_and_kind_validation():
    alive = basis_state(CAT, "alive")
    dead = basis_state(CAT, "dead")
    pa, pd = projector_from_state(alive), projector_from_state(dead)
    with pytest.raises(CatlabError):
        ProjectiveMeasurement(CAT, (("x", pa), ("x", pd)))
    with pytest.raises(CatlabError):
        ProjectiveMeasurement(CAT, (("", pa), ("y", pd)))
    flip = Operator(CAT, np.array([[0, 1], [1, 0]], dtype=complex), "unitary")
    with pytest.raises(CatlabError):
        ProjectiveMeasurement(CAT, (("x", flip), ("y", pd)))
    with pytest.raises(CatlabError):
        make_measurement(CAT, [("only", pa), ("other", pa)])  # not orthogonal


def test_measurement_construction_errors():
    pa = projector_from_state(basis_state(CAT, "alive"))
    elsewhere = projector_from_state(basis_state(space_of_dim(2), "a"))
    with pytest.raises(CatlabError, match="at least one outcome"):
        ProjectiveMeasurement(CAT, ())
    with pytest.raises(DimensionMismatch, match="outcome 'x' lives on another space"):
        ProjectiveMeasurement(CAT, (("x", elsewhere),))
    with pytest.raises(DimensionMismatch, match="outcome 'x' lives on another space"):
        make_measurement(CAT, [("x", elsewhere)])
    with pytest.raises(NotOrthogonal, match="projectors 'x' and 'y' overlap"):
        ProjectiveMeasurement(CAT, (("x", pa), ("y", pa)))


def test_measurement_from_states_argument_errors():
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    with pytest.raises(CatlabError, match="at least one state"):
        measurement_from_states([], [])
    with pytest.raises(DimensionMismatch, match="one label per state"):
        measurement_from_states([alive, dead], ["a"])
    with pytest.raises(DimensionMismatch, match="more states than the dimension"):
        measurement_from_states([alive, dead, make_state(CAT, [1, 1])], ["a", "d", "p"])
    with pytest.raises(DimensionMismatch, match="different spaces"):
        measurement_from_states([alive, basis_state(space_of_dim(2), "b")], ["a", "b"])


def test_incomplete_without_complement_rejected():
    pa = projector_from_state(basis_state(CAT, "alive"))
    with pytest.raises(CatlabError):
        ProjectiveMeasurement(CAT, (("a", pa),))


def test_projector_lookup():
    m = cat_basis()
    assert np.linalg.matrix_rank(m.projector("alive").mat) == 1
    with pytest.raises(CatlabError):
        m.projector("zombie")


def test_mixture_distribution_matches_ensemble_average():
    # Born on a mixture must equal the weighted average of pure-state Born
    rng = np.random.default_rng(12)
    space = space_of_dim(3)
    u = rand_unitary(rng, 3)
    m = measurement_from_states(
        [make_state(space, u[:, k]) for k in range(3)], list("pqr")
    )
    states = [rand_state(rng, space) for _ in range(3)]
    weights = [0.2, 0.3, 0.5]
    rho = make_mixture(list(zip(weights, states)))
    mixed = {r.label: r.probability for r in outcome_distribution(m, rho)}
    for label in "pqr":
        lifted = sum(
            w
            * next(
                r.probability
                for r in outcome_distribution(m, s)
                if r.label == label
            )
            for w, s in zip(weights, states)
        )
        assert abs(mixed[label] - lifted) < 1e-12


def test_lueders_update_on_mixture():
    rng = np.random.default_rng(13)
    rho = rand_density(rng, CAT)
    m = cat_basis()
    recs = outcome_distribution(m, rho)
    for rec in recs:
        if rec.post_state is None:
            continue
        p = m.projector(rec.label).mat
        expect = p @ rho.mat @ p / rec.probability
        assert np.allclose(rec.post_state.mat, expect, atol=1e-12)


def test_repeatability():
    # measuring twice in a row repeats the first outcome with certainty
    rng = np.random.default_rng(14)
    space = space_of_dim(4)
    u = rand_unitary(rng, 4)
    m = measurement_from_states(
        [make_state(space, u[:, k]) for k in range(4)], list("wxyz")
    )
    psi = rand_state(rng, space)
    for rec in outcome_distribution(m, psi):
        if rec.post_state is None:
            continue
        again = {r.label: r.probability for r in outcome_distribution(m, rec.post_state)}
        assert abs(again[rec.label] - 1.0) < 1e-10


def test_prune_drops_post_state():
    tiny = make_state(CAT, [1, 1e-9])
    m = cat_basis()
    recs = {r.label: r for r in outcome_distribution(m, tiny)}
    assert recs["dead"].probability < 1e-12
    assert recs["dead"].post_state is None
    assert recs["alive"].post_state is not None


def test_wrong_space_rejected():
    other = space_of_dim(2)
    with pytest.raises(DimensionMismatch):
        outcome_distribution(cat_basis(), basis_state(other, "a"))



