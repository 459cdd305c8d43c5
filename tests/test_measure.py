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
from catlab.measure import COMPLEMENT_LABEL, EPS
from helpers import rand_density, rand_state, rand_unitary, space_of_dim

CAT = HilbertSpace(("alive", "dead"), name="cat")


def cat_basis():
    return measurement_from_states(
        [basis_state(CAT, "alive"), basis_state(CAT, "dead")], ["alive", "dead"]
    )


def test_even_split_on_plus_state():
    m = cat_basis()
    plus = make_state(CAT, [1, 1])
    rows = outcome_distribution(m, plus)
    assert [label for label, _, _ in rows] == ["alive", "dead"]
    for _, p, _ in rows:
        assert abs(p - 0.5) < 1e-12
    assert states_match(rows[0][2], basis_state(CAT, "alive"))
    assert states_match(rows[1][2], basis_state(CAT, "dead"))


def test_distribution_sums_to_one():
    rng = np.random.default_rng(0)
    space = space_of_dim(4)
    u = rand_unitary(rng, 4)
    m = measurement_from_states(
        [make_state(space, u[:, k]) for k in range(4)], list("wxyz")
    )
    for _ in range(20):
        psi = rand_state(rng, space)
        total = sum(p for _, p, _ in outcome_distribution(m, psi))
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


@pytest.mark.parametrize("overlap", [2e-10, 5e-10, 9e-10])
def test_nearly_orthogonal_outcomes_name_the_pair(overlap):
    # below the state check's 1e-9, above the projector check's 1e-10: the
    # incomplete list is checked pairwise before its complement is built
    x, y = basis_state(CAT, "alive"), make_state(CAT, [overlap, 1])
    with pytest.raises(NotOrthogonal, match="projectors 'x' and 'y' overlap"):
        measurement_from_states([x, y], ["x", "y"])
    with pytest.raises(NotOrthogonal, match="projectors 'x' and 'y' overlap"):
        make_measurement(CAT, [("x", projector_from_state(x)), ("y", projector_from_state(y))])


@pytest.mark.parametrize("delta", [3e-10, 5e-10, 7.5e-10])
def test_overlaps_that_add_up_block_completion(delta):
    # three Hadamard rows with a skewed first entry: each pair's product
    # stays under 1e-10, but the complement sums six of them and is no
    # projector
    space = space_of_dim(4)
    rows = [[1 + delta, 1, 1, 1], [1 + delta, -1, 1, -1], [1 + delta, 1, -1, -1]]
    states = [make_state(space, r) for r in rows]
    projectors = [(l, projector_from_state(s)) for l, s in zip("xyz", states)]
    message = "outcomes are not orthogonal enough to complete with '⊥'"
    with pytest.raises(NotOrthogonal, match=message):
        measurement_from_states(states, list("xyz"))
    with pytest.raises(NotOrthogonal, match=message):
        make_measurement(space, projectors)


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
    mixed = {label: p for label, p, _ in outcome_distribution(m, rho)}
    for label in "pqr":
        lifted = sum(
            w
            * next(
                p
                for row_label, p, _ in outcome_distribution(m, s)
                if row_label == label
            )
            for w, s in zip(weights, states)
        )
        assert abs(mixed[label] - lifted) < 1e-12


def test_lueders_update_on_mixture():
    rng = np.random.default_rng(13)
    rho = rand_density(rng, CAT)
    m = cat_basis()
    for label, prob, post in outcome_distribution(m, rho):
        if post is None:
            continue
        p = m.projector(label).mat
        expect = p @ rho.mat @ p / prob
        assert np.allclose(post.mat, expect, atol=1e-12)


def test_repeatability():
    # measuring twice in a row repeats the first outcome with certainty
    rng = np.random.default_rng(14)
    space = space_of_dim(4)
    u = rand_unitary(rng, 4)
    m = measurement_from_states(
        [make_state(space, u[:, k]) for k in range(4)], list("wxyz")
    )
    psi = rand_state(rng, space)
    for label, _, post in outcome_distribution(m, psi):
        if post is None:
            continue
        again = {l: p for l, p, _ in outcome_distribution(m, post)}
        assert abs(again[label] - 1.0) < 1e-10


def test_prune_drops_post_state():
    # a vector row keeps its post state down to the rounding floor (d * EPS)^2,
    # a density row down to PRUNE_TOL
    m = cat_basis()
    assert 1e-32 < (2 * EPS) ** 2 < 1e-30
    for amp, kept in ((1e-9, True), (1e-15, True), (1e-16, False)):
        psi = make_state(CAT, [1, amp])
        rows = {label: (p, post) for label, p, post in outcome_distribution(m, psi)}
        assert rows["dead"][0] == pytest.approx(amp**2, rel=1e-12)
        assert (rows["dead"][1] is not None) == kept
        assert rows["alive"][1] is not None
    dead = basis_state(CAT, "dead")
    for w, kept in ((1e-11, True), (1e-13, False)):
        rho = make_mixture([(w, dead), (1 - w, basis_state(CAT, "alive"))])
        rows = {label: (p, post) for label, p, post in outcome_distribution(m, rho)}
        assert rows["dead"][0] == pytest.approx(w, rel=1e-3)
        assert (rows["dead"][1] is not None) == kept


def test_wrong_space_rejected():
    other = space_of_dim(2)
    with pytest.raises(DimensionMismatch):
        outcome_distribution(cat_basis(), basis_state(other, "a"))



