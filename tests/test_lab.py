"""Laboratories, steering search and the no-go verdict."""

import contextlib
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catlab.lab

from catlab import (
    CatlabError,
    DimensionMismatch,
    HilbertSpace,
    Laboratory,
    NoGoVerdict,
    Operator,
    PreconditionFailed,
    SteeringPath,
    basis_state,
    check_conditions,
    find_steering_path,
    load_scenario,
    make_measurement,
    make_state,
    measurement_from_states,
    nogo_verdict,
    projector_from_state,
    pure_density,
    replay_path,
    state_key,
    states_match,
    superposition_projector,
    verdict_to_json,
)
from catlab.lab import DEFAULT_MAX_DEPTH, born_rows, invariant_subspace
from catlab.measure import COMPLEMENT_LABEL, PRUNE_TOL, ProjectiveMeasurement
from catlab.qstate import DensityMatrix, StateVector

from helpers import rand_density, rand_state, rand_unitary, space_of_dim

CAT = HilbertSpace(("alive", "dead"), name="cat")


def cat_lab():
    return load_scenario("cat")[0].lab


def candidate(a2: float):
    a = np.sqrt(a2)
    b = np.sqrt(1.0 - a2)
    return superposition_projector(CAT, a, b)


# ---------------------------------------------------------------------------
# construction and conditions


def test_lab_validation():
    basis = measurement_from_states(
        [basis_state(CAT, "alive"), basis_state(CAT, "dead")], ["alive", "dead"]
    )
    other = HilbertSpace(("x", "y"))
    with pytest.raises(DimensionMismatch):
        Laboratory(other, {"basis": basis})
    not_unitary = projector_from_state(basis_state(CAT, "alive"))
    with pytest.raises(CatlabError):
        Laboratory(CAT, {}, {"p": not_unitary})
    overlapping = (make_state(CAT, [1, 1]), basis_state(CAT, "alive"))
    with pytest.raises(CatlabError):
        Laboratory(CAT, {"basis": basis}, {}, (overlapping,))


def test_operations_and_states_on_another_space_are_rejected():
    other = space_of_dim(2)
    a, b = basis_state(other, "a"), basis_state(other, "b")
    flip = Operator(other, np.array([[0, 1], [1, 0]], dtype=complex), "unitary")
    with pytest.raises(DimensionMismatch, match="unitary 'u' on another space"):
        Laboratory(CAT, {}, {"u": flip})
    with pytest.raises(DimensionMismatch, match="forbidden pair on another space"):
        Laboratory(CAT, {}, {}, [(a, b)])
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    with pytest.raises(DimensionMismatch, match="candidate lives outside"):
        nogo_verdict(lab, projector_from_state(a), alive, dead)
    with pytest.raises(DimensionMismatch, match="states live outside"):
        find_steering_path(lab, a, alive)
    with pytest.raises(DimensionMismatch, match="states live outside"):
        find_steering_path(lab, dead, b)
    with pytest.raises(DimensionMismatch, match="states live outside"):
        check_conditions(lab, alive, b)


def test_with_measurement_collision():
    lab = cat_lab()
    m = measurement_from_states(
        [make_state(CAT, [1, 1]), make_state(CAT, [1, -1])], ["+", "-"]
    )
    extended = lab.with_measurement("pm", m)
    assert list(extended.measurements) == ["basis", "pm"]
    assert not hasattr(extended, "adjoined")
    with pytest.raises(CatlabError):
        extended.with_measurement("pm", m)


def test_measurement_and_unitary_may_not_share_a_name():
    # With one name for both, the search applied the unitary while a measure
    # step and a replay read the measurement; a lab's table caches rows per
    # name, so the clash would last as long as the lab.
    basis = cat_lab().measurements["basis"]
    flip = Operator(CAT, np.array([[0, 1], [1, 0]]), "unitary")
    with pytest.raises(CatlabError, match="operation name 'x' already in use"):
        Laboratory(CAT, {"x": basis}, {"x": flip})
    with pytest.raises(CatlabError, match="operation name 'x' already in use"):
        Laboratory(CAT, {"basis": basis}, {"x": flip}).with_measurement("x", basis)


def test_operations_order():
    lab = load_scenario("photon")[0].lab
    assert list(lab.measurements) == ["zbasis", "xbasis"]
    assert list(lab.unitaries) == ["rotate45", "rotate45_inv"]


def test_check_conditions():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    assert check_conditions(lab, alive, dead)
    # reversed direction is not declared forbidden
    assert not check_conditions(lab, dead, alive)
    # non-orthogonal pair fails condition (i)
    assert not check_conditions(lab, make_state(CAT, [1, 1]), dead)


# ---------------------------------------------------------------------------
# state keys


def test_state_key_phase_invariant():
    psi = make_state(CAT, [0.6, 0.8j])
    rotated = make_state(CAT, list(np.exp(2.1j) * psi.amps))
    assert state_key(psi) == state_key(rotated)
    assert state_key(psi) != state_key(basis_state(CAT, "alive"))


def test_state_key_separates_vectors_and_matrices():
    from catlab import pure_density

    psi = make_state(CAT, [1, 1])
    assert state_key(psi)[0] == "v"
    assert state_key(pure_density(psi))[0] == "m"


# ---------------------------------------------------------------------------
# no-go verdicts


def test_witness_probability_single_point():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    v = nogo_verdict(lab, candidate(0.36), alive, dead, name="P", outcome_label="S")
    assert v.violated
    assert len(v.witness.steps) == 2
    assert v.witness.steps[0] == ("P", "S")
    assert abs(v.witness.probability - 0.36 * 0.64) < 1e-10
    assert states_match(v.witness.final_state, alive)


def test_witness_replays_exactly():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    v = nogo_verdict(lab, candidate(0.5), alive, dead, name="P", outcome_label="S")
    extended = lab.with_measurement("P", make_measurement(CAT, [("S", candidate(0.5))]))
    prob, final = replay_path(extended, dead, v.witness)
    assert abs(prob - v.witness.probability) < 1e-12
    assert states_match(final, v.witness.final_state)
    unknown = SteeringPath((("Q", "S"),), 1.0, alive)
    with pytest.raises(CatlabError, match="operation 'Q' not in the laboratory"):
        replay_path(extended, dead, unknown)


def test_degenerate_candidates_conclusive():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    for a2 in (0.0, 1.0):
        v = nogo_verdict(lab, candidate(a2), alive, dead, max_depth=6)
        assert not v.violated
        assert v.witness is None
        assert not v.bound_reached  # conclusive, not cut off
        assert v.certificate == 1  # the closure stays on span{dead}


def test_depth_cut_reports_bound():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    v = nogo_verdict(lab, candidate(0.5), alive, dead, max_depth=1)
    assert not v.violated
    assert v.bound_reached
    assert v.certificate is None


def test_search_decides_when_the_closure_spans_everything():
    # with the candidate alone, V is the whole plane, yet only dead, the
    # candidate's state and its complement are reachable: the search, not
    # the closure, gives the conclusive "no"
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    lab = Laboratory(CAT, forbidden=((dead, alive),))
    v = nogo_verdict(lab, candidate(0.5), alive, dead)
    assert (v.violated, v.bound_reached, v.certificate) == (False, False, None)


def test_target_within_match_tolerance_of_the_closure_goes_to_the_search():
    # V = span{dead, x} and l is 1e-10 off it in squared residual, so x
    # matches l within MATCH_TOL: the search finds that witness, and the
    # closure must not certify l unreachable
    space = HilbertSpace(("alive", "dead", "x"))
    alive, dead, x = (basis_state(space, s) for s in space.labels)
    target = make_state(space, [1e-5, 0, 1])
    swap = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    lab = Laboratory(
        space, unitaries={"swap": Operator(space, swap, "unitary")},
        forbidden=((dead, target),),
    )
    v = nogo_verdict(lab, projector_from_state(x), target, dead)
    assert v.violated
    assert v.witness.steps == (("swap", ""),)
    assert v.certificate is None


@pytest.mark.parametrize("a2", [1e-13, 1e-17, 1e-20, 1e-26])
def test_faint_superpositions_are_not_certified(a2):
    # a witness of probability about a^2 exists: the alive direction of the
    # candidate is far above rounding, so the closure must not drop it
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    v = nogo_verdict(lab, candidate(a2), alive, dead)
    assert v.certificate is None


@pytest.mark.parametrize("seed", range(8))
def test_random_lab_closure_is_the_complement_of_alive(seed):
    # the benchmark's random-lab construction at d = 8: two coarse-grained
    # measurements with alive as an eigenvector (alone in one, inside a
    # block in the other), a unitary fixing alive, and rank-two candidates
    rng = np.random.default_rng(seed)
    d = 8
    space = space_of_dim(d)
    e = np.eye(d, dtype=np.complex128)
    alive, dead = make_state(space, e[0]), make_state(space, e[1])

    def perp_columns():
        q = np.zeros((d, d - 1), dtype=np.complex128)
        q[1:, :] = rand_unitary(rng, d - 1)
        return q

    def projector(cols):
        return Operator(space, cols @ cols.conj().T, "projector")

    def coarse(sizes, alive_alone):
        q = perp_columns()
        cuts = np.cumsum((0,) + sizes)
        cols = [q[:, a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        if alive_alone:
            cols.insert(0, e[:, :1])
        else:
            cols[0] = np.concatenate([e[:, :1], cols[0]], axis=1)
        return make_measurement(space, [(f"k{i}", projector(c)) for i, c in enumerate(cols)])

    twist = e.copy()
    twist[1:, 1:] = rand_unitary(rng, d - 1)
    lab = Laboratory(
        space,
        {"coarse_a": coarse((3, 4), True), "coarse_b": coarse((4, 3), False)},
        {"twist": Operator(space, twist, "unitary")},
        ((dead, alive),),
    )
    for _ in range(2):
        safe = nogo_verdict(lab, projector(perp_columns()[:, :2]), alive, dead, max_depth=4)
        assert (safe.violated, safe.bound_reached, safe.certificate) == (False, False, d - 1)
    mixed_in = make_state(space, e[0] + perp_columns()[:, 0])
    unsafe = nogo_verdict(lab, projector_from_state(mixed_in), alive, dead, max_depth=4)
    assert unsafe.violated
    assert unsafe.certificate is None


def test_every_outcome_enters_the_closure():
    # only m's second outcome leads out of span{dead}: (alive + dead)/sqrt2,
    # which the alive outcome of `pointer` then collapses onto alive
    space = HilbertSpace(("alive", "dead", "x"))
    alive, dead, x = (basis_state(space, s) for s in space.labels)
    lab = Laboratory(
        space,
        {
            "pointer": make_measurement(space, [("alive", projector_from_state(alive))]),
            "m": measurement_from_states([x, make_state(space, [1, 1, 0])], ["x", "mix"]),
        },
        forbidden=((dead, alive),),
    )
    v = nogo_verdict(lab, projector_from_state(x), alive, dead)
    assert v.violated
    assert v.certificate is None


def test_preconditions_enforced():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    with pytest.raises(PreconditionFailed):
        nogo_verdict(lab, candidate(0.5), dead, alive)  # direction not forbidden
    with pytest.raises(CatlabError):
        nogo_verdict(lab, Operator(CAT, np.eye(2), "unitary"), alive, dead)


def test_adjoined_name_collision_is_renamed():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    v = nogo_verdict(lab, candidate(0.5), alive, dead, name="basis")
    assert v.violated
    assert v.operator_name == "basis"  # verdict reports the given name
    # witness steps carry a disambiguated key, replayable on the extended lab
    assert v.witness.steps[0][0] == "basis'"
    extended = lab.with_measurement(
        "basis'", make_measurement(CAT, [("S", candidate(0.5))])
    )
    prob, final = replay_path(extended, dead, v.witness)
    assert abs(prob - v.witness.probability) < 1e-12


def test_candidate_labelled_like_the_complement():
    # the adjoined complement is primed instead of clashing with the ⊥ label
    sc = load_scenario("composite")[0]
    sch = sc.measurements["sch_plus"]
    dd, ua = sc.states["dd"], sc.states["ua"]
    v = nogo_verdict(
        sc.lab, sch.projector(COMPLEMENT_LABEL), ua, dd,
        name="sch_plus", outcome_label=COMPLEMENT_LABEL,
    )
    assert v.violated
    assert v.witness.steps == (("sch_plus", "⊥"), ("collective", "undecayed⊗alive"))
    assert abs(v.witness.probability - 0.25) < 1e-10
    adjoined = make_measurement(
        sc.space, [("⊥", sch.projector("⊥")), ("⊥'", sch.projector("Ψ+"))]
    )
    prob, final = replay_path(sc.lab.with_measurement("sch_plus", adjoined), dd, v.witness)
    assert abs(prob - v.witness.probability) < 1e-12
    assert states_match(final, ua)
    # relabelling the candidate changes only the label in the witness
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    plain = nogo_verdict(lab, candidate(0.3), alive, dead, name="P")
    primed = nogo_verdict(lab, candidate(0.3), alive, dead, name="P", outcome_label="⊥")
    assert primed.witness.probability == plain.witness.probability
    assert primed.witness.steps == tuple(
        ("P", "⊥") if step == ("P", "S") else step for step in plain.witness.steps
    )


def test_stone_bread_violations_both_directions():
    sc = load_scenario("stone-bread")[0]
    plus = sc.measurements["mixbasis"].projector("+")
    for frm, to in (("stone", "bread"), ("bread", "stone")):
        v = nogo_verdict(
            sc.lab, plus, sc.states[to], sc.states[frm], name="mix", outcome_label="+"
        )
        assert v.violated
        assert abs(v.witness.probability - 0.25) < 1e-10


def test_composite_witness():
    sc = load_scenario("composite")[0]
    v = nogo_verdict(
        sc.lab,
        sc.measurements["sch_plus"].projector("Ψ+"),
        sc.states["ua"],
        sc.states["dd"],
        name="sch_plus",
        outcome_label="Ψ+",
    )
    assert v.violated
    assert abs(v.witness.probability - 0.25) < 1e-10
    assert [s for s, _ in v.witness.steps] == ["sch_plus", "collective"]


def test_verdict_deterministic():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    a = nogo_verdict(lab, candidate(0.3), alive, dead, name="P")
    b = nogo_verdict(lab, candidate(0.3), alive, dead, name="P")
    assert verdict_to_json(a) == verdict_to_json(b)


# ---------------------------------------------------------------------------
# steering search


def test_find_steering_path_photon():
    # the deterministic rotation route to x_plus wins the frontier dedup over
    # the 0.5-probability xbasis route, then zbasis lands on |0>
    sc = load_scenario("photon")[0]
    path = find_steering_path(sc.lab, sc.states["z1"], sc.states["z0"])
    assert path is not None
    assert path.steps == (("rotate45_inv", ""), ("zbasis", "0"))
    assert abs(path.probability - 0.5) < 1e-12
    assert states_match(path.final_state, sc.states["z0"])


def test_find_steering_path_through_unitaries():
    sc = load_scenario("photon")[0]
    lab = Laboratory(sc.space, {}, sc.lab.unitaries)
    z0, x_plus = sc.states["z0"], sc.states["x_plus"]
    path = find_steering_path(lab, z0, x_plus)
    assert path is not None
    assert path.steps == (("rotate45", ""),)
    prob, final = replay_path(lab, z0, path)
    assert prob == path.probability == 1.0
    assert states_match(final, path.final_state)
    assert states_match(path.final_state, x_plus)


def test_negative_depth_rejected():
    lab = cat_lab()
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    with pytest.raises(CatlabError, match="depth"):
        find_steering_path(lab, dead, alive, max_depth=-3)
    with pytest.raises(CatlabError, match="depth"):
        nogo_verdict(lab, candidate(0.5), alive, dead, max_depth=-1)


def test_negative_depth_fails_before_the_measurement_is_built(monkeypatch):
    def not_called(*_):
        raise AssertionError("ProjectiveMeasurement ran before the depth was checked")

    monkeypatch.setattr(catlab.lab, "ProjectiveMeasurement", not_called)
    with pytest.raises(CatlabError, match="depth"):
        nogo_verdict(cat_lab(), candidate(0.5), basis_state(CAT, "alive"),
                     basis_state(CAT, "dead"), max_depth=-1)


def test_a_start_on_the_target_needs_no_step():
    lab = cat_lab()
    dead = basis_state(CAT, "dead")
    for depth in (0, DEFAULT_MAX_DEPTH):
        path = find_steering_path(lab, dead, make_state(CAT, [0, 1j]), max_depth=depth)
        assert path.steps == () and path.probability == 1.0
        assert path.final_state is dead is lab.states[lab.intern(dead)]


def test_find_steering_path_absent():
    lab = cat_lab()  # only the diagonal basis: dead stays dead
    path = find_steering_path(lab, basis_state(CAT, "dead"), basis_state(CAT, "alive"))
    assert path is None


def weak_lab(eps: float) -> Laboratory:
    """Every dead -> alive path has probability about eps**2, while each
    outcome on it has probability at least eps."""
    space = HilbertSpace(("alive", "dead", "mid"))
    s, c = np.sqrt(eps), np.sqrt(1.0 - eps)
    a = measurement_from_states(
        [make_state(space, [0, c, s]), make_state(space, [0, s, -c])], ["a1", "a2"]
    )
    b = measurement_from_states(
        [make_state(space, [s, 0, c]), make_state(space, [-c, 0, s])], ["b1", "b2"]
    )
    basis = measurement_from_states(
        [basis_state(space, label) for label in space.labels], list(space.labels)
    )
    return Laboratory(space, {"A": a, "B": b, "basis": basis})


@pytest.mark.parametrize(
    "eps, found", [(1e-5, True), (1e-6, True), (1e-7, True), (1e-13, False)]
)
def test_search_follows_every_kept_row(eps, found):
    # no floor on a path's probability: only a row below PRUNE_TOL is cut
    assert (eps >= PRUNE_TOL) == found
    lab = weak_lab(eps)
    dead, alive = basis_state(lab.space, "dead"), basis_state(lab.space, "alive")
    path = find_steering_path(lab, dead, alive)
    if not found:
        assert path is None
        return
    assert len(path.steps) == 3
    assert path.probability == pytest.approx(eps**2 * (1 - eps) ** 2, rel=1e-9)
    assert replay_path(lab, dead, path)[0] == pytest.approx(path.probability, rel=1e-12)


def test_verdict_json_shape():
    lab = cat_lab()
    v = nogo_verdict(
        lab,
        candidate(0.5),
        basis_state(CAT, "alive"),
        basis_state(CAT, "dead"),
        name="P",
        outcome_label="S",
    )
    doc = verdict_to_json(v)
    assert doc["violated"] is True
    assert doc["certificate"] is None
    assert doc["operator"] == "P"
    assert doc["witness"]["steps"] == [
        {"operation": "P", "outcome": "S"},
        {"operation": "basis", "outcome": "alive"},
    ]


def test_verdict_keyword_construction():
    v = NoGoVerdict(
        operator_name="P", violated=False, witness=None, bound_reached=False, certificate=1
    )
    assert verdict_to_json(v) == {
        "operator": "P",
        "violated": False,
        "bound_reached": False,
        "certificate": {"invariant_dim": 1},
        "witness": None,
    }


# ---------------------------------------------------------------------------
# the Born-row memo


def memo_lab(seed: int, dim: int):
    """A random-basis measurement ``m`` and a random unitary ``u`` on
    ``dim`` levels, with ``b -> a`` forbidden; returns (lab, a random
    rank-one candidate, a, b).  A verdict on it searches."""
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    basis = rand_unitary(rng, dim)
    m = measurement_from_states(
        [make_state(space, col) for col in basis.T], [f"o{i}" for i in range(dim)]
    )
    a, b = basis_state(space, "a"), basis_state(space, "b")
    lab = Laboratory(
        space, {"m": m}, {"u": Operator(space, rand_unitary(rng, dim), "unitary")}, ((b, a),)
    )
    return lab, projector_from_state(rand_state(rng, space)), a, b


def fresh_copy(op):
    """An equal operation in a new object."""
    if isinstance(op, ProjectiveMeasurement):
        return ProjectiveMeasurement(op.space, op.outcomes)
    return Operator(op.space, op.mat, op.kind)


@contextlib.contextmanager
def empty_memo():
    """Swap in an empty ``born_rows`` memo, and restore the old one after."""
    saved = catlab.lab._ROWS
    catlab.lab._ROWS = {}
    try:
        yield catlab.lab._ROWS
    finally:
        catlab.lab._ROWS = saved


def entries(x):
    return x.mat if isinstance(x, DensityMatrix) else x.amps


def base_operations(lab):
    return [*lab.measurements.values(), *lab.unitaries.values()]


def assert_rows_equal(rows, want):
    assert len(rows) == len(want)
    for (label, p, post, key), (w_label, w_p, w_post, w_key) in zip(rows, want):
        assert (label, p, key) == (w_label, w_p, w_key)
        assert (post is None) == (w_post is None)
        if post is not None:
            assert np.array_equal(entries(post), entries(w_post))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans())
def test_memo_hit_is_bitwise_a_fresh_computation(seed, dim, mixed):
    lab = memo_lab(seed, dim)[0]
    rng = np.random.default_rng(seed + 1)
    x = rand_density(rng, lab.space) if mixed else rand_state(rng, lab.space)
    # the same bits in another object, and other bits in x's grid cell:
    # the memo keys on bits, not on identity or on the state key
    same = type(x)(x.space, entries(x).copy())
    near = type(x)(x.space, entries(x) * (1 + 2.0**-40))
    for op in base_operations(lab):
        first = born_rows(op, x)
        assert born_rows(op, same) is first
        assert born_rows(fresh_copy(op), same) is first  # keyed on the value of op
        for y in (x, near):
            rows = born_rows(op, y)
            with empty_memo():
                assert_rows_equal(rows, born_rows(op, y))


def test_memo_keys_vectors_and_matrices_apart():
    lab = memo_lab(4, 2)[0]
    psi = rand_state(np.random.default_rng(4), lab.space)
    m = lab.measurements["m"]
    with empty_memo() as memo:
        vector_rows, matrix_rows = born_rows(m, psi), born_rows(m, pure_density(psi))
        assert len(memo) == 2
    assert isinstance(vector_rows[0][2], StateVector)
    assert isinstance(matrix_rows[0][2], DensityMatrix)


def test_memo_keys_labels_and_spaces_apart():
    lab = memo_lab(5, 3)[0]
    m, u = lab.measurements["m"], lab.unitaries["u"]
    psi = rand_state(np.random.default_rng(5), lab.space)
    # the same matrices under other outcome labels, or on an equal-sized space
    relabelled = ProjectiveMeasurement(m.space, [(label + "'", p) for label, p in m.outcomes])
    other = HilbertSpace(m.space.labels, name="other")
    moved = ProjectiveMeasurement(
        other, [(label, Operator(other, p.mat, "projector")) for label, p in m.outcomes]
    )
    moved_u = Operator(other, u.mat, "unitary")
    moved_psi = StateVector(other, psi.amps)
    assert fresh_copy(m).key == m.key and fresh_copy(u).key == u.key
    assert m.key not in (relabelled.key, moved.key) and u.key != moved_u.key
    assert m.key != u.key
    with empty_memo() as memo:
        rows = born_rows(m, psi)
        u_rows = born_rows(u, psi)
        assert born_rows(fresh_copy(m), psi) is rows and len(memo) == 2
        relabelled_rows = born_rows(relabelled, psi)
        assert [r[0] for r in relabelled_rows] == [r[0] + "'" for r in rows]
        for rows_there in (born_rows(moved, moved_psi), born_rows(moved_u, moved_psi)):
            assert all(post.space is other for _, _, post, _ in rows_there if post is not None)
        assert len(memo) == 5
    assert u_rows[0][2].space is lab.space


@pytest.mark.parametrize("max_depth", [6, DEFAULT_MAX_DEPTH])
def test_a_repeated_verdict_computes_no_row(monkeypatch, max_depth):
    lab, cand, a, b = memo_lab(7, 3)
    memo, calls, closures = {}, [], []
    monkeypatch.setattr(catlab.lab, "_ROWS", memo)
    real_distribution, real_unitary = catlab.lab.outcome_distribution, catlab.lab.apply_unitary
    monkeypatch.setattr(catlab.lab, "outcome_distribution",
                        lambda m, x: calls.append(m) or real_distribution(m, x))
    monkeypatch.setattr(catlab.lab, "apply_unitary",
                        lambda u, x: calls.append(u) or real_unitary(u, x))
    real_svd = catlab.lab.np.linalg.svd
    monkeypatch.setattr(catlab.lab.np.linalg, "svd",
                        lambda *args, **kw: closures.append(args) or real_svd(*args, **kw))
    first = nogo_verdict(lab, cand, a, b, name="c", max_depth=max_depth)
    assert first.certificate is None and closures  # the closure ran, then the search
    # at the default depth the search meets 837 (operation, state) pairs:
    # all of them fit in the memo beside the one certificate entry, so
    # nothing is cleared
    assert len(memo) == len(calls) + 1 < catlab.lab.MEMO_ROWS
    size = len(memo)
    calls.clear()
    closures.clear()
    # the same candidate, and an equal one rebuilt from its bits
    rebuilt = Operator(cand.space, cand.mat.copy(), "projector")
    for again in (cand, rebuilt):
        assert verdict_to_json(nogo_verdict(lab, again, a, b, name="c", max_depth=max_depth)) \
            == verdict_to_json(first)
    assert calls == [] and closures == [] and len(memo) == size


class CountingMemo(dict):
    """A memo that counts its clears and its largest size."""

    def __init__(self):
        super().__init__()
        self.clears = self.largest = 0

    def clear(self):
        self.clears += 1
        super().clear()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))


def test_a_sweep_of_distinct_candidates_stays_under_the_memo_cap(monkeypatch):
    monkeypatch.setattr(catlab.lab, "MEMO_ROWS", 4)
    memo = CountingMemo()
    monkeypatch.setattr(catlab.lab, "_ROWS", memo)
    sc = load_scenario("cat")[0]
    alive, dead = sc.states["alive"], sc.states["dead"]
    for i in range(1, 20):
        v = nogo_verdict(sc.lab, candidate(i / 20.0), alive, dead)
        assert v.violated and len(v.witness.steps) == 2
        fresh = load_scenario("cat")[0]
        with empty_memo():
            alone = nogo_verdict(fresh.lab, candidate(i / 20.0), fresh.states["alive"], fresh.states["dead"])
        assert verdict_to_json(v) == verdict_to_json(alone)
    # never above the cap, also within a verdict, and cleared along the way
    assert memo.largest <= 4
    assert memo.clears > 0


# ---------------------------------------------------------------------------
# the certificate in the same memo


def tilted_lab(seed: int, dim: int, tilt: float):
    """A lab measuring in the basis exp(i tilt H), for a random Hermitian H,
    and the start |a>.  At tilt 1e-8 the closure meets directions of about
    1e-8, between rounding and ``NEW_DIRECTION``, so it gives None; at tilt 1
    it gives a basis."""
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(z + z.conj().T)
    basis = (v * np.exp(1j * tilt * w)) @ v.conj().T
    m = measurement_from_states(
        [make_state(space, col) for col in basis.T], [f"o{i}" for i in range(dim)]
    )
    return Laboratory(space, {"m": m}), basis_state(space, "a")


def assert_same_closure(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def fresh_closure(lab, start):
    with empty_memo():
        return invariant_subspace(lab, start)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([1e-8, 1.0]))
def test_a_certificate_hit_is_bitwise_a_fresh_closure(seed, dim, tilt):
    lab, start = tilted_lab(seed, dim, tilt)
    # an equal lab and an equal start in new objects, and a start with
    # other bits in the same grid cell
    twin = Laboratory(lab.space, {"m": fresh_copy(lab.measurements["m"])})
    same = StateVector(start.space, start.amps.copy())
    near = StateVector(start.space, start.amps * (1 + 2.0**-40))
    with empty_memo() as memo:
        first = invariant_subspace(lab, start)
        assert (first is None) == (tilt < 1)
        assert len(memo) == 1  # a None is remembered too
        assert invariant_subspace(twin, same) is first  # keyed on values, not objects
        invariant_subspace(lab, near)
        near_hit = invariant_subspace(twin, near)
        assert len(memo) == 2
    assert_same_closure(first, fresh_closure(lab, start))
    assert_same_closure(near_hit, fresh_closure(lab, near))


def test_certificates_key_on_the_start_and_the_operation_order():
    lab, cand, a, b = memo_lab(7, 3)
    m = make_measurement(lab.space, [("S", cand)])
    extended = lab.with_measurement("c", m)
    reordered = Laboratory(lab.space, {"c": m, "m": lab.measurements["m"]}, lab.unitaries)
    renamed = Laboratory(lab.space, {"x": lab.measurements["m"], "y": m}, {"z": lab.unitaries["u"]})
    cases = [(extended, a), (extended, b), (reordered, a)]
    with empty_memo() as memo:
        got = [invariant_subspace(l, x) for l, x in cases]
        assert len(memo) == 3
        # V does not depend on the operations' names
        assert invariant_subspace(renamed, a) is got[0] and len(memo) == 3
    assert got[0].tobytes() != got[2].tobytes()  # the order changes the bits
    for basis, (l, x) in zip(got, cases):
        assert_same_closure(basis, fresh_closure(l, x))


def test_a_certificate_basis_is_read_only():
    lab, _, a, _ = memo_lab(7, 3)
    with empty_memo():
        basis = invariant_subspace(lab, a)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 0
        assert invariant_subspace(lab, a) is basis


def test_interning_builds_no_vector(monkeypatch):
    table, fresh = cat_lab(), cat_lab()
    alive = basis_state(CAT, "alive")
    rotated = make_state(CAT, [1j, 0])  # alive up to a global phase
    built = []
    real = StateVector.__init__
    monkeypatch.setattr(StateVector, "__init__",
                        lambda self, *args: built.append(args) or real(self, *args))
    sid = table.intern(alive)
    assert table.intern(rotated) == sid
    assert table.states[sid] is alive
    rid = fresh.intern(rotated)
    assert fresh.intern(alive) == rid
    assert fresh.states[rid] is rotated
    assert built == []
    assert rotated.amps.tobytes() == alive.amps.tobytes()


def test_candidate_rows_die_with_the_candidate(monkeypatch):
    lab, cand, a, b = memo_lab(7, 3)
    made = []
    real = catlab.lab.ProjectiveMeasurement
    monkeypatch.setattr(catlab.lab, "ProjectiveMeasurement",
                        lambda space, outcomes: made.append(real(space, outcomes)) or made[-1])
    nogo_verdict(lab, cand, a, b, name="c")
    [measurement] = made
    ref = weakref.ref(measurement)
    del made[:], measurement
    gc.collect()
    assert ref() is None
