"""Randomized invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from catlab import (
    CatlabError,
    Laboratory,
    MeasureStep,
    ProtocolSpec,
    SteeringPath,
    StopIfStep,
    UnitaryStep,
    aggregate_leaves,
    apply_unitary,
    chi_square_test,
    enumerate_protocol,
    exact_distribution,
    leaf_mass,
    load_scenario,
    run_monte_carlo,
    make_state,
    make_measurement,
    make_mixture,
    nogo_verdict,
    outcome_distribution,
    overlap,
    partial_trace,
    projector_from_state,
    replay_path,
    states_match,
    superposition_projector,
    tensor_space,
    tree_to_json,
    Operator,
)
from catlab.lab import _search
from catlab.measure import EPS, PRUNE_TOL
from catlab.protocols import MAX_TRIALS
from catlab.qstate import GRID, MATCH_TOL, PSD_FLOOR, DensityMatrix, StateVector, canonical_amps

from helpers import (
    enumerate_two_pass,
    mc_every_step,
    rand_density,
    rand_state,
    rand_unitary,
    space_of_dim,
    tree_integers,
    uncached_leaf_mass,
)

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
    a = StateVector(psi.space, canonical_amps(psi.amps))
    b = StateVector(psi.space, canonical_amps(rotated.amps))
    assert a.key == b.key
    assert states_match(a, b)
    table = Laboratory(psi.space)
    assert table.states[table.intern(rotated)].key == rotated.key
    assert np.allclose(canonical_amps(a.amps), a.amps, atol=1e-12)
    lead = a.amps[np.argmax(np.abs(a.amps) > 1e-12)]
    assert abs(lead.imag) < 1e-12 and lead.real > 0


LEAD = 0.614125786201462  # numpy's complex LEAD / abs(LEAD) is 0.9999999999999999


@SETTINGS
@given(state_vectors(), st.sampled_from(["canonical", "rotated", "negative zero"]),
       st.floats(0, 2 * np.pi), st.lists(st.booleans(), min_size=6, max_size=6))
@example(make_state(space_of_dim(2), [LEAD, math.sqrt(1 - LEAD**2)]), "canonical", 0.0, [False] * 6)
def test_a_vector_holds_the_bits_of_canonical_amps(psi, form, theta, zeros):
    amps = canonical_amps(psi.amps)
    if form == "rotated":
        amps = amps * np.exp(1j * theta)
    elif form == "negative zero":
        # exact zeros with the sign bit set, as a collapse can leave them
        mask = np.array(zeros[: amps.size])
        mask[np.argmax(np.abs(amps))] = False
        amps = np.where(mask, 0, amps)
        amps = amps / np.linalg.norm(amps)
        parts = amps.view(np.float64)
        parts[parts == 0] = -0.0
    x = StateVector(psi.space, amps)
    assert x.amps.tobytes() == canonical_amps(amps).tobytes()
    assert canonical_amps(x.amps).tobytes() == x.amps.tobytes()
    assert StateVector(x.space, x.amps).amps.tobytes() == x.amps.tobytes()


def per_element_state_key(x):
    """A state's ``key`` as first written, one ``int()`` per grid entry."""
    if isinstance(x, StateVector):
        amps = canonical_amps(x.amps)
        flat = np.empty(2 * amps.size)
        flat[0::2] = amps.real
        flat[1::2] = amps.imag
        return ("v",) + tuple(int(v) for v in np.round(flat / GRID))
    flat = x.mat.reshape(-1)
    return ("m",) + tuple(int(v) for v in np.round(np.concatenate([flat.real, flat.imag]) / GRID))


near_zero = st.floats(-0.49 * GRID, 0.49 * GRID)


@SETTINGS
@given(seeds, dims, st.lists(st.tuples(near_zero, near_zero), min_size=1, max_size=5))
@example(0, 3, [(-1e-7, -4e-7), (-0.0, 2e-7)])
def test_state_keys_equal_the_per_element_formula(seed, dim, small):
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    # a real positive lead keeps the phase, so a small negative entry rounds to -0
    raw[0] = 1.0 + abs(raw[0])
    for i, (re, im) in enumerate(small[: dim - 1], start=1):
        raw[i] = complex(re, im)
    psi = make_state(space, raw)
    pure = make_mixture([(1.0, psi)])
    mixed = DensityMatrix(space, 0.5 * pure.mat + 0.5 * np.eye(dim) / dim)
    # entries exactly half a grid step off it (4.5 and 0.5 steps): the key rounds half to even
    ties = np.eye(dim, dtype=complex) / dim
    ties[0, 1], ties[1, 0] = 4.5e-6 + 5e-7j, 4.5e-6 - 5e-7j
    for x in (psi, pure, mixed, DensityMatrix(space, ties)):
        assert x.key == per_element_state_key(x)
        assert all(type(v) is int for v in x.key[1:])


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
    rows = outcome_distribution(m, psi)
    total = sum(p for _, p, _ in rows)
    assert abs(total - 1.0) < 1e-10
    assert all(p > -1e-15 for _, p, _ in rows)
    # repeatability: measuring the post state again pins the same outcome
    best, _, post = max(rows, key=lambda row: row[1])
    repeat = {label: p for label, p, _ in outcome_distribution(m, post)}[best]
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
@given(seeds, dims)
def test_unitary_preserves_overlap(seed, dim):
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    u = Operator(space, rand_unitary(rng, dim), "unitary")
    a, b = rand_state(rng, space), rand_state(rng, space)
    before = abs(overlap(a, b))
    after = abs(overlap(apply_unitary(u, a), apply_unitary(u, b)))
    assert abs(before - after) < 1e-10


# ---------------------------------------------------------------------------
# outcome tree against density-matrix propagation and Monte Carlo


def random_lab(rng, dim, n_groups):
    """A lab with one coarse-grained random-basis measurement ``m`` and one
    random unitary ``u``.  Outcome ``g0`` is the rank-one projector on the
    first basis column, returned as a target state."""
    space = space_of_dim(dim)
    basis = rand_unitary(rng, dim)
    groups = [[0]] + [[] for _ in range(n_groups - 1)]
    for col in range(1, dim):  # every later group gets a column, then at random
        groups[col if col < n_groups else int(rng.integers(1, n_groups))].append(col)
    outcomes = [
        (f"g{i}", Operator(space, basis[:, cols] @ basis[:, cols].conj().T, "projector"))
        for i, cols in enumerate(groups)
    ]
    lab = Laboratory(
        space,
        {"m": make_measurement(space, outcomes)},
        {"u": Operator(space, rand_unitary(rng, dim), "unitary")},
    )
    return lab, make_state(space, basis[:, 0])


def propagate(lab, steps, rho):
    """Distribution of the last outcome label at the end of every branch,
    by propagating one unnormalised density matrix per last label through
    every step; a ``stop_if`` sets its label's matrix aside (None: nothing
    measured yet)."""
    live = {None: rho}
    stopped = {}
    for step in steps:
        if isinstance(step, UnitaryStep):
            u = lab.unitaries[step.unitary].mat
            live = {last: u @ r @ u.conj().T for last, r in live.items()}
        elif isinstance(step, StopIfStep):
            if step.outcome in live:
                stopped[step.outcome] = stopped.get(step.outcome, 0) + live.pop(step.outcome)
        else:
            total = sum(live.values(), np.zeros_like(rho))
            live = {
                label: op.mat @ total @ op.mat
                for label, op in lab.measurements[step.measurement].outcomes
            }
    out = {}
    for part in (live, stopped):
        for last, r in part.items():
            out[last] = out.get(last, 0.0) + float(np.real(np.trace(r)))
    return out


def exact_walk(lab, start, steps):
    """Exact sums over the outcome tree, walked depth first in
    ``fractions.Fraction`` over ``lab.rows`` from the state id ``start``,
    reading the steps themselves and no catlab tree code: leaf masses by
    state id in first-leaf order, by last label, the pruned mass (the paths
    that end in a pruned row), the node and leaf counts, and the leaf state
    ids in depth-first order."""
    by_sid, by_label, pruned = {}, {}, Fraction(0)
    nodes, order = 0, []
    # (state id, exact path product, index of the step after the node, last label)
    stack = [(start, Fraction(1), 0, None)]
    while stack:
        sid, mass, i, last = stack.pop()
        nodes += 1
        while i < len(steps) and isinstance(steps[i], StopIfStep) and last != steps[i].outcome:
            i += 1
        children = []
        if i < len(steps) and not isinstance(steps[i], StopIfStep):
            step = steps[i]
            name = step.measurement if isinstance(step, MeasureStep) else step.unitary
            for label, p, nid in lab.rows(name, sid):
                if nid is None:
                    pruned += mass * Fraction(p)
                else:
                    children.append((nid, mass * Fraction(p), i + 1, label or last))
        if not children:
            order.append(sid)
            by_sid[sid] = by_sid.get(sid, 0) + mass
            by_label[last] = by_label.get(last, 0) + mass
        stack.extend(reversed(children))
    return by_sid, by_label, pruned, nodes, order


def json_nodes(doc):
    """The number of nodes in a ``tree_to_json`` document."""
    return 1 + sum(json_nodes(c) for c in doc["children"])


STEP_KINDS = {
    "m": MeasureStep("m"),
    "u": UnitaryStep("u"),
    "stop0": StopIfStep("g0"),
    "stop1": StopIfStep("g1"),
}


@settings(max_examples=40, deadline=None)
@given(
    seeds,
    st.integers(2, 4),
    st.data(),
    st.booleans(),
    st.lists(st.sampled_from(sorted(STEP_KINDS)), min_size=1, max_size=8),
)
def test_tree_agrees_with_propagation_and_sampling(seed, dim, data, mixed, kinds):
    rng = np.random.default_rng(seed)
    lab, target = random_lab(rng, dim, data.draw(st.integers(2, dim)))
    initial = rand_density(rng, lab.space) if mixed else rand_state(rng, lab.space)
    rho = initial.mat if mixed else make_mixture([(1.0, initial)]).mat
    protocol = ProtocolSpec(tuple(STEP_KINDS[k] for k in kinds))
    tree = enumerate_protocol(protocol, lab, initial)
    agg = aggregate_leaves(tree)

    # the propagation's answers are the correctly rounded exact path sums
    by_sid, by_label, pruned, nodes, order = exact_walk(lab, lab.intern(initial), protocol.steps)
    leaves = len(order)
    states = lab.states
    assert len(agg) == len(by_sid)
    for (st_, p), (sid, m) in zip(agg, by_sid.items()):
        assert st_ is states[sid] and p == float(m)
    assert tree.pruned_mass == float(pruned)
    matched = sum((m for sid, m in by_sid.items() if states_match(states[sid], target)), Fraction(0))
    assert leaf_mass(tree, target) == float(matched)
    assert (tree.n_nodes(), tree.n_leaves()) == (nodes, leaves) == (nodes, len(tree.leaves()))
    assert json_nodes(tree_to_json(tree)["root"]) == tree.n_nodes()
    assert [leaf.sid for leaf in tree.leaves()] == order

    for label, p in propagate(lab, protocol.steps, rho).items():
        assert abs(float(by_label.get(label, 0)) - p) <= 1e-12 + tree.pruned_mass
    assert abs(sum(p for _, p in agg) + tree.pruned_mass - 1.0) < 1e-12

    n = 2000
    mc = run_monte_carlo(protocol, lab, initial, n, seed)
    exact = {st_.key: p for st_, p in agg}
    counts = {st_.key: c for st_, c in mc.finals}
    assert set(counts) <= set(exact)
    for key, p in exact.items():
        count = counts.get(key, 0)
        # 6 sigma, plus one count so that outcomes with n*p << 1 may occur once
        assert abs(count - n * p) <= 6 * math.sqrt(n * p * (1 - p)) + 1


# ---------------------------------------------------------------------------
# Monte Carlo histograms drawn as counts


def codes_protocol(codes, n_groups):
    return ProtocolSpec(tuple(
        MeasureStep("m") if c == "m" else UnitaryStep("u") if c == "u"
        else StopIfStep(f"g{c % n_groups}")
        for c in codes
    ))


def mc_counts(protocol, lab, initial, n, seed):
    mc = run_monte_carlo(protocol, lab, initial, n, seed)
    return {state.key: c for state, c in mc.finals}


step_codes = st.one_of(st.just("m"), st.just("u"), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 4), st.integers(2, 4), st.booleans(),
       st.lists(step_codes, min_size=1, max_size=10))
@example(7, 3, 3, False, ["m", 0, "u", "m", 1, "m", "u", "m"])
def test_one_pass_step_matches_two_pass(seed, dim, groups, mixed, codes):
    # the step's denominator rises lazily; every integer must be the one a
    # step over the largest denominator of all its rows gives
    rng = np.random.default_rng(seed)
    n_groups = min(groups, dim)
    lab, _ = random_lab(rng, dim, n_groups)
    initial = rand_density(rng, lab.space) if mixed else rand_state(rng, lab.space)
    protocol = codes_protocol(codes, n_groups)
    tree = enumerate_protocol(protocol, lab, initial)
    assert tree_integers(tree) == enumerate_two_pass(protocol, lab, initial)


@settings(max_examples=30, deadline=None)
@given(
    seeds,
    st.integers(2, 4),
    st.integers(2, 4),
    st.booleans(),
    st.lists(step_codes, min_size=1, max_size=8),
    st.sampled_from([0, 1, 2, 4097, 10**6, 10**15, MAX_TRIALS]),
)
@example(7, 3, 3, False, ["m", 0, "m", "u", "m", 1, "m"], 4097)
@example(7, 4, 2, True, [1, "u", "m", "m", 0, "u", "m"], 0)
def test_monte_carlo_bins_sum_to_n(seed, dim, groups, mixed, codes, n):
    rng = np.random.default_rng(seed)
    n_groups = min(groups, dim)
    lab, _ = random_lab(rng, dim, n_groups)
    initial = rand_density(rng, lab.space) if mixed else rand_state(rng, lab.space)
    counts = mc_counts(codes_protocol(codes, n_groups), lab, initial, n, seed)
    assert sum(counts.values()) == n
    assert all(c > 0 for c in counts.values())


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 4), st.integers(2, 4), st.booleans(),
       st.lists(st.lists(step_codes, min_size=1, max_size=6), min_size=1, max_size=4))
def test_leaf_mass_is_the_uncached_sum(seed, dim, groups, mixed, programs):
    # the match table answers as a fresh test of every final would, in any
    # order of reads, for twins of a target, and with states interned by
    # later enumerations between the reads
    rng = np.random.default_rng(seed)
    n_groups = min(groups, dim)
    lab, target = random_lab(rng, dim, n_groups)
    initial = rand_density(rng, lab.space) if mixed else rand_state(rng, lab.space)
    trees, targets = [], [target, rand_state(rng, lab.space)]
    for codes in programs:
        tree = enumerate_protocol(codes_protocol(codes, n_groups), lab, initial)
        trees.append(tree)
        finals = [lab.states[sid] for sid, _ in tree._finals]
        targets += [StateVector(lab.space, x.amps) for x in finals if isinstance(x, StateVector)]
        for t in rng.permutation(len(trees)):
            for i in rng.permutation(len(targets)):
                got = leaf_mass(trees[t], targets[i])
                assert got == uncached_leaf_mass(trees[t], targets[i])


@settings(max_examples=40, deadline=None)
@given(
    seeds,
    st.integers(2, 4),
    st.integers(2, 4),
    st.booleans(),
    st.lists(step_codes, min_size=1, max_size=12),
    st.sampled_from([0, 1, 4097, MAX_TRIALS]),
)
@example(7, 3, 3, False, ["m", "m", 0, "u", "m", "m", 1, "m"], 4097)
@example(0, 2, 2, False, ["m", 1, 0], 4097)
def test_monte_carlo_draws_as_if_weights_were_derived_every_step(
    seed, dim, groups, mixed, codes, n
):
    # a run computes each (operation, state) pair's weights once; the draws
    # must be those of a loop that computes them for every cell and step
    rng = np.random.default_rng(seed)
    n_groups = min(groups, dim)
    lab, _ = random_lab(rng, dim, n_groups)
    initial = rand_density(rng, lab.space) if mixed else rand_state(rng, lab.space)
    protocol = codes_protocol(codes, n_groups)
    mc = run_monte_carlo(protocol, lab, initial, n, seed)
    assert [(state.key, c) for state, c in mc.finals] == mc_every_step(
        protocol, lab, initial, n, seed
    )


@SETTINGS
@given(seeds, dims, st.sampled_from([1, 4097, 10**15, MAX_TRIALS]))
def test_row_of_probability_one_takes_every_count(seed, dim, n):
    # g0 is the rank-one projector on the target: measuring the target
    # gives g0 with probability 1 and every other row is pruned
    lab, target = random_lab(np.random.default_rng(seed), dim, dim)
    protocol = ProtocolSpec((MeasureStep("m"),) * 3 + (StopIfStep("g0"),))
    assert mc_counts(protocol, lab, target, n, seed) == {target.key: n}


# (lab seed, Monte Carlo seed), fixed before any result was seen
CHI2_CASES = [(lab_seed, 1000 + lab_seed) for lab_seed in range(24)]
CHI2_ALPHA = 1e-3  # family-wise, split over the cases (Bonferroni)


@pytest.mark.parametrize("lab_seed, mc_seed", CHI2_CASES)
def test_monte_carlo_chi_square_against_exact(lab_seed, mc_seed):
    rng = np.random.default_rng(lab_seed)
    dim = int(rng.integers(2, 5))
    n_groups = int(rng.integers(2, dim + 1))
    lab, _ = random_lab(rng, dim, n_groups)
    initial = rand_density(rng, lab.space) if lab_seed % 2 else rand_state(rng, lab.space)
    codes = [["m", "u", 0, 1, 2, 3][i] for i in rng.integers(0, 6, size=int(rng.integers(2, 9)))]
    protocol = codes_protocol(codes, n_groups)
    n = 20_000
    tree = enumerate_protocol(protocol, lab, initial)
    exact = {st_.key: p for st_, p in aggregate_leaves(tree)}
    counts = mc_counts(protocol, lab, initial, n, mc_seed)
    assert set(counts) <= set(exact) and sum(counts.values()) == n
    _, _, p_value = chi_square_test(counts, exact, n)
    assert p_value > CHI2_ALPHA / len(CHI2_CASES)


def fill_table(lab, runs):
    """Run each (protocol, initial) exactly and by sampling on ``lab``."""
    for protocol, initial in runs:
        enumerate_protocol(protocol, lab, initial)
        run_monte_carlo(protocol, lab, initial, 1000, 0)


def test_monte_carlo_ignores_table_history_resurrection():
    fresh, filled = (load_scenario("resurrection")[0] for _ in range(2))
    fill_table(filled.lab, [
        (filled.protocols["resurrect10"], filled.initial(name))
        for name in ("rho_cat", "alive", "dead")
    ])

    def sample(sc):
        return mc_counts(sc.protocols["resurrect3"], sc.lab, sc.states["dead"], 20_000, 5)

    def basis_rows_on_minus(sc):
        table = sc.lab
        [_, (_, _, minus)] = table.rows("pm", table.intern(sc.states["dead"]))
        return [p for _, p, _ in table.rows("basis", minus)]

    assert sample(fresh) == sample(filled)
    # the two labs' representatives of the `-` key give the basis rows in
    # swapped last bits
    assert basis_rows_on_minus(fresh) == basis_rows_on_minus(filled)[::-1]
    assert basis_rows_on_minus(fresh) != basis_rows_on_minus(filled)


@pytest.mark.parametrize("lab_seed", range(12))
def test_monte_carlo_ignores_table_history(lab_seed):
    def build():
        rng = np.random.default_rng(lab_seed)
        lab, target = random_lab(rng, 2 + lab_seed % 3, 2)
        return lab, target, rand_state(rng, lab.space), rand_density(rng, lab.space)

    fresh, target, psi, rho = build()
    filled = build()[0]
    # meet the states that the protocol's second `m` splits in reverse, so
    # that on this table their ids run against their order of arrival
    for _, _, post in reversed(outcome_distribution(filled.measurements["m"], psi)):
        if post is not None:
            filled.intern(apply_unitary(filled.unitaries["u"], post))
    fill_table(filled, [
        (codes_protocol(["u", "m", "m", 1, "u", "m"], 2), target),
        (codes_protocol(["m", "u", "m", "u", "m"], 2), rho),
    ])
    protocol = codes_protocol(["m", "u", "m", 0, "m", "u", "m"], 2)
    n = 20_000
    assert mc_counts(protocol, fresh, psi, n, lab_seed) == \
        mc_counts(protocol, filled, psi, n, lab_seed)


def test_stop_if_before_any_measurement_never_fires():
    lab, psi = random_lab(np.random.default_rng(5), 3, 3)
    protocol = ProtocolSpec((StopIfStep("g0"), UnitaryStep("u"), StopIfStep("g1")))
    moved = apply_unitary(lab.unitaries["u"], psi).key
    assert mc_counts(protocol, lab, psi, 4097, 9) == {moved: 4097}


# ---------------------------------------------------------------------------
# the invariant-subspace certificate against the steering search


def alive_lab(rng, dim, n_groups, leak):
    """A lab on ``dim`` levels with ``alive`` = e0 and ``dead`` = e1 and
    ``dead -> alive`` forbidden, like the benchmark's random labs: a
    measurement ``m`` whose outcome ``g0`` is ``alive`` alone, the rest of
    a random basis of the complement grouped at random, a unitary ``u``
    and a rank-one candidate.  Returns (lab, candidate, alive, dead).  With
    ``leak`` None, ``u`` fixes ``alive`` and the candidate lies in its
    complement, so no chain of operations reaches ``alive``.  With ``leak``
    "candidate" or "unitary", that one mixes ``alive`` in, and ``g0``
    after it is a depth-2 witness."""
    space = space_of_dim(dim)
    alive, dead = (make_state(space, col) for col in np.eye(dim)[:2])

    def perp_unitary():
        out = np.eye(dim, dtype=np.complex128)
        out[1:, 1:] = rand_unitary(rng, dim - 1)
        return out

    basis = perp_unitary()
    groups = [[0]] + [[] for _ in range(n_groups - 1)]
    for col in range(1, dim):
        groups[int(rng.integers(1, n_groups))].append(col)
    outcomes = [
        (f"g{i}", Operator(space, basis[:, cols] @ basis[:, cols].conj().T, "projector"))
        for i, cols in enumerate(groups) if cols
    ]
    lab = Laboratory(
        space,
        {"m": make_measurement(space, outcomes)},
        {"u": Operator(
            space, rand_unitary(rng, dim) if leak == "unitary" else perp_unitary(), "unitary"
        )},
        ((dead, alive),),
    )
    w = perp_unitary()[:, 1]
    if leak == "candidate":
        a2 = rng.uniform(0.1, 0.9)
        w = math.sqrt(a2) * alive.amps + math.sqrt(1 - a2) * w
    return lab, projector_from_state(make_state(space, w)), alive, dead


def chains_reach(lab, start, target, depth):
    """Does some chain of at most ``depth`` operations of ``lab`` carry
    ``start`` onto ``target`` with every step's probability at least the
    rounding floor ``(d * EPS)^2``?  Every chain is followed at once as an
    unnormalised vector, whose squared norm is the chain's probability, so
    nothing is renormalised or merged."""
    ops = np.array(
        [op.mat for m in lab.measurements.values() for _, op in m.outcomes]
        + [u.mat for u in lab.unitaries.values()]
    )
    vs, prob = start.amps[None, :], np.ones(1)
    for _ in range(depth):
        vs = np.einsum("kij,nj->nki", ops, vs).reshape(-1, lab.space.dim)
        parent_prob, prob = np.repeat(prob, len(ops)), np.einsum("ni,ni->n", vs.conj(), vs).real
        kept = prob >= (lab.space.dim * EPS) ** 2 * parent_prob
        vs, prob = vs[kept], prob[kept]
        if (np.abs(vs @ target.amps.conj()) ** 2 > (1.0 - MATCH_TOL) * prob).any():
            return True
    return False


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(2, 4), st.integers(2, 4), st.sampled_from([None, "candidate", "unitary"]))
@example(881, 4, 3, None)  # deep collapses divided by sqrt(p) tripped the norm check here
def test_certificate_agrees_with_every_chain(seed, dim, groups, leak):
    rng = np.random.default_rng(seed)
    lab, cand, alive, dead = alive_lab(rng, dim, min(groups, dim), leak)
    v = nogo_verdict(lab, cand, alive, dead, max_depth=6, name="c", outcome_label="S")
    extended = lab.with_measurement("c", make_measurement(lab.space, [("S", cand)]))
    reached = chains_reach(extended, dead, alive, 6)
    path, _ = _search(extended, dead, alive, 6)
    assert (path is not None) == reached == v.violated
    if v.certificate is not None:
        assert not reached
        assert not v.violated and not v.bound_reached
        assert 1 <= v.certificate < dim
    # and the generated labs are all decided, one way or the other
    assert (v.certificate is not None) == (leak is None) != reached


# ---------------------------------------------------------------------------
# faint superpositions and the Born gap


@SETTINGS
@given(st.floats(-30, -6))
@example(-9.0)
@example(math.log10(3e-11))
@example(-12.0)
@example(-30.0)
def test_faint_cat_candidates_never_raise(log_a2):
    """A candidate a|alive> + b|dead> with a^2 far below 1/2 is a valid
    input: the verdict returns a witness, down to a^2 = 1e-30, with the
    closed-form probability a^2 b^2 (to within the match tolerance of its
    last state)."""
    sc = load_scenario("cat")[0]
    a2 = 10.0**log_a2
    cand = superposition_projector(sc.space, math.sqrt(a2), math.sqrt(1 - a2))
    v = nogo_verdict(sc.lab, cand, sc.states["alive"], sc.states["dead"])
    assert v.violated
    assert abs(v.witness.probability - a2 * (1 - a2)) <= 1e-6 * a2 * (1 - a2)


def unit_in(rng: np.random.Generator, cols: np.ndarray) -> np.ndarray:
    """A random unit vector in the span of the orthonormal columns ``cols``."""
    c = rng.normal(size=cols.shape[1]) + 1j * rng.normal(size=cols.shape[1])
    return (cols @ c) / np.linalg.norm(c)


def faint_amps(rng: np.random.Generator, q: np.ndarray, p: float) -> np.ndarray:
    """sqrt(p) q_0 + sqrt(1 - p) w, for a random unit w orthogonal to the
    first column q_0 of the unitary ``q``."""
    return math.sqrt(p) * q[:, 0] + math.sqrt(1 - p) * unit_in(rng, q[:, 1:])


def onto_first_column(space, q: np.ndarray):
    """The measurement {|q_0><q_0|, its complement}."""
    v = q[:, 0]
    return make_measurement(space, [("v", Operator(space, np.outer(v, v.conj()), "projector"))])


# a part drawn at PRUNE_TOL itself may round below it and lose its post state
faint_logs = st.floats(math.log10(1.01 * PRUNE_TOL), -6)


@SETTINGS
@given(seeds, st.integers(2, 5), faint_logs, faint_logs, st.floats(0.1, 0.9))
def test_a_faint_outcome_on_a_mixture_is_the_mix_of_its_parts(seed, dim, log_p1, log_p2, w):
    """A mixture of two states that each put a faint weight on one
    direction v, measured onto v.  The collapse P rho P / p is a valid
    density matrix although its rounding is amplified by 1/p, and it is the
    mix of the parts' vector post states, each weighted by its share of p."""
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    q = rand_unitary(rng, dim)
    m = onto_first_column(space, q)
    parts = [make_state(space, faint_amps(rng, q, 10.0**lp)) for lp in (log_p1, log_p2)]
    _, p_mix, post = outcome_distribution(m, make_mixture([(w, parts[0]), (1 - w, parts[1])]))[0]
    part_rows = [outcome_distribution(m, x)[0] for x in parts]
    p = w * part_rows[0][1] + (1 - w) * part_rows[1][1]
    assert abs(p_mix - p) <= dim * EPS
    if post is not None:  # else rounding put tr(P rho) below PRUNE_TOL
        mix = sum(wt * pp * np.outer(x.amps, x.amps.conj())
                  for wt, (_, pp, x) in zip((w, 1 - w), part_rows)) / p
        assert float(np.max(np.abs(post.mat - mix))) <= dim * EPS / p


dims_and_ranks = st.integers(2, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1)))


@SETTINGS
@given(seeds, dims_and_ranks, st.floats(-12, -6), st.floats(-12, -6), st.floats(0.1, 0.9))
@example(0, (5, 3), -8.0, -8.0, 0.5)  # raised "negative eigenvalue" before the clip
def test_a_faint_outcome_of_any_rank_on_a_mixture_is_a_state(seed, dim_rank, log_p1, log_p2, w):
    """A mixture of two states that each put a faint weight on a random
    direction of a rank-r subspace, measured onto that subspace.  The
    collapse has rank at most 2, and the rounding in its other eigenvalues
    is amplified by 1/p; it is still a valid density matrix."""
    dim, rank = dim_rank
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    q = rand_unitary(rng, dim)
    inside, outside = q[:, :rank], q[:, rank:]
    m = make_measurement(space, [("v", Operator(space, inside @ inside.conj().T, "projector"))])
    parts = [
        make_state(space, math.sqrt(p) * unit_in(rng, inside)
                   + math.sqrt(1 - p) * unit_in(rng, outside))
        for p in (10.0**log_p1, 10.0**log_p2)
    ]
    post = outcome_distribution(m, make_mixture([(w, parts[0]), (1 - w, parts[1])]))[0][2]
    if post is not None:  # else tr(P rho) rounded below PRUNE_TOL
        assert abs(np.trace(post.mat) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(post.mat)[0] >= PSD_FLOOR


@SETTINGS
@given(seeds, st.integers(2, 5), st.floats(-12, -6))
def test_a_faint_born_probability_ignores_the_global_phase(seed, dim, log_p):
    """p = ||P psi||^2 below 1e-3: the same state written at six global
    phases gets the same faint probability to 1e-9 relative.  The inner
    product <psi|P psi> moved by up to 4.6e-5 relative on 2000 such states."""
    rng = np.random.default_rng(seed)
    space = space_of_dim(dim)
    q = rand_unitary(rng, dim)
    m = onto_first_column(space, q)
    p = 10.0**log_p
    amps = faint_amps(rng, q, p)
    probs = [outcome_distribution(m, make_state(space, amps * np.exp(2j * np.pi * k / 6)))[0][1]
             for k in range(6)]
    assert max(probs) - min(probs) <= 1e-9 * p


@SETTINGS
@given(seeds, st.sampled_from(["cat", "composite", "alive_lab"]),
       st.floats(-12, math.log10(0.5)), st.floats(0, 1))
@example(0, "cat", math.log10(0.5), 0.0)  # plusminus: gap 1/2 and p = 1/4, the bound is tight
def test_a_born_gap_forces_a_forbidden_transition(seed, where, log_a2, turn):
    """The paper's corollary in numbers.  For psi = a|l> + b|d>, its
    dephased mixture rho, and any outcome projector P, the Born gap
    gap = |<psi|P|psi> - tr(P rho)| = 2 |Re(a* b <l|P|d>)| bounds the
    forbidden path d -> P -> (rank-one outcome onto l) from below: its
    probability p = |<l|P|d>|^2 is at least gap^2 / (4 |a|^2 |b|^2).  The
    gap comes from ``exact_distribution``, p from ``replay_path``, and a
    gap above 1e-6 makes P a violating no-go candidate."""
    rng = np.random.default_rng(seed)
    if where == "alive_lab":
        lab, _, alive, dead = alive_lab(rng, int(rng.integers(2, 5)), 2, None)
        onto_alive, declared = ("m", "g0"), []
    else:
        sc = load_scenario(where)[0]
        lab = sc.lab
        l, d, onto_alive, candidate = {
            "cat": ("alive", "dead", ("basis", "alive"), "plusminus"),
            "composite": ("ua", "dd", ("collective", "undecayed⊗alive"), "sch_plus"),
        }[where]
        alive, dead, declared = sc.states[l], sc.states[d], [sc.measurements[candidate]]
    a2 = 10.0**log_a2
    psi = make_state(lab.space, math.sqrt(a2) * np.exp(2j * np.pi * turn) * alive.amps
                     + math.sqrt(1 - a2) * dead.amps)
    wa = abs(overlap(alive, psi)) ** 2
    rho = make_mixture([(wa, alive), (1 - wa, dead)])
    # a random measurement: some columns of a random unitary, grouped into
    # up to three outcomes, completed by make_measurement
    dim = lab.space.dim
    basis = rand_unitary(rng, dim)
    groups: dict[int, list[int]] = {}
    for col in range(int(rng.integers(1, dim + 1))):
        groups.setdefault(int(rng.integers(0, 3)), []).append(col)
    random_m = make_measurement(lab.space, [
        (f"o{g}", Operator(lab.space, basis[:, cols] @ basis[:, cols].conj().T, "projector"))
        for g, cols in groups.items()
    ])
    for m in [random_m, *declared]:
        pure, mixed = exact_distribution(m, psi), exact_distribution(m, rho)
        extended = lab.with_measurement("probe", m)
        for label, proj in m.outcomes:
            gap = abs(pure[label] - mixed[label])
            path = SteeringPath((("probe", label), onto_alive), 0.0, alive)
            try:
                p, final = replay_path(extended, dead, path)
                assert states_match(final, alive)
            except CatlabError:  # a vector row below its cut: so is the whole path
                p = (dim * EPS) ** 2
            # gap <= 2 |a| |b| sqrt(p), with slack for the rounding in gap
            assert gap <= 2 * math.sqrt(wa * (1 - wa) * p) + 1e-14
            if gap > 1e-6:
                assert nogo_verdict(lab, proj, alive, dead, name="probe").violated
