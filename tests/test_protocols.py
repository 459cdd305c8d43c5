"""Protocol enumeration, Monte Carlo sampling and discrimination."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import catlab.lab
import catlab.protocols
import catlab.qstate
import catlab.rng
from catlab import (
    CatlabError,
    DepthCeiling,
    DimensionMismatch,
    DisallowedOperation,
    DiscriminationReport,
    HilbertSpace,
    Laboratory,
    MeasureStep,
    Operator,
    ProtocolSpec,
    RepeatStep,
    SCENARIO_NAMES,
    StateVector,
    StopIfStep,
    UnitaryStep,
    aggregate_leaves,
    apply_unitary,
    basis_state,
    chi_square_test,
    discriminate,
    enumerate_protocol,
    exact_distribution,
    leaf_mass,
    load_scenario,
    make_measurement,
    make_state,
    projector_from_state,
    run_monte_carlo,
    total_variation,
    tree_to_json,
)
from catlab.cli import discrimination_csv_rows, discrimination_to_json
from catlab.lab import DEFAULT_MAX_DEPTH, _search, _weights
from catlab.protocols import MAX_TRIALS, MAX_UNROLLED_STEPS, _chi2_sf, _resolved
from catlab.rng import draw_weights

from helpers import enumerate_two_pass, mc_every_step, tree_integers, uncached_leaf_mass


def resurrection():
    return load_scenario("resurrection")[0]


def sweep():
    """The resurrection sweep: rounds of pm, basis, stop_if alive, K = 1..12."""
    body = (MeasureStep("pm"), MeasureStep("basis"), StopIfStep("alive"))
    return [ProtocolSpec((RepeatStep(body, k),)) for k in range(1, 13)]


# ---------------------------------------------------------------------------
# protocol specs


def test_unroll_flattens_repeats():
    body = (MeasureStep("pm"), StopIfStep("alive"))
    spec = ProtocolSpec((RepeatStep(body, 3), MeasureStep("basis")))
    flat = spec.unrolled()
    assert len(flat) == 7
    assert flat[0] == MeasureStep("pm")
    assert flat[-1] == MeasureStep("basis")


def test_unroll_ceiling():
    spec = ProtocolSpec((RepeatStep((MeasureStep("pm"),), 65),))
    with pytest.raises(DepthCeiling):
        spec.unrolled()


def test_unroll_empty_repeat_is_immediate():
    nested = RepeatStep((RepeatStep((), 10**9),), 10**9)
    spec = ProtocolSpec((nested, MeasureStep("m")))
    assert spec.unrolled() == (MeasureStep("m"),)


def test_unroll_ceiling_counts_copies():
    spec = ProtocolSpec((RepeatStep((MeasureStep("pm"), StopIfStep("a")), 10**9),))
    with pytest.raises(DepthCeiling, match="protocol unrolls past 64 steps"):
        spec.unrolled()
    flat = ProtocolSpec((RepeatStep((MeasureStep("pm"), StopIfStep("a")), 32),)).unrolled()
    assert len(flat) == 64


def test_steps_compare_by_type_and_fields():
    body = (MeasureStep("a"), StopIfStep("x"))
    steps = [MeasureStep("a"), UnitaryStep("a"), StopIfStep("a"), RepeatStep(body, 2)]
    twins = [MeasureStep("a"), UnitaryStep("a"), StopIfStep("a"), RepeatStep(list(body), 2)]
    for step, twin in zip(steps, twins):
        assert step is not twin
        assert step == twin and hash(step) == hash(twin)
    assert MeasureStep("a") != UnitaryStep("a")
    assert MeasureStep("a") != StopIfStep("a")
    assert MeasureStep("a") != MeasureStep("b")
    assert RepeatStep(body, 2) != RepeatStep(body, 3)
    assert RepeatStep(body, 2) != RepeatStep(body[:1], 2)
    assert len(set(steps + twins)) == 4
    assert ProtocolSpec(steps) == ProtocolSpec(twins)
    assert hash(ProtocolSpec(steps)) == hash(ProtocolSpec(twins))
    assert ProtocolSpec(steps) != ProtocolSpec(steps[:3])


def test_unroll_rejects_an_unknown_step():
    spec = ProtocolSpec((RepeatStep((MeasureStep("pm"), "basis"), 2),))
    with pytest.raises(CatlabError, match="unknown protocol step 'basis'"):
        spec.unrolled()


def test_repeat_zero_is_empty():
    spec = ProtocolSpec((RepeatStep((MeasureStep("pm"),), 0),))
    assert spec.unrolled() == ()
    with pytest.raises(CatlabError):
        RepeatStep((MeasureStep("pm"),), -1)


def test_empty_protocol_single_leaf():
    sc = resurrection()
    tree = enumerate_protocol(ProtocolSpec(()), sc.lab, sc.states["dead"])
    leaves = tree.leaves()
    assert len(leaves) == 1
    assert leaves[0].cumulative == 1.0
    assert tree.pruned_mass == 0.0


def test_disallowed_operation():
    cat = load_scenario("cat")[0]
    spec = ProtocolSpec((MeasureStep("plusminus"),))  # declared but not allowed
    with pytest.raises(DisallowedOperation):
        enumerate_protocol(spec, cat.lab, cat.states["dead"])
    spec2 = ProtocolSpec((UnitaryStep("warp"),))
    with pytest.raises(DisallowedOperation):
        enumerate_protocol(spec2, cat.lab, cat.states["dead"])


def test_program_folds_each_stop_if_into_the_operation_before_it():
    space = HilbertSpace(("a", "b"))
    lab = Laboratory(
        space,
        {"m": make_measurement(space, [
            ("g0", projector_from_state(basis_state(space, "a"))),
            ("g1", projector_from_state(basis_state(space, "b"))),
        ])},
        {"u": Operator(space, np.array([[0, 1], [1, 0]]), "unitary")},
    )
    steps = (StopIfStep("g0"), MeasureStep("m"), StopIfStep("g1"), StopIfStep("g0"),
             UnitaryStep("u"), MeasureStep("m"))
    # the leading stop_if can match nothing: no outcome has been seen yet
    assert _resolved(ProtocolSpec(steps), lab) == (("m", ("g1", "g0")), ("u", ()), ("m", ()))
    # the first disallowed operation in step order names itself
    with pytest.raises(DisallowedOperation, match="^unitary 'v' is not allowed in this laboratory$"):
        _resolved(ProtocolSpec(steps + (UnitaryStep("v"), MeasureStep("n"))), lab)
    with pytest.raises(
        DisallowedOperation, match="^measurement 'n' is not allowed in this laboratory$"
    ):
        _resolved(ProtocolSpec(steps + (MeasureStep("n"), UnitaryStep("v"))), lab)


def test_initial_state_on_another_space():
    sc = resurrection()
    spec = sc.protocols["resurrect1"]
    elsewhere = basis_state(HilbertSpace(("x", "y")), "x")
    with pytest.raises(DimensionMismatch, match="initial state lives outside"):
        enumerate_protocol(spec, sc.lab, elsewhere)
    with pytest.raises(DimensionMismatch, match="initial state lives outside"):
        run_monte_carlo(spec, sc.lab, elsewhere, 10, 1)


# ---------------------------------------------------------------------------
# enumeration


def test_one_round_tree_by_hand():
    # pm on |dead>: S and complement each 1/2; then basis splits each 1/2.
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect1"], sc.lab, sc.states["dead"])
    leaves = tree.leaves()
    assert len(leaves) == 4
    for leaf in leaves:
        assert abs(leaf.cumulative - 0.25) < 1e-12
    stopped = [l for l in leaves if l.stopped]
    assert len(stopped) == 2
    for leaf in stopped:
        assert leaf.label == "alive"
    alive = basis_state(sc.space, "alive")
    assert abs(leaf_mass(tree, alive) - 0.5) < 1e-12


def test_failure_branches_return_to_start():
    sc = resurrection()
    dead = sc.states["dead"]
    tree = enumerate_protocol(sc.protocols["resurrect3"], sc.lab, dead)
    for leaf in tree.leaves():
        if not leaf.stopped:
            state = sc.lab.states[leaf.sid]
            assert abs(abs(np.vdot(state.amps, dead.amps)) - 1.0) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_amplification_matches_closed_form(k):
    sc = resurrection()
    spec = ProtocolSpec(
        (
            RepeatStep(
                (MeasureStep("pm"), MeasureStep("basis"), StopIfStep("alive")), k
            ),
        )
    )
    tree = enumerate_protocol(spec, sc.lab, sc.states["dead"])
    mass = leaf_mass(tree, sc.states["alive"])
    assert abs(mass - (1 - 0.5**k)) < 1e-12


def test_total_reach_probability_agrees():
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect10"], sc.lab, sc.states["dead"])
    p = leaf_mass(tree, sc.states["alive"])
    assert abs(p - (1 - 2.0**-10)) < 1e-10


def test_leaf_mass_and_aggregate_consistent():
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect3"], sc.lab, sc.states["dead"])
    agg = aggregate_leaves(tree)
    total = sum(p for _, p in agg)
    assert abs(total + tree.pruned_mass - 1.0) < 1e-8
    assert len(agg) == 2  # alive and dead only, merged across branches


def test_pruned_mass_accounts_for_tiny_branches():
    from catlab import make_mixture, make_state

    sc = resurrection()
    dead, alive = sc.states["dead"], sc.states["alive"]
    # a vector row of ~1e-32 is below the rounding floor (2 * EPS)^2; a
    # density row of ~1e-14 is below PRUNE_TOL
    for nearly_dead, tiny in (
        (make_state(sc.space, [1e-16, 1]), 1e-32),
        (make_mixture([(1e-14, alive), (1 - 1e-14, dead)]), 1e-14),
    ):
        tree = enumerate_protocol(
            ProtocolSpec((MeasureStep("basis"),)), sc.lab, nearly_dead
        )
        assert tree.pruned_mass == pytest.approx(tiny, rel=1e-3)
        assert abs(sum(l.cumulative for l in tree.leaves()) + tree.pruned_mass - 1) < 1e-12


def test_node_with_every_row_pruned_is_a_leaf(monkeypatch):
    # A complete measurement always keeps a row, so prune every "basis" row
    # in the lab's table: each pm child then ends as a leaf, as in the tree.
    sc = resurrection()
    table = sc.lab
    rows = table.rows
    monkeypatch.setattr(table, "rows", lambda name, sid: tuple(
        (label, p, None if name == "basis" else nid) for label, p, nid in rows(name, sid)
    ))
    tree = enumerate_protocol(sc.protocols["resurrect1"], sc.lab, sc.states["dead"])
    leaves = tree.leaves()
    assert (tree.n_nodes(), tree.n_leaves(), len(leaves)) == (3, 2, 2)
    agg = aggregate_leaves(tree)
    assert len(agg) == 2
    for (st, p), leaf in zip(agg, leaves):
        assert st is sc.lab.states[leaf.sid] and p == leaf.cumulative
    assert abs(tree.pruned_mass - 1.0) < 1e-15
    # sampling has nowhere to put such a cell's trials; the lab stores the
    # empty view, and every run that reaches it says so
    for seed in range(1, 5):
        with pytest.raises(CatlabError, match="ran out of probability mass mid-trial"):
            run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 10, seed)


def test_tree_json_shape():
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect1"], sc.lab, sc.states["dead"])
    doc = tree_to_json(tree)
    assert doc["root"]["cumulative"] == 1.0
    assert {c["operation"] for c in doc["root"]["children"]} == {"pm"}


def test_tree_json_formats_each_state_once(monkeypatch):
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect10"], sc.lab, sc.states["dead"])
    plain = tree_to_json(tree)
    shown = []

    def counted(state):
        shown.append(state)
        return catlab.qstate.format_state(state)

    monkeypatch.setattr(catlab.protocols, "format_state", counted)
    assert tree_to_json(tree) == plain
    # 6139 nodes over 4 states: dead, alive and the two pm outcomes
    assert tree.n_nodes() == 6139
    assert len(shown) == len({id(s) for s in shown}) == 4


def test_unitary_steps_in_tree():
    ph = load_scenario("photon")[0]
    tree = enumerate_protocol(ph.protocols["through_rotated"], ph.lab, ph.states["x_plus"])
    agg = aggregate_leaves(tree)
    assert len(agg) == 1
    state, mass = agg[0]
    assert abs(mass - 1.0) < 1e-12
    assert abs(abs(np.vdot(state.amps, ph.states["z0"].amps)) - 1) < 1e-10


# ---------------------------------------------------------------------------
# the one-pass step against the two-pass reference


def assert_steps_agree(protocol, lab, initial):
    tree = enumerate_protocol(protocol, lab, initial)
    assert tree_integers(tree) == enumerate_two_pass(protocol, lab, initial)
    return tree


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_one_pass_step_matches_two_pass_on_shipped_runs(name):
    sc = load_scenario(name)[0]
    for protocol in sc.protocols.values():
        for initial in [*sc.states, *sc.mixtures]:
            assert_steps_agree(protocol, sc.lab, sc.initial(initial))


@pytest.mark.parametrize("initial", ["dead", "rho_cat"])
def test_one_pass_step_matches_two_pass_on_the_sweep(initial):
    sc = resurrection()
    for protocol in sweep():
        assert_steps_agree(protocol, sc.lab, sc.initial(initial))


def test_a_larger_denominator_later_in_a_step_rescales_what_it_wrote():
    # After "split", the cells are a then b.  Under "m", a prunes a row of
    # about 1e-40 and b one of about 1e-60, whose denominator is larger, so
    # the step's denominator rises at b: a's kept cell and the pruned mass,
    # written over a's denominator, must be scaled up to it.
    space = HilbertSpace(("a", "b", "c"))
    v = np.array([1e-20, 1e-30, 1.0])
    lab = Laboratory(space, {
        "split": make_measurement(space, [
            (label, projector_from_state(basis_state(space, label))) for label in "abc"
        ]),
        "m": make_measurement(space, [("v", Operator(space, np.outer(v, v), "projector"))]),
    })
    start = make_state(space, [1, 1, 0])
    protocol = ProtocolSpec((MeasureStep("split"), MeasureStep("m")))
    tree = assert_steps_agree(protocol, lab, start)
    a, b = (lab.intern(basis_state(space, label)) for label in "ab")
    (k_a, kept_a, cut_a, _), (k_b, _, _, _) = lab.step("m", a), lab.step("m", b)
    assert 0 < k_a < k_b
    assert len(kept_a) == 1 and cut_a > 0 and tree._pruned > 0
    assert tree.pruned_mass == pytest.approx(0.5e-40, rel=1e-6)


def flip_lab():
    """A 2-level lab with the basis measurement and the unitary that swaps
    alive and dead."""
    space = HilbertSpace(("alive", "dead"))
    basis = make_measurement(space, [
        (label, projector_from_state(basis_state(space, label))) for label in space.labels
    ])
    flip = Operator(space, np.array([[0, 1], [1, 0]]), "unitary")
    return Laboratory(space, {"basis": basis}, {"flip": flip}), make_state(space, [1, 1])


def test_a_stop_matches_a_label_kept_through_a_unitary_row():
    # dead then flip keeps the label "dead"; stop_if dead halts that branch
    lab, start = flip_lab()
    protocol = ProtocolSpec((
        MeasureStep("basis"), UnitaryStep("flip"), StopIfStep("dead"), MeasureStep("basis"),
    ))
    tree = assert_steps_agree(protocol, lab, start)
    stopped = [leaf for leaf in tree.leaves() if leaf.stopped]
    assert [(leaf.operation, leaf.label) for leaf in stopped] == [("flip", None)]
    assert (tree.n_nodes(), tree.n_leaves()) == (6, 2)


def test_an_ended_cell_is_carried_through_later_steps():
    # alive stops at step 1 and is passed on unexpanded by steps 2 to 4;
    # dead, flipped to alive, stops at step 2 and joins its cell
    lab, start = flip_lab()
    protocol = ProtocolSpec((
        MeasureStep("basis"), StopIfStep("alive"), UnitaryStep("flip"), StopIfStep("dead"),
        MeasureStep("basis"), UnitaryStep("flip"),
    ))
    tree = assert_steps_agree(protocol, lab, start)
    alive = lab.intern(basis_state(lab.space, "alive"))
    assert [(leaf.operation, leaf.stopped, leaf.sid) for leaf in tree.leaves()] == [
        ("basis", True, alive), ("flip", True, alive)
    ]
    assert (tree.n_nodes(), tree.n_leaves()) == (4, 2)
    assert [sid for sid, _ in tree._finals] == [alive]


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_reproducible():
    sc = resurrection()
    a = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 4096, 9)
    b = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 4096, 9)
    assert a.n == b.n == 4096
    assert a.finals == b.finals
    c = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 4096, 10)
    assert {st.key: cnt for st, cnt in a.finals} != {st.key: cnt for st, cnt in c.finals}


def test_monte_carlo_frequencies_near_exact():
    sc = resurrection()
    n = 50_000
    mc = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], n, 31)
    freq = mc.frequency(sc.states["alive"])
    assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / n)


def test_monte_carlo_mixture_initial():
    sc = load_scenario("cat")[0]
    n = 20_000
    mc = run_monte_carlo(sc.protocols["observe"], sc.lab, sc.mixtures["rho_cat"], n, 3)
    freq = mc.frequency(sc.states["alive"])
    assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / n)


def test_monte_carlo_skips_pruned_outcomes():
    # all mass on one outcome, the other rows pruned: every trial lands there
    sc = load_scenario("cat")[0]
    n = 3 * 4096 + 5
    mc = run_monte_carlo(sc.protocols["observe"], sc.lab, sc.states["alive"], n, 11)
    assert [c for _, c in mc.finals] == [n]
    assert mc.frequency(sc.states["alive"]) == 1.0


def test_monte_carlo_rows_consistent():
    sc = resurrection()
    mc = run_monte_carlo(sc.protocols["resurrect3"], sc.lab, sc.states["dead"], 8192, 1)
    rows = mc.rows()
    assert sum(c for _, c, _ in rows) == 8192
    for _, count, freq in rows:
        assert freq == count / 8192


def test_monte_carlo_cost_does_not_grow_with_n():
    sc = resurrection()
    n = 10**15
    mc = run_monte_carlo(sc.protocols["resurrect10"], sc.lab, sc.states["dead"], n, 7)
    assert sum(c for _, c in mc.finals) == n
    p = 1.0 - 2.0**-10
    assert abs(mc.frequency(sc.states["alive"]) - p) < 6 * math.sqrt(p * (1 - p) / n)


def test_trials_validation():
    sc = resurrection()
    with pytest.raises(CatlabError):
        run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], -1, 1)
    with pytest.raises(CatlabError, match=f"trial count must be <= {MAX_TRIALS}"):
        run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"],
                        MAX_TRIALS + 1, 1)
    empty = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 0, 1)
    assert empty.n == 0 and empty.finals == []


# ---------------------------------------------------------------------------
# stream ownership


def _arrivals(mc):
    return [(state.key, c) for state, c in mc.finals]


def test_a_run_that_raises_gives_its_stream_back(monkeypatch):
    pool = []
    monkeypatch.setattr(catlab.rng, "_IDLE", pool)
    sc = resurrection()
    rows = sc.lab.rows  # every "basis" row pruned, as in the leaf test above
    monkeypatch.setattr(sc.lab, "rows", lambda name, sid: tuple(
        (label, p, None if name == "basis" else nid) for label, p, nid in rows(name, sid)
    ))
    with pytest.raises(CatlabError, match="ran out of probability mass mid-trial"):
        run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 10, 3)
    [held] = pool
    # the next run takes that stream back, re-keyed: it draws what a fresh
    # stream draws
    ok = resurrection()
    spec, dead = ok.protocols["resurrect10"], ok.states["dead"]
    mc = run_monte_carlo(spec, ok.lab, dead, 10**6, 5)
    assert pool == [held]
    assert _arrivals(mc) == mc_every_step(spec, ok.lab, dead, 10**6, 5)


def test_a_rejected_call_takes_no_stream(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a stream was taken")

    monkeypatch.setattr(catlab.protocols, "take_stream", no_stream)
    sc, cat = resurrection(), load_scenario("cat")[0]
    spec, dead = sc.protocols["resurrect1"], sc.states["dead"]
    elsewhere = basis_state(HilbertSpace(("x", "y")), "x")
    for n in (-1, MAX_TRIALS + 1):
        with pytest.raises(CatlabError, match="trial count"):
            run_monte_carlo(spec, sc.lab, dead, n, 1)
    not_allowed = ProtocolSpec((MeasureStep("plusminus"),))
    with pytest.raises(DisallowedOperation):
        run_monte_carlo(not_allowed, cat.lab, cat.states["dead"], 10, 1)
    with pytest.raises(DimensionMismatch):
        run_monte_carlo(spec, sc.lab, elsewhere, 10, 1)
    pm = sc.measurements["pm"]
    for n in (0, MAX_TRIALS + 1):
        with pytest.raises(CatlabError):
            discriminate(dead, sc.states["alive"], pm, n, 1)


def test_concurrent_runs_hold_distinct_streams(monkeypatch):
    pool = []
    monkeypatch.setattr(catlab.rng, "_IDLE", pool)
    sc = resurrection()
    spec, lab, dead = sc.protocols["resurrect10"], sc.lab, sc.states["dead"]
    seeds = [[4 * i + j for i in range(25)] for j in range(4)]  # one list per thread
    # run in sequence first, which also fills the lab's tables, so the
    # threads below only read them
    want = [[_arrivals(run_monte_carlo(spec, lab, dead, 10**6, s)) for s in part]
            for part in seeds]
    got = [None] * 4
    start = threading.Barrier(4)

    def runs(j):
        start.wait(timeout=60)
        got[j] = [_arrivals(run_monte_carlo(spec, lab, dead, 10**6, s)) for s in seeds[j]]

    threads = [threading.Thread(target=runs, args=(j,)) for j in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so that the runs interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    # every stream is idle again, and one was built per run held at once
    assert 1 <= len(pool) <= 4
    assert len({id(rs) for rs in pool}) == len(pool)


# ---------------------------------------------------------------------------
# one transition table per laboratory


def test_runs_on_a_lab_share_its_rows(monkeypatch):
    monkeypatch.setattr(catlab.lab, "_ROWS", {})  # no rows from earlier tests
    calls = []
    real = catlab.lab.outcome_distribution
    monkeypatch.setattr(
        catlab.lab, "outcome_distribution", lambda m, x: calls.append(1) or real(m, x)
    )
    sc = resurrection()
    protocol, dead, alive = sc.protocols["resurrect3"], sc.states["dead"], sc.states["alive"]
    enumerate_protocol(protocol, sc.lab, dead)
    assert calls
    # every row a trial can take was computed by the exact run
    before = len(calls)
    run_monte_carlo(protocol, sc.lab, dead, 4096, 1)
    assert len(calls) == before
    for run in (
        lambda: enumerate_protocol(protocol, sc.lab, dead),
        lambda: run_monte_carlo(protocol, sc.lab, dead, 4096, 2),
        lambda: _search(sc.lab, dead, alive, DEFAULT_MAX_DEPTH),
    ):
        run()
        before = len(calls)
        run()
        assert len(calls) == before


@pytest.mark.parametrize("initial, pairs, rows, sample_first, n", [
    pytest.param("dead", 3, 6, True, 10**6, id="dead-3-6"),
    pytest.param("rho_cat", 4, 8, True, 10**6, id="rho_cat-4-8"),
    pytest.param("dead", 3, 6, False, 1, id="dead-3-6-enumerate-first"),
])
def test_a_lab_prepares_each_pair_once(monkeypatch, initial, pairs, rows, sample_first, n):
    # resurrect10 meets 3 (operation, state) pairs with two kept rows from
    # dead and 4 from rho_cat, and 6 and 8 rows in all, over its 20 steps;
    # the lab keeps each pair's one step view for its lifetime, whichever
    # walker meets the pair first
    calls = {"weights": 0, "dyadic": 0}

    def counted(name, real):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or real(*a)

    monkeypatch.setattr(catlab.lab, "_weights", counted("weights", catlab.lab._weights))
    monkeypatch.setattr(catlab.lab, "_dyadic", counted("dyadic", catlab.lab._dyadic))
    for lab_number in range(1, 3):  # a freshly loaded lab computes them again
        sc = resurrection()
        protocol, start = sc.protocols["resurrect10"], sc.initial(initial)
        for run in range(1, 4):
            if sample_first:
                run_monte_carlo(protocol, sc.lab, start, n, run)
                enumerate_protocol(protocol, sc.lab, start)
            else:
                enumerate_protocol(protocol, sc.lab, start)
                run_monte_carlo(protocol, sc.lab, start, n, run)
            assert calls == {"weights": lab_number * pairs, "dyadic": lab_number * rows}


def three_levels():
    """A three-level space, a measurement with outcomes a and bc, and the
    basis measurement."""
    space = HilbertSpace(("a", "b", "c"))
    a = projector_from_state(basis_state(space, "a"))
    halves = make_measurement(
        space, [("a", a), ("bc", Operator(space, np.eye(3) - a.mat, "projector"))]
    )
    basis = make_measurement(
        space, [(l, projector_from_state(basis_state(space, l))) for l in space.labels]
    )
    return space, halves, basis


def assert_step_view(lab, name, sid, view):
    """``view`` is ``lab.step(name, sid)`` as its rows give it: the kept rows
    exactly over the largest denominator of all rows, the pruned mass
    exactly, and the kept rows' weights in ``draw_weights``' form."""
    k, kept, cut, weights = view
    rows = lab.rows(name, sid)
    assert 1 << k == max(Fraction(p).denominator for _, p, _ in rows)
    kept_rows = [row for row in rows if row[2] is not None]
    assert [(label, nid, key) for _, label, nid, key in kept] == [
        (label, nid, (nid, label)) for label, _, nid in kept_rows
    ]
    assert [Fraction(n, 1 << k) for n, _, _, _ in kept] == [Fraction(p) for _, p, _ in kept_rows]
    assert Fraction(cut, 1 << k) == sum(Fraction(p) for _, p, nid in rows if nid is None)
    if len(kept) < 2:
        assert weights is None
        return
    probs = _weights([p for _, p, _ in kept_rows])
    if len(kept) == 2:
        assert weights.__class__ is float and weights == draw_weights(probs)
    else:
        assert weights.__class__ is np.ndarray and not weights.flags.writeable
        assert np.array_equal(weights, probs)


def test_a_lab_keeps_one_step_view_per_pair():
    # a pair's view holds None for one kept row, the first row's weight as
    # a float for two, and the read-only array for more; the lab keeps its
    # four tables and no other
    space, halves, basis = three_levels()
    lab = Laboratory(space, {"basis": basis, "halves": halves})
    start = make_state(space, [1, 2, 3])
    protocol = ProtocolSpec((MeasureStep("halves"), MeasureStep("basis"), MeasureStep("basis")))
    run_monte_carlo(protocol, lab, start, 10**6, 1)
    sid = lab.intern(start)
    assert [len(lab.step(name, sid)[1]) for name in ("halves", "basis")] == [2, 3]
    for (name, sid), view in lab._steps.items():
        assert_step_view(lab, name, sid, view)
    tables = {key for key, value in vars(lab).items() if isinstance(value, dict)}
    assert tables == {"measurements", "unitaries", "_ops", "_ids", "_rows", "_steps",
                      "_programs", "_matches"}
    # every pair that a shipped protocol meets from a shipped initial state
    for scenario in SCENARIO_NAMES:
        names = load_scenario(scenario)[0]
        for protocol in names.protocols:
            for initial in [*names.states, *names.mixtures]:
                sc = load_scenario(scenario)[0]
                enumerate_protocol(sc.protocols[protocol], sc.lab, sc.initial(initial))
                assert sc.lab._steps
                for (name, sid), view in sc.lab._steps.items():
                    assert_step_view(sc.lab, name, sid, view)


def test_a_lab_resolves_each_protocol_once(monkeypatch):
    # the lab keeps each protocol's program, so a later run on it neither
    # checks the protocol's operations nor unrolls it again
    calls = []
    real = ProtocolSpec.unrolled
    monkeypatch.setattr(ProtocolSpec, "unrolled", lambda self: calls.append(self) or real(self))
    for lab_number in range(1, 3):  # a freshly loaded lab resolves it again
        sc = resurrection()
        protocol, dead = sc.protocols["resurrect10"], sc.states["dead"]
        for run in range(1, 4):
            run_monte_carlo(protocol, sc.lab, dead, 10**6, run)
        enumerate_protocol(protocol, sc.lab, dead)
        assert len(calls) == lab_number


def test_a_lab_keeps_each_protocol_apart():
    # protocols built and dropped one after another, whose ids the
    # interpreter may hand on, each run their own program
    sc, fresh = resurrection(), resurrection()
    dead, alive = sc.states["dead"], sc.states["alive"]
    for k in range(1, 6):
        def spec():
            body = (MeasureStep("pm"), MeasureStep("basis"), StopIfStep("alive"))
            return ProtocolSpec((RepeatStep(body, k),))

        mass = leaf_mass(enumerate_protocol(spec(), sc.lab, dead), alive)
        assert abs(mass - (1.0 - 2.0**-k)) < 1e-12
        mc = run_monte_carlo(spec(), sc.lab, dead, 10**6, k)
        assert mc == run_monte_carlo(spec(), fresh.lab, dead, 10**6, k)


@pytest.mark.parametrize("steps, error", [
    ((MeasureStep("plusminus"),), DisallowedOperation),
    ((RepeatStep((MeasureStep("basis"),), MAX_UNROLLED_STEPS + 1),), DepthCeiling),
], ids=["disallowed", "past-the-ceiling"])
def test_a_rejected_protocol_raises_on_every_run(steps, error):
    # no program is kept for a protocol that _resolved rejects
    sc = load_scenario("cat")[0]
    spec, dead = ProtocolSpec(steps), sc.states["dead"]
    for _ in range(3):
        with pytest.raises(error):
            run_monte_carlo(spec, sc.lab, dead, 10, 1)
        with pytest.raises(error):
            enumerate_protocol(spec, sc.lab, dead)


@pytest.mark.parametrize("initial", ["dead", "rho_cat"])
def test_a_second_run_computes_no_state_key(monkeypatch, initial):
    # a state builds its key once, so a run on a warm lab keys nothing:
    # the start state and every post state already carry theirs
    calls = []
    real = catlab.qstate._grid_key
    monkeypatch.setattr(catlab.qstate, "_grid_key", lambda *a: calls.append(a) or real(*a))
    sc = resurrection()
    protocol, start = sc.protocols["resurrect10"], sc.initial(initial)
    enumerate_protocol(protocol, sc.lab, start)
    run_monte_carlo(protocol, sc.lab, start, 10**6, 1)
    del calls[:]
    enumerate_protocol(protocol, sc.lab, start)
    run_monte_carlo(protocol, sc.lab, start, 10**6, 2)
    assert calls == []


def test_first_state_interned_on_a_lab_represents_its_key():
    ph = load_scenario("photon")[0]
    a = make_state(ph.space, [0.6, 0.8])
    table = ph.lab
    rep = table.states[table.intern(a)]
    # b lies in a's 1e-6 grid cell, and it is interned after a
    b = make_state(ph.space, a.amps + [1e-9, 0.0])
    assert b.key == a.key
    there_and_back = ProtocolSpec((UnitaryStep("rotate45"), UnitaryStep("rotate45_inv")))
    tree = enumerate_protocol(there_and_back, ph.lab, b)
    [(state, mass)] = aggregate_leaves(tree)
    assert state is rep and mass == 1.0
    [(state, count, _)] = run_monte_carlo(there_and_back, ph.lab, b, 10, 1).rows()
    assert state is rep and count == 10
    start = apply_unitary(ph.unitaries["rotate45"], b)
    path, _ = _search(ph.lab, start, b, DEFAULT_MAX_DEPTH)
    assert path.steps == (("rotate45_inv", ""),)
    assert path.final_state is rep


# ---------------------------------------------------------------------------
# the match table: each final state is tested against a target once


def twin(target):
    """A second target object with the bits of ``target``."""
    return StateVector(target.space, target.amps)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_leaf_mass_is_the_uncached_sum_on_shipped_runs(name):
    # each order runs on a fresh lab: enumerations that intern more states
    # fall between the reads, and every target is read as itself and as a
    # twin, first or second
    sc = load_scenario(name)[0]
    runs = [(p, i) for p in sc.protocols for i in [*sc.states, *sc.mixtures]]
    for order in (1, -1):
        sc = load_scenario(name)[0]
        targets = [*sc.states.values()][::order]
        for protocol, initial in runs[::order]:
            tree = enumerate_protocol(sc.protocols[protocol], sc.lab, sc.initial(initial))
            for target in targets:
                for t in (target, twin(target))[::order]:
                    assert leaf_mass(tree, t) == uncached_leaf_mass(tree, t), (protocol, initial)
        assert len(sc.lab._matches) == len({t.amps.tobytes() for t in targets})


def test_leaf_mass_is_the_uncached_sum_on_the_sweep():
    sc = resurrection()
    trees = [
        enumerate_protocol(protocol, sc.lab, sc.initial(initial))
        for initial in ("dead", "rho_cat") for protocol in sweep()
    ]
    targets = [sc.states["alive"], sc.states["dead"], make_state(sc.space, [1, 1])]
    for tree in [*trees, *trees[::-1]]:
        for target in targets:
            assert leaf_mass(tree, target) == uncached_leaf_mass(tree, target)
            assert leaf_mass(tree, twin(target)) == uncached_leaf_mass(tree, target)
    # the closed form 1 - 2**-k from dead
    assert [leaf_mass(tree, sc.states["alive"]) for tree in trees[:12]] == pytest.approx(
        [1.0 - 2.0**-k for k in range(1, 13)], abs=1e-12
    )


def test_a_fresh_target_each_call_reads_its_own_entry():
    # targets made and dropped one after another may share an address; an
    # entry keyed by anything but the bits would serve one the other's answer
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect3"], sc.lab, sc.initial("rho_cat"))
    amps = [sc.states[name].amps for name in ("alive", "dead")]
    for a in amps * 4:
        target = StateVector(sc.space, a)
        want = uncached_leaf_mass(tree, target)
        del target
        assert leaf_mass(tree, StateVector(sc.space, a)) == want
    # the two answers differ, so a stale one shows
    assert uncached_leaf_mass(tree, sc.states["alive"]) == 0.875


def test_a_lab_tests_each_final_against_a_target_once(monkeypatch):
    # over the sweep, states_match runs once per (final id, target bits)
    # pair: 2 finals per initial state, and no test on a later pass or for
    # a twin of the target; a freshly loaded lab tests them again
    pairs = []
    real = catlab.protocols.states_match

    def counted(x, target):
        pairs.append((id(x), target.amps.tobytes()))
        return real(x, target)

    monkeypatch.setattr(catlab.protocols, "states_match", counted)
    protocols = sweep()
    for _ in range(2):
        sc = resurrection()
        alive = sc.states["alive"]
        del pairs[:]
        for initial in ("dead", "rho_cat"):
            before = len(pairs)
            for protocol in protocols:
                leaf_mass(enumerate_protocol(protocol, sc.lab, sc.initial(initial)), alive)
            assert len(pairs) - before == 2, initial
        before = len(pairs)
        for initial in ("dead", "rho_cat"):
            for protocol in protocols:
                tree = enumerate_protocol(protocol, sc.lab, sc.initial(initial))
                leaf_mass(tree, alive)
                leaf_mass(tree, twin(alive))
        assert len(pairs) == len(set(pairs)) == before == 4
    leaf_mass(tree, sc.states["dead"])
    assert len(pairs) == 4 + len(tree._finals)


def test_leaf_mass_refuses_a_target_from_another_space():
    # photon's z0 has the bits of resurrection's alive; a table that alive
    # filled must not answer for it
    sc, ph = resurrection(), load_scenario("photon")[0]
    z0, alive = ph.states["z0"], sc.states["alive"]
    assert z0.amps.tobytes() == alive.amps.tobytes() and z0.space is not sc.space
    four = basis_state(HilbertSpace(("a", "b", "c", "d")), "a")
    for initial in ("rho_cat", "dead"):
        tree = enumerate_protocol(sc.protocols["resurrect3"], sc.lab, sc.initial(initial))
        for target in (z0, four):
            with pytest.raises(DimensionMismatch):
                leaf_mass(tree, target)
        assert leaf_mass(tree, alive) == uncached_leaf_mass(tree, alive)
        for target in (z0, four):
            with pytest.raises(DimensionMismatch):
                leaf_mass(tree, target)
        for n in (1000, 0):  # a run with no finals still knows its space
            mc = run_monte_carlo(sc.protocols["resurrect3"], sc.lab, sc.initial(initial), n, 1)
            assert mc.space is sc.space and (n == 0) == (mc.finals == [])
            for target in (z0, four):
                with pytest.raises(DimensionMismatch):
                    mc.frequency(target)
        assert mc.frequency(alive) == 0.0


# ---------------------------------------------------------------------------
# discrimination


def test_total_variation_basics():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert abs(total_variation({"a": 1.0, "b": 0.0}, {"a": 0.5, "b": 0.5}) - 0.5) < 1e-15
    # labels missing on one side count as probability zero
    assert abs(total_variation({"a": 1.0}, {"b": 1.0}) - 1.0) < 1e-15


def test_exact_distribution():
    sc = load_scenario("photon")[0]
    dist = exact_distribution(sc.measurements["zbasis"], sc.states["x_plus"])
    assert abs(dist["0"] - 0.5) < 1e-12
    assert abs(dist["1"] - 0.5) < 1e-12


def test_discrimination_separating_vs_blind():
    ph = load_scenario("photon")[0]
    sep = discriminate(
        ph.states["x_plus"], ph.mixtures["rho_ph"], ph.measurements["xbasis"],
        20_000, 7, name="xbasis",
    )
    assert abs(sep.total_variation - 0.5) < 1e-10
    assert sep.p_value < 1e-9  # B's samples are flatly inconsistent with A
    blind = discriminate(
        ph.states["x_plus"], ph.mixtures["rho_ph"], ph.measurements["zbasis"],
        20_000, 7, name="zbasis",
    )
    assert abs(blind.total_variation - 0.0) < 1e-10
    assert blind.p_value > 0.001


def test_discrimination_same_source():
    cat = load_scenario("cat")[0]
    rep = discriminate(
        cat.mixtures["rho_cat"], cat.mixtures["rho_cat"],
        cat.measurements["basis"], 50_000, 11, name="basis",
    )
    assert rep.total_variation == 0.0
    assert rep.p_value > 0.001


def test_discrimination_report_shapes():
    cat = load_scenario("cat")[0]
    rep = discriminate(
        cat.states["cat_plus"], cat.mixtures["rho_cat"],
        cat.measurements["plusminus"], 1000, 5, name="plusminus",
    )
    doc = discrimination_to_json(rep)
    assert doc["measurement"] == "plusminus"
    assert len(doc["outcomes"]) == 2
    rows = discrimination_csv_rows(doc)
    assert rows[0] == ["source", "label", "exact_p", "empirical_freq", "n"]
    assert len(rows) == 1 + 2 * len(rep.labels)
    assert abs(rep.total_variation - 0.5) < 1e-10
    with pytest.raises(CatlabError):
        discriminate(
            cat.states["cat_plus"], cat.mixtures["rho_cat"],
            cat.measurements["plusminus"], 0, 5,
        )


# ---------------------------------------------------------------------------
# chi-square


def test_chi_square_perfect_match_two_bins():
    stat, df, p = chi_square_test({"a": 500, "b": 500}, {"a": 0.5, "b": 0.5}, 1000)
    assert stat == 0.0 and df == 1 and abs(p - 1.0) < 1e-12


def test_chi_square_impossible_outcome():
    stat, df, p = chi_square_test({"a": 999, "b": 1}, {"a": 1.0, "b": 0.0}, 1000)
    assert p == 0.0 and stat == np.inf


def test_chi_square_merges_rare_bins():
    # c and d expect 3 and 2 counts, both under the merge threshold, so they
    # pool into a single catch-all bin; three bins remain -> df = 2
    counts = {"a": 480, "b": 515, "c": 3, "d": 2}
    expected = {"a": 0.48, "b": 0.515, "c": 0.003, "d": 0.002}
    stat, df, p = chi_square_test(counts, expected, 1000)
    assert df == 2
    assert stat == 0.0
    assert abs(p - 1.0) < 1e-12


def test_chi_square_zero_expected_zero_observed_dropped():
    stat, df, p = chi_square_test({"a": 1000, "b": 0}, {"a": 1.0, "b": 0.0}, 1000)
    assert stat == 0.0
    assert p == 1.0


@pytest.mark.parametrize(
    "counts, expected, result",
    [
        # an impossible outcome holds counts: df counts both possible bins
        ({"c": 10, "a": 45, "b": 45}, {"a": 0.5, "b": 0.5, "c": 0.0}, (math.inf, 1, 0.0)),
        # every term is exact, so the order of the sum cannot show
        ({"a": 40, "b": 30, "c": 30}, {"a": 0.5, "b": 0.25, "c": 0.25}, (4.0, 2, math.exp(-2.0))),
    ],
)
def test_chi_square_ignores_the_order_of_expected(counts, expected, result):
    for order in itertools.permutations(expected):
        assert chi_square_test(counts, {l: expected[l] for l in order}, 100) == result, order


def test_discrimination_statistics_ignore_label_order():
    # the terms are inexact here, so a sum in label order would show in the
    # last bits; small Dirichlet weights also fill the catch-all bin
    rng = np.random.default_rng(29)
    for _ in range(200):
        labels = list("abcdef"[: rng.integers(3, 7)])
        p, q = (dict(zip(labels, rng.dirichlet(np.full(len(labels), 0.4)))) for _ in "pq")
        counts = dict(zip(labels, rng.multinomial(1000, list(p.values())).tolist()))
        chi = chi_square_test(counts, p, 1000)
        tv = total_variation(p, q)
        for _ in range(6):
            order = rng.permutation(labels)
            other = rng.permutation(labels)
            assert chi_square_test(counts, {l: p[l] for l in order}, 1000) == chi, (p, order)
            assert total_variation({l: p[l] for l in order}, {l: q[l] for l in other}) == tv
            assert total_variation({l: q[l] for l in other}, {l: p[l] for l in order}) == tv


def test_chi_square_one_bin_left_is_no_evidence():
    # exact_a of "+" for cat_plus through plusminus: the statistic is rounding
    stat, df, p = chi_square_test(
        {"+": 1000, "-": 0}, {"+": 0.9999999999999997, "-": 0.0}, 1000
    )
    assert 0.0 < stat < 1e-20 and df == 0
    assert p == 1.0


# df 1..15: a measurement has at most DIM_CEILING = 16 outcomes
CHI2_DFS = range(1, 16)


def test_chi2_sf_exact_points():
    for x in (1e-8, 0.3, 1.0, 7.5, 40.0, 600.0):
        assert _chi2_sf(x, 2) == math.exp(-x / 2)
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
    for df in CHI2_DFS:
        assert _chi2_sf(0.0, df) == 1.0
        # the series would multiply e^-inf = 0 by a power of inf, giving nan
        assert _chi2_sf(math.inf, df) == 0.0


def test_a_faint_expected_outcome_gives_p_value_zero():
    # A's fifth outcome has probability 2.5e-321: positive, so its bin is
    # not empty, but every count B draws there makes the statistic inf
    space = HilbertSpace(tuple("abcde"))
    a = make_state(space, [1, 1, 1, 1, 1e-160])
    b = make_state(space, [1, 1, 1, 1, 1])
    basis = make_measurement(
        space, [(l, projector_from_state(basis_state(space, l))) for l in space.labels]
    )
    report = discriminate(a, b, basis, 1000, 3)
    assert 0.0 < report.dist_a["e"] < 1e-300
    assert (report.chi_square, report.chi_square_df, report.p_value) == (math.inf, 4, 0.0)


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    xs = np.geomspace(1e-8, 2000.0, 600)
    for df in CHI2_DFS:
        ref = stats.chi2.sf(xs, df)
        got = np.array([_chi2_sf(float(x), df) for x in xs])
        keep = ref > 1e-290
        assert keep.any()
        rel = np.abs(got[keep] - ref[keep]) / ref[keep]
        assert rel.max() <= 1e-12, (df, float(rel.max()))


def test_discrimination_report_keyword_construction():
    report = DiscriminationReport(
        measurement="m",
        labels=("a", "b"),
        dist_a={"a": 1.0, "b": 0.0},
        dist_b={"a": 0.5, "b": 0.5},
        total_variation=0.5,
        n_trials=4,
        seed=9,
        freq_a={"a": 1.0, "b": 0.0},
        freq_b={"a": 0.25, "b": 0.75},
        chi_square=math.inf,
        chi_square_df=0,
        p_value=0.0,
    )
    doc = discrimination_to_json(report)
    assert (doc["measurement"], doc["n_trials"], doc["seed"]) == ("m", 4, 9)
    assert doc["outcomes"][1] == {
        "label": "b", "exact_a": 0.0, "exact_b": 0.5, "freq_a": 0.0, "freq_b": 0.75,
    }
    assert doc["chi_square"] == {"statistic": math.inf, "df": 0, "p_value": 0.0}


def _multinomial_frequencies(dist, labels, n, seed, stream):
    """Frequencies of one numpy multinomial draw of ``n`` over the
    ``_weights`` of ``dist``, on the generator of stream ``(seed, stream)``."""
    key = np.array([seed, stream], dtype=np.uint64)
    counts = np.random.Generator(np.random.Philox(key=key)).multinomial(
        n, _weights([dist[l] for l in labels])
    )
    return {l: c / n for l, c in zip(labels, counts.tolist())}


@pytest.mark.parametrize("wide", [False, True], ids=["2-label", "3-label"])
def test_discrimination_draws_as_the_multinomial_reference(wide):
    # a two-label measurement draws one binomial per source, a wider one a
    # multinomial; both must be numpy's multinomial draw on streams 0 and 1
    space, halves, basis = three_levels()
    m = basis if wide else halves
    rng = np.random.default_rng(43)
    for seed in (0, 5, MAX_TRIALS):
        x, y = (make_state(space, rng.normal(size=3) + 1j * rng.normal(size=3)) for _ in "xy")
        for n in (1, 1000, 10**12, MAX_TRIALS):
            report = discriminate(x, y, m, n, seed)
            assert report.labels == m.labels
            assert report.freq_a == _multinomial_frequencies(report.dist_a, m.labels, n, seed, 0)
            assert report.freq_b == _multinomial_frequencies(report.dist_b, m.labels, n, seed, 1)
