"""Protocol enumeration, Monte Carlo sampling and discrimination."""

import math

import numpy as np
import pytest

import catlab.lab
import catlab.protocols
from catlab import (
    CatlabError,
    DepthCeiling,
    DimensionMismatch,
    DisallowedOperation,
    DiscriminationReport,
    HilbertSpace,
    MeasureStep,
    ProtocolSpec,
    RepeatStep,
    StopIfStep,
    UnitaryStep,
    aggregate_leaves,
    apply_unitary,
    basis_state,
    chi_square_test,
    discriminate,
    enumerate_protocol,
    exact_distribution,
    find_steering_path,
    leaf_mass,
    load_scenario,
    make_state,
    run_monte_carlo,
    state_key,
    total_variation,
    tree_to_json,
)
from catlab.protocols import MAX_TRIALS, _chi2_sf


def resurrection():
    return load_scenario("resurrection")[0]


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
            state = tree.lab.states[leaf.sid]
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
    sc = resurrection()
    eps = 1e-7  # amplitude ~1e-7 gives branch probability ~1e-14 < prune cutoff
    from catlab import make_state

    nearly_dead = make_state(sc.space, [eps, 1])
    tree = enumerate_protocol(
        ProtocolSpec((MeasureStep("basis"),)), sc.lab, nearly_dead
    )
    assert tree.pruned_mass > 0
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
        assert st is tree.lab.states[leaf.sid] and p == leaf.cumulative
    assert abs(tree.pruned_mass - 1.0) < 1e-15
    # sampling has nowhere to put such a cell's trials
    with pytest.raises(CatlabError, match="ran out of probability mass mid-trial"):
        run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 10, 1)


def test_tree_json_shape():
    sc = resurrection()
    tree = enumerate_protocol(sc.protocols["resurrect1"], sc.lab, sc.states["dead"])
    doc = tree_to_json(tree)
    assert doc["root"]["cumulative"] == 1.0
    assert {c["operation"] for c in doc["root"]["children"]} == {"pm"}


def test_unitary_steps_in_tree():
    ph = load_scenario("photon")[0]
    tree = enumerate_protocol(ph.protocols["through_rotated"], ph.lab, ph.states["x_plus"])
    agg = aggregate_leaves(tree)
    assert len(agg) == 1
    state, mass = agg[0]
    assert abs(mass - 1.0) < 1e-12
    assert abs(abs(np.vdot(state.amps, ph.states["z0"].amps)) - 1) < 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_reproducible():
    sc = resurrection()
    a = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 4096, 9)
    b = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 4096, 9)
    assert a.n == b.n == 4096
    assert {k: c for k, (_, c) in a.bins.items()} == {
        k: c for k, (_, c) in b.bins.items()
    }
    c = run_monte_carlo(sc.protocols["resurrect1"], sc.lab, sc.states["dead"], 4096, 10)
    assert {k: cnt for k, (_, cnt) in a.bins.items()} != {
        k: cnt for k, (_, cnt) in c.bins.items()
    }


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
    assert [c for _, c in mc.bins.values()] == [n]
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
    assert sum(c for _, c in mc.bins.values()) == n
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
    assert empty.n == 0 and empty.bins == {}


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
        lambda: find_steering_path(sc.lab, dead, alive),
    ):
        run()
        before = len(calls)
        run()
        assert len(calls) == before


@pytest.mark.parametrize("initial, pairs, rows", [("dead", 3, 6), ("rho_cat", 4, 8)])
def test_a_run_prepares_each_pair_once(monkeypatch, initial, pairs, rows):
    # resurrect10 meets 3 (operation, state) pairs with two kept rows from
    # dead and 4 from rho_cat, and 6 and 8 rows in all, over its 20 steps
    calls = {"weights": 0, "dyadic": 0}

    def counted(name, real):
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or real(*a)

    monkeypatch.setattr(
        catlab.protocols, "_weights", counted("weights", catlab.protocols._weights)
    )
    monkeypatch.setattr(catlab.protocols, "_dyadic", counted("dyadic", catlab.protocols._dyadic))
    sc = resurrection()
    protocol, start = sc.protocols["resurrect10"], sc.initial(initial)
    for run in range(1, 3):  # nothing is kept from one run to the next
        run_monte_carlo(protocol, sc.lab, start, 10**6, run)
        enumerate_protocol(protocol, sc.lab, start)
        assert calls == {"weights": run * pairs, "dyadic": run * rows}


def test_first_state_interned_on_a_lab_represents_its_key():
    ph = load_scenario("photon")[0]
    a = make_state(ph.space, [0.6, 0.8])
    table = ph.lab
    rep = table.states[table.intern(a)]
    # b lies in a's 1e-6 grid cell, and it is interned after a
    b = make_state(ph.space, a.amps + [1e-9, 0.0])
    assert state_key(b) == state_key(a)
    there_and_back = ProtocolSpec((UnitaryStep("rotate45"), UnitaryStep("rotate45_inv")))
    tree = enumerate_protocol(there_and_back, ph.lab, b)
    [(state, mass)] = aggregate_leaves(tree)
    assert state is rep and mass == 1.0
    [(state, count, _)] = run_monte_carlo(there_and_back, ph.lab, b, 10, 1).rows()
    assert state is rep and count == 10
    start = apply_unitary(ph.unitaries["rotate45"], b)
    path = find_steering_path(ph.lab, start, b)
    assert path.steps == (("rotate45_inv", ""),)
    assert path.final_state is rep


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
    doc = rep.to_json()
    assert doc["measurement"] == "plusminus"
    assert len(doc["outcomes"]) == 2
    rows = rep.to_csv_rows()
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
    doc = report.to_json()
    assert (doc["measurement"], doc["n_trials"], doc["seed"]) == ("m", 4, 9)
    assert doc["outcomes"][1] == {
        "label": "b", "exact_a": 0.0, "exact_b": 0.5, "freq_a": 0.0, "freq_b": 0.75,
    }
    assert doc["chi_square"] == {"statistic": math.inf, "df": 0, "p_value": 0.0}
