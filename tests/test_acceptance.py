"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s``) before asserting.  Tolerances and runtime
budgets are part of the criteria.
"""

import math
import time

import numpy as np

from catlab import (
    Laboratory,
    MeasureStep,
    Operator,
    ProtocolSpec,
    RepeatStep,
    StopIfStep,
    aggregate_leaves,
    basis_state,
    discriminate,
    enumerate_protocol,
    exact_distribution,
    leaf_mass,
    load_scenario,
    make_measurement,
    make_mixture,
    measurement_from_states,
    nogo_verdict,
    outcome_distribution,
    partial_trace,
    run_monte_carlo,
    superposition_projector,
    total_variation,
)

from helpers import rand_density, rand_state, rand_unitary, space_of_dim

A2_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
MC_TRIALS = 100_000
MC_SEEDS = (7, 99, 2024)


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"criterion {num} {name}: {detail}"
    assert in_time, f"criterion {num} {name} took {elapsed:.2f}s, budget {limit}s"


def _cat_pieces():
    space = load_scenario("cat")[0].space
    alive = basis_state(space, "alive")
    dead = basis_state(space, "dead")
    basis_m = measurement_from_states([alive, dead], ["alive", "dead"])
    return space, alive, dead, basis_m


def test_1_witness_grid():
    started = time.perf_counter()
    sc = load_scenario("cat")[0]
    alive, dead = sc.states["alive"], sc.states["dead"]
    worst = 0.0
    ok = True
    for a2 in A2_GRID:
        cand = superposition_projector(
            sc.space, math.sqrt(a2), math.sqrt(1 - a2)
        )
        v = nogo_verdict(sc.lab, cand, alive, dead, name="cand", outcome_label="S")
        ok &= v.violated and v.witness is not None and len(v.witness.steps) == 2
        err = abs(v.witness.probability - a2 * (1 - a2))
        worst = max(worst, err)
        ok &= err < 1e-10
    _report(
        1, "witness-grid", ok,
        f"9 points, max |p - a2*b2| = {worst:.2e}",
        time.perf_counter() - started, 1.0,
    )


def test_2_degenerate_candidates():
    started = time.perf_counter()
    sc = load_scenario("cat")[0]
    alive, dead = sc.states["alive"], sc.states["dead"]
    ok = True
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        cand = superposition_projector(sc.space, a, b)
        v = nogo_verdict(
            sc.lab, cand, alive, dead, max_depth=6, name="cand", outcome_label="S"
        )
        ok &= (not v.violated) and v.witness is None
    _report(
        2, "degenerate-candidates", ok,
        "a=0 and b=0 both conclusive non-violations at depth 6",
        time.perf_counter() - started, 1.0,
    )


def test_3_amplification():
    started = time.perf_counter()
    space, alive, dead, basis_m = _cat_pieces()
    worst = 0.0
    ok = True
    k10_mass = None
    for a2 in A2_GRID:
        cand = superposition_projector(space, math.sqrt(a2), math.sqrt(1 - a2))
        pm = make_measurement(space, [("S", cand)])
        lab = Laboratory(space, {"pm": pm, "basis": basis_m}, {}, ((dead, alive),))
        q = 2 * a2 * (1 - a2)
        prev = -1.0
        for k in range(1, 13):
            spec = ProtocolSpec(
                (
                    RepeatStep(
                        (MeasureStep("pm"), MeasureStep("basis"), StopIfStep("alive")),
                        k,
                    ),
                )
            )
            tree = enumerate_protocol(spec, lab, dead)
            mass = leaf_mass(tree, alive)
            err = abs(mass - (1 - (1 - q) ** k))
            worst = max(worst, err)
            ok &= err < 1e-10
            ok &= mass + 1e-12 >= prev  # nondecreasing in k
            prev = mass
            if a2 == 0.5 and k == 10:
                k10_mass = mass
    ok &= k10_mass is not None and k10_mass > 0.999
    _report(
        3, "amplification", ok,
        f"9x12 grid, max |mass - closed form| = {worst:.2e}, "
        f"k=10 even split mass = {k10_mass:.6f}",
        time.perf_counter() - started, 5.0,
    )


def test_4_discrimination_table():
    started = time.perf_counter()
    cases = [
        ("composite", "psi_plus", "rho_s", "sch_plus", 0.5),
        ("composite", "psi_plus", "rho_s", "collective", 0.0),
        ("cat", "cat_plus", "rho_cat", "plusminus", 0.5),
        ("cat", "cat_plus", "rho_cat", "basis", 0.0),
        ("photon", "x_plus", "rho_ph", "xbasis", 0.5),
        ("photon", "x_plus", "rho_ph", "zbasis", 0.0),
    ]
    worst = 0.0
    ok = True
    for scenario, pure, mixed, m, expected in cases:
        sc = load_scenario(scenario)[0]
        tv = total_variation(
            exact_distribution(sc.measurements[m], sc.states[pure]),
            exact_distribution(sc.measurements[m], sc.mixtures[mixed]),
        )
        err = abs(tv - expected)
        worst = max(worst, err)
        ok &= err < 1e-10
    _report(
        4, "discrimination-table", ok,
        f"6 pairs, max |TV - expected| = {worst:.2e}",
        time.perf_counter() - started, 1.0,
    )


def test_5_reduced_state_identity():
    started = time.perf_counter()
    psi_plus = load_scenario("composite")[0].states["psi_plus"]
    rho_cat = load_scenario("cat")[0].mixtures["rho_cat"]
    reduced = partial_trace(make_mixture([(1.0, psi_plus)]), keep="cat")
    err = float(np.max(np.abs(reduced.mat - rho_cat.mat)))
    _report(
        5, "reduced-state-identity", err < 1e-12,
        f"max entrywise |diff| = {err:.2e}",
        time.perf_counter() - started, 1.0,
    )


def test_6_statistical_consistency():
    started = time.perf_counter()
    runs = [
        ("cat", "observe", "cat_plus"),
        ("composite", "collective_observe", "psi_plus"),
        ("photon", "through_straight", "x_plus"),
        ("photon", "through_rotated", "x_plus"),
        ("stone-bread", "observe", "mix_plus"),
        ("resurrection", "resurrect1", "dead"),
        ("resurrection", "resurrect3", "dead"),
        ("resurrection", "resurrect10", "dead"),
    ]
    ok = True
    slack = math.inf  # tightest band margin seen, in sigmas-worth of room
    for scenario, protocol, initial in runs:
        sc = load_scenario(scenario)[0]
        start = sc.initial(initial)
        tree = enumerate_protocol(sc.protocols[protocol], sc.lab, start)
        exact = aggregate_leaves(tree)
        for seed in MC_SEEDS:
            mc = run_monte_carlo(
                sc.protocols[protocol], sc.lab, start, MC_TRIALS, seed
            )
            for state, p in exact:
                band = 4 * math.sqrt(max(p * (1 - p), 0.0) / MC_TRIALS) + 1e-15
                diff = abs(mc.frequency(state) - p)
                slack = min(slack, band - diff)
                ok &= diff <= band
    min_p = math.inf
    pairs = [
        ("cat", "rho_cat", "basis"),
        ("composite", "psi_plus", "collective"),
        ("photon", "rho_ph", "zbasis"),
        ("stone-bread", "mix_plus", "basis"),
        ("resurrection", "rho_cat", "basis"),
    ]
    for scenario, source, m in pairs:
        sc = load_scenario(scenario)[0]
        src = sc.initial(source)
        for seed in MC_SEEDS:
            rep = discriminate(src, src, sc.measurements[m], MC_TRIALS, seed, name=m)
            min_p = min(min_p, rep.p_value)
            ok &= rep.p_value > 0.001
    _report(
        6, "statistical-consistency", ok,
        f"8 protocols x 3 seeds at n={MC_TRIALS}, min band margin = {slack:.2e}; "
        f"5 matching-source pairs, min chi-square p = {min_p:.3f}",
        time.perf_counter() - started, 30.0,
    )


def test_7_invariant_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    ok = True
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        space = space_of_dim(dim)

        psi = rand_state(rng, space)
        ok &= abs(np.vdot(psi.amps, psi.amps).real - 1.0) < 1e-10

        rho = rand_density(rng, space)
        ok &= bool(np.max(np.abs(rho.mat - rho.mat.conj().T)) < 1e-10)
        ok &= abs(np.trace(rho.mat).real - 1.0) < 1e-10
        ok &= float(np.linalg.eigvalsh(rho.mat).min()) > -1e-9

        u = rand_unitary(rng, dim)
        m = make_measurement(
            space,
            [
                (f"o{i}", Operator(space, np.outer(u[:, i], u[:, i].conj()), "projector"))
                for i in range(dim)
            ],
        )
        ok &= len(m.labels) == dim  # complete without a catch-all
        total = sum(m.projector(lab).mat for lab in m.labels)
        ok &= bool(np.max(np.abs(total - np.eye(dim))) < 1e-10)
        for lab in m.labels:
            p = m.projector(lab).mat
            ok &= bool(np.max(np.abs(p @ p - p)) < 1e-10)

        rows = outcome_distribution(m, psi)
        ok &= abs(sum(p for _, p, _ in rows) - 1.0) < 1e-10
        best, _, post = max(rows, key=lambda row: row[1])
        again = {label: p for label, p, _ in outcome_distribution(m, post)}
        ok &= again[best] > 1 - 1e-9

        if not ok:
            break
    _report(
        7, "invariant-suite", ok,
        "1000 randomized state/mixture/measurement rounds",
        time.perf_counter() - started, 10.0,
    )
