"""The five shipped scenarios, as loaded from their ``.scn`` files."""

import json

import numpy as np
import pytest

from catlab import (
    SCENARIO_NAMES,
    CatlabError,
    RepeatStep,
    UnknownScenario,
    aggregate_leaves,
    enumerate_protocol,
    format_state,
    load_scenario,
    nogo_verdict,
    partial_trace,
    pure_density,
    run_monte_carlo,
    superposition_projector,
    verdict_to_json,
)


def test_all_names_build():
    dims = {"cat": 2, "composite": 4, "photon": 2, "stone-bread": 2, "resurrection": 2}
    for name in SCENARIO_NAMES:
        sc = load_scenario(name)[0]
        assert sc.name == name
        assert sc.space.dim == dims[name]


def test_unknown_scenario():
    with pytest.raises(UnknownScenario) as exc:
        load_scenario("ghost")
    assert "cat" in str(exc.value)


def test_cat_lab_allows_only_basis():
    sc = load_scenario("cat")[0]
    assert tuple(sc.lab.measurements) == ("basis",)
    assert "plusminus" in sc.measurements  # declared but not allowed
    assert sc.lab.forbidden[0][0] is sc.states["dead"]
    assert sc.lab.forbidden[0][1] is sc.states["alive"]


def test_schroedinger_state_amplitudes():
    psi = load_scenario("composite")[0].states["psi_plus"]
    r = 1 / np.sqrt(2)
    assert np.allclose(psi.amps, [r, 0, 0, r], atol=1e-15)
    labels = psi.space.labels
    assert labels == ("undecayed⊗alive", "undecayed⊗dead", "decayed⊗alive", "decayed⊗dead")


def test_reduced_cat_state_is_even_mixture():
    rho = pure_density(load_scenario("composite")[0].states["psi_plus"])
    reduced = partial_trace(rho, keep="cat")
    rho_cat = load_scenario("cat")[0].mixtures["rho_cat"]
    assert np.allclose(reduced.mat, rho_cat.mat, atol=1e-12)
    dev = partial_trace(rho, keep="device")
    assert np.allclose(dev.mat, np.eye(2) / 2, atol=1e-12)


def test_chamber_mixture_is_diagonal():
    rho = load_scenario("composite")[0].mixtures["rho_s"]
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.allclose(rho.mat, expect, atol=1e-15)


def test_superposition_projector_rank_one():
    p = superposition_projector(load_scenario("cat")[0].space, 0.6, 0.8)
    assert p.kind == "projector"
    assert np.allclose(p.mat @ p.mat, p.mat, atol=1e-12)
    assert abs(np.trace(p.mat) - 1.0) < 1e-12
    with pytest.raises(CatlabError):
        superposition_projector(load_scenario("composite")[0].space, 0.6, 0.8)


def test_initial_resolves_states_and_mixtures():
    sc = load_scenario("cat")[0]
    assert sc.initial("cat_plus") is sc.states["cat_plus"]
    assert sc.initial("rho_cat") is sc.mixtures["rho_cat"]
    with pytest.raises(CatlabError):
        sc.initial("nothing")


def test_photon_rotated_run_is_deterministic():
    sc = load_scenario("photon")[0]
    tree = enumerate_protocol(
        sc.protocols["through_rotated"], sc.lab, sc.states["x_plus"]
    )
    leaves = tree.leaves()
    assert len(leaves) == 1
    assert leaves[0].label == "0"
    mc = run_monte_carlo(
        sc.protocols["through_rotated"], sc.lab, sc.states["x_plus"], 500, 0
    )
    assert mc.frequency(sc.states["z0"]) == 1.0


def test_stone_bread_forbidden_both_ways():
    sc = load_scenario("stone-bread")[0]
    pairs = sc.lab.forbidden
    assert len(pairs) == 2
    assert {(a.space.labels[int(np.argmax(np.abs(a.amps)))],
             b.space.labels[int(np.argmax(np.abs(b.amps)))]) for a, b in pairs} == {
        ("stone", "bread"),
        ("bread", "stone"),
    }


def test_resurrection_protocol_counts():
    sc = load_scenario("resurrection")[0]
    for name, k in (("resurrect1", 1), ("resurrect3", 3), ("resurrect10", 10)):
        spec = sc.protocols[name]
        assert isinstance(spec.steps[0], RepeatStep)
        assert spec.steps[0].count == k
        assert len(spec.unrolled()) == 3 * k


def test_composite_device_readout_blind_to_chamber():
    # device-local plus/minus readout cannot tell psi_plus from the mixture
    from catlab import exact_distribution, total_variation

    sc = load_scenario("composite")[0]
    da = exact_distribution(sc.measurements["device_pm"], sc.states["psi_plus"])
    db = exact_distribution(sc.measurements["device_pm"], sc.mixtures["rho_s"])
    assert total_variation(da, db) < 1e-10
    dc = exact_distribution(sc.measurements["sch_plus"], sc.states["psi_plus"])
    dd = exact_distribution(sc.measurements["sch_plus"], sc.mixtures["rho_s"])
    assert abs(total_variation(dc, dd) - 0.5) < 1e-10


def test_scenario_name_clash_rejected():
    from catlab import Scenario

    sc = load_scenario("cat")[0]
    with pytest.raises(CatlabError):
        Scenario(
            name="bad",
            space=sc.space,
            states=sc.states,
            mixtures={"cat_plus": sc.mixtures["rho_cat"]},
            measurements=sc.measurements,
            unitaries={},
            lab=sc.lab,
        )


def test_scenario_keyword_construction():
    from catlab import Scenario

    sc = load_scenario("cat")[0]
    kept = Scenario(
        name="copy",
        space=sc.space,
        states=sc.states,
        mixtures=sc.mixtures,
        measurements=sc.measurements,
        unitaries=sc.unitaries,
        lab=sc.lab,
    )
    assert (kept.name, kept.protocols) == ("copy", {})
    assert kept.states == sc.states and kept.states is not sc.states


def test_spaces():
    assert load_scenario("cat")[0].space.labels == ("alive", "dead")
    composite = load_scenario("composite")[0].space
    assert composite.factors is not None
    assert composite.factors[0].labels == ("undecayed", "decayed")


# ---------------------------------------------------------------------------
# no report depends on what ran before it


def verdict_keys(sc):
    """Every no-go check a shipped scenario admits: each forbidden pair
    against each declared measurement outcome as the candidate."""
    return [
        (pair, name, label)
        for pair in range(len(sc.lab.forbidden))
        for name, m in sc.measurements.items()
        for label in m.labels
    ]


def verdict_bytes(sc, key):
    pair, name, label = key
    frm, to = sc.lab.forbidden[pair]
    v = nogo_verdict(sc.lab, sc.measurements[name].projector(label), to, frm,
                     name=name, outcome_label=label)
    return json.dumps(verdict_to_json(v), sort_keys=True)


def exact_tables(sc):
    return {
        (protocol, initial): [
            (format_state(state), repr(mass))
            for state, mass in aggregate_leaves(
                enumerate_protocol(sc.protocols[protocol], sc.lab, sc.initial(initial))
            )
        ]
        for protocol in sc.protocols
        for initial in [*sc.states, *sc.mixtures]
    }


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_reports_do_not_depend_on_history(name):
    keys = verdict_keys(load_scenario(name)[0])
    alone = {key: verdict_bytes(load_scenario(name)[0], key) for key in keys}
    tables = exact_tables(load_scenario(name)[0])
    for order in (keys, keys[::-1]):
        sc = load_scenario(name)[0]
        # the first pass runs each verdict after those before it, the
        # second after all the others
        for _ in range(2):
            assert {key: verdict_bytes(sc, key) for key in order} == alone
        assert exact_tables(sc) == tables
