"""States, densities, operators: construction, algebra, serialization."""

import numpy as np
import pytest

from catlab import (
    BadWeights,
    CatlabError,
    DimensionCeiling,
    DimensionMismatch,
    HilbertSpace,
    Operator,
    StateVector,
    ZeroVector,
    apply_unitary,
    basis_state,
    format_state,
    make_mixture,
    make_state,
    overlap,
    partial_trace,
    projector_from_state,
    pure_density,
    squared_overlap,
    states_match,
    tensor_space,
)
from catlab.cli import state_to_json
from catlab.qstate import canonical_amps
from helpers import rand_density, rand_state, rand_unitary, space_of_dim

CAT = HilbertSpace(("alive", "dead"), name="cat")
DEV = HilbertSpace(("undecayed", "decayed"), name="device")


# ---------------------------------------------------------------------------
# spaces


def test_space_basics():
    assert CAT.dim == 2
    assert CAT.index("dead") == 1
    with pytest.raises(CatlabError):
        CAT.index("zombie")


def test_space_validation():
    with pytest.raises(CatlabError):
        HilbertSpace(("a",))
    with pytest.raises(CatlabError):
        HilbertSpace(("a", "a"))
    with pytest.raises(CatlabError):
        HilbertSpace(("a", ""))
    with pytest.raises(DimensionCeiling):
        HilbertSpace(tuple(f"x{i}" for i in range(17)))
    with pytest.raises(DimensionMismatch, match="do not multiply"):
        HilbertSpace(("a", "b", "c"), factors=(CAT, DEV))


def test_spaces_compare_and_hash_by_value():
    same = HilbertSpace(["alive", "dead"], name="cat")
    assert same is not CAT
    assert same == CAT and hash(same) == hash(CAT)
    assert HilbertSpace(("alive", "dead")) != CAT  # no name
    assert HilbertSpace(("alive", "dead"), name="box") != CAT
    assert HilbertSpace(("dead", "alive"), name="cat") != CAT
    assert CAT != ("alive", "dead")
    prod = tensor_space(DEV, CAT)
    rebuilt = HilbertSpace(labels=prod.labels, name=prod.name, factors=list(prod.factors))
    assert rebuilt == prod and hash(rebuilt) == hash(prod)
    assert HilbertSpace(prod.labels, name=prod.name) != prod  # no factors
    other = HilbertSpace(prod.labels, name=prod.name, factors=(space_of_dim(2), CAT))
    assert other != prod
    assert len({CAT, same, DEV, prod, rebuilt}) == 3


def test_tensor_space_labels_and_factors():
    prod = tensor_space(DEV, CAT)
    assert prod.dim == 4
    assert prod.labels == (
        "undecayed⊗alive",
        "undecayed⊗dead",
        "decayed⊗alive",
        "decayed⊗dead",
    )
    assert prod.factors is not None and len(prod.factors) == 2
    assert prod.factors[0].labels == DEV.labels


def test_tensor_space_ceiling():
    d5 = space_of_dim(5)
    with pytest.raises(DimensionCeiling):
        tensor_space(tensor_space(d5, space_of_dim(3)), CAT)


# ---------------------------------------------------------------------------
# state construction


def test_make_state_normalizes_three_four():
    # amps (3, 4i) have norm 5, so the state is (0.6, 0.8i)
    psi = make_state(CAT, [3, 4j])
    assert np.allclose(psi.amps, [0.6, 0.8j], atol=1e-15)
    assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12


def test_make_state_keeps_exact_unit_vectors():
    # already-normalized input must survive bit for bit (serialization relies on it)
    amps = np.array([1.0, 0.0], dtype=complex)
    psi = make_state(CAT, amps)
    assert np.all(psi.amps == amps)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        make_state(CAT, [0, 0])
    with pytest.raises(ZeroVector):
        make_state(CAT, [0.0, -0.0j])


@pytest.mark.parametrize(
    "tiny, plain",
    [
        ([3e-11, 4e-11], [3, 4]),
        ([1e-200, 0], [1, 0]),
        ([1e-11, 0], [1, 0]),
        ([5e-324, 5e-324j], [1, 1j]),  # subnormal, where a complex division overflows
    ],
)
def test_tiny_amplitudes_are_a_state(tiny, plain):
    # |a|^2 below 1e-20 is no reason to reject a list with a nonzero entry
    assert make_state(CAT, tiny).amps.tobytes() == make_state(CAT, plain).amps.tobytes()


@pytest.mark.parametrize(
    "huge, plain",
    [
        ([1e200, 1e200], [1, 1]),
        ([1e155, 0], [1, 0]),
        ([3e154, 4e154], [3, 4]),
        ([1e308, 1e308j], [1, 1j]),  # where a complex modulus overflows too
    ],
)
def test_huge_amplitudes_are_a_state(huge, plain):
    # |a|^2 overflowing to inf is no reason to reject a finite list
    assert make_state(CAT, huge).amps.tobytes() == make_state(CAT, plain).amps.tobytes()


def test_statevector_requires_unit_norm():
    with pytest.raises(CatlabError):
        StateVector(CAT, np.array([0.5, 0.5], dtype=complex))
    with pytest.raises(DimensionMismatch, match=r"expected shape \(3,\), got \(2,\)"):
        StateVector(space_of_dim(3), [1, 0])
    with pytest.raises(CatlabError, match="non-finite entries"):
        StateVector(CAT, [np.nan, 1])


def test_basis_state_one_hot():
    dead = basis_state(CAT, "dead")
    assert np.all(dead.amps == np.array([0.0, 1.0]))
    with pytest.raises(CatlabError):
        basis_state(CAT, "zombie")


def test_wrong_length_rejected():
    with pytest.raises(CatlabError):
        make_state(CAT, [1, 0, 0])


# ---------------------------------------------------------------------------
# mixtures and densities


def test_make_mixture_even_cat():
    rho = make_mixture(
        [(0.5, basis_state(CAT, "alive")), (0.5, basis_state(CAT, "dead"))]
    )
    assert np.allclose(rho.mat, np.eye(2) / 2, atol=1e-15)


def test_make_mixture_weight_validation():
    alive, dead = basis_state(CAT, "alive"), basis_state(CAT, "dead")
    with pytest.raises(BadWeights):
        make_mixture([(0.6, alive), (0.6, dead)])
    with pytest.raises(BadWeights):
        make_mixture([(-0.1, alive), (1.1, dead)])
    with pytest.raises(BadWeights):
        make_mixture([])
    with pytest.raises(DimensionMismatch, match="different spaces"):
        make_mixture([(0.5, alive), (0.5, basis_state(DEV, "decayed"))])


def test_density_validation():
    # non-Hermitian, wrong trace and negative matrices are all rejected
    from catlab import DensityMatrix

    with pytest.raises(CatlabError):
        DensityMatrix(CAT, np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(CatlabError):
        DensityMatrix(CAT, np.eye(2, dtype=complex))
    neg = np.array([[0.75, 0.5], [0.5, 0.25]], dtype=complex)
    with pytest.raises(CatlabError):
        DensityMatrix(CAT, neg)


def test_pure_density_matches_outer_product():
    rng = np.random.default_rng(3)
    psi = rand_state(rng, space_of_dim(3))
    rho = pure_density(psi)
    assert np.allclose(rho.mat, np.outer(psi.amps, psi.amps.conj()), atol=1e-15)


# ---------------------------------------------------------------------------
# operators


def test_projector_checks():
    p = projector_from_state(make_state(CAT, [1, 1]))
    assert p.kind == "projector"
    assert np.linalg.matrix_rank(p.mat) == 1
    assert np.allclose(p.mat @ p.mat, p.mat, atol=1e-12)
    with pytest.raises(CatlabError):
        Operator(CAT, np.array([[1, 0], [0, 0.5]], dtype=complex), "projector")
    # Hermitian, and so huge that P @ P overflows to nan, which no "> tol" test catches
    with pytest.raises(CatlabError, match="projector is not idempotent"):
        Operator(CAT, [[1e200, 1e200 + 1e200j], [1e200 - 1e200j, -1e200]], "projector")


def test_unitary_checks():
    u = Operator(CAT, np.array([[0, 1], [1, 0]], dtype=complex), "unitary")
    assert u.kind == "unitary"
    with pytest.raises(CatlabError):
        Operator(CAT, np.array([[1, 1], [0, 1]], dtype=complex), "unitary")
    with pytest.raises(CatlabError, match="matrix is not unitary"):
        Operator(CAT, [[1e176 - 1e176j, 1e176 - 1e176j], [1e176 - 1e176j, -1e176 - 1e176j]],
                 "unitary")
    assert np.linalg.matrix_rank(Operator(CAT, np.eye(2), "projector").mat) == 2
    with pytest.raises(TypeError):
        Operator(CAT, np.eye(2))  # the kind is required
    with pytest.raises(CatlabError, match="unknown operator kind 'general'"):
        Operator(CAT, np.eye(2), "general")


def test_apply_unitary_flip():
    flip = Operator(CAT, np.array([[0, 1], [1, 0]], dtype=complex), "unitary")
    out = apply_unitary(flip, basis_state(CAT, "alive"))
    assert states_match(out, basis_state(CAT, "dead"))
    with pytest.raises(CatlabError, match="needs an operator of kind 'unitary'"):
        apply_unitary(projector_from_state(out), out)
    with pytest.raises(DimensionMismatch, match="different spaces"):
        apply_unitary(flip, basis_state(DEV, "decayed"))


def test_apply_unitary_on_density():
    rng = np.random.default_rng(8)
    rho = rand_density(rng, CAT)
    u = Operator(CAT, rand_unitary(rng, 2), "unitary")
    out = apply_unitary(u, rho)
    expect = u.mat @ rho.mat @ u.mat.conj().T
    assert np.allclose(out.mat, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# product spaces and partial trace


def test_partial_trace_of_entangled_pair_is_even_mixture():
    prod = tensor_space(DEV, CAT)
    psi = make_state(prod, [1, 0, 0, 1])
    red = partial_trace(pure_density(psi), keep="cat")
    assert np.max(np.abs(red.mat - np.eye(2) / 2)) < 1e-12
    red_dev = partial_trace(pure_density(psi), keep="device")
    assert np.max(np.abs(red_dev.mat - np.eye(2) / 2)) < 1e-12


def brute_force_partial_trace(mat, dims, keep):
    """Index-sum oracle, independent of the library's reshape tricks."""
    d = int(np.prod(dims))
    t = mat.reshape(*dims, *dims)
    n = len(dims)
    out_dim = dims[keep]
    red = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(out_dim):
        for j in range(out_dim):
            total = 0.0 + 0.0j
            for flat in range(d):
                idx = list(np.unravel_index(flat, dims))
                if idx[keep] != 0:
                    continue
                left = idx.copy()
                right = idx.copy()
                left[keep] = i
                right[keep] = j
                total += t[tuple(left) + tuple(right)]
            red[i, j] = total
    return red


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_partial_trace_matches_brute_force(keep):
    rng = np.random.default_rng(100 + keep)
    prod = tensor_space(tensor_space(DEV, CAT), space_of_dim(3, "aux"))
    rho = rand_density(rng, prod, parts=4)
    red = partial_trace(rho, keep=keep)
    oracle = brute_force_partial_trace(rho.mat, (2, 2, 3), keep)
    assert np.max(np.abs(red.mat - oracle)) < 1e-12
    assert abs(np.trace(red.mat) - 1.0) < 1e-12


def test_partial_trace_by_name_and_errors():
    prod = tensor_space(DEV, CAT)
    rho = rand_density(np.random.default_rng(4), prod)
    by_name = partial_trace(rho, keep="cat")
    by_index = partial_trace(rho, keep=1)
    assert np.allclose(by_name.mat, by_index.mat, atol=1e-15)
    with pytest.raises(CatlabError):
        partial_trace(rho, keep="nope")
    with pytest.raises(CatlabError, match="factor index 2 out of range"):
        partial_trace(rho, keep=2)
    twins = rand_density(np.random.default_rng(6), tensor_space(CAT, CAT))
    with pytest.raises(CatlabError, match="factor name 'cat' is ambiguous"):
        partial_trace(twins, keep="cat")
    flat_rho = rand_density(np.random.default_rng(5), CAT)
    with pytest.raises(CatlabError):
        partial_trace(flat_rho, keep=0)


# ---------------------------------------------------------------------------
# overlaps and matching


def test_overlap_values():
    plus = make_state(CAT, [1, 1])
    alive = basis_state(CAT, "alive")
    assert abs(overlap(plus, alive) - 1 / np.sqrt(2)) < 1e-12
    assert abs(squared_overlap(plus, alive) - 0.5) < 1e-12
    with pytest.raises(DimensionMismatch):
        overlap(plus, basis_state(DEV, "decayed"))


def test_states_match_ignores_global_phase():
    psi = make_state(CAT, [0.6, 0.8])
    rotated = make_state(CAT, list(np.exp(1.3j) * psi.amps))
    assert states_match(psi, rotated)
    assert not states_match(psi, basis_state(CAT, "alive"))


def test_states_match_mixed_vs_pure():
    plus = make_state(CAT, [1, 1])
    assert states_match(pure_density(plus), plus)
    even = make_mixture(
        [(0.5, basis_state(CAT, "alive")), (0.5, basis_state(CAT, "dead"))]
    )
    # fidelity of the even mixture against |+> is only 1/2
    assert not states_match(even, plus)


def test_canonical_amps_phase_rule():
    raw = np.exp(0.7j) * np.array([0.6, 0.8j])
    canon = canonical_amps(raw)
    assert canon[0].imag == 0.0
    assert canon[0].real > 0
    assert states_match(make_state(CAT, raw), StateVector(CAT, canon))
    # idempotent in bits
    assert canonical_amps(canon).tobytes() == canon.tobytes()


def test_canonical_amps_skips_negligible_leading_amp():
    canon = canonical_amps(np.array([1e-13, 1.0], dtype=complex))
    assert canon[1].real > 0 and canon[1].imag == 0.0


def test_canonical_amps_leaves_a_zero_vector_alone():
    zero = np.zeros(2, dtype=complex)
    assert canonical_amps(zero) is zero


# ---------------------------------------------------------------------------
# rendering and serialization


def test_format_state():
    assert format_state(basis_state(CAT, "alive")) == "alive"
    txt = format_state(make_state(CAT, [1, 1]))
    assert "alive" in txt and "dead" in txt
    # a zero amplitude is skipped, a complex one printed in parentheses
    assert format_state(make_state(space_of_dim(3), [0.6, 0, 0.8j])) == "0.6*a + (0+0.8i)*c"


def test_state_json_roundtrip_bit_exact():
    rng = np.random.default_rng(6)
    psi = rand_state(rng, CAT)
    doc = state_to_json(psi)
    assert doc["labels"] == list(psi.space.labels)
    assert np.all(np.array(doc["re"]) + 1j * np.array(doc["im"]) == psi.amps)


def test_space_json_roundtrip_keeps_factors():
    doc = state_to_json(basis_state(tensor_space(DEV, CAT), "decayed⊗dead"))
    assert (doc.pop("re"), doc.pop("im")) == ([0.0, 0.0, 0.0, 1.0], [0.0] * 4)
    assert doc == {
        "labels": [
            "undecayed⊗alive",
            "undecayed⊗dead",
            "decayed⊗alive",
            "decayed⊗dead",
        ],
        "name": "device⊗cat",
        "factors": [
            {"labels": ["undecayed", "decayed"], "name": "device"},
            {"labels": ["alive", "dead"], "name": "cat"},
        ],
    }
