"""States, densities, operators: construction, algebra, serialization."""

import copy
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from catlab import (
    BadWeights,
    CatlabError,
    DimensionCeiling,
    DensityMatrix,
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
    squared_overlap,
    states_match,
    tensor_space,
)
import catlab
from catlab.cli import state_to_json
from catlab.qstate import canonical_amps
from helpers import rand_density, rand_state, rand_unitary, space_of_dim

CAT = HilbertSpace(("alive", "dead"), name="cat")
DEV = HilbertSpace(("undecayed", "decayed"), name="device")
SRC = os.path.dirname(os.path.dirname(catlab.__file__))


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
    # a name and the factors are part of the space's identity, so they are
    # checked before it is looked up
    with pytest.raises(CatlabError, match="factor must be a HilbertSpace"):
        HilbertSpace(("w", "x", "y", "z"), factors=[2, 2])
    for name in (["x"], 3, b"cat"):
        with pytest.raises(CatlabError, match="name must be a string"):
            HilbertSpace(("a", "b"), name=name)


def test_spaces_compare_and_hash_by_value():
    # one object per value: equal arguments give the same space, so value
    # and identity agree
    same = HilbertSpace(["alive", "dead"], name="cat")
    assert same is CAT
    for other in (
        HilbertSpace(("alive", "dead")),  # no name
        HilbertSpace(("alive", "dead"), name="box"),
        HilbertSpace(("dead", "alive"), name="cat"),
    ):
        assert other is not CAT and other != CAT
    assert CAT != ("alive", "dead")
    prod = tensor_space(DEV, CAT)
    rebuilt = HilbertSpace(labels=prod.labels, name=prod.name, factors=list(prod.factors))
    assert rebuilt is prod
    bare = HilbertSpace(prod.labels, name=prod.name)  # no factors
    assert bare is not prod and bare.factors is None and prod.factors == (DEV, CAT)
    other = HilbertSpace(prod.labels, name=prod.name, factors=(space_of_dim(2), CAT))
    assert other is not prod and other.factors[0] is space_of_dim(2)
    assert len({CAT, same, DEV, prod, rebuilt}) == 3


def test_equal_arguments_give_one_space():
    labels = ("one-a", "one-b")  # built nowhere else, so the first call is fresh
    first = HilbertSpace(labels, name="one")
    assert HilbertSpace(list(labels), name="one") is first
    assert HilbertSpace(iter(labels), "one", None) is first
    assert copy.copy(first) is first and copy.deepcopy(first) is first
    prod = tensor_space(DEV, first)
    assert tensor_space(DEV, first) is prod
    assert copy.copy(prod) is prod and copy.deepcopy(prod) is prod
    a, b = (catlab.load_scenario("cat")[0] for _ in range(2))
    assert a.space is b.space and a.lab is not b.lab
    assert a.states["alive"].space is b.space
    # a differing name or factors is a different space
    distinct = [
        first,
        HilbertSpace(labels),
        HilbertSpace(labels, name="two"),
        HilbertSpace(labels, name=""),
        HilbertSpace(("one-b", "one-a"), name="one"),
        HilbertSpace(prod.labels, name=prod.name),
        HilbertSpace(prod.labels, name=prod.name, factors=(first, DEV)),
        prod,
    ]
    assert len({id(s) for s in distinct}) == len(distinct)
    assert [s.name for s in distinct[:4]] == ["one", None, "two", ""]
    assert distinct[5].factors is None and distinct[6].factors == (first, DEV)


def test_threads_building_one_new_space_get_one_object():
    barrier = threading.Barrier(8)
    built = [None] * 8

    def build(i):
        barrier.wait(timeout=30)
        built[i] = [HilbertSpace((f"race-{k}", "other"), name="race") for k in range(200)]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the lookup and the store
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(200):
        assert len({id(row[k]) for row in built}) == 1, k
    assert len({id(s) for s in built[0]}) == 200


SPACES_SCRIPT = """
import pickle, sys
from catlab import HilbertSpace, tensor_space
cat = HilbertSpace(("alive", "dead"), name="cat")
spaces = [cat, tensor_space(HilbertSpace(("undecayed", "decayed"), name="device"), cat)]
if sys.argv[1] == "dump":
    sys.stdout.write(pickle.dumps(spaces).hex())
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
    loaded.append(loaded[1].factors[1])
    fresh = {s: i for i, s in enumerate(spaces)}
    print([(s == spaces[i % 2], hash(s) == hash(spaces[i % 2]), fresh.get(s))
           for i, s in enumerate(loaded)])
"""


def test_a_space_hashes_like_a_fresh_one_after_pickling():
    # a string's hash depends on PYTHONHASHSEED, so a hash stored at
    # construction must not travel with the pickle
    def run(seed, mode, data=None):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-c", SPACES_SCRIPT, mode], input=data,
                              capture_output=True, text=True, check=True, env=env).stdout

    got = run("2", "load", run("1", "dump"))
    assert got == "[(True, True, 0), (True, True, 1), (True, True, 0)]\n"


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


# entries near the float maximum whose differences from their conjugate
# partners overflow, in sign or in modulus
HUGE_SKEW = [
    [[0, 1.7e308], [-1.7e308, 0]],
    [[0.5, 1.7e308 + 1.7e308j], [-1.7e308 + 1.7e308j, 0.5]],
]


@pytest.mark.parametrize("mat", HUGE_SKEW, ids=["real", "complex"])
@pytest.mark.parametrize("build, message", [
    (lambda mat: Operator(CAT, mat, "projector"), "projector is not Hermitian"),
    (lambda mat: DensityMatrix(CAT, mat), "density matrix is not Hermitian"),
], ids=["projector", "density"])
def test_hermitian_checks_do_not_overflow(build, message, mat):
    # RuntimeWarning is an error under the pytest settings, so an overflow
    # inside the check would fail here before the message is compared
    with pytest.raises(CatlabError, match=message):
        build(mat)


@pytest.mark.parametrize("dim, diagonal, trace", [
    (2, [1.0, 1.0], "(2+0j)"),
    (2, [0.6, 0.7], "(1.2999999999999998+0j)"),
    (3, [0.1, 0.2, 0.3], "(0.6000000000000001+0j)"),
    (5, [0.3] * 5, "(1.5+0j)"),
    # a trace past the float range: the diagonal's sum, and at d = 8 the sum
    # of its quarters too, would overflow
    (2, [1.7e308] * 2, "(inf+0j)"),
    (8, [1.7e308] * 8, "(inf+0j)"),
])
def test_trace_check_reports_the_trace_without_overflow(dim, diagonal, trace):
    # under the pytest settings an overflow warning would fail here first
    message = f"density matrix trace = {trace}, expected 1"
    with pytest.raises(CatlabError) as exc:
        DensityMatrix(space_of_dim(dim), np.diag(diagonal))
    assert str(exc.value) == message


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
    red = partial_trace(make_mixture([(1.0, psi)]), keep="cat")
    assert np.max(np.abs(red.mat - np.eye(2) / 2)) < 1e-12
    red_dev = partial_trace(make_mixture([(1.0, psi)]), keep="device")
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
    assert states_match(make_mixture([(1.0, plus)]), plus)
    even = make_mixture(
        [(0.5, basis_state(CAT, "alive")), (0.5, basis_state(CAT, "dead"))]
    )
    # fidelity of the even mixture against |+> is only 1/2
    assert not states_match(even, plus)


def test_states_match_refuses_a_target_on_another_space():
    # both branches: a target of equal dimension and bits on another space,
    # and one of another dimension, which the matrix product would refuse
    # with numpy's own error
    for x in (basis_state(CAT, "alive"), make_mixture([(1.0, basis_state(CAT, "alive"))])):
        for target in (basis_state(DEV, "undecayed"), basis_state(space_of_dim(4), "a")):
            with pytest.raises(DimensionMismatch):
                states_match(x, target)


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
