"""Register linear algebra, checked against independent full-matrix oracles.

The package's state containers, gates and Bell pairs live in ``ctpower.qcore``;
the step-by-step primitives the other tests' oracles use (gate application,
projections, partial trace, fidelity, the real y rotation) live in
``tests/oracles.py`` and are checked here too, since every oracle needs its
own check."""
import numpy as np
import pytest

from ctpower.errors import DimensionError, NormalizationError
from ctpower.qcore import (
    BELL_OUTCOMES,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellOutcome,
    DensityOperator,
    PureState,
    bell_state,
    make_qubit,
    pauli,
)
from oracles import (
    PAULI_Y_REAL,
    apply_gate,
    equal_up_to_global_phase,
    fidelity_with_pure,
    partial_trace,
    project_single_qubit,
    project_two_qubit,
    tensor,
    to_density,
)


def random_state(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(v / np.linalg.norm(v))


def embed(gate, target, n):
    """Full 2^n matrix for a single-qubit gate, by plain kron chaining."""
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, gate if q == target else np.eye(2))
    return out


def partial_trace_loops(mat, n, discard):
    """Index-by-index partial trace, no einsum."""
    keep = [q for q in range(n) if q not in discard]
    dim = 2 ** len(keep)
    out = np.zeros((dim, dim), dtype=complex)

    def bits(idx, qubits):
        return tuple((idx >> (n - 1 - q)) & 1 for q in qubits)

    def pack(vals):
        r = 0
        for b in vals:
            r = (r << 1) | b
        return r

    for i in range(2**n):
        for j in range(2**n):
            if bits(i, discard) != bits(j, discard):
                continue
            out[pack(bits(i, keep)), pack(bits(j, keep))] += mat[i, j]
    return out


# ---------------------------------------------------------------------------
# state containers

def test_pure_state_rejects_bad_norm():
    with pytest.raises(NormalizationError):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_rejects_bad_length():
    with pytest.raises(DimensionError):
        PureState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        PureState(np.array([1.0]))  # zero qubits
    amps = np.zeros(32)
    amps[0] = 1.0
    with pytest.raises(DimensionError):
        PureState(amps)  # five qubits


def test_pure_state_rejects_non_finite():
    with pytest.raises(NormalizationError):
        PureState(np.array([np.nan, 0.0]))


def test_pure_state_is_read_only():
    s = make_qubit(1.0, 0.0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.5


def test_density_operator_validation():
    good = DensityOperator(np.eye(2) / 2)
    assert good.num_qubits == 1
    cases = [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), ValueError),  # not Hermitian
        (np.eye(2), NormalizationError),  # trace 2
        (np.array([[1.5, 0.0], [0.0, -0.5]]), ValueError),  # negative eigenvalue
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), NormalizationError),
    ]
    for bad, error in cases:
        with pytest.raises(error):
            DensityOperator(bad)
    with pytest.raises(DimensionError):
        DensityOperator(np.eye(3) / 3)


# ---------------------------------------------------------------------------
# gates

def test_pauli_constants():
    for axis, mat in (("x", PAULI_X), ("y", PAULI_Y), ("z", PAULI_Z)):
        assert pauli(axis) is mat
        assert np.allclose(mat @ mat, np.eye(2))
        assert np.allclose(mat, mat.conj().T)
    assert np.allclose(PAULI_Y_REAL, PAULI_X @ PAULI_Z)
    assert np.allclose(PAULI_Y_REAL, -1j * PAULI_Y)
    with pytest.raises(ValueError):
        pauli("w")


def test_apply_gate_matches_full_matrix():
    rng = np.random.default_rng(101)
    gates = [PAULI_X, PAULI_Y, PAULI_Z, PAULI_Y_REAL, IDENTITY]
    for _ in range(60):
        n = int(rng.integers(1, 5))
        target = int(rng.integers(n))
        state = random_state(rng, n)
        gate = gates[int(rng.integers(len(gates)))]
        got = apply_gate(gate, target, state).amps
        want = embed(gate, target, n) @ state.amps
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_gate_validation():
    s = random_state(np.random.default_rng(0), 2)
    with pytest.raises(DimensionError):
        apply_gate(np.eye(4), 0, s)
    with pytest.raises(IndexError):
        apply_gate(PAULI_X, 2, s)


def test_tensor_matches_kron_and_respects_limit():
    rng = np.random.default_rng(7)
    a, b = random_state(rng, 2), random_state(rng, 2)
    assert np.allclose(tensor(a, b).amps, np.kron(a.amps, b.amps))
    with pytest.raises(DimensionError):
        tensor(tensor(a, b), make_qubit(1.0, 0.0))


def test_bell_states_are_orthonormal():
    mat = np.stack([bell_state(o).amps for o in BELL_OUTCOMES])
    assert np.allclose(mat @ mat.conj().T, np.eye(4))
    # frozen conventions
    s = 1 / np.sqrt(2)
    assert np.allclose(bell_state(BellOutcome.PHI_PLUS).amps, [s, 0, 0, s])
    assert np.allclose(bell_state(BellOutcome.PSI_MINUS).amps, [0, s, -s, 0])


# ---------------------------------------------------------------------------
# projections

def test_single_qubit_projection_matches_projector_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        target = int(rng.integers(n))
        state = random_state(rng, n)
        onto = random_state(rng, 1)
        prob, post = project_single_qubit(state, target, onto)
        # oracle: apply |onto><onto| on the full register
        proj = embed(np.outer(onto.amps, onto.amps.conj()), target, n)
        want_prob = float(np.vdot(state.amps, proj @ state.amps).real)
        assert abs(prob - want_prob) < 1e-12
        assert post is not None and post.num_qubits == n - 1
        # rebuild the unnormalized projected vector from the post state
        t = np.tensordot(
            onto.amps.conj(), state.amps.reshape((2,) * n), axes=([0], [target])
        ).reshape(-1)
        assert np.max(np.abs(t - np.sqrt(prob) * post.amps)) < 1e-12


def test_projection_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    state = random_state(rng, 3)
    basis = random_state(rng, 1)
    other = PureState(
        np.array([-basis.amps[1].conjugate(), basis.amps[0].conjugate()])
    )
    p0, _ = project_single_qubit(state, 1, basis)
    p1, _ = project_single_qubit(state, 1, other)
    assert abs(p0 + p1 - 1.0) < 1e-12

    total = sum(
        project_two_qubit(state, 0, 2, bell_state(o))[0] for o in BELL_OUTCOMES
    )
    assert abs(total - 1.0) < 1e-12


def test_two_qubit_projection_matches_manual_contraction():
    rng = np.random.default_rng(17)
    for first, second in ((0, 1), (0, 2), (1, 3), (2, 0)):
        state = random_state(rng, 4)
        onto = random_state(rng, 2)
        prob, post = project_two_qubit(state, first, second, onto)
        t = np.tensordot(
            onto.amps.conj().reshape(2, 2),
            state.amps.reshape(2, 2, 2, 2),
            axes=([0, 1], [first, second]),
        ).reshape(-1)
        assert abs(prob - float(np.sum(np.abs(t) ** 2))) < 1e-12
        assert np.max(np.abs(t - np.sqrt(prob) * post.amps)) < 1e-12


def test_projection_zero_probability_returns_none():
    state = PureState(np.array([1, 0, 0, 0], dtype=complex))
    prob, post = project_single_qubit(state, 0, make_qubit(0.0, 1.0))
    assert prob == 0.0 and post is None
    # projecting away every qubit leaves no remainder state
    prob, post = project_two_qubit(
        state, 0, 1, PureState(np.array([1, 0, 0, 0], dtype=complex))
    )
    assert abs(prob - 1.0) < 1e-12 and post is None


def test_projection_validation():
    s = random_state(np.random.default_rng(1), 3)
    with pytest.raises(DimensionError):
        project_single_qubit(s, 0, bell_state(BellOutcome.PHI_PLUS))
    with pytest.raises(IndexError):
        project_two_qubit(s, 1, 1, bell_state(BellOutcome.PHI_PLUS))
    with pytest.raises(IndexError):
        project_single_qubit(s, 3, make_qubit(1.0, 0.0))


# ---------------------------------------------------------------------------
# reduced states, fidelity, phase comparison

def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(23)
    for discard in ((0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 3)):
        n = 3 if max(discard) < 3 else 4
        rho = to_density(random_state(rng, n))
        got = partial_trace(rho, discard).mat
        want = partial_trace_loops(rho.mat, n, set(discard))
        assert np.max(np.abs(got - want)) < 1e-12


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(29)
    a, b = random_state(rng, 1), random_state(rng, 2)
    rho = to_density(tensor(a, b))
    reduced = partial_trace(rho, (1, 2))
    assert np.max(np.abs(reduced.mat - np.outer(a.amps, a.amps.conj()))) < 1e-12


def test_partial_trace_validation():
    rho = to_density(random_state(np.random.default_rng(3), 2))
    with pytest.raises(IndexError):
        partial_trace(rho, ())
    with pytest.raises(IndexError):
        partial_trace(rho, (0, 1))
    with pytest.raises(IndexError):
        partial_trace(rho, (5,))


def test_fidelity_with_pure():
    rng = np.random.default_rng(31)
    phi = random_state(rng, 2)
    assert abs(fidelity_with_pure(to_density(phi), phi) - 1.0) < 1e-12
    psi = random_state(rng, 2)
    want = abs(np.vdot(phi.amps, psi.amps)) ** 2
    assert abs(fidelity_with_pure(to_density(psi), phi) - want) < 1e-12
    with pytest.raises(DimensionError):
        fidelity_with_pure(to_density(phi), make_qubit(1.0, 0.0))
    # a state within the 1e-10 norm tolerance is measured as if normalized
    ket0 = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    assert fidelity_with_pure(ket0, make_qubit(1 + 1e-11, 0)) == pytest.approx(1.0, abs=1e-15)
    # rounding within 1e-12 of [0, 1] is clamped; beyond it the overlap is
    # refused.  Both operators pass the 1e-10 eigenvalue floor
    ket0, ket1 = make_qubit(1.0, 0.0), make_qubit(0.0, 1.0)
    rounded = DensityOperator(np.diag([1.0 + 1e-13, -1e-13]).astype(complex))
    assert fidelity_with_pure(rounded, ket0) == 1.0
    assert fidelity_with_pure(rounded, ket1) == 0.0
    beyond = DensityOperator(np.diag([1.0 + 1e-11, -1e-11]).astype(complex))
    for phi in (ket0, ket1):
        with pytest.raises(ValueError, match="outside"):
            fidelity_with_pure(beyond, phi)


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(37)
    s = random_state(rng, 2)
    rotated = PureState(np.exp(1j * 0.77) * s.amps)
    assert equal_up_to_global_phase(s, rotated)
    assert not equal_up_to_global_phase(
        make_qubit(1.0, 0.0), make_qubit(0.0, 1.0)
    )
    with pytest.raises(DimensionError):
        equal_up_to_global_phase(s, make_qubit(1.0, 0.0))
