"""Teleportation protocol runs, the correction table, and closed forms.

The frozen correction table is re-derived here by brute force: for every
(shared Bell pair, sender outcome) the unique gate in {I, X, Z, XZ} that
restores the input must match the table entry.

Both protocols contract all measurement outcomes at once.  The walks below
run them one branch at a time through the qcore primitives, validating
every intermediate state, and are the oracle the protocols are pinned to.
"""
import math

import numpy as np
import pytest

from ctpower.channels import (
    MATCHED_AXIS,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    channel_from_config,
    channel_to_config,
    ms_state,
)
from ctpower.errors import (
    CorrectionMismatchError,
    DimensionError,
    NormalizationError,
    RangeError,
)
from ctpower.protocol import (
    INPUT_FAMILIES,
    _CT_TABLE,
    _GATES,
    _controller_measurement,
    _resolve_input,
    ArbitraryInput,
    XYInput,
    XZInput,
    YZInput,
    bob_correction,
    controlled_teleport,
    input_state,
    ncf_batch,
    ncf_ms_closed,
    ncf_theta_closed,
    receiver_map,
    unconditioned_teleport,
)
from ctpower.qcore import (
    BELL_OUTCOMES,
    BellOutcome,
    PureState,
    apply_gate,
    bell_state,
    equal_up_to_global_phase,
    make_qubit,
    partial_trace,
    pauli,
    project_single_qubit,
    project_two_qubit,
    tensor,
    to_density,
)
from ctpower.verify import _random_local_unitary


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return PureState(v / np.linalg.norm(v))


def random_ms(rng, c_floor=0.05):
    while True:
        alpha = rng.uniform(0, 2 * np.pi)
        if abs(math.cos(alpha)) >= c_floor:
            return MSChannel(c=math.cos(alpha), d=math.sin(alpha))


def random_theta(rng):
    beta = rng.uniform(0, 2 * np.pi)
    return ThetaChannel(
        a=math.cos(beta), b=math.sin(beta), k="xyz"[int(rng.integers(3))]
    )


# ---------------------------------------------------------------------------
# the branch-by-branch oracle

def walk_controlled(spec, f, controller_basis=None):
    """[(controller label, Bell outcome, probability, receiver amps)]."""
    phi = _resolve_input(f)
    joint = tensor(phi, spec.state)
    branches = []
    for label, cvec, _ in _controller_measurement(spec, controller_basis):
        p_ctrl, after_ctrl = project_single_qubit(joint, 1, cvec)
        if after_ctrl is None:
            continue
        # remaining register: (input, sender, receiver)
        for outcome in BELL_OUTCOMES:
            p_bell, after_bell = project_two_qubit(
                after_ctrl, 0, 1, bell_state(outcome)
            )
            if after_bell is None:
                continue
            if isinstance(spec, RawChannel):
                best = None
                for gate in _GATES.values():  # I, X, Z, XZ; ties keep the first
                    candidate = apply_gate(gate, 0, after_bell)
                    fid = abs(np.vdot(phi.amps, candidate.amps)) ** 2
                    if best is None or fid > best[0] + 1e-12:
                        best = (fid, candidate)
                corrected = best[1]
            else:
                gate = bob_correction(outcome, label, spec)
                corrected = apply_gate(gate, 0, after_bell)
            branches.append((label, outcome, p_ctrl * p_bell, corrected.amps))
    return branches


def walk_unconditioned(spec, f):
    """(rho3 matrix, spread of the per-outcome states); raises on mismatch."""
    phi = _resolve_input(f)
    joint = tensor(phi, spec.state)
    mats, probs = [], []
    for outcome in BELL_OUTCOMES:
        p, post = project_two_qubit(joint, 0, 2, bell_state(outcome))
        if post is None:
            continue
        # post register: (controller, receiver)
        corrected = apply_gate(bob_correction(outcome, None, spec), 1, post)
        mats.append(partial_trace(to_density(corrected), (0,)).mat)
        probs.append(p)
    spread = max(float(np.max(np.abs(a - b))) for a in mats for b in mats)
    if spread > 1e-10:
        raise CorrectionMismatchError(f"spread {spread:.3e}")
    return sum(p * m for p, m in zip(probs, mats)) / sum(probs), spread


def rotated_on_controller(spec, unitary):
    """A named channel as a raw state with ``unitary`` on the controller, and
    the named controller basis rotated along with it."""
    basis = [cvec for _, cvec, _ in _controller_measurement(spec, None)]
    raw = RawChannel(state=apply_gate(unitary, 0, spec.state))
    return raw, tuple(PureState(unitary @ b.amps) for b in basis)


# ---------------------------------------------------------------------------
# input families

def test_input_state_forms():
    s = input_state(ArbitraryInput(theta=1.0, phi=0.5))
    assert np.allclose(
        s.amps, [math.cos(0.5), np.exp(0.5j) * math.sin(0.5)]
    )
    assert np.allclose(
        input_state(XZInput(theta=2.0)).amps, [math.cos(1.0), math.sin(1.0)]
    )
    assert np.allclose(
        input_state(XYInput(phi=0.7)).amps,
        np.array([1.0, np.exp(0.7j)]) / np.sqrt(2),
    )
    # fixed relative phase i on the y-z circle
    assert np.allclose(
        input_state(YZInput(theta=np.pi)).amps, [math.cos(np.pi / 2), 1j]
    )


def test_family_formula_serves_members_and_arrays():
    # one formula per family: on an array of angles it gives exactly the
    # members' states, and the family's matched theta axis has zero Pauli
    # expectation on every member
    angles = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 64)
    for name, axis in MATCHED_AXIS.items():
        cls = INPUT_FAMILIES[name]
        members = np.array([input_state(cls(float(t))).amps for t in angles])
        assert np.array_equal(np.stack(cls.amplitudes(angles), axis=1), members)
        expectation = np.einsum("ni,ij,nj->n", members.conj(), pauli(axis), members)
        assert np.max(np.abs(expectation)) <= 1e-12


def test_input_family_ranges():
    assert ArbitraryInput(theta=np.pi, phi=0.0).theta == np.pi  # closed at pi
    with pytest.raises(RangeError):
        ArbitraryInput(theta=np.pi + 1e-6, phi=0.0)
    with pytest.raises(RangeError):
        ArbitraryInput(theta=1.0, phi=2 * np.pi)  # half-open at 2pi
    with pytest.raises(RangeError):
        XZInput(theta=-0.1)
    with pytest.raises(RangeError):
        XYInput(phi=7.0)
    with pytest.raises(RangeError):
        YZInput(theta=float("nan"))


# ---------------------------------------------------------------------------
# correction table

def test_correction_table_rederived_by_brute_force():
    rng = np.random.default_rng(61)
    probes = [random_qubit(rng) for _ in range(3)]
    for shared in BELL_OUTCOMES:
        for sender in BELL_OUTCOMES:
            winners = set()
            for phi in probes:
                joint = tensor(phi, bell_state(shared))
                prob, post = project_two_qubit(joint, 0, 1, bell_state(sender))
                assert prob > 1e-12 and post is not None
                exact = [
                    name
                    for name, gate in _GATES.items()
                    if abs(np.vdot(phi.amps, gate @ post.amps)) > 1.0 - 1e-10
                ]
                assert len(exact) == 1  # unique perfect correction
                winners.add(exact[0])
            assert winners == {_CT_TABLE[(shared, sender)]}


def test_bob_correction_with_controller_matches_table():
    spec = MSChannel(c=0.6, d=0.8)
    got = bob_correction(BellOutcome.PHI_MINUS, "x+", spec)
    assert np.array_equal(got, _GATES["Z"])
    got = bob_correction(BellOutcome.PHI_MINUS, "x-", spec)
    assert np.array_equal(got, _GATES["I"])
    # GHZ reference branch
    assert np.array_equal(
        bob_correction(BellOutcome.PHI_PLUS, "x+", GHZChannel()), _GATES["I"]
    )
    with pytest.raises(ValueError):
        bob_correction(BellOutcome.PHI_PLUS, "sideways", spec)


# ---------------------------------------------------------------------------
# controlled teleportation

def test_controlled_teleport_is_exact_on_random_channels():
    rng = np.random.default_rng(67)
    for _ in range(60):
        pick = int(rng.integers(3))
        spec = (
            GHZChannel() if pick == 0
            else random_ms(rng) if pick == 1
            else random_theta(rng)
        )
        family = ArbitraryInput(
            theta=rng.uniform(0, np.pi), phi=rng.uniform(0, 2 * np.pi)
        )
        run = controlled_teleport(spec, family)
        assert run.min_fidelity > 1.0 - 1e-12
        assert abs(run.total_probability - 1.0) < 1e-12
        target = input_state(family)
        for branch in run.branches:
            assert equal_up_to_global_phase(branch.receiver_state, target, 1e-10)


def test_controller_outcome_probabilities_ms():
    # controller outcomes weigh ((1+d)^2+c^2)/4 and ((1-d)^2+c^2)/4
    for c, d in ((0.6, 0.8), (0.8, -0.6), (1.0, 0.0)):
        run = controlled_teleport(MSChannel(c=c, d=d), ArbitraryInput(1.1, 2.2))
        p_plus = sum(b.probability for b in run.branches if b.charlie_outcome == "x+")
        p_minus = sum(b.probability for b in run.branches if b.charlie_outcome == "x-")
        assert abs(p_plus - ((1 + d) ** 2 + c * c) / 4) < 1e-12
        assert abs(p_minus - ((1 - d) ** 2 + c * c) / 4) < 1e-12
        # conditioned on the controller, the four Bell outcomes are uniform
        for b in run.branches:
            base = p_plus if b.charlie_outcome == "x+" else p_minus
            assert abs(b.probability - base / 4) < 1e-12


def test_controller_outcome_probabilities_theta():
    run = controlled_teleport(
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"),
        XZInput(theta=1.3),
    )
    p0 = sum(b.probability for b in run.branches if b.charlie_outcome == "0")
    p1 = sum(b.probability for b in run.branches if b.charlie_outcome == "1")
    assert abs(p0 - 0.3) < 1e-12
    assert abs(p1 - 0.7) < 1e-12
    assert run.min_fidelity > 1.0 - 1e-12


def test_controlled_teleport_accepts_bare_states_with_phase():
    # a global phase on the input cannot change any probability or fidelity
    base = input_state(ArbitraryInput(0.9, 0.4))
    rotated = PureState(np.exp(1j * 1.23) * base.amps)
    run_a = controlled_teleport(MSChannel(0.6, 0.8), base)
    run_b = controlled_teleport(MSChannel(0.6, 0.8), rotated)
    for x, y in zip(run_a.branches, run_b.branches):
        assert abs(x.probability - y.probability) < 1e-12
        assert abs(x.fidelity - y.fidelity) < 1e-12


def test_raw_channel_controller_basis_rules():
    ghz_raw = RawChannel(state=GHZChannel().state)
    family = ArbitraryInput(1.0, 0.5)
    with pytest.raises(ValueError):
        controlled_teleport(ghz_raw, family)  # basis required
    with pytest.raises(ValueError):
        controlled_teleport(
            ghz_raw, family,
            controller_basis=(make_qubit(1.0, 0.0), make_qubit(1.0, 0.0)),
        )  # not orthogonal
    with pytest.raises(ValueError):
        controlled_teleport(
            GHZChannel(), family,
            controller_basis=(make_qubit(1.0, 0.0), make_qubit(0.0, 1.0)),
        )  # named families fix their own basis
    s = 1 / np.sqrt(2)
    hadamard_basis = (make_qubit(s, s), make_qubit(s, -s))
    run = controlled_teleport(ghz_raw, family, controller_basis=hadamard_basis)
    assert run.min_fidelity > 1.0 - 1e-12
    # the computational basis strands the receiver in a product state
    run = controlled_teleport(
        ghz_raw, family,
        controller_basis=(make_qubit(1.0, 0.0), make_qubit(0.0, 1.0)),
    )
    assert run.min_fidelity < 0.999


def test_controlled_teleport_matches_the_branch_walk():
    rng = np.random.default_rng(79)
    s = 1 / np.sqrt(2)
    ghz_raw = RawChannel(state=GHZChannel().state)
    cases = [
        (GHZChannel(), None),
        (MSChannel(c=0.6, d=0.8), None),
        (MSChannel(c=0.6, d=-0.8), None),
        (MSChannel(c=0.0, d=1.0), None),
        (MSChannel(c=0.0, d=-1.0), None),
        (ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"), None),
        (ThetaChannel(a=math.sqrt(0.7), b=-math.sqrt(0.3), k="x"), None),
        # controller outcome 1 never happens
        (ThetaChannel(a=1.0, b=0.0, k="z"), None),
        rotated_on_controller(MSChannel(c=0.8, d=-0.6), _random_local_unitary(rng)),
        rotated_on_controller(ThetaChannel(0.6, 0.8, "y"), _random_local_unitary(rng)),
        (ghz_raw, (make_qubit(s, s), make_qubit(s, -s))),
        # the receiver ends in |0> or |1>: on the equator all four
        # candidate corrections tie, and the first (I) must win
        (ghz_raw, (make_qubit(1.0, 0.0), make_qubit(0.0, 1.0))),
    ]
    inputs = [XYInput(0.9), make_qubit(1.0, 0.0)] + [random_qubit(rng) for _ in range(4)]
    for spec, basis in cases:
        for f in inputs:
            run = controlled_teleport(spec, f, controller_basis=basis)
            walk = walk_controlled(spec, f, controller_basis=basis)
            assert [(b.charlie_outcome, b.bell_outcome) for b in run.branches] == [
                (label, outcome) for label, outcome, _, _ in walk
            ]
            target = _resolve_input(f).amps
            for branch, (_, _, prob, amps) in zip(run.branches, walk):
                assert abs(branch.probability - prob) < 1e-12
                assert np.max(np.abs(branch.receiver_state.amps - amps)) < 1e-12
                fid = abs(np.vdot(target, amps)) ** 2
                assert abs(branch.fidelity - min(fid, 1.0)) < 1e-12
    run = controlled_teleport(ThetaChannel(a=1.0, b=0.0, k="z"), inputs[2])
    assert {b.charlie_outcome for b in run.branches} == {"0"}


def test_unconditioned_teleport_matches_the_branch_walk():
    rng = np.random.default_rng(83)
    specs = [
        GHZChannel(),
        MSChannel(c=0.6, d=0.8),
        MSChannel(c=0.8, d=-0.6),
        MSChannel(c=0.0, d=-1.0),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"),
        ThetaChannel(a=math.sqrt(0.8), b=math.sqrt(0.2), k="y"),
        ThetaChannel(a=1.0, b=0.0, k="x"),
        rotated_on_controller(MSChannel(c=0.6, d=-0.8), _random_local_unitary(rng))[0],
        rotated_on_controller(ThetaChannel(0.8, 0.6, "x"), _random_local_unitary(rng))[0],
    ]
    inputs = [make_qubit(1.0, 0.0), YZInput(2.5)] + [random_qubit(rng) for _ in range(4)]
    product = np.zeros(8, dtype=complex)
    product[0] = 1.0
    # |000> with the input |0>: the sender never sees psi+ or psi-
    pairs = [(spec, f) for spec in specs for f in inputs] + [
        (RawChannel(state=PureState(product)), inputs[0])
    ]
    for spec, f in pairs:
        result = unconditioned_teleport(spec, f)
        rho, spread = walk_unconditioned(spec, f)
        assert np.max(np.abs(result.rho3.mat - rho)) < 1e-12
        phi = _resolve_input(f).amps
        assert abs(result.ncf - np.vdot(phi, rho @ phi).real) < 1e-12
        assert result.per_outcome_equal == (spread <= 1e-12)
    # a generic raw state has no single correction; both walks say so
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    generic = RawChannel(state=PureState(v / np.linalg.norm(v)))
    with pytest.raises(CorrectionMismatchError):
        walk_unconditioned(generic, inputs[2])
    with pytest.raises(CorrectionMismatchError):
        unconditioned_teleport(generic, inputs[2])


def test_degenerate_ms_controller_measures_in_the_computational_basis():
    # at c = 0 (and wherever c^2 <= 1e-12) the controller is a product
    # factor; its |0> outcome names the Bell pair the channel shares
    for c, d, label in ((0.0, 1.0, "x+"), (0.0, -1.0, "x-"), (1e-7, -1.0, "x-")):
        run = controlled_teleport(MSChannel(c=c, d=d), ArbitraryInput(1.2, 0.4))
        assert {b.charlie_outcome for b in run.branches} == {label}
        assert run.min_fidelity > 1.0 - 1e-12
        assert abs(run.total_probability - 1.0) < 1e-12


def test_teleport_input_dimension_check():
    with pytest.raises(DimensionError):
        controlled_teleport(GHZChannel(), bell_state(BellOutcome.PHI_PLUS))


# ---------------------------------------------------------------------------
# non-conditioned teleportation and closed forms

def test_ncf_matches_ms_closed_form_on_grid():
    thetas = np.linspace(0.0, np.pi, 10)
    phis = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    for theta, phi in zip(thetas, phis):
        family = ArbitraryInput(theta=float(theta), phi=float(phi))
        k0, k1 = input_state(family).amps
        for d in np.linspace(-1.0, 1.0, 9):
            spec = MSChannel(c=math.sqrt(1 - d * d), d=float(d))
            result = unconditioned_teleport(spec, family)
            assert abs(result.ncf - ncf_ms_closed(k0, k1, d)) < 1e-12
            assert result.per_outcome_equal
            assert abs(float(result.rho3.mat.trace().real) - 1.0) < 1e-12


def test_ncf_closed_form_reference_points():
    assert ncf_ms_closed(1.0, 0.0, 0.37) == pytest.approx(1.0)
    s = 1 / math.sqrt(2)
    assert ncf_ms_closed(s, s, 0.0) == pytest.approx(0.5)
    assert ncf_ms_closed(s, s, 1.0) == pytest.approx(1.0)
    with pytest.raises(NormalizationError):
        ncf_ms_closed(1.0, 1.0, 0.0)


def test_ncf_rho_structure_ms():
    # corrected receiver state: diag(|k0|^2, |k1|^2) with |d| k0 k1* coherence
    family = ArbitraryInput(theta=1.2, phi=0.8)
    k0, k1 = input_state(family).amps
    for d in (0.6, -0.6):
        spec = MSChannel(c=math.sqrt(1 - d * d), d=d)
        rho = unconditioned_teleport(spec, family).rho3.mat
        want = np.array(
            [
                [abs(k0) ** 2, abs(d) * k0 * np.conj(k1)],
                [abs(d) * np.conj(k0) * k1, abs(k1) ** 2],
            ]
        )
        assert np.max(np.abs(rho - want)) < 1e-12


def test_ncf_matches_theta_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(40):
        spec = random_theta(rng)
        family = ArbitraryInput(
            theta=rng.uniform(0, np.pi), phi=rng.uniform(0, 2 * np.pi)
        )
        sim = unconditioned_teleport(spec, family).ncf
        hi, lo = sorted((spec.a, spec.b), key=abs, reverse=True)
        assert abs(sim - ncf_theta_closed(hi, lo, spec.k, family)) < 1e-12


def test_ncf_theta_closed_is_the_a_dominant_form():
    family = XYInput(phi=0.3)
    got = ncf_theta_closed(math.sqrt(0.7), math.sqrt(0.3), "x", family)
    k0, k1 = input_state(family).amps
    expectation = abs(np.conj(k0) * k1 + np.conj(k1) * k0) ** 2
    assert got == pytest.approx(0.7 + 0.3 * expectation, abs=1e-12)


def test_matched_theta_family_is_flat_at_the_dominant_weight():
    members = {
        "y": [XZInput(t) for t in np.linspace(0, 2 * np.pi, 25, endpoint=False)],
        "z": [XYInput(p) for p in np.linspace(0, 2 * np.pi, 25, endpoint=False)],
        "x": [YZInput(t) for t in np.linspace(0, 2 * np.pi, 25, endpoint=False)],
    }
    for axis, inputs in members.items():
        for a2 in (0.25, 0.5, 0.75):
            spec = ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1 - a2), k=axis)
            vals = [unconditioned_teleport(spec, f).ncf for f in inputs]
            assert max(abs(v - max(a2, 1 - a2)) for v in vals) < 1e-12


def test_ncf_ghz_equals_ms_at_d_zero():
    family = ArbitraryInput(theta=0.9, phi=4.0)
    ghz = unconditioned_teleport(GHZChannel(), family).ncf
    ms = unconditioned_teleport(MSChannel(c=1.0, d=0.0), family).ncf
    assert abs(ghz - ms) < 1e-15


def test_ncf_raw_channel_uses_best_single_correction():
    # raw GHZ amplitudes behave like the GHZ spec without the controller
    family = ArbitraryInput(theta=0.9, phi=4.0)
    raw = RawChannel(state=GHZChannel().state)
    ghz = unconditioned_teleport(GHZChannel(), family).ncf
    assert abs(unconditioned_teleport(raw, family).ncf - ghz) < 1e-12


# ---------------------------------------------------------------------------
# batch path stays pinned to the scalar path

def test_ncf_batch_matches_unconditioned_teleport_pointwise():
    rng = np.random.default_rng(73)
    specs = [
        GHZChannel(),
        MSChannel(c=0.6, d=0.8),
        MSChannel(c=0.6, d=-0.8),
        ThetaChannel(a=math.sqrt(0.7), b=math.sqrt(0.3), k="y"),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="x"),
        RawChannel(state=MSChannel(c=0.8, d=0.6).state),
        # a unitary on the controller qubit leaves the receiver's map alone
        RawChannel(state=apply_gate(
            _random_local_unitary(rng), 0, ThetaChannel(0.6, -0.8, "z").state
        )),
    ]
    qubits = [random_qubit(rng) for _ in range(25)]
    k0 = np.array([q.amps[0] for q in qubits])
    k1 = np.array([q.amps[1] for q in qubits])
    for spec in specs:
        batch = ncf_batch(spec, k0, k1)
        for i, q in enumerate(qubits):
            scalar = unconditioned_teleport(spec, q).ncf
            assert abs(batch[i] - scalar) < 1e-12
    # a generic raw state has no single correction; both paths say so
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    generic = RawChannel(state=PureState(v / np.linalg.norm(v)))
    with pytest.raises(CorrectionMismatchError):
        ncf_batch(generic, k0, k1)
    with pytest.raises(CorrectionMismatchError):
        unconditioned_teleport(generic, qubits[0])


def test_ncf_batch_shape_check():
    with pytest.raises(DimensionError):
        ncf_batch(GHZChannel(), np.array([1.0]), np.array([0.0, 1.0]))


def test_ncf_batch_rejects_unnormalized_and_non_finite_amplitudes():
    spec = MSChannel(c=0.6, d=0.8)
    for k0 in (2.0, 1.0 + 1e-9, float("nan"), float("inf"), complex(0.0, float("nan"))):
        with pytest.raises(NormalizationError):
            ncf_batch(spec, [1.0, k0], [0.0, 0.0])
    s = 1 / math.sqrt(2)
    assert ncf_batch(spec, [1.0 + 1e-11, s], [0.0, 1j * s]) == pytest.approx([1.0, 0.9])


def test_receiver_map_shapes():
    # MS: dephasing that shrinks the equator by |d|; theta: shrink by
    # a^2 - b^2 off the channel axis, identity along it
    for d in (0.8, -0.8):
        t, T = receiver_map(MSChannel(c=0.6, d=d))
        assert np.max(np.abs(t)) < 1e-14
        assert np.max(np.abs(T - np.diag([0.8, 0.8, 1.0]))) < 1e-14
    for k, axis in (("x", 0), ("y", 1), ("z", 2)):
        for a, b in ((0.6, 0.8), (0.8, -0.6)):
            t, T = receiver_map(ThetaChannel(a, b, k))
            want = np.full(3, abs(a * a - b * b))
            want[axis] = 1.0
            assert np.max(np.abs(t)) < 1e-14
            assert np.max(np.abs(T - np.diag(want))) < 1e-14


def test_receiver_map_is_built_once_and_read_only():
    t, T = receiver_map(MSChannel(c=0.6, d=0.8))
    # an equal spec reuses the cached map
    assert receiver_map(MSChannel(c=0.6, d=0.8))[1].base is T.base
    for view in (t, T, T.base):
        with pytest.raises(ValueError):
            view[0] = 2.0
    assert np.max(np.abs(T - np.diag([0.8, 0.8, 1.0]))) < 1e-14
    # raw channels parsed from the same text are equal, so they share it too
    text = channel_to_config(RawChannel(state=MSChannel(c=0.8, d=-0.6).state))
    first, second = channel_from_config(text), channel_from_config(text)
    assert first == second and hash(first) == hash(second)
    assert receiver_map(second)[1].base is receiver_map(first)[1].base
