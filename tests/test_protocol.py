"""Teleportation protocol runs, the correction rule, and closed forms.

The correction rule (an XOR of Pauli bits) is re-derived here by brute
force: for every (shared Bell pair, sender outcome) the unique gate in
{I, X, Z, XZ} that restores the input must be the one the rule gives.
The Bell pair a raw channel's controller outcome names is checked the
same way: its correction must do as well, averaged over inputs, as the
best of the four.  The certificate of perfect controlled teleportation,
read off each channel's Bell amplitudes, is pinned to the corrected Kraus
operators branch by branch and to the controlled walk on inputs.

The controlled protocol is the stack of corrected Kraus operators, and
without the controller every number comes from the receiver's map, the
Pauli channel of the Bell weights.  The walks run both protocols one
branch at a time through the formulas of ``oracles.py`` and are the
oracle the protocols are pinned to: ``walk_controlled`` below, validating
every intermediate state, and ``walk_unconditioned`` in ``oracles.py``,
which validates each input's joint register and its result.  Every
channel has a map, and ``per_outcome_equal`` is pinned to the spread of the
per-outcome transfer matrices of ``transfer_matrix_per_outcome``.
"""
import math
from dataclasses import fields

import numpy as np
import pytest

from ctpower import channels, paper, protocol, verify
from ctpower.analysis import FAMILY_NAMES, _rng, avg_fidelity_numeric
from ctpower.channels import (
    MATCHED_AXIS,
    ControllerBasis,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    _bell_table,
    _bell_weights,
    _ms_amps,
    channel_from_config,
    channel_to_config,
)
from ctpower.errors import DimensionError, NormalizationError, RangeError
from ctpower.protocol import (
    INPUT_FAMILIES,
    _CORRECTIONS,
    _SPREAD_PER_COHERENCE,
    _ct_certificate,
    _kraus,
    _lambdas,
    _maps,
    ArbitraryInput,
    XYInput,
    XZInput,
    YZInput,
    controlled_teleport,
    input_state,
    ncf_batch,
    receiver_map,
    unconditioned_teleport,
)
from ctpower.qcore import (
    BELL_OUTCOMES,
    IDENTITY,
    PAULI_X,
    PAULI_Z,
    ZERO_PROB,
    BellOutcome,
    PureState,
    bell_state,
    make_qubit,
    pauli,
)
from oracles import (
    apply_gate,
    controller_outcomes,
    correction,
    design,
    dominant_pair,
    equal_up_to_global_phase,
    max_coherence,
    outcome_spread,
    project_single_qubit,
    project_two_qubit,
    random_channels,
    random_local_unitary,
    stack_specs,
    tensor,
    transfer_matrix_per_outcome,
    walk_ncf,
    walk_unconditioned,
)

# the receiver's candidate corrections
PAULIS = {"I": IDENTITY, "X": PAULI_X, "Z": PAULI_Z, "XZ": PAULI_X @ PAULI_Z}

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


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

def walk_controlled(spec, f):
    """[(controller label, Bell outcome, probability, receiver amps)]."""
    phi = input_state(f)
    joint = tensor(phi, spec.state)
    branches = []
    for label, cvec, shared in controller_outcomes(spec):
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
            corrected = apply_gate(correction(shared, outcome), 0, after_bell)
            branches.append((label, outcome, p_ctrl * p_bell, corrected.amps))
    return branches


def amps_of(specs):
    """The (n, 8) amplitudes of a list of specs."""
    return np.array([spec.state.amps for spec in specs])


def patch_basis(monkeypatch, edit):
    """Patch the protocol's controller rule to return ``edit`` of the real
    rule's (bras, pairs, rows)."""
    real = protocol._controller_basis
    monkeypatch.setattr(protocol, "_controller_basis", lambda amps: ControllerBasis(*edit(*real(amps))))


def swap_pairs(rows):
    """A ``patch_basis`` edit: the channels in ``rows`` have their two
    controller outcomes name each other's Bell pair."""
    def edit(bras, pairs, basis_rows):
        pairs[rows] = pairs[rows, ::-1]
        return bras, pairs, basis_rows

    return edit


def rotated_on_controller(spec, rng):
    """A named channel as a raw state whose computational controller basis is
    the named one: D B^dagger on the controller, with B holding the named
    basis vectors as columns and D a random diagonal phase."""
    basis = np.column_stack([cvec.amps for _, cvec, _ in controller_outcomes(spec)])
    phases = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2)))
    return RawChannel(state=apply_gate(phases @ basis.conj().T, 0, spec.state))


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


def test_input_state_takes_members_and_one_qubit_states():
    qubit = make_qubit(0.6, 0.8j)
    assert input_state(qubit) is qubit
    with pytest.raises(DimensionError, match="must be a single qubit"):
        input_state(bell_state(BellOutcome.PHI_PLUS))
    with pytest.raises(TypeError, match="not an input family"):
        input_state((0.6, 0.8))
    for run in (controlled_teleport, unconditioned_teleport):
        with pytest.raises(DimensionError):
            run(GHZChannel(), bell_state(BellOutcome.PHI_PLUS))


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


@pytest.mark.parametrize(
    "cls, angle",
    [(cls, f.name) for cls in INPUT_FAMILIES.values() for f in fields(cls)],
    ids=lambda v: getattr(v, "name", v),
)
def test_input_family_ranges(cls, angle):
    # every angle lies in [0, 2pi) but ArbitraryInput's theta, in [0, pi];
    # values down to -1e-12 clamp to 0, and up to pi + 1e-12 to the closed pi
    closed = cls is ArbitraryInput and angle == "theta"
    upper = np.pi if closed else 2.0 * np.pi

    def member(value):
        return cls(**{f.name: value if f.name == angle else 0.5 for f in fields(cls)})

    for value in (-1e-12, -5e-13, -0.0, 0.0):
        assert getattr(member(value), angle) == 0.0, value
    inside = np.nextafter(upper, 0.0)
    assert getattr(member(inside), angle) == inside
    if closed:
        for value in (np.pi, np.pi + 5e-13, np.pi + 1e-12):
            assert getattr(member(value), angle) == np.pi, value
        beyond = (np.pi + 2e-12, np.pi + 1e-6, 3.5)
    else:
        beyond = (upper, upper + 1e-13, 7.0)
    for value in (-2e-12, -0.1, *beyond):
        with pytest.raises(RangeError, match=rf"^{angle} = .* outside \[0, "):
            member(value)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(RangeError, match=rf"^{angle} must be finite"):
            member(value)


# ---------------------------------------------------------------------------
# correction rule

def test_correction_table_rederived_by_brute_force():
    rng = np.random.default_rng(61)
    probes = [random_qubit(rng) for _ in range(3)]
    for i, shared in enumerate(BELL_OUTCOMES):
        for j, sender in enumerate(BELL_OUTCOMES):
            winners = set()
            for phi in probes:
                joint = tensor(phi, bell_state(shared))
                prob, post = project_two_qubit(joint, 0, 1, bell_state(sender))
                assert prob > 1e-12 and post is not None
                exact = [
                    name
                    for name, gate in PAULIS.items()
                    if abs(np.vdot(phi.amps, gate @ post.amps)) > 1.0 - 1e-10
                ]
                assert len(exact) == 1  # unique perfect correction
                winners.add(exact[0])
            assert len(winners) == 1
            assert np.array_equal(_CORRECTIONS[i ^ j], PAULIS[winners.pop()])


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


def test_raw_channel_controller_basis_is_read_off_its_bell_table():
    family = ArbitraryInput(1.0, 0.5)
    # raw GHZ, and GHZ with a Hadamard on its controller, teleport perfectly:
    # the rule finds the x+- basis on the one and the computational basis
    # on the other
    for state in (GHZChannel().state, apply_gate(HADAMARD, 0, GHZChannel().state)):
        run = controlled_teleport(RawChannel(state=state), family)
        assert {b.charlie_outcome for b in run.branches} == {"0", "1"}
        assert run.min_fidelity > 1.0 - 1e-12
        assert abs(run.total_probability - 1.0) < 1e-12
    # the W state has no basis that makes it perfect: its outcome "0" leaves
    # phi+ and phi- alike
    w = np.zeros(8, dtype=complex)
    w[[0b001, 0b010, 0b100]] = 1.0 / np.sqrt(3.0)
    run = controlled_teleport(RawChannel(state=PureState(w)), family)
    assert run.min_fidelity < 0.999


def test_controlled_teleport_matches_the_branch_walk():
    rng = np.random.default_rng(79)
    cases = [
        GHZChannel(),
        MSChannel(c=0.6, d=0.8),
        MSChannel(c=0.6, d=-0.8),
        MSChannel(c=0.0, d=1.0),
        MSChannel(c=0.0, d=-1.0),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"),
        ThetaChannel(a=math.sqrt(0.7), b=-math.sqrt(0.3), k="x"),
        # controller outcome 1 never happens
        ThetaChannel(a=1.0, b=0.0, k="z"),
        rotated_on_controller(MSChannel(c=0.8, d=-0.6), rng),
        rotated_on_controller(ThetaChannel(0.6, 0.8, "y"), rng),
        RawChannel(state=apply_gate(HADAMARD, 0, GHZChannel().state)),
        # imperfect branches: each outcome's pair of largest weight
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, MSChannel(0.6, 0.8).state)),
        # each controller outcome leaves a product state over which phi+
        # and phi-, or all four pairs, tie: the first (phi+) must win
        RawChannel(state=GHZChannel().state),
        RawChannel(state=PureState(np.kron([1, 0, 0, 0], [1, 1j]) / np.sqrt(2))),
    ]
    inputs = [XYInput(0.9), make_qubit(1.0, 0.0), ArbitraryInput(1.0, 4.0)] + [
        random_qubit(rng) for _ in range(4)
    ]
    for spec in cases:
        for f in inputs:
            run = controlled_teleport(spec, f)
            walk = walk_controlled(spec, f)
            assert [(b.charlie_outcome, b.bell_outcome) for b in run.branches] == [
                (label, outcome) for label, outcome, _, _ in walk
            ]
            target = input_state(f).amps
            for branch, (_, _, prob, amps) in zip(run.branches, walk):
                assert abs(branch.probability - prob) < 1e-12
                assert np.max(np.abs(branch.receiver_state.amps - amps)) < 1e-12
                fid = abs(np.vdot(target, amps)) ** 2
                assert abs(branch.fidelity - min(fid, 1.0)) < 1e-12
    run = controlled_teleport(ThetaChannel(a=1.0, b=0.0, k="z"), inputs[2])
    assert {b.charlie_outcome for b in run.branches} == {"0"}


def test_unconditioned_teleport_matches_the_branch_walk():
    # named channels and raw ones with a unitary on the controller: the map's
    # receiver state, its NCF and the design averages all match the walk
    rng = np.random.default_rng(83)
    specs = [
        MSChannel(c=0.6, d=0.8),
        MSChannel(c=0.8, d=-0.6),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"),
        ThetaChannel(a=math.sqrt(0.8), b=math.sqrt(0.2), k="y"),
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, MSChannel(0.6, -0.8).state)),
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, ThetaChannel(0.8, 0.6, "x").state)),
    ] + mapped_channels(rng, 2)
    inputs = [make_qubit(1.0, 0.0), YZInput(2.5)] + [random_qubit(rng) for _ in range(4)]
    for spec in specs:
        for f in inputs:
            result = unconditioned_teleport(spec, f)
            rho, spread = walk_unconditioned(spec, f)
            assert np.max(np.abs(result.rho3.mat - rho)) < 1e-12
            phi = input_state(f).amps
            assert abs(result.ncf - np.vdot(phi, rho @ phi).real) < 1e-12
            # the map's outcomes agree, and so do the walk's states
            assert result.per_outcome_equal and spread <= 1e-12
        for family in (None,) + FAMILY_NAMES:
            quad = avg_fidelity_numeric(spec, family).mean
            assert abs(quad - np.mean(walk_ncf(spec, *design(family)))) < 1e-12


def test_channels_whose_outcomes_leave_different_maps_have_the_summed_map():
    # the sender's outcome weights depend on the input on the first two.  On
    # |000>, |0> keeps only phi+- and |1> only psi+-; on (|000> + |101>)/sqrt(2)
    # every kept outcome leaves I/2.  The W state and a generic raw state
    # leave different states on the outcomes.  Summed over the outcomes
    # each is the Pauli channel of its Bell weights: the map is the walk,
    # and per_outcome_equal is false
    split = np.zeros(8, dtype=complex)
    split[[0b000, 0b101]] = 1.0 / np.sqrt(2.0)
    w_state = np.eye(8)[[0b001, 0b010, 0b100]].sum(axis=0) / np.sqrt(3.0)
    rng = np.random.default_rng(87)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    tilted = input_state(ArbitraryInput(1.0, 0.5))
    inputs = [make_qubit(1.0, 0.0), make_qubit(0.0, 1.0), tilted, random_qubit(rng)]
    # the sphere means: |000> is the classical limit 2/3; W corrects toward phi+
    for amps, sphere in (
        (np.eye(8)[0], 2.0 / 3.0), (split, 0.5), (w_state, 4.0 / 9.0),
        (v / np.linalg.norm(v), None),
    ):
        spec = RawChannel(state=PureState(amps))
        for f in inputs:
            result = unconditioned_teleport(spec, f)
            rho, _ = walk_unconditioned(spec, f)
            assert np.max(np.abs(result.rho3.mat - rho)) < 1e-12
            assert not result.per_outcome_equal
        k0, k1 = design(None)
        walked = walk_ncf(spec, k0, k1)
        assert np.max(np.abs(ncf_batch(spec, k0, k1) - walked)) < 1e-12
        mean = avg_fidelity_numeric(spec).mean
        assert abs(mean - np.mean(walked)) < 1e-12
        if sphere is not None:
            assert abs(mean - sphere) <= 1e-15
    rho, _ = walk_unconditioned(RawChannel(state=PureState(split)), tilted)
    assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-12


def test_ct_certificate_matches_the_controlled_walk():
    # the certificate covers every input; on sampled inputs each branch of
    # the walk must be one the certificate keeps and return the input, and
    # each controller outcome's branches must sum to its probability
    rng = np.random.default_rng(89)
    specs = [
        GHZChannel(),
        MSChannel(c=0.6, d=-0.8),
        MSChannel(c=0.0, d=1.0),
        # the x+ outcome has probability c^2/4, below ZERO_PROB
        MSChannel(c=1e-7, d=-1.0),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"),
        ThetaChannel(a=1.0, b=0.0, k="z"),
    ] + [random_ms(rng) for _ in range(12)] + [random_theta(rng) for _ in range(12)]
    cert = _ct_certificate(amps_of(specs))
    assert np.max(cert.defect) <= 1e-13
    assert np.max(np.abs(np.sum(cert.probability, axis=1) - 1.0)) <= 1e-12
    inputs = [random_qubit(rng) for _ in range(4)]
    for spec, prob in zip(specs, cert.probability):
        labels = [label for label, _, _ in controller_outcomes(spec)]
        kept = {
            (labels[c], o)
            for c in np.flatnonzero(prob / 4.0 > ZERO_PROB)
            for o in BELL_OUTCOMES
        }
        for f in inputs:
            run = controlled_teleport(spec, f)
            assert {(b.charlie_outcome, b.bell_outcome) for b in run.branches} == kept
            per_outcome = np.zeros_like(prob)
            for b in run.branches:
                assert abs(b.fidelity - 1.0) <= 1e-12
                per_outcome[labels.index(b.charlie_outcome)] += b.probability
            assert np.max(np.abs(per_outcome - prob)) <= 1e-12


def test_certificate_outcome_probabilities_hold_at_every_input():
    # off the perfect channels a branch's probability depends on the input,
    # but each controller outcome's does not: on the W state and 20
    # Haar-random raw channels, at 4 random inputs each, the walk's branches
    # summed over the sender's outcomes give the certificate's probability
    rng = np.random.default_rng(127)
    w = np.zeros(8, dtype=complex)
    w[[0b001, 0b010, 0b100]] = 1.0 / np.sqrt(3.0)
    specs = [RawChannel(state=PureState(w))]
    for _ in range(20):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        specs.append(RawChannel(state=PureState(v / np.linalg.norm(v))))
    cert = _ct_certificate(amps_of(specs))
    for spec, prob in zip(specs, cert.probability):
        labels = [label for label, _, _ in controller_outcomes(spec)]
        for _ in range(4):
            per_outcome = np.zeros_like(prob)
            for label, _, p, _ in walk_controlled(spec, random_qubit(rng)):
                per_outcome[labels.index(label)] += p
            assert np.max(np.abs(per_outcome - prob)) <= 1e-12
    # W: outcome "0", the controller's |1>, leaves |00> and names phi+, so
    # its branches split (1/6, 1/6, 0, 0) at |0> and (0, 0, 1/6, 1/6) at
    # |1>, and only their sum, 1/3, is fixed
    assert np.max(np.abs(cert.probability[0] - [1.0 / 3.0, 2.0 / 3.0])) <= 1e-15
    for phi, want in (((1.0, 0.0), [1, 1, 0, 0]), ((0.0, 1.0), [0, 0, 1, 1])):
        walk = walk_controlled(specs[0], make_qubit(*phi))
        got = [sum(p for label, o, p, _ in walk if (label, o) == ("0", outcome))
               for outcome in BELL_OUTCOMES]
        assert np.max(np.abs(np.array(got) - np.array(want) / 6.0)) <= 1e-12


def test_ms_channels_certify_over_a_log_grid_of_c():
    # 4,000 log-spaced c in [1e-9, 0.98], with d = sqrt(1 - c^2) as the CLI
    # derives it, and their sign flips: every defect is within 1e-15 and
    # every probability sum within 2e-15 of 1 (the largest measured are
    # 3.1e-16, at c = 1.5e-5, and 1.0e-15)
    c = np.logspace(-9.0, math.log10(0.98), 4000)
    d = np.array([math.sqrt(1.0 - x * x) for x in c])
    for sc, sd in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)):
        cert = _ct_certificate(_ms_amps(sc * c, sd * d))
        assert np.max(cert.defect) <= 1e-15
        assert np.max(np.abs(np.sum(cert.probability, axis=1) - 1.0)) <= 2e-15


def test_swapped_controller_pairs_fail_the_certificate(monkeypatch):
    # every correction is then a Pauli off: K = lambda Z on MS (phi+ and
    # phi- swapped), K = lambda X on an x-axis theta channel (phi+ and psi+)
    faulty = [MSChannel(c=0.6, d=0.8), ThetaChannel(a=0.6, b=0.8, k="x")]
    patch_basis(monkeypatch, swap_pairs(slice(None)))
    assert np.min(_ct_certificate(amps_of(faulty)).defect) >= 0.1
    for spec in faulty:
        assert controlled_teleport(spec, ArbitraryInput(1.0, 0.5)).min_fidelity < 0.9
    monkeypatch.undo()
    # one such channel among the check's 200 fails it: the GHZ channel at
    # index 138 of the seed-0 draw, its two named pairs swapped
    assert random_channels(_rng(0, 1), 200)[138] == GHZChannel()
    patch_basis(monkeypatch, swap_pairs(138))
    result = verify.check_perfect_ct(0)
    assert not result.passed
    assert verify.format_report([result], 0, "quick").count("FAIL perfect-ct") == 1
    defect = _ct_certificate(verify._random_channels(_rng(0, 1), 200)).defect
    assert np.flatnonzero(defect > 1e-12).tolist() == [138]


def test_certificate_identities_hold_on_every_kraus_branch(monkeypatch):
    # on every branch (c, o) the corrected Kraus operator K has
    # |K|_F^2 / 2 = |w_c|^2 / 4, so the four sum to outcome c's probability
    # |w_c|^2, and |K - lambda I|_F / sqrt(p) equal to the
    # certificate of outcome c alone, sqrt(2 off_c / |w_c|^2), which is at
    # least the largest entry of |K - lambda I| / sqrt(p): 50 of verify's
    # channels and 40 Haar-random raw channels, most far from perfect
    rng = np.random.default_rng(113)
    raw = []
    for _ in range(40):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        raw.append(RawChannel(state=PureState(v / np.linalg.norm(v))))
    for amps in (verify._random_channels(_rng(0, 1), 50), amps_of(raw)):
        kraus = _kraus(amps)
        prob = np.sum(np.abs(kraus) ** 2, axis=(-2, -1)) / 2.0
        outcome_prob = _ct_certificate(amps).probability
        assert np.max(np.abs(outcome_prob - np.sum(prob, axis=-1))) <= 1e-14
        scale = (kraus[..., 0, 0] + kraus[..., 1, 1]) / 2.0
        residual = kraus - scale[..., None, None] * IDENTITY
        kept = prob > ZERO_PROB
        frobenius = np.sqrt(np.sum(np.abs(residual) ** 2, axis=(-2, -1)) / np.where(kept, prob, 1.0))
        entry = np.max(np.abs(residual), axis=(-2, -1)) / np.sqrt(np.where(kept, prob, 1.0))
        for c in range(2):
            # the certificate of outcome c alone
            patch_basis(monkeypatch, lambda *basis: (a[:, c:c + 1] for a in basis))
            defect = _ct_certificate(amps).defect
            monkeypatch.undo()
            rows = kept[:, c, 0]
            assert np.all(kept[:, c] == rows[:, None])
            assert np.max(np.abs(frobenius[rows, c] - defect[rows, None])) <= 1e-14
            assert np.all(defect[rows, None] >= entry[rows, c] - 1e-15)
            assert np.all(defect[~rows] == 0.0)


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_channels_are_the_spec_oracle_arrays(seed):
    # the amplitudes perfect-ct certifies are, bit for bit, the states of the
    # oracle's specs for the same draws, and both take the same draws from
    # the stream
    rng, oracle_rng = _rng(seed, 1), _rng(seed, 1)
    amps = verify._random_channels(rng, 200)
    want = amps_of(random_channels(oracle_rng, 200))
    assert amps.dtype == want.dtype and amps.shape == want.shape
    assert amps.tobytes() == want.tobytes()
    assert rng.random() == oracle_rng.random()


def raw_pair_cases(rng):
    """Raw channels whose controller outcomes must name a Bell pair: raw
    GHZ, |0> x (|0> + i|1>)/sqrt(2) (every pair ties on each outcome), the
    W state, 20 generic states, and MS and theta channels with a unitary on
    the controller, named-basis and random."""
    w = np.zeros(8, dtype=complex)
    w[[0b001, 0b010, 0b100]] = 1.0 / np.sqrt(3.0)
    cases = [
        RawChannel(state=GHZChannel().state),
        RawChannel(state=PureState(np.kron([1, 0, 0, 0], [1, 1j]) / np.sqrt(2))),
        RawChannel(state=PureState(w)),
    ]
    for _ in range(20):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        cases.append(RawChannel(state=PureState(v / np.linalg.norm(v))))
    for spec in (random_ms(rng), random_theta(rng)):
        cases += [
            rotated_on_controller(spec, rng),
            RawChannel(state=apply_gate(random_local_unitary(rng), 0, spec.state)),
        ]
    return cases


def tetrahedron_walks(spec):
    """walk_controlled at the four tetrahedron inputs, as (input amps,
    {(controller label, Bell outcome): (probability, receiver amps)})."""
    out = []
    for k0, k1 in zip(*design(None)):
        phi = make_qubit(k0, k1)
        walk = walk_controlled(spec, phi)
        out.append((phi.amps, {(label, o): (p, amps) for label, o, p, amps in walk}))
    return out


def test_raw_pair_rule_picks_the_best_pauli_by_brute_force():
    # on each branch the named pair's correction must reach the largest
    # probability-weighted fidelity over {I, X, Z, XZ}, averaged over the
    # tetrahedron: exact, since the weighted fidelity is a quadratic in the
    # input's Bloch vector
    rng = np.random.default_rng(103)
    points = list(zip(*design(None)))
    for spec in raw_pair_cases(rng):
        joints = [tensor(make_qubit(k0, k1), spec.state) for k0, k1 in points]
        for _, cvec, pair in controller_outcomes(spec):
            for outcome in BELL_OUTCOMES:
                scores = dict.fromkeys(PAULIS, 0.0)
                for (k0, k1), joint in zip(points, joints):
                    p_ctrl, after_ctrl = project_single_qubit(joint, 1, cvec)
                    if after_ctrl is None:
                        continue
                    p_bell, post = project_two_qubit(after_ctrl, 0, 1, bell_state(outcome))
                    if post is None:
                        continue
                    for name, gate in PAULIS.items():
                        fid = abs(np.vdot([k0, k1], gate @ post.amps)) ** 2
                        scores[name] += p_ctrl * p_bell * fid / len(points)
                named = next(
                    name for name, gate in PAULIS.items()
                    if np.array_equal(gate, correction(pair, outcome))
                )
                assert scores[named] >= max(scores.values()) - 1e-12


def test_ct_certificate_certifies_raw_channels():
    # a raw channel is certified like a named one: raw GHZ, the
    # Hadamard-rotated GHZ and the controller-rotated named channels return
    # every input, and |0>(|0>+i|1>) and W do not.  On every raw channel the walk's branch probabilities,
    # averaged over the tetrahedron, are |K|_F^2 / 2 = p, and summed over the
    # sender's outcomes the certificate's outcome probabilities; so is the
    # weighted fidelity |<phi|K|phi>|^2, whose average is
    # (|tr K|^2 + |K|_F^2)/6 = (4 |lambda|^2 + 2 p)/6, lambda = tr K / 2
    rng = np.random.default_rng(107)
    ghz_h = RawChannel(state=apply_gate(HADAMARD, 0, GHZChannel().state))
    cases = raw_pair_cases(rng)
    amps = amps_of([ghz_h] + cases)
    cert = _ct_certificate(amps)
    kraus = _kraus(amps)
    scales = (kraus[..., 0, 0] + kraus[..., 1, 1]) / 2.0
    branch_probs = np.sum(np.abs(kraus) ** 2, axis=(-2, -1)) / 2.0
    # GHZ, raw and Hadamard-rotated, and the rotated named channels
    assert np.max(cert.defect[[0, 1, -4, -3, -2, -1]]) <= 1e-13
    assert np.min(cert.defect[2:4]) >= 0.1  # |0>(|0>+i|1>), W
    for spec, scale, prob, outcome_prob in zip(
        [ghz_h] + cases, scales, branch_probs, cert.probability
    ):
        labels = [label for label, _, _ in controller_outcomes(spec)]
        mean_prob = np.zeros_like(prob)
        mean_weighted = np.zeros_like(prob)
        for phi, branches in tetrahedron_walks(spec):
            for (label, outcome), (p, amps) in branches.items():
                index = labels.index(label), BELL_OUTCOMES.index(outcome)
                mean_prob[index] += p / 4.0
                mean_weighted[index] += p * abs(np.vdot(phi, amps)) ** 2 / 4.0
        assert np.max(np.abs(mean_prob - prob)) <= 1e-12
        assert np.max(np.abs(np.sum(mean_prob, axis=-1) - outcome_prob)) <= 1e-12
        assert np.max(np.abs(mean_weighted - (4.0 * abs(scale) ** 2 + 2.0 * prob) / 6.0)) <= 1e-12


def test_degenerate_ms_controller_measures_in_the_computational_basis():
    # at c = 0 the controller is the product factor |0>, and at c = 1e-7
    # all but; the outcome that holds |0> names the Bell pair the channel
    # shares, and the other has probability c^2/4, below ZERO_PROB
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
    # each input also times a global phase, which leaves its NCF but gives
    # k0 an imaginary part
    thetas = np.linspace(0.0, np.pi, 10)
    phis = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    for theta, phi in zip(thetas, phis):
        amps = input_state(ArbitraryInput(theta=float(theta), phi=float(phi))).amps
        for k0, k1 in (amps, np.exp(0.7j) * amps):
            for d in np.linspace(-1.0, 1.0, 9):
                spec = MSChannel(c=math.sqrt(1 - d * d), d=float(d))
                result = unconditioned_teleport(spec, make_qubit(k0, k1))
                assert abs(result.ncf - paper.ms_ncf(d, k0, k1)) < 1e-12
                assert result.per_outcome_equal
                assert abs(float(result.rho3.mat.trace().real) - 1.0) < 1e-12


def test_ncf_closed_form_reference_points():
    assert paper.ms_ncf(0.37, 1.0, 0.0) == pytest.approx(1.0)
    s = 1 / math.sqrt(2)
    assert paper.ms_ncf(0.0, s, s) == pytest.approx(0.5)
    assert paper.ms_ncf(1.0, s, s) == pytest.approx(1.0)
    assert paper.ms_ncf(np.array([0.0, -1.0]), s, 1j * s) == pytest.approx([0.5, 1.0])


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
        k = input_state(family).amps
        e2 = abs(np.vdot(k, pauli(spec.k) @ k)) ** 2
        closed = paper.theta_ncf(spec.a, spec.b, e2)
        assert abs(sim - closed) < 1e-12
        assert closed == paper.theta_ncf(spec.b, spec.a, e2)


def test_ncf_theta_closed_is_the_a_dominant_form():
    k0, k1 = input_state(XYInput(phi=0.3)).amps
    expectation = abs(np.conj(k0) * k1 + np.conj(k1) * k0) ** 2  # <sigma_x>^2
    got = paper.theta_ncf(math.sqrt(0.7), math.sqrt(0.3), expectation)
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
# the map's NCF stays pinned to the walk

def test_ncf_batch_matches_the_branch_walk_pointwise():
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
            random_local_unitary(rng), 0, ThetaChannel(0.6, -0.8, "z").state
        )),
    ]
    qubits = [random_qubit(rng) for _ in range(25)]
    k0 = np.array([q.amps[0] for q in qubits])
    k1 = np.array([q.amps[1] for q in qubits])
    for spec in specs:
        assert np.max(np.abs(ncf_batch(spec, k0, k1) - walk_ncf(spec, k0, k1))) < 1e-12


def test_walk_measures_nearly_normalized_inputs_as_normalized():
    # inputs within the 1e-10 norm tolerance give the fidelity of the
    # normalized input, as the walk does, never a value outside [0, 1]
    spec = MSChannel(c=0.6, d=0.8)
    qubit = make_qubit(1 + 1e-11, 0)
    assert abs(unconditioned_teleport(spec, qubit).ncf - walk_ncf(spec, 1 + 1e-11, 0)[0]) <= 1e-12
    s = (1 - 4e-11) / math.sqrt(2)
    k0, k1 = [1 + 1e-11, s, 1 - 1e-11], [0.0, 1j * s, 0.0]
    assert np.max(np.abs(walk_ncf(spec, k0, k1) - ncf_batch(spec, k0, k1))) <= 1e-12


def test_ncf_batch_shape_check():
    with pytest.raises(DimensionError):
        ncf_batch(GHZChannel(), np.array([1.0]), np.array([0.0, 1.0]))


def test_ncf_batch_rejects_unnormalized_and_non_finite_amplitudes():
    spec = MSChannel(c=0.6, d=0.8)
    for k0 in (2.0, 1.0 + 1e-9, float("nan"), float("inf"), complex(0.0, float("nan"))):
        with pytest.raises(NormalizationError, match="at index 1,"):
            ncf_batch(spec, [1.0, k0], [0.0, 0.0])
    s = 1 / math.sqrt(2)
    assert ncf_batch(spec, [1.0 + 1e-11, s], [0.0, 1j * s]) == pytest.approx([1.0, 0.9])


def test_receiver_map_shapes():
    # MS: dephasing that shrinks the equator by |d|; theta: shrink by
    # |a^2 - b^2| off the channel axis, identity along it
    for d in (0.8, -0.8):
        lam = receiver_map(MSChannel(c=0.6, d=d))
        assert lam.shape == (3,)
        assert np.max(np.abs(lam - [0.8, 0.8, 1.0])) < 1e-14
    # near d = 0 the Bell weights (1 +- d)/2 tie within 1e-12 and the earlier
    # pair, phi+, is corrected toward: lambda = (d, d, 1)
    for d in (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 0.6, -0.6):
        lam = receiver_map(MSChannel(c=math.sqrt(1.0 - d * d), d=d))
        assert np.max(np.abs(lam - [abs(d), abs(d), 1.0])) <= 1e-12
    for k, axis in (("x", 0), ("y", 1), ("z", 2)):
        for a, b in ((0.6, 0.8), (0.8, -0.6)):
            want = np.full(3, abs(a * a - b * b))
            want[axis] = 1.0
            assert np.max(np.abs(receiver_map(ThetaChannel(a, b, k)) - want)) < 1e-14


def mapped_channels(rng, count):
    """Edge-case named channels, then ``count`` rounds of a random MS and
    theta channel and each of them as a raw channel with its controller
    rotated: on all of them the sender's outcomes leave one map."""
    specs = [GHZChannel(), MSChannel(c=0.0, d=-1.0), ThetaChannel(1.0, 0.0, "x")]
    for _ in range(count):
        ms, theta = random_ms(rng, c_floor=0.0), random_theta(rng)
        specs += [
            ms, theta, rotated_on_controller(ms, rng),
            RawChannel(state=apply_gate(random_local_unitary(rng), 0, theta.state)),
        ]
    return specs


def test_receiver_map_matches_the_per_outcome_oracle():
    # lambda from the Bell weights is the diagonal of the oracle's transfer
    # matrix; the two sum in different orders, so they agree to rounding
    for spec in mapped_channels(np.random.default_rng(97), 40):
        oracle = transfer_matrix_per_outcome(spec)
        assert np.max(np.abs(receiver_map(spec) - np.diagonal(oracle)[1:])) <= 2e-15


def assert_pauli_channel(transfer):
    """R_00 = 1 and every other entry off the diagonal within 1e-15: the
    first row (R_00, 0, 0, 0) keeps the trace, the first column holds no
    shift, and the Bloch map scales each axis on its own."""
    assert abs(transfer[0, 0] - 1.0) <= 1e-15
    assert np.max(np.abs(transfer - np.diag(np.diagonal(transfer)))) <= 1e-15


def test_transfer_matrix_preserves_the_trace():
    # summed over the sender's outcomes the protocol is a Pauli twirl, so the
    # transfer matrix is diagonal: receiver_map's three numbers are all of it
    for spec in mapped_channels(np.random.default_rng(101), 20):
        assert_pauli_channel(transfer_matrix_per_outcome(spec))
    # the twirl holds for every channel, also where the outcomes' own maps
    # differ: lambda is the summed diagonal, and the walk is the map
    rng = np.random.default_rng(107)
    for _ in range(50):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        spec = RawChannel(state=PureState(v / np.linalg.norm(v)))
        oracle = transfer_matrix_per_outcome(spec)
        assert_pauli_channel(oracle)
        assert np.max(np.abs(receiver_map(spec) - np.diagonal(oracle)[1:])) <= 2e-15
        f = random_qubit(rng)
        result = unconditioned_teleport(spec, f)
        assert np.max(np.abs(result.rho3.mat - walk_unconditioned(spec, f)[0])) < 1e-12
        assert not result.per_outcome_equal


def test_receiver_map_is_built_once_and_read_only():
    lam = receiver_map(MSChannel(c=0.6, d=0.8))
    # an equal spec reuses the cached map
    assert receiver_map(MSChannel(c=0.6, d=0.8)) is lam
    with pytest.raises(ValueError):
        lam[0] = 2.0
    assert np.max(np.abs(lam - [0.8, 0.8, 1.0])) < 1e-14
    # raw channels parsed from the same text are equal, so they share it too
    text = channel_to_config(RawChannel(state=MSChannel(c=0.8, d=-0.6).state))
    first, second = channel_from_config(text), channel_from_config(text)
    assert first == second and hash(first) == hash(second)
    assert receiver_map(second) is receiver_map(first)


def test_a_receiver_map_reads_one_bell_table(monkeypatch):
    # a cache miss, on every kind of channel, contracts one Bell table and
    # nothing else: the coherence B_pq is unconditioned_teleport's alone
    tables, contractions = [], []
    real, real_einsum = protocol._bell_table, np.einsum
    monkeypatch.setattr(protocol, "_bell_table", lambda amps: tables.append(amps) or real(amps))
    monkeypatch.setattr(channels, "_bell_table", None)  # no second table elsewhere
    monkeypatch.setattr(
        np, "einsum", lambda subs, *ops: contractions.append(subs) or real_einsum(subs, *ops)
    )
    for spec in stack_specs(np.random.default_rng(167), gaussians=2):
        tables.clear()
        contractions.clear()
        lam = protocol.receiver_map.__wrapped__(spec)
        assert len(tables) == 1 and lam.shape == (3,), spec
        assert contractions == ["nck,pk->ncp"], spec


def test_stacked_lambdas_are_the_one_row_maps_bit_for_bit():
    # one stack of every kind of channel: MS from c = 0 up to GHZ, theta on
    # every axis with a^2 below, at and above 1/2 and b of either sign, and
    # raw Gaussian, W and controller-rotated MS and theta channels, which
    # correct toward phi+.  _maps over the stack is each spec's cached
    # one-row map, and _lambdas at the pairs the oracle picks on its own;
    # the Bell weights are diag B, bit for bit
    specs = stack_specs(np.random.default_rng(163))
    amps = np.array([spec.state.amps for spec in specs])
    lam = _maps(amps, [spec.family == "raw" for spec in specs])
    assert lam.shape == (len(specs), 3)
    for spec, row in zip(specs, lam):
        assert row.tobytes() == receiver_map(spec).tobytes(), spec
        assert row.tobytes() == _maps(spec.state.amps[None], spec.family == "raw")[0].tobytes()
    table = _bell_table(amps)
    weights = _bell_weights(table)
    dominant = np.array([BELL_OUTCOMES.index(dominant_pair(spec)) for spec in specs])
    assert lam.tobytes() == _lambdas(weights, dominant).tobytes()
    for spec, t, w in zip(specs, table, weights):
        bell = np.einsum("cp,cq->pq", t, t.conj())
        assert w.tobytes() == np.diagonal(bell).real.tobytes(), spec


def test_spread_per_coherence_is_rederived_from_the_per_outcome_oracle():
    # each outcome's transfer matrix, over its weight 1/4, is linear in the
    # Bell matrix B.  A Bell pair alone leaves the four outcomes one map;
    # an off-diagonal pair B_pq = x + iy moves outcome o's matrix by
    # x X + y Y, read off the oracle at chi = (bell_p + e^{i phi} bell_q)/sqrt(2)
    # for phi = 0, pi (X) and -pi/2, pi/2 (Y).  The largest sum over p < q
    # of sqrt(dX^2 + dY^2) between two outcomes bounds the spread by
    # kappa max |B_pq|, for every dominant pair
    bells = [bell_state(o).amps for o in BELL_OUTCOMES]

    def per_outcome(chi, dominant):
        spec = RawChannel(state=PureState(np.concatenate([chi, np.zeros(4)])))
        return 4.0 * transfer_matrix_per_outcome(spec, dominant, summed=False)

    for dominant in BELL_OUTCOMES:
        for bell in bells:
            alone = per_outcome(bell, dominant)
            assert np.max(np.abs(alone - alone[0])) <= 1e-15
        bound = np.zeros((4, 4, 4, 4))
        for p in range(4):
            for q in range(p + 1, 4):
                r = {
                    phi: per_outcome((bells[p] + np.exp(1j * phi) * bells[q]) / math.sqrt(2.0), dominant)
                    for phi in (0.0, np.pi, -np.pi / 2.0, np.pi / 2.0)
                }
                x, y = r[0.0] - r[np.pi], r[-np.pi / 2.0] - r[np.pi / 2.0]
                bound += np.hypot(x[:, None] - x[None], y[:, None] - y[None])
        assert abs(np.max(bound) - _SPREAD_PER_COHERENCE) <= 1e-12


def perturbed(spec, rng, eps):
    """``spec``'s amplitudes moved by ``eps`` in a random complex direction,
    renormalized, as a raw channel."""
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps = spec.state.amps + eps * v / np.linalg.norm(v)
    return RawChannel(state=PureState(amps / np.linalg.norm(amps)))


def test_per_outcome_equal_is_no_looser_than_the_per_outcome_spread():
    # per_outcome_equal holds only where the oracle finds the outcomes' maps
    # within 1e-12, the spread never exceeds kappa max |B_pq|, and the
    # perturbations reach both sides of the flag
    rng = np.random.default_rng(109)
    flags = set()
    for eps in np.logspace(-13, -9, 9):
        for spec in mapped_channels(rng, 4):
            raw = perturbed(spec, rng, eps)
            spread = outcome_spread(raw)
            assert spread <= _SPREAD_PER_COHERENCE * max_coherence(raw) + 1e-15
            equal = unconditioned_teleport(raw, XZInput(0.3)).per_outcome_equal
            assert type(equal) is bool
            if equal:
                assert spread <= 1e-12
            flags.add(equal)
    assert flags == {True, False}
