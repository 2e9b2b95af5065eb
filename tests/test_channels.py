"""Channel families, the controller basis, and the 3-tangle.

The 3-tangle here is computed from the amplitude hyperdeterminant; the
oracle below recomputes it the long way, as the residual entanglement
C^2_{A(BC)} - C^2_{AB} - C^2_{AC} built from Wootters concurrences.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctpower import verify
from ctpower.channels import (
    TANGLE_BOUND,
    TangleReport,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    _THETA_B,
    _bell_table,
    _bell_weights,
    _controller_basis,
    _ms_amps,
    _tangles,
    _theta_amps,
    channel_from_config,
    channel_to_config,
    check_unit_pair,
    named_channel,
    three_tangle,
)
from ctpower.errors import DimensionError, NormalizationError
from ctpower.protocol import _CORRECTIONS, _ct_certificate, _lambdas, _maps
from ctpower.qcore import (
    BELL_OUTCOMES,
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellOutcome,
    PureState,
    bell_state,
    make_qubit,
)
from oracles import (
    PAULI_Y_REAL,
    apply_gate,
    charlie_kets_scalar,
    computational_pairs_scalar,
    controller_basis_scalar,
    controller_outcomes,
    equal_up_to_global_phase,
    ms_amps_scalar,
    partial_trace,
    tensor,
    theta_amps_scalar,
    three_tangle_scalar,
    to_density,
)


def concurrence_mixed(rho):
    """Wootters concurrence of a 2-qubit density matrix.

    Uses the Hermitian form sqrt(rho) rho_tilde sqrt(rho), whose spectrum
    matches rho rho_tilde but is numerically well conditioned.
    """
    yy = np.kron(PAULI_Y, PAULI_Y)
    rho_tilde = yy @ rho.conj() @ yy
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam2 = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    # reduced states of pure tripartite states are rank 2: two eigenvalues
    # are exact zeros, and sqrt would blow their 1e-17 noise up to 1e-8
    lam2 = np.where(lam2 < 1e-13, 0.0, lam2)
    lam = np.sqrt(lam2)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def residual_tangle(state):
    """tau = C^2_{A(BC)} - C^2_{AB} - C^2_{AC} for a pure 3-qubit state."""
    rho = to_density(state)
    rho_a = partial_trace(rho, (1, 2)).mat
    c_a_bc_sq = 4.0 * float(np.linalg.det(rho_a).real)
    c_ab = concurrence_mixed(partial_trace(rho, (2,)).mat)
    c_ac = concurrence_mixed(partial_trace(rho, (1,)).mat)
    return c_a_bc_sq - c_ab**2 - c_ac**2


def random_state(rng, n=3):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(v / np.linalg.norm(v))


def same_ray(a, b, tol=1e-12):
    """True when unit vectors a and b differ by a phase alone, entry by
    entry within ``tol``."""
    phase = np.vdot(b, a)
    return bool(np.max(np.abs(a - phase / abs(phase) * b)) <= tol)


def haar_unitary(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# parameter validation

def test_check_unit_pair():
    a, b = check_unit_pair(0.6, 0.8, "a, b")
    assert (a, b) == (0.6, 0.8)
    with pytest.raises(NormalizationError) as refused:
        check_unit_pair(0.6, 0.9, "a, b")
    assert str(refused.value) == "a, b must satisfy a unit sum of squares, got 1.17"
    with pytest.raises(NormalizationError) as refused:
        check_unit_pair(0.6 + 0j, 0.8, "c, d")  # complex parameters rejected
    assert str(refused.value) == "c, d must be real numbers"
    # d^2 - 1 = 8e-11 is within the 1e-10 slack, 2e-9 is not
    assert MSChannel(c=0.0, d=1.0 + 4e-11).d == 1.0 + 4e-11
    with pytest.raises(NormalizationError):
        MSChannel(c=0.0, d=1.0 + 1e-9)


def test_check_unit_pair_rejects_non_finite_values():
    nan, inf = float("nan"), float("inf")
    for x, y in ((nan, nan), (nan, 0.0), (0.6, nan), (inf, 0.0), (inf, -inf)):
        with pytest.raises(NormalizationError):
            check_unit_pair(x, y, "a, b")
    with pytest.raises(NormalizationError):
        MSChannel(c=nan, d=nan)
    with pytest.raises(NormalizationError):
        ThetaChannel(a=nan, b=nan, k="z")


def test_channel_spec_validation():
    assert MSChannel(c=0.6, d=-0.8).d == -0.8
    with pytest.raises(NormalizationError):
        MSChannel(c=1.0, d=1.0)
    with pytest.raises(ValueError):
        ThetaChannel(a=0.6, b=0.8, k="q")
    with pytest.raises(DimensionError):
        RawChannel(state=bell_state(BellOutcome.PHI_PLUS))


# ---------------------------------------------------------------------------
# MS states and the controller basis

def test_ms_state_amplitudes():
    s = MSChannel(0.6, 0.8).state
    want = np.zeros(8)
    want[0b000], want[0b111], want[0b011] = 1.0, 0.6, 0.8
    assert np.max(np.abs(s.amps - want / np.sqrt(2.0))) < 1e-15
    assert GHZChannel().state.amps[0b111] == pytest.approx(1 / np.sqrt(2))


def test_charlie_basis_closed_form_and_orthogonality():
    # on MS the rule reaches the closed-form |x+-> basis, each ket up to a
    # phase of its own, and the two kets are orthonormal
    rng = np.random.default_rng(43)
    for _ in range(50):
        alpha = rng.uniform(0, 2 * np.pi)
        c, d = math.cos(alpha), math.sin(alpha)
        if abs(c) < 1e-3:
            continue
        (_, plus, _), (_, minus, _) = controller_outcomes(MSChannel(c, d))
        want_plus, want_minus = charlie_kets_scalar(c, d)
        assert same_ray(plus.amps, want_plus) and same_ray(minus.amps, want_minus)
        assert abs(np.vdot(plus.amps, minus.amps)) < 1e-12


def test_charlie_basis_degenerate_cases():
    # at c = 0 the controller is the product factor |0>: its column is the
    # heaviest, so |0> is x+ at d = 1 and x- at d = -1, up to phase, and
    # the other outcome, which never happens, names phi+.  Near c = 0 the
    # same rule runs, with no fork: every row is finite, unit and
    # orthogonal, with no floating-point warning, the channel certifies, and
    # the spec reads its one row
    for c in (0.0, 1e-7, -1e-7, 1e-6, -1e-6, 1.0000001e-6, -1.0000001e-6):
        for sign in (1.0, -1.0):
            d = sign * math.sqrt(1.0 - c * c)
            amps = _ms_amps(np.array([c]), np.array([d]))
            with np.errstate(all="raise"):
                bras, pairs, _ = _controller_basis(amps)
                defect = _ct_certificate(amps).defect[0]
            assert np.all(np.isfinite(bras))
            assert np.max(np.abs(bras[0] @ bras[0].conj().T - np.eye(2))) < 1e-15
            assert defect <= 1e-15
            kets = np.array([v.amps for _, v, _ in controller_outcomes(MSChannel(c, d))])
            assert kets.tobytes() == bras[0].conj().tobytes()
            if c == 0.0:
                held = 0 if d > 0.0 else 1
                assert same_ray(kets[held], np.array([1.0, 0.0]), 0.0)
                assert pairs[0].tolist() == [0, held]


def test_ms_state_bell_decomposition_identity():
    # (|000>+c|111>+d|011>)/sqrt2 = w+ |x+>|phi+> + w- |x->|phi->: each row
    # the rule leaves holds its named pair alone, with weight
    # |w+-|^2 = ((1 +- d)^2 + c^2)/4
    for alpha in np.linspace(0.05, 2 * np.pi - 0.05, 23):
        c, d = math.cos(alpha), math.sin(alpha)
        if abs(c) < 1e-2:
            continue
        spec = MSChannel(c, d)
        _, pairs, rows = _controller_basis(spec.state.amps[None])
        assert pairs[0].tolist() == [0, 1]
        w = rows[0, [0, 1], [0, 1]]
        p_plus = ((1 + d) ** 2 + c * c) / 4.0
        p_minus = ((1 - d) ** 2 + c * c) / 4.0
        assert abs(p_plus + p_minus - 1.0) < 1e-12
        assert np.max(np.abs(np.abs(w) ** 2 - [p_plus, p_minus])) < 1e-12
        rebuilt = sum(
            w[k] * tensor(ket, bell_state(pair)).amps
            for k, (_, ket, pair) in enumerate(controller_outcomes(spec))
        )
        assert np.max(np.abs(rebuilt - spec.state.amps)) < 1e-12


# ---------------------------------------------------------------------------
# theta channels

def test_bell_labelling_is_the_pauli_on_the_receivers_half_of_phi_plus():
    # one labelling runs through the package: Bell pair p is the correction
    # _CORRECTIONS[p] on the receiver's half of phi+, and a theta channel's
    # b-branch is sigma_k there, the real y for k = y, bit for bit
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2.0)
    for p, outcome in enumerate(BELL_OUTCOMES):
        want = np.kron(IDENTITY, _CORRECTIONS[p]) @ phi_plus
        assert np.array_equal(bell_state(outcome).amps, want)
    for k, sigma in enumerate((PAULI_X, PAULI_Y_REAL, PAULI_Z)):
        want = np.kron([0.0, 1.0], np.kron(IDENTITY, sigma) @ phi_plus)
        assert np.array_equal(_THETA_B[k], want)


def test_theta_channel_branch_structure():
    s = 1 / np.sqrt(2)
    a, b = math.sqrt(0.7), math.sqrt(0.3)
    # b-branch Bell pair per axis: x -> psi+, y -> psi-, z -> phi-
    want_b = {
        "x": np.array([0, s, s, 0]),
        "y": np.array([0, s, -s, 0]),
        "z": np.array([s, 0, 0, -s]),
    }
    for k, pair in want_b.items():
        amps = ThetaChannel(a, b, k).state.amps
        assert np.max(np.abs(amps[:4] - a * np.array([s, 0, 0, s]))) < 1e-12
        assert np.max(np.abs(amps[4:] - b * pair)) < 1e-12


def test_named_channels():
    assert named_channel("tetrahedral_xz", 0.6, 0.8).k == "y"
    assert named_channel("ms_xy", 0.6, 0.8).k == "z"
    assert named_channel("psi_yz", 0.6, 0.8).k == "x"
    with pytest.raises(ValueError):
        named_channel("nope", 0.6, 0.8)


def test_theta_channels_are_locally_unitarily_equivalent():
    """Explicit local-unitary witnesses between the three rotation axes."""
    a, b = math.sqrt(0.7), math.sqrt(0.3)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s_gate = np.diag([1.0, 1j])

    # (I x H x H) theta_x = theta_z
    got = ThetaChannel(a, b, "x").state
    for q in (1, 2):
        got = apply_gate(hadamard, q, got)
    assert equal_up_to_global_phase(got, ThetaChannel(a, b, "z").state)

    # (diag(1,i) x S x S*) theta_y = theta_x
    got = ThetaChannel(a, b, "y").state
    got = apply_gate(s_gate, 0, got)
    got = apply_gate(s_gate, 1, got)
    got = apply_gate(s_gate.conj(), 2, got)
    assert equal_up_to_global_phase(got, ThetaChannel(a, b, "x").state)


def test_channel_state_is_built_once():
    for spec in (GHZChannel(), MSChannel(c=0.6, d=0.8), ThetaChannel(0.6, 0.8, "y")):
        assert spec.state is spec.state
    state = random_state(np.random.default_rng(5))
    raw = RawChannel(state=state)
    assert raw.state is state


def test_computational_controller_names_the_pair_of_largest_weight():
    # a theta channel's |0> leaves phi+ and its |1> the pair
    # (I x sigma_k)|phi+>; its raw copy names the same pairs
    rotated = {
        "x": BellOutcome.PSI_PLUS, "y": BellOutcome.PSI_MINUS, "z": BellOutcome.PHI_MINUS,
    }
    for axis, pair in rotated.items():
        for a, b in ((0.6, 0.8), (0.8, -0.6), (0.0, 1.0)):
            spec = ThetaChannel(a, b, axis)
            for channel in (spec, RawChannel(state=spec.state)):
                labels, _, pairs = zip(*controller_outcomes(channel))
                assert labels == ("0", "1")
                assert pairs == (BellOutcome.PHI_PLUS, pair)
        # the receiver corrects toward the heavier b-branch's pair without the
        # controller, and a raw copy toward phi+
        spec = ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k=axis)
        amps = np.array([spec.state.amps] * 2)
        weights = _bell_weights(_bell_table(amps))
        want = _lambdas(weights, np.array([BELL_OUTCOMES.index(pair), 0]))
        assert _maps(amps, [False, True]).tobytes() == want.tobytes()
    # raw GHZ is an MS channel to the rule: its outcomes are |x+->, which
    # leave phi+ and phi-
    pairs = [o[2] for o in controller_outcomes(RawChannel(state=GHZChannel().state))]
    assert pairs == [BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS]
    # sqrt(0.5 + 1e-13)|psi-> + sqrt(0.5 - 1e-13)|psi+> on the controller's
    # |0>: the two columns' weights differ by 2e-13, so psi+'s is the
    # heaviest and its outcome names psi+; the other outcome, |1>, which
    # never happens, leaves all four weights 0, names phi+ and comes first
    near_tie = np.concatenate([
        math.sqrt(0.5 + 1e-13) * bell_state(BellOutcome.PSI_MINUS).amps
        + math.sqrt(0.5 - 1e-13) * bell_state(BellOutcome.PSI_PLUS).amps,
        np.zeros(4),
    ])
    pairs = [o[2] for o in controller_outcomes(RawChannel(state=PureState(near_tie)))]
    assert pairs == [BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS]


# ---------------------------------------------------------------------------
# 3-tangle

def test_tangle_known_family_values():
    assert three_tangle(GHZChannel().state).tau == pytest.approx(1.0, abs=1e-12)
    for c in np.linspace(0.0, 1.0, 11):
        tau = three_tangle(MSChannel(c, math.sqrt(1 - c * c)).state).tau
        assert abs(tau - c * c) < 1e-12
    for k in "xyz":
        for a2 in np.linspace(0.0, 1.0, 11):
            state = ThetaChannel(math.sqrt(a2), math.sqrt(1 - a2), k).state
            assert abs(three_tangle(state).tau - 4 * a2 * (1 - a2)) < 1e-12


def test_tangle_vanishes_on_product_states():
    bell = bell_state(BellOutcome.PHI_PLUS)
    for qubit in (make_qubit(1.0, 0.0), make_qubit(0.6, 0.8j)):
        assert three_tangle(tensor(qubit, bell)).tau < 1e-12
        assert three_tangle(tensor(bell, qubit)).tau < 1e-12
    # MSChannel(0, 1) = |0>(|00>+|11>)... with c=0 the state factorizes
    assert three_tangle(MSChannel(0.0, 1.0).state).tau < 1e-12


def test_tangle_matches_concurrence_oracle_on_random_states():
    rng = np.random.default_rng(47)
    for _ in range(60):
        state = random_state(rng)
        got = three_tangle(state).tau
        want = residual_tangle(state)
        assert abs(got - want) < 1e-8


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    parts=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    seed=st.integers(0, 2**32 - 1),
)
def test_tangle_local_unitary_invariance(parts, seed):
    # any normalized 3-qubit state, then one Haar unitary on each qubit
    v = np.array(parts[:8]) + 1j * np.array(parts[8:])
    assume(np.linalg.norm(v) >= 1e-3)
    base = PureState(v / np.linalg.norm(v))
    rng = np.random.default_rng(seed)
    state = base
    for q in range(3):
        state = apply_gate(haar_unitary(rng), q, state)
    assert abs(three_tangle(state).tau - three_tangle(base).tau) < 1e-9


def test_tangle_guard_admits_every_state_the_norm_check_admits():
    # tau scales as |psi|^4: a GHZ row at |psi|^2 = 1 + 1e-10, the largest a
    # PureState takes, stays under the guard and is capped at 1; rows past
    # it, at |psi|^2 = 1 + 1.2e-10 (tau ~ 1 + 2.4e-10) and 1.1 (tau = 1.21),
    # are still refused
    ghz = np.zeros(8, dtype=complex)
    for norm2 in (1.0 + 0.99e-10, 1.0 + 1e-10):
        ghz[[0, 7]] = math.sqrt(norm2 / 2.0)
        assert _tangles(ghz[None])[0] == 1.0
    state = PureState(np.sqrt(1.0 + 0.99e-10) * GHZChannel().state.amps)
    assert three_tangle(state) == TangleReport(1.0, True)
    ghz[[0, 7]] = math.sqrt((1.0 + 1.2e-10) / 2.0)
    with pytest.raises(ValueError, match="^3-tangle 1.00000000024.* exceeds 1 beyond tolerance$"):
        _tangles(ghz[None])
    ghz[[0, 7]] = math.sqrt(1.1 / 2.0)
    with pytest.raises(ValueError, match="^3-tangle 1.21.* exceeds 1 beyond tolerance$"):
        _tangles(ghz[None])
    with pytest.raises(ValueError, match="exceeds 1 beyond tolerance"):
        _tangles(np.stack([GHZChannel().state.amps, ghz]))


def test_tangle_bound_threshold():
    assert TANGLE_BOUND == pytest.approx(8.0 / 9.0)
    third = math.sqrt(1.0 / 3.0)
    assert three_tangle(ThetaChannel(third, math.sqrt(2.0 / 3.0), "z").state).meets_bound
    assert not three_tangle(ThetaChannel(0.5, math.sqrt(0.75), "z").state).meets_bound
    with pytest.raises(DimensionError):
        three_tangle(bell_state(BellOutcome.PHI_PLUS))


def tangle_stack(rng):
    """GHZ, a 41-point MS grid, 41-point theta grids on x, y and z, and 100
    Haar-random states, as (n, 8) amplitude rows."""
    grid = np.linspace(0.0, 1.0, 41)
    rows = [GHZChannel().state.amps]
    rows += [MSChannel(c, math.sqrt(1.0 - c * c)).state.amps for c in grid]
    rows += [
        ThetaChannel(math.sqrt(a2), math.sqrt(1.0 - a2), k).state.amps
        for k in "xyz" for a2 in grid
    ]
    rows += [random_state(rng).amps for _ in range(100)]
    return np.array(rows)


def test_stacked_tangles_are_the_one_row_tangle():
    amps = tangle_stack(np.random.default_rng(149))
    taus = _tangles(amps)
    assert taus.shape == (len(amps),)
    for row, tau in zip(amps, taus):
        one = three_tangle(PureState(row)).tau
        assert abs(tau - one) <= 1e-15
        # three_tangle is the one-row stack, bit for bit, and within 1e-15
        # of the scalar formula
        assert one == _tangles(row[None])[0]
        assert abs(one - min(three_tangle_scalar(row), 1.0)) <= 1e-15
    # one row beyond 1 refuses the whole stack
    amps[62] *= 1.1  # the x-axis theta row at a^2 = 1/2, whose tangle is 1
    with pytest.raises(ValueError, match="exceeds 1"):
        _tangles(amps)


def test_stacked_constructors_are_the_scalar_constructors():
    # every stacked row, and every spec's state, is bit for bit the channel
    # the scalar oracle builds one at a time
    grid = np.linspace(0.0, 2.0 * np.pi, 41)
    x, y = np.cos(grid), np.sin(grid)
    for i, row in enumerate(_ms_amps(x, y)):
        want = ms_amps_scalar(x[i], y[i]).tobytes()
        assert row.tobytes() == want == MSChannel(x[i], y[i]).state.amps.tobytes()
    for axis, k in enumerate("xyz"):
        stack = _theta_amps(x, y, np.full(x.size, axis))
        for i, row in enumerate(stack):
            want = theta_amps_scalar(x[i], y[i], k).tobytes()
            assert row.tobytes() == want == ThetaChannel(x[i], y[i], k).state.amps.tobytes()
    # the controller basis: each spec reads its one row of the stack bit for
    # bit, and the stack is the scalar rule, each ket up to its phase; on
    # theta the rule's pairs are the computational ones
    theta = [_theta_amps(x, y, np.full(x.size, axis)) for axis in range(3)]
    amps = np.concatenate([_ms_amps(x, y), *theta, tangle_stack(np.random.default_rng(151))])
    specs = [MSChannel(x[i], y[i]) for i in range(x.size)]
    specs += [ThetaChannel(x[i], y[i], k) for k in "xyz" for i in range(x.size)]
    bras, pairs, rows = _controller_basis(amps)
    for i, row in enumerate(amps):
        one = _controller_basis(row[None])
        assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip((bras, pairs, rows), one))
        kets, want = controller_basis_scalar(row)
        assert pairs[i].tolist() == want
        assert same_ray(kets[0], bras[i, 0].conj()) and same_ray(kets[1], bras[i, 1].conj())
        if i < len(specs):
            named = [v.amps for _, v, _ in controller_outcomes(specs[i])]
            assert np.array(named).tobytes() == bras[i].conj().tobytes()
        if x.size <= i < len(specs):
            assert pairs[i].tolist() == computational_pairs_scalar(row)


def test_three_tangle_check_refuses_a_non_unitary_rotation(monkeypatch):
    real = verify._random_local_unitaries
    monkeypatch.setattr(
        verify, "_random_local_unitaries", lambda rng, n: 1.001 * real(rng, n)
    )
    with pytest.raises(NormalizationError, match="rotated"):
        verify.check_three_tangle(0)


# ---------------------------------------------------------------------------
# config serialization

def test_config_round_trip_all_families():
    rng = np.random.default_rng(59)
    specs = [
        GHZChannel(),
        MSChannel(c=0.6, d=-0.8),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"),
        RawChannel(state=random_state(rng)),
    ]
    for spec in specs:
        back = channel_from_config(channel_to_config(spec))
        assert type(back) is type(spec)
        # float repr round-trips exactly; raw channels compare by amplitudes
        assert back == spec
        assert hash(back) == hash(spec)


def test_config_parsing_errors_and_comments():
    spec = channel_from_config("# a comment\n\nfamily = ghz\n")
    assert isinstance(spec, GHZChannel)
    with pytest.raises(ValueError):
        channel_from_config("family = septet\n")
    with pytest.raises(ValueError):
        channel_from_config("no equals sign here\n")
    with pytest.raises(ValueError):
        channel_from_config("family = raw\namps = 1 0 0\n")
    # a missing key is named; keys the family does not use are ignored
    for text, key in (
        ("family = ms\nc = 0.6\n", "'d'"),
        ("family = theta\na = 0.6\nb = 0.8\n", "'k'"),
        ("family = raw\n", "'amps'"),
    ):
        with pytest.raises(ValueError, match=key):
            channel_from_config(text)
    # a repeated key is named too, rather than the last value kept
    amps = "amps = 1 0 0 0 0 0 0 0\n"
    for text, key in (
        ("family = ghz\nFamily = ms\nc = 0.6\nd = 0.8\n", "'family'"),
        ("family = raw\n" + amps + amps.replace("1 0", "0 1"), "'amps'"),
    ):
        with pytest.raises(ValueError, match=f"repeats the {key} key"):
            channel_from_config(text)
    spec = channel_from_config("family = ms\nc = 0.6\nd = 0.8\nk = x\n")
    assert spec == MSChannel(c=0.6, d=0.8)
