"""Controlled and non-conditioned teleportation over three-qubit channels.

Two protocol variants share the same wiring.  The joint register is always
(input, controller, sender, receiver) = qubits (0, 1, 2, 3):

* ``controlled_teleport``: the controller measures first (collapsing the
  sender+receiver pair onto a known Bell state), then the sender projects
  (input, sender) onto the Bell basis and the receiver applies a Pauli
  correction.  Every branch ends with the input state exactly.

* ``unconditioned_teleport``: the controller abstains.  The sender still
  measures, the receiver corrects toward the dominant channel branch, and
  the controller qubit is traced out.  The resulting mixed state has the
  same fidelity against the input for every sender outcome; that fidelity
  is the non-conditioned fidelity (NCF).

Without the controller the protocol is one fixed qubit channel, the
receiver's Bloch map r -> t + T r (``receiver_map``).  ``ncf_batch``
evaluates that map for arrays of inputs; ``unconditioned_teleport`` walks
the branches one input at a time and is the oracle the tests pin it to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelSpec,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    charlie_basis,
    check_unit_pair,
    realize,
)
from .errors import (
    CorrectionMismatchError,
    DimensionError,
    NormalizationError,
    RangeError,
)
from .qcore import (
    BELL_OUTCOMES,
    EXACT_ATOL,
    IDENTITY,
    INPUT_ATOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Y_REAL,
    PAULI_Z,
    Amplitude,
    BellOutcome,
    DensityOperator,
    PureState,
    apply_gate,
    bell_state,
    fidelity_with_pure,
    make_qubit,
    partial_trace,
    pauli,
    project_single_qubit,
    project_two_qubit,
    tensor,
    to_density,
)

CORRECTION_MISMATCH_ATOL = 1e-10

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# input families

@dataclass(frozen=True)
class InputFamily:
    """Base class for parametrized single-qubit input families."""


def _angle(value, name: str, upper: float, closed: bool) -> float:
    v = float(value)
    if not np.isfinite(v):
        raise RangeError(f"{name} must be finite, got {v!r}")
    if v < -1e-12 or (v > upper + 1e-12 if closed else v >= upper):
        bracket = "]" if closed else ")"
        raise RangeError(f"{name} = {v!r} outside [0, {upper}{bracket}")
    return min(max(v, 0.0), upper)


@dataclass(frozen=True)
class ArbitraryInput(InputFamily):
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, Bloch angles."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _angle(self.theta, "theta", np.pi, True))
        object.__setattr__(self, "phi", _angle(self.phi, "phi", _TWO_PI, False))


@dataclass(frozen=True)
class XZInput(InputFamily):
    """cos(theta/2)|0> + sin(theta/2)|1>: the x-z great circle."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _angle(self.theta, "theta", _TWO_PI, False))


@dataclass(frozen=True)
class XYInput(InputFamily):
    """(|0> + e^{i phi}|1>)/sqrt(2): the equator."""

    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _angle(self.phi, "phi", _TWO_PI, False))


@dataclass(frozen=True)
class YZInput(InputFamily):
    """cos(theta/2)|0> + i sin(theta/2)|1>: the y-z great circle."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _angle(self.theta, "theta", _TWO_PI, False))


def input_state(family: InputFamily) -> PureState:
    """The single-qubit state a family member describes."""
    if isinstance(family, ArbitraryInput):
        half = 0.5 * family.theta
        return make_qubit(np.cos(half), np.exp(1j * family.phi) * np.sin(half))
    if isinstance(family, XZInput):
        half = 0.5 * family.theta
        return make_qubit(np.cos(half), np.sin(half))
    if isinstance(family, XYInput):
        s = 1.0 / np.sqrt(2.0)
        return make_qubit(s, s * np.exp(1j * family.phi))
    if isinstance(family, YZInput):
        half = 0.5 * family.theta
        return make_qubit(np.cos(half), 1j * np.sin(half))
    raise TypeError(f"not an input family: {family!r}")


def _resolve_input(f: InputFamily | PureState) -> PureState:
    if isinstance(f, PureState):
        if f.num_qubits != 1:
            raise DimensionError("teleportation input must be a single qubit")
        return f
    return input_state(f)


# ---------------------------------------------------------------------------
# receiver corrections

_GATES = {
    "I": IDENTITY,
    "X": PAULI_X,
    "Z": PAULI_Z,
    "XZ": PAULI_X @ PAULI_Z,
}

# With the controller's help the sender+receiver pair is a known Bell state;
# the required Pauli product depends only on (that state, sender outcome).
# Derived by brute force over {I, X, Z, XZ} (see the regression test) and
# frozen here.
_CT_TABLE: dict[tuple[BellOutcome, BellOutcome], str] = {
    (BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS): "I",
    (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS): "Z",
    (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS): "X",
    (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS): "XZ",
    (BellOutcome.PHI_MINUS, BellOutcome.PHI_PLUS): "Z",
    (BellOutcome.PHI_MINUS, BellOutcome.PHI_MINUS): "I",
    (BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS): "XZ",
    (BellOutcome.PHI_MINUS, BellOutcome.PSI_MINUS): "X",
    (BellOutcome.PSI_PLUS, BellOutcome.PHI_PLUS): "X",
    (BellOutcome.PSI_PLUS, BellOutcome.PHI_MINUS): "XZ",
    (BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS): "I",
    (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS): "Z",
    (BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS): "XZ",
    (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS): "X",
    (BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS): "Z",
    (BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS): "I",
}

# Channel rotations as used by realize(); the y axis uses the real matrix.
_ROTATIONS = {"x": PAULI_X, "y": PAULI_Y_REAL, "z": PAULI_Z}


def _shared_bell(spec: ChannelSpec, charlie: str) -> BellOutcome:
    """Bell state held by sender+receiver after the controller's outcome."""
    if isinstance(spec, (GHZChannel, MSChannel)):
        table = {"x+": BellOutcome.PHI_PLUS, "x-": BellOutcome.PHI_MINUS}
    elif isinstance(spec, ThetaChannel):
        rotated = {
            "x": BellOutcome.PSI_PLUS,
            "y": BellOutcome.PSI_MINUS,
            "z": BellOutcome.PHI_MINUS,
        }[spec.k]
        table = {"0": BellOutcome.PHI_PLUS, "1": rotated}
    else:
        raise TypeError(f"no canonical controller outcomes for {spec!r}")
    try:
        return table[charlie]
    except KeyError:
        raise ValueError(f"unknown controller outcome {charlie!r}") from None


def bob_correction(
    bell: BellOutcome, charlie: str | None, spec: ChannelSpec
) -> np.ndarray:
    """Receiver's correction gate for a sender outcome.

    With a controller outcome, returns the Pauli product that restores the
    input exactly.  Without one (charlie=None), returns the standard
    teleportation correction aligned with the dominant channel branch: for
    MS channels composed with an extra Z when d < 0, for theta channels
    composed with the channel rotation when b^2 > a^2.  Raw channels get
    the plain standard corrections.
    """
    if charlie is not None:
        return _GATES[_CT_TABLE[(_shared_bell(spec, charlie), bell)]]
    gate = _GATES[_CT_TABLE[(BellOutcome.PHI_PLUS, bell)]]
    if isinstance(spec, MSChannel) and spec.d < 0.0:
        gate = PAULI_Z @ gate
    elif isinstance(spec, ThetaChannel) and spec.b**2 > spec.a**2:
        gate = gate @ _ROTATIONS[spec.k]
    return gate


# ---------------------------------------------------------------------------
# protocol runs

@dataclass(frozen=True)
class CtBranch:
    charlie_outcome: str
    bell_outcome: BellOutcome
    probability: float
    receiver_state: PureState
    fidelity: float


@dataclass(frozen=True)
class CtRunResult:
    branches: tuple[CtBranch, ...]

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    @property
    def min_fidelity(self) -> float:
        return min(b.fidelity for b in self.branches)


@dataclass(frozen=True)
class NcfResult:
    rho3: DensityOperator
    ncf: float
    per_outcome_equal: bool


def _controller_measurement(
    spec: ChannelSpec, controller_basis: tuple[PureState, PureState] | None
) -> tuple[tuple[str, str], tuple[PureState, PureState]]:
    if isinstance(spec, RawChannel):
        if controller_basis is None:
            raise ValueError(
                "raw channels need an explicit controller basis; none is inferred"
            )
        b0, b1 = controller_basis
        if b0.num_qubits != 1 or b1.num_qubits != 1:
            raise DimensionError("controller basis must be single-qubit states")
        if abs(np.vdot(b0.amps, b1.amps)) > INPUT_ATOL:
            raise ValueError("controller basis vectors are not orthogonal")
        return ("0", "1"), (b0, b1)
    if controller_basis is not None:
        raise ValueError("controller basis is fixed for named channel families")
    if isinstance(spec, (GHZChannel, MSChannel)):
        c, d = (1.0, 0.0) if isinstance(spec, GHZChannel) else (spec.c, spec.d)
        return ("x+", "x-"), charlie_basis(c, d)
    if isinstance(spec, ThetaChannel):
        return ("0", "1"), (make_qubit(1.0, 0.0), make_qubit(0.0, 1.0))
    raise TypeError(f"not a channel spec: {spec!r}")


def _best_pauli(target: PureState, received: PureState) -> tuple[np.ndarray, PureState]:
    """Fidelity-maximizing gate from {I, X, Z, XZ}; ties keep that order."""
    best = None
    for name in ("I", "X", "Z", "XZ"):
        candidate = apply_gate(_GATES[name], 0, received)
        fid = float(abs(np.vdot(target.amps, candidate.amps)) ** 2)
        if best is None or fid > best[0] + EXACT_ATOL:
            best = (fid, _GATES[name], candidate)
    return best[1], best[2]


def controlled_teleport(
    spec: ChannelSpec,
    f: InputFamily | PureState,
    controller_basis: tuple[PureState, PureState] | None = None,
) -> CtRunResult:
    """Run the full protocol, enumerating every measurement branch.

    Yields one branch per (controller outcome x sender Bell outcome) with
    its joint probability, corrected receiver state, and fidelity against
    the input.  Branches with zero probability are omitted; the recorded
    probabilities still sum to 1.
    """
    phi = _resolve_input(f)
    joint = tensor(phi, realize(spec))
    labels, basis = _controller_measurement(spec, controller_basis)
    branches: list[CtBranch] = []
    for label, cvec in zip(labels, basis):
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
                _, corrected = _best_pauli(phi, after_bell)
            else:
                gate = bob_correction(outcome, label, spec)
                corrected = apply_gate(gate, 0, after_bell)
            fid = float(abs(np.vdot(phi.amps, corrected.amps)) ** 2)
            branches.append(
                CtBranch(
                    charlie_outcome=label,
                    bell_outcome=outcome,
                    probability=p_ctrl * p_bell,
                    receiver_state=corrected,
                    fidelity=min(fid, 1.0),
                )
            )
    return CtRunResult(branches=tuple(branches))


def unconditioned_teleport(
    spec: ChannelSpec, f: InputFamily | PureState
) -> NcfResult:
    """Teleport without the controller; returns the receiver's mixed state.

    For each sender Bell outcome the controller qubit is traced out after
    the receiver's dominant-branch correction.  The four reduced states
    must coincide (CorrectionMismatchError beyond 1e-10 says the table is
    wrong); their common value gives ncf = <phi| rho3 |phi>.
    """
    phi = _resolve_input(f)
    joint = tensor(phi, realize(spec))
    mats: list[np.ndarray] = []
    probs: list[float] = []
    for outcome in BELL_OUTCOMES:
        p, post = project_two_qubit(joint, 0, 2, bell_state(outcome))
        if post is None:
            continue
        # post register: (controller, receiver)
        gate = bob_correction(outcome, None, spec)
        corrected = apply_gate(gate, 1, post)
        rho = partial_trace(to_density(corrected), (0,))
        mats.append(rho.mat)
        probs.append(p)
    spread = max(
        (float(np.max(np.abs(a - b))) for a in mats for b in mats), default=0.0
    )
    if spread > CORRECTION_MISMATCH_ATOL:
        raise CorrectionMismatchError(
            f"corrected receiver states disagree by {spread:.3e} across sender outcomes"
        )
    total = sum(probs)
    avg = sum(p * m for p, m in zip(probs, mats)) / total
    rho3 = DensityOperator(avg)
    return NcfResult(
        rho3=rho3,
        ncf=fidelity_with_pure(rho3, phi),
        per_outcome_equal=spread <= EXACT_ATOL,
    )


# ---------------------------------------------------------------------------
# closed forms

def ncf_ms_closed(k0: Amplitude, k1: Amplitude, d: float) -> float:
    """|k0|^4 + |k1|^4 + 2|d| |k0|^2 |k1|^2: NCF through an MS channel."""
    p0 = abs(complex(k0)) ** 2
    p1 = abs(complex(k1)) ** 2
    if abs(p0 + p1 - 1.0) > INPUT_ATOL:
        raise NormalizationError(f"|k0|^2+|k1|^2 = {p0 + p1!r}, expected 1")
    return p0 * p0 + p1 * p1 + 2.0 * abs(float(d)) * p0 * p1


def ncf_theta_closed(a: float, b: float, k: str, f: InputFamily | PureState) -> float:
    """a^2 + b^2 |<phi| sigma_k |phi>|^2: NCF through a theta channel.

    This is the form for a dominant a-branch (a^2 >= b^2).  The simulated
    correction always targets the dominant branch, so when b^2 > a^2 the
    simulation matches this function called with the roles swapped.
    """
    a, b = check_unit_pair(a, b, "a, b")
    phi = _resolve_input(f)
    expectation = complex(np.vdot(phi.amps, pauli(k) @ phi.amps))
    return a * a + b * b * abs(expectation) ** 2


# ---------------------------------------------------------------------------
# the receiver's Bloch map, and the vectorized NCF built on it

_PAULI_BASIS = np.array([IDENTITY, PAULI_X, PAULI_Y, PAULI_Z])

# rows per ncf_batch step; bounds the temporaries for any number of inputs
_BATCH_ROWS = 65536


def _transfer_matrix(spec: ChannelSpec) -> np.ndarray:
    """4x4 Pauli transfer matrix R_ij = tr(sigma_i E(sigma_j))/2 of the
    controller-absent protocol E, summed over the sender's outcomes.

    Each outcome contributes two Kraus operators, one per controller basis
    state, already corrected by the receiver.  Every outcome has average
    probability 1/4 over the sphere; divided by that weight, the outcomes'
    matrices must coincide, or the correction table is wrong.
    """
    chan = realize(spec).amps.reshape(2, 2, 2)  # (controller, sender, receiver)
    per_outcome = np.empty((len(BELL_OUTCOMES), 4, 4))
    for o, outcome in enumerate(BELL_OUTCOMES):
        bell = bell_state(outcome).amps.conj().reshape(2, 2)  # (input, sender)
        # kraus[c] maps the input qubit to the receiver, controller left in |c>
        kraus = np.einsum("ts,csr->crt", bell, chan)
        kraus = bob_correction(outcome, None, spec) @ kraus
        per_outcome[o] = 0.5 * np.einsum(
            "iab,cbd,jde,cae->ij", _PAULI_BASIS, kraus, _PAULI_BASIS, kraus.conj()
        ).real
    normed = per_outcome / per_outcome[:, :1, :1]
    spread = float(np.max(np.abs(normed[:, None] - normed[None, :])))
    if spread > CORRECTION_MISMATCH_ATOL:
        raise CorrectionMismatchError(
            f"corrected receiver maps disagree by {spread:.3e} across sender outcomes"
        )
    return per_outcome.sum(axis=0)


def receiver_map(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The receiver's Bloch map r -> t + T r when the controller abstains.

    The protocol without the controller is one fixed qubit channel, so an
    input with Bloch vector r reaches the receiver as t + T r and
    NCF(r) = 1/2 + t.r/2 + r.T.r/2.  Raises CorrectionMismatchError when
    the sender's outcomes leave the receiver in different maps.
    """
    transfer = _transfer_matrix(spec)
    return transfer[1:, 0], transfer[1:, 1:]


def ncf_batch(spec: ChannelSpec, k0, k1) -> np.ndarray:
    """Non-conditioned fidelity for arrays of input amplitudes.

    Evaluates the receiver's Bloch map on the inputs' Bloch vectors,
    divided by the map's output trace, for every channel kind.
    unconditioned_teleport is the branch-walk oracle the test suite pins
    this against pointwise.  Raises NormalizationError unless every
    |k0|^2 + |k1|^2 is 1 within 1e-10.
    """
    k0 = np.asarray(k0, dtype=complex).reshape(-1)
    k1 = np.asarray(k1, dtype=complex).reshape(-1)
    if k0.shape != k1.shape:
        raise DimensionError("k0 and k1 arrays must have matching shapes")
    transfer = _transfer_matrix(spec)
    out = np.empty(k0.size, dtype=float)
    for start in range(0, k0.size, _BATCH_ROWS):
        a, b = k0[start:start + _BATCH_ROWS], k1[start:start + _BATCH_ROWS]
        p0 = a.real**2 + a.imag**2
        p1 = b.real**2 + b.imag**2
        norm = p0 + p1
        bad = ~(np.abs(norm - 1.0) <= INPUT_ATOL)  # NaN compares False
        if bad.any():
            i = int(np.argmax(bad))
            raise NormalizationError(
                f"|k0|^2+|k1|^2 = {float(norm[i])!r} at index {start + i}, expected 1"
            )
        cross = 2.0 * a.conj() * b
        # (|k|^2, r): the Pauli coordinates of |phi><phi|
        bloch = (norm, cross.real, cross.imag, p0 - p1)
        # elementwise, not a BLAS product: BLAS's first call adds its work
        # buffer to the peak memory of the whole process
        image = [sum(r * x for r, x in zip(row, bloch)) for row in transfer]
        out[start:start + _BATCH_ROWS] = (
            0.5 * sum(y * x for y, x in zip(image, bloch)) / image[0]
        )
    return np.clip(out, 0.0, 1.0, out=out)
