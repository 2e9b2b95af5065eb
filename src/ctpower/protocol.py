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

Both walks contract the input and channel amplitudes against all four Bell
projectors at once, and validate only the states they return: each
branch's receiver state, or the receiver's mixed state.

Without the controller the protocol is one fixed qubit channel, the
receiver's Bloch map r -> t + T r (``receiver_map``).  ``ncf_batch``
evaluates that map for arrays of inputs; ``unconditioned_teleport`` walks
the branches one input at a time and is the oracle the tests pin it to.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .channels import (
    ChannelSpec,
    RawChannel,
    check_unit_pair,
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
    PAULI_Z,
    ZERO_PROB,
    Amplitude,
    BellOutcome,
    DensityOperator,
    PureState,
    bell_state,
    fidelity_with_pure,
    make_qubit,
    pauli,
)

CORRECTION_MISMATCH_ATOL = 1e-10

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# input families

@dataclass(frozen=True)
class InputFamily:
    """Base class for parametrized single-qubit input families.

    Every subclass names its family and writes its state once, as
    ``amplitudes``: a numpy formula from its angle fields, in field order,
    to the amplitudes (k0, k1).  It takes one member's angles or arrays of
    them alike.
    """

    name: ClassVar[str]

    def params(self) -> dict[str, float]:
        """The angles a report prints, in order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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

    name: ClassVar[str] = "arbitrary"

    theta: float
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _angle(self.theta, "theta", np.pi, True))
        object.__setattr__(self, "phi", _angle(self.phi, "phi", _TWO_PI, False))

    @staticmethod
    def amplitudes(theta, phi):
        return np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)


@dataclass(frozen=True)
class XZInput(InputFamily):
    """cos(theta/2)|0> + sin(theta/2)|1>: the x-z great circle."""

    name: ClassVar[str] = "xz"

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _angle(self.theta, "theta", _TWO_PI, False))

    @staticmethod
    def amplitudes(theta):
        return np.cos(theta / 2.0) + 0j, np.sin(theta / 2.0) + 0j


@dataclass(frozen=True)
class XYInput(InputFamily):
    """(|0> + e^{i phi}|1>)/sqrt(2): the equator."""

    name: ClassVar[str] = "xy"

    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", _angle(self.phi, "phi", _TWO_PI, False))

    @staticmethod
    def amplitudes(phi):
        s = 1.0 / np.sqrt(2.0)
        return np.full(np.shape(phi), s, dtype=complex), s * np.exp(1j * phi)


@dataclass(frozen=True)
class YZInput(InputFamily):
    """cos(theta/2)|0> + i sin(theta/2)|1>: the y-z great circle."""

    name: ClassVar[str] = "yz"

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _angle(self.theta, "theta", _TWO_PI, False))

    @staticmethod
    def amplitudes(theta):
        return np.cos(theta / 2.0) + 0j, 1j * np.sin(theta / 2.0)


# every input family by name; all but "arbitrary" are great circles
INPUT_FAMILIES: dict[str, type[InputFamily]] = {
    cls.name: cls for cls in (ArbitraryInput, XZInput, XYInput, YZInput)
}


def input_state(family: InputFamily) -> PureState:
    """The single-qubit state a family member describes."""
    if not isinstance(family, InputFamily):
        raise TypeError(f"not an input family: {family!r}")
    return make_qubit(*family.amplitudes(*family.params().values()))


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

# the candidate corrections for raw channels, in tie-breaking order
_CORRECTIONS = np.array(list(_GATES.values()))

# conjugated Bell pairs stacked by outcome, indexed (outcome, input, sender)
_BELL_BRAS = np.array(
    [bell_state(o).amps.conj().reshape(2, 2) for o in BELL_OUTCOMES]
)

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


def bob_correction(
    bell: BellOutcome, charlie: str | None, spec: ChannelSpec
) -> np.ndarray:
    """Receiver's correction gate for a sender outcome.

    With a controller outcome, returns the Pauli product that restores the
    input exactly from the Bell pair that outcome leaves.  Without one
    (charlie=None), returns the correction for the channel's dominant Bell
    pair, ``spec.dominant_bell``; raw channels get the plain standard
    corrections.
    """
    if charlie is None:
        return _GATES[_CT_TABLE[(spec.dominant_bell, bell)]]
    for label, _, shared in spec.controller_measurement:
        if label == charlie:
            return _GATES[_CT_TABLE[(shared, bell)]]
    raise ValueError(f"unknown controller outcome {charlie!r}")


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
) -> tuple[tuple[str, PureState, BellOutcome | None], ...]:
    """The controller's (label, basis vector, Bell pair left) triples; a raw
    channel takes the caller's basis, which leaves no known pair (None)."""
    if controller_basis is None:
        return spec.controller_measurement  # raw channels raise here
    if not isinstance(spec, RawChannel):
        raise ValueError("controller basis is fixed for named channel families")
    b0, b1 = controller_basis
    if b0.num_qubits != 1 or b1.num_qubits != 1:
        raise DimensionError("controller basis must be single-qubit states")
    if abs(np.vdot(b0.amps, b1.amps)) > INPUT_ATOL:
        raise ValueError("controller basis vectors are not orthogonal")
    return (("0", b0, None), ("1", b1, None))


def _best_pauli(target: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Fidelity-maximizing correction from {I, X, Z, XZ}; ties keep that order."""
    candidates = _CORRECTIONS @ received
    fids = np.abs(candidates @ target.conj()) ** 2
    best = 0
    for i in range(1, len(fids)):
        if fids[i] > fids[best] + EXACT_ATOL:
            best = i
    return candidates[best]


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
    chan = spec.state.amps.reshape(2, 2, 2)  # (controller, sender, receiver)
    branches: list[CtBranch] = []
    for label, cvec, shared in _controller_measurement(spec, controller_basis):
        pair = np.tensordot(cvec.amps.conj(), chan, axes=1)  # (sender, receiver)
        p_ctrl = float(np.sum(np.abs(pair) ** 2))
        if p_ctrl <= ZERO_PROB:
            continue
        # received[o]: the receiver's amplitudes after sender outcome o; its
        # squared norm is that outcome's probability given the controller's
        received = np.einsum(
            "ois,i,sr->or", _BELL_BRAS, phi.amps, pair / np.sqrt(p_ctrl)
        )
        p_bell = np.sum(np.abs(received) ** 2, axis=1)
        for outcome, amps, p in zip(BELL_OUTCOMES, received, p_bell):
            if p <= ZERO_PROB:
                continue
            amps = amps / np.sqrt(p)
            if shared is None:
                corrected = _best_pauli(phi.amps, amps)
            else:
                corrected = _GATES[_CT_TABLE[(shared, outcome)]] @ amps
            fid = float(abs(np.vdot(phi.amps, corrected)) ** 2)
            branches.append(
                CtBranch(
                    charlie_outcome=label,
                    bell_outcome=outcome,
                    probability=p_ctrl * float(p),
                    receiver_state=PureState(corrected),
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
    chan = spec.state.amps.reshape(2, 2, 2)  # (controller, sender, receiver)
    # post[o, c, r]: (sender outcome, controller, receiver), unnormalized
    post = np.einsum("ois,i,csr->ocr", _BELL_BRAS, phi.amps, chan)
    gates = np.array([bob_correction(o, None, spec) for o in BELL_OUTCOMES])
    post = np.einsum("orq,ocq->ocr", gates, post)
    probs = np.sum(np.abs(post) ** 2, axis=(1, 2))
    keep = probs > ZERO_PROB
    probs = probs[keep]
    post = post[keep] / np.sqrt(probs)[:, None, None]
    # rho[o]: the receiver's state after outcome o, controller traced out
    rho = np.einsum("ocr,ocq->orq", post, post.conj())
    spread = float(np.max(np.abs(rho[:, None] - rho[None, :])))
    if spread > CORRECTION_MISMATCH_ATOL:
        raise CorrectionMismatchError(
            f"corrected receiver states disagree by {spread:.3e} across sender outcomes"
        )
    rho3 = DensityOperator(np.einsum("o,orq->rq", probs, rho) / np.sum(probs))
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


@functools.lru_cache(maxsize=256)
def _transfer_matrix(spec: ChannelSpec) -> np.ndarray:
    """4x4 Pauli transfer matrix R_ij = tr(sigma_i E(sigma_j))/2 of the
    controller-absent protocol E, summed over the sender's outcomes.

    Each outcome contributes two Kraus operators, one per controller basis
    state, already corrected by the receiver.  Every outcome has average
    probability 1/4 over the sphere; divided by that weight, the outcomes'
    matrices must coincide, or the correction table is wrong.

    Cached per spec, so an average refined over several quadrature orders
    builds its map once; the returned array is read-only because every
    caller shares it.
    """
    chan = spec.state.amps.reshape(2, 2, 2)  # (controller, sender, receiver)
    per_outcome = np.empty((len(BELL_OUTCOMES), 4, 4))
    for o, outcome in enumerate(BELL_OUTCOMES):
        # kraus[c] maps the input qubit to the receiver, controller left in |c>
        kraus = np.einsum("ts,csr->crt", _BELL_BRAS[o], chan)
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
    transfer = per_outcome.sum(axis=0)
    transfer.flags.writeable = False
    return transfer


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
