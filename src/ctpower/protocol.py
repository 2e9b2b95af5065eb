"""Controlled and non-conditioned teleportation over three-qubit channels.

Two protocol variants share the same wiring.  The joint register is always
(input, controller, sender, receiver) = qubits (0, 1, 2, 3):

* ``controlled_teleport``: the controller measures in the basis its
  channel names, each outcome naming the Bell pair it leaves the
  sender+receiver pair in, then the sender projects (input, sender) onto
  the Bell basis and the receiver applies the Pauli that the two outcomes
  fix, never looking at the input.  Every branch of a named channel ends
  with the input state exactly; a raw channel's controller measures in the
  computational basis, and each outcome names its pair of largest weight.

* ``unconditioned_teleport``: the controller abstains.  The sender still
  measures, the receiver corrects toward the dominant channel branch, and
  the controller qubit is traced out.  The resulting mixed state has the
  same fidelity against the input for every sender outcome; that fidelity
  is the non-conditioned fidelity (NCF).

Without the controller the protocol is one fixed qubit channel, a Pauli
channel once summed over the sender's outcomes: the receiver's Bloch map
r -> lambda * r (``receiver_map``), NCF(r) = (1 + sum_i lambda_i r_i^2)/2.
The map is the one controller-absent engine: ``unconditioned_teleport``
reads the receiver's state off it, and ``ncf_batch`` evaluates the NCF for
arrays of inputs and Monte Carlo for its random inputs, both with
``_bloch_ncf`` on squared Bloch coordinates.  A channel whose sender
outcomes leave different maps is refused by all of them alike.  The tests
pin the map to a step-by-step walk of the branches, their independent
oracle.

Both protocols are sums over corrected Kraus operators K = G <bell_o| <c|
chan, one per controller state c and sender outcome o, which ``_kraus``
stacks over channels; the map above takes the computational controller
states and the dominant correction.  With the controller present each
branch is one K, from the controller outcomes each channel lists, which
``_controlled_arrays`` turns into ``_kraus`` arguments:
``controlled_teleport`` hands the receiver K phi with probability
|K phi|^2.  Controlled teleportation is perfect for every input exactly
when each K of non-zero weight is lambda I: the branch then returns the
input with probability |lambda|^2, whatever the input.
``_ct_certificate`` takes the ``_kraus`` arguments and measures
max |K - lambda I| / sqrt(p), lambda = tr K / 2 and p = |K|_F^2 / 2 the
branch probability averaged over inputs; a caller holding channel
amplitudes and controller bras as arrays passes them directly, with no
spec per channel.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .channels import ChannelSpec, check_unit_pair
from .errors import (
    CorrectionMismatchError,
    DimensionError,
    NormalizationError,
    RangeError,
)
from .qcore import (
    BELL_BRAS,
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

# Pauli corrections indexed like BELL_OUTCOMES: bit 0 of a pair's index is
# a Z and bit 1 an X on the receiver's half of phi+.  A branch needs the
# Pauli whose bits are the XOR of the shared pair's and the sender outcome's.
_CORRECTIONS = np.array([IDENTITY, PAULI_Z, PAULI_X, PAULI_X @ PAULI_Z])

# the Bell bras indexed (outcome, input, sender)
_BELL_BRAS = BELL_BRAS.reshape(-1, 2, 2)


def _kraus(chans: np.ndarray, cvecs: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Corrected Kraus operators K = G <bell_o| <c| chan, shape (n, C, 4, 2, 2).

    ``chans`` (n, 2, 2, 2) holds channel amplitudes (controller, sender,
    receiver), ``cvecs`` (n, C, 2) the controller bras, and ``shared``
    (n, C) the index into BELL_OUTCOMES of the pair each controller outcome
    leaves, which picks the receiver's Pauli G for each sender outcome o.
    K[n, c, o] maps the input qubit to the receiver's qubit.
    """
    kraus = np.einsum("nck,nksr,ois->ncori", cvecs, chans, _BELL_BRAS)
    gates = _CORRECTIONS[shared[:, :, None] ^ np.arange(len(BELL_OUTCOMES))]
    return gates @ kraus


def _controlled_arrays(
    specs: Sequence[ChannelSpec],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``_kraus`` arguments of the controlled protocol of each channel:
    one controller bra and named pair per outcome its
    ``controller_measurement`` lists."""
    outcomes = [s.controller_measurement for s in specs]
    return (
        np.array([s.state.amps.reshape(2, 2, 2) for s in specs]),
        np.array([[cvec.amps.conj() for _, cvec, _ in row] for row in outcomes]),
        np.array([[BELL_OUTCOMES.index(pair) for _, _, pair in row] for row in outcomes]),
    )


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


def controlled_teleport(spec: ChannelSpec, f: InputFamily | PureState) -> CtRunResult:
    """Run the full protocol, enumerating every measurement branch.

    The controller measures as ``spec.controller_measurement`` says, and
    the receiver corrects toward the pair its outcome names.  Yields one
    branch per (controller outcome x sender Bell outcome): the corrected
    Kraus operator K of that branch hands the receiver K phi with
    probability |K phi|^2, and the fidelity is taken against the input.
    Branches with probability at most ZERO_PROB are omitted; the recorded
    probabilities still sum to 1.
    """
    phi = _resolve_input(f)
    received = _kraus(*_controlled_arrays([spec]))[0] @ phi.amps  # (controller, sender, 2)
    probability = np.sum(received.real**2 + received.imag**2, axis=-1)
    labels = [label for label, _, _ in spec.controller_measurement]
    branches: list[CtBranch] = []
    for c, o in zip(*np.nonzero(probability > ZERO_PROB)):  # controller-major
        corrected = received[c, o] / np.sqrt(probability[c, o])
        fid = float(abs(np.vdot(phi.amps, corrected)) ** 2)
        branches.append(
            CtBranch(
                charlie_outcome=labels[c],
                bell_outcome=BELL_OUTCOMES[o],
                probability=float(probability[c, o]),
                receiver_state=PureState(corrected),
                fidelity=min(fid, 1.0),
            )
        )
    return CtRunResult(branches=tuple(branches))


class _Certificate(NamedTuple):
    scale: np.ndarray        # (n, C, 4) lambda = tr K / 2 of each branch
    probability: np.ndarray  # (n, C, 4) |K|_F^2 / 2, averaged over inputs
    defect: np.ndarray       # (n,) max |K - lambda I| / sqrt(p), kept branches


def _ct_certificate(
    chans: np.ndarray, cvecs: np.ndarray, shared: np.ndarray
) -> _Certificate:
    """Certify the controlled protocol of each channel for every input.

    Takes the arguments of ``_kraus``, one channel per row; spec callers
    pass ``*_controlled_arrays(specs)``.  Each branch (controller outcome
    c, sender outcome o) is one corrected Kraus operator K; it returns
    every input exactly when K = lambda I, and its probability is then
    |lambda|^2 for every input.  A branch is kept when its input-averaged
    probability p exceeds ZERO_PROB.
    """
    kraus = _kraus(chans, cvecs, shared)
    scale = (kraus[..., 0, 0] + kraus[..., 1, 1]) / 2.0
    probability = np.sum(kraus.real**2 + kraus.imag**2, axis=(-2, -1)) / 2.0
    kept = probability > ZERO_PROB
    kraus[..., 0, 0] -= scale  # K - lambda I in place, without a second stack
    kraus[..., 1, 1] -= scale
    residual = np.max(np.abs(kraus), axis=(-2, -1))
    relative = residual / np.sqrt(np.where(kept, probability, 1.0)) * kept
    return _Certificate(scale, probability, np.max(relative, axis=(1, 2)))


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
# the receiver's Bloch map, and the NCF and receiver state read off it

_PAULI_BASIS = np.array([IDENTITY, PAULI_X, PAULI_Y, PAULI_Z])

# rows per step of ncf_batch and per chunk of the Monte Carlo stream; bounds
# the temporaries for any number of inputs
_BATCH_ROWS = 8192


@functools.lru_cache(maxsize=256)
def _transfer_matrix(spec: ChannelSpec) -> tuple[np.ndarray, float]:
    """4x4 Pauli transfer matrix R_ij = tr(sigma_i E(sigma_j))/2 of the
    controller-absent protocol E, summed over the sender's outcomes, and
    the largest gap between the outcomes' matrices.

    Each outcome contributes two Kraus operators, one per controller basis
    state, already corrected by the receiver.  Every outcome has average
    probability 1/4 over the sphere; divided by that weight, the outcomes'
    matrices must coincide (CorrectionMismatchError beyond 1e-10), or no
    single correction fits the channel.  When they coincide, the sum
    preserves the trace, so each outcome's R_0j (j >= 1) is zero: every
    outcome then has probability 1/4 for every input.

    Cached per spec, so a channel's map is built once however many
    averages read it (a mismatch report reads three circles per channel);
    the returned array is read-only because every caller shares it.
    """
    chan = spec.state.amps.reshape(1, 2, 2, 2)
    dominant = np.full((1, 2), BELL_OUTCOMES.index(spec.dominant_bell))
    # kraus[c, o]: outcome o's operator with the controller left in |c>
    kraus = _kraus(chan, np.eye(2, dtype=complex)[None], dominant)[0]
    per_outcome = np.empty((len(BELL_OUTCOMES), 4, 4))
    for o in range(len(BELL_OUTCOMES)):
        # one contraction per outcome, over a contiguous copy: summing the
        # outcomes inside one contraction rounds differently from this sum
        k = kraus[:, o].copy()
        per_outcome[o] = 0.5 * np.einsum(
            "iab,cbd,jde,cae->ij", _PAULI_BASIS, k, _PAULI_BASIS, k.conj()
        ).real
    normed = per_outcome / per_outcome[:, :1, :1]
    spread = float(np.max(np.abs(normed[:, None] - normed[None, :])))
    if spread > CORRECTION_MISMATCH_ATOL:
        raise CorrectionMismatchError(
            f"corrected receiver maps disagree by {spread:.3e} across sender outcomes"
        )
    transfer = per_outcome.sum(axis=0)
    transfer.flags.writeable = False
    return transfer, spread


def receiver_map(spec: ChannelSpec) -> np.ndarray:
    """The read-only lambda of the receiver's Bloch map r -> lambda * r when
    the controller abstains: summed over the sender's outcomes the protocol
    is a Pauli twirl, so its transfer matrix is diagonal.  Raises
    CorrectionMismatchError when the sender's outcomes leave different maps.
    """
    transfer, _ = _transfer_matrix(spec)
    lam = np.diagonal(transfer)[1:] / transfer[0, 0]
    lam.flags.writeable = False
    return lam


def _check_unit(norm: np.ndarray, start: int, what: str) -> None:
    """Raise NormalizationError naming the first index, counted from
    ``start``, where ``norm`` is not 1 within 1e-10; NaN and inf fail too."""
    bad = ~(np.abs(norm - 1.0) <= INPUT_ATOL)  # NaN compares False
    if bad.any():
        i = int(np.argmax(bad))
        raise NormalizationError(
            f"{what} = {float(norm[i])!r} at index {start + i}, expected 1"
        )


def _pauli_coords(k0: np.ndarray, k1: np.ndarray, start: int = 0):
    """(|k|^2, x, y, z): the Pauli coordinates of |phi><phi| for flat
    amplitude arrays, whose |k0|^2 + |k1|^2 ``_check_unit`` validates."""
    p0 = k0.real**2 + k0.imag**2
    p1 = k1.real**2 + k1.imag**2
    norm = p0 + p1
    _check_unit(norm, start, "|k0|^2+|k1|^2")
    cross = 2.0 * k0.conj() * k1
    return norm, cross.real, cross.imag, p0 - p1


def _bloch_ncf(lam: np.ndarray, x2, y2, z2) -> np.ndarray:
    """(1 + sum_i lambda_i r_i^2)/2 from the squared Bloch coordinates
    (x^2, y^2, z^2) of each input, clipped to [0, 1], summed axis by axis in
    place: the Pauli channel's NCF depends on no sign of r.  An axis given as
    None is zero at every input, as on a great circle, and is skipped.
    Elementwise, not a BLAS product: BLAS's first call adds its work buffer
    to the peak memory of the whole process."""
    total = 1.0
    for lam_i, r2 in zip(lam, (x2, y2, z2)):
        if r2 is not None:
            term = r2 * lam_i
            term += total
            total = term
    total *= 0.5
    return np.clip(total, 0.0, 1.0, out=total)


def ncf_batch(spec: ChannelSpec, k0, k1) -> np.ndarray:
    """Non-conditioned fidelity for arrays of input amplitudes.

    Evaluates the NCF of the receiver's Bloch map (``_bloch_ncf``, which
    Monte Carlo shares) on the squares of each input's Bloch vector over
    |k|^2, so near-unit inputs are measured as if normalized.  The tests
    pin it pointwise to a step-by-step walk of the branches.  Raises
    DimensionError unless k0 and k1 have one shape, NormalizationError
    unless every |k0|^2 + |k1|^2 is 1 within 1e-10, and
    CorrectionMismatchError for a channel whose map is refused.
    """
    k0 = np.asarray(k0, dtype=complex).reshape(-1)
    k1 = np.asarray(k1, dtype=complex).reshape(-1)
    if k0.shape != k1.shape:
        raise DimensionError("k0 and k1 arrays must have matching shapes")
    lam = receiver_map(spec)
    out = np.empty(k0.size, dtype=float)
    for start in range(0, k0.size, _BATCH_ROWS):
        rows = slice(start, start + _BATCH_ROWS)
        norm, *coords = _pauli_coords(k0[rows], k1[rows], start)
        out[rows] = _bloch_ncf(lam, *((r / norm) ** 2 for r in coords))
    return out


def unconditioned_teleport(
    spec: ChannelSpec, f: InputFamily | PureState
) -> NcfResult:
    """Teleport without the controller; returns the receiver's mixed state.

    The receiver's map takes the input's Bloch vector r to
    rho3 = (I + (lambda * r).sigma)/2, and ncf = <phi| rho3 |phi> is what
    ``ncf_batch`` evaluates.  ``per_outcome_equal`` says whether the four
    sender outcomes leave maps within 1e-12 of each other; beyond 1e-10 no
    single correction fits the channel, and CorrectionMismatchError is
    raised.
    """
    amps = _resolve_input(f).amps
    _, spread = _transfer_matrix(spec)
    norm, x, y, z = _pauli_coords(amps[:1], amps[1:])
    bloch = receiver_map(spec) * np.concatenate([x, y, z]) / norm
    rho3 = (IDENTITY + np.tensordot(bloch, _PAULI_BASIS[1:], axes=1)) / 2.0
    return NcfResult(
        rho3=DensityOperator(rho3),
        ncf=float(ncf_batch(spec, amps[:1], amps[1:])[0]),
        per_outcome_equal=spread <= EXACT_ATOL,
    )
