"""Controlled and non-conditioned teleportation over three-qubit channels.

Two protocol variants share the same wiring.  The joint register is always
(input, controller, sender, receiver) = qubits (0, 1, 2, 3):

* ``controlled_teleport``: the controller measures in the basis read off
  its channel's Bell table (``channels._controller_basis``), each outcome
  naming a Bell pair it leaves the sender and receiver; the sender projects
  (input, sender) onto the Bell basis, and the receiver applies the Pauli
  that the two outcomes fix, never looking at the input.

* ``unconditioned_teleport``: the controller abstains, the receiver
  corrects toward the dominant pair, and the controller qubit is traced
  out; the input's fidelity with the result is the non-conditioned
  fidelity (NCF).

Both read one table per channel, its Bell amplitudes
W[c, p] = <bell_p| <c| chan (``channels._bell_table``).  Without the
controller, B = W^T conj(W) is the sender-receiver state rho_SR in the Bell
basis, and summed over the sender's outcomes the protocol is the Pauli
channel of its Bell weights w = diag B: the receiver's Bloch map
r -> lambda * r, lambda a fixed +-1 matrix times w (``_lambdas``), and
NCF(r) = (1 + sum_i lambda_i r_i^2)/2, which ``ncf_batch`` and Monte Carlo
evaluate with ``_bloch_ncf``.  This holds for every channel; B's entries
off the diagonal only make the sender's outcomes leave different states,
which ``per_outcome_equal`` reports.  ``_maps`` is the one reading from a
stack of amplitudes to its maps, and states the dominant pair: the
heaviest, but phi+ on a raw channel; ``receiver_map`` is its cached
one-row view.  The tests pin the map to a step-by-step walk of the
branches, summed over the outcomes; the closed forms it is checked against
are in ``paper``.

With the controller, each branch (controller outcome c, sender outcome o)
is one corrected Kraus operator K = G <bell_o| <c| chan, which ``_kraus``
stacks from the channels' amplitudes and controller bases;
``controlled_teleport`` hands the receiver K phi with probability
|K phi|^2.  ``_ct_certificate`` reads the rows of W that the controller
basis leaves, for every input at once, with no spec per channel.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .channels import (
    ChannelSpec, _bell_table, _bell_weights, _controller_basis, _first_max,
)
from .errors import DimensionError, NormalizationError, RangeError
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
    BellOutcome,
    DensityOperator,
    PureState,
    _SQRT_HALF,
    make_qubit,
)

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# input families

@dataclass(frozen=True)
class InputFamily:
    """Base class for parametrized single-qubit input families.

    Every subclass names its family and writes its state once, as
    ``amplitudes``: a numpy formula from its angle fields, in field order,
    to the amplitudes (k0, k1).  It takes one member's angles or arrays of
    them alike.  Every angle lies in [0, 2pi) but those ``closed_at_pi``
    names, which lie in [0, pi].
    """

    name: ClassVar[str]
    closed_at_pi: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            closed = f.name in self.closed_at_pi
            angle = _angle(getattr(self, f.name), f.name, np.pi if closed else _TWO_PI, closed)
            object.__setattr__(self, f.name, angle)

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
    closed_at_pi: ClassVar[tuple[str, ...]] = ("theta",)

    theta: float
    phi: float

    @staticmethod
    def amplitudes(theta, phi):
        return np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)


@dataclass(frozen=True)
class XZInput(InputFamily):
    """cos(theta/2)|0> + sin(theta/2)|1>: the x-z great circle."""

    name: ClassVar[str] = "xz"

    theta: float

    @staticmethod
    def amplitudes(theta):
        return np.cos(theta / 2.0) + 0j, np.sin(theta / 2.0) + 0j


@dataclass(frozen=True)
class XYInput(InputFamily):
    """(|0> + e^{i phi}|1>)/sqrt(2): the equator."""

    name: ClassVar[str] = "xy"

    phi: float

    @staticmethod
    def amplitudes(phi):
        return np.full(np.shape(phi), _SQRT_HALF, dtype=complex), _SQRT_HALF * np.exp(1j * phi)


@dataclass(frozen=True)
class YZInput(InputFamily):
    """cos(theta/2)|0> + i sin(theta/2)|1>: the y-z great circle."""

    name: ClassVar[str] = "yz"

    theta: float

    @staticmethod
    def amplitudes(theta):
        return np.cos(theta / 2.0) + 0j, 1j * np.sin(theta / 2.0)


# every input family by name; all but "arbitrary" are great circles
INPUT_FAMILIES: dict[str, type[InputFamily]] = {
    cls.name: cls for cls in (ArbitraryInput, XZInput, XYInput, YZInput)
}


def input_state(f: InputFamily | PureState) -> PureState:
    """The single-qubit state a family member describes, or ``f`` itself
    when it is a one-qubit PureState."""
    if isinstance(f, PureState):
        if f.num_qubits != 1:
            raise DimensionError("teleportation input must be a single qubit")
        return f
    if not isinstance(f, InputFamily):
        raise TypeError(f"not an input family: {f!r}")
    return make_qubit(*f.amplitudes(*f.params().values()))


# ---------------------------------------------------------------------------
# receiver corrections

# Pauli corrections indexed like BELL_OUTCOMES: bit 0 of a pair's index is
# a Z and bit 1 an X on the receiver's half of phi+.  A branch needs the
# Pauli whose bits are the XOR of the shared pair's and the sender outcome's.
_CORRECTIONS = np.array([IDENTITY, PAULI_Z, PAULI_X, PAULI_X @ PAULI_Z])

# the Bell bras indexed (outcome, input, sender)
_BELL_BRAS = BELL_BRAS.reshape(-1, 2, 2)


def _kraus(amps: np.ndarray) -> np.ndarray:
    """Corrected Kraus operators K = G <bell_o| <c| chan of (n, 8) channel
    amplitudes, shape (n, 2, 4, 2, 2).

    The controller measures in ``_controller_basis``, and the pair each of
    its outcomes names picks the receiver's Pauli G for each sender outcome
    o.  K[n, c, o] maps the input qubit to the receiver's qubit.
    """
    bras, pairs, _ = _controller_basis(amps)
    kraus = np.einsum("nck,nksr,ois->ncori", bras, amps.reshape(-1, 2, 2, 2), _BELL_BRAS)
    gates = _CORRECTIONS[pairs[:, :, None] ^ np.arange(len(BELL_OUTCOMES))]
    return gates @ kraus


# ---------------------------------------------------------------------------
# protocol runs

class CtBranch(NamedTuple):
    charlie_outcome: str
    bell_outcome: BellOutcome
    probability: float
    receiver_state: PureState
    fidelity: float


class CtRunResult(NamedTuple):
    branches: tuple[CtBranch, ...]

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    @property
    def min_fidelity(self) -> float:
        return min(b.fidelity for b in self.branches)


class NcfResult(NamedTuple):
    rho3: DensityOperator
    ncf: float
    per_outcome_equal: bool


def controlled_teleport(spec: ChannelSpec, f: InputFamily | PureState) -> CtRunResult:
    """Run the full protocol, enumerating every measurement branch.

    The controller measures in ``_controller_basis``, and the receiver
    corrects toward the pair its outcome names.  Yields one branch per
    (controller outcome x sender Bell outcome): the corrected Kraus
    operator K of that branch hands the receiver K phi with probability
    |K phi|^2, and the fidelity is taken against the input.
    Branches with probability at most ZERO_PROB are omitted; the recorded
    probabilities still sum to 1.
    """
    phi = input_state(f)
    received = _kraus(spec.state.amps[None])[0] @ phi.amps  # (controller, sender, 2)
    probability = np.sum(received.real**2 + received.imag**2, axis=-1)
    branches: list[CtBranch] = []
    for c, o in zip(*np.nonzero(probability > ZERO_PROB)):  # controller-major
        corrected = received[c, o] / np.sqrt(probability[c, o])
        fid = float(abs(np.vdot(phi.amps, corrected)) ** 2)
        branches.append(
            CtBranch(
                charlie_outcome=spec.controller_labels[c],
                bell_outcome=BELL_OUTCOMES[o],
                probability=float(probability[c, o]),
                receiver_state=PureState(corrected),
                fidelity=min(fid, 1.0),
            )
        )
    return CtRunResult(branches=tuple(branches))


class _Certificate(NamedTuple):
    probability: np.ndarray  # (n, C) |w_c|^2 of each controller outcome, every input
    defect: np.ndarray       # (n,) max sqrt(2 off_c / |w_c|^2), kept outcomes


def _ct_certificate(amps: np.ndarray) -> _Certificate:
    """Certify the controlled protocol of (n, 8) channels for every input.

    Row c of ``_controller_basis``'s rows holds the Bell amplitudes w_c
    that outcome c leaves: outcome c has probability |w_c|^2 for every
    input, and each of its corrected Kraus operators K is a sum of Paulis
    weighted by w_c, I by the named pair, so p = |K|_F^2 / 2 = |w_c|^2 / 4
    and |K - lambda I|_F^2 = off_c / 2, off_c the weight off the named pair.
    The defect sqrt(2 off_c / |w_c|^2) = |K - lambda I|_F / sqrt(p) is 0
    exactly when every branch returns every input, with probability p.
    Outcomes with p <= ZERO_PROB are dropped.
    """
    _, pairs, rows = _controller_basis(amps)
    weights = rows.real**2 + rows.imag**2
    norm2 = np.sum(weights, axis=-1)
    # summed entry by entry: |w|^2 - named would turn a last-bit cancellation
    # into a defect near its square root, 1e-8
    off = np.sum(np.where(np.arange(4) == pairs[..., None], 0.0, weights), axis=-1)
    kept = norm2 / 4.0 > ZERO_PROB
    defect = np.sqrt(2.0 * off / np.where(kept, norm2, 1.0)) * kept
    return _Certificate(norm2, np.max(defect, axis=1))


# ---------------------------------------------------------------------------
# the receiver's Bloch map, and the NCF and receiver state read off it

_BLOCH_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])

# lambda_i = sum_p +-w_p over the Bell weights relabelled so that the
# dominant pair is phi+, in BELL_OUTCOMES order: + where pair p's Pauli
# (I, Z, X, XZ) commutes with sigma_i
_LAMBDA_SIGNS = np.array([[1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]], dtype=float)

# Each sender outcome's transfer matrix over its weight 1/4 is linear in B.
# A diagonal B leaves the four outcomes one map; B_pq = x + iy, p < q, moves
# outcome o's by x X_pq^o + y Y_pq^o, fixed tensors per dominant pair.  So
# two outcomes differ in an entry by at most sum_{p<q} |B_pq| |(dX, dY)|,
# and the largest such sum of |(dX, dY)| is 8 for every dominant pair:
# spread <= 8 max_{p != q} |B_pq|.  The tests re-derive it from the oracle.
_SPREAD_PER_COHERENCE = 8.0

# rows per step of ncf_batch; bounds the temporaries for any number of inputs
_BATCH_ROWS = 8192


def _lambdas(weights: np.ndarray, dominant: np.ndarray) -> np.ndarray:
    """(n, 3) lambda of n channels' controller-absent protocol from their
    (n, 4) Bell weights w and the index d of the pair each corrects toward.

    Correcting toward d gives, summed over the sender's outcomes, the Pauli
    channel of w relabelled by XOR with d, whatever B's other entries:
    lambda = _LAMBDA_SIGNS w[p ^ d] / sum w, summed elementwise over four
    rows of n, not n short rows, nor by BLAS, whose first call grows memory.
    """
    relabelled = weights.T[np.arange(4)[:, None] ^ dominant, np.arange(len(weights))]
    lam = np.sum(_LAMBDA_SIGNS.T[:, None] * relabelled[..., None], axis=0)
    return lam / weights.sum(-1, keepdims=True)


def _maps(amps: np.ndarray, raw) -> np.ndarray:
    """(n, 3) lambda of the receiver maps of (n, 8) channel amplitudes: the
    one reading from amplitudes to maps.  Each receiver corrects toward its
    channel's heaviest Bell pair (``_first_max``), but toward phi+ where
    ``raw``, a bool or one per row, holds (ROADMAP item 8)."""
    weights = _bell_weights(_bell_table(amps))
    return _lambdas(weights, np.where(raw, 0, _first_max(weights)))


@functools.lru_cache(maxsize=256)
def receiver_map(spec: ChannelSpec) -> np.ndarray:
    """The read-only lambda of the receiver's Bloch map r -> lambda * r when
    the controller abstains, averaged over the sender's outcomes: ``_maps``
    of the spec's one row, cached per spec, so a mismatch report's three
    circles build one map."""
    lam = _maps(spec.state.amps[None], spec.family == "raw")[0]
    lam.flags.writeable = False
    return lam


def _check_unit(norm: np.ndarray, start: int, what: str, scratch=None) -> None:
    """Raise NormalizationError naming the first index, counted from
    ``start``, where ``norm`` is not 1 within 1e-10; NaN and inf fail too.
    The distances from 1 overwrite ``scratch``, a float array of norm's
    shape, when one is given."""
    dist = np.subtract(norm, 1.0, out=scratch)
    ok = np.abs(dist, out=dist) <= INPUT_ATOL  # NaN compares False
    if not ok.all():
        i = int(np.argmin(ok))
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
    None is zero at every input, as on a great circle, and is skipped.  The
    given arrays are overwritten, and the last holds the result.
    Elementwise, not a BLAS product: BLAS's first call adds its work buffer
    to the peak memory of the whole process."""
    total = 0.5
    for lam_i, r2 in zip(lam, (x2, y2, z2)):
        if r2 is not None:
            r2 *= 0.5 * lam_i  # halving is exact, so the 1/2 folds into lambda
            r2 += total
            total = r2
    return np.clip(total, 0.0, 1.0, out=total)


def ncf_batch(spec: ChannelSpec, k0, k1) -> np.ndarray:
    """Non-conditioned fidelity for arrays of input amplitudes.

    Evaluates the NCF of the receiver's Bloch map (``_bloch_ncf``, which
    Monte Carlo shares) on the squares of each input's Bloch vector over
    |k|^2, so near-unit inputs are measured as if normalized.  The tests
    pin it pointwise to a step-by-step walk of the branches.  Raises
    DimensionError unless k0 and k1 have one shape, and NormalizationError
    unless every |k0|^2 + |k1|^2 is 1 within 1e-10.
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

    The receiver's map takes the input's Bloch vector r to its state
    averaged over the sender's outcomes, rho3 = (I + (lambda * r).sigma)/2,
    and ncf = <phi| rho3 |phi> is what ``ncf_batch`` evaluates.
    ``per_outcome_equal`` is max |B_pq| <= 1e-12 / 8, p != q, of
    B = W^T conj(W), sufficient for the four sender outcomes' maps to agree
    within 1e-12.
    """
    table = _bell_table(spec.state.amps)
    bell = np.einsum("ncp,ncq->pq", table, table.conj())
    off = float(np.max(np.abs(bell[~np.eye(4, dtype=bool)])))
    amps = input_state(f).amps
    lam = receiver_map(spec)
    norm, *coords = _pauli_coords(amps[:1], amps[1:])
    bloch = lam * np.concatenate(coords) / norm
    rho3 = (IDENTITY + np.tensordot(bloch, _BLOCH_PAULIS, axes=1)) / 2.0
    return NcfResult(
        rho3=DensityOperator(rho3),
        ncf=float(_bloch_ncf(lam, *((r / norm) ** 2 for r in coords))[0]),
        per_outcome_equal=off <= EXACT_ATOL / _SPREAD_PER_COHERENCE,
    )
