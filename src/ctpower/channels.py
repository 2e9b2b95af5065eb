"""Three-qubit teleportation channel families and the 3-tangle monotone.

Role convention for every channel state: qubit 0 belongs to the controller,
qubit 1 to the sender, qubit 2 to the receiver.

Families:

* ``MSChannel(c, d)``         (|000> + c|111> + d|011>)/sqrt(2), c^2 + d^2 = 1
* ``GHZChannel()``            the c=1, d=0 member of the family above
* ``ThetaChannel(a, b, k)``   a|0>|phi+>  +  b|1>(I x sigma_k)|phi+>
* ``RawChannel(state)``       any caller-supplied normalized 3-qubit state

Every channel's controller measures in the basis its Bell table gives
(``_controller_basis``): the first bra is the table's heaviest column,
conjugated and normalized, the second the unit vector orthogonal to it,
and each outcome names the Bell pair of largest weight in the state it
leaves the sender and receiver.  The controller's slice of an MS state
decomposes over Bell pairs as

    1/2 [(1+d)|0> + c|1>] |phi+>  +  1/2 [(1-d)|0> - c|1>] |phi->

so there the rule gives the |x+-> basis, whose outcomes leave phi+ and
phi-; on a theta channel it gives the computational basis, up to phase.

Every Bell pair here is a row of ``qcore.BELL_KETS``; a theta channel's
b-branch is |1> times the pair sigma_k leaves on the receiver's half of
phi+.  Each formula is written once, over stacks: ``_ms_amps`` and
``_theta_amps`` give (n, 8) amplitudes, ``_bell_table`` the Bell amplitudes
W[c, p] = <bell_p| <c| chan, ``_bell_weights`` its weights, which
``protocol._maps`` reads, ``_controller_basis`` the controller's bras and
pairs, and ``_tangles`` the 3-tangles.  The specs, which validate their
parameters once, and ``three_tangle`` are their one-row views.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import DimensionError, NormalizationError
from .paper import TANGLE_BOUND
from .qcore import (
    BELL_BRAS,
    BELL_KETS,
    EXACT_ATOL,
    INPUT_ATOL,
    PureState,
    _SQRT_HALF,
    _const,
)

_TANGLE_CUTOFF = TANGLE_BOUND - 1e-10  # a 3-tangle meets the bound from here up


def check_unit_pair(x, y, names: str) -> tuple[float, float]:
    """Validate two real parameters with x^2 + y^2 = 1 (within 1e-10)."""
    try:
        fx, fy = float(x), float(y)
    except TypeError:
        raise NormalizationError(f"{names} must be real numbers") from None
    if not abs(fx * fx + fy * fy - 1.0) <= INPUT_ATOL:  # NaN and inf fail too
        raise NormalizationError(
            f"{names} must satisfy a unit sum of squares, got {fx*fx + fy*fy!r}"
        )
    return fx, fy


# ---------------------------------------------------------------------------
# channel descriptors

# input family -> the theta channel axis matched to it: sigma_k has zero
# expectation on every member of the family's great circle
MATCHED_AXIS = {"xz": "y", "xy": "z", "yz": "x"}


@dataclass(frozen=True)
class ChannelSpec:
    """A member of a channel family, with the facts the protocol needs.

    Every subclass names its ``family``, builds its 3-qubit ``state`` once
    per spec object, and labels its two controller outcomes, which
    ``_controller_basis`` reads off the state; the Bell pair an outcome
    leaves and the sender's outcome alone fix the receiver's Pauli.
    """

    family: ClassVar[str]
    controller_labels: ClassVar[tuple[str, str]] = ("0", "1")
    # averages run over this input family's great circle, or the sphere
    matched_family: ClassVar[str | None] = None

    def params(self) -> dict[str, object]:
        """The family parameters a report prints, in order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}


@dataclass(frozen=True)
class MSChannel(ChannelSpec):
    """Maximal-slice channel with real parameters c, d, c^2 + d^2 = 1."""

    family: ClassVar[str] = "ms"
    controller_labels: ClassVar[tuple[str, str]] = ("x+", "x-")

    c: float
    d: float

    def __post_init__(self) -> None:
        c, d = check_unit_pair(self.c, self.d, "c, d")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @cached_property
    def state(self) -> PureState:
        return PureState(_ms_amps(np.array([self.c]), np.array([self.d]))[0])


@dataclass(frozen=True)
class GHZChannel(MSChannel):
    """Maximally entangled channel (|000> + |111>)/sqrt(2): MS at c=1, d=0."""

    family: ClassVar[str] = "ghz"

    c: float = field(default=1.0, init=False, repr=False)
    d: float = field(default=0.0, init=False, repr=False)


@dataclass(frozen=True)
class ThetaChannel(ChannelSpec):
    """Bell-superposition channel a|0>|phi+> + b|1>(I x sigma_k)|phi+>."""

    family: ClassVar[str] = "theta"

    a: float
    b: float
    k: str

    def __post_init__(self) -> None:
        a, b = check_unit_pair(self.a, self.b, "a, b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.k not in ("x", "y", "z"):
            raise ValueError(f"Pauli axis must be x, y, or z, got {self.k!r}")

    @cached_property
    def state(self) -> PureState:
        axis = np.array(["xyz".index(self.k)])
        return PureState(_theta_amps(np.array([self.a]), np.array([self.b]), axis)[0])

    @property
    def matched_family(self) -> str:
        return next(fam for fam, axis in MATCHED_AXIS.items() if axis == self.k)


@dataclass(frozen=True)
class RawChannel(ChannelSpec):
    """Arbitrary caller-supplied 3-qubit channel state.

    Two raw channels are equal, and hash alike, when their amplitudes are.
    """

    family: ClassVar[str] = "raw"

    state: PureState = field(compare=False)  # a PureState compares by identity
    amps: tuple[complex, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.state.num_qubits != 3:
            raise DimensionError(
                f"raw channel needs a 3-qubit state, got {self.state.num_qubits}"
            )
        object.__setattr__(self, "amps", tuple(self.state.amps.tolist()))

    def params(self) -> dict[str, object]:
        return {}


# ---------------------------------------------------------------------------
# constructors: each family is one stacked formula over arrays of parameters
# or (n, 8) amplitudes, and the specs above are its validated one-row views

# a theta channel is a * _THETA_A + b * _THETA_B[k], k indexing "xyz":
# sigma_k on the receiver's half of phi+ leaves psi+, psi- and phi-.  For y
# that is the real rotation -i sigma_y, so the b-branch is exactly
# b|1>|psi->; the Hermitian Pauli y would only multiply it by a phase i
_THETA_A = _const(np.kron([1.0, 0.0], BELL_KETS[0]))
_THETA_B = _const(np.kron([0.0, 1.0], BELL_KETS[[2, 3, 1]]))


def _ms_amps(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(n, 8) amplitudes of the MS states of unit pairs (c[i], d[i])."""
    amps = np.zeros((len(c), 8), dtype=complex)
    amps[:, 0b000] = _SQRT_HALF
    amps[:, 0b111] = c * _SQRT_HALF
    amps[:, 0b011] = d * _SQRT_HALF
    return amps


def _theta_amps(a: np.ndarray, b: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """(n, 8) amplitudes of the theta channels of unit pairs (a[i], b[i])
    about axis "xyz"[axes[i]]."""
    return a[:, None] * _THETA_A + b[:, None] * _THETA_B[axes]


def _bell_table(amps: np.ndarray) -> np.ndarray:
    """(n, 2, 4) Bell amplitudes W[c, p] = <bell_p| <c| chan of n channels'
    amplitudes; einsum, as BLAS's first call grows peak memory."""
    return np.einsum("nck,pk->ncp", amps.reshape(-1, 2, 4), BELL_BRAS)


def _bell_weights(table: np.ndarray) -> np.ndarray:
    """(n, 4) Bell weights w_p = sum_c |W[c, p]|^2 of (n, 2, 4) Bell tables:
    the diagonal of rho_SR = tr_C chan in the Bell basis.  The two terms are
    added directly: np.sum's call costs more than the sum."""
    weights = table.real**2 + table.imag**2
    return weights[:, 0] + weights[:, 1]


def _first_max(weights: np.ndarray) -> np.ndarray:
    """Last-axis argmax, ties within 1e-12 going to the earlier entry."""
    return np.argmax(weights >= weights.max(axis=-1, keepdims=True) - EXACT_ATOL, axis=-1)


class ControllerBasis(NamedTuple):
    """The controller's measurement of n channels, one row per outcome."""

    bras: np.ndarray   # (n, 2, 2) the controller bras
    pairs: np.ndarray  # (n, 2) index into BELL_OUTCOMES of the pair each names
    rows: np.ndarray   # (n, 2, 4) Bell amplitudes bras @ W that each leaves


def _controller_basis(amps: np.ndarray) -> ControllerBasis:
    """The controller basis of (n, 8) channels, read off their Bell tables W.

    The first bra is W's heaviest column, conjugated and normalized, and the
    second the unit vector orthogonal to it.  That column holds at least a
    quarter of the weight, so no channel leaves the rule without a basis.
    Each outcome names the pair of largest weight in its row of bras @ W,
    ties within 1e-12 going to the earlier pair, and the outcomes are
    ordered by the index of that pair, a tie keeping the heaviest column
    first.  On a channel that some controller basis makes perfect, the rule
    finds that basis: |x+-> on MS, the computational one on theta.
    """
    table = _bell_table(amps)
    col = table[np.arange(len(table)), :, _first_max(_bell_weights(table))]
    col /= np.sqrt(np.sum(col.real**2 + col.imag**2, axis=-1, keepdims=True))
    bras = np.empty_like(table[..., :2])
    bras[:, 0] = col.conj()
    bras[:, 1, 0] = col[:, 1]
    bras[:, 1, 1] = -col[:, 0]
    # bras @ W, written out: two products cost less than an einsum here
    rows = bras[..., :1] * table[:, None, 0] + bras[..., 1:] * table[:, None, 1]
    pairs = _first_max(rows.real**2 + rows.imag**2)
    swap = pairs[:, 1] < pairs[:, 0]
    for a in (bras, pairs, rows):
        a[swap] = a[swap, ::-1]
    return ControllerBasis(bras, pairs, rows)


NAMED_CHANNELS = ("tetrahedral_xz", "ms_xy", "psi_yz")


def named_channel(name: str, a: float, b: float) -> ThetaChannel:
    """The matched channel for a named equatorial input family.

    Each name ends in its family (tetrahedral_xz in xz, ms_xy in xy,
    psi_yz in yz), and the channel rotates about the axis MATCHED_AXIS
    gives that family, so the family's Pauli expectation vanishes.
    """
    if name not in NAMED_CHANNELS:
        raise ValueError(
            f"unknown channel name {name!r}; expected one of {sorted(NAMED_CHANNELS)}"
        )
    return ThetaChannel(a, b, MATCHED_AXIS[name.rpartition("_")[2]])


# ---------------------------------------------------------------------------
# 3-tangle

class TangleReport(NamedTuple):
    tau: float
    meets_bound: bool


def _tangles(amps: np.ndarray) -> np.ndarray:
    """3-tangles of (n, 8) amplitude rows: the hyperdeterminant magnitude
    tau = 4|d1 - 2 d2 + 4 d3|, capped at 1.  tau scales as |psi|^4, and a
    PureState's |psi|^2 may exceed 1 by 1e-10, so ValueError only if a row
    exceeds (1 + 1e-10)^2 by more than 1e-12, which no PureState reaches."""
    p = amps.T
    d1 = p[0] ** 2 * p[7] ** 2 + p[1] ** 2 * p[6] ** 2 + p[2] ** 2 * p[5] ** 2 + p[4] ** 2 * p[3] ** 2
    d2 = (
        p[0] * p[7] * p[3] * p[4]
        + p[0] * p[7] * p[5] * p[2]
        + p[0] * p[7] * p[6] * p[1]
        + p[3] * p[4] * p[5] * p[2]
        + p[3] * p[4] * p[6] * p[1]
        + p[5] * p[2] * p[6] * p[1]
    )
    d3 = p[0] * p[6] * p[5] * p[3] + p[7] * p[1] * p[2] * p[4]
    tau = 4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3)
    if (tau > (1.0 + INPUT_ATOL) ** 2 + EXACT_ATOL).any():
        raise ValueError(f"3-tangle {float(np.max(tau))!r} exceeds 1 beyond tolerance")
    return np.minimum(tau, 1.0)


def three_tangle(state: PureState) -> TangleReport:
    """Residual (three-way) entanglement of a pure 3-qubit state.

    Computed as the hyperdeterminant magnitude tau = 4|d1 - 2 d2 + 4 d3|
    over the eight amplitudes.  Known family values: c^2 for an MS state,
    4 a^2 b^2 for a theta channel, 1 for GHZ, 0 for anything with a
    product-qubit factor.  It is the one-row stack of ``_tangles``, so a
    sweep's tau is the same float.
    """
    if state.num_qubits != 3:
        raise DimensionError(f"3-tangle needs 3 qubits, got {state.num_qubits}")
    tau = float(_tangles(state.amps[None])[0])
    return TangleReport(tau=tau, meets_bound=tau >= _TANGLE_CUTOFF)


# ---------------------------------------------------------------------------
# plain-text serialization (consumed by the CLI)

def channel_to_config(spec: ChannelSpec) -> str:
    """Serialize a spec to ``key = value`` lines; inverse of channel_from_config."""
    values = dict(spec.params())
    if spec.family == "raw":
        values["amps"] = " ".join(repr(complex(x)) for x in spec.state.amps)
    # str() of a float is its round-tripping repr
    lines = [f"family = {spec.family}"] + [f"{k} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


_FAMILIES = {cls.family: cls for cls in (GHZChannel, MSChannel, ThetaChannel, RawChannel)}


def channel_from_config(text: str) -> ChannelSpec:
    """Parse the ``key = value`` channel format written by channel_to_config.

    Keys the family does not use are ignored; a missing or repeated one
    raises ValueError naming it.
    """
    values: dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise ValueError(f"channel config repeats the {key!r} key")
        values[key] = value.strip()
    family = values.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown channel family {family!r}")
    cls = _FAMILIES[family]
    keys = ["amps"] if family == "raw" else [f.name for f in fields(cls) if f.init]
    for key in keys:
        if key not in values:
            raise ValueError(f"{family} channel config has no {key!r} line")
    if family == "raw":
        amps = [complex(tok) for tok in values["amps"].split()]
        if len(amps) != 8:
            raise ValueError(f"raw channel needs 8 amplitudes, got {len(amps)}")
        return RawChannel(state=PureState(np.array(amps, dtype=complex)))
    # check_unit_pair reads the MS and theta floats from their text
    return cls(**{key: values[key] for key in keys})
