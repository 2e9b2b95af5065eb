"""Three-qubit teleportation channel families and the 3-tangle monotone.

Role convention for every channel state: qubit 0 belongs to the controller,
qubit 1 to the sender, qubit 2 to the receiver.

Families:

* ``ms_state(c, d)``       (|000> + c|111> + d|011>)/sqrt(2), c^2 + d^2 = 1
* GHZ                      the c=1, d=0 member of the family above
* ``theta_channel(a,b,k)`` a|0>|phi+>  +  b|1>(I x sigma_k)|phi+>
* raw                      any caller-supplied normalized 3-qubit state

The controller's slice of an MS state decomposes over Bell pairs as

    1/2 [(1+d)|0> + c|1>] |phi+>  +  1/2 [(1-d)|0> - c|1>] |phi->

which is where ``charlie_basis`` comes from: measuring the controller qubit
in that (normalized, orthogonal) basis collapses sender+receiver onto a
known Bell pair.  The controller of a theta or raw channel measures in the
computational basis, and each outcome names the Bell pair of largest weight
in the pair it leaves: on a theta channel the pair the outcome leaves
exactly.  The receiver corrects toward that pair, whatever the input.

Each formula is written once, over stacks: ``_ms_amps`` and ``_theta_amps``
give (n, 8) amplitudes, ``_charlie_bras`` the (n, 2, 2) MS controller bras,
``_computational_pairs`` the pairs a computational controller names, and
``_tangles`` the 3-tangles of (n, 8) rows.  ``ms_state``,
``theta_channel``, ``charlie_basis``, ``three_tangle`` and the default
``controller_measurement`` are their validated one-row views.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import (
    DegenerateBasisError,
    DimensionError,
    NormalizationError,
)
from .qcore import (
    BELL_BRAS,
    BELL_OUTCOMES,
    EXACT_ATOL,
    INPUT_ATOL,
    PSD_ATOL,
    PAULI_Y_REAL,
    BellOutcome,
    PureState,
    _const,
    make_qubit,
    pauli,
)

TANGLE_BOUND = 8.0 / 9.0


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

# (label, basis vector, Bell pair the receiver corrects toward)
ControllerOutcome = tuple[str, PureState, BellOutcome]


@dataclass(frozen=True)
class ChannelSpec:
    """A member of a channel family, with the facts the protocol needs.

    Every subclass names its ``family``, builds its 3-qubit ``state`` once
    per spec object, and has a ``controller_measurement``: one
    (label, basis vector, Bell pair left) triple per controller outcome;
    that pair and the sender's outcome alone fix the receiver's Pauli.
    ``dominant_bell`` is the Bell pair of the most likely outcome, which
    the receiver corrects toward when the controller abstains.
    """

    family: ClassVar[str]
    dominant_bell: ClassVar[BellOutcome] = BellOutcome.PHI_PLUS  # plain corrections
    # averages run over this input family's great circle, or the sphere
    matched_family: ClassVar[str | None] = None

    def params(self) -> dict[str, object]:
        """The family parameters a report prints, in order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @cached_property
    def controller_measurement(self) -> tuple[ControllerOutcome, ...]:
        """The controller measured in the computational basis: outcome c
        names the Bell pair p of largest weight |<bell_p| <c| chan|^2, ties
        within 1e-12 going to the earlier pair in BELL_OUTCOMES.  Theta and
        raw channels measure so; MS channels override it."""
        best = _computational_pairs(self.state.amps[None])[0]
        return tuple(
            (label, make_qubit(*np.eye(2)[c]), BELL_OUTCOMES[best[c]])
            for c, label in enumerate("01")
        )


@dataclass(frozen=True)
class MSChannel(ChannelSpec):
    """Maximal-slice channel with real parameters c, d, c^2 + d^2 = 1."""

    family: ClassVar[str] = "ms"

    c: float
    d: float

    def __post_init__(self) -> None:
        c, d = check_unit_pair(self.c, self.d, "c, d")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @cached_property
    def state(self) -> PureState:
        return ms_state(self.c, self.d)

    @cached_property
    def controller_measurement(self) -> tuple[ControllerOutcome, ...]:
        if self.c**2 <= EXACT_ATOL:
            # charlie_basis degenerates here, but the controller is (all but)
            # a product factor: its |0> leaves the Bell pair that x+ (d > 0)
            # or x- (d < 0) names, and its |1> has probability c^2/2 <= ZERO_PROB
            zero, one = make_qubit(1.0, 0.0), make_qubit(0.0, 1.0)
            plus, minus = (zero, one) if self.d > 0.0 else (one, zero)
        else:
            plus, minus = charlie_basis(self.c, self.d)
        return (("x+", plus, BellOutcome.PHI_PLUS), ("x-", minus, BellOutcome.PHI_MINUS))

    @property
    def dominant_bell(self) -> BellOutcome:
        return self.controller_measurement[self.d < 0.0][2]  # P(x-) > P(x+) iff d < 0


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
        return theta_channel(self.a, self.b, self.k)

    @property
    def dominant_bell(self) -> BellOutcome:
        # |0> leaves phi+, |1> the pair (I x sigma_k)|phi+>, with P(1) = b^2
        return self.controller_measurement[self.b**2 > self.a**2][2]

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
# constructors: each family is one stacked formula over arrays of parameters,
# (n, 8) amplitudes or (n, 2, 2) controller bras, and the public
# constructors are its validated one-row views

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# a theta channel is a * _THETA_A + b * _THETA_B[k], k indexing "xyz", with
# PAULI_Y_REAL for y (see theta_channel)
_PHI_PLUS = np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=complex)
_THETA_A = _const(np.kron([1.0, 0.0], _PHI_PLUS))
_THETA_B = _const([
    np.kron([0.0, 1.0], np.kron(np.eye(2), sigma) @ _PHI_PLUS)
    for sigma in (pauli("x"), PAULI_Y_REAL, pauli("z"))
])


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


def _charlie_bras(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(n, 2, 2) bras (<x+|, <x-|) of ``charlie_basis`` for unit pairs
    (c[i], d[i]); DegenerateBasisError if any vector vanishes."""
    vecs = np.empty((len(c), 2, 2), dtype=complex)
    vecs[:, 0, 0] = 1.0 + d
    vecs[:, 0, 1] = c
    vecs[:, 1, 0] = 1.0 - d
    vecs[:, 1, 1] = -c
    norm2 = np.sum(np.abs(vecs) ** 2, axis=-1)
    if np.any(norm2 < EXACT_ATOL):
        i, j = np.argwhere(norm2 < EXACT_ATOL)[0]
        raise DegenerateBasisError(
            f"controller basis vector {('x+', 'x-')[j]} vanishes at "
            f"c={float(c[i])!r}, d={float(d[i])!r}"
        )
    return (vecs / np.sqrt(norm2)[..., None]).conj()


def _computational_pairs(amps: np.ndarray) -> np.ndarray:
    """(n, 2) indices into BELL_OUTCOMES of the pair each computational
    controller outcome c of the (n, 8) channels names: the pair p of largest
    weight |<bell_p| <c| chan|^2, ties within 1e-12 going to the earlier."""
    weights = np.abs(amps.reshape(-1, 2, 4) @ BELL_BRAS.T) ** 2
    return np.argmax(weights >= weights.max(axis=-1, keepdims=True) - EXACT_ATOL, axis=-1)


def ms_state(c: float, d: float) -> PureState:
    """(|000> + c|111> + d|011>)/sqrt(2) with real c, d and c^2+d^2 = 1."""
    c, d = check_unit_pair(c, d, "c, d")
    return PureState(_ms_amps(np.array([c]), np.array([d]))[0])


def charlie_basis(c: float, d: float) -> tuple[PureState, PureState]:
    """Controller measurement basis that collapses an MS channel onto Bell pairs.

    Returns (|x+>, |x->) with

        |x+> = [(1+d)|0> + c|1>] / sqrt((1+d)^2 + c^2)
        |x-> = [(1-d)|0> - c|1>] / sqrt((1-d)^2 + c^2)

    Raises DegenerateBasisError when either vector vanishes before
    normalization, which happens exactly at c=0 with d = -1 or +1.
    """
    c, d = check_unit_pair(c, d, "c, d")
    plus, minus = _charlie_bras(np.array([c]), np.array([d]))[0].conj()
    return PureState(plus), PureState(minus)


def theta_channel(a: float, b: float, k: str) -> PureState:
    """a|0>|phi+> + b|1>(I x sigma_k)|phi+> with a^2 + b^2 = 1.

    For k='y' the rotation uses the real matrix PAULI_Y_REAL, so the
    b-branch comes out as exactly b|1>|psi->; the Hermitian Pauli y would
    only multiply that branch by a phase i.
    """
    a, b = check_unit_pair(a, b, "a, b")
    if k not in ("x", "y", "z"):
        raise ValueError(f"unknown Pauli axis {k!r}")
    return PureState(_theta_amps(np.array([a]), np.array([b]), np.array(["xyz".index(k)]))[0])


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

@dataclass(frozen=True)
class TangleReport:
    tau: float
    meets_bound: bool


def _tangles(amps: np.ndarray) -> np.ndarray:
    """3-tangles of (n, 8) amplitude rows, or of one (8,) row: the
    hyperdeterminant magnitude tau = 4|d1 - 2 d2 + 4 d3|, capped at 1;
    ValueError if any row exceeds 1 by more than 1e-10.  One row is
    evaluated on scalars, a third of the cost of a one-row stack; stacked
    complex products and magnitudes can round an ulp apart from scalar
    ones."""
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
    if (tau > 1.0 + PSD_ATOL).any():
        raise ValueError(f"3-tangle {float(np.max(tau))!r} exceeds 1 beyond tolerance")
    return np.minimum(tau, 1.0)


def three_tangle(state: PureState) -> TangleReport:
    """Residual (three-way) entanglement of a pure 3-qubit state.

    Computed as the hyperdeterminant magnitude tau = 4|d1 - 2 d2 + 4 d3|
    over the eight amplitudes.  Known family values: c^2 for an MS state,
    4 a^2 b^2 for a theta channel, 1 for GHZ, 0 for anything with a
    product-qubit factor.
    """
    if state.num_qubits != 3:
        raise DimensionError(f"3-tangle needs 3 qubits, got {state.num_qubits}")
    tau = float(_tangles(state.amps))
    return TangleReport(tau=tau, meets_bound=tau >= TANGLE_BOUND - 1e-10)


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
