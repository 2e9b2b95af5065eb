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
known Bell pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasisError,
    DimensionError,
    NormalizationError,
)
from .qcore import (
    EXACT_ATOL,
    INPUT_ATOL,
    PSD_ATOL,
    PAULI_Y_REAL,
    PureState,
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

@dataclass(frozen=True)
class ChannelSpec:
    """Base class for parametrized channel families; see subclasses."""


@dataclass(frozen=True)
class GHZChannel(ChannelSpec):
    """Maximally entangled channel (|000> + |111>)/sqrt(2)."""


@dataclass(frozen=True)
class MSChannel(ChannelSpec):
    """Maximal-slice channel with real parameters c, d, c^2 + d^2 = 1."""

    c: float
    d: float

    def __post_init__(self) -> None:
        c, d = check_unit_pair(self.c, self.d, "c, d")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class ThetaChannel(ChannelSpec):
    """Bell-superposition channel a|0>|phi+> + b|1>(I x sigma_k)|phi+>."""

    a: float
    b: float
    k: str

    def __post_init__(self) -> None:
        a, b = check_unit_pair(self.a, self.b, "a, b")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.k not in ("x", "y", "z"):
            raise ValueError(f"Pauli axis must be x, y, or z, got {self.k!r}")


@dataclass(frozen=True)
class RawChannel(ChannelSpec):
    """Arbitrary caller-supplied 3-qubit channel state."""

    state: PureState

    def __post_init__(self) -> None:
        if self.state.num_qubits != 3:
            raise DimensionError(
                f"raw channel needs a 3-qubit state, got {self.state.num_qubits}"
            )


# ---------------------------------------------------------------------------
# constructors

def ms_state(c: float, d: float) -> PureState:
    """(|000> + c|111> + d|011>)/sqrt(2) with real c, d and c^2+d^2 = 1."""
    c, d = check_unit_pair(c, d, "c, d")
    amps = np.zeros(8, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    amps[0b000] = s
    amps[0b111] = c * s
    amps[0b011] = d * s
    return PureState(amps)


def charlie_basis(c: float, d: float) -> tuple[PureState, PureState]:
    """Controller measurement basis that collapses an MS channel onto Bell pairs.

    Returns (|x+>, |x->) with

        |x+> = [(1+d)|0> + c|1>] / sqrt((1+d)^2 + c^2)
        |x-> = [(1-d)|0> - c|1>] / sqrt((1-d)^2 + c^2)

    Raises DegenerateBasisError when either vector vanishes before
    normalization, which happens exactly at c=0 with d = -1 or +1.
    """
    c, d = check_unit_pair(c, d, "c, d")
    plus = np.array([1.0 + d, c], dtype=complex)
    minus = np.array([1.0 - d, -c], dtype=complex)
    out = []
    for vec, label in ((plus, "x+"), (minus, "x-")):
        norm2 = float(np.sum(np.abs(vec) ** 2))
        if norm2 < EXACT_ATOL:
            raise DegenerateBasisError(
                f"controller basis vector {label} vanishes at c={c!r}, d={d!r}"
            )
        out.append(PureState(vec / np.sqrt(norm2)))
    return out[0], out[1]


def theta_channel(a: float, b: float, k: str, hermitian_y: bool = False) -> PureState:
    """a|0>|phi+> + b|1>(I x sigma_k)|phi+> with a^2 + b^2 = 1.

    For k='y' the rotation uses the real matrix PAULI_Y_REAL by default, so
    the b-branch comes out as exactly b|1>|psi->; ``hermitian_y=True``
    switches to the Hermitian Pauli y, which only multiplies that branch by
    a global phase i and changes no probability, fidelity, or tangle.
    """
    a, b = check_unit_pair(a, b, "a, b")
    if k == "y" and not hermitian_y:
        sigma = PAULI_Y_REAL
    else:
        sigma = pauli(k)
    s = 1.0 / np.sqrt(2.0)
    phi_plus = np.array([s, 0.0, 0.0, s], dtype=complex)
    rotated = (np.kron(np.eye(2), sigma) @ phi_plus)
    amps = a * np.kron([1.0, 0.0], phi_plus) + b * np.kron([0.0, 1.0], rotated)
    return PureState(amps)


_NAMED_AXES = {"tetrahedral_xz": "y", "ms_xy": "z", "psi_yz": "x"}


def named_channel(name: str, a: float, b: float) -> ThetaChannel:
    """The matched channel for a named equatorial input family.

    tetrahedral_xz uses the y rotation, ms_xy the z rotation, psi_yz the x
    rotation; each makes the corresponding family's Pauli expectation vanish.
    """
    try:
        axis = _NAMED_AXES[name]
    except KeyError:
        raise ValueError(
            f"unknown channel name {name!r}; expected one of {sorted(_NAMED_AXES)}"
        ) from None
    return ThetaChannel(a, b, axis)


def realize(spec: ChannelSpec) -> PureState:
    """The 3-qubit state a ChannelSpec describes."""
    if isinstance(spec, GHZChannel):
        return ms_state(1.0, 0.0)
    if isinstance(spec, MSChannel):
        return ms_state(spec.c, spec.d)
    if isinstance(spec, ThetaChannel):
        return theta_channel(spec.a, spec.b, spec.k)
    if isinstance(spec, RawChannel):
        return spec.state
    raise TypeError(f"not a channel spec: {spec!r}")


# ---------------------------------------------------------------------------
# 3-tangle

@dataclass(frozen=True)
class TangleReport:
    tau: float
    meets_bound: bool


def three_tangle(state: PureState) -> TangleReport:
    """Residual (three-way) entanglement of a pure 3-qubit state.

    Computed as the hyperdeterminant magnitude tau = 4|d1 - 2 d2 + 4 d3|
    over the eight amplitudes.  Known family values: c^2 for an MS state,
    4 a^2 b^2 for a theta channel, 1 for GHZ, 0 for anything with a
    product-qubit factor.
    """
    if state.num_qubits != 3:
        raise DimensionError(f"3-tangle needs 3 qubits, got {state.num_qubits}")
    p = state.amps
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
    if tau > 1.0 + PSD_ATOL:
        raise ValueError(f"3-tangle {tau!r} exceeds 1 beyond tolerance")
    tau = min(tau, 1.0)
    return TangleReport(tau=tau, meets_bound=tau >= TANGLE_BOUND - 1e-10)


# ---------------------------------------------------------------------------
# plain-text serialization (consumed by the CLI)

def channel_to_config(spec: ChannelSpec) -> str:
    """Serialize a spec to ``key = value`` lines; inverse of channel_from_config."""
    lines = []
    if isinstance(spec, GHZChannel):
        lines.append("family = ghz")
    elif isinstance(spec, MSChannel):
        lines += ["family = ms", f"c = {spec.c!r}", f"d = {spec.d!r}"]
    elif isinstance(spec, ThetaChannel):
        lines += ["family = theta", f"a = {spec.a!r}", f"b = {spec.b!r}", f"k = {spec.k}"]
    elif isinstance(spec, RawChannel):
        amps = " ".join(repr(complex(x)) for x in spec.state.amps)
        lines += ["family = raw", f"amps = {amps}"]
    else:
        raise TypeError(f"not a channel spec: {spec!r}")
    return "\n".join(lines) + "\n"


def channel_from_config(text: str) -> ChannelSpec:
    """Parse the ``key = value`` channel format written by channel_to_config."""
    fields: dict[str, str] = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip().lower()] = value.strip()
    family = fields.get("family")
    if family == "ghz":
        return GHZChannel()
    if family == "ms":
        return MSChannel(c=float(fields["c"]), d=float(fields["d"]))
    if family == "theta":
        return ThetaChannel(a=float(fields["a"]), b=float(fields["b"]), k=fields["k"])
    if family == "raw":
        amps = [complex(tok) for tok in fields["amps"].split()]
        if len(amps) != 8:
            raise ValueError(f"raw channel needs 8 amplitudes, got {len(amps)}")
        return RawChannel(state=PureState(np.array(amps, dtype=complex)))
    raise ValueError(f"unknown channel family {family!r}")
