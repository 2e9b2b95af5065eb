"""Validated states, Pauli gates and Bell pairs for registers of 1 to 4 qubits.

Qubit ordering is big-endian: qubit 0 is the leftmost tensor factor, so
bit i of a basis index belongs to qubit i.  |q0 q1 .. q_{n-1}> lives at
index q0*2^(n-1) + q1*2^(n-2) + .. + q_{n-1}.

Amplitudes are plain Python/numpy complex numbers (``Amplitude`` below).
States and density operators are thin frozen wrappers around read-only
numpy arrays; every constructor validates the invariants it advertises.
The four Bell pairs are written once, as the rows of ``BELL_KETS``, and
the package builds every Bell-pair state and measurement from them.
The package itself builds registers of at most 3 qubits; the 4-qubit bound
serves the tests' branch-by-branch oracle (``tests/oracles.py``), which
holds the projections, partial trace, gate application and fidelity only
the tests use.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, NormalizationError

Amplitude = complex

EXACT_ATOL = 1e-12   # tolerance for identities that hold in exact arithmetic
INPUT_ATOL = 1e-10   # tolerance when validating user-supplied values
PSD_ATOL = 1e-10     # eigenvalue floor for density operators
ZERO_PROB = 1e-12    # branch probability at or below this is "never happens"

MAX_QUBITS = 4


def _as_register_length(size: int) -> int:
    """Number of qubits for a vector of length ``size``, or raise."""
    n = size.bit_length() - 1
    if size != 2**n or not 1 <= n <= MAX_QUBITS:
        raise DimensionError(
            f"length {size} is not a register of 1..{MAX_QUBITS} qubits"
        )
    return n


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state on 1..4 qubits (read-only amplitude vector)."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amps, dtype=complex).reshape(-1)
        _as_register_length(a.size)
        if not np.all(np.isfinite(a)):
            raise NormalizationError("state has a non-finite amplitude")
        norm2 = float(np.sum(np.abs(a) ** 2))
        if abs(norm2 - 1.0) > INPUT_ATOL:
            raise NormalizationError(f"sum |amp|^2 = {norm2!r}, expected 1")
        a.flags.writeable = False
        object.__setattr__(self, "amps", a)

    @property
    def num_qubits(self) -> int:
        return self.amps.size.bit_length() - 1


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator on 1..4 qubits."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got {m.shape}")
        _as_register_length(m.shape[0])
        if not np.all(np.isfinite(m)):
            raise NormalizationError("density matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > EXACT_ATOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(m))
        if abs(trace.real - 1.0) > INPUT_ATOL or abs(trace.imag) > EXACT_ATOL:
            raise NormalizationError(f"trace = {trace!r}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < -PSD_ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def num_qubits(self) -> int:
        return self.mat.shape[0].bit_length() - 1


# ---------------------------------------------------------------------------
# gates

def _const(rows) -> np.ndarray:
    g = np.array(rows, dtype=complex)
    g.flags.writeable = False
    return g


IDENTITY = _const([[1, 0], [0, 1]])
PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])

_PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def pauli(axis: str) -> np.ndarray:
    """Hermitian Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    try:
        return _PAULIS[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}") from None


# ---------------------------------------------------------------------------
# Bell pairs

class BellOutcome(Enum):
    """The four two-qubit Bell projectors, also used as measurement labels."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


BELL_OUTCOMES = tuple(BellOutcome)

_SQRT_HALF = 1.0 / np.sqrt(2.0)

# the Bell pairs phi+, phi-, psi+ and psi- as rows, in BELL_OUTCOMES order
BELL_KETS = _const(_SQRT_HALF * np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]
))
BELL_BRAS = _const(BELL_KETS.conj())


def bell_state(outcome: BellOutcome) -> PureState:
    """The Bell pair |phi+->, |psi+-> as a 2-qubit state."""
    return PureState(BELL_KETS[BELL_OUTCOMES.index(outcome)])


# ---------------------------------------------------------------------------
# single qubits

def make_qubit(k0: Amplitude, k1: Amplitude) -> PureState:
    """Single qubit k0|0> + k1|1>; |k0|^2+|k1|^2 must be 1 within 1e-10."""
    return PureState(np.array([k0, k1], dtype=complex))
