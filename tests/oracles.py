"""Reference primitives the tests pin the package to.

The package contracts whole measurements at once; these functions take
one step at a time on validated registers of up to four qubits, the way
the protocol is written on paper, so the tests can walk every branch
independently of the engine.  ``walk_unconditioned`` walks the
controller-absent protocol with the same formulas, one sender outcome at
a time, validating each input's joint register and its result once, and
is the reference every controller-absent number is pinned to, for every
channel, whether or not the outcomes leave one state; it corrects toward
``dominant_pair``, read off the oracle's own Bell weights, and
``max_coherence`` is the largest entry off the diagonal of its Bell matrix.
``transfer_matrix_per_outcome`` builds the receiver's Pauli transfer
matrix one sender outcome at a time: the engine's lambda is its diagonal,
and ``outcome_spread``, the gap between the outcomes' matrices, is what
``per_outcome_equal`` reports on.  ``design`` holds exact designs for
quadratics in the Bloch vector, where the walk's mean is the average the
package computes in closed form.
``mismatch_ncf_closed`` is the closed form the mismatch averages are
checked against, ``monte_carlo_one_shot`` draws a whole Monte Carlo
average at once (at ``one_shot_inputs``), as the streamed one must, and
``ncf_variance`` is the exact variance its standard error estimates.
``exact_averages`` computes lambda, the averages and the variances in exact
rational arithmetic from a spec's float amplitudes, and ``ulps`` measures
a float's distance from such a value.
``random_channels`` draws ``verify --quick``'s random channels as specs,
from the arrays the package turns straight into amplitudes, and
``random_local_unitary`` one of its Haar-random rotations.
``stack_specs`` lists one spec of every kind a stack must hold.  The
``*_scalar`` functions build one channel at a time, as the constructors
did before they became stacked formulas; the stacks, and the state of
each spec, must reproduce them bit for bit.  ``controller_outcomes`` is
one channel's row of the package's ``_controller_basis``, labelled, as the
walks read it; ``controller_basis_scalar`` reads one channel's controller
basis off its Bell table, outcome by outcome, and ``charlie_kets_scalar``
and ``computational_pairs_scalar`` are the closed forms that basis must
reach on MS and theta channels.
``theta_amps_scalar`` reaches a theta channel's b-branch by applying
sigma_k to phi+, with the real ``PAULI_Y_REAL`` for y, where the package
reads the pair it leaves off its Bell basis.  ``fidelity_with_pure`` is
the fidelity of a density operator with a pure state.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from ctpower.analysis import FAMILY_NAMES
from ctpower.channels import (
    MATCHED_AXIS,
    ChannelSpec,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    _controller_basis,
    check_unit_pair,
)
from ctpower.errors import DimensionError
from ctpower.protocol import (
    INPUT_FAMILIES,
    _CORRECTIONS,
    ArbitraryInput,
    input_state,
    ncf_batch,
)
from ctpower.qcore import (
    BELL_BRAS,
    BELL_OUTCOMES,
    EXACT_ATOL,
    IDENTITY,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ZERO_PROB,
    BellOutcome,
    DensityOperator,
    PureState,
    bell_state,
    pauli,
)
from ctpower.verify import _random_local_unitaries


class MatchedFamiliesError(ValueError):
    """A mismatch computation was asked to pair a channel with its own family."""


# ---------------------------------------------------------------------------
# composition and gates

# Real stand-in for the y rotation: equals -i*PAULI_Y = PAULI_X @ PAULI_Z.
# It sends (|00>+|11>)/sqrt(2) to (|01>-|10>)/sqrt(2) with no leftover phase,
# and |<phi|PAULI_Y_REAL|phi>| = |<phi|PAULI_Y|phi>| for every |phi>.
PAULI_Y_REAL = np.array([[0, -1], [1, 0]], dtype=complex)


def tensor(left: PureState, right: PureState) -> PureState:
    """Tensor product; ``left`` supplies the leading (leftmost) qubits."""
    if left.num_qubits + right.num_qubits > MAX_QUBITS:
        raise DimensionError(
            f"product register of {left.num_qubits + right.num_qubits} qubits "
            f"exceeds the {MAX_QUBITS}-qubit limit"
        )
    return PureState(np.kron(left.amps, right.amps))


def apply_gate(gate: np.ndarray, target: int, state: PureState) -> PureState:
    """Apply a 2x2 gate to qubit ``target``."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise DimensionError(f"single-qubit gate must be 2x2, got {g.shape}")
    n = state.num_qubits
    if not 0 <= target < n:
        raise IndexError(f"target qubit {target} out of range for {n} qubits")
    return PureState(_gate_tensor(g, target, state.amps.reshape((2,) * n)).reshape(-1))


def _gate_tensor(gate: np.ndarray, target: int, t: np.ndarray) -> np.ndarray:
    """The gate applied to axis ``target`` of the amplitude tensor t."""
    return np.moveaxis(np.tensordot(gate, t, axes=([1], [target])), 0, target)


def to_density(state: PureState) -> DensityOperator:
    """Rank-one density operator |state><state|."""
    return DensityOperator(np.outer(state.amps, state.amps.conj()))


# ---------------------------------------------------------------------------
# measurement projections

def project_single_qubit(
    state: PureState, target: int, onto: PureState
) -> tuple[float, PureState | None]:
    """Project qubit ``target`` onto the 1-qubit state ``onto``.

    Returns (probability, normalized post-measurement state).  The post
    state drops the measured qubit, preserving the order of the rest; it
    is None when the probability vanishes or no qubits remain.
    """
    if onto.num_qubits != 1:
        raise DimensionError("projection target must be a single-qubit state")
    n = state.num_qubits
    if not 0 <= target < n:
        raise IndexError(f"qubit {target} out of range for {n} qubits")
    t = state.amps.reshape((2,) * n)
    amp = np.tensordot(onto.amps.conj(), t, axes=([0], [target]))
    return _finish_projection(amp)


def project_two_qubit(
    state: PureState, first: int, second: int, onto: PureState
) -> tuple[float, PureState | None]:
    """Project qubits (first, second) onto the 2-qubit state ``onto``.

    ``onto`` qubit 0 matches ``first`` and qubit 1 matches ``second``.
    Returns (probability, post state on the remaining qubits in their
    original order), post being None on zero probability or an empty
    remainder.
    """
    if onto.num_qubits != 2:
        raise DimensionError("projection target must be a two-qubit state")
    n = state.num_qubits
    if first == second:
        raise IndexError("projection qubits must be distinct")
    for q in (first, second):
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n} qubits")
    t = state.amps.reshape((2,) * n)
    o = onto.amps.conj().reshape(2, 2)
    amp = np.tensordot(o, t, axes=([0, 1], [first, second]))
    return _finish_projection(amp)


def _finish_projection(amp: np.ndarray) -> tuple[float, PureState | None]:
    prob = float(np.sum(np.abs(amp) ** 2))
    if prob <= ZERO_PROB:
        return 0.0, None
    if amp.ndim == 0:
        return prob, None
    return prob, PureState(amp.reshape(-1) / np.sqrt(prob))


# ---------------------------------------------------------------------------
# reduced states and comparisons

def partial_trace(rho: DensityOperator, discard: Iterable[int]) -> DensityOperator:
    """Trace out the qubits in ``discard``, keeping the rest in order."""
    n = rho.num_qubits
    gone = sorted(set(discard))
    if not gone:
        raise IndexError("must discard at least one qubit")
    if any(q < 0 or q >= n for q in gone):
        raise IndexError(f"discard indices {gone} out of range for {n} qubits")
    if len(gone) >= n:
        raise IndexError("cannot discard every qubit")
    return DensityOperator(_trace_out(rho.mat, n, gone))


def _trace_out(mat: np.ndarray, n: int, gone: list[int]) -> np.ndarray:
    """The n-qubit operator ``mat`` with the qubits ``gone`` traced out."""
    keep = [q for q in range(n) if q not in set(gone)]
    t = mat.reshape((2,) * (2 * n))
    # row axis q and column axis n+q share a label for traced qubits
    row = list(range(n))
    col = [q if q in set(gone) else n + q for q in range(n)]
    out = keep + [n + q for q in keep]
    dim = 2 ** len(keep)
    return np.einsum(t, row + col, out).reshape(dim, dim)


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = EXACT_ATOL) -> bool:
    """True when a = e^{i alpha} b for some real alpha, within ``tol``."""
    if a.num_qubits != b.num_qubits:
        raise DimensionError("states live on different numbers of qubits")
    return bool(abs(np.vdot(a.amps, b.amps)) >= 1.0 - tol)


def fidelity_with_pure(rho: DensityOperator, phi: PureState) -> float:
    """<phi| rho |phi> / |phi|^2, clamped to [0, 1]: the fidelity of the
    normalized state, also for a ``phi`` up to 1e-10 off unit norm."""
    if rho.num_qubits != phi.num_qubits:
        raise DimensionError(
            f"operator on {rho.num_qubits} qubits vs state on {phi.num_qubits}"
        )
    overlap = complex(np.vdot(phi.amps, rho.mat @ phi.amps))
    val = overlap / np.vdot(phi.amps, phi.amps).real
    if abs(val.imag) > EXACT_ATOL or not -EXACT_ATOL <= val.real <= 1.0 + EXACT_ATOL:
        raise ValueError(f"fidelity {val!r} outside [0, 1] beyond tolerance")
    return min(max(val.real, 0.0), 1.0)


# ---------------------------------------------------------------------------
# the controller-absent protocol, one sender outcome at a time

def dominant_pair(spec: ChannelSpec) -> BellOutcome:
    """The pair the receiver corrects toward when the controller abstains,
    from the oracle's own Bell weights sum_c |<bell_p| <c| chan|^2, one pair
    at a time: the largest, ties within 1e-12 going to the earlier pair,
    but phi+ on a raw channel."""
    if spec.family == "raw":
        return BellOutcome.PHI_PLUS
    chan = spec.state.amps.reshape(2, 4)
    weights = [
        sum(abs(np.vdot(bell_state(p).amps, chan[c])) ** 2 for c in range(2))
        for p in BELL_OUTCOMES
    ]
    return next(p for p, w in zip(BELL_OUTCOMES, weights) if w >= max(weights) - EXACT_ATOL)


def max_coherence(spec: ChannelSpec) -> float:
    """max |B_pq|, p != q, of the Bell matrix B_pq = sum_c <bell_p| <c| chan
    conj(<bell_q| <c| chan), one entry at a time from the oracle's Bell
    states: the coherence by which the sender outcomes' maps may differ."""
    chan = spec.state.amps.reshape(2, 4)
    amp = [[np.vdot(bell_state(p).amps, chan[c]) for p in BELL_OUTCOMES] for c in range(2)]
    return max(
        abs(amp[0][p] * np.conj(amp[0][q]) + amp[1][p] * np.conj(amp[1][q]))
        for p in range(4) for q in range(4) if p != q
    )


def correction(shared, outcome) -> np.ndarray:
    """The Pauli that restores the input when the sender and receiver share
    the Bell pair ``shared`` and the sender measures ``outcome``: the XOR
    of their indices into BELL_OUTCOMES picks it from the package's table."""
    return _CORRECTIONS[BELL_OUTCOMES.index(shared) ^ BELL_OUTCOMES.index(outcome)]


def walk_unconditioned(spec: ChannelSpec, f) -> tuple[np.ndarray, float]:
    """(rho3 matrix, spread of the per-outcome states) for one input.

    Each sender outcome is projected, corrected toward the dominant branch
    and stripped of the controller on its own, with the formulas of the
    primitives above; the joint register is validated once, on the way in,
    and rho3 once, on the way out.  The outcomes this input never sees are
    dropped, and the kept ones are weighed by their probabilities; the
    spread is the largest gap between two kept outcomes' states.
    """
    phi = input_state(f)
    joint = tensor(phi, spec.state).amps.reshape(2, 2, 2, 2)
    mats, probs = [], []
    for outcome in BELL_OUTCOMES:
        bra = bell_state(outcome).amps.conj().reshape(2, 2)
        post = np.tensordot(bra, joint, axes=([0, 1], [0, 2]))  # (controller, receiver)
        p = float(np.sum(np.abs(post) ** 2))
        if p <= ZERO_PROB:
            continue
        corrected = _gate_tensor(correction(dominant_pair(spec), outcome), 1, post / np.sqrt(p))
        mats.append(_trace_out(np.outer(corrected, corrected.conj()), 2, [0]))
        probs.append(p)
    mats = np.array(mats)
    spread = float(np.max(np.abs(mats[:, None] - mats[None, :])))
    rho = DensityOperator(np.tensordot(probs, mats, axes=1) / sum(probs))
    return rho.mat, spread


def walk_ncf(spec: ChannelSpec, k0, k1) -> np.ndarray:
    """<phi| rho3 |phi> / |phi|^2 of ``walk_unconditioned`` at each input
    of the amplitude arrays: the fidelity of the normalized input."""
    out = []
    for amps in zip(np.ravel(k0), np.ravel(k1)):
        phi = PureState(np.array(amps, dtype=complex))
        rho, _ = walk_unconditioned(spec, phi)
        out.append(np.vdot(phi.amps, rho @ phi.amps).real / np.vdot(phi.amps, phi.amps).real)
    return np.array(out)


def transfer_matrix_per_outcome(
    spec: ChannelSpec, dominant=None, summed: bool = True
) -> np.ndarray:
    """R_ij = tr(sigma_i E(sigma_j))/2 of the controller-absent protocol E:
    for each sender outcome, the two Kraus operators (one per computational
    controller state) with the correction toward ``dominant`` (default the
    spec's dominant pair), contracted on their own, then summed over the
    outcomes; ``summed`` False keeps the (4, 4, 4) stack of the outcomes'
    matrices."""
    dominant = dominant_pair(spec) if dominant is None else dominant
    paulis = np.array([IDENTITY, PAULI_X, PAULI_Y, PAULI_Z])
    chan = spec.state.amps.reshape(2, 2, 2)  # (controller, sender, receiver)
    per_outcome = np.empty((len(BELL_OUTCOMES), 4, 4))
    for o, outcome in enumerate(BELL_OUTCOMES):
        bra = bell_state(outcome).amps.conj().reshape(2, 2)  # (input, sender)
        # kraus[c] maps the input qubit to the receiver, controller left in |c>
        kraus = np.einsum("ts,csr->crt", bra, chan)
        kraus = correction(dominant, outcome) @ kraus
        per_outcome[o] = 0.5 * np.einsum(
            "iab,cbd,jde,cae->ij", paulis, kraus, paulis, kraus.conj()
        ).real
    return per_outcome.sum(axis=0) if summed else per_outcome


def outcome_spread(spec: ChannelSpec) -> float:
    """The largest gap between two sender outcomes' transfer matrices, each
    divided by its weight R_00: 0 exactly when the outcomes leave one map."""
    per_outcome = transfer_matrix_per_outcome(spec, summed=False)
    normed = per_outcome / per_outcome[:, :1, :1]
    return float(np.max(np.abs(normed[:, None] - normed[None, :])))


# ---------------------------------------------------------------------------
# exact designs

# The NCF is a quadratic in the input's Bloch vector: the regular tetrahedron
# is a spherical 2-design, and three equally spaced members of a great
# circle average any degree-2 trigonometric polynomial.
_THIRDS = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])


def design(family: str | None) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude arrays (k0, k1) of the tetrahedron (``family`` None: the
    north pole and three points at polar angle arccos(-1/3)), or of three
    equally spaced members of a family's circle."""
    if family is None:
        return ArbitraryInput.amplitudes(
            np.array([0.0, *3 * [np.arccos(-1.0 / 3.0)]]), np.array([0.0, *_THIRDS])
        )
    return INPUT_FAMILIES[family].amplitudes(_THIRDS)


# ---------------------------------------------------------------------------
# mismatched channel/input families

_CANONICAL_FAMILY = {
    "xz": "xz", "x-z": "xz",
    "xy": "xy", "x-y": "xy",
    "yz": "yz", "y-z": "yz",
}


def _canon_family(name: str) -> str:
    try:
        return _CANONICAL_FAMILY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; expected one of {FAMILY_NAMES}"
        ) from None


def mismatch_ncf_closed(
    a: float, b: float, channel_family: str, input_family: str, angle: float
) -> float:
    """a^2 + b^2 |<phi_j| sigma_k |phi_j>|^2 for channel i teleporting family j.

    sigma_k is the axis matched to ``channel_family`` (x for yz, y for xz,
    z for xy); the input is the ``input_family`` member at ``angle``.
    Raises MatchedFamiliesError when i = j, where this reduces to the
    matched closed form.
    """
    i = _canon_family(channel_family)
    j = _canon_family(input_family)
    if i == j:
        raise MatchedFamiliesError(f"channel and input family are both {i!r}")
    a, b = check_unit_pair(a, b, "a, b")
    phi = np.array(INPUT_FAMILIES[j].amplitudes(float(angle)), dtype=complex)
    expectation = complex(np.vdot(phi, pauli(MATCHED_AXIS[i]) @ phi))
    return a * a + b * b * abs(expectation) ** 2


# ---------------------------------------------------------------------------
# Monte Carlo drawn all at once

# PCG64DXSM moves its 128-bit state s to s * _PCG_MULTIPLIER + inc, mod
# 2^128, once per double
_PCG_MULTIPLIER = 0xDA942042E4DD58B5
_MOD = 2**128


def stream_draws(
    seed: int, row: int, n: int, skip: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The uniform doubles at positions [skip, skip + n) and [skip + n,
    skip + 2n) of the (seed, row) stream: PCG64DXSM seeded by the row-th
    child that ``SeedSequence(seed).spawn`` gives, with its state carried
    ``skip`` steps by powers of the step's affine map, not by ``advance``."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed).spawn(row + 1)[row])
    state = bits.state
    mult, plus = 1, 0  # s -> mult s + plus, the steps taken so far
    step_mult, step_plus = _PCG_MULTIPLIER, state["state"]["inc"]
    while skip:
        if skip & 1:
            mult, plus = mult * step_mult % _MOD, (plus * step_mult + step_plus) % _MOD
        step_mult, step_plus = step_mult * step_mult % _MOD, (step_mult + 1) * step_plus % _MOD
        skip >>= 1
    state["state"]["state"] = (mult * state["state"]["state"] + plus) % _MOD
    bits.state = state
    rng = np.random.Generator(bits)
    first = rng.random(n)
    return first, rng.random(n)


def one_shot_inputs(
    family: str | None, n: int, seed: int, row: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude arrays (k0, k1) of n inputs drawn in one go, in the
    positive octant: theta = arccos u and phi = pi v/2 on the sphere
    (``family`` None), or angle pi u/2 on a family's circle."""
    first, second = stream_draws(seed, row, n)
    if family is None:
        return ArbitraryInput.amplitudes(np.arccos(first), np.pi / 2.0 * second)
    return INPUT_FAMILIES[family].amplitudes(np.pi / 2.0 * first)


def monte_carlo_one_shot(
    spec: ChannelSpec, family: str | None, n: int, seed: int, row: int
) -> tuple[float, float]:
    """Mean and standard error of the NCF at the ``one_shot_inputs``, from
    one ``ncf_batch``."""
    vals = ncf_batch(spec, *one_shot_inputs(family, n, seed, row))
    stderr = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(vals.mean()), stderr


# ---------------------------------------------------------------------------
# the exact spread of the NCF over a domain

def isotropic_moments(axes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """E[r_i r_j] and E[r_i r_j r_k r_l] for r uniform on the unit sphere
    of the span of the Bloch ``axes``: P/m and
    (P_ij P_kl + P_ik P_jl + P_il P_jk)/(m (m + 2)), with P the projector
    onto the span and m its dimension.  On the Bloch sphere these are
    delta_ij/3 and (delta delta + delta delta + delta delta)/15; on a great
    circle, with c and s the cosine and sine of the angle, E[c^2] = 1/2,
    E[c^4] = 3/8 and E[c^2 s^2] = 1/8.  Odd moments vanish on both."""
    proj = np.zeros((3, 3))
    proj[axes, axes] = 1.0
    m = len(axes)
    pairs = ("ij,kl->ijkl", "ik,jl->ijkl", "il,jk->ijkl")
    fourth = sum(np.einsum(pair, proj, proj) for pair in pairs)
    return proj / m, fourth / (m * (m + 2))


def ncf_variance(spec: ChannelSpec, family: str | None) -> float:
    """The variance of the NCF over the sphere (``family`` None) or over a
    family's circle, exactly, from the moments of the input's Bloch vector.

    NCF = (1 + g)/2 with g = t.r + r.S.r, t and S (symmetrized) read off
    ``transfer_matrix_per_outcome`` and divided by R00.  The odd moments
    vanish, so Var g = t.E[rr].t + S:E[rrrr]:S - (S:E[rr])^2.
    """
    transfer = transfer_matrix_per_outcome(spec)
    t = transfer[1:, 0] / transfer[0, 0]
    quad = transfer[1:, 1:] / transfer[0, 0]
    quad = (quad + quad.T) / 2.0
    if family is None:
        axes = [0, 1, 2]
    else:
        axes = [i for i, axis in enumerate("xyz") if axis != MATCHED_AXIS[family]]
    second, fourth = isotropic_moments(axes)
    mean_quad = float(np.einsum("ij,ij->", quad, second))
    var_g = t @ second @ t + np.einsum("ij,ijkl,kl->", quad, fourth, quad) - mean_quad**2
    return float(var_g) / 4.0


# ---------------------------------------------------------------------------
# the averages in exact rational arithmetic

# lambda_i = sum_p +-w_p over the Bell weights relabelled so that the
# dominant pair is phi+: pair p (phi+, phi-, psi+, psi-) is phi+ with the
# Pauli I, Z, X or XZ on the receiver's half, and the sign is + where that
# Pauli commutes with sigma_i (rows x, y, z)
_COMMUTES = ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, -1, -1))


class ExactAverages(NamedTuple):
    """A channel's receiver map and NCF moments as exact rationals, the
    moments keyed by family, None for the sphere."""

    lam: tuple[Fraction, ...]  # the receiver map's lambda_x, y, z
    mean: dict                 # the average NCF
    variance: dict             # the variance of the NCF


def exact_averages(spec: ChannelSpec) -> ExactAverages:
    """The receiver map and the NCF's averages and variances of ``spec`` in
    exact arithmetic, for the very floats its state holds: every float is a
    dyadic rational, and each Bell weight is 1/2 sum_c |x_c,i +- x_c,j|^2
    over the controller's slices, (i, j) = (00, 11) for phi+- and (01, 10)
    for psi+-, so the weights, lambda, the averages and the variances are
    all rationals.  Only the dominant pair is picked in floats, by
    ``dominant_pair``."""
    amps = [(Fraction(z.real), Fraction(z.imag)) for z in spec.state.amps.tolist()]
    weights = []
    for i, j in ((0b00, 0b11), (0b01, 0b10)):
        for sign in (1, -1):
            w = Fraction(0)
            for c in (0, 4):
                (ar, ai), (br, bi) = amps[c + i], amps[c + j]
                w += (ar + sign * br) ** 2 + (ai + sign * bi) ** 2
            weights.append(w / 2)
    dominant = BELL_OUTCOMES.index(dominant_pair(spec))
    relabelled = [weights[p ^ dominant] for p in range(4)]
    total = sum(weights)
    lam = tuple(sum(s * w for s, w in zip(row, relabelled)) / total for row in _COMMUTES)
    mean = {None: Fraction(1, 2) + sum(lam) / 6}
    variance = {None: sum((lam[i] - lam[j]) ** 2 for i, j in ((0, 1), (0, 2), (1, 2))) / 90}
    for family in FAMILY_NAMES:
        # the circle spans the two axes other than the family's matched one
        i, j = (n for n, axis in enumerate("xyz") if axis != MATCHED_AXIS[family])
        mean[family] = Fraction(1, 2) + (lam[i] + lam[j]) / 4
        variance[family] = (lam[i] - lam[j]) ** 2 / 32
    return ExactAverages(lam, mean, variance)


def ulps(got: float, want: Fraction, scale: float) -> float:
    """|got - want| in units in the last place of ``scale``."""
    return float(abs(Fraction(got) - want) / Fraction(math.ulp(scale)))


# ---------------------------------------------------------------------------
# the random channels of the perfect-ct check

def random_channels(rng: np.random.Generator, n: int) -> list[ChannelSpec]:
    """n channels, GHZ, an MS channel or a theta channel on a random axis, a
    third each, as validated specs: the array draws
    ``verify._random_channels`` takes, n kinds, then n angles, then n axes,
    and one spec built from each row."""
    kinds = rng.integers(3, size=n).tolist()
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    axes = rng.integers(3, size=n).tolist()
    cos, sin = np.cos(angles).tolist(), np.sin(angles).tolist()
    specs = []
    for kind, a, b, axis in zip(kinds, cos, sin, axes):
        if kind == 0:
            specs.append(GHZChannel())
        elif kind == 1:
            specs.append(MSChannel(c=a, d=b))
        else:
            specs.append(ThetaChannel(a=a, b=b, k="xyz"[axis]))
    return specs


def stack_specs(rng: np.random.Generator, gaussians: int = 20) -> list[ChannelSpec]:
    """One spec of every kind a stack must hold: GHZ; MS from c = 0 up to
    GHZ with d of either sign; theta on every axis with a^2 below, at and
    above 1/2 and b of either sign; and raw channels, which correct toward
    phi+: the W state, MS and theta channels with a Haar unitary on the
    controller, and ``gaussians`` normalized complex Gaussian states."""
    specs = [GHZChannel()]
    for c in (0.0, 1e-5, 1e-3, 0.1, 0.5, 0.9, 1.0):
        specs += [MSChannel(c, math.sqrt(1.0 - c * c)), MSChannel(c, -math.sqrt(1.0 - c * c))]
    for k in "xyz":
        for a2 in (0.2, 0.5, 0.7):
            a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
            specs += [ThetaChannel(a, b, k), ThetaChannel(a, -b, k)]
    w_state = np.zeros(8, dtype=complex)
    w_state[[0b001, 0b010, 0b100]] = 1.0 / math.sqrt(3.0)
    raws = [PureState(w_state)]
    for named in (MSChannel(0.6, -0.8), ThetaChannel(0.8, -0.6, "y")):
        raws.append(apply_gate(random_local_unitary(rng), 0, named.state))
    for _ in range(gaussians):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        raws.append(PureState(v / np.linalg.norm(v)))
    return specs + [RawChannel(state=state) for state in raws]


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """One Haar-random 2x2 unitary, drawn as ``check_three_tangle`` draws
    each of its rotations."""
    return _random_local_unitaries(rng, 1)[0]


# ---------------------------------------------------------------------------
# one channel at a time: the scalar constructors

def ms_amps_scalar(c: float, d: float) -> np.ndarray:
    """(|000> + c|111> + d|011>)/sqrt(2), written amplitude by amplitude."""
    amps = np.zeros(8, dtype=complex)
    s = 1.0 / np.sqrt(2.0)
    amps[0b000] = s
    amps[0b111] = c * s
    amps[0b011] = d * s
    return amps


def theta_amps_scalar(a: float, b: float, k: str) -> np.ndarray:
    """a|0>|phi+> + b|1>(I x sigma_k)|phi+>, with PAULI_Y_REAL for y, from
    fresh Kronecker products."""
    sigma = PAULI_Y_REAL if k == "y" else pauli(k)
    s = 1.0 / np.sqrt(2.0)
    phi_plus = np.array([s, 0.0, 0.0, s], dtype=complex)
    rotated = np.kron(np.eye(2), sigma) @ phi_plus
    return a * np.kron([1.0, 0.0], phi_plus) + b * np.kron([0.0, 1.0], rotated)


def charlie_kets_scalar(c: float, d: float) -> np.ndarray:
    """The kets (|x+>, |x->) of an MS channel's controller basis as rows,
    normalized one vector at a time; ValueError if one vanishes."""
    out = []
    for vec, label in (([1.0 + d, c], "x+"), ([1.0 - d, -c], "x-")):
        vec = np.array(vec, dtype=complex)
        norm2 = float(np.sum(np.abs(vec) ** 2))
        if norm2 < EXACT_ATOL:
            raise ValueError(f"controller basis vector {label} vanishes")
        out.append(vec / np.sqrt(norm2))
    return np.array(out)


def computational_pairs_scalar(amps: np.ndarray) -> list[int]:
    """For each computational controller outcome of one channel, the index
    into BELL_OUTCOMES of the pair of largest weight, ties within 1e-12
    going to the earlier pair."""
    weights = np.abs(amps.reshape(2, 4) @ BELL_BRAS.T) ** 2
    best = np.argmax(weights >= weights.max(axis=1, keepdims=True) - EXACT_ATOL, axis=1)
    return best.tolist()


def controller_outcomes(spec: ChannelSpec) -> list[tuple[str, PureState, BellOutcome]]:
    """(label, ket, Bell pair left) of each controller outcome of one
    channel: its row of ``_controller_basis``, the kets the conjugated bras,
    labelled by ``controller_labels``."""
    bras, pairs, _ = _controller_basis(spec.state.amps[None])
    return [
        (label, PureState(bra.conj()), BELL_OUTCOMES[pair])
        for label, bra, pair in zip(spec.controller_labels, bras[0], pairs[0])
    ]


def controller_basis_scalar(amps: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The controller basis of one channel, one outcome at a time: its kets
    as rows and the index into BELL_OUTCOMES of the pair each names.

    The first ket is the heaviest column of W[c, p] = <bell_p| <c| chan,
    normalized; the second is orthogonal to it, in a phase of its own.  Each
    names the pair p of largest |<ket| W[:, p]|^2, and the two are sorted by
    that pair, a tie keeping the heaviest column first.  Ties within 1e-12
    go to the earlier pair.
    """
    table = amps.reshape(2, 4) @ BELL_BRAS.T

    def first_max(weights: list[float]) -> int:
        return next(p for p, w in enumerate(weights) if w >= max(weights) - EXACT_ATOL)

    heavy = first_max([abs(table[0, p]) ** 2 + abs(table[1, p]) ** 2 for p in range(4)])
    first = table[:, heavy] / np.linalg.norm(table[:, heavy])
    kets = [first, np.array([-first[1].conjugate(), first[0].conjugate()])]
    pairs = [first_max([abs(np.vdot(ket, table[:, p])) ** 2 for p in range(4)]) for ket in kets]
    order = sorted(range(2), key=pairs.__getitem__)
    return np.array([kets[c] for c in order]), [pairs[c] for c in order]


def three_tangle_scalar(p: np.ndarray) -> float:
    """4|d1 - 2 d2 + 4 d3| of one amplitude vector, uncapped, term by term."""
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
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
