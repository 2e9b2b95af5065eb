"""Averaged fidelities, control power, bounds, sweeps, and mismatch checks.

Control power is C = 1 - f: what the controller's cooperation is worth.
A channel gives the controller real authority only when the fidelity
achievable WITHOUT the controller stays at or below the classical limit
2/3, i.e. when C >= 1/3.

Every average runs over one domain of inputs, named by ``family``: None
for the Bloch sphere, dOmega / 4pi over all pure qubit inputs, or one of
``FAMILY_NAMES`` for the uniform angle along that input family's great
circle.

Every method reads the receiver's Bloch map (``protocol.receiver_map``),
the one controller-absent engine: NCF(r) = (1 + sum_i lambda_i r_i^2)/2.
The exact method is its exact average (``_exact_average``, which
``mismatch_report`` and ``verify`` read).  ``_average`` dispatches one
map to a method, for ``avg_fidelity_numeric`` and for each row of the one
stack of maps ``sweep`` builds.  Monte Carlo evaluates its NCF on the
squared Bloch coordinates of inputs drawn from a PCG64DXSM generator keyed
by (seed, row-index), so every stochastic result is bit-reproducible from
the two.  The NCF reads only those squares, so every input is drawn in the
positive octant (or quarter circle), where the squares need one
trigonometric factor, sin^2(pi v/2), which ``_sin_squared`` evaluates as
a degree-9 polynomial in v^2: no libm call is made.  It computes the
draws in chunks of 32,768, cut into one contiguous run per usable CPU, up
to 3, each run on a thread of its own (the calling thread among them) in
buffers of its own, 1.25 MiB a thread.  Each chunk's moments go into one
row of a table, 24 bytes a chunk, which is folded in chunk order after
the threads end: the numbers do not depend on the number of CPUs, and
memory stays bounded (the table is under 0.7 MiB at the CLI's cap of
10^9 samples).  ``_ncf_variance`` gives the exact
variance its standard error estimates.
The tests pin them to a step-by-step walk of the branches.
"""
from __future__ import annotations

import operator
import os
import threading
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (
    MATCHED_AXIS,
    ChannelSpec,
    ThetaChannel,
    _TANGLE_CUTOFF,
    _bell_table,
    _bell_weights,
    _dominant,
    _tangles,
    check_unit_pair,
)
from .errors import RangeError
from .protocol import (
    INPUT_FAMILIES,
    ArbitraryInput,
    _bloch_ncf,
    _check_unit,
    _lambdas,
    _ms_abs_d,
    receiver_map,
)
from .qcore import EXACT_ATOL

CLASSICAL_POWER = 1.0 / 3.0

MC_SAMPLES = 10**6  # per Monte Carlo average, and per point of a sweep

# Monte Carlo draws this many inputs a chunk: each numpy call on a chunk
# hands the GIL over and back, so smaller chunks make the threads trade it
# more often: at 16,384, with sin^2's twenty calls a chunk, a second
# thread made the average slower
_CHUNK_DRAWS = 32768


class AverageResult(NamedTuple):
    mean: float
    stderr: float


# the great-circle input families
FAMILY_NAMES = tuple(name for name in INPUT_FAMILIES if name != ArbitraryInput.name)


# ---------------------------------------------------------------------------
# scalar measures

def control_power(f: float) -> float:
    """1 - f, the controller's power, for a fidelity f in [0, 1]."""
    v = float(f)
    if not -EXACT_ATOL <= v <= 1.0 + EXACT_ATOL:
        raise RangeError(f"fidelity {v!r} outside [0, 1]")
    return min(max(1.0 - v, 0.0), 1.0)


def avg_fidelity_ms_analytic(d: float) -> float:
    """Sphere-averaged NCF of an MS channel: 2/3 + |d|/3, for any d an
    ``MSChannel`` takes."""
    return 2.0 / 3.0 + min(_ms_abs_d(d), 1.0) / 3.0


# ---------------------------------------------------------------------------
# averaging

def _rng(seed: int, row: int, skip: int = 0) -> np.random.Generator:
    """The PCG64DXSM generator keyed by (seed, row), the row-th child that
    ``SeedSequence(seed).spawn`` gives, moved past the first ``skip``
    doubles of its stream: one 64-bit step a double."""
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(row,)))
    return np.random.Generator(bits.advance(skip))


def _uniform_chunks(rng: np.random.Generator, n: int, out: np.ndarray):
    """(start, draws): the next n uniform doubles of ``rng``, in chunks, each
    written into the front of ``out``."""
    for start in range(0, n, _CHUNK_DRAWS):
        yield start, rng.random(out=out[:min(_CHUNK_DRAWS, n - start)])


# the Bloch axes (0 = x, 1 = y, 2 = z) of cos a and sin a on each circle
_CIRCLE_AXES = {"xz": (2, 0), "xy": (0, 1), "yz": (2, 1)}

# c_0 to c_9 of P, with sin^2(pi v/2) = w P(w) for w = v^2 and v in [0, 1]:
# a 40-digit least-squares fit at 400 Chebyshev nodes, rounded to doubles,
# within 3.6e-16 of a long-double sin^2 (tests/fit_sin_squared.py)
_SIN_SQUARED = (
    2.4674011002723373,
    -2.0293560632082692,
    0.6676313844252936,
    -0.11766531516232484,
    0.012903445611317343,
    -0.0009647869025790661,
    5.231856785729412e-05,
    -2.150938390789955e-06,
    6.893895595420206e-08,
    -1.6041975238274983e-09,
)


def _sin_squared(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sin^2(pi v/2) for v in [0, 1] into ``out``, as w P(w) by Horner's rule
    with w = v^2, which overwrites ``v``.  The result is clipped to [0, 1]
    on both sides, so a draw outside [0, 1] cannot grow without bound before
    the |r|^2 check sees it."""
    w = np.multiply(v, v, out=v)
    p = np.multiply(w, _SIN_SQUARED[-1], out=out)
    for c in _SIN_SQUARED[-2::-1]:
        p += c
        p *= w
    return np.clip(p, 0.0, 1.0, out=p)


def _circle_squares(family: str, u: np.ndarray, out: np.ndarray) -> list:
    """[x^2, y^2, z^2] of a circle's members at angle pi u/2: sin^2 on the
    family's sin axis, 1 - sin^2 on its cos axis, and None on the axis that
    is zero on the whole circle; overwrites ``u`` and ``out``."""
    r2 = [None, None, None]
    cos_axis, sin_axis = _CIRCLE_AXES[family]
    r2[sin_axis] = _sin_squared(u, out)
    r2[cos_axis] = np.subtract(1.0, r2[sin_axis], out=u)
    return r2


def _exact_average(lam: np.ndarray, family: str | None):
    """The exact average NCF over the sphere (``family`` None) or a family's
    circle of one receiver map ``lam`` (3,), or of n maps (n, 3), one per
    row: each r_i^2 averages to 1/3 on the sphere, 1/2 on a circle axis."""
    if family is None:
        return 0.5 + lam.sum(axis=-1) / 6.0
    cos_axis, sin_axis = _CIRCLE_AXES[family]
    # lam.T[i] costs one map a third of what lam[..., i] does
    return 0.5 + (lam.T[cos_axis] + lam.T[sin_axis]) / 4.0


def _ncf_variance(spec: ChannelSpec, family: str | None) -> float:
    """The exact variance of the NCF over the sphere (``family`` None) or a
    family's circle, whose square root over sqrt(n) is the standard error
    Monte Carlo estimates: (3 sum lambda_i^2 - (sum lambda_i)^2)/90 from the
    sphere's E[r_i^4] = 1/5 and E[r_i^2 r_j^2] = 1/15, written as
    sum_{i<j} (lambda_i - lambda_j)^2/90, which cannot cancel below 0 when
    the lambdas are nearly equal, and (lambda_c - lambda_s)^2/32 from the
    circle's Var(cos^2 a) = 1/8."""
    lam = receiver_map(spec)
    if family is None:
        l0, l1, l2 = (float(v) for v in lam)
        return ((l0 - l1) ** 2 + (l0 - l2) ** 2 + (l1 - l2) ** 2) / 90.0
    cos_axis, sin_axis = _CIRCLE_AXES[family]
    return float(lam[cos_axis] - lam[sin_axis]) ** 2 / 32.0


def _ncf_draws(
    lam: np.ndarray, family: str | None, n: int, lo: int, hi: int,
    work: np.ndarray, seed: int, row: int,
):
    """The NCF of map ``lam`` at inputs lo to hi of n random ones, chunk by chunk.

    The Pauli channel's NCF reads only the squared Bloch coordinates, which
    every reflection in a coordinate plane keeps, so the inputs are drawn
    in the positive octant of the sphere, or the first quarter of a
    family's circle, with the same distribution of squares.  Stream
    positions [0, n) of the (seed, row) generator give each input's u, with
    cos(theta) = u on the sphere or angle pi u/2 on a circle; positions
    [n, 2n) give the sphere's phi = pi v/2.  Each chunk goes straight to the
    squares: z^2 = u^2, sin^2(theta) = 1 - u^2, y^2 = sin^2(theta) S(v) and
    x^2 = sin^2(theta) - y^2, with S(v) = sin^2(pi v/2) from
    ``_sin_squared``; on a circle S(u) and 1 - S(u).  The sum of their
    magnitudes, |r|^2, is checked, and the map's NCF is evaluated there.
    ``lo`` is a multiple of _CHUNK_DRAWS, so the chunks are those of [0, n).
    Every chunk is computed in ``work``, five rows as long as a chunk, and
    the values yielded are views of it.  The u and v draws come from two
    generators keyed by (seed, row), moved to positions lo and n + lo.
    """
    draws = _uniform_chunks(_rng(seed, row, lo), hi - lo, work[0])
    if family is not None:
        for start, u in draws:
            _, sin2, _, norm, dist = work[:, :u.size]
            r2 = _circle_squares(family, u, sin2)
            a2, b2 = (v for v in r2 if v is not None)
            _check_unit(np.add(a2, b2, out=norm), lo + start, "|r|^2", dist)
            yield _bloch_ncf(lam, *r2)
        return
    draws = zip(draws, _uniform_chunks(_rng(seed, row, n + lo), hi - lo, work[1]))
    for (start, u), (_, v) in draws:
        _, _, x2, y2, dist = work[:, :u.size]
        z2 = np.multiply(u, u, out=u)
        x2 = np.subtract(1.0, z2, out=x2)  # sin^2(theta), until y^2 is taken off
        y2 = _sin_squared(v, y2)
        y2 *= x2
        x2 -= y2
        # a u outside [0, 1] makes sin^2(theta) negative while the sum of
        # the squares stays 1; the magnitudes show it
        norm = np.abs(x2, out=v)
        norm += np.abs(y2, out=dist)
        norm += z2
        _check_unit(norm, lo + start, "|r|^2", dist)
        yield _bloch_ncf(lam, x2, y2, z2)


def _chunk_moments(vals: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk's values, which
    the squared deviations overwrite."""
    mean = float(vals.mean())
    vals -= mean
    vals *= vals
    return vals.size, mean, float(np.sum(vals))


def _moments(table: np.ndarray) -> AverageResult:
    """Mean and standard error of the values of all chunks, merging the rows
    (count, mean, sum of squared deviations) of ``table``, one per chunk, in
    order by Chan, Golub and LeVeque's update; one chunk gives numpy's mean
    and std(ddof=1)."""
    count, mean, m2 = 0, 0.0, 0.0
    for size, chunk_mean, chunk_m2 in map(np.ndarray.tolist, table):
        total = count + size
        delta = chunk_mean - mean
        mean += delta * (size / total)
        m2 += chunk_m2 + delta * delta * (count * size / total)
        count = total
    stderr = float(np.sqrt(m2 / (count - 1)) / np.sqrt(count)) if count > 1 else 0.0
    return AverageResult(mean, stderr)


# At most this many Monte Carlo threads run, so their buffers, 1.25 MiB a
# thread, stay under 4 MiB on any machine.
_MAX_WORKERS = 3


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _monte_carlo(
    lam: np.ndarray, family: str | None, n: int, seed: int, row: int
) -> AverageResult:
    """Mean and standard error of the ``_ncf_draws`` values.

    The chunks are cut into one contiguous run per thread, up to one thread
    per usable CPU, and the calling thread computes run 0.  Each run works
    in its own rows of one buffer, allocated up front so that peak memory
    does not hang on thread timing, and writes chunk i's moments into row i
    of one table, which ``_moments`` folds in chunk order once every run has
    ended: the result does not depend on the number of CPUs.  A failing run
    stops every later run at its next chunk, and the lowest failing run's
    error, naming the lowest failing draw, is raised.  An exception in the
    caller stops every other run too; no thread outlives the call.
    """
    chunks = -(-n // _CHUNK_DRAWS)
    workers = min(_usable_cpus(), _MAX_WORKERS, chunks)
    edges = [chunks * w // workers for w in range(workers + 1)]
    table = np.empty((chunks, 3))
    work = np.empty((workers, 5, min(n, _CHUNK_DRAWS)))
    errors = [None] * workers

    def run(w):
        lo, hi = edges[w] * _CHUNK_DRAWS, min(n, edges[w + 1] * _CHUNK_DRAWS)
        try:
            draws = _ncf_draws(lam, family, n, lo, hi, work[w], seed, row)
            for i, vals in enumerate(draws, edges[w]):
                table[i] = _chunk_moments(vals)
                if any(error is not None for error in errors[:w]):
                    return
        except BaseException as exc:  # raised again by the caller, in run order
            errors[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        run(0)
        for thread in threads:
            thread.join()
    except BaseException as exc:  # in the caller, KeyboardInterrupt included
        errors[0] = exc
        for thread in threads:
            thread.join()
        raise
    for error in errors:
        if error is not None:
            raise error
    return _moments(table)


def _integer(value, name: str, lo: int, bits: int | None = None) -> int:
    """``value`` as an int in [lo, 2^bits), or RangeError naming ``name``; a
    float is refused even when it is whole."""
    try:
        v = operator.index(value)
    except TypeError:
        raise RangeError(f"{name} must be an integer, got {value!r}") from None
    if v < lo or (bits is not None and v >> bits):
        bound = f"at least {lo}" if bits is None else f"in [{lo}, 2^{bits})"
        raise RangeError(f"{name} must be {bound}, got {v}")
    return v


def _average(
    lam: np.ndarray, family: str | None, method: str, n_samples: int, seed: int, row: int
) -> AverageResult:
    """The average NCF of one receiver map ``lam`` (3,) by ``method``, over
    the sphere (``family`` None) or a family's circle: the one method
    dispatch, which ``avg_fidelity_numeric`` and ``sweep`` share."""
    if family is not None and family not in FAMILY_NAMES:
        raise ValueError(f"unknown family {family!r}; expected None or one of {FAMILY_NAMES}")
    if method == "exact":
        return AverageResult(float(_exact_average(lam, family)), 0.0)
    if method == "monte_carlo":
        n_samples = _integer(n_samples, "n_samples", 1)
        seed = _integer(seed, "seed", 0, 64)
        row = _integer(row, "row", 0, 64)
        return _monte_carlo(lam, family, n_samples, seed, row)
    raise ValueError(f"unknown method {method!r}")


def avg_fidelity_numeric(
    spec: ChannelSpec,
    family: str | None = None,
    method: str = "exact",
    n_samples: int = MC_SAMPLES,
    seed: int = 0,
    row: int = 0,
) -> AverageResult:
    """Average the simulated NCF over the sphere (``family`` None: all pure
    inputs, uniform on the Bloch sphere) or over the great circle of the
    input family ``family`` names, uniform in its angle.

    ``method`` is "exact" (the exact average of the receiver map's NCF,
    ``_exact_average``; stderr 0) or "monte_carlo" (mean and standard error
    of the NCF at ``n_samples`` random inputs from the PCG64DXSM stream
    keyed by (seed, row), evaluated on the receiver's Bloch map chunk by
    chunk in bounded memory on the usable CPUs; see ``_monte_carlo``).
    Every channel has a receiver map, so both average every channel.  An
    unknown family or method raises ValueError, and Monte Carlo raises
    RangeError naming ``n_samples``, ``seed`` or ``row`` unless it is an
    integer, n_samples at least 1 and seed and row in [0, 2^64).
    """
    return _average(receiver_map(spec), family, method, n_samples, seed, row)


# ---------------------------------------------------------------------------
# parameter sweeps

class PowerReport(NamedTuple):
    channel: ChannelSpec
    f_bar: float
    c_bar: float
    tau: float
    meets_classical_bound: bool
    meets_tangle_bound: bool


def sweep(
    specs: Sequence[ChannelSpec], method: str = "exact", seed: int = 0
) -> list[PowerReport]:
    """One PowerReport per channel, in input order.

    The receiver maps and 3-tangles are read off one (n, 8) amplitude
    stack, bit for bit what ``receiver_map`` and ``three_tangle`` give each
    spec.  Theta channels are averaged over their matched family, everything
    else over the full sphere, by ``method`` ("exact" or "monte_carlo").
    Monte Carlo rows draw from streams keyed by (seed, row-index) so
    ordering or parallelism cannot change the numbers.
    """
    amps = np.array([spec.state.amps for spec in specs], dtype=complex).reshape(-1, 8)
    weights = _bell_weights(_bell_table(amps))
    lams = _lambdas(weights, _dominant(specs, weights))
    reports = []
    for row, (spec, lam, tau) in enumerate(zip(specs, lams, _tangles(amps).tolist())):
        f_bar = _average(lam, spec.matched_family, method, MC_SAMPLES, seed, row).mean
        c_bar = control_power(f_bar)
        meets = (c_bar >= CLASSICAL_POWER - 1e-9, tau >= _TANGLE_CUTOFF)
        reports.append(PowerReport(spec, f_bar, c_bar, tau, *meets))
    return reports


# ---------------------------------------------------------------------------
# mismatched channel/input families

# the tolerance within which mismatch_report's claim flag agrees
_CLAIM_ATOL = 1e-9


class MismatchRow(NamedTuple):
    channel_family: str
    input_family: str
    matched: bool
    avg_ncf: float
    avg_power: float


class MismatchReport(NamedTuple):
    a: float
    b: float
    rows: tuple[MismatchRow, ...]
    max_mismatched_power: float
    claim_power: float           # the qualitative claim: power reaches 1/3 at a=b
    claim_agrees: bool           # computed, never assumed


def mismatch_report(a: float, b: float) -> MismatchReport:
    """Averaged NCF and control power for all 9 (channel, input) pairings.

    Each channel is the theta channel matched to ``channel_family``; inputs
    run over ``input_family`` with the uniform circle measure, averaged on
    the simulated receiver map (``_exact_average``).  Matched rows (i = j) are
    the baseline.  The report also states whether the largest mismatched
    control power agrees with the claimed classical-limit value 1/3 within
    1e-9; the flag records the computed outcome, whatever it is.
    """
    a, b = check_unit_pair(a, b, "a, b")
    rows = []
    worst = 0.0
    for i in FAMILY_NAMES:
        lam = receiver_map(ThetaChannel(a, b, MATCHED_AXIS[i]))
        for j in FAMILY_NAMES:
            avg = float(_exact_average(lam, j))
            power = control_power(avg)
            rows.append(MismatchRow(i, j, i == j, avg, power))
            if i != j:
                worst = max(worst, power)
    return MismatchReport(
        a=a,
        b=b,
        rows=tuple(rows),
        max_mismatched_power=worst,
        claim_power=CLASSICAL_POWER,
        claim_agrees=abs(worst - CLASSICAL_POWER) <= _CLAIM_ATOL,
    )
