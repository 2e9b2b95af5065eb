"""Averaged fidelities, control power, bounds, sweeps, and mismatch checks.

Control power is C = 1 - f: what the controller's cooperation is worth.
A channel gives the controller real authority only when the fidelity
achievable WITHOUT the controller stays at or below the classical limit
2/3, i.e. when C >= 1/3.

Averages run over one of two domains:

* "sphere": dOmega / 4pi over all pure qubit inputs,
* "family": uniform angle along one equatorial input family's great circle.

The analytic method and ``mismatch_report`` read both averages off the
receiver's Bloch map (``protocol.receiver_map``).  Quadrature is adaptive
Gauss-Legendre refined to 1e-9; Monte Carlo uses the counter-based Philox
generator so every stochastic result is bit-reproducible from (seed,
row-index).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .channels import (
    MATCHED_AXIS,
    ChannelSpec,
    TangleReport,
    ThetaChannel,
    check_unit_pair,
    three_tangle,
)
from .errors import ConvergenceError, MatchedFamiliesError, RangeError
from .protocol import INPUT_FAMILIES, ArbitraryInput, ncf_batch, receiver_map
from .qcore import EXACT_ATOL, pauli

CLASSICAL_FIDELITY = 2.0 / 3.0
CLASSICAL_POWER = 1.0 / 3.0

_TWO_PI = 2.0 * np.pi

_QUADRATURE_ORDERS = (8, 16, 32, 64, 128, 256)


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
    """Sphere-averaged NCF of an MS channel: 2/3 + |d|/3."""
    v = float(d)
    if not abs(v) <= 1.0 + EXACT_ATOL:  # NaN fails this too
        raise RangeError(f"|d| = {abs(v)!r} exceeds 1")
    return 2.0 / 3.0 + min(abs(v), 1.0) / 3.0


def power_bound_check(a: float) -> bool:
    """True iff a^2 lies in [1/3, 2/3], where control power reaches 1/3."""
    a2 = float(a) ** 2
    return 1.0 / 3.0 - 1e-12 <= a2 <= 2.0 / 3.0 + 1e-12


# ---------------------------------------------------------------------------
# numeric averaging

def _rng(seed: int, row: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(row)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _refine(evaluate, tol: float) -> float:
    """Run ``evaluate(order)`` over doubling orders until two agree."""
    previous = None
    for order in _QUADRATURE_ORDERS:
        value = evaluate(order)
        if previous is not None and abs(value - previous) < tol:
            return value
        previous = value
    raise ConvergenceError(
        f"quadrature did not stabilize to {tol:g} by order {_QUADRATURE_ORDERS[-1]}"
    )


def _sphere_quadrature(spec: ChannelSpec, tol: float) -> float:
    def evaluate(order: int) -> float:
        xt, wt = np.polynomial.legendre.leggauss(order)
        theta = 0.5 * np.pi * (xt + 1.0)
        wt = wt * (0.5 * np.pi)
        xp, wp = np.polynomial.legendre.leggauss(order)
        phi = np.pi * (xp + 1.0)
        wp = wp * np.pi
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        vals = ncf_batch(spec, *ArbitraryInput.amplitudes(th, ph)).reshape(order, order)
        weights = np.outer(wt * np.sin(theta), wp)
        return float(np.sum(weights * vals) / (4.0 * np.pi))

    return _refine(evaluate, tol)


def _circle_quadrature(spec: ChannelSpec, family: str, tol: float) -> float:
    def evaluate(order: int) -> float:
        x, w = np.polynomial.legendre.leggauss(order)
        angles = np.pi * (x + 1.0)
        vals = ncf_batch(spec, *INPUT_FAMILIES[family].amplitudes(angles))
        return float(np.sum(w * np.pi * vals) / _TWO_PI)

    return _refine(evaluate, tol)


def _sphere_samples(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    cos_theta = 1.0 - 2.0 * rng.random(n)
    phi = _TWO_PI * rng.random(n)
    k0 = np.sqrt((1.0 + cos_theta) / 2.0).astype(complex)
    k1 = np.exp(1j * phi) * np.sqrt((1.0 - cos_theta) / 2.0)
    return k0, k1


def avg_fidelity_numeric(
    spec: ChannelSpec,
    domain: str,
    method: str = "quadrature",
    family: str | None = None,
    n_samples: int = 10**6,
    seed: int = 0,
    row: int = 0,
    tol: float = 1e-9,
) -> AverageResult:
    """Average the simulated NCF over a domain of input states.

    ``domain`` is "sphere" (all pure inputs, uniform on the Bloch sphere)
    or "family" (one equatorial family named by ``family``, uniform in its
    angle).  ``method`` is "quadrature" (deterministic, stderr 0) or
    "monte_carlo" (mean and standard error from ``n_samples`` Philox draws
    keyed by (seed, row)).
    """
    if domain == "family":
        if family not in FAMILY_NAMES:
            raise ValueError(f"domain 'family' needs family in {FAMILY_NAMES}")
    elif domain != "sphere":
        raise ValueError(f"unknown domain {domain!r}")

    if method == "quadrature":
        if domain == "sphere":
            return AverageResult(_sphere_quadrature(spec, tol), 0.0)
        return AverageResult(_circle_quadrature(spec, family, tol), 0.0)
    if method == "monte_carlo":
        if n_samples < 1:
            raise RangeError("n_samples must be at least 1")
        rng = _rng(seed, row)
        if domain == "sphere":
            k0, k1 = _sphere_samples(rng, n_samples)
        else:
            angles = _TWO_PI * rng.random(n_samples)
            k0, k1 = INPUT_FAMILIES[family].amplitudes(angles)
        vals = ncf_batch(spec, k0, k1)
        stderr = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
        return AverageResult(float(vals.mean()), stderr)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# parameter sweeps

@dataclass(frozen=True)
class PowerReport:
    channel: ChannelSpec
    f_bar: float
    c_bar: float
    tau: float
    meets_classical_bound: bool
    meets_tangle_bound: bool


def _analytic_average(spec: ChannelSpec, family: str | None) -> float:
    """Average NCF from the receiver's Bloch map.

    With NCF(r) = 1/2 + t.r/2 + r.T.r/2, the sphere average is
    1/2 + tr(T)/6 and the average over the circle of axes i, j is
    1/2 + (T_ii + T_jj)/4.
    """
    _, transfer = receiver_map(spec)
    if family is None:
        return 0.5 + float(np.trace(transfer)) / 6.0
    # the circle spans the two Bloch axes other than its matched axis
    i, j = (n for n, axis in enumerate("xyz") if axis != MATCHED_AXIS[family])
    return 0.5 + float(transfer[i, i] + transfer[j, j]) / 4.0


def _spec_average(spec: ChannelSpec, method: str, seed: int, row: int) -> AverageResult:
    family = spec.matched_family
    if method == "analytic":
        return AverageResult(_analytic_average(spec, family), 0.0)
    if family is not None:
        return avg_fidelity_numeric(
            spec, "family", family=family, method=method, seed=seed, row=row
        )
    return avg_fidelity_numeric(spec, "sphere", method=method, seed=seed, row=row)


def power_report(spec: ChannelSpec, f_bar: float) -> PowerReport:
    tangle: TangleReport = three_tangle(spec.state)
    c_bar = control_power(f_bar)
    return PowerReport(
        channel=spec,
        f_bar=f_bar,
        c_bar=c_bar,
        tau=tangle.tau,
        meets_classical_bound=c_bar >= CLASSICAL_POWER - 1e-9,
        meets_tangle_bound=tangle.meets_bound,
    )


def sweep(
    specs: Sequence[ChannelSpec], method: str = "analytic", seed: int = 0
) -> list[PowerReport]:
    """One PowerReport per channel, in input order.

    Theta channels are averaged over their matched family, everything else
    over the full sphere.  Rows are independent; Monte Carlo rows draw from
    streams keyed by (seed, row-index) so ordering or parallelism cannot
    change the numbers.
    """
    reports = []
    for row, spec in enumerate(specs):
        avg = _spec_average(spec, method, seed, row)
        reports.append(power_report(spec, avg.mean))
    return reports


def power_table(reports: Iterable[PowerReport]) -> list[dict]:
    """JSON-ready rows: {channel, params, f_bar, c_bar, tau, bounds}."""
    rows = []
    for r in reports:
        rows.append(
            {
                "channel": r.channel.family,
                "params": r.channel.params(),
                "f_bar": r.f_bar,
                "c_bar": r.c_bar,
                "tau": r.tau,
                "bounds": {
                    "classical": r.meets_classical_bound,
                    "tangle": r.meets_tangle_bound,
                },
            }
        )
    return rows


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


@dataclass(frozen=True)
class MismatchRow:
    channel_family: str
    input_family: str
    matched: bool
    avg_ncf: float
    avg_power: float


@dataclass(frozen=True)
class MismatchReport:
    a: float
    b: float
    rows: tuple[MismatchRow, ...]
    max_mismatched_power: float
    claim_power: float           # the qualitative claim: power reaches 1/3 at a=b
    claim_agrees: bool           # computed, never assumed


def mismatch_report(a: float, b: float, tol: float = 1e-9) -> MismatchReport:
    """Averaged NCF and control power for all 9 (channel, input) pairings.

    Each channel is the theta channel matched to ``channel_family``; inputs
    run over ``input_family`` with the uniform circle measure, averaged on
    the simulated receiver map (``receiver_map``).  Matched rows (i = j) are
    the baseline.  The report also states whether the largest mismatched
    control power agrees with the claimed classical-limit value 1/3 within
    ``tol``; the flag records the computed outcome, whatever it is.
    """
    a, b = check_unit_pair(a, b, "a, b")
    rows = []
    worst = 0.0
    for i in FAMILY_NAMES:
        spec = ThetaChannel(a, b, MATCHED_AXIS[i])
        for j in FAMILY_NAMES:
            avg = _analytic_average(spec, j)
            power = control_power(avg)
            rows.append(
                MismatchRow(
                    channel_family=i,
                    input_family=j,
                    matched=i == j,
                    avg_ncf=avg,
                    avg_power=power,
                )
            )
            if i != j:
                worst = max(worst, power)
    return MismatchReport(
        a=a,
        b=b,
        rows=tuple(rows),
        max_mismatched_power=worst,
        claim_power=CLASSICAL_POWER,
        claim_agrees=abs(worst - CLASSICAL_POWER) <= tol,
    )


def mismatch_table(report: MismatchReport) -> list[dict]:
    """JSON-ready rows for a mismatch report."""
    return [
        {
            "channel_family": r.channel_family,
            "input_family": r.input_family,
            "matched": r.matched,
            "avg_ncf": r.avg_ncf,
            "avg_power": r.avg_power,
        }
        for r in report.rows
    ]
