"""Self-check suite: every headline quantitative claim, re-derived at runtime.

Each check returns a CheckResult with a deterministic detail string, so a
report built twice from the same seed is byte-identical.  The CLI's
``verify`` command prints these; the acceptance tests assert them one by
one.  Checks use fixed tolerances stated inline; nothing is loosened at
run time.

Three checks hold their channels as amplitude stacks, not one spec per
channel: ``perfect-ct`` certifies 200 random channels, drawn as arrays,
``three-tangle`` and ``bound-triple-identity`` read the 3-tangles, and
the latter the receiver maps, of every state in one call.
``tests/oracles.py`` builds the specs of the same draws, the pin's oracle.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    CLASSICAL_POWER,
    FAMILY_NAMES,
    MATCHED_AXIS,
    MC_SAMPLES,
    _exact_average,
    _ncf_variance,
    _rng,
    avg_fidelity_ms_analytic,
    avg_fidelity_numeric,
    control_power,
    mismatch_report,
)
from .channels import (
    TANGLE_BOUND,
    ChannelSpec,
    GHZChannel,
    MSChannel,
    ThetaChannel,
    _bell_table,
    _bell_weights,
    _first_max,
    _ms_amps,
    _tangles,
    _theta_amps,
)
from .protocol import (
    INPUT_FAMILIES,
    ArbitraryInput,
    _check_unit,
    _ct_certificate,
    _lambdas,
    ncf_batch,
    ncf_ms_closed,
)
from .qcore import BELL_KETS


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_channels(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 8) amplitudes of n random channels: GHZ, an MS channel or a
    theta channel on a random axis, a third each.  Three arrays are drawn,
    n kinds, then n angles, then n theta axes, and every row is built in
    one step; GHZ is MS at angle 0.  The certificate reads each channel's
    controller basis off its amplitudes."""
    kinds = rng.integers(3, size=n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    axes = rng.integers(3, size=n)
    angles[kinds == 0] = 0.0
    x, y = np.cos(angles), np.sin(angles)
    return np.where((kinds < 2)[:, None], _ms_amps(x, y), _theta_amps(x, y, axes))


# --------------------------------------------------------------------------
# the individual checks

def check_perfect_ct(seed: int) -> CheckResult:
    """Every branch of the controlled protocol returns every input (tol 1e-12).

    Each of 200 random channels is certified for all inputs at once: each
    controller outcome must leave only its named Bell pair, so that every
    branch's Kraus operator K is lambda I, measured as the Frobenius
    |K - lambda I|_F / sqrt(p) = sqrt(2 off / |w|^2), and the controller
    outcomes' probabilities |w|^2 must sum to 1.
    """
    cert = _ct_certificate(_random_channels(_rng(seed, 1), 200))
    worst = float(np.max(cert.defect))
    worst_prob = float(np.max(np.abs(np.sum(cert.probability, axis=1) - 1.0)))
    return CheckResult(
        "perfect-ct",
        worst <= 1e-12 and worst_prob <= 1e-12,
        f"200 random channels, every input; max |K - lambda I|_F/sqrt(p) = {worst:.3e}, "
        f"max probability-sum defect {worst_prob:.3e} (tol 1e-12)",
    )


def check_ms_closed_form() -> CheckResult:
    """Simulated NCF equals |k0|^4+|k1|^4+2|d||k0|^2|k1|^2 (tol 1e-12)."""
    thetas = np.linspace(0.0, np.pi, 10)
    phis = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    ds = np.linspace(-1.0, 1.0, 10)
    k0, k1 = ArbitraryInput.amplitudes(thetas, phis)
    worst = 0.0
    for d in ds:
        spec = MSChannel(c=math.sqrt(1.0 - d * d), d=float(d))
        sim = ncf_batch(spec, k0, k1)
        closed = [ncf_ms_closed(a, b, float(d)) for a, b in zip(k0, k1)]
        worst = max(worst, float(np.max(np.abs(sim - closed))))
    return CheckResult(
        "ms-closed-form",
        worst <= 1e-12,
        f"10x10 (input, d) grid; max |simulated - closed| = {worst:.3e} (tol 1e-12)",
    )


def check_sphere_average(seed: int, quick: bool) -> CheckResult:
    """Sphere-averaged NCF equals 2/3 + |d|/3, exactly and by Monte Carlo.

    Each Monte Carlo row's sample stderr must also lie within 5% of the
    predicted sqrt(Var/n), whose own sampling spread at n = 10^6 is about
    0.1%; a row whose prediction is 0 is not compared.
    """
    worst_exact = 0.0
    for d in np.linspace(-1.0, 1.0, 11):
        spec = MSChannel(c=math.sqrt(1.0 - d * d), d=float(d))
        mean, _ = avg_fidelity_numeric(spec)
        worst_exact = max(worst_exact, abs(mean - avg_fidelity_ms_analytic(float(d))))
    ok = worst_exact <= 1e-9
    detail = f"exact average over 11 d values: max deviation {worst_exact:.3e} (tol 1e-9)"
    if not quick:
        worst_sigma = 0.0
        worst_abs = 0.0
        worst_spread = 0.0
        predicted = []
        for row, d in enumerate((0.0, 0.5, -0.8)):
            spec = MSChannel(c=math.sqrt(1.0 - d * d), d=d)
            mean, stderr = avg_fidelity_numeric(
                spec, method="monte_carlo", n_samples=MC_SAMPLES, seed=seed, row=row
            )
            err = abs(mean - avg_fidelity_ms_analytic(d))
            worst_sigma = max(worst_sigma, err / stderr)
            worst_abs = max(worst_abs, err)
            want = math.sqrt(_ncf_variance(spec, None) / MC_SAMPLES)
            predicted.append(f"{want:.3e}")
            if want > 0.0:
                worst_spread = max(worst_spread, abs(stderr / want - 1.0))
        ok = ok and worst_sigma <= 4.0 and worst_abs <= 2e-3 and worst_spread <= 0.05
        detail += (
            f"; Monte Carlo n=10^{math.log10(MC_SAMPLES):g} at 3 d values: worst "
            f"{worst_sigma:.2f} stderr, worst {worst_abs:.3e} absolute (tol 4 stderr / 2e-3); "
            f"predicted stderr {', '.join(predicted)}, sample stderr off by at most "
            f"{worst_spread:.2%} (tol 5%)"
        )
    else:
        detail += "; Monte Carlo skipped (quick mode)"
    return CheckResult("sphere-average", ok, detail)


def check_ghz_classical_limit() -> CheckResult:
    """Without the controller a GHZ channel is worth exactly 2/3 on average."""
    mean, _ = avg_fidelity_numeric(GHZChannel())
    dev_f = abs(mean - 2.0 / 3.0)
    dev_c = abs(control_power(mean) - 1.0 / 3.0)
    return CheckResult(
        "ghz-classical-limit",
        dev_f <= 1e-9 and dev_c <= 1e-9,
        f"average NCF deviates from 2/3 by {dev_f:.3e}, power from 1/3 by "
        f"{dev_c:.3e} (tol 1e-9)",
    )


def check_matched_flatness() -> CheckResult:
    """Matched-channel NCF is max(a^2, b^2), flat across the family."""
    worst_dev = 0.0
    angles = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    for fam in FAMILY_NAMES:
        for a2 in (0.3, 0.5, 0.8):
            spec = ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1.0 - a2), k=MATCHED_AXIS[fam])
            expected = max(a2, 1.0 - a2)
            vals = ncf_batch(spec, *INPUT_FAMILIES[fam].amplitudes(angles))
            worst_dev = max(worst_dev, float(np.max(np.abs(vals - expected))))
    return CheckResult(
        "matched-flatness",
        worst_dev <= 1e-12,
        f"3 matched pairs x 3 splittings x 100 members; max |ncf - max(a^2,b^2)| = "
        f"{worst_dev:.3e} (tol 1e-12)",
    )


def check_bound_triple_identity() -> CheckResult:
    """C >= 1/3, a^2 in [1/3, 2/3], and tau >= 8/9 pick the same channels:
    theta channels on a 201-point a^2 grid plus 1/3 and 2/3, where the
    tolerances decide, on each family's matched axis, with C read off their
    receiver maps on the matched circle."""
    a2 = np.tile(np.append(np.linspace(0.0, 1.0, 201), [1.0 / 3.0, 2.0 / 3.0]), 3)
    axes = np.repeat(["xyz".index(MATCHED_AXIS[fam]) for fam in FAMILY_NAMES], 203)
    amps = _theta_amps(np.sqrt(a2), np.sqrt(1.0 - a2), axes)
    weights = _bell_weights(_bell_table(amps))
    lam = _lambdas(weights, _first_max(weights)).reshape(3, 203, 3)
    power = 1.0 - np.concatenate([_exact_average(l, fam) for l, fam in zip(lam, FAMILY_NAMES)])
    p_interval = (1.0 / 3.0 - 1e-12 <= a2) & (a2 <= 2.0 / 3.0 + 1e-12)
    p_power = power >= CLASSICAL_POWER - 1e-12
    p_tangle = _tangles(amps) >= TANGLE_BOUND - 1e-12
    mismatches = int(np.sum((p_interval != p_power) | (p_power != p_tangle)))
    return CheckResult(
        "bound-triple-identity",
        mismatches == 0,
        f"201-point a^2 grid and its boundaries 1/3, 2/3 on 3 matched circles; "
        f"{mismatches} disagreements among the three predicates",
    )


def check_max_control_power() -> CheckResult:
    """At a = b the controller's power over a matched channel is 1/2."""
    worst = 0.0
    s = math.sqrt(0.5)
    for fam in FAMILY_NAMES:
        spec = ThetaChannel(a=s, b=s, k=MATCHED_AXIS[fam])
        ncf = ncf_batch(spec, *INPUT_FAMILIES[fam].amplitudes(0.37))[0]
        worst = max(worst, abs(control_power(ncf) - 0.5))
    return CheckResult(
        "max-control-power",
        worst <= 1e-12,
        f"three matched channels at a=b; max |C - 1/2| = {worst:.3e} (tol 1e-12)",
    )


def _random_local_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random 2x2 unitaries, (n, 2, 2): the Q of a complex Gaussian's
    QR, times the phases of R's diagonal.  Each draws four real parts, then
    four imaginary ones."""
    g = rng.normal(size=(n, 2, 2, 2))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.zeros_like(r)
    phases[:, [0, 1], [0, 1]] = diag / np.abs(diag)
    return q @ phases


def check_three_tangle(seed: int) -> CheckResult:
    """Hyperdeterminant tangle matches every stated family value.

    Every state is one row of a single stack, and one ``_tangles`` call
    evaluates them all.
    """
    # MS: c = 0 is a qubit times a Bell pair, c = 1 is GHZ
    c = np.array([0.0, 0.3, 0.6, 1.0])
    a2 = np.tile(np.linspace(0.0, 1.0, 21), 3)
    rng = _rng(seed, 8)
    qubit = rng.normal(size=2) + 1j * rng.normal(size=2)
    base = _ms_amps(np.array([0.6]), np.array([0.8]))
    # 50 rotations, one unitary per qubit, drawn in qubit order
    u = _random_local_unitaries(rng, 150).reshape(50, 3, 2, 2)
    rotated = np.einsum(
        "nai,nbj,nck,ijk->nabc", u[:, 0], u[:, 1], u[:, 2], base.reshape(2, 2, 2)
    ).reshape(50, 8)
    _check_unit(np.sum(rotated.real**2 + rotated.imag**2, axis=1), 0, "rotated sum |amp|^2")
    tau = _tangles(np.concatenate([
        _ms_amps(c, np.sqrt(1.0 - c * c)),
        _theta_amps(np.sqrt(a2), np.sqrt(1.0 - a2), np.repeat(np.arange(3), 21)),
        np.kron(qubit / np.linalg.norm(qubit), BELL_KETS[0])[None],
        base,
        rotated,
    ]))
    expected = np.concatenate([c * c, 4.0 * a2 * (1.0 - a2), [0.0]])
    worst = float(np.max(np.abs(tau[: expected.size] - expected)))
    worst_lu = float(np.max(np.abs(tau[-50:] - tau[-51])))
    ok = worst <= 1e-9 and worst_lu <= 1e-9
    return CheckResult(
        "three-tangle",
        ok,
        f"family values match within {worst:.3e}; 50 local-unitary rotations drift "
        f"{worst_lu:.3e} (tol 1e-9)",
    )


def check_mismatch() -> CheckResult:
    """Mismatched averages dominate matched ones; a=b flag is computed."""
    worst_violation = 0.0
    for a2 in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        report = mismatch_report(math.sqrt(a2), math.sqrt(1.0 - a2))
        matched = {r.channel_family: r.avg_ncf for r in report.rows if r.matched}
        for row in report.rows:
            if not row.matched:
                worst_violation = max(
                    worst_violation, matched[row.channel_family] - row.avg_ncf
                )
    equal = mismatch_report(math.sqrt(0.5), math.sqrt(0.5))
    verdict = "agrees" if equal.claim_agrees else "disagrees"
    return CheckResult(
        "mismatch-experiment",
        worst_violation <= 1e-12,
        f"mismatched >= matched on a^2 in [1/2,1] grid (worst violation "
        f"{worst_violation:.3e}, tol 1e-12); at a=b the max mismatched power is "
        f"{equal.max_mismatched_power:.12g}, which {verdict} with the claimed "
        f"classical-limit value {CLASSICAL_POWER:.12g} [computed, not assumed]",
    )


def check_channel_ct(spec: ChannelSpec) -> CheckResult:
    """Focused check: can this channel teleport perfectly with the controller?

    The channel is certified for every input, as ``perfect-ct`` certifies
    its random channels; a defect d bounds each branch's infidelity by
    about 4 d^2.  This is the failure-injection path: a corrupted raw
    channel fails here.
    """
    defect = float(_ct_certificate(spec.state.amps[None]).defect[0])
    return CheckResult(
        "channel-ct",
        defect <= 1e-9,
        f"every input; max |K - lambda I|_F/sqrt(p) = {defect:.3e} (tol 1e-9)",
    )


# --------------------------------------------------------------------------
# suite runner and deterministic report

def suite(seed: int, quick: bool = False) -> list[Callable[[], CheckResult]]:
    """The suite's checks in run order, each a call with no arguments."""
    return [
        lambda: check_perfect_ct(seed),
        check_ms_closed_form,
        lambda: check_sphere_average(seed, quick),
        check_ghz_classical_limit,
        check_matched_flatness,
        check_bound_triple_identity,
        check_max_control_power,
        lambda: check_three_tangle(seed),
        check_mismatch,
    ]


def format_report(results: list[CheckResult], seed: int, mode: str) -> str:
    """The verification report: a header, one line per check, and, for the
    suite's "quick" and "full" modes, the count of checks passed; the
    single-check "channel" mode has no count."""
    lines = [
        "ctpower verification report",
        f"version: {__version__}",
        f"seed: {seed}",
        f"mode: {mode}",
        "",
    ]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if mode != "channel":
        passed = sum(r.passed for r in results)
        lines.append("")
        lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
