"""Self-check suite: every headline quantitative claim, re-derived at runtime.

Each check returns a CheckResult with a deterministic detail string, so a
report built twice from the same seed is byte-identical.  The CLI's
``verify`` command prints these; the acceptance tests assert them one by
one.  Checks use fixed tolerances stated inline; nothing is loosened at
run time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (
    CLASSICAL_POWER,
    FAMILY_NAMES,
    MATCHED_AXIS,
    _rng,
    avg_fidelity_ms_analytic,
    avg_fidelity_numeric,
    control_power,
    mismatch_report,
    power_bound_check,
)
from .channels import (
    ChannelSpec,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    ms_state,
    three_tangle,
)
from .protocol import (
    INPUT_FAMILIES,
    ArbitraryInput,
    XYInput,
    XZInput,
    controlled_teleport,
    input_state,
    ncf_ms_closed,
    unconditioned_teleport,
)
from .qcore import PureState, apply_gate, make_qubit, tensor


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_channel(rng: np.random.Generator) -> ChannelSpec:
    kind = int(rng.integers(3))
    if kind == 0:
        return GHZChannel()
    if kind == 1:
        # keep |c| away from 0: the controller basis degenerates there
        while True:
            alpha = rng.uniform(0.0, 2.0 * np.pi)
            if abs(math.cos(alpha)) >= 0.05:
                return MSChannel(c=math.cos(alpha), d=math.sin(alpha))
    beta = rng.uniform(0.0, 2.0 * np.pi)
    axis = ("x", "y", "z")[int(rng.integers(3))]
    return ThetaChannel(a=math.cos(beta), b=math.sin(beta), k=axis)


def _random_input(rng: np.random.Generator) -> ArbitraryInput:
    return ArbitraryInput(
        theta=rng.uniform(0.0, np.pi), phi=rng.uniform(0.0, 2.0 * np.pi)
    )


# --------------------------------------------------------------------------
# the individual checks

def check_perfect_ct(seed: int) -> CheckResult:
    """All branches of the controlled protocol reach fidelity 1 (tol 1e-12)."""
    rng = _rng(seed, 1)
    worst_fid_dev = 0.0
    worst_prob_dev = 0.0
    for _ in range(200):
        run = controlled_teleport(_random_channel(rng), _random_input(rng))
        worst_fid_dev = max(worst_fid_dev, 1.0 - run.min_fidelity)
        worst_prob_dev = max(worst_prob_dev, abs(run.total_probability - 1.0))
    ok = worst_fid_dev <= 1e-12 and worst_prob_dev <= 1e-12
    return CheckResult(
        "perfect-ct",
        ok,
        f"200 random channel/input pairs; max fidelity defect {worst_fid_dev:.3e}, "
        f"max probability-sum defect {worst_prob_dev:.3e} (tol 1e-12)",
    )


def check_ms_closed_form() -> CheckResult:
    """Simulated NCF equals |k0|^4+|k1|^4+2|d||k0|^2|k1|^2 (tol 1e-12)."""
    thetas = np.linspace(0.0, np.pi, 10)
    phis = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
    ds = np.linspace(-1.0, 1.0, 10)
    worst = 0.0
    for theta, phi in zip(thetas, phis):
        family = ArbitraryInput(theta=float(theta), phi=float(phi))
        state = input_state(family)
        for d in ds:
            spec = MSChannel(c=math.sqrt(1.0 - d * d), d=float(d))
            sim = unconditioned_teleport(spec, family).ncf
            closed = ncf_ms_closed(state.amps[0], state.amps[1], float(d))
            worst = max(worst, abs(sim - closed))
    return CheckResult(
        "ms-closed-form",
        worst <= 1e-12,
        f"10x10 (input, d) grid; max |simulated - closed| = {worst:.3e} (tol 1e-12)",
    )


def check_sphere_average(seed: int, quick: bool) -> CheckResult:
    """Sphere-averaged NCF equals 2/3 + |d|/3 by quadrature and Monte Carlo."""
    worst_quad = 0.0
    for d in np.linspace(-1.0, 1.0, 11):
        spec = MSChannel(c=math.sqrt(1.0 - d * d), d=float(d))
        mean, _ = avg_fidelity_numeric(spec, "sphere", method="quadrature")
        worst_quad = max(worst_quad, abs(mean - avg_fidelity_ms_analytic(float(d))))
    ok = worst_quad <= 1e-9
    detail = f"quadrature over 11 d values: max deviation {worst_quad:.3e} (tol 1e-9)"
    if not quick:
        worst_sigma = 0.0
        worst_abs = 0.0
        for row, d in enumerate((0.0, 0.5, -0.8)):
            spec = MSChannel(c=math.sqrt(1.0 - d * d), d=d)
            mean, stderr = avg_fidelity_numeric(
                spec, "sphere", method="monte_carlo",
                n_samples=10**6, seed=seed, row=row,
            )
            err = abs(mean - avg_fidelity_ms_analytic(d))
            worst_sigma = max(worst_sigma, err / stderr)
            worst_abs = max(worst_abs, err)
        ok = ok and worst_sigma <= 4.0 and worst_abs <= 2e-3
        detail += (
            f"; Monte Carlo n=10^6 at 3 d values: worst {worst_sigma:.2f} stderr, "
            f"worst {worst_abs:.3e} absolute (tol 4 stderr / 2e-3)"
        )
    else:
        detail += "; Monte Carlo skipped (quick mode)"
    return CheckResult("sphere-average", ok, detail)


def check_ghz_classical_limit() -> CheckResult:
    """Without the controller a GHZ channel is worth exactly 2/3 on average."""
    mean, _ = avg_fidelity_numeric(GHZChannel(), "sphere", method="quadrature")
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
    worst_std = 0.0
    angles = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    for fam in FAMILY_NAMES:
        for a2 in (0.3, 0.5, 0.8):
            spec = ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1.0 - a2), k=MATCHED_AXIS[fam])
            expected = max(a2, 1.0 - a2)
            vals = np.array([
                unconditioned_teleport(spec, INPUT_FAMILIES[fam](float(t))).ncf
                for t in angles
            ])
            worst_dev = max(worst_dev, float(np.max(np.abs(vals - expected))))
            worst_std = max(worst_std, float(vals.std()))
    ok = worst_dev <= 1e-12 and worst_std <= 1e-12
    return CheckResult(
        "matched-flatness",
        ok,
        f"3 matched pairs x 3 splittings x 100 members; max |ncf - max(a^2,b^2)| = "
        f"{worst_dev:.3e}, max std = {worst_std:.3e} (tol 1e-12)",
    )


def check_bound_triple_identity() -> CheckResult:
    """C >= 1/3, a^2 in [1/3, 2/3], and tau >= 8/9 pick the same channels."""
    mismatches = 0
    for a2 in np.linspace(0.0, 1.0, 201):
        p_interval = power_bound_check(math.sqrt(a2))
        p_power = 1.0 - max(a2, 1.0 - a2) >= 1.0 / 3.0 - 1e-12
        p_tangle = 4.0 * a2 * (1.0 - a2) >= 8.0 / 9.0 - 1e-12
        if not (p_interval == p_power == p_tangle):
            mismatches += 1
    return CheckResult(
        "bound-triple-identity",
        mismatches == 0,
        f"201-point a^2 grid; {mismatches} disagreements among the three predicates",
    )


def check_max_control_power() -> CheckResult:
    """At a = b the controller's power over a matched channel is 1/2."""
    worst = 0.0
    s = math.sqrt(0.5)
    for fam in FAMILY_NAMES:
        spec = ThetaChannel(a=s, b=s, k=MATCHED_AXIS[fam])
        ncf = unconditioned_teleport(spec, INPUT_FAMILIES[fam](0.37)).ncf
        worst = max(worst, abs(control_power(ncf) - 0.5))
    return CheckResult(
        "max-control-power",
        worst <= 1e-12,
        f"three matched channels at a=b; max |C - 1/2| = {worst:.3e} (tol 1e-12)",
    )


def _random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def check_three_tangle(seed: int) -> CheckResult:
    """Hyperdeterminant tangle matches every stated family value."""
    worst = 0.0
    for c in (0.0, 0.3, 0.6, 1.0):
        state = ms_state(c, math.sqrt(1.0 - c * c))
        worst = max(worst, abs(three_tangle(state).tau - c * c))
    for axis in ("x", "y", "z"):
        for a2 in np.linspace(0.0, 1.0, 21):
            spec = ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1.0 - a2), k=axis)
            expected = 4.0 * a2 * (1.0 - a2)
            worst = max(worst, abs(three_tangle(spec.state).tau - expected))
    worst = max(worst, abs(three_tangle(GHZChannel().state).tau - 1.0))
    worst = max(worst, three_tangle(ms_state(0.0, 1.0)).tau)  # qubit x Bell pair
    rng = _rng(seed, 8)
    qubit = make_qubit(*(lambda v: v / np.linalg.norm(v))(
        rng.normal(size=2) + 1j * rng.normal(size=2)
    ))
    bell = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0))
    worst = max(worst, three_tangle(tensor(qubit, bell)).tau)
    base = ms_state(0.6, 0.8)
    tau0 = three_tangle(base).tau
    worst_lu = 0.0
    for _ in range(50):
        rotated = base
        for q in range(3):
            rotated = apply_gate(_random_local_unitary(rng), q, rotated)
        worst_lu = max(worst_lu, abs(three_tangle(rotated).tau - tau0))
    ok = worst <= 1e-9 and worst_lu <= 1e-9
    return CheckResult(
        "three-tangle",
        ok,
        f"family values match within {worst:.3e}; 50 local-unitary rotations drift "
        f"{worst_lu:.3e} (tol 1e-9)",
    )


def check_mismatch(seed: int) -> CheckResult:
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

    Raw channels get the computational controller basis.  This is the
    failure-injection path: a corrupted raw channel fails here.
    """
    basis = None
    if isinstance(spec, RawChannel):
        basis = (make_qubit(1.0, 0.0), make_qubit(0.0, 1.0))
    worst = 0.0
    for family in (ArbitraryInput(1.1, 0.6), XYInput(0.7), XZInput(2.0)):
        run = controlled_teleport(spec, family, controller_basis=basis)
        worst = max(worst, 1.0 - run.min_fidelity)
    return CheckResult(
        "channel-ct",
        worst <= 1e-9,
        f"3 probe inputs; max branch fidelity defect {worst:.3e} (tol 1e-9)",
    )


# --------------------------------------------------------------------------
# suite runner and deterministic report

def run_all(seed: int, quick: bool = False) -> list[CheckResult]:
    checks: list[Callable[[], CheckResult]] = [
        lambda: check_perfect_ct(seed),
        check_ms_closed_form,
        lambda: check_sphere_average(seed, quick),
        check_ghz_classical_limit,
        check_matched_flatness,
        check_bound_triple_identity,
        check_max_control_power,
        lambda: check_three_tangle(seed),
        lambda: check_mismatch(seed),
    ]
    return [fn() for fn in checks]


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
