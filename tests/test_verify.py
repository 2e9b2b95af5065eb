"""Failure injection: every threshold of the ``verify`` suite can fail.

Each case patches one input of a check by ``OFF``, far outside the
check's tolerance and far inside 1, then asserts that the check fails and
that its detail line prints the bad value.  Where a check joins two
thresholds, each case breaks one of them alone, so neither can be dropped
or joined by ``or`` without a failing test.  Three cases take other
sizes: the Monte Carlo half of ``sphere-average``, whose tolerances are 4
standard errors and 2e-3, moves its means by 5 standard errors or by
3e-3; and ``bound-triple-identity``, a count of disagreeing predicates,
negates one predicate.  The defect half of ``perfect-ct`` is broken in
``test_protocol.py``.  The std half of ``matched-flatness`` cannot fail
alone: a standard deviation never exceeds the largest deviation from
any value, which the other half bounds by the same 1e-12.
"""
import dataclasses

import pytest

from ctpower import verify
from ctpower.analysis import avg_fidelity_ms_analytic

OFF = 1e-6


def _shifted(monkeypatch, name, shift):
    """Patch ``verify.<name>`` to return ``shift`` of what it returned."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kwargs: shift(real(*args, **kwargs)))


def _monte_carlo_at(monkeypatch, sigmas, offset, stderr):
    """Patch the Monte Carlo averages of ``sphere-average`` to sit
    ``sigmas`` of their standard errors and ``offset`` above the exact
    value, with standard error ``stderr`` (None: their own)."""
    real = verify.avg_fidelity_numeric

    def patched(spec, domain, **kwargs):
        mean, err = real(spec, domain, **kwargs)
        if kwargs.get("method") != "monte_carlo":
            return mean, err
        err = err if stderr is None else stderr
        return avg_fidelity_ms_analytic(spec.d) + sigmas * err + offset, err

    monkeypatch.setattr(verify, "avg_fidelity_numeric", patched)


def _raise_matched(report):
    """The mismatch report with every matched row's average raised by OFF."""
    rows = tuple(
        dataclasses.replace(r, avg_ncf=r.avg_ncf + OFF) if r.matched else r for r in report.rows
    )
    return dataclasses.replace(report, rows=rows)


def _bump(index):
    def shift(tau):
        tau = tau.copy()
        tau[index] += OFF
        return tau

    return shift


CASES = {
    "perfect-ct probability sum": (
        lambda mp: _shifted(
            mp, "_ct_certificate",
            lambda cert: cert._replace(probability=cert.probability * (1.0 + OFF)),
        ),
        lambda: verify.check_perfect_ct(0),
        "max probability-sum defect 1.000e-06",
    ),
    "ms-closed-form": (
        lambda mp: _shifted(mp, "ncf_ms_closed", lambda ncf: ncf + OFF),
        verify.check_ms_closed_form,
        "max |simulated - closed| = 1.000e-06",
    ),
    "sphere-average exact": (
        lambda mp: _shifted(mp, "avg_fidelity_ms_analytic", lambda f: f + OFF),
        lambda: verify.check_sphere_average(0, quick=True),
        "exact average over 11 d values: max deviation 1.000e-06",
    ),
    "ghz-classical-limit fidelity": (
        lambda mp: (
            _shifted(mp, "avg_fidelity_numeric", lambda got: (got[0] + OFF, got[1])),
            mp.setattr(verify, "control_power", lambda f: 1.0 / 3.0),
        ),
        verify.check_ghz_classical_limit,
        "average NCF deviates from 2/3 by 1.000e-06, power from 1/3 by 0.000e+00",
    ),
    "ghz-classical-limit power": (
        lambda mp: _shifted(mp, "control_power", lambda c: c + OFF),
        verify.check_ghz_classical_limit,
        "power from 1/3 by 1.000e-06",
    ),
    "three-tangle family value": (
        lambda mp: _shifted(mp, "_tangles", _bump(0)),  # MS at c = 0
        lambda: verify.check_three_tangle(0),
        "family values match within 1.000e-06",
    ),
    "three-tangle rotation": (
        lambda mp: _shifted(mp, "_tangles", _bump(-1)),  # the last rotated state
        lambda: verify.check_three_tangle(0),
        "50 local-unitary rotations drift 1.000e-06",
    ),
    "sphere-average Monte Carlo stderr": (
        lambda mp: _monte_carlo_at(mp, 5.0, 0.0, None),
        lambda: verify.check_sphere_average(0, quick=False),
        "worst 5.00 stderr",
    ),
    "sphere-average Monte Carlo absolute": (
        lambda mp: _monte_carlo_at(mp, 0.0, 3e-3, 1.0),
        lambda: verify.check_sphere_average(0, quick=False),
        "worst 0.00 stderr, worst 3.000e-03 absolute",
    ),
    "matched-flatness": (
        lambda mp: _shifted(mp, "ncf_batch", lambda ncf: ncf + OFF),
        verify.check_matched_flatness,
        "max |ncf - max(a^2,b^2)| = 1.000e-06",
    ),
    "bound-triple-identity": (
        lambda mp: _shifted(mp, "power_bound_check", lambda ok: not ok),
        verify.check_bound_triple_identity,
        "201 disagreements among the three predicates",
    ),
    "max-control-power": (
        lambda mp: _shifted(mp, "control_power", lambda c: c + OFF),
        verify.check_max_control_power,
        "max |C - 1/2| = 1.000e-06",
    ),
    "mismatch-experiment": (
        lambda mp: _shifted(mp, "mismatch_report", _raise_matched),
        verify.check_mismatch,
        "worst violation 1.000e-06",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_threshold_fails_and_names_the_bad_value(monkeypatch, case):
    patch, check, shown = CASES[case]
    assert check().passed
    patch(monkeypatch)
    result = check()
    assert not result.passed
    assert shown in result.detail, result.detail
