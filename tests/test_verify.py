"""Failure injection: every threshold of the ``verify`` suite can fail.

Each case patches one input of a check by ``OFF``, far outside the
check's tolerance and far inside 1, then asserts that the check fails and
that its detail line prints the bad value.  Where a check joins two
thresholds, each case breaks one of them alone, so neither can be dropped
or joined by ``or`` without a failing test.  The defect half of
``perfect-ct`` is broken in ``test_protocol.py``.
"""
import pytest

from ctpower import verify

OFF = 1e-6


def _shifted(monkeypatch, name, shift):
    """Patch ``verify.<name>`` to return ``shift`` of what it returned."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kwargs: shift(real(*args, **kwargs)))


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
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_threshold_fails_and_names_the_bad_value(monkeypatch, case):
    patch, check, shown = CASES[case]
    assert check().passed
    patch(monkeypatch)
    result = check()
    assert not result.passed
    assert shown in result.detail, result.detail
