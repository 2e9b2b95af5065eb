"""Failure injection: every threshold of the ``verify`` suite can fail.

Each case patches one input of a check by ``OFF``, far outside the
check's tolerance and far inside 1, then asserts that the check fails and
that its detail line prints the bad value.  Where a check joins two
thresholds, each case breaks one of them alone, so neither can be dropped
or joined by ``or`` without a failing test.  Four cases take other
sizes: the Monte Carlo half of ``sphere-average``, whose tolerances are 4
standard errors, 2e-3 and a sample stderr within 5% of its prediction,
moves its means by 5 standard errors or by 3e-3, or puts its standard
errors 6% off their prediction; and ``bound-triple-identity``, a count of
disagreeing predicates, reads 1 - tau for each channel's 3-tangle.  The
defect half of ``perfect-ct`` is broken in ``test_protocol.py``.
"""
import math

import numpy as np
import pytest

from ctpower import verify
from ctpower.analysis import FAMILY_NAMES, MATCHED_AXIS, MC_SAMPLES, avg_fidelity_ms_analytic
from ctpower.channels import ThetaChannel
from ctpower.protocol import INPUT_FAMILIES

OFF = 1e-6


def _shifted(monkeypatch, name, shift):
    """Patch ``verify.<name>`` to return ``shift`` of what it returned."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kwargs: shift(real(*args, **kwargs)))


def _monte_carlo_at(monkeypatch, sigmas, offset, stderr=None, predicted=None):
    """Patch the Monte Carlo averages of ``sphere-average`` to sit
    ``sigmas`` of their standard errors and ``offset`` above the exact
    value, with standard error ``stderr`` (None: their own), and a given
    ``stderr``'s prediction to ``predicted`` (None: ``stderr``)."""
    real = verify.avg_fidelity_numeric
    if stderr is not None:
        want = stderr if predicted is None else predicted
        monkeypatch.setattr(verify, "_ncf_variance", lambda spec, family: want**2 * MC_SAMPLES)

    def patched(spec, **kwargs):
        mean, err = real(spec, **kwargs)
        if kwargs.get("method") != "monte_carlo":
            return mean, err
        err = err if stderr is None else stderr
        return avg_fidelity_ms_analytic(spec.d) + sigmas * err + offset, err

    monkeypatch.setattr(verify, "avg_fidelity_numeric", patched)


def _raise_matched(report):
    """The mismatch report with every matched row's average raised by OFF."""
    rows = tuple(r._replace(avg_ncf=r.avg_ncf + OFF) if r.matched else r for r in report.rows)
    return report._replace(rows=rows)


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
        lambda mp: _monte_carlo_at(mp, 5.0, 0.0),
        lambda: verify.check_sphere_average(0, quick=False),
        "worst 5.00 stderr",
    ),
    "sphere-average Monte Carlo absolute": (
        lambda mp: _monte_carlo_at(mp, 0.0, 3e-3, 1.0),
        lambda: verify.check_sphere_average(0, quick=False),
        "worst 0.00 stderr, worst 3.000e-03 absolute",
    ),
    "sphere-average Monte Carlo spread": (
        lambda mp: _monte_carlo_at(mp, 0.0, 0.0, 1.06e-4, 1e-4),
        lambda: verify.check_sphere_average(0, quick=False),
        "predicted stderr 1.000e-04, 1.000e-04, 1.000e-04, sample stderr off by at most 6.00%",
    ),
    "matched-flatness": (
        lambda mp: _shifted(mp, "ncf_batch", lambda ncf: ncf + OFF),
        verify.check_matched_flatness,
        "max |ncf - max(a^2,b^2)| = 1.000e-06",
    ),
    "bound-triple-identity": (
        lambda mp: _shifted(mp, "_tangles", lambda tau: 1.0 - tau),
        verify.check_bound_triple_identity,
        "; 243 disagreements among the three predicates",
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


def test_matched_flatness_reads_100_members_around_each_circle(monkeypatch):
    # the NCF is flat on a matched circle, so only a spy sees which
    # members the check reads: 100 evenly spaced around the whole circle
    seen = []
    real = verify.ncf_batch

    def spy(spec, k0, k1):
        seen.append((spec, k0, k1))
        return real(spec, k0, k1)

    monkeypatch.setattr(verify, "ncf_batch", spy)
    assert verify.check_matched_flatness().passed
    angles = 2.0 * np.pi * np.arange(100) / 100
    pairs = [(fam, a2) for fam in FAMILY_NAMES for a2 in (0.3, 0.5, 0.8)]
    assert len(seen) == len(pairs)
    for (spec, k0, k1), (fam, a2) in zip(seen, pairs):
        assert spec == ThetaChannel(math.sqrt(a2), math.sqrt(1.0 - a2), MATCHED_AXIS[fam])
        want0, want1 = INPUT_FAMILIES[fam].amplitudes(angles)
        assert np.max(np.abs(k0 - want0)) < 1e-15 and np.max(np.abs(k1 - want1)) < 1e-15


def test_bound_triple_identity_reads_its_grid_and_boundaries_on_each_axis_in_one_stack(monkeypatch):
    # the three predicates agree on most of the grid whatever the channels,
    # so only a spy sees which channels the check reads: one stack of 609
    # theta channels, the 201-point a^2 grid and its boundaries 1/3 and 2/3
    # on each family's matched axis, whose maps and 3-tangles it takes in
    # one call each
    seen = {}

    def spy(name):
        real = getattr(verify, name)

        def call(*args):
            seen.setdefault(name, []).append(args)
            return real(*args)

        monkeypatch.setattr(verify, name, call)

    for name in ("_theta_amps", "_lambdas", "_tangles"):
        spy(name)
    assert verify.check_bound_triple_identity().passed
    assert {name: len(calls) for name, calls in seen.items()} == dict.fromkeys(seen, 1)
    ((a, b, axes),) = seen["_theta_amps"]
    assert a.shape == b.shape == axes.shape == (609,)
    grid = np.append(np.linspace(0.0, 1.0, 201), [1.0 / 3.0, 2.0 / 3.0])
    for fam, a_k, b_k, axes_k in zip(FAMILY_NAMES, *(v.reshape(3, 203) for v in (a, b, axes))):
        assert np.max(np.abs(a_k**2 - grid)) < 1e-15
        assert np.max(np.abs(b_k**2 - (1.0 - grid))) < 1e-15
        assert set(axes_k.tolist()) == {"xyz".index(MATCHED_AXIS[fam])}
    ((weights, dominant),) = seen["_lambdas"]
    assert weights.shape == (609, 4) and dominant.shape == (609,)
    ((amps,),) = seen["_tangles"]
    assert amps.shape == (609, 8)


def test_bound_triple_identity_tolerances_decide_at_the_boundaries(monkeypatch):
    # at a^2 = 1/3, C falls 5.6e-17 short of 1/3 and tau 2.2e-16 short of
    # 8/9: a bound moved up by its 1e-12 tolerance, which is then the bound
    # itself to the bit, fails the check on the three a^2 = 1/3 channels
    for name in ("CLASSICAL_POWER", "TANGLE_BOUND"):
        bound = getattr(verify, name)
        assert (bound + 1e-12) - 1e-12 == bound
        with monkeypatch.context() as m:
            m.setattr(verify, name, bound + 1e-12)
            result = verify.check_bound_triple_identity()
        assert not result.passed and "; 3 disagreements" in result.detail, (name, result.detail)


@pytest.mark.parametrize("case", list(CASES))
def test_each_threshold_fails_and_names_the_bad_value(monkeypatch, case):
    patch, check, shown = CASES[case]
    assert check().passed
    patch(monkeypatch)
    result = check()
    assert not result.passed
    assert shown in result.detail, result.detail
