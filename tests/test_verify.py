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
import inspect
import math
import textwrap

import numpy as np
import pytest

from ctpower import paper, verify
from ctpower.analysis import FAMILY_NAMES, MATCHED_AXIS, MC_SAMPLES
from ctpower.channels import ThetaChannel
from ctpower.protocol import INPUT_FAMILIES

OFF = 1e-6


def _shifted(monkeypatch, name, shift, module=verify):
    """Patch ``module.<name>`` to return ``shift`` of what it returned."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: shift(real(*args, **kwargs)))


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
        return paper.ms_sphere_average(spec.d) + sigmas * err + offset, err

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
        lambda mp: _shifted(mp, "ms_ncf", lambda ncf: ncf + OFF, paper),
        verify.check_ms_closed_form,
        "max |simulated - closed| = 1.000e-06",
    ),
    "sphere-average exact": (
        lambda mp: _shifted(mp, "ms_sphere_average", lambda f: f + OFF, paper),
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
        "; 249 disagreements among the three predicates",
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
    # so only a spy sees which channels the check reads: one stack of 621
    # theta channels, the 201-point a^2 grid, its boundaries 1/3 and 2/3,
    # and each boundary moved outward by 5e-13 and by 2e-12, on each
    # family's matched axis, whose maps and 3-tangles it takes in one call
    # each
    seen = {}

    def spy(name):
        real = getattr(verify, name)

        def call(*args):
            seen.setdefault(name, []).append(args)
            return real(*args)

        monkeypatch.setattr(verify, name, call)

    for name in ("_theta_amps", "_maps", "_tangles"):
        spy(name)
    assert verify.check_bound_triple_identity().passed
    assert {name: len(calls) for name, calls in seen.items()} == dict.fromkeys(seen, 1)
    ((a, b, axes),) = seen["_theta_amps"]
    assert a.shape == b.shape == axes.shape == (621,)
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    grid = np.append(np.linspace(0.0, 1.0, 201), [
        third, two_thirds, third - 5e-13, two_thirds + 5e-13, third - 2e-12, two_thirds + 2e-12,
    ])
    for fam, a_k, b_k, axes_k in zip(FAMILY_NAMES, *(v.reshape(3, 207) for v in (a, b, axes))):
        assert np.max(np.abs(a_k**2 - grid)) < 1e-15
        assert np.max(np.abs(b_k**2 - (1.0 - grid))) < 1e-15
        assert set(axes_k.tolist()) == {"xyz".index(MATCHED_AXIS[fam])}
    ((amps, raw),) = seen["_maps"]
    assert amps.shape == (621, 8) and raw is False
    ((amps,),) = seen["_tangles"]
    assert amps.shape == (621, 8)


def _with_tolerance(predicate, tolerance):
    """``check_bound_triple_identity`` with every 1e-12 on the line that
    assigns ``predicate`` replaced by ``tolerance``, run in ``verify``'s
    namespace."""
    lines = textwrap.dedent(inspect.getsource(verify.check_bound_triple_identity)).splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.lstrip().startswith(predicate + " = ")]
    assert "1e-12" in lines[i], lines[i]
    lines[i] = lines[i].replace("1e-12", tolerance)
    namespace = dict(vars(verify))
    exec(compile("\n".join(lines), verify.__file__, "exec"), namespace)
    return namespace["check_bound_triple_identity"]()


def test_bound_triple_identity_tolerances_decide_at_the_boundaries():
    # a^2 = 1/3 - 5e-13 and 2/3 + 5e-13 meet all three predicates only by
    # their 1e-12 tolerances, and 1/3 - 2e-12 and 2/3 + 2e-12 fail all
    # three, as they would not at a tolerance of 1e-11.  At a^2 = 1/3, C
    # falls 5.6e-17 short of 1/3 and tau 2.2e-16 short of 8/9.  So on each
    # of the three axes, dropping the interval's tolerance splits the two
    # 5e-13 channels off, dropping C's or tau's splits them and 1/3 off, and
    # widening any one tenfold splits the two 2e-12 channels off
    assert verify.check_bound_triple_identity().passed
    for predicate, dropped in (("p_interval", 6), ("p_power", 9), ("p_tangle", 9)):
        for tolerance, count in (("0.0", dropped), ("1e-11", 6)):
            result = _with_tolerance(predicate, tolerance)
            assert not result.passed, (predicate, tolerance)
            assert f"; {count} disagreements" in result.detail, (predicate, result.detail)


@pytest.mark.parametrize("case", list(CASES))
def test_each_threshold_fails_and_names_the_bad_value(monkeypatch, case):
    patch, check, shown = CASES[case]
    assert check().passed
    patch(monkeypatch)
    result = check()
    assert not result.passed
    assert shown in result.detail, result.detail
