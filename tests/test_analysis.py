"""Averages, bounds, sweeps, and the mismatch experiment.

Oracles here integrate the closed-form NCF expressions directly with
high-order fixed quadrature, independently of the exact averages under
test.  Regression constants derived that way are frozen inline.
"""
import math
import tracemalloc

import numpy as np
import pytest

from ctpower import analysis
from ctpower.analysis import (
    CLASSICAL_FIDELITY,
    CLASSICAL_POWER,
    FAMILY_NAMES,
    MATCHED_AXIS,
    avg_fidelity_ms_analytic,
    avg_fidelity_numeric,
    control_power,
    mismatch_report,
    mismatch_table,
    power_bound_check,
    power_report,
    power_table,
    sweep,
)
from ctpower.channels import GHZChannel, MSChannel, RawChannel, ThetaChannel
from ctpower.errors import CorrectionMismatchError, NormalizationError, RangeError
from ctpower.protocol import (
    INPUT_FAMILIES,
    ArbitraryInput,
    _pauli_coords,
    ncf_batch,
    unconditioned_teleport,
)
from ctpower.qcore import PureState
from oracles import (
    MatchedFamiliesError,
    apply_gate,
    design,
    mismatch_ncf_closed,
    monte_carlo_one_shot,
    ncf_variance,
    one_shot_inputs,
    philox_draws,
    random_local_unitary,
    walk_ncf,
    walk_unconditioned,
)


def sphere_average_oracle(integrand, order=200):
    """(1/4pi) integral of integrand(theta, phi) over the sphere."""
    xt, wt = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * np.pi * (xt + 1.0)
    xp, wp = np.polynomial.legendre.leggauss(order)
    phi = np.pi * (xp + 1.0)
    total = 0.0
    for t, w1 in zip(theta, wt * 0.5 * np.pi):
        row = sum(integrand(t, p) * w2 for p, w2 in zip(phi, wp * np.pi))
        total += w1 * math.sin(t) * row
    return total / (4.0 * np.pi)


def circle_average_oracle(integrand, order=400):
    x, w = np.polynomial.legendre.leggauss(order)
    angles = np.pi * (x + 1.0)
    return float(np.sum(w * np.pi * np.vectorize(integrand)(angles)) / (2 * np.pi))


# ---------------------------------------------------------------------------
# scalar measures

def test_control_power_values_and_range():
    assert control_power(2.0 / 3.0) == pytest.approx(1.0 / 3.0)
    assert control_power(1.0) == 0.0
    assert control_power(0.5) == 0.5
    assert CLASSICAL_FIDELITY == pytest.approx(2.0 / 3.0)
    assert CLASSICAL_POWER == pytest.approx(1.0 / 3.0)
    with pytest.raises(RangeError):
        control_power(1.1)
    with pytest.raises(RangeError):
        control_power(-0.1)


def test_avg_fidelity_ms_analytic():
    assert avg_fidelity_ms_analytic(0.0) == pytest.approx(2.0 / 3.0)
    assert avg_fidelity_ms_analytic(1.0) == pytest.approx(1.0)
    assert avg_fidelity_ms_analytic(0.5) == pytest.approx(5.0 / 6.0)
    assert avg_fidelity_ms_analytic(-0.5) == pytest.approx(5.0 / 6.0)
    with pytest.raises(RangeError):
        avg_fidelity_ms_analytic(1.5)


def test_avg_fidelity_ms_analytic_rejects_nan():
    with pytest.raises(RangeError):
        avg_fidelity_ms_analytic(float("nan"))


def test_power_bound_check_boundaries():
    assert power_bound_check(math.sqrt(0.5))
    assert power_bound_check(math.sqrt(1.0 / 3.0))
    assert power_bound_check(math.sqrt(2.0 / 3.0))
    assert not power_bound_check(math.sqrt(0.8))
    assert not power_bound_check(0.0)


# ---------------------------------------------------------------------------
# quadrature averaging

def test_sphere_quadrature_matches_analytic_on_d_grid():
    for d in np.linspace(-1.0, 1.0, 11):
        spec = MSChannel(c=math.sqrt(1 - d * d), d=float(d))
        mean, stderr = avg_fidelity_numeric(spec, "sphere", method="quadrature")
        assert stderr == 0.0
        assert abs(mean - avg_fidelity_ms_analytic(float(d))) < 1e-9


def test_sphere_quadrature_matches_independent_oracle():
    # integrate the closed form with a fixed high-order rule, no adaptivity
    d = 0.37
    spec = MSChannel(c=math.sqrt(1 - d * d), d=d)

    def closed(theta, phi):
        p0 = math.cos(theta / 2.0) ** 2
        p1 = 1.0 - p0
        return p0 * p0 + p1 * p1 + 2.0 * d * p0 * p1

    want = sphere_average_oracle(closed, order=60)
    got, _ = avg_fidelity_numeric(spec, "sphere", method="quadrature")
    assert abs(got - want) < 1e-12
    assert abs(want - (2.0 / 3.0 + d / 3.0)) < 1e-12


def test_quadrature_weights_integrate_to_one():
    # NCF through MS{d=1} and Theta{a=1} is identically 1, so the averages
    # measure exactly the total quadrature weight
    mean, _ = avg_fidelity_numeric(MSChannel(c=0.0, d=1.0), "sphere")
    assert abs(mean - 1.0) < 1e-12
    mean, _ = avg_fidelity_numeric(
        ThetaChannel(a=1.0, b=0.0, k="z"), "family", family="xy"
    )
    assert abs(mean - 1.0) < 1e-12


def test_matched_family_average_is_the_dominant_weight():
    for fam in FAMILY_NAMES:
        spec = ThetaChannel(a=math.sqrt(0.5), b=math.sqrt(0.5), k=MATCHED_AXIS[fam])
        mean, _ = avg_fidelity_numeric(spec, "family", family=fam)
        assert abs(mean - 0.5) < 1e-9


def test_quadrature_is_the_map_at_the_design_points():
    # quadrature is the exact average of the map's NCF: its mean over a
    # design (ncf_batch) within 1e-15, and the step-by-step walk's at the
    # same points and the closed forms within 1e-12
    for d in (-0.8, 0.0, 0.37, 1.0):
        spec = MSChannel(c=math.sqrt(1 - d * d), d=d)
        mean, _ = avg_fidelity_numeric(spec, "sphere", method="quadrature")
        assert abs(mean - np.mean(ncf_batch(spec, *design(None)))) <= 1e-15
        assert abs(mean - np.mean(walk_ncf(spec, *design(None)))) < 1e-12
        assert abs(mean - (2.0 / 3.0 + abs(d) / 3.0)) < 1e-12
    for a2 in (0.3, 0.5, 0.9):
        a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
        hi, lo = max(a2, 1.0 - a2), min(a2, 1.0 - a2)
        for fam in FAMILY_NAMES:
            # the matched channel, flat on its circle, and a mismatched one
            for k, want in ((MATCHED_AXIS[fam], hi), (fam[0], hi + lo / 2.0)):
                spec = ThetaChannel(a=a, b=b, k=k)
                mean, _ = avg_fidelity_numeric(spec, "family", family=fam, method="quadrature")
                assert abs(mean - np.mean(ncf_batch(spec, *design(fam)))) <= 1e-15
                assert abs(mean - np.mean(walk_ncf(spec, *design(fam)))) < 1e-12
                assert abs(mean - want) < 1e-12


def test_domain_and_measure_validation():
    spec = GHZChannel()
    with pytest.raises(ValueError):
        avg_fidelity_numeric(spec, "line")
    with pytest.raises(ValueError):
        avg_fidelity_numeric(spec, "family")  # family name missing
    with pytest.raises(ValueError):
        avg_fidelity_numeric(spec, "sphere", method="guessing")


# ---------------------------------------------------------------------------
# Monte Carlo

def test_monte_carlo_tracks_analytic_for_random_d_values():
    rng = np.random.default_rng(79)
    for row in range(5):
        d = float(rng.uniform(-1.0, 1.0))
        spec = MSChannel(c=math.sqrt(1 - d * d), d=d)
        mean, stderr = avg_fidelity_numeric(
            spec, "sphere", method="monte_carlo",
            n_samples=10**6, seed=11, row=row,
        )
        assert stderr > 0.0
        assert abs(mean - avg_fidelity_ms_analytic(d)) < 4.0 * stderr


def test_monte_carlo_is_reproducible_and_stream_keyed():
    spec = MSChannel(c=0.6, d=0.8)
    kwargs = dict(method="monte_carlo", n_samples=40_000, seed=5, row=2)
    a = avg_fidelity_numeric(spec, "sphere", **kwargs)
    b = avg_fidelity_numeric(spec, "sphere", **kwargs)
    assert a == b  # bit-identical, not merely close
    c = avg_fidelity_numeric(
        spec, "sphere", method="monte_carlo", n_samples=40_000, seed=5, row=3
    )
    assert a.mean != c.mean
    with pytest.raises(RangeError):
        avg_fidelity_numeric(spec, "sphere", method="monte_carlo", n_samples=0)


def test_monte_carlo_on_circle_domain():
    spec = ThetaChannel(a=math.sqrt(0.7), b=math.sqrt(0.3), k="y")
    mean, stderr = avg_fidelity_numeric(
        spec, "family", family="xz", method="monte_carlo",
        n_samples=200_000, seed=3,
    )
    assert abs(mean - 0.7) < max(4.0 * stderr, 1e-12)


# Monte Carlo streams its draws in chunks of _BATCH_ROWS; a small chunk puts
# every case below across chunk boundaries
SMALL_CHUNK = 7


def mc_average(spec, family, n, seed=5, row=1):
    domain = "sphere" if family is None else "family"
    return avg_fidelity_numeric(
        spec, domain, family=family, method="monte_carlo",
        n_samples=n, seed=seed, row=row,
    )


def test_monte_carlo_stream_reads_the_one_shot_draws(monkeypatch):
    monkeypatch.setattr(analysis, "_BATCH_ROWS", SMALL_CHUNK)
    unitary = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    specs = [
        MSChannel(c=0.6, d=-0.8),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"),
        RawChannel(state=apply_gate(unitary, 0, MSChannel(c=0.8, d=0.6).state)),
    ]
    for n in (1, 3, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3):
        first, second = philox_draws(5, 1, n)
        for skip, want in ((0, first), (n, second)):
            streamed = [u for _, u in analysis._uniform_chunks(analysis._rng(5, 1, skip), n)]
            assert max(len(chunk) for chunk in streamed) <= SMALL_CHUNK
            assert np.array_equal(np.concatenate(streamed), want)
        for spec in specs:
            for family in (None, *FAMILY_NAMES):
                mean, stderr = mc_average(spec, family, n)
                want_mean, want_stderr = monte_carlo_one_shot(spec, family, n, 5, 1)
                assert abs(mean - want_mean) <= 1e-15
                assert abs(stderr - want_stderr) <= 1e-15


def test_circle_draws_are_the_bloch_vectors_of_the_family_members():
    # Monte Carlo puts (cos^2 a, sin^2 a) on a circle's two Bloch axes without
    # building amplitudes; the squared Pauli coordinates of the members are
    # the oracle
    u = np.linspace(0.0, 1.0, 97, endpoint=False)
    for family in FAMILY_NAMES:
        _, *want = _pauli_coords(*INPUT_FAMILIES[family].amplitudes(2.0 * np.pi * u))
        got = analysis._circle_squares(family, u.copy())
        for axis in range(3):
            square = np.zeros_like(u) if got[axis] is None else got[axis]
            assert np.max(np.abs(square - want[axis] ** 2)) <= 1e-15, (family, axis)


def test_monte_carlo_values_are_ncf_batch_at_the_one_shot_inputs(monkeypatch):
    # each value of the stream, not only the mean, is the NCF at the input
    # the one-shot draw builds amplitudes for
    monkeypatch.setattr(analysis, "_BATCH_ROWS", SMALL_CHUNK)
    unitary = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    specs = [
        MSChannel(c=0.6, d=-0.8),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"),
        RawChannel(state=apply_gate(unitary, 0, MSChannel(c=0.8, d=0.6).state)),
    ]
    for n in (1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3):
        for family in (None, *FAMILY_NAMES):
            k0, k1 = one_shot_inputs(family, n, 5, 1)
            for spec in specs:
                chunks = list(analysis._ncf_draws(spec, family, n, 5, 1))
                assert max(len(chunk) for chunk in chunks) <= SMALL_CHUNK
                got = np.concatenate(chunks)
                want = ncf_batch(spec, k0, k1)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15, (spec, family, n)


def walk_central_moments(spec, family):
    """Variance and fourth central moment of the step-by-step walk's NCF
    over the sphere or a family's circle, from a product rule exact for
    polynomials of degree 8 in the Bloch vector, such as NCF^4: five
    Gauss-Legendre nodes in cos(theta) and 16 equally spaced angles."""
    angles = np.arange(16) * (2.0 * np.pi / 16)
    if family is None:
        z, wz = np.polynomial.legendre.leggauss(5)
        z, phi = np.repeat(z, 16), np.tile(angles, 5)
        weights = np.repeat(wz / 2.0, 16) / 16
        k0 = np.sqrt((1.0 + z) / 2.0) + 0j
        k1 = np.exp(1j * phi) * np.sqrt((1.0 - z) / 2.0)
    else:
        weights = np.full(16, 1.0 / 16)
        k0, k1 = INPUT_FAMILIES[family].amplitudes(angles)
    vals = walk_ncf(spec, k0, k1)
    dev = vals - weights @ vals
    return float(weights @ dev**2), float(weights @ dev**4)


def test_monte_carlo_stderr_matches_the_predicted_spread():
    # Monte Carlo's stderr estimates sigma/sqrt(n), with sigma^2 the exact
    # variance of the quadratic NCF.  Its own spread follows from the sample
    # variance's, sqrt((mu4 - sigma^4)/n) with mu4 the fourth central moment,
    # so by the delta method the stderr's standard deviation is
    # sqrt((mu4 - sigma^4)/n) / (2 sigma sqrt(n)); the bound is 4 of those.
    rng = np.random.default_rng(113)
    ms = MSChannel(c=0.6, d=-0.8)
    theta = ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z")
    specs = [
        ms,
        theta,
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, ms.state)),
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, theta.state)),
    ]
    n = 50_000
    for row, spec in enumerate(specs):
        for family in (None, *FAMILY_NAMES):
            variance = ncf_variance(spec, family)
            walked, mu4 = walk_central_moments(spec, family)
            assert abs(variance - walked) <= 1e-14
            _, stderr = mc_average(spec, family, n, seed=29, row=row)
            if variance <= 1e-20:  # a flat circle
                assert stderr <= 1e-15
                continue
            sigma = math.sqrt(variance)
            spread = math.sqrt((mu4 - variance**2) / n) / (2.0 * sigma * math.sqrt(n))
            assert abs(stderr - sigma / math.sqrt(n)) <= 4.0 * spread, (spec, family)


def test_predicted_variance_is_the_exact_spread_of_the_ncf():
    # the variance read off lambda, (3 sum lambda^2 - (sum lambda)^2)/90 on
    # the sphere and (lambda_c - lambda_s)^2/32 on a circle, against the
    # oracle's moments of the full transfer matrix
    rng = np.random.default_rng(131)
    named = [MSChannel(c=math.sqrt(1.0 - d * d), d=d) for d in (-0.8, -0.3, 0.0, 0.6, 1.0)]
    named += [
        ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1.0 - a2), k=k)
        for a2 in (0.1, 0.5, 0.8) for k in "xyz"
    ]
    raw = [
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, spec.state))
        for spec in named
    ]
    for spec in named + raw:
        for family in (None, *FAMILY_NAMES):
            got = analysis._ncf_variance(spec, family)
            assert abs(got - ncf_variance(spec, family)) <= 1e-15, (spec, family)


def test_monte_carlo_memory_does_not_grow_with_n_samples():
    spec = MSChannel(c=0.6, d=-0.8)
    for family in (None, "xz"):
        mc_average(spec, family, 10)  # builds the cached receiver map
        peaks = []
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                mc_average(spec, family, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**18


def test_monte_carlo_moment_merge_edge_cases(monkeypatch):
    spec = MSChannel(c=0.6, d=-0.8)
    assert mc_average(spec, None, 1).stderr == 0.0
    # two one-value chunks merge to numpy's sample standard deviation
    monkeypatch.setattr(analysis, "_BATCH_ROWS", 1)
    values = np.concatenate(list(analysis._ncf_draws(spec, None, 2, 5, 1)))
    mean, stderr = mc_average(spec, None, 2)
    assert mean == pytest.approx(values.mean(), abs=1e-15)
    assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(2.0), abs=1e-15)
    # a flat matched circle, with the last chunk ending exactly at n
    monkeypatch.setattr(analysis, "_BATCH_ROWS", SMALL_CHUNK)
    matched = ThetaChannel(a=math.sqrt(0.7), b=math.sqrt(0.3), k="y")
    mean, stderr = mc_average(matched, "xz", 3 * SMALL_CHUNK)
    assert abs(mean - 0.7) < 1e-12
    assert math.isfinite(stderr) and stderr <= 1e-15


def test_monte_carlo_checks_the_normalization_of_its_draws(monkeypatch):
    def nan_draws(rng, n):
        yield 0, np.full(n, np.nan)

    monkeypatch.setattr(analysis, "_uniform_chunks", nan_draws)
    spec = MSChannel(c=0.6, d=0.8)
    # the sphere and every circle check the |r|^2 of the Bloch vectors they draw
    for family in (None, *FAMILY_NAMES):
        with pytest.raises(NormalizationError, match=r"\|r\|\^2 = nan at index 0"):
            mc_average(spec, family, 5)


def test_monte_carlo_sphere_checks_draws_outside_the_unit_interval(monkeypatch):
    # u = 5 gives cos(theta) = -9: squares that still sum to 1, but two of
    # them negative
    def outside_draws(rng, n):
        yield 0, np.full(n, 5.0)

    monkeypatch.setattr(analysis, "_uniform_chunks", outside_draws)
    with pytest.raises(NormalizationError, match=r"\|r\|\^2 = 161.0 at index 0"):
        mc_average(MSChannel(c=0.6, d=0.8), None, 5)


# ---------------------------------------------------------------------------
# power reports and sweeps

def test_power_report_fields():
    rep = power_report(MSChannel(c=1.0, d=0.0), 2.0 / 3.0)
    assert abs(rep.c_bar - (1.0 - rep.f_bar)) < 1e-12
    assert rep.meets_classical_bound
    assert rep.meets_tangle_bound  # GHZ point: tau = 1
    for v in (rep.f_bar, rep.c_bar, rep.tau):
        assert 0.0 <= v <= 1.0


def test_sweep_ms_d_grid_reference_values():
    ds = (0.0, 0.25, 0.5, 0.75, 1.0)
    specs = [MSChannel(c=math.sqrt(1 - d * d), d=d) for d in ds]
    reports = sweep(specs, method="analytic")
    want = (2.0 / 3.0, 0.75, 5.0 / 6.0, 11.0 / 12.0, 1.0)
    for rep, f in zip(reports, want):
        assert abs(rep.f_bar - f) < 1e-12


def test_sweep_theta_a2_grid_reference_values():
    grid = (1.0 / 3.0, 0.5, 2.0 / 3.0)
    specs = [
        ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1 - a2), k="z") for a2 in grid
    ]
    reports = sweep(specs, method="analytic")
    for rep, c, tau in zip(reports, (1 / 3, 0.5, 1 / 3), (8 / 9, 1.0, 8 / 9)):
        assert abs(rep.c_bar - c) < 1e-9
        assert abs(rep.tau - tau) < 1e-9
        assert rep.meets_classical_bound and rep.meets_tangle_bound


def test_sweep_quadrature_agrees_with_analytic():
    specs = [GHZChannel(), MSChannel(c=0.6, d=0.8),
             ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="x")]
    analytic = sweep(specs, method="analytic")
    numeric = sweep(specs, method="quadrature")
    for a, q in zip(analytic, numeric):
        assert a.f_bar == q.f_bar  # one exact average, bit for bit


def test_analytic_sweep_reads_the_receiver_map():
    # sphere: 1/2 + sum(lambda)/6 = 2/3 + |d|/3; matched circle: max(a^2, b^2)
    for d in (-0.8, -0.3, 0.0, 0.5, 1.0):
        (rep,) = sweep([MSChannel(c=math.sqrt(1 - d * d), d=d)], method="analytic")
        assert abs(rep.f_bar - (2.0 / 3.0 + abs(d) / 3.0)) < 1e-12
    for a, b in ((0.6, 0.8), (0.8, -0.6), (math.sqrt(0.5), math.sqrt(0.5))):
        for k in ("x", "y", "z"):
            (rep,) = sweep([ThetaChannel(a, b, k)], method="analytic")
            assert abs(rep.f_bar - max(a * a, b * b)) < 1e-12
    # raw channels have an analytic average too; the walk over the
    # tetrahedron agrees
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    raw = RawChannel(state=apply_gate(u, 0, MSChannel(c=0.6, d=-0.8).state))
    (rep,) = sweep([raw], method="analytic")
    assert abs(rep.f_bar - np.mean(walk_ncf(raw, *design(None)))) < 1e-12
    # controller and receiver share a Bell pair, the sender is |0>: the walk
    # gives 1/2 for every input, but the sender's outcome weights depend on
    # the input, so the map is refused, and every method refuses with it
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b101]] = 1.0 / math.sqrt(2.0)
    degenerate = RawChannel(state=PureState(amps))
    rho, _ = walk_unconditioned(degenerate, ArbitraryInput(1.0, 0.5))
    assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-12
    with pytest.raises(CorrectionMismatchError):
        unconditioned_teleport(degenerate, ArbitraryInput(1.0, 0.5))
    for method in ("quadrature", "monte_carlo"):
        with pytest.raises(CorrectionMismatchError):
            avg_fidelity_numeric(degenerate, "sphere", method=method, n_samples=100)
    with pytest.raises(CorrectionMismatchError):
        sweep([degenerate], method="analytic")


def test_ms_average_monotone_in_abs_d():
    ds = np.linspace(0.0, 1.0, 21)
    f = [avg_fidelity_ms_analytic(d) for d in ds]
    assert all(b > a for a, b in zip(f, f[1:]))  # strictly increasing
    c = [control_power(v) for v in f]
    assert all(b < a for a, b in zip(c, c[1:]))  # strictly decreasing


def test_power_table_rows():
    rows = power_table(sweep([MSChannel(c=0.6, d=0.8)]))
    assert rows[0]["channel"] == "ms"
    assert rows[0]["params"] == {"c": 0.6, "d": 0.8}
    assert rows[0]["bounds"] == {"classical": False, "tangle": False}


# ---------------------------------------------------------------------------
# mismatched channel/input pairings

def test_mismatch_closed_form_hand_checks():
    a, b = math.sqrt(0.6), math.sqrt(0.4)
    # channel xy carries sigma_z; <sigma_z> on the xz circle is cos(theta)
    got = mismatch_ncf_closed(a, b, "xy", "xz", math.pi / 2.0)
    assert abs(got - a * a) < 1e-12
    got = mismatch_ncf_closed(a, b, "xy", "xz", 0.0)
    assert abs(got - 1.0) < 1e-12
    # channel xz carries sigma_y; <sigma_y> on the xy equator is sin(phi)
    for phi in (0.0, 0.9, 2.0):
        got = mismatch_ncf_closed(a, b, "xz", "xy", phi)
        want = a * a + b * b * math.sin(phi) ** 2
        assert abs(got - want) < 1e-12
    # channel yz carries sigma_x; <sigma_x> on the xz circle is sin(theta)
    got = mismatch_ncf_closed(a, b, "yz", "xz", 1.1)
    assert abs(got - (a * a + b * b * math.sin(1.1) ** 2)) < 1e-12


def test_mismatch_closed_rejects_matched_pairs():
    with pytest.raises(MatchedFamiliesError):
        mismatch_ncf_closed(0.6, 0.8, "xz", "x-z", 0.3)
    with pytest.raises(ValueError):
        mismatch_ncf_closed(0.6, 0.8, "diagonal", "xz", 0.3)


def test_mismatch_average_regression_constant():
    # frozen: every mismatched circle average of the Pauli expectation
    # squared is 1/2, so f_bar = a^2 + b^2/2; at a=b this is 0.75
    want = circle_average_oracle(lambda t: 0.5 + 0.5 * np.cos(t) ** 2)
    assert abs(want - 0.75) < 1e-12
    report = mismatch_report(math.sqrt(0.5), math.sqrt(0.5))
    for row in report.rows:
        if not row.matched:
            assert abs(row.avg_ncf - 0.75) < 1e-9
            assert abs(row.avg_power - 0.25) < 1e-9


def test_mismatch_report_structure_and_claim_flag():
    report = mismatch_report(math.sqrt(0.5), math.sqrt(0.5))
    assert len(report.rows) == 9
    assert sum(r.matched for r in report.rows) == 3
    for row in report.rows:
        assert 0.0 <= row.avg_ncf <= 1.0
        assert 0.0 <= row.avg_power <= 1.0
        if row.matched:
            assert abs(row.avg_power - 0.5) < 1e-9
    # the flag records the quadrature outcome; with the circle measure the
    # best mismatched power is 1/4, not the claimed 1/3
    assert abs(report.max_mismatched_power - 0.25) < 1e-9
    assert report.claim_power == pytest.approx(1.0 / 3.0)
    assert report.claim_agrees is False
    table = mismatch_table(report)
    assert len(table) == 9 and table[0]["channel_family"] == "xz"
    # the rows come off the receiver map; the walk over each circle's
    # design is the cross-check
    for a2 in (0.5, 0.3):
        a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
        for row in mismatch_report(a, b).rows:
            spec = ThetaChannel(a, b, MATCHED_AXIS[row.channel_family])
            walked = np.mean(walk_ncf(spec, *design(row.input_family)))
            assert abs(row.avg_ncf - walked) <= 1e-12


def test_mismatch_dominance_on_a_dominant_grid():
    for a2 in np.linspace(0.5, 1.0, 6):
        report = mismatch_report(math.sqrt(a2), math.sqrt(1 - a2))
        matched = {r.channel_family: r.avg_ncf for r in report.rows if r.matched}
        for row in report.rows:
            if not row.matched:
                assert row.avg_ncf >= matched[row.channel_family] - 1e-12
