"""Averages, bounds, sweeps, and the mismatch experiment.

Oracles here integrate the closed-form NCF expressions directly with
high-order fixed quadrature, independently of the exact averages under
test.  Regression constants derived that way are frozen inline.
"""
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ctpower import analysis, channels, protocol
from ctpower.analysis import (
    CLASSICAL_POWER,
    FAMILY_NAMES,
    MATCHED_AXIS,
    avg_fidelity_ms_analytic,
    avg_fidelity_numeric,
    control_power,
    mismatch_report,
    sweep,
)
from ctpower.channels import (
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    _TANGLE_CUTOFF,
    three_tangle,
)
from ctpower.errors import NormalizationError, RangeError
from ctpower.protocol import (
    INPUT_FAMILIES,
    ArbitraryInput,
    _pauli_coords,
    ncf_batch,
    receiver_map,
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
    random_local_unitary,
    stack_specs,
    stream_draws,
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
    with pytest.raises(RangeError):
        avg_fidelity_ms_analytic(1.0 + 6e-11)


def test_avg_fidelity_ms_analytic_takes_every_d_an_ms_channel_takes():
    d = 1.0 + 4e-11  # d^2 - 1 = 8e-11, within an MSChannel's 1e-10
    assert MSChannel(c=0.0, d=d).d == d
    assert avg_fidelity_ms_analytic(d) == avg_fidelity_ms_analytic(1.0)


def test_avg_fidelity_ms_analytic_rejects_nan():
    with pytest.raises(RangeError):
        avg_fidelity_ms_analytic(float("nan"))


# ---------------------------------------------------------------------------
# exact averaging

def test_sphere_quadrature_matches_analytic_on_d_grid():
    for d in np.linspace(-1.0, 1.0, 11):
        spec = MSChannel(c=math.sqrt(1 - d * d), d=float(d))
        mean, stderr = avg_fidelity_numeric(spec, method="exact")
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
    got, _ = avg_fidelity_numeric(spec, method="exact")
    assert abs(got - want) < 1e-12
    assert abs(want - (2.0 / 3.0 + d / 3.0)) < 1e-12


def test_exact_average_of_a_flat_ncf_is_one():
    # NCF through MS{d=1} and Theta{a=1} is identically 1, so the averages
    # measure exactly the total weight of the domain's measure
    mean, _ = avg_fidelity_numeric(MSChannel(c=0.0, d=1.0))
    assert abs(mean - 1.0) < 1e-12
    mean, _ = avg_fidelity_numeric(ThetaChannel(a=1.0, b=0.0, k="z"), "xy")
    assert abs(mean - 1.0) < 1e-12


def test_matched_family_average_is_the_dominant_weight():
    for fam in FAMILY_NAMES:
        spec = ThetaChannel(a=math.sqrt(0.5), b=math.sqrt(0.5), k=MATCHED_AXIS[fam])
        mean, _ = avg_fidelity_numeric(spec, fam)
        assert abs(mean - 0.5) < 1e-9


def test_exact_average_is_the_mean_of_the_map_over_a_design():
    # the exact method is the exact average of the map's NCF: its mean over a
    # design (ncf_batch) within 1e-15, and the step-by-step walk's at the
    # same points and the closed forms within 1e-12
    for d in (-0.8, 0.0, 0.37, 1.0):
        spec = MSChannel(c=math.sqrt(1 - d * d), d=d)
        mean, _ = avg_fidelity_numeric(spec, method="exact")
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
                mean, _ = avg_fidelity_numeric(spec, fam, method="exact")
                assert abs(mean - np.mean(ncf_batch(spec, *design(fam)))) <= 1e-15
                assert abs(mean - np.mean(walk_ncf(spec, *design(fam)))) < 1e-12
                assert abs(mean - want) < 1e-12


def test_domain_and_measure_validation():
    spec = GHZChannel()
    # a family that names no great circle is refused, not read as the sphere
    for family in ("line", "sphere", "family", "arbitrary", ""):
        with pytest.raises(ValueError, match=f"unknown family {family!r}"):
            avg_fidelity_numeric(spec, family)
    with pytest.raises(ValueError, match="unknown method 'guessing'"):
        avg_fidelity_numeric(spec, method="guessing")


# ---------------------------------------------------------------------------
# Monte Carlo

def test_monte_carlo_tracks_analytic_for_random_d_values():
    rng = np.random.default_rng(79)
    for row in range(5):
        d = float(rng.uniform(-1.0, 1.0))
        spec = MSChannel(c=math.sqrt(1 - d * d), d=d)
        mean, stderr = avg_fidelity_numeric(
            spec, method="monte_carlo", n_samples=10**6, seed=11, row=row,
        )
        assert stderr > 0.0
        assert abs(mean - avg_fidelity_ms_analytic(d)) < 4.0 * stderr


def test_monte_carlo_is_reproducible_and_stream_keyed():
    spec = MSChannel(c=0.6, d=0.8)
    kwargs = dict(method="monte_carlo", n_samples=40_000, seed=5, row=2)
    a = avg_fidelity_numeric(spec, **kwargs)
    b = avg_fidelity_numeric(spec, **kwargs)
    assert a == b  # bit-identical, not merely close
    c = avg_fidelity_numeric(spec, method="monte_carlo", n_samples=40_000, seed=5, row=3)
    assert a.mean != c.mean
    with pytest.raises(RangeError):
        avg_fidelity_numeric(spec, method="monte_carlo", n_samples=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_samples=1e6), "n_samples must be an integer, got 1000000.0"),
        (dict(n_samples="10"), "n_samples must be an integer, got '10'"),
        (dict(n_samples=0), "n_samples must be at least 1, got 0"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=-1), r"seed must be in \[0, 2\^64\), got -1"),
        (dict(seed=2**64), r"seed must be in \[0, 2\^64\), got 18446744073709551616"),
        (dict(row=2.0), "row must be an integer, got 2.0"),
        (dict(row=-1), r"row must be in \[0, 2\^64\), got -1"),
    ],
)
def test_monte_carlo_rejects_counts_and_keys_that_are_not_whole(kwargs, message):
    # before any draw, and on the calling thread: a float seed is not
    # truncated and a negative one does not reach numpy's uint64
    spec = MSChannel(c=0.6, d=0.8)
    with pytest.raises(RangeError, match=f"^{message}$"):
        avg_fidelity_numeric(spec, method="monte_carlo", **kwargs)


def test_monte_carlo_keys_default_to_seed_0_and_row_0():
    # the stream a caller gets without naming one is (0, 0), in a sweep too
    spec = MSChannel(c=0.6, d=0.8)
    want = avg_fidelity_numeric(spec, method="monte_carlo", n_samples=1000, seed=0, row=0)
    assert avg_fidelity_numeric(spec, method="monte_carlo", n_samples=1000) == want
    assert want != avg_fidelity_numeric(spec, method="monte_carlo", n_samples=1000, seed=1)
    assert want != avg_fidelity_numeric(spec, method="monte_carlo", n_samples=1000, row=1)
    (rep,) = sweep([spec], method="monte_carlo")
    assert [rep] == sweep([spec], method="monte_carlo", seed=0)


def test_monte_carlo_takes_numpy_integers_and_the_largest_key():
    spec = MSChannel(c=0.6, d=0.8)
    want = avg_fidelity_numeric(
        spec, method="monte_carlo", n_samples=1000, seed=2**64 - 1, row=2**64 - 1
    )
    got = avg_fidelity_numeric(
        spec, method="monte_carlo", n_samples=np.int64(1000),
        seed=np.uint64(2**64 - 1), row=np.uint64(2**64 - 1),
    )
    assert got == want


def test_monte_carlo_on_a_generic_raw_channel():
    # eight normalized Gaussian amplitudes: the sender's outcomes leave
    # different states, and the draws average to the map's exact average
    rng = np.random.default_rng(131)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    spec = RawChannel(state=PureState(v / np.linalg.norm(v)))
    for row, family in enumerate((None, *FAMILY_NAMES)):
        mean, stderr = mc_average(spec, family, 200_000, seed=13, row=row)
        assert stderr > 0.0
        assert abs(mean - analysis._exact_average(receiver_map(spec), family)) < 4.0 * stderr


def test_monte_carlo_on_circle_domain():
    spec = ThetaChannel(a=math.sqrt(0.7), b=math.sqrt(0.3), k="y")
    mean, stderr = avg_fidelity_numeric(
        spec, "xz", method="monte_carlo", n_samples=200_000, seed=3
    )
    assert abs(mean - 0.7) < max(4.0 * stderr, 1e-12)


# Monte Carlo streams its draws in chunks of _CHUNK_DRAWS; a small chunk puts
# every case below across chunk boundaries
SMALL_CHUNK = 7


def mc_average(spec, family, n, seed=5, row=1):
    return avg_fidelity_numeric(
        spec, family, method="monte_carlo", n_samples=n, seed=seed, row=row
    )


def ncf_values(spec, family, n, seed=5, row=1):
    """Copies of the ``_ncf_draws`` chunks of all n inputs of the spec's
    receiver map, computed in one set of work rows from generators at the
    start of the (seed, row) stream."""
    work = np.empty((5, analysis._CHUNK_DRAWS))
    lam = receiver_map(spec)
    return [vals.copy() for vals in analysis._ncf_draws(lam, family, n, 0, n, work, seed, row)]


def test_monte_carlo_stream_reads_the_one_shot_draws(monkeypatch):
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", SMALL_CHUNK)
    unitary = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    specs = [
        MSChannel(c=0.6, d=-0.8),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"),
        # lambda_x != lambda_y on these two: draws that swap x^2 and y^2 show
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="x"),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"),
        RawChannel(state=apply_gate(unitary, 0, MSChannel(c=0.8, d=0.6).state)),
    ]
    for n in (1, 3, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3):
        # the doubles at positions [0, 2n + 20) of the stream, and 2n + 20
        # from just short of 2^32 on, where a skip that is cut to 32 bits
        # lands at the start of the stream
        for base in (0, 2**32 - 5):
            stream = np.concatenate(stream_draws(5, 1, n + 10, base))
            for skip in (*range(10), *range(n, n + 10)):
                rng = analysis._rng(5, 1, base + skip)
                chunks = analysis._uniform_chunks(rng, n, np.empty(SMALL_CHUNK))
                streamed = [u.copy() for _, u in chunks]
                assert max(len(chunk) for chunk in streamed) <= SMALL_CHUNK
                want = stream[skip:skip + n]
                assert np.array_equal(np.concatenate(streamed), want), (n, base + skip)
        for spec in specs:
            for family in (None, *FAMILY_NAMES):
                mean, stderr = mc_average(spec, family, n)
                want_mean, want_stderr = monte_carlo_one_shot(spec, family, n, 5, 1)
                assert abs(mean - want_mean) <= 1e-15
                assert abs(stderr - want_stderr) <= 1e-15


def test_sin_squared_matches_a_long_double_sine():
    # sin^2(pi v/2) from the polynomial in v^2, against the sine in long
    # double, on fresh draws and where the square is 0, 1/2 or 1
    pi = 4.0 * np.arctan(np.longdouble(1.0))
    edges = np.array([0.0, 2.0**-53, 1 / 4, 1 / 2, 3 / 4, 1 - 2.0**-53, 1.0])
    for v in (np.random.default_rng(137).random(10**5), edges):
        got = analysis._sin_squared(v.copy(), np.empty_like(v))
        want = np.sin(pi * v.astype(np.longdouble) / 2.0) ** 2
        assert np.max(np.abs(got - want)) <= 5e-16
        assert np.all((got >= 0.0) & (got <= 1.0))


def test_circle_draws_are_the_bloch_vectors_of_the_family_members():
    # Monte Carlo puts (cos^2 a, sin^2 a) at a = pi u/2 on a circle's two
    # Bloch axes without building amplitudes; the squared Pauli coordinates
    # of the members are the oracle
    u = np.linspace(0.0, 1.0, 97)
    for family in FAMILY_NAMES:
        _, *want = _pauli_coords(*INPUT_FAMILIES[family].amplitudes(np.pi / 2.0 * u))
        got = analysis._circle_squares(family, u.copy(), np.empty_like(u))
        for axis in range(3):
            square = np.zeros_like(u) if got[axis] is None else got[axis]
            assert np.max(np.abs(square - want[axis] ** 2)) <= 1e-15, (family, axis)


# Seeded Monte Carlo results, pinned bit for bit: seed 5, row 1; n = 1, a
# chunk's last draw, the next chunk's first, and 10^6.  A change to the
# stream, the chunking or the fold that moves any of them must say so and
# bump the version.
PINNED_AVERAGES = {
    ("ms", None, 1): ("0x1.fb9f6810e2b33p-1", "0x0.0p+0"),
    ("ms", None, 32_768): ("0x1.dde28525a353ep-1", "0x1.5a3002f2767f7p-13"),
    ("ms", None, 32_769): ("0x1.dde2640176cbbp-1", "0x1.5a2ee4b21f016p-13"),
    ("ms", None, 1_000_000): ("0x1.dde09725e8e48p-1", "0x1.f459ede2ff865p-16"),
    ("ms", "xz", 1): ("0x1.cd0a785058276p-1", "0x0.0p+0"),
    ("ms", "xz", 32_768): ("0x1.e6673f8fb14ebp-1", "0x1.9a82e450d69b7p-13"),
    ("ms", "xz", 32_769): ("0x1.e667703d355b6p-1", "0x1.9a829226da7a4p-13"),
    ("ms", "xz", 1_000_000): ("0x1.e663cb1bd5900p-1", "0x1.28b96274f3e21p-15"),
    ("ms", "xy", 1): ("0x1.ccccccccccccdp-1", "0x0.0p+0"),
    ("ms", "xy", 32_768): ("0x1.ccccccccccccfp-1", "0x1.80746f42006e6p-60"),
    ("ms", "xy", 32_769): ("0x1.ccccccccccccfp-1", "0x1.8072c346d7271p-60"),
    ("ms", "xy", 1_000_000): ("0x1.ccccccccccccfp-1", "0x1.162e45b7381eap-62"),
    ("ms", "yz", 1): ("0x1.cd0a785058276p-1", "0x0.0p+0"),
    ("ms", "yz", 32_768): ("0x1.e6673f8fb14ebp-1", "0x1.9a82e450d69b7p-13"),
    ("ms", "yz", 32_769): ("0x1.e667703d355b6p-1", "0x1.9a829226da7a4p-13"),
    ("ms", "yz", 1_000_000): ("0x1.e663cb1bd5900p-1", "0x1.28b96274f3e21p-15"),
    ("theta", None, 1): ("0x1.66911342b1d83p-1", "0x0.0p+0"),
    ("theta", None, 32_768): ("0x1.99635810157d8p-1", "0x1.02998e708dfa0p-11"),
    ("theta", None, 32_769): ("0x1.9979c7241caa8p-1", "0x1.03b749674f12ap-11"),
    ("theta", None, 1_000_000): ("0x1.999103255cca2p-1", "0x1.771e32b6d235fp-14"),
    ("theta", "xz", 1): ("0x1.ff46fd755df06p-1", "0x0.0p+0"),
    ("theta", "xz", 32_768): ("0x1.b330a7b7527a6p-1", "0x1.33e22b3ca0f49p-11"),
    ("theta", "xz", 32_769): ("0x1.b33015aec6546p-1", "0x1.33e1ed9d23dbap-11"),
    ("theta", "xz", 1_000_000): ("0x1.b33b0512e5b68p-1", "0x1.bd1613af6dd30p-14"),
    ("theta", "xy", 1): ("0x1.671f68f108762p-1", "0x0.0p+0"),
    ("theta", "xy", 32_768): ("0x1.b335beaf13ec1p-1", "0x1.33e22b3ca0f49p-11"),
    ("theta", "xy", 32_769): ("0x1.b33650b7a0121p-1", "0x1.33e1ed9d23dbap-11"),
    ("theta", "xy", 1_000_000): ("0x1.b32b615380afep-1", "0x1.bd1613af6dd30p-14"),
    ("theta", "yz", 1): ("0x1.6666666666668p-1", "0x0.0p+0"),
    ("theta", "yz", 32_768): ("0x1.6666666666666p-1", "0x1.8d5b77923022bp-61"),
    ("theta", "yz", 32_769): ("0x1.6666666666666p-1", "0x1.8d5d843b6bc08p-61"),
    ("theta", "yz", 1_000_000): ("0x1.6666666666666p-1", "0x1.1f270d045d81ep-63"),
}


def test_monte_carlo_pins_the_seeded_stream():
    assert analysis._CHUNK_DRAWS == 32_768  # the edge the sizes straddle
    specs = {
        "ms": MSChannel(c=0.6, d=-0.8),
        "theta": ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="x"),
    }
    got = {
        (name, family, n): tuple(v.hex() for v in mc_average(specs[name], family, n))
        for name, family, n in PINNED_AVERAGES
    }
    assert got == PINNED_AVERAGES


def test_monte_carlo_values_are_ncf_batch_at_the_one_shot_inputs(monkeypatch):
    # each value of the stream, not only the mean, is the NCF at the input
    # the one-shot draw builds amplitudes for
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", SMALL_CHUNK)
    unitary = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    specs = [
        MSChannel(c=0.6, d=-0.8),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"),
        # lambda_x != lambda_y on these two: draws that swap x^2 and y^2 show
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="x"),
        ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="y"),
        RawChannel(state=apply_gate(unitary, 0, MSChannel(c=0.8, d=0.6).state)),
    ]
    for n in (1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3):
        for family in (None, *FAMILY_NAMES):
            k0, k1 = one_shot_inputs(family, n, 5, 1)
            for spec in specs:
                chunks = ncf_values(spec, family, n)
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
    # oracle's moments of the full transfer matrix.  The small-c MS channels
    # have nearly equal lambdas, where the sphere's form once cancelled to
    # a negative variance (-1.97e-17 at c = 1.49e-8)
    rng = np.random.default_rng(131)
    named = [MSChannel(c=math.sqrt(1.0 - d * d), d=d) for d in (-0.8, -0.3, 0.0, 0.6, 1.0)]
    named += [
        ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1.0 - a2), k=k)
        for a2 in (0.1, 0.5, 0.8) for k in "xyz"
    ]
    named += [MSChannel(c=c, d=math.sqrt(1.0 - c * c)) for c in (1.4917934138154303e-08, 1e-4)]
    raw = [
        RawChannel(state=apply_gate(random_local_unitary(rng), 0, spec.state))
        for spec in named
    ]
    for spec in named + raw:
        for family in (None, *FAMILY_NAMES):
            got = analysis._ncf_variance(spec, family)
            assert got >= 0.0, (spec, family)
            assert abs(got - ncf_variance(spec, family)) <= 1e-15, (spec, family)


def test_monte_carlo_memory_does_not_grow_with_n_samples(monkeypatch):
    # on this machine's CPUs, and on 6, past _MAX_WORKERS, so the bound is
    # checked with every thread's buffers on any machine
    spec = MSChannel(c=0.6, d=-0.8)
    for cpus in (analysis._usable_cpus(), 6):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
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
            assert max(peaks) < 4 * 2**20, (cpus, family, peaks)
            assert abs(peaks[1] - peaks[0]) < 2**18, (cpus, family, peaks)


def test_monte_carlo_moment_merge_edge_cases(monkeypatch):
    spec = MSChannel(c=0.6, d=-0.8)
    assert mc_average(spec, None, 1).stderr == 0.0
    # two one-value chunks merge to numpy's sample standard deviation
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", 1)
    values = np.concatenate(ncf_values(spec, None, 2))
    mean, stderr = mc_average(spec, None, 2)
    assert mean == pytest.approx(values.mean(), abs=1e-15)
    assert stderr == pytest.approx(values.std(ddof=1) / math.sqrt(2.0), abs=1e-15)
    # a flat matched circle, with the last chunk ending exactly at n
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", SMALL_CHUNK)
    matched = ThetaChannel(a=math.sqrt(0.7), b=math.sqrt(0.3), k="y")
    mean, stderr = mc_average(matched, "xz", 3 * SMALL_CHUNK)
    assert abs(mean - 0.7) < 1e-12
    assert math.isfinite(stderr) and stderr <= 1e-15


def test_monte_carlo_checks_the_normalization_of_its_draws(monkeypatch):
    def nan_draws(rng, n, out=None):
        yield 0, np.full(n, np.nan)

    monkeypatch.setattr(analysis, "_uniform_chunks", nan_draws)
    spec = MSChannel(c=0.6, d=0.8)
    # the sphere and every circle check the |r|^2 of the Bloch vectors they draw
    for family in (None, *FAMILY_NAMES):
        with pytest.raises(NormalizationError, match=r"\|r\|\^2 = nan at index 0"):
            mc_average(spec, family, 5)


def test_monte_carlo_sphere_checks_draws_outside_the_unit_interval(monkeypatch):
    # u = 5 gives cos(theta) = 5: squares that still sum to 1, but
    # sin^2(theta) = -24 among them, so |r|^2 = 24 + 25
    def outside_draws(rng, n, out=None):
        yield 0, np.full(n, 5.0)

    monkeypatch.setattr(analysis, "_uniform_chunks", outside_draws)
    with pytest.raises(NormalizationError, match=r"\|r\|\^2 = 49.0 at index 0"):
        mc_average(MSChannel(c=0.6, d=0.8), None, 5)


# Monte Carlo cuts its chunks into one run per CPU; small chunks put many
# chunk and run edges inside a short stream, and the sizes below step by
# two of them
SMALL_BLOCK = 2 * SMALL_CHUNK

# the sphere, and a circle the theta channel is not matched to
CPU_CASES = (
    (MSChannel(c=0.6, d=-0.8), None),
    (ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="z"), "xz"),
)


def test_monte_carlo_does_not_depend_on_the_cpu_count(monkeypatch):
    # more threads than cores, switching often: a table row lost or written
    # by the wrong run changes the bits
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", SMALL_CHUNK)
    edges = range(SMALL_CHUNK, 9 * SMALL_BLOCK + 1, SMALL_CHUNK)
    sizes = sorted({1, *(e + d for e in edges for d in (-1, 0, 1))})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for spec, family in CPU_CASES:
            for n in sizes:
                monkeypatch.setattr(analysis, "_usable_cpus", lambda: 1)
                serial = mc_average(spec, family, n)
                want_mean, want_stderr = monte_carlo_one_shot(spec, family, n, 5, 1)
                assert abs(serial.mean - want_mean) <= 1e-15
                assert abs(serial.stderr - want_stderr) <= 1e-15
                for cpus in (2, 3, 6):
                    monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
                    assert mc_average(spec, family, n) == serial, (family, n, cpus)
    finally:
        sys.setswitchinterval(interval)


def poison_draws(monkeypatch, values):
    """Replace by NaN every Monte Carlo draw equal to one of ``values``,
    whichever run and thread draws it."""
    real = analysis._uniform_chunks

    def poisoned(rng, n, out=None):
        for start, u in real(rng, n, out):
            u[np.isin(u, values)] = np.nan
            yield start, u

    monkeypatch.setattr(analysis, "_uniform_chunks", poisoned)


def test_monte_carlo_errors_name_the_global_draw_and_leave_no_threads(monkeypatch):
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", SMALL_CHUNK)
    n = 6 * SMALL_BLOCK
    first, _ = stream_draws(5, 1, n)
    # on two and three CPUs index 24 lies in the caller's run, at 3 in its
    # chunk, and index 45 in the next run, which must not stop the caller's
    assert all(24 < n // cpus <= 45 < 2 * n // cpus for cpus in (2, 3))
    threads = threading.active_count()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        for spec, family in CPU_CASES:
            for bad, named in (([24], 24), ([45], 45), ([24, 45], 24)):
                with monkeypatch.context() as m:
                    poison_draws(m, first[bad])
                    with pytest.raises(NormalizationError, match=rf"= nan at index {named}, "):
                        mc_average(spec, family, n)
                assert threading.active_count() == threads
            mc_average(spec, family, n)
            assert threading.active_count() == threads


def test_monte_carlo_failure_in_the_caller_stops_every_other_run(monkeypatch):
    # the caller's first chunk fails while every other run waits in its own
    # first chunk; each of them stops at its next chunk instead of computing
    # the rest of its run, and is joined before the error is raised
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", SMALL_CHUNK)
    n = 200 * SMALL_CHUNK
    first, _ = stream_draws(5, 1, 1)
    caller, threads = threading.get_ident(), threading.active_count()
    real_moments, real_check = analysis._chunk_moments, analysis._check_unit
    for cpus in (2, 3):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: cpus)
        for spec, family in CPU_CASES:
            for error in (NormalizationError, KeyboardInterrupt):
                failed, counts = threading.Event(), {}

                def moments(vals):
                    ident = threading.get_ident()
                    if ident == caller:  # reached in KeyboardInterrupt's case only
                        failed.set()
                        raise KeyboardInterrupt
                    failed.wait(10.0)
                    counts[ident] = counts.get(ident, 0) + 1
                    return real_moments(vals)

                def check(*args):
                    try:
                        real_check(*args)
                    except NormalizationError:
                        failed.set()
                        raise

                with monkeypatch.context() as m:
                    m.setattr(analysis, "_chunk_moments", moments)
                    if error is NormalizationError:
                        poison_draws(m, first)
                        m.setattr(analysis, "_check_unit", check)
                    with pytest.raises(error):
                        mc_average(spec, family, n)
                assert sorted(counts.values()) == [1] * (cpus - 1), (cpus, family, error)
                assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# power reports and sweeps

def test_power_report_fields(monkeypatch):
    spec = MSChannel(c=1.0, d=0.0)
    (rep,) = sweep([spec])
    assert rep.channel is spec
    assert abs(rep.f_bar - 2.0 / 3.0) < 1e-12
    assert abs(rep.c_bar - (1.0 - rep.f_bar)) < 1e-12
    assert rep.meets_classical_bound
    assert rep.meets_tangle_bound  # GHZ point: tau = 1
    for v in (rep.f_bar, rep.c_bar, rep.tau):
        assert 0.0 <= v <= 1.0
    # the classical bound includes its tolerance's edge: 1 - (1 - edge) is
    # edge to the bit; so does the tangle bound
    edge = CLASSICAL_POWER - 1e-9
    for f_bar, meets in ((1.0 - edge, True), (1.0 - math.nextafter(edge, 0.0), False)):
        monkeypatch.setattr(analysis, "_average", lambda *args: analysis.AverageResult(f_bar, 0.0))
        (rep,) = sweep([spec])
        assert rep.f_bar == f_bar
        assert (rep.c_bar == edge) is meets
        assert rep.meets_classical_bound is meets
    # and the sweep's tangle bound is three_tangle's, edge included
    for tau, meets in ((_TANGLE_CUTOFF, True), (math.nextafter(_TANGLE_CUTOFF, 0.0), False)):
        for module in (analysis, channels):
            monkeypatch.setattr(module, "_tangles", lambda amps: np.array([tau]))
        (rep,) = sweep([spec])
        assert rep.tau == tau and rep.meets_tangle_bound is meets
        assert three_tangle(spec.state) == (tau, meets)


def test_sweep_reads_every_point_off_one_stack_bit_for_bit():
    # MS from c = 0 up to GHZ with d of either sign, theta on every axis with
    # b of either sign, and raw Gaussian, W and controller-rotated channels:
    # each row's f_bar and tau are the spec's own average and 3-tangle
    specs = stack_specs(np.random.default_rng(173), gaussians=200)
    reports = sweep(specs)
    assert [rep.channel for rep in reports] == specs
    for rep, spec in zip(reports, specs):
        assert rep.f_bar == avg_fidelity_numeric(spec, spec.matched_family).mean, spec
        assert rep.tau == three_tangle(spec.state).tau, spec
        assert type(rep.f_bar) is float and type(rep.tau) is float
    # Monte Carlo rows are the spec's own average on the row's stream
    mixed = [specs[0], specs[-1], ThetaChannel(0.6, -0.8, "z")]
    for row, (rep, spec) in enumerate(zip(sweep(mixed, "monte_carlo", seed=5), mixed)):
        want = avg_fidelity_numeric(spec, spec.matched_family, "monte_carlo", seed=5, row=row)
        assert rep.f_bar == want.mean


@pytest.mark.parametrize("n", [0, 1, 37])
def test_one_sweep_builds_one_bell_table_and_one_tangle_stack(monkeypatch, n):
    # whatever the number of channels: one Bell table, one stack of maps and
    # one of 3-tangles, and no per-spec map or 3-tangle
    calls = {}

    def spy(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, call)

    for name in ("_bell_table", "_lambdas", "_tangles"):
        spy(analysis, name)
    spy(protocol, "_bell_map")
    spy(channels, "three_tangle")
    specs = stack_specs(np.random.default_rng(179))[:n]
    assert len(sweep(specs)) == n
    assert calls == {"_bell_table": 1, "_lambdas": 1, "_tangles": 1}


def test_sweep_ms_d_grid_reference_values():
    ds = (0.0, 0.25, 0.5, 0.75, 1.0)
    specs = [MSChannel(c=math.sqrt(1 - d * d), d=d) for d in ds]
    reports = sweep(specs)
    want = (2.0 / 3.0, 0.75, 5.0 / 6.0, 11.0 / 12.0, 1.0)
    for rep, f in zip(reports, want):
        assert abs(rep.f_bar - f) < 1e-12


def test_sweep_theta_a2_grid_reference_values():
    grid = (1.0 / 3.0, 0.5, 2.0 / 3.0)
    specs = [
        ThetaChannel(a=math.sqrt(a2), b=math.sqrt(1 - a2), k="z") for a2 in grid
    ]
    reports = sweep(specs)
    for rep, c, tau in zip(reports, (1 / 3, 0.5, 1 / 3), (8 / 9, 1.0, 8 / 9)):
        assert abs(rep.c_bar - c) < 1e-9
        assert abs(rep.tau - tau) < 1e-9
        assert rep.meets_classical_bound and rep.meets_tangle_bound


def test_sweep_defaults_to_the_exact_average():
    specs = [GHZChannel(), MSChannel(c=0.6, d=0.8),
             ThetaChannel(a=math.sqrt(0.3), b=math.sqrt(0.7), k="x")]
    default = sweep(specs)
    assert [r.f_bar for r in sweep(specs, method="exact")] == [r.f_bar for r in default]
    for rep, spec, family in zip(default, specs, (None, None, "yz")):
        want = avg_fidelity_numeric(spec, family)
        assert rep.f_bar == want.mean  # one exact average, bit for bit
    # the exact average's names before 0.14.0 are CLI spellings only
    for old in ("quadrature", "analytic"):
        with pytest.raises(ValueError, match=f"unknown method '{old}'"):
            sweep(specs, method=old)
        with pytest.raises(ValueError, match=f"unknown method '{old}'"):
            avg_fidelity_numeric(specs[0], method=old)


def test_analytic_sweep_reads_the_receiver_map():
    # sphere: 1/2 + sum(lambda)/6 = 2/3 + |d|/3; matched circle: max(a^2, b^2)
    for d in (-0.8, -0.3, 0.0, 0.5, 1.0):
        (rep,) = sweep([MSChannel(c=math.sqrt(1 - d * d), d=d)])
        assert abs(rep.f_bar - (2.0 / 3.0 + abs(d) / 3.0)) < 1e-12
    for a, b in ((0.6, 0.8), (0.8, -0.6), (math.sqrt(0.5), math.sqrt(0.5))):
        for k in ("x", "y", "z"):
            (rep,) = sweep([ThetaChannel(a, b, k)])
            assert abs(rep.f_bar - max(a * a, b * b)) < 1e-12
    # raw channels have an analytic average too; the walk over the
    # tetrahedron agrees
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    raw = RawChannel(state=apply_gate(u, 0, MSChannel(c=0.6, d=-0.8).state))
    (rep,) = sweep([raw])
    assert abs(rep.f_bar - np.mean(walk_ncf(raw, *design(None)))) < 1e-12
    # controller and receiver share a Bell pair, the sender is |0>: the
    # sender's outcome weights depend on the input, and summed over the
    # outcomes the receiver holds I/2 for every input, so every method gives
    # 1/2 and Monte Carlo's draws all equal it
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b101]] = 1.0 / math.sqrt(2.0)
    degenerate = RawChannel(state=PureState(amps))
    rho, _ = walk_unconditioned(degenerate, ArbitraryInput(1.0, 0.5))
    assert np.max(np.abs(rho - np.eye(2) / 2.0)) < 1e-12
    result = unconditioned_teleport(degenerate, ArbitraryInput(1.0, 0.5))
    assert np.max(np.abs(result.rho3.mat - rho)) < 1e-12
    assert not result.per_outcome_equal
    for method in ("exact", "monte_carlo"):
        avg = avg_fidelity_numeric(degenerate, method=method, n_samples=100)
        assert avg == (0.5, 0.0)
    (rep,) = sweep([degenerate])
    assert rep.f_bar == 0.5


def test_ms_average_monotone_in_abs_d():
    ds = np.linspace(0.0, 1.0, 21)
    f = [avg_fidelity_ms_analytic(d) for d in ds]
    assert all(b > a for a, b in zip(f, f[1:]))  # strictly increasing
    c = [control_power(v) for v in f]
    assert all(b < a for a, b in zip(c, c[1:]))  # strictly decreasing


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


def test_mismatch_report_structure_and_claim_flag(monkeypatch):
    report = mismatch_report(math.sqrt(0.5), math.sqrt(0.5))
    assert len(report.rows) == 9
    assert sum(r.matched for r in report.rows) == 3
    for row in report.rows:
        assert 0.0 <= row.avg_ncf <= 1.0
        assert 0.0 <= row.avg_power <= 1.0
        if row.matched:
            assert abs(row.avg_power - 0.5) < 1e-9
    # the flag records the exact outcome; with the circle measure the
    # best mismatched power is 1/4, not the claimed 1/3
    assert abs(report.max_mismatched_power - 0.25) < 1e-9
    assert report.claim_power == pytest.approx(1.0 / 3.0)
    assert report.claim_agrees is False
    # the rows come off the receiver map; the walk over each circle's
    # design is the cross-check
    for a2 in (0.5, 0.3):
        a, b = math.sqrt(a2), math.sqrt(1.0 - a2)
        for row in mismatch_report(a, b).rows:
            spec = ThetaChannel(a, b, MATCHED_AXIS[row.channel_family])
            walked = np.mean(walk_ncf(spec, *design(row.input_family)))
            assert abs(row.avg_ncf - walked) <= 1e-12
    # the best mismatched power is (1 - |a^2 - b^2|)/4, never near 1/3, so
    # only a tolerance the size of the gap shows the flag is computed, and
    # that it includes its edge
    a, b = math.sqrt(0.7), math.sqrt(0.3)
    gap = abs(mismatch_report(a, b).max_mismatched_power - CLASSICAL_POWER)
    monkeypatch.setattr(analysis, "_CLAIM_ATOL", gap)
    assert mismatch_report(a, b).claim_agrees is True
    monkeypatch.setattr(analysis, "_CLAIM_ATOL", math.nextafter(gap, 0.0))
    assert mismatch_report(a, b).claim_agrees is False


def test_mismatch_dominance_on_a_dominant_grid():
    for a2 in np.linspace(0.5, 1.0, 6):
        report = mismatch_report(math.sqrt(a2), math.sqrt(1 - a2))
        matched = {r.channel_family: r.avg_ncf for r in report.rows if r.matched}
        for row in report.rows:
            if not row.matched:
                assert row.avg_ncf >= matched[row.channel_family] - 1e-12
