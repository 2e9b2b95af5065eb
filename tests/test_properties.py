"""Property tests of the protocols over random channels.

Channels are named MS/GHZ/theta states and the same states with a random
unitary on the controller qubit, which must leave the receiver's map
unchanged.  For each, the map must be a valid qubit channel on the unit
sphere, and the NCF it gives must equal the branch walk of
unconditioned_teleport, pointwise and averaged over the sphere and the
three circles.  With the controller's help teleportation must be
perfect, also for a raw copy rotated so that its computational controller
basis is the named one.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpower.analysis import FAMILY_NAMES, _analytic_average, avg_fidelity_numeric
from ctpower.channels import (
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
)
from ctpower.protocol import (
    _walk,
    controlled_teleport,
    ncf_batch,
    receiver_map,
)
from ctpower.qcore import make_qubit
from oracles import apply_gate

angles = st.floats(0.0, 2.0 * math.pi)


def _rz(w):
    return np.diag([np.exp(-0.5j * w), np.exp(0.5j * w)])


@st.composite
def named_channels(draw):
    kind = draw(st.sampled_from(("ghz", "ms", "theta")))
    if kind == "ghz":
        return GHZChannel()
    alpha = draw(angles)
    if kind == "ms":
        return MSChannel(c=math.cos(alpha), d=math.sin(alpha))
    return ThetaChannel(
        a=math.cos(alpha), b=math.sin(alpha), k=draw(st.sampled_from("xyz"))
    )


@st.composite
def unitaries(draw):
    # e^{i g} Rz(x) Ry(y) Rz(z): any single-qubit unitary
    g, x, y, z = (draw(angles) for _ in range(4))
    ry = np.array([[math.cos(y / 2), -math.sin(y / 2)], [math.sin(y / 2), math.cos(y / 2)]])
    return np.exp(1j * g) * _rz(x) @ ry @ _rz(z)


@st.composite
def channels(draw):
    spec = draw(named_channels())
    if not draw(st.booleans()):
        return spec
    return RawChannel(state=apply_gate(draw(unitaries()), 0, spec.state))


bloch_points = st.lists(
    st.tuples(st.floats(0.0, math.pi), angles), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=channels(), points=bloch_points)
def test_receiver_map_is_a_qubit_channel_and_matches_the_branch_walk(spec, points):
    t, T = receiver_map(spec)
    assert np.all(np.abs(T) <= 1.0 + 1e-12)
    theta = np.array([p[0] for p in points])
    phi = np.array([p[1] for p in points])
    r = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
    )
    assert np.all(np.linalg.norm(t + r @ T.T, axis=1) <= 1.0 + 1e-12)
    from_map = 0.5 + 0.5 * r @ t + 0.5 * np.einsum("ni,ij,nj->n", r, T, r)
    assert np.all((-1e-12 <= from_map) & (from_map <= 1.0 + 1e-12))
    k0 = np.cos(theta / 2.0)
    k1 = np.exp(1j * phi) * np.sin(theta / 2.0)
    batch = ncf_batch(spec, k0, k1)
    assert np.max(np.abs(batch - from_map)) < 1e-12
    assert np.max(np.abs(batch - _walk(spec, k0, k1).ncf)) < 1e-12
    # quadrature averages the walk over exact designs; the map must agree
    for family in (None,) + FAMILY_NAMES:
        domain = "sphere" if family is None else "family"
        quad = avg_fidelity_numeric(spec, domain, method="quadrature", family=family).mean
        assert abs(quad - _analytic_average(spec, family)) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    spec=named_channels(),
    phases=st.none() | st.tuples(angles, angles),
    point=st.tuples(st.floats(0.0, math.pi), angles),
)
def test_controlled_teleport_is_perfect(spec, phases, point):
    phi = make_qubit(math.cos(point[0] / 2), np.exp(1j * point[1]) * math.sin(point[0] / 2))
    if phases is None:
        run = controlled_teleport(spec, phi)
    else:
        # D B^dagger on the controller, B holding the named basis vectors as
        # columns: the raw copy's |0>, |1> outcomes are the named ones
        basis = np.column_stack([cvec.amps for _, cvec, _ in spec.controller_measurement])
        rotation = np.diag(np.exp(1j * np.array(phases))) @ basis.conj().T
        run = controlled_teleport(RawChannel(state=apply_gate(rotation, 0, spec.state)), phi)
    assert run.min_fidelity >= 1.0 - 1e-12
    assert abs(run.total_probability - 1.0) <= 1e-12
