"""Property tests of the receiver's Bloch map over random channels.

Channels are named MS/GHZ/theta states and the same states with a random
unitary on the controller qubit, which must leave the receiver's map
unchanged.  For each, the map must be a valid qubit channel on the unit
sphere, and the NCF it gives must equal the branch walk of
unconditioned_teleport.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctpower.channels import (
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    realize,
)
from ctpower.protocol import ncf_batch, receiver_map, unconditioned_teleport
from ctpower.qcore import apply_gate, make_qubit

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
def channels(draw):
    spec = draw(named_channels())
    if not draw(st.booleans()):
        return spec
    # e^{i g} Rz(x) Ry(y) Rz(z): any single-qubit unitary
    g, x, y, z = (draw(angles) for _ in range(4))
    ry = np.array([[math.cos(y / 2), -math.sin(y / 2)], [math.sin(y / 2), math.cos(y / 2)]])
    unitary = np.exp(1j * g) * _rz(x) @ ry @ _rz(z)
    return RawChannel(state=apply_gate(unitary, 0, realize(spec)))


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
    for i in range(len(points)):
        walk = unconditioned_teleport(spec, make_qubit(k0[i], k1[i])).ncf
        assert abs(batch[i] - walk) < 1e-12
