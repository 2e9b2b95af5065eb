"""Property tests of the protocols over random channels.

Channels are named MS/GHZ/theta states, the same states with a random
unitary on the controller qubit, which must leave the receiver's map
unchanged, and generic raw states, whose sender outcomes leave different
states.  For each, the map must be a completely positive Pauli channel,
and the NCF it gives must equal the step-by-step branch walk of
``oracles.py``, summed over the sender's outcomes, pointwise, and the
walk's mean over exact designs for the sphere and the three circles.
With the controller's help teleportation must be perfect, also for a raw
copy with any unitary on its controller, whose basis the controller rule
must find, while the W state, rotated or not, keeps its defect of 1.
The command line must end in an exit code, never a traceback, whatever
flags and values it is given, and the same fuzzing must reach the exit
code of a failed check.
"""
import argparse
import contextlib
import io
import math
import os
import tempfile

import numpy as np
from hypothesis import find, given, settings
from hypothesis import strategies as st

from ctpower.analysis import FAMILY_NAMES, avg_fidelity_numeric
from ctpower.channels import (
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    channel_to_config,
)
from ctpower.cli import build_parser, main
from ctpower.protocol import (
    _ct_certificate,
    controlled_teleport,
    ncf_batch,
    receiver_map,
)
from ctpower.qcore import PureState, make_qubit
from ctpower.verify import check_channel_ct
from oracles import apply_gate, design, random_local_unitary, walk_ncf

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
def generic_channels(draw):
    # eight complex amplitudes with Gaussian parts, normalized
    v = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(2, 8))
    return RawChannel(state=PureState((v[0] + 1j * v[1]) / np.linalg.norm(v)))


@st.composite
def channels(draw):
    kind = draw(st.sampled_from(("named", "rotated", "generic")))
    if kind == "generic":
        return draw(generic_channels())
    spec = draw(named_channels())
    if kind == "named":
        return spec
    return RawChannel(state=apply_gate(draw(unitaries()), 0, spec.state))


bloch_points = st.lists(
    st.tuples(st.floats(0.0, math.pi), angles), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=channels(), points=bloch_points)
def test_receiver_map_is_a_qubit_channel_and_matches_the_branch_walk(spec, points):
    lam = receiver_map(spec)
    # the Pauli channel r -> lambda * r is completely positive exactly when
    # (1, lambda) lies in the tetrahedron |l1 +- l2| <= 1 +- l3
    assert abs(lam[0] + lam[1]) <= 1.0 + lam[2] + 1e-12
    assert abs(lam[0] - lam[1]) <= 1.0 - lam[2] + 1e-12
    theta = np.array([p[0] for p in points])
    phi = np.array([p[1] for p in points])
    r = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1
    )
    from_map = 0.5 + 0.5 * (r * r) @ lam
    assert np.all((-1e-12 <= from_map) & (from_map <= 1.0 + 1e-12))
    k0 = np.cos(theta / 2.0)
    k1 = np.exp(1j * phi) * np.sin(theta / 2.0)
    batch = ncf_batch(spec, k0, k1)
    assert np.max(np.abs(batch - from_map)) < 1e-12
    assert np.max(np.abs(batch - walk_ncf(spec, k0, k1))) < 1e-12
    # the exact method is the exact average: the walk's mean over an exact design
    for family in (None,) + FAMILY_NAMES:
        domain = "sphere" if family is None else "family"
        exact = avg_fidelity_numeric(spec, domain, method="exact", family=family).mean
        assert abs(exact - np.mean(walk_ncf(spec, *design(family)))) < 1e-12


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


_W_STATE = PureState(np.eye(8)[[0b001, 0b010, 0b100]].sum(axis=0) / np.sqrt(3.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    spec=named_channels(),
    seed=st.integers(0, 2**32 - 1),
    point=st.tuples(st.floats(0.0, math.pi), angles),
)
def test_the_controller_rule_finds_a_rotated_basis(spec, seed, point):
    # a Haar unitary on the controller of a named channel, held as a raw
    # channel: the rule reads the rotated basis off its Bell table, so the
    # channel certifies and every branch returns the input.  The W state
    # has no perfect basis, and under the same unitary its defect stays 1
    u = random_local_unitary(np.random.default_rng(seed))
    raw = RawChannel(state=apply_gate(u, 0, spec.state))
    assert check_channel_ct(raw).passed
    phi = make_qubit(math.cos(point[0] / 2), np.exp(1j * point[1]) * math.sin(point[0] / 2))
    run = controlled_teleport(raw, phi)
    assert run.min_fidelity >= 1.0 - 1e-12
    assert abs(run.total_probability - 1.0) <= 1e-12
    w_states = np.array([_W_STATE.amps, apply_gate(u, 0, _W_STATE).amps])
    assert np.max(np.abs(_ct_certificate(w_states).defect - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# the command line never ends in a traceback

(_SUBCOMMANDS,) = (
    a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)

# raw channel configs the command line reads: a rotated MS channel, whose
# sender outcomes leave one map; |000>, whose outcomes leave different maps;
# and the W state, which the controller cannot make perfect
_CONFIGS = {
    "valid.cfg": RawChannel(state=apply_gate(np.array([[0.6, 0.8j], [0.8j, 0.6]]), 0,
                                             MSChannel(c=0.6, d=-0.8).state)),
    "product.cfg": RawChannel(state=PureState(np.eye(8)[0])),
    "w.cfg": RawChannel(state=PureState(np.eye(8)[[1, 2, 4]].sum(axis=0) / np.sqrt(3.0))),
}

_VALUES = st.sampled_from(
    ("nan", "inf", "-0.0", "1e309", "-1", "0", "2", "", "x", "0:1:0", "1:0:0.1")
    + tuple(_CONFIGS)
)


def _value(command, action):
    if action.choices is None:
        return _VALUES
    choices = list(action.choices)
    if command == "power-sweep" and action.dest == "method":
        choices.remove("monte_carlo")  # 10^6 samples per grid point
    return st.sampled_from(choices)


@st.composite
def cli_argv(draw):
    """A subcommand and flags from the parser's own choices, with values
    from a fixed pool, and on commands that take a channel, at times
    ``--channel raw --config`` with one of the configs as one unit.
    ``avg`` ends with an ``--n-samples`` of at most 1000 when it draws
    ``--method monte_carlo``, and ``verify`` runs ``--quick`` unless it
    certifies one ``--channel``: both would otherwise draw 10^6 Monte Carlo
    samples."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    parser = _SUBCOMMANDS[command]
    argv = [command]
    argv += [draw(_value(command, a)) for a in parser._actions if not a.option_strings]
    flags = [a for a in parser._actions if a.option_strings]
    for action in draw(st.lists(st.sampled_from(flags), max_size=6)):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(_value(command, action)))
    if "--channel" in parser._option_string_actions and draw(st.booleans()):
        argv += ["--channel", "raw", "--config", draw(st.sampled_from(sorted(_CONFIGS)))]
    if command == "avg" and "monte_carlo" in argv:
        argv += ["--n-samples", draw(st.integers(1, 1000).map(str) | _VALUES)]
    if command == "verify" and "--channel" not in argv:
        argv.append("--quick")
    return argv


def _run(argv):
    """(exit code, stderr) of ``main(argv)`` in a fresh directory holding
    the configs."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # --output and --args-from touch only this directory
        try:
            for name, spec in _CONFIGS.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(channel_to_config(spec))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse exits on a usage error, and on -h
                    code = exc.code
        finally:
            os.chdir(home)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=cli_argv())
def test_cli_never_ends_in_a_traceback(argv):
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)


def test_cli_fuzz_reaches_exit_1():
    # the fuzzing above reaches a failed check, not only usage errors
    argv = find(
        cli_argv(), lambda argv: _run(argv)[0] == 1,
        settings=settings(max_examples=150, deadline=None, derandomize=True, database=None),
    )
    code, err = _run(argv)
    assert code == 1, (argv, err)
