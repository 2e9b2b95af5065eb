"""Seeded inputs and independent oracles for the ctpower benchmark.

Each workload is a fixed list of CLI commands (``Op``) built from the
benchmark seed.  The program sees only the argv and the raw-channel config
files written here.  Every ``Op`` carries a checker that compares the
command's output with a closed form derived in this file, never with
ctpower's own analytic helpers.

Closed forms used by the checkers.  Write r for the input's Bloch vector.

* MS channel with parameter d, receiver correction aimed at the dominant
  branch: NCF(r) = 1 - (1 - |d|) (1 - r_z^2) / 2.  Raw channels get the
  plain corrections and the same form with signed d.
* Theta channel a|0>Phi+ + b|1>(I x sigma_k)Phi+: NCF(r) = hi + lo r_k^2,
  with (hi, lo) = (max, min) of (a^2, b^2) for the named channel and
  (a^2, b^2) for a raw one.
* The mean of r_k^2 is 1/3 over the sphere, 1/2 over a great circle whose
  plane holds axis k, and 0 over the circle perpendicular to k.  The xz, xy
  and yz families are the great circles in those coordinate planes.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

N_MC = 1_000_000
FAMILIES = ("xz", "xy", "yz")
AXES = ("x", "y", "z")

MC_SIGMA = 4.0
MC_ABS_TOL = 2e-3
# A matched theta circle has a constant NCF, so its Monte Carlo stderr is
# rounding noise; this floor keeps the 4-stderr test meaningful there.
MC_FLOAT_FLOOR = 1e-12
QUAD_TOL = 1e-9
EXACT_TOL = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


@dataclass(frozen=True)
class Op:
    """One CLI command and the checker for its (exit code, stdout)."""

    label: str
    argv: list[str]
    check: Callable[[int, str], None]


# ---------------------------------------------------------------------------
# closed forms

def mean_axis_square(axis: str, family: str | None) -> float:
    """Mean of r_axis^2 over the sphere (family None) or a family circle."""
    if family is None:
        return 1.0 / 3.0
    return 0.5 if axis in family else 0.0


def perpendicular_axis(family: str) -> str:
    """The axis normal to a family's circle, i.e. the one its name lacks."""
    return next(a for a in AXES if a not in family)


def ms_average(d: float, family: str | None) -> float:
    return 1.0 - (1.0 - d) * (1.0 - mean_axis_square("z", family)) / 2.0


def theta_average(hi: float, lo: float, axis: str, family: str | None) -> float:
    return hi + lo * mean_axis_square(axis, family)


# ---------------------------------------------------------------------------
# channel states built without ctpower (qubit 0 is the controller)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)


def ms_amplitudes(d: float) -> np.ndarray:
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = 1.0
    amps[0b111] = math.sqrt(1.0 - d * d)
    amps[0b011] = d
    return amps / math.sqrt(2.0)


def theta_amplitudes(a2: float, axis: str) -> np.ndarray:
    rotated = np.kron(np.eye(2), _PAULI[axis]) @ _PHI_PLUS
    return np.concatenate([math.sqrt(a2) * _PHI_PLUS, math.sqrt(1.0 - a2) * rotated])


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def on_controller(unitary: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Apply a 2x2 unitary to qubit 0; the receiver's reduced state is unchanged."""
    return (unitary @ amps.reshape(2, 4)).reshape(-1)


def raw_config(amps: np.ndarray) -> str:
    return "family = raw\namps = " + " ".join(repr(complex(x)) for x in amps) + "\n"


# ---------------------------------------------------------------------------
# checkers

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got: float, want: float, tol: float) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{name} = {got!r}, expected {want!r} within {tol:g}",
    )


def _report(code: int, out: str) -> dict:
    _require(code == 0, f"exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def check_average(expected: float, monte_carlo: bool) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        s = _report(code, out)["scalars"]
        mean, stderr = float(s["mean"]), float(s["stderr"])
        if monte_carlo:
            _require(int(s["n_samples"]) == N_MC, f"n_samples = {s['n_samples']}")
            _close("mean", mean, expected, MC_SIGMA * stderr + MC_FLOAT_FLOOR)
            _close("mean", mean, expected, MC_ABS_TOL)
        else:
            _require(stderr == 0.0, f"quadrature stderr = {stderr!r}")
            _close("mean", mean, expected, QUAD_TOL)
        _close("control_power", float(s["control_power"]), 1.0 - mean, EXACT_TOL)
    return check


def _check_flag(name: str, got: object, value: float, threshold: float) -> None:
    # flags are only checked away from their threshold, where rounding decides
    if abs(value - threshold) > 1e-6:
        _require(got is (value >= threshold), f"{name} = {got!r} at {value!r}")


def _check_sweep(points: list[dict]) -> Callable[[int, str], None]:
    """``points`` holds, per grid value, the params and closed-form f_bar and tau."""
    def check(code: int, out: str) -> None:
        rep = _report(code, out)
        rows = rep["rows"]
        _require(len(rows) == len(points), f"{len(rows)} rows, expected {len(points)}")
        for row, want in zip(rows, points):
            _, params, f_bar, c_bar, tau, classical, tangle = row
            got = dict(kv.split("=", 1) for kv in params.split())
            for key, value in want["params"].items():
                if isinstance(value, str):
                    _require(got.get(key) == value, f"param {key} = {got.get(key)!r}")
                else:
                    _close(f"param {key}", float(got[key]), value, EXACT_TOL)
            _close("f_bar", f_bar, want["f_bar"], QUAD_TOL)
            _close("c_bar", c_bar, 1.0 - f_bar, EXACT_TOL)
            _close("tau", tau, want["tau"], QUAD_TOL)
            _check_flag("meets_classical_bound", classical, 1.0 - want["f_bar"], 1.0 / 3.0)
            _check_flag("meets_tangle_bound", tangle, want["tau"], 8.0 / 9.0)
    return check


def _check_mismatch(a2: float) -> Callable[[int, str], None]:
    hi, lo = max(a2, 1.0 - a2), min(a2, 1.0 - a2)

    def check(code: int, out: str) -> None:
        rep = _report(code, out)
        rows = rep["rows"]
        _require(len(rows) == 9, f"{len(rows)} rows, expected 9")
        matched = {}
        for chan, inp, is_matched, avg, power in rows:
            _require(is_matched is (chan == inp), f"matched flag wrong for {chan}/{inp}")
            axis = perpendicular_axis(chan)
            _close(f"avg_ncf {chan}/{inp}", avg, theta_average(hi, lo, axis, inp), QUAD_TOL)
            _close(f"avg_power {chan}/{inp}", power, 1.0 - avg, EXACT_TOL)
            if is_matched:
                matched[chan] = avg
        for chan, inp, is_matched, avg, _ in rows:
            if not is_matched:
                _require(avg >= matched[chan] - EXACT_TOL, f"{chan}/{inp} below matched")
        s = rep["scalars"]
        # lo/2 is at most 1/4 (reached at a = b), never the claimed 1/3
        _close("max_mismatched_power", s["max_mismatched_power"], lo / 2.0, QUAD_TOL)
        _require(s["claim_agrees"] is False, "claim_agrees is not false")
    return check


def _check_verify(code: int, out: str) -> None:
    _require(code == 0, f"exit code {code}")
    _require("mode: quick" in out, "report is not in quick mode")
    _require(out.rstrip().endswith("9/9 checks passed"), "not 9/9 checks passed")


# ---------------------------------------------------------------------------
# workloads

def _grid(start: float, step: float, count: int) -> tuple[str, list[float]]:
    """A ``start:stop:step`` flag value and the points the CLI expands it to."""
    values = [start + i * step for i in range(count)]
    return f"{start!r}:{values[-1]!r}:{step!r}", values


def _mc_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    # d < 0 and b^2 > a^2 take the flipped and the rotated corrections
    d = -float(rng.uniform(0.05, 0.95))
    a2 = float(rng.uniform(0.05, 0.45))
    axis = AXES[int(rng.integers(3))]
    family = next(f for f in FAMILIES if perpendicular_axis(f) == axis)
    common = ["--method", "monte_carlo", "--n-samples", str(N_MC), "--format", "json"]
    return [
        Op(
            "avg-mc-ms-sphere",
            ["avg", "--channel", "ms", f"--d={d!r}", "--seed", str(int(rng.integers(2**32)))]
            + common,
            check_average(ms_average(abs(d), None), monte_carlo=True),
        ),
        Op(
            "avg-mc-theta-circle",
            ["avg", "--channel", "theta", f"--a2={a2!r}", "--k", axis,
             "--domain", "family", "--family", family,
             "--seed", str(int(rng.integers(2**32)))] + common,
            check_average(theta_average(1.0 - a2, a2, axis, family), monte_carlo=True),
        ),
    ]


def _verify_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    seed = str(int(rng.integers(2**32)))
    return [Op("verify-quick", ["verify", "--quick", "--seed", seed], _check_verify)]


def _quad_ops(rng: np.random.Generator, workdir: Path) -> list[Op]:
    ops = []
    # |d| <= 0.85 keeps every sphere average at the same quadrature order,
    # so the work per pass does not depend on the seed
    d_flag, ds = _grid(-0.8 - 0.05 * float(rng.random()), 0.16, 11)
    ops.append(Op(
        "power-sweep-ms",
        ["power-sweep", f"--d-grid={d_flag}", "--method", "quadrature", "--format", "json"],
        _check_sweep([
            {"params": {"d": d}, "f_bar": ms_average(abs(d), None), "tau": 1.0 - d * d}
            for d in ds
        ]),
    ))
    axis = AXES[int(rng.integers(3))]
    a2_flag, a2s = _grid(0.05 + 0.04 * float(rng.random()), 0.1, 9)
    ops.append(Op(
        "power-sweep-theta",
        ["power-sweep", "--channel", "theta", "--k", axis, f"--a2-grid={a2_flag}",
         "--method", "quadrature", "--format", "json"],
        _check_sweep([
            {
                "params": {"a": math.sqrt(a2), "k": axis},
                "f_bar": max(a2, 1.0 - a2),
                "tau": 4.0 * a2 * (1.0 - a2),
            }
            for a2 in a2s
        ]),
    ))
    for a2 in (0.5, float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.55, 0.95))):
        ops.append(Op(
            f"mismatch-{a2:.3f}",
            ["mismatch", f"--a2={a2!r}", "--format", "json"],
            _check_mismatch(a2),
        ))
    # Raw channels: a Haar-random unitary on the controller of a named state.
    # Each family is one whose circle makes the NCF vary, so the quadrature
    # order, and with it the work, is the same for every seed.
    d = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9))
    family = ("xz", "yz")[int(rng.integers(2))]
    path = workdir / "raw-ms.cfg"
    path.write_text(raw_config(on_controller(haar_unitary(rng), ms_amplitudes(d))))
    ops.append(Op(
        "avg-raw-ms",
        ["avg", "--channel", "raw", "--config", str(path), "--domain", "family",
         "--family", family, "--format", "json"],
        check_average(ms_average(d, family), monte_carlo=False),
    ))
    a2 = float(rng.uniform(0.1, 0.9))
    axis = AXES[int(rng.integers(3))]
    family = [f for f in FAMILIES if axis in f][int(rng.integers(2))]
    path = workdir / "raw-theta.cfg"
    path.write_text(raw_config(on_controller(haar_unitary(rng), theta_amplitudes(a2, axis))))
    ops.append(Op(
        "avg-raw-theta",
        ["avg", "--channel", "raw", "--config", str(path), "--domain", "family",
         "--family", family, "--format", "json"],
        check_average(theta_average(a2, 1.0 - a2, axis, family), monte_carlo=False),
    ))
    return ops


BUILDERS = {
    "mc-1e6": _mc_ops,
    "verify-quick": _verify_ops,
    "quad-sweep": _quad_ops,
}


def import_cli():
    """Import ``ctpower.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ctpower" / "__init__.py").is_file():
        raise ImportError(f"no ctpower package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ctpower
    from ctpower import cli

    if Path(ctpower.__file__).resolve().parent != (SRC / "ctpower").resolve():
        raise ImportError(f"imported ctpower from {ctpower.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, build its parser and write the workload's inputs.

    Returns (cli module, ops).  This is everything ``setup_s`` times.
    """
    cli = import_cli()
    cli.build_parser()
    workdir.mkdir(parents=True, exist_ok=True)
    index = list(BUILDERS).index(workload)
    rng = np.random.default_rng([seed, index])
    return cli, BUILDERS[workload](rng, workdir)
