"""Command-line front end.

The flag groups several subcommands share (``--output/--seed/--args-from``,
``--format``, the channel parameters with ``--config``, ``--channel``,
``--input/--theta/--phi`` and ``--method``) are declared once each, as
argparse parent parsers.  A named channel (``ms_xy``, ...) fixes its theta
axis, so a ``--config`` beside it must hold a theta channel on that axis.

Every command produces one report rendered as csv, json, or pretty text.
csv and json carry 17 significant digits so values round-trip exactly;
pretty mode trims to 6.  Output metadata records the tool version, the
(post --args-from expansion) command line, and the seed, and never a
timestamp, so identical invocations give byte-identical files.

Exit codes: 0 success, 1 a quantitative check failed, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shlex
import sys
import time
from dataclasses import fields
from typing import NamedTuple

from . import __version__
from .analysis import (
    FAMILY_NAMES,
    MC_SAMPLES,
    MismatchRow,
    _ncf_variance,
    avg_fidelity_numeric,
    control_power,
    mismatch_report,
    sweep,
)
from .channels import (
    NAMED_CHANNELS,
    ChannelSpec,
    GHZChannel,
    MSChannel,
    ThetaChannel,
    channel_from_config,
    named_channel,
    three_tangle,
)
from .protocol import (
    INPUT_FAMILIES,
    InputFamily,
    controlled_teleport,
    input_state,
    ncf_ms_closed,
    ncf_theta_closed,
    unconditioned_teleport,
)
from .verify import check_channel_ct, format_report, suite

SEED_ENV_VAR = "CTPOWER_SEED"
_CT_FIDELITY_GATE = 1.0 - 1e-9
_MAX_GRID_POINTS = 10**6
# Monte Carlo keeps 24 bytes per 32,768 samples, under 0.7 MiB at this cap,
# so the cap is what stops a run lasting hours
_MAX_SAMPLES = 10**9

_CHANNEL_CHOICES = ("ghz", "ms", "theta", "raw") + NAMED_CHANNELS
# the channel-parameter flags, in the order refusals name them
_CHANNEL_PARAMS = ("c", "d", "a", "b", "a2", "k")


class UsageError(Exception):
    """Bad flags or parameter values; mapped to exit code 2."""


class RunConfig(NamedTuple):
    seed: int
    output_format: str
    output_path: str | None
    command_line: str


class Report(NamedTuple):
    """Uniform shape every command renders: key-value scalars plus a table."""

    title: str
    scalars: list[tuple[str, object]]
    columns: list[str]
    rows: list[list[object]]


# ---------------------------------------------------------------------------
# value formatting

def _fmt_float(v: float, sig: int) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r} in output")
    return format(v, f".{sig}g")


def _fmt_value(v: bool | int | float | str, sig: int) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # numpy's float64 too
        return _fmt_float(v, sig)
    return str(v)


def _json_scalar(v: bool | int | float | str, sig: int) -> str:
    # booleans and numbers are JSON literals already; strings are quoted
    text = _fmt_value(v, sig)
    return json.dumps(text) if isinstance(v, str) else text


# ---------------------------------------------------------------------------
# renderers

def _render_csv(report: Report, config: RunConfig) -> str:
    import csv
    import io

    sig = 17
    buf = io.StringIO()
    buf.write(f"# tool: ctpower {__version__}\n")
    buf.write(f"# command: {config.command_line}\n")
    buf.write(f"# seed: {config.seed}\n")
    buf.write(f"# title: {report.title}\n")
    for name, value in report.scalars:
        buf.write(f"# {name}: {_fmt_value(value, sig)}\n")
    if report.columns:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_fmt_value(v, sig) for v in row])
    return buf.getvalue()


def _render_json(report: Report, config: RunConfig) -> str:
    sig = 17
    lines = ["{"]
    lines.append('  "meta": {')
    lines.append('    "tool": "ctpower",')
    lines.append(f'    "version": {json.dumps(__version__)},')
    lines.append(f'    "command": {json.dumps(config.command_line)},')
    lines.append(f'    "seed": {config.seed}')
    lines.append("  },")
    lines.append(f'  "title": {json.dumps(report.title)},')
    lines.append('  "scalars": {')
    for i, (name, value) in enumerate(report.scalars):
        comma = "," if i + 1 < len(report.scalars) else ""
        lines.append(f"    {json.dumps(name)}: {_json_scalar(value, sig)}{comma}")
    lines.append("  },")
    cols = ", ".join(json.dumps(c) for c in report.columns)
    lines.append(f'  "columns": [{cols}],')
    lines.append('  "rows": [')
    for i, row in enumerate(report.rows):
        cells = ", ".join(_json_scalar(v, sig) for v in row)
        comma = "," if i + 1 < len(report.rows) else ""
        lines.append(f"    [{cells}]{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_pretty(report: Report, config: RunConfig) -> str:
    sig = 6
    lines = [report.title]
    lines.append(f"tool: ctpower {__version__}")
    lines.append(f"seed: {config.seed}")
    if report.scalars:
        lines.append("")
        width = max(len(name) for name, _ in report.scalars)
        for name, value in report.scalars:
            lines.append(f"{name.ljust(width)} = {_fmt_value(value, sig)}")
    if report.columns:
        cells = [[str(c) for c in report.columns]]
        for row in report.rows:
            cells.append([_fmt_value(v, sig) for v in row])
        widths = [max(len(r[i]) for r in cells) for i in range(len(report.columns))]
        lines.append("")
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


_RENDERERS = {"csv": _render_csv, "json": _render_json, "pretty": _render_pretty}


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing

def _splice_args_from(argv: list[str]) -> list[str]:
    """Expand every ``--args-from FILE`` into the flags the file lists."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--args-from" or tok.startswith("--args-from="):
            if "=" in tok:
                path = tok.partition("=")[2]
            else:
                i += 1
                if i >= len(argv):
                    raise UsageError("--args-from needs a file path")
                path = argv[i]
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    raw = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read --args-from file: {exc}") from None
            for line in raw.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                tokens = shlex.split(line)
                if any(t == "--args-from" or t.startswith("--args-from=") for t in tokens):
                    raise UsageError("--args-from files cannot nest --args-from")
                out.extend(tokens)
        else:
            out.append(tok)
        i += 1
    return out


def parse_grid(text: str) -> list[float]:
    """``start:stop:step`` inclusive of both endpoints within half a step,
    at most ``_MAX_GRID_POINTS`` points.

    A grid starting with a negative number must be passed as
    ``--d-grid=-1:1:0.1`` (or quoted with a leading space): bare ``-1:...``
    looks like an option to the flag parser.
    """
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid values must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"grid values must be finite, got {text!r}")
    if step <= 0:
        raise UsageError("grid step must be positive")
    if stop < start:
        raise UsageError("grid stop must not be below start")
    span = (stop - start) / step + 0.5
    if not span < _MAX_GRID_POINTS:  # inf too; counted before any list is built
        raise UsageError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    count = int(math.floor(span)) + 1
    values = [start + i * step for i in range(count)]
    return [v for v in values if v <= stop + step / 2.0]


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    else:
        raw = os.environ.get(SEED_ENV_VAR)
        if raw is None:
            seed = 0
        else:
            try:
                seed = int(raw)
            except ValueError:
                raise UsageError(
                    f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
    if not 0 <= seed < 2**64:
        raise UsageError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _spec_from_args(args: argparse.Namespace) -> ChannelSpec:
    name = args.channel
    if name is None:
        raise UsageError("a channel is required (--channel)")
    if getattr(args, "config", None):
        _reject_params(args, _CHANNEL_PARAMS, "a channel read from --config")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read channel config: {exc}") from None
        spec = channel_from_config(text)
        # a named channel (ms_xy, ...) reads a theta config on the axis its name fixes
        named = name in NAMED_CHANNELS
        if spec.family != ("theta" if named else name):
            raise UsageError(
                f"config file holds a {type(spec).__name__}, but --channel says {name!r}"
            )
        if named:
            axis = named_channel(name, spec.a, spec.b).k
            if spec.k != axis:
                raise UsageError(f"config file holds a ThetaChannel with k = {spec.k}, "
                                 f"but --channel {name!r} fixes k = {axis}")
        return spec
    if name == "raw":
        raise UsageError("raw channels need --config with an amplitude list")
    if name == "ghz":
        _reject_params(args, _CHANNEL_PARAMS, "the 'ghz' channel")
        return GHZChannel()
    if name == "ms":
        _reject_params(args, ("a", "b", "a2", "k"), "the 'ms' channel")
        if args.c is None and args.d is None:
            raise UsageError("ms channels need --c and/or --d")
        c, d = _complete_unit_pair(args, "c", "d")
        return MSChannel(c=c, d=d)
    # theta family, by axis or by matched-family name
    _reject_params(args, ("c", "d"), f"the {name!r} channel")
    a, b = _theta_amplitudes(args)
    if name == "theta":
        if args.k is None:
            raise UsageError("theta channels need --k {x,y,z}")
        return ThetaChannel(a=a, b=b, k=args.k)
    if args.k is not None:
        raise UsageError(f"--k is fixed by the named channel {name!r}")
    return named_channel(name, a, b)


def _theta_amplitudes(args: argparse.Namespace) -> tuple[float, float]:
    if args.a2 is not None:
        if args.a is not None or args.b is not None:
            raise UsageError("give either --a2 or --a/--b, not both")
        return _a2_amplitudes(args.a2)
    if args.a is None and args.b is None:
        raise UsageError("theta-family channels need --a2 or --a/--b")
    return _complete_unit_pair(args, "a", "b")


def _a2_amplitudes(a2: float) -> tuple[float, float]:
    """(sqrt(a2), sqrt(1 - a2)) for an --a2 in [0, 1]."""
    if not 0.0 <= a2 <= 1.0:
        raise UsageError(f"--a2 must lie in [0, 1], got {a2}")
    return math.sqrt(a2), math.sqrt(1.0 - a2)


def _complete_unit_pair(args: argparse.Namespace, x: str, y: str) -> tuple[float, float]:
    """The flags ``x`` and ``y`` of a pair with x^2 + y^2 = 1, at least one
    given; a missing one is derived, non-negative, from the other."""
    values = {x: getattr(args, x), y: getattr(args, y)}
    for missing, given in ((x, y), (y, x)):
        if values[missing] is None:
            v = values[given]
            if abs(v) > 1.0:
                raise UsageError(f"|{given}| must not exceed 1, got {v}")
            values[missing] = math.sqrt(1.0 - v * v)
    return values[x], values[y]


def _reject_params(args: argparse.Namespace, names: tuple[str, ...], where: str) -> None:
    for n in names:
        if getattr(args, n, None) is not None:
            raise UsageError(f"--{n} does not apply to {where}")


def _input_from_args(args: argparse.Namespace) -> InputFamily:
    cls = INPUT_FAMILIES[args.input]
    angles = [f.name for f in fields(cls)]
    for flag in ("theta", "phi"):
        if flag not in angles and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} does not apply to the {cls.name} family")
    return cls(*(getattr(args, name) or 0.0 for name in angles))


def _describe_spec(spec: ChannelSpec) -> list[tuple[str, object]]:
    return [("channel", spec.family), *spec.params().items()]


def _describe_input(family: InputFamily) -> list[tuple[str, object]]:
    return [("input", family.name), *family.params().items()]


# ---------------------------------------------------------------------------
# commands

def _cmd_channel(args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    args.channel = args.family
    spec = _spec_from_args(args)
    tangle = three_tangle(spec.state)
    scalars = _describe_spec(spec) + [
        ("tau", tangle.tau),
        ("meets_tangle_bound", tangle.meets_bound),
    ]
    rows = [[format(idx, "03b"), amp.real, amp.imag] for idx, amp in enumerate(spec.state.amps)]
    return Report("channel state", scalars, ["basis", "re", "im"], rows), 0


def _cmd_ct(args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    spec = _spec_from_args(args)
    family = _input_from_args(args)
    run = controlled_teleport(spec, family)
    scalars = _describe_spec(spec) + _describe_input(family) + [
        ("total_probability", run.total_probability),
        ("min_fidelity", run.min_fidelity),
    ]
    columns = ["charlie_outcome", "bell_outcome", "probability", "fidelity"]
    rows = [
        [b.charlie_outcome, b.bell_outcome.value, b.probability, b.fidelity]
        for b in run.branches
    ]
    code = 0 if run.min_fidelity >= _CT_FIDELITY_GATE else 1
    return Report("controlled teleportation branches", scalars, columns, rows), code


# the closed-form NCF ``ncf`` prints beside the simulated one, by family, at
# input phi
_NCF_CLOSED = {
    "ms": lambda spec, phi: ncf_ms_closed(*phi.amps, spec.d),
    "theta": lambda spec, phi: ncf_theta_closed(spec.a, spec.b, spec.k, phi),
}
_NCF_CLOSED["ghz"] = _NCF_CLOSED["ms"]


def _cmd_ncf(args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    spec = _spec_from_args(args)
    family = _input_from_args(args)
    result = unconditioned_teleport(spec, family)
    scalars = _describe_spec(spec) + _describe_input(family) + [
        ("ncf", result.ncf),
        ("per_outcome_equal", result.per_outcome_equal),
    ]
    closed = _NCF_CLOSED.get(spec.family)
    if closed is not None:
        scalars.append(("ncf_closed", closed(spec, input_state(family))))
    rows = []
    for r in range(2):
        for c in range(2):
            v = result.rho3.mat[r, c]
            rows.append([f"{r}{c}", v.real, v.imag])
    return Report("non-conditioned teleportation", scalars, ["element", "re", "im"], rows), 0


def _cmd_avg(args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    spec = _spec_from_args(args)
    domain = args.domain or ("sphere" if args.family is None else "family")
    if domain == "family" and args.family is None:
        raise UsageError("--domain family needs --family {xz,xy,yz}")
    if domain == "sphere" and args.family is not None:
        raise UsageError("--family only applies to --domain family")
    if args.n_samples is None:
        args.n_samples = MC_SAMPLES
    elif args.method != "monte_carlo":
        raise UsageError("--n-samples applies to --method monte_carlo")
    if not 1 <= args.n_samples <= _MAX_SAMPLES:
        raise UsageError(f"--n-samples must lie in [1, {_MAX_SAMPLES}], got {args.n_samples}")
    mean, stderr = avg_fidelity_numeric(
        spec, args.family, method=args.method, n_samples=args.n_samples, seed=config.seed
    )
    scalars = _describe_spec(spec) + [("domain", domain)]
    if args.family is not None:
        scalars.append(("family", args.family))
    scalars += [
        ("method", args.method),
        ("mean", mean),
        ("stderr", stderr),
        ("control_power", control_power(mean)),
    ]
    if args.method == "monte_carlo":
        scalars.append(("n_samples", args.n_samples))
        _print_predicted_stderr(spec, args.family, args.n_samples)
    return Report("averaged non-conditioned fidelity", scalars, [], []), 0


def _print_predicted_stderr(spec: ChannelSpec, family: str | None, n: int) -> None:
    """Print on stderr the standard error the receiver map predicts for a
    Monte Carlo average of n samples over the sphere or a family's circle."""
    predicted = math.sqrt(_ncf_variance(spec, family) / n)
    print(f"predicted stderr: {predicted:.6e}", file=sys.stderr)


def _cmd_power_sweep(args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    if args.a2_grid is not None and args.d_grid is not None:
        raise UsageError("give either --a2-grid or --d-grid, not both")
    if args.a2_grid is not None or args.d_grid is not None:
        # the grid sets every channel parameter but a theta channel's axis
        _reject_params(args, (*_CHANNEL_PARAMS[:-1], "config"), "a grid sweep")
    if args.a2_grid is not None:
        if args.channel not in (None, "theta") and args.channel not in NAMED_CHANNELS:
            raise UsageError("--a2-grid applies to theta-family channels")
        args.channel = args.channel or "theta"
        flag, grid = "a2", args.a2_grid
    elif args.d_grid is not None:
        if args.channel not in (None, "ms"):
            raise UsageError("--d-grid applies to ms channels")
        _reject_params(args, ("k",), "an ms grid sweep")
        args.channel = "ms"
        flag, grid = "d", args.d_grid
    else:
        grid = None
    if grid is None:
        specs = [_spec_from_args(args)]
    else:
        specs = []
        for value in parse_grid(grid):
            # each point reads as if its value were the flag given alone
            setattr(args, flag, value)
            specs.append(_spec_from_args(args))
    if args.method == "monte_carlo" and len(specs) * MC_SAMPLES > _MAX_SAMPLES:
        raise UsageError(f"{len(specs)} grid points of {MC_SAMPLES} Monte Carlo "
                         f"samples each exceed the cap of {_MAX_SAMPLES} samples")
    reports = sweep(specs, method=args.method, seed=config.seed)
    if args.method == "monte_carlo":
        for spec in specs:
            _print_predicted_stderr(spec, spec.matched_family, MC_SAMPLES)
    scalars = [("method", args.method), ("points", len(reports))]
    columns = [
        "channel", "params", "f_bar", "c_bar", "tau",
        "meets_classical_bound", "meets_tangle_bound",
    ]
    rows = []
    for r in reports:
        params = " ".join(
            f"{k}={_fmt_value(v, 17)}" for k, v in r.channel.params().items()
        )
        rows.append(
            [
                r.channel.family, params, r.f_bar, r.c_bar, r.tau,
                r.meets_classical_bound, r.meets_tangle_bound,
            ]
        )
    return Report("control power sweep", scalars, columns, rows), 0


def _cmd_mismatch(args: argparse.Namespace, config: RunConfig) -> tuple[Report, int]:
    if args.a2 is None:
        raise UsageError("mismatch needs --a2")
    rep = mismatch_report(*_a2_amplitudes(args.a2))
    scalars = [
        ("a", rep.a),
        ("b", rep.b),
        ("a2", args.a2),
        ("max_mismatched_power", rep.max_mismatched_power),
        ("claim_power", rep.claim_power),
        ("claim_agrees", rep.claim_agrees),
    ]
    rows = [list(r) for r in rep.rows]
    return Report("channel/input family mismatch", scalars, list(MismatchRow._fields), rows), 0


def _cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    """Run the checks and emit the report; stderr gets one ``time`` line per
    check, in run order, then the elapsed time of the command."""
    started = time.monotonic()
    if args.channel is not None:
        if args.quick:
            raise UsageError("--quick does not apply to verify --channel")
        spec = _spec_from_args(args)
        checks, mode = [lambda: check_channel_ct(spec)], "channel"
    else:
        checks = suite(config.seed, quick=args.quick)
        mode = "quick" if args.quick else "full"
    results, times = [], []
    for check in checks:
        check_started = time.perf_counter()
        results.append(check())
        times.append(time.perf_counter() - check_started)
    _emit(format_report(results, seed=config.seed, mode=mode), config)
    for result, seconds in zip(results, times):
        print(f"time {result.name}: {seconds * 1e3:.2f} ms", file=sys.stderr)
    print(f"elapsed: {time.monotonic() - started:.2f} s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser assembly

def _method(name: str) -> str:
    """A ``--method`` value, with quadrature and analytic, the exact
    average's names before 0.14.0, read as exact."""
    return "exact" if name in ("quadrature", "analytic") else name


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser.  Each flag group that several subcommands share is
    declared once, as a parent parser; a subcommand lists its groups."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--output", metavar="PATH", help="write the report to a file")
    run.add_argument("--seed", type=int, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    run.add_argument("--args-from", metavar="FILE",
                     help="read extra flags from FILE, one flag (with value) per line")
    fmt = argparse.ArgumentParser(add_help=False)  # all but verify, whose report is fixed
    fmt.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty",
                     help="output format (default pretty)")
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--c", type=float, help="ms amplitude c")
    params.add_argument("--d", type=float, help="ms amplitude d")
    params.add_argument("--a", type=float, help="theta amplitude a")
    params.add_argument("--b", type=float, help="theta amplitude b")
    params.add_argument("--a2", type=float, help="theta weight a^2")
    params.add_argument("--k", choices=("x", "y", "z"), help="theta axis")
    params.add_argument("--config", metavar="FILE", help="channel config file")
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--channel", choices=_CHANNEL_CHOICES)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--input", choices=tuple(INPUT_FAMILIES), default="arbitrary",
                        help="input state family (default arbitrary)")
    inputs.add_argument("--theta", type=float, help="polar/family angle")
    inputs.add_argument("--phi", type=float, help="azimuthal angle")
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", type=_method, choices=("exact", "monte_carlo"),
                        default="exact", help="exact (default; also spelled quadrature "
                        "or analytic) or monte_carlo")

    parser = argparse.ArgumentParser(
        prog="ctpower",
        description="Controlled-teleportation simulator and control-power analysis.",
    )
    parser.add_argument("--version", action="version", version=f"ctpower {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", parents=[params, fmt, run],
                       help="print a channel state, its tangle, and bounds")
    p.add_argument("family", choices=_CHANNEL_CHOICES, help="channel family")
    p.set_defaults(handler=_cmd_channel)

    p = sub.add_parser("ct", parents=[channel, params, inputs, fmt, run],
                       help="run controlled teleportation, one row per branch")
    p.set_defaults(handler=_cmd_ct)

    p = sub.add_parser("ncf", parents=[channel, params, inputs, fmt, run],
                       help="teleport without the controller; report the NCF")
    p.set_defaults(handler=_cmd_ncf)

    p = sub.add_parser("avg", parents=[channel, params, method, fmt, run],
                       help="average the NCF over a domain of inputs")
    p.add_argument("--domain", choices=("sphere", "family"),
                   help="default: family when --family is given, else sphere")
    p.add_argument("--family", choices=FAMILY_NAMES)
    p.add_argument("--n-samples", type=int, dest="n_samples")
    p.set_defaults(handler=_cmd_avg)

    p = sub.add_parser("power-sweep", parents=[channel, params, method, fmt, run],
                       help="control power across a parameter grid")
    p.add_argument("--a2-grid", metavar="START:STOP:STEP")
    p.add_argument("--d-grid", metavar="START:STOP:STEP")
    p.set_defaults(handler=_cmd_power_sweep)

    p = sub.add_parser("mismatch", parents=[fmt, run],
                       help="NCF for all channel/input family pairings")
    p.add_argument("--a2", type=float, help="channel weight a^2")
    p.set_defaults(handler=_cmd_mismatch)

    p = sub.add_parser("verify", parents=[channel, params, run], help="run the self-check suite")
    p.add_argument("--quick", action="store_true", help="skip Monte Carlo checks")
    p.set_defaults(handler=_cmd_verify)

    return parser


# main's one parser for the life of the process.  It holds nothing a call
# can change: its choices, version and handlers are fixed at import, help
# width is read when help is formatted, and parsing leaves it as it was.
# The handlers are bound when it is built, so a ``_cmd_*`` handler
# monkeypatched after the first call is not seen.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        full_argv = _splice_args_from(raw_argv)
        args = _parser().parse_args(full_argv)
        seed = _resolve_seed(args)
        config = RunConfig(
            seed=seed,
            output_format=getattr(args, "format", "pretty"),
            output_path=getattr(args, "output", None),
            command_line="ctpower " + " ".join(shlex.quote(t) for t in full_argv),
        )
        if args.command == "verify":
            return _cmd_verify(args, config)
        report, code = args.handler(args, config)
        _emit(_RENDERERS[config.output_format](report, config), config)
        return code
    except (UsageError, ValueError, OSError) as exc:
        print(f"ctpower: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"ctpower: not enough memory for {shlex.join(raw_argv)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
