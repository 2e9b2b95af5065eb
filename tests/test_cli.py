"""Command-line interface: rendering, determinism, exit codes, grids."""
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ctpower.analysis import MC_SAMPLES, MismatchRow
from ctpower.channels import (
    NAMED_CHANNELS,
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    channel_to_config,
)
from ctpower import __version__, cli
from ctpower.cli import UsageError, build_parser, main, parse_grid
from ctpower.protocol import ArbitraryInput
from ctpower.qcore import PureState
from ctpower.verify import format_report, suite
from oracles import design, ncf_variance, walk_ncf


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def w_state_config(tmp_path):
    amps = np.zeros(8, dtype=complex)
    amps[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    path = tmp_path / "w.cfg"
    path.write_text(channel_to_config(RawChannel(state=PureState(amps))))
    return str(path)


# ---------------------------------------------------------------------------
# grid parsing

def test_parse_grid_inclusive_endpoints():
    got = parse_grid("0:1:0.25")
    assert got == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    # endpoint reached within half a step even with float drift
    assert len(parse_grid("0:1:0.05")) == 21
    assert parse_grid("0.5:0.5:0.1") == [0.5]
    assert parse_grid("-1:1:0.5") == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])


def test_parse_grid_errors():
    for bad in (
        "0:1", "0:1:0", "1:0:0.1", "a:b:c",
        "0:inf:1", "0:1:inf", "nan:1:0.1", "-inf:0:1", "0:1:nan",
        "0:1e300:1e-300", "0:1:1e-9",  # counted before any list is built
    ):
        with pytest.raises(UsageError):
            parse_grid(bad)


def test_parse_grid_caps_at_exactly_a_million_points():
    # the cap the README states, spelled out so that moving the constant fails
    assert len(parse_grid("0:999999:1")) == 10**6
    with pytest.raises(UsageError, match="more than 1000000 points"):
        parse_grid("0:1000000:1")


# ---------------------------------------------------------------------------
# commands

def test_channel_command_reports_tangle(capsys):
    code, out = run_cli(capsys, "channel", "ms", "--c", "0.6", "--d", "0.8")
    assert code == 0
    assert "tau" in out and "0.36" in out
    code, out = run_cli(capsys, "channel", "ghz", "--format", "json")
    doc = json.loads(out)
    assert doc["scalars"]["tau"] == pytest.approx(1.0, abs=1e-12)
    assert doc["scalars"]["meets_tangle_bound"] is True
    assert len(doc["rows"]) == 8


def test_ct_command_perfect_channel(capsys):
    code, out = run_cli(
        capsys, "ct", "--channel", "ms", "--c", "0.6", "--d", "0.8",
        "--input", "arbitrary", "--theta", "1.0", "--phi", "0.5",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 8
    fidelity = [row[3] for row in doc["rows"]]
    assert all(f == pytest.approx(1.0, abs=1e-12) for f in fidelity)
    probs = [row[2] for row in doc["rows"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_ct_command_degenerate_ms_controller(capsys):
    # at d = +-1 the controller is the product factor |0>, whose column is
    # the heaviest: the rule measures it in the computational basis, up to
    # phase, and only the |0> outcome happens
    for d, label in (("1", "x+"), ("-1", "x-")):
        code, out = run_cli(
            capsys, "ct", "--channel", "ms", "--d", d,
            "--input", "arbitrary", "--theta", "1.0", "--phi", "0.5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scalars"]["min_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert doc["scalars"]["total_probability"] == pytest.approx(1.0, abs=1e-12)
        assert {row[0] for row in doc["rows"]} == {label}


def test_ct_command_ghz_controller_split(capsys):
    code, out = run_cli(capsys, "ct", "--channel", "ghz", "--format", "json")
    doc = json.loads(out)
    for label in ("x+", "x-"):
        p = sum(r[2] for r in doc["rows"] if r[0] == label)
        assert p == pytest.approx(0.5, abs=1e-12)


def test_ct_command_flags_imperfect_raw_channel(capsys, tmp_path):
    # |0> teleports perfectly through a W state (both controller outcomes
    # leave workable sender/receiver states), so probe off the poles
    code, out = run_cli(
        capsys, "ct", "--channel", "raw", "--config", w_state_config(tmp_path),
        "--input", "arbitrary", "--theta", "1.1", "--phi", "0.6",
    )
    assert code == 1  # some branch fidelity below 1 - 1e-9


def test_ncf_command_json_round_trip(capsys):
    code, out = run_cli(
        capsys, "ncf", "--channel", "ms", "--c", "0.6", "--d", "0.8",
        "--theta", "1.0", "--phi", "0.5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    from ctpower.protocol import ArbitraryInput, unconditioned_teleport
    from ctpower.channels import MSChannel

    want = unconditioned_teleport(MSChannel(0.6, 0.8), ArbitraryInput(1.0, 0.5))
    # 17 significant digits round-trip the double exactly
    assert doc["scalars"]["ncf"] == want.ncf
    assert doc["scalars"]["per_outcome_equal"] is True
    assert doc["scalars"]["ncf_closed"] == pytest.approx(want.ncf, abs=1e-12)


def test_avg_command_ghz_classical_value(capsys):
    code, out = run_cli(
        capsys, "avg", "--channel", "ms", "--d", "0",
        "--method", "quadrature", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["scalars"]["mean"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert doc["scalars"]["stderr"] == 0.0


def test_avg_command_caps_monte_carlo_samples(capsys):
    # rejected before any sample is drawn, like a grid beyond its cap
    for n in (0, -5, 10**9 + 1):
        code = main([
            "avg", "--channel", "ghz", "--method", "monte_carlo", "--n-samples", str(n),
        ])
        assert code == 2
        assert f"must lie in [1, 1000000000], got {n}" in capsys.readouterr().err
    # quadrature draws no samples, so it refuses the flag whatever its value
    for n in (0, -5, 1, 10**9, 10**9 + 1):
        code = main([
            "avg", "--channel", "ghz", "--method", "quadrature", "--n-samples", str(n),
        ])
        assert code == 2
        assert "--n-samples applies to --method monte_carlo" in capsys.readouterr().err
    # Monte Carlo's lower end passes; its 10^9 reaches test_out_of_memory_exits_2
    argv = ["avg", "--channel", "ghz", "--method", "monte_carlo", "--n-samples", "1"]
    assert main(argv) == 0
    capsys.readouterr()


def test_every_method_spelling_runs_and_names_the_exact_average(capsys):
    # quadrature and analytic, the exact average's names before 0.14.0, are
    # still read; every report names the method that ran
    for command in (["avg", "--channel", "ms", "--d", "0.5"],
                    ["power-sweep", "--d-grid=0:1:0.5"]):
        docs = []
        for spelling in ([], ["--method", "exact"], ["--method", "quadrature"],
                         ["--method", "analytic"]):
            code, out = run_cli(capsys, *command, *spelling, "--format", "json")
            assert code == 0
            docs.append(json.loads(out))
            assert docs[-1]["scalars"]["method"] == "exact"
        assert all(doc["scalars"] == docs[0]["scalars"] for doc in docs)
        assert all(doc["rows"] == docs[0]["rows"] for doc in docs)


def test_power_sweep_caps_monte_carlo_samples(capsys, monkeypatch):
    # 1,001 grid points of 10^6 samples each ask for just over 10^9 samples;
    # refused before any point is averaged
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("ctpower.cli.sweep", refuse)
    code = main([
        "power-sweep", "--channel", "theta", "--k", "z",
        "--a2-grid", "0:1:0.001", "--method", "monte_carlo",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "1001 grid points" in err and "1000000000" in err
    # 1,000 points ask for exactly 10^9 samples, which the cap lets through
    # to the sweep; the stub averages nothing
    swept = []
    monkeypatch.setattr(
        "ctpower.cli.sweep", lambda specs, method, seed: swept.append((len(specs), method)) or []
    )
    code = main([
        "power-sweep", "--channel", "theta", "--k", "z",
        "--a2-grid", "0:0.999:0.001", "--method", "monte_carlo",
    ])
    capsys.readouterr()
    assert (code, swept) == (0, [(1000, "monte_carlo")])


def test_power_sweep_peaks_at_even_split(capsys):
    code, out = run_cli(
        capsys, "power-sweep", "--channel", "theta", "--k", "z",
        "--a2-grid", "0:1:0.05", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 21
    c_bar = [row[3] for row in doc["rows"]]
    assert max(c_bar) == pytest.approx(0.5, abs=1e-12)
    assert c_bar.index(max(c_bar)) == 10  # a^2 = 0.5


def test_power_sweep_row_fields(capsys):
    code, out = run_cli(
        capsys, "power-sweep", "--channel", "ms", "--c", "0.6", "--d", "0.8",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 1
    row = dict(zip(doc["columns"], doc["rows"][0]))
    assert row["channel"] == "ms"
    assert row["params"] == "c=0.59999999999999998 d=0.80000000000000004"
    assert row["meets_classical_bound"] is False
    assert row["meets_tangle_bound"] is False


def _csv_rows(capsys, *argv):
    code, out = run_cli(capsys, "power-sweep", *argv, "--format", "csv")
    assert code == 0, argv
    return [line for line in out.splitlines() if not line.startswith("#")][1:]


@pytest.mark.parametrize(
    "grid, channel",
    [
        ("--d-grid=-1:1:0.25", ()),
        ("--d-grid=-1:1:0.25", ("--channel", "ms")),
        *[("--a2-grid=0:1:0.125", ("--channel", "theta", "--k", k)) for k in "xyz"],
        *[("--a2-grid=0:1:0.125", ("--channel", name)) for name in NAMED_CHANNELS],
    ],
)
def test_power_sweep_grid_rows_equal_single_channel_rows(capsys, grid, channel):
    # a grid point reads as if its value were the flag given alone, so each
    # grid row is that single-channel row byte for byte; the csv rows leave
    # out the "# command" metadata
    grid_flag, _, text = grid.partition("=")
    flag = "--d" if grid_flag == "--d-grid" else "--a2"
    single = channel or ("--channel", "ms")
    values = parse_grid(text)
    rows = _csv_rows(capsys, *channel, grid)
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        assert [row] == _csv_rows(capsys, *single, f"{flag}={value!r}"), value
        one_point = f"{grid_flag}={value!r}:{value!r}:1"
        assert [row] == _csv_rows(capsys, *channel, one_point), value


def test_power_sweep_refuses_grid_points_out_of_range(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr("ctpower.cli.sweep", refuse)
    for argv, message in (
        (["--channel", "theta", "--k", "z", "--a2-grid=0.5:1.5:0.5"], "--a2 must lie in [0, 1]"),
        (["--channel", "ms_xy", "--a2-grid=-0.5:0.5:0.5"], "--a2 must lie in [0, 1]"),
        (["--d-grid=-1.5:1:0.5"], "|d| must not exceed 1"),
        (["--channel", "ms", "--d-grid=0:2:1"], "|d| must not exceed 1"),
    ):
        assert main(["power-sweep", *argv]) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_mismatch_command_json(capsys):
    code, out = run_cli(capsys, "mismatch", "--a2", "0.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == [f.name for f in fields(MismatchRow)]
    assert len(doc["rows"]) == 9
    assert doc["rows"][0][0] == "xz"


def test_mismatch_command_csv(capsys):
    code, out = run_cli(capsys, "mismatch", "--a2", "0.5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# tool: ctpower") for l in meta)
    assert any(l.startswith("# seed: 0") for l in meta)
    assert any("claim_agrees: false" in l for l in meta)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "channel_family,input_family,matched,avg_ncf,avg_power"
    assert len(data) == 10  # header + 9 pairings


# (channel flags, "channel" scalar, parameter scalars, power-sweep params cell)
FAMILY_HEADERS = [
    (("--channel", "ghz"), "ghz", (), ""),
    (
        ("--channel", "ms", "--c", "0.6", "--d", "-0.8"), "ms", ("c", "d"),
        "c=0.59999999999999998 d=-0.80000000000000004",
    ),
    (
        ("--channel", "theta", "--a2", "0.36", "--k", "y"), "theta", ("a", "b", "k"),
        "a=0.59999999999999998 b=0.80000000000000004 k=y",
    ),
    (
        ("--channel", "ms_xy", "--a2", "0.5"), "theta", ("a", "b", "k"),
        "a=0.70710678118654757 b=0.70710678118654757 k=z",
    ),
]


def test_report_header_per_family(capsys, tmp_path):
    raw = tmp_path / "raw.cfg"
    raw.write_text(channel_to_config(RawChannel(state=ThetaChannel(0.6, 0.8, "x").state)))
    cases = FAMILY_HEADERS + [(("--channel", "raw", "--config", str(raw)), "raw", (), "")]
    inputs = ["input", "theta", "phi"]
    for flags, family, params, cell in cases:
        head = ["channel", *params]
        closed = [] if family == "raw" else ["ncf_closed"]
        expected = {
            ("channel", flags[1], *flags[2:]): head + ["tau", "meets_tangle_bound"],
            ("ct", *flags): head + inputs + ["total_probability", "min_fidelity"],
            ("ncf", *flags): head + inputs + ["ncf", "per_outcome_equal"] + closed,
        }
        for argv, names in expected.items():
            code, out = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            assert list(doc["scalars"]) == names
            assert doc["scalars"]["channel"] == family
        code, out = run_cli(capsys, "power-sweep", *flags, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc["scalars"]) == ["method", "points"]
        assert doc["rows"][0][:2] == [family, cell]


# (input flags, the input scalars ct and ncf report, in order)
INPUT_HEADERS = [
    (
        ("--input", "arbitrary", "--theta", "1.1", "--phi", "0.6"),
        [("input", "arbitrary"), ("theta", 1.1), ("phi", 0.6)],
    ),
    (("--input", "arbitrary"), [("input", "arbitrary"), ("theta", 0.0), ("phi", 0.0)]),
    (("--input", "xz", "--theta", "2.0"), [("input", "xz"), ("theta", 2.0)]),
    (("--input", "xy", "--phi", "0.7"), [("input", "xy"), ("phi", 0.7)]),
    (("--input", "yz", "--theta", "4.0"), [("input", "yz"), ("theta", 4.0)]),
]


def test_report_input_scalars_per_family(capsys):
    for flags, want in INPUT_HEADERS:
        for command, after in (("ct", "total_probability"), ("ncf", "ncf")):
            code, out = run_cli(
                capsys, command, "--channel", "ms", "--d", "0.6", *flags,
                "--format", "json",
            )
            assert code == 0
            scalars = list(json.loads(out)["scalars"].items())
            start = [name for name, _ in scalars].index("input")
            assert scalars[start:start + len(want)] == want
            assert scalars[start + len(want)][0] == after


# ---------------------------------------------------------------------------
# determinism and metadata

def test_identical_invocations_are_byte_identical(capsys):
    argv = (
        "avg", "--channel", "ms", "--d", "0.5", "--method", "monte_carlo",
        "--n-samples", "20000", "--format", "csv",
    )
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def test_avg_monte_carlo_prints_the_predicted_stderr_on_stderr(capsys, tmp_path):
    spec = MSChannel(c=0.8, d=-0.6)
    n = 20000
    for family in (None, "xz", "xy"):
        domain = ["--domain", "sphere"] if family is None else [
            "--domain", "family", "--family", family,
        ]
        argv = [
            "avg", "--channel", "ms", "--d=-0.6", *domain, "--method", "monte_carlo",
            "--n-samples", str(n), "--seed", "7", "--format", "json",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        predicted = math.sqrt(ncf_variance(spec, family) / n)
        assert captured.err == f"predicted stderr: {predicted:.6e}\n"
        # stdout and --output carry the report alone
        assert "predicted" not in captured.out
        path = tmp_path / "avg.json"
        assert main([*argv, "--output", str(path)]) == 0
        capsys.readouterr()
        written = path.read_text(encoding="utf-8")
        assert "predicted" not in written
        assert json.loads(written)["scalars"] == json.loads(captured.out)["scalars"]
        measured = json.loads(captured.out)["scalars"]["stderr"]
        assert abs(measured - predicted) <= max(0.05 * predicted, 1e-15)
    assert main(["avg", "--channel", "ms", "--d=-0.6", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_avg_monte_carlo_on_a_nearly_flat_channel_predicts_a_non_negative_stderr(capsys):
    # the lambdas are equal to about 1e-16 here; the predicted variance
    # once cancelled to -1.97e-17 and the command exited 2
    argv = ["avg", "--channel", "ms", "--c", "1.4917934138154303e-08",
            "--method", "monte_carlo", "--n-samples", "10"]
    assert main(argv) == 0
    (line,) = capsys.readouterr().err.splitlines()
    label, _, value = line.partition(": ")
    assert label == "predicted stderr"
    assert 0.0 <= float(value) < 1e-15


def test_power_sweep_monte_carlo_prints_the_predicted_stderr_per_row(capsys, tmp_path):
    argv = [
        "power-sweep", "--d-grid=-0.5:0.25:0.75", "--method", "monte_carlo",
        "--seed", "7", "--format", "json",
    ]
    want = [
        f"predicted stderr: {math.sqrt(ncf_variance(spec, None) / MC_SAMPLES):.6e}"
        for spec in (MSChannel(c=math.sqrt(0.75), d=-0.5), MSChannel(c=math.sqrt(0.9375), d=0.25))
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == want
    # stdout and --output carry the report alone, and its rows are this
    # grid's seeded values
    rows = json.loads(captured.out)["rows"]
    assert [row[2] for row in rows] == [0.83320679680734999, 0.75004791196000764]
    assert "predicted" not in captured.out
    path = tmp_path / "sweep.json"
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr().err.splitlines() == want
    written = path.read_text(encoding="utf-8")
    assert "predicted" not in written
    assert json.loads(written)["rows"] == rows
    assert main(["power-sweep", "--d-grid=-0.5:0.25:0.75", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_seed_flag_and_environment_default(capsys, monkeypatch):
    argv = (
        "avg", "--channel", "ms", "--d", "0.5", "--method", "monte_carlo",
        "--n-samples", "20000", "--format", "json",
    )
    monkeypatch.setenv("CTPOWER_SEED", "42")
    _, from_env = run_cli(capsys, *argv)
    monkeypatch.delenv("CTPOWER_SEED")
    _, from_flag = run_cli(capsys, *argv, "--seed", "42")
    env_doc, flag_doc = json.loads(from_env), json.loads(from_flag)
    assert env_doc["meta"]["seed"] == flag_doc["meta"]["seed"] == 42
    assert env_doc["scalars"]["mean"] == flag_doc["scalars"]["mean"]
    _, other = run_cli(capsys, *argv, "--seed", "43")
    assert json.loads(other)["scalars"]["mean"] != env_doc["scalars"]["mean"]
    monkeypatch.setenv("CTPOWER_SEED", "not-a-number")
    assert main(list(argv)) == 2
    capsys.readouterr()
    monkeypatch.setenv("CTPOWER_SEED", "-1")  # refused by the CLI, not by Monte Carlo
    assert main(["ncf", "--channel", "ghz"]) == 2
    assert capsys.readouterr().err == "ctpower: seed must be an unsigned 64-bit integer, got -1\n"


def test_output_file_and_metadata(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code = main([
        "channel", "theta", "--a2", "0.5", "--k", "y",
        "--format", "csv", "--output", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    text = path.read_text()
    assert "# command: ctpower channel theta --a2 0.5 --k y" in text
    assert "# tool: ctpower" in text and "# seed: 0" in text


def test_args_from_file(capsys, tmp_path):
    flags = tmp_path / "flags.txt"
    flags.write_text("--channel ms\n--d 0.8\n# a comment\n--format json\n")
    code, out = run_cli(capsys, "avg", "--args-from", str(flags))
    assert code == 0
    doc = json.loads(out)
    assert doc["scalars"]["d"] == 0.8
    # the recorded command shows the expanded flags
    assert "--args-from" not in doc["meta"]["command"]
    assert "--d 0.8" in doc["meta"]["command"]
    nested = tmp_path / "nested.txt"
    nested.write_text(f"--args-from {flags}\n")
    assert main(["avg", "--args-from", str(nested)]) == 2


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["ct", "--channel", "ms", "--c", "2", "--d", "0"]) == 2
    assert main(["ct", "--channel", "ms"]) == 2  # parameters missing
    assert main(["ct", "--channel", "theta", "--a2", "0.5"]) == 2  # no axis
    assert main(["ct", "--channel", "ghz", "--c", "0.5"]) == 2  # stray param
    assert main(["avg", "--channel", "ghz", "--domain", "family"]) == 2
    assert main(["mismatch"]) == 2
    # mismatch and theta channels share one --a2 check
    for argv in (["mismatch", "--a2", "1.5"], ["ncf", "--channel", "ms_xy", "--a2", "1.5"]):
        assert main(argv) == 2, argv
        assert "--a2 must lie in [0, 1], got 1.5" in capsys.readouterr().err
    for family, flag in (("xy", "--theta"), ("xz", "--phi"), ("yz", "--phi")):
        assert main(["ncf", "--channel", "ms", "--d", "0.5", "--input", family,
                     flag, "1.0"]) == 2
        assert f"{flag} does not apply to the {family} family" in capsys.readouterr().err
    assert main(["power-sweep", "--d-grid=0:1:1e-9"]) == 2  # 10^9 points
    # a grid sets every channel parameter, so channel flags are refused
    for argv in (
        ["--d-grid=0:1:0.5", "--d", "0.3"],
        ["--d-grid=0:1:0.5", "--channel", "ms", "--c", "0.2"],
        ["--d-grid=0:1:0.5", "--k", "x"],
        ["--a2-grid=0:1:0.5", "--k", "x", "--config", str(tmp_path / "nonexistent")],
        ["--a2-grid=0:1:0.5", "--k", "x", "--a2", "0.5"],
        ["--a2-grid=0:1:0.5", "--channel", "ms_xy", "--a", "0.6"],
        ["--a2-grid=0:1:0.5", "--k", "x", "--b", "0.6"],
    ):
        assert main(["power-sweep", *argv]) == 2, argv
        assert "does not apply to a" in capsys.readouterr().err
    no_d = tmp_path / "no_d.cfg"
    no_d.write_text("family = ms\nc = 0.6\n")
    assert main(["ct", "--channel", "ms", "--config", str(no_d)]) == 2  # key missing
    twice = tmp_path / "twice.cfg"
    twice.write_text("family = ms\nc = 0.6\nd = 0.8\nd = -0.8\n")
    assert main(["ct", "--channel", "ms", "--config", str(twice)]) == 2  # key repeated
    assert "repeats the 'd' key" in capsys.readouterr().err
    # a config sets every channel parameter, so channel flags beside it are refused
    ms_cfg, theta_cfg = tmp_path / "ms.cfg", tmp_path / "theta.cfg"
    ms_cfg.write_text("family = ms\nc = 0.6\nd = 0.8\n")
    theta_cfg.write_text("family = theta\na = 0.6\nb = 0.8\nk = z\n")
    for argv, flag in (
        (["ncf", "--channel", "ms", "--config", str(ms_cfg), "--c", "0.2", "--k", "x"], "--c"),
        (["avg", "--channel", "ms", "--config", str(ms_cfg), "--a2", "0.3"], "--a2"),
        (["verify", "--channel", "ms", "--config", str(ms_cfg), "--d", "0.1"], "--d"),
        (["ct", "--channel", "ms_xy", "--config", str(theta_cfg), "--k", "z"], "--k"),
        (["channel", "ms", "--config", str(ms_cfg), "--a", "0.6"], "--a"),
        (["power-sweep", "--channel", "ms", "--config", str(ms_cfg), "--b", "0.8"], "--b"),
    ):
        assert main(argv) == 2, argv
        assert f"{flag} does not apply to a channel read from --config" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["ct", "--channel", "hexagonal"])  # argparse rejects the choice
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["avg", "--args-from={missing}"], "cannot read --args-from file: [Errno 2]"),
        (["avg", "--args-from"], "--args-from needs a file path"),
        (["ct", "--channel", "ms", "--config", "{missing}"], "cannot read channel config: [Errno 2]"),
        (["ct", "--channel", "ms", "--config", "{theta}"],
         "config file holds a ThetaChannel, but --channel says 'ms'"),
        (["ncf", "--channel", "raw"], "raw channels need --config with an amplitude list"),
        (["ct", "--channel", "ms_xy", "--a2", "0.5", "--k", "x"],
         "--k is fixed by the named channel 'ms_xy'"),
        (["avg", "--channel", "ghz", "--family", "xz"], "--family only applies to --domain family"),
        (["power-sweep", "--a2-grid=0:1:0.5", "--d-grid=0:1:0.5"],
         "give either --a2-grid or --d-grid, not both"),
        (["power-sweep", "--channel", "ms", "--a2-grid=0:1:0.5"],
         "--a2-grid applies to theta-family channels"),
        (["power-sweep", "--channel", "theta", "--d-grid=0:1:0.5"],
         "--d-grid applies to ms channels"),
        # a named channel reads only a theta config on the axis its name fixes
        (["avg", "--channel", "ms_xy", "--config", "{ms}"],
         "config file holds a MSChannel, but --channel says 'ms_xy'"),
        (["avg", "--channel", "ms_xy", "--config", "{theta_x}"],
         "config file holds a ThetaChannel with k = x, but --channel 'ms_xy' fixes k = z"),
        (["ncf", "--channel", "theta", "--k", "x", "--a2", "0.5", "--a", "0.6"],
         "give either --a2 or --a/--b, not both"),
        (["ncf", "--channel", "theta", "--k", "x", "--a2", "0.5", "--b", "0.6"],
         "give either --a2 or --a/--b, not both"),
        # ncf draws nothing, so only the CLI's own bound can refuse the seed
        (["ncf", "--channel", "ghz", "--seed", "18446744073709551616"],
         "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
    ],
)
def test_usage_error_branches_exit_2_with_one_message(capsys, tmp_path, argv, message):
    paths = {"missing": tmp_path / "missing.txt"}
    for name, text in (
        ("theta", "family = theta\na = 0.6\nb = 0.8\nk = z\n"),
        ("theta_x", "family = theta\na = 0.6\nb = 0.8\nk = x\n"),
        ("ms", "family = ms\nc = 0.6\nd = 0.8\n"),
    ):
        paths[name] = tmp_path / f"{name}.cfg"
        paths[name].write_text(text)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ctpower: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_named_channel_reads_a_config_on_its_own_axis(capsys, tmp_path):
    # ms_xy fixes k = z, so a z-axis theta config reads as the same theta flags
    path = tmp_path / "theta.cfg"
    path.write_text("family = theta\na = 0.6\nb = 0.8\nk = z\n")
    _, from_config = run_cli(capsys, "avg", "--channel", "ms_xy", "--config", str(path),
                             "--format", "json")
    _, from_flags = run_cli(capsys, "avg", "--channel", "theta", "--a", "0.6", "--k", "z",
                            "--format", "json")
    assert json.loads(from_config)["scalars"] == json.loads(from_flags)["scalars"]


def test_one_theta_amplitude_derives_the_other(capsys):
    for given, value, derived, want in (("--a", "0.6", "b", 0.8), ("--b", "0.8", "a", 0.6)):
        code, out = run_cli(capsys, "ncf", "--channel", "theta", given, value, "--k", "x",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["scalars"][derived] == pytest.approx(want, abs=1e-15)


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # raising stands in for an allocation that fails; the largest
    # --n-samples the cap lets through reaches the average
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("ctpower.cli.avg_fidelity_numeric", exhausted)
    argv = ["avg", "--channel", "ghz", "--method", "monte_carlo", "--n-samples", str(10**9)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ctpower: not enough memory for avg --channel ghz --method monte_carlo "
        "--n-samples 1000000000\n"
    )


def test_verify_quick_passes_and_is_deterministic(capsys, tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["verify", "--quick", "--output", str(first)]) == 0
    assert main(["verify", "--quick", "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert "9/9 checks passed" in text and "mode: quick" in text


def test_verify_times_each_check_on_stderr(capsys, tmp_path):
    # one "time" line per check, in run order, then the elapsed line; the
    # report on stdout and in --output is the suite's, byte for byte
    want = format_report([check() for check in suite(0, True)], seed=0, mode="quick")
    assert main(["verify", "--quick", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    path = tmp_path / "report.txt"
    assert main(["verify", "--quick", "--seed", "0", "--output", str(path)]) == 0
    captured_file = capsys.readouterr()
    assert captured_file.out == "" and path.read_text() == want
    names = [
        line[5:].split(":")[0] for line in want.splitlines() if line[:5] in ("PASS ", "FAIL ")
    ]
    for err in (captured.err, captured_file.err):
        lines = err.splitlines()
        assert len(lines) == len(names) + 1 and lines[-1].startswith("elapsed: ")
        for line, name in zip(lines, names):
            assert re.fullmatch(rf"time {name}: \d+\.\d\d ms", line), line
    assert main(["verify", "--channel", "ghz"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and re.fullmatch(r"time channel-ct: \d+\.\d\d ms", lines[0])


def test_verify_refuses_flags_it_would_ignore(capsys):
    # the verification report is fixed text, so --format is not a verify flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--quick", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    # --channel runs one certificate, which has no quick form
    assert main(["verify", "--channel", "ghz", "--quick"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ctpower: --quick does not apply to verify --channel\n"


def test_verify_failure_injection(capsys, tmp_path):
    code = main(["verify", "--channel", "raw", "--config", w_state_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL channel-ct" in out
    ghz = tmp_path / "ghz.cfg"
    ghz.write_text(channel_to_config(GHZChannel()))
    code = main(["verify", "--channel", "ghz", "--config", str(ghz)])
    capsys.readouterr()
    assert code == 0
    # the W state fails only the controlled certificate: without the
    # controller it has an average, the walk's, like every channel
    code, out = run_cli(capsys, "avg", "--channel", "raw", "--config",
                        w_state_config(tmp_path), "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["scalars"]["mean"] - 4.0 / 9.0) < 1e-12


def test_verify_certifies_ms_channels_with_small_c(capsys):
    # the CLI derives d = sqrt(1 - c^2), which misses c^2 + d^2 = 1 by an
    # ulp or so; read off the channel's own Bell table, the controller basis
    # keeps that rounding out of the defect, which once read 1.2e-7 at
    # c = 1e-5 and 1.9e-8 at c = 1e-4
    for c in ("1e-5", "1e-4"):
        code, out = run_cli(capsys, "verify", "--channel", "ms", "--c", c)
        assert code == 0, out
        assert "PASS channel-ct" in out


def test_ncf_avg_and_power_sweep_accept_channels_whose_outcomes_disagree(capsys, tmp_path):
    # |000>, (|000> + |101>)/sqrt(2) and the W state: the sender's outcomes
    # leave different states, and summed over them the receiver's map is the
    # walk's.  ncf prints the walk's NCF with per_outcome_equal false; avg
    # and power-sweep print the walk's mean over the tetrahedron
    split = np.zeros(8, dtype=complex)
    split[[0b000, 0b101]] = 1.0 / np.sqrt(2.0)
    w_state = np.eye(8)[[0b001, 0b010, 0b100]].sum(axis=0) / np.sqrt(3.0)
    k0, k1 = ArbitraryInput.amplitudes(1.0, 0.5)
    for name, amps, want in (
        ("product", np.eye(8)[0], 2.0 / 3.0), ("split", split, 0.5), ("w", w_state, 4.0 / 9.0),
    ):
        spec = RawChannel(state=PureState(amps))
        path = tmp_path / f"{name}.cfg"
        path.write_text(channel_to_config(spec))
        flags = ["--channel", "raw", "--config", str(path), "--format", "json"]
        code, out = run_cli(capsys, "ncf", *flags, "--theta", "1.0", "--phi", "0.5")
        assert code == 0
        scalars = json.loads(out)["scalars"]
        assert scalars["per_outcome_equal"] is False
        assert abs(scalars["ncf"] - walk_ncf(spec, k0, k1)[0]) < 1e-12
        sphere = np.mean(walk_ncf(spec, *design(None)))
        assert abs(sphere - want) < 1e-12
        code, out = run_cli(capsys, "avg", *flags)
        assert code == 0 and abs(json.loads(out)["scalars"]["mean"] - sphere) < 1e-12
        code, out = run_cli(capsys, "power-sweep", *flags)
        assert code == 0 and abs(json.loads(out)["rows"][0][2] - sphere) < 1e-12


def test_main_shares_one_parser_that_parsing_leaves_as_it_was(capsys):
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on its own errors, help and version
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    probes = (
        ["avg", "--channel", "ms", "--d", "0.5", "--format", "json"],
        ["mismatch", "--a2", "0.3", "--format", "csv"],
    )
    exits = (["ct", "--channel", "hexagonal"], ["--version"], ["avg", "--help"])
    cli._parser.cache_clear()
    fresh = [run(argv) for argv in probes]
    parser = cli._parser()
    first_exits = [run(argv) for argv in exits]
    assert [code for code, _, _ in first_exits] == [2, 0, 0]
    assert [run(argv) for argv in probes] == fresh
    assert [run(argv) for argv in exits] == first_exits
    assert cli._parser() is parser


def test_package_version_is_the_pyproject_version():
    # read with a regex: tomllib is not in Python 3.10's standard library
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', text, re.M)
    assert version == __version__


def test_console_entry_point_subprocess(tmp_path):
    env = dict(os.environ, CTPOWER_SEED="7")
    proc = subprocess.run(
        [sys.executable, "-m", "ctpower.cli", "channel", "ghz", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["meta"]["seed"] == 7
    assert doc["scalars"]["channel"] == "ghz"
