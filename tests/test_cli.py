"""Command-line interface: rendering, determinism, exit codes, grids."""
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ctpower.channels import (
    GHZChannel,
    MSChannel,
    RawChannel,
    ThetaChannel,
    channel_to_config,
)
from ctpower import cli
from ctpower.cli import UsageError, build_parser, main, parse_grid
from ctpower.qcore import PureState
from ctpower.verify import format_report, suite
from oracles import ncf_variance


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
    # at d = +-1 the controller is a product factor; it is measured in the
    # computational basis and only its |0> outcome happens
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
    # rejected before any sample is drawn, like a grid beyond its cap, and
    # for every method: quadrature ignores the count but still checks it
    for method in ("monte_carlo", "quadrature"):
        for n in (0, -5, 10**9 + 1):
            code = main([
                "avg", "--channel", "ghz", "--method", method, "--n-samples", str(n),
            ])
            assert code == 2
            assert f"must lie in [1, 1000000000], got {n}" in capsys.readouterr().err
    # both ends pass; Monte Carlo's 10^9 reaches test_out_of_memory_exits_2
    for method, n in (("monte_carlo", 1), ("quadrature", 1), ("quadrature", 10**9)):
        argv = ["avg", "--channel", "ghz", "--method", method, "--n-samples", str(n)]
        assert main(argv) == 0
        capsys.readouterr()


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
    # a raw channel whose receiver map is refused fails the average cleanly
    amps = np.zeros(8, dtype=complex)
    amps[[0b000, 0b101]] = 1.0 / np.sqrt(2.0)
    degenerate = tmp_path / "degenerate.cfg"
    degenerate.write_text(channel_to_config(RawChannel(state=PureState(amps))))
    code = main(["avg", "--channel", "raw", "--config", str(degenerate)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ctpower: check failed: ") and "Traceback" not in err


def test_ncf_refuses_the_channels_avg_refuses(capsys, tmp_path):
    # |000> and (|000> + |101>)/sqrt(2): the sender's outcomes leave different
    # receiver maps, so no controller-absent number exists for any input
    split = np.zeros(8, dtype=complex)
    split[[0b000, 0b101]] = 1.0 / np.sqrt(2.0)
    for amps in (np.eye(8)[0], split):
        path = tmp_path / "refused.cfg"
        path.write_text(channel_to_config(RawChannel(state=PureState(amps))))
        errors = []
        for command in ("ncf", "avg"):
            code = main([command, "--channel", "raw", "--config", str(path)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("ctpower: check failed: corrected receiver maps disagree")


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
