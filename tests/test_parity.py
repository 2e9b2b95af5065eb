"""CLI parity: every subcommand's report, byte for byte.

``COMMANDS`` runs in process through ``cli.main`` from ``tests/parity/``,
which holds the raw channel config (the W state) and the ``--args-from``
file the commands read.  Each command's exit code, stdout and stderr must
equal its entry in ``tests/parity/cli.json``.  The version reads
``<version>`` there, and verify's ``time``/``elapsed`` lines on stderr are
dropped.  Seeded Monte Carlo is pinned by ``PINNED_AVERAGES`` in
``test_analysis.py`` instead.

A change that moves CLI output on purpose bumps the version, lists the
moved lines in CHANGES.md and rewrites the expected file with

    PYTHONPATH=src python tests/test_parity.py --write
"""
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from ctpower import __version__
from ctpower.cli import main

PARITY_DIR = Path(__file__).resolve().parent / "parity"
EXPECTED = PARITY_DIR / "cli.json"

CHANNELS = [
    ["--channel", "ghz"],
    ["--channel", "ms", "--c", "0.6", "--d", "0.8"],
    ["--channel", "ms", "--d=-0.3"],
    ["--channel", "ms", "--c", "0"],
    ["--channel", "theta", "--a2", "0.3", "--k", "x"],
    ["--channel", "theta", "--a", "0.8", "--b", "-0.6", "--k", "y"],
    ["--channel", "theta", "--a2", "0.7", "--k", "z"],
    ["--channel", "tetrahedral_xz", "--a2", "0.4"],
    ["--channel", "raw", "--config", "w.cfg"],
]
INPUTS = [
    ["--theta", "1.1", "--phi", "0.4"],
    ["--input", "xz", "--theta", "2.5"],
    ["--input", "xy", "--phi", "5.0"],
    ["--input", "yz", "--theta", "0.7"],
]
FORMATS = ("pretty", "csv", "json")


def _commands() -> list[list[str]]:
    """channel, ct and ncf on every channel, the formats and inputs taken
    in turn, then the other subcommands."""
    out = []
    for i, flags in enumerate(CHANNELS):
        out.append(["channel", *flags[1:], "--format", FORMATS[i % 3]])
        out.append(["ct", *flags, *INPUTS[i % 4], "--format", FORMATS[(i + 1) % 3]])
        out.append(["ncf", *flags, *INPUTS[(i + 1) % 4], "--format", FORMATS[(i + 2) % 3]])
    return out + [
        ["avg", "--channel", "ms", "--d=-0.3", "--format", "json"],
        ["avg", "--channel", "theta", "--a2", "0.3", "--k", "x", "--domain", "family",
         "--family", "xz"],
        ["avg", "--channel", "raw", "--config", "w.cfg", "--format", "csv"],
        ["channel", "ms_xy", "--a", "0.6", "--b", "0.8"],
        ["ct", "--channel", "psi_yz", "--a2", "0.6", "--input", "yz", "--theta", "1.9"],
        ["ncf", "--args-from=flags.txt"],
        ["mismatch", "--a2", "0.5"],
        ["mismatch", "--a2", "0.5", "--format", "json"],
        ["power-sweep", "--d-grid=-1:1:0.5", "--method", "quadrature", "--format", "csv"],
        ["power-sweep", "--channel", "ms_xy", "--a2-grid=0:1:0.25"],
        ["verify", "--quick", "--seed", "0"],
        ["verify", "--channel", "ghz"],
    ]


COMMANDS = _commands()


def _run(argv: list[str]) -> dict[str, object]:
    """One in-process run from PARITY_DIR, its output normalized."""
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(PARITY_DIR)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    stderr = "".join(
        line for line in err.getvalue().splitlines(keepends=True)
        if not line.startswith(("time ", "elapsed: "))
    )
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue().replace(__version__, "<version>"),
        "stderr": stderr.replace(__version__, "<version>"),
    }


def test_cli_output_is_the_recorded_output():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert [case["argv"] for case in expected] == COMMANDS
    for case in expected:
        assert _run(case["argv"]) == case, case["argv"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_parity.py --write")
    EXPECTED.write_text(
        json.dumps([_run(argv) for argv in COMMANDS], indent=1) + "\n", encoding="utf-8"
    )
