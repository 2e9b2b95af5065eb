#!/usr/bin/env python3
"""Shows that the benchmark's checker counts bad outputs as failed operations.

Runs the quad-sweep commands through the benchmark's client with a clean
program, then with a program whose output is perturbed in one of several
ways, and also feeds the Monte Carlo checker hand-made reports.  Exits 0
when every perturbation is counted in ``error_rate`` and the clean run has
none.  Usage, from the repository root:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


class PerturbedCli:
    """Calls the real ``cli.main`` and spoils the output of ``avg`` commands."""

    def __init__(self, cli, how: str, ops_per_pass: int) -> None:
        self.cli = cli
        self.how = how
        self.ops_per_pass = ops_per_pass
        self.calls = 0

    def main(self, argv: list[str]) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        text = out.getvalue()
        self.calls += 1
        if argv[0] == "avg":
            if self.how == "value":
                report = json.loads(text)
                report["scalars"]["mean"] += 1e-6
                text = json.dumps(report)
            elif self.how == "exit":
                code = 1
            elif self.how == "raise":
                raise RuntimeError("injected failure")
            elif self.how == "drift" and self.calls > self.ops_per_pass:
                text += " "
        sys.stdout.write(text)
        return code


def _error_rate(cli, ops, passes: int) -> tuple[float, list[str]]:
    client = run.Client(cli, ops)
    for _ in range(passes):
        client.run_pass(traced=False)
    return len(client.failures) / client.attempted, client.failures


def _mc_check_rejects(expected: float, mean: float, stderr: float) -> bool:
    report = {"scalars": {"mean": mean, "stderr": stderr, "n_samples": workloads.N_MC,
                          "control_power": 1.0 - mean}}
    try:
        workloads.check_average(expected, monte_carlo=True)(0, json.dumps(report))
    except workloads.CheckFailed:
        return True
    return False


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        cli, ops = workloads.setup("quad-sweep", 7, Path(tmp))
        n_avg = sum(op.argv[0] == "avg" for op in ops)
        rate, failures = _error_rate(cli, ops, 1)
        if rate != 0.0:
            problems.append(f"clean program: error_rate {rate}: {failures}")
        for how, passes, want in (
            ("value", 1, n_avg / len(ops)),
            ("exit", 1, n_avg / len(ops)),
            ("raise", 1, n_avg / len(ops)),
            ("drift", 2, n_avg / (2 * len(ops))),
        ):
            rate, failures = _error_rate(PerturbedCli(cli, how, len(ops)), ops, passes)
            print(f"{how:6s} error_rate {rate:.4f} (expected {want:.4f})")
            if abs(rate - want) > 1e-12:
                problems.append(f"{how}: error_rate {rate}, expected {want}: {failures}")
    for mean, stderr, rejected in (
        (0.75 + 1e-4, 1e-4, False),   # 1 stderr away: accepted
        (0.75 + 5e-4, 1e-4, True),    # 5 stderr away
        (0.75 + 2.5e-3, 1e-3, True),  # within 4 stderr but beyond 2e-3
    ):
        if _mc_check_rejects(0.75, mean, stderr) is not rejected:
            problems.append(f"Monte Carlo check on mean {mean}, stderr {stderr}")
    for p in problems:
        print("SELFTEST FAILED " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
