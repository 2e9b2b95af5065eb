"""Acceptance gate: one test and one visible pass/fail line per criterion.

Each criterion exercises the library at its stated tolerance and runtime
budget. The summary lines are printed with capture disabled so they show
up in piped logs even when pytest captures test output.
"""
import time

import pytest

from ctpower import verify
from ctpower.cli import main

SEED = 0


@pytest.fixture()
def emit(capfd):
    def _emit(number: int, label: str, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"{status} criterion {number}: {label} - {detail}", flush=True)

    return _emit


def run(emit, number: int, label: str, check, budget: float | None = None) -> None:
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    detail = result.detail
    if budget is not None:
        detail += f" [{elapsed:.2f}s of {budget:.0f}s budget]"
    emit(number, label, result.passed, detail)
    assert result.passed, detail
    if budget is not None:
        assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:.0f}s"


def test_criterion_01_perfect_ct_every_branch(emit):
    run(emit, 1, "perfect controlled teleportation",
        lambda: verify.check_perfect_ct(SEED), budget=5.0)


def test_criterion_02_ncf_closed_form_grid(emit):
    run(emit, 2, "simulated NCF matches closed form", verify.check_ms_closed_form)


def test_criterion_03_sphere_average_quadrature_and_mc(emit):
    run(emit, 3, "sphere-averaged NCF, quadrature and Monte Carlo",
        lambda: verify.check_sphere_average(SEED, quick=False), budget=30.0)


def test_criterion_04_ghz_classical_limit(emit):
    run(emit, 4, "GHZ average power equals the classical floor",
        verify.check_ghz_classical_limit)


def test_criterion_05_matched_family_flatness(emit):
    run(emit, 5, "matched equatorial families are flat at max(a^2, b^2)",
        verify.check_matched_flatness)


def test_criterion_06_bound_triple_identity(emit):
    run(emit, 6, "power / amplitude / tangle bounds coincide",
        verify.check_bound_triple_identity)


def test_criterion_07_max_control_power(emit):
    run(emit, 7, "balanced channel reaches control power 1/2",
        verify.check_max_control_power)


def test_criterion_08_three_tangle_oracle(emit):
    run(emit, 8, "three-tangle values and local-unitary invariance",
        lambda: verify.check_three_tangle(SEED))


def test_criterion_09_mismatch_dominance_and_flag(emit):
    run(emit, 9, "mismatched families dominate; balanced-point flag computed",
        verify.check_mismatch)


def test_criterion_10_verify_reports_byte_identical(emit, tmp_path, capfd):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    code_a = main(["verify", "--seed", "123", "--output", str(first)])
    code_b = main(["verify", "--seed", "123", "--output", str(second)])
    capfd.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    passed = identical and code_a == 0 and code_b == 0
    detail = (
        f"two full verify runs, seed 123: exit codes ({code_a}, {code_b}), "
        f"reports {'byte-identical' if identical else 'DIFFER'}"
    )
    emit(10, "verification report is deterministic", passed, detail)
    assert passed, detail
