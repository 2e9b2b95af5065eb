#!/usr/bin/env python3
"""ctpower benchmark: three seeded workloads driven through ``ctpower.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc-1e6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process runs one workload as a closed loop: a single client sends one
CLI command at a time, in-process, and waits for it.  A pass is the
workload's fixed command list; after one untimed warm-up pass, passes
repeat for ``--seconds``.  Every command is checked against an independent
closed form and must print the same bytes on every pass.

``--trace 0`` reports the end-to-end metrics: ``wall_p90_s`` (90th
percentile of the pass times), ``setup_s`` (median of several fresh
interpreters from start to ready) and ``peak_rss_mb``.  The median pass
time is in the run record and the stderr summary.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracing.py`` plus ``trace.overhead_s``.
The last line of standard output is the JSON result; a run record with
the environment, every pass time and any failure goes to
``perfbench/_work/<workload>-seed<seed>-trace<t>/``.  ``--workload all``
runs each workload in its own process and prints a table.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 5

import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)


class Client:
    """Sends the workload's commands one at a time and keeps the verdicts."""

    def __init__(self, cli, ops, tracer=None) -> None:
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.reference: list[str | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool) -> float:
        outputs = []
        started = time.perf_counter()
        for op in self.ops:
            outputs.append(self._send(op, traced))
        elapsed = time.perf_counter() - started
        for i, (op, (code, out, crash)) in enumerate(zip(self.ops, outputs)):
            self.attempted += 1
            problem = crash
            if problem is None:
                try:
                    op.check(code, out)
                except workloads.CheckFailed as exc:
                    problem = str(exc)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    problem = f"malformed output: {exc!r}"
            if problem is None:
                if self.reference[i] is None:
                    self.reference[i] = out
                elif out != self.reference[i]:
                    problem = "output differs from the first pass"
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")
        return elapsed

    def _send(self, op, traced: bool):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    code = self.tracer.call(f"cli.{op.argv[0]}", self.cli.main, op.argv)
                else:
                    code = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse exits on a usage error
            return exc.code if isinstance(exc.code, int) else 1, out.getvalue(), None
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            return 1, out.getvalue(), "traceback: " + traceback.format_exc(limit=3)
        return code, out.getvalue(), None


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its setup being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        started = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup failed (exit {proc.returncode}): {err.strip()}")
        times.append(ready - started)
    return times


def percentile(times: list[float], q: float) -> float:
    """The q-quantile of ``times``, interpolating between order statistics."""
    ordered = sorted(times)
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(times: list[float]) -> dict:
    """Median, p90, and the highest percentile with at least ten passes beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    record = {"passes": n, "median_s": statistics.median(ordered), "p90_s": percentile(ordered, 0.9)}
    if n >= 11:
        record["tail_percentile"] = 100 * (n - 10) // n
        record["tail_s"] = ordered[n - 11]
    return record


def environment(seed: int) -> dict:
    import numpy as np
    import ctpower

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(Exception):  # the shape of numpy's build report varies by version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "ctpower": ctpower.__version__,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent repository's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_times = measure_setup(args.workload, args.seed)
    cli, ops = workloads.setup(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    client = Client(cli, ops, tracer)
    last = client.run_pass(traced=False)  # warm-up: lazy imports and first-call set-up

    # A pass starts only if its expected midpoint falls inside the window, so
    # a long pass overshoots --seconds by at most about half its length.
    untraced: list[float] = []
    traced: list[float] = []
    started = time.perf_counter()
    while (
        time.perf_counter() - started + last / 2 < args.seconds
        or not untraced
        or (args.trace and not traced)
    ):
        if args.trace and len(traced) < len(untraced):
            tracer.install()
            try:
                last = client.run_pass(traced=True)
            finally:
                tracer.uninstall()
            traced.append(last)
        else:
            last = client.run_pass(traced=False)
            untraced.append(last)

    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s"
        )
        tracer.write(workdir / "spans.tsv.gz")
    else:
        metrics = {
            "wall_p90_s": (percentile(untraced, 0.9), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    failed = len(client.failures)
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "commands": [op.argv for op in ops],
        "setup_s": setup_times,
        "pass_summary": tail(untraced),
        "pass_s": untraced,
        "traced_pass_s": traced,
        "error_rate": failed / client.attempted,
        "failures": client.failures,
        "result": result,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = record["pass_summary"]
    line = (
        f"{args.workload}: {summary['passes']} passes, median {summary['median_s']:.4f} s, "
        f"p90 {summary['p90_s']:.4f} s"
    )
    if "tail_s" in summary:
        line += f", p{summary['tail_percentile']} {summary['tail_s']:.4f} s"
    print(line + f"; error_rate {record['error_rate']:.4g} ({failed}/{client.attempted})",
          file=sys.stderr)
    for failure in client.failures[:10]:
        print("FAILED " + failure, file=sys.stderr)
    print(json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    code = 0
    rows = []
    for name in workloads.BUILDERS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            code = 1
        if not proc.stdout.strip():
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(
            (WORK / f"{name}-seed{args.seed}-trace{args.trace}" / "record.json").read_text()
        )
        for metric, value in result["metrics"].items():
            rows.append((name, metric, f"{value['value']:.6g}", value["unit"]))
        rows.append((name, "error_rate", f"{record['error_rate']:.6g}",
                     f"{result['failed']}/{result['attempted']}"))
        if not args.trace:
            w = record["pass_summary"]
            rows.append((name, "wall.median", f"{w['median_s']:.6g}", f"s ({w['passes']} passes)"))
            if "tail_s" in w:
                rows.append((name, f"wall.p{w['tail_percentile']}", f"{w['tail_s']:.6g}", "s"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)] if rows else []
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workdir = WORK / f"{args.workload}-seed{args.seed}-probe"
        workloads.setup(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
