"""Spans recorded from outside ctpower, and the per-layer metrics built on them.

``Tracer.install`` replaces every public function of ``qcore``, ``channels``,
``protocol``, ``analysis`` and ``verify`` with a timing wrapper, in every
ctpower module namespace that holds it (the modules bind each other's names
with ``from .x import y``), and wraps ``PureState.__post_init__`` and
``DensityOperator.__post_init__``.  ``cli`` functions stay unwrapped, so the
span the benchmark opens around ``cli.main`` keeps parsing, rendering and
emitting as its self time.  ``uninstall`` puts the originals back.

A span is a name, a parent span, start and end times in ns, and for a few
names a tag.  A traced ``verify --quick`` pass makes about 60,000 spans, so
they are kept in flat arrays and written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("qcore", "channels", "protocol", "analysis", "verify")

VALIDATORS = ("PureState", "DensityOperator")

QCORE_OPS = (
    "PureState.validate",
    "DensityOperator.validate",
    "apply_gate",
    "tensor",
    "project_single_qubit",
    "project_two_qubit",
    "partial_trace",
    "to_density",
    "fidelity_with_pure",
)

CLI_COMMANDS = ("verify", "avg", "power-sweep", "mismatch")

VERIFY_CHECKS = (
    "perfect-ct",
    "ms-closed-form",
    "sphere-average",
    "ghz-classical-limit",
    "matched-flatness",
    "bound-triple-identity",
    "max-control-power",
    "three-tangle",
    "mismatch-experiment",
)

SCALAR_PROTOCOL = ("protocol.unconditioned_teleport", "protocol.controlled_teleport")
AVERAGE = "analysis.avg_fidelity_numeric"
BATCH = "protocol.ncf_batch"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.tags: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.parent)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        tag = _tagger(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tag is not None:
                self.tags[index] = tag(args, result)
            return result

        return wrapper

    def _wrap_average(self, fn):
        """avg_fidelity_numeric: tag the method; trace allocations of Monte Carlo calls."""
        name_id = self._id(AVERAGE)
        signature = inspect.signature(fn)
        defaults = {k: p.default for k, p in signature.parameters.items()}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            method = bound.get("method", defaults["method"])
            samples = bound.get("n_samples", defaults["n_samples"])
            mc = method == "monte_carlo"
            if mc:
                tracemalloc.start()
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
                if mc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.tags[index] = (method, samples, peak)
                else:
                    self.tags[index] = (method, 0, 0)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "ctpower" or n.startswith("ctpower.")]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"ctpower.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    if attr == "avg_fidelity_numeric":
                        replace[id(obj)] = self._wrap_average(obj)
                    else:
                        replace[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, replace[id(obj)])
        qcore = sys.modules["ctpower.qcore"]
        for cls_name in VALIDATORS:
            cls = getattr(qcore, cls_name)
            original = cls.__dict__["__post_init__"]
            self._saved.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"qcore.{cls_name}.validate", original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One line per span: index, parent, root, name, start ns, end ns, tag."""
        root = array("i")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\troot\tname\tstart_ns\tend_ns\ttag\n")
            for i, parent in enumerate(self.parent):
                root.append(i if parent < 0 else root[parent])
                tag = self.tags.get(i, "")
                fh.write(
                    f"{i}\t{parent}\t{root[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{tag}\n"
                )


def _tagger(name: str):
    """What a span records beyond its times, for the few names that need it."""
    if name == BATCH:
        from ctpower.channels import RawChannel

        return lambda args, result: (
            "raw" if isinstance(args[0], RawChannel) else "named", len(result)
        )
    if name.startswith("verify.check_"):
        return lambda args, result: result.name
    return None


# ---------------------------------------------------------------------------
# per-layer metrics

def _quadrature_batches(names, parent, tags) -> list[list[int]]:
    """Sizes of the ncf_batch calls made by each quadrature average.

    Quadrature raises the order until two orders agree, so under one
    quadrature span a new average starts whenever the batch size stops
    growing.
    """
    def is_quadrature(i: int) -> bool:
        return names[i] == "analysis.mismatch_report" or (
            names[i] == AVERAGE and tags[i][0] == "quadrature"
        )

    averages: list[list[int]] = []
    previous: dict[int, int] = {}
    for i, name in enumerate(names):
        if name != BATCH or i not in tags:
            continue
        up = parent[i]
        while up >= 0 and not is_quadrature(up):
            up = parent[up]
        if up < 0:
            continue
        size = tags[i][1]
        if up not in previous or size <= previous[up]:
            averages.append([])
        averages[-1].append(size)
        previous[up] = size
    return averages


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and times are per pass; ``us_per_*`` and ratios are ratios of
    totals.  A layer that did not run reports 0.
    """
    names = [tracer.names[k] for k in tracer.name_id]
    parent, tags = tracer.parent, tracer.tags
    n = len(names)
    duration = [(e - s) / 1e9 for s, e in zip(tracer.start, tracer.end)]
    child_time = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += duration[i]
    self_time = [d - c for d, c in zip(duration, child_time)]
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        calls[name] += 1
        incl[name] += duration[i]
        own[name] += self_time[i]

    # scalar protocol ancestry, for the validation share
    under_scalar = [False] * n
    scalar_time = 0.0
    validate_under_scalar = 0.0
    for i, name in enumerate(names):
        p = parent[i]
        inherited = p >= 0 and (under_scalar[p] or names[p] in SCALAR_PROTOCOL)
        under_scalar[i] = inherited
        if name in SCALAR_PROTOCOL and not inherited:
            scalar_time += duration[i]
        if inherited and name.endswith(".validate"):
            validate_under_scalar += self_time[i]

    per = 1.0 / max(passes, 1)
    m: dict[str, tuple[float, str]] = {}

    roots = [i for i in range(n) if parent[i] < 0]
    for cmd in CLI_COMMANDS:
        times = [duration[i] for i in roots if names[i] == f"cli.{cmd}"]
        m[f"cli.{cmd}.s"] = (statistics.fmean(times) if times else 0.0, "s")
    m["cli.self_s"] = (sum(self_time[i] for i in roots) * per, "s")

    check_time: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        if name.startswith("verify.check_") and i in tags:
            check_time[tags[i]] += duration[i]
    for check in VERIFY_CHECKS:
        m[f"verify.check.{check}.s"] = (check_time[check] * per, "s")

    m[f"{AVERAGE}.calls"] = (calls[AVERAGE] * per, "count")
    m[f"{AVERAGE}.self_s"] = (own[AVERAGE] * per, "s")
    averages = _quadrature_batches(names, parent, tags)
    evaluated = sum(sum(a) for a in averages)
    m["analysis.quad.points"] = (evaluated * per, "count")
    m["analysis.quad.orders_per_avg"] = (
        sum(len(a) for a in averages) / len(averages) if averages else 0.0, "count"
    )
    m["analysis.quad.useful_ratio"] = (
        sum(a[-1] for a in averages) / evaluated if evaluated else 0.0, "ratio"
    )
    m["analysis.mismatch_report.s"] = (incl["analysis.mismatch_report"] * per, "s")
    m["analysis.sweep.s"] = (incl["analysis.sweep"] * per, "s")

    mc = [i for i, name in enumerate(names) if name == AVERAGE and tags[i][0] == "monte_carlo"]
    m["analysis.mc.samples"] = (sum(tags[i][1] for i in mc) * per, "count")
    m["analysis.mc.self_s"] = (sum(self_time[i] for i in mc) * per, "s")
    m["analysis.mc.peak_alloc_mb"] = (max((tags[i][2] for i in mc), default=0) / 2**20, "MB")

    m[f"{BATCH}.calls"] = (calls[BATCH] * per, "count")
    samples = {"named": 0, "raw": 0}
    batch_time = {"named": 0.0, "raw": 0.0}
    for i, name in enumerate(names):
        if name == BATCH and i in tags:
            kind, size = tags[i]
            samples[kind] += size
            batch_time[kind] += duration[i]
    m[f"{BATCH}.samples"] = ((samples["named"] + samples["raw"]) * per, "count")
    m[f"{BATCH}.self_s"] = (own[BATCH] * per, "s")
    for kind in ("named", "raw"):
        m[f"{BATCH}.{kind}.us_per_sample"] = (
            batch_time[kind] / samples[kind] * 1e6 if samples[kind] else 0.0, "us"
        )
    for fn in ("unconditioned_teleport", "controlled_teleport"):
        name = f"protocol.{fn}"
        m[f"{name}.calls"] = (calls[name] * per, "count")
        m[f"{name}.us_per_call"] = (incl[name] / calls[name] * 1e6 if calls[name] else 0.0, "us")
    m["protocol.bob_correction.calls"] = (calls["protocol.bob_correction"] * per, "count")

    for fn in ("realize", "three_tangle"):
        name = f"channels.{fn}"
        m[f"{name}.calls"] = (calls[name] * per, "count")
        m[f"{name}.self_s"] = (own[name] * per, "s")

    for op in QCORE_OPS:
        name = f"qcore.{op}"
        m[f"{name}.calls"] = (calls[name] * per, "count")
        m[f"{name}.self_s"] = (own[name] * per, "s")
    m["qcore.validate_share"] = (
        validate_under_scalar / scalar_time if scalar_time else 0.0, "ratio"
    )
    return m
