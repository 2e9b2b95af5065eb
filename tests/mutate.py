"""Mutation check of one function at a time: does some test fail on each
small change to it?

    python tests/mutate.py ctpower.analysis:avg_fidelity_numeric -- tests/test_analysis.py
    python tests/mutate.py channels:_tangles

Each mutant changes one site of the named function (``module:function``,
or ``module:Class.method``; the ``ctpower.`` prefix may be left out):

* a binary ``+`` and ``-`` swap, and so do ``*`` and ``/``;
* a comparison's ``<`` and ``<=`` swap, ``>`` and ``>=``, ``==`` and ``!=``;
* ``and`` and ``or`` swap;
* a numeric constant gains 1.

The package is copied to a temporary directory, the mutated function is
written over its lines there, and the pytest selection given after ``--``
(default: the whole suite) runs against that copy with ``-x``, from the
repository root.  The unmutated copy must pass first.  A mutant is killed
when pytest fails or runs past ten times the unmutated run plus 10 s, and
survives when it passes.  The script prints one line a mutant, naming
the first test pytest's summary (``-rfE``) lists as failed or in error on
a killed one, then the survivors, and exits 1 if any survives.  It is not
a test: pytest does not collect it.
"""
from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctpower"

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<",
    ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.And: "and", ast.Or: "or",
}


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    """The function or method ``qualname`` names in ``tree``."""
    body = tree.body
    *owners, name = qualname.split(".")
    for owner in owners:
        body = next(n.body for n in body if isinstance(n, ast.ClassDef) and n.name == owner)
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    raise SystemExit(f"no function {qualname!r}")


def _sites(func: ast.FunctionDef) -> list[tuple[ast.AST, int | None]]:
    """(node, index) of every mutable site, in source order; index is the
    operator's position in a comparison, otherwise None."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
            sites.append((node, None))
        elif isinstance(node, ast.BoolOp):
            sites.append((node, None))
        elif isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        ):
            sites.append((node, None))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def _mutate(node: ast.AST, index: int | None) -> str:
    """Apply the site's mutation to ``node`` in place; describe it."""
    if isinstance(node, ast.Constant):
        old = node.value
        node.value = old + 1
        return f"{old!r} -> {node.value!r}"
    old = type(node.ops[index] if isinstance(node, ast.Compare) else node.op)
    new = _SWAPS[old]()
    if isinstance(node, ast.Compare):
        node.ops[index] = new
    else:
        node.op = new
    return f"{_SYMBOLS[old]} -> {_SYMBOLS[type(new)]}"


def mutants(source: str, qualname: str):
    """(line:column, description, mutated source) of every mutant of the
    function, in source order."""
    tree = ast.parse(source)
    func = _find(tree, qualname)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list])
    lines = source.splitlines(keepends=True)
    head, tail = "".join(lines[:first - 1]), "".join(lines[func.end_lineno:])
    indent = " " * func.col_offset
    for k in range(len(_sites(func))):
        clone = copy.deepcopy(func)
        node, index = _sites(clone)[k]
        what = _mutate(node, index)
        body = "".join(indent + line + "\n" for line in ast.unparse(clone).splitlines())
        yield f"{node.lineno}:{node.col_offset}", what, head + body + tail


def _run(workdir: Path, selection: list[str], timeout: float) -> tuple[str, str]:
    """"passed", "failed" or "timeout" of the selection against the copy,
    and the node id of the first test pytest's summary names FAILED or
    ERROR ("" if none)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             *selection],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout", ""
    if done.returncode == 0:
        return "passed", ""
    killers = (line.split()[1] for line in done.stdout.splitlines()
               if line.startswith(("FAILED ", "ERROR ")))
    return "failed", next(killers, "")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    selection = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target", help="module:function, e.g. ctpower.analysis:sweep")
    args = parser.parse_args(own)
    module, _, qualname = args.target.partition(":")
    path = PACKAGE / (module.removeprefix("ctpower.").replace(".", "/") + ".py")
    source = path.read_text(encoding="utf-8")
    found = list(mutants(source, qualname))
    with tempfile.TemporaryDirectory(prefix="ctpower-mutate-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(PACKAGE, workdir / "src" / "ctpower",
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = workdir / "src" / "ctpower" / path.relative_to(PACKAGE)
        start = time.monotonic()
        if _run(workdir, selection, None)[0] != "passed":
            print("the unmutated code fails the selection; nothing to measure")
            return 2
        timeout = 10.0 * (time.monotonic() - start) + 10.0
        survivors = []
        for n, (line, what, mutated) in enumerate(found):
            target.write_text(mutated, encoding="utf-8")
            outcome, killer = _run(workdir, selection, timeout)
            print(f"{n:3d}  line {line:8s}  {what:16s}  {outcome}  {killer}".rstrip(), flush=True)
            if outcome == "passed":
                survivors.append(f"line {line}: {what}")
        target.write_text(source, encoding="utf-8")
    print(f"{args.target}: {len(found) - len(survivors)} of {len(found)} mutants killed")
    for survivor in survivors:
        print(f"  survived: {survivor}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
