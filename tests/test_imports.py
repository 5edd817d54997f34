"""Every name a package module imports is read in that module, and verify
draws its inputs without numpy's generators.

A dead-import check in place of a linter: each module under src/lnfold
(except the re-exporting __init__) is parsed with ast. Exempt are
`from __future__` imports and, on a line marked `# noqa: F401`, a name that
lnbench's tracer patches in that module: a `SPANS` entry or a module-level
`COUNTS` entry of lnbench/tracing.py.

verify's sampled checks draw from a stream lnfold defines itself, so their
output does not change when numpy changes its generator algorithms; only
training_equivalence, which no report depends on, reads np.random.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_tracer_hooks import tracing

SRC = Path(__file__).parent.parent / "src"
MODULES = sorted(p for p in (SRC / "lnfold").glob("*.py") if p.name != "__init__.py")


def _tracer_targets(module: str) -> set[str]:
    return ({attr for m, attr, _name in tracing.SPANS if m == module}
            | {attr for m, cls, attr, _counters in tracing.COUNTS if m == module and cls is None})


def _unread_imports(source: str, patched: set[str] = frozenset()) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not ("# noqa: F401" in lines[alias.lineno - 1] and name in patched):
                imported[name] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text(encoding="utf-8"), _tracer_targets(path.stem)) == []


def test_the_check_sees_an_unread_import():
    assert _unread_imports("import os\nfrom typing import Any, Mapping\nx: Any = 1\n") == [
        "line 1: os", "line 2: Mapping"]
    # noqa exempts only a name the tracer patches.
    assert _unread_imports("import os  # noqa: F401\nfrom typing import Any  # noqa: F401\n", {"Any"}) == [
        "line 1: os"]


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures loads logging, a few ms more at every command's
    # start; cli imports it only where verify --grad overlaps its checks.
    code = "import sys, lnfold.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _numpy_random_reads(source: str, allowed: str = "training_equivalence") -> list[int]:
    """Lines that read np.random or import numpy.random, outside the
    module-level function named allowed."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == allowed
              for node in ast.walk(fn)}
    lines = set()
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute):
            reads = node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.Import):
            reads = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            reads = module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names))
        else:
            reads = False
        if reads:
            lines.add(node.lineno)
    return sorted(lines)


def test_verify_reads_numpy_random_only_for_training():
    assert _numpy_random_reads((SRC / "lnfold" / "verify.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_numpy_random():
    source = ("import numpy as np\nfrom numpy import random\nimport numpy.random\n"
              "def training_equivalence():\n    return np.random.default_rng(0)\n"
              "def draw():\n    return np.random.default_rng(0)\n")
    assert _numpy_random_reads(source) == [2, 3, 7]
