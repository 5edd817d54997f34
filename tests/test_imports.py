"""Every name a package module imports is read in that module, every public
name a package module defines is read somewhere, and verify draws its inputs
without numpy's generators.

A dead-import check in place of a linter: each module under src/lnfold
(except the re-exporting __init__) is parsed with ast. Exempt are
`from __future__` imports and, on a line marked `# noqa: F401`, a name that
lnbench's tracer patches in that module: a `SPANS` entry or a module-level
`COUNTS` entry of lnbench/tracing.py.

A dead-name check: each public module-level function, class or constant of
a package module must be read in some package module (outside __init__ and
its own definition) or in lnbench/, where the tracer names functions as
strings. A read is a loaded name, an imported name, or an attribute of a
package module (`cli.main`). KEPT_UNREAD exempts the few names kept for
what they check, each with its reason, and an exemption lapses as soon as
its name is gone or gains a reader.

A one-rule check: report types serialize through jsonutil.plain, so no
class under src/lnfold defines to_json except those in OWN_TO_JSON, each
with its reason. A one-reader check: a fold report is read by rebuilding it
from its decisions and comparing, so no class under src/lnfold defines
from_json.

verify's sampled checks draw from a stream lnfold defines itself, so their
output does not change when numpy changes its generator algorithms: verify
reads np.random nowhere.

A one-loop check: the steps every sampled check shares (drawing the trial
batches, sizing them, picking the default tol) are each called from one
function in src/lnfold, verify's runner, so a change to how a check is
run or judged is made in one place. No function in verify calls the names
it imports only for the tracer to patch.

A no-helper check: every call of the engine's forward, backward or
reverse_steps in verify sits inside one of its three public checks, so what
each scheme reads and how its gradients are projected and paired stays in
the check itself.
"""

import ast
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest
from test_tracer_hooks import tracing

SRC = Path(__file__).parent.parent / "src"
MODULES = sorted(p for p in (SRC / "lnfold").glob("*.py") if p.name != "__init__.py")
LNBENCH = Path(__file__).parent.parent / "lnbench"


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


# Public names that no command reads, kept on purpose.
KEPT_UNREAD = {
    "check_zero_mean": "the zero-mean probe of one node; the fold tests check every centered layer with it",
    "constraint_residual": "acceptance criterion 6 measures each family's centering with it",
    "model_speedup_estimate": "the paper's end-to-end saving, for a per-node timing report to call",
}


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public module-level functions, classes and constants, with their definitions."""
    names: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in names.items() if not name.startswith("_")}


def _reads(tree: ast.Module, modules: set[str], skip: ast.AST | None = None, strings: bool = False) -> set[str]:
    """Names tree reads outside skip: loaded and imported names, attributes of
    the named modules and, with strings, every string constant."""
    skipped = {id(node) for node in ast.walk(skip)} if skip else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _unread_names(package: dict[str, str], outside: tuple[str, ...] = ()) -> list[str]:
    """module.name for each public name of the package's modules (name ->
    source) read in none of them, bar its own definition, nor in outside."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    read_in = {module: _reads(tree, set(trees)) for module, tree in trees.items()}
    read_outside = set().union(*(_reads(ast.parse(source), set(trees), strings=True) for source in outside))
    unread = []
    for module, tree in trees.items():
        for name, definition in _defined(tree).items():
            if name in read_outside or any(name in read_in[other] for other in trees if other != module):
                continue
            if name not in _reads(tree, set(trees), definition):
                unread.append(f"{module}.{name}")
    return unread


def _stale_exemptions(unread: list[str], kept: Mapping[str, str]) -> list[str]:
    """The kept names not among the unread module.name entries: names no
    package module defines any more, or that some module or lnbench/ reads."""
    names = {name.split(".")[1] for name in unread}
    return [name for name in kept if name not in names]


def _unread_in_repo() -> list[str]:
    package = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    outside = tuple(p.read_text(encoding="utf-8") for p in sorted(LNBENCH.rglob("*.py")))
    return _unread_names(package, outside)


def test_every_public_name_is_read():
    assert [name for name in _unread_in_repo() if name.split(".")[1] not in KEPT_UNREAD] == []


def test_every_exemption_is_still_needed():
    assert _stale_exemptions(_unread_in_repo(), KEPT_UNREAD) == []


def test_the_check_sees_an_unread_name():
    package = {
        "ops": "LIMIT = 3\nclass Op:\n    def again(self):\n        return Op()\ndef used():\n    return LIMIT\n"
               "def traced():\n    pass\ndef _private():\n    pass\n",
        "cli": "from . import ops\ndef main():\n    return ops.used()\n",
    }
    # Op reads only itself; main is read only outside, traced only as a string there.
    assert _unread_names(package) == ["ops.Op", "ops.traced", "cli.main"]
    assert _unread_names(package, ("from lnfold import cli\ncli.main()\nSPANS = [('ops', 'traced')]\n",)) == [
        "ops.Op"]


def test_the_check_sees_a_stale_exemption():
    package = {
        "ops": "class Op:\n    pass\ndef used():\n    pass\n",
        "cli": "from . import ops\ndef main():\n    return ops.used()\n",
    }
    kept = {"Op": "still unread", "used": "cli reads it now", "gone": "no longer defined"}
    # main is unread too, but not exempted: the other check reports it.
    assert _stale_exemptions(_unread_names(package), kept) == ["used", "gone"]


# Classes whose JSON is not their fields in declaration order.
OWN_TO_JSON = {
    "FoldReport": "adds format_version and counts, and writes entries and targets as sorted, keyed lists",
    "EquivalenceReport": "writes passed as pass, which is a Python keyword",
}


def _classes_defining(source: str, method: str) -> list[str]:
    """The classes in source that define the named method."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == method for item in node.body)]


def _package_classes_defining(method: str) -> list[str]:
    return [name for path in MODULES for name in _classes_defining(path.read_text(encoding="utf-8"), method)]


def test_report_types_serialize_through_one_rule():
    assert sorted(_package_classes_defining("to_json")) == sorted(OWN_TO_JSON)


_METHODS_SOURCE = ("class Spec:\n    def to_json(self):\n        return {}\n"
                   "class Other:\n    def from_json(doc):\n        pass\n"
                   "def to_json():\n    pass\n")


def test_the_check_sees_a_to_json():
    assert _classes_defining(_METHODS_SOURCE, "to_json") == ["Spec"]


def test_reports_are_read_by_comparison():
    assert _package_classes_defining("from_json") == []


def test_the_check_sees_a_from_json():
    assert _classes_defining(_METHODS_SOURCE, "from_json") == ["Other"]


def test_cli_import_loads_no_thread_pool():
    # concurrent.futures loads logging, a few ms more at every command's
    # start; cli imports it only where verify --grad overlaps its checks.
    code = "import sys, lnfold.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _numpy_random_reads(source: str) -> list[int]:
    """Lines that read np.random or import numpy.random."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
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
              "def draw():\n    return np.random.default_rng(0)\n")
    assert _numpy_random_reads(source) == [2, 3, 5]


# The shared steps of verify's sampled checks, and the one function that calls them.
SAMPLED_STEPS = ("_trial_batches", "_live_peak", "default_tol")
RUNNER = "verify._sampled"


def _callers(source: str, names: tuple[str, ...] = SAMPLED_STEPS, outer: bool = False) -> dict[str, set[str]]:
    """For each of names, the functions in source that call it, each named
    by its innermost enclosing def, or with outer its outermost ("" at
    module level)."""
    found: dict[str, set[str]] = {name: set() for name in names}

    def visit(node: ast.AST, fn: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (outer and fn):
            fn = node.name
        elif isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee in found:
                found[callee].add(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), "")
    return found


def test_one_function_runs_every_sampled_check():
    callers: dict[str, set[str]] = {name: set() for name in SAMPLED_STEPS}
    for path in MODULES:
        for name, fns in _callers(path.read_text(encoding="utf-8")).items():
            callers[name] |= {f"{path.stem}.{fn}" for fn in fns}
    assert callers == {name: {RUNNER} for name in SAMPLED_STEPS}


def test_the_check_sees_a_second_caller():
    source = ("def _sampled():\n    return default_tol(w), _live_peak(g, s)\n"
              "def check():\n    def start():\n        return [verify.default_tol(w) for w in ws]\n"
              "    return start\n"
              "_trial_batches(g, 0, 1, 1)\n")
    assert _callers(source) == {"_trial_batches": {""}, "_live_peak": {"_sampled"},
                                "default_tol": {"_sampled", "start"}}


# Names verify imports only so that lnbench's tracer can patch them there.
TRACER_ONLY = ("detect_foldable", "infer_shapes")


def test_verify_calls_no_tracer_only_name():
    source = (SRC / "lnfold" / "verify.py").read_text(encoding="utf-8")
    assert _callers(source, TRACER_ONLY) == {name: set() for name in TRACER_ONLY}


# verify's public checks: the only functions there that run the engine.
CHECKS = ("verify_forward", "verify_gradients", "check_zero_mean")
ENGINE = ("forward", "backward", "reverse_steps")


def _engine_runners(source: str) -> set[str]:
    """The module-level functions of source that call an ENGINE function,
    directly or in a function nested in them."""
    return set().union(*_callers(source, ENGINE, outer=True).values())


def test_only_the_public_checks_run_the_engine():
    assert _engine_runners((SRC / "lnfold" / "verify.py").read_text(encoding="utf-8")) <= set(CHECKS)


def test_the_check_sees_a_helper_run_the_engine():
    source = ("def check():\n    def measure(inputs):\n        return forward(g, w, inputs)\n    return measure\n"
              "def _helper(tape):\n    return tensor_math.backward(tape, [])\n"
              "def _walk(tape):\n    return list(reverse_steps(tape, []))\n")
    assert _callers(source, ENGINE) == {"forward": {"measure"}, "backward": {"_helper"}, "reverse_steps": {"_walk"}}
    assert _engine_runners(source) == {"check", "_helper", "_walk"}
