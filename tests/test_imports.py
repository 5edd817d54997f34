"""Every name a package module imports is read in that module.

A dead-import check in place of a linter: each module under src/lnfold
(except the re-exporting __init__) is parsed with ast. Exempt are
`from __future__` imports and names on a line marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "lnfold").glob("*.py")
                 if p.name != "__init__.py")


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unread_import():
    assert _unread_imports("import os\nfrom typing import Any, Mapping\nx: Any = 1\n") == [
        "line 1: os", "line 2: Mapping"]
