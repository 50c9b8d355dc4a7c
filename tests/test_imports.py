"""Every name a program module imports is used in that module.

No linter ships with the project, so this guard walks each module's AST.
``__init__.py`` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import concm

MODULES = sorted(p for p in Path(concm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == \
        ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
