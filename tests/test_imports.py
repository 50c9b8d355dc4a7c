"""Every name a program module imports is used in that module, and every
module-level function and class is read somewhere outside its own
definition.

No linter ships with the project, so these guards walk each module's AST.
``__init__.py`` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import concm

MODULES = sorted(p for p in Path(concm.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# besides the program, the readers whose use keeps a definition: the
# acceptance suite and the benchmark, which drive the program's public API
READERS = [ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py"))]


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


def _read_names(node: ast.AST) -> set[str]:
    """Names that ``node`` reads: loaded names, attributes and the names
    imported from a module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unread_definitions(program: dict[str, str], readers: list[str]) -> list[str]:
    """``module:name`` of each module-level function or class of the
    ``program`` sources (module name -> source) that neither a program
    source, outside the definition itself, nor a ``readers`` source reads."""
    read = set().union(*(_read_names(ast.parse(s)) for s in readers))
    defined = []
    for module, source in program.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                read |= _read_names(node) - {node.name}
            else:
                read |= _read_names(node)
    return [f"{module}:{name}" for module, name in defined if name not in read]


def test_guard_sees_an_unread_definition():
    program = {"a": "def f():\n    return f()\n\ndef g():\n    return 1\n",
               "b": "from a import g\n\nclass C:\n    pass\n"}
    assert unread_definitions(program, []) == ["a:f", "b:C"]
    assert unread_definitions(program, ["import b\nb.C()\n"]) == ["a:f"]


def test_every_definition_is_read_outside_itself():
    program = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_definitions(program, readers) == []
