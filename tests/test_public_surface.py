"""The library's public surface: its nine modules, and no import that a
module of the package never uses."""

import ast
import importlib
from pathlib import Path

import rodgp

PACKAGE = Path(rodgp.__file__).parent
MODULES = ["cli", "config", "interpolation", "measurements", "prior", "rodsim", "se3", "solver", "study"]


def unused_imports(source: str) -> list:
    """Names that the module's import statements bind and that no
    expression of the module, nor its __all__, reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_the_unused_import_check_sees_each_import_form():
    source = "from __future__ import annotations\nimport a.b\nimport c as d\nfrom e import f, g as h\nh(a)\n"
    assert unused_imports(source) == ["d (line 3)", "f (line 4)"]


def test_the_package_exports_its_nine_modules():
    assert rodgp.__all__ == MODULES
    for name in rodgp.__all__:
        assert getattr(rodgp, name) is importlib.import_module(f"rodgp.{name}")
