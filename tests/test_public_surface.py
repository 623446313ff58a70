"""The library's public surface: its nine modules, no import that a module
of the package never uses, and no public function or class that only the
tests use."""

import ast
import importlib
import re
from pathlib import Path

import rodgp

PACKAGE = Path(rodgp.__file__).parent
ROOT = PACKAGE.parent.parent
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


def unused_public_names(sources: dict, other_text: str) -> list:
    """module.name of every public top-level function and class of the
    modules `sources` (file name -> source) whose name appears outside its
    own definition on no line of those modules and nowhere in other_text."""
    lines = [(file, i, line) for file, source in sources.items() for i, line in enumerate(source.splitlines(), 1)]
    found = []
    for file, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                word = re.compile(rf"\b{node.name}\b")
                outside = (line for f, i, line in lines if f != file or not node.lineno <= i <= node.end_lineno)
                if not word.search(other_text) and not any(map(word.search, outside)):
                    found.append(f"{file.removesuffix('.py')}.{node.name}")
    return sorted(found)


def test_every_public_name_is_used_outside_the_tests():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    others = [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    assert unused_public_names(sources, "\n".join(path.read_text(encoding="utf-8") for path in others)) == []


def test_the_unused_public_name_check_sees_each_use():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef unused():\n    \"\"\"unused calls itself.\"\"\"\n    unused()\n",
        "b.py": "from .a import used\n\n\nclass Documented:\n    pass\n\n\nclass _Private:\n    pass\n",
    }
    assert unused_public_names(sources, "see Documented") == ["a.unused"]
    assert unused_public_names(sources, "") == ["a.unused", "b.Documented"]


def test_the_package_exports_its_nine_modules():
    assert rodgp.__all__ == MODULES
    for name in rodgp.__all__:
        assert getattr(rodgp, name) is importlib.import_module(f"rodgp.{name}")
