"""The package namespace, the examples in its docstrings, and lint checks
on the source tree."""

import ast
import doctest
import importlib
import pathlib
import types

import aqlam

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(aqlam.__all__)) == len(aqlam.__all__)
    for name in aqlam.__all__:
        assert not isinstance(getattr(aqlam, name), types.ModuleType), name


def test_docstring_examples():
    attempted = 0
    for path in sorted((ROOT / "src" / "aqlam").glob("*.py")):
        name = "aqlam" if path.stem == "__init__" else f"aqlam.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 5


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_unused_imports_detected():
    assert unused_imports("import os\nimport os.path\nfrom a import b as c\nos\n") == [
        "c (line 3)"
    ]


def test_no_unused_imports():
    # the package's __init__ imports to re-export, listing the names in __all__
    paths = [*(ROOT / "src" / "aqlam").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    found = {
        str(path.relative_to(ROOT)): unused
        for path in paths
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _named(tree: ast.AST) -> set[str]:
    """Every name a tree mentions: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no module names
    outside their own definition."""
    statements = [  # each top-level statement of each module, with its names
        (name, node, _named(node))
        for name, source in sources.items()
        for node in ast.parse(source).body
    ]
    return [
        f"{name}: {node.name} (line {node.lineno})"
        for name, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def test_unused_private_definitions_detected():
    sources = {
        "a.py": "def _f(): pass\ndef _g(): return _g()\ndef _h(): pass\n"
                "class _C: pass\ndef __dunder__(): pass\n_h()\n",
        "b.py": "from a import _i\nimport a\na._j\n",
        "c.py": "def _i(): pass\ndef _j(): pass\n",
    }
    assert unused_private_definitions(sources) == [
        "a.py: _f (line 1)", "a.py: _g (line 2)", "a.py: _C (line 4)"
    ]


def test_no_unused_private_definitions():
    paths = sorted((ROOT / "src" / "aqlam").glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in paths}
    assert unused_private_definitions(sources) == []
