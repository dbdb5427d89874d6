"""Tier-1 lint: every module of the package uses each name it imports,
imports only modules of lower layers, and every module-level private name is
used by some module of the package."""

import ast
from pathlib import Path

import pytest

import paretomerge

MODULES = sorted(
    p for p in Path(paretomerge.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        "line 1: os",
        "line 2: e",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level ``_private`` def, class or
    assigned name that no module of ``sources`` (name -> source) reads, by
    name, as an attribute or in an import."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_guard_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "_A, _B = 1, 2\n_C: int = 3\ndef _f():\n    return _A\nclass _K:\n    pass\n",
        "b.py": "from a import _K\nimport a\nprint(a._C)\n_f = None\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _B", "a.py: _f", "b.py: _f"]


def test_package_references_every_private_name():
    package = Path(paretomerge.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert unreferenced_private_names(sources) == []


# The package's modules from the bottom layer up: each imports only modules
# before it in this list.
LAYERS = ["errors", "checkpoint", "merge", "evaluation", "reporting", "sampling", "nsga2", "cli",
          "__main__"]


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports anywhere, by relative
    import: ``from .m import x`` and ``from . import m`` both import ``m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_guard_reads_relative_imports():
    source = "import os\nfrom os import path\nfrom . import a, b\nfrom .c import d\n" \
             "def f():\n    from .e import g\n"
    assert package_imports(source) == {"a", "b", "c", "e"}


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(p.stem for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    lower = set(LAYERS[: LAYERS.index(path.stem)])
    assert package_imports(path.read_text(encoding="utf-8")) - lower == set()
