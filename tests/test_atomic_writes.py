"""Tier-1 lint: every file the package writes goes through ``write_atomic``."""

import ast
from pathlib import Path

import pytest

import paretomerge

MODULES = sorted(
    p for p in Path(paretomerge.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
WRITER = "write_atomic"


def _opens_for_writing(call: ast.Call) -> bool:
    """``open`` or ``Path.open`` with a mode that writes; a mode that is not a literal counts."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        pos = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        pos = 0
    else:
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] or call.args[pos:pos + 1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or any(
        c in mode.value for c in "wax+"
    )


def direct_writes(source: str) -> list[str]:
    """Calls that write a file outside the body of a function named ``write_atomic``."""
    tree = ast.parse(source)
    inside_writer = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == WRITER
        for node in ast.walk(fn)
    }
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in inside_writer
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes")
            or _opens_for_writing(node)
        )
    ]


def test_guard_flags_direct_writes():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, 'wb')\n"
        "open(p, mode='a')\n"
        "open(p, m)\n"
        "q.open('w')\n"
        "q.write_text(s)\n"
        "q.write_bytes(b)\n"
        "def write_atomic(p, d):\n"
        "    open(p, 'wb')\n"
    )
    assert direct_writes(source) == [f"line {n}" for n in (3, 4, 5, 6, 7, 8)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_only_through_the_atomic_writer(path):
    assert direct_writes(path.read_text(encoding="utf-8")) == []
