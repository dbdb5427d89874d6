"""Tier-1 lint: every file the package writes goes through ``write_atomic``,
which replaces a file, or ``append_bytes``, which extends one."""

import ast
from pathlib import Path

import pytest

import paretomerge

MODULES = sorted(
    p for p in Path(paretomerge.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
WRITERS = ("write_atomic", "append_bytes")
# Descriptor-level calls that open, write or cut a file.
OS_WRITES = ("open", "write", "writev", "pwrite", "pwritev", "ftruncate", "truncate")


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


def _os_write(call: ast.Call) -> bool:
    """``os.open``, ``os.write``, ``os.ftruncate`` and the like, whatever the flags."""
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr in OS_WRITES
            and isinstance(func.value, ast.Name) and func.value.id == "os")


def direct_writes(source: str) -> list[str]:
    """Calls that write a file outside the body of a function named in ``WRITERS``."""
    tree = ast.parse(source)
    inside_writer = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in WRITERS
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
            or _os_write(node)
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
        "os.open(p, os.O_RDONLY)\n"
        "os.open(p, os.O_WRONLY | os.O_APPEND)\n"
        "os.write(fd, b)\n"
        "os.ftruncate(fd, 0)\n"
        "os.pwrite(fd, b, 0)\n"
        "os.read(fd, 1)\n"
        "os.preadv(fd, [b], 0)\n"
        "def append_bytes(p, d):\n"
        "    fd = os.open(p, os.O_WRONLY | os.O_APPEND)\n"
        "    os.write(fd, d)\n"
        "    os.ftruncate(fd, 0)\n"
    )
    assert direct_writes(source) == [f"line {n}" for n in (3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_writes_only_through_the_atomic_writer(path):
    assert direct_writes(path.read_text(encoding="utf-8")) == []
