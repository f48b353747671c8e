"""Two rules of the package's layout. Every file the package writes goes
through `errors.write_atomic`, which replaces it whole; no other module
opens a file for writing. And every public function or method is used by
the package, its scripts or its benchmark, not by the tests alone."""

import ast
from pathlib import Path

import ctcdec

PACKAGE = Path(ctcdec.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
WRITE_MODE = set("wax+")


def _file_writes(source: str) -> list[int]:
    """Lines of `source` that call the builtin `open` with a mode that writes
    (or a mode that is not a string literal), or call `.write_text` or `.write_bytes`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or WRITE_MODE & set(mode.value):
                    lines.append(node.lineno)
    return lines


def test_the_check_finds_each_kind_of_write():
    source = """
open(path)
open(path, "rb")
open(path, "wb")
open(path, mode="a")
open(path, "r+b")
open(path, "xb")
open(path, mode)
path.write_text("x")
Path(path).write_bytes(b"x")
gzip.GzipFile(filename="", mode="wb", fileobj=buffer)
"""
    assert _file_writes(source) == [4, 5, 6, 7, 8, 9, 10]


def test_only_errors_writes_files():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py" and (lines := _file_writes(path.read_text(encoding="utf-8")))
    }
    assert found == {}, "write through errors.write_atomic instead"


def _public_defs(source: str) -> list[str]:
    """Names of the public module-level functions and class methods in `source`."""
    found = []
    for node in ast.parse(source).body:
        scope = node.body if isinstance(node, ast.ClassDef) else [node]
        found += [
            fn.name for fn in scope
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")
        ]
    return found


def _names_used(source: str) -> set[str]:
    """Every name `source` reads, calls or imports, attributes included."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_the_unused_check_reads_defs_and_uses():
    source = """
def kept(): pass
def _private(): pass
class Box:
    def read(self): pass
    def _helper(self): pass
    def dropped(self): pass
kept()
Box().read
"""
    assert _public_defs(source) == ["kept", "read", "dropped"]
    assert {"kept", "Box", "read"} <= _names_used(source)
    assert "dropped" not in _names_used(source)


def test_no_public_def_is_used_by_tests_alone():
    sources = [
        path.read_text(encoding="utf-8")
        for where in ("src", "scripts", "bench")
        for path in (ROOT / where).rglob("*.py")
    ]
    used = set().union(*map(_names_used, sources))
    unused = {
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "ctcdec").glob("*.py"))
        for name in _public_defs(path.read_text(encoding="utf-8"))
        if name not in used
    }
    assert unused == set(), "delete them, or move them into tests/ if only a test needs them"
