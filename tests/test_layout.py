"""Every file the package writes goes through `errors.write_atomic`, which
replaces it whole; no other module opens a file for writing."""

import ast
from pathlib import Path

import ctcdec

PACKAGE = Path(ctcdec.__file__).parent
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
