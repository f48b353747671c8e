"""Exception types shared across the engine, the text-input helpers every reader uses,
and the one way files are written."""

from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterable, Iterator


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(EngineError):
    """Inputs are structurally incompatible (symbol tables, empty graphs, bad options)."""


class ParseError(EngineError):
    """A text input (lexicon, ARPA, FST, posterior, manifest) failed to parse."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        prefix = ""
        if source is not None and line is not None:
            prefix = f"{source}:{line}: "
        elif source is not None:
            prefix = f"{source}: "
        elif line is not None:
            prefix = f"line {line}: "
        super().__init__(prefix + message)


class ResourceError(EngineError):
    """A guarded computation exceeded its configured budget."""


class PreconditionError(EngineError):
    """An operation was called on input that violates its stated precondition."""


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file. A byte that is not UTF-8 is a `ParseError`
    citing the file and the line of the first one, as `str.splitlines` counts."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", source=str(path), line=line) from None


def read_line_blocks(path: str | Path, size: int) -> Iterator[str]:
    """The text of a UTF-8 file, read `size` bytes at a time and handed out in
    pieces that each end just after a `\\n` (the last may end anywhere), so
    `str.splitlines` finds the same lines in the pieces as in the whole text.
    A byte that is not UTF-8 raises the `ParseError` that `read_text` raises.

    A `\\n` byte is never part of a longer UTF-8 sequence, so the bytes are
    cut after one and each piece is decoded alone."""
    held: list[bytes | memoryview] = []  # the bytes read since the last `\n`
    with open(path, "rb") as file:
        while True:
            data = file.read(size)
            cut = data.rfind(b"\n") + 1
            if data and not cut:
                held.append(data)
                continue
            held.append(memoryview(data)[:cut])
            try:
                piece = str(b"".join(held), "utf-8")
            except UnicodeDecodeError:
                read_text(path)  # raises the `ParseError` that cites the first bad byte
                raise
            held = [memoryview(data)[cut:]]
            if piece:
                yield piece
            if not data:
                return


def numbered_lines(text: str, comments: bool = False) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) for each non-blank line of `text`;
    with `comments`, lines starting with `#` are skipped too."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not (comments and line[0] == "#"):
            yield lineno, line


def parse_number(text: str, kind: type = float):
    """`kind(text)` for ASCII text without `_`, the rule of every text input; else a `ValueError`."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def parse_count(text: str) -> int:
    """`int(text)` for a count or id of ASCII digits only (no sign, space or `_`); else a `ValueError`."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an ASCII count: {text!r}")
    return int(text)


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to a new file beside `path`, then move it over `path`.

    So `path` holds either its old bytes or all the new ones, never a
    prefix, even when producing a chunk raises. On any failure the new
    file is removed. A symlink at `path` is followed: the file it points
    to is replaced and the link kept. The new file keeps the permission
    bits of the file it replaces, or else gets the mode the umask allows;
    its owner is the writer, and a hard link to the old file keeps the
    old bytes. Something other than a regular file at `path`, such as
    `/dev/stdout` or a pipe, cannot be replaced, so it is written through.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as file:
            file.writelines(chunks)
        return
    path = Path(path).resolve()
    temp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # A buffer of 256 KiB, not 8 KiB, so small chunks (a shard's 512-byte
        # headers between its payloads) reach the file in few large writes.
        with open(temp, "xb", buffering=1 << 18) as file:
            file.writelines(chunks)
        try:
            os.chmod(temp, stat.S_IMODE(path.stat().st_mode))
        except FileNotFoundError:
            pass
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
