"""Exception types shared across the engine, and the text-input helpers every reader uses."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


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
