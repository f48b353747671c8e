"""Pronunciation lexicon: words spelled as sequences of modeling units."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import ParseError, read_text


@dataclass(frozen=True)
class Lexicon:
    entries: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        for word, pron in self.entries:
            if not pron:
                raise ParseError(f"word {word!r} has an empty pronunciation")

    def words(self) -> list[str]:
        return sorted({word for word, _ in self.entries})

    def units(self) -> list[str]:
        return sorted({unit for _, pron in self.entries for unit in pron})


def parse_lexicon(source: str | Iterable[str], *, name: str = "<lexicon>") -> Lexicon:
    """Parse `word unit1 unit2 ...` lines, one entry per line."""
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    entries = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ParseError("expected a word followed by at least one unit", source=name, line=lineno)
        word, pron = parts[0], tuple(parts[1:])
        if (word, pron) in seen:
            raise ParseError(f"duplicate entry for {word!r} /{' '.join(pron)}/", source=name, line=lineno)
        seen.add((word, pron))
        entries.append((word, pron))
    return Lexicon(tuple(entries))


def read_lexicon(path: str | Path) -> Lexicon:
    return parse_lexicon(read_text(path), name=str(path))
