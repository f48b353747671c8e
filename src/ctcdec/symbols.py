"""Bidirectional symbol <-> integer id tables.

FST symbol tables reserve id 0 for epsilon (`<eps>`); the acoustic token
table used by decoders instead places `<blank>` at id 0 and has no epsilon.
Both cases are served by the same class, the convention is set by whoever
builds the table.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigurationError, ParseError, numbered_lines, parse_count, read_text, write_atomic

EPSILON = 0
EPSILON_SYMBOL = "<eps>"
BLANK_SYMBOL = "<blank>"


class SymbolTable:
    def __init__(self) -> None:
        self._sym_to_id: dict[str, int] = {}
        self._id_to_sym: dict[int, str] = {}
        self._next_id = 0  # the largest id + 1 (at least 0), which an add without an id takes

    @classmethod
    def with_epsilon(cls, symbols: Iterable[str] = ()) -> "SymbolTable":
        """A table with `<eps>` at 0 and `symbols` at 1, 2, ...

        A symbol already in the table, `<eps>` itself or one given twice, is
        a `ConfigurationError` naming it: it would keep its old id, and every
        symbol after it would land one id below its position.
        """
        sym_to_id = {EPSILON_SYMBOL: EPSILON}
        for sym in symbols:
            next_id = len(sym_to_id)
            if sym_to_id.setdefault(sym, next_id) != next_id:
                raise ConfigurationError(f"symbol {sym!r} is already in the table, at id {sym_to_id[sym]}")
        table = cls()
        table._sym_to_id = sym_to_id
        table._id_to_sym = {sym_id: sym for sym, sym_id in sym_to_id.items()}
        table._next_id = len(sym_to_id)
        return table

    def add(self, symbol: str, symbol_id: int | None = None) -> int:
        """Map `symbol` to `symbol_id`, or, with no id, to the largest id + 1
        (at least 0); returns the id."""
        if symbol in self._sym_to_id:
            existing = self._sym_to_id[symbol]
            if symbol_id is not None and symbol_id != existing:
                raise ValueError(f"symbol {symbol!r} already mapped to id {existing}")
            return existing
        if symbol_id is None:
            symbol_id = self._next_id
        if symbol_id in self._id_to_sym:
            raise ValueError(f"id {symbol_id} already mapped to {self._id_to_sym[symbol_id]!r}")
        self._sym_to_id[symbol] = symbol_id
        self._id_to_sym[symbol_id] = symbol
        if symbol_id >= self._next_id:
            self._next_id = symbol_id + 1
        return symbol_id

    def get_id(self, symbol: str) -> int | None:
        return self._sym_to_id.get(symbol)

    def symbol_of(self, symbol_id: int) -> str:
        return self._id_to_sym[symbol_id]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._sym_to_id

    def __len__(self) -> int:
        return len(self._sym_to_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolTable):
            return NotImplemented
        return self._sym_to_id == other._sym_to_id

    def __iter__(self) -> Iterator[tuple[str, int]]:
        """Pairs (symbol, id) in increasing id order."""
        for symbol_id in sorted(self._id_to_sym):
            yield self._id_to_sym[symbol_id], symbol_id

    def ids(self) -> list[int]:
        return sorted(self._id_to_sym)

    def copy(self) -> "SymbolTable":
        out = SymbolTable()
        out._sym_to_id = dict(self._sym_to_id)
        out._id_to_sym = dict(self._id_to_sym)
        out._next_id = self._next_id
        return out

    def to_text(self) -> str:
        return "".join(f"{sym} {sym_id}\n" for sym, sym_id in self)

    def write(self, path: str | Path) -> None:
        write_atomic(path, [self.to_text().encode("utf-8")])

    @classmethod
    def read(cls, path: str | Path) -> "SymbolTable":
        table = cls()
        source = str(path)
        for lineno, line in numbered_lines(read_text(path)):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected 'symbol id'", source=source, line=lineno)
            try:
                sym_id = parse_count(parts[1])
            except ValueError:
                raise ParseError(f"bad symbol id {parts[1]!r}", source=source, line=lineno) from None
            try:
                table.add(parts[0], sym_id)
            except ValueError as exc:
                raise ParseError(str(exc), source=source, line=lineno) from None
        return table
