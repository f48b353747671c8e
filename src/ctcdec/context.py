"""Contextual biasing: a boosted phrase trie with failure arcs.

Phrases are chains of biasing units from a shared start state; each match
arc immediately adds the per-unit boost, and every intermediate state owns
a failure arc that takes back exactly the boost accumulated since the last
completed phrase on that path. Matching is greedy: on a mismatch the walk
falls back to the start and retries the current unit once, without
Aho-Corasick suffix links.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, read_text
from .symbols import SymbolTable

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BiasingPhrase:
    surface: str
    units: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise ConfigurationError(f"biasing phrase {self.surface!r} has no units")


class ContextGraph:
    START = 0

    def __init__(self, phrases: Sequence[BiasingPhrase], boost: float = 0.0):
        if not 0 <= boost < math.inf:
            raise ConfigurationError(f"boost must be finite and >= 0, got {boost}")
        if not phrases:
            raise ConfigurationError("no usable biasing phrases: context graph would be empty")
        self.boost = boost
        self._children: list[dict[int, int]] = [{}]
        self._final: list[bool] = [False]
        # (node, width) -> read-only delta row; filled on the first `delta_row` call.
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        seen: set[tuple[int, ...]] = set()
        for phrase in phrases:
            if phrase.units in seen:
                continue
            seen.add(phrase.units)
            self._insert(phrase.units)
        # Per node, the boost matched since the last completed phrase on the
        # root path: what its failure arc takes back. Summed in the walker's
        # own float steps (0.0 at a completed phrase, else the parent's plus
        # the boost), so `advance` and `delta_row` refund it bit for bit.
        self._refund = [0.0] * len(self._children)
        stack = [self.START]
        while stack:
            node = stack.pop()
            for child in self._children[node].values():
                if not self._final[child]:
                    self._refund[child] = self._refund[node] + boost
                stack.append(child)

    def _insert(self, units: tuple[int, ...]) -> None:
        node = self.START
        for unit in units:
            nxt = self._children[node].get(unit)
            if nxt is None:
                nxt = len(self._children)
                self._children.append({})
                self._final.append(False)
                self._children[node][unit] = nxt
            node = nxt
        self._final[node] = True

    # -- inspection ------------------------------------------------------

    def num_states(self) -> int:
        return len(self._children)

    # -- walking ---------------------------------------------------------

    def advance(self, node: int, unit: int) -> tuple[int, float]:
        """Consume one unit; returns the new node and the score delta.

        A match pays +boost up front; completing a phrase banks everything
        pending (a completed phrase can no longer be taken back); a
        mismatch returns exactly the pending boost and retries the unit
        from the start once.
        """
        child = self._children[node].get(unit)
        if child is not None:
            return self._enter(child), self.boost
        delta = -self._refund[node]
        child = self._children[self.START].get(unit)
        if child is not None:
            return self._enter(child), delta + self.boost
        return self.START, delta

    def delta_row(self, node: int, width: int) -> np.ndarray:
        """`advance(node, u)[1]` for every unit u < width, as one read-only row.

        A match pays the boost; a mismatch refunds the pending boost and
        gains the boost again where the unit starts a phrase. The row is
        memoised per node and width.
        """
        key = (node, width)
        row = self._rows.get(key)
        if row is None:
            refund = -self._refund[node]
            row = np.full(width, refund)
            for unit in self._children[self.START]:
                if unit < width:
                    row[unit] = refund + self.boost
            for unit in self._children[node]:
                if unit < width:
                    row[unit] = self.boost
            row.flags.writeable = False
            self._rows[key] = row
        return row

    def _enter(self, child: int) -> int:
        # Keep walking past a completed phrase only while a longer one can still complete.
        if self._final[child] and not self._children[child]:
            return self.START
        return child


def phrase_units(surface: str, table: SymbolTable, mode: str) -> tuple[int, ...] | None:
    """Split a phrase into biasing-unit ids; None when a unit is unresolvable.

    char mode tokenizes into characters (whitespace dropped); word mode
    splits on whitespace.
    """
    if mode == "char":
        tokens = [ch for ch in surface if not ch.isspace()]
    elif mode == "word":
        tokens = surface.split()
    else:
        raise ConfigurationError(f"unknown biasing mode {mode!r}")
    ids = []
    for token in tokens:
        token_id = table.get_id(token)
        if token_id is None:
            return None
        ids.append(token_id)
    return tuple(ids) if ids else None


def load_biasing_phrases(
    source: str | Path | Iterable[str],
    table: SymbolTable,
    mode: str,
) -> list[BiasingPhrase]:
    """Read one phrase per line, warning about (and skipping) unresolvable ones.

    A `str` or `Path` names a file, which must exist; any other iterable
    yields the lines themselves.
    """
    if isinstance(source, (str, Path)):
        lines = read_text(source).splitlines()
    else:
        lines = list(source)
    phrases = []
    for raw in lines:
        surface = raw.strip()
        if not surface:
            continue
        units = phrase_units(surface, table, mode)
        if units is None:
            logger.warning("skipping biasing phrase %r: unit not in the active symbol table", surface)
            continue
        phrases.append(BiasingPhrase(surface, units))
    return phrases
