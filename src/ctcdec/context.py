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

from .errors import ConfigurationError
from .symbols import SymbolTable

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BiasingPhrase:
    surface: str
    units: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise ConfigurationError(f"biasing phrase {self.surface!r} has no units")


@dataclass(frozen=True)
class ContextState:
    """Walker position: trie node plus the boost not yet locked in by a match."""

    node: int
    pending: float = 0.0


class ContextGraph:
    START = 0

    def __init__(self, phrases: Sequence[BiasingPhrase], boost: float = 0.0):
        if not 0 <= boost < math.inf:
            raise ConfigurationError(f"boost must be finite and >= 0, got {boost}")
        if not phrases:
            raise ConfigurationError("no usable biasing phrases: context graph would be empty")
        self.boost = boost
        self.phrases = tuple(phrases)
        self._children: list[dict[int, int]] = [{}]
        self._final: list[bool] = [False]
        self._depth: list[int] = [0]
        self._banked: list[int] = [0]  # depth of deepest completed phrase on the root path
        # (node, width) -> (delta row at pending 0, mask of mismatching units);
        # filled on a node's first `delta_row` call.
        self._rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        seen: set[tuple[int, ...]] = set()
        for phrase in phrases:
            if phrase.units in seen:
                continue
            seen.add(phrase.units)
            self._insert(phrase.units)
        self._refresh_banked()

    def _insert(self, units: tuple[int, ...]) -> None:
        node = self.START
        for unit in units:
            nxt = self._children[node].get(unit)
            if nxt is None:
                nxt = len(self._children)
                self._children.append({})
                self._final.append(False)
                self._depth.append(self._depth[node] + 1)
                self._banked.append(0)
                self._children[node][unit] = nxt
            node = nxt
        self._final[node] = True

    def _refresh_banked(self) -> None:
        stack = [(self.START, 0)]
        while stack:
            node, banked = stack.pop()
            if self._final[node]:
                banked = self._depth[node]
            self._banked[node] = banked
            stack.extend((child, banked) for child in self._children[node].values())

    # -- inspection ------------------------------------------------------

    def num_states(self) -> int:
        return len(self._children)

    def is_final(self, node: int) -> bool:
        return self._final[node]

    def depth(self, node: int) -> int:
        return self._depth[node]

    def match_arcs(self, node: int) -> dict[int, int]:
        return dict(self._children[node])

    def failure_weight(self, node: int) -> float:
        """Weight of the failure arc back to start; 0.0 where no arc is needed."""
        if node == self.START or self._final[node]:
            return 0.0
        return -(self._depth[node] - self._banked[node]) * self.boost

    def initial_state(self) -> ContextState:
        return ContextState(self.START, 0.0)

    # -- walking ---------------------------------------------------------

    def advance(self, state: ContextState, unit: int) -> tuple[ContextState, float]:
        """Consume one unit; returns the new state and the score delta.

        A match pays +boost up front; completing a phrase banks everything
        pending (a completed phrase can no longer be taken back); a
        mismatch returns exactly the pending boost and retries the unit
        from the start once.
        """
        node, pending = state.node, state.pending
        child = self._children[node].get(unit)
        if child is not None:
            return self._enter(child, pending)
        delta = -pending
        child = self._children[self.START].get(unit)
        if child is not None:
            nxt, gain = self._enter(child, 0.0)
            return nxt, delta + gain
        return ContextState(self.START, 0.0), delta

    def delta_row(self, state: ContextState, width: int) -> np.ndarray:
        """`advance(state, u)[1]` for every unit u < width, as one row.

        A match pays the boost; a mismatch refunds the pending boost and
        gains the boost again where the unit starts a phrase. Only the
        refund depends on `pending`, so the row is memoised per node and
        width and the refund is applied on the mismatch columns. At
        `pending == 0` the memoised row itself is returned, read-only.
        """
        key = (state.node, width)
        memo = self._rows.get(key)
        if memo is None:
            base = np.zeros(width)
            for unit in self._children[self.START]:
                if unit < width:
                    base[unit] = self.boost
            miss = np.ones(width, dtype=bool)
            for unit in self._children[state.node]:
                if unit < width:
                    base[unit] = self.boost
                    miss[unit] = False
            base.flags.writeable = False
            memo = self._rows[key] = (base, miss)
        base, miss = memo
        if state.pending == 0.0:
            return base
        row = base.copy()
        row[miss] -= state.pending
        return row

    def _enter(self, child: int, pending: float) -> tuple[ContextState, float]:
        pending += self.boost
        if self._final[child]:
            # Keep walking only while a longer phrase can still complete.
            node = child if self._children[child] else self.START
            return ContextState(node, 0.0), self.boost
        return ContextState(child, pending), self.boost


def score_hypothesis(units: Iterable[int], graph: ContextGraph | None) -> float:
    """Fold of `ContextGraph.advance` over a unit sequence from the start state."""
    if graph is None:
        return 0.0
    state = graph.initial_state()
    total = 0.0
    for unit in units:
        state, delta = graph.advance(state, unit)
        total += delta
    return total


def phrase_units(surface: str, table: SymbolTable, mode: str) -> tuple[int, ...] | None:
    """Split a phrase into biasing-unit ids; None when a unit is unresolvable.

    char mode tokenizes into characters (whitespace dropped); word mode
    splits on whitespace, falling back to the whole phrase as one word.
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
        lines = Path(source).read_text(encoding="utf-8").splitlines()
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
