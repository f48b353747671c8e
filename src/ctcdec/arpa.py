"""ARPA backoff n-gram model parsing.

Log probabilities and backoff weights are kept in base 10 exactly as they
appear in the file; conversion to the engine's negative-natural-log domain
happens when the grammar FST is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, numbered_lines, parse_count, parse_number, read_text

SENTENCE_START = "<s>"
SENTENCE_END = "</s>"

# Log10 probability used for contexts synthesized during lenient closure
# repair; low enough that the repaired arc never beats a real path.
_SYNTHETIC_LOGPROB = -99.0

_INF = float("inf")


class NgramEntry(NamedTuple):
    words: tuple[str, ...]
    logprob: float
    backoff: float | None = None


@dataclass
class ArpaModel:
    orders: dict[int, list[NgramEntry]] = field(default_factory=dict)

    @property
    def max_order(self) -> int:
        return max(self.orders, default=0)

    def entries(self, order: int) -> list[NgramEntry]:
        return self.orders.get(order, [])

    def vocabulary(self) -> set[str]:
        return {entry.words[0] for entry in self.entries(1)}

    def all_words(self) -> set[str]:
        """Every word appearing at any order (unigram-less words included)."""
        return {word for entries in self.orders.values() for entry in entries for word in entry.words}

    def index(self) -> dict[tuple[str, ...], NgramEntry]:
        table: dict[tuple[str, ...], NgramEntry] = {}
        for entries in self.orders.values():
            for entry in entries:
                table[entry.words] = entry
        return table


def parse_arpa(text: str, *, strict: bool = False, name: str = "<arpa>") -> ArpaModel:
    """Parse ARPA text into an ArpaModel.

    With strict=False (the default), n-grams whose (n-1)-word prefix is
    missing at the lower order get that prefix synthesized with a floor
    probability and zero backoff; with strict=True they are an error.
    """
    declared: dict[int, int] = {}
    orders: dict[int, list[NgramEntry]] = {}
    section = "preamble"
    current_order = 0
    entry_lines: dict[tuple[str, ...], int] = {}
    saw_data = False
    saw_end = False

    for lineno, line in numbered_lines(text):
        header = line[0] == "\\" and (line in ("\\data\\", "\\end\\") or line.endswith("-grams:"))
        if section == "ngrams" and not header:
            parts = line.split()
            if len(parts) < current_order + 1:
                raise ParseError(
                    f"expected logprob plus {current_order} words", source=name, line=lineno
                )
            try:
                logprob = parse_number(parts[0])
            except ValueError:
                raise ParseError(f"non-numeric log probability {parts[0]!r}", source=name, line=lineno) from None
            if not logprob < _INF:  # -inf (probability 0) is allowed
                raise ParseError(f"log probability {parts[0]!r} is NaN or +inf", source=name, line=lineno)
            words = tuple(parts[1 : 1 + current_order])
            backoff: float | None = None
            if len(parts) == current_order + 2:
                try:
                    backoff = parse_number(parts[-1])
                except ValueError:
                    raise ParseError(f"non-numeric backoff weight {parts[-1]!r}", source=name, line=lineno) from None
                if not backoff < _INF:
                    raise ParseError(f"backoff weight {parts[-1]!r} is NaN or +inf", source=name, line=lineno)
            elif len(parts) > current_order + 2:
                raise ParseError("too many fields for this order", source=name, line=lineno)
            orders[current_order].append(NgramEntry(words, logprob, backoff))
            entry_lines[words] = lineno
        elif line == "\\data\\":
            saw_data = True
            section = "data"
        elif line == "\\end\\":
            saw_end = True
            section = "done"
        elif header:
            if not saw_data:
                raise ParseError("n-gram section before \\data\\", source=name, line=lineno)
            try:
                current_order = parse_count(line[1:-len("-grams:")].strip())
            except ValueError:
                current_order = 0
            if current_order < 1:
                raise ParseError(f"bad section header {line!r}", source=name, line=lineno)
            orders.setdefault(current_order, [])
            section = "ngrams"
        elif section == "data":
            if not line.startswith("ngram "):
                raise ParseError(f"unexpected line in \\data\\ section: {line!r}", source=name, line=lineno)
            order_text, equals, count_text = line[len("ngram "):].partition("=")
            try:
                order, count = parse_count(order_text.strip()), parse_count(count_text.strip())
            except ValueError:
                order = 0
            if not equals or order < 1:
                raise ParseError(f"bad count line {line!r}", source=name, line=lineno)
            declared[order] = count
        elif section == "done":
            raise ParseError(f"unexpected line after \\end\\: {line!r}", source=name, line=lineno)
        # lines before \data\ (headers, comments) are ignored

    if not saw_data:
        raise ParseError("missing \\data\\ section", source=name)
    if not saw_end:
        raise ParseError("missing \\end\\ marker", source=name)
    for order, count in declared.items():
        actual = len(orders.get(order, []))
        if actual != count:
            raise ParseError(
                f"\\data\\ declares {count} {order}-grams but {actual} were present",
                source=name,
            )
    for order in orders:
        if order not in declared:
            raise ParseError(f"{order}-gram section was not declared in \\data\\", source=name)

    model = ArpaModel(orders)
    _repair_closure(model, strict=strict, name=name, entry_lines=entry_lines)
    return model


def _repair_closure(
    model: ArpaModel,
    *,
    strict: bool,
    name: str,
    entry_lines: dict[tuple[str, ...], int],
) -> None:
    """Ensure every n-gram's (n-1)-prefix exists one order down."""
    for order in sorted(model.orders):
        if order == 1:
            continue
        known = {entry.words for entry in model.entries(order - 1)}
        for entry in model.entries(order):
            prefix = entry.words[:-1]
            if prefix in known:
                continue
            if strict:
                raise ParseError(
                    f"{order}-gram {' '.join(entry.words)!r} has no {order - 1}-gram prefix",
                    source=name,
                    line=entry_lines.get(entry.words),
                )
            model.orders.setdefault(order - 1, []).append(
                NgramEntry(prefix, _SYNTHETIC_LOGPROB, 0.0)
            )
            known.add(prefix)


def read_arpa(path: str | Path, *, strict: bool = False) -> ArpaModel:
    return parse_arpa(read_text(path), strict=strict, name=str(path))
