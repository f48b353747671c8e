"""Second-pass n-best rescoring: bidirectional score fusion over pluggable scorers.

The fused total is

    ctc_weight * first_pass + (1 - alpha) * l2r(units) + alpha * r2l(reversed units)

where first_pass is the decoder's combined CTC + context (+ LM) score.
Scorers are arbitrary deterministic sequence -> log-score callables; the
table scorer doubles as the file-backed stand-in for neural decoders.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Protocol, Sequence

from .decode import NEG_INF, Hypothesis, NBestList
from .errors import ConfigurationError, ParseError
from .symbols import SymbolTable

logger = logging.getLogger(__name__)


class SequenceScorer(Protocol):
    direction: str

    def score(self, units: Sequence) -> float: ...


@dataclass(frozen=True)
class FusionWeights:
    alpha: float = 0.3
    ctc_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ConfigurationError("alpha must be in [0, 1]")
        if not 0 <= self.ctc_weight < math.inf:
            raise ConfigurationError("ctc_weight must be finite and >= 0")


@dataclass
class TableScorer:
    """Explicit sequence -> log-score map; unknown sequences score -inf."""

    scores: dict[tuple, float] = field(default_factory=dict)
    direction: str = "l2r"

    def score(self, units: Sequence) -> float:
        return self.scores.get(tuple(units), NEG_INF)

    @classmethod
    def from_file(
        cls,
        path: str | Path,
        table: SymbolTable | None = None,
        direction: str = "l2r",
    ) -> "TableScorer":
        """Parse `score token1 token2 ...` lines; with a symbol table the
        keys become id tuples, otherwise token-string tuples."""
        scores: dict[tuple, float] = {}
        source = str(path)
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                try:
                    value = float(parts[0])
                except ValueError:
                    raise ParseError(f"non-numeric score {parts[0]!r}", source=source, line=lineno) from None
                tokens = parts[1:]
                if table is not None:
                    ids = []
                    unknown = None
                    for token in tokens:
                        token_id = table.get_id(token)
                        if token_id is None:
                            unknown = token
                            break
                        ids.append(token_id)
                    if unknown is not None:
                        logger.warning("%s:%d: token %r not in table; entry unreachable", source, lineno, unknown)
                        continue
                    key = tuple(ids)
                else:
                    key = tuple(tokens)
                scores[key] = value
        return cls(scores, direction)


def reverse_labels(units: Sequence) -> tuple:
    return tuple(reversed(tuple(units)))


def rescore_nbest(
    nbest: NBestList,
    l2r: SequenceScorer,
    r2l: SequenceScorer,
    weights: FusionWeights | None = None,
) -> NBestList:
    """Re-rank an n-best list by fused first-pass and attention-style scores.

    The output is a permutation of the input with attention scores
    recorded; hypotheses whose scorer raises keep -inf for that component
    and sink to the bottom.
    """
    if not len(nbest):
        raise ConfigurationError("cannot rescore an empty n-best list")
    w = weights if weights is not None else FusionWeights()
    rescored = []
    for hyp in nbest:
        fwd = _safe_score(l2r, hyp.units, "l2r", hyp)
        bwd = _safe_score(r2l, reverse_labels(hyp.units), "r2l", hyp)
        # Zero-weight components are dropped outright so a -inf score on a
        # disabled side cannot poison the total (0 * -inf is nan).
        total = 0.0
        if w.ctc_weight != 0:
            total += w.ctc_weight * hyp.first_pass_score()
        if w.alpha != 1:
            total += (1 - w.alpha) * fwd
        if w.alpha != 0:
            total += w.alpha * bwd
        rescored.append(replace(hyp, total_score=total, score_l2r=fwd, score_r2l=bwd))
    rescored.sort(key=lambda h: (-h.total_score, h.units))
    return NBestList(rescored)


def _safe_score(scorer: SequenceScorer, units: tuple, name: str, hyp: Hypothesis) -> float:
    try:
        return scorer.score(units)
    except Exception as exc:  # scorer failure must not abort the whole list
        logger.warning("%s scorer failed on %s: %s", name, list(hyp.units), exc)
        return NEG_INF
