"""First-pass CTC search: prefix beam search and WFST beam search over TLG.

Both searches share one streaming contract, `StreamingDecoder`: construct
a decoder, feed posterior chunks through `advance`, and call `finalize`
for the n-best list (`decode` does both over one matrix). Results are
bit-identical however the frames are chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .context import ContextGraph
from .errors import ConfigurationError, ParseError
from .fst import WeightedFst
from .symbols import SymbolTable

NEG_INF = float("-inf")


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without leaving the log domain."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


# -- posteriors ----------------------------------------------------------


class PosteriorMatrix:
    """Frames x tokens natural-log probabilities; column 0 is the blank."""

    def __init__(self, logprobs: np.ndarray):
        arr = np.asarray(logprobs, dtype=np.float64)
        if arr.ndim != 2:
            raise ConfigurationError("posterior matrix must be 2-dimensional")
        if not (arr < math.inf).all():
            raise ConfigurationError("posterior matrix holds NaN or +inf log-probabilities")
        self.logprobs = arr

    @property
    def frames(self) -> int:
        return self.logprobs.shape[0]

    @property
    def tokens(self) -> int:
        return self.logprobs.shape[1]

    def row(self, t: int) -> np.ndarray:
        return self.logprobs[t]

    def validate(self, tol: float = 1e-4) -> "PosteriorMatrix":
        """Check each row is a normalized distribution (logsumexp ~ 0)."""
        if self.frames == 0:
            return self
        hi = self.logprobs.max(axis=1, initial=NEG_INF)
        with np.errstate(invalid="ignore", divide="ignore"):
            mass = hi + np.log(np.sum(np.exp(self.logprobs - hi[:, None]), axis=1))
        mass[hi == NEG_INF] = NEG_INF
        bad = ~(np.abs(mass) <= tol)
        if bad.any():
            t = int(np.argmax(bad))
            raise ConfigurationError(
                f"posterior row {t} is not normalized (logsumexp {mass[t]:.6g})"
            )
        return self

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "PosteriorMatrix":
        probs = np.asarray(probs, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return cls(np.log(probs)).validate()

    @classmethod
    def from_text(cls, text: str, *, source: str = "<posterior>") -> "PosteriorMatrix":
        lines = [line for line in text.splitlines()]
        header_line = 0
        header: list[str] = []
        for i, line in enumerate(lines):
            if line.strip():
                header = line.split()
                header_line = i + 1
                break
        if len(header) != 3:
            raise ParseError("expected header 'frames tokens domain'", source=source, line=header_line or 1)
        try:
            frames, tokens = int(header[0]), int(header[1])
        except ValueError:
            raise ParseError("frame/token counts must be integers", source=source, line=header_line) from None
        domain = header[2]
        if domain not in ("prob", "logprob"):
            raise ParseError(f"domain must be 'prob' or 'logprob', got {domain!r}", source=source, line=header_line)
        rows = []
        for lineno in range(header_line, len(lines)):
            line = lines[lineno].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != tokens:
                raise ParseError(f"expected {tokens} values, found {len(parts)}", source=source, line=lineno + 1)
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ParseError("non-numeric posterior value", source=source, line=lineno + 1) from None
        if len(rows) != frames:
            raise ParseError(f"header declares {frames} frames but {len(rows)} rows follow", source=source)
        arr = np.array(rows, dtype=np.float64).reshape(frames, tokens)
        if domain == "prob":
            with np.errstate(divide="ignore"):
                arr = np.log(arr)
        try:
            return cls(arr).validate()
        except ConfigurationError as exc:
            raise ParseError(str(exc), source=source) from None

    @classmethod
    def read(cls, path: str | Path) -> "PosteriorMatrix":
        return cls.from_text(Path(path).read_text(encoding="utf-8"), source=str(path))

    def to_text(self, domain: str = "logprob") -> str:
        if domain not in ("prob", "logprob"):
            raise ConfigurationError(f"domain must be 'prob' or 'logprob', got {domain!r}")
        values = np.exp(self.logprobs) if domain == "prob" else self.logprobs
        lines = [f"{self.frames} {self.tokens} {domain}"]
        for t in range(self.frames):
            lines.append(" ".join(repr(float(v)) for v in values[t]))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path, domain: str = "logprob") -> None:
        Path(path).write_text(self.to_text(domain), encoding="utf-8")


def skip_blank_frames(
    post: PosteriorMatrix, threshold: float
) -> tuple[PosteriorMatrix, tuple[int, ...]]:
    """Drop frames whose blank probability exceeds `threshold`, in (0, 1].

    Returns the filtered matrix and the original indices of kept frames.
    """
    if post.frames == 0:
        return post, ()
    blank_prob = np.exp(post.logprobs[:, 0])
    keep = blank_prob <= threshold
    kept = tuple(int(i) for i in np.nonzero(keep)[0])
    return PosteriorMatrix(post.logprobs[keep]), kept


# -- hypotheses ----------------------------------------------------------


@dataclass(frozen=True)
class Hypothesis:
    units: tuple[int, ...]
    total_score: float
    score_ctc: float
    score_context: float = 0.0
    score_lm: float = 0.0
    words: tuple[str, ...] = ()
    score_l2r: float | None = None
    score_r2l: float | None = None

    def first_pass_score(self) -> float:
        return self.score_ctc + self.score_context + self.score_lm


@dataclass
class NBestList:
    hyps: list[Hypothesis] = field(default_factory=list)

    def __iter__(self):
        return iter(self.hyps)

    def __len__(self) -> int:
        return len(self.hyps)

    def __getitem__(self, i: int) -> Hypothesis:
        return self.hyps[i]

    def best(self) -> Hypothesis:
        return self.hyps[0]

    def to_text(self, unit_table: SymbolTable | None = None) -> str:
        """`rank total ctc context lm <tab> tokens <tab> words`, one line each."""
        lines = []
        for rank, hyp in enumerate(self.hyps, 1):
            if unit_table is not None:
                tokens = " ".join(unit_table.symbol_of(u) for u in hyp.units)
            else:
                tokens = " ".join(str(u) for u in hyp.units)
            words = " ".join(hyp.words)
            scores = " ".join(
                _fmt_score(v)
                for v in (hyp.total_score, hyp.score_ctc, hyp.score_context, hyp.score_lm)
            )
            lines.append(f"{rank} {scores}\t{tokens}\t{words}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_score(value: float) -> str:
    return f"{value + 0.0:.6f}"


# -- the streaming contract ----------------------------------------------


class StreamingDecoder:
    """Frame-synchronous streaming search over posterior chunks.

    `advance` owns what both searches share: it converts a chunk to a
    `PosteriorMatrix`, checks its width against earlier chunks, skips
    frames whose blank probability exceeds `blank_skip_threshold` (None
    keeps every frame), counts frames, and hands each kept row to the
    search's `_step`.
    """

    _min_tokens = 1  # the blank column

    def __init__(
        self,
        *,
        nbest: int = 10,
        blank_skip_threshold: float | None = 0.98,
        context: ContextGraph | None = None,
    ):
        if nbest < 1:
            raise ConfigurationError("nbest must be >= 1")
        if blank_skip_threshold is not None and not 0 < blank_skip_threshold <= 1:
            raise ConfigurationError("blank_skip_threshold must be in (0, 1]")
        self.nbest = nbest
        self.blank_skip_threshold = blank_skip_threshold
        self.context = context
        self.frames_processed = 0
        self.frames_skipped = 0
        self._width: int | None = None

    def advance(self, post: PosteriorMatrix | np.ndarray) -> None:
        matrix = post if isinstance(post, PosteriorMatrix) else PosteriorMatrix(post)
        if matrix.frames:
            if self._width is None:
                if matrix.tokens < self._min_tokens:
                    raise ConfigurationError(
                        f"search needs {self._min_tokens} acoustic tokens but posterior rows have {matrix.tokens}"
                    )
                self._width = matrix.tokens
            elif matrix.tokens != self._width:
                raise ConfigurationError(
                    f"chunk rows have {matrix.tokens} tokens but earlier chunks had {self._width}"
                )
        kept: Sequence[int] = range(matrix.frames)
        if self.blank_skip_threshold is not None:
            _, kept = skip_blank_frames(matrix, self.blank_skip_threshold)
        for t in kept:
            self._step(matrix.row(t))
        self.frames_processed += len(kept)
        self.frames_skipped += matrix.frames - len(kept)

    def decode(self, post: PosteriorMatrix | np.ndarray) -> NBestList:
        """Advance over all of `post` and return the n-best list."""
        self.advance(post)
        return self.finalize()

    def _step(self, logp: np.ndarray) -> None:
        raise NotImplementedError

    def finalize(self) -> NBestList:
        raise NotImplementedError


# -- prefix beam search ----------------------------------------------------


class _PrefixEntry:
    __slots__ = ("pb", "pnb", "ctx", "ctx_score")

    def __init__(self, pb: float, pnb: float, ctx: int, ctx_score: float):
        self.pb = pb
        self.pnb = pnb
        self.ctx = ctx
        self.ctx_score = ctx_score

    def total(self) -> float:
        return log_add(self.pb, self.pnb)


def _rank_key(item: tuple[tuple[int, ...], _PrefixEntry]) -> tuple[float, tuple[int, ...]]:
    """Best combined score first; ties go to the lexicographically smaller prefix."""
    prefix, entry = item
    return (-(entry.total() + entry.ctx_score), prefix)


class PrefixBeamDecoder(StreamingDecoder):
    """Streaming CTC prefix beam search (LM-free first pass).

    Tracks blank-ending / nonblank-ending log masses per prefix, applies
    the contextual boost on every prefix extension, and prunes to `beam`
    prefixes per frame by combined score with ties broken by token-id
    lexicographic order.
    """

    def __init__(self, *, beam: int = 10, **common):
        super().__init__(**common)
        if beam < self.nbest:
            raise ConfigurationError(f"beam ({beam}) must be >= nbest ({self.nbest})")
        self.beam = beam
        self._entries: dict[tuple[int, ...], _PrefixEntry] = {
            (): _PrefixEntry(0.0, NEG_INF, ContextGraph.START, 0.0)
        }

    def _step(self, logp: np.ndarray) -> None:
        """One frame: score every (prefix, unit) extension as one array.

        Python objects are built only for the stay entries and for the
        extensions at or above the beam-th best score, so the cut to
        `beam` is exact, ties included.
        """
        width = logp.shape[0]
        prefixes = list(self._entries)
        entries = list(self._entries.values())
        index = {prefix: i for i, prefix in enumerate(prefixes)}
        totals = [entry.total() for entry in entries]

        # Extension (i, u) adds unit u to prefix i. It continues from the
        # prefix total, or from pb when u repeats the prefix's last unit.
        src = np.repeat(np.array(totals)[:, None], width, axis=1)
        for i, prefix in enumerate(prefixes):
            if prefix:
                src[i, prefix[-1]] = entries[i].pb
        ext = src + logp
        valid = (src != NEG_INF) & (logp != NEG_INF)
        valid[:, 0] = False

        # Stay entries keep their prefix. An extension that lands on a
        # stay entry's prefix merges into it and is not a candidate itself.
        blank_lp = float(logp[0])
        stays = []
        stay_scores = []
        for i, (prefix, cur) in enumerate(zip(prefixes, entries)):
            total = totals[i]
            pb = total + blank_lp if total != NEG_INF and blank_lp != NEG_INF else NEG_INF
            pnb = NEG_INF
            if prefix:
                last = prefix[-1]
                last_lp = float(logp[last])
                if cur.pnb != NEG_INF and last_lp != NEG_INF:
                    pnb = cur.pnb + last_lp
                parent = index.get(prefix[:-1])
                if parent is not None and valid[parent, last]:
                    pnb = log_add(pnb, float(ext[parent, last]))
                    valid[parent, last] = False
            stay = _PrefixEntry(pb, pnb, cur.ctx, cur.ctx_score)
            stays.append(stay)
            stay_scores.append(stay.total() + stay.ctx_score)

        rank = ext
        if self.context is not None:
            rank = ext + np.stack(
                [cur.ctx_score + self.context.delta_row(cur.ctx, width) for cur in entries]
            )
        cand = np.flatnonzero(valid)
        scores = np.concatenate((stay_scores, rank.ravel()[cand]))
        n_stay = len(stays)
        if len(scores) > self.beam:
            cut = -np.partition(-scores, self.beam - 1)[self.beam - 1]
            kept = np.flatnonzero(scores >= cut)
        else:
            kept = np.arange(len(scores))

        nxt: list[tuple[tuple[int, ...], _PrefixEntry]] = []
        for k in kept.tolist():
            if k < n_stay:
                nxt.append((prefixes[k], stays[k]))
                continue
            i, token = divmod(int(cand[k - n_stay]), width)
            cur = entries[i]
            ctx, delta = cur.ctx, 0.0
            if self.context is not None:
                ctx, delta = self.context.advance(cur.ctx, token)
            entry = _PrefixEntry(NEG_INF, float(ext[i, token]), ctx, cur.ctx_score + delta)
            nxt.append((prefixes[i] + (token,), entry))

        nxt.sort(key=_rank_key)
        self._entries = dict(nxt[: self.beam])

    def finalize(self) -> NBestList:
        ranked = sorted(self._entries.items(), key=_rank_key)
        hyps = []
        for prefix, entry in ranked[: self.nbest]:
            ctc = entry.total()
            hyps.append(
                Hypothesis(
                    units=prefix,
                    total_score=ctc + entry.ctx_score,
                    score_ctc=ctc,
                    score_context=entry.ctx_score,
                )
            )
        return NBestList(hyps)


# -- WFST beam search ------------------------------------------------------


class _Token:
    __slots__ = ("state", "cost", "ac_cost", "graph_cost", "ctx", "ctx_score", "words", "labels")

    def __init__(self, state, cost, ac_cost, graph_cost, ctx, ctx_score, words, labels):
        self.state = state
        self.cost = cost
        self.ac_cost = ac_cost
        self.graph_cost = graph_cost
        self.ctx = ctx
        self.ctx_score = ctx_score
        self.words = words
        self.labels = labels  # linked (parent, acoustic label) chain, one link per frame


class WfstBeamDecoder(StreamingDecoder):
    """Frame-synchronous Viterbi beam search over a TLG decoding graph.

    Graph input label l > 0 consumes acoustic token l - 1 (so `<blank>` at
    acoustic id 0 is graph label 1); label 0 arcs are free moves expanded
    after each frame. Tokens are pruned to `score_beam` score units of the
    best and to `max_active` tokens. Biasing advances on emitted words.
    """

    _EPS_RELAX_LIMIT = 1_000_000

    def __init__(
        self,
        graph: WeightedFst,
        *,
        acoustic_scale: float = 1.0,
        lm_scale: float = 1.0,
        word_penalty: float = 0.0,
        score_beam: float = 16.0,
        max_active: int = 7000,
        **common,
    ):
        super().__init__(**common)
        if not 0 < acoustic_scale < math.inf:
            raise ConfigurationError("acoustic_scale must be finite and > 0")
        if not 0 <= lm_scale < math.inf:
            raise ConfigurationError("lm_scale must be finite and >= 0")
        if not math.isfinite(word_penalty):
            raise ConfigurationError("word_penalty must be finite")
        if not 0 < score_beam < math.inf:
            raise ConfigurationError("score_beam must be finite and > 0")
        if max_active < 1:
            raise ConfigurationError("max_active must be >= 1")
        if graph.is_empty():
            raise ConfigurationError("decoding graph is empty")
        self.graph = graph
        self.acoustic_scale = acoustic_scale
        self.lm_scale = lm_scale
        self.word_penalty = word_penalty
        self.score_beam = score_beam
        self.max_active = max_active
        self._emit_arcs: list[list] = []
        self._eps_arcs: list[list] = []
        max_ilabel = 0
        for state in graph.states():
            emit, eps = [], []
            for arc in graph.arcs(state):
                if arc.ilabel == 0:
                    eps.append(arc)
                else:
                    emit.append(arc)
                    max_ilabel = max(max_ilabel, arc.ilabel)
            self._emit_arcs.append(emit)
            self._eps_arcs.append(eps)
        self._min_tokens = max(self._min_tokens, max_ilabel)
        start = _Token(graph.start, 0.0, 0.0, 0.0, ContextGraph.START, 0.0, (), None)
        self._tokens: dict[tuple[int, int], _Token] = {(start.state, start.ctx): start}
        self._eps_expand()

    def _follow(self, token: _Token, arc, ac: float, labels) -> _Token:
        """The token reached over `arc` at acoustic cost `ac` (0 on label-0 arcs)."""
        gw = arc.weight * self.lm_scale
        ctx = token.ctx
        ctx_delta = 0.0
        words = token.words
        if arc.olabel != 0:
            gw += self.word_penalty
            words = words + (arc.olabel,)
            if self.context is not None:
                ctx, ctx_delta = self.context.advance(ctx, arc.olabel)
        return _Token(
            arc.nextstate,
            token.cost + ac + gw - ctx_delta,
            token.ac_cost + ac,
            token.graph_cost + gw,
            ctx,
            token.ctx_score + ctx_delta,
            words,
            labels,
        )

    def _step(self, row: np.ndarray) -> None:
        logp = row.tolist()
        acoustic_scale = self.acoustic_scale
        nxt: dict[tuple[int, int], _Token] = {}
        for token in self._tokens.values():
            for arc in self._emit_arcs[token.state]:
                lp = logp[arc.ilabel - 1]
                if lp == NEG_INF:
                    continue
                cand = self._follow(token, arc, -lp * acoustic_scale, (token.labels, arc.ilabel - 1))
                key = (cand.state, cand.ctx)
                best = nxt.get(key)
                if best is None or cand.cost < best.cost:
                    nxt[key] = cand
        self._tokens = nxt
        self._eps_expand()
        self._prune()

    def _eps_expand(self) -> None:
        """Relax label-0 arcs to a fixed point (no frame is consumed)."""
        worklist = list(self._tokens.values())
        relaxed = 0
        while worklist:
            token = worklist.pop()
            current = self._tokens.get((token.state, token.ctx))
            if current is not token:
                continue  # superseded by a cheaper token at this key
            for arc in self._eps_arcs[token.state]:
                cand = self._follow(token, arc, 0.0, token.labels)
                key = (cand.state, cand.ctx)
                best = self._tokens.get(key)
                if best is None or cand.cost < best.cost:
                    self._tokens[key] = cand
                    worklist.append(cand)
                    relaxed += 1
                    if relaxed > self._EPS_RELAX_LIMIT:
                        raise ConfigurationError(
                            "epsilon expansion did not converge; the graph has an improving label-0 cycle"
                        )

    def _prune(self) -> None:
        if not self._tokens:
            return
        best = min(token.cost for token in self._tokens.values())
        keep = [
            (token.cost, key, token)
            for key, token in self._tokens.items()
            if token.cost <= best + self.score_beam
        ]
        keep.sort(key=lambda item: (item[0], item[1]))
        keep = keep[: self.max_active]
        self._tokens = {key: token for _, key, token in keep}

    def finalize(self) -> NBestList:
        """Add final weights, keep the cheapest token per word sequence, rank."""
        lm_scale = self.lm_scale
        any_final = any(
            self.graph.final_weight(token.state) != math.inf for token in self._tokens.values()
        )
        by_words: dict[tuple[int, ...], tuple[float, float, _Token]] = {}
        for _, token in sorted(self._tokens.items()):
            fw = self.graph.final_weight(token.state)
            if fw == math.inf:
                if any_final:
                    continue
                fw = 0.0  # no token reached a final state; fall back to all survivors
            cost = token.cost + fw * lm_scale
            prev = by_words.get(token.words)
            if prev is None or cost < prev[0]:
                by_words[token.words] = (cost, token.graph_cost + fw * lm_scale, token)

        ranked = sorted(by_words.items(), key=lambda item: (item[1][0], item[0]))
        hyps = []
        for words, (cost, graph_cost, token) in ranked[: self.nbest]:
            labels = []
            link = token.labels
            while link is not None:
                link, label = link
                labels.append(label)
            hyps.append(
                Hypothesis(
                    units=_collapse(labels[::-1]),
                    total_score=-cost,
                    score_ctc=-token.ac_cost,
                    score_context=token.ctx_score,
                    score_lm=-graph_cost,
                    words=tuple(self.graph.osymbols.symbol_of(w) for w in words),
                )
            )
        if not hyps:
            hyps = [Hypothesis(units=(), total_score=NEG_INF, score_ctc=NEG_INF)]
        return NBestList(hyps)


def _collapse(labels: Sequence[int]) -> tuple[int, ...]:
    """CTC collapse: merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for label in labels:
        if label != prev:
            out.append(label)
        prev = label
    return tuple(label for label in out if label != 0)

