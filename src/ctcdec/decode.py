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
from .errors import ConfigurationError, ParseError, read_text
from .fst import WeightedFst, load_rows
from .symbols import SymbolTable

NEG_INF = float("-inf")
_MASS_TOL = 1e-4  # how far a row's logsumexp may be from 0 and still be a distribution


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

    def validate(self) -> "PosteriorMatrix":
        """Check each row is a normalized distribution (logsumexp within `_MASS_TOL` of 0)."""
        bad = _first_bad_row(self.logprobs)
        if bad is not None:
            raise ConfigurationError(bad[1])
        return self

    @classmethod
    def from_probs(cls, probs: np.ndarray) -> "PosteriorMatrix":
        probs = np.asarray(probs, dtype=np.float64)
        with np.errstate(divide="ignore"):
            return cls(np.log(probs)).validate()

    @classmethod
    def from_text(cls, text: str, *, source: str = "<posterior>") -> "PosteriorMatrix":
        """A `frames tokens prob|logprob` header, then a row of `tokens`
        numbers per frame, read as float64 by `np.loadtxt` (ASCII only, no
        `1_0`). Blank lines are skipped; errors cite the first failing line."""
        lines = text.splitlines()
        at = [i for i, line in enumerate(lines) if line.strip()]
        header = lines[at[0]].split() if at else []
        header_line = at[0] + 1 if at else 1
        if len(header) != 3:
            raise ParseError("expected header 'frames tokens domain'", source=source, line=header_line)
        if not all(count.isascii() and count.isdigit() and len(count) <= 9 for count in header[:2]):
            raise ParseError("frame/token counts must be integers of at most 9 digits", source=source, line=header_line)
        frames, tokens, domain = int(header[0]), int(header[1]), header[2]
        if domain not in ("prob", "logprob"):
            raise ParseError(f"domain must be 'prob' or 'logprob', got {domain!r}", source=source, line=header_line)
        rows = at[1:]
        arr, bad = load_rows(lines, rows, np.float64, tokens)
        if bad is not None:
            found = len(lines[bad].split())
            message = f"expected {tokens} values, found {found}" if found != tokens else "non-numeric posterior value"
            raise ParseError(message, source=source, line=bad + 1)
        if len(arr) != frames:
            raise ParseError(f"header declares {frames} frames but {len(arr)} rows follow", source=source)
        if domain == "prob":
            with np.errstate(divide="ignore", invalid="ignore"):
                arr = np.log(arr)
        bad_row = _first_bad_row(arr)
        if bad_row is not None:
            raise ParseError(bad_row[1], source=source, line=rows[bad_row[0]] + 1)
        return cls(arr)

    @classmethod
    def read(cls, path: str | Path) -> "PosteriorMatrix":
        return cls.from_text(read_text(path), source=str(path))

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


def _first_bad_row(logprobs: np.ndarray) -> tuple[int, str] | None:
    """The first row that is not a distribution within `_MASS_TOL`, and why."""
    hi = logprobs.max(axis=1, initial=NEG_INF)
    with np.errstate(invalid="ignore", divide="ignore"):
        mass = hi + np.log(np.sum(np.exp(logprobs - hi[:, None]), axis=1))
    mass[hi == NEG_INF] = NEG_INF
    bad = ~(np.abs(mass) <= _MASS_TOL)
    if not bad.any():
        return None
    t = int(np.argmax(bad))
    if not (logprobs[t] < math.inf).all():
        return t, f"posterior row {t} holds NaN or +inf log-probabilities"
    return t, f"posterior row {t} is not normalized (logsumexp {mass[t]:.6g})"


def skip_blank_frames(post: PosteriorMatrix, threshold: float) -> np.ndarray:
    """Indices of the frames whose blank probability is at most `threshold`, in (0, 1]."""
    if post.frames == 0:
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.exp(post.logprobs[:, 0]) <= threshold)


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
            kept = skip_blank_frames(matrix, self.blank_skip_threshold)
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


# Tokens are parallel arrays, one per field. `unit` and `word` are ids of
# each token's unit and word chains in the decoder's `_Links` (-1 is the
# empty chain); `last` is the acoustic label of its latest frame (-1 before
# the first), which decides whether the next label starts a unit. Within a
# step, `new_unit` and `new_word` hold the label still to be linked onto
# each chain (0 for none), so links are made only for surviving tokens.
_FIELDS = (
    "state", "ctx", "cost", "ac_cost", "graph_cost", "ctx_score",
    "unit", "last", "word", "new_unit", "new_word",
)
_Tokens = dict[str, np.ndarray]


def _take(tokens: _Tokens, index: np.ndarray) -> _Tokens:
    return {name: array[index] for name, array in tokens.items()}


class _Links:
    """Backpointer chains: link i is chain `parent[i]` extended by `label[i]`.

    A link is always newer than its parent. Once the store has doubled
    since its last compaction, and holds at least `FLOOR` links, `compact`
    drops the links no live chain reaches, so a long stream keeps at most
    about twice the links its live tokens need.
    """

    FLOOR = 1 << 16

    def __init__(self):
        self._parent = np.empty(256, dtype=np.int64)
        self._label = np.empty(256, dtype=np.int64)
        self._size = 0
        self._limit = self.FLOOR

    def add(self, parents, labels) -> np.ndarray:
        """New links, one per (parent, label) pair; returns their ids."""
        start = self._size
        end = start + len(parents)
        if end > len(self._parent):
            grow = np.empty(max(end, 2 * len(self._parent)) - len(self._parent), dtype=np.int64)
            self._parent = np.concatenate((self._parent, grow))
            self._label = np.concatenate((self._label, grow))
        self._parent[start:end] = parents
        self._label[start:end] = labels
        self._size = end
        return np.arange(start, end)

    def __len__(self) -> int:
        return self._size

    def compact(self, live: np.ndarray) -> np.ndarray:
        """When the store is over its limit, keep only the links that the
        chains `live` reach, in their order; returns `live` renumbered."""
        if self._size < self._limit:
            return live
        parent = self._parent[: self._size]
        # One sweep from the newest link down marks every ancestor, since a
        # parent is older than its child. The extra last slot absorbs -1.
        keep = bytearray(self._size + 1)
        for link in live.tolist():
            keep[link] = 1
        for link, up in zip(range(self._size - 1, -1, -1), reversed(parent.tolist())):
            if keep[link]:
                keep[up] = 1
        keep = np.frombuffer(keep, dtype=bool)[:-1]
        renumber = np.append(np.cumsum(keep) - 1, -1)  # index -1 maps the empty chain to itself
        kept = np.flatnonzero(keep)
        self._size = len(kept)
        self._parent[: self._size] = renumber[parent[kept]]
        self._label[: self._size] = self._label[kept]
        self._limit = max(self.FLOOR, 2 * self._size)
        return renumber[live]

    def chains(self, links: np.ndarray) -> list[tuple[int, ...]]:
        """Each link's labels, oldest first."""
        parent = self._parent[: self._size].tolist()
        label = self._label[: self._size].tolist()
        out = []
        for link in links.tolist():
            chain = []
            while link >= 0:
                chain.append(label[link])
                link = parent[link]
            out.append(tuple(chain[::-1]))
        return out


class WfstBeamDecoder(StreamingDecoder):
    """Frame-synchronous Viterbi beam search over a TLG decoding graph.

    Graph input label l > 0 consumes acoustic token l - 1 (so `<blank>` at
    acoustic id 0 is graph label 1); label 0 arcs are free moves expanded
    after each frame. Tokens are pruned to `score_beam` score units of the
    best and to `max_active` tokens. Biasing advances on emitted words.

    The search reads the graph's `arc_arrays()`, which every decoder on an
    unchanged graph shares, and keeps its tokens as parallel arrays. A
    frame costs all emitting arcs of the active tokens as one vector and
    recombines them per (state, context node) with a scatter-min, where
    the first arrival wins among equal costs. Label-0 arcs are relaxed by
    a worklist. Counters over the stream: `arcs_expanded` (emitting arcs
    with a finite log-probability, plus label-0 arcs followed),
    `tokens_pruned_beam`, `tokens_pruned_max_active` and
    `eps_relaxations` (label-0 moves that improved a token). `links_held`
    is the number of unit and word backpointers held now.
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
        self.arcs_expanded = 0
        self.tokens_pruned_beam = 0
        self.tokens_pruned_max_active = 0
        self.eps_relaxations = 0
        self._arcs = graph.arc_arrays()
        self._min_tokens = max(self._min_tokens, self._arcs.max_ilabel)
        self._n_ctx = self.context.num_states() if self.context is not None else 1
        self._units = _Links()
        self._words = _Links()
        start = (graph.start, ContextGraph.START, 0.0, 0.0, 0.0, 0.0, -1, -1, -1, 0, 0)
        tokens = {name: np.array([value]) for name, value in zip(_FIELDS, start)}
        if self._arcs.has_epsilon[graph.start]:
            tokens = self._eps_expand(tokens, [0])
        self._tokens = self._link(tokens)

    @property
    def links_held(self) -> int:
        return len(self._units) + len(self._words)

    def _step(self, row: np.ndarray) -> None:
        arcs = self._arcs
        tokens = self._tokens
        # Every arc of every token, in token order and then arc order.
        first = arcs.offsets[tokens["state"]]
        count = arcs.offsets[tokens["state"] + 1] - first
        src = np.repeat(np.arange(len(first)), count)
        arc = np.arange(len(src)) + np.repeat(first - (np.cumsum(count) - count), count)
        # Label l reads column l - 1, and label 0 reads -inf: label-0 arcs
        # drop out with the arcs whose token is impossible in this frame.
        lp = np.concatenate(([NEG_INF], row))[arcs.ilabel[arc]]
        kept = np.flatnonzero(lp != NEG_INF)
        src, arc, lp = src[kept], arc[kept], lp[kept]
        self.arcs_expanded += len(arc)

        ac = -lp * self.acoustic_scale
        olabel = arcs.olabel[arc]
        word = olabel != 0
        gw = arcs.weight[arc] * self.lm_scale
        gw[word] += self.word_penalty
        cost = tokens["cost"][src] + ac + gw
        ctx = tokens["ctx"][src]
        delta = np.zeros(len(arc))
        if self.context is not None and word.any():
            self._advance_context(ctx, delta, olabel, np.flatnonzero(word))
            cost -= delta

        # Recombine per (state, ctx): the cheapest candidate, the first among equals.
        key = arcs.nextstate[arc] * self._n_ctx + ctx
        if self.context is None:
            ids, size = key, len(arcs.offsets) - 1
        else:
            ids = np.unique(key, return_inverse=True)[1]
            size = int(ids.max(initial=-1)) + 1
        best = np.full(size, math.inf)
        np.minimum.at(best, ids, cost)
        tie = np.flatnonzero(cost == best[ids])
        pick = np.full(size, len(cost))
        np.minimum.at(pick, ids[tie], tie)
        win = pick[pick < len(cost)]  # ascending key; a key whose costs are all NaN has none

        parent = src[win]
        label = arcs.ilabel[arc[win]] - 1
        nxt = {
            "state": arcs.nextstate[arc[win]],
            "ctx": ctx[win],
            "cost": cost[win],
            "ac_cost": tokens["ac_cost"][parent] + ac[win],
            "graph_cost": tokens["graph_cost"][parent] + gw[win],
            "ctx_score": tokens["ctx_score"][parent] + delta[win],
            "unit": tokens["unit"][parent],
            "last": label,
            "word": tokens["word"][parent],
            "new_unit": np.where((label != 0) & (label != tokens["last"][parent]), label, 0),
            "new_word": olabel[win],
        }

        with_eps = np.flatnonzero(arcs.has_epsilon[nxt["state"]])
        if len(with_eps) > 1:
            # The worklist starts in the order each key was first reached.
            arrival = np.full(size, len(cost))
            np.minimum.at(arrival, ids, np.arange(len(cost)))
            with_eps = with_eps[np.argsort(arrival[ids[win[with_eps]]])]
        if len(with_eps):
            nxt = self._eps_expand(nxt, with_eps.tolist())
        self._tokens = self._link(self._prune(nxt))

    def _advance_context(self, ctx, delta, olabel, word) -> None:
        """Biasing over the word candidates `word`, in place: one
        `ContextGraph.advance` per distinct (node, word) pair."""
        width = int(olabel[word].max()) + 1
        pairs, inverse = np.unique(ctx[word] * width + olabel[word], return_inverse=True)
        moves = [self.context.advance(*divmod(pair, width)) for pair in pairs.tolist()]
        ctx[word] = np.array([node for node, _ in moves], dtype=np.int64)[inverse]
        delta[word] = np.array([d for _, d in moves])[inverse]

    def _eps_expand(self, tokens: _Tokens, worklist: list[int]) -> _Tokens:
        """Relax label-0 arcs to a fixed point (no frame is consumed).

        The worklist of token indices is popped from its end. A strictly
        cheaper token replaces the one at its (state, ctx) key in place; a
        key reached for the first time is appended.
        """
        epsilon = self._arcs.epsilon
        n_ctx = self._n_ctx
        lm_scale, word_penalty, context = self.lm_scale, self.word_penalty, self.context
        n = len(tokens["state"])
        index = dict(zip((tokens["state"] * n_ctx + tokens["ctx"]).tolist(), range(n)))
        records: dict[int, tuple] = {}  # token index -> record, for tokens replaced or added
        stack: list[tuple[int, tuple | None]] = [(i, None) for i in worklist]
        relaxed = followed = 0
        while stack:
            i, record = stack.pop()
            if records.get(i) is not record:
                continue  # superseded by a cheaper token at this key
            state, ctx, cost, ac_cost, graph_cost, ctx_score, unit, last, word, new_unit, new_word = (
                record if record is not None else [tokens[name][i] for name in _FIELDS]
            )
            for olabel, weight, nextstate in epsilon.get(state, ()):
                followed += 1
                gw = weight * lm_scale
                to_ctx, ctx_delta, to_word, to_new_word = ctx, 0.0, word, new_word
                if olabel != 0:
                    gw += word_penalty
                    if new_word:
                        to_word = int(self._words.add([word], [new_word])[0])
                    to_new_word = olabel
                    if context is not None:
                        to_ctx, ctx_delta = context.advance(ctx, olabel)
                cand_cost = cost + 0.0 + gw - ctx_delta
                key = nextstate * n_ctx + to_ctx
                j = index.get(key)
                if j is None:
                    j = index[key] = len(index)  # a key reached for the first time
                current = records.get(j)
                if current is not None:
                    if not cand_cost < current[2]:
                        continue
                elif j < n and not cand_cost < tokens["cost"][j]:
                    continue
                record = (
                    nextstate, to_ctx, cand_cost, ac_cost + 0.0, graph_cost + gw,
                    ctx_score + ctx_delta, unit, last, to_word, new_unit, to_new_word,
                )
                records[j] = record
                stack.append((j, record))
                relaxed += 1
                if relaxed > self._EPS_RELAX_LIMIT:
                    raise ConfigurationError(
                        "epsilon expansion did not converge; the graph has an improving label-0 cycle"
                    )
        self.arcs_expanded += followed
        self.eps_relaxations += relaxed
        added = []
        for j, record in records.items():
            if j < n:
                for name, value in zip(_FIELDS, record):
                    tokens[name][j] = value
            else:
                added.append(record)  # `records` holds added tokens in index order
        if added:
            tokens = {
                name: np.concatenate((tokens[name], values)) for name, values in zip(_FIELDS, zip(*added))
            }
        return tokens

    def _prune(self, tokens: _Tokens) -> _Tokens:
        """Keep tokens within `score_beam` of the best, then the `max_active`
        cheapest, ordered by (cost, state, ctx)."""
        cost = tokens["cost"]
        if not len(cost):
            return tokens
        kept = np.flatnonzero(cost <= np.fmin.reduce(cost) + self.score_beam)
        self.tokens_pruned_beam += len(cost) - len(kept)
        order = np.lexsort((tokens["ctx"][kept], tokens["state"][kept], cost[kept]))
        self.tokens_pruned_max_active += max(0, len(order) - self.max_active)
        return _take(tokens, kept[order[: self.max_active]])

    def _link(self, tokens: _Tokens) -> _Tokens:
        """Link each token's pending unit and word onto its chains."""
        for links, chain, new in ((self._units, "unit", "new_unit"), (self._words, "word", "new_word")):
            labels = tokens.pop(new)
            pending = np.flatnonzero(labels)
            if len(pending):
                tokens[chain][pending] = links.add(tokens[chain][pending], labels[pending])
            tokens[chain] = links.compact(tokens[chain])
        return tokens

    def finalize(self) -> NBestList:
        """Add final weights, keep the cheapest token per word sequence, rank."""
        tokens = _take(self._tokens, np.lexsort((self._tokens["ctx"], self._tokens["state"])))
        fw = np.array([self.graph.final_weight(state) for state in tokens["state"].tolist()])
        is_final = fw != math.inf
        if is_final.any():
            tokens, fw = _take(tokens, is_final), fw[is_final]
        else:
            fw = np.zeros(len(fw))  # no token reached a final state; fall back to all survivors
        cost = (tokens["cost"] + fw * self.lm_scale).tolist()
        graph_cost = (tokens["graph_cost"] + fw * self.lm_scale).tolist()
        by_words: dict[tuple[int, ...], int] = {}
        for i, words in enumerate(self._words.chains(tokens["word"])):
            prev = by_words.get(words)
            if prev is None or cost[i] < cost[prev]:
                by_words[words] = i

        ranked = sorted(by_words.items(), key=lambda item: (cost[item[1]], item[0]))[: self.nbest]
        best = np.array([i for _, i in ranked], dtype=np.int64)
        units = self._units.chains(tokens["unit"][best])
        hyps = [
            Hypothesis(
                units=units[rank],
                total_score=-cost[i],
                score_ctc=-float(tokens["ac_cost"][i]),
                score_context=float(tokens["ctx_score"][i]),
                score_lm=-graph_cost[i],
                words=tuple(self.graph.osymbols.symbol_of(w) for w in words),
            )
            for rank, (words, i) in enumerate(ranked)
        ]
        if not hyps:
            hyps = [Hypothesis(units=(), total_score=NEG_INF, score_ctc=NEG_INF)]
        return NBestList(hyps)
