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
from typing import Iterable, Sequence

import numpy as np

from .context import ContextGraph
from .errors import ConfigurationError, ParseError, parse_count, parse_number, read_text
from .fst import WeightedFst, _spans, load_rows
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
        try:  # a count of more than 9 digits drops out, and the unpacking fails
            frames, tokens = [parse_count(count) for count in header[:2] if len(count) <= 9]
        except ValueError:
            raise ParseError(
                "frame/token counts must be integers of at most 9 digits", source=source, line=header_line
            ) from None
        domain = header[2]
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


_UTT_HEADER = "# utt "


def nbest_file_text(sections: Iterable[tuple[str, NBestList]], unit_table: SymbolTable | None = None) -> str:
    """The n-best file of `ctcdec decode` and `rescore`: per utterance a
    `# utt <id>` line, then its list's `to_text(unit_table)`."""
    return "".join(f"{_UTT_HEADER}{utt}\n{nbest.to_text(unit_table)}" for utt, nbest in sections)


def read_nbest_file(path: str | Path) -> list[tuple[str, NBestList]]:
    """Parse an `nbest_file_text` file back into per-utterance n-best lists.

    Token sequences come back as string tuples, which is what file-backed
    scorer tables key on.
    """
    sections: list[tuple[str, NBestList]] = []
    current: NBestList | None = None
    source = str(path)
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        if not raw.strip():
            continue
        if raw.startswith(_UTT_HEADER):
            current = NBestList()
            sections.append((raw[len(_UTT_HEADER):].strip(), current))
            continue
        if current is None:
            raise ParseError("hypothesis line before any '# utt' header", source=source, line=lineno)
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ParseError("expected 'scores<TAB>tokens<TAB>words'", source=source, line=lineno)
        head = parts[0].split()
        if len(head) != 5:
            raise ParseError("expected 'rank total ctc context lm'", source=source, line=lineno)
        rank = len(current) + 1
        try:
            found = parse_count(head[0])
        except ValueError:
            found = None
        if found != rank:
            raise ParseError(f"expected rank {rank}, found {head[0]!r}", source=source, line=lineno)
        try:
            total, ctc, ctx, lm = map(parse_number, head[1:])
        except ValueError:
            raise ParseError("non-numeric score", source=source, line=lineno) from None
        if not all(v < math.inf for v in (total, ctc, ctx, lm)):  # -inf marks an empty result
            raise ParseError("score is NaN or +inf", source=source, line=lineno)
        current.hyps.append(
            Hypothesis(
                units=tuple(parts[1].split()),
                total_score=total,
                score_ctc=ctc,
                score_context=ctx,
                score_lm=lm,
                words=tuple(parts[2].split()),
            )
        )
    return sections


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
        # Held best first, as `_step` ranks them, so `finalize` reads the front.
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

        # A survivor's cut score is its total() + ctx_score bit for bit: an
        # extension's total() is its pnb, and `rank` sums in the same order.
        nxt: list[tuple[float, tuple[int, ...], _PrefixEntry]] = []
        for k, neg_score in zip(kept.tolist(), (-scores[kept]).tolist()):
            if k < n_stay:
                nxt.append((neg_score, prefixes[k], stays[k]))
                continue
            i, token = divmod(int(cand[k - n_stay]), width)
            cur = entries[i]
            ctx, delta = cur.ctx, 0.0
            if self.context is not None:
                ctx, delta = self.context.advance(cur.ctx, token)
            entry = _PrefixEntry(NEG_INF, float(ext[i, token]), ctx, cur.ctx_score + delta)
            nxt.append((neg_score, prefixes[i] + (token,), entry))

        # Best first; ties go to the lexicographically smaller prefix. No
        # two survivors share a prefix, so no entry is ever compared.
        nxt.sort()
        self._entries = {prefix: entry for _, prefix, entry in nxt[: self.beam]}

    def finalize(self) -> NBestList:
        hyps = []
        for prefix, entry in list(self._entries.items())[: self.nbest]:
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


# Tokens are the columns of two arrays, so a gather or an append is two
# calls: floats (rows cost, ac_cost, graph_cost, ctx_score) and ints (rows
# state, last, new_word, ctx, unit, word, new_unit). `unit` and `word` are
# ids of each token's chains in the decoder's `_Links` (-1 is the empty
# chain); `last` is the acoustic label of its latest frame (-1 before the
# first), which decides whether the next label starts a unit. Within a
# step, `new_unit` and `new_word` hold the label still to be linked onto
# each chain (0 for none), so links are made only for surviving tokens.
# The first three int rows are the rows of `EmittingArcs.arcs`, so the
# arc a token arrived by fills them in one assignment.
_Tokens = tuple[np.ndarray, np.ndarray]


def _take(tokens: _Tokens, index: np.ndarray) -> _Tokens:
    return tokens[0].take(index, axis=1), tokens[1].take(index, axis=1)


def _ranked(tokens: _Tokens) -> np.ndarray:
    """The tokens' indices in (cost, state, ctx) order."""
    return np.lexsort((tokens[1][3], tokens[1][0], tokens[0][0]))


def _cheapest(key: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Each key's cheapest candidate, the first among equals, in key order."""
    order = np.lexsort((cost, key))
    ranked = key[order]
    head = np.empty(len(ranked), dtype=bool)
    head[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    return order[head]


def _distinct(key: np.ndarray) -> int:
    """The number of distinct values in `key`, counted on a sorted copy
    (`np.unique` hashes, which is several times slower on a frame's keys)."""
    ranked = np.sort(key)
    return len(ranked) - int(np.count_nonzero(ranked[1:] == ranked[:-1]))


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
    acoustic id 0 is graph label 1); label 0 arcs are free moves taken
    after each frame. Tokens are pruned to `score_beam` score units of the
    best and to `max_active` tokens. Biasing advances on emitted words.

    The search reads the graph's arc columns and its cached `emitting` and
    `closure` views, which every decoder on the graph shares; a decoder
    keeps the ones it was built with, so a later `sort_arcs` leaves its
    stream alone. Tokens are kept as arrays. A frame costs all emitting
    arcs of the active tokens as one vector, as `emitting` holds them
    apart from the label-0 arcs. It drops the candidates beyond
    `score_beam` of the frame's best whose state no label-0 path leaves
    or reaches, which pruning would drop anyway, and recombines the rest
    per (state, context node). Ties are settled from
    the tokens, never from the order they arrive in: tokens are held in
    `_prune`'s (cost, state, context node) order between frames, and among
    equal costs the candidate of the token first in that order wins, then
    the one whose arc comes first. The survivors then follow the label-0
    paths of their states, frozen as `closure` (a label-0 cycle is refused
    here), and the path ends merge as `_close` says. Arcs of weight +inf
    lie on no finite path and are not searched. Counters over the stream:
    `arcs_expanded` (emitting arcs with a finite log-probability, plus
    label-0 hops), `tokens_pruned_beam`, `tokens_pruned_max_active` and
    `eps_relaxations` (keys that a label-0 path improved or added).
    `links_held` is the number of unit and word backpointers held now.
    """

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
        # What the search reads of the graph, kept as built: a later `sort_arcs` rebuilds the graph's own.
        self._emitting, self._closure = graph.emitting, graph.closure
        self._olabel, self._weight, self._nextstate = graph.olabel, graph.weight, graph.nextstate
        self._min_tokens = max(self._min_tokens, graph.max_ilabel)
        self._n_ctx = self.context.num_states() if self.context is not None else 1
        self._units = _Links()
        self._words = _Links()
        self._tokens = (np.zeros((4, 1)), np.array([[graph.start, -1, 0, ContextGraph.START, -1, -1, 0]]).T)
        self._close()
        self._tokens = _take(self._tokens, _ranked(self._tokens))  # `_prune`'s order, with no cut
        self._link()

    @property
    def links_held(self) -> int:
        return len(self._units) + len(self._words)

    def _step(self, row: np.ndarray) -> None:
        view = self._emitting
        floats, ints = self._tokens
        state = ints[0]
        # Every emitting arc of every token, in token order and then arc order.
        first = view.offsets[state]
        src, arc = _spans(first, view.offsets[state + 1] - first)
        cand = view.arcs.take(arc, axis=1)  # rows nextstate, column, olabel
        lp = row[cand[1]]
        if np.minimum.reduce(row) == NEG_INF:  # arcs whose token is impossible in this frame drop out
            kept = (lp != NEG_INF).nonzero()[0]
            src, arc, cand, lp = src[kept], arc[kept], cand[:, kept], lp[kept]
        self.arcs_expanded += len(lp)
        if not len(lp):  # no token survives the frame
            self._tokens = _take(self._tokens, src)
            return

        ac = lp * -self.acoustic_scale
        ctx = ints[3][src] if self.context is not None else None
        gw, cost, delta = self._follow(cand[2], view.weight[arc], floats[0][src] + ac, ctx)
        nextstate = cand[0]
        key = nextstate if ctx is None else nextstate * self._n_ctx + ctx
        # The exact beam cut: `_close` can only lower the best cost, so `_prune`
        # drops a candidate beyond the beam of this best unless a label-0 path
        # leaves or reaches its state.
        kept = ((cost <= np.minimum.reduce(cost) + self.score_beam) | view.on_label0[nextstate]).nonzero()[0]
        win = kept[_cheapest(key[kept], cost[kept])]
        self.tokens_pruned_beam += _distinct(key) - len(win)  # the keys cut whole, as `_prune` counts them

        parent = src[win]
        floats = floats.take(parent, axis=1)
        floats[0] = cost[win]
        floats[1] += ac[win]
        floats[2] += gw[win]
        ints = ints.take(parent, axis=1)
        arrived = cand.take(win, axis=1)
        fresh = arrived[1] != ints[1]  # a label other than the last starts a unit
        ints[:3] = arrived
        np.multiply(ints[1], fresh, out=ints[6])  # the blank's label 0 starts none
        if ctx is not None:
            floats[3] += delta[win]
            ints[3] = ctx[win]
        self._tokens = floats, ints
        self._close()
        self._prune()
        self._link()

    def _follow(self, olabel, weight, cost, ctx) -> tuple[np.ndarray, ...]:
        """Follow arcs of output labels `olabel` and weights `weight` from
        tokens at `cost` (acoustic cost included) and, with biasing, context
        nodes `ctx`, which advance in place on each arc's word. Returns (gw,
        cost, delta): gw is the weight times `lm_scale` plus `word_penalty`
        on a word; the new cost subtracts the bonus delta (None without
        biasing)."""
        gw = weight * self.lm_scale + self.word_penalty * (olabel != 0)
        cost = cost + gw
        if self.context is None:
            return gw, cost, None
        word = olabel.nonzero()[0]
        delta = np.zeros(len(olabel))
        if len(word):  # one `advance` per distinct (node, word) pair
            width = int(olabel[word].max()) + 1
            pairs, inverse = np.unique(ctx[word] * width + olabel[word], return_inverse=True)
            moves = [self.context.advance(*divmod(pair, width)) for pair in pairs.tolist()]
            ctx[word] = np.array([node for node, _ in moves], dtype=np.int64)[inverse]
            delta[word] = np.array([d for _, d in moves])[inverse]
            cost -= delta
        return gw, cost, delta

    def _close(self) -> None:
        """Follow the label-0 paths of the tokens, held in (state, ctx) order,
        and merge their ends in. A hop is costed like an emitting arc with
        no acoustic part; a word on it first links the pending word. A
        path's end replaces the token at its key only if strictly cheaper;
        among ends of equal cost the shorter path wins, then the one whose
        source comes first, then the first in closure order."""
        offsets, paths = self._closure
        floats, ints = self._tokens
        first = offsets[ints[0]]
        count = offsets[ints[0] + 1] - first
        if not np.count_nonzero(count):
            return
        held = len(first)
        src, rows = _spans(first, count)
        hops = paths[rows]
        starts = [0]  # hop j moves rows starts[j]:, as shorter paths come first
        if hops.shape[1] > 1:
            length = (hops >= 0).sum(axis=1)
            order = np.argsort(length, kind="stable")
            src, hops = src[order], hops[order]
            starts += np.searchsorted(length[order], np.arange(2, hops.shape[1] + 1)).tolist()
        ends = _take(self._tokens, src)
        cost, _, graph_cost, ctx_score = ends[0]
        state, _, new_word, ctx, _, word, _ = ends[1]
        for start, arc in zip(starts, hops.T):
            arc = arc[start:]
            self.arcs_expanded += len(arc)
            olabel = self._olabel[arc]
            gw, cost[start:], delta = self._follow(olabel, self._weight[arc], cost[start:], ctx[start:])
            graph_cost[start:] += gw
            if delta is not None:
                ctx_score[start:] += delta
            state[start:] = self._nextstate[arc]
            emits = olabel.nonzero()[0]
            if len(emits):
                at = emits + start
                linked = at[new_word[at] != 0]
                word[linked] = self._words.add(word[linked], new_word[linked])
                new_word[at] = olabel[emits]
        self._tokens = floats, ints = np.concatenate((floats, ends[0]), axis=1), np.concatenate((ints, ends[1]), axis=1)
        key = ints[0] if self.context is None else ints[0] * self._n_ctx + ints[3]  # (state, ctx)
        if _distinct(key) == len(key):  # every path ends at a new key
            self.eps_relaxations += len(src)
            return
        win = _cheapest(key, floats[0])
        self.eps_relaxations += int(np.count_nonzero(win >= held))
        self._tokens = _take(self._tokens, win)

    def _prune(self) -> None:
        """Keep tokens within `score_beam` of the best, then the `max_active`
        cheapest, ordered by (cost, state, ctx)."""
        cost = self._tokens[0][0]
        if not len(cost):
            return
        order = _ranked(self._tokens)
        ranked = cost[order]
        within = int(ranked.searchsorted(ranked[0] + self.score_beam, "right"))
        keep = min(within, self.max_active)
        self.tokens_pruned_beam += len(cost) - within
        self.tokens_pruned_max_active += within - keep
        self._tokens = _take(self._tokens, order[:keep])

    def _link(self) -> None:
        """Link each token's pending unit and word onto its chains."""
        ints = self._tokens[1]
        for links, chain, labels in ((self._units, ints[4], ints[6]), (self._words, ints[5], ints[2])):
            pending = labels.nonzero()[0]
            if len(pending):
                chain[pending] = links.add(chain[pending], labels[pending])
            chain[:] = links.compact(chain)

    def finalize(self) -> NBestList:
        """Add final weights, keep the cheapest token per word sequence, rank."""
        ints = self._tokens[1]
        tokens = _take(self._tokens, np.lexsort((ints[3], ints[0])))
        fw = self.graph.final[tokens[1][0]]
        is_final = fw != math.inf
        if is_final.any():
            tokens, fw = _take(tokens, is_final.nonzero()[0]), fw[is_final]
        else:
            fw = np.zeros(len(fw))  # no token reached a final state; fall back to all survivors
        (cost, ac_cost, graph_cost, ctx_score), (_, _, _, _, unit, word, _) = tokens
        cost = (cost + fw * self.lm_scale).tolist()
        graph_cost = (graph_cost + fw * self.lm_scale).tolist()
        by_words: dict[tuple[int, ...], int] = {}
        for i, words in enumerate(self._words.chains(word)):
            prev = by_words.get(words)
            if prev is None or cost[i] < cost[prev]:
                by_words[words] = i

        ranked = sorted(by_words.items(), key=lambda item: (cost[item[1]], item[0]))[: self.nbest]
        best = np.array([i for _, i in ranked], dtype=np.int64)
        units = self._units.chains(unit[best])
        hyps = [
            Hypothesis(
                units=units[rank],
                total_score=-cost[i],
                score_ctc=-float(ac_cost[i]),
                score_context=float(ctx_score[i]),
                score_lm=-graph_cost[i],
                words=tuple(self.graph.osymbols.symbol_of(w) for w in words),
            )
            for rank, (words, i) in enumerate(ranked)
        ]
        if not hyps:
            hyps = [Hypothesis(units=(), total_score=NEG_INF, score_ctc=NEG_INF)]
        return NBestList(hyps)
