"""Independent reference computations the tests check the engine against.

Everything here is deliberately brute force: exhaustive path enumeration,
full path-sum marginalization, the textbook ARPA backoff recursion, a
plain greedy phrase matcher, the `(matched, pending)` biasing walker, the
object-per-extension prefix search, the trace-carrying WFST search, a
heap-based n-best shortest path, the list-of-`Arc` FST algorithms, the
line-at-a-time FST text reader and the `tarfile` shard writer and
reader. None of it shares code with the engine paths it verifies; the
walker reads only the phrase list and the boost, the two searches borrow
only the engine's input and output containers (the WFST search also its
`StreamingDecoder` chunk loop) and the biasing graph's `advance`, the FST
code uses `WeightedFst` only as a container of states and arcs (built
through `FstBuilder`), the text reader uses Python's `float` and `int`
and no numpy, and the shard code uses `SampleRecord` only as a container
of a record.
"""

from __future__ import annotations

import gzip
import heapq
import io
import itertools
import json
import math
import tarfile
import zlib
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ctcdec.decode import (
    Hypothesis,
    NBestList,
    PosteriorMatrix,
    StreamingDecoder,
    skip_blank_frames,
)
from ctcdec.errors import ConfigurationError, ParseError, PreconditionError, ResourceError
from ctcdec.fst import NO_STATE, WeightedFst
from ctcdec.graph import disambig_ids
from ctcdec.symbols import SymbolTable
from ctcdec.uio import SampleRecord

INF = math.inf


@dataclass(frozen=True)
class Arc:
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


def times(a, b):
    """The semiring product of two weights: +inf absorbs, else the sum."""
    if a == INF or b == INF:
        return INF
    return a + b


def plus(a, b):
    """The semiring sum of two weights: the smaller."""
    return a if a <= b else b


class FstBuilder:
    """A `WeightedFst` put together a call at a time: states, the start,
    arcs and final weights are gathered, and `fst()` hands them to the
    machine's constructor, which checks them. A state set final twice
    keeps the smaller weight."""

    def __init__(self, isymbols=None, osymbols=None):
        self.isymbols, self.osymbols = isymbols, osymbols
        self.num_states = 0
        self.start = NO_STATE
        self.finals = {}
        self.arcs = []  # (src, ilabel, olabel, weight, nextstate)

    @classmethod
    def of(cls, fst):
        """A builder holding all of `fst`, to build a changed copy of it."""
        out = cls(fst.isymbols, fst.osymbols)
        out.add_states(fst.num_states())
        out.set_start(fst.start)
        out.arcs = list(zip(*(c.tolist() for c in fst.columns())))
        out.finals = finals_of(fst)
        return out

    def add_state(self):
        self.num_states += 1
        return self.num_states - 1

    def add_states(self, n):
        self.num_states += n

    def set_start(self, state):
        self.start = state

    def set_final(self, state, weight=0.0):
        self.finals[state] = plus(self.finals.get(state, INF), weight)

    def add_arc(self, src, ilabel, olabel, weight, nextstate):
        self.arcs.append((src, ilabel, olabel, weight, nextstate))

    def fst(self):
        final = [self.finals.get(state, INF) for state in range(self.num_states)]
        columns = zip(*self.arcs) if self.arcs else [()] * 5
        return WeightedFst(self.isymbols, self.osymbols, self.num_states, self.start, final, *columns)


def finals_of(fst):
    """The final states of `fst` and their weights: those below +inf."""
    return {state: weight for state, weight in enumerate(fst.final.tolist()) if weight < INF}


def arcs_of(fst, state):
    """The arcs leaving `state`, as `Arc` values built from the machine's CSR arrays."""
    span = slice(fst.offsets[state], fst.offsets[state + 1])
    return list(map(Arc, *(c[span].tolist() for c in (fst.ilabel, fst.olabel, fst.weight, fst.nextstate))))


def enumerate_language(fst, max_arcs=None):
    """All accepting (input, output) label pairs with min path weight.

    DFS bounded by arc count; exact for acyclic machines when max_arcs is
    at least the state count (paths can never be longer).
    """
    if max_arcs is None:
        max_arcs = fst.num_states()
    best = defaultdict(lambda: INF)
    if fst.is_empty():
        return dict(best)

    def walk(state, ilabels, olabels, weight, depth):
        fw = fst.final[state]
        if fw != INF:
            key = (ilabels, olabels)
            best[key] = min(best[key], weight + fw)
        if depth >= max_arcs:
            return
        for arc in arcs_of(fst, state):
            nil = ilabels + (arc.ilabel,) if arc.ilabel else ilabels
            nol = olabels + (arc.olabel,) if arc.olabel else olabels
            walk(arc.nextstate, nil, nol, weight + arc.weight, depth + 1)

    walk(fst.start, (), (), 0.0, 0)
    return dict(best)


def join_languages(lang_a, lang_b):
    """The composition's weighted language from the component languages."""
    by_mid = defaultdict(list)
    for (mid, out), w in lang_b.items():
        by_mid[mid].append((out, w))
    joined = defaultdict(lambda: INF)
    for (inp, mid), wa in lang_a.items():
        for out, wb in by_mid.get(mid, ()):
            key = (inp, out)
            joined[key] = min(joined[key], wa + wb)
    return dict(joined)


def languages_equal(lang_a, lang_b, tol=1e-9):
    if set(lang_a) != set(lang_b):
        return False
    return all(abs(lang_a[k] - lang_b[k]) <= tol for k in lang_a)


def ctc_collapse(labels, blank=0):
    """Merge adjacent repeats, then delete blanks."""
    out = []
    prev = None
    for label in labels:
        if label != prev:
            out.append(label)
        prev = label
    return tuple(label for label in out if label != blank)


def ctc_marginals(logprobs, blank=0):
    """Exact per-sequence log marginals by enumerating every frame path.

    Sums path probabilities in the linear domain with fsum, so it shares
    no arithmetic path with the prefix-search recursion.
    """
    frames = len(logprobs)
    tokens = len(logprobs[0]) if frames else 0
    sums = defaultdict(list)
    for path in itertools.product(range(tokens), repeat=frames):
        logp = sum(logprobs[t][path[t]] for t in range(frames))
        sums[ctc_collapse(path, blank)].append(math.exp(logp))
    if not frames:
        return {(): 0.0}
    return {seq: math.log(math.fsum(probs)) for seq, probs in sums.items() if math.fsum(probs) > 0.0}


def best_marginal(logprobs, blank=0):
    """(argmax sequence, log score) with lexicographic tie-breaking."""
    marginals = ctc_marginals(logprobs, blank)
    return min(marginals.items(), key=lambda item: (-item[1], item[0]))


def arpa_sentence_log10(model, sentence, *, sos="<s>", eos="</s>"):
    """Sentence log10 probability by the standard backoff recursion."""
    index = model.index()
    n = model.max_order

    def cond(word, history):
        history = history[-(n - 1):] if n > 1 else ()
        total = 0.0
        while True:
            entry = index.get(history + (word,))
            if entry is not None:
                return total + entry.logprob
            if not history:
                raise KeyError(f"no unigram for {word!r}")
            backoff_entry = index.get(history)
            if backoff_entry is not None and backoff_entry.backoff is not None:
                total += backoff_entry.backoff
            history = history[1:]

    history = (sos,)
    total = 0.0
    for word in sentence:
        total += cond(word, history)
        history = history + (word,)
    total += cond(eos, history)
    return total


def greedy_phrase_score(units, phrase_sets, boost):
    """Greedy-match biasing score: boost per matched unit, refunds on abandon.

    `phrase_sets` is a collection of unit tuples. The walk works directly
    on the phrase list, with no trie involved.
    """
    phrases = list(phrase_sets)
    score = 0.0
    matched = ()  # current greedy prefix
    banked = 0

    def extends(prefix):
        return any(p[: len(prefix)] == tuple(prefix) for p in phrases)

    for unit in units:
        candidate = matched + (unit,)
        if extends(candidate):
            score += boost
            matched = candidate
            if tuple(matched) in phrases:
                banked = len(matched)
                if not any(len(p) > len(matched) and p[: len(matched)] == matched for p in phrases):
                    matched = ()
                    banked = 0
        else:
            score -= (len(matched) - banked) * boost
            matched = ()
            banked = 0
            if extends((unit,)):
                score += boost
                matched = (unit,)
                if (unit,) in phrases:
                    banked = 1
                    if not any(len(p) > 1 and p[0] == unit for p in phrases):
                        matched = ()
                        banked = 0
    return score


def phrase_node_ids(phrases):
    """Every prefix of `phrases` -> its node id: the empty prefix is 0 and
    the others are numbered in order of first appearance, phrase by phrase
    and shortest first, as the biasing trie numbers its nodes."""
    ids = {(): 0}
    for phrase in phrases:
        for k in range(1, len(phrase) + 1):
            ids.setdefault(tuple(phrase[:k]), len(ids))
    return ids


def reference_advance(phrases, boost, matched, pending, unit):
    """One step of the biasing walk, over the phrase list itself.

    The walker stands at `matched`, the units matched so far (a prefix of
    some phrase), with `pending` the boost summed `+= boost` over the
    matches since the last completed phrase; a mismatch refunds it and
    retries the unit from the start once. A completed phrase banks the
    boost, and the walk goes on past it only while a longer phrase can
    still complete. Returns `(matched, pending, delta)`.
    """
    phrases = {tuple(p) for p in phrases}

    def continues(prefix):
        return any(len(p) > len(prefix) and p[: len(prefix)] == prefix for p in phrases)

    def enter(prefix, pending):
        pending += boost
        if prefix in phrases:
            return (prefix if continues(prefix) else ()), 0.0, boost
        return prefix, pending, boost

    if matched + (unit,) in phrases or continues(matched + (unit,)):
        return enter(matched + (unit,), pending)
    delta = -pending
    if (unit,) in phrases or continues((unit,)):
        matched, pending, gain = enter((unit,), 0.0)
        return matched, pending, delta + gain
    return (), 0.0, delta


# -- reference CTC prefix beam search ---------------------------------------
#
# The pure-Python prefix search as it stood before the array-based step:
# it builds every extension as a Python object and sorts all of them. The
# engine's `PrefixBeamDecoder` must give byte-identical n-best text.

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


class _PrefixEntry:
    __slots__ = ("pb", "pnb", "ctx", "ctx_score")

    def __init__(self, pb, pnb, ctx, ctx_score):
        self.pb = pb
        self.pnb = pnb
        self.ctx = ctx
        self.ctx_score = ctx_score

    def total(self):
        return log_add(self.pb, self.pnb)


class ReferencePrefixBeamDecoder:
    """Streaming CTC prefix beam search, one Python object per extension."""

    def __init__(self, beam=10, nbest=10, context=None, blank_skip_threshold=None, blank=0):
        self.beam = beam
        self.nbest = nbest
        self.context = context
        self.blank_skip_threshold = blank_skip_threshold
        self.blank = blank
        initial_ctx = context.START if context is not None else None
        self._entries = {(): _PrefixEntry(0.0, NEG_INF, initial_ctx, 0.0)}

    def advance(self, logprobs):
        matrix = PosteriorMatrix(logprobs)
        rows = matrix.logprobs
        if self.blank_skip_threshold is not None:
            rows = rows[skip_blank_frames(matrix, self.blank_skip_threshold)]
        for row in rows:
            self._step([float(v) for v in row])

    def _step(self, logp):
        nxt = {}

        def entry_for(prefix, ctx, ctx_score):
            entry = nxt.get(prefix)
            if entry is None:
                entry = _PrefixEntry(NEG_INF, NEG_INF, ctx, ctx_score)
                nxt[prefix] = entry
            return entry

        blank_lp = logp[self.blank]
        for prefix, cur in self._entries.items():
            total = cur.total()
            stay = entry_for(prefix, cur.ctx, cur.ctx_score)
            if total != NEG_INF and blank_lp != NEG_INF:
                stay.pb = log_add(stay.pb, total + blank_lp)
            if prefix and cur.pnb != NEG_INF and logp[prefix[-1]] != NEG_INF:
                stay.pnb = log_add(stay.pnb, cur.pnb + logp[prefix[-1]])
            for token in range(len(logp)):
                if token == self.blank:
                    continue
                lp = logp[token]
                if lp == NEG_INF:
                    continue
                source = cur.pb if (prefix and token == prefix[-1]) else total
                if source == NEG_INF:
                    continue
                extended = prefix + (token,)
                entry = nxt.get(extended)
                if entry is None:
                    if cur.ctx is not None:
                        ctx, delta = self.context.advance(cur.ctx, token)
                        entry = entry_for(extended, ctx, cur.ctx_score + delta)
                    else:
                        entry = entry_for(extended, None, 0.0)
                entry.pnb = log_add(entry.pnb, source + lp)

        ranked = sorted(
            nxt.items(), key=lambda item: (-(item[1].total() + item[1].ctx_score), item[0])
        )
        self._entries = dict(ranked[: self.beam])

    def finalize(self):
        ranked = sorted(
            self._entries.items(),
            key=lambda item: (-(item[1].total() + item[1].ctx_score), item[0]),
        )
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


# -- reference WFST beam search ----------------------------------------------
#
# The WFST search as it stood when every search token carried a full
# `TraceStep` chain (frame, labels, acoustic log-probability and graph
# weight for each arc taken) and `finalize` rebuilt `units` from it, with
# its label-0 step an enumeration of every label-0 path. It shares only
# the `StreamingDecoder` chunk loop and the output containers with the
# engine; repeats are collapsed with `ctc_collapse` above. The engine's
# `WfstBeamDecoder` must give byte-identical n-best text.


@dataclass(frozen=True)
class TraceStep:
    """One decoding step: frame -1 marks the final-weight step."""

    frame: int
    ilabel: int
    olabel: int
    acoustic_logprob: float
    graph_weight: float


class _RefToken:
    __slots__ = ("state", "cost", "ac_cost", "graph_cost", "ctx", "ctx_score", "words", "trace")

    def __init__(self, state, cost, ac_cost, graph_cost, ctx, ctx_score, words, trace):
        self.state = state
        self.cost = cost
        self.ac_cost = ac_cost
        self.graph_cost = graph_cost
        self.ctx = ctx
        self.ctx_score = ctx_score
        self.words = words
        self.trace = trace  # linked (parent_trace, TraceStep) chain


class ReferenceWfstBeamDecoder(StreamingDecoder):
    """Frame-synchronous Viterbi beam search over a TLG decoding graph.

    Graph input label l > 0 consumes acoustic token l - 1 (so `<blank>` at
    acoustic id 0 is graph label 1); label 0 arcs are free moves expanded
    after each frame. Tokens are pruned to `score_beam` score units of the
    best and to `max_active` tokens. Biasing advances on emitted words.
    Arcs of weight +inf lie on no finite path and are not followed.

    Exact cost ties at one (state, ctx) key are settled from the tokens:
    between frames, tokens are held in (cost, state, ctx) order, the
    constructor's too. A frame's candidates are made in that order, arc by
    arc, and the first of equal cost is kept. The label-0 step ranks each
    path end by (cost, hops, source key, the arc position at each hop) and
    keeps the lowest rank for each key, so a held token, of 0 hops, is
    replaced only by a strictly cheaper end.
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
        self._emit_arcs: list[list] = []
        self._eps_arcs: list[list] = []
        max_ilabel = 0
        for state in range(graph.num_states()):
            emit, eps = [], []
            for arc in arcs_of(graph, state):
                if arc.ilabel != 0:
                    max_ilabel = max(max_ilabel, arc.ilabel)
                if arc.weight == math.inf:
                    continue  # on no finite path
                if arc.ilabel == 0:
                    eps.append(arc)
                else:
                    emit.append(arc)
            self._emit_arcs.append(emit)
            self._eps_arcs.append(eps)
        self._eps_count = sum(map(len, self._eps_arcs))
        self._min_tokens = max(self._min_tokens, max_ilabel)
        initial_ctx = self.context.START if self.context is not None else None
        start = _RefToken(graph.start, 0.0, 0.0, 0.0, initial_ctx, 0.0, (), None)
        self._tokens: dict[tuple[int, int], _RefToken] = {self._key(start): start}
        self._frame = 0  # index of the next searched (not skipped) frame
        self._eps_expand()
        self._tokens = dict(sorted(self._tokens.items(), key=lambda item: (item[1].cost, item[0])))

    def _key(self, token: _RefToken) -> tuple[int, int]:
        return (token.state, token.ctx if token.ctx is not None else 0)

    def _step(self, row: np.ndarray) -> None:
        frame = self._frame
        self._frame += 1
        logp = row.tolist()
        acoustic_scale = self.acoustic_scale
        lm_scale = self.lm_scale
        word_penalty = self.word_penalty
        nxt: dict[tuple[int, int], _RefToken] = {}
        for token in self._tokens.values():
            for arc in self._emit_arcs[token.state]:
                lp = logp[arc.ilabel - 1]
                if lp == NEG_INF:
                    continue
                ac = -lp * acoustic_scale
                gw = arc.weight * lm_scale
                ctx = token.ctx
                ctx_delta = 0.0
                words = token.words
                if arc.olabel != 0:
                    gw += word_penalty
                    words = words + (arc.olabel,)
                    if ctx is not None:
                        ctx, ctx_delta = self.context.advance(ctx, arc.olabel)
                cand = _RefToken(
                    arc.nextstate,
                    token.cost + ac + gw - ctx_delta,
                    token.ac_cost + ac,
                    token.graph_cost + gw,
                    ctx,
                    token.ctx_score + ctx_delta,
                    words,
                    (token.trace, TraceStep(frame, arc.ilabel, arc.olabel, lp, arc.weight)),
                )
                key = (cand.state, cand.ctx if cand.ctx is not None else 0)
                best = nxt.get(key)
                if best is None or cand.cost < best.cost:
                    nxt[key] = cand
        self._tokens = nxt
        self._eps_expand(frame)
        self._prune()

    def _eps_expand(self, frame: int = -2) -> None:
        """Follow every label-0 path from every held token (no frame is
        consumed) and keep the lowest-ranked token for each key."""
        lm_scale = self.lm_scale
        word_penalty = self.word_penalty
        best = {key: ((token.cost, 0, key, ()), token) for key, token in self._tokens.items()}
        for source, held in list(self._tokens.items()):
            paths = [(held, ())]  # (path end, the arc position at each hop)
            while paths:
                token, route = paths.pop()
                for pos, arc in enumerate(self._eps_arcs[token.state]):
                    if len(route) == self._eps_count:  # a longer path repeats an arc
                        raise ConfigurationError("the graph has a label-0 cycle")
                    gw = arc.weight * lm_scale
                    ctx = token.ctx
                    ctx_delta = 0.0
                    words = token.words
                    if arc.olabel != 0:
                        gw += word_penalty
                        words = words + (arc.olabel,)
                        if ctx is not None:
                            ctx, ctx_delta = self.context.advance(ctx, arc.olabel)
                    cand = _RefToken(
                        arc.nextstate,
                        token.cost + gw - ctx_delta,
                        token.ac_cost,
                        token.graph_cost + gw,
                        ctx,
                        token.ctx_score + ctx_delta,
                        words,
                        (token.trace, TraceStep(frame, 0, arc.olabel, 0.0, arc.weight)),
                    )
                    hops = route + (pos,)
                    rank = (cand.cost, len(hops), source, hops)
                    key = self._key(cand)
                    if key not in best or rank < best[key][0]:
                        best[key] = (rank, cand)
                    paths.append((cand, hops))
        self._tokens = {key: token for key, (_, token) in best.items()}

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
        lm_scale = self.lm_scale
        candidates = []
        any_final = any(
            self.graph.final[token.state] != math.inf for token in self._tokens.values()
        )
        for key, token in sorted(self._tokens.items()):
            fw = float(self.graph.final[token.state])
            if fw == math.inf:
                if any_final:
                    continue
                fw = 0.0  # no token reached a final state; fall back to all survivors
            graph_cost = token.graph_cost + fw * lm_scale
            cost = token.cost + fw * lm_scale
            trace = _unwind(token.trace)
            if fw != 0.0 or any_final:
                trace = trace + (TraceStep(-1, 0, 0, 0.0, fw),)
            candidates.append((cost, token, graph_cost, trace))

        by_words: dict[tuple[int, ...], tuple] = {}
        for cost, token, graph_cost, trace in candidates:
            prev = by_words.get(token.words)
            if prev is None or cost < prev[0]:
                by_words[token.words] = (cost, token, graph_cost, trace)

        ranked = sorted(by_words.items(), key=lambda item: (item[1][0], item[0]))
        hyps = []
        for words, (cost, token, graph_cost, trace) in ranked[: self.nbest]:
            units = ctc_collapse(
                tuple(step.ilabel - 1 for step in trace if step.ilabel > 0)
            )
            hyps.append(
                Hypothesis(
                    units=units,
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


def _unwind(chain) -> tuple[TraceStep, ...]:
    steps = []
    while chain is not None:
        chain, step = chain
        steps.append(step)
    return tuple(reversed(steps))



# -- single-path machines, shortest paths and biasing scores -----------------


def linear_fst(ilabels, olabels=None, weights=None, isymbols=None, osymbols=None, final_weight=0.0):
    """A single-path transducer; olabels default to ilabels (acceptor)."""
    if olabels is None:
        olabels = ilabels
    if len(olabels) != len(ilabels):
        raise ConfigurationError("ilabels and olabels must have equal length")
    if weights is None:
        weights = [0.0] * len(ilabels)
    fst = FstBuilder(isymbols, osymbols)
    state = fst.add_state()
    fst.set_start(state)
    for il, ol, w in zip(ilabels, olabels, weights):
        nxt = fst.add_state()
        fst.add_arc(state, il, ol, w, nxt)
        state = nxt
    fst.set_final(state, final_weight)
    return fst.fst()


@dataclass(frozen=True)
class FstPath:
    """An accepting path: epsilon-stripped label sequences plus total weight."""

    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    weight: float


def shortest_path(a, n=1, *, max_expansions=200_000):
    """The n cheapest accepting paths, in nondecreasing weight order.

    Ties are broken by the lexicographic order of the (epsilon-stripped)
    input-label sequence. Returns fewer than n paths when the machine has
    fewer; an empty list when there is no accepting path.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if a.is_empty():
        return []
    results = []
    counter = 0
    # Heap entries: (weight, ilabels, olabels, tiebreak, state); state None marks
    # a completed path (final weight already folded in).
    heap = [(0.0, (), (), counter, a.start)]
    expansions = 0
    while heap and len(results) < n:
        weight, ilabels, olabels, _, state = heapq.heappop(heap)
        if state is None:
            results.append(FstPath(ilabels, olabels, weight))
            continue
        expansions += 1
        if expansions > max_expansions:
            raise ResourceError(f"shortest_path exceeded {max_expansions} expansions")
        fw = a.final[state]
        if fw != INF:
            counter += 1
            heapq.heappush(heap, (times(weight, fw), ilabels, olabels, counter, None))
        for arc in arcs_of(a, state):
            w = times(weight, arc.weight)
            if w == INF:
                continue
            counter += 1
            nil = ilabels + (arc.ilabel,) if arc.ilabel else ilabels
            nol = olabels + (arc.olabel,) if arc.olabel else olabels
            heapq.heappush(heap, (w, nil, nol, counter, arc.nextstate))
    return results


def score_hypothesis(units, phrases, boost):
    """The biasing score of a unit sequence: `reference_advance`'s deltas,
    summed from the start in walk order."""
    matched, pending, total = (), 0.0, 0.0
    for unit in units:
        matched, pending, delta = reference_advance(phrases, boost, matched, pending, unit)
        total += delta
    return total


# -- list-of-Arc FST algorithms ----------------------------------------------
#
# The engine's algorithms work on CSR arc columns. These are the earlier
# versions, which walk one `Arc` object at a time, kept as the byte-identity
# reference: each reads arcs only through `arcs_of`, finals only through
# `finals_of` or the final array, and builds its result through `FstBuilder`.


def _arc_key(arc):
    return (arc.ilabel, arc.olabel, arc.nextstate, arc.weight)


def _arc_lists(fst):
    return [arcs_of(fst, state) for state in range(fst.num_states())]


def reference_sorted(fst):
    """A copy whose arcs are added state by state in `_arc_key` order."""
    out = FstBuilder(fst.isymbols.copy(), fst.osymbols.copy())
    out.add_states(fst.num_states())
    if fst.start != -1:
        out.set_start(fst.start)
    for state, arcs in enumerate(_arc_lists(fst)):
        for arc in sorted(arcs, key=_arc_key):
            out.add_arc(state, arc.ilabel, arc.olabel, arc.weight, arc.nextstate)
    for state, weight in finals_of(fst).items():
        out.set_final(state, weight)
    return out.fst()


def reference_to_text(fst):
    lines = []
    for state, arcs in enumerate(_arc_lists(fst)):
        for arc in sorted(arcs, key=_arc_key):
            lines.append(f"{state} {arc.nextstate} {arc.ilabel} {arc.olabel} {arc.weight + 0.0:.6f}")
    for state, weight in sorted(finals_of(fst).items()):
        lines.append(f"{state} {weight + 0.0:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")


_INT64 = 2**63


def _reference_int(field):
    """An ASCII integer with an optional sign that fits int64, as the FST text format takes one, or None."""
    digits = field[1:] if field[:1] in ("+", "-") else field
    if not (digits.isascii() and digits.isdigit()):
        return None
    value = int(field)
    return value if -_INT64 <= value < _INT64 else None


def _reference_float(field):
    """`float(field)` for an ASCII field without `_`, or None."""
    if not field.isascii() or "_" in field:
        return None
    try:
        return float(field)
    except ValueError:
        return None


def _reference_fst_line(fields, line, n_lines, ilabels, olabels):
    """The message of the first check one FST text line fails, in the reader's
    rank order, or the line's values: (src, dst, ilabel, olabel, weight) for
    an arc, (state, weight) for a final weight, () for a blank line."""
    if len(fields) not in (0, 2, 5):
        return "expected arc or final-state line"
    values = [_reference_int(f) for f in fields[:-1]] + [_reference_float(f) for f in fields[-1:]]
    if None in values:
        return f"cannot read {line.strip()!r}: ids and labels must be integers and weights numbers"
    too_large = f"is too large for a file of {n_lines} lines"
    if len(fields) == 2:
        state, weight = values
        if state < 0:
            return f"state id must be >= 0, got {state}"
        if state >= 2 * n_lines:
            return f"state id {state} {too_large}"
        if not weight > -INF:
            return f"final weight {fields[1]!r} is NaN or -inf"
        return tuple(values)
    if len(fields) == 5:
        src, dst, ilabel, olabel, weight = values
        if min(src, dst) < 0:
            return f"state ids must be >= 0, got {src} and {dst}"
        if max(src, dst) >= 2 * n_lines:
            return f"state id {max(src, dst)} {too_large}"
        if min(ilabel, olabel) < 0:
            return f"labels must be >= 0, got {ilabel} and {olabel}"
        if ilabels is not None and ilabel not in ilabels:
            return f"input label {ilabel} not in the symbol table"
        if olabels is not None and olabel not in olabels:
            return f"output label {olabel} not in the symbol table"
        if not weight > -INF:
            return f"arc weight {fields[4]!r} is NaN or -inf"
    return tuple(values)


def reference_read_fst(text, isymbols=None, osymbols=None):
    """The FST text format read one line at a time, with the reader's checks:
    the machine's `to_text`, or (line number, message) of the first failing
    line, which is the `ParseError` the reader must raise.

    A line names at most two states, so no state id of a file of n lines
    may reach 2n. The file's lines are counted first, then each line is
    checked and kept in turn; a state listed final twice keeps the smaller
    weight, and the arcs are written in `sort_arcs` order."""
    lines = text.splitlines()
    tables = [None if table is None else {i for _, i in table} for table in (isymbols, osymbols)]
    arcs, finals = [], {}
    for number, line in enumerate(lines, 1):
        values = _reference_fst_line(line.split(), line, len(lines), *tables)
        if isinstance(values, str):
            return number, values
        if len(values) == 5:
            arcs.append(values)
        elif len(values) == 2:
            state, weight = values
            finals[state] = plus(finals.get(state, INF), weight)
    arcs.sort(key=lambda arc: (arc[0], arc[2], arc[3], arc[1], arc[4]))  # (src, ilabel, olabel, dst, weight)
    out = [f"{src} {dst} {il} {ol} {w + 0.0:.6f}" for src, dst, il, ol, w in arcs]
    out += [f"{state} {w + 0.0:.6f}" for state, w in sorted(finals.items()) if w < INF]
    return "".join(line + "\n" for line in out)


def reference_connect(fst):
    out = FstBuilder(fst.isymbols.copy(), fst.osymbols.copy())
    if fst.is_empty():
        return out.fst()
    arcs = _arc_lists(fst)
    accessible = {fst.start}
    stack = [fst.start]
    while stack:
        for arc in arcs[stack.pop()]:
            if arc.nextstate not in accessible:
                accessible.add(arc.nextstate)
                stack.append(arc.nextstate)
    reverse = {s: [] for s in range(fst.num_states())}
    for state in range(fst.num_states()):
        for arc in arcs[state]:
            reverse[arc.nextstate].append(state)
    coaccessible = set()
    stack = [s for s in finals_of(fst) if s in accessible]
    while stack:
        state = stack.pop()
        if state in coaccessible:
            continue
        coaccessible.add(state)
        stack.extend(p for p in reverse[state] if p not in coaccessible)
    keep = accessible & coaccessible
    if fst.start not in keep:
        return out.fst()
    order = [fst.start] + [s for s in sorted(keep) if s != fst.start]
    remap = {state: out.add_state() for state in order}
    out.set_start(remap[fst.start])
    for state in order:
        for arc in arcs[state]:
            if arc.nextstate in keep:
                out.add_arc(remap[state], arc.ilabel, arc.olabel, arc.weight, remap[arc.nextstate])
    for state, weight in finals_of(fst).items():
        if state in keep:
            out.set_final(remap[state], weight)
    return out.fst()


def reference_compose(a, b):
    out = FstBuilder(a.isymbols.copy(), b.osymbols.copy())
    if a.is_empty() or b.is_empty():
        return out.fst()
    a_arcs, b_arcs = _arc_lists(a), _arc_lists(b)
    state_ids = {}
    queue = []

    def state_of(key):
        if key not in state_ids:
            state_ids[key] = out.add_state()
            queue.append(key)
        return state_ids[key]

    out.set_start(state_of((a.start, b.start, 0)))
    while queue:
        key = queue.pop()
        s1, s2, flt = key
        src = state_ids[key]
        by_ilabel = defaultdict(list)
        for arc2 in b_arcs[s2]:
            by_ilabel[arc2.ilabel].append(arc2)
        for arc1 in a_arcs[s1]:
            if arc1.olabel != 0:
                for arc2 in by_ilabel.get(arc1.olabel, ()):
                    dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                    out.add_arc(src, arc1.ilabel, arc2.olabel, times(arc1.weight, arc2.weight), dst)
            else:
                if flt != 2:
                    out.add_arc(src, arc1.ilabel, 0, arc1.weight, state_of((arc1.nextstate, s2, 1)))
                if flt == 0:
                    for arc2 in by_ilabel.get(0, ()):
                        dst = state_of((arc1.nextstate, arc2.nextstate, 0))
                        out.add_arc(src, arc1.ilabel, arc2.olabel, times(arc1.weight, arc2.weight), dst)
        if flt != 1:
            for arc2 in by_ilabel.get(0, ()):
                out.add_arc(src, 0, arc2.olabel, arc2.weight, state_of((s1, arc2.nextstate, 2)))
        fw = times(a.final[s1], b.final[s2])
        if fw != INF:
            out.set_final(src, fw)
    return reference_sorted(reference_connect(out.fst()))


def reference_determinize(a, state_budget=None):
    out = FstBuilder(a.isymbols.copy(), a.osymbols.copy())
    if a.is_empty():
        return out.fst()
    budget = state_budget if state_budget is not None else max(10 * a.num_states(), 1000)
    arcs = _arc_lists(a)
    subset_ids = {}
    queue = []

    def subset_state(subset):
        if subset not in subset_ids:
            if len(subset_ids) >= budget:
                raise ResourceError(f"determinization exceeded its state budget of {budget} states")
            subset_ids[subset] = out.add_state()
            queue.append(subset)
        return subset_ids[subset]

    out.set_start(subset_state(((a.start, 0.0),)))
    while queue:
        subset = queue.pop()
        src = subset_ids[subset]
        by_label = {}
        final = INF
        for state, residual in subset:
            final = plus(final, times(residual, a.final[state]))
            for arc in arcs[state]:
                w = times(residual, arc.weight)
                if w == INF:
                    continue
                targets = by_label.setdefault((arc.ilabel, arc.olabel), {})
                targets[arc.nextstate] = plus(targets.get(arc.nextstate, INF), w)
        if final != INF:
            out.set_final(src, final)
        for label in sorted(by_label):
            targets = by_label[label]
            w_min = min(targets.values())
            dst = subset_state(tuple(sorted((state, w - w_min) for state, w in targets.items())))
            out.add_arc(src, label[0], label[1], w_min, dst)
    return out.fst()


def reference_minimize(a):
    for arcs in _arc_lists(a):
        labels = [(arc.ilabel, arc.olabel) for arc in arcs]
        if len(set(labels)) != len(labels):
            raise PreconditionError("minimize requires a deterministic input FST")
    trimmed = reference_connect(a)
    if trimmed.is_empty():
        return trimmed
    arcs = _arc_lists(trimmed)
    classes = [0] * trimmed.num_states()
    keys = {}
    for state in range(trimmed.num_states()):
        classes[state] = keys.setdefault(("F", trimmed.final[state]), len(keys))
    while True:
        keys = {}
        new_classes = [0] * trimmed.num_states()
        for state in range(trimmed.num_states()):
            signature = (
                classes[state],
                tuple(sorted((arc.ilabel, arc.olabel, arc.weight, classes[arc.nextstate]) for arc in arcs[state])),
            )
            new_classes[state] = keys.setdefault(signature, len(keys))
        if new_classes == classes:
            break
        classes = new_classes
    out = FstBuilder(trimmed.isymbols.copy(), trimmed.osymbols.copy())
    representative = {}
    for state in range(trimmed.num_states()):
        representative.setdefault(classes[state], state)
    start_class = classes[trimmed.start]
    ordered = [start_class] + [c for c in sorted(representative, key=representative.get) if c != start_class]
    class_state = {c: out.add_state() for c in ordered}
    out.set_start(class_state[start_class])
    for c, rep in representative.items():
        for arc in arcs[rep]:
            out.add_arc(class_state[c], arc.ilabel, arc.olabel, arc.weight, class_state[classes[arc.nextstate]])
        fw = trimmed.final[rep]
        if fw != INF:
            out.set_final(class_state[c], fw)
    return reference_sorted(out.fst())


def reference_relabel_ilabels(fst, mapping, isymbols=None):
    out = FstBuilder(isymbols if isymbols is not None else fst.isymbols.copy(), fst.osymbols.copy())
    out.add_states(fst.num_states())
    if fst.start != -1:
        out.set_start(fst.start)
    for state, arcs in enumerate(_arc_lists(fst)):
        for arc in arcs:
            out.add_arc(state, mapping.get(arc.ilabel, arc.ilabel), arc.olabel, arc.weight, arc.nextstate)
    for state, weight in finals_of(fst).items():
        out.set_final(state, weight)
    return reference_sorted(out.fst())


def reference_build_TLG(t, l, g):
    """`graph.build_TLG`'s chain over the list-of-Arc algorithms."""
    lg = reference_compose(l, g)
    if lg.is_empty():
        return WeightedFst(t.isymbols.copy(), g.osymbols.copy())
    mind = reference_minimize(reference_determinize(lg))
    aux = disambig_ids(mind.isymbols)
    clean = SymbolTable()
    for sym, sym_id in mind.isymbols:
        if sym_id not in aux:
            clean.add(sym, sym_id)
    return reference_compose(t, reference_relabel_ilabels(mind, {a: 0 for a in aux}, isymbols=clean))


# -- shard IO through tarfile ----------------------------------------------


def tarfile_write_shard(path, samples, *, compress=False):
    """One shard written through `tarfile` in USTAR format, entry by entry."""
    with open(path, "wb") as raw:
        stream = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) if compress else raw
        with tarfile.open(fileobj=stream, mode="w", format=tarfile.USTAR_FORMAT) as tar:
            for sample in samples:
                entries = [(f"{sample.key}.{suffix}", sample.payloads[suffix]) for suffix in sorted(sample.payloads)]
                meta = json.dumps(sample.metadata, sort_keys=True, ensure_ascii=False).encode("utf-8")
                entries.append((f"{sample.key}.json", meta))
                for name, data in entries:
                    tar.addfile(tarfile_info(name, len(data)), io.BytesIO(data))
        if compress:
            stream.close()


def tarfile_info(name, size):
    """The `TarInfo` the tarfile-based writer gives an entry."""
    info = tarfile.TarInfo(name)
    info.size = size
    info.mtime = 0
    info.mode = 0o644
    info.uid = info.gid = 0
    info.uname = info.gname = ""
    return info


def tarfile_read_shard(stream, locator):
    """Records of one shard stream read through stream-mode `tarfile`."""
    mode = "r|gz" if locator.endswith((".tar.gz", ".tgz")) else "r|"
    last_entry = "<start>"
    key = None
    payloads = {}
    metadata = {}
    try:
        with tarfile.open(fileobj=stream, mode=mode) as tar:
            for member in tar:
                last_entry = member.name
                if not member.isfile():
                    continue
                base, dot, suffix = member.name.rpartition(".")
                if not dot or not base:
                    raise ParseError(f"entry {member.name!r} is not named key.suffix", source=locator)
                if base != key:
                    if key is not None:
                        yield SampleRecord(key, payloads, metadata)
                    key, payloads, metadata = base, {}, {}
                handle = tar.extractfile(member)
                data = handle.read() if handle is not None else b""
                if suffix == "json":
                    metadata = json.loads(data.decode("utf-8"))
                else:
                    payloads[suffix] = data
            # Stream-mode tarfile ends silently on a bad mid-archive header;
            # a well-formed archive leaves nothing but NUL padding here.
            trailer = tar.fileobj.read(tarfile.RECORDSIZE)
            if trailer.strip(b"\0"):
                raise tarfile.ReadError("archive continues with unreadable data")
            if key is not None:
                yield SampleRecord(key, payloads, metadata)
    except (tarfile.TarError, EOFError, zlib.error, json.JSONDecodeError) as exc:
        raise ParseError(f"corrupt shard after entry {last_entry!r}: {exc}", source=locator) from exc
