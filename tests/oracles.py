"""Independent reference computations the tests check the engine against.

Everything here is deliberately brute force: exhaustive path enumeration,
full path-sum marginalization, the textbook ARPA backoff recursion, a
plain greedy phrase matcher, the `(node, pending)` biasing walker, the
object-per-extension prefix search and the trace-carrying WFST search.
None of it shares code with the engine paths it verifies; the walker
reads only the biasing trie's arcs, and the two searches borrow only the
engine's input and output containers (the WFST search also its
`StreamingDecoder` chunk loop) and the biasing graph's `advance`.
"""

from __future__ import annotations

import itertools
import math
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
from ctcdec.errors import ConfigurationError
from ctcdec.fst import WeightedFst

INF = math.inf


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
        fw = fst.final_weight(state)
        if fw != INF:
            key = (ilabels, olabels)
            best[key] = min(best[key], weight + fw)
        if depth >= max_arcs:
            return
        for arc in fst.arcs(state):
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


def reference_advance(graph, node, pending, unit):
    """One step of the biasing walk that carries its refund along.

    The walker as it stood when its state was `(node, pending)`: `pending`
    sums `+= boost` over the matches since the last completed phrase, and
    a mismatch refunds it. It reads only the trie's `match_arcs`,
    `is_final`, `boost` and `START`. Returns `(node, pending, delta)`.
    """

    def enter(child, pending):
        pending += graph.boost
        if graph.is_final(child):
            # Keep walking only while a longer phrase can still complete.
            return (child if graph.match_arcs(child) else graph.START), 0.0, graph.boost
        return child, pending, graph.boost

    child = graph.match_arcs(node).get(unit)
    if child is not None:
        return enter(child, pending)
    delta = -pending
    child = graph.match_arcs(graph.START).get(unit)
    if child is not None:
        node, pending, gain = enter(child, 0.0)
        return node, pending, delta + gain
    return graph.START, 0.0, delta


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
# weight for each arc taken) and `finalize` rebuilt `units` from it. It
# shares only the `StreamingDecoder` chunk loop and the output containers
# with the engine; repeats are collapsed with `ctc_collapse` above. The
# engine's `WfstBeamDecoder` must give byte-identical n-best text.


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
        initial_ctx = self.context.START if self.context is not None else None
        start = _RefToken(graph.start, 0.0, 0.0, 0.0, initial_ctx, 0.0, (), None)
        self._tokens: dict[tuple[int, int], _RefToken] = {self._key(start): start}
        self._frame = 0  # index of the next searched (not skipped) frame
        self._eps_expand()

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
        """Relax label-0 arcs to a fixed point (no frame is consumed)."""
        lm_scale = self.lm_scale
        word_penalty = self.word_penalty
        worklist = list(self._tokens.values())
        relaxed = 0
        while worklist:
            token = worklist.pop()
            current = self._tokens.get(self._key(token))
            if current is not token:
                continue  # superseded by a cheaper token at this key
            for arc in self._eps_arcs[token.state]:
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
                key = (cand.state, cand.ctx if cand.ctx is not None else 0)
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
        lm_scale = self.lm_scale
        candidates = []
        any_final = any(
            self.graph.final_weight(token.state) != math.inf for token in self._tokens.values()
        )
        for key, token in sorted(self._tokens.items()):
            fw = self.graph.final_weight(token.state)
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

