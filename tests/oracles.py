"""Independent reference computations the tests check the engine against.

Everything here is deliberately brute force: exhaustive path enumeration,
full path-sum marginalization, the textbook ARPA backoff recursion, a
plain greedy phrase matcher, and the object-per-extension prefix search.
None of it shares code with the engine paths it verifies; the prefix
search borrows only the engine's input and output containers and
the biasing graph's `advance`.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

from ctcdec.decode import Hypothesis, NBestList, PosteriorMatrix, skip_blank_frames

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
        initial_ctx = context.initial_state() if context is not None else None
        self._entries = {(): _PrefixEntry(0.0, NEG_INF, initial_ctx, 0.0)}

    def advance(self, logprobs):
        matrix = PosteriorMatrix(logprobs)
        if self.blank_skip_threshold is not None:
            matrix, _ = skip_blank_frames(matrix, self.blank_skip_threshold)
        for t in range(matrix.frames):
            self._step([float(v) for v in matrix.row(t)])

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
