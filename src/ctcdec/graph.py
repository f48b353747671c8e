"""Decoding-graph compilation: CTC topology T, lexicon L, grammar G, and TLG.

Symbol conventions:

* acoustic token table (the `units` file): `<blank>` at id 0, modeling
  units at contiguous ids 1..N; this indexes posterior-matrix columns.
* unit FST table (T output, L input): `<eps>` at 0, each unit keeping its
  acoustic id; disambiguation symbols `#1..#k` appended for L.
* T input table: `<eps>` 0, `<blank>` 1, unit at acoustic id k at k+1.
* word table (L output, G both tapes): `<eps>` 0 plus words; sentence
  sentinels `<s>`/`</s>` stay internal to G and never label arcs.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import fst as fstlib
from .arpa import SENTENCE_END, SENTENCE_START, ArpaModel
from .errors import ConfigurationError, ParseError
from .fst import WeightedFst
from .lexicon import Lexicon
from .symbols import BLANK_SYMBOL, SymbolTable

_LN10 = math.log(10.0)


def read_units(path: str | Path) -> SymbolTable:
    """Read the acoustic token table; requires `<blank> 0` and contiguous ids."""
    table = SymbolTable.read(path)
    if table.get_id(BLANK_SYMBOL) != 0:
        raise ParseError(f"units file must map {BLANK_SYMBOL} to id 0", source=str(path))
    ids = table.ids()
    if ids != list(range(len(ids))):
        raise ParseError("unit ids must be contiguous starting at 0", source=str(path))
    return table


def units_of(tokens: SymbolTable) -> list[str]:
    """Modeling units (everything but blank) in acoustic-id order."""
    return [sym for sym, sym_id in tokens if sym_id != 0]


def build_T(units: Sequence[str]) -> WeightedFst:
    """CTC topology: collapse frame labels (repeats + blanks) to unit sequences.

    State 0 swallows blanks; each unit owns a state whose self-loop eats
    repeats silently. Every state is final, so any frame-label sequence is
    accepted and transduced to its collapsed form.
    """
    if not units:
        raise ConfigurationError("unit inventory is empty")
    if BLANK_SYMBOL in units:
        raise ConfigurationError(f"unit inventory must not contain {BLANK_SYMBOL}")
    isymbols = SymbolTable.with_epsilon([BLANK_SYMBOL, *units])
    osymbols = SymbolTable.with_epsilon(units)
    t = WeightedFst(isymbols, osymbols)
    start = t.add_state()
    t.set_start(start)
    t.set_final(start)
    blank = 1
    t.add_arc(start, blank, 0, 0.0, start)
    n = len(units)
    for u in range(1, n + 1):
        state = t.add_state()  # state id == unit id
        t.set_final(state)
        t.add_arc(start, u + 1, u, 0.0, state)
        t.add_arc(state, u + 1, 0, 0.0, state)
        t.add_arc(state, blank, 0, 0.0, start)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v:
                t.add_arc(u, v + 1, v, 0.0, v)
    t.sort_arcs()
    return t


def build_L(
    lex: Lexicon,
    units: Sequence[str] | None = None,
    words: Sequence[str] | None = None,
) -> WeightedFst:
    """Lexicon transducer from unit sequences to word sequences.

    Disambiguation symbols are appended to pronunciations that are shared
    or that prefix another pronunciation, which is what keeps det(L o G)
    from diverging on prefix/homophone lexicons.
    """
    if units is None:
        units = lex.units()
    if words is None:
        words = lex.words()
    unit_ids = {sym: i + 1 for i, sym in enumerate(units)}
    word_ids = {sym: i + 1 for i, sym in enumerate(words)}
    for word, pron in lex.entries:
        if word not in word_ids:
            raise ConfigurationError(f"word {word!r} missing from the word table")
        for unit in pron:
            if unit not in unit_ids:
                raise ConfigurationError(f"unit {unit!r} of word {word!r} missing from the unit inventory")

    prons = [pron for _, pron in lex.entries]
    counts = Counter(prons)
    prefix_prons = {
        p for p in counts if any(q != p and q[: len(p)] == p for q in counts)
    }
    assignments: list[int] = []  # disambig index per entry, 0 = none
    used: dict[tuple[str, ...], int] = {}
    for _, pron in lex.entries:
        if counts[pron] > 1 or pron in prefix_prons:
            used[pron] = used.get(pron, 0) + 1
            assignments.append(used[pron])
        else:
            assignments.append(0)
    max_disambig = max(assignments, default=0)

    isymbols = SymbolTable.with_epsilon(list(units) + [f"#{k}" for k in range(1, max_disambig + 1)])
    osymbols = SymbolTable.with_epsilon(words)
    disambig_base = len(units)  # disambig #k has id disambig_base + k

    l = WeightedFst(isymbols, osymbols)
    start = l.add_state()
    l.set_start(start)
    l.set_final(start)
    for (word, pron), disambig in zip(lex.entries, assignments):
        labels = [unit_ids[u] for u in pron]
        if disambig:
            labels.append(disambig_base + disambig)
        state = start
        for i, label in enumerate(labels):
            olabel = word_ids[word] if i == 0 else 0
            if i == len(labels) - 1:
                nxt = start
            else:
                nxt = l.add_state()
            l.add_arc(state, label, olabel, 0.0, nxt)
            state = nxt
    l.sort_arcs()
    return l


def build_G(model: ArpaModel, words: Sequence[str] | None = None) -> WeightedFst:
    """Backoff n-gram grammar acceptor over words.

    One state per seen context; word arcs carry -ln(10^logprob), epsilon
    backoff arcs carry the converted backoff weights, and sentence-end
    probabilities become final weights. `<s>`/`</s>` shape the states but
    never label arcs.
    """
    vocab = model.vocabulary()
    if words is None:
        words = sorted(model.all_words() - {SENTENCE_START, SENTENCE_END})
    word_ids = {sym: i + 1 for i, sym in enumerate(words)}
    table = SymbolTable.with_epsilon(words)
    g = WeightedFst(table.copy(), table.copy())
    max_order = model.max_order
    if max_order == 0 or not model.entries(1):
        return g

    has_sentence_end = SENTENCE_END in vocab
    index = model.index()

    contexts: dict[tuple[str, ...], int] = {(): g.add_state()}
    for order in range(1, max_order):
        for entry in model.entries(order):
            if entry.words[-1] == SENTENCE_END:
                continue
            if entry.words not in contexts:
                contexts[entry.words] = g.add_state()

    def longest_suffix_state(words_tuple: tuple[str, ...]) -> int:
        for i in range(len(words_tuple) + 1):
            suffix = words_tuple[i:]
            if suffix in contexts:
                return contexts[suffix]
        raise AssertionError("empty context is always present")

    for order in sorted(model.orders):
        for entry in model.entries(order):
            history, word = entry.words[:-1], entry.words[-1]
            if history not in contexts:
                continue  # context unreachable after closure repair
            src = contexts[history]
            weight = -entry.logprob * _LN10
            if word == SENTENCE_END:
                g.set_final(src, weight)
                continue
            if word == SENTENCE_START:
                continue  # defines a context only, never an emission
            if word not in word_ids:
                raise ConfigurationError(f"LM word {word!r} missing from the word table")
            if order < max_order:
                dst = contexts[entry.words]
            else:
                dst = longest_suffix_state(entry.words[1:])
            g.add_arc(src, word_ids[word], word_ids[word], weight, dst)

    for ctx, state in contexts.items():
        if not ctx:
            continue
        entry = index.get(ctx)
        backoff = entry.backoff if entry is not None and entry.backoff is not None else 0.0
        g.add_arc(state, 0, 0, -backoff * _LN10, longest_suffix_state(ctx[1:]))

    if not has_sentence_end:
        for state in contexts.values():
            g.set_final(state, 0.0)

    start_ctx = (SENTENCE_START,)
    g.set_start(contexts.get(start_ctx, contexts[()]))
    g = fstlib.connect(g)
    g.sort_arcs()
    return g


def disambig_ids(table: SymbolTable) -> set[int]:
    out = set()
    for sym, sym_id in table:
        if sym.startswith("#") and sym[1:].isdigit():
            out.add(sym_id)
    return out


def build_TLG(
    t: WeightedFst,
    l: WeightedFst,
    g: WeightedFst,
    state_budget: int | None = None,
) -> WeightedFst:
    """Assemble the decoding graph: compose(t, minimize(determinize(L o G))).

    Disambiguation symbols on the determinized machine's input tape are
    rewritten to epsilon (and dropped from its table) before the final
    composition with T.
    """
    lg = fstlib.compose(l, g)
    if lg.is_empty():
        return WeightedFst(t.isymbols.copy(), g.osymbols.copy())
    det = fstlib.determinize(lg, state_budget)
    mind = fstlib.minimize(det)
    aux = disambig_ids(mind.isymbols)
    clean = SymbolTable()
    for sym, sym_id in mind.isymbols:
        if sym_id not in aux:
            clean.add(sym, sym_id)
    stripped = fstlib.relabel_ilabels(mind, {a: 0 for a in aux}, isymbols=clean)
    tlg = fstlib.compose(t, stripped)
    tlg.sort_arcs()
    return tlg
