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
from typing import Iterable, Sequence

import numpy as np

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


def _t_input_table(units: Sequence[str]) -> SymbolTable:
    """T's input table, and so TLG's: `<eps>` 0, `<blank>` 1, then `units`."""
    return SymbolTable.with_epsilon([BLANK_SYMBOL, *units])


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
    # Each state s (s == unit id) has a blank arc (input 1) to the start,
    # then one arc per unit v (input v + 1) to state v, in ilabel order; the
    # arc emits v unless it is s's own self-loop.
    n = len(units) + 1
    src = np.repeat(np.arange(n), n)
    unit = np.tile(np.arange(n), n)
    return WeightedFst(
        _t_input_table(units), SymbolTable.with_epsilon(units), n, 0, np.zeros(n),
        src, unit + 1, np.where(unit == src, 0, unit), np.zeros(n * n), unit,
    )


def prefix_prons(prons: Iterable[tuple[str, ...]]) -> set[tuple[str, ...]]:
    """The pronunciations that are a proper prefix of another one.

    In sorted order, whatever lies between p and a longer q that p
    prefixes also starts with p, so each pronunciation need only be
    tested against its successor.
    """
    ordered = sorted(set(prons))
    return {p for p, q in zip(ordered, ordered[1:]) if q[: len(p)] == p}


def build_L(
    lex: Lexicon,
    units: Sequence[str] | None = None,
    words: Sequence[str] | None = None,
) -> WeightedFst:
    """Lexicon transducer from unit sequences to word sequences.

    Disambiguation symbols are appended to pronunciations that are shared
    or that prefix another pronunciation, which is what keeps det(L o G)
    from diverging on prefix/homophone lexicons. A unit spelled like one
    (`#` and ASCII digits) is refused.
    """
    if units is None:
        units = lex.units()
    if words is None:
        words = lex.words()
    for unit in units:
        if _is_disambig(unit):
            raise ConfigurationError(f"unit {unit!r} is spelled like a disambiguation symbol (# and digits)")
    unit_ids = {sym: i + 1 for i, sym in enumerate(units)}
    word_ids = {sym: i + 1 for i, sym in enumerate(words)}
    for word, pron in lex.entries:
        if word not in word_ids:
            raise ConfigurationError(f"word {word!r} missing from the word table")
        for unit in pron:
            if unit not in unit_ids:
                raise ConfigurationError(f"unit {unit!r} of word {word!r} missing from the unit inventory")

    counts = Counter(pron for _, pron in lex.entries)
    prefixes = prefix_prons(counts)
    assignments: list[int] = []  # disambig index per entry, 0 = none
    used: dict[tuple[str, ...], int] = {}
    for _, pron in lex.entries:
        if counts[pron] > 1 or pron in prefixes:
            used[pron] = used.get(pron, 0) + 1
            assignments.append(used[pron])
        else:
            assignments.append(0)
    max_disambig = max(assignments, default=0)

    isymbols = SymbolTable.with_epsilon(list(units) + [f"#{k}" for k in range(1, max_disambig + 1)])
    osymbols = SymbolTable.with_epsilon(words)
    disambig_base = len(units)  # disambig #k has id disambig_base + k

    src, ilabel, olabel, nextstate = [], [], [], []
    n = 1  # state 0 is the start, the only final state
    for (word, pron), disambig in zip(lex.entries, assignments):
        labels = [unit_ids[u] for u in pron]
        if disambig:
            labels.append(disambig_base + disambig)
        state = 0
        for i, label in enumerate(labels):
            if i == len(labels) - 1:
                nxt = 0
            else:
                nxt, n = n, n + 1
            src.append(state)
            ilabel.append(label)
            olabel.append(word_ids[word] if i == 0 else 0)
            nextstate.append(nxt)
            state = nxt
    final = np.full(n, np.inf)
    final[0] = 0.0
    l = WeightedFst(isymbols, osymbols, n, 0, final, src, ilabel, olabel, np.zeros(len(src)), nextstate)
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
        words = sorted(_lm_words(model))
    word_ids = {sym: i + 1 for i, sym in enumerate(words)}
    table = SymbolTable.with_epsilon(words)
    max_order = model.max_order
    if max_order == 0 or not model.entries(1):
        return WeightedFst(table.copy(), table.copy())

    has_sentence_end = SENTENCE_END in vocab
    index = model.index()

    contexts: dict[tuple[str, ...], int] = {(): 0}
    for order in range(1, max_order):
        for entry in model.entries(order):
            if entry.words[-1] == SENTENCE_END:
                continue
            if entry.words not in contexts:
                contexts[entry.words] = len(contexts)

    def longest_suffix_state(words_tuple: tuple[str, ...]) -> int:
        for i in range(len(words_tuple) + 1):
            suffix = words_tuple[i:]
            if suffix in contexts:
                return contexts[suffix]
        raise AssertionError("empty context is always present")

    # Without `</s>` every context is final; with it, a context's `</s>` entry sets its weight.
    final = [math.inf if has_sentence_end else 0.0] * len(contexts)
    arcs = []  # (src, label, weight, nextstate)
    for order in sorted(model.orders):
        for entry in model.entries(order):
            history, word = entry.words[:-1], entry.words[-1]
            if history not in contexts:
                continue  # context unreachable after closure repair
            src = contexts[history]
            weight = -entry.logprob * _LN10
            if word == SENTENCE_END:
                final[src] = min(final[src], weight)
                continue
            if word == SENTENCE_START:
                continue  # defines a context only, never an emission
            if word not in word_ids:
                raise ConfigurationError(f"LM word {word!r} missing from the word table")
            if order < max_order:
                dst = contexts[entry.words]
            else:
                dst = longest_suffix_state(entry.words[1:])
            arcs.append((src, word_ids[word], weight, dst))

    for ctx, state in contexts.items():
        if not ctx:
            continue
        entry = index.get(ctx)
        backoff = entry.backoff if entry is not None and entry.backoff is not None else 0.0
        arcs.append((state, 0, -backoff * _LN10, longest_suffix_state(ctx[1:])))

    src, label, weight, nextstate = zip(*arcs) if arcs else [()] * 4
    start = contexts.get((SENTENCE_START,), contexts[()])
    g = fstlib.connect(WeightedFst(table, table, len(contexts), start, final, src, label, label, weight, nextstate))
    g.sort_arcs()
    return g


def _is_disambig(sym: str) -> bool:
    return sym[:1] == "#" and sym[1:].isascii() and sym[1:].isdigit()


def disambig_ids(table: SymbolTable) -> set[int]:
    """The ids of the disambiguation symbols `#1`, `#2`, ... (ASCII digits only)."""
    return {sym_id for sym, sym_id in table if _is_disambig(sym)}


def tlg_stages(
    t: WeightedFst,
    l: WeightedFst,
    g: WeightedFst,
    state_budget: int | None = None,
) -> tuple:
    """The steps of `build_TLG` in order, as (name, stage) pairs: each stage
    maps the previous stage's result to its own (the first ignores its
    argument), and the last returns TLG.

    Disambiguation symbols on the minimized machine's input tape are
    rewritten to epsilon (and dropped from its table) before the final
    composition with T.
    """
    return (
        ("compose_LG", lambda _: fstlib.compose(l, g)),
        ("determinize", lambda lg: fstlib.determinize(lg, state_budget)),
        ("minimize", fstlib.minimize),
        ("relabel", strip_disambig),
        ("compose_TLG", lambda lg: fstlib.compose(t, lg)),
    )


def build_TLG(
    t: WeightedFst,
    l: WeightedFst,
    g: WeightedFst,
    state_budget: int | None = None,
) -> WeightedFst:
    """Assemble the decoding graph: compose(t, minimize(determinize(L o G)))."""
    fst = None
    # Each stage rebinds `fst`, which frees its input once its result is built.
    for _, stage in tlg_stages(t, l, g, state_budget):
        fst = stage(fst)
    return fst


def _lm_words(model: ArpaModel) -> set[str]:
    """The words of `model` at any order, without the sentence sentinels."""
    return model.all_words() - {SENTENCE_START, SENTENCE_END}


def graph_words(lexicon: Lexicon, model: ArpaModel) -> list[str]:
    """The word table of L and G: the lexicon's words and the model's but `<s>`/`</s>`, sorted."""
    return sorted(set(lexicon.words()) | _lm_words(model))


def build_graph(
    units: Sequence[str],
    lexicon: Lexicon | None = None,
    model: ArpaModel | None = None,
    state_budget: int | None = None,
) -> dict[str, WeightedFst]:
    """The machines of `ctcdec build-graph`: T alone without a language
    model; with one, and its lexicon, also L, G and TLG, over the words of
    `graph_words`. Every unit the lexicon spells must be one of `units`.
    """
    if (lexicon is None) != (model is None):
        raise ConfigurationError("a lexicon and a language model are given together or not at all")
    t = build_T(units)
    if model is None:
        return {"T": t}
    missing = [u for u in lexicon.units() if u not in units]
    if missing:
        raise ConfigurationError(f"lexicon units {missing} missing from the units file")
    words = graph_words(lexicon, model)
    l = build_L(lexicon, units, words)
    g = build_G(model, words)
    return {"T": t, "L": l, "G": g, "TLG": build_TLG(t, l, g, state_budget)}


def write_graph(out: str | Path, tokens: SymbolTable, machines: dict[str, WeightedFst]) -> None:
    """Write the graph directory `out` of `ctcdec build-graph`: the acoustic
    token table `tokens.txt`; with L and G, L's input table `units.txt` (for
    inspection only: nothing reads it back) and the word table `words.txt`;
    then `<name>.fst` for each of `build_graph`'s machines. Each file is
    replaced whole, so a failed write leaves the old one.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    tokens.write(out / "tokens.txt")
    if "L" in machines:
        machines["L"].isymbols.write(out / "units.txt")
        machines["G"].osymbols.write(out / "words.txt")
    for name, fst in machines.items():
        fst.write(out / f"{name}.fst")


def read_graph(graph_dir: str | Path) -> tuple[SymbolTable, WeightedFst]:
    """The acoustic token table and TLG of a `write_graph` directory, as
    `ctcdec decode --graph-dir` reads them. A TLG with no start state is a
    `ConfigurationError` naming its file."""
    graph_dir = Path(graph_dir)
    tokens = read_units(graph_dir / "tokens.txt")
    words = SymbolTable.read(graph_dir / "words.txt")
    path = graph_dir / "TLG.fst"
    tlg = WeightedFst.read(path, isymbols=_t_input_table(units_of(tokens)), osymbols=words)
    if tlg.is_empty():
        raise ConfigurationError(f"decoding graph {path} is empty")
    return tokens, tlg


def strip_disambig(fst: WeightedFst) -> WeightedFst:
    """`fst` with the disambiguation symbols on its input tape rewritten
    to epsilon and dropped from its input table."""
    aux = disambig_ids(fst.isymbols)
    clean = SymbolTable()
    for sym, sym_id in fst.isymbols:
        if sym_id not in aux:
            clean.add(sym, sym_id)
    return fstlib.relabel_ilabels(fst, {a: 0 for a in aux}, isymbols=clean)
