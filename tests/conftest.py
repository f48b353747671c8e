import random

import numpy as np
from hypothesis import settings

from ctcdec.arpa import parse_arpa
from ctcdec.decode import PosteriorMatrix
from ctcdec.fst import WeightedFst
from ctcdec.graph import build_graph
from ctcdec.lexicon import parse_lexicon
from ctcdec.symbols import SymbolTable

from oracles import FstBuilder

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")

_ACCEPTANCE: list[tuple[str, bool]] = []


def record_criterion(name: str, passed: bool) -> None:
    _ACCEPTANCE.append((name, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _ACCEPTANCE:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}: {name}")


# -- shared toy inputs -------------------------------------------------------

TOY_LEXICON = "ab a b\nac a c\nbc b c\n"

# Bigram LM over {a..., ab, ac, bc as words}? The grammar speaks words, so the
# toy vocabulary is the lexicon's word set.
TOY_ARPA = """\
\\data\\
ngram 1=5
ngram 2=6

\\1-grams:
-0.3979400 ab -0.3979400
-0.5228787 ac -0.3979400
-0.6989700 bc -0.3979400
-1.0000000 </s>
-99 <s> -0.3010300

\\2-grams:
-0.2218487 <s> ab
-0.5228787 <s> ac
-0.2218487 ab ac
-0.3010300 ac bc
-0.3979400 bc </s>
-0.6989700 ab ab

\\end\\
"""


# A trigram LM over the words a, b and c; its backoff chains give G label-0
# paths of more than one arc.
TRIGRAM_ARPA = """\
\\data\\
ngram 1=5
ngram 2=7
ngram 3=5

\\1-grams:
-0.60206 a -0.30103
-0.69897 b -0.30103
-0.79588 c -0.30103
-1.00000 </s>
-99 <s> -0.30103

\\2-grams:
-0.30103 <s> a -0.17609
-0.60206 <s> b -0.17609
-0.39794 a b -0.17609
-0.52288 b c -0.17609
-0.69897 c a -0.17609
-0.60206 a a -0.17609
-0.39794 c </s>

\\3-grams:
-0.22185 <s> a b
-0.30103 a b c
-0.39794 b c a
-0.30103 c a b
-0.52288 a a b

\\end\\
"""


def graph_from_text(lexicon_text=TOY_LEXICON, arpa_text=TOY_ARPA, units=("a", "b", "c")) -> dict[str, WeightedFst]:
    """T, L, G and TLG as `ctcdec build-graph` builds them, from lexicon and ARPA text."""
    return build_graph(units, parse_lexicon(lexicon_text), parse_arpa(arpa_text))


def symbol_tables(n_in: int = 3, n_out: int = 3) -> tuple[SymbolTable, SymbolTable]:
    """Input labels `i1..i<n_in>` and output labels `o1..o<n_out>`, each after `<eps>`."""
    return (
        SymbolTable.with_epsilon([f"i{k}" for k in range(1, n_in + 1)]),
        SymbolTable.with_epsilon([f"o{k}" for k in range(1, n_out + 1)]),
    )


def random_chunks(rng: random.Random, logprobs: np.ndarray) -> list[np.ndarray]:
    """`logprobs` cut at random frames into consecutive chunks, of one frame up to all of them."""
    cuts = sorted(rng.sample(range(1, len(logprobs)), rng.randint(0, len(logprobs) - 1))) if len(logprobs) > 1 else []
    bounds = [0, *cuts, len(logprobs)]
    return [logprobs[a:b] for a, b in zip(bounds, bounds[1:])]


def random_matrix(rng: random.Random, frames: int, tokens: int) -> PosteriorMatrix:
    """`frames` rows of random probabilities over `tokens` columns, none of them zero."""
    if frames == 0:
        return PosteriorMatrix(np.zeros((0, tokens)))
    rows = []
    for _ in range(frames):
        weights = [rng.random() + 1e-3 for _ in range(tokens)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return PosteriorMatrix.from_probs(np.array(rows))


# -- random machine generator ------------------------------------------------


def random_acyclic_fst(
    rng: random.Random,
    isymbols: SymbolTable,
    osymbols: SymbolTable,
    max_states: int = 5,
    eps_prob: float = 0.2,
    arc_count: int | None = None,
) -> WeightedFst:
    """A random acyclic transducer (arcs only run to higher state ids)."""
    n = rng.randint(2, max_states)
    fst = FstBuilder(isymbols.copy(), osymbols.copy())
    fst.add_states(n)
    fst.set_start(0)
    n_in = len(isymbols) - 1
    n_out = len(osymbols) - 1
    if arc_count is None:
        arc_count = rng.randint(n - 1, 2 * n)
    for _ in range(arc_count):
        src = rng.randrange(0, n - 1)
        dst = rng.randrange(src + 1, n)
        il = 0 if rng.random() < eps_prob else rng.randint(1, n_in)
        ol = 0 if rng.random() < eps_prob else rng.randint(1, n_out)
        fst.add_arc(src, il, ol, round(rng.uniform(0.0, 4.0), 3), dst)
    fst.set_final(n - 1, round(rng.uniform(0.0, 2.0), 3))
    if rng.random() < 0.3:
        fst.set_final(rng.randrange(0, n), round(rng.uniform(0.0, 2.0), 3))
    return fst.fst()


# -- random graph-build inputs ---------------------------------------------


def random_lexicon(rng: random.Random, units: list[str]) -> str:
    """Random spellings, with homophones and prefix pronunciations."""
    prons: list[tuple[str, ...]] = []
    for _ in range(rng.randint(3, 6)):
        r = rng.random()
        if prons and r < 0.25:
            pron = rng.choice(prons)  # a homophone
        elif prons and r < 0.5:
            base = rng.choice(prons)  # a prefix of, or extending, another word
            pron = base[:-1] if len(base) > 1 and rng.random() < 0.5 else base + (rng.choice(units),)
        else:
            pron = tuple(rng.choice(units) for _ in range(rng.randint(1, 3)))
        prons.append(pron)
    return "".join(f"w{i} {' '.join(pron)}\n" for i, pron in enumerate(prons))


def random_bigram_arpa(rng: random.Random, words: list[str]) -> str:
    """A bigram ARPA with coarse weights, so equal path costs come up."""
    unigrams = [f"{-rng.randint(2, 12) / 10} {w} {-rng.randint(1, 5) / 10}" for w in words]
    unigrams += [f"{-rng.randint(5, 15) / 10} </s>", f"-99 <s> {-rng.randint(1, 5) / 10}"]
    pairs = [(h, w) for h in ["<s>", *words] for w in [*words, "</s>"]]
    bigrams = [f"{-rng.randint(1, 8) / 10} {h} {w}" for h, w in rng.sample(pairs, rng.randint(1, len(pairs) // 2))]
    return (
        f"\\data\\\nngram 1={len(unigrams)}\nngram 2={len(bigrams)}\n\n"
        "\\1-grams:\n" + "\n".join(unigrams) + "\n\n"
        "\\2-grams:\n" + "\n".join(bigrams) + "\n\n\\end\\\n"
    )
