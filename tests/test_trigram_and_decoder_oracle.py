"""Cross-checks on deeper machinery: trigram grammars and the WFST decoder.

The decoder check is a true dual route: beam search over TLG on one side,
an algebraic oracle (posterior lattice composed with the same TLG, then
shortest path) on the other.
"""

import itertools
import math
import random

import numpy as np
import pytest

from ctcdec.arpa import parse_arpa
from ctcdec.decode import PosteriorMatrix, WfstBeamDecoder
from ctcdec.fst import WeightedFst, compose, shortest_path
from ctcdec.graph import build_G, build_L, build_T, build_TLG
from ctcdec.lexicon import parse_lexicon

from conftest import TOY_ARPA, TOY_LEXICON
from oracles import arpa_sentence_log10

LN10 = math.log(10.0)

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


def test_trigram_grammar_matches_backoff_recursion():
    model = parse_arpa(TRIGRAM_ARPA)
    g = build_G(model)
    words = sorted(model.vocabulary() - {"<s>", "</s>"})
    for length in range(0, 5):
        for sentence in itertools.product(words, repeat=length):
            ids = [g.isymbols.id_of(w) for w in sentence]
            lin = WeightedFst.linear(ids, isymbols=g.isymbols.copy(), osymbols=g.isymbols.copy())
            paths = shortest_path(compose(lin, g), 1, max_expansions=200_000)
            expected = -arpa_sentence_log10(model, list(sentence)) * LN10
            assert paths, sentence
            assert paths[0].weight == pytest.approx(expected, abs=1e-6), sentence


def _posterior_lattice(matrix: PosteriorMatrix, tlg: WeightedFst, acoustic_scale: float) -> WeightedFst:
    """Linear-chain FST over T's input labels with scaled -log posteriors."""
    fst = WeightedFst(tlg.isymbols.copy(), tlg.isymbols.copy())
    state = fst.add_state()
    fst.set_start(state)
    for t in range(matrix.frames):
        nxt = fst.add_state()
        row = matrix.row(t)
        for token in range(matrix.tokens):
            lp = float(row[token])
            if lp == -math.inf:
                continue
            fst.add_arc(state, token + 1, token + 1, -lp * acoustic_scale, nxt)
        state = nxt
    fst.set_final(state, 0.0)
    return fst


def _random_matrix(rng, frames, tokens):
    rows = []
    for _ in range(frames):
        weights = [rng.random() + 1e-3 for _ in range(tokens)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return PosteriorMatrix.from_probs(np.array(rows))


def _scaled(fst: WeightedFst, factor: float) -> WeightedFst:
    out = WeightedFst(fst.isymbols.copy(), fst.osymbols.copy())
    out.add_states(fst.num_states())
    out.set_start(fst.start)
    for state in fst.states():
        for arc in fst.arcs(state):
            out.add_arc(state, arc.ilabel, arc.olabel, arc.weight * factor, arc.nextstate)
    for state, weight in fst.finals.items():
        out.set_final(state, weight * factor)
    return out


class TestWfstDecoderAgainstCompositionOracle:
    def _tlg(self, arpa_text, lexicon_text, units):
        lex = parse_lexicon(lexicon_text)
        model = parse_arpa(arpa_text)
        words = sorted(set(lex.words()) | (model.vocabulary() - {"<s>", "</s>"}))
        t = build_T(units)
        return build_TLG(t, build_L(lex, units, words), build_G(model, words))

    @pytest.mark.parametrize("acoustic_scale,lm_scale", [(1.0, 1.0), (0.7, 1.0), (1.0, 2.5)])
    def test_top1_matches_shortest_path(self, acoustic_scale, lm_scale):
        tlg = self._tlg(TOY_ARPA, TOY_LEXICON, ["a", "b", "c"])
        oracle_graph = _scaled(tlg, lm_scale) if lm_scale != 1.0 else tlg
        opts = dict(
            acoustic_scale=acoustic_scale,
            lm_scale=lm_scale,
            blank_skip_threshold=1.0,
            score_beam=1e9,
            max_active=1_000_000,
            nbest=5,
        )
        rng = random.Random(9090)
        agreements = 0
        for _ in range(25):
            m = _random_matrix(rng, rng.randint(1, 5), 4)
            got = WfstBeamDecoder(tlg, **opts).decode(m).best()
            lattice = _posterior_lattice(m, tlg, acoustic_scale)
            paths = shortest_path(compose(lattice, oracle_graph), 1, max_expansions=500_000)
            if not paths:
                assert got.total_score == -math.inf
                continue
            oracle_words = tuple(tlg.osymbols.symbol_of(o) for o in paths[0].olabels)
            assert got.words == oracle_words
            assert got.total_score == pytest.approx(-paths[0].weight, abs=1e-9)
            agreements += 1
        assert agreements >= 20  # nearly every random draw must have an accepting path

    def test_trigram_tlg_decodes_against_oracle(self):
        lexicon = "a x\nb y\nc z\n"
        tlg = self._tlg(TRIGRAM_ARPA, lexicon, ["x", "y", "z"])
        opts = dict(blank_skip_threshold=1.0, score_beam=1e9, max_active=1_000_000)
        rng = random.Random(41)
        for _ in range(15):
            m = _random_matrix(rng, rng.randint(1, 6), 4)
            got = WfstBeamDecoder(tlg, **opts).decode(m).best()
            lattice = _posterior_lattice(m, tlg, 1.0)
            paths = shortest_path(compose(lattice, tlg), 1, max_expansions=500_000)
            assert paths
            oracle_words = tuple(tlg.osymbols.symbol_of(o) for o in paths[0].olabels)
            assert got.words == oracle_words
            assert got.total_score == pytest.approx(-paths[0].weight, abs=1e-9)
