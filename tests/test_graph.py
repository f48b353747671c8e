import itertools
import math
import re

import numpy as np
import pytest

from ctcdec.arpa import parse_arpa
from ctcdec.decode import WfstBeamDecoder
from ctcdec.errors import ConfigurationError, ParseError
from ctcdec.fst import WeightedFst, compose, determinize
from ctcdec.graph import build_G, build_L, build_T, build_TLG, disambig_ids, read_units
from ctcdec.lexicon import Lexicon, parse_lexicon
from ctcdec.symbols import SymbolTable

from conftest import TOY_ARPA, TOY_LEXICON
from oracles import arpa_sentence_log10, ctc_collapse, enumerate_language, linear_fst, shortest_path

LN10 = math.log(10.0)


# -- lexicon ------------------------------------------------------------------


class TestLexicon:
    def test_parse(self):
        lex = parse_lexicon(TOY_LEXICON)
        assert lex.entries[0] == ("ab", ("a", "b"))
        assert lex.words() == ["ab", "ac", "bc"]
        assert lex.units() == ["a", "b", "c"]

    def test_malformed_line_cites_line_number(self):
        with pytest.raises(ParseError, match="3"):
            parse_lexicon("ab a b\nac a c\njustaword\n")

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_lexicon("ab a b\nab a b\n")

    def test_empty_pronunciation_rejected(self):
        with pytest.raises(ParseError):
            Lexicon((("x", ()),))


# -- ARPA ---------------------------------------------------------------------


class TestArpa:
    def test_minimal_unigram(self):
        text = "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5 a\n-0.5 b\n-1.0 c\n\n\\end\\\n"
        model = parse_arpa(text)
        assert len(model.entries(1)) == 3
        assert model.max_order == 1
        assert model.entries(1)[0].logprob == -0.5
        assert model.entries(1)[0].backoff is None

    def test_bigram_without_top_order_backoff(self):
        model = parse_arpa(TOY_ARPA)
        assert all(e.backoff is None for e in model.entries(2))
        assert model.orders[1][0].backoff == pytest.approx(-0.39794)

    def test_count_mismatch_rejected(self):
        text = "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5 a\n\n\\end\\\n"
        with pytest.raises(ParseError, match="declares 2"):
            parse_arpa(text)

    def test_non_numeric_logprob_cites_line(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\nbogus a\n\n\\end\\\n"
        with pytest.raises(ParseError, match="5"):
            parse_arpa(text)

    @pytest.mark.parametrize(
        "line", ["nan a -0.1", "NaN a", "inf a -0.1", "+inf a", "-0.5 a nan", "-0.5 a inf"]
    )
    def test_nan_or_plus_inf_rejected_citing_line(self, line):
        text = f"\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5 b\n{line}\n\n\\end\\\n"
        with pytest.raises(ParseError, match=r"<arpa>:6: .*NaN or \+inf"):
            parse_arpa(text)

    def test_count_line_may_space_its_equals_sign(self):
        model = parse_arpa("\\data\\\nngram 1 = 2\n\n\\1-grams:\n-0.5 b\n-0.25 a -0.5\n\n\\end\\\n")
        entries = [(e.words, e.logprob, e.backoff) for e in model.entries(1)]
        assert entries == [(("b",), -0.5, None), (("a",), -0.25, -0.5)]

    @pytest.mark.parametrize(
        "counts, header, line, message",
        [
            ("ngram 1=2", "\\1-grams:", "-1_0 a", r"6: non-numeric log probability '-1_0'"),
            ("ngram 1=2", "\\1-grams:", "-\u0660.\u0665 a", "6: non-numeric log probability '-\u0660.\u0665'"),
            ("ngram 1=2", "\\1-grams:", "-0.5 a -0_5", r"6: non-numeric backoff weight '-0_5'"),
            ("ngram 1=2", "\\\u0661-grams:", "-0.5 a", "4: bad section header '\\\\\u0661-grams:'"),
            ("ngram 1=0_2", "\\1-grams:", "-0.5 a", r"2: bad count line 'ngram 1=0_2'"),
            ("ngram \u0661=2", "\\1-grams:", "-0.5 a", "2: bad count line 'ngram \u0661=2'"),
        ],
        ids=["underscore_logprob", "arabic_indic_logprob", "underscore_backoff", "arabic_indic_order",
             "underscore_count", "arabic_indic_count_order"],
    )
    def test_numbers_must_be_ascii_citing_line(self, counts, header, line, message):
        text = f"\\data\\\n{counts}\n\n{header}\n-0.5 b\n{line}\n\n\\end\\\n"
        with pytest.raises(ParseError, match=f"^{re.escape('<arpa>:' + message)}$"):
            parse_arpa(text)

    def test_minus_inf_logprob_is_probability_zero(self):
        model = parse_arpa("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5 b\n-inf a -inf\n\n\\end\\\n")
        assert model.entries(1)[1].logprob == -math.inf

    @pytest.mark.parametrize(
        "counts, header, message",
        [
            ("ngram 1=1", "\\0-grams:", r"<arpa>:4: bad section header '\\\\0-grams:'"),
            ("ngram 1=1", "\\-1-grams:", r"<arpa>:4: bad section header '\\\\-1-grams:'"),
            ("ngram 0=1\nngram 1=1", "\\1-grams:", r"<arpa>:2: bad count line 'ngram 0=1'"),
            ("ngram -1=1\nngram 1=1", "\\1-grams:", r"<arpa>:2: bad count line 'ngram -1=1'"),
        ],
        ids=["section_0", "section_minus_1", "count_0", "count_minus_1"],
    )
    def test_order_below_one_rejected_citing_line(self, counts, header, message):
        text = f"\\data\\\n{counts}\n\n{header}\n-1.0\n\n\\1-grams:\n-0.5 a\n\n\\end\\\n"
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_arpa(text)

    def test_missing_data_section_rejected(self):
        with pytest.raises(ParseError, match=r"^<arpa>: missing \\data\\ section$"):
            parse_arpa("some header\n-0.5 a\n\\end\\\n")

    def test_undeclared_section_rejected(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5 a\n\n\\2-grams:\n-0.2 a a\n\n\\end\\\n"
        with pytest.raises(ParseError, match=r"^<arpa>: 2-gram section was not declared in \\data\\$"):
            parse_arpa(text)

    def test_line_after_end_rejected_citing_line(self):
        text = "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5 a\n\n\\end\\\n\nextra\n"
        with pytest.raises(ParseError, match=r"^<arpa>:9: unexpected line after \\end\\: 'extra'$"):
            parse_arpa(text)

    def test_missing_end_rejected(self):
        with pytest.raises(ParseError, match="end"):
            parse_arpa("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5 a\n")

    def test_missing_prefix_repaired_or_rejected(self):
        text = (
            "\\data\\\nngram 1=2\nngram 2=1\n\n"
            "\\1-grams:\n-0.3 a -0.1\n-0.6 b\n\n"
            "\\2-grams:\n-0.2 c b\n\n\\end\\\n"
        )
        model = parse_arpa(text)  # lenient: context (c,) synthesized
        assert ("c",) in {e.words for e in model.entries(1)}
        with pytest.raises(ParseError, match="prefix"):
            parse_arpa(text, strict=True)


# -- T ------------------------------------------------------------------------


class TestCtcTopology:
    def test_blank_in_units_rejected(self):
        with pytest.raises(ConfigurationError):
            build_T(["a", "<blank>"])

    def _transduce(self, t, frame_labels):
        """Outputs of composing a linear frame acceptor with T."""
        lin = linear_fst(
            [l + 1 for l in frame_labels],
            isymbols=t.isymbols.copy(),
            osymbols=t.isymbols.copy(),
        )
        lang = enumerate_language(compose(lin, t), max_arcs=len(frame_labels) + 2)
        return {out for (_, out) in lang}

    def test_blank_and_repeat_collapse(self):
        t = build_T(["a", "b"])
        assert self._transduce(t, [0, 1, 1, 0, 2]) == {(1, 2)}

    def test_all_blank_maps_to_empty(self):
        t = build_T(["a", "b"])
        assert self._transduce(t, [0, 0, 0]) == {()}

    def test_alternation_passes_through(self):
        t = build_T(["a", "b"])
        assert self._transduce(t, [1, 2, 2, 1]) == {(1, 2, 1)}

    def test_collapse_property_exhaustive(self):
        t = build_T(["a", "b", "c"])
        for length in range(0, 6):
            for labels in itertools.product(range(4), repeat=length):
                assert self._transduce(t, labels) == {ctc_collapse(labels)}, labels


# -- L ------------------------------------------------------------------------


class TestLexiconFst:
    def test_single_entry_maps_units_to_word(self):
        l = build_L(parse_lexicon("cat c a t\n"))
        lang = enumerate_language(l, max_arcs=3)
        unit = {"a": 1, "c": 2, "t": 3}  # sorted unit order
        assert ((unit["c"], unit["a"], unit["t"]), (1,)) in lang

    def test_prefix_pronunciations_get_disambig_and_determinize(self):
        lex = parse_lexicon("a x\nab x y\n")
        l = build_L(lex)
        assert disambig_ids(l.isymbols)
        arpa = parse_arpa(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.5 a\n-0.5 ab\n-0.5 </s>\n\n\\end\\\n"
        )
        g = build_G(arpa, words=sorted(lex.words()))
        det = determinize(compose(l, g))  # must stay within the default budget
        assert det.num_states() > 0

    def test_prefix_and_homophone_mix_determinizes_within_budget(self):
        # prefix chains plus homophones: the disambig-symbol stress case
        lex = parse_lexicon(
            "a x\nab x y\nabc x y z\nalpha x\nbeta y\ngamma y\nbc y z\n"
        )
        words = sorted(lex.words())
        arpa_lines = ["\\data\\", f"ngram 1={len(words) + 1}", "", "\\1-grams:"]
        arpa_lines += [f"-0.9 {w}" for w in words] + ["-0.9 </s>", "", "\\end\\", ""]
        g = build_G(parse_arpa("\n".join(arpa_lines)), words=words)
        l = build_L(lex)
        det = determinize(compose(l, g))  # default 10x-plus-floor budget
        assert det.num_states() > 0

    def test_homophones_both_recoverable(self):
        lex = parse_lexicon("won w a n\none w a n\n")
        l = build_L(lex)
        lang = enumerate_language(l, max_arcs=5)
        words = {out for (_, out) in lang if out}
        assert (1, ) in words and (2, ) in words  # "one", "won" in sorted order

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigurationError, match="z"):
            build_L(parse_lexicon("za z a\n"), units=["a"])


# -- G ------------------------------------------------------------------------


def _score_sentence(g, words, sentence):
    word_ids = [words.index(w) + 1 for w in sentence]
    lin = linear_fst(word_ids, isymbols=g.isymbols.copy(), osymbols=g.isymbols.copy())
    paths = shortest_path(compose(lin, g), 1, max_expansions=50_000)
    return paths[0].weight if paths else math.inf


class TestGrammar:
    def test_unigram_sentence_weight(self):
        model = parse_arpa("\\data\\\nngram 1=2\n\n\\1-grams:\n" + "-0.30103 a\n-0.30103 b\n\n\\end\\\n")
        g = build_G(model)
        assert _score_sentence(g, ["a", "b"], ["a", "b"]) == pytest.approx(-math.log(0.25), abs=1e-6)

    def test_empty_sentence_final_weight(self):
        model = parse_arpa(
            "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.0457575 </s>\n-0.69897 a\n-0.69897 b\n\n\\end\\\n"
        )
        g = build_G(model)
        paths = shortest_path(g, 1)
        assert paths[0].ilabels == ()
        assert paths[0].weight == pytest.approx(-math.log(0.9), abs=1e-6)

    def test_unseen_bigram_backs_off(self):
        model = parse_arpa(TOY_ARPA)
        g = build_G(model)
        words = sorted(model.vocabulary() - {"<s>", "</s>"})
        sentence = ["ac", "ac"]  # (ac, ac) is unseen
        got = _score_sentence(g, words, sentence)
        assert got == pytest.approx(-arpa_sentence_log10(model, sentence) * LN10, abs=1e-6)

    def test_word_without_unigram_still_compiles(self):
        # "x" is predicted by a bigram but has no unigram entry
        text = (
            "\\data\\\nngram 1=2\nngram 2=1\n\n"
            "\\1-grams:\n-0.3 a -0.2\n-0.7 </s>\n\n"
            "\\2-grams:\n-0.4 a x\n\n\\end\\\n"
        )
        model = parse_arpa(text)
        g = build_G(model)
        assert "x" in g.isymbols

    def test_all_short_sentences_match_backoff_recursion(self):
        model = parse_arpa(TOY_ARPA)
        g = build_G(model)
        words = sorted(model.vocabulary() - {"<s>", "</s>"})
        for length in range(0, 4):
            for sentence in itertools.product(words, repeat=length):
                expected = -arpa_sentence_log10(model, list(sentence)) * LN10
                assert _score_sentence(g, words, list(sentence)) == pytest.approx(expected, abs=1e-6), sentence


# -- TLG ----------------------------------------------------------------------


def _toy_tlg():
    lex = parse_lexicon(TOY_LEXICON)
    model = parse_arpa(TOY_ARPA)
    units = ["a", "b", "c"]
    words = sorted(set(lex.words()) | (model.vocabulary() - {"<s>", "</s>"}))
    t = build_T(units)
    l = build_L(lex, units, words)
    g = build_G(model, words)
    return build_TLG(t, l, g), words


class TestTlg:
    def test_forced_frames_decode_to_word(self):
        tlg, words = _toy_tlg()
        # frame labels for "ab": a a <blank> b  (acoustic ids +1 on T's tape)
        frames = [2, 2, 1, 3]
        lin = linear_fst(frames, isymbols=tlg.isymbols.copy(), osymbols=tlg.isymbols.copy())
        paths = shortest_path(compose(lin, tlg), 1, max_expansions=100_000)
        assert paths, "no accepting path"
        assert [words[o - 1] for o in paths[0].olabels] == ["ab"]

    def test_graph_weight_equals_lm_score(self):
        tlg, words = _toy_tlg()
        model = parse_arpa(TOY_ARPA)
        frames = [2, 2, 1, 3]  # "ab" with zero acoustic weight in the graph
        lin = linear_fst(frames, isymbols=tlg.isymbols.copy(), osymbols=tlg.isymbols.copy())
        paths = shortest_path(compose(lin, tlg), 1, max_expansions=100_000)
        expected = -arpa_sentence_log10(model, ["ab"]) * LN10
        assert paths[0].weight == pytest.approx(expected, abs=1e-6)

    def test_empty_grammar_gives_empty_tlg(self):
        lex = parse_lexicon(TOY_LEXICON)
        units = ["a", "b", "c"]
        t = build_T(units)
        l = build_L(lex, units, lex.words())
        g = build_G(parse_arpa("\\data\\\n\n\\end\\\n"), words=lex.words())
        assert build_TLG(t, l, g).is_empty()

    @pytest.mark.parametrize(
        "arpa",
        [
            # ac has probability zero
            "\\data\\\nngram 1=4\n\n\\1-grams:\n-0.5 ab\n-inf ac\n-0.5 bc\n-1 </s>\n\n\\end\\\n",
            # ac can be said, but nothing may follow it: its backoff has probability zero
            "\\data\\\nngram 1=5\nngram 2=3\n\n\\1-grams:\n-0.5 ab -0.3\n-0.2 ac -inf\n-0.5 bc -0.3\n"
            "-1 </s>\n-99 <s> -0.3\n\n\\2-grams:\n-0.2 <s> ab\n-0.1 <s> ac\n-0.2 ab </s>\n\n\\end\\\n",
        ],
        ids=["zero_word", "zero_backoff"],
    )
    def test_probability_zero_paths_are_dropped(self, arpa):
        lex = parse_lexicon(TOY_LEXICON)
        units, words = ["a", "b", "c"], ["ab", "ac", "bc"]
        tlg = build_TLG(build_T(units), build_L(lex, units, words), build_G(parse_arpa(arpa), words))
        ac = tlg.osymbols.id_of("ac")
        assert all(arc.olabel != ac for state in tlg.states() for arc in tlg.arcs(state))
        # frame labels for "ac": a a <blank> c
        nbest = WfstBeamDecoder(tlg).decode(np.log(np.full((4, 4), 0.01) + 0.96 * np.eye(4)[[1, 1, 0, 3]]))
        assert nbest.best().words
        assert "ac" not in {word for hyp in nbest for word in hyp.words}

    def test_no_disambig_survives(self):
        tlg, _ = _toy_tlg()
        assert not disambig_ids(tlg.isymbols)


def test_grammar_round_trips_through_text_format(tmp_path):
    model = parse_arpa(TOY_ARPA)
    g = build_G(model)
    path = tmp_path / "G.fst"
    g.write(path)
    again = WeightedFst.read(path, g.isymbols.copy(), g.osymbols.copy())
    assert again.start == 0  # start-state convention survives serialization
    words = sorted(model.vocabulary() - {"<s>", "</s>"})
    # text weights carry six decimals, so round-trip scores are 1e-6-grade
    for sentence in [[], ["ab"], ["ab", "ac"], ["bc", "bc"]]:
        assert _score_sentence(again, words, sentence) == pytest.approx(
            _score_sentence(g, words, sentence), abs=1e-5
        )


def test_read_units_requires_blank_at_zero(tmp_path):
    path = tmp_path / "units.txt"
    path.write_text("a 0\n<blank> 1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_units(path)


def test_read_units_requires_contiguous_ids(tmp_path):
    path = tmp_path / "units.txt"
    path.write_text("<blank> 0\na 1\nb 3\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: unit ids must be contiguous starting at 0$"):
        read_units(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("<blank> 0\na\n", "2: expected 'symbol id'"),
        ("<blank> 0\na 1 2\n", "2: expected 'symbol id'"),
        ("<blank> 0\na one\n", "2: bad symbol id 'one'"),
        ("<blank> 0\na 1\n\na 2\n", "4: symbol 'a' already mapped to id 1"),
        ("<blank> 0\na 1\nb 1\n", "3: id 1 already mapped to 'a'"),
    ],
    ids=["one_field", "three_fields", "word_id", "duplicate_symbol", "duplicate_id"],
)
def test_symbol_table_line_errors_cite_the_line(tmp_path, text, message):
    path = tmp_path / "units.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{message}')}$"):
        SymbolTable.read(path)
