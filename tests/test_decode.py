import math
import random

import numpy as np
import pytest

from ctcdec.context import BiasingPhrase, ContextGraph
from ctcdec.decode import (
    PosteriorMatrix,
    PrefixBeamDecoder,
    WfstBeamDecoder,
    skip_blank_frames,
)
from ctcdec.arpa import parse_arpa
from ctcdec.context import score_hypothesis
from ctcdec.errors import ConfigurationError, ParseError
from ctcdec.graph import build_G, build_L, build_T, build_TLG
from ctcdec.lexicon import parse_lexicon
from ctcdec.rescore import FusionWeights

from conftest import TOY_ARPA, TOY_LEXICON
from oracles import best_marginal, ctc_marginals

LN10 = math.log(10.0)


def _matrix(rows):
    return PosteriorMatrix.from_probs(np.array(rows, dtype=float))


def _random_matrix(rng, frames, tokens):
    if frames == 0:
        return PosteriorMatrix(np.zeros((0, tokens)))
    rows = []
    for _ in range(frames):
        weights = [rng.random() + 1e-3 for _ in range(tokens)]
        total = sum(weights)
        rows.append([w / total for w in weights])
    return _matrix(rows)


class TestPosteriorMatrix:
    def test_text_round_trip(self):
        m = _matrix([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        again = PosteriorMatrix.from_text(m.to_text("prob"))
        assert np.allclose(m.logprobs, again.logprobs)
        again = PosteriorMatrix.from_text(m.to_text("logprob"))
        assert np.allclose(m.logprobs, again.logprobs)

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="normalized"):
            PosteriorMatrix.from_probs(np.array([[0.5, 0.2, 0.1]]))

    def test_bad_header_cites_line(self):
        with pytest.raises(ParseError, match="header"):
            PosteriorMatrix.from_text("2 3\n")

    def test_row_width_checked(self):
        with pytest.raises(ParseError, match="expected 3"):
            PosteriorMatrix.from_text("1 3 prob\n0.5 0.5\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_array_rejected(self, value):
        rows = np.log(np.full((2, 3), 1 / 3))
        rows[1, 2] = value
        with pytest.raises(ConfigurationError, match="NaN or \\+inf"):
            PosteriorMatrix(rows)

    def test_minus_inf_is_log_zero(self):
        m = PosteriorMatrix.from_probs(np.array([[1.0, 0.0, 0.0]]))
        assert m.logprobs[0, 1] == -math.inf

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_file_value_is_parse_error(self, value):
        with pytest.raises(ParseError):
            PosteriorMatrix.from_text(f"1 3 logprob\n{value} -1.0 -1.0\n")

    def test_validate_reports_first_bad_row(self):
        rows = np.log(np.full((6, 3), 1 / 3))
        rows[2] = np.log([0.5, 0.2, 0.1])
        rows[4] = np.log([0.9, 0.9, 0.9])
        with pytest.raises(ConfigurationError, match=r"^posterior row 2 is not normalized \(logsumexp -0\.223144\)$"):
            PosteriorMatrix(rows).validate()
        rows[2] = np.log([0.5, 0.3, 0.2])
        with pytest.raises(ConfigurationError, match=r"^posterior row 4 is not normalized"):
            PosteriorMatrix(rows).validate()

    def test_validate_all_zero_row(self):
        rows = np.log(np.full((2, 2), 0.5))
        rows[1] = -math.inf
        with pytest.raises(ConfigurationError, match="row 1 .*logsumexp -inf"):
            PosteriorMatrix(rows).validate()

    def test_validate_tolerance_unchanged(self):
        rows = np.log(np.full((1, 2), 0.5))
        PosteriorMatrix(rows + 0.9e-4).validate()
        with pytest.raises(ConfigurationError):
            PosteriorMatrix(rows + 1.1e-4).validate()


class TestSkipBlankFrames:
    def test_threshold_removes_dominant_blank_rows(self):
        m = _matrix([[0.99, 0.005, 0.005], [0.5, 0.25, 0.25], [0.981, 0.01, 0.009]])
        kept, indices = skip_blank_frames(m, 0.98)
        assert indices == (1,)
        assert kept.frames == 1

    def test_threshold_one_keeps_everything(self):
        m = _matrix([[0.99, 0.005, 0.005], [0.5, 0.25, 0.25]])
        kept, indices = skip_blank_frames(m, 1.0)
        assert kept.frames == 2 and indices == (0, 1)

    def test_empty_matrix(self):
        m = PosteriorMatrix(np.zeros((0, 3)))
        kept, indices = skip_blank_frames(m, 0.98)
        assert kept.frames == 0 and indices == ()

    def test_idempotent(self):
        rng = random.Random(3)
        m = _random_matrix(rng, 6, 3)
        once, _ = skip_blank_frames(m, 0.5)
        twice, _ = skip_blank_frames(once, 0.5)
        assert np.array_equal(once.logprobs, twice.logprobs)


class TestPrefixBeamSearch:
    def test_two_frame_example_matches_path_sum_oracle(self):
        m = _matrix([[0.6, 0.3, 0.1], [0.6, 0.3, 0.1]])
        nbest = PrefixBeamDecoder(beam=50, nbest=5, blank_skip_threshold=None).decode(m)
        seq, score = best_marginal(m.logprobs.tolist())
        assert nbest.best().units == seq
        assert nbest.best().score_ctc == pytest.approx(score, abs=1e-9)

    def test_all_blank_mass_gives_empty_top1(self):
        m = _matrix([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1]])
        nbest = PrefixBeamDecoder(beam=50, nbest=3, blank_skip_threshold=None).decode(m)
        assert nbest.best().units == ()
        assert nbest.best().score_ctc == pytest.approx(math.log(0.9) + math.log(0.8), abs=1e-9)

    def test_boosted_phrase_overtakes_empty(self):
        m = _matrix([[0.6, 0.3, 0.1], [0.6, 0.3, 0.1]])
        ctx = ContextGraph([BiasingPhrase("a", (1,))], 10.0)
        nbest = PrefixBeamDecoder(beam=50, nbest=5, context=ctx, blank_skip_threshold=None).decode(m)
        assert nbest.best().units == (1,)
        marginals = ctc_marginals(m.logprobs.tolist())
        assert nbest.best().total_score == pytest.approx(marginals[(1,)] + 10.0, abs=1e-9)

    def test_zero_frames_yield_empty_hypothesis(self):
        dec = PrefixBeamDecoder(beam=4, nbest=2, blank_skip_threshold=None)
        nbest = dec.decode(PosteriorMatrix(np.zeros((0, 3))))
        assert len(nbest) == 1
        assert nbest.best().units == ()
        assert nbest.best().total_score == 0.0

    def test_nbest_larger_than_prefixes_returns_all(self):
        m = _matrix([[0.5, 0.5]])
        nbest = PrefixBeamDecoder(beam=50, nbest=50, blank_skip_threshold=None).decode(m)
        assert len(nbest) == 2  # () and (1,)

    def test_beam_must_cover_nbest(self):
        with pytest.raises(ConfigurationError):
            PrefixBeamDecoder(beam=1, nbest=2)

    def test_exhaustive_beam_matches_oracle_on_random_grid(self):
        rng = random.Random(20240)
        for _ in range(50):
            frames = rng.randint(0, 4)
            m = _random_matrix(rng, frames, 3)
            nbest = PrefixBeamDecoder(beam=100, nbest=1, blank_skip_threshold=None).decode(m)
            seq, score = best_marginal(m.logprobs.tolist())
            assert nbest.best().units == seq
            assert nbest.best().score_ctc == pytest.approx(score, abs=1e-9)

    def test_biasing_consistency_with_exhaustive_beam(self):
        rng = random.Random(77)
        ctx = ContextGraph([BiasingPhrase("ab", (1, 2))], 4.0)
        for _ in range(20):
            m = _random_matrix(rng, 3, 3)
            nbest = PrefixBeamDecoder(beam=200, nbest=1, context=ctx, blank_skip_threshold=None).decode(m)
            marginals = ctc_marginals(m.logprobs.tolist())
            expected = min(
                ((seq, lp + score_hypothesis(seq, ctx)) for seq, lp in marginals.items()),
                key=lambda item: (-item[1], item[0]),
            )
            assert nbest.best().units == expected[0]
            assert nbest.best().total_score == pytest.approx(expected[1], abs=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_chunk_rejected(self, value):
        dec = PrefixBeamDecoder(beam=4, nbest=2)
        chunk = np.log(np.full((2, 3), 1 / 3))
        chunk[1, 1] = value
        with pytest.raises(ConfigurationError, match="NaN or"):
            dec.advance(chunk)

    def test_chunk_width_change_names_both_widths(self):
        dec = PrefixBeamDecoder(beam=4, nbest=2, blank_skip_threshold=None)
        dec.advance(np.log([[0.1, 0.1, 0.1, 0.7]]))  # leaves prefix (3,)
        dec.advance(np.zeros((0, 2)))  # an empty chunk of any width is accepted
        with pytest.raises(ConfigurationError, match="2 tokens .* had 4"):
            dec.advance(np.log([[0.5, 0.5]]))

    def test_streaming_equals_one_shot(self):
        rng = random.Random(5)
        m = _random_matrix(rng, 7, 3)
        one_shot = PrefixBeamDecoder(beam=8, nbest=4, blank_skip_threshold=None).decode(m)
        dec = PrefixBeamDecoder(beam=8, nbest=4, blank_skip_threshold=None)
        dec.advance(PosteriorMatrix(m.logprobs[:3]))
        dec.advance(PosteriorMatrix(m.logprobs[3:4]))
        dec.advance(PosteriorMatrix(m.logprobs[4:]))
        assert dec.finalize().to_text() == one_shot.to_text()


def _toy_graph():
    lex = parse_lexicon(TOY_LEXICON)
    model = parse_arpa(TOY_ARPA)
    units = ["a", "b", "c"]
    words = sorted(set(lex.words()) | (model.vocabulary() - {"<s>", "</s>"}))
    t = build_T(units)
    l = build_L(lex, units, words)
    g = build_G(model, words)
    return build_TLG(t, l, g)


def _forced_rows(labels, tokens=4, peak=0.97):
    rows = []
    rest = (1.0 - peak) / (tokens - 1)
    for label in labels:
        row = [rest] * tokens
        row[label] = peak
        rows.append(row)
    return rows


class TestWfstBeamSearch:
    def test_forced_alignment_decodes_word(self):
        graph = _toy_graph()
        m = _matrix(_forced_rows([1, 0, 2]))  # a <blank> b -> "ab"
        nbest = WfstBeamDecoder(graph, blank_skip_threshold=1.0).decode(m)
        assert nbest.best().words == ("ab",)
        assert nbest.best().units == (1, 2)

    def test_empty_graph_rejected(self):
        from ctcdec.fst import WeightedFst

        with pytest.raises(ConfigurationError, match="empty"):
            WfstBeamDecoder(WeightedFst())

    def test_all_frames_blank_dominant_skips_everything(self):
        graph = _toy_graph()
        m = _matrix([[0.99, 0.004, 0.003, 0.003]] * 5)
        dec = WfstBeamDecoder(graph, blank_skip_threshold=0.98)
        dec.advance(m)
        nbest = dec.finalize()
        assert dec.frames_processed == 0
        assert dec.frames_skipped == 5
        assert nbest.best().words == ()

    def test_blank_skip_equals_manual_filtering(self):
        graph = _toy_graph()
        rows = _forced_rows([1, 2], peak=0.9)
        noisy = [[0.99, 0.004, 0.003, 0.003]] * 2
        interleaved = [noisy[0], rows[0], noisy[1], rows[1]]
        full = _matrix(interleaved)
        manual = _matrix(rows)
        auto_dec = WfstBeamDecoder(graph, blank_skip_threshold=0.98)
        auto_dec.advance(full)
        auto = auto_dec.finalize()
        by_hand = WfstBeamDecoder(graph, blank_skip_threshold=1.0).decode(manual)
        assert auto.best().words == by_hand.best().words
        assert auto_dec.frames_processed == manual.frames

    def test_homophone_ranking_follows_lm(self):
        units = ["x"]
        lex = parse_lexicon("alpha x\nbeta x\n")
        t = build_T(units)

        def tlg_for(pa, pb):
            arpa = (
                "\\data\\\nngram 1=3\n\n\\1-grams:\n"
                f"{math.log10(pa):.7f} alpha\n{math.log10(pb):.7f} beta\n-0.69897 </s>\n\n\\end\\\n"
            )
            model = parse_arpa(arpa)
            words = ["alpha", "beta"]
            return build_TLG(t, build_L(lex, units, words), build_G(model, words))

        m = _matrix(_forced_rows([1], tokens=2, peak=0.9))
        favored_a = WfstBeamDecoder(tlg_for(0.4, 0.1), blank_skip_threshold=1.0).decode(m)
        assert favored_a.best().words == ("alpha",)
        favored_b = WfstBeamDecoder(tlg_for(0.1, 0.4), blank_skip_threshold=1.0).decode(m)
        assert favored_b.best().words == ("beta",)

    def test_score_decomposition_replays_from_trace(self):
        graph = _toy_graph()
        rng = random.Random(11)
        for _ in range(10):
            m = _random_matrix(rng, 4, 4)
            dec = WfstBeamDecoder(graph, acoustic_scale=0.8, lm_scale=1.3, blank_skip_threshold=1.0, nbest=5)
            for hyp in dec.decode(m):
                assert hyp.trace is not None
                acoustic = dec.acoustic_scale * sum(
                    -s.acoustic_logprob for s in hyp.trace if s.ilabel > 0
                )
                graph_w = dec.lm_scale * sum(s.graph_weight for s in hyp.trace)
                total = -(acoustic + graph_w) + hyp.score_context
                assert hyp.total_score == pytest.approx(total, abs=1e-9)
                assert hyp.score_ctc == pytest.approx(-acoustic, abs=1e-9)
                assert hyp.score_lm == pytest.approx(-graph_w, abs=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_chunk_rejected(self, value):
        dec = WfstBeamDecoder(_toy_graph(), blank_skip_threshold=1.0)
        chunk = np.log(np.array(_forced_rows([1, 0])))
        chunk[0, 2] = value
        with pytest.raises(ConfigurationError, match="NaN or"):
            dec.advance(chunk)

    def test_posterior_width_mismatch_names_counts(self):
        graph = _toy_graph()
        m = _matrix([[0.7, 0.3]])
        dec = WfstBeamDecoder(graph, blank_skip_threshold=1.0)
        with pytest.raises(ConfigurationError, match="4 acoustic tokens.*2"):
            dec.advance(m)

    def test_chunk_width_change_names_both_widths(self):
        dec = WfstBeamDecoder(_toy_graph(), blank_skip_threshold=1.0)
        dec.advance(np.log(np.array(_forced_rows([1]))))
        dec.advance(np.zeros((0, 2)))
        with pytest.raises(ConfigurationError, match="5 tokens .* had 4"):
            dec.advance(np.log(np.array(_forced_rows([2], tokens=5))))

    def test_streaming_equals_one_shot(self):
        graph = _toy_graph()
        rng = random.Random(31)
        m = _random_matrix(rng, 6, 4)
        one_shot = WfstBeamDecoder(graph, nbest=4).decode(m)
        dec = WfstBeamDecoder(graph, nbest=4)
        for i in range(m.frames):
            dec.advance(PosteriorMatrix(m.logprobs[i : i + 1]))
        assert dec.finalize().to_text() == one_shot.to_text()

    def test_wfst_biasing_boosts_word(self):
        graph = _toy_graph()
        # "ac" slightly less likely than "ab" acoustically.
        rows = [
            [0.02, 0.9, 0.04, 0.04],
            [0.1, 0.02, 0.5, 0.38],
        ]
        m = _matrix(rows)
        plain = WfstBeamDecoder(graph, blank_skip_threshold=1.0).decode(m)
        assert plain.best().words == ("ab",)
        words_table = graph.osymbols
        ctx = ContextGraph(
            [BiasingPhrase("ac", (words_table.id_of("ac"),))], 6.0
        )
        boosted = WfstBeamDecoder(graph, blank_skip_threshold=1.0, context=ctx).decode(m)
        assert boosted.best().words == ("ac",)
        assert boosted.best().score_context == pytest.approx(6.0)


class TestNBestOrdering:
    def test_totals_nonincreasing_and_size_capped(self):
        rng = random.Random(77)
        graph = _toy_graph()
        for _ in range(10):
            m = _random_matrix(rng, 4, 4)
            for nbest in (
                PrefixBeamDecoder(beam=20, nbest=6, blank_skip_threshold=None).decode(m),
                WfstBeamDecoder(graph, nbest=6, blank_skip_threshold=1.0).decode(m),
            ):
                totals = [h.total_score for h in nbest]
                assert totals == sorted(totals, reverse=True)
                assert len(nbest) <= 6


class TestDecodeOptions:
    """Each option is defaulted and validated by the stage that takes it."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PrefixBeamDecoder(beam=2, nbest=5)
        with pytest.raises(ConfigurationError):
            WfstBeamDecoder(_toy_graph(), blank_skip_threshold=0.0)
        with pytest.raises(ConfigurationError):
            FusionWeights(alpha=1.5)
        with pytest.raises(ConfigurationError):
            ContextGraph([BiasingPhrase("a", (1,))], -1.0)

    def test_defaults_follow_stated_conventions(self):
        wfst = WfstBeamDecoder(_toy_graph())
        fusion = FusionWeights()
        assert wfst.blank_skip_threshold == 0.98
        assert ContextGraph([BiasingPhrase("a", (1,))]).boost == 0.0
        assert wfst.acoustic_scale == 1.0
        assert wfst.lm_scale == 1.0
        assert fusion.alpha == 0.3
        assert fusion.ctc_weight == 0.5
