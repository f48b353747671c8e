import math
import random

import numpy as np
import pytest

from ctcdec.context import BiasingPhrase, ContextGraph
from ctcdec.decode import (
    PosteriorMatrix,
    PrefixBeamDecoder,
    WfstBeamDecoder,
    _Links,
    skip_blank_frames,
)
from ctcdec.errors import ConfigurationError, ParseError
from ctcdec.fst import WeightedFst
from ctcdec.rescore import FusionWeights
from ctcdec.symbols import SymbolTable

from conftest import graph_from_text, random_matrix
from oracles import FstBuilder, best_marginal, ctc_marginals, score_hypothesis

LN10 = math.log(10.0)


def _matrix(rows):
    return PosteriorMatrix.from_probs(np.array(rows, dtype=float))


class TestPosteriorMatrix:
    def test_text_round_trip(self):
        m = _matrix([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        again = PosteriorMatrix.from_text("2 3 prob\n0.6 0.3 0.1\n0.2 0.5 0.3\n")
        assert np.allclose(m.logprobs, again.logprobs)
        logs = "\n".join(" ".join(repr(math.log(p)) for p in row) for row in ([0.6, 0.3, 0.1], [0.2, 0.5, 0.3]))
        again = PosteriorMatrix.from_text(f"2 3 logprob\n{logs}\n")
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

    @pytest.mark.parametrize(
        "bad,match",
        [
            ("0.5 0.5", "expected 3 values, found 2"),
            ("0.5 0.25 0.25 0.0", "expected 3 values, found 4"),
            ("0.5 x 0.5", "non-numeric posterior value"),
            ("0.5 0.25 #", "non-numeric posterior value"),
            ("nan 0.5 0.5", "posterior row 1 holds NaN or \\+inf"),
            ("inf 0.5 0.5", "posterior row 1 holds NaN or \\+inf"),
            ("-0.5 0.5 1.0", "posterior row 1 holds NaN or \\+inf"),
            ("0.5 0.2 0.1", "posterior row 1 is not normalized"),
        ],
    )
    def test_bad_row_cites_its_line(self, bad, match):
        text = f"4 3 prob\n0.5 0.25 0.25\n{bad}\n0.5 0.25 0.25\n0.25 0.25 0.5\n"
        with pytest.raises(ParseError, match=f"^x.post:3: {match}"):
            PosteriorMatrix.from_text(text, source="x.post")

    @pytest.mark.parametrize("bad", ["nan -1.0 -1.0", "inf -1.0 -1.0"])
    def test_non_finite_log_value_cites_its_line(self, bad):
        good = " ".join([repr(math.log(1 / 3))] * 3)
        text = f"4 3 logprob\n{good}\n{bad}\n{good}\n{good}\n"
        with pytest.raises(ParseError, match="^x.post:3: posterior row 1 holds NaN or \\+inf"):
            PosteriorMatrix.from_text(text, source="x.post")

    def test_first_failing_line_wins_across_kinds(self):
        rows = ["0.5 0.25 0.25"] * 5
        rows[3] = "0.5 0.5"  # short, after a row that does not convert
        rows[1] = "0.5 0.25 0.2_5"
        with pytest.raises(ParseError, match="^x.post:3: non-numeric"):
            PosteriorMatrix.from_text("5 3 prob\n" + "\n".join(rows), source="x.post")
        rows[1] = "0.5 0.2 0.1"  # unnormalized rows are checked only once every row converts
        with pytest.raises(ParseError, match="^x.post:5: expected 3 values, found 2"):
            PosteriorMatrix.from_text("5 3 prob\n" + "\n".join(rows), source="x.post")

    def test_blank_lines_and_crlf_are_skipped(self):
        plain = PosteriorMatrix.from_text("2 3 prob\n0.5 0.25 0.25\n0.25 0.25 0.5\n")
        spaced = PosteriorMatrix.from_text("\r\n  \r\n2 3 prob\r\n\r\n0.5 0.25 0.25\r\n \t \r\n0.25 0.25 0.5\r\n\r\n")
        assert spaced.logprobs.tobytes() == plain.logprobs.tobytes()
        with pytest.raises(ParseError, match="^x.post:6: posterior row 1 is not normalized"):
            PosteriorMatrix.from_text("\n2 3 prob\n\n0.5 0.25 0.25\n  \n0.5 0.2 0.1\n", source="x.post")

    @pytest.mark.parametrize("body", ["", "\n", "  \n\t\n"])
    def test_no_rows_is_a_zero_by_v_matrix(self, body):
        m = PosteriorMatrix.from_text(f"0 4 logprob\n{body}")
        assert m.logprobs.shape == (0, 4)

    @pytest.mark.parametrize("frames,rows", [(3, 2), (1, 2), (1, 0), (0, 1)])
    def test_frame_count_mismatch_in_both_directions(self, frames, rows):
        text = f"{frames} 3 prob\n" + "0.5 0.25 0.25\n" * rows
        with pytest.raises(ParseError, match=f"^x.post: header declares {frames} frames but {rows} rows follow$"):
            PosteriorMatrix.from_text(text, source="x.post")

    @pytest.mark.parametrize("bad", ["0.5 0.2_5 0.25", "0.5 0.25 \u0660.25", "\u0665e-1 0.25 0.25"])
    def test_underscores_and_non_ascii_digits_rejected(self, bad):
        # float() reads all three; the posterior reader accepts ASCII numbers only.
        with pytest.raises(ParseError, match="^x.post:3: non-numeric posterior value"):
            PosteriorMatrix.from_text(f"3 3 prob\n0.5 0.25 0.25\n{bad}\n0.5 0.25 0.25\n", source="x.post")

    @pytest.mark.parametrize(
        "header",
        ["1_0 3 prob", "\u0661 3 prob", "1 +3 prob", "-1 3 prob", "1 3000000000 prob", "0 -1 prob", "0 99999999999999999999 prob"],
    )
    def test_bad_header_counts_rejected(self, header):
        with pytest.raises(ParseError, match="^x.post:1: frame/token counts"):
            PosteriorMatrix.from_text(f"{header}\n0.5 0.25 0.25\n", source="x.post")
        with pytest.raises(ParseError, match="^x.post:1: frame/token counts"):
            PosteriorMatrix.from_text(f"{header}\n", source="x.post")

    @pytest.mark.parametrize("fmt", ["%.9g", "repr"])
    def test_values_match_python_float_byte_for_byte(self, fmt):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.full(7, 0.3), size=40)
        probs[rng.random(probs.shape) < 0.1] = 0.0
        with np.errstate(divide="ignore"):
            logs = np.log(probs / probs.sum(axis=1, keepdims=True))
        write = repr if fmt == "repr" else (lambda v: f"{v:.9g}")
        lines = [" ".join(write(float(v)) for v in row) for row in logs]
        parsed = PosteriorMatrix.from_text("40 7 logprob\n" + "\n".join(lines) + "\n")
        expected = np.array([[float(v) for v in line.split()] for line in lines], dtype=np.float64)
        assert parsed.logprobs.tobytes() == expected.tobytes()
        assert np.isneginf(parsed.logprobs).any()

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
        indices = skip_blank_frames(m, 0.98)
        assert indices.dtype.kind == "i"
        assert indices.tolist() == [1]

    def test_frame_exactly_at_the_threshold_is_kept(self):
        m = _matrix([[0.99, 0.005, 0.005], [0.9, 0.05, 0.05], [0.95, 0.03, 0.02]])
        threshold = float(np.exp(m.logprobs[1, 0]))  # frame 1's blank probability, to the bit
        assert skip_blank_frames(m, threshold).tolist() == [1]
        dec = PrefixBeamDecoder(beam=4, nbest=2, blank_skip_threshold=threshold)
        dec.decode(m)
        assert (dec.frames_processed, dec.frames_skipped) == (1, 2)

    def test_threshold_one_keeps_everything(self):
        m = _matrix([[0.99, 0.005, 0.005], [0.5, 0.25, 0.25]])
        indices = skip_blank_frames(m, 1.0)
        assert indices.tolist() == [0, 1]

    def test_empty_matrix(self):
        m = PosteriorMatrix(np.zeros((0, 3)))
        indices = skip_blank_frames(m, 0.98)
        assert indices.tolist() == []

    def test_idempotent(self):
        rng = random.Random(3)
        m = random_matrix(rng, 6, 3)
        once = m.logprobs[skip_blank_frames(m, 0.5)]
        twice = once[skip_blank_frames(PosteriorMatrix(once), 0.5)]
        assert np.array_equal(once, twice)


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
            m = random_matrix(rng, frames, 3)
            nbest = PrefixBeamDecoder(beam=100, nbest=1, blank_skip_threshold=None).decode(m)
            seq, score = best_marginal(m.logprobs.tolist())
            assert nbest.best().units == seq
            assert nbest.best().score_ctc == pytest.approx(score, abs=1e-9)

    def test_biasing_consistency_with_exhaustive_beam(self):
        rng = random.Random(77)
        phrases, boost = [(1, 2)], 4.0
        ctx = ContextGraph([BiasingPhrase("ab", phrase) for phrase in phrases], boost)
        for _ in range(20):
            m = random_matrix(rng, 3, 3)
            nbest = PrefixBeamDecoder(beam=200, nbest=1, context=ctx, blank_skip_threshold=None).decode(m)
            marginals = ctc_marginals(m.logprobs.tolist())
            expected = min(
                ((seq, lp + score_hypothesis(seq, phrases, boost)) for seq, lp in marginals.items()),
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
        m = random_matrix(rng, 7, 3)
        one_shot = PrefixBeamDecoder(beam=8, nbest=4, blank_skip_threshold=None).decode(m)
        dec = PrefixBeamDecoder(beam=8, nbest=4, blank_skip_threshold=None)
        dec.advance(PosteriorMatrix(m.logprobs[:3]))
        dec.advance(PosteriorMatrix(m.logprobs[3:4]))
        dec.advance(PosteriorMatrix(m.logprobs[4:]))
        assert dec.finalize().to_text() == one_shot.to_text()


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
        graph = graph_from_text()["TLG"]
        m = _matrix(_forced_rows([1, 0, 2]))  # a <blank> b -> "ab"
        nbest = WfstBeamDecoder(graph, blank_skip_threshold=1.0).decode(m)
        assert nbest.best().words == ("ab",)
        assert nbest.best().units == (1, 2)

    def test_empty_graph_rejected(self):
        from ctcdec.fst import WeightedFst

        with pytest.raises(ConfigurationError, match="empty"):
            WfstBeamDecoder(WeightedFst())

    def test_all_frames_blank_dominant_skips_everything(self):
        graph = graph_from_text()["TLG"]
        m = _matrix([[0.99, 0.004, 0.003, 0.003]] * 5)
        dec = WfstBeamDecoder(graph, blank_skip_threshold=0.98)
        dec.advance(m)
        nbest = dec.finalize()
        assert dec.frames_processed == 0
        assert dec.frames_skipped == 5
        assert nbest.best().words == ()

    def test_blank_skip_equals_manual_filtering(self):
        graph = graph_from_text()["TLG"]
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
        def tlg_for(pa, pb):
            arpa = (
                "\\data\\\nngram 1=3\n\n\\1-grams:\n"
                f"{math.log10(pa):.7f} alpha\n{math.log10(pb):.7f} beta\n-0.69897 </s>\n\n\\end\\\n"
            )
            return graph_from_text("alpha x\nbeta x\n", arpa, ["x"])["TLG"]

        m = _matrix(_forced_rows([1], tokens=2, peak=0.9))
        favored_a = WfstBeamDecoder(tlg_for(0.4, 0.1), blank_skip_threshold=1.0).decode(m)
        assert favored_a.best().words == ("alpha",)
        favored_b = WfstBeamDecoder(tlg_for(0.1, 0.4), blank_skip_threshold=1.0).decode(m)
        assert favored_b.best().words == ("beta",)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_chunk_rejected(self, value):
        dec = WfstBeamDecoder(graph_from_text()["TLG"], blank_skip_threshold=1.0)
        chunk = np.log(np.array(_forced_rows([1, 0])))
        chunk[0, 2] = value
        with pytest.raises(ConfigurationError, match="NaN or"):
            dec.advance(chunk)

    def test_posterior_width_mismatch_names_counts(self):
        graph = graph_from_text()["TLG"]
        m = _matrix([[0.7, 0.3]])
        dec = WfstBeamDecoder(graph, blank_skip_threshold=1.0)
        with pytest.raises(ConfigurationError, match="4 acoustic tokens.*2"):
            dec.advance(m)

    def test_chunk_width_change_names_both_widths(self):
        dec = WfstBeamDecoder(graph_from_text()["TLG"], blank_skip_threshold=1.0)
        dec.advance(np.log(np.array(_forced_rows([1]))))
        dec.advance(np.zeros((0, 2)))
        with pytest.raises(ConfigurationError, match="5 tokens .* had 4"):
            dec.advance(np.log(np.array(_forced_rows([2], tokens=5))))

    def test_streaming_equals_one_shot(self):
        graph = graph_from_text()["TLG"]
        rng = random.Random(31)
        m = random_matrix(rng, 6, 4)
        one_shot = WfstBeamDecoder(graph, nbest=4).decode(m)
        dec = WfstBeamDecoder(graph, nbest=4)
        for i in range(m.frames):
            dec.advance(PosteriorMatrix(m.logprobs[i : i + 1]))
        assert dec.finalize().to_text() == one_shot.to_text()

    def test_wfst_biasing_boosts_word(self):
        graph = graph_from_text()["TLG"]
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
            [BiasingPhrase("ac", (words_table.get_id("ac"),))], 6.0
        )
        boosted = WfstBeamDecoder(graph, blank_skip_threshold=1.0, context=ctx).decode(m)
        assert boosted.best().words == ("ac",)
        assert boosted.best().score_context == pytest.approx(6.0)


def _tie_graph():
    """A builder of a graph whose start state 0 has two blank arcs to state 1
    at equal cost, for w2 and then w1, so the first arc wins recombination;
    state 1 is final."""
    graph = FstBuilder(SymbolTable.with_epsilon(["t0"]), SymbolTable.with_epsilon(["w1", "w2"]))
    graph.add_states(2)
    graph.set_start(0)
    graph.add_arc(0, 1, 2, 0.5, 1)
    graph.add_arc(0, 1, 1, 0.5, 1)
    graph.set_final(1, 0.0)
    return graph


class TestWfstSearchOverAChangedGraph:
    @staticmethod
    def _best(graph):
        """Top hypothesis for one frame with all mass on the blank."""
        return WfstBeamDecoder(graph, blank_skip_threshold=None).decode(np.zeros((1, 1))).best()

    def test_decoders_share_the_frozen_graph(self):
        graph = graph_from_text()["TLG"]
        WfstBeamDecoder(graph)
        emitting, closure = graph.emitting, graph.closure
        WfstBeamDecoder(graph)
        assert graph.emitting is emitting and graph.closure is closure

    def test_add_arc_after_a_decode_is_searched(self):
        builder = _tie_graph()
        assert self._best(builder.fst()).words == ("w2",)
        builder.add_arc(0, 1, 1, 0.25, 1)  # a cheaper w1 arc
        best = self._best(builder.fst())
        assert best.words == ("w1",)
        assert best.total_score == -0.25

    def test_set_final_after_a_decode_is_searched(self):
        builder = _tie_graph()
        assert self._best(builder.fst()).total_score == -0.5
        builder.set_final(1, 0.75)  # the tropical plus keeps the cheaper final weight
        assert self._best(builder.fst()).total_score == -0.5
        builder.finals.clear()
        builder.set_final(1, 2.0)
        assert self._best(builder.fst()).total_score == -2.5

    def test_sort_arcs_after_a_decode_is_searched(self):
        graph = _tie_graph().fst()
        assert self._best(graph).words == ("w2",)
        graph.sort_arcs()  # w1's arc now comes first and wins the tie
        assert self._best(graph).words == ("w1",)

        # A stream keeps the arc order its decoder was built with. With a
        # blank self-loop on state 0, the tie is settled again in frame 2.
        builder = _tie_graph()
        builder.add_arc(0, 1, 0, 0.0, 0)
        graph, unsorted = builder.fst(), builder.fst()
        frames = np.zeros((2, 1))
        dec = WfstBeamDecoder(graph, blank_skip_threshold=None)
        dec.advance(PosteriorMatrix(frames[:1]))
        graph.sort_arcs()
        dec.advance(PosteriorMatrix(frames[1:]))
        mid_stream = dec.finalize()
        assert mid_stream.best().words == ("w2",)
        assert mid_stream.to_text() == WfstBeamDecoder(unsorted, blank_skip_threshold=None).decode(frames).to_text()
        assert WfstBeamDecoder(graph, blank_skip_threshold=None).decode(frames).best().words == ("w1",)

    def test_improving_label0_cycle_is_an_error(self):
        graph = FstBuilder()
        graph.add_states(3)
        graph.set_start(0)
        graph.add_arc(0, 2, 0, 0.0, 1)
        graph.add_arc(1, 0, 0, -1.0, 2)
        graph.add_arc(2, 0, 0, 0.0, 1)
        graph.set_final(1, 0.0)
        graph = graph.fst()
        with pytest.raises(ConfigurationError, match="label-0 cycle"):
            WfstBeamDecoder(graph, blank_skip_threshold=None)

    def test_non_improving_label0_cycle_is_refused_when_built(self):
        graph = FstBuilder()
        graph.add_states(2)
        graph.set_start(0)
        graph.add_arc(0, 0, 0, 1.0, 1)
        graph.add_arc(1, 0, 0, 1.0, 0)
        graph.set_final(1, 0.0)
        graph = graph.fst()
        with pytest.raises(ConfigurationError, match="label-0 cycle"):
            WfstBeamDecoder(graph, blank_skip_threshold=None)

    def test_label0_ladder_is_refused_when_built(self):
        graph = FstBuilder()
        graph.add_states(40)
        graph.set_start(0)
        for k in range(39):
            graph.add_arc(k, 0, 0, 0.0, k + 1)
            graph.add_arc(k, 0, 0, 1.0, k + 1)
        graph.set_final(39, 0.0)
        graph = graph.fst()
        with pytest.raises(ConfigurationError, match="label-0 paths"):
            WfstBeamDecoder(graph, blank_skip_threshold=None)


class TestLinkCompaction:
    def test_keeps_reachable_links_in_order_and_waits_to_double(self, monkeypatch):
        monkeypatch.setattr(_Links, "FLOOR", 4)
        links = _Links()
        links.add([-1, -1], [1, 2])  # links 0 and 1
        links.add([0, 1, 0], [3, 4, 5])  # links 2, 3 and 4
        live = np.array([4, -1, 2])
        renumbered = links.compact(live)
        assert len(links) == 3  # links 0, 2 and 4 survive as 0, 1 and 2
        assert renumbered.tolist() == [2, -1, 1]
        assert links.chains(renumbered) == [(1, 5), (), (1, 3)]
        links.add([2, 2], [6, 7])
        assert links.compact(np.array([3])).tolist() == [3]  # 5 links: under twice the 3 kept
        links.add([3], [8])
        assert links.compact(np.array([5])).tolist() == [3]
        assert links.chains(np.array([3])) == [(1, 5, 6, 8)]


class TestWfstSearchOverALongStream:
    FRAMES = 20_000

    def _stream(self, monkeypatch, floor):
        """Decode one seeded stream in 400-frame chunks; the n-best text and
        the most links held after any chunk."""
        monkeypatch.setattr(_Links, "FLOOR", floor)
        rng = np.random.default_rng(8)
        with np.errstate(divide="ignore"):
            logprobs = np.log(rng.dirichlet(np.ones(4), size=self.FRAMES))
        dec = WfstBeamDecoder(graph_from_text()["TLG"], blank_skip_threshold=None)
        held = 0
        for start in range(0, self.FRAMES, 400):
            dec.advance(logprobs[start : start + 400])
            held = max(held, dec.links_held)
        return dec.finalize().to_text(), held

    def test_link_store_stays_bounded_with_unchanged_nbest(self, monkeypatch):
        floor = _Links.FLOOR
        text, held = self._stream(monkeypatch, floor)
        unbounded_text, unbounded = self._stream(monkeypatch, 10**9)
        bound = 2 * floor + 1000  # the unit and the word store, each with one frame's links over its floor
        assert held <= bound < unbounded
        assert text == unbounded_text


class TestWfstSearchCounters:
    # On the toy TLG (graph labels 1..4 are blank, a, b, c) the start state 0
    # has one label-0 arc, to state 5. Frame 1 allows blank and a: state 0
    # follows 4 arcs (to 1, 2, 3 and 4) and state 5 follows 2 (to 3 and 4),
    # leaving tokens at 1 (cost 0.69), 3 (1.20), 2 (1.39) and 4 (1.90).
    # Frame 2 allows blank and b: 1 follows 1 arc, 3 follows 2, 2 follows 2
    # and 4 follows 1.
    ROWS = [[0.5, 0.5, 0.0, 0.0], [0.25, 0.0, 0.75, 0.0]]

    def _run(self, **pruning):
        dec = WfstBeamDecoder(graph_from_text()["TLG"], blank_skip_threshold=None, **pruning)
        with np.errstate(divide="ignore"):
            dec.decode(np.log(np.array(self.ROWS)))
        return self._counts(dec)

    @staticmethod
    def _counts(dec):
        counts = (
            dec.frames_processed, dec.arcs_expanded, dec.tokens_pruned_beam,
            dec.tokens_pruned_max_active, dec.eps_relaxations,
        )
        assert all(type(count) is int for count in counts)  # not numpy integers
        return counts

    def test_pruning_off(self):
        # 1 label-0 arc in the constructor, then 6 and 6 emitting arcs.
        assert self._run(score_beam=1e9, max_active=10**6) == (2, 13, 0, 0, 1)

    def test_max_active_2(self):
        # Frame 1 keeps 1 and 3 of 4 tokens; frame 2 expands 1 + 2 arcs
        # to 1 (2.08), 17 (2.59) and 19 (1.49), and keeps two of them.
        assert self._run(max_active=2) == (2, 10, 0, 3, 1)

    def test_score_beam(self):
        # Beam 0.6 keeps 1 and 3 after frame 1 (best 0.69); after frame 2 it
        # drops 17, which is 1.10 behind 19.
        assert self._run(score_beam=0.6) == (2, 10, 3, 0, 1)

    # The beam cut before recombination, on a graph of its own. One frame
    # of [0.5, 0.5] over arcs of label 2 from the start state: to 1 at
    # weights 0 and 3, to 2 at 2 and 2.5, to 3 at 2 and to 4 at 4.
    # State 3 has a label-0 arc of weight -1.5 to 4. With beam 1 the best,
    # 1 at 0.69, keeps candidates up to 1.69. The cut before recombination
    # drops the second candidate at 1 (a key with candidates on both sides)
    # and both at 2 (a key it removes whole). It keeps the ones at 3 and 4,
    # where a label-0 path starts and ends, though both are beyond the beam.
    # The path end at 4 (1.19) then replaces the candidate there, and
    # `_prune` drops the token at 3.
    @staticmethod
    def _cut_graph():
        graph = FstBuilder(SymbolTable.with_epsilon(["t0", "t1"]), SymbolTable.with_epsilon(["w"]))
        graph.add_states(5)
        graph.set_start(0)
        for weight, state in ((0.0, 1), (3.0, 1), (2.0, 2), (2.5, 2), (2.0, 3), (4.0, 4)):
            graph.add_arc(0, 2, 0, weight, state)
        graph.add_arc(3, 0, 1, -1.5, 4)
        graph.set_final(1, 0.0)
        graph.set_final(4, 0.0)
        return graph.fst()

    @pytest.mark.parametrize(
        "max_active, counts, words",
        [
            # 6 emitting arcs and 1 label-0 hop; keys 2 and 3 are pruned by
            # the beam; the path end improves key 4.
            (10, (1, 7, 2, 0, 1), ["", "w"]),
            (1, (1, 7, 2, 1, 1), [""]),
        ],
    )
    def test_cut_keys_are_counted_as_pruned_by_the_beam(self, max_active, counts, words):
        dec = WfstBeamDecoder(self._cut_graph(), score_beam=1.0, max_active=max_active, blank_skip_threshold=None)
        nbest = dec.decode(np.log(np.array([[0.5, 0.5]])))
        assert self._counts(dec) == counts
        assert [" ".join(hyp.words) for hyp in nbest] == words


class TestNBestOrdering:
    def test_totals_nonincreasing_and_size_capped(self):
        rng = random.Random(77)
        graph = graph_from_text()["TLG"]
        for _ in range(10):
            m = random_matrix(rng, 4, 4)
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
            WfstBeamDecoder(graph_from_text()["TLG"], blank_skip_threshold=0.0)
        with pytest.raises(ConfigurationError):
            FusionWeights(alpha=1.5)
        with pytest.raises(ConfigurationError):
            ContextGraph([BiasingPhrase("a", (1,))], -1.0)

    def test_defaults_follow_stated_conventions(self):
        wfst = WfstBeamDecoder(graph_from_text()["TLG"])
        fusion = FusionWeights()
        assert wfst.blank_skip_threshold == 0.98
        assert ContextGraph([BiasingPhrase("a", (1,))]).boost == 0.0
        assert wfst.acoustic_scale == 1.0
        assert wfst.lm_scale == 1.0
        assert fusion.alpha == 0.3
        assert fusion.ctc_weight == 0.5
