import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcdec.decode import Hypothesis, NBestList
from ctcdec.errors import ConfigurationError, ParseError
from ctcdec.rescore import FusionWeights, TableScorer, rescore_nbest, reverse_labels


def _hyp(units, first_pass):
    return Hypothesis(units=tuple(units), total_score=first_pass, score_ctc=first_pass)


class TestReverseLabels:
    def test_basic(self):
        assert reverse_labels((1, 2, 3)) == (3, 2, 1)

    def test_empty(self):
        assert reverse_labels(()) == ()

    def test_palindrome(self):
        assert reverse_labels((1, 2, 1)) == (1, 2, 1)

    @given(st.lists(st.integers()))
    def test_involution(self, units):
        assert reverse_labels(reverse_labels(units)) == tuple(units)


class TestFusion:
    def _fixture(self):
        nbest = NBestList([_hyp((1,), -1.0), _hyp((2,), -1.2)])
        l2r = TableScorer({(1,): -0.5, (2,): -0.1})
        r2l = TableScorer({(1,): -0.6, (2,): -0.2}, direction="r2l")
        return nbest, l2r, r2l

    def test_hand_computed_totals_flip_order(self):
        nbest, l2r, r2l = self._fixture()
        out = rescore_nbest(nbest, l2r, r2l, FusionWeights(alpha=0.3, ctc_weight=0.5))
        assert [h.units for h in out] == [(2,), (1,)]
        assert out[0].total_score == pytest.approx(-0.73)
        assert out[1].total_score == pytest.approx(-1.03)

    def test_alpha_zero_ignores_r2l(self):
        nbest, l2r, _ = self._fixture()
        broken_r2l = TableScorer({}, direction="r2l")  # everything -inf
        out = rescore_nbest(nbest, l2r, broken_r2l, FusionWeights(alpha=0.0, ctc_weight=0.5))
        assert [h.units for h in out] == [(2,), (1,)]
        assert out[0].total_score == pytest.approx(0.5 * -1.2 + -0.1)

    def test_alpha_one_ctc_zero_is_pure_r2l(self):
        nbest, _, r2l = self._fixture()
        empty_l2r = TableScorer({})
        out = rescore_nbest(nbest, empty_l2r, r2l, FusionWeights(alpha=1.0, ctc_weight=0.0))
        assert [h.units for h in out] == [(2,), (1,)]
        assert out[0].total_score == pytest.approx(-0.2)

    def test_r2l_scorer_sees_reversed_sequence(self):
        nbest = NBestList([_hyp((1, 2), -1.0)])
        l2r = TableScorer({(1, 2): 0.0})
        r2l = TableScorer({(2, 1): -3.0}, direction="r2l")
        out = rescore_nbest(nbest, l2r, r2l, FusionWeights(alpha=1.0, ctc_weight=0.0))
        assert out[0].score_r2l == -3.0

    def test_permutation_only(self):
        nbest, l2r, r2l = self._fixture()
        out = rescore_nbest(nbest, l2r, r2l)
        assert sorted(h.units for h in out) == sorted(h.units for h in nbest)
        assert len(out) == len(nbest)

    def test_scorer_failure_sinks_hypothesis_with_warning(self, caplog):
        class Exploding:
            direction = "l2r"

            def score(self, units):
                if units == (1,):
                    raise RuntimeError("boom")
                return 0.0

        nbest = NBestList([_hyp((1,), 0.0), _hyp((2,), -5.0)])
        r2l = TableScorer({(1,): 0.0, (2,): 0.0}, direction="r2l")
        out = rescore_nbest(nbest, Exploding(), r2l, FusionWeights(alpha=0.5, ctc_weight=1.0))
        assert out[-1].units == (1,)
        assert out[-1].score_l2r == -math.inf
        assert "boom" in caplog.text

    def test_empty_nbest_rejected(self):
        with pytest.raises(ConfigurationError):
            rescore_nbest(NBestList([]), TableScorer({}), TableScorer({}))

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_constant_shift_keeps_ranking(self, shift):
        nbest = NBestList([_hyp((1,), -1.0), _hyp((2,), -1.2), _hyp((3,), -0.4)])
        base_l2r = {(1,): -0.5, (2,): -0.1, (3,): -2.0}
        base_r2l = {(1,): -0.6, (2,): -0.2, (3,): -1.0}
        w = FusionWeights(alpha=0.3, ctc_weight=0.5)
        plain = rescore_nbest(nbest, TableScorer(base_l2r), TableScorer(base_r2l, "r2l"), w)
        shifted = rescore_nbest(
            nbest,
            TableScorer({k: v + shift for k, v in base_l2r.items()}),
            TableScorer({k: v + shift for k, v in base_r2l.items()}, "r2l"),
            w,
        )
        assert [h.units for h in plain] == [h.units for h in shifted]

    def test_alpha_crossover_winner_tracks_hand_computation(self):
        # One hypothesis favored by L2R, the other by R2L; the winner flips
        # at alpha* = 0.5 for these numbers.
        nbest = NBestList([_hyp((1,), 0.0), _hyp((2,), 0.0)])
        l2r = TableScorer({(1,): -1.0, (2,): -2.0})
        r2l = TableScorer({(1,): -2.0, (2,): -1.0}, direction="r2l")
        crossover = 0.5
        for alpha, winner in [
            (0.0, (1,)),
            (crossover - 1e-3, (1,)),
            (crossover + 1e-3, (2,)),
            (1.0, (2,)),
        ]:
            out = rescore_nbest(nbest, l2r, r2l, FusionWeights(alpha=alpha, ctc_weight=0.5))
            assert out.best().units == winner, alpha

    def test_first_pass_includes_context_score(self):
        hyp = Hypothesis(units=(1,), total_score=-0.5, score_ctc=-1.0, score_context=0.5)
        out = rescore_nbest(
            NBestList([hyp]),
            TableScorer({(1,): 0.0}),
            TableScorer({(1,): 0.0}, "r2l"),
            FusionWeights(alpha=0.5, ctc_weight=1.0),
        )
        assert out[0].total_score == pytest.approx(-0.5)


class TestTableScorer:
    def test_missing_entry_scores_neg_inf(self):
        scorer = TableScorer({(1,): -1.0})
        assert scorer.score((2,)) == -math.inf

    def test_from_file_string_and_id_keys(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("-1.5 a b\n-0.25 b\n", encoding="utf-8")
        by_string = TableScorer.from_file(path)
        assert by_string.score(("a", "b")) == -1.5
        from ctcdec.symbols import SymbolTable

        table = SymbolTable.with_epsilon(["a", "b"])
        by_id = TableScorer.from_file(path, table)
        assert by_id.score((1, 2)) == -1.5
        assert by_id.score((2,)) == -0.25

    @pytest.mark.parametrize("bad", ["nan", "inf", "+inf"])
    def test_from_file_rejects_nan_or_plus_inf(self, tmp_path, bad):
        path = tmp_path / "table.txt"
        path.write_text(f"-1.5 a b\n{bad} b\n", encoding="utf-8")
        with pytest.raises(ParseError, match="table.txt:2: .*NaN or \\+inf"):
            TableScorer.from_file(path)

    @pytest.mark.parametrize("bad", ["1_0", "\u0661", "\uff12", "-0_5"])
    def test_from_file_scores_follow_the_ascii_number_rule(self, tmp_path, bad):
        path = tmp_path / "table.txt"
        path.write_text(f"-1.5 a b\n{bad} b\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"table.txt:2: non-numeric score {bad!r}"):
            TableScorer.from_file(path)

    def test_from_file_minus_inf_is_an_impossible_sequence(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("-inf a\n", encoding="utf-8")
        assert TableScorer.from_file(path).score(("a",)) == -math.inf

    def test_weights_validated(self):
        with pytest.raises(ConfigurationError):
            FusionWeights(alpha=-0.1)
        with pytest.raises(ConfigurationError):
            FusionWeights(ctc_weight=-1.0)
