import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcdec.context import (
    BiasingPhrase,
    ContextGraph,
    load_biasing_phrases,
    phrase_units,
    score_hypothesis,
)
from ctcdec.errors import ConfigurationError
from ctcdec.symbols import SymbolTable

from oracles import greedy_phrase_score


def _phrase(units, surface="p"):
    return BiasingPhrase(surface, tuple(units))


class TestBuild:
    def test_char_chain_failure_weights(self):
        # One four-unit phrase at boost b: failure arcs -b, -2b, -3b at depths 1..3.
        b = 2.5
        graph = ContextGraph([_phrase([5, 6, 7, 8])], b)
        assert graph.num_states() == 5
        node = graph.START
        for depth, unit in enumerate([5, 6, 7], start=1):
            node = graph.match_arcs(node)[unit]
            assert graph.failure_weight(node) == pytest.approx(-depth * b)
        final = graph.match_arcs(node)[8]
        assert graph.is_final(final)
        assert graph.failure_weight(final) == 0.0

    def test_single_word_phrase_has_no_failure_arc(self):
        graph = ContextGraph([_phrase([3])], 4.0)
        node = graph.match_arcs(graph.START)[3]
        assert graph.is_final(node)
        assert graph.failure_weight(node) == 0.0

    def test_shared_prefix_merges_into_trie(self):
        graph = ContextGraph([_phrase([1, 2], "ab"), _phrase([1, 3], "ac")], 1.0)
        assert graph.num_states() == 4  # start, a, ab, ac
        mid = graph.match_arcs(graph.START)[1]
        assert set(graph.match_arcs(mid)) == {2, 3}

    def test_empty_phrase_list_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            ContextGraph([], 1.0)

    def test_negative_boost_rejected(self):
        with pytest.raises(ConfigurationError):
            ContextGraph([_phrase([1])], -1.0)

    def test_unresolvable_phrase_skipped_with_warning(self, caplog):
        table = SymbolTable.with_epsilon(["a", "b"])
        with caplog.at_level(logging.WARNING):
            phrases = load_biasing_phrases(["ab", "aq"], table, mode="char")
        assert [p.surface for p in phrases] == ["ab"]
        assert "aq" in caplog.text

    def test_phrase_units_modes(self):
        chars = SymbolTable.with_epsilon(["a", "b"])
        words = SymbolTable.with_epsilon(["alpha", "beta"])
        assert phrase_units("ab", chars, "char") == (1, 2)
        assert phrase_units("a b", chars, "char") == (1, 2)
        assert phrase_units("alpha beta", words, "word") == (1, 2)
        assert phrase_units("alpha", words, "word") == (1,)
        assert phrase_units("gamma", words, "word") is None


class TestAdvance:
    def test_first_unit_match_boosts_immediately(self):
        graph = ContextGraph([_phrase([1, 2])], 3.0)
        state, delta = graph.advance(graph.initial_state(), 1)
        assert delta == pytest.approx(3.0)
        assert state.pending == pytest.approx(3.0)

    def test_partial_match_then_mismatch_nets_zero(self):
        b = 7.0
        graph = ContextGraph([_phrase([1, 2, 3, 4])], b)
        state = graph.initial_state()
        total = 0.0
        for unit in (1, 2, 3):
            state, delta = graph.advance(state, unit)
            total += delta
        assert total == pytest.approx(3 * b)
        state, delta = graph.advance(state, 9)
        assert delta == -3 * b  # exact refund
        assert total + delta == 0.0

    def test_complete_phrase_accumulates_len_times_boost(self):
        b = 2.0
        graph = ContextGraph([_phrase([1, 2, 3, 4])], b)
        state = graph.initial_state()
        total = 0.0
        for unit in (1, 2, 3, 4):
            state, delta = graph.advance(state, unit)
            total += delta
        assert total == pytest.approx(4 * b)
        assert state.node == graph.START  # reset after completion

    def test_mismatch_retries_from_start(self):
        graph = ContextGraph([_phrase([1, 2])], 1.0)
        state, _ = graph.advance(graph.initial_state(), 1)
        state, delta = graph.advance(state, 1)  # not 2, but it restarts the phrase
        assert delta == pytest.approx(-1.0 + 1.0)
        assert state.node != graph.START


class TestScoreHypothesis:
    def test_empty_sequence_scores_zero(self):
        graph = ContextGraph([_phrase([1, 2])], 5.0)
        assert score_hypothesis([], graph) == 0.0

    def test_embedded_phrase_scores_len_times_boost(self):
        graph = ContextGraph([_phrase([1, 2, 3])], 2.0)
        assert score_hypothesis([9, 1, 2, 3, 9], graph) == pytest.approx(6.0)

    def test_two_disjoint_occurrences(self):
        graph = ContextGraph([_phrase([1, 2])], 2.0)
        assert score_hypothesis([1, 2, 9, 1, 2], graph) == pytest.approx(8.0)

    def test_prefix_of_longer_phrase_banks_short_completion(self):
        graph = ContextGraph([_phrase([1, 2], "ab"), _phrase([1, 2, 3, 4], "abcd")], 1.0)
        # "ab" completes, then "abc" fails: keep the 2 banked, refund the 1.
        assert score_hypothesis([1, 2, 3, 9], graph) == pytest.approx(2.0)
        assert score_hypothesis([1, 2, 3, 4], graph) == pytest.approx(4.0)

    def test_zero_boost_scores_zero(self):
        graph = ContextGraph([_phrase([1, 2])], 0.0)
        assert score_hypothesis([1, 2, 1, 9], graph) == 0.0

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(min_value=1, max_value=4), max_size=12),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_matches_greedy_oracle(self, phrase, sequence, boost):
        graph = ContextGraph([_phrase(tuple(phrase))], boost)
        expected = greedy_phrase_score(sequence, [tuple(phrase)], boost)
        assert score_hypothesis(sequence, graph) == pytest.approx(expected, abs=1e-9)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6))
    def test_net_zero_abandonment(self, units):
        phrase = tuple(units)
        graph = ContextGraph([_phrase(phrase)], 3.0)
        # Take a proper prefix, then diverge on a unit that matches nothing.
        prefix = list(phrase[: len(phrase) - 1])
        sequence = prefix + [99]
        assert score_hypothesis(sequence, graph) == 0.0

    def test_advance_is_total(self):
        graph = ContextGraph([_phrase([1, 2])], 1.0)
        state = graph.initial_state()
        for unit in [7, 1, 1, 2, 2, 99, 1]:
            state, _ = graph.advance(state, unit)
            assert 0 <= state.node < graph.num_states()


class TestDeltaRow:
    @given(
        st.lists(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=6), max_size=10),
        st.integers(min_value=1, max_value=8),
    )
    def test_row_equals_advance_for_every_unit(self, phrases, walk, width):
        graph = ContextGraph([_phrase(p) for p in phrases], 2.5)
        state = graph.initial_state()
        for unit in [*walk, None]:
            row = graph.delta_row(state, width)
            assert row.tolist() == [graph.advance(state, u)[1] for u in range(width)]
            if unit is not None:
                state, _ = graph.advance(state, unit)

    def test_rows_are_filled_lazily(self):
        graph = ContextGraph([_phrase([1, 2]), _phrase([3])], 1.0)
        assert graph._rows == {}
        graph.delta_row(graph.initial_state(), 4)
        assert list(graph._rows) == [(0, 4)]
