import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcdec.context import (
    BiasingPhrase,
    ContextGraph,
    load_biasing_phrases,
    phrase_units,
)
from ctcdec.errors import ConfigurationError
from ctcdec.symbols import SymbolTable

from oracles import greedy_phrase_score, phrase_node_ids, reference_advance, score_hypothesis


def _phrase(units, surface="p"):
    return BiasingPhrase(surface, tuple(units))


def _walk(graph, units):
    """`graph.advance` folded over `units` from the start: (node, total)."""
    node, total = graph.START, 0.0
    for unit in units:
        node, delta = graph.advance(node, unit)
        total += delta
    return node, total


class TestBuild:
    # A failure weight shows as the refund of a mismatch (unit 9 starts no phrase).
    def test_char_chain_failure_weights(self):
        # One four-unit phrase at boost b: after k = 1..3 matched units a
        # mismatch refunds the pending kb; after all four it refunds nothing.
        b = 2.5
        graph = ContextGraph([_phrase([5, 6, 7, 8])], b)
        assert graph.num_states() == 5
        for depth in range(1, 4):
            node, pending = _walk(graph, [5, 6, 7][:depth])
            assert pending == pytest.approx(depth * b)
            assert graph.advance(node, 9) == (graph.START, -pending)
        node, total = _walk(graph, [5, 6, 7, 8])
        assert total == pytest.approx(4 * b)
        assert graph.advance(node, 9) == (graph.START, 0.0)

    def test_single_word_phrase_has_no_failure_arc(self):
        graph = ContextGraph([_phrase([3])], 4.0)
        node, delta = graph.advance(graph.START, 3)
        assert delta == 4.0
        assert graph.advance(node, 9) == (graph.START, 0.0)

    def test_shared_prefix_merges_into_trie(self):
        graph = ContextGraph([_phrase([1, 2], "ab"), _phrase([1, 3], "ac")], 1.0)
        assert graph.num_states() == 4  # start, a, ab, ac
        mid, _ = graph.advance(graph.START, 1)
        assert [graph.advance(mid, unit)[1] for unit in (2, 3, 4)] == [1.0, 1.0, -1.0]

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
        state, delta = graph.advance(graph.START, 1)
        assert delta == pytest.approx(3.0)
        assert graph.advance(state, 9)[1] == pytest.approx(-3.0)

    def test_partial_match_then_mismatch_nets_zero(self):
        b = 7.0
        graph = ContextGraph([_phrase([1, 2, 3, 4])], b)
        state = graph.START
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
        state = graph.START
        total = 0.0
        for unit in (1, 2, 3, 4):
            state, delta = graph.advance(state, unit)
            total += delta
        assert total == pytest.approx(4 * b)
        assert state == graph.START  # reset after completion

    def test_mismatch_retries_from_start(self):
        graph = ContextGraph([_phrase([1, 2])], 1.0)
        state, _ = graph.advance(graph.START, 1)
        state, delta = graph.advance(state, 1)  # not 2, but it restarts the phrase
        assert delta == pytest.approx(-1.0 + 1.0)
        assert state != graph.START


def _score(units, phrases, boost):
    """The engine's biasing score of `units`, which must equal the
    phrase-list oracle's bit for bit."""
    score = _walk(ContextGraph([_phrase(p) for p in phrases], boost), units)[1]
    assert score == score_hypothesis(units, phrases, boost)
    return score


class TestScoreHypothesis:
    def test_empty_sequence_scores_zero(self):
        assert _score([], [(1, 2)], 5.0) == 0.0

    def test_embedded_phrase_scores_len_times_boost(self):
        assert _score([9, 1, 2, 3, 9], [(1, 2, 3)], 2.0) == pytest.approx(6.0)

    def test_two_disjoint_occurrences(self):
        assert _score([1, 2, 9, 1, 2], [(1, 2)], 2.0) == pytest.approx(8.0)

    def test_prefix_of_longer_phrase_banks_short_completion(self):
        phrases = [(1, 2), (1, 2, 3, 4)]
        # "ab" completes, then "abc" fails: keep the 2 banked, refund the 1.
        assert _score([1, 2, 3, 9], phrases, 1.0) == pytest.approx(2.0)
        assert _score([1, 2, 3, 4], phrases, 1.0) == pytest.approx(4.0)

    def test_zero_boost_scores_zero(self):
        assert _score([1, 2, 1, 9], [(1, 2)], 0.0) == 0.0

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3, unique=True),
        st.lists(st.integers(min_value=1, max_value=4), max_size=12),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_matches_greedy_oracle(self, phrase, sequence, boost):
        expected = greedy_phrase_score(sequence, [tuple(phrase)], boost)
        assert _score(sequence, [tuple(phrase)], boost) == pytest.approx(expected, abs=1e-9)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=6))
    def test_net_zero_abandonment(self, units):
        phrase = tuple(units)
        # Take a proper prefix, then diverge on a unit that matches nothing.
        prefix = list(phrase[: len(phrase) - 1])
        sequence = prefix + [99]
        assert _score(sequence, [phrase], 3.0) == 0.0

    def test_advance_is_total(self):
        graph = ContextGraph([_phrase([1, 2])], 1.0)
        state = graph.START
        for unit in [7, 1, 1, 2, 2, 99, 1]:
            state, _ = graph.advance(state, unit)
            assert 0 <= state < graph.num_states()


class TestDeltaRow:
    @given(
        st.lists(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=6), max_size=10),
        st.integers(min_value=1, max_value=8),
    )
    def test_row_equals_advance_for_every_unit(self, phrases, walk, width):
        graph = ContextGraph([_phrase(p) for p in phrases], 2.5)
        state = graph.START
        for unit in [*walk, None]:
            row = graph.delta_row(state, width)
            assert row.tolist() == [graph.advance(state, u)[1] for u in range(width)]
            if unit is not None:
                state, _ = graph.advance(state, unit)

    def test_rows_are_filled_lazily(self):
        graph = ContextGraph([_phrase([1, 2]), _phrase([3])], 1.0)
        assert graph._rows == {}
        graph.delta_row(graph.START, 4)
        assert list(graph._rows) == [(0, 4)]


def _check_against_pending_walker(phrases, boost, walk, width):
    # Exact equality: the trie's node-only walker must number its nodes and
    # round its refunds as the phrase-list walker that sums its pending
    # boost step by step does.
    graph = ContextGraph([_phrase(p) for p in phrases], boost)
    ids = phrase_node_ids(phrases)
    node, matched, pending = graph.START, (), 0.0
    for unit in [*walk, None]:
        row = graph.delta_row(node, width)
        assert row.tolist() == [reference_advance(phrases, boost, matched, pending, u)[2] for u in range(width)]
        assert not row.flags.writeable
        if unit is None:
            break
        matched, pending, ref_delta = reference_advance(phrases, boost, matched, pending, unit)
        node, delta = graph.advance(node, unit)
        assert (node, delta) == (ids[matched], ref_delta)


class TestAgainstPendingWalker:
    def test_deep_refund_is_the_summed_boost(self):
        # Six or more additions of 0.1 round differently from k * 0.1.
        _check_against_pending_walker([(1,) * 9, (2, 1)], 0.1, [1] * 8 + [2, 1, 1] * 2, 4)

    @given(
        st.lists(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8), min_size=1, max_size=4),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=7),
        st.data(),
    )
    def test_walk_and_rows_are_bit_identical(self, phrases, boost, width, data):
        # Pieces of phrases, with stray units between them, take the walk
        # deep into the trie, where summed and multiplied boosts differ.
        pieces = data.draw(st.lists(st.tuples(
            st.sampled_from(phrases),
            st.integers(min_value=1, max_value=8),
            st.lists(st.integers(min_value=1, max_value=6), max_size=2),
        ), max_size=4))
        walk = [u for phrase, cut, stray in pieces for u in [*phrase[:cut], *stray]]
        _check_against_pending_walker(phrases, boost, walk, width)
