import math
import os
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcdec import fst as fstlib
from ctcdec.errors import ConfigurationError, ParseError, PreconditionError, ResourceError, read_text, write_atomic
from ctcdec.fst import (
    WeightedFst,
    compose,
    connect,
    determinize,
    is_deterministic,
    minimize,
)
from ctcdec.symbols import SymbolTable

from conftest import random_acyclic_fst, symbol_tables
from oracles import (
    FstBuilder,
    arcs_of,
    enumerate_language,
    finals_of,
    join_languages,
    languages_equal,
    linear_fst,
    shortest_path,
)

finite_weights = st.floats(min_value=-50, max_value=50, allow_nan=False)
weights = st.one_of(finite_weights, st.just(math.inf))


def _plus(*weights):
    """The engine's semiring sum: the final weight a state listed final once per weight gets."""
    return WeightedFst.from_text("".join(f"0 {weight!r}\n" for weight in weights)).final.tolist()[0]


class TestSemiring:
    # The sum is the one `from_text` takes over repeated final lines, and the
    # product the engine's array `_times`, both here over single weights.
    @given(weights, weights, weights)
    def test_associativity(self, a, b, c):
        assert _plus(_plus(a, b), c) == _plus(a, _plus(b, c)) == _plus(a, b, c)
        lhs = fstlib._times(fstlib._times(a, b), c)
        rhs = fstlib._times(a, fstlib._times(b, c))
        assert lhs == rhs or abs(lhs - rhs) < 1e-9

    @given(weights)
    def test_identities(self, a):
        assert _plus(a, math.inf) == a
        assert fstlib._times(a, 0.0) == a
        assert fstlib._times(a, math.inf) == math.inf

    @given(weights, weights)
    def test_plus_commutative_idempotent(self, a, b):
        assert _plus(a, b) == _plus(b, a) == min(a, b)
        assert _plus(a, a) == a


# Bad-line cases of `TestTextFormat`, which `TestTextBlocks` also reads with tiny blocks.
NAN_WEIGHT_TEXTS = [
    ("0 1 1 1 nan\n1 0.0\n", 1),
    ("0 1 1 1 -inf\n1 0.0\n", 1),
    ("0 1 1 1 0.0\n1 nan\n", 2),
    ("0 1 1 1 0.0\n1 -inf\n", 2),
]
NEGATIVE_LINES = ["-1 0 1 1 0.5", "0 -3 1 1 0.5", "0 1 -2 3 0.5", "-2 0"]
BAD_MID_LINES = [
    ("1 2 3", "expected arc or final-state line"),
    ("1 2 1 1 0.0 #", "expected arc or final-state line"),
    ("1.0 2 1 1 0.0", "cannot read"),
    ("1e3 2 1 1 0.0", "cannot read"),
    ("1 2 # 1 0.0", "cannot read"),
    ("# 0.0", "cannot read"),
    ("1.0 0.0", "cannot read"),
    ("1e3 0.0", "cannot read"),
    ("1 2 1 3 0.0", "output label 3 not in the symbol table"),
    ("1 2 5 1 0.0", "input label 5 not in the symbol table"),
    ("1 nan", "final weight 'nan' is NaN or -inf"),
    ("1 -inf", "final weight '-inf' is NaN or -inf"),
]
NON_ASCII_LINES = ["1_0 2 1 1 0.0", "0 ١ 1 1 0.0", "0 1 1 1 1_0", "1 ٣"]
TOO_LARGE_LINES = [
    ("0 1000000000 1 1 0.0", 1000000000),
    ("1000000000 0 1 1 0.0", 1000000000),
    ("9223372036854775807 0", 9223372036854775807),
    ("0 6 1 1 0.0", 6),
    ("6 0", 6),
]
UNCONVERTIBLE_AT = [0, 1, 500, 998, 999]
# A state id too large for the file, on a line before one that does not
# convert: the rows read stop at the bad line, and the id is still cited.
TOO_LARGE_BEFORE_UNCONVERTIBLE = "0 1000000000 1 1 0.5\nnan 1 1 1 0.5\n1\n"
# The same file with a bad final weight on line 3 (and a line 5 that does not
# convert), and then also a negative state id on line 2.
FIRST_FAILING_TEXTS = [
    "0 1 1 1 0.0\n0 1 1 1 0.0\n1 nan\n0 1 1 1 0.0\n0 x 1 1 0.0",
    "0 1 1 1 0.0\n0 -1 1 1 0.0\n1 nan\n0 1 1 1 0.0\n0 x 1 1 0.0",
]


def _long_file_with_unconvertible_line(at: int) -> list[str]:
    lines = [f"{i} {i + 1} 1 1 0.25" for i in range(1000)]
    lines[at] = f"{at} {at + 1} 1 1.5 0.25"
    return lines


def _bad_texts():
    """(text, isymbols, osymbols) of every bad-line case of `TestTextFormat`."""
    yield "0 1 1 1 0.0\nnot an arc line\n", None, None
    for text, _ in NAN_WEIGHT_TEXTS:
        yield text, None, None
    for bad in [*NEGATIVE_LINES, *NON_ASCII_LINES, *(bad for bad, _ in TOO_LARGE_LINES)]:
        yield f"0 1 1 1 0.0\n{bad}\n1 0.0\n", None, None
    isym = SymbolTable.with_epsilon(["a"])
    yield "0 1 9 1 0.0\n1 0.0\n", isym, isym.copy()
    isym, osym = symbol_tables(4, 2)
    for bad, _ in BAD_MID_LINES:
        yield f"0 1 1 1 0.0\n1 2 2 2 0.5\n{bad}\n2 0.0\n0 1 3 0 1.0\n", isym, osym
    for text in FIRST_FAILING_TEXTS:
        yield text, None, None
    for at in UNCONVERTIBLE_AT:
        yield "\n".join(_long_file_with_unconvertible_line(at)), None, None
    yield TOO_LARGE_BEFORE_UNCONVERTIBLE, None, None


# The constructor's arguments for a valid two-state machine, and each of
# its checks broken in turn.
VALID_MACHINE = dict(num_states=2, start=0, final=[math.inf, 0.0], src=[0], ilabel=[1], olabel=[1], weight=[0.5],
                     nextstate=[1])
BROKEN_MACHINES = {
    "start_past_the_states": (dict(start=2), "state 2 does not exist"),
    "start_negative": (dict(start=-2), "state -2 does not exist"),
    "src_past_the_states": (dict(src=[2]), "state 2 does not exist"),
    "nextstate_negative": (dict(nextstate=[-1]), "state -1 does not exist"),
    "ilabel_negative": (dict(ilabel=[-1]), "arc labels must be >= 0"),
    "olabel_negative": (dict(olabel=[-3]), "arc labels must be >= 0"),
    "arc_nan": (dict(weight=[math.nan]), "arc weight nan is NaN or -inf"),
    "arc_minus_inf": (dict(weight=[-math.inf]), "arc weight -inf is NaN or -inf"),
    "final_nan": (dict(final=[math.nan, 0.0]), "final weight nan is NaN or -inf"),
    "final_minus_inf": (dict(final=[0.0, -math.inf]), "final weight -inf is NaN or -inf"),
    "final_short": (dict(final=[0.0]), "1 final weights for 2 states"),
    "columns_uneven": (dict(weight=[]), "arc columns differ in length"),
}


class TestConstructor:
    @pytest.mark.parametrize("broken,message", BROKEN_MACHINES.values(), ids=BROKEN_MACHINES.keys())
    def test_refuses_each_broken_argument(self, broken, message):
        WeightedFst(**VALID_MACHINE)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            WeightedFst(**{**VALID_MACHINE, **broken})

    def test_takes_plus_inf_weights_and_no_start(self):
        fst = WeightedFst(**{**VALID_MACHINE, "weight": [math.inf], "final": [math.inf, math.inf]})
        assert (fst.num_arcs(), finals_of(fst)) == (1, {})
        assert WeightedFst(**{**VALID_MACHINE, "start": -1}).is_empty()
        assert WeightedFst().is_empty() and WeightedFst().num_states() == 0

    def test_final_weights_are_read_only(self):
        final = np.array([math.inf, 0.0])
        fst = WeightedFst(**{**VALID_MACHINE, "final": final})
        final[0] = 1.0  # the machine holds a copy
        assert fst.final.tolist() == [math.inf, 0.0]
        with pytest.raises(ValueError):
            fst.final[0] = 1.0


class TestCompose:
    def test_joins_on_shared_tape(self):
        # a: "ab" -> "AB" with weight 1.0, b: "AB" -> "X" with weight 2.0
        lower = SymbolTable.with_epsilon(["a", "b"])
        mid = SymbolTable.with_epsilon(["A", "B"])
        upper = SymbolTable.with_epsilon(["X"])
        a = linear_fst([1, 2], [1, 2], weights=[1.0, 0.0], isymbols=lower, osymbols=mid)
        b = linear_fst([1, 2], [1, 0], weights=[2.0, 0.0], isymbols=mid, osymbols=upper)
        ab = compose(a, b)
        lang = enumerate_language(ab)
        assert lang == {((1, 2), (1,)): pytest.approx(3.0)}
        oracle = join_languages(enumerate_language(a), enumerate_language(b))
        assert languages_equal(lang, oracle)

    def test_identity_acceptor_preserves_language(self):
        isym, osym = symbol_tables()
        rng = random.Random(7)
        a = random_acyclic_fst(rng, isym, osym)
        ident = FstBuilder(osym.copy(), osym.copy())
        s = ident.add_state()
        ident.set_start(s)
        ident.set_final(s, 0.0)
        for label in range(1, len(osym)):
            ident.add_arc(s, label, label, 0.0, s)
        ident = ident.fst()
        composed = compose(a, ident)
        assert languages_equal(enumerate_language(composed), enumerate_language(a))

    def test_disjoint_labels_give_empty_fst(self):
        isym, osym = symbol_tables(2, 2)
        a = linear_fst([1], [1], isymbols=isym, osymbols=osym)
        b = linear_fst([2], [2], isymbols=osym, osymbols=osym)
        assert compose(a, b).is_empty()

    def test_symbol_table_mismatch_rejected(self):
        isym, osym = symbol_tables()
        other = SymbolTable.with_epsilon(["z"])
        a = linear_fst([1], [1], isymbols=isym, osymbols=osym)
        b = linear_fst([1], [1], isymbols=other, osymbols=other)
        with pytest.raises(ConfigurationError):
            compose(a, b)

    def test_empty_input_gives_empty_output(self):
        isym, osym = symbol_tables()
        a = WeightedFst(isym, osym)
        b = WeightedFst(osym.copy(), osym.copy())
        assert compose(a, b).is_empty()

    def test_random_pairs_match_join_oracle(self):
        rng = random.Random(1234)
        isym, osym = symbol_tables()
        third = SymbolTable.with_epsilon(["z1", "z2", "z3"])
        for _ in range(60):
            a = random_acyclic_fst(rng, isym, osym, max_states=6)
            b = random_acyclic_fst(rng, osym, third, max_states=6)
            got = enumerate_language(compose(a, b))
            oracle = join_languages(enumerate_language(a), enumerate_language(b))
            assert languages_equal(got, oracle)


class TestDeterminize:
    def test_merges_parallel_paths_tropically(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(3)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 3.0, 1)
        fst.add_arc(0, 1, 1, 5.0, 2)
        fst.set_final(1, 0.0)
        fst.set_final(2, 0.0)
        fst = fst.fst()
        det = determinize(fst)
        assert is_deterministic(det)
        assert enumerate_language(det) == {((1,), (1,)): pytest.approx(3.0)}

    def test_deterministic_input_is_fixed_point(self):
        isym, _ = symbol_tables()
        fst = linear_fst([1, 2, 3], isymbols=isym, osymbols=isym)
        det = determinize(fst)
        assert languages_equal(enumerate_language(det), enumerate_language(fst))

    def test_shared_prefix_pushes_residuals(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(5)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 1.0, 1)  # "ab" costs 3 in total
        fst.add_arc(1, 2, 2, 2.0, 3)
        fst.add_arc(0, 1, 1, 3.0, 2)  # "ac" costs 7 in total
        fst.add_arc(2, 3, 3, 4.0, 4)
        fst.set_final(3, 0.0)
        fst.set_final(4, 0.0)
        fst = fst.fst()
        det = determinize(fst)
        assert len(arcs_of(det, det.start)) == 1  # the shared "a" arc
        assert arcs_of(det, det.start)[0].weight == pytest.approx(1.0)
        assert languages_equal(enumerate_language(det), enumerate_language(fst))

    def test_budget_exceeded_raises(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(4)
        fst.set_start(0)
        for dst in (1, 2, 3):
            fst.add_arc(0, 1, 1, float(dst), dst)
            fst.set_final(dst, 0.0)
        fst = fst.fst()
        with pytest.raises(ResourceError, match="budget"):
            determinize(fst, state_budget=1)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_a_configuration_error(self, budget):
        isym, _ = symbol_tables()
        fst = linear_fst([1, 2], isymbols=isym, osymbols=isym)
        with pytest.raises(ConfigurationError, match="^state_budget must be >= 1$"):
            determinize(fst, state_budget=budget)

    def test_random_acyclic_language_preserved(self):
        rng = random.Random(99)
        isym, _ = symbol_tables()
        for _ in range(60):
            fst = random_acyclic_fst(rng, isym, isym, max_states=8)
            det = determinize(fst)
            assert is_deterministic(det)
            assert languages_equal(enumerate_language(det), enumerate_language(fst))


class TestMinimize:
    def test_merges_equivalent_states(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(3)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 0.0, 1)
        fst.add_arc(0, 2, 2, 0.0, 2)
        fst.set_final(1, 0.5)
        fst.set_final(2, 0.5)
        fst = fst.fst()
        out = minimize(fst)
        assert out.num_states() == 2
        assert languages_equal(enumerate_language(out), enumerate_language(fst))

    def test_minimal_machine_unchanged(self):
        isym, _ = symbol_tables()
        fst = linear_fst([1, 2], isymbols=isym, osymbols=isym)
        out = minimize(fst)
        assert out.num_states() == fst.num_states()
        assert languages_equal(enumerate_language(out), enumerate_language(fst))

    def test_dead_states_dropped_from_abc_chain(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(6)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 0.0, 1)
        fst.add_arc(1, 2, 2, 0.0, 2)
        fst.add_arc(2, 3, 3, 0.0, 3)
        fst.set_final(3, 0.0)
        fst.add_arc(1, 3, 3, 0.0, 4)  # dead: state 4 cannot reach a final
        fst.add_arc(5, 1, 1, 0.0, 3)  # dead: state 5 unreachable
        fst = fst.fst()
        out = minimize(connect(fst))
        assert out.num_states() == 4
        assert enumerate_language(out) == {((1, 2, 3), (1, 2, 3)): pytest.approx(0.0)}

    def test_rejects_nondeterministic_input(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(3)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 0.0, 1)
        fst.add_arc(0, 1, 1, 1.0, 2)
        fst.set_final(1)
        fst.set_final(2)
        fst = fst.fst()
        with pytest.raises(PreconditionError):
            minimize(fst)

    def test_random_deterministic_language_preserved(self):
        rng = random.Random(4321)
        isym, _ = symbol_tables()
        for _ in range(60):
            fst = random_acyclic_fst(rng, isym, isym, max_states=8)
            det = determinize(fst)
            out = minimize(det)
            assert out.num_states() <= det.num_states()
            assert languages_equal(enumerate_language(out), enumerate_language(fst))


class TestShortestPath:
    def _diamond(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(3)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 1.0, 1)
        fst.add_arc(0, 2, 2, 2.0, 1)
        fst.add_arc(1, 3, 3, 0.0, 2)
        fst.set_final(2, 0.0)
        return fst.fst()

    def test_diamond_orders_both_paths(self):
        paths = shortest_path(self._diamond(), 2)
        assert [p.weight for p in paths] == [pytest.approx(1.0), pytest.approx(2.0)]
        assert paths[0].ilabels == (1, 3)
        assert paths[1].ilabels == (2, 3)

    def test_single_path(self):
        isym, _ = symbol_tables()
        fst = linear_fst([1, 2], weights=[0.5, 0.25], isymbols=isym, osymbols=isym)
        paths = shortest_path(fst, 1)
        assert len(paths) == 1
        assert paths[0].weight == pytest.approx(0.75)

    def test_n_beyond_path_count_returns_all(self):
        assert len(shortest_path(self._diamond(), 10)) == 2

    def test_no_accepting_path_gives_empty_list(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(2)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 0.0, 1)  # no finals at all
        fst = fst.fst()
        assert shortest_path(fst, 3) == []

    def test_best_weight_matches_enumeration(self):
        rng = random.Random(8)
        isym, _ = symbol_tables()
        for _ in range(40):
            fst = random_acyclic_fst(rng, isym, isym, max_states=7)
            lang = enumerate_language(fst)
            paths = shortest_path(fst, 1)
            if not lang:
                assert paths == []
                continue
            assert paths[0].weight == pytest.approx(min(lang.values()), abs=1e-9)

    def test_tie_break_is_lexicographic(self):
        isym, _ = symbol_tables()
        fst = FstBuilder(isym.copy(), isym.copy())
        fst.add_states(2)
        fst.set_start(0)
        fst.add_arc(0, 2, 2, 1.0, 1)
        fst.add_arc(0, 1, 1, 1.0, 1)
        fst.set_final(1, 0.0)
        fst = fst.fst()
        paths = shortest_path(fst, 2)
        assert paths[0].ilabels == (1,)
        assert paths[1].ilabels == (2,)


class TestTextFormat:
    def test_round_trip_and_determinism(self):
        rng = random.Random(55)
        isym, osym = symbol_tables()
        fst = random_acyclic_fst(rng, isym, osym)
        fst.sort_arcs()
        text = fst.to_text()
        again = WeightedFst.from_text(text, isym.copy(), osym.copy())
        assert again.to_text() == text
        assert languages_equal(enumerate_language(again), enumerate_language(fst))

    def test_weights_have_six_decimals(self):
        isym, _ = symbol_tables()
        fst = linear_fst([1], weights=[1.25], isymbols=isym, osymbols=isym)
        lines = fst.to_text().splitlines()
        assert lines[0].endswith("1.250000")
        assert lines[1].endswith("0.000000")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(Exception, match="2"):
            WeightedFst.from_text("0 1 1 1 0.0\nnot an arc line\n", source="x.fst")

    @pytest.mark.parametrize("text,line", NAN_WEIGHT_TEXTS)
    def test_nan_or_minus_inf_weight_rejected(self, text, line):
        with pytest.raises(ParseError, match=f"x.fst:{line}: .*NaN or -inf"):
            WeightedFst.from_text(text, source="x.fst")

    @pytest.mark.parametrize("bad", NEGATIVE_LINES)
    def test_negative_state_or_label_rejected_citing_line(self, bad):
        with pytest.raises(ParseError, match=r"x.fst:2: .*>= 0"):
            WeightedFst.from_text(f"0 1 1 1 0.0\n{bad}\n1 0.0\n", source="x.fst")

    def test_plus_inf_weight_is_the_semiring_zero(self):
        fst = WeightedFst.from_text("0 1 1 1 inf\n1 inf\n0 0.5\n")
        assert arcs_of(fst, 0)[0].weight == math.inf
        assert fst.final.tolist() == [0.5, math.inf]

    def test_plus_inf_final_is_not_written(self):
        fst = WeightedFst.from_text("0 1 1 1 0.5\n1 inf\n2 inf\n")
        assert fst.num_states() == 3
        assert fst.to_text() == "0 1 1 1 0.500000\n"

    def test_labels_validated_against_given_tables(self):
        isym = SymbolTable.with_epsilon(["a"])
        with pytest.raises(Exception, match="label 9"):
            WeightedFst.from_text("0 1 9 1 0.0\n1 0.0\n", isym, isym.copy(), source="x.fst")

    @pytest.mark.parametrize("bad,match", BAD_MID_LINES)
    def test_bad_line_in_mid_file_cites_its_line(self, bad, match):
        isym, osym = symbol_tables(4, 2)
        text = f"0 1 1 1 0.0\n1 2 2 2 0.5\n{bad}\n2 0.0\n0 1 3 0 1.0\n"
        with pytest.raises(ParseError, match=f"x.fst:3: {match}"):
            WeightedFst.from_text(text, isym, osym, source="x.fst")

    @pytest.mark.parametrize("bad", NON_ASCII_LINES)
    def test_underscores_and_non_ascii_digits_rejected(self, bad):
        with pytest.raises(ParseError, match="x.fst:2: cannot read"):
            WeightedFst.from_text(f"0 1 1 1 0.0\n{bad}\n1 0.0\n", source="x.fst")

    def test_first_failing_line_is_cited_across_kinds_of_error(self):
        later, earlier = FIRST_FAILING_TEXTS
        with pytest.raises(ParseError, match="x.fst:3: final weight"):
            WeightedFst.from_text(later, source="x.fst")
        with pytest.raises(ParseError, match="x.fst:2: state ids"):
            WeightedFst.from_text(earlier, source="x.fst")

    @pytest.mark.parametrize("at", UNCONVERTIBLE_AT)
    def test_unconvertible_line_found_in_a_long_file(self, at):
        lines = _long_file_with_unconvertible_line(at)
        with pytest.raises(ParseError, match=f"x.fst:{at + 1}: cannot read '{at} {at + 1} 1 1.5 0.25'"):
            WeightedFst.from_text("\n".join(lines), source="x.fst")

    @pytest.mark.parametrize("bad,state", TOO_LARGE_LINES)
    def test_state_id_past_what_the_file_can_describe_rejected(self, bad, state):
        # Three lines name at most six states, ids 0 to 5. The machine is
        # sized by its largest id, so this must fail before any allocation.
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"x.fst:2: state id {state} is too large for a file of 3 lines"):
            WeightedFst.from_text(f"0 1 1 1 0.0\n{bad}\n1 0.0\n", source="x.fst")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("size", [1, 2, 5, None], ids=["1", "2", "5", "default"])
    @pytest.mark.parametrize(
        "text",
        [
            "0 1 1 1 0.0\n2 3 1 1 0.0\n4 5 1 1 0.0\n",
            # the first lines name states past twice the lines read so far, and pass once all are in
            "4 5 1 1 0.0\n2 3 1 1 0.0\n0 1 1 1 0.0\n",
            "5 0.0\n4 3 1 1 0.0\n0 1 1 1 0.0\n",
        ],
        ids=["ascending", "descending", "final_first"],
    )
    def test_densest_state_ids_a_file_can_describe_are_read(self, monkeypatch, text, size):
        if size is not None:
            monkeypatch.setattr(fstlib, "_READ_BLOCK", size)
        fst = WeightedFst.from_text(text)
        assert fst.num_states() == 6

    def test_repeated_final_lines_keep_the_smaller_weight(self):
        fst = WeightedFst.from_text("0 1 1 1 0.0\n1 2.0\n1 0.5\n1 1.0\n0 inf\n")
        assert fst.final.tolist() == [math.inf, 0.5]
        assert fst.to_text() == "0 1 1 1 0.000000\n1 0.500000\n"

    def test_arcs_keep_file_order_within_a_state(self):
        text = "1 0 2 2 0.0\n0 1 2 1 0.5\n1 1 1 1 0.0\n0 0 1 2 0.25\n1 0.0\n"
        fst = WeightedFst.from_text(text)
        assert [(a.ilabel, a.olabel) for a in arcs_of(fst, 0)] == [(2, 1), (1, 2)]
        assert [(a.ilabel, a.olabel) for a in arcs_of(fst, 1)] == [(2, 2), (1, 1)]
        assert fst.num_states() == 2 and fst.start == 0


# Every line break `str.splitlines` knows.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _parse_error(text, isymbols=None, osymbols=None) -> tuple[str, int]:
    with pytest.raises(ParseError) as info:
        WeightedFst.from_text(text, isymbols, osymbols, source="x.fst")
    return str(info.value), info.value.line


def _outcome(parse) -> tuple:
    """`_machine` of what `parse()` returns, or the text and line of the `ParseError` it raises."""
    try:
        return _machine(parse())
    except ParseError as exc:
        return str(exc), exc.line


def _machine(fst: WeightedFst) -> tuple:
    return fst.num_states(), fst.start, fst.final.tolist(), *(c.tolist() for c in (fst.offsets, *fst.columns()[1:]))


class TestTextBlocks:
    """`from_text` reads a block of lines at a time, and `to_text` and `write`
    format a chunk of arcs at a time; no size may show in what they give."""

    @pytest.fixture
    def tiny(self, monkeypatch):
        def set_size(size: int) -> None:
            monkeypatch.setattr(fstlib, "_READ_BLOCK", size)
            monkeypatch.setattr(fstlib, "_TEXT_CHUNK", size)
        return set_size

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_machine_and_bytes_do_not_depend_on_block_size(self, tiny, tmp_path, size):
        rng = random.Random(57)
        isym, osym = symbol_tables()
        fsts = [random_acyclic_fst(rng, isym, osym) for _ in range(20)]
        texts = [fst.to_text() for fst in fsts]
        shuffled = []  # file order is arc order within a state, so parse an unsorted file too
        for text in texts:
            lines = text.splitlines(keepends=True)
            rng.shuffle(lines)
            shuffled.append("".join(lines))
        parsed = [_machine(WeightedFst.from_text(text, isym, osym)) for text in texts + shuffled]
        tiny(size)
        for fst, text in zip(fsts, texts):
            assert fst.to_text() == text
            fst.write(tmp_path / "x.fst")
            assert (tmp_path / "x.fst").read_bytes() == text.encode("ascii")
        assert [_machine(WeightedFst.from_text(text, isym, osym)) for text in texts + shuffled] == parsed

    @pytest.mark.parametrize("size", [1, 2, 5, 40])
    def test_errors_do_not_depend_on_block_size(self, tiny, size):
        expected = [_parse_error(*case) for case in _bad_texts()]
        tiny(size)
        assert [_parse_error(*case) for case in _bad_texts()] == expected

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("-1 1000000000 1 1 0.0", "state ids must be >= 0, got -1 and 1000000000"),
            ("0 1000000000 -1 1 0.0", "state id 1000000000 is too large for a file of 3 lines"),
            ("0 1000000000 9 1 nan", "state id 1000000000 is too large for a file of 3 lines"),
            ("0 1 9 -1 nan", "labels must be >= 0, got 9 and -1"),
            ("0 1 9 1 nan", "input label 9 not in the symbol table"),
            ("1000000000 nan", "state id 1000000000 is too large for a file of 3 lines"),
            ("-1 nan", "state id must be >= 0, got -1"),
        ],
    )
    @pytest.mark.parametrize("size", [1, 1 << 18])
    def test_a_line_failing_two_checks_cites_the_first_check(self, tiny, bad, message, size):
        isym = SymbolTable.with_epsilon(["a"])
        tiny(size)
        assert _parse_error(f"0 1 1 1 0.0\n{bad}\n1 0.0\n", isym, isym.copy()) == (f"x.fst:2: {message}", 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_lines_are_the_lines_of_the_whole_text(self, tiny, seed):
        """Every line break, blank lines on each side of a cut, and a last
        line with no break: each block size finds the lines that
        `str.splitlines` finds in the whole text, and cites them alike."""
        rng = random.Random(seed)
        rows = [f"{i} {i + 1} 1 1 0.{i}" for i in range(12)] + [f"{i} 0.5" for i in range(0, 13, 4)]
        pieces = []
        for row in rows:
            pieces.append(row + rng.choice(LINE_BREAKS))
            pieces += [rng.choice(["", " ", "\t"]) + rng.choice(LINE_BREAKS) for _ in range(rng.randrange(3))]
        text = "".join(pieces).rstrip("".join(LINE_BREAKS))  # the last line ends without a break
        bad_at = rng.randrange(len(pieces))
        bad = "".join(pieces[:bad_at]) + "0 -1 1 1 0.0\n" + "".join(pieces[bad_at:])
        bad_line = len("".join(pieces[:bad_at]).splitlines()) + 1
        too_large = text + "\n" + f"{2 * (len(text.splitlines()) + 1)} 0.0"
        whole = WeightedFst.from_text(text)
        assert (whole.num_arcs(), len(finals_of(whole))) == (12, 4)
        expected = _machine(whole)
        for size in (1, 2, 3, 11, 64):
            tiny(size)
            assert _machine(WeightedFst.from_text(text)) == expected
            assert _parse_error(bad) == (f"x.fst:{bad_line}: state ids must be >= 0, got 0 and -1", bad_line)
            message, line = _parse_error(too_large)
            assert line == len(too_large.splitlines()) and "too large" in message

    @pytest.mark.parametrize("seed", range(6))
    def test_read_parses_a_file_as_from_text_parses_its_text(self, tiny, tmp_path, seed):
        """Files with every line break, a two-byte character and bytes that are
        not UTF-8: at each block size `read` gives the machine, or the error,
        that `from_text` gives on the text `read_text` decodes, or the error
        `read_text` raises."""
        rng = random.Random(seed)
        path = tmp_path / "x.fst"
        rows = [f"{i} {i + 1} 1 1 0.{i}" for i in range(12)] + [f"{i} 0.5" for i in range(0, 13, 4)]
        for case in range(8):
            data = bytearray("".join(row + rng.choice(LINE_BREAKS) for row in rows).encode("utf-8"))
            for run in rng.sample([b"\xc3\xa9", b"\xff", b"\xe4\xb8", b"\xc3"], rng.randrange(3)):
                at = rng.randrange(len(data) + 1)
                data[at:at] = run
            path.write_bytes(bytes(data))
            expected = _outcome(lambda: WeightedFst.from_text(read_text(path), source=str(path)))
            for size in (1, 2, 3, 11, 64):
                tiny(size)
                assert _outcome(lambda: WeightedFst.read(path)) == expected, (case, size)

    def test_a_byte_that_is_not_utf8_in_a_later_block_cites_its_line(self, tmp_path):
        """As `read_text` does, the first byte that is not UTF-8 is the error,
        even after a line that does not parse."""
        lines = [f"{i} {i + 1} 1 1 0.500000\n".encode("ascii") for i in range(3 * fstlib._READ_BLOCK // 20)]
        lines[1] = b"not an arc line\n"
        lines[-5] = b"7 8 1 \xff 0.5\n"
        path = tmp_path / "x.fst"
        path.write_bytes(b"".join(lines))
        assert len(b"".join(lines[:-5])) > 2 * fstlib._READ_BLOCK
        with pytest.raises(ParseError) as info:
            WeightedFst.read(path)
        assert (str(info.value), info.value.line) == (f"{path}:{len(lines) - 4}: byte 0xff is not UTF-8", len(lines) - 4)

    def test_write_that_fails_midway_leaves_the_old_file(self, monkeypatch, tiny, tmp_path):
        path = tmp_path / "x.fst"
        path.write_bytes(b"old\n")
        isym, osym = symbol_tables()
        fst = linear_fst([1, 2, 3, 1], isymbols=isym, osymbols=osym)
        tiny(1)
        format_lines, calls = fstlib._format_lines, []

        def fail_on_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return format_lines(*args)

        monkeypatch.setattr(fstlib, "_format_lines", fail_on_third)
        with pytest.raises(OSError, match="no space left"):
            fst.write(path)
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.fst"]

    def test_atomic_write_replaces_whole_or_not_at_all(self, tmp_path):
        path, other = tmp_path / "x.txt", tmp_path / "other.txt"
        path.write_bytes(b"old\n")
        other.touch()

        def chunks():
            yield b"new "
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt", "x.txt"]
        write_atomic(path, [b"new ", b"text\n"])
        assert path.read_bytes() == b"new text\n"
        assert path.stat().st_mode == other.stat().st_mode  # the mode of any new file, not a temporary's 0600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt", "x.txt"]

    def test_atomic_write_replaces_the_file_a_symlink_points_to(self, tmp_path):
        shared, out = tmp_path / "shared", tmp_path / "out"
        shared.mkdir()
        out.mkdir()
        target = shared / "TLG.fst"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        (out / "TLG.fst").symlink_to(target)
        WeightedFst.from_text("0 1 1 1 0.5\n1 0\n").write(out / "TLG.fst")
        assert (out / "TLG.fst").is_symlink()
        assert target.read_bytes() == b"0 1 1 1 0.500000\n1 0.000000\n"
        assert target.stat().st_mode & 0o777 == 0o640  # the replaced file's mode, kept
        assert [p.name for p in shared.iterdir()] == ["TLG.fst"]
        assert [p.name for p in out.iterdir()] == ["TLG.fst"]

    def test_atomic_write_writes_through_a_pipe(self, tmp_path):
        """A pipe (or `/dev/stdout`) is written to, not replaced by a file."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        write_atomic(fifo, [b"new ", b"text\n"])
        assert fifo.is_fifo() and [p.name for p in tmp_path.iterdir()] == ["fifo"]
        assert os.read(reader, 100) == b"new text\n"
        os.close(reader)

    def test_read_and_write_hold_a_bounded_amount_per_line(self, tmp_path):
        """Above what each call keeps, reading and writing 120k arc lines must
        peak at under 64 bytes a line. A Python `str` per line alone costs more."""
        rng = np.random.default_rng(11)
        n = 120_000
        columns = (np.sort(rng.integers(0, 30_000, n)), rng.integers(0, 30_000, n), rng.integers(0, 60, n),
                   rng.integers(0, 300, n), rng.integers(0, 10**5, n) / 997)
        text = "".join(map("{} {} {} {} {:.6f}\n".format, *(c.tolist() for c in columns)))
        text += "".join(f"{s} 0.5\n" for s in range(0, 30_000, 97))
        lines = len(text.splitlines())
        tracemalloc.start()
        try:
            fst = WeightedFst.from_text(text)
            kept, peak = tracemalloc.get_traced_memory()
            read_excess = peak - kept
            tracemalloc.reset_peak()
            fst.write(tmp_path / "x.fst")
            kept, peak = tracemalloc.get_traced_memory()
            write_excess = peak - kept
            tracemalloc.reset_peak()
            again = WeightedFst.read(tmp_path / "x.fst")
            kept, peak = tracemalloc.get_traced_memory()
            file_excess = peak - kept
        finally:
            tracemalloc.stop()
        assert (tmp_path / "x.fst").read_text(encoding="utf-8") == fst.to_text()
        fst.sort_arcs()  # the order the file lists each state's arcs in
        assert _machine(again) == _machine(fst)
        assert read_excess < 64 * lines, f"from_text peaked {read_excess / lines:.0f} bytes a line above what it kept"
        assert write_excess < 64 * lines, f"write peaked {write_excess / lines:.0f} bytes a line above what it kept"
        # The file's text alone is about 30 bytes a line, and `read` holds no copy of it.
        assert file_excess < 48 * lines, f"read peaked {file_excess / lines:.0f} bytes a line above what it kept"


def test_connect_drops_unproductive_states():
    isym, _ = symbol_tables()
    fst = FstBuilder(isym.copy(), isym.copy())
    fst.add_states(4)
    fst.set_start(0)
    fst.add_arc(0, 1, 1, 0.0, 1)
    fst.add_arc(0, 2, 2, 0.0, 2)  # state 2 is a dead end
    fst.add_arc(3, 1, 1, 0.0, 1)  # state 3 is unreachable
    fst.set_final(1, 0.0)
    fst = fst.fst()
    out = connect(fst)
    assert out.num_states() == 2
    assert out.final.tolist() == [math.inf, 0.0]


def test_connect_trims_a_state_only_a_plus_inf_final_kept():
    """State 2 is final only at weight +inf, so it is not final, and no path from it ends."""
    fst = WeightedFst.from_text("0 1 1 1 0.0\n0 2 2 2 0.0\n1 0.5\n2 inf\n")
    out = connect(fst)
    assert out.to_text() == "0 1 1 1 0.000000\n1 0.500000\n"
    assert out.num_states() == 2


class TestCsrArcs:
    BASE_ARCS = [(0, 2, 1, 0.5, 1), (0, 0, 2, 1.5, 2), (0, 1, 0, 0.0, 1), (2, 3, 3, 2.0, 0)]

    def _fst(self, *more_arcs, arcs=BASE_ARCS):
        isym, osym = symbol_tables()
        fst = FstBuilder(isym, osym)
        fst.add_states(3)
        fst.set_start(0)
        for arc in (*arcs, *more_arcs):
            fst.add_arc(*arc)
        fst.set_final(1, 0.25)
        return fst.fst()

    def test_csr_holds_every_arc_in_arc_order(self):
        fst = self._fst()
        assert fst.offsets.tolist() == [0, 3, 3, 4]
        assert fst.ilabel.tolist() == [2, 0, 1, 3]
        assert fst.olabel.tolist() == [1, 2, 0, 3]
        assert fst.weight.tolist() == [0.5, 1.5, 0.0, 2.0]
        assert fst.nextstate.tolist() == [1, 2, 1, 0]
        assert fst.max_ilabel == 3
        offsets, paths = fst.closure
        assert offsets.tolist() == [0, 1, 1, 1]
        assert paths.tolist() == [[1]]
        with pytest.raises(ValueError):
            fst.weight[0] = 9.0

    def test_emitting_view_leaves_out_label0_and_inf_arcs(self):
        fst = self._fst((0, 1, 1, math.inf, 2), (1, 0, 0, math.inf, 2))
        view = fst.emitting
        assert view.offsets.tolist() == [0, 2, 2, 3]
        assert view.arcs.tolist() == [[1, 1, 0], [1, 0, 2], [1, 0, 3]]  # nextstate, ilabel - 1, olabel
        assert view.weight.tolist() == [0.5, 0.0, 2.0]
        assert view.on_label0.tolist() == [True, False, True]  # state 1's label-0 arc weighs +inf
        offsets, paths = fst.closure
        assert (offsets.tolist(), paths.tolist()) == ([0, 1, 1, 1], [[1]])
        assert fst.emitting is view
        with pytest.raises(ValueError):
            view.arcs[0, 0] = 9

    # `sort_arcs` is the one change a machine takes.
    @pytest.mark.parametrize("change", [lambda f: f.sort_arcs()], ids=["sort_arcs"])
    def test_every_arc_change_drops_the_cache(self, change):
        fst = self._fst()
        emitting, closure = fst.emitting, fst.closure
        change(fst)
        assert fst.emitting is not emitting and fst.closure is not closure
        # the same machine built with each state's arcs in (ilabel, olabel, nextstate, weight) order
        twin = self._fst(arcs=[(0, 0, 2, 1.5, 2), (0, 1, 0, 0.0, 1), (0, 2, 1, 0.5, 1), (2, 3, 3, 2.0, 0)])
        for name in ("offsets", "ilabel", "olabel", "weight", "nextstate"):
            assert getattr(fst, name).tolist() == getattr(twin, name).tolist(), name
        for mine, theirs in zip((*fst.closure, *fst.emitting), (*twin.closure, *twin.emitting)):
            assert mine.tolist() == theirs.tolist()


class TestLabel0Closure:
    @staticmethod
    def _fst(n, arcs):
        fst = FstBuilder()
        fst.add_states(n)
        fst.set_start(0)
        for arc in arcs:
            fst.add_arc(*arc)
        return fst.fst()

    def test_paths_shorter_first_then_in_arc_order(self):
        # Label-0 arcs 0, 2, 3 and 4; arc 1 emits and is no part of any path.
        fst = self._fst(4, [(0, 0, 0, 1.0, 1), (0, 1, 0, 0.0, 2), (0, 0, 0, 0.5, 2), (1, 0, 0, 0.0, 3), (2, 0, 0, 0.0, 3)])
        offsets, paths = fst.closure
        assert offsets.tolist() == [0, 4, 5, 6, 6]
        assert paths.tolist() == [[0, -1], [2, -1], [0, 3], [2, 4], [3, -1], [4, -1]]
        with pytest.raises(ValueError):
            paths[0, 0] = 9

    def test_no_label0_arc_gives_no_path(self):
        offsets, paths = self._fst(2, [(0, 1, 0, 0.0, 1)]).closure
        assert offsets.tolist() == [0, 0, 0]
        assert len(paths) == 0

    @pytest.mark.parametrize(
        "arcs",
        [
            [(0, 0, 0, 1.0, 1), (1, 0, 0, 1.0, 0)],  # a cycle whose weights do not improve
            [(0, 0, 0, 0.0, 1), (1, 0, 0, 0.0, 1)],  # a zero-weight self-loop
            [(0, 1, 1, 0.0, 1), (1, 0, 2, 0.5, 2), (2, 0, 0, -1.0, 1)],  # an improving one, behind an emitting arc
        ],
        ids=["non-improving", "self-loop", "improving"],
    )
    def test_any_label0_cycle_is_refused(self, arcs):
        with pytest.raises(ConfigurationError, match="label-0 cycle"):
            self._fst(3, arcs).closure

    def test_path_count_is_bounded_by_states_times_label0_arcs(self):
        # A 40-state ladder with two parallel label-0 arcs per step has about
        # 2^39 paths from its first state.
        arcs = [(k, 0, 0, weight, k + 1) for k in range(39) for weight in (0.0, 1.0)]
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match=r"more than 3120 label-0 paths"):
            self._fst(40, arcs).closure
        assert time.perf_counter() - start < 0.5


def _sort_key(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    """A sort key of `n` rows, of one of the kinds `_lexsort` treats apart."""
    if kind == "tied":  # few values, so every key ties
        return rng.integers(0, 3, n)
    if kind == "int32":
        return rng.integers(0, 4, n).astype(np.int32)
    if kind == "negative":  # not folded
        return rng.integers(-3, 3, n)
    if kind == "float":
        return rng.choice([-0.0, 0.0, math.inf, 0.5, math.nan], n)
    # spans of 2**31 and 2**31 - 1: two of the first multiply to 2**62 exactly,
    # which the bound refuses; wide keys pass 2**62 by far, and huge ones alone
    span = {"2**31": 1 << 31, "2**31-1": (1 << 31) - 1, "wide": 1 << 40, "huge": (1 << 62) + 5}[kind]
    key = rng.integers(0, 2, n) * (span - 1)
    key[:1] = span - 1  # the key's span is exactly `span`
    return key


class TestLexsort:
    """`_lexsort` folds integer keys >= 0 into one and sorts it alone unless it
    ties; it must give `np.lexsort`'s stable order exactly."""

    KINDS = ["tied", "int32", "negative", "float", "2**31", "2**31-1", "wide", "huge"]

    @pytest.mark.parametrize("n", [0, 1, 2, 40])
    def test_equals_numpy_lexsort(self, n):
        rng = np.random.default_rng(33 + n)
        for _ in range(300):
            keys = [_sort_key(rng, rng.choice(self.KINDS), n) for _ in range(rng.integers(1, 6))]
            got, want = fstlib._lexsort(keys), np.lexsort(keys[::-1])
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), [k.tolist() for k in keys]

    @pytest.mark.parametrize(
        "first,want",
        [([0.0, -0.0, 0.0, -0.0], [3, 2, 1, 0]), ([math.nan, 1.0, math.nan, 2.0], [1, 3, 2, 0])],
        ids=["signed zeros", "NaNs"],
    )
    def test_float_values_tie_as_in_numpy(self, first, want):
        keys = [np.array(first), np.array([3, 2, 1, 0])]
        assert fstlib._lexsort(keys).tolist() == np.lexsort(keys[::-1]).tolist() == want
