"""The FST algorithms over CSR arc columns against their list-of-Arc references.

Each engine result must print, through `to_text`, the same bytes as the
reference algorithm's result printed by the reference printer, and have
the same state count and start state. Inputs are seeded random machines
(with cycles, dead states, epsilons, +inf and -0.0 weights), pairs large
enough that `compose` expands its states over several array passes,
`build_TLG` over seeded random lexicons and bigram ARPA files, and the
golden TLG.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from ctcdec.errors import PreconditionError, ResourceError
from ctcdec import fst as fstlib
from ctcdec.fst import WeightedFst, compose, connect, determinize, minimize, relabel_ilabels
from ctcdec.graph import read_units, units_of
from ctcdec.symbols import SymbolTable

from conftest import graph_from_text, random_acyclic_fst, random_bigram_arpa, random_lexicon, symbol_tables
from oracles import (
    FstBuilder,
    arcs_of,
    finals_of,
    reference_build_TLG,
    reference_compose,
    reference_connect,
    reference_determinize,
    reference_minimize,
    reference_relabel_ilabels,
    reference_sorted,
    reference_to_text,
)

DATA = Path(__file__).parent / "data"
CASES = 80


def _random_fst(rng, isymbols, osymbols, max_states=7):
    """Arcs in any direction, so cycles, unreachable and dead states come up."""
    fst = FstBuilder(isymbols.copy(), osymbols.copy())
    n = rng.randint(1, max_states)
    fst.add_states(n)
    fst.set_start(rng.randrange(n))
    for _ in range(rng.randint(0, 3 * n)):
        il = rng.randint(0, len(isymbols) - 1) if rng.random() < 0.8 else 0
        ol = rng.randint(0, len(osymbols) - 1) if rng.random() < 0.8 else 0
        weight = rng.choice((0.0, -0.0, 0.5, 1.25, 3.0, float("inf"), round(rng.uniform(-1.0, 4.0), 3)))
        fst.add_arc(rng.randrange(n), il, ol, weight, rng.randrange(n))
    for state in rng.sample(range(n), rng.randint(0, n)):
        fst.set_final(state, rng.choice((0.0, 0.5, float("inf"))))
    return fst.fst()


def _large_fst(rng, isymbols, osymbols):
    """20-40 states of 1-4 arcs each from start 0, epsilons on both tapes.

    Composing two gives hundreds of states, more than one `compose`
    expansion holds, and arcs in every filter state.
    """
    fst = FstBuilder(isymbols.copy(), osymbols.copy())
    n = rng.randint(20, 40)
    fst.add_states(n)
    fst.set_start(0)
    for src in range(n):
        for _ in range(rng.randint(1, 4)):
            il = rng.randint(1, len(isymbols) - 1) if rng.random() < 0.75 else 0
            ol = rng.randint(1, len(osymbols) - 1) if rng.random() < 0.75 else 0
            weight = rng.choice((0.0, -0.0, 0.5, 1.25, float("inf"), round(rng.uniform(-1.0, 4.0), 3)))
            fst.add_arc(src, il, ol, weight, rng.randrange(n))
    for state in rng.sample(range(n), rng.randint(1, n // 4)):
        fst.set_final(state, rng.choice((0.0, -0.0, 0.5, float("inf"))))
    return fst.fst()


def _random_deterministic(rng, isymbols, max_states=6):
    """A deterministic machine of two copies of one random machine.

    Each arc of either copy targets the same state in one of the two
    copies, so state s and its twin have the same suffix language and
    minimization has states to merge; a few twins are perturbed.
    """
    n = rng.randint(1, max_states)
    fst = FstBuilder(isymbols.copy(), isymbols.copy())
    fst.add_states(2 * n)
    fst.set_start(0)
    labels = [(il, ol) for il in range(len(isymbols)) for ol in range(2)]
    for src in range(n):
        final = rng.choice((None, 0.0, 1.0))
        for il, ol in rng.sample(labels, rng.randint(0, 3)):
            weight, dst = rng.choice((0.0, 1.0)), rng.randrange(n)
            for copy in (src, src + n):
                fst.add_arc(copy, il, ol, weight, dst + n * rng.randint(0, 1))
        for copy in (src, src + n):
            if final is not None:
                fst.set_final(copy, final if rng.random() < 0.9 else final + 0.5)
    return fst.fst()


def _backoff_fst(rng, isymbols, max_states=6):
    """An n-gram-shaped acceptor over the weights 0.0, -0.0, 1.0 and +inf.

    Every state but 0 has a (0:0) backoff arc to a lower state, and word
    arcs run to any state, so backoff loops and longer cycles come up,
    with exact ties and signed zeros. Some machines cannot be
    determinized.
    """
    weights = (0.0, -0.0, 1.0, float("inf"))
    fst = FstBuilder(isymbols.copy(), isymbols.copy())
    n = rng.randint(2, max_states)
    fst.add_states(n)
    fst.set_start(rng.randrange(n))
    for src in range(n):
        if src:
            fst.add_arc(src, 0, 0, rng.choice(weights), rng.randrange(src))
        for _ in range(rng.randint(0, 3)):
            word = rng.randint(1, len(isymbols) - 1)
            fst.add_arc(src, word, word, rng.choice(weights), rng.randrange(n))
    for state in rng.sample(range(n), rng.randint(1, n)):
        fst.set_final(state, rng.choice(weights))
    return fst.fst()


def _assert_same(got, want):
    assert (got.num_states(), got.start) == (want.num_states(), want.start)
    assert got.to_text() == reference_to_text(want)


def _weights(fst):
    """Each state's arc weights and the final weights, as `str` prints them, so -0.0 is not 0.0."""
    arcs = [[str(arc.weight) for arc in arcs_of(fst, state)] for state in range(fst.num_states())]
    return arcs, {state: str(weight) for state, weight in finals_of(fst).items()}


def _assert_same_weights(got, want):
    """`_assert_same`, and every weight is the same float, the sign of a zero included."""
    _assert_same(got, want)
    assert _weights(got) == _weights(want)


def _assert_same_and_sorted(got, want):
    """`_assert_same`, and `got`'s arcs are built in `sort_arcs` order already."""
    _assert_same(got, want)
    assert np.array_equal(got.sorted_order(), np.arange(got.num_arcs()))


@pytest.mark.parametrize("seed", range(3))
def test_to_text_and_sort_arcs(seed):
    rng = random.Random(seed)
    isym, osym = symbol_tables()
    for _ in range(CASES):
        fst = _random_fst(rng, isym, osym)
        assert fst.to_text() == reference_to_text(fst)
        want = reference_sorted(fst)
        fst.sort_arcs()
        assert [arcs_of(fst, s) for s in range(fst.num_states())] == [arcs_of(want, s) for s in range(want.num_states())]
        assert fst.to_text() == reference_to_text(fst)  # arcs in order already


@pytest.mark.parametrize("seed", range(3))
def test_connect(seed):
    rng = random.Random(100 + seed)
    isym, osym = symbol_tables()
    for _ in range(CASES):
        fst = _random_fst(rng, isym, osym)
        got, want = connect(fst), reference_connect(fst)
        _assert_same(got, want)
        assert [arcs_of(got, s) for s in range(got.num_states())] == [arcs_of(want, s) for s in range(want.num_states())]


@pytest.mark.parametrize("seed", range(3))
def test_compose(seed):
    rng = random.Random(200 + seed)
    isym, mid = symbol_tables(3, 2)
    third = SymbolTable.with_epsilon(["z1", "z2"])
    for _ in range(CASES):
        make = _random_fst if rng.random() < 0.5 else random_acyclic_fst
        a, b = make(rng, isym, mid), make(rng, mid, third)
        _assert_same_and_sorted(compose(a, b), reference_compose(a, b))


@pytest.mark.parametrize("seed", range(3))
def test_compose_trims_keys_that_reach_no_final(seed):
    """Pairs whose composed states all reach a final one, and pairs where
    some do not. With every state of both inputs final no state is
    trimmed, so that composition counts the states reached."""
    rng = random.Random(270 + seed)
    isym, mid = symbol_tables(3, 2)
    third = SymbolTable.with_epsilon(["z1", "z2"])
    trimmed = []
    for _ in range(CASES):
        a, b = _random_fst(rng, isym, mid), _random_fst(rng, mid, third)
        got = compose(a, b)
        _assert_same_and_sorted(got, reference_compose(a, b))
        every = []
        for fst in (a, b):
            builder = FstBuilder.of(fst)
            for state in range(fst.num_states()):
                builder.set_final(state, 0.0)
            every.append(builder.fst())
        reached = compose(*every)
        _assert_same_and_sorted(reached, reference_compose(*every))
        trimmed.append(got.num_states() < reached.num_states())
    assert any(trimmed) and not all(trimmed)


def test_compose_trims_a_key_whose_inputs_both_reach_a_final():
    """States 1 of a and of b each reach a final state, but over labels 2
    and 3, so the composed state (1, 1) reaches none and is dropped."""
    isym, _ = symbol_tables(3, 3)
    a, b = FstBuilder(isym.copy(), isym.copy()), FstBuilder(isym.copy(), isym.copy())
    for fst, second in ((a, 2), (b, 3)):
        fst.add_states(3)
        fst.set_start(0)
        fst.add_arc(0, 1, 1, 0.5, 1)
        fst.add_arc(1, second, second, 0.0, 2)
        fst.add_arc(0, 2, 2, -0.0, 2)
        fst.set_final(2)
    a, b = a.fst(), b.fst()
    got = compose(a, b)
    _assert_same_and_sorted(got, reference_compose(a, b))
    assert got.to_text() == "0 1 2 2 0.000000\n1 0.000000\n"


@pytest.mark.parametrize("seed", range(3))
def test_compose_large(seed):
    rng = random.Random(250 + seed)
    isym, mid = symbol_tables(3, 2)
    third = SymbolTable.with_epsilon(["z1", "z2"])
    sizes = []
    for _ in range(12):
        a, b = _large_fst(rng, isym, mid), _large_fst(rng, mid, third)
        got = compose(a, b)
        _assert_same_and_sorted(got, reference_compose(a, b))
        sizes.append(got.num_states())
    assert max(sizes) > 2 * fstlib._EXPAND_KEYS  # the connected result alone spans three expansions


@pytest.mark.parametrize("keys", [1, 2, 7])
def test_compose_does_not_depend_on_expansion_size(monkeypatch, keys):
    rng = random.Random(260 + keys)
    isym, mid = symbol_tables(3, 2)
    third = SymbolTable.with_epsilon(["z1", "z2"])
    monkeypatch.setattr(fstlib, "_EXPAND_KEYS", keys)
    for _ in range(CASES):
        make = _random_fst if rng.random() < 0.5 else random_acyclic_fst
        a, b = make(rng, isym, mid), make(rng, mid, third)
        _assert_same_and_sorted(compose(a, b), reference_compose(a, b))
    a, b = _large_fst(rng, isym, mid), _large_fst(rng, mid, third)
    _assert_same_and_sorted(compose(a, b), reference_compose(a, b))


def test_compose_numbers_states_in_stack_order():
    """A stack pops state 2 before state 1, so 2's successor is numbered before 1's.

    a: 0 -1-> 1 -1-> 3 and 0 -2-> 2 -2-> 4; b accepts any string. Breadth-first
    numbering would give 1's successor 3 and 2's successor 4.
    """
    isym, _ = symbol_tables(2, 2)
    a = FstBuilder(isym.copy(), isym.copy())
    a.add_states(5)
    a.set_start(0)
    for src, label, dst in ((0, 1, 1), (0, 2, 2), (1, 1, 3), (2, 2, 4)):
        a.add_arc(src, label, label, 0.0, dst)
    a.set_final(3)
    a.set_final(4)
    a = a.fst()
    b = FstBuilder(isym.copy(), isym.copy())
    b.add_state()
    b.set_start(0)
    b.add_arc(0, 1, 1, 0.0, 0)
    b.add_arc(0, 2, 2, 0.5, 0)
    b.set_final(0)
    b = b.fst()
    want = (
        "0 1 1 1 0.000000\n0 2 2 2 0.500000\n1 4 1 1 0.000000\n2 3 2 2 0.500000\n"
        "3 0.000000\n4 0.000000\n"
    )
    assert compose(a, b).to_text() == reference_to_text(reference_compose(a, b)) == want


def test_sort_arcs_orders_weight_ties_stably_at_any_label_width():
    """Arcs equal but for the weight sort by weight, stably, with labels of 1 or 2**62."""
    isym, osym = symbol_tables()
    for big in (1, 2**62):
        fst = FstBuilder(isym.copy(), osym.copy())
        fst.add_states(3)
        fst.set_start(0)
        for src, il, ol, weight, dst in (
            (1, big, 1, 2.0, 2), (0, 1, big, 0.5, 1), (1, big, 1, -0.0, 2), (1, big, 1, 0.0, 2),
            (0, 1, big, float("inf"), 1), (1, 0, 1, 3.0, 0), (0, 1, big, 0.5, 0), (1, big, 1, 1.0, 2),
            (2, big, 1, 0.0, 1), (2, 1, big, 0.0, 1),
        ):
            fst.add_arc(src, il, ol, weight, dst)
        fst = fst.fst()
        assert fst.to_text() == reference_to_text(fst)
        want = reference_sorted(fst)
        fst.sort_arcs()
        assert [arcs_of(fst, s) for s in range(fst.num_states())] == [arcs_of(want, s) for s in range(want.num_states())]
        assert [str(arc.weight) for arc in arcs_of(fst, 1)] == ["3.0", "-0.0", "0.0", "1.0", "2.0"]


@pytest.mark.parametrize("seed", range(3))
def test_determinize(seed):
    rng = random.Random(300 + seed)
    isym, _ = symbol_tables()
    for _ in range(CASES):
        fst = random_acyclic_fst(rng, isym, isym, max_states=8, eps_prob=0.3)
        _assert_same(determinize(fst), reference_determinize(fst))


@pytest.mark.parametrize("keys", [1, 3, 256])
def test_determinize_cyclic_with_signed_zeros(monkeypatch, keys):
    """Backoff-shaped cyclic machines, with exact ties and signed zeros, at
    several expansion sizes; two words make cycles on one word common.
    Where the reference exceeds the budget, so does `determinize`, with
    the same message; where it does not, a budget of its state count is
    enough and one less is not."""
    monkeypatch.setattr(fstlib, "_EXPAND_KEYS", keys)
    rng = random.Random(320)
    isym, _ = symbol_tables(2)
    outcomes = []
    for _ in range(2 * CASES):
        fst = _backoff_fst(rng, isym)
        try:
            want = reference_determinize(fst, state_budget=40)
        except ResourceError as error:
            with pytest.raises(ResourceError) as raised:
                determinize(fst, state_budget=40)
            assert str(raised.value) == str(error)
            outcomes.append("raised")
            continue
        _assert_same_weights(determinize(fst, state_budget=40), want)
        _assert_same(determinize(fst, state_budget=want.num_states()), want)
        if want.num_states() > 1:
            with pytest.raises(ResourceError, match=f"budget of {want.num_states() - 1} states"):
                determinize(fst, state_budget=want.num_states() - 1)
        outcomes.append("built")
    assert 0 < outcomes.count("raised") < len(outcomes)


def test_determinize_numbers_subsets_in_stack_order():
    """Subsets {1} and {2} are found in that order, but a stack expands {2}
    first, so its successors {3, 4} and {7} are numbered before {1}'s {6}.
    In the order they are found, {6} would come before {7}. The -0.0 arc
    weights cost 0.0 + -0.0 = 0.0, so no weight of the result is -0.0."""
    isym, _ = symbol_tables(5, 5)
    fst = FstBuilder(isym.copy(), isym.copy())
    fst.add_states(8)
    fst.set_start(0)
    for src, label, weight, dst in (
        (0, 1, 0.0, 1), (0, 2, 0.0, 2),
        (1, 3, 0.0, 3), (1, 3, -0.0, 4), (1, 5, 1.0, 6),
        (2, 3, 0.0, 3), (2, 3, 0.0, 4), (2, 5, 1.0, 7),
        (4, 4, -0.0, 5),
    ):
        fst.add_arc(src, label, label, weight, dst)
    for state, weight in ((5, 0.0), (6, 0.0), (7, 1.0)):
        fst.set_final(state, weight)
    fst = fst.fst()
    got = determinize(fst)
    _assert_same_weights(got, reference_determinize(fst))
    assert got.to_text() == (
        "0 1 1 1 0.000000\n0 2 2 2 0.000000\n1 3 3 3 0.000000\n1 6 5 5 1.000000\n"
        "2 3 3 3 0.000000\n2 4 5 5 1.000000\n3 5 4 4 0.000000\n4 1.000000\n5 0.000000\n6 0.000000\n"
    )
    assert [str(arc.weight) for arc in arcs_of(got, 3)] == ["0.0"]


def test_determinize_raises_the_same_error_on_a_machine_without_the_twins_property():
    """Two "a" paths loop on "b" at costs 1 and 2, so the residual between them
    grows without end and no budget is enough."""
    isym, _ = symbol_tables()
    fst = FstBuilder(isym.copy(), isym.copy())
    fst.add_states(3)
    fst.set_start(0)
    for state, weight in ((1, 1.0), (2, 2.0)):
        fst.add_arc(0, 1, 1, 0.0, state)
        fst.add_arc(state, 2, 2, weight, state)
        fst.set_final(state, 0.0)
    fst = fst.fst()
    for run in (determinize, reference_determinize):
        with pytest.raises(ResourceError, match="^determinization exceeded its state budget of 1000 states$"):
            run(fst)


@pytest.mark.parametrize("seed", range(3))
def test_minimize(seed):
    rng = random.Random(400 + seed)
    isym, _ = symbol_tables()
    for _ in range(CASES):
        fst = _random_deterministic(rng, isym)
        _assert_same_and_sorted(minimize(fst), reference_minimize(fst))
        det = determinize(random_acyclic_fst(rng, isym, isym, max_states=8))
        _assert_same_and_sorted(minimize(det), reference_minimize(det))


def test_minimize_merges_states_whose_weights_differ_only_by_the_sign_of_zero():
    """States 1 and 2 differ only in -0.0 against 0.0, on an arc weight and
    on a final weight; 3 and 4 likewise. Equal weights merge, as they do
    for the reference's tuples, and each class keeps its first state's
    weights."""
    isym, _ = symbol_tables()
    fst = FstBuilder(isym.copy(), isym.copy())
    fst.add_states(5)
    fst.set_start(0)
    for src, il, weight, dst in ((0, 1, 0.0, 1), (0, 2, 0.0, 2), (1, 3, -0.0, 3), (2, 3, 0.0, 4)):
        fst.add_arc(src, il, il, weight, dst)
    for state, weight in ((1, -0.0), (2, 0.0), (3, 0.0), (4, -0.0)):
        fst.set_final(state, weight)
    fst = fst.fst()
    got = minimize(fst)
    _assert_same_and_sorted(got, reference_minimize(fst))
    assert got.num_states() == 3
    assert [str(arc.weight) for arc in arcs_of(got, 1)] == ["-0.0"]
    assert [str(got.final.tolist()[s]) for s in (1, 2)] == ["-0.0", "0.0"]


@pytest.mark.parametrize("seed", range(3))
def test_relabel_ilabels(seed):
    rng = random.Random(500 + seed)
    isym, osym = symbol_tables()
    for _ in range(CASES):
        fst = _random_fst(rng, isym, osym)
        mapping = {rng.randint(0, 4): rng.randint(0, 3) for _ in range(rng.randint(0, 3))}
        _assert_same(relabel_ilabels(fst, mapping), reference_relabel_ilabels(fst, mapping))


@pytest.mark.parametrize("seed", range(8))
def test_build_TLG_over_random_lexicon_and_bigram(seed):
    rng = random.Random(600 + seed)
    units = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    lexicon = random_lexicon(rng, units)
    words = [line.split()[0] for line in lexicon.splitlines()]
    machines = graph_from_text(lexicon, random_bigram_arpa(rng, words), units)
    _assert_same(machines["TLG"], reference_build_TLG(machines["T"], machines["L"], machines["G"]))


def test_golden_TLG():
    golden = (DATA / "golden" / "TLG.fst").read_text(encoding="utf-8")
    units = units_of(read_units(DATA / "units.txt"))
    lexicon, arpa = ((DATA / name).read_text(encoding="utf-8") for name in ("lexicon.txt", "lm.arpa"))
    t, l, g, tlg = graph_from_text(lexicon, arpa, units).values()
    assert tlg.to_text() == golden
    assert reference_to_text(reference_build_TLG(t, l, g)) == golden
    again = WeightedFst.from_text(golden, t.isymbols.copy(), g.osymbols.copy())
    assert again.to_text() == reference_to_text(again) == golden


def test_determinize_budget_raises_in_both():
    isym, _ = symbol_tables()
    fst = FstBuilder(isym.copy(), isym.copy())
    fst.add_states(4)
    fst.set_start(0)
    for dst in (1, 2, 3):
        fst.add_arc(0, 1, 1, float(dst), dst)
        fst.add_arc(dst, 2, 2, 0.0, dst)
        fst.set_final(dst, 0.0)
    fst = fst.fst()
    for run in (determinize, reference_determinize):
        with pytest.raises(ResourceError, match="budget of 1 states"):
            run(fst, state_budget=1)
    assert determinize(fst, state_budget=2).num_states() == 2


def test_minimize_rejects_nondeterministic_in_both():
    isym, _ = symbol_tables()
    fst = FstBuilder(isym.copy(), isym.copy())
    fst.add_states(3)
    fst.set_start(0)
    fst.add_arc(0, 1, 2, 0.0, 1)
    fst.add_arc(0, 1, 1, 0.0, 2)  # (1, 2) and (1, 1) differ: still deterministic
    fst.add_arc(2, 1, 2, 0.0, 1)
    fst.set_final(1)
    deterministic = fst.fst()
    assert minimize(deterministic).to_text() == reference_to_text(reference_minimize(deterministic))
    fst.add_arc(2, 1, 2, 1.0, 2)  # state 2 now has (1, 2) twice
    fst = fst.fst()
    for run in (minimize, reference_minimize):
        with pytest.raises(PreconditionError):
            run(fst)
