"""The WFST search against the reference trace-carrying search.

`WfstBeamDecoder` searches each frame as array code over the graph's
frozen arcs and keeps unit and word backpointers as int arrays.
`oracles.ReferenceWfstBeamDecoder` is the per-token Python search it
replaced: it keeps a full `TraceStep` chain per token, builds tokens
separately for emitting and label-0 arcs and enumerates every label-0
path. Both settle exact cost ties by the same rule, read from the
tokens. Over seeded random TLGs, hand-made graphs and posteriors their
n-best text must be byte-identical.
"""

import random

import numpy as np
import pytest

from ctcdec.context import BiasingPhrase, ContextGraph
from ctcdec.decode import WfstBeamDecoder
from ctcdec.errors import ConfigurationError
from ctcdec.fst import WeightedFst
from ctcdec.symbols import SymbolTable

from conftest import TRIGRAM_ARPA, graph_from_text, random_bigram_arpa, random_chunks, random_lexicon
from oracles import FstBuilder, ReferenceWfstBeamDecoder, arcs_of

PRUNING = (
    dict(score_beam=1e9, max_active=10**6),  # off
    dict(),  # the defaults
    dict(max_active=2),
    dict(score_beam=2.0),
)
SCALES = (
    dict(),
    dict(acoustic_scale=0.7, lm_scale=1.6, word_penalty=0.5),
    dict(acoustic_scale=1.3, lm_scale=0.0, word_penalty=-1.25),
)


def _random_graph(rng: random.Random):
    units = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    lexicon = random_lexicon(rng, units)
    words = [line.split()[0] for line in lexicon.splitlines()]
    return graph_from_text(lexicon, random_bigram_arpa(rng, words), units)["TLG"]


def _random_wfst(rng: random.Random, max_states: int = 6, max_arcs: int = 4, label0: float = 0.3) -> WeightedFst:
    """A hand-made graph of 2 to `max_states` states, each with 1 to
    `max_arcs` arcs, whose label-0 arcs may emit words.

    The built TLGs above carry every word on an emitting arc, so only
    graphs like these reach the word branch of label-0 arcs. An arc from
    any state but the last has label 0 with probability `label0`. Label-0
    arcs run only to higher states, so there is no label-0 cycle. Weights
    come from a short list and some graphs have no final state, so equal
    costs and the no-final fallback both come up.
    """
    width = rng.randint(2, 4)
    n_words = rng.randint(1, 4)
    graph = FstBuilder(
        SymbolTable.with_epsilon([f"t{i}" for i in range(width)]),
        SymbolTable.with_epsilon([f"w{i}" for i in range(1, n_words + 1)]),
    )
    n = rng.randint(2, max_states)
    graph.add_states(n)
    graph.set_start(0)
    for src in range(n):
        for _ in range(rng.randint(1, max_arcs)):
            olabel = rng.randint(1, n_words) if rng.random() < 0.4 else 0
            weight = rng.choice((0.0, 0.5, 1.0, 2.5))
            if src < n - 1 and rng.random() < label0:
                graph.add_arc(src, 0, olabel, weight, rng.randrange(src + 1, n))
            else:
                graph.add_arc(src, rng.randint(1, width), olabel, weight, rng.randrange(n))
    for state in rng.sample(range(n), rng.randint(0, 2)):
        graph.set_final(state, rng.choice((0.0, 1.0)))
    return graph.fst()


def _random_logprobs(rng: random.Random, frames: int, width: int) -> np.ndarray:
    """Normalized rows with about 20% zero-probability entries.

    Probabilities are multiples of 1/8 about half the time, so equal
    scores come up often. Half the rows favour the blank, so blank-frame
    skipping has frames to drop.
    """
    rows = []
    for _ in range(frames):
        coarse = rng.random() < 0.5
        weights = [rng.randint(1, 8) if coarse else rng.random() + 1e-3 for _ in range(width)]
        if rng.random() < 0.5:
            weights[0] *= 40
        for u in range(width):
            if rng.random() < 0.2:
                weights[u] = 0.0
        if not any(weights):
            weights[rng.randrange(width)] = 1.0
        total = sum(weights)
        rows.append([w / total for w in weights])
    with np.errstate(divide="ignore"):
        return np.log(np.array(rows, dtype=np.float64).reshape(frames, width))


def _word_context(rng: random.Random, graph) -> ContextGraph:
    n_words = len(graph.osymbols) - 1
    phrases = [
        BiasingPhrase(f"p{i}", tuple(rng.randint(1, n_words) for _ in range(rng.randint(1, 2))))
        for i in range(rng.randint(1, 3))
    ]
    return ContextGraph(phrases, boost=rng.choice((0.5, 2.0)))


def _both(graph, logprobs, chunks, **kwargs):
    fast = WfstBeamDecoder(graph, **kwargs)
    for chunk in chunks:
        fast.advance(chunk)
    ref = ReferenceWfstBeamDecoder(graph, **kwargs)
    ref.advance(logprobs)
    return fast.finalize().to_text(), ref.finalize().to_text()


def _check_graph(rng: random.Random, graph, draws: int) -> None:
    width = max(arc.ilabel for s in range(graph.num_states()) for arc in arcs_of(graph, s))
    for _ in range(draws):
        logprobs = _random_logprobs(rng, rng.randint(0, 7), width)
        chunks = random_chunks(rng, logprobs)
        skip = rng.choice((None, 0.98, 0.9, 0.5))
        context = _word_context(rng, graph) if rng.random() < 0.5 else None
        for pruning in PRUNING:
            for nbest in (1, 5, 10):
                opts = dict(
                    **pruning, **rng.choice(SCALES),
                    nbest=nbest, blank_skip_threshold=skip, context=context,
                )
                fast, ref = _both(graph, logprobs, chunks, **opts)
                assert fast == ref, (opts, logprobs.tolist())


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_byte_identical(seed):
    rng = random.Random(seed)
    for _ in range(4):
        _check_graph(rng, _random_graph(rng), draws=6)


@pytest.mark.parametrize("seed", range(4))
def test_hand_made_graphs_byte_identical(seed):
    rng = random.Random(1000 + seed)
    for _ in range(8):
        _check_graph(rng, _random_wfst(rng), draws=4)


def test_toy_graph_byte_identical():
    _check_graph(random.Random(99), graph_from_text()["TLG"], draws=40)


def test_long_posteriors_on_toy_graph():
    """Longer streams, where pruning and word recombination bite."""
    graph = graph_from_text()["TLG"]
    rng = random.Random(5)
    for _ in range(6):
        logprobs = _random_logprobs(rng, 30, 4)
        for pruning in PRUNING:
            fast, ref = _both(graph, logprobs, random_chunks(rng, logprobs), nbest=10, blank_skip_threshold=None, **pruning)
            assert fast == ref


TWO_HOP_OPTIONS = (dict(), dict(max_active=2, score_beam=2.0, lm_scale=0.0))


def _trigram_graph() -> WeightedFst:
    return graph_from_text("a x\nb y\nc z\n", TRIGRAM_ARPA, ["x", "y", "z"])["TLG"]


def _two_hop_draws():
    """150 seeded posteriors of 1-11 frames over the trigram graph's 4 columns, each with its chunks."""
    rng = random.Random(18)
    for _ in range(150):
        logprobs = _random_logprobs(rng, rng.randint(1, 11), 4)
        yield logprobs, random_chunks(rng, logprobs)


def test_two_hop_label0_paths_of_a_built_trigram_graph():
    """The trigram LM's backoff chains give the TLG label-0 paths of two
    arcs, so a built graph, not only a hand-made one, runs them. Draw 44
    at the second options has two best hypotheses that tie exactly over
    such paths."""
    graph = _trigram_graph()
    paths = graph.closure[1]
    assert (graph.num_states(), int((graph.ilabel == 0).sum()), paths.shape) == (45, 16, (22, 2))
    assert (paths[:, 1] >= 0).sum() == 6
    for i, (logprobs, chunks) in enumerate(_two_hop_draws()):
        for opts in TWO_HOP_OPTIONS:
            fast, ref = _both(graph, logprobs, chunks, nbest=5, blank_skip_threshold=None, **opts)
            assert fast == ref, (i, opts, logprobs.tolist())


def test_dense_label0_graphs_byte_identical():
    """200 hand-made graphs of up to 8 states, each with 30-70% of its
    arcs label 0, so label-0 paths of several hops meet at one key with
    equal costs, where only the tie rule decides which path is kept. Half
    have a word context. The closure's bound on the number of label-0
    paths refuses a few of these acyclic graphs; they are skipped."""
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        graph = _random_wfst(rng, max_states=8, max_arcs=5, label0=rng.uniform(0.3, 0.7))
        try:
            graph.closure
        except ConfigurationError as err:
            assert "label-0 paths" in str(err)
            continue
        logprobs = _random_logprobs(rng, rng.randint(1, 7), graph.max_ilabel)
        chunks = random_chunks(rng, logprobs)
        context = _word_context(rng, graph) if seed % 2 else None
        for pruning in PRUNING:
            fast, ref = _both(graph, logprobs, chunks, nbest=5, blank_skip_threshold=None, context=context, **pruning)
            assert fast == ref, (seed, pruning)
        checked += 1
    assert checked >= 180


def _word_graph(n_words: int, width: int = 2) -> FstBuilder:
    return FstBuilder(
        SymbolTable.with_epsilon([f"t{i}" for i in range(width)]),
        SymbolTable.with_epsilon([f"w{i}" for i in range(1, n_words + 1)]),
    )


def _check_fixed(graph, logprobs, expected_top_words=None, **kwargs):
    for pruning in PRUNING:
        opts = dict(pruning, nbest=10, blank_skip_threshold=None, **kwargs)
        fast, ref = _both(graph, logprobs, [logprobs], **opts)
        assert fast == ref, opts
    if expected_top_words is not None:
        best = WfstBeamDecoder(graph, blank_skip_threshold=None, **kwargs).decode(logprobs).best()
        assert best.words == expected_top_words


def test_equal_cost_arrivals_keep_the_first():
    """Tokens at states 1 (w2) and 2 (w1) cost the same after frame 1 and
    both reach state 3 on frame 2 at equal cost: the token at state 1 comes
    first in (cost, state) order, so w2 wins state 3."""
    graph = _word_graph(2)
    graph.add_states(4)
    graph.set_start(0)
    graph.add_arc(0, 2, 2, 0.5, 1)
    graph.add_arc(0, 2, 1, 0.5, 2)
    graph.add_arc(1, 1, 0, 0.25, 3)
    graph.add_arc(2, 1, 0, 0.25, 3)
    graph.set_final(3, 0.0)
    graph = graph.fst()
    logprobs = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
    _check_fixed(graph, logprobs, expected_top_words=("w2",))


def test_constructor_orders_its_tokens_by_cost_and_state():
    """The constructor does not prune, but it holds its tokens in (cost,
    state) order like every later frame: the start, then 2 before 3 at
    equal cost, although the label-0 arc to 3 comes first. So on frame 1
    the token at 2 (w1) is the first source of equal cost to reach state
    4."""
    graph = _word_graph(2)
    graph.add_states(5)
    graph.set_start(0)
    graph.add_arc(0, 0, 0, 1.0, 3)
    graph.add_arc(0, 0, 0, 1.0, 2)
    graph.add_arc(3, 2, 2, 0.0, 4)
    graph.add_arc(2, 2, 1, 0.0, 4)
    graph.set_final(4, 0.0)
    graph = graph.fst()
    logprobs = np.log(np.array([[0.5, 0.5]]))
    _check_fixed(graph, logprobs, expected_top_words=("w1",))


def test_constructor_orders_its_tokens_by_cost_and_state_when_a_key_repeats():
    """Two label-0 paths from the start reach state 3 and one reaches 2,
    so the constructor merges a repeated key, the cheaper path to 3
    winning. Its tokens are still held in (cost, state) order, so on frame
    1 the token at 2 (w1) is the first source of equal cost to reach
    state 4."""
    graph = _word_graph(2)
    graph.add_states(5)
    graph.set_start(0)
    graph.add_arc(0, 0, 0, 1.0, 3)
    graph.add_arc(0, 0, 0, 1.0, 2)
    graph.add_arc(0, 0, 0, 1.5, 3)
    graph.add_arc(3, 2, 2, 0.0, 4)
    graph.add_arc(2, 2, 1, 0.0, 4)
    graph.set_final(4, 0.0)
    graph = graph.fst()
    logprobs = np.log(np.array([[0.5, 0.5]]))
    _check_fixed(graph, logprobs, expected_top_words=("w1",))


def test_inf_weight_arcs_lie_on_no_path():
    """At lm_scale 0 an arc of weight +inf would cost inf * 0 = NaN. It is
    on no finite path, so it is not searched, whether it emits (w1 into
    state 1) or has label 0 (w1 into state 3), and w2 wins with two blank
    frames' log-probability."""
    inf = float("inf")
    graph = _word_graph(2)
    graph.add_states(4)
    graph.set_start(0)
    graph.add_arc(0, 1, 1, inf, 1)
    graph.add_arc(0, 1, 2, 0.5, 1)
    graph.add_arc(1, 0, 1, inf, 3)
    graph.add_arc(1, 0, 0, 0.0, 3)
    graph.add_arc(3, 1, 0, 0.0, 3)
    graph.set_final(3, 0.0)
    graph = graph.fst()
    logprobs = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
    for lm_scale, total, lm in ((0.0, "-1.386294", "0.000000"), (1.0, "-1.886294", "-0.500000")):
        _check_fixed(graph, logprobs, expected_top_words=("w2",), lm_scale=lm_scale)
        text = WfstBeamDecoder(graph, lm_scale=lm_scale, blank_skip_threshold=None).decode(logprobs).to_text()
        assert text.split() == ["1", total, "-1.386294", "0.000000", lm, "w2"]


@pytest.mark.parametrize("seed", range(3))
def test_hand_made_graphs_with_inf_arcs_byte_identical(seed):
    """The hand-made graphs above, with copies of some arcs at weight +inf."""
    rng = random.Random(2000 + seed)
    for _ in range(6):
        graph = _random_wfst(rng)
        builder = FstBuilder.of(graph)
        for state in range(graph.num_states()):
            for arc in arcs_of(graph, state):
                if rng.random() < 0.4:
                    builder.add_arc(state, arc.ilabel, rng.choice((0, arc.olabel)), float("inf"), arc.nextstate)
        _check_graph(rng, builder.fst(), draws=4)


@pytest.mark.parametrize("max_active", [1, 2, 3, 4])
def test_max_active_cut_inside_a_run_of_equal_costs(max_active):
    """Five tokens tie after frame 1; the cut keeps the lowest states, and
    each state's word shows which ones survived."""
    graph = _word_graph(5)
    graph.add_states(11)
    graph.set_start(0)
    for state in (5, 3, 1, 4, 2):
        graph.add_arc(0, 2, 0, 0.5, state)
        graph.add_arc(state, 1, state, 0.0, state + 5)
        graph.set_final(state + 5, 0.0)
    graph = graph.fst()
    logprobs = np.log(np.array([[0.5, 0.5], [0.5, 0.5]]))
    for kwargs in (dict(max_active=max_active), dict(max_active=max_active, score_beam=1.0)):
        fast, ref = _both(graph, logprobs, [logprobs[:1], logprobs[1:]], nbest=10, blank_skip_threshold=None, **kwargs)
        assert fast == ref
        words = [line.split("\t")[2] for line in fast.splitlines()]
        assert words == [f"w{s}" for s in range(1, max_active + 1)]


@pytest.mark.parametrize("with_context", [False, True])
def test_long_stream_on_a_random_graph(with_context):
    """A 240-frame stream in random chunks over a seeded random TLG."""
    rng = random.Random(77)
    graph = _random_graph(rng)
    width = max(arc.ilabel for s in range(graph.num_states()) for arc in arcs_of(graph, s))
    logprobs = _random_logprobs(rng, 240, width)
    context = _word_context(rng, graph) if with_context else None
    for pruning in (dict(), dict(max_active=3), dict(score_beam=4.0)):
        fast, ref = _both(graph, logprobs, random_chunks(rng, logprobs), nbest=10, context=context, **pruning)
        assert fast == ref, pruning
