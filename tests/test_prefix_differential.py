"""The array-based prefix search against the reference pure-Python search.

`PrefixBeamDecoder` scores every (prefix, unit) extension as one array and
builds Python objects only for candidates at or above the beam-th best
score. `oracles.ReferencePrefixBeamDecoder` builds an object for every
extension and sorts them all. Their n-best text must be byte-identical.
"""

import random

import numpy as np
import pytest

from ctcdec.context import BiasingPhrase, ContextGraph
from ctcdec.decode import PrefixBeamDecoder

from oracles import ReferencePrefixBeamDecoder

NEG_INF = float("-inf")
BEAMS = ((1, 1), (3, 2), (8, 8))

# One graph for every case, whatever the posterior width: its delta rows
# are memoised per (node, width), and units 7 and 8 lie outside every row.
SHARED_CONTEXT = ContextGraph(
    [
        BiasingPhrase("ab", (1, 2)),
        BiasingPhrase("abc", (1, 2, 3)),
        BiasingPhrase("ba", (2, 1)),
        BiasingPhrase("cc", (3, 3)),
        BiasingPhrase("d", (4,)),
        BiasingPhrase("eaf", (5, 1, 6)),
        BiasingPhrase("gh", (7, 8)),
        BiasingPhrase("ag", (1, 7)),
    ],
    boost=1.5,
)


def _random_logprobs(rng: random.Random, frames: int, width: int) -> np.ndarray:
    """Normalized rows with about 20% zero-probability entries.

    Probabilities are multiples of 1/8 about half the time, so equal
    scores (and the prefix tie-break) come up often. A row may be all
    zeros but the blank, or have a zero blank.
    """
    rows = []
    for _ in range(frames):
        coarse = rng.random() < 0.5
        weights = [rng.randint(1, 8) if coarse else rng.random() + 1e-3 for _ in range(width)]
        for u in range(width):
            if rng.random() < 0.2:
                weights[u] = 0.0
        if not any(weights):
            weights[rng.randrange(width)] = 1.0
        total = sum(weights)
        rows.append([w / total for w in weights])
    with np.errstate(divide="ignore"):
        return np.log(np.array(rows, dtype=np.float64).reshape(frames, width))


def _chunks(rng: random.Random, logprobs: np.ndarray):
    cuts = sorted(rng.sample(range(1, len(logprobs)), rng.randint(0, len(logprobs) - 1))) if len(logprobs) > 1 else []
    bounds = [0, *cuts, len(logprobs)]
    return [logprobs[a:b] for a, b in zip(bounds, bounds[1:])]


def _both(logprobs, chunks, **kwargs):
    fast = PrefixBeamDecoder(**kwargs)
    for chunk in chunks:
        fast.advance(chunk)
    ref = ReferencePrefixBeamDecoder(**kwargs)
    ref.advance(logprobs)
    return fast.finalize().to_text(), ref.finalize().to_text()


@pytest.mark.parametrize("seed", range(6))
def test_random_posteriors_byte_identical(seed):
    rng = random.Random(seed)
    for _ in range(60):
        width = rng.randint(2, 7)
        logprobs = _random_logprobs(rng, rng.randint(0, 7), width)
        chunks = _chunks(rng, logprobs)
        skip = rng.choice((None, None, 0.5, 0.9))
        for beam, nbest in BEAMS:
            for context in (None, SHARED_CONTEXT):
                fast, ref = _both(
                    logprobs, chunks,
                    beam=beam, nbest=nbest, context=context, blank_skip_threshold=skip,
                )
                assert fast == ref, (seed, width, beam, nbest, context is not None, logprobs.tolist())


def test_context_graph_shared_across_widths():
    graph = ContextGraph([BiasingPhrase("ab", (1, 2)), BiasingPhrase("c", (3,))], boost=2.0)
    rng = random.Random(7)
    for width in (4, 2, 3, 4, 2):
        logprobs = _random_logprobs(rng, 6, width)
        fast, ref = _both(logprobs, [logprobs], beam=8, nbest=8, context=graph, blank_skip_threshold=None)
        assert fast == ref


class TestNeverCreatedEntries:
    """Extensions the reference never creates must never be ranked."""

    def _check(self, rows, beam=8, nbest=8, context=None):
        logprobs = np.array(rows, dtype=np.float64)
        fast, ref = _both(
            logprobs, [logprobs], beam=beam, nbest=nbest, context=context, blank_skip_threshold=None
        )
        assert fast == ref
        return fast

    def test_blank_column_is_not_an_extension(self):
        text = self._check([[0.0, NEG_INF, NEG_INF]])
        assert text.splitlines() == ["1 0.000000 0.000000 0.000000 0.000000\t\t"]

    def test_minus_inf_unit_is_not_an_extension(self):
        # Only unit 1 can extend; beam 8 holds far fewer candidates.
        text = self._check([[np.log(0.5), np.log(0.5), NEG_INF, NEG_INF]])
        assert [line.split("\t")[1] for line in text.splitlines()] == ["", "1"]

    def test_minus_inf_source_is_not_an_extension(self):
        # After frame 0 prefix (1,) has pb = -inf, so repeating unit 1 has
        # no source; (1, 1) must not appear although the beam has room.
        # The empty prefix stays, at -inf: stay entries are always ranked.
        text = self._check([[NEG_INF, 0.0, NEG_INF], [NEG_INF, np.log(0.5), np.log(0.5)]])
        units = [line.split("\t")[1] for line in text.splitlines()]
        assert units == ["1", "1 2", ""]

    def test_all_minus_inf_frame_keeps_only_stays(self):
        text = self._check(
            [[np.log(0.5), np.log(0.5), NEG_INF], [NEG_INF, NEG_INF, NEG_INF]],
            context=SHARED_CONTEXT,
        )
        assert [line.split("\t")[1] for line in text.splitlines()] == ["", "1"]
        assert all(line.split()[1] == "-inf" for line in text.splitlines())
