"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test reports a PASS/FAIL line in the terminal summary (see conftest).
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from conftest import TOY_ARPA, graph_from_text, random_acyclic_fst, random_matrix
from oracles import (
    arpa_sentence_log10,
    best_marginal,
    enumerate_language,
    join_languages,
    languages_equal,
    linear_fst,
    shortest_path,
)

from ctcdec.arpa import parse_arpa
from ctcdec.context import BiasingPhrase, ContextGraph
from ctcdec.decode import (
    Hypothesis,
    NBestList,
    PosteriorMatrix,
    PrefixBeamDecoder,
    WfstBeamDecoder,
)
from ctcdec.fst import compose, determinize, minimize
from ctcdec.graph import build_G
from ctcdec.rescore import FusionWeights, TableScorer, rescore_nbest
from ctcdec.symbols import SymbolTable
from ctcdec.uio import LocalStorage, RawSampleReader, SampleRecord, pack_shards, read_shards

LN10 = math.log(10.0)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        conftest.record_criterion(name, False)
        raise
    conftest.record_criterion(name, True)


def test_prefix_search_oracle_equivalence():
    with criterion("oracle equivalence, prefix search (500 matrices, 1e-9, <10s)"):
        rng = random.Random(2024)
        start = time.perf_counter()
        for _ in range(500):
            frames = rng.randint(0, 4)
            m = random_matrix(rng, frames, 3)
            nbest = PrefixBeamDecoder(beam=100, nbest=1, blank_skip_threshold=None).decode(m)
            seq, score = best_marginal(m.logprobs.tolist())
            assert nbest.best().units == seq
            assert nbest.best().score_ctc == pytest.approx(score, abs=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_wfst_algebra_preserves_weighted_languages():
    with criterion("WFST algebra vs enumeration oracles (200 FSTs, 1e-9, <30s)"):
        rng = random.Random(777)
        isym = SymbolTable.with_epsilon(["x1", "x2", "x3"])
        msym = SymbolTable.with_epsilon(["y1", "y2", "y3"])
        osym = SymbolTable.with_epsilon(["z1", "z2", "z3"])
        start = time.perf_counter()
        for i in range(200):
            a = random_acyclic_fst(rng, isym, msym, max_states=6)
            b = random_acyclic_fst(rng, msym, osym, max_states=6)
            lang_a = enumerate_language(a)
            composed = compose(a, b)
            assert languages_equal(
                enumerate_language(composed),
                join_languages(lang_a, enumerate_language(b)),
            ), f"compose mismatch at case {i}"
            det = determinize(a)
            assert languages_equal(enumerate_language(det), lang_a), f"determinize mismatch at case {i}"
            mini = minimize(det)
            assert mini.num_states() <= det.num_states()
            assert languages_equal(enumerate_language(mini), lang_a), f"minimize mismatch at case {i}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_lm_scores_match_backoff_recursion():
    with criterion("LM scoring: G shortest paths == ARPA backoff recursion (1e-6)"):
        model = parse_arpa(TOY_ARPA)
        g = build_G(model)
        words = sorted(model.vocabulary() - {"<s>", "</s>"})
        assert len(words) == 3
        checked = 0
        for length in range(0, 5):
            for sentence in itertools.product(words, repeat=length):
                ids = [g.isymbols.get_id(w) for w in sentence]
                lin = linear_fst(ids, isymbols=g.isymbols.copy(), osymbols=g.isymbols.copy())
                paths = shortest_path(compose(lin, g), 1, max_expansions=100_000)
                expected = -arpa_sentence_log10(model, list(sentence)) * LN10
                assert paths, sentence
                assert paths[0].weight == pytest.approx(expected, abs=1e-6), sentence
                checked += 1
        assert checked == sum(3 ** n for n in range(5))  # includes all 3^4 length-4 sentences


def _positive_set(rng, n=14):
    """Matrices with enough 'a b' mass that boosts flip them at varied points."""
    out = []
    for _ in range(n):
        a = rng.uniform(0.15, 0.4)
        b = rng.uniform(0.15, 0.4)
        rows = [
            [1 - a - 0.2 - 0.1, a, 0.2, 0.1],
            [1 - b - 0.1 - 0.35, 0.1, b, 0.35],
        ]
        out.append(PosteriorMatrix.from_probs(np.array(rows)))
    return out


def _contains_phrase(units, phrase=(1, 2)):
    return any(units[i : i + len(phrase)] == phrase for i in range(len(units)))


def test_context_biasing_mechanics():
    with criterion("contextual biasing: monotone boost sweep, exact failure-arc refunds"):
        rng = random.Random(42)
        positives = _positive_set(rng)
        counts = []
        for boost in (0, 3, 5, 7, 10):
            ctx = None if boost == 0 else ContextGraph([BiasingPhrase("ab", (1, 2))], boost)
            hits = 0
            for m in positives:
                nbest = PrefixBeamDecoder(beam=200, nbest=1, context=ctx, blank_skip_threshold=None).decode(m)
                if _contains_phrase(nbest.best().units):
                    hits += 1
            counts.append(hits)
        assert counts == sorted(counts), f"not monotone: {counts}"
        assert counts[-1] > counts[0], "sweep never engaged the phrase"

        # Boost 0 must be bit-identical to decoding without any context graph.
        zero_ctx = ContextGraph([BiasingPhrase("ab", (1, 2))], 0.0)
        for m in positives:
            plain = PrefixBeamDecoder(beam=200, nbest=5, blank_skip_threshold=None).decode(m)
            zeroed = PrefixBeamDecoder(beam=200, nbest=5, context=zero_ctx, blank_skip_threshold=None).decode(m)
            assert zeroed.to_text() == plain.to_text()

        # Negative set: the phrase "bc" can never complete (c has zero mass)
        # and every utterance ends on a near-certain unit outside the phrase,
        # so every matched prefix is abandoned and refunded exactly.
        ctx = ContextGraph([BiasingPhrase("bc", (2, 3))], 5.0)
        for _ in range(10):
            b = rng.uniform(0.7, 0.85)
            rows = [
                [1 - b - 0.05, 0.05, b, 0.0],
                [0.0005, 0.999, 0.0005, 0.0],
            ]
            m = PosteriorMatrix.from_probs(np.array(rows))
            top = PrefixBeamDecoder(beam=200, nbest=1, context=ctx, blank_skip_threshold=None).decode(m).best()
            assert 2 in top.units, "negative utterance should still contain the prefix"
            assert top.score_context == 0.0  # exact, not approximate


def test_blank_skipping_matches_manual_filtering():
    with criterion("blank skipping at 0.98: same top-1 words, exact kept-frame count"):
        graph = graph_from_text()["TLG"]
        informative = [
            [0.02, 0.94, 0.02, 0.02],
            [0.02, 0.02, 0.94, 0.02],
        ]
        noise = [[0.985, 0.006, 0.005, 0.004], [0.99, 0.004, 0.003, 0.003]]
        interleaved = [noise[0], informative[0], noise[1], informative[1]]
        dec = WfstBeamDecoder(graph, blank_skip_threshold=0.98)
        dec.advance(PosteriorMatrix.from_probs(np.array(interleaved)))
        auto = dec.finalize()
        manual = WfstBeamDecoder(graph, blank_skip_threshold=1.0).decode(
            PosteriorMatrix.from_probs(np.array(informative))
        )
        assert dec.frames_processed == len(informative)
        assert dec.frames_skipped == len(noise)
        assert auto.best().words == manual.best().words == ("ab",)


def test_rescoring_fusion_matches_hand_computation():
    with criterion("rescoring fusion at alpha {0, 0.3, 1} + shift invariance"):
        def hyp(units, first_pass):
            return Hypothesis(units=units, total_score=first_pass, score_ctc=first_pass)

        nbest = NBestList([hyp((1,), -1.0), hyp((2,), -1.2)])
        l2r = TableScorer({(1,): -0.5, (2,): -0.1})
        r2l = TableScorer({(1,): -0.6, (2,): -0.2}, direction="r2l")

        for alpha, expected in [
            # total = ctc_weight*first + (1-alpha)*l2r + alpha*r2l, by hand:
            (0.0, {(1,): -1.0, (2,): -0.7}),
            (0.3, {(1,): -1.03, (2,): -0.73}),
            (1.0, {(1,): -1.1, (2,): -0.8}),
        ]:
            out = rescore_nbest(nbest, l2r, r2l, FusionWeights(alpha=alpha, ctc_weight=0.5))
            for h in out:
                assert h.total_score == pytest.approx(expected[h.units], abs=1e-12)
            assert out.best().units == (2,)

        base = rescore_nbest(nbest, l2r, r2l, FusionWeights(alpha=0.3, ctc_weight=0.5))
        for shift in (-7.5, 3.25, 100.0):
            shifted = rescore_nbest(
                nbest,
                TableScorer({k: v + shift for k, v in l2r.scores.items()}),
                TableScorer({k: v + shift for k, v in r2l.scores.items()}, "r2l"),
                FusionWeights(alpha=0.3, ctc_weight=0.5),
            )
            assert [h.units for h in shifted] == [h.units for h in base]


class _InstrumentedStorage(LocalStorage):
    def __init__(self):
        self.opens = 0
        self.violations = 0
        self._last: dict[str, int] = {}

    def open_read(self, locator):
        self.opens += 1
        inner = super().open_read(locator)
        outer = self

        class Tracked:
            def read(self, n=-1):
                pos = inner.tell()
                if pos < outer._last.get(locator, 0):
                    outer.violations += 1
                data = inner.read(n)
                outer._last[locator] = inner.tell()
                return data

            def close(self):
                inner.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()
                return False

        return Tracked()


def test_uio_round_trip_sequential_access_and_coverage(tmp_path, capsys):
    with criterion("UIO: byte-exact round trip, sequential reads, exact coverage, O(#shards) opens"):
        records = [
            SampleRecord(
                key=f"utt{i:05d}",
                payloads={"wav": bytes((i * 7 + j) % 256 for j in range(50)), "txt": f"transcript {i}".encode()},
                metadata={"index": str(i), "dur": f"{i % 17}"},
            )
            for i in range(1000)
        ]
        shard_dir = tmp_path / "shards"
        shards = pack_shards(iter(records), 100, shard_dir)
        assert len(shards) == 10

        storage = _InstrumentedStorage()
        t0 = time.perf_counter()
        back = list(read_shards(shards, storage=storage))
        shard_time = time.perf_counter() - t0
        assert [r.key for r in back] == [r.key for r in records]
        for orig, got in zip(records, back):
            assert got.payloads == orig.payloads, orig.key
            assert got.metadata == orig.metadata, orig.key
        assert storage.opens == len(shards)  # O(#shards) open operations
        assert storage.violations == 0  # zero out-of-order reads within a shard

        seen = [r.key for r in read_shards(shards, shuffle=True, seed=123)]
        assert sorted(seen) == [r.key for r in records]
        assert len(set(seen)) == len(records)
        assert seen != [r.key for r in records], "seeded shuffle should reorder shards"

        # Raw layout: one pair of files per record, opened one by one.
        raw_dir = tmp_path / "raw"
        raw_dir.mkdir()
        lines = []
        for r in records:
            (raw_dir / f"{r.key}.wav").write_bytes(r.payloads["wav"])
            (raw_dir / f"{r.key}.txt").write_bytes(r.payloads["txt"])
            lines.append(f"{r.key} {r.key}.wav {r.key}.txt")
        manifest = raw_dir / "raw.list"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        raw_storage = _InstrumentedStorage()
        reader = RawSampleReader.from_file(manifest, storage=raw_storage)
        t0 = time.perf_counter()
        raw_back = list(reader)
        raw_time = time.perf_counter() - t0
        assert len(raw_back) == len(records)
        assert raw_storage.opens == 2 * len(records)  # O(#records) for raw mode

        with capsys.disabled():
            print(
                f"\n[uio benchmark] shard mode: {len(records) / shard_time:,.0f} rec/s "
                f"({storage.opens} opens); raw mode: {len(records) / raw_time:,.0f} rec/s "
                f"({raw_storage.opens} opens)"
            )


def test_streaming_equals_one_shot_decoding():
    with criterion("streaming decode == one-shot decode, byte-for-byte (50 utterances)"):
        rng = random.Random(31337)
        for case in range(50):
            frames = rng.randint(0, 8)
            m = random_matrix(rng, frames, 4)
            one_shot = PrefixBeamDecoder(beam=6, nbest=4, blank_skip_threshold=None).decode(m)
            dec = PrefixBeamDecoder(beam=6, nbest=4, blank_skip_threshold=None)
            cut = 0
            while cut < frames:
                step = rng.randint(1, 3)
                dec.advance(PosteriorMatrix(m.logprobs[cut : cut + step]))
                cut += step
            assert dec.finalize().to_text() == one_shot.to_text(), f"prefix case {case}"

        graph = graph_from_text()["TLG"]
        for case in range(10):
            m = random_matrix(rng, rng.randint(1, 6), 4)
            one_shot = WfstBeamDecoder(graph, nbest=4).decode(m)
            dec = WfstBeamDecoder(graph, nbest=4)
            for t in range(m.frames):
                dec.advance(PosteriorMatrix(m.logprobs[t : t + 1]))
            assert dec.finalize().to_text() == one_shot.to_text(), f"wfst case {case}"
