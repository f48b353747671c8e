"""The benchmark's four workloads, each driving ctcdec through its public API.

A workload has a set-up (timed as `setup_s`) and an operation that the
runner repeats for the run's length: one utterance on the decode
workloads, one build-graph on `graph_build`, one epoch of pack, shard read
and raw read on `shard_io`. `op` returns a SHA-256 digest per output item;
the runner compares them with the stored references and across repeats.
An output that fails a check raises `CheckError`.

Every call into ctcdec sits inside a tracer span named `<module>.<call>`,
so the traced run can split time by layer. Counters come from the
library's public attributes (`frames_processed`, `frames_skipped`, sizes).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ctcdec.arpa import read_arpa
from ctcdec.context import ContextGraph, load_biasing_phrases
from ctcdec.decode import PosteriorMatrix, PrefixBeamDecoder, WfstBeamDecoder
from ctcdec.fst import WeightedFst, compose, determinize, minimize, relabel_ilabels
from ctcdec.graph import build_G, build_L, build_T, build_TLG, disambig_ids, read_units, units_of
from ctcdec.lexicon import read_lexicon
from ctcdec.rescore import FusionWeights, TableScorer, rescore_nbest
from ctcdec.symbols import BLANK_SYMBOL, SymbolTable
from ctcdec.uio import (
    Batch,
    Filter,
    LocalStorage,
    Map,
    RawSampleReader,
    SampleRecord,
    Shuffle,
    chain,
    pack_shards,
    read_shards,
    shard_list_from_manifest,
)

CHUNK_FRAMES = 16  # WeNet's default decoding chunk
PREFIX_BEAM = 10
PREFIX_NBEST = 10
BLANK_SKIP_THRESHOLD = 0.98
CONTEXT_BOOST = 1.0
FUSION = FusionWeights(alpha=0.3, ctc_weight=0.5)
SHUFFLE_BUFFER = 64
BATCH_SIZE = 16


class CheckError(Exception):
    """An output of ctcdec failed one of the benchmark's checks."""


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def edit_distance(a, b) -> int:
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return row[-1]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else math.nan


def _check_nbest(nbest) -> None:
    if not len(nbest):
        raise CheckError("empty n-best list")
    for hyp in nbest:
        if not all(math.isfinite(v) for v in (hyp.total_score, hyp.score_ctc, hyp.score_context, hyp.score_lm)):
            raise CheckError(f"non-finite first-pass score in {hyp}")


def build_graph(inputs: Path, manifest: dict, out: Path, tracer) -> dict:
    """What `ctcdec build-graph` does: parse, build T, L, G and TLG, write them all."""
    with tracer.span("graph.read_units"):
        tokens = read_units(inputs / manifest["units_file"])
    units = units_of(tokens)
    with tracer.span("lexicon.parse"):
        lex = read_lexicon(inputs / manifest["lexicon_file"])
    with tracer.span("arpa.parse"):
        model = read_arpa(inputs / manifest["arpa_file"])
    words = sorted(set(lex.words()) | (model.all_words() - {"<s>", "</s>"}))
    with tracer.span("graph.build_T"):
        t = build_T(units)
    with tracer.span("graph.build_L"):
        l = build_L(lex, units, words)
    with tracer.span("graph.build_G"):
        g = build_G(model, words)
    with tracer.span("graph.build_TLG"):
        tlg = build_TLG(t, l, g)
    out.mkdir(parents=True, exist_ok=True)
    with tracer.span("symbols.write"):
        tokens.write(out / "tokens.txt")
        l.isymbols.write(out / "units.txt")
        g.osymbols.write(out / "words.txt")
    with tracer.span("fst.write"):
        for name, fst in (("T", t), ("L", l), ("G", g), ("TLG", tlg)):
            fst.write(out / f"{name}.fst")
    return {"tokens": tokens, "lex": lex, "model": model, "T": t, "L": l, "G": g, "TLG": tlg}


def load_graph(graph_dir: Path, tracer) -> tuple[SymbolTable, WeightedFst]:
    """What `ctcdec decode --graph-dir` does before its first utterance."""
    with tracer.span("graph.read_units"):
        tokens = read_units(graph_dir / "tokens.txt")
    with tracer.span("symbols.read"):
        words = SymbolTable.read(graph_dir / "words.txt")
    isymbols = SymbolTable.with_epsilon([BLANK_SYMBOL, *units_of(tokens)])
    with tracer.span("fst.read"):
        graph = WeightedFst.read(graph_dir / "TLG.fst", isymbols=isymbols, osymbols=words)
    if graph.is_empty():
        raise CheckError("decoding graph is empty")
    return tokens, graph


class Workload:
    """Common bookkeeping: latency samples, per-layer counters, figures."""

    distinct_ops = 1  # ops after which the inputs repeat

    def __init__(self, inputs: Path, manifest: dict, tracer):
        self.inputs = inputs
        self.manifest = manifest
        self.tracer = tracer
        self.latency_ms: list[float] = []  # the end-to-end latency samples
        self.counters: Counter = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> dict[str, str]:
        raise NotImplementedError

    def throughput(self) -> float:
        """Items per second of measured time (frames, builds or record IOs)."""
        raise NotImplementedError

    def figures(self) -> dict:
        """The workload's own figures, under the names the docs use."""
        raise NotImplementedError


class _Decode(Workload):
    """Shared per-utterance accounting of the two decode workloads."""

    def __init__(self, inputs, manifest, tracer):
        super().__init__(inputs, manifest, tracer)
        self.utts = manifest["utts"]
        self.distinct_ops = len(self.utts)
        self.frames = 0
        self.utt_s = 0.0
        self.final_ms: list[float] = []

    def _decode(self, uid: str, path: Path, decoder_factory, kind: str, finish=None):
        """Parse, construct, feed 16-frame chunks, finalize; time each step."""
        tracer = self.tracer
        start = time.perf_counter()
        with tracer.span("decode.posterior_read", uid):
            post = PosteriorMatrix.read(path)
        if post.tokens != len(self.tokens):
            raise CheckError(f"{uid}: posterior has {post.tokens} columns, unit table {len(self.tokens)}")
        with tracer.span(f"decode.{kind}.init", uid):
            decoder = decoder_factory()
        for s in range(0, post.frames, CHUNK_FRAMES):
            c0 = time.perf_counter()
            with tracer.span(f"decode.{kind}.advance", uid):
                decoder.advance(post.logprobs[s : s + CHUNK_FRAMES])
            self.latency_ms.append((time.perf_counter() - c0) * 1e3)
            self.counters["decode.chunks"] += 1
        f0 = time.perf_counter()
        with tracer.span(f"decode.{kind}.finalize", uid):
            nbest = decoder.finalize()
        extra = finish(nbest) if finish is not None else None
        end = time.perf_counter()
        self.final_ms.append((end - f0) * 1e3)
        self.utt_s += end - start
        self.frames += post.frames
        self.counters["decode.utts"] += 1
        self.counters["decode.frames"] += post.frames
        self.counters["decode.frames_skipped"] += decoder.frames_skipped
        if decoder.frames_processed + decoder.frames_skipped != post.frames:
            raise CheckError(f"{uid}: decoder saw {decoder.frames_processed}+{decoder.frames_skipped} of {post.frames} frames")
        _check_nbest(nbest)
        return nbest, extra

    def throughput(self) -> float:
        return self.frames / self.utt_s if self.utt_s else math.nan

    def _decode_figures(self) -> dict:
        return {
            "decode_fps": self.throughput(),
            "chunk_ms_p50": percentile(self.latency_ms, 50),
            "chunk_ms_p90": percentile(self.latency_ms, 90),
            "chunks": len(self.latency_ms),
            "final_ms_p50": percentile(self.final_ms, 50),
            "utts": len(self.final_ms),
            "frames": self.frames,
        }


class LmStream(_Decode):
    """WFST beam search over TLG, built and loaded the way the CLI does it."""

    def setup(self) -> None:
        build_graph(self.inputs, self.manifest, self.inputs / "graph", self.tracer)
        self.tokens, self.graph = load_graph(self.inputs / "graph", self.tracer)
        self.word_errors = 0
        self.ref_words = 0

    def op(self, index: int) -> dict[str, str]:
        utt = self.utts[index % len(self.utts)]
        uid = utt["id"]
        with self.tracer.span("bench.op", uid):
            nbest, _ = self._decode(uid, self.inputs / utt["post"], lambda: WfstBeamDecoder(self.graph), "wfst")
        self.word_errors += edit_distance(list(nbest.best().words), utt["words"])
        self.ref_words += len(utt["words"])
        return {uid: sha256(nbest.to_text(self.tokens))}

    def figures(self) -> dict:
        wer = 100.0 * self.word_errors / self.ref_words if self.ref_words else math.nan
        return {**self._decode_figures(), "wer_pct": wer}


class LmfreeBias(_Decode):
    """Prefix beam search with contextual biasing, then n-best rescoring."""

    def setup(self) -> None:
        tracer, inputs, m = self.tracer, self.inputs, self.manifest
        with tracer.span("graph.read_units"):
            self.tokens = read_units(inputs / m["units_file"])
        with tracer.span("context.build"):
            phrases = load_biasing_phrases(inputs / m["phrases_file"], self.tokens, mode="char")
            self.context = ContextGraph(phrases, CONTEXT_BOOST)
        with tracer.span("rescore.table_load"):
            self.l2r = TableScorer.from_file(inputs / m["l2r_file"], self.tokens, direction="l2r")
            self.r2l = TableScorer.from_file(inputs / m["r2l_file"], self.tokens, direction="r2l")
        self.counters["context.phrases"] = len(phrases)
        self.counters["context.phrase_lines"] = m["phrase_lines"]
        self.counters["context.nodes"] = self.context.num_states()
        self.unit_errors = self.ref_units = self.planted = self.recalled = 0

    def _decoder(self) -> PrefixBeamDecoder:
        # The threshold is passed explicitly: the CLI's LM-free path drops it.
        return PrefixBeamDecoder(
            beam=PREFIX_BEAM, nbest=PREFIX_NBEST, context=self.context, blank_skip_threshold=BLANK_SKIP_THRESHOLD
        )

    def _rescore(self, nbest):
        with self.tracer.span("rescore.nbest"):
            return rescore_nbest(nbest, self.l2r, self.r2l, FUSION)

    def op(self, index: int) -> dict[str, str]:
        utt = self.utts[index % len(self.utts)]
        uid = utt["id"]
        with self.tracer.span("bench.op", uid):
            nbest, rescored = self._decode(uid, self.inputs / utt["post"], self._decoder, "prefix", self._rescore)
        if len(rescored) != len(nbest) or any(math.isnan(h.total_score) for h in rescored):
            raise CheckError(f"{uid}: rescoring lost hypotheses or produced NaN")
        self.counters["rescore.hyps"] += len(rescored)
        self.counters["rescore.l2r_hits"] += sum(math.isfinite(h.score_l2r) for h in rescored)
        self.counters["rescore.top1_changed"] += rescored.best().units != nbest.best().units
        best = "".join(self.tokens.symbol_of(u) for u in rescored.best().units)
        self.unit_errors += edit_distance(best, utt["units"])
        self.ref_units += len(utt["units"])
        if utt["planted"]:
            self.planted += 1
            self.recalled += utt["planted"] in best
        return {uid: sha256(nbest.to_text(self.tokens)), f"{uid}.rescored": sha256(rescored.to_text(self.tokens))}

    def figures(self) -> dict:
        return {
            **self._decode_figures(),
            "uer_pct": 100.0 * self.unit_errors / self.ref_units if self.ref_units else math.nan,
            "bias_recall_pct": 100.0 * self.recalled / self.planted if self.planted else math.nan,
            "planted": self.planted,
        }


class GraphBuild(Workload):
    """One full build-graph per operation, then TLG read back."""

    def setup(self) -> None:
        # A build-graph user parses the inputs first; the operation parses again.
        with self.tracer.span("graph.read_units"):
            read_units(self.inputs / self.manifest["units_file"])
        with self.tracer.span("lexicon.parse"):
            read_lexicon(self.inputs / self.manifest["lexicon_file"])
        with self.tracer.span("arpa.parse"):
            read_arpa(self.inputs / self.manifest["arpa_file"])
        self.build_s: list[float] = []
        self.built: dict | None = None

    def op(self, index: int) -> dict[str, str]:
        out = self.inputs / "graph"
        start = time.perf_counter()
        with self.tracer.span("bench.op", f"build{index}"):
            built = build_graph(self.inputs, self.manifest, out, self.tracer)
            _, loaded = load_graph(out, self.tracer)
        seconds = time.perf_counter() - start
        self.build_s.append(seconds)
        self.latency_ms.append(seconds * 1e3)
        text = (out / "TLG.fst").read_bytes()
        if self.built is None:  # the byte-exact round trip, checked once per run
            if built["TLG"].to_text().encode("utf-8") != text or loaded.to_text().encode("utf-8") != text:
                raise CheckError("TLG.fst does not round-trip byte for byte")
        self.built = built
        model = built["model"]
        self._set_counters({
            "arpa.ngrams": sum(len(model.entries(o)) for o in model.orders),
            "lexicon.entries": len(built["lex"].entries),
            "graph.T_arcs": built["T"].num_arcs(),
            "graph.L_arcs": built["L"].num_arcs(),
            "graph.G_arcs": built["G"].num_arcs(),
            "fst.TLG_states": built["TLG"].num_states(),
            "fst.TLG_arcs": built["TLG"].num_arcs(),
        })
        return {"TLG": sha256(text)}

    def replay_stages(self) -> None:
        """Time build_TLG's stages through the public fst calls it chains.

        Fails unless the chain reproduces build_TLG's output byte for byte,
        so the stage times always belong to the program that was measured.
        """
        built, tracer = self.built, self.tracer
        with tracer.span("bench.replay", "TLG"):
            with tracer.span("fst.compose_LG"):
                lg = compose(built["L"], built["G"])
            with tracer.span("fst.determinize"):
                det = determinize(lg)
            with tracer.span("fst.minimize"):
                mind = minimize(det)
            aux = disambig_ids(mind.isymbols)
            clean = SymbolTable()
            for sym, sym_id in mind.isymbols:
                if sym_id not in aux:
                    clean.add(sym, sym_id)
            with tracer.span("fst.relabel"):
                stripped = relabel_ilabels(mind, {a: 0 for a in aux}, isymbols=clean)
            with tracer.span("fst.compose_TLG"):
                tlg = compose(built["T"], stripped)
                tlg.sort_arcs()
        if tlg.to_text() != built["TLG"].to_text():
            raise CheckError("replayed compose/determinize/minimize chain differs from build_TLG's output")
        self._set_counters({"fst.LG_arcs": lg.num_arcs(), "fst.det_arcs": det.num_arcs()})

    def _set_counters(self, sizes: dict[str, int]) -> None:
        for name, value in sizes.items():  # sizes, so set rather than added up
            self.counters[name] = value

    def throughput(self) -> float:
        return len(self.build_s) / sum(self.build_s) if self.build_s else math.nan

    def figures(self) -> dict:
        return {"build_s": percentile(self.build_s, 50), "builds": len(self.build_s)}


class _CountingStorage(LocalStorage):
    def __init__(self) -> None:
        self.opens = 0

    def open_read(self, locator: str):
        self.opens += 1
        return super().open_read(locator)


def _has_payload(record: SampleRecord) -> bool:
    return bool(record.payloads)


def _with_size(record: SampleRecord) -> tuple[SampleRecord, int]:
    return record, record.total_bytes()


class ShardIO(Workload):
    """Pack records into tar shards, read them back through a chain, and raw."""

    def setup(self) -> None:
        m = self.manifest
        self.shard_storage = _CountingStorage()
        self.raw_storage = _CountingStorage()
        with self.tracer.span("uio.raw_list"):
            self.raw_reader = RawSampleReader.from_file(self.inputs / m["raw_list"], storage=self.raw_storage)
        metadata = {}
        for line in (self.inputs / m["metadata_file"]).read_text(encoding="utf-8").splitlines():
            key, _, meta = line.partition(" ")
            metadata[key] = json.loads(meta)
        with self.tracer.span("uio.raw_load"):
            raw = [self.raw_reader.record(i) for i in range(len(self.raw_reader))]
        self.records = [SampleRecord(r.key, r.payloads, metadata[r.key]) for r in raw]
        self.by_key = {r.key: r for r in self.records}
        self.raw_storage.opens = 0
        self.pack_s = self.read_s = self.raw_s = 0.0
        self.epochs = 0

    def op(self, index: int) -> dict[str, str]:
        tracer, m = self.tracer, self.manifest
        out = self.inputs / "shards"
        epoch_seed = m["seed"] * 1000 + index
        digests = {}
        with tracer.span("bench.op", f"epoch{index}"):
            t0 = time.perf_counter()
            with tracer.span("uio.pack"):
                pack_shards(iter(self.records), m["shard_size"], out)
            self.pack_s += time.perf_counter() - t0
            if index == 0:
                digests["shards"] = sha256(b"".join(p.read_bytes() for p in sorted(out.glob("shard_*.tar"))))

            t0 = time.perf_counter()
            with tracer.span("uio.manifest"):
                shards = shard_list_from_manifest(out / "manifest.txt")
            stream = read_shards(shards, shuffle=True, seed=epoch_seed, storage=self.shard_storage)
            ops = [Shuffle(SHUFFLE_BUFFER, epoch_seed), Filter(_has_payload), Map(_with_size), Batch(BATCH_SIZE)]
            batches = chain(ops, tracer.iterate("uio.read", stream))
            self.read_s += time.perf_counter() - t0
            order = []
            while True:
                b0 = time.perf_counter()
                with tracer.span("uio.chain"):
                    batch = next(batches, None)
                b1 = time.perf_counter()
                self.read_s += b1 - b0
                if batch is None:
                    break
                self.latency_ms.append((b1 - b0) * 1e3)
                self.counters["uio.batches"] += 1
                for record, size in batch:
                    self._verify(record, size, with_metadata=True)
                    order.append(record.key)
                    self.counters["uio.bytes"] += size
            if sorted(order) != sorted(self.by_key):
                raise CheckError(f"shard epoch returned {len(order)} records, packed {len(self.by_key)}")
            self.counters["uio.shards"] = len(shards)
            digests[f"order{index}"] = sha256("\n".join(order))

            self.raw_reader.seek(0)
            for key in self.by_key:
                r0 = time.perf_counter()
                with tracer.span("uio.raw_read", key):
                    record = self.raw_reader.read()
                self.raw_s += time.perf_counter() - r0
                if record.key != key:
                    raise CheckError(f"raw reader returned {record.key!r}, expected {key!r}")
                self._verify(record, record.total_bytes(), with_metadata=False)
        self.epochs += 1
        self.counters["uio.opens"] = self.shard_storage.opens
        self.counters["uio.raw_opens"] = self.raw_storage.opens
        return digests

    def _verify(self, record: SampleRecord, size: int, with_metadata: bool) -> None:
        packed = self.by_key.get(record.key)
        if packed is None or record.payloads != packed.payloads or size != packed.total_bytes():
            raise CheckError(f"record {record.key!r} read back differs from what was packed")
        if with_metadata and record.metadata != packed.metadata:
            raise CheckError(f"record {record.key!r} metadata differs from what was packed")

    def throughput(self) -> float:
        """Record IOs per second over packing, shard reads and raw reads together."""
        spent = self.pack_s + self.read_s + self.raw_s
        return 3 * len(self.records) * self.epochs / spent if spent else math.nan

    def figures(self) -> dict:
        n = len(self.records) * self.epochs
        return {
            "pack_rps": n / self.pack_s if self.pack_s else math.nan,
            "shard_rps": n / self.read_s if self.read_s else math.nan,
            "raw_rps": n / self.raw_s if self.raw_s else math.nan,
            "batch_ms_p50": percentile(self.latency_ms, 50),
            "batch_ms_p90": percentile(self.latency_ms, 90),
            "batches": len(self.latency_ms),
            "epochs": self.epochs,
            "records": len(self.records),
        }


WORKLOADS = {
    "lm_stream": LmStream,
    "lmfree_bias": LmfreeBias,
    "graph_build": GraphBuild,
    "shard_io": ShardIO,
}
