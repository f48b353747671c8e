#!/usr/bin/env python3
"""Benchmark for ctcdec: seeded workloads, end-to-end and per-layer metrics.

Untraced run, one workload, end-to-end metrics:

    python3 bench/run.py --workload lm_stream --seed 3 --seconds 20 --trace 0

Traced run, every workload once at a fixed amount of work, per-layer metrics
(`--seconds` is not used; `--workload` is checked but all four run):

    python3 bench/run.py --workload lm_stream --seed 3 --seconds 20 --trace 1

Run from the repository root. The benchmark imports ctcdec from `src/`
next to this directory and exits with status 2 if it is not there. Inputs
are generated under `bench/.work/` and removed at exit; each run writes its
full report to `bench/out/`. The last line of standard output is the
result: `{"correct", "attempted", "failed", "metrics"}`; the line before it
holds the workload's own figures and the run's metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import gen
from tracing import NullTracer, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
REFERENCE_FILE = BENCH_DIR / "reference.json"
# `workloads` imports ctcdec, so functions import it once main() has put
# SRC on sys.path.

DEFAULT_SEED = 1
REFERENCE_SIZE = "tiny"  # the stored digests are for DEFAULT_SEED at this size
SETUP_SECONDS = 1.0  # set-up is repeated, at least 3 times, until this much time is spent
TRACE_OPS = {"lm_stream": 8, "lmfree_bias": 12, "graph_build": 1, "shard_io": 2}

# Per-layer timings of the traced run: metric name -> the spans whose self
# times it sums. Counters and ratios are added in `per_layer_metrics`.
SPAN_METRICS = {
    "decode.wfst.init_s": ("decode.wfst.init",),
    "decode.wfst.advance_s": ("decode.wfst.advance",),
    "decode.wfst.finalize_s": ("decode.wfst.finalize",),
    "decode.prefix.advance_s": ("decode.prefix.advance",),
    "decode.prefix.finalize_s": ("decode.prefix.finalize",),
    "decode.posterior_read_s": ("decode.posterior_read",),
    "context.build_s": ("context.build",),
    "rescore.table_load_s": ("rescore.table_load",),
    "rescore.s": ("rescore.nbest",),
    "arpa.parse_s": ("arpa.parse",),
    "lexicon.parse_s": ("lexicon.parse",),
    "graph.build_T_s": ("graph.build_T",),
    "graph.build_L_s": ("graph.build_L",),
    "graph.build_G_s": ("graph.build_G",),
    "graph.build_TLG_s": ("graph.build_TLG",),
    "fst.compose_LG_s": ("fst.compose_LG",),
    "fst.determinize_s": ("fst.determinize",),
    "fst.minimize_s": ("fst.minimize",),
    "fst.compose_TLG_s": ("fst.compose_TLG",),
    "fst.write_s": ("fst.write",),
    "fst.read_s": ("fst.read",),
    "uio.pack_s": ("uio.pack",),
    "uio.read_s": ("uio.read", "uio.manifest"),
    "uio.chain_s": ("uio.chain",),
    "uio.raw_read_s": ("uio.raw_read",),
}


def per_layer_metrics(totals: dict, counters: Counter, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of a traced run as name -> (value, unit)."""
    out = {name: (sum(totals.get(s, {}).get("self_s", 0.0) for s in spans), "s") for name, spans in SPAN_METRICS.items()}

    def ratio(num: str, den: str) -> float:
        return counters[num] / counters[den] if counters[den] else math.nan

    for name in ("decode.frames", "decode.frames_skipped", "decode.chunks", "decode.utts", "context.nodes",
                 "rescore.hyps", "rescore.top1_changed", "arpa.ngrams", "lexicon.entries", "graph.T_arcs",
                 "graph.L_arcs", "graph.G_arcs", "fst.LG_arcs", "fst.det_arcs", "fst.TLG_states", "fst.TLG_arcs",
                 "uio.opens", "uio.raw_opens", "uio.shards", "uio.bytes", "uio.batches"):
        out[name] = (counters[name], "count")
    out["decode.skip_ratio"] = (ratio("decode.frames_skipped", "decode.frames"), "ratio")
    out["context.phrase_usable_ratio"] = (ratio("context.phrases", "context.phrase_lines"), "ratio")
    out["rescore.l2r_hit_ratio"] = (ratio("rescore.l2r_hits", "rescore.hyps"), "ratio")
    out["fst.det_growth"] = (ratio("fst.det_arcs", "fst.LG_arcs"), "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


# -- bookkeeping ---------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first few failures reported."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: FAILED {what}", file=sys.stderr)

    def run_op(self, workload, index: int, expected: dict, seen: dict, label: str) -> dict | None:
        """One operation; its digests must match the stored ones and earlier repeats."""
        self.attempted += 1
        try:
            digests = workload.op(index)
        except Exception as exc:  # a failing operation is counted, and the run goes on
            self.fail(f"{label} op {index}: {type(exc).__name__}: {exc}")
            if self.failed <= 1:
                traceback.print_exc(file=sys.stderr)
            return None
        mismatched = []
        for item, digest in digests.items():
            want = expected.get(item, seen.setdefault(item, digest))  # else the first repeat's
            if want != digest:
                mismatched.append(f"{item} digest {digest[:12]} != expected {want[:12]}")
        if mismatched:
            self.fail(f"{label}: {'; '.join(mismatched)}")
        return digests


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def reference_check(name: str, reference: dict, work: Path, tally: Tally) -> None:
    """Run the stored default-seed inputs and compare every digest."""
    from workloads import WORKLOADS

    expected = reference.get(name)
    if not expected:
        tally.attempted += 1
        tally.fail(f"{name}: no stored reference digests")
        return
    inputs = work / f"reference-{name}"
    manifest = gen.generate(name, DEFAULT_SEED, inputs, REFERENCE_SIZE)
    w = WORKLOADS[name](inputs, manifest, NullTracer())
    w.setup()
    failed_before = tally.failed
    produced: dict = {}
    for i in range(w.distinct_ops):
        produced.update(tally.run_op(w, i, expected, {}, f"{name} reference") or {})
    missing = sorted(set(expected) - set(produced))
    if missing and tally.failed == failed_before:  # an op that raised is already counted
        tally.fail(f"{name} reference: no output for {missing[:3]}")


def metadata(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "ctcdec").glob("*.py"))),
    }


def _git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- runs ------------------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float, size: str, reference: dict, work: Path) -> tuple[dict, dict]:
    """Set up repeatedly, then repeat the workload's operation for `seconds`."""
    from workloads import WORKLOADS, percentile

    inputs = work / name
    manifest = gen.generate(name, seed, inputs, size)
    w = WORKLOADS[name](inputs, manifest, NullTracer())
    setup_s: list[float] = []
    while len(setup_s) < 3 or sum(setup_s) < SETUP_SECONDS:
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)

    tally = Tally()
    expected = reference.get(name, {}) if (seed, size) == (DEFAULT_SEED, REFERENCE_SIZE) else {}
    seen: dict = {}
    gc.collect()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        tally.run_op(w, index, expected, seen, name)
        index += 1
    elapsed = time.perf_counter() - start
    peak = _peak_rss_mb()
    reference_check(name, reference, work, tally)

    metrics = {
        "setup_s": (percentile(setup_s, 50), "s"),
        "throughput": (w.throughput(), "items/s"),
        "latency_ms_p50": (percentile(w.latency_ms, 50), "ms"),
        "latency_ms_p90": (percentile(w.latency_ms, 90), "ms"),
        "peak_rss_mb": (peak, "MiB"),
    }
    detail = {
        "workload": name,
        "size": size,
        "seconds": elapsed,
        "ops": index,
        "latency_samples": len(w.latency_ms),
        "setups": len(setup_s),
        "fail_ratio": tally.failed / tally.attempted,
        **w.figures(),
    }
    return _result(tally, metrics), detail


def run_traced(seed: int, size: str, reference: dict, work: Path) -> tuple[dict, dict]:
    """Each workload once untraced and once traced, at a fixed amount of work."""
    from workloads import WORKLOADS

    tally = Tally()
    counters: Counter = Counter()
    totals: dict = {}
    report: dict = {"workloads": {}}
    untraced_all = traced_all = 0.0
    for name, cls in WORKLOADS.items():
        inputs = work / name
        manifest = gen.generate(name, seed, inputs, size)
        n_ops = TRACE_OPS[name]
        plain = cls(inputs, manifest, NullTracer())
        plain.setup()
        seen: dict = {}
        for i in range(n_ops):  # warm-up, so that neither timed pass runs cold
            tally.run_op(plain, i, {}, seen, f"{name} warm-up")
        t0 = time.perf_counter()
        for i in range(n_ops):
            tally.run_op(plain, i, {}, seen, f"{name} untraced")
        untraced = time.perf_counter() - t0

        tracer = Tracer()
        w = cls(inputs, manifest, tracer)
        with tracer.span("bench.setup", name):
            w.setup()
        t0 = time.perf_counter()
        for i in range(n_ops):  # tracing must not change a single output byte
            tally.run_op(w, i, {}, seen, f"{name} traced")
        traced = time.perf_counter() - t0
        if name == "graph_build":
            tally.attempted += 1
            try:
                w.replay_stages()
            except Exception as exc:  # counted as a failed operation
                tally.fail(f"graph_build stage replay: {exc}")
        counters.update(w.counters)
        for span_name, row in tracer.totals().items():
            acc = totals.setdefault(span_name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        untraced_all += untraced
        traced_all += traced
        report["workloads"][name] = {
            "ops": n_ops,
            "untraced_s": untraced,
            "traced_s": traced,
            "overhead_ratio": traced / untraced,
            "layer_self_s": tracer.layer_self_times(),
            "spans_by_name": tracer.totals(),
            "spans": tracer.to_json(),
        }
        reference_check(name, reference, work, tally)

    overhead = traced_all / untraced_all
    metrics = per_layer_metrics(totals, counters, overhead)
    report.update({"overhead_ratio": overhead, "spans_by_name": totals, "counters": dict(counters)})
    return _result(tally, metrics), report


def _result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def update_reference() -> None:
    """Store the digests of DEFAULT_SEED at REFERENCE_SIZE for every workload."""
    from workloads import WORKLOADS

    reference = {}
    work = WORK_DIR / f"update-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            inputs = work / name
            w = cls(inputs, gen.generate(name, DEFAULT_SEED, inputs, REFERENCE_SIZE), NullTracer())
            w.setup()
            reference[name] = {}
            for i in range(w.distinct_ops):
                reference[name].update(w.op(i))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="input size (tiny: quick checks)")
    parser.add_argument("--update-reference", action="store_true",
                        help=f"rewrite {REFERENCE_FILE.name} from the current code, then exit")
    args = parser.parse_args(argv)
    if not (SRC / "ctcdec" / "__init__.py").is_file():
        print(f"bench: ctcdec sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The phrase list holds deliberately unusable lines; keep the loader's warnings off stderr.
    import logging

    logging.getLogger("ctcdec").setLevel(logging.ERROR)

    if args.update_reference:
        update_reference()
        print(f"wrote {REFERENCE_FILE}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    reference = load_reference()
    try:
        if args.trace:
            result, detail = run_traced(args.seed, args.size, reference, work)
        else:
            result, detail = run_untraced(args.workload, args.seed, args.seconds, args.size, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["meta"] = metadata(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"trace-seed{args.seed}" if args.trace else f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in detail.items() if k not in ("workloads", "spans_by_name")}
    print(json.dumps({"detail": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
