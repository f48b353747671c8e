#!/usr/bin/env python3
"""Time and memory of each stage of one `build-graph` and of reading its TLG back.

The inputs are the benchmark's seeded inputs of one workload:
`graph_build` (60 units, 300 words, a bigram LM) by default, or
`lm_stream` (30 units, 90 words), whose smaller graph that workload's
`setup_s` builds, writes and reads back on every set-up. The stages are
the steps `build_TLG` chains (`graph.tlg_stages`: compose L∘G,
determinize, minimize, relabel, compose T∘LG), then writing the graph
directory as `build-graph` does (`graph.write_graph`) and reading its TLG
back as `decode --graph-dir` does (`graph.read_graph`). Each stage runs
four times: three times for its time, of which the median is printed,
and once under `tracemalloc` for its peak above what it returns, that is
the most memory it held at once beyond its result. The stage with the
largest peak is the one that sets a build's peak memory.

    python3 scripts/graph_stages.py --seed 5
    python3 scripts/graph_stages.py --workload lm_stream --seed 5
"""

import argparse
import gc
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402  (the benchmark's input generator)
from ctcdec.arpa import read_arpa  # noqa: E402
from ctcdec.fst import WeightedFst  # noqa: E402
from ctcdec.graph import (  # noqa: E402
    build_G, build_L, build_T, graph_words, read_graph, read_units, tlg_stages, units_of, write_graph
)
from ctcdec.lexicon import read_lexicon  # noqa: E402


def stage(name: str, run):
    """Run `run()` three times timed and once traced, print its median time and
    its peak, and return its result."""
    times = []
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
        del result
    seconds = statistics.median(times)
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = f"{result.num_arcs():>8} arcs" if isinstance(result, WeightedFst) else " " * 13
    print(f"{name:<12} {seconds * 1e3:8.1f} ms (median of 3)  {size}  "
          f"peak +{(peak - held) / 1e6:5.1f} MB above what it returns", flush=True)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("graph_build", "lm_stream"), default="graph_build",
                        help="the benchmark workload whose inputs to build (default: graph_build)")
    parser.add_argument("--seed", type=int, default=5, help="seed of the inputs (default: 5)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = gen.generate(args.workload, args.seed, tmp)
        tokens = read_units(Path(tmp) / manifest["units_file"])
        lex = read_lexicon(Path(tmp) / manifest["lexicon_file"])
        model = read_arpa(Path(tmp) / manifest["arpa_file"])
        units, words = units_of(tokens), graph_words(lex, model)
        machines = {"T": build_T(units), "L": build_L(lex, units, words), "G": build_G(model, words)}

        fst = None
        for name, step in tlg_stages(*machines.values()):
            fst = stage(name, lambda: step(fst))
        machines["TLG"] = fst  # the last stage's result, as `build_graph` would build it
        out = Path(tmp) / "graph"
        stage("write", lambda: write_graph(out, tokens, machines))
        stage("read", lambda: read_graph(out)[1])


if __name__ == "__main__":
    main()
