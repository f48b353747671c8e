#!/usr/bin/env python3
"""Time per frame and memory of both searches over one long seeded stream.

The stream is random peaky posterior rows over the 31 columns (blank and
30 units) of the benchmark's `lm_stream` graph, built from its seeded
inputs. Each search gets the same rows in 16-frame chunks with no frame
skipped: the prefix search at beam 10, and the WFST search over that TLG
with its default options. For each window of 10k frames the script
prints the time per frame, the backpointers the WFST search holds
(`links_held`) or the longest hypothesis the prefix search holds, and
the peak RSS of the process so far.

    python3 scripts/long_stream.py --frames 40000
"""

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402  (the benchmark's input generator)
from ctcdec.arpa import read_arpa  # noqa: E402
from ctcdec.decode import PrefixBeamDecoder, WfstBeamDecoder  # noqa: E402
from ctcdec.graph import build_graph, read_units, units_of  # noqa: E402
from ctcdec.lexicon import read_lexicon  # noqa: E402

CHUNK = 16
WINDOW = 10_000


def lm_stream_graph(seed: int):
    """The TLG of the `lm_stream` inputs for `seed`, built as `ctcdec build-graph` does."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = gen.generate("lm_stream", seed, tmp)
        tokens = read_units(Path(tmp) / manifest["units_file"])
        lex = read_lexicon(Path(tmp) / manifest["lexicon_file"])
        model = read_arpa(Path(tmp) / manifest["arpa_file"])
    return build_graph(units_of(tokens), lex, model)["TLG"], len(tokens)


def rows(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Frames `start:start + count` of the stream, the same for every window size."""
    rng = np.random.default_rng([seed, start])
    with np.errstate(divide="ignore"):
        return np.log(rng.dirichlet(np.full(width, 0.1), size=count))


def run(name: str, decoder, seed: int, frames: int, width: int) -> None:
    for start in range(0, frames, WINDOW):
        count = min(WINDOW, frames - start)
        window = rows(seed, start, count, width)
        t0 = time.perf_counter()
        for at in range(0, count, CHUNK):
            decoder.advance(window[at : at + CHUNK])
        us = (time.perf_counter() - t0) / count * 1e6
        if isinstance(decoder, WfstBeamDecoder):
            held = f"links_held {decoder.links_held}"
        else:
            held = f"longest_prefix {max(len(hyp.units) for hyp in decoder.finalize())}"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name} frames {start}-{start + count}: {us:.0f} us/frame, {held}, peak_rss {rss:.1f} MiB", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--frames", type=int, default=40_000, help="stream length (default: 40000)")
    parser.add_argument("--seed", type=int, default=5, help="seed of the graph inputs and the rows (default: 5)")
    args = parser.parse_args()
    graph, width = lm_stream_graph(args.seed)
    run("wfst", WfstBeamDecoder(graph, blank_skip_threshold=None), args.seed, args.frames, width)
    run("prefix", PrefixBeamDecoder(beam=10, blank_skip_threshold=None), args.seed, args.frames, width)


if __name__ == "__main__":
    main()
