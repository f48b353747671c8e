#!/usr/bin/env python3
"""Sweep the biasing boost over {0, 3, 5, 7, 10} on crafted test sets.

Positive set: utterances whose mass on the phrase "ab" spans several
orders of magnitude, so top-1 flips to the phrase at different boosts and
the hit rate grows monotonically. Negative set: utterances that match the
prefix of "bc" and then diverge; abandoned prefixes must be refunded to a
net context score of exactly zero. Outputs that end mid-phrase keep their
pending boost, which is the mechanism behind negative-set degradation at
large boosts.
"""

import argparse
import math
import random
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ctcdec.context import BiasingPhrase, ContextGraph
from ctcdec.decode import PosteriorMatrix, PrefixBeamDecoder

BOOSTS = (0.0, 3.0, 5.0, 7.0, 10.0)
PHRASE = BiasingPhrase("ab", (1, 2))
NEGATIVE_PREFIX = BiasingPhrase("bc", (2, 3))


def positive_set(rng, n):
    out = []
    for _ in range(n):
        # log-uniform phrase mass: crossover boosts spread over the sweep
        a = math.exp(rng.uniform(math.log(1e-4), math.log(0.4)))
        b = math.exp(rng.uniform(math.log(1e-4), math.log(0.4)))
        rows = [
            [(1 - a) * 0.55, a, (1 - a) * 0.25, (1 - a) * 0.2],
            [(1 - b) * 0.45, (1 - b) * 0.15, b, (1 - b) * 0.4],
        ]
        out.append(PosteriorMatrix.from_probs(np.array(rows)))
    return out


def negative_set(rng, n):
    out = []
    for _ in range(n):
        b = rng.uniform(0.6, 0.85)
        rows = [
            [1 - b - 0.05, 0.05, b, 0.0],
            [0.001, 0.998, 0.001, 0.0],
        ]
        out.append(PosteriorMatrix.from_probs(np.array(rows)))
    return out


def contains(units, phrase):
    k = len(phrase)
    return any(tuple(units[i : i + k]) == phrase for i in range(len(units)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--utterances", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--beam", type=int, default=200)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    positives = positive_set(rng, args.utterances)
    negatives = negative_set(rng, args.utterances)

    print(f"{args.utterances} positive / {args.utterances} negative utterances, beam {args.beam}")
    print(f"{'boost':>6} {'pos hits':>9} {'hit rate':>9} {'neg refunded':>13} {'neg trailing':>13} {'refund != 0':>12}")
    for boost in BOOSTS:
        ctx = None if boost == 0 else ContextGraph([PHRASE], boost)
        hits = sum(
            contains(PrefixBeamDecoder(beam=args.beam, nbest=1, context=ctx).decode(m).best().units, PHRASE.units)
            for m in positives
        )
        neg_ctx = None if boost == 0 else ContextGraph([NEGATIVE_PREFIX], boost)
        refunded = trailing = bad_refunds = 0
        for m in negatives:
            top = PrefixBeamDecoder(beam=args.beam, nbest=1, context=neg_ctx).decode(m).best()
            if top.units and top.units[-1] == NEGATIVE_PREFIX.units[0]:
                trailing += 1  # ends on a live prefix: pending boost kept
            else:
                refunded += 1
                if top.score_context != 0.0:
                    bad_refunds += 1
        print(
            f"{boost:6.1f} {hits:9d} {hits / len(positives):9.2%} "
            f"{refunded:13d} {trailing:13d} {bad_refunds:12d}"
        )


if __name__ == "__main__":
    main()
