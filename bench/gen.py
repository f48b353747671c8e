"""Seeded input generator for the ctcdec benchmark.

Every input the benchmark feeds to ctcdec is written here as a file, from
one seed: unit tables, lexicons, bigram ARPA models, posterior matrices,
biasing phrases, rescoring tables, raw sample lists and payloads. The
references the benchmark scores against (transcripts, planted phrases,
record contents) are written next to them. The same seed and size give
byte-identical files.

    python3 bench/gen.py --workload lm_stream --seed 1 --out /tmp/lm
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("lm_stream", "lmfree_bias", "graph_build", "shard_io")

# Input sizes per workload. "full" is what the benchmark times; "tiny" is the
# reference check every run ends with, and the size the benchmark's tests use.
SIZES = {
    "lm_stream": {
        "full": {"units": 30, "words": 90, "utts": 160, "noisy_every": 4},
        "tiny": {"units": 12, "words": 24, "utts": 4, "noisy_every": 4},
    },
    "lmfree_bias": {
        "full": {"units": 200, "phrases": 100, "utts": 120, "planted_every": 3},
        "tiny": {"units": 40, "phrases": 12, "utts": 6, "planted_every": 3},
    },
    "graph_build": {
        "full": {"units": 60, "words": 300},
        "tiny": {"units": 12, "words": 30},
    },
    "shard_io": {
        "full": {"records": 512, "payload_bytes": 32768, "shard_size": 64},
        "tiny": {"records": 24, "payload_bytes": 2048, "shard_size": 8},
    },
}

# Share of the lexicon given a homophone or a prefix pronunciation, so that
# build_L has to insert disambiguation symbols.
_HOMOPHONE_SHARE = 0.05
_PREFIX_SHARE = 0.05
_BIGRAMS_PER_WORD = 6
_BIGRAM_MASS = 0.7
# Units spoken per utterance (planted phrase included). A fixed count keeps
# the work per utterance, and so a run's mix of chunk costs, the same for
# every seed.
UTT_UNITS = 14
NOISY_COMPETITORS = 2
PEAKY_COMPETITORS = 1
_FLOOR = 1e-9


def generate(workload: str, seed: int, out: str | Path, size: str = "full") -> dict:
    """Write the inputs of `workload` under `out`; return their manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    params = SIZES[workload][size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    manifest = {"workload": workload, "seed": seed, "size": size, **params}
    manifest.update(_WRITERS[workload](rng, out, params))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


# -- text formats ------------------------------------------------------------


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _units_text(units: list[str]) -> list[str]:
    return ["<blank> 0"] + [f"{u} {i}" for i, u in enumerate(units, 1)]


def _posterior_text(probs: np.ndarray) -> list[str]:
    """Natural-log rows with enough digits that each row's mass stays ~1."""
    logs = np.log(probs)
    lines = [f"{probs.shape[0]} {probs.shape[1]} logprob"]
    lines.extend(" ".join(f"{v:.9g}" for v in row) for row in logs.tolist())
    return lines


# -- lexicon and language model ----------------------------------------------


def _lexicon(rng: np.random.Generator, units: list[str], n_words: int) -> list[tuple[str, tuple[str, ...]]]:
    """Words with 2-4 unit pronunciations, a few homophones and prefixes."""
    n_homo = round(n_words * _HOMOPHONE_SHARE)
    n_prefix = round(n_words * _PREFIX_SHARE)
    n_plain = n_words - n_homo - n_prefix
    seen: set[tuple[str, ...]] = set()
    prons: list[tuple[str, ...]] = []
    while len(prons) < n_plain:
        length = int(rng.choice([2, 3, 3, 4]))
        pron: list[str] = []
        while len(pron) < length:
            unit = units[int(rng.integers(len(units)))]
            if not pron or pron[-1] != unit:
                pron.append(unit)
        if tuple(pron) not in seen and tuple(pron[:2]) not in seen:
            seen.add(tuple(pron))
            prons.append(tuple(pron))
    for _ in range(n_homo):
        prons.append(prons[int(rng.integers(n_plain))])
    long_prons = [p for p in prons[:n_plain] if len(p) >= 3]
    for _ in range(n_prefix):
        base = long_prons[int(rng.integers(len(long_prons)))]
        prons.append(base[: int(rng.integers(2, len(base)))])
    order = rng.permutation(len(prons))
    return [(f"w{i:04d}", prons[j]) for i, j in enumerate(order.tolist())]


def _bigram_lm(rng: np.random.Generator, words: list[str]) -> tuple[list[str], dict]:
    """A bigram ARPA with Katz-style backoff weights that keep it normalised."""
    n = len(words)
    vocab = words + ["</s>"]
    uni = rng.permutation(np.arange(1, n + 2)).astype(float) ** -0.8
    uni /= uni.sum()
    uni_p = dict(zip(vocab, uni.tolist()))
    successors: dict[str, dict[str, float]] = {}
    for history in ["<s>"] + words:
        picks = rng.choice(len(vocab), size=_BIGRAMS_PER_WORD, replace=False, p=uni)
        weights = rng.random(_BIGRAMS_PER_WORD) + 0.2
        weights = weights / weights.sum() * _BIGRAM_MASS
        successors[history] = {vocab[i]: float(w) for i, w in zip(picks.tolist(), weights.tolist())}
    backoff = {}
    for history, succ in successors.items():
        covered = sum(uni_p[w] for w in succ)
        backoff[history] = math.log10((1.0 - _BIGRAM_MASS) / (1.0 - covered))
    lines = ["\\data\\", f"ngram 1={n + 2}", f"ngram 2={sum(len(s) for s in successors.values())}", "", "\\1-grams:"]
    lines.append(f"-99.000000 <s> {backoff['<s>']:.6f}")
    for word in words:
        lines.append(f"{math.log10(uni_p[word]):.6f} {word} {backoff[word]:.6f}")
    lines.append(f"{math.log10(uni_p['</s>']):.6f} </s>")
    lines += ["", "\\2-grams:"]
    for history, succ in successors.items():
        for word in sorted(succ):
            lines.append(f"{math.log10(succ[word]):.6f} {history} {word}")
    lines += ["", "\\end\\"]
    return lines, successors


def _sample_sentence(rng: np.random.Generator, pron: dict[str, tuple], successors: dict, n_units: int) -> list[str]:
    """Words mostly along LM bigrams, chosen so their units add up to `n_units`."""
    sentence: list[str] = []
    history = "<s>"
    left = n_units
    while left > 0:
        def fits(word: str) -> bool:
            return len(pron[word]) <= left and left - len(pron[word]) != 1

        succ = [w for w in successors[history] if w != "</s>" and fits(w)]
        pool = succ if succ and rng.random() < 0.8 else [w for w in pron if fits(w)]
        pool = pool or [w for w in pron if len(pron[w]) <= left]
        if not pool:
            break
        word = pool[int(rng.integers(len(pool)))]
        sentence.append(word)
        left -= len(pron[word])
        history = word
    return sentence


# -- posteriors --------------------------------------------------------------


def _frames(rng: np.random.Generator, targets: list[int], vocab: int, noisy: bool, rivals: dict[int, int] | None = None) -> np.ndarray:
    """CTC-shaped posteriors: each target unit for 1-2 frames between blank runs.

    Peaky utterances put ~0.9 on the target and >0.985 on blank frames, so
    blank skipping drops most frames; noisy ones keep a low target margin
    and never cross the skip threshold. `rivals` maps a target to the unit
    that competes with it closely (planted phrases in the LM-free workload).
    """
    rows: list[np.ndarray] = []

    def row(kind: int, target: int) -> np.ndarray:
        # A fixed number of competitors per frame keeps the search cost of a
        # frame steady; every other unit sits at a floor far outside the beam.
        n_comp = NOISY_COMPETITORS if noisy else PEAKY_COMPETITORS
        pool = (rng.choice(vocab - 1, size=n_comp + 1, replace=False) + 1).tolist()
        competitors = [c for c in pool if c != target][:n_comp]
        p = np.full(vocab, _FLOOR)
        if kind == 0:  # blank frame
            main, main_p = 0, rng.uniform(0.7, 0.95) if noisy else rng.uniform(0.986, 0.999)
            rest = 1.0 - main_p
        else:
            main, main_p = target, rng.uniform(0.45, 0.6) if noisy else rng.uniform(0.82, 0.95)
            p[0] = rng.uniform(0.1, 0.2) if noisy else rng.uniform(0.01, 0.04)
            rest = 1.0 - main_p - p[0]
            rival = rivals.get(target) if rivals else None
            if rival is not None:
                share = rng.uniform(0.5, 0.75) * main_p
                p[rival] += share
                main_p -= share
        p[competitors] += rest * rng.dirichlet(np.full(n_comp, 2.0))
        p[main] += main_p
        return p

    for _ in range(int(rng.integers(2, 5))):
        rows.append(row(0, 0))
    for target in targets:
        for _ in range(int(rng.integers(1, 3))):
            rows.append(row(1, target))
        for _ in range(int(rng.integers(1, 4))):
            rows.append(row(0, 0))
    probs = np.array(rows)
    return probs / probs.sum(axis=1, keepdims=True)


# -- workloads ---------------------------------------------------------------


def _write_graph_inputs(rng: np.random.Generator, out: Path, params: dict) -> tuple[list[str], list, dict]:
    units = [f"p{i:02d}" for i in range(1, params["units"] + 1)]
    lexicon = _lexicon(rng, units, params["words"])
    arpa_lines, successors = _bigram_lm(rng, [w for w, _ in lexicon])
    _write(out / "units.txt", _units_text(units))
    _write(out / "lexicon.txt", [" ".join((w, *p)) for w, p in lexicon])
    _write(out / "lm.arpa", arpa_lines)
    return units, lexicon, successors


def _gen_graph_build(rng: np.random.Generator, out: Path, params: dict) -> dict:
    _write_graph_inputs(rng, out, params)
    return {"units_file": "units.txt", "lexicon_file": "lexicon.txt", "arpa_file": "lm.arpa"}


def _gen_lm_stream(rng: np.random.Generator, out: Path, params: dict) -> dict:
    units, lexicon, successors = _write_graph_inputs(rng, out, params)
    unit_id = {u: i for i, u in enumerate(units, 1)}
    pron = dict(lexicon)
    utts = []
    for i in range(params["utts"]):
        sentence = _sample_sentence(rng, pron, successors, UTT_UNITS)
        targets = [unit_id[u] for w in sentence for u in pron[w]]
        noisy = i % params["noisy_every"] == params["noisy_every"] - 1
        name = f"utt{i:04d}"
        _write(out / f"{name}.post", _posterior_text(_frames(rng, targets, len(units) + 1, noisy)))
        utts.append({"id": name, "post": f"{name}.post", "noisy": noisy, "words": sentence})
    _write(out / "transcripts.txt", [f"{u['id']} {' '.join(u['words'])}" for u in utts])
    return {"units_file": "units.txt", "lexicon_file": "lexicon.txt", "arpa_file": "lm.arpa", "utts": utts}


def _gen_lmfree_bias(rng: np.random.Generator, out: Path, params: dict) -> dict:
    n = params["units"]
    # A trimmed CJK character inventory: one character per unit, so that
    # char-mode biasing phrases split into units.
    units = [chr(0x4E00 + 7 * i) for i in range(n)]
    rival = rng.permutation(n) + 1
    rivals = {k: int(rival[k - 1]) for k in range(1, n + 1) if int(rival[k - 1]) != k}
    _write(out / "units.txt", _units_text(units))
    phrases = []
    while len(phrases) < params["phrases"]:
        ids = rng.choice(n, size=int(rng.integers(2, 5)), replace=False) + 1
        phrase = tuple(int(k) for k in ids)
        if phrase not in phrases:
            phrases.append(phrase)
    # Three lines name characters outside the table, so the loader skips them.
    unusable = ["xyz", "q" + units[0], "éè"]
    _write(out / "phrases.txt", ["".join(units[k - 1] for k in p) for p in phrases] + unusable)

    l2r, r2l, utts = [], [], []
    for i in range(params["utts"]):
        planted = phrases[int(rng.integers(len(phrases)))] if i % params["planted_every"] == 0 else ()
        ref = [int(k) for k in rng.integers(1, n + 1, size=UTT_UNITS - len(planted))]
        for j in range(1, len(ref)):
            if ref[j] == ref[j - 1]:
                ref[j] = ref[j] % n + 1
        at = int(rng.integers(0, len(ref) + 1))
        ref[at:at] = list(planted)
        name = f"utt{i:04d}"
        # Only the units of a planted phrase get a close rival, so the first
        # pass often misses the phrase unless biasing pulls it back.
        hard = {k: rivals[k] for k in planted if k in rivals} if planted else None
        _write(out / f"{name}.post", _posterior_text(_frames(rng, ref, n + 1, False, hard)))
        variants = [tuple(ref)]
        for j in rng.choice(len(ref), size=min(6, len(ref)), replace=False).tolist():
            if ref[j] in rivals:
                variants.append(tuple(ref[:j] + [rivals[ref[j]]] + ref[j + 1:]))
        for rank, seq in enumerate(variants):
            text = " ".join(units[k - 1] for k in seq)
            l2r.append(f"{-1.5 * len(seq) - 2.0 * rank - rng.uniform(0, 1):.4f} {text}")
            back = " ".join(units[k - 1] for k in reversed(seq))
            r2l.append(f"{-1.5 * len(seq) - 1.5 * rank - rng.uniform(0, 1):.4f} {back}")
        utts.append({
            "id": name,
            "post": f"{name}.post",
            "units": "".join(units[k - 1] for k in ref),
            "planted": "".join(units[k - 1] for k in planted) if planted else None,
        })
    _write(out / "l2r.txt", l2r)
    _write(out / "r2l.txt", r2l)
    _write(out / "transcripts.txt", [f"{u['id']} {u['units']}" for u in utts])
    _write(out / "planted.txt", [f"{u['id']} {u['planted']}" for u in utts if u["planted"]])
    return {
        "units_file": "units.txt",
        "phrases_file": "phrases.txt",
        "l2r_file": "l2r.txt",
        "r2l_file": "r2l.txt",
        "phrase_lines": len(phrases) + len(unusable),
        "utts": utts,
    }


def _gen_shard_io(rng: np.random.Generator, out: Path, params: dict) -> dict:
    raw = out / "raw"
    raw.mkdir(exist_ok=True)
    list_lines, meta_lines = [], []
    for i in range(params["records"]):
        key = f"rec{i:06d}"
        payload = rng.bytes(params["payload_bytes"])
        transcript = " ".join(f"w{int(k):04d}" for k in rng.integers(0, 300, size=int(rng.integers(4, 12))))
        (raw / f"{key}.wav").write_bytes(payload)
        (raw / f"{key}.txt").write_text(transcript, encoding="utf-8")
        list_lines.append(f"{key} {key}.wav {key}.txt")
        meta = {"speaker": f"spk{int(rng.integers(40)):03d}", "frames": str(int(rng.integers(200, 1600)))}
        meta_lines.append(f"{key} {json.dumps(meta, sort_keys=True)}")
    _write(raw / "raw.list", list_lines)
    _write(out / "metadata.txt", meta_lines)
    return {"raw_list": "raw/raw.list", "metadata_file": "metadata.txt"}


_WRITERS = {
    "lm_stream": _gen_lm_stream,
    "lmfree_bias": _gen_lmfree_bias,
    "graph_build": _gen_graph_build,
    "shard_io": _gen_shard_io,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", required=True, help="directory to write the inputs into")
    args = parser.parse_args()
    manifest = generate(args.workload, args.seed, args.out, args.size)
    print(f"wrote {args.workload} inputs for seed {args.seed} under {args.out} ({len(manifest)} manifest keys)")


if __name__ == "__main__":
    main()
