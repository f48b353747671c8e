"""Command-line front end.

Subcommands: build-graph, decode, rescore, pack, cat-shards.
Exit codes: 0 success, 1 runtime error, 2 usage or parse error.
Decode and rescore options resolve as flags > config file (`key = value`
lines) > the default of the stage that takes the option.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from pathlib import Path

from .arpa import read_arpa
from .context import ContextGraph, load_biasing_phrases
from .decode import (
    Hypothesis,
    NBestList,
    PosteriorMatrix,
    PrefixBeamDecoder,
    StreamingDecoder,
    WfstBeamDecoder,
)
from .errors import (
    ConfigurationError, EngineError, ParseError, numbered_lines, parse_count, parse_number, read_text, write_atomic
)
from .fst import WeightedFst
from .graph import build_graph, read_units, units_of
from .lexicon import read_lexicon
from .rescore import FusionWeights, TableScorer, rescore_nbest
from .symbols import BLANK_SYMBOL, SymbolTable
from .uio import RawSampleReader, pack_shards, read_shards, shard_list_from_manifest

# Option -> (the stage that takes it, its parameter name there, help).
# An option's default and validation are that stage's own.
_OPTIONS = {
    "beam": (PrefixBeamDecoder, "beam", "prefix-search hypothesis-count beam"),
    "nbest": (StreamingDecoder, "nbest", "hypotheses to output per utterance"),
    "acoustic_scale": (WfstBeamDecoder, "acoustic_scale", "multiplier on acoustic log-probabilities"),
    "lm_scale": (WfstBeamDecoder, "lm_scale", "multiplier on decoding-graph weights"),
    "blank_skip_threshold": (
        StreamingDecoder, "blank_skip_threshold", "skip frames whose blank probability exceeds this"
    ),
    "context_score": (ContextGraph, "boost", "per-unit biasing boost; 0 disables biasing"),
    "alpha": (FusionWeights, "alpha", "right-to-left share of the rescoring fusion, in [0,1]"),
    "ctc_weight": (FusionWeights, "ctc_weight", "first-pass score weight in the rescoring fusion"),
    "word_penalty": (WfstBeamDecoder, "word_penalty", "cost added per emitted word (WFST search)"),
    "score_beam": (WfstBeamDecoder, "score_beam", "WFST pruning beam in score units"),
    "max_active": (WfstBeamDecoder, "max_active", "WFST max active search tokens"),
}


def _default(name: str):
    owner, param, _ = _OPTIONS[name]
    return inspect.signature(owner).parameters[param].default


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctcdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="compile T/L/G and the TLG decoding graph")
    p.add_argument("--units", required=True, help="acoustic token table (`<blank> 0` required)")
    p.add_argument("--lexicon", help="lexicon file: `word unit1 unit2 ...` per line")
    p.add_argument("--arpa", help="ARPA n-gram LM; omit for an LM-free (T only) build")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--strict-arpa", action="store_true", help="reject ARPA files with missing prefixes")
    p.add_argument("--det-budget", type=_flag_type(int), help="determinization state budget override")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("decode", help="first-pass decoding (+ optional rescoring)")
    p.add_argument("posteriors", nargs="+", help="posterior files (`frames tokens domain` header)")
    p.add_argument("--graph-dir", help="build-graph output dir; selects WFST search over TLG")
    p.add_argument("--units", help="acoustic token table (LM-free mode)")
    p.add_argument("--context-file", help="biasing phrases, one per line")
    p.add_argument("--output", help="n-best output file (default stdout)")
    p.add_argument("--config", help="`key = value` option file")
    p.add_argument("--l2r-table", help="left-to-right scorer table for rescoring")
    p.add_argument("--r2l-table", help="right-to-left scorer table for rescoring")
    _add_option_flags(p, _OPTIONS)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("rescore", help="rescore a decode output file with scorer tables")
    p.add_argument("nbest", help="n-best file produced by `ctcdec decode`")
    p.add_argument("--l2r-table", required=True)
    p.add_argument("--r2l-table", required=True)
    p.add_argument("--output", help="rescored output file (default stdout)")
    p.add_argument("--config", help="`key = value` option file")
    _add_option_flags(p, ("alpha", "ctc_weight"))
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("pack", help="pack a raw sample list into tar shards")
    p.add_argument("manifest", help="raw list: `key payload_path ...` per line")
    p.add_argument("--out", required=True, help="shard output directory")
    p.add_argument("--shard-size", type=_flag_type(int), default=1000, help="samples per shard (default: 1000)")
    p.add_argument("--gzip", action="store_true", help="gzip each shard")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("cat-shards", help="list record keys and byte sizes in shards")
    p.add_argument("shards", nargs="+", help="shard tars and/or shard manifests")
    p.set_defaults(func=cmd_cat_shards)

    return parser


def _add_option_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        default = _default(name)
        p.add_argument("--" + name.replace("_", "-"), type=_flag_type(type(default)), default=None,
                       help=f"{_OPTIONS[name][2]} (default: {default})")


def _flag_type(kind: type):
    """An argparse `type` reading `kind` by `parse_number`, named for argparse's errors."""
    def read(text: str):
        return parse_number(text, kind)
    read.__name__ = kind.__name__
    return read


def read_config(path: str | Path) -> dict[str, object]:
    """`key = value` lines. A key may be any option of `decode` or `rescore`,
    so one file can serve both; any other key, or a value its option's type
    cannot take, is a parse error."""
    values: dict[str, object] = {}
    source = str(path)
    for lineno, line in numbered_lines(read_text(path), comments=True):
        if "=" not in line:
            raise ParseError("expected 'key = value'", source=source, line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ParseError(f"unknown option {key!r}", source=source, line=lineno)
        value = value.strip()
        try:
            values[key] = parse_number(value, type(_default(key)))
        except ValueError:
            raise ParseError(f"bad value for {key}: {value!r}", source=source, line=lineno) from None
    return values


def resolve_options(args: argparse.Namespace, config: dict[str, object], owner) -> dict:
    """The options `owner` takes, by parameter name: flag > config > default."""
    values = {}
    for name, (stage, param, _) in _OPTIONS.items():
        if stage is not owner:
            continue
        flag = getattr(args, name, None)
        if flag is not None:
            values[param] = flag
        elif name in config:
            values[param] = config[name]
        else:
            values[param] = _default(name)
    return values


# -- build-graph -------------------------------------------------------------


def cmd_build_graph(args: argparse.Namespace) -> int:
    if bool(args.arpa) != bool(args.lexicon):
        given, needed = ("--arpa", "--lexicon") if args.arpa else ("--lexicon", "--arpa")
        print(f"error: {given} requires {needed}", file=sys.stderr)
        return 2
    # Parse every input and build every machine before writing anything.
    tokens = read_units(args.units)
    lex = read_lexicon(args.lexicon) if args.lexicon else None
    model = read_arpa(args.arpa, strict=args.strict_arpa) if args.arpa else None
    machines = build_graph(units_of(tokens), lex, model, state_budget=args.det_budget)

    # Each file is replaced whole; a failed write leaves the old one.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tokens.write(out / "tokens.txt")
    if model is not None:
        machines["L"].isymbols.write(out / "units.txt")
        machines["G"].osymbols.write(out / "words.txt")
    for name, fst in machines.items():
        fst.write(out / f"{name}.fst")
    for name, fst in machines.items():
        _report(name, fst)
    return 0


def _report(name: str, fst: WeightedFst) -> None:
    print(f"{name}: {fst.num_states()} states, {fst.num_arcs()} arcs")


# -- decode -------------------------------------------------------------------


def cmd_decode(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    common, prefix_opts, wfst_opts, context_opts, fusion_opts = (
        resolve_options(args, config, owner)
        for owner in (StreamingDecoder, PrefixBeamDecoder, WfstBeamDecoder, ContextGraph, FusionWeights)
    )

    graph = None
    words = None
    if args.graph_dir:
        graph_dir = Path(args.graph_dir)
        tokens = read_units(graph_dir / "tokens.txt")
        words = SymbolTable.read(graph_dir / "words.txt")
        isymbols = SymbolTable.with_epsilon([BLANK_SYMBOL, *units_of(tokens)])
        graph = WeightedFst.read(graph_dir / "TLG.fst", isymbols=isymbols, osymbols=words)
        if graph.is_empty():
            raise ConfigurationError(f"decoding graph {graph_dir / 'TLG.fst'} is empty")
    elif args.units:
        tokens = read_units(args.units)
    else:
        print("error: decode needs --graph-dir or --units", file=sys.stderr)
        return 2

    context = None
    if args.context_file and context_opts["boost"] != 0:
        if graph is not None:
            phrases = load_biasing_phrases(args.context_file, words, mode="word")
        else:
            phrases = load_biasing_phrases(args.context_file, tokens, mode="char")
        context = ContextGraph(phrases, **context_opts)

    scorers = None
    if args.l2r_table or args.r2l_table:
        if not (args.l2r_table and args.r2l_table):
            print("error: rescoring needs both --l2r-table and --r2l-table", file=sys.stderr)
            return 2
        weights = FusionWeights(**fusion_opts)
        scorers = (
            TableScorer.from_file(args.l2r_table, tokens, direction="l2r"),
            TableScorer.from_file(args.r2l_table, tokens, direction="r2l"),
        )

    results = []
    for path in args.posteriors:
        if graph is not None:
            decoder = WfstBeamDecoder(graph, context=context, **common, **wfst_opts)
        else:
            decoder = PrefixBeamDecoder(context=context, **common, **prefix_opts)
        post = PosteriorMatrix.read(path)
        if post.tokens != len(tokens):
            raise ConfigurationError(
                f"{path}: posterior has {post.tokens} tokens but the units table has {len(tokens)}"
            )
        results.append((Path(path).stem, decoder.decode(post)))

    blocks = [f"# utt {utt}\n{nbest.to_text(tokens)}" for utt, nbest in results]
    _emit("".join(blocks), args.output)

    if scorers is not None:
        rescored_blocks = []
        for utt, nbest in results:
            rescored = rescore_nbest(nbest, scorers[0], scorers[1], weights)
            rescored_blocks.append(f"# utt {utt}\n{rescored.to_text(tokens)}")
        target = f"{args.output}.rescored" if args.output else None
        _emit("".join(rescored_blocks), target)
    return 0


def _emit(text: str, output: str | None) -> None:
    if output:
        write_atomic(output, [text.encode("utf-8")])
    else:
        sys.stdout.write(text)


# -- rescore ------------------------------------------------------------------


def read_nbest_file(path: str | Path) -> list[tuple[str, NBestList]]:
    """Parse `ctcdec decode` output back into per-utterance n-best lists.

    Token sequences come back as string tuples, which is what file-backed
    scorer tables key on.
    """
    sections: list[tuple[str, NBestList]] = []
    current: NBestList | None = None
    source = str(path)
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        if not raw.strip():
            continue
        if raw.startswith("# utt "):
            current = NBestList()
            sections.append((raw[len("# utt "):].strip(), current))
            continue
        if current is None:
            raise ParseError("hypothesis line before any '# utt' header", source=source, line=lineno)
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ParseError("expected 'scores<TAB>tokens<TAB>words'", source=source, line=lineno)
        head = parts[0].split()
        if len(head) != 5:
            raise ParseError("expected 'rank total ctc context lm'", source=source, line=lineno)
        rank = len(current) + 1
        try:
            found = parse_count(head[0])
        except ValueError:
            found = None
        if found != rank:
            raise ParseError(f"expected rank {rank}, found {head[0]!r}", source=source, line=lineno)
        try:
            total, ctc, ctx, lm = map(parse_number, head[1:])
        except ValueError:
            raise ParseError("non-numeric score", source=source, line=lineno) from None
        if not all(v < math.inf for v in (total, ctc, ctx, lm)):  # -inf marks an empty result
            raise ParseError("score is NaN or +inf", source=source, line=lineno)
        current.hyps.append(
            Hypothesis(
                units=tuple(parts[1].split()),
                total_score=total,
                score_ctc=ctc,
                score_context=ctx,
                score_lm=lm,
                words=tuple(parts[2].split()),
            )
        )
    return sections


def cmd_rescore(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    weights = FusionWeights(**resolve_options(args, config, FusionWeights))
    l2r = TableScorer.from_file(args.l2r_table, direction="l2r")
    r2l = TableScorer.from_file(args.r2l_table, direction="r2l")
    blocks = []
    for utt, nbest in read_nbest_file(args.nbest):
        rescored = rescore_nbest(nbest, l2r, r2l, weights)
        blocks.append(f"# utt {utt}\n{rescored.to_text()}")
    _emit("".join(blocks), args.output)
    return 0


# -- shard tools --------------------------------------------------------------


def cmd_pack(args: argparse.Namespace) -> int:
    reader = RawSampleReader.from_file(args.manifest)
    shards = pack_shards(iter(reader), args.shard_size, args.out, compress=args.gzip)
    print(f"packed {len(reader)} samples into {len(shards)} shards under {args.out}")
    return 0


def cmd_cat_shards(args: argparse.Namespace) -> int:
    locators: list[str] = []
    for item in args.shards:
        if item.endswith((".tar", ".tar.gz", ".tgz")):
            locators.append(item)
        else:
            locators.extend(shard_list_from_manifest(item))
    for record in read_shards(locators):
        print(f"{record.key} {record.total_bytes()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
