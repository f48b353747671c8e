"""Command-line front end.

Subcommands: build-graph, decode, rescore, pack, cat-shards.
Exit codes: 0 success, 1 runtime error, 2 usage or parse error.
Decode and rescore options resolve as flags > config file (`key = value`
lines) > the default of the stage that takes the option.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .arpa import read_arpa
from .context import ContextGraph, load_biasing_phrases
from .decode import (
    PosteriorMatrix,
    PrefixBeamDecoder,
    StreamingDecoder,
    WfstBeamDecoder,
    nbest_file_text,
    read_nbest_file,
)
from .errors import ConfigurationError, EngineError, ParseError, numbered_lines, parse_number, read_text, write_atomic
from .graph import build_graph, read_graph, read_units, units_of, write_graph
from .lexicon import read_lexicon
from .rescore import FusionWeights, TableScorer, rescore_nbest
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
    p.add_argument("--strict-arpa", action="store_true", help="reject ARPA files with missing prefixes (needs --arpa)")
    p.add_argument("--det-budget", type=_flag_type(int), help="determinization state budget override (needs --arpa)")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("decode", help="first-pass decoding (+ optional rescoring)")
    p.add_argument("posteriors", nargs="+", help="posterior files (`frames tokens domain` header)")
    p.add_argument("--graph-dir", help="build-graph output dir; selects WFST search over TLG")
    p.add_argument("--units", help="acoustic token table (LM-free mode; not with --graph-dir)")
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
    if args.arpa and not args.lexicon:
        print("error: --arpa requires --lexicon", file=sys.stderr)
        return 2
    if not args.arpa:
        # These shape only the LM half of the build, which --arpa turns on.
        for flag, given in (
            ("--lexicon", args.lexicon is not None),
            ("--strict-arpa", args.strict_arpa),
            ("--det-budget", args.det_budget is not None),
        ):
            if given:
                print(f"error: {flag} requires --arpa", file=sys.stderr)
                return 2
    # Parse every input and build every machine before writing anything.
    tokens = read_units(args.units)
    lex = read_lexicon(args.lexicon) if args.lexicon else None
    model = read_arpa(args.arpa, strict=args.strict_arpa) if args.arpa else None
    machines = build_graph(units_of(tokens), lex, model, state_budget=args.det_budget)
    write_graph(args.out, tokens, machines)
    for name, fst in machines.items():
        print(f"{name}: {fst.num_states()} states, {fst.num_arcs()} arcs")
    return 0


# -- decode -------------------------------------------------------------------


def cmd_decode(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    common, prefix_opts, wfst_opts, context_opts, fusion_opts = (
        resolve_options(args, config, owner)
        for owner in (StreamingDecoder, PrefixBeamDecoder, WfstBeamDecoder, ContextGraph, FusionWeights)
    )

    graph = None
    if args.graph_dir and args.units:
        print("error: --units does not go with --graph-dir, which holds its own units", file=sys.stderr)
        return 2
    if args.graph_dir:
        tokens, graph = read_graph(args.graph_dir)
    elif args.units:
        tokens = read_units(args.units)
    else:
        print("error: decode needs --graph-dir or --units", file=sys.stderr)
        return 2

    context = None
    if args.context_file and context_opts["boost"] != 0:
        if graph is not None:
            phrases = load_biasing_phrases(args.context_file, graph.osymbols, mode="word")
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
    _emit(nbest_file_text(results, tokens), args.output)

    if scorers is not None:
        rescored = [(utt, rescore_nbest(nbest, *scorers, weights)) for utt, nbest in results]
        _emit(nbest_file_text(rescored, tokens), f"{args.output}.rescored" if args.output else None)
    return 0


def _emit(text: str, output: str | None) -> None:
    if output:
        write_atomic(output, [text.encode("utf-8")])
    else:
        sys.stdout.write(text)


# -- rescore ------------------------------------------------------------------


def cmd_rescore(args: argparse.Namespace) -> int:
    config = read_config(args.config) if args.config else {}
    weights = FusionWeights(**resolve_options(args, config, FusionWeights))
    l2r = TableScorer.from_file(args.l2r_table, direction="l2r")
    r2l = TableScorer.from_file(args.r2l_table, direction="r2l")
    rescored = [(utt, rescore_nbest(nbest, l2r, r2l, weights)) for utt, nbest in read_nbest_file(args.nbest)]
    _emit(nbest_file_text(rescored), args.output)
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
