"""Property tests for the text parsers: posteriors, FSTs, ARPA, lexicons,
symbol tables, n-best lists, shard manifests, raw sample lists, config
files, scorer tables and biasing phrase files.

Valid files are mutated token by token: tokens are dropped or repeated,
and values such as `nan`, `1_0`, `#`, huge integers and non-ASCII digits
are inserted or substituted, along with blank lines; ARPA files also get
section headers and `ngram N=` counts, good and bad. The symbol-table,
n-best, manifest, raw-list, config, scorer-table and phrase files are
then written to disk with bytes that are not UTF-8 inserted, and read
back by their file readers. Whatever the input, a parser may raise only
`EngineError` subclasses, and a `ParseError` about a line cites it; a
file that is not UTF-8 is a `ParseError` citing the line of its first
bad byte. A posterior file the parser accepts must give the same float64
bytes as Python's `float()` on each value, and every number in an
accepted ARPA file, symbol table or scorer table follows the ASCII rule:
ASCII without `_`, and counts and ids of ASCII digits only.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctcdec.arpa import parse_arpa, read_arpa
from ctcdec.cli import _OPTIONS, _default, read_config, read_nbest_file
from ctcdec.context import load_biasing_phrases
from ctcdec.decode import PosteriorMatrix
from ctcdec.errors import EngineError, ParseError
from ctcdec.fst import WeightedFst
from ctcdec.lexicon import parse_lexicon, read_lexicon
from ctcdec.rescore import TableScorer
from ctcdec.symbols import SymbolTable
from ctcdec.uio import RawSampleReader, shard_list_from_manifest

VALUES = [
    "nan", "inf", "-inf", "+inf", "1_0", "#", "0x10", "1e999", "-0", "0.25",
    "99999999999999999999", "-99999999999999999999", "1000000000", "7",
    "١", "٥e-1", "\xa0",
]

ARPA_VALUES = VALUES + [
    "\\data\\", "\\end\\", "\\1-grams:", "\\2-grams:", "\\3-grams:", "\\0-grams:", "\\-1-grams:",
    "\\x-grams:", "\\1-grams", "ngram", "1=3", "2=2", "3=1", "0=0", "1=", "=2", "1=x", "x=1", "2=-1",
    "1=99999999999999999999", "<s>", "</s>", "a",
]


def _mutation(values):
    return st.tuples(
        st.sampled_from(["drop", "repeat", "insert", "replace", "blank_line"]),
        st.integers(0, 1000),
        st.integers(0, 1000),
        st.sampled_from(values),
    )


MUTATION = _mutation(VALUES)

# Values for the n-best, manifest, raw-list and config files: their own
# field shapes and the numbers they must refuse.
FILE_VALUES = VALUES + [
    "\t", "# utt", "-1_0.5", "\u0663", "\uff12\uff10", "+5", "-5", "=", "beam", "nbest", "alpha", "beam=4",
    "/abs/x.wav", "d/x.wav", "a.tar",
]

# Byte runs that are not UTF-8 wherever they are put: a lone continuation
# byte, a cut-off sequence, an encoded surrogate, an overlong form.
BAD_BYTES = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe4\xb8", b"\xed\xa0\x80", b"\xc0\xaf"]


def _mutate(text: str, mutations) -> str:
    lines = [re.findall(r"\t|[^\s]+", line) for line in text.splitlines()]  # a tab is a token of its own
    for kind, i, j, value in mutations:
        if kind == "blank_line":
            lines.insert(i % (len(lines) + 1), [" "])
            continue
        if not lines:
            continue
        line = lines[i % len(lines)]
        if kind == "insert":
            line.insert(j % (len(line) + 1), value)
        elif not line:
            continue
        elif kind == "drop":
            del line[j % len(line)]
        elif kind == "repeat":
            k = j % len(line)
            line.insert(k, line[k])
        else:
            line[j % len(line)] = value
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def _posterior_text(domain: str) -> str:
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(3), size=4)
    probs[1, 2] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        values = probs if domain == "prob" else np.log(probs)
    return f"4 3 {domain}\n" + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in values)


def _float_parse(text: str) -> np.ndarray:
    """The values as Python's `float()` reads them, in the header's domain."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    frames, tokens, domain = lines[0]
    rows = np.array([[float(v) for v in line] for line in lines[1:]], dtype=np.float64)
    rows = rows.reshape(int(frames), int(tokens))
    with np.errstate(divide="ignore"):
        return np.log(rows) if domain == "prob" else rows


def _fst_text() -> str:
    return "0 1 1 1 0.0\n0 2 2 2 0.5\n1 3 3 0 1.25\n2 3 0 3 inf\n3 0.0\n1 2.5\n"


def _arpa_text() -> str:
    return (
        "some header\n\\data\\\nngram 1=3\nngram 2=2\n\n\\1-grams:\n-0.5 <s> -0.25\n-0.7 a -0.1\n"
        "-0.9 </s>\n\n\\2-grams:\n-0.2 <s> a\n-0.3 a </s>\n\n\\end\\\n"
    )


def _lexicon_text() -> str:
    return "# words\nab a b\nab a b #1\nabc a b c\nc c\n"


def _arpa_numbers(text: str) -> tuple[list[str], list[str]]:
    """The fields of ARPA text that are read as numbers, following the
    parser's sections: orders and `ngram N=M` counts, then log
    probabilities and backoff weights."""
    counts, scores, section, order = [], [], "preamble", 0
    for line in filter(None, map(str.strip, text.splitlines())):
        if line in ("\\data\\", "\\end\\"):
            section = line
        elif line.startswith("\\") and line.endswith("-grams:"):
            section, order = "ngrams", line[1:-len("-grams:")].strip()
            counts.append(order)
            order = int(order)
        elif section == "\\data\\":
            counts += [part.strip() for part in line[len("ngram "):].split("=", 1)]
        elif section == "ngrams":
            parts = line.split()
            scores += [parts[0], parts[-1]] if len(parts) == order + 2 else [parts[0]]
    return counts, scores


# The ARPA checks made on the whole file, which cite no line.
_WHOLE_FILE = ("missing \\data\\ section", "missing \\end\\ marker", "were present", "was not declared")


def _tables():
    return SymbolTable.with_epsilon(["a", "b", "c"]), SymbolTable.with_epsilon(["x", "y", "z"])


@given(st.sampled_from(["prob", "logprob"]), st.lists(MUTATION, max_size=6))
def test_posterior_parser_raises_only_engine_errors(domain, mutations):
    text = _mutate(_posterior_text(domain), mutations)
    try:
        post = PosteriorMatrix.from_text(text, source="p")
    except ParseError as exc:
        assert exc.line is not None or "rows follow" in str(exc), str(exc)
        return
    except EngineError:
        return
    assert post.logprobs.tobytes() == _float_parse(text).tobytes()


@given(st.booleans(), st.lists(MUTATION, max_size=6))
def test_fst_parser_raises_only_engine_errors(with_tables, mutations):
    text = _mutate(_fst_text(), mutations)
    isymbols, osymbols = _tables() if with_tables else (None, None)
    try:
        fst = WeightedFst.from_text(text, isymbols, osymbols, source="f")
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        return
    except EngineError:
        return
    assert fst.num_states() <= 2 * len(text.splitlines())


@given(st.booleans(), st.lists(_mutation(ARPA_VALUES), max_size=6))
@example(False, [("replace", 6, 0, "1_0")])
@example(False, [("replace", 6, 2, "\u0665e-1")])
@example(True, [("replace", 2, 1, "1=0_3")])
def test_arpa_parser_raises_only_engine_errors(strict, mutations):
    text = _mutate(_arpa_text(), mutations)
    try:
        model = parse_arpa(text, strict=strict, name="lm")
    except ParseError as exc:
        assert exc.line is not None or any(part in str(exc) for part in _WHOLE_FILE), str(exc)
        return
    except EngineError:
        return
    counts, scores = _arpa_numbers(text)
    assert all(count.isascii() and count.isdigit() for count in counts), counts
    assert all(score.isascii() and "_" not in score for score in scores), scores
    for order, entries in model.orders.items():
        assert order >= 1
        for entry in entries:
            assert entry.logprob < float("inf") and (entry.backoff is None or entry.backoff < float("inf"))


@given(st.lists(MUTATION, max_size=6))
def test_lexicon_parser_raises_only_engine_errors(mutations):
    text = _mutate(_lexicon_text(), mutations)
    try:
        lexicon = parse_lexicon(text, name="lex")
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        return
    except EngineError:
        return
    assert len(set(lexicon.entries)) == len(lexicon.entries)
    assert all(pron and not word.startswith("#") for word, pron in lexicon.entries)


def test_unmutated_files_parse():
    for domain in ("prob", "logprob"):
        text = _posterior_text(domain)
        assert PosteriorMatrix.from_text(text).logprobs.tobytes() == _float_parse(text).tobytes()
    fst = WeightedFst.from_text(_fst_text(), *_tables())
    assert fst.num_states() == 4 and fst.num_arcs() == 4
    model = parse_arpa(_arpa_text(), strict=True)
    assert [len(model.entries(order)) for order in (1, 2)] == [3, 2]
    assert len(parse_lexicon(_lexicon_text()).entries) == 4


# -- file readers ------------------------------------------------------------


def _symbols_text() -> str:
    return "<eps> 0\na 1\n\nb 2\n#0 3\n"


def _nbest_text() -> str:
    return "# utt one\n1 -1.5 -1.5 0 0\ta b\tab\n2 -2.25 -2 0 -0.25\tb\tb\n\n# utt two\n1 -inf -inf 0 0\t\t\n"


def _manifest_text() -> str:
    return "shard_00000.tar 2 3072\nshard_00001.tar 1 2048\n"


def _raw_list_text() -> str:
    return "# key payloads\ns0 s0.wav s0.txt\ns1 /abs/s1.wav\ns2 d/s2.wav\n"


def _config_text() -> str:
    return "# decode\nbeam = 4\nnbest = 2\nalpha = 0.5\nscore_beam = 16.0\n"


def _scorer_text() -> str:
    return "# l2r\n-1.5 a b\n-inf b\n0.25 a c\n"


def _phrase_text() -> str:
    return "ab\nb a\nba\n"


def _write(directory: Path, text: str, inserts) -> tuple[Path, bytes]:
    """`text` as UTF-8 with each (position, bytes) of `inserts` put in, written to a file."""
    data = bytearray(text.encode("utf-8"))
    for at, run in inserts:
        k = at % (len(data) + 1)
        data[k:k] = run
    path = directory / "input.txt"
    path.write_bytes(bytes(data))
    return path, bytes(data)


def _read_or_error(read, path: Path, data: bytes):
    """`read(path)`, or None after checking the `EngineError` it raised."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        first_bad = data[: exc.start].count(b"\n") + 1
    else:
        first_bad = None
    try:
        result = read(path)
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        assert first_bad is None or (exc.line, exc.source) == (first_bad, str(path)), str(exc)
        return None
    except EngineError:
        assert first_bad is None
        return None
    assert first_bad is None, "a file that is not UTF-8 was read"
    return result


INSERTS = st.lists(st.tuples(st.integers(0, 1000), st.sampled_from(BAD_BYTES)), max_size=2)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("parser_properties")


@given(st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
@example([("replace", 1, 1, "1_0")], [])
@example([("replace", 3, 1, "\u0662")], [])
@example([("replace", 1, 1, "+1")], [])
def test_symbol_table_reader_raises_only_engine_errors(scratch, mutations, inserts):
    path, data = _write(scratch, _mutate(_symbols_text(), mutations), inserts)
    table = _read_or_error(SymbolTable.read, path, data)
    if table is not None:
        lines = [line.split() for line in data.decode("utf-8").splitlines() if line.strip()]
        assert all(sym_id.isascii() and sym_id.isdigit() for _, sym_id in lines)
        assert list(table) == sorted({(symbol, int(sym_id)) for symbol, sym_id in lines}, key=lambda pair: pair[1])


@given(st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
def test_nbest_reader_raises_only_engine_errors(scratch, mutations, inserts):
    path, data = _write(scratch, _mutate(_nbest_text(), mutations), inserts)
    sections = _read_or_error(read_nbest_file, path, data)
    for _, nbest in sections or ():
        for hyp in nbest.hyps:
            scores = (hyp.total_score, hyp.score_ctc, hyp.score_context, hyp.score_lm)
            assert all(isinstance(v, float) and v < float("inf") for v in scores)


@given(st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
def test_shard_manifest_reader_raises_only_engine_errors(scratch, mutations, inserts):
    path, data = _write(scratch, _mutate(_manifest_text(), mutations), inserts)
    locators = _read_or_error(shard_list_from_manifest, path, data)
    if locators is not None:
        lines = [line.split() for line in data.decode("utf-8").splitlines() if line.split()]
        assert all(count.isascii() and count.isdigit() for line in lines for count in line[1:])
        assert locators == [str(scratch / line[0]) for line in lines]


@given(st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
def test_raw_list_reader_raises_only_engine_errors(scratch, mutations, inserts):
    path, data = _write(scratch, _mutate(_raw_list_text(), mutations), inserts)
    reader = _read_or_error(RawSampleReader.from_file, path, data)
    if reader is not None:
        assert all(key and paths for key, paths in reader.entries)


@given(st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
def test_config_reader_raises_only_engine_errors(scratch, mutations, inserts):
    path, data = _write(scratch, _mutate(_config_text(), mutations), inserts)
    values = _read_or_error(read_config, path, data)
    for key, value in (values or {}).items():
        assert key in _OPTIONS and type(value) is type(_default(key))


_UNITS = SymbolTable.with_epsilon(["a", "b"])


@given(st.booleans(), st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
def test_scorer_table_reader_raises_only_engine_errors(scratch, with_table, mutations, inserts):
    path, data = _write(scratch, _mutate(_scorer_text(), mutations), inserts)
    scorer = _read_or_error(lambda p: TableScorer.from_file(p, _UNITS if with_table else None), path, data)
    if scorer is not None:
        lines = [line.split() for line in data.decode("utf-8").splitlines()]
        heads = [parts[0] for parts in lines if parts and not parts[0].startswith("#")]
        assert all(head.isascii() and "_" not in head for head in heads)
        assert all(isinstance(v, float) and v < float("inf") for v in scorer.scores.values())


@given(st.sampled_from(["char", "word"]), st.lists(_mutation(FILE_VALUES), max_size=6), INSERTS)
def test_biasing_phrase_reader_raises_only_engine_errors(scratch, mode, mutations, inserts):
    path, data = _write(scratch, _mutate(_phrase_text(), mutations), inserts)
    phrases = _read_or_error(lambda p: load_biasing_phrases(p, _UNITS, mode), path, data)
    for phrase in phrases or ():
        assert phrase.units and all(_UNITS.symbol_of(unit) in ("a", "b") for unit in phrase.units)


def test_unmutated_files_read(tmp_path):
    def unmutated(text: str) -> Path:
        return _write(tmp_path, _mutate(text, []), [])[0]

    assert list(SymbolTable.read(unmutated(_symbols_text()))) == [("<eps>", 0), ("a", 1), ("b", 2), ("#0", 3)]
    assert [len(nbest) for _, nbest in read_nbest_file(unmutated(_nbest_text()))] == [2, 1]
    assert len(shard_list_from_manifest(unmutated(_manifest_text()))) == 2
    assert len(RawSampleReader.from_file(unmutated(_raw_list_text()))) == 3
    assert read_config(unmutated(_config_text())) == {"beam": 4, "nbest": 2, "alpha": 0.5, "score_beam": 16.0}
    assert len(TableScorer.from_file(unmutated(_scorer_text())).scores) == 3
    assert [p.units for p in load_biasing_phrases(unmutated(_phrase_text()), _UNITS, "word")] == [(2, 1)]
    assert len(load_biasing_phrases(unmutated(_phrase_text()), _UNITS, "char")) == 3

# Every text-file reader, with a valid first line and a second line to hold a bad byte.
_READERS = {
    "posterior": (PosteriorMatrix.read, "1 2 prob\n0.5 0.5\n"),
    "fst": (WeightedFst.read, "0 1 1 1 0.5\n1 0.0\n"),
    "symbols": (SymbolTable.read, "<eps> 0\na 1\n"),
    "lexicon": (read_lexicon, "ab a b\nba b a\n"),
    "arpa": (read_arpa, _arpa_text()),
    "config": (read_config, "beam = 4\nnbest = 2\n"),
    "nbest": (read_nbest_file, "# utt one\n1 -1 -1 0 0\ta\ta\n"),
    "shard_manifest": (shard_list_from_manifest, "a.tar 1 10\nb.tar 1 10\n"),
    "raw_list": (RawSampleReader.from_file, "s0 s0.wav\ns1 s1.wav\n"),
    "scorer_table": (TableScorer.from_file, "1.0 a b\n-2.0 b\n"),
    "biasing_phrases": (lambda path: load_biasing_phrases(path, _UNITS, "char"), "ab\nba\n"),
}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_every_text_reader_cites_the_first_byte_that_is_not_utf8(tmp_path, name):
    read, text = _READERS[name]
    read(_write(tmp_path, text, [])[0])  # the file itself is valid
    second = text.index("\n") + 1
    for run in BAD_BYTES:
        path, _ = _write(tmp_path, text, [(second + 1, run), (len(text), b"\xff")])
        with pytest.raises(ParseError) as caught:
            read(path)
        assert (caught.value.source, caught.value.line) == (str(path), 2)
        assert f"byte 0x{run[0]:02x} is not UTF-8" in str(caught.value)
