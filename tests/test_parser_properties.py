"""Property tests for the posterior, FST, ARPA and lexicon text parsers.

Valid files are mutated token by token: tokens are dropped or repeated,
and values such as `nan`, `1_0`, `#`, huge integers and non-ASCII digits
are inserted or substituted, along with blank lines; ARPA files also get
section headers and `ngram N=` counts, good and bad. Whatever the input,
a parser may raise only `EngineError` subclasses, and a `ParseError`
about a line cites it. A posterior file the parser accepts must give the
same float64 bytes as Python's `float()` on each value.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ctcdec.arpa import parse_arpa
from ctcdec.decode import PosteriorMatrix
from ctcdec.errors import EngineError, ParseError
from ctcdec.fst import WeightedFst
from ctcdec.lexicon import parse_lexicon
from ctcdec.symbols import SymbolTable

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


def _mutate(text: str, mutations) -> str:
    lines = [line.split() for line in text.splitlines()]
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
def test_arpa_parser_raises_only_engine_errors(strict, mutations):
    text = _mutate(_arpa_text(), mutations)
    try:
        model = parse_arpa(text, strict=strict, name="lm")
    except ParseError as exc:
        assert exc.line is not None or any(part in str(exc) for part in _WHOLE_FILE), str(exc)
        return
    except EngineError:
        return
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
