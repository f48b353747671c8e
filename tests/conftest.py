import random

import pytest
from hypothesis import settings

from ctcdec.fst import WeightedFst
from ctcdec.symbols import SymbolTable

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")

_ACCEPTANCE: list[tuple[str, bool]] = []


def record_criterion(name: str, passed: bool) -> None:
    _ACCEPTANCE.append((name, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _ACCEPTANCE:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}: {name}")


# -- shared toy inputs -------------------------------------------------------

TOY_UNITS = "<blank> 0\na 1\nb 2\nc 3\n"

TOY_LEXICON = "ab a b\nac a c\nbc b c\n"

# Bigram LM over {a..., ab, ac, bc as words}? The grammar speaks words, so the
# toy vocabulary is the lexicon's word set.
TOY_ARPA = """\
\\data\\
ngram 1=5
ngram 2=6

\\1-grams:
-0.3979400 ab -0.3979400
-0.5228787 ac -0.3979400
-0.6989700 bc -0.3979400
-1.0000000 </s>
-99 <s> -0.3010300

\\2-grams:
-0.2218487 <s> ab
-0.5228787 <s> ac
-0.2218487 ab ac
-0.3010300 ac bc
-0.3979400 bc </s>
-0.6989700 ab ab

\\end\\
"""


@pytest.fixture
def toy_units_file(tmp_path):
    path = tmp_path / "units.txt"
    path.write_text(TOY_UNITS, encoding="utf-8")
    return path


@pytest.fixture
def toy_lexicon_file(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text(TOY_LEXICON, encoding="utf-8")
    return path


@pytest.fixture
def toy_arpa_file(tmp_path):
    path = tmp_path / "lm.arpa"
    path.write_text(TOY_ARPA, encoding="utf-8")
    return path


# -- random machine generator ------------------------------------------------


def random_acyclic_fst(
    rng: random.Random,
    isymbols: SymbolTable,
    osymbols: SymbolTable,
    max_states: int = 5,
    eps_prob: float = 0.2,
    arc_count: int | None = None,
) -> WeightedFst:
    """A random acyclic transducer (arcs only run to higher state ids)."""
    n = rng.randint(2, max_states)
    fst = WeightedFst(isymbols.copy(), osymbols.copy())
    fst.add_states(n)
    fst.set_start(0)
    n_in = len(isymbols) - 1
    n_out = len(osymbols) - 1
    if arc_count is None:
        arc_count = rng.randint(n - 1, 2 * n)
    for _ in range(arc_count):
        src = rng.randrange(0, n - 1)
        dst = rng.randrange(src + 1, n)
        il = 0 if rng.random() < eps_prob else rng.randint(1, n_in)
        ol = 0 if rng.random() < eps_prob else rng.randint(1, n_out)
        fst.add_arc(src, il, ol, round(rng.uniform(0.0, 4.0), 3), dst)
    fst.set_final(n - 1, round(rng.uniform(0.0, 2.0), 3))
    if rng.random() < 0.3:
        fst.set_final(rng.randrange(0, n), round(rng.uniform(0.0, 2.0), 3))
    return fst


# -- random graph-build inputs ---------------------------------------------


def random_lexicon(rng: random.Random, units: list[str]) -> str:
    """Random spellings, with homophones and prefix pronunciations."""
    prons: list[tuple[str, ...]] = []
    for _ in range(rng.randint(3, 6)):
        r = rng.random()
        if prons and r < 0.25:
            pron = rng.choice(prons)  # a homophone
        elif prons and r < 0.5:
            base = rng.choice(prons)  # a prefix of, or extending, another word
            pron = base[:-1] if len(base) > 1 and rng.random() < 0.5 else base + (rng.choice(units),)
        else:
            pron = tuple(rng.choice(units) for _ in range(rng.randint(1, 3)))
        prons.append(pron)
    return "".join(f"w{i} {' '.join(pron)}\n" for i, pron in enumerate(prons))


def random_bigram_arpa(rng: random.Random, words: list[str]) -> str:
    """A bigram ARPA with coarse weights, so equal path costs come up."""
    unigrams = [f"{-rng.randint(2, 12) / 10} {w} {-rng.randint(1, 5) / 10}" for w in words]
    unigrams += [f"{-rng.randint(5, 15) / 10} </s>", f"-99 <s> {-rng.randint(1, 5) / 10}"]
    pairs = [(h, w) for h in ["<s>", *words] for w in [*words, "</s>"]]
    bigrams = [f"{-rng.randint(1, 8) / 10} {h} {w}" for h, w in rng.sample(pairs, rng.randint(1, len(pairs) // 2))]
    return (
        f"\\data\\\nngram 1={len(unigrams)}\nngram 2={len(bigrams)}\n\n"
        "\\1-grams:\n" + "\n".join(unigrams) + "\n\n"
        "\\2-grams:\n" + "\n".join(bigrams) + "\n\n\\end\\\n"
    )
