"""Property and fuzz tests of the text grammars: polynomials, matrices, words.

Round trips: render_poly/parse_poly and render_matrix/parse_matrix on
generated values.  Differential: parse_poly against the earlier
token-list parser on text over the grammar's alphabet.  Fuzz: text drawn from each grammar's alphabet, plus
digits of other scripts, '_' and stray symbols, fed to the command line,
which must answer with exit 0 or 2, never raise, and write at most one
line on stderr; text with a digit of another script or an '_' must exit
2.  Examples are derandomized and bounded, no example database is
written, and hypothesis keeps its caches in the system's temporary
directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from clusterkit.cli import main
from clusterkit.laurent import LaurentPoly, ParseError, parse_poly, render_poly
from clusterkit.seeds import ExchangeMatrix, SeedProfile, matrix_to_json, parse_matrix, render_matrix
from oracles import parse_poly_reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# hypothesis caches source constants (while pytest collects) and unicode tables
# on disk even without an example database: keep the caches out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clusterkit-hypothesis")

A3_TEXT = "3 3 3\n0 -1 0; 1 0 -1; 0 1 0\n"
FOREIGN = "١٣２_"  # Arabic-Indic one and three, full-width two, underscore
STRAY = "()/.,$a{}\"\t"

FUZZ = settings(derandomize=True, database=None, max_examples=75, deadline=None)


@st.composite
def polys(draw):
    m = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-6, 6)] * m)
    return LaurentPoly(m, draw(st.dictionaries(exps, st.integers(-(10**6), 10**6), max_size=6)))


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))
    p = draw(st.integers(n, m))
    row = st.lists(st.integers(-99, 99), min_size=n, max_size=n)
    return ExchangeMatrix(draw(st.lists(row, min_size=m, max_size=m)), SeedProfile(n, p, m))


@FUZZ
@given(polys())
def test_poly_text_round_trips(p):
    assert parse_poly(render_poly(p), m=p.m) == p


@FUZZ
@given(matrices())
def test_matrix_text_and_json_round_trip(B):
    assert parse_matrix(render_matrix(B)) == B
    assert parse_matrix(json.dumps(matrix_to_json(B))) == B


# the grammar's pieces, and pieces that break it: a zero index and characters outside it
SIGNS = ["+", "-", "\u2212"]
INTEGERS = ["0", "2", "13"]
FACTORS = ["x1", "x2", "x01"] + INTEGERS
EXPONENTS = ["", "", "^", "^-", "^\u2212"]
BREAKERS = ["x0", "x", "&", "_", "\u0661", "^", "*", "-", ""]
SPACES = ["", "", " ", "\t"]


@st.composite
def poly_texts(draw):
    """Text by the grammar, perhaps with one piece replaced by a breaker, or any
    pieces in any order."""

    def pick(pool):
        return draw(st.sampled_from(pool))

    if pick([False, False, False, True]):
        anything = st.sampled_from(SIGNS + FACTORS + EXPONENTS + BREAKERS + SPACES)
        return "".join(draw(st.lists(anything, max_size=10)))
    pieces = []
    for t in range(draw(st.integers(1, 3))):
        if t or pick([False, True]):
            pieces.append(pick(SIGNS))
        for f in range(draw(st.integers(1, 3))):
            pieces += ["*"] if f else []
            factor = pick(FACTORS)
            exponent = pick(EXPONENTS) if factor.startswith("x") else ""
            pieces += [factor, exponent, pick(INTEGERS)] if exponent else [factor]
    if pick([False, True]):
        pieces[draw(st.integers(0, len(pieces) - 1))] = pick(BREAKERS)
    return "".join(pick(SPACES) + piece for piece in pieces)


def parsed(parser, text, m):
    """The parser's value, or ParseError."""
    try:
        return parser(text, m)
    except ParseError:
        return ParseError


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    poly_texts().filter(lambda t: t.strip() not in ("+", "-", "\u2212")),
    st.sampled_from([None, None, 0, 2, 3]),
)
def test_parse_poly_agrees_with_the_token_list_parser(text, m):
    # the earlier parser read a lone sign as 0 (see test_parse_rejects_a_lone_sign)
    assert parsed(parse_poly, text, m) == parsed(parse_poly_reference, text, m)


def run_cli(argv, stdin_text):
    """Exit code and stderr of one in-process run, the matrix read from stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def assert_clean(code, err, text):
    assert code in (0, 2), err
    assert err.count("\n") <= 1, err
    assert (code == 2) == err.startswith("error: "), err
    if any(c in FOREIGN for c in text):
        assert code == 2, "a digit of another script or an underscore was read as a number"


BAD_TOKENS = ["١", "٣", "２", "_", "1_0", "1.5", "x", "x0", "^", "*", ",", ";", "-", ""]


def corrupted(draw, tokens: list[str]) -> list[str]:
    """The tokens, or (half the time) the tokens with one replaced by a bad one."""
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_TOKENS))
    return tokens


@st.composite
def expr_texts(draw):
    tokens = []
    for k in range(draw(st.integers(1, 3))):
        if k:
            tokens.append(draw(st.sampled_from([" + ", " - ", "-", "−"])))
        factors = st.sampled_from(["2", "10", "x1", "x2", "x3", "x1^2", "x2^-1", "x3^0"])
        for f, factor in enumerate(draw(st.lists(factors, min_size=1, max_size=3))):
            tokens += ["*", factor] if f else [factor]
    return "".join(corrupted(draw, tokens))


@st.composite
def word_texts(draw):
    letters = draw(st.lists(st.sampled_from(["1", "2", "3", " 2", "+3", "4"]), max_size=5))
    return ",".join(corrupted(draw, letters))


@st.composite
def seed_matrix_texts(draw):
    """render_matrix of a skew-symmetrizable matrix, perhaps with one token replaced."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(max(2, n), 5))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    rows = [[0] * n for _ in range(m)]
    for i in range(n):
        for j in range(i + 1, n):
            t = draw(st.integers(-1, 1))
            rows[i][j], rows[j][i] = d[j] * t, -d[i] * t
    for i in range(n, m):
        rows[i] = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    text = render_matrix(ExchangeMatrix(rows, SeedProfile(n, draw(st.integers(n, m)), m)))
    return " ".join(corrupted(draw, text.split(" ")))


# --expr=TEXT, not --expr TEXT: argparse reads a value that starts with '-' as an option
@FUZZ
@given(st.one_of(expr_texts(), st.text(alphabet="x0123456789^*+-− " + FOREIGN + STRAY, max_size=16)))
def test_check_laurent_on_fuzzed_expressions(text):
    assert_clean(*run_cli(["check-laurent", "--matrix", "-", f"--expr={text}"], A3_TEXT), text)


@FUZZ
@given(st.one_of(word_texts(), st.text(alphabet="0123456789,-+ " + FOREIGN + STRAY, max_size=12)))
def test_mutate_on_fuzzed_words(text):
    assert_clean(*run_cli(["mutate", "--matrix", "-", f"--word={text}"], A3_TEXT), text)


@FUZZ
@given(st.one_of(seed_matrix_texts(), st.text(alphabet="0123456789 -;\n" + FOREIGN + STRAY, max_size=24)))
def test_mutate_on_fuzzed_matrices(text):
    assert_clean(*run_cli(["mutate", "--matrix", "-", "--word", "1"], text), text)
