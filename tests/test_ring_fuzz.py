"""Property tests of the Laurent kernel: the ring axioms, and poly_gcd against sympy.

On generated Laurent polynomials in 1 to 3 variables, negative exponents
included and one-term operands drawn on their own as well, +, - and *
must satisfy the commutative ring axioms with 0 and 1, + must agree with
the dictionary sum of oracles.add_reference, and exact_div must undo a
product.  On pairs g*u, g*v of ordinary
polynomials, poly_gcd must agree with sympy's gcd up to sign.  Examples
are derandomized and bounded, no example database is written, and
hypothesis keeps its caches in the system's temporary directory.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from clusterkit.laurent import LaurentPoly, exact_div, poly_gcd
from oracles import add_reference, sympy_gcd

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clusterkit-hypothesis")

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def polys(m: int, low: int, min_size: int = 0):
    exps = st.tuples(*[st.integers(low, 3)] * m)
    return st.dictionaries(exps, st.integers(-5, 5), min_size=min_size, max_size=4).map(
        lambda terms: LaurentPoly(m, terms)
    )


def one_term(m: int, low: int):
    """c * x^e with c != 0: the operand a one-term sum inserts."""
    exps = st.tuples(*[st.integers(low, 3)] * m)
    return st.builds(lambda e, c: LaurentPoly(m, {e: c}), exps, st.integers(-5, 5).filter(bool))


@st.composite
def triples(draw):
    """(a, b, c) in the same ring, each one term or general; b may cancel to zero,
    so exact_div is only run when it does not."""
    m = draw(st.integers(1, 3))
    return tuple(draw(st.one_of(one_term(m, -3), polys(m, -3))) for _ in range(3))


@FUZZ
@given(triples())
def test_ring_axioms(case):
    a, b, c = case
    zero, one = LaurentPoly.zero(a.m), LaurentPoly.const(a.m, 1)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert a + b == add_reference(a, b) and b + c == add_reference(b, c)
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero
    assert (a - a).is_zero and a - b == a + (-b)
    if not b.is_zero:
        assert exact_div(a * b, b) == a


@st.composite
def gcd_pairs(draw):
    """(g*u, g*v) for ordinary polynomials g, u, v."""
    m = draw(st.integers(1, 3))
    g, u, v = (draw(polys(m, 0, min_size=1)) for _ in range(3))
    return g * u, g * v


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(gcd_pairs())
def test_poly_gcd_matches_sympy(case):
    a, b = case
    got, want = poly_gcd(a, b), sympy_gcd(a, b)
    assert got == want or got == -want
