"""Differential property test of the kernel's exact division against the reference.

laurent.exact_div reduces the operands' terms as they are, under a lower
bound on the quotient's exponents; oracles.exact_div_reference shifts both
operands into the ordinary ring first.  On generated Laurent polynomials
in 1 to 4 variables (negative exponents, monomial and multi-term divisors)
the two must agree, the same quotient or both NotDivisible, on products
a * b, which must also divide back to a, on a * b + 1 and on unrelated
pairs.  Examples are derandomized and bounded, no example database is
written, and hypothesis keeps its caches in the system's temporary
directory.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from clusterkit.laurent import LaurentPoly, NotDivisible, exact_div
from oracles import exact_div_reference

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clusterkit-hypothesis")

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def laurent_polys(m: int, min_size: int = 0):
    exps = st.tuples(*[st.integers(-3, 3)] * m)
    return st.dictionaries(exps, st.integers(-6, 6), min_size=min_size, max_size=5).map(
        lambda terms: LaurentPoly(m, terms)
    )


@st.composite
def pairs(draw):
    """(a, b) with b nonzero; the dictionary may still cancel to zero, so retry on that."""
    m = draw(st.integers(1, 4))
    a = draw(laurent_polys(m))
    b = draw(laurent_polys(m, min_size=1).filter(lambda p: not p.is_zero))
    return a, b


def outcome(div, a, b):
    try:
        return div(a, b)
    except NotDivisible:
        return NotDivisible


def _p(m, terms):
    return LaurentPoly(m, terms)


@FUZZ
@given(pairs())
@example((_p(2, {(1, -2): 3, (0, 0): -1}), _p(2, {(2, 1): 2, (-1, 0): 1, (0, -3): -5})))
@example((_p(1, {}), _p(1, {(-2,): 4})))
def test_exact_div_round_trip_and_reference(case):
    a, b = case
    ab = a * b
    assert exact_div(ab, b) == a
    assert exact_div_reference(ab, b) == a
    one = LaurentPoly.const(a.m, 1)
    assert outcome(exact_div, ab + one, b) == outcome(exact_div_reference, ab + one, b)
    assert outcome(exact_div, a, b) == outcome(exact_div_reference, a, b)
