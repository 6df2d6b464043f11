"""Exponents at and just past both ends of the packed range.

LaurentPoly stores each exponent in a 32-bit slot, so every exponent must
lie in EXPONENT_MIN..EXPONENT_MAX.  On polynomials whose exponents sit at,
next to and just past both ends (and at half of each end, so that a sum
of two lands on an end), the constructor, *, **, shift and exact_div
must give exactly the value of the tuple references in oracles.py, and
raise ExponentRangeError exactly where that value has an exponent out of
range; a slot that wrapped would give another value.
Squares, which take their own branch of *, are checked the same way.
Fixed exact divisions put min(a) - min(b), the floor of the quotient's
exponents, below and above the range in one slot or two, where the
kernel clamps it, and on the ends themselves, where it does not.
Examples are derandomized and bounded, no example database is written,
and hypothesis keeps its caches in the system's temporary directory.
"""

from __future__ import annotations

import tempfile
from operator import add
from pathlib import Path

import pytest

from clusterkit.analysis import are_associate
from clusterkit.laurent import (
    EXPONENT_MAX,
    EXPONENT_MIN,
    ExponentRangeError,
    LaurentPoly,
    NotDivisible,
    exact_div,
)
from clusterkit.seeds import SeedProfile
from oracles import exact_div_reference, mul_reference, power_reference, shift_reference

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clusterkit-hypothesis")

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

INSIDE = (EXPONENT_MIN, EXPONENT_MIN + 1, EXPONENT_MIN // 2, -1, 0, 1, EXPONENT_MAX // 2 + 1, EXPONENT_MAX - 1, EXPONENT_MAX)
EDGES = INSIDE + (EXPONENT_MIN - 1, EXPONENT_MAX + 1)
RANGE = "ExponentRangeError"


def in_range(exps) -> bool:
    return all(EXPONENT_MIN <= e <= EXPONENT_MAX for e in exps)


def outcome(f, *args):
    """f(*args), or RANGE for an ExponentRangeError and NotDivisible for a failed division."""
    try:
        return f(*args)
    except ExponentRangeError:
        return RANGE
    except NotDivisible:
        return NotDivisible


def raw_terms(m: int, exponents=EDGES, min_size: int = 0):
    exps = st.tuples(*[st.sampled_from(exponents)] * m)
    return st.dictionaries(exps, st.integers(-3, 3), min_size=min_size, max_size=4)


def polys(m: int, min_size: int = 0):
    return raw_terms(m, INSIDE, min_size).map(lambda terms: LaurentPoly(m, terms))


@st.composite
def cases(draw):
    m = draw(st.integers(1, 3))
    a, b = draw(polys(m)), draw(polys(m, min_size=1).filter(lambda p: not p.is_zero))
    return {
        "a": a,
        "b": b,
        "raw": draw(raw_terms(m)),
        "q": draw(raw_terms(m, min_size=1)),
        "offsets": draw(st.tuples(*[st.sampled_from(EDGES)] * m)),
        "k": draw(st.integers(0, 3)),
    }


def raw_product(q: dict, b: LaurentPoly) -> dict:
    """The terms of q * b by tuple arithmetic, for q whose exponents may lie out of range."""
    acc: dict = {}
    for eq, cq in q.items():
        for eb, cb in b.terms:
            key = tuple(map(add, eq, eb))
            acc[key] = acc.get(key, 0) + cq * cb
    return {e: c for e, c in acc.items() if c}


@FUZZ
@given(cases())
def test_kernel_matches_the_references_at_the_range_ends(case):
    a, b, raw, k = case["a"], case["b"], case["raw"], case["k"]
    m = a.m

    # the constructor: exact within the range, refused past it, never wrapped
    built = outcome(LaurentPoly, m, raw)
    if all(in_range(e) for e in raw):
        merged = {e: c for e, c in raw.items() if c}
        assert built.terms == tuple(sorted(merged.items(), reverse=True))
    else:
        assert built == RANGE

    # order and equality are the ones of the unpacked terms
    assert (a.sort_key() < b.sort_key()) == (a.terms < b.terms)
    assert (a == b) == (a.terms == b.terms)
    assert LaurentPoly(m, dict(a.terms)) == a
    if not a.is_zero:
        assert a.min_exponents() == tuple(min(col) for col in zip(*(e for e, _ in a.terms)))

    assert outcome(lambda: a * b) == outcome(mul_reference, a, b)
    assert outcome(lambda: a * a) == outcome(mul_reference, a, a)  # the square branch
    assert outcome(lambda: a**k) == outcome(power_reference, a, k)
    offsets = case["offsets"]
    want = outcome(shift_reference, a, offsets) if in_range(offsets) else RANGE  # an offset is an input
    assert outcome(a.shift, offsets) == want

    # a divisible quotient, inside or past the range
    q = case["q"]
    product = raw_product(q, b)
    if all(in_range(e) for e in product):
        d = LaurentPoly(m, product)
        got = outcome(exact_div, d, b)
        assert got == outcome(exact_div_reference, d, b)
        quotient = {e: c for e, c in q.items() if c}
        assert got == (LaurentPoly(m, quotient) if all(in_range(e) for e in quotient) else RANGE)

    # a monomial dividend over a divisor with two terms or more: no quotient
    if not a.is_zero and len(b.terms) > 1:
        top = LaurentPoly(m, [a.terms[0]])
        assert outcome(exact_div_reference, top, b) is NotDivisible
        assert outcome(exact_div, top, b) in (NotDivisible, RANGE)
    # a monomial divisor: a shift
    if not b.is_zero:
        lead = LaurentPoly(m, [(b.terms[0][0], 1)])
        assert outcome(exact_div, a, lead) == outcome(exact_div_reference, a, lead)


def test_the_range_ends_themselves():
    top, bottom = LaurentPoly.monomial(2, (EXPONENT_MAX, 0)), LaurentPoly.monomial(2, (EXPONENT_MIN, 0))
    assert top.terms == (((EXPONENT_MAX, 0), 1),) and bottom.terms == (((EXPONENT_MIN, 0), 1),)
    assert top * bottom == LaurentPoly.monomial(2, (-1, 0))
    x1 = LaurentPoly.variable(2, 1)
    overflows = (lambda: top * x1, lambda: top.shift((1, 0)), lambda: exact_div(bottom, x1))
    for overflow in overflows:
        with pytest.raises(ExponentRangeError, match=f"outside the exponent range {EXPONENT_MIN}..{EXPONENT_MAX}"):
            overflow()
    # dividend and divisor in range, the quotient x1^(EXPONENT_MAX + 1) past it
    a = LaurentPoly(2, {(EXPONENT_MAX, 0): 1, (EXPONENT_MAX - 1, 0): 1})
    b = LaurentPoly(2, {(-1, 0): 1, (-2, 0): 1})
    with pytest.raises(ExponentRangeError, match="a quotient exponent"):
        exact_div(a, b)
    assert exact_div(a, b * x1) == LaurentPoly.monomial(2, (EXPONENT_MAX, 0))
    # (1 + x2^(EXPONENT_MIN - 1)) * (x2 + x2^2): the quotient's lower bound lies
    # below the range in slot 2 (a borrow from it would fail slot 1's test),
    # and only the quotient's second term is past the range
    b = LaurentPoly(2, {(0, 2): 1, (0, 1): 1})
    d = LaurentPoly(2, {(0, 2): 1, (0, 1): 1, (0, EXPONENT_MIN + 1): 1, (0, EXPONENT_MIN): 1})
    with pytest.raises(ExponentRangeError, match="a quotient exponent"):
        exact_div(d, b)
    # a square leaves the range exactly where its extreme diagonal term does
    halves = [(EXPONENT_MAX // 2, True), (EXPONENT_MAX // 2 + 1, False), (EXPONENT_MIN // 2, True), (EXPONENT_MIN // 2 - 1, False)]
    for e, fits in halves:
        p = LaurentPoly(2, {(0, e): 3, (1, 0): -1, (0, 0): 2})
        want = mul_reference(p, p) if fits else RANGE
        assert outcome(lambda: p * p) == want and outcome(lambda: p**2) == want
    for bad in (EXPONENT_MAX + 1, EXPONENT_MIN - 1, 4_000_000_000):
        with pytest.raises(ExponentRangeError, match=f"exponent {bad} outside"):
            LaurentPoly.monomial(1, (bad,))


def test_the_associate_test_at_the_range_ends():
    # the candidate unit lead(a) / lead(b) is guard-checked like a quotient term
    profile = SeedProfile(1, 2, 2)  # x2 is invertible
    top, bottom = LaurentPoly.monomial(2, (0, EXPONENT_MAX)), LaurentPoly.monomial(2, (0, EXPONENT_MIN))
    with pytest.raises(ExponentRangeError, match="a quotient exponent"):
        are_associate(top, bottom, profile)
    # x2^-1 = x2^EXPONENT_MAX * x2^EXPONENT_MIN: the unit sits on the upper end
    assert are_associate(LaurentPoly.monomial(2, (0, -1)), bottom, profile)
    assert not are_associate(LaurentPoly.monomial(2, (1, -1)), bottom, profile)  # x1 is no unit


def _floor_cases():
    """(dividend, divisor, outcome) for exact divisions whose quotient floor
    min(a) - min(b) lies past or on an end of the range in some variable."""
    lo, hi = EXPONENT_MIN, EXPONENT_MAX
    p = LaurentPoly
    return [
        # below: the quotient x1^(lo - 5) is past the range
        (p(1, {(lo,): 1, (lo + 1,): 1}), p(1, {(6,): 1, (5,): 1}), RANGE),
        # above: the quotient x1^(hi + 6) is past the range
        (p(1, {(hi,): 1, (hi - 1,): 1}), p(1, {(-5,): 1, (-6,): 1}), RANGE),
        # above in x2, the leading quotient term x1^0*x2^0 in range: refused by the floor
        (p(2, {(1, hi): 1, (0, hi): 1}), p(2, {(1, hi): 1, (0, lo): 1}), NotDivisible),
        # above in x1 and below in x2, the leading quotient term x2^lo in range
        (p(2, {(hi, lo + 1): 1, (1, lo): 1}), p(2, {(hi, 1): 1, (lo, 2): 1}), NotDivisible),
        # on the ends: floors lo and hi let the quotient through, lo - 1 and hi + 1 are past
        (p(1, {(lo,): 1, (lo + 1,): 2, (lo + 2,): 1}), p(1, {(1,): 1, (0,): 1}), p(1, {(lo,): 1, (lo + 1,): 1})),
        (p(2, {(hi, 2): 1, (hi, 0): -1}), p(2, {(0, 1): 1, (0, 0): -1}), p(2, {(hi, 1): 1, (hi, 0): 1})),
        (p(2, {(lo, 1): 1, (lo, 0): 1}), p(2, {(1, 1): 1, (1, 0): 1}), RANGE),
        (p(2, {(hi, 1): 1, (hi, 0): 1}), p(2, {(-1, 1): 1, (-1, 0): 1}), RANGE),
    ]


@pytest.mark.parametrize("a, b, want", _floor_cases())
def test_quotient_floor_past_and_on_the_range_ends(a, b, want):
    assert outcome(exact_div, a, b) == outcome(exact_div_reference, a, b) == want
