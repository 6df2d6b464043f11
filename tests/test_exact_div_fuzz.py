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

The kernel takes each leading remainder term from a heap of keys that
holds stale entries (keys cancelled since they were pushed) and duplicate
entries (keys cancelled and then re-created), and skips them when they
surface.  Dense operands with small exponents and coefficients make such
cancellations common; fixed cases are checked by a model of the
reduction to really cancel and re-create a key above the last leading
term.  Further fixed cases fail only by the lower bound on the quotient's
exponents (divisors with leading coefficient +-1 and small exponents),
and others have quotient exponents at both ends of the range.

The quotient's floor min(a) - min(b), clamped to 0..2^31 in each packed
slot, is computed on all slots at once; it must equal the slot-by-slot
loop oracles.quotient_floor_reference on every pair of slot values at and
next to the ends of a slot's range and at the zero exponent, and on
random keys of one to six slots.
"""

from __future__ import annotations

import tempfile
from itertools import product
from operator import add, sub
from pathlib import Path
from random import Random

import pytest

from clusterkit.laurent import (
    _LAYOUT,
    EXPONENT_MAX,
    EXPONENT_MIN,
    LaurentPoly,
    NotDivisible,
    _quotient_floor,
    exact_div,
    parse_poly,
)
from oracles import exact_div_reference, quotient_floor_reference

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


# -- the heap of leading keys ---------------------------------------------------


def reduction_events(a, b) -> tuple[set, set]:
    """Model leading-term reduction of a by b on exponent tuples, the quotient's
    lower bound left out: (keys cancelled and later passed by a smaller leading
    term, keys cancelled and then re-created).  A passed key is a stale heap entry
    the kernel pops and skips; a re-created one is also a duplicate entry."""
    rem = dict(a.terms)
    (lead, lead_c), tail = b.terms[0], b.terms[1:]
    cancelled, passed, recreated = set(), set(), set()
    while rem:
        r = max(rem)
        r_c = rem.pop(r)
        passed |= {k for k in cancelled if k > r}
        if r_c % lead_c:
            break
        t, t_c = tuple(map(sub, r, lead)), r_c // lead_c
        for e, c in tail:
            k = tuple(map(add, t, e))
            if k in rem:
                rem[k] -= t_c * c
                if not rem[k]:
                    del rem[k]
                    cancelled.add(k)
            else:
                if k in cancelled:
                    recreated.add(k)
                rem[k] = -t_c * c
    return passed, recreated


# (quotient, divisor): reducing quotient * divisor cancels a remainder key, re-creates
# it and goes on below it, so the heap holds a stale and a duplicate entry
STALE_AND_DUPLICATE = [
    ("-2*x1^2 - 2*x1 - 2 - 2*x1^-1", "-2*x1 + 2 - 2*x1^-1"),
    ("x1^2 + 1 - 2*x1^-1 - x1^-2", "x1^3 + 2*x1^2 + 2"),
    ("x1*x2 - x1 + x1*x2^-1 - x2^-1", "-x2^2 - x2 - 1"),
    ("-x1 + x2 - x1^-1*x2^2 + x1^-1", "-x1 - x2 - x1^-1*x2^2"),
    ("-x1^2*x2^2 + x1*x2^2 - x2^2 - 1", "x1*x2^-1 + x2^-1 + x1^-1*x2^-1"),
]


@pytest.mark.parametrize("q, b", STALE_AND_DUPLICATE)
def test_heap_skips_stale_and_duplicate_keys(q, b):
    m = 1 if "x2" not in q + b else 2
    q, b = parse_poly(q, m), parse_poly(b, m)
    a = q * b
    passed, recreated = reduction_events(a, b)
    assert passed & recreated  # the case still makes a stale and a duplicate entry
    assert exact_div(a, b) == exact_div_reference(a, b) == q
    for c in (1, -1, 2):
        perturbed = a + LaurentPoly.const(m, c)
        assert outcome(exact_div, perturbed, b) == outcome(exact_div_reference, perturbed, b)


# (dividend, divisor) with no quotient, where the divisor's leading coefficient is +-1
# and every exponent is small: only the lower bound on the quotient's exponents can
# end the reduction, which otherwise would run on below it for ever
LOW_BOUND_ONLY = [
    ("1", "x1 + 1"),
    ("x1^3 + x1^2 + x1 + 2", "x1 + 1"),
    ("x1^-2 + x1^-3", "x1 - 1"),
    ("1 + x2", "x1 + 1"),
    ("x1*x2 + x1 + x2^2 + 2*x2 + 2", "x2 + 1"),
    ("x1^2*x2^-1 - x2^-2 + x1^-1", "-x1*x2 + x2^-1"),
]


@pytest.mark.parametrize("a, b", LOW_BOUND_ONLY)
def test_low_bound_alone_refuses(a, b):
    m = 1 if "x2" not in a + b else 2
    a, b = parse_poly(a, m), parse_poly(b, m)
    assert b.terms[0][1] in (1, -1) and b.term_count > 1
    assert outcome(exact_div, a, b) is NotDivisible
    assert outcome(exact_div_reference, a, b) is NotDivisible


def test_quotient_exponents_at_both_range_ends():
    top, bottom = EXPONENT_MAX, EXPONENT_MIN
    cases = [
        (LaurentPoly(2, {(top, 0): 1, (bottom, 0): -3}), LaurentPoly(2, {(0, 1): 1, (0, 0): 1})),
        (LaurentPoly(2, {(0, top): 2, (0, bottom): 1}), LaurentPoly(2, {(1, 0): 1, (0, 0): -1})),
        (
            LaurentPoly(3, {(top, bottom, 0): 1, (bottom, top, 0): 1, (0, 0, 0): 5}),
            LaurentPoly(3, {(0, 0, 2): 1, (0, 0, 1): -1, (0, 0, 0): 1}),
        ),
    ]
    for q, b in cases:
        a = q * b
        assert exact_div(a, b) == exact_div_reference(a, b) == q


@st.composite
def dense_pairs(draw):
    """(q, b) with exponents in -1..2 and coefficients +-1, +-2: products cancel often."""
    m = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(-1, 2)] * m)
    coeffs = st.sampled_from((-2, -1, 1, 2))
    q = LaurentPoly(m, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5)))
    b = LaurentPoly(m, draw(st.dictionaries(exps, coeffs, min_size=2, max_size=4)))
    return q, b


@FUZZ
@given(dense_pairs(), st.sampled_from((0, 1, -2)))
def test_heap_division_on_dense_products(case, c):
    q, b = case
    a = q * b
    assert exact_div(a, b) == exact_div_reference(a, b) == q
    perturbed = a + LaurentPoly.const(a.m, c)
    assert outcome(exact_div, perturbed, b) == outcome(exact_div_reference, perturbed, b)


# -- the quotient floor ---------------------------------------------------------

# slot values of a minimum key: the ends of the range (exponents EXPONENT_MIN and
# EXPONENT_MAX), the zero exponent 2^30 and its neighbours
FLOOR_SLOTS = (0, 2**30 - 1, 2**30, 2**30 + 1, 2**31 - 1)


def packed(slots) -> int:
    key = 0
    for v in slots:
        key = key << 32 | v
    return key


def test_packed_floor_matches_the_slot_loop():
    rng = Random(2011)

    def slot():
        return rng.choice(FLOOR_SLOTS) if rng.random() < 0.5 else rng.randrange(2**31)

    pairs = [((a,), (b,)) for a, b in product(FLOOR_SLOTS, repeat=2)]
    pairs += [((a1, a2), (b1, b2)) for a1, a2, b1, b2 in product(FLOOR_SLOTS, repeat=4)]
    for _ in range(20_000):
        m = rng.randint(1, 6)
        pairs.append((tuple(slot() for _ in range(m)), tuple(slot() for _ in range(m))))
    wrong = []
    for sa, sb in pairs:
        m, min_a, min_b = len(sa), packed(sa), packed(sb)
        if _quotient_floor(min_a, min_b, *_LAYOUT[m]) != quotient_floor_reference(min_a, min_b, m):
            wrong.append((sa, sb))
    assert wrong == []
