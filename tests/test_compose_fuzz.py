"""Differential property test of the kernel's composition against the reference.

laurent._compose (multivariate Horner on one shared gap-power table) must
give exactly the values of oracles.compose_reference (a product of image
powers per term, terms added one by one) on generated inputs: 1 to 5
source variables, the zero polynomial, constants, exponent gaps larger
than 1, several polynomials per call, monomial images and Laurent images
with negative exponents.  Examples are derandomized and bounded, no
example database is written, and hypothesis keeps its caches in the
system's temporary directory.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from clusterkit.laurent import LaurentPoly, _compose, _row_width
from oracles import compose_reference

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clusterkit-hypothesis")

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

COEFFS = st.integers(-40, 40)


def ordinary_polys(m: int):
    """Zero, constants, and sparse polynomials whose exponents skip degrees."""
    zero = st.just(LaurentPoly.zero(m))
    constant = COEFFS.map(lambda c: LaurentPoly.const(m, c))
    exps = st.tuples(*[st.sampled_from((0, 1, 2, 3, 5, 7))] * m)
    general = st.dictionaries(exps, COEFFS, max_size=6).map(lambda terms: LaurentPoly(m, terms))
    return st.one_of(zero, constant, general)


def images_in(mt: int):
    """A monomial (a unit or a scaled one) or a Laurent polynomial of up to 3 terms."""
    exps = st.tuples(*[st.integers(-2, 2)] * mt)
    monomial = st.builds(lambda e, c: LaurentPoly.monomial(mt, e, c), exps, st.sampled_from((1, -1, 2, -3)))
    laurent = st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda terms: LaurentPoly(mt, terms)
    )
    return st.one_of(monomial, laurent)


@st.composite
def compositions(draw):
    m = draw(st.integers(1, 5))
    mt = draw(st.integers(1, 3))
    polys = draw(st.lists(ordinary_polys(m), min_size=1, max_size=3))
    images = draw(st.lists(images_in(mt), min_size=m, max_size=m))
    return polys, images


def _x(m, i, k=1):
    return LaurentPoly.monomial(m, tuple(k if j == i else 0 for j in range(m)))


@FUZZ
@given(compositions())
@example(([LaurentPoly.zero(2), LaurentPoly.const(2, -7)], [_x(1, 0), _x(1, 0, -1)]))
@example(
    (
        [LaurentPoly(3, {(7, 0, 2): 3, (7, 0, 0): -1, (2, 5, 0): 4, (0, 0, 3): 1})],
        [LaurentPoly(2, {(1, -1): 1, (0, 1): 2}), _x(2, 1, -2), LaurentPoly(2, {(0, 0): 1, (-1, 0): -1})],
    )
)
def test_compose_matches_reference(case):
    polys, images = case
    assert _compose(polys, images) == compose_reference(polys, images)


# -- the row-packed walk ------------------------------------------------------


def dense_polys(m: int):
    """At least 8 terms with at least 2 per row of the last variable: the packed walk's inputs."""
    exps = st.tuples(*[st.integers(0, 1)] * (m - 1), st.integers(0, 9))
    coeffs = st.one_of(st.integers(-40, 40), st.integers(2**100, 2**101), st.integers(-(2**101), -(2**100)))
    return st.dictionaries(exps, coeffs, min_size=8, max_size=12).map(lambda terms: LaurentPoly(m, terms))


def dense_images(mt: int):
    """Laurent images with rows of adjacent last exponents, negative ones included."""
    exps = st.tuples(*[st.integers(-2, 2)] * mt)
    return st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=4).map(lambda terms: LaurentPoly(mt, terms))


@st.composite
def packed_compositions(draw):
    m = draw(st.integers(1, 5))
    mt = draw(st.integers(1, 3))
    polys = draw(st.lists(dense_polys(m), min_size=1, max_size=3))
    images = draw(st.lists(dense_images(mt), min_size=m, max_size=m))
    return polys, images


@settings(FUZZ, max_examples=25)
@given(packed_compositions())
def test_packed_compose_matches_reference(case):
    polys, images = case
    assert _compose(polys, images) == compose_reference(polys, images)


def test_packed_compose_takes_the_packed_walk():
    # the fuzz above must exercise the packed walk, not only the sparse one
    assert _row_width(*_DENSE) > 0
    assert _compose(*_DENSE) == compose_reference(*_DENSE)


_DENSE = (
    [LaurentPoly(2, {(i, j): 1 + i + 2 * j for i in range(3) for j in range(4)})],
    [LaurentPoly(2, {(1, -1): 1, (0, 0): 2, (0, -1): -1}), LaurentPoly(2, {(0, 1): 3, (-1, 0): 1})],
)


@pytest.mark.parametrize("bits", range(1, 140))
def test_packed_digit_width_holds_the_bound(bits):
    # eight terms at the image 1 add up to a coefficient equal to the bound B,
    # so a digit width one bit short of 2^(W-1) > B misreads it for some B
    for total in (2 ** bits - 1, 2 ** bits, -(2 ** bits)):
        coeffs = [total // 8] * 7 + [total - 7 * (total // 8)]
        p = LaurentPoly(1, {(i,): c for i, c in enumerate(coeffs) if c} or {(0,): 1})
        if p.term_count < 8:
            continue
        images = [LaurentPoly.const(1, 1)]
        assert _row_width([p], images) > 0
        assert _compose([p], images) == [LaurentPoly.const(1, total)]


def test_packed_walk_with_one_variable_and_cancelling_rows():
    # m = 1: one row; and a polynomial (y1 - y2) * q at equal images cancels every row
    p = LaurentPoly(1, {(i,): (-1) ** i * (i + 1) for i in range(9)})
    images = [LaurentPoly(1, {(1,): 1, (0,): -2, (-1,): 1})]
    assert _row_width([p], images) > 0
    assert _compose([p], images) == compose_reference([p], images)
    q = LaurentPoly(2, {(i, j): i + j + 1 for i in range(3) for j in range(3)})
    y1, y2 = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    f = LaurentPoly(2, {(1, 0): 1, (0, 1): 2, (0, 0): -1})
    zero_case = ([(y1 - y2) * q, q], [f, f])
    assert _row_width(*zero_case) > 0
    assert _compose(*zero_case) == [LaurentPoly.zero(2), compose_reference([q], [f, f])[0]]


def test_gapped_images_keep_the_sparse_walk():
    # x2^1000 + 1 spans 1001 exponents with 2 terms: packing its rows would hold
    # mostly zero digits, so the call stays on the sparse walk
    q = LaurentPoly(2, {(i, j): i + j + 1 for i in range(3) for j in range(3)})
    gapped = LaurentPoly(2, {(0, 1000): 1, (0, 0): 1})
    images = [gapped, LaurentPoly(2, {(1, 0): 1, (0, 1): 1})]
    assert _row_width([q], images) == 0
    assert _compose([q], images) == compose_reference([q], images)
    # monomial images far apart would give one row of thousands of digits
    far = [LaurentPoly.monomial(2, (0, 1)), LaurentPoly.monomial(2, (0, 5000))]
    assert _row_width([q], far) == 0
    assert _compose([q], far) == compose_reference([q], far)
