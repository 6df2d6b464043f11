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

from clusterkit.laurent import LaurentPoly, _compose
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
