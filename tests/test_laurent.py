"""Kernel tests: arithmetic, division, gcd, substitution, text form."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

import clusterkit.laurent
from clusterkit.laurent import (
    DimensionMismatch,
    FieldTag,
    LaurentPoly,
    NotDivisible,
    ParseError,
    RationalFn,
    _coefficients_in,
    _compose,
    _gcd_cofactors,
    _poly_gcd_prs,
    exact_div,
    odd_divisor,
    parse_poly,
    poly_gcd,
    render_poly,
    xd_plus_one_reducible,
)
from oracles import (
    ZeroImageInverted,
    compose_reference,
    exact_div_reference,
    mul_reference,
    power_reference,
    substitute,
    sympy_gcd,
    xd_plus_one_reducible_bruteforce,
)

M = 4


def x(i, m=M):
    return LaurentPoly.variable(m, i)


def one(m=M):
    return LaurentPoly.const(m, 1)


def random_poly(rng, m=3, max_terms=3, max_exp=2, max_coeff=5, laurent=True):
    acc = {}
    lo = -max_exp if laurent else 0
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(lo, max_exp) for _ in range(m))
        acc[exps] = acc.get(exps, 0) + rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(m, acc)


def nonzero_point(rng, m):
    return tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(m))


# -- construction ------------------------------------------------------------


@pytest.mark.parametrize("coeff", [1.5, True, Fraction(1), "1"])
def test_constructors_reject_non_integer_coefficients(coeff):
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        LaurentPoly(2, {(1, 0): coeff})
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        LaurentPoly(2, [((0, 0), 1), ((1, 0), coeff)])
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        LaurentPoly.const(2, coeff)
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        LaurentPoly.monomial(2, (0, 1), coeff)


def test_constructors_reject_non_integer_exponents():
    with pytest.raises(ValueError, match="exponent must be an integer"):
        LaurentPoly(2, {(1.5, 0): 1})
    with pytest.raises(ValueError, match="exponent must be an integer"):
        LaurentPoly.monomial(2, (1, 1.5))
    with pytest.raises(ValueError, match="exponent must be an integer"):
        LaurentPoly(2, {(0, True): 0})  # checked before zero terms are dropped


@pytest.mark.parametrize("offset", [0.5, True, "1", Fraction(1)])
def test_shift_rejects_non_integer_offsets(offset):
    # shift builds its result unchecked, so a float or bool offset would end up in the terms
    with pytest.raises(ValueError, match="shift offset must be an integer"):
        LaurentPoly.variable(2, 1).shift((offset, 0))
    with pytest.raises(ValueError, match="shift offset must be an integer"):
        LaurentPoly.variable(2, 1).shift((0, offset))


def test_ambient_dimension_is_nonnegative():
    # zero(-2) built a polynomial with m = -2
    for build in (
        lambda: LaurentPoly.zero(-2),
        lambda: LaurentPoly.const(-1, 1),
        lambda: LaurentPoly.monomial(-1, ()),
        lambda: LaurentPoly(-1, []),
    ):
        with pytest.raises(ValueError, match="ambient dimension must be nonnegative"):
            build()
    assert LaurentPoly.zero(0).is_zero and LaurentPoly.const(0, 3).terms == (((), 3),)


@pytest.mark.parametrize("bad", [1.0, 1.5, True, Fraction(1), "1"])
def test_variable_index_and_dimension_are_not_coerced(bad):
    # variable(3, 1.0) and variable(3, True) returned x1, zero(1.5) had m = 1.5,
    # and const(1.5, 1) failed with a TypeError from (0,) * 1.5
    with pytest.raises(ValueError, match="variable index must be an integer"):
        LaurentPoly.variable(3, bad)
    with pytest.raises(ValueError, match="ambient dimension must be an integer"):
        LaurentPoly.zero(bad)
    with pytest.raises(ValueError, match="ambient dimension must be an integer"):
        LaurentPoly.const(bad, 1)
    with pytest.raises(ValueError, match="ambient dimension must be an integer"):
        LaurentPoly(bad, [])


def test_derivative_checks_its_variable_index():
    # on m = 2, derivative(-1) and derivative(True) returned d/dx1, derivative(0)
    # blamed an exponent vector of length 4 and derivative(3) raised IndexError
    p = x(1, 2) ** 2 * x(2, 2)
    assert p.derivative(1) == 2 * x(1, 2) * x(2, 2)
    assert p.derivative(2) == x(1, 2) ** 2
    for bad in (0, -1, 3):
        with pytest.raises(DimensionMismatch, match=f"variable index {bad} outside 1..2"):
            p.derivative(bad)
    for bad in (True, 1.5):
        with pytest.raises(ValueError, match="variable index must be an integer"):
            p.derivative(bad)


# -- addition and multiplication --------------------------------------------


def test_add_examples():
    assert (x(1) + (-x(1))).is_zero
    assert (one() + x(2)) + x(2) == one() + 2 * x(2)
    p = exact_div(one(), x(1)) + x(2) ** 2
    assert len(p.terms) == 2  # disjoint supports stay separate


def test_add_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LaurentPoly.variable(2, 1) + LaurentPoly.variable(3, 1)


def test_mul_examples():
    inv = exact_div(one(), x(1))
    assert inv * x(1) == one()
    assert (one() + x(2)) * (one() - x(2)) == one() - x(2) ** 2


def test_mul_matches_integer_point_evaluation():
    rng = random.Random(101)
    for _ in range(300):
        a = random_poly(rng)
        b = random_poly(rng)
        pt = nonzero_point(rng, 3)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


# -- exact division ----------------------------------------------------------


def test_exact_div_examples():
    q = exact_div(one() - x(2) ** 2, one() + x(2))
    assert q == one() - x(2)
    q2 = exact_div(x(2) ** 2 + x(4), x(1))
    inv1 = exact_div(one(), x(1))
    assert q2 == inv1 * x(2) ** 2 + inv1 * x(4)
    with pytest.raises(NotDivisible):
        exact_div(one() + x(2), one() + x(1))


def test_exact_div_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero:
            continue
        assert exact_div(a * b, b) == a


def test_exact_div_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_div(one(), LaurentPoly.zero(M))


def test_evaluation_commutes_with_division():
    rng = random.Random(13)
    for _ in range(200):
        a = random_poly(rng)
        b = random_poly(rng)
        if b.is_zero:
            continue
        pt = nonzero_point(rng, 3)
        denom = b.evaluate(pt)
        if denom == 0:
            continue
        assert exact_div(a * b, b).evaluate(pt) == (a * b).evaluate(pt) / denom


# -- fast paths against the general references --------------------------------


def assert_canonical(p):
    exps = [e for e, _ in p.terms]
    assert type(p.terms) is tuple
    assert all(a > b for a, b in zip(exps, exps[1:])), p.terms
    for e, c in p.terms:
        assert type(c) is int and c != 0, p.terms
        assert type(e) is tuple and len(e) == p.m and all(type(v) is int for v in e), p.terms


def kernel_operands(rng, m):
    """Zero, +-1, integer constants, Laurent monomials and multi-term polynomials."""
    ops = [LaurentPoly.zero(m), LaurentPoly.const(m, 1), LaurentPoly.const(m, -1)]
    ops += [LaurentPoly.const(m, c) for c in rng.sample([-12, -3, 2, 6, 35], 2)]
    for _ in range(4):
        exps = [rng.randint(-3, 3) for _ in range(m)]
        ops.append(LaurentPoly.monomial(m, exps, rng.choice([-6, -2, -1, 1, 3, 4])))
    ops += [random_poly(rng, m=m, max_terms=4, max_exp=2, max_coeff=6) for _ in range(5)]
    return ops


def division_outcome(div, a, b):
    try:
        return div(a, b)
    except (NotDivisible, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("m", range(1, 7))
def test_kernel_fast_paths_match_references(m):
    rng = random.Random(900 + m)
    ops = kernel_operands(rng, m)
    for a in ops:
        for k in range(4):
            p = a**k
            assert p == power_reference(a, k)
            assert_canonical(p)
        for c in (0, 1, -1, 3):
            assert a * c == c * a == mul_reference(a, LaurentPoly.const(m, c))
            assert_canonical(a * c)
        for b in ops:
            prod = a * b
            assert prod == mul_reference(a, b)
            assert_canonical(prod)
            for total in (a + b, a - b):
                assert_canonical(total)
            assert a + b == LaurentPoly(m, list(a.terms) + list(b.terms))
            q = division_outcome(exact_div, a, b)
            assert q == division_outcome(exact_div_reference, a, b)
            if isinstance(q, LaurentPoly):
                assert_canonical(q)
            if not b.is_zero:
                assert exact_div(prod, b) == a
                assert_canonical(exact_div(prod, b))
            if b.is_monomial:
                assert a.shift(b.terms[0][0]) == mul_reference(a, LaurentPoly.monomial(m, b.terms[0][0]))


@pytest.mark.parametrize("m", range(1, 7))
def test_square_matches_the_general_product(m):
    # a * a with one object takes the square branch; an equal copy takes the general loop
    rng = random.Random(700 + m)
    for size in (2, 3, 5, 9, 14):
        for big in (6, 10**30):
            a = random_poly(rng, m=m, max_terms=size, max_exp=3, max_coeff=big)
            copy = LaurentPoly(m, a.terms)
            assert copy is not a and copy == a
            square = a * a
            assert square == mul_reference(a, a) == a * copy == copy * a
            assert_canonical(square)
            assert a**2 == square and a**3 == power_reference(a, 3)


def test_exact_div_by_monomial_checks_every_coefficient():
    x1 = parse_poly("x1", 1)
    for a, b in [("2*x1 + 3", "2*x1"), ("6*x1^2 + 4", "4"), ("5", "-3*x1")]:
        a, b = parse_poly(a, 1), parse_poly(b, 1)
        assert division_outcome(exact_div, a, b) is NotDivisible
        assert division_outcome(exact_div_reference, a, b) is NotDivisible
    q = exact_div(parse_poly("6*x1^2 - 4", 1), parse_poly("-2*x1^-1", 1))
    assert q == -3 * x1**3 + 2 * x1
    assert_canonical(q)


# -- gcd ---------------------------------------------------------------------


def test_coefficients_in_splits_canonically():
    rng = random.Random(41)
    for m in range(1, 5):
        for _ in range(40):
            p = random_poly(rng, m=m, max_terms=6, max_exp=3, max_coeff=5)
            for v in range(m):
                rebuilt = LaurentPoly.zero(m)
                for d, cf in _coefficients_in(p, v).items():
                    assert_canonical(cf)
                    assert not cf.is_zero and all(e[v] == 0 for e, _ in cf.terms)
                    rebuilt = rebuilt + cf.shift(tuple(d if i == v else 0 for i in range(m)))
                assert rebuilt == p


def test_poly_gcd_examples():
    assert poly_gcd(x(1) ** 2 - x(2) ** 2, x(1) - x(2)) == x(1) - x(2)
    a = 2 * x(1) * x(3) - 4 * x(2)
    assert poly_gcd(a, LaurentPoly.zero(M)) == a
    assert poly_gcd(LaurentPoly.zero(M), -a) == a  # sign-normalized
    # exact_div treats monomials as units; the gcd must not
    a, b = parse_poly("6*x1^3*x2^2*x3^3"), parse_poly("-3*x1^4*x2^4*x3^2")
    assert poly_gcd(a, b) == parse_poly("3*x1^3*x2^2*x3^2")
    # the heuristic starts at xi = 2 * 19601 + 29; a start at 99 * isqrt(2 * 19601 + 29) = 19602,
    # one past the root of q, would rebuild the candidate 1 and wrongly accept it
    q = parse_poly("x1 - 19601")
    assert poly_gcd(q * parse_poly("x1 + 1"), q * parse_poly("x1 - 1")) == q


def test_poly_gcd_rejects_laurent_input():
    with pytest.raises(ValueError):
        poly_gcd(exact_div(one(), x(1)), x(1))


def univariate(rng, var, m=3, max_deg=3, max_coeff=4):
    acc = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * m
        exps[var - 1] = rng.randint(1, max_deg)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(m, acc)


def test_poly_gcd_construct_then_recover():
    # u and v live on disjoint variables with coprime contents, so gcd(u, v) = 1
    # and the gcd of (g*u, g*v) must recover g up to sign
    rng = random.Random(17)
    for _ in range(200):
        g = random_poly(rng, m=3, laurent=False)
        if g.is_zero:
            continue
        u = univariate(rng, 1) + LaurentPoly.const(3, 3)
        v = univariate(rng, 2) + LaurentPoly.const(3, 1)
        got = poly_gcd(g * u, g * v)
        want = poly_gcd(g, LaurentPoly.zero(3))  # g, sign-normalized
        assert got == want


GCD_KINDS = (
    "shared factor",
    "monomial content",
    "integer content",
    "large coefficients",
    "coprime",
    "constant",
    "zero",
    "sparse support",
)


def gcd_case(rng, kind):
    """A pair of ordinary polynomials in 1-4 variables of the given kind
    (6 variables for "sparse support", of which only 2-3 occur)."""
    m = rng.randint(1, 4)

    def poly(max_coeff=9):
        return random_poly(rng, m=m, max_terms=4, max_exp=3, max_coeff=max_coeff, laurent=False)

    def monomial():
        return LaurentPoly.monomial(m, [rng.randint(0, 4) for _ in range(m)], rng.choice((1, -1, 2, 3, -6)))

    if kind == "shared factor":
        g = poly()
        return poly() * g, poly() * g
    if kind == "monomial content":
        if rng.random() < 0.5:
            return monomial(), monomial()
        return monomial() * poly(), monomial() * poly()
    if kind == "integer content":
        k = rng.choice((2, 3, 6, 12))
        return poly() * (k * rng.choice((1, -2, 5))), poly() * (k * rng.choice((1, 3, -7)))
    if kind == "large coefficients":
        g = poly(10**6)
        return poly(10**4) * g, poly(10**8) * g
    if kind == "coprime":
        a = poly()
        return a, a * poly() + LaurentPoly.const(m, rng.choice((1, -1)))
    if kind == "constant":
        return LaurentPoly.const(m, rng.choice((1, 2, -4, 6, 30))), poly() * rng.choice((1, 2, 3))
    if kind == "sparse support":
        # the heuristic evaluates only the occurring slots and leaves the others alone
        slots = sorted(rng.sample(range(6), rng.randint(2, 3)))

        def sparse():
            p = random_poly(rng, m=len(slots), max_terms=4, max_exp=3, max_coeff=9, laurent=False)
            embed = [0] * 6
            terms = []
            for exps, c in p.terms:
                for slot, e in zip(slots, exps):
                    embed[slot] = e
                terms.append((tuple(embed), c))
            return LaurentPoly(6, terms)

        g = sparse()
        return sparse() * g, sparse() * g
    return LaurentPoly.zero(m), poly()


@pytest.mark.parametrize("kind", GCD_KINDS)
def test_poly_gcd_agrees_with_prs_and_sympy(kind):
    pytest.importorskip("sympy")
    rng = random.Random(f"gcd {kind}")
    for _ in range(60):
        a, b = gcd_case(rng, kind)
        got = poly_gcd(a, b)
        assert got == _poly_gcd_prs(a, b) == sympy_gcd(a, b), (a, b)
        assert poly_gcd(b, a) == got
        if kind == "coprime":
            assert got.is_one


def test_poly_gcd_falls_back_to_prs(monkeypatch):
    rng = random.Random(29)
    cases = [gcd_case(rng, kind) for kind in GCD_KINDS for _ in range(10)]
    want = [_poly_gcd_prs(a, b) for a, b in cases]
    fallbacks = []

    def counting_prs(a, b):
        fallbacks.append((a, b))
        return _poly_gcd_prs(a, b)

    monkeypatch.setattr(clusterkit.laurent, "_HEU_GCD_ATTEMPTS", 0)
    monkeypatch.setattr(clusterkit.laurent, "_poly_gcd_prs", counting_prs)
    assert [poly_gcd(a, b) for a, b in cases] == want
    # every pair the heuristic would see (nonzero, not both constant) went to the fallback
    seen = [(a, b) for a, b in cases if not (a.is_zero or b.is_zero) and a.support_vars() | b.support_vars()]
    assert seen and all(pair in fallbacks for pair in seen)


@pytest.mark.parametrize("heuristic", [True, False], ids=["heuristic", "fallback"])
@pytest.mark.parametrize("kind", [kind for kind in GCD_KINDS if kind != "zero"])
def test_gcd_cofactors_multiply_back(monkeypatch, kind, heuristic):
    # the cofactors are what RationalFn keeps, so they must be exact whichever
    # algorithm found the gcd; _gcd_cofactors takes nonzero operands only
    # (poly_gcd and _reduce_fraction answer a zero one before calling it)
    if not heuristic:
        monkeypatch.setattr(clusterkit.laurent, "_HEU_GCD_ATTEMPTS", 0)
    rng = random.Random(f"cofactors {kind}")
    checked = 0
    while checked < 30:
        a, b = gcd_case(rng, kind)
        if a.is_zero or b.is_zero:
            continue
        g, ca, cb = _gcd_cofactors(a, b)
        assert g * ca == a and g * cb == b, (a, b)
        assert ca.is_ordinary() and cb.is_ordinary()
        assert g in (_poly_gcd_prs(a, b), -_poly_gcd_prs(a, b)), (a, b)
        checked += 1


def test_rationalfn_reduction_divides_each_pair_once(monkeypatch):
    # GCDHEU accepts its gcd by dividing both operands by it, and those
    # quotients are the reduced fraction: dividing by the gcd again would
    # repeat a (dividend, divisor) pair
    divide = clusterkit.laurent.exact_div
    divisions = []

    def counted(a, b):
        divisions.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(clusterkit.laurent, "exact_div", counted)
    g = x(1) * x(2) + 3 * x(2) + one()  # content 1, positive leading coefficient
    num, den = g * (x(1) + 2 * x(3)), g * (x(1) * x(3) - 5 * one())
    r = RationalFn(num, den)
    assert (r.num, r.den) == (x(1) + 2 * x(3), x(1) * x(3) - 5 * one())
    assert divisions and len(set(divisions)) == len(divisions)


# -- rational functions ------------------------------------------------------


def test_rationalfn_reduction():
    r = RationalFn(x(1) ** 2 - x(2) ** 2, x(1) - x(2))
    assert r.is_polynomial and r.num == x(1) + x(2)
    again = RationalFn(r.num, r.den)
    assert again == r  # reducing a reduced fraction is the identity


def test_rationalfn_invariants():
    rng = random.Random(23)
    for _ in range(100):
        num = random_poly(rng, laurent=False)
        den = random_poly(rng, laurent=False)
        if den.is_zero:
            continue
        r = RationalFn(num, den)
        assert not r.den.is_zero
        assert poly_gcd(r.num, r.den).is_one or r.num.is_zero
        assert r.den.terms[0][1] > 0  # positive leading coefficient
        assert r.is_polynomial == r.den.is_one
        assert RationalFn(r.num, r.den) == r


def test_rationalfn_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFn(one(), LaurentPoly.zero(M))


def test_rationalfn_refuses_parts_from_different_rings():
    # a monomial denominator in x3 was cancelled away against a 2-variable
    # numerator, and x3 + 1 failed deep in the shift with "negative shift count"
    num = parse_poly("x1 + x2", 2)
    for den in (LaurentPoly.monomial(3, (0, 0, 1)), parse_poly("x3 + 1", 3), LaurentPoly.zero(3)):
        with pytest.raises(DimensionMismatch, match="ambient dimensions differ: 2 vs 3"):
            RationalFn(num, den)


@pytest.mark.parametrize("k", [True, 1.5, "2", 2.0])
def test_power_rejects_an_exponent_that_is_not_an_int(k):
    # x ** True returned x, and x ** 1.5 raised TypeError from inside the square-and-multiply
    for base in (x(1), RationalFn.from_laurent(x(1))):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            base**k


def test_rationalfn_power_matches_reducing_products():
    # powers skip the gcd: they must equal repeated reducing products, and a
    # negative power the reduced inverse RationalFn(den, num) multiplied up
    rng = random.Random(31)
    fractions = [RationalFn(-x(1, 3) - 2 * one(3), x(2, 3) + one(3)), RationalFn.const(3, -3)]
    while len(fractions) < 40:
        den = random_poly(rng, laurent=False)
        if not den.is_zero:
            fractions.append(RationalFn(random_poly(rng, laurent=False), den))
    assert any(r.is_zero for r in fractions) and any(r.num.terms[0][1] < 0 for r in fractions if r.num.terms)
    for r in fractions:
        for k in range(-3, 5):
            if k < 0 and r.is_zero:
                with pytest.raises(ZeroDivisionError):
                    r**k
                continue
            base = RationalFn(r.den, r.num) if k < 0 else r
            expected = RationalFn.const(3, 1)
            for _ in range(abs(k)):
                expected = expected * base
            got = r**k
            assert got == expected
            assert got.den.terms[0][1] > 0


def test_rationalfn_arithmetic_via_evaluation():
    rng = random.Random(29)
    for _ in range(100):
        a = RationalFn(random_poly(rng, laurent=False), one(3))
        bden = random_poly(rng, laurent=False)
        if bden.is_zero:
            continue
        b = RationalFn(random_poly(rng, laurent=False), bden)
        pt = nonzero_point(rng, 3)
        if b.den.evaluate(pt) == 0:
            continue
        lhs = (a + b).num.evaluate(pt) / (a + b).den.evaluate(pt)
        rhs = a.num.evaluate(pt) / a.den.evaluate(pt) + b.num.evaluate(pt) / b.den.evaluate(pt)
        assert lhs == rhs


# -- substitution ------------------------------------------------------------


def identity_images(m):
    return [RationalFn.from_laurent(LaurentPoly.variable(m, i + 1)) for i in range(m)]


def test_substitute_identity():
    e = exact_div(one() + x(2), x(1))
    res = substitute(e, identity_images(M))
    assert res == RationalFn.from_laurent(e)


def test_substitute_inverts_exchange_relation():
    # e = (1 + x2)/x1 with x1 -> (1 + x2)/z1, x2 -> z2 lands back on z1
    e = exact_div(one() + x(2), x(1))
    images = identity_images(M)
    images[0] = RationalFn(one() + x(2), x(1))
    res = substitute(e, images)
    assert res.is_polynomial and res.num == x(1)


def test_substitute_pole():
    e = exact_div(one(), x(1))
    images = identity_images(M)
    images[0] = RationalFn.const(M, 0)
    with pytest.raises(ZeroImageInverted):
        substitute(e, images)


def test_compose_as_quotient_matches_substitute():
    # the kernel's composition of e's (num, den) split against reduced RationalFn
    # substitution, images in another ambient ring; num / den == a / b is checked
    # as num * b == a * den
    rng = random.Random(245)
    checked = 0
    for _ in range(300):
        e = random_poly(rng, m=3, laurent=rng.random() < 0.7)
        images = [random_poly(rng, m=2) for _ in range(3)]
        images = [img if not img.is_zero else LaurentPoly.const(2, -2) for img in images]
        split = RationalFn.from_laurent(e)
        num, den = _compose((split.num, split.den), images)
        value = substitute(e, [RationalFn.from_laurent(img) for img in images])
        assert num * value.den == value.num * den
        expected_den = LaurentPoly.const(2, 1)
        for img, a in zip(images, e.min_exponents()):
            expected_den = expected_den * img ** max(0, -a)
        assert den == expected_den
        checked += not e.is_zero
    assert checked > 200


def test_compose_rejects_negative_exponents():
    images = [x(1, 2), x(2, 2)]
    assert _compose([], images) == []
    assert _compose([LaurentPoly.zero(2)], images) == [LaurentPoly.zero(2)]
    with pytest.raises(ValueError, match="ordinary"):
        _compose([x(1, 2), exact_div(x(1, 2), x(2, 2))], images)


def test_compose_depth_does_not_follow_the_variable_count():
    # more source variables than the recursion limit allows frames: one term
    # opens every level of the Horner walk at once
    n = 1500
    assert n > sys.getrecursionlimit()
    images = [LaurentPoly.monomial(2, (i % 3 - 1, i % 2)) for i in range(n)]
    terms = {tuple(1 + i % 2 for i in range(n)): 2, (0,) * (n - 1) + (3,): -1, (0,) * n: 5}
    p = LaurentPoly(n, terms)

    def image_exps(exps):  # the product of the monomial images' powers
        return tuple(sum(a * img.terms[0][0][t] for a, img in zip(exps, images)) for t in (0, 1))

    expected = LaurentPoly(2, [(image_exps(exps), c) for exps, c in terms.items()])
    assert _compose([p, LaurentPoly.zero(n)], images) == [expected, LaurentPoly.zero(2)]
    assert compose_reference([p], images) == [expected]


def test_compose_builds_powers_from_cached_lower_ones(monkeypatch):
    # x1^9 + x1^7 asks the power table for image^2 (the gap) and then image^7
    # (the last degree); image^7 is built up from the cached image^2 in three
    # multiplies (2 -> 4 -> 6 -> 7), where image ** 7 from scratch takes four
    image = LaurentPoly(2, {(1, 0): 1, (0, -1): 2, (0, 0): -1})
    images = [image, x(2, 2)]
    p = LaurentPoly(2, {(9, 0): 1, (7, 0): 1})
    expected = compose_reference([p], images)
    products = []
    real = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: products.append(b) or real(a, b))
    assert _compose([p], images) == expected
    monkeypatch.undo()
    # image^2, the gap step, image^4, image^6, image^7 and the last step
    assert len(products) == 6
    assert expected == [image**9 + image**7]


@pytest.mark.parametrize("text", ["x1^\u0661\u0660", "\uff12*x1", "x\u0663", "x1^1_0", "1_0*x1"])
def test_parse_poly_reads_only_ascii_digits(text):
    # int() and \d would read these as x1^10, 2*x1, x3 and so on
    with pytest.raises(ParseError):
        parse_poly(text)


# -- X^d + 1 ------------------------------------------------------------------


def test_xd_plus_one_examples():
    assert xd_plus_one_reducible(3, FieldTag.RATIONALS)
    assert xd_plus_one_reducible(2, FieldTag.COMPLEXES)
    assert not xd_plus_one_reducible(2, FieldTag.RATIONALS)
    assert not xd_plus_one_reducible(1, FieldTag.RATIONALS)
    assert not xd_plus_one_reducible(1, FieldTag.COMPLEXES)
    with pytest.raises(ValueError):
        xd_plus_one_reducible(0, FieldTag.RATIONALS)


def test_xd_plus_one_agrees_with_bruteforce():
    for d in range(1, 13):
        assert xd_plus_one_reducible(d, FieldTag.RATIONALS) == xd_plus_one_reducible_bruteforce(d)


def test_odd_divisor_agrees_with_bruteforce():
    powers_of_two = {2**a for a in range(13)}
    for d in range(1, 4097):
        q = odd_divisor(d)
        if d in powers_of_two:
            assert q is None, d
        else:
            assert q % 2 == 1 and d % q == 0 and d // q in powers_of_two, (d, q)
    # the factor the gcd criterion names divides X^d + 1
    for d in range(1, 201):
        q = odd_divisor(d)
        if q is not None:
            target, factor = x(1, 1) ** d + one(1), x(1, 1) ** (d // q) + one(1)
            assert exact_div(target, factor) * factor == target, d
    assert odd_divisor(1000000007) == 1000000007
    assert odd_divisor(3 * 1000000007) == 3000000021


@pytest.mark.parametrize("d", [0, -4])
def test_odd_divisor_rejects_nonpositive(d):
    # 0 looped forever and -4 returned -1
    with pytest.raises(ValueError):
        odd_divisor(d)


def test_xd_plus_one_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("X")
    for d in range(1, 13):
        factors = sympy.factor_list(X**d + 1)[1]
        reducible = sum(mult for _, mult in factors) > 1
        assert xd_plus_one_reducible(d, FieldTag.RATIONALS) == reducible


# -- canonical text form ------------------------------------------------------


def test_render_examples():
    inv1 = exact_div(one(), x(1))
    assert render_poly(inv1 * (one() + x(2))) == "x1^-1*x2 + x1^-1"
    assert render_poly(LaurentPoly.zero(M)) == "0"
    assert render_poly(-x(1) + LaurentPoly.const(M, 3)) == "-x1 + 3"
    assert render_poly(2 * x(2) ** 2 * x(1)) == "2*x1*x2^2"


def test_parse_round_trip_is_canonical():
    p = parse_poly("x1^-1 + x2^2")
    assert render_poly(p) == "x2^2 + x1^-1"
    assert parse_poly(render_poly(p)) == p


def test_parse_rejects_zero_index():
    with pytest.raises(ParseError):
        parse_poly("x0")


def test_parse_rejects_garbage():
    for bad in ("", "x1 +", "* x1", "x1^", "x1 & x2", "2 2"):
        with pytest.raises(ParseError):
            parse_poly(bad)


@pytest.mark.parametrize("text", ["-", "+", "\u2212", " - ", "\t+ "])
def test_parse_rejects_a_lone_sign(text):
    # a sign starts a term, and a term needs a factor: this was read as 0
    with pytest.raises(ParseError, match="found the end of the text"):
        parse_poly(text)


@pytest.mark.parametrize(
    "text, pos, found",
    [("x1 +", 4, "the end of the text"), ("x1*", 3, "the end of the text"), ("x1^", 3, "the end of the text"),
     ("x1^+2", 3, "'+'"), ("x1 & x2", 3, "'&'"), ("2 2", 2, "'2'"), ("* x1", 0, "'*'"), ("x1 x2", 3, "'x'")],
)
def test_parse_error_names_its_position_and_what_it_found(text, pos, found):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert f"found {found} (at position {pos})" in str(exc.value) and exc.value.pos == pos


def test_parse_render_random_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        p = random_poly(rng)
        assert parse_poly(render_poly(p), m=3) == p


def test_parse_infers_dimension():
    p = parse_poly("2*x3 - x1")
    assert p.m == 3
    with pytest.raises(ParseError):
        parse_poly("x5", m=3)
