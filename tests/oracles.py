"""Independent oracles and randomized input generators for the test suite.

Everything here deliberately avoids the package's own arithmetic paths:
the factor search works on plain coefficient lists, the rank-2 closure
oracle runs on sympy rational functions, the gcd oracle on sympy
polynomials, formal substitution on reduced RationalFn values instead of
the kernel's composition routine, and the generators only call back into
the package to reject invalid samples.  The reference composition builds
each term's value as a product of image powers and adds the terms one by
one, without the kernel's Horner walk.  The kernel references (general
multiply, leading-term division with the minimum exponents read off the
terms, powers, shifts, sums through a dictionary of exponent tuples,
matrix mutation) build every result
through the checking public constructors, and the reference associate
test divides by the reference division.  The reference quotient floor
clamps min(a) - min(b) slot by slot in a loop over the packed slots, where
the kernel clamps every slot at once; the reference acyclicity test
is a depth-first search for a back edge.  The reference symmetrizer
propagates Fraction ratios and rejects each failure where it meets it,
instead of the kernel's integer propagation and one final sweep.  The
reference exploration mutates every seed in every direction with
seed_mutate, without the exchange memo, the one-end edge walk or explore's
per-call labels; its quotient key sorts by LaurentPoly.sort_key, or is the
brute-force minimum over all relabellings, and its report groups clusters
as sets of values, not of labels.  The reference tree evaluator walks
every path of an expression tree, re-evaluating shared subtrees.  The
chain reference solves every one-step mutation of every chain stage by
seed_mutate, where type_a_chain only checks a predicted entry.  The
reference polynomial parser is the earlier one: a tokenizer, a token list
and a factor parser over it; it read a lone sign as the zero polynomial.
The reference factoriality criteria read the matrix entry by entry, take
each column gcd by folding math.gcd and the odd part by halving.
rank2_matrix builds the 2 x 2 test seeds, which the package never needs.
positive_roots reads a finite root system off its Cartan matrix by root
strings, on integer tuples alone.  The golden writers give certificates
and basis-change tables the JSON form their golden files record, which
the package does not have; their Jacobian uses derivative_reference.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations, product
from operator import add, sub
from random import Random
from typing import Sequence

from clusterkit.analysis import DegenerateColumn
from clusterkit.constructions import BfzTable, CartanMatrix, GeneratorCertificate
from clusterkit.explore import ExplorationReport
from clusterkit.laurent import DimensionMismatch, FieldTag, LaurentPoly, NotDivisible, ParseError, RationalFn, render_poly
from clusterkit.seeds import ExchangeMatrix, Seed, SeedProfile, seed_mutate, validate


# ---------------------------------------------------------------------------
# brute-force factor search for X^d + 1 over the integers
# ---------------------------------------------------------------------------


def _poly_divides(f: list[int], g: list[int]) -> bool:
    """Whether monic g divides f; ascending coefficient lists over Z."""
    rem = list(f)
    dg = len(g) - 1
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg or not rem:
            break
        c = rem[-1]
        shift = len(rem) - 1 - dg
        for j, gc in enumerate(g):
            rem[shift + j] -= c * gc
    return not rem


def xd_plus_one_reducible_bruteforce(d: int) -> bool:
    """Exhaustive search for a monic integer factor of X^d + 1.

    All complex roots have modulus one, so the coefficient of X^j in a
    monic degree-k factor is bounded by C(k, k - j); the constant term
    divides 1 and the values at +-1 divide the values of X^d + 1 there.
    By the Gauss lemma this decides reducibility over the rationals.
    """
    f = [1] + [0] * (d - 1) + [1]
    f_at_minus1 = 0 if d % 2 else 2
    for k in range(1, d // 2 + 1):
        mid_bounds = [math.comb(k, k - j) for j in range(1, k)]
        for c0 in (1, -1):
            for mid in product(*[range(-b, b + 1) for b in mid_bounds]):
                g = [c0, *mid, 1]
                g1 = sum(g)
                if g1 == 0 or 2 % g1:
                    continue
                if f_at_minus1:
                    gm1 = sum(c * (-1) ** i for i, c in enumerate(g))
                    if gm1 == 0 or f_at_minus1 % gm1:
                        continue
                if _poly_divides(f, g):
                    return True
    return False


# ---------------------------------------------------------------------------
# sympy gcd of ordinary integer polynomials
# ---------------------------------------------------------------------------


def to_sympy_poly(p: LaurentPoly):
    """The ordinary polynomial p as a sympy Poly over ZZ in x1..xm."""
    import sympy

    gens = sympy.symbols(f"x1:{p.m + 1}")
    return sympy.Poly.from_dict(dict(p.terms), *gens, domain="ZZ")


def from_sympy_poly(poly, m: int) -> LaurentPoly:
    return LaurentPoly(m, {exps: int(c) for exps, c in poly.as_dict().items()})


def sympy_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd(a, b) computed by sympy, signed so that the lex-largest term is positive."""
    g = from_sympy_poly(to_sympy_poly(a).gcd(to_sympy_poly(b)), a.m)
    return -g if g.terms and g.terms[0][1] < 0 else g


# ---------------------------------------------------------------------------
# reference kernel arithmetic: the general product and leading-term division
# ---------------------------------------------------------------------------


def mul_reference(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Product by the general term-by-term loop, whatever the factors."""
    if a.m != b.m:
        raise DimensionMismatch(f"ambient dimensions differ: {a.m} vs {b.m}")
    acc: dict[tuple, int] = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            key = tuple(x + y for x, y in zip(ea, eb))
            nc = acc.get(key, 0) + ca * cb
            if nc:
                acc[key] = nc
            else:
                del acc[key]
    return LaurentPoly(a.m, acc)


def exact_div_reference(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b by leading-term reduction in the ordinary ring, for every divisor.

    Both operands are shifted by monomials into the ordinary ring and
    reduced there, and the quotient is shifted back, where the kernel
    reduces the unshifted terms under a lower bound on the quotient's
    exponents.  The result goes through the checking constructor.
    """
    if a.m != b.m:
        raise DimensionMismatch(f"ambient dimensions differ: {a.m} vs {b.m}")
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return LaurentPoly.zero(a.m)
    sa = _min_exponents_reference(a)
    sb = _min_exponents_reference(b)
    rem = {tuple(map(sub, exps, sa)): c for exps, c in a.terms}
    bterms = [(tuple(map(sub, exps, sb)), c) for exps, c in b.terms]
    bl_exps, bl_c = bterms[0]
    quot: list[tuple[tuple, int]] = []
    while rem:
        r_exps = max(rem)
        r_c = rem[r_exps]
        t_exps = tuple(map(sub, r_exps, bl_exps))
        if min(t_exps) < 0 or r_c % bl_c:
            raise NotDivisible("leading term not divisible; quotient does not exist")
        t_c = r_c // bl_c
        quot.append((t_exps, t_c))
        for exps, c in bterms:
            key = tuple(map(add, t_exps, exps))
            nc = rem.get(key, 0) - t_c * c
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    shift = tuple(map(sub, sa, sb))
    return LaurentPoly(a.m, [(tuple(map(add, exps, shift)), c) for exps, c in quot])


def quotient_floor_reference(min_a: int, min_b: int, m: int) -> int:
    """exact_div's floor on the packed keys min_a and min_b of m slots, slot by slot:
    min_a - min_b + 2^30 in each slot, clamped to 0..2^31 (the guard bit)."""
    low = 0
    for s in range(32 * (m - 1), -1, -32):
        v = (min_a >> s & 0xFFFFFFFF) - (min_b >> s & 0xFFFFFFFF) + (1 << 30)
        low = low << 32 | min(max(v, 0), 1 << 31)
    return low


def add_reference(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a + b through a dictionary of exponent tuples and the checking constructor."""
    if a.m != b.m:
        raise DimensionMismatch(f"ambient dimensions differ: {a.m} vs {b.m}")
    acc = dict(a.terms)
    for exps, c in b.terms:
        acc[exps] = acc.get(exps, 0) + c
    return LaurentPoly(a.m, acc)


def power_reference(p: LaurentPoly, k: int) -> LaurentPoly:
    """p ** k as k reference products starting from 1."""
    out = LaurentPoly.const(p.m, 1)
    for _ in range(k):
        out = mul_reference(out, p)
    return out


def _min_exponents_reference(p: LaurentPoly) -> tuple:
    """Per-variable minimum exponent of a nonzero p, read off its terms."""
    return tuple(min(column) for column in zip(*(exps for exps, _ in p.terms)))


def shift_reference(p: LaurentPoly, offsets: Sequence[int]) -> LaurentPoly:
    """p times the monomial x^offsets, term by term through the checking constructor."""
    return LaurentPoly(p.m, [(tuple(map(add, exps, offsets)), c) for exps, c in p.terms])


def derivative_reference(p: LaurentPoly, i: int) -> LaurentPoly:
    """The partial derivative in x_i (1-indexed), term by term through the checking constructor."""
    j = i - 1
    return LaurentPoly(p.m, [(exps[:j] + (exps[j] - 1,) + exps[j + 1 :], c * exps[j]) for exps, c in p.terms if exps[j]])


def are_associate_reference(a: LaurentPoly, b: LaurentPoly, profile: SeedProfile) -> bool:
    """Whether a = u * b for a unit u, by trial division: the reference quotient
    a / b must exist and be +- a monomial in the invertible coefficients n+1..p."""
    if a.is_zero or b.is_zero:
        raise ValueError("associateness is defined for nonzero elements")
    if len(a.terms) != len(b.terms):
        return False  # a unit is +-monomial, and multiplying by one maps terms one to one
    try:
        q = exact_div_reference(a, b)
    except NotDivisible:
        return False
    if len(q.terms) != 1:
        return False
    ((exps, c),) = q.terms
    return c in (1, -1) and all(profile.n < i <= profile.p for i, e in enumerate(exps, start=1) if e)


def column_criterion_reference(B: ExchangeMatrix) -> dict:
    """column_criterion's verdict JSON from the statement: the first pair k < s,
    in lexicographic order, with b_ks = 0 and c_k = c_s, else c_k = -c_s; a matrix
    with an all-zero mutable column is refused."""
    n, m = B.profile.n, B.profile.m
    for k in range(1, n + 1):
        if all(B.entries[i][k - 1] == 0 for i in range(m)):
            raise DegenerateColumn(f"column {k} is entirely zero")
    for k in range(1, n + 1):
        for s in range(k + 1, n + 1):
            if B.entries[k - 1][s - 1] != 0:
                continue
            for sign in (1, -1):
                if all(B.entries[i][k - 1] == sign * B.entries[i][s - 1] for i in range(m)):
                    minus = "-" if sign < 0 else ""
                    return {
                        "status": "not_factorial",
                        "criterion": "equal_columns",
                        "witness": {"k": k, "s": s, "negated": sign < 0},
                        "justification": f"columns {k} and {s} satisfy c_{k} = {minus}c_{s} with b_{k}{s} = 0; "
                        f"mutating at {k} then {s} produces two non-associate irreducible "
                        f"factorizations of the same element",
                    }
    return {
        "status": "inconclusive",
        "criterion": None,
        "witness": None,
        "justification": "no pair of mutable columns is equal up to sign with a zero linking entry",
    }


def gcd_criterion_reference(B: ExchangeMatrix, field: FieldTag) -> dict:
    """gcd_criterion's verdict JSON from the statement: the first column k whose
    entry gcd d has X^d + 1 reducible, which over the complexes means d >= 2 and
    over the rationals that d has an odd part q > 1, giving the factor X^(d/q) + 1."""
    gcds = []
    for k in range(1, B.profile.n + 1):
        d = 0
        for row in B.entries:
            d = math.gcd(d, row[k - 1])
        if d == 0:
            raise DegenerateColumn(f"column {k} is entirely zero")
        gcds.append(d)
    for k, d in enumerate(gcds, start=1):
        q = d
        while q % 2 == 0:
            q //= 2
        if field is FieldTag.COMPLEXES and d >= 2:
            why = f"X^{d}+1 splits into linear factors over the complexes (d = {d} >= 2)"
        elif field is FieldTag.RATIONALS and q > 1:
            why = f"d = {d} is not a power of two: X^{d}+1 has the rational factor X^{d // q}+1"
        else:
            continue
        return {
            "status": "not_factorial",
            "criterion": "column_gcd",
            "witness": {"k": k, "d": d, "field": field.value, "odd_factor": q if q > 1 else None},
            "justification": f"column {k} has entry gcd {d} and {why}; the exchange relation at {k} "
            f"then factors into non-associate non-units in two ways",
        }
    return {
        "status": "inconclusive",
        "criterion": None,
        "witness": None,
        "justification": f"every mutable column gcd d has X^d+1 irreducible over {field.value}",
    }


def matrix_mutate_reference(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """mu_k(B) entry by entry, built through the checking constructor."""
    n, m = B.profile.n, B.profile.m
    kk = k - 1
    old = B.entries
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            if i == kk or j == kk:
                row.append(-old[i][j])
            else:
                bik, bkj = old[i][kk], old[kk][j]
                row.append(old[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        rows.append(row)
    return ExchangeMatrix(rows, B.profile)


def diagonal_scaler_reference(A: Sequence[Sequence[int]], skew: bool) -> tuple[int, ...] | None:
    """Minimal positive integer d with d_i*A_ij = sign*d_j*A_ji, or None.

    sign is -1 for skew-symmetrizers and +1 for symmetrizers.  The vector
    is found by ratio propagation along the nonzero pattern and made
    minimal per connected component.
    """
    n = len(A)
    sign = -1 if skew else 1
    if skew and any(A[i][i] != 0 for i in range(n)):
        return None
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or (A[i][j] == 0 and A[j][i] == 0):
                    continue
                if A[i][j] == 0 or A[j][i] == 0:
                    return None  # one-sided zero cannot be scaled away
                ratio = sign * Fraction(A[i][j], A[j][i])
                if ratio <= 0:
                    return None
                val = d[i] * ratio
                if d[j] is None:
                    d[j] = val
                    component.append(j)
                    stack.append(j)
                elif d[j] != val:
                    return None
        # scale the component to minimal positive integers
        denom_lcm = math.lcm(*(d[i].denominator for i in component))
        ints = [int(d[i] * denom_lcm) for i in component]
        g = math.gcd(*ints)
        for i, v in zip(component, ints):
            d[i] = Fraction(v // g)
    # final consistency sweep over every pair
    for i in range(n):
        for j in range(n):
            if d[i] * A[i][j] != sign * d[j] * A[j][i]:
                return None
    return tuple(int(v) for v in d)


def is_acyclic_reference(B: ExchangeMatrix) -> bool:
    """No oriented cycle in the sign-pattern quiver: depth-first search for a back edge."""
    n = B.profile.n
    succ = [[j for j in range(n) if B.entries[i][j] > 0] for i in range(n)]
    state = [0] * n  # 0 unseen, 1 on stack, 2 done
    for start in range(n):
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(succ[w])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                stack.pop()
    return True


# ---------------------------------------------------------------------------
# formal substitution into reduced rational functions
# ---------------------------------------------------------------------------


class ZeroImageInverted(ZeroDivisionError):
    """Substitution asked to invert a zero image (pole)."""


def substitute(e: LaurentPoly, images: Sequence[RationalFn]) -> RationalFn:
    """Formal substitution x_i -> images[i-1], reduced.

    Raises ZeroImageInverted when a variable with a negative exponent in
    some term of e is mapped to zero.
    """
    if len(images) != e.m:
        raise DimensionMismatch(f"{len(images)} images for {e.m} variables")
    if not images:
        raise DimensionMismatch("substitution requires at least one image")
    mt = images[0].m
    for img in images:
        if img.m != mt:
            raise DimensionMismatch("images live in different ambient rings")
    total = RationalFn.const(mt, 0)
    for exps, c in e.terms:
        term = RationalFn.const(mt, c)
        for i, ei in enumerate(exps):
            if not ei:
                continue
            img = images[i]
            if ei < 0 and img.is_zero:
                raise ZeroImageInverted(f"x{i + 1} has a negative exponent but maps to 0")
            term = term * img**ei
        total = total + term
    return total


def compose_reference(polys: Sequence[LaurentPoly], images: Sequence[LaurentPoly]) -> list[LaurentPoly]:
    """Values of ordinary polynomials at Laurent-polynomial images x_i -> images[i-1].

    All the values share one table of image powers, so each power of an
    image is computed once per call.  A negative exponent raises
    ValueError: RationalFn.from_laurent splits a Laurent value into the
    ordinary numerator and denominator that are composed instead.
    """
    m = images[0].m
    powers: list[dict[int, LaurentPoly]] = [{} for _ in images]
    values = []
    for p in polys:
        value = LaurentPoly.zero(m)
        for exps, c in p.terms:
            term = LaurentPoly.const(m, c)
            for i, k in enumerate(exps):
                if k < 0:
                    raise ValueError("composition expects ordinary polynomials (no negative exponents)")
                if k:
                    if k not in powers[i]:
                        powers[i][k] = images[i] ** k
                    term = term * powers[i][k]
            value = value + term
        values.append(value)
    return values


# ---------------------------------------------------------------------------
# expression trees of the constructions, and the goldens' JSON forms
# ---------------------------------------------------------------------------


def eval_expr_reference(expr: tuple, env: dict[str, LaurentPoly], m: int) -> LaurentPoly:
    """Plain recursive evaluation of a construction's expression tree."""
    tag = expr[0]
    if tag == "gen":
        return env[expr[1]]
    if tag == "int":
        return LaurentPoly.const(m, expr[1])
    if tag == "add":
        out = LaurentPoly.zero(m)
        for t in expr[1:]:
            out = out + eval_expr_reference(t, env, m)
        return out
    if tag == "sub":
        return eval_expr_reference(expr[1], env, m) - eval_expr_reference(expr[2], env, m)
    if tag == "mul":
        out = LaurentPoly.const(m, 1)
        for t in expr[1:]:
            out = out * eval_expr_reference(t, env, m)
        return out
    if tag == "pow":
        return eval_expr_reference(expr[1], env, m) ** expr[2]
    raise ValueError(f"unknown expression node {tag!r}")


def chain_one_step_reference(stages: Sequence[Seed]) -> dict[tuple[int, int], LaurentPoly]:
    """M(i, k), entry k of the one-step mutation of chain stage i at k, solved
    by seed_mutate for every 0 <= i <= m-2 and 1 <= k <= m-1-i."""
    m = len(stages)
    return {(i, k): seed_mutate(stages[i], k).cluster[k - 1] for i in range(m - 1) for k in range(1, m - i)}


def expr_to_json(expr: tuple) -> list:
    tag = expr[0]
    if tag in ("gen", "int"):
        return [tag, expr[1]]
    if tag == "pow":
        return [tag, expr_to_json(expr[1]), expr[2]]
    return [tag, *(expr_to_json(t) for t in expr[1:])]


def jacobian_det(gens: Sequence[LaurentPoly], point: Sequence[int]) -> Fraction:
    """The Jacobian determinant of a triangular support chain at a point: the product of dg_i/dx_i."""
    det = Fraction(1)
    for i, g in enumerate(gens, start=1):
        det *= derivative_reference(g, i).evaluate(point)
    return det


def certificate_to_json(cert: GeneratorCertificate, m: int) -> dict:
    """A certificate on m variables with each generator's pivot, and an integer
    sample point where the Jacobian is nonzero, drawn from a fixed seed."""
    rng = Random(20231115)
    points = (tuple(rng.randint(2, 19) for _ in range(m)) for _ in range(64))
    point, det = next((point, det) for point in points if (det := jacobian_det(cert.generators, point)))
    return {
        "generators": [
            {"name": nm, "value": render_poly(g), "pivot": i}
            for i, (nm, g) in enumerate(zip(cert.generator_names, cert.generators), start=1)
        ],
        "sample_point": list(point),
        "jacobian_det": str(det),
        "expressions": [
            {"target": label, "value": render_poly(val), "tree": expr_to_json(tree)}
            for label, val, tree in cert.expressions
        ],
    }


def bfz_table_to_json(table: BfzTable) -> dict:
    return {
        "degree_bound": table.degree_bound,
        "primed": [render_poly(p) for p in table.primed],
        "primed_in_generators": [render_poly(p) for p in table.primed_in_generators],
        "coefficient_in_generators": [render_poly(p) for p in table.coefficient_in_generators],
        "rows": [
            {
                "exponents": list(r.exponents),
                "combination": [{"monomial": list(mexp), "coeff": c} for mexp, c in r.combination],
            }
            for r in table.rows
        ],
    }


# ---------------------------------------------------------------------------
# reference polynomial parser: a token list and a factor parser over it
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<var>x[0-9]+)|(?P<op>[-+*^−]))")


def _tokenize_poly(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        mobj = _TOKEN.match(text, pos)
        if mobj is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if mobj.group("int") is not None:
            tokens.append(("int", int(mobj.group("int")), mobj.start("int")))
        elif mobj.group("var") is not None:
            tokens.append(("var", int(mobj.group("var")[1:]), mobj.start("var")))
        else:
            op = mobj.group("op")
            tokens.append(("op", "-" if op == "−" else op, mobj.start("op")))
        pos = mobj.end()
    return tokens


def parse_poly_reference(text: str, m: int | None = None) -> LaurentPoly:
    """The token-list parser; it returns the zero polynomial for a lone sign."""
    tokens = _tokenize_poly(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    raw_terms: list[tuple[int, dict[int, int]]] = []
    i = 0
    sign = 1
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1 if tokens[0][1] == "-" else 1
        i = 1

    def parse_factor(i, coeff, exps):
        kind, val, pos = tokens[i]
        if kind == "int":
            return i + 1, coeff * val
        if kind == "var":
            if val < 1:
                raise ParseError("variable indices are 1-based", pos)
            e = 1
            j = i + 1
            if j < len(tokens) and tokens[j] == ("op", "^", tokens[j][2]):
                j += 1
                esign = 1
                if j < len(tokens) and tokens[j][0] == "op" and tokens[j][1] == "-":
                    esign = -1
                    j += 1
                if j >= len(tokens) or tokens[j][0] != "int":
                    raise ParseError("expected integer exponent after '^'", pos)
                e = esign * tokens[j][1]
                j += 1
            exps[val] = exps.get(val, 0) + e
            return j, coeff
        raise ParseError(f"expected a coefficient or variable, got {val!r}", pos)

    while i < len(tokens):
        coeff = sign
        exps: dict[int, int] = {}
        i, coeff = parse_factor(i, coeff, exps)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
            if i + 1 >= len(tokens):
                raise ParseError("dangling '*'", tokens[i][2])
            i, coeff = parse_factor(i + 1, coeff, exps)
        raw_terms.append((coeff, exps))
        if i < len(tokens):
            kind, val, pos = tokens[i]
            if kind != "op" or val not in "+-":
                raise ParseError(f"expected '+' or '-', got {val!r}", pos)
            sign = -1 if val == "-" else 1
            i += 1
            if i >= len(tokens):
                raise ParseError("trailing sign", pos)

    max_var = max((max(exps) for _, exps in raw_terms if exps), default=0)
    if m is None:
        m = max_var
    elif max_var > m:
        raise ParseError(f"variable x{max_var} outside ambient dimension {m}", 0)
    acc: dict[tuple, int] = {}
    for coeff, exps in raw_terms:
        key = tuple(exps.get(i + 1, 0) for i in range(m))
        acc[key] = acc.get(key, 0) + coeff
    return LaurentPoly(m, acc)


# ---------------------------------------------------------------------------
# naive rational-function closure oracle for rank-2 seeds
# ---------------------------------------------------------------------------


def rank2_matrix(b: int, c: int) -> ExchangeMatrix:
    """The 2 x 2 seed matrix with exchange relations x1*x1' = x2^c + 1, x2*x2' = x1^b + 1."""
    return ExchangeMatrix([[0, b], [-c, 0]], SeedProfile(2, 2, 2))


def rank2_closure_bruteforce(b: int, c: int, max_seeds: int = 200):
    """Exhaust the rank-2 exchange graph with sympy rational functions.

    Returns (variable_count, cluster_count, closed).  Mutation follows
    the exchange relation directly on symbolic expressions; for a 2 x 2
    matrix the matrix mutation is plain negation.
    """
    import sympy

    v1, v2 = sympy.symbols("v1 v2")
    initial = ((v1, v2), ((0, b), (-c, 0)))

    def canon(expr):
        return sympy.srepr(sympy.cancel(sympy.together(expr)))

    def key(state):
        cluster, mat = state
        return (tuple(canon(v) for v in cluster), mat)

    def mutate(state, k):
        cluster, mat = state
        col = (mat[0][k], mat[1][k])
        m1 = sympy.Integer(1)
        m2 = sympy.Integer(1)
        for i in (0, 1):
            if col[i] > 0:
                m1 *= cluster[i] ** col[i]
            elif col[i] < 0:
                m2 *= cluster[i] ** (-col[i])
        new = sympy.cancel((m1 + m2) / cluster[k])
        out = list(cluster)
        out[k] = new
        return (tuple(out), tuple(tuple(-x for x in row) for row in mat))

    seen = {key(initial)}
    order = [initial]
    frontier = [initial]
    closed = True
    while frontier:
        nxt = []
        for state in frontier:
            for k in (0, 1):
                child = mutate(state, k)
                ck = key(child)
                if ck in seen:
                    continue
                if len(seen) >= max_seeds:
                    closed = False
                    frontier = []
                    nxt = []
                    break
                seen.add(ck)
                order.append(child)
                nxt.append(child)
            else:
                continue
            break
        frontier = nxt
    variables = {canon(v) for cluster, _ in order for v in cluster}
    clusters = {frozenset(canon(v) for v in cluster) for cluster, _ in order}
    return len(variables), len(clusters), closed


# ---------------------------------------------------------------------------
# reference quotient keys: minimum over all n! relabellings, and sort by sort_key
# ---------------------------------------------------------------------------


def permutation_key_bruteforce(seed: Seed):
    """Least (rows, cluster) form over every simultaneous permutation of the mutable indices.

    A complete invariant of the relabelling class whatever the cluster
    entries are, at O(n!) cost per seed.
    """
    n = seed.profile.n
    m = seed.profile.m
    best = None
    for perm in permutations(range(n)):
        rows = []
        for i in range(m):
            src = perm[i] if i < n else i
            row = seed.matrix.entries[src]
            rows.append(tuple(row[perm[j]] for j in range(n)))
        cluster = tuple(
            seed.cluster[perm[i]].sort_key() if i < n else seed.cluster[i].sort_key()
            for i in range(m)
        )
        key = (tuple(rows), cluster)
        if best is None or key < best:
            best = key
    return best


def permutation_key(seed: Seed):
    """Canonical representative under simultaneous permutation of mutable indices.

    The mutable indices are sorted by their cluster entries' sort keys, and
    the rows and columns of the matrix are permuted to match: the seed-level
    form of explore's quotient key, which sorts by per-call labels instead.
    """
    n = seed.profile.n
    keys = [c.sort_key() for c in seed.cluster]
    perm = sorted(range(n), key=keys.__getitem__) + list(range(n, seed.profile.m))
    entries = seed.matrix.entries
    rows = tuple(tuple(entries[src][perm[j]] for j in range(n)) for src in perm)
    return rows, tuple(keys[src] for src in perm)


# ---------------------------------------------------------------------------
# reference exploration: every seed mutated in every direction
# ---------------------------------------------------------------------------


def explore_reference(seed: Seed, limits, quotient_permutations: bool = False, quotient_key=permutation_key):
    """explore's breadth-first walk with one seed_mutate per seed and direction.

    Seeds are deduplicated as Seed values, or by quotient_key under the
    quotient, instead of by explore's per-call labels; the report is
    built from the cluster values by report_reference.
    """
    key = quotient_key if quotient_permutations else (lambda s: s)
    seen = {key(seed)}
    order = [seed]
    level = [seed]
    depth = 0
    reason = "closure"
    while level:
        if depth == limits.max_depth:
            reason = "depth"
            break
        next_level = []
        for s in level:
            for k in range(1, s.profile.n + 1):
                child = seed_mutate(s, k)
                ck = key(child)
                if ck in seen:
                    continue
                if len(seen) >= limits.max_seeds:
                    return report_reference(order, "budget")
                seen.add(ck)
                order.append(child)
                next_level.append(child)
        level = next_level
        depth += 1
    return report_reference(order, reason)


def report_reference(order: list, reason: str) -> ExplorationReport:
    """explore's report on the seeds found, built from the values of their mutable entries:
    one frozenset of LaurentPoly per distinct cluster, sorted by the entries' sort keys,
    and the positions of each cluster's entries among the sorted variables."""
    clusters = []
    cluster_seen = set()
    for s in order:
        cl = frozenset(s.mutable_entries())
        if cl not in cluster_seen:
            cluster_seen.add(cl)
            clusters.append(cl)
    variables = sorted({v for cl in clusters for v in cl}, key=LaurentPoly.sort_key)
    clusters.sort(key=lambda cl: tuple(sorted(v.sort_key() for v in cl)))
    index = {v: i for i, v in enumerate(variables)}
    return ExplorationReport(
        seeds_found=len(order),
        distinct_variables=tuple(variables),
        distinct_clusters=tuple(clusters),
        cluster_indices=tuple(tuple(sorted(index[v] for v in cl)) for cl in clusters),
        finite=reason == "closure",
        frontier_exhausted_reason=reason,
        seeds=tuple(order),
    )


# ---------------------------------------------------------------------------
# randomized inputs
# ---------------------------------------------------------------------------


def _dynkin_edges(letter: str, n: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, |a_ij|, |a_ji|) of the Dynkin tree of A_n, B_n, C_n, D_n,
    E_n (n = 6, 7, 8), F_4 or G_2, 0-indexed."""
    if letter == "D":
        return [(i, i + 1, 1, 1) for i in range(n - 2)] + [(n - 3, n - 1, 1, 1)]
    if letter == "E":
        return [(i, i + 1, 1, 1) for i in range(n - 2)] + [(2, n - 1, 1, 1)]
    edges = [(i, i + 1, 1, 1) for i in range(n - 1)]
    if letter == "B":
        edges[-1] = (n - 2, n - 1, 2, 1)
    elif letter == "C":
        edges[-1] = (n - 2, n - 1, 1, 2)
    elif letter == "F":
        edges[1] = (1, 2, 2, 1)
    elif letter == "G":
        edges[0] = (0, 1, 3, 1)
    return edges


def random_dynkin_matrix(rng, letter: str, n: int) -> ExchangeMatrix:
    """A finite-type exchange matrix: random orientation, relabelling and 0..n frozen rows.

    b_ij = s|a_ij| and b_ji = -s|a_ji| with a random sign s per Dynkin
    edge; each frozen row has entries in {-1, 0, 1}, not all zero.
    """
    B = [[0] * n for _ in range(n)]
    for i, j, aij, aji in _dynkin_edges(letter, n):
        s = rng.choice((1, -1))
        B[i][j], B[j][i] = s * aij, -s * aji
    perm = rng.sample(range(n), n)
    rows = [[B[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, n)):
        row = [0] * n
        while not any(row):
            row = [rng.choice((-1, 0, 1)) for _ in range(n)]
        rows.append(row)
    m = len(rows)
    return ExchangeMatrix(rows, SeedProfile(n, rng.randint(n, m), m))


def random_valid_matrix(rng, max_n: int = 4, max_m: int = 6, bound: int = 3) -> ExchangeMatrix:
    """A validated random exchange matrix with entries in [-bound, bound]."""
    while True:
        n = rng.randint(1, max_n)
        m = rng.randint(max(2, n), max_m)
        p = rng.randint(n, m)
        d = [rng.choice((1, 2, 3)) for _ in range(n)]
        rows = [[0] * n for _ in range(m)]
        for i in range(n):
            for j in range(i + 1, n):
                t = rng.randint(-1, 1)
                rows[i][j] = d[j] * t
                rows[j][i] = -d[i] * t
        for i in range(n, m):
            rows[i] = [rng.randint(-bound, bound) for _ in range(n)]
        B = ExchangeMatrix(rows, SeedProfile(n, p, m))
        if not validate(B):
            return B


def random_cartan(rng, max_n: int = 4, bound: int = 3) -> CartanMatrix:
    """A random generalized Cartan matrix whose attached seed is connected."""
    from clusterkit.constructions import acyclic_seed_from_cartan
    from clusterkit.seeds import InvalidSeed

    while True:
        n = rng.randint(1, max_n)
        c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            for i in range(n):
                for j in range(i + 1, n):
                    c[i][j] = c[j][i] = rng.randint(-bound, 0)
        else:
            d = [rng.choice((1, 2, 3)) for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    t = rng.choice((-1, 0))
                    c[i][j] = d[j] * t
                    c[j][i] = d[i] * t
        try:
            cm = CartanMatrix(c)
            acyclic_seed_from_cartan(cm)
        except (ValueError, InvalidSeed):
            continue
        return cm


def positive_roots(cartan: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
    """The positive roots of a finite-type Cartan matrix, in the basis of simple roots.

    Root strings, height by height: with <alpha_i^vee, beta> = sum_j a_ij beta_j,
    the alpha_i-string through a positive root beta != alpha_i runs from
    beta - p alpha_i to beta + q alpha_i with p - q = <alpha_i^vee, beta>, so
    beta + alpha_i is a root exactly when p > <alpha_i^vee, beta>.  Every
    root below beta has a smaller height and is already known when beta's
    strings are read.  Nothing here touches clusterkit.
    """
    n = len(cartan)
    layer = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    roots = set(layer)
    while layer:
        higher = set()
        for beta in layer:
            for i in range(n):
                p, down = 0, list(beta)
                down[i] -= 1
                while tuple(down) in roots:
                    p, down[i] = p + 1, down[i] - 1
                if p > sum(a * b for a, b in zip(cartan[i], beta)):
                    higher.add(beta[:i] + (beta[i] + 1,) + beta[i + 1:])
        roots |= higher
        layer = higher
    return roots


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)
