"""Ring-theoretic toolkit: units, associates, disjointness, factoriality criteria.

Units of the algebra are signs times monomials in the invertible
coefficient variables x_{n+1}..x_p.  Over the integer coefficient model
the scalar is restricted to +-1; an ambient field would only contribute a
scalar rescaling on top of these monomial units, so associate tests and
unit classification are reported for the integer model and documented as
such.  Two structurally distinct cluster variables are never associate,
which makes cluster disjointness a structural test.

The two non-factoriality criteria read each column once and return a
verdict that is either NotFactorial with an explicit witness, or
Inconclusive.  An all-zero mutable column raises DegenerateColumn: both
criteria check every column before they look for a witness.  No
criterion ever claims factoriality: the affirmative direction is handled
by explicit polynomial-ring certificates in the constructions module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import gcd

from .laurent import (
    DimensionMismatch,
    FieldTag,
    LaurentPoly,
    NotDivisible,
    RationalFn,
    _compose,
    _divide_coefficients,
    _integer_content,
    _lead_quotient,
    exact_div,
    odd_divisor,
    xd_plus_one_reducible,
)
from .seeds import ExchangeMatrix, Seed, SeedProfile, _initial_at, apply_word


class DegenerateColumn(ValueError):
    """A mutable column is entirely zero (connectedness violation upstream)."""


class InternalInvariantError(RuntimeError):
    """A cross-check inside clusterkit failed: a bug, not bad input."""


@dataclass(frozen=True)
class UnitForm:
    """A unit: sign * product of invertible coefficient variables."""

    sign: int
    coeff_exponents: tuple[tuple[int, int], ...]  # (variable index in n+1..p, exponent)


@dataclass(frozen=True)
class ColumnWitness:
    k: int
    s: int
    negated: bool  # column s equals minus column k


@dataclass(frozen=True)
class GcdWitness:
    k: int
    d: int
    field: FieldTag
    odd_factor: int | None  # odd part of d when > 1: X^d+1 has the rational factor X^(d/odd_factor)+1


@dataclass(frozen=True)
class FactorialityVerdict:
    status: str  # "not_factorial" | "inconclusive"
    criterion: str | None  # "equal_columns" | "column_gcd"
    witness: ColumnWitness | GcdWitness | None
    justification: str

    def __post_init__(self):
        if self.status == "not_factorial" and self.witness is None:
            raise ValueError("a NotFactorial verdict requires a witness")
        if self.status == "inconclusive" and self.witness is not None:
            raise ValueError("an Inconclusive verdict carries no witness")

    @property
    def is_not_factorial(self) -> bool:
        return self.status == "not_factorial"

    def to_json(self) -> dict:
        witness = None if self.witness is None else asdict(self.witness)
        if witness and "field" in witness:
            witness["field"] = witness["field"].value
        return {
            "status": self.status,
            "criterion": self.criterion,
            "witness": witness,
            "justification": self.justification,
        }


def classify_unit(e: LaurentPoly, profile: SeedProfile) -> UnitForm | None:
    """UnitForm when e is +-(monomial in the invertible coefficients), else None.

    Over the integer model the only scalar units are +-1; with field
    scalars every nonzero lambda would additionally be a unit, which
    rescales but never changes what is or is not a unit multiple.
    """
    if e.is_zero:
        raise ValueError("the zero element is not classifiable")
    if not e.is_monomial:
        return None
    ((exps, c),) = e.terms
    if c not in (1, -1):
        return None
    n, p = profile.n, profile.p
    carried = []
    for i, ex in enumerate(exps, start=1):
        if ex == 0:
            continue
        if not n + 1 <= i <= p:
            return None
        carried.append((i, ex))
    return UnitForm(c, tuple(carried))


def _require_ambient(m: int, profile: SeedProfile) -> None:
    """Refuse a value from another ambient ring than the profile's."""
    if m != profile.m:
        raise DimensionMismatch(f"ambient dimensions differ: {m} vs {profile.m}")


def are_associate(a: LaurentPoly, b: LaurentPoly, profile: SeedProfile) -> bool:
    """True when a = u*b for a unit u (sign times invertible-coefficient monomial).

    By the unit theorem of Geiss, Leclerc and Schröer (Factorial cluster
    algebras, Doc. Math. 18, 2013) these are all the units of the cluster
    algebra: a unit is +- a monomial in the invertible coefficients, which
    classify_unit recognizes.  Multiplying by a monomial maps terms one to
    one and keeps their order, so unequal term counts answer False, and
    a = u*b gives lead(a) = u*lead(b): u = lead(a)/lead(b), built from the
    two leading terms, is the only candidate.  classify_unit must accept
    it, and u*b == a is then checked structurally; nothing is divided.
    """
    _require_ambient(a.m, profile)
    a._check(b)
    if a.is_zero or b.is_zero:
        raise ValueError("associateness is defined for nonzero elements")
    if a.term_count != b.term_count:
        return False
    u = _lead_quotient(a, b)
    return u is not None and classify_unit(u, profile) is not None and u * b == a


def clusters_disjoint(s1: Seed, s2: Seed) -> bool:
    """Whether the two seeds share no mutable cluster entry.

    Structural disjointness coincides with pairwise non-associateness of
    the mutable entries; the two formulations are cross-checked on every
    call.
    """
    if s1.profile != s2.profile:
        raise ValueError("clusters belong to different algebra contexts")
    c1, c2 = s1.mutable_entries(), s2.mutable_entries()
    disjoint = not any(a == b for a in c1 for b in c2)
    if disjoint == any(are_associate(a, b, s1.profile) for a in c1 for b in c2):
        raise InternalInvariantError("structural disjointness disagrees with pairwise non-associateness")
    return disjoint


def staircase_disjoint(s: Seed) -> tuple[Seed, bool]:
    """Apply the word (1, 2, ..., n) and report disjointness against the input."""
    z = apply_word(s, range(1, s.profile.n + 1))
    return z, clusters_disjoint(s, z)


def column_criterion(B: ExchangeMatrix) -> FactorialityVerdict:
    """Non-factoriality from a repeated column: c_k = +-c_s with b_ks = 0."""
    cols = [B.column(k) for k in range(1, B.profile.n + 1)]
    for k, ck in enumerate(cols, start=1):
        if not any(ck):  # two zero columns are equal, but the matrix is degenerate
            raise DegenerateColumn(f"column {k} is entirely zero")
    for k, ck in enumerate(cols, start=1):
        minus_ck = tuple(-v for v in ck)
        for s in range(k + 1, len(cols) + 1):
            cs = cols[s - 1]
            # b_ks is row k of column s: an unvalidated matrix need not be sign-skew
            if cs[k - 1] == 0 and (cs == ck or cs == minus_ck):
                negated = cs != ck
                sign = "-" if negated else ""
                return FactorialityVerdict(
                    "not_factorial",
                    "equal_columns",
                    ColumnWitness(k, s, negated),
                    f"columns {k} and {s} satisfy c_{k} = {sign}c_{s} with b_{k}{s} = 0; "
                    f"mutating at {k} then {s} produces two non-associate irreducible "
                    f"factorizations of the same element",
                )
    return FactorialityVerdict(
        "inconclusive", None, None, "no pair of mutable columns is equal up to sign with a zero linking entry"
    )


def gcd_criterion(B: ExchangeMatrix, field: FieldTag = FieldTag.RATIONALS) -> FactorialityVerdict:
    """Non-factoriality from a column gcd d with X^d + 1 reducible over the field."""
    gcds = [gcd(*B.column(k)) for k in range(1, B.profile.n + 1)]
    if 0 in gcds:
        raise DegenerateColumn(f"column {gcds.index(0) + 1} is entirely zero")
    for k, d in enumerate(gcds, start=1):
        if xd_plus_one_reducible(d, field):
            q = odd_divisor(d)
            if field is FieldTag.COMPLEXES:
                why = f"X^{d}+1 splits into linear factors over the complexes (d = {d} >= 2)"
            else:
                why = f"d = {d} is not a power of two: X^{d}+1 has the rational factor X^{d // q}+1"
            return FactorialityVerdict(
                "not_factorial",
                "column_gcd",
                GcdWitness(k, d, field, q),
                f"column {k} has entry gcd {d} and {why}; the exchange relation at {k} "
                f"then factors into non-associate non-units in two ways",
            )
    return FactorialityVerdict(
        "inconclusive",
        None,
        None,
        f"every mutable column gcd d has X^d+1 irreducible over {field.value}",
    )


def coordinate_images(target: Seed) -> list[LaurentPoly]:
    """Expressions of the initial variables in the target seed's coordinates.

    Replays the reversed mutation word from a fresh formal seed placed at
    the target's matrix, so entry i of the result is the initial variable
    x_i written in the target cluster's coordinates.
    """
    back = apply_word(_initial_at(target), reversed(target.word))
    return list(back.cluster)


def _rational_laurent_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num / den as a Laurent polynomial over the rationals, or None.

    Integer contents are split off first, so by the Gauss lemma the
    primitive parts divide over the rationals exactly when they divide
    over the integers; the returned value drops the scalar factor, which
    never affects exponent patterns.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator after substitution")
    if num.is_zero:
        return num
    prim_num = _divide_coefficients(num, _integer_content(num))
    prim_den = _divide_coefficients(den, _integer_content(den))
    try:
        return exact_div(prim_num, prim_den)
    except NotDivisible:
        return None


def laurent_membership(e: LaurentPoly | RationalFn, target: Seed) -> bool:
    """Whether e (over the initial variables) lies in the target cluster's Laurent ring.

    The value, as a fraction of ordinary polynomials (a Laurent polynomial
    over a monomial), is rewritten in target coordinates as a quotient of
    Laurent polynomials; it lies in the fully localized ring exactly when the
    denominator divides the numerator there (monomials are units, so no
    common-factor reduction is needed), and in the target's Laurent ring
    when additionally the non-invertible coefficients p+1..m keep
    nonnegative exponents in the quotient.
    """
    _require_ambient(e.m, target.profile)
    if isinstance(e, LaurentPoly):
        e = RationalFn.from_laurent(e)
    num, den = _compose((e.num, e.den), coordinate_images(target))
    q = _rational_laurent_quotient(num, den)
    if q is None:
        return False
    p = target.profile.p
    mins = q.min_exponents()
    return all(mins[i] >= 0 for i in range(p, target.profile.m))


def upper_bound_member(e: LaurentPoly | RationalFn, seed_y: Seed, seed_z: Seed) -> bool:
    """Membership in the intersection of two clusters' Laurent rings."""
    return laurent_membership(e, seed_y) and laurent_membership(e, seed_z)
