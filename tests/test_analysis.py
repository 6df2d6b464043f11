"""Ring-analysis tests: units, associates, criteria, membership."""

from __future__ import annotations

import math
import random

import pytest

import clusterkit.analysis
from clusterkit.analysis import (
    DegenerateColumn,
    FactorialityVerdict,
    InternalInvariantError,
    UnitForm,
    are_associate,
    classify_unit,
    clusters_disjoint,
    column_criterion,
    gcd_criterion,
    laurent_membership,
    staircase_disjoint,
    upper_bound_member,
)
from clusterkit.constructions import acyclic_seed_from_cartan, CartanMatrix
from clusterkit.explore import ExplorationLimits, explore
from clusterkit.laurent import DimensionMismatch, FieldTag, LaurentPoly, RationalFn, exact_div
from clusterkit.presets import a3_matrix, lampe_matrix
from clusterkit.seeds import ExchangeMatrix, Seed, SeedProfile, apply_word
from oracles import (
    are_associate_reference,
    column_criterion_reference,
    gcd_criterion_reference,
    random_dynkin_matrix,
    random_valid_matrix,
    rank2_matrix,
)

COEFF_PROFILE = SeedProfile(1, 2, 3)  # one mutable, one invertible coefficient, one frozen


def var(i, m=3):
    return LaurentPoly.variable(m, i)


def one(m=3):
    return LaurentPoly.const(m, 1)


# -- unit classification -------------------------------------------------------


def test_classify_unit_form_match():
    e = LaurentPoly.monomial(3, (0, -2, 0))
    assert classify_unit(e, COEFF_PROFILE) == UnitForm(1, ((2, -2),))


def test_classify_unit_rejects_mutable_and_frozen():
    assert classify_unit(var(1), COEFF_PROFILE) is None  # mutable
    assert classify_unit(var(3), COEFF_PROFILE) is None  # non-invertible coefficient
    assert classify_unit(one() + var(2), COEFF_PROFILE) is None  # two terms
    assert classify_unit(2 * var(2), COEFF_PROFILE) is None  # non-unit scalar


def test_classify_unit_signs_and_zero():
    assert classify_unit(-one(), COEFF_PROFILE) == UnitForm(-1, ())
    assert classify_unit(one(), COEFF_PROFILE) == UnitForm(1, ())
    with pytest.raises(ValueError):
        classify_unit(LaurentPoly.zero(3), COEFF_PROFILE)


def test_unit_classification_characterizes_unit_monomials():
    # UnitForm exactly on +-(monomials in the invertible window)
    rng = random.Random(5)
    profile = SeedProfile(2, 4, 5)
    for _ in range(200):
        exps = tuple(rng.randint(-2, 2) for _ in range(5))
        coeff = rng.choice((-2, -1, 1, 2))
        e = LaurentPoly.monomial(5, exps, coeff)
        expected = abs(coeff) == 1 and all(
            e == 0 for i, e in enumerate(exps, start=1) if not 3 <= i <= 4
        )
        assert (classify_unit(e, profile) is not None) == expected


# -- associates ----------------------------------------------------------------


def test_associate_examples():
    z = var(3) + one()
    assert are_associate(var(2) * z, z, COEFF_PROFILE)  # unit multiple
    assert are_associate(-z, z, COEFF_PROFILE)  # sign unit
    assert not are_associate(z + one(), z, COEFF_PROFILE)
    with pytest.raises(ValueError):
        are_associate(LaurentPoly.zero(3), z, COEFF_PROFILE)


def test_associates_refuse_another_ambient_ring():
    # unequal term counts across rings answered False before the rings were compared
    z = var(3) + one()
    for a, b in ((var(1, 4), z), (z, var(1, 4) + one(4)), (var(1, 4), var(1, 4))):
        with pytest.raises(DimensionMismatch, match="ambient dimensions differ"):
            are_associate(a, b, COEFF_PROFILE)


def test_associates_need_equal_term_counts(monkeypatch):
    z = var(3) + one()
    # associates have equal term counts and are still found
    assert are_associate(LaurentPoly.monomial(3, (0, -2, 0), -1) * z, z, COEFF_PROFILE)
    assert not are_associate(var(1) * z, z, COEFF_PROFILE)  # x1 is not a unit here
    # unequal term counts give False without a division, even where b divides a
    def no_division(a, b):
        raise AssertionError("exact_div called on unequal term counts")

    monkeypatch.setattr(clusterkit.analysis, "exact_div", no_division)
    assert not are_associate(z * z, z, COEFF_PROFILE)
    assert not are_associate(z, var(2), COEFF_PROFILE)
    assert not are_associate(var(2) * (z + var(1)), z, COEFF_PROFILE)
    with pytest.raises(ValueError):
        are_associate(z, LaurentPoly.zero(3), COEFF_PROFILE)  # the zero check stays first


def test_distinct_cluster_variables_never_associate():
    seed = Seed.initial(a3_matrix())
    report = explore(seed, ExplorationLimits(max_depth=64, max_seeds=100000))
    variables = report.distinct_variables
    for i, a in enumerate(variables):
        for j, b in enumerate(variables):
            assert are_associate(a, b, seed.profile) == (i == j)


def _coefficient_seed_variables(rng, letter, n):
    """A finite-type profile with invertible coefficients n+1..p and non-invertible
    ones p+1..m (p < m), and the distinct cluster variables of its closure."""
    B = random_dynkin_matrix(rng, letter, n)
    while B.profile.m < n + 2:
        B = random_dynkin_matrix(rng, letter, n)
    m = B.profile.m
    profile = SeedProfile(n, rng.randint(n + 1, m - 1), m)
    report = explore(Seed.initial(ExchangeMatrix(B.entries, profile)), ExplorationLimits(max_depth=64, max_seeds=100000))
    return profile, report.distinct_variables


@pytest.mark.parametrize("letter, n", [("A", 2), ("A", 3), ("B", 3), ("A", 4), ("D", 4)])
def test_associates_match_the_division_reference(letter, n):
    rng = random.Random(f"associates {letter}{n}")
    profile, variables = _coefficient_seed_variables(rng, letter, n)
    m = profile.m
    cases = []  # (a, b, expected or None where only the reference decides)
    for b in variables:
        exps = [rng.randint(-3, 3) if profile.n < i <= profile.p else 0 for i in range(1, m + 1)]
        u = LaurentPoly.monomial(m, exps, rng.choice((1, -1)))
        cases += [(u * b, b, True), (b, u * b, True)]
        if b.term_count > 1:
            # the leading terms give the unit u, but a lower term disagrees
            (*rest, (e, c)) = (u * b).terms
            cases.append((LaurentPoly(m, [*rest, (e, -c)]), b, False))
        for j in [*range(1, profile.n + 1), *range(profile.p + 1, m + 1)]:  # mutable or non-invertible
            cases.append((var(j, m) ** rng.randint(1, 2) * u * b, b, False))
    equal_counts = [(a, b, None) for a in variables for b in variables if a is not b and a.term_count == b.term_count]
    assert equal_counts
    for a, b, expected in cases + equal_counts:
        got = are_associate(a, b, profile)
        assert got == are_associate_reference(a, b, profile)
        assert expected is None or got == expected


# -- disjointness ---------------------------------------------------------------


def test_cluster_not_disjoint_from_itself():
    seed = Seed.initial(a3_matrix())
    assert not clusters_disjoint(seed, seed)


def test_a3_word_13_shares_middle_variable():
    seed = Seed.initial(a3_matrix())
    assert not clusters_disjoint(seed, apply_word(seed, (1, 3)))


def test_acyclic_staircase_clusters_disjoint():
    seed = acyclic_seed_from_cartan(CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]))
    mutated, disjoint = staircase_disjoint(seed)
    assert disjoint
    assert mutated.word == (1, 2, 3)


def test_disjointness_cross_check_raises(monkeypatch):
    # python -O must not strip the check, so it raises a named error, not AssertionError
    seed = Seed.initial(a3_matrix())
    staircase = apply_word(seed, (1, 2, 3))  # disjoint from seed
    shared = apply_word(seed, (1,))  # shares x2 and x3 with seed
    monkeypatch.setattr(clusterkit.analysis, "are_associate", lambda a, b, profile: True)
    with pytest.raises(InternalInvariantError):
        clusters_disjoint(seed, staircase)
    monkeypatch.setattr(clusterkit.analysis, "are_associate", lambda a, b, profile: False)
    with pytest.raises(InternalInvariantError):
        clusters_disjoint(seed, shared)


# random.Random(13) draws D4 with one frozen row, an invertible coefficient
@pytest.mark.parametrize("matrix", [a3_matrix(), random_dynkin_matrix(random.Random(13), "D", 4)], ids=["a3", "d4"])
def test_disjointness_is_structural_on_a_closure(matrix):
    report = explore(Seed.initial(matrix), ExplorationLimits(max_depth=64, max_seeds=100000), quotient_permutations=True)
    assert report.finite
    seeds = tuple(report.seeds)  # each read of report.seeds builds its seeds again
    for s in seeds:
        for t in seeds:
            assert clusters_disjoint(s, t) == set(s.mutable_entries()).isdisjoint(t.mutable_entries())


def test_staircase_on_a3():
    seed = Seed.initial(a3_matrix())
    _, disjoint = staircase_disjoint(seed)
    assert disjoint


def test_staircase_single_mutable_index():
    B = ExchangeMatrix([[0], [1], [-2]], SeedProfile(1, 2, 3))
    seed = Seed.initial(B)
    mutated, disjoint = staircase_disjoint(seed)
    assert disjoint and mutated.word == (1,)


def test_disjoint_requires_same_context():
    with pytest.raises(ValueError):
        clusters_disjoint(Seed.initial(a3_matrix()), Seed.initial(lampe_matrix()))


# -- column criterion ------------------------------------------------------------


def test_column_criterion_a3():
    verdict = column_criterion(a3_matrix())
    assert verdict.is_not_factorial
    assert (verdict.witness.k, verdict.witness.s) == (1, 3)
    assert verdict.witness.negated
    # the witness re-validates
    B = a3_matrix()
    k, s = verdict.witness.k, verdict.witness.s
    assert B.entry(k, s) == 0
    assert B.column(k) == tuple(-v for v in B.column(s))


def test_column_criterion_inconclusive_cases():
    assert column_criterion(lampe_matrix()).status == "inconclusive"
    b0 = acyclic_seed_from_cartan(CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])).matrix
    assert column_criterion(b0).status == "inconclusive"


def test_verdict_shape_invariants():
    with pytest.raises(ValueError):
        FactorialityVerdict("not_factorial", "equal_columns", None, "missing witness")


# -- gcd criterion -----------------------------------------------------------------


def test_gcd_criterion_lampe_over_c():
    verdict = gcd_criterion(lampe_matrix(), FieldTag.COMPLEXES)
    assert verdict.is_not_factorial
    assert verdict.witness.k == 1 and verdict.witness.d == 2
    data = verdict.to_json()
    assert data["criterion"] == "column_gcd" and data["witness"]["d"] == 2


def test_gcd_criterion_lampe_over_q_inconclusive():
    assert gcd_criterion(lampe_matrix(), FieldTag.RATIONALS).status == "inconclusive"


def test_gcd_criterion_odd_exponent_over_q():
    B = ExchangeMatrix([[0, -1], [3, 0]], SeedProfile(2, 2, 2))
    verdict = gcd_criterion(B, FieldTag.RATIONALS)
    assert verdict.is_not_factorial and verdict.witness.d == 3 and verdict.witness.odd_factor == 3


def test_gcd_criterion_degenerate_column():
    B = ExchangeMatrix.__new__(ExchangeMatrix)
    object.__setattr__(B, "entries", ((0, 1), (0, 0), (0, -1)))
    object.__setattr__(B, "profile", SeedProfile(2, 2, 3))
    with pytest.raises(DegenerateColumn):
        gcd_criterion(B, FieldTag.RATIONALS)


def test_both_criteria_refuse_a_zero_column():
    # two zero columns are equal, but the pair is no witness: the matrix is degenerate
    B = ExchangeMatrix([[0, 0], [0, 0]], SeedProfile(2, 2, 2))
    with pytest.raises(DegenerateColumn, match="column 1"):
        column_criterion(B)
    for field in FieldTag:
        with pytest.raises(DegenerateColumn, match="column 1"):
            gcd_criterion(B, field)


def test_gcd_criterion_refuses_a_zero_column_after_a_witness():
    # column 1 has gcd 2, a witness over C, but column 2 is zero: the matrix is degenerate
    B = ExchangeMatrix([[0, 0], [2, 0]], SeedProfile(2, 2, 2))
    for check in (lambda: column_criterion(B), lambda: gcd_criterion(B, FieldTag.COMPLEXES)):
        with pytest.raises(DegenerateColumn, match="column 2"):
            check()
    with pytest.raises(DegenerateColumn, match="column 2"):
        gcd_criterion_reference(B, FieldTag.COMPLEXES)


def test_gcd_witness_revalidates():
    # d is recomputed from the column, and a Q-factor X^(d/q) + 1 must divide X^d + 1
    X, unit = LaurentPoly.variable(1, 1), LaurentPoly.const(1, 1)
    cases = [
        ([[0, -2], [2, 0]], FieldTag.COMPLEXES),
        ([[0, -1], [3, 0]], FieldTag.RATIONALS),
        ([[0, -6], [6, 0], [12, 18]], FieldTag.RATIONALS),
        ([[0, -40], [40, 0], [0, 120]], FieldTag.COMPLEXES),
    ]
    for rows, field in cases:
        B = ExchangeMatrix(rows, SeedProfile(2, 2, len(rows)))
        verdict = gcd_criterion(B, field)
        assert verdict.is_not_factorial
        w = verdict.witness
        d = 0
        for v in B.column(w.k):
            d = math.gcd(d, v)
        assert w.d == d, rows
        if w.odd_factor is None:
            assert field is FieldTag.COMPLEXES and d >= 2, rows
        else:
            assert w.odd_factor > 1 and d % w.odd_factor == 0, rows
            exact_div(X**d + unit, X ** (d // w.odd_factor) + unit)  # NotDivisible fails the test


# -- both criteria against their statements ---------------------------------------


def _random_matrix(rng) -> ExchangeMatrix:
    """Mostly unvalidated: any profile with m >= n, entries often 0 or a multiple of
    a common factor, and now and then a column copied up to sign onto another."""
    if rng.random() < 0.2:
        return random_valid_matrix(rng)
    n = rng.randint(1, 4)
    m = rng.randint(n, 6)
    scale = rng.choice((1, 1, 2, 3, 4, 6, 9, 12, 15, 45, 2**5 * 3**4))
    rows = [[scale * rng.choice((0, 0, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(m)]
    if n > 1 and rng.random() < 0.5:
        k, s = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        for row in rows:
            row[s] = sign * row[k]
        if rng.random() < 0.7:  # b_ks = b_sk = 0 keeps the copy a witness
            rows[min(k, s)][k] = rows[min(k, s)][s] = 0
    return ExchangeMatrix(rows, SeedProfile(n, rng.randint(0, m), m))


def test_criteria_match_their_statements():
    rng = random.Random(2026)
    matrices = [ExchangeMatrix([], SeedProfile(1, 0, 0)), ExchangeMatrix([[0, 0], [0, 0]], SeedProfile(2, 2, 2))]
    matrices += [a3_matrix(), lampe_matrix(), rank2_matrix(2, 2)]
    matrices += [_random_matrix(rng) for _ in range(1500)]
    found = {"equal_columns": 0, "negated": 0, "column_gcd": 0}
    refused = 0
    for B in matrices:
        try:
            expected = column_criterion_reference(B)
        except DegenerateColumn:
            with pytest.raises(DegenerateColumn):
                column_criterion(B)
            refused += 1
        else:
            verdict = column_criterion(B)
            assert verdict.to_json() == expected, B
            found["equal_columns"] += verdict.is_not_factorial
            found["negated"] += verdict.is_not_factorial and verdict.witness.negated
        for field in FieldTag:
            try:
                expected = gcd_criterion_reference(B, field)
            except DegenerateColumn:
                with pytest.raises(DegenerateColumn):
                    gcd_criterion(B, field)
                continue
            verdict = gcd_criterion(B, field)
            assert verdict.to_json() == expected, (B, field)
            found["column_gcd"] += verdict.is_not_factorial
    assert min(found.values()) > 100, found  # every witness kind is drawn
    assert refused > 10, refused  # and zero columns, refused by both criteria


# -- membership ---------------------------------------------------------------------


def test_membership_initial_coordinates():
    seed = Seed.initial(a3_matrix())
    assert laurent_membership(var(1), seed)
    z1 = exact_div(one() + var(2), var(1))
    assert laurent_membership(z1, seed)
    assert not laurent_membership(RationalFn(one(), one() + var(2)), seed)


def test_membership_nontrivial_target():
    seed = Seed.initial(a3_matrix())
    target = apply_word(seed, (1, 3))
    # every finite-type variable is Laurent in the mutated cluster too
    report = explore(seed, ExplorationLimits(max_depth=64, max_seeds=100000))
    for v in report.distinct_variables:
        assert laurent_membership(v, target)


def test_membership_respects_frozen_window():
    # x3 is invertible for p = 3 but not for p = 2
    entries = [[0, -1], [1, 0], [0, 1]]
    inv3 = Seed.initial(ExchangeMatrix(entries, SeedProfile(2, 3, 3)))
    frozen3 = Seed.initial(ExchangeMatrix(entries, SeedProfile(2, 2, 3)))
    e = RationalFn(one(), var(3))
    assert laurent_membership(e, inv3)
    assert not laurent_membership(e, frozen3)


def test_upper_bound_member():
    seed = Seed.initial(a3_matrix())
    s13 = apply_word(seed, (1, 3))
    assert upper_bound_member(one() + var(2), seed, s13)
    assert not upper_bound_member(RationalFn(one(), one() + var(2)), seed, s13)
    report = explore(seed, ExplorationLimits(max_depth=2, max_seeds=1000))
    for v in report.distinct_variables:
        assert upper_bound_member(v, seed, s13)


def test_membership_refuses_another_ambient_ring():
    # x1 in 4 variables was read as the target's x1, and x4 raised IndexError
    seed = Seed.initial(a3_matrix())
    for e in (var(1, 4), var(4, 4), RationalFn(one(4), var(4, 4)), var(1, 2)):
        with pytest.raises(DimensionMismatch, match=f"ambient dimensions differ: {e.m} vs 3"):
            laurent_membership(e, seed)
        with pytest.raises(DimensionMismatch):
            upper_bound_member(e, seed, seed)


def test_membership_agrees_with_reduce_based_formulation():
    # the division-based decision must match substituting and inspecting
    # the reduced denominator, term for term
    from clusterkit.analysis import coordinate_images
    from oracles import substitute

    rng = random.Random(61)
    seed = Seed.initial(a3_matrix())
    targets = [seed, apply_word(seed, (1,)), apply_word(seed, (1, 3)), apply_word(seed, (2, 1))]
    for _ in range(40):
        acc = {}
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(-2, 2) for _ in range(3))
            acc[exps] = acc.get(exps, 0) + rng.randint(-3, 3)
        e = LaurentPoly(3, acc)
        if e.is_zero:
            continue
        for target in targets:
            images = [RationalFn.from_laurent(v) for v in coordinate_images(target)]
            value = substitute(e, images)
            p = target.profile.p
            reduce_based = value.is_zero or (
                value.den.is_monomial and all(i <= p for i in value.den.support_vars())
            )
            assert laurent_membership(e, target) == reduce_based


def test_rank2_membership_composition_matches_reference():
    # a mid-depth (2,2) pair: the value's (num, den) rewritten in the target's
    # coordinates, Horner against the term-by-term reference (under 1 s)
    from clusterkit.analysis import coordinate_images
    from clusterkit.laurent import _compose
    from oracles import compose_reference

    seed = Seed.initial(rank2_matrix(2, 2))
    target = apply_word(seed, (1, 2) * 2)
    e = RationalFn.from_laurent(apply_word(seed, (2, 1) * 4).cluster[0])
    images = coordinate_images(target)
    assert len(e.num.terms) == 37 and not e.den.is_one
    assert _compose((e.num, e.den), images) == compose_reference((e.num, e.den), images)


def test_deep_rank2_membership():
    # a cluster variable lies in every cluster's Laurent ring (the Laurent phenomenon)
    seed = Seed.initial(rank2_matrix(2, 2))
    target = apply_word(seed, (1, 2) * 3)
    assert laurent_membership(apply_word(seed, (2, 1) * 4).cluster[0], target)


# -- worked identity -------------------------------------------------------------


def test_a3_four_variables_identity_and_nonassociateness():
    seed = Seed.initial(a3_matrix())
    s13 = apply_word(seed, (1, 3))
    x1, x3 = var(1), var(3)
    z1, z3 = s13.cluster[0], s13.cluster[2]
    assert x1 * z1 == x3 * z3
    four = [x1, x3, z1, z3]
    for i, a in enumerate(four):
        for j, b in enumerate(four):
            if i != j:
                assert not are_associate(a, b, seed.profile)
