"""Seed-core tests: validation, symmetrizers, mutation, acyclicity, rank."""

from __future__ import annotations

import random

import pytest

from clusterkit.laurent import LaurentPoly, exact_div
from clusterkit.seeds import (
    ExchangeMatrix,
    InvalidSeed,
    ParseError,
    Seed,
    SeedProfile,
    _bareiss,
    _diagonal_scaler,
    apply_word,
    exchange_monomials,
    is_acyclic,
    matrix_mutate,
    matrix_rank,
    matrix_to_json,
    parse_matrix,
    render_matrix,
    seed_mutate,
    skew_symmetrizer,
    validate,
)
from oracles import (
    diagonal_scaler_reference,
    exact_div_reference,
    is_acyclic_reference,
    matrix_mutate_reference,
    mul_reference,
    power_reference,
    random_dynkin_matrix,
    random_valid_matrix,
)

A3_TEXT = "3 3 3\n0 -1 0; 1 0 -1; 0 1 0"
B0_TEXT = "3 3 6\n0 2 0; -2 0 1; 0 -1 0; 1 -2 0; 0 1 -1; 0 0 1"
LAMPE_TEXT = "2 2 2\n0 -2; 2 0"


@pytest.fixture
def a3():
    return parse_matrix(A3_TEXT)


@pytest.fixture
def b0():
    return parse_matrix(B0_TEXT)


@pytest.fixture
def lampe():
    return parse_matrix(LAMPE_TEXT)


# -- validation ---------------------------------------------------------------


def test_validate_a3_ok(a3):
    assert validate(a3) == ()


def test_validate_one_by_one():
    B = ExchangeMatrix([[0]], SeedProfile(1, 1, 1))
    violations = validate(B)
    assert any("m > 1" in v for v in violations)


def test_validate_disconnected():
    B = ExchangeMatrix([[0, 0], [0, 0], [1, 0], [0, 1]], SeedProfile(2, 2, 4))
    assert any("connect" in v for v in validate(B))


def test_validate_without_variables_reports_the_profile():
    # m = 0 leaves nothing to connect; n > m leaves columns that name no variable
    for rows, profile in [([], SeedProfile(0, 0, 0)), ([[0, 1, 1], [-1, 0, 1]], SeedProfile(3, 3, 2))]:
        violations = validate(ExchangeMatrix(rows, profile))
        assert violations and all(v.startswith("profile:") for v in violations)


def test_validate_not_skew_symmetrizable():
    B = ExchangeMatrix([[0, 1], [1, 0]], SeedProfile(2, 2, 2))
    assert any("skew" in v for v in validate(B))


def test_initial_seed_requires_valid_matrix():
    B = ExchangeMatrix([[0]], SeedProfile(1, 1, 1))
    with pytest.raises(InvalidSeed):
        Seed.initial(B)


INVALID = [
    (ExchangeMatrix([[0]], SeedProfile(1, 1, 1)), "profile: need m > 1, got m=1"),
    (
        ExchangeMatrix([[0, 0], [0, 0], [1, 0], [0, 1]], SeedProfile(2, 2, 4)),
        "connectivity: the nonzero pattern does not connect all variables",
    ),
    (ExchangeMatrix([[0, 1], [1, 0]], SeedProfile(2, 2, 2)), "skew: the principal part is not skew-symmetrizable"),
]


@pytest.mark.parametrize("B,message", INVALID, ids=["profile", "connectivity", "skew"])
def test_seed_constructor_validates_the_matrix(B, message):
    # every door into Seed runs the same check, with the same text
    m = B.profile.m
    for build in (lambda: Seed.initial(B), lambda: Seed(B, [LaurentPoly.variable(m, i + 1) for i in range(m)], ())):
        with pytest.raises(InvalidSeed) as info:
            build()
        assert str(info.value) == message


def test_seed_mutate_index_errors(a3):
    # matrix_mutate's check is the only one seed_mutate runs
    seed = Seed.initial(a3)
    cases = [
        (0, IndexError, "mutation index 0 outside 1..3"),
        (4, IndexError, "mutation index 4 outside 1..3"),
        (True, ValueError, "mutation index must be an integer, got True"),
        (1.5, ValueError, "mutation index must be an integer, got 1.5"),
    ]
    for k, kind, message in cases:
        with pytest.raises(kind) as info:
            seed_mutate(seed, k)
        assert type(info.value) is kind and str(info.value) == message


def test_seed_mutate_checks_its_index_once(a3, monkeypatch):
    # matrix_mutate checks k; reading column k through ExchangeMatrix.column
    # would check it a second time on every mutation
    calls = []
    real = ExchangeMatrix.column
    monkeypatch.setattr(ExchangeMatrix, "column", lambda self, k: calls.append(k) or real(self, k))
    seed = Seed.initial(a3)
    for k in (1, 2, 3):
        child = seed_mutate(seed, k)
        assert seed.cluster[k - 1] * child.cluster[k - 1] == sum(exchange_monomials(seed, k), LaurentPoly.zero(3))
    assert calls == [1, 2, 3]  # exchange_monomials' own reads, none from seed_mutate
    # exchange_monomials reads the column itself, so it still refuses a bad index
    for k in (0, 4):
        with pytest.raises(IndexError, match=f"column index {k} outside 1..3"):
            exchange_monomials(seed, k)


def test_seed_mutate_builds_one_matrix(a3, monkeypatch):
    # seed_mutate's matrix_mutate builds mu_k(B), and the child seed holds that
    # matrix; building it again from the rows would make two per mutation
    built = []
    real = ExchangeMatrix._from_canonical
    monkeypatch.setattr(ExchangeMatrix, "_from_canonical", lambda rows, profile: built.append(rows) or real(rows, profile))
    seed = Seed.initial(a3)
    for k in (1, 2, 3):
        child = seed_mutate(seed, k)
        assert built[-1] is child.matrix.entries
        assert child.matrix == matrix_mutate_reference(a3, k)
    assert len(built) == 3


# -- skew symmetrizer ---------------------------------------------------------


def test_symmetrizer_identity_for_skew_symmetric(a3):
    assert skew_symmetrizer(a3) == (1, 1, 1)


def test_symmetrizer_ratio_propagation():
    B = ExchangeMatrix([[0, -1], [2, 0]], SeedProfile(2, 2, 2))
    assert skew_symmetrizer(B) == (2, 1)


def test_symmetrizer_rejects_symmetric():
    B = ExchangeMatrix([[0, 1], [1, 0]], SeedProfile(2, 2, 2))
    assert skew_symmetrizer(B) is None


def test_symmetrizer_rejects_one_sided_zero():
    B = ExchangeMatrix([[0, 1], [0, 0]], SeedProfile(2, 2, 2))
    assert skew_symmetrizer(B) is None


def _planted_failures(rng, n):
    """Skew-symmetrizable n x n matrices with one defect each: a nonzero diagonal
    entry, a one-sided zero, a sign mismatch, or (for n >= 3) an inconsistent 3-cycle."""
    d = [rng.choice((1, 2, 3)) for _ in range(n)]
    A = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        t = rng.choice((-1, 1)) * rng.randint(1, 2)
        A[i][i + 1], A[i + 1][i] = d[i + 1] * t, -d[i] * t
    out = []
    B = [row[:] for row in A]
    k = rng.randrange(n)
    B[k][k] = rng.choice((-1, 1))
    out.append(B)
    i = rng.randrange(n - 1)
    for a, b in ((i, i + 1), (i + 1, i)):
        B = [row[:] for row in A]
        B[a][b] = 0
        out.append(B)
        B = [row[:] for row in A]
        B[a][b] = -B[a][b]
        out.append(B)
    if n >= 3:
        B = [row[:] for row in A]
        B[0][2], B[2][0] = 2 * d[2], -d[0]  # the path fixes d_2 / d_0, this pair asks for twice it
        out.append(B)
    return out


def _scaler_cases():
    rng = random.Random(1305)
    cases = []
    letters = [("A", 1), ("A", 2), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("C", 5), ("D", 4), ("D", 6)]
    letters += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    for letter, n in letters:
        for _ in range(12):
            P = random_dynkin_matrix(rng, letter, n).principal()
            cases.append(P)
            # the Cartan companion: 2 on the diagonal, -|b_ij| off it
            cases.append([[2 if i == j else -abs(b) for j, b in enumerate(row)] for i, row in enumerate(P)])
    for _ in range(300):
        n = rng.randint(1, 6)
        d = [rng.choice((1, 2, 3, 4, 6)) for _ in range(n)]
        A = [[0] * n for _ in range(n)]
        skew = rng.random() < 0.5
        for i in range(n):
            for j in range(i + 1, n):
                t = rng.choice((0, 0, 1, -1, 2, -3))
                # d_i*A_ij = sign*d_j*A_ji with A_ij = d_j*t and A_ji = sign*d_i*t
                A[i][j], A[j][i] = d[j] * t, (-1 if skew else 1) * d[i] * t
        cases.append(A)
    for _ in range(300):
        n = rng.randint(1, 4)
        cases.append([[rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)])
    cases.append([])
    planted = [B for _ in range(60) for B in _planted_failures(rng, rng.randint(2, 6))]
    return cases, planted


def test_diagonal_scaler_matches_fraction_reference():
    cases, planted = _scaler_cases()
    assert all(diagonal_scaler_reference(A, True) is None for A in planted)
    found = {True: 0, False: 0}
    for A in cases + planted:
        for skew in (True, False):
            d = _diagonal_scaler(A, skew)
            assert d == diagonal_scaler_reference(A, skew), (A, skew)
            found[d is not None] += 1
            if d:
                assert all(type(v) is int and v > 0 for v in d)
    assert min(found.values()) > 500


# -- matrix mutation ----------------------------------------------------------


def test_matrix_mutation_involution(a3):
    for k in (1, 2, 3):
        assert matrix_mutate(matrix_mutate(a3, k), k) == a3


def test_matrix_mutation_concrete_six_by_three(b0):
    expected = parse_matrix("3 3 6\n0 -2 0; 2 0 1; 0 -1 0; -1 0 0; 0 1 -1; 0 0 1")
    assert matrix_mutate(b0, 1) == expected


def test_matrix_mutation_flips_column(a3, b0, lampe):
    for B in (a3, b0, lampe):
        for k in range(1, B.profile.n + 1):
            assert matrix_mutate(B, k).column(k) == tuple(-v for v in B.column(k))


def test_matrix_mutation_index_range(a3):
    with pytest.raises(IndexError):
        matrix_mutate(a3, 0)
    with pytest.raises(IndexError):
        matrix_mutate(a3, 4)


def test_entry_and_column_index_range():
    # index 0 and negative indices would otherwise wrap to the last row or column
    B = parse_matrix("2 2 3\n0 1; -1 0; 1 1")
    assert B.entry(3, 1) == 1 and B.column(2) == (1, 0, 1)
    for i, j in [(0, 1), (-1, 1), (4, 1), (1, 0), (1, -2), (1, 3)]:
        with pytest.raises(IndexError, match="outside"):
            B.entry(i, j)
    for k in (0, -1, 3):
        with pytest.raises(IndexError, match="outside"):
            B.column(k)


def test_entry_and_column_index_is_not_coerced():
    # True would read as row or column 1, and 1.5 or "1" fail inside tuple indexing
    B = parse_matrix("2 2 3\n0 1; -1 0; 1 1")
    for bad in (True, False, 1.5, "1"):
        with pytest.raises(ValueError, match="row index"):
            B.entry(bad, 2)
        with pytest.raises(ValueError, match="column index"):
            B.entry(1, bad)
        with pytest.raises(ValueError, match="column index"):
            B.column(bad)


def test_mutation_direction_is_not_coerced(a3):
    seed = Seed.initial(a3)
    for k in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="mutation index"):
            matrix_mutate(a3, k)
        with pytest.raises(ValueError, match="mutation index"):
            seed_mutate(seed, k)


def test_seed_word_is_not_coerced(a3):
    seed = Seed.initial(a3)
    for bad in (1.5, True, "1"):
        with pytest.raises(ValueError, match="word entry"):
            Seed(seed.matrix, seed.cluster, (1, bad))
    # a letter outside 1..n made laurent_membership fail later with an IndexError
    for bad in (0, 4, -1):
        with pytest.raises(InvalidSeed, match=rf"word entry {bad} outside 1\.\.3"):
            Seed(seed.matrix, seed.cluster, (1, bad))
    assert Seed(seed.matrix, seed.cluster, [1, 3]).word == (1, 3)


def test_matrix_mutation_randomized_invariants():
    # matrix_mutate does not re-validate its result; this walk is the guard
    # that validity, the symmetrizer and the rank survive any mutation word
    rng = random.Random(2024)
    for _ in range(60):
        B = random_valid_matrix(rng)
        d = skew_symmetrizer(B)
        r = matrix_rank(B)
        for start in range(1, B.profile.n + 1):
            word = [start] + [rng.randint(1, B.profile.n) for _ in range(rng.randint(0, 7))]
            mu = B
            for k in word:
                prev, mu = mu, matrix_mutate(mu, k)
                assert validate(mu) == ()
                assert matrix_mutate(mu, k) == prev
                assert skew_symmetrizer(mu) == d
                assert matrix_rank(mu) == r


# -- seed mutation ------------------------------------------------------------


def test_seed_mutation_a3(a3):
    s = Seed.initial(a3)
    s1 = seed_mutate(s, 1)
    one = LaurentPoly.const(3, 1)
    x2 = LaurentPoly.variable(3, 2)
    x1 = LaurentPoly.variable(3, 1)
    assert s1.cluster[0] == exact_div(one + x2, x1)
    assert s1.word == (1,)


def test_seed_mutation_lampe(lampe):
    s = Seed.initial(lampe)
    s1 = seed_mutate(s, 1)
    one = LaurentPoly.const(2, 1)
    x1 = LaurentPoly.variable(2, 1)
    x2 = LaurentPoly.variable(2, 2)
    assert s1.cluster[0] == exact_div(x2**2 + one, x1)


def test_seed_mutation_involution(a3):
    s = Seed.initial(a3)
    for k in (1, 2, 3):
        assert seed_mutate(seed_mutate(s, k), k) == s


def test_apply_word(a3):
    s = Seed.initial(a3)
    assert apply_word(s, ()) == s
    assert apply_word(s, (2, 2)) == s
    s13 = apply_word(s, (1, 3))
    one = LaurentPoly.const(3, 1)
    x = lambda i: LaurentPoly.variable(3, i)
    assert s13.cluster[0] == exact_div(one + x(2), x(1))
    assert s13.cluster[2] == exact_div(one + x(2), x(3))


def test_word_is_provenance_not_identity(a3):
    s = Seed.initial(a3)
    looped = apply_word(s, (1, 1))
    assert looped == s
    assert looped.word == (1, 1)
    assert hash(looped) == hash(s)


def test_degenerate_exchange_guard(a3):
    # a valid matrix with a repeated cluster entry: column 2 of a3 pairs
    # x1 with x3 = x1, so M1 = M2 = x1 and the exchange would be 2 x1
    x1, x2 = LaurentPoly.variable(3, 1), LaurentPoly.variable(3, 2)
    s = Seed(a3, [x1, x2, x1], ())
    with pytest.raises(InvalidSeed, match="degenerate exchange at 2"):
        seed_mutate(s, 2)


def test_seed_refuses_a_cluster_that_does_not_fit(a3):
    x = [LaurentPoly.variable(3, i) for i in (1, 2, 3)]
    with pytest.raises(InvalidSeed, match="cluster of length 2 for m=3"):
        Seed(a3, x[:2], ())
    with pytest.raises(InvalidSeed, match="cluster entry in wrong ambient ring"):
        Seed(a3, [x[0], x[1], LaurentPoly.variable(4, 3)], ())
    with pytest.raises(InvalidSeed, match="cluster entries must be nonzero"):
        Seed(a3, [x[0], LaurentPoly.zero(3), x[2]], ())


def test_mutation_refuses_a_zero_new_entry():
    # x1 * x1' = x2 + (-x2) = 0: the two exchange monomials differ but cancel
    B = parse_matrix("1 3 3\n0; 1; -1")
    x2 = LaurentPoly.variable(3, 2)
    s = Seed(B, [LaurentPoly.variable(3, 1), x2, -x2], ())
    with pytest.raises(InvalidSeed, match="cluster entries must be nonzero"):
        seed_mutate(s, 1)


def test_seed_randomized_invariants():
    rng = random.Random(99)
    for _ in range(30):
        B = random_valid_matrix(rng, max_n=3, max_m=5)
        s = Seed.initial(B)
        n, m = B.profile.n, B.profile.m
        for k in range(1, n + 1):
            m1, m2 = exchange_monomials(s, k)
            child = seed_mutate(s, k)
            # exchange identity, exactly
            assert s.cluster[k - 1] * child.cluster[k - 1] == m1 + m2
            # frozen rows never change
            assert child.cluster[n:] == s.cluster[n:]
            # involution
            assert seed_mutate(child, k) == s
        # replaying the word reproduces the seed
        word = tuple(rng.randint(1, n) for _ in range(4))
        t = apply_word(s, word)
        assert apply_word(Seed.initial(B), t.word) == t


def test_matrix_mutate_matches_dense_formula_on_any_integer_matrix():
    # matrix_mutate touches only the entries with sign(b_kj) = sign(b_ik); a
    # matrix that was never validated is mutated as given, so the sparse rule
    # must equal the dense formula on every integer matrix, including nonzero
    # diagonals and pairs with b_ik = 0 != b_ki
    rng = random.Random(2718)
    diagonal = one_sided = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        m = rng.randint(n, n + 3)
        rows = [[rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(m)]
        B = ExchangeMatrix(rows, SeedProfile(n, rng.randint(n, m), m))
        for k in range(1, n + 1):
            kk = k - 1
            diagonal += rows[kk][kk] != 0
            one_sided += any((rows[i][kk] == 0) != (rows[kk][i] == 0) for i in range(n))
            assert matrix_mutate(B, k).entries == matrix_mutate_reference(B, k).entries
    assert diagonal > 100 and one_sided > 100


def test_mutation_matches_checking_constructors():
    # matrix_mutate and seed_mutate build their results without the
    # constructors' checks; this walk rebuilds every result through them
    # from the general reference arithmetic
    rng = random.Random(4242)
    starts = [random_valid_matrix(rng, max_n=3, max_m=5, bound=2) for _ in range(40)]
    starts += [random_dynkin_matrix(rng, letter, n) for letter, n in [("A", 4), ("B", 3), ("C", 3), ("D", 4)] * 2]
    for B in starts:
        s = Seed.initial(B)
        n, m = B.profile.n, B.profile.m
        for _ in range(rng.randint(1, 8)):
            k = rng.randint(1, n)
            mu = matrix_mutate(s.matrix, k)
            assert mu == matrix_mutate_reference(s.matrix, k)
            assert type(mu.entries) is tuple and len(mu.entries) == m
            for row in mu.entries:
                assert type(row) is tuple and len(row) == n and all(type(v) is int for v in row)
            m1 = m2 = LaurentPoly.const(m, 1)
            for x, b in zip(s.cluster, s.matrix.column(k)):
                if b > 0:
                    m1 = mul_reference(m1, power_reference(x, b))
                elif b < 0:
                    m2 = mul_reference(m2, power_reference(x, -b))
            new_entry = exact_div_reference(LaurentPoly(m, m1.terms + m2.terms), s.cluster[k - 1])
            cluster = list(s.cluster)
            cluster[k - 1] = new_entry
            expected = Seed(ExchangeMatrix([list(row) for row in mu.entries], B.profile), cluster, list(s.word) + [k])
            t = seed_mutate(s, k)
            assert t == expected and t.word == expected.word
            assert type(t.cluster) is tuple and type(t.word) is tuple
            s = t


# -- acyclicity ---------------------------------------------------------------


def test_sigma_quiver_orientation(b0):
    # the sign-pattern quiver of b0 has an arrow i -> j exactly when b_ij > 0,
    # and every arrow points from a lower to a higher index
    assert is_acyclic(b0)
    principal = b0.principal()
    arrows = [(i, j) for i, row in enumerate(principal) for j, b in enumerate(row) if b > 0]
    assert arrows == [(0, 1), (1, 2)]


def test_three_cycle_not_acyclic():
    B = ExchangeMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], SeedProfile(3, 3, 3))
    assert not is_acyclic(B)


def test_is_acyclic_matches_depth_first_reference():
    # validated random matrices, plus unvalidated ones with arbitrary signs and
    # positive diagonal entries (self-loops), which no seed has but is_acyclic accepts
    rng = random.Random(1962)
    verdicts = {True: 0, False: 0}
    self_loops = 0
    for trial in range(600):
        if trial % 3 == 0:
            B = random_valid_matrix(rng, max_n=6, max_m=8)
        else:
            n = rng.randint(1, 7)
            rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 2:
                i = rng.randrange(n)
                rows[i][i] = rng.randint(1, 3)
                self_loops += 1
            B = ExchangeMatrix(rows, SeedProfile(n, n, n))
        expected = is_acyclic_reference(B)
        assert is_acyclic(B) == expected, B.entries
        verdicts[expected] += 1
    assert min(verdicts.values()) > 100 and self_loops == 200
    loop = ExchangeMatrix([[1, 0], [0, 0]], SeedProfile(2, 2, 2))
    assert not is_acyclic(loop) and not is_acyclic_reference(loop)


# -- rank ---------------------------------------------------------------------


def test_bareiss_rank_matches_sympy():
    import sympy

    rng = random.Random(1968)
    deficient = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice((1, 4, 10**6))
        M = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            # last row a combination of the first two: rank-deficient
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            M[-1] = [a * u + b * v for u, v in zip(M[0], M[rows - 2])]
        if rng.random() < 0.2:
            j = rng.randrange(cols)
            for row in M:
                row[j] = 0
        S = sympy.Matrix(M)
        rank = _bareiss(M)
        assert rank == S.rank()
        deficient += rank < min(rows, cols)
    assert deficient > 50


def test_matrix_rank(a3, b0, lampe):
    assert matrix_rank(lampe) == 2
    assert matrix_rank(a3) == 2  # rows 1 and 3 proportional up to sign
    assert matrix_rank(b0) == 3  # unitriangular bottom block


# -- text and JSON ------------------------------------------------------------


def test_matrix_text_round_trip(a3, b0, lampe):
    for B in (a3, b0, lampe):
        assert parse_matrix(render_matrix(B)) == B


def test_matrix_json_round_trip(a3):
    import json

    assert parse_matrix(json.dumps(matrix_to_json(a3))) == a3


def test_matrix_rows_may_be_separated_by_newlines(a3):
    # the body lines were joined with spaces: newline-separated rows ran into one row
    assert parse_matrix("3 3 3\n0 -1 0\n1 0 -1\n0 1 0\n") == a3
    assert parse_matrix("3 3 3\n0 -1 0; 1 0 -1\n0 1 0") == a3
    assert parse_matrix("3 3 3\r\n0 -1 0;\r\n1 0 -1;\r\n\r\n0 1 0") == a3


def test_matrix_row_may_not_span_lines():
    # and a row split across two lines was read as one
    with pytest.raises(ParseError, match="3 rows for profile m=2"):
        parse_matrix("2 2 2\n0\n1; -1 0")


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("3 3\n0 1; -1 0")  # short header
    with pytest.raises(ParseError):
        parse_matrix("2 2 2\n0 a; 1 0")
    with pytest.raises(ParseError):
        parse_matrix("2 2 2\n0 1; -1 0; 0 0")  # too many rows
    with pytest.raises(ParseError):
        parse_matrix('{"n": 2, "p": 2, "rows": [[0, 1], [-1, 0]]}')  # missing m


def test_matrix_parse_error_points_at_the_bad_row():
    # the position is the bad row's own offset, even where its text also occurs in an earlier row
    cases = [
        ("2 2 2\n0 1 -1; 1 -", 14, "'1 -'"),
        ("  2 2 2\r\n0 1 -1 ;\r\n  1 x  ; 0 0", 21, "'1 x'"),
        ("2 2 2\n0 1\n0 1; 0 1;; 0 1x", 21, "'0 1x'"),
    ]
    for text, pos, row in cases:
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        assert info.value.pos == pos and str(info.value) == f"non-integer matrix entry in row {row} (at position {pos})"
        assert text[pos:].startswith(row.strip("'"))
