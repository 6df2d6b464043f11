"""Constructions tests: chain, Cartan staircase, basis change, Lie preset."""

from __future__ import annotations

import dataclasses
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import clusterkit.constructions as constructions
import clusterkit.seeds as seeds
from clusterkit.constructions import (
    CartanMatrix,
    ConstructionError,
    acyclic_seed_from_cartan,
    acyclic_staircase,
    bfz_basis_change,
    eval_expr,
    lie_matrix,
    lie_preset,
    staircase_intermediate_matrix,
    type_a_chain,
    type_a_seed,
    verify_polynomial_generators,
)
from clusterkit.laurent import LaurentPoly, exact_div, render_poly
from clusterkit.presets import acyclic_n3_cartan
from clusterkit.seeds import (
    ExchangeMatrix,
    Seed,
    SeedProfile,
    apply_word,
    is_acyclic,
    parse_matrix,
    seed_mutate,
    skew_symmetrizer,
    validate,
)
from oracles import bfz_table_to_json, certificate_to_json, chain_one_step_reference, eval_expr_reference, expr_to_json
from oracles import jacobian_det, random_cartan

N3_CARTAN = CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])


def var(i, m):
    return LaurentPoly.variable(m, i)


# -- tridiagonal chain seeds -----------------------------------------------------


def test_type_a_seed_smallest():
    assert type_a_seed(2).matrix.entries == ((0,), (1,))


def test_type_a_seed_path_quiver():
    # the path 4 -> 3 -> 2 -> 1: b_(i+1)i = 1 = -b_i(i+1), and the frozen row 4 points at 3
    assert type_a_seed(4).matrix.entries == ((0, -1, 0), (1, 0, -1), (0, 1, 0), (0, 0, 1))


def test_type_a_seed_validates():
    for m in range(2, 11):
        assert validate(type_a_seed(m).matrix) == ()
    with pytest.raises(ValueError):
        type_a_seed(1)


@pytest.mark.parametrize("m", [2.0, True, "3"])
@pytest.mark.parametrize("build", [type_a_seed, type_a_chain])
def test_chain_size_is_not_coerced(build, m):
    # 2.0 raised TypeError from range, True was read as 1 ("needs m >= 2"),
    # and "3" raised TypeError from the comparison with 2
    with pytest.raises(ValueError, match="m must be an integer"):
        build(m)


def test_chain_head_formula():
    res = type_a_chain(3)
    one = LaurentPoly.const(3, 1)
    assert res.chain[1] == exact_div(one + var(2, 3), var(1, 3))


def test_chain_m3_recovers_third_variable():
    res = type_a_chain(3)
    assert var(3, 3) == res.chain[2] * var(2, 3) - var(1, 3)


def test_chain_triangular_support():
    for m in (4, 6):
        res = type_a_chain(m)
        for i, head in enumerate(res.chain):
            sup = head.support_vars()
            assert i + 1 in sup
            assert not sup & set(range(i + 2, m + 1))


def test_chain_certificates_verify():
    for m in range(3, 7):
        res = type_a_chain(m)
        out = verify_polynomial_generators(res.certificate, res.disjoint_pair)
        assert out.ok, out.failures


def test_corrupted_certificate_fails_naming_target():
    res = type_a_chain(4)
    exprs = list(res.certificate.expressions)
    label, target, _ = exprs[2]
    exprs[2] = (label, target, ("int", 5))
    bad = dataclasses.replace(res.certificate, expressions=tuple(exprs))
    out = verify_polynomial_generators(bad, res.disjoint_pair)
    assert not out.ok
    assert any(label in f for f in out.failures)


# The support chain alone proves independence; each tampering below breaks
# the chain, so verification must reject it without any Jacobian.


def test_swapped_generators_rejected():
    res = type_a_chain(4)
    cert = res.certificate
    gens = list(cert.generators)
    gens[1], gens[2] = gens[2], gens[1]
    swapped = dataclasses.replace(cert, generators=tuple(gens))
    out = verify_polynomial_generators(swapped, res.disjoint_pair)
    assert not out.ok
    assert "generator 2 involves variables beyond its pivot x2" in out.failures


def test_dependent_generators_with_forged_pivots_rejected():
    res = type_a_chain(3)
    x = [var(i, 3) for i in (1, 2, 3)]
    forged = dataclasses.replace(res.certificate, generators=(x[0] + x[1], x[0] + x[1], x[2]))
    out = verify_polynomial_generators(forged, res.disjoint_pair)
    assert not out.ok
    assert "generator 1 involves variables beyond its pivot x1" in out.failures


def test_wrong_generator_count_is_a_failure_line():
    # the full-matrix Jacobian raised ConstructionError on a non-square matrix
    res = type_a_chain(4)
    cert = res.certificate
    tampered = dataclasses.replace(
        cert,
        generator_names=cert.generator_names + ("y",),
        generators=cert.generators + (var(1, 4),),
    )
    out = verify_polynomial_generators(tampered, res.disjoint_pair)
    assert not out.ok
    assert "generator count 5 differs from the variable count 4" in out.failures


def test_dropped_generator_named_by_a_tree_is_a_failure_line():
    # the trees name x1[3], the dropped generator: they fail, and nothing raises KeyError
    res = type_a_chain(4)
    cert = res.certificate
    dropped = dataclasses.replace(
        cert,
        generator_names=cert.generator_names[:-1],
        generators=cert.generators[:-1],
    )
    out = verify_polynomial_generators(dropped, res.disjoint_pair)
    assert not out.ok
    assert "generator count 3 differs from the variable count 4" in out.failures
    assert "expression tree for x4 does not re-evaluate to its target" in out.failures


def test_empty_generator_list_is_a_failure_line():
    # the variable count comes from the seeds, not from a first generator, in
    # verification and in the golden writer
    res = type_a_chain(3)
    empty = dataclasses.replace(res.certificate, generator_names=(), generators=())
    out = verify_polynomial_generators(empty, res.disjoint_pair)
    assert not out.ok
    assert "generator count 0 differs from the variable count 3" in out.failures
    data = certificate_to_json(empty, res.disjoint_pair[0].profile.m)
    assert data["generators"] == [] and len(data["sample_point"]) == 3 and data["jacobian_det"] == "1"


def test_verification_evaluates_no_jacobian(monkeypatch):
    # the support chain is the independence proof: neither building nor
    # verifying a certificate evaluates any polynomial at a point
    def no_evaluation(self, point):
        raise AssertionError("a polynomial was evaluated at a point")

    monkeypatch.setattr(LaurentPoly, "evaluate", no_evaluation)
    for res in (type_a_chain(5), acyclic_staircase(N3_CARTAN)):
        out = verify_polynomial_generators(res.certificate, res.disjoint_pair)
        assert out.ok, out.failures


# Each construction decides each of its identities by one check; tampering
# with the data that check reads must abort the construction.


def _negate_variable(p: LaurentPoly, i: int) -> LaurentPoly:
    """p under x_i -> -x_i."""
    return LaurentPoly(p.m, {e: -c if e[i - 1] % 2 else c for e, c in p.terms})


def test_chain_rejects_a_stage_that_breaks_only_the_shifted_identities(monkeypatch):
    real = type_a_chain(6).stages[2]
    tampered = Seed(real.matrix, [_negate_variable(v, 6) for v in real.cluster], real.word)

    def apply_word_tampered(seed, word):
        out = apply_word(seed, word)
        return tampered if out == real else out

    # x6 -> -x6 is a ring automorphism, so stage 2 and every stage mutated
    # from it keep all three-term identities; only the shifts see it
    monkeypatch.setattr(constructions, "apply_word", apply_word_tampered)
    with pytest.raises(ConstructionError, match="shifted"):
        type_a_chain(6)


def test_chain_one_step_mutations_are_later_stage_heads():
    # type_a_chain takes M(i, k) to be the head of stage i + k; the oracle solves each exchange
    for m in range(2, 11):
        stages = type_a_chain(m).stages
        solved = chain_one_step_reference(stages)
        assert len(solved) == m * (m - 1) // 2
        for (i, k), mutated in solved.items():
            assert mutated == stages[i + k].cluster[0], (m, i, k)


def test_chain_solves_one_exchange_per_stage_letter(monkeypatch):
    # only the stage words mutate: sum of m - i over stages 1..m-1, that is m(m-1)/2
    calls = []

    def counted(seed, k):
        calls.append(k)
        return seed_mutate(seed, k)

    monkeypatch.setattr(seeds, "seed_mutate", counted)
    monkeypatch.setattr(constructions, "seed_mutate", counted)
    for m in range(3, 9):
        calls.clear()
        type_a_chain(m)
        assert len(calls) == m * (m - 1) // 2, m


@pytest.mark.parametrize("shift", [1, -1])
def test_chain_rejects_stage_heads_off_by_one_stage(monkeypatch, shift):
    real = type_a_chain(6).stages
    # stage s keeps its matrix and other entries but takes the head of stage s + shift
    planted = [
        Seed(st.matrix, (real[s + shift].cluster[0],) + st.cluster[1:], st.word) if 0 <= s + shift < 6 else st
        for s, st in enumerate(real)
    ]
    built = iter(planted[1:])
    monkeypatch.setattr(constructions, "apply_word", lambda seed, word: next(built))
    with pytest.raises(ConstructionError, match="shifted"):
        type_a_chain(6)


def test_chain_rejects_a_seed_that_breaks_the_three_term_identity(monkeypatch):
    # b_21 = 2 makes the exchange at 1 read x1 * x1' = x2^2 + 1, not e(0, 0) + e(0, 2);
    # stage 1 starts with the real mutation at 1, so at (0, 1) its head passes the product
    # check and only the first check sees the broken identity
    rows = [list(row) for row in type_a_seed(4).matrix.entries]
    rows[1][0] = 2
    monkeypatch.setattr(constructions, "type_a_seed", lambda m: Seed.initial(ExchangeMatrix(rows, SeedProfile(3, 3, 4))))
    with pytest.raises(ConstructionError, match="^three-term identity failed at stage 0, position 1$"):
        type_a_chain(4)


def test_chain_rejects_a_wrong_recurrence_tree(monkeypatch):
    real = constructions._recurrence_trees

    def swapped(heads):
        trees = real(heads)
        tag, a, b = trees[-1]
        trees[-1] = (tag, b, a)
        return trees

    monkeypatch.setattr(constructions, "_recurrence_trees", swapped)
    with pytest.raises(ConstructionError):
        type_a_chain(5)


def test_jacobian_det_matches_sympy():
    import sympy

    rng = random.Random(1115)
    families = [type_a_chain(m).certificate.generators for m in range(2, 7)]
    families += [acyclic_staircase(random_cartan(rng, max_n=3)).certificate.generators for _ in range(5)]
    for gens in families:
        m = gens[0].m
        xs = sympy.symbols(f"x1:{m + 1}")
        exprs = [sum(c * sympy.Mul(*(x**e for x, e in zip(xs, exps))) for exps, c in g.terms) for g in gens]
        J = sympy.Matrix(exprs).jacobian(xs)
        for _ in range(4):
            point = tuple(rng.choice((-5, -3, -2, -1, 1, 2, 3, 7)) for _ in range(m))
            expected = J.subs(dict(zip(xs, point))).det()
            assert jacobian_det(gens, point) == Fraction(int(expected.p), int(expected.q))


# -- Cartan-built acyclic seeds ----------------------------------------------------


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanMatrix([[1, 0], [0, 2]])  # diagonal must be 2
    with pytest.raises(ValueError):
        CartanMatrix([[2, 1], [0, 2]])  # off-diagonal must be <= 0
    with pytest.raises(ValueError):
        CartanMatrix([[2, -1], [0, 2]])  # not symmetrizable
    CartanMatrix([[2, -1], [-2, 2]])  # symmetrizable, fine


@pytest.mark.parametrize("value", [-1.5, -1.0, True, "-1"])
def test_cartan_rejects_non_integer_entries(value):
    with pytest.raises(ValueError, match="must be an integer"):
        CartanMatrix([[2, value], [-1, 2]])


def test_cartan_seed_two_by_two():
    seed = acyclic_seed_from_cartan(CartanMatrix([[2, -2], [-2, 2]]))
    assert seed.matrix.entries == ((0, 2), (-2, 0), (1, -2), (0, 1))


def test_cartan_seed_matches_printed_rank3_matrix():
    seed = acyclic_seed_from_cartan(N3_CARTAN)
    expected = parse_matrix("3 3 6\n0 2 0; -2 0 1; 0 -1 0; 1 -2 0; 0 1 -1; 0 0 1")
    assert seed.matrix == expected


def test_cartan_seeds_are_acyclic():
    rng = random.Random(314)
    for _ in range(10):
        seed = acyclic_seed_from_cartan(random_cartan(rng))
        assert is_acyclic(seed.matrix)
        assert validate(seed.matrix) == ()


def test_staircase_rank3_printed_formulas():
    st = acyclic_staircase(N3_CARTAN)
    x = lambda i: var(i, 6)
    assert st.mutated.cluster[0] == exact_div(x(2) ** 2 + x(4), x(1))
    assert st.mutated.cluster[1] == exact_div(
        x(2) ** 4 * x(3) + 2 * x(2) ** 2 * x(3) * x(4) + x(3) * x(4) ** 2 + x(1) ** 2 * x(5),
        x(1) ** 2 * x(2),
    )
    assert st.mutated.cluster[2] == exact_div(
        x(2) ** 4 * x(3)
        + 2 * x(2) ** 2 * x(3) * x(4)
        + x(3) * x(4) ** 2
        + x(1) ** 2 * x(5)
        + x(1) ** 2 * x(2) * x(6),
        x(1) ** 2 * x(2) * x(3),
    )


def test_staircase_coefficient_recovery_example():
    st = acyclic_staircase(N3_CARTAN)
    x = lambda i: var(i, 6)
    assert x(4) == st.mutated.cluster[0] * x(1) - x(2) ** 2


def test_staircase_intermediate_blocks_match_mutation():
    seed = acyclic_seed_from_cartan(N3_CARTAN)
    b1 = parse_matrix("3 3 6\n0 -2 0; 2 0 1; 0 -1 0; -1 0 0; 0 1 -1; 0 0 1")
    b2 = parse_matrix("3 3 6\n0 2 0; -2 0 -1; 0 1 0; -1 0 0; 2 -1 0; 0 0 1")
    b3 = parse_matrix("3 3 6\n0 2 0; -2 0 1; 0 -1 0; -1 0 0; 2 -1 0; 0 1 -1")
    cur = seed
    for i, expected in enumerate((b1, b2, b3), start=1):
        cur = seed_mutate(cur, i)
        assert cur.matrix == expected
        assert staircase_intermediate_matrix(seed.matrix, i) == expected
    # principal part returns to the original after the full staircase
    assert cur.matrix.principal() == seed.matrix.principal()


def test_staircase_rejects_a_wrong_last_entry(monkeypatch):
    def negate_last(seed, k):
        out = seed_mutate(seed, k)
        if k < seed.profile.n:
            return out
        cluster = list(out.cluster)
        cluster[k - 1] = -cluster[k - 1]
        return Seed(out.matrix, cluster, out.word)

    monkeypatch.setattr(constructions, "seed_mutate", negate_last)
    with pytest.raises(ConstructionError):
        acyclic_staircase(N3_CARTAN)


def test_staircase_certificates_on_random_cartans():
    rng = random.Random(2718)
    for _ in range(5):
        C = random_cartan(rng, max_n=3)
        st = acyclic_staircase(C)
        out = verify_polynomial_generators(st.certificate, st.disjoint_pair)
        assert out.ok, out.failures


def test_certificate_json_shape():
    st = acyclic_staircase(CartanMatrix([[2, -1], [-1, 2]]))
    data = certificate_to_json(st.certificate, st.initial.profile.m)
    assert set(data) == {"generators", "sample_point", "jacobian_det", "expressions"}
    for entry in data["expressions"]:
        tree = entry["tree"]
        assert isinstance(tree, list) and tree[0] in {"gen", "int", "add", "sub", "mul", "pow"}


def test_expression_tree_round_trip():
    tree = ("sub", ("mul", ("gen", "a"), ("pow", ("gen", "b"), 2)), ("int", 3))
    env = {"a": var(1, 2), "b": var(2, 2)}
    [value] = eval_expr([tree], env, 2)
    assert value == var(1, 2) * var(2, 2) ** 2 - LaurentPoly.const(2, 3)
    assert expr_to_json(tree) == ["sub", ["mul", ["gen", "a"], ["pow", ["gen", "b"], 2]], ["int", 3]]


def test_expression_trees_match_the_reference_evaluator():
    certs = [type_a_chain(m).certificate for m in range(2, 11)]
    rng = random.Random(4242)
    certs += [acyclic_staircase(random_cartan(rng)).certificate for _ in range(10)]
    for cert in certs:
        env = dict(zip(cert.generator_names, cert.generators))
        m = cert.generators[0].m
        values = eval_expr([tree for _, _, tree in cert.expressions], env, m)
        for (_, target, tree), value in zip(cert.expressions, values, strict=True):
            assert value == eval_expr_reference(tree, env, m)
            assert value == target


class CountingEnv(dict):
    """A generator environment that counts its lookups."""

    lookups = 0

    def __getitem__(self, name):
        self.lookups += 1
        return super().__getitem__(name)


def _gen_node_ids(tree, ids: set) -> None:
    """Add the ids of the ("gen", ...) node objects of tree to ids."""
    if tree[0] == "gen":
        ids.add(id(tree))
    elif tree[0] == "pow":
        _gen_node_ids(tree[1], ids)
    elif tree[0] != "int":
        for t in tree[1:]:
            _gen_node_ids(t, ids)


def test_one_pass_looks_up_each_generator_node_once():
    # the chain's trees share subtrees across trees: t_s refers to t_(s-1) and
    # t_(s-2), the trees of earlier targets, so one pass over the certificate
    # reaches each ("gen", ...) node object exactly once
    cert = type_a_chain(12).certificate
    trees = [tree for _, _, tree in cert.expressions]
    gen_ids: set = set()
    for tree in trees:
        _gen_node_ids(tree, gen_ids)
    env = CountingEnv(zip(cert.generator_names, cert.generators))
    values = eval_expr(trees, env, cert.generators[0].m)
    assert values == [target for _, target, _ in cert.expressions]
    assert env.lookups == len(gen_ids)


def test_missing_generator_leaves_only_its_trees_without_value():
    shared = ("mul", ("gen", "a"), ("gen", "b"))
    trees = [shared, ("add", shared, ("int", 1)), ("pow", ("gen", "a"), 2)]
    values = eval_expr(trees, {"a": var(1, 1)}, 1)
    assert values == [None, None, var(1, 1) ** 2]


def test_shared_subtrees_are_evaluated_once():
    # 2^22 root-to-leaf paths but only 23 distinct nodes: a walk over every
    # path takes tens of seconds, one evaluation per node is instant
    depth = 22
    tree = ("gen", "x1")
    for _ in range(depth):
        tree = ("add", tree, tree)
    start = time.perf_counter()
    [value] = eval_expr([tree], {"x1": var(1, 1)}, 1)
    assert time.perf_counter() - start < 1.0
    assert value == LaurentPoly.monomial(1, (1,), 2**depth)


# -- outputs pinned by goldens ---------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _certified(result) -> dict:
    m = result.disjoint_pair[0].profile.m
    return {"certificate": certificate_to_json(result.certificate, m), "identity_counts": result.identity_counts}


def construction_golden_payloads() -> dict[str, object]:
    """Golden file name -> the payload its text was written from."""
    C = acyclic_n3_cartan()
    return {
        "type_a_chain_certificates.json": {str(m): _certified(type_a_chain(m)) for m in range(2, 7)},
        "acyclic_n3_staircase_certificate.json": _certified(acyclic_staircase(C)),
        "acyclic_n3_bfz_degree2.json": bfz_table_to_json(bfz_basis_change(C, 2)),
    }


def golden_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_construction_outputs_match_goldens_byte_for_byte():
    for name, payload in construction_golden_payloads().items():
        assert golden_text(payload) == (GOLDEN / name).read_text(encoding="utf-8"), name


# -- change of basis ------------------------------------------------------------


def test_bfz_smallest_example():
    table = bfz_basis_change(CartanMatrix([[2, -1], [-1, 2]]), degree_bound=2)
    x = lambda i: var(i, 4)
    assert table.primed[0] == exact_div(x(3) + x(2), x(1))
    # the first one-step mutation coincides with the first staircase generator
    g = lambda i: var(i, 4)  # formal generator ring also has 4 = 2n variables
    assert table.primed_in_generators[0] == g(3)
    assert table.primed_in_generators[1] == g(1) * g(4) - LaurentPoly.const(4, 1)


def test_bfz_pure_monomial_rows_are_identities():
    table = bfz_basis_change(CartanMatrix([[2, -2], [-2, 2]]), degree_bound=2)
    n = 2
    for row in table.rows:
        if not any(row.exponents[n:]):
            assert len(row.combination) == 1
            mexp, coeff = row.combination[0]
            assert coeff == 1
            assert mexp[:n] == row.exponents[:n] and not any(mexp[n:])


def test_bfz_constraint_excludes_mixed_monomials():
    table = bfz_basis_change(CartanMatrix([[2, -1], [-1, 2]]), degree_bound=3)
    n = 2
    for row in table.rows:
        assert sum(row.exponents) <= 3
        for k in range(n):
            assert row.exponents[k] == 0 or row.exponents[2 * n + k] == 0


@pytest.mark.parametrize("bound", [True, -1, 1.5, "2"])
def test_bfz_degree_bound_is_not_coerced(bound):
    # True built the degree-1 table and wrote "degree_bound": true, -1 gave an
    # empty table, and 1.5 and "2" raised TypeError from inside the enumeration
    with pytest.raises(ValueError, match="degree_bound"):
        bfz_basis_change(CartanMatrix([[2, -1], [-1, 2]]), bound)


def test_bfz_degree_zero_is_the_constant_row():
    table = bfz_basis_change(CartanMatrix([[2, -1], [-1, 2]]), 0)
    assert [row.exponents for row in table.rows] == [(0,) * 6]


def test_bfz_divisibility_on_random_cartans():
    rng = random.Random(1618)
    for _ in range(5):
        bfz_basis_change(random_cartan(rng, max_n=3), degree_bound=1)


def test_bfz_names_the_first_wrong_one_step_mutation(monkeypatch):
    # the one-step mutations at 2 and 3 are negated: the check at 2 is the first to fail
    def negate_at_2_and_3(seed, k):
        out = seed_mutate(seed, k)
        if k < 2:
            return out
        cluster = list(out.cluster)
        cluster[k - 1] = -cluster[k - 1]
        return Seed(out.matrix, cluster, out.word)

    monkeypatch.setattr(constructions, "seed_mutate", negate_at_2_and_3)
    with pytest.raises(ConstructionError, match="^combination identity for the one-step mutation at 2 failed$"):
        bfz_basis_change(N3_CARTAN)


# -- the rank-2 Kac-Moody preset ----------------------------------------------------


def test_lie_matrix_shape():
    B = lie_matrix()
    assert (B.profile.n, B.profile.p, B.profile.m) == (6, 6, 8)
    for i in range(1, 7):
        for j in range(1, 7):
            assert B.entry(i, j) == -B.entry(j, i)
    assert skew_symmetrizer(B) == (1,) * 6


def test_lie_preset_schedule():
    lp = lie_preset()
    assert lp.disjoint
    assert lp.stages[-1].word == (1, 3, 5, 2, 4, 6, 1, 3, 2, 4, 1, 2)
    assert len(lp.stages) == 7
    assert apply_word(lp.stages[0], lp.stages[-1].word) == lp.stages[-1]
    # coefficients never move
    for stage in lp.stages:
        assert stage.cluster[6:] == lp.stages[0].cluster[6:]
    assert render_poly(lp.stages[0].cluster[0]) == "x1"
    assert all(len(stage.cluster) == 8 for stage in lp.stages)


def test_lie_preset_integer_laurent_entries():
    lp = lie_preset()
    for stage in lp.stages:
        for entry in stage.cluster:
            assert isinstance(entry, LaurentPoly)
            assert all(isinstance(c, int) for _, c in entry.terms)
