"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All equality checks are exact structural equality of Laurent
polynomials; runtime budgets are asserted where stated.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from clusterkit.analysis import (
    FieldTag,
    column_criterion,
    gcd_criterion,
    laurent_membership,
)
from clusterkit.constructions import (
    CartanMatrix,
    acyclic_seed_from_cartan,
    acyclic_staircase,
    bfz_basis_change,
    lie_preset,
    staircase_intermediate_matrix,
    type_a_chain,
    verify_polynomial_generators,
)
from clusterkit.explore import ExplorationLimits, explore
from clusterkit.laurent import LaurentPoly, exact_div, poly_gcd
from clusterkit.presets import a3_matrix, lampe_matrix
from clusterkit.seeds import (
    ExchangeMatrix,
    Seed,
    SeedProfile,
    apply_word,
    matrix_rank,
    seed_mutate,
    skew_symmetrizer,
)
from oracles import catalan, random_cartan, random_valid_matrix, rank2_closure_bruteforce, rank2_matrix


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget}s budget")
        ok = True
        print(f"criterion {num}: PASS ({description}; {elapsed:.2f}s)")
    finally:
        if not ok:
            print(f"criterion {num}: FAIL ({description})")


def var(i, m):
    return LaurentPoly.variable(m, i)


def test_criterion_1_a3_reproduction():
    with criterion(1, "A3 word (1,3) formulas, witness identity, column criterion", budget=1.0):
        seed = Seed.initial(a3_matrix())
        s13 = apply_word(seed, (1, 3))
        one = LaurentPoly.const(3, 1)
        z1 = exact_div(one + var(2, 3), var(1, 3))
        z3 = exact_div(one + var(2, 3), var(3, 3))
        assert s13.cluster[0] == z1
        assert s13.cluster[2] == z3
        assert var(1, 3) * z1 == var(3, 3) * z3
        verdict = column_criterion(a3_matrix())
        assert verdict.is_not_factorial
        assert (verdict.witness.k, verdict.witness.s) == (1, 3)


def test_criterion_2_acyclic_rank3_example():
    with criterion(2, "rank-3 staircase formulas and intermediate matrix shapes", budget=1.0):
        C = CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
        seed = acyclic_seed_from_cartan(C)
        st = acyclic_staircase(C)
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
        shapes = {
            1: "3 3 6\n0 -2 0; 2 0 1; 0 -1 0; -1 0 0; 0 1 -1; 0 0 1",
            2: "3 3 6\n0 2 0; -2 0 -1; 0 1 0; -1 0 0; 2 -1 0; 0 0 1",
            3: "3 3 6\n0 2 0; -2 0 1; 0 -1 0; -1 0 0; 2 -1 0; 0 1 -1",
        }
        from clusterkit.seeds import parse_matrix

        cur = seed
        for i in range(1, 4):
            cur = seed_mutate(cur, i)
            assert cur.matrix == parse_matrix(shapes[i])


def test_criterion_3_chain_identities():
    with criterion(3, "chain identities and certificates for m = 3..8", budget=10.0):
        for m in range(3, 9):
            res = type_a_chain(m)  # raises ConstructionError on any identity failure
            assert res.identity_counts["three_term"] == m * (m - 1) // 2
            assert res.identity_counts["initial_recurrence"] == m - 1
            assert res.identity_counts["stage1_recurrence"] == m - 1
            out = verify_polynomial_generators(res.certificate, res.disjoint_pair)
            assert out.ok, out.failures


def test_criterion_4_randomized_cartan_identities():
    with criterion(4, "20 random Cartan staircases: exchange, recovery, shapes, divisibility", budget=30.0):
        rng = random.Random(46368)
        for _ in range(20):
            C = random_cartan(rng, max_n=4, bound=3)
            n = C.n
            st = acyclic_staircase(C)  # checks every intermediate shape and identity
            assert st.identity_counts["exchange"] == n
            assert st.identity_counts["coefficient_recovery"] == n
            # the final matrix has the stated block form
            B0 = st.initial.matrix
            B1 = st.mutated.matrix
            assert B1 == staircase_intermediate_matrix(B0, n)
            assert B1.principal() == B0.principal()
            for j in range(1, n + 1):
                row = B1.entries[n + j - 1]
                assert row[j - 1] == -1
                assert all(row[t] == 0 for t in range(j, n))
                assert all(row[t] == -B0.entry(j, t + 1) for t in range(j - 1))
            # combination identity divisible by the mutated generator, for every k
            bfz_basis_change(C, degree_bound=1)


def test_criterion_5_involution_and_symmetrizer():
    with criterion(5, "mutation involution and symmetrizer preservation on 100 random seeds"):
        rng = random.Random(75025)
        for _ in range(100):
            B = random_valid_matrix(rng, max_n=4, max_m=6, bound=3)
            seed = Seed.initial(B)
            d = skew_symmetrizer(B)
            assert d is not None
            for k in range(1, B.profile.n + 1):
                once = seed_mutate(seed, k)
                assert skew_symmetrizer(once.matrix) == d
                assert seed_mutate(once, k) == seed


def test_criterion_6_laurent_phenomenon_desk_scale():
    with criterion(6, "rank-2 Laurent property at depth 8, re-expressed in a mutated cluster"):
        limits = ExplorationLimits(max_depth=8, max_seeds=100000)
        for b, c in ((1, 1), (1, 2), (1, 3), (2, 2)):
            t0 = time.monotonic()
            seed = Seed.initial(rank2_matrix(b, c))
            report = explore(seed, limits)
            target = next(s for s in report.seeds if s.word)
            for v in report.distinct_variables:
                assert v.m == 2
                assert all(isinstance(coeff, int) and coeff for _, coeff in v.terms)
                assert laurent_membership(v, target)
            if (b, c) == (2, 2):
                assert time.monotonic() - t0 < 10.0


def test_criterion_7_finite_type_closure():
    expected = {(1, 1): 5, (1, 2): 6, (1, 3): 8}
    # the sympy oracle (and its first import) runs before the budgeted block
    oracle = {bc: rank2_closure_bruteforce(*bc) for bc in expected}
    with criterion(7, "closure counts: A3 and the three finite rank-2 types", budget=5.0):
        wide = ExplorationLimits(max_depth=64, max_seeds=100000)
        report = explore(Seed.initial(a3_matrix()), wide)
        n = 3
        assert report.finite
        assert len(report.distinct_variables) == n * (n + 3) // 2 == 9
        assert len(report.distinct_clusters) == catalan(n + 1) == 14
        for (b, c), count in expected.items():
            rep = explore(Seed.initial(rank2_matrix(b, c)), wide)
            assert rep.finite
            assert len(rep.distinct_variables) == count
            oracle_vars, _, oracle_closed = oracle[b, c]
            assert oracle_closed and oracle_vars == count


def test_criterion_8_factoriality_verdicts():
    with criterion(8, "gcd-criterion verdicts and maximal rank of the 2x2 counterexample"):
        lampe = lampe_matrix()
        over_c = gcd_criterion(lampe, FieldTag.COMPLEXES)
        assert over_c.is_not_factorial and over_c.witness.d == 2
        assert gcd_criterion(lampe, FieldTag.RATIONALS).status == "inconclusive"
        for d in (3, 5):
            B = ExchangeMatrix([[0, -1], [d, 0]], SeedProfile(2, 2, 2))
            verdict = gcd_criterion(B, FieldTag.RATIONALS)
            assert verdict.is_not_factorial and verdict.witness.d == d
        # maximal rank does not rescue factoriality
        assert matrix_rank(lampe) == 2


def test_criterion_9_lie_preset():
    with criterion(9, "six-stage rank-2 Kac-Moody schedule", budget=30.0):
        lp = lie_preset()
        assert lp.disjoint
        assert len(lp.stages) == 7
        for stage in lp.stages:
            for entry in stage.cluster:
                assert entry.m == 8
                assert all(isinstance(coeff, int) for _, coeff in entry.terms)


def _random_poly(rng, m=3, max_terms=3, max_exp=2, max_coeff=5, laurent=True):
    acc = {}
    lo = -max_exp if laurent else 0
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(lo, max_exp) for _ in range(m))
        acc[exps] = acc.get(exps, 0) + rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(m, acc)


def _univariate(rng, v, m=3):
    acc = {}
    for _ in range(rng.randint(1, 3)):
        exps = [0] * m
        exps[v - 1] = rng.randint(1, 3)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + rng.randint(-4, 4)
    return LaurentPoly(m, acc)


def test_criterion_10_kernel_property_suite():
    cases = 10000
    with criterion(10, f"{cases} randomized cases per kernel property"):
        rng = random.Random(832040)
        done = 0
        while done < cases:
            a, b, c = (_random_poly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            done += 1

        done = 0
        while done < cases:
            a = _random_poly(rng)
            b = _random_poly(rng)
            if b.is_zero:
                continue
            assert exact_div(a * b, b) == a
            done += 1

        done = 0
        while done < cases:
            g = _random_poly(rng, laurent=False)
            if g.is_zero:
                continue
            u = _univariate(rng, 1) + LaurentPoly.const(3, 3)
            v = _univariate(rng, 2) + LaurentPoly.const(3, 1)
            assert poly_gcd(g * u, g * v) == poly_gcd(g, LaurentPoly.zero(3))
            done += 1

        done = 0
        while done < cases:
            a = _random_poly(rng)
            b = _random_poly(rng)
            pt = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
            assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
            assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
            bval = b.evaluate(pt)
            if not b.is_zero and bval:
                assert exact_div(a * b, b).evaluate(pt) == (a * b).evaluate(pt) / bval
            done += 1
