"""Metamorphic relations: how a verdict must change when its input changes.

Negation, B -> -B.  Negating column k swaps the two monomials of the
exchange relation at k and leaves their sum alone, and mu_k(-B) = -mu_k(B),
so every mutation word reaches the same cluster from both matrices.  Every
verdict that reads only the clusters, or the columns up to sign, must
therefore be the same for B and -B.

Relabelling.  Permuting the mutable indices of B by sigma, rows and columns
together, with the frozen rows left in place, gives a matrix whose
mutation at sigma(k) is the relabelled mutation at k.  So its exchange
graph is B's with x_i renamed x_sigma(i): the same number of seeds, the
renamed variables and clusters, and the same factoriality status.  The
same holds for a permutation of the frozen rows alone, with the frozen
variables renamed to match.

Base point.  The exchange graph is connected, so exploring to closure from
any seed of it, mutated root included, finds the same seeds, variables and
clusters.

The Laurent phenomenon (Fomin-Zelevinsky, Cluster algebras I, 2002): every
cluster variable is a Laurent polynomial in the entries of every cluster,
polynomial in the frozen ones, so every (variable, seed) pair of a closure
is a member.

The draws are seeded, so the suite is deterministic.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from clusterkit.analysis import column_criterion, gcd_criterion, laurent_membership, upper_bound_member
from clusterkit.explore import ExplorationLimits, explore
from clusterkit.laurent import FieldTag, LaurentPoly, RationalFn
from clusterkit.presets import a3_matrix, lampe_matrix
from clusterkit.seeds import ExchangeMatrix, Seed, apply_word
from oracles import random_dynkin_matrix, rank2_matrix

WIDE = ExplorationLimits(max_depth=64, max_seeds=100000)
CRITERIA = (column_criterion, partial(gcd_criterion, field=FieldTag.RATIONALS), partial(gcd_criterion, field=FieldTag.COMPLEXES))


def negated(B: ExchangeMatrix) -> ExchangeMatrix:
    return ExchangeMatrix([[-v for v in row] for row in B.entries], B.profile)


def dynkin_draws():
    rng = random.Random("negation")
    return [random_dynkin_matrix(rng, letter, n) for letter, n in (("A", 3), ("B", 3), ("C", 3), ("G", 2))]


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
def test_negation_keeps_the_explore_report(quotient):
    for B in dynkin_draws():
        reports = [explore(Seed.initial(M), WIDE, quotient_permutations=quotient) for M in (B, negated(B))]
        assert reports[0].finite
        assert reports[0].to_json() == reports[1].to_json(), B


def test_negation_keeps_the_factoriality_verdicts():
    matrices = dynkin_draws() + [a3_matrix(), lampe_matrix()]
    verdicts = []
    for B in matrices:
        for criterion in CRITERIA:
            verdict = criterion(B)
            assert criterion(negated(B)) == verdict, B
            verdicts.append(verdict)
    # the presets carry witnesses, so both verdicts are compared
    assert any(v.is_not_factorial for v in verdicts) and not all(v.is_not_factorial for v in verdicts)


def alternating_word(length: int) -> list[int]:
    return [1 if i % 2 == 0 else 2 for i in range(length)]


@pytest.mark.parametrize("b,c", [(2, 2), (1, 4)])
def test_negation_keeps_laurent_and_upper_bound_membership(b, c):
    # x_1, x_2, ... with x_{k-1} x_{k+1} = x_k^{e_k} + 1, e_k = c for even k and
    # b for odd k; t_j is the seed after the alternating word of length j
    B = rank2_matrix(b, c)
    s0 = Seed.initial(B)
    x = [None] + [apply_word(s0, alternating_word(i - 1)).cluster[(i - 1) % 2] for i in range(1, 6)]
    targets = {M: [apply_word(Seed.initial(M), alternating_word(j)) for j in range(3)] for M in (B, negated(B))}
    t, u = targets.values()
    assert [s.cluster for s in t] == [s.cluster for s in u]
    one = RationalFn.const(2, 1)
    answers = []
    for k in range(2, 5):
        xk = RationalFn.from_laurent(x[k])
        e = c if k % 2 == 0 else b
        for value in (x[k], one / xk, (xk**e + one) / RationalFn.from_laurent(x[k - 1])):
            member = [laurent_membership(value, s) for s in t]
            assert [laurent_membership(value, s) for s in u] == member, (b, c, k, value)
            bound = upper_bound_member(value, t[0], t[2])
            assert upper_bound_member(value, u[0], u[2]) == bound, (b, c, k, value)
            answers += member + [bound]
    # 1/x_k is a member only against a cluster that holds x_k
    assert True in answers and False in answers


def relabelling_draws():
    """(B, index map) for seeded finite-type draws; the map sends i to sigma(i) on the
    mutable indices, 0-based, and fixes the frozen ones."""
    rng = random.Random("relabelling")
    draws = []
    for letter, n in (("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)):
        B = random_dynkin_matrix(rng, letter, n)
        sigma = list(range(n))
        while sigma == sorted(sigma):
            sigma = rng.sample(range(n), n)
        draws.append((B, sigma + list(range(n, B.profile.m))))
    assert any(B.profile.m > B.profile.n for B, _ in draws)  # frozen rows are kept in place
    return draws


def relabelled(B: ExchangeMatrix, index: list[int]) -> ExchangeMatrix:
    rows = [[0] * B.profile.n for _ in range(B.profile.m)]
    for i, row in enumerate(B.entries):
        for j, v in enumerate(row):
            rows[index[i]][index[j]] = v
    return ExchangeMatrix(rows, B.profile)


def renamed(p: LaurentPoly, index: list[int]) -> LaurentPoly:
    """p with x_i renamed x_index(i)."""
    terms = []
    for exps, c in p.terms:
        moved = [0] * p.m
        for i, e in enumerate(exps):
            moved[index[i]] = e
        terms.append((tuple(moved), c))
    return LaurentPoly(p.m, terms)


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
def test_relabelling_renames_the_explore_report(quotient):
    for B, index in relabelling_draws():
        report, image = (
            explore(Seed.initial(M), WIDE, quotient_permutations=quotient) for M in (B, relabelled(B, index))
        )
        assert report.finite
        assert (image.seeds_found, image.frontier_exhausted_reason) == (report.seeds_found, "closure"), B
        assert set(image.distinct_variables) == {renamed(v, index) for v in report.distinct_variables}, B
        assert set(image.distinct_clusters) == {
            frozenset(renamed(v, index) for v in cl) for cl in report.distinct_clusters
        }, B


def frozen_permutation_draws():
    """(B, index map) for seeded finite-type draws with two distinct frozen rows or
    more; the map fixes the mutable indices and moves the frozen rows."""
    rng = random.Random("frozen")
    draws = []
    for letter, n in (("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)):
        B = random_dynkin_matrix(rng, letter, n)
        while len(set(B.entries[n:])) < 2:
            B = random_dynkin_matrix(rng, letter, n)
        index = list(range(B.profile.m))
        while relabelled(B, index) == B:
            index = list(range(n)) + rng.sample(range(n, B.profile.m), B.profile.m - n)
        draws.append((B, index))
    return draws


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
def test_frozen_permutation_renames_the_explore_report(quotient):
    for B, index in frozen_permutation_draws():
        report, image = (
            explore(Seed.initial(M), WIDE, quotient_permutations=quotient) for M in (B, relabelled(B, index))
        )
        assert report.finite
        assert (image.seeds_found, image.frontier_exhausted_reason) == (report.seeds_found, "closure"), B
        assert set(image.distinct_variables) == {renamed(v, index) for v in report.distinct_variables}, B
        assert set(image.distinct_clusters) == {
            frozenset(renamed(v, index) for v in cl) for cl in report.distinct_clusters
        }, B


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
def test_mutated_root_closes_on_the_same_graph(quotient):
    rng = random.Random("base point")
    for B in dynkin_draws():
        n = B.profile.n
        root = Seed.initial(B)
        word = [rng.randint(1, n) for _ in range(rng.randint(2, 5))]
        start = apply_word(root, word)
        report, moved = (explore(s, WIDE, quotient_permutations=quotient) for s in (root, start))
        assert report.finite and moved.finite
        assert moved.seeds_found == report.seeds_found, (B, word)
        assert set(moved.distinct_variables) == set(report.distinct_variables), (B, word)
        assert set(moved.distinct_clusters) == set(report.distinct_clusters), (B, word)


def test_laurent_phenomenon_on_sampled_pairs():
    rng = random.Random("laurent")
    pairs = 0
    for letter, n in (("A", 3), ("B", 3), ("G", 2)):
        B = random_dynkin_matrix(rng, letter, n)
        while B.profile.m != n + 1:
            B = random_dynkin_matrix(rng, letter, n)
        report = explore(Seed.initial(B), WIDE)
        assert report.finite
        for _ in range(12):
            variable = rng.choice(report.distinct_variables)
            seed = rng.choice(report.seeds)
            assert laurent_membership(variable, seed), (B, variable, seed.word)
            pairs += 1
    assert pairs == 36


def test_relabelling_keeps_the_factoriality_status():
    statuses = set()
    for B, index in relabelling_draws() + [(a3_matrix(), [2, 0, 1]), (lampe_matrix(), [1, 0])]:
        for criterion in CRITERIA:
            status = criterion(B).status
            assert criterion(relabelled(B, index)).status == status, B
            statuses.add(status)
    assert statuses == {"not_factorial", "inconclusive"}
