"""Explorer tests: closure detection, dedup, determinism, Laurent checks, exchange memo."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from clusterkit.analysis import laurent_membership
from clusterkit.explore import ExplorationLimits, _quotient_key, explore
from clusterkit.laurent import LaurentPoly, exact_div, render_poly
from clusterkit.presets import a3_matrix
from clusterkit.seeds import InvalidSeed, Seed, ExchangeMatrix, SeedProfile, apply_word
from oracles import explore_reference, permutation_key_bruteforce, random_dynkin_matrix, rank2_matrix

WIDE = ExplorationLimits(max_depth=64, max_seeds=100000)


@pytest.fixture
def a3_seed():
    return Seed.initial(a3_matrix())


def test_a3_closure_counts(a3_seed):
    report = explore(a3_seed, WIDE)
    assert report.finite
    assert report.frontier_exhausted_reason == "closure"
    assert len(report.distinct_variables) == 9
    assert len(report.distinct_clusters) == 14


def test_affine_rank2_is_open_at_depth_8():
    seed = Seed.initial(rank2_matrix(2, 2))
    report = explore(seed, ExplorationLimits(max_depth=8, max_seeds=100000))
    assert not report.finite
    assert report.frontier_exhausted_reason == "depth"


def test_depth_zero(a3_seed):
    report = explore(a3_seed, ExplorationLimits(max_depth=0, max_seeds=10))
    assert report.seeds_found == 1
    assert report.to_json()["variables"] == ["x3", "x2", "x1"]


def test_budget_reason(a3_seed):
    report = explore(a3_seed, ExplorationLimits(max_depth=64, max_seeds=5))
    assert report.seeds_found == 5
    assert report.frontier_exhausted_reason == "budget"
    assert not report.finite


def test_report_variables_contain_known_formulas(a3_seed):
    report = explore(a3_seed, WIDE)
    texts = report.to_json()["variables"]
    one = LaurentPoly.const(3, 1)
    x = lambda i: LaurentPoly.variable(3, i)
    for v in ("x1", "x2", "x3"):
        assert v in texts
    assert render_poly(exact_div(one + x(2), x(1))) in texts
    assert render_poly(exact_div(one + x(2), x(3))) in texts
    assert len(set(texts)) == len(texts)


def test_closure_means_every_mutation_lands_inside(a3_seed):
    from clusterkit.seeds import seed_mutate

    report = explore(a3_seed, WIDE)
    assert report.finite
    found = set(report.seeds)
    for s in report.seeds:
        for k in range(1, s.profile.n + 1):
            assert seed_mutate(s, k) in found


def test_every_variable_in_some_cluster(a3_seed):
    report = explore(a3_seed, WIDE)
    members = {v for cl in report.distinct_clusters for v in cl}
    assert members == set(report.distinct_variables)


def test_monotone_in_depth(a3_seed):
    found = []
    for depth in (1, 2, 3, 5):
        report = explore(a3_seed, ExplorationLimits(max_depth=depth, max_seeds=100000))
        found.append(set(report.distinct_variables))
    for smaller, larger in zip(found, found[1:]):
        assert smaller <= larger


def test_empirical_positivity():
    for b, c in ((1, 1), (1, 3), (2, 2)):
        seed = Seed.initial(rank2_matrix(b, c))
        report = explore(seed, ExplorationLimits(max_depth=6, max_seeds=100000))
        for v in report.distinct_variables:
            assert all(coeff > 0 for _, coeff in v.terms)


def test_laurent_phenomenon_desk_scale(a3_seed):
    # every variable found at depth <= 2 is Laurent in every explored cluster
    report = explore(a3_seed, ExplorationLimits(max_depth=2, max_seeds=1000))
    for target in report.seeds:
        for v in report.distinct_variables:
            assert laurent_membership(v, target)


def test_quotient_by_permutation(a3_seed):
    raw = explore(a3_seed, WIDE)
    quotient = explore(a3_seed, WIDE, quotient_permutations=True)
    assert quotient.seeds_found <= raw.seeds_found
    assert set(quotient.distinct_variables) == set(raw.distinct_variables)
    assert len(quotient.distinct_clusters) == len(raw.distinct_clusters)


@pytest.mark.parametrize("letter,n", [("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4)])
def test_quotient_key_matches_bruteforce(letter, n):
    # explore's label-sorted key against the minimum over all n! relabellings
    rng = random.Random(f"{letter}{n}")
    for _ in range(3):
        seed = Seed.initial(random_dynkin_matrix(rng, letter, n))
        fast = explore(seed, WIDE, quotient_permutations=True)
        reference = explore_reference(seed, WIDE, True, permutation_key_bruteforce)
        assert fast.finite
        assert fast.to_json() == reference.to_json()
        assert [s.word for s in fast.seeds] == [s.word for s in reference.seeds]


def test_quotient_key_keeps_the_frozen_rows():
    # the key is a relabelling of the whole seed; the closures above never meet
    # two seeds that differ only in a frozen row, so the key is checked directly
    rows = ((0, 1), (-1, 0), (1, 0))
    for labels in ((0, 1, 2), (1, 0, 2)):
        assert _quotient_key(rows, labels, 2) != _quotient_key(rows[:2] + ((0, 1),), labels, 2)


def test_a5_quotient_closure():
    B = ExchangeMatrix(
        [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]],
        SeedProfile(5, 5, 5),
    )
    report = explore(Seed.initial(B), WIDE, quotient_permutations=True)
    assert report.frontier_exhausted_reason == "closure"
    assert len(report.distinct_variables) == 20
    assert len(report.distinct_clusters) == 132


def test_explore_rejects_invalid_matrix():
    # Seed(...) validates its matrix, so no seed explore is given can carry this one
    B = ExchangeMatrix([[0, 0], [0, 0], [1, 0], [0, 1]], SeedProfile(2, 2, 4))
    with pytest.raises(InvalidSeed, match="connectivity"):
        Seed(B, [LaurentPoly.variable(4, i + 1) for i in range(4)], ())
    with pytest.raises(InvalidSeed, match="connectivity"):
        Seed.initial(B)


def test_report_json_schema(a3_seed):
    report = explore(a3_seed, ExplorationLimits(max_depth=2, max_seeds=100))
    data = report.to_json()
    assert set(data) == {"seeds_found", "variables", "clusters", "finite", "reason"}
    assert data["seeds_found"] == report.seeds_found
    for cluster in data["clusters"]:
        assert all(0 <= i < len(data["variables"]) for i in cluster)
        assert len(cluster) == report.seeds[0].profile.n


def test_limits_validation():
    with pytest.raises(ValueError):
        ExplorationLimits(max_depth=-1)
    with pytest.raises(ValueError):
        ExplorationLimits(max_seeds=0)
    # no coercion: 1.5 never equals a depth, True is not a count
    for bad in (1.5, True, "2", None):
        with pytest.raises(ValueError):
            ExplorationLimits(max_depth=bad)
        with pytest.raises(ValueError):
            ExplorationLimits(max_seeds=bad)
    defaults = ExplorationLimits()
    assert defaults.max_depth == 6 and defaults.max_seeds == 10000


def _outcome(run):
    """The report, and each seed's word, matrix and cluster in discovery order,
    of an exploration, or the error it raised."""
    try:
        report = run()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return report.to_json(), [(s.word, s.matrix.entries, s.cluster) for s in report.seeds]


def _assert_matches_reference(seed, limits, quotient):
    fast = _outcome(lambda: explore(seed, limits, quotient_permutations=quotient))
    assert fast == _outcome(lambda: explore_reference(seed, limits, quotient))


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
def test_exchange_memo_matches_reference(quotient):
    # every draw has a random orientation, relabelling and 0..n frozen rows
    limits = (WIDE, ExplorationLimits(max_depth=3, max_seeds=100000), ExplorationLimits(max_depth=64, max_seeds=40))
    for letter, n in (("A", 2), ("B", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4)):
        rng = random.Random(f"memo-{letter}{n}-{quotient}")
        for _ in range(2):
            seed = Seed.initial(random_dynkin_matrix(rng, letter, n))
            for lim in limits:
                _assert_matches_reference(seed, lim, quotient)


def _mid_level_budget(rng, report, cap):
    """A seed budget at most cap that stops a walk between two seeds of one level."""
    depths = [len(s.word) for s in report.seeds[: cap + 1]]
    return rng.choice([b for b in range(2, len(depths)) if depths[b - 1] == depths[b]])


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
@pytest.mark.parametrize("letter,n", [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("G", 2)])
def test_class_table_matches_reference(letter, n, quotient):
    # labelled mode finds most children by its per-class table; every draw
    # has a random orientation, relabelling and 0..n frozen rows
    rng = random.Random(f"table-{letter}{n}-{quotient}")
    for _ in range(2):
        seed = Seed.initial(random_dynkin_matrix(rng, letter, n))
        # a labelled rank-5 closure has thousands of seeds: walk those to depth 4
        depth = 4 if n == 5 and not quotient else rng.randint(2, 4)
        cut = ExplorationLimits(max_depth=depth, max_seeds=100000)
        _assert_matches_reference(seed, cut, quotient)
        budget = _mid_level_budget(rng, explore(seed, cut, quotient_permutations=quotient), 300)
        _assert_matches_reference(seed, ExplorationLimits(max_depth=64, max_seeds=budget), quotient)
        if n < 5 or quotient:
            _assert_matches_reference(seed, WIDE, quotient)


# a hand-built D4 seed whose mutable entries repeat in pairs: recording a seen
# child's direction without the distinct-labels guard loses 5 of its 55
# quotient classes
D4_PAIRED = ((0, 0, 1, 0), (0, 0, -1, 0), (-1, 1, 0, 1), (0, 0, -1, 0))


def test_exchange_memo_on_repeated_entries():
    # Hand-built seeds whose cluster entries repeat (a specialisation of the
    # initial variables): an exchange then depends on how often an entry
    # occurs in the exchange relation and with which exponent, which the
    # memo key must keep; and a quotient key is no longer a complete
    # invariant of its class, which the one-end edge walk must respect.
    B = ExchangeMatrix([[0, 1, 0], [-1, 0, -1], [0, 1, 0], [-1, 0, 0]], SeedProfile(3, 3, 4))
    x1 = LaurentPoly.variable(4, 1)
    seed = Seed(B, [x1] * 4, ())
    assert explore_reference(seed, WIDE).seeds_found == 84
    x = [LaurentPoly.variable(4, i) for i in (1, 2)]
    paired = Seed(ExchangeMatrix(D4_PAIRED, SeedProfile(4, 4, 4)), [x[1], x[1], x[0], x[0]], ())
    assert explore_reference(paired, WIDE, True).seeds_found == 55
    # x2 fills two mutable places: the seeds that keep both copies are keyed
    # on (rows, labels), the labelled ones that lose one on their class
    x2, x4 = LaurentPoly.variable(4, 2), LaurentPoly.variable(4, 4)
    a3_frozen = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0], [1, 1, -1]], SeedProfile(3, 3, 4))
    mixed = Seed(a3_frozen, [x2, x1, x2, x4], ())
    report = explore(mixed, WIDE)
    assert report.seeds_found == 84
    assert sum(len(set(s.mutable_entries())) < 3 for s in report.seeds) == 24
    for quotient in (False, True):
        _assert_matches_reference(seed, WIDE, quotient)
        _assert_matches_reference(paired, WIDE, quotient)
        _assert_matches_reference(mixed, WIDE, quotient)
        _assert_matches_reference(mixed, ExplorationLimits(max_depth=3, max_seeds=50), quotient)
        rng = random.Random(f"memo-repeated-{quotient}" if quotient else "memo-repeated")
        for letter, n, draws in (("A", 2, 12), ("A", 3, 12), ("B", 3, 12), ("A", 4, 4), ("D", 4, 4)):
            for _ in range(draws):
                B = random_dynkin_matrix(rng, letter, n)
                m = B.profile.m
                pool = rng.randint(1, m)
                cluster = [LaurentPoly.variable(m, rng.randint(1, pool)) for _ in range(m)]
                _assert_matches_reference(Seed(B, cluster, ()), WIDE, quotient)


D4_ROWS = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
A4_FROZEN4_ROWS = [
    [0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0],
    [1, 0, 0, 0], [0, -1, 0, 1], [1, 1, 0, -1], [0, 0, 1, 1],
]


def test_a4_frozen4_labelled_golden():
    # the report and the seeds' words in discovery order, one word per line
    B = ExchangeMatrix(A4_FROZEN4_ROWS, SeedProfile(4, 4, 8))
    report = explore(Seed.initial(B), WIDE)
    payload = {"report": report.to_json(), "words": [",".join(map(str, s.word)) for s in report.seeds]}
    golden = Path(__file__).parent / "golden" / "a4_frozen4_explore.json"
    assert json.dumps(payload, indent=1, sort_keys=True) + "\n" == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
@pytest.mark.parametrize(
    "rows,seeds_found,solves",
    [(D4_ROWS, (1200, 50), 52), (A4_FROZEN4_ROWS, (1008, 42), 35)],
    ids=["D4", "A4-4-frozen"],
)
def test_each_exchange_relation_is_solved_once(monkeypatch, rows, seeds_found, solves, quotient):
    # one seed_mutate per unordered exchange relation: a solve also stores the
    # reverse relation, so the walk never solves its inverse; without the
    # reverse entry labelled D4 takes 104 solves and the frozen A4 70
    module = sys.modules["clusterkit.explore"]
    calls = []
    solve = module.seed_mutate

    def counted(s, k):
        calls.append(k)
        return solve(s, k)

    monkeypatch.setattr(module, "seed_mutate", counted)
    B = ExchangeMatrix(rows, SeedProfile(4, 4, len(rows)))
    report = explore(Seed.initial(B), WIDE, quotient_permutations=quotient)
    assert report.frontier_exhausted_reason == "closure"
    assert report.seeds_found == seeds_found[quotient]
    assert len(calls) == solves


def test_root_with_a_word_explores_its_parent_direction(a3_seed):
    # only seeds found by this call skip the last letter of their word
    root = apply_word(a3_seed, (1,))
    report = explore(root, ExplorationLimits(max_depth=1, max_seeds=100))
    assert report.seeds_found == 3 + 1
    assert a3_seed in report.seeds
    assert [s.word for s in report.seeds] == [(1,), (1, 1), (1, 2), (1, 3)]


def _dynkin_draw(letter, n):
    return random_dynkin_matrix(random.Random(f"edges-{letter}{n}"), letter, n)


@pytest.mark.parametrize(
    "B,quotient,most_hit",
    [
        (_dynkin_draw("A", 3), False, False),
        (_dynkin_draw("B", 3), False, False),
        (_dynkin_draw("G", 2), False, None),
        (ExchangeMatrix(D4_ROWS, SeedProfile(4, 4, 4)), False, True),
        (ExchangeMatrix(A4_FROZEN4_ROWS, SeedProfile(4, 4, 8)), False, True),
        (ExchangeMatrix(D4_ROWS, SeedProfile(4, 4, 4)), True, None),
    ],
    ids=["A3", "B3", "G2", "D4", "A4-4-frozen", "D4-quotient"],
)
def test_each_edge_is_walked_once(monkeypatch, B, quotient, most_hit):
    # A child is built by a solve (seed_mutate) or by rows-only mutation.
    # Walking each edge of a closed exchange graph from one end builds n/2
    # children per seed, where skipping only the parent builds (n - 1) per
    # seed, plus one.  In labelled mode a seed whose relabelling class was
    # already mutated in a direction finds its child by table lookup and
    # builds it only when it is new, so there the walk builds fewer: at
    # least one child per seed but the root.  The quotient has no table,
    # and each labelled G2 class holds one seed, so neither has a hit
    # (most_hit None); in labelled D4 and A4-4-frozen about 24 seeds share
    # a class, so most walked edges are hits (most_hit True).
    module = sys.modules["clusterkit.explore"]
    built = []
    for name in ("seed_mutate", "_mutated_rows"):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: built.append(args) or real(*args))
    report = explore(Seed.initial(B), WIDE, quotient_permutations=quotient)
    assert report.frontier_exhausted_reason == "closure"
    half_edges = B.profile.n * report.seeds_found / 2
    if most_hit is None:
        assert len(built) == half_edges
        return
    assert report.seeds_found - 1 <= len(built) < half_edges
    if most_hit:
        assert len(built) <= 0.6 * half_edges
