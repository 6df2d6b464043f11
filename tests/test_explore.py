"""Explorer tests: closure detection, dedup, determinism, Laurent checks, exchange memo."""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

from clusterkit.analysis import laurent_membership
from clusterkit.explore import ExplorationLimits, _quotient_key, explore
from clusterkit.laurent import LaurentPoly, exact_div, render_poly
from clusterkit.presets import a3_matrix
from clusterkit.seeds import InvalidSeed, Seed, ExchangeMatrix, SeedProfile, apply_word, parse_matrix
from oracles import explore_reference, permutation_key_bruteforce, positive_roots, random_dynkin_matrix, rank2_matrix

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


# Finite type (Fomin-Zelevinsky, Cluster algebras II, 2003): the cluster
# variables are the n initial ones and one per positive root, and the
# clusters are counted by the generalized Catalan numbers of the root system.
def _closure_counts(letter: str, n: int) -> tuple[int, int]:
    """(cluster variables, clusters) of the finite type letter_n."""
    exceptional = {("E", 6): (42, 833), ("F", 4): (28, 105), ("G", 2): (8, 8)}
    if letter == "A":
        return n * (n + 3) // 2, math.comb(2 * n + 2, n + 1) // (n + 2)
    if letter in "BC":
        return n * (n + 1), math.comb(2 * n, n)
    if letter == "D":
        return n * n, (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
    return exceptional[letter, n]


FINITE_TYPES = (
    [("A", n) for n in range(1, 7)]
    + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(3, 7)]
    + [("D", n) for n in range(4, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("letter,n", FINITE_TYPES, ids=[f"{letter}{n}" for letter, n in FINITE_TYPES])
def test_finite_type_closures_match_the_theorems(letter, n):
    # every draw has a random orientation, relabelling and 0..n frozen rows,
    # none of which changes the exchange graph of a finite type; every
    # coefficient is positive (Lee-Schiffler 2015, Gross-Hacking-Keel-Kontsevich
    # 2018); and the denominator vectors of the non-initial variables of an
    # acyclic seed are the positive roots of the Cartan companion of its
    # principal part, a_ii = 2 and a_ij = -|b_ij| (Fomin-Zelevinsky 2003,
    # Caldero-Keller 2006), so the drawn matrix itself gives the roots
    variables, clusters = _closure_counts(letter, n)
    if n == 1:
        # random_dynkin_matrix can draw m = 1 for A1, which is no valid seed
        matrices = [parse_matrix("1 2 2\n0; 1"), parse_matrix("1 3 3\n0; 1; -1")]
    else:
        rng = random.Random(f"theorems-{letter}{n}")
        matrices = [random_dynkin_matrix(rng, letter, n) for _ in range(2)]
    for matrix in matrices:
        seed = Seed.initial(matrix)
        cartan = [[2 if i == j else -abs(b) for j, b in enumerate(row)] for i, row in enumerate(matrix.entries[:n])]
        roots = positive_roots(cartan)
        for quotient in (True, False) if n <= 4 else (True,):
            report = explore(seed, WIDE, quotient_permutations=quotient)
            assert report.finite
            assert len(report.distinct_variables) == variables
            assert len(report.distinct_clusters) == clusters
            assert all(c > 0 for v in report.distinct_variables for _, c in v.terms)
            denominators = {
                tuple(-e for e in v.min_exponents()[:n])
                for v in report.distinct_variables
                if v not in seed.cluster[:n]
            }
            assert denominators == roots


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


def test_report_computes_one_sort_key_per_variable(a3_seed, monkeypatch):
    # the report sorted a dict built over every (cluster, entry) pair: 14 * 3 sort keys for 9 variables
    calls = []
    sort_key = LaurentPoly.sort_key
    monkeypatch.setattr(LaurentPoly, "sort_key", lambda p: calls.append(p) or sort_key(p))
    for quotient in (False, True):
        calls.clear()
        report = explore(a3_seed, WIDE, quotient_permutations=quotient)
        assert len(calls) == len(report.distinct_variables) == 9


def test_report_json_hashes_no_variable(a3_seed, monkeypatch):
    # to_json read each cluster's positions from a dict keyed by the variables,
    # which rehashed every cluster entry
    report = explore(a3_seed, WIDE, quotient_permutations=True)
    data = report.to_json()

    def refuse(p):
        raise AssertionError("to_json hashed a LaurentPoly")

    with monkeypatch.context() as patch:
        patch.setattr(LaurentPoly, "__hash__", refuse)
        assert report.to_json() == data
    # the positions name each cluster's entries, in the clusters' order
    clusters = [frozenset(report.distinct_variables[i] for i in ix) for ix in report.cluster_indices]
    assert clusters == list(report.distinct_clusters)


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
    # infinite types and cyclic orientations, cut at depths 3 to 5: Markov,
    # cyclic A3, affine A(2,1), wild (2,3) with a frozen row and Kronecker
    # with two frozen rows
    for text in (
        "3 3 3\n0 2 -2; -2 0 2; 2 -2 0",
        "3 3 3\n0 1 -1; -1 0 1; 1 -1 0",
        "3 3 3\n0 1 1; -1 0 1; -1 -1 0",
        "2 2 3\n0 2; -3 0; 1 -1",
        "2 2 4\n0 2; -2 0; 1 0; -1 1",
    ):
        seed = Seed.initial(parse_matrix(text))
        for depth in (3, 4, 5):
            _assert_matches_reference(seed, ExplorationLimits(max_depth=depth, max_seeds=100000), quotient)
    # hand-built entries that are not free: mu_1 of this root has a degenerate
    # exchange at 2, and the error must name direction 2
    x = lambda *e: LaurentPoly.monomial(5, e + (0, 0, 0))
    B = parse_matrix("3 3 5\n0 1 0; -1 0 1; 0 -1 0; 1 0 1; -1 1 1")
    _assert_matches_reference(Seed(B, [x(-1, 1), x(1, 1), x(-1, 0), x(1, 0), x(-1, -1)], ()), WIDE, quotient)


def test_report_seeds_are_values(a3_seed):
    # report.seeds keeps the walk's records and builds a seed at each read:
    # reports of one walk compare and hash equal, and so does the tuple of the seeds
    root = apply_word(a3_seed, (2,))
    report = explore(root, WIDE)
    again = explore(root, WIDE)
    seeds = tuple(report.seeds)
    assert report == again and hash(report) == hash(again)
    assert report.seeds == seeds and seeds == report.seeds and hash(report.seeds) == hash(seeds)
    assert report.seeds != seeds[:-1] and report.seeds != list(seeds)[::-1]
    assert report.seeds[0] is root and seeds[0] is root
    assert len(report.seeds) == report.seeds_found == 84
    assert [s.word for s in report.seeds[-3:]] == [s.word for s in seeds[-3:]]
    assert report.seeds[-1] == seeds[83] and report.seeds[-1].word == seeds[83].word
    assert report.seeds[5:40:7] == seeds[5:40:7] and report.seeds[::-1] == seeds[::-1]
    assert report.seeds[1] == report.seeds[1] and report.seeds[1] is not report.seeds[1]  # nothing is cached
    assert report.seeds.index(seeds[50]) == 50 and seeds[50] in report.seeds
    with pytest.raises(IndexError):
        report.seeds[84]
    with pytest.raises(IndexError):
        report.seeds[-85]
    with pytest.raises(AttributeError):
        report.seeds._records = ()


def _mid_level_budget(rng, report, cap):
    """A seed budget at most cap that stops a walk between two seeds of one level."""
    depths = [len(s.word) for s in report.seeds[: cap + 1]]
    return rng.choice([b for b in range(2, len(depths)) if depths[b - 1] == depths[b]])


@pytest.mark.parametrize("quotient", [False, True], ids=["labelled", "quotient"])
@pytest.mark.parametrize("letter,n", [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("G", 2)])
def test_class_table_matches_reference(letter, n, quotient):
    # both modes find a walked edge's other end, and labelled mode most
    # children, by the per-class table; every draw has a random orientation,
    # relabelling and 0..n frozen rows
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


def test_explore_rejects_repeated_entries():
    # Hand-built seeds whose extended cluster repeats an entry (a
    # specialisation of the initial variables) are not seeds of a cluster
    # algebra, whose clusters are free generating sets; the class table
    # and the dedup keys assume distinct entries, so explore refuses them.
    x1, x2, x4 = (LaurentPoly.variable(4, i) for i in (1, 2, 4))
    all_x1 = Seed(ExchangeMatrix([[0, 1, 0], [-1, 0, -1], [0, 1, 0], [-1, 0, 0]], SeedProfile(3, 3, 4)), [x1] * 4, ())
    paired = Seed(
        ExchangeMatrix([[0, 0, 1, 0], [0, 0, -1, 0], [-1, 1, 0, 1], [0, 0, -1, 0]], SeedProfile(4, 4, 4)),
        [x2, x2, x1, x1],
        (),
    )
    a3_frozen = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0], [1, 1, -1]], SeedProfile(3, 3, 4))
    mixed = Seed(a3_frozen, [x2, x1, x2, x4], ())
    # distinct entries whose first mutation repeats one: x1' = (1 + x2) / (1 + x2^-1) = x2
    one_plus_inverse = LaurentPoly.const(2, 1) + LaurentPoly.monomial(2, (0, -1))
    rank2 = ExchangeMatrix([[0, 1], [-1, 0]], SeedProfile(2, 2, 2))
    collapsing = Seed(rank2, [one_plus_inverse, LaurentPoly.variable(2, 2)], ())
    assert explore(collapsing, ExplorationLimits(max_depth=0)).seeds_found == 1
    for quotient in (False, True):
        for root in (all_x1, paired, mixed):
            with pytest.raises(InvalidSeed, match="the extended cluster repeats an entry"):
                explore(root, WIDE, quotient_permutations=quotient)
        with pytest.raises(InvalidSeed, match="mutation at 1 repeats an entry"):
            explore(collapsing, WIDE, quotient_permutations=quotient)


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
    # reverse entry D4 takes 55 solves in both modes
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
    "B,quotient,seeds_found,solves,row_mutations,quotient_keys",
    [
        (_dynkin_draw("A", 3), False, 84, 15, 6, 22),
        (_dynkin_draw("B", 3), False, 40, 22, 8, 31),
        (_dynkin_draw("G", 2), False, 8, 8, 0, 9),
        (ExchangeMatrix(D4_ROWS, SeedProfile(4, 4, 4)), False, 1200, 52, 48, 101),
        (ExchangeMatrix(A4_FROZEN4_ROWS, SeedProfile(4, 4, 8)), False, 1008, 35, 49, 85),
        (ExchangeMatrix(D4_ROWS, SeedProfile(4, 4, 4)), True, 50, 52, 48, 101),
    ],
    ids=["A3", "B3", "G2", "D4", "A4-4-frozen", "D4-quotient"],
)
def test_each_edge_is_walked_once(monkeypatch, B, quotient, seeds_found, solves, row_mutations, quotient_keys):
    # Only a class-table miss mutates or keys.  It looks the exchange
    # relation up in the memo: a memo miss builds the seed from its record
    # (_relabelled, the only Seed the walk builds) and solves it
    # (seed_mutate), a memo hit mutates the class's sorted rows alone
    # (_mutated_rows); either way it computes the child's quotient key
    # (_quotient_key, once more for the root).  A table hit builds only the
    # child's labels, and no Seed.  A miss fills the table at both ends of
    # the edge, keyed by class and the label of x_k, so the second end of an
    # edge is a lookup, and so is every other member of a class mutated in a
    # direction already walked.  A closed walk thus misses at most n/2 times
    # per seed: exactly that when each class holds one seed (G2 and the
    # quotient), far fewer in labelled D4 and A4-4-frozen, where about 24
    # seeds share a class.
    module = sys.modules["clusterkit.explore"]
    calls = {"seed_mutate": 0, "_relabelled": 0, "_mutated_rows": 0, "_quotient_key": 0}
    for name in calls:
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    report = explore(Seed.initial(B), WIDE, quotient_permutations=quotient)
    assert report.frontier_exhausted_reason == "closure"
    assert report.seeds_found == seeds_found
    assert calls == {
        "seed_mutate": solves,
        "_relabelled": solves,
        "_mutated_rows": row_mutations,
        "_quotient_key": quotient_keys,
    }
    assert quotient_keys - 1 <= B.profile.n * seeds_found / 2
