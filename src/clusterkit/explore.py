"""Breadth-first exploration of the exchange graph with deduplication.

Seeds are expanded level by level in discovery order, children generated
in direction order 1..n, so two runs with the same limits produce the
same report.

Labels.  One explore call gives each distinct cluster entry a small int
label, the first time the value is seen (the root's entries, then each
newly solved x_k'), and every seed in the frontier carries its tuple of
labels.  Labels are injective on values, so the walk keys everything on
ints and tuples of ints instead of on LaurentPoly terms.  The extended
cluster of a seed is a free generating set of the ambient field
(Fomin-Zelevinsky, Cluster algebras I, 2002), so its entries, and hence a
seed's labels, are pairwise distinct; explore refuses a seed that breaks
this (see explore).

* Classes.  A seed's class is its quotient key (see _quotient_key): the
  seed relabelled so that its mutable labels are sorted, numbered per
  call in order of first sight.  Two seeds share a class exactly when
  they differ by a simultaneous permutation of the mutable indices.
* Dedup.  With quotient_permutations a seed is keyed on its class id;
  otherwise on (class id, labels), as the labels fix the permutation that
  undoes the sort, so the key determines the matrix and the cluster.
* Class table.  Mutation commutes with simultaneous relabelling of the
  mutable indices, mu_sigma(k)(sigma s) = sigma mu_k(s) (Fomin-Zelevinsky,
  Cluster algebras I), and the members of a class carry the same labels
  (the key holds the sorted mutable labels, and frozen entries never
  change), so the mutation of a seed at the index carrying label l
  depends only on its class and l: the child's class, and x_k' and its
  label.  One dict per class, keyed by l, holds that for each mutation
  walked so far.  A miss fills the entry and its reverse: mu_k(child) is
  s, so at the child's class the label of x_k' maps to s's class, x_k
  and its label.  A hit builds only the child's labels and looks up its
  key; relabelling keeps labels distinct, so no hit repeats an entry.
* Each edge once.  mu_k is an involution, so the other end of a walked
  edge finds it in the table as a hit whose key is seen, and mutates
  nothing.  Each class is thus mutated once per direction.
* Exchange memo.  A table miss still looks the exchange relation up.  By
  the exchange relation x_k * x_k' = M1 + M2, the new entry x_k' is a
  function of x_k and of the set {(x_i, b_ik) : b_ik != 0} over all m
  rows, frozen ones included: M1 and M2 are the products of x_i^|b_ik|
  over the positive and the negative b_ik.  The memo key is the label of
  x_k plus the sorted tuple of (label of x_i, b_ik), so equal keys mean
  equal relations and the memo is exact.  A miss runs seed_mutate with
  all its checks; a hit reuses the entry it found.  Mutation negates
  column k, and b_kk = 0 in the (valid) matrix of every Seed, so the
  child's relation at k is x_k' against {(x_i, -b_ik)}: M1 and M2 swap,
  and it solves to x_k.  A solve stores that relation too, and the walk
  never solves an exchange twice.

A child's rows and labels are computed first, or its labels alone on a
table hit, and its Seed (and matrix) is built only when its key is new.
A skipped child would have been a duplicate, and duplicates are dropped
before the budget is checked, so none of this changes the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .laurent import LaurentPoly, render_poly
from .seeds import InvalidSeed, Seed, _exchanged, _mutated_rows, _require_int, seed_mutate


@dataclass(frozen=True)
class ExplorationLimits:
    max_depth: int = 6
    max_seeds: int = 10000

    def __post_init__(self):
        # no coercion: max_depth=1.5 never equals a depth and would run to closure
        _require_int(self.max_depth, "max_depth")
        _require_int(self.max_seeds, "max_seeds")
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        if self.max_seeds < 1:
            raise ValueError("max_seeds must be positive")


@dataclass(frozen=True)
class ExplorationReport:
    """What a bounded walk over the exchange graph found.

    distinct_variables collects mutable cluster entries only, sorted
    structurally; distinct_clusters are the unordered n-subsets they form,
    and cluster_indices, in the same order, the ascending positions of
    each cluster's entries in distinct_variables.  finite is True exactly
    when the walk closed before hitting a limit.
    """

    seeds_found: int
    distinct_variables: tuple[LaurentPoly, ...]
    distinct_clusters: tuple[frozenset, ...]
    cluster_indices: tuple[tuple[int, ...], ...]
    finite: bool
    frontier_exhausted_reason: str  # "depth" | "budget" | "closure"
    seeds: tuple[Seed, ...]

    def to_json(self) -> dict:
        return {
            "seeds_found": self.seeds_found,
            "variables": [render_poly(v) for v in self.distinct_variables],
            "clusters": [list(ix) for ix in self.cluster_indices],
            "finite": self.finite,
            "reason": self.frontier_exhausted_reason,
        }


def _quotient_key(rows: tuple, labels: tuple, n: int):
    """Dedup key up to simultaneous permutation of the mutable indices.

    The mutable indices are sorted by label, and the rows and columns of
    the matrix are permuted to match; frozen entries never change, so
    their labels are left out.  The key is itself a relabelling of the
    seed, so it never identifies two seeds that are not equivalent, and
    with pairwise distinct labels the sort is a complete invariant: two
    equivalent seeds get the same key.
    """
    if n == 1:
        return rows, labels  # the only permutation is the identity
    perm = sorted(range(n), key=labels.__getitem__)
    pick = itemgetter(*perm)
    return tuple(map(pick, pick(rows) + rows[n:])), pick(labels)


def explore(
    seed: Seed,
    limits: ExplorationLimits | None = None,
    *,
    quotient_permutations: bool = False,
) -> ExplorationReport:
    """BFS over seed mutation in all n directions, deduplicating seeds.

    Dedup is on structural (matrix, cluster) equality by default; with
    quotient_permutations the key additionally identifies seeds that
    differ by a simultaneous permutation of the mutable indices.  Each
    exchange relation is solved once per call, and the solve serves both
    directions; each relabelling class is mutated once per direction, and
    the other end of a walked edge is found by lookup (see the module
    docstring); the report is the one that mutating every seed in every
    direction gives.

    The entries of the extended cluster must be pairwise distinct, as they
    are for every seed reachable from Seed.initial: InvalidSeed is raised
    for a root that repeats an entry, and for a mutation whose new entry
    x_k' equals one already in its seed.
    """
    limits = limits or ExplorationLimits()
    n = seed.profile.n
    label = {}  # cluster value -> its int label in this call
    root_labels = tuple(label.setdefault(x, len(label)) for x in seed.cluster)
    if len(label) < len(root_labels):
        raise InvalidSeed("the extended cluster repeats an entry")
    classes = {}  # quotient key -> class id
    table = []  # class id -> {label of x_k: (the child's class id, x_k', its label)}

    def class_of(rows: tuple, labels: tuple) -> int:
        cid = classes.setdefault(_quotient_key(rows, labels, n), len(classes))
        if cid == len(table):
            table.append({})
        return cid

    root_cid = class_of(seed.matrix.entries, root_labels)
    seen = {root_cid if quotient_permutations else (root_cid, root_labels)}
    memo = {}  # exchange relation on labels -> (x_k', its label), see the module docstring
    level = [(seed, root_labels, root_cid)]
    found = list(level)  # every seed found, with its labels and class id, in discovery order
    depth = 0
    reason = "closure"

    while level:
        if depth == limits.max_depth:
            reason = "depth"
            break
        next_level = []
        for s, labels, cid in level:
            rows = s.matrix.entries
            moves = table[cid]
            for kk, lb in enumerate(labels[:n]):
                k = kk + 1
                move = moves.get(lb)
                child = child_rows = None
                if move is None:
                    support = [(other, row[kk]) for other, row in zip(labels, rows) if row[kk]]
                    relation = (lb, tuple(sorted(support)))
                    solved = memo.get(relation)
                    if solved is None:
                        child = seed_mutate(s, k)
                        entry = child.cluster[kk]
                        solved = memo[relation] = (entry, label.setdefault(entry, len(label)))
                        # the child's relation at k: x_k' against the negated column k
                        reverse = (solved[1], tuple(sorted((other, -b) for other, b in support)))
                        memo[reverse] = (s.cluster[kk], lb)
                        child_rows = child.matrix.entries
                    else:
                        child_rows = _mutated_rows(rows, kk)
                    if solved[1] in labels:
                        raise InvalidSeed(f"mutation at {k} repeats an entry of the extended cluster")
                    child_labels = labels[:kk] + (solved[1],) + labels[k:]
                    # mu_k maps s's class to the child's, and back at the label of x_k'
                    move = moves[lb] = (class_of(child_rows, child_labels), *solved)
                    table[move[0]][solved[1]] = (cid, s.cluster[kk], lb)
                else:
                    child_labels = labels[:kk] + (move[2],) + labels[k:]
                child_cid, entry, _ = move
                ck = child_cid if quotient_permutations else (child_cid, child_labels)
                if ck in seen:
                    continue  # includes every edge walked from its other end
                if len(seen) >= limits.max_seeds:
                    return _report(found, list(label), n, "budget")
                seen.add(ck)
                if child is None:
                    child = _exchanged(s, k, entry, child_rows or _mutated_rows(rows, kk))
                found.append((child, child_labels, child_cid))
                next_level.append(found[-1])
        level = next_level
        depth += 1

    return _report(found, list(label), n, reason)


def _report(found: list, values: list, n: int, reason: str) -> ExplorationReport:
    """The report on the seeds found, each with its labels, in discovery order,
    given the value of each label and the stop reason."""
    clusters = {frozenset(labels[:n]) for _, labels, _ in found}
    # sorted's key is computed once per item: one sort key per variable
    ranked = sorted({lb for cl in clusters for lb in cl}, key=lambda lb: values[lb].sort_key())
    variables = tuple(values[lb] for lb in ranked)
    place = {lb: i for i, lb in enumerate(ranked)}  # labels in the variables' order
    indices = sorted(tuple(sorted(map(place.__getitem__, cl))) for cl in clusters)
    return ExplorationReport(
        seeds_found=len(found),
        distinct_variables=variables,
        distinct_clusters=tuple(frozenset(variables[i] for i in ix) for ix in indices),
        cluster_indices=tuple(indices),
        finite=reason == "closure",
        frontier_exhausted_reason=reason,
        seeds=tuple(s for s, *_ in found),
    )
