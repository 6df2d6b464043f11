"""Breadth-first exploration of the exchange graph with deduplication.

Seeds are expanded level by level in discovery order, children generated
in direction order 1..n, so two runs with the same limits produce the
same report.

Labels.  One explore call gives each distinct cluster entry a small int
label, the first time the value is seen (the root's entries, then each
newly solved x_k'), and every seed in the frontier carries its tuple of
labels.  Labels are injective on values, so the walk keys everything on
ints and tuples of ints instead of on LaurentPoly terms:

* Dedup.  Two seeds are equal exactly when (matrix entries, labels) are.
  In labelled mode a seed whose mutable labels are pairwise distinct, as
  every seed reachable from Seed.initial has, is keyed on (class id,
  labels) instead: its class is its quotient key (below), numbered in
  order of first sight, and the labels fix the sorting permutation, so
  the rows are that permutation undone on the class's rows and the two
  keys match the same seeds.  A seed with a repeated mutable label keeps
  the (rows, labels) key.  With quotient_permutations the mutable indices
  are sorted by label and the matrix is permuted to match (see
  _quotient_key).
* Exchange memo.  By the exchange relation x_k * x_k' = M1 + M2
  (Fomin-Zelevinsky, Cluster algebras I, 2002), the new entry x_k' is a
  function of x_k and of the multiset {(x_i, b_ik) : b_ik != 0} over all m
  rows, frozen ones included: M1 and M2 are the products of x_i^|b_ik| over
  the positive and the negative b_ik.  The memo key is the label of x_k
  plus the sorted tuple of (label of x_i, b_ik), so equal keys mean equal
  relations and the memo is exact.  The key is a sorted tuple and not a
  set because a hand-built seed may repeat an entry, which then counts
  twice in M1 or M2.  A miss runs seed_mutate with all its checks; a hit
  reuses the entry it found.
* The reverse relation.  Mutation negates column k, and b_kk = 0 in the
  (valid) matrix of every Seed, so the child's relation at k is x_k' against
  {(x_i, -b_ik)}: M1 and M2 swap, and it solves to x_k.  A miss stores
  that relation too, and the walk never solves an exchange twice.
* Each edge once.  mu_k is an involution, so an edge of the exchange graph
  needs to be walked from one end only.  Each seen key holds the set of
  directions already known to lead to a seen seed, recorded by their
  position in the key's canonical order: the rank the label sort gives
  the index, or the index itself for the (rows, labels) key.  A new
  child c found from s at k starts with the position of k, as mu_k(c) = s;
  a child whose key is already seen adds its position of k to that key's
  set; and a seed is not mutated in the directions of its set.  Recording
  on a seen key is exact in labelled mode.  In quotient mode the seed with
  that key may be another member of the child's class, whose mutation at
  that position gives a relabelling of s, which has s's key only when s's
  mutable labels are pairwise distinct (see _quotient_key); the walk
  records there only then, as it always can for seeds reachable from
  Seed.initial.  The root starts with no direction: a caller may pass a
  seed with a non-empty word whose parent was never seen.
* Class table.  Mutation commutes with simultaneous relabelling of the
  mutable indices, mu_sigma(k)(sigma s) = sigma mu_k(s) (Fomin-Zelevinsky,
  Cluster algebras I), so in labelled mode the mutation of a class-keyed
  seed at the index in position p of its class depends only on the class
  and p: the child's class, x_k' and its label, and the position of k in
  the child's key (k moves from p to that position, and the indices in
  between shift by one, as only k's label changed).  A per-call table
  holds that for each (class, position) walked so far, and for the
  reverse step, which the child's class takes at k's new position back
  to s's class and x_k.  A hit builds only the child's labels and looks
  up its key; a miss takes the exchange memo path above and fills the
  table.

A child's rows and labels are computed first, or its key alone on a table
hit, and its Seed (and matrix) is built only when its key is new.  A
skipped child would have been a duplicate, and duplicates are dropped
before the budget is checked, so none of this changes the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .laurent import LaurentPoly, render_poly
from .seeds import Seed, _exchanged, _mutated_rows, _require_int, seed_mutate


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
    structurally; distinct_clusters are the unordered n-subsets they form.
    finite is True exactly when the walk closed before hitting a limit.
    """

    seeds_found: int
    distinct_variables: tuple[LaurentPoly, ...]
    distinct_clusters: tuple[frozenset, ...]
    finite: bool
    frontier_exhausted_reason: str  # "depth" | "budget" | "closure"
    seeds: tuple[Seed, ...]

    def to_json(self) -> dict:
        texts = [render_poly(v) for v in self.distinct_variables]
        index = {v: i for i, v in enumerate(self.distinct_variables)}
        clusters = [sorted(index[v] for v in cl) for cl in self.distinct_clusters]
        return {
            "seeds_found": self.seeds_found,
            "variables": texts,
            "clusters": clusters,
            "finite": self.finite,
            "reason": self.frontier_exhausted_reason,
        }


def _quotient_key(rows: tuple, labels: tuple, n: int):
    """Dedup key up to simultaneous permutation of the mutable indices.

    The mutable indices are sorted by label, and the rows and columns of
    the matrix are permuted to match; frozen entries never change, so
    their labels are left out.  The key is itself a relabelling of the
    seed, so it never identifies two seeds that are not equivalent.
    Labels order values by first sight, not by LaurentPoly.sort_key, but
    the partition is the same: two equivalent seeds have the same
    multiset of values, and a stable sort by any total order on values
    puts them into the same blocks of equal values, in index order inside
    a block; another order only rearranges whole blocks, the same way for
    both seeds.  The extended cluster of a seed reachable from
    Seed.initial is a free generating set of the ambient field, so its
    entries are pairwise distinct and every equivalent pair gets the same
    key.

    Returns the key and each mutable index's position in it, its rank in
    the sort.
    """
    if n == 1:
        return (rows, labels), range(1)  # the only permutation is the identity
    perm = sorted(range(n), key=labels.__getitem__)
    pick = itemgetter(*perm)
    key = tuple(map(pick, pick(rows) + rows[n:])), pick(labels)
    return key, sorted(range(n), key=perm.__getitem__)


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
    directions; each edge of the exchange graph is walked from one end
    only, and in labelled mode each relabelling class is mutated once per
    direction (see the module docstring); the report is the one that
    mutating every seed in every direction gives.
    """
    limits = limits or ExplorationLimits()
    n = seed.profile.n
    classes = {}  # labelled mode: quotient key -> class id
    table = []  # class id -> per position, the child's (class id, x_k', its label, position of k) or None

    def key(rows: tuple, labels: tuple):
        """A seed's dedup key, each mutable index's position in it, and its class id or None."""
        if quotient_permutations:
            return *_quotient_key(rows, labels, n), None
        if len(set(labels[:n])) < n:
            return (rows, labels), range(n), None  # the labels do not fix a relabelling
        qkey, rank = _quotient_key(rows, labels, n)
        cid = classes.setdefault(qkey, len(classes))
        if cid == len(table):
            table.append([None] * n)
        return (cid, labels), rank, cid

    label = {}  # cluster value -> its int label in this call
    root_labels = tuple(label.setdefault(x, len(label)) for x in seed.cluster)
    root_key, root_rank, root_cid = key(seed.matrix.entries, root_labels)
    seen = {root_key: set()}  # key -> positions of the directions known to lead to a seen seed
    memo = {}  # exchange relation on labels -> (x_k', its label), see the module docstring
    level = [(seed, root_labels, root_rank, seen[root_key], root_cid)]
    found = list(level)  # every seed found, with its labels, in discovery order
    depth = 0
    reason = "closure"

    while level:
        if depth == limits.max_depth:
            reason = "depth"
            break
        next_level = []
        for s, labels, rank, done, cid in level:
            rows = s.matrix.entries
            # with repeated mutable labels a relabelling of s may have another quotient key
            exact = not quotient_permutations or len(set(labels[:n])) == n
            moves = None if cid is None else table[cid]
            for kk in range(n):
                p = rank[kk]  # the position of k in s's key
                if p in done:
                    continue  # this edge was walked from its other end
                k = kk + 1
                move = moves and moves[p]
                child = child_rows = None
                if move:
                    child_cid, entry, entry_label, at = move
                    child_labels = labels[:kk] + (entry_label,) + labels[k:]
                    ck = (child_cid, child_labels)
                else:
                    support = [(lb, row[kk]) for lb, row in zip(labels, rows) if row[kk]]
                    relation = (labels[kk], tuple(sorted(support)))
                    solved = memo.get(relation)
                    if solved is None:
                        child = seed_mutate(s, k)
                        entry = child.cluster[kk]
                        solved = memo[relation] = (entry, label.setdefault(entry, len(label)))
                        # the child's relation at k: x_k' against the negated column k
                        reverse = (solved[1], tuple(sorted((lb, -b) for lb, b in support)))
                        memo[reverse] = (s.cluster[kk], labels[kk])
                        child_rows = child.matrix.entries
                    else:
                        child_rows = _mutated_rows(rows, kk)
                    entry, entry_label = solved
                    child_labels = labels[:kk] + (entry_label,) + labels[k:]
                    ck, child_rank, child_cid = key(child_rows, child_labels)
                    at = child_rank[kk]  # the position of k in the child's key
                    if cid is not None and child_cid is not None:
                        # mu at p maps s's class to the child's, and mu at `at` back
                        moves[p] = (child_cid, entry, entry_label, at)
                        table[child_cid][at] = (cid, s.cluster[kk], labels[kk], p)
                known = seen.get(ck)
                if known is not None:
                    if exact:
                        known.add(at)  # mu_k of the child is s, which is seen
                    continue
                if len(seen) >= limits.max_seeds:
                    return _report(found, list(label), n, "budget")
                seen[ck] = known = {at}
                if move:
                    # k moves from position p to position at, the indices between shift by one
                    child_rank = [q + (at <= q < p) - (p < q <= at) for q in rank]
                    child_rank[kk] = at
                if child is None:
                    child = _exchanged(s, k, entry, child_rows or _mutated_rows(rows, kk))
                found.append((child, child_labels, child_rank, known, child_cid))
                next_level.append(found[-1])
        level = next_level
        depth += 1

    return _report(found, list(label), n, reason)


def _report(found: list, values: list, n: int, reason: str) -> ExplorationReport:
    """The report on the seeds found, each with its labels, in discovery order,
    given the value of each label and the stop reason."""
    clusters = {frozenset(labels[:n]) for _, labels, _, _, _ in found}
    keys = {lb: values[lb].sort_key() for cl in clusters for lb in cl}  # one sort key per variable
    variables = sorted(keys, key=keys.__getitem__)
    place = {lb: i for i, lb in enumerate(variables)}  # labels in the variables' order
    ordered = sorted(clusters, key=lambda cl: sorted(map(place.__getitem__, cl)))
    return ExplorationReport(
        seeds_found=len(found),
        distinct_variables=tuple(values[lb] for lb in variables),
        distinct_clusters=tuple(frozenset(values[lb] for lb in cl) for cl in ordered),
        finite=reason == "closure",
        frontier_exhausted_reason=reason,
        seeds=tuple(s for s, *_ in found),
    )
