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
  depends only on its class and l: the child's class id and the label of
  x_k'.  One dict per class, keyed by l, holds that for each mutation
  walked so far.  A miss fills the entry and its reverse: mu_k(child) is
  s, so at the child's class the label of x_k' maps to s's class id and
  the label of x_k.  A hit builds only the child's labels and looks up
  its key; relabelling keeps labels distinct, so no hit repeats an entry.
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
  all its checks; a hit reuses the label it found.  Mutation negates
  column k, and b_kk = 0 in the (valid) matrix of every Seed, so the
  child's relation at k is x_k' against {(x_i, -b_ik)}: M1 and M2 swap,
  and it solves to x_k.  A solve stores that relation too, and the walk
  never solves an exchange twice.

Records.  A seed found is the record (labels, class id, word), and its
class's quotient key, kept by class id, holds the rest: the matrix is the
key's rows with the label sort undone, and the cluster is the values at
the labels (see _seed_at).  A table miss reads the relation off the key:
the label of x_k sits at some position rk of the sorted labels, and
column rk of the key's rows gives the support.  A memo hit mutates the
key's rows at rk to key the child's class; a solve builds the seed from
its record, the only Seed the walk builds, and runs seed_mutate on it at
k.  ExplorationReport.seeds keeps the records and builds a seed each time
one is read.  Duplicates are dropped before the budget is checked, so
none of this changes the report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import eq, itemgetter

from .laurent import LaurentPoly, render_poly
from .seeds import InvalidSeed, Seed, SeedProfile, _mutated_rows, _relabelled, _require_int, seed_mutate


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

    seeds are the seeds found, in discovery order.  Item 0 is the seed that
    was explored.  The others are stored as the walk's records, (labels,
    class id, word), next to each class's quotient key and the value of
    each label, and every read builds the Seed again: a permutation of the
    class's matrix rows and a tuple of values, some microseconds per seed.
    Nothing is cached, so a caller that reads the seeds more than once
    binds tuple(report.seeds).
    """

    seeds_found: int
    distinct_variables: tuple[LaurentPoly, ...]
    distinct_clusters: tuple[frozenset, ...]
    cluster_indices: tuple[tuple[int, ...], ...]
    finite: bool
    frontier_exhausted_reason: str  # "depth" | "budget" | "closure"
    seeds: Sequence[Seed]

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
        return rows, labels[:1]  # the only permutation is the identity
    perm = sorted(range(n), key=labels.__getitem__)
    pick = itemgetter(*perm)
    return tuple(map(pick, pick(rows) + rows[n:])), pick(labels)


def _seed_at(profile: SeedProfile, key: tuple, labels: tuple, values: Sequence, word: tuple) -> Seed:
    """The seed with these labels and word in the class with this quotient key:
    the key's rows with the label sort undone, and the values at the labels."""
    rows, sorted_labels = key
    n = profile.n
    if n > 1:  # with one mutable index the key holds the rows as they are
        # mutable index i of the seed is the rank of its label among the sorted ones
        pick = itemgetter(*map(sorted_labels.index, labels[:n]))
        rows = tuple(map(pick, pick(rows) + rows[n:]))
    return _relabelled(rows, profile, tuple(map(values.__getitem__, labels)), word)


class _FoundSeeds(Sequence):
    """The seeds an explore call found, in discovery order, read from its records.

    Item 0 is the root that was explored.  Item i > 0 is built by _seed_at
    from record i, (labels, class id, word), whenever it is read.  The
    sequence compares equal to any sequence of equal seeds, and hashes like
    the tuple of its seeds.
    """

    __slots__ = ("_root", "_records", "_class_keys", "_values")

    def __init__(self, root: Seed, records: tuple, keys: tuple, values: tuple):
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_records", records)  # (labels, class id, word) per seed
        object.__setattr__(self, "_class_keys", keys)  # class id -> quotient key
        object.__setattr__(self, "_values", values)  # label -> cluster value

    def __setattr__(self, name, value):
        raise AttributeError("the seeds of a report are immutable")

    def _seed(self, i: int) -> Seed:
        if not i:
            return self._root
        labels, cid, word = self._records[i]
        return _seed_at(self._root.profile, self._class_keys[cid], labels, self._values, word)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        picked = range(len(self._records))[index]  # negative indices, slices and range checks
        return tuple(map(self._seed, picked)) if isinstance(picked, range) else self._seed(picked)

    def __iter__(self):
        return map(self._seed, range(len(self._records)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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
    profile = seed.profile
    n = profile.n
    label = {}  # cluster value -> its int label in this call
    root_labels = tuple(label.setdefault(x, len(label)) for x in seed.cluster)
    if len(label) < len(root_labels):
        raise InvalidSeed("the extended cluster repeats an entry")
    values = list(label)  # label -> cluster value
    frozen = root_labels[n:]  # the frozen rows' labels, which a quotient key leaves out
    classes = {}  # quotient key -> class id
    keys = []  # class id -> its quotient key
    table = []  # class id -> {label of x_k: (the child's class id, the label of x_k')}

    def class_of(rows: tuple, labels: tuple) -> int:
        key = _quotient_key(rows, labels, n)
        cid = classes.setdefault(key, len(classes))
        if cid == len(table):
            keys.append(key)
            table.append({})
        return cid

    root_cid = class_of(seed.matrix.entries, root_labels)
    seen = {root_cid if quotient_permutations else (root_cid, root_labels)}
    memo = {}  # exchange relation on labels -> the label of x_k', see the module docstring
    level = [(root_labels, root_cid, seed.word)]
    found = list(level)  # every seed found, as (labels, class id, word), in discovery order
    depth = 0
    reason = "closure"

    while level:
        if depth == limits.max_depth:
            reason = "depth"
            break
        next_level = []
        for labels, cid, word in level:
            moves = table[cid]
            for kk, lb in enumerate(labels[:n]):
                k = kk + 1
                move = moves.get(lb)
                if move is None:
                    # the class's sorted form: the key's rows, with lb at position rk
                    rows, row_labels = keys[cid]
                    row_labels += frozen
                    rk = row_labels.index(lb)
                    support = [(other, row[rk]) for other, row in zip(row_labels, rows) if row[rk]]
                    relation = (lb, tuple(sorted(support)))
                    new = memo.get(relation)
                    if new is None:
                        child = seed_mutate(_seed_at(profile, keys[cid], labels, values, word), k)
                        entry = child.cluster[kk]
                        new = memo[relation] = label.setdefault(entry, len(label))
                        if new == len(values):
                            values.append(entry)
                        # the child's relation at k: x_k' against the negated column k
                        memo[new, tuple(sorted((other, -b) for other, b in support))] = lb
                        child_key = child.matrix.entries, labels[:kk] + (new,) + labels[k:]
                    else:
                        child_key = _mutated_rows(rows, rk), row_labels[:rk] + (new,) + row_labels[rk + 1:]
                    if new in labels:
                        raise InvalidSeed(f"mutation at {k} repeats an entry of the extended cluster")
                    # mu_k maps the class to the child's, and back at the label of x_k'
                    move = moves[lb] = (class_of(*child_key), new)
                    table[move[0]][new] = (cid, lb)
                child_cid, new = move
                child_labels = labels[:kk] + (new,) + labels[k:]
                ck = child_cid if quotient_permutations else (child_cid, child_labels)
                if ck in seen:
                    continue  # includes every edge walked from its other end
                if len(seen) >= limits.max_seeds:
                    return _report(seed, found, keys, values, "budget")
                seen.add(ck)
                found.append((child_labels, child_cid, word + (k,)))
                next_level.append(found[-1])
        level = next_level
        depth += 1

    return _report(seed, found, keys, values, reason)


def _report(root: Seed, found: list, keys: list, values: list, reason: str) -> ExplorationReport:
    """The report on the seeds found from root, as the walk's records in discovery
    order, given each class's quotient key, the value of each label and the stop reason."""
    n = root.profile.n
    clusters = {frozenset(labels[:n]) for labels, _, _ in found}
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
        seeds=_FoundSeeds(root, tuple(found), tuple(keys), tuple(values)),
    )
