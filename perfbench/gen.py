"""Seeded, stratified op generation and the independent expected answers.

Nothing here imports clusterkit: every expected answer comes from a closed
formula (finite-type counts), from index arithmetic on the rank-2 exchange
recurrence, or from identity-count formulas, so a wrong verdict from the
engine cannot also corrupt the expectation it is compared with.

A workload is a list of cells (kind and size class).  Round r of a run holds
exactly one op per cell, so every round has the same mix whatever the seed.
The seed draws a per-cell offset for the cost-relevant parameter, which then
cycles with r (frozen-row count, target index and upper-bound choice, chain
length), and the per-op parameters that leave the cost class alone
(orientation, relabelling, coefficient entries, Cartan matrices, op order).
Round r depends only on (workload, seed, r), so any prefix of the op stream
is reproducible.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, gcd
from random import Random

WORKLOADS = ("explore-closure", "membership", "certify")


# ---------------------------------------------------------------------------
# explore-closure: finite-type closure counts
# ---------------------------------------------------------------------------

# (type letter, rank, mode); A5 and D5 run only in quotient mode because
# their labelled closures take tens of seconds.  A3 appears twice so that the
# median op of a round (the 6th of 11 by cost) falls inside the A3 cell
# instead of in the gap between the B3/C3 and A3 costs.
EXPLORE_CELLS = (
    ("A", 2, "labelled"),
    ("B", 2, "labelled"),
    ("G", 2, "labelled"),
    ("A", 3, "labelled"),
    ("A", 3, "labelled"),
    ("B", 3, "labelled"),
    ("C", 3, "labelled"),
    ("A", 4, "labelled"),
    ("D", 4, "labelled"),
    ("A", 5, "quotient"),
    ("D", 5, "quotient"),
)


def finite_type_counts(letter: str, n: int) -> tuple[int, int]:
    """(cluster variables, clusters) of a finite-type cluster algebra.

    Fomin-Zelevinsky, Cluster algebras II (2003): the counts depend on the
    Cartan-Killing type only, not on coefficients or orientation.
    """
    if letter == "A":
        return n * (n + 3) // 2, comb(2 * n + 2, n + 1) // (n + 2)
    if letter in ("B", "C"):
        return n * (n + 1), comb(2 * n, n)
    if letter == "D":
        return n * n, (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    if letter == "G" and n == 2:
        return 8, 8
    raise ValueError(f"no finite-type count for {letter}{n}")


def cartan_edges(letter: str, n: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, |a_ij|, |a_ji|) of the Dynkin tree, 0-indexed."""
    if letter in ("A", "B", "C"):
        edges = [(i, i + 1, 1, 1) for i in range(n - 1)]
        if letter == "B":
            edges[-1] = (n - 2, n - 1, 2, 1)
        elif letter == "C":
            edges[-1] = (n - 2, n - 1, 1, 2)
        return edges
    if letter == "D":
        return [(i, i + 1, 1, 1) for i in range(n - 2)] + [(n - 3, n - 1, 1, 1)]
    if letter == "G" and n == 2:
        return [(0, 1, 1, 3)]
    raise ValueError(f"unknown Dynkin type {letter}{n}")


def exchange_rows(letter: str, n: int, frozen: int, rng: Random) -> list[list[int]]:
    """A random orientation and relabelling of the Dynkin tree, plus frozen rows.

    b_ij = s|a_ij| and b_ji = -s|a_ji| for a random sign s per edge, which
    is skew-symmetrizable by the Cartan symmetrizer.  Each frozen row has
    entries in {-1, 0, 1} and at least one nonzero, so every variable stays
    connected to the mutable part.
    """
    B = [[0] * n for _ in range(n)]
    for i, j, aij, aji in cartan_edges(letter, n):
        s = rng.choice((1, -1))
        B[i][j] = s * aij
        B[j][i] = -s * aji
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[B[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    for _ in range(frozen):
        row = [rng.choice((-1, 0, 1)) for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rng.choice((1, -1))
        rows.append(row)
    return rows


def matrix_text(n: int, rows: list[list[int]]) -> str:
    """clusterkit's matrix wire format, all coefficients invertible."""
    m = len(rows)
    return f"{n} {m} {m}\n" + "; ".join(" ".join(map(str, r)) for r in rows)


def _explore_round(offsets: list[int], r: int, rng: Random) -> list[dict]:
    ops = []
    for cell, (letter, n, mode) in enumerate(EXPLORE_CELLS):
        frozen = (offsets[cell] + r) % (n + 1)
        variables, clusters = finite_type_counts(letter, n)
        ops.append({
            "kind": "closure",
            "cell": f"{letter}{n}-{mode}-{cell}",
            "type": f"{letter}{n}",
            "quotient": mode == "quotient",
            "frozen": frozen,
            "matrix": matrix_text(n, exchange_rows(letter, n, frozen, rng)),
            "expect": {"variables": variables, "clusters": clusters, "finite": True, "reason": "closure"},
        })
    return ops


# ---------------------------------------------------------------------------
# membership: rank-2 affine index arithmetic
# ---------------------------------------------------------------------------

# Exchange matrix [[0, b], [-c, 0]]; the cluster variables x_1, x_2, x_3, ...
# satisfy x_{k-1} x_{k+1} = x_k^{e_k} + 1 with e_k = c for even k and b for
# odd k, and t_j = {x_j, x_{j+1}} is reached by the alternating word
# 1, 2, 1, ... of length j - 1.
RANK2 = ((2, 2), (1, 4))
EXPRESSIONS = ("x", "inverse", "next", "shifted")
K_RANGE = range(2, 7)
J_MAX = 4
INDEX_BUDGET = 9  # j + k <= 9 keeps every op near or under 2 s


def exchange_exponent(b: int, c: int, k: int) -> int:
    return c if k % 2 == 0 else b


def alternating_word(length: int) -> list[int]:
    return [1 if i % 2 == 0 else 2 for i in range(length)]


def member_expected(expr: str, k: int, j: int) -> bool:
    """Whether the expression lies in the Laurent ring of t_j = {x_j, x_{j+1}}.

    x_k and (x_k^e + 1)/x_{k-1} = x_{k+1} are cluster variables, members
    everywhere by the Laurent phenomenon; 1/x_k is a member exactly when
    x_k is a cluster variable of t_j; (x_k^e + 2)/x_{k-1} = x_{k+1} +
    1/x_{k-1} exactly when x_{k-1} is.
    """
    if expr in ("x", "next"):
        return True
    if expr == "inverse":
        return k in (j, j + 1)
    if expr == "shifted":
        return k - 1 in (j, j + 1)
    raise ValueError(f"unknown expression {expr!r}")


MEMBERSHIP_CELLS = tuple((bc, expr, k) for bc in RANK2 for expr in EXPRESSIONS for k in K_RANGE)


def _targets(k: int) -> list[int]:
    return [j for j in range(1, J_MAX + 1) if j + k <= INDEX_BUDGET]


def _membership_round(offsets: list[int], r: int, rng: Random) -> list[dict]:
    ops = []
    for cell, ((b, c), expr, k) in enumerate(MEMBERSHIP_CELLS):
        js = _targets(k)
        j = js[(offsets[cell] + r) % len(js)]
        targets = [j]
        if (offsets[cell] + r) // len(js) % 2:
            targets.append(rng.choice([t for t in js if t != j]))
        ops.append({
            "kind": "membership",
            "cell": f"{b}-{c}-{expr}-k{k}",
            "bc": [b, c],
            "matrix": matrix_text(2, [[0, b], [-c, 0]]),
            "expr": expr,
            "k": k,
            "e": exchange_exponent(b, c, k),
            "targets": targets,
            "words": [alternating_word(t - 1) for t in targets],
            "expect": {"member": all(member_expected(expr, k, t) for t in targets)},
        })
    return ops


# ---------------------------------------------------------------------------
# certify: identity-count formulas
# ---------------------------------------------------------------------------

CHAIN_CLASSES = ((6, 7, 8), (9, 10), (11,), (12,))
STAIRCASE_RANKS = (2, 3, 4)
SYMMETRIZER_CHOICES = (1, 1, 2, 3)


def chain_expected(m: int) -> dict:
    """Identity counts of the tridiagonal chain on m variables."""
    return {
        "three_term": m * (m - 1) // 2,
        "shifted": comb(m + 1, 3),
        "initial_recurrence": m - 1,
        "stage1_recurrence": m - 1,
        "ok": True,
    }


def random_cartan(n: int, rng: Random) -> list[list[int]]:
    """A connected generalized Cartan matrix, symmetrizable by construction.

    Draws d_i and a random spanning tree, plus possibly one extra edge;
    each edge gets a_ij = -l/d_i and a_ji = -l/d_j with l = lcm(d_i, d_j),
    so diag(d) * A is symmetric.
    """
    d = [rng.choice(SYMMETRIZER_CHOICES) for _ in range(n)]
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    if n >= 3 and rng.random() < 0.5:
        i, j = sorted(rng.sample(range(n), 2))
        edges.add((i, j))
    A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in sorted(edges):
        lcm = d[i] * d[j] // gcd(d[i], d[j])
        A[i][j] = -lcm // d[i]
        A[j][i] = -lcm // d[j]
    return A


def staircase_expected(n: int) -> dict:
    """One identity per step, and 1 + 3n degree-1 basis-change rows."""
    return {"matrix_shapes": n, "exchange": n, "coefficient_recovery": n, "ok": True, "bfz_rows": 1 + 3 * n}


def _certify_round(offsets: list[int], r: int, rng: Random) -> list[dict]:
    ops = []
    for cell, sizes in enumerate(CHAIN_CLASSES):
        m = sizes[(offsets[cell] + r) % len(sizes)]
        ops.append({"kind": "chain", "cell": f"chain-{sizes[0]}-{sizes[-1]}", "m": m, "expect": chain_expected(m)})
    for n in STAIRCASE_RANKS:
        ops.append({
            "kind": "staircase",
            "cell": f"staircase-n{n}",
            "cartan": random_cartan(n, rng),
            "expect": staircase_expected(n),
        })
    ops.append({"kind": "lie", "cell": "lie", "expect": {"stages": 7, "disjoint": True}})
    ops.append({"kind": "verify", "cell": "verify", "argv": ["verify", "--json"], "expect": {"exit": 0, "ok": True}})
    return ops


# ---------------------------------------------------------------------------
# the op stream
# ---------------------------------------------------------------------------

# workload -> (number of per-cell offsets the seed draws, round builder)
_ROUNDS = {
    "explore-closure": (len(EXPLORE_CELLS), _explore_round),
    "membership": (len(MEMBERSHIP_CELLS), _membership_round),
    "certify": (len(CHAIN_CLASSES), _certify_round),
}


class OpStream:
    """Round r of a workload's ops, a pure function of (workload, seed, r)."""

    def __init__(self, workload: str, seed: int):
        if workload not in _ROUNDS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        cells, self._make = _ROUNDS[workload]
        base = Random(f"{workload}:{seed}")
        self._offsets = [base.randrange(1 << 16) for _ in range(cells)]

    def round(self, r: int) -> list[dict]:
        rng = Random(f"{self.workload}:{self.seed}:{r}")
        ops = self._make(self._offsets, r, rng)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op["id"] = f"r{r}.{i}"
        return ops

    def text_of_round(self, r: int) -> str:
        """Round r as canonical JSON lines, one op each."""
        return "".join(json.dumps(op, sort_keys=True, separators=(",", ":")) + "\n" for op in self.round(r))

    def text(self, rounds: int) -> str:
        """The first rounds of the stream as canonical JSON lines."""
        return "".join(self.text_of_round(r) for r in range(rounds))

    def digest(self, rounds: int) -> str:
        return hashlib.sha256(self.text(rounds).encode()).hexdigest()[:16]
