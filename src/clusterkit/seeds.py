"""Seeds, exchange matrices, validation, and the two mutation rules.

An exchange matrix is an m x n integer matrix whose first n rows form the
principal part; a seed couples such a matrix with an m-tuple of cluster
entries, stored as exact Laurent polynomials in the initial variables, and
the word of mutation indices that produced it.  Mutation indices and
variable indices are 1-based throughout the public surface.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .laurent import LaurentPoly, ParseError, _require_int, exact_div, parse_int


class InvalidSeed(ValueError):
    """A seed or exchange matrix violates the defining conditions."""


@dataclass(frozen=True)
class SeedProfile:
    """Index bookkeeping: n mutable entries, p invertible, m ambient variables."""

    n: int
    p: int
    m: int

    def __post_init__(self):
        for field in ("n", "p", "m"):
            _require_int(getattr(self, field), f"profile count {field}")
        if min(self.n, self.p, self.m) < 0:
            raise ValueError("profile counts must be nonnegative")

    def violations(self) -> list[str]:
        out = []
        if not (self.m >= self.p >= self.n >= 1):
            out.append(f"profile: need m >= p >= n >= 1, got n={self.n} p={self.p} m={self.m}")
        if self.m <= 1:
            out.append(f"profile: need m > 1, got m={self.m}")
        return out


class ExchangeMatrix:
    """Immutable m x n integer matrix with a seed profile."""

    __slots__ = ("entries", "profile")

    def __init__(self, entries: Sequence[Sequence[int]], profile: SeedProfile):
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != profile.m:
            raise ValueError(f"{len(rows)} rows for profile m={profile.m}")
        for row in rows:
            if len(row) != profile.n:
                raise ValueError(f"row of length {len(row)} for profile n={profile.n}")
            for v in row:
                _require_int(v, "matrix entry")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "profile", profile)

    def __setattr__(self, name, value):
        raise AttributeError("ExchangeMatrix is immutable")

    @classmethod
    def _from_canonical(cls, rows: tuple, profile: SeedProfile) -> "ExchangeMatrix":
        """Trusted constructor: rows must be a tuple of profile.m tuples of profile.n ints."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "profile", profile)
        return self

    def entry(self, i: int, j: int) -> int:
        """b_ij, 1-indexed."""
        m, n = self.profile.m, self.profile.n
        # type() is the fast test; _require_int also admits int subclasses but bool
        if type(i) is not int or type(j) is not int:
            _require_int(i, "matrix row index")
            _require_int(j, "matrix column index")
        if not (1 <= i <= m and 1 <= j <= n):
            raise IndexError(f"entry ({i}, {j}) outside 1..{m} x 1..{n}")
        return self.entries[i - 1][j - 1]

    def column(self, k: int) -> tuple[int, ...]:
        """Column k, 1-indexed."""
        n = self.profile.n
        if type(k) is not int:  # the fast test, as in entry
            _require_int(k, "column index")
        if not 1 <= k <= n:
            raise IndexError(f"column index {k} outside 1..{n}")
        return tuple(row[k - 1] for row in self.entries)

    def principal(self) -> tuple[tuple[int, ...], ...]:
        n = self.profile.n
        return tuple(row[:n] for row in self.entries[:n])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExchangeMatrix):
            return NotImplemented
        return self.entries == other.entries and self.profile == other.profile

    def __hash__(self) -> int:
        return hash((self.entries, self.profile))

    def __repr__(self) -> str:
        return f"ExchangeMatrix({render_matrix(self)!r})"


def _delta_connected(B: ExchangeMatrix) -> bool:
    # graph on 1..m with an edge i-j when b_ij or b_ji is nonzero; columns past m
    # (a profile with n > m, reported by its own violation) name no variable
    m, n = B.profile.m, B.profile.n
    if not m:
        return True  # no variables, nothing to connect
    adj: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        for j in range(min(n, m)):
            if B.entries[i][j] and i != j:
                adj[i].add(j)
                adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m


def _diagonal_scaler(A: Sequence[Sequence[int]], skew: bool) -> tuple[int, ...] | None:
    """Minimal positive integer d with d_i*A_ij = sign*d_j*A_ji, or None.

    sign is -1 for skew-symmetrizers and +1 for symmetrizers.  d is
    propagated in integers along the pairs with A_ij and A_ji both nonzero:
    reaching j from i sets d_j = d_i*|A_ij| / |A_ji|, after scaling the
    component found so far by f = |A_ji| / g, g = gcd(d_i*|A_ij|, |A_ji|),
    when the quotient is not an integer.  Each component starts at d = 1 and
    keeps gcd 1, so it ends minimal: a step without scaling only adds a
    value, and one with scaling leaves gcd(f, d_i*|A_ij| / g) = 1.  The
    sweep over every pair is the one check: it rejects a nonzero skew
    diagonal, a one-sided zero, a sign mismatch and an inconsistent cycle
    alike.
    """
    n = len(A)
    sign = -1 if skew else 1
    d = [0] * n
    for root in range(n):
        if d[root]:
            continue
        d[root] = 1
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if d[j] or not (A[i][j] and A[j][i]):
                    continue
                num, den = d[i] * abs(A[i][j]), abs(A[j][i])
                g = math.gcd(num, den)
                if g != den:
                    scale = den // g
                    for v in component:
                        d[v] *= scale
                d[j] = num // g  # = d_i*|A_ij| / |A_ji| after the scaling
                component.append(j)
                stack.append(j)
    for i in range(n):
        for j in range(n):
            if d[i] * A[i][j] != sign * d[j] * A[j][i]:
                return None
    return tuple(d)


def skew_symmetrizer(B: ExchangeMatrix) -> tuple[int, ...] | None:
    """Minimal positive integer diagonal making the principal part skew, or None."""
    return _diagonal_scaler(B.principal(), skew=True)


def validate(B: ExchangeMatrix) -> tuple[str, ...]:
    """Check the seed conditions; returns violation descriptions (empty = ok)."""
    out = list(B.profile.violations())
    if not _delta_connected(B):
        out.append("connectivity: the nonzero pattern does not connect all variables")
    if skew_symmetrizer(B) is None:
        out.append("skew: the principal part is not skew-symmetrizable")
    return tuple(out)


def matrix_mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate the exchange matrix in direction k (1-based mutable index).

    Precondition: validate(B) is empty, as it is for the matrix of every
    Seed, which Seed(...) validates.  The result is then valid too,
    so it is not checked again: mutation keeps the skew-symmetrizer D
    (Fomin-Zelevinsky, Cluster algebras I, Prop. 4.5); a direct-sum split
    of mu_k(B) is also one of B, so connectivity is kept; and mu_k is an
    involution on every integer matrix.  A matrix that was never validated
    is mutated as given, without a check.
    """
    n = B.profile.n
    if type(k) is not int:  # the fast test, as in ExchangeMatrix.entry
        _require_int(k, "mutation index")
    if not 1 <= k <= n:
        raise IndexError(f"mutation index {k} outside 1..{n}")
    # ints computed from the int entries of B, in B's shape: nothing to re-check
    return ExchangeMatrix._from_canonical(_mutated_rows(B.entries, k - 1), B.profile)


def _mutated_rows(entries: tuple, kk: int) -> tuple:
    """The rows of mu_k(B) from the rows of B, for k = kk + 1 already checked.

    explore calls this directly for a child it only needs the key of."""
    rowk = entries[kk]
    # b_ij changes only where sign(b_kj) = sign(b_ik), by b_ik * |b_kj|: the
    # dense (|b_ik| b_kj + b_ik |b_kj|) / 2 is zero for opposite signs or a zero
    positive = [(j, b) for j, b in enumerate(rowk) if b > 0]
    negative = [(j, -b) for j, b in enumerate(rowk) if b < 0]
    rows = []
    for row in entries:
        bik = row[kk]
        if not bik:
            rows.append(row)  # b_ik = 0: the row is unchanged
            continue
        new = list(row)
        for j, bkj in positive if bik > 0 else negative:
            new[j] += bik * bkj
        new[kk] = -bik  # after the loop, which touches column k when b_kk != 0
        rows.append(tuple(new))
    rows[kk] = tuple([-v for v in rowk])  # row k is negated whatever b_kk is
    return tuple(rows)


class Seed:
    """Cluster (m Laurent polynomials in the initial variables), matrix, word.

    Seed(...) validates the matrix, and mutation keeps it valid (see matrix_mutate)."""

    __slots__ = ("matrix", "cluster", "word")

    def __init__(self, matrix: ExchangeMatrix, cluster: Sequence[LaurentPoly], word: Sequence[int]):
        bad = validate(matrix)
        if bad:
            raise InvalidSeed("; ".join(bad))
        cluster = tuple(cluster)
        n, m = matrix.profile.n, matrix.profile.m
        if len(cluster) != m:
            raise InvalidSeed(f"cluster of length {len(cluster)} for m={m}")
        for c in cluster:
            if c.m != m:
                raise InvalidSeed("cluster entry in wrong ambient ring")
            if c.is_zero:
                raise InvalidSeed("cluster entries must be nonzero")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "cluster", cluster)
        word = tuple(word)
        for w in word:
            _require_int(w, "word entry")
            if not 1 <= w <= n:
                raise InvalidSeed(f"word entry {w} outside 1..{n}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, name, value):
        raise AttributeError("Seed is immutable")

    @classmethod
    def _from_canonical(cls, matrix: ExchangeMatrix, cluster: tuple, word: tuple) -> "Seed":
        """Trusted constructor for what Seed(...) checks: a valid matrix, a tuple of m
        nonzero LaurentPoly values in m variables and a tuple of int letters."""
        self = object.__new__(cls)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "word", word)
        return self

    @classmethod
    def initial(cls, matrix: ExchangeMatrix) -> "Seed":
        """The seed whose cluster is the m coordinate monomials."""
        m = matrix.profile.m
        return cls(matrix, [LaurentPoly.variable(m, i + 1) for i in range(m)], ())

    @property
    def profile(self) -> SeedProfile:
        return self.matrix.profile

    def mutable_entries(self) -> tuple[LaurentPoly, ...]:
        return self.cluster[: self.profile.n]

    # equality ignores the word: it is provenance, not identity
    def __eq__(self, other) -> bool:
        if not isinstance(other, Seed):
            return NotImplemented
        return self.matrix == other.matrix and self.cluster == other.cluster

    def __hash__(self) -> int:
        return hash((self.matrix, self.cluster))

    def __repr__(self) -> str:
        word = ",".join(map(str, self.word)) or "()"
        return f"Seed(word={word}, n={self.profile.n}, m={self.profile.m})"


def exchange_monomials(s: Seed, k: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The two products M1, M2 of the exchange relation x_k * x_k' = M1 + M2."""
    return _exchange_monomials(s, s.matrix.column(k))


def _exchange_monomials(s: Seed, column: Sequence[int]) -> tuple[LaurentPoly, LaurentPoly]:
    """M1, M2 for a column of s's matrix that the caller has read, its index checked."""
    products: list[LaurentPoly | None] = [None, None]
    for x, b in zip(s.cluster, column):
        if b:
            side = 0 if b > 0 else 1
            power = x ** abs(b)
            products[side] = power if products[side] is None else products[side] * power
    m = s.profile.m
    return tuple(LaurentPoly.const(m, 1) if p is None else p for p in products)


def seed_mutate(s: Seed, k: int) -> Seed:
    """Mutate the seed in direction k: exchange relation plus matrix mutation."""
    matrix = matrix_mutate(s.matrix, k)  # the one check of k
    m1, m2 = _exchange_monomials(s, [row[k - 1] for row in s.matrix.entries])
    if m1 == m2:
        raise InvalidSeed(f"degenerate exchange at {k}: both exchange monomials equal")
    new_entry = exact_div(m1 + m2, s.cluster[k - 1])  # NotDivisible propagates
    if new_entry.is_zero:
        raise InvalidSeed("cluster entries must be nonzero")
    # the rest of the cluster and the word were checked when s was built
    return Seed._from_canonical(matrix, s.cluster[: k - 1] + (new_entry,) + s.cluster[k:], s.word + (k,))


def _relabelled(rows: tuple, profile: SeedProfile, cluster: tuple, word: tuple) -> Seed:
    """A Seed from the matrix rows and cluster of a Seed after a simultaneous
    permutation of its mutable indices, with a word of int letters in 1..n:
    explore keeps each seed it finds as its relabelling class and rebuilds
    it.  The permutation keeps the matrix valid (it permutes a
    skew-symmetrizer and the edges that connect the variables), so nothing
    is checked."""
    return Seed._from_canonical(ExchangeMatrix._from_canonical(rows, profile), cluster, word)


def _initial_at(s: Seed) -> Seed:
    """Seed.initial(s.matrix) without its check: s's matrix passed it when s was built."""
    m = s.profile.m
    return Seed._from_canonical(s.matrix, tuple(LaurentPoly.variable(m, i + 1) for i in range(m)), ())


def apply_word(s: Seed, word: Iterable[int]) -> Seed:
    """Left-to-right composition of seed mutations."""
    for k in word:
        s = seed_mutate(s, k)
    return s


# ---------------------------------------------------------------------------
# acyclicity and rank
# ---------------------------------------------------------------------------


def is_acyclic(B: ExchangeMatrix) -> bool:
    """True when the sign-pattern quiver has no oriented cycle (Kahn's algorithm: removing
    sources one by one leaves exactly the vertices on or behind a cycle, self-loops included)."""
    n = B.profile.n
    succ = [[j for j in range(n) if B.entries[i][j] > 0] for i in range(n)]
    indegree = [0] * n
    for targets in succ:
        for j in targets:
            indegree[j] += 1
    sources = [v for v in range(n) if not indegree[v]]
    removed = 0
    while sources:
        removed += 1
        for w in succ[sources.pop()]:
            indegree[w] -= 1
            if not indegree[w]:
                sources.append(w)
    return removed == n


def _bareiss(entries: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination (Bareiss, Math. Comp. 1968).

    Every entry still read is a minor, so each division by the previous
    pivot is exact.  The entries under a pivot are never read again and
    keep their stale values.
    """
    M = [list(row) for row in entries]
    rows, cols = len(M), len(M[0]) if M else 0
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                M[i][j] = (M[i][j] * M[r][c] - M[i][c] * M[r][j]) // prev
        prev = M[r][c]
        r += 1
    return r


def matrix_rank(B: ExchangeMatrix) -> int:
    """Exact integer rank via fraction-free (Bareiss) elimination."""
    return _bareiss(B.entries)


# ---------------------------------------------------------------------------
# matrix text and JSON forms
# ---------------------------------------------------------------------------


def render_matrix(B: ExchangeMatrix) -> str:
    """Canonical text: header 'n p m', then rows joined by '; '."""
    pr = B.profile
    body = "; ".join(" ".join(str(v) for v in row) for row in B.entries)
    return f"{pr.n} {pr.p} {pr.m}\n{body}"


def matrix_to_json(B: ExchangeMatrix) -> dict:
    pr = B.profile
    return {"n": pr.n, "p": pr.p, "m": pr.m, "rows": [list(row) for row in B.entries]}


def parse_matrix(text: str) -> ExchangeMatrix:
    """Parse the text form (header 'n p m', ';'- or newline-separated rows) or JSON."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix", 0)
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON matrix: {exc.msg}", exc.pos) from None
        for key in ("n", "p", "m", "rows"):
            if key not in data:
                raise ParseError(f"JSON matrix missing field {key!r}", 0)
        try:
            return ExchangeMatrix(data["rows"], SeedProfile(data["n"], data["p"], data["m"]))
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), 0) from None
    lines = stripped.splitlines(keepends=True)
    header = lines[0].split()
    if len(header) != 3:
        raise ParseError("header must be 'n p m'", 0)
    try:
        n, p, m = (parse_int(v) for v in header)
    except ValueError:
        raise ParseError("header must contain three integers", 0) from None
    rows = []
    start = len(text) - len(text.lstrip()) + len(lines[0])  # offset of lines[1] in text
    for line in lines[1:]:
        for r in re.finditer(r"[^;\s][^;]*", line):  # each row from its first non-space
            try:
                rows.append([parse_int(v) for v in r.group().split()])
            except ValueError:
                raise ParseError(f"non-integer matrix entry in row {r.group().rstrip()!r}", start + r.start()) from None
        start += len(line)
    try:
        return ExchangeMatrix(rows, SeedProfile(n, p, m))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None
