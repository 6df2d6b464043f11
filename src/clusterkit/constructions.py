"""Explicit seed families and their exact verification.

Three families are built and checked identity-by-identity:

* a linear chain of mutations on the tridiagonal matrix with one frozen
  coefficient, whose first entries generate the whole algebra;
* acyclic seeds assembled from a generalized Cartan matrix, with the
  staircase mutation word (1..n), the recovery of every coefficient from
  the 2n generators, and the change of basis onto the one-step-mutation
  monomials (the table builds its generators from the seed and the word
  alone, without a second staircase certificate);
* a hard-coded rank-2 Kac-Moody seed with its six-stage mutation
  schedule; only the schedule, the disjointness of its end clusters and
  the integer coefficients of its entries are checked, with no certificate.

Chain and staircase emit a GeneratorCertificate: the generator values,
which form a triangular-support chain, and per-target expression trees
whose exact re-evaluation proves that both clusters and all
coefficients lie in the subalgebra the generators span.  The chain is
the independence proof: generator i involves x_i, which is
transcendental over Q(x_1, ..., x_{i-1}), a field containing the
generators before it.  So the pivots are the generator order, and the
certificate holds only its generators and trees: no Jacobian, and no
file format.  Trees share subtrees (each chain tree refers to the two
before it), and evaluation computes each shared subtree once per
evaluation pass over the certificate.  Every identity is checked as
structural equality of Laurent polynomials; any failure aborts the
construction.

Each identity is checked once.  Where a construction's identity is the
equation a certificate tree evaluates (the chain's recurrences, the
staircase's exchange and recovery identities), evaluating the tree in
_make_certificate is its check.  The chain's shifted identities follow
from its three-term identities and from each one-step mutation being the
head of a later stage (type_a_chain gives the proof).
identity_counts records how many identities each construction decides,
by formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .analysis import clusters_disjoint
from .laurent import LaurentPoly, _compose, exact_div
from .seeds import (
    ExchangeMatrix,
    Seed,
    SeedProfile,
    _diagonal_scaler,
    _exchange_monomials,
    _require_int,
    apply_word,
    seed_mutate,
)


class ConstructionError(Exception):
    """An identity the construction depends on failed to hold exactly."""


# ---------------------------------------------------------------------------
# generalized Cartan matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetrizable integer matrix with 2 on the diagonal, nonpositive elsewhere."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
            for v in row:
                _require_int(v, "Cartan matrix entry")
        for i in range(n):
            if rows[i][i] != 2:
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be 2")
            for j in range(n):
                if i != j and rows[i][j] > 0:
                    raise ValueError(f"off-diagonal entry ({i + 1},{j + 1}) must be <= 0")
        if _diagonal_scaler(rows, skew=False) is None:
            raise ValueError("Cartan matrix is not symmetrizable")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# expression trees (prefix form over generator names)
# ---------------------------------------------------------------------------

# ("gen", name) | ("int", c) | ("add", *ts) | ("sub", a, b) | ("mul", *ts) | ("pow", t, k)


def eval_expr(trees: Sequence[tuple], env: dict[str, LaurentPoly], m: int) -> list[LaurentPoly | None]:
    """Values of expression trees evaluated in one pass: each distinct node is evaluated once.

    A node that names a generator missing from env has no value (None), and
    neither has any node above it; the other trees are unaffected.
    """
    # keyed on id(node): trees keeps every node alive for the whole call, so no id is reused
    memo: dict[int, LaurentPoly | None] = {}

    def value(node: tuple) -> LaurentPoly | None:
        key = id(node)
        if key in memo:
            return memo[key]
        tag = node[0]
        if tag == "gen":
            out = env[node[1]] if node[1] in env else None
        elif tag == "int":
            out = LaurentPoly.const(m, node[1])
        elif tag not in ("add", "sub", "mul", "pow"):
            raise ValueError(f"unknown expression node {tag!r}")
        else:
            args = [value(node[1])] if tag == "pow" else [value(t) for t in node[1:]]
            if any(a is None for a in args):
                out = None
            elif tag == "add":
                out = sum(args, LaurentPoly.zero(m))
            elif tag == "sub":
                out = args[0] - args[1]
            elif tag == "mul":
                out = math.prod(args, start=LaurentPoly.const(m, 1))
            else:
                out = args[0] ** node[2]
        memo[key] = out
        return out

    return [value(tree) for tree in trees]


def _monomial_expr(exps: Sequence[int], names: Sequence[str]) -> tuple:
    """Tree of prod names[i]^exps[i], in the order of names, skipping zero exponents."""
    factors = [("gen", nm) if e == 1 else ("pow", ("gen", nm), e) for nm, e in zip(names, exps) if e]
    if not factors:
        return ("int", 1)
    if len(factors) == 1:
        return factors[0]
    return ("mul", *factors)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorCertificate:
    """Evidence that the named generators span and are independent.

    The generators form a triangular-support chain: as many generators as
    variables, and generator i involves x_i and no later variable, so its
    pivot is x_i.  The chain proves algebraic independence.  Every
    expression tree re-evaluates exactly to its target value.
    """

    generator_names: tuple[str, ...]
    generators: tuple[LaurentPoly, ...]
    expressions: tuple[tuple[str, LaurentPoly, tuple], ...]  # (label, target, tree)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]


def _check_support_chain(gens: Sequence[LaurentPoly], m: int) -> list[str]:
    """Failures of the triangular-support chain on m variables whose pivot i is x_i."""
    failures = []
    if len(gens) != m:
        failures.append(f"generator count {len(gens)} differs from the variable count {m}")
    for i, g in enumerate(gens, start=1):
        sup = g.support_vars()
        if i not in sup:
            failures.append(f"generator {i} misses its pivot variable x{i}")
        if any(v > i for v in sup):
            failures.append(f"generator {i} involves variables beyond its pivot x{i}")
    return failures


def _failed_trees(names, gens, expressions, m: int) -> list[str]:
    """Labels of the expression trees that do not evaluate to their targets.

    One eval_expr pass covers every tree, so a subtree they share is
    evaluated once.  A tree that names a generator missing from names has
    no value and fails too.
    """
    values = eval_expr([tree for _, _, tree in expressions], dict(zip(names, gens)), m)
    return [label for (label, target, _), value in zip(expressions, values) if value != target]


def _make_certificate(seed: Seed, names, gens, expressions) -> GeneratorCertificate:
    bad = _check_support_chain(gens, seed.profile.m)
    if bad:
        raise ConstructionError("; ".join(bad))
    failed = _failed_trees(names, gens, expressions, seed.profile.m)
    if failed:
        raise ConstructionError(f"expression tree for {failed[0]} does not evaluate to its target")
    return GeneratorCertificate(tuple(names), tuple(gens), tuple(expressions))


def verify_polynomial_generators(cert: GeneratorCertificate, seeds: tuple[Seed, Seed]) -> VerificationResult:
    """Re-check a certificate against a pair of disjoint-cluster seeds.

    Checks the support chain, which proves independence, re-evaluates
    every expression tree, and checks that both clusters' mutable entries
    and all coefficients appear among the expressed targets; those are
    exactly the hypotheses under which the generated subalgebra equals
    the whole algebra and its two-cluster upper bound.  A result with no
    failures certifies: the generators are algebraically independent
    (triangular support chain) and generate both clusters and all
    coefficients; the algebra they span is a polynomial ring equal to the
    cluster algebra and to the two-cluster upper bound.
    """
    failures = []
    s0, s1 = seeds
    if not clusters_disjoint(s0, s1):
        failures.append("the two seeds' clusters are not disjoint")
    m = s0.profile.m
    failures += _check_support_chain(cert.generators, m)
    bad = _failed_trees(cert.generator_names, cert.generators, cert.expressions, m)
    failures += [f"expression tree for {label} does not re-evaluate to its target" for label in bad]
    expressed = set(cert.generators) | {target for label, target, _ in cert.expressions if label not in bad}
    n = s0.profile.n
    needed = [(f"mutable entry {i + 1} of first cluster", v) for i, v in enumerate(s0.mutable_entries())]
    needed += [(f"mutable entry {i + 1} of second cluster", v) for i, v in enumerate(s1.mutable_entries())]
    needed += [(f"coefficient {n + i + 1}", v) for i, v in enumerate(s0.cluster[n:])]
    for what, v in needed:
        if v not in expressed:
            failures.append(f"{what} is not expressed in the generators")
    return VerificationResult(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# the linear chain family
# ---------------------------------------------------------------------------


def type_a_seed(m: int) -> Seed:
    """Tridiagonal seed on m variables with one non-invertible coefficient."""
    _require_int(m, "m")
    if m < 2:
        raise ValueError("the chain construction needs m >= 2")
    n = m - 1
    rows = []
    for i in range(n):
        row = [0] * n
        if i + 1 < n:
            row[i + 1] = -1
        if i - 1 >= 0:
            row[i - 1] = 1
        rows.append(row)
    bottom = [0] * n
    bottom[n - 1] = 1
    rows.append(bottom)
    return Seed.initial(ExchangeMatrix(rows, SeedProfile(n, n, m)))


def _recurrence_trees(heads: Sequence[str]) -> list[tuple]:
    """Trees t_0 = 1, t_1 = heads[0], t_s = heads[s-1] * t_{s-1} - t_{s-2}; t_s shares t_{s-1}, t_{s-2}."""
    trees = [("int", 1), ("gen", heads[0])]
    for h in heads[1:]:
        trees.append(("sub", ("mul", ("gen", h), trees[-1]), trees[-2]))
    return trees


@dataclass(frozen=True)
class TypeAChain:
    chain: tuple[LaurentPoly, ...]  # first entry of every stage seed
    stages: tuple[Seed, ...]
    certificate: GeneratorCertificate
    identity_counts: dict

    @property
    def disjoint_pair(self) -> tuple[Seed, Seed]:
        return self.stages[0], self.stages[1]


def type_a_chain(m: int) -> TypeAChain:
    """Run the nested mutation schedule and verify its defining identities.

    Stage i applies the word (1, 2, ..., m-i) to stage i-1.  Write
    e(i, s) for entry s of stage i, with e(i, 0) = 1 and e(i, -1) = 0, and
    M(i, k) for entry k of the one-step mutation of stage i at k
    (0 <= i <= m-2, 1 <= k <= m-1-i).  The identities the schedule rests
    on are the three-term identities M(i, k) * e(i, k) = e(i, k-1) +
    e(i, k+1) and their shifts M(i, k) * e(i-j, k+j) = e(i-j, k-1+j) +
    e(i-j, k+1+j) for 1 <= j <= i.  Stage i+k starts with the mutation
    of stage i+k-1 at 1, so its head e(i+k, 1) is M(i+k-1, 1), solved
    once while the stages are built.  The schedule predicts M(i, k) to be
    that head, and no second exchange is solved for it: with M1 + M2 the
    exchange monomials of column k of stage i, two things are checked at
    every (i, k), m(m-1)/2 of each:

    * M1 + M2 == e(i, k-1) + e(i, k+1);
    * e(i+k, 1) * e(i, k) == M1 + M2: one product.

    The Laurent ring is a domain and e(i, k) is nonzero, so the second
    check proves e(i+k, 1) is the one solution of the exchange relation
    x_k * x_k' = M1 + M2, that is M(i, k) == e(i+k, 1); with the first it
    is the three-term identity at (i, k).  The shift j at (i, k) reads
    M(i, k) * e = M(i-j, k+j) * e with e = e(i-j, k+j), and both sides
    equal e(i-j, k-1+j) + e(i-j, k+1+j) by the three-term identity at
    (i-j, k+j), because M(i, k) and M(i-j, k+j) are both e(i+k, 1).  So
    the C(m+1, 3) shifted identities (shift 0 included) hold exactly when
    the checks above pass.

    The recurrences through the chain heads h_s = e(s, 1),
    x_s = h_{s-1} * x_{s-1} - x_{s-2} for s = 2..m (x_0 = 1) and
    e(1, s) = h_s * e(1, s-1) - e(1, s-2) for s = 1..m-1, are the
    certificate's trees over the generators h_0..h_{m-1}.
    _make_certificate evaluates every tree against its target, which
    checks these m-1 and m-1 recurrences.  identity_counts records the
    four counts by their formulas.
    """
    seed0 = type_a_seed(m)
    stages = [seed0]
    for i in range(1, m):
        stages.append(apply_word(stages[i - 1], range(1, m - i + 1)))

    def entry(stage: int, s: int) -> LaurentPoly:
        return stages[stage].cluster[s - 1] if s else LaurentPoly.const(m, 1)

    chain = tuple(stages[i].cluster[0] for i in range(m))
    # M(i, k) is predicted as the head of stage i + k; the product check proves it
    for i in range(0, m - 1):
        stage = stages[i]
        for k in range(1, m - i):
            m1, m2 = _exchange_monomials(stage, [row[k - 1] for row in stage.matrix.entries])
            exchange = m1 + m2
            if exchange != entry(i, k - 1) + entry(i, k + 1):
                raise ConstructionError(f"three-term identity failed at stage {i}, position {k}")
            if chain[i + k] * entry(i, k) != exchange:
                raise ConstructionError(f"shifted three-term identity failed at stage {i}, position {k}")

    var = lambda s: LaurentPoly.variable(m, s)

    # the recurrence gives the trees of the initial variables (heads from
    # x1[0]) and of the stage-1 entries (heads from x1[1])
    names = [f"x1[{i}]" for i in range(m)]
    var_trees = _recurrence_trees(names)
    st1_trees = _recurrence_trees(names[1:])
    expressions = [(f"x{s}", var(s), var_trees[s]) for s in range(1, m + 1)]
    expressions += [(f"x{s}[1]", entry(1, s), st1_trees[s]) for s in range(1, m)]
    cert = _make_certificate(seed0, names, list(chain), expressions)
    counts = {
        "three_term": m * (m - 1) // 2,
        "shifted": math.comb(m + 1, 3),
        "initial_recurrence": m - 1,
        "stage1_recurrence": m - 1,
    }
    return TypeAChain(chain, tuple(stages), cert, counts)


# ---------------------------------------------------------------------------
# acyclic seeds from Cartan matrices
# ---------------------------------------------------------------------------


def acyclic_seed_from_cartan(C: CartanMatrix) -> Seed:
    """The 2n x n acyclic seed attached to a generalized Cartan matrix.

    Principal part: -c_ij above the diagonal, c_ij below; coefficient
    block: unitriangular with the negated upper Cartan entries above its
    diagonal.
    """
    n = C.n
    c = C.entries
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(0)
            elif i < j:
                row.append(-c[i - 1][j - 1])
            else:
                row.append(c[i - 1][j - 1])
        rows.append(row)
    for i in range(n + 1, 2 * n + 1):
        row = []
        for j in range(1, n + 1):
            if i - n == j:
                row.append(1)
            elif i - n < j:
                row.append(c[i - n - 1][j - 1])
            else:
                row.append(0)
        rows.append(row)
    return Seed.initial(ExchangeMatrix(rows, SeedProfile(n, n, 2 * n)))


def staircase_intermediate_matrix(B0: ExchangeMatrix, i: int) -> ExchangeMatrix:
    """Predicted matrix after mutating the Cartan-built seed at 1, 2, ..., i.

    The principal entry (a, b) flips sign once for each of a <= i, b <= i;
    coefficient row n+j is replaced by (-b_j1, ..., -b_j(j-1), -1, 0, ...)
    once j <= i and keeps its original form otherwise.
    """
    n = B0.profile.n
    rows = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            flips = (1 if a <= i else 0) + (1 if b <= i else 0)
            v = B0.entry(a, b)
            row.append(-v if flips % 2 else v)
        rows.append(row)
    for j in range(1, n + 1):
        if j <= i:
            row = [-B0.entry(j, t) for t in range(1, j)] + [-1] + [0] * (n - j)
        else:
            row = [0] * (j - 1) + [1] + [-B0.entry(j, t) for t in range(j + 1, n + 1)]
        rows.append(row)
    return ExchangeMatrix(rows, B0.profile)


def _staircase_tail(B0: ExchangeMatrix, k: int) -> LaurentPoly:
    """prod_{i<k} x_i[1]^{b_ik} * prod_{i>k} x_i^{-b_ik} as a monomial in x_1..x_n, x_1[1]..x_n[1].

    Every exponent is >= 0 on a Cartan-built seed.
    """
    n = B0.profile.n
    exps = [0] * (2 * n)
    for i in range(1, k):
        exps[n + i - 1] = B0.entry(i, k)
    for i in range(k + 1, n + 1):
        exps[i - 1] = -B0.entry(i, k)
    return LaurentPoly.monomial(2 * n, exps)


@dataclass(frozen=True)
class Staircase:
    initial: Seed
    mutated: Seed  # after the word (1, ..., n)
    certificate: GeneratorCertificate
    identity_counts: dict

    @property
    def disjoint_pair(self) -> tuple[Seed, Seed]:
        return self.initial, self.mutated


def acyclic_staircase(C: CartanMatrix) -> Staircase:
    """Apply the staircase word to the Cartan-built seed and certify it.

    Checks, exactly: every intermediate matrix matches its predicted
    shape (n checks), and each new entry satisfies the exchange identity
    entry_k * x_k = x_{n+k} + prod_{i<k} entry_i^{b_ik} * prod_{i>k} x_i^{-b_ik}.
    That identity is the coefficient recovery
    x_{n+k} = entry_k * x_k - prod_{i<k} entry_i^{b_ik} * prod_{i>k} x_i^{-b_ik},
    one equation, and the certificate's tree for x_{n+k} is its right-hand
    side over the 2n generators; _make_certificate evaluates each tree
    against x_{n+k}, which checks all n identities.  identity_counts
    records n for both.
    """
    seed0 = acyclic_seed_from_cartan(C)
    n = seed0.profile.n
    mm = seed0.profile.m
    B0 = seed0.matrix

    current = seed0
    for i in range(1, n + 1):
        current = seed_mutate(current, i)
        if current.matrix != staircase_intermediate_matrix(B0, i):
            raise ConstructionError(f"intermediate matrix after step {i} deviates from the block shape")
    seed1 = current

    var = lambda i: LaurentPoly.variable(mm, i)
    names = [f"x{k}" for k in range(1, n + 1)] + [f"x{k}[1]" for k in range(1, n + 1)]
    gens = [var(k) for k in range(1, n + 1)] + list(seed1.cluster[:n])
    expressions = [(nm, g, ("gen", nm)) for nm, g in zip(names, gens)]
    tree_order = names[n:] + names[:n]  # recovery trees list the x_i[1] factors first

    for k in range(1, n + 1):
        exps = _staircase_tail(B0, k).terms[0][0]
        recovered = _monomial_expr(exps[n:] + exps[:n], tree_order)
        tree = ("sub", ("mul", ("gen", f"x{k}[1]"), ("gen", f"x{k}")), recovered)
        expressions.append((f"x{n + k}", var(n + k), tree))

    cert = _make_certificate(seed0, names, gens, expressions)
    return Staircase(seed0, seed1, cert, {"matrix_shapes": n, "exchange": n, "coefficient_recovery": n})


# ---------------------------------------------------------------------------
# change of basis onto the one-step mutation monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BfzExpansion:
    exponents: tuple[int, ...]  # length 3n: x-powers, coefficient powers, primed powers
    combination: tuple[tuple[tuple[int, ...], int], ...]  # generator-monomial -> coefficient


@dataclass(frozen=True)
class BfzTable:
    primed: tuple[LaurentPoly, ...]  # the one-step mutations of the initial entries
    primed_in_generators: tuple[LaurentPoly, ...]  # same, as formal polynomials in 2n generators
    coefficient_in_generators: tuple[LaurentPoly, ...]  # x_{n+k} as formal polynomials
    rows: tuple[BfzExpansion, ...]
    degree_bound: int


def bfz_basis_change(C: CartanMatrix, degree_bound: int = 2) -> BfzTable:
    """Express the one-step mutation monomial basis in the staircase generators.

    Builds, in a formal ring on the 2n generators, the recovery
    polynomial E_k of each coefficient and the combination identity for
    x_k * x_k'; checks that identity against the actual mutation values,
    divides formally by the k-th generator (failure to divide would
    falsify the construction and is fatal), and tabulates every monomial
    x^a * coeff^b * (x')^c with total degree <= degree_bound and
    a_k * c_k = 0 as an integer combination of generator monomials.  The
    generators come from the seed and the staircase word; no staircase
    certificate is built.

    The combination polynomial rhs is ordinary without a check: on a
    Cartan-built seed E_k, the head and the composed tail carry no
    negative exponent (see _staircase_tail).  The quotient by the k-th
    generator needs no check of its value either: composing at the
    generators is a ring map, so rhs(gens) = x_k * quotient(gens), and the
    checked rhs(gens) = x_k * x_k' with x_k != 0 forces quotient(gens) = x_k'.

    Each set of images is composed at in one _compose call (the tails at
    x and E, the combination polynomials at the generators, the table's
    monomials at x, E and the formal x'), so its power table is built once.
    """
    _require_int(degree_bound, "degree_bound")
    if degree_bound < 0:
        raise ValueError("degree_bound must be >= 0")
    seed0 = acyclic_seed_from_cartan(C)
    n = seed0.profile.n
    B0 = seed0.matrix
    gens = [LaurentPoly.variable(seed0.profile.m, k) for k in range(1, n + 1)]
    gens += apply_word(seed0, range(1, n + 1)).cluster[:n]

    primed = tuple(seed_mutate(seed0, k).cluster[k - 1] for k in range(1, n + 1))

    g = lambda i: LaurentPoly.variable(2 * n, i)  # formal generator ring
    tails = [_staircase_tail(B0, k) for k in range(1, n + 1)]
    E = [g(n + k) * g(k) - tails[k - 1] for k in range(1, n + 1)]
    x_and_E = [g(k) for k in range(1, n + 1)] + E

    # x_k * x_k' = x_{n+k} prod_{i<k} x_i^{b_ik} + prod_{i>k} x_i^{-b_ik} prod_{i<k} x_{n+i}^{b_ik},
    # with every coefficient x_{n+i} written as its recovery polynomial E_i
    heads = [E[k] * LaurentPoly.monomial(2 * n, tails[k].terms[0][0][n:] + (0,) * n) for k in range(n)]
    rhss = [head + composed for head, composed in zip(heads, _compose(tails, x_and_E))]
    primed_formal = []
    for k, (rhs, value) in enumerate(zip(rhss, _compose(rhss, gens)), start=1):
        if value != gens[k - 1] * primed[k - 1]:
            raise ConstructionError(f"combination identity for the one-step mutation at {k} failed")
        quotient = exact_div(rhs, g(k))
        if not quotient.is_ordinary():
            raise ConstructionError(
                f"the combination identity at {k} is not divisible by generator {k}; construction falsified"
            )
        primed_formal.append(quotient)

    # enumerate the constrained monomials up to total degree
    def vectors(total: int, length: int):
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in vectors(total - head, length - 1):
                yield (head, *rest)

    vecs = [
        vec
        for total in range(degree_bound + 1)
        for vec in vectors(total, 3 * n)
        if not any(vec[k] and vec[2 * n + k] for k in range(n))
    ]
    prods = _compose([LaurentPoly.monomial(3 * n, vec) for vec in vecs], x_and_E + primed_formal)
    rows = tuple(BfzExpansion(vec, prod.terms) for vec, prod in zip(vecs, prods))
    return BfzTable(primed, tuple(primed_formal), tuple(E), rows, degree_bound)


# ---------------------------------------------------------------------------
# the rank-2 Kac-Moody preset
# ---------------------------------------------------------------------------

_LIE_ROWS = (
    (0, 2, -1, 0, 0, 0),
    (-2, 0, 2, -1, 0, 0),
    (1, -2, 0, 2, -1, 0),
    (0, 1, -2, 0, 2, -1),
    (0, 0, 1, -2, 0, 2),
    (0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 1, -2),
    (0, 0, 0, 0, 0, 1),
)

LIE_STAGE_WORDS = ((1, 3, 5), (2, 4, 6), (1, 3), (2, 4), (1,), (2,))


def lie_matrix() -> ExchangeMatrix:
    """The 8 x 6 exchange matrix of the rank-2 Kac-Moody preset."""
    return ExchangeMatrix(_LIE_ROWS, SeedProfile(6, 6, 8))


@dataclass(frozen=True)
class LiePreset:
    stages: tuple[Seed, ...]  # stage 0 (initial) through stage 6; stages[-1].word is the full word
    disjoint: bool


def lie_preset() -> LiePreset:
    """Run the six-stage mutation schedule on the rank-2 Kac-Moody seed.

    Verifies that the initial and final clusters are disjoint.  The
    matrix is the constant _LIE_ROWS, whose principal part is
    skew-symmetric (test_lie_matrix_shape pins it), so no run can find it
    otherwise; Seed.initial still validates it as an exchange matrix.
    The final stage's word is the concatenation of the stage words;
    applying it to the initial seed repeats the staged mutations in the
    same order, so it is not run again.  Every intermediate entry is an
    integer Laurent polynomial by construction; a failed exact division
    would abort the schedule.
    """
    seed = Seed.initial(lie_matrix())
    stages = [seed]
    for word in LIE_STAGE_WORDS:
        stages.append(apply_word(stages[-1], word))
    disjoint = clusters_disjoint(stages[0], stages[-1])
    if not disjoint:
        raise ConstructionError("initial and final clusters of the schedule are not disjoint")
    return LiePreset(tuple(stages), disjoint)
