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
  schedule.

Each family emits a GeneratorCertificate: the generator values, a
triangular-support chain, and per-target expression trees whose exact
re-evaluation proves that both clusters and all coefficients lie in the
subalgebra the generators span.  The chain is the independence proof:
generator i involves x_i, which is transcendental over
Q(x_1, ..., x_{i-1}), a field containing the generators before it.  The
chain also makes the Jacobian lower-triangular, so the recorded nonzero
Jacobian determinant at an integer point is the product of its diagonal.
Trees share subtrees (each chain tree refers to the two before it), and
evaluation computes each shared subtree once.  Every identity is checked
as structural equality of Laurent polynomials; any failure aborts the
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .analysis import clusters_disjoint
from .laurent import LaurentPoly, _compose, exact_div, render_poly
from .seeds import (
    ExchangeMatrix,
    Seed,
    SeedProfile,
    _diagonal_scaler,
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


def eval_expr(expr: tuple, env: dict[str, LaurentPoly], m: int) -> LaurentPoly:
    """Value of an expression tree; a subtree shared by several parents is evaluated once."""
    memo: dict[int, LaurentPoly] = {}  # keyed on id(node): expr keeps every node alive for the call

    def value(node: tuple) -> LaurentPoly:
        out = memo.get(id(node))
        if out is not None:
            return out
        tag = node[0]
        if tag == "gen":
            out = env[node[1]]
        elif tag == "int":
            out = LaurentPoly.const(m, node[1])
        elif tag == "add":
            out = LaurentPoly.zero(m)
            for t in node[1:]:
                out = out + value(t)
        elif tag == "sub":
            out = value(node[1]) - value(node[2])
        elif tag == "mul":
            out = LaurentPoly.const(m, 1)
            for t in node[1:]:
                out = out * value(t)
        elif tag == "pow":
            out = value(node[1]) ** node[2]
        else:
            raise ValueError(f"unknown expression node {tag!r}")
        memo[id(node)] = out
        return out

    return value(expr)


def expr_to_json(expr: tuple) -> list:
    tag = expr[0]
    if tag in ("gen", "int"):
        return [tag, expr[1]]
    if tag == "pow":
        return [tag, expr_to_json(expr[1]), expr[2]]
    return [tag, *(expr_to_json(t) for t in expr[1:])]


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

    pivot_vars is the triangular-support chain: one pivot per generator,
    as many generators as variables, pivots strictly increasing, and each
    generator's support within the variables up to its pivot while
    containing the pivot itself.  The chain proves algebraic independence.
    jacobian_det is the product of the diagonal partials dg_i/dx_i at the
    recorded integer sample point, the Jacobian determinant of the chain;
    verification recomputes it.  Every expression tree re-evaluates
    exactly to its target value.
    """

    generator_names: tuple[str, ...]
    generators: tuple[LaurentPoly, ...]
    pivot_vars: tuple[int, ...]
    sample_point: tuple[int, ...]
    jacobian_det: Fraction
    expressions: tuple[tuple[str, LaurentPoly, tuple], ...]  # (label, target, tree)

    def to_json(self) -> dict:
        return {
            "generators": [
                {"name": nm, "value": render_poly(g), "pivot": pv}
                for nm, g, pv in zip(self.generator_names, self.generators, self.pivot_vars)
            ],
            "sample_point": list(self.sample_point),
            "jacobian_det": str(self.jacobian_det),
            "expressions": [
                {"target": label, "value": render_poly(val), "tree": expr_to_json(tree)}
                for label, val, tree in self.expressions
            ],
        }


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...]
    certified: str

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": list(self.failures), "certified": self.certified}


def _jacobian_det(gens: Sequence[LaurentPoly], point: Sequence[int]) -> Fraction:
    """Exact Jacobian determinant of a complete support chain at an integer point.

    Precondition: _check_support_chain passes, so the m generators have
    pivots exactly 1..m and generator i involves no variable beyond x_i.
    Then dg_i/dx_j = 0 for j > i, the Jacobian matrix is lower-triangular,
    and its determinant is the product of the diagonal entries dg_i/dx_i.
    """
    det = Fraction(1)
    for i, g in enumerate(gens, start=1):
        det *= g.derivative(i).evaluate(point)
    return det


def _sample_point_with_nonzero_jacobian(gens: Sequence[LaurentPoly]) -> tuple[tuple[int, ...], Fraction]:
    rng = Random(20231115)
    m = gens[0].m
    for _ in range(64):
        point = tuple(rng.randint(2, 19) for _ in range(m))
        det = _jacobian_det(gens, point)
        if det:
            return point, det
    raise ConstructionError("no sample point with nonzero Jacobian found")


def _check_support_chain(gens: Sequence[LaurentPoly], pivots: Sequence[int]) -> list[str]:
    """Failures of the triangular-support chain; none means pivots are exactly 1..m."""
    failures = []
    m = gens[0].m
    if len(gens) != m:
        failures.append(f"generator count {len(gens)} differs from the variable count {m}")
    if len(pivots) != len(gens):
        failures.append(f"pivot count {len(pivots)} differs from the generator count {len(gens)}")
    prev = 0
    for name_idx, (g, pv) in enumerate(zip(gens, pivots), start=1):
        if pv <= prev:
            failures.append(f"pivot of generator {name_idx} does not increase")
        prev = pv
        sup = g.support_vars()
        if pv not in sup:
            failures.append(f"generator {name_idx} misses its pivot variable x{pv}")
        if any(v > pv for v in sup):
            failures.append(f"generator {name_idx} involves variables beyond its pivot x{pv}")
    return failures


def _failed_trees(names, gens, expressions) -> list[str]:
    """Labels of the expression trees that do not evaluate to their targets."""
    env = dict(zip(names, gens))
    m = gens[0].m
    return [label for label, target, tree in expressions if eval_expr(tree, env, m) != target]


def _make_certificate(names, gens, pivots, expressions) -> GeneratorCertificate:
    bad = _check_support_chain(gens, pivots)
    if bad:
        raise ConstructionError("; ".join(bad))
    point, det = _sample_point_with_nonzero_jacobian(gens)
    failed = _failed_trees(names, gens, expressions)
    if failed:
        raise ConstructionError(f"expression tree for {failed[0]} does not evaluate to its target")
    return GeneratorCertificate(
        tuple(names), tuple(gens), tuple(pivots), point, det, tuple(expressions)
    )


def verify_polynomial_generators(
    cert: GeneratorCertificate, seeds: tuple[Seed, Seed]
) -> VerificationResult:
    """Re-check a certificate against a pair of disjoint-cluster seeds.

    Checks the support chain, which proves independence, and only when
    it holds recomputes the recorded Jacobian determinant as the chain's
    diagonal product.  Re-evaluates every expression tree, and checks
    that both clusters' mutable entries and all coefficients appear among
    the expressed targets; those are exactly the hypotheses under which
    the generated subalgebra equals the whole algebra and its two-cluster
    upper bound.
    """
    failures = []
    s0, s1 = seeds
    if not clusters_disjoint(s0, s1):
        failures.append("the two seeds' clusters are not disjoint")
    chain_failures = _check_support_chain(cert.generators, cert.pivot_vars)
    failures += chain_failures
    if not chain_failures:
        det = _jacobian_det(cert.generators, cert.sample_point)
        if det != cert.jacobian_det or det == 0:
            failures.append("Jacobian determinant at the recorded sample point does not match")
    bad = _failed_trees(cert.generator_names, cert.generators, cert.expressions)
    failures += [f"expression tree for {label} does not re-evaluate to its target" for label in bad]
    expressed = set(cert.generators) | {target for label, target, _ in cert.expressions if label not in bad}
    n = s0.profile.n
    needed = [(f"mutable entry {i + 1} of first cluster", v) for i, v in enumerate(s0.mutable_entries())]
    needed += [(f"mutable entry {i + 1} of second cluster", v) for i, v in enumerate(s1.mutable_entries())]
    needed += [(f"coefficient {n + i + 1}", v) for i, v in enumerate(s0.cluster[n:])]
    for what, v in needed:
        if v not in expressed:
            failures.append(f"{what} is not expressed in the generators")
    certified = (
        "generators are algebraically independent (triangular support chain, nonzero "
        "Jacobian) and generate both clusters and all coefficients; the algebra they "
        "span is a polynomial ring equal to the cluster algebra and to the two-cluster "
        "upper bound"
    )
    return VerificationResult(not failures, tuple(failures), certified)


# ---------------------------------------------------------------------------
# the linear chain family
# ---------------------------------------------------------------------------


def type_a_seed(m: int) -> Seed:
    """Tridiagonal seed on m variables with one non-invertible coefficient."""
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

    Stage i applies the word (1, 2, ..., m-i) to stage i-1.  The checked
    identities: each one-step mutation at position k of stage i equals
    (entry_{k-1} + entry_{k+1}) / entry_k, in every earlier stage's
    shifted coordinates as well; the initial variables and the stage-1
    entries satisfy the three-term recurrences through the chain heads.
    Conventions: entry 0 of any stage is 1, entry -1 is 0.
    """
    seed0 = type_a_seed(m)
    stages = [seed0]
    for i in range(1, m):
        stages.append(apply_word(stages[i - 1], range(1, m - i + 1)))

    def entry(stage: int, s: int) -> LaurentPoly:
        if s == 0:
            return LaurentPoly.const(m, 1)
        if s == -1:
            return LaurentPoly.zero(m)
        return stages[stage].cluster[s - 1]

    counts = {"three_term": 0, "shifted": 0, "initial_recurrence": 0, "stage1_recurrence": 0}

    # exchange-quotient identities, including the index-shifted variants
    for i in range(0, m - 1):
        for k in range(1, m - i):
            mutated = seed_mutate(stages[i], k).cluster[k - 1]
            # shift j = 0 is the three-term identity itself: checked once, counted in both
            for j in range(0, i + 1):
                if mutated * entry(i - j, k + j) != entry(i - j, k - 1 + j) + entry(i - j, k + 1 + j):
                    if j == 0:
                        raise ConstructionError(f"three-term identity failed at stage {i}, position {k}")
                    raise ConstructionError(
                        f"shifted three-term identity failed at stage {i}, position {k}, shift {j}"
                    )
                counts["shifted"] += 1
            counts["three_term"] += 1

    chain = tuple(stages[i].cluster[0] for i in range(m))
    var = lambda s: LaurentPoly.variable(m, s) if s >= 1 else LaurentPoly.const(m, 1)

    # initial variables from the chain heads
    for i in range(0, m - 1):
        if var(i + 2) != chain[i + 1] * var(i + 1) - var(i):
            raise ConstructionError(f"initial-variable recurrence failed at i={i}")
        counts["initial_recurrence"] += 1
    # stage-1 entries from the chain heads
    for i in range(0, m - 1):
        if entry(1, i + 1) != chain[i + 1] * entry(1, i) - entry(1, i - 1):
            raise ConstructionError(f"stage-1 recurrence failed at i={i}")
        counts["stage1_recurrence"] += 1

    # the same recurrence gives the trees of the initial variables (heads from
    # x1[0]) and of the stage-1 entries (heads from x1[1])
    names = [f"x1[{i}]" for i in range(m)]
    var_trees = _recurrence_trees(names)
    st1_trees = _recurrence_trees(names[1:])
    expressions = [(f"x{s}", var(s), var_trees[s]) for s in range(1, m + 1)]
    expressions += [(f"x{s}[1]", entry(1, s), st1_trees[s]) for s in range(1, m)]
    cert = _make_certificate(names, list(chain), list(range(1, m + 1)), expressions)
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
    shape; each new entry satisfies
    entry_k * x_k = x_{n+k} + prod_{i<k} entry_i^{b_ik} * prod_{i>k} x_i^{-b_ik};
    each coefficient is recovered as
    x_{n+k} = entry_k * x_k - prod_{i<k} entry_i^{b_ik} * prod_{i>k} x_i^{-b_ik}.
    """
    seed0 = acyclic_seed_from_cartan(C)
    n = seed0.profile.n
    mm = seed0.profile.m
    B0 = seed0.matrix
    counts = {"matrix_shapes": 0, "exchange": 0, "coefficient_recovery": 0}

    current = seed0
    for i in range(1, n + 1):
        current = seed_mutate(current, i)
        if current.matrix != staircase_intermediate_matrix(B0, i):
            raise ConstructionError(f"intermediate matrix after step {i} deviates from the block shape")
        counts["matrix_shapes"] += 1
    seed1 = current

    var = lambda i: LaurentPoly.variable(mm, i)
    names = [f"x{k}" for k in range(1, n + 1)] + [f"x{k}[1]" for k in range(1, n + 1)]
    gens = [var(k) for k in range(1, n + 1)] + list(seed1.cluster[:n])
    expressions = [(nm, g, ("gen", nm)) for nm, g in zip(names, gens)]
    tree_order = names[n:] + names[:n]  # recovery trees list the x_i[1] factors first

    for k in range(1, n + 1):
        tail = _staircase_tail(B0, k)
        tail_value = _compose([tail], gens)[0]
        if seed1.cluster[k - 1] * var(k) != var(n + k) + tail_value:
            raise ConstructionError(f"staircase exchange identity failed at k={k}")
        counts["exchange"] += 1
        if var(n + k) != seed1.cluster[k - 1] * var(k) - tail_value:
            raise ConstructionError(f"coefficient recovery failed at k={k}")
        counts["coefficient_recovery"] += 1
        exps = tail.terms[0][0]
        recovered = _monomial_expr(exps[n:] + exps[:n], tree_order)
        tree = ("sub", ("mul", ("gen", f"x{k}[1]"), ("gen", f"x{k}")), recovered)
        expressions.append((f"x{n + k}", var(n + k), tree))

    cert = _make_certificate(names, gens, list(range(1, 2 * n + 1)), expressions)
    return Staircase(seed0, seed1, cert, counts)


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

    def to_json(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "primed": [render_poly(p) for p in self.primed],
            "rows": [
                {
                    "exponents": list(r.exponents),
                    "combination": [{"monomial": list(mexp), "coeff": c} for mexp, c in r.combination],
                }
                for r in self.rows
            ],
        }


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
    """
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

    primed_formal = []
    for k in range(1, n + 1):
        # x_k * x_k' = x_{n+k} prod_{i<k} x_i^{b_ik} + prod_{i>k} x_i^{-b_ik} prod_{i<k} x_{n+i}^{b_ik},
        # with every coefficient x_{n+i} written as its recovery polynomial E_i
        exps = tails[k - 1].terms[0][0]
        head = E[k - 1] * LaurentPoly.monomial(2 * n, exps[n:] + (0,) * n)
        rhs = head + _compose([tails[k - 1]], x_and_E)[0]
        if not rhs.is_ordinary() or _compose([rhs], gens)[0] != gens[k - 1] * primed[k - 1]:
            raise ConstructionError(f"combination identity for the one-step mutation at {k} failed")
        quotient = exact_div(rhs, g(k))
        if not quotient.is_ordinary():
            raise ConstructionError(
                f"the combination identity at {k} is not divisible by generator {k}; construction falsified"
            )
        if _compose([quotient], gens)[0] != primed[k - 1]:
            raise ConstructionError(f"formal quotient at {k} does not evaluate to the mutation value")
        primed_formal.append(quotient)

    # enumerate the constrained monomials up to total degree
    rows = []

    def vectors(total: int, length: int):
        if length == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in vectors(total - head, length - 1):
                yield (head, *rest)

    for total in range(degree_bound + 1):
        for vec in vectors(total, 3 * n):
            if any(vec[k] and vec[2 * n + k] for k in range(n)):
                continue
            prod = _compose([LaurentPoly.monomial(3 * n, vec)], x_and_E + primed_formal)[0]
            rows.append(BfzExpansion(vec, prod.terms))

    return BfzTable(primed, tuple(primed_formal), tuple(E), tuple(rows), degree_bound)


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
    stages: tuple[Seed, ...]  # stage 0 (initial) through stage 6
    stage_words: tuple[tuple[int, ...], ...]
    full_word: tuple[int, ...]
    disjoint: bool

    @property
    def initial(self) -> Seed:
        return self.stages[0]

    @property
    def final(self) -> Seed:
        return self.stages[-1]


def lie_preset() -> LiePreset:
    """Run the six-stage mutation schedule on the rank-2 Kac-Moody seed.

    Verifies that the principal part is skew-symmetric and that the initial
    and final clusters are disjoint.  full_word is the concatenation of the
    stage words; applying it to the initial seed repeats the staged
    mutations in the same order, so it is not run again.  Every
    intermediate entry is an integer Laurent polynomial by construction; a
    failed exact division would abort the schedule.
    """
    B = lie_matrix()
    n = B.profile.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if B.entry(i, j) != -B.entry(j, i):
                raise ConstructionError("principal part of the preset matrix is not skew-symmetric")
    seed = Seed.initial(B)
    stages = [seed]
    for word in LIE_STAGE_WORDS:
        stages.append(apply_word(stages[-1], word))
    full_word = tuple(k for word in LIE_STAGE_WORDS for k in word)
    disjoint = clusters_disjoint(stages[0], stages[-1])
    if not disjoint:
        raise ConstructionError("initial and final clusters of the schedule are not disjoint")
    return LiePreset(tuple(stages), LIE_STAGE_WORDS, full_word, disjoint)
