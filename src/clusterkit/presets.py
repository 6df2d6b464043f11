"""Named presets: one-command reproduction of the worked examples."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .analysis import FieldTag, InternalInvariantError, column_criterion, gcd_criterion
from .constructions import (
    LIE_STAGE_WORDS,
    CartanMatrix,
    ConstructionError,
    acyclic_seed_from_cartan,
    acyclic_staircase,
    lie_matrix,
    lie_preset,
    type_a_chain,
    type_a_seed,
    verify_polynomial_generators,
)
from .laurent import LaurentPoly, NotDivisible, exact_div
from .seeds import ExchangeMatrix, Seed, SeedProfile, matrix_rank, seed_mutate

# errors an internal check raises: an identity failed, not the input
INTERNAL_ERRORS = (ConstructionError, NotDivisible, InternalInvariantError)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    matrix: Callable[[], ExchangeMatrix]
    run_checks: Callable[[], list[Check]]

    def verify(self) -> list[Check]:
        """Run the checks; an error raised inside them becomes one failed check."""
        try:
            return self.run_checks()
        except INTERNAL_ERRORS as exc:
            return [Check("verification runs to completion", False, f"{type(exc).__name__}: {exc}")]


def a3_matrix() -> ExchangeMatrix:
    return ExchangeMatrix([[0, -1, 0], [1, 0, -1], [0, 1, 0]], SeedProfile(3, 3, 3))


def lampe_matrix() -> ExchangeMatrix:
    return ExchangeMatrix([[0, -2], [2, 0]], SeedProfile(2, 2, 2))


def acyclic_n3_cartan() -> CartanMatrix:
    return CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])


def _verify_a3() -> list[Check]:
    seed = Seed.initial(a3_matrix())
    s1 = seed_mutate(seed, 1)
    s13 = seed_mutate(s1, 3)
    one = LaurentPoly.const(3, 1)
    x = lambda i: LaurentPoly.variable(3, i)
    z1 = exact_div(one + x(2), x(1))
    z3 = exact_div(one + x(2), x(3))
    checks = [
        Check("first mutated entry equals (1 + x2)/x1", s13.cluster[0] == z1),
        Check("third mutated entry equals (1 + x2)/x3", s13.cluster[2] == z3),
        Check("witness identity x1*z1 = x3*z3", x(1) * z1 == x(3) * z3),
    ]
    verdict = column_criterion(a3_matrix())
    checks.append(
        Check(
            "column criterion: not factorial with witness (1, 3)",
            verdict.is_not_factorial and (verdict.witness.k, verdict.witness.s) == (1, 3),
            verdict.justification,
        )
    )
    return checks


def _verify_lampe() -> list[Check]:
    B = lampe_matrix()
    over_c = gcd_criterion(B, FieldTag.COMPLEXES)
    over_q = gcd_criterion(B, FieldTag.RATIONALS)
    return [
        Check(
            "gcd criterion over C: not factorial with k=1, d=2",
            over_c.is_not_factorial and over_c.witness.k == 1 and over_c.witness.d == 2,
            over_c.justification,
        ),
        Check("gcd criterion over Q: inconclusive", over_q.status == "inconclusive", over_q.justification),
        Check("column criterion: inconclusive", column_criterion(B).status == "inconclusive"),
        Check("matrix has maximal rank 2", matrix_rank(B) == 2),
    ]


def _verify_type_a(m: int) -> Callable[[], list[Check]]:
    def run() -> list[Check]:
        res = type_a_chain(m)
        vr = verify_polynomial_generators(res.certificate, res.disjoint_pair)
        expected = {"three_term": m * (m - 1) // 2, "shifted": math.comb(m + 1, 3)}
        expected["initial_recurrence"] = expected["stage1_recurrence"] = m - 1
        return [
            Check(f"chain identities hold for m={m}", res.identity_counts == expected, str(res.identity_counts)),
            Check("polynomial-ring certificate verifies", vr.ok, "; ".join(vr.failures)),
        ]

    return run


def _verify_acyclic_n3() -> list[Check]:
    st = acyclic_staircase(acyclic_n3_cartan())
    m = 6
    x = lambda i: LaurentPoly.variable(m, i)
    w1 = exact_div(x(2) ** 2 + x(4), x(1))
    w2 = exact_div(
        x(2) ** 4 * x(3) + 2 * x(2) ** 2 * x(3) * x(4) + x(3) * x(4) ** 2 + x(1) ** 2 * x(5),
        x(1) ** 2 * x(2),
    )
    w3 = exact_div(
        x(2) ** 4 * x(3)
        + 2 * x(2) ** 2 * x(3) * x(4)
        + x(3) * x(4) ** 2
        + x(1) ** 2 * x(5)
        + x(1) ** 2 * x(2) * x(6),
        x(1) ** 2 * x(2) * x(3),
    )
    vr = verify_polynomial_generators(st.certificate, st.disjoint_pair)
    return [
        Check("staircase entry 1 matches the closed formula", st.mutated.cluster[0] == w1),
        Check("staircase entry 2 matches the closed formula", st.mutated.cluster[1] == w2),
        Check("staircase entry 3 matches the closed formula", st.mutated.cluster[2] == w3),
        Check("intermediate matrices match the block shapes", st.identity_counts["matrix_shapes"] == 3),
        Check("polynomial-ring certificate verifies", vr.ok, "; ".join(vr.failures)),
    ]


def _verify_lie() -> list[Check]:
    lp = lie_preset()
    # stage i's word is stage i-1's word followed by the i-th schedule entry
    prefixes = [sum(LIE_STAGE_WORDS[:i], ()) for i in range(len(LIE_STAGE_WORDS) + 1)]
    completed = [s.word for s in lp.stages] == prefixes
    return [
        Check(
            "six-stage schedule runs to completion", completed, f"word {','.join(map(str, lp.stages[-1].word))}"
        ),
        Check("initial and final clusters are disjoint", lp.disjoint),
        Check(
            "all entries are integer Laurent polynomials",
            all(type(c) is int for s in lp.stages for e in s.cluster for c in e.coefficients),
        ),
    ]


def _registry() -> dict[str, Preset]:
    presets = {
        "a3": Preset(
            "a3",
            "3 x 3 skew-symmetric seed of the smallest non-factorial finite-type example",
            a3_matrix,
            _verify_a3,
        ),
        "lampe": Preset(
            "lampe",
            "2 x 2 maximal-rank seed that is not factorial over the complexes",
            lampe_matrix,
            _verify_lampe,
        ),
        "acyclic-n3": Preset(
            "acyclic-n3",
            "6 x 3 acyclic seed built from a rank-3 generalized Cartan matrix",
            lambda: acyclic_seed_from_cartan(acyclic_n3_cartan()).matrix,
            _verify_acyclic_n3,
        ),
        "lie-rank2": Preset(
            "lie-rank2",
            "8 x 6 rank-2 Kac-Moody seed with its six-stage mutation schedule",
            lie_matrix,
            _verify_lie,
        ),
    }
    for m in range(2, 9):
        presets[f"type-a-m{m}"] = Preset(
            f"type-a-m{m}",
            f"tridiagonal chain seed on {m} variables with one frozen coefficient",
            (lambda mm: lambda: type_a_seed(mm).matrix)(m),
            _verify_type_a(m),
        )
    return presets


PRESETS = _registry()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; available: {known}") from None
