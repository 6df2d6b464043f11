"""Exact symbolic engine for cluster algebras of geometric type."""

from .analysis import (
    DegenerateColumn,
    FactorialityVerdict,
    InternalInvariantError,
    UnitForm,
    are_associate,
    classify_unit,
    clusters_disjoint,
    column_criterion,
    gcd_criterion,
    laurent_membership,
    staircase_disjoint,
    upper_bound_member,
)
from .constructions import (
    CartanMatrix,
    ConstructionError,
    GeneratorCertificate,
    VerificationResult,
    acyclic_seed_from_cartan,
    acyclic_staircase,
    bfz_basis_change,
    lie_preset,
    type_a_chain,
    type_a_seed,
    verify_polynomial_generators,
)
from .explore import ExplorationLimits, ExplorationReport, explore
from .laurent import (
    DimensionMismatch,
    ExponentRangeError,
    FieldTag,
    LaurentPoly,
    NotDivisible,
    ParseError,
    RationalFn,
    exact_div,
    parse_poly,
    poly_gcd,
    render_poly,
    xd_plus_one_reducible,
)
from .seeds import (
    ExchangeMatrix,
    InvalidSeed,
    Seed,
    SeedProfile,
    apply_word,
    exchange_monomials,
    is_acyclic,
    matrix_mutate,
    matrix_rank,
    parse_matrix,
    render_matrix,
    seed_mutate,
    skew_symmetrizer,
    validate,
)

__version__ = "0.1.0"
