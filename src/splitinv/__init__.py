"""Exact computation of splitting invariants attached to pinned
automorphisms, canonical Weyl-lift arithmetic, local quadratic sign
characters, and the transfer-factor exponent calculus."""

from .coeffs import (
    LocalPlace,
    PrimeField,
    QuadConj,
    QuadField,
    QuadNum,
    RationalField,
    SignedSymbolMap,
    SymUnit,
    hilbert_symbol,
    hilbert_symbol_bruteforce,
    is_square_at,
    quad_norm_sign,
)
from .factors import (
    EndoscopicSignDatum,
    FactorExpression,
    RootOfUnity,
    adata_change_sign,
    build_factor_expression,
    chi_invariance_check,
    comes_from_h,
    delta_d_via_inverse_chi,
    delta_i_ratio,
    half_on_divisible,
    restricted_galois_orbits,
)
from .matoracle import MatrixContext, ad, adprime, realize, verify_appendix
from .rootdata import (
    PinnedAutomorphism,
    RestrictedRootSystem,
    RootAutomorphism,
    RootDatum,
    WeylElement,
    analyze_weyl,
    build_root_datum,
    levi_component,
    restrict_root_system,
)
from .splitting import (
    ADatum,
    DescentDatum,
    Realization,
    SplittingCocycle,
    check_nn_prime,
    compare_fixed_vs_twisted,
    equivariant_quad_adata,
    lambda_twisted,
    lambda_untwisted,
    lift_discrepancy,
    sample_h_twisted,
    verify_borel_independence,
)
from .tits import TitsElement, TorusElement, m_cocycle, tits_cocycle, tits_lift, x_of

__version__ = "0.1.0"
