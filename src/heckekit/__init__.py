"""Exact symbolic toolkit for affine Hecke algebra modules.

Builds and verifies, over exact rational-function fields: the block
representation schema for affine Hecke algebras, Demazure-Whittaker and
Demazure-Lusztig operators with the Casselman-Shalika evaluation,
quantum-group R-matrices (twisted and untwisted) with Yang-Baxter and
triangularity checks, the wreath construction, and the metaplectic
scattering/Demazure apparatus.
"""

from .algebra import (
    GaussRules,
    LaurentPoly,
    NotDivisible,
    RationalFunction,
    exact_divide,
    rf_equal,
)
from .metaplectic import (
    MetaplecticDatum,
    rmatrix_dictionary_check,
    build_datum,
    cg_action,
    met_demazure,
    metaplectic_schema_instance,
    scattering_block,
    whittaker_value,
)
from .reports import Report
from .rmatrix import RMatrixSpec, TensorOperator, r_affine, r_gl, r_tilde, tensor_schema_instance
from .roots import CartanDatum, WeylElement, WeylGroup, build_cartan, weyl_character, weyl_group
from .schema import (
    BlockOperator,
    SchemaInstance,
    build_T,
    build_theta,
    check_bernstein,
    check_braid,
    check_quadratic,
    generic_instance,
    verify_instance,
)
from .whittaker import (
    DemazureVariant,
    apply_demazure,
    cs_rhs,
    demazure_variant,
    idempotent_apply,
    spherical_schema_instance,
    whittaker_schema_instance,
)

__all__ = [
    "BlockOperator",
    "CartanDatum",
    "DemazureVariant",
    "GaussRules",
    "LaurentPoly",
    "MetaplecticDatum",
    "NotDivisible",
    "RMatrixSpec",
    "RationalFunction",
    "Report",
    "SchemaInstance",
    "TensorOperator",
    "WeylElement",
    "WeylGroup",
    "apply_demazure",
    "rmatrix_dictionary_check",
    "build_T",
    "build_cartan",
    "build_datum",
    "build_theta",
    "cg_action",
    "check_bernstein",
    "check_braid",
    "check_quadratic",
    "cs_rhs",
    "demazure_variant",
    "exact_divide",
    "generic_instance",
    "idempotent_apply",
    "met_demazure",
    "metaplectic_schema_instance",
    "r_affine",
    "r_gl",
    "r_tilde",
    "rf_equal",
    "scattering_block",
    "spherical_schema_instance",
    "tensor_schema_instance",
    "verify_instance",
    "weyl_character",
    "weyl_group",
    "whittaker_schema_instance",
    "whittaker_value",
]

__version__ = "0.1.0"
