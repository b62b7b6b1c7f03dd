"""Exact-arithmetic library for canonical Grothendieck polynomials, their
duals, and the solvable lattice models that compute them, together with
mechanical verification of the models' relations (RLL, eigenvector,
unitarity, inversion, commutation, Cauchy identities)."""

from .algebra import (
    ALPHA,
    BETA,
    BoundMismatch,
    DivisionByZero,
    Monomial,
    MultiPoly,
    NotExpandable,
    RationalFunction,
    TruncatedSeries,
    as_rf,
    poly_gcd,
    rf_from_json,
    rf_to_json,
    rf_to_json_text,
    rf_to_latex,
    rf_to_str,
    series_from_rf,
)
from .models import (
    LabelOutOfRange,
    RMatrixFamily,
    UndefinedAtBetaZero,
    WeightModel,
    rmatrix_entry,
    vertex_weight,
)
from .oracles import branch_poly, skew_weight
from .partitions import (
    NotContained,
    NotHorizontalStrip,
    column_multiplicities,
    conjugate,
    enumerate_partitions,
    horizontal_strip_subs,
    is_horizontal_strip,
    is_vertical_strip,
    outer_row_stat,
    row_multiplicities,
    skew_stats,
    subpartitions,
    vertical_strip_subs,
)
from .transfer import (
    DifferencePropertyViolation,
    TooFewInhomogeneities,
    TransferSpec,
    dual_groth_poly,
    generalized_poly,
    groth_poly,
    groth_poly_dual_route,
    j_poly,
    row_configuration_weight,
    skew_dual_groth_poly,
    skew_groth_poly,
    transfer_element,
)
from .identities import CheckReport, run_suite

__version__ = "0.1.0"
