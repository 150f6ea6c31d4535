"""Rank-profile-revealing PLUQ decomposition over prime fields.

One decomposition pass yields the row and column rank profiles of the input
matrix and of every leading submatrix, an in-place packed [L\\U, V; M, 0]
factor layout, a converter to the LEU form, and instrumented counters for the
delayed-modular-reduction cost model.
"""

from .field import PrimeField, inverse_mod, is_prime
from .leu import LeuFactors, check_triangular_extension, to_leu
from .matgen import gen_full_rank_generic, gen_rank_deficient_rect
from .matrix import DenseMatrix, OpCounts, Permutation, PluqFactors
from .oracle import (
    LeadingProfileTable,
    PleFactors,
    ple_row_major,
    r_ple_recurrence,
    r_pluq_closed_form,
)
from .rank_profile import col_rank_profile, leading_rank_profiles, row_rank_profile
from .recursive import DEFAULT_THRESHOLD, TrackingWorkspace, pluq, pluq_iterative

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "DEFAULT_THRESHOLD",
    "LeadingProfileTable",
    "LeuFactors",
    "OpCounts",
    "Permutation",
    "PleFactors",
    "PluqFactors",
    "PrimeField",
    "TrackingWorkspace",
    "check_triangular_extension",
    "col_rank_profile",
    "gen_full_rank_generic",
    "gen_rank_deficient_rect",
    "inverse_mod",
    "is_prime",
    "leading_rank_profiles",
    "ple_row_major",
    "pluq",
    "pluq_iterative",
    "r_ple_recurrence",
    "r_pluq_closed_form",
    "row_rank_profile",
    "to_leu",
]
