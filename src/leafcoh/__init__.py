"""leafcoh: exact twisted leafwise cohomology on polynomial foliation models.

The package computes, with exact Gaussian-rational arithmetic, the action of
the leafwise Cauchy-Riemann operators and their twisted variants on foliated
(p,q)-forms, the resulting Dolbeault / Bott-Chern / Aeppli dimensions, and
the relative and Mayer-Vietoris long exact sequences.
"""

from .algebra import GaussianRational, Series, SeriesError, parse_series
from .forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    basis_dimension,
    enumerate_basis,
    rescale_power,
)
from .operators import (
    FoliatedMorphism,
    MorphismError,
    MorphismPair,
    dbar,
    dbar_f,
    dbar_f_k,
    pair_pullback,
    partial,
    partial_f,
    pullback,
    tilde_dbar,
)
from .linalg import Matrix, Quotient, Subspace, dense_vector, kernel_basis, rank, solve, sparse_vector
from .cohomology import (
    aeppli_row,
    bott_chern_row,
    canonical_map_row,
    cohomology_grid,
    dolbeault_row,
    operator_matrix,
    solve_primitive,
    solve_primitive_tilde,
)
from .checks import pairing_check
from .sequences import (
    ChainMap,
    CochainComplex,
    CoverValidationError,
    MayerVietorisCover,
    SESValidationError,
    ShortExactSequence,
    corollary_boundary_report,
    degenerate_cover,
    delta_equals_pullback_check,
    laurent_cover,
    make_mv_ses,
    make_relative_complex,
    relative_les,
    snake_les,
)

__version__ = "0.1.0"
