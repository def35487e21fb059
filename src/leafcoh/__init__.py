"""leafcoh: exact twisted leafwise cohomology on polynomial foliation models.

The package computes, with exact Gaussian-rational arithmetic, the action of
the leafwise Cauchy-Riemann operators and their twisted variants on foliated
(p,q)-forms, the resulting Dolbeault / Bott-Chern / Aeppli dimensions, and
the relative and Mayer-Vietoris long exact sequences.
"""

from importlib import import_module as _import_module

from .algebra import GaussianRational, Series, SeriesError, parse_series
from .forms import (
    FoliatedForm,
    FoliationModel,
    FormError,
    basis_dimension,
    basis_form,
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

# The linear algebra, the cohomology engine, the suites and the sequence
# engine are imported on first use of one of their names (PEP 562), so a
# process that runs none of them never compiles or loads them: a check job
# other than pairing runs on the modules above alone.  Those load first, as
# every command needs them.  Compiling cli.py before a module raises a
# process's peak RSS (BENCH_14.json); grid jobs pay that for cohomology and
# linalg, 0.4-0.5 MB (BENCH_27.json).
_LAZY = {
    "linalg": ("Matrix", "Subspace", "kernel_basis", "rank", "solve"),
    "cohomology": (
        "aeppli_row",
        "bott_chern_row",
        "canonical_map_row",
        "cohomology_grid",
        "dolbeault_row",
        "operator_matrix",
        "solve_primitive",
        "solve_primitive_tilde",
    ),
    "checks": ("pairing_check",),
    "sequences": (
        "ChainMap",
        "CochainComplex",
        "CoverValidationError",
        "MayerVietorisCover",
        "SESValidationError",
        "ShortExactSequence",
        "corollary_boundary_report",
        "degenerate_cover",
        "delta_equals_pullback_check",
        "laurent_cover",
        "make_mv_ses",
        "make_relative_complex",
        "relative_les",
        "snake_les",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME))
