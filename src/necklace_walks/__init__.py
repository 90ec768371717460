"""Continuous-time quantum walks on necklace graphs.

A necklace is a ring of K identical pearls (small graphs with designated
root vertices).  The package builds such graphs, block-diagonalizes their
adjacency Hamiltonians into K momentum sectors of pearl size, and analyzes
the walk's limiting distribution, total-variation convergence and mixing
time, validating everything against brute-force references.
"""

from .bloch import (
    FullSpectrum,
    SectorSpectrum,
    all_sector_eigenvalues,
    comb1_closed_form,
    comb2_closed_form,
    full_spectrum,
    lift_eigenvector,
    momentum,
    sector_matrix,
    sector_spectrum,
)
from .comb_analytics import (
    Comb1Coefficients,
    Comb1HighK,
    comb1_coefficients,
    comb1_high_k,
    comb1_limiting,
    comb1_limiting_distribution,
    cycle_limiting,
)
from .dynamics import (
    DegeneracyPartition,
    MixingResult,
    default_degeneracy_tolerance,
    degeneracy_partition,
    geometric_grid,
    limiting_distribution,
    mixing_time,
    probability_at_time,
    time_averaged,
    tv_convergence_bound,
    tv_distance,
    vertex_state,
)
from .eig import EigenDecomposition, eigh
from .errors import (
    AmbiguousDegeneracyWarning,
    DegenerateSpectrumError,
    InvalidMatrixError,
    InvalidParameterError,
    InvalidPearlError,
    NecklaceError,
    NumericalFailureError,
)
from .graphs import (
    NecklaceSpec,
    PearlSpec,
    assemble_hamiltonian,
    load_pearl_file,
    make_comb_pearl,
    make_custom_pearl,
    make_cycle_pearl,
    pearl_from_json,
    pearl_to_json,
)
from .mixing import (
    CosBoundReport,
    GapScanRecord,
    cos_bound_constant,
    cross_sector_min_gap,
    fit_loglog_slope,
    gap_scan,
    min_nonzero_gap,
    mixing_bound_curve,
)
from .oracle import brute_spectrum, evolve_matrix_exponential, quadrature_time_average

__version__ = "0.1.0"

__all__ = [
    "AmbiguousDegeneracyWarning",
    "Comb1Coefficients",
    "Comb1HighK",
    "CosBoundReport",
    "DegeneracyPartition",
    "DegenerateSpectrumError",
    "EigenDecomposition",
    "FullSpectrum",
    "GapScanRecord",
    "InvalidMatrixError",
    "InvalidParameterError",
    "InvalidPearlError",
    "MixingResult",
    "NecklaceError",
    "NecklaceSpec",
    "NumericalFailureError",
    "PearlSpec",
    "SectorSpectrum",
    "all_sector_eigenvalues",
    "assemble_hamiltonian",
    "brute_spectrum",
    "comb1_closed_form",
    "comb1_coefficients",
    "comb1_high_k",
    "comb1_limiting",
    "comb1_limiting_distribution",
    "comb2_closed_form",
    "cos_bound_constant",
    "cross_sector_min_gap",
    "cycle_limiting",
    "default_degeneracy_tolerance",
    "degeneracy_partition",
    "eigh",
    "evolve_matrix_exponential",
    "fit_loglog_slope",
    "full_spectrum",
    "gap_scan",
    "geometric_grid",
    "lift_eigenvector",
    "limiting_distribution",
    "load_pearl_file",
    "make_comb_pearl",
    "make_custom_pearl",
    "make_cycle_pearl",
    "min_nonzero_gap",
    "mixing_bound_curve",
    "mixing_time",
    "momentum",
    "pearl_from_json",
    "pearl_to_json",
    "probability_at_time",
    "quadrature_time_average",
    "sector_matrix",
    "sector_spectrum",
    "time_averaged",
    "tv_convergence_bound",
    "tv_distance",
    "vertex_state",
]
