"""The package's public names: each declared once, in the module that defines it."""

import importlib

import necklace_walks

PUBLIC_NAMES = [
    "AmbiguousDegeneracyWarning", "Comb1Coefficients", "Comb1HighK", "CosBoundReport",
    "DegeneracyPartition", "DegenerateSpectrumError", "EigenDecomposition", "FullSpectrum",
    "GapScanRecord", "InvalidMatrixError", "InvalidParameterError", "InvalidPearlError",
    "MixingResult", "NecklaceError", "NecklaceSpec", "NumericalFailureError", "PearlSpec",
    "all_sector_eigenvalues", "assemble_hamiltonian", "brute_spectrum",
    "comb1_closed_form", "comb1_coefficients", "comb1_high_k", "comb1_limiting",
    "comb1_limiting_distribution", "comb2_closed_form", "cos_bound_constant",
    "cross_sector_min_gap", "cycle_limiting", "default_degeneracy_tolerance",
    "degeneracy_partition", "eigh", "evolve_matrix_exponential", "fit_loglog_slope",
    "full_spectrum", "gap_scan", "geometric_grid",
    "limiting_distribution", "load_pearl_file", "make_comb_pearl", "make_custom_pearl",
    "make_cycle_pearl", "min_nonzero_gap", "mixing_bound_curve", "mixing_time", "momentum",
    "pearl_from_json", "probability_at_time", "quadrature_time_average",
    "sector_matrix", "sector_spectrum", "time_averaged", "tv_convergence_bound",
    "tv_distance", "vertex_state",
]

MODULES = ["bloch", "comb_analytics", "dynamics", "eig", "errors", "graphs", "mixing", "oracle"]


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 55
    assert sorted(necklace_walks.__all__) == sorted(PUBLIC_NAMES)


def test_each_name_is_declared_by_the_module_that_defines_it():
    declared = []
    for name in MODULES:
        module = importlib.import_module(f"necklace_walks.{name}")
        for public in module.__all__:
            assert getattr(module, public).__module__ == module.__name__, public
        declared += module.__all__
    assert sorted(declared) == sorted(PUBLIC_NAMES)       # no name listed twice


def test_each_export_is_the_defining_module_binding():
    for name in PUBLIC_NAMES:
        obj = getattr(necklace_walks, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from necklace_walks import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
