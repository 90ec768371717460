"""Every real-valued input fails closed: NaN, +/-inf and out-of-range values raise, warning-free."""

import math
import warnings

import numpy as np
import pytest

from necklace_walks import (
    InvalidMatrixError,
    InvalidParameterError,
    NecklaceSpec,
    NumericalFailureError,
    assemble_hamiltonian,
    brute_spectrum,
    cos_bound_constant,
    degeneracy_partition,
    eigh,
    evolve_matrix_exponential,
    full_spectrum,
    geometric_grid,
    limiting_distribution,
    make_comb_pearl,
    min_nonzero_gap,
    mixing_bound_curve,
    probability_at_time,
    quadrature_time_average,
    vertex_state,
)
from necklace_walks.dynamics import _PairAverager

NECKLACE = NecklaceSpec(make_comb_pearl(1), 8)
SPEC = full_spectrum(NECKLACE)
PHI = vertex_state(NECKLACE, 1, 1)
H = assemble_hamiltonian(NECKLACE)

NON_FINITE = [math.nan, math.inf, -math.inf]
POSITIVE = NON_FINITE + [0.0, -1.0]       # bad values of an input that must be > 0
NON_NEGATIVE = NON_FINITE + [-1.0]        # bad values of a time, which may be 0


def with_entry(array, value):
    """A copy of ``array`` with its first entry set to ``value``."""
    out = np.array(array, dtype=complex)
    out.flat[0] = value
    return out


def dense():
    return _PairAverager(SPEC.eigenvalues, SPEC.vectors, PHI, None)


# name: (call with one bad value, the bad values, the error it must raise)
CASES = {
    "state_norm": (lambda v: limiting_distribution(SPEC, with_entry(PHI, v)), NON_FINITE,
                   InvalidParameterError),
    "dense_averaged": (lambda v: dense().averaged(v), POSITIVE, InvalidParameterError),
    "dense_bound": (lambda v: dense().bound(v), POSITIVE, InvalidParameterError),
    "dense_tau_deg": (lambda v: _PairAverager(SPEC.eigenvalues, SPEC.vectors, PHI, v),
                      POSITIVE, InvalidParameterError),
    "grid_ratio": (lambda v: geometric_grid(1.0, 10.0, v), POSITIVE + [1.0],
                   InvalidParameterError),
    "partition_tau_deg": (lambda v: degeneracy_partition(SPEC.eigenvalues, v), POSITIVE,
                          InvalidParameterError),
    "probability_time": (lambda v: probability_at_time(SPEC, PHI, v), NON_NEGATIVE,
                         InvalidParameterError),
    "bound_curve_c": (lambda v: mixing_bound_curve(v, 8, 1.0), POSITIVE, InvalidParameterError),
    "bound_curve_K": (lambda v: mixing_bound_curve(1.0, v, 1.0), POSITIVE + [2.0],
                      InvalidParameterError),
    "bound_curve_T": (lambda v: mixing_bound_curve(1.0, 8, v), POSITIVE, InvalidParameterError),
    "min_gap_tau_deg": (lambda v: min_nonzero_gap(np.array([0.0, 0.0, 1.0]), v), POSITIVE,
                        InvalidParameterError),
    "cos_bound_tau_deg": (lambda v: cos_bound_constant(SPEC, 0, 1, tau_deg=v), POSITIVE,
                          InvalidParameterError),
    "evolve_time": (lambda v: evolve_matrix_exponential(H, PHI, v), NON_NEGATIVE,
                    InvalidParameterError),
    "quadrature_window": (lambda v: quadrature_time_average(H, PHI, v, 100), POSITIVE,
                          InvalidParameterError),
    # A NaN propagator fails the unitarity check instead of passing it.
    "evolve_unitarity": (lambda v: evolve_matrix_exponential(with_entry(H, v), PHI, 1.0),
                         [math.nan], NumericalFailureError),
    "eigh_entry": (lambda v: eigh(with_entry(H, v)), NON_FINITE, InvalidMatrixError),
    "brute_entry": (lambda v: brute_spectrum(with_entry(H, v)), NON_FINITE, InvalidMatrixError),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, values, _) in CASES.items() for value in values
])
def test_bad_value_is_refused_without_a_warning(name, value):
    call, _, error = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(value)
