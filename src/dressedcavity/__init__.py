"""Dressed-atom dynamics in a spherical cavity.

Normal-mode spectra, single-excitation survival amplitudes, the two-atom
reduced density matrix with its impurity, and the von Neumann
entanglement entropy, for both finite cavities and the free-space limit.
"""

from .bipartite import (
    EntangledStateConfig,
    EntropyFlatnessReport,
    TwoAtomReducedDensity,
    analytic_entropy,
    entropy_time_independence_check,
    impurity,
    population_impurity,
    rank_two_entropy,
    single_atom_reduced_density,
    two_atom_reduced_density,
    von_neumann_entropy,
)
from .errors import (
    ApproximationDomainError,
    CavityModelError,
    ConfigurationError,
    ConsistencyError,
    NearResonanceError,
    NormalizationError,
    NumericDomainError,
    PhysicalityError,
    QuadratureError,
    RegimeError,
    SpectrumSolverError,
    ValidationError,
)
from .evolution import (
    amplitude_row,
    atom_amplitude,
    row_norms,
    small_cavity_amplitude_first_order,
    small_cavity_lower_bound,
    survival_probability,
    unitarity_defect,
)
from .freespace import (
    freespace_f00_closed,
    freespace_f00_numeric,
    freespace_survival_asymptotic,
    g_integral,
)
from .modes import (
    ModeMatrix,
    RawDefects,
    assemble_raw_matrix,
    atom_element,
    atom_row,
    build_matrix,
    raw_defects,
    small_cavity_elements,
)
from .params import (
    DEFAULT_N_MODES,
    SystemParams,
    make_params,
)
from .spectrum import (
    Spectrum,
    approx_spectrum_small_cavity,
    check_interlacing,
    newton_residuals,
    solve_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationDomainError",
    "CavityModelError",
    "ConfigurationError",
    "ConsistencyError",
    "DEFAULT_N_MODES",
    "EntangledStateConfig",
    "EntropyFlatnessReport",
    "ModeMatrix",
    "NearResonanceError",
    "NormalizationError",
    "NumericDomainError",
    "PhysicalityError",
    "QuadratureError",
    "RawDefects",
    "RegimeError",
    "Spectrum",
    "SpectrumSolverError",
    "SystemParams",
    "TwoAtomReducedDensity",
    "ValidationError",
    "amplitude_row",
    "analytic_entropy",
    "approx_spectrum_small_cavity",
    "assemble_raw_matrix",
    "atom_amplitude",
    "atom_element",
    "atom_row",
    "build_matrix",
    "check_interlacing",
    "entropy_time_independence_check",
    "freespace_f00_closed",
    "freespace_f00_numeric",
    "freespace_survival_asymptotic",
    "g_integral",
    "impurity",
    "make_params",
    "newton_residuals",
    "population_impurity",
    "rank_two_entropy",
    "raw_defects",
    "row_norms",
    "single_atom_reduced_density",
    "small_cavity_amplitude_first_order",
    "small_cavity_elements",
    "small_cavity_lower_bound",
    "solve_spectrum",
    "survival_probability",
    "two_atom_reduced_density",
    "unitarity_defect",
    "von_neumann_entropy",
]
