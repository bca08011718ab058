"""Two-atom entangled state: reduced densities, impurity, entropy.

The initial state superposes "atom A excited" and "atom B excited" with
weight xi and relative phase phi:

    sqrt(xi) |1_A, 0_B> + sqrt(1 - xi) e^{i phi} |0_A, 1_B>,   0 < xi < 1,

each atom dressed by its own field.  Tracing the field modes out leaves a
4x4 two-atom density matrix whose only inputs are the survival amplitudes
f_AA(t) and f_BB(t); tracing out everything but one atom leaves a
projector-plus-rank-one matrix over that atom's dressed excitation basis.
The nonzero eigenvalues of the latter are {1 - xi, xi * sum_nu |f_A_nu|^2},
so unitarity of the amplitudes pins the von Neumann entropy to the
time-independent value -( (1-xi) ln(1-xi) + xi ln xi ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    NormalizationError,
    PhysicalityError,
    ValidationError,
)
from .evolution import amplitude_row
from .modes import ModeMatrix, build_matrix
from .params import SystemParams, _checked_times
from .spectrum import Spectrum, solve_spectrum

_AMPLITUDE_SLACK = 1e-6   # |f| may exceed 1 by at most this much
_EIGENVALUE_FLOOR = 1e-12  # eigenvalues below this are treated as exact zeros


@dataclass(frozen=True)
class EntangledStateConfig:
    """Superposition weight xi in (0, 1) and relative phase phi in [0, 2pi)."""

    xi: float
    phi: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.xi < 1.0):
            raise ValidationError(
                f"xi must lie strictly inside (0, 1), got {self.xi!r}"
            )
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValidationError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "phi", phi % (2.0 * math.pi))


@dataclass(frozen=True)
class TwoAtomReducedDensity:
    """4x4 reduced density matrix over the basis |00>, |01>, |10>, |11>."""

    elements: np.ndarray  # complex, Hermitian, unit trace
    p: float              # xi |f_AA|^2 + (1 - xi) |f_BB|^2

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.elements)

    def purity_defect(self) -> float:
        """1 - Tr[rho^2], evaluated directly from the matrix."""
        return float(1.0 - np.real(np.trace(self.elements @ self.elements)))


def _check_amplitude(name: str, f: complex) -> complex:
    f = complex(f)
    if not abs(f) <= 1.0 + _AMPLITUDE_SLACK:  # NaN fails the comparison
        raise PhysicalityError(f"|{name}| = {abs(f)} is not finite or exceeds 1")
    return f


def two_atom_reduced_density(
    f_aa: complex, f_bb: complex, config: EntangledStateConfig
) -> TwoAtomReducedDensity:
    """Two-atom reduced density matrix from the survival amplitudes.

    Nonzero entries, with basis order |00>, |01>, |10>, |11>:

        rho[00,00] = 1 - xi |f_AA|^2 - (1-xi) |f_BB|^2
        rho[01,01] = (1-xi) |f_BB|^2
        rho[10,10] = xi |f_AA|^2
        rho[10,01] = sqrt(xi(1-xi)) e^{i phi} conj(f_AA) f_BB   (+ h.c.)

    The doubly excited entry vanishes identically (single excitation),
    which makes the trace exactly one by construction.
    """
    f_aa = _check_amplitude("f_AA", f_aa)
    f_bb = _check_amplitude("f_BB", f_bb)
    xi = config.xi
    a = xi * abs(f_aa) ** 2
    b = (1.0 - xi) * abs(f_bb) ** 2
    coherence = (
        math.sqrt(xi * (1.0 - xi))
        * np.exp(1j * config.phi)
        * np.conj(f_aa)
        * f_bb
    )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 - a - b
    rho[1, 1] = b
    rho[2, 2] = a
    rho[2, 1] = coherence
    rho[1, 2] = np.conj(coherence)
    return TwoAtomReducedDensity(elements=rho, p=float(a + b))


def impurity(f_aa: complex, f_bb: complex, config: EntangledStateConfig) -> float:
    """Impurity D = 1 - Tr[rho^2] = 2p(1 - p) of the two-atom state.

    p = xi |f_AA|^2 + (1-xi) |f_BB|^2, evaluated as
    |f_BB|^2 + xi (|f_AA|^2 - |f_BB|^2) so that for identical atoms
    (f_AA = f_BB) the xi dependence cancels exactly and
    D = population_impurity(|f_00|^2).
    """
    f_aa = _check_amplitude("f_AA", f_aa)
    f_bb = _check_amplitude("f_BB", f_bb)
    p_bb = abs(f_bb) ** 2
    p = p_bb + config.xi * (abs(f_aa) ** 2 - p_bb)
    return float(population_impurity(p))


def population_impurity(p):
    """Impurity 2p(1 - p) of the two-atom state with excited population p.

    ``p`` is a scalar or an array.  Roundoff can lift a computed |f_00|^2 a
    few ulp above 1; p is clamped at 1 first, so the result stays in
    [0, 1/2] instead of dipping below zero.
    """
    p = np.minimum(p, 1.0)
    return 2.0 * p * (1.0 - p)


def single_atom_reduced_density(
    f_row: Sequence[complex], config: EntangledStateConfig
) -> np.ndarray:
    """Reduced density matrix of one dressed atom from its amplitude row.

    ``f_row`` holds v_nu = f_A_nu(t) over nu = 0..N (atom first).  The
    result is the complex (N+2, N+2) array (1 - xi) |ground><ground| +
    xi * v v^dagger over the basis {ground, one excitation in dressed
    mode nu}: entry [0, 0] is the ground-state weight 1 - xi, the rest
    the rank-one excitation block.
    """
    v = np.asarray(f_row, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ConsistencyError("f_row must be a one-dimensional amplitude vector")
    n = v.size
    rho = np.zeros((n + 1, n + 1), dtype=complex)
    rho[0, 0] = 1.0 - config.xi
    rho[1:, 1:] = config.xi * np.outer(v, np.conj(v))
    return rho


def von_neumann_entropy(eigenvalues) -> float | np.ndarray:
    """-sum alpha ln alpha over a probability spectrum, with 0 ln 0 = 0.

    The spectrum runs along the last axis: a single spectrum gives a
    float, a stack of spectra one entropy per leading index.  Eigenvalues
    may dip to -1e-10 (numerical noise) and are clipped to [0, 1];
    anything below 1e-12 is treated as an exact zero before the logarithm.
    Each spectrum must sum to one within 1e-6, which a spectrum holding
    a NaN or an infinity never does.
    """
    alpha = np.asarray(eigenvalues, dtype=float)
    single = alpha.ndim <= 1
    alpha = np.atleast_1d(alpha)
    if np.any(alpha < -1e-10):
        raise NormalizationError(
            f"eigenvalue {alpha.min()} is negative beyond tolerance"
        )
    totals = alpha.sum(axis=-1)
    off = ~(np.abs(totals - 1.0) <= 1e-6)  # a NaN total is off
    if np.any(off):
        raise NormalizationError(
            f"eigenvalues sum to {totals[off].flat[0]}, expected 1"
        )
    alpha = np.clip(alpha, 0.0, 1.0)
    keep = alpha > _EIGENVALUE_FLOOR
    terms = np.where(keep, alpha * np.log(np.where(keep, alpha, 1.0)), 0.0)
    entropy = -terms.sum(axis=-1)
    return float(entropy) if single else entropy


def rank_two_entropy(xi: float, row_norms: np.ndarray) -> np.ndarray:
    """Entropy of the single-atom reduced matrix at each time point.

    ``row_norms`` holds s(t) = sum_nu |f_A_nu(t)|^2 on a time grid; the
    reduced matrix has the two nonzero eigenvalues {1 - xi, xi * s(t)}, so
    no dense eigensolver is needed.  Unitarity (s = 1) gives
    ``analytic_entropy``.
    """
    s = np.asarray(row_norms, dtype=float)
    return von_neumann_entropy(np.stack([np.full(s.shape, 1.0 - xi), xi * s], -1))


def analytic_entropy(xi: float) -> float:
    """Entropy of the spectrum {1 - xi, xi}."""
    return von_neumann_entropy([1.0 - xi, xi])


@dataclass(frozen=True)
class EntropyFlatnessReport:
    """Numerically computed entanglement entropy across a time grid."""

    times: np.ndarray
    entropies: np.ndarray
    analytic: float                 # -( (1-xi) ln(1-xi) + xi ln xi )
    max_deviation: float            # max |E(t) - analytic|
    std_dev: float                  # spread of E(t) over the grid
    eigenvalue_defect: float        # max distance of spectra from {1-xi, xi}


def entropy_time_independence_check(
    params: SystemParams,
    config: EntangledStateConfig,
    time_grid: Sequence[float],
    matrix: Optional[ModeMatrix] = None,
    spectrum: Optional[Spectrum] = None,
) -> EntropyFlatnessReport:
    """Assemble rho_A(t) on a grid and compare its entropy to the constant.

    This is the dense verifier of ``rank_two_entropy``: every reduced
    matrix is diagonalized by a dense Hermitian eigensolver on the full
    truncated basis, an (N+2)^2 eigensolve per time point, and nothing
    about the known rank-2 structure is assumed.  Production entropies
    come from ``rank_two_entropy``; the CLI selftest runs this check at
    N <= 100 only.  Deviations are reported, never raised.  ``time_grid``
    goes to ``params._checked_times`` as it is (a scalar is a one-point
    grid); what that check refuses, and an empty grid, fail before any work.
    A phase Omega |t| past its limit fails once the roots are known,
    before the mode matrix is built.
    """
    times = _checked_times(time_grid)
    if times.size == 0:
        raise ValidationError("time_grid must hold at least one time")
    if spectrum is None:
        spectrum = solve_spectrum(params)
    _checked_times(times, spectrum.omegas)
    if matrix is None:
        matrix = build_matrix(params, spectrum)
    target = np.sort([1.0 - config.xi, config.xi])
    entropies = np.empty(times.size)
    eig_defect = 0.0
    for i, t in enumerate(times):
        row = amplitude_row(matrix, spectrum, 0, t)
        rho = single_atom_reduced_density(row, config)
        eig = np.linalg.eigvalsh(rho)
        entropies[i] = von_neumann_entropy(eig)
        eig_defect = max(eig_defect, float(np.abs(eig[-2:] - target).max()))
    analytic = analytic_entropy(config.xi)
    return EntropyFlatnessReport(
        times=times,
        entropies=entropies,
        analytic=analytic,
        max_deviation=float(np.abs(entropies - analytic).max()),
        std_dev=float(entropies.std()),
        eigenvalue_defect=eig_defect,
    )
