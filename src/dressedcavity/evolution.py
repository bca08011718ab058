"""Time evolution of single-excitation amplitudes in a finite cavity.

The probability amplitude that an initially excited dressed oscillator
``mu`` is found excited in dressed oscillator ``nu`` at time t is the mode
sum

    f_mu_nu(t) = sum_s  T[mu, s] * T[nu, s] * exp(-i * Omega_s * t)

over the normal modes s.  With the orthogonalized mode matrix the family
f_mu_nu is exactly unitary at any truncation: f_mu_nu(0) = delta_mu_nu and
sum_nu |f_mu_nu(t)|^2 = 1 for all t, to machine precision.

Sums over one weight vector factor each phase on a uniform time grid:
``_phase_sum``, which gives the atom row and the first-order series.  For
t_j = t_0 + j h, cut into blocks of B = ceil(sqrt(T)) times, the time
t_{bB+k} is the block start t_{bB} plus the offset k h, so

    exp(-i Omega_s t_{bB+k}) = exp(-i Omega_s t_{bB}) * exp(-i Omega_s k h).

The B offset phases per mode are exponentiated once per grid and the
block-start phases once per block, about 2 sqrt(T) (N+1) complex
exponentials instead of T (N+1), with the roundoff of the direct sum,
eps * Omega_s * t.  Any other grid takes B = 1, the direct sum.

Whole rows f_mu_nu over every nu (:func:`amplitude_row`, :func:`row_norms`)
take direct phases and two real products with the mode matrix
(``_row_parts``): their T (N+1) exponentials cost less than the
2 T (N+1)^2 flops of the products.  Temporaries hold
O((B + ``_TIME_CHUNK``) (N+1)) numbers whatever the length of the grid.

The atom's own amplitude f_00 needs only the atom row T[0, :], such as
that of ``modes.atom_row``: :func:`atom_amplitude` is its mode sum, and
the survival |f_00|^2 its squared modulus (:func:`survival_probability`
for row 0 of a matrix).  The first-order series
:func:`small_cavity_amplitude_first_order` is the same ``_phase_sum``.

The row also fixes the two-atom entropy.  Its time dependence enters
through s(t) = sum_nu |f_0_nu(t)|^2 = sum_s T[0, s]^2 |exp(-i Omega_s t)|^2
when T^T T = I, so for the orthogonal repaired matrix s(t) is the constant
sum_s T[0, s]^2 = 1 in exact arithmetic, and the entropy is
``bipartite.analytic_entropy(xi)``: ``cli evolve`` takes that constant.
:func:`row_norms` keeps the time-resolved sum over every nu as the dense
check of the identity (``cli selftest``, ``unitarity_defect``).

Index convention: mu = 0 is the atom, mu = 1..N the dressed field modes.
One check each refuses a row or matrix whose columns do not pair with the
roots (``_check_pair``, :class:`ConsistencyError`), a mu outside 0..N
(``_checked_mu``, :class:`ValidationError`), and ``params._checked_times``
a time argument that is not real or has two axes (:class:`ValidationError`)
or is not finite, or takes a phase Omega t past 2^52 rad
(:class:`ApproximationDomainError`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ApproximationDomainError, ConsistencyError, ValidationError
from .modes import ModeMatrix, small_cavity_elements
from .params import SystemParams, _checked_times
from .spectrum import (
    Spectrum,
    approx_spectrum_small_cavity,
    require_small_cavity_domain,
)

# times (or block starts) per chunk of a grid: bounds the phase temporaries
_TIME_CHUNK = 256
# a grid is uniform when every t_j lies within this many ulps of t_0 + j h
_UNIFORM_ULPS = 4


def _check_pair(columns: np.ndarray, omegas: np.ndarray, ndim: int) -> None:
    """Refuse a mode array, an atom row (``ndim`` 1) or a matrix (2), whose
    columns do not pair one to one with the roots ``omegas``."""
    if columns.ndim != ndim or columns.shape[-1] != omegas.size:
        raise ConsistencyError(
            f"mode array of shape {columns.shape} does not pair with "
            f"{omegas.size} roots"
        )


def _phases(omegas: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i * omegas[s] * times[j]) as a (modes x times) matrix."""
    return np.exp(-1j * np.outer(omegas, times))


def _phase_sum(omegas: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """sum_s weights[s] * exp(-i * omegas[s] * t) for every t of the grid.

    A grid is uniform, with B = ceil(sqrt(T)), when it has more than two
    points and each t_j lies within ``_UNIFORM_ULPS`` ulps of t_0 + j h,
    h = (t_{T-1} - t_0)/(T - 1) (``np.linspace`` output passes); any other
    grid takes B = 1.  ``table[s, k] = weights[s] exp(-i omegas[s] k h)``
    for k < B, whose column 0 is ``weights`` itself, and the block-start
    phases V[s, b] = exp(-i omegas[s] t_{bB}) give the sums block by block
    as ``V.T @ table``, up to ``max(_TIME_CHUNK, B)`` blocks per product:
    one product for any uniform grid.  Each factor carries a phase error of
    order eps * omegas[s] * t, as the direct phase does, and a uniform t_j
    differs from t_{bB} + k h by a few ulps of the largest t.  Against a
    long-double reference the error stays within 2 eps sum_s |weights[s]|
    (1 + omegas[s] t_max); measured up to 0.30 of that on uniform grids,
    against 0.11 for the direct sum
    (``test_phase_sum_matches_long_double_reference``).
    """
    times = _checked_times(times, omegas)
    n = times.size
    b, h = 1, 0.0
    if n > 2:
        h = (times[-1] - times[0]) / (n - 1)
        drift = np.abs(times - (times[0] + h * np.arange(n)))
        if np.all(drift <= _UNIFORM_ULPS * np.spacing(np.abs(times).max())):
            b = int(np.ceil(np.sqrt(n)))
    table = np.empty((omegas.size, b), dtype=complex)
    table[:, 0] = weights
    table[:, 1:] = weights[:, None] * _phases(omegas, h * np.arange(1, b))
    starts = times[::b]
    sums = np.empty((starts.size, b), dtype=complex)
    step = max(_TIME_CHUNK, b)
    for i in range(0, starts.size, step):
        sums[i : i + step] = _phases(omegas, starts[i : i + step]).T @ table
    return sums.ravel()[:n]


def _checked_mu(entries: np.ndarray, mu) -> int:
    """``mu``, refused unless an integer row index 0..N of ``entries``."""
    n = entries.shape[0] - 1
    if not (np.issubdtype(type(mu), np.integer) and 0 <= mu <= n):  # bool is not one
        raise ValidationError(f"mu must be an integer from 0 to {n}, got {mu!r}")
    return mu


def _row_parts(entries: np.ndarray, omegas: np.ndarray, mu: int, times: np.ndarray):
    """Real and imaginary parts of f_mu_nu(t), (N+1) x times each, as two
    real products of ``entries`` with the phased row ``entries[mu]``."""
    x = entries[_checked_mu(entries, mu)][:, None] * _phases(omegas, times)
    return entries @ x.real, entries @ x.imag


def amplitude_row(
    matrix: ModeMatrix, spectrum: Spectrum, mu: int, t: float
) -> np.ndarray:
    """All amplitudes f_mu_nu(t) for nu = 0..N as a complex vector, at
    exactly one time t: a t with an axis raises :class:`ValidationError`.

    Negative t is accepted: f_mu_nu(-t) = conj(f_mu_nu(t)).
    """
    _check_pair(matrix.entries, spectrum.omegas, 2)
    times = _checked_times(t, spectrum.omegas)
    if np.ndim(t) > 0:
        raise ValidationError(f"amplitude_row takes one time, got shape {np.shape(t)}")
    re, im = _row_parts(matrix.entries, spectrum.omegas, mu, times)
    return re[:, 0] + 1j * im[:, 0]


def atom_amplitude(row: np.ndarray, spectrum: Spectrum, t) -> np.ndarray:
    """Complex f_00(t) = sum_s row[s]^2 exp(-i Omega_s t) on a scalar or grid
    of times, from the atom row T[0, :] alone (``modes.atom_row``)."""
    _check_pair(row, spectrum.omegas, 1)
    return _phase_sum(spectrum.omegas, row**2, t)


def survival_probability(matrix: ModeMatrix, spectrum: Spectrum, t):
    """|f_00(t)|^2: a float for a scalar t, an array for any grid."""
    out = np.abs(atom_amplitude(matrix.entries[0], spectrum, t)) ** 2
    return float(out[0]) if np.ndim(t) == 0 else out


def row_norms(entries: np.ndarray, omegas: np.ndarray, mu: int, times) -> np.ndarray:
    """sum_nu |f_mu_nu(t)|^2 for every t, evaluated without rank shortcuts.

    ``entries`` is any (N+1)^2 mode matrix whose columns pair with
    ``omegas``, so the unrepaired matrix passes through the same sum,
    taken ``_TIME_CHUNK`` times at a time.
    """
    _check_pair(entries, omegas, 2)
    _checked_mu(entries, mu)  # also on an empty grid, which _row_parts never sees
    times = _checked_times(times, omegas)
    sums = np.empty(times.size)
    for i in range(0, times.size, _TIME_CHUNK):
        yr, yi = _row_parts(entries, omegas, mu, times[i : i + _TIME_CHUNK])
        sums[i : i + _TIME_CHUNK] = (yr**2 + yi**2).sum(axis=0)
    return sums


def unitarity_defect(matrix: ModeMatrix, spectrum: Spectrum, mu: int, times) -> float:
    """max over a non-empty grid of |1 - sum_nu |f_mu_nu(t)|^2|."""
    sums = row_norms(matrix.entries, spectrum.omegas, mu, times)
    if sums.size == 0:
        raise ValidationError("times must hold at least one time")
    return float(np.abs(1.0 - sums).max())


def small_cavity_amplitude_first_order(
    params: SystemParams, t, k_terms: int = 1000
) -> np.ndarray:
    """First-order small-cavity f_00(t), the mode sum of a model of
    ``k_terms`` field modes,

        sum_s w_s e^{-i Omega_s t},  w = (t00^2, tk0^2 ...),

    with the frequencies of ``spectrum.approx_spectrum_small_cavity`` and
    the squared atom-row entries of ``modes.small_cavity_elements``.  Its
    |f|^2 is the first-order survival: the double cosine series in
    cos((Omega_0 - Omega_k) t) and cos((Omega_k - Omega_l) t), weights
    (8 delta/pi) k^{-2} and (16 delta^2/pi^2) k^{-2} l^{-2}, summed with
    better conditioning.  Cutting the k sum at K = ``k_terms`` leaves a
    survival tail of at most (8 delta/pi)/K.  The model's domain is
    theirs: it refuses delta >= 0.5 and delta >= 2 g^2/(pi omega_bar^2),
    and warns above delta = 0.2.
    """
    if k_terms < 1:
        raise ApproximationDomainError("series needs at least one k term")
    model = replace(params, n_modes=k_terms)
    omegas = approx_spectrum_small_cavity(model)
    t00_sq, tk0_sq = small_cavity_elements(model)
    return _phase_sum(omegas, np.concatenate(([t00_sq], tk0_sq)), t)


def small_cavity_lower_bound(params: SystemParams) -> float:
    """Time-independent lower bound on the small-cavity survival.

    (1 + 2 pi delta/3)^(-2) * (1 - 4 pi delta/3 - 4 pi^2 delta^2/9),
    obtained by sending every oscillating term of the first-order series
    to -1.  It refuses what the series refuses
    (:func:`spectrum.require_small_cavity_domain`), and the bracket turns
    negative for delta above about 0.198, where the bound carries no
    information and the request is rejected too.
    """
    require_small_cavity_domain(params)
    d = params.delta
    bracket = 1.0 - 4.0 * np.pi * d / 3.0 - 4.0 * np.pi**2 * d**2 / 9.0
    if bracket < 0.0:
        raise ApproximationDomainError(
            f"lower bound undefined (negative bracket) for delta={d}"
        )
    return float((1.0 + 2.0 * np.pi * d / 3.0) ** -2 * bracket)
