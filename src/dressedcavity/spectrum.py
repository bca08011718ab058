"""Normal-mode eigenfrequencies of the coupled atom-field system.

For a cavity of radius R at wave speed c the collective mode frequencies
are the roots of

    cot(R*Omega/c) = Omega/(2g) + (c/(R*Omega)) * (1 - R*omega_bar^2/(2gc))

The code works in units with c = 1, where ``params.radius`` is
R/c = pi/delta_omega.  There is exactly one root per cotangent branch: the
left side falls from +inf to -inf across each open interval
(r*delta_omega, (r+1)*delta_omega) while the right side is continuous
there.  The mismatch, left side minus right, is therefore +inf at each
lower end and -inf at each upper one; on branch 0 the two 1/(R*Omega)
poles cancel to leave omega_bar^2/(2g*Omega), still +inf at 0.  So
bisection of each branch from its exact ends, by the sign of the mismatch
at the midpoint alone, is an exhaustive and derivative-free solver.
Branches are indexed r = 0..n_modes; interlacing
r*delta_omega < Omega_r < (r+1)*delta_omega holds for every root.  A
:class:`Spectrum` holds these roots and their residuals only; the
first-order small-cavity values of :func:`approx_spectrum_small_cavity`
are a plain frequency array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationDomainError, SpectrumSolverError
from .params import SystemParams

@dataclass(frozen=True)
class Spectrum:
    """Ordered normal-mode frequencies with per-root accuracy estimates.

    ``residuals[r]`` is the Newton correction |F(Omega_r)/F'(Omega_r)| of
    the eigenfrequency mismatch F, i.e. the estimated distance to the true
    root in frequency units.  That is the natural accuracy measure for
    this equation: the raw mismatch value itself is pole-amplified by
    F' ~ (R/c)(1 + cot^2) and grows like r^2 along the spectrum, so it is
    not a usable cross-branch diagnostic in double precision.
    """

    omegas: np.ndarray      # shape (n_modes+1,), strictly increasing
    residuals: np.ndarray   # shape (n_modes+1,), frequency units

    @property
    def n_modes(self) -> int:
        """Field modes the roots pair with: one root per branch 0..n_modes."""
        return self.omegas.size - 1


def _mismatch_raw(params: SystemParams, omega: np.ndarray) -> np.ndarray:
    u = params.radius * omega
    rhs_const = 1.0 - params.radius * params.omega_bar**2 / (2.0 * params.g)
    return np.cos(u) / np.sin(u) - (
        omega / (2.0 * params.g) + (1.0 / (params.radius * omega)) * rhs_const
    )


def _mismatch_derivative(params: SystemParams, omega: np.ndarray) -> np.ndarray:
    u = params.radius * omega
    rhs_const = 1.0 - params.radius * params.omega_bar**2 / (2.0 * params.g)
    return -params.radius / np.sin(u) ** 2 - (
        1.0 / (2.0 * params.g)
        - (1.0 / (params.radius * omega**2)) * rhs_const
    )


def newton_residuals(params: SystemParams, omegas: np.ndarray) -> np.ndarray:
    """|F/F'| at the given frequencies: estimated distance to the true root."""
    omegas = np.asarray(omegas, dtype=float)
    return np.abs(_mismatch_raw(params, omegas) / _mismatch_derivative(params, omegas))


def solve_spectrum(params: SystemParams) -> Spectrum:
    """Solve all n_modes+1 branches of the eigenfrequency equation.

    Bisection runs on every branch simultaneously from its exact ends
    r*delta_omega and (r+1)*delta_omega, keeping at each step the half
    that the sign of the mismatch at the midpoint names: the mismatch is
    +inf at each branch's lower end and -inf at its upper one, so no end
    is ever evaluated and no bracket needs checking.  The brackets
    collapse to machine width (at most a couple of ulps of the root), far
    inside the 1e-12 relative-width contract.

    Raises
    ------
    SpectrumSolverError
        Naming the first branch whose root did not land strictly inside
        it, as it can where the root lies within an ulp of a pole.
    """
    r = np.arange(params.n_modes + 1, dtype=float)
    lo = r * params.delta_omega
    hi = (r + 1.0) * params.delta_omega
    a, b = lo, hi
    for _ in range(120):
        mid = 0.5 * (a + b)
        left_of_root = _mismatch_raw(params, mid) > 0.0
        a = np.where(left_of_root, mid, a)
        b = np.where(left_of_root, b, mid)
        if np.all((b - a) <= 2.0 * np.spacing(b)):
            break

    omegas = 0.5 * (a + b)
    interior = (omegas > lo) & (omegas < hi)
    if not np.all(interior):
        branch = int(np.flatnonzero(~interior)[0])
        raise SpectrumSolverError(f"root escaped branch {branch}")
    return Spectrum(omegas=omegas, residuals=newton_residuals(params, omegas))


def require_small_cavity_domain(params: SystemParams) -> None:
    """Raise :class:`ApproximationDomainError` outside the first-order
    small-cavity domain: delta < 0.5 and delta < 2 g^2/(pi omega_bar^2),
    the condition of the Omega_0 line."""
    d = params.delta
    if d >= 0.5:
        raise ApproximationDomainError(
            f"small-cavity approximation needs delta < 0.5, got {d}"
        )
    if d >= 2.0 * params.g**2 / (np.pi * params.omega_bar**2):
        raise ApproximationDomainError(
            "lowest-mode approximation needs delta < 2*g^2/(pi*omega_bar^2), "
            f"got delta={d}"
        )


def approx_spectrum_small_cavity(params: SystemParams) -> np.ndarray:
    """First-order small-cavity frequencies Omega_0..Omega_n_modes.

    Omega_0 = omega_bar*(1 - pi*delta/3) and, for k >= 1,
    Omega_k = (g/delta)*(k + 2*delta/(pi*k)).  Valid for delta well below
    one; the Omega_0 line additionally needs delta < 2 g^2/(pi omega_bar^2).

    The root equation gives Omega_0 = omega_bar*(1 + 2*pi*delta/3)^(-1/2)
    + O(delta^3/g^2), so the first-order gap |Omega_0 - omega_bar*(1 -
    pi*delta/3)|/delta^2 tends to pi^2*omega_bar/6 ~ 1.645 as delta -> 0;
    the negative delta^3 term pulls it to 1.23 at delta = 0.1.  So no
    envelope c*delta^2 with c < pi^2/6 holds at small delta, and gaps of
    0.01 at delta = 0.1 or 0.0025 at delta = 0.05 (c <= 1) are out of reach.

    Raises
    ------
    ApproximationDomainError
        Outside :func:`require_small_cavity_domain`.  A warning is emitted
        for 0.2 < delta < 0.5 where the error grows quickly.
    """
    require_small_cavity_domain(params)
    d = params.delta
    if d > 0.2:
        warnings.warn(
            f"small-cavity approximation is crude for delta={d} > 0.2",
            stacklevel=2,
        )
    k = np.arange(1, params.n_modes + 1, dtype=float)
    omegas = np.empty(params.n_modes + 1)
    omegas[0] = params.omega_bar * (1.0 - np.pi * d / 3.0)
    omegas[1:] = (params.g / d) * (k + 2.0 * d / (np.pi * k))
    return omegas


def check_interlacing(params: SystemParams, spectrum: Spectrum) -> bool:
    """True when every root lies strictly inside its cotangent branch."""
    dw = params.delta_omega
    r = np.arange(spectrum.n_modes + 1, dtype=float)
    return bool(
        np.all(spectrum.omegas > r * dw) and np.all(spectrum.omegas < (r + 1.0) * dw)
    )
