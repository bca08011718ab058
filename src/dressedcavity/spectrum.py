"""Normal-mode eigenfrequencies of the coupled atom-field system.

For a cavity of radius R at wave speed c the collective mode frequencies
are the roots of

    cot(R*Omega/c) = Omega/(2g) + (c/(R*Omega)) * (1 - R*omega_bar^2/(2gc))

The code works in units with c = 1, where ``params.radius`` is
R/c = pi/delta_omega.  There is exactly one root per cotangent branch: the
left side falls from +inf to -inf across each open interval
(r*delta_omega, (r+1)*delta_omega) while the right side is continuous
there, so safeguarded bisection inside each branch is an exhaustive and
derivative-free solver.  Branches are indexed r = 0..n_modes; interlacing
r*delta_omega < Omega_r < (r+1)*delta_omega holds for every root (branch
0 starts at 0).  A :class:`Spectrum` holds these roots and their
residuals only; the first-order small-cavity values of
:func:`approx_spectrum_small_cavity` are a plain frequency array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationDomainError, SpectrumSolverError
from .params import SystemParams

#: fraction of a branch width kept clear of each cotangent pole
_POLE_INSET = 1e-9


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

    Bisection runs on every branch simultaneously until the brackets
    collapse to machine width (at most a couple of ulps of the root), far
    inside the 1e-12 relative-width contract.  Brackets start 1e-9 of a
    branch width inside each pole and are shrunk further if a pole
    evaluation still misbehaves.

    Raises
    ------
    SpectrumSolverError
        If a branch fails to show a sign change after pole shrinking, or
        if the solved roots violate ordering or interlacing.
    """
    n = params.n_modes
    dw = params.delta_omega
    r = np.arange(n + 1, dtype=float)
    lo = r * dw
    hi = (r + 1.0) * dw

    inset = _POLE_INSET * dw
    for _ in range(3):
        a = lo + inset
        b = hi - inset
        fa = _mismatch_raw(params, a)
        fb = _mismatch_raw(params, b)
        bad = ~np.isfinite(fa) | ~np.isfinite(fb) | (np.sign(fa) == np.sign(fb))
        if not np.any(bad):
            break
        inset *= 10.0
    else:
        branch = int(np.flatnonzero(bad)[0])
        raise SpectrumSolverError(
            f"no sign change in branch {branch} after pole shrinking"
        )

    # cot falls from +inf to -inf across the branch, so fa > 0 > fb.
    for _ in range(120):
        mid = 0.5 * (a + b)
        fm = _mismatch_raw(params, mid)
        take_left = (fm > 0.0) == (fa > 0.0)
        a = np.where(take_left, mid, a)
        fa = np.where(take_left, fm, fa)
        b = np.where(take_left, b, mid)
        if np.all((b - a) <= 2.0 * np.spacing(b)):
            break

    omegas = 0.5 * (a + b)
    residuals = newton_residuals(params, omegas)

    if np.any(omegas <= 0.0) or np.any(np.diff(omegas) <= 0.0):
        raise SpectrumSolverError("solved roots are not strictly increasing")
    interior = (omegas > lo) & (omegas < hi)
    if not np.all(interior):
        branch = int(np.flatnonzero(~interior)[0])
        raise SpectrumSolverError(f"root escaped branch {branch}")

    return Spectrum(omegas=omegas, residuals=residuals)


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
