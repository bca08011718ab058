"""Survival amplitude in the infinite-radius (free-space) limit.

When the cavity radius grows without bound the mode sum for f_00 becomes

    f_00(t) = (4g/pi) * int_0^inf  x^2 e^{-i x t} / [(x^2-w^2)^2 + 4g^2x^2] dx

with w the renormalized atom frequency.  It is evaluated in two
independent ways, and the large-time survival has an asymptotic form.
All three take t as a scalar or a grid, and one check
(``_checked_times``) refuses, before anything is computed, any t that is
not finite and >= 0, or > 0 for the asymptotic form.

Quadrature, any coupling, one rule for every t >= 0, one time of a grid
at a time.  The integrand has a resonance shoulder of width ~g around w
and a 1/x^2 tail.  Adaptive panels run between the shoulder points
{w-2g, w+2g, ...}, then, in ln x, decade by decade while t x < 1 (up to
x = 1e12, which stops t = 0).  Only a tail that starts at t x >= 1 goes
to QUADPACK's Fourier-integral routine QAWF (Piessens et al., QUADPACK,
1983), which sums it period by period and extrapolates with the epsilon
algorithm; QAWF drops a tail that does not oscillate without a warning
(numbers in _fourier_semi_infinite).  Any other tail goes to plain
adaptive quadrature.

Closed form, weak coupling (g < w, kappa = sqrt(w^2 - g^2)).  The
denominator has the roots r = +-kappa +- ig, and partial fractions give
f_00 as a sum over the four poles of A_r e^z E_1(z), z = -i r t,
A_r = r^2 / prod_{s != r} (r - s), plus -2 pi i A_r e^z for the
fourth-quadrant pole kappa - ig (DLMF 6.2).  The real part is the damped
oscillation

    Re f_00(t) = e^{-gt} [cos(kappa t) - (g/kappa) sin(kappa t)].

The pole pairs r, -conj(r) fold the imaginary part into

    G(t) = Im[(g/kappa - i) F(z)] / pi,   z = (g - i kappa) t,
    F(z) = e^z E_1(z) + e^{-z} Ei(z),

in which the fourth-quadrant residue has cancelled against the branch
jump of E_1.  F is real on the positive real axis, so the factor g/kappa,
large near g = w, multiplies only Im F, which is of order kappa.

scipy loads at first use, not at import: ``scipy.integrate`` on the first
quadrature and ``scipy.special`` on the first closed-form evaluation.  The
cavity side (spectrum, mode matrix, survival, entropy) needs numpy alone,
and importing ``scipy.integrate`` costs about 0.6 s, several times what a
default ``spectrum`` or ``convergence`` run computes.  ``quad`` stays a
public name bound in this module when it is imported, and every
quadrature calls it through that name, so a caller that replaces
``freespace.quad`` (a test spy, the benchmark's tracer) sees every call,
also in a process that has not integrated yet.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import ApproximationDomainError, QuadratureError, RegimeError
from .params import REGIME_WEAK, SystemParams

#: default absolute accuracy of the semi-infinite quadratures
DEFAULT_TOL = 1e-8
# smallest absolute accuracy asked of a quadrature call; a transform whose
# budget lies below it is refused, since no call is asked to reach it
_EPSABS_FLOOR = 1e-13

_TAIL_PHASE = 1.0  # radians of t x at which QAWF takes the tail
_PANEL_CAP = 1e12  # the decades past the shoulders stop here at tiny t

# e^z E_1(z) = int_0^inf e^{-u} / (u + z) du by Gauss-Laguerre once |z| >= 2
_LAGUERRE_MIN_ABS = 2.0
_LAGUERRE_CHUNK = 4096  # points per (points x nodes) block
# F(z) by its asymptotic series once |z| >= 60, truncated after (2m)!/z^(2m+1)
# for m < 15; the series error and the dropped Stokes term are below e^-60
_ASYMPTOTIC_MIN_ABS = 60.0
_ASYMPTOTIC_TERMS = 15
# Ei by its power series where g > 10 kappa (z within 0.1 rad of the real axis)
_EI_SERIES_MIN_RATIO = 10.0


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call."""
    import scipy.integrate

    return scipy.integrate.quad(*args, **kwargs)


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 96-point Gauss-Laguerre rule, built once."""
    from scipy.special import roots_laguerre

    return roots_laguerre(96)


def _spectral_weight(params: SystemParams):
    w2 = params.omega_bar**2
    g2 = params.g**2

    def f(x: float) -> float:
        x2 = x * x
        return x2 / ((x2 - w2) ** 2 + 4.0 * g2 * x2)

    return f


def _shoulders(params: SystemParams) -> tuple[float, ...]:
    """Panel boundaries isolating the resonance peak.

    The base split points sit at omega_bar -+ 2g.  When the resonance is
    much narrower than its position (2g below omega_bar/4) the flanks
    still span several decades, so doubling offsets are inserted until
    they clear the resonance scale; for broad resonances this reduces to
    the two base points.
    """
    w, g = params.omega_bar, params.g
    points = {w - 2.0 * g, w + 2.0 * g}
    offset = 4.0 * g
    while offset < w:
        points.update((w - offset, w + offset))
        offset *= 2.0
    return tuple(sorted(p for p in points if p > 0.0))


def _panel(f, weighted, a, b, kind, t, opts):
    # the oscillatory-weight routine only pays off beyond a few periods per
    # panel, and its reported error carries a coarse roundoff floor, so
    # mildly oscillatory panels use plain adaptive Gauss-Kronrod instead
    if t * (b - a) <= 20.0:
        return quad(weighted, a, b, **opts)
    return quad(f, a, b, weight=kind, wvar=t, **opts)


def _fourier_semi_infinite(
    params: SystemParams, t: float, kind: str, tol: float
) -> tuple[float, float]:
    """int_0^inf f(x) {cos,sin}(x t) dx for the spectral weight f, any t >= 0.

    Panels by :func:`_panel` up to the last shoulder point x0, one span in
    ln x from x0 by decades while t x < ``_TAIL_PHASE`` and x < ``_PANEL_CAP``,
    then the tail.  Only a tail that starts at t x >= ``_TAIL_PHASE`` goes
    to QAWF: given one that does not oscillate (g = 0.5, t = 1e-8, x > 2,
    worth 0.540), QAWF returns -1.6e-8 with an error estimate of 9e-12 and
    no warning.  Any other tail goes to plain adaptive quadrature.

    Returns (value, achieved error estimate), the sum of the pieces'
    estimates, and raises QuadratureError when it exceeds ``tol``, which
    the caller has checked against ``_EPSABS_FLOOR``.
    """
    f = _spectral_weight(params)
    trig = np.cos if kind == "cos" else np.sin

    def weighted(x):
        return f(x) * trig(t * x)

    epsabs = max(tol / 100.0, _EPSABS_FLOOR)
    opts = dict(epsabs=epsabs, epsrel=1e-12, limit=200)
    shoulders = _shoulders(params)
    x0 = end = shoulders[-1]
    while t * end < _TAIL_PHASE and end < _PANEL_CAP:
        end *= 10.0
    from scipy.integrate import IntegrationWarning

    # panel-level error budgeting replaces QUADPACK's warning policy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        parts = [
            _panel(f, weighted, a, b, kind, t, opts)
            for a, b in zip((0.0, *shoulders), shoulders)
        ]
        if end > x0:
            # in u = ln(x/x0), where x f(x) falls like e^-u: a few
            # Gauss-Kronrod panels span all the decades
            parts.append(quad(
                lambda u: x0 * math.exp(u) * weighted(x0 * math.exp(u)),
                0.0, math.log(end / x0), **opts,
            ))
        if t * end >= _TAIL_PHASE:
            parts.append(quad(f, end, np.inf, weight=kind, wvar=t, epsabs=epsabs))
        else:
            # in units of end, so that QUADPACK's map of [1, inf) onto (0, 1]
            # sees the 1/x^2 decay on its own scale
            parts.append(quad(lambda y: end * weighted(end * y), 1.0, np.inf, **opts))
    total = achieved = 0.0
    for v, e in parts:
        total += v
        achieved += e
    if achieved > tol:
        raise QuadratureError("quadrature did not reach its tolerance", achieved)
    return total, achieved


def _checked_times(t, positive: bool = False) -> np.ndarray:
    """``t``, a scalar or a grid, as a float array of at least one axis.

    Raises :class:`ApproximationDomainError` unless every t is finite and
    >= 0, or > 0 with ``positive``.
    """
    times = np.array(t, dtype=float, ndmin=1)
    low = times > 0.0 if positive else times >= 0.0
    if not (low & (times < np.inf)).all():  # NaN fails both comparisons
        raise ApproximationDomainError(
            "asymptotic form needs t > 0 (finite; it diverges at t = 0)"
            if positive
            else "t must be finite and non-negative"
        )
    return times


def freespace_f00_numeric(params: SystemParams, t, tol: float = DEFAULT_TOL):
    """Free-space f_00(t) by direct quadrature, any coupling regime.

    Real part (4g/pi) * cos transform, imaginary part -(4g/pi) * sin
    transform of the spectral weight, each to absolute accuracy ``tol``.
    ``t`` is a scalar (returns a complex) or a grid (returns an array).
    Raises :class:`QuadratureError`, before integrating and even on an
    empty grid, unless tol * pi/(4g) per transform is finite and >= 1e-13.
    """
    times = _checked_times(t)
    pref = 4.0 * params.g / np.pi
    budget = tol / pref
    if not _EPSABS_FLOOR <= budget < np.inf:  # NaN fails both comparisons
        raise QuadratureError(
            f"tolerance must be finite and at least {_EPSABS_FLOOR:g} per "
            "transform"
        )
    out = np.empty(times.shape, dtype=complex)
    for i, s in enumerate(times.ravel().tolist()):
        re, _ = _fourier_semi_infinite(params, s, "cos", tol=budget)
        im, _ = _fourier_semi_infinite(params, s, "sin", tol=budget)
        out.flat[i] = complex(pref * re, -pref * im)
    return complex(out[0]) if np.ndim(t) == 0 else out


def g_integral(params: SystemParams, t, tol: float = DEFAULT_TOL):
    """Imaginary part of the free-space amplitude,

    G(t) = -(4g/pi) * int_0^inf x^2 sin(x t) / [(x^2-w^2)^2 + 4g^2x^2] dx,

    which is ``freespace_f00_numeric(params, t, tol).imag``: a float for a
    scalar t, an array for a grid.  G(0) = 0 exactly.  For weak coupling
    :func:`freespace_f00_closed` has G in closed form.
    """
    return freespace_f00_numeric(params, t, tol).imag


def _scaled_exp1(z: np.ndarray) -> np.ndarray:
    """e^z E_1(z) for Re z >= 0 and 0 < |z| < _ASYMPTOTIC_MIN_ABS."""
    from scipy.special import exp1

    out = np.empty_like(z)
    small = np.abs(z) < _LAGUERRE_MIN_ABS
    out[small] = np.exp(z[small]) * exp1(z[small])
    nodes, weights = _laguerre_rule()
    (idx,) = np.nonzero(~small)
    for s in range(0, idx.size, _LAGUERRE_CHUNK):
        block = idx[s : s + _LAGUERRE_CHUNK]
        out[block] = np.sum(weights / (nodes + z[block, None]), axis=1)
    return out


def _ei_series(z: np.ndarray) -> np.ndarray:
    """Ei(z) = gamma + ln z + sum_n z^n / (n n!), 3|z| + 20 terms per point.

    Free of the pi that scipy's Ei(z) = -E_1(-z) - i pi adds and removes
    again, so Im Ei keeps its relative accuracy next to the real axis.
    """
    n_terms = np.ceil(3.0 * np.abs(z)) + 20.0
    term = np.ones_like(z)
    total = np.zeros_like(z)
    for n in range(1, int(n_terms.max(initial=0.0)) + 1):
        term = term * z / n
        # adding exact zeros keeps each point independent of the others
        total += np.where(n <= n_terms, term / n, 0.0)
    return np.euler_gamma + np.log(z) + total


def _asymptotic_f(z: np.ndarray) -> np.ndarray:
    """F(z) ~ 2 sum_m (2m)!/z^(2m+1) - i pi e^-z, the sum by Horner in 1/z^2."""
    inv = 1.0 / z
    poly = np.ones_like(inv)
    for m in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
        poly = 1.0 + (2 * m - 1) * (2 * m) * inv * inv * poly
    return 2.0 * inv * poly - 1j * np.pi * np.exp(-z)


def _closed_imag(params: SystemParams, times: np.ndarray) -> np.ndarray:
    """G(t) = Im[(g/kappa - i) F(z)] / pi on a grid of t >= 0; G(0) = 0."""
    g, kappa = params.g, params.kappa
    out = np.zeros(times.shape)
    pos = times > 0.0
    z = (g - 1j * kappa) * times[pos]
    far = np.abs(z) >= _ASYMPTOTIC_MIN_ABS
    f = np.empty_like(z)
    # skipping empty blocks keeps a scalar call clear of the per-term loops
    if far.any():
        f[far] = _asymptotic_f(z[far])
    if not far.all():
        from scipy.special import expi

        near = z[~far]
        series = g > _EI_SERIES_MIN_RATIO * kappa
        ei = _ei_series(near) if series else expi(near)
        f[~far] = _scaled_exp1(near) + np.exp(-near) * ei
    out[pos] = ((g / kappa - 1j) * f).imag / np.pi
    return out


def freespace_f00_closed(params: SystemParams, t):
    """Weak-coupling f_00(t): exact damped-oscillation real part plus i G(t).

    ``t`` is a scalar (returns a complex) or a grid (returns a complex
    array).  G is the closed form of the module docstring; it agrees with
    a 30-digit evaluation to within 4e-15 for g from 0.01 omega_bar to the
    float below omega_bar and g t up to 1800.  Raises :class:`RegimeError`
    outside the weak regime; use :func:`freespace_f00_numeric` there.
    """
    if params.regime != REGIME_WEAK:
        raise RegimeError(
            "closed form needs g < omega_bar; use freespace_f00_numeric"
        )
    times = _checked_times(t)
    kappa = params.kappa
    g = params.g
    re = np.exp(-g * times) * (
        np.cos(kappa * times) - (g / kappa) * np.sin(kappa * times)
    )
    out = re + 1j * _closed_imag(params, times)
    return complex(out[0]) if np.ndim(t) == 0 else out


def freespace_survival_asymptotic(params: SystemParams, t):
    """Large-time survival probability estimate,

    e^{-2gt} [cos(w t) - (g/w) sin(w t)]^2 + 64 g^2 / (w^8 t^6),

    on a scalar (returns a float) or a grid (returns an array).  Refused
    at t = 0, and at any t > 0 where the t^(-6) term is not a finite float.
    """
    if params.regime != REGIME_WEAK:
        raise RegimeError("asymptotic form needs g < omega_bar")
    times = _checked_times(t, positive=True)
    w = params.omega_bar
    g = params.g
    osc = np.exp(-2.0 * g * times) * (
        np.cos(w * times) - (g / w) * np.sin(w * times)
    ) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        out = osc + 64.0 * g**2 / (w**8 * times**6)
    if not np.isfinite(out).all():
        raise ApproximationDomainError(
            f"asymptotic form overflows at t = {times.min():g}"
        )
    return float(out[0]) if np.ndim(t) == 0 else out
