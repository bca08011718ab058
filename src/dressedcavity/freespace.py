"""Survival amplitude in the infinite-radius (free-space) limit.

When the cavity radius grows without bound the mode sum for f_00 becomes

    f_00(t) = (4g/pi) * int_0^inf  x^2 e^{-i x t} / [(x^2-w^2)^2 + 4g^2x^2] dx

with w the renormalized atom frequency.  It is evaluated in two
independent ways, and the large-time survival has an asymptotic form.
All three take t as a scalar or a grid, and one check
(``_checked_times``) refuses, before anything is computed, any t that is
not finite and >= 0, or > 0 for the asymptotic form.

Quadrature, any coupling, one rule for every t >= 0, one time of a grid
at a time, one complex integral int_0^inf f(x) e^{-ixt} dx per
time.  The weight f has a resonance shoulder of width ~g around w and a
1/x^2 tail.  Real panels run from 0 through the shoulder points
{w-2g, w+2g, ...} to the last one, x0, each pre-split to a few radians of
t x.  From x0 the path turns down the ray x = x0 - i x0 (e^v - 1),
v in [0, V]: every pole of f has |Re x| < x0, so the quadrant
Re x >= x0, Im x <= 0 holds none, |e^{-ixt}| <= 1 there, and the ray
replaces the oscillating tail at every t >= 0; the cut at V leaves out
about e^-V / x0.  Both parts go through :func:`quad`, a globally adaptive
15-point Gauss-Kronrod rule in numpy (QUADPACK's QK15, Piessens et al.,
QUADPACK, 1983).  The one exception is a real panel spanning more than
Phi = ``_QAWO_PHASE`` radians of t x: its cost would grow with t, so it
goes to QUADPACK's QAWO, whose Chebyshev moments do not.

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

scipy loads at first use, not at import: ``scipy.special`` on the first
closed-form evaluation and ``scipy.integrate`` on the first panel past
Phi, which no t x0 <= Phi reaches.  The cavity side (spectrum, mode
matrix, survival, entropy) and the quadrature below Phi need numpy alone;
importing ``scipy.integrate`` takes about 0.4 s and 52 MB of resident
memory over numpy alone, 26 MB more than ``scipy.special``.  ``quad``
is a public name bound in this module, and every numpy integral calls it
through that name, so a caller that replaces ``freespace.quad`` (a test
spy, the benchmark's tracer) sees every one of them.
"""

from __future__ import annotations

import cmath
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

# QUADPACK's 15-point Kronrod rule (dqk15) on [-1, 1]: nodes, Kronrod
# weights, and the weights of the embedded 7-point Gauss rule, which are
# zero at the Kronrod-only nodes
_QK15_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_QK15_NODES = np.concatenate((-_QK15_HALF[:-1], _QK15_HALF[::-1]))
_QK15_KRONROD = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_QK15_GAUSS = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.129484966168869693270611432679082, 0.0,
])
_QK15_RULES = np.stack((_QK15_KRONROD, _QK15_KRONROD - _QK15_GAUSS), axis=1)
_ROUNDOFF = 50.0 * np.finfo(float).eps  # QUADPACK's floor on a panel's error
_TINY = np.finfo(float).tiny
_MAX_BISECTIONS = 2000  # subdivision cap of one adaptive integral

# each real panel starts in at least _PANEL_PIECES sub-panels of at most
# _PANEL_PHASE radians of t x: a few radians leave the Kronrod estimate
# below tolerance without bisection, and four pieces spare the rounds of
# bisection a shoulder panel needs at small t
_PANEL_PHASE = 3.0
_PANEL_PIECES = 4
# Phi: a real panel spanning more than this many radians of t x goes to
# QUADPACK's QAWO, whose cost does not grow with t.  The two cost the same
# at about 110-140 rad on a smooth panel, 250-530 rad on one holding the
# resonance and 1100-2000 rad on [0, 7] at g = 3 (numpy 0.1-0.3 us/rad
# against QAWO's 20-230 us per panel, 2-vCPU Xeon); 300 sits in that range
# and keeps t <= 40 at x0 <= 7 on numpy
_QAWO_PHASE = 300.0
_RAY_END = 40.0  # V: the ray stops at v = V, leaving about e^-V / x0 out
# the ray's edges in v: on the scale of x0, where the weight falls like
# e^-v, and where the decay t x0 (e^v - 1) passes each of these values
_RAY_STEPS = (
    0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 28.0
)
_RAY_DECAY = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

# e^z E_1(z) = int_0^inf e^{-u} / (u + z) du by Gauss-Laguerre once |z| >= 2
_LAGUERRE_MIN_ABS = 2.0
_LAGUERRE_CHUNK = 4096  # points per (points x nodes) block
# F(z) by its asymptotic series once |z| >= 60, truncated after (2m)!/z^(2m+1)
# for m < 15; the series error and the dropped Stokes term are below e^-60
_ASYMPTOTIC_MIN_ABS = 60.0
_ASYMPTOTIC_TERMS = 15
# Ei by its power series where g > 10 kappa (z within 0.1 rad of the real axis)
_EI_SERIES_MIN_RATIO = 10.0


def _qk15(h, a: np.ndarray, b: np.ndarray):
    """Kronrod value, QUADPACK error estimate and whether that estimate lies
    above QUADPACK's roundoff floor, for h on each [a, b]."""
    half = 0.5 * (b - a)
    fv = h((a + half)[:, None] + half[:, None] * _QK15_NODES)
    # two real products: numpy's complex-by-real matrix product is far slower
    re, im = fv.real.dot(_QK15_RULES), fv.imag.dot(_QK15_RULES)
    kronrod = re[:, 0] + 1j * im[:, 0]
    # QUADPACK's scaling of |Kronrod - Gauss| by resasc, the spread of h
    # about its mean, on [-1, 1] and then by half
    resasc = np.abs(fv - 0.5 * kronrod[:, None]).dot(_QK15_KRONROD)
    gap = 200.0 * np.hypot(re[:, 1], im[:, 1])
    ratio = gap / np.maximum(np.maximum(resasc, gap), _TINY)  # min(1, gap/resasc)
    err = resasc * ratio**1.5 * half
    floor = _ROUNDOFF * np.abs(fv).dot(_QK15_KRONROD) * half
    return kronrod * half, np.maximum(err, floor), err > floor


def quad(h, edges, tol: float) -> tuple[complex, float]:
    """int h(x) dx over [edges[0], edges[-1]] to absolute accuracy ``tol``.

    Globally adaptive 15-point Gauss-Kronrod quadrature (QUADPACK's QK15
    rule and error estimate), vectorized over intervals.  ``h`` maps an
    array of points to the complex values of the integrand; ``edges``
    are increasing breakpoints, and each interval between them starts
    unsplit.  While the summed error estimate exceeds ``tol``, the
    intervals of largest estimate, enough to cover the excess, are
    bisected; an interval whose estimate is QUADPACK's roundoff floor,
    50 eps int |h|, gains nothing by it and is left whole.  Returns
    (value, achieved error estimate), which exceeds ``tol`` only when
    every interval is at that floor; raises :class:`QuadratureError` once
    reaching ``tol`` needs more than ``_MAX_BISECTIONS`` bisections.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    value, err, live = _qk15(h, a, b)
    bisections = 0
    while True:
        achieved = float(err.sum())
        if achieved <= tol or not live.any():
            return complex(value.sum()), achieved
        if bisections >= _MAX_BISECTIONS:
            raise QuadratureError("quadrature did not reach its tolerance", achieved)
        (order,) = np.nonzero(live)
        order = order[np.argsort(-err[order], kind="stable")]
        n = int(np.searchsorted(np.cumsum(err[order]), achieved - 0.5 * tol)) + 1
        keep = np.ones(a.size, dtype=bool)
        keep[order[:n]] = False
        bisections += a.size - int(keep.sum())
        mid = 0.5 * (a[~keep] + b[~keep])
        new_a = np.concatenate((a[~keep], mid))
        new_b = np.concatenate((mid, b[~keep]))
        new_value, new_err, new_live = _qk15(h, new_a, new_b)
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))
        live = np.concatenate((live[keep], new_live))


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 96-point Gauss-Laguerre rule, built once."""
    from scipy.special import roots_laguerre

    return roots_laguerre(96)


def _spectral_weight(params: SystemParams):
    w2 = params.omega_bar**2
    g2 = params.g**2

    def f(x):
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


def _qawo(f, a: float, b: float, t: float, tol: float) -> tuple[complex, float]:
    """int_a^b f(x) e^{-ixt} dx by QUADPACK's QAWO, a cos and a sin pass."""
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as quadpack

    opts = dict(wvar=t, epsabs=max(tol, _EPSABS_FLOOR), epsrel=1e-12, limit=200)
    # the caller's error budget replaces QUADPACK's warning policy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, re_err = quadpack(f, a, b, weight="cos", **opts)
        im, im_err = quadpack(f, a, b, weight="sin", **opts)
    return complex(re, -im), re_err + im_err


def _fourier_semi_infinite(
    params: SystemParams, t: float, tol: float
) -> tuple[complex, float]:
    """F(t) = int_0^inf f(x) e^{-ixt} dx for the spectral weight f, any t >= 0.

    Real panels run from 0 through the shoulder points to the last one,
    x0; from x0 the ray x = x0 - i x0 (e^v - 1), v in [0, V], closes the
    path.  Every pole of f, +-kappa +- ig or +-i(g +- mu), has |Re x| < x0,
    so the quadrant Re x >= x0, Im x <= 0 holds none and |e^{-ixt}| <= 1
    there: the ray is exact for every t >= 0 once V is infinite, and the
    cut at V leaves out about int_V^inf x0 e^v |x|^-2 dv = e^-V / x0,
    which is counted in the achieved error.  Along the ray the integrand
    does not oscillate; it falls like e^-v on the scale of x0 and like
    exp(-t x0 (e^v - 1)) on the scale 1/(x0 t), and the initial edges
    resolve both (without the second set, at g = 3 and t = 1e4, the ray
    misses 4.6e-6 of f_00 and its error estimate stays below tol).

    Each real panel is pre-split to at most ``_PANEL_PHASE`` radians of
    t x; one that spans more than ``_QAWO_PHASE`` goes to QAWO instead.
    Every other piece goes to :func:`quad`, one call per run of adjacent
    panels and one for the ray.  Returns (value, achieved error), the sum
    of the pieces' estimates, and raises QuadratureError when it exceeds
    ``tol``, which the caller has checked against ``_EPSABS_FLOOR``.  At
    t = 0 the imaginary part, int f sin(0 x) dx, is exactly 0.
    """
    f = _spectral_weight(params)
    shoulders = _shoulders(params)
    x0 = shoulders[-1]
    runs, qawo = [[0.0]], []
    for a, b in zip((0.0, *shoulders), shoulders):
        if t * (b - a) > _QAWO_PHASE:
            qawo.append((a, b))
            runs.append([b])
            continue
        steps = max(_PANEL_PIECES, math.ceil(t * (b - a) / _PANEL_PHASE))
        runs[-1].extend(np.linspace(a, b, steps + 1)[1:].tolist())
    runs = [edges for edges in runs if len(edges) > 1]

    def real(x):
        return f(x) * np.exp(-1j * t * x)

    scale = x0 * t
    reach = scale * math.expm1(_RAY_END)  # the decay t x0 (e^v - 1) at v = V
    decay = [math.log1p(s / scale) for s in _RAY_DECAY if s < reach]
    ray_edges = sorted({0.0, *_RAY_STEPS, *decay, _RAY_END})

    # e^{-ixt} = e^{-i x0 t} e^{-x0 t (e^v - 1)} and dx = -i x0 e^v dv
    factor = -1j * x0 * cmath.exp(-1j * x0 * t)

    def ray(v):
        e = np.expm1(v)
        return f(x0 - (1j * x0) * e) * (np.exp(-scale * e) * (1.0 + e)) * factor

    # each numpy integral and each QAWO pass may use an equal share of half
    # the budget
    share = tol / (2 * (len(runs) + 1 + 2 * len(qawo)))
    parts = [quad(real, edges, share) for edges in runs]
    parts.append(quad(ray, ray_edges, share))
    parts.extend(_qawo(f, a, b, t, share) for a, b in qawo)
    total = sum(v for v, _ in parts)
    achieved = sum(e for _, e in parts) + math.exp(-_RAY_END) / x0
    if achieved > tol:
        raise QuadratureError("quadrature did not reach its tolerance", achieved)
    return (complex(total.real) if t == 0.0 else total), achieved


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

    (4g/pi) times the complex transform int_0^inf f(x) e^{-ixt} dx of the
    spectral weight, to absolute accuracy ``tol``.  ``t`` is a scalar
    (returns a complex) or a grid (returns an array).  Raises
    :class:`QuadratureError`, before integrating and even on an empty
    grid, unless tol * pi/(4g) is finite and >= 1e-13.
    """
    values, _ = _numeric_with_error(params, t, tol)
    return complex(values[0]) if np.ndim(t) == 0 else values


def _numeric_with_error(
    params: SystemParams, t, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """f_00 by quadrature and its achieved error estimate, at each time of t."""
    times = _checked_times(t)
    pref = 4.0 * params.g / np.pi
    budget = tol / pref
    if not _EPSABS_FLOOR <= budget < np.inf:  # NaN fails both comparisons
        raise QuadratureError(
            f"tolerance must be finite and at least {_EPSABS_FLOOR:g} per "
            "transform"
        )
    values = np.empty(times.shape, dtype=complex)
    errors = np.empty(times.shape)
    for i, s in enumerate(times.ravel().tolist()):
        value, achieved = _fourier_semi_infinite(params, s, budget)
        values.flat[i] = pref * value
        errors.flat[i] = pref * achieved
    return values, errors


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
