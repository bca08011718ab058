"""Survival amplitude in the infinite-radius (free-space) limit.

When the cavity radius grows without bound the mode sum for f_00 becomes

    f_00(t) = (4g/pi) * int_0^inf  x^2 e^{-i x t} / [(x^2-w^2)^2 + 4g^2x^2] dx

with w the renormalized atom frequency.  It is evaluated in two
independent ways, and the large-time survival has an asymptotic form.
All three take t as a scalar or a grid of one axis, which
``params._checked_times`` checks; before anything is computed, the
free-space domain refuses any t < 0, or t <= 0 for the asymptotic form.
The coupling regime is decided here and nowhere else: the closed and the
asymptotic form need weak coupling, g < w, and raise ``RegimeError`` at
g >= w (``_weak_kappa``); the quadrature takes any g.

Quadrature, any coupling, one rule for every t >= 0, one time of a grid
at a time, one complex integral int_0^inf f(x) e^{-ixt} dx per
time.  The weight f has a resonance shoulder of width ~g around w and a
1/x^2 tail.  Real panels run from 0 through the shoulder points
{w-2g, w+2g, ...} to the last one, x0, each pre-split to a few radians of
t x.  From x0 the path turns down the ray x = x0 - i x0 (e^v - 1),
v in [0, V]: every pole of f has |Re x| < x0, so the quadrant
Re x >= x0, Im x <= 0 holds none, |e^{-ixt}| <= 1 there, and the ray
replaces the oscillating tail at every t >= 0; the cut at V leaves out
about e^-V / x0.  Panels and ray together are one call of :func:`quad`,
a globally adaptive 15-point Gauss-Kronrod rule in numpy (QUADPACK's
QK15, Piessens et al., QUADPACK, 1983) with one error budget over all
of their intervals.  The pieces grow with t x0, so past about 1e4 rad
the cost of a time grows linearly in t; a grid whose latest t x0
exceeds ``_MAX_PHASE`` = 1e6 rad, where one time peaks at about 320 MB
resident, is refused before anything is integrated.

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

F takes numpy alone, by region of z, where |z| -+ Re z = (w -+ g) t
(DLMF 6.2, 6.6).  Past |z| = w t = 60 it is its asymptotic series.  Off
the real axis, |z| - Re z > 3, it is one Gauss-Laguerre sum,
-2z int_0^inf e^{-u} du / (u^2 - z^2) - i pi e^{-z}, as e^{-z} Ei(z) =
-int_0^inf e^{-u} du / (u - z) - i pi e^{-z} at Im z < 0.  Next to the
axis Ei(z) = gamma + ln z + sum_n z^n / (n n!), which cancels by at most
e^3 there, and e^z E_1(z) = int_0^inf e^{-u} du / (u + z), or where
|z| + Re z < 2 its series in -z with ln z; ln(-z) would add a pi that
cancels against Ei's.

``quad`` is a public name bound in this module, and every integral
calls it through that name, so a caller that replaces ``freespace.quad``
(a test spy, the benchmark's tracer) sees every one of them.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ApproximationDomainError, QuadratureError, RegimeError
from .params import SystemParams, _checked_times as _finite_times

#: default absolute accuracy of the semi-infinite quadratures
DEFAULT_TOL = 1e-8

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
# Phi: the largest t x0 a grid may reach; one time at Phi takes about 1 s
# and 320 MB peak RSS (2-vCPU Xeon)
_MAX_PHASE = 1e6
_RAY_END = 40.0  # V: the ray stops at v = V, leaving about e^-V / x0 out
# the ray's edges in v: on the scale of x0, where the weight falls like
# e^-v, and where the decay t x0 (e^v - 1) passes each of these values
_RAY_STEPS = (
    0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 28.0
)
_RAY_DECAY = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

# The rule errs as its pole, u = -z for E_1 or u = z for Ei, nears the nodes,
# so F's regions (module docstring) switch at |z| + Re z = 2, |z| - Re z = 3
# and |z| = 60.  The power series' 150 terms, each z (n - 1) / n^2 times the
# last, leave out < 1e-21 of |Ei(z)| where it runs; the asymptotic series cut
# after (2m)!/z^(2m+1), m < 15, and its dropped Stokes term leave out < e^-60.
_LAGUERRE_MIN_SUM = 2.0
_LAGUERRE_MIN_GAP = 3.0
_ASYMPTOTIC_MIN_ABS = 60.0
_ASYMPTOTIC_TERMS = 15
_SERIES_RATIOS = np.maximum(np.arange(150.0), 1.0) / np.arange(1.0, 151.0) ** 2
_CHUNK = 1024  # points per (points x nodes) or (points x terms) block


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


def quad(h, intervals, tol: float) -> tuple[complex, float]:
    """int h(x) dx over the union of ``intervals`` to absolute accuracy ``tol``.

    Globally adaptive 15-point Gauss-Kronrod quadrature (QUADPACK's QK15
    rule and error estimate), vectorized over intervals.  ``h`` maps an
    array of points to the complex values of the integrand; ``intervals``
    holds (a, b) pairs with a < b that do not overlap, each of which
    starts unsplit, and one error budget covers them all.  While the
    summed error estimate exceeds ``tol``, the intervals of largest
    estimate, enough to cover the excess, are bisected; an interval whose
    estimate is QUADPACK's roundoff floor, 50 eps int |h|, gains nothing
    by it and is left whole.  Returns (value, achieved error estimate),
    which exceeds ``tol`` only when every interval is at that floor;
    raises :class:`QuadratureError` once reaching ``tol`` needs more than
    ``_MAX_BISECTIONS`` bisections.
    """
    a, b = np.asarray(intervals, dtype=float).T
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


def _fourier_semi_infinite(
    f, shoulders: tuple[float, ...], t: float, tol: float
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
    t x, so past about 1e4 rad of t x0 the cost grows linearly in t.  All
    pieces, ray and real, go to one call of :func:`quad` on one
    coordinate u: the ray at v = -u for u in [-V, 0], which keeps v exact
    next to x0, and the real axis at x = u for u in [0, x0].  Each
    branch of the integrand is evaluated on its own points only, so the
    ray's exp(-t x0 (e^v - 1)) never sees v < 0.  The integral gets half
    of ``tol``, which :func:`_numeric_with_error` has checked against
    the roundoff floor, and the cut at V is added to its estimate.
    Returns (value, achieved error) and raises QuadratureError when the
    achieved error exceeds ``tol``.  At t = 0 the imaginary part,
    int f sin(0 x) dx, is exactly 0.
    """
    x0 = shoulders[-1]
    scale = x0 * t
    reach = scale * math.expm1(_RAY_END)  # the decay t x0 (e^v - 1) at v = V
    decay = [math.log1p(s / scale) for s in _RAY_DECAY if s < reach]
    ray_edges = sorted({0.0, *_RAY_STEPS, *decay, _RAY_END}, reverse=True)
    edges = [-v for v in ray_edges]
    for a, b in zip((0.0, *shoulders), shoulders):
        steps = max(_PANEL_PIECES, math.ceil(t * (b - a) / _PANEL_PHASE))
        width = (b - a) / steps
        edges.extend([a + k * width for k in range(1, steps)])
        edges.append(b)
    edges = np.array(edges)
    intervals = np.stack((edges[:-1], edges[1:]), axis=1)

    # e^{-ixt} = e^{-i x0 t} e^{-x0 t (e^v - 1)} and dx = -i x0 e^v dv
    factor = -1j * x0 * cmath.exp(-1j * x0 * t)

    def h(u):
        out = np.empty(u.shape, dtype=complex)
        on_ray = u < 0.0
        real = ~on_ray
        x = u[real]
        out[real] = f(x) * np.exp(-1j * t * x)
        e = np.expm1(-u[on_ray])
        weight = f(x0 - (1j * x0) * e)
        out[on_ray] = weight * (np.exp(-scale * e) * (1.0 + e)) * factor
        return out

    total, achieved = quad(h, intervals, tol / 2)
    achieved += math.exp(-_RAY_END) / x0
    if achieved > tol:
        raise QuadratureError("quadrature did not reach its tolerance", achieved)
    return (complex(total.real) if t == 0.0 else total), achieved


def _checked_times(
    t, positive: bool = False, rates: float | np.ndarray = 0.0
) -> np.ndarray:
    """The times of ``params._checked_times`` at phase rates ``rates``,
    refused with :class:`ApproximationDomainError` unless every t is >= 0,
    or > 0 with ``positive``: the free-space domain."""
    times = _finite_times(t, rates)
    if np.count_nonzero(times > 0.0 if positive else times >= 0.0) < times.size:
        raise ApproximationDomainError(
            "asymptotic form needs t > 0" if positive else "t must be non-negative"
        )
    return times


def freespace_f00_numeric(params: SystemParams, t, tol: float = DEFAULT_TOL):
    """Free-space f_00(t) by direct quadrature, any coupling regime.

    (4g/pi) times the complex transform int_0^inf f(x) e^{-ixt} dx of the
    spectral weight, to absolute accuracy ``tol``.  ``t`` is a scalar
    (returns a complex) or a grid (returns an array).  Raises, before
    integrating and even on an empty grid, :class:`QuadratureError`
    unless tol is finite and its half, the integral's share, is at least
    50 eps: QUADPACK's roundoff floor on the integral of the weight,
    which in units of f_00 is the same at every g and t, so any
    tol < 100 eps, about 2.2e-14, is refused.  Raises
    :class:`ApproximationDomainError` for a grid whose latest t x0 passes
    Phi = 1e6 rad, x0 the last shoulder point.  The amplitude left there,
    once the pole terms have decayed, is the t^-3 tail
    8g / (pi w^4 t^3) <= 8g x0^3 / (pi w^4 Phi^3): at w = 1 and g <= 3
    (x0 <= 7) at most 2.6e-15, below that floor.
    """
    values, _ = _numeric_with_error(params, t, tol)
    return complex(values[0]) if np.ndim(t) == 0 else values


def _numeric_with_error(
    params: SystemParams, t, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """f_00 by quadrature and its achieved error estimate, at each time of t."""
    times = _checked_times(t)
    f = _spectral_weight(params)
    shoulders = _shoulders(params)
    if not _ROUNDOFF <= tol / 2 < np.inf:  # NaN fails both
        raise QuadratureError(
            f"tolerance must be finite and leave the integral at least "
            f"{_ROUNDOFF:.3g} of f_00, its roundoff floor"
        )
    if float(times.max(initial=0.0)) * shoulders[-1] > _MAX_PHASE:
        raise ApproximationDomainError(
            f"quadrature needs t x0 <= {_MAX_PHASE:.0e} rad (x0 = "
            f"{shoulders[-1]:g}); at weak coupling use freespace_f00_closed"
        )
    pref = 4.0 * params.g / np.pi
    values = np.empty(times.shape, dtype=complex)
    errors = np.empty(times.shape)
    for i, s in enumerate(times.tolist()):
        value, achieved = _fourier_semi_infinite(f, shoulders, s, tol / pref)
        values[i] = pref * value
        errors[i] = pref * achieved
    return values, errors


def g_integral(params: SystemParams, t, tol: float = DEFAULT_TOL):
    """Imaginary part of the free-space amplitude,

    G(t) = -(4g/pi) * int_0^inf x^2 sin(x t) / [(x^2-w^2)^2 + 4g^2x^2] dx,

    which is ``freespace_f00_numeric(params, t, tol).imag``: a float for a
    scalar t, an array for a grid.  G(0) = 0 exactly.  For weak coupling
    :func:`freespace_f00_closed` has G in closed form.
    """
    return freespace_f00_numeric(params, t, tol).imag


@functools.cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 96-point Gauss-Laguerre rule from the eigenpairs of its Jacobi
    matrix (Golub and Welsch, Math. Comp. 23 (1969) 221)."""
    k = np.arange(96.0)
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * k + 1.0) + np.diag(k[1:], -1))
    return nodes, vectors[0] ** 2


def _row_sums(rows, a: np.ndarray) -> np.ndarray:
    """rows(b).sum(axis=1), b each block of _CHUNK entries of a as a column:
    one row of Laguerre nodes or series terms per entry, in bounded memory."""
    out = np.empty_like(a)
    for s in range(0, a.size, _CHUNK):
        out[s : s + _CHUNK] = rows(a[s : s + _CHUNK, None]).sum(axis=1)
    return out


def _power_sum(z: np.ndarray) -> np.ndarray:
    """sum_n z^n / (n n!), 150 terms at every z, so a grid's bits are its points'."""
    return _row_sums(lambda b: np.multiply.accumulate(b * _SERIES_RATIOS, axis=1), z)


def _asymptotic_f(z: np.ndarray) -> np.ndarray:
    """F(z) ~ 2 sum_m (2m)!/z^(2m+1) - i pi e^-z, the sum by Horner in 1/z^2."""
    inv = 1.0 / z
    poly = np.ones_like(inv)
    for m in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
        poly = 1.0 + (2 * m - 1) * (2 * m) * inv * inv * poly
    return 2.0 * inv * poly - 1j * np.pi * np.exp(-z)


def _weak_kappa(params: SystemParams, message: str) -> float:
    """kappa = sqrt(w^2 - g^2) at weak coupling, g < w: the one place the
    coupling regime is decided.  Else raises :class:`RegimeError` with
    ``message``; g = w counts as strong, since kappa vanishes there and
    the damped-oscillation form turns singular."""
    omega_bar, g = params.omega_bar, params.g
    if not g < omega_bar:
        raise RegimeError(message)
    return math.sqrt(omega_bar * omega_bar - g * g)


def _closed_imag(g: float, kappa: float, times: np.ndarray) -> np.ndarray:
    """G(t) = Im[(g/kappa - i) F(z)] / pi on a grid of t >= 0; G(0) = 0."""
    x, w = _laguerre_rule()
    out = np.zeros(times.shape)
    pos = times > 0.0
    z = (g - 1j * kappa) * times[pos]
    size = np.abs(z)
    far = size >= _ASYMPTOTIC_MIN_ABS
    off_axis = ~far & (size - z.real > _LAGUERRE_MIN_GAP)
    near = ~(far | off_axis)
    small = size + z.real < _LAGUERRE_MIN_SUM  # within near
    f = np.empty_like(z)
    # a branch left empty is skipped, so a scalar call runs only its own
    if np.count_nonzero(far):
        f[far] = _asymptotic_f(z[far])
    if np.count_nonzero(off_axis):
        zo = z[off_axis]
        laguerre = _row_sums(lambda b: w / (x * x - b), zo * zo)
        f[off_axis] = -2.0 * zo * laguerre - 1j * np.pi * np.exp(-zo)
    lag = near & ~small
    if np.count_nonzero(lag):
        f[lag] = _row_sums(lambda b: w / (x + b), z[lag])
    if np.count_nonzero(small):
        zs = z[small]
        f[small] = -np.exp(zs) * (np.euler_gamma + np.log(zs) + _power_sum(-zs))
    if np.count_nonzero(near):
        zn = z[near]
        f[near] += np.exp(-zn) * (np.euler_gamma + np.log(zn) + _power_sum(zn))
    out[pos] = ((g / kappa - 1j) * f).imag / np.pi
    return out


def freespace_f00_closed(params: SystemParams, t):
    """Weak-coupling f_00(t): exact damped-oscillation real part plus i G(t).

    ``t`` is a scalar (returns a complex) or a grid (returns a complex
    array).  G is the closed form of the module docstring: over 6000 random
    g from 0.01 omega_bar to the float below omega_bar and g t up to 1800,
    within 3.6e-15 of a 30-digit evaluation.  Raises :class:`RegimeError`
    outside the weak regime; use :func:`freespace_f00_numeric` there.
    """
    kappa = _weak_kappa(
        params, "no closed form for g >= omega_bar; use freespace_f00_numeric"
    )
    times = _checked_times(t, rates=params.omega_bar)  # |z| = omega_bar t
    g = params.g
    re = np.exp(-g * times) * (
        np.cos(kappa * times) - (g / kappa) * np.sin(kappa * times)
    )
    out = re + 1j * _closed_imag(g, kappa, times)
    return complex(out[0]) if np.ndim(t) == 0 else out


def freespace_survival_asymptotic(params: SystemParams, t):
    """Large-time survival probability estimate,

    e^{-2gt} [cos(w t) - (g/w) sin(w t)]^2 + 64 g^2 / (w^8 t^6),

    on a scalar (returns a float) or a grid (returns an array).  Refused
    at t = 0, and at any t > 0 where the t^(-6) term is not a finite float.
    """
    _weak_kappa(params, "no asymptotic form for g >= omega_bar")
    times = _checked_times(t, positive=True, rates=params.omega_bar)
    w = params.omega_bar
    g = params.g
    osc = np.exp(-2.0 * g * times) * (
        np.cos(w * times) - (g / w) * np.sin(w * times)
    ) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        out = osc + 64.0 * g**2 / (w**8 * times**6)
    if np.count_nonzero(np.isfinite(out)) < out.size:
        raise ApproximationDomainError(
            f"asymptotic form overflows at t = {times.min():g}"
        )
    return float(out[0]) if np.ndim(t) == 0 else out
