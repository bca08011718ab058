import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import dressedcavity as dc
from dressedcavity import freespace
from dressedcavity.errors import (
    ApproximationDomainError,
    QuadratureError,
    RegimeError,
)

# arbitrary-precision reference values at omega_bar=1, g=0.5
RE_CLOSED_T2 = -0.26870526452044423
G_AT_30 = 4.6183194274967523e-05
G_AT_10 = -7.2457328127755588e-04


@pytest.fixture(scope="module")
def weak():
    return dc.make_params(1.0, 0.5, delta=0.1)


@pytest.fixture(scope="module")
def strong():
    return dc.make_params(1.0, 1.5, delta=0.1)


def oracle_f00(params, t):
    """Independent free-space amplitude via contour rotation.

    Closing the cosine transform in the upper half plane gives the pure
    damped oscillation for the real part.  Rotating the sine transform
    onto the imaginary axis converts it into the residue term plus a
    smooth Laplace integral, which generic adaptive quadrature handles
    without any oscillatory machinery.  Valid in the weak regime.
    """
    w, g, kappa = params.omega_bar, params.g, params.kappa
    re = np.exp(-g * t) * (np.cos(kappa * t) - (g / kappa) * np.sin(kappa * t))
    laplace = quad(
        lambda y: y * y * np.exp(-y * t) / ((y * y + w * w) ** 2 - 4 * g * g * y * y),
        0.0,
        np.inf,
        limit=400,
    )[0]
    im = -np.exp(-g * t) * (
        np.sin(kappa * t) + (g / kappa) * np.cos(kappa * t)
    ) + (4.0 * g / np.pi) * laplace
    return complex(re, im)


def four_pole_f00(params, t):
    """f_00(t) at 30 digits from the partial-fraction sum over the poles.

    The denominator has the roots r = +-kappa +- ig; each contributes
    A_r e^z E_1(z) with z = -i r t and A_r = r^2 / prod_{s != r} (r - s),
    and the fourth-quadrant pole kappa - ig adds -2 pi i A_r e^z.
    """
    with mp.workdps(30):
        w, g = mp.mpf(params.omega_bar), mp.mpf(params.g)
        kappa = mp.sqrt(w * w - g * g)
        poles = [kappa + 1j * g, -kappa + 1j * g, -kappa - 1j * g, kappa - 1j * g]
        total = mp.mpc(0)
        for r in poles:
            a = r * r
            for s in poles:
                if s != r:
                    a /= r - s
            z = -1j * r * mp.mpf(t)
            term = mp.exp(z) * mp.e1(z)
            if r == poles[3]:
                term -= 2j * mp.pi * mp.exp(z)
            total += a * term
        return complex(4 * g / mp.pi * total)


def test_completeness_at_t0(weak):
    f0 = dc.freespace_f00_numeric(weak, 0.0, tol=1e-9)
    assert f0.real == pytest.approx(1.0, abs=1e-9)
    assert f0.imag == 0.0  # sin transform vanishes identically


def test_numeric_matches_rotated_contour_oracle(weak):
    for t in (0.003, 0.5, 2.0, 7.3, 20.0, 50.0):
        numeric = dc.freespace_f00_numeric(weak, t, tol=1e-9)
        reference = oracle_f00(weak, t)
        assert abs(numeric - reference) < 5e-8


def test_closed_form_real_part(weak):
    closed = dc.freespace_f00_closed(weak, 2.0)
    assert closed.real == pytest.approx(RE_CLOSED_T2, abs=1e-14)


def test_closed_equals_numeric_on_sample(weak):
    for t in (0.0, 1.0, 6.5, 15.0, 20.0):
        numeric = dc.freespace_f00_numeric(weak, t, tol=1e-9)
        closed = dc.freespace_f00_closed(weak, t)
        assert abs(numeric - closed) < 1e-4


def test_closed_decoupling_limit():
    # a free atom keeps its bare phase: the damped oscillation tends to
    # cos(omega_bar t) as the coupling is switched off
    p = dc.make_params(1.0, 1e-4, delta=1e-5)
    for t in (1.0, 4.0):
        closed = dc.freespace_f00_closed(p, t)
        assert closed.real == pytest.approx(np.cos(t), abs=1e-3)


def test_g_integral_values(weak):
    assert dc.g_integral(weak, 0.0) == 0.0
    assert dc.g_integral(weak, 30.0, tol=1e-9) == pytest.approx(G_AT_30, abs=1e-8)
    assert dc.g_integral(weak, 10.0, tol=1e-9) == pytest.approx(G_AT_10, abs=1e-8)


def test_g_integral_late_time_envelope(weak):
    """After the exponential dies, |G| follows the endpoint term.

    Integrating the sine transform by parts leaves the algebraic
    envelope (4g/pi) * 2/(omega_bar^4 t^3); at t=30 it is within a few
    percent of the quadrature value, and the sign is positive.
    """
    g30 = dc.g_integral(weak, 30.0, tol=1e-10)
    envelope = 8.0 * weak.g / (np.pi * weak.omega_bar**4 * 30.0**3)
    assert g30 > 0.0
    assert abs(g30) == pytest.approx(envelope, rel=0.10)


def test_asymptotic_survival_values(weak):
    assert dc.freespace_survival_asymptotic(weak, 50.0) == pytest.approx(
        1.0240000000002317e-9, rel=1e-9
    )
    # decays to zero as t grows
    assert dc.freespace_survival_asymptotic(weak, 1e4) < 1e-20


def test_asymptotic_survival_guards(weak, strong):
    with pytest.raises(ApproximationDomainError):
        dc.freespace_survival_asymptotic(weak, 0.0)
    with pytest.raises(ApproximationDomainError):
        dc.freespace_survival_asymptotic(weak, np.array([1.0, 0.0]))
    with pytest.raises(RegimeError):
        dc.freespace_survival_asymptotic(strong, 5.0)


def test_asymptotic_survival_refuses_times_where_it_overflows(weak):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e-300, np.array([50.0, 1e-300])):
            with pytest.raises(ApproximationDomainError, match="overflows"):
                dc.freespace_survival_asymptotic(weak, t)
        tiny = dc.freespace_survival_asymptotic(weak, 1e-50)
    # 64 g^2 / (w^8 t^6) at g = 0.5, w = 1
    assert tiny == pytest.approx(1.6e301, rel=1e-12)


def test_closed_form_requires_weak_regime(strong):
    with pytest.raises(RegimeError):
        dc.freespace_f00_closed(strong, 1.0)
    with pytest.raises(RegimeError):
        dc.freespace_f00_closed(strong, np.array([1.0, 2.0]))


def test_numeric_handles_strong_coupling(strong):
    # completeness holds in any regime
    f0 = dc.freespace_f00_numeric(strong, 0.0, tol=1e-9)
    assert f0.real == pytest.approx(1.0, abs=1e-9)
    numeric = dc.freespace_f00_numeric(strong, 3.0, tol=1e-9)
    assert abs(numeric - contour_f00(strong, 3.0)) <= 1e-9


def test_unreachable_tolerance_raises(weak):
    with pytest.raises(QuadratureError) as excinfo:
        dc.freespace_f00_numeric(weak, 3.0, tol=1e-16)
    assert excinfo.value.achieved > 0.0


def test_integral_short_of_its_share_raises_with_its_estimate(weak, monkeypatch):
    """The integral is handed half of tol (in units of the transform, tol
    pi / (4g)), and the ray cut e^-V / x0 is added to what it reaches.  An
    integral that reports twice its share fails the sum, and the error
    carries that sum."""
    handed = []

    def short(h, intervals, tol):
        handed.append(tol)
        return 0j, 2.0 * tol

    monkeypatch.setattr(freespace, "quad", short)
    with pytest.raises(QuadratureError, match="achieved error estimate") as excinfo:
        dc.freespace_f00_numeric(weak, 2.0, tol=1e-9)
    assert handed == [1e-9 / (4.0 * weak.g / np.pi) / 2]
    cut = math.exp(-freespace._RAY_END) / freespace._shoulders(weak)[-1]
    assert excinfo.value.achieved == 2.0 * handed[0] + cut


def quad_spy(monkeypatch):
    """Record the intervals of every freespace.quad call, then run it."""
    calls = []
    real_quad = freespace.quad

    def spy(h, intervals, tol):
        calls.append(np.asarray(intervals, dtype=float))
        return real_quad(h, intervals, tol)

    monkeypatch.setattr(freespace, "quad", spy)
    return calls


def test_tolerance_below_quadrature_floor_refused(monkeypatch):
    """The integral of every time gets tol / 2, and its roundoff floor is
    50 eps of f_00 at every g.  At g = 10, where [0, 21] is one panel,
    tol = 5e-14 is admitted at t = 445.9 (9364 rad of t x) and met there,
    while 1e-14 is refused at every t, and on an empty grid, before any
    time integrates."""
    calls = quad_spy(monkeypatch)
    p = dc.make_params(1.0, 10.0, delta=0.1)
    for t in (0.0, 2.0, 445.9, np.array([0.0, 2.0, 445.9]), np.array([])):
        with pytest.raises(QuadratureError, match="no integration ran"):
            dc.freespace_f00_numeric(p, t, tol=1e-14)
        with pytest.raises(QuadratureError, match="no integration ran"):
            dc.g_integral(p, t, tol=1e-14)
    assert calls == []
    values, achieved = freespace._numeric_with_error(p, np.array([2.0, 445.9]), 5e-14)
    assert len(calls) == 2 and np.all(achieved <= 5e-14)
    assert np.all(np.isfinite(values))
    # the tolerance the old floor, tol pi / (4g) >= 1e-13, refused here
    assert np.isfinite(dc.freespace_f00_numeric(p, 2.0, tol=1e-12))
    assert np.isfinite(dc.freespace_f00_numeric(p, 445.9, tol=1e-12))


@pytest.mark.parametrize("g", [0.01, 0.5, 10.0])
def test_tolerance_floor_is_100_eps_of_f00_at_every_t(monkeypatch, g):
    """The integral's share is tol / 2 at every t, so the floor sits at
    tol = 100 eps at every g and t.  At g = 0.01 the old rule admitted
    1e-14 (tol pi / (4g) = 7.9e-13) and failed only after integrating."""
    calls = quad_spy(monkeypatch)
    p = dc.make_params(1.0, g, delta=0.1)
    eps = np.finfo(float).eps
    for tol in (1e-14, 100 * eps * (1 - 1e-12)):
        for t in (0.0, 2.0, 1e4, np.array([0.0, 3.3, 1e4])):
            with pytest.raises(QuadratureError, match="no integration ran"):
                dc.freespace_f00_numeric(p, t, tol=tol)
    assert calls == []
    tol = 100 * eps * (1 + 1e-12)
    values, achieved = freespace._numeric_with_error(p, np.array([0.0, 3.3]), tol)
    assert len(calls) == 2 and np.all(achieved <= tol)
    assert abs(values[0] - 1.0) <= tol


def test_refused_tolerance_says_no_integration_ran(weak):
    with pytest.raises(QuadratureError, match="no integration ran") as excinfo:
        dc.freespace_f00_numeric(weak, 2.0, tol=1e-16)
    assert excinfo.value.achieved == np.inf
    assert "achieved error estimate" not in str(excinfo.value)


def test_tolerance_just_above_quadrature_floor_succeeds():
    p = dc.make_params(1.0, 10.0, delta=0.1)
    for t in np.concatenate([[0.0], np.geomspace(1e-3, 2000.0, 30)]):
        numeric = dc.freespace_f00_numeric(p, float(t), tol=1e-11)
        assert np.isfinite(numeric)
        assert dc.g_integral(p, float(t), tol=1e-11) == numeric.imag


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
def test_invalid_tolerance_rejected(monkeypatch, weak, tol):
    calls = []
    monkeypatch.setattr(freespace, "quad", lambda *a, **k: calls.append(a))
    for t in (0.0, 2.0, np.array([])):
        with pytest.raises(QuadratureError, match="tolerance"):
            dc.freespace_f00_numeric(weak, t, tol=tol)
    assert calls == []


def test_negative_time_rejected(weak):
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ApproximationDomainError):
            dc.freespace_f00_numeric(weak, bad)
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ApproximationDomainError):
            dc.g_integral(weak, bad)
    for bad in (-1e-3, np.nan):
        with pytest.raises(ApproximationDomainError):
            dc.freespace_f00_closed(weak, np.array([0.0, 1.0, bad, 2.0]))


@pytest.mark.parametrize(
    "name, bad_times",
    [
        ("freespace_f00_numeric", (np.inf, np.nan, -1.0)),
        ("g_integral", (np.inf, np.nan, -1.0)),
        ("freespace_f00_closed", (np.inf, np.nan, -1.0)),
        ("freespace_survival_asymptotic", (np.inf, np.nan, -1.0, 0.0)),
    ],
)
def test_every_free_space_function_refuses_bad_times(
    monkeypatch, weak, name, bad_times
):
    calls = []
    monkeypatch.setattr(freespace, "quad", lambda *a, **k: calls.append(a))
    fn = getattr(dc, name)
    for bad in bad_times:
        for t in (bad, np.array([1.0, bad, 2.0])):
            with pytest.raises(ApproximationDomainError):
                fn(weak, t)
    assert calls == []


def test_numeric_grid_equals_scalar_calls():
    times = np.array([0.0, 1e-300, 1e-8, 0.3, 2.0, 17.0, 445.9])
    for g in (0.05, 0.5, 1.5):
        p = dc.make_params(1.0, g, delta=0.1)
        grid = dc.freespace_f00_numeric(p, times)
        scalars = [dc.freespace_f00_numeric(p, float(t)) for t in times]
        assert all(type(value) is complex for value in scalars)
        assert grid.dtype == complex and grid.shape == times.shape
        assert np.array_equal(grid.view(float), np.array(scalars).view(float))
        g_grid = dc.g_integral(p, times)
        assert np.array_equal(g_grid, grid.imag)
        assert type(dc.g_integral(p, 2.0)) is float
        assert dc.freespace_f00_numeric(p, np.array([2.0])).shape == (1,)


def test_survival_from_closed_decays(weak):
    # dissipation: the free-space survival at t=100 is far below 1e-3
    f100 = dc.freespace_f00_closed(weak, 100.0)
    assert abs(f100) ** 2 < 1e-9


@pytest.mark.parametrize(
    "g", [0.01, 0.5, 0.9, 0.95, 1.0 - 1e-6, float(np.nextafter(1.0, 0.0))]
)
def test_closed_form_matches_four_pole_sum(g):
    """Closed form against an independent 30-digit evaluation up to g t = 1800.

    The pole weights grow like 1/kappa as g approaches omega_bar
    (g/kappa = 6.7e7 at the last g), so this also checks that the
    evaluation does not amplify roundoff by that factor.
    """
    p = dc.make_params(1.0, g, delta=0.1)
    # plus both sides of each switch of the evaluation: |z| + Re z = 2, or
    # (omega_bar + g) t = 2; |z| - Re z = 3 at g = 0.5 and 0.9; |z| = 60
    switches = [1.9, 2.1, 5.9, 6.1, 29.9, 30.1, 59.9, 60.1]
    sum_switch = 2.0 / (1.0 + g) * np.array([0.99, 1.01])
    times = np.concatenate([np.geomspace(1e-3, 1800.0 / g, 40), switches, sum_switch])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = dc.freespace_f00_closed(p, times)
    reference = np.array([four_pole_f00(p, t) for t in times])
    assert np.max(np.abs(closed - reference)) <= 1e-13


def test_closed_form_within_its_stated_bound():
    """The 3.6e-15 of freespace_f00_closed's docstring on 14 g x 65-68 t: t
    from 1e-3 past |z| = 60, with both sides of every switch."""
    worst = 0.0
    for g in [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999,
              1.0 - 1e-6, float(np.nextafter(1.0, 0.0))]:
        p = dc.make_params(1.0, g, delta=0.1)
        gap = 3.0 / (1.0 - g)  # (omega_bar - g) t = 3
        times = np.concatenate([
            np.geomspace(1e-3, 300.0, 50),
            [0.5, 1.9, 2.0, 2.1, 5.0, 10.0, 20.0, 40.0, 59.9, 60.0, 60.1, 100.0],
            2.0 / (1.0 + g) * np.array([0.99, 1.0, 1.01]),  # (omega_bar + g) t = 2
            [0.99 * gap, gap, 1.01 * gap] if gap < 300.0 else [],
        ])
        closed = dc.freespace_f00_closed(p, times)
        reference = np.array([four_pole_f00(p, t) for t in times])
        worst = max(worst, np.abs(closed - reference).max())
    assert worst <= 3.6e-15


def test_closed_form_next_to_the_real_axis_below_the_e1_switch():
    """Near g = omega_bar and |z| = 2 the series of E_1 cancels by about
    150, and the error of its Im F is multiplied by g/kappa; the Laguerre
    sum takes over down to |z| + Re z = 2, or t = 2 / (omega_bar + g), and
    keeps f_00 within 1e-15 (3.1e-15 with the series up to |z| = 2)."""
    worst = 0.0
    for g in [0.99, 0.999, 0.9999, 1.0 - 1e-5, 1.0 - 1e-6, 1.0 - 1e-7,
              float(np.nextafter(1.0, 0.0))]:
        p = dc.make_params(1.0, g, delta=0.1)
        times = np.linspace(1.0, 2.0, 21)
        closed = dc.freespace_f00_closed(p, times)
        reference = np.array([four_pole_f00(p, t) for t in times])
        worst = max(worst, np.abs(closed - reference).max())
    assert worst <= 1e-15


def test_closed_grid_equals_scalar_calls():
    for g in (0.3, 0.999):
        p = dc.make_params(1.0, g, delta=0.1)
        times = np.concatenate([[0.0], np.geomspace(1e-3, 3000.0, 97)])
        grid = dc.freespace_f00_closed(p, times)
        scalars = np.array([dc.freespace_f00_closed(p, float(t)) for t in times])
        assert grid.dtype == complex and grid.shape == times.shape
        assert np.array_equal(grid.view(float), scalars.view(float))
        f0 = dc.freespace_f00_closed(p, 0.0)
        assert type(f0) is complex and f0 == 1 + 0j
        assert dc.freespace_f00_closed(p, np.array([1.0])).shape == (1,)


@pytest.mark.parametrize("g", [0.05, 0.5, 0.9, 0.999])
def test_scalar_calls_equal_the_grid_on_both_sides_of_each_switch(g):
    """The closed form switches at |z| = omega_bar t = 60, at |z| - Re z =
    (omega_bar - g) t = 3 (t = 6 at g = 0.5, 30 at g = 0.9) and at |z| +
    Re z = (omega_bar + g) t = 2, and skips whichever branch a call leaves
    empty; a scalar call at each side
    of a switch, alone or in a grid that mixes every branch and t = 0,
    gives the same bits.  So does the asymptotic survival."""
    p = dc.make_params(1.0, g, delta=0.1)
    times = np.array([60.1, 0.0, 1.9, 59.9, 2.1, 3.3, 1e-3, 40.0, 600.0, 2.0, 60.0])
    sum_switch = 2.0 / (1.0 + g) * np.array([1.01, 0.99, 1.0])
    times = np.concatenate([times, [6.1, 5.9, 30.1, 29.9], sum_switch])
    grid = dc.freespace_f00_closed(p, times)
    scalars = np.array([dc.freespace_f00_closed(p, float(t)) for t in times])
    assert np.array_equal(grid.view(float), scalars.view(float))
    late = times[times > 0.0]
    survival = dc.freespace_survival_asymptotic(p, late)
    assert survival.tolist() == [
        dc.freespace_survival_asymptotic(p, float(t)) for t in late
    ]


def test_asymptotic_survival_on_grid(weak):
    times = np.linspace(10.0, 50.0, 41)
    grid = dc.freespace_survival_asymptotic(weak, times)
    scalars = [dc.freespace_survival_asymptotic(weak, float(t)) for t in times]
    assert np.array_equal(grid, scalars)
    assert type(scalars[0]) is float
    assert dc.freespace_survival_asymptotic(weak, np.array([5.0])).shape == (1,)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_quadrature_meets_its_tolerance(tol):
    """The quadrature's absolute error stays within tol of the exact value."""
    for g in (0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999):
        p = dc.make_params(1.0, g, delta=0.1)
        times = np.array(
            [0.0, 1e-300, 1e-12, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3,
             0.01, 0.3, 1.0, 3.3, 10.0, 25.0, 40.0, 100.0]
        )
        exact = dc.freespace_f00_closed(p, times)
        for t, reference in zip(times, exact):
            numeric = dc.freespace_f00_numeric(p, float(t), tol=tol)
            assert abs(numeric - reference) <= tol, (g, t)


@pytest.mark.parametrize("g", [1.2, 1.5, 3.0])
def test_strong_coupling_small_t_follows_linear_decay(g):
    """The weight falls as 1/x^2, so 1 - Re f_00(t) = 2 g t + O(t^2).

    At these t the tail past the shoulders does not oscillate, and QAWF
    drops such a tail without a warning.
    """
    p = dc.make_params(1.0, g, delta=0.1)
    for t in (1e-300, 1e-12, 1e-8, 1e-6):
        numeric = dc.freespace_f00_numeric(p, t)
        assert abs(numeric.real - (1.0 - 2.0 * g * t)) <= 1e-9, t


def contour_f00(params, t):
    """f_00(t) at 30 digits by mpmath's quad along the segment [0, x0], in
    pieces of at most 3 radians of t x, and the ray x0 - is, s >= 0.

    x0, the last shoulder point, lies past the real part of every pole, so
    the quarter plane the ray closes holds none.  mpmath shares no code with
    the numpy rule; its tanh-sinh nodes differ from the Kronrod ones.
    """
    with mp.workdps(30):
        w, g, tt = mp.mpf(params.omega_bar), mp.mpf(params.g), mp.mpf(t)
        x0 = mp.mpf(freespace._shoulders(params)[-1])
        f = lambda x: x * x / ((x * x - w * w) ** 2 + 4 * g * g * x * x)
        pieces = max(1, int(mp.ceil(tt * x0 / 3)))
        segment = mp.quad(
            lambda x: f(x) * mp.expj(-tt * x), mp.linspace(0, x0, pieces + 1)
        )
        ray = mp.quad(
            lambda s: -1j * f(x0 - 1j * s) * mp.exp(-tt * s),
            sorted([0, 1 / tt, 10 / tt, x0, 10 * x0, mp.inf]),
        )
        return complex(4 * g / mp.pi * (segment + mp.expj(-tt * x0) * ray))


# contour_f00 where its segment spans thousands of radians, computed once:
# each agrees to below 1e-35 with mpmath's quad along x = s e^{-i pi/4},
# s >= 0, a path that holds for strong coupling, whose poles are all on
# the imaginary axis
CONTOUR_F00 = {
    (1.5, 900.0): complex(0.0, 5.240212419512089e-09),
    (1.5, 925.0): complex(0.0, 4.8266834765321035e-09),
    (1.5, 950.0): complex(0.0, 4.455546563399665e-09),
    (1.5, 975.0): complex(0.0, 4.12150573409595e-09),
    (1.5, 1000.0): complex(0.0, 3.82003955660085e-09),
    (3.0, 1000.0): complex(0.0, 7.64255734135584e-09),
    (1.5, 10000.0): complex(-1.436818456396536e-36, 3.819721842775741e-12),
    (3.0, 10000.0): complex(0.0, 7.639468437632684e-12),
}


@pytest.mark.parametrize("g", [1.2, 2.0, 3.0])
def test_numeric_strong_coupling_matches_weighted_quad(g):
    """The weighted integral f(x) e^{-ixt} against mpmath at 30 digits."""
    p = dc.make_params(1.0, g, delta=0.1)
    numeric = dc.freespace_f00_numeric(p, 3.0, tol=1e-10)
    assert abs(numeric - contour_f00(p, 3.0)) <= 1e-10


def quadosc_f00(params, t):
    """f_00(t) at 20 digits by mpmath's oscillatory quadrature.

    ``quadosc`` integrates x^2 e^{-ixt} / D(x) between consecutive
    half-periods by Gauss-Legendre and extrapolates the alternating
    partial sums, sharing no code with QUADPACK.
    """
    with mp.workdps(20):
        w, g, tt = mp.mpf(params.omega_bar), mp.mpf(params.g), mp.mpf(t)

        def integrand(x):
            x2 = x * x
            return x2 / ((x2 - w * w) ** 2 + 4 * g * g * x2) * mp.expj(-tt * x)

        total = mp.quadosc(integrand, [0, mp.inf], omega=tt)
        return complex(4 * g / mp.pi * total)


@pytest.mark.parametrize("g", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("t", [0.5, 20.0])
def test_numeric_matches_mpmath_quadosc(g, t):
    """Quadrature against a reference that shares no code with QUADPACK."""
    p = dc.make_params(1.0, g, delta=0.1)
    numeric = dc.freespace_f00_numeric(p, t, tol=1e-10)
    assert abs(numeric - quadosc_f00(p, t)) <= 1e-10


def test_qk15_gauss_part_is_the_7_point_gauss_legendre_rule():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    gauss = freespace._QK15_GAUSS != 0.0
    assert np.abs(freespace._QK15_NODES[gauss] - nodes).max() <= 1e-15
    assert np.abs(freespace._QK15_GAUSS[gauss] - weights).max() <= 1e-15


def test_kronrod_weights_integrate_monomials_through_degree_22():
    for k in range(23):
        total = math.fsum(freespace._QK15_KRONROD * freespace._QK15_NODES**k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(total - exact) <= 2e-16, k


def test_laguerre_rule_is_scipys():
    from scipy.special import roots_laguerre

    nodes, weights = freespace._laguerre_rule()
    ref_nodes, ref_weights = roots_laguerre(96)
    assert np.abs(nodes / ref_nodes - 1.0).max() <= 1e-12
    assert np.abs(weights - ref_weights).max() <= 1e-14


def test_laguerre_weights_integrate_monomials_through_degree_15():
    """sum_j w_j x_j^k = k!; past k = 15 the weights of the largest nodes,
    right to about eps absolute but not relative, take over the sum."""
    nodes, weights = freespace._laguerre_rule()
    for k in range(16):
        total = math.fsum(weights * nodes**k)
        assert abs(total / math.factorial(k) - 1.0) <= 1e-13, k


def test_quad_integrates_to_its_tolerance():
    h = lambda x: np.exp(-1j * 50.0 * x)
    value, achieved = freespace.quad(h, [(0.0, 2.0)], 1e-12)
    assert abs(value - (1.0 - np.exp(-100j)) / 50j) <= 1e-14
    assert 0.0 < achieved <= 1e-12
    # disjoint intervals, out of order, under one budget: [0, 0.5] u [1, 2]
    value, achieved = freespace.quad(h, [(1.0, 2.0), (0.0, 0.5)], 1e-12)
    exact = (1.0 - np.exp(-25j) + np.exp(-50j) - np.exp(-100j)) / 50j
    assert abs(value - exact) <= 1e-14
    assert 0.0 < achieved <= 1e-12


def test_quad_is_the_same_object_after_its_first_call():
    """In a fresh interpreter, so that no earlier call has run: a quad that
    rebinds itself on first use would escape a spy or tracer set before."""
    probe = (
        "from dressedcavity import freespace as fs\n"
        "import dressedcavity as dc\n"
        "before = fs.quad\n"
        "fs.quad(lambda x: x + 0j, [(0.0, 1.0)], 1e-12)\n"
        "dc.freespace_f00_numeric(dc.make_params(1.0, 0.5, delta=0.1), 1.0)\n"
        "assert fs.quad is before and fs.quad.__module__ == fs.__name__\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_quad_stops_at_the_roundoff_floor():
    """A zero tolerance lies below QUADPACK's floor, 50 eps int |h|, which
    no bisection lowers: quad returns what it reached instead of spinning."""
    value, achieved = freespace.quad(lambda x: np.exp(1j * x), [(0.0, 1.0)], 0.0)
    assert abs(value - (np.exp(1j) - 1.0) / 1j) <= 1e-15
    assert 0.0 < achieved <= 1e-13


def test_quad_raises_at_its_subdivision_cap():
    # 1e5 radians in one interval: resolving them takes some 3e4 intervals
    h = lambda x: np.exp(1e5j * x)
    with pytest.raises(QuadratureError, match="tolerance") as excinfo:
        freespace.quad(h, [(0.0, 1.0)], 1e-12)
    assert excinfo.value.achieved > 1e-12


@pytest.mark.parametrize(
    "g, t",
    [
        (0.05, 40.0), (0.5, 40.0), (3.0, 40.0),
        (1.5, 900.0), (1.5, 925.0), (1.5, 950.0), (1.5, 975.0),
        (1.5, 1e3), (0.05, 1e3), (3.0, 1e4),
    ],
)
def test_one_numpy_integral_tiles_the_path_at_every_t(monkeypatch, g, t):
    """One quad call per time, on one coordinate u: the ray at v = -u from
    V down to 0, then the real panels from 0 to the last shoulder x0 at
    most _PANEL_PHASE rad each, contiguous, at t x0 from 72 to 7e4 rad."""
    calls = quad_spy(monkeypatch)
    p = dc.make_params(1.0, g, delta=0.1)
    x0 = freespace._shoulders(p)[-1]
    tol = 1e-10
    numeric = dc.freespace_f00_numeric(p, t, tol=tol)
    (intervals,) = calls
    a, b = intervals.T
    assert np.array_equal(a[1:], b[:-1])  # contiguous, in increasing u
    assert a[0] == -freespace._RAY_END and b[-1] == x0
    real = a >= 0.0
    assert a[real][0] == 0.0
    assert (t * (b - a)[real]).max() <= freespace._PANEL_PHASE * (1 + 1e-12)
    if g < 1.0:
        reference = four_pole_f00(p, t)
    else:
        reference = CONTOUR_F00[g, t] if (g, t) in CONTOUR_F00 else contour_f00(p, t)
    assert abs(numeric - reference) <= tol


@pytest.mark.parametrize("t", [1e-8, 1e-6])
def test_ray_resolves_its_decay_scale_at_small_times(t):
    """The decay exp(-t x0 (e^v - 1)) sets in near v = ln(1/(x0 t)), far
    out on the ray; edges on the x0 scale alone miss it by a few tol."""
    p = dc.make_params(1.0, 0.2, delta=0.1)
    closed = dc.freespace_f00_closed(p, t)
    for tol in (1e-6, 1e-8, 1e-10):
        assert abs(dc.freespace_f00_numeric(p, t, tol=tol) - closed) <= tol


@pytest.mark.parametrize("t", [1e3, 1e4])
@pytest.mark.parametrize("g", [0.05, 0.5, 1.5, 3.0])
def test_ray_resolves_its_decay_scale_at_large_times(t, g):
    """At large t the ray's integrand dies within 1/(x0 t) of v = 0; a ray
    whose first panel ignores that scale misses its whole value (1.6e-5
    against 1.3e-12 at g = 0.5, t = 1e4) and reports a tiny error."""
    p = dc.make_params(1.0, g, delta=0.1)
    tol = 1e-10
    if g < 1.0:
        reference = dc.freespace_f00_closed(p, t)
    else:
        reference = CONTOUR_F00[g, t]
    assert abs(dc.freespace_f00_numeric(p, t, tol=tol) - reference) <= tol


def test_achieved_error_estimate_is_kept_per_time(weak):
    times = np.array([0.0, 1e-6, 0.5, 5.0, 40.0, 1e3, 1e4])
    values, achieved = freespace._numeric_with_error(weak, times, 1e-9)
    assert np.array_equal(values, dc.freespace_f00_numeric(weak, times, 1e-9))
    assert achieved.shape == times.shape
    # the cut of the ray at V, e^-V / x0, is always counted
    x0 = freespace._shoulders(weak)[-1]
    cut = 4.0 * weak.g / np.pi * math.exp(-freespace._RAY_END) / x0
    assert np.all((cut <= achieved) & (achieved <= 1e-9))


def test_ray_cut_is_counted_in_the_achieved_error(monkeypatch, weak):
    """With every integral reporting no error, what remains is e^-V / x0."""
    real_quad = freespace.quad
    monkeypatch.setattr(
        freespace, "quad", lambda h, edges, tol: (real_quad(h, edges, tol)[0], 0.0)
    )
    _, achieved = freespace._numeric_with_error(weak, np.array([0.0, 5.0]), 1e-9)
    x0 = freespace._shoulders(weak)[-1]
    cut = 4.0 * weak.g / np.pi * math.exp(-freespace._RAY_END) / x0
    assert achieved == pytest.approx([cut, cut], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("g", [0.5, 1.5, 3.0])
def test_time_past_the_phase_cap_refused_before_integrating(monkeypatch, g):
    """A grid whose latest t x0 passes _MAX_PHASE is refused whole, before
    its earlier times integrate; a time just short of the cap is admitted
    (here a stub stands in for quad, so nothing is integrated)."""
    calls = []

    def stub(h, intervals, tol):
        calls.append(len(intervals))
        return 0j, 0.0

    monkeypatch.setattr(freespace, "quad", stub)
    p = dc.make_params(1.0, g, delta=0.1)
    x0 = freespace._shoulders(p)[-1]
    cap = freespace._MAX_PHASE / x0
    past = cap * (1 + 1e-9)
    for t in (past, np.array([0.0, 1.0, past])):
        with pytest.raises(ApproximationDomainError, match="freespace_f00_closed"):
            dc.freespace_f00_numeric(p, t)
    assert calls == []
    dc.freespace_f00_numeric(p, cap * (1 - 1e-9))
    # the real pieces there: at most _PANEL_PHASE rad each
    assert len(calls) == 1
    assert calls[0] >= freespace._MAX_PHASE * (1 - 1e-9) / freespace._PANEL_PHASE
