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
    # cross-check against plain weighted quadrature at one time
    w, g = strong.omega_bar, strong.g
    f = lambda x: x * x / ((x * x - w * w) ** 2 + 4 * g * g * x * x)
    re_ref = (4 * g / np.pi) * quad(
        f, 0, np.inf, weight="cos", wvar=3.0, limit=2000
    )[0]
    numeric = dc.freespace_f00_numeric(strong, 3.0, tol=1e-9)
    assert numeric.real == pytest.approx(re_ref, abs=1e-7)


def test_unreachable_tolerance_raises(weak):
    with pytest.raises(QuadratureError) as excinfo:
        dc.freespace_f00_numeric(weak, 3.0, tol=1e-16)
    assert excinfo.value.achieved > 0.0


def test_tolerance_below_quadrature_floor_refused(monkeypatch):
    """At g=10 the budget per transform, tol*pi/(4g), is 7.9e-14 < 1e-13."""
    calls = []
    real_quad = freespace.quad

    def spy(*args, **kwargs):
        calls.append(args)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(freespace, "quad", spy)
    p = dc.make_params(1.0, 10.0, delta=0.1)
    for t in (0.0, 2.0, 445.9, np.array([])):
        with pytest.raises(QuadratureError, match="tolerance"):
            dc.freespace_f00_numeric(p, t, tol=1e-12)
        with pytest.raises(QuadratureError, match="tolerance"):
            dc.g_integral(p, t, tol=1e-12)
    assert calls == []


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
    "g", [0.01, 0.5, 0.95, 1.0 - 1e-6, float(np.nextafter(1.0, 0.0))]
)
def test_closed_form_matches_four_pole_sum(g):
    """Closed form against an independent 30-digit evaluation up to g t = 1800.

    The pole weights grow like 1/kappa as g approaches omega_bar
    (g/kappa = 6.7e7 at the last g), so this also checks that the
    evaluation does not amplify roundoff by that factor.
    """
    p = dc.make_params(1.0, g, delta=0.1)
    # plus both sides of |z| = 2 and |z| = 60, where the evaluation switches
    times = np.concatenate(
        [np.geomspace(1e-3, 1800.0 / g, 40), [1.9, 2.1, 59.9, 60.1]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = dc.freespace_f00_closed(p, times)
    reference = np.array([four_pole_f00(p, t) for t in times])
    assert np.max(np.abs(closed - reference)) <= 1e-13


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


@pytest.mark.parametrize("g", [1.2, 2.0, 3.0])
def test_numeric_strong_coupling_matches_weighted_quad(g):
    w = 1.0
    p = dc.make_params(w, g, delta=0.1)
    f = lambda x: x * x / ((x * x - w * w) ** 2 + 4 * g * g * x * x)
    pref = 4 * g / np.pi
    re_ref = pref * quad(f, 0, np.inf, weight="cos", wvar=3.0, limit=2000)[0]
    im_ref = -pref * quad(f, 0, np.inf, weight="sin", wvar=3.0, limit=2000)[0]
    numeric = dc.freespace_f00_numeric(p, 3.0, tol=1e-10)
    assert abs(numeric - complex(re_ref, im_ref)) <= 1e-9


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
