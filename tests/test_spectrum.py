import dataclasses

import numpy as np
import pytest

import dressedcavity as dc
from dressedcavity.errors import ApproximationDomainError, SpectrumSolverError

# independently solved roots at omega_bar=1, g=0.5, delta=0.1
# (40-digit bisection of the eigenfrequency equation)
OMEGA0_EXACT = 0.90754530501076127
OMEGA1_EXACT = 5.2912682374213841
OMEGA2_EXACT = 10.155331685274416
OMEGA0_FIRST_ORDER = 0.89528024488034023


def test_cotangent_partial_fraction_identity():
    """sum_k 1/(k^2 - u^2) equals (1/2)(1/u^2 - (pi/u) cot(pi u)).

    Checked with a one-million-term partial sum plus the integral tail
    estimate 1/K for the truncated part.
    """
    k = np.arange(1, 1_000_001, dtype=float)
    for u in (0.17, 0.5, 2.75, 9.9):
        partial = float(np.sum(1.0 / (k * k - u * u))) + 1.0 / k[-1]
        closed = 0.5 * (1.0 / u**2 - np.pi / (u * np.tan(np.pi * u)))
        assert partial == pytest.approx(closed, abs=1e-6)


def test_exact_roots_baseline(baseline_spectrum):
    assert baseline_spectrum.omegas[0] == pytest.approx(OMEGA0_EXACT, abs=1e-11)
    assert baseline_spectrum.omegas[1] == pytest.approx(OMEGA1_EXACT, abs=1e-11)
    assert baseline_spectrum.omegas[2] == pytest.approx(OMEGA2_EXACT, abs=1e-11)


def test_residuals_below_contract(baseline_spectrum):
    assert float(baseline_spectrum.residuals.max()) < 1e-10


def test_roots_strictly_increasing_and_interlaced(
    baseline_params, baseline_spectrum
):
    omegas = baseline_spectrum.omegas
    assert np.all(np.diff(omegas) > 0)
    assert np.all(omegas > 0)
    assert dc.check_interlacing(baseline_params, baseline_spectrum)


def test_high_mode_frequencies_approach_bare_grid(
    baseline_params, baseline_spectrum
):
    dw = baseline_params.delta_omega
    k = np.arange(100, 1001)
    ratio = baseline_spectrum.omegas[k] / (k * dw)
    assert np.all(ratio > 1.0)
    assert np.all(ratio < 1.001)
    # the branch offset 2*delta/(pi*k) decays with k
    offsets = baseline_spectrum.omegas[k] - k * dw
    assert offsets[-1] < offsets[0]


@pytest.mark.parametrize(
    "delta, n_modes", [(1e-6, 700), (1e-5, 7000), (1e-4, 70_000)]
)
def test_small_cavities_solve_every_branch(delta, n_modes):
    """The mismatch is +inf at every branch's lower end (on branch 0 too,
    where it goes like omega_bar^2/(2 g Omega)) and -inf at its upper end,
    so bisecting from the exact ends by the sign at the midpoint finds each
    root, however close it sits to its lower pole: about 2 delta/(pi r)
    branch widths here, down to 1e-9 of a width.  The roots are those the
    mode matrix accepts."""
    p = dc.make_params(1.0, 0.5, delta=delta, n_modes=n_modes)
    spec = dc.solve_spectrum(p)
    assert spec.n_modes == n_modes
    assert dc.check_interlacing(p, spec)
    residual = dc.newton_residuals(p, spec.omegas).max()
    assert residual <= dc.modes._RESIDUAL_BOUND * p.delta_omega


def test_a_root_not_resolved_in_floating_point_is_refused():
    """At (omega_bar, g, delta) = (1, 1e100, 1e100) root 0 lies near 1e-50,
    far below the 2^-120 of a branch width that 120 halvings reach; the
    mismatch there is rounding noise, and F and F' at the midpoint both
    read 0.  Its bracket never collapses, and the residual is NaN, without
    a numpy warning (an error under this suite's filter).  A residual that
    is not finite is refused too."""
    p = dc.make_params(1.0, 1e100, delta=1e100, n_modes=5)
    with pytest.raises(SpectrumSolverError, match="not collapsed .* at branch 0$"):
        dc.solve_spectrum(p)
    assert np.isnan(dc.newton_residuals(p, [3.76e-37]))
    # R omega_bar^2/(2g) overflows at omega_bar = 1e95, g = 1e-65: F and F'
    # are infinite, and their ratio NaN
    p = dc.make_params(1e95, 1e-65, delta=2e-3, n_modes=1)
    with pytest.raises(SpectrumSolverError, match="residual is not finite at branch 0"):
        dc.solve_spectrum(p)


def test_interlacing_checker_spots_corruption(baseline_params, baseline_spectrum):
    bad = np.array(baseline_spectrum.omegas)
    bad[5] += baseline_params.delta_omega  # push the root out of its branch
    corrupted = dataclasses.replace(baseline_spectrum, omegas=bad)
    assert not dc.check_interlacing(baseline_params, corrupted)


def test_small_cavity_approximation_values():
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=10)
    approx = dc.approx_spectrum_small_cavity(p)
    assert isinstance(approx, np.ndarray) and approx.shape == (11,)
    assert approx[0] == pytest.approx(OMEGA0_FIRST_ORDER, abs=1e-14)
    assert approx[1] == pytest.approx(5.3183098861837907, abs=1e-13)
    assert approx[2] == pytest.approx(10.159154943091895, abs=1e-13)


def test_small_cavity_approximation_solves_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(
        dc.spectrum, "newton_residuals", lambda *args: calls.append(args)
    )
    dc.approx_spectrum_small_cavity(dc.make_params(1.0, 0.5, delta=0.1, n_modes=10))
    assert calls == []


def test_small_cavity_decoupling_limit():
    p = dc.make_params(1.0, 0.5, delta=1e-4, n_modes=5)
    approx = dc.approx_spectrum_small_cavity(p)
    assert approx[0] == pytest.approx(1.0, abs=2e-4)
    k = np.arange(1, 6)
    assert approx[1:] == pytest.approx(k * p.delta_omega, rel=1e-4)


def test_small_cavity_validity_guards():
    # delta beyond the global cutoff
    with pytest.raises(ApproximationDomainError):
        dc.approx_spectrum_small_cavity(dc.make_params(1.0, 2.0, delta=0.6))
    # delta above 2 g^2 / (pi omega_bar^2): lowest-mode formula invalid
    with pytest.raises(ApproximationDomainError):
        dc.approx_spectrum_small_cavity(dc.make_params(1.0, 0.3, delta=0.1))
    # crude but allowed region emits a warning
    with pytest.warns(UserWarning):
        dc.approx_spectrum_small_cavity(dc.make_params(1.0, 1.5, delta=0.3))


def test_approximation_error_shrinks_with_delta_at_fixed_spacing():
    """Exact-vs-approximate gap falls at least 3x per halving of delta.

    The spacing delta_omega is held fixed (radius fixed) while g sets
    delta, so the gap scales like delta_omega * delta^2.  The atom
    frequency 0.8 keeps the lowest-root validity condition satisfied at
    every sweep point.
    """
    gaps = []
    for delta in (0.2, 0.1, 0.05):
        g = 5.0 * delta  # delta_omega = 5 throughout
        p = dc.make_params(0.8, g, delta=delta, n_modes=10)
        exact = dc.solve_spectrum(p)
        approx = dc.approx_spectrum_small_cavity(p)
        gaps.append(float(np.abs(exact.omegas - approx).max()))
    assert gaps[0] / gaps[1] >= 3.0
    assert gaps[1] / gaps[2] >= 3.0


def test_lowest_root_gap_scales_quadratically():
    gaps = []
    for delta in (0.2, 0.1, 0.05):
        p = dc.make_params(1.0, 0.5, delta=delta, n_modes=2)
        exact = dc.solve_spectrum(p).omegas[0]
        first_order = p.omega_bar * (1.0 - np.pi * delta / 3.0)
        gaps.append(abs(exact - first_order))
    assert gaps[0] / gaps[1] >= 3.0
    assert gaps[1] / gaps[2] >= 3.0


@pytest.mark.parametrize("g", [0.5, 0.9])
def test_lowest_root_gap_coefficients(g):
    """Omega_0 = (1 + 2 pi delta/3)^(-1/2) + O(delta^3/g^2) at omega_bar = 1.

    The first-order gap over delta^2 tends to pi^2/6, above the coefficient
    1 that the 0.01 and 0.0025 envelopes of the two strict xfails in
    test_acceptance need; the resummed line misses by pi^3/(45 g^2) delta^3.
    """
    delta = 1e-3
    p = dc.make_params(1.0, g, delta=delta, n_modes=2)
    exact = dc.solve_spectrum(p).omegas[0]
    first_order = dc.approx_spectrum_small_cavity(p)[0]
    resummed = (1.0 + 2.0 * np.pi * delta / 3.0) ** -0.5
    assert abs(exact - first_order) / delta**2 == pytest.approx(np.pi**2 / 6, rel=0.01)
    assert abs(exact - resummed) / delta**3 == pytest.approx(
        np.pi**3 / (45 * g**2), rel=0.01
    )


def test_newton_residuals_match_definition(baseline_params, baseline_spectrum):
    # a deliberately offset frequency has residual close to the offset
    omega = baseline_spectrum.omegas[0] + 1e-7
    res = dc.newton_residuals(baseline_params, np.array([omega]))[0]
    assert res == pytest.approx(1e-7, rel=1e-3)
