import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dressedcavity as dc
from dressedcavity import evolution, freespace
from dressedcavity.errors import (
    ApproximationDomainError,
    CavityModelError,
    ConsistencyError,
    ValidationError,
)

LOWER_BOUND_D01 = 0.36729331802172701  # closed-form bound at delta=0.1


def test_amplitude_identity_at_t0(small_matrix, small_spectrum):
    n = small_spectrum.n_modes
    for mu in (0, 1, n):
        row = dc.amplitude_row(small_matrix, small_spectrum, mu, 0.0)
        assert abs(row[mu] - 1.0) < 1e-12
        off = np.abs(np.delete(row, mu)).max()
        assert off < 1e-12


def test_amplitude_symmetric_in_indices(small_matrix, small_spectrum):
    a = dc.amplitude_row(small_matrix, small_spectrum, 2, 1.3)[7]
    b = dc.amplitude_row(small_matrix, small_spectrum, 7, 1.3)[2]
    assert a == pytest.approx(b, abs=1e-15)


def test_amplitude_row_matches_the_complex_product(
    baseline_matrix, baseline_spectrum
):
    entries, omegas = baseline_matrix.entries, baseline_spectrum.omegas
    for mu in (0, 1, baseline_spectrum.n_modes):
        for t in (-5.0, 0.0, 50.0):
            row = dc.amplitude_row(baseline_matrix, baseline_spectrum, mu, t)
            direct = entries @ (entries[mu] * np.exp(-1j * omegas * t))
            assert row.dtype == complex and row.shape == direct.shape
            assert np.abs(row - direct).max() <= 1e-14
    # one time per call: a grid is refused, not read at its first time
    with pytest.raises(ValidationError, match="takes one time"):
        dc.amplitude_row(baseline_matrix, baseline_spectrum, 0, np.array([1.0, 2.0]))


def test_amplitude_row_makes_no_complex_copy_of_the_matrix(
    baseline_matrix, baseline_spectrum
):
    """A complex copy of the N=1000 mode matrix alone is 16 MB."""
    peak = _traced_peak_bytes(
        dc.amplitude_row, baseline_matrix, baseline_spectrum, 0, 10.0
    )
    assert peak < 1e6


def test_unitarity_rows(baseline_matrix, baseline_spectrum):
    for mu in (0, 1, 5):
        defect = dc.unitarity_defect(
            baseline_matrix, baseline_spectrum, mu, (1.0, 10.0, 100.0)
        )
        assert defect < 1e-6


def test_time_reversal_conjugation(small_matrix, small_spectrum):
    for mu, nu, t in ((0, 0, 2.0), (0, 3, 5.5), (2, 2, 11.0)):
        forward = dc.amplitude_row(small_matrix, small_spectrum, mu, t)[nu]
        backward = dc.amplitude_row(small_matrix, small_spectrum, mu, -t)[nu]
        assert backward == pytest.approx(forward.conjugate(), abs=1e-14)


def test_survival_probability_bounds(baseline_matrix, baseline_spectrum):
    times = np.linspace(0.0, 100.0, 2001)
    surv = dc.survival_probability(baseline_matrix, baseline_spectrum, times)
    assert surv.max() <= 1.0 + 1e-9
    assert surv.min() >= 0.0
    assert surv[0] == pytest.approx(1.0, abs=1e-12)


def test_survival_matches_amplitude(small_matrix, small_spectrum):
    t = 4.25
    scalar = dc.survival_probability(small_matrix, small_spectrum, t)
    f00 = dc.amplitude_row(small_matrix, small_spectrum, 0, t)[0]
    assert scalar == pytest.approx(abs(f00) ** 2, abs=1e-14)
    (grid_f00,) = dc.atom_amplitude(small_matrix.entries[0], small_spectrum, t)
    assert grid_f00 == pytest.approx(f00, abs=1e-14)


def test_survival_probability_shape_follows_input(small_matrix, small_spectrum):
    scalar = dc.survival_probability(small_matrix, small_spectrum, 1.0)
    assert type(scalar) is float
    one = dc.survival_probability(small_matrix, small_spectrum, np.array([1.0]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == scalar
    two = dc.survival_probability(small_matrix, small_spectrum, [1.0, 2.0])
    assert two.shape == (2,)


def test_survival_from_row_rejects_a_row_of_another_size(
    small_matrix, baseline_spectrum
):
    with pytest.raises(ConsistencyError):
        dc.atom_amplitude(small_matrix.entries[0], baseline_spectrum, 1.0)


@pytest.mark.parametrize("n_modes", [1, 30, 1000])
def test_row_norms_match_amplitude_rows(n_modes):
    params = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n_modes)
    spec = dc.solve_spectrum(params)
    matrix = dc.build_matrix(params, spec)
    for mu in (0, 1, n_modes):
        for size in (1, 3, 256, 257):  # 257 times cross a chunk boundary
            times = np.linspace(0.0, 50.0, size)
            sums = dc.row_norms(matrix.entries, spec.omegas, mu, times)
            direct = [
                np.sum(np.abs(dc.amplitude_row(matrix, spec, mu, t)) ** 2)
                for t in times
            ]
            assert sums.shape == (size,)
            assert np.abs(sums - direct).max() <= 1e-14


def test_row_norms_of_a_non_unitary_matrix():
    """Row sums that vary in time (0.6 to 2.5 here) pin the order of the
    time chunks; measured error at most 0.2 of the bound."""
    n = 30
    omegas = dc.solve_spectrum(dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)).omegas
    entries = np.random.default_rng(3).normal(size=(n + 1, n + 1)) / np.sqrt(n + 1)
    for times in (
        np.linspace(0.0, 50.0, 3),
        np.linspace(0.0, 50.0, 257),
        np.linspace(0.0, 50.0, 4001),
        _jittered_grid(257, 50.0),
    ):
        for mu in (0, n):
            sums = dc.row_norms(entries, omegas, mu, times)
            rows = [entries @ (entries[mu] * np.exp(-1j * omegas * t)) for t in times]
            direct = np.array([np.sum(np.abs(row) ** 2) for row in rows])
            bound = np.finfo(float).eps * (1 + omegas.max() * 50.0) * direct.max()
            assert np.abs(sums - direct).max() <= bound


@pytest.mark.parametrize("mu", [-1, 31, 2.0, True])
def test_row_kernel_refuses_a_mu_outside_the_rows(mu):
    """numpy indexing would read mu = -1 as row N and fail on 31 or 2.0 with
    a bare IndexError."""
    params = dc.make_params(1.0, 0.5, delta=0.1, n_modes=30)
    spec = dc.solve_spectrum(params)
    matrix = dc.build_matrix(params, spec)
    with pytest.raises(ValidationError, match="mu"):
        dc.amplitude_row(matrix, spec, mu, 1.0)
    for times in ([0.0, 1.0], []):  # an empty grid forms no row
        with pytest.raises(ValidationError, match="mu"):
            dc.row_norms(matrix.entries, spec.omegas, mu, times)
    with pytest.raises(ValidationError, match="mu"):
        dc.unitarity_defect(matrix, spec, mu, [0.0, 1.0])
    # the last row is legal, and a numpy integer reads as the same row
    last = dc.amplitude_row(matrix, spec, np.int64(30), 1.0)
    assert np.array_equal(last, dc.amplitude_row(matrix, spec, 30, 1.0))
    norms = dc.row_norms(matrix.entries, spec.omegas, np.int64(30), [1.0])
    assert abs(norms[0] - 1.0) < 1e-12


def test_an_empty_grid_has_no_defect_and_empty_values(small_matrix, small_spectrum):
    with pytest.raises(ValidationError, match="at least one time"):
        dc.unitarity_defect(small_matrix, small_spectrum, 0, [])
    row, omegas = small_matrix.entries[0], small_spectrum.omegas
    series_params = dc.make_params(1.0, 0.5, delta=0.1)
    for values in (
        dc.atom_amplitude(row, small_spectrum, []),
        dc.survival_probability(small_matrix, small_spectrum, []),
        dc.row_norms(small_matrix.entries, omegas, 0, []),
        dc.small_cavity_amplitude_first_order(series_params, [], 100),
    ):
        assert isinstance(values, np.ndarray) and values.shape == (0,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("on_grid", [False, True], ids=["alone", "in-grid"])
def test_a_time_that_is_not_finite_is_refused(
    bad, on_grid, small_matrix, small_spectrum
):
    """Such a t would give NaN, with numpy's "invalid value" warning for inf."""
    t = np.array([0.0, 1.0, bad]) if on_grid else bad
    entries, omegas = small_matrix.entries, small_spectrum.omegas
    series_params = dc.make_params(1.0, 0.5, delta=0.1)
    calls = [
        lambda: dc.atom_amplitude(entries[0], small_spectrum, t),
        lambda: dc.survival_probability(small_matrix, small_spectrum, t),
        lambda: dc.small_cavity_amplitude_first_order(series_params, t, 100),
        lambda: dc.row_norms(entries, omegas, 0, t),
        lambda: dc.unitarity_defect(small_matrix, small_spectrum, 0, t),
    ]
    if not on_grid:
        calls.append(lambda: dc.amplitude_row(small_matrix, small_spectrum, 0, t))
    for call in calls:
        with pytest.raises(ApproximationDomainError, match="t must be finite"):
            call()


def _time_entry_points(params, m, spec):
    """The library's entry points that take a time argument, by name, each
    as a call of that argument alone."""
    return {
        "atom_amplitude": lambda t: dc.atom_amplitude(m.entries[0], spec, t),
        "survival_probability": lambda t: dc.survival_probability(m, spec, t),
        "small_cavity_amplitude_first_order": lambda t: (
            dc.small_cavity_amplitude_first_order(params, t, 100)
        ),
        "raw_defects": lambda t: dc.raw_defects(params, spec, t),
        "entropy_time_independence_check": lambda t: (
            dc.entropy_time_independence_check(
                params, dc.EntangledStateConfig(xi=0.3), t, m, spec
            )
        ),
        "row_norms": lambda t: dc.row_norms(m.entries, spec.omegas, 0, t),
        "unitarity_defect": lambda t: dc.unitarity_defect(m, spec, 0, t),
        "amplitude_row": lambda t: dc.amplitude_row(m, spec, 0, t),
        "freespace_f00_numeric": lambda t: dc.freespace_f00_numeric(params, t),
        "freespace_f00_closed": lambda t: dc.freespace_f00_closed(params, t),
        "freespace_survival_asymptotic": lambda t: (
            dc.freespace_survival_asymptotic(params, t)
        ),
        "g_integral": lambda t: dc.g_integral(params, t),
    }


TIME_ENTRY_POINTS = list(_time_entry_points(None, None, None))


@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
def test_a_grid_of_two_axes_is_refused(
    entry, monkeypatch, small_params, small_matrix, small_spectrum
):
    """Each time entry point takes a real scalar or a real grid of one axis,
    checked by the one time check before any quadrature: a (2, 3) grid, a
    complex t and None are refused by name, not flattened, cast to their
    real part or left to a numpy error, and NaN is refused as not finite.
    ``amplitude_row`` takes exactly one time."""

    def no_quadrature(*args):
        raise AssertionError("the times are checked before any quadrature")

    monkeypatch.setattr(freespace, "quad", no_quadrature)
    calls = _time_entry_points(small_params, small_matrix, small_spectrum)
    refused = [
        (np.linspace(0.0, 5.0, 6).reshape(2, 3), ValidationError, r"shape \(2, 3\)"),
        (1j, ValidationError, "dtype complex128"),
        (np.array([1 + 2j, 3.0]), ValidationError, r"shape \(2,\)"),
        (None, ValidationError, "dtype object"),
        (np.nan, ApproximationDomainError, "t must be finite"),
    ]
    if entry == "amplitude_row":
        refused += [
            ([0.0, 1.0], ValidationError, r"takes one time, got shape \(2,\)"),
            (np.array([1.0]), ValidationError, r"takes one time, got shape \(1,\)"),
        ]
    for t, error, message in refused:
        with pytest.raises(error, match=message):
            calls[entry](t)


@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
def test_a_time_past_the_phase_limit_is_refused(
    entry, small_params, small_matrix, small_spectrum
):
    """From 2^52 rad on, an ulp of a phase Omega t is a radian: such a t,
    alone or in a grid, is refused by name, not left to overflow or to
    cosines of no digit.  The quadrature refuses it by its own t x0 bound."""
    calls = _time_entry_points(small_params, small_matrix, small_spectrum)
    times = [1e300] if entry == "amplitude_row" else [1e300, [0.0, 1e300]]
    quadrature = entry in ("freespace_f00_numeric", "g_integral")
    for t in times:
        with pytest.raises(
            ApproximationDomainError, match="t x0" if quadrature else r"2\^52 rad"
        ):
            calls[entry](t)


_MAX = float(np.finfo(float).max)
_REAL = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 1e300, -1e300, _MAX, -_MAX]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
)
_NOT_REAL = st.one_of(st.text(max_size=3), st.none(), st.complex_numbers())
_TIMES = st.one_of(
    _REAL,
    _NOT_REAL,
    st.lists(_REAL, max_size=4),
    st.lists(_REAL, max_size=4).map(tuple),
    st.lists(st.one_of(_REAL, _NOT_REAL), min_size=1, max_size=4),
    st.lists(st.lists(_REAL, max_size=3), min_size=1, max_size=3),  # ragged too
    st.lists(_REAL, min_size=1, max_size=3).map(lambda v: np.array([v, v])),
    st.sampled_from([[], (), np.empty(0), np.empty((0, 2))]),
)


@settings(derandomize=True, database=None, max_examples=1500)
@given(entry=st.sampled_from(TIME_ENTRY_POINTS), t=_TIMES)
def test_a_time_entry_point_returns_or_raises_a_model_error(
    entry, t, small_params, small_matrix, small_spectrum
):
    """Any t, real or not, scalar, sequence, ragged or of two axes, either
    gives a value or a ``CavityModelError``: never a raw Python or numpy
    error, nor a numpy warning (an error under this suite's filter).  The
    quadrature is stubbed by one evaluation of its integrand per panel."""

    def one_point_per_panel(h, intervals, tol):
        h(np.mean(intervals, axis=1))
        return 0j, 0.0

    calls = _time_entry_points(small_params, small_matrix, small_spectrum)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(freespace, "quad", one_point_per_panel)
        try:
            calls[entry](t)
        except CavityModelError:
            pass


_MAGNITUDE = st.one_of(
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-320, 299),
    ),
    st.sampled_from([1e-320, 1e300, 1.0, 0.5, 0.1]),
)


@settings(derandomize=True, database=None, max_examples=2000)
@given(
    omega_bar=_MAGNITUDE, g=_MAGNITUDE, delta=_MAGNITUDE, n_modes=st.integers(1, 20)
)
def test_parameters_of_any_magnitude_give_an_atom_row_or_a_model_error(
    omega_bar, g, delta, n_modes
):
    """make_params, solve_spectrum and atom_row at parameters from 1e-320
    to 1e300 either give a finite positive atom row or raise a
    ``CavityModelError``: no Python or numpy error, no numpy warning (an
    error under this suite's filter), no inf or NaN in a result."""
    try:
        p = dc.make_params(omega_bar, g, delta=delta, n_modes=n_modes)
        spec = dc.solve_spectrum(p)
        row = dc.atom_row(p, spec)
    except CavityModelError:
        return
    assert np.all(np.isfinite(spec.residuals))
    assert np.all(np.isfinite(row)) and np.all(row > 0.0)


def test_dimension_mismatch_raises(small_matrix, small_spectrum, baseline_spectrum):
    with pytest.raises(ConsistencyError):
        dc.amplitude_row(small_matrix, baseline_spectrum, 0, 1.0)
    omegas = small_spectrum.omegas
    row = small_matrix.entries[0]
    for wrong in (omegas[:-1], np.append(omegas, omegas[-1] + 1.0)):
        spec = dc.Spectrum(omegas=wrong, residuals=np.zeros(wrong.size))
        with pytest.raises(ConsistencyError, match="pair"):
            dc.row_norms(small_matrix.entries, wrong, 0, [0.0, 1.0])
        with pytest.raises(ConsistencyError, match="pair"):
            dc.atom_amplitude(row, spec, [0.0, 1.0])
        with pytest.raises(ConsistencyError, match="pair"):
            dc.unitarity_defect(small_matrix, spec, 0, [0.0, 1.0])
    # a row must be one row, even when its last axis pairs with the roots
    with pytest.raises(ConsistencyError, match="pair"):
        dc.atom_amplitude(small_matrix.entries[:2], small_spectrum, 1.0)


def _series_survival(params, t, k_terms=1000):
    return np.abs(dc.small_cavity_amplitude_first_order(params, t, k_terms)) ** 2


def test_series_at_t0_resums_to_one():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    values = _series_survival(p, 0.0, k_terms=1000)
    assert values[0] == pytest.approx(1.0, abs=2e-3)
    # zeta(2) resummation: the truncated value sits just below 1
    assert values[0] < 1.0


def test_series_rejects_bad_inputs():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    with pytest.raises(ApproximationDomainError):
        _series_survival(p, 1.0, k_terms=0)
    with pytest.raises(ApproximationDomainError):
        _series_survival(dc.make_params(1.0, 2.0, delta=0.7), 1.0)


def _parent_first_order(params, t, k_terms):
    """The series as written out before it became a mode sum of the
    first-order spectrum and atom row: a e^{-i Omega_0 t} plus
    a (4 delta/pi) sum_k k^{-2} e^{-i Omega_k t}."""
    d = params.delta
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = 1.0 / (1.0 + 2.0 * np.pi * d / 3.0)
    k = np.arange(1, k_terms + 1, dtype=float)
    omega_0 = params.omega_bar * (1.0 - np.pi * d / 3.0)
    omega_k = (params.g / d) * (k + 2.0 * d / (np.pi * k))
    z = evolution._phase_sum(omega_k, 1.0 / k**2, t)
    return a * np.exp(-1j * t * omega_0) + a * (4.0 * d / np.pi) * z


@pytest.mark.parametrize(
    "g, delta", [(0.5, 0.025), (0.5, 0.05), (0.5, 0.1), (0.9, 0.2)]
)
@pytest.mark.parametrize("k_terms", [100, 1000])
def test_series_matches_the_written_out_expression(g, delta, k_terms):
    p = dc.make_params(1.0, g, delta=delta)
    for size in (1, 2, 1001, 20001):
        times = np.linspace(0.0, 100.0, size)
        series = dc.small_cavity_amplitude_first_order(p, times, k_terms)
        assert np.abs(series - _parent_first_order(p, times, k_terms)).max() < 1e-13


def test_series_has_the_domain_of_the_approximate_spectrum():
    refused = dc.make_params(1.0, 0.3, delta=0.1)  # delta >= 2 g^2/pi
    with pytest.raises(ApproximationDomainError):
        dc.approx_spectrum_small_cavity(refused)
    with pytest.raises(ApproximationDomainError):
        dc.small_cavity_amplitude_first_order(refused, 1.0, 100)
    crude = dc.make_params(1.0, 1.5, delta=0.3)
    with pytest.warns(UserWarning, match="crude"):
        dc.approx_spectrum_small_cavity(crude)
    with pytest.warns(UserWarning, match="crude"):
        dc.small_cavity_amplitude_first_order(crude, 1.0, 100)


def test_series_stays_above_bound_with_slack():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    times = np.linspace(0.0, 100.0, 20001)
    values = _series_survival(p, times, 1000)
    assert values.min() >= LOWER_BOUND_D01 - 0.01


def test_series_tracks_exact_mode_sum():
    """First-order series vs exact mode sum.

    The approximate frequencies drift from the exact roots at second
    order in delta, so the agreement window grows as delta shrinks:
    measured envelopes are 0.022 for delta=0.05 over t <= 10 and 0.029
    for delta=0.025 over t <= 50.
    """
    gaps = {}
    for delta, t_max in ((0.05, 10.0), (0.025, 50.0)):
        p = dc.make_params(1.0, 0.5, delta=delta, n_modes=1000)
        spec = dc.solve_spectrum(p)
        matrix = dc.build_matrix(p, spec)
        times = np.linspace(0.0, t_max, 2001)
        exact = dc.survival_probability(matrix, spec, times)
        series = _series_survival(p, times, 1000)
        gaps[delta] = float(np.abs(series - exact).max())
    assert gaps[0.05] < 0.05
    assert gaps[0.025] < 0.05


def test_lower_bound_values():
    assert dc.small_cavity_lower_bound(
        dc.make_params(1.0, 0.5, delta=0.1)
    ) == pytest.approx(LOWER_BOUND_D01, rel=1e-12)
    # decoupling limit
    assert dc.small_cavity_lower_bound(
        dc.make_params(1.0, 0.5, delta=1e-7)
    ) == pytest.approx(1.0, abs=1e-5)


def test_lower_bound_domain():
    with pytest.raises(ApproximationDomainError):
        dc.small_cavity_lower_bound(dc.make_params(1.0, 0.5, delta=0.2))
    # the bracket 1 - 4 pi d/3 - 4 pi^2 d^2/9 is negative from d ~ 0.198
    with pytest.raises(ApproximationDomainError, match="negative bracket"):
        dc.small_cavity_lower_bound(dc.make_params(1.0, 0.9, delta=0.2))
    # past the series' domain, delta < 2 g^2/(pi omega_bar^2) = 1.6e-3 at
    # g = 0.05, the exact survival dips to 8e-5 against a "bound" of 0.367
    with pytest.raises(ApproximationDomainError, match="lowest-mode"):
        dc.small_cavity_lower_bound(dc.make_params(1.0, 0.05, delta=0.1))


def _long_double_phase_sum(omegas, weights, times):
    """sum_s weights[s] exp(-i omegas[s] t) with phases and sums in long double."""
    om = omegas.astype(np.longdouble)
    w = weights.astype(np.longdouble)
    out = np.empty(times.size, dtype=complex)
    for i in range(0, times.size, 256):
        phase = np.outer(times[i : i + 256].astype(np.longdouble), om)
        out[i : i + 256] = (np.cos(phase) @ w) - 1j * (np.sin(phase) @ w)
    return out


def _jittered_grid(size, t_max):
    times = np.linspace(0.0, t_max, size)
    step = times[1] - times[0]
    times[1:-1] += np.random.default_rng(7).uniform(-0.3, 0.3, size - 2) * step
    return times


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)
@pytest.mark.parametrize(
    "size, t_max, uniform",
    [
        pytest.param(n, 100.0, True, id=str(n))
        for n in (1, 2, 3, 255, 256, 257, 4001, 20001)
    ]
    + [
        pytest.param(20001, 1e5, True, id="20001-long"),
        pytest.param(4001, 100.0, False, id="4001-jittered"),
    ],
)
def test_phase_sum_matches_long_double_reference(
    size, t_max, uniform, baseline_matrix, baseline_spectrum
):
    """|error| <= 2 eps sum_s w_s (1 + Omega_s t_max) against long double.

    Measured at N=1000 (Omega_max t_max = 5e5 and 5e8), in units of
    eps sum_s w_s (1 + Omega_s t_max): 1.0 on the one-point grid, a single
    ulp of sum_s w_s at t = 0, and at most 0.30 on every longer grid,
    against at most 0.11 for the direct exp(-i Omega t) sum; the jittered
    grid takes the direct sum (0.10).  Hence C = 2.  Grids above 257
    points are checked on every 37th time and the last, which walks every
    offset k of their blocks (37 is prime to B = 64 and 142).
    """
    omegas = baseline_spectrum.omegas
    weights = baseline_matrix.entries[0] ** 2
    times = np.linspace(0.0, t_max, size) if uniform else _jittered_grid(size, t_max)
    got = evolution._phase_sum(omegas, weights, times)
    assert got.shape == (size,)
    sample = np.unique(np.r_[np.arange(0, size, 1 if size <= 257 else 37), size - 1])
    reference = _long_double_phase_sum(omegas, weights, times[sample])
    bound = 2 * np.finfo(float).eps * np.sum(weights * (1 + omegas * t_max))
    assert np.abs(got[sample] - reference).max() <= bound


def _count_exponentiated(monkeypatch):
    """Spy on evolution._phases; returns the running count of its elements."""
    counted = [0]
    phases = evolution._phases

    def spy(omegas, times):
        out = phases(omegas, times)
        counted[0] += out.size
        return out

    monkeypatch.setattr(evolution, "_phases", spy)
    return counted


@pytest.mark.parametrize("size", [3, 257, 4001, 20001])
def test_uniform_grids_take_the_factored_phases(
    size, monkeypatch, baseline_matrix, baseline_spectrum
):
    counted = _count_exponentiated(monkeypatch)
    times = np.linspace(0.0, 100.0, size)
    dc.survival_probability(baseline_matrix, baseline_spectrum, times)
    assert counted[0] < 3 * np.sqrt(size) * baseline_spectrum.omegas.size
    counted[0] = 0
    series_params = dc.make_params(1.0, 0.5, delta=0.1)
    dc.small_cavity_amplitude_first_order(series_params, times, 1000)
    assert counted[0] < 3 * np.sqrt(size) * 1000


def test_jittered_grid_takes_direct_phases(
    monkeypatch, baseline_matrix, baseline_spectrum, small_matrix, small_spectrum
):
    counted = _count_exponentiated(monkeypatch)
    times = _jittered_grid(4001, 100.0)
    dc.survival_probability(baseline_matrix, baseline_spectrum, times)
    assert counted[0] == times.size * baseline_spectrum.omegas.size
    counted[0] = 0
    sums = dc.row_norms(small_matrix.entries, small_spectrum.omegas, 0, times)
    assert counted[0] == times.size * small_spectrum.omegas.size
    assert np.abs(sums - 1.0).max() < 1e-12


@pytest.mark.parametrize("size", [3, 257, 4001])
def test_row_norms_take_direct_phases_on_uniform_grids(
    size, monkeypatch, small_matrix, small_spectrum
):
    counted = _count_exponentiated(monkeypatch)
    times = np.linspace(0.0, 100.0, size)
    sums = dc.row_norms(small_matrix.entries, small_spectrum.omegas, 0, times)
    assert counted[0] == times.size * small_spectrum.omegas.size
    assert np.abs(sums - 1.0).max() < 1e-12


def _traced_peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_time_grid_temporaries_stay_bounded(baseline_matrix, baseline_spectrum):
    """A whole (times x modes) phase matrix at 4001 t and N=1000 is 64 MB,
    at 20001 t 320 MB."""
    times = np.linspace(0.0, 100.0, 4001)
    survival_peak = _traced_peak_bytes(
        dc.survival_probability, baseline_matrix, baseline_spectrum, times
    )
    assert survival_peak < 16e6
    series_peak = _traced_peak_bytes(
        dc.small_cavity_amplitude_first_order,
        dc.make_params(1.0, 0.5, delta=0.1),
        times,
        1000,
    )
    assert series_peak < 16e6
    rows_peak = _traced_peak_bytes(
        dc.row_norms,
        baseline_matrix.entries,
        baseline_spectrum.omegas,
        0,
        np.linspace(0.0, 100.0, 20001),
    )
    assert rows_peak < 16e6
