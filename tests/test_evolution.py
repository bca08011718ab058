import tracemalloc

import numpy as np
import pytest

import dressedcavity as dc
from dressedcavity import evolution
from dressedcavity.errors import ApproximationDomainError, ConsistencyError

LOWER_BOUND_D01 = 0.36729331802172701  # closed-form bound at delta=0.1


def test_amplitude_identity_at_t0(small_matrix, small_spectrum):
    n = small_spectrum.n_modes
    for mu in (0, 1, n):
        row = dc.amplitude_row(small_matrix, small_spectrum, mu, 0.0)
        assert abs(row[mu] - 1.0) < 1e-12
        off = np.abs(np.delete(row, mu)).max()
        assert off < 1e-12


def test_amplitude_matches_row(small_matrix, small_spectrum):
    row = dc.amplitude_row(small_matrix, small_spectrum, 0, 3.7)
    for nu in (0, 1, 5):
        direct = dc.amplitude(small_matrix, small_spectrum, 0, nu, 3.7)
        assert direct == pytest.approx(complex(row[nu]), abs=1e-14)


def test_amplitude_symmetric_in_indices(small_matrix, small_spectrum):
    a = dc.amplitude(small_matrix, small_spectrum, 2, 7, 1.3)
    b = dc.amplitude(small_matrix, small_spectrum, 7, 2, 1.3)
    assert a == pytest.approx(b, abs=1e-15)


def test_unitarity_rows(baseline_matrix, baseline_spectrum):
    for mu in (0, 1, 5):
        defect = dc.unitarity_defect(
            baseline_matrix, baseline_spectrum, mu, (1.0, 10.0, 100.0)
        )
        assert defect < 1e-6


def test_time_reversal_conjugation(small_matrix, small_spectrum):
    for mu, nu, t in ((0, 0, 2.0), (0, 3, 5.5), (2, 2, 11.0)):
        forward = dc.amplitude(small_matrix, small_spectrum, mu, nu, t)
        backward = dc.amplitude(small_matrix, small_spectrum, mu, nu, -t)
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
    f00 = dc.amplitude(small_matrix, small_spectrum, 0, 0, t)
    assert scalar == pytest.approx(abs(f00) ** 2, abs=1e-14)
    (grid_f00,) = dc.atom_amplitude(small_matrix, small_spectrum, t)
    assert grid_f00 == pytest.approx(f00, abs=1e-14)


def test_survival_probability_shape_follows_input(small_matrix, small_spectrum):
    scalar = dc.survival_probability(small_matrix, small_spectrum, 1.0)
    assert type(scalar) is float
    one = dc.survival_probability(small_matrix, small_spectrum, np.array([1.0]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == scalar
    two = dc.survival_probability(small_matrix, small_spectrum, [1.0, 2.0])
    assert two.shape == (2,)


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


def test_dimension_mismatch_raises(small_matrix, baseline_spectrum):
    with pytest.raises(ConsistencyError):
        dc.amplitude(small_matrix, baseline_spectrum, 0, 0, 1.0)


def test_series_at_t0_resums_to_one():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    result = dc.survival_probability_small_cavity_series(p, 0.0, k_terms=1000)
    assert result.values[0] == pytest.approx(1.0, abs=2e-3)
    # zeta(2) resummation: the truncated value sits just below 1
    assert result.values[0] < 1.0


def test_series_tail_bound_metadata():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    result = dc.survival_probability_small_cavity_series(
        p, 1.0, k_terms=100, tol=1e-2
    )
    assert result.tail_bound == pytest.approx(8 * 0.1 / np.pi / 100, rel=1e-12)
    assert result.converged is True
    tight = dc.survival_probability_small_cavity_series(
        p, 1.0, k_terms=100, tol=1e-4
    )
    assert tight.converged is False
    untracked = dc.survival_probability_small_cavity_series(p, 1.0, k_terms=100)
    assert untracked.converged is None


def test_series_rejects_bad_inputs():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    with pytest.raises(ApproximationDomainError):
        dc.survival_probability_small_cavity_series(p, 1.0, k_terms=0)
    with pytest.raises(ApproximationDomainError):
        dc.survival_probability_small_cavity_series(
            dc.make_params(1.0, 2.0, delta=0.7), 1.0
        )


def test_series_stays_above_bound_with_slack():
    p = dc.make_params(1.0, 0.5, delta=0.1)
    times = np.linspace(0.0, 100.0, 20001)
    values = dc.survival_probability_small_cavity_series(p, times, 1000).values
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
        series = dc.survival_probability_small_cavity_series(p, times, 1000).values
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
    # the bracket 1 - 4 pi d/3 - 4 pi^2 d^2/9 is negative from d ~ 0.198
    with pytest.raises(ApproximationDomainError):
        dc.small_cavity_lower_bound(dc.make_params(1.0, 0.5, delta=0.2))


@pytest.mark.parametrize("size", [1, 255, 256, 257, 4001])
def test_phase_sum_blocks_equal_unblocked_product(
    size, baseline_matrix, baseline_spectrum
):
    omegas = baseline_spectrum.omegas
    weights = baseline_matrix.entries[0] ** 2
    times = np.linspace(0.0, 100.0, size)
    blocked = evolution._phase_sum(omegas, weights, times)
    unblocked = np.exp(-1j * np.outer(times, omegas)) @ weights
    assert np.array_equal(blocked, unblocked)


def _traced_peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_time_grid_temporaries_stay_bounded(baseline_matrix, baseline_spectrum):
    """A whole (times x modes) phase matrix at 4001 t and N=1000 is 64 MB."""
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
