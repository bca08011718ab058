import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dressedcavity as dc
from dressedcavity import bipartite, cli
from dressedcavity.errors import (
    ApproximationDomainError,
    NormalizationError,
    PhysicalityError,
    ValidationError,
)

ENTROPY_XI_01 = 0.32508297339144824
ENTROPY_XI_03 = 0.61086430205489346
LN2 = 0.69314718055994531


def test_config_validation():
    for xi in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            dc.EntangledStateConfig(xi=xi)
    cfg = dc.EntangledStateConfig(xi=0.4, phi=7.5)
    assert cfg.phi == pytest.approx(7.5 - 2 * math.pi)
    assert 0.0 <= cfg.phi < 2 * math.pi


def test_initial_bell_like_state():
    cfg = dc.EntangledStateConfig(xi=0.5, phi=0.0)
    rho = dc.two_atom_reduced_density(1.0, 1.0, cfg)
    m = rho.elements
    assert m[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert m[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert m[2, 2] == pytest.approx(0.5, abs=1e-15)
    assert m[3, 3] == 0.0
    assert m[2, 1] == pytest.approx(0.5, abs=1e-15)
    eig = np.sort(rho.eigenvalues())
    assert eig == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_double_excitation_entry_always_zero():
    cfg = dc.EntangledStateConfig(xi=0.33, phi=1.0)
    rho = dc.two_atom_reduced_density(0.3 + 0.4j, -0.2 + 0.1j, cfg)
    assert rho.elements[3, 3] == 0.0
    assert np.abs(rho.elements[3, :]).max() == 0.0


def test_trace_is_one_by_construction():
    cfg = dc.EntangledStateConfig(xi=0.77, phi=2.0)
    rho = dc.two_atom_reduced_density(0.9j, 0.25 - 0.5j, cfg)
    assert np.real(np.trace(rho.elements)) == pytest.approx(1.0, abs=1e-15)


def test_equal_amplitudes_give_xi_free_spectrum():
    f = 0.6 + 0.3j
    for xi in (0.2, 0.5, 0.9):
        cfg = dc.EntangledStateConfig(xi=xi)
        rho = dc.two_atom_reduced_density(f, f, cfg)
        eig = np.sort(rho.eigenvalues())
        v = abs(f) ** 2
        assert eig == pytest.approx([0.0, 0.0, min(v, 1 - v), max(v, 1 - v)],
                                    abs=1e-12)


unit_complex = st.builds(
    lambda r, th: r * complex(math.cos(th), math.sin(th)),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)


@given(
    f_aa=unit_complex,
    f_bb=unit_complex,
    xi=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9),
)
def test_reduced_density_properties(f_aa, f_bb, xi, phi):
    cfg = dc.EntangledStateConfig(xi=xi, phi=phi)
    rho = dc.two_atom_reduced_density(f_aa, f_bb, cfg)
    m = rho.elements
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.real(np.trace(m)) == pytest.approx(1.0, abs=1e-12)
    eig = np.sort(rho.eigenvalues())
    assert eig[0] >= -1e-12
    expected = np.sort([0.0, 0.0, rho.p, 1.0 - rho.p])
    assert np.abs(eig - expected).max() < 1e-10
    d = dc.impurity(f_aa, f_bb, cfg)
    assert abs(d - rho.purity_defect()) < 1e-12
    assert -1e-12 <= d <= 0.5 + 1e-12


def test_impurity_special_points():
    cfg = dc.EntangledStateConfig(xi=0.3)
    assert dc.impurity(1.0, 1.0, cfg) == pytest.approx(0.0, abs=1e-15)
    # |f|^2 = 1/2 maximizes 2p(1-p)
    half = math.sqrt(0.5)
    assert dc.impurity(half, half, cfg) == pytest.approx(0.5, rel=1e-12)


def test_impurity_identical_atoms_independent_of_xi():
    f = 0.8 * np.exp(0.7j)
    values = [
        dc.impurity(f, f, dc.EntangledStateConfig(xi=xi))
        for xi in (0.1, 0.37, 0.5, 0.93)
    ]
    assert max(values) - min(values) < 1e-14
    v = abs(f) ** 2
    assert values[0] == pytest.approx(2 * v * (1 - v), rel=1e-12)
    # the CLI's impurity column is population_impurity(|f_00|^2): bitwise equal
    assert values == [dc.population_impurity(v)] * len(values)


def test_population_impurity_clamp_and_arrays():
    # roundoff above 1 is clamped instead of giving a negative impurity
    assert dc.population_impurity(1.0 + 2.0**-50) == 0.0
    ps = np.array([0.0, 0.1, 0.5, 0.9, 1.0, 1.0 + 2.0**-50])
    expected = [dc.population_impurity(float(p)) for p in ps]
    assert np.array_equal(dc.population_impurity(ps), expected)


def test_amplitude_magnitude_guard():
    cfg = dc.EntangledStateConfig(xi=0.5)
    with pytest.raises(PhysicalityError):
        dc.two_atom_reduced_density(1.5, 0.2, cfg)
    with pytest.raises(PhysicalityError):
        dc.impurity(0.2, -1.2, cfg)


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, complex(np.nan, 0.0), complex(0.1, np.inf)]
)
def test_non_finite_amplitude_rejected(bad):
    cfg = dc.EntangledStateConfig(xi=0.5)
    for f_aa, f_bb in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(PhysicalityError, match="not finite"):
            dc.impurity(f_aa, f_bb, cfg)
        with pytest.raises(PhysicalityError, match="not finite"):
            dc.two_atom_reduced_density(f_aa, f_bb, cfg)


@pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
def test_non_finite_phi_rejected(phi):
    with pytest.raises(ValidationError, match="phi"):
        dc.EntangledStateConfig(xi=0.5, phi=phi)


def test_single_atom_density_at_t0():
    cfg = dc.EntangledStateConfig(xi=0.3)
    f_row = np.zeros(6, dtype=complex)
    f_row[0] = 1.0
    rho = dc.single_atom_reduced_density(f_row, cfg)
    diag = np.real(np.diag(rho))
    assert diag[0] == pytest.approx(0.7, abs=1e-15)
    assert diag[1] == pytest.approx(0.3, abs=1e-15)
    assert np.abs(diag[2:]).max() == 0.0


def test_single_atom_density_structure(small_matrix, small_spectrum):
    cfg = dc.EntangledStateConfig(xi=0.3)
    row = dc.amplitude_row(small_matrix, small_spectrum, 0, 7.0)
    m = dc.single_atom_reduced_density(row, cfg)
    assert np.abs(m - m.conj().T).max() < 1e-14
    norm = float(np.sum(np.abs(row) ** 2))
    assert np.real(np.trace(m)) == pytest.approx(1.0 - 0.3 + 0.3 * norm, abs=1e-12)
    eig = np.linalg.eigvalsh(m)
    # rank two: projector plus a rank-one block
    assert np.abs(eig[:-2]).max() < 1e-12
    assert eig[-2:] == pytest.approx([0.3 * norm, 0.7], abs=1e-12)


def test_von_neumann_entropy_values():
    assert dc.von_neumann_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-15)
    assert dc.von_neumann_entropy([0.7, 0.3]) == pytest.approx(
        ENTROPY_XI_03, abs=1e-15
    )
    assert dc.von_neumann_entropy([0.9, 0.1]) == pytest.approx(
        ENTROPY_XI_01, abs=1e-15
    )
    assert dc.von_neumann_entropy([1.0, 0.0, 0.0]) == 0.0
    # tiny negatives from eigensolvers are clipped
    assert dc.von_neumann_entropy([1.0, -1e-12, 1e-13]) == 0.0


def loop_entropy(spectrum):
    """One spectrum at a time, zeros dropped before the logarithm."""
    alpha = np.clip(np.asarray(spectrum, dtype=float), 0.0, 1.0)
    alpha = alpha[alpha > 1e-12]
    return float(-np.sum(alpha * np.log(alpha)))


def test_von_neumann_entropy_of_stacked_spectra():
    stacked = np.array([[0.5, 0.5], [0.7, 0.3], [1.0, 0.0], [1.0, -1e-12]])
    entropies = dc.von_neumann_entropy(stacked)
    assert np.array_equal(entropies, [loop_entropy(s) for s in stacked])
    assert dc.von_neumann_entropy(stacked.reshape(2, 2, 2)).shape == (2, 2)
    # the sum-to-one check applies to each spectrum, not to the stack
    with pytest.raises(NormalizationError):
        dc.von_neumann_entropy([[0.5, 0.5], [0.4, 0.4], [0.6, 0.6]])
    with pytest.raises(NormalizationError):
        dc.von_neumann_entropy([[0.5, 0.5], [1.1, -0.1]])


def test_vectorised_entropies_equal_per_spectrum_loop():
    rng = np.random.default_rng(3)
    norms = np.concatenate([[1.0], 1.0 + 1e-9 * rng.standard_normal(998)])
    for xi in (0.1, 0.3, 0.5, 0.77):
        expected = [loop_entropy([1.0 - xi, xi * s]) for s in norms]
        assert np.array_equal(dc.rank_two_entropy(xi, norms), expected)
    for n in (1, 2, 199, 1000):
        xis, entropies = cli.figure2_grid(n)
        expected = [loop_entropy([(n + 1 - i) / (n + 1), i / (n + 1)])
                    for i in range(1, n + 1)]
        assert np.array_equal(xis, [i / (n + 1) for i in range(1, n + 1)])
        assert np.array_equal(entropies, expected)


def test_von_neumann_entropy_guards():
    with pytest.raises(NormalizationError):
        dc.von_neumann_entropy([0.4, 0.4])
    with pytest.raises(NormalizationError):
        dc.von_neumann_entropy([1.1, -0.1])
    # a NaN fails every comparison, so it must not slip past both checks
    for spectrum in ([np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0], [np.inf, -np.inf]):
        with pytest.raises(NormalizationError):
            dc.von_neumann_entropy(spectrum)
    with pytest.raises(NormalizationError):
        dc.rank_two_entropy(0.3, [1.0, np.nan])


def test_entropy_flatness_numeric(baseline_params, baseline_spectrum,
                                  baseline_matrix):
    cfg = dc.EntangledStateConfig(xi=0.3)
    report = dc.entropy_time_independence_check(
        baseline_params,
        cfg,
        (0.0, 5.0, 50.0),
        matrix=baseline_matrix,
        spectrum=baseline_spectrum,
    )
    assert report.analytic == pytest.approx(ENTROPY_XI_03, abs=1e-14)
    assert report.max_deviation < 1e-9
    assert report.std_dev < 1e-9
    assert report.eigenvalue_defect < 1e-9


def test_entropy_flatness_at_half(baseline_params, baseline_spectrum,
                                  baseline_matrix):
    report = dc.entropy_time_independence_check(
        baseline_params,
        dc.EntangledStateConfig(xi=0.5),
        (0.0, 2.5, 25.0),
        matrix=baseline_matrix,
        spectrum=baseline_spectrum,
    )
    assert np.abs(report.entropies - LN2).max() < 1e-9
    # a scalar is a one-point grid, as at every other grid entry point
    single = dc.entropy_time_independence_check(
        baseline_params,
        dc.EntangledStateConfig(xi=0.5),
        2.5,
        matrix=baseline_matrix,
        spectrum=baseline_spectrum,
    )
    assert np.array_equal(single.times, [2.5])
    assert np.array_equal(single.entropies, report.entropies[1:2])


def test_entropy_flatness_refuses_an_empty_grid_before_any_work(
    baseline_params, monkeypatch
):
    """An empty grid has no maximum deviation, and a time that is not
    finite no amplitude; both are refused before the spectrum and the mode
    matrix are built."""

    def no_work(*args):
        raise AssertionError("the grid is checked before any work")

    monkeypatch.setattr(bipartite, "solve_spectrum", no_work)
    monkeypatch.setattr(bipartite, "build_matrix", no_work)
    for grid, error, message in (
        ((), ValidationError, "at least one time"),
        ((0.0, float("nan")), ApproximationDomainError, "t must be finite"),
        ((float("inf"),), ApproximationDomainError, "t must be finite"),
    ):
        with pytest.raises(error, match=message):
            dc.entropy_time_independence_check(
                baseline_params, dc.EntangledStateConfig(xi=0.3), grid
            )


def test_entropy_flatness_refuses_a_phase_past_its_limit_before_the_build(
    baseline_params, monkeypatch
):
    """Omega t past 2^52 rad is refused as soon as the roots are solved:
    no mode matrix is built and no reduced matrix diagonalized first."""

    def no_build(*args):
        raise AssertionError("the phases are checked before the build")

    monkeypatch.setattr(bipartite, "build_matrix", no_build)
    monkeypatch.setattr(bipartite, "amplitude_row", no_build)
    with pytest.raises(ApproximationDomainError, match=r"2\^52 rad"):
        dc.entropy_time_independence_check(
            baseline_params, dc.EntangledStateConfig(xi=0.3), [0.0, 1e300]
        )


def test_entropy_symmetry_in_xi():
    for xi in (0.05, 0.2, 0.41):
        assert dc.analytic_entropy(xi) == pytest.approx(
            dc.analytic_entropy(1.0 - xi), abs=1e-15
        )
