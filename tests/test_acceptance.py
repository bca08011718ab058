"""Acceptance suite: one test per stated criterion, with a printed
pass/fail line each (collected into the terminal summary).

Four sub-checks are marked strict-xfail because the stated constants are
mathematically unreachable for the quantities they constrain; each
carries its measured value in the summary line and a short reason on the
marker.  Everything else must pass outright.
"""

import time

import numpy as np
import pytest

import dressedcavity as dc
from dressedcavity import cli


# 1 ------------------------------------------------------------------ unitarity


def test_criterion_1_unitarity(acceptance_log):
    start = time.perf_counter()
    params = dc.make_params(1.0, 0.5, delta=0.1, n_modes=1000)
    spec = dc.solve_spectrum(params)
    matrix = dc.build_matrix(params, spec)
    defect = dc.unitarity_defect(matrix, spec, 0, (0.0, 1.0, 10.0, 100.0))
    elapsed = time.perf_counter() - start
    acceptance_log(
        "1 unitarity", defect < 1e-6 and elapsed < 10.0,
        f"max defect {defect:.3e} (< 1e-6), runtime {elapsed:.2f} s (< 10 s)",
    )
    assert defect < 1e-6
    assert elapsed < 10.0


# 2 ------------------------------------------------------------------ spectrum


def test_criterion_2_residuals_and_interlacing(acceptance_log):
    start = time.perf_counter()
    params = dc.make_params(1.0, 0.5, delta=0.1, n_modes=3000)
    spec = dc.solve_spectrum(params)
    elapsed = time.perf_counter() - start
    worst = float(spec.residuals.max())
    interlaced = dc.check_interlacing(params, spec)
    acceptance_log(
        "2 spectrum residuals+interlacing",
        worst < 1e-10 and interlaced and elapsed < 5.0,
        f"max residual {worst:.3e} (< 1e-10), interlacing {interlaced}, "
        f"runtime {elapsed:.2f} s (< 5 s, N=3000)",
    )
    assert worst < 1e-10
    assert interlaced
    assert elapsed < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="measured |Omega_0 - first-order| is 0.0123 at delta=0.1; the "
    "first-order formula's quadratic error coefficient is about 1.23, so "
    "the stated 0.01 envelope cannot hold",
)
def test_criterion_2_lowest_root_gap_delta_01(acceptance_log):
    params = dc.make_params(1.0, 0.5, delta=0.1, n_modes=2)
    gap = abs(
        dc.solve_spectrum(params).omegas[0]
        - params.omega_bar * (1 - np.pi * params.delta / 3)
    )
    acceptance_log("2 lowest-root gap (delta=0.1)", gap < 0.01,
           f"gap {gap:.6f} vs stated bound 0.01")
    assert gap < 0.01


@pytest.mark.xfail(
    strict=True,
    reason="measured gap is 0.00351 at delta=0.05 against a stated 0.0025 "
    "envelope (same quadratic coefficient as above)",
)
def test_criterion_2_lowest_root_gap_delta_005(acceptance_log):
    params = dc.make_params(1.0, 0.5, delta=0.05, n_modes=2)
    gap = abs(
        dc.solve_spectrum(params).omegas[0]
        - params.omega_bar * (1 - np.pi * params.delta / 3)
    )
    acceptance_log("2 lowest-root gap (delta=0.05)", gap < 0.0025,
           f"gap {gap:.6f} vs stated bound 0.0025")
    assert gap < 0.0025


# 3 ---------------------------------------------------------- free-space paths


@pytest.fixture(scope="module")
def weak_params():
    return dc.make_params(1.0, 0.5, delta=0.1)


def test_criterion_3_numeric_vs_closed(acceptance_log, weak_params):
    start = time.perf_counter()
    worst = 0.0
    for t in np.linspace(0.0, 20.0, 201):
        numeric = dc.freespace_f00_numeric(weak_params, float(t), tol=1e-8)
        closed = dc.freespace_f00_closed(weak_params, float(t))
        worst = max(worst, abs(numeric - closed))
    elapsed = time.perf_counter() - start
    acceptance_log(
        "3 numeric vs closed on [0,20]", worst < 1e-4 and elapsed < 60.0,
        f"max |difference| {worst:.3e} (< 1e-4), runtime {elapsed:.1f} s (< 60 s)",
    )
    assert worst < 1e-4
    assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="the t^-6 tail constant of the stated asymptotic form is pi^2 "
    "larger than the tail of |f_00|^2 that follows from the defining "
    "integral, so the ratio settles near 0.10 at late times",
)
def test_criterion_3_closed_vs_asymptotic(acceptance_log, weak_params):
    worst = 0.0
    for t in np.linspace(10.0, 50.0, 41):
        closed_sq = abs(dc.freespace_f00_closed(weak_params, float(t))) ** 2
        asym = dc.freespace_survival_asymptotic(weak_params, float(t))
        worst = max(worst, abs(closed_sq - asym) / asym)
    acceptance_log(
        "3 closed^2 vs asymptotic on [10,50]", worst <= 0.25,
        f"max relative deviation {worst:.2f} vs stated 0.25",
    )
    assert worst <= 0.25


@pytest.mark.xfail(
    strict=True,
    reason="the stated constant 1.4815e-4 omits the 1/pi of the "
    "integration-by-parts endpoint term; the integral itself gives "
    "4.618e-5 at t=30",
)
def test_criterion_3_g_integral_magnitude(acceptance_log, weak_params):
    g30 = abs(dc.g_integral(weak_params, 30.0, tol=1e-10))
    stated = 1.4815e-4
    acceptance_log(
        "3 |G(30)| vs stated constant",
        abs(g30 - stated) <= 0.1 * stated,
        f"|G(30)| = {g30:.4e} vs stated {stated:.4e} +- 10%",
    )
    assert abs(g30 - stated) <= 0.1 * stated


# 4 --------------------------------------------------- small-cavity persistence


def test_criterion_4_small_cavity_persistence(
    acceptance_log, baseline_params, baseline_spectrum, baseline_matrix
):
    times = np.linspace(0.0, 100.0, 20001)
    surv = dc.survival_probability(baseline_matrix, baseline_spectrum, times)
    floor = float(surv.min())
    d = 2.0 * surv * (1.0 - surv)
    window = (times >= 50.0) & (times <= 100.0)
    swing = float(d[window].max() - d[window].min())
    acceptance_log(
        "4 small-cavity persistence",
        floor >= 0.357 and swing > 0.05,
        f"min survival {floor:.4f} (>= 0.357), impurity swing {swing:.3f} "
        "(> 0.05 on [50,100])",
    )
    assert floor >= 0.357
    assert swing > 0.05


# 5 ------------------------------------------------------ free-space dissipation


def test_criterion_5_free_space_dissipation(acceptance_log, weak_params):
    f100 = dc.freespace_f00_closed(weak_params, 100.0)
    v = abs(f100) ** 2
    d100 = 2.0 * v * (1.0 - v)
    acceptance_log("5 free-space dissipation", d100 < 1e-3,
           f"D(100) = {d100:.3e} (< 1e-3)")
    assert d100 < 1e-3


# 6 --------------------------------------------------- entropy time-independence


def test_criterion_6_entropy_time_independence(
    acceptance_log, baseline_params, baseline_spectrum, baseline_matrix
):
    worst_eig = 0.0
    worst_std = 0.0
    for xi in (0.1, 0.3, 0.5):
        report = dc.entropy_time_independence_check(
            baseline_params,
            dc.EntangledStateConfig(xi=xi),
            (0.0, 5.0, 50.0),
            matrix=baseline_matrix,
            spectrum=baseline_spectrum,
        )
        worst_eig = max(worst_eig, report.eigenvalue_defect)
        worst_std = max(worst_std, report.std_dev)
    acceptance_log(
        "6 entropy time-independence",
        worst_eig < 1e-6 and worst_std < 1e-6,
        f"eigenvalue defect {worst_eig:.3e} (< 1e-6), "
        f"entropy std {worst_std:.3e} (< 1e-6), N=1000",
    )
    assert worst_eig < 1e-6
    assert worst_std < 1e-6


# 7 --------------------------------------------------------------- entropy curve


def test_criterion_7_entropy_curve(acceptance_log):
    xis, entropies = cli.figure2_grid(199)
    e_half = entropies[99]
    ln2 = float(np.log(2.0))
    symmetric = bool(np.array_equal(entropies, entropies[::-1]))
    idx = int(np.argmin(np.abs(xis - 0.1)))
    # full-precision value of the stated 0.325083 reference point
    e01_expected = 0.32508297339144824
    e01 = entropies[idx]
    ok = (
        abs(e_half - ln2) < 1e-12
        and symmetric
        and abs(e01 - e01_expected) < 1e-9
    )
    acceptance_log(
        "7 entropy curve",
        ok,
        f"E(0.5) - ln2 = {e_half - ln2:.1e} (< 1e-12), mirror-exact "
        f"{symmetric}, E(0.1) = {e01:.9f} (+- 1e-9)",
    )
    assert abs(e_half - ln2) < 1e-12
    assert symmetric
    assert abs(e01 - e01_expected) < 1e-9


# 8 ------------------------------------------------- density-matrix physicality


def test_criterion_8_density_matrix_physicality(acceptance_log):
    rng = np.random.default_rng(20250808)
    worst_trace = worst_min_eig = worst_spec = worst_impurity = 0.0
    for _ in range(1000):
        f_aa = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f_bb = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        cfg = dc.EntangledStateConfig(
            xi=rng.uniform(1e-6, 1 - 1e-6), phi=rng.uniform(0, 2 * np.pi)
        )
        rho = dc.two_atom_reduced_density(f_aa, f_bb, cfg)
        eig = np.sort(rho.eigenvalues())
        worst_trace = max(
            worst_trace, abs(float(np.real(np.trace(rho.elements))) - 1.0)
        )
        worst_min_eig = max(worst_min_eig, max(0.0, -float(eig[0])))
        expected = np.sort([0.0, 0.0, rho.p, 1.0 - rho.p])
        worst_spec = max(worst_spec, float(np.abs(eig - expected).max()))
        worst_impurity = max(
            worst_impurity,
            abs(rho.purity_defect() - dc.impurity(f_aa, f_bb, cfg)),
        )
    ok = (
        worst_trace < 1e-12
        and worst_min_eig < 1e-10
        and worst_spec < 1e-10
        and worst_impurity < 1e-12
    )
    acceptance_log(
        "8 density-matrix physicality", ok,
        f"1000 draws: trace defect {worst_trace:.1e}, min eig "
        f"{-worst_min_eig:.1e}, spectrum defect {worst_spec:.1e}, "
        f"impurity mismatch {worst_impurity:.1e}",
    )
    assert worst_trace < 1e-12
    assert worst_min_eig < 1e-10
    assert worst_spec < 1e-10
    assert worst_impurity < 1e-12


# 9 ------------------------------------------------------------------- selftest


def test_criterion_9_selftest(acceptance_log, capsys):
    start = time.perf_counter()
    rc = cli.main(["selftest"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    acceptance_log(
        "9 selftest", rc == 0 and elapsed < 120.0,
        f"exit code {rc}, runtime {elapsed:.1f} s (< 120 s)",
    )
    assert rc == 0
    assert elapsed < 120.0
    assert "omega_bar=1.0 g=0.5 delta=0.1" in out
