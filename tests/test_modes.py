import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dressedcavity as dc
from dressedcavity import cli
from dressedcavity.errors import (
    ApproximationDomainError,
    ConsistencyError,
    NearResonanceError,
    NumericDomainError,
    ValidationError,
)

# arbitrary-precision evaluations at omega_bar=1, g=0.5, delta=0.1
ATOM_SQ_AT_OMEGA0 = 0.82037110847194733     # exact entry at the lowest root
FIELD1_SQ_AT_OMEGA0 = 0.11169111093194173   # exact k=1 entry at the lowest root
T00_SQ_FIRST_ORDER = 0.82682928045084585
TK0_SQ_FIRST_ORDER_K1 = 0.10527517366149371
TK0_SQ_FIRST_ORDER_K2 = 0.026318793415373428
OMEGA0_EXACT = 0.90754530501076127


def test_atom_element_at_resonance_identity(baseline_params):
    # at Omega_r = omega_bar the first radicand term drops out
    p = baseline_params
    expected = p.eta / math.sqrt(p.eta**2 + 4.0 * p.g**2)
    assert dc.atom_element(p, p.omega_bar) == pytest.approx(expected, rel=1e-15)


def test_atom_element_exact_value(baseline_params):
    value = dc.atom_element(baseline_params, OMEGA0_EXACT)
    assert value**2 == pytest.approx(ATOM_SQ_AT_OMEGA0, rel=1e-12)
    # within 2 percent of the first-order squared entry
    assert value**2 == pytest.approx(T00_SQ_FIRST_ORDER, rel=0.02)


def test_atom_element_decoupling_limit():
    # vanishing coupling at fixed spacing: the atom is its own normal mode
    p = dc.make_params(1.0, 1e-6, delta=2e-7)
    assert dc.atom_element(p, p.omega_bar) == pytest.approx(1.0, abs=1e-5)


def test_field_element_sign_and_value(baseline_params, baseline_spectrum):
    value = dc.assemble_raw_matrix(baseline_params, baseline_spectrum)[1, 0]
    assert value > 0  # omega_1^2 > Omega_0^2 forces a positive entry
    assert value**2 == pytest.approx(FIELD1_SQ_AT_OMEGA0, rel=1e-12)
    # first-order entry agrees to better than 7 percent at delta=0.1
    assert value**2 == pytest.approx(TK0_SQ_FIRST_ORDER_K1, rel=0.07)


def test_field_element_large_k_decay(baseline_params, baseline_spectrum):
    raw = dc.assemble_raw_matrix(baseline_params, baseline_spectrum)
    assert raw[400, 0] / raw[200, 0] == pytest.approx(0.5, rel=1e-3)


def test_build_matrix_column_norms(small_matrix):
    norms = np.linalg.norm(small_matrix.entries, axis=0)
    assert np.abs(1.0 - norms).max() < 1e-12


def test_build_matrix_columns_orthogonal(small_matrix):
    gram = small_matrix.entries.T @ small_matrix.entries
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-12


def test_build_matrix_sign_convention(small_matrix, baseline_matrix):
    assert np.all(small_matrix.entries[0] > 0)
    assert np.all(baseline_matrix.entries[0] > 0)


def test_raw_orthogonality_diagnostic_decreases():
    defects = []
    for n in (100, 300, 1000):
        p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
        m = dc.build_matrix(p, dc.solve_spectrum(p))
        defects.append(m.raw_orthogonality_defect)
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 1e-3  # diagnostic level at 1000 modes


def test_orthogonalization_shift_is_truncation_sized(baseline_matrix):
    # the symmetric orthogonalization moves entries by O(1/N), not O(1)
    assert baseline_matrix.orthogonalization_shift < 1e-3


def test_raw_column_norm_deficit_shrinks(baseline_matrix):
    raw = baseline_matrix.raw_column_norms
    assert np.abs(1.0 - raw).max() < 1e-3
    assert raw[0] < 1.0  # lowest column loses the most weight to truncation


def _column_norm_sq(params, omega):
    """Squared norm of the raw column at root ``omega`` from its closed-form
    entries: a_0^2 (1 + eta^2 sum_k omega_k^2/(omega_k^2 - omega^2)^2)."""
    omega_k = params.field_frequencies()
    tail = np.sum(omega_k**2 / (omega_k**2 - omega**2) ** 2)
    return dc.atom_element(params, omega) ** 2 * (1.0 + params.eta**2 * tail)


def test_prerescale_column0_norm_converges():
    """Column-0 norm approaches 1 monotonically as modes are added.

    The 10^4 point comes from the closed-form sum, with no matrix build;
    at 100 and 1000 modes the same sum is checked against build_matrix.
    """
    norms = []
    for n in (100, 1000):
        p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
        spec = dc.solve_spectrum(p)
        norm_sq = _column_norm_sq(p, spec.omegas[0])
        built = dc.build_matrix(p, spec).raw_column_norms[0] ** 2
        assert norm_sq == pytest.approx(built, abs=1e-13)
        norms.append(norm_sq)
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=10000)
    norms.append(_column_norm_sq(p, OMEGA0_EXACT))
    assert norms[0] < norms[1] < norms[2] < 1.0
    assert 1.0 - norms[2] < 1e-4


def reference_loewdin(params, spectrum):
    """Loewdin factor by eigendecomposition: T <- T V diag(1/sqrt(w)) V^T.

    Returns (entries, orthogonalization shift) with the positive atom row
    that build_matrix enforces.
    """
    raw = dc.assemble_raw_matrix(params, spectrum)
    rescaled = raw / np.linalg.norm(raw, axis=0)
    w, v = np.linalg.eigh(rescaled.T @ rescaled)
    assert w[0] > 0.0
    entries = rescaled @ (v * (1.0 / np.sqrt(w))) @ v.T
    shift = float(np.abs(entries - rescaled).max())
    entries[:, entries[0] < 0.0] *= -1.0
    return entries, shift


@pytest.mark.parametrize("delta", [1e-3, 0.1, 3.0, 1000.0])
@pytest.mark.parametrize("g", [0.05, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [1, 5, 30, 300, 1000])
def test_build_matrix_matches_eigh_loewdin(n, g, delta):
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    m = dc.build_matrix(p, spec)
    ref_entries, ref_shift = reference_loewdin(p, spec)
    assert np.abs(m.entries - ref_entries).max() <= 1e-12
    assert abs(m.orthogonalization_shift - ref_shift) <= 1e-12
    gram = m.entries.T @ m.entries
    assert np.abs(gram - np.eye(n + 1)).max() <= 1e-13
    assert np.all(m.entries[0] > 0.0)


def closed_first_defect(params, spectrum):
    """The rescaled X, the closed-form E_0, its ||E_0||_F, the shifted sums
    S - N and the bracket (E_0 u)_r / u_r, as build_matrix takes them."""
    x, _, shifted, gram_rows = dc.modes._rescaled_matrix(params, spectrum)
    e0 = np.empty_like(x)
    _, frobenius, bracket = dc.modes._first_defect(gram_rows, x[0], e0)
    return x, e0, frobenius, shifted, bracket


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1, 1.0])
def test_build_matrix_loewdin_steps_do_not_depend_on_delta(delta):
    # ||X^T X - I||_F runs from 2e-7 to 3e-3 over these spacings at N=400;
    # every one takes the same two steps (the final step's order, and with
    # it one more product, follows the defect: see the test below)
    n = 400
    p = dc.make_params(1.0, 0.5, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    _, _, frobenius, _, _ = closed_first_defect(p, spec)
    m = dc.build_matrix(p, spec)
    assert m.newton_schulz_steps == 2 and frobenius <= 3e-3
    assert m.first_iterate_closed_form
    gram = m.entries.T @ m.entries
    assert np.abs(gram - np.eye(n + 1)).max() <= 1e-13


# (n, g, delta): the eigh grid below N = 1000, the benchmark's smallest N
# and weak couplings whose bracket exceeds the guard
FIRST_ITERATE_CASES = [
    (n, g, delta)
    for n in (1, 5, 30, 300)
    for g in (0.05, 0.5, 1.0, 3.0)
    for delta in (1e-3, 0.1, 3.0, 1000.0)
] + [(800, 0.5, 2.0), (1, 0.01, 0.6), (1, 0.01, 1.0), (2, 0.01, 0.3), (5, 0.01, 0.3)]


@pytest.mark.parametrize("n, g, delta", FIRST_ITERATE_CASES)
def test_closed_form_first_iterate_matches_the_product(n, g, delta):
    # X (I - E_0/2) entrywise against the same product in long double.
    # Inside the guard max |bracket| <= 4 the worst gap is 1.1e-15 for
    # N <= 300 and 2.3e-15 at N = 800, where the float64 product itself is
    # off by up to 3.6e-15.  Past the guard the gap grows like eps
    # max |bracket| (1.4e-13 at N = 1, g = 0.01, delta = 0.6; 7.6e-11 at
    # N = 1, g = 0.05, delta = 1000), and the build takes the product.
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    x, e0, _, shifted, bracket = closed_first_defect(p, spec)
    closed = x.copy()
    dc.modes._first_iterate(p, closed, shifted, bracket)
    wide = np.longdouble
    product = x.astype(wide) @ (np.eye(n + 1, dtype=wide) - e0.astype(wide) / 2)
    inside = np.abs(bracket).max() <= dc.modes._BRACKET_MAX
    if delta <= 0.1 or n >= 800:
        assert inside  # adequate truncations stay well inside the guard
    if inside:
        assert float(np.abs(closed - product).max()) <= 4e-15
    m = dc.build_matrix(p, spec)
    assert m.first_iterate_closed_form == inside


@pytest.mark.parametrize(
    "n, g, delta",
    [(1, 0.05, 1000.0), (200, 0.5, 1000.0), (1, 0.01, 0.6), (5, 0.01, 0.3)],
)
def test_build_matrix_past_the_guard_takes_the_product(n, g, delta):
    # the closed-form first iterate loses digits here; the product path
    # still gives the Loewdin factor of the eigendecomposition form
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    m = dc.build_matrix(p, spec)
    assert not m.first_iterate_closed_form
    ref_entries, _ = reference_loewdin(p, spec)
    assert np.abs(m.entries - ref_entries).max() <= 1e-12
    assert np.abs(m.entries.T @ m.entries - np.eye(n + 1)).max() <= 1e-13


@pytest.mark.parametrize(
    "delta, n, order",
    # the second-order bound (3/4) e^2 (1 + e/3) at the second step reads
    # 1.03 eps at delta = 0.1, N = 400, just too large, 0.026 eps at
    # N = 1000, 0.020 eps at delta = 0.05, N = 400 and 3e3 eps or more at
    # delta = 1
    [(0.05, 400, 2), (0.1, 1000, 2), (1.0, 400, 3), (1.0, 1000, 3)],
)
def test_build_matrix_records_its_steps_and_final_order(delta, n, order):
    # a small defect ends with the plain second-order step, no E^2 product
    p = dc.make_params(1.0, 0.5, delta=delta, n_modes=n)
    m = dc.build_matrix(p, dc.solve_spectrum(p))
    assert (m.newton_schulz_steps, m.final_step_order) == (2, order)


def test_build_matrix_final_step_sees_the_product_gram():
    # the closed-form first E differs from x^T x - I by up to 1.8e-14 here;
    # fed to a final step, it would leave that much in T^T T - I
    n = 1000
    p = dc.make_params(1.0, 0.5, delta=1e-3, n_modes=n)
    m = dc.build_matrix(p, dc.solve_spectrum(p))
    assert np.abs(m.entries.T @ m.entries - np.eye(n + 1)).max() <= 4e-15


def float64_third_order_in_place(x, e, block):
    """x <- x (I - E/2 + 3E^2/8) in float64: x E and x E E, a half of
    ``block`` each, a row block at a time."""
    half = block.shape[0] // 2
    for start in range(0, x.shape[0], half):
        rows = x[start : start + half]
        xe, xee = block[: rows.shape[0]], block[half : half + rows.shape[0]]
        np.matmul(rows, e, out=xe)
        np.matmul(xe, e, out=xee)
        xe *= -0.5
        xee *= 0.375
        rows += xe
        rows += xee


def float64_final_build(params, spectrum):
    """The Loewdin factor by build_matrix's step schedule with every step,
    the final one included, a float64 product: the entries with the
    atom-row signs made positive, the step count and the final order."""
    modes = dc.modes
    x, _, shifted, gram_rows = modes._rescaled_matrix(params, spectrum)
    e = np.empty_like(x)
    _, previous, bracket = modes._first_defect(gram_rows, x[0], e)
    block = np.empty((modes._PRODUCT_ROWS, x.shape[1]))
    if np.abs(bracket).max() <= modes._BRACKET_MAX:
        modes._first_iterate(params, x, shifted, bracket)
    else:
        modes._second_order_in_place(x, e, block)
    eps = np.finfo(float).eps
    for steps in range(2, modes._POLAR_MAX_STEPS + 1):
        np.matmul(x.T, x, out=e)
        e.flat[:: e.shape[0] + 1] -= 1.0
        f = float(np.linalg.norm(e))
        if 0.75 * f * f * (1.0 + f / 3.0) < eps:
            modes._second_order_in_place(x, e, block)
            order = 2
            break
        if 0.625 * f**3 * (1.0 + 0.375 * f + 0.225 * f * f) < eps:
            float64_third_order_in_place(x, e, block)
            order = 3
            break
        assert f < previous
        previous = f
        modes._second_order_in_place(x, e, block)
    x[:, x[0] < 0.0] *= -1.0
    return x, steps, order


# (n, g, delta): the eigh grid at delta <= 3, and third-order (delta = 2.26,
# 0.735) and second-order (delta = 0.03) finishes at N = 1600
FLOAT64_FINAL_CASES = [
    (n, g, delta)
    for n in (1, 5, 30, 300, 1000)
    for g in (0.05, 0.5, 1.0, 3.0)
    for delta in (1e-3, 0.1, 3.0)
] + [(1600, 0.5, 2.26), (1600, 1.03, 0.735), (1600, 1.5, 0.03)]


@pytest.mark.parametrize("n, g, delta", FLOAT64_FINAL_CASES)
def test_build_matrix_float32_finish_matches_the_float64_one(n, g, delta):
    # the final step's product is float32; it touches only E (or, after
    # Q T Q^T is split off, R) of Frobenius norm <= 1.7e-8, so
    # the entries move from the all-float64 finish by roundoff: up to
    # 2.9e-15 here.  A float32 non-final step misses by up to 4e-9, and a
    # float32 third-order finish without the deflation by up to 3e-13.
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    m = dc.build_matrix(p, spec)
    entries, steps, order = float64_final_build(p, spec)
    assert (m.newton_schulz_steps, m.final_step_order) == (steps, order)
    assert np.abs(m.entries - entries).max() <= 5e-15
    assert np.abs(m.entries.T @ m.entries - np.eye(n + 1)).max() <= 5e-15


# (n, g, delta, steps, final order) of the all-float64 finish: the four
# jobs each of the cavity_build benchmark's seeds 1-8, in that order
BENCHMARK_BUILD_STEPS = [
    (800, 0.510639462230231, 2.261589733525132, 3, 2),
    (1000, 0.9037845024235195, 0.059216715829496135, 2, 2),
    (1200, 0.7949323344383975, 0.10318958791499387, 2, 2),
    (1600, 1.0275591132430684, 0.7354333789529303, 2, 3),
    (800, 0.2854509208243847, 0.054878060697007985, 2, 2),
    (1000, 0.13272434792158722, 0.30656443327175653, 2, 3),
    (1200, 0.21911096602994307, 0.013696351171495294, 2, 2),
    (1600, 1.6574330148755925, 0.24705874107274295, 2, 2),
    (800, 0.1270842504292619, 0.038601869592292684, 2, 2),
    (1000, 0.573945832457931, 0.017106771734231887, 2, 2),
    (1200, 0.48114616832675056, 0.024870966392522228, 2, 2),
    (1600, 1.1136720199214034, 0.09313644696122836, 2, 2),
    (800, 0.8987504950151308, 0.1847652734920441, 2, 3),
    (1000, 0.12275242150604196, 0.3195170520390127, 2, 3),
    (1200, 0.7717110862872265, 0.027059923401738035, 2, 2),
    (1600, 1.5439414007634982, 1.7174976452269206, 2, 3),
    (800, 0.7745026313708422, 1.0031532922702118, 2, 3),
    (1000, 0.3072212420793274, 0.013601690521716878, 2, 2),
    (1200, 0.41762588487799873, 0.012946493127556717, 2, 2),
    (1600, 1.9991761150650715, 0.41304502181432123, 2, 3),
    (800, 0.5343479163247489, 0.0708473430443622, 2, 2),
    (1000, 0.38704708902909407, 2.7926787027167683, 3, 2),
    (1200, 0.6568915374540442, 0.06566886174490838, 2, 2),
    (1600, 1.12297237488719, 0.013431965883237319, 2, 2),
    (800, 0.6125859199442003, 1.669196157951013, 2, 3),
    (1000, 0.25268647099153263, 0.05540491389876133, 2, 2),
    (1200, 0.05473877410901726, 1.0821373080724839, 2, 3),
    (1600, 1.4679349528437209, 0.05631810917159013, 2, 2),
    (800, 0.3442750489450046, 2.790001603813519, 3, 2),
    (1000, 0.7596940422380261, 1.4283647981602527, 2, 3),
    (1200, 0.4440936858105189, 0.08381933877894025, 2, 2),
    (1600, 1.4789654541627169, 0.039614896760732196, 2, 2),
]

# the same on N in {30, 300, 1000} x g in {0.05, 0.5, 1.5} x delta in
# {1e-3, 0.1, 1, 3}: only N = 30, delta = 3 depends on g
GRID_BUILD_STEPS = [
    (n, g, delta, steps, order)
    for n, delta, steps, order in [
        (30, 1e-3, 2, 2), (30, 0.1, 2, 3), (30, 1.0, 3, 3),
        (300, 1e-3, 2, 2), (300, 0.1, 2, 3), (300, 1.0, 3, 2), (300, 3.0, 3, 2),
        (1000, 1e-3, 2, 2), (1000, 0.1, 2, 2), (1000, 1.0, 2, 3), (1000, 3.0, 3, 2),
    ]
    for g in (0.05, 0.5, 1.5)
] + [(30, 0.05, 3.0, 6, 3), (30, 0.5, 3.0, 4, 2), (30, 1.5, 3.0, 4, 2)]


@pytest.mark.parametrize(
    "n, g, delta, steps, order", BENCHMARK_BUILD_STEPS + GRID_BUILD_STEPS
)
def test_build_matrix_takes_the_float64_finish_steps(n, g, delta, steps, order):
    # a deflated third-order finish whose remainder failed the second-order
    # bound would take one more step here
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    m = dc.build_matrix(p, dc.solve_spectrum(p))
    assert (m.newton_schulz_steps, m.final_step_order) == (steps, order)


@pytest.mark.parametrize("delta, order", [(0.05, 2), (1.0, 3)])
def test_build_matrix_is_bitwise_repeatable(delta, order):
    # the subspace iteration starts from a fixed block, so a repeated build
    # gives the same bits: the CLI's repeated runs write identical files
    p = dc.make_params(1.0, 0.5, delta=delta, n_modes=400)
    spec = dc.solve_spectrum(p)
    first, second = dc.build_matrix(p, spec), dc.build_matrix(p, spec)
    assert first.final_step_order == order
    assert np.array_equal(first.entries, second.entries)


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_build_matrix_rejects_linearly_dependent_columns(n):
    # two equal roots give two identical columns: no orthonormal repair
    # exists, and the Gram matrix's zero eigenvalue may round either way
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
    spec = dc.solve_spectrum(p)
    omegas = np.array(spec.omegas)
    omegas[1] = omegas[0]
    degenerate = replace(spec, omegas=omegas)
    with pytest.raises(NumericDomainError):
        dc.build_matrix(p, degenerate)


@pytest.mark.parametrize(
    "eps, message",
    [
        # 1e-10: the Gram's smallest eigenvalue is at roundoff, and
        # ||E||_F stops falling
        (1e-10, "stopped converging"),
        # 1e-9: ||E||_F keeps falling, too slowly to end in 50 steps
        (1e-9, "did not converge in 50 steps"),
    ],
    ids=["2e-10 apart", "2e-9 apart"],
)
def test_build_matrix_refuses_nearly_dependent_columns(eps, message):
    # roots 0 and 1 a relative eps either side of the bare frequency
    # delta_omega still interlace, so the Loewdin iteration itself must
    # refuse their two nearly identical columns
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=20)
    spec = dc.solve_spectrum(p)
    omegas = np.array(spec.omegas)
    omegas[:2] = p.delta_omega * np.array([1.0 - eps, 1.0 + eps])
    assert dc.check_interlacing(p, replace(spec, omegas=omegas))
    with pytest.raises(NumericDomainError, match=message):
        dc.build_matrix(p, replace(spec, omegas=omegas))


def _roots_of_other_params():
    """N = 300 params at delta = 0.1 with the roots solved at 0.1001."""
    other = dc.make_params(1.0, 0.5, delta=0.1001, n_modes=300)
    return dc.make_params(1.0, 0.5, delta=0.1, n_modes=300), dc.solve_spectrum(other)


def _root_out_of_its_branch():
    """N = 50 roots with root 5 moved past its branch, to (6 dw + Omega_6)/2,
    in increasing order still."""
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=50)
    spec = dc.solve_spectrum(p)
    omegas = np.array(spec.omegas)
    omegas[5] = 0.5 * (6.0 * p.delta_omega + omegas[6])
    assert np.all(np.diff(omegas) > 0.0)
    return p, replace(spec, omegas=omegas)


@pytest.mark.parametrize(
    "case", [_roots_of_other_params, _root_out_of_its_branch],
    ids=["other params", "out of its branch"],
)
@pytest.mark.parametrize(
    "entry", [dc.build_matrix, dc.atom_row, dc.raw_defects, dc.assemble_raw_matrix],
    ids=lambda f: f.__name__,
)
def test_roots_that_do_not_interlace_are_refused(case, entry):
    # the one root check refuses them before any column is formed
    p, spec = case()
    args = (p, spec, [0.0, 1.0]) if entry is dc.raw_defects else (p, spec)
    with pytest.raises(NumericDomainError, match="interlace"):
        entry(*args)


@pytest.mark.parametrize(
    "entry", [dc.build_matrix, dc.atom_row, dc.raw_defects, dc.assemble_raw_matrix],
    ids=lambda f: f.__name__,
)
def test_roots_of_other_params_with_the_same_spacing_are_refused(entry):
    # (g, delta) = (0.6, 0.12) and (0.5, 0.1) share delta_omega = 5, so the
    # roots of one interlace with the bare frequencies of the other; their
    # Newton residuals under the other read 1.2e-2 delta_omega
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=300)
    spec = dc.solve_spectrum(dc.make_params(1.0, 0.6, delta=0.12, n_modes=300))
    assert dc.check_interlacing(p, spec)
    args = (p, spec, [0.0, 1.0]) if entry is dc.raw_defects else (p, spec)
    with pytest.raises(ConsistencyError, match="not the spectrum of these params"):
        entry(*args)


@pytest.mark.parametrize(
    "g, delta, n",
    [(0.5, 1e-3, 3000), (0.5, 1000.0, 200), (3.0, 30.0, 3000), (0.05, 0.1, 300),
     (10.0, 1e-3, 1000)],
)
def test_solved_roots_pass_the_residual_check_with_room(g, delta, n):
    # they read at most 6e-13 delta_omega, far below the bound of 1e-8
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    dc.modes._check_columns(p, spec)
    residual = dc.newton_residuals(p, spec.omegas).max()
    assert residual <= 1e-3 * dc.modes._RESIDUAL_BOUND * p.delta_omega


def _refuse_square(monkeypatch, n, nth):
    """Make the nth np.empty of an (n+1)^2 array raise MemoryError, as it
    does where the array passes the memory limit."""
    empty, calls = np.empty, []

    def failing(shape, *args, **kwargs):
        if shape == (n + 1, n + 1):
            calls.append(shape)
            if len(calls) == nth:
                raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", failing)


@pytest.mark.parametrize(
    "entry, nth", [(dc.build_matrix, 1), (dc.build_matrix, 2), (dc.atom_row, 1)],
    ids=["build_matrix X", "build_matrix E", "atom_row X"],
)
def test_a_matrix_past_the_memory_limit_is_a_named_refusal(monkeypatch, entry, nth):
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=50)
    spec = dc.solve_spectrum(p)
    _refuse_square(monkeypatch, 50, nth)
    with pytest.raises(ValidationError) as excinfo:
        entry(p, spec)
    assert str(excinfo.value) == (
        "n_modes = 50 needs (n_modes + 1)^2 arrays of 20808 bytes each, "
        "more than this process can allocate"
    )


def test_cli_exits_3_with_one_line_past_the_memory_limit(monkeypatch, tmp_path, capsys):
    _refuse_square(monkeypatch, 50, 1)
    assert cli.main(["evolve", "--n-modes", "50", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: n_modes = 50 needs ") and err.count("\n") == 1


def test_selftest_exits_3_with_one_line_past_the_memory_limit(
    monkeypatch, tmp_path, capsys
):
    """The refusal is an input the process cannot hold, not a failed check."""
    _refuse_square(monkeypatch, 50, 1)
    assert cli.main(["selftest", "--n-modes", "50", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: n_modes = 50 needs ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "g, delta",
    [(0.5, 1e-3), (0.5, 0.1), (0.5, 3.0), (0.5, 1000.0), (0.05, 1000.0), (0.5, 1.0)],
)
def test_build_matrix_peak_memory_is_two_matrices_and_a_block(g, delta):
    # the iterate, E and one block of step-product rows, whether the build
    # ends with a second-order step (delta = 1e-3, 0.1, 3), a deflated
    # third-order one after two steps (delta = 1) or after a dozen
    # (delta = 1000), or forms its first iterate by a product (g = 0.05,
    # delta = 1000).  The slack of 64 length-(N+1) vectors covers the
    # 32-row blocks of the closed-form sums, E_0, X_1 and the shift (held
    # at different times) and the spectrum-sized arrays.
    n = 1000
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    tracemalloc.start()
    try:
        m = dc.build_matrix(p, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.entries.shape == (n + 1, n + 1)
    assert m.first_iterate_closed_form == (g == 0.5)
    block = dc.modes._PRODUCT_ROWS * 8 * (n + 1)
    assert peak <= 2 * 8 * (n + 1) ** 2 + block + 64 * 8 * (n + 1)


@pytest.mark.parametrize("delta", [1e-3, 0.1, 1000.0])
@pytest.mark.parametrize("n", [1, 2, 33, 300])
def test_orthogonalization_shift_is_the_dense_max_to_the_bit(n, delta):
    # build_matrix rebuilds X a block of rows at a time for the shift; it
    # must equal max |T - X| over the dense X, with the column flips undone
    p = dc.make_params(1.0, 0.5, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    m = dc.build_matrix(p, spec)
    x = dc.modes._rescaled_matrix(p, spec)[0]
    sign = np.sign((m.entries * x).sum(axis=0))  # -1 on a flipped column
    assert m.orthogonalization_shift == np.abs(m.entries * sign - x).max()


def parent_raw_field_rows(params, spectrum):
    """Field rows of the raw matrix by the out-of-place entry formula."""
    omegas = spectrum.omegas
    atom_row = dc.atom_element(params, omegas)
    omega_k = params.field_frequencies()
    denom = omega_k[:, None] ** 2 - omegas[None, :] ** 2
    return (params.eta * omega_k[:, None] / denom) * atom_row[None, :]


@pytest.mark.parametrize("n", [300, 1000, 1600])
def test_assemble_raw_matrix_in_place_is_bitwise_the_entry_formula(n):
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
    spec = dc.solve_spectrum(p)
    raw = dc.assemble_raw_matrix(p, spec)
    assert np.array_equal(raw[0], dc.atom_element(p, spec.omegas))
    assert np.array_equal(raw[1:], parent_raw_field_rows(p, spec))
    # a block of field rows alone, as build_matrix rebuilds X for the shift
    # (whose maximum sits in the atom row on the tested grids)
    rows = slice(n // 3, n // 3 + 32)
    block = np.empty((32, n + 1))
    dc.modes._field_rows(p, p.field_frequencies()[rows], spec.omegas, raw[0], block)
    assert np.array_equal(block, raw[1:][rows])


def test_assemble_raw_matrix_checks_every_entry_for_resonance(small_params):
    spec = dc.solve_spectrum(small_params)
    for root, mode in [(-1, -1), (0, 0), (7, 3), (2, -1)]:
        omegas = np.array(spec.omegas)
        omegas[root] = small_params.field_frequencies()[mode]
        with pytest.raises(NearResonanceError):
            dc.assemble_raw_matrix(small_params, replace(spec, omegas=omegas))


@pytest.mark.parametrize("n", [1, 2, 5, 300])
def test_nearest_resonance_is_the_minimum_over_the_whole_table(n):
    # unsorted roots below, between, on and above the bare frequencies
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
    field_sq = p.field_frequencies() ** 2
    rng = np.random.default_rng(n)
    roots = rng.uniform(0.0, (n + 2) * p.delta_omega, 4 * n + 4)
    roots[:2] = p.field_frequencies()[[0, -1]] * (1.0 + 1e-15)
    roots_sq = roots**2
    table = np.abs(np.subtract.outer(field_sq, roots_sq)).min()
    assert dc.modes._nearest_resonance(field_sq, roots_sq) == table
    roots_sq[-1] = np.nan
    assert np.isnan(dc.modes._nearest_resonance(field_sq, roots_sq))


# (n, g, delta): the raw column norms and defects of build_matrix
RAW_NORM_CASES = [
    (n, g, delta)
    for n in (1, 5, 30, 300, 1000)
    for g in (0.05, 0.5, 1.5, 3.0)
    for delta in (1e-3, 0.1, 3.0, 1000.0)
]


@pytest.mark.parametrize("n, g, delta", RAW_NORM_CASES)
def test_raw_column_norms_match_the_assembled_columns(n, g, delta):
    # the closed-form norms sqrt(G_rr) against the norms of the assembled
    # raw columns: up to 8.4e-15 relative over this grid
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    reference = np.linalg.norm(dc.assemble_raw_matrix(p, spec), axis=0)
    norms = dc.build_matrix(p, spec).raw_column_norms
    assert np.abs(norms / reference - 1.0).max() <= 1e-14


@pytest.mark.parametrize("n, g, delta", RAW_NORM_CASES)
def test_raw_orthogonality_defect_is_raw_defects_to_the_bit(n, g, delta):
    # build_matrix and raw_defects scale the columns by the same norms and
    # take the same closed-form Gram blocks
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    defect = dc.build_matrix(p, spec).raw_orthogonality_defect
    assert defect == dc.raw_defects(p, spec, (0.0,)).orthogonality


@pytest.mark.parametrize("delta", [1e-3, 0.1, 3.0, 1000.0])
@pytest.mark.parametrize("g", [0.05, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [1, 5, 30, 300, 1000])
def test_atom_row_matches_build_matrix(n, g, delta):
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    row = dc.atom_row(p, spec)
    gap = np.abs(row - dc.build_matrix(p, spec).entries[0]).max()
    assert gap <= (1e-14 if delta <= 3.0 else 1e-12)
    assert np.all(row > 0.0)


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_atom_row_rejects_equal_and_unordered_roots(n):
    # the Krylov space from the atom row never meets the null vector of two
    # identical columns, so the roots are checked before any matvec
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
    spec = dc.solve_spectrum(p)
    equal = np.array(spec.omegas)
    equal[1] = equal[0]
    swapped = np.array(spec.omegas)
    swapped[[0, 1]] = swapped[[1, 0]]
    for omegas in (equal, swapped):
        with pytest.raises(NumericDomainError):
            dc.atom_row(p, replace(spec, omegas=omegas))


def test_atom_row_rejects_mismatched_spectrum(small_params, baseline_spectrum):
    with pytest.raises(ConsistencyError):
        dc.atom_row(small_params, baseline_spectrum)


def test_atom_row_peak_memory_is_one_matrix():
    # X alone; build_matrix holds two and a block.  The slack of 64
    # length-(N+1) vectors covers the 32-row Lanczos basis, the 32-row
    # block of the closed-form sums (held at different times) and the
    # spectrum-sized arrays.
    n = 3000
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
    spec = dc.solve_spectrum(p)
    tracemalloc.start()
    try:
        row = dc.atom_row(p, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == (n + 1,)
    assert peak <= 8 * (n + 1) ** 2 + 64 * 8 * (n + 1)


def dense_raw_defects(params, spectrum, times):
    """The three raw defects from the assembled (N+1)^2 matrices: the raw
    column norms, the product X^T X of the rescaled raw matrix X, and the
    row sums of X."""
    raw = dc.assemble_raw_matrix(params, spectrum)
    norms = np.linalg.norm(raw, axis=0)
    rescaled = raw / norms
    gram = rescaled.T @ rescaled
    np.fill_diagonal(gram, 0.0)
    sums = dc.row_norms(rescaled, spectrum.omegas, 0, times)
    return (
        float(np.abs(1.0 - norms**2).max()),
        float(np.abs(gram).max()),
        float(np.abs(1.0 - sums).max()),
    )


# (n, g, delta)
RAW_DEFECT_CASES = [
    (n, g, delta)
    for g in (0.05, 0.5, 1.5)
    for delta in (1e-3, 0.1, 3.0, 30.0, 1000.0)
    for n in ((1, 30, 200, 300) if delta == 1000.0 else (1, 30, 300, 1000))
]


@pytest.mark.parametrize("n, g, delta", RAW_DEFECT_CASES)
def test_raw_defects_match_the_dense_matrix(n, g, delta):
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    times = (0.0, 1.0, 10.0)
    got = dc.raw_defects(p, spec, times)
    expected = dense_raw_defects(p, spec, times)
    assert abs(got.column_norm - expected[0]) <= 1e-13
    assert abs(got.orthogonality - expected[1]) <= 1e-13
    assert abs(got.unitarity - expected[2]) <= 1e-13


@pytest.mark.parametrize("n, g, delta", RAW_DEFECT_CASES + [(3000, 0.5, 1e-3)])
def test_closed_form_gram_matches_the_product(n, g, delta):
    # the first Newton-Schulz defect E_0 of build_matrix, against
    # x^T x - I; the worst case, 6.3e-14, is the last (root rounding)
    p = dc.make_params(1.0, g, delta=delta, n_modes=n)
    spec = dc.solve_spectrum(p)
    x, _, _, gram_rows = dc.modes._rescaled_matrix(p, spec)
    closed = np.empty_like(x)
    for _ in gram_rows(x[0], closed):
        pass
    product = x.T @ x - np.eye(n + 1)
    assert np.abs(closed - product).max() <= 1e-13


def test_raw_defects_peak_memory_is_a_quarter_matrix():
    n = 3000
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=n)
    spec = dc.solve_spectrum(p)
    tracemalloc.start()
    try:
        dc.raw_defects(p, spec, (0.0, 1.0, 10.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n + 1) ** 2 / 4


def test_raw_defects_preconditions(small_params, small_spectrum, baseline_spectrum):
    times = (0.0, 1.0)
    with pytest.raises(ConsistencyError):
        dc.raw_defects(small_params, baseline_spectrum, times)
    for root, mode in [(-1, -1), (0, 0), (7, 3), (2, -1)]:
        omegas = np.array(small_spectrum.omegas)
        omegas[root] = small_params.field_frequencies()[mode]
        with pytest.raises(NearResonanceError):
            dc.raw_defects(small_params, replace(small_spectrum, omegas=omegas), times)
    equal = np.array(small_spectrum.omegas)
    equal[1] = equal[0]
    with pytest.raises(NumericDomainError):
        dc.raw_defects(small_params, replace(small_spectrum, omegas=equal), times)


@pytest.mark.filterwarnings("error")
def test_raw_defects_refuse_empty_and_non_finite_grids(small_params, small_spectrum):
    """An empty grid has no maximum defect, and a time that is not finite
    would give NaN (with numpy's "invalid value" warning for inf)."""
    with pytest.raises(ValidationError, match="at least one time"):
        dc.raw_defects(small_params, small_spectrum, [])
    for bad in (np.inf, -np.inf, np.nan):
        for times in (bad, (0.0, 1.0, bad)):
            with pytest.raises(ApproximationDomainError, match="t must be finite"):
                dc.raw_defects(small_params, small_spectrum, times)


def test_build_matrix_rejects_mismatched_sizes(small_params, baseline_spectrum):
    with pytest.raises(ConsistencyError):
        dc.build_matrix(small_params, baseline_spectrum)


def test_spectrum_size_follows_its_roots(small_params, small_spectrum):
    # n_modes is read off the roots, so a dropped root cannot pass unnoticed
    short = replace(small_spectrum, omegas=small_spectrum.omegas[:-1])
    assert short.n_modes == small_params.n_modes - 1
    with pytest.raises(ConsistencyError):
        dc.assemble_raw_matrix(small_params, short)


def test_small_cavity_elements_values():
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=4)
    t00_sq, tk0_sq = dc.small_cavity_elements(p)
    assert t00_sq == pytest.approx(T00_SQ_FIRST_ORDER, rel=1e-14)
    assert tk0_sq[0] == pytest.approx(TK0_SQ_FIRST_ORDER_K1, rel=1e-14)
    assert tk0_sq[1] == pytest.approx(TK0_SQ_FIRST_ORDER_K2, rel=1e-14)
    with pytest.raises(ApproximationDomainError):
        dc.small_cavity_elements(dc.make_params(1.0, 2.0, delta=0.7))


@pytest.mark.parametrize("k_cut", [10, 100, 1000])
def test_first_order_elements_sum_to_one(k_cut):
    """Partial sums approach 1 from below, inside the 4 delta/(pi K) tail."""
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=k_cut)
    t00_sq, tk0_sq = dc.small_cavity_elements(p)
    partial = t00_sq + float(np.sum(tk0_sq))
    assert 0.0 < 1.0 - partial < 4.0 * p.delta / (np.pi * k_cut)


def test_first_order_atom_entry_error_scales_quadratically():
    gaps = []
    for delta in (0.2, 0.1, 0.05):
        p = dc.make_params(1.0, 0.5, delta=delta, n_modes=2)
        omega0 = dc.solve_spectrum(p).omegas[0]
        exact = dc.atom_element(p, omega0) ** 2
        first = 1.0 / (1.0 + 2.0 * np.pi * delta / 3.0)
        gaps.append(abs(exact - first))
    assert gaps[0] / gaps[1] >= 3.0
    assert gaps[1] / gaps[2] >= 3.0
