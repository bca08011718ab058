import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import dressedcavity as dc
from dressedcavity import cli, freespace
from dressedcavity.errors import ConfigurationError, ValidationError
from dressedcavity.output import write_csv

ENTROPY_XI_01 = 0.32508297339144824
LN2 = 0.69314718055994531


def read_csv(path):
    with open(path, "rb") as fh:
        data = fh.read()
    assert b"\r" not in data  # LF endings only
    lines = data.decode().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [(1, 1.0 / 3.0)])
    text = path.read_text()
    assert text == "a,b\n1,0.33333333333333331\n"


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("g = 0.4\nn_modes=50\nmode=small_cavity_series # comment\n")
    args = cli.build_parser().parse_args(
        ["evolve", "--config", str(cfg_file), "--g", "0.5", "--t-max", "10"]
    )
    config = cli.merge_config(args)
    assert config.g == 0.5          # flag wins over file
    assert config.n_modes == 50     # file wins over default
    assert config.mode == "small_cavity_series"
    assert config.t_max == 10.0


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    # the series truncates at n_modes: there is no series_terms setting
    for key in ("gg", "series_terms"):
        cfg_file.write_text(f"{key} = 4\n")
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            cli.load_config_file(str(cfg_file))
        assert cli.main(["evolve", "--config", str(cfg_file)]) == 3


def test_config_file_unknown_mode_exits_3_without_output(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = free_space\n")
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg_file), "--out", str(out)]) == 3
    assert "mode must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, dump", [("yes", True), ("no", False)])
def test_config_file_dump_matrix_switch(tmp_path, text, dump):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"dump_matrix = {text}\n")
    assert cli.load_config_file(str(cfg_file)) == {"dump_matrix": dump}
    out = tmp_path / "out"
    argv = ["spectrum", "--config", str(cfg_file), "--n-modes", "20", "--out", str(out)]
    assert cli.main(argv) == 0
    assert (out / "spectrum.csv").exists()
    assert (out / "matrix.csv").exists() == dump


def test_n_sweep_flag_and_file_parse_alike(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_sweep = 100,300,\n")
    parser = cli.build_parser()
    from_file = cli.merge_config(
        parser.parse_args(["convergence", "--config", str(cfg_file)])
    )
    from_flag = cli.merge_config(
        parser.parse_args(["convergence", "--n-sweep", "100,300,"])
    )
    assert from_file.n_sweep == from_flag.n_sweep == (100, 300)
    assert from_file == from_flag


@pytest.mark.parametrize(
    "line",
    [
        "g = abc",
        "n_modes = 1.5",
        "n_sweep = 100,x",
        "dump_matrix = maybe",
        "delta = none",
        "n_modes 50",  # no '=': the whole line is named
    ],
)
def test_config_file_bad_value_names_line_and_key(tmp_path, capsys, line):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"# settings\n{line}\n")
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigurationError, match=f"{cfg_file}:2: .*'{key}'"):
        cli.load_config_file(str(cfg_file))
    assert cli.main(["evolve", "--config", str(cfg_file)]) == 3
    assert f"{cfg_file}:2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--g", "abc"], ["--n-modes", "1.5"], ["--n-sweep", "100,x"], ["--delta", "none"]],
)
def test_bad_flag_value_is_an_argparse_error(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", *argv])
    assert exc.value.code == 2


def test_phi_is_not_a_setting(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", "--phi", "0.3"])
    assert exc.value.code == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("phi = 0.3\n")
    assert cli.main(["evolve", "--config", str(cfg_file)]) == 3


@pytest.mark.parametrize("key, value", [("radius", "5"), ("c", "2")])
def test_cavity_is_set_by_delta_alone(tmp_path, key, value):
    # a flag that names a removed setting is not read as a prefix of another
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", f"--{key}", value])
    assert exc.value.code == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
        cli.load_config_file(str(cfg_file))
    assert cli.main(["spectrum", "--config", str(cfg_file)]) == 3


def test_a_cavity_radius_is_a_delta():
    # radius R at wave speed c is delta = g R/(pi c): the roots solve the
    # eigenfrequency equation written with R and c, and params.radius is R/c
    omega_bar, g, radius, c = 1.0, 0.4, 2.0, 3.0
    args = cli.build_parser().parse_args(
        ["spectrum", "--g", repr(g), "--delta", repr(g * radius / (np.pi * c))]
    )
    params = cli.merge_config(args).make_params(n_modes=300)
    assert params.omega_bar == omega_bar
    assert params.radius == pytest.approx(radius / c, rel=1e-15)
    omega = dc.solve_spectrum(params).omegas
    u = radius * omega / c
    const = 1.0 - radius * omega_bar**2 / (2.0 * g * c)
    f = np.cos(u) / np.sin(u) - omega / (2.0 * g) - c / (radius * omega) * const
    df = (
        -(radius / c) / np.sin(u) ** 2
        - 1.0 / (2.0 * g)
        + c / (radius * omega**2) * const
    )
    assert np.abs(f / df).max() <= 1e-10


def test_cmd_spectrum_output(tmp_path):
    rc = cli.main(
        ["spectrum", "--n-modes", "40", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == [
        "r", "omega_exact", "omega_approx", "residual", "branch_lo", "branch_hi",
    ]
    assert rows.shape == (41, 6)
    assert rows[0, 2] == pytest.approx(0.89528024488034023, abs=1e-12)
    assert np.all(rows[:, 1] > rows[:, 4]) and np.all(rows[:, 1] < rows[:, 5])
    assert np.all(rows[:, 3] < 1e-10)


def test_cmd_spectrum_writes_nan_where_first_order_values_are_refused(tmp_path):
    # the first-order roots need delta < 0.5: at 0.6 the table is still
    # written, with the exact roots and a NaN omega_approx column
    argv = ["spectrum", "--delta", "0.6", "--n-modes", "40", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert rows.shape == (41, 6)
    assert np.isnan(rows[:, header.index("omega_approx")]).all()
    assert np.isfinite(rows[:, header.index("omega_exact")]).all()


def test_cmd_spectrum_matrix_dump(tmp_path):
    rc = cli.main(
        ["spectrum", "--n-modes", "25", "--dump-matrix", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "matrix.csv")
    assert header[:2] == ["mu", "r0"]
    assert rows.shape == (26, 27)
    entries = rows[:, 1:]
    norms = np.linalg.norm(entries, axis=0)
    assert np.abs(1.0 - norms).max() < 1e-12
    assert np.all(entries[0] > 0)


def test_cmd_spectrum_matrix_dump_repeats_byte_for_byte(tmp_path):
    # at its defaults (N = 300) the build ends on the deflated third-order
    # step; a fixed start block makes the repeated file identical
    p = cli.RunConfig(n_modes=300).make_params()
    assert dc.build_matrix(p, dc.solve_spectrum(p)).final_step_order == 3
    written = []
    for run in ("a", "b"):
        argv = ["spectrum", "--dump-matrix", "--n-modes", "300"]
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == 0
        written.append((tmp_path / run / "matrix.csv").read_bytes())
    assert written[0] == written[1]


def test_cmd_evolve_exact(tmp_path):
    rc = cli.main(
        [
            "evolve", "--n-modes", "150", "--t-max", "20", "--t-steps", "41",
            "--xi", "0.5", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "evolve.csv")
    assert header == ["t", "f00_re", "f00_im", "f00_abs2", "impurity", "entropy"]
    t0 = rows[0]
    assert t0[0] == 0.0
    assert t0[3] == pytest.approx(1.0, abs=1e-9)
    assert t0[4] == pytest.approx(0.0, abs=1e-9)
    assert t0[5] == pytest.approx(LN2, abs=1e-6)
    assert np.all(rows[:, 3] >= 0) and np.all(rows[:, 3] <= 1 + 1e-9)
    assert np.all(rows[:, 4] >= 0) and np.all(rows[:, 4] <= 0.5 + 1e-9)
    assert np.all(rows[:, 5] >= 0) and np.all(rows[:, 5] <= LN2 + 1e-12)
    assert np.all(np.abs(rows[:, 5] - LN2) < 1e-6)
    assert np.all(rows[:, 5] == dc.analytic_entropy(0.5))
    # the complex parts square to the reported survival
    assert rows[:, 1] ** 2 + rows[:, 2] ** 2 == pytest.approx(rows[:, 3], abs=1e-12)


def matrix_path_evolve(argv):
    """evolve's f00 and entropy columns from the full mode matrix."""
    config = cli.merge_config(cli.build_parser().parse_args(argv))
    params = config.make_params()
    spec = dc.solve_spectrum(params)
    matrix = dc.build_matrix(params, spec)
    times = config.time_grid()
    f00 = dc.atom_amplitude(matrix.entries[0], spec, times)
    sums = dc.row_norms(matrix.entries, spec.omegas, 0, times)
    return f00, dc.rank_two_entropy(config.xi, sums)


# (g, delta, n_modes, tolerance of the f00 columns); delta = 1000 is an
# inadequate truncation, inside atom_row's 1e-12 agreement only
EVOLVE_EXACT_CASES = [
    (g, delta, 300, 1e-13) for g in (0.5, 1.5) for delta in (1e-3, 0.1, 3.0, 30.0)
] + [(g, 1000.0, 150, 1e-12) for g in (0.5, 1.5)]


@pytest.mark.parametrize("g, delta, n, tol", EVOLVE_EXACT_CASES)
def test_cmd_evolve_exact_takes_the_atom_row_without_the_mode_matrix(
    tmp_path, monkeypatch, g, delta, n, tol
):
    argv = ["evolve", "--g", repr(g), "--delta", repr(delta),
            "--n-modes", str(n), "--xi", "0.3"]
    calls = []
    for module, name in ((dc.modes, "build_matrix"), (dc.evolution, "row_norms")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name,
            lambda *a, name=name, original=original: (
                calls.append(name) or original(*a)
            ),
        )
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert calls == []
    monkeypatch.undo()

    f00, entropy = matrix_path_evolve(argv)
    _, rows = read_csv(tmp_path / "evolve.csv")
    assert np.abs(rows[:, 1] - f00.real).max() <= tol
    assert np.abs(rows[:, 2] - f00.imag).max() <= tol
    assert np.abs(rows[:, 3] - np.abs(f00) ** 2).max() <= tol
    assert np.abs(rows[:, 5] - entropy).max() <= 1e-13


@pytest.mark.parametrize(
    "mode", ["small_cavity_series", "free_space_closed", "free_space_numeric"]
)
def test_cmd_evolve_other_modes(tmp_path, mode):
    # the series truncates at n_modes: 1000 terms, as at the defaults
    n_modes = "1000" if mode == "small_cavity_series" else "50"
    rc = cli.main(
        [
            "evolve", "--mode", mode, "--n-modes", n_modes, "--t-max", "5",
            "--t-steps", "6", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    assert rows[0, 3] == pytest.approx(1.0, abs=2e-3)
    assert np.all(rows[:, 3] <= 1 + 1e-9)
    assert np.all(rows[:, 5] == dc.analytic_entropy(0.5))


def test_cmd_evolve_series_truncates_at_n_modes(tmp_path):
    argv = ["evolve", "--mode", "small_cavity_series", "--n-modes", "100"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    config = cli.merge_config(cli.build_parser().parse_args(argv))
    series = dc.small_cavity_amplitude_first_order(
        config.make_params(), config.time_grid(), k_terms=100
    )
    assert np.array_equal(rows[:, 1], series.real)
    assert np.array_equal(rows[:, 2], series.imag)


def test_cmd_evolve_series_refuses_its_invalid_domain(tmp_path):
    # delta = 0.1 lies above 2 g^2/(pi omega_bar^2) = 0.057 at g = 0.3
    argv = ["evolve", "--mode", "small_cavity_series", "--g", "0.3"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_cmd_evolve_free_space_closed_matches_scalar_calls(tmp_path):
    rc = cli.main(
        [
            "evolve", "--mode", "free_space_closed", "--g", "0.7", "--t-max", "40",
            "--t-steps", "81", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    params = cli.RunConfig(g=0.7).make_params()
    scalars = np.array([dc.freespace_f00_closed(params, t) for t in rows[:, 0]])
    assert np.array_equal(rows[:, 1], scalars.real)
    assert np.array_equal(rows[:, 2], scalars.imag)


def test_cmd_evolve_asymptotic_needs_positive_start(tmp_path, capsys):
    rc = cli.main(
        [
            "evolve", "--mode", "free_space_asymptotic", "--t-max", "50",
            "--t-steps", "6", "--out", str(tmp_path),
        ]
    )
    assert rc == 3  # t grid touches the t=0 pole
    assert "asymptotic form needs t > 0" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()
    rc = cli.main(
        [
            "evolve", "--mode", "free_space_asymptotic", "--t-min", "10",
            "--t-max", "50", "--t-steps", "6", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    assert np.all(np.isnan(rows[:, 1]))
    assert np.all(rows[:, 3] > 0)


def test_cmd_evolve_deterministic(tmp_path):
    argv = [
        "evolve", "--n-modes", "60", "--t-max", "10", "--t-steps", "11",
    ]
    cli.main(argv + ["--out", str(tmp_path / "a")])
    cli.main(argv + ["--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "evolve.csv").read_bytes()
    b = (tmp_path / "b" / "evolve.csv").read_bytes()
    assert a == b


def test_cmd_figure1(tmp_path):
    rc = cli.main(
        [
            "figure1", "--n-modes", "120", "--t-max", "10", "--t-steps", "21",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "figure1.csv")
    assert header == ["t", "impurity_small_cavity", "impurity_free_space"]
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert rows[0, 2] == pytest.approx(0.0, abs=1e-9)
    assert np.all(rows[:, 1:] >= -1e-12) and np.all(rows[:, 1:] <= 0.5 + 1e-9)
    ET.parse(tmp_path / "figure1.svg")  # well-formed XML


def test_cmd_figure1_takes_the_atom_row_without_the_mode_matrix(
    tmp_path, monkeypatch
):
    argv = ["figure1", "--n-modes", "300", "--t-max", "40", "--t-steps", "401"]
    builds = []
    build_matrix = dc.modes.build_matrix
    monkeypatch.setattr(
        dc.modes, "build_matrix", lambda *a: builds.append(a) or build_matrix(*a)
    )
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert builds == []

    config = cli.merge_config(cli.build_parser().parse_args(argv))
    params = config.make_params()
    spec = dc.solve_spectrum(params)
    matrix_path = dc.population_impurity(
        dc.survival_probability(build_matrix(params, spec), spec, config.time_grid())
    )
    _, rows = read_csv(tmp_path / "figure1.csv")
    assert np.abs(rows[:, 1] - matrix_path).max() <= 1e-13


def test_cmd_figure1_strong_coupling_takes_the_numeric_free_space(tmp_path):
    argv = ["figure1", "--g", "1.5", "--n-modes", "120", "--t-max", "10",
            "--t-steps", "21"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "figure1.csv")
    config = cli.merge_config(cli.build_parser().parse_args(argv))
    params = config.make_params()
    numeric = np.array(
        [dc.freespace_f00_numeric(params, t, tol=config.tol) for t in rows[:, 0]]
    )
    assert np.array_equal(rows[:, 2], dc.population_impurity(np.abs(numeric) ** 2))


def test_cmd_figure2(tmp_path):
    rc = cli.main(["figure2", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "figure2.csv")
    assert header == ["xi", "entropy"]
    assert rows.shape == (199, 2)
    mid = rows[99]
    assert mid[0] == 0.5
    assert mid[1] == pytest.approx(LN2, abs=1e-12)
    idx = np.argmin(np.abs(rows[:, 0] - 0.1))
    assert rows[idx, 1] == pytest.approx(ENTROPY_XI_01, abs=1e-12)
    # mirror pairs agree exactly
    assert np.array_equal(rows[:, 1], rows[::-1, 1])
    ET.parse(tmp_path / "figure2.svg")


def test_cmd_figure2_deterministic(tmp_path):
    cli.main(["figure2", "--out", str(tmp_path / "a")])
    cli.main(["figure2", "--out", str(tmp_path / "b")])
    for name in ("figure2.csv", "figure2.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_cmd_figure2_single_point_svg_is_finite(tmp_path):
    # one xi value: every x coordinate is equal, so the x span needs a guard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["figure2", "--xi-steps", "1", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "figure2.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    ET.parse(tmp_path / "figure2.svg")


def test_cmd_convergence(tmp_path):
    rc = cli.main(
        ["convergence", "--n-sweep", "60,120,240", "--out", str(tmp_path)]
    )
    assert rc == 0
    text = (tmp_path / "convergence.txt").read_text()
    assert "non-increasing" in text
    assert "WARNING" not in text
    assert text.splitlines()[1] == "omega_bar=1.0 g=0.5 delta=0.1"
    assert text.splitlines()[3] == (
        "N, raw_column_norm_defect, raw_orthogonality_defect,"
        " raw_unitarity_defect"
    )
    table = [
        line for line in text.splitlines() if line and line[0].isdigit()
    ]
    defects = np.array([[float(x) for x in row.split(",")] for row in table])
    assert defects.shape == (3, 4)
    assert np.all(np.diff(defects[:, 1]) < 0)  # raw column-norm defect falls
    assert np.all(np.diff(defects[:, 3]) < 0)  # raw unitarity defect falls


def test_cmd_convergence_forms_no_mode_matrix(tmp_path, monkeypatch):
    # the raw columns come from the closed-form Gram matrix alone
    argv = ["convergence", "--g", "1.5", "--delta", "3", "--n-sweep", "30,90"]

    def refuse(*args):
        raise AssertionError("convergence formed an (N+1)^2 matrix")

    for name in ("build_matrix", "assemble_raw_matrix"):
        monkeypatch.setattr(dc.modes, name, refuse)
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0

    table = [
        line
        for line in (tmp_path / "convergence.txt").read_text().splitlines()
        if line and line[0].isdigit()
    ]
    expected = []
    for n in (30, 90):
        p = dc.make_params(1.0, 1.5, delta=3.0, n_modes=n)
        d = dc.raw_defects(p, dc.solve_spectrum(p), (0.0, 1.0, 10.0))
        expected.append(
            f"{n}, {d.column_norm:.6e}, {d.orthogonality:.6e}, {d.unitarity:.6e}"
        )
    assert table == expected


def test_selftest_passes_quickly():
    config = cli.RunConfig(n_modes=300)
    results = cli.selftest_checks(config)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    names = {r.name for r in results}
    assert "spectrum_interlacing" in names
    assert "unitarity_rows" in names


def test_selftest_prints_the_quadrature_error_estimate():
    results = cli.selftest_checks(cli.RunConfig(n_modes=300))
    (result,) = [r for r in results if r.name == "freespace_consistency"]
    estimate = re.search(r", max error estimate (\S+)$", result.detail)
    assert estimate is not None, result.detail
    assert 0.0 < float(estimate.group(1)) <= 1e-9


@pytest.mark.parametrize(
    "settings, detail",
    [
        ({}, "2 Newton-Schulz steps, final of order 2"),
        ({"delta": 1000.0, "n_modes": 200}, "13 Newton-Schulz steps, final of order 3"),
    ],
)
def test_selftest_prints_the_loewdin_path(settings, detail):
    # the default N = 1000, delta = 0.1 takes the path with no E^2 product
    results = cli.selftest_checks(cli.RunConfig(**settings))
    (result,) = [r for r in results if r.name == "matrix_raw_orthogonality"]
    assert result.detail.endswith(detail), result.detail


@pytest.mark.parametrize(
    "settings, path",
    [({}, "in closed form"), ({"delta": 1000.0, "n_modes": 200}, "by product")],
)
def test_selftest_prints_how_the_first_iterate_was_formed(settings, path):
    # delta = 1000, N = 200 is past the closed form's bracket guard
    results = cli.selftest_checks(cli.RunConfig(**settings))
    (result,) = [r for r in results if r.name == "matrix_raw_orthogonality"]
    assert f", first iterate {path}, " in result.detail, result.detail


def test_selftest_flags_injected_corruption(monkeypatch):
    config = cli.RunConfig(n_modes=120)
    params = config.make_params()
    spec = dc.solve_spectrum(params)
    bad = np.array(spec.omegas)
    bad[3] += params.delta_omega
    corrupted = dataclasses.replace(spec, omegas=bad)
    monkeypatch.setattr(cli.spectrum_mod, "solve_spectrum", lambda p: corrupted)
    results = cli.selftest_checks(config)
    failures = {r.name for r in results if not r.passed}
    assert "spectrum_interlacing" in failures


def test_selftest_recomputes_the_root_residuals(monkeypatch):
    config = cli.RunConfig(n_modes=120)
    params = config.make_params()
    spec = dc.solve_spectrum(params)
    bad = np.array(spec.omegas)
    bad[50] += 1e-6  # still inside its branch; the stored residuals are stale
    corrupted = dataclasses.replace(spec, omegas=bad)
    assert dc.check_interlacing(params, corrupted)
    monkeypatch.setattr(cli.spectrum_mod, "solve_spectrum", lambda p: corrupted)
    failures = {r.name for r in cli.selftest_checks(config) if not r.passed}
    assert "spectrum_residuals" in failures


@pytest.mark.parametrize("delta", [1e-3, 1e-2])
def test_selftest_passes_at_small_delta(delta):
    results = cli.selftest_checks(cli.RunConfig(delta=delta, n_modes=300))
    assert [f"{r.name}: {r.detail}" for r in results if not r.passed] == []


@pytest.mark.parametrize("n_modes", [1, 2])
def test_selftest_checks_only_the_rows_that_exist(n_modes):
    results = cli.selftest_checks(cli.RunConfig(n_modes=n_modes))
    assert [r.detail for r in results if r.detail.startswith("raised")] == []
    (rows,) = [r for r in results if r.name == "unitarity_rows"]
    assert rows.passed


def test_selftest_entropy_check_sees_a_scaled_column(monkeypatch):
    config = cli.RunConfig(n_modes=120)
    params = config.make_params()
    spec = dc.solve_spectrum(params)
    matrix = dc.build_matrix(params, spec)
    entries = matrix.entries.copy()
    entries[:, 0] *= 1.001
    scaled = dataclasses.replace(matrix, entries=entries)
    monkeypatch.setattr(cli.modes, "build_matrix", lambda p, s: scaled)
    results = cli.selftest_checks(config)
    failures = {r.name for r in results if not r.passed}
    assert {"entropy_flatness", "unitarity_rows"} <= failures


# each setting lies outside the domain of one comparison of the suite
NOT_APPLICABLE = [
    (dict(g=1.5), "freespace_consistency", "no closed form"),
    (dict(delta=0.3), "survival_range_and_bound", "bound not applicable"),
    (dict(g=0.05), "survival_range_and_bound", "bound not applicable"),
]


@pytest.mark.parametrize("settings, name, reason", NOT_APPLICABLE)
def test_selftest_passes_where_a_comparison_does_not_apply(
    settings, name, reason
):
    results = cli.selftest_checks(cli.RunConfig(n_modes=300, **settings))
    assert [r.name for r in results if not r.passed] == []
    (result,) = [r for r in results if r.name == name]
    assert reason in result.detail


@pytest.mark.parametrize("settings", [case[0] for case in NOT_APPLICABLE])
def test_selftest_flags_corruption_where_a_comparison_does_not_apply(
    monkeypatch, settings
):
    config = cli.RunConfig(n_modes=120, **settings)
    params = config.make_params()
    spec = dc.solve_spectrum(params)
    matrix = dc.build_matrix(params, spec)
    entries = matrix.entries.copy()
    entries[:, 0] *= 1.001
    scaled = dataclasses.replace(matrix, entries=entries)
    monkeypatch.setattr(cli.modes, "build_matrix", lambda p, s: scaled)
    failures = {r.name for r in cli.selftest_checks(config) if not r.passed}
    # the survival range is checked even where the bound is undefined
    assert {
        "entropy_flatness", "unitarity_rows", "survival_range_and_bound"
    } <= failures

    bad = np.array(spec.omegas)
    bad[3] += params.delta_omega
    corrupted = dataclasses.replace(spec, omegas=bad)
    monkeypatch.setattr(cli.spectrum_mod, "solve_spectrum", lambda p: corrupted)
    failures = {r.name for r in cli.selftest_checks(config) if not r.passed}
    assert "spectrum_interlacing" in failures


def test_selftest_runs_the_dense_entropy_check_once_at_small_n(monkeypatch):
    calls = []
    original = cli.bipartite.entropy_time_independence_check

    def spy(params, *args, **kwargs):
        calls.append(params.n_modes)
        return original(params, *args, **kwargs)

    monkeypatch.setattr(cli.bipartite, "entropy_time_independence_check", spy)
    results = cli.selftest_checks(cli.RunConfig(n_modes=300))
    assert all(r.passed for r in results)
    assert len(calls) == 1 and calls[0] <= 100


@pytest.mark.parametrize("xi", [0.01, 0.99])
def test_selftest_checks_the_entropy_at_the_configured_weight(monkeypatch, xi):
    weights = []
    original = cli.bipartite.entropy_time_independence_check

    def spy(params, state, *args, **kwargs):
        weights.append(state.xi)
        return original(params, state, *args, **kwargs)

    monkeypatch.setattr(cli.bipartite, "entropy_time_independence_check", spy)
    results = cli.selftest_checks(cli.RunConfig(n_modes=100, xi=xi))
    assert weights == [xi]
    assert all(r.passed for r in results if r.name == "entropy_flatness")


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    rc = cli.main(["figure2", "--out", str(blocker)])
    assert rc == 2


def test_xi_endpoints_rejected(tmp_path):
    rc = cli.main(
        ["evolve", "--xi", "1.0", "--t-max", "5", "--t-steps", "3",
         "--out", str(tmp_path)]
    )
    assert rc == 3


def test_bad_mode_precondition_exit_code(tmp_path):
    # strong coupling rejects the closed-form path
    rc = cli.main(
        [
            "evolve", "--mode", "free_space_closed", "--g", "2.0",
            "--t-max", "5", "--t-steps", "3", "--out", str(tmp_path),
        ]
    )
    assert rc == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--t-max", "nan"],
        ["--t-max", "inf"],
        ["--mode", "free_space_numeric", "--tol", "inf"],
    ],
)
def test_non_finite_settings_exit_3_without_output(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(["evolve", *argv, "--out", str(out)]) == 3
    assert not out.exists()


def test_free_space_numeric_past_the_phase_cap_exits_3_without_output(
    monkeypatch, tmp_path
):
    """t x0 just past 1e6 rad at g = 1.5 (x0 = 4): refused before any time
    of the grid is integrated."""
    calls = []
    monkeypatch.setattr(freespace, "quad", lambda *a: calls.append(a))
    out = tmp_path / "out"
    argv = [
        "evolve", "--mode", "free_space_numeric", "--g", "1.5",
        "--t-max", "250000.001", "--t-steps", "3", "--out", str(out),
    ]
    assert cli.main(argv) == 3
    assert calls == [] and not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", 0.0),
        ("tol", -1e-8),
        ("xi_steps", 0),
        ("n_sweep", ()),
        ("n_sweep", (100, 0, 300)),
        ("n_sweep", (300, 100)),
        ("n_sweep", (100, 100)),
        ("tol", float("inf")),
        ("tol", float("nan")),
        ("t_min", float("-inf")),
        ("t_max", float("nan")),
        ("t_max", 0.0),
        ("t_min", 100.0),
        ("t_steps", 1),
    ],
)
def test_validate_rejects_bad_numeric_settings(field, value):
    config = cli.RunConfig(**{field: value})
    with pytest.raises(ValidationError, match=field):
        config.validate()


@pytest.mark.parametrize("t_max", [0.0, -0.5])
def test_validate_rejects_a_grid_that_ends_at_or_before_zero(t_max):
    # t_min < t_max passes the order check, so only the sign refuses it
    config = cli.RunConfig(t_min=-1.0, t_max=t_max)
    with pytest.raises(ValidationError, match="t_max must be positive"):
        config.validate()


@pytest.mark.parametrize("sweep", ["300,100", "100,100"])
def test_unsorted_or_repeated_sweep_exits_3_from_flag_and_file(tmp_path, sweep):
    out = tmp_path / "out"
    assert cli.main(["convergence", "--n-sweep", sweep, "--out", str(out)]) == 3
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"n_sweep = {sweep}\n")
    assert cli.main(["convergence", "--config", str(cfg_file), "--out", str(out)]) == 3
    assert not out.exists()


_INTEGRATE, _SPECIAL = "scipy.integrate", "scipy.special"
_CAVITY_COMMANDS = """
from dressedcavity import cli
for argv in (
    ["spectrum", "--n-modes", "300"],
    ["figure2", "--xi-steps", "1"],
    ["convergence", "--n-sweep", "100,300"],
    ["evolve"],
):
    assert cli.main(argv) == 0
"""


@pytest.mark.parametrize(
    "code, loaded, not_loaded",
    [
        (_CAVITY_COMMANDS, set(), {_INTEGRATE, _SPECIAL}),
        (
            "from dressedcavity import cli\nassert cli.main(['figure1']) == 0",
            set(),
            {_INTEGRATE, _SPECIAL},
        ),
        (
            "from dressedcavity import cli\n"
            "assert cli.main(['evolve', '--mode', 'free_space_closed']) == 0",
            set(),
            {_INTEGRATE, _SPECIAL},
        ),
        (
            "from dressedcavity import cli\nassert cli.main(['selftest']) == 0",
            set(),
            {_INTEGRATE, _SPECIAL},
        ),
        (
            "import dressedcavity as dc\n"
            "dc.freespace_f00_numeric(dc.make_params(1.0, 0.5, delta=0.1), 1.0)",
            set(),
            {_INTEGRATE, _SPECIAL},
        ),
        (
            "import dressedcavity as dc\n"
            "dc.freespace_f00_numeric(dc.make_params(1.0, 0.5, delta=0.1), 1e4)",
            set(),
            {_INTEGRATE, _SPECIAL},
        ),
        (
            "from dressedcavity import cli\n"
            "assert cli.main(['figure1', '--g', '1.5']) == 0",
            set(),
            {_INTEGRATE, _SPECIAL},
        ),
    ],
    ids=[
        "cavity_commands",
        "figure1",
        "evolve_free_space_closed",
        "selftest",
        "freespace_f00_numeric",
        "freespace_f00_numeric_t1e4",
        "figure1_strong",
    ],
)
def test_scipy_loads_only_where_free_space_is_computed(tmp_path, code, loaded, not_loaded):
    """Start-up contract, in a fresh interpreter: the cavity side, the
    free-space closed form (figure1, evolve --mode free_space_closed,
    selftest) and the quadrature, which is the free space of figure1 at
    strong coupling, need numpy alone, the quadrature at every t (at
    t = 1e4 the panel [0, 2] spans 2e4 rad)."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(dc.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    modules = set(json.loads(done.stdout.splitlines()[-1]))
    assert loaded <= modules
    assert not not_loaded & modules
