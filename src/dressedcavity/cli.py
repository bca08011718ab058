"""Command-line surface: spectra, time series, figures, reports.

Subcommands
-----------
spectrum     eigenfrequency table (exact roots vs small-cavity values)
evolve       time series of f_00, impurity and entropy for one mode
figure1      impurity overlay, small cavity vs free space
figure2      entanglement entropy as a function of the weight xi
convergence  truncation-defect report across a sweep of mode counts
selftest     run the invariant suite at the configured parameters

The commands compute through the library: the atom row T[0, :] by
``modes.atom_row``, with no (N+1)^2 mode matrix, then f_00 by
``evolution.atom_amplitude`` (figure1 squares it for the survival);
impurity by ``bipartite.population_impurity``.  Evolve's entropy column
is ``bipartite.analytic_entropy(xi)`` in every mode: the entropy depends
on neither t nor the cavity.  Free space takes the whole time grid in
one library call (``freespace.freespace_f00_numeric``,
``freespace_f00_closed`` or ``freespace_survival_asymptotic``), and the
library refuses what lies outside its domain, such as t <= 0 for the
asymptotic form (exit 3); figure1 falls back to the quadrature where the
closed form raises RegimeError.
The full matrix of ``modes.build_matrix`` is formed only by
``spectrum --dump-matrix`` and ``selftest``; the selftest checks the
entropy's time independence with ``evolution.row_norms`` and with the
dense eigensolver verifier ``bipartite.entropy_time_independence_check``
at N <= 100 only.  ``convergence`` reports the defects of the unrepaired
columns from ``modes.raw_defects``, their closed-form Gram matrix, with
no (N+1)^2 array.

Configuration is a flat key=value file plus per-key command-line
overrides; flag names mirror the keys and parse alike (``_parse_value``).
The cavity enters through the one number delta = g R/(pi c): a cavity of
radius R at wave speed c is ``--delta`` g R/(pi c).
Exit codes: 0 success, 1 invariant failure, 2 I/O failure or a command
line that argparse rejected, 3 violated precondition.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import bipartite, evolution, freespace, modes, spectrum as spectrum_mod
from .errors import (
    ApproximationDomainError,
    CavityModelError,
    ConfigurationError,
    RegimeError,
    ValidationError,
)
from .output import svg_line_plot, write_csv
from .params import DEFAULT_N_MODES, SystemParams, make_params

MODES = (
    "small_cavity_exact",
    "small_cavity_series",
    "free_space_numeric",
    "free_space_closed",
    "free_space_asymptotic",
)

DEFAULT_N_SWEEP = (100, 300, 1000, 3000)

# mode count of the selftest's dense entropy verifier: an (N+2)^2 Hermitian
# eigensolve per time point, kept small; the configured N uses the rank-2 form
_DENSE_ENTROPY_N_MODES = 100


@dataclass
class RunConfig:
    """Merged configuration for every subcommand."""

    omega_bar: float = 1.0
    g: float = 0.5
    delta: float = 0.1
    n_modes: int = DEFAULT_N_MODES
    xi: float = 0.5
    mode: str = "small_cavity_exact"
    t_min: float = 0.0
    t_max: float = 100.0
    t_steps: int = 1001
    xi_steps: int = 199
    tol: float = freespace.DEFAULT_TOL
    n_sweep: tuple = DEFAULT_N_SWEEP
    out: str = "."
    dump_matrix: bool = False

    def validate(self) -> None:
        if not np.isfinite([self.t_min, self.t_max]).all():
            raise ValidationError("t_min and t_max must be finite")
        if self.t_max <= self.t_min:
            raise ValidationError("t_max must exceed t_min")
        if self.t_max <= 0:
            raise ValidationError("t_max must be positive")
        if self.t_steps < 2:
            raise ValidationError("t_steps must be at least 2")
        if not 0.0 < self.xi < 1.0:
            raise ValidationError("xi must lie strictly inside (0, 1)")
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if self.xi_steps < 1:
            raise ValidationError("xi_steps must be at least 1")
        if not 0.0 < self.tol < np.inf:
            raise ValidationError("tol must be positive and finite")
        if not self.n_sweep:
            raise ValidationError("n_sweep must list at least one mode count")
        if min(self.n_sweep) < 1:
            raise ValidationError("every n_sweep entry must be at least 1")
        if any(b <= a for a, b in zip(self.n_sweep, self.n_sweep[1:])):
            raise ValidationError("n_sweep must strictly increase")

    def make_params(self, n_modes: Optional[int] = None) -> SystemParams:
        return make_params(
            self.omega_bar,
            self.g,
            delta=self.delta,
            n_modes=n_modes if n_modes is not None else self.n_modes,
        )

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)


def _boolean(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# parser of each RunConfig annotation (a string under postponed evaluation)
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple": lambda s: tuple(int(part) for part in s.split(",") if part.strip()),
    "bool": _boolean,
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    """The value of setting ``key`` from its text; ValueError if malformed."""
    return _PARSERS[_FIELD_TYPES[key]](raw)


def load_config_file(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    values: dict = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(
                    f"{path}:{line_no}: expected key=value, got {line!r}"
                )
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigurationError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _parse_value(key, raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: bad value for {key!r}: {exc}"
                ) from exc
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file's keys, then the flags given."""
    config_file = getattr(args, "config", None)
    file_values = load_config_file(config_file) if config_file else {}
    flag_values = {
        f.name: getattr(args, f.name) for f in fields(RunConfig) if f.name in args
    }
    config = replace(RunConfig(), **{**file_values, **flag_values})
    config.validate()
    return config


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


# ----------------------------------------------------------------- commands


def cmd_spectrum(config: RunConfig) -> int:
    params = config.make_params()
    exact = spectrum_mod.solve_spectrum(params)
    try:
        approx = spectrum_mod.approx_spectrum_small_cavity(params)
    except CavityModelError:
        approx = np.full(params.n_modes + 1, np.nan)
    dw = params.delta_omega
    rows = [
        (
            r,
            exact.omegas[r],
            approx[r],
            exact.residuals[r],
            r * dw,
            (r + 1) * dw,
        )
        for r in range(params.n_modes + 1)
    ]
    write_csv(
        _out_path(config, "spectrum.csv"),
        ("r", "omega_exact", "omega_approx", "residual", "branch_lo", "branch_hi"),
        rows,
    )
    if config.dump_matrix:
        matrix = modes.build_matrix(params, exact)
        header = ["mu"] + [f"r{r}" for r in range(params.n_modes + 1)]
        write_csv(
            _out_path(config, "matrix.csv"),
            header,
            ((mu, *row.tolist()) for mu, row in enumerate(matrix.entries)),
        )
    return 0


def cmd_evolve(config: RunConfig) -> int:
    params = config.make_params()
    times = config.time_grid()
    entropies = np.full(times.size, bipartite.analytic_entropy(config.xi))

    if config.mode == "free_space_asymptotic":
        abs2 = freespace.freespace_survival_asymptotic(params, times)
        f00 = np.full(times.size, complex(np.nan, np.nan))  # no phase
    else:
        if config.mode == "small_cavity_exact":
            spec = spectrum_mod.solve_spectrum(params)
            f00 = evolution.atom_amplitude(modes.atom_row(params, spec), spec, times)
        elif config.mode == "small_cavity_series":
            f00 = evolution.small_cavity_amplitude_first_order(
                params, times, params.n_modes
            )
        elif config.mode == "free_space_closed":
            f00 = freespace.freespace_f00_closed(params, times)
        else:
            f00 = freespace.freespace_f00_numeric(params, times, config.tol)
        abs2 = np.abs(f00) ** 2

    # identical atoms: the two-atom population is |f_00|^2
    impurities = bipartite.population_impurity(abs2)
    write_csv(
        _out_path(config, "evolve.csv"),
        ("t", "f00_re", "f00_im", "f00_abs2", "impurity", "entropy"),
        zip(times, f00.real, f00.imag, abs2, impurities, entropies),
    )
    return 0


def cmd_figure1(config: RunConfig) -> int:
    params = config.make_params()
    times = config.time_grid()

    spec = spectrum_mod.solve_spectrum(params)
    row = modes.atom_row(params, spec)
    f00 = evolution.atom_amplitude(row, spec, times)
    d_small = bipartite.population_impurity(np.abs(f00) ** 2)
    try:
        free = freespace.freespace_f00_closed(params, times)
    except RegimeError:
        free = freespace.freespace_f00_numeric(params, times, config.tol)
    d_free = bipartite.population_impurity(np.abs(free) ** 2)

    write_csv(
        _out_path(config, "figure1.csv"),
        ("t", "impurity_small_cavity", "impurity_free_space"),
        zip(times, d_small, d_free),
    )
    svg_line_plot(
        _out_path(config, "figure1.svg"),
        [("small cavity", times, d_small), ("free space", times, d_free)],
        title="Impurity of the two-atom state",
        xlabel="t",
        ylabel="D(t)",
    )
    return 0


def figure2_grid(xi_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(xi, entropy) with both weights built from integers.

    Constructing xi and 1 - xi as i/(n+1) and (n+1-i)/(n+1) makes the
    mirror symmetry E(xi) = E(1-xi) exact in floating point.
    """
    denom = xi_steps + 1
    i = np.arange(1, denom)
    xis = i / denom
    pairs = np.stack([(denom - i) / denom, xis], -1)
    return xis, bipartite.von_neumann_entropy(pairs)


def cmd_figure2(config: RunConfig) -> int:
    xis, entropies = figure2_grid(config.xi_steps)
    write_csv(
        _out_path(config, "figure2.csv"), ("xi", "entropy"), zip(xis, entropies)
    )
    svg_line_plot(
        _out_path(config, "figure2.svg"),
        [("entanglement entropy", xis, entropies)],
        title="Entanglement entropy of the two-atom state",
        xlabel="xi",
        ylabel="E(xi)",
    )
    return 0


def cmd_convergence(config: RunConfig) -> int:
    check_times = (0.0, 1.0, 10.0)
    lines = [
        "truncation convergence report",
        f"omega_bar={config.omega_bar} g={config.g} delta={config.delta}",
        "",
        "N, raw_column_norm_defect, raw_orthogonality_defect, raw_unitarity_defect",
    ]
    sweep = []
    for n in config.n_sweep:
        params = config.make_params(n_modes=n)
        spec = spectrum_mod.solve_spectrum(params)
        defects = modes.raw_defects(params, spec, check_times)
        sweep.append(defects)
        lines.append(
            f"{n}, {defects.column_norm:.6e}, {defects.orthogonality:.6e}, "
            f"{defects.unitarity:.6e}"
        )
    lines.append("")
    for label, field in (
        ("raw_column_norm_defect", "column_norm"),
        ("raw_orthogonality_defect", "orthogonality"),
        ("raw_unitarity_defect", "unitarity"),
    ):
        seq = [getattr(defects, field) for defects in sweep]
        monotone = all(b <= a for a, b in zip(seq, seq[1:]))
        lines.append(
            f"{label}: {'non-increasing' if monotone else 'WARNING non-monotone'}"
        )
    path = _out_path(config, "convergence.txt")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ----------------------------------------------------------------- selftest


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def selftest_checks(config: Optional[RunConfig] = None) -> list[CheckResult]:
    """Run the invariant suite at the configured parameters.

    Every check reads the configuration; the ones that would not (the
    impurity of random states, the mirror symmetry of the entropy) are the
    acceptance suite's.  A comparison whose reference the library refuses
    there (the free-space closed form raises RegimeError, the lower bound
    ApproximationDomainError) passes with "not applicable" and the
    library's message in its detail; the survival range is still checked.
    """
    config = config or RunConfig()
    params = config.make_params()
    results: list[CheckResult] = []

    def check(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), detail))

    def derived_scalars():
        e1 = abs(params.delta * params.delta_omega - params.g) / params.g
        e2 = abs(params.eta**2 - 4 * params.g * params.delta_omega / np.pi) / (
            params.eta**2
        )
        return max(e1, e2) < 1e-12, f"identity drift {max(e1, e2):.2e}"

    check("params_derived_scalars", derived_scalars)

    spec = spectrum_mod.solve_spectrum(params)

    def residuals():
        # recomputed: a stored spec.residuals need not belong to spec.omegas
        worst = float(spectrum_mod.newton_residuals(params, spec.omegas).max())
        return worst < 1e-10, f"max residual {worst:.2e}"

    check("spectrum_residuals", residuals)

    def interlacing():
        ok = spectrum_mod.check_interlacing(params, spec)
        return ok, "each root inside its branch" if ok else "root escaped its branch"

    check("spectrum_interlacing", interlacing)

    try:
        matrix = modes.build_matrix(params, spec)
    except CavityModelError as exc:
        # keep the named spectrum failures above visible instead of crashing
        results.append(
            CheckResult("matrix_build", False, f"{type(exc).__name__}: {exc}")
        )
        return results

    def column_norms():
        norms = np.linalg.norm(matrix.entries, axis=0)
        worst = float(np.abs(1.0 - norms).max())
        return worst < 1e-12, f"max |1 - norm| {worst:.2e}"

    def raw_orthogonality():
        first = "in closed form" if matrix.first_iterate_closed_form else "by product"
        return (
            matrix.raw_orthogonality_defect < 1e-3,
            f"raw defect {matrix.raw_orthogonality_defect:.2e}, first iterate {first}, "
            f"{matrix.newton_schulz_steps} Newton-Schulz steps, "
            f"final of order {matrix.final_step_order}",
        )

    check("matrix_column_norms", column_norms)
    check("matrix_raw_orthogonality", raw_orthogonality)

    def identity_at_zero():
        row = evolution.amplitude_row(matrix, spec, 0, 0.0)
        diag = abs(row[0] - 1.0)
        off = float(np.abs(row[1:]).max())
        worst = max(diag, off)
        return worst < 1e-12, f"max |f(0) - identity| {worst:.2e}"

    check("amplitude_identity_t0", identity_at_zero)

    def unitarity():
        worst = max(
            evolution.unitarity_defect(matrix, spec, mu, (0.0, 1.0, 10.0, 100.0))
            for mu in (0, 1, 5)
            if mu <= params.n_modes
        )
        return worst < 1e-6, f"max row defect {worst:.2e}"

    check("unitarity_rows", unitarity)

    def survival_range_and_bound():
        times = np.linspace(0.0, 100.0, 4001)
        surv = evolution.survival_probability(matrix, spec, times)
        low = float(surv.min())
        in_range = low >= 0.0 and float(surv.max()) <= 1.0 + 1e-9
        try:
            bound = evolution.small_cavity_lower_bound(params)
        except ApproximationDomainError as exc:
            return in_range, f"min {low:.5f}; bound not applicable: {exc}"
        return in_range and low >= bound - 0.01, f"min {low:.5f}, bound {bound:.5f}"

    check("survival_range_and_bound", survival_range_and_bound)

    def freespace_consistency():
        times = np.array([0.5, 5.0, 12.0])
        try:
            closed = freespace.freespace_f00_closed(params, times)
        except RegimeError as exc:
            return True, f"not applicable: {exc}"
        numeric, achieved = freespace._numeric_with_error(params, times, tol=1e-9)
        worst = float(np.abs(numeric - closed).max())
        return worst < 1e-6, (
            f"max |numeric - closed| {worst:.2e}, "
            f"max error estimate {float(achieved.max()):.2e}"
        )

    check("freespace_consistency", freespace_consistency)

    def entropy_flatness():
        xi, times = 0.3, (0.0, 2.5, 5.0, 50.0, 100.0)
        sums = evolution.row_norms(matrix.entries, spec.omegas, 0, times)
        std = float(bipartite.rank_two_entropy(xi, sums).std())
        defect = float(np.max(xi * np.abs(sums - 1.0)))
        n_dense = min(params.n_modes, _DENSE_ENTROPY_N_MODES)
        dense = bipartite.entropy_time_independence_check(
            config.make_params(n_modes=n_dense),
            bipartite.EntangledStateConfig(xi=xi),
            times,
        )
        worst = max(std, defect, dense.std_dev, dense.eigenvalue_defect)
        return worst < 1e-6, (
            f"std {std:.2e}, eigenvalue defect {defect:.2e}; dense N={n_dense}: "
            f"std {dense.std_dev:.2e}, eigenvalue defect "
            f"{dense.eigenvalue_defect:.2e}"
        )

    check("entropy_flatness", entropy_flatness)

    return results


def cmd_selftest(config: RunConfig) -> int:
    start = time.perf_counter()
    print(
        f"selftest baseline: omega_bar={config.omega_bar} g={config.g} "
        f"delta={config.delta} n_modes={config.n_modes}"
    )
    results = selftest_checks(config)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += not result.passed
        print(f"{status} {result.name} ({result.detail})")
    elapsed = time.perf_counter() - start
    print(
        f"selftest: {len(results) - failures}/{len(results)} checks passed "
        f"in {elapsed:.1f} s"
    )
    return 1 if failures else 0


# ----------------------------------------------------------------- plumbing


_FLAG_HELP = {
    "out": "output directory (default: current)",
    "dump_matrix": "with 'spectrum': also write the mode matrix as matrix.csv",
}


def _flag_options(key: str) -> dict:
    """A bare switch for a boolean setting, else a value that ``_parse_value``
    reads as it reads the file's key."""
    if _FIELD_TYPES[key] == "bool":
        return {"action": "store_const", "const": True}

    def parse(raw: str):
        return _parse_value(key, raw)

    parse.__name__ = key  # argparse reports "invalid <key> value"
    return {"type": parse, "choices": MODES if key == "mode" else None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedcavity",
        description="Dressed-atom cavity dynamics and entanglement toolkit",
    )
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", help="flat key=value configuration file")
    for f in fields(RunConfig):
        options.add_argument(
            "--" + f.name.replace("_", "-"), default=argparse.SUPPRESS,
            help=_FLAG_HELP.get(f.name), **_flag_options(f.name),
        )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "emit the normal-mode frequency table as CSV"),
        ("evolve", "emit a time series for the selected mode as CSV"),
        ("figure1", "impurity overlay: small cavity vs free space (CSV + SVG)"),
        ("figure2", "entanglement entropy vs superposition weight (CSV + SVG)"),
        ("convergence", "truncation-defect report over a mode-count sweep"),
        ("selftest", "run the invariant suite; exit 0 only if all pass"),
    ):
        # no prefix matching: a removed flag such as --c must not read as --config
        sub.add_parser(name, help=help_text, allow_abbrev=False, parents=[options])
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "figure1": cmd_figure1,
    "figure2": cmd_figure2,
    "convergence": cmd_convergence,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = merge_config(args)
        return _COMMANDS[args.command](config)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 2
    except CavityModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
