"""Seeded inputs, jobs and correctness gates of the three benchmark workloads.

Each workload is a closed loop over a fixed set of ``n_jobs`` distinct jobs,
made in cycles of ``cycle`` jobs: one client, and a job starts only after the
previous one ends.  Inputs come only from the seed.
Jobs call the public functions of ``dressedcavity`` through their module
attributes (``spectrum.solve_spectrum``, ``modes.build_matrix``, ...), so
that the tracer can wrap them where they are bound.  ``run(job)`` returns the
list of gate failures; an empty list means the outputs passed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from dressedcavity import bipartite, cli, evolution, freespace, modes, spectrum
from dressedcavity import params as params_mod

SPECTRUM_RESIDUAL_MAX = 1e-10
COLUMN_NORM_TOL = 1e-12
UNITARITY_MAX = 1e-10
SURVIVAL_SLACK = 1e-9
ENTROPY_TOL = 1e-9
FREESPACE_AGREEMENT = 1e-6
FREESPACE_T0_TOL = 1e-8


def _spectrum_gate(p, spec) -> list[str]:
    fails = []
    worst = float(spec.residuals.max())
    if not worst < SPECTRUM_RESIDUAL_MAX:
        fails.append(f"spectrum residual {worst:.3e}")
    if not spectrum.check_interlacing(p, spec):
        fails.append("spectrum interlacing violated")
    return fails


def _matrix_gate(matrix) -> list[str]:
    worst = float(np.abs(1.0 - np.linalg.norm(matrix.entries, axis=0)).max())
    return [] if worst <= COLUMN_NORM_TOL else [f"column norm defect {worst:.3e}"]


def _survival_gate(surv) -> list[str]:
    lo, hi = float(np.min(surv)), float(np.max(surv))
    if lo >= 0.0 and hi <= 1.0 + SURVIVAL_SLACK:
        return []
    return [f"survival outside [0, 1]: [{lo!r}, {hi!r}]"]


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of ``n`` equal strata of [lo, hi), in order."""
    return [float(v) for v in lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n]


class CavityBuild:
    """One finite cavity per job: spectrum, Loewdin matrix, survival, entropy.

    ``build_matrix`` (its O(N^3) ``eigh``) is most of the job, so this is the
    workload on which a faster mode matrix shows.
    """

    name = "cavity_build"
    sizes = (800, 1000, 1200, 1600)
    cycle = len(sizes)
    n_jobs = cycle
    trace_cycles = 3
    survival_times = np.linspace(0.0, 50.0, 401)
    row_times = (0.0, 10.0, 50.0)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.jobs = []
        for i in range(self.n_jobs):
            strong = i % 4 == 3  # one job in four
            self.jobs.append(
                dict(
                    n_modes=self.sizes[i % self.cycle],
                    g=float(rng.uniform(1.0, 2.0) if strong else rng.uniform(0.05, 0.95)),
                    delta=_log_uniform(rng, 1e-2, 3.0),
                    xi=float(rng.uniform(0.1, 0.9)),
                )
            )

    def label(self, job) -> str:
        return f"N={job['n_modes']}"

    def run(self, job) -> list[str]:
        p = params_mod.make_params(1.0, job["g"], delta=job["delta"], n_modes=job["n_modes"])
        spec = spectrum.solve_spectrum(p)
        matrix = modes.build_matrix(p, spec)
        surv = evolution.survival_probability(matrix, spec, self.survival_times)
        fails = _spectrum_gate(p, spec) + _matrix_gate(matrix) + _survival_gate(surv)

        xi = job["xi"]
        cfg = bipartite.EntangledStateConfig(xi=xi)
        target = bipartite.analytic_entropy(xi)
        for t in self.row_times:
            row = evolution.amplitude_row(matrix, spec, 0, t)
            norm2 = float(np.sum(np.abs(row) ** 2))
            if not abs(1.0 - norm2) < UNITARITY_MAX:
                fails.append(f"unitarity defect {abs(1.0 - norm2):.3e} at t={t}")
            entropy = bipartite.von_neumann_entropy([1.0 - xi, xi * norm2])
            if not abs(entropy - target) <= ENTROPY_TOL:
                fails.append(f"entropy off by {abs(entropy - target):.3e} at t={t}")
            bipartite.impurity(row[0], row[0], cfg)
        return fails


class FreespaceSeries:
    """One coupling per job in the free-space limit: quadrature only.

    Two jobs in three are weak coupling and compare the numeric amplitude
    with the closed form; the third is strong coupling, numeric only.
    """

    name = "freespace_series"
    cycle = 3
    n_jobs = 12 * cycle
    trace_cycles = 12
    times = np.linspace(40.0 / 12, 40.0, 12)

    def __init__(self, seed: int):
        # the quadrature's cost depends on g, so each g is drawn in its own
        # stratum of the range: every seed gives the same mix of easy and
        # hard couplings, and the median job does not jump between them
        rng = np.random.default_rng(seed)
        cycles = self.n_jobs // self.cycle
        weak = iter(_stratified(rng, 0.05, 0.95, cycles * (self.cycle - 1)))
        strong = iter(_stratified(rng, 1.2, 3.0, cycles))
        self.jobs = []
        for i in range(self.n_jobs):
            is_strong = i % self.cycle == self.cycle - 1
            g = next(strong) if is_strong else next(weak)
            self.jobs.append(dict(g=g, strong=is_strong))

    def label(self, job) -> str:
        return "strong" if job["strong"] else "weak"

    def run(self, job) -> list[str]:
        # free space has no radius; delta only satisfies make_params
        p = params_mod.make_params(1.0, job["g"], delta=1.0, n_modes=1)
        fails = []
        f0 = freespace.freespace_f00_numeric(p, 0.0)
        if not abs(f0 - 1.0) <= FREESPACE_T0_TOL:
            fails.append(f"f00(0) = {f0!r}")
        worst = 0.0
        for t in self.times:
            numeric = freespace.freespace_f00_numeric(p, float(t))
            if abs(numeric) > 1.0 + FREESPACE_AGREEMENT:
                fails.append(f"|f00({t})| = {abs(numeric)!r} above 1")
            if job["strong"]:
                continue
            closed = freespace.freespace_f00_closed(p, float(t))
            freespace.freespace_survival_asymptotic(p, float(t))
            worst = max(worst, abs(numeric - closed))
        if not worst <= FREESPACE_AGREEMENT:
            fails.append(f"|numeric - closed| = {worst:.3e}")
        return fails


class CliReports:
    """In-process ``cli.main`` over a fixed list of commands.

    The only workload that reaches ``cli``, ``output`` (CSV and SVG) and the
    dense entropy check of ``selftest``.  Every cycle repeats the same argv,
    so every repeat must write byte-identical files.  The default
    ``convergence`` sweep (N = 3000) is left out: too long to repeat.
    """

    name = "cli_reports"
    cycle = 7
    trace_cycles = 2

    def __init__(self, seed: int, out_dir: str | None = None):
        rng = np.random.default_rng(seed)
        g = float(rng.uniform(0.2, 0.9))
        delta = float(rng.uniform(0.02, 0.3))
        commands = [
            ["spectrum", "--dump-matrix", "--n-modes", "300"],
            ["evolve", "--g", repr(g), "--delta", repr(delta)],
            ["evolve", "--mode", "free_space_closed", "--t-max", "20", "--t-steps", "201"],
            ["figure1"],
            ["figure2"],
            ["convergence", "--n-sweep", "100,300,1000"],
            ["selftest"],
        ]
        self.jobs = [dict(slot=i, argv=argv) for i, argv in enumerate(commands)]
        self.out_dir = out_dir
        self.digests: dict[int, str] = {}

    def label(self, job) -> str:
        return job["argv"][0]

    def run(self, job) -> list[str]:
        argv = job["argv"]
        out = os.path.join(self.out_dir, f"cmd{job['slot']}")
        os.makedirs(out, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        if code != 0:
            return [f"{' '.join(argv)}: exit code {code}"]
        digest = _digest_dir(out)
        if digest != self.digests.setdefault(job["slot"], digest):
            return [f"{' '.join(argv)}: output differs from its first run"]
        return []


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


WORKLOADS = {
    cls.name: cls for cls in (CavityBuild, FreespaceSeries, CliReports)
}


def make_workload(name: str, seed: int, out_dir: str):
    cls = WORKLOADS[name]
    return cls(seed, out_dir) if cls is CliReports else cls(seed)
