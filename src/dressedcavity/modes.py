"""Orthonormal transformation between bare oscillators and normal modes.

Rows are indexed by the bare degrees of freedom (row 0 is the atom, rows
1..N the field modes), columns by the normal modes r = 0..N, the solved
roots of a ``spectrum.Spectrum``; the first-order small-cavity atom row,
:func:`small_cavity_elements`, pairs with the plain frequency array of
``spectrum.approx_spectrum_small_cavity`` instead.  The closed
expressions for the entries are exact only in the untruncated theory; at
finite N the assembled columns come out short of unit norm by O(1/N) and
acquire O(1/N) mutual overlaps.  :func:`build_matrix` therefore rescales
every column to unit norm and then applies a symmetric (Loewdin)
orthogonalization, which is the minimal-change correction restoring the
exact orthonormality the evolution stage relies on.  The Loewdin factor
X (X^T X)^(-1/2) is the orthogonal polar factor of the rescaled matrix X;
it is computed by the Newton-Schulz iteration X <- X (I - E/2) with
E = X^T X - I, finished by one third-order step X <- X (I - E/2 + 3E^2/8).
Both use matrix products only; from the small defects of an adequate
truncation one step of each reaches roundoff, whatever the coupling and
the mode spacing, so the cost depends on N alone.  The tests hold the
result to the eigendecomposition form of the same factor within 1e-12
per entry.  The raw truncation defects are preserved on the result
as diagnostics.

The survival needs only the atom row T[0, :] = (X^T X)^(-1/2) X[0, :].
:func:`atom_row` gets it by Lanczos matrix-vector products on the same
rescaled X, O(N^2) per step and no (N+1)^2 array beyond X, and agrees
with ``build_matrix(...).entries[0]`` to 1e-14 for delta <= 3 and to
1e-12 over the tested grid.

The raw truncation defects need no matrix at all.  With a_r the atom
entry of column r, x_r = Omega_r^2 and S(x) = sum_k omega_k^2/(omega_k^2 - x),
partial fractions over k give the Gram matrix of the raw columns as

    G_rs = a_r a_s [1 + eta^2 (S(x_r) - S(x_s))/(x_r - x_s)]   (r != s)
    G_rr = a_r^2 [1 + eta^2 S'(x_r)],  S'(x) = sum_k omega_k^2/(omega_k^2 - x)^2,

a Cauchy-like matrix (Gohberg, Kailath & Olshevsky, Math. Comp. 64
(1995)).  The differences of S are taken as differences of
S(x) - N = x sum_k 1/(omega_k^2 - x), which drops the constant N and
with it its roundoff.  :func:`raw_defects` forms S, S' and then G a block
of rows at a time: each block is O(N) memory, the whole pass O(N^2)
time, against the (N+1)^2 arrays and O(N^3) products of the matrix
route.  :func:`build_matrix` keeps forming X^T X by a matrix product, as
the independent reference the tests hold the closed form to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ApproximationDomainError,
    ConsistencyError,
    NearResonanceError,
    NumericDomainError,
    ValidationError,
)
from .params import SystemParams
from .spectrum import Spectrum

#: |omega_k^2 - Omega_r^2| below this multiple of delta_omega^2 means a
#: root landed on a bare frequency, which interlacing forbids.
_RESONANCE_FLOOR = 1e-12

#: Newton-Schulz steps allowed before the Loewdin iteration is declared
#: stuck.  Adequate truncations take 2; a Gram matrix with smallest
#: eigenvalue 1e-3 takes about 14, and one at roundoff level never ends.
_POLAR_MAX_STEPS = 50

_ROUNDOFF = float(np.finfo(float).eps)

#: rows per block of the column norms' squares
_NORM_ROWS = 32

#: rows per block of the closed-form Gram matrix in :func:`raw_defects`
_GRAM_ROWS = 32

#: successive Lanczos estimates of the atom row that agree to this many
#: ulps of its largest entry end the iteration
_LANCZOS_ULPS = 4


@dataclass(frozen=True)
class ModeMatrix:
    """(N+1) x (N+1) transformation matrix with truncation diagnostics."""

    entries: np.ndarray               # rows: atom, field 1..N; cols: modes 0..N
    raw_column_norms: np.ndarray      # column norms before any correction
    raw_orthogonality_defect: float   # max |column dot| off the diagonal, raw
    orthogonalization_shift: float    # max |entry change| due to Loewdin step


def atom_element(params: SystemParams, omega_r):
    """Atom-row entry of the transformation matrix at normal mode Omega_r.

    eta*Omega_r / sqrt((Omega_r^2-omega_bar^2)^2
                       + (eta^2/2)(3*Omega_r^2-omega_bar^2)
                       + 4 g^2 Omega_r^2)

    The radicand is positive for every Omega_r > 0 of a valid parameter
    set; a non-positive value signals a corrupted input and raises
    :class:`NumericDomainError`.
    """
    omega_r = np.asarray(omega_r, dtype=float)
    eta2 = params.eta**2
    w2 = params.omega_bar**2
    o2 = omega_r**2
    radicand = (o2 - w2) ** 2 + 0.5 * eta2 * (3.0 * o2 - w2) + 4.0 * params.g**2 * o2
    if np.any(radicand <= 0.0):
        raise NumericDomainError("non-positive radicand in atom element")
    value = params.eta * omega_r / np.sqrt(radicand)
    return value if value.ndim else float(value)


def assemble_raw_matrix(params: SystemParams, spectrum: Spectrum) -> np.ndarray:
    """Matrix of closed-form entries with no normalization applied.

    Row 0 is :func:`atom_element`; field row k (k = 1..N) is
    eta*omega_k/(omega_k^2 - Omega_r^2) times it.  Interlacing keeps
    omega_k^2 - Omega_r^2 bounded away from zero, so a near-zero
    denominator means a root that violates interlacing and raises
    :class:`NearResonanceError`.  The field rows are filled in place and
    no other (N+1)^2 array is formed: the resonance check reads each
    root's distance at its nearest bare frequencies only
    (:func:`_nearest_resonance`).
    """
    _check_columns(params, spectrum)
    omegas = spectrum.omegas
    atom_row = atom_element(params, omegas)
    omega_k = params.field_frequencies()
    field_sq, roots_sq = omega_k**2, omegas**2
    t = np.empty((params.n_modes + 1, params.n_modes + 1))
    t[0, :] = atom_row
    field = t[1:]
    np.subtract.outer(field_sq, roots_sq, out=field)
    np.divide((params.eta * omega_k)[:, None], field, out=field)
    field *= atom_row
    return t


def _check_columns(params: SystemParams, spectrum: Spectrum) -> None:
    """Refuse a spectrum of other parameters, or a root on a bare frequency.

    The preconditions of the closed-form columns: a spectrum whose size
    differs from ``params`` raises :class:`ConsistencyError`, and a root
    within the resonance floor of a bare frequency (interlacing forbids
    it) raises :class:`NearResonanceError`.
    """
    if spectrum.n_modes != params.n_modes:
        raise ConsistencyError(
            f"spectrum has {spectrum.n_modes} field modes, params expect "
            f"{params.n_modes}"
        )
    if _nearest_resonance(params.field_frequencies() ** 2, spectrum.omegas**2) < (
        _RESONANCE_FLOOR * params.delta_omega**2
    ):
        raise NearResonanceError(
            "normal mode coincides with a bare field frequency"
        )


def _check_increasing(spectrum: Spectrum) -> None:
    """Refuse equal or unordered roots, which give identical columns."""
    if not np.all(np.diff(spectrum.omegas) > 0.0):
        raise NumericDomainError(
            "roots must increase strictly: equal roots give identical columns"
        )


def _nearest_resonance(field_sq: np.ndarray, roots_sq: np.ndarray) -> float:
    """min over k, r of |field_sq[k] - roots_sq[r]| for increasing ``field_sq``.

    The rounded difference never decreases as field_sq[k] grows, so for
    each root the minimum over k sits at one of the two bare frequencies
    that bracket it: the same value as the minimum over the whole
    (N x (N+1)) table, from O(N log N) work.  A NaN root gives NaN, as
    it does in the table.
    """
    i = np.searchsorted(field_sq, roots_sq)
    below = np.abs(field_sq[np.maximum(i - 1, 0)] - roots_sq).min()
    above = np.abs(field_sq[np.minimum(i, field_sq.size - 1)] - roots_sq).min()
    return float(min(below, above))


def _column_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=0)`` to the bit, without an (N+1)^2 temporary.

    That norm adds the squares of each column in row order.  Here they are
    added ``_NORM_ROWS`` rows at a time, with the running sums carried in
    as the first row of each block, so the additions and their order are
    the same; contiguous rows also make it faster than the unblocked form.
    """
    squares = np.empty((_NORM_ROWS + 1, x.shape[1]))
    sums = np.zeros(x.shape[1])
    for start in range(0, x.shape[0], _NORM_ROWS):
        block = x[start : start + _NORM_ROWS]
        squares[0] = sums
        np.multiply(block, block, out=squares[1 : block.shape[0] + 1])
        np.add.reduce(squares[: block.shape[0] + 1], axis=0, out=sums)
    return np.sqrt(sums)


def _rescaled_matrix(
    params: SystemParams, spectrum: Spectrum
) -> tuple[np.ndarray, np.ndarray]:
    """Raw matrix with every column scaled to unit norm, and the raw norms."""
    rescaled = assemble_raw_matrix(params, spectrum)
    raw_norms = _column_norms(rescaled)
    rescaled /= raw_norms
    return rescaled, raw_norms


def _max_abs(a: np.ndarray) -> float:
    """max |a| without allocating an (N+1)^2 temporary."""
    return float(max(a.max(), -a.min()))


def _polar_factor(x: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor of ``x`` by Newton-Schulz steps.

    ``defect`` holds E = x^T x - I on entry and is overwritten: each step
    turns it into P in place and forms x P.  A second-order step,
    P = I - E/2, maps every eigenvalue e of E to -(3/4) e^2 (1 - e/3).
    The last step is of third order, P = I - E/2 + 3 E^2/8, which maps e
    to (5/8) e^3 (1 - 3e/8 + 9e^2/40); it is taken once the bound
    (5/8) e^3 (1 + 3e/8 + 9e^2/40) at e = ||E||_F falls below roundoff,
    and needs no further Gram product.
    It always follows at least one second-order step, so that every
    ||E||_F up to 3e-3 takes the same two steps: the cost does not depend
    on where the defect of an adequate truncation falls.
    """
    stride = defect.shape[0] + 1  # flat stride of the diagonal
    previous = np.inf
    for step in range(_POLAR_MAX_STEPS):
        e = float(np.linalg.norm(defect))
        if step and 0.625 * e**3 * (1.0 + 0.375 * e + 0.225 * e * e) < _ROUNDOFF:
            square = defect.T @ defect  # E^2, as E is symmetric
            square *= 0.375
            defect *= -0.5
            defect += square
            del square
            defect.flat[::stride] += 1.0
            return x @ defect
        if not e < previous:
            raise NumericDomainError(
                f"Loewdin iteration stopped converging at ||X^T X - I||_F = "
                f"{e:.3e}; the columns are (nearly) linearly dependent"
            )
        previous = e
        defect *= -0.5
        defect.flat[::stride] += 1.0
        x = x @ defect
        np.matmul(x.T, x, out=defect)
        defect.flat[::stride] -= 1.0
    raise NumericDomainError(
        f"Loewdin iteration did not converge in {_POLAR_MAX_STEPS} steps "
        f"(||X^T X - I||_F = {previous:.3e})"
    )


def build_matrix(params: SystemParams, spectrum: Spectrum) -> ModeMatrix:
    """Assemble, renormalize and orthogonalize the transformation matrix.

    Requires the solved spectrum of the same parameters.  Column
    rescaling restores the normalization sum over bare oscillators
    exactly; the Loewdin step then removes the residual O(1/N) column
    overlaps so that the propagated amplitudes conserve probability to
    machine precision at any truncation.  The Loewdin factor comes from
    the Newton-Schulz polar iteration, GEMM only, in two steps for an
    adequate truncation, and agrees with its
    eigendecomposition form to 1e-12 per entry.  Columns that are
    (nearly) linearly dependent make the iteration stall or run past its
    step cap, which raises :class:`NumericDomainError`.  Both raw defects
    are recorded unchanged on the result, and the sign convention
    (positive atom row) is preserved.
    """
    rescaled, raw_norms = _rescaled_matrix(params, spectrum)

    # the Gram matrix G becomes E = G - I in place, after its off-diagonal
    # maximum is taken with the diagonal zeroed
    defect = rescaled.T @ rescaled
    gram_diagonal = defect.diagonal().copy()
    np.fill_diagonal(defect, 0.0)
    raw_offdiag = _max_abs(defect)
    np.fill_diagonal(defect, gram_diagonal - 1.0)

    # symmetric orthogonalization: T <- T (T^T T)^(-1/2)
    entries = _polar_factor(rescaled, defect)
    shift = _max_abs(np.subtract(entries, rescaled, out=defect))

    flip = entries[0, :] < 0.0
    if np.any(flip):  # Loewdin preserves signs in practice; keep it guaranteed
        entries[:, flip] *= -1.0
    if np.any(entries[0, :] <= 0.0):
        raise NumericDomainError("atom-row sign convention could not be enforced")

    return ModeMatrix(
        entries=entries,
        raw_column_norms=raw_norms,
        raw_orthogonality_defect=raw_offdiag,
        orthogonalization_shift=shift,
    )


def atom_row(params: SystemParams, spectrum: Spectrum) -> np.ndarray:
    """Atom row of :func:`build_matrix` without forming the (N+1)^2 factor.

    With X the column-rescaled matrix and u = X[0, :], the Loewdin row is
    T[0, :] = (X^T X)^(-1/2) u, a matrix function times a vector.  The
    Lanczos method on G = X^T X started from u, with full
    reorthogonalization, gives it as |u| Q_m V theta^(-1/2) V^T e_1 from the
    Ritz pairs (theta, V) of the m-step tridiagonal and the basis Q_m.  G is
    applied as X^T (X q), O(N^2) per step and no (N+1)^2 array beyond X.
    It stops once successive estimates agree to ``_LANCZOS_ULPS`` ulps of
    their largest entry or the Krylov space is exhausted, at most N+1
    steps; the tested grid takes 3-8 for delta <= 3 and up to 27 at
    delta = 1000.  A Krylov space started from u
    cannot see the null vector of two identical columns, so equal or
    non-increasing roots are refused up front; those and a non-positive
    Ritz value raise :class:`NumericDomainError`.  The signs follow the
    positive atom-row convention of :func:`build_matrix`.
    """
    _check_increasing(spectrum)
    x, _ = _rescaled_matrix(params, spectrum)
    n = x.shape[0]
    norm_u = float(np.linalg.norm(x[0]))
    basis = np.empty((min(n, 32), n))  # rows q_1..q_m, doubled when full
    basis[0] = x[0] / norm_u
    alphas: list[float] = []
    betas: list[float] = []
    previous = None
    for m in range(1, n + 1):
        q = basis[m - 1]
        w = x.T @ (x @ q)
        alphas.append(float(q @ w))
        active = basis[:m]
        for _ in range(2):  # full reorthogonalization, twice is enough
            w -= active.T @ (active @ w)
        beta = float(np.linalg.norm(w))
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        theta, v = np.linalg.eigh(tridiagonal)
        if theta[0] <= 0.0:
            raise NumericDomainError(
                f"non-positive Ritz value {theta[0]:.3e} of X^T X: the columns "
                "are (nearly) linearly dependent"
            )
        row = norm_u * (active.T @ (v @ (v[0] / np.sqrt(theta))))
        settled = previous is not None and _max_abs(row - previous) <= (
            _LANCZOS_ULPS * _ROUNDOFF * _max_abs(row)
        )
        if settled or beta <= _ROUNDOFF * theta[-1] or m == n:
            break
        previous = row
        betas.append(beta)
        if m == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(m, n - m), n))])
        basis[m] = w / beta

    row = np.abs(row)  # the column flips of build_matrix
    if np.any(row <= 0.0):
        raise NumericDomainError("atom-row sign convention could not be enforced")
    return row


@dataclass(frozen=True)
class RawDefects:
    """Truncation defects of the closed-form columns before any repair."""

    column_norm: float     # max_r |1 - n_r^2|, n_r the raw column norm
    orthogonality: float   # max |column dot| off the diagonal, rescaled
    unitarity: float       # max_t |1 - sum_nu |f_0_nu(t)|^2|, rescaled


def raw_defects(params: SystemParams, spectrum: Spectrum, times) -> RawDefects:
    """The three raw truncation defects from the closed-form Gram matrix.

    ``column_norm`` is max |1 - n_r^2| over ``build_matrix``'s
    ``raw_column_norms``, ``orthogonality`` its
    ``raw_orthogonality_defect``, and ``unitarity`` the largest
    |1 - sum_nu |f_0_nu(t)|^2| over ``times`` with the column-rescaled,
    unrepaired matrix X.  With c the rescaled atom row and
    w_t = c * exp(-i Omega t), that sum is w_t^H G w_t for the Gram
    matrix G = X^T X of the module docstring, which is taken here
    ``_GRAM_ROWS`` rows at a time and never as an (N+1)^2 array: O(N^2)
    time, O(N) memory.  The preconditions are those of
    :func:`assemble_raw_matrix`, and roots that do not increase strictly
    raise :class:`NumericDomainError` as in :func:`atom_row`.  An empty grid
    and a t that is not finite are refused first.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValidationError("times must hold at least one time")
    if not np.isfinite(times).all():
        raise ApproximationDomainError("t must be finite")
    _check_columns(params, spectrum)
    _check_increasing(spectrum)
    atom = atom_element(params, spectrum.omegas)
    field_sq, roots_sq = params.field_frequencies() ** 2, spectrum.omegas**2
    eta2 = params.eta**2

    # S_r - N = x_r sum_k 1/(omega_k^2 - x_r) and S'_r, row block by row block
    shifted = np.empty(roots_sq.size)
    slope = np.empty(roots_sq.size)
    for start in range(0, roots_sq.size, _GRAM_ROWS):
        rows = slice(start, start + _GRAM_ROWS)
        inverse = np.subtract.outer(roots_sq[rows], field_sq)
        np.divide(1.0, inverse, out=inverse)  # 1/(x_r - omega_k^2)
        shifted[rows] = -roots_sq[rows] * inverse.sum(axis=1)
        inverse *= inverse
        slope[rows] = inverse @ field_sq
    norm_sq = atom**2 * (1.0 + eta2 * slope)
    scale = atom / np.sqrt(norm_sq)

    phases = np.multiply.outer(spectrum.omegas, times)
    w = np.concatenate([np.cos(phases), np.sin(phases)], axis=1)
    w *= scale[:, None]
    quadratic = np.zeros(w.shape[1])  # u^T G u and v^T G v of w = u - i v
    offdiag = 0.0
    for start in range(0, roots_sq.size, _GRAM_ROWS):
        rows = slice(start, start + _GRAM_ROWS)
        gram = np.subtract.outer(roots_sq[rows], roots_sq)
        local = np.arange(gram.shape[0])
        diagonal = (local, local + start)
        gram[diagonal] = 1.0  # the numerator is 0 there; set below
        np.divide(np.subtract.outer(shifted[rows], shifted), gram, out=gram)
        gram *= eta2
        gram += 1.0
        gram *= scale[rows, None]
        gram *= scale
        gram[diagonal] = 0.0
        offdiag = max(offdiag, _max_abs(gram))
        gram[diagonal] = 1.0
        quadratic += np.einsum("ij,ij->j", gram @ w, w[rows])
    sums = quadratic[: times.size] + quadratic[times.size :]

    return RawDefects(
        column_norm=float(np.abs(1.0 - norm_sq).max()),
        orthogonality=offdiag,
        unitarity=float(np.abs(1.0 - sums).max()),
    )


def small_cavity_elements(params: SystemParams) -> tuple[float, np.ndarray]:
    """First-order squared entries of the lowest normal-mode column.

    Returns ``(t00_sq, tk0_sq)`` with t00_sq = (1 + 2*pi*delta/3)^(-1) and
    tk0_sq[k-1] = (4/k^2)(delta/pi) * t00_sq for k = 1..n_modes.  The
    series over all k >= 1 sums to exactly 1 - t00_sq, so these entries
    are normalized as a family to first order.
    """
    d = params.delta
    if d >= 0.5:
        raise ApproximationDomainError(
            f"first-order elements need delta < 0.5, got {d}"
        )
    t00_sq = 1.0 / (1.0 + 2.0 * np.pi * d / 3.0)
    k = np.arange(1, params.n_modes + 1, dtype=float)
    tk0_sq = (4.0 / k**2) * (d / np.pi) * t00_sq
    return t00_sq, tk0_sq
