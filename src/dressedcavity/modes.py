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
E = X^T X - I, whose last step is X <- X (I - E/2 + 3E^2/8) unless the
defect is already small: matrix products only, two steps for an adequate
truncation.  The tests hold the result to the eigendecomposition form of
the same factor within 1e-12 per entry.  The build holds three (N+1)^2
arrays at its peak, at any step count (X is rebuilt in row blocks for the
shift), and keeps the raw truncation defects on the result as diagnostics.

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
route.  :func:`build_matrix` takes its first E from the same blocks, and
every later one from a product, which the tests hold the closed form to.
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

#: rows per block of the column norms' squares and of the shift's rebuilt X
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
    newton_schulz_steps: int          # Loewdin steps taken, the final one included
    final_step_order: int             # 2 or 3, the order of the final step


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
    t = np.empty((params.n_modes + 1, params.n_modes + 1))
    t[0, :] = atom_element(params, spectrum.omegas)
    _field_rows(params, params.field_frequencies(), spectrum.omegas, t[0], t[1:])
    return t


def _field_rows(params: SystemParams, omega_k, omegas, atom_row, out) -> np.ndarray:
    """Raw field rows of the given omega_k into ``out``, elementwise: any
    block of rows has the bits of the same rows of the whole matrix."""
    np.subtract.outer(omega_k**2, omegas**2, out=out)
    np.divide((params.eta * omega_k)[:, None], out, out=out)
    out *= atom_row
    return out


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


def _closed_gram(params: SystemParams, spectrum: Spectrum):
    """The atom row a, the raw column norms' squares G_rr and ``gram_rows``.

    ``gram_rows(scale, out=None)`` yields ``(rows, diagonal, block)``: each
    ``_GRAM_ROWS`` rows of scale_r scale_s G_rs / (a_r a_s) (module
    docstring), into those rows of ``out`` if given, with the block's
    ``diagonal`` set to 0.  Refuses what :func:`raw_defects` refuses.
    """
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

    def gram_rows(scale, out=None):
        for start in range(0, roots_sq.size, _GRAM_ROWS):
            rows = slice(start, start + _GRAM_ROWS)
            into = None if out is None else out[rows]
            block = np.subtract.outer(roots_sq[rows], roots_sq, out=into)
            local = np.arange(block.shape[0])
            diagonal = (local, local + start)
            block[diagonal] = 1.0  # the numerator is 0 there
            np.divide(np.subtract.outer(shifted[rows], shifted), block, out=block)
            block *= eta2
            block += 1.0
            block *= scale[rows, None]
            block *= scale
            block[diagonal] = 0.0
            yield rows, diagonal, block

    return atom, atom**2 * (1.0 + eta2 * slope), gram_rows


def _polar_factor(params: SystemParams, spectrum: Spectrum):
    """Orthogonal polar factor of the rescaled matrix X by Newton-Schulz
    steps, with X's raw column norms, largest off-diagonal Gram entry, step
    count and final step's order.

    X is made here, not passed in (an argument stays alive until the call
    returns), so the first step x <- x P drops it: at any step count at
    most three (N+1)^2 arrays are held, x, E = x^T x - I (made P in place
    by each step) and x P or E^2.  The first E is the closed form
    (:func:`_closed_gram`, O(N^2), diagonal 0 as the columns have unit
    norm) and drives only the first step; every later E is the product
    x^T x, so the final step sees the Gram of the matrix it returns.
    A second-order step, P = I - E/2, maps every eigenvalue e of E to
    -(3/4) e^2 (1 - e/3) and is final once (3/4) e^2 (1 + e/3) at
    e = ||E||_F falls below roundoff; else the third-order P = I - E/2 +
    3 E^2/8 is, once (5/8) e^3 (1 + 3e/8 + 9e^2/40) does.  So every
    ||E_0||_F up to 3e-3 takes two steps: one Gram product and two step
    products, and one more for E^2 when the defect is not small.
    """
    atom, _, gram_rows = _closed_gram(params, spectrum)
    x, raw_norms = _rescaled_matrix(params, spectrum)
    defect = np.empty_like(x)
    raw_offdiag = max(_max_abs(g) for _, _, g in gram_rows(atom / raw_norms, defect))
    stride = defect.shape[0] + 1  # flat stride of the diagonal
    previous = np.inf
    for step in range(_POLAR_MAX_STEPS):
        e = float(np.linalg.norm(defect))
        second = 0.75 * e * e * (1.0 + e / 3.0) < _ROUNDOFF
        third = 0.625 * e**3 * (1.0 + 0.375 * e + 0.225 * e * e) < _ROUNDOFF
        if step and (second or third):
            if not second:
                square = defect.T @ defect  # E^2, as E is symmetric
                square *= -0.75
                defect += square
                del square
            defect *= -0.5
            defect.flat[::stride] += 1.0
            return x @ defect, raw_norms, raw_offdiag, step + 1, 2 if second else 3
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
    the Newton-Schulz polar iteration, in two steps and three O(N^3)
    products (four for a larger defect) after a closed-form first Gram for
    an adequate truncation, and agrees with its eigendecomposition form to
    1e-12 per entry.  Unordered roots, or columns that are (nearly)
    linearly dependent, raise :class:`NumericDomainError`.  The raw
    defects, step count and final order are recorded on the result, and
    the positive atom row is kept.  At most three (N+1)^2 arrays are held
    (:func:`_polar_factor`); the shift max |T - X| rebuilds X in one
    O(N^2) pass, ``_NORM_ROWS`` rows at a time, to the same bits.
    """
    # symmetric orthogonalization: T <- T (T^T T)^(-1/2)
    entries, raw_norms, raw_offdiag, steps, order = _polar_factor(params, spectrum)

    # the shift max |T - X|, with X rebuilt a block of rows at a time
    omegas, omega_k = spectrum.omegas, params.field_frequencies()
    atom_row = atom_element(params, omegas)
    shift = _max_abs(entries[0] - atom_row / raw_norms)
    block = np.empty((_NORM_ROWS, omegas.size))
    for start in range(0, omega_k.size, _NORM_ROWS):
        rows = slice(start, start + _NORM_ROWS)
        field = entries[1:][rows]
        x = _field_rows(params, omega_k[rows], omegas, atom_row, block[: len(field)])
        x /= raw_norms
        shift = max(shift, _max_abs(np.subtract(field, x, out=x)))

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
        newton_schulz_steps=steps,
        final_step_order=order,
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
    atom, norm_sq, gram_rows = _closed_gram(params, spectrum)
    scale = atom / np.sqrt(norm_sq)

    phases = np.multiply.outer(spectrum.omegas, times)
    w = np.concatenate([np.cos(phases), np.sin(phases)], axis=1)
    w *= scale[:, None]
    quadratic = np.zeros(w.shape[1])  # u^T G u and v^T G v of w = u - i v
    offdiag = 0.0
    for rows, diagonal, gram in gram_rows(scale):
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
