"""Orthonormal transformation between bare oscillators and normal modes.

Rows are indexed by the bare degrees of freedom (row 0 is the atom, rows
1..N the field modes), columns by the normal modes r = 0..N, the solved
roots of a ``spectrum.Spectrum``; the first-order small-cavity atom row,
:func:`small_cavity_elements`, pairs with the plain frequency array of
``spectrum.approx_spectrum_small_cavity`` instead.  The closed
expressions for the entries are exact only in the untruncated theory; at
finite N the assembled columns come out short of unit norm by O(1/N) and
acquire O(1/N) mutual overlaps.  :func:`build_matrix` therefore scales
every column to unit norm, by its closed-form norm sqrt(G_rr) (below),
and then applies a symmetric (Loewdin) orthogonalization, which is the
minimal-change correction restoring the exact orthonormality the
evolution stage relies on.  The Loewdin factor X (X^T X)^(-1/2) is the
orthogonal polar factor of the rescaled matrix X, computed by
Newton-Schulz steps with E = X^T X - I.  The step schedule:

1. The first E is the closed-form Gram (below), and the first iterate
   X (I - E_0/2) is in closed form too (below) while max |bracket| stays
   within ``_BRACKET_MAX``, else the product.
2. Every later E is the product X^T X, so the final step sees the Gram
   of the matrix it returns.  The second-order step X <- X (I - E/2)
   maps each eigenvalue e of E to -(3/4) e^2 (1 - e/3); it is final once
   (3/4) e^2 (1 + e/3) at e = ||E||_F falls below roundoff, that is for
   e <= 1.7e-8.  Else, once (5/8) e^3 (1 + 3e/8 + 9e^2/40) does, the
   ``_SPLIT_WIDTH`` orthonormal columns Q of a fixed-start subspace
   iteration (Halko, Martinsson & Tropp, SIAM Rev. 53 (2011)) split E
   into Q T Q^T, T = Q^T E Q, and R = E - Q T Q^T.  If r = ||R||_F, which
   is sqrt(e^2 - ||T||_F^2), passes the second-order bound, the final
   step is the third-order X <- X (I - E/2 + 3E^2/8) less 3R^2/8 (below
   roundoff, as r is).
3. Else, if ||E||_F has not fallen since the last step, the columns are
   (nearly) dependent and the build is refused; otherwise a second-order
   step follows, up to ``_POLAR_MAX_STEPS`` steps in all.

A final step adds its correction to X instead of forming the product:
X (-E/2), or X (-R/2) after the split, in float32, and the rest of the
deflated step, X Q and X R Q times a 16-row factor, in float64.  float32
touches only a remainder of Frobenius norm <= 1.7e-8, so its relative
6e-8 leaves about 1e-15 per entry (the mixed-precision refinement of
Higham & Mary, Acta Numer. 31 (2022)); every other step stays float64.
So every ||E_0||_F up to 3e-3 takes two steps, and each adequate build
costs one float64 Gram product and one float32 step product, which runs
about twice as fast as a float64 one.  The deflated finish adds three
thin products E Q (N x 8) and O(N^2) passes.  Each step before the final
one costs a Gram and a float64 step product.  The tests hold the result
to the eigendecomposition form of the same factor within 1e-12 per
entry, and to the all-float64 final step within 5e-15.  The build holds
two (N+1)^2 arrays (the iterate, and E) and one ``_PRODUCT_ROWS``-row
block at any step count: every step product is written over the iterate
a row block at a time, the float32 E (or R) is cast into the first half
of E's own buffer, the deflation's thin arrays live in the block, and X
is rebuilt in row blocks for the shift.  Under tracemalloc the peak at
N = 3000 is 2.186 (N+1)^2 arrays (150 MiB), 2.178 when the first iterate
is a product.  The raw truncation defects are kept on the result as
diagnostics.

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
route.  The same G_rr are the only raw column norms computed (within
1e-14 relative of the assembled columns' norms in the tests):
:func:`build_matrix` and :func:`atom_row` assemble X once, from the scaled
atom row u = a/sqrt(G_rr).  :func:`build_matrix` takes its first E from
the same blocks, and every later one from a product, which the tests hold
the closed form to.

The first Newton-Schulz iterate X_1 = X (I - E_0/2) is Cauchy-like too.
With u = X[0, :], w = u^2, y_k = omega_k^2, and field entries
X[k, r] = eta omega_k u_r/(y_k - x_r), the sum over s of
X[k, s] (E_0)_sr splits by

    1/((y - x_s)(x_s - x)) = [1/(y - x_s) + 1/(x_s - x)]/(y - x)

into O(N) sums: bracket_r = sum_{s != r} w_s G_rs/(a_r a_s), which is
(E_0 u)_r/u_r, A_k = sum_s w_s/(y_k - x_s) and B_k = sum_s w_s S_s/(y_k - x_s),
with S = S(x) - N.  Then

    X_1[0, r] = u_r (1 - bracket_r/2)
    X_1[k, r] = X[k, r] [1 - (bracket_r - sum w)/2 - (eta^2/2)(B_k - S_r A_k)]
                - eta omega_k u_r A_k/2,

and eta omega_k A_k, eta omega_k B_k are the products of X's field rows
with u and u S.  This costs O(N^2) against the O(N^3) product X (I - E_0/2).
Its roundoff grows like eps max_r |bracket_r|, which stays below 0.02 on
adequate truncations but reaches 1e6 at weak coupling with a mode cutoff
below omega_bar; past ``_BRACKET_MAX`` the product is taken instead.
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
from .params import SystemParams, _checked_times
from .spectrum import Spectrum, check_interlacing, newton_residuals

#: |omega_k^2 - Omega_r^2| below this multiple of delta_omega^2 means a
#: root landed on a bare frequency, which interlacing forbids.
_RESONANCE_FLOOR = 1e-12

#: largest Newton residual |F/F'| under ``params``, in units of delta_omega,
#: of roots taken for theirs.  Solved roots read at most 6e-13 (N up to 3000,
#: g 0.05-10, delta 1e-3-1000) and roots of a nearby (g, delta) with the
#: same spacing 1e-2 (N = 300, (0.6, 0.12) against (0.5, 0.1)).
_RESIDUAL_BOUND = 1e-8

#: Newton-Schulz steps allowed before the Loewdin iteration is declared
#: stuck.  Adequate truncations take 2; a Gram matrix with smallest
#: eigenvalue 1e-3 takes about 14, and one at roundoff level never ends.
_POLAR_MAX_STEPS = 50

_ROUNDOFF = float(np.finfo(float).eps)

#: rows per block of the O(N^2) passes: the closed-form sums and Gram
#: matrix, the first iterate and the shift's rebuilt X
_BLOCK_ROWS = 32

#: rows per block of the Newton-Schulz step products, written over the iterate
_PRODUCT_ROWS = 512

#: width and sweeps of the subspace iteration that splits the largest
#: eigenvalues of E off before a third-order final step (:func:`_split`)
_SPLIT_WIDTH = 8
_SPLIT_SWEEPS = 2

#: largest max_r |bracket_r| at which the first iterate is taken in closed
#: form (:func:`_first_iterate`): its roundoff grows like eps times that
#: bracket, and the tests hold it within 4e-15 of the product up to here
_BRACKET_MAX = 4.0

#: successive Lanczos estimates of the atom row that agree to this many
#: ulps of its largest entry end the iteration
_LANCZOS_ULPS = 4


@dataclass(frozen=True)
class ModeMatrix:
    """(N+1) x (N+1) transformation matrix with truncation diagnostics."""

    entries: np.ndarray               # rows: atom, field 1..N; cols: modes 0..N
    raw_column_norms: np.ndarray      # closed-form raw column norms sqrt(G_rr)
    raw_orthogonality_defect: float   # max |column dot| off the diagonal, raw
    orthogonalization_shift: float    # max |entry change| due to Loewdin step
    newton_schulz_steps: int          # Loewdin steps taken, the final one included
    final_step_order: int             # 2 or 3 (deflated), the final step's order
    first_iterate_closed_form: bool   # X (I - E_0/2) entrywise, not a product


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
    omega_k^2 - Omega_r^2 bounded away from zero, and roots that do not
    interlace, or are not the solved roots of ``params``, are refused
    (:func:`_check_columns`).  The field rows are
    filled in place and no other (N+1)^2 array is formed: the resonance
    check reads each root's distance at its nearest bare frequencies only
    (:func:`_nearest_resonance`).
    """
    _check_columns(params, spectrum)
    return _assemble(params, spectrum, atom_element(params, spectrum.omegas))


def _assemble(params: SystemParams, spectrum: Spectrum, atom_row) -> np.ndarray:
    """The matrix with row 0 ``atom_row`` and the field rows of
    :func:`_field_rows` on it, filled in place."""
    t = _square(params)
    t[0, :] = atom_row
    _field_rows(params, params.field_frequencies(), spectrum.omegas, t[0], t[1:])
    return t


def _square(params: SystemParams) -> np.ndarray:
    """An empty (N+1)^2 float array: the one allocation of that size here.
    Where it does not fit, :class:`ValidationError` names n_modes and the
    bytes of the array, in place of numpy's ``MemoryError``."""
    size = params.n_modes + 1
    try:
        return np.empty((size, size))
    except MemoryError:
        raise ValidationError(
            f"n_modes = {params.n_modes} needs (n_modes + 1)^2 arrays of "
            f"{8 * size * size} bytes each, more than this process can allocate"
        ) from None


def _field_rows(params: SystemParams, omega_k, omegas, atom_row, out) -> np.ndarray:
    """Raw field rows of the given omega_k into ``out``, elementwise: any
    block of rows has the bits of the same rows of the whole matrix."""
    np.subtract.outer(omega_k**2, omegas**2, out=out)
    np.divide((params.eta * omega_k)[:, None], out, out=out)
    out *= atom_row
    return out


def _check_columns(params: SystemParams, spectrum: Spectrum) -> None:
    """Refuse roots that are not the solved spectrum of ``params``: the one
    check of a root set for the closed-form columns.

    A spectrum of another size raises :class:`ConsistencyError`, a root
    within the resonance floor of a bare frequency
    :class:`NearResonanceError`, and any other root outside its branch
    (``spectrum.check_interlacing``) :class:`NumericDomainError`, so no
    two roots, or columns, are equal.  Roots that interlace but whose
    Newton residual under ``params`` (``spectrum.newton_residuals``, not
    the stored ones) passes ``_RESIDUAL_BOUND`` delta_omega raise
    :class:`ConsistencyError`: those of other parameters with the same
    spacing are refused.
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
    if not check_interlacing(params, spectrum):
        raise NumericDomainError(
            "roots must interlace with the bare frequencies, one per branch"
        )
    residual = float(newton_residuals(params, spectrum.omegas).max())
    if not residual <= _RESIDUAL_BOUND * params.delta_omega:
        raise ConsistencyError(
            f"roots are not the spectrum of these params: Newton residual "
            f"{residual:.3e} exceeds {_RESIDUAL_BOUND:g} delta_omega"
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


def _rescaled_matrix(params: SystemParams, spectrum: Spectrum):
    """X, the raw matrix with every column scaled to unit norm, with the raw
    column norms and the ``shifted`` sums and ``gram_rows`` of
    :func:`_closed_gram`, whose checks are the only ones made.

    The norms are the closed-form sqrt(G_rr), and X is assembled once from
    the scaled atom row u = a/sqrt(G_rr), so its field rows are written
    already scaled and X[0] is u to the bit.
    """
    atom, norm_sq, shifted, gram_rows = _closed_gram(params, spectrum)
    raw_norms = np.sqrt(norm_sq)
    return _assemble(params, spectrum, atom / raw_norms), raw_norms, shifted, gram_rows


def _max_abs(a: np.ndarray) -> float:
    """max |a| without allocating an (N+1)^2 temporary."""
    return float(max(a.max(), -a.min()))


def _closed_gram(params: SystemParams, spectrum: Spectrum):
    """The atom row a, the raw column norms' squares G_rr, the sums S - N
    and ``gram_rows``.

    ``gram_rows(scale, out=None)`` yields ``(rows, diagonal, block)``: each
    ``_BLOCK_ROWS`` rows of scale_r scale_s G_rs / (a_r a_s) (module
    docstring), into those rows of ``out`` if given, with the block's
    ``diagonal`` set to 0.  Refuses what :func:`raw_defects` refuses.
    """
    _check_columns(params, spectrum)
    atom = atom_element(params, spectrum.omegas)
    field_sq, roots_sq = params.field_frequencies() ** 2, spectrum.omegas**2
    eta2 = params.eta**2

    # S_r - N = x_r sum_k 1/(omega_k^2 - x_r) and S'_r, row block by row block
    shifted = np.empty(roots_sq.size)
    slope = np.empty(roots_sq.size)
    for start in range(0, roots_sq.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        inverse = np.subtract.outer(roots_sq[rows], field_sq)
        np.divide(1.0, inverse, out=inverse)  # 1/(x_r - omega_k^2)
        shifted[rows] = -roots_sq[rows] * inverse.sum(axis=1)
        inverse *= inverse
        slope[rows] = inverse @ field_sq

    def gram_rows(scale, out=None):
        for start in range(0, roots_sq.size, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
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

    return atom, atom**2 * (1.0 + eta2 * slope), shifted, gram_rows


def _first_defect(gram_rows, u, out):
    """E_0 of the rescaled X into ``out``, with max |E_0|, ||E_0||_F and the
    bracket of :func:`_first_iterate`, (E_0 u)_r / u_r, from its blocks."""
    largest, squares, bracket = 0.0, 0.0, np.empty(u.size)
    for rows, _, block in gram_rows(u, out):
        largest = max(largest, _max_abs(block))
        squares += float(np.vdot(block, block))
        np.matmul(block, u, out=bracket[rows])
    bracket /= u
    return largest, np.sqrt(squares), bracket


def _first_iterate(params: SystemParams, x: np.ndarray, shifted, bracket) -> None:
    """x <- X_1 = X (I - E_0/2) in place for the rescaled X in ``x``.

    With u = X[0, :], S the ``shifted`` sums of :func:`_closed_gram`,
    alpha = X[1:] u and beta = X[1:] (u S) (one product, N x 2),
    X_1[0, r] = u_r (1 - bracket_r/2) and
    X_1[k, r] = X[k, r] [1 - (bracket_r - u.u)/2 - (eta/(2 omega_k))
    (beta_k - S_r alpha_k)] - u_r alpha_k/2 (module docstring): O(N^2) time,
    ``_BLOCK_ROWS`` rows at a time.
    """
    u = x[0].copy()
    field = x[1:]
    alpha, beta = (field @ np.stack([u, u * shifted], axis=1)).T
    ratio = 0.5 * params.eta / params.field_frequencies()  # (eta^2/2)/(eta omega_k)
    constant = 1.0 - 0.5 * (bracket - u @ u)
    x[0] *= 1.0 - 0.5 * bracket
    scratch = np.empty((_BLOCK_ROWS, x.shape[1]))
    for start in range(0, field.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        factor = np.multiply.outer(
            (ratio * alpha)[rows], shifted, out=scratch[: field[rows].shape[0]]
        )
        factor += constant
        factor -= (ratio * beta)[rows, None]
        field[rows] *= factor
        field[rows] -= np.multiply.outer(0.5 * alpha[rows], u, out=factor)


def _second_order_in_place(x: np.ndarray, e: np.ndarray, block: np.ndarray) -> None:
    """x <- x (I - E/2) in place: P = I - E/2 is formed in E's buffer, and
    x P written over x as many rows at a time as ``block`` holds."""
    e *= -0.5
    e.flat[:: e.shape[0] + 1] += 1.0
    for start in range(0, x.shape[0], block.shape[0]):
        rows = x[start : start + block.shape[0]]
        product = block[: rows.shape[0]]
        np.matmul(rows, e, out=product)
        rows[...] = product


def _second_order_final(e: float) -> bool:
    """Whether (3/4) e^2 (1 + e/3), the second-order step's bound on the
    Gram defect it leaves at ||E||_F = e, is below roundoff."""
    return 0.75 * e * e * (1.0 + e / 3.0) < _ROUNDOFF


def _start_block(out: np.ndarray) -> None:
    """Fixed pseudo-random entries in [-1/2, 1/2) into the contiguous ``out``:
    the SplitMix64 hash of each entry's index (Steele, Lea & Flood, OOPSLA
    2014), the same bits on every machine and without ``numpy.random``."""
    z = np.arange(1, out.size + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    np.multiply(z, 2.0**-53, out=out.reshape(-1))
    out -= 0.5


def _split(e: np.ndarray, block: np.ndarray) -> np.ndarray:
    """T = Q^T E Q for the orthonormal Q of a fixed-start subspace iteration
    on E, with the rows Q^T and (R Q)^T, R = E - Q T Q^T, as the first
    2 ``_SPLIT_WIDTH`` rows of the last half of ``block``.

    ``_SPLIT_SWEEPS`` products E Q, each orthonormalized by ``np.linalg.qr``,
    then one more for E Q, whence T and R Q = E Q - Q T: E is read
    ``_SPLIT_SWEEPS`` + 1 times.  Q^T R Q = 0, so ||R||_F^2 is
    ||E||_F^2 - ||T||_F^2.
    """
    width = min(_SPLIT_WIDTH, e.shape[0])
    thin = block[block.shape[0] // 2 :]
    q, rq, eq = thin[:width], thin[width : 2 * width], thin[2 * width : 3 * width]
    _start_block(q)
    for _ in range(_SPLIT_SWEEPS):
        np.matmul(q, e, out=eq)
        q[...] = np.linalg.qr(eq.T)[0].T
    np.matmul(q, e, out=rq)
    t = rq @ q.T
    t += t.T
    t *= 0.5
    rq -= np.matmul(t, q, out=eq)
    return t


def _final_in_place(x: np.ndarray, e: np.ndarray, block: np.ndarray, t) -> None:
    """The final step written over x: x + f32(x) f32(-E/2) or, with the
    ``t`` of :func:`_split`, the deflated third-order step
    x + f32(x) f32(-R/2) + [x Q, x R Q] F, where the 16-row F is
    [T (-Q^T/2 + 3(T Q^T + (R Q)^T)/8); (3/8) T Q^T] and the sum is
    x (I - E/2 + 3(E^2 - R^2)/8); F and x Q, x R Q are float64.

    f32(-E/2), or f32(-R/2), is cast into the first half of E's own buffer
    a row block at a time, staged in the first half of ``block``.  Then
    each row block of x takes that half for its float32 copy and product,
    and after them for its float64 correction.  The last half holds Q^T,
    (R Q)^T, F and [x Q, x R Q].
    """
    n = x.shape[0]
    half = block.shape[0] // 2
    stage = block[:half]
    low = e.reshape(-1).view(np.float32)[: n * n].reshape(n, n)
    if t is not None:
        width = t.shape[0]
        thin = block[half:]
        basis = thin[: 2 * width]
        q, rq = basis[:width], basis[width:]
        right, spare = thin[2 * width : 4 * width], thin[4 * width :]
        tq = np.matmul(t, q, out=right[width:])
    for start in range(0, n, half):
        rows = slice(start, start + half)
        staged = stage[: e[rows].shape[0]]
        if t is None:
            np.multiply(e[rows], -0.5, out=staged)
        else:
            np.matmul(q[:, rows].T, tq, out=staged)
            np.subtract(e[rows], staged, out=staged)
            staged *= -0.5
        low[rows] = staged  # over rows of E before ``rows``, all read

    if t is not None:
        inner = np.add(tq, rq, out=spare[:width])
        inner *= 0.75
        inner -= q
        np.matmul(0.5 * t, inner, out=right[:width])
        tq *= 0.375
        left = spare.reshape(-1)[: 2 * width * min(half, n)]  # over inner, now used
        left = left.reshape(-1, 2 * width)
    single = stage.reshape(-1).view(np.float32)
    for start in range(0, n, half):
        rows = x[start : start + half]
        count = rows.size
        if t is not None:
            np.matmul(rows, basis.T, out=left[: len(rows)])
        copy = single[:count].reshape(rows.shape)
        copy[...] = rows
        product = single[count : 2 * count].reshape(rows.shape)
        np.matmul(copy, low, out=product)
        rows += product
        if t is not None:
            correction = stage[: len(rows)]
            np.matmul(left[: len(rows)], right, out=correction)
            rows += correction


def _polar_factor(params: SystemParams, spectrum: Spectrum):
    """Orthogonal polar factor of the rescaled matrix X by the Newton-Schulz
    schedule of the module docstring, with X's atom row u, the raw column
    norms it is scaled by, its largest off-diagonal Gram entry, the step
    count, the final step's order and whether the first iterate was closed
    form.

    X is made here, not passed in (an argument stays alive until the call
    returns), scaled by the closed-form norms that also give E_0, and every
    step writes over it.  The iterate x, E and one ``_PRODUCT_ROWS``-row
    block are held.  An adequate build costs one Gram product and one
    float32 step product (:func:`_final_in_place`); float32 touches only a
    remainder of norm <= 1.7e-8.
    """
    x, raw_norms, shifted, gram_rows = _rescaled_matrix(params, spectrum)
    u = x[0].copy()
    defect = _square(params)
    raw_offdiag, previous, bracket = _first_defect(gram_rows, u, defect)
    closed = bool(_max_abs(bracket) <= _BRACKET_MAX)
    block = np.empty((_PRODUCT_ROWS, x.shape[1]))
    if closed:
        _first_iterate(params, x, shifted, bracket)
    else:
        _second_order_in_place(x, defect, block)
    for steps in range(2, _POLAR_MAX_STEPS + 1):
        np.matmul(x.T, x, out=defect)
        defect.flat[:: defect.shape[0] + 1] -= 1.0
        e = float(np.linalg.norm(defect))
        if _second_order_final(e):
            _final_in_place(x, defect, block, None)
            return x, u, raw_norms, raw_offdiag, steps, 2, closed
        if 0.625 * e**3 * (1.0 + 0.375 * e + 0.225 * e * e) < _ROUNDOFF:
            # ||T||_2 <= ||E||_2 <= e: Q T Q^T passes the third-order bound too
            t = _split(defect, block)
            if _second_order_final(np.sqrt(max(e * e - np.vdot(t, t), 0.0))):
                _final_in_place(x, defect, block, t)
                return x, u, raw_norms, raw_offdiag, steps, 3, closed
        if not e < previous:
            raise NumericDomainError(
                f"Loewdin iteration stopped converging at ||X^T X - I||_F = "
                f"{e:.3e}; the columns are (nearly) linearly dependent"
            )
        previous = e
        _second_order_in_place(x, defect, block)
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
    the Newton-Schulz schedule of the module docstring
    (:func:`_polar_factor`) and agrees with its eigendecomposition form to
    1e-12 per entry.  An adequate truncation costs one Gram product and one
    float32 step product, which touches only a remainder of norm <= 1.7e-8;
    the result repeats to the bit.  Roots are refused as in
    :func:`assemble_raw_matrix`, and (nearly) linearly dependent columns
    raise :class:`NumericDomainError`.  The raw defects, step count, final
    order (3 for the deflated third-order finish) and how the first
    iterate was formed are recorded on the result, and the positive atom
    row is kept.  At most two (N+1)^2 arrays and one ``_PRODUCT_ROWS``-row
    block are held (a tracemalloc peak of 2.186 (N+1)^2 arrays at
    N = 3000); the shift max |T - X| rebuilds X in one O(N^2) pass,
    ``_BLOCK_ROWS`` rows at a time, to the same bits.
    """
    # symmetric orthogonalization: T <- T (T^T T)^(-1/2)
    entries, u, raw_norms, raw_offdiag, steps, order, closed = _polar_factor(
        params, spectrum
    )

    # the shift max |T - X|, with X rebuilt from u a block of rows at a time
    omegas, omega_k = spectrum.omegas, params.field_frequencies()
    shift = _max_abs(entries[0] - u)
    block = np.empty((_BLOCK_ROWS, omegas.size))
    for start in range(0, omega_k.size, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        field = entries[1:][rows]
        x = _field_rows(params, omega_k[rows], omegas, u, block[: len(field)])
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
        first_iterate_closed_form=closed,
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
    delta = 1000.  A Krylov space started from u cannot see the null
    vector of two identical columns, so roots are refused up front as in
    :func:`assemble_raw_matrix`, equal or unordered ones with
    :class:`NumericDomainError`, as is a non-positive Ritz value.  The
    signs follow the positive atom-row convention of :func:`build_matrix`.
    """
    x = _rescaled_matrix(params, spectrum)[0]
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

    ``column_norm`` is max |1 - n_r^2| and ``orthogonality`` the largest
    |off-diagonal entry| of the rescaled Gram, both with the closed-form
    norms n_r^2 = G_rr, which ``build_matrix`` rescales by too: its
    ``raw_orthogonality_defect`` is ``orthogonality`` to the bit.  Those
    norms are within 8.4e-15 relative of ``np.linalg.norm`` of the
    assembled raw columns over N 1-1000, g 0.05-3, delta 1e-3-1000.
    ``unitarity`` is the largest
    |1 - sum_nu |f_0_nu(t)|^2| over ``times`` with the column-rescaled,
    unrepaired matrix X.  With c the rescaled atom row and
    w_t = c * exp(-i Omega t), that sum is w_t^H G w_t for the Gram
    matrix G = X^T X of the module docstring, which is taken here
    ``_BLOCK_ROWS`` rows at a time and never as an (N+1)^2 array: O(N^2)
    time, O(N) memory.  Roots are refused as in
    :func:`assemble_raw_matrix`, those of other parameters with the same
    spacing included (:func:`_check_columns`), after the time argument: an
    empty grid and what ``params._checked_times`` refuses are refused first.
    """
    times = _checked_times(times, spectrum.omegas)
    if times.size == 0:
        raise ValidationError("times must hold at least one time")
    atom, norm_sq, _, gram_rows = _closed_gram(params, spectrum)
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
