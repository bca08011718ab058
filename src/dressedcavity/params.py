"""Physical parameter set and derived scalars.

The model couples a harmonically approximated atom of renormalized
frequency ``omega_bar`` to the discrete scalar-field modes of a perfectly
reflecting spherical cavity.  The cavity enters through the one number
delta = g R/(pi c): the physics depends on the radius R and the wave
speed c only through R/c = pi/delta_omega = pi*delta/g.  All later stages
(spectrum, mode transform, time evolution, entanglement) consume a single
immutable :class:`SystemParams` value built by :func:`make_params`.

Units are natural (hbar = 1, c = 1), so ``radius`` is R/c.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ApproximationDomainError, ValidationError

#: Default number of retained field modes when the caller does not choose.
DEFAULT_N_MODES = 1000

#: largest phase Omega*t a time may give: from 2^52 rad on, one ulp of
#: the phase is a radian or more, and its cosine carries no digit
_PHASE_LIMIT = 2.0**52


@dataclass(frozen=True)
class SystemParams:
    """Validated physical inputs plus the derived scalars of the cavity.

    The coupling regime (g < omega_bar or not) is no field: the free-space
    closed forms, which alone depend on it, decide it in ``freespace``.
    """

    omega_bar: float    # renormalized atom frequency (rad/time)
    g: float            # atom-environment coupling (frequency units)
    radius: float       # R/c = pi/delta_omega (time, c = 1)
    n_modes: int        # field-mode truncation count N
    delta: float        # dimensionless g*R/(pi*c), equals g/delta_omega
    delta_omega: float  # bare mode spacing pi*c/R = g/delta
    eta: float          # coupling amplitude sqrt(4*g*delta_omega/pi)

    def field_frequencies(self) -> np.ndarray:
        """Bare cavity frequencies k*delta_omega for k = 1..n_modes."""
        return self.delta_omega * np.arange(1, self.n_modes + 1, dtype=float)


def _checked_times(t, rates: float | np.ndarray = 0.0) -> np.ndarray:
    """``t``, a real scalar or a real grid of one axis, as a float array of
    one axis: the one conversion of every time argument of the library.

    Any other t (complex, ``None``, a string, two axes, a ragged nest of
    sequences) raises :class:`ValidationError` before a cast to float
    could drop an imaginary part.  A t that is not finite, or whose phase
    Omega |t| passes ``_PHASE_LIMIT`` for one of the angular frequencies
    ``rates`` that the caller multiplies the times by, raises
    :class:`ApproximationDomainError`.  An empty grid passes: each caller
    decides what it means.
    """
    expected = "times must be a real scalar or a real grid of one axis"
    try:
        times = np.asarray(t)
    except ValueError:  # numpy finds no one shape for a ragged nest
        raise ValidationError(f"{expected}, got a ragged sequence") from None
    if times.dtype.kind not in "biuf" or times.ndim > 1:
        raise ValidationError(
            f"{expected}, got shape {times.shape} of dtype {times.dtype}"
        )
    times = np.array(times, dtype=float, ndmin=1)
    if np.count_nonzero(np.isfinite(times)) < times.size:
        raise ApproximationDomainError("t must be finite")
    fastest = float(np.abs(rates).max(initial=0.0))
    longest = float(np.abs(times).max(initial=0.0))
    if fastest * longest > _PHASE_LIMIT:  # python floats: inf, not a warning
        raise ApproximationDomainError(
            f"t = {longest:g} takes the phase Omega t past 2^52 rad, where "
            "one ulp of it is a radian"
        )
    return times


def _require_positive(name: str, value: float, **inputs: float) -> float:
    """``value`` as a float, refused unless finite and positive; a derived
    scalar names the ``inputs`` it is made from."""
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        source = ", ".join(f"{key} = {x!r}" for key, x in inputs.items())
        raise ValidationError(
            f"{name} must be finite and strictly positive, got {value!r}"
            + (f" from {source}" if source else "")
        )
    return value


def make_params(
    omega_bar: float,
    g: float,
    *,
    delta: float,
    n_modes: int = DEFAULT_N_MODES,
) -> SystemParams:
    """Build a validated :class:`SystemParams`.

    A cavity of radius R at wave speed c is ``delta`` = g*R/(pi*c).  Any
    g > 0 is accepted, at or above omega_bar too.

    Raises
    ------
    ValidationError
        A non-positive or non-finite input, or an ``n_modes`` that is a
        bool or not integral; the message names the field.  Also finite
        positive inputs whose omega_bar^2, g^2, delta_omega, radius or
        eta^2 overflows to inf or underflows to 0, as omega_bar = 1e155 or
        delta = 1e-320 do; the message names that scalar and its inputs.
    """
    omega_bar = _require_positive("omega_bar", omega_bar)
    g = _require_positive("g", g)
    delta = _require_positive("delta", delta)
    try:  # any integral type, np.int64 included, but not bool
        count = None if isinstance(n_modes, bool) else operator.index(n_modes)
    except TypeError:
        count = None
    if count is None or count < 1:
        raise ValidationError(f"n_modes must be an integer >= 1, got {n_modes!r}")
    # each square is a product (a float ** 2 past the float maximum raises
    # OverflowError, where a product is inf), and each scalar is checked
    # before the next one divides by it
    _require_positive("omega_bar^2", omega_bar * omega_bar, omega_bar=omega_bar)
    _require_positive("g^2", g * g, g=g)
    delta_omega = _require_positive("delta_omega", g / delta, g=g, delta=delta)
    radius = _require_positive("radius", math.pi / delta_omega, g=g, delta=delta)
    eta_sq = 4.0 * g * delta_omega / math.pi
    _require_positive("eta^2", eta_sq, g=g, delta=delta)
    return SystemParams(
        omega_bar=omega_bar,
        g=g,
        radius=radius,
        n_modes=count,
        delta=delta,
        delta_omega=delta_omega,
        eta=math.sqrt(eta_sq),
    )
