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
from typing import Optional

import numpy as np

from .errors import ValidationError

REGIME_WEAK = "weak"      # g < omega_bar, kappa real
REGIME_STRONG = "strong"  # g >= omega_bar, no damped-oscillation closed form

#: Default number of retained field modes when the caller does not choose.
DEFAULT_N_MODES = 1000


@dataclass(frozen=True)
class SystemParams:
    """Validated physical inputs plus every derived scalar used downstream."""

    omega_bar: float        # renormalized atom frequency (rad/time)
    g: float                # atom-environment coupling (frequency units)
    radius: float           # R/c = pi/delta_omega (time, c = 1)
    n_modes: int            # field-mode truncation count N
    delta: float            # dimensionless g*R/(pi*c), equals g/delta_omega
    delta_omega: float      # bare mode spacing pi*c/R = g/delta
    eta: float              # coupling amplitude sqrt(4*g*delta_omega/pi)
    kappa: Optional[float]  # sqrt(omega_bar^2 - g^2), defined only when weak
    regime: str             # REGIME_WEAK or REGIME_STRONG

    def field_frequencies(self) -> np.ndarray:
        """Bare cavity frequencies k*delta_omega for k = 1..n_modes."""
        return self.delta_omega * np.arange(1, self.n_modes + 1, dtype=float)


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be strictly positive, got {value!r}")
    return value


def make_params(
    omega_bar: float,
    g: float,
    *,
    delta: float,
    n_modes: int = DEFAULT_N_MODES,
) -> SystemParams:
    """Build a validated :class:`SystemParams`.

    A cavity of radius R at wave speed c is ``delta`` = g*R/(pi*c).  The
    regime flag is ``"weak"`` for g < omega_bar and ``"strong"`` otherwise
    (g equal to omega_bar counts as strong because kappa would vanish and
    the damped-oscillation closed form becomes singular).

    Raises
    ------
    ValidationError
        A non-positive or non-finite input, or an ``n_modes`` that is a
        bool or not integral; the message names the field.
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
    delta_omega = g / delta

    eta = math.sqrt(4.0 * g * delta_omega / math.pi)
    if g < omega_bar:
        regime = REGIME_WEAK
        kappa: Optional[float] = math.sqrt(omega_bar * omega_bar - g * g)
    else:
        regime = REGIME_STRONG
        kappa = None

    return SystemParams(
        omega_bar=omega_bar,
        g=g,
        radius=math.pi / delta_omega,
        n_modes=count,
        delta=delta,
        delta_omega=delta_omega,
        eta=eta,
        kappa=kappa,
        regime=regime,
    )
