"""Exception hierarchy for the dressedcavity package.

Every error raised by the library derives from :class:`CavityModelError`,
so callers (and the CLI) can distinguish model-level failures from plain
Python bugs.
"""

import math
from typing import Optional


class CavityModelError(Exception):
    """Base class for all dressedcavity errors."""


class ValidationError(CavityModelError):
    """A physical input is out of range; the message names the field."""


class ConfigurationError(CavityModelError):
    """A CLI configuration the program cannot read: an unknown key, a
    malformed line or value, or an unknown mode."""


class RegimeError(CavityModelError):
    """Operation requires the weak-coupling regime (g < omega_bar)."""


class ApproximationDomainError(CavityModelError):
    """Requested closed-form approximation is outside its validity domain."""


class SpectrumSolverError(CavityModelError):
    """Root bracketing or ordering failed; the message names the branch."""


class NearResonanceError(CavityModelError):
    """A normal mode sits numerically on top of a bare field frequency."""


class NumericDomainError(CavityModelError):
    """An intermediate quantity left its mathematically guaranteed domain."""


class ConsistencyError(CavityModelError):
    """Objects passed together were built from different inputs or sizes."""


class QuadratureError(CavityModelError):
    """Semi-infinite quadrature failed to reach the requested accuracy.

    The ``achieved`` attribute holds the error estimate actually reached.
    A request refused before any integration ran passes no estimate: its
    message says so, and ``achieved`` is inf.
    """

    def __init__(self, message: str, achieved: Optional[float] = None):
        if achieved is None:
            super().__init__(f"{message}; request refused, no integration ran")
            achieved = math.inf
        else:
            super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class PhysicalityError(CavityModelError):
    """An amplitude or matrix violates a probability bound."""


class NormalizationError(CavityModelError):
    """A probability vector does not sum to one within tolerance."""
