"""Gamma-family primitives.

The gamma functions delegate to the platform's libm ``lgamma`` (binary64,
comfortably inside the 1e-13 relative contract the rest of the package
assumes) and add the domain/pole policing that libm does not do.  Negative
arguments are supported only through the reflection formula

    Gamma(x) * Gamma(1-x) = pi / sin(pi * x),

which is the only regime the verification layer ever touches (arguments in
(-1, 0)).
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

# Arguments closer than this to a non-positive integer are rejected instead
# of letting 1/sin(pi*x) amplify rounding into garbage.
POLE_GUARD = 1e-8


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Relative accuracy is that of libm's lgamma, well below 1e-13 against
    max(1, |ln Gamma|).
    """
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"ln_gamma needs a positive finite argument, got {x!r}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma(x) for real x that is not (close to) a non-positive integer.

    Positive arguments go through exp(ln_gamma(x)); negative ones through
    reflection, Gamma(x) = pi / (sin(pi x) * Gamma(1 - x)).
    """
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"gamma needs a finite argument, got {x!r}")
    if x > 0.0:
        return math.exp(math.lgamma(x))
    # nearest non-positive integer (for x <= 0 that is just round(x))
    if abs(x - round(x)) < POLE_GUARD:
        raise PoleError(f"gamma argument {x!r} is within {POLE_GUARD} of a pole")
    return math.pi / (math.sin(math.pi * x) * math.exp(math.lgamma(1.0 - x)))


def beta(x: float, y: float) -> float:
    """Euler beta B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0.

    Computed as exp of ln_gamma differences so intermediate overflow cannot
    occur for the magnitudes this package deals with.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta needs positive arguments, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
