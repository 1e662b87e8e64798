"""Gauss hypergeometric evaluation and numerical certification of sharp
two-sided comparison bounds between F(a-1, b; a+b; 1-x^c) and its shifted
companion F(a-1-delta, b+delta; a+b; 1-x^d).

``import hypcert`` loads the scalar evaluator (``hypcert.hyp2f1``), the
closed forms (``hypcert.constants``) and the gamma functions, none of which
imports NumPy.  The verifier's names (``run_suite``, ``VerifyConfig``, ...)
are exported too, but ``hypcert.verifier``, and with it NumPy and the array
evaluator ``hypcert.kernels``, loads on the first use of one of them.
"""

from .constants import (
    Case,
    DerivedParams,
    ExponentPair,
    ParamPair,
    c1,
    c2,
    c3,
    c4,
    c5,
    c6,
    c7,
    c8,
    condition_case,
    delta1,
    delta1_alpha_variant,
    derive_params,
    f1,
    f2,
    f3,
    f4,
    f5,
)
from .errors import ConvergenceError, DomainError, PoleError
from .hyp2f1 import (
    DEFAULT_SERIES,
    SeriesConfig,
    hyp2f1,
    hyp2f1_at_one,
    hyp2f1_dx,
)
from .special import beta, gamma, ln_gamma

__version__ = "0.1.0"

# names exported from hypcert.verifier, which loads when one is first used
_VERIFIER_NAMES = (
    "CheckResult",
    "DEFAULT_CONFIG",
    "G_value",
    "GridSpec",
    "Report",
    "VerifyConfig",
    "isolate_roots_f4",
    "run_check",
    "run_suite",
)


def __getattr__(name):
    if name in _VERIFIER_NAMES:
        from . import verifier

        value = getattr(verifier, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_VERIFIER_NAMES))


__all__ = [
    "Case",
    "DerivedParams",
    "ExponentPair",
    "ParamPair",
    "c1",
    "c2",
    "c3",
    "c4",
    "c5",
    "c6",
    "c7",
    "c8",
    "condition_case",
    "delta1",
    "delta1_alpha_variant",
    "derive_params",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "ConvergenceError",
    "DomainError",
    "PoleError",
    "DEFAULT_SERIES",
    "SeriesConfig",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_dx",
    "beta",
    "gamma",
    "ln_gamma",
    *_VERIFIER_NAMES,
    "__version__",
]
