"""Gauss hypergeometric function on [0, 1), one point at a time.

The evaluator is built for one job: resolving strict inequalities between
hypergeometric values at the 1e-10 scale.  Three regimes are stitched
together:

* plain power series with compensated (Kahan) summation for arguments up
  to ``switch_point`` -- and for all arguments when the parameter excess
  e = c - a - b is a non-unit integer, where only a budgeted-series
  contract is offered (x <= 0.99);
* the logarithmic connection formula at unit excess (c = a + b + 1), the
  regime every comparison in this package lives in, accurate to ~1e-14
  right up to the largest double below 1;
* the reflection-based connection formula for non-integer excess.

Every series stops at the first term where a proven bound on the sum of
all later terms is within rel_tol of a floor on |F|, zero-balanced cases
(e = 0) at x = 0.999 included.

This module is the scalar evaluator and imports only ``math``, so
``hypcert.hyp2f1`` loads without NumPy.  The array evaluator,
``hypcert.kernels``, takes the series contract, the parameter check, the
Horner step, _log_start and _log_tail's bound from here, and cuts its
coefficients in closed form; the loops below serve scalar calls only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite

from .errors import ConvergenceError, DomainError
from .special import gamma

# How far the excess may sit from an integer and still be treated as that
# integer by the dispatcher.  Covers float noise in c = a + b + 1 without
# misclassifying genuinely non-integer excesses.
_EXCESS_SNAP = 1e-9

# Guard distance for third parameters near non-positive integers (poles of
# the series coefficients).
_C_GUARD = 1e-8


@dataclass(frozen=True)
class SeriesConfig:
    """Tolerance and budget contract for series evaluation.

    rel_tol is the target relative truncation error of a single series,
    max_terms the hard budget before ConvergenceError, and switch_point the
    argument beyond which connection formulas take over from the plain
    series.
    """

    rel_tol: float = 1e-13
    max_terms: int = 2_000_000
    switch_point: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")
        if self.max_terms < 1000:
            raise DomainError(f"max_terms must be >= 1000, got {self.max_terms!r}")
        if not (0.0 < self.switch_point < 1.0):
            raise DomainError(
                f"switch_point must lie in (0,1), got {self.switch_point!r}"
            )


DEFAULT_SERIES = SeriesConfig()


def _near_nonpos_int(z: float, guard: float) -> bool:
    return z < 0.5 and abs(z - round(z)) < guard


def _check_params(a: float, b: float, c: float) -> None:
    """The one domain check on the parameters, shared by every entry:
    a, b and c finite, and c off the poles of the series coefficients."""
    if not (isfinite(a) and isfinite(b) and isfinite(c)):
        raise DomainError(f"parameters must be finite, got ({a!r}, {b!r}; {c!r})")
    # _near_nonpos_int(c, _C_GUARD), inlined: this check runs on every call
    if c < 0.5 and abs(c - round(c)) < _C_GUARD:
        raise DomainError(
            f"third parameter {c!r} is within {_C_GUARD} of a non-positive integer"
        )


def _digamma(x: float) -> float:
    """Digamma via reflection + upward recurrence + asymptotic series.

    Internal helper for the logarithmic connection formula; not part of the
    package surface.
    """
    if x != x:
        raise DomainError("digamma of nan")
    if x < 0.5:
        if abs(x - round(x)) < _C_GUARD:
            raise DomainError(f"digamma argument {x!r} too close to a pole")
        # psi(x) = psi(1-x) - pi * cot(pi * x)
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    z = x
    while z < 12.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    # psi(z) ~ ln z - 1/(2z) - sum cf[j] * z^(-2(j+1))
    s = 0.0
    zpow = inv2
    for cf in (
        1.0 / 12.0,
        -1.0 / 120.0,
        1.0 / 252.0,
        -1.0 / 240.0,
        1.0 / 132.0,
        -691.0 / 32760.0,
    ):
        s += cf * zpow
        zpow *= inv2
    return acc + math.log(z) - 0.5 / z - s


_PSI_1 = _digamma(1.0)  # -EulerGamma
_PSI_2 = _digamma(2.0)  # 1 - EulerGamma


def _tail_factor(x: float, a: float, b: float, c: float, n: float) -> float:
    """rho/(1-rho), rho = x times a bound on (a+m)(b+m)/((c+m)(m+1)) for
    every m >= n >= 0, or inf where no rho < 1 is proven: times term n of a
    series with these ratios, it bounds the sum of the later terms.

    The factor is 1 + (s m + ab - c)/((c+m)(m+1)), s = a+b-c-1.  Past
    max(-a, -b, -c) it is positive and (c+m)(m+1) grows with m; the
    numerator is at most max(s, 0) m + max(ab-c, 0), and m/((c+m)(m+1))
    falls once m*m >= c.  So from such an n on (n*n >= c too where s > 0)
    the factor is at most its bound at n.  On the comparison family
    (-1 < a < 0 < b, c = a+b+1: s = -2, ab < c) rho = x for n >= 1."""
    s = a + b - c - 1.0
    if n <= max(-a, -b, -c) or (s > 0.0 and n * n < c):
        return math.inf
    rho = x * (1.0 + (max(s, 0.0) * n + max(a * b - c, 0.0)) / ((c + n) * (n + 1.0)))
    return rho / (1.0 - rho) if rho < 1.0 else math.inf


def _raw_series(a: float, b: float, c: float, x: float, cfg: SeriesConfig) -> float:
    """Power series with Kahan compensation.

    Stops at the first N whose tail bound T = |t_N| _tail_factor(x, .., N)
    is at most rel_tol (|s_N| - T), that is T (1 + rel_tol) <= rel_tol
    |s_N|, trying the factor at its least, x/(1-x), first (and only, where
    the factor is proven to be that, as on the comparison family); raises
    ConvergenceError when the budget runs out first."""
    s = 1.0
    comp = 0.0
    t = 1.0
    tol = cfg.rel_tol
    tol1 = 1.0 + tol
    geo1 = x / (1.0 - x) * tol1
    # past this index _tail_factor is x/(1-x) exactly, the pretest's own
    geo_past = max(-a, -b, -c) if a + b - c - 1.0 <= 0.0 and a * b <= c else math.inf
    n = 0.0  # the term index as a float: exact, and no int-float mixing
    for _ in range(cfg.max_terms):
        n1 = n + 1.0
        t *= (a + n) * (b + n) * x / ((c + n) * n1)
        n = n1
        # Kahan update
        y = t - comp
        hi = s + y
        comp = (hi - s) - y
        s = hi
        if abs(t) * geo1 <= tol * abs(s):
            if n > geo_past or abs(t) * (_tail_factor(x, a, b, c, n) * tol1) <= tol * abs(s):
                return s
    raise ConvergenceError(
        f"series for ({a}, {b}; {c}) at x={x} did not reach rel_tol="
        f"{cfg.rel_tol} within {cfg.max_terms} terms"
    )


def _log_start(a: float, b: float) -> tuple[float, float, float]:
    """A, B and d_0 of the unit-excess expansion (see
    _log_connection_unit_excess)."""
    A = gamma(a + b + 1.0) / (gamma(a + 1.0) * gamma(b + 1.0))
    return A, a * b * A, _digamma(a + 1.0) + _digamma(b + 1.0) - _PSI_1 - _PSI_2


def _log_tail(a: float, b: float, w: float, lw: float, k: float, dk: float) -> float:
    """T / |B w coef_k w^k|, T the tail bound of _log_connection_unit_excess
    after term k at w = e^lw (d_k = dk), or inf."""
    ratio = _tail_factor(w, a + 1.0, b + 1.0, 2.0, k)
    if ratio == math.inf:
        return ratio
    u, v = min(a + 1.0, 1.0) + k, min(b + 1.0, 2.0) + k
    drift = abs(a) * (1.0 + u) / (u * u) + abs(1.0 - b) * (1.0 + v) / (v * v)
    m = k + 1.0
    log_part = -lw if -m * lw >= 1.0 else math.exp(-1.0 - m * lw) / m
    return (log_part + abs(dk) + drift) * ratio


def _log_connection_unit_excess(
    a: float, b: float, x: float, cfg: SeriesConfig, start: tuple[float, float, float]
) -> float:
    """F(a, b; a+b+1; x) near x = 1 via the logarithmic expansion in w = 1-x.

    F = A + B*w * sum_k coef_k * w^k * (ln w + d_k), with
        A = Gamma(a+b+1) / (Gamma(a+1) Gamma(b+1)),   B = a*b*A,
        coef_0 = 1,  coef_{k+1} = coef_k (a+1+k)(b+1+k) / ((k+1)(k+2)),
        d_0 = psi(a+1) + psi(b+1) - psi(1) - psi(2),
        d_{k+1} = d_k + 1/(a+1+k) + 1/(b+1+k) - 1/(k+1) - 1/(k+2);
    ``start`` is (A, B, d_0), from _log_start.

    Term j is at most |B coef_j| w^(j+1) (|ln w| + |d_j|) in size.  Past
    term K: |coef_j| falls by the ratios _tail_factor bounds (a+1, b+1;
    2); |d_j| <= |d_K| + sum_(i>=K) |d_(i+1) - d_i|, each step at most
    |a|/(u+i-K)^2 + |1-b|/(v+i-K)^2 with u = min(a+1, 1) + K and
    v = min(b+1, 2) + K, so the sum is at most |a|(1+u)/u^2 + |1-b|(1+v)/v^2;
    and w^(K+1) |ln w| grows only up to w = e^(-1/(K+1)), where it is
    1/(e (K+1)).  _log_tail takes each factor at its largest over
    w' <= w, so its bound T holds at every such w'.  The loop stops at the
    first K with T <= rel_tol min(|A|, |partial| - T), trying the least T
    first; |partial| - T bounds |F| below, and where F is monotone on
    [0, 1) the smaller of it and A = F(1) does so for every x' >= x.
    """
    A, B, dk = start
    w = 1.0 - x
    if B == 0.0 or w == 0.0:
        return A
    lw = math.log(w)
    coef = 1.0
    s = 0.0
    comp = 0.0
    bw = B * w
    geo = w / (1.0 - w)
    tol = cfg.rel_tol
    tol_a = tol * abs(A)
    a1, b1 = a + 1.0, b + 1.0
    k = 0.0  # the term index as a float: exact, and no int-float mixing
    for _ in range(cfg.max_terms):
        term = coef * (lw + dk)
        y = term - comp
        hi = s + y
        comp = (hi - s) - y
        s = hi
        if abs(bw * coef) * ((abs(lw) + abs(dk)) * geo) <= tol_a:
            tail = abs(bw * coef) * _log_tail(a, b, w, lw, k, dk)
            if tail <= tol * min(abs(A), abs(A + bw * s) - tail):
                return A + bw * s
        k1, k2 = k + 1.0, k + 2.0
        dk += 1.0 / (a1 + k) + 1.0 / (b1 + k) - 1.0 / k1 - 1.0 / k2
        coef *= (a1 + k) * (b1 + k) * w / (k1 * k2)
        k = k1
    raise ConvergenceError(
        f"log-case expansion for ({a}, {b}) at x={x} did not converge "
        f"within {cfg.max_terms} terms"
    )


def _connection_noninteger(
    a: float, b: float, c: float, x: float, cfg: SeriesConfig
) -> float:
    """Connection formula for non-integer excess e = c - a - b near x = 1:

    F(a,b;c;x) = G(c)G(e)/(G(c-a)G(c-b)) * F(a, b; 1-e; w)
               + G(c)G(-e)/(G(a)G(b)) * w^e * F(c-a, c-b; 1+e; w),  w = 1-x.
    """
    w = 1.0 - x
    e = c - a - b
    if _near_nonpos_int(1.0 - e, 1e-6) or _near_nonpos_int(1.0 + e, 1e-6):
        # both sub-series would sit on a coefficient pole; retreat to the
        # plain series where its contract still applies
        if x <= 0.99:
            return _raw_series(a, b, c, x, cfg)
        raise ConvergenceError(
            f"excess {e!r} too close to an integer for the connection formula"
        )
    first = (
        gamma(c)
        * gamma(e)
        / (gamma(c - a) * gamma(c - b))
        * _raw_series(a, b, 1.0 - e, w, cfg)
    )
    second = (
        gamma(c)
        * gamma(-e)
        / (gamma(a) * gamma(b))
        * math.pow(w, e)
        * _raw_series(c - a, c - b, 1.0 + e, w, cfg)
    )
    return first + second


def hyp2f1(a: float, b: float, c: float, x: float, cfg: SeriesConfig | None = None) -> float:
    """Gauss hypergeometric F(a, b; c; x) for 0 <= x < 1.

    Accuracy: <= 1e-12 relative for x <= cfg.switch_point; <= 1e-10 relative
    on [switch_point, 1) when the excess c-a-b equals 1 (tested against
    mpmath on comparison-family parameters up to 1 - 2**-53, the largest
    double below 1); the non-integer-excess connection formula covers the
    rest, except that non-unit integer excess beyond the switch point falls
    back to the plain series and is only guaranteed up to x = 0.99.
    """
    if cfg is None:
        cfg = DEFAULT_SERIES
    _check_params(a, b, c)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"argument must satisfy 0 <= x < 1, got {x!r}")
    if x == 0.0:
        return 1.0
    # F is symmetric in (a, b); fixing an order makes the symmetry exact in
    # floating point on every route (the connection coefficients are not
    # associativity-safe under swapping)
    if b < a:
        a, b = b, a
    if _terminating(a, b) or x <= cfg.switch_point:
        return _raw_series(a, b, c, x, cfg)
    e = c - a - b
    m = round(e)
    if abs(e - m) <= _EXCESS_SNAP:
        if m == 1:
            return _log_connection_unit_excess(a, b, x, cfg, _log_start(a, b))
        # integer excess != 1: budgeted plain series only
        return _raw_series(a, b, c, x, cfg)
    return _connection_noninteger(a, b, c, x, cfg)


def _terminating(a: float, b: float) -> bool:
    """a or b a non-positive integer: the series is a polynomial."""
    return (a <= 0.0 and a == round(a)) or (b <= 0.0 and b == round(b))


def _horner(coefs, x):
    """The polynomial with coefficients ``coefs`` (highest power first) at
    x, one IEEE multiply and one add per step.  Either x is a float and the
    coefficients floats, or x is an array and each coefficient an array of
    the same rank with one entry per row, (..., rows, 1).

    A row padded with leading zero coefficients keeps its bits: for
    x >= 0, 0*x + 0 = +0, and the first real coefficient c then gives
    +0*x + c = c exactly, the unpadded loop's first step."""
    acc = 0.0
    for ck in coefs:
        acc *= x
        acc += ck
    return acc


def hyp2f1_at_one(a: float, b: float, c: float) -> float:
    """Limit F(a, b; c; 1^-) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).

    Requires positive excess c > a + b (the limit diverges otherwise).
    """
    _check_params(a, b, c)
    if not (c > a + b):
        raise DomainError(
            f"limit at 1 needs c > a + b, got c={c!r}, a+b={(a + b)!r}"
        )
    return gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))


def hyp2f1_dx(a: float, b: float, c: float, x: float, cfg: SeriesConfig | None = None) -> float:
    """d/dx F(a, b; c; x) = (a b / c) * F(a+1, b+1; c+1; x)."""
    return (a * b / c) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x, cfg)


# keep the name list explicit so help() reads like the module intends
__all__ = [
    "SeriesConfig",
    "DEFAULT_SERIES",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_dx",
]
