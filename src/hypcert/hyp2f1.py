"""Gauss hypergeometric function on [0, 1) and elliptic-integral wrappers.

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

Series termination is tail-aware: the plain series stops only when the
current term times the geometric tail bound 1/(1-x) is below tolerance,
which is what makes zero-balanced cases (e = 0) trustworthy at x = 0.999.

``hyp2f1`` takes one point at a time.  ``Hyp2f1Kernel`` fixes (a, b, c)
and evaluates many points: the series and the unit-excess expansion
become polynomials with precomputed coefficients, run by Horner's rule.
Many kernels' coefficients come from one build, with the bits of each
one's own.  ``evaluate(kernels, xs)`` runs one Horner loop per regime
over a (kernels x points) matrix, the coefficients padded with leading
zeros to the longest list, which leaves every bit as it was: for x >= 0,
0*x + 0 = +0, and the first real coefficient c then gives +0*x + c = c
exactly, where the unpadded loop starts.  A kernel's one-point and array
paths both take the logarithm with ``np.log``, which gives a point the
same bits alone or in any array.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
        if not (self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if self.max_terms < 1000:
            raise DomainError(f"max_terms must be >= 1000, got {self.max_terms!r}")
        if not (0.0 < self.switch_point < 1.0):
            raise DomainError(
                f"switch_point must lie in (0,1), got {self.switch_point!r}"
            )


DEFAULT_SERIES = SeriesConfig()


def _near_nonpos_int(z: float, guard: float) -> bool:
    return z < 0.5 and abs(z - round(z)) < guard


def _check_pole(c: float) -> None:
    """The one domain check on the third parameter, shared by every entry."""
    if _near_nonpos_int(c, _C_GUARD):
        raise DomainError(
            f"third parameter {c!r} is within {_C_GUARD} of a non-positive integer"
        )


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (a, b; c) with the c-pole invariant enforced."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _check_pole(self.c)

    @property
    def excess(self) -> float:
        return self.c - self.a - self.b


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


def _raw_series(a: float, b: float, c: float, x: float, cfg: SeriesConfig) -> float:
    """Power series with Kahan compensation and a geometric tail bound.

    Stops once |term| / (1 - x) <= rel_tol * |sum| twice in a row; raises
    ConvergenceError when the budget runs out first.
    """
    s = 1.0
    comp = 0.0
    t = 1.0
    tail = 1.0 / (1.0 - x)
    ok_streak = 0
    for n in range(cfg.max_terms):
        t *= (a + n) * (b + n) * x / ((c + n) * (n + 1.0))
        # Kahan update
        y = t - comp
        hi = s + y
        comp = (hi - s) - y
        s = hi
        if abs(t) * tail <= cfg.rel_tol * abs(s):
            ok_streak += 1
            if ok_streak >= 2:
                return s
        else:
            ok_streak = 0
    raise ConvergenceError(
        f"series for ({a}, {b}; {c}) at x={x} did not reach rel_tol="
        f"{cfg.rel_tol} within {cfg.max_terms} terms"
    )


def _log_connection_unit_excess(a: float, b: float, x: float, cfg: SeriesConfig) -> float:
    """F(a, b; a+b+1; x) near x = 1 via the logarithmic expansion in w = 1-x.

    F = A + B*w * sum_k coef_k * w^k * (ln w + d_k), with
        A = Gamma(a+b+1) / (Gamma(a+1) Gamma(b+1)),   B = a*b*A,
        coef_0 = 1,  coef_{k+1} = coef_k (a+1+k)(b+1+k) / ((k+1)(k+2)),
        d_0 = psi(a+1) + psi(b+1) - psi(1) - psi(2),
        d_{k+1} = d_k + 1/(a+1+k) + 1/(b+1+k) - 1/(k+1) - 1/(k+2).
    """
    w = 1.0 - x
    c = a + b + 1.0
    A = gamma(c) / (gamma(a + 1.0) * gamma(b + 1.0))
    B = a * b * A
    if B == 0.0 or w == 0.0:
        return A
    lw = math.log(w)
    dk = _digamma(a + 1.0) + _digamma(b + 1.0) - _PSI_1 - _PSI_2
    coef = 1.0
    s = 0.0
    comp = 0.0
    bw = B * w
    tail = 1.0 / (1.0 - w)
    ok_streak = 0
    for k in range(cfg.max_terms):
        term = coef * (lw + dk)
        y = term - comp
        hi = s + y
        comp = (hi - s) - y
        s = hi
        f_partial = A + bw * s
        if abs(bw * term) * tail <= cfg.rel_tol * max(abs(f_partial), 1e-300):
            ok_streak += 1
            if ok_streak >= 2:
                return A + bw * s
        else:
            ok_streak = 0
        dk += (
            1.0 / (a + 1.0 + k)
            + 1.0 / (b + 1.0 + k)
            - 1.0 / (k + 1.0)
            - 1.0 / (k + 2.0)
        )
        coef *= (a + 1.0 + k) * (b + 1.0 + k) * w / ((k + 1.0) * (k + 2.0))
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
    _check_pole(c)
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
            return _log_connection_unit_excess(a, b, x, cfg)
        # integer excess != 1: budgeted plain series only
        return _raw_series(a, b, c, x, cfg)
    return _connection_noninteger(a, b, c, x, cfg)


def _terminating(a: float, b: float) -> bool:
    """a or b a non-positive integer: the series is a polynomial."""
    return (a <= 0.0 and a == round(a)) or (b <= 0.0 and b == round(b))


def _horner(coefs, x):
    """The polynomial with coefficients ``coefs`` (highest power first) at
    x, one IEEE multiply and one add per step.  Either x is a float and the
    coefficients floats, or x is a (rows, points) array and each
    coefficient a (rows, 1) column.

    A row padded with leading zero coefficients keeps its bits: for
    x >= 0, 0*x + 0 = +0, and the first real coefficient c then gives
    +0*x + c = c exactly, the unpadded loop's first step."""
    acc = 0.0
    for ck in coefs:
        acc *= x
        acc += ck
    return acc


# The power series: coefficients t_N..t_0 (highest first), the powers k
# and coefficients c of its last two terms, and rel_tol.
_Series = namedtuple("_Series", "coefs k c tol")

# The unit-excess expansion F = A + B*w*(ln w * P(w) + Q(w)): coefficients
# coef_k of P and coef_k*d_k of Q (highest first), the (k, coef_k, d_k) of
# its last two terms, and rel_tol.
_Log = namedtuple("_Log", "A B p q k c d tol")


def _series_at(s, x):
    """Value at x, and whether x meets the stopping rule of _raw_series on
    both of the last two terms.  On an array, each side |c_k| x^k / (1-x)
    grows with x and its roundings move it by far less than 2**-40 of
    itself, so a point whose bound clears the sides at its row's largest
    point by that much meets the rule; only if some point does not is each
    point checked."""
    value = _horner(s.coefs, x)
    bound = s.tol * abs(value)
    if isinstance(x, np.ndarray):
        top = x.max(axis=-1, keepdims=True)
        sides = np.maximum(*(abs(ck) * top ** k for k, ck in zip(s.k, s.c))) / (1.0 - top)
        ok = bound >= sides * (1.0 + 2.0 ** -40)
        if ok.all():
            return value, ok
    tail = 1.0 / (1.0 - x)
    ok = True
    for k, ck in zip(s.k, s.c):
        ok = ok & (abs(ck) * x ** k * tail <= bound)
    return value, ok


def _log_at(s, x):
    """Value at x, and whether x meets the stopping rule of
    _log_connection_unit_excess on both of the last two terms."""
    w = 1.0 - x
    lw = np.log(w)
    p = _horner(s.p, w)
    q = _horner(s.q, w)
    bw = s.B * w
    value = s.A + bw * (lw * p + q)
    tail = 1.0 / (1.0 - w)
    bound = s.tol * (abs(value) + 1e-300)
    ok = True
    for k, ck, dk in zip(s.k, s.c, s.d):
        ok = ok & (abs(bw * (ck * w ** k * (lw + dk))) * tail <= bound)
    return value, ok


_AT = {"series": _series_at, "log": _log_at}


def _stack(sets):
    """Coefficient sets of several kernels as one set over (rows, points)
    arrays: coefficient lists right-aligned behind leading zeros in one
    (depth, rows, 1) array, every other number a (rows, 1) column.  One
    set stays as it is: its numbers broadcast over its one row."""
    if len(sets) == 1:
        return sets[0]
    fields = []
    for vals in zip(*sets):
        if isinstance(vals[0], list):
            depth = max(map(len, vals))
            field = np.zeros((depth, len(vals), 1))
            for i, v in enumerate(vals):
                field[depth - len(v):, i, 0] = v
        elif isinstance(vals[0], tuple):
            field = tuple(np.array(v, dtype=float)[:, None] for v in zip(*vals))
        else:
            field = np.array(vals, dtype=float)[:, None]
        fields.append(field)
    return type(sets[0])(*fields)


def _stop(terms, lhs, tol, A, bw, floor, state):
    """_log_connection_unit_excess's stopping rule (_raw_series's: A = 0, bw = 1,
    floor = 0) over terms with left sides lhs: the index it stops at, or
    None and the Kahan state (s, comp, streak) after them."""
    s, comp, streak = state
    for j, (t, left) in enumerate(zip(terms, lhs)):
        y = t - comp
        hi = s + y
        comp = (hi - s) - y
        s = hi
        f = abs(A + bw * s)
        if left <= tol * (floor if f < floor else f):
            streak += 1
            if streak >= 2:
                return j, None
        else:
            streak = 0
    return None, (s, comp, streak)


def _build(kernels, regime):
    """The coefficient sets of one regime for the list ``kernels``, lists
    t_N..t_0 ("series") or _Log sets ("log"), each with the bits of the
    kernel's scalar loop (_raw_series, _log_connection_unit_excess) at
    x = switch_point or w = 1 - switch_point: the loop's running products
    and sums are np.cumprod and np.cumsum along the terms of a (rows,
    terms) array, the same IEEE operations in the same order, and its
    stopping rule, a Kahan sum, runs per row in Python (_stop).  Blocks
    double until every row has stopped; a row that reaches max_terms
    raises the loop's ConvergenceError; a log row with B = 0 keeps one term."""
    log, ones = regime == "log", [1.0] * len(kernels)
    a, b, c, x = np.array([[k.a, k.b, k.c, k.cfg.switch_point] for k in kernels]).T[:, :, None]
    if log:
        x = 1.0 - x  # w
        A = [gamma(k.a + k.b + 1.0) / (gamma(k.a + 1.0) * gamma(k.b + 1.0)) for k in kernels]
        B = [k.a * k.b * A_ for k, A_ in zip(kernels, A)]
        bw = np.array(B)[:, None] * x
        lw = np.array([[math.log(w)] for w in x[:, 0].tolist()])
        d0 = [_digamma(k.a + 1.0) + _digamma(k.b + 1.0) - _PSI_1 - _PSI_2 for k in kernels]
        carry, floor = np.array([ones, ones, d0]), 1e-300  # coef_k, coef_k w^k, d_k
    else:
        A, B, bw, lw = [0.0] * len(kernels), ones, np.ones_like(x), None
        carry, floor = np.array([ones, ones]), 0.0  # coef_n, t_n
    rows = [a, b, c, x, bw, lw, 1.0 / (1.0 - x)]
    state = [(0.0 if log else 1.0, 0.0, 0)] * len(kernels)  # Kahan s, comp; streak
    coefs, ds, qs = ([[] for _ in kernels] for _ in range(3))  # coef_k, d_k, coef_k d_k
    # first block: the terms a geometric series in x needs, and 16 more
    size = 16 + int(max(0.0, *(math.log(k.cfg.rel_tol) / math.log(xk)
                               for k, xk in zip(kernels, x[:, 0].tolist()))))
    act, n0 = list(range(len(kernels))), 0
    while act:
        a, b, c, x, bw, lw, tail = rows
        n = np.arange(n0, n0 + size, dtype=float)
        run = np.empty((len(carry), len(act), size + 1))
        run[:, :, 0] = carry
        if log:
            ak, bk, n1, n2 = a + 1.0 + n, b + 1.0 + n, n + 1.0, n + 2.0
            num, den = ak * bk, n1 * n2
            run[2, :, 1:] = 1.0 / ak + 1.0 / bk - 1.0 / n1 - 1.0 / n2
            np.cumsum(run[2], axis=1, out=run[2])
        else:
            num, den = (a + n) * (b + n), (c + n) * (n + 1.0)
        np.divide(num, den, out=run[0, :, 1:])
        np.divide(num * x, den, out=run[1, :, 1:])
        np.cumprod(run[:2], axis=2, out=run[:2])
        carry = run[:, :, -1]
        terms = run[1, :, :-1] * (lw + run[2, :, :-1]) if log else run[1, :, 1:]
        lhs = np.abs(bw * terms) * tail
        parts = [run[0], run[2], run[0] * run[2]] if log else [run[0]]
        chains = zip(*(part.tolist() for part in parts))
        keep = []
        for r, (i, ts, ls, chain) in enumerate(zip(act, terms.tolist(), lhs.tolist(), chains)):
            k = kernels[i]
            top = min(size, k.cfg.max_terms - n0)
            stop, state[i] = _stop(ts[:top], ls[:top], k.cfg.rel_tol, A[i], float(bw[r, 0]),
                                   floor, state[i])
            stop = 0 if log and B[i] == 0.0 else stop  # the log loop's first step breaks
            # coefficients 0..K: the log loop stops at K = n, the series one at n + 1
            end = size if stop is None else stop + (1 if log else 2)
            for got, values in zip((coefs[i], ds[i], qs[i]), chain):
                got += values[:end]
            if stop is None and top < size:
                raise ConvergenceError(
                    f"log-case expansion for ({k.a}, {k.b}) at x={k.cfg.switch_point} did not "
                    f"converge within {k.cfg.max_terms} terms" if log else
                    f"series for ({k.a}, {k.b}; {k.c}) at x={k.cfg.switch_point} did not "
                    f"reach rel_tol={k.cfg.rel_tol} within {k.cfg.max_terms} terms")
            if stop is None:
                keep.append(r)
        act = [act[r] for r in keep]
        if act:  # the next block, for the rows still running
            rows = [None if v is None else v[keep] for v in rows]
            carry, n0, size = carry[:, keep], n0 + size, min(2 * size, 8192)
    if not log:
        return [p[::-1] for p in coefs]
    return [_Log(A_, B_, p[::-1], q[::-1], tuple(range(len(p) - len(p[-2:]), len(p))),
                 tuple(p[-2:]), tuple(d[-2:]), k.cfg.rel_tol)
            for k, A_, B_, p, d, q in zip(kernels, A, B, coefs, ds, qs)]


class Hyp2f1Kernel:
    """F(a, b; c; .) for fixed parameters, at one point or over an array.

    Points go to regimes exactly as in hyp2f1.  In the two regimes the
    comparison family lives in, the power series (x <= switch_point) and
    the unit-excess logarithmic expansion (x beyond it), F is a polynomial
    in x or in w = 1-x whose coefficients do not depend on the point.
    They are built once, on first use, by _build (``evaluate`` builds the
    sets of all its kernels in one call), and evaluated by Horner's rule.
    The truncation is where hyp2f1's own stopping rule stops at the
    regime's worst argument, x = switch_point for the series and
    w = 1 - switch_point for the expansion, so a value depends only on
    (a, b, c, x, cfg).  Every point is then held to the stopping rule on
    its last two terms and raises ConvergenceError if it misses it.
    Terminating parameters, non-unit integer excess and non-integer
    excess go to hyp2f1 point by point.

    ``kernel(x)`` runs _horner on a Python float; ``kernel.array(xs)`` is
    ``evaluate([kernel], [xs])[0]``, which runs the same code on a
    (rows, points) array.  The steps are separate IEEE multiplies and adds
    (NumPy fuses neither), padding a row with leading zero coefficients
    does not change its bits (see _horner), and both paths take
    ``np.log``, so a point has the same bits alone or inside any array,
    stacked with any other kernels.
    """

    def __init__(self, a: float, b: float, c: float, cfg: SeriesConfig | None = None):
        _check_pole(c)
        if b < a:
            a, b = b, a
        self.a, self.b, self.c = a, b, c
        self.cfg = DEFAULT_SERIES if cfg is None else cfg
        e = c - a - b
        self._horner = not _terminating(a, b)
        self._unit_excess = (self._horner and abs(e - round(e)) <= _EXCESS_SNAP
                             and round(e) == 1)

    @cached_property
    def _series(self):
        """Coefficients t_N..t_0 of the power series, highest first."""
        return _build([self], "series")[0]

    @cached_property
    def _log(self):
        """The unit-excess coefficient set (a _Log)."""
        return _build([self], "log")[0]

    @cached_property
    def _series_set(self):
        coefs = self._series
        top = len(coefs) - 1
        return _Series(coefs, (top - 1, top), (coefs[1], coefs[0]), self.cfg.rel_tol)

    def _coefs(self, regime):
        """The coefficient set of a regime."""
        return self._series_set if regime == "series" else self._log

    def _regime(self, x) -> str | None:
        """The Horner regime that covers x: "series", "log" or None."""
        if x <= self.cfg.switch_point:
            return "series" if self._horner else None
        return "log" if self._unit_excess else None

    def _miss(self, x, regime):
        raise ConvergenceError(
            f"{regime} coefficients for ({self.a}, {self.b}; {self.c}) miss "
            f"rel_tol={self.cfg.rel_tol} at x={x!r}"
        )

    def __call__(self, x: float) -> float:
        if not (0.0 <= x < 1.0):
            raise DomainError(f"argument must satisfy 0 <= x < 1, got {x!r}")
        regime = self._regime(x)
        if regime is None:
            return hyp2f1(self.a, self.b, self.c, x, self.cfg)
        value, ok = _AT[regime](self._coefs(regime), x)
        if not ok:
            self._miss(x, regime)
        return float(value)

    def array(self, xs) -> np.ndarray:
        """Values at every entry of the 1-D array ``xs``."""
        return evaluate([self], np.asarray(xs, dtype=float)[None, :])[0]


def evaluate(kernels, xs) -> np.ndarray:
    """F at a (kernels x points) array ``xs``, row i at the points of
    kernels[i], each value as ``kernels[i](x)`` gives it.  Missing
    coefficient sets are built in one _build call per regime.  Each Horner
    regime runs one loop over the rows with points in it, their regime
    points moved to the front and padded with copies of the last one (see
    _horner for the coefficients' padding); the stopping rule is checked
    on real entries only, the first miss raising ConvergenceError.  Other
    points go to hyp2f1 one by one, after the stacked loops."""
    xs = np.asarray(xs, dtype=float)
    bad = ~((xs >= 0.0) & (xs < 1.0))
    if bad.any():
        raise DomainError(f"argument must satisfy 0 <= x < 1, got {float(xs[bad][0])!r}")
    flags = np.array([[k.cfg.switch_point, k._horner, k._unit_excess] for k in kernels])
    low = xs <= flags[:, :1]
    masks = {"series": low & (flags[:, 1:2] == 1.0), "log": ~low & (flags[:, 2:] == 1.0)}
    out = np.empty_like(xs)
    for regime, mask in masks.items():
        counts = mask.sum(axis=1)
        rows = np.flatnonzero(counts)
        if not rows.size:
            continue
        users = [kernels[i] for i in rows.tolist()]
        missing = [k for k in dict.fromkeys(users) if "_" + regime not in k.__dict__]
        for k, coefs in zip(missing, _build(missing, regime) if missing else ()):
            k.__dict__["_" + regime] = coefs  # the cached _series or _log
        # boolean indexing runs row by row: each row's points land in order
        counts = counts[rows]
        real = np.arange(counts.max()) < counts[:, None]
        pts = np.empty(real.shape)
        pts[real] = xs[mask]
        pts = np.where(real, pts, pts[np.arange(len(rows)), counts - 1][:, None])
        values, ok = _AT[regime](_stack([k._coefs(regime) for k in users]), pts)
        miss = ~ok & real
        if miss.any():
            i, j = np.argwhere(miss)[0]
            users[i]._miss(float(pts[i, j]), regime)
        out[mask] = values[real]
    for i, j in np.argwhere(~(masks["series"] | masks["log"])).tolist():
        k = kernels[i]
        out[i, j] = hyp2f1(k.a, k.b, k.c, float(xs[i, j]), k.cfg)
    return out


def hyp2f1_at_one(a: float, b: float, c: float) -> float:
    """Limit F(a, b; c; 1^-) = Gamma(c)Gamma(c-a-b) / (Gamma(c-a)Gamma(c-b)).

    Requires positive excess c > a + b (the limit diverges otherwise).
    """
    _check_pole(c)
    if not (c > a + b):
        raise DomainError(
            f"limit at 1 needs c > a + b, got c={c!r}, a+b={(a + b)!r}"
        )
    return gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))


def hyp2f1_dx(a: float, b: float, c: float, x: float, cfg: SeriesConfig | None = None) -> float:
    """d/dx F(a, b; c; x) = (a b / c) * F(a+1, b+1; c+1; x)."""
    return (a * b / c) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, x, cfg)


def elliptic_Ka(a: float, r: float, cfg: SeriesConfig | None = None) -> float:
    """Generalized complete elliptic integral of the first kind:
    (pi/2) * F(a, 1-a; 1; r^2) for a in (0,1), r in (0,1)."""
    if not (0.0 < a < 1.0):
        raise DomainError(f"elliptic_Ka needs a in (0,1), got {a!r}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"elliptic_Ka needs r in (0,1), got {r!r}")
    return 0.5 * math.pi * hyp2f1(a, 1.0 - a, 1.0, r * r, cfg)


def elliptic_Ea(a: float, r: float, cfg: SeriesConfig | None = None) -> float:
    """Generalized complete elliptic integral of the second kind:
    (pi/2) * F(a-1, 1-a; 1; r^2) for a in (0,1), r in (0,1)."""
    if not (0.0 < a < 1.0):
        raise DomainError(f"elliptic_Ea needs a in (0,1), got {a!r}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"elliptic_Ea needs r in (0,1), got {r!r}")
    return 0.5 * math.pi * hyp2f1(a - 1.0, 1.0 - a, 1.0, r * r, cfg)


# keep the name list explicit so help() reads like the module intends
__all__ = [
    "SeriesConfig",
    "DEFAULT_SERIES",
    "HypParams",
    "Hyp2f1Kernel",
    "evaluate",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_dx",
    "elliptic_Ka",
    "elliptic_Ea",
]
