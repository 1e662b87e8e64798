"""Gauss hypergeometric function over arrays: fixed-parameter kernels.

``Hyp2f1Kernel`` fixes (a, b, c) and evaluates many points: the series
and the unit-excess expansion become polynomials with precomputed
coefficients, run by Horner's rule.  ``evaluate(kernels, xs)`` runs one
Horner loop per regime over a (kernels x points) matrix, the coefficients
padded with leading zeros to the longest list, which leaves every bit as
it was: for x >= 0, 0*x + 0 = +0, and the first real coefficient c then
gives +0*x + c = c exactly, where the unpadded loop starts.  A kernel's
one-point and array paths both take the logarithm with ``np.log``, which
gives a point the same bits alone or in any array.

This module holds all of the evaluator's NumPy.  Points outside the two
Horner regimes, the series contract and each regime's truncation come
from the scalar evaluator, ``hypcert.hyp2f1``: a kernel runs the regime's
scalar loop once, at ``switch_point``, and keeps as many terms as it sums.
The loop's tail bound there holds for every point of the regime, so no
point is checked again.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from .errors import DomainError
from .hyp2f1 import (_EXCESS_SNAP, DEFAULT_SERIES, SeriesConfig, _check_params, _horner,
                     _log_connection_unit_excess, _log_start, _raw_series, hyp2f1)


# The unit-excess expansion F = A + B*w*(ln w * P(w) + Q(w)): coefficients
# coef_k of P and coef_k*d_k of Q, highest first.
_Log = namedtuple("_Log", "A B p q")


def _log_at(s, x):
    """The unit-excess expansion's value at x."""
    w = 1.0 - x
    return s.A + s.B * w * (np.log(w) * _horner(s.p, w) + _horner(s.q, w))


_AT = {"series": _horner, "log": _log_at}


def _pad(lists):
    """Coefficient lists right-aligned behind leading zeros, (depth, rows, 1)."""
    depth = max(map(len, lists))
    out = np.zeros((depth, len(lists), 1))
    for i, v in enumerate(lists):
        out[depth - len(v):, i, 0] = v
    return out


def _stack(sets):
    """Several kernels' coefficient sets as one over (rows, points) arrays:
    lists padded (_pad), A and B as (rows, 1) columns; one set as it is."""
    if len(sets) == 1:
        return sets[0]
    if isinstance(sets[0], list):
        return _pad(sets)
    return _Log(*(_pad(v) if isinstance(v[0], list) else np.array(v)[:, None]
                  for v in zip(*sets)))


class Hyp2f1Kernel:
    """F(a, b; c; .) for fixed parameters, at one point or over an array.

    Points go to regimes exactly as in hyp2f1.  In the two regimes the
    comparison family lives in, the power series (x <= switch_point) and
    the unit-excess logarithmic expansion (x beyond it), F is a polynomial
    in x or in w = 1-x whose coefficients do not depend on the point.
    They are built once, on first use, and evaluated by Horner's rule.
    The truncation is the regime's scalar loop's (_raw_series,
    _log_connection_unit_excess), run once at x = switch_point, which
    also raises the loop's ConvergenceError; the coefficients then come
    from the loop's recurrence with the point left out, so a value depends
    only on (a, b, c, x, cfg).

    The loop's bound then holds at every point of the regime where F is
    monotone on [0, 1), every series term after the first of one sign; so
    Horner runs only on these parameters.  On the comparison family,
    -1 < a < 0 < b and c = a+b+1, F falls from 1 to A = F(1) > 0: the
    series' floor at switch_point holds below it, and the log floor is A.
    With a, b, c > 0, F rises from 1: the series' bound over its partial
    sum grows with x, and the log floor at switch_point holds above it.
    Other parameters, and non-unit excess beyond switch_point, go to
    hyp2f1 point by point.

    ``kernel(x)`` runs _horner on a Python float; ``kernel.array(xs)`` is
    ``evaluate([kernel], [xs])[0]``, which runs the same code on a
    (rows, points) array.  The steps are separate IEEE multiplies and adds
    (NumPy fuses neither), padding a row with leading zero coefficients
    does not change its bits (see _horner), and both paths take
    ``np.log``, so a point has the same bits alone or inside any array,
    stacked with any other kernels.
    """

    def __init__(self, a: float, b: float, c: float, cfg: SeriesConfig | None = None):
        _check_params(a, b, c)
        if b < a:
            a, b = b, a
        self.a, self.b, self.c = a, b, c
        self.cfg = DEFAULT_SERIES if cfg is None else cfg
        unit = abs(c - a - b - 1.0) <= _EXCESS_SNAP
        self._horner = (a > 0.0 and c > 0.0) or (-1.0 < a < 0.0 < b and unit)
        self._unit_excess = self._horner and unit

    @cached_property
    def _series(self):
        """Coefficients t_N..t_0 of the power series, highest first: N is
        the last term _raw_series sums at x = switch_point, and each t_n
        comes from its recurrence with x left out."""
        a, b, c, cfg = self.a, self.b, self.c, self.cfg
        top = _raw_series(a, b, c, cfg.switch_point, cfg)[1]
        coefs, t, n = [1.0], 1.0, 0.0
        for _ in range(top):
            t *= (a + n) * (b + n) / ((c + n) * (n + 1.0))
            coefs.append(t)
            n += 1.0
        return coefs[::-1]

    @cached_property
    def _log(self):
        """The unit-excess coefficient set (a _Log): coef_k and d_k for k up
        to the last term _log_connection_unit_excess sums at
        x = switch_point, from its recurrences with w left out."""
        a, b, cfg = self.a, self.b, self.cfg
        start = A, B, dk = _log_start(a, b)
        top = _log_connection_unit_excess(a, b, cfg.switch_point, cfg, start)[1]
        a1, b1 = a + 1.0, b + 1.0
        p, q, coef, k = [1.0], [dk], 1.0, 0.0
        for _ in range(top):
            k1, k2 = k + 1.0, k + 2.0
            dk += 1.0 / (a1 + k) + 1.0 / (b1 + k) - 1.0 / k1 - 1.0 / k2
            coef *= (a1 + k) * (b1 + k) / (k1 * k2)
            p.append(coef)
            q.append(coef * dk)
            k = k1
        return _Log(A, B, p[::-1], q[::-1])

    @property
    def ends(self):
        """(F(1), F'(0)) at unit excess: the log set's A and t_1 = ab/c."""
        return self._log.A, self._series[-2]

    def _coefs(self, regime):
        """The coefficient set of a regime."""
        return self._series if regime == "series" else self._log

    def _regime(self, x) -> str | None:
        """The Horner regime that covers x: "series", "log" or None."""
        if x <= self.cfg.switch_point:
            return "series" if self._horner else None
        return "log" if self._unit_excess else None

    def __call__(self, x: float) -> float:
        if not (0.0 <= x < 1.0):
            raise DomainError(f"argument must satisfy 0 <= x < 1, got {x!r}")
        regime = self._regime(x)
        if regime is None:
            return hyp2f1(self.a, self.b, self.c, x, self.cfg)
        return float(_AT[regime](self._coefs(regime), x))

    def array(self, xs) -> np.ndarray:
        """Values at every entry of the 1-D array ``xs``."""
        return evaluate([self], np.asarray(xs, dtype=float)[None, :])[0]


def evaluate(kernels, xs) -> np.ndarray:
    """F at a (kernels x points) array ``xs``, row i at the points of
    kernels[i], each value as ``kernels[i](x)`` gives it.  Each kernel's
    coefficient sets are its cached ones, built on first use.  Each Horner
    regime runs one loop over the rows with points in it, their regime
    points moved to the front and padded with copies of the last one (see
    _horner for the coefficients' padding).  Other points go to hyp2f1 one
    by one, after the stacked loops."""
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
        # boolean indexing runs row by row: each row's points land in order
        counts = counts[rows]
        real = np.arange(counts.max()) < counts[:, None]
        pts = np.empty(real.shape)
        pts[real] = xs[mask]
        pts = np.where(real, pts, pts[np.arange(len(rows)), counts - 1][:, None])
        sets = _stack([kernels[i]._coefs(regime) for i in rows.tolist()])
        out[mask] = _AT[regime](sets, pts)[real]
    for i, j in np.argwhere(~(masks["series"] | masks["log"])).tolist():
        k = kernels[i]
        out[i, j] = hyp2f1(k.a, k.b, k.c, float(xs[i, j]), k.cfg)
    return out


__all__ = ["Hyp2f1Kernel", "evaluate"]
