"""Gauss hypergeometric function over arrays: comparison-family kernels.

``Hyp2f1Kernel`` fixes parameters of the comparison family; the power
series and the unit-excess expansion become polynomials, cut per abscissa
band in closed form and run by Horner's rule, one loop per band for all
kernels of an ``evaluate`` call.  All of the evaluator's NumPy is here;
``hypcert.hyp2f1`` lends the series contract, _log_start and _log_tail.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .hyp2f1 import _EXCESS_SNAP, DEFAULT_SERIES, SeriesConfig, _check_params, _horner, _log_start

# Band edges: a series point z is in band #(edges < z), a log point in band
# #(edges < w), w = 1-z; a band keeps the terms its top edge needs, the last
# band's edge being switch_point (1 - switch_point for w)
_EDGES = {"series": (0.15, 0.45), "log": (0.01,)}
# terms a build tries first; a row with no cut there searches on alone, in
# stretches of at most _STRIDE terms, and is built to its cut once it finds one
_DEPTH = {"series": 128, "log": 32}
_STRIDE = 16384
# F = A + B*w*(ln w * P(w) + Q(w)): coefficients coef_k of P and coef_k*d_k
# of Q, highest first (over arrays P's and Q's in one, q None)
_Log = namedtuple("_Log", "A B p q")
# kernels built together, a row each: t_n as (1, rows, terms), coef_k and
# coef_k*d_k as (2, rows, terms), lowest first, A, B, and each band's count
# of terms (later bands repeat the last)
_Block = namedtuple("_Block", "t pq A B n_series n_log")


def _log_at(s, x):
    """The unit-excess expansion's value at x."""
    w = 1.0 - x
    if s.q is None:
        p, q = _horner(s.p, np.broadcast_to(w, (2, *w.shape)))
    else:
        p, q = _horner(s.p, w), _horner(s.q, w)
    return s.A + s.B * w * (np.log(w) * p + q)


def _log_tails(a, b, w, k, dk):
    """_log_tail (hypcert.hyp2f1) over arrays: a and b as (rows, 1)
    columns, term indices k, d_k as (rows, terms), w as (edges, 1, 1).  On
    the family a+1 and b+1 are positive and a+1 < 1, which leaves out two
    of its branches."""
    a1, b1 = a + 1.0, b + 1.0
    s = a1 + b1 - 2.0 - 1.0
    rho = w * (1.0 + (np.maximum(s, 0.0) * k + np.maximum(a1 * b1 - 2.0, 0.0))
               / ((2.0 + k) * (k + 1.0)))
    ratio = np.where(~((s > 0.0) & (k * k < 2.0)) & (rho < 1.0), rho / (1.0 - rho), np.inf)
    u, v, m = a1 + k, np.minimum(b1, 2.0) + k, k + 1.0
    drift = np.abs(a) * (1.0 + u) / (u * u) + np.abs(1.0 - b) * (1.0 + v) / (v * v)
    lw = np.log(w)
    log_part = np.where(-m * lw >= 1.0, -lw, np.exp(-1.0 - m * lw) / m)
    return (log_part + np.abs(dk) + drift) * ratio


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _terms(r, start, stop, edges, tol, regime, first=None):
    """A regime's coefficient arrays over the terms start..stop-1 for rows
    r = (a, b, c, A, B, d_0), cumulative products and sums in the
    recurrences' order (so with their bits), and (edges, rows, terms) where
    the tail past a term over the band of each edge e is at most tol A:
    |t_n| e^(n+1)/(1-e), n >= 1, for the series (the later terms are
    negative, each at most e times the one before, and F >= A), |B coef_k|
    e^(k+1) times _log_tail's factor for the log.  ``first`` holds the
    running values at start, t or coef_k and d_k as (1 or 2, rows, 1), None
    at start 0; the third array returned holds them at stop-1."""
    n = np.arange(start, stop, dtype=float)
    one, e = np.ones((len(r), 1)), np.array(edges)[:, None, None]
    if regime == "series":
        first = one[None] if first is None else first
        ratios = (r[:, :1] + n) * (r[:, 1:2] + n) / ((r[:, 2:3] + n) * (n + 1.0))
        t = np.cumprod(np.hstack([first[0], ratios[:, :-1]]), axis=1)
        size = np.where(n == 0.0, np.inf, np.abs(t))
        return t[None], size * (e ** (n + 1.0) / (1.0 - e)) <= tol * r[:, 3:4], t[None, :, -1:]
    first = np.stack([one, r[:, 5:6]]) if first is None else first
    a1, b1, k1, k2 = r[:, :1] + 1.0, r[:, 1:2] + 1.0, n + 1.0, n + 2.0
    coef = np.cumprod(np.hstack([first[0], ((a1 + n) * (b1 + n) / (k1 * k2))[:, :-1]]), axis=1)
    steps = 1.0 / (a1 + n) + 1.0 / (b1 + n) - 1.0 / k1 - 1.0 / k2
    dk = np.cumsum(np.hstack([first[1], steps[:, :-1]]), axis=1)
    bound = np.abs(r[:, 4:5] * coef) * e ** (n + 1.0) * _log_tails(r[:, :1], r[:, 1:2], e, n, dk)
    return (np.stack([coef, coef * dk]), bound <= tol * r[:, 3:4],
            np.stack([coef[:, -1:], dk[:, -1:]]))


def _cat(parts):
    """Arrays joined along their rows (axis -2), each padded with zeros to
    the widest."""
    width = max(p.shape[-1] for p in parts)
    return np.concatenate([np.pad(p, [(0, 0)] * (p.ndim - 1) + [(0, width - p.shape[-1])])
                           for p in parts], axis=-2)


def _truncate(rows, cfg, regime):
    """A regime's coefficient arrays of rows (a, b, c, A, B, d_0), each
    band's count of terms per row, up to the first index where its bound,
    or a higher band's, holds (its points lie in that band too), and
    {row: ConvergenceError} for the rows with no cut within max_terms."""
    top = cfg.switch_point if regime == "series" else 1.0 - cfg.switch_point
    edges = [e for e in _EDGES[regime] if e < top] + [top]

    def cut(r, depth):
        arrays, ok, _ = _terms(r, 0, depth, edges, cfg.rel_tol, regime)
        ok = np.logical_or.accumulate(ok[::-1])[::-1]
        counts = np.where(ok.any(axis=2), ok.argmax(axis=2) + 1, 0).T
        return arrays, counts[:, [min(j, len(edges) - 1) for j in range(len(_EDGES[regime]) + 1)]]

    def top_cut(r):
        """The top band's count of terms for the one row r, searched in
        stretches 4x as wide as the one before, up to _STRIDE terms, each
        starting from the last running values of the one before; 0 if none
        within max_terms."""
        start, width, first = 0, 4 * _DEPTH[regime], None
        while True:
            stop = min(start + width, cfg.max_terms)
            _, ok, last = _terms(r, start, stop, edges[-1:], cfg.rel_tol, regime, first)
            if ok.any():
                return start + int(ok.argmax()) + 1
            if stop == cfg.max_terms:
                return 0
            start, width, first = stop - 1, min(4 * width, _STRIDE), last

    arrays, counts = cut(rows, min(_DEPTH[regime], cfg.max_terms))
    errors = {}
    for i in np.flatnonzero(counts[:, -1] == 0).tolist():
        depth = top_cut(rows[i:i + 1])
        if depth:
            deeper, counts[i:i + 1] = cut(rows[i:i + 1], depth)
            arrays = _cat([arrays[:, :i], deeper, arrays[:, i + 1:]])
        else:
            errors[i] = ConvergenceError(
                f"{regime} coefficients for {tuple(rows[i, :3].tolist())} did not reach rel_tol="
                f"{cfg.rel_tol} up to x={cfg.switch_point} within {cfg.max_terms} terms")
    return arrays, counts, errors


def _build(kernels):
    """Build the kernels that have no coefficients, in one array pass per
    config (a _Block), then raise the first error a kernel has."""
    groups = {}
    for k in kernels:
        if k._sets is None:
            groups.setdefault(k.cfg, {})[id(k)] = k
    for cfg, group in groups.items():
        group = list(group.values())
        rows = np.array([(k.a, k.b, k.c, *_log_start(k.a, k.b)) for k in group])
        t, n_series, bad = _truncate(rows, cfg, "series")
        pq, n_log, bad_log = _truncate(rows, cfg, "log")
        block = _Block(t, pq, rows[:, 3], rows[:, 4], n_series, n_log)
        for i, k in enumerate(group):
            k._sets = bad.get(i) or bad_log.get(i) or (block, i)
    for k in kernels:
        if isinstance(k._sets, Exception):
            raise k._sets


def _coefs(m, rows, counts):
    """Rows of a block array m cut to counts, highest first behind zeros,
    as (terms, 1 or 2, rows, 1) for _horner."""
    depth = int(counts.max())
    c = np.where(np.arange(depth) < counts[:, None], m[:, rows, :depth], 0.0)
    return np.ascontiguousarray(c[..., ::-1].transpose(2, 0, 1))[..., None]


class Hyp2f1Kernel:
    """F(a, b; c; .) for -1 < a < 0 < b and c = a+b+1 (a and b in either
    order; DomainError otherwise), at one point or over an array, built on
    first use with the other kernels of an ``evaluate`` call.  ``kernel(x)``
    runs _horner on Python floats and ``kernel.array(xs)`` the same IEEE
    steps over an array (NumPy fuses no multiply and add), in the same band,
    both with ``np.log``, and padding keeps a row's bits: a point has the
    same bits alone or inside any array, stacked with any other kernels."""

    def __init__(self, a: float, b: float, c: float, cfg: SeriesConfig | None = None):
        _check_params(a, b, c)
        if b < a:
            a, b = b, a
        if not (-1.0 < a < 0.0 < b and abs(c - a - b - 1.0) <= _EXCESS_SNAP):
            raise DomainError(f"kernels need -1 < a < 0 < b and c = a+b+1, got "
                              f"({a!r}, {b!r}; {c!r})")
        self.a, self.b, self.c = a, b, c
        self.cfg = DEFAULT_SERIES if cfg is None else cfg
        self._sets = None
        self._floats = {}

    @property
    def ends(self):
        """(F(1), F'(0)): A and t_1 = ab/c, read from the kernel's block."""
        _build([self])
        block, i = self._sets
        return float(block.A[i]), float(block.t[0, i, 1])

    def _band_set(self, regime, band):
        """A band's coefficient set over Python floats, highest first."""
        if (regime, band) not in self._floats:
            _build([self])
            block, i = self._sets
            if regime == "series":
                s = block.t[0, i, block.n_series[i, band] - 1::-1].tolist()
            else:
                n = block.n_log[i, band]
                s = _Log(float(block.A[i]), float(block.B[i]), *block.pq[:, i, n - 1::-1].tolist())
            self._floats[regime, band] = s
        return self._floats[regime, band]

    def __call__(self, x: float) -> float:
        if not (0.0 <= x < 1.0):
            raise DomainError(f"argument must satisfy 0 <= x < 1, got {x!r}")
        if x <= self.cfg.switch_point:
            return float(_horner(self._band_set("series", bisect_left(_EDGES["series"], x)), x))
        return float(_log_at(self._band_set("log", bisect_left(_EDGES["log"], 1.0 - x)), x))

    def array(self, xs) -> np.ndarray:
        """Values at every entry of the 1-D array ``xs``."""
        return evaluate([self], np.asarray(xs, dtype=float)[None, :])[0]


def evaluate(kernels, xs) -> np.ndarray:
    """F at a (kernels x points) array ``xs``, row i at the points of
    kernels[i], each value as ``kernels[i](x)`` gives it.  Kernels without
    coefficients get them in one build (_build); each regime and band then
    runs one Horner loop over the rows with points in it, their points
    moved to the front and padded with zeros, whose values are dropped."""
    xs = np.asarray(xs, dtype=float)
    bad = ~((xs >= 0.0) & (xs < 1.0))
    if bad.any():
        raise DomainError(f"argument must satisfy 0 <= x < 1, got {float(xs[bad][0])!r}")
    _build(kernels)
    n_series = len(_EDGES["series"]) + 1
    low = xs <= np.array([k.cfg.switch_point for k in kernels])[:, None]
    band = sum((xs > e for e in _EDGES["series"]), np.zeros(xs.shape, np.uint8))
    log_band = sum((1.0 - xs > e for e in _EDGES["log"]), np.full_like(band, n_series))
    group = np.where(low, band, log_band)
    blocks = list({id(k._sets[0]): k._sets[0] for k in kernels}.values())
    first = dict(zip(map(id, blocks), np.cumsum([0] + [len(b.A) for b in blocks]).tolist()))
    block = blocks[0] if len(blocks) == 1 else _Block(
        *(_cat(f) if f[0].ndim > 1 else np.concatenate(f) for f in zip(*blocks)))
    at = np.array([first[id(k._sets[0])] + k._sets[1] for k in kernels])
    out = np.empty_like(xs)
    for g in np.flatnonzero(np.bincount(group.ravel())).tolist():
        mask = group == g
        counts = np.count_nonzero(mask, axis=1)
        sel = np.flatnonzero(counts)
        counts, r = counts[sel], at[sel]
        # boolean indexing runs row by row: each row's points land in order
        real = np.arange(counts.max()) < counts[:, None]
        pts = np.zeros(real.shape)
        pts[real] = xs[mask]
        if g < n_series:
            res = _horner(_coefs(block.t, r, block.n_series[r, g])[:, 0], pts)
        else:
            pq = _coefs(block.pq, r, block.n_log[r, g - n_series])
            res = _log_at(_Log(block.A[r, None], block.B[r, None], pq, None), pts)
        out[mask] = res[real]
    return out


__all__ = ["Hyp2f1Kernel", "evaluate"]
