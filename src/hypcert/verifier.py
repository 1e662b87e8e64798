"""Numerical certification of the comparison claims.

The object under study is

    G(x) = [F(a-1-delta, b+delta; p; 1-x^d) - F(a-1, b; p; 1-x^c)] / (1-x^c)

on x in (0,1).  For admissible parameters and shifts delta <= delta1 the
claims are: G decreases strictly from c2(delta) at 0+ to c1(delta) at 1-,
which yields the two-sided sandwich

    F_c + c1*(1-x^c)  <  F_d  <  F_c + c2*(1-x^c),

and for delta above the threshold the difference F_d - F_c changes sign.
Each claim becomes a grid check that reports a worst margin; the auxiliary
polynomial/lemma facts (g, g1, Q, the boundary polynomial f4, beta-function
convexity, convexity of the difference along the c-argument) get checks of
their own.  A suite run sweeps a fixed parameter sample and merges all
results into a deterministic JSON report.

Margin convention: every check reduces to a single ``worst_margin`` float,
the signed distance to its tightest constraint; the check passes iff the
margin is positive (skipped checks report status and pass vacuously).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .constants import (
    CHECK_IDS,
    Case,
    ExponentPair,
    ParamPair,
    c1,
    c2,
    condition_case,
    delta1,
    delta1_alpha_variant,
    derive_params,
    f4,
)
from .errors import ConvergenceError, DomainError
from .hyp2f1 import DEFAULT_SERIES, SeriesConfig
from .kernels import Hyp2f1Kernel, evaluate
from .special import beta as beta_fn

# Strictness thresholds shared across checks: theorem inequalities are
# strict, so interior margins must clear INTERIOR_MARGIN; consecutive-
# difference monotonicity gets MONOTONE_SLACK of room where cancellation
# dominates; G's limits at 0+ and 1-, read from the kernels' coefficients,
# must match the closed-form constants to ENDPOINT_TOL.
INTERIOR_MARGIN = 1e-12
MONOTONE_SLACK = 1e-9
ENDPOINT_TOL = 1e-5

_TANH_GAMMA = 3.0

_SPACINGS = ("clustered", "uniform")


@dataclass(frozen=True)
class GridSpec:
    """Abscissa grid on (0,1); clustered spacing piles points toward both
    endpoints, where the limits live."""

    n_points: int = 512
    x_lo: float = 1e-4
    x_hi: float = 1.0 - 1e-4
    spacing: str = "clustered"

    def __post_init__(self) -> None:
        if self.n_points < 16:
            raise DomainError(f"need n_points >= 16, got {self.n_points!r}")
        if not (0.0 < self.x_lo < self.x_hi < 1.0):
            raise DomainError(
                f"need 0 < x_lo < x_hi < 1, got ({self.x_lo!r}, {self.x_hi!r})"
            )
        if self.spacing not in _SPACINGS:
            raise DomainError(
                f"spacing must be one of {_SPACINGS}, got {self.spacing!r}"
            )


DEFAULT_GRID = GridSpec()


def make_grid(spec: GridSpec) -> np.ndarray:
    """Strictly increasing abscissas from x_lo to x_hi inclusive."""
    if spec.spacing == "uniform":
        return np.linspace(spec.x_lo, spec.x_hi, spec.n_points)
    u = np.linspace(-1.0, 1.0, spec.n_points)
    mid = 0.5 * (spec.x_lo + spec.x_hi)
    half = 0.5 * (spec.x_hi - spec.x_lo)
    xs = mid + half * np.tanh(_TANH_GAMMA * u) / math.tanh(_TANH_GAMMA)
    xs[0], xs[-1] = spec.x_lo, spec.x_hi  # the map rounds an ulp off the ends
    return xs


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check.

    ``worst_margin`` is the signed distance to the tightest constraint
    (positive = satisfied); ``witnesses`` is a list of [input, value] pairs
    pinning down where the margin was attained (always non-empty on
    failure); ``status`` is "ok" or "skipped: <reason>" -- skipped checks
    pass vacuously.
    """

    check_id: str
    params: dict
    passed: bool
    worst_margin: float
    witnesses: list
    tolerance_used: float
    status: str = "ok"


def _skipped(check_id: str, params: dict, reason: str) -> CheckResult:
    return CheckResult(check_id, params, True, 0.0, [], 0.0, f"skipped: {reason}")


def _worst(*margins):
    """The smallest margin, or NaN if any is (the builtin min can drop one)."""
    return math.nan if any(m != m for m in margins) else min(margins)


def _result(check_id, params, margin, witnesses, tol) -> CheckResult:
    return CheckResult(check_id, params, bool(margin > 0.0), float(margin), witnesses, float(tol))


# ---------------------------------------------------------------------------
# The report's JSON: the text json.dumps(body, sort_keys=True, indent=2)
# gives, written by hand, since under indent json.dumps runs its pure-Python
# encoder


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _block(open_, items, close, pad) -> str:
    """Rendered items between brackets, as json.dumps lays them out: one
    per line, indented two spaces past ``pad``, or on one line, separated
    by ", ", when pad is None."""
    if not items:
        return open_ + close
    if pad is None:
        return open_ + ", ".join(items) + close
    inner = "\n" + pad + "  "
    return open_ + inner + ("," + inner).join(items) + "\n" + pad + close


def _json(v, pad=None) -> str:
    """json.dumps(v, sort_keys=True, indent=2) of v opened on a line
    indented by ``pad``, or json.dumps(v, sort_keys=True) when pad is None.
    Leaves as json.dumps writes them: float.__repr__ (NaN, Infinity and
    -Infinity for the special values), the ASCII-escaped string, true,
    false, int.__repr__ and null.  A value json.dumps rejects raises
    TypeError here too, and so does a dict key that is not a string."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if v is None:
        return "null"
    inner = None if pad is None else pad + "  "
    if isinstance(v, (list, tuple)):
        return _block("[", [_json(x, inner) for x in v], "]", pad)
    if isinstance(v, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(x, inner)}" for k, x in sorted(v.items())]
        return _block("{", items, "}", pad)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


# a record's place in the report: inside "checks", two levels down
_RECORD_PAD = "    "
_FIELD_PAD = _RECORD_PAD + "  "


def _render(r: CheckResult):
    """(sort key, text, r): the canonical key (check_id, json.dumps(params,
    sort_keys=True)) and r's record as the report prints it."""
    params = [f"{encode_basestring_ascii(k)}: {_json(v, _FIELD_PAD + '  ')}"
              for k, v in sorted(r.params.items())]
    flat = _block("{", params, "}", None)
    if "\n" in flat:  # a leaf never holds a newline, so a param is a container
        flat = _json(r.params)
    text = _block("{", [
        f'"check_id": {_json(r.check_id)}',
        f'"params": {_block("{", params, "}", _FIELD_PAD)}',
        f'"passed": {_json(r.passed)}',
        f'"status": {_json(r.status)}',
        f'"tolerance_used": {_json(r.tolerance_used)}',
        f'"witnesses": {_json(r.witnesses, _FIELD_PAD)}',
        f'"worst_margin": {_json(r.worst_margin)}',
    ], "}", _RECORD_PAD)
    return (r.check_id, flat), text, r


@dataclass(frozen=True)
class Report:
    """Merged, canonically ordered results of a suite or single-check run.

    ``records`` holds each check's record text, rendered where the check
    ran (in the pool worker, on a pooled run); to_json_text only joins
    them with the rendered ``meta``."""

    meta: dict
    checks: tuple
    passed: bool
    records: tuple = field(repr=False)

    def to_json_text(self) -> str:
        # one join puts the records into the text: joining them first and
        # then the whole would hold a second copy of them all
        end = f',\n  "meta": {_json(self.meta, "  ")},\n  "passed": {_json(self.passed)}\n}}\n'
        if not self.records:
            return '{\n  "checks": []' + end
        pieces = [",\n" + _RECORD_PAD] * (2 * len(self.records) + 1)
        pieces[1::2] = self.records
        pieces[0], pieces[-1] = '{\n  "checks": [\n' + _RECORD_PAD, "\n  ]" + end
        return "".join(pieces)


def _build_report(meta: dict, rendered) -> Report:
    """The report of _render's triples, sorted by their keys (a tie keeps
    its input order)."""
    rendered = sorted(rendered, key=itemgetter(0))
    checks = tuple(r for _, _, r in rendered)
    return Report(meta, checks, all(c.passed for c in checks), tuple(t for _, t, _ in rendered))


# ---------------------------------------------------------------------------
# G and its envelopes


def _one_minus_pow(e, x, x_lo=0.0):
    """1 - x^e of a float or (entrywise) of an array, formed through expm1
    so that it stays accurate at both ends: of log1p(x-1) from x_lo up, of
    log(x) below it, where x-1 would lose x (below about 1e-8) and 1 - x^e
    round to 1.  NumPy's ufuncs give an entry the same bits alone or inside
    any array."""
    return -np.expm1(e * np.where(x < x_lo, np.log(x), np.log1p(x - 1.0)))


def _kernel_c(pp, cfg):
    """The kernel of F_c = F(a-1, b; p; .)."""
    return Hyp2f1Kernel(pp.a - 1.0, pp.b, pp.a + pp.b, cfg)


def _kernel_d(pp, delta, cfg):
    """The kernel of F_d = F(a-1-delta, b+delta; p; .)."""
    return Hyp2f1Kernel(pp.a - 1.0 - delta, pp.b + delta, pp.a + pp.b, cfg)


def _pair_values(pp, ep, delta, xs, cfg):
    """(F_c, F_d, 1-x^c) over the abscissa array xs."""
    w_c = _one_minus_pow(ep.c_exp, xs)
    f_c, f_d = evaluate([_kernel_c(pp, cfg), _kernel_d(pp, delta, cfg)],
                        np.stack([w_c, _one_minus_pow(ep.d_exp, xs)]))
    return f_c, f_d, w_c


def G_value(pp: ParamPair, ep: ExponentPair, delta: float, x: float,
            cfg: SeriesConfig = DEFAULT_SERIES) -> float:
    """The difference quotient G(x); 0 identically when delta = 0 and
    c = d (the numerator vanishes term by term)."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"need x in (0,1), got {x!r}")
    if delta == 0.0 and ep.c_exp == ep.d_exp:
        return 0.0
    f_c, f_d, w_c = _pair_values(pp, ep, delta, np.array([x]), cfg)
    return float((f_d[0] - f_c[0]) / w_c[0])


# fpp_positive's points x and difference step
_FPP_XS = np.linspace(0.01, 0.95, 48)
_FPP_STEP = 1e-4


def _abscissas(ep, grid):
    """(x, arguments of F_c, arguments of F_d) over the abscissas of a
    column with exponents ep: the scan, the grid, the near-1 tail and the
    near-0 head (unsorted), with 1-x^c and 1-x^d; then fpp_positive's
    points x-step, x, x+step, with x and t(x) = 1-(1-x)^(d/c)."""
    scan = np.concatenate([make_grid(grid), _tail_abscissas(ep), _head_abscissas(ep, grid.x_lo)])
    fpp = np.concatenate([_FPP_XS - _FPP_STEP, _FPP_XS, _FPP_XS + _FPP_STEP])
    return (np.concatenate([scan, fpp]),
            np.concatenate([_one_minus_pow(ep.c_exp, scan, grid.x_lo), fpp]),
            np.concatenate([_one_minus_pow(ep.d_exp, scan, grid.x_lo),
                            -np.expm1(ep.d_exp / ep.c_exp * np.log1p(-fpp))]))


class _Column:
    """One (pair, exponent pair) and the work its checks share, each done
    once: the gate (_gate), the abscissas and the hypergeometric values.

    The abscissas are one array, the scan (the grid, the near-1 tail and
    the near-0 head, read sorted) and then fpp_positive's points; see
    _abscissas.  A value is F_c (shift None) or F_d at a shift over all of
    them.  _fetch gets the values the checks will read in one call with
    the other columns of a pool item; a value it did not get, or every
    value once the call raises, is computed when first read, so a check
    meets exactly the error it would meet alone.  A single point (a
    localization step) takes the same kernels and ufuncs, so it has the
    bits an array would give it.

    ``kernels`` maps a shift to its F_d kernel, None to F_c's; neither
    depends on the exponents, so the columns of one pair can share one
    dict, and each kernel builds its coefficients once for all of them.
    """

    def __init__(self, pp: ParamPair, ep: ExponentPair,
                 grid: GridSpec = DEFAULT_GRID, cfg: SeriesConfig = DEFAULT_SERIES,
                 kernels=None):
        self.pp, self.ep, self.grid, self.cfg = pp, ep, grid, cfg
        xs, self._args_c, self._args_d = _abscissas(ep, grid)
        self._n_scan = n = len(xs) - 3 * len(_FPP_XS)
        self.grid_xs = xs[:grid.n_points]
        # grid first, then tail: the stable sort keeps a tie in that order
        self._order = np.argsort(xs[:n], kind="stable")
        self.scan_xs = xs[self._order]
        self._kernels = {} if kernels is None else kernels
        if None not in self._kernels:
            self._kernels[None] = _kernel_c(pp, cfg)
        self.kernel_c = self._kernels[None]
        self._values = {}

    @cached_property
    def gate(self):
        return _gate(self.pp, self.ep)

    def kernel_d(self, delta):
        """The kernel of F_d at shift delta."""
        if delta not in self._kernels:
            self._kernels[delta] = _kernel_d(self.pp, delta, self.cfg)
        return self._kernels[delta]

    def _kernel(self, delta):
        return self.kernel_c if delta is None else self.kernel_d(delta)

    def _value(self, delta):
        """F_c (delta None) or F_d at delta over the column's abscissas."""
        if delta not in self._values:
            self._values[delta] = self._kernel(delta).array(
                self._args_c if delta is None else self._args_d)
        return self._values[delta]

    def G(self, *deltas):
        """G at the grid abscissas, one row per shift of deltas."""
        n = len(self.grid_xs)
        return (np.stack([self._value(d)[:n] for d in deltas]) - self._value(None)[:n]) \
            / self._args_c[:n]

    def differences(self, delta):
        """F_d - F_c at the scan abscissas."""
        n = self._n_scan
        return (self._value(delta)[:n] - self._value(None)[:n])[self._order]

    def difference_at(self, delta, x: float) -> float:
        """F_d - F_c at one abscissa."""
        return (self.kernel_d(delta)(float(_one_minus_pow(self.ep.d_exp, x, self.grid.x_lo)))
                - self.kernel_c(float(_one_minus_pow(self.ep.c_exp, x, self.grid.x_lo))))

    def fpp_differences(self, *deltas):
        """f(x) = F(a-1-delta, b+delta; p; t(x)) - F(a-1, b; p; x) at x-step,
        x and x+step for the fpp points x (_FPP_XS), a (deltas, 3, points)
        array; with t(x) = 1-(1-x)^(d/c)."""
        n = self._n_scan
        return (np.stack([self._value(d)[n:] for d in deltas])
                - self._value(None)[n:]).reshape(len(deltas), 3, -1)


def _gate(pp, ep):
    """Why (pp, ep) is out of scope, or the threshold d1 when admissible."""
    dp = derive_params(pp)
    if condition_case(dp) is Case.INADMISSIBLE:
        return "inadmissible parameter pair"
    if not (0.0 < ep.ratio <= dp.ratio_bound):
        return "exponent ratio above admissible bound"
    return delta1(pp, ep)


def _admissibility_gate(check_id, params, pp, ep, column=None):
    """Common precondition gate, ``column``'s when given one: (None, d1)
    when admissible, else (skip-result, None)."""
    gate = column.gate if column is not None else _gate(pp, ep)
    if isinstance(gate, str):
        return _skipped(check_id, params, gate), None
    return None, gate


def _theorem_params(pp, ep, delta):
    return {"a": pp.a, "b": pp.b, "c": ep.c_exp, "d": ep.d_exp, "delta": delta}


def _monotone_gate(check_id, params, pp, ep, column):
    """The skip record of a check on the range a-1 < delta <= d1, or None."""
    skip, d1 = _admissibility_gate(check_id, params, pp, ep, column)
    if skip is None and not (pp.a - 1.0 < params["delta"] <= d1):
        return _skipped(check_id, params, "shift outside monotone range")
    return skip


def _monotone_pass(pp, ep, rows, grid, cfg, column):
    """The results of rows, (check id, shift) pairs of G_monotone, sandwich
    and fpp_positive on (pp, ep), in one pass: one G matrix (a row per
    shift), with c1, c2 and the kernels' ends once per shift, and one
    matrix of fpp_positive's second differences.  A row-wise argmin picks
    what np.argmin picks on the row alone (its first minimum or first
    NaN), so a record has the bits it has alone; each public check is this
    pass on one row."""
    skips = [_monotone_gate(c, _theorem_params(pp, ep, d), pp, ep, column) for c, d in rows]
    live = {row for row, skip in zip(rows, skips) if skip is None}
    if not live:
        return skips
    col = column if column is not None else _Column(pp, ep, grid, cfg)
    done = {}
    shifts = list(dict.fromkeys(d for c, d in rows if (c, d) in live and c != "fpp_positive"))
    if shifts:
        quots = col.G(*shifts)
        steps = np.diff(quots, axis=1)
        slack = MONOTONE_SLACK - steps
        lows, highs = [c1(pp, ep, d) for d in shifts], [c2(pp, d) for d in shifts]
        gap = np.minimum(quots - np.array(lows)[:, None], np.array(highs)[:, None] - quots)
        margins = gap - INTERIOR_MARGIN
        firsts = zip(shifts, lows, highs, np.argmin(slack, axis=1).tolist(),
                     np.argmin(margins, axis=1).tolist())
        for j, (delta, low, high, i, k) in enumerate(firsts):
            params, margin = _theorem_params(pp, ep, delta), float(margins[j, k])
            witnesses = [] if margin > 0.0 else [[float(col.grid_xs[k]), float(gap[j, k])]]
            done["sandwich", delta] = _result("sandwich", params, margin, witnesses,
                                              INTERIOR_MARGIN)
            if ("G_monotone", delta) not in live:
                continue
            worst = [float(slack[j, i])]
            witnesses = [] if worst[0] > 0.0 else [[float(col.grid_xs[i]), float(steps[j, i])]]
            (one_d, t_d), (one_c, t_c) = col.kernel_d(delta).ends, col.kernel_c.ends
            for x_end, limit, want in ((0.0, one_d - one_c, high),
                                       (1.0, ep.d_exp / ep.c_exp * t_d - t_c, low)):
                err = abs(limit - want)
                worst.append(ENDPOINT_TOL - err)
                if not worst[-1] > 0.0:
                    witnesses.append([x_end, err])
            done["G_monotone", delta] = _result("G_monotone", params, _worst(*worst),
                                                witnesses, MONOTONE_SLACK)
    shifts = list(dict.fromkeys(d for c, d in rows if (c, d) in live and c == "fpp_positive"))
    if shifts:
        diffs = col.fpp_differences(*shifts)
        second = (diffs[:, 0] - 2.0 * diffs[:, 1] + diffs[:, 2]) / _FPP_STEP**2
        margins = second + 1e-6
        for j, (delta, i) in enumerate(zip(shifts, np.argmin(margins, axis=1).tolist())):
            margin = float(margins[j, i])
            witnesses = [] if margin > 0.0 else [[float(_FPP_XS[i]), float(second[j, i])]]
            done["fpp_positive", delta] = _result("fpp_positive", _theorem_params(pp, ep, delta),
                                                  margin, witnesses, 1e-6)
    return [skip or done[row] for skip, row in zip(skips, rows)]


def check_G_monotone(pp: ParamPair, ep: ExponentPair, delta: float,
                     grid: GridSpec = DEFAULT_GRID,
                     cfg: SeriesConfig = DEFAULT_SERIES,
                     column: _Column | None = None) -> CheckResult:
    """Strict decrease of G across the grid, and G's limits to ENDPOINT_TOL,
    read exactly from the kernels (ends): G(0+) = F_d(1) - F_c(1) = c2(delta)
    by Gauss's sum, G(1-) = (d/c) F_d'(0) - F_c'(0) = c1(delta).

    This and the checks below read their values from ``column``, the
    _Column of (pp, ep), or from one they build from grid and cfg."""
    return _monotone_pass(pp, ep, [("G_monotone", delta)], grid, cfg, column)[0]


def check_sandwich(pp: ParamPair, ep: ExponentPair, delta: float,
                   grid: GridSpec = DEFAULT_GRID,
                   cfg: SeriesConfig = DEFAULT_SERIES,
                   column: _Column | None = None) -> CheckResult:
    """Two-sided envelope: at every grid point the difference quotient
    (F_d - F_c)/w lies strictly between c1 and c2 with margin above
    INTERIOR_MARGIN.  Margins are taken on the quotient rather than on F
    itself: the raw gap F_d - (F_c + c1*w) collapses like w^2 as x -> 1
    at the threshold shift, while the identical strict inequality keeps
    a ~1e-8 quotient margin there."""
    return _monotone_pass(pp, ep, [("sandwich", delta)], grid, cfg, column)[0]


def _tail_abscissas(ep):
    """160 abscissas crowding x = 1: w_c from 1e-8 up to 0.3, mapped back
    through x = (1-w_c)^(1/c).  The sign change for shifts just above the
    threshold lives in this tail."""
    ws = np.logspace(-8.0, math.log10(0.3), 160)
    return np.exp(np.log1p(-ws) / ep.c_exp)


def _head_abscissas(ep, x_lo):
    """64 abscissas below the grid, log-spaced from max(1e-12, 10^(-15/d)),
    where x^d >= 1e-15, up to x_lo, left out: for shifts just above the
    threshold the sign change can lie here."""
    xs = np.logspace(math.log10(max(1e-12, 10.0 ** (-15.0 / ep.d_exp))), math.log10(x_lo), 65)
    return xs[xs < x_lo]


def _localize(f, lo, f_lo, hi, f_hi):
    """A point where |f| <= INTERIOR_MARGIN inside the bracket (lo, hi),
    f(lo) = f_lo > 0 > f_hi = f(hi), by Illinois regula falsi (Dowell &
    Jarratt, BIT 11, 1971): each step evaluates the secant point, or the
    midpoint when the secant point is not strictly inside, and halves the
    value of an end kept twice in a row.  After 48 steps without such a
    point, the bracket's midpoint."""
    moved = 0  # +1 after a step that moved lo, -1 after one that moved hi
    for _ in range(48):
        x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= INTERIOR_MARGIN:
            return x
        if fx > 0.0:
            lo, f_lo, f_hi = x, fx, f_hi * (0.5 if moved > 0 else 1.0)
            moved = 1
        else:
            hi, f_hi, f_lo = x, fx, f_lo * (0.5 if moved < 0 else 1.0)
            moved = -1
    return 0.5 * (lo + hi)


def _sign_scan(col, delta):
    """(margin, witnesses, differences) of one scan of F_d - F_c over col's
    scan abscissas (the grid, the near-1 tail and the near-0 head, sorted):
    the margin by which its largest value exceeds INTERIOR_MARGIN and its
    smallest falls below -INTERIOR_MARGIN, the lesser of the two, and the
    points of both as witnesses."""
    xs, ds = col.scan_xs, col.differences(delta)
    i_pos, i_neg = int(np.argmax(ds)), int(np.argmin(ds))
    best_pos, best_neg = float(ds[i_pos]), float(ds[i_neg])
    margin = _worst(best_pos, -best_neg) - INTERIOR_MARGIN
    return margin, [[float(xs[i_pos]), best_pos], [float(xs[i_neg]), best_neg]], ds


def find_crossing(pp: ParamPair, ep: ExponentPair, delta: float,
                  grid: GridSpec = DEFAULT_GRID,
                  cfg: SeriesConfig = DEFAULT_SERIES,
                  column: _Column | None = None) -> CheckResult:
    """Both-sign witnesses for F_d - F_c when the shift exceeds the
    threshold: a point with difference > INTERIOR_MARGIN and one with
    difference < -INTERIOR_MARGIN, found by one scan (_sign_scan).  The
    margin comes from the scan alone; _localize then finds a
    "crossing_near" witness between the last strong positive and the first
    strong negative."""
    params = _theorem_params(pp, ep, delta)
    skip, d1 = _admissibility_gate("crossing", params, pp, ep, column)
    if skip is not None:
        return skip
    if not (d1 < delta < 0.0):
        return _skipped("crossing", params, "shift not above the threshold")

    col = column if column is not None else _Column(pp, ep, grid, cfg)
    margin, witnesses, ds = _sign_scan(col, delta)
    if margin > 0.0:
        xs = col.scan_xs
        j = int(np.argmax(ds < -INTERIOR_MARGIN))
        strong = np.flatnonzero(ds[:j] > INTERIOR_MARGIN)
        if strong.size:
            i = strong[-1]
            near = _localize(lambda x: col.difference_at(delta, x),
                             float(xs[i]), float(ds[i]), float(xs[j]), float(ds[j]))
            witnesses.append(["crossing_near", near])
    return _result("crossing", params, margin, witnesses, INTERIOR_MARGIN)


def check_crossing_control(pp: ParamPair, ep: ExponentPair, delta: float,
                           grid: GridSpec = DEFAULT_GRID,
                           cfg: SeriesConfig = DEFAULT_SERIES,
                           column: _Column | None = None) -> CheckResult:
    """Absence control: just below the threshold no scanned point may show
    F_d - F_c < -INTERIOR_MARGIN (up to grid resolution)."""
    params = _theorem_params(pp, ep, delta)
    skip, d1 = _admissibility_gate("crossing_control", params, pp, ep, column)
    if skip is not None:
        return skip
    if not (pp.a - 1.0 < delta <= d1):
        return _skipped("crossing_control", params, "shift above the threshold")

    col = column if column is not None else _Column(pp, ep, grid, cfg)
    ds = col.differences(delta)
    i_min = int(np.argmin(ds))
    margin = float(ds[i_min]) + INTERIOR_MARGIN
    witnesses = [] if margin > 0.0 else [[float(col.scan_xs[i_min]), float(ds[i_min])]]
    return _result("crossing_control", params, margin, witnesses, INTERIOR_MARGIN)


def _sharpness_candidate(pp, ep, threshold_form, d1):
    """The shift sharpness characterizes: delta1 (given as d1), or its
    rejected variant."""
    return d1 if threshold_form == "beta" else delta1_alpha_variant(pp, ep)


def _sharpness_shifts(cand):
    """The shifts above cand at which sharpness needs a crossing: cand + 1e-3
    and cand + 1e-2, each replaced by cand/2 where it would reach 0."""
    return list(dict.fromkeys(cand + eps if cand + eps < 0.0 else 0.5 * cand
                              for eps in (1e-3, 1e-2)))


def check_sharpness(pp: ParamPair, ep: ExponentPair, threshold_form: str = "beta",
                    grid: GridSpec = DEFAULT_GRID,
                    cfg: SeriesConfig = DEFAULT_SERIES,
                    column: _Column | None = None) -> CheckResult:
    """Supremum characterization of the threshold: at the candidate shift
    the strict inequality F_c < F_d holds grid-wide (tested on the
    difference quotient, whose margin stays scale-uniform where the raw
    gap collapses like w^2), while nudging the shift up by 1e-3 and 1e-2
    (clipped below 0; fallback: halfway to 0) produces a sign change.  The
    sign change is read off find_crossing's scan (_sign_scan) alone: a
    failure reports the scan's two witnesses, and no crossing is localized.
    Run with threshold_form="alpha" this check uses the rejected variant
    constant and is expected to fail."""
    if threshold_form not in ("beta", "alpha"):
        raise DomainError(f"threshold_form must be beta|alpha, got {threshold_form!r}")
    params = {"a": pp.a, "b": pp.b, "c": ep.c_exp, "d": ep.d_exp,
              "threshold_form": threshold_form}
    skip, d1 = _admissibility_gate("sharpness", params, pp, ep, column)
    if skip is not None:
        return skip
    cand = _sharpness_candidate(pp, ep, threshold_form, d1)

    col = column if column is not None else _Column(pp, ep, grid, cfg)
    quots = col.G(cand)[0]
    i_min = int(np.argmin(quots))
    margins = [float(quots[i_min]) - INTERIOR_MARGIN]
    witnesses = [] if margins[0] > 0.0 else [[float(col.grid_xs[i_min]), float(quots[i_min])]]

    for nudged in _sharpness_shifts(cand):
        if not (d1 < nudged < 0.0):
            # nudged shift fell outside (threshold, 0): counts as a failure
            # of the characterization at this form
            witnesses.append([f"no crossing range at shift {nudged!r}", 0.0])
            margins.append(-1.0)
            continue
        margin, scan_witnesses, _ = _sign_scan(col, nudged)
        if not margin > 0.0:
            witnesses.extend(scan_witnesses)
        margins.append(margin)

    return _result("sharpness", params, _worst(*margins), witnesses, INTERIOR_MARGIN)


# ---------------------------------------------------------------------------
# Lemma-level checks


def isolate_roots_f4(n_scan: int = 10_000):
    """The two zeros of the case-boundary polynomial f4 on (0,1), found by
    sign scan and bisection.  Raises if the scan does not see exactly two
    sign changes."""
    xs = np.linspace(1e-4, 1.0 - 1e-4, n_scan)
    # f4 is plain arithmetic: over the array, each entry gets f4(x)'s bits
    signs = np.sign(f4(xs))
    flips = np.flatnonzero(signs[:-1] * signs[1:] < 0).tolist()
    if len(flips) != 2:
        raise DomainError(f"expected exactly two sign changes of f4, saw {len(flips)}")
    roots = []
    for i in flips:
        lo, hi = float(xs[i]), float(xs[i + 1])
        flo = f4(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = f4(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (flo < 0.0) == (fm < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo < 1e-16:
                break
        roots.append(0.5 * (lo + hi))
    return roots[0], roots[1]


def _f4_cofactor(a):
    """q(a) = 4a^4 - 16a^3 + 23a^2 - 14a + 2, the quartic factor of
    f4'(a) = -8(a-1)(a^2-2a+2) q(a).  The other factors are positive
    together on (0,1), so f4' has the sign of q there."""
    return ((4.0 * a - 16.0) * a + 23.0) * a * a - 14.0 * a + 2.0


def check_f4_roots(n_scan: int = 10_000) -> CheckResult:
    """Root isolation for f4: exactly two zeros in (0,1) with residual
    <= INTERIOR_MARGIN, and f4' changes sign exactly once on a scan of
    (0,1), between them -- so f4 rises to one maximum and falls again, and
    the two isolated zeros are its only ones there."""
    params = {"n_scan": n_scan}
    try:
        a0, a1 = isolate_roots_f4(n_scan)
    except DomainError as exc:
        return CheckResult("f4_roots", params, False, -1.0, [[str(exc), 0.0]],
                           INTERIOR_MARGIN)
    margin = _worst(INTERIOR_MARGIN - abs(f4(a0)), INTERIOR_MARGIN - abs(f4(a1)))
    witnesses = [[a0, f4(a0)], [a1, f4(a1)]]

    xs = np.linspace(1e-4, 1.0 - 1e-4, 2000)
    negative = _f4_cofactor(xs) < 0.0
    flips = np.flatnonzero(negative[:-1] != negative[1:])
    if not (len(flips) == 1 and a0 < xs[flips[0]] and xs[flips[0] + 1] < a1):
        margin = _worst(margin, -1.0)
        witnesses.append([f"f4' sign changes at {xs[flips].tolist()}", 0.0])
    return _result("f4_roots", params, margin, witnesses, INTERIOR_MARGIN)


def _integers(*xs):
    """(D, [x * D for x in xs]): the floats xs as integers over their
    common (power-of-two) denominator D."""
    ratios = [x.as_integer_ratio() for x in xs]
    D = math.lcm(*(den for _, den in ratios))
    return D, [num * (D // den) for num, den in ratios]


def _toward_zero(num, den):
    """num/den (den > 0) rounded toward zero, never larger in size than
    the exact value: int / int rounds to nearest, and one step toward 0
    undoes an overshoot."""
    q = num / den
    m, k = q.as_integer_ratio()
    return math.nextafter(q, 0.0) if abs(m) * den > abs(num) * k else q


def _g1_exact(pp):
    """(slope, least, lo, y, X) of the boundary quadratic g1 on [lo, 0],
    lo = -h/(alpha k), exactly for the float inputs a and b: g1'(lo) and
    g1's least value as (num, den) pairs, den > 0; then lo, the point y
    where the least value lies and X = (beta+p)/k, as floats.

    With a = A/D, b = B/D (_integers): p = P/D, alpha = At/D^2,
    beta = Bt/D^2, p+beta = S/D^2 and k = K/D^3.  g1' rises, so the least
    value is g1(lo) = beta^2 p(p+beta)/k^2 when s = p^2 - 2 beta(p+beta) =
    k g1'(lo) >= 0, else the vertex value (4h(p+beta) - p^4)/(4k^2) at
    -p^2/(2k)."""
    D, (A, B) = _integers(pp.a, pp.b)
    P, At, Bt = A + B, A * (B + D), B * (D - A)
    S = P * D + Bt
    K = Bt * (P + D) + P * D * D
    s = P * P * D * D - 2 * Bt * S  # D^4 s
    lo = -Bt * S / (D * K)
    if s >= 0:
        least, y = (Bt * Bt * P * S, D * K * K), lo
    else:
        least, y = (4 * At * Bt * S * S - P ** 4 * D ** 4, 4 * D * D * K * K), -P * P * D / (2 * K)
    return (s, D * K), least, lo, y, S * D / K


def check_lemma_g(pp: ParamPair) -> CheckResult:
    """Positivity of g on the closed wedge 0 <= x <= X = (beta+p)/k,
    -beta*x <= y <= 0, off its corner (0, 0), decided exactly (_g1_exact):
    the margin is g1's least value on [-h/(alpha k), 0] rounded toward
    zero, and a failure's witness is [X, y], y where that value lies.

    Three facts reduce g to g1.  g's Hessian has determinant
    4 alpha beta - (p+1)^2 < 0, as alpha + beta = p, so g has no local
    minimum: its least value on the wedge lies on the boundary.  On the
    edge y = 0, g = alpha beta x^2, and on y = -beta x, g = beta x (1-x);
    both are > 0 for 0 < x <= X, and X < 1 as k - beta - p = beta p.  On
    x = X, g(X, y) = g1(y), and -beta X = -h/(alpha k)."""
    params = {"a": pp.a, "b": pp.b}
    dp = derive_params(pp)
    if condition_case(dp) is Case.INADMISSIBLE:
        return _skipped("lemma_g", params, "inadmissible parameter pair")
    _, least, _, y, X = _g1_exact(pp)
    margin = _toward_zero(*least)
    witnesses = [] if margin > 0.0 else [[X, y]]
    return _result("lemma_g", params, margin, witnesses, 0.0)


def check_lemma_g1(pp: ParamPair) -> CheckResult:
    """Per-case behavior of the boundary quadratic g1 on [lo, 0],
    lo = -h/(alpha k), decided exactly (_g1_exact): strictly increasing
    when alpha >= sqrt(3)*beta (case A), with margin g1'(lo), and positive
    in the remaining admissible case, with margin g1's least value.  g1'
    rises, so g1'(lo) > 0 makes g1 increase on all of [lo, 0]; and
    k g1'(lo) = p^2 - 2 beta(p+beta) = alpha^2 - 3 beta^2, as
    alpha + beta = p.  The margin is rounded toward zero, and a failure's
    witness is [y, margin], y where it was attained."""
    params = {"a": pp.a, "b": pp.b}
    dp = derive_params(pp)
    case = condition_case(dp)
    if case is Case.INADMISSIBLE:
        return _skipped("lemma_g1", params, "inadmissible parameter pair")
    slope, least, lo, y, _ = _g1_exact(pp)
    value, at = (slope, lo) if case is Case.A else (least, y)
    margin = _toward_zero(*value)
    witnesses = [] if margin > 0.0 else [[at, margin]]
    return _result("lemma_g1", params, margin, witnesses, 0.0)


def _q1_at_one(pp, ep, delta):
    """(num, den), den > 0, with num/den = Q1(1) = u(v+1) q(2) - a(b+1) q(1)
    exactly for the float inputs a, b, delta, c and d, where u = a-delta,
    v = b+delta and q(n) = (c/d - 1)(u+v+n) + u(v+1) is Q's polynomial
    factor: each input is an integer over their common denominator D
    (_integers), and Python ints carry d D^4 Q1(1)."""
    D, (a, b, e, c, d) = _integers(pp.a, pp.b, delta, ep.c_exp, ep.d_exp)
    f2 = (a - e) * (b + e + D)  # D^2 u(v+1)
    q1, q2 = ((c - d) * D * (a + b + n * D) + d * f2 for n in (1, 2))  # d D^2 q(n)
    return f2 * q2 - a * (b + D) * q1, d * D ** 4


def check_lemma_Q(pp: ParamPair, ep: ExponentPair, delta: float,
                  column: _Column | None = None) -> CheckResult:
    """Q strictly decreasing in n >= 1 and eventually below any bound,
    decided exactly by the sign of Q1(1) (_q1_at_one); the margin is
    -Q1(1) rounded toward zero, so it never overstates the exact one, and a
    failure's witness is [1.0, Q1(1)].

    Q(n+1) - Q(n) = R(n) / ((a+n-1)(b+n)) * Q1(n), whose factor is
    positive: the gamma ratio R(n) has positive arguments for n >= 1 on the
    gate's range a-1 < delta <= d1.  Q1(n) = (c/d - 1)(n^2 + f1 n) + A falls
    on n >= 1, since c/d < 1 and f1 >= f1(0) = p - 1 >= 0 there; so Q1(1) < 0
    makes every step of Q negative, and Q1(1) >= 0 makes Q(2) >= Q(1).  As
    R(n) -> 1, Q(n) ~ (c/d - 1) n -> -inf, with no horizon to probe."""
    params = _theorem_params(pp, ep, delta)
    skip = _monotone_gate("lemma_Q", params, pp, ep, column)
    if skip is not None:
        return skip
    num, den = _q1_at_one(pp, ep, delta)
    margin = _toward_zero(-num, den)
    witnesses = [] if margin > 0.0 else [[1.0, -margin]]
    return _result("lemma_Q", params, margin, witnesses, 0.0)


def check_beta_convex(pp: ParamPair) -> CheckResult:
    """x -> B(a-x, b+x) on (0,a) for a <= b: strictly increasing and
    strictly convex (first and second differences positive, at 200
    points)."""
    params = {"a": pp.a, "b": pp.b}
    if pp.a > pp.b:
        return _skipped("beta_convex", params, "requires a <= b")
    a, b, n = pp.a, pp.b, 200
    xs = np.linspace(a / n, a - a / n, n)
    d1s = np.diff([beta_fn(a - float(x), b + float(x)) for x in xs])
    diffs = np.concatenate([d1s, np.diff(d1s)])
    # the first smallest difference, or the first NaN; a first difference
    # is reported at its left point, a second one at its centre
    i = int(np.argmin(diffs))
    margin = float(diffs[i])
    witnesses = [] if margin > 0.0 else [[float(xs[i if i < n - 1 else i - n + 2]), margin]]
    return _result("beta_convex", params, margin, witnesses, 0.0)


def check_fpp_positive(pp: ParamPair, ep: ExponentPair, delta: float,
                       cfg: SeriesConfig = DEFAULT_SERIES,
                       column: _Column | None = None) -> CheckResult:
    """Convexity of the difference along the c-argument: with
    t(x) = 1-(1-x)^(d/c), second centered differences of
    f(x) = F(a-1-delta, b+delta; p; t(x)) - F(a-1, b; p; x), step _FPP_STEP,
    must exceed -1e-6 at the points _FPP_XS."""
    return _monotone_pass(pp, ep, [("fpp_positive", delta)], DEFAULT_GRID, cfg, column)[0]


# ---------------------------------------------------------------------------
# Suite assembly


@dataclass(frozen=True)
class VerifyConfig:
    """Everything a suite run depends on.  b_specs entries may be numbers
    or the token "1-a"; ratio_specs entries numbers or "bound" (the pair's
    own admissible limit, taken exactly via (c,d) = (ratio_bound, 1))."""

    grid: GridSpec = DEFAULT_GRID
    series: SeriesConfig = DEFAULT_SERIES
    a_values: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    b_specs: tuple = ("1-a", 1.0, 1.5, 3.0)
    ratio_specs: tuple = (0.3, 0.6, 2.0 / 3.0, "bound")
    d_exp: float = 3.0
    threshold_form: str = "beta"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.threshold_form not in ("beta", "alpha"):
            raise DomainError(
                f"threshold_form must be beta|alpha, got {self.threshold_form!r}"
            )
        if not (self.d_exp > 0.0):
            raise DomainError(f"d_exp must be positive, got {self.d_exp!r}")
        if self.workers is not None and self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers!r}")
        for what, values, token in (("a value", self.a_values, None),
                                    ("b value", self.b_specs, "1-a"),
                                    ("ratio", self.ratio_specs, "bound")):
            for v in values:
                if not (isinstance(v, numbers.Real) or v == token):
                    also = f" or {token!r}" if token else ""
                    raise DomainError(f"{what} {v!r} is not a number{also}")


DEFAULT_CONFIG = VerifyConfig()


def _resolve_pairs(config):
    return list(dict.fromkeys(ParamPair(float(a), 1.0 - a if spec == "1-a" else float(spec))
                              for a in config.a_values for spec in config.b_specs))


def _resolve_exponents(config, dp):
    """Admissible ExponentPair list for one pair, in config order, one per
    ratio."""
    eps = {}
    for spec in config.ratio_specs:
        ep = (ExponentPair(dp.ratio_bound, 1.0) if spec == "bound"
              else ExponentPair(float(spec) * config.d_exp, config.d_exp))
        if 0.0 < ep.ratio <= dp.ratio_bound:
            eps.setdefault(ep.ratio, ep)
    return list(eps.values())


def _monotone_shifts(pp, d1):
    shifts = (pp.a - 1.0 + 1e-3, 0.5 * (pp.a - 1.0 + d1), d1)
    return list(dict.fromkeys(s for s in shifts if pp.a - 1.0 < s <= d1))


def _crossing_shifts(d1):
    return list(dict.fromkeys((0.5 * d1, d1 + 1e-2 if d1 + 1e-2 < 0.0 else 0.5 * d1)))


def build_tasks(config: VerifyConfig):
    """Deterministic task list (check_id, params) covering the configured
    sample: per pair the lemma checks, per admissible (pair, ratio) the
    theorem checks at the standard shift sets, plus one global root check."""
    tasks = [("f4_roots", {"n_scan": 10_000})]
    for pp in _resolve_pairs(config):
        dp = derive_params(pp)
        if condition_case(dp) is Case.INADMISSIBLE:
            continue
        base = {"a": pp.a, "b": pp.b}
        tasks.append(("beta_convex", dict(base)))
        tasks.append(("lemma_g", dict(base)))
        tasks.append(("lemma_g1", dict(base)))
        for ep in _resolve_exponents(config, dp):
            d1 = delta1(pp, ep)
            for delta in _monotone_shifts(pp, d1):
                t = _theorem_params(pp, ep, delta)
                tasks.append(("G_monotone", dict(t)))
                tasks.append(("sandwich", dict(t)))
                tasks.append(("fpp_positive", dict(t)))
                tasks.append(("lemma_Q", dict(t)))
            for delta in _crossing_shifts(d1):
                tasks.append(("crossing", _theorem_params(pp, ep, delta)))
            tasks.append(("crossing_control", _theorem_params(pp, ep, d1 - 1e-6)))
            sharp = {"a": pp.a, "b": pp.b, "c": ep.c_exp, "d": ep.d_exp,
                     "threshold_form": config.threshold_form}
            tasks.append(("sharpness", sharp))
    return tasks


# check id -> call of its check function on (params, config, column); the
# names resolve when called, so a wrapper bound to them later is used too
_CALLS = {
    "f4_roots": lambda t, cf, col: check_f4_roots(t["n_scan"]),
    "beta_convex": lambda t, cf, col: check_beta_convex(_pair(t)),
    "lemma_g": lambda t, cf, col: check_lemma_g(_pair(t)),
    "lemma_g1": lambda t, cf, col: check_lemma_g1(_pair(t)),
    "lemma_Q": lambda t, cf, col: check_lemma_Q(_pair(t), _exponents(t), t["delta"], col),
    "G_monotone": lambda t, cf, col: check_G_monotone(
        _pair(t), _exponents(t), t["delta"], cf.grid, cf.series, col),
    "sandwich": lambda t, cf, col: check_sandwich(
        _pair(t), _exponents(t), t["delta"], cf.grid, cf.series, col),
    "fpp_positive": lambda t, cf, col: check_fpp_positive(
        _pair(t), _exponents(t), t["delta"], cfg=cf.series, column=col),
    "crossing": lambda t, cf, col: find_crossing(
        _pair(t), _exponents(t), t["delta"], cf.grid, cf.series, col),
    "crossing_control": lambda t, cf, col: check_crossing_control(
        _pair(t), _exponents(t), t["delta"], cf.grid, cf.series, col),
    "sharpness": lambda t, cf, col: check_sharpness(
        _pair(t), _exponents(t), t["threshold_form"], cf.grid, cf.series, col),
}

# the checks whose tasks on one column run in one _monotone_pass
_STACKED = ("G_monotone", "sandwich", "fpp_positive")


def _column_key(params):
    """The (c, d) of a task's column, None for a task with no column."""
    return (params["c"], params["d"]) if "d" in params else None


def _pair(params) -> ParamPair:
    return ParamPair(params["a"], params["b"])


def _exponents(params) -> ExponentPair:
    return ExponentPair(params["c"], params["d"])


def _error_result(check_id, params, exc) -> CheckResult:
    """A task that raised: failed, with the error as status and witness."""
    status = f"error: {type(exc).__name__}: {exc}"
    return CheckResult(check_id, params, False, -1.0, [[status, 0.0]], 0.0, status)


def _pair_items(tasks):
    """Tasks grouped into pool items: those of one pair (a, b) together,
    its lemma tasks and every column of it, and every other task alone;
    in first-seen order."""
    groups = {}
    for i, (check_id, params) in enumerate(tasks):
        key = (params["a"], params["b"]) if "a" in params else i
        groups.setdefault(key, []).append((check_id, params))
    return list(groups.values())


def _column_shifts(tasks, d1):
    """The shifts whose F_d the checks among tasks read from their column,
    whose threshold is d1."""
    shifts = []
    for check_id, t in tasks:
        if check_id == "sharpness":
            cand = _sharpness_candidate(_pair(t), _exponents(t), t["threshold_form"], d1)
            shifts += [cand, *_sharpness_shifts(cand)]
        elif check_id != "lemma_Q":
            shifts.append(t["delta"])
    return shifts


def _fetch(work):
    """One evaluate call for F_c and F_d at each shift of the (column,
    shifts) pairs of work with any shift, over each column's abscissas;
    the F_d rows of a column read one shared vector.  If it raises, every
    value is computed when first read (_Column._value)."""
    keys, kernels, args = [], [], []
    try:
        for col, shifts in work:
            if shifts:
                ks = [None, *dict.fromkeys(shifts)]
                keys.append((col, ks))
                kernels += [col._kernel(k) for k in ks]
                args += [col._args_c] + [col._args_d] * (len(ks) - 1)
        rows = evaluate(kernels, np.vstack(args)) if args else ()
    except (ConvergenceError, DomainError):
        return
    for col, ks in keys:
        got, rows = rows[:len(ks)], rows[len(ks):]
        col._values.update(zip(ks, got))


def _run_pass(group, config, made):
    """The results of a group of tasks from one call of _monotone_pass on
    their column, or of its check (_CALLS) for one task; if that raises a
    ConvergenceError or DomainError, of each task alone: each task's error
    record holds the error it meets alone."""
    try:
        if len(group) > 1:
            t = group[0][1]
            return _monotone_pass(_pair(t), _exponents(t), [(c, p["delta"]) for c, p in group],
                                  config.grid, config.series, made[_column_key(t)])
        (check_id, t), = group
        return [_CALLS[check_id](t, config, made.get(_column_key(t)))]
    except (ConvergenceError, DomainError) as exc:
        if len(group) == 1:
            return [_error_result(*group[0], exc)]
        return [r for task in group for r in _run_pass([task], config, made)]


def _run_item(item):
    """Rendered records (see _render) of one pool item, made where its
    checks run.  The tasks of one column share one _Column, which gates
    once; the columns of the item share their kernels and fetch every
    value their tasks read in one evaluate call (_fetch); all of it is
    dropped on return.  Each column's G_monotone, sandwich and fpp_positive
    tasks run in one pass, and every other task alone (_run_pass)."""
    tasks, config = item
    columns = {}
    for check_id, params in tasks:
        columns.setdefault(_column_key(params), []).append((check_id, params))
    kernels = {}
    made = {key: _Column(_pair(group[0][1]), _exponents(group[0][1]), config.grid,
                         config.series, kernels=kernels)
            for key, group in columns.items() if key is not None}
    # build_tasks makes column tasks for admissible columns only
    _fetch([(column, _column_shifts(columns[key], column.gate)) for key, column in made.items()])
    passes = {}
    for check_id, params in tasks:
        key = _column_key(params) if check_id in _STACKED else object()
        passes.setdefault(key, []).append((check_id, params))
    return [_render(r) for group in passes.values() for r in _run_pass(group, config, made)]


def _suite_meta(config: VerifyConfig) -> dict:
    return {
        "sample": {
            "a_values": [float(a) for a in config.a_values],
            "b_specs": [str(s) if isinstance(s, str) else float(s)
                        for s in config.b_specs],
            "ratio_specs": [str(s) if isinstance(s, str) else float(s)
                            for s in config.ratio_specs],
            "d_exp": config.d_exp,
            "threshold_form": config.threshold_form,
        },
        "grid": asdict(config.grid),
        "tolerances": {
            "series_rel_tol": config.series.rel_tol,
            "interior_margin": INTERIOR_MARGIN,
            "monotone_slack": MONOTONE_SLACK,
            "endpoint_tol": ENDPOINT_TOL,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _run_tasks(tasks, config):
    """The rendered records of tasks, in pool item order."""
    items = [(group, config) for group in _pair_items(tasks)]
    # a fork-started pool forks every worker up front: no more than items
    workers = min(config.workers or os.cpu_count() or 1, len(items))
    if workers <= 1:
        batches = map(_run_item, items)
    else:
        # loaded here: a serial run never needs the pool module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(items) // (4 * workers))
            batches = list(pool.map(_run_item, items, chunksize=chunk))
    return [record for batch in batches for record in batch]


def run_suite(config: VerifyConfig = DEFAULT_CONFIG) -> Report:
    """Run every check over the configured sample.  The report is
    byte-identical across worker counts (modulo the timestamp): records
    are merged in canonical (check_id, params) order, and the work is
    scheduled per pair (every task of one parameter pair), whose values
    do not depend on which worker computes them."""
    return _build_report(_suite_meta(config), _run_tasks(build_tasks(config), config))


def run_check(check_id: str, config: VerifyConfig = DEFAULT_CONFIG) -> Report:
    """Run only the named check across the sample."""
    if check_id not in CHECK_IDS:
        raise DomainError(
            f"unknown check id {check_id!r}; known: {', '.join(CHECK_IDS)}"
        )
    tasks = [t for t in build_tasks(config) if t[0] == check_id]
    meta = _suite_meta(config)
    meta["check_filter"] = check_id
    return _build_report(meta, _run_tasks(tasks, config))


def sweep_rows(pp: ParamPair, ep: ExponentPair, delta: float,
               grid: GridSpec = DEFAULT_GRID,
               cfg: SeriesConfig = DEFAULT_SERIES):
    """Per-abscissa data for plotting/re-checking: a C-ordered (points, 6)
    array of the computed CSV columns x,G,F_c,F_d,lower_env,upper_env, one
    row per grid point; each CSV line echoes a,b,c,d,delta before them."""
    xs = make_grid(grid)
    f_c, f_d, w_c = _pair_values(pp, ep, delta, xs, cfg)
    return np.column_stack([xs, (f_d - f_c) / w_c, f_c, f_d,
                            f_c + c1(pp, ep, delta) * w_c, f_c + c2(pp, delta) * w_c])


SWEEP_HEADER = "a,b,c,d,delta,x,G,F_c,F_d,lower_env,upper_env"


__all__ = [
    "INTERIOR_MARGIN",
    "MONOTONE_SLACK",
    "ENDPOINT_TOL",
    "CHECK_IDS",
    "GridSpec",
    "DEFAULT_GRID",
    "make_grid",
    "CheckResult",
    "Report",
    "G_value",
    "check_G_monotone",
    "check_sandwich",
    "find_crossing",
    "check_crossing_control",
    "check_sharpness",
    "isolate_roots_f4",
    "check_f4_roots",
    "check_lemma_g",
    "check_lemma_g1",
    "check_lemma_Q",
    "check_beta_convex",
    "check_fpp_positive",
    "VerifyConfig",
    "DEFAULT_CONFIG",
    "build_tasks",
    "run_suite",
    "run_check",
    "sweep_rows",
    "SWEEP_HEADER",
]
