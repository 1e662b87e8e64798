"""Series, connection-formula, and derivative behavior of the 2F1 evaluator.

Oracles: the AGM elliptic integrals, direct shifted-factorial summation,
closed forms F(a,b;b;x) = (1-x)^(-a), and finite differences.
"""

import importlib
import math
from bisect import bisect_left
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypcert import (
    ConvergenceError,
    DomainError,
    SeriesConfig,
    hyp2f1,
    hyp2f1_at_one,
    hyp2f1_dx,
)
from hypcert import verifier
from hypcert.constants import Case, ExponentPair, ParamPair, condition_case, delta1, derive_params
from hypcert.hyp2f1 import DEFAULT_SERIES
from hypcert.kernels import Hyp2f1Kernel, evaluate
from hypcert.special import gamma

from _oracles import (
    HypParams,
    agm_E,
    agm_K,
    centered_diff,
    elliptic_Ea,
    elliptic_Ka,
    pochhammer_series_2f1,
    quadrature_E,
    series_exact,
)

# route-forcing configs: raw series everywhere below 0.96, connection
# formulas everywhere above 0.5
RAW_CFG = SeriesConfig(switch_point=0.96)
CONN_CFG = SeriesConfig(switch_point=0.5)

# the module itself: the package-level name hyp2f1 is the function
h = importlib.import_module("hypcert.hyp2f1")
# the array evaluator: its bands, coefficient build and _Log set
hk = importlib.import_module("hypcert.kernels")


def test_value_at_zero_is_one():
    assert hyp2f1(0.3, 1.7, 2.2, 0.0) == 1.0


def test_terminating_polynomial_case():
    # F(-2, b; c; x) = 1 - 2bx/c + b(b+1)x^2/(c(c+1)) exactly
    b, c = 1.3, 2.4
    for x in (0.1, 0.5, 0.9, 0.99):
        ref = 1.0 - 2.0 * b * x / c + b * (b + 1.0) * x * x / (c * (c + 1.0))
        assert hyp2f1(-2.0, b, c, x) == pytest.approx(ref, rel=1e-14)


def test_geometric_closed_form_excess_minus_one():
    # F(a, b; b; x) = (1-x)^(-a); with a = 1, b = 1.5 the excess is -1,
    # exercising the budgeted-series branch at interior points
    for x in (0.3, 0.9, 0.95, 0.99):
        assert hyp2f1(1.5, 1.0, 1.5, x) == pytest.approx(1.0 / (1.0 - x), rel=1e-12)


def test_agm_identity_on_grid():
    # F(1/2, 1/2; 1; x) = 2 K(sqrt(x)) / pi
    for x in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999):
        ref = 2.0 * agm_K(math.sqrt(x)) / math.pi
        assert hyp2f1(0.5, 0.5, 1.0, x) == pytest.approx(ref, rel=1e-10), f"x={x}"


def test_agm_frozen_value():
    assert hyp2f1(0.5, 0.5, 1.0, 0.5) == pytest.approx(1.180340599016096, rel=1e-12)


def test_raw_series_against_direct_summation():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.uniform(-0.9, 1.5)
        b = rng.uniform(0.1, 2.0)
        c = a + b + rng.uniform(0.5, 2.0)
        if c < 0.4:
            continue
        x = rng.uniform(0.01, 0.8)
        ref = pochhammer_series_2f1(a, b, c, x)
        assert hyp2f1(a, b, c, x) == pytest.approx(ref, rel=1e-12)


def test_parameter_symmetry_many_draws():
    rng = random.Random(20260816)
    n_ok = 0
    while n_ok < 500:
        a = rng.uniform(-0.9, 1.5)
        b = rng.uniform(0.1, 2.0)
        c = a + b + rng.uniform(0.5, 2.0)
        if c < 0.4:
            continue
        x = rng.uniform(0.01, 0.93)
        lhs = hyp2f1(a, b, c, x)
        rhs = hyp2f1(b, a, c, x)
        assert lhs == pytest.approx(rhs, rel=1e-13), f"a={a} b={b} c={c} x={x}"
        n_ok += 1


@pytest.mark.parametrize(
    "a,b,c",
    [
        (-0.5, 0.5, 1.0),   # excess exactly 1: logarithmic connection
        (-0.2, 0.9, 1.7),   # excess exactly 1, other parameters
        (0.5, 0.7, 1.7),    # excess 0.5: non-integer connection
        (0.4, 0.3, 1.95),   # excess 1.25: non-integer connection
    ],
)
def test_series_continuation_overlap(a, b, c):
    # the two evaluation routes must agree where both are trustworthy
    for i in range(26):
        x = 0.7 + 0.25 * i / 25.0
        raw = hyp2f1(a, b, c, x, RAW_CFG)
        conn = hyp2f1(a, b, c, x, CONN_CFG)
        assert conn == pytest.approx(raw, rel=1e-10), f"x={x}"


def test_endpoint_consistency_with_limit():
    for a, b, c in ((-0.5, 0.5, 1.0), (-0.7, 1.2, 1.5), (-0.1, 0.4, 1.3)):
        near = hyp2f1(a, b, c, 1.0 - 1e-8)
        limit = hyp2f1_at_one(a, b, c)
        assert near == pytest.approx(limit, rel=1e-6)


def test_at_one_frozen_value():
    # F(-1/2, 1/2; 1; 1) = 2/pi
    assert hyp2f1_at_one(-0.5, 0.5, 1.0) == pytest.approx(0.6366197723675814, rel=1e-14)


def test_at_one_requires_positive_excess():
    with pytest.raises(DomainError):
        hyp2f1_at_one(0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        hyp2f1_at_one(1.0, 1.0, 1.5)


def test_weighted_decrease_boundary():
    # x -> (1-x)^q F(a,b;c;x) is non-increasing iff q >= max(a+b-c, ab/c);
    # 0.1 above the boundary must be monotone, 0.1 below must visibly rise
    cases = [
        (0.5, 0.5, 1.0),  # ab/c binds (0.25 vs 0)
        (2.9, 0.5, 1.0),  # a+b-c binds (2.4 vs 1.45)
        (0.3, 0.8, 1.6),  # ab/c binds (0.15 vs -0.5)
    ]
    xs = [0.004 + (0.99 - 0.004) * i / 199.0 for i in range(200)]
    for a, b, c in cases:
        q_star = max(a + b - c, a * b / c)

        def weighted(q):
            return [(1.0 - x) ** q * hyp2f1(a, b, c, x) for x in xs]

        above = weighted(q_star + 0.1)
        for i in range(199):
            slack = 1e-9 * max(1.0, abs(above[i]))
            assert above[i + 1] - above[i] <= slack, f"({a},{b},{c}) rose at {xs[i]}"

        below = weighted(q_star - 0.1)
        max_rise = max(below[i + 1] - below[i] for i in range(199))
        assert max_rise > 1e-6, f"({a},{b},{c}) shows no increase below the boundary"


def test_derivative_against_finite_difference():
    for a, b, c in ((0.5, 0.5, 1.0), (-0.3, 1.2, 2.1)):
        for i in range(18):
            x = 0.05 + (0.9 - 0.05) * i / 17.0
            fd = centered_diff(lambda t: hyp2f1(a, b, c, t), x)
            assert abs(hyp2f1_dx(a, b, c, x) - fd) <= 1e-6, f"x={x}"


def test_elliptic_wrappers_reduce_to_classical():
    for r in (0.2, 0.5, 0.8, 0.95):
        assert elliptic_Ka(0.5, r) == pytest.approx(agm_K(r), rel=1e-12)
        assert elliptic_Ea(0.5, r) == pytest.approx(agm_E(r), rel=1e-11)
    # E(0.6) double-checked against Gauss-Legendre quadrature
    assert elliptic_Ea(0.5, 0.6) == pytest.approx(1.4180833944487243, rel=1e-12)
    assert quadrature_E(0.6) == pytest.approx(agm_E(0.6), rel=1e-13)


def test_elliptic_wrapper_domains():
    with pytest.raises(DomainError):
        elliptic_Ka(0.0, 0.5)
    with pytest.raises(DomainError):
        elliptic_Ka(0.5, 1.0)
    with pytest.raises(DomainError):
        elliptic_Ea(1.5, 0.5)


def test_budget_exhaustion_raises():
    # zero-balanced series at x = 0.99 cannot reach 1e-13 in 1000 terms
    tight = SeriesConfig(max_terms=1000)
    with pytest.raises(ConvergenceError):
        hyp2f1(0.5, 0.5, 1.0, 0.99, tight)


def test_argument_domain():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.0, -0.1)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 0.0, 0.5)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, -2.0 + 1e-12, 0.5)


def test_hyp_params_type():
    p = HypParams(0.5, 0.5, 1.0)
    assert p.excess == 0.0
    with pytest.raises(DomainError):
        HypParams(0.5, 0.5, -1.0)


def test_series_config_validation():
    with pytest.raises(DomainError):
        SeriesConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesConfig(max_terms=10)
    with pytest.raises(DomainError):
        SeriesConfig(switch_point=1.0)
    # an infinite tolerance would stop every series at its second term
    for bad in (float("inf"), float("nan")):
        with pytest.raises(DomainError, match="positive and finite"):
            SeriesConfig(rel_tol=bad)


def test_non_finite_parameters_are_domain_errors_at_once():
    # every entry refuses a non-finite a, b or c in its one parameter
    # check, before any work; without it, a NaN parameter runs the whole
    # 2,000,000-term budget before a ConvergenceError, an infinite c gives
    # 1.0, and the kernel raises a bare ValueError from round()
    nan, inf = float("nan"), float("inf")
    for bad in ((nan, 0.5, 1.5), (0.5, nan, 1.5), (0.5, 0.5, nan), (0.5, 0.5, inf),
                (-inf, 0.5, 1.5), (0.5, inf, 1.5), (0.5, 0.5, -inf)):
        for x in (0.0, 0.5, 0.9):
            with pytest.raises(DomainError, match="parameters must be finite"):
                hyp2f1(*bad, x)
        with pytest.raises(DomainError, match="parameters must be finite"):
            hyp2f1_at_one(*bad)
        with pytest.raises(DomainError, match="parameters must be finite"):
            Hyp2f1Kernel(*bad)


def test_evaluation_is_deterministic():
    args = (0.3, 0.9, 2.2, 0.77)
    assert hyp2f1(*args) == hyp2f1(*args)


# ---------------------------------------------------------------------------
# the family kernel (Horner over x-free coefficients, cut per abscissa band)


def _family_points(seed, n_params=40):
    """Parameter triples of the comparison family, F(a-1-delta, b+delta;
    a+b; .) with delta in [a-1, 0) (delta = 0 gives F_c itself), each with
    abscissas in both regimes: a spread over (0, 1), points within a few
    ulps and within 1e-6 of switch_point, and 1-x from 1e-8 to 0.2."""
    rng = random.Random(seed)
    sp = DEFAULT_SERIES.switch_point
    near = [sp, math.nextafter(sp, 0.0), math.nextafter(sp, 1.0),
            sp - 1e-6, sp + 1e-6]
    out = []
    for _ in range(n_params):
        a = rng.uniform(0.05, 0.95)
        b = rng.choice((1.0 - a, rng.uniform(1.0, 3.0)))
        delta = rng.choice((0.0, rng.uniform(a - 1.0, 0.0)))
        xs = ([rng.random() for _ in range(20)] + near
              + [1.0 - 10.0 ** rng.uniform(-8.0, math.log10(0.2)) for _ in range(20)]
              + [1.0 - 1e-8])
        out.append(((a - 1.0 - delta, b + delta, a + b), xs))
    return out


# configs that move the truncation and the switch point past or short of
# the band edges
_CFGS = (DEFAULT_SERIES, SeriesConfig(rel_tol=1e-10, switch_point=0.5),
         SeriesConfig(rel_tol=1e-15, switch_point=0.9))


def _band_sets(kernel, regime):
    """A kernel's coefficient set of each band of a regime (Python floats)
    and the bands' top edges: in z for the series, in w = 1-z for the log
    expansion, the last one switch_point or 1 - switch_point."""
    sp = kernel.cfg.switch_point
    top = sp if regime == "series" else 1.0 - sp
    edges = [e for e in hk._EDGES[regime] if e < top] + [top]
    return [kernel._band_set(regime, j) for j in range(len(edges))], edges


def test_kernel_matches_scalar_on_family_points():
    # tolerance fixed before the kernel was written: 4x the 5.1e-14 a
    # prototype of it measured against the scalar path
    worst = 0.0
    for (a, b, c), xs in _family_points(11):
        got = Hyp2f1Kernel(a, b, c).array(np.array(xs))
        for x, v in zip(xs, got):
            ref = hyp2f1(a, b, c, x)
            worst = max(worst, abs(v - ref) / abs(ref))
    assert worst <= 2e-13


def test_kernel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    sp = DEFAULT_SERIES.switch_point
    worst = {True: 0.0, False: 0.0}
    with mpmath.workdps(30):
        for (a, b, c), xs in _family_points(12, n_params=12):
            got = Hyp2f1Kernel(a, b, c).array(np.array(xs))
            for x, v in zip(xs, got):
                ref = mpmath.hyp2f1(a, b, c, x)
                rel = float(abs((mpmath.mpf(v) - ref) / ref))
                worst[x <= sp] = max(worst[x <= sp], rel)
    # the scalar contract: 1e-12 up to switch_point, 1e-10 beyond
    assert worst[True] <= 1e-12
    assert worst[False] <= 1e-10


def test_kernel_value_does_not_depend_on_company():
    # one value, three ways: alone, through the per-point Python loop, and
    # inside a larger shuffled array; bit-identical in both regimes
    rng = random.Random(13)
    for (a, b, c), _ in _family_points(14, n_params=8):
        kernel = Hyp2f1Kernel(a, b, c)
        xs = [0.0] + [(1.0 - 1e-8) * rng.random() for _ in range(60)] + [0.8, 1.0 - 1e-8]
        many = list(xs)
        rng.shuffle(many)
        in_array = dict(zip(many, kernel.array(np.array(many)).tolist()))
        for x in xs:
            alone = kernel.array(np.array([x]))[0]
            assert alone == kernel(x) == in_array[x], (a, b, c, x)


def test_kernel_log_regime_one_point_matches_array_where_the_logs_part():
    # the one-point path takes the same np.log as the array path; the
    # points are log-regime arguments whose w = 1-x np.log and math.log
    # round to different doubles, where taking math.log on one path would
    # move the value
    rng = np.random.default_rng(16)
    xs = 1.0 - rng.uniform(1e-8, 1.0 - DEFAULT_SERIES.switch_point, 200_000)
    ws = 1.0 - xs
    xs = xs[np.log(ws) != np.array([math.log(w) for w in ws.tolist()])]
    assert len(xs) >= 20
    for (a, b, c), _ in _family_points(15, n_params=4):
        kernel = Hyp2f1Kernel(a, b, c)
        assert [kernel(x) for x in xs.tolist()] == kernel.array(xs).tolist()


def test_kernel_refuses_what_the_scalar_refuses():
    with pytest.raises(DomainError) as scalar_err:
        hyp2f1(0.5, 0.5, -2.0 + 1e-12, 0.5)
    with pytest.raises(DomainError) as kernel_err:
        Hyp2f1Kernel(0.5, 0.5, -2.0 + 1e-12)
    assert str(kernel_err.value) == str(scalar_err.value)
    kernel = Hyp2f1Kernel(-0.5, 0.5, 1.0)
    for bad in (1.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            kernel.array(np.array([0.3, bad]))
        with pytest.raises(DomainError):
            kernel(bad)


def test_kernels_refuse_parameters_off_the_family():
    # kernels serve -1 < a < 0 < b with c = a+b+1 only, a and b in either
    # order and c within the excess snap; everything else is scalar hyp2f1's
    for a, b, c in ((0.5, 0.5, 1.0), (-2.0, 1.3, 2.4), (0.5, 0.7, 2.2), (0.0, 0.7, 1.7),
                    (-1.0, 0.5, 0.5), (-0.5, 0.5, 1.2), (-0.3, -0.2, 0.5), (-0.5, 0.0, 0.5)):
        with pytest.raises(DomainError, match=r"c = a\+b\+1"):
            Hyp2f1Kernel(a, b, c)
    kernel = Hyp2f1Kernel(0.5, -0.5, 1.0 + 1e-12)
    assert (kernel.a, kernel.b) == (-0.5, 0.5)


def _two_loop_series(a, b, c, cfg, edges):
    """Series coefficient sets of each band (highest first), built in two
    loops: the cut of each band edge e, the first N >= 1 with
    |t_N| e^(N+1)/(1-e) <= rel_tol A (or a higher edge's cut, if lower),
    then the coefficients from the recurrence."""
    tol_a = cfg.rel_tol * gamma(a + b + 1.0) / (gamma(a + 1.0) * gamma(b + 1.0))
    firsts, t, n = [None] * len(edges), 1.0, 0.0
    while firsts[-1] is None:
        t *= (a + n) * (b + n) / ((c + n) * (n + 1.0))
        n += 1.0
        for j, e in enumerate(edges):
            if firsts[j] is None and abs(t) * (e ** (n + 1.0) / (1.0 - e)) <= tol_a:
                firsts[j] = int(n)
    coefs = [1.0]
    for n in range(firsts[-1]):
        coefs.append(coefs[-1] * ((a + n) * (b + n) / ((c + n) * (n + 1.0))))
    cuts = [min(v for v in firsts[j:] if v is not None) for j in range(len(edges))]
    return [coefs[:top + 1][::-1] for top in cuts]


def _two_loop_log(a, b, cfg, edges):
    """The unit-excess coefficient sets of each band, built in two loops:
    the cut of each band edge e, the first k whose tail bound over w <= e,
    |B coef_k| e^(k+1) times _log_tail's factor, is at most rel_tol A (or
    a higher edge's cut, if lower), then gammas, digammas and coefficients
    computed afresh."""
    A = gamma(a + b + 1.0) / (gamma(a + 1.0) * gamma(b + 1.0))
    B = a * b * A
    dk = h._digamma(a + 1.0) + h._digamma(b + 1.0) - h._PSI_1 - h._PSI_2
    firsts, coef, k = [None] * len(edges), 1.0, 0.0
    while firsts[-1] is None:
        for j, e in enumerate(edges):
            size = abs(B * coef) * e ** (k + 1.0) * h._log_tail(a, b, e, math.log(e), k, dk)
            if firsts[j] is None and size <= cfg.rel_tol * A:
                firsts[j] = int(k)
        dk += 1.0 / (a + 1.0 + k) + 1.0 / (b + 1.0 + k) - 1.0 / (k + 1.0) - 1.0 / (k + 2.0)
        coef *= (a + 1.0 + k) * (b + 1.0 + k) / ((k + 1.0) * (k + 2.0))
        k += 1.0
    A = gamma(a + b + 1.0) / (gamma(a + 1.0) * gamma(b + 1.0))
    dk = h._digamma(a + 1.0) + h._digamma(b + 1.0) - h._PSI_1 - h._PSI_2
    coef, terms = 1.0, []
    for k in range(firsts[-1] + 1):
        terms.append((coef, dk))
        dk += 1.0 / (a + 1.0 + k) + 1.0 / (b + 1.0 + k) - 1.0 / (k + 1.0) - 1.0 / (k + 2.0)
        coef *= (a + 1.0 + k) * (b + 1.0 + k) / ((k + 1.0) * (k + 2.0))
    cuts = [min(v for v in firsts[j:] if v is not None) for j in range(len(edges))]
    return [hk._Log(A, a * b * A, [ck for ck, _ in reversed(terms[:top + 1])],
                    [ck * d for ck, d in reversed(terms[:top + 1])]) for top in cuts]


def test_kernel_coefficients_match_a_two_loop_build():
    # one array pass builds the kernels' coefficient sets; every number,
    # and every band's cut, must be the two-loop build's, on family
    # parameters under configs that move the truncation and the bands
    def bits(values):
        """Exact text of every number in a (nested) coefficient set."""
        if isinstance(values, (list, tuple)):
            return [bits(v) for v in values]
        return float(values).hex()

    kernels = [Hyp2f1Kernel(a, b, c, cfg) for (a, b, c), _ in _family_points(5, n_params=30)
               for cfg in _CFGS]
    evaluate(kernels, np.full((len(kernels), 1), 0.5))
    n_bands = 0
    for kernel in kernels:
        ka, kb, c, cfg = kernel.a, kernel.b, kernel.c, kernel.cfg
        series, edges = _band_sets(kernel, "series")
        assert bits(series) == bits(_two_loop_series(ka, kb, c, cfg, edges))
        log, edges = _band_sets(kernel, "log")
        assert bits(log) == bits(_two_loop_log(ka, kb, cfg, edges))
        n_bands += len(series) + len(log)
    assert len(kernels) == 90 and n_bands >= 90 * 5


def test_each_coefficient_set_meets_rel_tol_in_exact_arithmetic():
    # exact rationals: the remainder past a band's last term (summed 40
    # terms further, plus a geometric bound on the rest) is at most rel_tol
    # times an exact floor on |F| over the band, at its worst points: the
    # series at the band's edge (and a quarter of it), the log expansion at
    # its edge in w and a quarter of it (and where w^(k+1)|ln w| peaks, were
    # that inside).  Family kernels, under the configs of the two-loop test
    family = [abc for abc, _ in _family_points(18, n_params=3)]
    n_series = n_log = 0
    for a, b, c in family:
        for cfg in _CFGS:
            kernel = Hyp2f1Kernel(a, b, c, cfg)
            a, b = Fraction(kernel.a), Fraction(kernel.b)
            tol = Fraction(cfg.rel_tol)
            series, edges = _band_sets(kernel, "series")
            for coefs, edge in zip(series, edges):
                n = len(coefs) - 1
                for x in (Fraction(edge), Fraction(edge) / 4):
                    total, tail, rest = series_exact(a, b, c, x, n)
                    assert abs(tail) + rest <= tol * (total - rest), (a, b, c, cfg, x)
                    n_series += 1
            # F = A + B w sum_k u_k (ln w + d_k): u_k the terms of
            # F(a+1, b+1; 2; w), B = ab A, d_k = d_0 + e_k with e_k rational
            log, edges = _band_sets(kernel, "log")
            for lg, w_max in zip(log, edges):
                top_k = len(lg.p) - 1
                d0 = lg.q[-1]
                e = [Fraction(0)]
                for i in range(top_k + 41):
                    e.append(e[-1] + 1 / (a + 1 + i) + 1 / (b + 1 + i) - Fraction(1, i + 1)
                             - Fraction(1, i + 2))
                peak = math.exp(-1.0 / (top_k + 1))
                for w in (w_max, w_max / 4) + ((peak,) if peak < w_max else ()):
                    lw = math.log(w)
                    pad = Fraction(1e-14) * (abs(lw) + abs(d0) + 1)
                    p_tail, rest = series_exact(a + 1, b + 1, 2, w, top_k)[1:]
                    e_tail = series_exact(a + 1, b + 1, 2, w, top_k, weights=e.__getitem__)[1]
                    # |d_k| past the last e: |d_0| + |e_top| + the sum over
                    # i >= top of |a|/((a+1+i)(i+1)) + |1-b|/((b+1+i)(i+2)) <= .../i^2
                    sup_d = abs(d0) + abs(e[-1]) + (abs(a) + abs(1 - b)) / (len(e) - 2)
                    bound = (abs((Fraction(lw) + Fraction(d0)) * p_tail + e_tail)
                             + pad * p_tail + rest * (abs(Fraction(lw)) + sup_d + pad))
                    # the floor is A, where F falls to: |R| = |ab| A w |tail sum|
                    assert abs(a * b) * Fraction(w) * bound <= tol, (a, b, cfg, w)
                    n_log += 1
    assert n_series >= 9 * 3 * 2 and n_log >= 9 * 2 * 2


def test_band_edges_keep_their_bits_alone_and_stacked():
    # at each band edge, its neighbours and switch_point, the one-point
    # path, the kernel's array and a stacked call of several kernels reading
    # one shared vector give the same bits; the neighbours straddle the edge
    sp = DEFAULT_SERIES.switch_point
    xs = [0.0]
    for e in hk._EDGES["series"] + (sp,):
        xs += [math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)]
    for e in hk._EDGES["log"]:
        xs += [math.nextafter(1.0 - e, 0.0), 1.0 - e, math.nextafter(1.0 - e, 1.0)]

    def band(x):
        return (x <= sp, bisect_left(hk._EDGES["series"], x) if x <= sp
                else bisect_left(hk._EDGES["log"], 1.0 - x))

    for i in range(0, len(xs) - 1, 3):
        below, edge, above = xs[i + 1:i + 4]
        assert band(below) == band(edge) != band(above)
    kernels = [Hyp2f1Kernel(a, b, c) for (a, b, c), _ in _family_points(23, n_params=6)]
    pts = np.array(xs)
    stacked = evaluate(kernels, np.stack([pts] * len(kernels)))
    for kernel, row in zip(kernels, stacked.tolist()):
        alone = [kernel(x) for x in xs]
        assert kernel.array(pts).tolist() == alone == row


def test_log_tails_is_the_scalar_log_tail():
    # the build's array bound is _log_tail, entry by entry, to a few ulps:
    # the same operations, np.exp for math.exp
    kernels = [Hyp2f1Kernel(a, b, c) for (a, b, c), _ in _family_points(24, n_params=12)]
    k = np.arange(40, dtype=float)
    for kernel in kernels:
        a, b = kernel.a, kernel.b
        d0 = h._log_start(a, b)[2]
        dk = [d0]
        for i in range(39):
            dk.append(dk[-1] + (1.0 / (a + 1.0 + i) + 1.0 / (b + 1.0 + i) - 1.0 / (i + 1.0)
                                - 1.0 / (i + 2.0)))
        ws = (1e-6, 1e-3, 0.02, 0.2, 0.6)
        got = hk._log_tails(np.array([[a]]), np.array([[b]]), np.array(ws)[:, None, None], k,
                            np.array([dk]))
        for w, row in zip(ws, got):
            want = [h._log_tail(a, b, w, math.log(w), float(i), d) for i, d in enumerate(dk)]
            assert row[0].tolist() == pytest.approx(want, rel=1e-15), (a, b, w)


# ---------------------------------------------------------------------------
# the stacked evaluator: many kernels' points in one Horner loop per band


def _mixed_kernels(seed):
    """Family kernels under the three configs, with series and log
    coefficient sets of different lengths, each with points in both
    regimes."""
    rng = random.Random(seed)
    return [(Hyp2f1Kernel(a, b, c, rng.choice(_CFGS)), xs)
            for (a, b, c), xs in _family_points(seed, n_params=13)]


def test_evaluate_matches_kernel_point_by_point():
    # the stacked rows move each band's points to the front, pad
    # coefficients with leading zeros and points with zeros; none of it
    # may move a bit of any value, in any row order, whether rows hold
    # their own points, repeat a kernel or share one vector
    rng = random.Random(21)
    kernels = _mixed_kernels(22)
    assert len({len(_band_sets(k, "series")[0][-1]) for k, _ in kernels}) > 3
    assert len({len(_band_sets(k, "log")[0][-1].p) for k, _ in kernels}) > 1
    width = max(len(xs) for _, xs in kernels)
    rows = []
    for kernel, xs in kernels:
        # a kernel may own several rows, each a shuffle of its points
        # filled up to the width with repeats of them
        for _ in range(2):
            row = xs + [rng.choice(xs) for _ in range(width - len(xs))]
            rng.shuffle(row)
            rows.append((kernel, row))
    # every band of both regimes, read by every kernel
    shared = [0.0, 0.05, 0.3, 0.5, 0.8, 0.81, 0.95, 0.99, 0.9995]
    shared += [0.99 * rng.random() for _ in range(width - len(shared))]
    rows += [(kernel, shared) for kernel, _ in kernels]
    for _ in range(3):
        rng.shuffle(rows)
        got = evaluate([k for k, _ in rows], np.array([xs for _, xs in rows]))
        assert got.shape == (len(rows), width)
        for (kernel, xs), values in zip(rows, got.tolist()):
            for x, v in zip(xs, values):
                assert v == kernel(x), (kernel.a, kernel.b, kernel.c, x)


def test_evaluate_checks_real_points_never_padding():
    # a kernel cut short, stacked with a full kernel whose row is wider and
    # reaches 0.8: its one series point is padded out to the width of the
    # other row and its log-regime points go elsewhere, and every value
    # keeps the bits it has alone
    cut = Hyp2f1Kernel(-0.5, 0.5, 1.0, SeriesConfig(rel_tol=1e-6))
    full = Hyp2f1Kernel(-0.3, 0.7, 1.4)
    assert 2 * len(_band_sets(cut, "series")[0][-1]) < len(_band_sets(full, "series")[0][-1])
    sets = cut._sets
    wide = np.linspace(0.0, 0.8, 40)
    mostly_log = np.array([0.01] + [0.9] * 39)
    got_cut, got_full = evaluate([cut, full], np.stack([mostly_log, wide]))
    assert got_cut.tolist() == [cut(x) for x in mostly_log.tolist()]
    assert got_full.tolist() == [full(x) for x in wide.tolist()]
    # a set already present is used as it is: evaluate did not rebuild it
    assert cut._sets is sets
    # in the other row order too, with the cut kernel's truncated 0.8
    reaching = np.array([0.01, 0.8] + [0.9] * 38)
    got_full, got_cut = evaluate([full, cut], np.stack([wide, reaching]))
    assert got_cut.tolist() == [cut(x) for x in reaching.tolist()]
    assert got_full.tolist() == [full(x) for x in wide.tolist()]


def _batch_kernels(seed):
    """Family kernels under the three configs, in one shuffled list."""
    rng = random.Random(seed)
    kernels = [Hyp2f1Kernel(a, b, c, rng.choice(_CFGS))
               for (a, b, c), _ in _family_points(seed, n_params=40)]
    rng.shuffle(kernels)
    return kernels


def test_a_log_set_with_b_zero_keeps_one_term():
    # B = a*b*A = 0: the expansion is A, and the scalar loop returns it
    # alone; kernels refuse a = 0, where F = 1
    start = h._log_start(0.0, 0.7)
    assert start[1] == 0.0
    assert h._log_connection_unit_excess(0.0, 0.7, 0.9, DEFAULT_SERIES, start) == start[0]
    with pytest.raises(DomainError):
        Hyp2f1Kernel(0.0, 0.7, 1.7)


def test_evaluate_builds_each_regime_once(monkeypatch):
    # a call builds every kernel it lacks, the first time it sees it, in
    # one array pass per config and regime; a kernel on several rows is
    # built once, a second call builds none, and no scalar loop runs
    assert not hasattr(hk, "_raw_series") and not hasattr(hk, "_log_connection_unit_excess")
    kernels = _batch_kernels(34)[:12]
    xs = np.array([[0.1, 0.5, 0.85, 0.97]] * len(kernels))
    passes, starts = [], []
    real_truncate, real_start = hk._truncate, hk._log_start

    def truncate(rows, cfg, regime):
        passes.append((regime, cfg, len(rows)))
        return real_truncate(rows, cfg, regime)

    monkeypatch.setattr(hk, "_truncate", truncate)
    monkeypatch.setattr(hk, "_log_start", lambda a, b: starts.append((a, b)) or real_start(a, b))
    first = evaluate(kernels + kernels[:3], np.vstack([xs, xs[:3]]))
    cfgs = {k.cfg for k in kernels}
    assert len(cfgs) == 3
    assert sorted(starts) == sorted((k.a, k.b) for k in kernels)
    assert sorted(p[0] for p in passes) == ["log"] * 3 + ["series"] * 3
    assert sum(n for regime, _, n in passes if regime == "series") == len(kernels)
    passes.clear()
    starts.clear()
    assert evaluate(kernels, xs).tolist() == first[:12].tolist()
    assert passes == starts == []


def test_a_row_that_does_not_converge_raises_as_it_raises_alone():
    # a budget the regime's scalar loop cannot meet at switch_point: the
    # kernel raises one error, alone and inside evaluate, whichever rows
    # come before it; the rows built with it still get their coefficients
    a, b = -0.4, 0.6
    # the series at x = 0.8 and the expansion at w = 0.99 keep terms far
    # above 1e-300 of the sum for 1000 terms
    for regime, sp in (("series", 0.8), ("log", 0.01)):
        cfg = SeriesConfig(rel_tol=1e-300, max_terms=1000, switch_point=sp)
        with pytest.raises(ConvergenceError) as scalar:
            if regime == "series":
                h._raw_series(a, b, a + b + 1.0, sp, cfg)
            else:
                h._log_connection_unit_excess(a, b, sp, cfg, h._log_start(a, b))
        assert "1000 terms" in str(scalar.value)
        with pytest.raises(ConvergenceError) as alone:
            Hyp2f1Kernel(a, b, a + b + 1.0, cfg)(0.005 if regime == "series" else 0.995)
        assert str(alone.value).startswith(f"{regime} coefficients for ({a}, {b}, ")
        assert str(alone.value).endswith(f"up to x={sp} within 1000 terms")
        good = _batch_kernels(35)[:6]
        with pytest.raises(ConvergenceError) as arrayed:
            evaluate(good[:2] + [Hyp2f1Kernel(a, b, a + b + 1.0, cfg)] + good[2:],
                     np.full((len(good) + 1, 3), 0.005 if regime == "series" else 0.995))
        assert str(arrayed.value) == str(alone.value)
        assert all(isinstance(k._sets, tuple) for k in good)


def test_a_row_that_never_cuts_searches_in_bounded_memory():
    # switch points this close to the ends leave both regimes without a
    # cut within the default 2,000,000 terms; the search for one holds a
    # fixed stretch of terms at a time, whatever max_terms is, and raises
    # the regime's error
    for regime, sp in (("series", 0.999999), ("log", 1e-6)):
        kernel = Hyp2f1Kernel(-0.5, 0.5, 1.0, SeriesConfig(switch_point=sp))
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError) as exc:
                evaluate([kernel], np.array([[0.5]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (regime, peak)
        assert str(exc.value) == (f"{regime} coefficients for (-0.5, 0.5, 1.0) did not reach "
                                  f"rel_tol=1e-13 up to x={sp} within 2000000 terms")


def test_hyp2f1_at_the_zero_endpoint_fit_arguments():
    # F_c at 1 - s and F_d at 1 - s^(d/c), s = 1e-9 * (1, 2, 4), on seeded
    # suite-shaped columns and shifts: arguments beyond 1 - 1e-8 that reach
    # the largest double below 1, against mpmath
    mpmath = pytest.importorskip("mpmath")
    calls = []
    rng = random.Random(31)
    columns = 0
    while columns < 24:
        a = rng.uniform(0.05, 0.95)
        pp = ParamPair(a, rng.choice((1.0 - a, rng.uniform(1.0, 3.0))))
        dp = derive_params(pp)
        if condition_case(dp) is Case.INADMISSIBLE:
            continue
        ep = rng.choice((ExponentPair(3.0 * dp.ratio_bound * rng.uniform(0.1, 1.0), 3.0),
                         ExponentPair(dp.ratio_bound, 1.0)))
        p = pp.a + pp.b
        for delta in verifier._monotone_shifts(pp, delta1(pp, ep)):
            for s in (1e-9 * m for m in (1.0, 2.0, 4.0)):
                calls.append((pp.a - 1.0, pp.b, p, 1.0 - s))
                u = math.exp(ep.d_exp / ep.c_exp * math.log(s))
                if 1.0 - u < 1.0:
                    calls.append((pp.a - 1.0 - delta, pp.b + delta, p, 1.0 - u))
        columns += 1
    assert min(1.0 - x for *_, x in calls) == 2.0 ** -53
    worst = 0.0
    with mpmath.workdps(40):
        for a, b, c, x in calls:
            ref = mpmath.hyp2f1(a, b, c, mpmath.mpf(x))
            worst = max(worst, float(abs((mpmath.mpf(hyp2f1(a, b, c, x)) - ref) / ref)))
    # hyp2f1 promises 1e-10 in the log regime; these 333 calls measure
    # at most 2.8e-15
    assert worst <= 1e-12


def test_the_family_series_takes_no_tail_factor_call(monkeypatch):
    # where a+b-c-1 <= 0 and ab <= c, _tail_factor past max(-a, -b, -c) is
    # x/(1-x), the pretest's own factor: the series loop skips the call
    # there, which on the comparison family is every term
    calls = []
    real = h._tail_factor
    monkeypatch.setattr(h, "_tail_factor", lambda *args: calls.append(args) or real(*args))
    sp = DEFAULT_SERIES.switch_point
    for (a, b, c), xs in _family_points(11):
        for x in xs:
            if x <= sp:
                hyp2f1(a, b, c, x)
        Hyp2f1Kernel(a, b, c).ends
    for a, b, c in ((0.5, 0.7, 2.5), (1.5, 1.2, 2.0), (-0.4, 0.3, 1.7)):
        hyp2f1(a, b, c, 0.6)
    assert calls == []
    hyp2f1(1.5, 1.2, 1.1, 0.6)  # a+b-c-1 > 0: the factor is checked
    assert calls
