"""Certification harness: grids, the difference quotient and its endpoint
limits, the individual checks, and suite assembly/determinism."""

import concurrent.futures
import dataclasses
import importlib.util
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypcert import (
    CheckResult,
    ConvergenceError,
    DomainError,
    ExponentPair,
    GridSpec,
    ParamPair,
    VerifyConfig,
    G_value,
    c1,
    c2,
    delta1,
    hyp2f1,
    run_check,
    run_suite,
)
from hypcert import constants, kernels, verifier
from hypcert.cli import main
from hypcert.verifier import (
    CHECK_IDS,
    DEFAULT_GRID,
    INTERIOR_MARGIN,
    SWEEP_HEADER,
    _abscissas,
    _f4_cofactor,
    _one_minus_pow,
    build_tasks,
    check_beta_convex,
    check_crossing_control,
    check_f4_roots,
    check_fpp_positive,
    check_G_monotone,
    check_lemma_g,
    check_lemma_g1,
    check_lemma_Q,
    check_sandwich,
    check_sharpness,
    find_crossing,
    isolate_roots_f4,
    make_grid,
    sweep_rows,
)
from hypcert.hyp2f1 import DEFAULT_SERIES, SeriesConfig

from _oracles import g1_exact, poly_eval, q1_exact

HALF = ParamPair(0.5, 0.5)
EP23 = ExponentPair(2.0, 3.0)
D1_HALF = delta1(HALF, EP23)
MID_HALF = 0.5 * (HALF.a - 1.0 + D1_HALF)  # interior of the monotone range
SMALL_GRID = GridSpec(n_points=128)


# ---------------------------------------------------------------------------
# grids


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(n_points=8)
    with pytest.raises(DomainError):
        GridSpec(x_lo=0.0)
    with pytest.raises(DomainError):
        GridSpec(x_lo=0.5, x_hi=0.4)
    with pytest.raises(DomainError):
        GridSpec(spacing="random")


def test_make_grid_shape_and_monotonicity():
    # "x_lo to x_hi inclusive", exactly: a first point an ulp below x_lo
    # would take the head's arguments
    for spacing in ("clustered", "uniform"):
        for n in (16, 64, 512, 1000):
            spec = GridSpec(n_points=n, spacing=spacing)
            xs = make_grid(spec)
            assert len(xs) == n
            assert (xs[0], xs[-1]) == (spec.x_lo, spec.x_hi)
            assert all(x < y for x, y in zip(xs, xs[1:]))


def test_clustered_grid_crowds_the_endpoints():
    n = 128
    cl = make_grid(GridSpec(n_points=n, spacing="clustered"))
    un = make_grid(GridSpec(n_points=n, spacing="uniform"))
    # clustered spacing: narrowest steps at the ends, widest in the middle
    steps = np.diff(cl)
    assert steps[0] < np.diff(un)[0]
    assert steps[0] < steps[n // 2] and steps[-1] < steps[n // 2]


# ---------------------------------------------------------------------------
# the difference quotient and its endpoint limits


def test_G_value_trivial_zero_and_domain():
    assert G_value(HALF, ExponentPair(2.0, 2.0), 0.0, 0.3) == 0.0
    with pytest.raises(DomainError):
        G_value(HALF, EP23, D1_HALF, 0.0)
    with pytest.raises(DomainError):
        G_value(HALF, EP23, D1_HALF, 1.0)


def test_G_value_matches_direct_evaluation():
    delta = D1_HALF
    for x in (0.05, 0.4, 0.93):
        w_c = 1.0 - x**2
        w_d = 1.0 - x**3
        f_c = hyp2f1(-0.5, 0.5, 1.0, w_c)
        f_d = hyp2f1(-0.5 - delta, 0.5 + delta, 1.0, w_d)
        got = G_value(HALF, EP23, delta, x)
        assert got == pytest.approx((f_d - f_c) / w_c, rel=1e-12)


def test_raw_endpoint_reads_are_already_close():
    # G itself at the grid's two ends sits within 1e-5 of the limit
    # constants for the reference tuple
    delta = D1_HALF
    lo = G_value(HALF, EP23, delta, DEFAULT_GRID.x_lo)
    hi = G_value(HALF, EP23, delta, DEFAULT_GRID.x_hi)
    assert abs(lo - c2(HALF, delta)) < 1e-5
    assert abs(hi - c1(HALF, EP23, delta)) < 1e-5


def _suite_columns(seed, n):
    """n seeded admissible columns shaped like the suite's sample, each
    with its monotone shifts: b = 1-a or b in [1, 3]; (c, d) with d = 3 and
    c/d up to the ratio bound, or (ratio bound, 1)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(0.05, 0.95)
        pp = ParamPair(a, rng.choice((1.0 - a, rng.uniform(1.0, 3.0))))
        dp = constants.derive_params(pp)
        if constants.condition_case(dp) is constants.Case.INADMISSIBLE:
            continue
        ep = rng.choice((ExponentPair(3.0 * dp.ratio_bound * rng.uniform(0.1, 1.0), 3.0),
                         ExponentPair(dp.ratio_bound, 1.0)))
        out.append((pp, ep, verifier._monotone_shifts(pp, delta1(pp, ep))))
    return out


def test_endpoint_limits_are_gauss_and_the_first_coefficient():
    # G_monotone reads G(0+) = F_d(1) - F_c(1) and G(1-) = (d/c) t1(F_d) -
    # t1(F_c) from the kernels: each kernel's A is Gauss's sum, its first
    # series coefficient is ab/c exactly, and the limits are c2 and c1
    mpmath = pytest.importorskip("mpmath")
    worst_a, worst_lo, worst_hi = 0.0, 0.0, 0.0
    with mpmath.workdps(30):
        for pp, ep, shifts in _suite_columns(37, 24):
            col = verifier._Column(pp, ep, SMALL_GRID)
            for delta in shifts:
                col.G(delta)
                kd, kc = col.kernel_d(delta), col.kernel_c
                for k in (kd, kc):
                    one, t1 = k.ends
                    assert t1 == k.a * k.b / k.c
                    ref = mpmath.hyp2f1(k.a, k.b, k.c, 1)
                    worst_a = max(worst_a, float(abs((one - ref) / ref)))
                (one_d, t_d), (one_c, t_c) = kd.ends, kc.ends
                worst_lo = max(worst_lo, abs(one_d - one_c - c2(pp, delta)))
                worst_hi = max(worst_hi, abs(ep.d_exp / ep.c_exp * t_d - t_c - c1(pp, ep, delta)))
    # measured on these 72 shifts: 1.4e-15 relative on A, 1.2e-15 at 0+
    # and 2.1e-15 at 1-
    assert worst_a <= 1e-14
    assert worst_lo <= 1e-13 and worst_hi <= 1e-13


def test_G_monotone_makes_no_scalar_call(monkeypatch):
    # both endpoint limits come from the column's kernels: no scalar
    # hyp2f1 call and no linear solve, on any G_monotone column
    assert not hasattr(verifier, "hyp2f1") and not hasattr(kernels, "hyp2f1")
    calls = []
    scalar = sys.modules["hypcert.hyp2f1"]
    for name in ("hyp2f1", "_raw_series", "_log_connection_unit_excess"):
        monkeypatch.setattr(scalar, name, lambda *args: calls.append(args))
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args))
    n = 0
    for item in verifier._pair_items(build_tasks(SMALL_CONFIG)):
        monotone = [(kind, t) for kind, t in item if kind == "G_monotone"]
        for _, _, rec in verifier._run_item((monotone, SMALL_CONFIG)) if monotone else ():
            assert rec.status == "ok"
            n += 1
    assert n >= 8 and calls == []


# ---------------------------------------------------------------------------
# individual checks: pass, fail, and skip behavior


def test_monotone_check_passes_reference_tuple():
    res = check_G_monotone(HALF, EP23, D1_HALF)
    assert res.passed and res.status == "ok"
    assert res.worst_margin > 0.0
    assert res.params == {"a": 0.5, "b": 0.5, "c": 2.0, "d": 3.0, "delta": D1_HALF}


def test_monotone_check_skips_out_of_scope_inputs():
    res = check_G_monotone(ParamPair(0.02, 0.98), EP23, -0.1)
    assert res.passed and res.status == "skipped: inadmissible parameter pair"
    assert res.worst_margin == 0.0 and res.witnesses == []

    res = check_G_monotone(HALF, ExponentPair(2.7, 3.0), -0.05)
    assert res.status == "skipped: exponent ratio above admissible bound"

    res = check_G_monotone(HALF, EP23, D1_HALF + 1e-3)
    assert res.status == "skipped: shift outside monotone range"


def test_sandwich_check_passes_and_skips():
    res = check_sandwich(HALF, EP23, MID_HALF)
    assert res.passed and res.status == "ok" and res.worst_margin > 0.0
    res = check_sandwich(HALF, EP23, 0.0)
    assert res.status == "skipped: shift outside monotone range"


def _ulps(a, b):
    """Distance in doubles between same-signed float arrays."""
    return np.abs(np.asarray(a, float).view(np.int64) - np.asarray(b, float).view(np.int64))


SCAN_EXPONENTS = [ExponentPair(2.0, 3.0), ExponentPair(0.9, 3.0), ExponentPair(0.15, 3.0),
                  ExponentPair(0.9, 1.0)]


def _scan_abscissas(ep):
    """The scan part of a column's abscissas: all but the fpp points."""
    return _abscissas(ep, DEFAULT_GRID)[0][:-3 * len(verifier._FPP_XS)]


def test_argument_ufuncs_give_a_point_the_same_bits_in_any_array():
    # 1-x^e and the log regime's ln w, as the one-point path and the array
    # path take them: one point alone, a contiguous array, a strided view
    x_lo = DEFAULT_GRID.x_lo
    for ep in SCAN_EXPONENTS:
        xs = _scan_abscissas(ep)
        strided = np.repeat(xs, 3)[1::3]
        assert not strided.flags.c_contiguous
        for e in (ep.c_exp, ep.d_exp):
            full = _one_minus_pow(e, xs, x_lo)
            assert _one_minus_pow(e, strided, x_lo).tolist() == full.tolist()
            assert [float(_one_minus_pow(e, x, x_lo)) for x in xs.tolist()] == full.tolist()
            w = 1.0 - full
            logs = np.log(w)
            assert np.log(np.repeat(w, 3)[1::3]).tolist() == logs.tolist()
            assert [float(np.log(v)) for v in w.tolist()] == logs.tolist()


def test_argument_ufuncs_stay_within_an_ulp_of_math():
    # every ufunc of 1-x^e = -expm1(e*log1p(x-1)), or -expm1(e*log(x))
    # below x_lo, and the log regime's ln w, on the inputs the formulas
    # feed it, against the math module; the two rounding differences of
    # the composite add up to <= 2 ulps
    x_lo = DEFAULT_GRID.x_lo
    for ep in SCAN_EXPONENTS:
        xs = _scan_abscissas(ep)
        assert (xs < x_lo).sum() == 64  # the head: the grid starts at x_lo
        assert _ulps(np.log(xs), [math.log(v) for v in xs.tolist()]).max() <= 1
        for e in (ep.c_exp, ep.d_exp):
            u = np.where(xs < x_lo, np.log(xs), np.log1p(xs - 1.0))
            assert _ulps(np.log1p(xs - 1.0), [math.log1p(v) for v in (xs - 1.0).tolist()]).max() <= 1
            assert _ulps(np.expm1(e * u), [math.expm1(v) for v in (e * u).tolist()]).max() <= 1
            got = _one_minus_pow(e, xs, x_lo)
            ref = [-math.expm1(e * (math.log(x) if x < x_lo else math.log1p(x - 1.0)))
                   for x in xs.tolist()]
            assert _ulps(got, ref).max() <= 2
            w = 1.0 - got
            assert _ulps(np.log(w), [math.log(v) for v in w.tolist()]).max() <= 1


def test_crossing_appears_above_threshold():
    res = find_crossing(HALF, EP23, D1_HALF + 1e-3)
    assert res.passed and res.worst_margin > 0.0
    # both-sign witnesses plus a localized sign change
    assert res.witnesses[0][1] > 0.0 > res.witnesses[1][1]
    tag, x_cross = res.witnesses[-1]
    assert tag == "crossing_near" and 0.0 < x_cross < 1.0


def test_no_crossing_below_threshold():
    res = check_crossing_control(HALF, EP23, D1_HALF - 1e-3)
    assert res.passed and res.worst_margin > 0.0
    res = find_crossing(HALF, EP23, D1_HALF - 1e-3)
    assert res.status == "skipped: shift not above the threshold"
    res = check_crossing_control(HALF, EP23, D1_HALF + 1e-3)
    assert res.status == "skipped: shift above the threshold"


def test_a_localization_takes_few_evaluations(monkeypatch):
    # Illinois regula falsi from the scan bracket: a handful of one-point
    # differences, where bisection to the margin took about two dozen
    calls = []
    real = verifier._Column.difference_at

    def counted(self, delta, x):
        calls.append(x)
        return real(self, delta, x)

    monkeypatch.setattr(verifier._Column, "difference_at", counted)
    for delta in (D1_HALF + 1e-3, D1_HALF + 1e-2, 0.5 * D1_HALF):
        calls.clear()
        res = find_crossing(HALF, EP23, delta)
        assert res.witnesses[-1][0] == "crossing_near"
        assert 1 <= len(calls) <= 8, (delta, len(calls))


def test_localization_falls_back_to_the_bracket_midpoint():
    # a sign change with no point where |f| <= INTERIOR_MARGIN: 48 steps,
    # every one strictly inside the bracket, then the midpoint of what is
    # left of it
    calls = []

    def step(x):
        calls.append(x)
        return 1.0 if x < 0.3 else -1.0

    near = verifier._localize(step, 0.0, 1.0, 1.0, -1.0)
    assert len(calls) == 48
    assert all(0.0 < x < 1.0 for x in calls)
    assert abs(near - 0.3) < 1e-12


@pytest.mark.parametrize("f", [
    lambda x: math.exp(-20.0 * x) - math.exp(-10.0),  # convex: keeps lo
    lambda x: math.exp(-10.0) - math.exp(-20.0 * (1.0 - x)),  # concave: keeps hi
])
def test_localization_does_not_stall_on_a_curved_difference(f):
    # plain regula falsi keeps one end for good on these and runs out its
    # 48 steps; halving the kept end's value reaches the root x = 1/2
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    near = verifier._localize(counted, 0.0, f(0.0), 1.0, f(1.0))
    assert abs(f(near)) <= INTERIOR_MARGIN and abs(near - 0.5) < 1e-12
    assert len(calls) <= 30


def test_one_point_differences_have_the_scan_bits():
    # the localization's one-point path and the column's stacked scan
    # give every scan abscissa the same bits
    col = verifier._Column(HALF, EP23)
    for delta in (MID_HALF, D1_HALF + 1e-3):
        ds = col.differences(delta)
        assert [col.difference_at(delta, x) for x in col.scan_xs.tolist()] == ds.tolist()


def test_sharpness_beta_form_passes():
    res = check_sharpness(HALF, EP23, "beta")
    assert res.passed and res.worst_margin > 0.0


def test_sharpness_alpha_form_fails():
    # the alpha-variant threshold is positive at (1/2, 1/2), so the
    # characterization must break down visibly
    res = check_sharpness(HALF, EP23, "alpha")
    assert not res.passed
    assert res.worst_margin < 0.0
    assert res.witnesses  # failures always carry witnesses
    with pytest.raises(DomainError):
        check_sharpness(HALF, EP23, "gamma")


def test_crossing_sees_a_sign_change_below_the_grid():
    # a perfbench suite tuple (seed 44) whose positive side lies below
    # x_lo = 1e-4: the scan's head abscissas find it, and the localized
    # crossing lands there too, through the same log-based arguments
    pp, ep = ParamPair(0.9279491029812077, 2.457393289273285), ExponentPair(0.8559757946211618, 1.0)
    res = find_crossing(pp, ep, -0.00012198838262001722)
    assert res.passed and res.worst_margin > 0.0
    (x_pos, d_pos), (_, d_neg), (tag, near) = res.witnesses
    assert x_pos < DEFAULT_GRID.x_lo and d_pos > INTERIOR_MARGIN > -INTERIOR_MARGIN > d_neg
    assert tag == "crossing_near" and near < DEFAULT_GRID.x_lo
    col = verifier._Column(pp, ep)
    assert abs(col.difference_at(-0.00012198838262001722, near)) <= INTERIOR_MARGIN


def test_sharpness_sees_a_sign_change_below_the_grid():
    # a perfbench suite tuple (seed 45) whose nudged shifts change sign
    # only below x_lo
    pp, ep = ParamPair(0.8727795708181875, 0.12722042918181253), ExponentPair(0.9843224460007411, 1.0)
    res = check_sharpness(pp, ep, "beta")
    assert res.passed and res.worst_margin > 0.0


def test_f4_root_isolation():
    a0, a1 = isolate_roots_f4()
    assert a0 == pytest.approx(0.036962642446273744, abs=1e-12)
    assert a1 == pytest.approx(0.5355872327392643, abs=1e-12)
    res = check_f4_roots()
    assert res.passed and res.worst_margin > 0.0
    assert res.witnesses[0][0] == pytest.approx(a0, abs=1e-15)
    assert abs(res.witnesses[0][1]) <= 1e-12  # residual at the root


def test_f4_scan_over_an_array_has_the_scalar_bits():
    # isolate_roots_f4 evaluates f4 over its whole scan at once; every entry
    # must be f4 of that abscissa as a Python float, bit for bit
    xs = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    scalar = np.array([constants.f4(x) for x in xs.tolist()])
    assert constants.f4(xs).view(np.int64).tolist() == scalar.view(np.int64).tolist()


def test_f4_gate_uses_the_cofactor_of_f4():
    # check_f4_roots reads the sign of f4' from its quartic factor q; pin
    # that factor to the q of the exact factorization (test_constants) at
    # dyadic points, where the float evaluation is exact
    q = [2, -14, 23, -16, 4]
    for k in range(17):
        a = Fraction(k, 16)
        assert _f4_cofactor(float(a)) == poly_eval(q, a)


def test_lemma_checks_pass_on_reference_pairs():
    for pp in (HALF, ParamPair(0.05, 0.95)):
        assert check_lemma_g(pp).passed
        assert check_lemma_g1(pp).passed
    res = check_lemma_g(ParamPair(0.02, 0.98))
    assert res.status == "skipped: inadmissible parameter pair"


def _lemma_g_tasks(monkeypatch):
    """The (a, b) of every lemma_g task of the default sample and of seed
    7's (lemma_g1 has the same tasks)."""
    return [(t["a"], t["b"]) for config in (verifier.DEFAULT_CONFIG, _seed7_config(monkeypatch))
            for kind, t in build_tasks(config) if kind == "lemma_g"]


def _toward_zero_of(margin, exact):
    """margin is exact rounded toward zero: of its size or less, of its
    sign, and the float next to it away from zero is past it."""
    if exact < 0:
        margin, exact = -margin, -exact
    return 0 <= Fraction(margin) <= exact < Fraction(math.nextafter(margin, math.inf))


def test_lemma_g_and_g1_margins_are_the_exact_values_rounded_toward_zero(monkeypatch):
    # lemma_g's margin is g1's least value on [lo, 0]; lemma_g1's is g1'(lo)
    # in case A and that least value in case B; both exact for the float
    # inputs, rounded toward zero, on every task of both samples
    pairs = _lemma_g_tasks(monkeypatch)
    assert len(pairs) == 36 + 36
    cases = set()
    for a, b in pairs:
        pp = ParamPair(a, b)
        slope, least = g1_exact(a, b)
        case = constants.condition_case(constants.derive_params(pp))
        cases.add((case, slope >= 0))
        for res, exact in ((check_lemma_g(pp), least),
                           (check_lemma_g1(pp), slope if case is constants.Case.A else least)):
            assert res.passed and res.status == "ok" and res.witnesses == []
            assert res.tolerance_used == 0.0
            assert _toward_zero_of(res.worst_margin, exact), (res, exact)
    # both cases, and both places of the least value (lo, and the vertex)
    assert cases == {(constants.Case.A, True), (constants.Case.B, False)}


def _f4_exact(a):
    """f4(a) = 4a(2-a)(1-a)^2 (a^2 - 2a + 2)^2 - 1 in Fraction."""
    return 4 * a * (2 - a) * (1 - a) ** 2 * (a * a - 2 * a + 2) ** 2 - 1


def test_the_wedge_reduces_to_g1_in_fractions():
    # the facts check_lemma_g and check_lemma_g1 rest on, for the package's
    # g and g1 in exact arithmetic of the float inputs, on seeded pairs
    rng = random.Random(30)
    # the dyadic complements are exact, so that b = 1-a holds in Fraction
    pairs = [(0.5, 0.5), (0.9, 0.1), (0.125, 0.875), (0.25, 0.75), (0.3125, 0.6875)]
    for _ in range(40):
        a = rng.uniform(0.04, 0.999)
        pairs.append((a, 1.0 - a if rng.random() < 0.5 else rng.uniform(1.0 - a, 4.0)))
    vertex_cases = 0
    for a, b in pairs:
        A, B = Fraction(a), Fraction(b)
        alpha, beta, p = A * (B + 1), B * (1 - A), A + B
        h, k = alpha * beta * (p + beta), beta * (p + 1) + p
        dp = constants.DerivedParams(alpha, beta, p, h, k, (beta + p) / k)
        X, lo = (beta + p) / k, -h / (alpha * k)
        assert (p + 1) ** 2 - 4 * alpha * beta > 0 and 0 < X < 1
        assert -beta * X == lo
        assert constants.g1(0, dp) == h * (p + beta) / k ** 2
        assert constants.g1(lo, dp) == beta ** 2 * p * (p + beta) / k ** 2
        for i in range(11):
            y, x = lo * Fraction(i, 10), X * Fraction(i + 1, 11)
            assert constants.g(X, y, dp) == constants.g1(y, dp)
            assert constants.g(x, -beta * x, dp) == beta * x * (1 - x)
            assert constants.g(x, 0, dp) == alpha * beta * x * x > 0
        # the integer forms of _g1_exact are the oracle's values
        slope, least, y_lo, y, x_hi = verifier._g1_exact(ParamPair(a, b))
        assert (Fraction(*slope), Fraction(*least)) == g1_exact(a, b)
        assert (y_lo, x_hi) == (float(lo), float(X))
        if A + B == 1 and 3 * beta ** 2 > alpha ** 2:  # the vertex, on b = 1-a
            vertex_cases += 1
            assert Fraction(*least) == _f4_exact(A) / (4 * k ** 2)
            assert y == float(-p * p / (2 * k))
    assert vertex_cases >= 3


def test_a_non_positive_exact_value_fails_its_record(monkeypatch):
    # forced exact values: zero and negative margins fail, with the point
    # where they were attained as witness, and render as the report prints
    real = verifier._g1_exact
    # the float nearest -1/10 lies past it, so the margin is the next one in
    for forced, margin in (((0, 1), 0.0), ((-1, 10), math.nextafter(-0.1, 0.0))):
        monkeypatch.setattr(verifier, "_g1_exact", lambda pp: (forced, forced) + real(pp)[2:])
        for pp, case in ((ParamPair(0.9, 1.0), "A"), (ParamPair(0.3, 0.7), "B")):
            assert constants.condition_case(constants.derive_params(pp)).name == case
            _, _, lo, y, X = real(pp)
            g_res, g1_res = check_lemma_g(pp), check_lemma_g1(pp)
            assert not g_res.passed and g_res.worst_margin == margin
            assert g_res.witnesses == [[X, y]]
            assert not g1_res.passed and g1_res.worst_margin == margin
            assert g1_res.witnesses == [[lo if case == "A" else y, margin]]
            for res in (g_res, g1_res):
                assert json.loads(verifier._render(res)[1]) == dataclasses.asdict(res)


def test_lemma_Q_check():
    res = check_lemma_Q(HALF, EP23, D1_HALF)
    assert res.passed and res.status == "ok"
    res = check_lemma_Q(HALF, EP23, MID_HALF)
    assert res.passed and res.status == "ok"
    res = check_lemma_Q(HALF, EP23, D1_HALF + 1e-3)
    assert res.status == "skipped: shift outside monotone range"


def _lemma_Q_tasks(monkeypatch):
    """The params of every lemma_Q task of the default sample and of
    seed 7's."""
    return [t for config in (verifier.DEFAULT_CONFIG, _seed7_config(monkeypatch))
            for kind, t in build_tasks(config) if kind == "lemma_Q"]


def test_lemma_Q_decides_Q1_at_one_in_integers(monkeypatch):
    # d D^4 Q1(1) in Python ints is the rational Q1(1) of Q1's A-form, on
    # every lemma_Q task of both samples, the non-dyadic c/d of d = 3 included
    tasks = _lemma_Q_tasks(monkeypatch)
    assert len(tasks) == 366 + 393
    assert any((Fraction(t["c"]) / Fraction(t["d"])).denominator % 3 == 0 for t in tasks)
    for t in tasks:
        num, den = verifier._q1_at_one(ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"]),
                                       t["delta"])
        assert den > 0
        assert Fraction(num, den) == q1_exact(t["a"], t["b"], t["delta"], t["c"], t["d"], 1)


def test_lemma_Q_margin_never_exceeds_the_exact_margin(monkeypatch):
    # the margin is -Q1(1) rounded toward zero: no larger in size than the
    # exact one, of its sign, and the float next to it away from zero is
    # past it; the nearest float would overstate about half of them
    stepped = 0
    for t in _lemma_Q_tasks(monkeypatch):
        res = check_lemma_Q(ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"]), t["delta"])
        exact = -q1_exact(t["a"], t["b"], t["delta"], t["c"], t["d"], 1)
        margin = Fraction(res.worst_margin)
        assert res.passed and res.tolerance_used == 0.0 and res.witnesses == []
        assert 0 < margin <= exact < Fraction(math.nextafter(res.worst_margin, math.inf))
        stepped += Fraction(float(exact)) > exact
    assert stepped >= 100, stepped


@pytest.mark.parametrize("a, passed", [(0.2, False), (0.4, True), (0.5, False), (0.6, False),
                                       (0.7, True), (0.8, True), (0.9, False)])
def test_lemma_Q_at_the_float_ratio_bound_edge(a, passed):
    # (a, 1-a) with the "bound" ratio at delta = a-1+1e-9: for a = 0.2,
    # 0.5, 0.6 and 0.9 the float bound lies far enough above the true one
    # that Q1(1) is positive, so Q really rises from n = 1 to 2; for 0.4,
    # 0.7 and 0.8 it is negative by 1e-16 or less
    pp = ParamPair(a, 1.0 - a)
    ep = ExponentPair(constants.derive_params(pp).ratio_bound, 1.0)
    delta = a - 1.0 + 1e-9
    res = check_lemma_Q(pp, ep, delta)
    exact = q1_exact(pp.a, pp.b, delta, ep.c_exp, ep.d_exp, 1)
    assert res.status == "ok" and res.passed is passed and (exact < 0) is passed
    assert 0 < abs(exact) < Fraction(2, 10 ** 16)
    # |Q1(1)| rounded toward zero: the margin, or the failure's witness
    size = res.worst_margin if passed else -res.worst_margin
    assert 0 < Fraction(size) <= abs(exact) < Fraction(math.nextafter(size, math.inf))
    assert res.witnesses == ([] if passed else [[1.0, size]])


def test_worst_keeps_a_nan():
    # the builtin min keeps a number it compares with a NaN; the margin
    # fold must not
    assert min(1.0, math.nan) == 1.0
    assert verifier._worst(2.0, -1.0, 3.0) == -1.0
    for margins in ((math.nan, 1.0), (1.0, math.nan), (-1.0, 2.0, math.nan)):
        assert math.isnan(verifier._worst(*margins))


def test_a_nan_constraint_fails_its_check(monkeypatch):
    # a NaN endpoint error, sub-margin or difference is a failed
    # constraint, with a witness, not a silently passing one
    with monkeypatch.context() as m:
        m.setattr(verifier, "c2", lambda *args: math.nan)
        res = check_G_monotone(HALF, EP23, MID_HALF, SMALL_GRID)
    assert not res.passed and math.isnan(res.worst_margin)
    assert res.witnesses[0][0] == 0.0 and math.isnan(res.witnesses[0][1])

    real_scan = verifier._sign_scan

    def nan_scan(col, delta):
        _, witnesses, ds = real_scan(col, delta)
        return math.nan, witnesses, ds

    with monkeypatch.context() as m:
        m.setattr(verifier, "_sign_scan", nan_scan)
        res = check_sharpness(HALF, EP23, "beta", SMALL_GRID)
    assert not res.passed and math.isnan(res.worst_margin) and len(res.witnesses) == 4

    real_fpp = verifier._Column.fpp_differences

    def nan_fpp(self, *deltas):
        values = real_fpp(self, *deltas)
        values[deltas.index(MID_HALF), 1, 5] = math.nan
        return values

    with monkeypatch.context() as m:
        m.setattr(verifier._Column, "fpp_differences", nan_fpp)
        res = check_fpp_positive(HALF, EP23, MID_HALF)
    assert not res.passed and math.isnan(res.worst_margin)
    assert res.witnesses[0][0] == verifier._FPP_XS[5] and math.isnan(res.witnesses[0][1])

    calls = []
    real_beta = verifier.beta_fn

    def beta(x, y):
        calls.append(x)
        return math.nan if len(calls) == 100 else real_beta(x, y)

    with monkeypatch.context() as m:
        m.setattr(verifier, "beta_fn", beta)
        res = check_beta_convex(ParamPair(0.3, 1.5))
    assert not res.passed and res.witnesses


def test_beta_convex_check_and_skip():
    assert check_beta_convex(ParamPair(0.3, 1.5)).passed
    res = check_beta_convex(ParamPair(0.9, 0.5))
    assert res.passed and res.status == "skipped: requires a <= b"


def test_beta_convex_reports_where_its_margin_was_attained(monkeypatch):
    # lifting the 101st of (0.3, 1.5)'s 200 points by 2e-3 makes the second
    # difference centred there the worst margin, -0.00266: its witness is
    # that point and that value, not the smallest first difference
    pp = ParamPair(0.3, 1.5)
    xs = np.linspace(pp.a / 200, pp.a - pp.a / 200, 200)
    real_beta = verifier.beta_fn

    def patched(lift):
        calls = []

        def beta(x, y):
            calls.append(x)
            return lift(real_beta(x, y)) if len(calls) == 101 else real_beta(x, y)
        return beta

    monkeypatch.setattr(verifier, "beta_fn", patched(lambda v: v + 2e-3))
    res = check_beta_convex(pp)
    assert not res.passed and res.worst_margin == pytest.approx(-0.00266, abs=1e-5)
    assert res.witnesses == [[float(xs[100]), res.worst_margin]]

    # a NaN there: the first difference into it is the first NaN
    monkeypatch.setattr(verifier, "beta_fn", patched(lambda v: math.nan))
    res = check_beta_convex(pp)
    assert not res.passed and math.isnan(res.worst_margin)
    assert res.witnesses[0][0] == float(xs[99]) and math.isnan(res.witnesses[0][1])


def test_fpp_positive_check():
    res = check_fpp_positive(HALF, EP23, D1_HALF)
    assert res.passed and res.worst_margin > 0.0


def test_check_result_json_shape():
    res = check_sandwich(HALF, EP23, MID_HALF)
    _, text, _ = verifier._render(res)
    d = json.loads(text)
    assert set(d) == {
        "check_id", "params", "passed", "worst_margin",
        "witnesses", "tolerance_used", "status",
    }
    assert CheckResult(**d) == res


# ---------------------------------------------------------------------------
# suite assembly


SMALL_CONFIG = VerifyConfig(
    grid=SMALL_GRID,
    a_values=(0.3, 0.5),
    b_specs=("1-a", 1.0),
    ratio_specs=(0.6, "bound"),
    workers=1,
)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL_CONFIG)


def test_suite_aggregate(small_report):
    assert small_report.passed
    assert all(c.passed for c in small_report.checks)
    seen = {c.check_id for c in small_report.checks}
    assert seen == set(CHECK_IDS)
    assert len(small_report.checks) > 50


def test_suite_canonical_ordering(small_report):
    keys = [(c.check_id, json.dumps(c.params, sort_keys=True))
            for c in small_report.checks]
    assert keys == sorted(keys)


def _strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


def test_report_identical_across_worker_counts(small_report):
    parallel = run_suite(dataclasses.replace(SMALL_CONFIG, workers=2))
    assert _strip_timestamp(parallel.to_json_text()) == _strip_timestamp(
        small_report.to_json_text()
    )


def _dumps(report):
    """The report as json.dumps writes it, from the records' fields."""
    body = {
        "meta": report.meta,
        "checks": [{f.name: getattr(c, f.name) for f in dataclasses.fields(c)}
                   for c in report.checks],
        "passed": report.passed,
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("run", ["default suite", "run_check"])
def test_report_text_is_json_dumps_byte_for_byte(run):
    if run == "run_check":
        report = run_check("sharpness", SMALL_CONFIG)
        assert report.meta["check_filter"] == "sharpness"
    else:
        report = run_suite(VerifyConfig(workers=1))
    assert report.to_json_text() == _dumps(report)


def _synthetic_records():
    f64 = np.float64
    ok = dict(passed=True, worst_margin=0.5, witnesses=[[0.25, 1e-3]], tolerance_used=1e-12)
    return [
        CheckResult("sandwich", {"a": 0.5, "b": 1.5, "c": 2.0, "d": 3.0, "delta": -0.25},
                    False, math.nan, [[0.5, math.nan]], 1e-12),
        CheckResult("sandwich", {"a": 0.5, "b": 1.5, "c": 2.0, "d": 3.0, "delta": -0.125},
                    True, math.inf, [[-math.inf, math.inf]], 0.0),
        CheckResult("crossing", {"a": 0.5, "b": 1.5, "c": 2.0, "d": 3.0, "delta": -0.0},
                    False, -0.0, [[5e-324, -2.2250738585072014e-308]], 1e-12),
        CheckResult("G_monotone", {"a": f64(0.1), "b": f64(0.9), "c": 0.3, "d": 3.0,
                                   "delta": f64(-0.5)},
                    True, f64(2.44e-9), [[f64(1e-4), f64(-1e-300)]], f64(1e-9)),
        CheckResult("f4_roots", {"n_scan": 10_000}, True, 9.99e-13, [[0.3, 1e-17]], 1e-12),
        CheckResult("sharpness", {"a": 0.5, "b": 0.5, "c": 2.0, "d": 3.0,
                                  "threshold_form": "alpha"}, **ok),
        CheckResult("lemma_g1", {}, True, 1.0, [], 0.0),
        CheckResult("lemma_Q", {"N": 200, "tags": ["x", 1, [2.5, {}]], "nested": {"k": []}},
                    **ok),
        CheckResult("crossing", {"a": 0.3, "b": 1.0, "c": 0.9, "d": 3.0, "delta": -0.1},
                    False, -1.0, [['say "hi"', 0.0], ["back\\slash", 1.0],
                                  ["line\nbreak\ttab", 2.0],
                                  ["non-ASCII: δ₁ ≤ ∞ 😀", 3.0]], 1e-12),
        verifier._skipped("beta_convex", {"a": 0.9, "b": 0.5}, "requires a <= b"),
        verifier._error_result("lemma_g", {"a": 0.2, "b": 0.8},
                               ConvergenceError('no "fit" at x=1\u00e9\n')),
    ]


def test_synthetic_records_render_as_json_dumps_does():
    records = _synthetic_records()
    meta = {"timestamp": "2026-01-01T00:00:00+00:00", "empty": {}, "none": None,
            "list": [1, -0.0, math.nan, "é"], "sample": {"b_specs": ["1-a", 1.0]}}
    report = verifier._build_report(meta, [verifier._render(r) for r in records])
    assert report.to_json_text() == _dumps(report)
    assert not report.passed and len(report.checks) == len(records)
    empty = verifier._build_report({}, [])
    assert empty.passed and empty.to_json_text() == _dumps(empty)


@pytest.mark.parametrize("bad", [np.int64(3), object(), np.bool_(True)])
def test_values_json_dumps_rejects_are_rejected(bad):
    for res in (CheckResult("lemma_g", {"a": bad}, True, 1.0, [], 0.0),
                CheckResult("lemma_g", {}, True, 1.0, [[bad, 0.0]], 0.0),
                CheckResult("lemma_g", {}, True, bad, [], 0.0)):
        with pytest.raises(TypeError):
            json.dumps(dataclasses.asdict(res), sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            verifier._render(res)
    report = verifier._build_report({"x": bad}, [])
    with pytest.raises(TypeError):
        report.to_json_text()
    with pytest.raises(TypeError):
        verifier._render(CheckResult("lemma_g", {(1, 2): 0.5}, True, 1.0, [], 0.0))


def test_sort_key_is_check_id_and_sorted_params_json(small_report):
    records = [*small_report.checks, *_synthetic_records()]
    for rec in records:
        key, _, same = verifier._render(rec)
        assert same is rec
        assert key == (rec.check_id, json.dumps(rec.params, sort_keys=True))
    # records with one key keep their input order
    first = CheckResult("lemma_g", {"a": 0.5, "b": 0.5}, True, 1.0, [], 0.0)
    second = CheckResult("lemma_g", {"b": 0.5, "a": 0.5}, False, -1.0, [], 0.0)
    for pair in ((first, second), (second, first)):
        report = verifier._build_report({}, [verifier._render(r) for r in (records[0], *pair)])
        assert report.checks[-2:] == pair


def _direct_check(check_id, t, config):
    """The record of one task from its public check function, which builds
    its own column."""
    if check_id == "f4_roots":
        return check_f4_roots(t["n_scan"])
    pp = ParamPair(t["a"], t["b"])
    if check_id in ("beta_convex", "lemma_g", "lemma_g1"):
        return {"beta_convex": check_beta_convex, "lemma_g": check_lemma_g,
                "lemma_g1": check_lemma_g1}[check_id](pp)
    ep = ExponentPair(t["c"], t["d"])
    grid, cfg = config.grid, config.series
    if check_id == "sharpness":
        return check_sharpness(pp, ep, t["threshold_form"], grid, cfg)
    if check_id == "lemma_Q":
        return check_lemma_Q(pp, ep, t["delta"])
    if check_id == "fpp_positive":
        return check_fpp_positive(pp, ep, t["delta"], cfg=cfg)
    fn = {"G_monotone": check_G_monotone, "sandwich": check_sandwich,
          "crossing": find_crossing, "crossing_control": check_crossing_control}[check_id]
    return fn(pp, ep, t["delta"], grid, cfg)


def test_suite_records_match_direct_checks(small_report):
    # the suite shares one column among the checks of a (pair, exponents);
    # each direct call builds its own -- the records must not differ
    assert len(small_report.checks) == len(build_tasks(SMALL_CONFIG))
    for rec in small_report.checks:
        direct = _direct_check(rec.check_id, rec.params, SMALL_CONFIG)
        assert (direct.passed, direct.status) == (rec.passed, rec.status)
        assert direct.worst_margin == rec.worst_margin, rec.params
        assert direct == rec


def test_crossing_witnesses_sit_in_their_scan_bracket(small_report):
    # every localized crossing of the sample: inside the bracket between
    # the last strong positive and the first strong negative of its scan,
    # and a point where |F_d - F_c| <= INTERIOR_MARGIN; the one-point path
    # gives the bracket's ends the scan's bits
    n = 0
    for rec in small_report.checks:
        if rec.check_id != "crossing" or rec.status != "ok":
            continue
        tag, near = rec.witnesses[-1]
        assert tag == "crossing_near"
        t = rec.params
        col = verifier._Column(ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"]),
                               SMALL_CONFIG.grid, SMALL_CONFIG.series)
        xs, ds = col.scan_xs, col.differences(t["delta"])
        j = int(np.argmax(ds < -INTERIOR_MARGIN))
        i = np.flatnonzero(ds[:j] > INTERIOR_MARGIN)[-1]
        assert xs[i] < near < xs[j]
        assert [col.difference_at(t["delta"], float(xs[k])) for k in (i, j)] == [ds[i], ds[j]]
        assert abs(col.difference_at(t["delta"], near)) <= INTERIOR_MARGIN
        n += 1
    assert n >= 8, n


def test_task_errors_become_failed_records(monkeypatch, small_report, tmp_path):
    # one column's F_d kernels raise: its records that reach them become
    # error records, every other record is untouched, and the run still
    # reports every task and exits 1
    tasks = build_tasks(SMALL_CONFIG)
    target = next((t["a"], t["b"], t["c"], t["d"]) for kind, t in tasks
                  if kind == "G_monotone" and t["b"] == 1.0)
    original = verifier._Column.kernel_d

    def kernel_d(self, delta):
        if (self.pp.a, self.pp.b, self.ep.c_exp, self.ep.d_exp) == target:
            raise ConvergenceError("forced for one column")
        return original(self, delta)

    monkeypatch.setattr(verifier._Column, "kernel_d", kernel_d)
    report = run_suite(SMALL_CONFIG)
    assert len(report.checks) == len(tasks)
    assert not report.passed
    n_errors = 0
    for got, want in zip(report.checks, small_report.checks):
        key = tuple(got.params.get(k) for k in ("a", "b", "c", "d"))
        if key == target and got.check_id != "lemma_Q" and want.status == "ok":
            n_errors += 1
            assert not got.passed
            assert got.status == "error: ConvergenceError: forced for one column"
            assert got.witnesses
        else:
            assert got == want
    assert n_errors >= 10

    cfg = tmp_path / "small.cfg"
    cfg.write_text("n_points = 128\na_values = 0.3, 0.5\nb_values = 1-a, 1.0\n"
                   "ratios = 0.6, bound\n", encoding="utf-8")
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "--workers", "1", "--config", str(cfg),
               "--out", str(out)])
    assert rc == 1
    records = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(records) == len(tasks)
    assert sum(r["status"].startswith("error: ") for r in records) == n_errors


def test_undeclared_shift_is_computed_when_read():
    # a column fetched at the threshold shift alone still serves checks
    # at other shifts, and gives the record a fresh column gives
    col = verifier._Column(HALF, EP23, SMALL_GRID)
    verifier._fetch([(col, [D1_HALF])])
    assert set(col._values) == {None, D1_HALF}
    assert check_sandwich(HALF, EP23, D1_HALF, SMALL_GRID, column=col) == \
        check_sandwich(HALF, EP23, D1_HALF, SMALL_GRID)
    for check in (check_G_monotone, check_sandwich, check_crossing_control):
        assert check(HALF, EP23, MID_HALF, SMALL_GRID, column=col) == \
            check(HALF, EP23, MID_HALF, SMALL_GRID)
    above = 0.5 * D1_HALF
    assert find_crossing(HALF, EP23, above, SMALL_GRID, column=col) == \
        find_crossing(HALF, EP23, above, SMALL_GRID)
    assert check_fpp_positive(HALF, EP23, MID_HALF, column=col) == \
        check_fpp_positive(HALF, EP23, MID_HALF)
    assert check_sharpness(HALF, EP23, "beta", SMALL_GRID, column=col) == \
        check_sharpness(HALF, EP23, "beta", SMALL_GRID)


def test_stacked_passes_render_what_each_check_renders_alone(monkeypatch):
    # each column's G_monotone, sandwich and fpp_positive tasks run in one
    # pass, and lemma_Q tasks alone; every record is the text of the public
    # check run alone on a fresh column
    passes = []
    real = verifier._monotone_pass
    monkeypatch.setattr(verifier, "_monotone_pass", lambda *args, **kwargs:
                        passes.append(len(args[2])) or real(*args, **kwargs))
    grid, cfg = SMALL_CONFIG.grid, SMALL_CONFIG.series
    seen, n_items, n_columns = set(), 0, 0
    for item in verifier._pair_items(build_tasks(SMALL_CONFIG)):
        del passes[:]
        records = verifier._run_item((item, SMALL_CONFIG))
        columns = {(t["c"], t["d"]) for kind, t in item if kind == "G_monotone"}
        if columns:
            n_items += 1
            n_columns += len(columns)
            n_q = sum(kind == "lemma_Q" for kind, _ in item)
            assert len(passes) == len(columns) and sum(passes) == 3 * n_q
        for _, text, rec in records:
            t = rec.params
            if rec.check_id == "lemma_g":
                alone = check_lemma_g(ParamPair(t["a"], t["b"]))
            elif rec.check_id in ("lemma_Q", "G_monotone", "sandwich", "fpp_positive"):
                pp, ep = ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"])
                col = verifier._Column(pp, ep, grid, cfg)
                alone = {"lemma_Q": lambda: check_lemma_Q(pp, ep, t["delta"], col),
                         "G_monotone": lambda: check_G_monotone(pp, ep, t["delta"], grid, cfg, col),
                         "sandwich": lambda: check_sandwich(pp, ep, t["delta"], grid, cfg, col),
                         "fpp_positive": lambda: check_fpp_positive(pp, ep, t["delta"], cfg, col),
                         }[rec.check_id]()
            else:
                continue
            assert verifier._render(alone)[1] == text
            seen.add(rec.check_id)
    assert seen == {"lemma_g", "lemma_Q", "G_monotone", "sandwich", "fpp_positive"}
    assert n_items >= 3 and n_columns >= 8


def _monotone_item():
    """The first pair item of SMALL_CONFIG with at least two columns, its
    records rendered by _run_item, by sort key, and the params of a
    G_monotone task there whose shift no other column of the item has."""
    item = next(item for item in verifier._pair_items(build_tasks(SMALL_CONFIG))
                if len({(t["c"], t["d"]) for kind, t in item if kind == "G_monotone"}) >= 2)
    shifts = [t["delta"] for kind, t in item if kind == "G_monotone"]
    target = next(t for kind, t in item if kind == "G_monotone" and shifts.count(t["delta"]) == 1)
    rendered = {key: text for key, text, _ in verifier._run_item((item, SMALL_CONFIG))}
    return item, rendered, target


def _changed(item, want):
    """The records of item that _run_item now renders other than want."""
    got = verifier._run_item((item, SMALL_CONFIG))
    assert {key for key, _, _ in got} == want.keys()
    return [rec for key, text, rec in got if text != want[key]]


def test_a_nan_in_one_stacked_row_fails_only_its_record(monkeypatch):
    # the fpp patch of test_a_nan_constraint_fails_its_check, on one row of
    # a stacked pass: that record fails with its witness, and the other
    # records of the item keep their bytes
    item, want, target = _monotone_item()
    real_fpp = verifier._Column.fpp_differences
    stacked = []

    def nan_fpp(self, *deltas):
        values = real_fpp(self, *deltas)
        stacked.append(len(deltas))
        if (self.ep.c_exp, self.ep.d_exp) == (target["c"], target["d"]):
            values[deltas.index(target["delta"]), 1, 5] = math.nan
        return values

    with monkeypatch.context() as m:
        m.setattr(verifier._Column, "fpp_differences", nan_fpp)
        changed = _changed(item, want)
    assert max(stacked) >= 2
    assert [(r.check_id, r.params) for r in changed] == [("fpp_positive", target)]
    res = changed[0]
    assert not res.passed and math.isnan(res.worst_margin)
    assert res.witnesses[0][0] == verifier._FPP_XS[5] and math.isnan(res.witnesses[0][1])


def test_a_stacked_pass_that_raises_runs_each_task_alone(monkeypatch):
    # c2 raising at one shift fails its column's monotone pass: each of its
    # tasks then runs alone, G_monotone and sandwich at that shift get the
    # error records of their one-row calls, and no other record changes,
    # fpp_positive at that shift (which reads no c2) included
    item, want, target = _monotone_item()
    real = verifier.c2

    def c2(pp, delta):
        if delta == target["delta"]:
            raise DomainError("forced for one shift")
        return real(pp, delta)

    monkeypatch.setattr(verifier, "c2", c2)
    changed = _changed(item, want)
    pp, ep = ParamPair(target["a"], target["b"]), ExponentPair(target["c"], target["d"])
    grid, cfg = SMALL_CONFIG.grid, SMALL_CONFIG.series
    errors = []
    for check_id, check in (("G_monotone", check_G_monotone), ("sandwich", check_sandwich)):
        with pytest.raises(DomainError) as alone:
            check(pp, ep, target["delta"], grid, cfg)
        errors.append(verifier._error_result(check_id, target, alone.value))
    assert changed == errors
    assert {r.status for r in changed} == {"error: DomainError: forced for one shift"}


def test_a_column_fetches_its_values_in_one_call(monkeypatch, small_report):
    # the shifts _column_shifts gives for a column's tasks cover every
    # value they read: one evaluate call per pair item, for all of its
    # columns, no value computed on its own
    calls = []
    real = verifier.evaluate

    def counted(kernels, xs):
        calls.append(len(kernels))
        return real(kernels, xs)

    def unexpected(kernel, xs):
        raise AssertionError("a value the item did not fetch")

    monkeypatch.setattr(verifier, "evaluate", counted)
    monkeypatch.setattr(verifier.Hyp2f1Kernel, "array", unexpected)
    records = {}
    n_columns = 0
    for item in verifier._pair_items(build_tasks(SMALL_CONFIG)):
        columns = {(t["c"], t["d"]) for _, t in item if "d" in t}
        before = len(calls)
        for key, _, rec in verifier._run_item((item, SMALL_CONFIG)):
            records[key] = rec
        assert len(calls) == before + (len(columns) > 0)
        n_columns += len(columns)
    assert n_columns >= 8
    for rec in small_report.checks:
        if "d" in rec.params:
            assert records[rec.check_id, json.dumps(rec.params, sort_keys=True)] == rec


def test_a_pair_builds_each_kernel_once_per_run(monkeypatch, small_report):
    # F_c and F_d at a shift do not depend on the exponents: the columns of
    # a pair item share them, so no kernel is built twice in a run, and a
    # second run builds them all again
    built = []
    real_c, real_d = verifier._kernel_c, verifier._kernel_d
    monkeypatch.setattr(verifier, "_kernel_c", lambda pp, cfg: built.append((pp, None))
                        or real_c(pp, cfg))
    monkeypatch.setattr(verifier, "_kernel_d", lambda pp, delta, cfg: built.append((pp, delta))
                        or real_d(pp, delta, cfg))
    assert run_suite(SMALL_CONFIG).checks == small_report.checks
    first = list(built)
    assert len(first) == len(set(first))
    columns = {(t["a"], t["b"], t["c"], t["d"]) for _, t in build_tasks(SMALL_CONFIG) if "d" in t}
    pairs = {key[:2] for key in columns}
    assert sum(delta is None for _, delta in first) == len(pairs) < len(columns)
    built.clear()
    run_suite(SMALL_CONFIG)
    assert built == first


def test_a_pair_item_fetches_the_bits_each_column_fetches_alone():
    # one evaluate call for every column of a pair item gives each value
    # the bits the column's own call gives it, kernels shared or not
    n = 0
    for item in verifier._pair_items(build_tasks(SMALL_CONFIG)):
        columns, alone, kernels_ = {}, {}, {}
        for _, t in item:
            if "d" not in t or (t["c"], t["d"]) in columns:
                continue
            group = [(kind, u) for kind, u in item if (u.get("c"), u.get("d")) == (t["c"], t["d"])]
            pp, ep = ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"])
            col = verifier._Column(pp, ep, SMALL_GRID, kernels=kernels_)
            columns[t["c"], t["d"]] = col, verifier._column_shifts(group, col.gate)
            alone[t["c"], t["d"]] = verifier._Column(pp, ep, SMALL_GRID)
        verifier._fetch(list(columns.values()))
        for key, (col, shifts) in columns.items():
            verifier._fetch([(alone[key], shifts)])
            assert set(col._values) == set(alone[key]._values) == {None, *shifts}
            for delta, values in col._values.items():
                assert alone[key]._values[delta].tobytes() == values.tobytes()
                n += 1
    assert n >= 40


def test_the_pool_starts_no_more_workers_than_items(monkeypatch):
    # a fork-started pool forks every worker up front: --workers 500 on a
    # sample of fewer items starts one worker per item (a stand-in pool,
    # which the pooled branch imports, records the count and runs the
    # items here, starting no process)
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    tasks = build_tasks(SMALL_CONFIG)
    n_items = len(verifier._pair_items(tasks))
    serial = verifier._run_tasks(tasks, SMALL_CONFIG)
    assert started == [] and 2 < n_items < 500
    for workers, want in ((500, n_items), (n_items, n_items), (2, 2)):
        config = dataclasses.replace(SMALL_CONFIG, workers=workers)
        assert verifier._run_tasks(tasks, config) == serial
        assert started[-1] == want
    assert verifier._run_tasks(tasks[:1], dataclasses.replace(SMALL_CONFIG, workers=500)) \
        == serial[:1]
    assert len(started) == 3


def _seed7_config(monkeypatch):
    """The suite sample the benchmark draws for seed 7 (perfbench/workloads.py)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are defined
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    sample = workloads.draw_suite_sample(7)
    return VerifyConfig(a_values=tuple(sample["a_values"]), b_specs=("1-a", *sample["b_values"]),
                        ratio_specs=(*sample["ratios"], "bound"), workers=1)


def test_a_column_gates_once_and_derives_its_parameters_once(monkeypatch):
    # the admissibility gate is column work: computed once per column and
    # read by every check of it, lemma_Q included; delta1 derives once
    config = _seed7_config(monkeypatch)
    gates, derived = [], []
    real_gate, real_derive = verifier._gate, constants.derive_params

    def gate(pp, ep):
        gates.append((pp, ep))
        return real_gate(pp, ep)

    def derive(pp):
        derived.append(pp)
        return real_derive(pp)

    monkeypatch.setattr(verifier, "_gate", gate)
    monkeypatch.setattr(verifier, "derive_params", derive)
    monkeypatch.setattr(constants, "derive_params", derive)
    tasks = build_tasks(config)
    columns = {(t["a"], t["b"], t["c"], t["d"]) for _, t in tasks if "d" in t}
    derived.clear()
    report = run_suite(config)
    assert len(report.checks) == len(tasks)
    assert len(gates) == len(set(gates)) == len(columns) >= 100
    assert len(derived) <= 2500, len(derived)
    derived.clear()
    delta1(HALF, EP23)
    assert len(derived) == 1


def test_a_suite_calls_find_crossing_once_per_crossing_task(monkeypatch, small_report):
    # sharpness reads its sign changes off _sign_scan: find_crossing runs
    # for the crossing tasks alone, once each
    calls = []
    real = verifier.find_crossing
    monkeypatch.setattr(verifier, "find_crossing",
                        lambda *args, **kwargs: calls.append(args[2]) or real(*args, **kwargs))
    assert run_suite(SMALL_CONFIG).checks == small_report.checks
    shifts = [t["delta"] for kind, t in build_tasks(SMALL_CONFIG) if kind == "crossing"]
    assert len(shifts) >= 8 and sorted(calls) == sorted(shifts)


def test_sharpness_localizes_no_crossing_of_its_own(monkeypatch, small_report):
    # sharpness reads find_crossing's scan at shifts no crossing task owns
    # and reports no crossing_near: no one-point evaluation happens there,
    # and each crossing record still carries its crossing_near
    shifts = []
    real = verifier._Column.difference_at

    def counted(self, delta, x):
        shifts.append(delta)
        return real(self, delta, x)

    monkeypatch.setattr(verifier._Column, "difference_at", counted)
    tasks = build_tasks(SMALL_CONFIG)
    owned = {t["delta"] for kind, t in tasks if kind == "crossing"}
    only_sharpness = set()
    for kind, t in tasks:
        if kind == "sharpness":
            pp, ep = ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"])
            only_sharpness |= set(verifier._sharpness_shifts(delta1(pp, ep))) - owned
    assert only_sharpness
    report = run_suite(SMALL_CONFIG)
    assert report.checks == small_report.checks
    assert shifts and not set(shifts) & only_sharpness
    localized = [r for r in report.checks
                 if r.check_id == "crossing" and r.passed and r.witnesses[-1][0] == "crossing_near"]
    assert len(localized) == sum(r.check_id == "crossing" and r.passed for r in report.checks)

    # a crossing task after sharpness on the same column, at the shift
    # they share, still localizes its witness
    t = next(t for kind, t in tasks if kind == "sharpness")
    pp, ep = ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"])
    shared = verifier._sharpness_shifts(delta1(pp, ep))[1]
    col = verifier._Column(pp, ep, SMALL_GRID)
    check_sharpness(pp, ep, "beta", SMALL_GRID, column=col)
    got = find_crossing(pp, ep, shared, SMALL_GRID, column=col)
    assert got == find_crossing(pp, ep, shared, SMALL_GRID)
    assert got.witnesses[-1][0] == "crossing_near"


def test_a_row_that_does_not_converge_fails_only_its_records(monkeypatch, small_report):
    # a kernel whose series cannot meet its budget makes the column's
    # stacked build raise; the column then evaluates shift by shift, so
    # the one check that reads that kernel gets the error it gets alone
    t = next(t for kind, t in build_tasks(SMALL_CONFIG) if kind == "sharpness")
    pp, ep = ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"])
    bad = verifier._sharpness_shifts(delta1(pp, ep))[0]
    starved = SeriesConfig(rel_tol=1e-300, max_terms=1000)
    real = verifier._kernel_d

    def kernel_d(pp_, delta, cfg):
        return real(pp_, delta, starved if (pp_, delta) == (pp, bad) else cfg)

    monkeypatch.setattr(verifier, "_kernel_d", kernel_d)
    with pytest.raises(ConvergenceError) as alone:
        check_sharpness(pp, ep, "beta", SMALL_GRID)
    assert "1000 terms" in str(alone.value)
    report = run_suite(SMALL_CONFIG)
    for got, want in zip(report.checks, small_report.checks):
        if (got.check_id, got.params) == ("sharpness", t):
            assert got.status == f"error: ConvergenceError: {alone.value}"
        else:
            assert got == want


def test_a_bad_shift_fails_only_the_check_that_reads_it(monkeypatch, small_report):
    # the shift cand + 1e-3 is read by sharpness alone: when its kernel
    # raises, the column's stacked fetch fails and falls back to shift by
    # shift, so sharpness gets the error and no other record changes
    t = next(t for kind, t in build_tasks(SMALL_CONFIG) if kind == "sharpness")
    pp, ep = ParamPair(t["a"], t["b"]), ExponentPair(t["c"], t["d"])
    bad = verifier._sharpness_shifts(delta1(pp, ep))[0]
    original = verifier._Column.kernel_d

    def kernel_d(self, delta):
        if (self.pp, self.ep, delta) == (pp, ep, bad):
            raise ConvergenceError("forced for one shift")
        return original(self, delta)

    monkeypatch.setattr(verifier._Column, "kernel_d", kernel_d)
    report = run_suite(SMALL_CONFIG)
    for got, want in zip(report.checks, small_report.checks):
        if (got.check_id, got.params) == ("sharpness", t):
            assert got.status == "error: ConvergenceError: forced for one shift"
        else:
            assert got == want


def test_run_check_filters_to_one_id():
    report = run_check("f4_roots", SMALL_CONFIG)
    assert report.passed
    assert [c.check_id for c in report.checks] == ["f4_roots"]
    assert report.meta["check_filter"] == "f4_roots"
    with pytest.raises(DomainError):
        run_check("not_a_check", SMALL_CONFIG)


def test_default_sample_is_wide_enough():
    tasks = build_tasks(VerifyConfig())
    tuples = {
        (t["a"], t["b"], t["c"], t["d"])
        for kind, t in tasks
        if kind == "G_monotone"
    }
    assert len(tuples) >= 30
    assert (0.5, 0.5, 2.0, 3.0) in tuples  # the symmetric reference tuple
    assert any(b == 1.0 - a for a, b, _, _ in tuples)  # complementary family
    kinds = {kind for kind, _ in tasks}
    assert kinds == set(CHECK_IDS)


def test_verify_config_validation():
    with pytest.raises(DomainError):
        VerifyConfig(threshold_form="gamma")
    with pytest.raises(DomainError):
        VerifyConfig(workers=0)
    with pytest.raises(DomainError):
        VerifyConfig(d_exp=-1.0)


def test_verify_config_refuses_a_token_in_the_wrong_list():
    # each list takes numbers and its own token only; a wrong token was a
    # ValueError from the float() of build_tasks
    for kwargs, message in (({"a_values": (0.5, "1-a")}, "a value '1-a' is not a number"),
                            ({"b_specs": ("1-a", "bound")}, "b value 'bound' is not a number"),
                            ({"ratio_specs": ("bound", "1-a")}, "ratio '1-a' is not a number")):
        with pytest.raises(DomainError, match=message):
            VerifyConfig(**kwargs)
    # any real number is one, and the report's meta holds it as a float
    config = VerifyConfig(a_values=(Fraction(1, 2), np.float32(0.25)), b_specs=("1-a", 1, 1.5),
                          ratio_specs=(Fraction(1, 3), "bound"))
    assert json.loads(verifier._json(verifier._suite_meta(config)))["sample"] == {
        "a_values": [0.5, 0.25], "b_specs": ["1-a", 1.0, 1.5], "ratio_specs": [1 / 3, "bound"],
        "d_exp": 3.0, "threshold_form": "beta"}


def test_sweep_rows_match_header_and_quotient():
    grid = GridSpec(n_points=32)
    values = sweep_rows(HALF, EP23, D1_HALF, grid)
    # one C-ordered row per grid point: the header's columns after the
    # echoed a,b,c,d,delta
    assert values.shape == (32, len(SWEEP_HEADER.split(",")) - 5)
    assert values.dtype == np.float64 and values.flags.c_contiguous
    xs = values[:, 0]
    assert xs.tobytes() == make_grid(grid).tobytes()
    assert np.all(xs[:-1] < xs[1:])
    for x, g, f_c, f_d, lo_env, hi_env in values[::7].tolist():
        assert g == G_value(HALF, EP23, D1_HALF, x)  # same code path, bit-equal
        assert lo_env < f_d < hi_env  # the sandwich, in function units
