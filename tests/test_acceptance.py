"""Package acceptance gates.

Each test covers one numbered gate and prints a single
"ACCEPTANCE n: PASS/FAIL - ..." line (visible under pytest -s, and in the
failure report otherwise) before asserting, so a full run documents every
gate's measured numbers in one place.

Gate 4 checks the roots of the case-boundary polynomial f4 against the
brackets (1/28, 1/27) and (13/25, 27/50).  Each bracket is proved by an
exact rational sign change of 4h(beta+p) - p^4 at b = 1-a, written from the
definitions of alpha, beta, p and h.  The brackets it once asserted,
(1/32, 1/31) and (41/50, 42/50), belong to the sign-flipped variant
4a(2-a)(1-a)^2 (a^2-2a-2)^2 - 1, which is 4h(beta+p) - p^4 for no pair:
its factor would need p+beta = a^2-2a-2 < 0.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hypcert import (
    ExponentPair,
    ParamPair,
    SeriesConfig,
    VerifyConfig,
    GridSpec,
    delta1,
    derive_params,
    f1,
    f2,
    f4,
    hyp2f1,
    hyp2f1_dx,
    run_suite,
)
from hypcert.verifier import (
    DEFAULT_CONFIG,
    build_tasks,
    check_crossing_control,
    check_f4_roots,
    check_sharpness,
    find_crossing,
    isolate_roots_f4,
)

from _oracles import agm_K, case_boundary_exact, centered_diff

HALF = ParamPair(0.5, 0.5)
EP23 = ExponentPair(2.0, 3.0)


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def full_suite():
    t0 = time.perf_counter()
    report = run_suite(DEFAULT_CONFIG)
    return report, time.perf_counter() - t0


def _checks(report, check_id, status="ok"):
    return [c for c in report.checks
            if c.check_id == check_id and c.status == status]


def _tuple_of(params):
    return (params["a"], params["b"], params["c"], params["d"])


def test_acceptance_1_threshold_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1, 21):
        r = i / 25.0  # 0.04 .. 0.80, all admissible at (1/2, 1/2)
        got = delta1(HALF, ExponentPair(3.0 * r, 3.0))
        worst = max(worst, abs(got - (math.sqrt(r) - 1.0) / 2.0))
    for a in (0.2, 0.35, 0.5, 0.65):
        pp = ParamPair(a, 1.0 - a)
        for i in range(1, 6):
            r = i / 8.0  # 0.125 .. 0.625, admissible for every a above
            got = delta1(pp, ExponentPair(3.0 * r, 3.0))
            worst = max(worst, abs(got - (math.sqrt(r) - 1.0) * (1.0 - a)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _line(1, ok, f"40 closed-form threshold values, max |diff| {worst:.2e}, "
                 f"{elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_acceptance_2_monotone_sandwich_endpoints(full_suite):
    report, elapsed = full_suite
    mono = _checks(report, "G_monotone")
    sand = _checks(report, "sandwich")
    tuples = {_tuple_of(c.params) for c in mono}
    has_symmetric = (0.5, 0.5, 2.0, 3.0) in tuples
    has_complementary = any(
        b == 1.0 - a and (c, d) == (2.0, 3.0) for a, b, c, d in tuples
    )
    mono_ok = all(c.passed for c in mono)
    sand_ok = all(c.passed for c in sand)
    worst = min(c.worst_margin for c in mono + sand)
    ok = (mono_ok and sand_ok and len(tuples) >= 30
          and has_symmetric and has_complementary and elapsed < 60.0)
    _line(2, ok, f"{len(tuples)} tuples on the 512-point clustered grid, "
                 f"{len(mono)} monotone + {len(sand)} sandwich checks, "
                 f"worst margin {worst:.2e}, suite {elapsed:.1f}s")
    assert mono_ok and sand_ok
    assert len(tuples) >= 30 and has_symmetric and has_complementary
    assert elapsed < 60.0


def test_acceptance_3_sharpness_bracket():
    # every sampled admissible tuple whose threshold leaves room for the
    # +-1e-3 bracket: a sign change must appear just above the threshold
    # and must be absent just below it
    combos = sorted({
        _tuple_of(params)
        for kind, params in build_tasks(DEFAULT_CONFIG)
        if kind == "G_monotone"
    })
    n_run = 0
    failures = []
    for a, b, c, d in combos:
        pp, ep = ParamPair(a, b), ExponentPair(c, d)
        d1 = delta1(pp, ep)
        if not (d1 + 1e-3 < 0.0 and d1 - 1e-3 > a - 1.0):
            continue  # threshold too close to an endpoint for this bracket
        n_run += 1
        up = find_crossing(pp, ep, d1 + 1e-3)
        down = check_crossing_control(pp, ep, d1 - 1e-3)
        if not (up.passed and up.status == "ok"):
            failures.append(("no crossing above", a, b, c, d))
        if not (down.passed and down.status == "ok"):
            failures.append(("crossing below", a, b, c, d))

    # required fixture: the alpha-form threshold variant must fail the same
    # characterization that the beta form passes
    alpha_failed, beta_passed = True, True
    for pp, ep in ((HALF, EP23), (ParamPair(0.3, 0.7), EP23)):
        alpha_failed &= not check_sharpness(pp, ep, "alpha").passed
        beta_passed &= check_sharpness(pp, ep, "beta").passed

    ok = not failures and n_run >= 30 and alpha_failed and beta_passed
    _line(3, ok, f"{n_run} tuples bracketed at threshold +-1e-3, "
                 f"{len(failures)} failures; alpha variant rejected: "
                 f"{alpha_failed}, beta form accepted: {beta_passed}")
    assert not failures, failures[:5]
    assert n_run >= 30
    assert alpha_failed and beta_passed


# brackets of the two case-boundary roots, with the sign of the exact
# 4h(beta+p) - p^4 at each end
F4_BRACKETS = ((Fraction(1, 28), Fraction(1, 27)),
               (Fraction(13, 25), Fraction(27, 50)))


def test_acceptance_4_case_boundary_roots():
    t0 = time.perf_counter()
    a0, a1 = isolate_roots_f4()
    res = check_f4_roots()
    elapsed = time.perf_counter() - t0
    # exact sign change across each bracket: a root of the polynomial the
    # case split uses lies inside it
    flips = [case_boundary_exact(lo) * case_boundary_exact(hi) < 0
             for lo, hi in F4_BRACKETS]
    # float vs Fraction comparisons are exact
    inside = [lo < root < hi for root, (lo, hi) in zip((a0, a1), F4_BRACKETS)]
    ok = res.passed and all(flips) and all(inside) and elapsed < 1.0
    _line(4, ok, f"roots {a0:.17g}, {a1:.17g}; residuals "
                 f"{abs(f4(a0)):.1e}, {abs(f4(a1)):.1e}; exactly two sign "
                 f"changes; exact sign change across (1/28, 1/27) and "
                 f"(13/25, 27/50): {flips[0]}/{flips[1]}; brackets contain "
                 f"the roots: {inside[0]}/{inside[1]}; {elapsed:.3f}s")
    assert res.passed  # residuals <= 1e-12, two sign changes, one turn of f4
    assert elapsed < 1.0
    assert all(flips), (
        "4h(beta+p) - p^4 at b = 1-a does not change sign across the "
        "brackets (1/28, 1/27) and (13/25, 27/50) in exact arithmetic"
    )
    assert all(inside), (
        f"computed roots {a0!r} and {a1!r} do not lie strictly inside the "
        f"exact brackets (1/28, 1/27) and (13/25, 27/50) of the case "
        f"boundary 4h(beta+p) - p^4 at b = 1-a"
    )


def test_acceptance_5_auxiliary_function_suite(full_suite):
    report, _ = full_suite
    suite_ok = True
    counts = {}
    for cid in ("lemma_g", "lemma_g1", "lemma_Q", "beta_convex"):
        done = _checks(report, cid)
        counts[cid] = len(done)
        suite_ok &= bool(done) and all(c.passed for c in done)

    # quadratic range certificates, endpoints to 1e-10 and containment on a
    # 200-point shift grid
    range_ok = True
    for pp in (HALF, ParamPair(0.3, 0.7), ParamPair(0.2, 1.5), ParamPair(0.7, 3.0)):
        dp = derive_params(pp)
        lo = pp.a - 1.0
        range_ok &= abs(f1(pp, 0.0) - (dp.p - 1.0)) <= 1e-10
        range_ok &= abs(f1(pp, lo) - (dp.p - 1.0 + dp.beta)) <= 1e-10
        range_ok &= abs(f2(pp, 0.0) - dp.alpha) <= 1e-10
        range_ok &= abs(f2(pp, lo) - dp.p) <= 1e-10
        for i in range(1, 200):
            delta = lo * i / 200.0
            range_ok &= dp.p - 1.0 - 1e-10 <= f1(pp, delta) <= dp.p - 1.0 + dp.beta + 1e-10
            range_ok &= dp.alpha - 1e-10 <= f2(pp, delta) <= dp.p + 1e-10

    # weighted-decrease boundary: d* = max(a+b-c, ab/c) is the last exponent
    # whose weight keeps (1-x)^w F non-increasing
    weight_ok = True
    xs = np.linspace(0.004, 0.99, 200)
    for a, b, c in ((0.5, 0.5, 1.0), (0.3, 0.8, 1.6)):
        ds = max(a + b - c, a * b / c)
        for bump, expect_decreasing in ((0.1, True), (-0.1, False)):
            w = ds + bump
            vals = [(1.0 - float(x)) ** w * hyp2f1(a, b, c, float(x)) for x in xs]
            rises = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
            if expect_decreasing:
                slack = [1e-9 * max(1.0, abs(v)) for v in vals[:-1]]
                weight_ok &= all(r <= s for r, s in zip(rises, slack))
            else:
                weight_ok &= max(rises) > 1e-6

    ok = suite_ok and range_ok and weight_ok
    _line(5, ok, f"lemma checks {counts}, quadratic ranges to 1e-10: "
                 f"{range_ok}, weighted-decrease boundary: {weight_ok}")
    assert suite_ok and range_ok and weight_ok


def test_acceptance_6_evaluator_accuracy():
    agm_worst = 0.0
    for x in [i / 10.0 for i in range(1, 10)] + [0.95, 0.99, 0.999]:
        ref = 2.0 * agm_K(math.sqrt(x)) / math.pi
        agm_worst = max(agm_worst, abs(hyp2f1(0.5, 0.5, 1.0, x) - ref) / ref)

    raw = SeriesConfig(switch_point=0.96)
    conn = SeriesConfig(switch_point=0.5)
    overlap_worst = 0.0
    for a, b, c in ((-0.5, 0.5, 1.0), (0.5, 0.7, 1.7)):
        for x in np.linspace(0.7, 0.95, 26):
            v1 = hyp2f1(a, b, c, float(x), raw)
            v2 = hyp2f1(a, b, c, float(x), conn)
            overlap_worst = max(overlap_worst, abs(v1 - v2) / abs(v2))

    deriv_worst = 0.0
    for x in np.linspace(0.05, 0.9, 18):
        got = hyp2f1_dx(0.5, 0.5, 1.0, float(x))
        ref = centered_diff(lambda t: hyp2f1(0.5, 0.5, 1.0, t), float(x))
        deriv_worst = max(deriv_worst, abs(got - ref) / max(1.0, abs(ref)))

    ok = agm_worst <= 1e-10 and overlap_worst <= 1e-10 and deriv_worst <= 1e-6
    _line(6, ok, f"AGM identity rel {agm_worst:.2e}, route overlap rel "
                 f"{overlap_worst:.2e}, derivative vs FD {deriv_worst:.2e}")
    assert agm_worst <= 1e-10
    assert overlap_worst <= 1e-10
    assert deriv_worst <= 1e-6


def test_acceptance_7_difference_convexity(full_suite):
    report, _ = full_suite
    done = _checks(report, "fpp_positive")
    all_passed = bool(done) and all(c.passed for c in done)
    worst = min(c.worst_margin for c in done)
    # margin is (second difference) + 1e-6, so > 1e-6 means strictly positive
    strict = worst > 1e-6
    ok = all_passed and strict
    _line(7, ok, f"{len(done)} convexity checks, worst margin {worst:.2e} "
                 f"(strictly positive second differences: {strict})")
    assert all_passed and strict


def test_acceptance_8_report_determinism():
    config = VerifyConfig(
        grid=GridSpec(n_points=128),
        a_values=(0.3, 0.5),
        b_specs=("1-a", 1.0),
        ratio_specs=(0.6, "bound"),
        workers=1,
    )
    sequential = run_suite(config).to_json_text()
    parallel = run_suite(dataclasses.replace(config, workers=None)).to_json_text()

    def strip_timestamp(text):
        return "\n".join(l for l in text.splitlines() if '"timestamp"' not in l)

    same = strip_timestamp(sequential) == strip_timestamp(parallel)
    _line(8, same, f"sequential vs parallel report: "
                   f"{'byte-identical' if same else 'DIFFER'} "
                   f"({len(sequential.splitlines())} lines, timestamp aside)")
    assert same
