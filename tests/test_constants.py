"""Closed-form layer: derived parameters, thresholds, envelopes, and the
auxiliary f/g/Q families.

Expected values that are not hand-checkable fractions were frozen from the
defining formulas evaluated independently (sympy-checked algebra, direct
polynomial arithmetic) before the implementation existed.
"""

import math
import random
from fractions import Fraction

import pytest

from hypcert import (
    Case,
    DomainError,
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
    ln_gamma,
)
from hypcert.constants import A, Q, Q1, _threshold_root, g, g1, lemma_quadratic

from _oracles import (
    case_boundary_exact,
    centered_diff,
    poly_add,
    poly_deriv,
    poly_eval,
    poly_mul,
    q1_exact,
    sturm_root_count,
)

EP23 = ExponentPair(2.0, 3.0)
HALF = ParamPair(0.5, 0.5)


def random_pair(rng):
    a = rng.uniform(0.05, 0.95)
    b = (1.0 - a) + rng.uniform(0.0, 2.0)
    return ParamPair(a, b)


def admissible_exponents(pp, rng):
    r = derive_params(pp).ratio_bound * rng.uniform(0.1, 1.0)
    return ExponentPair(3.0 * r, 3.0)


# ---------------------------------------------------------------------------
# parameter validation and derived quantities


def test_param_pair_validation():
    with pytest.raises(DomainError):
        ParamPair(0.0, 1.0)
    with pytest.raises(DomainError):
        ParamPair(1.0, 1.0)
    with pytest.raises(DomainError):
        ParamPair(0.5, 0.49)
    ParamPair(0.5, 0.5)  # b = 1-a sits inside the domain


def test_exponent_pair_validation():
    with pytest.raises(DomainError):
        ExponentPair(-1.0, 3.0)
    with pytest.raises(DomainError):
        ExponentPair(2.0, 0.0)
    with pytest.raises(DomainError):
        ExponentPair(3.0, 2.0)
    assert ExponentPair(2.0, 2.0).ratio == 1.0  # degenerate c = d tolerated
    assert ExponentPair(2.0, 3.0).ratio == pytest.approx(2.0 / 3.0, rel=1e-16)


def test_derive_params_half_half():
    dp = derive_params(HALF)
    assert dp.alpha == 0.75
    assert dp.beta == 0.25
    assert dp.p == 1.0
    assert dp.h == 15.0 / 64.0
    assert dp.k == 1.5
    assert dp.ratio_bound == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_ratio_bound_complementary_family():
    # for b = 1-a the bound collapses to ((1-a)^2 + 1) / (2(1-a)^2 + 1)
    for a in (0.1, 0.25, 0.5, 0.7, 0.9):
        w = (1.0 - a) ** 2
        expected = (w + 1.0) / (2.0 * w + 1.0)
        got = derive_params(ParamPair(a, 1.0 - a)).ratio_bound
        assert got == pytest.approx(expected, rel=1e-13), f"a={a}"


def test_ratio_bound_tends_to_one():
    prev = 0.0
    for a in (0.9, 0.99, 0.999, 0.9999):
        rb = derive_params(ParamPair(a, 1.0 - a)).ratio_bound
        assert rb > prev
        prev = rb
    assert prev > 1.0 - 1e-6


def test_h_product_form_random_pairs():
    # h = alpha*beta*(p+beta) must agree with the expanded product
    # a(1-a)b(b+1)(a+2b-ab); derive_params cross-checks internally, so the
    # real assertion here is that no random admissible pair trips it
    rng = random.Random(20260816)
    for _ in range(500):
        pp = random_pair(rng)
        dp = derive_params(pp)
        expanded = (
            pp.a
            * (1.0 - pp.a)
            * pp.b
            * (pp.b + 1.0)
            * (pp.a + 2.0 * pp.b - pp.a * pp.b)
        )
        assert dp.h == pytest.approx(expanded, rel=1e-13)
        assert dp.alpha + dp.beta == pytest.approx(dp.p, rel=1e-15)


# ---------------------------------------------------------------------------
# case split


def test_condition_case_examples():
    assert condition_case(derive_params(HALF)) is Case.A
    assert condition_case(derive_params(ParamPair(0.05, 0.95))) is Case.B
    assert condition_case(derive_params(ParamPair(0.02, 0.98))) is Case.INADMISSIBLE


def test_case_enum_values():
    assert Case.A.value == "CaseA"
    assert Case.B.value == "CaseB"
    assert Case.INADMISSIBLE.value == "Inadmissible"


def test_case_a_predicate_reciprocal_form():
    # alpha <= sqrt(3)*beta is the same cut as sqrt(3)/a - 1/b >= 1+sqrt(3);
    # ties within rounding distance of the boundary are skipped
    rng = random.Random(7)
    s3 = math.sqrt(3.0)
    for _ in range(1000):
        pp = random_pair(rng)
        dp = derive_params(pp)
        lhs, rhs = dp.alpha, s3 * dp.beta
        if abs(lhs - rhs) <= 1e-9 * max(lhs, rhs):
            continue
        assert (lhs <= rhs) == (s3 / pp.a - 1.0 / pp.b >= 1.0 + s3)


# ---------------------------------------------------------------------------
# shift threshold


def test_delta1_quadratic_residual():
    # delta1 is the larger root of (r-1)*beta + (a-b-1)*y - y^2
    rng = random.Random(20260816)
    for _ in range(500):
        pp = random_pair(rng)
        ep = admissible_exponents(pp, rng)
        dp = derive_params(pp)
        d1 = delta1(pp, ep)
        resid = (ep.ratio - 1.0) * dp.beta + (pp.a - pp.b - 1.0) * d1 - d1 * d1
        assert abs(resid) <= 1e-13
        assert pp.a - 1.0 < d1 < 0.0


@pytest.mark.parametrize("ratio", [i / 21.0 for i in range(1, 18)] + [0.81, 5.0 / 6.0, 1e-3])
def test_delta1_symmetric_closed_form(ratio):
    # at a = b = 1/2 the threshold collapses to (sqrt(r) - 1)/2
    got = delta1(HALF, ExponentPair(3.0 * ratio, 3.0))
    assert got == pytest.approx((math.sqrt(ratio) - 1.0) / 2.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.2, 0.35, 0.5, 0.65, 0.8])
def test_delta1_complementary_closed_form(a):
    # for b = 1-a it is (sqrt(r) - 1)(1 - a), whenever r is admissible
    pp = ParamPair(a, 1.0 - a)
    r = 0.9 * derive_params(pp).ratio_bound
    got = delta1(pp, ExponentPair(3.0 * r, 3.0))
    assert got == pytest.approx((math.sqrt(r) - 1.0) * (1.0 - a), abs=1e-12)


def test_delta1_rejects_ratio_beyond_bound():
    with pytest.raises(DomainError):
        delta1(HALF, ExponentPair(2.7, 3.0))  # 0.9 > 5/6
    with pytest.raises(DomainError):
        delta1_alpha_variant(HALF, ExponentPair(2.7, 3.0))


def test_threshold_root_degenerate_ratio():
    # as r -> 1- the root climbs to 0 from below
    for pp in (HALF, ParamPair(0.3, 0.9)):
        root = _threshold_root(pp, 1.0 - 1e-12)
        assert -1e-9 < root < 0.0


def test_alpha_variant_is_a_different_threshold():
    # replacing beta with alpha under the root moves the threshold in the
    # direction of sign(alpha - beta); at (1/2, 1/2) it is not even negative
    d_beta = delta1(HALF, EP23)
    d_alpha = delta1_alpha_variant(HALF, EP23)
    assert d_alpha > 0.0 > d_beta
    pp = ParamPair(0.2, 0.8)  # here alpha = 0.36 < beta = 0.64
    ep = ExponentPair(0.9, 3.0)
    assert delta1_alpha_variant(pp, ep) < delta1(pp, ep)


# ---------------------------------------------------------------------------
# envelope constants


def test_c1_vanishes_at_threshold():
    rng = random.Random(11)
    for _ in range(50):
        pp = random_pair(rng)
        ep = admissible_exponents(pp, rng)
        assert abs(c1(pp, ep, delta1(pp, ep))) <= 1e-12


def test_c1_left_endpoint_limit():
    for pp in (HALF, ParamPair(0.3, 1.5), ParamPair(0.7, 0.8)):
        dp = derive_params(pp)
        ep = ExponentPair(3.0 * 0.8 * dp.ratio_bound, 3.0)
        got = c1(pp, ep, pp.a - 1.0 + 1e-9)
        assert got == pytest.approx(dp.beta / dp.p, rel=1e-6)


def test_c1_sign_pattern():
    # positive strictly left of the threshold, negative strictly right of it
    pp = ParamPair(0.4, 1.1)
    ep = admissible_exponents(pp, random.Random(3))
    d1 = delta1(pp, ep)
    lo = pp.a - 1.0
    for i in range(1, 1000):
        delta = lo + (0.0 - lo) * i / 1000.0
        value = c1(pp, ep, delta)
        if delta < d1 - 1e-9:
            assert value > 0.0, f"delta={delta}"
        elif delta > d1 + 1e-9:
            assert value < 0.0, f"delta={delta}"


def test_c2_zero_at_zero_and_decreasing():
    for pp in (HALF, ParamPair(0.25, 0.75), ParamPair(0.6, 1.4)):
        assert c2(pp, 0.0) == 0.0
        lo = pp.a - 1.0 + 1e-6
        deltas = [lo + (0.0 - lo) * i / 200.0 for i in range(201)]
        values = [c2(pp, d) for d in deltas]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert all(v > 0.0 for v in values[:-1])  # positive for delta < 0


def test_c4_matches_c2_on_complementary_pairs():
    assert c4(0.37, 0.0) == pytest.approx(0.0, abs=1e-15)
    for a in (0.15, 0.3, 0.5, 0.75, 0.9):
        for t in range(1, 10):
            delta = (a - 1.0) * t / 10.0
            assert c4(a, delta) == pytest.approx(
                c2(ParamPair(a, 1.0 - a), delta), abs=1e-12
            ), f"a={a} delta={delta}"


def test_closed_form_specializations_agree():
    # c3/c5/c7 against the general lower constant, c6/c8 against the upper
    for a in (0.2, 0.45, 0.6, 0.85):
        pp = ParamPair(a, 1.0 - a)
        r = 0.85 * derive_params(pp).ratio_bound
        ep = ExponentPair(3.0 * r, 3.0)
        for t in range(1, 10):
            delta = (a - 1.0) * t / 10.0
            assert c3(a, ep, delta) == pytest.approx(c1(pp, ep, delta), rel=1e-12)
            assert c8(a, delta) == pytest.approx(c4(a, delta), rel=1e-12)
            if EP23.ratio <= derive_params(pp).ratio_bound:
                assert c7(a, delta) == pytest.approx(
                    c1(pp, EP23, delta), abs=1e-12
                ), f"a={a} delta={delta}"
    for t in range(1, 10):
        delta = -0.5 * t / 10.0
        assert c5(EP23, delta) == pytest.approx(c1(HALF, EP23, delta), rel=1e-12)
        assert c6(delta) == pytest.approx(c2(HALF, delta), abs=1e-12)


# ---------------------------------------------------------------------------
# auxiliary polynomials


def test_f1_endpoints_and_monotonicity():
    rng = random.Random(5)
    for _ in range(25):
        pp = random_pair(rng)
        dp = derive_params(pp)
        assert f1(pp, 0.0) == pytest.approx(dp.p - 1.0, abs=1e-10)
        assert f1(pp, pp.a - 1.0) == pytest.approx(dp.p - 1.0 + dp.beta, rel=1e-10)
        lo = pp.a - 1.0
        values = [f1(pp, lo + (0.0 - lo) * i / 100.0) for i in range(101)]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_f2_endpoints():
    rng = random.Random(6)
    for _ in range(25):
        pp = random_pair(rng)
        dp = derive_params(pp)
        assert f2(pp, 0.0) == pytest.approx(dp.alpha, rel=1e-10)
        assert f2(pp, pp.a - 1.0) == pytest.approx(dp.p, rel=1e-10)


def test_f3_endpoints_and_threshold_value():
    rng = random.Random(8)
    for _ in range(25):
        pp = random_pair(rng)
        dp = derive_params(pp)
        ep = admissible_exponents(pp, rng)
        assert f3(pp, 0.0) == pytest.approx(-dp.beta, rel=1e-12)
        assert f3(pp, pp.a - 1.0) == 0.0
        # at the threshold the product collapses to -(c/d)*beta exactly
        assert f3(pp, delta1(pp, ep)) == pytest.approx(-ep.ratio * dp.beta, rel=1e-11)


def test_f3_concave_decreasing():
    pp = ParamPair(0.35, 1.2)
    lo = pp.a - 1.0
    values = [f3(pp, lo + (0.0 - lo) * i / 100.0) for i in range(101)]
    diffs = [y - x for x, y in zip(values, values[1:])]
    assert all(d < 0.0 for d in diffs)
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_f4_anchor_values():
    assert f4(0.0) == -1.0
    assert f4(1.0) == -1.0
    assert f4(0.5) == 11.0 / 64.0  # dyadic, so exact


def test_condition_case_b_is_f4_nonnegative_on_complementary_pairs():
    # f4's docstring: CaseB admissibility for (a, 1-a) is exactly f4(a) >= 0
    n_case_b = n_inadmissible = 0
    for i in range(1, 2000):
        a = i / 2000.0
        dp = derive_params(ParamPair(a, 1.0 - a))
        if dp.alpha >= math.sqrt(3.0) * dp.beta:
            continue  # Case A decides before the boundary polynomial
        if abs(f4(a)) <= 1e-12:
            continue  # tie within rounding
        want = Case.B if f4(a) > 0.0 else Case.INADMISSIBLE
        assert condition_case(dp) is want, f"a={a}"
        n_case_b += want is Case.B
        n_inadmissible += want is Case.INADMISSIBLE
    assert n_case_b > 0 and n_inadmissible > 0


def test_condition_case_rejects_point_where_only_variant_is_positive():
    # a = 0.034 lies between the first roots of the sign-flipped variant
    # (in (1/32, 1/31)) and of f4 (in (1/28, 1/27)): the variant is positive
    # there, f4 and the case split's own test are not
    a = 0.034
    q = a * a - 2.0 * a - 2.0
    assert 4.0 * a * (2.0 - a) * (1.0 - a) ** 2 * q * q - 1.0 > 0.0
    assert f4(a) < 0.0
    assert condition_case(derive_params(ParamPair(a, 1.0 - a))) is Case.INADMISSIBLE


def test_f5_anchor_values():
    assert f5(0.0) == -2.0
    assert f5(1.0) == 3.0


def test_f4_derivative_factorization():
    # f4'(a) = -8 (a-1) (a^2 - 2a + 2) (4a^4 - 16a^3 + 23a^2 - 14a + 2)
    for i in range(1, 20):
        a = i / 20.0
        fd = centered_diff(f4, a)
        quartic = ((4.0 * a - 16.0) * a + 23.0) * a * a - 14.0 * a + 2.0
        closed = -8.0 * (a - 1.0) * (a * a - 2.0 * a + 2.0) * quartic
        assert fd == pytest.approx(closed, rel=1e-6, abs=1e-8), f"a={a}"


def test_f4_derivative_factorization_exact():
    # the same factorization as polynomials with rational coefficients
    # (f4 built from its factors, and equal to the case boundary), and the
    # fact check_f4_roots gates on: a^2-2a+2 has no root, so on (0,1) f4'
    # has the sign of the quartic cofactor q, which has exactly one root
    # there, between f4's two (brackets of gate 4); f4 rises to one maximum
    # and falls again, and has no third root
    a = [0, 1]
    quad = [2, -2, 1]  # a^2 - 2a + 2
    f4_poly = poly_add(poly_mul([0, 4], [2, -1], [1, -1], [1, -1], quad, quad), [-1])
    q = [2, -14, 23, -16, 4]
    assert poly_deriv(f4_poly) == poly_mul([-8], poly_add(a, [-1]), quad, q)
    for i in range(1, 10):
        x = Fraction(i, 10)
        assert poly_eval(f4_poly, x) == case_boundary_exact(x)
    assert sturm_root_count(f4_poly, 0, 1) == 2
    assert sturm_root_count(q, 0, 1) == 1
    assert sturm_root_count(q, Fraction(1, 27), Fraction(13, 25)) == 1
    assert sturm_root_count(quad, 0, 1) == 0


def test_f5_is_cofactor_of_flipped_variant():
    # f5's defining role: -8(a-1)(a^2-2a-2) f5(a) is the derivative of the
    # product with the inner quadratic's constant negated,
    # 4a(2-a)(1-a)^2 (a^2-2a-2)^2 - 1 (NOT of f4 itself)
    def flipped(a):
        q = a * a - 2.0 * a - 2.0
        return 4.0 * a * (2.0 - a) * (1.0 - a) ** 2 * q * q - 1.0

    assert flipped(0.5) == 299.0 / 64.0  # dyadic, so exact
    for i in range(1, 20):
        a = i / 20.0
        fd = centered_diff(flipped, a)
        closed = -8.0 * (a - 1.0) * (a * a - 2.0 * a - 2.0) * f5(a)
        assert fd == pytest.approx(closed, rel=1e-6, abs=1e-8), f"a={a}"


# ---------------------------------------------------------------------------
# the two-variable quadratic and its boundary slice


def test_g_axis_and_lower_edge():
    rng = random.Random(13)
    for _ in range(25):
        dp = derive_params(random_pair(rng))
        xmax = (dp.beta + dp.p) / dp.k
        for i in range(1, 10):
            x = xmax * i / 10.0
            assert g(x, 0.0, dp) == dp.alpha * dp.beta * x * x
            # along y = -beta x the cross terms telescope to beta x (1 - x)
            assert g(x, -dp.beta * x, dp) == pytest.approx(
                dp.beta * x * (1.0 - x), rel=1e-13, abs=1e-15
            )


def test_g_right_edge_is_g1():
    rng = random.Random(17)
    for _ in range(25):
        dp = derive_params(random_pair(rng))
        xmax = (dp.beta + dp.p) / dp.k
        ylo = -dp.h / (dp.alpha * dp.k)
        for i in range(11):
            y = ylo * i / 10.0
            assert g(xmax, y, dp) == pytest.approx(g1(y, dp), rel=1e-13, abs=1e-15)


def test_g1_endpoint_values():
    rng = random.Random(19)
    for _ in range(50):
        dp = derive_params(random_pair(rng))
        assert g1(0.0, dp) == dp.h * (dp.p + dp.beta) / dp.k ** 2
        lo = -dp.h / (dp.alpha * dp.k)
        expected = dp.beta ** 2 * dp.p * (dp.p + dp.beta) / dp.k ** 2
        assert g1(lo, dp) == pytest.approx(expected, rel=1e-13)


def test_g1_left_endpoint_alternate_form_only_when_b_is_one():
    # the (1-a)^2 (p^2 + p beta)/k^2 expression for g1 at the left endpoint
    # holds only where (1-a)^2 and beta^2 p coincide, i.e. b = 1
    dp = derive_params(ParamPair(0.3, 1.0))
    lo = -dp.h / (dp.alpha * dp.k)
    variant = (1.0 - 0.3) ** 2 * (dp.p ** 2 + dp.p * dp.beta) / dp.k ** 2
    assert g1(lo, dp) == pytest.approx(variant, rel=1e-13)
    dp2 = derive_params(ParamPair(0.3, 1.5))
    lo2 = -dp2.h / (dp2.alpha * dp2.k)
    variant2 = (1.0 - 0.3) ** 2 * (dp2.p ** 2 + dp2.p * dp2.beta) / dp2.k ** 2
    assert abs(g1(lo2, dp2) - variant2) > 1e-3


def test_g_and_g1_domain_errors():
    dp = derive_params(HALF)
    xmax = (dp.beta + dp.p) / dp.k
    with pytest.raises(DomainError):
        g(xmax + 1e-6, -0.01, dp)
    with pytest.raises(DomainError):
        g(0.5, -dp.beta * 0.5 - 1e-6, dp)
    with pytest.raises(DomainError):
        g(0.5, 1e-6, dp)
    with pytest.raises(DomainError):
        g1(1e-6, dp)
    with pytest.raises(DomainError):
        g1(-dp.h / (dp.alpha * dp.k) - 1e-6, dp)


# ---------------------------------------------------------------------------
# coefficient-tail sequence and its difference quadratic


def test_Q_rejects_bad_indices():
    with pytest.raises(DomainError):
        Q(0, HALF, EP23, -0.05)
    with pytest.raises(DomainError):
        Q(True, HALF, EP23, -0.05)
    with pytest.raises(DomainError):
        Q1(2.0, HALF, EP23, -0.05)


def test_Q_difference_matches_Q1():
    # Q(n+1) - Q(n) = [G(n+u-1)G(n+v) / (G(n+a)G(n+b+1))] * Q1(n)
    rng = random.Random(20260816)
    for _ in range(20):
        pp = random_pair(rng)
        ep = admissible_exponents(pp, rng)
        delta = delta1(pp, ep) * rng.uniform(0.2, 1.0)
        u = pp.a - delta
        v = pp.b + delta
        for n in range(1, 51):
            lhs = Q(n + 1, pp, ep, delta) - Q(n, pp, ep, delta)
            factor = math.exp(
                ln_gamma(n + u - 1.0)
                + ln_gamma(n + v)
                - ln_gamma(n + pp.a)
                - ln_gamma(n + pp.b + 1.0)
            )
            rhs = factor * Q1(n, pp, ep, delta)
            scale = max(1.0, abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale, f"n={n} pp={pp}"


def test_Q1_is_the_difference_quadratic_in_rationals():
    # in exact rationals of the float inputs, for n = 1..50:
    # Q1(n) = (u+n-1)(v+n) q(n+1) - (a+n-1)(b+n) q(n), with
    # q(n) = (c/d - 1)(u+v+n) + u(v+1) the polynomial factor of Q, and
    # Q1(n+1) < Q1(n) on the monotone range a-1 < delta <= delta1
    rng = random.Random(20261021)
    for _ in range(20):
        pp = random_pair(rng)
        ep = admissible_exponents(pp, rng)
        delta = pp.a - 1.0 + (delta1(pp, ep) - pp.a + 1.0) * rng.uniform(0.01, 1.0)
        a, b, e = Fraction(pp.a), Fraction(pp.b), Fraction(delta)
        r = Fraction(ep.c_exp) / Fraction(ep.d_exp)
        u, v = a - e, b + e

        def q(n):
            return (r - 1) * (u + v + n) + u * (v + 1)

        q1s = [q1_exact(pp.a, pp.b, delta, ep.c_exp, ep.d_exp, n) for n in range(1, 52)]
        for n, (q1, after) in enumerate(zip(q1s, q1s[1:]), start=1):
            assert q1 == (u + n - 1) * (v + n) * q(n + 1) - (a + n - 1) * (b + n) * q(n)
            assert after < q1, f"n={n} pp={pp}"


def test_A_is_the_constant_term_of_Q1():
    pp = ParamPair(0.4, 0.9)
    ep = ExponentPair(1.5, 3.0)
    delta = -0.1
    r = ep.ratio
    # Q1(n) - (r-1)n^2 - (r-1)f1 n should be flat in n, equal to A
    a_val = A(pp, ep, delta)
    for n in (1, 7, 40):
        rest = Q1(n, pp, ep, delta) - (r - 1.0) * n * n - (r - 1.0) * f1(pp, delta) * n
        assert rest == pytest.approx(a_val, rel=1e-12, abs=1e-14)


def test_lemma_quadratic_anchor_values():
    rng = random.Random(23)
    for _ in range(50):
        pp = random_pair(rng)
        dp = derive_params(pp)
        ep = admissible_exponents(pp, rng)
        r = ep.ratio
        at_alpha = lemma_quadratic(dp.alpha, dp, ep)
        assert at_alpha == pytest.approx((r - 1.0) * dp.alpha, rel=1e-13)
        assert at_alpha < 0.0
        at_p = lemma_quadratic(dp.p, dp, ep)
        assert at_p == pytest.approx(r * dp.k - (dp.beta + dp.p), abs=1e-13)
        assert at_p <= 1e-13  # admissible ratios keep the right value nonpositive


def test_lemma_quadratic_zero_at_bound_ratio():
    for pp in (HALF, ParamPair(0.3, 1.2), ParamPair(0.8, 0.4)):
        dp = derive_params(pp)
        ep = ExponentPair(3.0 * dp.ratio_bound, 3.0)
        assert lemma_quadratic(dp.p, dp, ep) == pytest.approx(0.0, abs=1e-13)
