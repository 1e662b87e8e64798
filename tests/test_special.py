"""Gamma-family building blocks against independent oracles.

Reference values frozen here were produced by tests/_oracles.py (Stirling
series, AGM, Gauss-Legendre quadrature) before the package implementation.
The AGM elliptic integral and gamma_ratio live in tests/_oracles.py; their
tests here pin the oracle itself.
"""

import math
import random

import pytest

from hypcert import DomainError, PoleError, beta, gamma, ln_gamma

from _oracles import agm_K, gamma_ratio, quadrature_K, stirling_ln_gamma

REL = 1e-13


def test_ln_gamma_frozen_value():
    assert ln_gamma(7.25) == pytest.approx(7.052185450738534, rel=1e-15)


def test_ln_gamma_against_stirling_oracle():
    # the oracle's upward recurrence into the Stirling regime accumulates
    # ~n_steps * ulp(ln G(30)) ~ 5e-13 of absolute noise, which dominates
    # near the zeros of ln Gamma; hence the absolute floor
    rng = random.Random(20260816)
    for _ in range(200):
        x = math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        ref = stirling_ln_gamma(x)
        assert ln_gamma(x) == pytest.approx(ref, rel=REL, abs=2e-12), f"x={x}"


def test_ln_gamma_recurrence():
    # ln G(x+1) = ln G(x) + ln x, a structural identity independent of scale
    for x in (0.1, 0.5, 1.5, 3.25, 12.0):
        assert ln_gamma(x + 1.0) == pytest.approx(ln_gamma(x) + math.log(x), rel=REL)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-2.5)


def test_gamma_classic_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=REL)
    assert gamma(5.0) == pytest.approx(24.0, rel=REL)
    assert gamma(1.0) == pytest.approx(1.0, rel=REL)


def test_gamma_reflection_negative_arguments():
    # G(-1/2) = -2*sqrt(pi) through the sin-reflection route
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
    # consistency of reflection: G(x)G(1-x) = pi/sin(pi x) off the poles
    for x in (-0.25, -1.3, -2.75):
        lhs = gamma(x) * gamma(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-12)


def test_gamma_pole_guard():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)
    with pytest.raises(PoleError):
        gamma(-1.0 + 5e-9)


def test_beta_symmetry_and_value():
    assert beta(2.5, 3.5) == pytest.approx(beta(3.5, 2.5), rel=1e-15)
    ref = math.exp(
        stirling_ln_gamma(2.5) + stirling_ln_gamma(3.5) - stirling_ln_gamma(6.0)
    )
    assert beta(2.5, 3.5) == pytest.approx(ref, rel=REL)
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=REL)


def test_beta_reflection_closed_form():
    # B(1/2 - t, 3/2 + t) = (1/2 + t) * pi / cos(pi t) for t in (-1/2, 1/2)
    for t in (-0.45, -0.2, -0.05, 0.0, 0.1, 0.3):
        ref = (0.5 + t) * math.pi / math.cos(math.pi * t)
        assert beta(0.5 - t, 1.5 + t) == pytest.approx(ref, rel=1e-12), f"t={t}"


def test_beta_rejects_nonpositive():
    with pytest.raises(DomainError):
        beta(0.0, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, -0.5)


def test_gamma_ratio_matches_direct_quotient():
    for n in (1, 2, 7, 40):
        for a, b in ((0.3, 1.1), (-0.6, 0.4), (2.5, 0.5)):
            ref = gamma(n + a) / gamma(n + b)
            assert gamma_ratio(n, a, b) == pytest.approx(ref, rel=1e-12)


def test_gamma_ratio_asymptotic_power():
    # Gamma(n+a)/Gamma(n+b) ~ n^(a-b); at n = 10^6 the correction is O(1/n)
    n = 1_000_000
    a, b = 0.7, -0.2
    scaled = gamma_ratio(n, a, b) * n ** (b - a)
    assert scaled == pytest.approx(1.0, rel=1e-5)


def test_gamma_ratio_rejects_bad_n():
    with pytest.raises(DomainError):
        gamma_ratio(0, 0.5, 0.5)
    with pytest.raises(DomainError):
        gamma_ratio(True, 0.5, 0.5)
    with pytest.raises(DomainError):
        gamma_ratio(2.0, 0.5, 0.5)


def test_agm_elliptic_K_frozen_values():
    assert agm_K(math.sqrt(0.5)) == pytest.approx(1.8540746773013717, rel=1e-15)
    assert agm_K(0.9) == pytest.approx(2.2805491384227703, rel=1e-15)
    assert agm_K(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_agm_elliptic_K_against_oracle_grid():
    # the AGM against the other route to K, Gauss-Legendre quadrature
    for i in range(1, 20):
        r = i / 20.0
        assert agm_K(r) == pytest.approx(quadrature_K(r), rel=1e-15), f"r={r}"


def test_agm_elliptic_K_domain():
    # the oracle imports nothing from the package, so it raises ValueError
    with pytest.raises(ValueError, match="need 0 <= r < 1"):
        agm_K(1.0)
    with pytest.raises(ValueError, match="need 0 <= r < 1"):
        agm_K(-0.1)
