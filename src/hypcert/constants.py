"""Closed-form quantities of the comparison problem.

Everything downstream is phrased in terms of a parameter pair (a, b) with
a in (0,1), b >= 1-a, the derived quantities

    alpha = a(b+1),  beta = b(1-a),  p = a+b,
    h = alpha*beta*(p+beta),  k = beta*(p+1) + p,

an exponent pair (c, d) with 0 < c < d, and a shift delta.  The admissible
regime for the two-sided comparison is 0 < c/d <= (beta+p)/k together with
delta in (a-1, 0).

``delta1`` is the sharp shift threshold: the larger root of

    (c/d - 1)*beta + (a-b-1)*delta - delta^2 = 0,

below (and at) which the shifted function dominates on all of (0,1), and
above which the two functions cross.  ``c1``/``c2`` are the tight envelope
constants of the sandwich bound; c3..c8 are their closed-form
specializations for b = 1-a, for a = b = 1/2, and for (c,d) = (2,3).

The f/g/Q families are the auxiliary polynomials and coefficient-tail
sequences that carry the monotonicity argument; the harness in
``hypcert.verifier`` certifies their claimed behavior numerically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .special import beta as beta_fn
from .special import ln_gamma

# The named checks of hypcert.verifier, in canonical order.  They live
# here, with no NumPy import, so the command line can offer them as
# choices without loading the verifier.
CHECK_IDS = (
    "G_monotone",
    "sandwich",
    "crossing",
    "crossing_control",
    "sharpness",
    "f4_roots",
    "lemma_g",
    "lemma_g1",
    "lemma_Q",
    "beta_convex",
    "fpp_positive",
)

# Grid/domain checks may evaluate g and g1 on the closure of their open
# domains; allow this much overshoot before calling it a domain error.
_EDGE_SLACK = 1e-12


class Case(enum.Enum):
    """Which positivity route applies to a parameter pair."""

    A = "CaseA"
    B = "CaseB"
    INADMISSIBLE = "Inadmissible"


@dataclass(frozen=True)
class ParamPair:
    """Base parameters, a in (0,1) and b >= 1-a (so p = a+b >= 1)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (0.0 < self.a < 1.0):
            raise DomainError(f"need a in (0,1), got a={self.a!r}")
        if not (self.b >= 1.0 - self.a):
            raise DomainError(
                f"need b >= 1-a, got b={self.b!r} < {1.0 - self.a!r}"
            )


@dataclass(frozen=True)
class DerivedParams:
    """alpha, beta, p, h, k and the admissible exponent-ratio bound."""

    alpha: float
    beta: float
    p: float
    h: float
    k: float
    ratio_bound: float


@dataclass(frozen=True)
class ExponentPair:
    """Exponents (c, d) of the arguments 1 - x^c and 1 - x^d.

    The comparison theory needs 0 < c < d (ratio < 1); the degenerate c = d
    is tolerated by the type so that trivial identities can be exercised,
    and is rejected by every threshold-level gate via ratio <= ratio_bound.
    """

    c_exp: float
    d_exp: float

    def __post_init__(self) -> None:
        if not (self.c_exp > 0.0 and self.d_exp > 0.0):
            raise DomainError(
                f"exponents must be positive, got ({self.c_exp!r}, {self.d_exp!r})"
            )
        if not (self.c_exp <= self.d_exp):
            raise DomainError(
                f"need c <= d, got ({self.c_exp!r}, {self.d_exp!r})"
            )

    @property
    def ratio(self) -> float:
        return self.c_exp / self.d_exp


def derive_params(pp: ParamPair) -> DerivedParams:
    """Compute the derived quantities, cross-checking h both ways."""
    a, b = pp.a, pp.b
    alpha = a * (b + 1.0)
    bet = b * (1.0 - a)
    p = a + b
    h = alpha * bet * (p + bet)
    h_alt = a * (1.0 - a) * b * (b + 1.0) * (a + 2.0 * b - a * b)
    if abs(h - h_alt) > 1e-13 * max(abs(h), abs(h_alt), 1.0):
        raise DomainError(
            f"internal inconsistency: two h formulas disagree ({h!r} vs {h_alt!r})"
        )
    k = bet * (p + 1.0) + p
    rb = (bet + p) / k
    if not (0.0 < rb < 1.0):
        raise DomainError(f"ratio bound fell outside (0,1): {rb!r}")
    return DerivedParams(alpha=alpha, beta=bet, p=p, h=h, k=k, ratio_bound=rb)


def condition_case(dp: DerivedParams) -> Case:
    """Case split: A if alpha >= sqrt(3)*beta, else B if 4h(beta+p) >= p^4,
    else the pair is inadmissible.  Comparisons are exact binary64 -- the
    boundary belongs to the admissible side."""
    if dp.alpha >= math.sqrt(3.0) * dp.beta:
        return Case.A
    if 4.0 * dp.h * (dp.beta + dp.p) >= dp.p ** 4:
        return Case.B
    return Case.INADMISSIBLE


def _check_ratio(dp: DerivedParams, ep: ExponentPair) -> float:
    r = ep.ratio
    if not (0.0 < r <= dp.ratio_bound):
        raise DomainError(
            f"exponent ratio {r!r} outside (0, {dp.ratio_bound!r}]"
        )
    return r


def _check_delta(pp: ParamPair, delta: float) -> None:
    if not (pp.a - 1.0 < delta <= 0.0):
        raise DomainError(f"shift {delta!r} outside ({pp.a - 1.0!r}, 0]")


def _threshold_root(pp: ParamPair, r: float, dp: DerivedParams | None = None) -> float:
    """Larger root of (r-1)*beta + (a-b-1)*delta - delta^2 for any r in
    (0, 1]; ungated helper behind ``delta1`` (degenerate r -> 1 gives 0).
    ``dp`` is derive_params(pp), derived here when not given."""
    dp = derive_params(pp) if dp is None else dp
    a, b = pp.a, pp.b
    disc = (dp.p - 1.0) ** 2 + 4.0 * dp.beta * r
    return 0.5 * ((a - b - 1.0) + math.sqrt(disc))


def delta1(pp: ParamPair, ep: ExponentPair) -> float:
    """Sharp shift threshold: the larger root of
    (c/d - 1)*beta + (a-b-1)*delta - delta^2 = 0, i.e.

        delta1 = [ (a-b-1) + sqrt((p-1)^2 + 4*beta*(c/d)) ] / 2,

    using the identity (a-b-1)^2 - 4*beta = (p-1)^2.  Negative for every
    admissible ratio."""
    dp = derive_params(pp)
    return _threshold_root(pp, _check_ratio(dp, ep), dp)


def delta1_alpha_variant(pp: ParamPair, ep: ExponentPair) -> float:
    """Deliberately wrong threshold with alpha in place of beta under the
    square root.  Exists so the verification layer can demonstrate that
    this variant fails the sharpness suite; never use it for anything
    else."""
    dp = derive_params(pp)
    r = _check_ratio(dp, ep)
    a, b = pp.a, pp.b
    disc = (dp.p - 1.0) ** 2 + 4.0 * dp.alpha * r
    return 0.5 * ((a - b - 1.0) + math.sqrt(disc))


def c1(pp: ParamPair, ep: ExponentPair, delta: float) -> float:
    """Lower envelope constant
    c1 = (d/(p c)) * ((c/d - 1)*beta + (a-b-1)*delta - delta^2).

    Zero exactly at delta = delta1; tends to beta/p as delta -> (a-1)+."""
    _check_delta(pp, delta)
    dp = derive_params(pp)
    a, b = pp.a, pp.b
    r = ep.ratio
    quad = (r - 1.0) * dp.beta + (a - b - 1.0) * delta - delta * delta
    return quad / (dp.p * r)


def c2(pp: ParamPair, delta: float) -> float:
    """Upper envelope constant
    c2 = 1/(p B(a-delta, b+1+delta)) - 1/(p B(a, b+1)).

    Independent of the exponents; zero at delta = 0."""
    _check_delta(pp, delta)
    a, b = pp.a, pp.b
    p = a + b
    return 1.0 / (p * beta_fn(a - delta, b + 1.0 + delta)) - 1.0 / (
        p * beta_fn(a, b + 1.0)
    )


def c3(a: float, ep: ExponentPair, delta: float) -> float:
    """c1 specialized to b = 1-a (p = 1, beta = (1-a)^2)."""
    return c1(ParamPair(a, 1.0 - a), ep, delta)


def c4(a: float, delta: float) -> float:
    """c2 specialized to b = 1-a, in reflection-formula closed form:
    (1/pi) * [ sin(pi(a-delta)) / (1-a+delta) - sin(pi a) / (1-a) ]."""
    return (
        math.sin(math.pi * (a - delta)) / (1.0 - a + delta)
        - math.sin(math.pi * a) / (1.0 - a)
    ) / math.pi


def c5(ep: ExponentPair, delta: float) -> float:
    """c1 at a = b = 1/2:  (d/c) * ((c/d - 1)/4 - delta - delta^2)."""
    r = ep.ratio
    return ((r - 1.0) / 4.0 - delta - delta * delta) / r


def c6(delta: float) -> float:
    """c2 at a = b = 1/2:  (2/pi) * (cos(pi delta)/(1 + 2 delta) - 1)."""
    return 2.0 / math.pi * (math.cos(math.pi * delta) / (1.0 + 2.0 * delta) - 1.0)


def c7(a: float, delta: float) -> float:
    """c1 at b = 1-a, (c,d) = (2,3):
    -(3/2) * (delta^2 + 2(1-a) delta + (1-a)^2/3)."""
    one_a = 1.0 - a
    return -1.5 * (delta * delta + 2.0 * one_a * delta + one_a * one_a / 3.0)


def c8(a: float, delta: float) -> float:
    """Upper constant for the b = 1-a, (c,d) = (2,3) family; the upper
    envelope does not depend on the exponents, so this is c4."""
    return c4(a, delta)


def f1(pp: ParamPair, delta: float) -> float:
    """f1(delta) = p - 1 + (a-b-1)*delta - delta^2.

    Strictly decreasing on (a-1, 0), with range endpoints f1(0) = p-1 and
    f1(a-1) = p-1+beta."""
    a, b = pp.a, pp.b
    return a + b - 1.0 + (a - b - 1.0) * delta - delta * delta


def f2(pp: ParamPair, delta: float) -> float:
    """f2(delta) = u(v+1) with u = a-delta, v = b+delta; expands to
    alpha + (a-b-1)*delta - delta^2.  Decreases from p (at delta=a-1) to
    alpha (at delta=0)."""
    return (pp.a - delta) * (pp.b + delta + 1.0)


def f3(pp: ParamPair, delta: float) -> float:
    """f3(delta) = v(u-1) with u = a-delta, v = b+delta; expands to
    -beta + (a-b-1)*delta - delta^2.  At the threshold,
    f3(delta1) = -(c/d)*beta exactly."""
    return (pp.b + delta) * (pp.a - 1.0 - delta)


def f4(a: float) -> float:
    """Case-boundary polynomial for b = 1-a:
    f4(a) = 4a(2-a)(1-a)^2 (a^2 - 2a + 2)^2 - 1.

    CaseB admissibility for the pair (a, 1-a) is exactly f4(a) >= 0.
    Plain arithmetic, so a NumPy array gives each entry f4's bits."""
    one_a = 1.0 - a
    q = a * a - 2.0 * a + 2.0
    return 4.0 * a * (2.0 - a) * one_a * one_a * q * q - 1.0


def f5(a: float) -> float:
    """f5(a) = 4a^4 - 16a^3 + 15a^2 + 2a - 2; increasing on (0,1) with a
    single sign change there.

    Note it is *not* a factor of f4': the true factorization is
    f4'(a) = -8(a-1)(a^2-2a+2)(4a^4 - 16a^3 + 23a^2 - 14a + 2).  f5 is the
    quartic cofactor for the sign-flipped product variant instead:
    d/da [4a(2-a)(1-a)^2 (a^2-2a-2)^2 - 1] = -8(a-1)(a^2-2a-2) f5(a)."""
    return ((4.0 * a - 16.0) * a + 15.0) * a * a + 2.0 * a - 2.0


def _within(v, lo, hi) -> bool:
    """lo <= v <= hi for a number, or for every entry of an array."""
    if hasattr(v, "min"):
        return bool(lo <= v.min() and v.max() <= hi)
    return lo <= v <= hi


def g1(y: float, dp: DerivedParams) -> float:
    """Boundary quadratic g1(y) = y^2 + (p^2/k) y + h(p+beta)/k^2 on the
    interval [-h/(alpha k), 0]; y may be an array.

    Endpoint values: g1(0) = h(p+beta)/k^2 and
    g1(-h/(alpha k)) = beta^2 p (p+beta) / k^2."""
    lo = -dp.h / (dp.alpha * dp.k)
    if not _within(y, lo - _EDGE_SLACK, _EDGE_SLACK):
        raise DomainError(f"g1 argument {y!r} outside [{lo!r}, 0]")
    return y * y + (dp.p ** 2 / dp.k) * y + dp.h * (dp.p + dp.beta) / dp.k ** 2


def g(x: float, y: float, dp: DerivedParams) -> float:
    """Two-variable quadratic g(x,y) = y^2 + ((p+1)x - 1) y + alpha*beta*x^2
    on the closure of the wedge 0 < x < (beta+p)/k, -beta*x < y < 0; y may
    be an array.

    Its slice at x = (beta+p)/k coincides with g1."""
    xmax = (dp.beta + dp.p) / dp.k
    if not (-_EDGE_SLACK <= x <= xmax + _EDGE_SLACK):
        raise DomainError(f"g argument x={x!r} outside [0, {xmax!r}]")
    if not _within(y, -dp.beta * x - _EDGE_SLACK, _EDGE_SLACK):
        raise DomainError(f"g argument y={y!r} outside [{-dp.beta * x!r}, 0]")
    return y * y + ((dp.p + 1.0) * x - 1.0) * y + dp.alpha * dp.beta * x * x


def _check_index(n, name: str) -> None:
    """n must be an integer >= 1."""
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise DomainError(f"{name} needs an integer n >= 1, got {n!r}")


def Q(n: int, pp: ParamPair, ep: ExponentPair, delta: float) -> float:
    """Coefficient-tail sequence

        Q(n) = [G(u+n-1) G(v+n) / (G(a+n-1) G(b+n))]
               * [(c/d - 1)(u+v+n) + u(v+1)],

    with u = a-delta, v = b+delta (all gamma arguments positive for n >= 1).
    Strictly decreasing in n and eventually below any bound, which is what
    forces the series-coefficient comparison."""
    _check_index(n, "Q")
    u = pp.a - delta
    v = pp.b + delta
    return Q_ratio(n, pp, delta) * ((ep.ratio - 1.0) * (u + v + n) + u * (v + 1.0))


def Q_ratio(n: int, pp: ParamPair, delta: float) -> float:
    """The gamma factor R(n) = G(u+n-1) G(v+n) / (G(a+n-1) G(b+n)) of Q(n),
    from four lgamma values."""
    a, b = pp.a, pp.b
    u = a - delta
    v = b + delta
    return math.exp(
        ln_gamma(u + n - 1.0)
        + ln_gamma(v + n)
        - ln_gamma(a + n - 1.0)
        - ln_gamma(b + n)
    )


def A(pp: ParamPair, ep: ExponentPair, delta: float) -> float:
    """Constant term of the difference quadratic Q1:

        A = f3 * [(c/d - 1)(p+1) + f2] + beta * [(c/d - 1) p + f2]."""
    dp = derive_params(pp)
    r = ep.ratio
    f2v = f2(pp, delta)
    f3v = f3(pp, delta)
    return f3v * ((r - 1.0) * (dp.p + 1.0) + f2v) + dp.beta * ((r - 1.0) * dp.p + f2v)


def Q1(n: int, pp: ParamPair, ep: ExponentPair, delta: float) -> float:
    """Difference quadratic: Q(n+1) - Q(n) equals
    [G(n+u-1) G(n+v) / (G(n+a) G(n+b+1))] * Q1(n) with

        Q1(n) = (c/d - 1) n^2 + (c/d - 1) f1(delta) n + A."""
    _check_index(n, "Q1")
    r = ep.ratio
    return (r - 1.0) * n * n + (r - 1.0) * f1(pp, delta) * n + A(pp, ep, delta)


def lemma_quadratic(y: float, dp: DerivedParams, ep: ExponentPair) -> float:
    """Root-location quadratic
    F(y) = y^2 + [(c/d - 1)(2+p) - alpha] y - (c/d - 1) alpha (p+1).

    F(alpha) = (c/d - 1) alpha < 0 and F(p) = (c/d) k - (beta+p), which is
    <= 0 exactly when c/d <= (beta+p)/k."""
    r = ep.ratio
    return (
        y * y
        + ((r - 1.0) * (2.0 + dp.p) - dp.alpha) * y
        - (r - 1.0) * dp.alpha * (dp.p + 1.0)
    )


__all__ = [
    "CHECK_IDS",
    "Case",
    "ParamPair",
    "DerivedParams",
    "ExponentPair",
    "derive_params",
    "condition_case",
    "delta1",
    "delta1_alpha_variant",
    "c1",
    "c2",
    "c3",
    "c4",
    "c5",
    "c6",
    "c7",
    "c8",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "g1",
    "g",
    "Q",
    "Q_ratio",
    "Q1",
    "A",
    "lemma_quadratic",
]
