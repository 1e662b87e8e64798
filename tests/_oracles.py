# Independent numerical oracles used by the test suite.
#
# Everything in here down to the last section is deliberately written
# directly from textbook formulas, with no use of the package under test,
# so that agreement between package and oracle is evidence and not
# circularity.  The oracles were written (and their reference values frozen
# into the tests) before the package implementation.  The last section holds
# helpers that only the tests use; they are built on the package and are
# not oracles.

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# used by the last section only
from hypcert.errors import DomainError
from hypcert.hyp2f1 import _check_params, hyp2f1

# Bernoulli-number coefficients B_{2j}/(2j(2j-1)) for the Stirling series of
# ln Gamma; enough terms that the truncation error at x >= 30 is far below
# 1e-16 relative.
_STIRLING_B = [
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
]


def stirling_ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 by upward recurrence into the Stirling regime.

    Uses ln Gamma(x) = ln Gamma(x+1) - ln x repeatedly until the argument is
    >= 30, then the asymptotic series
        (z - 1/2) ln z - z + ln(2 pi)/2 + sum B_{2j} / (2j(2j-1) z^(2j-1)).
    """
    if x <= 0.0:
        raise ValueError("need x > 0")
    acc = 0.0
    z = x
    while z < 30.0:
        acc -= math.log(z)
        z += 1.0
    s = (z - 0.5) * math.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    zpow = z
    z2 = z * z
    for j, bj in enumerate(_STIRLING_B, start=1):
        s += bj / ((2 * j) * (2 * j - 1) * zpow)
        zpow *= z2
    return acc + s


def agm_K(r: float) -> float:
    """Complete elliptic integral K(r) (modulus convention) via the AGM."""
    if not 0.0 <= r < 1.0:
        raise ValueError("need 0 <= r < 1")
    a, b = 1.0, math.sqrt(1.0 - r * r)
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def agm_E(r: float) -> float:
    """Complete elliptic integral E(r) via the AGM companion sequence.

    With a0=1, b0=sqrt(1-r^2), c_n = (a_{n-1}-b_{n-1})/2:
        E = K * (1 - c0^2/2 - sum_{n>=1} 2^{n-1} c_n^2).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("need 0 <= r < 1")
    a, b = 1.0, math.sqrt(1.0 - r * r)
    csum = 0.5 * r * r  # c0^2 / 2 with c0 = r
    pow2 = 0.5  # becomes 2^{n-1} after the doubling at the top of iteration n
    for _ in range(64):
        if abs(a - b) <= 4e-16 * a:
            break
        c = 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    k_val = math.pi / (2.0 * a)
    return k_val * (1.0 - csum)


def quadrature_E(r: float, n_nodes: int = 80) -> float:
    """E(r) = int_0^{pi/2} sqrt(1 - r^2 sin^2 t) dt by Gauss-Legendre.

    A second, independent route to E so the AGM companion can itself be
    cross-checked.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    # map [-1, 1] -> [0, pi/2]
    half = math.pi / 4.0
    t = half * (nodes + 1.0)
    vals = np.sqrt(1.0 - (r * r) * np.sin(t) ** 2)
    return float(half * np.dot(weights, vals))


def quadrature_K(r: float, n_nodes: int = 80) -> float:
    """K(r) = int_0^{pi/2} dt / sqrt(1 - r^2 sin^2 t) by Gauss-Legendre.

    A route to K independent of the AGM, to cross-check it."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    half = math.pi / 4.0
    t = half * (nodes + 1.0)
    vals = 1.0 / np.sqrt(1.0 - (r * r) * np.sin(t) ** 2)
    return float(half * np.dot(weights, vals))


def centered_diff(f, x: float, h: float = 1e-5) -> float:
    """Plain centered first difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x: float, h: float = 1e-4) -> float:
    """Plain centered second difference."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def pochhammer_series_2f1(a: float, b: float, c: float, x: float,
                          n_terms: int = 200000, tol: float = 1e-16) -> float:
    """Reference 2F1 by direct shifted-factorial summation (no compensation).

    Only trustworthy well inside the unit interval; used to cross-check the
    package's series path on [0, 0.95].
    """
    s = 1.0
    t = 1.0
    for n in range(n_terms):
        t *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        s += t
        if abs(t) <= tol * abs(s) and n > 4:
            break
    return s


def case_boundary_exact(a: Fraction) -> Fraction:
    """4h(beta+p) - p^4 for the complementary pair (a, 1-a), in exact
    rational arithmetic.

    Built straight from the definitions alpha = a(b+1), beta = b(1-a),
    p = a+b and h = alpha*beta*(p+beta) with b = 1-a; its sign is the
    Case B test of the comparison theorem's case split.  Exact, so the sign
    at a rational point is certain and a sign change across a bracket
    proves a root inside it.
    """
    a = Fraction(a)
    b = 1 - a
    alpha = a * (b + 1)
    beta = b * (1 - a)
    p = a + b
    h = alpha * beta * (p + beta)
    return 4 * h * (beta + p) - p ** 4


def q1_exact(a, b, delta, c, d, n: int) -> Fraction:
    """The difference quadratic of the coefficient-tail sequence,

        Q1(n) = (r-1) n^2 + (r-1) f1 n + A,  r = c/d,

    with f1 = p-1 + (a-b-1) delta - delta^2, f2 = u(v+1), f3 = v(u-1) and
    A = f3 [(r-1)(p+1) + f2] + beta [(r-1) p + f2], where u = a-delta,
    v = b+delta, p = a+b and beta = b(1-a); in exact rational arithmetic
    of the given floats."""
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    r = Fraction(c) / Fraction(d)
    u, v, p, beta = a - delta, b + delta, a + b, b * (1 - a)
    f1 = p - 1 + (a - b - 1) * delta - delta ** 2
    f2, f3 = u * (v + 1), v * (u - 1)
    A = f3 * ((r - 1) * (p + 1) + f2) + beta * ((r - 1) * p + f2)
    return (r - 1) * n * n + (r - 1) * f1 * n + A


def series_exact(a, b, c, x, n: int, extra: int = 40, weights=None):
    """The power series sum_m u_m of F(a, b; c; x), u_m = t_m x^m, in exact
    rational arithmetic, with a, b, c, x the exact values of their floats
    (or Fractions): (the sum through u_top, the sum of u_m w_m over
    n < m <= top, a bound on |u_m| summed over m > top), top = n + extra.
    The weights w_m are 1, or weights(m) (Fractions).

    Past top each ratio |u_(m+1)/u_m| = x |(a+m)(b+m)| / ((c+m)(m+1)) is at
    most rho = x (1 + (|a+b-c-1| + |ab-c|) / (c+top)), as (a+m)(b+m) -
    (c+m)(m+1) = (a+b-c-1) m + ab - c and m/(m+1), 1/(m+1) <= 1.  Sums run
    by Horner's rule from the top, so each step multiplies by a small
    ratio and adds a small number, which keeps the Fractions cheap."""
    a, b, c, x = (Fraction(v) for v in (a, b, c, x))
    top = n + extra
    assert top > max(-a, -b, -c)
    (an, ad), (bn, bd), (cn, cd), (xn, xd) = (v.as_integer_ratio() for v in (a, b, c, x))
    ratios = [Fraction(xn * (an + m * ad) * (bn + m * bd) * cd,
                       xd * ad * bd * (cn + m * cd) * (m + 1)) for m in range(top)]
    weight = weights or (lambda m: 1)
    total, tail = Fraction(1), Fraction(weight(top))
    for m in range(top - 1, -1, -1):
        total = 1 + ratios[m] * total
        if m > n:
            tail = weight(m) + ratios[m] * tail
    u = Fraction(1)
    for r in ratios[:n + 1]:
        u *= r
    tail *= u  # u is u_(n+1), the first term past n
    for r in ratios[n + 1:]:
        u *= r
    rho = x * (1 + (abs(a + b - c - 1) + abs(a * b - c)) / (c + top))
    assert rho < 1
    return total, tail, abs(u) * rho / (1 - rho)


# Polynomials in exact rational arithmetic: coefficient lists, lowest
# degree first, entries Fraction (or int).

def poly_trim(p):
    p = [Fraction(c) for c in p]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_mul(*factors):
    out = [Fraction(1)]
    for q in factors:
        prod = [Fraction(0)] * (len(out) + len(q) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(q):
                prod[i + j] += x * y
        out = prod
    return poly_trim(out)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_deriv(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:] or [0])


def poly_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_rem(p, q):
    p = poly_trim(p)
    while len(p) >= len(q) and any(p):
        factor = p[-1] / q[-1]
        shift = len(p) - len(q)
        p = poly_trim([c - (factor * q[i - shift] if i >= shift else 0)
                       for i, c in enumerate(p)][:-1] or [0])
    return p


def sturm_root_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi], exact, by Sturm's theorem."""
    seq = [poly_trim(p), poly_deriv(p)]
    while len(seq[-1]) > 1:
        rem = _poly_rem(seq[-2], seq[-1])
        if not any(rem):
            break
        seq.append([-c for c in rem])

    def sign_changes(x):
        signs = [v > 0 for v in (poly_eval(s, x) for s in seq) if v != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return sign_changes(Fraction(lo)) - sign_changes(Fraction(hi))


# ---------------------------------------------------------------------------
# Helpers that only the tests use.  Built on the package (hyp2f1, its
# parameter check and DomainError): not oracles.


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (a, b; c) with the package's parameter check."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        _check_params(self.a, self.b, self.c)

    @property
    def excess(self) -> float:
        return self.c - self.a - self.b


def gamma_ratio(n: int, a: float, b: float) -> float:
    """Gamma(n + a) / Gamma(n + b) for a positive integer n.

    For large n this behaves like n**(a-b); the test suite pins that
    asymptotic.  Both shifted arguments must be positive.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"gamma_ratio needs a positive integer n, got {n!r}")
    if not (n + a > 0.0 and n + b > 0.0):
        raise DomainError(
            f"gamma_ratio needs n+a and n+b positive, got n={n}, a={a!r}, b={b!r}"
        )
    return math.exp(math.lgamma(n + a) - math.lgamma(n + b))


def elliptic_Ka(a: float, r: float) -> float:
    """Generalized complete elliptic integral of the first kind:
    (pi/2) * F(a, 1-a; 1; r^2) for a in (0,1), r in (0,1)."""
    if not (0.0 < a < 1.0):
        raise DomainError(f"elliptic_Ka needs a in (0,1), got {a!r}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"elliptic_Ka needs r in (0,1), got {r!r}")
    return 0.5 * math.pi * hyp2f1(a, 1.0 - a, 1.0, r * r)


def elliptic_Ea(a: float, r: float) -> float:
    """Generalized complete elliptic integral of the second kind:
    (pi/2) * F(a-1, 1-a; 1; r^2) for a in (0,1), r in (0,1)."""
    if not (0.0 < a < 1.0):
        raise DomainError(f"elliptic_Ea needs a in (0,1), got {a!r}")
    if not (0.0 < r < 1.0):
        raise DomainError(f"elliptic_Ea needs r in (0,1), got {r!r}")
    return 0.5 * math.pi * hyp2f1(a - 1.0, 1.0 - a, 1.0, r * r)


if __name__ == "__main__":
    # Print the reference values that are frozen into the tests.
    print("ln_gamma(7.25)      =", repr(stirling_ln_gamma(7.25)))
    print("K(sqrt(2)/2)        =", repr(agm_K(math.sqrt(0.5))))
    print("2K(sqrt(0.5))/pi    =", repr(2.0 * agm_K(math.sqrt(0.5)) / math.pi))
    print("E(0.6) agm          =", repr(agm_E(0.6)))
    print("E(0.6) quadrature   =", repr(quadrature_E(0.6)))
    print("2/pi                =", repr(2.0 / math.pi))
    print("K(0.9)              =", repr(agm_K(0.9)))
