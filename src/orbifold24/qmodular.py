"""Exact Puiseux q-series and the order-3 orbifold dimension formula.

Everything here is a truncated formal series in q^(1/D) with exact
rational coefficients.  The genus-zero generator f = eta(t)^12 / eta(3t)^12
of the level-3 function field, its powers expanded at the other cusp, and
a Laurent fit of a fixed-point character in f feed a fully symbolic
re-derivation of the weight-one dimension formula

    dim V_1 + dim V~_1 = 4 d0 - 36 d13 - 12 d23 + 24,

where d0 is the fixed weight-one dimension and d13, d23 are the summed
twisted dimensions at weights 1/3 and 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import ceil, gcd, lcm
from typing import Dict, List, Tuple

from .exactmath import InvariantError


@dataclass(frozen=True)
class PuiseuxSeries:
    """Truncated series sum_n c_n q^(n/denom), exact below exponent trunc."""

    denom: int
    coeffs: Dict[int, Q]
    trunc: Q

    @staticmethod
    def make(denom: int, coeffs: Dict[int, Q], trunc: Q) -> "PuiseuxSeries":
        kept = {
            n: c for n, c in coeffs.items() if c and Q(n, denom) < trunc
        }
        return PuiseuxSeries(denom, kept, Q(trunc))

    def rescaled(self, new_denom: int) -> "PuiseuxSeries":
        if new_denom % self.denom:
            raise ValueError("new denominator must refine the old one")
        f = new_denom // self.denom
        return PuiseuxSeries(new_denom, {n * f: c for n, c in self.coeffs.items()}, self.trunc)

    def normalized(self) -> "PuiseuxSeries":
        """Shrink the exponent denominator to the gcd actually used."""
        g = self.denom
        for n in self.coeffs:
            g = gcd(g, n)
        if g <= 1:
            return self
        return PuiseuxSeries(
            self.denom // g, {n // g: c for n, c in self.coeffs.items()}, self.trunc
        )

    def valuation(self) -> Q:
        if not self.coeffs:
            return self.trunc
        return Q(min(self.coeffs), self.denom)

    def coeff(self, exp: Q | int) -> Q:
        e = Q(exp)
        if e >= self.trunc:
            raise ValueError(f"exponent {e} is beyond truncation {self.trunc}")
        n = e * self.denom
        if n.denominator != 1:
            return Q(0)
        return self.coeffs.get(int(n), Q(0))

    def terms(self) -> List[Tuple[Q, Q]]:
        return [(Q(n, self.denom), c) for n, c in sorted(self.coeffs.items())]

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        d = lcm(self.denom, other.denom)
        a, b = self.rescaled(d), other.rescaled(d)
        out = dict(a.coeffs)
        for n, c in b.coeffs.items():
            cur = out.get(n)
            out[n] = c if cur is None else cur + c
        return PuiseuxSeries.make(d, out, min(a.trunc, b.trunc))

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(self.denom, {n: -c for n, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def scale(self, c: Q) -> "PuiseuxSeries":
        return PuiseuxSeries.make(
            self.denom, {n: v * c for n, v in self.coeffs.items()}, self.trunc
        )

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        d = lcm(self.denom, other.denom)
        a, b = self.rescaled(d), other.rescaled(d)
        # product exact below min(t_a + v_b, t_b + v_a)
        trunc = min(a.trunc + b.valuation(), b.trunc + a.valuation())
        bound = trunc * d
        out: Dict[int, Q] = {}
        for n1, c1 in a.coeffs.items():
            for n2, c2 in b.coeffs.items():
                n = n1 + n2
                if n >= bound:
                    continue
                cur = out.get(n)
                prod = c1 * c2
                out[n] = prod if cur is None else cur + prod
        return PuiseuxSeries.make(d, out, trunc)

    def __repr__(self) -> str:
        parts = [f"{c}*q^({Q(n, self.denom)})" for n, c in sorted(self.coeffs.items())[:6]]
        return " + ".join(parts) + f" + O(q^{self.trunc})"


def _euler_power(k: int, terms: int) -> List[int]:
    """Coefficients of x^0 .. x^(terms-1) in prod_{m>=1} (1 - x^m)^k.

    Euler's recurrence m a_m = -k sum_{j=1..m} sigma(j) a_{m-j}, the
    logarithmic derivative of the product, on Python integers.
    """
    sigma = [0] * terms
    for d in range(1, terms):
        for multiple in range(d, terms, d):
            sigma[multiple] += d
    a = [1] + [0] * (terms - 1) if terms else []
    for m in range(1, terms):
        a[m], rem = divmod(-k * sum(sigma[j] * a[m - j] for j in range(1, m + 1)), m)
        if rem:
            raise InvariantError(f"Euler recurrence for power {k}: x^{m} is not integral")
    return a


@lru_cache(maxsize=None)
def eta_expansion(scale: Q, power: int, trunc: int) -> PuiseuxSeries:
    """eta(scale*t)^power = q^(scale*power/24) prod (1 - q^(scale*m))^power.

    Exact below q^trunc.
    """
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    s = Q(scale)
    if s <= 0:
        raise ValueError("scale must be positive")
    prefix = s * power / 24
    terms = max(0, ceil((trunc - prefix) / s))
    d = lcm(prefix.denominator, s.denominator)
    coeffs = {
        int((prefix + s * m) * d): Q(c)
        for m, c in enumerate(_euler_power(power, terms))
    }
    return PuiseuxSeries.make(d, coeffs, Q(trunc)).normalized()


@lru_cache(maxsize=None)
def hauptmodul_f(trunc: int = 12) -> PuiseuxSeries:
    """f = eta(t)^12 / eta(3t)^12 = q^-1 - 12 + 54q - 76q^2 - ..."""
    return (
        eta_expansion(Q(1), 12, trunc + 2) * eta_expansion(Q(3), -12, trunc + 2)
    ).normalized()


@lru_cache(maxsize=None)
def f_power_at_S(n: int, trunc: int = 12) -> PuiseuxSeries:
    """Expansion of f^n at the other cusp: (3^6 eta(t)^12 / eta(t/3)^12)^n.

    In x = q^(1/3) this is the single product
    3^(6n) x^n P(x^3)^(12n) P(x)^(-12n) with P(x) = prod (1 - x^m), so
    exponents lie in (1/3)Z.  Exact below q^trunc.
    """
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    terms = max(0, 3 * trunc - n)  # x^(n+e) with e < terms lies below q^trunc
    outer = _euler_power(12 * n, (terms + 2) // 3)
    inner = _euler_power(-12 * n, terms)
    # sums[e]: the integer coefficient of x^(n+e) in P(x^3)^(12n) P(x)^(-12n)
    sums = [0] * terms
    for m, a in enumerate(outer):
        if a:
            sums[3 * m:] = [s + a * b for s, b in zip(sums[3 * m:], inner)]
    lead = Q(3) ** (6 * n)
    coeffs = {n + e: lead * s for e, s in enumerate(sums) if s}
    return PuiseuxSeries.make(3, coeffs, Q(trunc)).normalized()


# Symbolic affine expressions a*d0 + b*d13 + c*d23 + d with exact entries.
LinExpr = Tuple[Q, Q, Q, Q]


def _lin(a: Q = Q(0), b: Q = Q(0), c: Q = Q(0), d: Q = Q(0)) -> LinExpr:
    return (Q(a), Q(b), Q(c), Q(d))


def _lin_add(x: LinExpr, y: LinExpr) -> LinExpr:
    return tuple(p + q for p, q in zip(x, y))  # type: ignore[return-value]


def _lin_scale(x: LinExpr, c: Q) -> LinExpr:
    return tuple(c * p for p in x)  # type: ignore[return-value]


# The Laurent coefficient c_n of f^n in Z = f + c0 + c_-1/f + c_-2/f^2 +
# c_-3/f^3, as an affine function of (d0, d13, d23).  The cusp-expansion
# constraints give c0 = d0 + 12, c_-2 = 3^12 (d13/3 + 12) and
# c_-1 = 3^6 (d23/3 + 8 c_-2 / 3^11 - 198); the pole coefficient at the
# other cusp pins c_-3 = 3^17 whenever twisted weights are >= 1.
_CM2 = _lin(b=Q(3**12, 3), d=Q(12 * 3**12))
LAURENT_TABLE: Dict[int, LinExpr] = {
    1: _lin(d=Q(1)),
    0: _lin(a=Q(1), d=Q(12)),
    -1: _lin_add(
        _lin(c=Q(3**6, 3), d=Q(-198 * 3**6)), _lin_scale(_CM2, Q(8 * 3**6, 3**11))
    ),
    -2: _CM2,
    -3: _lin(d=Q(3**17)),
}


@dataclass(frozen=True)
class LaurentFit:
    """Coefficients of Z = f + c0 + c_-1/f + c_-2/f^2 + c_-3/f^3."""

    c1: Q
    c0: Q
    cm1: Q
    cm2: Q
    cm3: Q

    def __post_init__(self) -> None:
        if self.c1 != 1:
            raise ValueError("leading Laurent coefficient must be 1")


def fit_character(d0: int, d13: int, d23: int) -> LaurentFit:
    """The Laurent coefficients of `LAURENT_TABLE` at one (d0, d13, d23).

    d0 is the fixed-point weight-one dimension; d13 and d23 are the summed
    twisted dimensions at weights 1/3 and 2/3.
    """
    point = (Q(d0), Q(d13), Q(d23), Q(1))
    c = {
        n: sum((x * p for x, p in zip(expr, point)), Q(0))
        for n, expr in LAURENT_TABLE.items()
    }
    return LaurentFit(c[1], c[0], c[-1], c[-2], c[-3])


def dim_tilde_v1(dim_v1: int, d0: int, d13: int, d23: int) -> int:
    """dim V~_1 = 4 d0 - 36 d13 - 12 d23 + 24 - dim V_1."""
    if min(dim_v1, d0, d13, d23) < 0:
        raise ValueError("dimensions must be non-negative")
    val = 4 * d0 - 36 * d13 - 12 * d23 + 24 - dim_v1
    if val < 0:
        raise ValueError(f"inconsistent inputs: negative dimension {val}")
    return val


def derive_dimension_formula(trunc: int = 12) -> LinExpr:
    """Re-derive the dimension formula coefficients (4, -36, -12, 24).

    `LAURENT_TABLE` is composed with the exact cusp expansions of f^n, and
    the constant term of Z(t) + sum_i Z(S T^i t) is collected as an affine
    function of (d0, d13, d23).
    """
    # the constant term of Z(t) itself is c0 - 12
    total = _lin_add(LAURENT_TABLE[0], _lin(d=Q(-12)))
    for n, cn in LAURENT_TABLE.items():
        # T sends q^(k/3) to w^k q^(k/3), so the trace over the three shifts
        # is a roots-of-unity filter that leaves exponent 0 unchanged: the
        # constant term of sum_i Z(S T^i t) is 3 times that of Z(S t)
        gamma = Q(1) if n == 0 else f_power_at_S(n, trunc).coeff(0)
        total = _lin_add(total, _lin_scale(cn, 3 * gamma))
    return total
