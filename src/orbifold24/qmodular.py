"""Exact q-series of one eta quotient and the order-3 dimension formula.

The genus-zero generator f = eta(t)^12 / eta(3t)^12 of the level-3
function field, at i-infinity, and its powers at the other cusp are all
one eta quotient P(x^3)^k P(x)^(-k), P(x) = prod (1 - x^m), whose integer
coefficients come from Euler's recurrence; each is returned as a truncated
series in q^(1/D) with exact rational coefficients.  The cusp expansions
and a Laurent fit of a fixed-point character in f feed a fully symbolic
re-derivation of the weight-one dimension formula

    dim V_1 + dim V~_1 = 4 d0 - 36 d13 - 12 d23 + 24,

where d0 is the fixed weight-one dimension and d13, d23 are the summed
twisted dimensions at weights 1/3 and 2/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
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

    def coeff(self, exp: Q | int) -> Q:
        e = Q(exp)
        if e >= self.trunc:
            raise ValueError(f"exponent {e} is beyond truncation {self.trunc}")
        n = e * self.denom
        if n.denominator != 1:
            return Q(0)
        return self.coeffs.get(int(n), Q(0))


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


def eta_quotient(k: int, terms: int) -> List[int]:
    """Coefficients of x^0 .. x^(terms-1) in P(x^3)^k P(x)^(-k), where
    P(x) = prod_{m>=1} (1 - x^m): the eta quotient (eta(3t)/eta(t))^k
    without its leading power of q, as integer sums per exponent.
    """
    outer = _euler_power(k, (terms + 2) // 3)
    inner = _euler_power(-k, terms)
    sums = [0] * terms
    for m, a in enumerate(outer):
        if a:
            sums[3 * m:] = [s + a * b for s, b in zip(sums[3 * m:], inner)]
    return sums


@lru_cache(maxsize=None)
def hauptmodul_f(trunc: int = 12) -> PuiseuxSeries:
    """f = eta(t)^12 / eta(3t)^12 = q^-1 - 12 + 54q - 76q^2 - ...

    In q this is q^-1 P(q^3)^(-12) P(q)^12: the coefficients of q^-1 ..
    q^trunc, reported exact below q^(trunc + 1/2).
    """
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    coeffs = {e - 1: Q(c) for e, c in enumerate(eta_quotient(-12, trunc + 2))}
    return PuiseuxSeries.make(1, coeffs, Q(2 * trunc + 1, 2))


@lru_cache(maxsize=None)
def f_power_at_S(n: int, trunc: int = 12) -> PuiseuxSeries:
    """Expansion of f^n at the other cusp: (3^6 eta(t)^12 / eta(t/3)^12)^n.

    In x = q^(1/3) this is the single product
    3^(6n) x^n P(x^3)^(12n) P(x)^(-12n), so exponents lie in (1/3)Z.
    Exact below q^trunc.
    """
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    # x^(n+e) with e < 3 trunc - n lies below q^trunc
    sums = eta_quotient(12 * n, max(0, 3 * trunc - n))
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


def fit_character(d0: int, d13: int, d23: int) -> Dict[int, Q]:
    """The Laurent coefficients {n: c_n} of `LAURENT_TABLE` at one
    (d0, d13, d23).

    d0 is the fixed-point weight-one dimension; d13 and d23 are the summed
    twisted dimensions at weights 1/3 and 2/3.
    """
    point = (Q(d0), Q(d13), Q(d23), Q(1))
    c = {
        n: sum((x * p for x, p in zip(expr, point)), Q(0))
        for n, expr in LAURENT_TABLE.items()
    }
    if c[1] != 1:
        raise InvariantError(f"leading Laurent coefficient is {c[1]}, not 1")
    return c


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
    # the constant term of Z(t) itself is c0 + c1 [q^0]f: each 1/f^n starts
    # at q^n
    f0 = hauptmodul_f(trunc).coeff(0)
    total = _lin_add(LAURENT_TABLE[0], _lin_scale(LAURENT_TABLE[1], f0))
    for n, cn in LAURENT_TABLE.items():
        # T sends q^(k/3) to w^k q^(k/3), so the trace over the three shifts
        # is a roots-of-unity filter that leaves exponent 0 unchanged: the
        # constant term of sum_i Z(S T^i t) is 3 times that of Z(S t)
        gamma = Q(1) if n == 0 else f_power_at_S(n, trunc).coeff(0)
        total = _lin_add(total, _lin_scale(cn, 3 * gamma))
    return total
