"""Exact q-series of one eta quotient and the order-3 dimension formula.

The genus-zero generator f = eta(t)^12 / eta(3t)^12 of the level-3
function field, at i-infinity, and its powers at the other cusp are all
one eta quotient P(x^3)^k P(x)^(-k), P(x) = prod (1 - x^m), whose integer
coefficients come from Euler's recurrence; each is returned as a truncated
series in q^(1/D) with exact rational coefficients.  The Laurent table of a
fixed-point character in f is solved from its principal parts, q^-1 + d0 at
i-infinity and (1/3)(x^-3 + d13 x^-2 + d23 x^-1) at the other cusp; with the
cusp expansions it feeds a fully symbolic re-derivation of the weight-one
dimension formula

    dim V_1 + dim V~_1 = 4 d0 - 36 d13 - 12 d23 + 24,

where d0 is the fixed weight-one dimension and d13, d23 are the summed
twisted dimensions at weights 1/3 and 2/3; `dim_tilde_v1` evaluates the
derived formula, so the chain uses the derivation that its step checks.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import mul
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Tuple

from .exactmath import InvariantError

TRUNC = 1  # the least truncation that covers every read: f to q^1, the cusp series to q^(2/3)


class PuiseuxSeries(NamedTuple):
    """Truncated series sum_n c_n q^(n/denom), exact below exponent trunc:
    a value, its coefficients a read-only mapping {n: c_n}."""

    denom: int
    coeffs: Mapping[int, Q]
    trunc: Q

    @staticmethod
    def make(denom: int, coeffs: Dict[int, Q], trunc: Q) -> "PuiseuxSeries":
        kept = {n: c for n, c in coeffs.items() if c and Q(n, denom) < trunc}
        return PuiseuxSeries(denom, MappingProxyType(kept), Q(trunc))

    def normalized(self) -> "PuiseuxSeries":
        """Shrink the exponent denominator to the gcd actually used."""
        g = gcd(self.denom, *self.coeffs)
        if g <= 1:
            return self
        coeffs = MappingProxyType({n // g: c for n, c in self.coeffs.items()})
        return PuiseuxSeries(self.denom // g, coeffs, self.trunc)

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
def hauptmodul_f(trunc: int) -> PuiseuxSeries:
    """f = eta(t)^12 / eta(3t)^12 = q^-1 - 12 + 54q - 76q^2 - ...

    In q this is q^-1 P(q^3)^(-12) P(q)^12: the coefficients of q^-1 ..
    q^trunc, reported exact below q^(trunc + 1/2).
    """
    if trunc <= 0:
        raise ValueError("truncation must be positive")
    coeffs = {e - 1: Q(c) for e, c in enumerate(eta_quotient(-12, trunc + 2))}
    return PuiseuxSeries.make(1, coeffs, Q(2 * trunc + 1, 2))


@lru_cache(maxsize=None)
def f_power_at_S(n: int, trunc: int) -> PuiseuxSeries:
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


def _solve(pivots: Dict[int, Q], d0: Q, d13: Q, d23: Q, vacuum: Q) -> Dict[int, Q]:
    """The c_n of `laurent_table` at one choice of the principal parts."""
    c = {1: vacuum / pivots[1]}
    c[0] = d0 - c[1] * hauptmodul_f(TRUNC).coeff(0)
    for n, part in ((-3, vacuum), (-2, d13), (-1, d23)):
        x_n = Q(n, 3)
        rest = part / 3 - sum(c[m] * f_power_at_S(m, TRUNC).coeff(x_n) for m in range(-3, n))
        c[n] = rest / pivots[n]
    return c


@lru_cache(maxsize=None)
def laurent_table() -> Mapping[int, LinExpr]:
    """The c_n of Z = sum_{n=-3..1} c_n f^n as affine functions of
    (d0, d13, d23), solved from the principal parts of the fixed-point
    character Z.  At i-infinity Z = q^-1 + d0 + O(q): the vacuum term and the
    fixed weight-one dimension.  At the other cusp, with x = q^(1/3),
    Z(S t) = (1/3)(x^-3 + d13 x^-2 + d23 x^-1) + O(1): 1/3 averages over the
    three sectors, d13 and d23 are the summed twisted dimensions at weights
    1/3 and 2/3, and x^-3 is the untwisted vacuum alone, as the positive
    conformal weight of the twisted modules leaves them no x^-3 term.

    f^n starts at q^-n at i-infinity for n < 0, so c_1 = 1 / [q^-1]f, then
    c_0 = d0 - c_1 [q^0]f.  f^n at S starts at x^n, so c_-3, c_-2 and c_-1
    follow from the top down, each minus what the c_m (m < n) solved before
    it put at x^n, over the pivot [x^n] f^n.  A zero pivot raises
    InvariantError.  The solve is linear: the four columns solve d0 = 1,
    d13 = 1, d23 = 1 and the vacuum alone.  The table is a read-only mapping.
    """
    pivots = {n: f_power_at_S(n, TRUNC).coeff(Q(n, 3)) for n in (-3, -2, -1)}
    pivots[1] = hauptmodul_f(TRUNC).coeff(-1)
    for n, p in pivots.items():
        if not p:
            raise InvariantError(f"zero pivot: the leading coefficient of f^{n} is 0")
    units = [tuple(Q(int(i == j)) for j in range(4)) for i in range(4)]
    columns = [_solve(pivots, *unit) for unit in units]
    return MappingProxyType({n: tuple(col[n] for col in columns) for n in columns[0]})


def fit_character(d0: int, d13: int, d23: int) -> Dict[int, Q]:
    """The Laurent coefficients {n: c_n} of `laurent_table()` at one
    (d0, d13, d23).

    d0 is the fixed-point weight-one dimension; d13 and d23 are the summed
    twisted dimensions at weights 1/3 and 2/3.
    """
    point = (d0, d13, d23, 1)
    c = {n: sum(map(mul, expr, point)) for n, expr in laurent_table().items()}
    if c[1] != 1:
        raise InvariantError(f"leading Laurent coefficient is {c[1]}, not 1")
    return c


@lru_cache(maxsize=None)
def derive_dimension_formula() -> LinExpr:
    """Re-derive the dimension formula coefficients (4, -36, -12, 24).

    `laurent_table()` is composed with the exact cusp expansions of f^n,
    and the constant term of Z(t) + sum_i Z(S T^i t) is collected as an
    affine function of (d0, d13, d23), once per process.
    """
    table = laurent_table()
    f0 = hauptmodul_f(TRUNC).coeff(0)
    # T sends q^(k/3) to w^k q^(k/3), so the trace over the three shifts is a
    # roots-of-unity filter that leaves exponent 0 unchanged: the constant
    # term of sum_i Z(S T^i t) is 3 times that of Z(S t)
    gammas = {n: Q(1) if n == 0 else f_power_at_S(n, TRUNC).coeff(0) for n in table}
    # the constant term of Z(t) itself is c0 + c1 [q^0]f: each 1/f^n starts
    # at q^n
    return tuple(  # type: ignore[return-value]
        table[0][j] + f0 * table[1][j] + sum(3 * g * table[n][j] for n, g in gammas.items())
        for j in range(4)
    )


def dim_tilde_v1(dim_v1: int, d0: int, d13: int, d23: int) -> int:
    """dim V~_1: `derive_dimension_formula()` at (d0, d13, d23), minus dim V_1;
    a non-integral value is a fault of the derivation (InvariantError)."""
    if min(dim_v1, d0, d13, d23) < 0:
        raise ValueError("dimensions must be non-negative")
    val = sum(map(mul, derive_dimension_formula(), (d0, d13, d23, 1))) - dim_v1
    if val < 0:
        raise ValueError(f"inconsistent inputs: negative dimension {val}")
    if val.denominator != 1:
        raise InvariantError(f"the dimension formula gives {val}, not an integer")
    return int(val)
