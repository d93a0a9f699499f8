"""Irreducible-module tables of simple affine VOAs at positive integer level.

A level-k table lists the dominant integral weights lam with (lam|theta) <= k
together with the lowest conformal weight (lam, lam + 2 rho) / 2(k + h-dual)
and the lowest weight w0.lam of the top space, one column per quantity.  The
least pairing of h with the weights of a module is the closed form
(h+|w0.lam), h+ the dominant conjugate of h.  A twist direction is one
rational Cartan element h_i per simple ideal, each as (den, den * h_i)
(`ScaledCoords`); its category order and fixed subalgebras drive the
order-3 orbifold cases.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .exactmath import InvariantError
from .rootdata import (
    IntCoords,
    RootSystem,
    ScaledCoords,
    SemisimpleTypeWithLevels,
    SimpleType,
    alcove_labels,
    build_root_system,
    dominant_conjugate,
    kac_fixed_subalgebra,
    lowest_weight,
)


class _AffineAlgebraKey(NamedTuple):
    type: SimpleType
    level: int


class AffineAlgebra(_AffineAlgebraKey):
    """Simple type at a positive level, a validated tuple: equality, hash
    and order are tuple's and run in C, so `AffineAlgebra(t, k)` equals the
    `(t, k)` pair that `schellekens.Ideal` names."""

    __slots__ = ()

    def __new__(cls, type: SimpleType, level: int) -> "AffineAlgebra":
        if level < 1:
            raise ValueError("level must be a positive integer")
        return super().__new__(cls, type, level)

    @classmethod
    def _make(cls, iterable: Iterable) -> "AffineAlgebra":
        """Through the validation, as `SimpleType._make`."""
        return cls(*iterable)

    def root_system(self) -> RootSystem:
        return build_root_system(self.type)

    def __str__(self) -> str:
        return f"{self.type},{self.level}"


# the twist functions take (ambient, h): the ideals with their levels, and
# one h_i per ideal in the same order; a wrong-length h raises ValueError
Ambient = Sequence[AffineAlgebra]
Twist = Sequence[ScaledCoords]


class AffineModuleTable(NamedTuple):
    """One column per quantity, in table order: the admissible weights, their
    lowest weights w0.lam, and the conformal weights as (den, numerators) in
    lowest terms."""

    weights: Tuple[IntCoords, ...]
    lowest: Tuple[IntCoords, ...]
    cw_column: Tuple[int, Tuple[int, ...]]


@lru_cache(maxsize=None)
def enumerate_level_weights(a: AffineAlgebra) -> AffineModuleTable:
    """All dominant integral weights admissible at the algebra's level.

    Everything runs in integer fundamental-weight coordinates against the
    covectors form . x, which pair to scale * (x|y): lam is admissible when
    covector(theta) . lam <= k * scale; the conformal weight is the norm
    lam . form . (lam + 2 rho) over 2 scale (k + h-dual), positive for every
    lam but the vacuum, and the column divides the norms and that
    denominator by their gcd.  The walk yields the weights in sorted order,
    so row 0 is the vacuum.
    """
    rs = a.root_system()
    theta = rs.covector(rs.theta)
    weights: List[IntCoords] = []
    norms: List[int] = []

    def rec(partial: List[int], budget: int) -> None:
        i = len(partial)
        if i < rs.rank:
            for c in range(budget // theta[i] + 1):
                rec(partial + [c], budget - c * theta[i])
            return
        norm = sum(map(mul, rs.covector(partial), [c + 2 for c in partial]))
        if norm <= 0 and any(partial):
            # the twist DP reads a positive cw sum as "some ideal is not vacuum"
            raise InvariantError(f"{a}: non-vacuum weight {partial} has cw <= 0")
        weights.append(tuple(partial))
        norms.append(norm)

    rec([], a.level * rs.scale)
    cw_den = 2 * rs.scale * (a.level + a.type.dual_coxeter_number())
    g = gcd(cw_den, *norms)
    return AffineModuleTable(
        tuple(weights),
        tuple(lowest_weight(rs, lam) for lam in weights),
        (cw_den // g, tuple(n // g for n in norms)),
    )


def pairing_column(a: AffineAlgebra, h: ScaledCoords) -> Tuple[int, List[int]]:
    """(h|lam) for every row lam, in table order, as (den * scale, numerators)."""
    rs = a.root_system()
    den, v = h
    dual = rs.covector(v)
    weights = enumerate_level_weights(a).weights
    return den * rs.scale, [sum(map(mul, dual, lam)) for lam in weights]


def n_min_column(
    a: AffineAlgebra, h: ScaledCoords
) -> Tuple[int, List[int], List[int]]:
    """The least pairing of h, and of -h, with the weights of each row's
    module, in table order.

    The result is (den * scale, numerators for h, numerators for -h): h+ is
    found once; the weights lie in the hull of W.lam, where h pairs least
    with w0.lam, at (h+|w0.lam), and -h with lam itself, at -(h+|lam).
    An untwisted ideal, h = 0, gets zero columns.
    """
    rs = a.root_system()
    den, v = h
    table = enumerate_level_weights(a)
    if not any(v):
        return den * rs.scale, [0] * len(table.weights), [0] * len(table.weights)
    dual = rs.covector(dominant_conjugate(rs, v))
    pos = [sum(map(mul, dual, low)) for low in table.lowest]
    neg = [-sum(map(mul, dual, lam)) for lam in table.weights]
    return den * rs.scale, pos, neg


def sigma_order_on_category(ambient: Ambient, h: Twist) -> int:
    """Exponent of the pairing values (h|lam) mod 1 over all admissible tuples.

    This is the least n with n*(h|lam) integral for every tuple of admissible
    weights; it bounds the order of the inner automorphism attached to h and
    equals it exactly when all category weights occur in the module.
    """
    order = 1
    for a, hi in zip(ambient, h, strict=True):
        d, col = pairing_column(a, hi)
        for x in col:
            order = lcm(order, d // gcd(x, d))
    return order


def inner_fixed_subalgebra(ambient: Ambient, h: Twist) -> SemisimpleTypeWithLevels:
    """Fixed subalgebra of the inner automorphism exp(-2 pi i h).

    Each h_i is moved to the fundamental alcove (`alcove_labels`), where the
    nodes it labels 0 span the fixed ideals (`kac_fixed_subalgebra`); their
    levels scale by the ambient level.
    """
    ideals: List[Tuple[SimpleType, Q]] = []
    abelian = 0
    for a, hi in zip(ambient, h, strict=True):
        fixed = kac_fixed_subalgebra(a.type, alcove_labels(a.root_system(), hi))
        ideals.extend((t, k * a.level) for t, k in fixed.ideals)
        abelian += fixed.abelian_rank
    return SemisimpleTypeWithLevels.of(ideals, abelian)
