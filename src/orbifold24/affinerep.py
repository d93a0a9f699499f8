"""Irreducible-module tables of simple affine VOAs at positive integer level.

A level-k table lists the dominant integral weights lam with (lam|theta) <= k
together with the lowest conformal weight (lam, lam + 2 rho) / 2(k + h-dual),
the dimension of the top space and its lowest weight w0.lam.  The least
pairing of h with the weights of a module is the closed form (h+|w0.lam),
h+ the dominant conjugate of h.  A twist direction is one rational Cartan
element h_i per simple ideal, each as (den, den * h_i) (`ScaledCoords`);
its category order and fixed subalgebras drive the order-3 orbifold cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import List, Sequence, Tuple

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


@dataclass(frozen=True)
class AffineAlgebra:
    type: SimpleType
    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be a positive integer")

    def root_system(self) -> RootSystem:
        return build_root_system(self.type)

    def __str__(self) -> str:
        return f"{self.type},{self.level}"


@dataclass(frozen=True)
class TableRow:
    weight: IntCoords
    conformal_weight: Q
    dim_of_top: int
    lowest: IntCoords  # w0.lam


@dataclass(frozen=True)
class AffineModuleTable:
    algebra: AffineAlgebra
    rows: Tuple[TableRow, ...]
    # the conformal weights as (den, numerators), den the lcm of theirs
    cw_column: Tuple[int, Tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.rows)

    def weights(self) -> List[IntCoords]:
        return [r.weight for r in self.rows]


@lru_cache(maxsize=None)
def enumerate_level_weights(a: AffineAlgebra) -> AffineModuleTable:
    """All dominant integral weights admissible at the algebra's level.

    Everything runs in integer fundamental-weight coordinates against the
    covectors form . x, which pair to scale * (x|y): lam is admissible when
    covector(theta) . lam <= k * scale; the Weyl dimension is the product of
    covector(alpha) . (lam + rho) over the positive roots over the same
    product for rho; the conformal weight is lam . form . (lam + 2 rho) over
    2 scale (k + h-dual), positive for every lam but the vacuum.  The walk
    yields the weights in sorted order, so row 0 is the vacuum.
    """
    rs = a.root_system()
    theta = rs.covector(rs.theta)
    positive = [rs.covector(alpha) for alpha in rs.positive_roots]
    rho_product = prod(sum(dual) for dual in positive)  # rho = (1, ..., 1)
    cw_den = 2 * rs.scale * (a.level + a.type.dual_coxeter_number())
    rows: List[TableRow] = []

    def rec(partial: List[int], budget: int) -> None:
        i = len(partial)
        if i < rs.rank:
            for c in range(budget // theta[i] + 1):
                rec(partial + [c], budget - c * theta[i])
            return
        lam_rho = [c + 1 for c in partial]
        dim, rem = divmod(
            prod(sum(map(mul, dual, lam_rho)) for dual in positive), rho_product
        )
        if rem:
            raise InvariantError(f"{a}: Weyl dimension of {partial} is not an integer")
        norm = sum(map(mul, rs.covector(partial), [c + 2 for c in partial]))
        if norm <= 0 and any(partial):
            # the twist DP reads a positive cw sum as "some ideal is not vacuum"
            raise InvariantError(f"{a}: non-vacuum weight {partial} has cw <= 0")
        rows.append(TableRow(
            tuple(partial), Q(norm, cw_den), dim, lowest_weight(rs, partial)
        ))

    rec([], a.level * rs.scale)
    den = lcm(*(r.conformal_weight.denominator for r in rows))
    cws = tuple(
        r.conformal_weight.numerator * (den // r.conformal_weight.denominator)
        for r in rows
    )
    return AffineModuleTable(a, tuple(rows), (den, cws))


def n_min(rs: RootSystem, h: ScaledCoords, lam: Sequence[int]) -> Q:
    """Minimum of (h|mu) over the weight system of lam, as (h+|w0.lam): the
    weights lie in the hull of W.lam, where h+ pairs least with w0.lam."""
    den, v = h
    dual = rs.covector(dominant_conjugate(rs, v))
    return Q(sum(map(mul, dual, lowest_weight(rs, lam))), den * rs.scale)


def n_min_column(
    a: AffineAlgebra, h: ScaledCoords
) -> Tuple[int, List[int], List[int]]:
    """n_min(h, lam) and n_min(-h, lam) for every row lam, in table order.

    The result is (den * scale, numerators for h, numerators for -h): h+ is
    found once; h pairs least with w0.lam at (h+|w0.lam), and -h pairs least
    with the top weight, -(h+|lam), since h+ pairs most with lam itself.
    An untwisted ideal, h = 0, gets zero columns.
    """
    rs = a.root_system()
    den, v = h
    rows = enumerate_level_weights(a).rows
    if not any(v):
        return den * rs.scale, [0] * len(rows), [0] * len(rows)
    dual = rs.covector(dominant_conjugate(rs, v))
    pos = [sum(map(mul, dual, r.lowest)) for r in rows]
    neg = [-sum(map(mul, dual, r.weight)) for r in rows]
    return den * rs.scale, pos, neg


def sigma_order_on_category(
    h: Sequence[ScaledCoords], algebras: Sequence[AffineAlgebra]
) -> int:
    """Exponent of the pairing values (h|lam) mod 1 over all admissible tuples.

    This is the least n with n*(h|lam) integral for every tuple of admissible
    weights; it bounds the order of the inner automorphism attached to h and
    equals it exactly when all category weights occur in the module.
    """
    if len(h) != len(algebras):
        raise ValueError("twist vector length does not match ideal count")
    order = 1
    for (den, v), a in zip(h, algebras):
        rs = a.root_system()
        dual, d = rs.covector(v), den * rs.scale
        for row in enumerate_level_weights(a).rows:
            order = lcm(order, d // gcd(sum(map(mul, dual, row.weight)), d))
    return order


def inner_fixed_subalgebra(
    ambient: Sequence[AffineAlgebra], h: Sequence[ScaledCoords]
) -> Tuple[SemisimpleTypeWithLevels, int]:
    """Fixed subalgebra of the inner automorphism exp(-2 pi i h) with dimension.

    Each h_i is moved to the fundamental alcove (`alcove_labels`), where the
    nodes it labels 0 span the fixed ideals (`kac_fixed_subalgebra`); their
    levels scale by the ambient level.
    """
    if len(h) != len(ambient):
        raise ValueError("twist vector length does not match ideal count")
    ideals: List[Tuple[SimpleType, Q]] = []
    abelian = 0
    for a, hi in zip(ambient, h):
        fixed = kac_fixed_subalgebra(a.type, alcove_labels(a.root_system(), hi))
        ideals.extend((t, k * a.level) for t, k in fixed.ideals)
        abelian += fixed.abelian_rank
    result = SemisimpleTypeWithLevels.of(ideals, abelian)
    return result, result.dim()
