"""Irreducible-module tables of simple affine VOAs at positive integer level.

A level-k table lists the dominant integral weights lam with (lam|theta) <= k
together with the lowest conformal weight (lam, lam + 2 rho) / 2(k + h-dual),
the dimension of the top space and its lowest weight w0.lam.  The least
pairing of h with the weights of a module is the closed form (h+|w0.lam),
h+ the dominant conjugate of h.  Twist vectors pair one Cartan element
per simple ideal; their category order and fixed subalgebras drive the
order-3 orbifold cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from operator import mul
from typing import List, Sequence, Tuple

from .exactmath import rank
from .rootdata import (
    Coords,
    IntCoords,
    RootSystem,
    SemisimpleTypeWithLevels,
    SimpleType,
    Weight,
    build_root_system,
    classify_simple_system,
    dominant_conjugate,
    dual_coxeter,
    lowest_weight,
    min_pairing,
    weyl_dim,
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
    weight: Coords
    conformal_weight: Q
    dim_of_top: int
    lowest: IntCoords  # w0.lam


@dataclass(frozen=True)
class AffineModuleTable:
    algebra: AffineAlgebra
    rows: Tuple[TableRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def weights(self) -> List[Coords]:
        return [r.weight for r in self.rows]


def conformal_weight(lam: Weight, a: AffineAlgebra) -> Q:
    """Lowest L(0)-weight (lam, lam + 2 rho) / 2(k + h-dual) of the module."""
    rs = a.root_system()
    if not (lam.is_dominant() and lam.is_integral()):
        raise ValueError("weight must be dominant integral")
    if rs.ip(lam.coords, rs.theta) > a.level:
        raise ValueError(f"{lam} is not admissible at level {a.level}")
    shifted = tuple(c + 2 for c in lam.coords)  # lam + 2 rho
    return rs.ip(lam.coords, shifted) / (2 * (a.level + dual_coxeter(a.type)))


@lru_cache(maxsize=None)
def enumerate_level_weights(a: AffineAlgebra) -> AffineModuleTable:
    """All dominant integral weights admissible at the algebra's level."""
    rs = a.root_system()
    theta_ip = [rs.ip(rs.fundamental_weight(i).coords, rs.theta) for i in range(rs.rank)]
    rows: List[TableRow] = []

    def rec(i: int, partial: List[int], budget: Q) -> None:
        if i == rs.rank:
            lam = rs.weight(partial)
            low = tuple(map(int, lowest_weight(lam).coords))
            rows.append(
                TableRow(lam.coords, conformal_weight(lam, a), weyl_dim(lam), low)
            )
            return
        top = int(budget / theta_ip[i])
        for c in range(top + 1):
            rec(i + 1, partial + [c], budget - c * theta_ip[i])

    rec(0, [], Q(a.level))
    rows.sort(key=lambda r: r.weight)
    return AffineModuleTable(a, tuple(rows))


def n_min(h_component: Weight, lam: Weight) -> Q:
    """Minimum of (h|mu) over the weight system of lam, as (h+|w0.lam)."""
    return min_pairing(h_component, lam)


def n_min_column(a: AffineAlgebra, h: Weight) -> List[Q]:
    """n_min(h, lam) for every row lam of the algebra's table, in table order.

    h+ is found once; each row pairs den * h+ with its w0.lam in integers.
    """
    rs = a.root_system()
    top = dominant_conjugate(h).coords
    den = lcm(*(c.denominator for c in top))
    dual = rs.covector([int(c * den) for c in top])
    rows = enumerate_level_weights(a).rows
    return [Q(sum(map(mul, dual, r.lowest)), den * rs.scale) for r in rows]


@dataclass(frozen=True)
class TwistVector:
    """One Cartan element per simple ideal, in fundamental-weight coordinates."""

    components: Tuple[Weight, ...]

    def negate(self) -> "TwistVector":
        return TwistVector(tuple(h.scale(-1) for h in self.components))


def sigma_order_on_category(
    h: TwistVector, algebras: Sequence[AffineAlgebra]
) -> int:
    """Exponent of the pairing values (h|lam) mod 1 over all admissible tuples.

    This is the least n with n*(h|lam) integral for every tuple of admissible
    weights; it bounds the order of the inner automorphism attached to h and
    equals it exactly when all category weights occur in the module.
    """
    if len(h.components) != len(algebras):
        raise ValueError("twist vector length does not match ideal count")
    order = 1
    for hi, a in zip(h.components, algebras):
        rs = a.root_system()
        for row in enumerate_level_weights(a).rows:
            order = lcm(order, rs.ip(hi.coords, row.weight).denominator)
    return order


def _indecomposable_positive(
    retained_pos: List[Tuple[IntCoords, IntCoords]]
) -> List[IntCoords]:
    """Simple system of a closed subsystem: indecomposable positive roots."""
    pos_set = {fw for fw, _ in retained_pos}
    simple = []
    for fw, _ in retained_pos:
        decomposable = any(
            tuple(f - g for f, g in zip(fw, other)) in pos_set
            for other in pos_set
            if other != fw
        )
        if not decomposable:
            simple.append(fw)
    return simple


def typed_components_of_subsystem(
    rs: RootSystem,
    retained: List[Tuple[IntCoords, IntCoords]],
    level: int,
) -> Tuple[List[Tuple[SimpleType, Q]], int, int]:
    """Type, level and rank bookkeeping for a closed root subsystem.

    Returns (typed components with levels, abelian rank, dimension).  The
    Cartan is kept whole; a component gets level = ambient level * 2/(b|b)
    for b a long root of the component in the ambient normalization; the
    abelian rank is the rank deficit of the retained root span.
    """
    retained_pos = [(fw, ac) for fw, ac in retained if sum(ac) > 0]
    dim = len(retained) + rs.rank
    if not retained:
        return [], rs.rank, dim
    simple = _indecomposable_positive(retained_pos)
    comps: List[List[IntCoords]] = []
    unused = list(simple)
    while unused:
        comp = [unused.pop()]
        changed = True
        while changed:
            changed = False
            for v in list(unused):
                if any(rs.ip(v, w) != 0 for w in comp):
                    comp.append(v)
                    unused.remove(v)
                    changed = True
        comps.append(comp)
    typed: List[Tuple[SimpleType, Q]] = []
    for comp in comps:
        gram = [[rs.ip(x, y) for y in comp] for x in comp]
        ty = classify_simple_system(gram)
        long_norm = max(gram[i][i] for i in range(len(comp)))
        typed.append((ty, Q(level) * 2 / long_norm))
    span_rank = rank([ac for _, ac in retained_pos])
    abelian = rs.rank - span_rank
    return typed, abelian, dim


def fixed_subalgebra_of_ideal(
    a: AffineAlgebra, h: Weight
) -> Tuple[List[Tuple[SimpleType, Q]], int, int]:
    """Root-filtered fixed subalgebra of one ideal under exp(-2 pi i h).

    Roots kept are exactly those alpha with (h|alpha) integral.
    """
    rs = a.root_system()
    retained = [
        (fw, ac)
        for fw, ac in zip(rs.roots, rs.root_alpha_coords)
        if rs.ip(h.coords, fw).denominator == 1
    ]
    return typed_components_of_subsystem(rs, retained, a.level)


def inner_fixed_subalgebra(
    ambient: Sequence[AffineAlgebra], h: TwistVector
) -> Tuple[SemisimpleTypeWithLevels, int]:
    """Fixed subalgebra of the inner automorphism exp(-2 pi i h) with dimension."""
    if len(h.components) != len(ambient):
        raise ValueError("twist vector length does not match ideal count")
    ideals: List[Tuple[SimpleType, Q]] = []
    abelian = 0
    dim = 0
    for a, hi in zip(ambient, h.components):
        typed, ab, d = fixed_subalgebra_of_ideal(a, hi)
        ideals.extend(typed)
        abelian += ab
        dim += d
    return SemisimpleTypeWithLevels.of(ideals, abelian), dim
