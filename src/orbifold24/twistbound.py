"""Lower bounds for lowest weights of twist-deformed modules.

For a semisimple weight-one algebra with ideals g_i at levels k_i and a
Cartan element h = (h_i), deforming a module with highest weights (lam_i)
shifts its lowest L(0)-weight to

    ell + sum_i min{(h_i|mu) : mu in Pi(lam_i)} + <h|h>/2,

where ell is the module's lowest weight.  Inside a CFT-type holomorphic VOA
whose weight-one space is exhausted by the ambient algebra, a non-vacuum
module has ell >= 2 and ell integral, so only tuples with integral
conformal-weight sum can occur; the minimum of the shifted bound over all
such tuples is computed for h and -h by a min-plus dynamic program over
(conformal-weight sum, non-vacuum) states, which accounts for every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from typing import Dict, List, Optional, Tuple

from .affinerep import (
    AffineAlgebra,
    TwistVector,
    enumerate_level_weights,
    n_min_column,
)
from .exactmath import InvariantError
from .rootdata import Coords, dominant_conjugate


@dataclass(frozen=True)
class CaseSpec:
    """Ambient semisimple algebra with levels, twist vector, and a name."""

    name: str
    ambient: Tuple[AffineAlgebra, ...]
    h: TwistVector

    def __post_init__(self) -> None:
        if len(self.h.components) != len(self.ambient):
            raise ValueError("twist vector length does not match ideal count")

    def negated(self) -> "CaseSpec":
        return CaseSpec(self.name + "-neg", self.ambient, self.h.negate())


def invariant_norm(c: CaseSpec) -> Tuple[Q, bool, bool]:
    """<h|h> = sum_i k_i (h_i|h_i), with the 2Z and (2/3)Z membership flags."""
    total = Q(0)
    for a, hi in zip(c.ambient, c.h.components):
        total += a.level * a.root_system().norm_of(hi.coords)
    return total, (total / 2).denominator == 1, (total * 3 / 2).denominator == 1


def shift_ok(c: CaseSpec) -> bool:
    """True iff (h|alpha) >= -1 for every root alpha of the ambient algebra.

    The roots of an ideal lie in the convex hull of the Weyl orbit of theta,
    where the dominant conjugate h+ pairs most with theta itself, and they
    are closed under negation; so their least pairing with h is -(h+|theta).
    """
    for a, hi in zip(c.ambient, c.h.components):
        rs = a.root_system()
        if rs.ip(dominant_conjugate(hi).coords, rs.theta) > 1:
            return False
    return True


class _CaseTables:
    """Per-ideal admissible weights with scaled-integer cw and n_min columns.

    Row 0 of every ideal is the vacuum (the zero weight sorts first).
    """

    def __init__(self, c: CaseSpec):
        self.case = c
        self.weights: List[List[Coords]] = []
        cw: List[List[Q]] = []
        nm: List[List[Q]] = []
        for a, hi in zip(c.ambient, c.h.components):
            table = enumerate_level_weights(a)
            self.weights.append([r.weight for r in table.rows])
            cw.append([r.conformal_weight for r in table.rows])
            nm.append(n_min_column(a, hi))
        norm, _, _ = invariant_norm(c)
        self.half_norm = norm / 2
        denoms = [self.half_norm.denominator]
        for col in cw + nm:
            denoms.extend(v.denominator for v in col)
        self.scale = lcm(*denoms)
        d = self.scale
        self.cw_s = [[int(v * d) for v in col] for col in cw]
        self.nm_s = [[int(v * d) for v in col] for col in nm]
        self.half_norm_s = int(self.half_norm * d)

    def bound_s(self, s_cw: int, nonvacuum: bool, s_nm: int) -> Optional[int]:
        """Scaled bound of a tuple with these sums; None if cw is not integral."""
        d = self.scale
        if s_cw % d:
            return None
        return max(2 * d if nonvacuum else 0, s_cw) + s_nm + self.half_norm_s

    def minimize(self) -> Tuple[Q, Tuple[Coords, ...]]:
        """Min-plus DP for the least bound and its witness.

        The state of a suffix of ideals is (scaled cw sum, non-vacuum flag);
        a suffix reaching a state with the least n_min sum is the best
        completion of every prefix, so completions[i] maps each state of the
        ideals i.. to that least sum.  Every tuple reaches some state, so
        the DP covers the whole tuple space.  The forward walk then takes at
        each ideal the smallest row that still reaches the optimum, which
        gives the lexicographically least minimizer.
        """
        n = len(self.weights)
        completions: List[Dict[Tuple[int, bool], int]] = [{}] * n + [{(0, False): 0}]
        for i in range(n - 1, -1, -1):
            table: Dict[Tuple[int, bool], int] = {}
            for j, (cw, nm) in enumerate(zip(self.cw_s[i], self.nm_s[i])):
                for (s_cw, flag), s_nm in completions[i + 1].items():
                    key = (s_cw + cw, flag or j > 0)
                    cur = table.get(key)
                    if cur is None or s_nm + nm < cur:
                        table[key] = s_nm + nm
            completions[i] = table

        def best_from(i: int, s_cw: int, flag: bool, s_nm: int) -> Optional[int]:
            found = None
            for (c_cw, c_flag), c_nm in completions[i].items():
                b = self.bound_s(s_cw + c_cw, flag or c_flag, s_nm + c_nm)
                if b is not None and (found is None or b < found):
                    found = b
            return found

        best = best_from(0, 0, False, 0)
        if best is None:
            raise InvariantError("no weight tuple has an integral cw sum")
        witness: List[Coords] = []
        s_cw, flag, s_nm = 0, False, 0
        for i in range(n):
            for j, (cw, nm) in enumerate(zip(self.cw_s[i], self.nm_s[i])):
                if best_from(i + 1, s_cw + cw, flag or j > 0, s_nm + nm) == best:
                    break
            else:
                raise InvariantError("no row of the forward walk reaches the optimum")
            witness.append(self.weights[i][j])
            s_cw, flag, s_nm = s_cw + cw, flag or j > 0, s_nm + nm
        return Q(best, self.scale), tuple(witness)


def min_twisted_weight(c: CaseSpec) -> Tuple[Q, Tuple[Coords, ...], Q, Tuple[Coords, ...]]:
    """Minimum of the bound over all feasible tuples, for h and -h.

    Returns (min for h, witness, min for -h, witness); witnesses are the
    lexicographically least minimizers.  The -h minimum is an independent
    run, not a symmetry image.  The shift formula needs (h|alpha) >= -1;
    callers check `shift_ok` once, report it, and call this only when it
    holds.
    """
    (m1, w1), (m2, w2) = (
        _CaseTables(case).minimize() for case in (c, c.negated())
    )
    return m1, w1, m2, w2


def tuple_space_size(c: CaseSpec) -> int:
    """Number of weight tuples: the product of the ideals' table sizes."""
    n = 1
    for a in c.ambient:
        n *= len(enumerate_level_weights(a))
    return n
