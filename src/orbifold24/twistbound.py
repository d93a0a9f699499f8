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
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .affinerep import AffineAlgebra, enumerate_level_weights, n_min_column
from .exactmath import InvariantError
from .rootdata import IntCoords, ScaledCoords, dominant_conjugate


@dataclass(frozen=True)
class CaseSpec:
    """Ambient semisimple algebra with levels, twist vector, and a name.

    h holds one twist component per ideal as (den, den * h_i), integral.
    """

    name: str
    ambient: Tuple[AffineAlgebra, ...]
    h: Tuple[ScaledCoords, ...]

    def __post_init__(self) -> None:
        if len(self.h) != len(self.ambient):
            raise ValueError("twist vector length does not match ideal count")


def invariant_norm(c: CaseSpec) -> Tuple[Q, bool, bool]:
    """<h|h> = sum_i k_i (h_i|h_i), with the 2Z and (2/3)Z membership flags."""
    terms = []
    for a, (den, v) in zip(c.ambient, c.h):
        rs = a.root_system()
        terms.append((a.level * sum(map(mul, rs.covector(v), v)), den * den * rs.scale))
    d = lcm(*(t for _, t in terms))
    num = sum(n * (d // t) for n, t in terms)
    return Q(num, d), num % (2 * d) == 0, 3 * num % (2 * d) == 0


def shift_ok(c: CaseSpec) -> bool:
    """True iff (h|alpha) >= -1 for every root alpha of the ambient algebra.

    The roots of an ideal lie in the convex hull of the Weyl orbit of theta,
    where the dominant conjugate h+ pairs most with theta itself, and they
    are closed under negation; so their least pairing with h is -(h+|theta).
    """
    for a, (den, v) in zip(c.ambient, c.h):
        rs = a.root_system()
        top = dominant_conjugate(rs, v)
        if sum(map(mul, rs.covector(rs.theta), top)) > den * rs.scale:
            return False
    return True


class _CaseTables:
    """Per-ideal admissible weights with the cw column and the n_min columns
    of h and -h, all scaled to integers over one common denominator.

    Row 0 of every ideal is the vacuum (the zero weight sorts first).
    """

    def __init__(self, c: CaseSpec):
        self.weights: List[List[IntCoords]] = []
        # (den, integer column) per ideal: cw, n_min for h, n_min for -h
        cw, pos, neg = [], [], []
        for a, (den, v) in zip(c.ambient, c.h):
            table = enumerate_level_weights(a)
            self.weights.append(table.weights())
            cw.append(table.cw_column)
            pos.append(n_min_column(a, (den, v)))
            neg.append(n_min_column(a, (den, tuple(-x for x in v))))
        norm, _, _ = invariant_norm(c)
        half_norm = norm / 2
        # the -h columns share the denominators of the h columns
        self.scale = d = lcm(half_norm.denominator, *(den for den, _ in cw + pos))
        self.half_norm_s = half_norm.numerator * (d // half_norm.denominator)

        def scaled(cols: List[Tuple[int, Sequence[int]]]) -> List[List[int]]:
            return [[x * (d // den) for x in col] for den, col in cols]

        self.cw_s = scaled(cw)
        self.nm_s = (scaled(pos), scaled(neg))  # for h, for -h

    def minimize(self, nm_s: List[List[int]]) -> Tuple[Q, Tuple[IntCoords, ...]]:
        """Min-plus DP for the least bound and its witness, n_min columns nm_s.

        The state of a suffix of ideals is its scaled cw sum s and its
        non-vacuum flag f, keyed as the one int 2 s + f; a suffix reaching a
        state with the least n_min sum is the best completion of every
        prefix, so completions[i] maps each state of the ideals i.. to that
        least sum.  Every tuple reaches some state, so the DP covers the
        whole tuple space.  The forward walk then takes at each ideal the
        smallest row that still reaches the optimum, which gives the
        lexicographically least minimizer.
        """
        d, half = self.scale, self.half_norm_s
        n = len(self.weights)
        completions: List[Dict[int, int]] = [{}] * n + [{0: 0}]
        for i in range(n - 1, -1, -1):
            table: Dict[int, int] = {}
            after = list(completions[i + 1].items())
            for j, (cw, nm) in enumerate(zip(self.cw_s[i], nm_s[i])):
                step, flag = 2 * cw, 1 if j else 0
                for key, s_nm in after:
                    k = (key + step) | flag
                    cur = table.get(k)
                    if cur is None or s_nm + nm < cur:
                        table[k] = s_nm + nm
            completions[i] = table

        def best_from(i: int, key: int, s_nm: int) -> Optional[int]:
            """Least scaled bound over the completions of a prefix; None if
            no completion makes the cw sum integral."""
            found = None
            for c_key, c_nm in completions[i].items():
                total = key + c_key - (key & c_key & 1)  # sums s, ors f
                s_cw = total >> 1
                if s_cw % d:
                    continue
                b = max(2 * d * (total & 1), s_cw) + s_nm + c_nm + half
                if found is None or b < found:
                    found = b
            return found

        best = best_from(0, 0, 0)
        if best is None:
            raise InvariantError("no weight tuple has an integral cw sum")
        witness: List[IntCoords] = []
        key, s_nm = 0, 0
        for i in range(n):
            for j, (cw, nm) in enumerate(zip(self.cw_s[i], nm_s[i])):
                nxt = (key + 2 * cw) | (1 if j else 0)
                if best_from(i + 1, nxt, s_nm + nm) == best:
                    break
            else:
                raise InvariantError("no row of the forward walk reaches the optimum")
            witness.append(self.weights[i][j])
            key, s_nm = nxt, s_nm + nm
        return Q(best, d), tuple(witness)


def min_twisted_weight(
    c: CaseSpec,
) -> Tuple[Q, Tuple[IntCoords, ...], Q, Tuple[IntCoords, ...]]:
    """Minimum of the bound over all feasible tuples, for h and -h.

    Returns (min for h, witness, min for -h, witness); witnesses are the
    lexicographically least minimizers.  The -h minimum is an independent
    run on its own n_min columns, not a symmetry image; the two runs share
    the cw columns and <h|h>.  The shift formula needs (h|alpha) >= -1;
    callers check `shift_ok` once, report it, and call this only when it
    holds.
    """
    tables = _CaseTables(c)
    (m1, w1), (m2, w2) = (tables.minimize(nm) for nm in tables.nm_s)
    return m1, w1, m2, w2


def tuple_space_size(c: CaseSpec) -> int:
    """Number of weight tuples: the product of the ideals' table sizes."""
    n = 1
    for a in c.ambient:
        n *= len(enumerate_level_weights(a))
    return n
