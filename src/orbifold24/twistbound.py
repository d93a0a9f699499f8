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
conformal-weight-sum states, which accounts for every tuple.  The states do
not depend on the sign of h, so one backward sweep serves both, and each
suffix table is grouped by the residue of its cw sum: a prefix reads only
the completions that make its own sum integral.  A function of the twist
takes (ambient, h) and walks the pairs with a strict zip.

Everything that depends on one ideal and its h_i alone, its term of <h|h>,
its shift flag and its n_min columns, is one immutable record per process
(`ideal_twist`): a scan over twist classes and a stream of case files meet
the same (ideal, h_i) pairs again and again, and each is worked out once.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import lcm, prod
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Tuple

from .affinerep import AffineAlgebra, Ambient, Twist, enumerate_level_weights, n_min_column
from .exactmath import InvariantError
from .rootdata import IntCoords, ScaledCoords, dominant_conjugate


class IdealTwist(NamedTuple):
    """What one ideal at its level contributes for its h_i, in ints, bools
    and tuples: the term k (h_i|h_i) of <h|h> as (numerator, denominator),
    whether (h_i|alpha) >= -1 on every root, and the n_min columns of h_i
    and -h_i as `n_min_column` gives them."""

    norm: Tuple[int, int]
    shift: bool
    n_min: Tuple[int, Tuple[int, ...], Tuple[int, ...]]


@lru_cache(maxsize=None)
def ideal_twist(a: AffineAlgebra, hi: ScaledCoords) -> IdealTwist:
    """The record of one ideal and its h_i, built once per process.

    The roots of an ideal lie in the convex hull of the Weyl orbit of theta,
    where the dominant conjugate h+ pairs most with theta itself, and they
    are closed under negation; so their least pairing with h is -(h+|theta).
    An h_i of the wrong length raises ValueError.
    """
    rs = a.root_system()
    den, v = hi
    if len(v) != rs.rank:
        raise ValueError(f"h_i {v} for {a} must have {rs.rank} coordinates")
    top = dominant_conjugate(rs, v)
    d, pos, neg = n_min_column(a, hi)
    return IdealTwist(
        (a.level * sum(map(mul, rs.covector(v), v)), den * den * rs.scale),
        sum(map(mul, rs.covector(rs.theta), top)) <= den * rs.scale,
        (d, tuple(pos), tuple(neg)),
    )


def _records(ambient: Ambient, h: Twist) -> List[IdealTwist]:
    """The record of every (ideal, h_i) pair, h_i made hashable as
    (den, tuple); a wrong-length h raises ValueError."""
    return [ideal_twist(a, (den, tuple(v))) for a, (den, v) in zip(ambient, h, strict=True)]


def _norm(records: List[IdealTwist]) -> Tuple[int, int]:
    """<h|h> = sum_i k_i (h_i|h_i) as (numerator, denominator), from the records."""
    terms = [r.norm for r in records]
    d = lcm(*(t for _, t in terms))
    return sum(n * (d // t) for n, t in terms), d


def invariant_norm(ambient: Ambient, h: Twist) -> Tuple[Q, bool, bool]:
    """<h|h> = sum_i k_i (h_i|h_i), with the 2Z and (2/3)Z membership flags."""
    num, d = _norm(_records(ambient, h))
    return Q(num, d), num % (2 * d) == 0, 3 * num % (2 * d) == 0


def shift_ok(ambient: Ambient, h: Twist) -> bool:
    """True iff (h|alpha) >= -1 for every root alpha of the ambient algebra
    (`ideal_twist`).  Every ideal is walked, so a wrong-length h raises
    ValueError."""
    return all(r.shift for r in _records(ambient, h))


class _CaseTables:
    """Per-ideal admissible weights with the cw column and the n_min columns
    of h and -h, all scaled to integers over one common denominator.

    Row 0 of every ideal is the vacuum (the zero weight sorts first).
    """

    def __init__(self, ambient: Ambient, h: Twist):
        self.weights: List[Tuple[IntCoords, ...]] = []
        # (den, integer column) per ideal; the record's n_min gives h and
        # -h over one denominator, and the records' norms <h|h>
        records = _records(ambient, h)
        cw, nm = [], []
        for a, record in zip(ambient, records, strict=True):
            table = enumerate_level_weights(a)
            self.weights.append(table.weights)
            cw.append(table.cw_column)
            nm.append(record.n_min)
        half_norm = Q(*_norm(records)) / 2
        dens = [den for den, _ in cw] + [den for den, _, _ in nm]
        self.scale = d = lcm(half_norm.denominator, *dens)
        self.half_norm_s = half_norm.numerator * (d // half_norm.denominator)
        self.cw_s = [[x * (d // den) for x in col] for den, col in cw]
        self.nm_s = tuple(  # for h, for -h
            [[x * (d // den) for x in cols[k]] for den, *cols in nm] for k in (0, 1)
        )

    def minimize(self) -> List[Tuple[Q, Tuple[IntCoords, ...]]]:
        """Min-plus DP for the least bound and its witness, for h and -h.

        The state of a suffix of ideals is its scaled cw sum s: every
        non-vacuum weight has cw > 0, so s > 0 exactly when some ideal of
        the suffix is not vacuum.  A suffix reaching a state with the least
        n_min sum is the best completion of every prefix.  The states do not
        depend on the sign of h, so one backward sweep over the ideals
        n-1..1 keeps, per state, the least sums for h and for -h.  Every
        tuple reaches some state, so the DP covers the whole tuple space.
        A tuple is feasible only when its cw sum is integral, i.e. s = 0 mod
        the scale d, so each suffix table is grouped by s mod d and a prefix
        with cw sum s0 reads only the group of residue -s0: the rows of
        ideal 0 are such prefixes, and its own table is never built.  The
        forward walk then takes at each ideal the smallest row that still
        reaches the optimum, which gives the lexicographically least
        minimizer.
        """
        d, two_d, half = self.scale, 2 * self.scale, self.half_norm_s
        n, cw_s = len(self.weights), self.cw_s
        # tables[i]: the least n_min sums (h, -h) per state s of ideals i..;
        # groups[i]: those states by residue s mod d.  The empty suffix ends
        # the walk.
        tables: List[Tuple[Dict[int, int], Dict[int, int]]] = (
            [({}, {})] * n + [({0: 0}, {0: 0})]
        )
        groups: List[Dict[int, List[int]]] = [{}] * n + [{0: [0]}]
        pos, neg = tables[n]
        nm_pos, nm_neg = self.nm_s
        for i in range(n - 1, 0, -1):
            after = [(s, p, neg[s]) for s, p in pos.items()]
            # row 0, the vacuum (cw 0, n_min 0), keeps every state as it is
            pos, neg = dict(pos), dict(neg)
            for cw, a, b in zip(cw_s[i][1:], nm_pos[i][1:], nm_neg[i][1:]):
                for s, p, q in after:
                    k = s + cw
                    cur = pos.get(k)
                    if cur is None:
                        pos[k], neg[k] = p + a, q + b
                    else:
                        if p + a < cur:
                            pos[k] = p + a
                        if q + b < neg[k]:
                            neg[k] = q + b
            by_residue: Dict[int, List[int]] = {}
            for s in pos:
                by_residue.setdefault(s % d, []).append(s)
            tables[i], groups[i] = (pos, neg), by_residue

        def best_from(sign: int, i: int, s0: int, s_nm: int) -> Optional[int]:
            """Least scaled bound over the completions by ideals i.. of a
            prefix with cw sum s0 and n_min sum s_nm; None if no completion
            makes the cw sum integral.  ell_min is max(2, cw sum) off the
            vacuum, whose floor is 0."""
            group = groups[i].get(-s0 % d)
            if group is None:
                return None
            least = tables[i][sign]
            if s0:
                low = min(max(two_d, s0 + s) + least[s] for s in group)
            else:  # the vacuum completion keeps the floor at 0
                low = min((max(two_d, s) if s else 0) + least[s] for s in group)
            return low + s_nm + half

        results = []
        for sign, nm_s in enumerate(self.nm_s):
            reach = [best_from(sign, 1, cw, nm) for cw, nm in zip(cw_s[0], nm_s[0])]
            best = min((b for b in reach if b is not None), default=None)
            if best is None:
                raise InvariantError("no weight tuple has an integral cw sum")
            j = reach.index(best)
            witness = [self.weights[0][j]]
            s0, s_nm = cw_s[0][j], nm_s[0][j]
            for i in range(1, n):
                j = next(
                    (j for j, (cw, nm) in enumerate(zip(cw_s[i], nm_s[i]))
                     if best_from(sign, i + 1, s0 + cw, s_nm + nm) == best),
                    None,
                )
                if j is None:
                    raise InvariantError("no row of the forward walk reaches the optimum")
                witness.append(self.weights[i][j])
                s0, s_nm = s0 + cw_s[i][j], s_nm + nm_s[i][j]
            results.append((Q(best, d), tuple(witness)))
        return results


def min_twisted_weight(
    ambient: Ambient, h: Twist
) -> Tuple[Q, Tuple[IntCoords, ...], Q, Tuple[IntCoords, ...]]:
    """Minimum of the bound over all feasible tuples, for h and -h.

    Returns (min for h, witness, min for -h, witness); witnesses are the
    lexicographically least minimizers.  The -h minimum is computed on its
    own n_min column, not as a symmetry image; the two signs share one
    backward sweep, the cw columns and <h|h>, read off the same records as
    `invariant_norm`.  The shift formula needs (h|alpha) >= -1; callers
    check `shift_ok` once, report it, and call this only when it holds.
    """
    (m1, w1), (m2, w2) = _CaseTables(ambient, h).minimize()
    return m1, w1, m2, w2


def tuple_space_size(ambient: Ambient) -> int:
    """Number of weight tuples: the product of the ideals' table sizes."""
    return prod(len(enumerate_level_weights(a).weights) for a in ambient)
