"""Closed-form Lie data for the benchmark's generators and correctness gates.

Deliberately independent of the package under test: the gates re-derive
what they check from these formulas, so a wrong answer cannot pass by
agreeing with itself.  Node numbering and root normalisation follow the
package's case-file convention (Bourbaki numbering, long roots of norm 2,
G2 with the short root first, the D4 branch node second).
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from typing import List, Tuple

Coords = Tuple[Q, ...]


def dim(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 2)
    if family in ("B", "C"):
        return rank * (2 * rank + 1)
    if family == "D":
        return rank * (2 * rank - 1)
    if family == "E":
        return {6: 78, 7: 133, 8: 248}[rank]
    return {"F": 52, "G": 14}[family]


def dual_coxeter(family: str, rank: int) -> int:
    if family in ("A", "C"):
        return rank + 1
    if family == "B":
        return 2 * rank - 1
    if family == "D":
        return 2 * rank - 2
    if family == "E":
        return {6: 12, 7: 18, 8: 30}[rank]
    return {"F": 9, "G": 4}[family]


def _gram(family: str, rank: int) -> List[List[Q]]:
    """Simple-root Gram matrix, long roots of norm 2."""
    g = [[Q(0)] * rank for _ in range(rank)]
    if family == "G":
        return [[Q(2, 3), Q(-1)], [Q(-1), Q(2)]]
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"no Gram data for {family}{rank}")
    edges = [(i, i + 1) for i in range(rank - 1)]
    if family == "D":
        edges = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    for i in range(rank):
        g[i][i] = Q(2)
    for i, j in edges:
        g[i][j] = g[j][i] = Q(-1)
    if family == "B":
        g[rank - 1][rank - 1] = Q(1)
        g[rank - 2][rank - 1] = g[rank - 1][rank - 2] = Q(-1)
    if family == "C":
        for i in range(rank - 1):
            g[i][i] = Q(1)
            if i + 1 < rank - 1:
                g[i][i + 1] = g[i + 1][i] = Q(-1, 2)
        g[rank - 2][rank - 1] = g[rank - 1][rank - 2] = Q(-1)
    return g


def _marks(family: str, rank: int) -> List[int]:
    """Highest root in simple-root coordinates."""
    if family == "A":
        return [1] * rank
    if family == "B":
        return [1] + [2] * (rank - 1)
    if family == "C":
        return [2] * (rank - 1) + [1]
    if family == "D":
        return [1] + [2] * (rank - 3) + [1, 1]
    if family == "G":
        return [3, 2]
    raise ValueError(f"no marks for {family}{rank}")


def _inverse(m: List[List[Q]]) -> List[List[Q]]:
    n = len(m)
    a = [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


class Ideal:
    """A simple ideal X_rank at a positive integer level."""

    def __init__(self, family: str, rank: int, level: int):
        self.family, self.rank, self.level = family, rank, level
        g = _gram(family, rank)
        cartan = [[2 * g[i][j] / g[j][j] for j in range(rank)] for i in range(rank)]
        inv = _inverse(cartan)
        # (w_i|w_j) = (C^-1)_ij (a_j|a_j)/2
        self.fw_gram = [[inv[i][j] * g[j][j] / 2 for j in range(rank)] for i in range(rank)]
        self.comarks = [m * g[i][i] / 2 for i, m in enumerate(_marks(family, rank))]
        self.h_dual = dual_coxeter(family, rank)

    @property
    def token(self) -> str:
        return f"{self.family}{self.rank},{self.level}"

    def ip(self, x: Coords, y: Coords) -> Q:
        n = self.rank
        return sum((x[i] * self.fw_gram[i][j] * y[j] for i in range(n) for j in range(n)), Q(0))

    def theta_pairing(self, x: Coords) -> Q:
        """(x|theta) for x in fundamental-weight coordinates."""
        return sum((c * a for c, a in zip(x, self.comarks)), Q(0))

    def admissible(self, lam: Coords) -> bool:
        return all(c >= 0 and Q(c).denominator == 1 for c in lam) and (
            self.theta_pairing(lam) <= self.level
        )

    def table_size(self) -> int:
        return len(level_weights(self.family, self.rank, self.level))

    def conformal_weight(self, lam: Coords) -> Q:
        lam_2rho = tuple(c + 2 for c in lam)
        return self.ip(lam, lam_2rho) / (2 * (self.level + self.h_dual))

    def dual(self, lam: Coords) -> Coords:
        """-w0(lam): the highest weight of the dual module."""
        if self.family == "A":
            return tuple(reversed(lam))
        if self.family == "D" and self.rank % 2:
            return tuple(lam[:-2]) + (lam[-1], lam[-2])
        return tuple(lam)

    def min_pairing(self, h: Coords, lam: Coords, sign: int) -> Q:
        """min of (sign*h|mu) over the weights mu of L(lam), for dominant h.

        For dominant h the minimum sits at the lowest weight w0(lam), and for
        -h at the highest weight lam.
        """
        if sign > 0:
            return -self.ip(h, self.dual(lam))
        return -self.ip(h, lam)


@lru_cache(maxsize=None)
def level_weights(family: str, rank: int, level: int) -> Tuple[Coords, ...]:
    ideal = Ideal(family, rank, level)
    return tuple(
        tuple(Q(c) for c in lam)
        for lam in product(range(level + 1), repeat=rank)
        if ideal.theta_pairing(tuple(Q(c) for c in lam)) <= level
    )


def parse_token(tok: str) -> Tuple[str, int, Q]:
    """'A11,1' -> ('A', 11, 1); levels may be rational strings."""
    ty, lev = tok.split(",")
    return ty[0], int(ty[1:]), Q(lev)


def parse_type(s: str) -> Tuple[List[Tuple[str, int, Q]], int]:
    """A type string such as 'A2,3 A2,3 U(1)^2 D4,3' -> (sorted ideals, abelian rank)."""
    ideals, abelian = [], 0
    for tok in s.split():
        if tok.startswith("U(1)"):
            abelian += int(tok[5:]) if "^" in tok else 1
        else:
            ideals.append(parse_token(tok))
    return sorted(ideals), abelian
