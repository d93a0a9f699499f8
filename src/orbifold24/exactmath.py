"""Exact numeric substrate: Q(w) scalars, one exact elimination core, and
the float eigen fallback.

Exact scalars are either `fractions.Fraction` or `Cyclo3` elements a + b*w,
where w is a fixed primitive cube root of unity (w**2 = -1 - w).  Matrices
are dense lists of rational rows.  Every rank, kernel, inverse and
determinant in the package comes from `_echelon`, a fraction-free
Gauss-Jordan elimination on integer rows.  The only floating-point entry
point is `float_eigen`, whose output is always re-verified exactly
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, Q, "Cyclo3"]


def _as_q(x: Union[int, Q]) -> Q:
    return x if isinstance(x, Q) else Q(x)


@dataclass(frozen=True)
class Cyclo3:
    """Element a + b*w of Q(w), w a primitive cube root of unity."""

    a: Q
    b: Q

    @staticmethod
    def of(x: Scalar) -> "Cyclo3":
        if isinstance(x, Cyclo3):
            return x
        return Cyclo3(_as_q(x), Q(0))

    @staticmethod
    def omega() -> "Cyclo3":
        return Cyclo3(Q(0), Q(1))

    def __add__(self, other: Scalar) -> "Cyclo3":
        o = Cyclo3.of(other)
        return Cyclo3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "Cyclo3":
        return Cyclo3(-self.a, -self.b)

    def __sub__(self, other: Scalar) -> "Cyclo3":
        return self + (-Cyclo3.of(other))

    def __rsub__(self, other: Scalar) -> "Cyclo3":
        return Cyclo3.of(other) + (-self)

    def __mul__(self, other: Scalar) -> "Cyclo3":
        o = Cyclo3.of(other)
        # (a + bw)(c + dw) with w^2 = -1 - w
        return Cyclo3(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a - self.b * o.b,
        )

    __rmul__ = __mul__

    def conj(self) -> "Cyclo3":
        """Galois conjugate w -> w^2 = -1 - w."""
        return Cyclo3(self.a - self.b, -self.b)

    def norm(self) -> Q:
        """Field norm a^2 - a*b + b^2; zero only at zero."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Cyclo3":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        c = self.conj()
        return Cyclo3(c.a / n, c.b / n)

    def __truediv__(self, other: Scalar) -> "Cyclo3":
        return self * Cyclo3.of(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "Cyclo3":
        return Cyclo3.of(other) * self.inverse()

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Q, Cyclo3)):
            o = Cyclo3.of(other)
            return self.a == o.a and self.b == o.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}w"


OMEGA = Cyclo3.omega()

Matrix = Sequence[Sequence[Union[int, Q]]]


class InvariantError(Exception):
    """An exact invariant of a computed result does not hold."""


def _echelon(
    m: Matrix, with_det: bool = False
) -> Tuple[List[List[int]], List[int], Optional[Q]]:
    """Fraction-free reduced row echelon form of a rational matrix.

    Each row is cleared of denominators, then every pivot column is
    eliminated above and below the pivot with integer row operations, and
    each rewritten row is divided by the gcd of its entries.  Row t of the
    result is a nonzero multiple of row t of the reduced row echelon form,
    whose entries are therefore red[t][j] / red[t][pivots[t]].  With
    with_det, the third value is the factor f with det(m) = f * prod of the
    pivots (a square matrix of full rank); otherwise it is None.
    """
    red: List[List[int]] = []
    num, den = 1, 1
    for row in m:
        d = lcm(*[x.denominator for x in row])
        red.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    rows, cols = len(red), len(red[0]) if red else 0
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, rows) if red[i][c]), None)
        if p is None:
            continue
        if p != r:
            red[r], red[p] = red[p], red[r]
            num = -num
        pr = red[r]
        pv = pr[c]
        for i in range(rows):
            f = red[i][c]
            if f and i != r:
                new = [pv * x - f * y for x, y in zip(red[i], pr)]
                g = gcd(*new)
                red[i] = [x // g for x in new] if g > 1 else new
                if with_det:
                    # det(new rows) = det(old rows) * pv / g
                    num, den = num * g, den * pv
        pivots.append(c)
        if len(pivots) == rows:
            break
    return red, pivots, (Q(num, den) if with_det else None)


def rank(m: Matrix) -> int:
    """Rank over Q; the nullity of an n-row matrix is n - rank."""
    return len(_echelon(m)[1])


def kernel(m: Matrix) -> List[List[Q]]:
    """Basis of {x : x m = 0} for a matrix acting on row vectors.

    The basis is the reduced one: x is 1 at its free coordinate, 0 at the
    other free coordinates, and -rref[t][free] at pivot coordinate t.
    """
    return [[Q(x, den) for x in row] for row, den in integer_kernel(m)]


def integer_kernel(m: Matrix) -> List[Tuple[List[int], int]]:
    """The reduced kernel basis of `kernel` as (row, den) pairs.

    Each basis vector is row / den, with row a primitive integer vector:
    den is the least common denominator of the vector, and also the entry of
    row at its free coordinate.
    """
    n = len(m)
    red, pivots, _ = _echelon([list(col) for col in zip(*m)])
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        den = lcm(
            *(red[t][c] // gcd(red[t][c], red[t][f]) for t, c in enumerate(pivots))
        )
        v = [0] * n
        v[f] = den
        for t, c in enumerate(pivots):
            v[c] = -red[t][f] * den // red[t][c]
        basis.append((v, den))
    return basis


def inverse(m: Matrix) -> List[List[Q]]:
    """Exact inverse of a square matrix; ValueError when it is singular."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, pivots, _ = _echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Q(x, red[t][t]) for x in red[t][n:]] for t in range(n)]


def det(m: Matrix) -> Q:
    """Exact determinant of a square matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of non-square matrix")
    red, pivots, factor = _echelon(m, with_det=True)
    if len(pivots) < n:
        return Q(0)
    for t in range(n):
        factor *= red[t][t]
    return factor


class ResidualExceeded(Exception):
    """float_eigen verification failed: input ill-conditioned or defective."""


def float_eigen(
    a: Matrix, tol: Q = Q(1, 10**9)
) -> List[Tuple[complex, np.ndarray]]:
    """Approximate eigenpairs of a square rational matrix given as rows.

    Eigenvalues are clustered with gap threshold tol and every eigenvector is
    residual-checked against the exact matrix (evaluated in floats); callers
    must re-verify any integer or rational they round from the output.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("eigen-decomposition of non-square matrix")
    mat = np.array([[complex(x) for x in row] for row in a], dtype=complex)
    tol_f = float(tol)
    vals, vecs = np.linalg.eig(mat)
    # a defective matrix yields a (nearly) singular eigenvector basis
    if np.linalg.cond(vecs) > 1.0 / tol_f:
        raise ResidualExceeded("eigenvector basis is numerically singular")
    pairs = []
    for k in range(n):
        v = vecs[:, k]
        lam = vals[k]
        resid = np.linalg.norm(mat @ v - lam * v)
        if resid >= tol_f * max(np.linalg.norm(v), 1e-300):
            raise ResidualExceeded(f"residual exceeded: {resid}")
        pairs.append((lam, v))
    # cluster eigenvalues closer than tol to a common representative
    reps: List[complex] = []
    clustered = []
    for lam, v in pairs:
        rep = next((r for r in reps if abs(r - lam) < tol_f), None)
        if rep is None:
            reps.append(lam)
            rep = lam
        clustered.append((rep, v))
    return clustered

