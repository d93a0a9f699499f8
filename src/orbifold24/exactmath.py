"""Exact numeric substrate: one exact elimination core.

Exact scalars are `int` or `fractions.Fraction`, and matrices are dense
lists of rational rows.  Every rank, kernel, inverse and determinant in
the package comes from `_echelon`, a fraction-free Gauss-Jordan
elimination on integer rows.  The package has no floating-point step.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

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
