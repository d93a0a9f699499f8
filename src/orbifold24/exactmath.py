"""Exact numeric substrate: one integer elimination core.

Matrices are lists of integer rows acting on row vectors.  `mat_mul` walks
only the nonzero entries of both factors: the rows of b become (column,
entry) lists once per product, and each row of a pairs its nonzero entries
with them, so the lattice matrices, mostly zeros, cost their nonzero
products.  Every rank, inverse, unimodularity test and integer kernel in
the package comes from one reduction, the row Hermite normal form of an
integer matrix: `hnf_with_transform` carries the unimodular transform
along, for the inverse and the kernel, and `hnf` reduces the rows alone,
for the rank, a lattice basis and a unimodularity test.  A rational matrix
has one form, integer rows over a common denominator, so an inverse is
`integer_inverse`'s Y / d.  The package has no floating-point step.
"""

from __future__ import annotations

from math import gcd, prod
from typing import List, Sequence, Tuple

Matrix = Sequence[Sequence[int]]


class InvariantError(Exception):
    """An exact invariant of a computed result does not hold."""


def identity(n: int) -> List[List[int]]:
    return [[1 if j == i else 0 for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> List[List]:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> List[List[int]]:
    """Matrix product over the nonzero entries of both factors; ValueError
    when the shapes do not match."""
    m = len(b[0])
    if any(len(row) != m for row in b):
        raise ValueError("ragged right factor")
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for ai in a:
        row = [0] * m
        for v, bt in zip(ai, nonzero, strict=True):
            if v:
                for j, x in bt:
                    row[j] += v * x
        out.append(row)
    return out


def hnf_with_transform(
    m: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]]]:
    """Row Hermite normal form H = U m with U unimodular.

    H is in row echelon form with its zero rows last; each pivot is
    positive, and every entry above a pivot lies in [0, pivot).  Each row
    of m is reduced together with its row of U, appended to its right.
    """
    cols = len(m[0]) if m else 0
    a = _hnf([list(row) + e for row, e in zip(m, identity(len(m)))], cols)
    return [row[:cols] for row in a], [row[cols:] for row in a]


def _hnf(a: List[List[int]], cols: int) -> List[List[int]]:
    """The rows a, reduced in place to Hermite normal form on their first
    cols entries; any entries past those ride along in each row operation."""
    rows = len(a)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        while True:
            nz = [i for i in range(r, rows) if a[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[piv] = a[piv], a[r]
            pr = a[r]
            p = pr[c]
            reduced = True
            for i in range(r + 1, rows):
                x = a[i][c]
                if x:
                    q = x // p
                    a[i] = [s - q * t for s, t in zip(a[i], pr)]
                    if x - q * p:
                        reduced = False
            if reduced:
                break
        pr = a[r]
        if pr[c]:
            if pr[c] < 0:
                a[r] = pr = [-x for x in pr]
            for i in range(r):
                q = a[i][c] // pr[c]
                if q:
                    a[i] = [s - q * t for s, t in zip(a[i], pr)]
            r += 1
    return a


def integer_row_kernel(m: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of {x integral : x m = 0}; saturated by construction."""
    h, u = hnf_with_transform(m)
    return [u[i] for i in range(len(m)) if not any(h[i])]


def hnf(m: Matrix) -> List[List[int]]:
    """The row Hermite normal form H of `hnf_with_transform`, without U."""
    rows = [list(row) for row in m]
    return _hnf(rows, len(rows[0]) if rows else 0)


def rank(m: Matrix) -> int:
    """Rank over Q of integer rows: the nonzero rows of the Hermite normal
    form."""
    return sum(1 for row in hnf(m) if any(row))


def integer_inverse(m: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """m^-1 = Y / d for a square integer matrix m, with Y integral and d > 0
    the least common denominator; ValueError when m is singular.  With
    U m = H the Hermite normal form, m^-1 = H^-1 U; D H^-1 U is integral for
    D the product of H's diagonal, so back-substitution up H divides
    exactly, and Y / d is that over D, reduced by their gcd."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    h, u = hnf_with_transform(m)
    if any(h[i][i] == 0 for i in range(n)):
        raise ValueError("matrix is singular")
    d = prod(h[i][i] for i in range(n))
    y: List[List[int]] = [[]] * n
    for i in reversed(range(n)):
        acc = [d * x for x in u[i]]
        for j in range(i + 1, n):
            if h[i][j]:
                acc = [a - h[i][j] * b for a, b in zip(acc, y[j])]
        y[i] = [a // h[i][i] for a in acc]
    g = gcd(d, *(x for row in y for x in row))
    return [[x // g for x in row] for row in y], d // g
