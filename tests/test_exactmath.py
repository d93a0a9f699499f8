import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from orbifold24.exactmath import (
    Cyclo3,
    OMEGA,
    ResidualExceeded,
    det,
    float_eigen,
    integer_kernel,
    inverse,
    kernel,
    rank,
)


def rand_q(rng):
    return Q(rng.randint(-8, 8), rng.randint(1, 6))


def rand_c(rng):
    return Cyclo3(rand_q(rng), rand_q(rng))


def test_omega_relations():
    assert OMEGA * OMEGA == -1 - OMEGA
    assert OMEGA * OMEGA * OMEGA == 1
    assert OMEGA.conj() == OMEGA * OMEGA


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = rand_c(rng), rand_c(rng), rand_c(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1


def test_conjugation_is_field_automorphism():
    rng = random.Random(5)
    for _ in range(100):
        a, b = rand_c(rng), rand_c(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def rand_matrix(rng, rows, cols, rank_cap=None):
    """Random rational matrix; rank_cap < min(rows, cols) forces deficiency."""
    if rank_cap is None:
        return [[rand_q(rng) for _ in range(cols)] for _ in range(rows)]
    left = [[rand_q(rng) for _ in range(rank_cap)] for _ in range(rows)]
    right = [[rand_q(rng) for _ in range(cols)] for _ in range(rank_cap)]
    return [
        [sum((l[t] * right[t][j] for t in range(rank_cap)), Q(0))
         for j in range(cols)]
        for l in left
    ]


def matmul(a, b):
    return [
        [sum((row[t] * b[t][j] for t in range(len(b))), Q(0))
         for j in range(len(b[0]))]
        for row in a
    ]


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def reference_rref(m):
    """Fraction Gauss-Jordan: (RREF, pivot columns, determinant if square).

    This is the elimination the package ran before the fraction-free core,
    kept as the oracle the core is compared against.
    """
    red = [[Q(x) for x in row] for row in m]
    rows, cols = len(red), len(red[0]) if red else 0
    pivots = []
    det = Q(1)
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if red[i][c]), None)
        if p is None:
            continue
        if p != r:
            red[r], red[p] = red[p], red[r]
            det = -det
        det *= red[r][c]
        inv = 1 / red[r][c]
        red[r] = [x * inv for x in red[r]]
        for i in range(rows):
            if i != r and red[i][c]:
                f = red[i][c]
                red[i] = [x - f * y for x, y in zip(red[i], red[r])]
        pivots.append(c)
        r += 1
    if rows != cols:
        return red, pivots, None
    return red, pivots, det if len(pivots) == rows else Q(0)


def reference_kernel(m):
    rows = len(m)
    mt = [[m[i][j] for i in range(rows)] for j in range(len(m[0]) if m else 0)]
    red, pivots, _ = reference_rref(mt)
    basis = []
    for f in range(rows):
        if f not in pivots:
            v = [Q(0)] * rows
            v[f] = Q(1)
            for t, c in enumerate(pivots):
                v[c] = -red[t][f]
            basis.append(v)
    return basis


def reference_inverse(m):
    n = len(m)
    aug = [list(row) + identity(n)[i] for i, row in enumerate(m)]
    red, pivots, _ = reference_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def oracle_cases():
    rng = random.Random(2024)
    cases = [[[Q(0)] * 4 for _ in range(3)], [[Q(0)]], identity(5), [[0, 1], [1, 0]]]
    for _ in range(40):
        # mostly-zero matrices make the elimination swap rows
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append([[rand_q(rng) if rng.random() < 0.3 else Q(0)
                       for _ in range(cols)] for _ in range(rows)])
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        cap = rng.choice([None, None, rng.randint(0, min(rows, cols))])
        cases.append(rand_matrix(rng, rows, cols, cap))
    for n in range(1, 7):
        cases.append(rand_matrix(rng, n, n))
        cases.append(rand_matrix(rng, n, n, n - 1))
    return cases


def test_oracle_kernel_basis_entry_for_entry():
    for m in oracle_cases():
        got = kernel(m)
        assert got == reference_kernel(m)
        assert all(isinstance(x, Q) for v in got for x in v)
        # the same basis as primitive integer rows over their denominators
        scaled = integer_kernel(m)
        assert [[Q(x, den) for x in row] for row, den in scaled] == got
        for (row, den), v in zip(scaled, got):
            assert all(type(x) is int for x in row) and gcd(*row) == 1
            assert den == lcm(*(x.denominator for x in v)) == row[v.index(1)]


def test_oracle_rank():
    for m in oracle_cases():
        assert rank(m) == len(reference_rref(m)[1])


def test_oracle_inverse_and_det():
    singular = 0
    for m in oracle_cases():
        if len(m) != len(m[0]):
            continue
        assert det(m) == reference_rref(m)[2]
        want = reference_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(ValueError):
                inverse(m)
        else:
            assert inverse(m) == want
    assert singular >= 6


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_core_accepts_int_and_fraction_rows():
    m = [[2, Q(1, 3)], [Q(-1, 2), 4]]
    assert det(m) == Q(49, 6)
    assert matmul(m, inverse(m)) == identity(2)
    assert rank([(1, 0, 1), (0, 1, 1), (1, 1, 2)]) == 2
    assert rank([]) == 0


def solve(a, b):
    """Some x with a x = b, or None, from the kernel of the system [a | -b]."""
    m = [list(col) for col in zip(*a)] + [[-v for v in b]]
    for y in kernel(m):
        if y[-1]:
            return [v / y[-1] for v in y[:-1]]
    return None


def apply(a, x):
    return [sum((r * v for r, v in zip(row, x)), Q(0)) for row in a]


def test_solve_identity():
    a = identity(4)
    b = [Q(3), Q(-1, 2), Q(0), Q(7)]
    assert solve(a, b) == b
    assert kernel(a) == []


def test_solve_degenerate_symmetric():
    a = [[1, 1], [1, 1]]
    x = solve(a, [1, 1])
    assert x is not None
    assert apply(a, x) == [1, 1]
    ker = kernel(a)
    assert len(ker) == 1
    # kernel spanned by (1, -1)
    v = ker[0]
    assert v[0] == -v[1] and v[0]


def test_solve_inconsistent():
    assert solve([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_random_invertible_verifies_back():
    rng = random.Random(23)
    n = 10
    while True:
        a = rand_matrix(rng, n, n)
        if det(a):
            break
    b = [rand_q(rng) for _ in range(n)]
    x = solve(a, b)
    assert kernel(a) == []
    assert apply(a, x) == b


def test_kernel_trivial_cases():
    assert len(kernel([[0] * 3 for _ in range(3)])) == 3
    assert kernel(identity(5)) == []


def test_kernel_of_three_cycle():
    # permutation matrix of a 3-cycle minus the identity: fixed space is
    # spanned by the all-ones vector
    p = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    m = [[p[i][j] - int(i == j) for j in range(3)] for i in range(3)]
    ker = kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == v[1] == v[2] != 0
    assert matmul(ker, m) == [[0, 0, 0]]


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, rows, cols, rng.choice([None, 1]))
        # kernel() acts on row vectors: its vectors have one entry per row
        assert rank(a) + len(kernel(a)) == rows
        assert matmul(kernel(a), a) == [[0] * cols for _ in kernel(a)]


def test_float_eigen_diagonal():
    a = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    vals = sorted({round(lam.real) for lam, _ in float_eigen(a)})
    assert vals == [1, 2, 3]


def test_float_eigen_order3_rotation():
    # integral order-3 rotation: eigenvalues are the primitive cube roots
    a = [[0, -1], [1, -1]]
    got = sorted(
        (round(lam.real, 6), round(lam.imag, 6)) for lam, _ in float_eigen(a)
    )
    w = complex(-0.5, 3.0 ** 0.5 / 2.0)
    want = sorted(
        (round(z.real, 6), round(z.imag, 6)) for z in (w, w.conjugate())
    )
    assert got == want


def test_float_eigen_ad_on_sl3():
    # ad(h) on the 8-dim algebra of the A2 root lattice: six nonzero
    # eigenvalues come in pairs +-(alpha|h) read off from root pairings
    from orbifold24.latticevoa import root_lattice, weight_one_algebra
    from orbifold24.rootdata import SimpleType

    lat = root_lattice(SimpleType("A", 2))
    alg = weight_one_algebra(lat)
    h = (3, 1)
    mat = [[Q(0)] * alg.dim for _ in range(alg.dim)]
    for j in range(alg.dim):
        img = alg.bracket(alg.cartan_element(h), {j: Q(1)})
        for i, c in img.items():
            mat[j][i] = c
    expected = sorted(
        float(alg.ip_coords(h, rc)) for rc in alg.root_coords
    ) + [0.0, 0.0]
    got = sorted(lam.real for lam, _ in float_eigen(mat))
    assert all(abs(a - b) < 1e-8 for a, b in zip(got, sorted(expected)))


def test_float_eigen_rejects_defective():
    a = [[1, 1], [0, 1]]  # Jordan block
    with pytest.raises(ResidualExceeded):
        float_eigen(a, Q(1, 10**9))


def test_matrix_inverse_roundtrip():
    rng = random.Random(7)
    for n in range(1, 8):
        a = rand_matrix(rng, n, n)
        if not det(a):
            continue
        assert matmul(a, inverse(a)) == identity(n)
        assert matmul(inverse(a), a) == identity(n)
