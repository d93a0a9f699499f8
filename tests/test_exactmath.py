import itertools
import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from orbifold24 import exactmath
from orbifold24.exactmath import (
    hnf, hnf_with_transform, integer_inverse, integer_row_kernel, mat_mul, rank,
    transpose,
)

from helpers import (
    OMEGA, Cyclo3, ResidualExceeded, _echelon, cleared_rows, dense_mat_mul, det,
    float_eigen, integer_kernel, inverse, kernel,
)


def rand_q(rng):
    return Q(rng.randint(-8, 8), rng.randint(1, 6))


def rand_c(rng):
    return Cyclo3(rand_q(rng), rand_q(rng))


# sanity of the exact Q(w) behind the dimension-formula trace oracle


def test_omega_relations():
    assert OMEGA * OMEGA + OMEGA + 1 == 0
    assert OMEGA * OMEGA * OMEGA == 1


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = rand_c(rng), rand_c(rng), rand_c(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


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
    # rank takes integer rows: a rational matrix enters with its rows cleared
    for m in oracle_cases():
        assert rank(cleared_rows(m)[0]) == len(reference_rref(m)[1])


def test_rank_matches_fraction_free_oracle_without_the_transform(monkeypatch):
    # rank reduces the rows alone, never the rows that carry U
    cases = [cleared_rows(m)[0] for m in oracle_cases()] + hnf_cases()
    want = [len(_echelon(m)[1]) for m in cases]

    def no_transform(m):
        raise AssertionError("rank built the unimodular transform")

    monkeypatch.setattr(exactmath, "hnf_with_transform", no_transform)
    assert [rank(m) for m in cases] == want


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


def test_integer_inverse_is_the_oracle_over_its_least_denominator():
    # Y / d is the rational inverse, Y integral and d the least common
    # denominator of its entries, as the lattice callers once cleared it
    singular = 0
    for m in oracle_cases() + hnf_cases():
        if len(m) != len(m[0]) or any(isinstance(x, Q) and x.denominator > 1
                                      for row in m for x in row):
            continue
        m = [[int(x) for x in row] for row in m]
        want = reference_inverse(m)
        if want is None:
            singular += 1
            with pytest.raises(ValueError):
                integer_inverse(m)
            continue
        y, d = integer_inverse(m)
        assert all(type(x) is int for row in y for x in row)
        assert d == lcm(*(Q(x).denominator for row in want for x in row))
        assert [[Q(x, d) for x in row] for row in y] == want
    assert singular >= 3
    with pytest.raises(ValueError, match="non-square"):
        integer_inverse([[1, 2, 3], [4, 5, 6]])


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
        assert rank(cleared_rows(a)[0]) + len(kernel(a)) == rows
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
    from helpers import bracket, ip_coords, root_lattice
    from orbifold24.latticevoa import weight_one_algebra
    from orbifold24.rootdata import SimpleType

    lat = root_lattice(SimpleType("A", 2))
    alg = weight_one_algebra(lat)
    h = (3, 1)
    mat = [[Q(0)] * alg.dim for _ in range(alg.dim)]
    for j in range(alg.dim):
        img = bracket(alg, {i: c for i, c in enumerate(h) if c}, {j: Q(1)})
        for i, c in img.items():
            mat[j][i] = c
    expected = sorted(
        float(ip_coords(alg, h, rc)) for rc in alg.root_coords
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


# the row Hermite normal form, the one elimination behind rank and inverse


def hnf_cases():
    """Seeded integer matrices: square, wide, tall (30 x 24, the shape of
    assemble_niemeier's generators), rank-deficient and zero."""
    rng = random.Random(41)
    cases = [[[0] * 3 for _ in range(2)], [[0, 1], [1, 0]], [[2], [4], [6]]]
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append([[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                       for _ in range(cols)] for _ in range(rows)])
    for _ in range(10):
        rows, cols, cap = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 2)
        left = [[rng.randint(-3, 3) for _ in range(cap)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(cap)]
        cases.append(mat_mul(left, right))
    # den times the unit rows, then glue rows, as in assemble_niemeier
    tall = [[3 * int(i == j) for j in range(24)] for i in range(24)]
    tall += [[rng.choice((0, 0, 1, 2, -1)) for _ in range(24)] for _ in range(6)]
    cases.append(tall)
    return cases


def test_hnf_is_unimodular_transform():
    for m in hnf_cases():
        h, u = hnf_with_transform(m)
        assert h == mat_mul(u, m)
        assert abs(det(u)) == 1
        assert all(type(x) is int for row in h + u for x in row)


def test_hnf_without_transform_is_the_transform_route():
    for m in hnf_cases():
        assert hnf(m) == hnf_with_transform(m)[0]


def product_cases():
    """Seeded (a, b) pairs: sparse integer factors with zero rows and zero
    columns, 1 x n and n x 1 shapes, and Fraction entries."""
    rng = random.Random(37)

    def sparse(rows, cols, entry):
        return [[entry() if rng.random() < 0.4 else 0 for _ in range(cols)]
                for _ in range(rows)]

    def ints():
        return rng.randint(-9, 9)

    def fractions():
        return Q(rng.randint(-9, 9), rng.randint(1, 5))

    cases = []
    for _ in range(60):
        n, k, m = (rng.choice((1, rng.randint(2, 8))) for _ in range(3))
        a, b = sparse(n, k, ints), sparse(k, m, rng.choice((ints, fractions)))
        a[rng.randrange(n)] = [0] * k                  # a zero row of a
        for row in b:                                  # a zero column of b
            row[rng.randrange(m)] = 0
        cases.append((a, b))
    cases.append(([[1, 2, 3]], [[4], [5], [6]]))
    cases.append(([[4], [5], [6]], [[1, 2, 3]]))
    cases.append(([], [[1, 2]]))
    return cases


def test_sparse_product_matches_dense_triple_loop():
    for a, b in product_cases():
        got = mat_mul(a, b)
        assert got == dense_mat_mul(a, b)
        assert [len(row) for row in got] == [len(b[0])] * len(a)


@pytest.mark.parametrize(
    ("a", "b"),
    [
        ([[1, 2, 3]], [[1], [2]]),              # a row longer than b is tall
        ([[1, 2]], [[1], [2], [3]]),            # a row shorter than b is tall
        ([[1, 0, 0]], [[1, 2], [3], [4, 5]]),   # a ragged right factor
    ],
    ids=["long-row", "short-row", "ragged"],
)
def test_product_shape_mismatch_raises(a, b):
    with pytest.raises(ValueError):
        mat_mul(a, b)


def test_hnf_is_echelon_with_reduced_pivots():
    deficient = 0
    for m in hnf_cases():
        h, _ = hnf_with_transform(m)
        pivots = [next((c for c, x in enumerate(row) if x), None) for row in h]
        nonzero = [p for p in pivots if p is not None]
        # zero rows last, pivot columns strictly increasing
        assert pivots[: len(nonzero)] == nonzero
        assert nonzero == sorted(set(nonzero))
        assert len(nonzero) == rank(m) == len(reference_rref(m)[1])
        deficient += len(nonzero) < min(len(m), len(m[0]))
        for t, c in enumerate(nonzero):
            assert h[t][c] > 0
            assert all(0 <= h[i][c] < h[t][c] for i in range(t))
    assert deficient >= 10


def in_integer_span(basis, x):
    """Whether x is an integer combination of the rows of a full-rank basis."""
    if not basis:
        return not any(x)
    g = mat_mul(basis, transpose(basis))
    c = mat_mul(mat_mul([x], transpose(basis)), inverse(g))[0]
    return all(v.denominator == 1 for v in c) and mat_mul([c], basis)[0] == list(x)


def test_integer_row_kernel_spans_and_is_saturated():
    rng = random.Random(5)
    cases = [[[2], [4]], [[3, 0], [0, 3], [3, 3]], [[0, 0], [0, 0]]]
    for _ in range(30):
        rows, cols = rng.randint(2, 4), rng.randint(1, 3)
        cases.append([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
    for m in cases:
        basis = integer_row_kernel(m)
        cols = len(m[0])
        # a basis of the rational kernel: independent, in it, and as many
        assert len(basis) == len(kernel(m)) == rank(basis)
        assert mat_mul(basis, m) == [[0] * cols for _ in basis]
        # saturated: every small integer kernel vector is a Z-combination
        for x in itertools.product(range(-3, 4), repeat=len(m)):
            if all(sum(x[i] * m[i][j] for i in range(len(m))) == 0 for j in range(cols)):
                assert in_integer_span(basis, x), (m, x)
