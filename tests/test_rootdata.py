import random
from fractions import Fraction as Q
from math import lcm
from types import SimpleNamespace

import pytest

from helpers import (
    ORACLE_TYPES,
    brute_force_min,
    fraction_fw_gram,
    fraction_ip,
    nondominant_direction,
    rational_direction,
    simple_root_coords,
)
from orbifold24.exactmath import InvariantError
from orbifold24.rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    Weight,
    automorphism_order,
    build_root_system,
    classify_simple_system,
    dominant_conjugate,
    dual_coxeter,
    inner_product,
    kac_fixed_subalgebra,
    lowest_weight,
    min_pairing,
    weight_system,
    weyl_dim,
)

ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 5): 30,
    ("D", 4): 24,
    ("E", 6): 72,
    ("G", 2): 12,
}


@pytest.mark.parametrize("fam,rank", sorted(ROOT_COUNTS))
def test_root_counts(fam, rank):
    rs = build_root_system(SimpleType(fam, rank))
    assert len(rs.roots) == ROOT_COUNTS[(fam, rank)]


@pytest.mark.parametrize("fam,rank", sorted(ROOT_COUNTS))
def test_roots_closed_under_negation_and_reflection(fam, rank):
    rs = build_root_system(SimpleType(fam, rank))
    roots = set(rs.roots)
    for r in rs.roots:
        assert tuple(-c for c in r) in roots
        for j in range(rs.rank):
            refl = tuple(
                r[k] - r[j] * rs.simple_roots[j][k] for k in range(rs.rank)
            )
            assert refl in roots


def test_g2_norms():
    rs = build_root_system(SimpleType("G", 2))
    norms = sorted(rs.norm_of(r) for r in rs.roots)
    assert norms[:6] == [Q(2, 3)] * 6 and norms[6:] == [Q(2)] * 6


def test_inner_products():
    g2 = build_root_system(SimpleType("G", 2))
    assert inner_product(g2.fundamental_weight(0), g2.fundamental_weight(0)) == Q(2, 3)
    a5 = build_root_system(SimpleType("A", 5))
    assert inner_product(a5.fundamental_weight(2), a5.fundamental_weight(2)) == Q(3, 2)


@pytest.mark.parametrize("fam,rank", sorted(ROOT_COUNTS))
def test_weight_root_duality(fam, rank):
    rs = build_root_system(SimpleType(fam, rank))
    for i in range(rs.rank):
        for j in range(rs.rank):
            lhs = rs.ip(rs.fundamental_weight(i).coords, rs.simple_roots[j])
            want = rs.gram[j][j] / 2 if i == j else Q(0)
            assert lhs == want


FORM_TYPES = ["A1", "A2", "A5", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]


def test_form_scales_cover_one_to_six():
    scales = {build_root_system(SimpleType.parse(t)).scale for t in FORM_TYPES}
    assert scales == {1, 2, 3, 4, 6}


@pytest.mark.parametrize("name", FORM_TYPES)
def test_integer_form_matches_fraction_gram(name):
    rs = build_root_system(SimpleType.parse(name))
    gram = fraction_fw_gram(rs)
    assert rs.scale == lcm(*(x.denominator for row in gram for x in row))
    assert rs.form == [[x * rs.scale for x in row] for row in gram]
    for v in rs.roots + rs.simple_roots + [rs.theta, rs.rho]:
        assert all(type(c) is int for c in v)
    assert rs.marks[0] == 1 and rs.norm_of(rs.theta) == 2
    assert rs.theta == tuple(
        sum(m * a[k] for m, a in zip(rs.marks[1:], rs.simple_roots))
        for k in range(rs.rank)
    )


@pytest.mark.parametrize("name", FORM_TYPES)
def test_ip_matches_fraction_oracle_on_roots(name):
    rs = build_root_system(SimpleType.parse(name))
    gram = fraction_fw_gram(rs)
    if rs.rank <= 6:
        pairs = [(a, b) for a in rs.roots for b in rs.roots]
    else:
        rng = random.Random(name)
        pairs = [(rng.choice(rs.roots), rng.choice(rs.roots)) for _ in range(2000)]
    for a, b in pairs:
        got = rs.ip(a, b)
        assert isinstance(got, Q) and got == fraction_ip(gram, a, b)


@pytest.mark.parametrize("name", FORM_TYPES)
def test_ip_matches_fraction_oracle_on_rational_weights(name):
    rs = build_root_system(SimpleType.parse(name))
    gram = fraction_fw_gram(rs)
    rng = random.Random(name)

    def rational_weight():
        return [Q(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rs.rank)]

    for _ in range(50):
        x, y = rational_weight(), rational_weight()
        assert rs.ip(x, y) == fraction_ip(gram, x, y)


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "D4", "G2"])
def test_min_pairing_matches_fraction_oracle(name):
    rs = build_root_system(SimpleType.parse(name))
    gram = fraction_fw_gram(rs)
    rng = random.Random(name)
    for _ in range(6):
        lam = rs.weight([rng.randint(0, 1) for _ in range(rs.rank)])
        x = rs.weight(
            [Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rs.rank)]
        )
        ws = weight_system(lam)
        want = min(fraction_ip(gram, x.coords, mu) for mu in ws.weights())
        assert min_pairing(x, lam) == want


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_weyl_dim_matches_freudenthal_on_fundamental_weights(name):
    rs = build_root_system(SimpleType.parse(name))
    for i in range(rs.rank):
        lam = rs.fundamental_weight(i)
        assert weyl_dim(lam) == weight_system(lam).total_multiplicity()


def test_dual_coxeter_values():
    assert dual_coxeter(SimpleType("E", 6)) == 12
    assert dual_coxeter(SimpleType("D", 4)) == 6
    assert dual_coxeter(SimpleType("G", 2)) == 4


def test_dual_coxeter_matches_closed_form():
    for t in [
        SimpleType("A", 7),
        SimpleType("B", 4),
        SimpleType("C", 5),
        SimpleType("D", 6),
        SimpleType("E", 7),
        SimpleType("F", 4),
        SimpleType("G", 2),
    ]:
        assert dual_coxeter(t) == t.dual_coxeter_number()
        rs = build_root_system(t)
        assert len(rs.roots) + t.rank == t.dim()


def test_weight_system_defining_a2():
    a2 = build_root_system(SimpleType("A", 2))
    ws = weight_system(a2.fundamental_weight(0))
    assert len(ws.entries) == 3
    assert all(m == 1 for _, m in ws.entries)


def test_weight_system_g2_seven():
    g2 = build_root_system(SimpleType("G", 2))
    ws = weight_system(g2.fundamental_weight(0))
    assert ws.total_multiplicity() == 7 == weyl_dim(g2.fundamental_weight(0))
    zero = tuple([Q(0)] * 2)
    assert dict(ws.entries)[zero] == 1


def test_weight_system_a5_twenty():
    a5 = build_root_system(SimpleType("A", 5))
    ws = weight_system(a5.fundamental_weight(2))
    assert len(ws.entries) == 20
    assert all(m == 1 for _, m in ws.entries)


def test_weyl_dim_adjoints():
    for fam, rank in sorted(ROOT_COUNTS):
        rs = build_root_system(SimpleType(fam, rank))
        assert weyl_dim(rs.weight(rs.theta)) == rs.type.dim()
    assert weyl_dim(build_root_system(SimpleType("A", 2)).zero()) == 1


def test_total_multiplicity_matches_weyl_dim():
    rng = random.Random(9)
    for t in [SimpleType("A", 2), SimpleType("G", 2), SimpleType("D", 4), SimpleType("A", 5)]:
        rs = build_root_system(t)
        for _ in range(4):
            lam = rs.weight([rng.randint(0, 2) for _ in range(t.rank)])
            if weyl_dim(lam) > 10**4:
                continue
            assert weight_system(lam).total_multiplicity() == weyl_dim(lam)


def test_lowest_weights():
    a2 = build_root_system(SimpleType("A", 2))
    assert lowest_weight(a2.fundamental_weight(0)).coords == (Q(0), Q(-1))
    a5 = build_root_system(SimpleType("A", 5))
    l3 = a5.fundamental_weight(2)
    assert lowest_weight(l3).coords == tuple(-c for c in l3.coords)
    assert lowest_weight(a2.zero()).coords == (Q(0), Q(0))


def test_lowest_weight_in_system_and_below():
    rng = random.Random(4)
    for t in [SimpleType("A", 2), SimpleType("G", 2), SimpleType("D", 4)]:
        rs = build_root_system(t)
        for _ in range(3):
            lam = rs.weight([rng.randint(0, 2) for _ in range(t.rank)])
            low = lowest_weight(lam)
            assert low.coords in weight_system(lam).weights()
            # lam - low is a non-negative integer root combination
            diff = [a - b for a, b in zip(lam.coords, low.coords)]
            sol = simple_root_coords(rs, diff)
            assert all(s.denominator == 1 and s >= 0 for s in sol)


def test_lin_min_examples():
    g2 = build_root_system(SimpleType("G", 2))
    assert min_pairing(g2.fundamental_weight(0), g2.fundamental_weight(0)) == Q(-2, 3)
    a2 = build_root_system(SimpleType("A", 2))
    assert min_pairing(a2.fundamental_weight(0), a2.weight([1, 2])) == Q(-5, 3)
    a5 = build_root_system(SimpleType("A", 5))
    big = a5.fundamental_weight(2).scale(Q(2, 3))
    assert min_pairing(big, a5.weight([0, 0, 2, 0, 0])) == Q(-2)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_min_pairing_matches_freudenthal_both_signs(name):
    rs = build_root_system(SimpleType.parse(name))
    rng = random.Random(name)
    n = rs.rank
    small = [rs.zero()] + [
        rs.weight([int(k == i) + int(k == j) for k in range(n)])
        for i in range(n)
        for j in range(i, n + 1)  # j = n: the fundamental weight alone
    ]
    small = [lam for lam in small if weyl_dim(lam) <= 10**3]
    for lam in rng.sample(small, min(4, len(small))):
        for _ in range(2):
            h = nondominant_direction(rs, rng)
            for x in (h, h.scale(-1)):
                assert min_pairing(x, lam) == brute_force_min(x, lam)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_dominant_conjugate_properties(name):
    rs = build_root_system(SimpleType.parse(name))
    rng = random.Random(name)
    for k in range(10):
        if k % 2:
            h = rational_direction(rs, rng)
        else:
            h = rs.weight([rng.randint(-4, 4) for _ in range(rs.rank)])
        top = dominant_conjugate(h)
        assert top.is_dominant()
        assert rs.norm_of(top.coords) == rs.norm_of(h.coords)
        # den * (h+ - h) is a non-negative integer combination of simple
        # roots, den * h being integral; den = 1 for a weight-lattice h
        den = lcm(*(c.denominator for c in h.coords))
        diff = [a - b for a, b in zip(top.coords, h.coords)]
        coeffs = simple_root_coords(rs, diff)
        assert all((den * c).denominator == 1 and c >= 0 for c in coeffs)
        assert dominant_conjugate(top).coords == top.coords


def test_dominant_conjugate_stops_at_the_reflection_bound():
    a2 = build_root_system(SimpleType("A", 2))
    # -L1 needs two reflections; a system claiming one positive root allows one
    stub = SimpleNamespace(
        rank=2, simple_roots=a2.simple_roots, positive_roots=a2.positive_roots[:1]
    )
    with pytest.raises(InvariantError):
        dominant_conjugate(Weight((Q(-1), Q(0)), stub))
    assert dominant_conjugate(a2.weight([-1, 0])).coords == (Q(0), Q(1))


def test_kac_e6_trivalent_node():
    s = [0] * 7
    s[4] = 1  # the node with mark 3
    res = kac_fixed_subalgebra(SimpleType("E", 6), s)
    assert str(res) == "A2,1 A2,1 A2,1"
    assert automorphism_order(SimpleType("E", 6), s) == 3


def test_kac_d4_center_node():
    res = kac_fixed_subalgebra(SimpleType("D", 4), [1, 0, 1, 0, 0])
    assert str(res) == "A1,1 A1,1 A1,1 U(1)"


def test_kac_twisted_d4():
    assert str(kac_fixed_subalgebra(SimpleType("D", 4), [1, 0, 0], 3)) == "G2"
    assert str(kac_fixed_subalgebra(SimpleType("D", 4), [0, 0, 1], 3)) == "A2"
    assert automorphism_order(SimpleType("D", 4), [1, 0, 0], 3) == 3


def test_kac_levels_from_long_root_norms():
    # the affine node -theta with the long simple root of G2
    assert str(kac_fixed_subalgebra(SimpleType("G", 2), [0, 1, 0])) == "A2,1"
    # C3 keeps a short A1 (level 2) and a long A1 (level 1)
    res = kac_fixed_subalgebra(SimpleType("C", 3), [1, 0, 1, 0])
    assert str(res) == "A1,1 A1,2 U(1)"


def test_kac_rejects_zero_labels():
    with pytest.raises(ValueError):
        kac_fixed_subalgebra(SimpleType("A", 2), [0, 0, 0])


def test_kac_rank_bookkeeping():
    rng = random.Random(12)
    for t in [SimpleType("A", 3), SimpleType("D", 4), SimpleType("E", 6)]:
        n_nodes = t.rank + 1
        for _ in range(8):
            s = [rng.randint(0, 1) for _ in range(n_nodes)]
            if not any(s):
                continue
            res = kac_fixed_subalgebra(t, s)
            assert res.semisimple_rank() + res.abelian_rank == t.rank


def test_classify_from_gram():
    for t in [SimpleType("A", 4), SimpleType("B", 3), SimpleType("C", 4),
              SimpleType("D", 5), SimpleType("E", 6), SimpleType("F", 4),
              SimpleType("G", 2)]:
        rs = build_root_system(t)
        got = classify_simple_system([list(row) for row in rs.gram])
        assert got == t


def test_type_string_roundtrip():
    s = SemisimpleTypeWithLevels.parse("A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1")
    assert s.dim() == 54
    assert s.total_rank() == 12
    assert SemisimpleTypeWithLevels.parse(str(s)) == s


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        SimpleType("E", 9)
    with pytest.raises(ValueError):
        SimpleType("G", 3)
    with pytest.raises(ValueError):
        SimpleType("D", 2)
