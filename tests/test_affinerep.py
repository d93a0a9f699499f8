import random
from fractions import Fraction as Q
from math import lcm
from operator import mul

import pytest

from helpers import (
    column_n_min,
    conformal_weight,
    fraction_level_weights,
    fraction_lowest_weight,
    root_filter_fixed_subalgebra,
    root_ip,
    semisimple_rank,
)
from orbifold24.affinerep import (
    AffineAlgebra,
    enumerate_level_weights,
    inner_fixed_subalgebra,
    n_min_column,
    sigma_order_on_category,
)
from orbifold24.cases import BUILTIN_CASES
from orbifold24.rootdata import SimpleType, dominant_conjugate, scaled_coords

E6_3 = AffineAlgebra(SimpleType("E", 6), 3)
G2_1 = AffineAlgebra(SimpleType("G", 2), 1)
A2_3 = AffineAlgebra(SimpleType("A", 2), 3)
A5_3 = AffineAlgebra(SimpleType("A", 5), 3)
D4_3 = AffineAlgebra(SimpleType("D", 4), 3)
A1_1 = AffineAlgebra(SimpleType("A", 1), 1)


def rs(a):
    return a.root_system()


def fw(a, i):
    """The fundamental weight L_i of the algebra, in integer coordinates."""
    return tuple(int(j == i) for j in range(a.type.rank))


def zero(a):
    """The zero twist component of the algebra, as (den, den * h)."""
    return (1, (0,) * a.type.rank)


@pytest.mark.parametrize(
    "alg,count",
    [(G2_1, 2), (A2_3, 10), (A5_3, 56), (D4_3, 24), (A1_1, 2)],
)
def test_table_counts(alg, count):
    assert len(enumerate_level_weights(alg).weights) == count


def test_tables_sorted_and_admissible():
    table = enumerate_level_weights(A2_3)
    weights = list(table.weights)
    assert weights == sorted(weights)
    r = rs(A2_3)
    den, cws = table.cw_column
    for lam, cw in zip(table.weights, cws):
        assert root_ip(r, lam, r.theta) <= 3
        assert Q(cw, den) >= 0


# (type, level) pairs of the twist-probe pool, the chains' algebras, and
# non-simply-laced and exceptional algebras whose form has scale > 1
ORACLE_ALGEBRAS = sorted(
    {
        ("A", 1, 1), ("A", 1, 2), ("A", 1, 3), ("A", 1, 4),
        ("A", 2, 1), ("A", 2, 2), ("A", 2, 3), ("A", 3, 1), ("A", 3, 2),
        ("B", 2, 1), ("B", 2, 2), ("G", 2, 1), ("G", 2, 2),
        ("E", 6, 3), ("A", 5, 3), ("D", 4, 3),
        ("B", 3, 2), ("C", 3, 2), ("F", 4, 1), ("E", 7, 1), ("E", 8, 2),
    }
)


@pytest.mark.parametrize(
    "alg",
    [AffineAlgebra(SimpleType(f, r), k) for f, r, k in ORACLE_ALGEBRAS],
    ids=str,
)
def test_table_rows_match_fraction_formulas(alg):
    r = rs(alg)
    table = enumerate_level_weights(alg)
    assert list(table.weights) == fraction_level_weights(alg)
    den, cws = table.cw_column
    assert len(cws) == len(table.lowest) == len(table.weights)
    for lam, low, cw in zip(table.weights, table.lowest, cws):
        assert all(type(c) is int for c in lam)
        assert conformal_weight(alg, lam) == Q(cw, den)
        assert type(cw) is int
        assert low == fraction_lowest_weight(r, lam)
        assert all(type(c) is int for c in low)
    assert den == lcm(*(conformal_weight(alg, lam).denominator for lam in table.weights))


def test_conformal_weights():
    assert conformal_weight(G2_1, fw(G2_1, 0)) == Q(2, 5)
    assert conformal_weight(A5_3, fw(A5_3, 2)) == Q(7, 12)
    assert conformal_weight(D4_3, fw(D4_3, 1)) == Q(2, 3)
    assert conformal_weight(A1_1, fw(A1_1, 0)) == Q(1, 4)


def test_make_and_replace_validate():
    # NamedTuple's own _make, which _replace calls, skips __new__
    with pytest.raises(ValueError):
        A1_1._replace(level=0)
    with pytest.raises(ValueError):
        AffineAlgebra._make((SimpleType("A", 1), 0))
    assert A1_1._replace(level=2) == AffineAlgebra(SimpleType("A", 1), 2)


def test_conformal_weight_rejects_inadmissible():
    with pytest.raises(ValueError):
        conformal_weight(G2_1, (0, 1))  # (lam|theta) = 2 > 1


def test_n_min_values():
    a2 = rs(A2_3)
    assert column_n_min(a2, (1, fw(A2_3, 0)), (0, 2)) == Q(-4, 3)
    a5 = rs(A5_3)
    big = (3, (0, 0, 2, 0, 0))  # (2/3) L_3
    assert column_n_min(a5, big, (0, 0, 3, 0, 0)) == Q(-3)
    assert column_n_min(a5, big, (0,) * 5) == Q(0)


def test_n_min_nonpositive_property():
    _, pos, _ = n_min_column(A2_3, (1, fw(A2_3, 0)))
    for val in pos:
        assert val <= 0


def case_e6g2():
    h = (zero(E6_3), (1, fw(G2_1, 0)), (1, fw(G2_1, 0)), (1, fw(G2_1, 0)))
    return [E6_3, G2_1, G2_1, G2_1], h


def case_a2x6():
    h = tuple([(1, fw(A2_3, 0))] + [zero(A2_3)] * 5)
    return [A2_3] * 6, h


def case_a5d4():
    h = ((3, (0, 0, 2, 0, 0)), zero(D4_3), zero(A1_1), zero(A1_1), zero(A1_1))
    return [A5_3, D4_3, A1_1, A1_1, A1_1], h


def test_sigma_order_three_for_cases():
    for mk in (case_e6g2, case_a2x6, case_a5d4):
        algebras, h = mk()
        assert sigma_order_on_category(algebras, h) == 3


def test_sigma_order_trivial():
    assert sigma_order_on_category([E6_3], (zero(E6_3),)) == 1


def test_fixed_subalgebra_e6g2():
    algebras, h = case_e6g2()
    res = inner_fixed_subalgebra(algebras, h)
    assert str(res) == "A2,1 A2,1 A2,1 E6,3"
    assert res.dim() == 102


def test_fixed_subalgebra_a2x6():
    algebras, h = case_a2x6()
    res = inner_fixed_subalgebra(algebras, h)
    assert str(res) == "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3"
    assert res.dim() == 48


def test_fixed_subalgebra_a5d4():
    algebras, h = case_a5d4()
    res = inner_fixed_subalgebra(algebras, h)
    assert str(res) == "A1,1 A1,1 A1,1 A2,3 A2,3 D4,3 U(1)"
    assert res.dim() == 54


def test_fixed_subalgebra_preserves_rank():
    for mk in (case_e6g2, case_a2x6, case_a5d4):
        algebras, h = mk()
        res = inner_fixed_subalgebra(algebras, h)
        ambient_rank = sum(a.type.rank for a in algebras)
        assert semisimple_rank(res) + res.abelian_rank == ambient_rank


def test_simply_laced_fixed_levels_match_ambient():
    # every fixed ideal of a simply-laced ambient ideal keeps its level
    for mk in (case_e6g2, case_a2x6, case_a5d4):
        algebras, h = mk()
        for a, hi in zip(algebras, h):
            if a.type.family == "G":
                continue
            res = inner_fixed_subalgebra((a,), (hi,))
            for _, level in res.ideals:
                assert level == a.level


def test_level_rule_inside_g2():
    # the long-root subalgebra of G2 at level 1 is A2 at level 1
    res = inner_fixed_subalgebra((G2_1,), ((1, fw(G2_1, 0)),))
    assert [(str(t), k) for t, k in res.ideals] == [("A2", Q(1))]
    assert res.abelian_rank == 0 and res.dim() == 8


ALCOVE_TYPES = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_alcove_path_matches_root_filter():
    # Kac labels read off the fundamental alcove against the roots with
    # (h|alpha) integral, typed from root data
    for cf in BUILTIN_CASES.values():
        for a, h in zip(cf.ambient, cf.h):
            fixed = inner_fixed_subalgebra((a,), (h,))
            assert (fixed, fixed.dim()) == root_filter_fixed_subalgebra(a, h)
    rng = random.Random(14)
    draws, beyond_wall = 1000, 0
    for _ in range(draws):
        a = AffineAlgebra(SimpleType.parse(rng.choice(ALCOVE_TYPES)), rng.randint(1, 4))
        den = rng.randint(1, 12)
        h = scaled_coords(
            [Q(rng.randint(-3 * den, 3 * den), den) for _ in range(a.type.rank)]
        )
        r = rs(a)
        top = dominant_conjugate(r, h[1])
        beyond_wall += sum(map(mul, r.covector(r.theta), top)) > h[0] * r.scale
        fixed = inner_fixed_subalgebra((a,), (h,))
        assert (fixed, fixed.dim()) == root_filter_fixed_subalgebra(a, h)
    assert beyond_wall >= 0.8 * draws
