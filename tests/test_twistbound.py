import random
import sys
from collections import Counter
from fractions import Fraction as Q

import pytest

from orbifold24.affinerep import (
    AffineAlgebra,
    TwistVector,
    enumerate_level_weights,
    n_min_column,
)
from orbifold24.cases import BUILTIN_CASES
from orbifold24.rootdata import SimpleType, Weight, build_root_system
from orbifold24.twistbound import (
    CaseSpec,
    invariant_norm,
    min_twisted_weight,
    shift_ok,
    tuple_space_size,
)

from helpers import (
    ORACLE_TYPES,
    brute_force_min,
    nondominant_direction,
    rational_direction,
    root_loop_shift_ok,
    feasible_tuples,
    scan_minimum,
    twisted_weight_lower_bound,
)

CASE1 = BUILTIN_CASES["e6g2"].case_spec()
CASE2 = BUILTIN_CASES["a2x6"].case_spec()
CASE3 = BUILTIN_CASES["a5d4"].case_spec()


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=lambda c: c.name)
def test_invariant_norm_is_two(case):
    norm, in_2z, in_23z = invariant_norm(case)
    assert norm == 2 and in_2z and in_23z


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=lambda c: c.name)
def test_shift_ok(case):
    assert shift_ok(case)


def test_shift_ok_zero_twist():
    g2 = build_root_system(SimpleType("G", 2))
    c = CaseSpec(
        "zero", (AffineAlgebra(SimpleType("G", 2), 1),), TwistVector((g2.zero(),))
    )
    assert shift_ok(c)


def test_shift_fails_for_large_twist():
    g2 = build_root_system(SimpleType("G", 2))
    h = TwistVector((g2.fundamental_weight(1).scale(3),))
    c = CaseSpec("big", (AffineAlgebra(SimpleType("G", 2), 1),), h)
    assert not shift_ok(c)
    low = min(g2.ip(h.components[0].coords, r) for r in g2.roots)
    assert low <= -3


def weyl_image(rs, h, rng, steps=6):
    """h moved by a few seeded simple reflections."""
    cur = list(h.coords)
    for _ in range(steps):
        j = rng.randrange(rs.rank)
        m = cur[j]
        cur = [c - m * a for c, a in zip(cur, rs.simple_roots[j])]
    return rs.weight(cur)


def single_ideal_case(name, h):
    t = SimpleType.parse(name)
    return CaseSpec(name, (AffineAlgebra(t, 1),), TwistVector((h,)))


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_shift_ok_matches_root_loop(name):
    rs = build_root_system(SimpleType.parse(name))
    rng = random.Random(name)
    hs = []
    for scale in (4, 1, Q(1, 8), Q(1, 64)):
        for _ in range(2):
            h = rational_direction(rs, rng).scale(scale)
            hs += [h, h.scale(-1), nondominant_direction(rs, rng).scale(scale)]
    # the boundary: a dominant direction scaled to (h|theta) = 1, moved off
    # the dominant chamber, and the same pushed past by 1/1000
    for _ in range(4):
        d = rs.weight([Q(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(rs.rank)])
        if not any(d.coords):
            continue
        edge = d.scale(1 / rs.ip(d.coords, rs.theta))
        for h in (edge, weyl_image(rs, edge, rng)):
            for x in (h, h.scale(-1)):
                c = single_ideal_case(name, x)
                assert shift_ok(c) and root_loop_shift_ok(c)
                over = single_ideal_case(name, x.scale(Q(1001, 1000)))
                assert not shift_ok(over) and not root_loop_shift_ok(over)
    verdicts = [root_loop_shift_ok(single_ideal_case(name, h)) for h in hs]
    assert [shift_ok(single_ideal_case(name, h)) for h in hs] == verdicts
    assert True in verdicts and False in verdicts


def test_tuple_space_sizes():
    assert tuple_space_size(CASE1) == 160
    assert tuple_space_size(CASE2) == 10**6
    assert tuple_space_size(CASE3) == 56 * 24 * 2**3 == 10752


def test_feasibility_excludes_g2_triple():
    # conformal-weight sum 3 * (2/5) is not integral
    fts = feasible_tuples(CASE1)
    zero_e6 = tuple([Q(0)] * 6)
    l1_g2 = (Q(1), Q(0))
    assert not any(
        tb.weights == (zero_e6, l1_g2, l1_g2, l1_g2) for tb in fts
    )


def test_feasibility_excludes_a5_special_weight():
    # 191/108 mod 1 cannot be completed by eighteenths and quarters
    fts = feasible_tuples(CASE3)
    bad = (Q(1), Q(0), Q(2), Q(0), Q(0))
    assert not any(tb.weights[0] == bad for tb in fts)


def test_vacuum_tuple_feasible_with_zero_floor():
    for case in (CASE1, CASE2, CASE3):
        fts = feasible_tuples(case)
        vac = [tb for tb in fts if all(all(c == 0 for c in w) for w in tb.weights)]
        assert len(vac) == 1
        assert vac[0].ell_min == 0
        assert vac[0].bound == 1


def test_known_a5_bound_one_tuple():
    fts = feasible_tuples(CASE3)
    lam1 = (Q(0), Q(0), Q(3), Q(0), Q(0))
    d4_zero = tuple([Q(0)] * 4)
    a1_one = (Q(1),)
    hits = [
        tb
        for tb in fts
        if tb.weights == (lam1, d4_zero, a1_one, a1_one, a1_one)
    ]
    assert len(hits) == 1
    tb = hits[0]
    assert tb.cw_sum == 3 and tb.ell_min == 3 and tb.bound == 1
    assert twisted_weight_lower_bound(tb, CASE3) == 1


def test_bound_recomputation_agrees():
    fts = feasible_tuples(CASE1)
    for tb in fts:
        assert twisted_weight_lower_bound(tb, CASE1) == tb.bound


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=lambda c: c.name)
def test_min_twisted_weight_is_one(case):
    m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(case)
    assert m_pos == 1 and m_neg == 1
    for wit in (wit_pos, wit_neg):
        assert all(all(c == 0 for c in w) for w in wit)


@pytest.mark.parametrize("case", [CASE1, CASE3], ids=lambda c: c.name)
def test_negation_symmetry_of_bound_multisets(case):
    pos = Counter(tb.bound for tb in feasible_tuples(case))
    neg = Counter(tb.bound for tb in feasible_tuples(case.negated()))
    assert pos == neg


def test_all_bounds_at_least_one_and_in_thirds():
    for case in (CASE1, CASE3):
        for signed in (case, case.negated()):
            for tb in feasible_tuples(signed):
                assert tb.bound >= 1
                assert (3 * tb.bound).denominator == 1


def test_feasible_tuples_have_integral_sums():
    for tb in feasible_tuples(CASE1):
        assert tb.cw_sum.denominator == 1
        assert tb.feasible
        assert tb.ell_min >= tb.cw_sum
        nonzero = any(any(c for c in w) for w in tb.weights)
        assert tb.ell_min >= (2 if nonzero else 0)


# Small (type, level) pairs for random cases: tables of 2 to 10 weights.
SMALL_IDEALS = [("A", 1, 1), ("A", 1, 3), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1),
                ("B", 2, 1), ("C", 3, 1), ("G", 2, 1), ("G", 2, 2)]


def random_case(rng: random.Random, k: int) -> CaseSpec:
    """Up to four small ideals, each with a random dominant h, (h|theta) <= 1."""
    ambient, hs = [], []
    for _ in range(rng.randint(1, 4)):
        fam, rank, level = rng.choice(SMALL_IDEALS)
        a = AffineAlgebra(SimpleType(fam, rank), level)
        rs = a.root_system()
        while True:
            h = rs.weight([rng.choice((0, 0, Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 3), 1))
                           for _ in range(rank)])
            if rs.ip(h.coords, rs.theta) <= 1:
                break
        ambient.append(a)
        hs.append(h)
    return CaseSpec(f"random-{k}", tuple(ambient), TwistVector(tuple(hs)))


def assert_dp_matches_scan(case):
    m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(case)
    assert (m_pos, wit_pos) == scan_minimum(case)
    assert (m_neg, wit_neg) == scan_minimum(case.negated())


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=lambda c: c.name)
def test_dp_matches_scan_on_builtin_cases(case):
    assert_dp_matches_scan(case)


def test_dp_matches_scan_on_random_cases():
    rng = random.Random(3)
    for k in range(100):
        case = random_case(rng, k)
        assert shift_ok(case)
        assert_dp_matches_scan(case)


@pytest.mark.parametrize("case", [CASE1, CASE3], ids=lambda c: c.name)
def test_scan_minimum_agrees_with_feasible_tuples(case):
    best = min(feasible_tuples(case), key=lambda tb: tb.bound)
    assert scan_minimum(case) == (best.bound, best.weights)


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=lambda c: c.name)
def test_n_min_column_matches_oracle_on_case_rows(case):
    for c in (case, case.negated()):
        for a, h in zip(c.ambient, c.h.components):
            rs = a.root_system()
            want = [
                brute_force_min(h, Weight(w, rs))
                for w in enumerate_level_weights(a).weights()
            ]
            assert n_min_column(a, h) == want


def test_min_twisted_weight_builds_no_weight_system(monkeypatch):
    def forbidden(lam):
        raise AssertionError("a Freudenthal weight system on the hot path")

    for name, mod in list(sys.modules.items()):
        if name.startswith("orbifold24") and hasattr(mod, "weight_system"):
            monkeypatch.setattr(mod, "weight_system", forbidden)
    enumerate_level_weights.cache_clear()
    for case in (CASE1, CASE2, CASE3):
        min_twisted_weight(case)
