import random
import sys
from collections import Counter
from fractions import Fraction as Q
from math import lcm

import pytest

from orbifold24.affinerep import (
    AffineAlgebra,
    enumerate_level_weights,
    inner_fixed_subalgebra,
    n_min_column,
    sigma_order_on_category,
)
from orbifold24.cases import BUILTIN_CASES, CaseFile
from orbifold24.rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    build_root_system,
    scaled_coords,
)
from orbifold24.twistbound import (
    _CaseTables,
    ideal_twist,
    invariant_norm,
    min_twisted_weight,
    shift_ok,
    tuple_space_size,
)

from helpers import (
    ORACLE_TYPES,
    brute_force_min,
    feasible_tuples,
    fraction_coords,
    fraction_fw_gram,
    fraction_invariant_norm,
    fraction_ip,
    loop_ideal_twist,
    negated,
    nondominant_direction,
    plain_data,
    rational_direction,
    root_ip,
    root_loop_shift_ok,
    scan_minimum,
    tuple_grid,
    twisted_weight_lower_bound,
    typed_components_of_subsystem,
)

# each case as the pair (ambient, h) that the twist functions take
CASE1, CASE2, CASE3 = (
    (BUILTIN_CASES[c].ambient, BUILTIN_CASES[c].h) for c in ("e6g2", "a2x6", "a5d4")
)


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=["e6g2", "a2x6", "a5d4"])
def test_invariant_norm_is_two(case):
    norm, in_2z, in_23z = invariant_norm(*case)
    assert norm == 2 and in_2z and in_23z


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=["e6g2", "a2x6", "a5d4"])
def test_shift_ok(case):
    assert shift_ok(*case)


def test_twist_functions_reject_a_twist_vector_one_entry_short():
    # every function that walks the (ideal, h_i) pairs zips them strictly
    ambient, h = CASE1
    short = h[:-1]
    message = "^zip\\(\\) argument 2 is shorter than argument 1$"
    calls = [
        lambda: invariant_norm(ambient, short),
        lambda: shift_ok(ambient, short),
        lambda: min_twisted_weight(ambient, short),
        lambda: sigma_order_on_category(ambient, short),
        lambda: inner_fixed_subalgebra(ambient, short),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_wrong_length_h_raises_the_same_value_error_each_time():
    # an error is never cached: the second call, on warm records, raises as
    # the first did, whether h or one h_i has the wrong length
    ambient, h = CASE1
    long_h2 = (h[0], (1, (1, 0, 0))) + h[2:]
    calls = (invariant_norm, shift_ok, min_twisted_weight)
    for twist, message in (
        (h[:-1], "zip() argument 2 is shorter than argument 1"),
        (long_h2, "h_i (1, 0, 0) for G2,1 must have 2 coordinates"),
    ):
        for call in calls:
            for _ in range(2):
                with pytest.raises(ValueError) as exc:
                    call(ambient, twist)
                assert str(exc.value) == message


def test_twist_functions_take_h_i_as_lists():
    # the records are cached per (ideal, h_i), so each h_i is made hashable
    # where it is looked up; a caller may still hand in lists
    for cf in BUILTIN_CASES.values():
        listed = [[den, list(v)] for den, v in cf.h]
        norm = invariant_norm(cf.ambient, cf.h)
        assert invariant_norm(cf.ambient, listed) == norm
        assert shift_ok(cf.ambient, listed) == shift_ok(cf.ambient, cf.h)
        assert min_twisted_weight(cf.ambient, listed) == min_twisted_weight(cf.ambient, cf.h)


def test_ideal_twist_records_match_the_per_ideal_loops(probe_cases):
    # every (ideal, h_i) of the built-ins and of the twist-probe traffic:
    # the cached record is what the per-ideal loops compute afresh, and it
    # holds only ints, bools and tuples, so no caller can change it; on the
    # probe traffic its n_min columns are also the least pairings of h_i
    # and -h_i over each row's Freudenthal weight system (the built-ins'
    # A5,3 tables would take 2 s); the norm and the shift bound read from
    # the records agree with the Fraction norm and the loop over every root
    probe_files = [CaseFile.from_data(c) for c in probe_cases]
    case_files = list(BUILTIN_CASES.values()) + probe_files
    pairs = {(a, hi) for cf in case_files for a, hi in zip(cf.ambient, cf.h, strict=True)}
    probe_pairs = {(a, hi) for cf in probe_files for a, hi in zip(cf.ambient, cf.h, strict=True)}
    assert len(probe_pairs) > 100
    for a, hi in sorted(pairs):
        record = ideal_twist(a, hi)
        assert record == loop_ideal_twist(a, hi), (a, hi)
        assert plain_data(record), (a, hi)
        if (a, hi) not in probe_pairs:
            continue
        rs, (den, v), (d, pos, neg) = a.root_system(), hi, record.n_min
        for lam, p, n in zip(enumerate_level_weights(a).weights, pos, neg, strict=True):
            assert Q(p, d) == brute_force_min(rs, v, lam) / den, (a, hi, lam)
            assert Q(n, d) == brute_force_min(rs, tuple(-c for c in v), lam) / den, (a, hi, lam)
    for cf in case_files:
        assert invariant_norm(cf.ambient, cf.h)[0] == fraction_invariant_norm(cf.ambient, cf.h)
        assert shift_ok(cf.ambient, cf.h) == root_loop_shift_ok(cf.ambient, cf.h)


def test_shift_ok_zero_twist():
    g2 = build_root_system(SimpleType("G", 2))
    assert shift_ok(
        (AffineAlgebra(SimpleType("G", 2), 1),), (scaled_coords((0,) * g2.rank),)
    )


def test_shift_fails_for_large_twist():
    g2 = build_root_system(SimpleType("G", 2))
    h = (scaled_coords((0, 3)),)  # 3 L_2
    assert not shift_ok((AffineAlgebra(SimpleType("G", 2), 1),), h)
    low = min(root_ip(g2, fraction_coords(h[0]), r) for r in g2.roots)
    assert low <= -3


def scale(x, c):
    """The rational weight x times c, in Fraction coordinates."""
    return tuple(c * q for q in x)


def weyl_image(rs, h, rng, steps=6):
    """h moved by a few seeded simple reflections."""
    cur = list(h)
    for _ in range(steps):
        j = rng.randrange(rs.rank)
        m = cur[j]
        cur = [c - m * a for c, a in zip(cur, rs.simple_roots[j])]
    return tuple(cur)


def single_ideal_case(name, h):
    t = SimpleType.parse(name)
    return (AffineAlgebra(t, 1),), (scaled_coords(h),)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_shift_ok_matches_root_loop(name):
    rs = build_root_system(SimpleType.parse(name))
    rng = random.Random(name)
    hs = []
    for factor in (4, 1, Q(1, 8), Q(1, 64)):
        for _ in range(2):
            h = scale(rational_direction(rs, rng), factor)
            hs += [h, scale(h, -1), scale(nondominant_direction(rs, rng), factor)]
    # the boundary: a dominant direction scaled to (h|theta) = 1, moved off
    # the dominant chamber, and the same pushed past by 1/1000
    for _ in range(4):
        d = [Q(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(rs.rank)]
        if not any(d):
            continue
        edge = scale(d, 1 / root_ip(rs, d, rs.theta))
        for h in (edge, weyl_image(rs, edge, rng)):
            for x in (h, scale(h, -1)):
                c = single_ideal_case(name, x)
                assert shift_ok(*c) and root_loop_shift_ok(*c)
                over = single_ideal_case(name, scale(x, Q(1001, 1000)))
                assert not shift_ok(*over) and not root_loop_shift_ok(*over)
    verdicts = [root_loop_shift_ok(*single_ideal_case(name, h)) for h in hs]
    assert [shift_ok(*single_ideal_case(name, h)) for h in hs] == verdicts
    assert True in verdicts and False in verdicts


def test_tuple_space_sizes():
    assert tuple_space_size(CASE1[0]) == 160
    assert tuple_space_size(CASE2[0]) == 10**6
    assert tuple_space_size(CASE3[0]) == 56 * 24 * 2**3 == 10752


def test_feasibility_excludes_g2_triple():
    # conformal-weight sum 3 * (2/5) is not integral
    fts = feasible_tuples(*CASE1)
    zero_e6 = tuple([Q(0)] * 6)
    l1_g2 = (Q(1), Q(0))
    assert not any(
        tb.weights == (zero_e6, l1_g2, l1_g2, l1_g2) for tb in fts
    )


def test_feasibility_excludes_a5_special_weight():
    # 191/108 mod 1 cannot be completed by eighteenths and quarters
    fts = feasible_tuples(*CASE3)
    bad = (Q(1), Q(0), Q(2), Q(0), Q(0))
    assert not any(tb.weights[0] == bad for tb in fts)


def test_vacuum_tuple_feasible_with_zero_floor():
    for case in (CASE1, CASE2, CASE3):
        g = tuple_grid(*case)
        d = g.tables.scale
        vac = (g.s_cw % d == 0) & ~g.nonvacuum
        assert int(vac.sum()) == 1
        assert set(g.ell_s[vac].tolist()) == {0}
        assert set(g.bound_s[vac].tolist()) == {d}


def test_known_a5_bound_one_tuple():
    fts = feasible_tuples(*CASE3)
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
    assert twisted_weight_lower_bound(tb, *CASE3) == 1


def test_bound_recomputation_agrees():
    fts = feasible_tuples(*CASE1)
    for tb in fts:
        assert twisted_weight_lower_bound(tb, *CASE1) == tb.bound


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=["e6g2", "a2x6", "a5d4"])
def test_min_twisted_weight_is_one(case):
    m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(*case)
    assert m_pos == 1 and m_neg == 1
    for wit in (wit_pos, wit_neg):
        assert all(all(c == 0 for c in w) for w in wit)


@pytest.mark.parametrize("case", [CASE1, CASE3], ids=["e6g2", "a5d4"])
def test_negation_symmetry_of_bound_multisets(case):
    pos = Counter(tb.bound for tb in feasible_tuples(*case))
    neg = Counter(tb.bound for tb in feasible_tuples(*negated(*case)))
    assert pos == neg


def test_all_bounds_at_least_one_and_in_thirds():
    for case in (CASE1, CASE3):
        for signed in (case, negated(*case)):
            for tb in feasible_tuples(*signed):
                assert tb.bound >= 1
                assert (3 * tb.bound).denominator == 1


def test_feasible_tuples_have_integral_sums():
    for tb in feasible_tuples(*CASE1):
        assert tb.cw_sum.denominator == 1
        assert tb.feasible
        assert tb.ell_min >= tb.cw_sum
        nonzero = any(any(c for c in w) for w in tb.weights)
        assert tb.ell_min >= (2 if nonzero else 0)


# Small (type, level) pairs for random cases: tables of 2 to 10 weights;
# B2 and C3 have a form with scale 2, G2 scale 3.
SMALL_IDEALS = [("A", 1, 1), ("A", 1, 3), ("A", 2, 1), ("A", 2, 2), ("A", 3, 1),
                ("B", 2, 1), ("B", 2, 2), ("C", 2, 2), ("C", 3, 1), ("G", 2, 1),
                ("G", 2, 2)]


def random_case(rng: random.Random, k: int) -> tuple:
    """Up to four small ideals, each with a random h, (h+|theta) <= 1.

    Half of the h are moved off the dominant chamber by a few simple
    reflections, so they carry negative coordinates.
    """
    ambient, hs = [], []
    for _ in range(rng.randint(1, 4)):
        fam, rank, level = rng.choice(SMALL_IDEALS)
        a = AffineAlgebra(SimpleType(fam, rank), level)
        rs = a.root_system()
        while True:
            h = [rng.choice((0, 0, Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 3), 1))
                 for _ in range(rank)]
            if root_ip(rs, h, rs.theta) <= 1:
                break
        if rng.random() < 0.5:
            h = weyl_image(rs, h, rng, steps=rng.randint(1, 6))
        ambient.append(a)
        hs.append(scaled_coords(h))
    return tuple(ambient), tuple(hs)


def assert_dp_matches_scan(case):
    m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(*case)
    assert (m_pos, wit_pos) == scan_minimum(*case)
    assert (m_neg, wit_neg) == scan_minimum(*negated(*case))


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=["e6g2", "a2x6", "a5d4"])
def test_dp_matches_scan_on_builtin_cases(case):
    assert_dp_matches_scan(case)


def test_dp_matches_scan_on_random_cases():
    rng = random.Random(3)
    off_chamber = scaled = 0
    for k in range(100):
        case = random_case(rng, k)
        assert shift_ok(*case) and root_loop_shift_ok(*case)
        for c in (case, negated(*case)):
            norm, in_2z, in_23z = invariant_norm(*c)
            assert norm == fraction_invariant_norm(*c)
            assert in_2z == ((norm / 2).denominator == 1)
            assert in_23z == ((norm * 3 / 2).denominator == 1)
        assert_dp_matches_scan(case)
        ambient, h = case
        off_chamber += any(min(v) < 0 for _, v in h)
        scaled += any(a.root_system().scale > 1 and a.level > 1 for a in ambient)
    assert off_chamber > 20 and scaled > 10


def wide_case(rng: random.Random, k: int) -> tuple:
    """Three to five small ideals, h coordinates with denominators up to 12
    and (h+|theta) <= 1, half of them moved off the dominant chamber; the
    scale d of the DP then has many residue classes."""
    ambient, hs = [], []
    for _ in range(rng.randint(3, 5)):
        fam, rank, level = rng.choice(SMALL_IDEALS)
        a = AffineAlgebra(SimpleType(fam, rank), level)
        rs = a.root_system()
        while True:
            m = rng.randint(1, 12)
            h = [Q(rng.randint(0, m), m) * rng.choice((0, 1)) for _ in range(rank)]
            if root_ip(rs, h, rs.theta) <= 1:
                break
        if rng.random() < 0.5:
            h = weyl_image(rs, h, rng, steps=rng.randint(1, 6))
        ambient.append(a)
        hs.append(scaled_coords(h))
    return tuple(ambient), tuple(hs)


def top_row_without_completion(ambient) -> bool:
    """Some row of ideal 0 has no completion by the other ideals with an
    integral cw sum: its residue group in the DP is empty."""
    def cws(a):
        den, col = enumerate_level_weights(a).cw_column
        return [Q(x, den) for x in col]

    sums = {Q(0)}
    for a in ambient[1:]:
        sums = {(x + y) % 1 for x in sums for y in cws(a)}
    return any(-cw % 1 not in sums for cw in cws(ambient[0]))


def test_dp_matches_scan_on_wide_denominator_draws():
    rng = random.Random(11)
    empty_group = non_vacuum = 0
    for k in range(120):
        case = wide_case(rng, k)
        assert shift_ok(*case) and root_loop_shift_ok(*case)
        m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(*case)
        assert (m_pos, wit_pos) == scan_minimum(*case)
        assert (m_neg, wit_neg) == scan_minimum(*negated(*case))
        empty_group += top_row_without_completion(case[0])
        non_vacuum += any(any(w) for w in wit_pos + wit_neg)
    assert empty_group >= 0.3 * 120 and non_vacuum >= 0.1 * 120


def test_shift_ok_matches_root_loop_on_random_cases():
    # the same draws pushed past the shift bound by a random factor
    rng = random.Random(5)
    verdicts = []
    for k in range(100):
        case = random_case(rng, k)
        factor = rng.choice((1, Q(5, 4), 2, 3))
        ambient, h = case
        pushed = tuple(scaled_coords(scale(fraction_coords(hi), factor)) for hi in h)
        assert shift_ok(ambient, pushed) == root_loop_shift_ok(ambient, pushed)
        verdicts.append(shift_ok(ambient, pushed))
    assert True in verdicts and False in verdicts


def test_category_order_and_fixed_roots_match_fraction_pairings():
    # the integer pairings over den * scale against Fraction Gram pairings
    rng = random.Random(7)
    orders, dropped = Counter(), 0
    for k in range(60):
        ambient, hs = random_case(rng, k)
        order = 1
        for a, h in zip(ambient, hs):
            rs = a.root_system()
            gram, x = fraction_fw_gram(rs), fraction_coords(h)
            for w in enumerate_level_weights(a).weights:
                order = lcm(order, fraction_ip(gram, x, w).denominator)
            retained = [
                (fw, ac)
                for fw, ac in zip(rs.roots, rs.root_alpha_coords)
                if fraction_ip(gram, x, fw).denominator == 1
            ]
            dropped += len(retained) < len(rs.roots)
            typed, abelian, dim = typed_components_of_subsystem(rs, retained, a.level)
            fixed = inner_fixed_subalgebra((a,), (h,))
            assert (fixed, fixed.dim()) == (SemisimpleTypeWithLevels.of(typed, abelian), dim)
        assert sigma_order_on_category(ambient, hs) == order
        orders[order] += 1
    assert len(orders) > 2 and dropped > 20


@pytest.mark.parametrize("case", [CASE1, CASE3], ids=["e6g2", "a5d4"])
def test_scan_minimum_agrees_with_feasible_tuples(case):
    best = min(feasible_tuples(*case), key=lambda tb: tb.bound)
    assert scan_minimum(*case) == (best.bound, best.weights)


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3], ids=["e6g2", "a2x6", "a5d4"])
def test_n_min_column_matches_oracle_on_case_rows(case):
    # both columns of one h+ against the oracle on h and on -h
    for ambient, hs in (case, negated(*case)):
        for a, h in zip(ambient, hs):
            rs = a.root_system()
            x = fraction_coords(h)
            weights = enumerate_level_weights(a).weights
            col_den, pos, neg = n_min_column(a, h)
            assert col_den == h[0] * rs.scale
            for col, sign in ((pos, 1), (neg, -1)):
                assert all(type(v) is int for v in col)
                want = [brute_force_min(rs, scale(x, sign), w) for w in weights]
                assert [Q(v, col_den) for v in col] == want


def test_min_twisted_weight_builds_no_weight_system():
    # the Freudenthal weight system is the tests' oracle only: no module of
    # the package defines or imports it, so the DP cannot build one
    mods = [m for name, m in sys.modules.items() if name.startswith("orbifold24")]
    assert mods and not any(hasattr(m, "weight_system") for m in mods)
    enumerate_level_weights.cache_clear()
    for case in (CASE1, CASE2, CASE3):
        min_twisted_weight(*case)


def test_untwisted_ideal_gets_zero_columns_without_a_covector(monkeypatch):
    # h_i = 0 pairs to 0 with every weight; no dominant conjugate is needed
    import orbifold24.affinerep as affinerep

    a = AffineAlgebra(SimpleType("E", 6), 2)
    rows = len(enumerate_level_weights(a).weights)
    want = brute_force_min(a.root_system(), (Q(0),) * 6, (0,) * 6)
    assert want == 0

    def forbidden(rs, v):
        raise AssertionError("dominant conjugate of the zero twist")

    monkeypatch.setattr(affinerep, "dominant_conjugate", forbidden)
    for den in (1, 3):
        assert n_min_column(a, (den, (0,) * 6)) == (
            den * a.root_system().scale, [0] * rows, [0] * rows
        )


def test_twist_bound_computes_the_norm_once(capsys, monkeypatch):
    # the norm that the query reports is the one the DP adds to every bound
    import orbifold24.cases as cases
    import orbifold24.cli as cli
    import orbifold24.twistbound as twistbound

    calls = []

    def counting(ambient, h):
        calls.append(h)
        return invariant_norm(ambient, h)

    monkeypatch.setattr(cases, "invariant_norm", counting)
    monkeypatch.setattr(twistbound, "invariant_norm", counting)
    assert cli.main(["twist-bound", "--case", "a5d4", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_case_tables_read_the_norm_off_the_records(probe_cases):
    # the DP derives <h|h> from the records it reads: its half-norm, over
    # the tables' scale, is invariant_norm / 2 on every twist-probe case
    for cf in (CaseFile.from_data(c) for c in probe_cases):
        t = _CaseTables(cf.ambient, cf.h)
        assert Q(t.half_norm_s, t.scale) == invariant_norm(cf.ambient, cf.h)[0] / 2
