import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from math import lcm
from operator import mul
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import (
    ORACLE_TYPES,
    FractionRootSystem,
    brute_force_min,
    column_n_min,
    dict_rank_refusal,
    dual_coxeter,
    fraction_affine_diagram,
    fraction_dominant_conjugate,
    fraction_fw_gram,
    fraction_gram_matrix,
    fraction_ip,
    leg_walk_classify_simple_system,
    nondominant_direction,
    rational_direction,
    root_affine_diagram,
    root_ip,
    semisimple_rank,
    simple_root_coords,
    total_multiplicity,
    weight_system,
    weyl_dim,
)
from orbifold24.affinerep import AffineAlgebra
from orbifold24.exactmath import InvariantError
from orbifold24 import rootdata
from orbifold24.rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    _affine_diagram,
    alcove_labels,
    build_root_system,
    classify_simple_system,
    dominant_conjugate,
    kac_fixed_subalgebra,
    lowest_weight,
    parse_rational,
    scaled_coords,
    simple_types,
)
from orbifold24.schellekens import enumerate_candidates

AFFINE_ORACLE_TYPES = (
    [f"A{r}" for r in range(1, 21)] + [f"B{r}" for r in range(2, 11)]
    + [f"C{r}" for r in range(2, 11)] + [f"D{r}" for r in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
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
    norms = sorted(root_ip(rs, r, r) for r in rs.roots)
    assert norms[:6] == [Q(2, 3)] * 6 and norms[6:] == [Q(2)] * 6


def unit(rs, i):
    """The fundamental weight L_i in fundamental-weight coordinates."""
    return tuple(int(j == i) for j in range(rs.rank))


def test_inner_products():
    g2 = build_root_system(SimpleType("G", 2))
    assert root_ip(g2, unit(g2, 0), unit(g2, 0)) == Q(2, 3)
    a5 = build_root_system(SimpleType("A", 5))
    assert root_ip(a5, unit(a5, 2), unit(a5, 2)) == Q(3, 2)


@pytest.mark.parametrize("fam,rank", sorted(ROOT_COUNTS))
def test_weight_root_duality(fam, rank):
    rs = build_root_system(SimpleType(fam, rank))
    gram = fraction_gram_matrix(rs.type)
    for i in range(rs.rank):
        for j in range(rs.rank):
            lhs = root_ip(rs, unit(rs, i), rs.simple_roots[j])
            want = gram[j][j] / 2 if i == j else Q(0)
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
    assert rs.form == tuple(tuple(x * rs.scale for x in row) for row in gram)
    for v in rs.roots + rs.simple_roots + (rs.theta,):
        assert all(type(c) is int for c in v)
    marks = _affine_diagram(rs.type)[1]
    assert marks[0] == 1 and root_ip(rs, rs.theta, rs.theta) == 2
    assert rs.theta == tuple(
        sum(m * a[k] for m, a in zip(marks[1:], rs.simple_roots))
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
        got = root_ip(rs, a, b)
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
        assert root_ip(rs, x, y) == fraction_ip(gram, x, y)


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "D4", "G2"])
def test_min_pairing_matches_fraction_oracle(name):
    rs = build_root_system(SimpleType.parse(name))
    gram = fraction_fw_gram(rs)
    rng = random.Random(name)
    for _ in range(6):
        lam = tuple(rng.randint(0, 1) for _ in range(rs.rank))
        x = [Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rs.rank)]
        ws = weight_system(rs, lam)
        want = min(fraction_ip(gram, x, mu) for mu in ws.weights())
        assert column_n_min(rs, scaled_coords(x), lam) == want


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_weyl_dim_matches_freudenthal_on_fundamental_weights(name):
    rs = build_root_system(SimpleType.parse(name))
    for i in range(rs.rank):
        lam = unit(rs, i)
        assert weyl_dim(rs, lam) == total_multiplicity(weight_system(rs, lam))


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
    ws = weight_system(a2, unit(a2, 0))
    assert len(ws.entries) == 3
    assert all(m == 1 for _, m in ws.entries)


def test_weight_system_g2_seven():
    g2 = build_root_system(SimpleType("G", 2))
    ws = weight_system(g2, unit(g2, 0))
    assert total_multiplicity(ws) == 7 == weyl_dim(g2, unit(g2, 0))
    zero = tuple([Q(0)] * 2)
    assert dict(ws.entries)[zero] == 1


def test_weight_system_a5_twenty():
    a5 = build_root_system(SimpleType("A", 5))
    ws = weight_system(a5, unit(a5, 2))
    assert len(ws.entries) == 20
    assert all(m == 1 for _, m in ws.entries)


def test_weight_system_rejects_non_dominant_or_rational_weights():
    a2 = build_root_system(SimpleType("A", 2))
    for lam in ((1, -1), (Q(1, 2), 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            weight_system(a2, lam)


def test_weyl_dim_adjoints():
    for fam, rank in sorted(ROOT_COUNTS):
        rs = build_root_system(SimpleType(fam, rank))
        assert weyl_dim(rs, rs.theta) == rs.type.dim()
    assert weyl_dim(build_root_system(SimpleType("A", 2)), (0, 0)) == 1


def test_total_multiplicity_matches_weyl_dim():
    rng = random.Random(9)
    for t in [SimpleType("A", 2), SimpleType("G", 2), SimpleType("D", 4), SimpleType("A", 5)]:
        rs = build_root_system(t)
        for _ in range(4):
            lam = tuple(rng.randint(0, 2) for _ in range(t.rank))
            if weyl_dim(rs, lam) > 10**4:
                continue
            assert total_multiplicity(weight_system(rs, lam)) == weyl_dim(rs, lam)


def test_lowest_weights():
    a2 = build_root_system(SimpleType("A", 2))
    assert lowest_weight(a2, (1, 0)) == (0, -1)
    a5 = build_root_system(SimpleType("A", 5))
    assert lowest_weight(a5, (0, 0, 1, 0, 0)) == (0, 0, -1, 0, 0)
    assert lowest_weight(a2, (0, 0)) == (0, 0)


def test_lowest_weight_in_system_and_below():
    rng = random.Random(4)
    for t in [SimpleType("A", 2), SimpleType("G", 2), SimpleType("D", 4)]:
        rs = build_root_system(t)
        for _ in range(3):
            lam = tuple(rng.randint(0, 2) for _ in range(t.rank))
            low = lowest_weight(rs, lam)
            assert low in weight_system(rs, lam).weights()
            # lam - low is a non-negative integer root combination
            diff = [a - b for a, b in zip(lam, low)]
            sol = simple_root_coords(rs, diff)
            assert all(s.denominator == 1 and s >= 0 for s in sol)


def test_lin_min_examples():
    g2 = build_root_system(SimpleType("G", 2))
    assert column_n_min(g2, (1, unit(g2, 0)), unit(g2, 0)) == Q(-2, 3)
    a2 = build_root_system(SimpleType("A", 2))
    assert column_n_min(a2, (1, unit(a2, 0)), (1, 2)) == Q(-5, 3)
    a5 = build_root_system(SimpleType("A", 5))
    big = (3, (0, 0, 2, 0, 0))  # (2/3) L_3
    assert column_n_min(a5, big, (0, 0, 2, 0, 0)) == Q(-2)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_min_pairing_matches_freudenthal_both_signs(name):
    rs = build_root_system(SimpleType.parse(name))
    rng = random.Random(name)
    n = rs.rank
    small = [(0,) * n] + [
        tuple(int(k == i) + int(k == j) for k in range(n))
        for i in range(n)
        for j in range(i, n + 1)  # j = n: the fundamental weight alone
    ]
    small = [lam for lam in small if weyl_dim(rs, lam) <= 10**3]
    for lam in rng.sample(small, min(4, len(small))):
        for _ in range(2):
            h = nondominant_direction(rs, rng)
            for x in (h, tuple(-c for c in h)):
                assert column_n_min(rs, scaled_coords(x), lam) == brute_force_min(rs, x, lam)


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_dominant_conjugate_properties(name):
    rs = build_root_system(SimpleType.parse(name))
    rng = random.Random(name)
    for k in range(10):
        if k % 2:
            h = rational_direction(rs, rng)
        else:
            h = tuple(Q(rng.randint(-4, 4)) for _ in range(rs.rank))
        den, v = scaled_coords(h)
        assert den == lcm(*(c.denominator for c in h))
        assert tuple(Q(x, den) for x in v) == h
        scaled_top = dominant_conjugate(rs, v)
        top = tuple(Q(x, den) for x in scaled_top)
        assert min(top) >= 0
        assert top == fraction_dominant_conjugate(rs, h)
        assert root_ip(rs, top, top) == root_ip(rs, h, h)
        # den * (h+ - h) is a non-negative integer combination of simple
        # roots, den * h being integral; den = 1 for a weight-lattice h
        diff = [a - b for a, b in zip(top, h)]
        coeffs = simple_root_coords(rs, diff)
        assert all((den * c).denominator == 1 and c >= 0 for c in coeffs)
        assert dominant_conjugate(rs, scaled_top) == scaled_top


def test_dominant_conjugate_stops_at_the_reflection_bound():
    a2 = build_root_system(SimpleType("A", 2))
    # -L1 needs two reflections; a system claiming one positive root allows one
    stub = SimpleNamespace(
        rank=2, simple_roots=a2.simple_roots, type=SimpleNamespace(n_roots=lambda: 2)
    )
    with pytest.raises(InvariantError):
        dominant_conjugate(stub, (-1, 0))
    assert dominant_conjugate(a2, (-1, 0)) == (0, 1)


def test_alcove_labels_weigh_to_den_times_scale():
    # non-negative labels on the affine nodes, summing against the marks to
    # den * scale: the point lies in the fundamental alcove
    rng = random.Random(21)
    for name in ORACLE_TYPES:
        rs = build_root_system(SimpleType.parse(name))
        marks = _affine_diagram(rs.type)[1]
        for _ in range(10):
            den, v = scaled_coords(rational_direction(rs, rng))
            s = alcove_labels(rs, (den, v))
            assert min(s) >= 0 and sum(map(mul, marks, s)) == den * rs.scale
    a2 = build_root_system(SimpleType("A", 2))
    # 2 L_1 reflects in the wall (x|theta) = 1 to L_2
    assert alcove_labels(a2, (1, (2, 0))) == (0, 0, a2.scale)


def test_kac_e6_trivalent_node():
    s = [0] * 7
    s[4] = 1  # the node with mark 3
    res = kac_fixed_subalgebra(SimpleType("E", 6), s)
    assert str(res) == "A2,1 A2,1 A2,1"


def test_kac_d4_center_node():
    res = kac_fixed_subalgebra(SimpleType("D", 4), [1, 0, 1, 0, 0])
    assert str(res) == "A1,1 A1,1 A1,1 U(1)"


def test_kac_levels_from_long_root_norms():
    # the affine node -theta with the long simple root of G2
    assert str(kac_fixed_subalgebra(SimpleType("G", 2), [0, 1, 0])) == "A2,1"
    # C3 keeps a short A1 (level 2) and a long A1 (level 1)
    res = kac_fixed_subalgebra(SimpleType("C", 3), [1, 0, 1, 0])
    assert str(res) == "A1,1 A1,2 U(1)"


def test_kac_rejects_zero_labels():
    # the package derives every label vector itself: bad labels are a fault
    with pytest.raises(InvariantError):
        kac_fixed_subalgebra(SimpleType("A", 2), [0, 0, 0])


@pytest.mark.parametrize("labels", [[1, -1, 3], [1, 1], [1, 1, 1, 0]])
def test_kac_rejects_negative_or_miscounted_labels(labels):
    with pytest.raises(InvariantError):
        kac_fixed_subalgebra(SimpleType("A", 2), labels)


@pytest.mark.parametrize("name", [str(t) for t in simple_types(200)])
def test_classify_rejects_non_dynkin_diagrams(name):
    # affine An is a cycle, affine D4 a node of degree 4, affine Bn a double
    # bond beside a branch node, affine Cn two double bonds
    gram = _affine_diagram(SimpleType.parse(name))[0]
    with pytest.raises(InvariantError):
        classify_simple_system([list(row) for row in gram])


@pytest.mark.parametrize(
    "gram",
    [
        [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
        [[2, 0], [0, 2]],
    ],
    ids=["triangle-with-pendant", "3-cycle", "disconnected-pair"],
)
def test_classify_rejects_cycles_and_disconnected_diagrams(gram):
    # a leg walk on a cycle never ends, so the call runs in a child process
    # with a deadline: a hang fails the test instead of stalling the suite
    code = (
        "from orbifold24.exactmath import InvariantError\n"
        "from orbifold24.rootdata import classify_simple_system\n"
        "try:\n"
        f"    print(classify_simple_system({gram}))\n"
        "except InvariantError as err:\n"
        "    print('rejected:', err)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=30, check=True).stdout
    assert out == "rejected: disconnected or cyclic simple system\n"


def test_classify_matches_the_leg_walk_on_proper_subdiagrams():
    # every connected proper sub-diagram of the affine diagrams up to rank 10,
    # in shuffled node order, against the multiple-bond count and leg walk
    rng = random.Random(7)
    seen = 0
    for t in simple_types(300):
        if t.rank > 10:
            continue
        gram = _affine_diagram(t)[0]
        for size in range(1, t.rank + 1):
            for nodes in itertools.combinations(range(t.rank + 1), size):
                comp = [nodes[0]]
                for i in comp:
                    comp.extend(j for j in nodes if j not in comp and gram[i][j])
                if len(comp) < size:
                    continue
                rng.shuffle(comp)
                sub = [[gram[i][j] for j in comp] for i in comp]
                assert classify_simple_system(sub) == leg_walk_classify_simple_system(sub)
                seen += 1
    assert seen > 1500, seen


def test_kac_rank_bookkeeping():
    rng = random.Random(12)
    for t in [SimpleType("A", 3), SimpleType("D", 4), SimpleType("E", 6)]:
        n_nodes = t.rank + 1
        for _ in range(8):
            s = [rng.randint(0, 1) for _ in range(n_nodes)]
            if not any(s):
                continue
            res = kac_fixed_subalgebra(t, s)
            assert semisimple_rank(res) + res.abelian_rank == t.rank


def test_classify_from_gram():
    for t in [SimpleType("A", 4), SimpleType("B", 3), SimpleType("C", 4),
              SimpleType("D", 5), SimpleType("E", 6), SimpleType("F", 4),
              SimpleType("G", 2)]:
        # the integer gram over its scale, and the Fraction gram it replaced
        assert classify_simple_system(rootdata._gram_matrix(t)[0]) == t
        assert classify_simple_system(fraction_gram_matrix(t)) == t


def test_type_string_roundtrip():
    s = SemisimpleTypeWithLevels.parse("A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1")
    assert s.dim() == 54
    assert semisimple_rank(s) + s.abelian_rank == 12
    assert SemisimpleTypeWithLevels.parse(str(s)) == s


def test_parse_reads_b2_and_d3_under_the_pool_names():
    parsed = SemisimpleTypeWithLevels.parse("B2,1 D3,2 D3,1 U(1)^2")
    assert parsed == SemisimpleTypeWithLevels.parse("C2,1 A3,2 A3,1 U(1) U(1)")
    assert str(parsed) == "A3,1 A3,2 C2,1 U(1)^2"


@pytest.mark.parametrize(
    "text",
    ["A2,1/0", "U(1)^-1", "U(1)^0", "U(1)x", "U(1)^", "U(2)", "A2,", ",3", "A2,0",
     # int() and Fraction() would read these as A1,1 and A10 or level 10
     "A\uff11,1", "A1,\uff11", "A+1,1", "A1,+1", "A1_0,1", "A1,1_0", "A1, 1", "A1,-1"],
)
def test_parse_rejects_malformed_tokens(text):
    with pytest.raises(ValueError):
        SemisimpleTypeWithLevels.parse(text)


@pytest.mark.parametrize("cls", [SimpleType, AffineAlgebra, SemisimpleTypeWithLevels])
def test_type_keys_compare_and_hash_as_tuples(cls):
    # the type keys key every cache and sort; Python-level methods here
    # would cost a frame per comparison
    for name in ("__eq__", "__hash__", "__lt__"):
        assert getattr(cls, name) is getattr(tuple, name), name


def test_type_key_value_semantics():
    for family, rank in (("E", 5), ("H", 2), ("", 2), ("AB", 2)):
        with pytest.raises(ValueError):
            SimpleType(family, rank)
    with pytest.raises(ValueError):
        AffineAlgebra(SimpleType("A", 2), 0)
    types = simple_types(300)
    assert sorted(types) == sorted(types, key=lambda t: (t.family, t.rank))
    a2 = SimpleType("A", 2)
    assert AffineAlgebra(a2, 3) == (a2, 3) and AffineAlgebra(a2, 3) == AffineAlgebra(a2, Q(3))
    with_int = SemisimpleTypeWithLevels(((a2, 3),))
    with_fraction = SemisimpleTypeWithLevels(((a2, Q(3)),))
    assert with_int == with_fraction and hash(with_int) == hash(with_fraction)


def test_candidate_type_strings_parse_back():
    candidates = [
        c for d in range(36, 289, 12) for c in enumerate_candidates(d, Q(d - 24, 24))
    ]
    assert len(candidates) == 156
    for c in candidates:
        assert SemisimpleTypeWithLevels.parse(str(c)) == c


@pytest.mark.parametrize("text", ["0", "-0", "007", "3/6", "-12/0004", "5/1", "-7/21"])
def test_parse_rational_matches_fraction(text):
    value = parse_rational(text)
    assert type(value) is Q and value == Q(text)


@pytest.mark.parametrize(
    "text",
    ["", "-", "1/0", "1/00", "1/", "/2", "+1", "--1", "1/-2", "1/2/3", "1_0", " 1",
     "1\n", "1.5", "1e3", "\uff11"],
)
def test_parse_rational_rejects_other_forms(text):
    with pytest.raises(ValueError, match="is not a rational"):
        parse_rational(text)


@pytest.mark.parametrize("name", AFFINE_ORACLE_TYPES)
def test_affine_diagram_matches_root_system(name):
    t = SimpleType.parse(name)
    gram, marks, scale = _affine_diagram(t)
    ref_gram, ref_marks, ref_scale = root_affine_diagram(t)
    assert marks == ref_marks
    n = len(gram)
    assert all(
        gram[i][j] * ref_scale == ref_gram[i][j] * scale for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("t", simple_types(2000), ids=str)
def test_integer_root_data_matches_the_fraction_derivation(t):
    # every simple type of dimension at most 2000, built uncached
    rs, ref = build_root_system.__wrapped__(t), FractionRootSystem(t)
    for field in ("simple_roots", "form", "scale", "roots", "root_alpha_coords", "theta"):
        assert getattr(rs, field) == getattr(ref, field), field
    gram, marks, scale = _affine_diagram(t)
    assert ([list(row) for row in gram], marks, scale) == fraction_affine_diagram(ref)


def test_affine_diagram_checks_the_coxeter_number(monkeypatch):
    # A4's diagram passed off as D4's: marks sum to 5, the Coxeter number is 6
    a4 = rootdata._gram_matrix(SimpleType("A", 4))
    monkeypatch.setattr(rootdata, "_gram_matrix", lambda t: a4)
    with pytest.raises(InvariantError):
        _affine_diagram.__wrapped__(SimpleType("D", 4))


def test_theta_read_off_the_marks_must_be_a_root(monkeypatch):
    # theta is the marks' sum of simple roots: doubled marks name 2 theta,
    # which is no root
    e6 = SimpleType("E", 6)
    gram, marks, scale = _affine_diagram(e6)
    doubled = (1,) + tuple(2 * m for m in marks[1:])
    monkeypatch.setattr(rootdata, "_affine_diagram", lambda t: (gram, doubled, scale))
    twice = tuple(2 * c for c in build_root_system(e6).theta)
    with pytest.raises(InvariantError) as exc:
        build_root_system.__wrapped__(e6)
    assert str(exc.value) == f"E6: theta {twice} from the affine marks is not a root"


def test_make_and_replace_validate():
    # NamedTuple's own _make, which _replace calls, skips __new__
    with pytest.raises(ValueError):
        SimpleType._make(("E", 9))
    with pytest.raises(ValueError):
        SimpleType("E", 6)._replace(rank=9)
    assert SimpleType("E", 6)._replace(rank=7) == SimpleType("E", 7)


@pytest.mark.parametrize("family", list("ABCDEFG") + ["H"])
def test_simple_type_refuses_as_the_dict_of_rank_tests(family):
    # the module-level rank rule accepts and refuses what the dict of rank
    # tests built per call does, with the same ValueError text
    for rank in range(-1, 31):
        refusal = dict_rank_refusal(family, rank)
        if refusal is None:
            t = SimpleType(family, rank)
            assert (t.family, t.rank) == (family, rank)
            continue
        with pytest.raises(ValueError) as exc:
            SimpleType(family, rank)
        assert str(exc.value) == refusal


def test_simple_types_lists_the_grid_within_the_cap():
    grid = [
        SimpleType(f, r) for f in "ABCDEFG" for r in range(1, 31)
        if dict_rank_refusal(f, r) is None and f + str(r) not in ("B2", "D3")
    ]
    for cap in (0, 3, 13, 14, 52, 78, 133, 248, 312, 600):
        assert simple_types(cap) == sorted(t for t in grid if t.dim() <= cap), cap


def test_invalid_types_rejected():
    with pytest.raises(ValueError):
        SimpleType("E", 9)
    with pytest.raises(ValueError):
        SimpleType("G", 3)
    with pytest.raises(ValueError):
        SimpleType("D", 2)
