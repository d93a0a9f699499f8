from fractions import Fraction as Q
from itertools import product
from math import gcd
from operator import mul

import pytest

from orbifold24 import cli, schellekens
from orbifold24.rootdata import SemisimpleTypeWithLevels, SimpleType
from orbifold24.rootdata import _affine_diagram, kac_fixed_subalgebra, simple_types
from orbifold24.schellekens import (
    _diagram_automorphisms,
    _inner_options_at_level_one,
    _order3_label_vectors,
    admits_order3_with_fixed,
    enumerate_candidates,
    filter_candidates,
    order3_fixed_options,
    simple_ideals_with_ratio,
)

from helpers import (
    backtracking_admits,
    brute_force_diagram_automorphisms,
    count_moves,
    fraction_order3_fixed_options,
    fstring_type_name,
    RootFilter,
    semisimple_rank,
)
from orbifold24.affinerep import inner_fixed_subalgebra
from orbifold24.cases import BUILTIN_CASES, lattice_fixed_type


def names(pool):
    return {(str(t), k) for t, k in pool}


def test_ratio_twelve_pool():
    pool = simple_ideals_with_ratio(Q(12), 312)
    assert names(pool) == {("A11", 1), ("C11", 1), ("D7", 1), ("E6", 1)}


def test_ratio_six_pool():
    pool = simple_ideals_with_ratio(Q(6), 168)
    # the reference lists the C5 entry at level 2 and the A11 entry at level
    # 1; the ratio constraint forces levels 1 and 2 respectively
    assert names(pool) == {
        ("A5", 1),
        ("A11", 2),
        ("C5", 1),
        ("D4", 1),
        ("D7", 2),
        ("E6", 2),
        ("E7", 3),
    }


def test_ratio_huge_is_empty():
    assert simple_ideals_with_ratio(Q(1000), 312) == []


def test_every_pool_entry_satisfies_ratio():
    for r, cap in ((Q(12), 312), (Q(6), 168), (Q(3), 100)):
        for t, k in simple_ideals_with_ratio(r, cap):
            assert Q(t.dual_coxeter_number()) == r * k
            assert t.dim() <= cap


def test_candidates_312():
    cands = enumerate_candidates(312, Q(12))
    assert [str(c) for c in cands] == [
        "A11,1 D7,1 E6,1",
        "E6,1 E6,1 E6,1 E6,1",
    ]
    for c in cands:
        assert c.dim() == 312
        assert c.abelian_rank == 0


def test_candidates_168():
    cands = enumerate_candidates(168, Q(6))
    assert len(cands) == 4
    got = {str(c) for c in cands}
    assert got == {
        "A5,1 A5,1 A5,1 A5,1 D4,1",
        "D4,1 D4,1 D4,1 D4,1 D4,1 D4,1",
        "A5,1 E7,3",
        "A5,1 C5,1 E6,2",
    }


def test_candidates_zero_dim():
    cands = enumerate_candidates(0, Q(6))
    assert len(cands) == 1 and cands[0].dim() == 0


def test_d4_options():
    opts = order3_fixed_options(SimpleType("D", 4), 1)
    results = {(o.kind, str(o.result)) for o in opts}
    assert ("outer", "A2,3") in results
    assert ("outer", "G2,1") in results
    assert ("inner", "A1,1 A1,1 A1,1 U(1)") in results
    assert ("trivial", "D4,1") in results


def test_d4_outer_level_scales():
    opts = order3_fixed_options(SimpleType("D", 4), 2)
    results = {str(o.result) for o in opts if o.kind == "outer"}
    assert results == {"A2,6", "G2,2"}


def test_e6_trivalent_option():
    opts = order3_fixed_options(SimpleType("E", 6), 1)
    assert any(str(o.result) == "A2,1 A2,1 A2,1" for o in opts)


def test_a1_options():
    opts = order3_fixed_options(SimpleType("A", 1), 1)
    assert {str(o.result) for o in opts} == {"A1,1", "U(1)"}


def test_filter_e6g2():
    cands = enumerate_candidates(312, Q(12))
    target = SemisimpleTypeWithLevels.parse("E6,3 A2,1 A2,1 A2,1")
    survivors = filter_candidates(cands, target)
    assert [str(c) for c, _ in survivors] == ["E6,1 E6,1 E6,1 E6,1"]
    loser = next(c for c in cands if "A11" in str(c))
    assert admits_order3_with_fixed(loser, target) is None


def test_filter_a2x6_and_a5d4():
    cands = enumerate_candidates(168, Q(6))
    t2 = SemisimpleTypeWithLevels.parse("A2,3 A2,3 A2,3 A2,3 A2,3 A2,3")
    t3 = SemisimpleTypeWithLevels.parse("A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1")
    for target in (t2, t3):
        survivors = filter_candidates(cands, target)
        assert [str(c) for c, _ in survivors] == [
            "D4,1 D4,1 D4,1 D4,1 D4,1 D4,1"
        ]
    a5s = next(c for c in cands if "A5,1 A5,1" in str(c))
    assert admits_order3_with_fixed(a5s, t2) is None


def test_witness_rank_bookkeeping():
    cands = enumerate_candidates(312, Q(12))
    target = SemisimpleTypeWithLevels.parse("E6,3 A2,1 A2,1 A2,1")
    winner = next(c for c in cands if str(c) == "E6,1 E6,1 E6,1 E6,1")
    witness = admits_order3_with_fixed(winner, target)
    assert witness is not None
    total_rank = semisimple_rank(target) + target.abelian_rank
    assert total_rank <= sum(t.rank for t, _ in winner.ideals)
    # witness contributions reassemble the target exactly
    acc = []
    ab = 0
    for _, _, contributed in witness:
        acc.extend(contributed.ideals)
        ab += contributed.abelian_rank
    assert SemisimpleTypeWithLevels.of(list(acc), ab) == target


def test_trivial_only_assignment_rejected():
    # identity on every ideal fixes everything but is not order 3
    cand = enumerate_candidates(312, Q(12))[1]
    assert str(cand) == "E6,1 E6,1 E6,1 E6,1"
    target = SemisimpleTypeWithLevels.parse("E6,1 E6,1 E6,1 E6,1")
    assert admits_order3_with_fixed(cand, target) is None


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B3", "C3", "D4", "G2", "F4", "E6"]
)
def test_kac_options_match_root_filter(name):
    t = SimpleType.parse(name)
    oracle = RootFilter(t)
    for level in (1, 3):
        kac = {o.result for o in order3_fixed_options(t, level) if o.kind == "inner"}
        assert kac == {
            SemisimpleTypeWithLevels(*oracle.fixed_type(s, level))
            for s in oracle.label_vectors()
        }


def test_root_filter_types_each_label_vector_as_kac_does():
    # every inner order-3 label vector of the chain types and their level-3
    # neighbours, and one vector per class of A11: the roots kept by the
    # labels give the sub-diagram rule's type, and per class the inner
    # options of the filter
    count = 0
    for name in ("E6", "G2", "A2", "A5", "D4", "A1", "D7", "A11"):
        t = SimpleType.parse(name)
        oracle = RootFilter(t)
        vectors = oracle.label_vectors()
        assert vectors == _order3_label_vectors(t), name
        if name == "A11":
            # the affine A11 diagram is a 12-cycle: its automorphisms are
            # the rotations and reflections of the labels
            classes = {}
            for s in vectors:
                turns = [s[k:] + s[:k] for k in range(len(s))]
                classes.setdefault(min(turns + [v[::-1] for v in turns]), s)
            vectors = list(classes.values())
            assert len(vectors) == 18
        for s in vectors:
            kac = kac_fixed_subalgebra(t, s)
            assert (kac.ideals, kac.abelian_rank) == oracle.fixed_type(s), (name, s)
        for level in (1, 3):
            inner = {o.result for o in order3_fixed_options(t, level) if o.kind == "inner"}
            assert inner == {
                SemisimpleTypeWithLevels(*oracle.fixed_type(s, level)) for s in vectors
            }, (name, level)
        count += len(vectors)
    assert count == 148


@pytest.mark.parametrize("name", ["A1", "A5", "C4", "D4", "E6", "E7", "F4", "G2"])
def test_label_vectors_are_the_coprime_solutions_in_order(name):
    t = SimpleType.parse(name)
    marks = _affine_diagram(t)[1]
    brute = [s for s in product(range(4), repeat=len(marks))
             if sum(map(mul, marks, s)) == 3 and gcd(*s) == 1]
    assert _order3_label_vectors(t) == brute


def test_option_tables_match_fraction_oracle():
    # every (type, level) of the ratio pools at D = 36, 48, ..., 312
    pools = {
        ideal
        for dim in range(36, 313, 12)
        for ideal in simple_ideals_with_ratio(Q(dim - 24, 24), dim)
    }
    assert len(pools) > 40 and all(type(k) is int for _, k in pools)
    for t, k in sorted(pools):
        options = order3_fixed_options(t, k)
        assert options == fraction_order3_fixed_options(t, k), (t, k)
        assert all(type(lev) is int for o in options for _, lev in o.result.ideals)


def test_candidates_carry_int_levels_in_sorted_order():
    for dim in range(36, 313, 12):
        for c in enumerate_candidates(dim, Q(dim - 24, 24)):
            assert all(type(k) is int for _, k in c.ideals)
            assert c == SemisimpleTypeWithLevels.of(c.ideals)


def test_chain_types_carry_int_levels():
    # one level kind: every type value the three built-in chains build, on
    # the forward side, in the filter's witnesses and on the lattice side
    for cf in BUILTIN_CASES.values():
        fixed = inner_fixed_subalgebra(cf.ambient, cf.h)
        dim = cf.expected_target.dim()
        candidates = enumerate_candidates(dim, Q(dim - 24, 24))
        types = [fixed, *candidates]
        for survivor, witness in filter_candidates(candidates, fixed):
            types += [survivor, lattice_fixed_type(cf)[0]]
            types += [contribution for _, _, contribution in witness]
        assert len(types) > len(candidates) + 3
        assert all(type(k) is int for ty in types for _, k in ty.ideals)


def oracle_targets(c):
    """The chain targets, and for each option of each ideal of c the
    option's result alone and c with that one ideal replaced by it."""
    targets = {
        BUILTIN_CASES[case].expected_fixed
        for case in ("e6g2", "a2x6", "a5d4")
    }
    ideals = list(c.ideals)
    for j, (t, k) in enumerate(ideals):
        rest = ideals[:j] + ideals[j + 1:]
        for o in order3_fixed_options(t, int(k)):
            targets.add(o.result)
            targets.add(SemisimpleTypeWithLevels.of(
                rest + list(o.result.ideals), o.result.abelian_rank))
    return sorted(targets, key=str)


def test_count_vector_search_matches_backtracking():
    checked = admitted = 0
    for dim in range(36, 313, 12):
        for c in enumerate_candidates(dim, Q(dim - 24, 24)):
            for target in oracle_targets(c):
                got = admits_order3_with_fixed(c, target)
                assert got == backtracking_admits(c, target), (str(c), str(target))
                checked += 1
                admitted += got is not None
    assert checked > 3000 and admitted > 1000


def test_move_lists_match_the_per_call_oracle():
    # the backtracking grid's candidates and targets: each candidate's
    # positions are its sorted ideals with the cycle open where the ideal
    # two places on is equal, and at every ideal of it, with the cycle open
    # and closed, the move list read off the option rows is the one built
    # per call
    moves = set()
    for dim in range(36, 313, 12):
        for c in enumerate_candidates(dim, Q(dim - 24, 24)):
            ideals = sorted(c.ideals)
            n = len(ideals)
            at = tuple((x, p + 2 < n and ideals[p + 2] == x) for p, x in enumerate(ideals))
            assert schellekens._positions(c) == at, str(c)
            moves.update((target, first, cycle) for target in oracle_targets(c)
                         for first in c.ideals for cycle in (False, True))
    assert len(moves) > 5000
    for target, first, cycle in moves:
        got = schellekens._moves(target, first, cycle)
        assert got == count_moves(target, first, cycle), (str(target), first, cycle)


def test_candidates_are_cached_per_dim_and_ratio():
    assert enumerate_candidates(312, Q(12)) is enumerate_candidates(312, 12)


# every type of the ratio pools at D = 36, 48, ..., 312, and A23
POOL_TYPES = sorted({SimpleType("A", 23)} | {
    t for dim in range(36, 313, 12)
    for t, _ in simple_ideals_with_ratio(Q(dim - 24, 24), dim)
})


@pytest.mark.parametrize("t", [t for t in simple_types(100) if t.rank <= 6], ids=str)
def test_diagram_automorphisms_match_brute_force(t):
    # every type with at most 7 affine nodes, against all (rank + 1)! permutations
    auts = _diagram_automorphisms(t)
    assert len(set(auts)) == len(auts)
    assert set(auts) == brute_force_diagram_automorphisms(t)


def test_diagram_automorphisms_compare_bond_values(monkeypatch):
    # on the real affine diagrams equal norms and adjacency already fix each
    # bond; on a path whose two bonds differ, only the Gram check rejects
    # the reversal
    gram = ((2, -1, 0), (-1, 2, -2), (0, -2, 2))
    monkeypatch.setattr(schellekens, "_affine_diagram", lambda t: (gram, (1, 1, 1), 1))
    assert _diagram_automorphisms(SimpleType("A", 2)) == ((0, 1, 2),)


def test_diagram_automorphism_orbit_table():
    # type: (|Aut|, label vectors, orbits), the class table per type
    table = {
        "A5": (12, 50, 6), "A11": (24, 352, 18), "A23": (48, 2576, 60),
        "D4": (24, 20, 3), "D5": (8, 24, 5), "D7": (8, 32, 7),
        "E6": (6, 17, 5), "E7": (2, 10, 5), "E8": (1, 4, 4),
        "B4": (2, 8, 4), "C4": (2, 8, 4), "F4": (1, 3, 3), "G2": (1, 2, 2),
    }
    for name, row in table.items():
        t = SimpleType.parse(name)
        got = (len(_diagram_automorphisms(t)), len(_order3_label_vectors(t)),
               len(_inner_options_at_level_one(t)))
        assert got == row, name


def test_orbits_partition_the_label_vectors():
    # every label vector lies in exactly one orbit, and the class table has
    # one entry per orbit
    assert len(POOL_TYPES) > 40
    for t in POOL_TYPES:
        vectors = _order3_label_vectors(t)
        auts = _diagram_automorphisms(t)
        orbits = {frozenset(tuple(s[i] for i in p) for p in auts) for s in vectors}
        assert sum(map(len, orbits)) == len(vectors), t
        assert set().union(*orbits) == set(vectors), t
        assert len(_inner_options_at_level_one(t)) == len(orbits), t


def test_every_option_has_class_count_one():
    for t in POOL_TYPES:
        table = _inner_options_at_level_one(t)
        assert all(table.count(opt) == 1 for opt in table), t


def test_cached_names_match_the_fstring_renderer(capsys, monkeypatch, fresh_caches):
    # every type that a cold verify-all names, every candidate and every
    # order-3 option over the ratio pools of D = 36..312: the cached name is
    # the one rendered afresh
    cached = SemisimpleTypeWithLevels.__str__
    named = []

    def record(self):
        named.append(self)
        return cached(self)

    monkeypatch.setattr(SemisimpleTypeWithLevels, "__str__", record)
    assert cli.main(["verify-all", "--json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    values = set(named)
    assert len(values) > 20
    for d in range(36, 313, 12):
        r = Q(d - 24, 24)
        values.update(enumerate_candidates(d, r))
        for t, k in simple_ideals_with_ratio(r, d):
            values.update(o.result for o in order3_fixed_options(t, k))
    assert len(values) > 400
    assert [x for x in values if str(x) != fstring_type_name(x)] == []


@pytest.mark.parametrize("level, value", [(3.0, 3), (True, 1)], ids=["float", "bool"])
def test_levels_are_ints_or_fractions(level, value, fresh_caches):
    # a float or bool level equals an int level, and names are cached per
    # value, so a type built with one would name the int-level type too
    a2 = SimpleType("A", 2)
    with pytest.raises(ValueError, match="^levels must be ints or Fractions$"):
        SemisimpleTypeWithLevels.of([(a2, level)])
    assert str(SemisimpleTypeWithLevels.of([(a2, value)])) == f"A2,{value}"
    assert str(SemisimpleTypeWithLevels.of([(a2, Q(value))])) == f"A2,{value}"


def test_equal_types_built_apart_print_one_name(fresh_caches):
    parsed = SemisimpleTypeWithLevels.parse("E6,1 A2,3 U(1)^2")
    built = SemisimpleTypeWithLevels.of(
        [(SimpleType("E", 6), Q(1)), (SimpleType("A", 2), 3)], 2
    )
    assert built == parsed and built.ideals[1][0] is not parsed.ideals[1][0]
    # the Fraction level is named first, and the int level reads its name
    assert str(built) == str(parsed) == fstring_type_name(parsed) == "A2,3 E6,1 U(1)^2"
    assert SemisimpleTypeWithLevels.__str__.cache_info().misses == 1
