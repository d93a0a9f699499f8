import fractions
import random
from fractions import Fraction as Q

import pytest

from orbifold24 import cases, latticevoa
from orbifold24.exactmath import InvariantError
from orbifold24.latticevoa import (
    NI_D4_6,
    NI_E6_4,
    GlueCode,
    LatticeIsometry,
    _slot_maps_to_isometry,
    assemble_niemeier,
    build_isometry,
    count_orthogonal_subsystems,
    disc_digit_action,
    fixed_projection_norm,
    fixed_subalgebra,
    fpf_d4_matrix,
    fpf_e6_matrix,
    glue_automorphism_group_order,
    identify_type,
    lattice_from_basis,
    lattice_roots,
    mat_mul,
    root_lattice,
    sigma4_candidates,
    standard_lift,
    twisted_ground_energy,
    weight_one_algebra,
    weyl_d4_matrix,
)
from orbifold24.rootdata import SimpleType

from helpers import (
    fraction_centralizer,
    fraction_slot_maps_to_isometry,
    permutation_first_glue_order,
    rough_lift,
)


@pytest.fixture(scope="module")
def ne6():
    return assemble_niemeier(NI_E6_4)


@pytest.fixture(scope="module")
def nd4():
    return assemble_niemeier(NI_D4_6)


@pytest.fixture(scope="module")
def alg_e6(ne6):
    return weight_one_algebra(ne6)


@pytest.fixture(scope="module")
def alg_d4(nd4):
    return weight_one_algebra(nd4)


def test_glue_code_words():
    assert len(NI_E6_4.words()) == 9
    assert len(NI_D4_6.words()) == 64
    # minimum weights justify the root-count argument
    assert min(sum(1 for d in w if d) for w in NI_E6_4.words() if any(w)) == 3
    assert min(sum(1 for d in w if d) for w in NI_D4_6.words() if any(w)) == 4


def test_assembly_even_unimodular(ne6, nd4):
    # unimodularity and evenness are verified during assembly
    assert ne6.glue_index() == 9
    assert nd4.glue_index() == 64
    for lat in (ne6, nd4):
        for i in range(lat.rank):
            assert lat.gram[i][i] % 2 == 0


def test_root_counts(ne6, nd4):
    assert len(lattice_roots(ne6)) == 288
    assert len(lattice_roots(nd4)) == 144


def test_component_isometries_certified():
    # construction already asserts order 3, integrality, fixed-point-freeness
    fpf_e6_matrix()
    fpf_d4_matrix()
    weyl_d4_matrix()


def test_disc_actions():
    phi = fpf_d4_matrix()
    act = disc_digit_action(SimpleType("D", 4), phi)
    # fixed-point-free rotations must 3-cycle the nontrivial cosets
    orbit = {1}
    for _ in range(3):
        orbit.add(act[max(orbit)])
    assert act[0] == 0
    assert sorted(act[d] for d in (1, 2, 3)) == [1, 2, 3]
    assert all(act[d] != d for d in (1, 2, 3))


def test_isometries(ne6, nd4):
    s6 = build_isometry(ne6, "sigma6")
    s2 = build_isometry(nd4, "sigma2")
    s4 = build_isometry(nd4, "sigma4")
    for iso in (s6, s2, s4):
        assert iso.order() == 3
        assert iso.preserves_gram()
    assert len(s6.fixed_coords_basis()) == 6
    assert len(s2.fixed_coords_basis()) == 0
    assert len(s4.fixed_coords_basis()) == 6


def test_algebra_dims(alg_e6, alg_d4):
    assert alg_e6.dim == 312
    assert alg_d4.dim == 168


@pytest.mark.parametrize("which", ["e6", "d4"])
def test_jacobi_identity_sampled(which, alg_e6, alg_d4):
    alg = alg_e6 if which == "e6" else alg_d4
    rng = random.Random(99)
    for _ in range(2500):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        x, y, z = {i: Q(1)}, {j: Q(1)}, {k: Q(1)}
        lhs = alg.bracket(x, alg.bracket(y, z))
        r1 = alg.bracket(alg.bracket(x, y), z)
        r2 = alg.bracket(y, alg.bracket(x, z))
        for idx, c in r2.items():
            r1[idx] = r1.get(idx, Q(0)) + c
        assert lhs == {a: b for a, b in r1.items() if b}


def test_form_invariance_sampled(alg_d4):
    alg = alg_d4
    rng = random.Random(5)
    for _ in range(400):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        x, y, z = {i: Q(1)}, {j: Q(1)}, {k: Q(1)}
        lhs = alg.form(alg.bracket(x, y), z)
        rhs = alg.form(x, alg.bracket(y, z))
        assert lhs == rhs


@pytest.fixture(scope="module")
def lift6(ne6, alg_e6):
    return standard_lift(alg_e6, build_isometry(ne6, "sigma6"))


@pytest.fixture(scope="module")
def lift2(nd4, alg_d4):
    return standard_lift(alg_d4, build_isometry(nd4, "sigma2"))


@pytest.fixture(scope="module")
def lift4(nd4, alg_d4):
    return standard_lift(alg_d4, build_isometry(nd4, "sigma4"))


def test_lifts_are_automorphisms_everywhere(lift6, lift2, lift4):
    # complete check on every bracket-relevant root pair
    assert lift6.verify_automorphism()
    assert lift2.verify_automorphism()
    assert lift4.verify_automorphism()


def test_glue_index_squared_is_discriminant_product():
    assert len(NI_E6_4.words()) ** 2 == 3**4
    assert len(NI_D4_6.words()) ** 2 == 4**6


def test_lift_cubes_to_identity(lift6, lift2, lift4):
    for lift in (lift6, lift2, lift4):
        assert lift.compose(lift).compose(lift).is_identity()


def test_identity_lift(alg_d4, nd4):
    n = nd4.rank
    ident = LatticeIsometry(
        nd4,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
        "id",
    )
    lift = standard_lift(alg_d4, ident)
    assert lift.is_identity()


def test_standard_phase_on_fixed_roots(lift6):
    alg = lift6.algebra
    for k in range(alg.n_roots):
        if lift6.root_perm[k] == k:
            assert lift6.root_phase[k] == 1


def test_fixed_dims(lift6, lift2, lift4):
    assert fixed_subalgebra(lift6).dim == 102
    assert fixed_subalgebra(lift2).dim == 48
    assert fixed_subalgebra(lift4).dim == 54


def test_fixed_types(lift6, lift2, lift4):
    assert str(identify_type(fixed_subalgebra(lift6))) == "A2,1 A2,1 A2,1 E6,3"
    assert (
        str(identify_type(fixed_subalgebra(lift2)))
        == "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3"
    )
    assert (
        str(identify_type(fixed_subalgebra(lift4)))
        == "A1,1 A1,1 A1,1 A2,3 A2,3 D4,3 U(1)"
    )


def reflection(lat, alg, root_idx, name):
    beta = alg.root_coords[root_idx]
    n = lat.rank
    rows = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        ip = alg.ip_coords(e, beta)
        rows.append(tuple(e[j] - ip * beta[j] for j in range(n)))
    return LatticeIsometry(lat, tuple(rows), name)


def test_identify_type_conjugation_invariant(nd4, alg_d4, lift2):
    rng = random.Random(31)
    base = str(identify_type(fixed_subalgebra(lift2)))
    for _ in range(3):
        w1 = rough_lift(alg_d4, reflection(nd4, alg_d4, rng.randrange(144), "w1"))
        w2 = rough_lift(alg_d4, reflection(nd4, alg_d4, rng.randrange(144), "w2"))
        conj = (
            w1.compose(w2)
            .compose(lift2)
            .compose(w2.inverse())
            .compose(w1.inverse())
        )
        assert str(identify_type(fixed_subalgebra(conj))) == base


def test_identify_single_component():
    # an untouched component algebra identifies as itself at level 1
    lat = root_lattice(SimpleType("D", 4))
    alg = weight_one_algebra(lat)
    n = lat.rank
    ident = LatticeIsometry(
        lat,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
        "id",
    )
    lift = standard_lift(alg, ident)
    assert str(identify_type(fixed_subalgebra(lift))) == "D4,1"


def a2_cubed_cycle_lift():
    """Standard lift of the plain 3-cycle on the block lattice A2+A2+A2."""
    # the block lattice of three A2 components, on the unit basis
    code = GlueCode((SimpleType("A", 2),) * 3, ())
    unit = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
    lat = lattice_from_basis(code, unit, 1)
    assert lat.gram == tuple(
        tuple(2 if i == j else -1 if i // 2 == j // 2 else 0 for j in range(6))
        for i in range(6)
    )
    alg = weight_one_algebra(lat)
    assert alg.dim == 24
    perm = [[0] * 6 for _ in range(6)]
    for c in range(3):
        for i in range(2):
            perm[2 * c + i][2 * ((c + 1) % 3) + i] = 1
    iso = LatticeIsometry(lat, tuple(tuple(r) for r in perm), "cycle")
    return standard_lift(alg, iso)


def test_identify_diagonal_triple_level():
    # the diagonal of three copies is the same type at triple level: realize
    # it as the fixed algebra of the plain 3-cycle on A2+A2+A2
    fixed = fixed_subalgebra(a2_cubed_cycle_lift())
    assert fixed.dim == 8
    assert str(identify_type(fixed)) == "A2,3"


@pytest.fixture(scope="module")
def fixed_algebras(lift6, lift2, lift4):
    """(lift, fixed subalgebra) per isometry, each table built once."""
    lifts = {
        "sigma6": lift6, "sigma2": lift2, "sigma4": lift4,
        "a2_cycle": a2_cubed_cycle_lift(),
    }
    return {name: (lift, fixed_subalgebra(lift)) for name, lift in lifts.items()}


@pytest.mark.parametrize("which", ["sigma6", "sigma2", "sigma4", "a2_cycle"])
def test_fixed_table_matches_big_algebra(which, fixed_algebras):
    # oracle: re-expand every table entry in the big algebra's basis and
    # compare it with the big algebra's own bracket and form
    lift, fx = fixed_algebras[which]
    alg, basis, table = lift.algebra, fx.basis, fx.brackets
    for i in range(fx.dim):
        assert table[i][i] == {}
        for j in range(i + 1, fx.dim):
            entry = table[i][j]
            assert all(type(c) is int and c != 0 for c in entry.values())
            assert table[j][i] == {k: -c for k, c in entry.items()}
            expanded = {}
            for k, c in entry.items():
                for idx, v in basis[k].items():
                    expanded[idx] = expanded.get(idx, 0) + c * v
            assert {a: v for a, v in expanded.items() if v} == alg.bracket(
                basis[i], basis[j]
            )
        for j in range(fx.dim):
            assert type(fx.gram[i][j]) is int
            assert fx.gram[i][j] == alg.form(basis[i], basis[j])


@pytest.mark.parametrize(
    "rows, message",
    [
        (lambda b: [tuple(2 * x for x in r) for r in b], "not integral"),
        (lambda b: b[:1], "outside the fixed sublattice"),
    ],
    ids=["index-2-sublattice", "too-few-rows"],
)
def test_fixed_table_checks_fire(monkeypatch, rows, message):
    # a Cartan basis of index 2 gives half-integral structure constants, and
    # one that does not span the fixed space cannot reconstruct the brackets
    lift = a2_cubed_cycle_lift()
    basis = lift.isometry.fixed_coords_basis()
    monkeypatch.setattr(LatticeIsometry, "fixed_coords_basis", lambda self: rows(basis))
    with pytest.raises(InvariantError, match=message):
        fixed_subalgebra(lift)


@pytest.mark.parametrize(
    "which, seeds, expected",
    [
        ("sigma2", range(20), "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3"),
        ("sigma4", range(20), "A1,1 A1,1 A1,1 A2,3 A2,3 D4,3 U(1)"),
        ("sigma6", range(5), "A2,1 A2,1 A2,1 E6,3"),
    ],
    ids=["sigma2", "sigma4", "sigma6"],
)
def test_identify_type_seed_sweep(which, seeds, expected, fixed_algebras, monkeypatch):
    # the float pass is seeded; every seed must give the seed-7 type that
    # test_fixed_types pins.  Every generic element drawn on the way is also
    # run through the Fraction centraliser oracle.
    _, fx = fixed_algebras[which]
    integer_centralizer = latticevoa._generic_centralizer
    verdicts = []

    def checked(brackets, x, ortho):
        ker, ad_rows, abelian = integer_centralizer(brackets, x, ortho)
        want, want_abelian = fraction_centralizer(brackets, x, ortho)
        assert [[Q(v, den) for v in row] for row, den in ker] == want
        assert abelian == want_abelian
        verdicts.append(abelian)
        return ker, ad_rows, abelian

    monkeypatch.setattr(latticevoa, "_generic_centralizer", checked)
    assert [str(identify_type(fx, seed=s)) for s in seeds] == [expected] * len(seeds)
    assert verdicts.count(True) == len(seeds)


def test_twisted_ground_energies(ne6, nd4):
    s6 = build_isometry(ne6, "sigma6")
    rho, mults = twisted_ground_energy(s6)
    assert rho == 1 and mults == [6, 9, 9]
    s2 = build_isometry(nd4, "sigma2")
    rho2, mults2 = twisted_ground_energy(s2)
    assert rho2 == Q(4, 3) and mults2 == [0, 12, 12]
    # identity
    n = ne6.rank
    ident = LatticeIsometry(
        ne6,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
        "id",
    )
    assert twisted_ground_energy(ident)[0] == 0
    # negation: rho = rank / 16
    neg = LatticeIsometry(
        ne6,
        tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n)),
        "neg",
    )
    assert twisted_ground_energy(neg)[0] == Q(24, 16)


def test_ground_energy_symmetric_under_inversion(ne6):
    s6 = build_isometry(ne6, "sigma6")
    inv = LatticeIsometry(ne6, s6.power(2), "sigma6^2")
    assert twisted_ground_energy(s6)[0] == twisted_ground_energy(inv)[0]


def test_fixed_projection_norms(ne6):
    s6 = build_isometry(ne6, "sigma6")
    u = NI_E6_4.word_vector((0, 1, 0, 0))
    proj, norm = fixed_projection_norm(ne6, s6, u)
    assert norm == Q(4, 9)
    u0 = NI_E6_4.word_vector((1, 0, 0, 0))
    proj0, norm0 = fixed_projection_norm(ne6, s6, u0)
    assert norm0 == 0 and all(x == 0 for x in proj0)
    n = ne6.rank
    ident = LatticeIsometry(
        ne6,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
        "id",
    )
    proj_u, _ = fixed_projection_norm(ne6, ident, u)
    assert proj_u == u


def test_subsystem_counts():
    assert count_orthogonal_subsystems(SimpleType("E", 6), SimpleType("A", 2), 3) == 40
    assert count_orthogonal_subsystems(SimpleType("D", 4), SimpleType("A", 1), 3) == 12
    assert count_orthogonal_subsystems(SimpleType("A", 2), SimpleType("A", 2), 1) == 1
    assert count_orthogonal_subsystems(SimpleType("E", 6), SimpleType("A", 1), 3) == 540
    assert count_orthogonal_subsystems(SimpleType("D", 4), SimpleType("A", 1), 4) == 3
    assert count_orthogonal_subsystems(SimpleType("A", 5), SimpleType("A", 2), 2) == 10


def test_glue_automorphism_orders():
    assert glue_automorphism_group_order(NI_E6_4) == 48
    assert glue_automorphism_group_order(NI_D4_6) == 2160
    assert glue_automorphism_group_order(GlueCode((SimpleType("E", 6),), ())) == 2
    assert glue_automorphism_group_order(GlueCode((SimpleType("D", 4),), ())) == 6


def test_glue_orders_match_permutation_first_oracle():
    reordered = GlueCode(
        NI_D4_6.components, tuple(random.Random(6).sample(NI_D4_6.generators, 6))
    )
    assert reordered.generators != NI_D4_6.generators
    for code in (
        NI_E6_4,
        NI_D4_6,
        GlueCode((SimpleType("E", 6),), ()),
        GlueCode((SimpleType("D", 4),), ()),
        reordered,
    ):
        assert glue_automorphism_group_order(code) == permutation_first_glue_order(code)


def slot_map_decision(certify, lat, slot_maps):
    try:
        return certify(lat, slot_maps, "cand").matrix
    except ValueError:
        return None


def test_slot_maps_match_fraction_oracle(ne6, nd4):
    # the search prefix up to the sigma4 that build_isometry accepts and a
    # seeded sample of the accepted and of the rejected rest (the Fraction
    # products take 5 ms a candidate), plus the sigma6 and sigma2 slot maps
    candidates = list(sigma4_candidates())
    s4 = build_isometry(nd4, "sigma4")
    decisions = [
        slot_map_decision(_slot_maps_to_isometry, nd4, sm) for sm in candidates
    ]
    first = decisions.index(s4.matrix)
    rest = range(first + 1, len(candidates))
    accepted = [i for i in rest if decisions[i] is not None]
    rejected = [i for i in rest if decisions[i] is None]
    assert len(accepted) > 100
    rng = random.Random(4)
    picks = list(range(first + 1)) + rng.sample(accepted, 40) + rng.sample(rejected, 40)
    for i in picks:
        want = slot_map_decision(fraction_slot_maps_to_isometry, nd4, candidates[i])
        assert decisions[i] == want
    phi6, ident = fpf_e6_matrix(), [[int(i == j) for j in range(6)] for i in range(6)]
    phi4 = fpf_d4_matrix()
    for lat, slot_maps in (
        (ne6, [(0, phi6), (2, ident), (3, ident), (1, ident)]),
        (nd4, [(c, phi4) for c in range(6)]),
        (nd4, [(c, mat_mul(phi4, phi4)) for c in range(6)]),
    ):
        assert slot_map_decision(_slot_maps_to_isometry, lat, slot_maps) == (
            slot_map_decision(fraction_slot_maps_to_isometry, lat, slot_maps)
        )


# 165 on Python 3.11: fpf_d4_matrix, weyl_d4_matrix and the digit action
FRACTION_CEILING = 300


def test_lattice_setup_builds_few_fractions(monkeypatch):
    # the isometry search and the root coordinates run in integers; only the
    # small component matrices (4x4 inverses, digit representatives) are
    # rational, so a Fraction loop coming back shows as thousands here
    lat, _ = cases.lattice_data("d4_6")
    roots = lattice_roots(lat)
    cases.lattice_isometry.cache_clear()
    built = [0]
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    iso = cases.lattice_isometry("d4_6", "sigma4")
    during_isometry = built[0]
    coords = [lat.coords_of(r) for r in roots]
    during_coords = built[0] - during_isometry
    monkeypatch.undo()
    assert iso.order() == 3 and None not in coords
    assert during_isometry <= FRACTION_CEILING
    assert during_coords == 0

