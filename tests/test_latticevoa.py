import fractions
import itertools
import random
from fractions import Fraction as Q
from math import factorial, lcm

import pytest

from orbifold24 import cases, latticevoa
from orbifold24.exactmath import InvariantError, mat_mul, rank, transpose
from orbifold24.latticevoa import (
    NI_D4_6,
    NI_E6_4,
    FixedSubalgebra,
    GlueCode,
    IdentificationError,
    LatticeIsometry,
    _check_grading,
    _check_orbit_blocks,
    _glue_chain,
    _killing,
    _packed,
    _packed_twist,
    _phase_bit_expr,
    _negative_pairs,
    _slot_maps_to_isometry,
    _twist_bits,
    assemble_niemeier,
    build_isometry,
    certify_frenkel_kac,
    certify_lift,
    count_orthogonal_subsystems,
    disc_digit_action,
    fixed_projection_norm,
    fixed_subalgebra,
    glue_automorphism_group_order,
    identify_type,
    isometry_placements,
    lattice_from_basis,
    niemeier_code,
    standard_lift,
    twisted_ground_energy,
    weight_one_algebra,
)
from orbifold24.report import Report
from orbifold24.rootdata import (
    SemisimpleTypeWithLevels, SimpleType, build_root_system, simple_types,
)

import helpers
from helpers import (
    DenseLieTables,
    all_pairs_subsystem_count,
    block_probe_killing,
    bracket,
    bracket_basis,
    brute_force_types_with_ratio,
    changed_algebra,
    compose,
    dense_ad,
    dense_rows,
    dense_table,
    draw_generic,
    eps_coords,
    eps_route_lift,
    eps_twist_bits,
    float_identify_type,
    form,
    fraction_centralizer,
    fraction_coords,
    fraction_fixed_projection_norm,
    fraction_gram_matrix,
    fraction_ip,
    fraction_slot_maps_to_isometry,
    from_dense_table,
    full_killing,
    generic_centralizer,
    integer_kernel,
    inverse,
    inverse_lift,
    ip_coords,
    is_identity,
    lattice_roots,
    lattice_to_ambient,
    named_witness,
    numpy_lie_tables,
    TYPED_DIGIT_LAWS,
    TYPED_DIGIT_MAPS,
    pair_probe_fixed_subalgebra,
    per_choice_glue_order,
    per_entry_check_orbit_blocks,
    permutation_first_glue_order,
    root_lattice,
    rough_lift,
    sum_parity_pairs,
    sum_phase_bit_expr,
    tuple_check_grading,
    verify_automorphism,
)


def built_isometry(lat, name):
    """The builder's isometry for the named built-in case's forward witness."""
    return build_isometry(lat, named_witness(name), name)


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


@pytest.mark.parametrize("t", sorted(TYPED_DIGIT_LAWS), ids=str)
def test_digit_addition_matches_coset_representatives(t):
    # the addition table is the typed group law of the discriminant group,
    # and the sum of two coset representatives lies in the coset of the
    # added digit, that is den * (the difference) is 0 mod den
    den, reps, add = latticevoa._digit_reps(t)
    for a in range(len(reps)):
        for b in range(len(reps)):
            assert add[a][b] == TYPED_DIGIT_LAWS[t](a, b), (a, b)
            diff = [x + y - z for x, y, z in zip(reps[a], reps[b], reps[add[a][b]])]
            assert all(x % den == 0 for x in diff), (a, b)


# the fundamental weights behind each nonzero glue digit, in digit order
DIGIT_WEIGHTS = {SimpleType("E", 6): (0, 5), SimpleType("D", 4): (0, 2, 3)}


@pytest.mark.parametrize("t", sorted(DIGIT_WEIGHTS), ids=str)
def test_digit_reps_are_the_fraction_inverse_over_its_denominator(t):
    # den * (row i of the Fraction inverse Cartan matrix), den its least
    # common denominator: 3 for E6, 2 for D4
    den, reps, _ = latticevoa._digit_reps(t)
    inv = inverse(build_root_system(t).simple_roots)
    assert den == lcm(*(x.denominator for row in inv for x in row)) == {6: 3, 4: 2}[t.rank]
    assert reps[0] == (0,) * t.rank
    assert [list(r) for r in reps[1:]] == [[den * x for x in inv[i]] for i in DIGIT_WEIGHTS[t]]
    assert all(type(x) is int for r in reps for x in r)
    # each coset's norm floor is the Fraction norm of its representative mod 2
    gram = fraction_gram_matrix(t)
    for d in range(1, len(reps)):
        x = [Q(c, den) for c in reps[d]]
        n, unit = latticevoa._coset_norm_floor(t, d)
        assert Q(n, unit) == (fraction_ip(gram, x, x) % 2 or 2)


ADE_TYPES = [t for t in simple_types(700) if t.family in "ADE"]


@pytest.mark.parametrize("t", ADE_TYPES, ids=str)
def test_digit_reps_are_the_discriminant_group(t):
    # one digit per coset of P/Q, det(Cartan) of them, the determinant also
    # read off the Fraction inverse; each nonzero digit is den times a
    # Fraction inverse row at a node of affine mark 1, den the inverse's
    # least common denominator; the addition table is an abelian group law
    # and equals the Fraction congruence oracle
    den, reps, add = latticevoa._digit_reps(t)
    cartan = build_root_system(t).simple_roots
    inv = inverse(cartan)
    assert len(reps) == helpers.det(cartan) == 1 / helpers.det(inv)
    assert den == lcm(*(x.denominator for row in inv for x in row))
    weights = helpers.fraction_digit_weights(t)
    assert [list(r) for r in reps] == [[den * x for x in w] for w in weights]
    digits = range(len(reps))
    assert all(add[0][a] == add[a][0] == a for a in digits)
    assert all(add[a][b] == add[b][a] for a in digits for b in digits)
    assert all(0 in add[a] for a in digits)
    assert all(
        add[add[a][b]][c] == add[a][add[b][c]] for a in digits for b in digits for c in digits
    )
    assert [list(row) for row in add] == helpers.fraction_digit_law(weights)


@pytest.mark.parametrize("t", [t for t in ADE_TYPES if t != SimpleType("E", 8)], ids=str)
def test_coset_lookup_needs_each_coset_listed_once(t):
    # a vector congruent to a representative mod den looks up its digit;
    # with its coset dropped from the list, or listed twice, the lookup fails
    den, reps, _ = latticevoa._digit_reps(t)
    shifted = [(r[0] + den,) + r[1:] for r in reps]
    assert [latticevoa._coset(den, reps, x) for x in shifted] == list(range(len(reps)))
    for listed, x, n in ((reps[:-1], reps[-1], 0), (reps + reps[1:2], reps[1], 2)):
        with pytest.raises(InvariantError) as exc:
            latticevoa._coset(den, listed, x)
        assert str(exc.value) == f"{x} / {den} lies in {n} listed cosets"


@pytest.mark.parametrize("name", ["B3", "C2", "F4", "G2"])
def test_glue_digits_need_a_simply_laced_type(name):
    with pytest.raises(ValueError, match=f"^no glue digits defined for {name}$"):
        latticevoa._digit_reps(SimpleType.parse(name))


def test_disc_digit_action_rejects_a_map_off_the_weight_lattice():
    # the projection onto the first coordinate sends E6's first minuscule
    # weight outside P, into none of the cosets
    t = SimpleType("E", 6)
    den, reps, _ = latticevoa._digit_reps(t)
    first = [[int(i == j == 0) for j in range(t.rank)] for i in range(t.rank)]
    img = (reps[1][0],) + (0,) * (t.rank - 1)
    with pytest.raises(InvariantError) as exc:
        disc_digit_action(t, first)
    assert str(exc.value) == f"{img} / {den} lies in 0 listed cosets"


def test_assembly_even_unimodular(ne6, nd4):
    # unimodularity and evenness are verified during assembly
    assert ne6.glue_index() == 9
    assert nd4.glue_index() == 64
    for lat in (ne6, nd4):
        for i in range(lat.rank):
            assert lat.gram[i][i] % 2 == 0


def test_root_counts(ne6, nd4, alg_e6, alg_d4):
    assert alg_e6.n_roots == len(lattice_roots(ne6)) == 288
    assert alg_d4.n_roots == len(lattice_roots(nd4)) == 144


@pytest.mark.parametrize("which", ["e6_4", "d4_6", "a2_cubed"])
def test_lie_tables_match_numpy_oracle(which, alg_e6, alg_d4):
    # the per-component integer build against one int64 pass over every
    # pair of roots of the whole lattice
    alg = {"e6_4": alg_e6, "d4_6": alg_d4}.get(which) or a2_cubed_cycle_lift().algebra
    coords, component, cr, pairs = numpy_lie_tables(alg.lattice)
    assert alg.root_coords == coords
    assert alg.root_component == component
    assert alg.root_index == {c: k for k, c in enumerate(coords)}
    assert alg.cr == cr
    assert alg.pairs == pairs


@pytest.mark.parametrize(
    "t",
    [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)],
    ids=lambda t: f"{t[0]}{t[1]}",
)
def test_root_pairings_match_covector_sums(t):
    # oracle: scale * (a|b) summed term by term through each root's covector
    # picks the negative pairs, and a + b is looked up by simple-root coords
    rs = build_root_system(SimpleType(*t))
    index = {ac: k for k, ac in enumerate(rs.root_alpha_coords)}
    want = [
        [
            (q, index.get(tuple(map(sum, zip(rs.root_alpha_coords[p], ac))), -1))
            for q, (y, ac) in enumerate(zip(rs.roots, rs.root_alpha_coords))
            if sum(a * b for a, b in zip(cov, y)) < 0
        ]
        for p, cov in enumerate(map(rs.covector, rs.roots))
    ]
    assert [list(row) for row in _negative_pairs(SimpleType(*t))] == want


@pytest.mark.parametrize("which", ["e6_4", "d4_6", "a2_cycle"])
def test_pairs_match_sum_parity_oracle(which, alg_e6, alg_d4):
    # the popcount of two bit masks against the parity summed term by term
    alg = {"e6_4": alg_e6, "d4_6": alg_d4}.get(which) or a2_cubed_cycle_lift().algebra
    assert alg.pairs == sum_parity_pairs(alg.lattice)
    assert any(sgn == -1 for row in alg.pairs for _, sgn in row.values())


def _inverse_entry_changed():
    # basis_inv over denominator 2, with one entry off by 1/2
    lat = root_lattice(SimpleType("A", 2))
    inv = [[2 * x for x in row] for row in lat.basis_inv]
    inv[0][0] += 1
    return lat._replace(basis_inv=tuple(map(tuple, inv)), inv_scale=2)


@pytest.mark.parametrize(
    "lattice",
    [
        _inverse_entry_changed,
        lambda: lattice_from_basis(GlueCode((SimpleType("A", 2),), ()), [[2, 0], [0, 2]], 1),
    ],
    ids=["basis-inv-entry", "doubled-root-lattice"],
)
def test_root_outside_the_lattice_is_caught(lattice):
    with pytest.raises(InvariantError, match="a root is outside the lattice"):
        weight_one_algebra(lattice())


@pytest.mark.parametrize(
    "name,error",
    [
        ("G2", "the G2 root lattice is not integral"),
        ("C3", "the C3 root lattice is not integral"),
        ("F4", "the F4 root lattice is not integral"),
        ("B3", "lattice is not even"),
    ],
)
def test_lattice_from_basis_rejects_a_non_even_root_lattice(name, error):
    # a component whose gram needs a scale above 1 is not integral; B3's is
    # integral, but its short simple root has norm 1
    t = SimpleType.parse(name)
    unit = [[int(i == j) for j in range(t.rank)] for i in range(t.rank)]
    with pytest.raises(InvariantError, match=f"^{error}$"):
        lattice_from_basis(GlueCode((t,), ()), unit, 1)


CATALOGUE_KEYS = list(latticevoa._CATALOGUE)
D4_OUTER = (SimpleType("D", 4), "outer", "A2,3")


def test_component_isometries_certified():
    # building each entry certifies order 3, fixed-point-freeness where the
    # entry asks for it, and the trivial digit action of a reflection word
    latticevoa._catalogue_powers.cache_clear()
    for key in CATALOGUE_KEYS:
        one, m, m2 = latticevoa._catalogue_powers(key)
        assert mat_mul(m2, m) == [list(row) for row in one]


@pytest.mark.parametrize("key", CATALOGUE_KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
def test_catalogue_entry_matches_hand_made_oracle(key):
    m = latticevoa._catalogue_powers(key)[1]
    assert [list(row) for row in m] == helpers.CATALOGUE_ORACLES[key]()


def test_every_catalogue_entry_is_used_by_a_builtin_witness():
    used = {
        (ideals[0][0], kind, str(option))
        for name in ("sigma6", "sigma2", "sigma4")
        for kind, ideals, option in named_witness(name)
    }
    assert used == set(CATALOGUE_KEYS)


def test_disc_actions():
    phi = latticevoa._catalogue_powers(D4_OUTER)[1]
    act = disc_digit_action(SimpleType("D", 4), phi)
    # fixed-point-free rotations must 3-cycle the nontrivial cosets
    orbit = {1}
    for _ in range(3):
        orbit.add(act[max(orbit)])
    assert act[0] == 0
    assert sorted(act[d] for d in (1, 2, 3)) == [1, 2, 3]
    assert all(act[d] != d for d in (1, 2, 3))


def test_isometries(ne6, nd4):
    s6 = built_isometry(ne6, "sigma6")
    s2 = built_isometry(nd4, "sigma2")
    s4 = built_isometry(nd4, "sigma4")
    for iso in (s6, s2, s4):
        assert iso.order == 3
        assert iso.preserves_gram
    assert len(s6.fixed_basis) == 6
    assert len(s2.fixed_basis) == 0
    assert len(s4.fixed_basis) == 6


@pytest.mark.parametrize("name", ["sigma6", "sigma2", "sigma4"])
def test_builder_matches_the_hand_written_shapes(name, ne6, nd4, alg_e6, alg_d4):
    # sigma6 and sigma2 come out as the oracle's very matrices; the sigma4
    # search meets another glue-compatible isometry first, with the same
    # order, fixed type and dim, fixed-sublattice rank and ground energy
    lat, alg = (ne6, alg_e6) if name == "sigma6" else (nd4, alg_d4)
    new, old = built_isometry(lat, name), helpers.named_shape_isometry(lat, name)
    if name != "sigma4":
        assert new.matrix == old.matrix

    def invariants(iso):
        fx = fixed_subalgebra(standard_lift(alg, iso))
        return (iso.order, str(identify_type(fx)), fx.dim,
                len(iso.fixed_basis), twisted_ground_energy(iso))

    assert invariants(new) == invariants(old)


def test_sigma4_search_certifies_43_candidates(nd4, monkeypatch):
    # the hand-written sigma4 search certified 66 slot maps before its first
    # order-3 isometry; the placements of the witness need 43
    calls = []
    certify = latticevoa._slot_maps_to_isometry

    def counting(*args):
        calls.append(args[1])
        return certify(*args)

    monkeypatch.setattr(latticevoa, "_slot_maps_to_isometry", counting)
    built_isometry(nd4, "sigma4")
    assert len(calls) == 43
    assert calls == list(isometry_placements(nd4, named_witness("sigma4")))[:43]


def test_catalogue_matrix_is_built_once(nd4, monkeypatch):
    # the catalogue's matrices are constants: the sigma2 and sigma4 builds
    # call the builder once per entry they use (D4 outer, inner and cycle)
    calls = []
    original = latticevoa.local_isometry

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(latticevoa, "local_isometry", counting)
    latticevoa._catalogue_powers.cache_clear()
    for name in ("sigma2", "sigma4"):
        assert built_isometry(nd4, name).order == 3
    d4_words = [w for (t, _, _), (_, w, _) in latticevoa._CATALOGUE.items() if t.rank == 4]
    assert sorted(word for _, _, word in calls) == sorted(d4_words)


def test_witness_that_does_not_fit_is_a_value_error(ne6, nd4):
    with pytest.raises(ValueError, match="^the witness's ideals are not the lattice's E6,1"):
        built_isometry(ne6, "sigma2")
    # a fitting witness whose option has no catalogue entry: D4 -> G2 (outer)
    g2 = SemisimpleTypeWithLevels.parse("G2,1")
    witness = [("outer", ((SimpleType("D", 4), 1),), g2)] * 6
    with pytest.raises(ValueError, match="no catalogued isometry of D4"):
        build_isometry(nd4, witness, "g2")


def test_algebra_dims(alg_e6, alg_d4):
    assert alg_e6.dim == 312
    assert alg_d4.dim == 168


def test_identity_isometry_gives_the_root_system_each_code_is_keyed_by(ne6, nd4, alg_e6, alg_d4):
    # oracle for the lookup by root system: the identity's fixed subalgebra
    # is the whole weight-one algebra, identified with the exact certificate
    for code, lat, alg in ((NI_E6_4, ne6, alg_e6), (NI_D4_6, nd4, alg_d4)):
        n = lat.rank
        ident = LatticeIsometry.of(
            lat, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )
        fixed = fixed_subalgebra(standard_lift(alg, ident))
        found = identify_type(fixed)
        assert found == code.root_system() and niemeier_code(found) is code
        assert fixed.dim == 24 + alg.n_roots


@pytest.mark.parametrize("which", ["e6", "d4"])
def test_jacobi_identity_sampled(which, alg_e6, alg_d4):
    alg = alg_e6 if which == "e6" else alg_d4
    rng = random.Random(99)
    for _ in range(2500):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        x, y, z = {i: Q(1)}, {j: Q(1)}, {k: Q(1)}
        lhs = bracket(alg, x, bracket(alg, y, z))
        r1 = bracket(alg, bracket(alg, x, y), z)
        r2 = bracket(alg, y, bracket(alg, x, z))
        for idx, c in r2.items():
            r1[idx] = r1.get(idx, Q(0)) + c
        assert lhs == {a: b for a, b in r1.items() if b}


def test_form_invariance_sampled(alg_d4):
    alg = alg_d4
    rng = random.Random(5)
    for _ in range(400):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        x, y, z = {i: Q(1)}, {j: Q(1)}, {k: Q(1)}
        lhs = form(alg, bracket(alg, x, y), z)
        rhs = form(alg, x, bracket(alg, y, z))
        assert lhs == rhs


@pytest.mark.parametrize("which", ["e6", "d4"])
def test_pair_table_matches_dense_tables(which, alg_e6, alg_d4):
    # oracle: the dense numpy tables over every root pair, read entry by
    # entry, on every ordered pair of basis indices; the signs of the pair
    # table are also checked against eps from its definition
    alg = alg_e6 if which == "e6" else alg_d4
    dense = DenseLieTables(alg)
    for x in range(alg.dim):
        for y in range(alg.dim):
            assert bracket_basis(alg, x, y) == dense.bracket_basis(x, y)
            assert form(alg, {x: 1}, {y: 1}) == dense.form(x, y)
    negative = 0
    for k, row in enumerate(alg.pairs):
        for l, (_, sgn) in row.items():
            assert sgn == eps_coords(alg, alg.root_coords[k], alg.root_coords[l])
            negative += 1
    assert negative == int((dense.ip_rr < 0).sum())


def test_frenkel_kac_certificate_accepts_both_built_tables(alg_e6, alg_d4):
    # its oracles are the sampled Jacobi identity and the dense tables above
    assert certify_frenkel_kac(alg_e6) is True
    assert certify_frenkel_kac(alg_d4) is True


def test_certificate_rejects_a_sign_flip_that_breaks_jacobi(nd4):
    # oracle: the flip of one sign and its antisymmetric partner, which the
    # certificate rejects, breaks the Jacobi identity on some triple of root
    # vectors from the flipped root's component
    built = weight_one_algebra(nd4)
    k = 70
    l, (s, sgn) = next((l, e) for l, e in built.pairs[k].items() if e[0] >= 0)
    alg = changed_algebra(built, pairs={
        k: {**built.pairs[k], l: (s, -sgn)},
        l: {**built.pairs[l], k: (s, -built.pairs[l][k][1])},
    })
    assert certify_frenkel_kac(alg) is False
    r = alg.rank
    comp = [r + m for m, c in enumerate(alg.root_component) if c == alg.root_component[k]]

    def jacobi(i, j, m):
        x, y, z = {i: 1}, {j: 1}, {m: 1}
        acc = bracket(alg, bracket(alg, x, y), z)
        for idx, c in bracket(alg, y, bracket(alg, x, z)).items():
            acc[idx] = acc.get(idx, 0) + c
        return bracket(alg, x, bracket(alg, y, z)) == {a: b for a, b in acc.items() if b}

    assert not all(jacobi(r + k, j, m) for j in comp for m in comp)


@pytest.fixture(scope="module")
def lift6(ne6, alg_e6):
    return standard_lift(alg_e6, built_isometry(ne6, "sigma6"))


@pytest.fixture(scope="module")
def lift2(nd4, alg_d4):
    return standard_lift(alg_d4, built_isometry(nd4, "sigma2"))


@pytest.fixture(scope="module")
def lift4(nd4, alg_d4):
    return standard_lift(alg_d4, built_isometry(nd4, "sigma4"))


def test_lifts_are_automorphisms_everywhere(lift6, lift2, lift4):
    # complete check on every bracket-relevant root pair
    assert verify_automorphism(lift6)
    assert verify_automorphism(lift2)
    assert verify_automorphism(lift4)


def passes_cube_check(lift):
    """Whether the lift passes `standard_lift`'s cube check: the root
    permutation cubes to 1 and the phases multiply to 1 around every root
    orbit."""
    perm, phase = lift.root_perm, lift.root_phase
    return all(
        perm[perm[p]] == k and s * phase[p] * phase[perm[p]] == 1
        for k, (s, p) in enumerate(zip(phase, perm))
    )


def lift_mutations(lift, rng):
    """(kind, changed lift) for the lift with two phases flipped inside each
    3-cycle of roots, and with one phase flipped or two roots' images
    swapped at eight seeded roots each."""
    perm, phase = lift.root_perm, lift.root_phase
    n = len(perm)
    cycles = sorted({min(k, perm[k], perm[perm[k]]) for k in range(n) if perm[k] != k})

    def flipped(*ks):
        return lift._replace(root_phase=tuple(-s if k in ks else s for k, s in enumerate(phase)))

    def swapped(k, l):
        images = list(perm)
        images[k], images[l] = perm[l], perm[k]
        return lift._replace(root_perm=tuple(images))

    return (
        [("flip in a 3-cycle", flipped(k, perm[k])) for k in cycles]
        + [("flip", flipped(k)) for k in rng.sample(range(n), 8)]
        + [("swap", swapped(*rng.sample(range(n), 2))) for _ in range(8)]
    )


@pytest.mark.parametrize("which", ["sigma6", "sigma2", "sigma4"])
def test_lift_certificate_matches_the_oracle_on_mutations(which, lift6, lift2, lift4):
    # oracle: the element-by-element check.  The certificate accepts the
    # built lift and refuses every mutation, as the oracle does.  Two flips
    # inside one 3-cycle keep each orbit's phase product, so they pass the
    # cube check of standard_lift, and only the certificate refuses them
    lift = {"sigma6": lift6, "sigma2": lift2, "sigma4": lift4}[which]
    assert certify_lift(lift) and verify_automorphism(lift)
    kinds = set()
    for kind, changed in lift_mutations(lift, random.Random(which)):
        assert certify_lift(changed) is verify_automorphism(changed) is False, kind
        if kind == "flip in a 3-cycle":
            assert passes_cube_check(changed)
        kinds.add(kind)
    assert kinds == {"flip in a 3-cycle", "flip", "swap"}


def test_lift_certificate_accepts_other_automorphisms(nd4, alg_d4, lift2):
    # automorphisms that are no standard lift: a rough lift of a reflection,
    # its inverse, and lift2 conjugated by it; the oracle agrees
    w = rough_lift(alg_d4, reflection(nd4, alg_d4, 17))
    for lift in (w, inverse_lift(w), compose(compose(w, lift2), inverse_lift(w))):
        assert certify_lift(lift) and verify_automorphism(lift)


def test_glue_index_squared_is_discriminant_product():
    assert len(NI_E6_4.words()) ** 2 == 3**4
    assert len(NI_D4_6.words()) ** 2 == 4**6


def test_lift_cubes_to_identity(lift6, lift2, lift4):
    for lift in (lift6, lift2, lift4):
        assert is_identity(compose(compose(lift, lift), lift))


def test_identity_lift(alg_d4, nd4):
    n = nd4.rank
    ident = LatticeIsometry.of(
        nd4,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
    )
    lift = standard_lift(alg_d4, ident)
    assert is_identity(lift)


def test_standard_lift_matches_eps_route(nd4, alg_d4, lift6, lift2, lift4):
    # oracle: the twist bits through eps_coords, every image through
    # apply_coords and the cube through compose; rough_lift shares the bits
    # and the images, so its permutation must agree as well
    n = nd4.rank
    ident = LatticeIsometry.of(
        nd4, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    )
    lifts = [lift6, lift2, lift4, a2_cubed_cycle_lift(), standard_lift(alg_d4, ident)]
    for lift in lifts:
        alg, g = lift.algebra, lift.isometry
        assert _twist_bits(alg, [list(row) for row in g.matrix]) == eps_twist_bits(alg, g)
        want = eps_route_lift(alg, g)
        assert lift.root_perm == want.root_perm == rough_lift(alg, g).root_perm
        assert lift.root_phase == want.root_phase
    assert any(-1 in lift.root_phase for lift in lifts)


@pytest.mark.parametrize("which", ["sigma6", "sigma2", "sigma4", "a2_cycle"])
def test_phase_bits_match_sum_parity_oracle(which, lift6, lift2, lift4):
    # the bit-packed phase expression against the one summed term by term,
    # on every root and on every row of the lift's F2 system, and the
    # lift's phases against those of the oracle's route
    lift = {"sigma6": lift6, "sigma2": lift2, "sigma4": lift4}.get(which) or a2_cubed_cycle_lift()
    alg, g = lift.algebra, lift.isometry
    gm = [list(row) for row in g.matrix]
    h_bits = _twist_bits(alg, gm)
    upper, diag = _packed_twist(h_bits)
    rows = (list(alg.root_coords) + list(g.fixed_basis) + gm
            + mat_mul(gm, gm))
    for v in rows:
        lin, const = _phase_bit_expr(upper, diag, v)
        want_lin, want_const = sum_phase_bit_expr(alg, h_bits, v)
        assert [(lin >> j) & 1 for j in range(alg.rank)] == want_lin
        assert const == want_const
    assert lift.root_phase == eps_route_lift(alg, g).root_phase


def test_lift_with_a_wrong_phase_solution_is_refused(ne6, alg_e6, monkeypatch):
    # flipping bit 6 of the F2 solution keeps phase 1 on the fixed
    # sublattice but breaks c(b) c(gb) c(g^2 b) = 1, so the phases no longer
    # multiply to 1 around every root orbit
    solve = latticevoa._solve_f2

    def flipped(rows, rhs, n):
        return solve(rows, rhs, n) ^ 1 << 6

    monkeypatch.setattr(latticevoa, "_solve_f2", flipped)
    with pytest.raises(InvariantError, match="does not cube to the identity"):
        standard_lift(alg_e6, built_isometry(ne6, "sigma6"))


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


def reflection(lat, alg, root_idx):
    beta = alg.root_coords[root_idx]
    n = lat.rank
    rows = []
    for i in range(n):
        e = [1 if j == i else 0 for j in range(n)]
        ip = ip_coords(alg, e, beta)
        rows.append(tuple(e[j] - ip * beta[j] for j in range(n)))
    return LatticeIsometry.of(lat, tuple(rows))


def test_identify_type_conjugation_invariant(nd4, alg_d4, lift2):
    rng = random.Random(31)
    base = str(identify_type(fixed_subalgebra(lift2)))
    for _ in range(3):
        w1 = rough_lift(alg_d4, reflection(nd4, alg_d4, rng.randrange(144)))
        w2 = rough_lift(alg_d4, reflection(nd4, alg_d4, rng.randrange(144)))
        conj = compose(
            compose(compose(compose(w1, w2), lift2), inverse_lift(w2)),
            inverse_lift(w1),
        )
        assert str(identify_type(fixed_subalgebra(conj))) == base


def test_identify_single_component():
    # an untouched component algebra identifies as itself at level 1
    lat = root_lattice(SimpleType("D", 4))
    alg = weight_one_algebra(lat)
    n = lat.rank
    ident = LatticeIsometry.of(
        lat,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
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
    iso = LatticeIsometry.of(lat, tuple(tuple(r) for r in perm))
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
    # compare it with the big algebra's own bracket and form, entry for
    # entry; a pair whose weight sum is no weight of the basis is skipped by
    # fixed_subalgebra and must bracket to 0 in the big algebra
    lift, fx = fixed_algebras[which]
    table, gram = dense_table(fx)
    alg, basis = lift.algebra, fx.basis
    weights = set(fx.weights)
    skipped = 0
    for i in range(fx.dim):
        assert table[i][i] == {}
        for j in range(i + 1, fx.dim):
            entry = table[i][j]
            if tuple(a + b for a, b in zip(fx.weights[i], fx.weights[j])) not in weights:
                assert entry == {} and bracket(alg, basis[i], basis[j]) == {}
                skipped += 1
            assert all(type(c) is int and c != 0 for c in entry.values())
            assert table[j][i] == {k: -c for k, c in entry.items()}
            expanded = {}
            for k, c in entry.items():
                for idx, v in basis[k].items():
                    expanded[idx] = expanded.get(idx, 0) + c * v
            assert {a: v for a, v in expanded.items() if v} == bracket(alg, basis[i], basis[j])
        for j in range(fx.dim):
            assert type(gram[i][j]) is int
            assert gram[i][j] == form(alg, basis[i], basis[j])
    # sigma2 has no fixed Cartan, so one weight and nothing to skip
    assert (skipped > 0) == (which != "sigma2")


@pytest.mark.parametrize("which", ["sigma6", "sigma2", "sigma4", "a2_cycle"])
def test_sparse_rows_hold_nonzero_entries(which, fixed_algebras):
    # every stored entry is a nonzero int, the bracket rows are
    # antisymmetric, the form rows symmetric, and t is abelian
    _, fx = fixed_algebras[which]
    nc = len(fx.weights[0])
    for i, row in enumerate(fx.brackets):
        for j, entry in row.items():
            assert entry and all(type(c) is int and c != 0 for c in entry.values())
            assert fx.brackets[j][i] == {k: -c for k, c in entry.items()}
            assert not (i < nc and j < nc)
    for i, row in enumerate(fx.gram):
        for j, v in row.items():
            assert type(v) is int and v != 0
            assert fx.gram[j][i] == v


@pytest.mark.parametrize(
    "rows, message",
    [
        (lambda b: [tuple(2 * x for x in r) for r in b], "not integral"),
        (lambda b: b[:1], "outside the fixed sublattice"),
        (lambda b: (), "outside the fixed sublattice"),
    ],
    ids=["index-2-sublattice", "too-few-rows", "no-rows"],
)
def test_fixed_table_checks_fire(rows, message):
    # a Cartan basis of index 2 gives half-integral structure constants, and
    # one that does not span the fixed space cannot reconstruct the brackets,
    # nor can an empty one, whose solve has no unknowns; the changed basis
    # is handed in as a changed isometry
    lift = a2_cubed_cycle_lift()
    iso = lift.isometry
    lift = lift._replace(isometry=iso._replace(fixed_basis=rows(iso.fixed_basis)))
    with pytest.raises(InvariantError, match=message) as got:
        fixed_subalgebra(lift)
    with pytest.raises(InvariantError) as want:
        pair_probe_fixed_subalgebra(lift)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "which, message",
    [
        ("sigma6", "outside the fixed sublattice"),
        ("sigma2", "no multiple of an orbit sum"),
        ("sigma4", "no multiple of an orbit sum"),
    ],
)
def test_flipped_orbit_phases_raise(which, message, fixed_algebras):
    # flipping the phases of two roots in one 3-cycle keeps the orbit's
    # phase product at 1, but the lift is no automorphism any more: the
    # first bracket that shows it has a Cartan part off the fixed sublattice
    # (sigma6) or a root part that is no multiple of an orbit sum
    lift, _ = fixed_algebras[which]
    k = next(k for k, p in enumerate(lift.root_perm) if p != k)
    k1 = lift.root_perm[k]
    phase = list(lift.root_phase)
    phase[k] *= -1
    phase[k1] *= -1
    bad = lift._replace(root_phase=tuple(phase))
    with pytest.raises(InvariantError, match=message) as got:
        fixed_subalgebra(bad)
    with pytest.raises(InvariantError) as want:
        pair_probe_fixed_subalgebra(bad)
    assert str(got.value) == str(want.value)


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
    # oracle: the seeded float root pass; every seed must give the type the
    # exact certificate gives, and test_fixed_types pins.  Every generic
    # element drawn on the way is also run through the Fraction centraliser
    # oracle.
    _, fx = fixed_algebras[which]
    integer_centralizer = helpers.generic_centralizer
    verdicts = []

    def checked(brackets, weights, x, ortho):
        ker, abelian = integer_centralizer(brackets, weights, x, ortho)
        want, want_abelian = fraction_centralizer(brackets, x, ortho)
        assert [[Q(v, den) for v in row] for row, den in ker] == want
        assert abelian == want_abelian
        verdicts.append(abelian)
        return ker, abelian

    monkeypatch.setattr(helpers, "generic_centralizer", checked)
    certified = str(identify_type(fx))
    assert certified == expected
    assert [str(float_identify_type(fx, seed=s)) for s in seeds] == [certified] * len(seeds)
    assert verdicts.count(True) == len(seeds)


def test_identify_type_redraws_a_degenerate_abelian_centralizer(
    fixed_algebras, monkeypatch
):
    # at seed 69 the first draw on sigma2 is not semisimple: its centraliser
    # is abelian, but the form on it is singular, so it is no Cartan
    # subalgebra and the float oracle must draw again
    _, fx = fixed_algebras["sigma2"]
    integer_centralizer = helpers.generic_centralizer
    kernels = []

    def recording(brackets, weights, x, ortho):
        out = integer_centralizer(brackets, weights, x, ortho)
        kernels.append(out)
        return out

    monkeypatch.setattr(helpers, "generic_centralizer", recording)
    assert str(float_identify_type(fx, seed=69)) == "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3"
    assert len(kernels) >= 2
    ker, abelian = kernels[0]
    rows = [row for row, _ in ker]
    assert abelian
    gram = dense_table(fx)[1]
    assert rank(mat_mul(mat_mul(rows, gram), transpose(rows))) < len(rows)


ALL_FIXED = ["sigma6", "sigma2", "sigma4", "a2_cycle"]


@pytest.mark.parametrize("which", ALL_FIXED)
def test_weights_are_the_diagonal_of_ad_t(which, fixed_algebras):
    # basis[:nc] is the fixed Cartan t; ad(t_i) read from the table is
    # diagonal with entry w_j[i] at basis[j], and each orbit sum's weight is
    # the pairing of the Cartan rows with any root of its orbit
    lift, fx = fixed_algebras[which]
    alg = lift.algebra
    nc = len(lift.isometry.fixed_basis)
    rows = [[b.get(i, 0) for i in range(alg.rank)] for b in fx.basis[:nc]]
    brackets = dense_table(fx)[0]
    assert all(len(w) == nc for w in fx.weights)
    for i in range(nc):
        assert all(set(brackets[i][j]) <= {j} for j in range(fx.dim))
        diagonal = [brackets[i][j].get(j, 0) for j in range(fx.dim)]
        assert diagonal == [w[i] for w in fx.weights]
    for j, b in enumerate(fx.basis):
        if j < nc:
            assert fx.weights[j] == (0,) * nc
        else:
            for idx in b:
                root = alg.root_coords[idx - alg.rank]
                assert fx.weights[j] == tuple(ip_coords(alg, row, root) for row in rows)


ORBIT_SHAPES = {
    "sigma6": [("E6", 1, 24), ("E6", 3, 78)],
    "sigma2": [("D4", 1, 8)] * 6,
    "sigma4": [("D4", 3, 28), ("D4", 1, 10), ("D4", 1, 8), ("D4", 1, 8)],
    "a2_cycle": [("A2", 3, 8)],
}


@pytest.mark.parametrize("which", ALL_FIXED)
def test_orbit_blocks(which, fixed_algebras):
    # the blocks are the sigma-orbits of components; a block's Cartan rows
    # are fixed lattice vectors that pair to 0 with every root of the other
    # components, and its orbit sums are made of its own components' roots
    lift, fx = fixed_algebras[which]
    alg = lift.algebra
    shapes = [(str(o.type), o.length, len(o.indices)) for o in fx.orbits]
    assert sorted(shapes) == sorted(ORBIT_SHAPES[which])
    assert sorted(i for o in fx.orbits for i in o.indices) == list(range(fx.dim))
    nc = len(fx.weights[0])
    for o in fx.orbits:
        comps = {alg.root_component[i - alg.rank]
                 for j in o.indices if j >= nc for i in fx.basis[j]}
        assert len(comps) == o.length
        for j in (j for j in o.indices if j < nc):
            row = [fx.basis[j].get(i, 0) for i in range(alg.rank)]
            assert mat_mul([row], lift.isometry.matrix) == [row]
            for k, c in enumerate(alg.root_component):
                if c not in comps:
                    assert ip_coords(alg, row, alg.root_coords[k]) == 0


@pytest.mark.parametrize("which", ALL_FIXED)
def test_block_killing_matches_full_killing(which, fixed_algebras):
    _, fx = fixed_algebras[which]
    kill = _killing(fx.brackets)
    assert dense_rows(kill, fx.dim) == full_killing(dense_table(fx)[0])


def identity_lift(alg):
    """The standard lift of the identity isometry: every root is fixed."""
    n = alg.rank
    ident = LatticeIsometry.of(
        alg.lattice, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    )
    return standard_lift(alg, ident)


ORACLE_LIFTS = ALL_FIXED + ["id_e6_4", "id_d4_6"]


@pytest.fixture(scope="module")
def oracle_lifts(fixed_algebras, alg_e6, alg_d4):
    """The lifts of fixed_algebras and the identity lifts of both lattices."""
    lifts = {name: lift for name, (lift, _) in fixed_algebras.items()}
    lifts["id_e6_4"] = identity_lift(alg_e6)
    lifts["id_d4_6"] = identity_lift(alg_d4)
    return lifts


@pytest.mark.parametrize("which", ORACLE_LIFTS)
def test_certificate_steps_match_their_pair_probe_oracles(which, oracle_lifts):
    # oracle: the four steps identify_type runs on a lift, pair by pair.
    # The bucketed table equals the probed one entry for entry, both checks
    # pass on it in either form, and the indexed Killing form equals the one
    # summed over the (w, -w) pairs of weight blocks
    fx = fixed_subalgebra(oracle_lifts[which])
    assert fx == pair_probe_fixed_subalgebra(oracle_lifts[which])
    for check in (_check_grading, tuple_check_grading,
                  _check_orbit_blocks, per_entry_check_orbit_blocks):
        check(fx)
    assert _killing(fx.brackets) == block_probe_killing(fx.brackets, fx.weights)


@pytest.mark.parametrize("which", ORACLE_LIFTS)
def test_bucketed_walk_partners_are_the_first_root_partners(which, oracle_lifts):
    # (g^p a|g^q b) = (a|g^(q-p) b), so the pair-table rows of all roots of
    # an orbit sum reach the same orbit sums (or none, -1) as the row of its
    # first root: walking every row finds the partners that probing from
    # the first root finds, and every stored entry of the row is one of them
    lift = oracle_lifts[which]
    alg, r = lift.algebra, lift.algebra.rank
    fx = fixed_subalgebra(lift)
    nc = len(fx.weights[0])
    member = {k - r: i for i, b in enumerate(fx.basis[nc:], nc) for k in b}
    for i in range(nc, fx.dim):
        roots = [k - r for k in fx.basis[i]]
        walked = {member.get(b, -1) for a in roots for b in alg.pairs[a]}
        assert walked == {member.get(b, -1) for b in alg.pairs[roots[0]]}
        assert (fx.brackets[i].keys() | fx.gram[i].keys()) - set(range(nc)) <= walked


def shifted_weight(fx, k, m, delta):
    """A copy of fx in which basis vector k's weight is off by delta in
    Cartan coordinate m, and the Cartan rows act on k by the new weight, so
    that only the grading of the other bracket entries can show it."""
    weights = list(fx.weights)
    w = list(weights[k])
    w[m] += delta
    weights[k] = tuple(w)
    brackets = [dict(row) for row in fx.brackets]
    brackets[m].pop(k, None)
    brackets[k].pop(m, None)
    if w[m]:
        brackets[m][k], brackets[k][m] = {k: w[m]}, {k: -w[m]}
    return fx._replace(weights=weights, brackets=brackets)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("which", ["sigma6", "sigma4"])
def test_a_weight_off_by_one_leaves_its_weight_block(which, delta, fixed_algebras):
    # the first orbit sum's weight off by +-1 in each Cartan coordinate in
    # turn: its brackets with the other orbit sums no longer add up, and
    # the packed keys name the same entry as the weight tuples
    _, fx = fixed_algebras[which]
    nc = len(fx.weights[0])
    assert nc == 6
    for m in range(nc):
        bad = shifted_weight(fx, nc, m, delta)
        with pytest.raises(InvariantError, match="leaves its weight block$") as got:
            _check_grading(bad)
        with pytest.raises(InvariantError) as want:
            tuple_check_grading(bad)
        assert str(got.value) == str(want.value)


def graded_table(weights, entries):
    """A table with the given weights, graded by them on its Cartan rows
    (the first len(weights[0]) basis vectors), with the bracket entries
    {(i, j): {k: c}} stored antisymmetrically."""
    nc = len(weights[0])
    brackets = [{} for _ in weights]
    for j, w in enumerate(weights):
        for m in range(nc):
            if w[m]:
                brackets[m][j], brackets[j][m] = {j: w[m]}, {j: -w[m]}
    for (i, j), entry in entries.items():
        brackets[i][j], brackets[j][i] = entry, {k: -c for k, c in entry.items()}
    return FixedSubalgebra([{}] * len(weights), weights, brackets, [{} for _ in weights], [])


@pytest.mark.parametrize(
    "entries, message",
    [
        ({}, None),
        ({(2, 3): {6: 1}}, "bracket [2, 3] leaves its weight block"),
        ({(4, 5): {7: 1}}, "bracket [4, 5] leaves its weight block"),
    ],
    ids=["graded", "sum-2M", "sum-minus-2M"],
)
def test_packed_keys_at_the_packing_width(entries, message):
    # the weights reach M = 3, so the keys pack 4 bits a coordinate, and a
    # sum of two weights reaches 2M = 6.  With one bit fewer, (3,0) + (3,0)
    # would read as (-2,1) and (-3,0) + (-3,0) as (2,-1)
    weights = [(0, 0), (0, 0), (3, 0), (3, 0), (-3, 0), (-3, 0), (-2, 1), (2, -1)]
    assert _packed(weights) == [w0 + (w1 << 4) for w0, w1 in weights]
    narrow = [w0 + (w1 << 3) for w0, w1 in weights]
    assert narrow[2] + narrow[3] == narrow[6] and narrow[4] + narrow[5] == narrow[7]
    sub = graded_table(weights, {(2, 4): {0: 1}, (3, 5): {1: -1}, **entries})
    if message is None:
        _check_grading(sub)
        tuple_check_grading(sub)
        return
    for check in (_check_grading, tuple_check_grading):
        with pytest.raises(InvariantError) as exc:
            check(sub)
        assert str(exc.value) == message


@pytest.mark.parametrize("what", ["entry", "row", "form"])
@pytest.mark.parametrize("which", ["sigma6", "sigma4"])
def test_an_entry_across_two_orbit_blocks_raises(which, what, fixed_algebras):
    # one stored bracket entry of the first block reaches a basis vector of
    # the second (the entry leaves its block), or a bracket or form entry
    # pairs the two blocks (they interact): the set-inclusion check names
    # the same entry as the one that looks up each index's block
    _, fx = fixed_algebras[which]
    a, b = fx.orbits[0].indices, fx.orbits[1].indices
    i, (j, entry) = a[-1], next(iter(fx.brackets[a[-1]].items()))
    brackets, gram = [dict(row) for row in fx.brackets], [dict(row) for row in fx.gram]
    if what == "entry":
        brackets[i][j], message = {**entry, b[0]: 1}, f"bracket [{i}, {j}] leaves its orbit block"
    elif what == "row":
        brackets[i][b[0]] = {i: 1}
        message = f"basis vectors {i} and {b[0]} of two orbit blocks interact"
    else:
        gram[i][b[0]] = 1
        message = f"basis vectors {i} and {b[0]} of two orbit blocks interact"
    bad = fx._replace(brackets=brackets, gram=gram)
    for check in (_check_orbit_blocks, per_entry_check_orbit_blocks):
        with pytest.raises(InvariantError) as exc:
            check(bad)
        assert str(exc.value) == message


def center_ortho(fx):
    """The centre's ortho columns, as identify_type builds them."""
    brackets, gram = dense_table(fx)
    center = [row for row, _ in integer_kernel(full_killing(brackets))]
    return mat_mul(gram, transpose(center)) if center else []


@pytest.mark.parametrize("which", ALL_FIXED)
def test_blocked_centralizer_matches_full_stack(which, fixed_algebras):
    # oracle: one elimination of the whole [ad(x) | ortho] stack.  The last
    # draw's t-part kills a weight of a 3-cycle block, whose Cartan lies in
    # t, so that the zero-weight part of x does not act on that weight; its
    # centraliser is not abelian and spans nonzero blocks, and must still be
    # exact
    _, fx = fixed_algebras[which]
    brackets, weights = dense_table(fx)[0], fx.weights
    ortho = center_ortho(fx)
    nc = len(weights[0])
    draws = [draw_generic(random.Random(seed), weights) for seed in range(3)]
    if nc:
        x = list(draws[0])
        cycled = [i for o in fx.orbits if o.length == 3 for i in o.indices]
        w = next(weights[i] for i in cycled if any(weights[i]))
        wt = sum(a * b for a, b in zip(w, x))
        ww = sum(a * a for a in w)
        x[:nc] = [ww * a - wt * b for a, b in zip(x[:nc], w)]
        assert sum(a * b for a, b in zip(w, x)) == 0
        draws.append(x)
    verdicts = []
    for x in draws:
        stack = dense_ad(brackets, x)
        if ortho:
            stack = [row + o for row, o in zip(stack, ortho)]
        ker, abelian = generic_centralizer(brackets, weights, x, ortho)
        assert ker == integer_kernel(stack)
        # oracle for the sparse commutator test: rows[:b] ad(k_b) = 0 for
        # every b, with every ad matrix dense
        rows = [row for row, _ in ker]
        assert abelian == (bool(rows) and all(
            not any(map(any, mat_mul(rows[:b], dense_ad(brackets, rows[b]))))
            for b in range(1, len(rows))
        ))
        verdicts.append(abelian)
    assert verdicts == [True] * 3 + [False] * (nc > 0)


def test_draw_generic_gives_up_when_every_cartan_part_kills_a_weight():
    # every t-part in [-9, 9]^2 is orthogonal to one of these weights
    weights = [(0, 0)] * 2 + [
        (a, b) for a in range(-9, 10) for b in range(-9, 10) if (a, b) != (0, 0)
    ]
    with pytest.raises(IdentificationError, match="kills a weight"):
        draw_generic(random.Random(0), weights)


def tampered(fx, i, j, k):
    """A copy of fx whose bracket [basis[i], basis[j]] gains basis[k]."""
    brackets, gram = dense_table(fx)
    assert k not in brackets[i][j]
    brackets[i][j][k] = 1
    brackets[j][i][k] = -1
    return from_dense_table(fx, brackets, gram)


def crossing_pair(fx, cartan):
    """(i, j, k): i in the zero block (a Cartan vector or not), j of nonzero
    weight, and k in neither the block of j nor the zero block."""
    nc = len(fx.weights[0])
    zero = (0,) * nc
    i = 0 if cartan else next(
        i for i in range(nc, fx.dim) if fx.weights[i] == zero
    )
    j = next(j for j in range(fx.dim) if any(fx.weights[j]))
    k = next(k for k in range(fx.dim) if fx.weights[k] not in (zero, fx.weights[j]))
    return i, j, k


@pytest.mark.parametrize(
    "cartan, message",
    [(True, "does not act by weight"), (False, "leaves its weight block")],
    ids=["cartan-row", "zero-block-row"],
)
def test_identify_type_rejects_a_block_crossing_bracket(cartan, message, fixed_algebras):
    _, fx = fixed_algebras["sigma4"]
    with pytest.raises(InvariantError, match=message):
        identify_type(tampered(fx, *crossing_pair(fx, cartan)))


def test_generic_centralizer_checks_its_blocks(fixed_algebras):
    # a zero-block element whose bracket leaves a block, and a centre that
    # pairs with a vector of nonzero weight, are both refused
    _, fx = fixed_algebras["sigma4"]
    ortho = center_ortho(fx)
    assert ortho
    i, j, k = crossing_pair(fx, cartan=False)
    x = draw_generic(random.Random(0), fx.weights)
    x[i] = 1
    bad = tampered(fx, i, j, k)
    with pytest.raises(InvariantError, match="out of its block"):
        generic_centralizer(dense_table(bad)[0], bad.weights, x, ortho)
    bad_ortho = [list(row) for row in ortho]
    bad_ortho[j][0] += 1
    with pytest.raises(InvariantError, match="pairs with the centre"):
        generic_centralizer(dense_table(fx)[0], fx.weights, x, bad_ortho)


def test_float_root_functionals_match_the_per_eigenvector_form(fixed_algebras, monkeypatch):
    # oracle for the oracle: the batched functionals of the float pass
    # against v* ad(c_k) v / v* v taken one eigenvector at a time
    import numpy as np

    _, fx = fixed_algebras["sigma4"]
    batched = helpers.root_functionals
    seen = []

    def recording(cartan, ads, vecs):
        out = batched(cartan, ads, vecs)
        seen.append((cartan, ads, vecs, out))
        return out

    monkeypatch.setattr(helpers, "root_functionals", recording)
    float_identify_type(fx)
    assert seen
    for cartan, ads, vecs, out in seen:
        for k, ((_, d), ad) in enumerate(zip(cartan, ads)):
            ad_k = np.zeros((fx.dim, fx.dim), dtype=complex)
            for j, entries in enumerate(ad):
                for col, x in entries.items():
                    ad_k[j, col] = x / d
            for i, v in enumerate(vecs.T):
                want = np.vdot(v, ad_k @ v) / np.vdot(v, v)
                assert abs(out[i, k] - want) <= 1e-9 * max(1.0, abs(want))


def types_with_ratio(r, d):
    """identify_type's lookup: the candidates at ratio h-dual / k = r / 2."""
    return [c.ideals for c in latticevoa.enumerate_candidates(d, Q(r) / 2)]


def test_types_with_ratio_matches_brute_force():
    # every ratio r = 2 h-dual / k of a simple type of dimension <= 80 at a
    # level k <= 6 (the numerator of r decides which types have an integer
    # level, and k <= 4 already reaches every numerator), every D <= 80
    ratios = {
        Q(2 * t.dual_coxeter_number(), k)
        for t in simple_types(80) for k in range(1, 7)
    }
    for r in ratios:
        want = brute_force_types_with_ratio(r, 80)
        for d in range(81):
            assert set(types_with_ratio(r, d)) == want[d], (r, d)
    named = {
        (r, d): sorted(str(SemisimpleTypeWithLevels.of(f)) for f in types_with_ratio(r, d))
        for r, d in ((6, 24), (2, 8), (4, 9), (12, 28), (4, 28))
    }
    assert named == {
        (6, 24): ["A2,1 A2,1 A2,1"],
        (2, 8): ["A2,3"],
        (4, 9): ["A1,1 A1,1 A1,1"],
        (12, 28): ["D4,1"],
        (4, 28): ["D4,3", "G2,2 G2,2"],
    }


def d4_identity_fixed():
    """The fixed algebra of the identity on the D4 root lattice: all of D4,1."""
    lat = root_lattice(SimpleType("D", 4))
    n = lat.rank
    ident = LatticeIsometry.of(
        lat, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    )
    return fixed_subalgebra(standard_lift(weight_one_algebra(lat), ident))


def scaled_gram(fx, indices, factor):
    """fx with the invariant form multiplied by factor on the given indices."""
    on = set(indices)
    brackets, gram = dense_table(fx)
    gram = [
        [g * factor if i in on and j in on else g for j, g in enumerate(row)]
        for i, row in enumerate(gram)
    ]
    return from_dense_table(fx, brackets, gram)


def test_an_ambiguous_block_names_both_answers():
    # tripled form on D4,1: (r, D) = (4, 28) fits D4,3 and G2,2 G2,2
    fx = d4_identity_fixed()
    assert str(identify_type(fx)) == "D4,1"
    bad = scaled_gram(fx, range(fx.dim), 3)
    with pytest.raises(IdentificationError, match=r"fits 2 types: D4,3; G2,2 G2,2"):
        identify_type(bad)


def test_a_block_with_two_eigenvalues_raises(fixed_algebras):
    # two sigma2 blocks read as one sigma-stable block, the form doubled on
    # one of the two A2,3 ideals: eigenvalues 2 and 1.  Undoubled, the
    # joined block shows why the certificate works per orbit: (2, 16) fits
    # A2,3 A2,3 and A1,2 A1,2 C2,3
    _, fx = fixed_algebras["sigma2"]
    a, b = fx.orbits[:2]
    merged = latticevoa.ComponentOrbit(a.type, 1, a.indices + b.indices)
    joined = fx._replace(orbits=[merged] + fx.orbits[2:])
    ambiguous = r"fits 2 types: A1,2 A1,2 C2,3; A2,3 A2,3"
    with pytest.raises(IdentificationError, match=ambiguous):
        identify_type(joined)
    with pytest.raises(IdentificationError, match="more than one eigenvalue"):
        identify_type(scaled_gram(joined, b.indices, 2))


def test_a_wrong_diagonal_block_raises(fixed_algebras):
    # the form of a 3-cycle block doubled: Killing is no longer
    # (2 h-dual / 3) gram
    _, fx = fixed_algebras["a2_cycle"]
    with pytest.raises(IdentificationError, match="is not the diagonal A2,3"):
        identify_type(scaled_gram(fx, range(fx.dim), 2))


def test_a_singular_block_form_is_an_identification_error(fixed_algebras):
    _, fx = fixed_algebras["sigma2"]
    i = fx.orbits[0].indices[0]
    brackets, gram = dense_table(fx)
    gram = [[0 if i in (a, b) else g for b, g in enumerate(row)]
            for a, row in enumerate(gram)]
    with pytest.raises(IdentificationError, match="singular"):
        identify_type(from_dense_table(fx, brackets, gram))


@pytest.mark.parametrize("what", ["bracket", "form", "leaving bracket"])
def test_a_cross_block_entry_raises(what, fixed_algebras):
    # sigma2 has no fixed Cartan, so the grading check sees no weights and
    # only the orbit-block check can refuse these
    _, fx = fixed_algebras["sigma2"]
    a, b = fx.orbits[0].indices, fx.orbits[1].indices
    if what == "bracket":
        bad, message = tampered(fx, a[0], b[0], b[1]), "two orbit blocks interact"
    elif what == "form":
        brackets, gram = dense_table(fx)
        gram[a[0]][b[0]] = gram[b[0]][a[0]] = 1
        bad, message = from_dense_table(fx, brackets, gram), "two orbit blocks interact"
    else:
        j = next(j for j in a if dense_table(fx)[0][a[0]][j])
        bad, message = tampered(fx, a[0], j, b[0]), "leaves its orbit block"
    with pytest.raises(InvariantError, match=message):
        identify_type(bad)


@pytest.mark.parametrize("which, blocks", [("sigma6", 1), ("sigma2", 6), ("sigma4", 3)])
def test_integer_trace_matches_fraction_oracle(which, blocks, fixed_algebras, monkeypatch):
    # oracle: r = tr(gram^-1 Killing) / D in Fractions on every
    # sigma-stable block, against the integer trace identify_type hands to
    # enumerate_candidates at r / 2
    _, fx = fixed_algebras[which]
    seen = []
    lookup = latticevoa.enumerate_candidates
    monkeypatch.setattr(
        latticevoa,
        "enumerate_candidates",
        lambda d, half: seen.append((2 * half, d)) or lookup(d, half),
    )
    identify_type(fx)
    brackets, gram = dense_table(fx)
    kill = full_killing(brackets)
    want = []
    for orbit in fx.orbits:
        if orbit.length == 3:
            continue
        idx = orbit.indices
        g = [[gram[i][j] for j in idx] for i in idx]
        k = [[kill[i][j] for j in idx] for i in idx]
        d = rank(k)
        inv = inverse(g)
        trace = sum(inv[i][j] * k[j][i] for i in range(len(idx)) for j in range(len(idx)))
        want.append((Q(trace) / d, d))
    assert len(want) == blocks
    assert seen == want
    assert all(type(r) is Q for r, _ in seen)


def test_twisted_ground_energies(ne6, nd4):
    s6 = built_isometry(ne6, "sigma6")
    rho, mults = twisted_ground_energy(s6)
    assert rho == 1 and mults == [6, 9, 9]
    s2 = built_isometry(nd4, "sigma2")
    rho2, mults2 = twisted_ground_energy(s2)
    assert rho2 == Q(4, 3) and mults2 == [0, 12, 12]
    # only order 3 is supported: the identity and the negation are refused
    n = ne6.rank
    for sign, order in ((1, 1), (-1, 2)):
        g = LatticeIsometry.of(
            ne6,
            tuple(tuple(sign if i == j else 0 for j in range(n)) for i in range(n)),
        )
        with pytest.raises(InvariantError, match=f"of order {order}$"):
            twisted_ground_energy(g)


def test_ground_energy_symmetric_under_inversion(ne6):
    s6 = built_isometry(ne6, "sigma6")
    square = tuple(map(tuple, mat_mul(s6.matrix, s6.matrix)))
    inv = LatticeIsometry.of(ne6, square)
    assert twisted_ground_energy(s6)[0] == twisted_ground_energy(inv)[0]


def test_fixed_projection_norms(ne6):
    s6 = built_isometry(ne6, "sigma6")
    u = NI_E6_4.word_vector((0, 1, 0, 0))
    proj, norm = fixed_projection_norm(s6, u)
    assert norm == Q(4, 9)
    u0 = NI_E6_4.word_vector((1, 0, 0, 0))
    (_, proj0), norm0 = fixed_projection_norm(s6, u0)
    assert norm0 == 0 and all(x == 0 for x in proj0)
    n = ne6.rank
    ident = LatticeIsometry.of(
        ne6,
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
    )
    proj_u, _ = fixed_projection_norm(ident, u)
    assert lattice_to_ambient(ne6, proj_u) == fraction_coords(u)
    # the ambient Fraction projection is the oracle for both glue words,
    # under sigma6 and under the identity
    for g in (s6, ident):
        for w in ((0, 1, 0, 0), (1, 0, 0, 0)):
            x = NI_E6_4.word_vector(w)
            got, got_norm = fixed_projection_norm(g, x)
            want, want_norm = fraction_fixed_projection_norm(g, fraction_coords(x))
            assert lattice_to_ambient(ne6, got) == want and got_norm == want_norm


def test_subsystem_counts():
    assert count_orthogonal_subsystems(SimpleType("E", 6), SimpleType("A", 2), 3) == 40
    assert count_orthogonal_subsystems(SimpleType("D", 4), SimpleType("A", 1), 3) == 12
    assert count_orthogonal_subsystems(SimpleType("A", 2), SimpleType("A", 2), 1) == 1
    assert count_orthogonal_subsystems(SimpleType("E", 6), SimpleType("A", 1), 3) == 540
    assert count_orthogonal_subsystems(SimpleType("D", 4), SimpleType("A", 1), 4) == 3
    assert count_orthogonal_subsystems(SimpleType("A", 5), SimpleType("A", 2), 2) == 10


@pytest.mark.parametrize(
    "ambient, part, copies",
    [
        (("E", 6), ("A", 2), 3),
        (("E", 6), ("A", 1), 3),
        (("D", 4), ("A", 1), 4),
        (("A", 5), ("A", 2), 2),
        (("E", 6), ("A", 1), 2),
        (("D", 4), ("A", 1), 2),
        (("A", 5), ("A", 1), 3),
        (("E", 6), ("A", 2), 2),
        (("D", 5), ("A", 1), 4),
        (("A", 2), ("A", 2), 0),
        (("E", 6), ("A", 2), 1),
        (("D", 4), ("A", 2), 1),
        (("A", 5), ("A", 2), 1),
    ],
)
def test_subsystem_counts_match_all_pairs_oracle(ambient, part, copies):
    args = (SimpleType(*ambient), SimpleType(*part), copies)
    assert count_orthogonal_subsystems(*args) == all_pairs_subsystem_count(*args)


def test_subsystem_count_rejects_other_patterns():
    with pytest.raises(ValueError):
        count_orthogonal_subsystems(SimpleType("E", 6), SimpleType("A", 3), 1)
    with pytest.raises(ValueError):
        count_orthogonal_subsystems(SimpleType("B", 3), SimpleType("A", 2), 1)


def test_glue_automorphism_orders():
    assert glue_automorphism_group_order(NI_E6_4) == 48
    assert glue_automorphism_group_order(NI_D4_6) == 2160
    assert glue_automorphism_group_order(GlueCode((SimpleType("E", 6),), ())) == 2
    assert glue_automorphism_group_order(GlueCode((SimpleType("D", 4),), ())) == 6


@pytest.mark.parametrize("t", [SimpleType("E", 6), SimpleType("D", 4)], ids=str)
def test_diagram_symmetries_give_the_typed_digit_maps(t):
    derived = latticevoa._disc_automorphisms(t)
    assert len(derived) == len(TYPED_DIGIT_MAPS[t])
    assert {tuple(sorted(m.items())) for m in derived} == {
        tuple(sorted(m.items())) for m in TYPED_DIGIT_MAPS[t]
    }


@pytest.mark.parametrize(("t", "k"), [(SimpleType("D", 4), 6), (SimpleType("E", 6), 7)], ids=str)
def test_trivial_code_order_is_every_permutation_and_digit_map(t, k):
    # k! * |maps|^k: 6! * 6^6 and 7! * 2^7, past the oracle's brute-force size,
    # and without the constant words its anchored search needs
    maps = len(TYPED_DIGIT_MAPS[t])
    assert glue_automorphism_group_order(GlueCode((t,) * k, ())) == factorial(k) * maps**k


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
    # the codes of the proper subsets of the generators: most orders differ
    # from 48 and 2160, so choices without a completion occur and their
    # orbits die.  The anchored search needs the constant words that most
    # D4 subcodes lack, so every subcode meets the per-choice search, and
    # the E6 ones the brute force as well.  Every element the chain keeps
    # maps each code word to a code word.
    for full in (NI_E6_4, NI_D4_6):
        gens = full.generators
        for sub in itertools.chain.from_iterable(
            itertools.combinations(gens, size) for size in range(len(gens))
        ):
            code = GlueCode(full.components, sub)
            order = glue_automorphism_group_order(code)
            assert order == per_choice_glue_order(code)
            if full is NI_E6_4:
                assert order == permutation_first_glue_order(code)
            words = code.words()
            for perm, maps in _glue_chain(code)[1]:
                for w in words:
                    assert tuple(m[w[s]] for s, m in zip(perm, maps)) in words


def slot_map_decision(certify, lat, slot_maps):
    iso = certify(lat, slot_maps)
    return None if iso is None else iso.matrix


def test_slot_maps_match_fraction_oracle(ne6, nd4):
    # per built-in witness, the builder's candidate stream up to the isometry
    # that build_isometry accepts and a seeded sample of the accepted and of
    # the rejected rest (the Fraction products take 5 ms a candidate)
    rng = random.Random(4)
    for lat, name in ((ne6, "sigma6"), (nd4, "sigma2"), (nd4, "sigma4")):
        candidates = list(isometry_placements(lat, named_witness(name)))
        decisions = [
            slot_map_decision(_slot_maps_to_isometry, lat, sm) for sm in candidates
        ]
        first = decisions.index(built_isometry(lat, name).matrix)
        rest = range(first + 1, len(candidates))
        accepted = [i for i in rest if decisions[i] is not None]
        rejected = [i for i in rest if decisions[i] is None]
        # every placement of sigma6's witness preserves the E6^4 lattice
        assert accepted and (rejected or name == "sigma6")
        picks = (list(range(first + 1)) + rng.sample(accepted, min(20, len(accepted)))
                 + rng.sample(rejected, min(20, len(rejected))))
        for i in picks:
            want = slot_map_decision(fraction_slot_maps_to_isometry, lat, candidates[i])
            assert decisions[i] == want


def test_isometry_order_and_fixed_basis_are_computed_once(monkeypatch):
    # the three lattice_fixed_type builds and every later check read the
    # order and the fixed sublattice again; each isometry is built, and its
    # facts computed, once per process
    for fn in (cases.lattice_fixed_type, cases.lattice_isometry):
        fn.cache_clear()
    built = []
    of = LatticeIsometry.of

    def counting_of(*args):
        built.append(args[1])
        return of(*args)

    monkeypatch.setattr(LatticeIsometry, "of", counting_of)
    for iso, cf in cases.ISOMETRY_CASES.items():
        cases.lattice_fixed_type(cf)
        cases.check_isometry(Report("isometry"), iso)
        twisted_ground_energy(cases.lattice_isometry(cf))
    monkeypatch.undo()
    want = [cases.lattice_isometry(cf).matrix for cf in cases.ISOMETRY_CASES.values()]
    assert sorted(built) == sorted(want)


def test_infinite_order_is_an_invariant_error(ne6):
    # a shear never returns to the identity; that is a fault of the program's
    # own isometry, not a usage error (ValueError)
    n = ne6.rank
    shear = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(n)) for i in range(n))
    with pytest.raises(InvariantError, match="^order exceeds 12$"):
        LatticeIsometry.of(ne6, shear)


# 90 on Python 3.11, the digit actions of the identity-symmetry entries
FRACTION_CEILING = 100


def test_lattice_setup_builds_few_fractions(monkeypatch):
    # the catalogue, the isometry search and the root coordinates run in
    # integers; only the digit actions of the reflection words pair with the
    # rational digit representatives, so a Fraction loop coming back shows
    # as thousands here.  The catalogue is built afresh, so it is counted
    lat, _ = cases.lattice_data(NI_D4_6.root_system())
    roots = lattice_roots(lat)
    cf = cases.ISOMETRY_CASES["sigma4"]
    cases.unique_survivor(cf)  # the forward chain is built before the count
    cases.lattice_isometry.cache_clear()
    latticevoa._catalogue_powers.cache_clear()
    built = [0]
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    iso = cases.lattice_isometry(cf)
    during_isometry = built[0]
    coords = [lat.coords_of(r, den=1) for r in roots]
    during_coords = built[0] - during_isometry
    monkeypatch.undo()
    assert iso.order == 3 and None not in coords
    assert during_isometry <= FRACTION_CEILING
    assert during_coords == 0

