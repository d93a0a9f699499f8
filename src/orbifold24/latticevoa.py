"""Rank-24 even unimodular lattices from glue codes, their order-3 isometries,
and the weight-one Lie algebra of the associated lattice vertex algebra.

Lattice vectors are rows of coordinates over the concatenated simple-root
bases of the components: four E6 components glued by a ternary code, or six
D4 components glued by a binary code whose digits label the three nontrivial
cosets of each D4 discriminant group.  A lattice keeps its basis and the
inverse basis as integer rows over one denominator each, so coordinates and
isometry certificates are integer products and divisibility tests; ranks,
inverses and kernels come from `exactmath`'s row Hermite normal form, and a
lattice is unimodular when the HNF of its Gram matrix is the identity.

An isometry is built from a witness of the order-3 filter: a catalogue gives
each witness entry's local isometry, as a Dynkin diagram symmetry and a word
in the affine diagram's reflections, and a search places the entries on the
components until the map preserves the glue, so the lattice side follows
the forward chain.  The weight-one algebra has basis {Cartan directions} +
{e^a : a a root}, with structure constants through the sign bicharacter
fixed on an ordered lattice basis.  Standard lifts are solved exactly over
F2 (phase 1 on the fixed sublattice, composite of order 3); every sign
parity there and in the bicharacter is a popcount of bit masks.  Fixed-point
subalgebras are extracted and their types and levels certified exactly, one
sigma-orbit of components at a time.  A fixed subalgebra keeps its bracket
table and form as rows of nonzero entries, graded by the fixed Cartan t:
the grading and orbit-block checks walk the stored entries, and the Killing
form sums them one weight block at a time.  Twisted ground energies are
read off the eigenvalue multiplicities of an order-3 isometry.  All of it is
exact, in Python integers: root data and glue vectors are integer rows over
one denominator each, and a rational result, such as a norm, a ground
energy or an eigenvalue ratio, is one `Fraction` made at the end.

An isometry, the weight-one algebra and a lift are values: `LatticeIsometry.of`
computes its order, fixed-sublattice basis and gram test once, and
`weight_one_algebra` and `standard_lift` build tables of tuples and read-only
mappings, with no methods; every later check reads them, none edits them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from operator import mul, xor
from types import MappingProxyType
from typing import (
    Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .exactmath import (
    InvariantError, Matrix, hnf, identity, integer_inverse, integer_row_kernel,
    mat_mul, rank, transpose,
)
from .rootdata import (
    ScaledCoords, SemisimpleTypeWithLevels, SimpleType, _affine_diagram, _gram_matrix,
    build_root_system,
)
from . import schellekens
from .schellekens import Witness, enumerate_candidates

IntVec = Tuple[int, ...]


# ---------------------------------------------------------------------------
# glue codes

# the component types of the two glue codes and the catalogue's keys
E6, D4 = SimpleType("E", 6), SimpleType("D", 4)


def _coset(den: int, reps: Sequence[IntVec], x: Sequence[int]) -> int:
    """The glue digit of x / den: the one representative reps[d] / den that
    x / den is congruent to mod the root lattice; InvariantError unless x
    lies in exactly one of the listed cosets."""
    matches = [d for d, rep in enumerate(reps) if not any((a - b) % den for a, b in zip(x, rep))]
    if len(matches) != 1:
        raise InvariantError(f"{tuple(x)} / {den} lies in {len(matches)} listed cosets")
    return matches[0]


@lru_cache(maxsize=None)
def _digit_reps(t: SimpleType) -> Tuple[int, Tuple[IntVec, ...], Tuple[IntVec, ...]]:
    """The discriminant group P/Q of a simply-laced type, read off its root
    data, as (den, den * representatives, addition table): den is the least
    common denominator of the inverse Cartan matrix Y / den, whose row i is
    fundamental weight i in simple-root coordinates.  Digit 0 is the root
    lattice and digits 1.. the minuscule weights, the rows of Y at the nodes
    of affine mark 1 in node order, one in each nonzero coset (Conway-Sloane,
    SPLAG, ch. 4); add[a][b] is the digit of the coset of the sum."""
    if t.family not in "ADE":
        raise ValueError(f"no glue digits defined for {t}")
    y, den = integer_inverse(build_root_system(t).simple_roots)
    marks = _affine_diagram(t)[1]
    reps = ((0,) * t.rank,) + tuple(tuple(y[i]) for i in range(t.rank) if marks[i + 1] == 1)
    add = tuple(
        tuple(_coset(den, reps, [p + q for p, q in zip(a, b)]) for b in reps) for a in reps
    )
    return den, reps, add


class GlueCode(NamedTuple):
    """Component root-lattice types with generator digit words."""

    components: Tuple[SimpleType, ...]
    generators: Tuple[IntVec, ...]

    @lru_cache(maxsize=None)
    def words(self) -> FrozenSet[IntVec]:
        tables = [_digit_reps(t)[2] for t in self.components]
        words = [tuple([0] * len(self.components))]
        seen = set(words)
        for w in words:  # grows while it is walked: a breadth-first search
            for g in self.generators:
                s = tuple(add[a][b] for add, a, b in zip(tables, w, g))
                if s not in seen:
                    seen.add(s)
                    words.append(s)
        return frozenset(seen)

    def word_vector(self, w: IntVec) -> ScaledCoords:
        """The glue vector of w in ambient coordinates as (den, den * vector),
        den the least common multiple of the components' digit denominators:
        the same for every word of the code."""
        reps = [_digit_reps(t) for t in self.components]
        den = lcm(*(d for d, _, _ in reps))
        return den, tuple(x * (den // d) for (d, r, _), c in zip(reps, w) for x in r[c])

    def root_system(self) -> SemisimpleTypeWithLevels:
        """The components at level 1, the weight-one type of the lattice VOA."""
        return SemisimpleTypeWithLevels.of([(t, 1) for t in self.components])

    def label(self) -> str:
        return f"{str(self.components[0]).lower()}_{len(self.components)}"


NI_E6_4 = GlueCode(
    (E6,) * 4,
    ((1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1)),
)

NI_D4_6 = GlueCode(
    (D4,) * 6,
    (
        (3, 3, 3, 3, 3, 3),
        (1, 1, 1, 1, 1, 1),
        (0, 0, 1, 2, 2, 1),
        (0, 1, 2, 2, 1, 0),
        (0, 2, 1, 0, 1, 2),
        (0, 1, 0, 1, 2, 2),
    ),
)


def niemeier_code(root_system: SemisimpleTypeWithLevels) -> GlueCode:
    """The glue code in the table with this root system, which determines a
    Niemeier lattice (Conway-Sloane, SPLAG, Table 16.1); read at each call.
    InvariantError for a root system that the table lacks."""
    for code in (NI_E6_4, NI_D4_6):
        if code.root_system() == root_system:
            return code
    raise InvariantError(f"no Niemeier glue code in the table has the root system {root_system}")


# ---------------------------------------------------------------------------
# lattice assembly


class EvenLattice(NamedTuple):
    """Even positive-definite lattice with an integer-scaled basis.

    Basis row i is basis[i] / scale in ambient coordinates, and the inverse
    of the basis matrix is basis_inv / inv_scale: integer rows over one
    denominator each, in the manner of `RootSystem.form` over its `scale`.
    """

    code: GlueCode
    basis: Tuple[IntVec, ...]                   # rows, ambient coordinates
    scale: int
    basis_inv: Tuple[IntVec, ...]
    inv_scale: int
    gram: Tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coords_of(self, x: Sequence, den: int) -> Optional[IntVec]:
        """Lattice-basis coordinates of the ambient vector x / den, or None."""
        d = den * self.inv_scale
        nz = [(xi, self.basis_inv[i]) for i, xi in enumerate(x) if xi]
        out = []
        for j in range(self.rank):
            c, r = divmod(sum(xi * row[j] for xi, row in nz), d)
            if r:
                return None
            out.append(c)
        return tuple(out)

    def component_slices(self) -> List[Tuple[int, int]]:
        out = []
        pos = 0
        for t in self.code.components:
            out.append((pos, pos + t.rank))
            pos += t.rank
        return out

    def glue_index(self) -> int:
        return len(self.code.words())


def lattice_from_basis(
    code: GlueCode, rows: Sequence[Sequence[int]], scale: int
) -> EvenLattice:
    """The lattice spanned by rows / scale inside the ambient space of the
    code's components, whose form is block-diagonal in the components' root
    grams; InvariantError unless it is integral and even."""
    n = len(rows)
    blocks = [[0] * n for _ in range(n)]
    pos = 0
    for t in code.components:
        g, s = _gram_matrix(t)
        if s != 1:
            raise InvariantError(f"the {t} root lattice is not integral")
        for i, row in enumerate(g):
            blocks[pos + i][pos:pos + t.rank] = row
        pos += t.rank
    rows = [list(r) for r in rows]
    gram_s = mat_mul(mat_mul(rows, blocks), transpose(rows))
    s2 = scale * scale
    if any(x % s2 for row in gram_s for x in row):
        raise InvariantError("lattice is not integral")
    gram = tuple(tuple(x // s2 for x in row) for row in gram_s)
    if any(gram[i][i] % 2 for i in range(n)):
        raise InvariantError("lattice is not even")
    # (rows / scale)^-1 = scale * y / d over its least denominator
    y, d = integer_inverse(rows)
    g = gcd(scale, d)
    return EvenLattice(
        code,
        tuple(tuple(r) for r in rows),
        scale,
        tuple(tuple(x * (scale // g) for x in row) for row in y),
        d // g,
        gram,
    )


def assemble_niemeier(code: GlueCode) -> EvenLattice:
    """Lattice from component roots plus glue; verified even and unimodular."""
    rank = sum(t.rank for t in code.components)
    glue = [code.word_vector(g) for g in code.generators]
    den = glue[0][0]
    int_rows = [[den * (j == i) for j in range(rank)] for i in range(rank)]
    int_rows.extend(list(v) for _, v in glue)
    basis_rows = [r for r in hnf(int_rows) if any(r)]
    if len(basis_rows) != rank:
        raise InvariantError("generators do not span a full-rank lattice")
    lat = lattice_from_basis(code, basis_rows, den)
    # unimodular iff the Hermite normal form of the Gram matrix is the
    # identity; the gram is positive definite, so its determinant is the
    # product of the HNF diagonal
    h = hnf(lat.gram)
    if h != identity(rank):
        d = prod(h[i][i] for i in range(rank))
        raise InvariantError(f"assembled lattice has determinant {d}, not 1")
    return lat


@lru_cache(maxsize=None)
def _coset_norm_floor(t: SimpleType, d: int) -> Tuple[int, int]:
    """Least positive value congruent mod 2Z to the norm of digit d's coset,
    as (unit * value, unit).  The representative is rep / den and the gram
    g / scale, so the norm is rep g rep^T over unit = den^2 scale."""
    den, reps, _ = _digit_reps(t)
    g, scale = _gram_matrix(t)
    unit = den * den * scale
    n = mat_mul(mat_mul([reps[d]], g), transpose([reps[d]]))[0][0]
    return n % (2 * unit) or 2 * unit, unit


def coset_norm_lower_bound(code: GlueCode, word: IntVec) -> Q:
    """Smallest norm possibly occurring in the glue coset of a word.

    Coset norms are fixed mod 2Z, so the bound sums, over nonzero digits,
    the least positive value congruent to the digit representative's norm,
    over the common unit of the digits' floors.
    """
    floors = [_coset_norm_floor(t, d) for t, d in zip(code.components, word) if d]
    unit = lcm(*(u for _, u in floors))
    return Q(sum(n * (unit // u) for n, u in floors), unit)


@lru_cache(maxsize=None)
def _negative_pairs(t: SimpleType) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per root p of a simply-laced type, in `root_alpha_coords` order: each
    root q with (a_p|a_q) < 0, and the index of a_p + a_q (-1 when
    a_q = -a_p).  The pairings scale * (a_p|a_q) are the rows of
    roots form roots^T, from fundamental-weight coordinates and the form."""
    rs = build_root_system(t)
    pairings = mat_mul(mat_mul(rs.roots, rs.form), transpose(rs.roots))
    keys = _packed(rs.root_alpha_coords)
    index = dict(zip(keys, range(len(keys))))
    return tuple(
        tuple((q, index.get(key + keys[q], -1)) for q, v in enumerate(row) if v < 0)
        for key, row in zip(keys, pairings)
    )


def _packed(rows: Sequence[Sequence[int]]) -> List[int]:
    """Each row packed into one integer, a signed field of `width` bits per
    coordinate: wide enough for a sum of two rows, so the keys add as the
    rows do and sums of two rows pack distinctly."""
    width = 2 + max(map(abs, itertools.chain.from_iterable(rows)), default=0).bit_length()
    return [sum(c << width * i for i, c in enumerate(x) if c) for x in rows]


# ---------------------------------------------------------------------------
# component isometries and the three named lattice isometries


class LatticeIsometry(NamedTuple):
    """Integer matrix in lattice-basis coordinates (row-vector action), with
    the facts every check reads, computed once by `of`: its order, a basis
    of the fixed sublattice (the integer kernel of matrix - 1) and whether
    it preserves the gram."""

    lattice: EvenLattice
    matrix: Tuple[IntVec, ...]
    order: int
    fixed_basis: Tuple[IntVec, ...]
    preserves_gram: bool

    @staticmethod
    def of(lattice: EvenLattice, matrix: Tuple[IntVec, ...]) -> "LatticeIsometry":
        ident = identity(len(matrix))
        cur = [list(row) for row in matrix]
        for order in range(1, 13):
            if cur == ident:
                break
            cur = mat_mul(cur, matrix)
        else:
            raise InvariantError("order exceeds 12")
        m = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(matrix)]
        fixed = tuple(tuple(r) for r in integer_row_kernel(m))
        g = lattice.gram
        gram_kept = mat_mul(mat_mul(matrix, g), transpose(matrix)) == [list(row) for row in g]
        return LatticeIsometry(lattice, matrix, order, fixed, gram_kept)


def _slot_maps_to_isometry(
    lat: EvenLattice,
    slot_maps: Sequence[Tuple[int, List[List[int]]]],
) -> Optional[LatticeIsometry]:
    """Isometry from per-component maps: component c lands in slot_maps[c][0].

    Each integer basis row is mapped block by block and must land in the
    lattice again; the first row that does not rejects the candidate: None.
    """
    slices = lat.component_slices()
    blocks = [
        (a0, a1, slices[tgt][0], local)
        for (a0, a1), (tgt, local) in zip(slices, slot_maps)
    ]
    out = []
    for row in lat.basis:
        img = [0] * lat.rank
        for a0, a1, b0, local in blocks:
            for i in range(a1 - a0):
                x = row[a0 + i]
                if x:
                    for j, v in enumerate(local[i]):
                        if v:
                            img[b0 + j] += x * v
        coords = lat.coords_of(img, lat.scale)
        if coords is None:
            return None
        out.append(coords)
    return LatticeIsometry.of(lat, tuple(out))


def _check_order3(m: List[List[int]], fixed_free: bool) -> None:
    n = len(m)
    ident = identity(n)
    m2 = mat_mul(m, m)
    if mat_mul(m2, m) != ident:
        raise InvariantError("matrix does not have order 3")
    if fixed_free and any(
        m2[i][j] + m[i][j] + ident[i][j] for i in range(n) for j in range(n)
    ):
        raise InvariantError("not fixed-point-free")


def local_isometry(
    t: SimpleType, symmetry: Sequence[int], word: Sequence[int]
) -> List[List[int]]:
    """Isometry of t's root lattice in simple-root coordinates (row-vector
    action): the diagram symmetry a_i -> a_symmetry[i] first, then the
    reflections in the word's affine nodes, left to right.

    Node 0 is -theta and node i is a_i, with the gram and marks of
    `rootdata._affine_diagram`; the reflection in node v sends x to
    x - 2 (x|v)/(v|v) v, and (x|v) is x's pairing with v's gram column.
    """
    gram, marks, _ = _affine_diagram(t)
    r = t.rank
    nodes = [[-c for c in marks[1:]]] + identity(r)
    m = [[int(symmetry[i] == j) for j in range(r)] for i in range(r)]
    for k in word:
        col = [gram[i + 1][k] for i in range(r)]
        for row in m:
            c = 2 * sum(x * g for x, g in zip(row, col)) // gram[k][k]
            row[:] = [x - c * y for x, y in zip(row, nodes[k])]
    return m


def disc_digit_action(t: SimpleType, local: List[List[int]]) -> Dict[int, int]:
    """Induced permutation of the glue digits (trivial exactly on Weyl part):
    each representative maps to the one coset (`_coset`) holding its image."""
    den, reps, _ = _digit_reps(t)
    return {d: _coset(den, reps, mat_mul([rep], local)[0]) for d, rep in enumerate(reps)}


# One local order-3 isometry per (component type, witness kind, fixed option
# at level one), as the (symmetry, word) of `local_isometry` and whether it is
# fixed-point-free; a cycle's is the rotation whose powers are its edge maps.
# On E6 the word is Carter's class 3A2 of W(E6) (Carter, Conjugacy classes in
# the Weyl group, Compositio Math. 1972), the product of the Coxeter elements
# of the orthogonal A2s (a1,a3), (a5,a6), (-theta,a2).  On D4 the outer entry
# is a fixed-point-free isometry outside the Weyl group, and the inner one a
# Weyl 3-cycle.
_CATALOGUE = {
    (E6, "inner", "A2,1 A2,1 A2,1"): ((0, 1, 2, 3, 4, 5), (3, 1, 6, 5, 0, 2), True),
    (D4, "inner", "A1,1 A1,1 A1,1 U(1)"): ((0, 1, 2, 3), (2, 1), False),
    (D4, "outer", "A2,3"): ((3, 1, 0, 2), (0, 3, 2, 4), True),
    (E6, "cycle", "E6,3"): ((0, 1, 2, 3, 4, 5), (3, 1, 6, 5, 0, 2), True),
    (D4, "cycle", "D4,3"): ((3, 1, 0, 2), (0, 3, 2, 4), True),
}


@lru_cache(maxsize=None)
def _catalogue_powers(key: Tuple[SimpleType, str, str]) -> Tuple[Matrix, ...]:
    """(1, m, m^2) for the catalogued m of key, built and certified once:
    order 3, fixed-point-free where the entry says so, and, for a word of
    reflections alone, the trivial action on the glue digits."""
    t = key[0]
    symmetry, word, fixed_free = _CATALOGUE[key]
    m = local_isometry(t, symmetry, word)
    _check_order3(m, fixed_free)
    if symmetry == tuple(range(t.rank)) and any(
        d != e for d, e in disc_digit_action(t, m).items()
    ):
        raise InvariantError(f"{t} {key[1]}: the reflection word moves the discriminant group")
    return tuple(tuple(map(tuple, x)) for x in (identity(len(m)), m, mat_mul(m, m)))


def isometry_placements(lat: EvenLattice, witness: Witness) -> Iterator[list]:
    """Slot maps placing a witness of `admits_order3_with_fixed` on the
    lattice's components, in search order: each single-ideal entry, in
    witness order, on the lowest free component of its type as its
    catalogued m, then m^2; each 3-cycle on a combination of the free
    components of its type, in both orientations, with edge maps r^e1, r^e2,
    r^(-e1-e2) of its rotation r, identity first.  The cycles vary slowest.
    ValueError for a witness that does not fit or is not catalogued;
    InvariantError for an inner option of other than one class.
    """
    comps, have = lat.code.components, lat.code.root_system()
    need = sorted(x for _, ideals, _ in witness for x in ideals)
    if need != list(have.ideals):
        raise ValueError(f"the witness's ideals are not the lattice's {have}")
    free, singles, cycles = list(range(len(comps))), [], []
    for kind, ideals, option in witness:
        t = ideals[0][0]
        pw = [identity(t.rank)]
        if kind != "trivial":
            key = (t, kind, str(option))
            if key not in _CATALOGUE:
                raise ValueError(f"no catalogued isometry of {t} ({kind}) fixes {option}")
            count = schellekens._inner_options_at_level_one(t).count(option)
            if kind == "inner" and count != 1:
                raise InvariantError(
                    f"{option} is the fixed type of {count} order-3 classes of {t}, not 1"
                )
            pw = _catalogue_powers(key)
        if kind == "cycle":
            cycles.append((t, pw))
        else:
            c = next(c for c in free if comps[c] == t)
            free.remove(c)
            singles.append([[(c, (c, m))] for m in pw[1:] or pw])

    def cycle_maps(k: int, free: List[int]) -> List[list]:
        if k == len(cycles):
            return [[]]
        t, pw = cycles[k]
        return [
            list(zip(ring, zip(ring[1:] + ring[:1], (pw[e1], pw[e2], pw[(-e1 - e2) % 3]))))
            + tail
            for a, b, c in itertools.combinations([x for x in free if comps[x] == t], 3)
            for ring in ((a, b, c), (a, c, b))
            for e1, e2 in itertools.product(range(3), repeat=2)
            for tail in cycle_maps(k + 1, [x for x in free if x not in (a, b, c)])
        ]

    for parts in itertools.product(cycle_maps(0, free), *singles):
        placed = dict(itertools.chain.from_iterable(parts))
        yield [placed[c] for c in range(len(comps))]


def build_isometry(lat: EvenLattice, witness: Witness, name: str) -> LatticeIsometry:
    """The lattice isometry of a forward witness: the first of
    `isometry_placements` that preserves the lattice, has order 3 and
    preserves the gram; InvariantError when none does.
    """
    for slot_maps in isometry_placements(lat, witness):
        iso = _slot_maps_to_isometry(lat, slot_maps)
        if iso is not None and iso.order == 3 and iso.preserves_gram:
            return iso
    raise InvariantError(f"no placement of the {name} witness preserves the glue")


# ---------------------------------------------------------------------------
# the weight-one Lie algebra of the lattice vertex algebra


def _odd_mask(xs: Sequence[int]) -> int:
    """The integer with bit i set where xs[i] is odd: a vector mod 2."""
    return sum(1 << i for i, x in enumerate(xs) if x & 1)


class LatticeLieAlgebra(NamedTuple):
    """Cartan + root vectors with the ordered-basis sign bicharacter: a
    value of tables, built once by `weight_one_algebra`, with no methods.

    Basis indices: 0..rank-1 are the Cartan directions dual to the lattice
    basis; rank+k is the root vector of the k-th root.  Every structure
    constant is +-1 or a lattice inner product.  eps is bimultiplicative with
    eps(b_i, b_j) = (-1)^(b_i|b_j) for i > j and 1 otherwise, which gives the
    commutation rule e^b e^a = (-1)^(a|b) e^a e^b: eps(x, y) = (-1)^(x L y)
    for L = `eps_low`, the strict lower triangle of the gram mod 2.

    Two read-only tables hold every structure constant: cr[k][i] is
    (b_i|a_k), a tuple of tuples, and pairs[k], a read-only mapping, maps
    each root l with (a_k|a_l) < 0 to (the index of a_k + a_l, or -1 when
    a_l = -a_k; eps(a_k, a_l)).  Roots have norm 2, so (a_k|a_l) is -1 or
    -2 there, and nonnegative pairings bracket to 0.  root_component[k] is
    the index of the component that holds root k, and root_index maps a
    root's lattice coordinates to its index.
    """

    lattice: EvenLattice
    rank: int
    root_coords: Tuple[IntVec, ...]
    root_component: Tuple[int, ...]
    root_index: Mapping[IntVec, int]
    n_roots: int
    dim: int
    eps_low: Tuple[IntVec, ...]
    cr: Tuple[IntVec, ...]
    pairs: Tuple[Mapping[int, Tuple[int, int]], ...]


def weight_one_algebra(lat: EvenLattice) -> LatticeLieAlgebra:
    """Weight-one Lie algebra of the lattice vertex algebra of an even lattice.

    The tables are built one component at a time, in Python integers, as
    roots of different components are orthogonal.  On a component whose
    simple roots have lattice coordinates E, eps's parity is E L E^T mod 2
    on simple-root coordinates, and `_negative_pairs` gives (a|b).  Each
    parity is the popcount of two bit masks (`_odd_mask`): a's row of
    that form mod 2 and b's simple-root coordinates mod 2.
    """
    # the lattice coordinates of the ambient simple roots are the rows of
    # basis_inv / inv_scale; every root is an integer combination of them
    if any(x % lat.inv_scale for row in lat.basis_inv for x in row):
        raise InvariantError("a root is outside the lattice")
    simple = [[[x // lat.inv_scale for x in row] for row in lat.basis_inv[lo:hi]]
              for lo, hi in lat.component_slices()]
    # the roots are the components' roots: norm bounds keep every
    # nonzero glue coset clear of norm-2 vectors
    for w in lat.code.words():
        if any(w) and coset_norm_lower_bound(lat.code, w) <= 2:
            raise InvariantError("a glue coset might contain norm-2 vectors")
    types = lat.code.components
    roots = []                      # (lattice coordinates, component, local index)
    for c, t in enumerate(types):
        coords = mat_mul(build_root_system(t).root_alpha_coords, simple[c])
        roots.extend((tuple(x), c, p) for p, x in enumerate(coords))
    roots.sort()
    root_coords = tuple(x for x, _, _ in roots)
    at = {(c, p): k for k, (_, c, p) in enumerate(roots)}
    # eps(x, y) = (-1)^(x L y), L the strict lower triangle of the gram
    low = tuple(tuple(x & 1 if j < i else 0 for j, x in enumerate(row))
                for i, row in enumerate(lat.gram))
    cr, pairs = [], []                      # per component, by local index
    for c, t in enumerate(types):
        e = simple[c]
        acs = build_root_system(t).root_alpha_coords
        # global root indices; the sum index -1 of opposite roots stays -1
        glob = [at[c, p] for p in range(len(acs))] + [-1]
        cr.append(mat_mul(acs, mat_mul(e, lat.gram)))
        # the parity of x L y is that of the bits odd in both x L and y
        odd = map(_odd_mask, mat_mul(acs, mat_mul(mat_mul(e, low), transpose(e))))
        ac_bits = [_odd_mask(a) for a in acs]
        pairs.append([
            MappingProxyType({
                glob[q]: (glob[s], -1 if (bits & ac_bits[q]).bit_count() & 1 else 1)
                for q, s in neg
            })
            for bits, neg in zip(odd, _negative_pairs(t))
        ])
    return LatticeLieAlgebra(
        lat, lat.rank, root_coords, tuple(c for _, c, _ in roots),
        MappingProxyType(dict(zip(root_coords, range(len(roots))))),
        len(roots), lat.rank + len(roots), low,
        tuple(tuple(cr[c][p]) for _, c, p in roots), tuple(pairs[c][p] for _, c, p in roots),
    )


def certify_frenkel_kac(alg: LatticeLieAlgebra) -> bool:
    """Whether alg's tables are the Frenkel-Kac bracket of its lattice, by
    explicit checks that also run under `python -O`:
    (a) eps from its definition on lattice coordinates: x L mod 2, L the
        gram's strict lower triangle, sums the rows of L at the odd x_i
        (neither `eps_low` nor the builder's E L E^T is used);
    (b) pairs[k][l] = (index of a_k + a_l, or -1 if a_l = -a_k; eps(a_k, a_l));
    (c) pairs[k] has 2h - 3 keys, h = h-dual of the simply-laced component
        of a_k.  Its Killing form is 2h times the form, so its roots b have
        sum (a|b)^2 = 4h: b = +-a give 8, and by Cauchy-Schwarz 4h - 8 others
        pair to +-1, half of them to -1; with -a, these are the 2h - 3 b with
        a + b a root or 0.  Other components are orthogonal to a, and by (b)
        every key is such a b, so none is missing;
    (d) cr[k] = ((b_i|a_k))_i through the gram, and every root has norm 2.
    So [t_i, e^a] = (b_i|a) e^a, [e^a, e^b] = eps(a, b) e^(a+b) if a + b is
    a root, eps(a, -a) a if b = -a, and 0 otherwise, on the norm-2 vectors
    of L; eps is bimultiplicative, with eps(a, b) eps(b, a) = (-1)^(a|b) as
    the gram diagonal is even.  That is the weight-one Lie algebra of the
    lattice vertex algebra V_L, so the Jacobi identity holds on every triple
    (Frenkel-Lepowsky-Meurman, Vertex Operator Algebras and the Monster,
    ch. 6; Kac, Infinite-Dimensional Lie Algebras, 7.8).
    """
    lat, roots, n = alg.lattice, alg.root_coords, alg.n_roots
    if tuple(map(tuple, mat_mul(roots, lat.gram))) != alg.cr or any(
        sum(map(mul, x, row)) != 2 for x, row in zip(roots, alg.cr)
    ):
        return False
    low = [_odd_mask(row[:i]) for i, row in enumerate(lat.gram)]
    odd = [_odd_mask(x) for x in roots]
    odd_low = [reduce(xor, itertools.compress(low, (c & 1 for c in x)), 0) for x in roots]
    keys = _packed(roots)
    index = dict(zip(keys, range(n)))
    if len(index) != n or len(alg.pairs) != n:
        return False
    index[0] = -1                       # the sum of two opposite roots
    valid = set(range(n))
    for k, row in enumerate(alg.pairs):
        h = lat.code.components[alg.root_component[k]].dual_coxeter_number()
        if len(row) != 2 * h - 3 or not row.keys() <= valid:
            return False
        for l, (s, sgn) in row.items():
            parity = (odd_low[k] & odd[l]).bit_count() & 1
            if s != index.get(keys[k] + keys[l]) or sgn != (-1 if parity else 1):
                return False
    return True


# ---------------------------------------------------------------------------
# standard lifts


class LiftedAutomorphism(NamedTuple):
    """Algebra automorphism covering an isometry, a value of tables: e^(a_k)
    -> root_phase[k] e^(a_(root_perm[k])), the Cartan by the isometry."""

    algebra: LatticeLieAlgebra
    isometry: LatticeIsometry
    root_phase: Tuple[int, ...]      # sign per root index
    root_perm: Tuple[int, ...]       # image root index per root index


def certify_lift(lift: LiftedAutomorphism) -> bool:
    """Whether the lift keeps the bracket, and the form eps(a, -a), on every
    entry of the pair table (`certify_frenkel_kac`): with p = root_phase and
    m = root_perm, pairs[k][l] = (s, sgn) must reappear as pairs[m k][m l] =
    (m s, sgn') with sgn p(s) = p(k) p(l) sgn', where the sum index -1 of
    opposite roots maps to -1 with p = 1.  m is a bijection, so pairs that
    bracket to 0 go to pairs that do."""
    pairs = lift.algebra.pairs
    perm, phase = lift.root_perm + (-1,), lift.root_phase + (1,)
    return all(
        pairs[perm[k]].get(perm[l]) == (perm[s], sgn * phase[s] * phase[k] * phase[l])
        for k, row in enumerate(pairs) for l, (s, sgn) in row.items()
    )


def _phase_bit_expr(
    upper: Sequence[int], diag: int, coords: Sequence[int]
) -> Tuple[int, int]:
    """Exponent of c(x) as affine F2 expression: (basis-bit mask, const).

    c(sum m_i b_i) has sign exponent
    sum m_i x_i + sum_{i<j} m_i m_j h_ij + sum_i C(m_i,2) h_ii  (mod 2).
    upper[i] masks the j > i with h_ij = 1 and diag the i with h_ii = 1.
    Mod 2 only odd m_i count in the first two sums, and C(m, 2) is odd
    exactly when m = 2, 3 mod 4, that is when m >> 1 is odd.
    """
    odd = twos = 0
    for i, m in enumerate(coords):
        if m:
            odd |= (m & 1) << i
            twos |= (m >> 1 & 1) << i
    const = (diag & twos).bit_count()
    rest = odd
    while rest:                                 # each odd m_i, lowest i first
        low = rest & -rest
        const += (upper[low.bit_length() - 1] & odd).bit_count()
        rest ^= low
    return odd, const & 1


def _solve_f2(rows: List[int], rhs: List[int], n: int) -> Optional[int]:
    """Solve an F2 linear system whose rows are bit masks over n unknowns
    (bit j the coefficient of x_j); least solution (free variables zero),
    as a bit mask."""
    m = [row | b << n for row, b in zip(rows, rhs)]
    pivots: List[int] = []
    r = 0
    for c in range(n):
        bit = 1 << c
        p = next((i for i in range(r, len(m)) if m[i] & bit), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i] & bit:
                m[i] ^= m[r]
        pivots.append(c)
        r += 1
    if any(row >> n for row in m[r:]):
        return None
    return sum((m[idx] >> n) << c for idx, c in enumerate(pivots))


def _twist_bits(alg: LatticeLieAlgebra, gm: List[List[int]]) -> List[List[int]]:
    """Bits of the symmetric bicharacter eps(gx, gy) / eps(x, y) on the
    lattice basis.  eps(x, y) = (-1)^(x L y), L the strict lower triangle of
    the gram mod 2 (`alg.eps_low`), so the bits are G L G^T + L mod 2."""
    low = alg.eps_low
    h_bits = [
        [(a + b) % 2 for a, b in zip(twisted, plain)]
        for twisted, plain in zip(mat_mul(mat_mul(gm, low), transpose(gm)), low)
    ]
    if h_bits != transpose(h_bits):
        raise InvariantError("twist bicharacter not symmetric")
    return h_bits


def _packed_twist(h_bits: List[List[int]]) -> Tuple[List[int], int]:
    """The twist bits as `_phase_bit_expr` reads them: per row i the mask of
    the j > i with h_ij = 1, and the mask of the diagonal."""
    upper = [_odd_mask(row[i + 1:]) << (i + 1) for i, row in enumerate(h_bits)]
    return upper, _odd_mask([row[i] for i, row in enumerate(h_bits)])


def standard_lift(alg: LatticeLieAlgebra, g: LatticeIsometry) -> LiftedAutomorphism:
    """Order-3 standard lift: phase 1 on the fixed sublattice.

    The phase function is the sign quadratic form refining the bicharacter
    eps(ga, gb)/eps(a, b); its free basis signs are solved over F2 so that
    the phase is 1 on a fixed-sublattice basis and the composite cubes to the
    identity.  Failure of the system is a cocycle bookkeeping error and is
    raised, never patched, and so is a lift that `certify_lift` refuses.
    """
    n = alg.rank
    gm = [list(row) for row in g.matrix]
    g2 = mat_mul(gm, gm)
    upper, diag = _packed_twist(_twist_bits(alg, gm))

    fixed = g.fixed_basis
    rows: List[int] = []
    rhs: List[int] = []
    # standardness: phase 1 on a basis of the fixed sublattice
    for f in fixed:
        lin, const = _phase_bit_expr(upper, diag, f)
        rows.append(lin)
        rhs.append(const)
    # order 3: c(b_i) c(g b_i) c(g^2 b_i) = 1 for all i
    for i in range(n):
        lin, const = 1 << i, 0
        for v in (gm[i], g2[i]):
            lv, cv = _phase_bit_expr(upper, diag, v)
            lin ^= lv
            const ^= cv
        rows.append(lin)
        rhs.append(const)
    x = _solve_f2(rows, rhs, n)
    if x is None:
        raise InvariantError("no order-3 standard phase function exists")

    def phase_of(coords: Sequence[int]) -> int:
        lin, const = _phase_bit_expr(upper, diag, coords)
        return -1 if const ^ (lin & x).bit_count() & 1 else 1

    images = mat_mul(alg.root_coords, gm)
    perm = tuple(alg.root_index[tuple(img)] for img in images)
    phase = tuple(phase_of(rc) for rc in alg.root_coords)
    # order 3 on the whole algebra: g^3 = 1 (g's certified order divides
    # 3), perm^3 = id, and the phases multiply to 1 around every root orbit
    if (
        3 % g.order
        or any(perm[perm[p]] != k for k, p in enumerate(perm))
        or any(s * phase[p] * phase[perm[p]] != 1 for s, p in zip(phase, perm))
    ):
        raise InvariantError("standard lift does not cube to the identity")
    if any(phase_of(f) != 1 for f in fixed):
        raise InvariantError("standard lift has a phase on the fixed sublattice")
    lift = LiftedAutomorphism(alg, g, phase, perm)
    if not certify_lift(lift):
        raise InvariantError("standard lift does not preserve the bracket")
    return lift


# ---------------------------------------------------------------------------
# fixed subalgebras and type identification


Weight = Tuple[int, ...]


class ComponentOrbit(NamedTuple):
    """The fixed basis vectors that come from one sigma-orbit of lattice
    components: `length` components (1 or 3) of one simple `type`."""

    type: SimpleType
    length: int
    indices: Tuple[int, ...]


class FixedSubalgebra(NamedTuple):
    """Fixed points of an order-3 lifted automorphism as a structure table.

    `basis` lists the fixed basis vectors in the big algebra: the fixed
    Cartan t, then one orbit sum per root orbit.  The basis of t is taken
    orbit by orbit: for each sigma-orbit O of components, a Z-basis of the
    fixed lattice vectors in V_O, the span of the components in O.
    `weights[i]` is the t-weight of basis[i]: ((row|a) for each Cartan row)
    for the orbit sum of a root a, and 0 on t, so basis[:nc] is t with
    nc = len(weights[0]).  Both tables hold rows of nonzero entries only:
    `brackets[i]` maps each j with [basis[i], basis[j]] != 0 to {k: the
    nonzero coefficient of basis[k]}, and `gram[i]` maps each j with
    <basis[i], basis[j]> != 0 to that value of the invariant form.  Both
    are integral and graded: [basis[i], basis[j]] has weight
    weights[i] + weights[j], and the form pairs weight w only with -w.
    `orbits` holds the basis indices of each sigma-orbit of components; the
    algebra is the direct sum of their spans.  The grading and orbit-block
    checks and the Killing form walk the stored entries alone.
    """

    basis: List[Dict[int, int]]
    weights: List[Weight]
    brackets: List[Dict[int, Dict[int, int]]]
    gram: List[Dict[int, int]]
    orbits: List[ComponentOrbit]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _component_orbits(
    lift: LiftedAutomorphism,
) -> Tuple[List[int], List[Tuple[SimpleType, int]]]:
    """The orbit index of each lattice component under the lift, and the
    (type, length) of each orbit, read from where root_perm sends the roots
    of each component; InvariantError unless the components are permuted in
    cycles of length 1 or 3."""
    comp = lift.algebra.root_component
    image: Dict[int, int] = {}
    for k, p in enumerate(lift.root_perm):
        if image.setdefault(comp[k], comp[p]) != comp[p]:
            raise InvariantError(f"the lift splits the roots of component {comp[k]}")
    orbit_of = [-1] * len(image)
    shapes: List[Tuple[SimpleType, int]] = []
    for c in range(len(image)):
        if orbit_of[c] >= 0:
            continue
        cycle = [c, image[c], image[image[c]]]
        if image[cycle[2]] != c or len(set(cycle)) == 2:
            raise InvariantError("components are not permuted in cycles of length 1 or 3")
        for x in cycle:
            orbit_of[x] = len(shapes)
        shapes.append((lift.algebra.lattice.code.components[c], len(set(cycle))))
    return orbit_of, shapes


def fixed_subalgebra(lift: LiftedAutomorphism) -> FixedSubalgebra:
    """Exact fixed-point subalgebra of an order-3 lifted automorphism.

    The Cartan rows of each orbit O of components are the fixed-sublattice
    vectors orthogonal to every root outside O.  t acts on each orbit sum
    by its weight.  Two orbit sums commute unless a root of one has
    negative inner product with a root of the other, so the brackets of
    orbit sum i come from one walk over the pair-table rows of its roots:
    each entry (a, b) is bucketed by the orbit sum j of b, and the buckets
    with j > i give [basis[i], basis[j]], partner by partner in ascending
    order.  Every nonzero pair-table entry between two orbit sums is thus
    read once from each side and used from the lower one.  The Cartan part
    of a bracket is solved through the sparse rows of the least-squares
    solver, built once per call.  The form pairs t with t through the
    lattice gram, and an orbit sum only with the orbit sum of the opposite
    roots.
    """
    alg = lift.algebra
    r = alg.rank
    orbit_of, shapes = _component_orbits(lift)
    root_orbit = [orbit_of[c] for c in alg.root_component]
    fixed = lift.isometry.fixed_basis
    nc = len(fixed)
    # (row|a) for every fixed-sublattice row and root a
    fixed_weights = (
        [tuple(w) for w in mat_mul(alg.cr, transpose(fixed))]
        if nc else [()] * alg.n_roots
    )
    # per orbit, the integer combinations of the fixed rows that pair to 0
    # with every root outside it, saturated: a Z-basis of the fixed lattice
    # vectors in the orbit's span
    combos: List[List[int]] = []
    indices: List[List[int]] = [[] for _ in shapes]
    for o in range(len(shapes)):
        outside = sorted({w for w, ro in zip(fixed_weights, root_orbit) if ro != o})
        for y in integer_row_kernel([[w[i] for w in outside] for i in range(nc)]):
            indices[o].append(len(combos))
            combos.append(y)
    if len(combos) != nc:
        raise InvariantError("the fixed Cartan does not split over the component orbits")
    cartan_rows = mat_mul(combos, fixed) if nc else []
    basis = [{i: c for i, c in enumerate(row) if c} for row in cartan_rows]
    # (row|a) for every Cartan row and root a: the t-weight of e^a
    root_weights = (
        [tuple(w) for w in mat_mul(fixed_weights, transpose(combos))]
        if nc else fixed_weights
    )
    weights: List[Weight] = [(0,) * nc] * nc
    # each root's orbit sum (-1 for none) and its coefficient there
    member = [-1] * alg.n_roots
    coef = [0] * alg.n_roots
    seen: Set[int] = set()
    for k in range(alg.n_roots):
        if k in seen:
            continue
        k1 = lift.root_perm[k]
        if k1 == k:
            seen.add(k)
            # a g-fixed root line survives only with trivial phase
            if lift.root_phase[k] == 1:
                indices[root_orbit[k]].append(len(basis))
                member[k], coef[k] = len(basis), 1
                basis.append({r + k: 1})
                weights.append(root_weights[k])
            continue
        k2 = lift.root_perm[k1]
        if lift.root_perm[k2] != k:
            raise InvariantError(f"root orbit of {k} is not a 3-cycle")
        seen.update({k, k1, k2})
        # e^a + s(a) e^(ga) + s(a)s(ga) e^(g^2 a): the unique fixed line
        s0 = lift.root_phase[k]
        s1 = s0 * lift.root_phase[k1]
        if s1 * lift.root_phase[k2] != 1:
            raise InvariantError("orbit phase product must be 1")
        # t acts on the line by one weight only if its roots pair alike
        # with every Cartan row
        if not root_weights[k] == root_weights[k1] == root_weights[k2]:
            raise InvariantError("a bracket is no multiple of an orbit sum")
        indices[root_orbit[k]].append(len(basis))
        member[k] = member[k1] = member[k2] = len(basis)
        coef[k], coef[k1], coef[k2] = 1, s0, s1
        basis.append({r + k: 1, r + k1: s0, r + k2: s1})
        weights.append(root_weights[k])
    dim = len(basis)
    # (root, coefficient) for each root of each orbit sum
    terms = [[]] * nc + [[(k - r, c) for k, c in b.items()] for b in basis[nc:]]
    brackets: List[Dict[int, Dict[int, int]]] = [{} for _ in basis]
    gram: List[Dict[int, int]] = [{} for _ in basis]
    # least-squares solver F^T (F F^T)^-1 for the Cartan part, as integer
    # rows over the denominator sden, and the Cartan rows F, both as the
    # (column, entry) pairs of their nonzero entries; with no fixed Cartan,
    # every solver row is empty
    sparse = [[(k, x) for k, x in enumerate(row) if x] for row in cartan_rows]
    solver: List[List[Tuple[int, int]]] = [[]] * r
    sden = 1

    def times(v: List[int], rows: List[List[Tuple[int, int]]], m: int) -> List[int]:
        """The row vector v times the m-column matrix of the sparse rows."""
        out = [0] * m
        for x, row in zip(v, rows):
            for k, y in row if x else ():
                out[k] += x * y
        return out

    if nc:
        ft = transpose(cartan_rows)                                  # r x nc
        inv, sden = integer_inverse(mat_mul(cartan_rows, ft))
        solver = [[(k, x) for k, x in enumerate(row) if x] for row in mat_mul(ft, inv)]
        for i, row in enumerate(mat_mul(mat_mul(cartan_rows, alg.lattice.gram), ft)):
            gram[i] = {j: v for j, v in enumerate(row) if v}
    for j in range(nc, dim):
        for i, w in enumerate(weights[j]):
            if w:
                brackets[i][j], brackets[j][i] = {j: w}, {j: -w}
    for i in range(nc, dim):
        # per partner j > i: the roots of [basis[i], basis[j]] with their
        # coefficients, and the opposite-root terms.  [e^a, e^b] is
        # eps(a, b) e^(a+b) when (a|b) = -1, and eps(a, -a) times the coroot
        # of a when b = -a, the one case where <e^a, e^b> = eps(a, -a) is
        # nonzero
        touched: Dict[int, Tuple[Dict[int, int], List[Tuple[int, int]]]] = {}
        for a, ca in terms[i]:
            for b, (s, sgn) in alg.pairs[a].items():
                j = member[b]
                if j > i:
                    if j not in touched:
                        touched[j] = {}, []
                    roots, opposite = touched[j]
                    if s >= 0:
                        roots[s] = roots.get(s, 0) + ca * coef[b] * sgn
                    else:
                        opposite.append((a, ca * coef[b] * sgn))
        for j in sorted(touched):
            roots, opposite = touched[j]
            out: Dict[int, int] = {}
            for s, c in roots.items():
                p = member[s]
                if c and p not in out:
                    if p < 0:
                        raise InvariantError("a bracket leaves the fixed subalgebra")
                    lead = roots.get(terms[p][0][0], 0)
                    for m, e in terms[p]:
                        if roots.get(m, 0) != lead * e:
                            raise InvariantError("a bracket is no multiple of an orbit sum")
                    out[p] = lead
            if opposite:
                cart = [0] * r
                for a, c in opposite:
                    for m, x in enumerate(alg.root_coords[a]):
                        cart[m] += c * x
                if any(cart):
                    sol = times(cart, solver, nc)
                    # with no fixed Cartan the solution is empty, and
                    # nothing is inside
                    if not sol or times(sol, sparse, r) != [sden * c for c in cart]:
                        raise InvariantError("Cartan part is outside the fixed sublattice")
                    if any(x % sden for x in sol):
                        raise InvariantError("a fixed structure constant is not integral")
                    out.update((k, x // sden) for k, x in enumerate(sol) if x)
                form = sum(c for _, c in opposite)
                if form:
                    gram[i][j] = gram[j][i] = form
            if out:
                brackets[i][j], brackets[j][i] = out, {k: -c for k, c in out.items()}
    orbits = [
        ComponentOrbit(t, length, tuple(idx))
        for (t, length), idx in zip(shapes, indices)
    ]
    return FixedSubalgebra(basis, weights, brackets, gram, orbits)


class IdentificationError(Exception):
    """The exact type certificate of a fixed subalgebra fails: a block form
    is singular, a block has more than one eigenvalue of gram^-1 Killing, or
    not exactly one type fits a block's exact data."""


def _check_grading(sub: FixedSubalgebra) -> None:
    """InvariantError unless the table is graded by sub.weights: ad of each
    Cartan vector t_i is diagonal with entry w_j[i] at basis[j], and every
    stored bracket [basis[i], basis[j]] lies in the block of w_i + w_j.

    Weights compare as `_packed` keys.  The packing is linear, key(x) =
    sum x_m 2^(width m), so key(w_i) + key(w_j) = key(w_i + w_j).  Its
    signed fields are `width` = 2 + bit_length(M) bits wide, M the largest
    weight coordinate in absolute value, so each field holds every integer
    of absolute value up to 2^(width - 1) - 1 >= 2M + 1, a coordinate of a
    sum of two weights included, and vectors with coordinates in that range
    pack distinctly.  Hence key(w_i) + key(w_j) = key(w_k) exactly when
    w_i + w_j = w_k.
    """
    weights, brackets = sub.weights, sub.brackets
    nc = len(weights[0]) if weights else 0
    for i in range(nc):
        row = brackets[i]
        for j, w in enumerate(weights):
            if row.get(j) != ({j: w[i]} if w[i] else None):
                raise InvariantError(
                    f"ad of Cartan vector {i} does not act by weight {w[i]} on {j}"
                )
    keys = _packed(weights)
    for i, row in enumerate(brackets):
        key = keys[i]
        for j, entry in row.items():
            total = key + keys[j]
            for k in entry:
                if keys[k] != total:
                    raise InvariantError(f"bracket [{i}, {j}] leaves its weight block")


def _killing(brackets: List[Dict[int, Dict[int, int]]]) -> List[Dict[int, int]]:
    """Killing form tr(ad b_i ad b_j) = sum over (a, b) of the coefficient
    of basis[a] in [b_i, basis[b]] times that of basis[b] in [b_j, basis[a]],
    as rows of nonzero entries.  The stored entries are indexed by (b, a),
    each to the rows i with a nonzero coefficient there, so every nonzero
    product is summed once: for a < b, the rows at (b, a) against the rows
    at (a, b) give both K(i, j) and K(j, i); for a = b, the rows at (a, a)
    against themselves."""
    dim = len(brackets)
    # under the key a * dim + b: (i, the coefficient of basis[b] in
    # [basis[i], basis[a]]) for every row i where it is nonzero
    index: Dict[int, List[Tuple[int, int]]] = {}
    for i, row in enumerate(brackets):
        for a, entry in row.items():
            for b, c in entry.items():
                index.setdefault(a * dim + b, []).append((i, c))
    kill: List[Dict[int, int]] = [{} for _ in brackets]
    for key, right in index.items():
        a, b = divmod(key, dim)
        if a > b:
            continue
        for i, ci in index.get(b * dim + a, ()):
            row = kill[i]
            for j, cj in right:
                row[j] = row.get(j, 0) + ci * cj
                if a < b:
                    kill[j][i] = kill[j].get(i, 0) + ci * cj
    return [{j: v for j, v in row.items() if v} for row in kill]


def _check_orbit_blocks(sub: FixedSubalgebra) -> None:
    """InvariantError unless sub.orbits partition the basis and every
    stored bracket and form entry stays inside one orbit's block: the keys
    of each row and of each bracket entry are a subset of the members of
    the row's block."""
    block_of = [-1] * sub.dim
    for b, orbit in enumerate(sub.orbits):
        for i in orbit.indices:
            if block_of[i] >= 0:
                raise InvariantError(f"basis vector {i} lies in two orbit blocks")
            block_of[i] = b
    if -1 in block_of:
        raise InvariantError(f"basis vector {block_of.index(-1)} lies in no orbit block")
    members = [frozenset(orbit.indices) for orbit in sub.orbits]
    for i, (row, form_row) in enumerate(zip(sub.brackets, sub.gram)):
        inside = members[block_of[i]]
        if not (row.keys() <= inside and form_row.keys() <= inside):
            j = next(j for j in itertools.chain(row, form_row) if j not in inside)
            raise InvariantError(f"basis vectors {i} and {j} of two orbit blocks interact")
        for j, entry in row.items():
            if not entry.keys() <= inside:
                raise InvariantError(f"bracket [{i}, {j}] leaves its orbit block")


def identify_type(sub: FixedSubalgebra) -> SemisimpleTypeWithLevels:
    """Type and level of a reductive fixed subalgebra, certified exactly,
    orbit block by orbit block.

    An ideal of type X at level k is a 2 h-dual(X)/k eigenspace of
    gram^-1 Killing of dimension dim X; the multiplicity of p/q is the
    nullity of q Killing - p gram.  Levels are positive integers (the
    assumption ledger's integer-level entry).  A 3-cycle of components of
    type X gives the diagonal X at level 3, since the lift cubes to 1: the
    block must have dimension dim X and Killing = (2 h-dual / 3) gram.  A
    sigma-stable block has centre the nullity of its Killing form; on the
    rest, of dimension D, r = tr(gram^-1 Killing) / D must be the only
    eigenvalue, and the block's type is the one multiset of simple ideals
    with 2 h-dual / k = r and dimension D (`enumerate_candidates` at r / 2).
    """
    _check_grading(sub)
    _check_orbit_blocks(sub)
    kill = _killing(sub.brackets)
    ideals: List[Tuple[SimpleType, int]] = []
    abelian = 0
    for orbit in sub.orbits:
        idx = orbit.indices
        n = len(idx)
        where = f"the {orbit.type} orbit block"
        if orbit.length == 3:
            # the rows stay inside the block, so they compare whole
            h2 = 2 * orbit.type.dual_coxeter_number()
            if n != orbit.type.dim() or any(
                {j: 3 * k for j, k in kill[i].items()}
                != {j: h2 * g for j, g in sub.gram[i].items()}
                for i in idx
            ):
                raise IdentificationError(f"{where} is not the diagonal {orbit.type},3")
            ideals.append((orbit.type, 3))
            continue
        gram = [[sub.gram[i].get(j, 0) for j in idx] for i in idx]
        k_o = [[kill[i].get(j, 0) for j in idx] for i in idx]
        try:
            inv, den = integer_inverse(gram)
        except ValueError:
            raise IdentificationError(
                f"the invariant form on {where} is singular"
            ) from None
        centre = n - rank(k_o)
        d = n - centre
        abelian += centre
        if d == 0:
            continue
        # gram^-1 = inv / den, so with Killing symmetric, tr(gram^-1 Killing)
        # / d is the entrywise sum of inv * Killing over den * d
        r = Q(sum(y * k for yr, kr in zip(inv, k_o) for y, k in zip(yr, kr)), den * d)
        p, q = r.numerator, r.denominator
        shifted = [[q * k - p * g for k, g in zip(kr, gr)] for kr, gr in zip(k_o, gram)]
        if n - rank(shifted) != d:
            raise IdentificationError(
                f"gram^-1 Killing on {where} has more than one eigenvalue"
            )
        fits = enumerate_candidates(d, r / 2) if r > 0 else ()
        if len(fits) != 1:
            names = "; ".join(map(str, fits)) or "none"
            raise IdentificationError(
                f"{where} (r = {r}, D = {d}) fits {len(fits)} types: {names}"
            )
        ideals.extend(fits[0].ideals)
    return SemisimpleTypeWithLevels.of(ideals, abelian)


# ---------------------------------------------------------------------------
# twisted ground energies, projections, counting, glue automorphisms


def twisted_ground_energy(g: LatticeIsometry) -> Tuple[Q, List[int]]:
    """Ground energy (1/4) sum_j (j/3)(1-j/3) m_j and the multiplicities m_j
    of an order-3 isometry.

    m_j is the multiplicity of the eigenvalue e^(2 pi i j / 3) of g on the
    ambient space: m_0 is the rank of the fixed sublattice, and the two
    primitive cube roots of 1 are complex conjugates, so m_1 = m_2 is half
    the nullity of 1 + g + g^2.  Every built isometry has order 3; any
    other order is an InvariantError.
    """
    n = g.order
    if n != 3:
        raise InvariantError(f"twisted ground energy of an isometry of order {n}")
    dim = g.lattice.rank
    g2 = mat_mul(g.matrix, g.matrix)
    cyclo = [
        [int(i == j) + x + y for j, (x, y) in enumerate(zip(r1, r2))]
        for i, (r1, r2) in enumerate(zip(g.matrix, g2))
    ]
    m1 = (dim - rank(cyclo)) // 2
    mults = [len(g.fixed_basis), m1, m1]
    if sum(mults) != dim:
        raise InvariantError("eigenvalue multiplicities do not fill the space")
    rho = sum(
        Q(j, n) * (1 - Q(j, n)) * mults[j] for j in range(1, n)
    ) / 4
    return rho, mults


def fixed_projection_norm(
    g: LatticeIsometry, u: ScaledCoords
) -> Tuple[ScaledCoords, Q]:
    """Orthogonal projection of an ambient vector u = (den, den * u) onto the
    fixed subspace of g, and its norm.

    The projection is (c + cM + ... + cM^(n-1)) / n in lattice coordinates,
    M the matrix of g of order n and c = u basis^-1 = (den u) basis_inv over
    den inv_scale; it is returned as (D, D * projection) with
    D = n den inv_scale, and its norm is one Fraction over D^2 through the
    integer gram."""
    n = g.order
    lat = g.lattice
    den, v = u
    cur = acc = mat_mul([v], lat.basis_inv)[0]
    for _ in range(n - 1):
        cur = mat_mul([cur], g.matrix)[0]
        acc = [a + b for a, b in zip(acc, cur)]
    d = n * den * lat.inv_scale
    norm = mat_mul(mat_mul([acc], lat.gram), transpose([acc]))[0][0]
    return (d, tuple(acc)), Q(norm, d * d)


def count_orthogonal_subsystems(
    ambient: SimpleType, part: SimpleType, copies: int
) -> int:
    """Number of sublattices of the ambient root lattice of shape part^copies.

    Subsystems are enumerated as root subsets (pairs {a, -a} for A1,
    hexagons ±a, ±b, ±(a+b) with (a|b) = -1 for A2), read off the
    simply-laced ambient's `_negative_pairs`, and sets of pairwise
    orthogonal copies are counted as cliques; distinct sets span distinct
    sublattices because the root system of the span recovers the copies.  A
    copy is orthogonal to another iff its spanning roots lie in the
    intersection of the other's perpendicular root sets.
    """
    if ambient.family not in "ADE":
        raise ValueError("only simply-laced ambients are supported")
    pairs = _negative_pairs(ambient)                   # (b, index of a + b)
    neg = [next(b for b, ab in row if ab < 0) for row in pairs]
    # b is orthogonal to a unless b or -b pairs negatively with a
    all_roots = set(range(len(pairs)))
    perp = [all_roots.difference(*((b, neg[b]) for b, _ in row)) for row in pairs]
    # each root subset maps to the indices of roots spanning it
    subs: Dict[FrozenSet[int], Tuple[int, ...]] = {}
    if part == SimpleType("A", 1):
        for a in range(len(pairs)):
            subs.setdefault(frozenset({a, neg[a]}), (a,))
    elif part == SimpleType("A", 2):
        for a, row in enumerate(pairs):
            for b, ab in row:
                if b > a and ab >= 0:
                    hexagon = frozenset({a, b, ab, neg[a], neg[b], neg[ab]})
                    subs.setdefault(hexagon, (a, b))
    else:
        raise ValueError("only A1 and A2 patterns are supported")
    spans = list(subs.values())
    # the later copies orthogonal to each copy
    later: List[Set[int]] = []
    for c, span in enumerate(spans):
        ortho = set.intersection(*(perp[x] for x in span))
        later.append(
            {d for d in range(c + 1, len(spans)) if ortho.issuperset(spans[d])}
        )

    def cliques(cands: List[int], need: int) -> int:
        if need == 0:
            return 1
        return sum(
            cliques([d for d in cands if d in later[c]], need - 1) for c in cands
        )

    return cliques(list(range(len(spans))), copies)


def _disc_automorphisms(t: SimpleType) -> Tuple[Dict[int, int], ...]:
    """The digit maps of the Dynkin diagram symmetries (SPLAG Table 16.1):
    `disc_digit_action` of the affine diagram automorphisms fixing node 0,
    each as the `local_isometry` of its symmetry with an empty word."""
    return tuple(
        disc_digit_action(t, local_isometry(t, [i - 1 for i in p[1:]], ()))
        for p in schellekens._diagram_automorphisms(t)
        if p[0] == 0
    )


GlueElement = Tuple[IntVec, Tuple[IntVec, ...]]      # (perm, digit maps)


def glue_automorphism_group_order(code: GlueCode) -> int:
    """Order of the group G of (component permutation, digit map) pairs
    preserving the code, by a stabilizer chain (Seress, Permutation Group
    Algorithms, 2003, ch. 4): |G| is the product over the positions i of the
    orbit sizes [G_i : G_(i+1)] in `_glue_chain`.

    An element g sends word w to the word with g.maps[i][w[g.perm[i]]] at
    position i; its choice at i is (g.perm[i], g.maps[i]).  G_i, the
    elements that fix every position < i with the identity map, acts on
    choices by (s, m).h = (h.perm[s], m o h.maps[s]), and the choice at i
    of g o h (h applied first) is the choice of g moved by h, so the choices
    of G_i at i are the orbit of (i, identity), whose stabilizer is
    G_(i+1): its size is [G_i : G_(i+1)] (orbit-stabilizer).
    The chain is walked from the last position to the first; at position i
    the generators kept so far generate G_(i+1), and only a choice outside
    the orbit under them is searched.  The search is depth-first over the
    later positions: it stops at the first completion and prunes as soon
    as some code generator's partial image is not a prefix of a code word
    (the digit maps are group automorphisms, so the generators' images
    decide the code's).  A completion is an element of G_i and is kept as a
    generator; a failure marks its whole orbit under the generators as dead,
    since G_i moves a choice that no element makes only to such choices.
    """
    return _glue_chain(code)[0]


def _glue_chain(code: GlueCode) -> Tuple[int, List[GlueElement]]:
    """The order of `glue_automorphism_group_order` and the generators its
    chain keeps."""
    k = len(code.components)
    if not all(t == code.components[0] for t in code.components):
        raise ValueError("mixed-component codes are not supported")
    t = code.components[0]
    b = len(_digit_reps(t)[1])
    ident = tuple(range(b))
    autos = [tuple(m[d] for d in ident) for m in _disc_automorphisms(t)]
    gens = code.generators
    # the digits that may follow each proper prefix of a code word, as bits
    nexts: Dict[IntVec, int] = {}
    for w in code.words():
        for j in range(k):
            nexts[w[:j]] = nexts.get(w[:j], 0) | 1 << w[j]
    # generator n's digit from source s under map m, at bit b*n + digit
    marks = [
        [sum(1 << (b * n + m[g[s]]) for n, g in enumerate(gens)) for m in autos]
        for s in range(k)
    ]

    def choices(free: FrozenSet[int], images: Tuple[IntVec, ...]) -> Iterator[tuple]:
        allowed = sum(nexts[p] << (b * n) for n, p in enumerate(images))
        for s in free:
            for m, mark in zip(autos, marks[s]):
                if mark & allowed == mark:
                    yield s, m, tuple(p + (m[g[s]],) for p, g in zip(images, gens))

    def complete(free: FrozenSet[int], images: Tuple[IntVec, ...]) -> Optional[list]:
        """The choices of the positions past the images, or None."""
        if not free:
            return []
        for s, m, longer in choices(free, images):
            rest = complete(free - {s}, longer)
            if rest is not None:
                return [(s, m)] + rest
        return None

    found: List[GlueElement] = []

    def orbit(x: Tuple[int, IntVec]) -> Set[Tuple[int, IntVec]]:
        seen, todo = {x}, [x]
        while todo:
            s, m = todo.pop()
            for perm, maps in found:
                y = (perm[s], tuple(m[d] for d in maps[s]))
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    order = 1
    for i in reversed(range(k)):
        reached, dead = orbit((i, ident)), set()
        free = frozenset(range(i, k))
        for s, m, images in choices(free, tuple(g[:i] for g in gens)):
            if (s, m) in reached or (s, m) in dead:
                continue
            rest = complete(free - {s}, images)
            if rest is None:
                dead |= orbit((s, m))
                continue
            path = [(j, ident) for j in range(i)] + [(s, m)] + rest
            found.append((tuple(x for x, _ in path), tuple(y for _, y in path)))
            reached = orbit((i, ident))
        order *= len(reached)
    return order, found
