"""Rank-24 even unimodular lattices from glue codes, their order-3 isometries,
and the weight-one Lie algebra of the associated lattice vertex algebra.

Lattice vectors are rows of coordinates over the concatenated simple-root
bases of the components.  The two lattices used by the order-3 uniqueness
chains are assembled from their glue codes: four E6 components glued by a
ternary code, and six D4 components glued by a binary code whose digits
label the three nontrivial cosets of each D4 discriminant group.  A lattice
keeps its basis and the inverse basis as integer rows over one denominator
each, so lattice coordinates, isometry candidates and their certificates
are integer products and divisibility tests.

The weight-one algebra has basis {Cartan directions} + {e^a : a a root},
with structure constants through the sign bicharacter fixed on an ordered
lattice basis.  Standard lifts of order-3 isometries are solved exactly over
F2 (phase 1 on the fixed sublattice, composite of order 3), fixed-point
subalgebras are extracted orbit by orbit, and their types and levels are
identified by a float root-space discovery pass whose every rounded integer
is re-verified by exact rank computations.  The generic centraliser behind
that pass is spanned by primitive integer rows, so every ad matrix and
commutator stays integral; the float pass divides by each row's
denominator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from math import factorial, gcd, lcm
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .exactmath import (
    InvariantError,
    ResidualExceeded,
    det,
    float_eigen,
    integer_kernel,
    inverse,
    rank,
)
from .rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    build_root_system,
    classify_simple_system,
)

Vec = Tuple[Q, ...]
IntVec = Tuple[int, ...]


# ---------------------------------------------------------------------------
# exact matrix helpers (row-vector convention throughout)


def mat_mul(a: List[List[Q]], b: List[List[Q]]) -> List[List[Q]]:
    """Matrix product; integer inputs give an integer product."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        row[j] += v * bt[j]
    return out


def hnf_with_transform(m: List[List[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """Row Hermite normal form H = U m with U unimodular."""
    rows = len(m)
    cols = len(m[0]) if m else 0
    h = [list(r) for r in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, rows) if h[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][c]))
            h[r], h[piv] = h[piv], h[r]
            u[r], u[piv] = u[piv], u[r]
            reduced = True
            for i in range(r + 1, rows):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c]:
                        reduced = False
            if reduced:
                break
        if r < rows and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == rows:
                break
    return h, u


def integer_row_kernel(m: List[List[int]]) -> List[List[int]]:
    """Basis of {x integral : x m = 0}; saturated by construction."""
    h, u = hnf_with_transform(m)
    return [u[i] for i in range(len(m)) if not any(h[i])]


def transpose(m: Sequence[Sequence]) -> List[List]:
    return [list(col) for col in zip(*m)]


# ---------------------------------------------------------------------------
# glue codes


@lru_cache(maxsize=None)
def _digit_reps(t: SimpleType) -> Tuple[Vec, ...]:
    """Coset representatives of the discriminant group, in simple-root coords,
    indexed by glue digit."""
    rs = build_root_system(t)
    inv = inverse(rs.simple_roots)
    weights = [tuple(inv[i]) for i in range(rs.rank)]  # row i = fund weight i
    if t == SimpleType("E", 6):
        # Z3 cosets: [1] and [2] are the two minuscule classes
        reps = (tuple([Q(0)] * 6), weights[0], weights[5])
        diff = tuple(2 * a - b for a, b in zip(reps[1], reps[2]))
        if any(x.denominator != 1 for x in diff):
            raise InvariantError("[2] must be 2*[1]")
        return reps
    if t == SimpleType("D", 4):
        # Klein cosets: the three minuscule weights on the outer nodes
        return (tuple([Q(0)] * 4), weights[3], weights[0], weights[2])
    raise ValueError(f"no glue digits defined for {t}")


_D4_KLEIN_ADD = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
    (1, 0): 1, (1, 1): 0, (1, 2): 3, (1, 3): 2,
    (2, 0): 2, (2, 1): 3, (2, 2): 0, (2, 3): 1,
    (3, 0): 3, (3, 1): 2, (3, 2): 1, (3, 3): 0,
}


def digit_add(t: SimpleType, a: int, b: int) -> int:
    if t == SimpleType("E", 6):
        return (a + b) % 3
    if t == SimpleType("D", 4):
        return _D4_KLEIN_ADD[(a, b)]
    raise ValueError(f"no glue digits defined for {t}")


@dataclass(frozen=True)
class GlueCode:
    """Component root-lattice types with generator digit words."""

    components: Tuple[SimpleType, ...]
    generators: Tuple[IntVec, ...]

    def words(self) -> FrozenSet[IntVec]:
        zero = tuple([0] * len(self.components))
        seen: Set[IntVec] = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for w in frontier:
                for g in self.generators:
                    s = tuple(
                        digit_add(t, a, b)
                        for t, a, b in zip(self.components, w, g)
                    )
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return frozenset(seen)

    def word_vector(self, w: IntVec) -> Vec:
        parts: List[Q] = []
        for t, d in zip(self.components, w):
            parts.extend(_digit_reps(t)[d])
        return tuple(parts)


NI_E6_4 = GlueCode(
    (SimpleType("E", 6),) * 4,
    ((1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1)),
)

NI_D4_6 = GlueCode(
    (SimpleType("D", 4),) * 6,
    (
        (1, 1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2, 2),
        (0, 0, 2, 3, 3, 2),
        (0, 2, 3, 3, 2, 0),
        (0, 3, 2, 0, 2, 3),
        (0, 2, 0, 2, 3, 3),
    ),
)


# ---------------------------------------------------------------------------
# lattice assembly


@dataclass(frozen=True)
class EvenLattice:
    """Even positive-definite lattice with an integer-scaled basis.

    Basis row i is basis[i] / scale in ambient coordinates, and the inverse
    of the basis matrix is basis_inv / inv_scale: integer rows over one
    denominator each, in the manner of `RootSystem.form` over its `scale`.
    """

    code: GlueCode
    basis: Tuple[IntVec, ...]                   # rows, ambient coordinates
    scale: int
    basis_inv: Tuple[IntVec, ...] = field(repr=False)
    inv_scale: int = field(repr=False)
    ambient_gram: Tuple[IntVec, ...] = field(repr=False)
    gram: Tuple[IntVec, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def ip_ambient(self, x: Vec, y: Vec) -> Q:
        total = Q(0)
        for i, xi in enumerate(x):
            if xi:
                row = self.ambient_gram[i]
                total += xi * sum(row[j] * y[j] for j in range(len(y)) if y[j])
        return total

    def coords_of(self, x: Sequence, den: int = 1) -> Optional[IntVec]:
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
    grams; ValueError unless it is integral and even."""
    n = len(rows)
    blocks = [[0] * n for _ in range(n)]
    pos = 0
    for t in code.components:
        rs = build_root_system(t)
        for i in range(t.rank):
            for j in range(t.rank):
                if rs.gram[i][j].denominator != 1:
                    raise ValueError(f"the {t} root lattice is not integral")
                blocks[pos + i][pos + j] = int(rs.gram[i][j])
        pos += t.rank
    rows = [list(r) for r in rows]
    gram_s = mat_mul(mat_mul(rows, blocks), transpose(rows))
    s2 = scale * scale
    if any(x % s2 for row in gram_s for x in row):
        raise ValueError("lattice is not integral")
    gram = tuple(tuple(x // s2 for x in row) for row in gram_s)
    if any(gram[i][i] % 2 for i in range(n)):
        raise ValueError("lattice is not even")
    # (rows / scale)^-1 = scale * rows^-1, cleared to one denominator
    inv = [[scale * x for x in row] for row in inverse(rows)]
    inv_scale = lcm(*(x.denominator for row in inv for x in row))
    return EvenLattice(
        code,
        tuple(tuple(r) for r in rows),
        scale,
        tuple(tuple(int(x * inv_scale) for x in row) for row in inv),
        inv_scale,
        tuple(tuple(r) for r in blocks),
        gram,
    )


def assemble_niemeier(code: GlueCode) -> EvenLattice:
    """Lattice from component roots plus glue; verified even and unimodular."""
    rank = sum(t.rank for t in code.components)
    gens: List[Vec] = [
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    ]
    gens.extend(code.word_vector(g) for g in code.generators)
    den = lcm(*[x.denominator for row in gens for x in row])
    int_rows = [[int(x * den) for x in row] for row in gens]
    h, _ = hnf_with_transform(int_rows)
    basis_rows = [r for r in h if any(r)]
    if len(basis_rows) != rank:
        raise ValueError("generators do not span a full-rank lattice")
    lat = lattice_from_basis(code, basis_rows, den)
    d = det(lat.gram)
    if d != 1:
        raise ValueError(f"assembled lattice has determinant {d}, not 1")
    return lat


def root_lattice(t: SimpleType) -> EvenLattice:
    """The plain root lattice of a simple type (no glue, any determinant)."""
    n = t.rank
    unit = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return lattice_from_basis(GlueCode((t,), ()), unit, 1)


@lru_cache(maxsize=None)
def _coset_norm_floor(t: SimpleType, d: int) -> Q:
    """Least positive value congruent mod 2Z to the norm of digit d's coset."""
    rs = build_root_system(t)
    rep = _digit_reps(t)[d]
    n = sum(
        rep[i] * sum(rs.gram[i][j] * rep[j] for j in range(t.rank))
        for i in range(t.rank)
    )
    return n % 2 or Q(2)


def coset_norm_lower_bound(code: GlueCode, word: IntVec) -> Q:
    """Smallest norm possibly occurring in the glue coset of a word.

    Coset norms are fixed mod 2Z, so the bound sums, over nonzero digits,
    the least positive value congruent to the digit representative's norm.
    """
    return sum(
        (_coset_norm_floor(t, d) for t, d in zip(code.components, word) if d),
        Q(0),
    )


def lattice_roots(lat: EvenLattice) -> List[IntVec]:
    """All norm-2 vectors; nonzero glue cosets are excluded by norm bounds."""
    for w in lat.code.words():
        if any(w) and coset_norm_lower_bound(lat.code, w) <= 2:
            raise InvariantError("a glue coset might contain norm-2 vectors")
    roots: List[IntVec] = []
    offset = 0
    dim = lat.rank
    for t in lat.code.components:
        rs = build_root_system(t)
        for ac in rs.root_alpha_coords:
            vec = [0] * dim
            vec[offset:offset + t.rank] = ac
            roots.append(tuple(vec))
        offset += t.rank
    return sorted(roots)


# ---------------------------------------------------------------------------
# component isometries and the three named lattice isometries


@dataclass(frozen=True)
class LatticeIsometry:
    """Integer matrix in lattice-basis coordinates (row-vector action)."""

    lattice: EvenLattice
    matrix: Tuple[IntVec, ...]
    name: str

    def apply_coords(self, c: Sequence[int]) -> IntVec:
        n = len(c)
        return tuple(
            sum(c[i] * self.matrix[i][j] for i in range(n) if c[i])
            for j in range(n)
        )

    def ambient_matrix(self) -> List[List[Q]]:
        lat = self.lattice
        m = mat_mul(mat_mul(lat.basis_inv, self.matrix), lat.basis)
        return [[Q(x, lat.inv_scale * lat.scale) for x in row] for row in m]

    def power(self, k: int) -> Tuple[IntVec, ...]:
        out = _identity_local(self.lattice.rank)
        for _ in range(k):
            out = mat_mul(out, self.matrix)
        return tuple(tuple(row) for row in out)

    def order(self) -> int:
        n = self.lattice.rank
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        cur = [list(row) for row in self.matrix]
        for k in range(1, 13):
            if cur == ident:
                return k
            cur = mat_mul(cur, self.matrix)
        raise ValueError("order exceeds 12")

    def fixed_coords_basis(self) -> List[IntVec]:
        n = self.lattice.rank
        m = [
            [self.matrix[i][j] - (1 if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        return [tuple(r) for r in integer_row_kernel(m)]

    def preserves_gram(self) -> bool:
        n = self.lattice.rank
        g = self.lattice.gram
        a = self.matrix
        ag = [[sum(a[i][s] * g[s][t] for s in range(n) if a[i][s]) for t in range(n)]
              for i in range(n)]
        for i in range(n):
            for j in range(i, n):
                if sum(ag[i][t] * a[j][t] for t in range(n) if a[j][t]) != g[i][j]:
                    return False
        return True


def _slot_maps_to_isometry(
    lat: EvenLattice,
    slot_maps: Sequence[Tuple[int, List[List[int]]]],
    name: str,
) -> LatticeIsometry:
    """Isometry from per-component maps: component c lands in slot_maps[c][0].

    Each integer basis row is mapped block by block and must land in the
    lattice again; the first row that does not rejects the candidate.
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
            raise ValueError("candidate isometry does not preserve the lattice")
        out.append(coords)
    return LatticeIsometry(lat, tuple(out), name)


def _identity_local(rank: int) -> List[List[int]]:
    return [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]


def _integral(m: List[List[Q]], what: str) -> List[List[int]]:
    if any(x.denominator != 1 for row in m for x in row):
        raise InvariantError(f"{what} is not integral")
    return [[int(x) for x in row] for row in m]


def _check_order3(m: List[List[int]], fixed_free: bool) -> None:
    n = len(m)
    ident = _identity_local(n)
    m2 = mat_mul(m, m)
    if mat_mul(m2, m) != ident:
        raise InvariantError("matrix does not have order 3")
    if fixed_free and any(
        m2[i][j] + m[i][j] + ident[i][j] for i in range(n) for j in range(n)
    ):
        raise InvariantError("not fixed-point-free")


def fpf_e6_matrix() -> List[List[int]]:
    """Fixed-point-free order-3 isometry of the E6 root lattice.

    Simultaneous rotation of the orthogonal pair decomposition
    (a1,a3), (a5,a6), (a2,-theta); integrality certifies it preserves E6 and
    m^2 + m + 1 = 0 certifies the fixed-point-free order-3 action.
    """
    theta_ac = build_root_system(SimpleType("E", 6)).marks[1:]
    e = _identity_local(6)
    pairs = [
        (e[0], e[2]),
        (e[4], e[5]),
        (e[1], [-c for c in theta_ac]),
    ]
    t_rows: List[List[int]] = []
    for a, b in pairs:
        t_rows.append(list(a))
        t_rows.append(list(b))
    rot = [[0] * 6 for _ in range(6)]
    for k in range(3):
        rot[2 * k][2 * k + 1] = 1      # a -> b
        rot[2 * k + 1][2 * k] = -1     # b -> -a-b
        rot[2 * k + 1][2 * k + 1] = -1
    phi = _integral(
        mat_mul(mat_mul(inverse(t_rows), rot), t_rows), "conjugated E6 rotation"
    )
    _check_order3(phi, fixed_free=True)
    return phi


# Hurwitz-unit model of D4: basis (1, i, j, w) with w = (-1+i+j+k)/2 and
# form 2 Re(x conj(y)); left multiplication by w is an order-3 isometry.
_QUAT_LEFT_W = [
    [0, 0, 0, 1],
    [-1, 0, 1, -1],
    [0, -1, -1, 1],
    [-1, 0, 0, -1],
]
_QUAT_GRAM = [
    [2, 0, 0, -1],
    [0, 2, 0, 1],
    [0, 0, 2, 1],
    [-1, 1, 1, 2],
]


def fpf_d4_matrix() -> List[List[int]]:
    """Fixed-point-free order-3 isometry of D4, outside the Weyl group."""

    def qip(x: Sequence[int], y: Sequence[int]) -> int:
        return sum(
            x[i] * sum(_QUAT_GRAM[i][j] * y[j] for j in range(4))
            for i in range(4)
        )

    qroots = [
        c
        for c in itertools.product(range(-2, 3), repeat=4)
        if qip(c, c) == 2
    ]
    if len(qroots) != 24:
        raise InvariantError(f"Hurwitz model has {len(qroots)} roots, not 24")
    found = None
    for r2 in qroots:
        others = [r for r in qroots if qip(r, r2) == -1]
        for trio in itertools.combinations(others, 3):
            if all(qip(a, b) == 0 for a, b in itertools.combinations(trio, 2)):
                found = [trio[0], r2, trio[1], trio[2]]
                break
        if found:
            break
    if found is None:
        raise InvariantError("no D4 simple system among the Hurwitz roots")
    s_rows = [list(r) for r in found]
    phi = _integral(
        mat_mul(mat_mul(s_rows, _QUAT_LEFT_W), inverse(s_rows)),
        "conjugated D4 rotation",
    )
    _check_order3(phi, fixed_free=True)
    return phi


def weyl_d4_matrix() -> List[List[int]]:
    """Order-3 isometry of D4 inside the Weyl group (a coordinate 3-cycle)."""
    m = [
        [0, 1, 0, 0],
        [-1, -1, 0, 0],
        [1, 1, 1, 0],
        [1, 1, 0, 1],
    ]
    _check_order3(m, fixed_free=False)
    if disc_digit_action(SimpleType("D", 4), m) != {0: 0, 1: 1, 2: 2, 3: 3}:
        raise InvariantError("Weyl candidate moves the discriminant group")
    return m


def disc_digit_action(t: SimpleType, local: List[List[int]]) -> Dict[int, int]:
    """Induced permutation of the glue digits (trivial exactly on Weyl part)."""
    reps = _digit_reps(t)
    out = {0: 0}
    for d, rep in enumerate(reps):
        if d == 0:
            continue
        img = tuple(
            sum(rep[i] * local[i][j] for i in range(t.rank))
            for j in range(t.rank)
        )
        matches = [
            d2
            for d2, rep2 in enumerate(reps)
            if all((a - b).denominator == 1 for a, b in zip(img, rep2))
        ]
        if len(matches) != 1:
            raise InvariantError(f"digit {d} maps to {len(matches)} cosets")
        out[d] = matches[0]
    return out


def sigma4_candidates() -> Iterator[List[Tuple[int, List[List[int]]]]]:
    """Slot maps of the sigma4 shape on six D4 components, in search order.

    One Weyl-rotation slot, two fixed-point-free slots, and a 3-cycle of
    intact components whose edge maps compose to the identity.
    """
    phi = fpf_d4_matrix()
    phi2 = mat_mul(phi, phi)
    psi = weyl_d4_matrix()
    psi2 = mat_mul(psi, psi)
    ident = _identity_local(4)
    rot = {0: ident, 1: phi, 2: phi2}
    for cycle in itertools.combinations(range(6), 3):
        singles = [c for c in range(6) if c not in cycle]
        a, b, c3 = cycle
        for cyc_perm in ({a: b, b: c3, c3: a}, {a: c3, c3: b, b: a}):
            for e1, e2 in itertools.product(range(3), repeat=2):
                e3 = (-e1 - e2) % 3
                edges = [rot[e1], rot[e2], rot[e3]]
                for psi_slot in singles:
                    fps = [s for s in singles if s != psi_slot]
                    for w in (psi, psi2):
                        for m1, m2 in itertools.product((phi, phi2), repeat=2):
                            slot_maps = [(i, ident) for i in range(6)]
                            for k, (src, tgt) in enumerate(cyc_perm.items()):
                                slot_maps[src] = (tgt, edges[k])
                            slot_maps[psi_slot] = (psi_slot, w)
                            slot_maps[fps[0]] = (fps[0], m1)
                            slot_maps[fps[1]] = (fps[1], m2)
                            yield slot_maps


def build_isometry(lat: EvenLattice, name: str) -> LatticeIsometry:
    """The three named order-3 isometries, certified on construction.

    sigma6 rotates one E6 component fixed-point-freely and 3-cycles the rest;
    sigma2 rotates every D4 component fixed-point-freely; sigma4 combines a
    Weyl rotation, two fixed-point-free rotations, and a 3-cycle of intact
    components.  All preserve the glue (checked by integrality), the gram,
    and have order 3.
    """
    comps = lat.code.components
    if name == "sigma6":
        if comps != (SimpleType("E", 6),) * 4:
            raise ValueError("sigma6 lives on the four-E6 lattice")
        phi = fpf_e6_matrix()
        ident = _identity_local(6)
        # (g1,g2,g3,g4) -> (phi g1, g4, g2, g3): component 2 lands in slot 3,
        # 3 in slot 4, 4 in slot 2.
        iso = _slot_maps_to_isometry(
            lat, [(0, phi), (2, ident), (3, ident), (1, ident)], name
        )
    elif name == "sigma2":
        if comps != (SimpleType("D", 4),) * 6:
            raise ValueError("sigma2 lives on the six-D4 lattice")
        phi = fpf_d4_matrix()
        iso = None
        for cand in (phi, mat_mul(phi, phi)):
            try:
                iso = _slot_maps_to_isometry(lat, [(c, cand) for c in range(6)], name)
                break
            except ValueError:
                continue
        if iso is None:
            raise ValueError("no orientation of the rotation preserves the glue")
    elif name == "sigma4":
        if comps != (SimpleType("D", 4),) * 6:
            raise ValueError("sigma4 lives on the six-D4 lattice")
        iso = None
        for slot_maps in sigma4_candidates():
            try:
                cand = _slot_maps_to_isometry(lat, slot_maps, name)
            except ValueError:
                continue
            if cand.order() == 3:
                iso = cand
                break
        if iso is None:
            raise ValueError("no sigma4-shaped isometry preserves the glue")
    else:
        raise ValueError(f"unknown isometry name {name!r}")
    if iso.order() != 3:
        raise InvariantError(f"{name} does not have order 3")
    if not iso.preserves_gram():
        raise InvariantError(f"{name} does not preserve the gram")
    return iso


# ---------------------------------------------------------------------------
# the weight-one Lie algebra of the lattice vertex algebra


class LatticeLieAlgebra:
    """Cartan + root vectors with the ordered-basis sign bicharacter.

    Basis indices: 0..rank-1 are the Cartan directions dual to the lattice
    basis; rank+k is the root vector of the k-th root.  Elements are sparse
    {index: int} maps: every structure constant is +-1 or a lattice inner
    product.  eps is bimultiplicative with
    eps(b_i, b_j) = (-1)^(b_i|b_j) for i > j and 1 otherwise, which gives the
    commutation rule e^b e^a = (-1)^(a|b) e^a e^b.
    """

    def __init__(self, lat: EvenLattice):
        self.lattice = lat
        self.rank = lat.rank
        roots_ambient = lattice_roots(lat)
        coords = [lat.coords_of(r) for r in roots_ambient]
        if any(c is None for c in coords):
            raise InvariantError("a root is outside the lattice")
        self.root_coords: List[IntVec] = sorted(coords)  # type: ignore[arg-type]
        self.root_index: Dict[IntVec, int] = {
            c: i for i, c in enumerate(self.root_coords)
        }
        self.n_roots = len(self.root_coords)
        self.dim = self.rank + self.n_roots

        g = np.array(lat.gram, dtype=np.int64)
        r = np.array(self.root_coords, dtype=np.int64)
        self._ip_rr = r @ g @ r.T                      # (a|b) for root pairs
        self._ip_cr = g @ r.T                          # (b_i|a) Cartan x root
        low = np.tril(np.array(lat.gram, dtype=np.int64) & 1, k=-1)
        self._eps_rr = 1 - 2 * ((r @ low @ r.T) % 2)   # sign table
        sums: Dict[Tuple[int, int], int] = {}
        for i, j in np.argwhere(self._ip_rr == -1).tolist():
            s = tuple(a + b for a, b in zip(self.root_coords[i], self.root_coords[j]))
            sums[(i, j)] = self.root_index[s]
        self._sum_idx = sums

    # -- sign bicharacter ---------------------------------------------------

    def eps_coords(self, m: Sequence[int], n: Sequence[int]) -> int:
        """eps(m, n) in {1, -1} for arbitrary integral coordinate rows."""
        gram = self.lattice.gram
        acc = 0
        for i, mi in enumerate(m):
            if mi:
                for j in range(i):
                    if n[j]:
                        acc += mi * n[j] * gram[i][j]
        return -1 if acc % 2 else 1

    def ip_coords(self, m: Sequence[int], n: Sequence[int]) -> int:
        gram = self.lattice.gram
        return sum(
            m[i] * sum(gram[i][j] * n[j] for j in range(self.rank) if n[j])
            for i in range(self.rank)
            if m[i]
        )

    # -- structure ------------------------------------------------------------

    def cartan_element(self, coords: Sequence[int]) -> Dict[int, int]:
        return {i: c for i, c in enumerate(coords) if c}

    def root_element(self, k: int) -> Dict[int, int]:
        return {self.rank + k: 1}

    def bracket_basis(self, x: int, y: int) -> Dict[int, int]:
        r = self.rank
        if x < r and y < r:
            return {}
        if x < r:
            k = y - r
            v = int(self._ip_cr[x][k])
            return {y: v} if v else {}
        if y < r:
            out = self.bracket_basis(y, x)
            return {i: -c for i, c in out.items()}
        k, l = x - r, y - r
        ip = int(self._ip_rr[k][l])
        if ip >= 0:
            return {}
        if ip == -1:
            sgn = int(self._eps_rr[k][l])
            return {r + self._sum_idx[(k, l)]: sgn}
        # ip == -2: opposite roots; bracket is the coroot direction
        sgn = int(self._eps_rr[k][l])
        return {i: sgn * c for i, c in enumerate(self.root_coords[k]) if c}

    def bracket(self, x: Dict[int, int], y: Dict[int, int]) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, ck in self.bracket_basis(i, j).items():
                    v = out.get(k, 0) + ci * cj * ck
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
        return out

    def form(self, x: Dict[int, int], y: Dict[int, int]) -> int:
        """Invariant form: <t_a|t_b> = (a|b), <e^a|e^-a> = eps(a,-a)."""
        total = 0
        gram = self.lattice.gram
        r = self.rank
        for i, ci in x.items():
            for j, cj in y.items():
                if i < r and j < r:
                    total += ci * cj * gram[i][j]
                elif i >= r and j >= r:
                    k, l = i - r, j - r
                    if self._ip_rr[k][l] == -2:
                        total += ci * cj * int(self._eps_rr[k][l])
        return total

    def negate_root_index(self, k: int) -> int:
        neg = tuple(-c for c in self.root_coords[k])
        return self.root_index[neg]


def weight_one_algebra(lat: EvenLattice) -> LatticeLieAlgebra:
    """Weight-one Lie algebra of the lattice vertex algebra of an even lattice."""
    return LatticeLieAlgebra(lat)


# ---------------------------------------------------------------------------
# standard lifts


@dataclass(frozen=True)
class LiftedAutomorphism:
    """Algebra automorphism covering an isometry: e^a -> phase(a) e^(ga)."""

    algebra: LatticeLieAlgebra
    isometry: LatticeIsometry
    root_phase: Tuple[int, ...]      # sign per root index
    root_perm: Tuple[int, ...]       # image root index per root index
    name: str

    def apply(self, x: Dict[int, int]) -> Dict[int, int]:
        alg = self.algebra
        r = alg.rank
        out: Dict[int, int] = {}
        mat = self.isometry.matrix
        for i, c in x.items():
            if i < r:
                for j in range(r):
                    if mat[i][j]:
                        v = out.get(j, 0) + c * mat[i][j]
                        if v:
                            out[j] = v
                        elif j in out:
                            del out[j]
            else:
                k = i - r
                tgt = r + self.root_perm[k]
                v = out.get(tgt, 0) + c * self.root_phase[k]
                if v:
                    out[tgt] = v
                elif tgt in out:
                    del out[tgt]
        return out

    def compose(self, other: "LiftedAutomorphism") -> "LiftedAutomorphism":
        """self after other (apply other first)."""
        alg = self.algebra
        n = alg.lattice.rank
        m = tuple(
            tuple(
                sum(other.isometry.matrix[i][t] * self.isometry.matrix[t][j]
                    for t in range(n))
                for j in range(n)
            )
            for i in range(n)
        )
        perm = tuple(self.root_perm[other.root_perm[k]] for k in range(alg.n_roots))
        phase = tuple(
            other.root_phase[k] * self.root_phase[other.root_perm[k]]
            for k in range(alg.n_roots)
        )
        return LiftedAutomorphism(
            alg,
            LatticeIsometry(alg.lattice, m, f"{self.name}*{other.name}"),
            phase,
            perm,
            f"{self.name}*{other.name}",
        )

    def inverse(self) -> "LiftedAutomorphism":
        alg = self.algebra
        n = alg.lattice.rank
        minv = inverse(self.isometry.matrix)
        mi = tuple(tuple(int(x) for x in row) for row in minv)
        perm_inv = [0] * alg.n_roots
        for k in range(alg.n_roots):
            perm_inv[self.root_perm[k]] = k
        phase = tuple(self.root_phase[perm_inv[k]] for k in range(alg.n_roots))
        return LiftedAutomorphism(
            alg,
            LatticeIsometry(alg.lattice, mi, f"{self.name}^-1"),
            phase,
            tuple(perm_inv),
            f"{self.name}^-1",
        )

    def is_identity(self) -> bool:
        n = self.algebra.lattice.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return (
            self.isometry.matrix == ident
            and all(p == k for k, p in enumerate(self.root_perm))
            and all(s == 1 for s in self.root_phase)
        )

    def verify_automorphism(self, pair_limit: Optional[int] = None, seed: int = 0) -> bool:
        """Exact bracket-preservation check on root pairs (all, or sampled)."""
        alg = self.algebra
        pairs = [
            (k, l)
            for k in range(alg.n_roots)
            for l in range(alg.n_roots)
            if alg._ip_rr[k][l] in (-1, -2)
        ]
        if pair_limit is not None and pair_limit < len(pairs):
            rng = random.Random(seed)
            pairs = rng.sample(pairs, pair_limit)
        for k, l in pairs:
            x = alg.root_element(k)
            y = alg.root_element(l)
            lhs = self.apply(alg.bracket(x, y))
            rhs = alg.bracket(self.apply(x), self.apply(y))
            if lhs != rhs:
                return False
        # the invariant form must be preserved on opposite root pairs
        for k in range(alg.n_roots):
            l = alg.negate_root_index(k)
            x, y = alg.root_element(k), alg.root_element(l)
            if alg.form(self.apply(x), self.apply(y)) != alg.form(x, y):
                return False
        return True


def _phase_bit_expr(
    alg: LatticeLieAlgebra,
    h_bits: List[List[int]],
    coords: Sequence[int],
) -> Tuple[List[int], int]:
    """Exponent of c(x) as affine F2 expression: (basis-bit coefficients, const).

    c(sum m_i b_i) has sign exponent
    sum m_i x_i + sum_{i<j} m_i m_j h_ij + sum_i C(m_i,2) h_ii  (mod 2).
    """
    n = alg.rank
    lin = [(abs(m) % 2) for m in coords]
    const = 0
    for i in range(n):
        mi = coords[i]
        if not mi:
            continue
        const += (mi * (mi - 1) // 2) * h_bits[i][i]
        for j in range(i + 1, n):
            if coords[j]:
                const += mi * coords[j] * h_bits[i][j]
    return lin, const % 2


def _solve_f2(rows: List[List[int]], rhs: List[int], n: int) -> Optional[List[int]]:
    """Solve an F2 linear system; least solution (free variables zero)."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: List[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(a ^ b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(m)):
        if m[i][n]:
            return None
    x = [0] * n
    for idx, c in enumerate(pivots):
        x[c] = m[idx][n]
    return x


def standard_lift(alg: LatticeLieAlgebra, g: LatticeIsometry) -> LiftedAutomorphism:
    """Order-3 standard lift: phase 1 on the fixed sublattice.

    The phase function is the sign quadratic form refining the bicharacter
    eps(ga, gb)/eps(a, b); its free basis signs are solved over F2 so that
    the phase is 1 on a fixed-sublattice basis and the composite cubes to the
    identity.  Failure of the system is a cocycle bookkeeping error and is
    raised, never patched.
    """
    n = alg.rank
    basis_imgs = [g.apply_coords(tuple(1 if j == i else 0 for j in range(n)))
                  for i in range(n)]

    def eps_bit(a: Sequence[int], b: Sequence[int]) -> int:
        return 0 if alg.eps_coords(a, b) == 1 else 1

    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    h_bits = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            h_bits[i][j] = eps_bit(basis_imgs[i], basis_imgs[j]) ^ eps_bit(unit[i], unit[j])
    if any(h_bits[i][j] != h_bits[j][i] for i in range(n) for j in range(n)):
        raise InvariantError("twist bicharacter not symmetric")

    rows: List[List[int]] = []
    rhs: List[int] = []
    # standardness: phase 1 on a basis of the fixed sublattice
    for f in g.fixed_coords_basis():
        lin, const = _phase_bit_expr(alg, h_bits, f)
        rows.append(lin)
        rhs.append(const)
    # order 3: c(b_i) c(g b_i) c(g^2 b_i) = 1 for all i
    for i in range(n):
        gb = basis_imgs[i]
        g2b = g.apply_coords(gb)
        lin = [0] * n
        lin[i] ^= 1
        const = 0
        for v in (gb, g2b):
            lv, cv = _phase_bit_expr(alg, h_bits, v)
            lin = [(a ^ b) for a, b in zip(lin, lv)]
            const ^= cv
        rows.append(lin)
        rhs.append(const)
    x = _solve_f2(rows, rhs, n)
    if x is None:
        raise ValueError("no order-3 standard phase function exists")

    def phase_of(coords: Sequence[int]) -> int:
        lin, const = _phase_bit_expr(alg, h_bits, coords)
        bit = const ^ (sum(a & b for a, b in zip(lin, x)) % 2)
        return -1 if bit else 1

    perm = []
    phase = []
    for k, rc in enumerate(alg.root_coords):
        img = g.apply_coords(rc)
        perm.append(alg.root_index[img])
        phase.append(phase_of(rc))
    lift = LiftedAutomorphism(alg, g, tuple(phase), tuple(perm), f"lift({g.name})")
    # order 3 on the whole algebra
    cube = lift.compose(lift).compose(lift)
    if not cube.is_identity():
        raise InvariantError("standard lift does not cube to the identity")
    if any(phase_of(f) != 1 for f in g.fixed_coords_basis()):
        raise InvariantError("standard lift has a phase on the fixed sublattice")
    return lift


# ---------------------------------------------------------------------------
# fixed subalgebras and type identification


@dataclass
class FixedSubalgebra:
    """Fixed points of an order-3 lifted automorphism as a structure table.

    `basis` lists the fixed basis vectors in the big algebra: the
    fixed-sublattice basis, then one orbit sum per root orbit.
    `brackets[i][j]` maps k to the nonzero coefficient of basis[k] in
    [basis[i], basis[j]]; `gram` is the invariant form on the basis.  Both
    are integral.
    """

    basis: List[Dict[int, int]]
    brackets: List[List[Dict[int, int]]]
    gram: List[List[int]]

    @property
    def dim(self) -> int:
        return len(self.basis)


def fixed_subalgebra(lift: LiftedAutomorphism) -> FixedSubalgebra:
    """Exact fixed-point subalgebra of an order-3 lifted automorphism."""
    alg = lift.algebra
    r = alg.rank
    cartan_rows = lift.isometry.fixed_coords_basis()
    basis = [alg.cartan_element(row) for row in cartan_rows]
    nc = len(basis)
    position: Dict[int, int] = {}      # orbit representative -> basis index
    seen: Set[int] = set()
    for k in range(alg.n_roots):
        if k in seen:
            continue
        k1 = lift.root_perm[k]
        if k1 == k:
            seen.add(k)
            # a g-fixed root line survives only with trivial phase
            if lift.root_phase[k] == 1:
                position[r + k] = len(basis)
                basis.append(alg.root_element(k))
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
        position[r + k] = len(basis)
        basis.append({r + k: 1, r + k1: s0, r + k2: s1})
    # least-squares solver F^T (F F^T)^-1 for the Cartan part, as integer
    # rows over the denominator sden
    solver: List[List[int]] = []
    sden = 1
    if nc:
        ft = transpose(cartan_rows)                                  # r x nc
        inv = inverse(mat_mul(cartan_rows, ft))
        sden = lcm(*(x.denominator for row in inv for x in row))
        solver = mat_mul(ft, [[int(x * sden) for x in row] for row in inv])

    def coords(x: Dict[int, int]) -> Dict[int, int]:
        """Coordinates of a fixed vector in the fixed basis."""
        out = {position[k]: c for k, c in x.items() if k in position}
        cart = [x.get(i, 0) for i in range(r)]
        if any(cart):
            nz = [(c, solver[i]) for i, c in enumerate(cart) if c]
            sol = [sum(c * row[j] for c, row in nz) for j in range(nc)]
            recon = [
                sum(s * row[i] for s, row in zip(sol, cartan_rows)) for i in range(r)
            ]
            if recon != [sden * c for c in cart]:
                raise InvariantError("Cartan part is outside the fixed sublattice")
            if any(s % sden for s in sol):
                raise InvariantError("a fixed structure constant is not integral")
            out.update((j, s // sden) for j, s in enumerate(sol) if s)
        return out

    dim = len(basis)
    brackets: List[List[Dict[int, int]]] = [[{} for _ in basis] for _ in basis]
    for i in range(dim):
        for j in range(i + 1, dim):
            b = coords(alg.bracket(basis[i], basis[j]))
            brackets[i][j] = b
            brackets[j][i] = {k: -c for k, c in b.items()}
    gram = [[0] * dim for _ in basis]
    for i in range(dim):
        for j in range(i, dim):
            gram[i][j] = gram[j][i] = alg.form(basis[i], basis[j])
    return FixedSubalgebra(basis, brackets, gram)


class IdentificationError(Exception):
    """Float root-space discovery could not be verified exactly."""


def _ad(brackets: List[List[Dict[int, int]]], vec: Sequence[int]) -> List[List[int]]:
    """ad(vec) on row vectors: row j holds the coordinates of [vec, basis[j]]."""
    dim = len(brackets)
    out = [[0] * dim for _ in range(dim)]
    for i, ci in enumerate(vec):
        if ci:
            for j, row in enumerate(brackets[i]):
                oj = out[j]
                for k, c in row.items():
                    oj[k] += ci * c
    return out


def _generic_centralizer(
    brackets: List[List[Dict[int, int]]],
    x: Sequence[int],
    ortho: List[List[int]],
) -> Tuple[List[Tuple[List[int], int]], List[List[List[int]]], bool]:
    """ker(ad x) inside the derived part (the columns of ortho cut it out).

    Returns the reduced kernel basis as primitive integer rows with their
    denominators, the integer ad matrix of each row, and whether the kernel
    is abelian: [k_a, k_b] = -k_a ad(k_b), so it is iff every
    rows[:b] ad(k_b) vanishes.
    """
    stack = _ad(brackets, x)
    if ortho:
        stack = [row + o for row, o in zip(stack, ortho)]
    ker = integer_kernel(stack)
    rows = [row for row, _ in ker]
    ad_rows = [_ad(brackets, row) for row in rows]
    abelian = bool(rows) and all(
        not any(any(r) for r in mat_mul(rows[:b], ad_rows[b]))
        for b in range(1, len(rows))
    )
    return ker, ad_rows, abelian


def identify_type(sub: FixedSubalgebra, seed: int = 7) -> SemisimpleTypeWithLevels:
    """Type and level of a reductive fixed subalgebra.

    The center, Killing form and all dimensions are exact; root-space
    discovery runs in floats and every rounded Cartan integer and level is
    re-verified by the exact spectrum of the Killing-to-invariant-form ratio
    operator gram^-1 * Killing: an ideal of type X at level k contributes
    the eigenvalue 2 h-dual(X)/k with multiplicity dim X.  The multiplicity
    of p/q is the nullity of q * Killing - p * gram, for a nonsingular gram.
    """
    dim = sub.dim
    brackets = sub.brackets

    # Killing gram tr(ad b_i ad b_j), exactly
    kill = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        entries = [
            (a, b, c) for a, row in enumerate(brackets[i]) for b, c in row.items()
        ]
        for j in range(i, dim):
            bj = brackets[j]
            kill[i][j] = kill[j][i] = sum(c * bj[b].get(a, 0) for a, b, c in entries)
    gram = sub.gram

    center = [row for row, _ in integer_kernel(kill)]
    abelian = len(center)
    # derived part: orthogonal complement of the center under the form, as
    # rows over one denominator (ker(ad x) does not see the scale of x)
    ortho: List[List[int]] = []
    derived: List[List[int]] = []
    if center:
        ortho = mat_mul(gram, transpose(center))
        kern = integer_kernel(ortho)
        den = lcm(*(d for _, d in kern))
        derived = [[v * (den // d) for v in row] for row, d in kern]
    sdim = len(derived) if center else dim
    if sdim == 0:
        return SemisimpleTypeWithLevels.of([], abelian)

    rng = random.Random(seed)
    cartan: Optional[List[Tuple[List[int], int]]] = None
    for _ in range(12):
        # with no center the derived part is all of it, and x = c
        c = [rng.randint(-9, 9) for _ in range(sdim)]
        x = mat_mul([c], derived)[0] if center else c
        ker, ad_ker, is_abelian = _generic_centralizer(brackets, x, ortho)
        if is_abelian:
            cartan, ad_cartan = ker, ad_ker
            break
    if cartan is None:
        raise IdentificationError("no abelian generic centralizer found")
    rank_ss = len(cartan)

    # the float pass sees each Cartan vector row / den, each entry rounded
    # once by int true division (den may pass 2^53); cast to complex here,
    # exactly, instead of in every product with a complex eigenvector
    ad_c_np = [
        np.array([[x / d for x in row] for row in a], dtype=complex)
        for a, (_, d) in zip(ad_cartan, cartan)
    ]
    rows = [row for row, _ in cartan]
    g_c_inv_s = inverse(mat_mul(mat_mul(rows, gram), transpose(rows)))
    g_c_inv = np.array([
        [float(x * cartan[i][1] * cartan[j][1]) for j, x in enumerate(row)]
        for i, row in enumerate(g_c_inv_s)
    ])

    last_error: Optional[Exception] = None
    for _attempt in range(8):
        try:
            ideals, spectrum = _float_root_pass(
                rng, sdim, rank_ss, brackets, cartan, ad_c_np, g_c_inv
            )
            break
        except IdentificationError as err:
            last_error = err
    else:
        raise IdentificationError(f"float discovery failed: {last_error}")

    # exact re-verification via the spectrum of gram^-1 * killing
    if rank(gram) != dim:
        raise IdentificationError("the invariant form on the fixed algebra is singular")
    if abelian:
        spectrum[Q(0)] = spectrum.get(Q(0), 0) + abelian
    total = 0
    for ev, mult in spectrum.items():
        p, q = ev.numerator, ev.denominator
        shifted = [
            [q * kill[i][j] - p * gram[i][j] for j in range(dim)]
            for i in range(dim)
        ]
        null = dim - rank(shifted)
        if null != mult:
            raise IdentificationError(
                f"eigenvalue {ev}: exact multiplicity {null} != claimed {mult}"
            )
        total += mult
    if total != dim:
        raise IdentificationError("claimed spectrum does not fill the algebra")
    if sum(t.dim() for t, _ in ideals) + abelian != dim:
        raise IdentificationError("dimension bookkeeping failed")
    if sum(t.rank for t, _ in ideals) + abelian != rank_ss + abelian:
        raise IdentificationError("rank bookkeeping failed")
    return SemisimpleTypeWithLevels.of(ideals, abelian)


def _float_root_pass(
    rng: random.Random,
    sdim: int,
    rank_ss: int,
    brackets: List[List[Dict[int, int]]],
    cartan: List[Tuple[List[int], int]],
    ad_c_np: List[np.ndarray],
    g_c_inv: np.ndarray,
) -> Tuple[List[Tuple[SimpleType, Q]], Dict[Q, int]]:
    """One float root-space discovery attempt; raises on any inconsistency."""
    weights = [rng.randint(1, 997) for _ in cartan]
    # ad is linear: sum_k w_k ad(c_k) = ad(sum_k w_k c_k), taken over the
    # common denominator of the Cartan rows
    den = lcm(*(d for _, d in cartan))
    h = [
        sum(w * (den // d) * row[j] for w, (row, d) in zip(weights, cartan))
        for j in range(len(brackets))
    ]
    try:
        pairs = float_eigen([[x / den for x in row] for row in _ad(brackets, h)])
    except ResidualExceeded as err:
        raise IdentificationError(f"eigen discovery failed: {err}")
    nonzero = [(lam, v) for lam, v in pairs if abs(lam) > 1e-7]
    if len(nonzero) != sdim - rank_ss:
        raise IdentificationError("root-space count mismatch in float pass")
    functionals = []
    for _, v in nonzero:
        denom = np.vdot(v, v)
        functionals.append(
            np.array([complex(np.vdot(v, a @ v) / denom) for a in ad_c_np])
        )

    def pairing(u: np.ndarray, w: np.ndarray) -> complex:
        return complex(u @ g_c_inv @ w)

    # generic complex functional splits every +- root pair
    xi = np.array(
        [complex(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
         for _ in range(rank_ss)]
    )
    scores = [(xi @ f).real for f in functionals]
    if any(abs(s) < 1e-6 for s in scores):
        raise IdentificationError("splitting functional degenerate")
    positives = [f for f, s in zip(functionals, scores) if s > 0]
    if 2 * len(positives) != len(functionals):
        raise IdentificationError("positive system is unbalanced")

    # a positive root is simple when it is no sum of two positive roots
    pos = np.array(positives).reshape(len(positives), rank_ss)
    sums = pos[:, None, :] + pos[None, :, :]
    simple = [f for f in positives if not (np.abs(f - sums).max(axis=-1) < 1e-6).any()]
    if len(simple) != rank_ss:
        raise IdentificationError("simple-root count does not match the rank")

    adj = [
        [abs(pairing(simple[i], simple[j])) > 1e-6 for j in range(rank_ss)]
        for i in range(rank_ss)
    ]
    comp_of = [-1] * rank_ss
    ncomp = 0
    for i in range(rank_ss):
        if comp_of[i] >= 0:
            continue
        stack = [i]
        comp_of[i] = ncomp
        while stack:
            a = stack.pop()
            for b in range(rank_ss):
                if adj[a][b] and comp_of[b] < 0:
                    comp_of[b] = ncomp
                    stack.append(b)
        ncomp += 1

    ideals: List[Tuple[SimpleType, Q]] = []
    spectrum: Dict[Q, int] = {}
    for comp in range(ncomp):
        idxs = [i for i in range(rank_ss) if comp_of[i] == comp]
        pair = [[pairing(simple[a], simple[b]) for b in idxs] for a in idxs]
        for row in pair:
            for v in row:
                if abs(v.imag) > 1e-6:
                    raise IdentificationError("complex pairing in a component")
        maxnorm = max(pair[i][i].real for i in range(len(idxs)))
        # relative gram, normalized so long roots have norm 2
        gram_comp: List[List[Q]] = []
        for a in range(len(idxs)):
            row = []
            for b in range(len(idxs)):
                v = 2 * pair[a][b].real / maxnorm
                q = Q(round(v * 6), 6)
                if abs(float(q) - v) > 1e-6:
                    raise IdentificationError("component gram does not round")
                row.append(q)
            gram_comp.append(row)
        ty = classify_simple_system(gram_comp)
        level_f = 2 / maxnorm
        level = Q(round(level_f * 6), 6)
        if abs(float(level) - level_f) > 1e-6:
            raise IdentificationError("level does not round")
        ideals.append((ty, level))
        ev = Q(2 * ty.dual_coxeter_number()) / level
        spectrum[ev] = spectrum.get(ev, 0) + ty.dim()
    return ideals, spectrum


# ---------------------------------------------------------------------------
# twisted ground energies, projections, counting, glue automorphisms


_CYCLOTOMIC = {
    1: [-1, 1],            # x - 1
    2: [1, 1],             # x + 1
    3: [1, 1, 1],          # x^2 + x + 1
    4: [1, 0, 1],
    6: [1, -1, 1],
}


def _euler_phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def twisted_ground_energy(g: LatticeIsometry) -> Tuple[Q, List[int]]:
    """Ground energy (1/4) sum_j (j/n)(1-j/n) m_j and the multiplicities m_j.

    m_j is the multiplicity of the eigenvalue e^(2 pi i j / n) of g on the
    ambient space, computed from exact kernels of cyclotomic evaluations.
    """
    n = g.order()
    dim = g.lattice.rank

    def poly_apply(coeffs: List[int]) -> List[List[int]]:
        out = [[0] * dim for _ in range(dim)]
        power = _identity_local(dim)
        for c in coeffs:
            if c:
                for i in range(dim):
                    for j in range(dim):
                        out[i][j] += c * power[i][j]
            power = mat_mul(power, g.matrix)
        return out

    orders = {n // gcd(j, n) if j else 1 for j in range(n)}
    if any(d not in _CYCLOTOMIC for d in orders):
        raise ValueError("unsupported eigenvalue order")
    mults = [0] * n
    for d in sorted(orders):
        null = dim - rank(poly_apply(_CYCLOTOMIC[d]))
        share = null // _euler_phi(d)
        for j in range(n):
            if (n // gcd(j, n) if j else 1) == d:
                mults[j] = share
    if sum(mults) != dim:
        raise InvariantError("eigenvalue multiplicities do not fill the space")
    rho = sum(
        Q(j, n) * (1 - Q(j, n)) * mults[j] for j in range(1, n)
    ) / 4
    return rho, mults


def fixed_projection_norm(
    lat: EvenLattice, g: LatticeIsometry, u: Vec
) -> Tuple[Vec, Q]:
    """Orthogonal projection of a dual vector onto the fixed subspace of g."""
    n = g.order()
    amb = g.ambient_matrix()
    cur = list(u)
    acc = list(u)
    for _ in range(n - 1):
        cur = [
            sum(cur[i] * amb[i][j] for i in range(len(cur)) if cur[i])
            for j in range(len(cur))
        ]
        acc = [a + b for a, b in zip(acc, cur)]
    proj = tuple(a / n for a in acc)
    return proj, lat.ip_ambient(proj, proj)


def count_orthogonal_subsystems(
    ambient: SimpleType, part: SimpleType, copies: int
) -> int:
    """Number of sublattices of the ambient root lattice of shape part^copies.

    Subsystems are enumerated as root subsets (pairs for A1, hexagons for
    A2), and sets of pairwise orthogonal copies are counted; distinct sets
    span distinct sublattices because the root system of the span recovers
    the copies.
    """
    rs = build_root_system(ambient)
    roots = rs.roots
    # scale * (x|y) in integers, through each root's covector
    duals = {r: rs.covector(r) for r in roots}

    def ip_s(x: IntVec, y: IntVec) -> int:
        return sum(a * b for a, b in zip(duals[x], y))

    long_s = 2 * rs.scale
    # each root subset maps to roots spanning it
    subs: Dict[FrozenSet[IntVec], Tuple[IntVec, ...]] = {}
    if part == SimpleType("A", 1):
        for r in roots:
            subs.setdefault(frozenset({r, tuple(-c for c in r)}), (r,))
    elif part == SimpleType("A", 2):
        for a, b in itertools.combinations(roots, 2):
            if ip_s(a, b) == -rs.scale and ip_s(a, a) == ip_s(b, b) == long_s:
                ab = tuple(x + y for x, y in zip(a, b))
                hexagon = frozenset(
                    {
                        a,
                        b,
                        ab,
                        tuple(-x for x in a),
                        tuple(-x for x in b),
                        tuple(-x for x in ab),
                    }
                )
                subs.setdefault(hexagon, (a, b))
    else:
        raise ValueError("only A1 and A2 patterns are supported")
    # two copies are orthogonal iff their spanning roots are
    spans = list(subs.values())
    k = len(spans)
    ortho = [
        [
            all(ip_s(x, y) == 0 for x in spans[i] for y in spans[j])
            for j in range(k)
        ]
        for i in range(k)
    ]
    count = 0

    def extend(start: int, chosen: List[int]) -> None:
        nonlocal count
        if len(chosen) == copies:
            count += 1
            return
        for nxt in range(start, k):
            if all(ortho[c][nxt] for c in chosen):
                extend(nxt + 1, chosen + [nxt])

    extend(0, [])
    return count


def _disc_automorphisms(t: SimpleType) -> List[Dict[int, int]]:
    if t == SimpleType("E", 6):
        return [{0: 0, 1: 1, 2: 2}, {0: 0, 1: 2, 2: 1}]
    if t == SimpleType("D", 4):
        return [
            {0: 0, 1: p[0], 2: p[1], 3: p[2]}
            for p in itertools.permutations((1, 2, 3))
        ]
    raise ValueError(f"no discriminant data for {t}")


def glue_automorphism_group_order(code: GlueCode) -> int:
    """Order of the group of (component permutation, digit map) pairs
    preserving the code."""
    k = len(code.components)
    words = code.words()
    if not all(t == code.components[0] for t in code.components):
        raise ValueError("mixed-component codes are not supported")
    t = code.components[0]
    autos = _disc_automorphisms(t)
    gens = list(code.generators)

    def image(w: IntVec, perm: Sequence[int], digit_maps: Sequence[Dict[int, int]]) -> IntVec:
        permuted = tuple(w[perm[i]] for i in range(k))
        return tuple(digit_maps[i][permuted[i]] for i in range(k))

    total_brute = len(autos) ** k * factorial(k) if k <= 6 else None
    if total_brute is not None and total_brute <= 10**6:
        count = 0
        for perm in itertools.permutations(range(k)):
            for maps in itertools.product(autos, repeat=k):
                if all(image(g, perm, maps) in words for g in gens):
                    count += 1
        return count

    # anchored search: requires the two constant full-support words, whose
    # images (w1, w2) fix every digit map; a pair (perm, maps) preserves the
    # code iff every permuted generator lies in maps^-1(code)
    all1 = tuple([1] * k)
    all2 = tuple([2] * k)
    if all1 not in words or all2 not in words:
        raise ValueError("anchored search needs the constant words in the code")
    full_support = [w for w in words if all(w)]
    permuted_gens = [
        [tuple(g[p] for p in perm) for g in gens]
        for perm in itertools.permutations(range(k))
    ]
    count = 0
    for w2img in full_support:
        for w1img in full_support:
            if any(a == b for a, b in zip(w1img, w2img)):
                continue
            inverse_maps = [
                {0: 0, a: 1, b: 2, ({1, 2, 3} - {a, b}).pop(): 3}
                for a, b in zip(w1img, w2img)
            ]
            preimage = {tuple(m[d] for m, d in zip(inverse_maps, w)) for w in words}
            count += sum(
                all(w in preimage for w in pg) for pg in permuted_gens
            )
    return count
