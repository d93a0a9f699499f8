"""Finite root systems, integer and rational weights, the fundamental
alcove, and fixed-subalgebra classification of inner finite-order
automorphisms by affine-node labels.

Conventions.  The invariant form is normalized so long roots have norm 2.
Weights are stored in fundamental-weight coordinates, as integers
(`IntCoords`); roots additionally carry simple-root coordinates.  A rational
weight x, such as a twist direction, has one form too: (den, den * x) with
den * x integral (`ScaledCoords`, made once by `scaled_coords`), so every
pairing is an integer sum against `RootSystem.covector` over den * scale.
Root data has one form as well: the simple-root gram is an integer matrix
over the least scale that clears it (`_gram_matrix`), and the Cartan rows,
the form and the affine diagram are read from that pair, the inverse
Cartan matrix through `exactmath.integer_inverse`.  Simple-root gram
matrices for G2, A-series, D4 and E6 follow the module tables they feed:
G2 has (a1|a1) = 2/3 with the first node short, D4 has the branch node
second, E6 has the branch node second attached to the fourth node of the
chain.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .exactmath import InvariantError, integer_inverse

IntCoords = Tuple[int, ...]
# a rational weight x as (den, den * x), den > 0 and den * x integral
ScaledCoords = Tuple[int, IntCoords]

_FAMILIES = tuple("ABCDEFG")  # a string would also contain "" and "AB"
_SIMPLE_TYPE = re.compile(r"[A-G][0-9]+")
# the ranks each family admits, and the dimension at each of them: read
# per construction and per `simple_types` rank, so built once here
_RANK_OK = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}
_DIM = {
    "A": lambda r: r * (r + 2),
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "E": {6: 78, 7: 133, 8: 248}.__getitem__,
    "F": lambda r: 52,
    "G": lambda r: 14,
}


class _SimpleTypeKey(NamedTuple):
    family: str
    rank: int


class SimpleType(_SimpleTypeKey):
    """Family letter and rank, a validated tuple: equality, hash and order
    are tuple's, (family, rank), and run in C."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "SimpleType":
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if not _RANK_OK[family](rank):
            raise ValueError(f"invalid simple type {family}{rank}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, iterable: Iterable) -> "SimpleType":
        """Through the validation: NamedTuple's own _make, which _replace
        calls, builds the tuple unchecked."""
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(s: str) -> "SimpleType":
        """`X<rank>` with the rank in ASCII digits; ValueError otherwise."""
        if not _SIMPLE_TYPE.fullmatch(s):
            raise ValueError(f"{s!r} is not a simple type X<rank> in ASCII digits")
        return SimpleType(s[:1], int(s[1:]))

    def dim(self) -> int:
        """Dimension of the simple Lie algebra of this type."""
        return _DIM[self.family](self.rank)

    def dual_coxeter_number(self) -> int:
        """Closed-form dual Coxeter number (cross-checked against root data)."""
        r = self.rank
        if self.family in ("A", "C"):
            return r + 1
        if self.family == "B":
            return 2 * r - 1
        if self.family == "D":
            return 2 * r - 2
        if self.family == "E":
            return {6: 12, 7: 18, 8: 30}[r]
        return 9 if self.family == "F" else 4

    def n_roots(self) -> int:
        return self.dim() - self.rank


def simple_types(max_dim: int) -> List[SimpleType]:
    """Every simple Lie algebra of dimension at most max_dim, named once:
    B from rank 3 and D from rank 4, since B2 = C2 and D3 = A3.  The
    dimension grows with the rank in each family, and each type is built
    once, after its dimension is found within the cap."""
    ranks = {"A": count(1), "B": count(3), "C": count(2), "D": count(4),
             "E": (6, 7, 8), "F": (4,), "G": (2,)}
    types = []
    for family, family_ranks in ranks.items():
        for n in family_ranks:
            if _DIM[family](n) > max_dim:
                break
            types.append(SimpleType(family, n))
    return sorted(types)


def _simply_laced_gram(rank: int, edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def _gram_matrix(t: SimpleType) -> Tuple[List[List[int]], int]:
    """(scale * simple-root gram, scale) in integers, scale the least
    positive integer that clears the gram's denominators."""
    r = t.rank
    chain = [(i, i + 1) for i in range(r - 1)]
    scale = 1
    if t.family in ("A", "B"):
        g = _simply_laced_gram(r, chain)
        if t.family == "B":
            # long chain, short last root of norm 1
            g[r - 1][r - 1] = 1
    elif t.family == "D":
        # chain a1..a_{r-1} with a_r attached to a_{r-2}; for D4 the branch
        # node is a2, matching the module tables.
        g = _simply_laced_gram(r, chain[: r - 2] + [(r - 3, r - 1)])
    elif t.family == "E":
        # a2 attached to a4; chain a1-a3-a4-a5-a6(-a7-a8)
        order = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        g = _simply_laced_gram(r, list(zip(order, order[1:])) + [(1, 3)])
    elif t.family == "C":
        # short chain of norm 1, long last root, at scale 2
        g = _simply_laced_gram(r, chain)
        g[r - 1][r - 1] = 4
        g[r - 2][r - 1] = g[r - 1][r - 2] = -2
        scale = 2
    elif t.family == "F":
        g = [[4, -2, 0, 0], [-2, 4, -2, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
        scale = 2
    else:
        # G2: (a1|a1) = 2/3 with the first node short, at scale 3
        g = [[2, -3], [-3, 6]]
        scale = 3
    # C2's gram is integral: a common factor of the entries and scale goes
    k = gcd(scale, *(x for row in g for x in row))
    return [[x // k for x in row] for row in g], scale // k


class RootSystem(NamedTuple):
    """Root system with one integer-scaled invariant form: a value, built
    once by `build_root_system`, every table a tuple of tuples.

    Roots, simple roots and theta have integer fundamental-weight
    coordinates.  The form on fundamental-weight coordinates is the integer
    matrix `form` over the least positive integer `scale` that clears its
    denominators: (x|y) = x . form . y / scale, long roots of norm 2.
    """

    type: SimpleType
    rank: int
    simple_roots: Tuple[IntCoords, ...]
    scale: int
    form: Tuple[IntCoords, ...]
    roots: Tuple[IntCoords, ...]
    root_alpha_coords: Tuple[IntCoords, ...]
    theta: IntCoords

    def covector(self, x: Sequence[Q | int]) -> List[Q | int]:
        """form . x, so that pairing it with y gives scale * (x|y)."""
        return [sum(f * c for f, c in zip(row, x) if c) for row in self.form]


@lru_cache(maxsize=None)
def build_root_system(t: SimpleType) -> RootSystem:
    """Root system of a simple type; roots generated and counted, theta read
    off the affine marks (`_affine_diagram`)."""
    n = t.rank
    g, s = _gram_matrix(t)
    # fw coords of a_i = row i of the Cartan matrix, 2(ai|aj)/(aj|aj)
    simple = tuple(tuple(2 * g[i][j] // g[j][j] for j in range(n)) for i in range(n))
    # (L_i|L_j) = (C^-1)_ji * d_i with d_i = (a_i|a_i)/2 = g_ii / 2s and
    # C^-1 = Y / d, so (L_i|L_j) = Y_ji g_ii / 2sd, reduced by the gcd
    y, d = integer_inverse(simple)
    num = [[y[j][i] * g[i][i] for j in range(n)] for i in range(n)]
    common = gcd(2 * s * d, *(x for row in num for x in row))
    form = tuple(tuple(x // common for x in row) for row in num)
    # the roots: the Weyl-orbit closure of the simple roots under simple
    # reflections, with their simple-root coordinates
    found = {simple[i]: tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = dict(found)
    while frontier:
        new: Dict[IntCoords, IntCoords] = {}
        for fw, ac in frontier.items():
            for j in range(n):
                m = fw[j]
                if not m:
                    continue  # s_j fixes fw, which is found already
                img = tuple(a - m * b for a, b in zip(fw, simple[j]))
                if img not in found:
                    new[img] = tuple(c - (m if k == j else 0) for k, c in enumerate(ac))
        found.update(new)
        frontier = new
    roots = tuple(sorted(found))
    acs = tuple(found[rt] for rt in roots)
    if len(roots) != t.n_roots():
        raise InvariantError(f"{t}: generated {len(roots)} roots, expected {t.n_roots()}")
    # theta = sum of mark_i a_i, the marks after node 0's 1
    marks = _affine_diagram(t)[1]
    theta = tuple(sum(m * a[k] for m, a in zip(marks[1:], simple)) for k in range(n))
    if theta not in found:
        raise InvariantError(f"{t}: theta {theta} from the affine marks is not a root")
    return RootSystem(t, n, simple, 2 * s * d // common, form, roots, acs, theta)


def scaled_coords(x: Sequence[Q | int]) -> ScaledCoords:
    """(den, den * x) for the least den that makes the rational weight x integral."""
    den = lcm(*(c.denominator for c in x))
    return den, tuple(c.numerator * (den // c.denominator) for c in x)


def dominant_conjugate(rs: RootSystem, x: Sequence[int]) -> IntCoords:
    """The dominant weight in the Weyl orbit of the integer weight x.

    A rational weight enters as den * x (`scaled_coords`): reflections are
    linear, so the result is den times its dominant conjugate.  Each s_j
    with x_j < 0 lowers by one the number of positive roots that pair
    negatively with x, so |positive roots| reflections always suffice.
    """
    bound = rs.type.n_roots() // 2
    cur = list(x)
    for _ in range(bound + 1):
        j = next((k for k, c in enumerate(cur) if c < 0), None)
        if j is None:
            return tuple(cur)
        m = cur[j]
        cur = [c - m * a for c, a in zip(cur, rs.simple_roots[j])]
    raise InvariantError(f"{x} is not dominant after {bound} steps")


def lowest_weight(rs: RootSystem, lam: Sequence[int]) -> IntCoords:
    """Lowest weight w0.lam of the module: minus the dominant conjugate of -lam."""
    return tuple(-c for c in dominant_conjugate(rs, [-c for c in lam]))


def alcove_labels(rs: RootSystem, h: ScaledCoords) -> IntCoords:
    """Kac labels of the point of the fundamental alcove conjugate to h.

    h enters as (den, den * h) and moves under the affine Weyl group, which
    keeps the roots with (h|alpha) integral up to conjugacy.  Each round
    takes the dominant conjugate, and while (h|theta) > 1 the reflection
    s_0 in the wall (x|theta) = 1 maps h to h - ((h|theta) - 1) theta
    (theta is long, so theta-dual = theta).  That lowers |h|^2 by
    2((h|theta) - 1) >= 2/den, so den |h|^2 / 2 reflections always suffice.
    The labels are den * scale * (1 - (h|theta), (h|a_1), ..., (h|a_r)),
    in integers.
    """
    den, v = h
    wall = den * rs.scale
    theta = rs.covector(rs.theta)
    for _ in range(sum(map(mul, rs.covector(v), v)) // (2 * wall) + 1):
        v = dominant_conjugate(rs, v)
        p = sum(map(mul, theta, v))
        if p <= wall:
            return (wall - p,) + tuple(
                sum(map(mul, rs.covector(a), v)) for a in rs.simple_roots
            )
        step, rem = divmod(p - wall, rs.scale)
        if rem:
            raise InvariantError(f"(h|theta) of {h} is not in (1/den)Z")
        v = tuple(c - step * t for c, t in zip(v, rs.theta))
    raise InvariantError(f"{h} is not in the fundamental alcove after s_0 steps")


class SemisimpleTypeWithLevels(NamedTuple):
    """Multiset of (simple type, positive integer level) ideals plus an
    abelian rank.  A tuple: equality, hash and order are tuple's and run in C.
    """

    ideals: Tuple[Tuple[SimpleType, int], ...]
    abelian_rank: int = 0

    @staticmethod
    def of(
        ideals: Sequence[Tuple[SimpleType, int]], abelian_rank: int = 0
    ) -> "SemisimpleTypeWithLevels":
        norm = tuple(sorted(ideals))
        if any(isinstance(k, bool) or not isinstance(k, (int, Q)) for _, k in norm):
            raise ValueError("levels must be ints or Fractions")
        if any(k <= 0 for _, k in norm):
            raise ValueError("levels must be positive")
        return SemisimpleTypeWithLevels(norm, abelian_rank)

    def dim(self) -> int:
        return sum(t.dim() for t, _ in self.ideals) + self.abelian_rank

    # one name per value and process: equal values print alike, as every
    # level is an int or a Fraction, whose str agrees with an equal int's
    @lru_cache(maxsize=None)
    def __str__(self) -> str:
        parts = [f"{t},{k}" for t, k in self.ideals]
        if self.abelian_rank == 1:
            parts.append("U(1)")
        elif self.abelian_rank > 1:
            parts.append(f"U(1)^{self.abelian_rank}")
        return " ".join(parts) if parts else "0"

    @staticmethod
    def parse(s: str) -> "SemisimpleTypeWithLevels":
        """Space-separated `X<rank>,<k>`, `U(1)` and `U(1)^n` tokens; B2
        and D3 are read as C2 and A3, as the ratio pools and Kac's tables name them.
        ASCII only: str.split() would also split on Unicode spaces."""
        if not s.isascii():
            raise ValueError(f"{s!r} is not a type string in ASCII")
        ideals: List[Tuple[SimpleType, int]] = []
        abelian = 0
        for tok in s.split():
            if tok.startswith("U("):
                m = _ABELIAN_TOKEN.fullmatch(tok)
                if m is None:
                    raise ValueError(f"{tok!r} is not U(1) or U(1)^n with n >= 1")
                abelian += int(m.group(1) or 1)
                continue
            t, k = parse_ideal(tok)
            ideals.append((_ALIASES.get(t, t), k))
        return SemisimpleTypeWithLevels.of(ideals, abelian)


_ABELIAN_TOKEN = re.compile(r"U\(1\)(?:\^([1-9][0-9]*))?")
_ALIASES = {SimpleType("B", 2): SimpleType("C", 2), SimpleType("D", 3): SimpleType("A", 3)}


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_LEVEL = re.compile(r"[0-9]+")


# cached per string: a twist-probe pass reads 2,547 coordinates in 10 distinct
# strings and 1,280 ideal tokens in 13; each result is immutable, and an error
# is not cached, so a bad token raises at every use
@lru_cache(maxsize=None)
def parse_rational(text: str) -> Q:
    """`[-]p` or `[-]p/q`, q > 0, in ASCII digits; ValueError otherwise.
    Fraction() alone would also read other scripts' digits, `+` and `_`."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"{text!r} is not a rational [-]p[/q] in ASCII digits, q > 0")
    p, q = m.groups()
    return Q(int(p), int(q or 1))


@lru_cache(maxsize=None)
def parse_ideal(tok: str) -> Tuple[SimpleType, int]:
    """One `X<rank>,<k>` token, the type as written and k in ASCII digits;
    ValueError if malformed.  A level of 0 is left to the type's own check."""
    ty, _, lev = tok.partition(",")
    if not _LEVEL.fullmatch(lev):
        raise ValueError(f"{tok!r} is not an ideal X<rank>,<k> with k in ASCII digits")
    return SimpleType.parse(ty), int(lev)


def classify_simple_system(gram: Sequence[Sequence[Q | int]]) -> SimpleType:
    """Dynkin type of an irreducible simple system given its exact gram matrix.

    The gram may be rational or any positive multiple of it in integers.  The
    diagram must be a connected tree, n - 1 bonds reaching every node, and
    a multiple bond may only lie on a path, once.  The package derives every
    diagram itself, so a non-Dynkin one is an InvariantError.
    """
    n = len(gram)
    adj: List[List[int]] = [[] for _ in range(n)]
    multi = []
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j]:
                # bond multiplicity = product of the two Cartan entries
                num = 4 * gram[i][j] * gram[j][i]
                den = gram[i][i] * gram[j][j]
                b = num // den
                if b * den != num or not 1 <= b <= 3:
                    raise InvariantError(f"bond {num}/{den} is not 1, 2 or 3")
                adj[i].append(j)
                adj[j].append(i)
                if b > 1:
                    multi.append((b, i, j))
    reached = [0]
    for i in reached:  # grows while it is walked: a breadth-first search
        reached.extend(j for j in adj[i] if j not in reached)
    degrees = [len(a) for a in adj]
    if sum(degrees) != 2 * (n - 1) or len(reached) != n:
        raise InvariantError("disconnected or cyclic simple system")
    if multi:
        if len(multi) > 1 or max(degrees) > 2:
            raise InvariantError("multiple bond off a path, or more than one")
        ((b, i, j),) = multi
        if n == 2:
            return SimpleType("G" if b == 3 else "C", 2)
        if b == 3:
            raise InvariantError("triple bond outside rank 2")
        if degrees[i] == degrees[j] == 2:
            if n != 4:
                raise InvariantError("interior double bond outside F4")
            return SimpleType("F", 4)
        maxnorm = max(gram[k][k] for k in range(n))
        n_short = sum(1 for k in range(n) if gram[k][k] < maxnorm)
        return SimpleType("B" if n_short == 1 else "C", n)
    if max(degrees) <= 2:
        return SimpleType("A", n)
    if max(degrees) > 3 or degrees.count(3) != 1:
        raise InvariantError("not a Dynkin diagram")
    hub = degrees.index(3)
    legs = []
    for start in adj[hub]:
        length = 1
        prev, cur = hub, start
        while degrees[cur] == 2:  # a tree: each leg ends at a leaf
            prev, cur = cur, next(k for k in adj[cur] if k != prev)
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return SimpleType("D", legs[2] + 3)
    if legs[:2] == [1, 2] and legs[2] in (2, 3, 4):
        return SimpleType("E", legs[2] + 4)
    raise InvariantError(f"unrecognized branched diagram with legs {legs}")


@lru_cache(maxsize=None)
def _affine_diagram(t: SimpleType) -> Tuple[Tuple[IntCoords, ...], IntCoords, int]:
    """Untwisted affine diagram: (scale * node gram, marks, scale), in integers.

    Node 0 is -theta, nodes 1..r the simple roots; the gram and its scale
    are `_gram_matrix`'s.  No root is generated: theta, the one
    dominant long root, is reached from a long simple root beta by the
    height-raising reflections s_i with <beta, a_i-dual> < 0.  The marks are
    1 and theta's simple-root coordinates."""
    g, scale = _gram_matrix(t)
    n = t.rank
    top = max(range(n), key=lambda k: g[k][k])
    beta = [int(k == top) for k in range(n)]
    tg = list(g[top])  # the pairing row beta.g, kept as beta grows
    for _ in range(t.n_roots()):
        i = next((i for i in range(n) if tg[i] < 0), None)
        if i is None:
            break
        c = -(2 * tg[i] // g[i][i])
        beta[i] += c
        tg = [x + c * y for x, y in zip(tg, g[i])]
    marks = (1,) + tuple(beta)
    if sum(marks) != t.n_roots() // n:
        raise InvariantError(f"{t}: marks {marks} do not sum to the Coxeter number")
    # node 0 pairs with the simple roots as -theta.g, and with itself as theta.g.theta
    row0 = (sum(map(mul, tg, beta)),) + tuple(-x for x in tg)
    gram = (row0,) + tuple((row0[1 + i],) + tuple(g[i]) for i in range(n))
    return gram, marks, scale


def kac_fixed_subalgebra(t: SimpleType, s: Sequence[int]) -> SemisimpleTypeWithLevels:
    """Fixed-subalgebra type of the inner automorphism labelled by s.

    s lists non-negative integers on the untwisted affine diagram nodes; with
    coprime labels the automorphism order is sum(marks * s).  Only which
    labels vanish matters here: the semisimple part is the sub-diagram on the
    vanishing nodes, and the abelian rank is one less than the number of
    nonzero labels.  Each component carries its level inside a level-1
    ideal, the integer 2/(b|b) = 2 scale // (scale (b|b)), (b|b) its
    long-root norm in the ambient normalization; at level k it scales by k.
    The package derives every label vector itself, so a bad one raises
    InvariantError.
    """
    gram, marks, scale = _affine_diagram(t)
    if len(s) != len(marks) or min(s) < 0 or not any(s):
        raise InvariantError(f"{tuple(s)} is not a label vector of affine {t}")
    unseen = [i for i, x in enumerate(s) if x == 0]
    ideals: List[Tuple[SimpleType, int]] = []
    while unseen:
        comp = [unseen.pop()]
        for i in comp:  # grows while it is walked: a breadth-first search
            linked = [j for j in unseen if gram[i][j]]
            comp.extend(linked)
            unseen = [j for j in unseen if not gram[i][j]]
        ty = classify_simple_system([[gram[i][j] for j in comp] for i in comp])
        level, rem = divmod(2 * scale, max(gram[i][i] for i in comp))
        if rem:
            raise InvariantError(f"{ty} in affine {t}: level 2/(b|b) is not an integer")
        ideals.append((ty, level))
    return SemisimpleTypeWithLevels.of(ideals, len(s) - s.count(0) - 1)
