"""Candidate weight-one Lie algebras for the orbifolded VOA.

Every simple ideal of the weight-one algebra of a holomorphic VOA of central
charge 24 satisfies h-dual / level = (dim V_1 - 24) / 24, so a target
dimension and ratio cut the possible ideals to a finite list and candidate
algebras to multisets of those ideals.  An order-3 automorphism of a
candidate acts by permuting ideals in 3-cycles (each contributing a diagonal
ideal at triple level) and acting on the remaining ideals one at a time, so
a fixed-subalgebra target filters the candidates mechanically.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import add, itemgetter, le
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    _affine_diagram,
    kac_fixed_subalgebra,
    simple_types,
)

Ideal = Tuple[SimpleType, int]
D4, A2, G2 = SimpleType("D", 4), SimpleType("A", 2), SimpleType("G", 2)


def simple_ideals_with_ratio(r: Q | int, dim_cap: int) -> List[Ideal]:
    """All (type, level) with h-dual = r * level, level >= 1, dim <= cap.

    Levels are ints.  B2 and D3 are reported under their A/C aliases to
    avoid duplicates.
    """
    if r <= 0:
        raise ValueError("ratio must be positive")
    num, den = Q(r).as_integer_ratio()
    out: List[Ideal] = []
    for t in simple_types(dim_cap):
        k, rem = divmod(t.dual_coxeter_number() * den, num)
        if not rem and k >= 1:
            out.append((t, k))
    return out


@lru_cache(maxsize=None)
def enumerate_candidates(total_dim: int, r: Q) -> Tuple[SemisimpleTypeWithLevels, ...]:
    """All multisets of ratio-r ideals with dimensions summing to total_dim."""
    pool = simple_ideals_with_ratio(r, total_dim)
    dims = [t.dim() for t, _ in pool]
    results: List[SemisimpleTypeWithLevels] = []

    def rec(i: int, remaining: int, chosen: List[Ideal]) -> None:
        if remaining == 0:
            # chosen follows the sorted pool, the order `of` would sort into
            results.append(SemisimpleTypeWithLevels(tuple(chosen)))
            return
        if i == len(pool) or remaining < 0:
            return
        # skip ideal i entirely, or take one more copy (non-decreasing index)
        rec(i + 1, remaining, chosen)
        if dims[i] <= remaining:
            chosen.append(pool[i])
            rec(i, remaining - dims[i], chosen)
            chosen.pop()

    try:
        rec(0, total_dim, [])
    except RecursionError:  # the depth grows with total_dim / the least ideal dim
        raise ValueError(
            f"candidate search at dim {total_dim}, ratio {r} nests too deep to enumerate"
        ) from None
    return tuple(sorted(results, key=str))


def _order3_label_vectors(t: SimpleType) -> List[Tuple[int, ...]]:
    """Affine-node label vectors of inner order-3 automorphism classes: the
    coprime s >= 0 with sum(marks * s) = 3, in lexicographic order."""
    partial: List[Tuple[int, Tuple[int, ...]]] = [(3, ())]  # (budget left, labels)
    for m in _affine_diagram(t)[1]:
        partial = [(b - s * m, v + (s,)) for b, v in partial for s in range(b // m + 1)]
    return [v for b, v in partial if b == 0 and gcd(*v) == 1]


class FixedOption(NamedTuple):
    """One realizable fixed subalgebra of an order-3 action on a simple ideal."""

    result: SemisimpleTypeWithLevels
    kind: str  # "trivial" | "inner" | "outer"


def _diagram_automorphisms(t: SimpleType) -> Tuple[Tuple[int, ...], ...]:
    """The node permutations p with gram[p[i]][p[j]] == gram[i][j] for the
    scaled Gram matrix of t's affine diagram.

    Every partial map grows by one node at a time, in breadth-first order
    from node 0: a later node goes to a neighbour of a placed neighbour's
    image and is compared with its placed neighbours only.  An injective map
    sending edges to equal edges is a bijection on the edges, whose counts
    agree, so non-edges go to non-edges unchecked."""
    gram = _affine_diagram(t)[0]
    n = len(gram)
    nbrs = [[j for j in range(n) if j != i and gram[i][j]] for i in range(n)]
    order = [0]
    for i in order:  # grows while it is walked: a breadth-first search
        order.extend(j for j in nbrs[i] if j not in order)
    maps: List[Tuple[int, ...]] = [()]  # images of order[:d]
    for d, v in enumerate(order):
        back = [(e, gram[u][v]) for e, u in enumerate(order[:d]) if u in nbrs[v]]
        maps = [
            m + (w,)
            for m in maps
            for w in (nbrs[m[back[0][0]]] if back else range(n))
            if w not in m and gram[w][w] == gram[v][v]
            and all(gram[m[e]][w] == g for e, g in back)
        ]
    return tuple(tuple(m[order.index(i)] for i in range(n)) for m in maps)


@lru_cache(maxsize=None)
def _inner_options_at_level_one(t: SimpleType) -> Tuple[SemisimpleTypeWithLevels, ...]:
    """Kac fixed subalgebras at level 1 with int levels, one per inner
    order-3 class of t up to Aut(t): the class table, where `.count(option)`
    counts the classes with that fixed type.

    The classes are the label vectors modulo the affine diagram's
    automorphisms (Kac, Infinite-Dimensional Lie Algebras, ch. 8), which
    keep the fixed type, so the first vector of each orbit is classified.
    A component's level is k * 2/(long-root norm), linear in the ambient
    level k, so the options at level k scale these levels by k; a positive
    factor keeps each option's ideals in sorted order.
    """
    images = [itemgetter(*p) for p in _diagram_automorphisms(t)]  # >= 2 nodes: tuples
    seen: Set[Tuple[int, ...]] = set()
    table = []
    for s in _order3_label_vectors(t):
        if s not in seen:
            seen.update([image(s) for image in images])
            table.append(kac_fixed_subalgebra(t, s))
    return tuple(table)


def order3_fixed_options(t: SimpleType, level: int) -> Tuple[FixedOption, ...]:
    """Fixed-subalgebra types realizable by an order-3 automorphism of one ideal.

    Includes the trivial class (the ideal itself).  Inner options come from
    Kac's theorem, one label vector per orbit of the affine diagram's
    automorphisms: the sub-diagram on the nodes labelled 0 plus a centre of
    rank (#nonzero labels - 1), each fixed type once; ADE inner fixed ideals
    keep the ambient level.  Outer options exist only for D4: the branch
    rotation fixes A2 at triple level or G2 at the ambient level.  The
    options come sorted by (kind, str(result)), the order in which the
    search tries them.  Levels are ints, and each result's ideals are built
    in sorted order, so no result goes through `of`.
    """
    new = SemisimpleTypeWithLevels
    options = [FixedOption(new(((t, level),)), "trivial")]
    for opt in dict.fromkeys(_inner_options_at_level_one(t)):
        scaled = tuple((ty, k * level) for ty, k in opt.ideals)
        options.append(FixedOption(new(scaled, opt.abelian_rank), "inner"))
    if t == D4:
        options.append(FixedOption(new(((A2, 3 * level),)), "outer"))
        options.append(FixedOption(new(((G2, level),)), "outer"))
    return tuple(sorted(options, key=lambda o: (o.kind, str(o.result))))


Witness = Tuple[Tuple[str, Tuple[Ideal, ...], SemisimpleTypeWithLevels], ...]
# (count vector over the target's distinct ideals, abelian rank, ideals
# consumed, nontrivial, witness entry); an option row maps ideal -> count instead
Move = Tuple[Tuple[int, ...], int, int, bool, tuple]
Tally = Tuple[Tuple[Ideal, ...], Tuple[int, ...], int, frozenset]


@lru_cache(maxsize=None)
def _tally(target: SemisimpleTypeWithLevels) -> Tally:
    """The target's distinct ideals in order, the count of each, its abelian
    rank and its set of ideals: the keys, caps, abelian cap and key set."""
    keys = tuple(dict.fromkeys(target.ideals))
    return keys, tuple(map(target.ideals.count, keys)), target.abelian_rank, frozenset(keys)


@lru_cache(maxsize=None)
def _option_rows(first: Ideal) -> Tuple[Tuple[Mapping[Ideal, int], int, int, bool, tuple], ...]:
    """The moves of the ideal first: the 3-cycle of three copies, then its options."""
    cycle = ("cycle", (first,) * 3, SemisimpleTypeWithLevels(((first[0], 3 * first[1]),)))
    entries = [cycle] + [(o.kind, (first,), o.result) for o in order3_fixed_options(*first)]
    return tuple(
        (MappingProxyType({i: res.ideals.count(i) for i in res.ideals}), res.abelian_rank,
         len(consumed), kind != "trivial", (kind, consumed, res))
        for kind, consumed, res in entries
    )


@lru_cache(maxsize=None)
def _moves(target: SemisimpleTypeWithLevels, first: Ideal, cycle: bool) -> Tuple[Move, ...]:
    """The moves toward target at a position holding the ideal first, with
    the 3-cycle of the next three equal ideals when cycle is set: its
    `_option_rows`, in order, that name only ideals of the target's `_tally`."""
    keys, _, _, keyset = _tally(target)
    return tuple(
        (tuple(map(counts.get, keys, (0,) * len(keys))), ab, width, nontrivial, entry)
        for counts, ab, width, nontrivial, entry in _option_rows(first)[0 if cycle else 1:]
        if keyset.issuperset(counts)
    )


@lru_cache(maxsize=None)
def _positions(c: SemisimpleTypeWithLevels) -> Tuple[Tuple[Ideal, bool], ...]:
    """c's sorted ideals, each with whether the ideal two places on equals it."""
    ideals = sorted(c.ideals)
    return tuple((x, ideals[p + 2:p + 3] == [x]) for p, x in enumerate(ideals))


def admits_order3_with_fixed(
    c: SemisimpleTypeWithLevels, target: SemisimpleTypeWithLevels
) -> Optional[Witness]:
    """A witness that some order-3 automorphism of c has fixed subalgebra
    target, or None when none has.

    The ideals of c are partitioned into 3-cycles of equal ideals (each
    contributing the diagonal ideal at triple level) and singletons (each
    contributing one fixed option); the union, including abelian bookkeeping,
    must equal the target.  The witness is that partition, one entry per part.

    The search walks c's `_positions`, cached per candidate: its sorted
    ideals, each with the 3-cycle open or closed.  A move there (the cycle
    of the next three equal ideals, or one option of the next ideal) is a
    count vector over the target's distinct ideals plus an abelian rank;
    positions with the same ideal and cycle share one `_moves` list per
    target.  The cycle is tried first, then the options by (kind,
    str(result)); only failed states are remembered, so the first witness
    found is that of plain backtracking."""
    keys, cap, cap_ab, _ = _tally(target)
    at = _positions(c)
    n = len(at)
    dead: Set[Tuple[int, Tuple[int, ...], int, bool]] = set()
    witness: List[tuple] = []

    def rec(p: int, counts: Tuple[int, ...], ab: int, nontrivial: bool) -> bool:
        if p == n:
            return counts == cap and ab == cap_ab and nontrivial
        state = (p, counts, ab, nontrivial)
        if state in dead:
            return False
        for vec, move_ab, width, move_nt, entry in _moves(target, *at[p]):
            counts2 = tuple(map(add, counts, vec))
            if ab + move_ab > cap_ab or not all(map(le, counts2, cap)):
                continue
            witness.append(entry)
            if rec(p + width, counts2, ab + move_ab, nontrivial or move_nt):
                return True
            witness.pop()
        dead.add(state)
        return False

    return tuple(witness) if rec(0, (0,) * len(keys), 0, False) else None


def filter_candidates(
    candidates: Sequence[SemisimpleTypeWithLevels], target: SemisimpleTypeWithLevels
) -> Tuple[Tuple[SemisimpleTypeWithLevels, Witness], ...]:
    """Candidates admitting an order-3 automorphism with the target fixed
    type, each with the witness that `admits_order3_with_fixed` found; the
    candidates share the target's move lists."""
    return tuple((c, witness) for c in candidates
                 for witness in [admits_order3_with_fixed(c, target)] if witness is not None)
