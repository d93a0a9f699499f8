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

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from operator import add, le
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .rootdata import (
    SemisimpleTypeWithLevels,
    SimpleType,
    _affine_diagram,
    kac_fixed_subalgebra,
)

Ideal = Tuple[SimpleType, Q]


@dataclass(frozen=True)
class CandidateAlgebra:
    value: SemisimpleTypeWithLevels
    total_dim: int

    def ideals(self) -> List[Ideal]:
        return [(t, k) for t, k in self.value.ideals]


def simple_ideals_with_ratio(r: Q, dim_cap: int) -> List[Ideal]:
    """All (type, level) with h-dual = r * level, level >= 1, dim <= cap.

    B2 and D3 are reported under their A/C aliases to avoid duplicates.
    """
    if r <= 0:
        raise ValueError("ratio must be positive")
    out: List[Ideal] = []

    def consider(t: SimpleType) -> None:
        k = t.dual_coxeter_number() / Q(r)
        if k.denominator == 1 and k >= 1 and t.dim() <= dim_cap:
            out.append((t, Q(k)))

    for family, start in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        rank = start
        while SimpleType(family, rank).dim() <= dim_cap:
            consider(SimpleType(family, rank))
            rank += 1
    for t in (
        SimpleType("E", 6),
        SimpleType("E", 7),
        SimpleType("E", 8),
        SimpleType("F", 4),
        SimpleType("G", 2),
    ):
        consider(t)
    return sorted(out)


@lru_cache(maxsize=None)
def enumerate_candidates(total_dim: int, r: Q) -> Tuple[CandidateAlgebra, ...]:
    """All multisets of ratio-r ideals with dimensions summing to total_dim."""
    pool = simple_ideals_with_ratio(Q(r), total_dim)
    dims = [t.dim() for t, _ in pool]
    results: List[CandidateAlgebra] = []

    def rec(i: int, remaining: int, chosen: List[Ideal]) -> None:
        if remaining == 0:
            results.append(
                CandidateAlgebra(
                    SemisimpleTypeWithLevels.of(list(chosen)), total_dim
                )
            )
            return
        if i == len(pool) or remaining < 0:
            return
        # skip ideal i entirely, or take one more copy (non-decreasing index)
        rec(i + 1, remaining, chosen)
        if dims[i] <= remaining:
            chosen.append(pool[i])
            rec(i, remaining - dims[i], chosen)
            chosen.pop()

    rec(0, total_dim, [])
    return tuple(sorted(results, key=lambda c: str(c.value)))


def _order3_label_vectors(t: SimpleType) -> List[Tuple[int, ...]]:
    """Affine-node label vectors of inner order-3 automorphism classes."""
    marks = _affine_diagram(t)[1]
    n = len(marks)
    out: List[Tuple[int, ...]] = []

    def rec(i: int, budget: int, partial: List[int]) -> None:
        if i == n:
            if budget == 0 and gcd(*partial) == 1:
                out.append(tuple(partial))
            return
        top = budget // marks[i]
        for s in range(top + 1):
            rec(i + 1, budget - s * marks[i], partial + [s])

    rec(0, 3, [])
    return out


@dataclass(frozen=True)
class FixedOption:
    """One realizable fixed subalgebra of an order-3 action on a simple ideal."""

    result: SemisimpleTypeWithLevels
    kind: str  # "trivial" | "inner" | "outer"


@lru_cache(maxsize=None)
def _inner_options_at_level_one(t: SimpleType) -> FrozenSet[SemisimpleTypeWithLevels]:
    """Kac fixed subalgebras of the inner order-3 classes of t at level 1.

    A component's level is k * 2/(long-root norm), linear in the ambient
    level k, so the options at level k scale these levels by k.
    """
    return frozenset(kac_fixed_subalgebra(t, s) for s in _order3_label_vectors(t))


@lru_cache(maxsize=None)
def order3_fixed_options(t: SimpleType, level: int) -> Tuple[FixedOption, ...]:
    """Fixed-subalgebra types realizable by an order-3 automorphism of one ideal.

    Includes the trivial class (the ideal itself).  Inner options come from
    Kac's theorem over the full affine-label enumeration: the sub-diagram on
    the nodes labelled 0 plus a centre of rank (#nonzero labels - 1); ADE
    inner fixed ideals keep the ambient level.  Outer options exist only for
    D4: the branch rotation fixes A2 at triple level or G2 at the ambient
    level.  The options come sorted by (kind, str(result)), the order in
    which the search tries them.
    """
    of = SemisimpleTypeWithLevels.of
    options = {FixedOption(of([(t, Q(level))]), "trivial")}
    for opt in _inner_options_at_level_one(t):
        scaled = [(ty, k * level) for ty, k in opt.ideals]
        options.add(FixedOption(of(scaled, opt.abelian_rank), "inner"))
    if t == SimpleType("D", 4):
        options.add(FixedOption(of([(SimpleType("A", 2), Q(3 * level))]), "outer"))
        options.add(FixedOption(of([(SimpleType("G", 2), Q(level))]), "outer"))
    return tuple(sorted(options, key=lambda o: (o.kind, str(o.result))))


Assignment = List[Tuple[str, Tuple[Ideal, ...], SemisimpleTypeWithLevels]]
# (count vector over the target's distinct ideals, abelian rank, ideals
# consumed, nontrivial, witness entry)
Move = Tuple[Tuple[int, ...], int, int, bool, tuple]


def admits_order3_with_fixed(
    c: CandidateAlgebra, target: SemisimpleTypeWithLevels
) -> Tuple[bool, Optional[Assignment]]:
    """Whether some order-3 automorphism of c has fixed subalgebra target.

    The ideals of c are partitioned into 3-cycles of equal ideals (each
    contributing the diagonal ideal at triple level) and singletons (each
    contributing one fixed option); the union, including abelian bookkeeping,
    must equal the target.  Returns a witness assignment when it exists.

    The search walks the sorted ideals of c.  A move at a position, the
    3-cycle of the next three equal ideals or one option of the next ideal,
    is a count vector over the target's distinct ideals plus an abelian
    rank; moves naming an ideal the target lacks are dropped when the
    position is first reached.  The cycle is tried first, then the options
    by (kind, str(result)); only failed states are remembered, so the first
    witness found is that of plain backtracking."""
    keys = dict.fromkeys(target.ideals)  # ordered, with fast membership
    cap = tuple(map(target.ideals.count, keys))
    cap_ab = target.abelian_rank
    ideals = sorted(c.ideals())
    n = len(ideals)
    moves: List[Optional[List[Move]]] = [None] * n
    dead: Set[Tuple[int, Tuple[int, ...], int, bool]] = set()
    witness: Assignment = []

    def moves_at(p: int) -> List[Move]:
        first = ideals[p]
        options = order3_fixed_options(first[0], int(first[1]))
        entries = [(o.kind, (first,), o.result) for o in options]
        if p + 2 < n and ideals[p + 2] == first:
            diag = SemisimpleTypeWithLevels.of([(first[0], 3 * first[1])])
            entries.insert(0, ("cycle", (first,) * 3, diag))
        return [
            (tuple(map(res.ideals.count, keys)), res.abelian_rank, len(consumed),
             kind != "trivial", (kind, consumed, res))
            for kind, consumed, res in entries
            if all(key in keys for key in res.ideals)
        ]

    def rec(p: int, counts: Tuple[int, ...], ab: int, nontrivial: bool) -> bool:
        if p == n:
            return counts == cap and ab == cap_ab and nontrivial
        state = (p, counts, ab, nontrivial)
        if state in dead:
            return False
        if moves[p] is None:
            moves[p] = moves_at(p)
        for vec, move_ab, width, move_nt, entry in moves[p]:
            counts2 = tuple(map(add, counts, vec))
            if ab + move_ab > cap_ab or not all(map(le, counts2, cap)):
                continue
            witness.append(entry)
            if rec(p + width, counts2, ab + move_ab, nontrivial or move_nt):
                return True
            witness.pop()
        dead.add(state)
        return False

    if rec(0, (0,) * len(keys), 0, False):
        return True, witness
    return False, None


def filter_candidates(
    candidates: Sequence[CandidateAlgebra], target: SemisimpleTypeWithLevels
) -> List[Tuple[CandidateAlgebra, Assignment]]:
    """Candidates admitting an order-3 automorphism with the target fixed
    type, each with the witness that `admits_order3_with_fixed` found."""
    found = [(c, admits_order3_with_fixed(c, target)) for c in candidates]
    return [(c, witness) for c, (ok, witness) in found if ok]
