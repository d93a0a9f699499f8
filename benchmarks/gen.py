"""Seeded input generators: the same seed always gives the same inputs.

Each workload is a list of `orbifold24` argument vectors; twist-probe also
writes the case files those vectors name.  Stream composition (how many
queries of each size class) is fixed and the seed draws the concrete
queries inside each class, so a run's total work hardly depends on the
seed while its inputs do.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction as Q
from typing import List, Tuple

from liedata import Ideal, level_weights

VERIFY_ALL = "verify-all"
TWIST_PROBE = "twist-probe"
EXPLORE = "explore"
WORKLOADS = (VERIFY_ALL, TWIST_PROBE, EXPLORE)

# --- twist-probe --------------------------------------------------------------

# Small (type, level) pairs; level-k table sizes 2..10.
TWIST_POOL = [
    ("A", 1, 1), ("A", 1, 2), ("A", 1, 3), ("A", 1, 4),
    ("A", 2, 1), ("A", 2, 2), ("A", 2, 3),
    ("A", 3, 1), ("A", 3, 2),
    ("B", 2, 1), ("B", 2, 2),
    ("G", 2, 1), ("G", 2, 2),
]
H_VALUES = [Q(1, 4), Q(1, 3), Q(1, 2), Q(2, 3), Q(3, 4), Q(1)]
# Tuple-space targets: TWIST_CASES sizes log-uniform on [10, 10^4], plus a
# few large ones towards 10^5 so a per-tuple cost still shows.
TWIST_CASES = 360
TWIST_LARGE = (20000, 30000, 45000, 60000)
SIZE_TOLERANCE = 1.2


def twist_targets() -> List[int]:
    lo, hi = 1.0, 4.0
    small = [
        round(10 ** (lo + (hi - lo) * (i + 0.5) / TWIST_CASES))
        for i in range(TWIST_CASES)
    ]
    return small + list(TWIST_LARGE)


def _ideal_count(target: int, slot: int) -> int:
    """Fewest ideals that reach the target (tables hold <= 10 weights), plus
    one on every other slot; fixed per slot so it does not vary by seed."""
    need = max(2, math.ceil(math.log10(target) - 1e-9))
    return min(5, need + slot % 2)


def _twisted_count(n: int, slot: int) -> int:
    """How many ideals get a nonzero h: 1 or 2, fixed per slot."""
    return min(n, 1 + (slot // 2) % 2)


def _draw_ambient(rng: random.Random, n: int, target: int) -> List[Ideal]:
    best, best_err = None, None
    for _ in range(4000):
        picks = [rng.choice(TWIST_POOL) for _ in range(n)]
        size = math.prod(len(level_weights(*p)) for p in picks)
        err = abs(math.log(size / target))
        if best_err is None or err < best_err:
            best, best_err = picks, err
        if size <= target * SIZE_TOLERANCE and size * SIZE_TOLERANCE >= target:
            break
    return [Ideal(*p) for p in sorted(best)]


def _draw_h(rng: random.Random, ideal: Ideal) -> Tuple[Q, ...]:
    """Dominant h with (h|theta) <= 1, so (h|alpha) >= -1 on every root."""
    h = [Q(0)] * ideal.rank
    budget = Q(1)
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(ideal.rank)
        options = [v for v in H_VALUES if v * ideal.comarks[i] <= budget]
        if not options:
            break
        v = rng.choice(options)
        h[i] += v
        budget -= v * ideal.comarks[i]
    return tuple(h)


def twist_cases(seed: int) -> List[dict]:
    rng = random.Random(f"twist-probe:{seed}")
    cases = []
    for slot, target in enumerate(twist_targets()):
        ideals = _draw_ambient(rng, _ideal_count(target, slot), target)
        twisted = set(rng.sample(range(len(ideals)), _twisted_count(len(ideals), slot)))
        hs = [
            _draw_h(rng, I) if i in twisted else (Q(0),) * I.rank
            for i, I in enumerate(ideals)
        ]
        cases.append(
            {
                "id": f"probe-{seed}-{slot}",
                "ambient": " ".join(I.token for I in ideals),
                "h": [[str(c) for c in h] for h in hs],
            }
        )
    rng.shuffle(cases)
    return cases


# --- explore ------------------------------------------------------------------

EXPLORE_DIMS = tuple(range(36, 300, 12))  # 312 belongs to verify-all
CHAIN_FIXED = (
    "E6,3 A2,1 A2,1 A2,1",
    "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3",
    "A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1",
)
SMALL_FIXED_POOL = [
    "A1,1", "A1,2", "A1,3", "A1,6", "A2,1", "A2,2", "A2,3", "A2,6",
    "A3,1", "B2,1", "G2,1", "G2,3", "D4,1", "D4,3",
]
SMALL_FIXED_PER_DIM = 2
# derive_dimension_formula's cold cost grows unevenly with T, so the set of
# truncations is fixed; the seed draws the dimension arguments.  The second
# query at a truncation repeats its series work from the caches.
DIMENSION_TRUNCS = (12, 14, 16)
DIMENSION_QUERIES_PER_TRUNC = 2


def _small_fixed(rng: random.Random) -> str:
    toks = [rng.choice(SMALL_FIXED_POOL) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        toks.append(rng.choice(("U(1)", "U(1)^2")))
    return " ".join(toks)


def _dimension_args(rng: random.Random) -> List[str]:
    dimv1 = rng.randrange(24, 313)
    d13, d23 = rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1, 3))
    d0_min = max(0, -(-(dimv1 - 24 + 36 * d13 + 12 * d23) // 4))
    d0 = d0_min + rng.randrange(0, 40)
    return [f"--dimv1={dimv1}", f"--d0={d0}", f"--d13={d13}", f"--d23={d23}"]


def explore_ops(seed: int) -> List[List[str]]:
    rng = random.Random(f"explore:{seed}")
    ops = []
    # The grid in order, chain types first at each D, so that the cold work
    # of each D falls on the same queries whatever the seed; shuffled, the
    # seed would decide which queries make up the latency tail.
    for dim in EXPLORE_DIMS:
        ratio = str(Q(dim - 24, 24))
        fixed = list(CHAIN_FIXED) + [_small_fixed(rng) for _ in range(SMALL_FIXED_PER_DIM)]
        for f in fixed:
            ops.append(["candidates", f"--dim={dim}", f"--ratio={ratio}", f"--fixed={f}", "--json"])
    for trunc in DIMENSION_TRUNCS:
        for _ in range(DIMENSION_QUERIES_PER_TRUNC):
            ops.append(["dimension", *_dimension_args(rng), f"--trunc={trunc}", "--json"])
    return ops


# --- all workloads ------------------------------------------------------------


def make_ops(workload: str, seed: int, case_dir: str) -> List[List[str]]:
    """Argument vectors for one pass of a workload; writes case files."""
    if workload == VERIFY_ALL:
        return [["verify-all", "--json", f"--seed={seed}"]]
    if workload == EXPLORE:
        return explore_ops(seed)
    if workload == TWIST_PROBE:
        os.makedirs(case_dir, exist_ok=True)
        ops = []
        for i, case in enumerate(twist_cases(seed)):
            path = os.path.join(case_dir, f"case-{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(case, fh)
            ops.append(["twist-bound", f"--case={path}", "--json"])
        return ops
    raise ValueError(f"unknown workload {workload!r}")
