"""Reference values the verification suite diffs against.

Each table is transcribed reference data: dominant weights with the lowest
conformal weight of the corresponding level-k module, and, where the
reference provides them, the pairing with the case's twist direction and the
minimum of that pairing over the module's weights.  Mismatches are reported,
never silently corrected; two entries are known, documented discrepancies of
the reference text and are flagged as such by the verifier.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import List, Optional, Tuple

# (weight coords, conformal weight, pairing with twist, min pairing over weights)
Row = Tuple[Tuple[int, ...], Q, Optional[Q], Optional[Q]]


def _sym(row: Tuple[Tuple[int, ...], str, str, str]) -> List[Row]:
    """Expand a row group to the weight and its reversal (dual pair)."""
    coords, cw, pair, nmin = row
    out = [(coords, Q(cw), Q(pair), Q(nmin))]
    flipped = tuple(reversed(coords))
    if flipped != coords:
        out.append((flipped, Q(cw), Q(pair), Q(nmin)))
    return out


# G2 level 1; twist direction = first fundamental weight
G2_1_TABLE: List[Row] = [
    ((0, 0), Q(0), Q(0), Q(0)),
    ((1, 0), Q(2, 5), Q(2, 3), Q(-2, 3)),
]

# A2 level 3; twist direction = first fundamental weight
A2_3_TABLE: List[Row] = [
    ((0, 0), Q(0), Q(0), Q(0)),
    ((1, 0), Q(2, 9), Q(2, 3), Q(-1, 3)),
    ((0, 1), Q(2, 9), Q(1, 3), Q(-2, 3)),
    ((2, 0), Q(5, 9), Q(4, 3), Q(-2, 3)),
    ((0, 2), Q(5, 9), Q(2, 3), Q(-4, 3)),
    ((1, 1), Q(1, 2), Q(1), Q(-1)),
    ((3, 0), Q(1), Q(2), Q(-1)),
    ((0, 3), Q(1), Q(1), Q(-2)),
    ((2, 1), Q(8, 9), Q(5, 3), Q(-4, 3)),
    ((1, 2), Q(8, 9), Q(4, 3), Q(-5, 3)),
]

# A1 level 1; no twist column
A1_1_TABLE: List[Row] = [
    ((0,), Q(0), None, None),
    ((1,), Q(1, 4), None, None),
]

# A5 level 3; twist direction = (2/3) * third fundamental weight.
# Row groups cover a weight and its dual; 32 groups expand to 56 rows.
_A5_GROUPS: List[Tuple[Tuple[int, ...], str, str, str]] = [
    ((0, 0, 0, 0, 0), "0", "0", "0"),
    ((1, 0, 0, 0, 0), "35/108", "1/3", "-1/3"),
    ((0, 1, 0, 0, 0), "14/27", "2/3", "-2/3"),
    ((0, 0, 1, 0, 0), "7/12", "1", "-1"),
    ((2, 0, 0, 0, 0), "20/27", "2/3", "-2/3"),
    ((0, 2, 0, 0, 0), "32/27", "4/3", "-4/3"),
    ((0, 0, 2, 0, 0), "4/3", "2", "-2"),
    ((1, 1, 0, 0, 0), "11/12", "1", "-1"),
    ((1, 0, 1, 0, 0), "26/27", "4/3", "-4/3"),
    ((1, 0, 0, 1, 0), "95/108", "1", "-1"),
    ((1, 0, 0, 0, 1), "2/3", "2/3", "-2/3"),
    ((0, 1, 1, 0, 0), "131/108", "5/3", "-5/3"),
    ((0, 1, 0, 1, 0), "10/9", "4/3", "-4/3"),
    ((3, 0, 0, 0, 0), "5/4", "1", "-1"),
    ((0, 3, 0, 0, 0), "2", "2", "-2"),
    ((0, 0, 3, 0, 0), "9/4", "3", "-3"),
    ((2, 1, 0, 0, 0), "38/27", "4/3", "-4/3"),
    ((2, 0, 1, 0, 0), "155/108", "5/3", "-5/3"),
    ((2, 0, 0, 1, 0), "4/3", "4/3", "-4/3"),
    ((2, 0, 0, 0, 1), "119/108", "1", "-1"),
    ((1, 2, 0, 0, 0), "179/108", "5/3", "-5/3"),
    ((1, 0, 2, 0, 0), "191/108", "7/3", "-7/3"),
    ((1, 0, 0, 2, 0), "19/12", "5/3", "-5/3"),
    ((0, 2, 1, 0, 0), "215/108", "7/3", "-7/3"),
    ((0, 2, 0, 1, 0), "50/27", "2", "-2"),
    ((0, 0, 2, 1, 0), "56/27", "8/3", "-8/3"),
    ((1, 1, 1, 0, 0), "5/3", "2", "-2"),
    ((1, 1, 0, 1, 0), "167/108", "5/3", "-5/3"),
    ((1, 1, 0, 0, 1), "35/27", "4/3", "-4/3"),
    ((1, 0, 1, 1, 0), "44/27", "2", "-2"),
    ((1, 0, 1, 0, 1), "49/36", "5/3", "-5/3"),
    ((0, 1, 1, 1, 0), "23/12", "7/3", "-7/3"),
]

A5_3_TABLE: List[Row] = [row for grp in _A5_GROUPS for row in _sym(grp)]

# D4 level 3; branch node is the second coordinate; no twist column
_D4_GROUPS: List[Tuple[List[Tuple[int, ...]], str]] = [
    ([(0, 0, 0, 0)], "0"),
    ([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], "7/18"),
    ([(0, 1, 0, 0)], "2/3"),
    ([(2, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], "8/9"),
    ([(1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)], "7/6"),
    ([(1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)], "5/6"),
    ([(3, 0, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], "3/2"),
    ([(1, 0, 1, 1)], "4/3"),
    (
        [
            (2, 0, 1, 0), (2, 0, 0, 1), (1, 0, 2, 0),
            (0, 0, 2, 1), (1, 0, 0, 2), (0, 0, 1, 2),
        ],
        "25/18",
    ),
]

D4_3_TABLE: List[Row] = [
    (coords, Q(cw), None, None)
    for group, cw in _D4_GROUPS
    for coords in group
]

TABLE_COUNTS = {
    "g2.1": 2,
    "a2.3": 10,
    "a1.1": 2,
    "a5.3": 56,
    "d4.3": 24,
}

# Displayed cusp-expansion coefficients: (power n, exponent, 3^(6n) * coeff)
CUSP_COEFFS: List[Tuple[int, Q, Q]] = [
    (1, Q(1, 3), Q(1)),
    (1, Q(2, 3), Q(12)),
    (-1, Q(-1, 3), Q(1)),
    (-1, Q(0), Q(-12)),
    (-2, Q(-2, 3), Q(1)),
    (-2, Q(-1, 3), Q(-24)),
    (-2, Q(0), Q(252)),
    (-3, Q(-1), Q(1)),
    (-3, Q(-2, 3), Q(-36)),
    (-3, Q(-1, 3), Q(594)),
    (-3, Q(0), Q(36**2 - 7140)),   # 36^2 - binom(36,3)
]

POLE_COEFF = Q(3**17)
DIMENSION_COEFFS = (Q(4), Q(-36), Q(-12), Q(24))

# documented discrepancies of the reference text
F_Q_COEFF_DISPLAYED = Q(66)      # stated as binom(12,2); recomputation differs
C5_LEVEL_DISPLAYED = Q(2)        # stated level of the C5 ideal; ratio forces 1

# lattice battery expectations, by the lattice's root system
LATTICE_EXPECTED = {
    "E6,1 E6,1 E6,1 E6,1": {"glue_index": 9, "glue_group_order": 48},
    "D4,1 D4,1 D4,1 D4,1 D4,1 D4,1": {"glue_index": 64, "glue_group_order": 2160},
}

PROJECTION_NORM = Q(4, 9)
# the twisted ground energy by isometry name; the others are reported only
GROUND_ENERGY = {"sigma6": Q(1)}
A2_CUBED_IN_E6 = 40
