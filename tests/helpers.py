"""Test-only code: the brute-force oracles the closed forms are checked
against, and helpers that only the tests need.

* Exact elimination: the fraction-free Gauss-Jordan `_echelon` with the
  reduced rational `kernel`, its primitive integer rows (`integer_kernel`)
  and the signed determinant `det`, against the row Hermite normal form
  behind `exactmath.rank`, `exactmath.integer_inverse` and
  `exactmath.integer_row_kernel`; the `Fraction` inverse (`inverse`, of
  the rows cleared by `cleared_rows`) for the oracles that invert a
  rational matrix; the dense triple-loop product (`dense_mat_mul`)
  against the sparse `exactmath.mat_mul`.
* Root data: the `Fraction` simple-root gram (`fraction_gram_matrix`) and
  the root system derived from it through the `Fraction` inverse, its
  roots built from root strings height by height
  (`string_positive_roots`; `FractionRootSystem`, with its affine diagram
  `fraction_affine_diagram`) against the integer gram over its scale in
  `rootdata._gram_matrix`, `RootSystem` and `rootdata._affine_diagram`;
  `positive_roots` and `theta_alpha_coords` read the roots a
  `RootSystem` keeps.
* Type bookkeeping: the name rendered afresh per call, one f-string per
  ideal (`fstring_type_name`), against the per-value cached
  `SemisimpleTypeWithLevels.__str__`; the rank tests written out per call
  as a dict (`dict_rank_refusal`) against the module-level rule that
  `SimpleType` reads.
* Twisted minima: the exhaustive tuple scan (`scan`, `feasible_tuples`,
  `scan_minimum`) against the min-plus DP in `twistbound`.
* Diagram classification: the multiple-bond count and leg walk
  (`leg_walk_classify_simple_system`) against the tree walk of
  `rootdata.classify_simple_system`, on connected proper sub-diagrams of
  the affine diagrams.
* Fixed subalgebras: the roots with (h|alpha) integral, split into
  components through their indecomposable positive roots and typed from
  root data (`typed_components_of_subsystem`,
  `root_filter_fixed_subalgebra`), against Kac's labels read off the
  fundamental alcove in `affinerep.inner_fixed_subalgebra`.
* Order-3 options: the root filter (`RootFilter`: roots from root strings
  over the `Fraction` gram, each label vector's kept roots split and typed,
  sharing only `classify_simple_system` with `src/`) against the
  sub-diagram rule of `rootdata.kac_fixed_subalgebra` per label vector and
  against the inner options of `schellekens.order3_fixed_options`; the
  `Fraction` option build, one Kac classification per label vector with
  levels 2/(b|b) rescaled per ambient level (`fraction_kac_ideals`,
  `fraction_order3_fixed_options`), against the integer level-1 tables,
  which classify one vector per orbit of the affine diagram's
  automorphisms; those automorphisms as the Gram-preserving permutations
  out of all of them (`brute_force_diagram_automorphisms`) against the
  breadth-first search in `schellekens._diagram_automorphisms`; the affine
  diagram read off the generated root system, theta the root of greatest
  height (`root_affine_diagram`), against `rootdata._affine_diagram`,
  which reaches theta by reflections and gives `build_root_system` its
  theta; the
  plain backtracking search over `Counter`s (`backtracking_admits`)
  against the count-vector search with its failure memo in
  `schellekens.admits_order3_with_fixed`; the move list built per call,
  one membership generator and one `.count` per key (`count_moves`),
  against the lists that `schellekens._moves` reads off the cached
  per-ideal option rows.
* Eta powers: the `PuiseuxSeries` ring operations (`series_add`,
  `series_neg`, `series_scale`, `series_mul`, with `series_rescaled`,
  `series_valuation` and `series_terms`), series inversion, powers by
  repeated products, the product expansion of prod (1 - x^n)^m
  (`product_eta`, `product_f_power_at_S`) and Euler's pentagonal series
  (`euler_pentagonal`) against the integer routine
  `qmodular.eta_quotient` behind `hauptmodul_f` and `f_power_at_S`; the
  `Fraction` factor 3^(6n) multiplied into every term
  (`fraction_f_power_at_S`) against the integer sums of `f_power_at_S`.
* Dimension formula: the Laurent table derived by hand, with its
  constants typed in (`TYPED_LAURENT_TABLE`), against the triangular solve
  from the two cusps' principal parts in `qmodular.laurent_table`; the
  trace (F + F_w + F_w^2)/3 of the coefficient twist q^(1/3) -> w q^(1/3)
  in an exact Q(w) (`Cyclo3`, `omega_trace`, `traced_dimension_formula`,
  which reads the typed table) against the constant-term read in
  `qmodular.derive_dimension_formula`.
* Invariant form: the `Fraction` fundamental-weight Gram matrix
  (`fraction_fw_gram`, `fraction_ip`, `fraction_invariant_norm`) against
  the integer-scaled `RootSystem.form` and `twistbound.invariant_norm`.
  The oracles take a root system and plain coordinate tuples: integers
  for a dominant weight, `Fraction`s for a rational direction;
  `fraction_coords` turns the (den, den * x) form of `src/` back into the
  latter.
* Module tables: the `Fraction` formulas for the conformal weight
  (`conformal_weight`) and the lowest weight by rational reflections
  (`fraction_dominant_conjugate`, `fraction_lowest_weight`) against the
  integer columns of `affinerep.enumerate_level_weights`; the Weyl
  dimension (`weyl_dim`) against the Freudenthal multiplicities; the dual Coxeter number from root
  data (`dual_coxeter`) against `SimpleType.dual_coxeter_number`.
* Directional minima: the least pairing over the Freudenthal weight
  system (`weight_system`, `brute_force_min`) against the closed form
  (h+|w0.lam) in `affinerep.n_min_column`, one weight at a time through
  `column_n_min`.
* Shift bound: the loop over every root (`root_loop_shift_ok`) against
  the closed form (h+|theta) <= 1 in `twistbound.shift_ok`.
* Per-ideal twist records: the norm term, the (h+|theta) test and the
  n_min columns worked out afresh per ideal and per call, as the loops of
  `invariant_norm`, `shift_ok` and the DP tables did (`loop_ideal_twist`),
  against the cached records of `twistbound.ideal_twist` that they read;
  `plain_data` checks that a cached value holds only ints, bools and
  tuples.
* Report writer: the report as a dict (`report_dict`), whose
  `json.dumps(..., sort_keys=True, indent=2)` `Report.to_json` must equal
  byte for byte.
* Lattice side, each against its integer counterpart in `latticevoa`: the
  glue-automorphism brute force and anchored search with the permutation in
  the outer loop (`permutation_first_glue_order`), over the typed digit maps
  (`TYPED_DIGIT_MAPS`) against the stabilizer chain and the diagram
  symmetries' maps, and the depth-first search of every (source, map)
  choice of each position afresh (`per_choice_glue_order`) against the
  chain, which searches only the choices its generators do not reach; the
  glue digits as `Fraction` fundamental weights at the nodes of affine
  mark 1 read off the roots (`fraction_digit_weights`), added by the
  fractional parts of their coordinates (`fraction_digit_law`), and the
  typed laws Z3 and Z2^2 of E6 and D4 (`TYPED_DIGIT_LAWS`), against the
  representatives and addition tables of `latticevoa._digit_reps`; the
  isometry certificate as `Fraction`
  matrix products (`fraction_slot_maps_to_isometry`), the fixed projection
  of an ambient vector through the ambient `Fraction` matrix and gram
  (`fraction_fixed_projection_norm`, with `lattice_to_ambient`) against
  the lattice-coordinate sum over the integer gram, the hand-made local
  isometries (`CATALOGUE_ORACLES`: the conjugated Carter rotation
  `carter_e6_rotation`, the Hurwitz unit `hurwitz_d4_unit` and the typed
  Weyl 3-cycle `weyl_d4_cycle`) against the reflection words of
  `latticevoa._CATALOGUE`, the hand-written slot-map shapes of sigma6,
  sigma2 and sigma4 over those oracles (`named_shape_isometry`, with the
  sigma4 search `sigma4_candidates`) against the catalogue placements of
  `latticevoa.build_isometry`, the generic
  centraliser in `Fraction`s (`fraction_centralizer`), the Killing
  form over every pair of basis vectors (`full_killing`) against the one
  indexed by stored coefficient, the fixed-subalgebra steps pair by pair
  (`pair_probe_fixed_subalgebra`, which probes every root of one orbit
  sum against every root of each partner the first root names,
  `tuple_check_grading` on weight tuples, `per_entry_check_orbit_blocks`
  through each index's block, and `block_probe_killing` over the (w, -w)
  pairs of the weight blocks `weight_blocks`) against the bucketed walk,
  the packed weight keys, the set-inclusion block check and the indexed
  Killing form of `latticevoa`, and the subsystem count over an all-pairs
  orthogonality matrix (`all_pairs_subsystem_count`) against the clique
  count over perpendicular root sets.  A fixed subalgebra's rows of
  nonzero entries read as dense dim x dim tables (`dense_table`, with
  `dense_rows`), and back (`from_dense_table`), for the oracles and the
  tampered copies that index every pair (i, j).
* Lattice algebra tables: the dense numpy tables over every root pair
  (`DenseLieTables`) against the sparse pair table of
  `LatticeLieAlgebra`; the eps parities summed term by term
  (`sum_parity_pairs`) and the phase expression summed term by term
  (`sum_phase_bit_expr`) against the popcounts of bit masks in
  `LatticeLieAlgebra` and `latticevoa._phase_bit_expr`; and the standard
  lift through `eps_coords`, `apply_coords` and `compose`
  (`eps_route_lift`, `eps_twist_bits`) against the whole-matrix products
  of `standard_lift`.
* Lattice algebra elements: the bracket and form on sparse {basis index:
  coefficient} maps (`bracket_basis`, `bracket`, `form`), which the Jacobi,
  invariance and fixed-table tests read, and a lift's action on them
  (`apply`), with the element-by-element automorphism check
  (`verify_automorphism`) against the one walk over the pair table of
  `latticevoa.certify_lift`.
* Type identification: the seeded float root pass (`float_identify_type`:
  a generic element and its centraliser, `draw_generic` and
  `generic_centralizer`, eigenvectors by `float_eigen`, root functionals
  by `root_functionals`, Cartan integers rounded and re-verified exactly)
  against the exact per-orbit certificate of `latticevoa.identify_type`;
  and the multisets of simple ideals with a given ratio 2 h-dual / k and
  dimension by `combinations_with_replacement`
  (`brute_force_types_with_ratio`) against the `enumerate_candidates`
  lookup of `latticevoa.identify_type` at r / 2.
* `rough_lift`: some algebra automorphism covering a lattice isometry,
  `inverse_lift` its inverse, `compose` and `is_identity`;
  `root_lattice` and `ip_coords` build and pair the lattice-side fixtures.
* Small conveniences only the tests use: `negated` (the case
  (ambient, -h)), `named_witness` (the forward witness of an isometry
  name's case), `changed_algebra` (a weight-one algebra with some table
  rows replaced, for the mutation tests), `patch_series_coefficient` (one
  coefficient of a q-series scaled) with `solve_afresh` (Laurent table
  and formula caches of the test's own),
  `semisimple_rank`, `total_multiplicity`, `root_ip` (the exact
  (x|y) through `RootSystem.covector`), `series_one`, and
  `package_caches` (every `lru_cache` of the package, which the
  `fresh_caches` fixture of `conftest.py` clears around a test), and
  `PINNED_OUTPUTS` (the commands whose output digests are pinned, among
  them `OFFCHAMBER_CASE`), which the digest test and the writer oracle
  share.
* Argv reading: an argparse parser built from `cli.COMMANDS` without
  abbreviations (`argparse_oracle`) against `cli.read_options`, on argvs
  drawn at random from the same table (`random_argvs`).
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import pkgutil
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import factorial, gcd, lcm
from pathlib import Path
from types import MappingProxyType
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

import orbifold24
from orbifold24 import cases, cli, qmodular
from orbifold24.affinerep import (
    AffineAlgebra,
    Ambient,
    Twist,
    enumerate_level_weights,
    n_min_column,
)
from orbifold24.exactmath import (
    InvariantError, identity, integer_inverse, integer_row_kernel, mat_mul, rank,
    transpose,
)
from orbifold24.latticevoa import (
    ComponentOrbit,
    EvenLattice,
    FixedSubalgebra,
    GlueCode,
    IdentificationError,
    LatticeIsometry,
    LatticeLieAlgebra,
    LiftedAutomorphism,
    Weight,
    _check_grading,
    _component_orbits,
    _killing,
    _negative_pairs,
    _odd_mask,
    _slot_maps_to_isometry,
    _solve_f2,
    coset_norm_lower_bound,
    lattice_from_basis,
)
from orbifold24.qmodular import PuiseuxSeries, _euler_power, f_power_at_S
from orbifold24.report import Report
from orbifold24.rootdata import (
    IntCoords,
    RootSystem,
    ScaledCoords,
    SemisimpleTypeWithLevels,
    SimpleType,
    _affine_diagram,
    build_root_system,
    classify_simple_system,
    dominant_conjugate,
)
from orbifold24.schellekens import (
    FixedOption,
    Witness,
    _order3_label_vectors,
    order3_fixed_options,
)
from orbifold24.twistbound import IdealTwist, _CaseTables, invariant_norm, shift_ok

Coords = Tuple[Q, ...]  # a rational weight in Fraction coordinates
Matrix = Sequence[Sequence[Union[int, Q]]]  # a rational matrix


# --- exact elimination ----------------------------------------------------


def _echelon(
    m: Matrix, with_det: bool = False
) -> Tuple[List[List[int]], List[int], Optional[Q]]:
    """Fraction-free reduced row echelon form of a rational matrix.

    Each row is cleared of denominators, then every pivot column is
    eliminated above and below the pivot with integer row operations, and
    each rewritten row is divided by the gcd of its entries.  Row t of the
    result is a nonzero multiple of row t of the reduced row echelon form,
    whose entries are therefore red[t][j] / red[t][pivots[t]].  With
    with_det, the third value is the factor f with det(m) = f * prod of the
    pivots (a square matrix of full rank); otherwise it is None.
    """
    red: List[List[int]] = []
    num, den = 1, 1
    for row in m:
        d = lcm(*[x.denominator for x in row])
        red.append([x.numerator * (d // x.denominator) for x in row])
        den *= d
    rows, cols = len(red), len(red[0]) if red else 0
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, rows) if red[i][c]), None)
        if p is None:
            continue
        if p != r:
            red[r], red[p] = red[p], red[r]
            num = -num
        pr = red[r]
        pv = pr[c]
        for i in range(rows):
            f = red[i][c]
            if f and i != r:
                new = [pv * x - f * y for x, y in zip(red[i], pr)]
                g = gcd(*new)
                red[i] = [x // g for x in new] if g > 1 else new
                if with_det:
                    # det(new rows) = det(old rows) * pv / g
                    num, den = num * g, den * pv
        pivots.append(c)
        if len(pivots) == rows:
            break
    return red, pivots, (Q(num, den) if with_det else None)


def kernel(m: Matrix) -> List[List[Q]]:
    """Basis of {x : x m = 0} for a matrix acting on row vectors.

    The basis is the reduced one: x is 1 at its free coordinate, 0 at the
    other free coordinates, and -rref[t][free] at pivot coordinate t.
    """
    return [[Q(x, den) for x in row] for row, den in integer_kernel(m)]


def integer_kernel(m: Matrix) -> List[Tuple[List[int], int]]:
    """The reduced kernel basis of `kernel` as (row, den) pairs.

    Each basis vector is row / den, with row a primitive integer vector:
    den is the least common denominator of the vector, and also the entry of
    row at its free coordinate.
    """
    n = len(m)
    red, pivots, _ = _echelon([list(col) for col in zip(*m)])
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        den = lcm(
            *(red[t][c] // gcd(red[t][c], red[t][f]) for t, c in enumerate(pivots))
        )
        v = [0] * n
        v[f] = den
        for t, c in enumerate(pivots):
            v[c] = -red[t][f] * den // red[t][c]
        basis.append((v, den))
    return basis


def det(m: Matrix) -> Q:
    """Exact determinant of a square matrix, signed."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of non-square matrix")
    red, pivots, factor = _echelon(m, with_det=True)
    if len(pivots) < n:
        return Q(0)
    for t in range(n):
        factor *= red[t][t]
    return factor


def cleared_rows(m: Matrix) -> Tuple[List[List[int]], List[int]]:
    """Integer rows D m and the diagonal of D: row i times the least common
    denominator of its entries."""
    rows, dens = [], []
    for row in m:
        d = lcm(*[x.denominator for x in row])
        rows.append([int(x * d) for x in row])
        dens.append(d)
    return rows, dens


def inverse(m: Matrix) -> List[List[Q]]:
    """Exact inverse in `Fraction`s; ValueError when it is singular.  For
    the integer rows M = D m and M^-1 = Y / d, m^-1 = M^-1 D = Y D / d."""
    big, dens = cleared_rows(m)
    y, d = integer_inverse(big)
    return [[Q(x * dj, d) for x, dj in zip(row, dens)] for row in y]


# --- root data in Fractions -----------------------------------------------


def _fraction_simply_laced_gram(rank: int, edges: Sequence[Tuple[int, int]]) -> List[List[Q]]:
    g = [[Q(0)] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = Q(2)
    for i, j in edges:
        g[i][j] = g[j][i] = Q(-1)
    return g


def fraction_gram_matrix(t: SimpleType) -> List[List[Q]]:
    """The simple-root gram (a_i|a_j) in Fractions, family by family."""
    r = t.rank
    if t.family == "A":
        return _fraction_simply_laced_gram(r, [(i, i + 1) for i in range(r - 1)])
    if t.family == "D":
        # chain a1..a_{r-1} with a_r attached to a_{r-2}
        edges = [(i, i + 1) for i in range(r - 2)] + [(r - 3, r - 1)]
        return _fraction_simply_laced_gram(r, edges)
    if t.family == "E":
        # a2 attached to a4; chain a1-a3-a4-a5-a6(-a7-a8)
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        edges = [(chain[k], chain[k + 1]) for k in range(len(chain) - 1)] + [(1, 3)]
        return _fraction_simply_laced_gram(r, edges)
    if t.family == "B":
        # long chain, short last root of norm 1
        g = _fraction_simply_laced_gram(r, [(i, i + 1) for i in range(r - 1)])
        g[r - 1][r - 1] = Q(1)
        return g
    if t.family == "C":
        # short chain of norm 1, long last root
        g = [[Q(0)] * r for _ in range(r)]
        for i in range(r - 1):
            g[i][i] = Q(1)
        g[r - 1][r - 1] = Q(2)
        for i in range(r - 2):
            g[i][i + 1] = g[i + 1][i] = Q(-1, 2)
        g[r - 2][r - 1] = g[r - 1][r - 2] = Q(-1)
        return g
    if t.family == "F":
        return [
            [Q(2), Q(-1), Q(0), Q(0)],
            [Q(-1), Q(2), Q(-1), Q(0)],
            [Q(0), Q(-1), Q(1), Q(-1, 2)],
            [Q(0), Q(0), Q(-1, 2), Q(1)],
        ]
    return [[Q(2, 3), Q(-1)], [Q(-1), Q(2)]]


class FractionRootSystem:
    """A root system derived in Fractions: the Cartan rows
    2(a_i|a_j)/(a_j|a_j) of the Fraction gram, and the form
    (L_i|L_j) = (C^-1)_ji (a_i|a_i)/2 through the Fraction inverse, cleared
    by the least common denominator of its entries.  The roots come from
    root strings, not from the product's Weyl-orbit closure; theta (the
    root of greatest height) and the affine marks (1, theta's simple-root
    coordinates) are read off them.  The tables are tuples of tuples, as
    in the product's `RootSystem`, so the two compare field by field."""

    def __init__(self, t: SimpleType):
        self.type = t
        self.rank = n = t.rank
        self.gram = fraction_gram_matrix(t)
        self.simple_roots = tuple(
            tuple(int(2 * self.gram[i][j] / self.gram[j][j]) for j in range(n))
            for i in range(n)
        )
        inv = inverse(self.simple_roots)
        rational = [
            [inv[j][i] * self.gram[i][i] / 2 for j in range(n)] for i in range(n)
        ]
        self.scale = lcm(*(x.denominator for row in rational for x in row))
        self.form = tuple(tuple(int(x * self.scale) for x in row) for row in rational)
        self.roots, self.root_alpha_coords = self._generate_roots()
        top = max(range(len(self.roots)), key=lambda k: sum(self.root_alpha_coords[k]))
        self.theta: IntCoords = self.roots[top]
        self.marks: IntCoords = (1,) + self.root_alpha_coords[top]

    def _generate_roots(self) -> Tuple[Tuple[IntCoords, ...], Tuple[IntCoords, ...]]:
        """The positive roots from root strings (`string_positive_roots`),
        then the negatives, all sorted by their fundamental-weight
        coordinates."""
        fw = string_positive_roots(self.simple_roots)
        found = {w: a for a, w in fw.items()}
        found.update({tuple(-x for x in w): tuple(-c for c in a) for a, w in fw.items()})
        roots = tuple(sorted(found))
        return roots, tuple(found[rt] for rt in roots)


def string_positive_roots(cartan: Sequence[IntCoords]) -> Dict[IntCoords, IntCoords]:
    """The positive roots of the Cartan rows `cartan`, height by height, as
    simple-root coordinates -> fundamental-weight coordinates: a positive
    root b other than a_j extends to b + a_j iff q > 0 in the a_j-string
    b - p a_j, ..., b + q a_j, where p - q = <b, a_j^v> is b's j-th
    fundamental-weight coordinate, the sum of the Cartan rows of its simple
    roots."""
    n = len(cartan)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    fw = dict(zip(units, cartan))
    layer = units
    while layer:
        above = []
        for b in layer:
            for j in range(n):
                if b == units[j]:
                    continue          # 2 a_j is no root
                down = list(b)
                down[j] -= 1
                p = 0
                while tuple(down) in fw:
                    p += 1
                    down[j] -= 1
                if p - fw[b][j] > 0:
                    up = tuple(c + (i == j) for i, c in enumerate(b))
                    if up not in fw:
                        fw[up] = tuple(x + y for x, y in zip(fw[b], cartan[j]))
                        above.append(up)
        layer = above
    return fw


def fraction_affine_diagram(rs: FractionRootSystem) -> Tuple[List[List[int]], IntCoords, int]:
    """(scale * node gram, marks, scale) of the Fraction root system: the
    nodes -theta and a_1..a_r in simple-root coordinates, paired through the
    Fraction gram, and scale the least common denominator of that gram."""
    scale = lcm(*(x.denominator for row in rs.gram for x in row))
    nodes = [[-c for c in rs.marks[1:]]] + identity(rs.rank)
    gram = fraction_mat_mul(fraction_mat_mul(nodes, rs.gram), transpose(nodes))
    return [[int(x * scale) for x in row] for row in gram], rs.marks, scale


def positive_roots(rs: RootSystem) -> List[IntCoords]:
    """The roots of positive height, in `roots` order."""
    return [rt for rt, ac in zip(rs.roots, rs.root_alpha_coords) if sum(ac) > 0]


def theta_alpha_coords(rs: RootSystem) -> IntCoords:
    """The simple-root coordinates of the highest root theta: the affine
    marks after the 1 on node 0."""
    return rs.root_alpha_coords[rs.roots.index(rs.theta)]


# --- invariant form -------------------------------------------------------


def fraction_fw_gram(rs: RootSystem) -> List[List[Q]]:
    """(L_i|L_j) = (C^-1)_ji * (a_i|a_i)/2, in Fractions."""
    n = rs.rank
    inv = inverse(rs.simple_roots)
    gram = fraction_gram_matrix(rs.type)
    return [[inv[j][i] * gram[i][i] / 2 for j in range(n)] for i in range(n)]


def root_ip(rs: RootSystem, x: Sequence, y: Sequence) -> Q:
    """Exact (x|y) through the covector of x; the sum stays in integers
    unless a coordinate is a Fraction."""
    return Q(sum(a * b for a, b in zip(rs.covector(x), y) if b), rs.scale)


def fraction_ip(gram: Sequence[Sequence[Q]], x: Sequence, y: Sequence) -> Q:
    """(x|y) through a Fraction Gram matrix, term by term."""
    return sum(
        (
            gram[i][j] * xi * yj
            for i, xi in enumerate(x)
            if xi
            for j, yj in enumerate(y)
            if yj
        ),
        Q(0),
    )


def simple_root_coords(rs: RootSystem, x: Sequence) -> List[Q]:
    """c with x = sum_i c_i a_i, for x in fundamental-weight coordinates."""
    inv = inverse(rs.simple_roots)
    return [
        sum((xi * inv[i][j] for i, xi in enumerate(x)), Q(0)) for j in range(rs.rank)
    ]


def fraction_coords(h: ScaledCoords) -> Coords:
    """The Fraction coordinates of the rational weight x given as (den, den * x)."""
    den, v = h
    return tuple(Q(x, den) for x in v)


def fraction_invariant_norm(ambient: Ambient, h: Twist) -> Q:
    """<h|h> = sum_i k_i (h_i|h_i) through each ideal's Fraction Gram matrix."""
    total = Q(0)
    for a, hi in zip(ambient, h, strict=True):
        x = fraction_coords(hi)
        total += a.level * fraction_ip(fraction_fw_gram(a.root_system()), x, x)
    return total


# every family up to rank 6, plus E7 and E8
ORACLE_TYPES = (
    [f"A{r}" for r in range(1, 7)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(3, 7)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rational_direction(rs: RootSystem, rng) -> Coords:
    return tuple(
        Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6))) for _ in range(rs.rank)
    )


def nondominant_direction(rs: RootSystem, rng) -> Coords:
    while True:
        h = rational_direction(rs, rng)
        if min(h) < 0:
            return h


# --- directional minima ---------------------------------------------------


def brute_force_min(rs: RootSystem, x: Sequence, lam: IntCoords) -> Q:
    """min of (x|mu) over every weight mu of the Freudenthal weight system
    of the dominant integral weight lam, x a rational direction.

    A zero direction pairs to 0 with every weight, so its weight system (up
    to 4 s for the E6,3 table) is not built.
    """
    if not any(x):
        return Q(0)
    dual = rs.covector(x)
    least = min(
        sum(d * c for d, c in zip(dual, mu)) for mu in weight_system(rs, lam).weights()
    )
    return Q(least, rs.scale)


def column_n_min(rs: RootSystem, h: ScaledCoords, lam: IntCoords) -> Q:
    """The least pairing of h with the weights of lam's module, read as lam's
    entry of the h column of `affinerep.n_min_column`, in the table of the
    least level that admits lam."""
    level, rem = divmod(sum(d * c for d, c in zip(rs.covector(rs.theta), lam)), rs.scale)
    if rem:
        raise ValueError(f"(lam|theta) of {lam} is not an integer")
    a = AffineAlgebra(rs.type, max(1, level))
    den, pos, _ = n_min_column(a, h)
    return Q(pos[enumerate_level_weights(a).weights.index(tuple(lam))], den)


# --- module tables --------------------------------------------------------


def weyl_dim(rs: RootSystem, lam: IntCoords) -> int:
    """Weyl dimension formula, (lam + rho|alpha) / (rho|alpha) in Fractions."""
    if not all(type(c) is int and c >= 0 for c in lam):
        raise ValueError("highest weight must be dominant integral")
    lam_rho = tuple(c + 1 for c in lam)
    rho = (1,) * rs.rank
    num = Q(1)
    den = Q(1)
    for alpha in positive_roots(rs):
        num *= root_ip(rs, lam_rho, alpha)
        den *= root_ip(rs, rho, alpha)
    val = num / den
    if val.denominator != 1:
        raise ValueError(f"Weyl dimension {val} of {lam} is not an integer")
    return int(val)


def dual_coxeter(t: SimpleType) -> int:
    """Dual Coxeter number 1 + (rho|theta-dual) from root data."""
    rs = build_root_system(t)
    theta = rs.theta
    val = 1 + 2 * root_ip(rs, (1,) * rs.rank, theta) / root_ip(rs, theta, theta)
    if val.denominator != 1:
        raise InvariantError(f"{t}: dual Coxeter number {val} is not an integer")
    return int(val)


@dataclass(frozen=True)
class WeightSystem:
    """Weights of an irreducible module with Freudenthal multiplicities."""

    highest: IntCoords
    entries: Tuple[Tuple[IntCoords, int], ...]

    def weights(self) -> List[IntCoords]:
        return [w for w, _ in self.entries]


_WS_CACHE: Dict[Tuple[SimpleType, IntCoords], WeightSystem] = {}


def weight_system(rs: RootSystem, lam: Sequence[int]) -> WeightSystem:
    """All weights of the module of the dominant integral weight lam; the
    oracle for the closed-form least pairings of `affinerep.n_min_column`."""
    top = tuple(lam)
    if len(top) != rs.rank or not all(type(c) is int and c >= 0 for c in top):
        raise ValueError("highest weight must be dominant integral")
    key = (rs.type, top)
    cached = _WS_CACHE.get(key)
    if cached is not None:
        return cached
    n = rs.rank
    simple = rs.simple_roots

    # BFS down from the highest weight, level = height of lam - mu.
    levels: Dict[int, List[IntCoords]] = {0: [top]}
    seen: Dict[IntCoords, int] = {top: 0}
    level = 0
    while level in levels:
        for mu in levels[level]:
            for j in range(n):
                # length of the a_j-string above mu inside the found set
                p = 0
                up = mu
                while True:
                    up = tuple(up[k] + simple[j][k] for k in range(n))
                    if up not in seen:
                        break
                    p += 1
                if p + mu[j] >= 1:
                    down = tuple(mu[k] - simple[j][k] for k in range(n))
                    if down not in seen:
                        seen[down] = level + 1
                        levels.setdefault(level + 1, []).append(down)
        level += 1

    # Freudenthal multiplicities; acc sums scale * m(mu + k a) (mu + k a|a).
    steps = [(a, rs.covector(a)) for a in positive_roots(rs)]
    lam_rho = tuple(c + 1 for c in top)
    n_lam = root_ip(rs, lam_rho, lam_rho)
    mult: Dict[IntCoords, int] = {top: 1}
    for mu, lev in sorted(seen.items(), key=lambda kv: kv[1]):
        if lev == 0:
            continue
        acc = 0
        for step, dual in steps:
            shifted = tuple(a + b for a, b in zip(mu, step))
            while True:
                m = mult.get(shifted)
                if m is None:
                    break
                acc += m * sum(d * c for d, c in zip(dual, shifted) if c)
                shifted = tuple(a + b for a, b in zip(shifted, step))
        mu_rho = tuple(c + 1 for c in mu)
        val = Q(2 * acc, rs.scale) / (n_lam - root_ip(rs, mu_rho, mu_rho))
        if val.denominator != 1 or val <= 0:
            raise InvariantError(f"Freudenthal multiplicity {val} of {mu}")
        mult[mu] = int(val)
    ws = WeightSystem(top, tuple(sorted(mult.items())))
    _WS_CACHE[key] = ws
    return ws


def total_multiplicity(ws: WeightSystem) -> int:
    """Dimension of the module: the sum of its weight multiplicities."""
    return sum(m for _, m in ws.entries)


def semisimple_rank(x: SemisimpleTypeWithLevels) -> int:
    return sum(t.rank for t, _ in x.ideals)


def fstring_type_name(x: SemisimpleTypeWithLevels) -> str:
    """The type's name built afresh: `X<rank>,<k>` per ideal, then `U(1)`
    or `U(1)^n`, space-separated; "0" for the zero algebra."""
    parts = [f"{t.family}{t.rank},{k}" for t, k in x.ideals]
    if x.abelian_rank == 1:
        parts.append("U(1)")
    elif x.abelian_rank > 1:
        parts.append(f"U(1)^{x.abelian_rank}")
    return " ".join(parts) if parts else "0"


def dict_rank_refusal(family: str, rank: int) -> Optional[str]:
    """The ValueError text with which `SimpleType(family, rank)` refuses,
    from a dict of every family's rank test built per call; None when the
    type exists."""
    if family not in tuple("ABCDEFG"):
        return f"unknown family {family!r}"
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }[family]
    return None if ok else f"invalid simple type {family}{rank}"


def conformal_weight(a: AffineAlgebra, lam: IntCoords) -> Q:
    """Lowest L(0)-weight (lam, lam + 2 rho) / 2(k + h-dual) of the module."""
    rs = a.root_system()
    if not all(type(c) is int and c >= 0 for c in lam):
        raise ValueError("weight must be dominant integral")
    if root_ip(rs, lam, rs.theta) > a.level:
        raise ValueError(f"{lam} is not admissible at level {a.level}")
    shifted = tuple(c + 2 for c in lam)  # lam + 2 rho
    return root_ip(rs, lam, shifted) / (2 * (a.level + dual_coxeter(a.type)))


def fraction_dominant_conjugate(rs: RootSystem, x: Sequence) -> Coords:
    """Dominant conjugate of a rational weight by simple reflections on its
    Fraction coordinates."""
    cur = [Q(c) for c in x]
    bound = len(positive_roots(rs))
    for _ in range(bound + 1):
        j = next((k for k, c in enumerate(cur) if c < 0), None)
        if j is None:
            return tuple(cur)
        m = cur[j]
        cur = [c - m * a for c, a in zip(cur, rs.simple_roots[j])]
    raise ValueError(f"{x} is not dominant after {bound} steps")


def fraction_lowest_weight(rs: RootSystem, lam: IntCoords) -> Coords:
    """w0.lam as minus the dominant conjugate of -lam, in Fractions."""
    return tuple(-c for c in fraction_dominant_conjugate(rs, [-c for c in lam]))


def fraction_level_weights(a: AffineAlgebra) -> List[Coords]:
    """Dominant lam with (lam|theta) <= k by Fraction pairings, in sorted order."""
    rs = a.root_system()
    gram = fraction_fw_gram(rs)
    marks = [fraction_ip(gram, [int(j == i) for j in range(rs.rank)], rs.theta)
             for i in range(rs.rank)]
    return [
        tuple(map(Q, lam))
        for lam in product(*(range(int(a.level / m) + 1) for m in marks))
        if fraction_ip(gram, lam, rs.theta) <= a.level
    ]


# --- twisted minima -------------------------------------------------------


@dataclass(frozen=True)
class TupleBound:
    """One admissible weight per ideal with its minimal-weight bound."""

    weights: Tuple[IntCoords, ...]
    cw_sum: Q
    ell_min: int
    nmin_sum: Q
    bound: Q
    feasible: bool


def scan(t: _CaseTables) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Yield (index tuple, scaled cw sum, scaled n_min sum for h) for all tuples."""
    nm_s = t.nm_s[0]
    for idx in product(*(range(len(col)) for col in t.weights)):
        s_cw = sum(t.cw_s[i][j] for i, j in enumerate(idx))
        s_nm = sum(nm_s[i][j] for i, j in enumerate(idx))
        yield idx, s_cw, s_nm


def feasible_tuples(ambient: Ambient, h: Twist) -> List[TupleBound]:
    """All weight tuples with integral conformal-weight sum, with bounds."""
    t = _CaseTables(ambient, h)
    d = t.scale
    out: List[TupleBound] = []
    for idx, s_cw, s_nm in scan(t):
        if s_cw % d:
            continue
        nonzero = any(i for i in idx)
        ell_s = max(2 * d if nonzero else 0, s_cw)
        bound_s = ell_s + s_nm + t.half_norm_s
        out.append(
            TupleBound(
                weights=tuple(t.weights[i][j] for i, j in enumerate(idx)),
                cw_sum=Q(s_cw, d),
                ell_min=ell_s // d,
                nmin_sum=Q(s_nm, d),
                bound=Q(bound_s, d),
                feasible=True,
            )
        )
    return out


@dataclass
class TupleGrid:
    """Per-tuple scaled sums of every weight tuple, one array axis per ideal."""

    tables: _CaseTables
    s_cw: np.ndarray
    nonvacuum: np.ndarray  # some weight of the tuple is nonzero
    ell_s: np.ndarray  # scaled ell_min
    bound_s: np.ndarray  # scaled bound, int64 max where cw is not integral


def tuple_grid(ambient: Ambient, h: Twist) -> TupleGrid:
    """The exhaustive scan of `scan` for h, broadcast in numpy so that the
    10^6 tuples of a2x6 take well under a second."""
    t = _CaseTables(ambient, h)
    d = t.scale
    n = len(t.weights)

    def axis(i: int, col: Sequence[int]) -> np.ndarray:
        return np.array(col, dtype=np.int64).reshape(
            [-1 if k == i else 1 for k in range(n)]
        )

    s_cw = sum(axis(i, col) for i, col in enumerate(t.cw_s))
    s_nm = sum(axis(i, col) for i, col in enumerate(t.nm_s[0]))
    nonvacuum = sum(axis(i, [int(any(w)) for w in col])
                    for i, col in enumerate(t.weights)) > 0
    ell_s = np.maximum(2 * d * nonvacuum, s_cw)
    bound = np.where(s_cw % d == 0, ell_s + s_nm + t.half_norm_s,
                     np.iinfo(np.int64).max)
    return TupleGrid(t, s_cw, nonvacuum, ell_s, bound)


def scan_minimum(ambient: Ambient, h: Twist) -> Tuple[Q, Tuple[IntCoords, ...]]:
    """Least bound over every tuple and its lexicographically least witness.

    A C-order argmin over `tuple_grid` returns the first minimum in the
    scan's order.
    """
    g = tuple_grid(ambient, h)
    t, d, bound = g.tables, g.tables.scale, g.bound_s
    flat = int(np.argmin(bound))
    idx = np.unravel_index(flat, bound.shape)
    witness = tuple(t.weights[i][int(j)] for i, j in enumerate(idx))
    return Q(int(bound.flat[flat]), d), witness


def twisted_weight_lower_bound(t: TupleBound, ambient: Ambient, h: Twist) -> Q:
    """ell_min + sum n_min + <h|h>/2, recomputed from the case data."""
    if not shift_ok(ambient, h):
        raise ValueError("(h|alpha) >= -1 fails; the shift formula does not apply")
    norm, _, _ = invariant_norm(ambient, h)
    total = Q(t.ell_min) + norm / 2
    for a, hi, w in zip(ambient, h, t.weights):
        total += brute_force_min(a.root_system(), fraction_coords(hi), w)
    return total


def root_loop_shift_ok(ambient: Ambient, h: Twist) -> bool:
    """True iff (h|alpha) >= -1 for every root alpha, root by root."""
    for a, hi in zip(ambient, h, strict=True):
        rs = a.root_system()
        x = fraction_coords(hi)
        for root in rs.roots:
            # the integer root carries the covector, h the rational side
            if root_ip(rs, root, x) < -1:
                return False
    return True


def negated(ambient: Ambient, h: Twist) -> Tuple[Ambient, Twist]:
    """The case (ambient, -h)."""
    return ambient, tuple((den, tuple(-x for x in v)) for den, v in h)


def loop_ideal_twist(a: AffineAlgebra, hi: ScaledCoords) -> IdealTwist:
    """The per-ideal record of `twistbound.ideal_twist` from the per-ideal
    loop bodies it replaced: the norm term, the (h+|theta) test and the
    n_min columns of `affinerep.n_min_column`, as tuples."""
    rs = a.root_system()
    den, v = hi
    top = dominant_conjugate(rs, v)
    d, pos, neg = n_min_column(a, hi)
    return IdealTwist(
        (a.level * sum(x * y for x, y in zip(rs.covector(v), v)), den * den * rs.scale),
        sum(x * y for x, y in zip(rs.covector(rs.theta), top)) <= den * rs.scale,
        (d, tuple(pos), tuple(neg)),
    )


def plain_data(value) -> bool:
    """True iff value holds only ints, bools and tuples, to any depth."""
    if isinstance(value, tuple):
        return all(plain_data(x) for x in value)
    return type(value) in (int, bool)


# --- fixed subalgebras -----------------------------------------------------


def leg_walk_classify_simple_system(gram: Sequence[Sequence[Q | int]]) -> SimpleType:
    """Dynkin type of a connected simple system by counting its multiple
    bonds and walking the legs of a branch node, with no tree check: it
    misnames the affine Bn diagram and loops on a cycle with a pendant, so
    it is an oracle only on connected proper sub-diagrams of affine diagrams."""
    n = len(gram)
    if n == 1:
        return SimpleType("A", 1)
    bonds = {}
    adj: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j]:
                # bond multiplicity = product of the two Cartan entries
                num = 4 * gram[i][j] * gram[j][i]
                den = gram[i][i] * gram[j][j]
                b = num // den
                if b * den != num or not 1 <= b <= 3:
                    raise InvariantError(f"bond {num}/{den} is not 1, 2 or 3")
                bonds[(i, j)] = int(b)
                adj[i].append(j)
                adj[j].append(i)
    multi = [b for b in bonds.values() if b > 1]
    if 3 in multi:
        if n != 2:
            raise InvariantError("triple bond outside rank 2")
        return SimpleType("G", 2)
    if 2 in multi:
        if len(multi) != 1:
            raise InvariantError("more than one double bond")
        if n == 2:
            return SimpleType("C", 2)
        (i, j) = next(k for k, b in bonds.items() if b == 2)
        ends = {i, j}
        interior = {k for k in range(n) if len(adj[k]) > 1}
        if ends <= interior:
            if n != 4:
                raise InvariantError("interior double bond outside F4")
            return SimpleType("F", 4)
        maxnorm = max(gram[k][k] for k in range(n))
        n_short = sum(1 for k in range(n) if gram[k][k] < maxnorm)
        return SimpleType("B" if n_short == 1 else "C", n)
    degrees = [len(a) for a in adj]
    if max(degrees) <= 2:
        if degrees.count(1) != 2 or min(degrees) == 0:
            raise InvariantError("disconnected or cyclic simple system")
        return SimpleType("A", n)
    if max(degrees) > 3 or degrees.count(3) != 1:
        raise InvariantError("not a Dynkin diagram")
    hub = degrees.index(3)
    legs = []
    for start in adj[hub]:
        length = 1
        prev, cur = hub, start
        while True:
            nxt = [k for k in adj[cur] if k != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return SimpleType("D", legs[2] + 3)
    if legs[:2] == [1, 2] and legs[2] in (2, 3, 4):
        return SimpleType("E", legs[2] + 4)
    raise InvariantError(f"unrecognized branched diagram with legs {legs}")


def _indecomposable_positive(
    retained_pos: List[Tuple[IntCoords, IntCoords]]
) -> List[IntCoords]:
    """Simple system of a closed subsystem: indecomposable positive roots."""
    pos_set = {fw for fw, _ in retained_pos}
    simple = []
    for fw, _ in retained_pos:
        decomposable = any(
            tuple(f - g for f, g in zip(fw, other)) in pos_set
            for other in pos_set
            if other != fw
        )
        if not decomposable:
            simple.append(fw)
    return simple


def typed_components_of_subsystem(
    rs: RootSystem,
    retained: List[Tuple[IntCoords, IntCoords]],
    level: int,
) -> Tuple[List[Tuple[SimpleType, Q]], int, int]:
    """Type, level and rank bookkeeping for a closed root subsystem.

    Returns (typed components with levels, abelian rank, dimension).  The
    Cartan is kept whole; a component gets level = ambient level * 2/(b|b)
    for b a long root of the component in the ambient normalization; the
    abelian rank is the rank deficit of the retained root span.
    """
    retained_pos = [(fw, ac) for fw, ac in retained if sum(ac) > 0]
    dim = len(retained) + rs.rank
    if not retained:
        return [], rs.rank, dim
    simple = _indecomposable_positive(retained_pos)
    comps: List[List[IntCoords]] = []
    unused = list(simple)
    while unused:
        comp = [unused.pop()]
        changed = True
        while changed:
            changed = False
            for v in list(unused):
                if any(root_ip(rs, v, w) != 0 for w in comp):
                    comp.append(v)
                    unused.remove(v)
                    changed = True
        comps.append(comp)
    typed: List[Tuple[SimpleType, Q]] = []
    for comp in comps:
        gram = [[root_ip(rs, x, y) for y in comp] for x in comp]
        ty = classify_simple_system(gram)
        long_norm = max(gram[i][i] for i in range(len(comp)))
        typed.append((ty, Q(level) * 2 / long_norm))
    span_rank = rank([ac for _, ac in retained_pos])
    abelian = rs.rank - span_rank
    return typed, abelian, dim


def root_filter_fixed_subalgebra(
    a: AffineAlgebra, h: ScaledCoords
) -> Tuple[SemisimpleTypeWithLevels, int]:
    """Fixed subalgebra of one ideal under exp(-2 pi i h), with dimension,
    from the generated roots: alpha is kept iff (h|alpha) is integral."""
    rs = a.root_system()
    den, v = h
    dual, d = rs.covector(v), den * rs.scale
    retained = [
        (fw, ac)
        for fw, ac in zip(rs.roots, rs.root_alpha_coords)
        if sum(x * y for x, y in zip(dual, fw)) % d == 0
    ]
    typed, abelian, dim = typed_components_of_subsystem(rs, retained, a.level)
    return SemisimpleTypeWithLevels.of(typed, abelian), dim


# --- order-3 options ------------------------------------------------------


class RootFilter:
    """Kac's inner order-3 automorphisms of a simple type read off its roots,
    sharing nothing with `src/` but `classify_simple_system`.

    The roots come from root strings over the `Fraction` gram of the simple
    roots, cleared to integers by its least common denominator `scale`;
    theta is the positive root of greatest height, and the affine marks are
    1 and theta's simple-root coordinates.  The label vectors are the
    coprime s >= 0 with sum(marks * s) = 3.  The automorphism labelled s
    acts on the root space of alpha = sum c_j a_j by w^(sum_{j>=1} s_j c_j),
    w a primitive cube root of unity, so its fixed subalgebra is the Cartan
    plus the roots with that sum divisible by 3."""

    def __init__(self, t: SimpleType):
        gram = fraction_gram_matrix(t)
        self.scale = lcm(*(x.denominator for row in gram for x in row))
        self.gram = [[int(x * self.scale) for x in row] for row in gram]
        n = t.rank
        cartan = [tuple(2 * self.gram[i][j] // self.gram[j][j] for j in range(n))
                  for i in range(n)]
        self.positive = list(string_positive_roots(cartan))
        self.marks = (1,) + max(self.positive, key=sum)

    def label_vectors(self) -> List[Tuple[int, ...]]:
        """The label vectors in lexicographic order."""
        vectors: List[Tuple[int, ...]] = []

        def extend(prefix: Tuple[int, ...], budget: int) -> None:
            if len(prefix) == len(self.marks):
                if budget == 0 and gcd(*prefix) == 1:
                    vectors.append(prefix)
                return
            for x in range(budget // self.marks[len(prefix)] + 1):
                extend(prefix + (x,), budget - x * self.marks[len(prefix)])

        extend((), 3)
        return vectors

    def fixed_type(
        self, s: Sequence[int], level: int = 1
    ) -> Tuple[Tuple[Tuple[SimpleType, int], ...], int]:
        """(sorted ideals with levels, U(1) rank) fixed by the automorphism
        labelled s of a level-`level` ideal.  The simple system of the kept
        roots is their indecomposable positive roots, split into components
        by the gram; a component with long roots of norm (b|b) sits at level
        level * 2/(b|b), and the U(1) rank is the rank left over."""
        kept = {c for c in self.positive if sum(x * y for x, y in zip(s[1:], c)) % 3 == 0}
        simple = [b for b in kept
                  if not any(tuple(x - y for x, y in zip(b, c)) in kept for c in kept)]

        def ip(x: IntCoords, y: IntCoords) -> int:
            return sum(x[i] * g * y[j] for i, row in enumerate(self.gram)
                       for j, g in enumerate(row) if x[i] and y[j])

        semisimple_rank = len(simple)
        ideals = []
        while simple:
            comp = [simple.pop()]
            for x in comp:  # grows while it is walked: a breadth-first search
                comp.extend(y for y in simple if ip(x, y))
                simple = [y for y in simple if not ip(x, y)]
            gram = [[ip(x, y) for y in comp] for x in comp]
            k, rem = divmod(2 * self.scale * level, max(gram[i][i] for i in range(len(comp))))
            if rem:
                raise AssertionError(f"level of {comp} is not an integer")
            ideals.append((classify_simple_system(gram), k))
        return tuple(sorted(ideals)), len(self.gram) - semisimple_rank


def fraction_kac_ideals(
    t: SimpleType, s: Sequence[int]
) -> Tuple[List[Tuple[SimpleType, Q]], int]:
    """(ideals with Fraction levels 2/(b|b) inside a level-1 ideal, abelian
    rank) of the inner automorphism labelled s, classified afresh."""
    gram, _, scale = _affine_diagram(t)
    unseen = [i for i in range(len(s)) if s[i] == 0]
    ideals = []
    while unseen:
        comp = [unseen.pop()]
        for i in comp:
            comp.extend(j for j in unseen if gram[i][j])
            unseen = [j for j in unseen if not gram[i][j]]
        ty = classify_simple_system([[gram[i][j] for j in comp] for i in comp])
        ideals.append((ty, Q(2 * scale, max(gram[i][i] for i in comp))))
    return ideals, sum(1 for x in s if x) - 1


def fraction_order3_fixed_options(t: SimpleType, level: int) -> Tuple[FixedOption, ...]:
    """The order-3 options built with Fraction levels: every label vector
    classified, its levels rescaled by the ambient level, each result sorted
    by `of`; the options sorted by (kind, str(result))."""
    of = SemisimpleTypeWithLevels.of
    options = {FixedOption(of([(t, Q(level))]), "trivial")}
    for s in _order3_label_vectors(t):
        ideals, abelian = fraction_kac_ideals(t, s)
        options.add(FixedOption(of([(ty, k * level) for ty, k in ideals], abelian), "inner"))
    if t == SimpleType("D", 4):
        options.add(FixedOption(of([(SimpleType("A", 2), Q(3 * level))]), "outer"))
        options.add(FixedOption(of([(SimpleType("G", 2), Q(level))]), "outer"))
    return tuple(sorted(options, key=lambda o: (o.kind, str(o.result))))


def root_affine_diagram(t: SimpleType) -> Tuple[List[List[int]], IntCoords, int]:
    """(scale * node gram, marks, scale) read off the generated root system:
    theta is the root of greatest height, found by a search over the roots,
    the gram pairs [-theta] + simple roots through `RootSystem.covector`,
    scale is the root system's."""
    rs = build_root_system(t)
    top = max(range(len(rs.roots)), key=lambda k: sum(rs.root_alpha_coords[k]))
    nodes = (tuple(-c for c in rs.roots[top]),) + rs.simple_roots
    gram = [[sum(a * b for a, b in zip(rs.covector(x), y)) for y in nodes] for x in nodes]
    return gram, (1,) + rs.root_alpha_coords[top], rs.scale


def brute_force_diagram_automorphisms(t: SimpleType) -> Set[Tuple[int, ...]]:
    """Every permutation p of the affine nodes, out of all (rank + 1)!, with
    gram[p[i]][p[j]] == gram[i][j] for the scaled node Gram matrix."""
    gram = _affine_diagram(t)[0]
    n = len(gram)
    return {
        p for p in itertools.permutations(range(n))
        if all(gram[p[i]][p[j]] == gram[i][j] for i in range(n) for j in range(n))
    }


def backtracking_admits(c: SemisimpleTypeWithLevels, target: SemisimpleTypeWithLevels):
    """The witness of the plain backtracking search over Counters, or None: at each
    step the first remaining ideal either opens a 3-cycle with two equal
    partners or takes one of its options sorted by (kind, str(result))."""
    target_ideals = Counter(target.ideals)
    target_ab = target.abelian_rank

    def fits(acc: Counter, ab: int) -> bool:
        return ab <= target_ab and all(acc[key] <= target_ideals[key] for key in acc)

    def rec(remaining, acc: Counter, ab: int, nontrivial: bool, witness):
        if not remaining:
            if acc == target_ideals and ab == target_ab and nontrivial:
                return tuple(witness)
            return None
        first, rest = remaining[0], remaining[1:]
        if remaining.count(first) >= 3:
            idx = [i for i, x in enumerate(rest) if x == first][:2]
            reduced = tuple(x for i, x in enumerate(rest) if i not in idx)
            diag = (first[0], 3 * first[1])
            acc2 = acc.copy()
            acc2[diag] += 1
            if fits(acc2, ab):
                witness.append(("cycle", (first,) * 3, SemisimpleTypeWithLevels.of([diag])))
                found = rec(reduced, acc2, ab, True, witness)
                if found is not None:
                    return found
                witness.pop()
        for opt in sorted(
            order3_fixed_options(first[0], int(first[1])),
            key=lambda o: (o.kind, str(o.result)),
        ):
            acc2 = acc.copy()
            for key in opt.result.ideals:
                acc2[key] += 1
            ab2 = ab + opt.result.abelian_rank
            if not fits(acc2, ab2):
                continue
            witness.append((opt.kind, (first,), opt.result))
            found = rec(rest, acc2, ab2, nontrivial or opt.kind != "trivial", witness)
            if found is not None:
                return found
            witness.pop()
        return None

    return rec(tuple(sorted(c.ideals)), Counter(), 0, False, [])


def count_moves(target: SemisimpleTypeWithLevels, first, cycle: bool):
    """The moves toward target at a position holding the ideal first, built
    per call: the cycle (when open) and each option of first, kept when a
    generator finds each of its ideals among the target's distinct ideals,
    with one `.count` per distinct ideal for its count vector."""
    keys = tuple(dict.fromkeys(target.ideals))
    entries = [(o.kind, (first,), o.result) for o in order3_fixed_options(*first)]
    if cycle:
        diag = SemisimpleTypeWithLevels(((first[0], 3 * first[1]),))
        entries.insert(0, ("cycle", (first,) * 3, diag))
    return tuple(
        (tuple(map(res.ideals.count, keys)), res.abelian_rank, len(consumed),
         kind != "trivial", (kind, consumed, res))
        for kind, consumed, res in entries
        if all(key in keys for key in res.ideals)
    )


# --- eta powers -----------------------------------------------------------


def series_rescaled(f: PuiseuxSeries, new_denom: int) -> PuiseuxSeries:
    if new_denom % f.denom:
        raise ValueError("new denominator must refine the old one")
    k = new_denom // f.denom
    return PuiseuxSeries(new_denom, {n * k: c for n, c in f.coeffs.items()}, f.trunc)


def series_valuation(f: PuiseuxSeries) -> Q:
    if not f.coeffs:
        return f.trunc
    return Q(min(f.coeffs), f.denom)


def series_terms(f: PuiseuxSeries) -> List[Tuple[Q, Q]]:
    """(exponent, coefficient) pairs in increasing exponent."""
    return [(Q(n, f.denom), c) for n, c in sorted(f.coeffs.items())]


def series_add(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    d = lcm(a.denom, b.denom)
    a, b = series_rescaled(a, d), series_rescaled(b, d)
    out = dict(a.coeffs)
    for n, c in b.coeffs.items():
        out[n] = out.get(n, 0) + c
    return PuiseuxSeries.make(d, out, min(a.trunc, b.trunc))


def series_neg(f: PuiseuxSeries) -> PuiseuxSeries:
    return PuiseuxSeries(f.denom, {n: -c for n, c in f.coeffs.items()}, f.trunc)


def series_scale(f: PuiseuxSeries, c: Q) -> PuiseuxSeries:
    return PuiseuxSeries.make(f.denom, {n: v * c for n, v in f.coeffs.items()}, f.trunc)


def series_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    """The product, exact below min(t_a + v_b, t_b + v_a)."""
    d = lcm(a.denom, b.denom)
    a, b = series_rescaled(a, d), series_rescaled(b, d)
    trunc = min(a.trunc + series_valuation(b), b.trunc + series_valuation(a))
    bound = trunc * d
    out: Dict[int, Q] = {}
    for n1, c1 in a.coeffs.items():
        for n2, c2 in b.coeffs.items():
            if n1 + n2 < bound:
                out[n1 + n2] = out.get(n1 + n2, 0) + c1 * c2
    return PuiseuxSeries.make(d, out, trunc)


def series_one(trunc: Q | int) -> PuiseuxSeries:
    return PuiseuxSeries.make(1, {0: Q(1)}, Q(trunc))


def monomial(exp: Q, coeff: Q, trunc: Q | int) -> PuiseuxSeries:
    e = Q(exp)
    return PuiseuxSeries.make(e.denominator, {e.numerator: coeff}, Q(trunc))


def series_inverse(f: PuiseuxSeries) -> PuiseuxSeries:
    """1/f by the geometric series of f = lead q^v (1 + s)."""
    if not f.coeffs:
        raise ZeroDivisionError("inverse of zero series")
    v_num = min(f.coeffs)
    lead = f.coeffs[v_num]
    v = Q(v_num, f.denom)
    lead_inv = 1 / lead
    s = PuiseuxSeries.make(
        f.denom,
        {n - v_num: c * lead_inv for n, c in f.coeffs.items() if n != v_num},
        f.trunc - v,
    )
    trunc_u = f.trunc - v
    acc = series_one(trunc_u)
    term = series_one(trunc_u)
    sv = series_valuation(s)
    if sv <= 0:
        raise AssertionError("expected positive valuation remainder")
    k = 0
    while k * sv < trunc_u:
        term = series_mul(term, s)
        acc = series_add(acc, series_neg(term) if k % 2 == 0 else term)
        k += 1
    return series_mul(acc, monomial(-v, lead_inv, trunc_u - v)).normalized()


def euler_pentagonal(terms: int) -> PuiseuxSeries:
    """prod(1 - x^n) = sum_k (-1)^k x^(k(3k-1)/2), exact below x^(terms+1)."""
    trunc = Q(terms + 1)
    out: Dict[int, Q] = {}
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e <= terms:
                out[e] = Q(-1) ** abs(kk)
                done = False
        if done:
            break
        k += 1
    return PuiseuxSeries.make(1, out, trunc)


def series_pow(f: PuiseuxSeries, n: int) -> PuiseuxSeries:
    """f^n by repeated products (of the inverse for n < 0)."""
    if n == 0:
        return series_one(f.trunc - series_valuation(f))
    base = f if n > 0 else series_inverse(f)
    out = base
    for _ in range(abs(n) - 1):
        out = series_mul(out, base)
    return out


def substitute_scaled(f: PuiseuxSeries, s: Q) -> PuiseuxSeries:
    """q -> q^s for positive rational s."""
    d = f.denom * s.denominator
    return PuiseuxSeries.make(
        d,
        {int(n * s * d / f.denom): c for n, c in f.coeffs.items()},
        f.trunc * s,
    ).normalized()


@lru_cache(maxsize=None)
def product_one_minus_qn_power(m: int, terms: int) -> PuiseuxSeries:
    """prod_{n>=1} (1 - x^n)^m up to (and excluding) x^(terms+1)."""
    trunc = Q(terms + 1)
    acc = series_one(trunc)
    if m == 0:
        return acc
    if m < 0:
        return series_inverse(product_one_minus_qn_power(-m, terms))
    half = m // 2
    if half:
        piece = product_one_minus_qn_power(half, terms)
        acc = series_mul(piece, piece)
    if m % 2:
        base = series_one(trunc)
        for n in range(1, terms + 1):
            base = series_mul(base, PuiseuxSeries.make(1, {0: Q(1), n: Q(-1)}, trunc))
        acc = series_mul(acc, base)
    return acc


def product_eta(scale: Q, power: int, trunc: int) -> PuiseuxSeries:
    """eta(scale*t)^power from the product, substituted and shifted."""
    prefix_exp = scale * power / 24
    terms = max(0, int((Q(trunc) - prefix_exp) / scale) + 1)
    shifted = substitute_scaled(product_one_minus_qn_power(power, terms), scale)
    pre = monomial(prefix_exp, Q(1), Q(trunc) - prefix_exp + shifted.trunc)
    return series_mul(shifted, pre).normalized()


def product_f_power_at_S(n: int, trunc: int) -> PuiseuxSeries:
    """(3^6 eta(t)^12 / eta(t/3)^12)^n by a series power of the product."""
    margin = trunc + 2 + 2 * max(abs(n), 3)
    base = series_scale(
        series_mul(product_eta(Q(1), 12, margin), product_eta(Q(1, 3), -12, margin)),
        Q(3**6),
    )
    out = series_pow(base, n)
    return PuiseuxSeries.make(
        out.denom, dict(out.coeffs), min(out.trunc, Q(trunc))
    ).normalized()


def fraction_f_power_at_S(n: int, trunc: int) -> PuiseuxSeries:
    """f^n at the other cusp from the same two Euler powers as `f_power_at_S`,
    with the Fraction 3^(6n) multiplied into every term of the sum."""
    terms = max(0, 3 * trunc - n)
    outer = _euler_power(12 * n, (terms + 2) // 3)
    inner = _euler_power(-12 * n, terms)
    coeffs: Dict[int, Q] = {}
    lead = Q(3) ** (6 * n)
    for m, a in enumerate(outer):
        if a:
            for e in range(terms - 3 * m):
                key = n + 3 * m + e
                coeffs[key] = coeffs.get(key, 0) + lead * a * inner[e]
    return PuiseuxSeries.make(3, coeffs, Q(trunc)).normalized()


# --- dimension formula ----------------------------------------------------


@dataclass(frozen=True)
class Cyclo3:
    """a + b*w in Q(w), w a primitive cube root of unity (w^2 = -1 - w)."""

    a: Q
    b: Q = Q(0)

    @staticmethod
    def of(x) -> "Cyclo3":
        return x if isinstance(x, Cyclo3) else Cyclo3(Q(x))

    def __add__(self, other) -> "Cyclo3":
        o = Cyclo3.of(other)
        return Cyclo3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __mul__(self, other) -> "Cyclo3":
        o = Cyclo3.of(other)
        return Cyclo3(
            self.a * o.a - self.b * o.b,
            self.a * o.b + self.b * o.a - self.b * o.b,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = Cyclo3.of(other)
        return self.a == o.a and self.b == o.b


OMEGA = Cyclo3(Q(0), Q(1))


def omega_trace(f: PuiseuxSeries) -> PuiseuxSeries:
    """(F + F_w + F_w^2)/3, where F_w^k multiplies q^(j/3) by w^(jk).

    Summed in Q(w) term by term; the exponents of f must lie in (1/3)Z.
    """
    powers = [Cyclo3(Q(1)), OMEGA, OMEGA * OMEGA]
    out: Dict[int, Q] = {}
    for n, c in f.coeffs.items():
        j = Q(3 * n, f.denom)
        if j.denominator != 1:
            raise ValueError(f"exponent {Q(n, f.denom)} is not in thirds")
        total = sum((c * powers[int(j) * k % 3] for k in range(3)), Cyclo3(Q(0)))
        if total.b:
            raise AssertionError("the trace left a non-rational coefficient")
        if total.a:
            out[n] = total.a / 3
    return PuiseuxSeries.make(f.denom, out, f.trunc).normalized()


# The Laurent coefficient c_n of f^n in Z = f + c0 + c_-1/f + c_-2/f^2 +
# c_-3/f^3, as (a, b, c, d) for a*d0 + b*d13 + c*d23 + d, derived by hand.
# The cusp-expansion constraints give c0 = d0 + 12, c_-2 = 3^12 (d13/3 + 12)
# and c_-1 = 3^6 (d23/3 + 8 c_-2 / 3^11 - 198); the pole coefficient at the
# other cusp pins c_-3 = 3^17 whenever twisted weights are >= 1.
_CM2 = (Q(0), Q(3**12, 3), Q(0), Q(12 * 3**12))
TYPED_LAURENT_TABLE: Dict[int, Tuple[Q, Q, Q, Q]] = {
    1: (Q(0), Q(0), Q(0), Q(1)),
    0: (Q(1), Q(0), Q(0), Q(12)),
    -1: tuple(
        x + Q(8 * 3**6, 3**11) * y
        for x, y in zip((Q(0), Q(0), Q(3**6, 3), Q(-198 * 3**6)), _CM2)
    ),
    -2: _CM2,
    -3: (Q(0), Q(0), Q(0), Q(3**17)),
}


def traced_dimension_formula(trunc: int) -> Tuple[Q, Q, Q, Q]:
    """The dimension formula coefficients from `TYPED_LAURENT_TABLE`, with
    the constant term of sum_i Z(S T^i t) read as 3 times that of the
    traced Z(S t)."""
    total = [a + b for a, b in zip(TYPED_LAURENT_TABLE[0], (0, 0, 0, -12))]
    for n, cn in TYPED_LAURENT_TABLE.items():
        series = series_one(trunc) if n == 0 else f_power_at_S(n, trunc)
        gamma = omega_trace(series).coeff(0)
        total = [t + 3 * gamma * c for t, c in zip(total, cn)]
    return tuple(total)


def package_caches() -> Dict[str, object]:
    """Every `lru_cache` of the package, module-level functions and the
    methods of its classes, by qualified name (`module.function`,
    `module.Class.method`), each once although other modules import it."""
    found: Dict[str, object] = {}
    for info in pkgutil.iter_modules(orbifold24.__path__):
        module = importlib.import_module(f"orbifold24.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).values() if isinstance(value, type) else ()
            for fn in (value, *members):
                if callable(getattr(fn, "cache_clear", None)):
                    found[f"{info.name}.{fn.__qualname__}"] = fn
    return found


# several ideals, twist denominators up to 11, an h off the dominant chamber,
# and non-vacuum witnesses that differ between h and -h
OFFCHAMBER_CASE = str(Path(__file__).parent / "data" / "twist-offchamber.json")

_DIMENSION = ["dimension", "--dimv1", "120", "--d0", "102", "--d13", "0", "--d23", "0"]

# (id, argv, digest): the first 16 hex digits of each output's sha256,
# pinned for the behavioural contract; a change that alters a format on
# purpose updates it
PINNED_OUTPUTS = (
    ("twist-bound", ["twist-bound", "--case", "a2x6", "--json"], "ab3cdeda34fff37d"),
    ("twist-bound-file", ["twist-bound", "--case", OFFCHAMBER_CASE, "--json"],
     "a02f4b72c48535e2"),
    ("dimension", _DIMENSION + ["--json"], "a49d16515181d955"),
    ("candidates", ["candidates", "--dim", "312", "--ratio", "12", "--fixed",
                    "E6,3 A2,1 A2,1 A2,1", "--json"], "437f1fc57ee9d9ac"),
    ("candidates-a5d4", ["candidates", "--dim", "72", "--ratio", "2", "--fixed",
                         "A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1", "--json"], "92878a7153dd25df"),
    ("candidates-a2x6", ["candidates", "--dim", "168", "--ratio", "6", "--fixed",
                         "A2,3 A2,3 A2,3 A2,3 A2,3 A2,3", "--json"], "517c320baab5b818"),
    # the witness takes the D4 outer option G2,1 six times
    ("candidates-d4-outer", ["candidates", "--dim", "168", "--ratio", "6", "--fixed",
                             "G2,1 G2,1 G2,1 G2,1 G2,1 G2,1", "--json"], "e308db0e34b3be7d"),
    ("dimension-trunc16", _DIMENSION + ["--trunc", "16", "--json"], "a49d16515181d955"),
    ("lattice", ["lattice", "--isometry", "sigma4", "--json"], "59f6fca7afca23d2"),
    ("lattice-sigma6", ["lattice", "--isometry", "sigma6", "--json"], "7b847c7f33dfb73f"),
    ("lattice-sigma2", ["lattice", "--isometry", "sigma2", "--json"], "371068a62061c345"),
    ("verify-all", ["verify-all", "--json"], "925c2e24531a2143"),
    # the text report: to_text prints the values the steps were checked with
    ("verify-all-text", ["verify-all"], "e8c5071c9c8c4295"),
    ("tables-modular", ["tables", "--which", "modular", "--json"], "797cae7e343120b7"),
    ("tables-a5.3", ["tables", "--which", "a5.3", "--json"], "e7ee86d3e553972b"),
    ("tables-g2.1", ["tables", "--which", "g2.1", "--json"], "75941706ce0140d9"),
    ("tables-a2.3", ["tables", "--which", "a2.3", "--json"], "a2bbde601259edf0"),
    ("tables-a1.1", ["tables", "--which", "a1.1", "--json"], "e363c8f29699ea1d"),
    ("tables-d4.3", ["tables", "--which", "d4.3", "--json"], "63ea36e3b6cfbcab"),
    # the smallest truncation: f exact below q^(3/2), f^n at the cusp below q
    ("dimension-trunc1", _DIMENSION + ["--trunc", "1", "--json"], "a49d16515181d955"),
)


def argparse_oracle(command: str) -> argparse.ArgumentParser:
    """An argparse parser of one command's options in `cli.COMMANDS`, taking
    no abbreviations: the oracle for what `cli.read_options` reads."""
    func, _, options = cli.COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"orbifold24 {command}", allow_abbrev=False)
    for o in options:
        if o.reader is None:
            parser.add_argument(o.flag, action="store_true")
        else:
            parser.add_argument(o.flag, type=o.reader, required=o.required,
                                default=o.default, choices=o.choices)
    parser.set_defaults(func=func)
    return parser


# values each option reads, and words that a reader, choice list or the
# option grammar refuses or that argparse reads by another rule
GOOD_VALUES = {
    **dict.fromkeys(["--dimv1", "--d0", "--d13", "--d23", "--seed"], ["0", "12", "007"]),
    "--dim": ["0", "48", "312"], "--trunc": ["1", "12", "16"], "--ratio": ["1", "7/2", "12"],
    **dict.fromkeys(["--case", "--fixed"],
                    ["e6g2", "E6,3 A2,1 A2,1 A2,1", "", "a b=c", "/nonexistent/case.json"]),
}
BAD_VALUES = [
    "x", "\uff14\uff18", "1/0", "0.5", "+1", "1_0", "sigma9", "-1", "-0", "-", "--",
    "-h", "--json", "=", "U(1)x",
]
DISTURBANCES = ["-h", "--help", "--nope", "--nope=1", "--", "x", "--json=1", "--json="]


def option_words(rng, option, flag=None):
    """One option as an argv might give it, under its own flag or `flag`:
    good or bad value, `=` or space."""
    flag = flag or option.flag
    if option.reader is None:
        return [flag]
    good = option.choices or GOOD_VALUES[option.flag]
    value = rng.choice(good if rng.random() < 0.7 else BAD_VALUES)
    return [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]


def random_argvs(count, seed="table route"):
    """Argvs of known commands drawn from every declared option, each with a
    good or bad value, with at times a repeat, an abbreviation, a dropped
    word, help or an unknown flag put in."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(count):
        name = rng.choice(list(cli.COMMANDS))
        options = cli.COMMANDS[name][2]
        picked = [o for o in options if o.required or rng.random() < 0.5]
        rng.shuffle(picked)
        words = [w for o in picked for w in option_words(rng, o)]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            kind = rng.randrange(4)
            if kind == 0:
                extra = option_words(rng, rng.choice(options))
            elif kind == 1:
                option = rng.choice(options)
                extra = option_words(rng, option, option.flag[:-1])
            elif kind == 2 and words:
                words.pop(rng.randrange(len(words)))
                continue
            else:
                extra = [rng.choice(DISTURBANCES)]
            at = rng.randrange(len(words) + 1)
            words[at:at] = extra
        argvs.append([name, *words])
    return argvs


def report_dict(rep: Report) -> dict:
    """A report as the dict whose `json.dumps(..., sort_keys=True,
    indent=2)` `Report.to_json` writes through its template."""
    return {
        "title": rep.title,
        "verdict": rep.verdict,
        "assumptions": list(rep.assumptions),
        "steps": [s._asdict() for s in rep.steps],
    }


def solve_afresh(monkeypatch) -> None:
    """Give qmodular a `laurent_table` and a `derive_dimension_formula`
    with empty caches of their own until monkeypatch undoes it: a test that
    patches a series the solve reads then sees a table and a formula
    derived from it, and leaves neither in the process-wide caches."""
    for name in ("laurent_table", "derive_dimension_formula"):
        fresh = lru_cache(maxsize=None)(getattr(qmodular, name).__wrapped__)
        monkeypatch.setattr(qmodular, name, fresh)


def patch_series_coefficient(monkeypatch, name: str, key: tuple, exp: Q, factor: Q) -> None:
    """Patch qmodular.<name> so that the series it returns for the leading
    arguments `key` (the truncation, passed last, dropped) has its q^exp
    coefficient multiplied by factor; other calls pass through.  The
    Laurent table and the formula are derived afresh."""
    solve_afresh(monkeypatch)
    original = getattr(qmodular, name)

    def patched(*args):
        s = original(*args)
        if args[:-1] != key:
            return s
        n = Q(exp) * s.denom
        return s._replace(coeffs=MappingProxyType({**s.coeffs, n: s.coeffs[n] * factor}))

    monkeypatch.setattr(qmodular, name, patched)


# --- lattice side ---------------------------------------------------------


def named_witness(isometry: str) -> Witness:
    """The witness of the one survivor of the isometry name's built-in case."""
    return cases.unique_survivor(cases.ISOMETRY_CASES[isometry])[1]


def changed_algebra(
    alg: LatticeLieAlgebra,
    pairs: Optional[Dict[int, Dict[int, Tuple[int, int]]]] = None,
    cr: Optional[Dict[int, Sequence[int]]] = None,
) -> LatticeLieAlgebra:
    """A new algebra value, alg with the `pairs` rows and `cr` rows given by
    root index replaced, through `_replace`; alg itself stays as it is."""
    pairs, cr = pairs or {}, cr or {}
    return alg._replace(
        pairs=tuple(MappingProxyType(pairs[k]) if k in pairs else row
                    for k, row in enumerate(alg.pairs)),
        cr=tuple(tuple(cr[k]) if k in cr else row for k, row in enumerate(alg.cr)),
    )


# the weight-one algebra on elements: sparse {basis index: coefficient} maps,
# index i < rank the Cartan direction i and rank + k the root vector of root k


def bracket_basis(alg: LatticeLieAlgebra, x: int, y: int) -> Dict[int, int]:
    """[x, y] of two basis indices, read from alg's cr and pair tables."""
    r = alg.rank
    if x < r:
        v = alg.cr[y - r][x] if y >= r else 0
        return {y: v} if v else {}
    if y < r:
        v = alg.cr[x - r][y]
        return {x: -v} if v else {}
    s, sgn = alg.pairs[x - r].get(y - r, (0, 0))
    if not sgn:
        return {}
    if s >= 0:
        return {r + s: sgn}
    # opposite roots: the bracket is the coroot direction
    return {i: sgn * c for i, c in enumerate(alg.root_coords[x - r]) if c}


def bracket(alg: LatticeLieAlgebra, x: Dict[int, int], y: Dict[int, int]) -> Dict[int, int]:
    """[x, y], bilinear over `bracket_basis`."""
    out: Dict[int, int] = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, ck in bracket_basis(alg, i, j).items():
                out[k] = out.get(k, 0) + ci * cj * ck
    return {k: v for k, v in out.items() if v}


def form(alg: LatticeLieAlgebra, x: Dict[int, int], y: Dict[int, int]) -> int:
    """Invariant form: <t_a|t_b> = (a|b), <e^a|e^-a> = eps(a,-a)."""
    total = 0
    gram = alg.lattice.gram
    r = alg.rank
    for i, ci in x.items():
        for j, cj in y.items():
            if i < r and j < r:
                total += ci * cj * gram[i][j]
            elif i >= r and j >= r:
                s, sgn = alg.pairs[i - r].get(j - r, (0, 0))
                if s < 0:
                    total += ci * cj * sgn
    return total


def apply(lift: LiftedAutomorphism, x: Dict[int, int]) -> Dict[int, int]:
    """The lift's image of x: the Cartan part by the isometry's matrix,
    e^(a_k) to root_phase[k] e^(a_(root_perm[k]))."""
    r = lift.algebra.rank
    out: Dict[int, int] = {}
    for i, c in x.items():
        if i < r:
            for j, m in enumerate(lift.isometry.matrix[i]):
                if m:
                    out[j] = out.get(j, 0) + c * m
        else:
            tgt = r + lift.root_perm[i - r]
            out[tgt] = out.get(tgt, 0) + c * lift.root_phase[i - r]
    return {k: v for k, v in out.items() if v}


def verify_automorphism(lift: LiftedAutomorphism) -> bool:
    """Whether the lift preserves every root-pair bracket with a nonzero
    result, and the invariant form on every opposite root pair, element by
    element through `apply`, `bracket` and `form`: the oracle of
    `latticevoa.certify_lift`."""
    alg = lift.algebra
    for k in range(alg.n_roots):
        x = {alg.rank + k: 1}
        for l, (s, _) in alg.pairs[k].items():
            y = {alg.rank + l: 1}
            if apply(lift, bracket(alg, x, y)) != bracket(alg, apply(lift, x), apply(lift, y)):
                return False
            if s < 0 and form(alg, apply(lift, x), apply(lift, y)) != form(alg, x, y):
                return False
    return True


def apply_coords(g: LatticeIsometry, c: Sequence[int]) -> Tuple[int, ...]:
    """The image of one coordinate row, summed entry by entry."""
    n = len(c)
    return tuple(
        sum(c[i] * g.matrix[i][j] for i in range(n) if c[i]) for j in range(n)
    )


def eps_coords(alg: LatticeLieAlgebra, m: Sequence[int], n: Sequence[int]) -> int:
    """eps(m, n) in {1, -1} for integral coordinate rows, from its definition
    eps(b_i, b_j) = (-1)^(b_i|b_j) for i > j and 1 otherwise."""
    gram = alg.lattice.gram
    acc = 0
    for i, mi in enumerate(m):
        if mi:
            for j in range(i):
                if n[j]:
                    acc += mi * n[j] * gram[i][j]
    return -1 if acc % 2 else 1


def eps_twist_bits(alg: LatticeLieAlgebra, g: LatticeIsometry) -> List[List[int]]:
    """Bits of eps(gx, gy) / eps(x, y) on the lattice basis, one `eps_coords`
    pair of calls per entry."""
    n = alg.rank
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    imgs = [apply_coords(g, u) for u in unit]
    return [
        [int(eps_coords(alg, imgs[i], imgs[j]) != eps_coords(alg, unit[i], unit[j]))
         for j in range(n)]
        for i in range(n)
    ]


def sum_phase_bit_expr(
    alg: LatticeLieAlgebra,
    h_bits: List[List[int]],
    coords: Sequence[int],
) -> Tuple[List[int], int]:
    """Exponent of c(x) as affine F2 expression: (basis-bit coefficients, const),
    summed term by term, the oracle for the bit masks of
    `latticevoa._phase_bit_expr`.

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


def sum_parity_pairs(lat: EvenLattice) -> Tuple[Dict[int, Tuple[int, int]], ...]:
    """`LatticeLieAlgebra.pairs` with each eps parity summed term by term:
    per component, a's row of E L E^T times b's simple-root coordinates,
    mod 2, the oracle for the popcounts of bit masks."""
    simple = [[[x // lat.inv_scale for x in row] for row in lat.basis_inv[lo:hi]]
              for lo, hi in lat.component_slices()]
    types = lat.code.components
    roots = sorted(
        (tuple(x), c, p)
        for c, t in enumerate(types)
        for p, x in enumerate(mat_mul(build_root_system(t).root_alpha_coords, simple[c]))
    )
    at = {(c, p): k for k, (_, c, p) in enumerate(roots)}
    low = [[x & 1 if j < i else 0 for j, x in enumerate(row)]
           for i, row in enumerate(lat.gram)]
    pairs = []
    for c, t in enumerate(types):
        e = simple[c]
        acs = build_root_system(t).root_alpha_coords
        odd = mat_mul(acs, mat_mul(mat_mul(e, low), transpose(e)))
        pairs.append([
            {
                at[c, q]: (
                    at[c, s] if s >= 0 else -1,
                    -1 if sum(x * y for x, y in zip(odd[p], acs[q])) & 1 else 1,
                )
                for q, s in neg
            }
            for p, neg in enumerate(_negative_pairs(t))
        ])
    return tuple(pairs[c][p] for _, c, p in roots)


def rough_lift(alg: LatticeLieAlgebra, g: LatticeIsometry) -> LiftedAutomorphism:
    """Some algebra automorphism covering g (no phase normalization)."""
    h_bits = eps_twist_bits(alg, g)
    perm = []
    phase = []
    for rc in alg.root_coords:
        perm.append(alg.root_index[apply_coords(g, rc)])
        _, const = sum_phase_bit_expr(alg, h_bits, rc)
        phase.append(-1 if const else 1)
    return LiftedAutomorphism(alg, g, tuple(phase), tuple(perm))


def compose(a: LiftedAutomorphism, b: LiftedAutomorphism) -> LiftedAutomorphism:
    """a after b (apply b first)."""
    alg = a.algebra
    n = alg.lattice.rank
    m = tuple(
        tuple(
            sum(b.isometry.matrix[i][t] * a.isometry.matrix[t][j] for t in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    perm = tuple(a.root_perm[b.root_perm[k]] for k in range(alg.n_roots))
    phase = tuple(
        b.root_phase[k] * a.root_phase[b.root_perm[k]] for k in range(alg.n_roots)
    )
    return LiftedAutomorphism(alg, LatticeIsometry.of(alg.lattice, m), phase, perm)


def is_identity(w: LiftedAutomorphism) -> bool:
    n = w.algebra.lattice.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return (
        w.isometry.matrix == ident
        and all(p == k for k, p in enumerate(w.root_perm))
        and all(s == 1 for s in w.root_phase)
    )


def eps_route_lift(alg: LatticeLieAlgebra, g: LatticeIsometry) -> LiftedAutomorphism:
    """The standard lift with the twist bits from `eps_twist_bits`, every
    image from `apply_coords` and the cube checked by `compose`."""
    n = alg.rank
    h_bits = eps_twist_bits(alg, g)
    fixed = g.fixed_basis
    rows = [sum_phase_bit_expr(alg, h_bits, f) for f in fixed]
    for i in range(n):
        gb = apply_coords(g, tuple(1 if j == i else 0 for j in range(n)))
        lin = [int(j == i) for j in range(n)]
        const = 0
        for v in (gb, apply_coords(g, gb)):
            lv, cv = sum_phase_bit_expr(alg, h_bits, v)
            lin = [a ^ b for a, b in zip(lin, lv)]
            const ^= cv
        rows.append((lin, const))
    x = _solve_f2([_odd_mask(lin) for lin, _ in rows], [c for _, c in rows], n)
    assert x is not None

    def phase_of(coords: Sequence[int]) -> int:
        lin, const = sum_phase_bit_expr(alg, h_bits, coords)
        return -1 if (const + sum(a & (x >> j) for j, a in enumerate(lin))) % 2 else 1

    lift = LiftedAutomorphism(
        alg,
        g,
        tuple(phase_of(rc) for rc in alg.root_coords),
        tuple(alg.root_index[apply_coords(g, rc)] for rc in alg.root_coords),
    )
    assert is_identity(compose(compose(lift, lift), lift))
    assert all(phase_of(f) == 1 for f in fixed)
    return lift


def lattice_roots(lat: EvenLattice) -> List[Tuple[int, ...]]:
    """All norm-2 vectors in ambient coordinates: the components' roots, each
    in its own slice, once norm bounds clear every nonzero glue coset."""
    for w in lat.code.words():
        if any(w) and coset_norm_lower_bound(lat.code, w) <= 2:
            raise InvariantError("a glue coset might contain norm-2 vectors")
    return sorted(
        (0,) * lo + ac + (0,) * (lat.rank - hi)
        for (lo, hi), t in zip(lat.component_slices(), lat.code.components)
        for ac in build_root_system(t).root_alpha_coords
    )


def numpy_lie_tables(lat: EvenLattice):
    """Oracle for `LatticeLieAlgebra`'s tables, built over every root pair at
    once with int64 products: (root_coords, root_component, cr, pairs)."""
    ambient = lattice_roots(lat)
    scaled = np.array(ambient, dtype=np.int64) @ np.array(lat.basis_inv, dtype=np.int64)
    if (scaled % lat.inv_scale).any():
        raise InvariantError("a root is outside the lattice")
    owner = [c for c, t in enumerate(lat.code.components) for _ in range(t.rank)]
    by_coords = sorted(zip(
        map(tuple, (scaled // lat.inv_scale).tolist()),
        (owner[next(i for i, x in enumerate(a) if x)] for a in ambient),
    ))
    root_coords = [c for c, _ in by_coords]
    index = {c: i for i, c in enumerate(root_coords)}
    g = np.array(lat.gram, dtype=np.int64)
    r = np.array(root_coords, dtype=np.int64)
    cr = r @ g
    ip = cr @ r.T                                   # (a_k|a_l)
    ks, ls = np.nonzero(ip < 0)
    # eps(x, y) = (-1)^(x L y), L the strict lower triangle of the gram
    odd = ((r @ np.tril(g & 1, k=-1))[ks] * r[ls]).sum(axis=1) & 1
    pairs: List[Dict[int, Tuple[int, int]]] = [{} for _ in r]
    for k, l, v, odd_kl, s in zip(
        ks.tolist(), ls.tolist(), ip[ks, ls].tolist(), odd.tolist(),
        (r[ks] + r[ls]).tolist(),
    ):
        pairs[k][l] = (index[tuple(s)] if v == -1 else -1, -1 if odd_kl else 1)
    return (tuple(root_coords), tuple(o for _, o in by_coords),
            tuple(map(tuple, cr.tolist())), tuple(pairs))


class DenseLieTables:
    """The weight-one algebra's structure constants as dense numpy tables
    over every root pair: (a|b), (b_i|a), eps(a, b), and the index of a + b
    where (a|b) = -1.  `bracket_basis` and `form` read them entry by entry."""

    def __init__(self, alg: LatticeLieAlgebra):
        self.alg = alg
        g = np.array(alg.lattice.gram, dtype=np.int64)
        r = np.array(alg.root_coords, dtype=np.int64)
        self.ip_rr = r @ g @ r.T
        self.ip_cr = g @ r.T
        low = np.tril(g & 1, k=-1)
        self.eps_rr = 1 - 2 * ((r @ low @ r.T) % 2)
        self.sum_idx: Dict[Tuple[int, int], int] = {}
        for i, ri in enumerate(r):
            js = np.flatnonzero(self.ip_rr[i] == -1)
            for j, s in zip(js.tolist(), (ri + r[js]).tolist()):
                self.sum_idx[(i, j)] = alg.root_index[tuple(s)]

    def bracket_basis(self, x: int, y: int) -> Dict[int, int]:
        r = self.alg.rank
        if x < r and y < r:
            return {}
        if x < r:
            v = int(self.ip_cr[x][y - r])
            return {y: v} if v else {}
        if y < r:
            return {i: -c for i, c in self.bracket_basis(y, x).items()}
        k, l = x - r, y - r
        ip = int(self.ip_rr[k][l])
        if ip >= 0:
            return {}
        sgn = int(self.eps_rr[k][l])
        if ip == -1:
            return {r + self.sum_idx[(k, l)]: sgn}
        return {i: sgn * c for i, c in enumerate(self.alg.root_coords[k]) if c}

    def form(self, x: int, y: int) -> int:
        r = self.alg.rank
        if x < r and y < r:
            return self.alg.lattice.gram[x][y]
        if x >= r and y >= r and self.ip_rr[x - r][y - r] == -2:
            return int(self.eps_rr[x - r][y - r])
        return 0


def inverse_lift(w: LiftedAutomorphism) -> LiftedAutomorphism:
    """The inverse automorphism: inverse isometry, inverse root permutation."""
    alg = w.algebra
    mi = tuple(tuple(int(x) for x in row) for row in inverse(w.isometry.matrix))
    perm_inv = [0] * alg.n_roots
    for k in range(alg.n_roots):
        perm_inv[w.root_perm[k]] = k
    phase = tuple(w.root_phase[perm_inv[k]] for k in range(alg.n_roots))
    return LiftedAutomorphism(
        alg,
        LatticeIsometry.of(alg.lattice, mi),
        phase,
        tuple(perm_inv),
    )


# the digit maps of the discriminant groups, typed in: the swap of the two
# nontrivial Z3 cosets of E6, and every permutation of the three of D4
TYPED_DIGIT_MAPS: Dict[SimpleType, List[Dict[int, int]]] = {
    SimpleType("E", 6): [{0: 0, 1: 1, 2: 2}, {0: 0, 1: 2, 2: 1}],
    SimpleType("D", 4): [
        {0: 0, 1: p[0], 2: p[1], 3: p[2]} for p in itertools.permutations((1, 2, 3))
    ],
}

# the group laws of the discriminant groups, typed in: Z3 on the digits of
# E6, and the Klein group on those of D4, digits 1, 2, 3 the labels 01,
# 10, 11 of Z2^2
TYPED_DIGIT_LAWS: Dict[SimpleType, Callable[[int, int], int]] = {
    SimpleType("E", 6): lambda a, b: (a + b) % 3,
    SimpleType("D", 4): lambda a, b: a ^ b,
}


def fraction_digit_weights(t: SimpleType) -> List[List[Q]]:
    """The glue-digit representatives in Fractions: 0, then the rows of the
    Fraction inverse Cartan matrix (fundamental weights in simple-root
    coordinates) at the nodes of affine mark 1, in node order, the marks
    read off the roots of `FractionRootSystem`."""
    rs = FractionRootSystem(t)
    inv = inverse(rs.simple_roots)
    return [[Q(0)] * t.rank] + [inv[i] for i in range(t.rank) if rs.marks[i + 1] == 1]


def fraction_digit_law(weights: Sequence[Sequence[Q]]) -> List[List[int]]:
    """The addition table of the digit weights (`fraction_digit_weights`) by
    congruence: a + b is the digit whose weight has the fractional parts of
    the sum's, so that the two differ by integral simple-root coordinates, a
    root lattice vector.  ValueError unless the weights' fractional parts
    are distinct."""
    index = {tuple(x % 1 for x in w): d for d, w in enumerate(weights)}
    if len(index) != len(weights):
        raise ValueError("two digit weights lie in one coset")
    return [[index[tuple((x + y) % 1 for x, y in zip(u, v))] for v in weights] for u in weights]


def permutation_first_glue_order(code: GlueCode) -> int:
    """Glue automorphism group order with the component permutation in the
    outer loop and every generator image rebuilt per (perm, digit maps),
    over the typed digit maps: a brute force when k!*|maps|^k <= 10^6, and
    otherwise a search anchored on the all-1 and all-2 words."""
    k = len(code.components)
    words = code.words()
    if not all(t == code.components[0] for t in code.components):
        raise ValueError("mixed-component codes are not supported")
    t = code.components[0]
    autos = TYPED_DIGIT_MAPS[t]
    gens = list(code.generators)

    def image(w, perm, digit_maps):
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
    all1 = tuple([1] * k)
    all2 = tuple([2] * k)
    if all1 not in words or all2 not in words:
        raise ValueError("anchored search needs the constant words in the code")
    full_support = [w for w in words if all(w)]
    count = 0
    for perm in itertools.permutations(range(k)):
        for w2img in full_support:
            for w1img in full_support:
                if any(a == b for a, b in zip(w1img, w2img)):
                    continue
                digit_maps = []
                for i in range(k):
                    third = ({1, 2, 3} - {w1img[i], w2img[i]}).pop()
                    digit_maps.append({0: 0, 1: w1img[i], 2: w2img[i], 3: third})
                if all(image(g, perm, digit_maps) in words for g in gens):
                    count += 1
    return count


def per_choice_glue_order(code: GlueCode) -> int:
    """Glue automorphism group order as the product over positions i of the
    (source, digit map) choices at i that some element fixing every
    position < i completes, each choice tested by its own depth-first search
    over the later positions, pruned by code-word prefixes, over the typed
    digit maps."""
    k = len(code.components)
    autos = TYPED_DIGIT_MAPS[code.components[0]]
    gens = code.generators
    prefixes = {w[:j] for w in code.words() for j in range(k + 1)}

    def extends(free: FrozenSet[int], images: Tuple[tuple, ...]) -> bool:
        return not free or any(extends(*c) for c in choices(free, images))

    def choices(free, images):
        for s in free:
            for m in autos:
                longer = tuple(p + (m[g[s]],) for p, g in zip(images, gens))
                if all(p in prefixes for p in longer):
                    yield free - {s}, longer

    count = 1
    for i in range(k):
        start = (frozenset(range(i, k)), tuple(g[:i] for g in gens))
        count *= sum(extends(*c) for c in choices(*start))
    return count


def dense_mat_mul(a, b) -> list:
    """The product as a plain triple loop over every entry."""
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def fraction_mat_mul(a, b) -> List[List[Q]]:
    n, k, m = len(a), len(b), len(b[0])
    out = [[Q(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if v:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] += v * b[t][j]
    return out


def fraction_slot_maps_to_isometry(
    lat: EvenLattice,
    slot_maps: Sequence[Tuple[int, List[List[int]]]],
) -> Optional[LatticeIsometry]:
    """basis * (block-permuted local maps) * basis^-1 in Fractions, with the
    inverse recomputed from the rational basis; None unless the whole
    product is integral."""
    basis = [[Q(x, lat.scale) for x in row] for row in lat.basis]
    slices = lat.component_slices()
    dim = lat.rank
    amb = [[Q(0)] * dim for _ in range(dim)]
    for c, (tgt, local) in enumerate(slot_maps):
        (a0, a1), (b0, b1) = slices[c], slices[tgt]
        for i in range(a1 - a0):
            for j in range(b1 - b0):
                amb[a0 + i][b0 + j] = Q(local[i][j])
    m = fraction_mat_mul(fraction_mat_mul(basis, amb), inverse(basis))
    out = []
    for row in m:
        if any(x.denominator != 1 for x in row):
            return None
        out.append(tuple(int(x) for x in row))
    return LatticeIsometry.of(lat, tuple(out))


def fraction_fixed_projection_norm(
    g: LatticeIsometry, u: Sequence[Q]
) -> Tuple[Coords, Q]:
    """The projection (u + uA + ... + uA^(n-1)) / n of an ambient vector u
    onto the fixed subspace of g, and its norm, in Fractions: A is g's
    ambient matrix basis^-1 M basis, with the inverse recomputed from the
    rational basis, and the norm pairs through the block-diagonal Fraction
    gram of the components."""
    lat = g.lattice
    n = g.order
    basis = [[Q(x, lat.scale) for x in row] for row in lat.basis]
    amb = fraction_mat_mul(fraction_mat_mul(inverse(basis), g.matrix), basis)
    gram = [[Q(0)] * lat.rank for _ in range(lat.rank)]
    for t, (lo, hi) in zip(lat.code.components, lat.component_slices()):
        for i, row in enumerate(fraction_gram_matrix(t)):
            gram[lo + i][lo:hi] = row
    cur = acc = list(u)
    for _ in range(n - 1):
        cur = fraction_mat_mul([cur], amb)[0]
        acc = [a + b for a, b in zip(acc, cur)]
    proj = tuple(a / n for a in acc)
    return proj, fraction_ip(gram, proj, proj)


def lattice_to_ambient(lat: EvenLattice, x: ScaledCoords) -> Coords:
    """The ambient Fraction vector of lattice coordinates given as
    (den, den * x): x basis / scale."""
    den, v = x
    return tuple(Q(a, den * lat.scale) for a in mat_mul([v], lat.basis)[0])


def _integral(m: Matrix, what: str) -> List[List[int]]:
    if any(Q(x).denominator != 1 for row in m for x in row):
        raise InvariantError(f"{what} is not integral")
    return [[int(x) for x in row] for row in m]


def carter_e6_rotation() -> List[List[int]]:
    """Carter's class 3A2 of W(E6) by hand: the simultaneous rotation of the
    orthogonal pairs (a1,a3), (a5,a6), (a2,-theta), conjugated in Fractions
    into simple-root coordinates."""
    theta_ac = theta_alpha_coords(build_root_system(SimpleType("E", 6)))
    e = [[int(i == j) for j in range(6)] for i in range(6)]
    t_rows = [e[0], e[2], e[4], e[5], e[1], [-c for c in theta_ac]]
    rot = [[0] * 6 for _ in range(6)]
    for k in range(3):
        rot[2 * k][2 * k + 1] = 1      # a -> b
        rot[2 * k + 1][2 * k] = -1     # b -> -a-b
        rot[2 * k + 1][2 * k + 1] = -1
    return _integral(
        mat_mul(mat_mul(inverse(t_rows), rot), t_rows), "conjugated E6 rotation"
    )


# Hurwitz-unit model of D4: basis (1, i, j, w) with w = (-1+i+j+k)/2 and
# form 2 Re(x conj(y)); left multiplication by w is an order-3 isometry.
_QUAT_LEFT_W = [[0, 0, 0, 1], [-1, 0, 1, -1], [0, -1, -1, 1], [-1, 0, 0, -1]]
_QUAT_GRAM = [[2, 0, 0, -1], [0, 2, 0, 1], [0, 0, 2, 1], [-1, 1, 1, 2]]


def hurwitz_d4_unit() -> List[List[int]]:
    """Left multiplication by the Hurwitz unit w, a fixed-point-free order-3
    isometry of D4 outside the Weyl group, in the simple-root coordinates of
    the first simple system found among the 24 Hurwitz roots."""

    def qip(x: Sequence[int], y: Sequence[int]) -> int:
        return sum(x[i] * _QUAT_GRAM[i][j] * y[j] for i in range(4) for j in range(4))

    qroots = [c for c in itertools.product(range(-2, 3), repeat=4) if qip(c, c) == 2]
    assert len(qroots) == 24
    # the first root with three mutually orthogonal neighbours at (a|b) = -1
    a1, a2, a3, a4 = next(
        [trio[0], r2, trio[1], trio[2]]
        for r2 in qroots
        for trio in itertools.combinations([r for r in qroots if qip(r, r2) == -1], 3)
        if all(qip(a, b) == 0 for a, b in itertools.combinations(trio, 2))
    )
    s_rows = [list(a1), list(a2), list(a3), list(a4)]
    return _integral(
        mat_mul(mat_mul(s_rows, _QUAT_LEFT_W), inverse(s_rows)), "conjugated D4 rotation"
    )


def weyl_d4_cycle() -> List[List[int]]:
    """An order-3 element of W(D4) typed out: a 3-cycle of the coordinates."""
    return [[0, 1, 0, 0], [-1, -1, 0, 0], [1, 1, 1, 0], [1, 1, 0, 1]]


# the hand-made construction of each `latticevoa._CATALOGUE` entry
CATALOGUE_ORACLES = {
    (SimpleType("E", 6), "inner", "A2,1 A2,1 A2,1"): carter_e6_rotation,
    (SimpleType("D", 4), "inner", "A1,1 A1,1 A1,1 U(1)"): weyl_d4_cycle,
    (SimpleType("D", 4), "outer", "A2,3"): hurwitz_d4_unit,
    (SimpleType("E", 6), "cycle", "E6,3"): carter_e6_rotation,
    (SimpleType("D", 4), "cycle", "D4,3"): hurwitz_d4_unit,
}


def sigma4_candidates() -> Iterator[List[Tuple[int, List[List[int]]]]]:
    """Slot maps of the hand-written sigma4 shape on six D4 components, in
    search order: one Weyl-rotation slot, two fixed-point-free slots, and a
    3-cycle of intact components whose edge maps compose to the identity."""
    phi = hurwitz_d4_unit()
    phi2 = mat_mul(phi, phi)
    psi = weyl_d4_cycle()
    psi2 = mat_mul(psi, psi)
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
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


def named_shape_isometry(lat: EvenLattice, name: str) -> LatticeIsometry:
    """The three isometries by their hand-written shapes: sigma6 rotates one
    E6 component fixed-point-freely and 3-cycles the rest; sigma2 rotates
    every D4 component fixed-point-freely, in the first orientation that
    preserves the glue; sigma4 is the first of `sigma4_candidates` that
    preserves the glue and has order 3."""
    comps = lat.code.components
    if name == "sigma6":
        assert comps == (SimpleType("E", 6),) * 4
        ident = [[int(i == j) for j in range(6)] for i in range(6)]
        # (g1,g2,g3,g4) -> (phi g1, g4, g2, g3)
        iso = _slot_maps_to_isometry(
            lat, [(0, carter_e6_rotation()), (2, ident), (3, ident), (1, ident)]
        )
        if iso is None:
            raise InvariantError("the sigma6-shaped isometry does not preserve the lattice")
        return iso
    assert comps == (SimpleType("D", 4),) * 6
    if name == "sigma2":
        phi = hurwitz_d4_unit()
        shapes = [[(c, cand) for c in range(6)] for cand in (phi, mat_mul(phi, phi))]
    else:
        shapes = sigma4_candidates()
    for slot_maps in shapes:
        iso = _slot_maps_to_isometry(lat, slot_maps)
        if iso is not None and iso.order == 3:
            return iso
    raise InvariantError(f"no {name}-shaped isometry preserves the glue")


def fraction_centralizer(
    brackets: List[List[Dict[int, int]]],
    x: Sequence[int],
    ortho: List[List[int]],
) -> Tuple[List[List[Q]], bool]:
    """ker(ad x) inside the derived part as the reduced Fraction basis, and
    whether it is abelian, with every ad matrix and product in Fractions."""
    dim = len(brackets)

    def ad(vec: Sequence[Q]) -> List[List[Q]]:
        out: List[List[Q]] = [[0] * dim for _ in range(dim)]
        for i, ci in enumerate(vec):
            if ci:
                for j, row in enumerate(brackets[i]):
                    for k, c in row.items():
                        out[j][k] += ci * c
        return out

    stack = ad([Q(v) for v in x])
    if ortho:
        stack = [row + [Q(v) for v in o] for row, o in zip(stack, ortho)]
    ker = kernel(stack)
    ad_ker = [ad(k) for k in ker]
    abelian = bool(ker) and all(
        not any(any(row) for row in fraction_mat_mul(ker[:b], ad_ker[b]))
        for b in range(1, len(ker))
    )
    return ker, abelian


def dense_rows(rows: Sequence[Dict[int, int]], dim: int) -> List[List[int]]:
    """Rows of nonzero entries {j: v} as a dense dim x dim list, 0 elsewhere."""
    return [[row.get(j, 0) for j in range(dim)] for row in rows]


def dense_table(
    fx: FixedSubalgebra,
) -> Tuple[List[List[Dict[int, int]]], List[List[int]]]:
    """fx's bracket and form tables as fresh dense dim x dim lists: entry
    (i, j) of the first is the (possibly empty) {k: c} of [basis[i],
    basis[j]], of the second the form, 0 where nothing is stored."""
    brackets = [
        [dict(row.get(j, {})) for j in range(fx.dim)] for row in fx.brackets
    ]
    return brackets, dense_rows(fx.gram, fx.dim)


def from_dense_table(
    fx: FixedSubalgebra,
    brackets: List[List[Dict[int, int]]],
    gram: List[List[int]],
) -> FixedSubalgebra:
    """A copy of fx whose rows are read off dense tables, keeping the
    nonzero entries alone, as `fixed_subalgebra` stores them."""
    return fx._replace(
        brackets=[{j: dict(e) for j, e in enumerate(row) if e} for row in brackets],
        gram=[{j: v for j, v in enumerate(row) if v} for row in gram],
    )


def full_killing(brackets: List[List[Dict[int, int]]]) -> List[List[int]]:
    """Killing form tr(ad b_i ad b_j) of a structure table over every pair
    of basis vectors, blind to any grading."""
    dim = len(brackets)
    kill = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        entries = [
            (a, b, c) for a, row in enumerate(brackets[i]) for b, c in row.items()
        ]
        for j in range(i, dim):
            bj = brackets[j]
            kill[i][j] = kill[j][i] = sum(c * bj[b].get(a, 0) for a, b, c in entries)
    return kill


# --- the fixed-subalgebra certificate, pair by pair (oracles) --------------


def weight_blocks(weights: Sequence[Weight]) -> Dict[Weight, List[int]]:
    """Basis indices of each weight, in ascending order."""
    blocks: Dict[Weight, List[int]] = {}
    for i, w in enumerate(weights):
        blocks.setdefault(w, []).append(i)
    return blocks


def pair_probe_fixed_subalgebra(lift: LiftedAutomorphism) -> FixedSubalgebra:
    """The fixed subalgebra table built pair by pair: the partners of each
    orbit sum are read off the pair-table row of its first root, and each
    pair (i, j) probes every root of orbit sum i against every root of
    orbit sum j; the Cartan part is solved by one dense product per pair.
    The oracle for the bucketed walk of `latticevoa.fixed_subalgebra`,
    with the same checks in the same order."""
    alg = lift.algebra
    r = alg.rank
    orbit_of, shapes = _component_orbits(lift)
    root_orbit = [orbit_of[c] for c in alg.root_component]
    fixed = lift.isometry.fixed_basis
    nc = len(fixed)
    fixed_weights = (
        [tuple(w) for w in mat_mul(alg.cr, transpose(fixed))]
        if nc else [()] * alg.n_roots
    )
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
    root_weights = (
        [tuple(w) for w in mat_mul(fixed_weights, transpose(combos))]
        if nc else fixed_weights
    )
    weights: List[Weight] = [(0,) * nc] * nc
    member: Dict[int, int] = {}
    seen: Set[int] = set()
    for k in range(alg.n_roots):
        if k in seen:
            continue
        k1 = lift.root_perm[k]
        if k1 == k:
            seen.add(k)
            if lift.root_phase[k] == 1:
                indices[root_orbit[k]].append(len(basis))
                member[k] = len(basis)
                basis.append({r + k: 1})
                weights.append(root_weights[k])
            continue
        k2 = lift.root_perm[k1]
        if lift.root_perm[k2] != k:
            raise InvariantError(f"root orbit of {k} is not a 3-cycle")
        seen.update({k, k1, k2})
        s0 = lift.root_phase[k]
        s1 = s0 * lift.root_phase[k1]
        if s1 * lift.root_phase[k2] != 1:
            raise InvariantError("orbit phase product must be 1")
        if not root_weights[k] == root_weights[k1] == root_weights[k2]:
            raise InvariantError("a bracket is no multiple of an orbit sum")
        indices[root_orbit[k]].append(len(basis))
        member[k] = member[k1] = member[k2] = len(basis)
        basis.append({r + k: 1, r + k1: s0, r + k2: s1})
        weights.append(root_weights[k])
    dim = len(basis)
    terms = [[]] * nc + [[(k - r, c) for k, c in b.items()] for b in basis[nc:]]
    brackets: List[Dict[int, Dict[int, int]]] = [{} for _ in basis]
    gram: List[Dict[int, int]] = [{} for _ in basis]
    solver: List[List[int]] = [[]] * r
    sden = 1
    if nc:
        ft = transpose(cartan_rows)
        inv, sden = integer_inverse(mat_mul(cartan_rows, ft))
        solver = mat_mul(ft, inv)
        for i, row in enumerate(mat_mul(mat_mul(cartan_rows, alg.lattice.gram), ft)):
            gram[i] = {j: v for j, v in enumerate(row) if v}
    for j in range(nc, dim):
        for i, w in enumerate(weights[j]):
            if w:
                brackets[i][j], brackets[j][i] = {j: w}, {j: -w}

    def put(i: int, j: int) -> None:
        roots: Dict[int, int] = {}
        opposite = []
        for a, ca in terms[i]:
            row = alg.pairs[a]
            for b, cb in terms[j]:
                if b in row:
                    s, sgn = row[b]
                    if s >= 0:
                        roots[s] = roots.get(s, 0) + ca * cb * sgn
                    else:
                        opposite.append((alg.root_coords[a], ca * cb * sgn))
        out: Dict[int, int] = {}
        for s, c in roots.items():
            p = member.get(s)
            if c and p is None:
                raise InvariantError("a bracket leaves the fixed subalgebra")
            if c and p not in out:
                lead = roots.get(terms[p][0][0], 0)
                for m, e in terms[p]:
                    if roots.get(m, 0) != lead * e:
                        raise InvariantError("a bracket is no multiple of an orbit sum")
                out[p] = lead
        cart = [sum(c * x[m] for x, c in opposite) for m in range(r)] if opposite else []
        if any(cart):
            sol = mat_mul([cart], solver)[0]
            if not sol or mat_mul([sol], cartan_rows)[0] != [sden * c for c in cart]:
                raise InvariantError("Cartan part is outside the fixed sublattice")
            if any(x % sden for x in sol):
                raise InvariantError("a fixed structure constant is not integral")
            out.update((k, x // sden) for k, x in enumerate(sol) if x)
        if out:
            brackets[i][j], brackets[j][i] = out, {k: -c for k, c in out.items()}
        form = sum(c for _, c in opposite)
        if form:
            gram[i][j] = gram[j][i] = form

    for i in range(nc, dim):
        for j in {member.get(l, -1) for l in alg.pairs[terms[i][0][0]]}:
            if j > i:
                put(i, j)
    orbits = [
        ComponentOrbit(t, length, tuple(idx))
        for (t, length), idx in zip(shapes, indices)
    ]
    return FixedSubalgebra(basis, weights, brackets, gram, orbits)


def tuple_check_grading(sub: FixedSubalgebra) -> None:
    """The grading check on weight tuples: each stored bracket entry's
    weight is compared with the sum w_i + w_j, built as a tuple."""
    weights, brackets = sub.weights, sub.brackets
    nc = len(weights[0]) if weights else 0
    for i in range(nc):
        row = brackets[i]
        for j, w in enumerate(weights):
            if row.get(j) != ({j: w[i]} if w[i] else None):
                raise InvariantError(
                    f"ad of Cartan vector {i} does not act by weight {w[i]} on {j}"
                )
    for i, row in enumerate(brackets):
        for j, entry in row.items():
            w = tuple(a + b for a, b in zip(weights[i], weights[j]))
            if any(weights[k] != w for k in entry):
                raise InvariantError(f"bracket [{i}, {j}] leaves its weight block")


def per_entry_check_orbit_blocks(sub: FixedSubalgebra) -> None:
    """The orbit-block check entry by entry, through each basis vector's
    block number."""
    block_of = [-1] * sub.dim
    for b, orbit in enumerate(sub.orbits):
        for i in orbit.indices:
            if block_of[i] >= 0:
                raise InvariantError(f"basis vector {i} lies in two orbit blocks")
            block_of[i] = b
    if -1 in block_of:
        raise InvariantError(f"basis vector {block_of.index(-1)} lies in no orbit block")
    for i, (row, form_row) in enumerate(zip(sub.brackets, sub.gram)):
        b = block_of[i]
        for j in itertools.chain(row, form_row):
            if block_of[j] != b:
                raise InvariantError(
                    f"basis vectors {i} and {j} of two orbit blocks interact"
                )
        for j, entry in row.items():
            if any(block_of[k] != b for k in entry):
                raise InvariantError(f"bracket [{i}, {j}] leaves its orbit block")


def block_probe_killing(
    brackets: List[Dict[int, Dict[int, int]]], weights: Sequence[Weight]
) -> List[Dict[int, int]]:
    """Killing form of a graded table over the (w, -w) weight pairs alone:
    each pair (i, j) sums the stored entries of row j, each looked up in
    row i."""
    dim = len(brackets)
    blocks = weight_blocks(weights)
    flat = [{a * dim + b: c for a, e in row.items() for b, c in e.items()} for row in brackets]
    swapped = [[(b * dim + a, c) for a, e in row.items() for b, c in e.items()]
               for row in brackets]
    kill: List[Dict[int, int]] = [{} for _ in brackets]
    for i, fi in enumerate(flat):
        for j in blocks.get(tuple(-x for x in weights[i]), ()):
            if j >= i:
                v = sum(c * fi.get(key, 0) for key, c in swapped[j])
                if v:
                    kill[i][j] = kill[j][i] = v
    return kill


def all_pairs_subsystem_count(ambient: SimpleType, part: SimpleType, copies: int) -> int:
    """Sets of `copies` pairwise orthogonal A1 or A2 subsystems of the
    ambient root system, through the orthogonality matrix of every pair of
    copies, each entry tested root by root."""
    rs = build_root_system(ambient)
    roots = rs.roots
    duals = {r: rs.covector(r) for r in roots}

    def ip_s(x: Tuple[int, ...], y: Tuple[int, ...]) -> int:
        return sum(a * b for a, b in zip(duals[x], y))

    long_s = 2 * rs.scale
    subs: Dict[FrozenSet[Tuple[int, ...]], Tuple[Tuple[int, ...], ...]] = {}
    if part == SimpleType("A", 1):
        for r in roots:
            subs.setdefault(frozenset({r, tuple(-c for c in r)}), (r,))
    elif part == SimpleType("A", 2):
        for a, b in itertools.combinations(roots, 2):
            if ip_s(a, b) == -rs.scale and ip_s(a, a) == ip_s(b, b) == long_s:
                ab = tuple(x + y for x, y in zip(a, b))
                hexagon = frozenset(
                    {a, b, ab} | {tuple(-x for x in v) for v in (a, b, ab)}
                )
                subs.setdefault(hexagon, (a, b))
    else:
        raise ValueError("only A1 and A2 patterns are supported")
    spans = list(subs.values())
    k = len(spans)
    ortho = [
        [all(ip_s(x, y) == 0 for x in spans[i] for y in spans[j]) for j in range(k)]
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


def root_lattice(t: SimpleType) -> EvenLattice:
    """The plain root lattice of a simple type (no glue, any determinant)."""
    n = t.rank
    unit = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return lattice_from_basis(GlueCode((t,), ()), unit, 1)


def ip_coords(alg: LatticeLieAlgebra, m: Sequence[int], n: Sequence[int]) -> int:
    """(m|n) for lattice coordinate rows, through the lattice's Gram matrix."""
    gram = alg.lattice.gram
    return sum(
        m[i] * sum(gram[i][j] * n[j] for j in range(alg.rank) if n[j])
        for i in range(alg.rank)
        if m[i]
    )


def brute_force_types_with_ratio(
    r: Q, max_dim: int
) -> Dict[int, Set[Tuple[Tuple[SimpleType, int], ...]]]:
    """For each total dimension up to max_dim, the multisets of simple
    ideals (type, integer level k) with 2 h-dual / k = r, by
    `combinations_with_replacement` over every simple type of dimension at
    most max_dim that has an integer level at r.  B2 = C2 and D3 = A3 are
    named C2 and A3.  The A1 ideals are counted apart: every other type has
    dimension at least 8, which keeps the number of parts drawn small."""
    types = [
        SimpleType(f, n)
        for f, first in (("A", 1), ("B", 3), ("C", 2), ("D", 4))
        for n in range(first, max_dim)
        if SimpleType(f, n).dim() <= max_dim
    ] + [t for t in map(SimpleType.parse, ("E6", "E7", "E8", "F4", "G2"))
         if t.dim() <= max_dim]
    level = {t: Q(2 * dual_coxeter(t)) / r for t in types}
    pool = [(t, int(k)) for t, k in level.items() if k.denominator == 1 and k > 0]
    a1 = [p for p in pool if p[0] == SimpleType("A", 1)]
    rest = sorted(p for p in pool if p[0] != SimpleType("A", 1))
    out: Dict[int, Set[Tuple[Tuple[SimpleType, int], ...]]] = {
        d: set() for d in range(max_dim + 1)
    }
    for m in range(max_dim // 8 + 1):
        # m parts of dimension at least 8 leave at most max_dim - 8 (m - 1)
        small = [p for p in rest if p[0].dim() <= max_dim - 8 * (m - 1)]
        for combo in itertools.combinations_with_replacement(small, m):
            dim = sum(t.dim() for t, _ in combo)
            if dim > max_dim:
                continue
            for copies in range((max_dim - dim) // 3 + 1 if a1 else 1):
                out[dim + 3 * copies].add(tuple(sorted(combo + tuple(a1) * copies)))
    return out


# --- float type identification (oracle for the exact certificate) ---------
#
# A generic element x of the zero-weight block, its centraliser (a Cartan
# subalgebra, solved one weight block at a time), the root functionals of
# the eigenvectors of a random Cartan element in floats, a positive system
# and its simple roots, and the Cartan matrix of each component rounded and
# classified; the claimed spectrum of gram^-1 Killing is then re-verified
# exactly.  Seeded: every seed must give the type the certificate gives.


class ResidualExceeded(Exception):
    """float_eigen verification failed: input ill-conditioned or defective."""


def float_eigen(
    a: Matrix, tol: Q = Q(1, 10**9)
) -> List[Tuple[complex, np.ndarray]]:
    """Approximate eigenpairs of a square rational matrix given as rows.

    Eigenvalues are clustered with gap threshold tol and every eigenvector is
    residual-checked against the exact matrix (evaluated in floats); callers
    must re-verify any integer or rational they round from the output.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("eigen-decomposition of non-square matrix")
    mat = np.array([[complex(x) for x in row] for row in a], dtype=complex)
    tol_f = float(tol)
    vals, vecs = np.linalg.eig(mat)
    # a defective matrix yields a (nearly) singular eigenvector basis
    if np.linalg.cond(vecs) > 1.0 / tol_f:
        raise ResidualExceeded("eigenvector basis is numerically singular")
    pairs = []
    for k in range(n):
        v = vecs[:, k]
        lam = vals[k]
        resid = np.linalg.norm(mat @ v - lam * v)
        if resid >= tol_f * max(np.linalg.norm(v), 1e-300):
            raise ResidualExceeded(f"residual exceeded: {resid}")
        pairs.append((lam, v))
    # cluster eigenvalues closer than tol to a common representative
    reps: List[complex] = []
    clustered = []
    for lam, v in pairs:
        rep = next((r for r in reps if abs(r - lam) < tol_f), None)
        if rep is None:
            reps.append(lam)
            rep = lam
        clustered.append((rep, v))
    return clustered


def ad_rows(
    brackets: List[List[Dict[int, int]]], vec: Sequence[int]
) -> List[Dict[int, int]]:
    """ad(vec) on row vectors, sparse: row j maps k to the coefficient of
    basis[k] in [vec, basis[j]]."""
    out: List[Dict[int, int]] = [{} for _ in brackets]
    for i, ci in enumerate(vec):
        if ci:
            for oj, entry in zip(out, brackets[i]):
                for k, c in entry.items():
                    oj[k] = oj.get(k, 0) + ci * c
    return out


def dense_ad(brackets: List[List[Dict[int, int]]], vec: Sequence[int]) -> List[List[int]]:
    """ad(vec) on row vectors: row j holds the coordinates of [vec, basis[j]]."""
    out = []
    for entries in ad_rows(brackets, vec):
        row = [0] * len(brackets)
        for k, c in entries.items():
            row[k] = c
        out.append(row)
    return out


def draw_generic(rng: random.Random, weights: Sequence[Weight]) -> List[int]:
    """An element x of the zero-weight block Z = c(t), coordinates in
    [-9, 9]; the t-part is redrawn while some nonzero weight vanishes on it,
    so that ad(x) is invertible on every 1-dimensional nonzero block."""
    nc = len(weights[0]) if weights else 0
    nonzero = {w for w in weights if any(w)}
    for _ in range(100):
        x = [rng.randint(-9, 9) for _ in range(nc)]
        if all(sum(a * b for a, b in zip(w, x)) for w in nonzero):
            break
    else:
        raise IdentificationError("every drawn Cartan part kills a weight")
    zero = (0,) * nc
    return x + [rng.randint(-9, 9) if w == zero else 0 for w in weights[nc:]]


def generic_centralizer(
    brackets: List[List[Dict[int, int]]],
    weights: Sequence[Weight],
    x: Sequence[int],
    ortho: List[List[int]],
) -> Tuple[List[Tuple[List[int], int]], bool]:
    """ker(ad x) inside the derived part (the columns of ortho cut it out),
    for x of weight 0, solved one weight block at a time.

    ad(x) preserves every weight block and the centre has weight 0, so the
    stack [ad(x) | ortho] is block diagonal, with the ortho columns only on
    the zero block; InvariantError when it is not.  The reduced kernel basis
    of a direct sum is the union of the blocks' reduced bases, ordered by
    free coordinate (the last nonzero entry of each vector), which is the
    basis `integer_kernel` gives for the whole stack.

    Returns that basis as primitive integer rows with their denominators,
    and whether the kernel is abelian: every bracket [k_a, k_b], summed
    over the sparse table entries of the rows' nonzero coordinates,
    vanishes.
    """
    dim = len(brackets)
    ad_x = dense_ad(brackets, x)
    zero = (0,) * (len(weights[0]) if weights else 0)
    keyed = []
    for w, block in weight_blocks(weights).items():
        stack = []
        for j in block:
            row = ad_x[j]
            sub = [row[k] for k in block]
            if sum(map(bool, row)) != sum(map(bool, sub)):
                raise InvariantError(f"ad(x) moves basis vector {j} out of its block")
            if ortho:
                if w == zero:
                    sub += ortho[j]
                elif any(ortho[j]):
                    raise InvariantError(
                        f"basis vector {j} of nonzero weight pairs with the centre"
                    )
            stack.append(sub)
        for local, den in integer_kernel(stack):
            v = [0] * dim
            for k, c in zip(block, local):
                v[k] = c
            free = max(k for k, c in zip(block, local) if c)
            keyed.append((free, v, den))
    keyed.sort(key=lambda item: item[0])
    ker = [(v, den) for _, v, den in keyed]
    support = [[(i, c) for i, c in enumerate(v) if c] for v, _ in ker]

    def commute(a: List[Tuple[int, int]], b: List[Tuple[int, int]]) -> bool:
        acc: Dict[int, int] = {}
        for i, ci in a:
            row = brackets[i]
            for j, cj in b:
                for k, c in row[j].items():
                    acc[k] = acc.get(k, 0) + ci * cj * c
        return not any(acc.values())

    abelian = bool(ker) and all(
        commute(support[a], support[b])
        for b in range(1, len(ker)) for a in range(b)
    )
    return ker, abelian


def float_identify_type(sub: FixedSubalgebra, seed: int = 7) -> SemisimpleTypeWithLevels:
    """Type and level of a reductive fixed subalgebra by float root-space
    discovery, the oracle for `latticevoa.identify_type`.

    The center, Killing form and all dimensions are exact; root-space
    discovery runs in floats and every rounded Cartan integer and level is
    re-verified by the exact spectrum of the Killing-to-invariant-form ratio
    operator gram^-1 * Killing: an ideal of type X at level k contributes
    the eigenvalue 2 h-dual(X)/k with multiplicity dim X.  The multiplicity
    of p/q is the nullity of q * Killing - p * gram, for a nonsingular gram.
    The generic element is drawn in the zero-weight block of the t-grading,
    whose blocks split the centraliser solve.
    """
    dim = sub.dim
    weights = sub.weights
    brackets, gram = dense_table(sub)
    _check_grading(sub)
    kill = dense_rows(_killing(sub.brackets), dim)

    center = [row for row, _ in integer_kernel(kill)]
    abelian = len(center)
    # the centraliser is cut to the orthogonal complement of the center
    ortho = mat_mul(gram, transpose(center)) if center else []
    if rank(gram) != dim:
        raise IdentificationError("the invariant form on the fixed algebra is singular")
    sdim = dim - abelian
    if sdim == 0:
        return SemisimpleTypeWithLevels.of([], abelian)

    rng = random.Random(seed)
    for _ in range(12):
        x = draw_generic(rng, weights)
        cartan, is_abelian = generic_centralizer(brackets, weights, x, ortho)
        if not is_abelian:
            continue
        rows = [row for row, _ in cartan]
        g_c = mat_mul(mat_mul(rows, gram), transpose(rows))
        # a Cartan subalgebra is abelian and the form is nondegenerate on
        # it; the centraliser of a non-semisimple x can be abelian alone
        if rank(g_c) == len(rows):
            break
    else:
        raise IdentificationError("no generic centralizer found in 12 draws")
    rank_ss = len(cartan)

    last_error: Optional[Exception] = None
    for _attempt in range(8):
        try:
            ideals, spectrum = float_root_pass(rng, sdim, brackets, rows, g_c)
            break
        except IdentificationError as err:
            last_error = err
    else:
        raise IdentificationError(f"float discovery failed: {last_error}")

    # exact re-verification via the spectrum of gram^-1 * killing
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


def root_functionals(
    cartan: List[Tuple[List[int], int]],
    ads: List[List[Dict[int, int]]],
    vecs: np.ndarray,
) -> np.ndarray:
    """Row i holds the root functional of eigenvector vecs[:, i]: entry k is
    v* ad(c_k) v / v* v, c_k = row / scale for the k-th (row, scale) of
    cartan, with ad(c_k) given sparse by ads[k].  One product of ad(c_k)
    with all eigenvectors per Cartan vector, each ad matrix written into
    the same array."""
    conj = vecs.conj()
    norms = (conj * vecs).sum(axis=0)
    ad_k = np.empty((len(ads[0]),) * 2, dtype=complex)
    functionals = np.empty((vecs.shape[1], len(cartan)), dtype=complex)
    for k, ((_, d), ad) in enumerate(zip(cartan, ads)):
        ad_k.fill(0)
        for j, entries in enumerate(ad):
            for col, x in entries.items():
                ad_k[j, col] = x / d
        functionals[:, k] = (conj * (ad_k @ vecs)).sum(axis=0) / norms
    return functionals


def float_root_pass(
    rng: random.Random,
    sdim: int,
    brackets: List[List[Dict[int, int]]],
    rows: List[List[int]],
    g_c: List[List[int]],
) -> Tuple[List[Tuple[SimpleType, Q]], Dict[Q, int]]:
    """One float root-space discovery attempt; raises on any inconsistency.

    rows span the Cartan subalgebra and g_c is the invariant form on them.
    """
    rank_ss = len(rows)
    # the float pass sees each Cartan vector as row / (its largest entry),
    # not row / den: a reduced row can be small at its free coordinate, and
    # row / den then has entries in the thousands, which the absolute
    # residual test of float_eigen cannot absorb.  Each entry is rounded
    # once by int true division (the scale may pass 2^53)
    cartan = [(row, max(map(abs, row))) for row in rows]
    g_c_inv = np.array([
        [float(x * cartan[i][1] * cartan[j][1]) for j, x in enumerate(row)]
        for i, row in enumerate(inverse(g_c))
    ])

    ads = [ad_rows(brackets, row) for row in rows]
    weights = [rng.randint(1, 997) for _ in cartan]
    # ad is linear: ad(sum_k w_k c_k) = sum_k w_k ad(c_k), taken over the
    # common denominator of the Cartan rows
    den = lcm(*(d for _, d in cartan))
    ad_h = [[0] * len(brackets) for _ in brackets]
    for w, (_, d), ad in zip(weights, cartan, ads):
        f = w * (den // d)
        for out, entries in zip(ad_h, ad):
            for col, x in entries.items():
                out[col] += f * x
    try:
        pairs = float_eigen([[x / den for x in row] for row in ad_h])
    except ResidualExceeded as err:
        raise IdentificationError(f"eigen discovery failed: {err}")
    nonzero = [v for lam, v in pairs if abs(lam) > 1e-7]
    if len(nonzero) != sdim - rank_ss:
        raise IdentificationError("root-space count mismatch in float pass")
    functionals = root_functionals(cartan, ads, np.array(nonzero).T)

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
    left, right = np.triu_indices(len(pos))
    sums = pos[left] + pos[right]
    simple = [f for f in positives if not (np.abs(sums - f).max(axis=1) < 1e-6).any()]
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
