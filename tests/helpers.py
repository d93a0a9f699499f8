"""Test-only code: the brute-force oracles the closed forms are checked
against, and helpers that only the tests need.

* Twisted minima: the exhaustive tuple scan (`scan`, `feasible_tuples`,
  `scan_minimum`) against the min-plus DP in `twistbound`.
* Order-3 options: the root-filter loop (`root_filter_options`) against
  Kac's theorem in `schellekens`.
* Eta powers: series inversion, powers by repeated products and the
  product expansion of prod (1 - x^n)^m (`product_f_power_at_S`) against
  Euler's recurrence in `qmodular`.
* Invariant form: the `Fraction` fundamental-weight Gram matrix
  (`fraction_fw_gram`, `fraction_ip`) against the integer-scaled
  `RootSystem.form`.
* Directional minima: the least pairing over the Freudenthal weight
  system (`brute_force_min`) against the closed form (h+|w0.lam) in
  `rootdata.min_pairing` and `affinerep.n_min_column`.
* Shift bound: the loop over every root (`root_loop_shift_ok`) against
  the closed form (h+|theta) <= 1 in `twistbound.shift_ok`.
* Lattice side, each against its integer counterpart in `latticevoa`: the
  glue-automorphism search with the permutation in the outer loop
  (`permutation_first_glue_order`), the isometry certificate as `Fraction`
  matrix products (`fraction_slot_maps_to_isometry`), and the generic
  centraliser in `Fraction`s (`fraction_centralizer`).
* `rough_lift`: some algebra automorphism covering a lattice isometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import factorial
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from orbifold24.affinerep import typed_components_of_subsystem
from orbifold24.exactmath import inverse, kernel
from orbifold24.latticevoa import (
    EvenLattice,
    GlueCode,
    LatticeIsometry,
    LatticeLieAlgebra,
    LiftedAutomorphism,
    _disc_automorphisms,
    _phase_bit_expr,
)
from orbifold24.qmodular import PuiseuxSeries
from orbifold24.rootdata import (
    Coords,
    RootSystem,
    SemisimpleTypeWithLevels,
    SimpleType,
    Weight,
    build_root_system,
    weight_system,
)
from orbifold24.schellekens import _order3_label_vectors
from orbifold24.twistbound import CaseSpec, _CaseTables, invariant_norm, shift_ok

# --- invariant form -------------------------------------------------------


def fraction_fw_gram(rs: RootSystem) -> List[List[Q]]:
    """(L_i|L_j) = (C^-1)_ji * (a_i|a_i)/2, in Fractions."""
    n = rs.rank
    inv = inverse(rs.simple_roots)
    return [[inv[j][i] * rs.gram[i][i] / 2 for j in range(n)] for i in range(n)]


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


# every family up to rank 6, plus E7 and E8
ORACLE_TYPES = (
    [f"A{r}" for r in range(1, 7)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(3, 7)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def rational_direction(rs: RootSystem, rng) -> Weight:
    return rs.weight(
        [Q(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6))) for _ in range(rs.rank)]
    )


def nondominant_direction(rs: RootSystem, rng) -> Weight:
    while True:
        h = rational_direction(rs, rng)
        if not h.is_dominant():
            return h


# --- directional minima ---------------------------------------------------


def brute_force_min(x: Weight, lam: Weight) -> Q:
    """min of (x|mu) over every weight mu of the Freudenthal weight system.

    A zero direction pairs to 0 with every weight, so its weight system (up
    to 4 s for the E6,3 table) is not built.
    """
    if not any(x.coords):
        return Q(0)
    rs = lam.system
    dual = rs.covector(x.coords)
    least = min(
        sum(d * c for d, c in zip(dual, mu)) for mu in weight_system(lam).weights()
    )
    return Q(least, rs.scale)


# --- twisted minima -------------------------------------------------------


@dataclass(frozen=True)
class TupleBound:
    """One admissible weight per ideal with its minimal-weight bound."""

    weights: Tuple[Coords, ...]
    cw_sum: Q
    ell_min: int
    nmin_sum: Q
    bound: Q
    feasible: bool


def scan(t: _CaseTables) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Yield (index tuple, scaled cw sum, scaled n_min sum) for all tuples."""
    for idx in product(*(range(len(col)) for col in t.weights)):
        s_cw = sum(t.cw_s[i][j] for i, j in enumerate(idx))
        s_nm = sum(t.nm_s[i][j] for i, j in enumerate(idx))
        yield idx, s_cw, s_nm


def feasible_tuples(c: CaseSpec) -> List[TupleBound]:
    """All weight tuples with integral conformal-weight sum, with bounds."""
    t = _CaseTables(c)
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


def scan_minimum(c: CaseSpec) -> Tuple[Q, Tuple[Coords, ...]]:
    """Least bound over every tuple and its lexicographically least witness.

    The same exhaustive scan as `scan`, with the per-tuple sums broadcast in
    numpy so that the 10^6 tuples of a2x6 take well under a second.  A
    C-order argmin returns the first minimum in the scan's order.
    """
    t = _CaseTables(c)
    d = t.scale
    n = len(t.weights)

    def axis(i: int, col: Sequence[int]) -> np.ndarray:
        return np.array(col, dtype=np.int64).reshape(
            [-1 if k == i else 1 for k in range(n)]
        )

    s_cw = sum(axis(i, col) for i, col in enumerate(t.cw_s))
    s_nm = sum(axis(i, col) for i, col in enumerate(t.nm_s))
    nonvacuum = sum(axis(i, [int(j > 0) for j in range(len(col))])
                    for i, col in enumerate(t.weights)) > 0
    bound = np.maximum(2 * d * nonvacuum, s_cw) + s_nm + t.half_norm_s
    bound = np.where(s_cw % d == 0, bound, np.iinfo(np.int64).max)
    flat = int(np.argmin(bound))
    idx = np.unravel_index(flat, bound.shape)
    witness = tuple(t.weights[i][int(j)] for i, j in enumerate(idx))
    return Q(int(bound.flat[flat]), d), witness


def twisted_weight_lower_bound(t: TupleBound, c: CaseSpec) -> Q:
    """ell_min + sum n_min + <h|h>/2, recomputed from the case data."""
    if not shift_ok(c):
        raise ValueError("(h|alpha) >= -1 fails; the shift formula does not apply")
    norm, _, _ = invariant_norm(c)
    total = Q(t.ell_min) + norm / 2
    for a, hi, w in zip(c.ambient, c.h.components, t.weights):
        total += brute_force_min(hi, Weight(w, a.root_system()))
    return total


def root_loop_shift_ok(c: CaseSpec) -> bool:
    """True iff (h|alpha) >= -1 for every root alpha, root by root."""
    for a, hi in zip(c.ambient, c.h.components):
        rs = a.root_system()
        for root in rs.roots:
            # the integer root carries the covector, h the rational side
            if rs.ip(root, hi.coords) < -1:
                return False
    return True


# --- order-3 options ------------------------------------------------------


def root_filter_options(t: SimpleType, level: int) -> Set[SemisimpleTypeWithLevels]:
    """Inner order-3 fixed subalgebras by filtering roots per label vector.

    A root is kept iff sum_j c_j s_j = 0 mod 3 over its simple-root
    coordinates c; the kept subsystem is split and typed from root data.
    """
    rs = build_root_system(t)
    out = set()
    for s in _order3_label_vectors(t):
        retained = [
            (fw, ac)
            for fw, ac in zip(rs.roots, rs.root_alpha_coords)
            if sum(c * s[1 + j] for j, c in enumerate(ac)) % 3 == 0
        ]
        typed, abelian, _ = typed_components_of_subsystem(rs, retained, level)
        out.add(SemisimpleTypeWithLevels.of(typed, abelian))
    return out


# --- eta powers -----------------------------------------------------------


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
    lead_inv = 1 / lead if isinstance(lead, Q) else lead.inverse()
    s = PuiseuxSeries.make(
        f.denom,
        {n - v_num: c * lead_inv for n, c in f.coeffs.items() if n != v_num},
        f.trunc - v,
    )
    trunc_u = f.trunc - v
    acc = PuiseuxSeries.one(trunc_u)
    term = PuiseuxSeries.one(trunc_u)
    sv = s.valuation()
    if sv <= 0:
        raise AssertionError("expected positive valuation remainder")
    k = 0
    while k * sv < trunc_u:
        term = term * s
        acc = acc + (-term if k % 2 == 0 else term)
        k += 1
    return (acc * monomial(-v, lead_inv, trunc_u - v)).normalized()


def series_pow(f: PuiseuxSeries, n: int) -> PuiseuxSeries:
    """f^n by repeated products (of the inverse for n < 0)."""
    if n == 0:
        return PuiseuxSeries.one(f.trunc - f.valuation())
    base = f if n > 0 else series_inverse(f)
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
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
    acc = PuiseuxSeries.one(trunc)
    if m == 0:
        return acc
    if m < 0:
        return series_inverse(product_one_minus_qn_power(-m, terms))
    half = m // 2
    if half:
        piece = product_one_minus_qn_power(half, terms)
        acc = piece * piece
    if m % 2:
        base = PuiseuxSeries.one(trunc)
        for n in range(1, terms + 1):
            base = base * PuiseuxSeries.make(1, {0: Q(1), n: Q(-1)}, trunc)
        acc = acc * base
    return acc


def product_eta(scale: Q, power: int, trunc: int) -> PuiseuxSeries:
    """eta(scale*t)^power from the product, substituted and shifted."""
    prefix_exp = scale * power / 24
    terms = max(0, int((Q(trunc) - prefix_exp) / scale) + 1)
    shifted = substitute_scaled(product_one_minus_qn_power(power, terms), scale)
    pre = monomial(prefix_exp, Q(1), Q(trunc) - prefix_exp + shifted.trunc)
    return (shifted * pre).normalized()


def product_f_power_at_S(n: int, trunc: int) -> PuiseuxSeries:
    """(3^6 eta(t)^12 / eta(t/3)^12)^n by a series power of the product."""
    margin = trunc + 2 + 2 * max(abs(n), 3)
    base = (
        product_eta(Q(1), 12, margin) * product_eta(Q(1, 3), -12, margin)
    ).scale(Q(3**6))
    out = series_pow(base, n)
    return PuiseuxSeries.make(
        out.denom, dict(out.coeffs), min(out.trunc, Q(trunc))
    ).normalized()


# --- lattice side ---------------------------------------------------------


def rough_lift(alg: LatticeLieAlgebra, g: LatticeIsometry) -> LiftedAutomorphism:
    """Some algebra automorphism covering g (no phase normalization)."""
    n = alg.rank
    basis_imgs = [g.apply_coords(tuple(1 if j == i else 0 for j in range(n)))
                  for i in range(n)]

    def eps_bit(a: Sequence[int], b: Sequence[int]) -> int:
        return 0 if alg.eps_coords(a, b) == 1 else 1

    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    h_bits = [
        [eps_bit(basis_imgs[i], basis_imgs[j]) ^ eps_bit(unit[i], unit[j])
         for j in range(n)]
        for i in range(n)
    ]
    perm = []
    phase = []
    for rc in alg.root_coords:
        img = g.apply_coords(rc)
        perm.append(alg.root_index[img])
        _, const = _phase_bit_expr(alg, h_bits, rc)
        phase.append(-1 if const else 1)
    return LiftedAutomorphism(alg, g, tuple(phase), tuple(perm), f"rough({g.name})")


def permutation_first_glue_order(code: GlueCode) -> int:
    """Glue automorphism group order with the component permutation in the
    outer loop and every generator image rebuilt per (perm, digit maps)."""
    k = len(code.components)
    words = code.words()
    if not all(t == code.components[0] for t in code.components):
        raise ValueError("mixed-component codes are not supported")
    t = code.components[0]
    autos = _disc_automorphisms(t)
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
    name: str,
) -> LatticeIsometry:
    """basis * (block-permuted local maps) * basis^-1 in Fractions, with the
    inverse recomputed from the rational basis; ValueError unless the whole
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
            raise ValueError("candidate isometry does not preserve the lattice")
        out.append(tuple(int(x) for x in row))
    return LatticeIsometry(lat, tuple(out), name)


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
