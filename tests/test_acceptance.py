"""Acceptance suite: one pass/fail line per criterion.

Every expectation is pinned here with its stated tolerance (exact equality
unless noted); timing budgets are asserted where the criterion carries one.
"""

import json
import random
import time
from fractions import Fraction as Q

from orbifold24 import golden, latticevoa, qmodular, schellekens
from orbifold24.affinerep import (
    AffineAlgebra,
    enumerate_level_weights,
    inner_fixed_subalgebra,
    n_min_column,
)
from orbifold24.cases import BUILTIN_CASES, lattice_data, verify_tables
from orbifold24.rootdata import SemisimpleTypeWithLevels, SimpleType
from orbifold24.twistbound import invariant_norm, min_twisted_weight, shift_ok

from helpers import (
    bracket,
    brute_force_min,
    compose,
    fraction_coords,
    inverse_lift,
    ip_coords,
    named_witness,
    negated,
    rough_lift,
    series_add,
    series_inverse,
    series_mul,
    series_pow,
    series_terms,
)


def report(criterion: str, ok: bool) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_module_tables():
    t0 = time.monotonic()
    rep = verify_tables("g2.1")
    for fam in ("a2.3", "a1.1", "a5.3", "d4.3"):
        rep.extend(verify_tables(fam))
    elapsed = time.monotonic() - t0
    counts = [
        len(enumerate_level_weights(AffineAlgebra(SimpleType(f, r), k)).weights)
        for f, r, k in (("G", 2, 1), ("A", 2, 3), ("A", 1, 1), ("A", 5, 3), ("D", 4, 3))
    ]
    ok = rep.verdict == "pass" and counts == [2, 10, 2, 56, 24] and elapsed < 5.0
    report(f"1 (module tables, {elapsed:.2f}s)", ok)


def test_criterion_2_norms_and_shifts():
    ok = True
    for case_id in ("e6g2", "a2x6", "a5d4"):
        cf = BUILTIN_CASES[case_id]
        norm, in_2z, in_23z = invariant_norm(cf.ambient, cf.h)
        ok = ok and norm == 2 and in_2z and in_23z and shift_ok(cf.ambient, cf.h)
    report("2 (twist norms and shifts)", ok)


def test_criterion_3_twisted_minima():
    t0 = time.monotonic()
    ok = True
    for case_id in ("e6g2", "a2x6", "a5d4"):
        cf = BUILTIN_CASES[case_id]
        m_pos, wit_pos, m_neg, wit_neg = min_twisted_weight(cf.ambient, cf.h)
        vacuum = all(all(c == 0 for c in w) for w in wit_pos) and all(
            all(c == 0 for c in w) for w in wit_neg
        )
        ok = ok and m_pos == 1 and m_neg == 1 and vacuum
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(f"3 (twisted minima, {elapsed:.2f}s)", ok)


def test_criterion_4_fixed_subalgebras():
    expected = {
        "e6g2": ("E6,3 A2,1 A2,1 A2,1", 102),
        "a2x6": ("A2,3 A2,3 A2,3 A2,3 A2,3 A2,3", 48),
        "a5d4": ("A2,3 A2,3 U(1) D4,3 A1,1 A1,1 A1,1", 54),
    }
    ok = True
    for case_id, (ty, dim) in expected.items():
        cf = BUILTIN_CASES[case_id]
        fixed = inner_fixed_subalgebra(cf.ambient, cf.h)
        ok = (
            ok
            and str(fixed) == str(SemisimpleTypeWithLevels.parse(ty))
            and fixed.dim() == dim
        )
    report("4 (fixed subalgebras, abstract side)", ok)


def test_criterion_5_dimension_formula():
    t0 = time.monotonic()
    ok = qmodular.dim_tilde_v1(120, 102, 0, 0) == 312
    ok = ok and qmodular.dim_tilde_v1(48, 48, 0, 0) == 168
    ok = ok and qmodular.dim_tilde_v1(72, 54, 0, 0) == 168
    ok = ok and qmodular.derive_dimension_formula() == (4, -36, -12, 24)
    for n, exp, scaled in golden.CUSP_COEFFS:
        series = qmodular.f_power_at_S(n, 12)
        ok = ok and series.coeff(exp) * Q(3) ** (-6 * n) == scaled
    ok = ok and qmodular.fit_character(102, 0, 0)[-3] == 3**17
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(f"5 (dimension formula, {elapsed:.2f}s)", ok)


def test_criterion_6_candidate_enumeration():
    c312 = schellekens.enumerate_candidates(312, Q(12))
    ok = [str(c) for c in c312] == [
        "A11,1 D7,1 E6,1",
        "E6,1 E6,1 E6,1 E6,1",
    ]
    c168 = schellekens.enumerate_candidates(168, Q(6))
    ok = ok and len(c168) == 4
    for case_id, dim, cands in (
        ("e6g2", 312, c312),
        ("a2x6", 168, c168),
        ("a5d4", 168, c168),
    ):
        cf = BUILTIN_CASES[case_id]
        survivors = schellekens.filter_candidates(cands, cf.expected_fixed)
        ok = ok and len(survivors) == 1 and survivors[0][0] == cf.expected_target
    report("6 (candidate enumeration and filter)", ok)


def test_criterion_7_lattice_battery():
    t0 = time.monotonic()
    rep = verify_tables("lattice")
    elapsed = time.monotonic() - t0
    ok = rep.verdict == "pass" and elapsed < 180.0
    report(f"7 (lattice battery, {elapsed:.2f}s)", ok)


def test_criterion_8_property_suites():
    ok = True
    # Jacobi identity on >= 10^4 sampled triples of each lattice algebra
    rng = random.Random(2024)
    for case_id in ("e6g2", "a2x6"):
        _, alg = lattice_data(BUILTIN_CASES[case_id].expected_target)
        for _ in range(10_000):
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            x, y, z = {i: Q(1)}, {j: Q(1)}, {k: Q(1)}
            lhs = bracket(alg, x, bracket(alg, y, z))
            acc = bracket(alg, bracket(alg, x, y), z)
            for idx, c in bracket(alg, y, bracket(alg, x, z)).items():
                acc[idx] = acc.get(idx, Q(0)) + c
            ok = ok and lhs == {a: b for a, b in acc.items() if b}
    report("8a (Jacobi identity on 2 x 10^4 triples)", ok)

    # closed-form directional minima equal the Freudenthal oracle
    ok = True
    for name in ("e6g2", "a2x6", "a5d4"):
        cf = BUILTIN_CASES[name]
        for ambient, hs in ((cf.ambient, cf.h), negated(cf.ambient, cf.h)):
            for alg, h in zip(ambient, hs):
                rs = alg.root_system()
                den, pos, _ = n_min_column(alg, h)
                for lam, x in zip(enumerate_level_weights(alg).weights, pos):
                    ok = ok and Q(x, den) == brute_force_min(
                        rs, fraction_coords(h), lam
                    )
    report(
        "8b (closed-form minima match the Freudenthal oracle on every case row,"
        " both signs)",
        ok,
    )

    # identify_type invariance under 20 random lift conjugations
    nd4, alg_d4 = lattice_data(BUILTIN_CASES["a2x6"].expected_target)
    iso = latticevoa.build_isometry(nd4, named_witness("sigma2"), "sigma2")
    lift = latticevoa.standard_lift(alg_d4, iso)
    base = str(latticevoa.identify_type(latticevoa.fixed_subalgebra(lift)))
    ok = True
    rng = random.Random(77)
    for _ in range(20):
        k1, k2 = rng.randrange(alg_d4.n_roots), rng.randrange(alg_d4.n_roots)
        refl = []
        for kk in (k1, k2):
            beta = alg_d4.root_coords[kk]
            n = nd4.rank
            rows = []
            for i in range(n):
                e = [1 if j == i else 0 for j in range(n)]
                ip = ip_coords(alg_d4, e, beta)
                rows.append(tuple(e[j] - ip * beta[j] for j in range(n)))
            refl.append(
                rough_lift(
                    alg_d4, latticevoa.LatticeIsometry.of(nd4, tuple(rows))
                )
            )
        w = compose(refl[0], refl[1])
        conj = compose(compose(w, lift), inverse_lift(w))
        got = str(latticevoa.identify_type(latticevoa.fixed_subalgebra(conj)))
        ok = ok and got == base
    report("8c (type identification invariant under 20 conjugations)", ok)

    # Puiseux ring laws on randomized inputs
    ok = True
    rng = random.Random(5)
    for _ in range(30):
        def rand_series():
            coeffs = {
                rng.randint(-3, 8): Q(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(5)
            }
            return qmodular.PuiseuxSeries.make(3, coeffs, Q(4))

        a, b, c = rand_series(), rand_series(), rand_series()
        lhs, rhs = series_mul(series_mul(a, b), c), series_mul(a, series_mul(b, c))
        for exp, coeff in series_terms(lhs):
            if exp < min(lhs.trunc, rhs.trunc):
                ok = ok and coeff == rhs.coeff(exp)
        s1 = series_mul(a, series_add(b, c))
        s2 = series_add(series_mul(a, b), series_mul(a, c))
        for exp, coeff in series_terms(s1):
            if exp < min(s1.trunc, s2.trunc):
                ok = ok and coeff == s2.coeff(exp)
    report("8d (series ring laws)", ok)

    # f f^-1 = 1 and the cusp cube identity
    f = qmodular.hauptmodul_f(10)
    prod = series_mul(f, series_inverse(f))
    ok = prod.coeff(0) == 1 and all(c == 0 for e, c in series_terms(prod) if e != 0)
    cube = series_pow(qmodular.f_power_at_S(-1, 6), 3)
    direct = qmodular.f_power_at_S(-3, 6)
    bound = min(cube.trunc, direct.trunc)
    for exp, c in series_terms(cube):
        if exp < bound:
            ok = ok and c == direct.coeff(exp)
    report("8e (inverse and cube identities)", ok)


def test_criterion_9_documented_discrepancies():
    rep = verify_tables("modular")
    disc = {s.name: s for s in rep.steps if s.verdict == "discrepancy-documented"}
    ok = any("binom(12,2)" in name for name in disc)
    for step in disc.values():
        ok = ok and json.loads(step.computed) is not None and json.loads(step.expected) is not None
    from orbifold24.cases import verify_candidates

    rep2 = verify_candidates()
    disc2 = [s for s in rep2.steps if s.verdict == "discrepancy-documented"]
    ok = ok and any("C5" in s.name for s in disc2)
    # documented discrepancies must not fail the run, and never silently pass
    ok = ok and rep.verdict == "pass" and rep2.verdict == "pass"
    f = qmodular.hauptmodul_f(6)
    ok = ok and f.coeff(1) == 54 and golden.F_Q_COEFF_DISPLAYED == 66
    report("9 (documented discrepancies)", ok)
