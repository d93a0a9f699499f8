import random
from fractions import Fraction as Q

import pytest

from orbifold24 import cases, qmodular
from orbifold24.qmodular import (
    PuiseuxSeries,
    derive_dimension_formula,
    dim_tilde_v1,
    eta_quotient,
    f_power_at_S,
    fit_character,
    hauptmodul_f,
    laurent_table,
)
from orbifold24.exactmath import InvariantError

from helpers import (
    TYPED_LAURENT_TABLE,
    euler_pentagonal,
    fraction_f_power_at_S,
    omega_trace,
    patch_series_coefficient,
    product_eta,
    product_f_power_at_S,
    series_add,
    series_inverse,
    series_mul,
    series_pow,
    series_terms,
    solve_afresh,
    substitute_scaled,
    traced_dimension_formula,
)


def test_eta_against_pentagonal_oracle():
    # P(x) / P(x^3) from Euler's pentagonal series P(x) = sum (-1)^k x^(k(3k-1)/2)
    e = eta_quotient(-1, 9)
    pent = euler_pentagonal(8)
    oracle = series_mul(pent, series_inverse(substitute_scaled(pent, Q(3))))
    for k in range(9):
        assert e[k] == oracle.coeff(Q(k))


def test_eta_power_24():
    # P(x)^24 = 1 - 24x + 252x^2 - ...; P(x^3)^-24 starts at x^3
    e = eta_quotient(-24, 6)
    assert e[0] == 1
    assert e[1] == -24
    assert e[2] == 252


def test_eta_trivial_power():
    e = eta_quotient(0, 15)
    assert e[0] == 1
    assert all(c == 0 for c in e[1:])


def test_eta_rejects_bad_truncation():
    with pytest.raises(ValueError):
        hauptmodul_f(0)
    with pytest.raises(ValueError):
        f_power_at_S(1, 0)


@pytest.mark.parametrize("trunc", range(1, 17))
def test_hauptmodul_matches_product_oracle(trunc):
    # f is reported exact below q^(trunc + 1/2); the product of the two eta
    # products is exact at least that far and must agree there
    fast = hauptmodul_f(trunc)
    assert fast.trunc == trunc + Q(1, 2)
    prod = series_mul(product_eta(Q(1), 12, trunc + 2), product_eta(Q(3), -12, trunc + 2))
    assert prod.trunc >= fast.trunc
    slow = PuiseuxSeries.make(prod.denom, prod.coeffs, fast.trunc).normalized()
    assert (fast.denom, fast.coeffs, fast.trunc) == (slow.denom, slow.coeffs, slow.trunc)


def test_hauptmodul_leading_terms():
    f = hauptmodul_f(8)
    assert f.coeff(-1) == 1
    assert f.coeff(0) == -12
    # the reference displays binom(12,2) = 66 here; the product expansion
    # gives 54, a documented discrepancy
    assert f.coeff(1) == 54


def test_hauptmodul_inverse():
    f = hauptmodul_f(8)
    prod = series_mul(f, series_inverse(f))
    assert prod.coeff(0) == 1
    assert all(c == 0 for exp, c in series_terms(prod) if exp != 0)


def test_ring_laws_randomized():
    rng = random.Random(17)

    def rand_series():
        coeffs = {
            rng.randint(-3, 8): Q(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(5)
        }
        return PuiseuxSeries.make(3, coeffs, Q(4))

    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = series_mul(series_mul(a, b), c)
        rhs = series_mul(a, series_mul(b, c))
        for exp, coeff in series_terms(lhs):
            if exp < min(lhs.trunc, rhs.trunc):
                assert coeff == rhs.coeff(exp)
        s1 = series_mul(a, series_add(b, c))
        s2 = series_add(series_mul(a, b), series_mul(a, c))
        for exp, coeff in series_terms(s1):
            if exp < min(s1.trunc, s2.trunc):
                assert coeff == s2.coeff(exp)


def test_cusp_expansion_displayed_coefficients():
    fS = f_power_at_S(1, 6)
    assert fS.coeff(Q(1, 3)) == 3**6
    assert fS.coeff(Q(2, 3)) == 12 * 3**6
    fm1 = f_power_at_S(-1, 6)
    assert fm1.coeff(Q(-1, 3)) == Q(1, 3**6)
    assert fm1.coeff(Q(0)) == Q(-12, 3**6)
    fm2 = f_power_at_S(-2, 6)
    assert fm2.coeff(Q(-2, 3)) == Q(1, 3**12)
    assert fm2.coeff(Q(-1, 3)) == Q(-24, 3**12)
    assert fm2.coeff(Q(0)) == Q(252, 3**12)
    fm3 = f_power_at_S(-3, 6)
    assert fm3.coeff(Q(-1)) == Q(1, 3**18)
    assert fm3.coeff(Q(-2, 3)) == Q(-36, 3**18)
    assert fm3.coeff(Q(-1, 3)) == Q(594, 3**18)
    assert fm3.coeff(Q(0)) == Q(36**2 - 7140, 3**18)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cusp_expansion_inverses(n):
    prod = series_mul(f_power_at_S(n, 5), f_power_at_S(-n, 5))
    assert prod.coeff(0) == 1
    assert all(c == 0 for exp, c in series_terms(prod) if exp != 0)


def test_cusp_cube_identity():
    cube = series_pow(f_power_at_S(-1, 5), 3)
    direct = f_power_at_S(-3, 5)
    bound = min(cube.trunc, direct.trunc)
    for exp, c in series_terms(cube):
        if exp < bound:
            assert c == direct.coeff(exp)
    for exp, c in series_terms(direct):
        if exp < bound:
            assert c == cube.coeff(exp)


@pytest.mark.parametrize("trunc", [4, 6])
@pytest.mark.parametrize("n", [1, -1, -2, -3])
def test_f_power_at_S_matches_product_oracle(n, trunc):
    fast = f_power_at_S(n, trunc)
    slow = product_f_power_at_S(n, trunc)
    assert (fast.denom, fast.coeffs, fast.trunc) == (slow.denom, slow.coeffs, slow.trunc)


@pytest.mark.parametrize("trunc", [12, 14, 16])
@pytest.mark.parametrize("n", [1, -1, -2, -3])
def test_f_power_at_S_matches_fraction_accumulation(n, trunc):
    fast = f_power_at_S(n, trunc)
    slow = fraction_f_power_at_S(n, trunc)
    assert (fast.denom, fast.coeffs, fast.trunc) == (slow.denom, slow.coeffs, slow.trunc)


def test_omega_trace_kills_fractional_exponents():
    for n in (1, -1, -2, -3):
        for trunc in (4, 12, 16):
            s = f_power_at_S(n, trunc)
            traced = omega_trace(s)
            integral = PuiseuxSeries.make(
                s.denom, {k: c for k, c in s.coeffs.items() if k % s.denom == 0}, s.trunc
            ).normalized()
            assert (traced.denom, traced.coeffs, traced.trunc) == (
                integral.denom, integral.coeffs, integral.trunc
            )
            assert traced.coeff(0) == s.coeff(0)


def test_fit_character_values():
    fit = fit_character(102, 0, 0)
    assert fit[1] == 1
    assert fit[0] == 114
    assert fit[-2] == 12 * 3**12
    assert fit[-1] == 90 * 3**6
    assert fit[-3] == 3**17
    assert fit_character(0, 0, 0)[0] == 12


@pytest.mark.parametrize("trunc", range(1, 25))
def test_solved_table_matches_the_typed_table(monkeypatch, trunc):
    assert laurent_table() == TYPED_LAURENT_TABLE
    # the solve reads no coefficient that a longer expansion changes: from
    # series expanded to any truncation it gives the same table and formula
    monkeypatch.setattr(qmodular, "TRUNC", trunc)
    solve_afresh(monkeypatch)
    assert qmodular.laurent_table() == TYPED_LAURENT_TABLE
    assert qmodular.derive_dimension_formula() == (4, -36, -12, 24)


def test_fit_character_checks_leading_coefficient(monkeypatch):
    # an explicit check, not an assert: it must also hold under python -O.
    # Halving the q^-1 coefficient of f makes the solved c_1 = 1 / [q^-1]f 2
    patch_series_coefficient(monkeypatch, "hauptmodul_f", (), -1, Q(1, 2))
    with pytest.raises(InvariantError, match="^leading Laurent coefficient is 2, not 1$"):
        fit_character(1, 0, 0)


def test_solve_rejects_a_zero_pivot(monkeypatch):
    patch_series_coefficient(monkeypatch, "f_power_at_S", (-2,), Q(-2, 3), 0)
    with pytest.raises(InvariantError, match="^zero pivot: the leading coefficient of f\\^-2 is 0$"):
        qmodular.laurent_table()


def test_dim_tilde_v1_cases():
    assert dim_tilde_v1(120, 102, 0, 0) == 312
    assert dim_tilde_v1(48, 48, 0, 0) == 168
    assert dim_tilde_v1(72, 54, 0, 0) == 168


def test_dim_tilde_v1_rejects_negative():
    with pytest.raises(ValueError):
        dim_tilde_v1(1000, 0, 0, 0)


@pytest.mark.parametrize("trunc", range(1, 25))
def test_derived_formula_coefficients(trunc):
    # the one derivation against the trace oracle at every truncation
    derived = derive_dimension_formula()
    assert derived == (4, -36, -12, 24)
    assert derived == traced_dimension_formula(trunc)


def test_derived_constant_reads_the_constant_term_of_f(monkeypatch):
    # the solve makes the constant term c0 + c1 [q^0]f of Z(t) equal d0
    # whatever [q^0]f is, so 5 more there moves c0, and the constant term of
    # the three shifted Z(S T^i t), by -5 each: the derived constant by -15
    f = hauptmodul_f(qmodular.TRUNC)
    shifted = PuiseuxSeries(f.denom, {**f.coeffs, 0: f.coeff(0) + 5}, f.trunc)
    solve_afresh(monkeypatch)
    monkeypatch.setattr(qmodular, "hauptmodul_f", lambda trunc: shifted)
    assert qmodular.derive_dimension_formula() == (4, -36, -12, 9)


def test_formula_degenerates_without_twisted_dims():
    a, b, c, d = derive_dimension_formula()
    # with twisted dimensions zero the formula is 4 d0 + 24
    for d0, dim_v1, expect in ((102, 120, 312), (48, 48, 168), (54, 72, 168)):
        assert a * d0 + d - dim_v1 == expect
        assert b * 0 + c * 0 == 0


def test_modular_section_shares_the_derivation_series():
    # the modular section reads f and the cusp series with the arguments the
    # derivation passes, so each series is one cache entry, built once
    for fn in (hauptmodul_f, f_power_at_S, laurent_table, derive_dimension_formula):
        fn.cache_clear()
    cases.verify_modular()
    assert hauptmodul_f.cache_info().currsize == 1
    assert f_power_at_S.cache_info().currsize == 4
    assert laurent_table.cache_info().currsize == 1
    assert derive_dimension_formula.cache_info().currsize == 1
