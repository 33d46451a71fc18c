import math
import random
from fractions import Fraction

import pytest

from rootmean.means import (
    FLAG_CONSTANT,
    FLAG_ZERO,
    PhiKey,
    mean_values,
    phi,
)
from rootmean.powersums import materialize, power_sum_mean
from rootmean.sympoly import SymPoly, part_name

from oracles import add, evaluate, mean_parameters, mul, name_part, sub, symbol, weights


def poly_str(D, delta, rho):
    return str(phi(PhiKey(D, delta, rho)).poly)


def test_worked_quartic_examples():
    assert poly_str(4, 0, 1) == "-9 r1^4 + 18 r1^2 r2 - 4 r1 r3 - 6 r2^2 + 1 r4"
    assert poly_str(4, 0, 2) == "-8 r1^4 + 16 r1^2 r2 - 4 r1 r3 - 5 r2^2 + 1 r4"
    assert poly_str(4, 0, 3) == "-3 r1^4 + 6 r1^2 r2 - 4 r1 r3 + 1 r4"


def test_function_vanishes_on_own_roots():
    for D in range(2, 11):
        assert not phi(PhiKey(D, 0, 0)).poly


def test_antiderivative_family_cubic():
    # mean of a cubic over the roots of its antiderivative: twice the third
    # central moment polynomial
    assert poly_str(3, 0, -1) == "4 r1^3 - 6 r1 r2 + 2 r3"


def test_first_derived_mean_over_own_roots():
    assert poly_str(3, 1, 0) == "3 r1^2 - 3 r2"


def test_sextic_top_row():
    assert poly_str(6, 0, 5) == (
        "-5 r1^6 + 15 r1^4 r2 - 20 r1^3 r3 + 15 r1^2 r4 - 6 r1 r5 + 1 r6"
    )


def test_degenerate_value_orders():
    res = phi(PhiKey(4, 4, 1))
    assert res.flag == FLAG_CONSTANT and res.poly == SymPoly.term(24, {})
    res = phi(PhiKey(4, 5, 1))
    assert res.flag == FLAG_ZERO and not res.poly


def test_key_validation():
    with pytest.raises(ValueError):
        PhiKey(1, 0, 0)
    with pytest.raises(ValueError):
        PhiKey(4, 0, 4)  # empty family
    assert PhiKey(4, 0, 3).family_size == 1


def test_homogeneity_with_constants():
    # every monomial (including constant-bearing ones) has total weight D - delta
    for D, delta, rho in ((5, 0, -2), (3, -2, 1), (4, -1, -3), (6, 2, -1)):
        res = phi(PhiKey(D, delta, rho))
        assert weights(res.poly) == {D - delta}


def test_constants_present_for_negative_delta():
    poly = phi(PhiKey(3, -2, 0)).poly
    kinds = {part_name(p, 3)[0] for p in poly.symbols()}
    assert "c" in kinds


def test_mean_slope_ignores_constant_term():
    # the top parameter (the constant coefficient's symbol) never appears in
    # the mean slope over the function's own roots
    for D in range(2, 10):
        poly = phi(PhiKey(D, 1, 0)).poly
        top = D
        assert all(top not in dict(m) for m, _ in poly.terms())


def test_phi_table_sums():
    rows = [phi(PhiKey(2, 0, rho)).poly.sum_positive() for rho in range(1, -9, -1)]
    assert [str(s) for s in rows] == ["1", "0", "1", "2", "3", "4", "5", "6", "7", "8"]
    assert phi(PhiKey(4, 0, -6)).poly.sum_positive() == 1283
    assert phi(PhiKey(7, 0, -3)).poly.sum_positive() == 1913499


def test_exact_agreement_single_root_family():
    # rho = D-1: the family is the single root of the last derivative, r1
    rng = random.Random(17)
    for D in range(2, 8):
        res = phi(PhiKey(D, 0, D - 1))
        for _ in range(5):
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(D)]
            params = mean_parameters(roots)
            r1 = params[1]
            f_at_r1 = math.prod([r1 - r for r in roots], start=Fraction(1))
            assert evaluate(res.poly, params) == f_at_r1


def test_exact_agreement_two_root_family():
    # rho = D-2: the two roots are x0 +- sqrt(d); the mean over them is the
    # even part sum f^(2m)(x0) d^m / (2m)!, computable exactly
    rng = random.Random(23)
    for D in range(3, 8):
        res = phi(PhiKey(D, 0, D - 2))
        for _ in range(5):
            roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(D)]
            params = mean_parameters(roots)
            r1, r2 = params[1], params[2]
            # monic coefficients of f, ascending
            coeffs = [Fraction(1)]
            for r in roots:
                coeffs = [Fraction(0)] + coeffs
                for i in range(len(coeffs) - 1):
                    coeffs[i] -= r * coeffs[i + 1]
            x0, d = r1, r1 * r1 - r2

            def eval_deriv(order, x):
                total = Fraction(0)
                for k in range(order, D + 1):
                    falling = math.factorial(k) // math.factorial(k - order)
                    total += coeffs[k] * falling * x ** (k - order)
                return total

            expected = sum(
                eval_deriv(2 * m, x0) * d**m / math.factorial(2 * m)
                for m in range(0, D // 2 + 1)
            )
            assert evaluate(res.poly, params) == expected


def test_statistical_moments_cubic():
    # mean, variance and third central moment of a 3-family from its mean power sums
    E, M2, M3 = (power_sum_mean(j, 3) for j in (1, 2, 3))
    V = sub(M2, mul(E, E))
    W = add(M3, mul(M2, E).scale(-3), mul(E, mul(E, E)).scale(2))
    assert str(E) == "1 r1"
    assert str(V) == "2 r1^2 - 2 r2"
    assert str(W) == "2 r1^3 - 3 r1 r2 + 1 r3"
    # population variance of {1, 2, 3} is 2/3
    params = mean_parameters([Fraction(1), Fraction(2), Fraction(3)])
    assert evaluate(V, params) == Fraction(2, 3)
    assert evaluate(W, params) == 0


def chain_names(D, length):
    """Names of the first ``length`` parameters a degree-D polynomial's derived functions share."""
    return [part_name(p, D) for p in range(1, length + 1)]


def test_parameter_chain_truncation():
    # the m-th derivative of a degree-D polynomial keeps r1..r(D-m)
    for D in range(2, 9):
        full = chain_names(D, D)
        assert full == [f"r{i}" for i in range(1, D + 1)]
        for m in range(1, D):
            assert chain_names(D, D - m) == full[: D - m]
            for rho in (-1, 0, 1):
                parts = phi(PhiKey(D, m, rho)).poly.symbols()
                assert {part_name(p, D) for p in parts} <= set(full[: D - m])


def test_parameter_chain_extension():
    # the m-th antiderivative appends c1..cm with weights D+1..D+m
    for D in range(2, 9):
        for m in range(1, 4):
            chain = chain_names(D, D + m)
            assert chain[:D] == chain_names(D, D)
            assert chain[D:] == [f"c{i}" for i in range(1, m + 1)]
            assert [name_part(name, D) for name in chain[D:]] == list(range(D + 1, D + m + 1))
            # the top constant is the antiderivative's constant term, which
            # every mean of it carries
            parts = phi(PhiKey(D, -m, 0)).poly.symbols()
            assert max(parts) == D + m
            assert {part_name(p, D) for p in parts} <= set(chain)
    assert [name_part(name, 3) for name in chain_names(3, 5)] == [1, 2, 3, 4, 5]


def test_parameter_chain_is_prefix():
    # a shorter chain is a prefix of a longer one: extending twice equals
    # extending once by the sum, and truncation undoes extension
    for D in range(2, 9):
        longest = chain_names(D, D + 4)
        for length in range(1, D + 5):
            assert chain_names(D, length) == longest[:length]


def test_monomial_coefficient_sanity():
    poly = phi(PhiKey(5, 0, -1)).poly
    assert poly.coefficient(((1, 5),)) == 216


def phi_by_ring(key):
    """phi as a sum of ring products: scale * sum_j C(g,j)(-1)^(g-j) r_(g-j) mean(z^j)."""
    D, delta = key.D, key.delta
    n, deg_g = key.family_size, D - delta
    pieces = []
    for j in range(deg_g + 1):
        i = deg_g - j
        piece = materialize(j, n).scale(math.comb(deg_g, j) * (-1) ** i)
        pieces.append(mul(symbol(i), piece) if i else piece)
    return add(*pieces).scale(Fraction(math.factorial(D), math.factorial(D - delta)))


def test_phi_matches_ring_assembly():
    for D in range(2, 9):
        for delta in range(-2, D):
            for rho in range(-2, D):
                key = PhiKey(D, delta, rho)
                assert phi(key).poly == phi_by_ring(key), key


def test_mean_values_match_expansion():
    # phi(D, delta, rho) = D!/(D-delta)! * M(D - delta, D - rho), constants included
    rng = random.Random(26)
    count = 0
    for D in range(2, 10):
        for delta in range(-2, D + 1):
            for rho in range(-4, D):
                key = PhiKey(D, delta, rho)
                a, n = D - delta, key.family_size
                s = [1] + [rng.randint(-10, 10) for _ in range(max(a, n))]
                scale = Fraction(math.factorial(D), math.factorial(a))
                want = evaluate(phi(key).poly, dict(enumerate(s)))
                assert scale * mean_values(a, [n], s)[0] == want, key
                count += 1
    assert count == 688


def test_monomial_keys_are_partition_tuples():
    # every key is ((part, multiplicity), ...), parts strictly decreasing,
    # and its weight is the polynomial's
    def check(poly, weight):
        for m in poly.monomials():
            assert type(m) is tuple and all(type(pair) is tuple and len(pair) == 2 for pair in m), m
            assert all(type(p) is int and type(k) is int and p >= 1 and k >= 1 for p, k in m), m
            parts = [p for p, _ in m]
            assert parts == sorted(set(parts), reverse=True), m
            assert sum(p * k for p, k in m) == weight, m

    for D in range(2, 11):
        for delta in range(-2, D + 1):
            for rho in range(-3, D):
                check(phi(PhiKey(D, delta, rho)).poly, D - delta)
    for j in range(1, 13):
        for n in range(1, 13):
            check(power_sum_mean(j, n), j)


def test_phi_zero_where_it_lacks_the_monomial():
    def lacking(key, parts):
        assert phi(key).poly.coefficient(parts) == 0

    lacking(PhiKey(5, 0, 1), ((5, 1), (1, 1)))  # weight 6, phi is homogeneous of weight 5
    lacking(PhiKey(5, 0, 1), ())
    lacking(PhiKey(6, 0, 4), ((3, 2),))  # both parts exceed the 2-family
    lacking(PhiKey(4, 5, 1), ((1, 1),))  # delta > D: phi vanishes
    lacking(PhiKey(4, 5, 1), ())
    lacking(PhiKey(4, 4, 1), ((2, 2),))  # delta = D: only the constant survives
    assert phi(PhiKey(4, 4, 1)).poly.coefficient(()) == 24
