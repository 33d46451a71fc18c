import random
from fractions import Fraction

import pytest

from rootmean.exact import partitions
from rootmean.powersums import gw_coefficient, gw_factor, materialize, power_sum_mean
from rootmean.sympoly import SymPoly

from oracles import mul, newton_residual, symbol, weights


def test_gw_factor_is_an_integer():
    # relations.certify_relations divides j * multinomial by |kappa| exactly,
    # which relies on this same integrality
    for j in range(1, 21):
        for k in partitions(j):
            assert gw_factor(k).denominator == 1, k


def test_gw_coefficient_examples():
    assert gw_coefficient(((1, 1),), 3) == 1
    assert gw_coefficient(((2, 1), (1, 1)), 3) == -9
    assert gw_coefficient(((2, 2),), 2) == 1
    # degree 7 coefficient of r1 r3^2 for a 3-family: j(j-5)/18 * 3^(j-5) at j=7
    assert gw_coefficient(((3, 2), (1, 1)), 3) == 7


def test_gw_coefficient_prunes_large_parts():
    assert gw_coefficient(((3, 1),), 2) == 0
    assert gw_coefficient(((4, 1), (1, 1)), 3) == 0


def test_gw_coefficient_preconditions():
    with pytest.raises(ValueError):
        gw_coefficient((), 3)
    with pytest.raises(ValueError):
        gw_coefficient(((1, 1),), 0)


def test_power_sum_mean_printed_rows():
    p23 = power_sum_mean(2, 3)
    assert str(p23) == "3 r1^2 - 2 r2"
    for n in (1, 2, 5):
        assert power_sum_mean(1, n) == symbol(1)
    p44 = power_sum_mean(4, 4)
    assert str(p44) == "64 r1^4 - 96 r1^2 r2 + 16 r1 r3 + 18 r2^2 - 1 r4"
    p62 = power_sum_mean(6, 2)
    assert str(p62) == "32 r1^6 - 48 r1^4 r2 + 18 r1^2 r2^2 - 1 r2^3"


def test_homogeneity():
    for n in range(1, 6):
        for j in range(1, 9):
            assert weights(power_sum_mean(j, n)) == {j}


def test_parts_above_family_size_absent():
    p = power_sum_mean(5, 2)
    for m, _ in p.terms():
        assert all(part <= 2 for part, _ in m)


def test_sum_positive_column():
    assert power_sum_mean(7, 3).sum_positive() == 2080
    assert power_sum_mean(7, 6).sum_positive() == 201748


def test_newton_residual_zero():
    assert newton_residual(1, [Fraction(5)]) == 0
    assert newton_residual(3, [Fraction(1), Fraction(2), Fraction(3)]) == 0
    rng = random.Random(3)
    for n in range(1, 11):
        values = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n)]
        assert newton_residual(n, values) == 0


def test_newton_residual_precondition():
    with pytest.raises(ValueError):
        newton_residual(3, [Fraction(1)])


def test_single_element_family_powers():
    for j in range(1, 6):
        p = power_sum_mean(j, 1)
        assert p == SymPoly.term(1, [(1, j)])


def test_coefficient_lookup():
    p = power_sum_mean(4, 3)
    m = ((2, 2),)
    assert p.coefficient(m) == 6


def test_materialize_coeff_and_times_match_ring_product():
    coeff = Fraction(-7, 3)
    for n in range(1, 7):
        for j in range(9):
            base = materialize(j, n)
            for times in range(n + 3):  # parts past n: the parameter factor may be a constant
                want = mul(SymPoly.term(coeff, {}), base)
                if times:
                    want = mul(symbol(times), want)
                assert materialize(j, n, coeff, times) == want
