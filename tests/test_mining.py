import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootmean._aberth_py import horner
from rootmean.exact import PartitionVector
from rootmean.means import PhiKey, mean_values, phi
from rootmean.mining import (
    BfileComparison,
    FitError,
    MinedSequence,
    _MODP_PRIMES,
    StructuralFormError,
    _divisors,
    _irreducible_mod_p,
    compare_with_bfile,
    extract_g,
    fit_h,
    fit_polynomial,
    interpolate,
    is_irreducible_int,
    mine_Q_and_norlund,
    read_bfile,
    structure_sweep,
    t_series,
    top_parameter_coefficient,
)
from rootmean.powersums import power_sum_mean

import oracles


def value(poly, x):
    """An ascending coefficient tuple evaluated at x."""
    return horner(poly[::-1], x)


def leading_coefficient(D, rho):
    """Coefficient of r1^D in phi(D, 0, rho): its value at r_1 = 1, every other parameter 0."""
    n = D - rho
    point = [1, 1] + [0] * (max(D, n) - 1)
    return mean_values(D, [n], point)[0]


def test_leading_coefficient_examples():
    assert leading_coefficient(4, 1) == -9
    assert leading_coefficient(4, 0) == 0
    assert leading_coefficient(5, -1) == 216


def test_leading_coefficient_closed_form():
    # coefficient of r1^D is exactly -rho * n^(D-2) with n = D - rho
    for D in range(2, 9):
        for n in range(1, 11):
            rho = D - n
            assert leading_coefficient(D, rho) == Fraction(-rho) * n ** (D - 2)


def test_closed_form_oracles_to_the_degree_cap():
    # oracles for the extractors, which read the engine's own formula
    for D in range(2, 31):
        for n in range(1, D + 4):
            rho = D - n
            assert top_parameter_coefficient(D, rho) == (-1) ** D * (1 - math.comb(n - 1, D - 1))
            assert leading_coefficient(D, rho) == -rho * n ** (D - 2)


def test_top_parameter_coefficient_matches_expansion():
    for D in range(2, 10):
        for rho in range(-3, D):
            want = phi(PhiKey(D, 0, rho)).poly.coefficient(PartitionVector.from_parts({D: 1}))
            assert top_parameter_coefficient(D, rho) == want, (D, rho)


def test_top_parameter_examples():
    # coefficient of the single top-order parameter
    assert top_parameter_coefficient(4, 3) == 1
    assert top_parameter_coefficient(4, 0) == 0
    assert top_parameter_coefficient(4, -1) == -3
    assert top_parameter_coefficient(5, -1) == 4


def test_interpolation_and_holdout():
    pts = [(Fraction(x), Fraction(x**3 - x + 2)) for x in range(8)]
    poly = fit_polynomial(pts)
    assert poly == (Fraction(2), Fraction(-1), Fraction(0), Fraction(1))
    bad = pts[:-1] + [(Fraction(7), Fraction(999))]
    with pytest.raises(FitError):
        fit_polynomial(bad)
    with pytest.raises(FitError):
        fit_polynomial(pts[:3])  # too few points to fit and hold out
    with pytest.raises(FitError):
        interpolate([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))])


def _leading_h(D):
    # n = 1..D+1 to fit, then the held-out points n = D+2 and D+3
    return fit_polynomial([(Fraction(n), leading_coefficient(D, D - n)) for n in range(1, D + 4)])


def test_fit_h_leading_extractor_reproduces_printed_values():
    h = _leading_h(4)
    assert [value(h, n) for n in range(1, 7)] == [-3, -8, -9, 0, 25, 72]
    assert value(h, 7) == 147  # held-out row


def test_fit_h_leading_extractor_degree2():
    h = _leading_h(2)
    assert value(h, 2) == 0  # vanishes where the family is the function's own roots
    assert value(h, 1) == -1


def test_extract_g_quartic():
    h = fit_h(4)
    gx = extract_g(4, h)
    assert gx.chi == 0 and gx.g == (3, -2, 1)  # n^2 - 2n + 3
    assert all(type(c) is int for c in gx.g)
    assert gx.irreducible is True


def test_extract_g_rejects_wrong_forms():
    # h = (1/6) * (4 - n) * g at D = 4 (chi = 0), with a g of each wrong form planted
    prefactor = [Fraction(4, 6), Fraction(-1, 6)]
    h = fit_h(4)
    assert tuple(_times(prefactor, [3, -2, 1])) == h
    planted = {
        "non-exact division": (h[0] + 1, *h[1:]),
        "quotient degree 3": tuple(_times(prefactor, [3, -2, 0, 1])),
        "not monic": tuple(_times(prefactor, [3, -2, 2])),
        "non-integer": tuple(_times(prefactor, [Fraction(1, 2), -2, 1])),
    }
    for reason, bad in planted.items():
        with pytest.raises(StructuralFormError, match=reason):
            extract_g(4, bad)


def test_chi_parity_and_degrees():
    g5 = extract_g(5, fit_h(5))
    g6 = extract_g(6, fit_h(6))
    assert g5.chi == 1 and g6.chi == 0
    assert len(g5.g) - 1 == 2 and len(g6.g) - 1 == 4


def test_structure_sweep_roundtrip():
    for D, gx in structure_sweep(12).items():
        # the fitted points reproduce through the structural factorization
        const = Fraction((-1) ** D * D, math.factorial(D))
        for n in range(1, D + 4):
            rho = Fraction(D - n)
            assert top_parameter_coefficient(D, D - n) == const * rho * n ** gx.chi * value(gx.g, n)
        assert gx.g[D - 2 - gx.chi] == 1  # monic: t_2(D) = 1


def test_t_series_values():
    extractions = structure_sweep(16)
    t2 = t_series(2, extractions)
    assert t2 == (Fraction(1),)
    t3 = t_series(3, extractions)
    assert value(t3, 3) == 0  # odd-k vanishing at D = k
    assert [value(t3, D) for D in (4, 5, 6)] == [-2, -5, -9]


def test_t_series_reproduces_g_coefficients():
    # recompute g independently at each degree and compare (k = 4)
    t4 = t_series(4, structure_sweep(14))
    for D in range(4, 15):
        gx = extract_g(D, fit_h(D))
        assert value(t4, D) == gx.g[D - 4 - gx.chi]


def test_mine_sequences_integrality_and_stability():
    q_a, lead_a = mine_Q_and_norlund(6, structure_sweep(18))
    q_b, lead_b = mine_Q_and_norlund(6, structure_sweep(20))
    # values stable once the fit is overdetermined
    assert q_a.values == q_b.values
    assert lead_a.values == lead_b.values
    assert q_a.values[0] == 1  # monic t_2
    assert all(isinstance(v, int) for v in q_a.values + lead_a.values)


def _primes_dividing(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_lcd_is_the_least_clearing_denominator():
    # mine_Q_and_norlund reads Q_k * t_k as an integer polynomial without a check
    extractions = structure_sweep(24)
    for k in range(2, 9):
        tk = t_series(k, extractions)
        q = math.lcm(*(c.denominator for c in tk))
        assert all((q * c).denominator == 1 for c in tk), k
        for p in _primes_dividing(q):
            assert any((q // p * c).denominator != 1 for c in tk), (k, p)


def test_irreducibility_checks():
    assert is_irreducible_int([1, 0, 1]) is True  # x^2 + 1
    assert is_irreducible_int([-1, 0, 1]) is False  # (x-1)(x+1)
    # product of two irreducible quadratics without an integer root: undecided
    prod = [2, 2, 3, 1, 1]  # (x^2 + x + 1)(x^2 + 2)
    assert is_irreducible_int(prod) is None
    assert is_irreducible_int([7, 1]) is True  # linear
    # (x - 7)(x^2 + 10^13): only the small-root scan settles it, g(0) is past the divisor cap
    big = [-7 * 10**13, 10**13, -7, 1]
    assert is_irreducible_int(big) is False


def _times(a, b):
    """Product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_irreducibility_is_never_claimed_for_a_product():
    """A product may be left undecided (None) but is never called irreducible.

    (x - 100)(x^2 + 10^13) is left undecided: its integer root 100 lies
    outside the -64..64 window that the root scan falls back to once |g(0)|
    is above ``_DIVISOR_CAP``.  g_17 of the default ``mine`` sweep is
    undecided too, and |g_17(0)| = 4,160,840,140,800 is above the cap, so
    its verdict that no integer root exists rests on that window alone.
    """
    planted = [
        _times([1, 0, 1], [1, 1, 0, 1]),  # (x^2 + 1)(x^3 + x + 1)
        _times([1, 1, 1], [1, 0, -1, 1]),  # x^5 + x + 1 = (x^2 + x + 1)(x^3 - x^2 + 1)
        _times([1, 1, 1], [2, 0, 1]),  # (x^2 + x + 1)(x^2 + 2)
        _times([-100, 1], [10**13, 0, 1]),  # (x - 100)(x^2 + 10^13)
    ]
    for coeffs in planted:
        assert is_irreducible_int(coeffs) is not True, coeffs
    rng = random.Random(0)
    for _ in range(400):
        a, b = ([*(rng.randint(-6, 6) for _ in range(rng.randint(1, 4))), 1] for _ in range(2))
        verdict = is_irreducible_int(_times(a, b))
        assert verdict is not True, (a, b)
        if len(a) == 2 or len(b) == 2:  # a monic linear factor is a small integer root
            assert verdict is False, (a, b)


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,top", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_irreducible_mod_p_counts_match_gauss(p, top):
    # the number of monic irreducibles of degree M over GF(p) is
    # (1/M) sum_{d | M} mu(d) p^(M/d)
    for M in range(1, top + 1):
        count = sum(
            _irreducible_mod_p([*low, 1], p) for low in itertools.product(range(p), repeat=M)
        )
        gauss = sum(_mobius(d) * p ** (M // d) for d in range(1, M + 1) if M % d == 0) // M
        assert count == gauss, (p, M)


def _monic(degree, coefficient):
    return st.lists(coefficient, min_size=degree, max_size=degree).map(lambda low: [*low, 1])


SMALL_OR_WIDE = st.one_of(st.integers(-3, 3), st.integers(-10**18, 10**18))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40).flatmap(lambda m: _monic(m, SMALL_OR_WIDE)))
def test_packed_ben_or_matches_list_arithmetic_property(g):
    for p in _MODP_PRIMES:
        assert _irreducible_mod_p(g, p) == oracles.irreducible_mod_p(g, p), p


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20).flatmap(lambda m: _monic(m, SMALL_OR_WIDE)),
       st.integers(1, 20).flatmap(lambda m: _monic(m, SMALL_OR_WIDE)))
def test_packed_ben_or_never_passes_a_planted_product_property(a, b):
    g = _times(a, b)
    for p in _MODP_PRIMES:
        assert _irreducible_mod_p(g, p) is oracles.irreducible_mod_p(g, p) is False, p


def test_irreducibility_verdicts_match_the_oracle_to_the_degree_cap():
    for D, gx in structure_sweep(30).items():
        assert gx.irreducible is oracles.is_irreducible_int(list(gx.g), _MODP_PRIMES), D


NODE = st.one_of(st.integers(-100, 100).map(Fraction), st.fractions(-100, 100, max_denominator=36))
VALUE = st.one_of(st.integers(-10**20, 10**20), st.fractions(max_denominator=10**15))


@settings(max_examples=200, deadline=None)
@given(st.lists(NODE, unique=True, max_size=12).flatmap(
    lambda xs: st.lists(VALUE, min_size=len(xs), max_size=len(xs)).map(lambda ys: list(zip(xs, ys)))))
def test_integer_interpolation_matches_fraction_divided_differences_property(points):
    assert interpolate(points) == tuple(oracles.interpolate(points))
    if points:
        with pytest.raises(FitError):
            interpolate([*points, (points[0][0], points[0][1] + 1)])


PRIMES = (2, 3, 5, 97, 65537, 999983, 1000003, 3162277, 2147483647, 999999999989, 9999999999971)
SMOOTH = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=45).map(math.prod)
DIVISOR_INPUTS = st.one_of(
    st.just(1),
    st.sampled_from(PRIMES),
    st.sampled_from(PRIMES).map(lambda q: q * q),  # 3162277^2 is just below 10^13
    st.integers(1, 3_162_277).map(lambda r: r * r),
    SMOOTH,
    st.tuples(st.sampled_from(PRIMES), st.sampled_from(PRIMES), SMOOTH).map(math.prod),
    st.integers(1, 10**13),
).filter(lambda n: n <= 10**13)


@settings(max_examples=40, deadline=None)
@given(DIVISOR_INPUTS, st.sampled_from((1, -1)))
def test_divisors_from_a_factorisation_match_trial_division_property(n, sign):
    assert _divisors(sign * n) == oracles.divisors(n)


def test_per_monomial_sequence_third_order_pair():
    # coefficient of r1^l r3^2 in the (l+6)-degree expansion over a 3-family:
    # j(j-5)/18 * 3^(j-5)
    for j in range(6, 13):
        ell = j - 6
        mono = PartitionVector.from_parts({1: ell, 3: 2})
        got = power_sum_mean(j, 3).coefficient(mono)
        assert got == Fraction(j * (j - 5), 18) * 3 ** (j - 5)


def test_per_monomial_sequence_second_order_on_four_family():
    # coefficient of r1^l r2 over a 4-family: magnitude 6 j 4^(j-3), sign -1
    for j in range(2, 9):
        ell = j - 2
        mono = PartitionVector.from_parts({1: ell, 2: 1})
        got = power_sum_mean(j, 4).coefficient(mono)
        assert got == -Fraction(6 * j) * Fraction(4) ** (j - 3)


def test_bfile_reader(tmp_path):
    path = tmp_path / "b000.txt"
    path.write_text("# comment\n1 10\n2 20\n\n3 -30\n", encoding="utf-8")
    assert read_bfile(path) == {1: 10, 2: 20, 3: -30}


def test_bfile_comparator_alignment(tmp_path):
    seq = MinedSequence("test", 2, (1, 2, 24, 48), {})
    # b-file indexed from 1 with the same values: offset -1
    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 2\n3 24\n4 48\n", encoding="utf-8")
    cmp_res = compare_with_bfile(seq, read_bfile(path))
    assert cmp_res.aligned and cmp_res.offset == -1 and not cmp_res.absolute_values


def test_bfile_comparator_absolute_mode(tmp_path):
    seq = MinedSequence("test", 2, (1, -1, 3, -1), {})
    path = tmp_path / "b.txt"
    path.write_text("2 1\n3 1\n4 3\n5 1\n", encoding="utf-8")
    cmp_res = compare_with_bfile(seq, read_bfile(path))
    assert cmp_res.aligned and cmp_res.absolute_values


def test_bfile_comparator_reports_mismatches(tmp_path):
    seq = MinedSequence("test", 2, (1, 2, 25), {})
    path = tmp_path / "b.txt"
    path.write_text("2 1\n3 2\n4 24\n", encoding="utf-8")
    cmp_res = compare_with_bfile(seq, read_bfile(path))
    assert not cmp_res.aligned
    assert cmp_res.matched == 2
    assert cmp_res.mismatches


def test_mined_sequence_json():
    seq = MinedSequence("lcd-of-t_k", 2, (1, 2, 24), {"d_sweep": 20})
    blob = seq.to_json()
    assert blob["values"] == ["1", "2", "24"]
    assert blob["provenance"]["d_sweep"] == 20
