import random
from collections import Counter
from fractions import Fraction

from rootmean.exact import partitions
from rootmean.means import _term_weight
from rootmean.powersums import gw_factor
from rootmean.sympoly import SymPoly


def as_list(kappa):
    return [p for p, k in kappa for _ in range(k)]


def test_binomial_against_pascal_recurrence():
    # independent oracle: build the triangle additively; the package's
    # binomials are the quasi-binomial weights (-1)^(D-j) C(D, j)
    row = [1]
    for n in range(1, 50):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        for k in range(n + 1):
            assert _term_weight(n, 0, k) == (-1) ** (n - k) * row[k]


def test_multinomial():
    # gw_factor is (-1)^(j+|kappa|) j multinomial(|kappa|; k) / |kappa|,
    # with the multinomial taken over the multiplicities k
    for kappa, multinomial in (
        (((2, 1), (1, 1)), 2), (((1, 3),), 1), (((3, 2), (2, 1), (1, 1)), 12), (((2, 1), (1, 2)), 3),
    ):
        j, card = sum(p * k for p, k in kappa), sum(k for _, k in kappa)
        assert gw_factor(kappa) == Fraction((-1) ** (j + card) * j * multinomial, card)


def test_partitions_small():
    assert [as_list(p) for p in partitions(4)] == [
        [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1],
    ]
    assert partitions(0) == ((),)
    assert len(partitions(0)) == 1


def test_partition_counts_match_published_table():
    table = {2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42, 11: 56, 12: 77, 13: 101}
    for j, count in table.items():
        assert len(partitions(j)) == count


def test_partitions_unique_and_consistent():
    for j in range(12):
        ps = partitions(j)
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert sum(part * m for part, m in p) == j
            assert sum(m for _, m in p) == len(as_list(p))
            assert all(m >= 1 for _, m in p)


def test_partition_vector_roundtrip():
    # SymPoly.term keys a {part: exponent} mapping by the partition tuple
    p = next(iter(SymPoly.term(1, {1: 3, 4: 1, 2: 0}).monomials()))
    assert p == ((4, 1), (1, 3))
    assert sum(part * m for part, m in p) == 7
    assert sum(m for _, m in p) == 4
    assert p[0][0] == 4
    assert p in partitions(7)
    assert next(iter(SymPoly.term(1, Counter(as_list(p))).monomials())) == p


def test_rational_field_laws_randomized():
    rng = random.Random(20240817)

    def r():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(200):
        a, b, c = r(), r(), r()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rational_normalization_idempotent():
    x = Fraction(28, -42)
    assert (x.numerator, x.denominator) == (-2, 3)
    assert Fraction(x.numerator, x.denominator) == x
    assert Fraction(0, 7) == Fraction(0, 1)
