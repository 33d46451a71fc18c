import random
from fractions import Fraction

import pytest

from rootmean.exact import PartitionVector, binomial, multinomial, partitions


def test_binomial_basic():
    assert binomial(3, 2) == 3
    assert binomial(5, 0) == 1
    assert binomial(4, 7) == 0  # k > n allowed
    assert binomial(4, -1) == 0  # k < 0 contributes nothing


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_against_pascal_recurrence():
    # independent oracle: build the triangle additively
    row = [1]
    for n in range(1, 50):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    assert binomial(49, 24) == row[24]
    for k in range(50):
        assert binomial(49, k) == row[k]


def test_pascal_identity_to_30():
    for n in range(1, 31):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_multinomial():
    assert multinomial(2, [1, 1]) == 2
    assert multinomial(3, [3]) == 1
    assert multinomial(4, [2, 1, 1]) == 12  # 4!/2! by direct evaluation


def test_multinomial_precondition():
    with pytest.raises(ValueError):
        multinomial(4, [2, 1])


def test_partitions_small():
    assert [p.as_list() for p in partitions(4)] == [
        [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1],
    ]
    assert partitions(0) == (PartitionVector(()),)
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
            assert p.j == j
            assert p.card == len(p.as_list())
            assert all(m >= 1 for _, m in p.items)


def test_partition_vector_roundtrip():
    p = PartitionVector.from_parts({1: 3, 4: 1})
    assert p.j == 7
    assert p.card == 4
    assert p.max_part == 4
    assert PartitionVector.from_list(p.as_list()) == p


def test_partition_vector_rejects_bad_parts():
    with pytest.raises(ValueError):
        PartitionVector.from_parts({0: 1})
    with pytest.raises(ValueError):
        PartitionVector.from_parts({2: -1})


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
