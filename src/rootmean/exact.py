"""Exact rationals and the integer partitions that key every expansion.

All symbolic coefficients in this package are arbitrary-precision rationals,
``fractions.Fraction``: lowest terms, positive denominator, zero stored as 0/1.

A partition is a plain tuple of (part, multiplicity) pairs with parts
strictly decreasing and every multiplicity >= 1; the empty tuple is the
partition of 0.  Its weight is sum(part * multiplicity).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)


def _descending_partitions(j: int, max_part: int):
    # descending-lex order of the part lists, [j], [j-1,1], ..., [1]*j: the
    # largest part first, and more copies of it before fewer
    if j == 0:
        yield ()
        return
    for part in range(min(j, max_part), 0, -1):
        for mult in range(j // part, 0, -1):
            for rest in _descending_partitions(j - part * mult, part - 1):
                yield ((part, mult),) + rest


@lru_cache(maxsize=None)
def partitions(j: int) -> tuple:
    """All integer partitions of j, each exactly once, in canonical order.

    Canonical order: decreasing largest part, then lexicographically
    decreasing part lists ([4] > [3,1] > [2,2] > [2,1,1] > [1,1,1,1]).
    len(partitions(j)) equals the partition function p(j).
    """
    if j < 0:
        raise ValueError("partitions requires j >= 0")
    return tuple(_descending_partitions(j, j))
