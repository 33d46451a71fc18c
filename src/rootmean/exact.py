"""Exact rationals and the integer partitions that key every expansion.

All symbolic coefficients in this package are arbitrary-precision rationals,
``fractions.Fraction``: lowest terms, positive denominator, zero stored as 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)


@dataclass(frozen=True)
class PartitionVector:
    """An integer partition stored as (part -> multiplicity) pairs.

    ``items`` holds (part, multiplicity) pairs sorted by decreasing part size,
    every multiplicity >= 1.  ``j`` is the weighted sum (the number being
    partitioned) and ``card`` the total number of parts.
    """

    items: tuple  # ((part, mult), ...) with parts strictly decreasing

    @classmethod
    def from_parts(cls, parts: dict) -> "PartitionVector":
        items = tuple(sorted(((i, k) for i, k in parts.items() if k), reverse=True))
        if any(i < 1 or k < 1 for i, k in items):
            raise ValueError(f"invalid partition parts {parts!r}")
        return cls(items)

    @classmethod
    def from_list(cls, parts_list) -> "PartitionVector":
        counts: dict = {}
        for p in parts_list:
            counts[p] = counts.get(p, 0) + 1
        return cls.from_parts(counts)

    @property
    def j(self) -> int:
        return sum(i * k for i, k in self.items)

    @property
    def card(self) -> int:
        return sum(k for _, k in self.items)

    @property
    def max_part(self) -> int:
        return self.items[0][0] if self.items else 0

    def as_list(self):
        out = []
        for i, k in self.items:
            out.extend([i] * k)
        return out

    def __repr__(self):
        if not self.items:
            return "PartitionVector(())"
        return "Partition[" + "+".join(str(p) for p in self.as_list()) + "]"


def _descending_partitions(j: int, max_part: int):
    # part lists in descending-lex order: [j], [j-1,1], ..., [1]*j
    if j == 0:
        yield []
        return
    for first in range(min(j, max_part), 0, -1):
        for rest in _descending_partitions(j - first, first):
            yield [first] + rest


@lru_cache(maxsize=None)
def partitions(j: int) -> tuple:
    """All integer partitions of j, each exactly once, in canonical order.

    Canonical order: decreasing largest part, then lexicographically
    decreasing part lists ([4] > [3,1] > [2,2] > [2,1,1] > [1,1,1,1]).
    len(partitions(j)) equals the partition function p(j).
    """
    if j < 0:
        raise ValueError("partitions requires j >= 0")
    return tuple(PartitionVector.from_list(p) for p in _descending_partitions(j, j))
