"""Normalized power-sum expansions over an n-element family (Girard-Waring).

For a multiset Z of n values with elementary symmetric functions e_i and power
sums p_j, the classical Girard-Waring formula expands p_j over the integer
partitions of j.  Normalizing (p_j/n, and e_i divided by C(n,i)) gives the
expansion used throughout this package:

    mean(z^j) = sum over partitions kappa of j of gw_coefficient(kappa, n)
                times the product of order-i parameters raised to kappa's
                multiplicities.

Parts larger than n carry C(n,i) = 0 and are pruned.  A partition kappa is
a tuple of (part, multiplicity) pairs, parts strictly decreasing, as
``exact.partitions`` returns it, and is also the monomial's key in the
resulting ``SymPoly``: part i stands for the order-i parameter.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import partitions
from .sympoly import SymPoly


def gw_factor(kappa: tuple) -> Fraction:
    """The family-size-free factor (j(-1)^j) ((-1)^|kappa| / |kappa|) multinomial(|kappa|; kappa).

    ``gw_coefficient(kappa, n)`` is this times prod_i C(n,i)^(k_i) / n, with
    j = ||kappa||; kappa must be nonempty.  Always an integer.
    """
    j = sum(part * mult for part, mult in kappa)
    card = sum(mult for _, mult in kappa)
    sign = 1 if (j + card) % 2 == 0 else -1
    multinomial = math.factorial(card) // math.prod(math.factorial(k) for _, k in kappa)
    return Fraction(sign * j * multinomial, card)


def gw_coefficient(kappa: tuple, n: int) -> Fraction:
    """Normalized Girard-Waring coefficient of the partition kappa for an n-family.

    Equals gw_factor(kappa) * prod_i C(n,i)^(k_i) / n.  Zero exactly when
    some part exceeds n.
    """
    if n < 1:
        raise ValueError("family size must be >= 1")
    if not kappa:
        raise ValueError("gw_coefficient needs a nonempty partition")
    prod = math.prod(math.comb(n, part) ** mult for part, mult in kappa)
    return gw_factor(kappa) * Fraction(prod, n)


@lru_cache(maxsize=None)
def _expansion(j: int, n: int) -> tuple:
    """Nonzero (kappa, coefficient) pairs of the degree-j mean power sum.

    A coefficient is zero exactly when some part exceeds n.
    """
    return tuple((kappa, gw_coefficient(kappa, n)) for kappa in partitions(j) if kappa[0][0] <= n)


def materialize(j: int, n: int, coeff=1, times: int = 0) -> SymPoly:
    """coeff * (weight-``times`` parameter) * mean(z^j) for an n-family.

    ``times = 0`` leaves out the parameter factor.  Each term's key is the
    partition itself plus the part ``times``, so a mean value assembles its
    terms without a multiplication pass.
    """
    coeff = Fraction(coeff)
    if j == 0:
        return SymPoly.term(coeff, {times: 1} if times else {})
    acc = {}
    for kappa, c in _expansion(j, n):
        if times:
            parts = dict(kappa)
            parts[times] = parts.get(times, 0) + 1
            kappa = tuple(sorted(parts.items(), reverse=True))
        acc[kappa] = coeff * c
    return SymPoly(acc)


def power_sum_mean(j: int, n: int) -> SymPoly:
    """mean(z^j) over an n-family, as a polynomial in the order-i root parameters.

    Homogeneous of weight j; terms whose partitions have parts > n are absent.
    """
    if j < 1 or n < 1:
        raise ValueError("power_sum_mean requires j >= 1 and n >= 1")
    return materialize(j, n)
