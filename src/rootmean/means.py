"""Mean values of derived polynomials over derivative-root families.

phi((D, delta, rho)) is the average of the delta-th derived function of a
monic degree-D polynomial over the D - rho roots of its rho-th derived
function.  Positive orders are derivatives, zero is the function itself, and
negative orders are antiderivatives; antiderivatives extend the shared
parameter family with integration constants of weights D+1, D+2, ...

The computation follows the direct route: write the averaged function in
quasi-binomial form, replace each power x^j by the mean power sum of the
averaging family, and use the fact that a derived function's parameters are
the parameters of the original, truncated for a derivative and extended by
integration constants for an antiderivative, so everything lands in one
exact polynomial over the original parameters.  The family holds one
parameter per weight, so a monomial is a partition whose part p is the
weight-p parameter (``sympoly.part_name`` names it r_p or c_(p-D)), and the
parameters of every derived function are the parts up to its degree.
``phi_coefficient`` reads a single coefficient from the same terms without
expanding phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ZERO, PartitionVector
from .powersums import gw_coefficient, materialize
from .sympoly import SymPoly, poly_sum

# phi is one sum at every value order; the flag names the sign of D - delta,
# the degree of the averaged function.
FLAG_OK = "ok"
FLAG_CONSTANT = "constant"  # delta == D: the derived function is the constant D!
FLAG_ZERO = "zero"  # delta > D: the derived function vanishes


@dataclass(frozen=True)
class PhiKey:
    """Identifies one mean value: degree D, value order delta, family order rho."""

    D: int
    delta: int
    rho: int

    def __post_init__(self):
        if self.D < 2:
            raise ValueError(f"degree must be >= 2, got D={self.D}")
        if self.D - self.rho < 1:
            raise ValueError(f"empty root family: D={self.D}, rho={self.rho}")

    @property
    def family_size(self) -> int:
        return self.D - self.rho


@dataclass(frozen=True)
class PhiResult:
    key: PhiKey
    poly: SymPoly
    flag: str = FLAG_OK


def _term_weight(D: int, delta: int, j: int) -> Fraction:
    """w_j = D!/(D-delta)! * C(deg_g, j) * (-1)^(deg_g - j), with deg_g = D - delta.

    phi is sum_j w_j * (order deg_g - j parameter) * mean(z^j); the factorial
    ratio is the true derivative/antiderivative scaling of the monic original.
    """
    deg_g = D - delta
    return Fraction(
        math.factorial(D) * math.comb(deg_g, j) * (-1) ** (deg_g - j), math.factorial(deg_g)
    )


def phi(key: PhiKey) -> PhiResult:
    """Exact mean of the delta-th derived function over the rho-th root family."""
    D, delta = key.D, key.delta
    n = key.family_size
    deg_g = D - delta  # degree of the averaged function
    poly = poly_sum(
        materialize(j, n, _term_weight(D, delta, j), deg_g - j) for j in range(deg_g + 1)
    )
    flag = FLAG_OK if deg_g > 0 else FLAG_CONSTANT if deg_g == 0 else FLAG_ZERO
    return PhiResult(key, poly, flag)


def phi_coefficient(key: PhiKey, m: PartitionVector) -> Fraction:
    """Coefficient in phi(key).poly of the monomial m, without expanding phi.

    m is the same PartitionVector that keys the polynomial's terms: part p
    is the parameter of weight p, the root parameter r_p when p <= D and the
    integration constant c_(p-D) beyond it.  So r1^2 r3 is Partition[3+1+1],
    at D = 4 the monomial c1 r2 is Partition[5+2], and the empty partition is
    the constant monomial.

    mean(z^j) holds each partition of j once, so m gets at most one term per
    distinct part plus one: the j = deg_g term, where all of m comes from the
    mean, and for each distinct part p the j = deg_g - p term, where p is the
    parameter factor and m - {p} comes from the mean.  mean(z^0) = 1, so an
    empty remainder, or the empty m at delta = D, contributes the weight
    alone.  A monomial whose weight is not D - delta gets 0.
    """
    D, delta = key.D, key.delta
    deg_g = D - delta
    if m.j != deg_g:
        return ZERO
    n = key.family_size
    total = _term_weight(D, delta, deg_g) * (gw_coefficient(m, n) if m.items else 1)
    parts = dict(m.items)
    for p, mult in m.items:
        rest = PartitionVector.from_parts({**parts, p: mult - 1})
        w = _term_weight(D, delta, deg_g - p)
        total += w * gw_coefficient(rest, n) if rest.items else w
    return total
