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
parameter per weight, so a monomial is a partition, a tuple of (part,
exponent) pairs whose part p is the weight-p parameter (``sympoly.part_name``
names it r_p or c_(p-D)), and the parameters of every derived function are
the parts up to its degree.
``mean_values`` evaluates the same mean values exactly at a point without
expanding phi, by Newton's identities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .powersums import materialize
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


def mean_values(a: int, ns, s) -> list:
    """[M(a, n) for n in ns], exactly, at the parameter sequence s.

    s = (1, r_1, ..., r_D, c_1, c_2, ...) holds one value per weight, s_0 = 1,
    and must reach max(a, n).  With A_k(x) = sum_i C(k, i) (-1)^i s_i x^(k-i),
    M(a, n) is the mean of A_a over the n roots of A_n, and
    phi(D, delta, rho) = D!/(D-delta)! * M(D - delta, D - rho).  The roots of
    A_n have e_i = C(n, i) s_i, so Newton's identities give their power sums
    without division:
    p_k = sum_(i=1..min(k-1,n)) (-1)^(i-1) e_i p_(k-i) + [k <= n] (-1)^(k-1) k e_k,
    p_0 = n, and M(a, n) = (1/n) sum_j C(a, j) (-1)^(a-j) s_(a-j) p_j.

    The history of power sums is kept newest first, rev = [p_(k-1), ..., p_0],
    so p_k is one dot product of the signed e_1, e_2, ... with rev, which
    stops at whichever runs out first: sum_(i=1..min(k,n)) (-1)^(i-1) e_i p_(k-i).
    For k <= n that sum holds the i = k term with p_0 = n in place of k, so
    (k - n) (-1)^(k-1) e_k is added.  The final sum reads rev against
    C(a, i) (-1)^i s_i, the weight of p_(a-i).
    """
    f = [math.comb(a, i) * (-1) ** i * s[i] for i in range(a + 1)]  # f[i] weighs p_(a-i)
    out = []
    for n in ns:
        signed_e = [(-1) ** (i - 1) * math.comb(n, i) * s[i] for i in range(1, n + 1)]
        rev = [n]  # p_(k-1), ..., p_0
        for k in range(1, a + 1):
            t = sum(map(operator.mul, signed_e, rev))
            rev.insert(0, t + (k - n) * signed_e[k - 1] if k <= n else t)
        out.append(Fraction(sum(map(operator.mul, f, rev)), n))
    return out
