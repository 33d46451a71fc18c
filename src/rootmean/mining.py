"""Coefficient-sequence mining over the mean-value tables.

Polynomials are plain tuples of ascending coefficients, trailing zeros
stripped: Fractions from the fits, ints for g_D.  The pipeline is
fit_h -> extract_g -> structure_sweep -> t_series -> mine_Q_and_norlund:

- ``fit_h`` interpolates h_D(n), the coefficient of the top-order parameter
  (weight D, exponent 1) in phi(D, 0, D - n), which
  ``top_parameter_coefficient`` reads by one exact evaluation.
  ``interpolate`` runs its divided differences in integers.
- ``extract_g`` divides h_D(n) = ((-1)^D D / D!) * (D - n) * n^chi * g_D(n),
  chi = D mod 2, checks that g_D is monic and integral of degree
  D - (2 + chi), and decides it over the integers by ``is_irreducible_int``:
  Ben-Or's test modulo small primes, on residues packed into one int each,
  then one integer-root scan over the divisors of g_D(0), listed from its
  factorisation.
- ``structure_sweep`` maps every degree D = 2..d_max to its extraction.
- ``t_series`` fits t_k(D), the coefficient of n^(D-(k+chi)) in g_D, across
  the degrees of a sweep.
- ``mine_Q_and_norlund`` collects the least common denominators Q_k of t_k
  and the leading coefficients of Q_k * t_k as integer sequences.  They are
  never asserted from memory; ``compare_with_bfile`` aligns them against a
  user-provided OEIS b-file.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction

from ._aberth_py import horner
from .means import mean_values

HOLDOUT = 2  # held-out points every fit must reproduce
MAX_BFILE_OFFSET = 6  # largest index shift tried against a b-file


def top_parameter_coefficient(D: int, rho: int) -> Fraction:
    """Coefficient of the top-order parameter (weight D, exponent 1) in phi(D, 0, rho).

    That is M(D, D - rho) (``mean_values``) at r_D = 1, every other parameter
    0: phi is homogeneous of weight D, so its monomials are partitions of D,
    none of which holds an integration constant (weight above D), and {D} is
    the only one that the point does not zero.
    """
    n = D - rho
    point = [0] * (max(D, n) + 1)
    point[0] = point[D] = 1
    return mean_values(D, [n], point)[0]


class StructuralFormError(ValueError):
    pass


class FitError(ValueError):
    pass


def interpolate(points) -> tuple:
    """Unique interpolating polynomial through exact (x, y) pairs (Newton form).

    The nodes may be any distinct rationals (``FitError`` on a repeated one).
    The arithmetic is in integers: the nodes and the values are scaled by the
    lcm of their denominators, each level of divided differences holds
    numerators over one shared denominator, and the Newton form is expanded
    into integer monomial coefficients that are scaled back at the end.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise FitError("repeated interpolation nodes")
    sx = math.lcm(*(x.denominator for x in xs))
    sy = math.lcm(*(y.denominator for y in ys))
    nodes = [x.numerator * (sx // x.denominator) for x in xs]
    coef = [y.numerator * (sy // y.denominator) for y in ys]
    # divided differences: after its level, coef[i] / dens[i] is the i-th Newton coefficient
    dens = [1]
    for level in range(1, len(nodes)):
        step = math.lcm(*(nodes[i] - nodes[i - level] for i in range(level, len(nodes))))
        for i in range(len(nodes) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * (step // (nodes[i] - nodes[i - level]))
        dens.append(dens[-1] * step)
    # Horner on the Newton form over the shared denominator dens[-1]
    poly = []
    for xi, c, den in zip(reversed(nodes), reversed(coef), reversed(dens)):
        poly = [0, *poly]
        for k in range(len(poly) - 1):
            poly[k] -= xi * poly[k + 1]
        poly[0] += c * (dens[-1] // den)
    return tuple(_ptrim([Fraction(c * sx**k, dens[-1] * sy) for k, c in enumerate(poly)]))


def fit_polynomial(points) -> tuple:
    """Interpolate through all but the last ``HOLDOUT`` points, then verify those.

    Exact arithmetic means the interpolant *is* the underlying polynomial
    whenever the data really is polynomial of degree < len(fit points).
    """
    if len(points) < HOLDOUT + 2:
        raise FitError("not enough points to fit and hold out")
    poly = interpolate(points[:-HOLDOUT])
    for x, y in points[-HOLDOUT:]:
        if (got := horner(poly[::-1], x)) != Fraction(y):
            raise FitError(f"held-out point ({x}, {y}) missed: got {got} (not polynomial at this degree)")
    return poly


def fit_h(D: int) -> tuple:
    """The coefficient-in-n polynomial h_D through (n, top_parameter_coefficient(D, D-n)).

    It interpolates n = 1..D+1 and must reproduce the ``HOLDOUT`` points
    n = D+2, D+3, or ``fit_polynomial`` raises ``FitError``.
    """
    data = [(Fraction(n), top_parameter_coefficient(D, D - n)) for n in range(1, D + 2 + HOLDOUT)]
    return fit_polynomial(data)


@dataclass(frozen=True)
class GExtraction:
    g: tuple  # of int, ascending; its degree is len(g) - 1
    chi: int
    irreducible: bool | None  # None = undecided by is_irreducible_int


def extract_g(D: int, h) -> GExtraction:
    """Divide h by ((-1)^D D / D!) * (D - n) * n^chi and validate the quotient.

    The division must be exact, and the quotient monic with integer
    coefficients, of degree M = D - (2 + chi).  Irreducibility over the
    integers is decided by ``is_irreducible_int``, which leaves it None when
    none of its tests settles it.
    """
    chi = D % 2
    const = Fraction((-1) ** D * D, math.factorial(D))
    divisor = [0] * chi + [const * D, -const]  # const * (D - n) * n^chi
    rem, g = list(h), [0] * max(len(h) - chi - 1, 0)
    for j in range(len(g) - 1, -1, -1):
        g[j] = rem[j + chi + 1] / -const
        for k, b in enumerate(divisor):
            rem[j + k] -= g[j] * b
    if any(rem):
        raise StructuralFormError(f"non-exact division, remainder {rem}")
    M = D - (2 + chi)
    if len(g) - 1 != M:
        raise StructuralFormError(f"quotient degree {len(g) - 1} != D-(2+chi) = {M}")
    if g[-1] != 1:
        raise StructuralFormError("quotient is not monic")
    if any(c.denominator != 1 for c in g):
        raise StructuralFormError("quotient has non-integer coefficients")
    g = tuple(map(int, g))
    return GExtraction(g, chi, is_irreducible_int(g))


_DIVISOR_CAP = 10**12  # beyond this |g(0)| the integer-root scan tries only -64..64


def _divisors(n: int):
    """Every divisor of n != 0, both signs, ascending.

    They are listed from n's factorisation, whose trial division stops at
    the square root of the part of n not yet factored.
    """
    n, divs, d = abs(n), [1], 2
    while d * d <= n:
        layer = divs
        while n % d == 0:
            n //= d
            layer = [x * d for x in layer]
            divs = divs + layer
        d += 1
    if n > 1:
        divs = divs + [x * n for x in divs]
    return sorted([-x for x in divs] + divs)


# -- polynomial arithmetic mod p (ascending int lists, or packed residues) ---

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a, g, p):
    """a modulo the monic g, in place; the entries of a lie in 0..p-1."""
    dg = len(g) - 1
    for i in range(len(a) - 1, dg - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for k in range(dg):
                a[i - dg + k] = (a[i - dg + k] - c * g[k]) % p
    return _ptrim(a)


def _pgcd(a, b, p):
    a, b = _ptrim([x % p for x in a]), _ptrim([x % p for x in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(x * inv) % p for x in b]
        a, b = b, _pmod(a, b, p)
    return a


def _pack(slots) -> int:
    """Coefficients below 2^64, ascending, as one int of 64-bit slots."""
    return int.from_bytes(array("Q", slots).tobytes(), "little")


def _irreducible_mod_p(g_int, p) -> bool:
    """Ben-Or's test: monic g irreducible over GF(p).  Exact for every degree.

    A reducible g of degree M has an irreducible factor of some degree
    d <= M // 2, and that factor divides x^(p^d) - x.

    A residue mod g is one int that packs its M coefficients, ascending, in
    64-bit slots.  The product of two residues is one int product, unpacked
    to 2M slots and reduced by one sum of slot times packed x^k mod g,
    k < 2M, after which each slot is taken mod p.  No slot carries into the
    next: a product slot is at most M(p-1)^2, so a slot of the sum is at most
    2M^2(p-1)^3, far below 2^64 for any degree the CLI reaches.
    """
    g = [c % p for c in g_int]
    M = len(g) - 1
    # x^k mod g, k < 2M: x^k itself below M, and x^M = -(g_0 + g_1 x + ... + g_(M-1) x^(M-1))
    table, power = [1 << (64 * k) for k in range(M)], [-c % p for c in g[:-1]]
    for _ in range(M):
        table.append(_pack(power))
        power = [(a - power[-1] * b) % p for a, b in zip([0, *power[:-1]], g)]

    def mulmod(a, b):
        slots = array("Q", (a * b).to_bytes(16 * M, "little"))
        reduced = sum(map(operator.mul, slots, table)).to_bytes(8 * M, "little")
        return _pack([c % p for c in array("Q", reduced)])

    frob = 1 << 64  # x
    for _ in range(M // 2):
        base = frob
        for bit in bin(p)[3:]:  # frob = base^p: x^(p^d) mod g
            frob = mulmod(frob, frob)
            if bit == "1":
                frob = mulmod(frob, base)
        h = list(array("Q", frob.to_bytes(8 * M, "little")))
        h[1] -= 1
        if len(_pgcd(h, g, p)) != 1:
            return False
    return True


_MODP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def is_irreducible_int(g_int) -> bool | None:
    """Irreducibility over the integers of monic ``g_int``, ascending integer coefficients.

    Degree M <= 1 is irreducible.  Otherwise Ben-Or's test finding g
    irreducible modulo one of the 17 ``_MODP_PRIMES`` means irreducible, and
    an integer root means reducible, scanned for among the divisors of g(0),
    or only in -64..64 when |g(0)| is above ``_DIVISOR_CAP``.  Otherwise
    None (undecided): D = 15 and 17 in the default ``mine`` sweep, and
    D = 28 and 29 below the degree cap.  A g with an integer root is
    reducible modulo every prime, so Ben-Or's test never answers for it, and
    the scan after it finds it.
    """
    if len(g_int) <= 2:
        return True
    for p in _MODP_PRIMES:
        if _irreducible_mod_p(g_int, p):
            return True
    if g_int[0] == 0:  # the root 0; every other integer root divides g(0)
        return False
    candidates = range(-64, 65) if abs(g_int[0]) > _DIVISOR_CAP else _divisors(g_int[0])
    descending = g_int[::-1]
    if any(horner(descending, r) == 0 for r in candidates):
        return False
    return None


def structure_sweep(d_max: int) -> dict:
    """D -> extract_g(D, fit_h(D)) for every degree D = 2..d_max."""
    return {D: extract_g(D, fit_h(D)) for D in range(2, d_max + 1)}


def t_series(k: int, extractions: dict) -> tuple:
    """Interpolated coefficient polynomial t_k(D) with held-out verification.

    t_k(D) is the coefficient of n^(D-(k+chi)) in g_D, read for every degree
    D >= k of the sweep; below D = k the exponent is negative.  For odd k
    the point D = k has exponent -1, so its value 0 is a fit point like any
    other, not a check.
    """
    return fit_polynomial([(Fraction(D), gx.g[e] if (e := D - k - gx.chi) >= 0 else 0)
                           for D, gx in sorted(extractions.items()) if D >= k])


@dataclass(frozen=True)
class MinedSequence:
    name: str
    start_k: int
    values: tuple  # python ints
    provenance: dict

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start_k": self.start_k,
            "values": [str(v) for v in self.values],
            "provenance": self.provenance,
        }


def mine_Q_and_norlund(k_max: int, extractions: dict):
    """Least common denominators Q_k of t_k and leading coefficients of Q_k * t_k.

    Q_k is the lcm of the denominators of t_k, so Q_k * t_k has integer
    coefficients; its leading one is the k-th mined value of the second
    sequence.
    """
    qs, leads = [], []
    for k in range(2, k_max + 1):
        tk = t_series(k, extractions)
        q = math.lcm(*(c.denominator for c in tk))
        qs.append(q)
        leads.append(int(q * tk[-1]))
    prov = {"d_sweep": max(extractions), "k_max": k_max}
    return (
        MinedSequence("lcd-of-t_k", 2, tuple(qs), prov),
        MinedSequence("leading-of-cleared-t_k", 2, tuple(leads), prov),
    )


# ---------------------------------------------------------------------------
# OEIS b-file comparison

def read_bfile(path) -> dict:
    """Parse the OEIS b-file format: one "index value" pair per line, # comments.

    A line that is not exactly two integers or that repeats an index is
    malformed (ValueError naming the line number), and so is a file without
    a single pair.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                index, value = map(int, line.split())  # too few or many fields: ValueError
            except ValueError:
                raise ValueError(f"line {lineno}: expected 'index value', got {line!r}") from None
            if index in out:
                raise ValueError(f"line {lineno}: index {index} repeated")
            out[index] = value
    if not out:
        raise ValueError("no 'index value' line")
    return out


@dataclass
class BfileComparison:
    offset: int | None
    matched: int
    total: int
    absolute_values: bool
    mismatches: list

    @property
    def aligned(self) -> bool:
        return self.offset is not None and self.matched == self.total

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "matched": self.matched,
            "total": self.total,
            "absolute_values": self.absolute_values,
            "mismatches": self.mismatches,
        }


def compare_with_bfile(seq: MinedSequence, bfile: dict) -> BfileComparison:
    """Best-offset alignment of a mined prefix against a b-file.

    The index correspondence is unknown a priori, so every shift in
    [-MAX_BFILE_OFFSET, MAX_BFILE_OFFSET] is tried, first with signed values
    and then with absolute values; the best (mode, offset) wins.  When no
    shift matches a single value there is no offset to report: the result
    has offset None, nothing matched and no mismatches.
    """
    best = BfileComparison(None, 0, len(seq.values), False, [])
    for use_abs in (False, True):
        for off in range(-MAX_BFILE_OFFSET, MAX_BFILE_OFFSET + 1):
            matched = 0
            mismatches = []
            for i, v in enumerate(seq.values):
                idx = seq.start_k + i + off
                if idx not in bfile:
                    mismatches.append({"k": seq.start_k + i, "reason": "index missing", "index": idx})
                    continue
                want = abs(bfile[idx]) if use_abs else bfile[idx]
                got = abs(v) if use_abs else v
                if got == want:
                    matched += 1
                else:
                    mismatches.append({"k": seq.start_k + i, "mined": str(v), "bfile": str(bfile[idx])})
            if matched > best.matched:
                best = BfileComparison(off, matched, len(seq.values), use_abs, mismatches)
    return best
