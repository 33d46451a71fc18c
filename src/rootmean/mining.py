"""Coefficient-sequence mining over the mean-value tables.

One coefficient extractor feeds the mining: ``top_parameter_coefficient``
reads the coefficient of the single top-order parameter (weight D, exponent
1) in phi(D, 0, rho) through ``means.phi_coefficient``, which sums the at
most two Girard-Waring terms that reach that monomial without expanding phi.
As a polynomial in the family size n it has the structural factorization
h_D(n) = ((-1)^D D / D!) * rho * n^chi * g_D(n), where rho = D - n,
chi = D mod 2, and g_D is monic with integer coefficients of degree
D - (2 + chi), and the h/g/t/Q pipeline runs on it.

Each g_D is then decided over the integers by ``is_irreducible_int``: Ben-Or's
test modulo small primes, then one integer-root scan.

From g_D(n) = sum_k t_k(D) n^(D-(k+chi)) the coefficient polynomials t_k(D)
are interpolated across degrees, their least common denominators Q_k and the
integer-cleared leading coefficients are collected as integer sequences for
cross-checking against externally supplied OEIS b-files.  No sequence values
are ever asserted from memory; the comparator only aligns against a
user-provided file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._aberth_py import horner
from .exact import PartitionVector
from .means import PhiKey, phi_coefficient

HOLDOUT = 2  # held-out points every fit must reproduce
MAX_BFILE_OFFSET = 6  # largest index shift tried against a b-file


def top_parameter_coefficient(D: int, rho: int) -> Fraction:
    """Coefficient of the top-order parameter (weight D, exponent 1) in phi((D, 0, rho))."""
    return phi_coefficient(PhiKey(D, 0, rho), PartitionVector.from_parts({D: 1}))


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients, ascending powers."""

    coeffs: tuple  # of Fraction, trailing zeros stripped

    @classmethod
    def make(cls, coeffs) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x) -> Fraction:
        return horner(self.coeffs[::-1], x)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def lcd(self) -> int:
        return math.lcm(*(c.denominator for c in self.coeffs))

    def scaled(self, s) -> "RationalPolynomial":
        return RationalPolynomial.make([c * Fraction(s) for c in self.coeffs])

    def divide_exact(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """Exact quotient; raises StructuralFormError on a nonzero remainder."""
        if not other.coeffs:
            raise ZeroDivisionError
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            f = rem[i] / lead
            q[i - d] = f
            for k, b in enumerate(other.coeffs):
                rem[i - d + k] -= f * b
        if any(rem):
            raise StructuralFormError(f"non-exact division, remainder {rem}")
        return RationalPolynomial.make(q)


class StructuralFormError(ValueError):
    pass


class FitError(ValueError):
    pass


def interpolate(points) -> RationalPolynomial:
    """Unique interpolating polynomial through exact (x, y) pairs (Newton form)."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise FitError("repeated interpolation nodes")
    # divided differences
    coef = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    # Horner on the Newton form: p = c_m, then p = p * (x - x_i) + c_i
    poly = []
    for xi, c in zip(reversed(xs), reversed(coef)):
        poly = [0, *poly]
        for k in range(len(poly) - 1):
            poly[k] -= xi * poly[k + 1]
        poly[0] += c
    return RationalPolynomial.make(poly)


def fit_polynomial(points) -> RationalPolynomial:
    """Interpolate through all but the last ``HOLDOUT`` points, then verify those.

    Exact arithmetic means the interpolant *is* the underlying polynomial
    whenever the data really is polynomial of degree < len(fit points).
    """
    if len(points) < HOLDOUT + 2:
        raise FitError("not enough points to fit and hold out")
    poly = interpolate(points[:-HOLDOUT])
    for x, y in points[-HOLDOUT:]:
        if poly(x) != Fraction(y):
            raise FitError(f"held-out point ({x}, {y}) missed: got {poly(x)} (not polynomial at this degree)")
    return poly


def fit_h(D: int) -> RationalPolynomial:
    """The coefficient-in-n polynomial h_D through (n, top_parameter_coefficient(D, D-n)).

    It interpolates n = 1..D+1 and must reproduce the ``HOLDOUT`` points
    n = D+2, D+3, or ``fit_polynomial`` raises ``FitError``.
    """
    data = [(Fraction(n), top_parameter_coefficient(D, D - n)) for n in range(1, D + 2 + HOLDOUT)]
    return fit_polynomial(data)


def chi(D: int) -> int:
    return D % 2


@dataclass(frozen=True)
class GExtraction:
    D: int
    g: RationalPolynomial
    chi: int
    M: int
    irreducible: bool | None  # None = undecided by is_irreducible_int

    def t_coefficient(self, k: int) -> Fraction:
        """t_k(D): coefficient of n^(D-(k+chi)) in g, zero when out of range."""
        return self.g.coefficient(self.D - (k + self.chi))


def extract_g(D: int, h: RationalPolynomial) -> GExtraction:
    """Divide out ((-1)^D D / D!) * (D - n) * n^chi and validate the quotient.

    The quotient must be an exact polynomial, monic with integer coefficients,
    of degree M = D - (2 + chi).  Irreducibility over the integers is decided
    by ``is_irreducible_int``, which leaves it None when none of its tests
    settles it.
    """
    x = chi(D)
    const = Fraction((-1) ** D * D, math.factorial(D))
    prefactor = RationalPolynomial.make([0] * x + [const * D, -const])  # const * (D - n) * n^chi
    g = h.divide_exact(prefactor)
    M = D - (2 + x)
    if g.degree != M:
        raise StructuralFormError(f"quotient degree {g.degree} != D-(2+chi) = {M}")
    if not g.is_monic():
        raise StructuralFormError("quotient is not monic")
    if not g.is_integer():
        raise StructuralFormError("quotient has non-integer coefficients")
    return GExtraction(D, g, x, M, is_irreducible_int(g))


_DIVISOR_CAP = 10**12  # beyond this |g(0)| the integer-root scan tries only -64..64


def _divisors(n: int):
    n = abs(n)
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.update((d, n // d, -d, -(n // d)))
    return sorted(out)


# -- polynomial arithmetic mod p (ascending int lists) ----------------------

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


def _pmulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pmod(out, g, p)


def _ppowmod(base, exp, g, p):
    result = [1]
    b = list(base)
    while exp:
        if exp & 1:
            result = _pmulmod(result, b, g, p)
        b = _pmulmod(b, b, g, p)
        exp >>= 1
    return result


def _pgcd(a, b, p):
    a, b = _ptrim([x % p for x in a]), _ptrim([x % p for x in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(x * inv) % p for x in b]
        a, b = b, _pmod(a, b, p)
    return a


def _irreducible_mod_p(g_int, p) -> bool:
    """Ben-Or's test: monic g irreducible over GF(p).  Exact for every degree.

    A reducible g of degree M has an irreducible factor of some degree
    d <= M // 2, and that factor divides x^(p^d) - x.
    """
    g = [c % p for c in g_int]
    frob = [0, 1]
    for _ in range((len(g) - 1) // 2):
        frob = _ppowmod(frob, p, g, p)  # x^(p^d) mod g
        h = frob + [0] * (2 - len(frob))
        h[1] = (h[1] - 1) % p
        if len(_pgcd(h, g, p)) != 1:
            return False
    return True


_MODP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def is_irreducible_int(g: RationalPolynomial) -> bool | None:
    """Irreducibility of a monic integer polynomial over the integers.

    Degree M <= 1 is irreducible.  Otherwise Ben-Or's test finding g
    irreducible modulo one of the 17 ``_MODP_PRIMES`` means irreducible, and
    an integer root means reducible, scanned for among the divisors of g(0),
    or only in -64..64 when |g(0)| is above ``_DIVISOR_CAP``.  Otherwise
    None (undecided): D = 15 and 17 in the default ``mine`` sweep, and
    D = 28 and 29 below the degree cap.  A g with an integer root is
    reducible modulo every prime, so Ben-Or's test never answers for it, and
    the scan after it finds it.
    """
    if g.degree <= 1:
        return True
    g_int = [int(c) for c in g.coeffs]
    for p in _MODP_PRIMES:
        if _irreducible_mod_p(g_int, p):
            return True
    # g(0) = 0 is the root 0; every other integer root divides g(0)
    candidates = range(-64, 65) if abs(g_int[0]) > _DIVISOR_CAP else _divisors(g_int[0])
    descending = g_int[::-1]
    if g_int[0] == 0 or any(horner(descending, r) == 0 for r in candidates):
        return False
    return None


@dataclass
class StructureSweep:
    """g_D extraction for every degree in a sweep."""

    extractions: dict = field(default_factory=dict)  # D -> GExtraction

    @classmethod
    def run(cls, d_max: int) -> "StructureSweep":
        sweep = cls()
        for D in range(2, d_max + 1):
            sweep.extractions[D] = extract_g(D, fit_h(D))
        return sweep

    def t_data(self, k: int, d_min: int = 2):
        return [(Fraction(D), gx.t_coefficient(k))
                for D, gx in sorted(self.extractions.items()) if D >= d_min]


def t_series(k: int, sweep: StructureSweep) -> RationalPolynomial:
    """Interpolated coefficient polynomial t_k(D) with held-out verification.

    Only degrees D >= k contribute meaningful data (below that the exponent
    D-(k+chi) is negative and the coefficient is structurally zero); the
    vanishing claim for odd k at D <= k is asserted against the data.
    """
    if k < 2:
        raise ValueError("k starts at 2")
    if k % 2 == 1:
        for D, val in sweep.t_data(k):
            if D <= k and val != 0:
                raise StructuralFormError(f"expected t_{k}({D}) = 0, got {val}")
    return fit_polynomial(sweep.t_data(k, d_min=k))


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


def mine_Q_and_norlund(k_max: int, sweep: StructureSweep):
    """Least common denominators Q_k of t_k and leading coefficients of Q_k * t_k.

    Q_k clears t_k to an integer polynomial u_k (asserted); the leading
    coefficient of u_k is the k-th mined value of the second sequence.
    """
    qs, leads = [], []
    for k in range(2, k_max + 1):
        tk = t_series(k, sweep)
        q = tk.lcd()
        uk = tk.scaled(q)
        if not uk.is_integer():
            raise StructuralFormError(f"u_{k} is not an integer polynomial")
        qs.append(q)
        leads.append(int(uk.leading))
    prov = {"d_sweep": max(sweep.extractions), "k_max": k_max}
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
