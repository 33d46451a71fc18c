"""Coefficient-sequence mining over the mean-value tables.

Two coefficient extractors are provided for phi(D, 0, rho).  Each reads its
one coefficient through ``means.phi_coefficient``, which sums the at most two
Girard-Waring terms that reach that monomial; neither expands phi.

* ``leading_phi_coefficient``: the coefficient of the first parameter raised
  to the D-th power (the leading printed term).  As a polynomial in the
  family size n it is exactly -rho * n^(D-2).

* ``top_parameter_coefficient``: the coefficient of the single top-order
  parameter (weight D, exponent 1).  This is the series with the structural
  factorization h_D(n) = ((-1)^D D / D!) * rho * n^chi * g_D(n), where
  rho = D - n, chi = D mod 2, and g_D is monic with integer coefficients of
  degree D - (2 + chi).  The h/g/t/Q mining pipeline runs on this extractor.

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

from .exact import PartitionVector
from .means import PhiKey, phi_coefficient

HOLDOUT = 2  # held-out points every fit must reproduce
MAX_BFILE_OFFSET = 6  # largest index shift tried against a b-file


def leading_phi_coefficient(D: int, rho: int) -> Fraction:
    """Coefficient of (order-1 parameter)^D in phi((D, 0, rho))."""
    return phi_coefficient(PhiKey(D, 0, rho), PartitionVector.from_parts({1: D}))


def top_parameter_coefficient(D: int, rho: int) -> Fraction:
    """Coefficient of the top-order parameter (weight D, exponent 1) in phi((D, 0, rho))."""
    return phi_coefficient(PhiKey(D, 0, rho), PartitionVector.from_parts({D: 1}))


def _horner(coeffs, x, acc=0):
    """Value at x of the polynomial with ascending coefficients coeffs."""
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x) -> Fraction:
        return _horner(self.coeffs, x, Fraction(0))

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

    def multiply(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if not self.coeffs or not other.coeffs:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial.make(out)

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

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            var = "" if k == 0 else ("n" if k == 1 else f"n^{k}")
            bits.append(f"{c}{('*' + var) if var else ''}")
        return " + ".join(bits).replace("+ -", "- ")


class StructuralFormError(ValueError):
    pass


class FitError(ValueError):
    pass


def _poly_add(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    size = max(len(a.coeffs), len(b.coeffs))
    return RationalPolynomial.make(
        [a.coefficient(i) + b.coefficient(i) for i in range(size)]
    )


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
    poly = RationalPolynomial.zero()
    basis = RationalPolynomial.make([1])
    for i, c in enumerate(coef):
        poly = _poly_add(poly, basis.scaled(c))
        basis = basis.multiply(RationalPolynomial.make([-xs[i], 1]))
    return poly


def fit_polynomial(points, holdout: int = HOLDOUT) -> RationalPolynomial:
    """Interpolate through all but the last ``holdout`` points, then verify those.

    Exact arithmetic means the interpolant *is* the underlying polynomial
    whenever the data really is polynomial of degree < len(fit points).
    """
    if len(points) < holdout + 2:
        raise FitError("not enough points to fit and hold out")
    fit_pts = points[:-holdout] if holdout else points
    held = points[-holdout:] if holdout else []
    poly = interpolate(fit_pts)
    for x, y in held:
        if poly(x) != Fraction(y):
            raise FitError(f"held-out point ({x}, {y}) missed: got {poly(x)} (not polynomial at this degree)")
    return poly


def fit_h(D: int, n_points=None, extractor=top_parameter_coefficient):
    """Interpolate the coefficient-in-n polynomial h_D through (n, extractor(D, D-n)).

    Default points n = 1..D+1 plus ``HOLDOUT`` verification points.  Returns
    (polynomial, deviations) where deviations lists any requested points the
    polynomial fails to reproduce (with the defaults there are none).
    """
    if n_points is None:
        n_points = list(range(1, D + 2 + HOLDOUT))
    n_points = list(n_points)
    if len(n_points) < D:
        raise FitError(f"need at least {D} points for degree {D}")
    data = [(Fraction(n), extractor(D, D - n)) for n in n_points]
    poly = fit_polynomial(data)
    deviations = [(int(x), y, poly(x)) for x, y in data if poly(x) != y]
    return poly, deviations


def chi(D: int) -> int:
    return D % 2


@dataclass(frozen=True)
class GExtraction:
    D: int
    g: RationalPolynomial
    chi: int
    M: int
    irreducible: bool | None  # None = not checked at this degree

    def t_coefficient(self, k: int) -> Fraction:
        """t_k(D): coefficient of n^(D-(k+chi)) in g, zero when out of range."""
        e = self.D - (k + self.chi)
        if e < 0:
            return Fraction(0)
        return self.g.coefficient(e)


def extract_g(D: int, h: RationalPolynomial) -> GExtraction:
    """Divide out ((-1)^D D / D!) * (D - n) * n^chi and validate the quotient.

    The quotient must be an exact polynomial, monic with integer coefficients,
    of degree M = D - (2 + chi).  Irreducibility over the integers is checked
    by trial factor search up to degree 6 and left unchecked beyond.
    """
    x = chi(D)
    const = Fraction((-1) ** D * D, math.factorial(D))
    prefactor = RationalPolynomial.make([Fraction(D), Fraction(-1)])  # D - n
    for _ in range(x):
        prefactor = prefactor.multiply(RationalPolynomial.make([0, 1]))
    prefactor = prefactor.scaled(const)
    g = h.divide_exact(prefactor)
    M = D - (2 + x)
    if g.degree != M:
        raise StructuralFormError(f"quotient degree {g.degree} != D-(2+chi) = {M}")
    if not g.is_monic():
        raise StructuralFormError("quotient is not monic")
    if not g.is_integer():
        raise StructuralFormError("quotient has non-integer coefficients")
    irreducible = is_irreducible_int(g) if M >= 1 else True
    return GExtraction(D, g, x, M, irreducible)


_DIVISOR_CAP = 10**12  # beyond this the Kronecker divisor sweep is not attempted


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


def _pmulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce modulo the monic polynomial g
    dg = len(g) - 1
    for i in range(len(out) - 1, dg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for k in range(dg):
                out[i - dg + k] = (out[i - dg + k] - c * g[k]) % p
    return _ptrim(out)


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
    a, b = [x % p for x in a], [x % p for x in b]
    _ptrim(a), _ptrim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(x * inv) % p for x in b]
        while len(a) >= len(b) and a:
            c = a[-1]
            if c:
                shift = len(a) - len(b)
                for k in range(len(b)):
                    a[shift + k] = (a[shift + k] - c * b[k]) % p
            _ptrim(a)
        a, b = b, a
    return _ptrim(a)


def _prime_factors(n: int):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _irreducible_mod_p(g_int, p) -> bool:
    """Rabin's test: monic g irreducible over GF(p).  No false positives."""
    g = [c % p for c in g_int]
    M = len(g) - 1
    x = [0, 1]
    # x^(p^M) == x (mod g)
    frob = _ppowmod(x, p**M, g, p)
    lhs = list(frob)
    while len(lhs) < 2:
        lhs.append(0)
    lhs[1] = (lhs[1] - 1) % p
    if _ptrim(lhs):
        return False
    for q in _prime_factors(M):
        h = _ppowmod(x, p ** (M // q), g, p)
        h = list(h)
        while len(h) < 2:
            h.append(0)
        h[1] = (h[1] - 1) % p
        d = _pgcd(_ptrim(h), g, p)
        if len(d) - 1 != 0:
            return False
    return True


def _kronecker_factor(g: RationalPolynomial, deg: int) -> bool:
    """True if a monic integer factor of the given degree exists (deg 2 or 3).

    Candidates are pinned by divisibility of values: a factor q satisfies
    q(x) | g(x) at x = 0, 1, -1.
    """
    g0, g1, gm1 = int(g(0)), int(g(1)), int(g(-1))
    if g0 == 0 or g1 == 0 or gm1 == 0:
        return True  # integer root, caught earlier but a factor regardless
    if any(abs(v) > _DIVISOR_CAP for v in (g0, g1, gm1)):
        raise FitError("values too large for divisor enumeration")
    if deg == 2:
        for c in _divisors(g0):
            for q1 in _divisors(g1):
                b = q1 - 1 - c
                cand = RationalPolynomial.make([c, b, 1])
                try:
                    g.divide_exact(cand)
                    return True
                except StructuralFormError:
                    continue
        return False
    if deg == 3:
        for c in _divisors(g0):
            for q1 in _divisors(g1):
                for qm1 in _divisors(gm1):
                    two_a = q1 + qm1 - 2 * c
                    if two_a % 2:
                        continue
                    a = two_a // 2
                    b = q1 - 1 - a - c
                    cand = RationalPolynomial.make([c, b, a, 1])
                    try:
                        g.divide_exact(cand)
                        return True
                    except StructuralFormError:
                        continue
        return False
    raise ValueError("only degree 2 and 3 trial factors supported")


_MODP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def is_irreducible_int(g: RationalPolynomial) -> bool | None:
    """Irreducibility of a monic integer polynomial over the integers.

    Irreducibility modulo a small prime is a proof when it holds and is tried
    first; otherwise a rational-root test and a Kronecker-style trial search
    for quadratic/cubic factors run with capped divisor enumeration.  Returns
    None when no route settles the question.
    """
    M = g.degree
    if M <= 1:
        return True
    g_int = [int(c) for c in g.coeffs]
    if g_int[0] == 0:
        return False
    for r in range(-64, 65):
        if r and _horner(g_int, r) == 0:
            return False
    for p in _MODP_PRIMES:
        if _irreducible_mod_p(g_int, p):
            return True
    if abs(g_int[0]) > _DIVISOR_CAP:
        return None
    for r in _divisors(g_int[0]):
        if _horner(g_int, r) == 0:
            return False
    if M <= 7:
        try:
            for d in range(2, M // 2 + 1):
                if _kronecker_factor(g, d):
                    return False
            return True
        except FitError:
            return None
    return None


@dataclass
class StructureSweep:
    """g_D extraction for every degree in a sweep, with the fitted h polynomials."""

    extractions: dict = field(default_factory=dict)  # D -> GExtraction
    h_polys: dict = field(default_factory=dict)

    @classmethod
    def run(cls, d_max: int) -> "StructureSweep":
        sweep = cls()
        for D in range(2, d_max + 1):
            h, deviations = fit_h(D)
            if deviations:
                raise StructuralFormError(f"h fit deviates at D={D}: {deviations}")
            sweep.h_polys[D] = h
            sweep.extractions[D] = extract_g(D, h)
        return sweep

    def t_data(self, k: int, d_min: int | None = None):
        ds = sorted(self.extractions)
        if d_min is not None:
            ds = [d for d in ds if d >= d_min]
        return [(Fraction(D), self.extractions[D].t_coefficient(k)) for D in ds]


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
    pts = sweep.t_data(k, d_min=k)
    if len(pts) < HOLDOUT + 2:
        raise FitError(f"sweep too short to fit t_{k}")
    return fit_polynomial(pts)


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


def mine_Q_and_norlund(k_max: int = 8, d_sweep: int = 24, sweep: StructureSweep | None = None):
    """Least common denominators Q_k of t_k and leading coefficients of Q_k * t_k.

    Q_k clears t_k to an integer polynomial u_k (asserted); the leading
    coefficient of u_k is the k-th mined value of the second sequence.
    """
    if sweep is None:
        sweep = StructureSweep.run(d_sweep)
    qs, leads = [], []
    for k in range(2, k_max + 1):
        tk = t_series(k, sweep)
        q = tk.lcd()
        uk = tk.scaled(q)
        if not uk.is_integer():
            raise StructuralFormError(f"u_{k} is not an integer polynomial")
        qs.append(q)
        leads.append(int(uk.leading))
    prov = {"d_sweep": d_sweep, "k_max": k_max}
    return (
        MinedSequence("lcd-of-t_k", 2, tuple(qs), prov),
        MinedSequence("leading-of-cleared-t_k", 2, tuple(leads), prov),
    )


# ---------------------------------------------------------------------------
# OEIS b-file comparison

def read_bfile(path) -> dict:
    """Parse the OEIS b-file format: one "index value" pair per line, # comments."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                continue
            out[int(parts[0])] = int(parts[1])
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
    and then with absolute values; the best (mode, offset) wins.
    """
    best = BfileComparison(None, -1, len(seq.values), False, [])
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
