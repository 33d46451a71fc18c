"""Exact reference oracles the tests compare the engine against.

None of these is reached by a ``rootmean`` subcommand: each is an independent
way to compute what the engine computes, kept next to the tests that use it.

* Symmetric functions of a concrete multiset: ``elementary_symmetric``,
  ``power_sums``, ``newton_residual`` and ``mean_parameters``.
* ``SymPoly`` algebra over ``terms()``, ``SymPoly.term`` and ``poly_sum``:
  ``add``, ``sub``, ``mul`` and ``symbol`` (the ring product phi is
  checked against), ``weights``, ``evaluate`` and ``from_json``.
* ``rank`` of a relation report, from the dense relation vectors.
* ``rational_nullspace``: the reduced echelon nullspace basis by back-
  substitution in Fractions, which ``relations.nullspace`` must equal up to
  ``primitive``.  It and ``rank`` eliminate with this module's own copy of
  the Bareiss forward elimination, ``echelon``, so a fault in the engine's
  elimination cannot hide in both sides of a comparison.
* ``full_walk_verdicts``: the coefficient-sum certificate over every
  monomial, parts of 1 included, which the centred certificate must match.
* The mining kernels on lists and Fractions: ``irreducible_mod_p`` (Ben-Or's
  test by schoolbook products mod g), ``divisors`` by trial division to the
  square root, ``interpolate`` by divided differences in Fractions, and
  ``is_irreducible_int``, which decides with those three as the engine
  decides with its own.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from rootmean.exact import ZERO
from rootmean.means import PhiKey, _term_weight
from rootmean.relations import primitive
from rootmean.sympoly import SymPoly, poly_sum

# ---------------------------------------------------------------------------
# symmetric functions of a concrete multiset


def elementary_symmetric(values) -> list:
    """e_0..e_n of a concrete multiset, exact if the inputs are Fractions."""
    e = [Fraction(1)]
    for v in values:
        e.append(Fraction(0))
        for k in range(len(e) - 1, 0, -1):
            e[k] = e[k] + v * e[k - 1]
    return e


def power_sums(values, max_j: int) -> list:
    """p_0..p_max_j of a concrete multiset (p_0 = family size)."""
    vals = list(values)
    out = [Fraction(len(vals))]
    for j in range(1, max_j + 1):
        out.append(sum((v**j for v in vals), Fraction(0)))
    return out


def newton_residual(n: int, values) -> Fraction:
    """sum_{i+j=n} (-1)^j p_j e_i on a concrete n-multiset; identically zero."""
    vals = list(values)
    if len(vals) != n or n < 1:
        raise ValueError("newton_residual needs exactly n values, n >= 1")
    e = elementary_symmetric(vals)
    p = power_sums(vals, n)
    return sum(((-1) ** j * p[j] * e[n - j] for j in range(n + 1)), Fraction(0))


def mean_parameters(values) -> dict:
    """Concrete order-i parameter values of a multiset, {i: e_i / C(n, i)}."""
    vals = [Fraction(v) for v in values]
    n = len(vals)
    e = elementary_symmetric(vals)
    return {i: e[i] / math.comb(n, i) for i in range(1, n + 1)}


# ---------------------------------------------------------------------------
# SymPoly algebra


def symbol(p: int) -> SymPoly:
    """The weight-p parameter."""
    return SymPoly.term(1, {p: 1})


def add(*polys) -> SymPoly:
    return poly_sum(polys)


def sub(a: SymPoly, b: SymPoly) -> SymPoly:
    return poly_sum([a, b.scale(-1)])


def mul(a: SymPoly, b: SymPoly) -> SymPoly:
    """The ring product: every pair of terms, exponents added part by part."""
    out = []
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            parts = dict(ma.items)
            for p, k in mb.items:
                parts[p] = parts.get(p, 0) + k
            out.append(SymPoly.term(ca * cb, parts))
    return poly_sum(out)


def weights(a: SymPoly) -> set:
    return {m.j for m, _ in a.terms()}


class UnboundSymbolError(KeyError):
    """Raised by ``evaluate`` when a part (a parameter) has no value."""

    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"no value for the weight-{symbol} parameter")


def evaluate(a: SymPoly, values: dict):
    """a at {part: value}; Fractions stay exact, floats and complex work too."""
    total = ZERO
    for m, c in a.terms():
        piece = c
        for p, e in reversed(m.items):  # ascending parts, as the terms print
            if p not in values:
                raise UnboundSymbolError(p)
            piece = piece * values[p] ** e
        total = total + piece
    return total


def name_part(name: str, D: int | None = None) -> int:
    """The part ``sympoly.part_name`` names ``name``; a constant needs D."""
    kind, order = name[:1], name[1:]
    if order.isdigit() and int(order) >= 1:
        if kind == "r" and (D is None or int(order) <= D):
            return int(order)
        if kind == "c" and D is not None:
            return D + int(order)
    raise ValueError(f"bad symbol name {name!r} at D={D}")


def from_json(data: dict, D: int | None = None) -> SymPoly:
    """Inverse of ``SymPoly.to_json(D)``; constants ``c<m>`` need the same D."""
    return poly_sum(
        SymPoly.term(Fraction(t["coeff"]), {name_part(name, D): e for name, e in t["expt"].items()})
        for t in data["terms"]
    )


# ---------------------------------------------------------------------------
# relations


def clear_row_denominators(row) -> list:
    """Integer multiple of a row of ints or Fractions; an integral row is read as is."""
    lcm = 1
    for x in row:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    if lcm == 1:
        return [x.numerator for x in row]
    return [x.numerator * (lcm // x.denominator) for x in row]


def echelon(int_rows, ncols: int) -> list:
    """Nonzero rows of a fraction-free (Bareiss) forward elimination.

    Reduces ``int_rows`` (lists of ints, modified in place) to row echelon
    form with the same row space; at most ``ncols`` rows remain.
    """
    mat = [r for r in int_rows if any(r)]
    nrows = len(mat)
    prev_piv = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, nrows):
            if not any(mat[i][c:]):
                continue
            fi = mat[i][c]
            for jc in range(c, ncols):
                mat[i][jc] = (mat[i][jc] * piv - fi * mat[r][jc]) // prev_piv
        prev_piv = piv
        r += 1
    return mat[:r]


def as_mapping(rel) -> dict:
    return dict(zip(rel.support, rel.alpha))


def rank(report) -> int:
    """Rank of every relation a ``RelationReport`` lists, over its rho window."""
    rows = [[as_mapping(rel).get(rho, 0) for rho in report.rho_set] for rel in report.all_relations()]
    return len(echelon(rows, len(report.rho_set)))


def rational_nullspace(rows, ncols: int) -> list:
    """Right-nullspace basis of a matrix of ints or Fractions: ``echelon``'s
    rows, then back-substitution in Fractions with a 1 in each free column
    and 0 in the other free columns."""
    mat = echelon([clear_row_denominators(row) for row in rows], ncols)
    pivot_cols = [next(c for c, x in enumerate(row) if x) for row in mat]
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            c = pivot_cols[i]
            s = sum((mat[i][jc] * v[jc] for jc in range(c + 1, ncols)), Fraction(0))
            v[c] = -s / mat[i][c]
        basis.append(v)
    return basis


def full_walk_verdicts(D: int, alphas, delta: int = 0, rho_set=None) -> list:
    """``relations.certify_relations``'s verdict on each alpha, without the
    centring: every partition is walked, parts of 1 included, and alpha is a
    relation iff each of its monomial totals ends at 0."""
    if rho_set is None:
        rho_set = range(1, D)
    ns = [PhiKey(D, delta, rho).family_size for rho in rho_set]
    alphas = [primitive(alpha) for alpha in alphas]
    if delta > D:
        return [True] * len(alphas)
    deg_g = D - delta
    L = math.lcm(*ns)
    scaled = [[a * (L // n) for a, n in zip(alpha, ns)] for alpha in alphas]
    cols = [[math.comb(n, part) for n in ns if n >= part] for part in range(deg_g + 1)]
    w = clear_row_denominators([_term_weight(D, delta, j) for j in range(deg_g + 1)])
    power = [0] + [(deg_g + 1) ** part for part in range(1, deg_g + 1)]
    totals = {power[deg_g]: [w[0] * L * sum(alpha) for alpha in alphas]}

    def walk(j, top, mult, card, multinomial, prods, key):
        for part in range(min(deg_g - j, top), 0, -1):
            k = mult + 1 if part == top else 1
            child_multinomial = multinomial * (card + 1) // k
            child_prods = list(map(operator.mul, prods, cols[part]))
            c = (-1) ** (j + part + card + 1) * (j + part) * child_multinomial // (card + 1)
            term = [c * w[j + part] * sum(map(operator.mul, child_prods, a)) for a in scaled]
            m = key + power[part] + power[deg_g - j - part]
            total = totals.get(m)
            totals[m] = term if total is None else list(map(operator.add, total, term))
            if j + part < deg_g:
                walk(j + part, part, k, card + 1, child_multinomial, child_prods, key + power[part])

    walk(0, deg_g, 0, 0, 1, [1] * len(ns), 0)
    return [not any(total[i] for total in totals.values()) for i in range(len(alphas))]


# ---------------------------------------------------------------------------
# mining


def divisors(n: int) -> list:
    """Every divisor of n, both signs, ascending, by trial division to isqrt(|n|)."""
    n = abs(n)
    out = set()
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.update((d, n // d, -d, -(n // d)))
    return sorted(out)


def interpolate(points) -> list:
    """Ascending Fraction coefficients, trailing zeros stripped, of the
    polynomial through the (x, y) pairs: divided differences in Fractions,
    then Horner on the Newton form."""
    xs = [Fraction(x) for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = []
    for xi, c in zip(reversed(xs), reversed(coef)):
        poly = [Fraction(0), *poly]
        for k in range(len(poly) - 1):
            poly[k] -= xi * poly[k + 1]
        poly[0] += c
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


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


def irreducible_mod_p(g_int, p) -> bool:
    """Ben-Or's test for the monic ascending integer list g_int over GF(p)."""
    g = [c % p for c in g_int]
    frob = [0, 1]
    for _ in range((len(g) - 1) // 2):
        frob = _ppowmod(frob, p, g, p)  # x^(p^d) mod g
        h = frob + [0] * (2 - len(frob))
        h[1] = (h[1] - 1) % p
        if len(_pgcd(h, g, p)) != 1:
            return False
    return True


def is_irreducible_int(g_int, primes) -> bool | None:
    """True if Ben-Or's test finds the monic g_int irreducible modulo one of
    ``primes``, False if it has an integer root (among the divisors of g(0),
    or in -64..64 once |g(0)| > 10^12), else None."""
    if len(g_int) <= 2:
        return True
    if any(irreducible_mod_p(g_int, p) for p in primes):
        return True
    candidates = range(-64, 65) if abs(g_int[0]) > 10**12 else divisors(g_int[0])
    if g_int[0] == 0 or any(sum(c * r**i for i, c in enumerate(g_int)) == 0 for r in candidates):
        return False
    return None
